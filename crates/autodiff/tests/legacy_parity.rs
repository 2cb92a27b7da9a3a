//! Parity of the tape on randomized multi-layer losses: reverse-mode
//! gradients on the node-record [`Tape`] (one record per op) must agree
//! with finite differences and match the pre-refactor [`LegacyTape`]
//! bit-for-bit.

use dosa_autodiff::{check_gradients, Ctx, LegacyTape, Scalar, Tape};
use proptest::prelude::*;

/// A nonlinear multi-layer loss exercising every op family the model hot
/// path uses (fused scalar ops, ln/exp, square/sqrt/recip, max/min, relu,
/// hinge), one term per layer.
///
/// `vars` is the flat leaf list, chunked by `sizes`; all inputs must be
/// positive so the logarithms stay finite.
fn layered_loss_on<C: Ctx>(cx: C, vars: &[C::N], sizes: &[usize]) -> C::N {
    let mut terms: Vec<C::N> = Vec::new();
    let mut offset = 0;
    for &size in sizes {
        let layer = &vars[offset..offset + size];
        offset += size;
        let mut acc = cx.constant(0.1);
        let mut p = cx.constant(1.0);
        for (i, &v) in layer.iter().enumerate() {
            let t = (v * 0.5 + 1.25).ln().exp() + v.square() * 0.125;
            acc = acc + t.max(v.relu() + 0.1) + v.hinge_below(0.75);
            p = p * (v.exp() * 0.25 + 1.0);
            if i % 2 == 0 {
                acc = acc + (v + 2.5).recip();
            }
        }
        let term = (acc + p.ln()).square().sqrt() + acc.min(p) * 0.01;
        terms.push(term);
    }
    let mut total = cx.constant(0.0);
    for &t in &terms {
        total = total + t;
    }
    (total + 1.0).ln() + total * 0.001
}

fn layer_shapes() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.3f64..2.0, 2..6), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Finite differences and the legacy AoS tape agree with the tape on
    /// randomized multi-layer losses — the legacy tape bit-for-bit.
    #[test]
    fn tape_matches_fd_and_legacy_bitwise(layers in layer_shapes()) {
        let sizes: Vec<usize> = layers.iter().map(Vec::len).collect();
        let flat: Vec<f64> = layers.iter().flatten().copied().collect();

        // Reverse mode vs central finite differences.
        let err = check_gradients(&flat, 1e-6, |tape, vs| {
            layered_loss_on(tape, vs, &sizes)
        });
        prop_assert!(err < 1e-4, "finite-difference mismatch: err={err}");

        // Node-record tape: the reference for the bit checks.
        let tape = Tape::new();
        let vars: Vec<_> = flat.iter().map(|&v| tape.var(v)).collect();
        let loss = layered_loss_on(&tape, &vars, &sizes);
        let grads = tape.backward(loss);
        let reference: Vec<f64> = grads.wrt_slice(&vars);

        // Legacy AoS tape on the identical expression, bit-for-bit.
        let legacy = LegacyTape::new();
        let lvars: Vec<_> = flat.iter().map(|&v| legacy.var(v)).collect();
        let lloss = layered_loss_on(&legacy, &lvars, &sizes);
        prop_assert_eq!(lloss.value().to_bits(), loss.value().to_bits());
        let lgrads = legacy.backward(lloss);
        for (i, &lv) in lvars.iter().enumerate() {
            prop_assert_eq!(
                lgrads.wrt(lv).to_bits(),
                reference[i].to_bits(),
                "legacy gradient {} diverged", i
            );
        }
    }
}
