//! Parity of the segmented backward sweep on randomized multi-layer
//! losses: reverse-mode gradients on the node-record [`Tape`] (one record
//! per op) must agree with finite differences, match the pre-refactor
//! [`LegacyTape`] bit-for-bit, and be bit-identical for every worker
//! budget handed to [`Tape::backward_segmented`].

use dosa_autodiff::{check_gradients, Ctx, LegacyTape, Scalar, SegScratch, SegmentPlan, Tape};
use proptest::prelude::*;

/// A nonlinear multi-layer loss exercising every op family the model hot
/// path uses (fused scalar ops, ln/exp, square/sqrt/recip, max/min, relu,
/// hinge), recorded with one tape segment per layer.
///
/// `vars` is the flat leaf list, chunked by `sizes`; all inputs must be
/// positive so the logarithms stay finite.
fn layered_loss_on<C: Ctx>(cx: C, vars: &[C::N], sizes: &[usize], plan: &mut SegmentPlan) -> C::N {
    let mut terms: Vec<C::N> = Vec::new();
    plan.serial_to(cx.mark());
    plan.begin_group();
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
        plan.chunk_to(cx.mark());
    }
    plan.end_group();
    let mut total = cx.constant(0.0);
    for &t in &terms {
        total = total + t;
    }
    let loss = (total + 1.0).ln() + total * 0.001;
    plan.serial_to(cx.mark());
    loss
}

fn layer_shapes() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.3f64..2.0, 2..6), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Finite differences, the legacy AoS tape, and the segmented sweep at
    /// worker budgets 1/2/8 all agree on randomized multi-layer losses —
    /// the last two bit-for-bit.
    #[test]
    fn segmented_matches_fd_legacy_and_every_worker_budget(layers in layer_shapes()) {
        let sizes: Vec<usize> = layers.iter().map(Vec::len).collect();
        let flat: Vec<f64> = layers.iter().flatten().copied().collect();

        // Reverse mode vs central finite differences.
        let err = check_gradients(&flat, 1e-6, |tape, vs| {
            layered_loss_on(tape, vs, &sizes, &mut SegmentPlan::disabled())
        });
        prop_assert!(err < 1e-4, "finite-difference mismatch: err={err}");

        // New SoA tape, flat backward: the reference for the bit checks.
        let tape = Tape::new();
        let vars: Vec<_> = flat.iter().map(|&v| tape.var(v)).collect();
        let mut plan = SegmentPlan::new();
        let loss = layered_loss_on(&tape, &vars, &sizes, &mut plan);
        let grads = tape.backward(loss);
        let reference: Vec<f64> = grads.wrt_slice(&vars);

        // Legacy AoS tape on the identical expression, bit-for-bit.
        let legacy = LegacyTape::new();
        let lvars: Vec<_> = flat.iter().map(|&v| legacy.var(v)).collect();
        let lloss = layered_loss_on(&legacy, &lvars, &sizes, &mut SegmentPlan::disabled());
        prop_assert_eq!(lloss.value().to_bits(), loss.value().to_bits());
        let lgrads = legacy.backward(lloss);
        for (i, &lv) in lvars.iter().enumerate() {
            prop_assert_eq!(
                lgrads.wrt(lv).to_bits(),
                reference[i].to_bits(),
                "legacy gradient {} diverged", i
            );
        }

        // Segmented sweep at several worker budgets, bit-for-bit.
        let mut scratch = SegScratch::new();
        for threads in [1usize, 2, 8] {
            let view = tape.backward_segmented(loss, &plan, threads, &mut scratch);
            for (i, &v) in vars.iter().enumerate() {
                prop_assert_eq!(
                    view.wrt(v).to_bits(),
                    reference[i].to_bits(),
                    "segmented gradient {} diverged at {} workers", i, threads
                );
            }
        }
    }
}

/// Big enough per-layer chunks to cross the parallel-group node threshold,
/// so the scoped-thread sweep (not the serial fallback) is what must stay
/// bit-identical across worker budgets.
#[test]
fn large_group_parity_across_worker_budgets() {
    let sizes = vec![600usize; 8];
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        // xorshift64*: deterministic values in (0.3, 2.0) without rand.
        seed ^= seed >> 12;
        seed ^= seed << 25;
        seed ^= seed >> 27;
        let u = (seed.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64;
        0.3 + 1.7 * u
    };
    let flat: Vec<f64> = (0..sizes.iter().sum::<usize>()).map(|_| next()).collect();

    let tape = Tape::new();
    let vars: Vec<_> = flat.iter().map(|&v| tape.var(v)).collect();
    let mut plan = SegmentPlan::new();
    let loss = layered_loss_on(&tape, &vars, &sizes, &mut plan);
    let reference = tape.backward(loss);

    let mut scratch = SegScratch::new();
    for threads in [1usize, 2, 3, 8] {
        let view = tape.backward_segmented(loss, &plan, threads, &mut scratch);
        for &v in &vars {
            assert_eq!(
                view.wrt(v).to_bits(),
                reference.wrt(v).to_bits(),
                "diverged at {threads} workers"
            );
        }
    }
}
