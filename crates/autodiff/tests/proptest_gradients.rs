//! Property-based gradient checks: reverse-mode must agree with finite
//! differences on randomized compositions. One op-family loss is also
//! pinned bit for bit on fixed inputs.

use dosa_autodiff::{check_gradients, max_of, prod, softmax, sum, Ctx, Scalar, Tape};
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

/// Fixed inputs of [`layered_loss_on`], one layer per inner slice. The
/// first sits on the hinge's corner (`0.75`); the rest vary the layer
/// count and width, so both parities of the `i % 2` branch recur.
const OP_FAMILY_INPUTS: [&[&[f64]]; 4] = [
    &[&[0.75, 1.25]],
    &[&[0.3, 0.9, 1.7], &[1.1, 0.45]],
    &[&[0.5, 1.0, 1.5, 1.95, 0.35], &[0.8], &[1.9, 0.6, 1.2]],
    &[
        &[1.0, 1.0, 1.0, 1.0],
        &[0.3, 1.99],
        &[0.65, 1.35, 0.95],
        &[1.75, 0.4, 0.85, 1.05, 0.55],
    ],
];

/// `(loss bits, leaf-gradient hash)` of [`layered_loss_on`] on each entry
/// of [`OP_FAMILY_INPUTS`], in the format the mismatch report prints.
#[rustfmt::skip]
const OP_FAMILY_PINS: &[(u64, u64)] = &[
    (0x3ffd6a6db790bc8b, 0xeaa3a69368b9c4be),
    (0x4005870d71a4aeb6, 0x311b305134ab61da),
    (0x400aa341dc502629, 0xce6dcdad9e5d4879),
    (0x400da77d4d0f1bed, 0x3e327abe1089d7fa),
];

/// 64-bit FNV-1a over the bit patterns of `xs`, eight bytes each.
fn fnv1a(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The op-family loss reproduces its pinned value and gradient bits: the
/// absolute check that names a changed forward formula or partial of any
/// op it uses. On a mismatch the test prints the replacement table;
/// regenerating is a deliberate hand edit, only for a change meant to
/// alter an op's values.
#[test]
fn op_family_loss_reproduces_its_pinned_bits() {
    let got: Vec<(u64, u64)> = OP_FAMILY_INPUTS
        .iter()
        .map(|layers| {
            let sizes: Vec<usize> = layers.iter().map(|l| l.len()).collect();
            let tape = Tape::new();
            let vars: Vec<_> = layers
                .iter()
                .copied()
                .flatten()
                .map(|&v| tape.var(v))
                .collect();
            let loss = layered_loss_on(&tape, &vars, &sizes);
            let grads = tape.backward(loss).wrt_slice(&vars);
            (loss.value().to_bits(), fnv1a(&grads))
        })
        .collect();
    if got != OP_FAMILY_PINS {
        println!("replacement table:\nconst OP_FAMILY_PINS: &[(u64, u64)] = &[");
        for (l, g) in &got {
            println!("    ({l:#018x}, {g:#018x}),");
        }
        println!("];");
        panic!("op-family pins moved (replacement table above)");
    }
}

fn layer_shapes() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.3f64..2.0, 2..6), 1..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reverse mode agrees with central finite differences on randomized
    /// multi-layer op-family losses.
    #[test]
    fn layered_loss_matches_fd(layers in layer_shapes()) {
        let sizes: Vec<usize> = layers.iter().map(Vec::len).collect();
        let flat: Vec<f64> = layers.iter().flatten().copied().collect();
        let err = check_gradients(&flat, 1e-6, |tape, vs| {
            layered_loss_on(tape, vs, &sizes)
        });
        prop_assert!(err < 1e-4, "finite-difference mismatch: err={err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rational_functions_match_fd(a in 0.5f64..4.0, b in 0.5f64..4.0, c in 0.5f64..4.0) {
        let err = check_gradients(&[a, b, c], 1e-6, |_, xs| {
            (xs[0] * xs[1] + xs[2]) / (xs[0] + xs[1] * xs[2] + 1.0)
        });
        prop_assert!(err < 1e-5, "err={err}");
    }

    #[test]
    fn log_space_products_match_fd(xs in proptest::collection::vec(0.2f64..5.0, 2..6)) {
        let err = check_gradients(&xs, 1e-6, |tape, vs| {
            let logs: Vec<_> = vs.iter().map(|v| v.ln()).collect();
            sum(tape, &logs).exp()
        });
        prop_assert!(err < 1e-4, "err={err}");
    }

    #[test]
    fn softmax_weighted_sum_matches_fd(xs in proptest::collection::vec(-2.0f64..2.0, 3..5)) {
        let err = check_gradients(&xs, 1e-6, |tape, vs| {
            let sm = softmax(tape, vs);
            dosa_autodiff::dot(tape, &sm, vs)
        });
        prop_assert!(err < 1e-4, "err={err}");
    }

    #[test]
    fn product_gradient_is_partial_product(xs in proptest::collection::vec(0.5f64..3.0, 2..7)) {
        let tape = Tape::new();
        let vars: Vec<_> = xs.iter().map(|&x| tape.var(x)).collect();
        let p = prod(&tape, &vars);
        let g = tape.backward(p);
        for (i, &x) in xs.iter().enumerate() {
            let expected = p.value() / x;
            prop_assert!((g.wrt(vars[i]) - expected).abs() < 1e-9 * expected.abs().max(1.0));
        }
    }

    #[test]
    fn max_of_value_matches_iter_max(xs in proptest::collection::vec(-10.0f64..10.0, 1..8)) {
        let tape = Tape::new();
        let vars: Vec<_> = xs.iter().map(|&x| tape.var(x)).collect();
        let m = max_of(&tape, &vars);
        let expected = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(m.value(), expected);
        // Exactly one unit of gradient flows back.
        let g = tape.backward(m);
        let total: f64 = vars.iter().map(|&v| g.wrt(v)).sum();
        prop_assert!((total - 1.0).abs() < 1e-12);
    }
}
