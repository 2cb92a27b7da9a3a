//! The exact shape of one recorded ResNet-50 gradient step.
//!
//! `build_loss_with` on the analytical latency over the 21 unique
//! ResNet-50 layers at the identity weight-stationary mapping, under both
//! loop-ordering losses. Per case the test pins three numbers: the tape
//! length, the loss bits and an FNV-1a hash over the leaf-gradient bits.
//! The search goldens only see final EDPs; this table names the step if
//! the recorder ever adds, drops or reorders a node, or changes a forward
//! value or a partial.
//!
//! Regenerating is a deliberate hand edit, only for a change meant to
//! alter the recorded graph; the mismatch report prints the new row.

use dosa_accel::Hierarchy;
use dosa_autodiff::{Tape, Var};
use dosa_model::{analytical, build_loss_with, LossOptions, RelaxedMapping};
use dosa_timeloop::Stationarity;
use dosa_workload::{unique_layers, Network};

/// `(softmax_ordering, tape.len(), loss bits, leaf-gradient hash)`.
const SHAPES: [(bool, usize, u64, u64); 2] = [
    (false, 8650, 0x40423bb85e077468, 0xa9c41ba6984fa630),
    (true, 19339, 0x404239b5787fe9db, 0x588b89d742398164),
];

/// FNV-1a over the bit patterns of `xs`, eight bytes each.
fn fnv1a(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn resnet50_step_records_the_pinned_graph() {
    let layers = unique_layers(Network::ResNet50);
    assert_eq!(layers.len(), 21);
    let relaxed = vec![RelaxedMapping::identity(Stationarity::WeightStationary); layers.len()];
    let hier = Hierarchy::gemmini();
    let got: Vec<(bool, usize, u64, u64)> = SHAPES
        .iter()
        .map(|&(softmax_ordering, ..)| {
            let opts = LossOptions {
                softmax_ordering,
                ..LossOptions::default()
            };
            let tape = Tape::new();
            let mut leaves: Vec<Var<'_>> = Vec::new();
            let built = build_loss_with(
                &tape,
                &layers,
                &relaxed,
                &hier,
                &opts,
                &mut leaves,
                analytical,
            );
            let mut adj = Vec::new();
            let mut grads = Vec::new();
            tape.backward_into(built.loss, &mut adj)
                .wrt_into(&leaves, &mut grads);
            (
                softmax_ordering,
                tape.len(),
                built.loss.value().to_bits(),
                fnv1a(&grads),
            )
        })
        .collect();
    if got != SHAPES {
        let rows: Vec<String> = got
            .iter()
            .map(|(s, n, l, g)| format!("    ({s}, {n}, {l:#018x}, {g:#018x}),"))
            .collect();
        panic!(
            "recorded step moved; replacement table:\n{}",
            rows.join("\n")
        );
    }
}
