//! Absolute bits of the whole-model loss on randomized parameter points.
//!
//! A three-layer network (a repeated convolution, a matmul and a 1×1
//! convolution) at 8 parameter points drawn from seed 61, under both the
//! fixed-ordering and the softmax-ordering loss. Per case the table pins
//! the loss bits, the forward EDP bits and an FNV-1a hash over the
//! leaf-gradient bits. `tape_shape.rs` pins one point per ordering on
//! ResNet-50; these points spread over the whole parameter box, so they
//! reach the penalty terms, non-unit spatial factors and softmax weights
//! an identity mapping leaves flat.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating is a deliberate hand edit of [`PINS`], only for a change
//! meant to alter the model's values or partials.

use dosa_accel::Hierarchy;
use dosa_autodiff::Tape;
use dosa_model::{build_loss, LossOptions, RelaxedMapping, PARAMS_PER_LAYER};
use dosa_timeloop::Stationarity;
use dosa_workload::{Layer, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(round, softmax_ordering, loss bits, edp bits, leaf-gradient hash)`,
/// one line per case in the format the mismatch report prints.
#[rustfmt::skip]
const PINS: &[(usize, bool, u64, u64, u64)] = &[
    (0, false, 0x404071b11099d1da, 0x42127fbfc009e06b, 0x5b663970702fe5e9),
    (0, true, 0x404042e83ec3cb0e, 0x4209abc5b5d5230c, 0xe994329c6a4d9101),
    (1, false, 0x40411397750b4b4f, 0x421b06a5f2613dd0, 0x78af365f29390dae),
    (1, true, 0x4040fc797a51f0f9, 0x42168f75e96e969a, 0x40b340baf6e5c0c2),
    (2, false, 0x40403a265e2753ed, 0x421554abb2c80b09, 0xa656ab5c696862f5),
    (2, true, 0x40401b5034c8e1e2, 0x4210c39b082eb599, 0x528c7da313f7324e),
    (3, false, 0x4040698eb215ea25, 0x422416bdfc787303, 0xa5deba55dda62751),
    (3, true, 0x40404ec885266661, 0x42204c1347b9e5d2, 0x68aef41fdc65e036),
    (4, false, 0x404010876a843eba, 0x420b89bb920ed8c8, 0x24ff30a488c2113c),
    (4, true, 0x403fb503b87e9134, 0x42020e8b3481b694, 0x18a98d73758dc7fb),
    (5, false, 0x404017cd8904588a, 0x42182a4698462851, 0xd6c0621afbf26b81),
    (5, true, 0x403fe7cf2bc44597, 0x4212415c17967e03, 0xc5f13fe062cb4827),
    (6, false, 0x4040dcef21e1f1e9, 0x42421f5c3496516f, 0xb4ecdac1af81e232),
    (6, true, 0x40407d5e7b05d7d3, 0x42312de048b6dd01, 0xcf7e2dc583c786ad),
    (7, false, 0x403f7d003b1172f4, 0x4207eb720f79e42a, 0x55cc4388fdd6f98f),
    (7, true, 0x403f584874fbbf28, 0x4204b93e78c5e865, 0xe9f790fb965c8bcc),
];

fn layers() -> Vec<Layer> {
    vec![
        Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
        Layer::once(Problem::matmul("b", 128, 256, 512).unwrap()),
        Layer::once(Problem::conv("c", 1, 1, 14, 14, 256, 128, 1).unwrap()),
    ]
}

fn random_start(layers: &[Layer], rng: &mut StdRng) -> Vec<RelaxedMapping> {
    layers
        .iter()
        .map(|_| {
            let mut r = RelaxedMapping::identity(Stationarity::WeightStationary);
            let v: Vec<f64> = (0..PARAMS_PER_LAYER)
                .map(|_| rng.gen_range(0.05f64..1.5))
                .collect();
            r.set_params(&v);
            r
        })
        .collect()
}

/// 64-bit FNV-1a over the bit patterns of `xs`, eight bytes each.
fn fnv1a(xs: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn random_points_reproduce_their_pinned_bits() {
    let layers = layers();
    let hier = Hierarchy::gemmini();
    let mut rng = StdRng::seed_from_u64(61);
    let mut got = Vec::new();
    for round in 0..8 {
        let relaxed = random_start(&layers, &mut rng);
        for softmax_ordering in [false, true] {
            let opts = LossOptions {
                softmax_ordering,
                ..LossOptions::default()
            };
            let tape = Tape::new();
            let built = build_loss(&tape, &layers, &relaxed, &hier, &opts);
            let grads = tape.backward(built.loss);
            let hash = fnv1a(built.leaves.iter().flatten().map(|&v| grads.wrt(v)));
            got.push((
                round,
                softmax_ordering,
                built.loss.value().to_bits(),
                built.edp.to_bits(),
                hash,
            ));
        }
    }
    if got != PINS {
        println!("replacement table:\nconst PINS: &[(usize, bool, u64, u64, u64)] = &[");
        for (r, s, l, e, g) in &got {
            println!("    ({r}, {s}, {l:#018x}, {e:#018x}, {g:#018x}),");
        }
        println!("];");
        panic!("loss pins moved (replacement table above)");
    }
}
