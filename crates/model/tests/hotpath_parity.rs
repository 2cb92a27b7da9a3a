//! Hot-path parity for the generic loss builder: [`build_loss_in`] on the
//! node-record [`Tape`] (one record per op) must match the pre-refactor
//! [`LegacyTape`] bit-for-bit on randomized multi-layer parameter points.

use dosa_accel::Hierarchy;
use dosa_autodiff::{LegacyTape, Scalar, SegmentPlan, Tape};
use dosa_model::{build_loss_in, LossOptions, RelaxedMapping, PARAMS_PER_LAYER};
use dosa_timeloop::Stationarity;
use dosa_workload::{Layer, Problem};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

fn options() -> [LossOptions; 2] {
    [
        LossOptions::default(),
        LossOptions {
            softmax_ordering: true,
            ..LossOptions::default()
        },
    ]
}

/// The legacy AoS tape and the new SoA tape produce bit-identical loss
/// values and leaf gradients on randomized parameter points, for both the
/// fixed-ordering and softmax-ordering losses.
#[test]
fn legacy_and_soa_tapes_agree_bitwise_on_random_points() {
    let layers = layers();
    let hier = Hierarchy::gemmini();
    let mut rng = StdRng::seed_from_u64(61);
    for round in 0..8 {
        let relaxed = random_start(&layers, &mut rng);
        for opts in options() {
            let tape = Tape::new();
            let mut leaves = Vec::new();
            let built = build_loss_in(
                &tape,
                &layers,
                &relaxed,
                &hier,
                &opts,
                &mut SegmentPlan::new(),
                &mut leaves,
            );
            let grads = tape.backward(built.loss);
            let flat = grads.wrt_slice(&leaves);

            let legacy = LegacyTape::new();
            let mut lleaves = Vec::new();
            let lbuilt = build_loss_in(
                &legacy,
                &layers,
                &relaxed,
                &hier,
                &opts,
                &mut SegmentPlan::new(),
                &mut lleaves,
            );
            assert_eq!(
                lbuilt.loss.value().to_bits(),
                built.loss.value().to_bits(),
                "loss diverged on round {round}"
            );
            assert_eq!(lbuilt.edp.value().to_bits(), built.edp.value().to_bits());
            let lgrads = legacy.backward(lbuilt.loss);
            assert_eq!(lleaves.len(), leaves.len());
            for (i, &lv) in lleaves.iter().enumerate() {
                assert_eq!(
                    lgrads.wrt(lv).to_bits(),
                    flat[i].to_bits(),
                    "gradient {i} diverged on round {round}"
                );
            }
        }
    }
}
