//! Absolute golden outputs of the §6.5 predictor-adjusted latency loss for
//! every latency-model kind: analytical, DNN-only and analytical+DNN.
//!
//! `golden.rs` pins only the analytical predictor. This table also pins
//! the two learned predictors, trained on a small seeded RTL dataset, at
//! three levels:
//!
//! * one `PredictedLatencyLoss` gradient step: the loss bits and an
//!   FNV-1a hash over the leaf-gradient bits (not the tape length, which
//!   a refactor may change without changing a value);
//! * one two-start search job on a 2-worker service: `best_edp` bits and
//!   the history hash, as in `golden.rs`;
//! * `LatencyPredictor::predict` on the first eight dataset samples,
//!   hashed over their bits.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating is a deliberate hand edit of [`GOLDEN`] — only do it for a
//! change that is meant to alter search results, and say so in review.

use dosa_accel::Hierarchy;
use dosa_autodiff::{SegmentPlan, Tape, Var};
use dosa_model::LossOptions;
use dosa_nn::TrainConfig;
use dosa_rtl::RtlConfig;
use dosa_search::engine::DiffLoss;
use dosa_search::{
    generate_rtl_dataset, generate_start_point, GdConfig, LatencyModelKind, LatencyPredictor,
    PredictedLatencyLoss, RtlDataset, SearchRequest, SearchService, Surrogate,
};
use dosa_workload::{Layer, Problem};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(kind, step loss bits, step gradient hash, job best_edp bits, job
/// history hash, predict hash)`, one line per kind in the format the
/// mismatch report prints.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    ("Analytical", 0x402aded0e7f8eb25, 0x611f5a442d090736, 0x412e574daf0b81fa, 0xd618825114012de6, 0x9e10c68e7a482c6a),
    ("DnnOnly", 0x4037339877e81281, 0x58c27e755756d0c0, 0x42510dcb04bec20c, 0x7e2f8b04756d0173, 0xfe05faf12a07cf70),
    ("Combined", 0x402dc85ce89786c8, 0xe1f541972a7848d6, 0x415204337c732aa9, 0xce6afdc9bcf65a4a, 0xd012209bdbde31a5),
];

fn layers() -> Vec<Layer> {
    vec![
        Layer::repeated(Problem::conv("c", 3, 3, 14, 14, 32, 64, 1).unwrap(), 2),
        Layer::once(Problem::matmul("m", 64, 128, 96).unwrap()),
    ]
}

/// 64-bit FNV-1a over `words`, each as little-endian bytes.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn dataset(layers: &[Layer], hier: &Hierarchy) -> RtlDataset {
    generate_rtl_dataset(layers, 60, hier, &RtlConfig::default(), 7)
}

fn predictor(kind: LatencyModelKind, data: &RtlDataset) -> LatencyPredictor {
    let cfg = TrainConfig {
        epochs: 20,
        ..TrainConfig::default()
    };
    LatencyPredictor::fit(kind, data, &cfg, 3)
}

/// Loss bits and gradient hash of one recorded step at a seeded start.
fn step(layers: &[Layer], hier: &Hierarchy, predictor: &LatencyPredictor) -> (u64, u64) {
    let loss = PredictedLatencyLoss {
        layers,
        hier,
        predictor,
        pe_side: 16,
    };
    let mut rng = StdRng::seed_from_u64(11);
    let relaxed = generate_start_point(&mut rng, layers, hier, &LossOptions::default()).relaxed;
    let tape = Tape::new();
    let mut leaves: Vec<Var<'_>> = Vec::new();
    let out = loss.build(&tape, &relaxed, &mut SegmentPlan, &mut leaves);
    let mut adj = Vec::new();
    let mut grads = Vec::new();
    tape.backward_into(out, &mut adj)
        .wrt_into(&leaves, &mut grads);
    (
        out.value().to_bits(),
        fnv1a(grads.iter().map(|g| g.to_bits())),
    )
}

#[test]
fn every_predictor_kind_reproduces_its_golden_bits() {
    let layers = layers();
    let hier = Hierarchy::gemmini();
    let data = dataset(&layers, &hier);
    let service = SearchService::builder().threads(2).build();
    let kinds = [
        LatencyModelKind::Analytical,
        LatencyModelKind::DnnOnly,
        LatencyModelKind::Combined,
    ];
    let mut actual = Vec::new();
    for kind in kinds {
        let predictor = predictor(kind, &data);
        let (loss_bits, grad_hash) = step(&layers, &hier, &predictor);
        let request = SearchRequest::builder(hier.clone())
            .network("net", layers.clone())
            .surrogate(Surrogate::PredictedLatency(predictor.clone()))
            .config(GdConfig {
                start_points: 2,
                steps_per_start: 40,
                round_every: 20,
                seed: 5,
                ..GdConfig::default()
            })
            .build();
        let result = service
            .submit(request)
            .unwrap()
            .wait()
            .unwrap()
            .into_single();
        let history = fnv1a(
            result
                .history
                .iter()
                .flat_map(|p| [p.samples as u64, p.best_edp.to_bits()]),
        );
        let predicted = fnv1a(data.samples.iter().take(8).map(|s| {
            predictor
                .predict(&s.problem, &s.mapping, &s.hw, &hier)
                .to_bits()
        }));
        actual.push((
            format!("{kind:?}"),
            loss_bits,
            grad_hash,
            result.best_edp.to_bits(),
            history,
            predicted,
        ));
    }

    let golden: Vec<(String, u64, u64, u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, a, b, c, d, e)| (name.to_string(), a, b, c, d, e))
        .collect();
    if actual != golden {
        println!("replacement table:\nconst GOLDEN: &[(&str, u64, u64, u64, u64, u64)] = &[");
        for (name, a, b, c, d, e) in &actual {
            println!("    ({name:?}, {a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}, {e:#018x}),");
        }
        println!("];");
        panic!("learned-surrogate golden mismatch (replacement table above)");
    }
}
