//! Absolute golden outputs: the exact bits every strategy × surrogate ×
//! seed produces on two fixed networks at smoke budgets.
//!
//! Parity tests compare the service against the blocking shims, and both
//! run the same engine, so a change that moves a result bit on both sides
//! passes them. This table pins the answer itself: per case,
//! `best_edp.to_bits()` and an FNV-1a hash over the history's
//! `(samples, best_edp.to_bits())` pairs.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating is a deliberate hand edit of [`GOLDEN`] — only do it for a
//! change that is meant to alter search results, and say so in review.

use dosa_accel::Hierarchy;
use dosa_search::{
    BbboConfig, GdConfig, LatencyPredictor, RandomSearchConfig, SearchRequest, SearchResult,
    SearchService, Strategy, Surrogate,
};
use dosa_workload::{unique_layers, Layer, Network, Problem};

/// `(case name, best_edp.to_bits(), history hash)`, one line per case in
/// the format the mismatch report prints.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64)] = &[
    ("gemm/gd-edp/seed0", 0x4106cfa4ff8f7df3, 0xd9fd66cacf92fbf1),
    ("gemm/gd-latency/seed0", 0x410ff5ff203122e2, 0xc14972184d89f83c),
    ("gemm/random/seed0", 0x41229b421e7fea3d, 0x85c676fc6a42156d),
    ("gemm/bbbo/seed0", 0x412bc58215438916, 0x614d14860ba971c7),
    ("gemm/gd-edp/seed1", 0x4107f9884a447a61, 0xd7638be8d01115b1),
    ("gemm/gd-latency/seed1", 0x4113bd071d085719, 0x414224aadc2bbfac),
    ("gemm/random/seed1", 0x413e50c663738f3b, 0x0ed4b73b2ec5c610),
    ("gemm/bbbo/seed1", 0x41431ff5444b6fa6, 0x09b114323c006dd6),
    ("resnet50-2/gd-edp/seed0", 0x41b16c6687913898, 0x1e9b271729182109),
    ("resnet50-2/gd-latency/seed0", 0x41d2feb95e6e64b8, 0x2cb0206e42315d3c),
    ("resnet50-2/random/seed0", 0x41f06002029c155a, 0xd8602a47f581e678),
    ("resnet50-2/bbbo/seed0", 0x4203be33ad385c9a, 0x54455e7212778e0d),
    ("resnet50-2/gd-edp/seed1", 0x41d3c4f6b7215a06, 0xaf80c2d79e386800),
    ("resnet50-2/gd-latency/seed1", 0x41d3da7b8e3d3b9f, 0x3a63894ab45f03a7),
    ("resnet50-2/random/seed1", 0x41f58199ec7dd56e, 0xc46267718a4682d4),
    ("resnet50-2/bbbo/seed1", 0x41f1e8bac335d0ad, 0xd992acd5c6c2bd12),
];

fn networks() -> [(&'static str, Vec<Layer>); 2] {
    [
        (
            "gemm",
            vec![Layer::once(Problem::matmul("gemm", 64, 256, 256).unwrap())],
        ),
        (
            "resnet50-2",
            unique_layers(Network::ResNet50)
                .into_iter()
                .take(2)
                .collect(),
        ),
    ]
}

fn gd(seed: u64) -> Strategy {
    Strategy::GradientDescent(GdConfig {
        start_points: 2,
        steps_per_start: 40,
        round_every: 20,
        seed,
        ..GdConfig::default()
    })
}

/// The four (label, strategy, surrogate) searchers of the corpus.
fn searchers(seed: u64) -> [(&'static str, Strategy, Surrogate); 4] {
    [
        ("gd-edp", gd(seed), Surrogate::Edp),
        (
            "gd-latency",
            gd(seed),
            Surrogate::PredictedLatency(LatencyPredictor::analytical()),
        ),
        (
            "random",
            Strategy::Random(RandomSearchConfig {
                num_hw: 3,
                samples_per_hw: 40,
                seed,
            }),
            Surrogate::Edp,
        ),
        (
            "bbbo",
            Strategy::BayesOpt(BbboConfig {
                num_hw: 5,
                init_random: 2,
                samples_per_hw: 12,
                candidates: 25,
                seed,
            }),
            Surrogate::Edp,
        ),
    ]
}

/// 64-bit FNV-1a over the history's `(samples, best_edp bits)` pairs,
/// each as little-endian `u64`s.
fn history_hash(result: &SearchResult) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for point in &result.history {
        for word in [point.samples as u64, point.best_edp.to_bits()] {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

#[test]
fn every_case_reproduces_its_golden_bits() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let mut jobs = Vec::new();
    for (net, layers) in networks() {
        for seed in [0u64, 1] {
            for (label, strategy, surrogate) in searchers(seed) {
                let request = SearchRequest::builder(hier.clone())
                    .network(net, layers.clone())
                    .strategy(strategy)
                    .surrogate(surrogate)
                    .build();
                let job = service.submit(request).unwrap();
                jobs.push((format!("{net}/{label}/seed{seed}"), job));
            }
        }
    }
    let actual: Vec<(String, u64, u64)> = jobs
        .into_iter()
        .map(|(name, job)| {
            let result = job.wait().unwrap().into_single();
            (name, result.best_edp.to_bits(), history_hash(&result))
        })
        .collect();

    let golden: Vec<(String, u64, u64)> = GOLDEN
        .iter()
        .map(|&(name, edp, hash)| (name.to_string(), edp, hash))
        .collect();
    if actual != golden {
        println!("replacement table:\nconst GOLDEN: &[(&str, u64, u64)] = &[");
        for (name, edp, hash) in &actual {
            println!("    ({name:?}, {edp:#018x}, {hash:#018x}),");
        }
        println!("];");
        let differing: Vec<&str> = actual
            .iter()
            .filter(|case| !golden.contains(case))
            .map(|(name, _, _)| name.as_str())
            .collect();
        panic!("golden mismatch in {differing:?} (replacement table above)");
    }
}
