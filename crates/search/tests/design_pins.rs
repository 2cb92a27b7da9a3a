//! Absolute pins of the two black-box baselines on networks whose layers
//! repeat.
//!
//! Random search and BB-BO keep each layer's best mapping per design and
//! score the design by Eq. 14, where every layer's energy and latency are
//! weighted by its repeat count. `golden.rs` only runs networks whose
//! layers all have count 1, so it cannot see how the counts enter the
//! per-layer choice or the model sum. These cases can: BERT's five unique
//! layers (counts 48, 144, 144, 12, 12) and ResNet-50's third and fourth
//! unique layers (counts 3 and 4), at smoke budgets, seeds 0 to 2.
//!
//! Per case the table pins `best_edp.to_bits()`, an FNV-1a hash of the
//! history's `(samples, best_edp bits)` pairs, the best design (PE side
//! and the bits of both buffer sizes) and an FNV-1a hash of the best
//! mappings' factors and loop orders.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating it is a deliberate hand edit of [`PINS`], only for a
//! change meant to move the baselines' results.

use dosa_accel::{Hierarchy, NUM_LEVELS};
use dosa_search::{
    BbboConfig, RandomSearchConfig, SearchRequest, SearchResult, SearchService, Strategy,
};
use dosa_workload::{unique_layers, Layer, Network};

/// One case's pinned outputs: `(case, best_edp bits, history hash, PE
/// side, acc KB bits, spad KB bits, mappings hash)`.
type Pin = (String, u64, u64, u64, u64, u64, u64);

/// One line per case in the format the mismatch report prints.
#[rustfmt::skip]
const PINS: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    ("bert/random/seed0", 0x42e0975521460faf, 0x9794fbf3d3317405, 32, 0x4043800000000000, 0x4057000000000000, 0x532b6722824a50a2),
    ("bert/bbbo/seed0", 0x42e79df363020b8d, 0x62dda30bbfef7d6a, 32, 0x4043800000000000, 0x403f000000000000, 0xc43f84a40f63afad),
    ("bert/random/seed1", 0x42e15577b4bb88f5, 0x00ffa3c147d97981, 32, 0x4051c00000000000, 0x403a000000000000, 0x1e1bc6eb2e1dd9db),
    ("bert/bbbo/seed1", 0x42d11a97405740c7, 0xd700ae4d4eef271e, 64, 0x4074b00000000000, 0x4066800000000000, 0xda626af6dcde3d09),
    ("bert/random/seed2", 0x42dd2f15f86428f3, 0xe833ba6f71d1ae1f, 16, 0x404f000000000000, 0x4085280000000000, 0x1483b5567c67ea92),
    ("bert/bbbo/seed2", 0x42e20ae14c462ea8, 0xa8caddb9919d99b8, 32, 0x402e000000000000, 0x4074f00000000000, 0x9fdd3e1a746d84c3),
    ("resnet50-3-4/random/seed0", 0x420a99a2ea2a944b, 0x2b497366c93177d8, 32, 0x4043800000000000, 0x4057000000000000, 0x09fe971027fd3016),
    ("resnet50-3-4/bbbo/seed0", 0x422848cd03802453, 0xd388d82865d4d246, 64, 0x403d000000000000, 0x4044800000000000, 0xf453af6ccd3fc934),
    ("resnet50-3-4/random/seed1", 0x42036a1d17d18350, 0x12e5217efedccfd3, 32, 0x4051c00000000000, 0x403a000000000000, 0x6b46102a1e5fef53),
    ("resnet50-3-4/bbbo/seed1", 0x421ba363d40790e5, 0xcfb12999fc206405, 32, 0x405b000000000000, 0x4043000000000000, 0x1d3a31280cf0a240),
    ("resnet50-3-4/random/seed2", 0x42208df4888daea9, 0x8cb79640a0933d55, 8, 0x4065c00000000000, 0x4064600000000000, 0xa00d06adc8601305),
    ("resnet50-3-4/bbbo/seed2", 0x4232582346f8cb58, 0xe00db2602151e710, 32, 0x402e000000000000, 0x4074f00000000000, 0xd1f9227fd2879711),
];

fn networks() -> [(&'static str, Vec<Layer>); 2] {
    let bert = unique_layers(Network::Bert);
    let resnet: Vec<Layer> = unique_layers(Network::ResNet50)[2..4].to_vec();
    let counts = |layers: &[Layer]| layers.iter().map(|l| l.count).collect::<Vec<_>>();
    assert_eq!(counts(&bert), [48, 144, 144, 12, 12]);
    assert_eq!(counts(&resnet), [3, 4]);
    [("bert", bert), ("resnet50-3-4", resnet)]
}

/// The two black-box searchers at `golden.rs`'s smoke budgets.
fn searchers(seed: u64) -> [(&'static str, Strategy); 2] {
    [
        (
            "random",
            Strategy::Random(RandomSearchConfig {
                num_hw: 3,
                samples_per_hw: 40,
                seed,
            }),
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
        ),
    ]
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn pin(case: String, result: &SearchResult) -> Pin {
    let mut history = Fnv::new();
    for point in &result.history {
        history.word(point.samples as u64);
        history.word(point.best_edp.to_bits());
    }
    let mut mappings = Fnv::new();
    for m in &result.best_mappings {
        for i in 0..NUM_LEVELS {
            for &f in m.temporal[i].iter().chain(&m.spatial[i]) {
                mappings.word(f);
            }
            for &d in m.orders[i].dims() {
                mappings.word(d.index() as u64);
            }
        }
    }
    let hw = &result.best_hw;
    (
        case,
        result.best_edp.to_bits(),
        history.0,
        hw.pe_side(),
        hw.acc_kb().to_bits(),
        hw.spad_kb().to_bits(),
        mappings.0,
    )
}

#[test]
fn repeated_layer_cases_reproduce_their_pinned_bits() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let mut jobs = Vec::new();
    for (net, layers) in networks() {
        for seed in 0..3u64 {
            for (label, strategy) in searchers(seed) {
                let request = SearchRequest::builder(hier.clone())
                    .network(net, layers.clone())
                    .strategy(strategy)
                    .build();
                let job = service.submit(request).unwrap();
                jobs.push((format!("{net}/{label}/seed{seed}"), job));
            }
        }
    }
    let actual: Vec<Pin> = jobs
        .into_iter()
        .map(|(case, job)| pin(case, &job.wait().unwrap().into_single()))
        .collect();

    let pinned: Vec<Pin> = PINS
        .iter()
        .map(|&(case, edp, hist, side, acc, spad, maps)| {
            (case.to_string(), edp, hist, side, acc, spad, maps)
        })
        .collect();
    if actual != pinned {
        println!("replacement table:");
        for (case, edp, hist, side, acc, spad, maps) in &actual {
            println!(
                "    ({case:?}, {edp:#018x}, {hist:#018x}, {side}, {acc:#018x}, {spad:#018x}, {maps:#018x}),"
            );
        }
        let differing: Vec<&str> = actual
            .iter()
            .filter(|case| !pinned.contains(case))
            .map(|case| case.0.as_str())
            .collect();
        panic!("design pin mismatch in {differing:?} (replacement table above)");
    }
}
