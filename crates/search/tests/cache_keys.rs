//! Absolute pins of the result cache's keys: the FNV-1a hash and the
//! byte length of every key builder's output on the ResNet-50 and BERT
//! layer tables.
//!
//! A key is a content address. Entries journaled by one build must be
//! found by the next, so a refactor of how keys are built must not move a
//! byte. The hash covers every byte, and the length catches a change that
//! happens to keep the hash.
//!
//! On a mismatch the test prints the complete replacement table.
//! Regenerating is a deliberate hand edit of [`GOLDEN`]: only do it for a
//! change that is meant to re-address every cached result, bump the
//! schema string of the builder it changes, and say so in review.

use dosa_accel::Hierarchy;
use dosa_cache::CacheKey;
use dosa_search::cache::{bayes_network_key, gd_item_key, random_item_key};
use dosa_search::{
    BbboConfig, GdConfig, LatencyPredictor, LoopOrderStrategy, RandomSearchConfig, Surrogate,
};
use dosa_workload::{unique_layers, Layer, Network};

/// `(network, builder, key hash, key length in bytes)`, one line per case
/// in the format the mismatch report prints.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, u64, usize)] = &[
    ("ResNet-50", "gd/edp/start0", 0x012840f3279ca105, 2519),
    ("ResNet-50", "gd/edp/start6", 0xc332b2e111be0cc3, 2519),
    ("ResNet-50", "gd/analytical/start2", 0x2efa864396304390, 2534),
    ("ResNet-50", "random/design0", 0xa7da3b229e26224e, 2438),
    ("ResNet-50", "random/design9", 0xcefec9e3519b1b67, 2438),
    ("ResNet-50", "bayes/network", 0x33fcc420cd166a49, 2436),
    ("BERT", "gd/edp/start0", 0xaf2167a22d483d97, 879),
    ("BERT", "gd/edp/start6", 0xf540bd6bebac80d1, 879),
    ("BERT", "gd/analytical/start2", 0xe184d4504907c68a, 894),
    ("BERT", "random/design0", 0xb618dc4e7fe4c038, 798),
    ("BERT", "random/design9", 0xdd3d6b0f3359b951, 798),
    ("BERT", "bayes/network", 0xae8fc38536c8793b, 796),
];

/// Every result-affecting field set explicitly, so the pins do not move
/// with a default.
fn gd_cfg(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 7,
        steps_per_start: 1490,
        round_every: 500,
        learning_rate: 0.04,
        strategy: LoopOrderStrategy::Iterate,
        fixed_pe_side: None,
        rejection_factor: 10.0,
        seed,
        segment_steps: None,
    }
}

/// The keys of one network: GD under both cacheable surrogates, a random
/// design and a BB-BO network, named as in [`GOLDEN`].
fn keys(layers: &[Layer]) -> Vec<(&'static str, CacheKey)> {
    let hier = Hierarchy::gemmini();
    let analytical = Surrogate::PredictedLatency(LatencyPredictor::analytical());
    let pinned_softmax = GdConfig {
        strategy: LoopOrderStrategy::Softmax,
        fixed_pe_side: Some(16),
        learning_rate: -0.0,
        ..gd_cfg(3)
    };
    let random = RandomSearchConfig {
        num_hw: 10,
        samples_per_hw: 1000,
        seed: 101,
    };
    let bayes = BbboConfig {
        num_hw: 100,
        init_random: 20,
        samples_per_hw: 100,
        candidates: 1000,
        seed: 201,
    };
    let cacheable = "the EDP and analytical surrogates are cacheable";
    vec![
        (
            "gd/edp/start0",
            gd_item_key(&hier, layers, &Surrogate::Edp, &gd_cfg(1), 0).expect(cacheable),
        ),
        (
            "gd/edp/start6",
            gd_item_key(&hier, layers, &Surrogate::Edp, &gd_cfg(1), 6).expect(cacheable),
        ),
        (
            "gd/analytical/start2",
            gd_item_key(&hier, layers, &analytical, &pinned_softmax, 2).expect(cacheable),
        ),
        ("random/design0", random_item_key(&hier, layers, &random, 0)),
        ("random/design9", random_item_key(&hier, layers, &random, 9)),
        ("bayes/network", bayes_network_key(&hier, layers, &bayes)),
    ]
}

#[test]
fn every_key_builder_reproduces_its_golden_bytes() {
    let mut actual = Vec::new();
    for (network, net) in [("ResNet-50", Network::ResNet50), ("BERT", Network::Bert)] {
        for (builder, key) in keys(&unique_layers(net)) {
            actual.push((network, builder, key.hash(), key.as_bytes().len()));
        }
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(network, builder, hash, len)| {
                format!("    ({network:?}, {builder:?}, {hash:#018x}, {len}),\n")
            })
            .collect();
        panic!("cache keys moved; replacement table:\n{table}");
    }
}
