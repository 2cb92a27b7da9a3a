//! Thread-count invariance of the parallel GD engine: a search with a
//! fixed seed must return bit-identical results whether start points run
//! on one worker or many, and its sample accounting must match the
//! sequential count. Worker counts are varied by building one service
//! per budget ([`SearchServiceBuilder::threads`]).
//!
//! [`SearchServiceBuilder::threads`]: dosa_search::SearchServiceBuilder::threads

use dosa_accel::Hierarchy;
use dosa_search::{dosa_search, dosa_search_rtl, GdConfig, LatencyPredictor, SearchService};
use dosa_workload::{Layer, Problem};

fn layers() -> Vec<Layer> {
    vec![
        Layer::repeated(Problem::conv("a", 3, 3, 28, 28, 64, 64, 1).unwrap(), 2),
        Layer::once(Problem::matmul("b", 64, 256, 256).unwrap()),
    ]
}

fn cfg() -> GdConfig {
    GdConfig {
        start_points: 4,
        steps_per_start: 60,
        round_every: 30,
        seed: 12,
        ..GdConfig::default()
    }
}

fn service(threads: usize) -> SearchService {
    SearchService::builder().threads(threads).build()
}

#[test]
fn same_seed_is_bit_identical_across_thread_counts() {
    let layers = layers();
    let hier = Hierarchy::gemmini();
    let cfg = cfg();

    let sequential = dosa_search(&service(1), &layers, &hier, &cfg);

    for threads in [2, 4, 8] {
        let parallel = dosa_search(&service(threads), &layers, &hier, &cfg);
        assert_eq!(
            sequential.best_edp.to_bits(),
            parallel.best_edp.to_bits(),
            "best_edp diverged at {threads} threads"
        );
        assert_eq!(sequential.best_hw, parallel.best_hw, "best_hw diverged");
        assert_eq!(
            sequential.best_mappings, parallel.best_mappings,
            "best_mappings diverged"
        );
        assert_eq!(sequential.history, parallel.history, "history diverged");
        assert_eq!(
            sequential.samples, parallel.samples,
            "sample totals diverged from the sequential count"
        );
    }

    // Expected sequential accounting: per start, one model evaluation per
    // step plus one reference evaluation per rounding, and the final
    // history point does not consume a sample.
    let roundings_per_start = cfg.steps_per_start / cfg.round_every;
    let expected = cfg.start_points * (cfg.steps_per_start + roundings_per_start);
    assert_eq!(sequential.samples, expected);
}

#[test]
fn rtl_search_is_bit_identical_across_thread_counts() {
    let layers = layers();
    let hier = Hierarchy::gemmini();
    let cfg = cfg();
    let predictor = LatencyPredictor::analytical();

    let sequential = dosa_search_rtl(&service(1), &layers, &hier, &cfg, &predictor);
    for threads in [2, 8] {
        let parallel = dosa_search_rtl(&service(threads), &layers, &hier, &cfg, &predictor);
        assert_eq!(
            sequential.best_edp.to_bits(),
            parallel.best_edp.to_bits(),
            "rtl best_edp diverged at {threads} threads"
        );
        assert_eq!(sequential.history, parallel.history);
        assert_eq!(sequential.samples, parallel.samples);
    }
}
