//! Integration tests of the job-oriented search service: batched
//! submissions must be bit-identical to standalone ones per (network,
//! seed), progress observation must be monotone and non-perturbing, and
//! cancellation must stop gradient stepping promptly while keeping the
//! partial results well-formed.

use dosa_accel::Hierarchy;
use dosa_search::{
    bayesian_search, dosa_search, dosa_search_rtl, random_search, BbboConfig, GdConfig, JobStatus,
    LatencyPredictor, RandomSearchConfig, SearchRequest, SearchResult, SearchService, Strategy,
    Surrogate,
};
use dosa_workload::{unique_layers, Layer, Network, Problem};
use std::time::{Duration, Instant};

fn resnet_subset() -> Vec<Layer> {
    unique_layers(Network::ResNet50)
        .into_iter()
        .take(2)
        .collect()
}

fn matmul_net() -> Vec<Layer> {
    vec![Layer::once(Problem::matmul("gemm", 64, 256, 256).unwrap())]
}

fn tiny_cfg(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 2,
        steps_per_start: 60,
        round_every: 30,
        seed,
        ..GdConfig::default()
    }
}

fn assert_bit_identical(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(
        a.best_edp.to_bits(),
        b.best_edp.to_bits(),
        "{what}: best_edp diverged ({} vs {})",
        a.best_edp,
        b.best_edp
    );
    assert_eq!(a.best_hw, b.best_hw, "{what}: best_hw diverged");
    assert_eq!(
        a.best_mappings, b.best_mappings,
        "{what}: mappings diverged"
    );
    assert_eq!(a.history, b.history, "{what}: history diverged");
    assert_eq!(a.samples, b.samples, "{what}: sample accounting diverged");
}

/// The headline batching guarantee: a batch of {ResNet-50 subset, one
/// matmul layer} returns per-network results bit-identical to two
/// individual submissions with the same seeds — through both the service
/// and the blocking `dosa_search` shim.
#[test]
fn batched_results_match_individual_submissions_bit_for_bit() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(4).build();

    let batch = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network_seeded("resnet50", resnet_subset(), 5)
                .network_seeded("gemm", matmul_net(), 9)
                .config(tiny_cfg(0))
                .build(),
        )
        .unwrap()
        .wait()
        .unwrap();

    // Individual service submissions with the same per-network seeds.
    let solo_resnet = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("resnet50", resnet_subset())
                .config(tiny_cfg(5))
                .build(),
        )
        .unwrap()
        .wait()
        .unwrap()
        .into_single();
    let solo_gemm = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("gemm", matmul_net())
                .config(tiny_cfg(9))
                .build(),
        )
        .unwrap()
        .wait()
        .unwrap()
        .into_single();

    assert_bit_identical(
        batch.get("resnet50").unwrap(),
        &solo_resnet,
        "resnet50 vs solo",
    );
    assert_bit_identical(batch.get("gemm").unwrap(), &solo_gemm, "gemm vs solo");

    // And against the blocking shim (the pre-service public API).
    let shim_resnet = dosa_search(&service, &resnet_subset(), &hier, &tiny_cfg(5));
    let shim_gemm = dosa_search(&service, &matmul_net(), &hier, &tiny_cfg(9));
    assert_bit_identical(
        batch.get("resnet50").unwrap(),
        &shim_resnet,
        "resnet50 vs shim",
    );
    assert_bit_identical(batch.get("gemm").unwrap(), &shim_gemm, "gemm vs shim");
}

/// The per-network guarantee must hold for every service thread budget.
#[test]
fn batched_results_are_thread_budget_invariant() {
    let hier = Hierarchy::gemmini();
    let request = |hier: &Hierarchy| {
        SearchRequest::builder(hier.clone())
            .network_seeded("resnet50", resnet_subset(), 3)
            .network_seeded("gemm", matmul_net(), 4)
            .config(tiny_cfg(0))
            .build()
    };
    let one = SearchService::builder().threads(1).build();
    let eight = SearchService::builder().threads(8).build();
    let a = one.submit(request(&hier)).unwrap().wait().unwrap();
    let b = eight.submit(request(&hier)).unwrap().wait().unwrap();
    for name in ["resnet50", "gemm"] {
        assert_bit_identical(a.get(name).unwrap(), b.get(name).unwrap(), name);
    }
}

/// The predictor-adjusted surrogate batches identically too.
#[test]
fn rtl_surrogate_batch_matches_shim() {
    let hier = Hierarchy::gemmini();
    let predictor = LatencyPredictor::analytical();
    let cfg = GdConfig {
        start_points: 1,
        steps_per_start: 40,
        round_every: 20,
        seed: 2,
        ..GdConfig::default()
    };
    let service = SearchService::builder().threads(2).build();
    let batched = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("gemm", matmul_net())
                .surrogate(Surrogate::PredictedLatency(predictor.clone()))
                .config(cfg)
                .build(),
        )
        .unwrap()
        .wait()
        .unwrap()
        .into_single();
    let shim = dosa_search_rtl(&service, &matmul_net(), &hier, &cfg, &predictor);
    assert_bit_identical(&batched, &shim, "rtl gemm");
}

/// Mid-run `progress()` snapshots are monotone — samples never decrease,
/// best-EDP never increases — and converge to the final result.
#[test]
fn progress_is_monotone_and_converges_to_the_result() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let job = service
        .submit(
            SearchRequest::builder(hier)
                .network("gemm", matmul_net())
                .config(GdConfig {
                    start_points: 2,
                    steps_per_start: 3000,
                    round_every: 100,
                    seed: 1,
                    ..GdConfig::default()
                })
                .build(),
        )
        .unwrap();

    let mut snapshots = Vec::new();
    while !job.status().is_terminal() {
        snapshots.push(job.progress());
        std::thread::sleep(Duration::from_millis(1));
    }
    let result = job.wait().unwrap().into_single();
    assert_eq!(job.status(), JobStatus::Completed);

    let mid_run = snapshots
        .iter()
        .filter(|p| p.status == JobStatus::Running && p.total_samples() > 0)
        .count();
    assert!(
        mid_run > 0,
        "no mid-run observation landed ({} snapshots)",
        snapshots.len()
    );
    for pair in snapshots.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(
            b.total_samples() >= a.total_samples(),
            "samples went backwards: {} -> {}",
            a.total_samples(),
            b.total_samples()
        );
        assert!(
            b.best_edp() <= a.best_edp(),
            "best EDP went up: {} -> {}",
            a.best_edp(),
            b.best_edp()
        );
    }
    assert_eq!(
        result.best_edp,
        job.progress().best_edp(),
        "final progress must agree with the merged result"
    );
    assert_eq!(result.samples, job.progress().total_samples());
}

/// Cancellation stops gradient stepping promptly (well before the budget
/// is consumed) and the partial history is still monotone non-increasing.
#[test]
fn cancel_stops_promptly_with_monotone_partial_history() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let cfg = GdConfig {
        start_points: 2,
        steps_per_start: 200_000, // would take minutes uncancelled
        round_every: 500,
        seed: 6,
        ..GdConfig::default()
    };
    let budget = cfg.start_points * cfg.steps_per_start;
    let job = service
        .submit(
            SearchRequest::builder(hier)
                .network("gemm", matmul_net())
                .config(cfg)
                .build(),
        )
        .unwrap();

    // Let it run until real progress is visible, then cancel.
    let t0 = Instant::now();
    while job.progress().total_samples() < 1_000 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "job never made progress"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    job.cancel();
    let result = job.wait().unwrap().into_single();
    assert_eq!(job.status(), JobStatus::Cancelled);

    assert!(
        result.samples < budget / 4,
        "cancelled job consumed {} of {} samples — not prompt",
        result.samples,
        budget
    );
    for w in result.history.windows(2) {
        assert!(
            w[1].best_edp <= w[0].best_edp,
            "partial history not monotone: {} -> {}",
            w[0].best_edp,
            w[1].best_edp
        );
    }
    // Cancelling a terminal job is a no-op.
    job.cancel();
    assert_eq!(job.status(), JobStatus::Cancelled);
}

/// The strategy guarantee for random search: a batched
/// [`Strategy::Random`] job returns per-network results bit-identical to
/// the standalone `random_search` free function, for every service
/// thread budget.
#[test]
fn random_strategy_batches_bit_identically_across_thread_budgets() {
    let hier = Hierarchy::gemmini();
    let cfg = RandomSearchConfig {
        num_hw: 3,
        samples_per_hw: 40,
        seed: 0,
    };
    let request = || {
        SearchRequest::builder(hier.clone())
            .network_seeded("resnet50", resnet_subset(), 5)
            .network_seeded("gemm", matmul_net(), 9)
            .strategy(Strategy::Random(cfg))
            .build()
    };
    let standalone = SearchService::builder().build();
    let solo_resnet = random_search(
        &standalone,
        &resnet_subset(),
        &hier,
        &RandomSearchConfig { seed: 5, ..cfg },
    );
    let solo_gemm = random_search(
        &standalone,
        &matmul_net(),
        &hier,
        &RandomSearchConfig { seed: 9, ..cfg },
    );
    for threads in [1, 4, 8] {
        let service = SearchService::builder().threads(threads).build();
        let batch = service.submit(request()).unwrap().wait().unwrap();
        assert_bit_identical(
            batch.get("resnet50").unwrap(),
            &solo_resnet,
            &format!("random resnet50 @ {threads} threads"),
        );
        assert_bit_identical(
            batch.get("gemm").unwrap(),
            &solo_gemm,
            &format!("random gemm @ {threads} threads"),
        );
    }
}

/// The strategy guarantee for BB-BO: a batched [`Strategy::BayesOpt`]
/// job matches the standalone `bayesian_search` free function bit for
/// bit, for every service thread budget (the outer GP loop is
/// sequential; only the inner loops fan out).
#[test]
fn bayes_strategy_batches_bit_identically_across_thread_budgets() {
    let hier = Hierarchy::gemmini();
    let cfg = BbboConfig {
        num_hw: 5,
        init_random: 2,
        samples_per_hw: 12,
        candidates: 25,
        seed: 0,
    };
    let request = || {
        SearchRequest::builder(hier.clone())
            .network_seeded("resnet50", resnet_subset(), 3)
            .network_seeded("gemm", matmul_net(), 4)
            .strategy(Strategy::BayesOpt(cfg))
            .build()
    };
    let standalone = SearchService::builder().build();
    let solo_resnet = bayesian_search(
        &standalone,
        &resnet_subset(),
        &hier,
        &BbboConfig { seed: 3, ..cfg },
    );
    let solo_gemm = bayesian_search(
        &standalone,
        &matmul_net(),
        &hier,
        &BbboConfig { seed: 4, ..cfg },
    );
    for threads in [1, 8] {
        let service = SearchService::builder().threads(threads).build();
        let batch = service.submit(request()).unwrap().wait().unwrap();
        assert_bit_identical(
            batch.get("resnet50").unwrap(),
            &solo_resnet,
            &format!("bayes resnet50 @ {threads} threads"),
        );
        assert_bit_identical(
            batch.get("gemm").unwrap(),
            &solo_gemm,
            &format!("bayes gemm @ {threads} threads"),
        );
    }
}

/// Every strategy's history must be strictly increasing in samples (the
/// duplicated trailing point is gone) and monotone non-increasing in
/// best-EDP, through the service path.
#[test]
fn all_strategy_histories_are_strict_and_monotone() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(4).build();
    let strategies = [
        Strategy::GradientDescent(tiny_cfg(1)),
        Strategy::Random(RandomSearchConfig {
            num_hw: 2,
            samples_per_hw: 40,
            seed: 1,
        }),
        Strategy::BayesOpt(BbboConfig {
            num_hw: 4,
            init_random: 2,
            samples_per_hw: 10,
            candidates: 20,
            seed: 1,
        }),
    ];
    for strategy in strategies {
        let name = strategy.name();
        let result = service
            .submit(
                SearchRequest::builder(hier.clone())
                    .network("gemm", matmul_net())
                    .strategy(strategy)
                    .build(),
            )
            .unwrap()
            .wait()
            .unwrap()
            .into_single();
        assert!(!result.history.is_empty(), "{name}: empty history");
        for w in result.history.windows(2) {
            assert!(
                w[1].samples > w[0].samples,
                "{name}: samples not strictly increasing ({} then {})",
                w[0].samples,
                w[1].samples
            );
            assert!(
                w[1].best_edp <= w[0].best_edp,
                "{name}: best-EDP went up ({} then {})",
                w[0].best_edp,
                w[1].best_edp
            );
        }
        assert_eq!(
            result.history.last().unwrap().samples,
            result.samples,
            "{name}: history must end at the final sample count"
        );
    }
}

/// Cancelling a running random-search job stops sampling promptly and
/// leaves a monotone partial history.
#[test]
fn random_cancel_stops_promptly_with_monotone_partial_history() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let cfg = RandomSearchConfig {
        num_hw: 4,
        samples_per_hw: 500_000, // would take minutes uncancelled
        seed: 2,
    };
    let budget = cfg.num_hw * cfg.samples_per_hw;
    let job = service
        .submit(
            SearchRequest::builder(hier)
                .network("gemm", matmul_net())
                .strategy(Strategy::Random(cfg))
                .build(),
        )
        .unwrap();

    let t0 = Instant::now();
    while job.progress().total_samples() < 1_000 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "job never made progress"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    job.cancel();
    let result = job.wait().unwrap().into_single();
    assert_eq!(job.status(), JobStatus::Cancelled);
    assert!(
        result.samples < budget / 4,
        "cancelled random job consumed {} of {budget} samples — not prompt",
        result.samples
    );
    for w in result.history.windows(2) {
        assert!(w[1].samples > w[0].samples, "partial history not strict");
        assert!(
            w[1].best_edp <= w[0].best_edp,
            "partial history not monotone"
        );
    }
}

/// Cancelling a running BB-BO job winds down at the next inner-loop
/// boundary with a monotone partial history.
#[test]
fn bayes_cancel_leaves_monotone_partial_history() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let cfg = BbboConfig {
        num_hw: 10_000, // would take a very long time uncancelled
        init_random: 10,
        samples_per_hw: 50,
        candidates: 100,
        seed: 6,
    };
    let job = service
        .submit(
            SearchRequest::builder(hier)
                .network("gemm", matmul_net())
                .strategy(Strategy::BayesOpt(cfg))
                .build(),
        )
        .unwrap();
    let t0 = Instant::now();
    while job.progress().total_samples() < 100 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "job never made progress"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    job.cancel();
    let result = job.wait().unwrap().into_single();
    assert_eq!(job.status(), JobStatus::Cancelled);
    assert!(
        result.samples < cfg.num_hw * cfg.samples_per_hw / 4,
        "cancelled BB-BO job consumed {} samples — not prompt",
        result.samples
    );
    // The terminal progress snapshot must agree with the returned result
    // even though cancellation dropped in-flight inner-loop rows.
    assert_eq!(
        job.progress().total_samples(),
        result.samples,
        "terminal progress must not exceed the returned sample count"
    );
    for w in result.history.windows(2) {
        assert!(w[1].samples > w[0].samples, "partial history not strict");
        assert!(
            w[1].best_edp <= w[0].best_edp,
            "partial history not monotone"
        );
    }
}

/// Jobs queue FIFO behind a running job and report `Queued` until the
/// scheduler reaches them.
#[test]
fn second_job_queues_behind_the_first() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();
    let long = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("gemm", matmul_net())
                .config(GdConfig {
                    start_points: 1,
                    steps_per_start: 5_000,
                    round_every: 500,
                    seed: 0,
                    ..GdConfig::default()
                })
                .build(),
        )
        .unwrap();
    let short = service
        .submit(
            SearchRequest::builder(hier)
                .network("gemm", matmul_net())
                .config(tiny_cfg(1))
                .build(),
        )
        .unwrap();
    // Race-free FIFO check: read the short job's status FIRST. If it has
    // left Queued, the scheduler must already have retired the long job
    // (a job is marked terminal before the next one is popped), so the
    // long job's status read afterwards must be terminal.
    let short_status = short.status();
    assert!(
        short_status == JobStatus::Queued || long.status().is_terminal(),
        "short job was {short_status:?} while the long job had not finished"
    );
    let first = long.wait().unwrap().into_single();
    let second = short.wait().unwrap().into_single();
    assert!(first.best_edp.is_finite());
    assert!(second.best_edp.is_finite());
    assert!(long.id() < short.id());
}
