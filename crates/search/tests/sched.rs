//! Integration tests of the concurrent job scheduler: jobs submitted to
//! one service must provably overlap, the scheduling policy must decide
//! who gets freed capacity, cancellation must hand slots (and admission)
//! to the queued work promptly, a single-slot budget must degenerate to
//! FIFO, and — above all — every network's result must stay bit-identical
//! to its standalone run under any interleaving.

use dosa_accel::Hierarchy;
use dosa_search::{
    bayesian_search, dosa_search, random_search, BbboConfig, GdConfig, JobStatus,
    RandomSearchConfig, SchedPolicy, SearchRequest, SearchResult, SearchService, Strategy,
};
use dosa_workload::{unique_layers, Layer, Network, Problem};
use std::time::{Duration, Instant};

fn matmul_net() -> Vec<Layer> {
    vec![Layer::once(Problem::matmul("gemm", 64, 256, 256).unwrap())]
}

fn resnet_subset() -> Vec<Layer> {
    unique_layers(Network::ResNet50)
        .into_iter()
        .take(2)
        .collect()
}

fn short_cfg(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 2,
        steps_per_start: 60,
        round_every: 30,
        seed,
        ..GdConfig::default()
    }
}

/// A BB-BO budget that would take minutes uncancelled — the "long job"
/// of the overlap tests.
fn long_bbbo(seed: u64) -> BbboConfig {
    BbboConfig {
        num_hw: 10_000,
        init_random: 10,
        samples_per_hw: 50,
        candidates: 100,
        seed,
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
    assert_eq!(a.history, b.history, "{what}: history diverged");
    assert_eq!(a.samples, b.samples, "{what}: sample accounting diverged");
}

/// The headline scheduler guarantee (the ROADMAP's starvation scenario,
/// inverted): a short GD job submitted *after* a long BB-BO job completes
/// while the BB-BO job is still `Running`, because the long job's
/// parallelism cap provably leaves a worker slot free — and the short
/// job's result is still bit-identical to its standalone run despite the
/// interleaving.
#[test]
fn short_gd_job_completes_while_long_bayes_job_is_running() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let long = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("long", matmul_net())
                .strategy(Strategy::BayesOpt(long_bbbo(6)))
                .max_parallelism(1)
                .build(),
        )
        .unwrap();
    // Let the long job be admitted first. Otherwise `ShortestFirst` can
    // legitimately run both short items ahead of the long job's planning
    // dispatch, and the long job is still `Queued` (not overlapped) when
    // the short one finishes.
    let admitted_by = Instant::now() + Duration::from_secs(60);
    while long.status() == JobStatus::Queued {
        assert!(Instant::now() < admitted_by, "long job never admitted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let cfg = short_cfg(3);
    let short = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("short", matmul_net())
                .config(cfg)
                .policy(SchedPolicy::ShortestFirst)
                .build(),
        )
        .unwrap();

    let result = short.wait().unwrap().into_single();
    assert_eq!(short.status(), JobStatus::Completed);
    assert_eq!(
        long.status(),
        JobStatus::Running,
        "the long BB-BO job must still be running when the short GD job \
         finishes — jobs did not overlap"
    );
    long.cancel();
    let partial = long.wait().unwrap().into_single();
    assert_eq!(long.status(), JobStatus::Cancelled);
    assert!(partial.samples < 10_000 * 50 / 4, "cancel was not prompt");

    let standalone = dosa_search(&service, &matmul_net(), &hier, &cfg);
    assert_bit_identical(&result, &standalone, "short GD job under concurrent load");
}

/// `Priority` beats `Fifo` ordering: with a single admission slot held by
/// a long job, a later-submitted `Priority(5)` job must be admitted ahead
/// of an earlier `Fifo` job once the slot frees.
#[test]
fn priority_job_is_admitted_before_earlier_fifo_traffic() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();
    let blocker = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("blocker", matmul_net())
                .config(GdConfig {
                    start_points: 1,
                    steps_per_start: 500_000,
                    round_every: 1_000,
                    seed: 0,
                    ..GdConfig::default()
                })
                .build(),
        )
        .unwrap();
    let fifo = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("fifo", matmul_net())
                .config(GdConfig {
                    start_points: 1,
                    steps_per_start: 2_000,
                    round_every: 500,
                    seed: 1,
                    ..GdConfig::default()
                })
                .build(),
        )
        .unwrap();
    let priority = service
        .submit(
            SearchRequest::builder(hier)
                .network("priority", matmul_net())
                .config(short_cfg(2))
                .policy(SchedPolicy::Priority(5))
                .build(),
        )
        .unwrap();

    // Free the single admission slot; the dispatcher must now pick the
    // Priority(5) job over the earlier-submitted Fifo job.
    blocker.cancel();
    let result = priority.wait().unwrap().into_single();
    assert!(result.best_edp.is_finite());
    // With one slot, the Fifo job could only have run before the priority
    // job if the scheduler ordered it first — in which case it would be
    // Completed by now. Queued/Running proves the priority job won.
    assert_ne!(
        fifo.status(),
        JobStatus::Completed,
        "the Fifo job finished before the Priority(5) job — priority was ignored"
    );
    fifo.cancel();
    fifo.wait().unwrap();
    blocker.wait().unwrap();
}

/// Cancelling a running job frees its capacity for the queued one: on a
/// single-slot service the queued job must start (and finish) promptly
/// after the cancel, and its result must match its standalone run.
#[test]
fn cancelling_a_running_job_frees_slots_for_the_queued_one() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();
    let long = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("long", matmul_net())
                .strategy(Strategy::BayesOpt(long_bbbo(2)))
                .build(),
        )
        .unwrap();
    let cfg = short_cfg(7);
    let queued = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("queued", matmul_net())
                .config(cfg)
                .build(),
        )
        .unwrap();

    // Wait until the long job is demonstrably occupying the budget.
    let t0 = Instant::now();
    while long.progress().total_samples() < 100 {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "long job never made progress"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        queued.status(),
        JobStatus::Queued,
        "a single-slot service must not admit the second job while the first runs"
    );
    long.cancel();
    let result = queued.wait().unwrap().into_single();
    assert_eq!(queued.status(), JobStatus::Completed);
    assert_eq!(long.status(), JobStatus::Cancelled);
    let standalone = dosa_search(&service, &matmul_net(), &hier, &cfg);
    assert_bit_identical(&result, &standalone, "queued job after cancel");
}

/// A single-slot budget degenerates to strict FIFO under the default
/// policy: job `i+1` never leaves `Queued` before job `i` is terminal.
#[test]
fn single_slot_budget_degenerates_to_fifo() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();
    let handles: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(
                    SearchRequest::builder(hier.clone())
                        .network("gemm", matmul_net())
                        .config(short_cfg(i))
                        .build(),
                )
                .unwrap()
        })
        .collect();
    while !handles.iter().all(|h| h.status().is_terminal()) {
        // Race-free prefix check: read the later job's status FIRST. If
        // it has left Queued, its predecessor was admitted-and-finished
        // earlier (terminal is absorbing), so the read that follows must
        // observe a terminal predecessor.
        for i in (1..handles.len()).rev() {
            let later = handles[i].status();
            if later != JobStatus::Queued {
                assert!(
                    handles[i - 1].status().is_terminal(),
                    "job {} was {later:?} while job {} had not finished",
                    i,
                    i - 1
                );
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for h in &handles {
        assert_eq!(h.status(), JobStatus::Completed);
    }
}

/// The determinism contract under real concurrency: three jobs of three
/// different strategies (and mixed policies) interleaving on one small
/// service must each return results bit-identical to their standalone
/// runs.
#[test]
fn every_strategy_is_bit_identical_under_concurrent_load() {
    let hier = Hierarchy::gemmini();
    let gd_cfg = short_cfg(11);
    let random_cfg = RandomSearchConfig {
        num_hw: 3,
        samples_per_hw: 40,
        seed: 12,
    };
    let bbbo_cfg = BbboConfig {
        num_hw: 5,
        init_random: 2,
        samples_per_hw: 12,
        candidates: 25,
        seed: 13,
    };

    let service = SearchService::builder().threads(3).build();
    let gd = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network_seeded("resnet50", resnet_subset(), 11)
                .network_seeded("gemm", matmul_net(), 14)
                .config(gd_cfg)
                .policy(SchedPolicy::ShortestFirst)
                .build(),
        )
        .unwrap();
    let random = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("gemm", matmul_net())
                .strategy(Strategy::Random(random_cfg))
                .max_parallelism(2)
                .build(),
        )
        .unwrap();
    let bayes = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("gemm", matmul_net())
                .strategy(Strategy::BayesOpt(bbbo_cfg))
                .policy(SchedPolicy::Priority(2))
                .build(),
        )
        .unwrap();

    let gd_batch = gd.wait().unwrap();
    let random_result = random.wait().unwrap().into_single();
    let bayes_result = bayes.wait().unwrap().into_single();

    let solo_resnet = dosa_search(
        &service,
        &resnet_subset(),
        &hier,
        &GdConfig { seed: 11, ..gd_cfg },
    );
    let solo_gemm = dosa_search(
        &service,
        &matmul_net(),
        &hier,
        &GdConfig { seed: 14, ..gd_cfg },
    );
    assert_bit_identical(
        gd_batch.get("resnet50").unwrap(),
        &solo_resnet,
        "concurrent GD resnet50",
    );
    assert_bit_identical(
        gd_batch.get("gemm").unwrap(),
        &solo_gemm,
        "concurrent GD gemm",
    );
    assert_bit_identical(
        &random_result,
        &random_search(&service, &matmul_net(), &hier, &random_cfg),
        "concurrent random",
    );
    assert_bit_identical(
        &bayes_result,
        &bayesian_search(&service, &matmul_net(), &hier, &bbbo_cfg),
        "concurrent bayes",
    );
}

/// Dropping a service with several concurrently running jobs cancels all
/// of them without hanging, and their partial results stay well-formed.
#[test]
fn dropping_the_service_winds_down_concurrent_jobs() {
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(2).build();
    let jobs: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit(
                    SearchRequest::builder(hier.clone())
                        .network("long", matmul_net())
                        .strategy(Strategy::BayesOpt(long_bbbo(i)))
                        .build(),
                )
                .unwrap()
        })
        .collect();
    let t0 = Instant::now();
    while jobs.iter().any(|j| j.progress().total_samples() == 0) {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "jobs never made progress"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(service);
    for job in &jobs {
        let result = job.wait().unwrap(); // must not hang
        assert!(job.status().is_terminal());
        assert_eq!(result.networks.len(), 1);
        for w in result.networks[0].result.history.windows(2) {
            assert!(
                w[1].best_edp <= w[0].best_edp,
                "partial history not monotone"
            );
        }
    }
}
