//! Property tests of the fault-isolation layer: for ANY proptest-chosen
//! interleaving of cancellation, deadlines (both policies), and injected
//! faults, a job must either fail with a typed [`JobError`] or return
//! per-network histories that stay strictly monotone (sample counts
//! strictly increasing, best EDP non-increasing) and are **bitwise
//! prefixes** of the same request's uninterrupted run — per network, or,
//! when a user cancel cut work items short, per work item. When the chaos
//! is benign (delays only, nothing expired, nothing cancelled), the result
//! must be bit-identical — the fault hook is a guaranteed no-op. A
//! deterministic test pins each fault kind's exact typed outcome.

use dosa_accel::Hierarchy;
use dosa_cache::{CacheStore, ShardedLru};
use dosa_search::cache::gd_item_key;
use dosa_search::{
    bayesian_search, dosa_search, random_search, BatchResult, BbboConfig, DeadlinePolicy,
    FaultKind, FaultPlan, GdConfig, JobError, JobStatus, RandomSearchConfig, ResultCache,
    SearchPoint, SearchRequest, SearchRequestBuilder, SearchResult, SearchService, Strategy,
    Surrogate,
};
use dosa_workload::{Layer, Problem};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn networks() -> Vec<(&'static str, Vec<Layer>)> {
    vec![
        (
            "gemm",
            vec![Layer::once(Problem::matmul("gemm", 64, 256, 256).unwrap())],
        ),
        (
            "conv",
            vec![Layer::once(
                Problem::conv("c", 3, 3, 14, 14, 32, 32, 1).unwrap(),
            )],
        ),
    ]
}

fn tiny_cfg(seed: u64) -> GdConfig {
    GdConfig {
        start_points: 2,
        steps_per_start: 40,
        round_every: 20,
        seed,
        ..GdConfig::default()
    }
}

fn request(seed: u64) -> SearchRequestBuilder {
    let mut builder = SearchRequest::builder(Hierarchy::gemmini());
    for (i, (name, layers)) in networks().into_iter().enumerate() {
        builder = builder.network_seeded(name, layers, seed + i as u64);
    }
    builder.config(tiny_cfg(seed))
}

/// Decode one proptest-drawn `(selector, delay)` pair into at most one
/// fault, weighted toward the benign outcomes.
fn decode_fault((selector, delay_ms): (u8, u64)) -> Option<FaultKind> {
    match selector {
        0..=4 => None,
        5..=7 => Some(FaultKind::Delay(delay_ms)),
        8 => Some(FaultKind::Panic),
        _ => Some(FaultKind::NonFiniteLoss),
    }
}

/// samples strictly increasing, best EDP non-increasing — the invariant
/// `merge_start_results` promises for every history it emits.
fn assert_strictly_monotone(history: &[SearchPoint], what: &str) {
    for w in history.windows(2) {
        assert!(
            w[0].samples < w[1].samples,
            "{what}: history sample counts must be strictly increasing ({} then {})",
            w[0].samples,
            w[1].samples
        );
        assert!(
            w[1].best_edp <= w[0].best_edp,
            "{what}: history best EDP must be non-increasing ({} then {})",
            w[0].best_edp,
            w[1].best_edp
        );
    }
}

/// `survivor`'s history is a bitwise prefix of `full`'s.
fn assert_bitwise_prefix(survivor: &SearchResult, full: &SearchResult, what: &str) {
    assert!(
        survivor.history.len() <= full.history.len(),
        "{what}: surviving history longer than the uninterrupted run's"
    );
    for (i, (s, f)) in survivor.history.iter().zip(&full.history).enumerate() {
        assert_eq!(s.samples, f.samples, "{what}: samples diverge at {i}");
        assert_eq!(
            s.best_edp.to_bits(),
            f.best_edp.to_bits(),
            "{what}: best EDP diverges at {i}"
        );
    }
    assert!(
        survivor.samples <= full.samples,
        "{what}: survivor consumed more samples than the uninterrupted run"
    );
}

/// The uninterrupted run of `request(seed)` on `threads` workers, plus
/// each network's per-item (start point) results in start order, read
/// back from the cold cache the run journaled every item into. A cold
/// cache changes no result bit.
fn uninterrupted(seed: u64, threads: usize) -> (BatchResult, Vec<Vec<Arc<SearchResult>>>) {
    let store = Arc::new(ShardedLru::new(64));
    // The service must outlive the wait — dropping it cancels in-flight
    // jobs.
    let service = SearchService::builder()
        .threads(threads)
        .cache(ResultCache::with_store(store.clone()))
        .build();
    let job = service
        .submit(request(seed).build())
        .expect("request validates");
    let batch = job.wait().expect("uninterrupted run cannot fail");
    assert!(!batch.degraded);
    assert_eq!(job.status(), JobStatus::Completed);
    let hier = Hierarchy::gemmini();
    let items = networks()
        .into_iter()
        .enumerate()
        .map(|(i, (_, layers))| {
            let cfg = GdConfig {
                seed: seed + i as u64,
                ..tiny_cfg(seed)
            };
            (0..cfg.start_points)
                .map(|start| {
                    let key = gd_item_key(&hier, &layers, &Surrogate::Edp, &cfg, start)
                        .expect("the EDP surrogate is cacheable");
                    store.get(&key).expect("every completed item is journaled")
                })
                .collect()
        })
        .collect();
    (batch, items)
}

/// What the service reports for a network whose items stopped after
/// `cuts[i]` samples each: every item's uninterrupted history truncated
/// at its cut, merged as the service merges (sample offsets, running
/// minimum, final record). Returns `(samples, best_edp, history)`.
fn merge_item_prefixes(
    items: &[Arc<SearchResult>],
    cuts: &[usize],
) -> (usize, f64, Vec<SearchPoint>) {
    let mut samples = 0;
    let mut best = f64::INFINITY;
    let mut history = Vec::new();
    for (item, &cut) in items.iter().zip(cuts) {
        for p in item.history.iter().take_while(|p| p.samples <= cut) {
            best = best.min(p.best_edp);
            history.push(SearchPoint {
                samples: samples + p.samples,
                best_edp: best,
            });
        }
        samples += cut;
    }
    if samples > 0 && history.last().is_none_or(|p| p.samples < samples) {
        history.push(SearchPoint {
            samples,
            best_edp: best,
        });
    }
    (samples, best, history)
}

/// Whether some split of `survivor.samples` into per-item cuts (each at
/// most the item's uninterrupted budget) reproduces `survivor` bit for
/// bit — i.e. every item contributed a bitwise prefix of its own
/// uninterrupted descent.
fn is_merge_of_item_prefixes(survivor: &SearchResult, items: &[Arc<SearchResult>]) -> bool {
    fn split(
        survivor: &SearchResult,
        items: &[Arc<SearchResult>],
        cuts: &mut Vec<usize>,
        left: usize,
    ) -> bool {
        let Some(item) = items.get(cuts.len()) else {
            let (samples, best, history) = merge_item_prefixes(items, cuts);
            return left == 0
                && samples == survivor.samples
                && best.to_bits() == survivor.best_edp.to_bits()
                && history == survivor.history;
        };
        (0..=item.samples.min(left)).any(|cut| {
            cuts.push(cut);
            let found = split(survivor, items, cuts, left - cut);
            cuts.pop();
            found
        })
    }
    split(survivor, items, &mut Vec::new(), survivor.samples)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The headline robustness property: whatever combination of faults,
    /// deadline, and cancellation the case throws at a job, the outcome
    /// is either a typed failure (with `status() == Failed` and the error
    /// retrievable) or a batch whose surviving per-network histories are
    /// strictly monotone bitwise prefixes of the uninterrupted run — item
    /// by item when a cancel cut items short.
    #[test]
    fn chaos_outcomes_are_typed_or_bitwise_prefixes(
        seed in 0u64..64,
        threads in 1usize..=2,
        raw_faults in proptest::collection::vec((0u8..10, 5u64..40), 4),
        // 0 = no deadline, 1 = Kill, 2 = Degrade.
        deadline_kind in 0u8..3,
        deadline_ms in 5u64..60,
        // 0 = no cancel, 1 = cancel after `cancel_ms`.
        cancel_kind in 0u8..2,
        cancel_ms in 0u64..30,
    ) {
        // Uninterrupted reference: same request, no chaos.
        let (reference, items) = uninterrupted(seed, threads);

        let faults: Vec<Option<FaultKind>> =
            raw_faults.into_iter().map(decode_fault).collect();
        let mut plan = FaultPlan::new();
        for (pos, fault) in faults.iter().enumerate() {
            if let Some(kind) = *fault {
                plan = plan.inject(pos, kind);
            }
        }
        let mut builder = request(seed).fault_plan(plan);
        if deadline_kind > 0 {
            builder = builder
                .deadline(Duration::from_millis(deadline_ms))
                .deadline_policy(if deadline_kind == 2 {
                    DeadlinePolicy::Degrade
                } else {
                    DeadlinePolicy::Kill
                });
        }
        let service = SearchService::builder().threads(threads).build();
        let chaos = service.submit(builder.build()).expect("request validates");
        if cancel_kind == 1 {
            std::thread::sleep(Duration::from_millis(cancel_ms));
            chaos.cancel();
        }

        match chaos.wait() {
            Err(err) => {
                prop_assert!(
                    matches!(
                        err,
                        JobError::WorkerPanic { .. }
                            | JobError::NonFiniteLoss { .. }
                            | JobError::DeadlineExceeded
                    ),
                    "unexpected failure mode: {err}"
                );
                prop_assert_eq!(chaos.status(), JobStatus::Failed);
                prop_assert!(chaos.error().is_some(), "Failed job must expose its error");
                match err {
                    JobError::WorkerPanic { item, .. } => {
                        prop_assert!(matches!(faults[item], Some(FaultKind::Panic)));
                    }
                    JobError::NonFiniteLoss { item, .. } => {
                        prop_assert!(matches!(faults[item], Some(FaultKind::NonFiniteLoss)));
                    }
                    _ => {}
                }
            }
            Ok(batch) => {
                // No fatal fault fired before the job wrapped up: every
                // network survives with a monotone history.
                prop_assert!(chaos.error().is_none());
                if cancel_kind == 0 {
                    // Nobody cancelled: only a Degrade expiry may stop a
                    // job short of Completed, and it reports Completed too.
                    prop_assert_eq!(chaos.status(), JobStatus::Completed);
                }
                for (i, (name, _)) in networks().into_iter().enumerate() {
                    let survivor = batch.get(name).expect("every network reports a result");
                    let full = reference.get(name).expect("reference has every network");
                    assert_strictly_monotone(&survivor.history, name);
                    if chaos.status() == JobStatus::Cancelled {
                        // A cancel can stop several items mid-descent, and
                        // each cut shifts the sample offsets of the items
                        // merged after it, so the network is a prefix of
                        // the uninterrupted run only item by item (a run
                        // nobody cut short is the full run itself).
                        prop_assert!(survivor.best_edp >= full.best_edp);
                        prop_assert!(
                            is_merge_of_item_prefixes(survivor, &items[i]),
                            "{}: cancelled result is not a merge of per-item prefixes",
                            name
                        );
                    } else {
                        assert_bitwise_prefix(survivor, full, name);
                    }
                }
                // Benign chaos (delays at most, nothing truncated the
                // run): the fault hook must have been a bit-exact no-op.
                let benign = faults
                    .iter()
                    .flatten()
                    .all(|kind| matches!(kind, FaultKind::Delay(_)));
                if benign
                    && cancel_kind == 0
                    && !batch.degraded
                    && chaos.status() == JobStatus::Completed
                {
                    for (name, _) in networks() {
                        let survivor = batch.get(name).expect("network present");
                        let full = reference.get(name).expect("network present");
                        prop_assert_eq!(survivor.samples, full.samples);
                        prop_assert_eq!(
                            survivor.best_edp.to_bits(),
                            full.best_edp.to_bits(),
                            "benign chaos changed {}'s best EDP",
                            name
                        );
                        prop_assert_eq!(&survivor.history, &full.history);
                    }
                }
            }
        }
    }

    /// Degrade-focused variant: every work item is slowed enough that a
    /// short `Degrade` deadline usually expires mid-run on a sequential
    /// service. Whatever prefix of the plan survives, the job still
    /// reports `Completed`, and each network's history is a strictly
    /// monotone bitwise prefix of the uninterrupted run's.
    #[test]
    fn degrade_expiry_returns_a_completed_bitwise_prefix(
        seed in 64u64..96,
        delays in proptest::collection::vec(10u64..40, 4),
        deadline_ms in 5u64..35,
    ) {
        let plain = SearchService::builder().threads(1).build();
        let reference = plain
            .submit(request(seed).build())
            .expect("request validates")
            .wait()
            .expect("uninterrupted run cannot fail");

        let mut plan = FaultPlan::new();
        for (pos, ms) in delays.iter().enumerate() {
            plan = plan.inject(pos, FaultKind::Delay(*ms));
        }
        let service = SearchService::builder().threads(1).build();
        let degraded_job = service
            .submit(
                request(seed)
                    .fault_plan(plan)
                    .deadline(Duration::from_millis(deadline_ms))
                    .deadline_policy(DeadlinePolicy::Degrade)
                    .build(),
            )
            .expect("request validates");
        let batch = degraded_job
            .wait()
            .expect("Degrade never fails a job, it truncates it");
        prop_assert_eq!(degraded_job.status(), JobStatus::Completed);
        prop_assert!(degraded_job.error().is_none());
        for (name, _) in networks() {
            let survivor = batch.get(name).expect("every network reports a result");
            let full = reference.get(name).expect("reference has every network");
            assert_strictly_monotone(&survivor.history, name);
            assert_bitwise_prefix(survivor, full, name);
            if !batch.degraded {
                // The deadline never fired: the run must be bit-exact.
                prop_assert_eq!(&survivor.history, &full.history);
                prop_assert_eq!(survivor.samples, full.samples);
            }
        }
    }
}

fn gemm() -> Vec<Layer> {
    networks().swap_remove(0).1
}

fn gemm_request(seed: u64) -> SearchRequestBuilder {
    SearchRequest::builder(Hierarchy::gemmini())
        .network("gemm", gemm())
        .config(tiny_cfg(seed))
}

/// A single-design random search: its one work item is the one a fault
/// plan holds at position 0.
fn tiny_random(seed: u64) -> RandomSearchConfig {
    RandomSearchConfig {
        num_hw: 1,
        samples_per_hw: 30,
        seed,
    }
}

fn tiny_bayes(seed: u64) -> BbboConfig {
    BbboConfig {
        num_hw: 3,
        init_random: 2,
        samples_per_hw: 6,
        candidates: 10,
        seed,
    }
}

/// Bit-level equality against the blocking shim's result.
fn assert_matches_solo(result: &SearchResult, seed: u64, what: &str) {
    let solo = dosa_search(&gemm(), &Hierarchy::gemmini(), &tiny_cfg(seed));
    assert_bits_eq(result, &solo, what);
}

fn assert_bits_eq(result: &SearchResult, solo: &SearchResult, what: &str) {
    assert_eq!(result.best_edp.to_bits(), solo.best_edp.to_bits(), "{what}");
    assert_eq!(result.best_hw, solo.best_hw, "{what}");
    assert_eq!(result.samples, solo.samples, "{what}");
    assert_eq!(result.history, solo.history, "{what}");
}

/// The exact typed outcome of each fault kind, deterministically:
///
/// (a) a `Panic` at item 1 fails its job with exactly `WorkerPanic {
///     item: 1 }`, payload intact, while a sibling job on the same
///     2-slot service stays bit-identical to its solo run;
/// (b) a `NonFiniteLoss` at item 0 fails with exactly `NonFiniteLoss {
///     item: 0, step: 1 }`;
/// (c) a default (`Kill`) deadline that expires while item 0 is held by
///     a `Delay` fails with `DeadlineExceeded`, and a concurrent sibling
///     stays bit-identical to its solo run — for a GD job, and for a
///     random-search and a BB-BO job, whose per-sample check must stop
///     their one held item before it draws a single sample;
/// (d) an empty `FaultPlan` changes no result bit.
#[test]
fn each_fault_kind_fails_typed_and_spares_its_siblings() {
    let service = SearchService::builder().threads(2).build();

    // (a) Panic isolation.
    let panicking = service
        .submit(
            gemm_request(11)
                .fault_plan(FaultPlan::new().inject(1, FaultKind::Panic))
                .build(),
        )
        .unwrap();
    let sibling = service.submit(gemm_request(12).build()).unwrap();
    let err = panicking.wait().unwrap_err();
    assert_eq!(panicking.status(), JobStatus::Failed);
    assert_eq!(panicking.error(), Some(err.clone()));
    match &err {
        JobError::WorkerPanic { item: 1, payload } => {
            assert!(
                payload.contains("injected fault"),
                "payload lost: {payload}"
            );
        }
        other => panic!("expected WorkerPanic at item 1, got {other}"),
    }
    let sibling = sibling.wait().unwrap().into_single();
    assert_matches_solo(&sibling, 12, "sibling of a panicking job");

    // (b) Typed non-finite failure, attributed to the poisoned step.
    let err = service
        .submit(
            gemm_request(13)
                .fault_plan(FaultPlan::new().inject(0, FaultKind::NonFiniteLoss))
                .build(),
        )
        .unwrap()
        .wait()
        .unwrap_err();
    assert_eq!(err, JobError::NonFiniteLoss { item: 0, step: 1 });

    // (c) Kill deadline under load: item 0 sleeps far past the deadline,
    // so the job cannot finish before its deadline passes.
    let killed = service
        .submit(
            gemm_request(14)
                .fault_plan(FaultPlan::new().inject(0, FaultKind::Delay(1_000)))
                .deadline(Duration::from_millis(200))
                .build(),
        )
        .unwrap();
    let sibling = service.submit(gemm_request(15).build()).unwrap();
    assert_eq!(killed.wait().unwrap_err(), JobError::DeadlineExceeded);
    assert_eq!(killed.status(), JobStatus::Failed);
    let sibling = sibling.wait().unwrap().into_single();
    assert_matches_solo(&sibling, 15, "sibling of a deadline-killed job");

    // ... and the black-box strategies, where the held item's per-sample
    // check is what notices the deadline once the delay ends.
    let hier = Hierarchy::gemmini();
    let black_box = [
        (
            Strategy::Random(tiny_random(17)),
            Strategy::Random(tiny_random(18)),
            random_search(&gemm(), &hier, &tiny_random(18)),
        ),
        (
            Strategy::BayesOpt(tiny_bayes(19)),
            Strategy::BayesOpt(tiny_bayes(20)),
            bayesian_search(&gemm(), &hier, &tiny_bayes(20)),
        ),
    ];
    for (strategy, sibling_strategy, solo) in black_box {
        let what = format!("{strategy:?}");
        let killed = service
            .submit(
                SearchRequest::builder(hier.clone())
                    .network("gemm", gemm())
                    .strategy(strategy)
                    .fault_plan(FaultPlan::new().inject(0, FaultKind::Delay(1_000)))
                    .deadline(Duration::from_millis(200))
                    .build(),
            )
            .unwrap();
        let sibling = service
            .submit(
                SearchRequest::builder(hier.clone())
                    .network("gemm", gemm())
                    .strategy(sibling_strategy)
                    .build(),
            )
            .unwrap();
        assert_eq!(
            killed.wait().unwrap_err(),
            JobError::DeadlineExceeded,
            "{what}"
        );
        assert_eq!(killed.status(), JobStatus::Failed, "{what}");
        assert_eq!(
            killed.progress().total_samples(),
            0,
            "{what}: the per-sample check must stop the held item before its first sample"
        );
        let sibling = sibling.wait().unwrap().into_single();
        assert_bits_eq(
            &sibling,
            &solo,
            &format!("sibling of a deadline-killed {what}"),
        );
    }

    // (d) An installed but empty plan is a bit-exact no-op.
    let empty = service
        .submit(gemm_request(16).fault_plan(FaultPlan::new()).build())
        .unwrap()
        .wait()
        .unwrap()
        .into_single();
    assert_matches_solo(&empty, 16, "empty fault plan vs no plan");
}

/// A cancel that arrives after a `Kill` deadline has passed does not turn
/// the kill into a cancel, even when nothing checked the deadline in
/// between: on a single-slot service, item 0 of a one-item job sleeps in
/// its injected `Delay`, so no dispatch, sample, or finish runs from just
/// after submission until well past both the deadline and the cancel.
#[test]
fn a_cancel_after_the_kill_deadline_passed_still_fails_typed() {
    let service = SearchService::builder().threads(1).build();
    let job = service
        .submit(
            SearchRequest::builder(Hierarchy::gemmini())
                .network("gemm", gemm())
                .strategy(Strategy::Random(tiny_random(21)))
                .fault_plan(FaultPlan::new().inject(0, FaultKind::Delay(600)))
                .deadline(Duration::from_millis(100))
                .build(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    job.cancel();
    assert_eq!(job.wait().unwrap_err(), JobError::DeadlineExceeded);
    assert_eq!(job.status(), JobStatus::Failed);
}

/// A cancel that stops several GD items mid-descent keeps every item's
/// contribution a bitwise prefix of its uninterrupted descent. On one
/// worker with 25-step segments, items 0–2 each checkpoint one segment
/// (past their first rounding) before item 3's `Delay` holds the worker
/// through the cancel; the resumed items then stop at their next step, so
/// item 1's history lands at sample offsets the uninterrupted run never
/// used.
#[test]
fn a_mid_run_cancel_keeps_every_item_a_bitwise_prefix() {
    let seed = 5;
    let (reference, items) = uninterrupted(seed, 1);
    let service = SearchService::builder().threads(1).build();
    let job = service
        .submit(
            request(seed)
                .config(GdConfig {
                    segment_steps: Some(25),
                    ..tiny_cfg(seed)
                })
                .fault_plan(FaultPlan::new().inject(3, FaultKind::Delay(1_000)))
                .build(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(500));
    job.cancel();
    let batch = job
        .wait()
        .expect("a cancelled job keeps its partial results");
    assert_eq!(job.status(), JobStatus::Cancelled);
    for (i, (name, _)) in networks().into_iter().enumerate() {
        let survivor = batch.get(name).unwrap();
        let full = reference.get(name).unwrap();
        assert_strictly_monotone(&survivor.history, name);
        assert!(
            survivor.samples < full.samples,
            "{name}: the cancel cut it short"
        );
        assert!(survivor.best_edp >= full.best_edp, "{name}");
        assert!(
            is_merge_of_item_prefixes(survivor, &items[i]),
            "{name}: cancelled result is not a merge of per-item prefixes"
        );
    }
}

/// A BB-BO request whose proposal step would score `1 << 40` candidates.
/// Candidates are drawn and scored a lane at a time, never collected, and
/// the stop word is checked between lanes, so such a request cannot
/// exhaust memory. A `Kill` deadline fails it with `DeadlineExceeded`
/// within a few seconds; a user cancel keeps exactly the designs searched
/// before the stalled proposal. The same service then serves normal jobs.
#[test]
fn a_huge_candidate_count_is_stopped_by_deadlines_and_cancels() {
    let huge = |seed| BbboConfig {
        num_hw: 3,
        init_random: 2,
        samples_per_hw: 6,
        candidates: 1 << 40,
        seed,
    };
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();
    let submit = |strategy, deadline: Option<Duration>| {
        let mut builder = SearchRequest::builder(hier.clone())
            .network("gemm", gemm())
            .strategy(strategy);
        if let Some(d) = deadline {
            builder = builder.deadline(d);
        }
        service.submit(builder.build()).unwrap()
    };

    let started = std::time::Instant::now();
    let killed = submit(Strategy::BayesOpt(huge(23)), Some(Duration::from_secs(2)));
    assert_eq!(killed.wait().unwrap_err(), JobError::DeadlineExceeded);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "the deadline took {:?} to stop the proposal",
        started.elapsed()
    );

    let cancelled = submit(Strategy::BayesOpt(huge(24)), None);
    let random_designs = 2 * huge(24).samples_per_hw;
    while cancelled.progress().total_samples() < random_designs {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "the random designs never finished"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cancelled.cancel();
    let partial = cancelled.wait().unwrap().into_single();
    assert_eq!(cancelled.status(), JobStatus::Cancelled);
    let prefix = BbboConfig {
        num_hw: 2,
        ..huge(24)
    };
    assert_bits_eq(
        &partial,
        &bayesian_search(&gemm(), &hier, &prefix),
        "cancelled mid-proposal vs its searched designs",
    );

    let normal = submit(Strategy::BayesOpt(tiny_bayes(25)), None)
        .wait()
        .unwrap()
        .into_single();
    assert_bits_eq(
        &normal,
        &bayesian_search(&gemm(), &hier, &tiny_bayes(25)),
        "a normal job after the huge ones",
    );
}
