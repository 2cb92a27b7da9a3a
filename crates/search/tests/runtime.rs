//! Stress tests of the persistent worker runtime: randomized job mixes
//! on 1/2/4/8-slot pools must hold the three pool invariants — the live
//! OS-thread count never exceeds `slots + const` (workers are spawned
//! once per service, never per job, per deadline, or per fan-out), every
//! uninterrupted job's per-network result stays bit-identical to its
//! standalone run, and no admitted entry waits more dispatches than the
//! computable aging budget. A deterministic test holds the same ceiling
//! under 100 deadline-armed jobs. Plus the starvation regression the
//! aging rank rule exists for: a `Fifo` job survives a continuous stream
//! of `Priority(0)` traffic that would park it forever under the
//! pre-aging rule.
//!
//! The thread-count probes read the process-wide `Threads:` line of
//! `/proc/self/status`, so every test in this binary serializes on one
//! mutex — a concurrently running sibling test would add its own service
//! threads to the count.

use dosa_accel::Hierarchy;
use dosa_search::{
    bayesian_search, dosa_search, random_search, BbboConfig, DeadlinePolicy, FaultKind, FaultPlan,
    GdConfig, JobStatus, RandomSearchConfig, SchedPolicy, SearchRequest, SearchResult,
    SearchService, Strategy, AGE_DISPATCH_PERIOD,
};
use dosa_workload::{Layer, Problem};
use proptest::prelude::*;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serializes the tests in this binary: the `/proc/self/status` thread
/// probe counts every thread in the process, so sibling tests must not
/// run (and spawn services) while a probing test measures.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    // A panicking sibling only poisons the lock; the probe is still valid.
    // dosa-lint: allow(raw-mutex-lock) — test-local serializer: poison is
    // recovered inline via into_inner, the same recovery fault::lock provides.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// The live OS-thread count of this process, from the `Threads:` row of
/// `/proc/self/status`.
fn live_threads() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on linux")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status has a Threads: row")
        .trim()
        .parse()
        .expect("Threads: row is a count")
}

/// Threads a probe may see beyond `baseline + slots`: the cargo-test
/// harness's own bookkeeping threads and a worker respawn transiently
/// overlapping the thread it replaces — never per-job or per-item growth.
const SLACK: usize = 4;

fn matmul_net() -> Vec<Layer> {
    vec![Layer::once(Problem::matmul("gemm", 64, 256, 256).unwrap())]
}

fn assert_bit_identical(a: &SearchResult, b: &SearchResult, what: &str) {
    assert_eq!(
        a.best_edp.to_bits(),
        b.best_edp.to_bits(),
        "{what}: best_edp diverged"
    );
    assert_eq!(a.best_hw, b.best_hw, "{what}: best_hw diverged");
    assert_eq!(a.history, b.history, "{what}: history diverged");
    assert_eq!(a.samples, b.samples, "{what}: sample accounting diverged");
}

/// One randomized job: a strategy, a scheduling policy, and at most one
/// kind of chaos, all decoded from flat proptest-drawn selectors (the
/// vendored proptest has no `prop_oneof`).
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    strategy: u8,
    segment: u8,
    policy: u8,
    priority: u8,
    chaos: u8,
    seed: u64,
}

impl JobSpec {
    /// Segment length for GD jobs: `∞`, 1, 7, or 64 — the same grid the
    /// segment-parity tests pin, here mixed under concurrent load.
    fn segment_steps(&self) -> Option<usize> {
        match self.segment {
            0 => None,
            1 => Some(1),
            2 => Some(7),
            _ => Some(64),
        }
    }

    fn strategy(&self) -> Strategy {
        match self.strategy {
            // GD gets double weight: it is the only segmented strategy.
            0..=1 => Strategy::GradientDescent(GdConfig {
                start_points: 2,
                steps_per_start: 40,
                round_every: 20,
                seed: self.seed,
                segment_steps: self.segment_steps(),
                ..GdConfig::default()
            }),
            2 => Strategy::Random(RandomSearchConfig {
                num_hw: 2,
                samples_per_hw: 30,
                seed: self.seed,
            }),
            _ => Strategy::BayesOpt(BbboConfig {
                num_hw: 3,
                init_random: 2,
                samples_per_hw: 6,
                candidates: 10,
                seed: self.seed,
            }),
        }
    }

    fn policy(&self) -> SchedPolicy {
        match self.policy {
            0..=1 => SchedPolicy::Fifo,
            2 => SchedPolicy::ShortestFirst,
            _ => SchedPolicy::Priority(self.priority),
        }
    }

    /// The standalone reference result this job must match bit-for-bit
    /// when it runs uninterrupted. Always unsegmented: segmentation must
    /// be bit-invisible.
    fn standalone(&self, service: &SearchService, hier: &Hierarchy) -> SearchResult {
        match self.strategy() {
            Strategy::GradientDescent(cfg) => dosa_search(
                service,
                &matmul_net(),
                hier,
                &GdConfig {
                    segment_steps: None,
                    ..cfg
                },
            ),
            Strategy::Random(cfg) => random_search(service, &matmul_net(), hier, &cfg),
            Strategy::BayesOpt(cfg) => bayesian_search(service, &matmul_net(), hier, &cfg),
            _ => unreachable!("JobSpec::strategy only builds the three variants above"),
        }
    }

    /// Chaos decode, weighted toward "none" so most jobs stay eligible
    /// for the bit-parity assertion: 0–5 none, 6 a never-firing Degrade
    /// deadline, 7 a mid-run cancel, 8–9 benign injected delays (the
    /// fault hook must be a bit-exact no-op).
    fn cancels(&self) -> bool {
        self.chaos == 7
    }

    fn build(&self, hier: &Hierarchy) -> SearchRequest {
        let mut builder = SearchRequest::builder(hier.clone())
            .network("gemm", matmul_net())
            .strategy(self.strategy())
            .policy(self.policy());
        match self.chaos {
            6 => {
                // Deadline coverage without truncation: a Degrade
                // deadline far beyond the job's runtime is checked at
                // every dispatch but never fires, so bit-parity still
                // applies.
                builder = builder
                    .deadline(Duration::from_secs(300))
                    .deadline_policy(DeadlinePolicy::Degrade);
            }
            8..=9 => {
                let mut plan = FaultPlan::new();
                for pos in 0..2 {
                    plan = plan.inject(pos, FaultKind::Delay(5 + self.seed % 10));
                }
                builder = builder.fault_plan(plan);
            }
            _ => {}
        }
        builder.build()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three pool invariants under randomized load. For every drawn
    /// mix of strategies (GD at every segment length, random, BB-BO),
    /// policies (`Fifo`/`ShortestFirst`/`Priority(p)`), never-firing
    /// deadlines, cancels, and benign injected delays, on a 1/2/4/8-slot
    /// pool:
    ///
    /// 1. **Thread ceiling** — at every sample the process grew by at
    ///    most `slots + SLACK` threads over the pre-service baseline.
    ///    Workers are spawned once at construction; admitting a job,
    ///    arming its deadline, fanning out its items, or resuming a
    ///    segment spawns nothing.
    /// 2. **Bit-parity** — every job nobody cancelled returns results
    ///    bit-identical to its standalone run, whatever interleaving,
    ///    policy mix, segment length, or benign delay the case drew.
    /// 3. **Bounded wait** — no entry waited more dispatches than the
    ///    aging budget `255 · AGE_DISPATCH_PERIOD + D`, where `D` is the
    ///    total dispatch count of the whole mix: an entry waiting `w`
    ///    dispatches runs at effective class `class − w/AGE_DISPATCH_PERIOD`,
    ///    so after at most `255` periods it is rank-maximal and only the
    ///    `≤ D` entries already ahead of it can still precede it. No
    ///    admitted job waits forever.
    #[test]
    fn randomized_job_mixes_hold_the_pool_invariants(
        slots_sel in 0usize..4,
        raw_jobs in proptest::collection::vec(
            (0u8..4, 0u8..4, 0u8..4, 0u8..8, 0u8..10, 0u64..1_000),
            1..6,
        ),
    ) {
        let _guard = serial_guard();
        let slots = [1usize, 2, 4, 8][slots_sel];
        let jobs: Vec<JobSpec> = raw_jobs
            .into_iter()
            .map(|(strategy, segment, policy, priority, chaos, seed)| JobSpec {
                strategy, segment, policy, priority, chaos, seed,
            })
            .collect();
        let hier = Hierarchy::gemmini();

        // Standalone references first, on a service dropped before the
        // baseline is captured.
        let standalone = SearchService::builder().build();
        let references: Vec<Option<SearchResult>> = jobs
            .iter()
            .map(|spec| (!spec.cancels()).then(|| spec.standalone(&standalone, &hier)))
            .collect();
        drop(standalone);

        let baseline = live_threads();
        let ceiling = baseline + slots + SLACK;

        let service = SearchService::builder().threads(slots).build();
        let handles: Vec<_> = jobs
            .iter()
            .map(|spec| service.submit(spec.build(&hier)).expect("request validates"))
            .collect();
        for (spec, handle) in jobs.iter().zip(&handles) {
            if spec.cancels() {
                handle.cancel();
            }
        }

        // Invariant 1, sampled while the mix drains: the pool never
        // grows with load.
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let now = live_threads();
            prop_assert!(
                now <= ceiling,
                "{now} live threads > ceiling {ceiling} (baseline {baseline}, \
                 {slots} slots)"
            );
            if handles.iter().all(|h| h.status().is_terminal()) {
                break;
            }
            prop_assert!(
                Instant::now() < deadline,
                "job mix did not drain within 120s — an admitted job waited forever"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // Invariant 2: every uncancelled job is bit-identical to its
        // standalone run (cancelled jobs merely terminated above).
        for (i, (handle, reference)) in handles.iter().zip(&references).enumerate() {
            let Some(reference) = reference else { continue };
            let batch = handle.wait().expect("uncancelled benign job cannot fail");
            prop_assert_eq!(handle.status(), JobStatus::Completed);
            prop_assert!(!batch.degraded, "the 300s Degrade deadline must never fire");
            assert_bit_identical(
                batch.get("gemm").expect("network present"),
                reference,
                &format!("job {i} under {slots}-slot concurrent load"),
            );
        }

        // Invariant 3: the computable aging budget. D over-counts the
        // mix's dispatches (plan + per-item + per-segment for every job,
        // cancelled or not), and no entry may have waited longer than
        // the budget derived from it.
        let total_dispatches: usize = handles
            .iter()
            .map(|h| {
                let s = h.stats();
                1 + s.work_items + s.segments_run
            })
            .sum();
        let budget = 255 * AGE_DISPATCH_PERIOD + total_dispatches as u64;
        for (i, handle) in handles.iter().enumerate() {
            let wait = handle.stats().max_queue_wait;
            prop_assert!(
                wait <= budget,
                "job {i} waited {wait} dispatches > aging budget {budget}"
            );
        }
    }
}

/// Deadlines cost no threads: 100 jobs with far-future deadlines (half
/// `Kill`, half `Degrade`) on a 2-slot service never push the process
/// past `baseline + 2 + SLACK` live threads, and every job — its deadline
/// checked at each dispatch and, under `Kill`, at each gradient step —
/// completes bit-identically to its standalone run. A thread per
/// deadline-armed job would put ~100 threads over that ceiling.
#[test]
fn a_hundred_deadline_armed_jobs_add_no_threads() {
    let _guard = serial_guard();
    let hier = Hierarchy::gemmini();
    const JOBS: u64 = 100;
    const SLOTS: usize = 2;
    let cfg = |seed: u64| GdConfig {
        start_points: 1,
        steps_per_start: 10,
        round_every: 5,
        seed,
        ..GdConfig::default()
    };
    // Standalone references first, on a service dropped before the
    // baseline is captured.
    let standalone = SearchService::builder().build();
    let references: Vec<SearchResult> = (0..JOBS)
        .map(|seed| dosa_search(&standalone, &matmul_net(), &hier, &cfg(seed)))
        .collect();
    drop(standalone);

    let baseline = live_threads();
    let ceiling = baseline + SLOTS + SLACK;
    let service = SearchService::builder().threads(SLOTS).build();
    let handles: Vec<_> = (0..JOBS)
        .map(|seed| {
            let policy = if seed % 2 == 0 {
                DeadlinePolicy::Kill
            } else {
                DeadlinePolicy::Degrade
            };
            let request = SearchRequest::builder(hier.clone())
                .network("gemm", matmul_net())
                .config(cfg(seed))
                .deadline(Duration::from_secs(3_600))
                .deadline_policy(policy)
                .build();
            service.submit(request).expect("request validates")
        })
        .collect();

    let mut peak = live_threads();
    while !handles.iter().all(|h| h.status().is_terminal()) {
        peak = peak.max(live_threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        peak <= ceiling,
        "{peak} live threads > ceiling {ceiling} (baseline {baseline}, {SLOTS} slots) \
         with {JOBS} deadline-armed jobs"
    );

    for (seed, (handle, reference)) in handles.iter().zip(&references).enumerate() {
        let batch = handle.wait().expect("a far-future deadline never fires");
        assert_eq!(handle.status(), JobStatus::Completed);
        assert!(!batch.degraded, "job {seed}: the deadline must never fire");
        assert_bit_identical(
            batch.get("gemm").expect("network present"),
            reference,
            &format!("deadline-armed job {seed}"),
        );
    }
}

/// The starvation regression the aging rule exists for: this test fails
/// under the rank rule without aging.
///
/// One worker, one queued `Fifo` job, and a generator keeping a constant
/// backlog of `Priority(0)` jobs. Under the pre-aging rule this starves
/// forever: a fresh `Priority(0)` entry ranks `{class: 255, group: 0}`
/// and the `Fifo` entry `{class: 255, group: 1}`, so as long as the
/// backlog is never empty the Fifo entry loses every single pop.
///
/// With aging, an entry waiting `w` dispatches runs at
/// `class − w / AGE_DISPATCH_PERIOD`: after `AGE_DISPATCH_PERIOD` (64)
/// dispatches of waiting, the Fifo entry's effective class is 254 and it
/// beats every fresh `Priority(0)` entry in the queue. Each of the Fifo
/// job's entries (one plan + its work items) therefore waits at most
/// `~AGE_DISPATCH_PERIOD` dispatches, and the job finishes within a few
/// hundred priority dispatches — far below the generator's 2000-job cap,
/// which only a starved run can exhaust.
#[test]
fn a_fifo_job_is_never_starved_by_a_continuous_priority_stream() {
    let _guard = serial_guard();
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();

    // Each stream job carries a benign 2ms Delay fault: the worker
    // sleeps mid-item, which hands the CPU to the generator loop below
    // even on a single-core machine — so the backlog provably never
    // empties and the stream is genuinely continuous. (Delays are
    // bit-exact no-ops; see `tests/faults.rs`.)
    let tiny = |seed: u64| {
        SearchRequest::builder(Hierarchy::gemmini())
            .network("p", matmul_net())
            .config(GdConfig {
                start_points: 1,
                steps_per_start: 5,
                round_every: 5,
                seed,
                ..GdConfig::default()
            })
            .fault_plan(FaultPlan::new().inject(0, FaultKind::Delay(2)))
            .policy(SchedPolicy::Priority(0))
            .build()
    };

    // Prime the backlog BEFORE submitting the Fifo job, so its plan
    // entry lands in an already-contended queue.
    let mut stream: Vec<_> = (0..8).map(|i| service.submit(tiny(i)).unwrap()).collect();

    let fifo = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("fifo", matmul_net())
                .config(GdConfig {
                    start_points: 2,
                    steps_per_start: 40,
                    round_every: 20,
                    seed: 99,
                    ..GdConfig::default()
                })
                .build(),
        )
        .unwrap();

    // Keep the backlog topped up until the Fifo job finishes — no sleep:
    // the generator must outpace the worker so the queue never empties.
    // The cap is the starvation detector: with aging the Fifo job needs
    // only ~2·AGE_DISPATCH_PERIOD dispatches (≈ one period per entry),
    // i.e. ~100 stream jobs, so reaching 2000 submissions means it
    // starved.
    const CAP: u64 = 2_000;
    let mut submitted = 8u64;
    while !fifo.status().is_terminal() {
        assert!(
            submitted < CAP,
            "Fifo job still not finished after {submitted} Priority(0) \
             submissions — the rank rule starves Fifo traffic"
        );
        stream.retain(|h| !h.status().is_terminal());
        while stream.len() < 8 && submitted < CAP {
            stream.push(service.submit(tiny(submitted)).unwrap());
            submitted += 1;
        }
        std::thread::yield_now();
    }

    let batch = fifo.wait().unwrap();
    assert_eq!(fifo.status(), JobStatus::Completed);
    let wait = fifo.stats().max_queue_wait;
    assert!(
        wait > 0,
        "the Fifo job must actually have waited behind priority traffic"
    );
    // The aging bound, observably honored: each Fifo entry overtakes all
    // fresh Priority(0) traffic after one period's wait, plus slack for
    // the (small, already-boosted) backlog in front of it. Pre-aging the
    // wait would grow with the stream (≈ 2·CAP here).
    assert!(
        wait <= 4 * AGE_DISPATCH_PERIOD,
        "Fifo entry waited {wait} dispatches, over the aging bound {}",
        4 * AGE_DISPATCH_PERIOD
    );
    // And the contention changed nothing about its result.
    let reference = dosa_search(
        &SearchService::builder().build(),
        &matmul_net(),
        &hier,
        &GdConfig {
            start_points: 2,
            steps_per_start: 40,
            round_every: 20,
            seed: 99,
            ..GdConfig::default()
        },
    );
    assert_bit_identical(
        batch.get("fifo").unwrap(),
        &reference,
        "Fifo job under priority flood",
    );
    drop(stream);
}

/// The deterministic flavor of the bounded-wait invariant: a `Fifo` job
/// admitted behind `N` earlier-submitted `Priority(0)` jobs on a
/// single-slot pool completes within the computable item budget — every
/// one of its entries waits at most the backlog's total dispatch count
/// plus one aging period, and `max_queue_wait` observably honors that
/// bound.
#[test]
fn a_fifo_job_behind_n_priority_jobs_finishes_within_the_item_budget() {
    let _guard = serial_guard();
    let hier = Hierarchy::gemmini();
    let service = SearchService::builder().threads(1).build();
    const N: u64 = 20;

    let priority: Vec<_> = (0..N)
        .map(|i| {
            service
                .submit(
                    SearchRequest::builder(hier.clone())
                        .network("p", matmul_net())
                        .config(GdConfig {
                            start_points: 1,
                            steps_per_start: 10,
                            round_every: 10,
                            seed: i,
                            ..GdConfig::default()
                        })
                        .policy(SchedPolicy::Priority(0))
                        .build(),
                )
                .unwrap()
        })
        .collect();
    let fifo = service
        .submit(
            SearchRequest::builder(hier.clone())
                .network("fifo", matmul_net())
                .config(GdConfig {
                    start_points: 1,
                    steps_per_start: 10,
                    round_every: 10,
                    seed: N,
                    ..GdConfig::default()
                })
                .build(),
        )
        .unwrap();

    fifo.wait().unwrap();
    assert_eq!(fifo.status(), JobStatus::Completed);
    // Item budget: the N priority jobs dispatch one plan + one descent
    // entry each (2N total); the Fifo job's two entries can each
    // additionally wait out one aging period before becoming
    // rank-maximal.
    let priority_dispatches: u64 = priority
        .iter()
        .map(|h| {
            h.wait().unwrap();
            1 + h.stats().segments_run as u64
        })
        .sum();
    let budget = priority_dispatches + AGE_DISPATCH_PERIOD;
    let wait = fifo.stats().max_queue_wait;
    assert!(
        wait <= budget,
        "Fifo job waited {wait} dispatches behind {N} priority jobs, \
         over the computable budget {budget}"
    );
}
