//! The job-oriented search service: a [`SearchService`] accepts
//! [`SearchRequest`]s and runs them **concurrently** on one service-owned
//! persistent worker pool — whatever each job's [`Strategy`] — returning
//! a [`JobHandle`] with non-blocking [`status()`](JobHandle::status) /
//! [`progress()`](JobHandle::progress), cooperative
//! [`cancel()`](JobHandle::cancel), and blocking
//! [`wait()`](JobHandle::wait).
//!
//! ## Execution model
//!
//! The service spawns exactly one long-lived worker thread per slot
//! ([`SearchServiceBuilder::threads`], default: all cores) **at
//! construction, and never again** — submitting, running, and retiring
//! jobs spawns no threads, deadlines included. Workers loop over a shared
//! ready queue (see the [`SchedPolicy`] docs and `ARCHITECTURE.md` at the
//! repository root): submitting a job enqueues a single *planning* item;
//! planning enqueues the job's executable work items, which interleave
//! with every other job's on the same pool. At most `threads` items
//! execute at any instant **across all jobs** — a short gradient-descent
//! job completes on free workers while a long Bayesian-optimization job
//! is still mid-flight, instead of queueing behind it. What a job plans
//! depends on its strategy:
//!
//! * [`Strategy::GradientDescent`] — **all networks' start points** of a
//!   batched request become independent work items (a batch saturates the
//!   pool even when individual networks have few starts). With
//!   [`GdConfig::segment_steps`] set, each start runs as a chain of
//!   bounded, bit-exact **segments**: a segment runs `k` gradient steps,
//!   checkpoints the full descent state (parameters, Adam moments,
//!   partial history — RNG-free by construction, see
//!   [`crate::engine`]'s `DescentState`) and re-enqueues, so the worker
//!   turns over at a bounded cadence and a long descent cannot
//!   monopolize the pool;
//! * [`Strategy::Random`] — **all networks' hardware designs** become the
//!   work items, each searched by a private RNG stream;
//! * [`Strategy::BayesOpt`] — each network's outer GP loop is inherently
//!   serial, so **one work item per network**; the loop runs inline on
//!   its worker.
//!
//! Per-item results land at fixed planned positions and are
//! demultiplexed per network on merge.
//!
//! ## Scheduling
//!
//! Which queued work item a free worker runs next is decided by each
//! request's [`SchedPolicy`] (`Fifo` by default, `ShortestFirst`, or
//! `Priority(u8)`), **aged** so that no job waits forever: an entry's
//! effective priority class improves by one per
//! [`AGE_DISPATCH_PERIOD`](crate::AGE_DISPATCH_PERIOD) items the service
//! dispatches while it waits, so a continuous stream of `Priority`
//! submissions can delay `Fifo` traffic only for a bounded number of
//! dispatches, never starve it (the `sched` module derives the bound). A
//! job can additionally cap its own share of the pool with
//! [`SearchRequestBuilder::max_parallelism`](crate::SearchRequestBuilder::max_parallelism).
//! With a single-slot budget the service degenerates to running one job
//! at a time in policy order (strict FIFO under the default policy).
//! Running work items are never preempted.
//!
//! ## Determinism
//!
//! For every network in a request, the sequential skeleton of its search
//! (GD start points, random-search design draws, BB-BO's outer GP loop)
//! is generated from that network's effective seed before any
//! parallelism, and every work item owns an RNG stream derived from that
//! seed — exactly what the standalone shims
//! ([`dosa_search`](crate::dosa_search),
//! [`random_search`](crate::random_search),
//! [`bayesian_search`](crate::bayesian_search)) do. Combined with
//! position-indexed result slots, a network's `SearchResult` is
//! **bit-identical** to a separate submission with the same seed, for
//! every service thread budget, any batch composition, any segment
//! length, and any interleaving with other jobs — scheduling moves
//! wall-clock time, never results.
//!
//! ## Cancellation
//!
//! [`JobHandle::cancel`] sets a bit of the job's stop word, which every
//! work item checks once per gradient step (GD) or joint mapping sample
//! (black-box strategies): running items return their partial results at
//! the next boundary, queued items resolve as fast no-ops the moment a
//! worker picks them up (freeing capacity for the other jobs on the
//! service), and the merged best-so-far histories stay monotone
//! non-increasing with strictly increasing sample counts. A job cancelled
//! while still queued completes immediately with empty results.
//!
//! ## Result cache, checkpoint/resume
//!
//! A service built with [`SearchServiceBuilder::cache`] consults a
//! content-addressed [`ResultCache`] per work item during planning,
//! *before* the item enters the ready queue — and before any of its
//! search work (a GD start point, a random design) is generated, which
//! happens only for a network with a miss: hits are replayed into the
//! item's planned position (so merge order — and therefore every result
//! bit — is unchanged), misses run on the pool and are journaled the
//! moment they complete — for a segmented descent, the moment its
//! **final segment** completes; a mid-descent checkpoint is never
//! journaled. Because journaling is per item and never covers a
//! cancelled (partial) item, a cancelled job resubmitted identically
//! replays its completed items from the cache and re-runs only the
//! remainder — checkpoint/resume without any explicit checkpoint format.
//! The cache is invisible in results: every [`BatchResult`] is
//! bit-identical to a cold run. [`JobHandle::stats`] reports per-job
//! hits and misses. See the [`cache`] module for the key schema.
//!
//! ## Failure domains, deadlines & degradation
//!
//! One work item is one failure domain: a panicking item (or one whose
//! gradient step produces a non-finite loss) fails **only its own job**
//! with a typed [`JobError`], and leaves every sibling job bit-identical
//! to an uncontended run. Panics are caught at the item's unwind
//! boundary, so the worker thread itself survives; if a defect ever
//! escapes that boundary and kills a worker, the dying thread respawns a
//! replacement, so the pool's capacity is self-healing (see
//! [`crate::fault`]). The failed job ends in the terminal
//! [`JobStatus::Failed`] state — [`wait()`](JobHandle::wait) returns the
//! error, [`error()`](JobHandle::error) retrieves it non-blockingly —
//! and no service-wide lock is ever left poisoned.
//!
//! A request may carry a [`deadline`](crate::SearchRequestBuilder::deadline)
//! (measured from submission, so queue time counts) with a
//! [`DeadlinePolicy`]. No thread watches the clock: the deadline is
//! evaluated where the service already decides whether to stop — at every
//! work-item dispatch, in the per-step cancel check (`Kill` only), and
//! when the job finishes. `Kill` terminates the job with
//! [`JobError::DeadlineExceeded`]; `Degrade` stops admitting new work
//! items at the deadline and completes with the deterministic merge of
//! every item finished so far, flagged [`BatchResult::degraded`] — a
//! bitwise **prefix** of the uninterrupted run's history, because items
//! are merged in plan order, truncated at the first never-started item,
//! and the merge's running-minimum rewrite is prefix-stable. An item
//! that already checkpointed a segment counts as started: it finishes
//! bit-exactly. Completed items journal to the result cache as usual, so
//! resubmitting a degraded job resumes from its finished prefix.

use crate::bbbo::{run_bayesian_search, BbboConfig};
use crate::cache::{self, KeyPrefix, ResultCache};
use crate::engine::{
    merge_start_results, run_segment, DescentState, DiffLoss, EdpLoss, PredictedLatencyLoss,
    ProgressCounters, StartControl,
};
#[cfg(doc)]
use crate::fault::DeadlinePolicy;
use crate::fault::{self, payload_string, FaultKind, JobError, StopWord};
use crate::gd::{GdConfig, LoopOrderStrategy, SearchResult};
use crate::random_search::{
    plan_random_designs, run_random_design, RandomDesign, RandomSearchConfig,
};
use crate::request::{ConfigError, SearchRequest, Surrogate};
#[cfg(doc)]
use crate::sched::SchedPolicy;
use crate::sched::{JobRank, ReadyQueue, Schedulable};
use crate::startpoints::{generate_start_points, StartPoint};
use crate::strategy::Strategy;
use dosa_accel::{Hierarchy, MAX_PE_SIDE};
use dosa_cache::CacheKey;
use dosa_model::LossOptions;
use dosa_workload::Layer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Lifecycle state of a submitted job.
///
/// ```text
/// Queued ──planned──▶ Running ──▶ Completed (incl. degraded)
///    │                   │
///    │                   ├──────▶ Failed (panic, non-finite loss,
///    │                   │                deadline Kill)
///    └──cancel()─────────┴──────▶ Cancelled
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the ready queue: the job's planning item has not been
    /// dispatched yet (better-ranked or earlier work holds the pool).
    Queued,
    /// Planned (or planning): the job's work items are executing on — or
    /// queued for — the service's persistent workers.
    Running,
    /// Finished normally; full results are available. A deadline job
    /// under [`DeadlinePolicy::Degrade`] also completes here, with
    /// [`BatchResult::degraded`] set.
    Completed,
    /// Cancelled; partial (possibly empty) results are available.
    Cancelled,
    /// Failed with a typed [`JobError`] — a work item panicked or went
    /// non-finite, the deadline expired under [`DeadlinePolicy::Kill`],
    /// or planning/merging itself died. The error is retrievable from
    /// [`JobHandle::error`] and returned by [`JobHandle::wait`]; no other
    /// job on the service is affected.
    Failed,
}

impl JobStatus {
    /// Whether the job has reached a terminal state (results or a typed
    /// error available).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Completed | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

/// One network's result inside a [`BatchResult`].
#[derive(Debug, Clone)]
pub struct NetworkResult {
    /// The network's name from the request.
    pub network: String,
    /// Its search result, bit-identical to a standalone run with the same
    /// seed (partial if the job was cancelled).
    pub result: SearchResult,
}

/// Per-network results of one job, in request order.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// One entry per network, in submission order.
    pub networks: Vec<NetworkResult>,
    /// Whether a [`DeadlinePolicy::Degrade`] deadline expired mid-run:
    /// the per-network results are the deterministic merge of the work
    /// items completed before the deadline — a bitwise prefix of the
    /// uninterrupted run's history — rather than the full budget.
    pub degraded: bool,
}

impl BatchResult {
    /// Look a network's result up by name.
    pub fn get(&self, network: &str) -> Option<&SearchResult> {
        self.networks
            .iter()
            .find(|n| n.network == network)
            .map(|n| &n.result)
    }

    /// Unwrap the result of a single-network job.
    ///
    /// # Panics
    ///
    /// Panics if the job held more or fewer than one network.
    pub fn into_single(mut self) -> SearchResult {
        assert_eq!(
            self.networks.len(),
            1,
            "into_single on a batch of {} networks",
            self.networks.len()
        );
        // dosa-lint: allow(panic-perimeter) — unreachable: the assert above
        // guarantees exactly one network; `into_single`'s docs also declare
        // the length-mismatch panic as API contract.
        self.networks.pop().expect("length checked").result
    }
}

/// Live observation of one network's share of a running job.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProgress {
    /// The network's name from the request.
    pub network: String,
    /// Model evaluations consumed so far (monotone non-decreasing).
    pub samples: usize,
    /// Best reference-evaluated EDP so far (monotone non-increasing;
    /// `INFINITY` until the first rounding evaluation lands).
    pub best_edp: f64,
}

/// A non-blocking snapshot of a job's lifecycle state and per-network
/// progress, drawn live from the descents' lock-free counters.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Lifecycle state at snapshot time.
    pub status: JobStatus,
    /// One entry per network, in submission order.
    pub networks: Vec<NetworkProgress>,
}

impl JobProgress {
    /// Total model evaluations consumed across the batch.
    pub fn total_samples(&self) -> usize {
        self.networks.iter().map(|n| n.samples).sum()
    }

    /// Best EDP across the batch (`INFINITY` until something landed).
    pub fn best_edp(&self) -> f64 {
        self.networks
            .iter()
            .map(|n| n.best_edp)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Per-job scheduler and cache observability, snapshot by
/// [`JobHandle::stats`].
///
/// On a service without a cache the cache counters stay zero. With a
/// cache, `cache_hits + cache_misses == work_items` once the job is
/// terminal (uncacheable items — e.g. a learned predictor's — count as
/// misses: they ran on the pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobStats {
    /// Work items this job planned.
    pub work_items: usize,
    /// Work items replayed from the service's [`ResultCache`].
    pub cache_hits: usize,
    /// Work items that ran on the pool (cache absent, item uncacheable,
    /// or a genuine miss).
    pub cache_misses: usize,
    /// Executable dispatches that actually ran on a worker: every GD
    /// segment (a start resumed `n` times counts `n` dispatches), random
    /// design, and BB-BO network. Planning dispatches and cache replays
    /// are not counted; without segmentation this equals the work items
    /// that ran on the pool.
    pub segments_run: usize,
    /// The longest any of this job's queue entries waited for a worker,
    /// measured in queue *dispatches* — the scheduler's logical aging
    /// clock (see [`SchedPolicy`] and
    /// [`AGE_DISPATCH_PERIOD`](crate::AGE_DISPATCH_PERIOD)). `0` when
    /// every entry was dispatched as soon as a worker freed up.
    pub max_queue_wait: u64,
    /// Gradient steps that recorded their loss ([`DiffLoss::build`]); the
    /// other steps replayed a recording cached since the descent's last
    /// rounding. Deterministic for a given request and segmentation
    /// ([`GdConfig::segment_steps`](crate::GdConfig)): each segment starts
    /// with an empty program cache, so segment boundaries add recordings.
    /// Zero for items replayed from the [`ResultCache`] and for the
    /// black-box strategies.
    pub gd_steps_recorded: usize,
}

/// Lock-free backing counters of [`JobStats`].
#[derive(Default)]
struct JobCounters {
    work_items: AtomicUsize,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
    segments_run: AtomicUsize,
    max_queue_wait: AtomicU64,
    gd_steps_recorded: AtomicUsize,
}

impl JobCounters {
    fn snapshot(&self) -> JobStats {
        JobStats {
            work_items: self.work_items.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            segments_run: self.segments_run.load(Ordering::Relaxed),
            max_queue_wait: self.max_queue_wait.load(Ordering::Relaxed),
            gd_steps_recorded: self.gd_steps_recorded.load(Ordering::Relaxed),
        }
    }
}

struct JobState {
    status: JobStatus,
    results: Option<BatchResult>,
    /// Why the job ended [`JobStatus::Failed`], when it did.
    error: Option<JobError>,
}

/// The position-indexed execution ledger of one planned job: filled by
/// the planning item, drained towards `remaining == 0` by the workers,
/// merged by `finish_job` on whichever worker resolves the last item.
#[derive(Default)]
struct ExecState {
    /// One entry per planned item position.
    slots: Vec<Slot>,
    /// Planned items not yet resolved.
    remaining: usize,
    /// Lowest-positioned item failure, if any — the typed error the whole
    /// job fails with at the finish. Sibling items still run to
    /// completion (journaling as usual), exactly as the pre-pool fan-out
    /// behaved.
    first_error: Option<(usize, JobError)>,
}

struct JobShared {
    id: u64,
    request: SearchRequest,
    /// Scheduling rank, fixed at submission (see [`SchedPolicy`]); aged
    /// by the ready queue while entries wait.
    rank: JobRank,
    /// Resolved worker cap: `min(request.max_parallelism, service budget)`.
    max_par: usize,
    /// Work items of this job currently executing on workers; entries of
    /// a job at its `max_par` are ineligible for dispatch.
    inflight: AtomicUsize,
    /// User cancel and deadline expiry, checked by every running item
    /// once per step/sample, at every dispatch, and at the finish, which
    /// tells a deadline kill (→ [`JobStatus::Failed`]) from a user cancel
    /// (→ [`JobStatus::Cancelled`]).
    stop: StopWord,
    /// The service's ready queue, for re-enqueueing segment checkpoints
    /// and waking poppers on cancel.
    queue: Arc<ReadyQueue<QueueEntry>>,
    /// One live counter pair per network, in request order.
    progress: Vec<ProgressCounters>,
    /// The service's result cache, if one was configured.
    cache: Option<Arc<ResultCache>>,
    /// Per-job scheduler/cache counters.
    stats: JobCounters,
    /// The execution ledger; populated by the planning item.
    exec: Mutex<ExecState>,
    state: Mutex<JobState>,
    done: Condvar,
}

impl JobShared {
    fn empty_results(&self) -> BatchResult {
        BatchResult {
            networks: self
                .request
                .networks()
                .iter()
                .map(|n| NetworkResult {
                    network: n.name.clone(),
                    result: SearchResult::empty(),
                })
                .collect(),
            degraded: false,
        }
    }
}

/// Handle to a submitted job. Cheap to clone; all clones observe the same
/// job. Dropping every handle does **not** cancel the job.
#[derive(Clone)]
pub struct JobHandle {
    job: Arc<JobShared>,
}

impl JobHandle {
    /// Service-unique id of this job (submission order).
    pub fn id(&self) -> u64 {
        self.job.id
    }

    /// Current lifecycle state (non-blocking).
    pub fn status(&self) -> JobStatus {
        fault::lock(&self.job.state).status
    }

    /// Why the job failed, when [`status()`](JobHandle::status) is
    /// [`JobStatus::Failed`] (non-blocking; `None` in every other
    /// state). The same error is returned by [`wait()`](JobHandle::wait).
    pub fn error(&self) -> Option<JobError> {
        fault::lock(&self.job.state).error.clone()
    }

    /// Live per-network progress (non-blocking): sample totals and
    /// best-so-far EDP drawn from the descents' lock-free counters.
    /// Successive snapshots are monotone — samples never decrease and
    /// `best_edp` never increases.
    pub fn progress(&self) -> JobProgress {
        // Read the status *before* the counters: if it is terminal, all
        // workers have stopped and the counters read below are final, so
        // a terminal-labeled snapshot never underreports. (The other
        // direction — a `Running` snapshot carrying slightly newer
        // counters — is harmless and still monotone.)
        let status = self.status();
        let networks = self
            .job
            .request
            .networks()
            .iter()
            .zip(&self.job.progress)
            .map(|(net, counters)| {
                let (samples, best_edp) = counters.snapshot();
                NetworkProgress {
                    network: net.name.clone(),
                    samples,
                    best_edp,
                }
            })
            .collect();
        JobProgress { status, networks }
    }

    /// Request cooperative cancellation. A queued job completes
    /// immediately with empty results; a running job stops issuing
    /// gradient steps at the next step boundary, its queued work items
    /// resolve as fast no-ops as workers pick them up (freeing capacity
    /// for the other jobs on the service), and it keeps its partial
    /// (still monotone) per-network results. On a running job, a cancel
    /// that arrives after a [`DeadlinePolicy::Kill`] deadline has passed
    /// does not override it: the job still fails with
    /// [`JobError::DeadlineExceeded`]. Idempotent;
    /// never blocks on the descent itself.
    pub fn cancel(&self) {
        self.job.stop.cancel();
        // Wake idle workers so the cancelled job's items drain promptly.
        self.job.queue.wake();
        let mut state = fault::lock(&self.job.state);
        if state.status == JobStatus::Queued {
            state.status = JobStatus::Cancelled;
            state.results = Some(self.job.empty_results());
            self.job.done.notify_all();
        }
    }

    /// Per-job scheduler and cache counters (non-blocking): how many work
    /// items this job planned, how many were replayed from the service's
    /// [`ResultCache`] versus run on the pool, how many executable
    /// dispatches (GD segments, random designs, BB-BO networks) actually
    /// ran, and the longest any of its queue entries waited for a worker. Counters are final once
    /// [`status()`](JobHandle::status) is terminal.
    pub fn stats(&self) -> JobStats {
        self.job.stats.snapshot()
    }

    /// Block until the job reaches a terminal state. Completed jobs
    /// return their full results (flagged [`BatchResult::degraded`] if a
    /// [`DeadlinePolicy::Degrade`] deadline expired mid-run), cancelled
    /// jobs their partial results; a [`JobStatus::Failed`] job returns
    /// its typed [`JobError`] instead.
    ///
    /// Total: never panics, even if planning or merging died — such a
    /// defect surfaces as [`JobError::RunnerPanic`], and a terminal job
    /// that somehow stored no results reports
    /// [`JobError::ResultsUnavailable`].
    pub fn wait(&self) -> Result<BatchResult, JobError> {
        let mut state = fault::lock(&self.job.state);
        while !state.status.is_terminal() {
            state = fault::wait(&self.job.done, state);
        }
        if state.status == JobStatus::Failed {
            return Err(state.error.clone().unwrap_or(JobError::ResultsUnavailable));
        }
        state.results.clone().ok_or(JobError::ResultsUnavailable)
    }
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.job.id)
            .field("status", &self.status())
            .finish()
    }
}

/// The resumable descent state of one GD work item.
enum GdItemState {
    /// Not started: the planned start point (skippable under
    /// [`DeadlinePolicy::Degrade`]).
    Fresh(StartPoint),
    /// Mid-descent: the checkpoint of a yielded segment; morally in
    /// flight, so a degrade deadline lets it finish bit-exactly.
    Resumed(Box<DescentState>),
}

/// What one dispatched queue entry does.
enum WorkItem {
    /// Plan the job on a worker: generate its per-network work items,
    /// consult the result cache, and enqueue the misses.
    Plan,
    /// Run one planned work item (one segment of it, for a segmented
    /// descent).
    Run(Work),
}

/// One planned work item. `pos` is its planned position across the whole
/// batch — the coordinate its result lands at, the index fault plans
/// address, and the `item` a typed [`JobError`] reports.
struct Work {
    pos: usize,
    net_index: usize,
    /// Result-cache key, when the job has a cache and the item is
    /// cacheable.
    key: Option<CacheKey>,
    task: Task,
}

/// The strategy-specific part of a [`Work`] item.
enum Task {
    /// One (network, start point) gradient descent, run in bounded
    /// segments when [`GdConfig::segment_steps`] is set.
    Gd {
        start_index: usize,
        cfg: GdConfig,
        state: GdItemState,
    },
    /// One (network, hardware design) random search.
    Random {
        design: RandomDesign,
        samples_per_hw: usize,
    },
    /// One network's whole BB-BO loop, run inline on its worker
    /// (`pos == net_index`: exactly one item per network).
    Bayes { cfg: BbboConfig },
}

/// One entry of the service's ready queue: the owning job plus what to do.
struct QueueEntry {
    job: Arc<JobShared>,
    item: WorkItem,
}

impl Schedulable for QueueEntry {
    fn rank(&self) -> JobRank {
        self.job.rank
    }

    fn eligible(&self) -> bool {
        self.job.inflight.load(Ordering::Relaxed) < self.job.max_par
    }

    fn on_dispatch(&self, wait: u64) {
        self.job.inflight.fetch_add(1, Ordering::Relaxed);
        self.job
            .stats
            .max_queue_wait
            .fetch_max(wait, Ordering::Relaxed);
    }
}

struct ServiceShared {
    /// The ready queue the persistent workers pull from.
    queue: Arc<ReadyQueue<QueueEntry>>,
    threads: usize,
    /// The service's result cache, consulted per work item when present.
    cache: Option<Arc<ResultCache>>,
    next_id: AtomicU64,
    /// Jobs submitted and not yet retired, so `Drop` can cancel them.
    live: Mutex<Vec<Arc<JobShared>>>,
    /// The persistent workers (plus any respawned replacements).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Builder for [`SearchService`]; see [`SearchService::builder`].
#[derive(Debug, Clone, Default)]
pub struct SearchServiceBuilder {
    threads: Option<usize>,
    cache: Option<Arc<ResultCache>>,
}

impl SearchServiceBuilder {
    /// Worker budget of the service (default: all cores). Exactly this
    /// many persistent worker threads are spawned at construction; at
    /// most this many work items execute at any instant across **all**
    /// concurrently running jobs, so a budget of 1 degenerates to one
    /// item — and, under the default policy, one job — at a time. The
    /// budget is owned by this service instance, so services with
    /// different budgets coexist in one process. Results are
    /// bit-identical for every budget.
    pub fn threads(mut self, n: usize) -> SearchServiceBuilder {
        self.threads = Some(n.max(1));
        self
    }

    /// Attach a content-addressed [`ResultCache`] (default: none). The
    /// service consults it per work item during planning and journals
    /// completed items into it; sharing one cache across services (or
    /// across a service's lifetime) is what makes checkpoint/resume work.
    /// Attaching a cache never changes any result bit — see the module
    /// docs.
    pub fn cache(mut self, cache: Arc<ResultCache>) -> SearchServiceBuilder {
        self.cache = Some(cache);
        self
    }

    /// Spawn the service's persistent workers and return the service.
    pub fn build(self) -> SearchService {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let shared = Arc::new(ServiceShared {
            queue: Arc::new(ReadyQueue::new()),
            threads,
            cache: self.cache,
            next_id: AtomicU64::new(0),
            live: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
        });
        let workers = (0..threads)
            .map(|_| spawn_worker(Arc::clone(&shared)))
            .collect();
        *fault::lock(&shared.workers) = workers;
        SearchService { shared }
    }
}

/// An async search-job service: submit [`SearchRequest`]s, observe and
/// cancel them through [`JobHandle`]s. Jobs run **concurrently** on one
/// persistent, capacity-bounded worker pool under each request's
/// [`SchedPolicy`]; see the [module docs](self) for the execution,
/// scheduling, determinism, and cancellation contracts.
///
/// Dropping the service requests cancellation of the in-flight jobs,
/// fails the queued ones over to [`JobStatus::Cancelled`] with empty
/// results, and joins the workers — keep the service alive until the
/// jobs you care about have been waited on.
pub struct SearchService {
    shared: Arc<ServiceShared>,
}

impl SearchService {
    /// Start configuring a service.
    pub fn builder() -> SearchServiceBuilder {
        SearchServiceBuilder::default()
    }

    /// This service's worker budget (the size of its persistent pool).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// The service's result cache, if one was attached at build time.
    pub fn cache(&self) -> Option<&Arc<ResultCache>> {
        self.shared.cache.as_ref()
    }

    /// Validate `request` and enqueue its planning item, returning a
    /// handle immediately. Workers dispatch queued work in aged
    /// [`SchedPolicy`] rank order as they free up, so several jobs make
    /// progress at once.
    pub fn submit(&self, request: SearchRequest) -> Result<JobHandle, ConfigError> {
        request.validate()?;
        let job = self.new_job(request);
        let handle = JobHandle {
            job: Arc::clone(&job),
        };
        fault::lock(&self.shared.live).push(Arc::clone(&job));
        self.shared.queue.push(QueueEntry {
            job,
            item: WorkItem::Plan,
        });
        Ok(handle)
    }

    /// A new `Queued` job of a validated `request`, neither on the ready
    /// queue nor on the live list yet.
    fn new_job(&self, request: SearchRequest) -> Arc<JobShared> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let rank = JobRank::new(request.policy(), request.estimated_samples(), id);
        let max_par = request
            .max_parallelism()
            .unwrap_or(self.shared.threads)
            .min(self.shared.threads)
            .max(1);
        let progress = request
            .networks()
            .iter()
            .map(|_| ProgressCounters::new())
            .collect();
        let stop = StopWord::new(request.deadline(), request.deadline_policy());
        Arc::new(JobShared {
            id,
            request,
            rank,
            max_par,
            inflight: AtomicUsize::new(0),
            stop,
            queue: Arc::clone(&self.shared.queue),
            progress,
            cache: self.shared.cache.clone(),
            stats: JobCounters::default(),
            exec: Mutex::new(ExecState::default()),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                results: None,
                error: None,
            }),
            done: Condvar::new(),
        })
    }
}

/// The body of every blocking shim ([`dosa_search`](crate::dosa_search),
/// [`dosa_search_rtl`](crate::dosa_search_rtl),
/// [`random_search`](crate::random_search),
/// [`bayesian_search`](crate::bayesian_search)): submit one
/// single-network `request` to `service` and wait. Panics with
/// `"invalid {label}: …"` on a rejected request and
/// `"search job failed: …"` on a failed job.
pub(crate) fn run_blocking(
    service: &SearchService,
    request: SearchRequest,
    label: &str,
) -> SearchResult {
    let handle = match service.submit(request) {
        Ok(handle) => handle,
        // dosa-lint: allow(panic-perimeter) — documented perimeter of the
        // one-call convenience entrypoints; callers wanting typed errors use
        // `SearchService::submit` + `wait` directly.
        Err(e) => panic!("invalid {label}: {e}"),
    };
    handle
        .wait()
        // dosa-lint: allow(panic-perimeter) — same convenience-entrypoint
        // perimeter: the service path surfaces this as a typed JobError.
        .unwrap_or_else(|err| panic!("search job failed: {err}"))
        .into_single()
}

impl Drop for SearchService {
    fn drop(&mut self) {
        // Cancel every live job first: queued jobs retire immediately
        // with empty results, and the cancel flag turns the remaining
        // queue entries into fast no-ops the draining workers flush.
        let live: Vec<Arc<JobShared>> = fault::lock(&self.shared.live).clone();
        for job in live {
            JobHandle { job }.cancel();
        }
        self.shared.queue.shutdown();
        // Join until the ledger stays empty: a worker dying mid-drain
        // respawns a replacement that must be joined too.
        loop {
            let workers = std::mem::take(&mut *fault::lock(&self.shared.workers));
            if workers.is_empty() {
                break;
            }
            for worker in workers {
                let _ = worker.join();
            }
        }
    }
}

/// Spawn one persistent worker on the service's ready queue.
fn spawn_worker(shared: Arc<ServiceShared>) -> JoinHandle<()> {
    std::thread::spawn(move || worker_loop(shared))
}

/// Self-healing for the pool: work items run inside their own unwind
/// boundary, so a panic normally fails only its job — but if a defect
/// ever escapes that boundary and kills a worker, the dying worker's
/// drop guard respawns a replacement so the service never silently
/// loses capacity.
struct RespawnGuard {
    shared: Arc<ServiceShared>,
}

impl Drop for RespawnGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let handle = spawn_worker(Arc::clone(&self.shared));
            fault::lock(&self.shared.workers).push(handle);
        }
    }
}

/// One persistent worker: pop the best-ranked eligible entry, run it,
/// release the job's in-flight slot, repeat — until the queue shuts down
/// and drains (entries of cancelled jobs still flow through their normal
/// resolution path, as fast no-ops).
fn worker_loop(shared: Arc<ServiceShared>) {
    let _respawn = RespawnGuard {
        shared: Arc::clone(&shared),
    };
    while let Some(QueueEntry { job, item }) = shared.queue.pop() {
        match item {
            WorkItem::Plan => run_plan(&shared, &job),
            WorkItem::Run(work) => run_work(&shared, &job, work),
        }
        job.inflight.fetch_sub(1, Ordering::Relaxed);
        // The job dropped below its parallelism cap: its queued entries
        // may be eligible now.
        shared.queue.wake();
    }
}

/// One item slot of a job's ledger: `None` until the item resolves, then
/// `(net_index, outcome)` where a `None` outcome marks an item a
/// [`DeadlinePolicy::Degrade`] deadline skipped. With a cache, the result
/// is the same `Arc` as the entry it was replayed from or journaled to.
type Slot = Option<(usize, Option<Arc<SearchResult>>)>;

/// The plan of one job: pre-resolved (cache-replayed) item slots and the
/// miss items to enqueue.
#[derive(Default)]
struct JobPlan {
    slots: Vec<Slot>,
    misses: Vec<Work>,
}

impl JobPlan {
    /// Plan one network's items from their keys alone: consult the cache
    /// once per key, in plan order, land each hit in its slot, and reserve
    /// a slot per miss. Only if an item missed does `tasks` run; it yields
    /// every item's task in plan order, and each miss takes its own, so a
    /// miss runs the same task whichever of its siblings hit.
    fn network<T: IntoIterator<Item = Task>>(
        &mut self,
        job: &JobShared,
        net_index: usize,
        keys: impl IntoIterator<Item = Option<CacheKey>>,
        tasks: impl FnOnce() -> T,
    ) {
        let base = self.slots.len();
        let mut missed: Vec<(usize, Option<CacheKey>)> = Vec::new();
        for (index, key) in keys.into_iter().enumerate() {
            match consult_cache(job, key.as_ref()) {
                Some(result) => {
                    replay_hit(job, net_index, &result);
                    self.slots.push(Some((net_index, Some(result))));
                }
                None => {
                    self.slots.push(None);
                    missed.push((index, key));
                }
            }
        }
        if missed.is_empty() {
            return;
        }
        let mut missed = missed.into_iter().peekable();
        for (index, task) in tasks().into_iter().enumerate() {
            if let Some((_, key)) = missed.next_if(|(i, _)| *i == index) {
                self.misses.push(Work {
                    pos: base + index,
                    net_index,
                    key,
                    task,
                });
            }
        }
        debug_assert!(missed.next().is_none(), "every missed item gets a task");
    }
}

/// The planning item: transition the job to `Running` (unless it was
/// cancelled while queued), generate its work items, replay cache hits,
/// and enqueue the misses. Results and terminal status of the *previous*
/// job are always published before this dispatches on a single-worker
/// service — the finish runs inline on the worker — which is what keeps
/// one-slot execution strictly FIFO.
fn run_plan(shared: &Arc<ServiceShared>, job: &Arc<JobShared>) {
    let admitted = {
        let mut state = fault::lock(&job.state);
        if state.status.is_terminal() {
            false
        } else {
            state.status = JobStatus::Running;
            true
        }
    };
    if !admitted {
        // Cancelled while queued: the handle already stored its empty
        // results; just retire the bookkeeping.
        retire_job(shared, job);
        return;
    }
    // Planning runs arbitrary strategy code (start-point generation, the
    // cache): contain it so a defect fails only this job, typed, instead
    // of killing the worker.
    match catch_unwind(AssertUnwindSafe(|| plan_job(job))) {
        Err(payload) => {
            record_item_error(
                job,
                0,
                JobError::RunnerPanic {
                    payload: payload_string(payload),
                },
            );
            finish_job(shared, job);
        }
        Ok(plan) => {
            // Commit the ledger before enqueueing anything: another
            // worker may pop and resolve a miss immediately.
            let fully_resolved = {
                let mut exec = fault::lock(&job.exec);
                exec.slots = plan.slots;
                exec.remaining = plan.misses.len();
                plan.misses.is_empty()
            };
            if fully_resolved {
                finish_job(shared, job);
            } else {
                job.queue
                    .push_all(plan.misses.into_iter().map(|work| QueueEntry {
                        job: Arc::clone(job),
                        item: WorkItem::Run(work),
                    }));
            }
        }
    }
}

/// Plan one job, network by network in request order: build each item's
/// key, consult the result cache, and generate work only for the misses.
/// Hits land directly at their planned positions and never enter the
/// queue; reassembling by position keeps the demultiplexed per-network
/// order — and therefore every merged result bit — identical to a cold
/// run regardless of which items hit.
fn plan_job(job: &JobShared) -> JobPlan {
    let mut plan = JobPlan::default();
    for net_index in 0..job.request.networks().len() {
        match job.request.strategy() {
            Strategy::GradientDescent(cfg) => plan_gd(job, net_index, cfg, &mut plan),
            Strategy::Random(cfg) => plan_random(job, net_index, cfg, &mut plan),
            Strategy::BayesOpt(cfg) => plan_bayes(job, net_index, cfg, &mut plan),
        }
    }
    job.stats
        .work_items
        .fetch_add(plan.slots.len(), Ordering::Relaxed);
    plan
}

/// Gradient-descent planning of one network: each start point is an
/// independent work item. The keys come from one fingerprint prefix per
/// network. Start points are generated only if an item misses, and then
/// as the whole sequence, from the network's seed under the §5.3.1
/// rejection rule, exactly as the blocking path does — bit-parity with
/// standalone runs hinges on it — so every miss starts where a cold run
/// would, whichever of its siblings hit. A full hit generates none.
fn plan_gd(job: &JobShared, net_index: usize, cfg: &GdConfig, plan: &mut JobPlan) {
    let request = &job.request;
    let (hier, layers) = (&request.hier, &request.networks()[net_index].layers);
    let mut cfg = *cfg;
    cfg.seed = request.network_seed(net_index);
    let prefix = job
        .cache
        .as_ref()
        .and_then(|_| cache::gd_key_prefix(hier, layers, &request.surrogate, &cfg));
    let keys = item_keys(prefix.as_ref(), cfg.start_points);
    plan.network(job, net_index, keys, || {
        let (_, opts) = build_surrogate(&request.surrogate, layers, hier, &cfg);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let starts = generate_start_points(
            &mut rng,
            layers,
            hier,
            &opts,
            cfg.start_points,
            cfg.rejection_factor,
        );
        starts
            .into_iter()
            .enumerate()
            .map(move |(start_index, start)| gd_task(start_index, start, cfg))
    });
}

/// The keys of one network's `count` items in plan order, or `count`
/// `None`s when the job has no cache (or the items have no stable key).
fn item_keys(
    prefix: Option<&KeyPrefix>,
    count: usize,
) -> impl Iterator<Item = Option<CacheKey>> + '_ {
    let mut keys = prefix.map(|p| p.item_keys(count));
    (0..count).map(move |_| keys.as_mut().and_then(Iterator::next))
}

/// A not-yet-started descent from start point `start_index`.
fn gd_task(start_index: usize, start: StartPoint, cfg: GdConfig) -> Task {
    Task::Gd {
        start_index,
        cfg,
        state: GdItemState::Fresh(start),
    }
}

/// Random-search planning of one network: each hardware design is one
/// work item searched by its own RNG stream. The designs are drawn
/// sequentially from the network's seed, only if an item misses.
fn plan_random(job: &JobShared, net_index: usize, cfg: &RandomSearchConfig, plan: &mut JobPlan) {
    let request = &job.request;
    let layers = &request.networks()[net_index].layers;
    let mut cfg = *cfg;
    cfg.seed = request.network_seed(net_index);
    let prefix = job
        .cache
        .as_ref()
        .map(|_| cache::random_key_prefix(&request.hier, layers, &cfg));
    let keys = item_keys(prefix.as_ref(), cfg.num_hw);
    plan.network(job, net_index, keys, || {
        plan_random_designs(&cfg)
            .into_iter()
            .map(move |design| Task::Random {
                design,
                samples_per_hw: cfg.samples_per_hw,
            })
    });
}

/// BB-BO planning of one network: the cacheable unit — and the work item
/// — is the whole network (every GP step conditions on all previous
/// observations), so one item per network, at `pos == net_index`.
/// Networks of one batch may run concurrently on the pool (each is
/// independently seeded, so every result is bit-identical to the
/// sequential order the pre-pool service used); the GP loop *within* a
/// network stays sequential on its worker.
fn plan_bayes(job: &JobShared, net_index: usize, cfg: &BbboConfig, plan: &mut JobPlan) {
    let request = &job.request;
    let mut cfg = *cfg;
    cfg.seed = request.network_seed(net_index);
    let key = job.cache.as_ref().map(|_| {
        cache::bayes_network_key(&request.hier, &request.networks()[net_index].layers, &cfg)
    });
    plan.network(job, net_index, [key], || [Task::Bayes { cfg }]);
}

/// What one work-item dispatch produced.
enum SegmentOutcome {
    /// The item ran to its budget (or its cancel boundary).
    Finished(SearchResult),
    /// A GD segment budget expired with steps remaining: re-enqueue the
    /// task, which now carries the checkpoint.
    Yielded(Task),
    /// A rounding checkpoint's reference EDP went NaN at this step.
    NonFinite(usize),
}

/// One work-item dispatch, whatever the strategy: evaluate the deadline,
/// skip the item if a `Degrade` deadline halted the job before it took a
/// step, otherwise run its task inside the item's unwind boundary and
/// either resolve the item, re-enqueue its checkpoint, or record its
/// typed failure.
fn run_work(shared: &Arc<ServiceShared>, job: &Arc<JobShared>, work: Work) {
    let Work {
        pos,
        net_index,
        key,
        task,
    } = work;
    job.stop.poll_deadline();
    // Degrade skips only items that have not taken a single step; a
    // checkpointed item is in flight and finishes bit-exactly, which is
    // what keeps the merged history a bitwise prefix of the full run.
    let started = matches!(
        task,
        Task::Gd {
            state: GdItemState::Resumed(_),
            ..
        }
    );
    if job.stop.halted() && !started {
        resolve_item(shared, job, pos, net_index, None);
        return;
    }
    job.stats.segments_run.fetch_add(1, Ordering::Relaxed);
    let err = match catch_unwind(AssertUnwindSafe(|| run_task(job, pos, net_index, task))) {
        Ok(SegmentOutcome::Finished(result)) => {
            // Journal only an item that completed un-cancelled: a partial
            // result must never be replayable.
            let result = Arc::new(result);
            if !job.stop.stopping() {
                if let (Some(cache), Some(key)) = (&job.cache, key) {
                    cache.journal(key, Arc::clone(&result));
                }
            }
            resolve_item(shared, job, pos, net_index, Some(result));
            return;
        }
        Ok(SegmentOutcome::Yielded(task)) => {
            let work = Work {
                pos,
                net_index,
                key,
                task,
            };
            job.queue.push(QueueEntry {
                job: Arc::clone(job),
                item: WorkItem::Run(work),
            });
            return;
        }
        Ok(SegmentOutcome::NonFinite(step)) => JobError::NonFiniteLoss { item: pos, step },
        Err(payload) => JobError::WorkerPanic {
            item: pos,
            payload: payload_string(payload),
        },
    };
    record_item_error(job, pos, err);
    resolve_item(shared, job, pos, net_index, None);
}

/// Run one task on this worker: apply the item's injected fault, then the
/// strategy's body. Random designs and BB-BO networks always finish in
/// one dispatch.
fn run_task(job: &JobShared, pos: usize, net_index: usize, task: Task) -> SegmentOutcome {
    let mut ctrl = network_ctrl(job, net_index);
    ctrl.force_non_finite = apply_fault(job, pos);
    let layers = &job.request.networks()[net_index].layers;
    let hier = &job.request.hier;
    match task {
        Task::Gd {
            start_index,
            cfg,
            state,
        } => run_gd_segment(job, layers, start_index, cfg, state, ctrl),
        Task::Random {
            design,
            samples_per_hw,
        } => SegmentOutcome::Finished(run_random_design(
            layers,
            hier,
            &design,
            samples_per_hw,
            ctrl,
        )),
        Task::Bayes { cfg } => {
            SegmentOutcome::Finished(run_bayesian_search(layers, hier, &cfg, ctrl))
        }
    }
}

/// One GD dispatch: run one segment (the whole descent when
/// [`GdConfig::segment_steps`] is `None`). The surrogate is rebuilt per
/// dispatch from the request — cheap, and bit-exact because the
/// checkpoint carries every stateful part of the descent.
fn run_gd_segment(
    job: &JobShared,
    layers: &[Layer],
    start_index: usize,
    cfg: GdConfig,
    state: GdItemState,
    ctrl: StartControl<'_>,
) -> SegmentOutcome {
    let (loss, _) = build_surrogate(&job.request.surrogate, layers, &job.request.hier, &cfg);
    let mut descent = match state {
        GdItemState::Fresh(start) => Box::new(DescentState::begin(
            &*loss,
            start.relaxed,
            start_index,
            &cfg,
        )),
        GdItemState::Resumed(checkpoint) => checkpoint,
    };
    let budget = cfg.segment_steps.unwrap_or(usize::MAX);
    match run_segment(&*loss, &mut descent, &cfg, ctrl, budget) {
        Ok(true) => SegmentOutcome::Finished(descent.into_result()),
        Ok(false) => SegmentOutcome::Yielded(Task::Gd {
            start_index,
            cfg,
            state: GdItemState::Resumed(descent),
        }),
        Err(nf) => SegmentOutcome::NonFinite(nf.step),
    }
}

/// Record one item's typed failure; when several items fail, the lowest
/// planned position wins deterministically (completion order cannot
/// change which error the job reports).
fn record_item_error(job: &JobShared, pos: usize, err: JobError) {
    let mut exec = fault::lock(&job.exec);
    if exec.first_error.as_ref().is_none_or(|(p, _)| pos < *p) {
        exec.first_error = Some((pos, err));
    }
}

/// Land one item's outcome at its planned position; the worker that
/// resolves the last outstanding item finishes the job inline — so on a
/// single-worker service the terminal transition always precedes the
/// next job's planning dispatch (strict FIFO).
fn resolve_item(
    shared: &Arc<ServiceShared>,
    job: &Arc<JobShared>,
    pos: usize,
    net_index: usize,
    outcome: Option<Arc<SearchResult>>,
) {
    let finished = {
        let mut exec = fault::lock(&job.exec);
        debug_assert!(exec.slots[pos].is_none(), "work item resolved twice");
        exec.slots[pos] = Some((net_index, outcome));
        exec.remaining -= 1;
        exec.remaining == 0
    };
    if finished {
        finish_job(shared, job);
    }
}

/// Merge the resolved items, decide the terminal state, publish it, and
/// retire the job's bookkeeping. The merge itself runs inside an unwind
/// boundary so a defect there fails this job typed instead of hanging
/// its waiters.
fn finish_job(shared: &Arc<ServiceShared>, job: &Arc<JobShared>) {
    // The deadline's last check point: a job still running when it passed
    // ends as its policy says, as if an item had caught it.
    job.stop.poll_deadline();
    let (slots, first_error) = {
        let mut exec = fault::lock(&job.exec);
        (std::mem::take(&mut exec.slots), exec.first_error.take())
    };
    let outcome: Result<BatchResult, JobError> = match first_error {
        Some((_, err)) => Err(err),
        None => catch_unwind(AssertUnwindSafe(|| {
            let per_item: Vec<(usize, Option<Arc<SearchResult>>)> = slots
                .into_iter()
                // dosa-lint: allow(panic-perimeter) — `remaining` hit zero,
                // so every planned item resolved (replayed, executed,
                // skipped, or errored — and errors took the branch above);
                // an unfilled slot is a scheduler bug, contained by the
                // surrounding unwind boundary as JobError::RunnerPanic.
                .map(|slot| slot.expect("every planned item resolves to an outcome"))
                .collect();
            let results = demux_merge(job.request.networks().len(), per_item);
            let networks = job
                .request
                .networks()
                .iter()
                .zip(results)
                .map(|(net, mut result)| {
                    result.record_final();
                    NetworkResult {
                        network: net.name.clone(),
                        result,
                    }
                })
                .collect();
            BatchResult {
                networks,
                degraded: job.stop.halted(),
            }
        }))
        .map_err(|payload| JobError::RunnerPanic {
            payload: payload_string(payload),
        }),
    };
    {
        let mut state = fault::lock(&job.state);
        if !state.status.is_terminal() {
            let (status, results, error) = match outcome {
                Err(err) => (JobStatus::Failed, None, Some(err)),
                Ok(_) if job.stop.killed() => {
                    (JobStatus::Failed, None, Some(JobError::DeadlineExceeded))
                }
                Ok(results) if job.stop.user_cancelled() => {
                    (JobStatus::Cancelled, Some(results), None)
                }
                Ok(results) => (JobStatus::Completed, Some(results), None),
            };
            state.status = status;
            state.results = results;
            state.error = error;
            job.done.notify_all();
        }
    }
    retire_job(shared, job);
}

/// Post-terminal bookkeeping: drop the job from the service's live list.
fn retire_job(shared: &Arc<ServiceShared>, job: &Arc<JobShared>) {
    fault::lock(&shared.live).retain(|j| j.id != job.id);
}

/// Build the surrogate for one network, returning the loss the
/// descents run on and the [`LossOptions`] its start-point generation
/// predicts with. The `Edp` and `PredictedLatency` arms mirror what the
/// blocking shims have always done, which is what keeps a batched
/// network's result bit-identical to a standalone run.
fn build_surrogate<'a>(
    surrogate: &'a Surrogate,
    layers: &'a [Layer],
    hier: &'a Hierarchy,
    cfg: &GdConfig,
) -> (Box<dyn DiffLoss + 'a>, LossOptions) {
    match surrogate {
        Surrogate::Edp => {
            let opts = LossOptions {
                fixed_pe_side: cfg.fixed_pe_side,
                softmax_ordering: cfg.strategy == LoopOrderStrategy::Softmax,
                ..LossOptions::default()
            };
            let loss = EdpLoss {
                layers,
                hier,
                opts,
                strategy: cfg.strategy,
                fixed_pe_side: cfg.fixed_pe_side,
                spatial_cap: cfg.fixed_pe_side.unwrap_or(MAX_PE_SIDE),
            };
            (Box::new(loss), opts)
        }
        Surrogate::PredictedLatency(predictor) => {
            let pe_side = cfg.fixed_pe_side.unwrap_or(16);
            let opts = LossOptions {
                fixed_pe_side: Some(pe_side),
                ..LossOptions::default()
            };
            let loss = PredictedLatencyLoss {
                layers,
                hier,
                predictor,
                pe_side,
            };
            (Box::new(loss), opts)
        }
    }
}

/// The per-network cancellation/progress control surface of `job`.
fn network_ctrl(job: &JobShared, net_index: usize) -> StartControl<'_> {
    StartControl {
        stop: &job.stop,
        progress: &job.progress[net_index],
        steps_recorded: &job.stats.gd_steps_recorded,
        force_non_finite: false,
    }
}

/// Apply the request's fault plan (if any) to the work item at planned
/// position `pos`, just before it runs: `Panic` unwinds (contained by
/// the item's unwind boundary and surfaced as [`JobError::WorkerPanic`]),
/// `Delay` sleeps to widen race/deadline windows, `NonFiniteLoss`
/// returns `true` to arm the descent's non-finite guard (a no-op for
/// black-box items, which have no gradient loss to poison).
fn apply_fault(job: &JobShared, pos: usize) -> bool {
    match job.request.fault_plan().and_then(|p| p.fault_at(pos)) {
        // dosa-lint: allow(panic-perimeter) — this panic IS the injected
        // fault: the item's unwind boundary catches it and the service
        // surfaces it as JobError::WorkerPanic, which is what the fault-
        // injection tests assert.
        Some(FaultKind::Panic) => panic!("injected fault: panic at work item {pos}"),
        Some(FaultKind::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Some(FaultKind::NonFiniteLoss) => true,
        None => false,
    }
}

/// Demultiplex position-indexed `(network, outcome)` items back into one
/// deterministically merged result per network. `None` outcomes are items
/// a [`DeadlinePolicy::Degrade`] deadline skipped before they started:
/// each network's item list is truncated at its first skip, so the merge
/// is over a plan-order **prefix** of the items — and because
/// [`merge_start_results`] is prefix-stable, the merged history is a
/// bitwise prefix of the uninterrupted run's. Items that completed
/// *after* a skipped sibling are deliberately dropped: which of them beat
/// the deadline depends on scheduling, and determinism outranks salvaging
/// them.
fn demux_merge(
    networks: usize,
    per_item: Vec<(usize, Option<Arc<SearchResult>>)>,
) -> Vec<SearchResult> {
    let mut per_network: Vec<Vec<Arc<SearchResult>>> = (0..networks).map(|_| Vec::new()).collect();
    let mut truncated: Vec<bool> = vec![false; networks];
    for (net_index, outcome) in per_item {
        match outcome {
            Some(result) if !truncated[net_index] => per_network[net_index].push(result),
            Some(_) => {}
            None => truncated[net_index] = true,
        }
    }
    per_network.into_iter().map(merge_start_results).collect()
}

/// Look one work item up in the job's cache (if any), keeping the
/// per-job hit/miss counters. `None` means the item must run on the
/// pool.
fn consult_cache(job: &JobShared, key: Option<&CacheKey>) -> Option<Arc<SearchResult>> {
    let cache = job.cache.as_ref()?;
    let found = key.and_then(|k| cache.lookup(k));
    let counter = if found.is_some() {
        &job.stats.cache_hits
    } else {
        &job.stats.cache_misses
    };
    counter.fetch_add(1, Ordering::Relaxed);
    found
}

/// Replay one cache hit: credit its samples and best EDP to the
/// network's live progress counters, exactly as running it would have.
fn replay_hit(job: &JobShared, net_index: usize, result: &SearchResult) {
    let ctrl = network_ctrl(job, net_index);
    ctrl.count_samples(result.samples);
    ctrl.observe_best(result.best_edp);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_workload::{Layer, Problem};

    fn tiny_request(seed: u64) -> SearchRequest {
        let layers = vec![Layer::once(Problem::matmul("m", 16, 32, 32).unwrap())];
        SearchRequest::builder(Hierarchy::gemmini())
            .network("m", layers)
            .config(GdConfig {
                start_points: 1,
                steps_per_start: 20,
                round_every: 10,
                seed,
                ..GdConfig::default()
            })
            .build()
    }

    #[test]
    fn submit_rejects_invalid_config_at_the_boundary() {
        let service = SearchService::builder().threads(1).build();
        let mut request = tiny_request(0);
        request.strategy = Strategy::GradientDescent(GdConfig {
            round_every: 0,
            ..GdConfig::default()
        });
        assert_eq!(
            service.submit(request.clone()).unwrap_err(),
            ConfigError::ZeroRoundEvery
        );
        // An out-of-range pinned PE side is rejected here instead of
        // panicking a worker at its first rounding.
        for side in [0, MAX_PE_SIDE + 1] {
            request.strategy = Strategy::GradientDescent(GdConfig {
                fixed_pe_side: Some(side),
                ..GdConfig::default()
            });
            assert_eq!(
                service.submit(request.clone()).unwrap_err(),
                ConfigError::BadPeSide(side)
            );
        }
    }

    #[test]
    fn submit_rejects_invalid_black_box_configs_at_the_boundary() {
        let service = SearchService::builder().threads(1).build();
        let mut request = tiny_request(0);
        request.strategy = Strategy::Random(RandomSearchConfig {
            samples_per_hw: 0,
            ..RandomSearchConfig::default()
        });
        assert_eq!(
            service.submit(request.clone()).unwrap_err(),
            ConfigError::ZeroSamplesPerHw
        );
        request.strategy = Strategy::BayesOpt(BbboConfig {
            init_random: 0,
            ..BbboConfig::default()
        });
        assert_eq!(
            service.submit(request).unwrap_err(),
            ConfigError::BadInitRandom {
                init_random: 0,
                num_hw: 100
            }
        );
    }

    #[test]
    fn submit_rejects_a_zero_parallelism_cap() {
        let service = SearchService::builder().threads(2).build();
        let mut request = tiny_request(0);
        request.max_parallelism = Some(0);
        assert_eq!(
            service.submit(request).unwrap_err(),
            ConfigError::ZeroParallelism
        );
    }

    #[test]
    fn concurrent_jobs_complete_with_distinct_ids() {
        let service = SearchService::builder().threads(2).build();
        let a = service.submit(tiny_request(1)).unwrap();
        let b = service.submit(tiny_request(2)).unwrap();
        assert_ne!(a.id(), b.id());
        let ra = a.wait().unwrap();
        let rb = b.wait().unwrap();
        assert_eq!(a.status(), JobStatus::Completed);
        assert_eq!(b.status(), JobStatus::Completed);
        assert!(ra.get("m").unwrap().best_edp.is_finite());
        assert!(rb.get("m").unwrap().best_edp.is_finite());
    }

    #[test]
    fn cancelling_a_queued_job_completes_it_empty() {
        let service = SearchService::builder().threads(1).build();
        // Enough submissions that the tail of the queue is still pending.
        let handles: Vec<JobHandle> = (0..6)
            .map(|s| service.submit(tiny_request(s)).unwrap())
            .collect();
        let last = handles.last().unwrap();
        last.cancel();
        let result = last.wait().unwrap();
        assert_eq!(last.status(), JobStatus::Cancelled);
        // Either it never ran (empty) or cancellation raced its planning
        // dispatch and it wound down early; both keep the result
        // well-formed.
        assert_eq!(result.networks.len(), 1);
        for h in &handles[..5] {
            h.wait().unwrap();
        }
    }

    #[test]
    fn dropping_the_service_retires_queued_jobs() {
        let service = SearchService::builder().threads(1).build();
        let handles: Vec<JobHandle> = (0..4)
            .map(|s| service.submit(tiny_request(s)).unwrap())
            .collect();
        drop(service);
        for h in &handles {
            let result = h.wait().unwrap(); // must not hang
            assert!(h.status().is_terminal());
            assert_eq!(result.networks.len(), 1);
        }
    }

    /// A deadline past the clock's range (`submitted + Duration::MAX`
    /// overflows) means "never": `submit()` neither panics nor rejects,
    /// and under either policy the job completes bit-identically to the
    /// same request without a deadline.
    #[test]
    fn a_duration_max_deadline_never_expires_and_changes_no_bit() {
        use crate::fault::DeadlinePolicy;
        use std::time::Duration;
        let service = SearchService::builder().threads(2).build();
        let plain = service
            .submit(tiny_request(3))
            .unwrap()
            .wait()
            .unwrap()
            .into_single();
        for policy in [DeadlinePolicy::Kill, DeadlinePolicy::Degrade] {
            let mut request = tiny_request(3);
            request.deadline = Some(Duration::MAX);
            request.deadline_policy = policy;
            let job = service.submit(request).unwrap();
            let batch = job.wait().unwrap();
            assert_eq!(job.status(), JobStatus::Completed, "{policy:?}");
            assert!(!batch.degraded, "{policy:?}");
            let result = batch.into_single();
            assert_eq!(result.best_edp.to_bits(), plain.best_edp.to_bits());
            assert_eq!(result.best_hw, plain.best_hw);
            assert_eq!(result.history, plain.history);
            assert_eq!(result.samples, plain.samples);
        }
    }

    #[test]
    fn default_policy_is_fifo_with_service_wide_parallelism() {
        use crate::sched::SchedPolicy;
        let request = tiny_request(0);
        assert_eq!(request.policy(), SchedPolicy::Fifo);
        assert_eq!(request.max_parallelism(), None);
    }

    /// The new [`JobStats`] counters: a segmented descent counts one
    /// `segments_run` per dispatch — `ceil(steps_per_start / k)` per
    /// start — and on a single worker a job's own items queue behind
    /// each other, so the deterministic dispatch order fixes
    /// `max_queue_wait` exactly. A BB-BO network is exactly one dispatch.
    #[test]
    fn segment_and_queue_wait_counters_are_observable() {
        let layers = vec![Layer::once(Problem::matmul("m", 16, 32, 32).unwrap())];
        let service = SearchService::builder().threads(1).build();
        let job = service
            .submit(
                SearchRequest::builder(Hierarchy::gemmini())
                    .network("m", layers)
                    .config(GdConfig {
                        start_points: 4,
                        steps_per_start: 20,
                        round_every: 10,
                        seed: 0,
                        segment_steps: Some(6),
                        ..GdConfig::default()
                    })
                    .build(),
            )
            .unwrap();
        job.wait().unwrap();
        let stats = job.stats();
        assert_eq!(stats.work_items, 4);
        // 20 steps in segments of 6: 6 + 6 + 6 + 2 → 4 dispatches each.
        assert_eq!(stats.segments_run, 4 * 4);
        // One worker, four items enqueued together: the last item in
        // plan order waits exactly 3 dispatches for its first segment,
        // and the round-robin of 4 re-enqueued checkpoints never waits
        // longer.
        assert_eq!(stats.max_queue_wait, 3);
        assert_eq!(stats.cache_hits + stats.cache_misses, 0);

        // A BB-BO network is one unsegmented item: one dispatch each.
        let net = |name| vec![Layer::once(Problem::matmul(name, 16, 32, 32).unwrap())];
        let bayes = SearchRequest::builder(Hierarchy::gemmini())
            .network("m", net("m"))
            .network("n", net("n"))
            .strategy(Strategy::BayesOpt(BbboConfig {
                num_hw: 3,
                init_random: 2,
                samples_per_hw: 4,
                candidates: 5,
                seed: 0,
            }))
            .build();
        let job = service.submit(bayes).unwrap();
        job.wait().unwrap();
        let stats = job.stats();
        assert_eq!(stats.work_items, 2);
        assert_eq!(stats.segments_run, 2, "one dispatch per BB-BO network");
    }

    /// Planning builds every key before any search work: a GD plan whose
    /// items all hit the cache draws no start point, while a plan without
    /// a cache draws every network's start points.
    #[test]
    fn a_full_gd_hit_plans_without_drawing_a_start_point() {
        let request = || {
            let net = |name| vec![Layer::once(Problem::matmul(name, 16, 32, 32).unwrap())];
            SearchRequest::builder(Hierarchy::gemmini())
                .network("m", net("m"))
                .network_seeded("n", net("n"), 9)
                .config(GdConfig {
                    start_points: 3,
                    steps_per_start: 20,
                    round_every: 10,
                    seed: 4,
                    ..GdConfig::default()
                })
                .build()
        };
        let drawn = || crate::startpoints::DRAWN.with(std::cell::Cell::get);
        let service = SearchService::builder()
            .threads(1)
            .cache(ResultCache::in_memory(64))
            .build();
        // The cold run plans and journals on the worker thread, so this
        // thread's count moves only with the plans below.
        service.submit(request()).unwrap().wait().unwrap();

        let before = drawn();
        let plan = plan_job(&service.new_job(request()));
        assert_eq!(drawn(), before, "a full hit must draw no start point");
        assert!(plan.misses.is_empty());
        assert_eq!(plan.slots.len(), 6);
        assert!(plan
            .slots
            .iter()
            .all(|slot| matches!(slot, Some((_, Some(_))))));

        let uncached = SearchService::builder().threads(1).build();
        let plan = plan_job(&uncached.new_job(request()));
        assert!(drawn() >= before + 6, "every miss needs its start point");
        assert_eq!(plan.misses.len(), 6);
    }
}
