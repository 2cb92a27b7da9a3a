//! # dosa-search
//!
//! The searchers of the DOSA paper — the differentiable one-loop gradient
//! descent *and* the black-box baselines it is compared against — served
//! through one job-oriented search service with a pluggable [`Strategy`].
//!
//! ## The service
//!
//! DOSA's headline results are comparisons: the one-loop co-search versus
//! random search and Bayesian optimization, across networks, surrogates
//! and loop-ordering strategies (§6.2–6.5). The public API therefore
//! treats the search algorithm as data: describe a job with the
//! [`SearchRequest`] builder (one network or a batch of named networks
//! plus a [`Strategy`] carrying the algorithm, budget and seed), submit
//! it to a [`SearchService`], and observe it through the returned
//! [`JobHandle`]:
//!
//! * [`JobHandle::status`] / [`JobHandle::progress`] — non-blocking
//!   lifecycle and live per-network best-EDP + sample counters,
//! * [`JobHandle::cancel`] — cooperative cancellation at the next
//!   gradient-step or mapping-sample boundary, keeping the partial (still
//!   monotone) results,
//! * [`JobHandle::wait`] — block for the per-network [`BatchResult`],
//!   or the typed [`JobError`] of a failed job.
//!
//! Work items are **fault-isolated**: a panicking or non-finite item
//! fails only its own job (terminal [`JobStatus::Failed`], error from
//! [`JobHandle::error`]) and every sibling job is bit-identical to an
//! uncontended run. A request may carry a deadline
//! ([`SearchRequestBuilder::deadline`]) with a [`DeadlinePolicy`]: `Kill`
//! fails the job at the deadline, `Degrade` returns the deterministic
//! merge of the work items that finished — a bitwise prefix of the
//! uninterrupted run — flagged [`BatchResult::degraded`]. See the
//! [`fault`] module and the [`service`] module docs.
//!
//! Invalid configurations are rejected at the service boundary with a
//! typed [`ConfigError`] ([`GdConfig::validate`],
//! [`RandomSearchConfig::validate`], [`BbboConfig::validate`]). The
//! worker-thread budget is **per service**
//! ([`SearchServiceBuilder::threads`]), so differently-sized services
//! coexist in one process.
//!
//! Jobs on one service run **concurrently**: every job's work items
//! interleave on the service's persistent worker pool (spawned once at
//! construction, never per job), and each request's [`SchedPolicy`]
//! (`Fifo` by default, `ShortestFirst`, or `Priority(u8)`) decides which
//! queued work item a free worker runs next — so a short gradient-descent
//! job completes while a long BB-BO job is still mid-flight instead of
//! queueing behind it. Ranks **age**: a waiting entry's effective
//! priority improves by one class per [`AGE_DISPATCH_PERIOD`] dispatches,
//! so `Priority` streams can delay `Fifo` traffic only for a bounded
//! number of dispatches, never starve it. A job can also cap its own
//! share of the pool with
//! [`SearchRequestBuilder::max_parallelism`]; a single-worker service
//! degenerates to strictly FIFO one-job-at-a-time execution.
//!
//! A batched request fans all networks' work items into one worker fleet
//! and demultiplexes per-network results on merge; every network's
//! result is **bit-identical** to a standalone submission with the same
//! seed, for any thread budget, batch composition, scheduling policy and
//! concurrent-job interleaving (see the [`service`] module docs for the
//! exact contract, and the repository's top-level `ARCHITECTURE.md` for
//! the crate map and the full request → validate → schedule → fan-out →
//! merge lifecycle).
//!
//! A service may also carry a content-addressed [`ResultCache`]
//! ([`SearchServiceBuilder::cache`]): completed work items are journaled
//! under fingerprints of everything their results depend on, identical
//! work later replays from the store instead of re-running (including
//! the remainder-only re-run of a cancelled job resubmitted identically
//! — checkpoint/resume). Results with the cache enabled are
//! bit-identical to a cold run; see the [`cache`] module docs.
//!
//! ## Search strategies
//!
//! [`Strategy`] selects the algorithm a job runs; all three share the
//! request lifecycle above, so the paper's baseline comparison (Fig. 7)
//! is three concurrent submissions to one service instead of three
//! hand-rolled loops.
//!
//! ### Gradient descent (the default)
//!
//! DOSA's one-loop mapping-first co-search (§3.2, §5): start points fan
//! out across the fleet, each descending the request's [`Surrogate`].
//!
//! ```
//! use dosa_search::{GdConfig, SearchRequest, SearchService, Strategy};
//! use dosa_accel::Hierarchy;
//! use dosa_workload::{Layer, Problem};
//!
//! let layers = vec![Layer::once(Problem::matmul("m", 8, 32, 32)?)];
//! let service = SearchService::builder().threads(2).build();
//! let job = service.submit(
//!     SearchRequest::builder(Hierarchy::gemmini())
//!         .network("gemm", layers)
//!         .strategy(Strategy::GradientDescent(GdConfig {
//!             start_points: 1, steps_per_start: 6, round_every: 3,
//!             ..GdConfig::default()
//!         }))
//!         .build(),
//! )?;
//! assert!(job.wait()?.into_single().best_edp.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ### Random search
//!
//! The §6.1 baseline (10 hardware designs × 1000 joint mapping samples):
//! designs fan out across the fleet, each searched by a private RNG
//! stream derived from the seed.
//!
//! ```
//! use dosa_search::{RandomSearchConfig, SearchRequest, SearchService, Strategy};
//! use dosa_accel::Hierarchy;
//! use dosa_workload::{Layer, Problem};
//!
//! let layers = vec![Layer::once(Problem::matmul("m", 8, 32, 32)?)];
//! let service = SearchService::builder().threads(2).build();
//! let job = service.submit(
//!     SearchRequest::builder(Hierarchy::gemmini())
//!         .network("gemm", layers)
//!         .strategy(Strategy::Random(RandomSearchConfig {
//!             num_hw: 2, samples_per_hw: 10, seed: 0,
//!         }))
//!         .build(),
//! )?;
//! let result = job.wait()?.into_single();
//! assert_eq!(result.samples, 2 * 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ### Bayesian optimization (BB-BO)
//!
//! The Spotlight-style two-loop baseline: a sequential, seed-deterministic
//! outer Gaussian-process loop over an inner random mapper, run as one
//! work item per network.
//!
//! ```
//! use dosa_search::{BbboConfig, SearchRequest, SearchService, Strategy};
//! use dosa_accel::Hierarchy;
//! use dosa_workload::{Layer, Problem};
//!
//! let layers = vec![Layer::once(Problem::matmul("m", 8, 32, 32)?)];
//! let service = SearchService::builder().threads(2).build();
//! let job = service.submit(
//!     SearchRequest::builder(Hierarchy::gemmini())
//!         .network("gemm", layers)
//!         .strategy(Strategy::BayesOpt(BbboConfig {
//!             num_hw: 3, init_random: 2, samples_per_hw: 6, candidates: 10, seed: 0,
//!         }))
//!         .build(),
//! )?;
//! assert!(job.wait()?.into_single().best_edp.is_finite());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## The engine
//!
//! Underneath the gradient-descent strategy, one optimization loop — Adam
//! over all layers' log tiling factors, each step's loss recorded once
//! and replayed on later steps ([`ProgramCache`]), periodic rounding to
//! valid integer mappings (§5.3.2), and per-sample accounting — descends
//! whatever differentiable surrogate a [`DiffLoss`] provides:
//!
//! * [`EdpLoss`] — the plain differentiable-EDP loss of §5, including the
//!   Baseline / Iterate / Softmax loop-ordering strategies of Figure 6
//!   ([`Surrogate::Edp`]),
//! * [`PredictedLatencyLoss`] — the §6.5 surrogate whose latency term runs
//!   through an analytical, DNN-only, or DNN-corrected
//!   [`LatencyPredictor`] ([`Surrogate::PredictedLatency`]), plugged into
//!   the same loss builder as a per-layer latency hook
//!   ([`build_loss_with`](dosa_model::build_loss_with)).
//!
//! ## Blocking shims
//!
//! Every strategy keeps a blocking free function that submits one
//! single-network job to the [`SearchService`] it is given and waits:
//!
//! * [`dosa_search`] — [`Strategy::GradientDescent`] with
//!   [`Surrogate::Edp`],
//! * [`dosa_search_rtl`] — the fixed-PE real-hardware flow of §6.5 over
//!   [`Surrogate::PredictedLatency`],
//! * [`random_search`] — [`Strategy::Random`],
//! * [`bayesian_search`] — [`Strategy::BayesOpt`],
//! * plus the CoSA-substitute constrained mapper ([`cosa_mapping`]) used
//!   for start points and as the constant mapper of §6.4.

#![warn(missing_docs)]

mod bbbo;
pub mod cache;
mod cosa;
pub mod engine;
pub mod fault;
mod gd;
mod gp;
mod latency_model;
mod random_search;
mod request;
mod sched;
pub mod service;
mod startpoints;
mod strategy;

pub use bbbo::{bayesian_search, BbboConfig};
pub use cache::{ResultCache, ResultCacheStats};
pub use cosa::cosa_mapping;
pub use dosa_autodiff::Adam;
pub use engine::{DiffLoss, EdpLoss, PredictedLatencyLoss, ProgramCache, PROGRAM_SLOTS};
pub use fault::{DeadlinePolicy, FaultKind, FaultPlan, JobError};
pub use gd::{
    choose_best_orderings, dosa_search, GdConfig, LoopOrderStrategy, SearchPoint, SearchResult,
};
pub use gp::{EiScorer, GaussianProcess};
pub use latency_model::{
    dosa_search_rtl, evaluate_rtl, features, generate_rtl_dataset, LatencyModelKind,
    LatencyPredictor, RtlDataset, RtlSample, NUM_FEATURES,
};
pub use random_search::{
    evaluate_with_cosa, evaluate_with_random_mapper, random_search, RandomSearchConfig,
};
pub use request::{ConfigError, NetworkSpec, SearchRequest, SearchRequestBuilder, Surrogate};
pub use sched::{SchedPolicy, AGE_DISPATCH_PERIOD};
pub use service::{
    BatchResult, JobHandle, JobProgress, JobStats, JobStatus, NetworkProgress, NetworkResult,
    SearchService, SearchServiceBuilder,
};
pub use startpoints::{generate_start_point, generate_start_points, random_hw, StartPoint};
pub use strategy::Strategy;
