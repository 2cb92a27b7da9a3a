//! # dosa
//!
//! A from-scratch Rust reproduction of *DOSA: Differentiable Model-Based
//! One-Loop Search for DNN Accelerators* (MICRO 2023), including every
//! substrate the paper depends on: a Timeloop-style reference analytical
//! model, an Accelergy-style energy model, a tape-based autodiff engine, a
//! Gemmini-RTL cycle-approximate simulator, a CoSA-substitute mapper, the
//! learned latency-correction MLP, and the random / Bayesian-optimization
//! baseline searchers.
//!
//! This facade crate re-exports the workspace members under stable paths:
//!
//! * [`workload`] — layer shapes and the Table 6 networks,
//! * [`accel`] — hardware configurations, hierarchy and energy model,
//! * [`timeloop`] — the reference analytical model and mapspace,
//! * [`autodiff`] — reverse-mode automatic differentiation,
//! * [`model`] — the differentiable performance model,
//! * [`nn`] — the learned latency-correction MLP,
//! * [`rtl`] — the Gemmini-RTL simulator substitute,
//! * [`search`] — DOSA's one-loop GD search and the baselines,
//! * [`cache`] — the content-addressed fingerprint/store substrate behind
//!   the search service's result cache,
//! * [`bench`](mod@bench) — the experiment harness behind the `repro`
//!   binary.
//!
//! ## Quickstart
//!
//! ```
//! use dosa::prelude::*;
//!
//! // One ResNet-50 bottleneck layer.
//! let layers = vec![Layer::once(Problem::conv("l", 1, 1, 56, 56, 64, 64, 1)?)];
//! let hier = Hierarchy::gemmini();
//!
//! // A tiny one-loop search: hardware and mapping found together, on a
//! // service whose worker pool every later search can share.
//! let service = SearchService::builder().build();
//! let cfg = GdConfig { start_points: 1, steps_per_start: 60, round_every: 30,
//!                      ..GdConfig::default() };
//! let result = dosa_search(&service, &layers, &hier, &cfg);
//! assert!(result.best_edp.is_finite());
//! # Ok::<(), dosa::workload::ProblemError>(())
//! ```
//!
//! ## The search service
//!
//! Searches are jobs submitted to a [`search::SearchService`]. A job is
//! described by the [`search::SearchRequest`] builder — one network or a
//! batch of named networks plus a [`search::Strategy`] selecting the
//! algorithm and its budget — and observed through the returned
//! [`search::JobHandle`]. Jobs on one service run **concurrently**,
//! their work items sharing the service's capacity-bounded worker slots
//! under each request's [`search::SchedPolicy`] (see the repository's
//! top-level `ARCHITECTURE.md` for the crate map and the full request →
//! validate → schedule → fan-out → merge lifecycle). All of the paper's
//! searchers run through the same lifecycle:
//!
//! * [`search::Strategy::GradientDescent`] — DOSA's differentiable
//!   one-loop co-search (the default), descending a
//!   [`search::Surrogate`] (plain EDP or the §6.5 predictor-adjusted
//!   latency); each start point is one work item,
//! * [`search::Strategy::Random`] — the random-search baseline; each
//!   hardware design is one work item with a private RNG stream,
//! * [`search::Strategy::BayesOpt`] — Spotlight-style BB-BO; each
//!   network's sequential GP loop is one work item.
//!
//! ```no_run
//! use dosa::prelude::*;
//!
//! let service = SearchService::builder().threads(4).build();
//! let request = SearchRequest::builder(Hierarchy::gemmini())
//!     .network("resnet50", unique_layers(Network::ResNet50))
//!     .network("bert", unique_layers(Network::Bert))
//!     .strategy(Strategy::GradientDescent(GdConfig::default()))
//!     .build();
//! let job = service.submit(request).expect("validated at the boundary");
//! while !job.status().is_terminal() {
//!     let p = job.progress(); // non-blocking, monotone
//!     println!("{} samples, best {:.3e}", p.total_samples(), p.best_edp());
//!     std::thread::sleep(std::time::Duration::from_millis(200));
//! }
//! for net in job.wait().expect("job failed").networks {
//!     println!("{}: {:.4e} on {}", net.network, net.result.best_edp, net.result.best_hw);
//! }
//! ```
//!
//! Swapping `Strategy::GradientDescent(..)` for `Strategy::Random(..)`
//! or `Strategy::BayesOpt(..)` reruns the same batch under a baseline
//! searcher — the paper's Figure 7 comparison is three concurrent
//! submissions to one service (see `examples/strategy_comparison.rs` and
//! `repro fig7`). A runnable miniature:
//!
//! ```
//! use dosa::prelude::*;
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
//! ).expect("validated at the boundary");
//! assert_eq!(job.wait().expect("job failed").into_single().samples, 20);
//! # Ok::<(), dosa::workload::ProblemError>(())
//! ```
//!
//! The request → handle → progress lifecycle comes with contracts worth
//! relying on, for **every strategy**:
//!
//! * **Bit-identical determinism** — each network's result is identical
//!   for every service thread budget, batch composition, scheduling
//!   policy *and* concurrent-job interleaving: a batched network equals
//!   a standalone submission with the same seed, bit for bit.
//! * **Concurrent scheduling** — jobs share the worker slots instead of
//!   queueing one-at-a-time: [`search::SchedPolicy`] (`Fifo`,
//!   `ShortestFirst`, `Priority`) decides which queued work grabs freed
//!   slots, and
//!   [`search::SearchRequestBuilder::max_parallelism`] caps a long job
//!   so it provably leaves capacity for short ones (pinned by
//!   `crates/search/tests/sched.rs`).
//! * **Live observation** — [`search::JobHandle::progress`] reads
//!   lock-free per-network counters (samples, best-so-far EDP) without
//!   perturbing the workers; successive snapshots are monotone.
//! * **Cooperative cancellation** — [`search::JobHandle::cancel`] stops
//!   work at the next gradient-step or mapping-sample boundary and keeps
//!   the partial (still monotone) results.
//! * **Typed validation** — [`search::Strategy::validate`] rejects
//!   degenerate budgets (`round_every == 0`, zero steps, designs or
//!   samples, `init_random` outside `1..=num_hw`, non-finite learning
//!   rates) with a [`search::ConfigError`] at
//!   [`search::SearchService::submit`].
//! * **Per-service thread budget** — [`search::SearchServiceBuilder::threads`]
//!   scopes parallelism to the service instance; no global pool.
//! * **Result caching & resume** — a service built with
//!   [`search::SearchServiceBuilder::cache`] journals every completed
//!   work item into a content-addressed [`search::ResultCache`] and
//!   replays identical work instead of re-running it: a repeated
//!   identical request completes with 100% work-item hits, a cancelled
//!   job resubmitted identically re-runs only its remainder, and either
//!   way the [`search::BatchResult`] stays bit-identical to a cold run
//!   ([`search::JobHandle::stats`] counts hits and misses; pinned by
//!   `crates/search/tests/result_cache.rs`).
//!
//! ```
//! use dosa::prelude::*;
//! use std::sync::Arc;
//!
//! let layers = vec![Layer::once(Problem::matmul("m", 8, 32, 32)?)];
//! let cache = ResultCache::in_memory(1024);
//! let service = SearchService::builder().threads(2).cache(Arc::clone(&cache)).build();
//! let request = SearchRequest::builder(Hierarchy::gemmini())
//!     .network("gemm", layers)
//!     .config(GdConfig { start_points: 1, steps_per_start: 10, round_every: 5,
//!                        ..GdConfig::default() })
//!     .build();
//! let first = service.submit(request.clone()).expect("valid").wait().expect("job failed");
//! let rerun = service.submit(request).expect("valid");
//! let second = rerun.wait().expect("job failed");
//! assert_eq!(rerun.stats().cache_hits, rerun.stats().work_items); // full replay
//! assert_eq!(
//!     first.into_single().best_edp.to_bits(),
//!     second.into_single().best_edp.to_bits(),
//! );
//! # Ok::<(), dosa::workload::ProblemError>(())
//! ```
//!
//! The blocking searchers [`search::dosa_search`],
//! [`search::dosa_search_rtl`], [`search::random_search`] and
//! [`search::bayesian_search`] remain as thin shims that submit one job
//! to the service they are given and wait; `repro` builds one service
//! per process, sized by `--threads N`. See
//! `examples/batched_service.rs` and `examples/strategy_comparison.rs`
//! for the service lifecycle end to end.

#![warn(missing_docs)]

pub use dosa_accel as accel;
pub use dosa_autodiff as autodiff;
pub use dosa_bench as bench;
pub use dosa_cache as cache;
pub use dosa_model as model;
pub use dosa_nn as nn;
pub use dosa_rtl as rtl;
pub use dosa_search as search;
pub use dosa_timeloop as timeloop;
pub use dosa_workload as workload;

/// Commonly used items for examples and downstream code.
pub mod prelude {
    pub use dosa_accel::{EnergyModel, HardwareConfig, Hierarchy};
    pub use dosa_cache::{CacheKey, CacheStore, Fingerprinter, ShardedLru};
    pub use dosa_model::{build_loss, LossOptions, RelaxedMapping};
    pub use dosa_search::{
        bayesian_search, cosa_mapping, dosa_search, dosa_search_rtl, random_search, BatchResult,
        BbboConfig, ConfigError, DiffLoss, EdpLoss, GdConfig, JobHandle, JobProgress, JobStats,
        JobStatus, LatencyModelKind, LatencyPredictor, LoopOrderStrategy, PredictedLatencyLoss,
        RandomSearchConfig, ResultCache, ResultCacheStats, SchedPolicy, SearchRequest,
        SearchService, Strategy, Surrogate,
    };
    pub use dosa_timeloop::{
        evaluate_layer, evaluate_model, min_hw, min_hw_for_all, Mapping, Stationarity,
    };
    pub use dosa_workload::{unique_layers, Layer, Network, Problem};
}
