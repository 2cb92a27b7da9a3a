//! # dosa-timeloop
//!
//! The reference analytical performance model for the DOSA reproduction —
//! the role played by Timeloop + Accelergy in the paper. It provides:
//!
//! * the integer [`Mapping`] representation (temporal/spatial tiling factors
//!   per memory level plus per-level [`LoopOrder`]s, §3.1.2),
//! * exact loop-nest traffic analysis ([`compute_traffic`], §4.2),
//! * latency / energy / EDP evaluation ([`evaluate_layer`],
//!   [`evaluate_model`], Eqs. 12–14) including Timeloop's per-block DRAM
//!   energy ceiling (§4.6),
//! * minimal-hardware inference ([`min_hw`], Figure 3),
//! * the random mapper's precomputed [`MapSampler`] and the random-pruned
//!   mapper (§6.1), and divisor utilities.
//!
//! ## Example
//!
//! ```
//! use dosa_timeloop::{evaluate_layer, min_hw, Mapping};
//! use dosa_accel::Hierarchy;
//! use dosa_workload::Problem;
//!
//! let p = Problem::conv("l", 3, 3, 28, 28, 64, 64, 1)?;
//! let m = Mapping::all_at_dram(&p);
//! let hier = Hierarchy::gemmini();
//! let hw = min_hw(&p, &m, &hier);
//! let perf = evaluate_layer(&p, &m, &hw, &hier);
//! assert!(perf.edp() > 0.0);
//! # Ok::<(), dosa_workload::ProblemError>(())
//! ```

#![warn(missing_docs)]

mod divisors;
mod exhaustive;
mod mapper;
mod mapping;
mod minhw;
mod perf;
mod traffic;

pub use divisors::{divisors, factorize, nearest_divisor};
pub use exhaustive::{enumerate_mappings, exhaustive_best, MAX_ENUMERATION};
pub use mapper::{random_mapping, random_pruned_search, MapSampler, MapperResult};
pub use mapping::{LoopOrder, Mapping, MappingError, Stationarity};
pub use minhw::{fits, min_hw, min_hw_for_all};
pub use perf::{
    evaluate_layer, evaluate_model, perf_from_traffic, LayerEvaluator, LayerPerf, ModelPerf,
};
pub use traffic::{
    compute_traffic, refetch, tile_words, DramStream, DramStreams, TensorFlows, Traffic,
};
