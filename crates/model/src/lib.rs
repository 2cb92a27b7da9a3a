//! # dosa-model
//!
//! DOSA's differentiable performance model (§4): relaxed log-space mappings,
//! closed-form traffic/latency/energy expressions on the
//! [`dosa_autodiff`] tape, minimal-hardware derivation, the invalid-mapping
//! penalty (Eq. 18), and the whole-model EDP loss (Eq. 14) including the
//! softmax loop-ordering variant (Eq. 15–17).
//!
//! Evaluated at an integer mapping the model reproduces the
//! [`dosa_timeloop`] reference exactly on latency and up to the DRAM block
//! ceiling on energy — the Figure 4 correlation.
//!
//! ## Example
//!
//! ```
//! use dosa_model::{build_loss, LossOptions, RelaxedMapping};
//! use dosa_autodiff::Tape;
//! use dosa_accel::Hierarchy;
//! use dosa_timeloop::Stationarity;
//! use dosa_workload::{Layer, Problem};
//!
//! let layers = vec![Layer::once(Problem::conv("l", 3, 3, 28, 28, 64, 64, 1)?)];
//! let relaxed = vec![RelaxedMapping::identity(Stationarity::WeightStationary)];
//! let tape = Tape::new();
//! let built = build_loss(&tape, &layers, &relaxed, &Hierarchy::gemmini(), &LossOptions::default());
//! let grads = tape.backward(built.loss);
//! assert!(built.edp > 0.0);
//! assert!(grads.wrt(built.leaves[0][0]).is_finite());
//! # Ok::<(), dosa_workload::ProblemError>(())
//! ```

#![warn(missing_docs)]

mod diff;
mod edp;
mod relaxed;

pub use diff::{layer_perf_vars, tile_words_var, FactorVars, HwVars, LayerPerfVars};
pub use edp::{
    analytical, build_loss, build_loss_with, predict, BuiltLoss, BuiltLossG, LossOptions,
};
pub use relaxed::{round_all, RelaxedMapping, PARAMS_PER_LAYER};
