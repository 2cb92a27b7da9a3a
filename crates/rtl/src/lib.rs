//! # dosa-rtl
//!
//! A deterministic, cycle-approximate simulator of the Gemmini
//! weight-stationary systolic array — the substitute for FireSim-based
//! cycle-exact RTL simulation in the paper's §6.5 experiments.
//!
//! The simulator models the implementation effects a roofline misses:
//! ROCC instruction issue, systolic fill/drain bubbles, DMA transaction
//! setup, banked accumulator writeback and imperfect double buffering. Its
//! output plays the role of "measured hardware latency" for training and
//! evaluating the learned correction model.
//!
//! ## Example
//!
//! ```
//! use dosa_rtl::simulate_latency_default;
//! use dosa_timeloop::Mapping;
//! use dosa_accel::{HardwareConfig, Hierarchy};
//! use dosa_workload::Problem;
//!
//! let p = Problem::conv("l", 3, 3, 28, 28, 64, 64, 1)?;
//! let m = Mapping::all_at_dram(&p);
//! let cycles = simulate_latency_default(
//!     &p, &m, &HardwareConfig::gemmini_default(), &Hierarchy::gemmini());
//! assert!(cycles > 0.0);
//! # Ok::<(), dosa_workload::ProblemError>(())
//! ```

#![warn(missing_docs)]

mod sim;

pub use sim::{simulate_latency, simulate_latency_default, RtlConfig};
