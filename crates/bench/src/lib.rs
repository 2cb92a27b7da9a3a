//! # dosa-bench
//!
//! The experiment harness of the DOSA reproduction: one module per table /
//! figure of the paper's evaluation (§6), shared terminal plotting and CSV
//! output, and quick/paper scaling presets. The `repro` binary exposes
//! each experiment as a subcommand. Timing belongs to the repository
//! benchmark (`perfbench/`); this crate's tests pin the quick-scale
//! figure CSVs and validate the checked-in `BENCH_*.json` records.

#![warn(missing_docs)]

pub mod ablation;
pub mod fig10_11;
pub mod fig12;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod info;
pub mod plot;
pub mod scale;

pub use scale::Scale;
