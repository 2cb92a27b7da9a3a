//! # dosa-bench
//!
//! The experiment harness of the DOSA reproduction: one module per table /
//! figure of the paper's evaluation (§6), the autodiff hot-path
//! measurement ([`perf`]), the workspace invariant checker driver
//! ([`lint`]), shared terminal plotting and CSV output, and quick/paper
//! scaling presets. The `repro` binary exposes each experiment as a
//! subcommand; the Criterion benches under `benches/` run reduced
//! versions of the same code paths.

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
pub mod lint;
pub mod perf;
pub mod plot;
pub mod scale;

pub use scale::Scale;
