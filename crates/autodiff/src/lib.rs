//! # dosa-autodiff
//!
//! A small tape-based reverse-mode automatic-differentiation engine for
//! scalars, built for the DOSA differentiable performance model.
//!
//! The paper implements differentiability with PyTorch autograd; mature Rust
//! autodiff crates are not available offline, so this crate hand-rolls the
//! same mechanism: a [`Tape`] records every scalar operation with its local
//! partial derivatives, and [`Tape::backward`] performs one reverse sweep to
//! produce gradients of a scalar loss with respect to every input.
//!
//! ## Hot-path layout
//!
//! The tape stores one node record (`parents`, `grads`, `arity`, `op`) per op
//! in a single vector behind a single-owner arena, so recording is one
//! capacity check and one store per op — no `RefCell` borrows, no per-op
//! bounds assert (the overflow check lives on the amortized growth path)
//! — and the backward sweep walks one contiguous array. The record
//! replaced a structure-of-arrays layout whose three parallel vectors
//! cost three pushes per op. The recording ops are `#[inline]`, so model
//! crates record without a call per op. `Var ⊕ f64` operations are fused
//! into single unary nodes. Forward values live on the [`Var`] itself,
//! not the tape.
//!
//! Four more pieces round out the hot path:
//!
//! * [`Tape::replay`] — each record also carries an op code and its
//!   constant operand, so a recorded tape is a program: replay
//!   re-evaluates it on new leaf values, bit for bit what a fresh
//!   recording gives, while the guards the model recorded through
//!   [`Scalar::any_exceeds`] still hold ([`Tape::guards_hold`]).
//! * [`Tape::backward_into`] — one serial reverse sweep into a
//!   caller-owned adjoint buffer, reused across optimizer steps.
//! * [`Scalar`] / [`Ctx`] — write model code once, instantiate it against
//!   the tape ([`Var`]) or an eval-only `f64` path ([`Values`]).
//! * [`Gradients::wrt_into`] — gather leaf gradients into a caller-owned
//!   buffer, so a step's leaf-gradient gather allocates nothing.
//!
//! [`Adam`] is the optimizer that steps the leaves: DOSA's gradient
//! descent and the latency-correction MLP's trainer both use it.
//!
//! [`SegmentPlan`], [`SegScratch`] and [`Tape::backward_segmented`] remain
//! only as names for older callers: the plan is an ignored placeholder and
//! the segmented sweep is [`Tape::backward_into`].
//!
//! ## Example
//!
//! ```
//! use dosa_autodiff::{Tape, prod};
//!
//! let tape = Tape::new();
//! let factors: Vec<_> = [2.0, 4.0, 8.0].iter().map(|&f| tape.var(f)).collect();
//! // "Traffic" is a product of tiling factors, like in the DOSA model.
//! let traffic = prod(&tape, &factors);
//! let grads = tape.backward(traffic);
//! assert_eq!(traffic.value(), 64.0);
//! assert_eq!(grads.wrt(factors[0]), 32.0); // d(2*4*8)/d2
//! ```

#![warn(missing_docs)]

mod adam;
mod check;
mod scalar;
mod seg;
mod tape;
mod var;

pub use adam::Adam;
pub use check::check_gradients;
pub use scalar::{Ctx, Scalar, Values};
pub use seg::{SegScratch, SegmentPlan};
pub use tape::{Gradients, GradientsView, Tape};
pub use var::{dot, max_of, prod, softmax, sum, Var};
