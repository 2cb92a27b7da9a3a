//! The [`Scalar`] / [`Ctx`] abstraction: write a differentiable model
//! once, instantiate it two ways.
//!
//! * `Ctx = &Tape` → `N = Var`: records onto the node-record tape for gradients.
//! * `Ctx = Values` → `N = f64`: the eval-only path — same arithmetic,
//!   same tie-breaking, zero tape overhead. Used for value-only
//!   re-evaluations (e.g. scoring rounded candidates).
//!
//! The f64 implementations of [`Scalar::max`] / [`Scalar::min`] /
//! [`Scalar::relu`] / [`Scalar::hinge_below`] spell out the exact
//! comparison the `Var` versions use, so the eval-only path reproduces
//! tape forward values bit for bit — including NaN propagation and which
//! side wins a tie.

/// A differentiable-model number: either a recorded [`Var`](crate::Var)
/// or a plain `f64` on the eval-only path.
///
/// Implementations must agree *bitwise* on forward values: `f64` here is
/// not "roughly the same math", it is the same operation sequence.
pub trait Scalar:
    Copy
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::Add<f64, Output = Self>
    + std::ops::Sub<f64, Output = Self>
    + std::ops::Mul<f64, Output = Self>
    + std::ops::Div<f64, Output = Self>
{
    /// The current forward value.
    fn value(self) -> f64;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Exponential.
    fn exp(self) -> Self;
    /// Raise to a constant power.
    fn powf(self, p: f64) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Reciprocal.
    fn recip(self) -> Self;
    /// Square.
    fn square(self) -> Self;
    /// Maximum; on a tie the gradient (and the value) goes to `self`.
    fn max(self, rhs: Self) -> Self;
    /// Minimum; on a tie the gradient (and the value) goes to `self`.
    fn min(self, rhs: Self) -> Self;
    /// `max(self, 0)` with gradient 0 at exactly 0.
    fn relu(self) -> Self;
    /// `max(k - self, 0)`: penalize values below `k`.
    fn hinge_below(self, k: f64) -> Self;
    /// Whether any of `of` has a forward value above `threshold`: the one
    /// way model code may let forward values decide what it records. On a
    /// [`Tape`](crate::Tape) the question is recorded as one replay guard
    /// over the group, and a replayed program is valid only while every
    /// guard gets its recorded answer; the other scalars just compare.
    /// Ask exactly the question the recorded structure depends on: a
    /// guard per node would also re-record when answers change in ways
    /// the structure does not see.
    fn any_exceeds(of: &[Self], threshold: f64) -> bool;
    /// `self - m`, where `m` is the largest forward value in `of` taken as
    /// a constant (no gradient flows into it): softmax's stability shift.
    /// On a [`Tape`](crate::Tape) this is one node whose replay recomputes
    /// `m` from the new values of `of`.
    fn sub_max(self, of: &[Self]) -> Self;
}

impl Scalar for f64 {
    #[inline]
    fn value(self) -> f64 {
        self
    }
    #[inline]
    fn ln(self) -> f64 {
        f64::ln(self)
    }
    #[inline]
    fn exp(self) -> f64 {
        f64::exp(self)
    }
    #[inline]
    fn powf(self, p: f64) -> f64 {
        f64::powf(self, p)
    }
    #[inline]
    fn sqrt(self) -> f64 {
        f64::sqrt(self)
    }
    #[inline]
    fn recip(self) -> f64 {
        f64::recip(self)
    }
    #[inline]
    fn square(self) -> f64 {
        self * self
    }
    // NOT f64::max/min: the std versions treat NaN and ties differently
    // from the Var ops. These mirror `Var::max`/`Var::min` exactly.
    #[inline]
    fn max(self, rhs: f64) -> f64 {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }
    #[inline]
    fn min(self, rhs: f64) -> f64 {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }
    #[inline]
    fn relu(self) -> f64 {
        if self > 0.0 {
            self
        } else {
            0.0
        }
    }
    #[inline]
    fn hinge_below(self, k: f64) -> f64 {
        if self < k {
            k - self
        } else {
            0.0
        }
    }
    #[inline]
    fn any_exceeds(of: &[f64], threshold: f64) -> bool {
        of.iter().any(|&v| v > threshold)
    }
    #[inline]
    fn sub_max(self, of: &[f64]) -> f64 {
        self - of.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A recording context: where [`Scalar`]s come from.
///
/// `&Tape` records; [`Values`] is the no-op eval-only context. `Copy` so
/// model code can thread it by value.
pub trait Ctx: Copy {
    /// The scalar this context produces.
    type N: Scalar;
    /// A constant (zero gradient).
    fn constant(self, value: f64) -> Self::N;
    /// A differentiable leaf.
    fn leaf(self, value: f64) -> Self::N;
}

/// The eval-only context: no tape, `N = f64`, every operation is plain
/// arithmetic with [`Var`](crate::Var)-identical semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct Values;

impl Ctx for Values {
    type N = f64;
    #[inline]
    fn constant(self, value: f64) -> f64 {
        value
    }
    #[inline]
    fn leaf(self, value: f64) -> f64 {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_max_min_mirror_var_tie_rules() {
        // Ties go to the left operand.
        assert_eq!(Scalar::max(1.0f64, 1.0), 1.0);
        // IEEE equality makes -0.0 vs 0.0 a tie, so `self` wins both ways.
        assert_eq!(Scalar::min(-0.0f64, 0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(Scalar::max(-0.0f64, 0.0).to_bits(), (-0.0f64).to_bits());
        // NaN on the left loses both comparisons (both `>=` and `<=` are
        // false), so the right side wins — same as the Var ops.
        assert_eq!(Scalar::max(f64::NAN, 2.0), 2.0);
        assert_eq!(Scalar::min(f64::NAN, 2.0), 2.0);
    }

    #[test]
    fn f64_relu_and_hinge() {
        assert_eq!(Scalar::relu(3.0f64), 3.0);
        assert_eq!(Scalar::relu(-3.0f64), 0.0);
        assert_eq!(Scalar::relu(0.0f64), 0.0);
        assert_eq!(Scalar::hinge_below(0.25f64, 1.0), 0.75);
        assert_eq!(Scalar::hinge_below(2.0f64, 1.0), 0.0);
    }

    #[test]
    fn values_ctx_is_plain_arithmetic() {
        let cx = Values;
        let x = cx.leaf(2.0);
        let y = (x * 3.0 + 1.0).ln().exp();
        assert!((y - 7.0).abs() < 1e-12);
    }
}
