//! Differentiable scalar variables and their operations.

use crate::scalar::{Ctx, Scalar};
use crate::tape::{Op, Tape};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A differentiable scalar recorded on a [`Tape`].
///
/// `Var` is `Copy`; arithmetic operators (`+ - * /`) are overloaded for
/// `Var ⊕ Var` and `Var ⊕ f64`, and record onto the owning tape. The
/// `f64` forms are *fused*: `x * 3.0` records one unary node (gradient
/// `3.0`) instead of a constant node plus a binary node, halving tape
/// traffic for the constant-heavy model code.
///
/// # Examples
///
/// ```
/// use dosa_autodiff::Tape;
/// let t = Tape::new();
/// let x = t.var(2.0);
/// let y = (x * 3.0 + 1.0).powf(2.0);
/// assert_eq!(y.value(), 49.0);
/// assert_eq!(t.backward(y).wrt(x), 2.0 * 7.0 * 3.0);
/// ```
#[derive(Clone, Copy)]
pub struct Var<'t> {
    pub(crate) tape: &'t Tape,
    pub(crate) id: u32,
    pub(crate) value: f64,
}

impl std::fmt::Debug for Var<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.id)
            .field("value", &self.value)
            .finish()
    }
}

impl<'t> Var<'t> {
    /// The forward value.
    #[inline]
    pub fn value(self) -> f64 {
        self.value
    }

    /// Record the unary `op` on this value with constant `k` (kept in the
    /// record's spare partial slot for replay).
    #[inline]
    fn unary(self, op: Op, k: f64) -> Var<'t> {
        let (value, grad, _) = op.eval(self.value, 0.0, k);
        self.tape.record(value, [self.id, 0], [grad, k], 1, op)
    }

    #[inline]
    fn binary(self, op: Op, rhs: Var<'t>) -> Var<'t> {
        let (value, ga, gb) = op.eval(self.value, rhs.value, 0.0);
        self.tape.record(value, [self.id, rhs.id], [ga, gb], 2, op)
    }

    /// Natural logarithm. The input should be positive; `ln` of a
    /// non-positive value produces `NaN`/`-inf` like [`f64::ln`].
    #[inline]
    pub fn ln(self) -> Var<'t> {
        self.unary(Op::Ln, 0.0)
    }

    /// Exponential.
    #[inline]
    pub fn exp(self) -> Var<'t> {
        self.unary(Op::Exp, 0.0)
    }

    /// Power with a constant (non-differentiated) exponent.
    #[inline]
    pub fn powf(self, k: f64) -> Var<'t> {
        self.unary(Op::PowK, k)
    }

    /// Square root.
    #[inline]
    pub fn sqrt(self) -> Var<'t> {
        self.unary(Op::Sqrt, 0.0)
    }

    /// Reciprocal `1/x`.
    #[inline]
    pub fn recip(self) -> Var<'t> {
        self.unary(Op::Recip, 0.0)
    }

    /// Square.
    #[inline]
    pub fn square(self) -> Var<'t> {
        self.unary(Op::Square, 0.0)
    }

    /// Elementwise maximum, with the subgradient convention of routing the
    /// gradient to the larger input (ties route to `self`).
    #[inline]
    pub fn max(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(Op::Max, rhs)
    }

    /// Elementwise minimum (subgradient; ties route to `self`).
    #[inline]
    pub fn min(self, rhs: Var<'t>) -> Var<'t> {
        self.binary(Op::Min, rhs)
    }

    /// Rectified linear unit `max(x, 0)`.
    #[inline]
    pub fn relu(self) -> Var<'t> {
        self.unary(Op::Relu, 0.0)
    }

    /// `max(k − x, 0)` — the hinge used by the invalid-mapping penalty
    /// (Eq. 18 of the paper with `k = 1`).
    #[inline]
    pub fn hinge_below(self, k: f64) -> Var<'t> {
        self.unary(Op::HingeK, k)
    }

    /// Whether any of `of` has a forward value above `threshold`,
    /// recorded on their tape as one replay guard (see
    /// [`Scalar::any_exceeds`]). An empty `of` records nothing.
    pub fn any_exceeds(of: &[Var<'t>], threshold: f64) -> bool {
        match of.first() {
            Some(v) => v.tape.guard(of, threshold),
            None => false,
        }
    }

    /// `self − m` with `m` the largest forward value in `of`, a
    /// stop-gradient constant: one node whose replay recomputes `m` (see
    /// [`Scalar::sub_max`]).
    #[inline]
    pub fn sub_max(self, of: &[Var<'t>]) -> Var<'t> {
        let m = of.iter().map(|v| v.value).fold(f64::NEG_INFINITY, f64::max);
        let group = self.tape.group(of);
        let (value, grad, _) = Op::SubMax.eval(self.value, m, 0.0);
        self.tape
            .record(value, [self.id, group], [grad, 0.0], 1, Op::SubMax)
    }

    /// The tape this variable is recorded on.
    pub fn tape(self) -> &'t Tape {
        self.tape
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:ident, $op_k:ident) => {
        impl<'t> $trait for Var<'t> {
            type Output = Var<'t>;
            #[inline]
            fn $method(self, rhs: Var<'t>) -> Var<'t> {
                self.binary(Op::$op, rhs)
            }
        }

        // Var ⊕ f64: a fused single node. The gradient it stores is
        // exactly the product a two-node encoding (constant node + binary
        // op) would feed back to the variable, so fusing changes no
        // accumulated bit — it only skips recording a constant leaf nobody
        // differentiates.
        impl<'t> $trait<f64> for Var<'t> {
            type Output = Var<'t>;
            #[inline]
            fn $method(self, rhs: f64) -> Var<'t> {
                self.unary(Op::$op_k, rhs)
            }
        }
    };
}

impl_binop!(Add, add, Add, AddK);
impl_binop!(Sub, sub, Sub, SubK);
impl_binop!(Mul, mul, Mul, MulK);
impl_binop!(Div, div, Div, DivK);

impl<'t> Neg for Var<'t> {
    type Output = Var<'t>;
    #[inline]
    fn neg(self) -> Var<'t> {
        self.unary(Op::Neg, 0.0)
    }
}

impl<'t> Add<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn add(self, rhs: Var<'t>) -> Var<'t> {
        rhs + self
    }
}

impl<'t> Mul<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn mul(self, rhs: Var<'t>) -> Var<'t> {
        rhs * self
    }
}

impl<'t> Sub<Var<'t>> for f64 {
    type Output = Var<'t>;
    #[inline]
    fn sub(self, rhs: Var<'t>) -> Var<'t> {
        rhs.unary(Op::KSub, self)
    }
}

impl<'t> Div<Var<'t>> for f64 {
    type Output = Var<'t>;
    // `k / v` is recorded as `v.recip() * k`: one reciprocal node plus a
    // fused scale, which is exactly the intended derivative chain.
    #[allow(clippy::suspicious_arithmetic_impl)]
    #[inline]
    fn div(self, rhs: Var<'t>) -> Var<'t> {
        rhs.recip() * self
    }
}

impl<'t> Scalar for Var<'t> {
    #[inline]
    fn value(self) -> f64 {
        self.value
    }
    #[inline]
    fn ln(self) -> Var<'t> {
        Var::ln(self)
    }
    #[inline]
    fn exp(self) -> Var<'t> {
        Var::exp(self)
    }
    #[inline]
    fn powf(self, p: f64) -> Var<'t> {
        Var::powf(self, p)
    }
    #[inline]
    fn sqrt(self) -> Var<'t> {
        Var::sqrt(self)
    }
    #[inline]
    fn recip(self) -> Var<'t> {
        Var::recip(self)
    }
    #[inline]
    fn square(self) -> Var<'t> {
        Var::square(self)
    }
    #[inline]
    fn max(self, rhs: Var<'t>) -> Var<'t> {
        Var::max(self, rhs)
    }
    #[inline]
    fn min(self, rhs: Var<'t>) -> Var<'t> {
        Var::min(self, rhs)
    }
    #[inline]
    fn relu(self) -> Var<'t> {
        Var::relu(self)
    }
    #[inline]
    fn hinge_below(self, k: f64) -> Var<'t> {
        Var::hinge_below(self, k)
    }
    #[inline]
    fn any_exceeds(of: &[Var<'t>], threshold: f64) -> bool {
        Var::any_exceeds(of, threshold)
    }
    #[inline]
    fn sub_max(self, of: &[Var<'t>]) -> Var<'t> {
        Var::sub_max(self, of)
    }
}

impl<'t> Ctx for &'t Tape {
    type N = Var<'t>;
    #[inline]
    fn constant(self, value: f64) -> Var<'t> {
        Tape::constant(self, value)
    }
    #[inline]
    fn leaf(self, value: f64) -> Var<'t> {
        Tape::var(self, value)
    }
}

/// Sum of a slice of scalars. Returns a zero constant for an empty slice.
///
/// # Panics
///
/// Panics if `vars` mixes variables from different tapes (debug builds may
/// not detect this; callers must keep tapes separate).
pub fn sum<C: Ctx>(cx: C, vars: &[C::N]) -> C::N {
    match vars.split_first() {
        None => cx.constant(0.0),
        Some((&first, rest)) => rest.iter().fold(first, |acc, &v| acc + v),
    }
}

/// Product of a slice of scalars. Returns a one constant for an empty
/// slice.
pub fn prod<C: Ctx>(cx: C, vars: &[C::N]) -> C::N {
    match vars.split_first() {
        None => cx.constant(1.0),
        Some((&first, rest)) => rest.iter().fold(first, |acc, &v| acc * v),
    }
}

/// Maximum over a slice of scalars (subgradient semantics).
///
/// Returns negative infinity constant for an empty slice.
pub fn max_of<C: Ctx>(cx: C, vars: &[C::N]) -> C::N {
    match vars.split_first() {
        None => cx.constant(f64::NEG_INFINITY),
        Some((&first, rest)) => rest.iter().fold(first, |acc, &v| acc.max(v)),
    }
}

/// Numerically-stable softmax over a slice of scalars (Eq. 16's σ).
pub fn softmax<C: Ctx>(cx: C, vars: &[C::N]) -> Vec<C::N> {
    if vars.is_empty() {
        return Vec::new();
    }
    let exps: Vec<C::N> = vars.iter().map(|&v| v.sub_max(vars).exp()).collect();
    let denom = sum(cx, &exps);
    exps.into_iter().map(|e| e / denom).collect()
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot<C: Ctx>(cx: C, a: &[C::N], b: &[C::N]) -> C::N {
    assert_eq!(a.len(), b.len(), "dot of unequal lengths");
    let terms: Vec<C::N> = a.iter().zip(b).map(|(&x, &y)| x * y).collect();
    sum(cx, &terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Values;

    fn grad1(f: impl for<'t> Fn(&'t Tape, Var<'t>) -> Var<'t>, x: f64) -> (f64, f64) {
        let tape = Tape::new();
        let v = tape.var(x);
        let y = f(&tape, v);
        let g = tape.backward(y);
        (y.value(), g.wrt(v))
    }

    #[test]
    fn basic_arith_grads() {
        let (v, g) = grad1(|_, x| x * x + x * 3.0 - 1.0, 2.0);
        assert_eq!(v, 9.0);
        assert_eq!(g, 7.0);
    }

    #[test]
    fn div_grad() {
        let (v, g) = grad1(|_, x| 1.0 / x, 4.0);
        assert!((v - 0.25).abs() < 1e-12);
        assert!((g + 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn transcendental_grads() {
        let (v, g) = grad1(|_, x| x.ln() * x.exp(), 1.5);
        let expected = 1.5f64.exp() * (1.5f64.ln() + 1.0 / 1.5);
        assert!((v - 1.5f64.ln() * 1.5f64.exp()).abs() < 1e-12);
        assert!((g - expected).abs() < 1e-12);
    }

    #[test]
    fn max_subgradient_routes_to_argmax() {
        let tape = Tape::new();
        let a = tape.var(2.0);
        let b = tape.var(5.0);
        let m = a.max(b);
        let g = tape.backward(m);
        assert_eq!(g.wrt(a), 0.0);
        assert_eq!(g.wrt(b), 1.0);
        assert_eq!(m.value(), 5.0);
    }

    #[test]
    fn hinge_below_matches_eq18() {
        let tape = Tape::new();
        let f = tape.var(0.25);
        let pen = f.hinge_below(1.0);
        assert_eq!(pen.value(), 0.75);
        assert_eq!(tape.backward(pen).wrt(f), -1.0);
        let ok = tape.var(2.0).hinge_below(1.0);
        assert_eq!(ok.value(), 0.0);
    }

    #[test]
    fn softmax_sums_to_one_and_grads_flow() {
        let tape = Tape::new();
        let xs = [tape.var(1.0), tape.var(2.0), tape.var(3.0)];
        let sm = softmax(&tape, &xs);
        let total: f64 = sm.iter().map(|v| v.value()).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let g = tape.backward(sm[0]);
        // d softmax_0 / d x_0 = s0 (1 - s0) > 0
        assert!(g.wrt(xs[0]) > 0.0);
        assert!(g.wrt(xs[1]) < 0.0);
    }

    #[test]
    fn prod_and_sum_helpers() {
        let tape = Tape::new();
        let xs = [tape.var(2.0), tape.var(3.0), tape.var(4.0)];
        assert_eq!(prod(&tape, &xs).value(), 24.0);
        assert_eq!(sum(&tape, &xs).value(), 9.0);
        assert_eq!(prod(&tape, &[]).value(), 1.0);
        assert_eq!(sum(&tape, &[]).value(), 0.0);
        let p = prod(&tape, &xs);
        let g = tape.backward(p);
        assert_eq!(g.wrt(xs[0]), 12.0);
    }

    #[test]
    fn scalar_lhs_ops() {
        let tape = Tape::new();
        let x = tape.var(4.0);
        assert_eq!((2.0 - x).value(), -2.0);
        assert_eq!((8.0 / x).value(), 2.0);
        assert_eq!((3.0 * x).value(), 12.0);
        assert_eq!((1.0 + x).value(), 5.0);
    }

    #[test]
    fn fused_scalar_ops_record_one_node() {
        let tape = Tape::new();
        let x = tape.var(4.0);
        let before = tape.len();
        let _ = x + 1.0;
        let _ = x - 1.0;
        let _ = x * 2.0;
        let _ = x / 2.0;
        let _ = 2.0 - x;
        assert_eq!(tape.len(), before + 5);
        let y = x * 2.0 + 1.0;
        assert_eq!(tape.backward(y).wrt(x), 2.0);
        let z = 10.0 - x;
        assert_eq!(tape.backward(z).wrt(x), -1.0);
        let w = x / 4.0;
        assert_eq!(tape.backward(w).wrt(x), 0.25);
    }

    #[test]
    fn relu_and_square() {
        let tape = Tape::new();
        let x = tape.var(-2.0);
        assert_eq!(x.relu().value(), 0.0);
        assert_eq!(tape.backward(x.relu()).wrt(x), 0.0);
        let y = tape.var(3.0);
        assert_eq!(y.square().value(), 9.0);
        assert_eq!(tape.backward(y.square()).wrt(y), 6.0);
    }

    #[test]
    fn max_of_slice() {
        let tape = Tape::new();
        let xs = [tape.var(1.0), tape.var(9.0), tape.var(4.0)];
        let m = max_of(&tape, &xs);
        assert_eq!(m.value(), 9.0);
        let g = tape.backward(m);
        assert_eq!(g.wrt_slice(&xs), vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn helpers_run_on_values_ctx() {
        let cx = Values;
        let xs = [2.0, 3.0, 4.0];
        assert_eq!(prod(cx, &xs), 24.0);
        assert_eq!(sum(cx, &xs), 9.0);
        assert_eq!(max_of(cx, &xs), 4.0);
        let sm = softmax(cx, &xs);
        assert!((sm.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(dot(cx, &xs, &xs), 29.0);
    }
}
