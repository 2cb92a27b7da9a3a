//! The pre-rewrite tape, preserved verbatim in spirit as a measured baseline.
//!
//! This is the recording scheme the crate used before the hot-path
//! rewrite: an array-of-structs `Vec<Node>` plus a separate values vector,
//! each behind its own `RefCell`, a per-push overflow `assert!`, and
//! `Var ⊕ f64` recorded as a constant node followed by a binary node.
//! It exists for two reasons:
//!
//! * **bit-parity tests** — the generic model code instantiates against
//!   both tapes and the gradients must match bit for bit, which pins down
//!   the rewrite's "no numeric change" claim;
//! * **the perf trajectory** — `BENCH_6.json`'s speedup numbers are
//!   measured against this path in the same run, on the same machine.
//!
//! Do not "improve" this module; its slowness is the point.

use crate::scalar::{Ctx, Scalar};
use std::cell::RefCell;
use std::ops::{Add, Div, Mul, Neg, Sub};

#[derive(Clone, Copy)]
struct Node {
    parents: [u32; 2],
    grads: [f64; 2],
    arity: u8,
}

/// The pre-rewrite AoS tape: `RefCell<Vec<Node>>` + `RefCell<Vec<f64>>`,
/// two borrows and one bounds assert per recorded op.
#[derive(Default)]
pub struct LegacyTape {
    nodes: RefCell<Vec<Node>>,
    values: RefCell<Vec<f64>>,
}

impl LegacyTape {
    /// An empty tape.
    pub fn new() -> LegacyTape {
        LegacyTape::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded nodes, keeping allocations.
    pub fn clear(&self) {
        self.nodes.borrow_mut().clear();
        self.values.borrow_mut().clear();
    }

    fn record(&self, value: f64, node: Node) -> LegacyVar<'_> {
        let mut nodes = self.nodes.borrow_mut();
        assert!(nodes.len() < u32::MAX as usize, "legacy tape overflow");
        let id = nodes.len() as u32;
        nodes.push(node);
        self.values.borrow_mut().push(value);
        LegacyVar {
            tape: self,
            id,
            value,
        }
    }

    /// A differentiable leaf.
    pub fn var(&self, value: f64) -> LegacyVar<'_> {
        self.record(
            value,
            Node {
                parents: [0, 0],
                grads: [0.0, 0.0],
                arity: 0,
            },
        )
    }

    /// A constant (zero-gradient) node.
    pub fn constant(&self, value: f64) -> LegacyVar<'_> {
        self.var(value)
    }

    /// Reverse sweep from `output`, returning adjoints for every node.
    pub fn backward(&self, output: LegacyVar<'_>) -> LegacyGradients {
        let nodes = self.nodes.borrow();
        let mut adj = vec![0.0; nodes.len()];
        adj[output.id as usize] = 1.0;
        for i in (0..=output.id as usize).rev() {
            let a = adj[i];
            // dosa-lint: allow(float-eq) — exact-zero adjoint skip: only a
            // bitwise zero means "no gradient flowed here"; a tolerance would
            // silently drop real (tiny) gradients.
            if a == 0.0 {
                continue;
            }
            let node = nodes[i];
            for p in 0..node.arity as usize {
                adj[node.parents[p] as usize] += a * node.grads[p];
            }
        }
        LegacyGradients { adj }
    }
}

/// Adjoints from a [`LegacyTape::backward`] sweep.
pub struct LegacyGradients {
    adj: Vec<f64>,
}

impl LegacyGradients {
    /// Gradient with respect to one variable.
    pub fn wrt(&self, var: LegacyVar<'_>) -> f64 {
        self.adj[var.id as usize]
    }

    /// Gradients with respect to a slice of variables (allocates).
    pub fn wrt_slice(&self, vars: &[LegacyVar<'_>]) -> Vec<f64> {
        vars.iter().map(|v| self.adj[v.id as usize]).collect()
    }
}

/// A differentiable scalar on the [`LegacyTape`].
#[derive(Clone, Copy)]
pub struct LegacyVar<'t> {
    tape: &'t LegacyTape,
    id: u32,
    value: f64,
}

impl std::fmt::Debug for LegacyVar<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LegacyVar")
            .field("id", &self.id)
            .field("value", &self.value)
            .finish()
    }
}

impl<'t> LegacyVar<'t> {
    /// The forward value.
    pub fn value(self) -> f64 {
        self.value
    }

    fn unary(self, value: f64, grad: f64) -> LegacyVar<'t> {
        self.tape.record(
            value,
            Node {
                parents: [self.id, 0],
                grads: [grad, 0.0],
                arity: 1,
            },
        )
    }

    fn binary(self, rhs: LegacyVar<'t>, value: f64, ga: f64, gb: f64) -> LegacyVar<'t> {
        self.tape.record(
            value,
            Node {
                parents: [self.id, rhs.id],
                grads: [ga, gb],
                arity: 2,
            },
        )
    }
}

macro_rules! legacy_binop {
    ($trait:ident, $method:ident, |$a:ident, $b:ident| $val:expr, |$av:ident, $bv:ident| ($ga:expr, $gb:expr)) => {
        impl<'t> $trait for LegacyVar<'t> {
            type Output = LegacyVar<'t>;
            fn $method(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
                let ($a, $b) = (self.value, rhs.value);
                let value = $val;
                let ($av, $bv) = (self.value, rhs.value);
                let _ = ($av, $bv);
                self.binary(rhs, value, $ga, $gb)
            }
        }

        // The pre-rewrite scalar form: record the constant, then a full
        // binary node — two nodes and four borrows per `x ⊕ c`.
        impl<'t> $trait<f64> for LegacyVar<'t> {
            type Output = LegacyVar<'t>;
            fn $method(self, rhs: f64) -> LegacyVar<'t> {
                let c = self.tape.constant(rhs);
                $trait::$method(self, c)
            }
        }
    };
}

legacy_binop!(Add, add, |a, b| a + b, |_av, _bv| (1.0, 1.0));
legacy_binop!(Sub, sub, |a, b| a - b, |_av, _bv| (1.0, -1.0));
legacy_binop!(Mul, mul, |a, b| a * b, |av, bv| (bv, av));
legacy_binop!(Div, div, |a, b| a / b, |av, bv| (1.0 / bv, -av / (bv * bv)));

impl<'t> Neg for LegacyVar<'t> {
    type Output = LegacyVar<'t>;
    fn neg(self) -> LegacyVar<'t> {
        self.unary(-self.value, -1.0)
    }
}

impl<'t> Add<LegacyVar<'t>> for f64 {
    type Output = LegacyVar<'t>;
    fn add(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
        rhs + self
    }
}

impl<'t> Mul<LegacyVar<'t>> for f64 {
    type Output = LegacyVar<'t>;
    fn mul(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
        rhs * self
    }
}

impl<'t> Sub<LegacyVar<'t>> for f64 {
    type Output = LegacyVar<'t>;
    fn sub(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
        -rhs + self
    }
}

impl<'t> Div<LegacyVar<'t>> for f64 {
    type Output = LegacyVar<'t>;
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
        rhs.recip() * self
    }
}

impl<'t> Scalar for LegacyVar<'t> {
    fn value(self) -> f64 {
        self.value
    }
    fn ln(self) -> LegacyVar<'t> {
        self.unary(self.value.ln(), 1.0 / self.value)
    }
    fn exp(self) -> LegacyVar<'t> {
        let e = self.value.exp();
        self.unary(e, e)
    }
    fn powf(self, p: f64) -> LegacyVar<'t> {
        let v = self.value.powf(p);
        self.unary(v, p * self.value.powf(p - 1.0))
    }
    fn sqrt(self) -> LegacyVar<'t> {
        let v = self.value.sqrt();
        self.unary(v, 0.5 / v)
    }
    fn recip(self) -> LegacyVar<'t> {
        let v = 1.0 / self.value;
        self.unary(v, -v * v)
    }
    fn square(self) -> LegacyVar<'t> {
        self.unary(self.value * self.value, 2.0 * self.value)
    }
    fn max(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
        if self.value >= rhs.value {
            self.binary(rhs, self.value, 1.0, 0.0)
        } else {
            self.binary(rhs, rhs.value, 0.0, 1.0)
        }
    }
    fn min(self, rhs: LegacyVar<'t>) -> LegacyVar<'t> {
        if self.value <= rhs.value {
            self.binary(rhs, self.value, 1.0, 0.0)
        } else {
            self.binary(rhs, rhs.value, 0.0, 1.0)
        }
    }
    fn relu(self) -> LegacyVar<'t> {
        if self.value > 0.0 {
            self.unary(self.value, 1.0)
        } else {
            self.unary(0.0, 0.0)
        }
    }
    fn hinge_below(self, k: f64) -> LegacyVar<'t> {
        if self.value < k {
            self.unary(k - self.value, -1.0)
        } else {
            self.unary(0.0, 0.0)
        }
    }
    fn any_exceeds(of: &[LegacyVar<'t>], threshold: f64) -> bool {
        of.iter().any(|v| v.value > threshold)
    }
    fn sub_max(self, of: &[LegacyVar<'t>]) -> LegacyVar<'t> {
        self - of.iter().map(|v| v.value).fold(f64::NEG_INFINITY, f64::max)
    }
}

impl<'t> LegacyVar<'t> {
    /// Reciprocal (also available via [`Scalar::recip`]; kept inherent for
    /// the `f64 / LegacyVar` operator).
    pub fn recip(self) -> LegacyVar<'t> {
        Scalar::recip(self)
    }
}

impl<'t> Ctx for &'t LegacyTape {
    type N = LegacyVar<'t>;
    // Record every multiplication, including by literal ones, exactly as
    // the pre-refactor model did. Value-identical (a * 1.0 == a bitwise)
    // but materially more nodes — part of what BENCH_*.json measures.
    const UNIT_SKIP: bool = false;
    fn constant(self, value: f64) -> LegacyVar<'t> {
        LegacyTape::constant(self, value)
    }
    fn leaf(self, value: f64) -> LegacyVar<'t> {
        LegacyTape::var(self, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_matches_hand_gradients() {
        let tape = LegacyTape::new();
        let x = tape.var(2.0);
        let y = x * x + x * 3.0 - 1.0;
        assert_eq!(y.value(), 9.0);
        assert_eq!(tape.backward(y).wrt(x), 7.0);
    }

    #[test]
    fn legacy_scalar_ops_record_two_nodes() {
        let tape = LegacyTape::new();
        let x = tape.var(4.0);
        let before = tape.len();
        let _ = x + 1.0;
        assert_eq!(tape.len(), before + 2, "constant node + binary node");
    }

    #[test]
    fn legacy_gradients_match_new_tape_bits() {
        let old = LegacyTape::new();
        let new = crate::Tape::new();
        let inputs = [0.7, 1.3, 2.9, 0.02];
        let f_old = {
            let xs: Vec<LegacyVar<'_>> = inputs.iter().map(|&v| old.var(v)).collect();
            let mut t = xs[0] * 2.5 + 0.1;
            for &x in &xs[1..] {
                t = (t * x.exp().max(x.square()) + 4.0) / 3.0 + (2.0 - x).relu();
            }
            let y = t.ln().square();
            let g = old.backward(y);
            (y.value(), g.wrt_slice(&xs))
        };
        let f_new = {
            let xs: Vec<crate::Var<'_>> = inputs.iter().map(|&v| new.var(v)).collect();
            let mut t = xs[0] * 2.5 + 0.1;
            for &x in &xs[1..] {
                t = (t * x.exp().max(x.square()) + 4.0) / 3.0 + (2.0 - x).relu();
            }
            let y = t.ln().square();
            let g = new.backward(y);
            (y.value(), g.wrt_slice(&xs))
        };
        assert_eq!(f_old.0.to_bits(), f_new.0.to_bits());
        for (a, b) in f_old.1.iter().zip(&f_new.1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
