//! The seven problem dimensions used by DOSA and Timeloop-style models.
//!
//! Following §3.1.1 of the paper, every convolution or matrix-multiplication
//! layer is described by seven iteration-space bounds:
//! `R` (weight height), `S` (weight width), `P` (output height),
//! `Q` (output width), `C` (input channels), `K` (output channels) and
//! `N` (batch size).

use std::fmt;

/// Number of problem dimensions.
pub const NUM_DIMS: usize = 7;

/// A problem dimension (§3.1.1).
///
/// # Examples
///
/// ```
/// use dosa_workload::Dim;
/// assert_eq!(Dim::ALL.len(), 7);
/// assert_eq!(Dim::C.index(), 4);
/// assert_eq!(Dim::from_index(4), Some(Dim::C));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    /// Weight (filter) height.
    R = 0,
    /// Weight (filter) width.
    S = 1,
    /// Output activation height.
    P = 2,
    /// Output activation width.
    Q = 3,
    /// Input channels.
    C = 4,
    /// Output channels.
    K = 5,
    /// Batch size.
    N = 6,
}

impl Dim {
    /// All seven dimensions in canonical order `[R, S, P, Q, C, K, N]`.
    pub const ALL: [Dim; NUM_DIMS] = [Dim::R, Dim::S, Dim::P, Dim::Q, Dim::C, Dim::K, Dim::N];

    /// Canonical index of this dimension (0..7).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Dim::index`]. Returns `None` for out-of-range indices.
    #[inline]
    pub const fn from_index(i: usize) -> Option<Dim> {
        match i {
            0 => Some(Dim::R),
            1 => Some(Dim::S),
            2 => Some(Dim::P),
            3 => Some(Dim::Q),
            4 => Some(Dim::C),
            5 => Some(Dim::K),
            6 => Some(Dim::N),
            _ => None,
        }
    }

    /// Short name of the dimension, e.g. `"C"`.
    pub const fn name(self) -> &'static str {
        match self {
            Dim::R => "R",
            Dim::S => "S",
            Dim::P => "P",
            Dim::Q => "Q",
            Dim::C => "C",
            Dim::K => "K",
            Dim::N => "N",
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One of the three data tensors of a layer (§4.1.1, index `t` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tensor {
    /// Weights `W[K, C, R, S]`.
    Weights = 0,
    /// Input activations `I[N, C, H, W]`.
    Inputs = 1,
    /// Output activations `O[N, K, P, Q]`.
    Outputs = 2,
}

impl Tensor {
    /// All three tensors in canonical order.
    pub const ALL: [Tensor; 3] = [Tensor::Weights, Tensor::Inputs, Tensor::Outputs];

    /// Canonical index (0..3).
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Short name: `"W"`, `"I"` or `"O"`.
    pub const fn name(self) -> &'static str {
        match self {
            Tensor::Weights => "W",
            Tensor::Inputs => "I",
            Tensor::Outputs => "O",
        }
    }

    /// The set of problem dimensions that index this tensor (the paper's
    /// `D_W`, `D_I`, `D_O`).
    ///
    /// ```
    /// use dosa_workload::{Dim, Tensor};
    /// assert!(Tensor::Weights.dims().contains(Dim::C));
    /// assert!(!Tensor::Weights.dims().contains(Dim::P));
    /// ```
    pub const fn dims(self) -> DimSet {
        match self {
            Tensor::Weights => DimSet::WEIGHTS,
            Tensor::Inputs => DimSet::INPUTS,
            Tensor::Outputs => DimSet::OUTPUTS,
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of problem dimensions, stored as a bitmask.
///
/// Used to express tensor relevance (`D_W = {R,S,C,K}` etc., §4.1.1).
///
/// # Examples
///
/// ```
/// use dosa_workload::{Dim, DimSet};
/// let s = DimSet::from_dims(&[Dim::C, Dim::K]);
/// assert!(s.contains(Dim::C));
/// assert_eq!(s.complement().len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DimSet(u8);

impl DimSet {
    /// The empty set.
    pub const EMPTY: DimSet = DimSet(0);
    /// All seven dimensions.
    pub const FULL: DimSet = DimSet(0x7f);
    /// `D_W = {R, S, C, K}` — dimensions indexing the weight tensor.
    pub const WEIGHTS: DimSet = DimSet(
        (1 << Dim::R as u8) | (1 << Dim::S as u8) | (1 << Dim::C as u8) | (1 << Dim::K as u8),
    );
    /// `D_I = {R, S, P, Q, C, N}` — dimensions indexing the input tensor.
    pub const INPUTS: DimSet = DimSet(
        (1 << Dim::R as u8)
            | (1 << Dim::S as u8)
            | (1 << Dim::P as u8)
            | (1 << Dim::Q as u8)
            | (1 << Dim::C as u8)
            | (1 << Dim::N as u8),
    );
    /// `D_O = {P, Q, K, N}` — dimensions indexing the output tensor.
    pub const OUTPUTS: DimSet = DimSet(
        (1 << Dim::P as u8) | (1 << Dim::Q as u8) | (1 << Dim::K as u8) | (1 << Dim::N as u8),
    );

    /// Build a set from a slice of dimensions.
    pub fn from_dims(dims: &[Dim]) -> DimSet {
        let mut mask = 0u8;
        for &d in dims {
            mask |= 1 << d as u8;
        }
        DimSet(mask)
    }

    /// Whether `d` is a member.
    #[inline]
    pub const fn contains(self, d: Dim) -> bool {
        self.0 & (1 << d as u8) != 0
    }

    /// Set with `d` added.
    #[inline]
    #[must_use]
    pub const fn with(self, d: Dim) -> DimSet {
        DimSet(self.0 | (1 << d as u8))
    }

    /// Set with `d` removed.
    #[inline]
    #[must_use]
    pub const fn without(self, d: Dim) -> DimSet {
        DimSet(self.0 & !(1 << d as u8))
    }

    /// Set complement with respect to all seven dimensions
    /// (the paper's `D − D_t`).
    #[inline]
    #[must_use]
    pub const fn complement(self) -> DimSet {
        DimSet(!self.0 & 0x7f)
    }

    /// Union of two sets.
    #[inline]
    #[must_use]
    pub const fn union(self, other: DimSet) -> DimSet {
        DimSet(self.0 | other.0)
    }

    /// Number of members.
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate members in canonical dimension order.
    pub fn iter(self) -> impl Iterator<Item = Dim> {
        Dim::ALL.into_iter().filter(move |&d| self.contains(d))
    }
}

impl fmt::Display for DimSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for d in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Dim> for DimSet {
    fn from_iter<I: IntoIterator<Item = Dim>>(iter: I) -> Self {
        let mut s = DimSet::EMPTY;
        for d in iter {
            s = s.with(d);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_roundtrip() {
        for (i, d) in Dim::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Dim::from_index(i), Some(d));
        }
        assert_eq!(Dim::from_index(7), None);
    }

    #[test]
    fn tensor_dim_sets_match_paper() {
        assert_eq!(
            Tensor::Weights.dims(),
            DimSet::from_dims(&[Dim::R, Dim::S, Dim::C, Dim::K])
        );
        assert_eq!(
            Tensor::Inputs.dims(),
            DimSet::from_dims(&[Dim::R, Dim::S, Dim::P, Dim::Q, Dim::C, Dim::N])
        );
        assert_eq!(
            Tensor::Outputs.dims(),
            DimSet::from_dims(&[Dim::P, Dim::Q, Dim::K, Dim::N])
        );
    }

    #[test]
    fn set_algebra() {
        let w = DimSet::WEIGHTS;
        assert_eq!(w.len(), 4);
        assert_eq!(w.complement(), DimSet::from_dims(&[Dim::P, Dim::Q, Dim::N]));
        assert_eq!(w.union(w.complement()), DimSet::FULL);
        assert!(DimSet::EMPTY.is_empty());
        assert_eq!(w.without(Dim::K).len(), 3);
        assert_eq!(w.with(Dim::K), w);
    }

    #[test]
    fn display_formats() {
        assert_eq!(DimSet::OUTPUTS.to_string(), "{P,Q,K,N}");
        assert_eq!(Dim::C.to_string(), "C");
        assert_eq!(Tensor::Inputs.to_string(), "I");
    }

    #[test]
    fn from_iterator_collects() {
        let s: DimSet = [Dim::R, Dim::N].into_iter().collect();
        assert!(s.contains(Dim::R) && s.contains(Dim::N) && s.len() == 2);
    }

    #[test]
    fn weights_union_inputs_union_outputs_is_full() {
        let u = Tensor::ALL
            .into_iter()
            .fold(DimSet::EMPTY, |acc, t| acc.union(t.dims()));
        assert_eq!(u, DimSet::FULL);
    }
}
