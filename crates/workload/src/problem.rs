//! Layer ("problem") descriptions: a seven-dimensional iteration space plus
//! convolution strides.

use crate::dims::{Dim, Tensor, NUM_DIMS};

use std::fmt;

/// Whether a layer is a convolution or a (possibly batched) matrix multiply.
///
/// Matrix multiplies are expressed in the same seven-dimensional space with
/// `R = S = Q = 1`: `P` is the output-row dimension (M), `C` the reduction
/// dimension, and `K` the output-column dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// A 2-D convolution.
    Conv,
    /// A matrix multiplication (fully-connected layer, attention matmul, ...).
    Matmul,
}

impl LayerKind {
    /// The kind's lowercase name, as `Display` prints it.
    pub fn name(self) -> &'static str {
        match self {
            LayerKind::Conv => "conv",
            LayerKind::Matmul => "matmul",
        }
    }
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when constructing an invalid [`Problem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A dimension bound was zero.
    ZeroDim(Dim),
    /// A stride was zero.
    ZeroStride,
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::ZeroDim(d) => write!(f, "dimension {d} must be at least 1"),
            ProblemError::ZeroStride => write!(f, "strides must be at least 1"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// A single DNN layer expressed as a seven-dimensional iteration space
/// (§3.1.1 of the paper).
///
/// # Examples
///
/// ```
/// use dosa_workload::{Dim, Problem};
/// let conv = Problem::conv("conv1", 3, 3, 56, 56, 64, 64, 1).unwrap();
/// assert_eq!(conv.size(Dim::C), 64);
/// assert_eq!(conv.macs(), 3 * 3 * 56 * 56 * 64 * 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Problem {
    name: String,
    kind: LayerKind,
    sizes: [u64; NUM_DIMS],
    stride_p: u64,
    stride_q: u64,
}

impl Problem {
    /// Create a problem from explicit bounds `[R,S,P,Q,C,K,N]` and strides.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if any bound or stride is zero.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        sizes: [u64; NUM_DIMS],
        stride_p: u64,
        stride_q: u64,
    ) -> Result<Problem, ProblemError> {
        for (i, &s) in sizes.iter().enumerate() {
            if s == 0 {
                return Err(ProblemError::ZeroDim(
                    Dim::from_index(i).expect("index < 7"),
                ));
            }
        }
        if stride_p == 0 || stride_q == 0 {
            return Err(ProblemError::ZeroStride);
        }
        Ok(Problem {
            name: name.into(),
            kind,
            sizes,
            stride_p,
            stride_q,
        })
    }

    /// Convenience constructor for a convolution with a square stride.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if any bound or the stride is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: impl Into<String>,
        r: u64,
        s: u64,
        p: u64,
        q: u64,
        c: u64,
        k: u64,
        stride: u64,
    ) -> Result<Problem, ProblemError> {
        Problem::new(name, LayerKind::Conv, [r, s, p, q, c, k, 1], stride, stride)
    }

    /// Convenience constructor for a matrix multiply `M×K_red×N_out`
    /// (maps to `P = m`, `C = k_red`, `K = n_out`).
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError`] if any of the three sizes is zero.
    pub fn matmul(
        name: impl Into<String>,
        m: u64,
        k_red: u64,
        n_out: u64,
    ) -> Result<Problem, ProblemError> {
        Problem::new(name, LayerKind::Matmul, [1, 1, m, 1, k_red, n_out, 1], 1, 1)
    }

    /// The layer's name (unique within a network description).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a convolution or a matmul.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Bound of dimension `d`.
    #[inline]
    pub fn size(&self, d: Dim) -> u64 {
        self.sizes[d.index()]
    }

    /// All seven bounds in canonical order `[R,S,P,Q,C,K,N]`.
    #[inline]
    pub fn sizes(&self) -> [u64; NUM_DIMS] {
        self.sizes
    }

    /// Convolution stride along the `P` (height) axis.
    #[inline]
    pub fn stride_p(&self) -> u64 {
        self.stride_p
    }

    /// Convolution stride along the `Q` (width) axis.
    #[inline]
    pub fn stride_q(&self) -> u64 {
        self.stride_q
    }

    /// Total number of multiply-accumulate operations: the product of all
    /// seven bounds (Eq. 7 evaluated on the full problem).
    pub fn macs(&self) -> u64 {
        self.sizes.iter().product()
    }

    /// Number of words in tensor `t` for the full problem.
    ///
    /// Inputs account for the stride-dependent halo:
    /// `H = stride_p·(P−1) + R`, `W = stride_q·(Q−1) + S` (cf. Eq. 3).
    pub fn tensor_size(&self, t: Tensor) -> u64 {
        match t {
            Tensor::Weights => {
                self.size(Dim::R) * self.size(Dim::S) * self.size(Dim::C) * self.size(Dim::K)
            }
            Tensor::Inputs => {
                let h = self.stride_p * (self.size(Dim::P) - 1) + self.size(Dim::R);
                let w = self.stride_q * (self.size(Dim::Q) - 1) + self.size(Dim::S);
                self.size(Dim::C) * self.size(Dim::N) * h * w
            }
            Tensor::Outputs => {
                self.size(Dim::P) * self.size(Dim::Q) * self.size(Dim::K) * self.size(Dim::N)
            }
        }
    }

    /// A stable identity key ignoring the name: two layers with equal shapes
    /// and strides are the same problem for deduplication purposes.
    pub fn shape_key(&self) -> ([u64; NUM_DIMS], u64, u64) {
        (self.sizes, self.stride_p, self.stride_q)
    }
}

impl fmt::Display for Problem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] R={} S={} P={} Q={} C={} K={} N={} stride={}x{}",
            self.name,
            self.kind,
            self.sizes[0],
            self.sizes[1],
            self.sizes[2],
            self.sizes[3],
            self.sizes[4],
            self.sizes[5],
            self.sizes[6],
            self.stride_p,
            self.stride_q
        )
    }
}

/// A layer together with the number of times it appears in the network
/// (§4.5: repeated layers share one mapping, weighted by their count).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// The layer shape.
    pub problem: Problem,
    /// How many times this exact shape appears in the network.
    pub count: u64,
}

impl Layer {
    /// A layer appearing exactly once.
    pub fn once(problem: Problem) -> Layer {
        Layer { problem, count: 1 }
    }

    /// A layer appearing `count` times.
    pub fn repeated(problem: Problem, count: u64) -> Layer {
        Layer { problem, count }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x{}", self.problem, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_tensor_sizes() {
        // The layer from Figure 3 of the paper:
        // N=1, R=1, S=1, P=56, Q=56, C=64, K=64.
        let p = Problem::conv("fig3", 1, 1, 56, 56, 64, 64, 1).unwrap();
        assert_eq!(p.tensor_size(Tensor::Weights), 4096);
        assert_eq!(p.tensor_size(Tensor::Inputs), 200_704);
        assert_eq!(p.tensor_size(Tensor::Outputs), 200_704);
        assert_eq!(p.macs(), 56 * 56 * 64 * 64);
    }

    #[test]
    fn strided_conv_input_halo() {
        let p = Problem::conv("s2", 3, 3, 8, 8, 4, 4, 2).unwrap();
        // H = 2*(8-1)+3 = 17
        assert_eq!(p.tensor_size(Tensor::Inputs), 4 * 17 * 17);
    }

    #[test]
    fn matmul_mapping() {
        let m = Problem::matmul("fc", 512, 768, 3072).unwrap();
        assert_eq!(m.size(Dim::P), 512);
        assert_eq!(m.size(Dim::C), 768);
        assert_eq!(m.size(Dim::K), 3072);
        assert_eq!(m.size(Dim::R), 1);
        assert_eq!(m.macs(), 512 * 768 * 3072);
        assert_eq!(m.tensor_size(Tensor::Weights), 768 * 3072);
        assert_eq!(m.tensor_size(Tensor::Inputs), 512 * 768);
        assert_eq!(m.tensor_size(Tensor::Outputs), 512 * 3072);
    }

    #[test]
    fn rejects_zero_dims_and_strides() {
        assert!(matches!(
            Problem::conv("bad", 0, 3, 8, 8, 4, 4, 1),
            Err(ProblemError::ZeroDim(Dim::R))
        ));
        assert!(matches!(
            Problem::new("bad", LayerKind::Conv, [1; 7], 0, 1),
            Err(ProblemError::ZeroStride)
        ));
    }

    #[test]
    fn shape_key_ignores_name() {
        let a = Problem::conv("a", 3, 3, 8, 8, 4, 4, 1).unwrap();
        let b = Problem::conv("b", 3, 3, 8, 8, 4, 4, 1).unwrap();
        assert_eq!(a.shape_key(), b.shape_key());
        assert_ne!(a, b);
    }

    #[test]
    fn display_contains_fields() {
        let p = Problem::conv("x", 3, 3, 8, 8, 4, 4, 2).unwrap();
        let s = p.to_string();
        assert!(s.contains("x") && s.contains("stride=2x2"));
    }
}
