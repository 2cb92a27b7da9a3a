//! Integer mapping representation: temporal/spatial tiling factors per
//! memory level plus per-level loop orders (§3.1.2).

use dosa_accel::{Hierarchy, MAX_PE_SIDE, NUM_LEVELS};
use dosa_workload::{Dim, DimSet, Problem, Tensor, NUM_DIMS};

use std::fmt;

/// A permutation of the seven problem dimensions, innermost loop first,
/// fixing the loop ordering at one memory level (§3.1.2 decision 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopOrder([Dim; NUM_DIMS]);

/// The three canonical per-level orderings DOSA searches over (§5.2.1):
/// each keeps one tensor stationary by placing the dimensions irrelevant to
/// it innermost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stationarity {
    /// Weight-stationary: `{P,Q,N}` innermost.
    WeightStationary,
    /// Input-stationary: `{K}` innermost.
    InputStationary,
    /// Output-stationary: `{R,S,C}` innermost.
    OutputStationary,
}

impl Stationarity {
    /// All three options, in the paper's WS/IS/OS order.
    pub const ALL: [Stationarity; 3] = [
        Stationarity::WeightStationary,
        Stationarity::InputStationary,
        Stationarity::OutputStationary,
    ];

    /// Short display name ("WS"/"IS"/"OS").
    pub fn name(self) -> &'static str {
        match self {
            Stationarity::WeightStationary => "WS",
            Stationarity::InputStationary => "IS",
            Stationarity::OutputStationary => "OS",
        }
    }

    /// The tensor kept stationary.
    pub fn tensor(self) -> Tensor {
        match self {
            Stationarity::WeightStationary => Tensor::Weights,
            Stationarity::InputStationary => Tensor::Inputs,
            Stationarity::OutputStationary => Tensor::Outputs,
        }
    }
}

impl fmt::Display for Stationarity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl LoopOrder {
    /// Build an order from an explicit innermost-first permutation.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is not a permutation of all seven dimensions.
    pub fn new(dims: [Dim; NUM_DIMS]) -> LoopOrder {
        let set: DimSet = dims.into_iter().collect();
        assert_eq!(set, DimSet::FULL, "loop order must be a permutation");
        LoopOrder(dims)
    }

    /// The canonical ordering minimizing refetches of `s.tensor()`:
    /// dimensions irrelevant to that tensor are placed innermost.
    pub fn canonical(s: Stationarity) -> LoopOrder {
        let rel = s.tensor().dims();
        let mut dims = [Dim::R; NUM_DIMS];
        let mut i = 0;
        for d in Dim::ALL {
            if !rel.contains(d) {
                dims[i] = d;
                i += 1;
            }
        }
        for d in Dim::ALL {
            if rel.contains(d) {
                dims[i] = d;
                i += 1;
            }
        }
        LoopOrder(dims)
    }

    /// Dimensions, innermost first.
    pub fn dims(&self) -> &[Dim; NUM_DIMS] {
        &self.0
    }

    /// Position of `d` (0 = innermost).
    pub fn position(&self, d: Dim) -> usize {
        self.0
            .iter()
            .position(|&x| x == d)
            .expect("order contains every dim")
    }
}

impl Default for LoopOrder {
    fn default() -> Self {
        LoopOrder::canonical(Stationarity::WeightStationary)
    }
}

impl fmt::Display for LoopOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, "<")?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Why a mapping is invalid for a problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MappingError {
    /// The product of factors for a dimension does not equal the problem
    /// bound.
    ProductMismatch {
        /// Offending dimension.
        dim: Dim,
        /// Product of all (temporal × spatial) factors of that dimension.
        product: u64,
        /// The problem's bound for that dimension.
        expected: u64,
    },
    /// A spatial factor was placed at a (level, dim) the hardware cannot
    /// unroll.
    DisallowedSpatial {
        /// Memory level of the offending factor.
        level: usize,
        /// Offending dimension.
        dim: Dim,
    },
    /// A spatial factor exceeds the maximum PE array side.
    SpatialTooLarge {
        /// Offending dimension.
        dim: Dim,
        /// The factor value.
        factor: u64,
    },
    /// A factor was zero.
    ZeroFactor,
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MappingError::ProductMismatch {
                dim,
                product,
                expected,
            } => write!(
                f,
                "factors of {dim} multiply to {product}, problem needs {expected}"
            ),
            MappingError::DisallowedSpatial { level, dim } => {
                write!(f, "spatial factor for {dim} not allowed at level {level}")
            }
            MappingError::SpatialTooLarge { dim, factor } => {
                write!(f, "spatial factor {factor} for {dim} exceeds {MAX_PE_SIDE}")
            }
            MappingError::ZeroFactor => write!(f, "tiling factors must be at least 1"),
        }
    }
}

impl std::error::Error for MappingError {}

/// An integer mapping: temporal and spatial tiling factors for every
/// (memory level, dimension) pair, plus a loop order per level.
///
/// Conventions (see also the `traffic` module docs):
/// * `temporal[i][d]` is the bound of the temporal loop for dimension `d`
///   in level `i`'s subnest (level 3 = DRAM loops, level 0 = innermost).
/// * `spatial[i][d]` is the spatial fanout below level `i` (Gemmini WS
///   allows `C` below the accumulator and `K` below the scratchpad; Eq. 1).
/// * For each dimension the product of every factor equals the problem
///   bound.
///
/// # Examples
///
/// ```
/// use dosa_timeloop::Mapping;
/// use dosa_workload::Problem;
/// use dosa_accel::Hierarchy;
///
/// let p = Problem::conv("l", 1, 1, 56, 56, 64, 64, 1)?;
/// let m = Mapping::all_at_dram(&p);
/// assert!(m.validate(&p, &Hierarchy::gemmini()).is_ok());
/// # Ok::<(), dosa_workload::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Temporal factors per level per dim.
    pub temporal: [[u64; NUM_DIMS]; NUM_LEVELS],
    /// Spatial factors per level per dim.
    pub spatial: [[u64; NUM_DIMS]; NUM_LEVELS],
    /// Loop order per level (applies to the level's temporal subnest).
    pub orders: [LoopOrder; NUM_LEVELS],
}

impl Mapping {
    /// The trivial mapping: every loop at DRAM, no spatial unrolling.
    pub fn all_at_dram(problem: &Problem) -> Mapping {
        let mut temporal = [[1u64; NUM_DIMS]; NUM_LEVELS];
        temporal[NUM_LEVELS - 1] = problem.sizes();
        Mapping {
            temporal,
            spatial: [[1; NUM_DIMS]; NUM_LEVELS],
            orders: [LoopOrder::default(); NUM_LEVELS],
        }
    }

    /// Temporal factor at `(level, dim)`.
    #[inline]
    pub fn temporal(&self, level: usize, d: Dim) -> u64 {
        self.temporal[level][d.index()]
    }

    /// Spatial factor at `(level, dim)`.
    #[inline]
    pub fn spatial(&self, level: usize, d: Dim) -> u64 {
        self.spatial[level][d.index()]
    }

    /// Product of temporal and spatial factors for dimension `d` across all
    /// levels.
    pub fn product(&self, d: Dim) -> u64 {
        let mut p = 1u64;
        for i in 0..NUM_LEVELS {
            p = p
                .saturating_mul(self.temporal[i][d.index()])
                .saturating_mul(self.spatial[i][d.index()]);
        }
        p
    }

    /// Product of every spatial factor — the number of PEs a mapping
    /// utilizes (denominator of Eq. 12's compute latency).
    pub fn spatial_product(&self) -> u64 {
        let mut p = 1u64;
        for lvl in &self.spatial {
            for &f in lvl {
                p = p.saturating_mul(f);
            }
        }
        p
    }

    /// Check structural validity against a problem and hierarchy
    /// (§3.1.2's product constraint, spatial placement, PE cap).
    ///
    /// # Errors
    ///
    /// Returns the first [`MappingError`] found.
    pub fn validate(&self, problem: &Problem, hier: &Hierarchy) -> Result<(), MappingError> {
        for lvl in 0..NUM_LEVELS {
            for d in Dim::ALL {
                if self.temporal[lvl][d.index()] == 0 || self.spatial[lvl][d.index()] == 0 {
                    return Err(MappingError::ZeroFactor);
                }
                let s = self.spatial[lvl][d.index()];
                if s > 1 {
                    if !hier.spatial_dims(lvl).contains(d) {
                        return Err(MappingError::DisallowedSpatial { level: lvl, dim: d });
                    }
                    if s > MAX_PE_SIDE {
                        return Err(MappingError::SpatialTooLarge { dim: d, factor: s });
                    }
                }
            }
        }
        for d in Dim::ALL {
            let product = self.product(d);
            let expected = problem.size(d);
            if product != expected {
                return Err(MappingError::ProductMismatch {
                    dim: d,
                    product,
                    expected,
                });
            }
        }
        Ok(())
    }

    /// Set every level's loop order from per-level stationarity choices.
    pub fn set_orders(&mut self, per_level: [Stationarity; NUM_LEVELS]) {
        for (i, s) in per_level.into_iter().enumerate() {
            self.orders[i] = LoopOrder::canonical(s);
        }
    }
}

impl fmt::Display for Mapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for lvl in (0..NUM_LEVELS).rev() {
            write!(f, "L{lvl} [{}]:", self.orders[lvl])?;
            for d in Dim::ALL {
                let t = self.temporal(lvl, d);
                let s = self.spatial(lvl, d);
                if t > 1 {
                    write!(f, " {d}t{t}")?;
                }
                if s > 1 {
                    write!(f, " {d}s{s}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) use tests::fig3_mapping;

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_accel::level;

    fn fig3_problem() -> Problem {
        Problem::conv("fig3", 1, 1, 56, 56, 64, 64, 1).unwrap()
    }

    /// The mapping shown in Figure 3 of the paper.
    pub(crate) fn fig3_mapping() -> Mapping {
        let mut m = Mapping::all_at_dram(&fig3_problem());
        // DRAM: p3 in [0:56), q3 in [0:4)
        m.temporal[level::DRAM] = [1; NUM_DIMS];
        m.temporal[level::DRAM][Dim::P.index()] = 56;
        m.temporal[level::DRAM][Dim::Q.index()] = 4;
        // spatial k2 = 64 below scratchpad, spatial c1 = 64 below accumulator
        m.spatial[level::SCRATCHPAD][Dim::K.index()] = 64;
        m.spatial[level::ACCUMULATOR][Dim::C.index()] = 64;
        // registers subnest: q0 in [0:14)
        m.temporal[level::REGISTERS][Dim::Q.index()] = 14;
        m
    }

    #[test]
    fn fig3_mapping_is_valid() {
        let p = fig3_problem();
        let m = fig3_mapping();
        assert!(m.validate(&p, &Hierarchy::gemmini()).is_ok());
        assert_eq!(m.spatial_product(), 4096);
        assert_eq!(m.product(Dim::Q), 56);
    }

    #[test]
    fn product_mismatch_detected() {
        let p = fig3_problem();
        let mut m = fig3_mapping();
        m.temporal[level::DRAM][Dim::P.index()] = 28;
        let err = m.validate(&p, &Hierarchy::gemmini()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::ProductMismatch {
                dim: Dim::P,
                product: 28,
                expected: 56
            }
        ));
    }

    #[test]
    fn disallowed_spatial_detected() {
        let p = fig3_problem();
        let mut m = fig3_mapping();
        // Move the C spatial factor to the scratchpad level, which only
        // allows K.
        m.spatial[level::ACCUMULATOR][Dim::C.index()] = 1;
        m.spatial[level::SCRATCHPAD][Dim::C.index()] = 64;
        let err = m.validate(&p, &Hierarchy::gemmini()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::DisallowedSpatial {
                level: 2,
                dim: Dim::C
            }
        ));
    }

    #[test]
    fn spatial_cap_detected() {
        let p = Problem::conv("big", 1, 1, 1, 1, 256, 1, 1).unwrap();
        let mut m = Mapping::all_at_dram(&p);
        m.temporal[level::DRAM][Dim::C.index()] = 1;
        m.spatial[level::ACCUMULATOR][Dim::C.index()] = 256;
        let err = m.validate(&p, &Hierarchy::gemmini()).unwrap_err();
        assert!(matches!(
            err,
            MappingError::SpatialTooLarge {
                dim: Dim::C,
                factor: 256
            }
        ));
    }

    #[test]
    fn zero_factor_detected() {
        let p = fig3_problem();
        let mut m = fig3_mapping();
        m.temporal[level::REGISTERS][Dim::R.index()] = 0;
        assert_eq!(
            m.validate(&p, &Hierarchy::gemmini()),
            Err(MappingError::ZeroFactor)
        );
    }

    #[test]
    fn canonical_orders_put_irrelevant_innermost() {
        let ws = LoopOrder::canonical(Stationarity::WeightStationary);
        // First three dims must be the non-weight dims {P, Q, N}.
        let inner: DimSet = ws.dims()[..3].iter().copied().collect();
        assert_eq!(inner, Tensor::Weights.dims().complement());

        let os = LoopOrder::canonical(Stationarity::OutputStationary);
        let inner: DimSet = os.dims()[..3].iter().copied().collect();
        assert_eq!(inner, Tensor::Outputs.dims().complement());

        let is = LoopOrder::canonical(Stationarity::InputStationary);
        assert_eq!(is.dims()[0], Dim::K);
        assert_eq!(is.position(Dim::K), 0);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn loop_order_rejects_duplicates() {
        let _ = LoopOrder::new([Dim::R; NUM_DIMS]);
    }

    #[test]
    fn display_shows_nontrivial_factors() {
        let s = fig3_mapping().to_string();
        assert!(s.contains("Pt56"));
        assert!(s.contains("Ks64"));
        assert!(s.contains("Qt14"));
    }
}
