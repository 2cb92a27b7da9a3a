//! Relaxed (continuous) mappings: the optimization variables of DOSA's
//! gradient-descent search (§3.1.2, §5.3).
//!
//! Per layer, DOSA optimizes the temporal tiling factors of the three
//! on-chip levels (registers, accumulator, scratchpad subnests) and the two
//! spatial factors Gemmini's WS dataflow supports, all in log space so they
//! stay positive. DRAM-level factors are not free variables: they are
//! inferred by dividing the problem bound by the product of the inner
//! factors (§5.3.3).

use dosa_accel::{level, Hierarchy, MAX_PE_SIDE, NUM_LEVELS};
use dosa_timeloop::{nearest_divisor, LoopOrder, Mapping, Stationarity};
use dosa_workload::{Dim, Problem, NUM_DIMS};

/// Number of free parameters per layer: 7 dims × 3 on-chip levels temporal
/// + 2 spatial factors.
pub const PARAMS_PER_LAYER: usize = NUM_DIMS * 3 + 2;

/// A continuous mapping for one layer: log-space tiling factors plus a
/// per-level loop-order (stationarity) choice.
///
/// # Examples
///
/// ```
/// use dosa_model::RelaxedMapping;
/// use dosa_timeloop::Stationarity;
/// use dosa_workload::Problem;
///
/// let p = Problem::conv("l", 1, 1, 56, 56, 64, 64, 1)?;
/// let r = RelaxedMapping::identity(Stationarity::WeightStationary);
/// let m = r.round(&p);
/// assert!(m.validate(&p, &dosa_accel::Hierarchy::gemmini()).is_ok());
/// # Ok::<(), dosa_workload::ProblemError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RelaxedMapping {
    /// `log_temporal[i][d]`: log temporal factor of dim `d` at level `i`
    /// (levels 0..3; DRAM inferred).
    pub log_temporal: [[f64; NUM_DIMS]; 3],
    /// Log spatial factor for `C` below the accumulator (`f_{S,1,C}`).
    pub log_spatial_c: f64,
    /// Log spatial factor for `K` below the scratchpad (`f_{S,2,K}`).
    pub log_spatial_k: f64,
    /// Per-level loop-order choice (applied as the canonical ordering).
    pub orders: [Stationarity; NUM_LEVELS],
}

impl RelaxedMapping {
    /// All factors 1 (everything at DRAM), with a uniform ordering.
    pub fn identity(order: Stationarity) -> RelaxedMapping {
        RelaxedMapping {
            log_temporal: [[0.0; NUM_DIMS]; 3],
            log_spatial_c: 0.0,
            log_spatial_k: 0.0,
            orders: [order; NUM_LEVELS],
        }
    }

    /// Lift an integer mapping into log space (DRAM temporal factors are
    /// dropped; they are re-inferred on evaluation and rounding).
    ///
    /// Loop orders are preserved only if they are canonical orderings; any
    /// other permutation maps to the nearest canonical choice by innermost
    /// dimension.
    pub fn from_mapping(m: &Mapping) -> RelaxedMapping {
        let mut log_temporal = [[0.0; NUM_DIMS]; 3];
        for (i, row) in log_temporal.iter_mut().enumerate() {
            for d in Dim::ALL {
                row[d.index()] = (m.temporal(i, d) as f64).ln();
            }
        }
        let orders = core::array::from_fn(|i| {
            let ord = &m.orders[i];
            *Stationarity::ALL
                .iter()
                .find(|s| LoopOrder::canonical(**s) == *ord)
                .unwrap_or(&Stationarity::WeightStationary)
        });
        RelaxedMapping {
            log_temporal,
            log_spatial_c: (m.spatial(level::ACCUMULATOR, Dim::C) as f64).ln(),
            log_spatial_k: (m.spatial(level::SCRATCHPAD, Dim::K) as f64).ln(),
            orders,
        }
    }

    /// Flatten to the parameter vector Adam optimizes (length
    /// [`PARAMS_PER_LAYER`]); layout: temporal level-major, then spatial C,
    /// spatial K.
    pub fn params(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(PARAMS_PER_LAYER);
        self.params_into(&mut v);
        v
    }

    /// Append the [`RelaxedMapping::params`] vector to `out` without
    /// allocating — the engine's per-step parameter refill path.
    pub fn params_into(&self, out: &mut Vec<f64>) {
        for row in &self.log_temporal {
            out.extend_from_slice(row);
        }
        out.push(self.log_spatial_c);
        out.push(self.log_spatial_k);
    }

    /// Inverse of [`RelaxedMapping::params`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != PARAMS_PER_LAYER`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), PARAMS_PER_LAYER);
        for (i, row) in self.log_temporal.iter_mut().enumerate() {
            row.copy_from_slice(&params[i * NUM_DIMS..(i + 1) * NUM_DIMS]);
        }
        self.log_spatial_c = params[3 * NUM_DIMS];
        self.log_spatial_k = params[3 * NUM_DIMS + 1];
    }

    /// The continuous factor value at `(level, dim)` for levels 0..3.
    pub fn temporal_value(&self, lvl: usize, d: Dim) -> f64 {
        self.log_temporal[lvl][d.index()].exp()
    }

    /// The inferred continuous DRAM factor for `d` (§5.3.3): the problem
    /// bound divided by the product of all inner factors.
    pub fn dram_factor(&self, problem: &Problem, d: Dim) -> f64 {
        let mut inner = 1.0f64;
        for lvl in 0..3 {
            inner *= self.temporal_value(lvl, d);
        }
        if d == Dim::C {
            inner *= self.log_spatial_c.exp();
        }
        if d == Dim::K {
            inner *= self.log_spatial_k.exp();
        }
        problem.size(d) as f64 / inner
    }

    /// Round to the nearest valid integer mapping (§5.3.2): for each
    /// dimension, walk factors innermost-to-outermost, rounding each to the
    /// nearest divisor of the remaining quotient (spatial factors capped at
    /// [`MAX_PE_SIDE`]); the DRAM factor absorbs the remainder.
    pub fn round(&self, problem: &Problem) -> Mapping {
        self.round_with_cap(problem, MAX_PE_SIDE)
    }

    /// [`RelaxedMapping::round`] with a tighter spatial cap — used when the
    /// PE array side is pinned (the Fig. 12 setting).
    pub fn round_with_cap(&self, problem: &Problem, spatial_cap: u64) -> Mapping {
        let cap = spatial_cap.clamp(1, MAX_PE_SIDE);
        let mut temporal = [[1u64; NUM_DIMS]; NUM_LEVELS];
        let mut spatial = [[1u64; NUM_DIMS]; NUM_LEVELS];

        for d in Dim::ALL {
            let mut remaining = problem.size(d);
            // Innermost to outermost: T0, S1 (C only), T1, S2 (K only), T2.
            let take = |target: f64, cap: Option<u64>, remaining: &mut u64| -> u64 {
                let f = nearest_divisor(*remaining, target, cap);
                *remaining /= f;
                f
            };
            temporal[0][d.index()] = take(self.temporal_value(0, d), None, &mut remaining);
            if d == Dim::C {
                spatial[level::ACCUMULATOR][d.index()] = take(
                    self.log_spatial_c.exp(),
                    Some(cap.min(remaining.max(1))),
                    &mut remaining,
                );
            }
            temporal[1][d.index()] = take(self.temporal_value(1, d), None, &mut remaining);
            if d == Dim::K {
                spatial[level::SCRATCHPAD][d.index()] = take(
                    self.log_spatial_k.exp(),
                    Some(cap.min(remaining.max(1))),
                    &mut remaining,
                );
            }
            temporal[2][d.index()] = take(self.temporal_value(2, d), None, &mut remaining);
            temporal[level::DRAM][d.index()] = remaining;
        }

        let orders = core::array::from_fn(|i| LoopOrder::canonical(self.orders[i]));
        Mapping {
            temporal,
            spatial,
            orders,
        }
    }
}

/// Round a slice of per-layer relaxed mappings and validate them.
///
/// # Panics
///
/// Panics if rounding ever produces an invalid mapping (a bug — rounding is
/// correct by construction).
pub fn round_all(
    relaxed: &[RelaxedMapping],
    problems: &[Problem],
    hier: &Hierarchy,
) -> Vec<Mapping> {
    relaxed
        .iter()
        .zip(problems)
        .map(|(r, p)| {
            let m = r.round(p);
            m.validate(p, hier)
                .unwrap_or_else(|e| panic!("rounding produced invalid mapping for {p}: {e}"));
            m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> Problem {
        Problem::conv("t", 3, 3, 56, 56, 64, 96, 1).unwrap()
    }

    #[test]
    fn round_trip_preserves_integer_mappings() {
        let p = problem();
        let hier = Hierarchy::gemmini();
        let mut rng_mapping = Mapping::all_at_dram(&p);
        rng_mapping.temporal[0][Dim::Q.index()] = 14;
        rng_mapping.temporal[1][Dim::P.index()] = 8;
        rng_mapping.temporal[3][Dim::Q.index()] = 4;
        rng_mapping.temporal[3][Dim::P.index()] = 7;
        rng_mapping.temporal[3][Dim::R.index()] = 3;
        rng_mapping.temporal[3][Dim::S.index()] = 1;
        rng_mapping.temporal[0][Dim::S.index()] = 3;
        rng_mapping.temporal[3][Dim::N.index()] = 1;
        rng_mapping.temporal[3][Dim::C.index()] = 1;
        rng_mapping.spatial[level::ACCUMULATOR][Dim::C.index()] = 64;
        rng_mapping.spatial[level::SCRATCHPAD][Dim::K.index()] = 32;
        rng_mapping.temporal[3][Dim::K.index()] = 3;
        rng_mapping.validate(&p, &hier).unwrap();

        let relaxed = RelaxedMapping::from_mapping(&rng_mapping);
        let rounded = relaxed.round(&p);
        assert_eq!(rounded, {
            let mut expect = rng_mapping.clone();
            // Orders collapse to canonical (they already are).
            expect.orders = rng_mapping.orders;
            expect
        });
    }

    #[test]
    fn rounding_always_valid_even_from_garbage() {
        let p = problem();
        let hier = Hierarchy::gemmini();
        for seed in 0..50 {
            let mut r = RelaxedMapping::identity(Stationarity::WeightStationary);
            // Deterministic pseudo-garbage parameters in [-2, 4).
            let mut v = Vec::new();
            let mut x = seed as f64 * 0.7368;
            for _ in 0..PARAMS_PER_LAYER {
                x = (x * 9301.0 + 49297.0) % 233280.0;
                v.push(x / 233280.0 * 6.0 - 2.0);
            }
            r.set_params(&v);
            let m = r.round(&p);
            m.validate(&p, &hier)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn params_round_trip() {
        let mut r = RelaxedMapping::identity(Stationarity::OutputStationary);
        let v: Vec<f64> = (0..PARAMS_PER_LAYER)
            .map(|i| i as f64 * 0.1 - 1.0)
            .collect();
        r.set_params(&v);
        assert_eq!(r.params(), v);
    }

    #[test]
    fn dram_factor_inference() {
        let p = problem();
        let mut r = RelaxedMapping::identity(Stationarity::WeightStationary);
        r.log_temporal[0][Dim::P.index()] = (7.0f64).ln();
        assert!((r.dram_factor(&p, Dim::P) - 8.0).abs() < 1e-9);
        assert!((r.dram_factor(&p, Dim::K) - 96.0).abs() < 1e-9);
        r.log_spatial_k = (8.0f64).ln();
        assert!((r.dram_factor(&p, Dim::K) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn spatial_rounding_respects_pe_cap() {
        let p = Problem::conv("wide", 1, 1, 4, 4, 512, 512, 1).unwrap();
        let mut r = RelaxedMapping::identity(Stationarity::WeightStationary);
        r.log_spatial_c = (512.0f64).ln();
        r.log_spatial_k = (512.0f64).ln();
        let m = r.round(&p);
        assert!(m.spatial(level::ACCUMULATOR, Dim::C) <= MAX_PE_SIDE);
        assert!(m.spatial(level::SCRATCHPAD, Dim::K) <= MAX_PE_SIDE);
        m.validate(&p, &Hierarchy::gemmini()).unwrap();
    }
}
