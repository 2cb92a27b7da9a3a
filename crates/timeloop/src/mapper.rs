//! Random mapping samplers: the random mapper used by the random-search
//! baseline and the random-pruned mapper used to evaluate fixed accelerators
//! (§6.1, §6.3).

use crate::divisors::factorize;
use crate::mapping::{LoopOrder, Mapping, Stationarity};
use crate::perf::{LayerEvaluator, LayerPerf};
use dosa_accel::{HardwareConfig, Hierarchy, MAX_PE_SIDE, NUM_LEVELS};
use dosa_workload::{Dim, Problem, NUM_DIMS};
use rand::Rng;

/// Most slots a dimension's factors can go to: every temporal level plus
/// two (double-weighted) spatial slots per level.
const MAX_SLOTS: usize = 3 * NUM_LEVELS;

/// One dimension's share of a [`MapSampler`].
#[derive(Debug, Clone, Copy)]
struct DimSlots {
    /// End of this dimension's run in the sampler's `primes`.
    primes_end: usize,
    /// Number of slots, the bound of each factor's `gen_range` draw.
    n: usize,
    /// Row of the draw's factor table each slot multiplies: temporal
    /// level `i` is row `i`, spatial level `i` row `NUM_LEVELS + i`.
    rows: [usize; MAX_SLOTS],
}

/// A random-mapping sampler for one `(problem, hierarchy, spatial cap)`,
/// with everything that does not depend on the random draws worked out
/// once: each dimension's prime factors and the table of slots they are
/// dealt to.
///
/// A draw deals each dimension's prime factors (in increasing order) over
/// the temporal slots of levels 0..3 plus the architecturally allowed
/// spatial slots, with one `gen_range` call per factor; spatial slots are
/// listed twice so that random samples exercise the array. Spatial factors
/// are capped at `spatial_cap` by demoting their smallest primes to the
/// same level's temporal slot. Loop orders are drawn uniformly from the
/// canonical WS/IS/OS orderings per level (the DOSA search space, §5.2.1).
///
/// Building a sampler allocates; a [`draw`](MapSampler::draw) does not.
///
/// # Examples
///
/// ```
/// use dosa_accel::Hierarchy;
/// use dosa_timeloop::MapSampler;
/// use dosa_workload::Problem;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let p = Problem::conv("l", 3, 3, 28, 28, 64, 64, 1)?;
/// let hier = Hierarchy::gemmini();
/// let sampler = MapSampler::new(&p, &hier, 16);
/// let mut rng = StdRng::seed_from_u64(1);
/// let m = sampler.draw(&mut rng);
/// assert!(m.validate(&p, &hier).is_ok());
/// # Ok::<(), dosa_workload::ProblemError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MapSampler {
    /// Every dimension's prime factors with multiplicity, dimensions in
    /// canonical order, primes increasing within a dimension.
    primes: Vec<u64>,
    dims: [DimSlots; NUM_DIMS],
    /// Largest spatial factor a draw keeps.
    cap: u64,
    /// The canonical loop order of each [`Stationarity`].
    orders: [LoopOrder; 3],
}

impl MapSampler {
    /// Precompute the sampler for `problem` on `hier`, capping spatial
    /// factors at `spatial_cap` (clamped to `1..=MAX_PE_SIDE`).
    pub fn new(problem: &Problem, hier: &Hierarchy, spatial_cap: u64) -> MapSampler {
        let mut primes = Vec::new();
        let mut dims = [DimSlots {
            primes_end: 0,
            n: 0,
            rows: [0; MAX_SLOTS],
        }; NUM_DIMS];
        for (slots, d) in dims.iter_mut().zip(Dim::ALL) {
            for (p, e) in factorize(problem.size(d)) {
                primes.extend((0..e).map(|_| p));
            }
            slots.primes_end = primes.len();
            for i in 0..NUM_LEVELS {
                slots.rows[slots.n] = i;
                slots.n += 1;
            }
            for i in 0..NUM_LEVELS {
                if hier.spatial_dims(i).contains(d) {
                    slots.rows[slots.n] = NUM_LEVELS + i;
                    slots.rows[slots.n + 1] = NUM_LEVELS + i;
                    slots.n += 2;
                }
            }
        }
        MapSampler {
            primes,
            dims,
            cap: spatial_cap.clamp(1, MAX_PE_SIDE),
            orders: Stationarity::ALL.map(LoopOrder::canonical),
        }
    }

    /// Draw one structurally valid random mapping.
    pub fn draw(&self, rng: &mut impl Rng) -> Mapping {
        let mut rows = [[1u64; NUM_DIMS]; 2 * NUM_LEVELS];
        let mut start = 0;
        for (d, slots) in self.dims.iter().enumerate() {
            let primes = &self.primes[start..slots.primes_end];
            start = slots.primes_end;
            for &p in primes {
                rows[slots.rows[rng.gen_range(0..slots.n)]][d] *= p;
            }
            // Enforce the spatial cap by demoting the smallest prime
            // factors to the same level's temporal slot.
            for i in 0..NUM_LEVELS {
                for &p in primes {
                    let s = rows[NUM_LEVELS + i][d];
                    if s <= self.cap {
                        break;
                    }
                    if s % p == 0 {
                        rows[NUM_LEVELS + i][d] = s / p;
                        rows[i][d] *= p;
                    }
                }
            }
        }

        let mut orders = [LoopOrder::default(); NUM_LEVELS];
        for o in orders.iter_mut() {
            *o = self.orders[rng.gen_range(0..3usize)];
        }

        let mut m = Mapping {
            temporal: [[1; NUM_DIMS]; NUM_LEVELS],
            spatial: [[1; NUM_DIMS]; NUM_LEVELS],
            orders,
        };
        m.temporal.copy_from_slice(&rows[..NUM_LEVELS]);
        m.spatial.copy_from_slice(&rows[NUM_LEVELS..]);
        m
    }
}

/// Sample one structurally valid random mapping for `problem`: a single
/// [`MapSampler::draw`]. Loops that draw many mappings for one problem
/// should build the sampler once instead.
pub fn random_mapping(
    rng: &mut impl Rng,
    problem: &Problem,
    hier: &Hierarchy,
    spatial_cap: u64,
) -> Mapping {
    MapSampler::new(problem, hier, spatial_cap).draw(rng)
}

/// Result of a pruned random mapspace search.
#[derive(Debug, Clone)]
pub struct MapperResult {
    /// Best mapping found.
    pub mapping: Mapping,
    /// Its reference-model performance.
    pub perf: LayerPerf,
    /// Number of valid (fitting) samples evaluated.
    pub valid_samples: usize,
}

/// Timeloop-style random-pruned mapper: sample `samples` random mappings for
/// `problem`, keep those that fit `hw`, and return the best by per-layer EDP.
///
/// Returns `None` if no sampled mapping fits (e.g. the problem's minimum
/// footprint exceeds the buffers). A fitting draw is evaluated in full
/// only if [`LayerEvaluator::fitting_below`] says it could beat the best
/// so far; one that cannot would not be kept.
pub fn random_pruned_search(
    rng: &mut impl Rng,
    problem: &Problem,
    hw: &HardwareConfig,
    hier: &Hierarchy,
    samples: usize,
) -> Option<MapperResult> {
    let sampler = MapSampler::new(problem, hier, hw.pe_side());
    let eval = LayerEvaluator::new(problem, hw, hier);
    let mut best: Option<(Mapping, LayerPerf)> = None;
    let mut valid = 0usize;
    for _ in 0..samples {
        let m = sampler.draw(rng);
        let Some(better) = improves(&eval, &m, &best) else {
            continue;
        };
        valid += 1;
        if let Some(perf) = better {
            best = Some((m, perf));
        }
    }
    best.map(|(mapping, perf)| MapperResult {
        mapping,
        perf,
        valid_samples: valid,
    })
}

/// One step of a keep-the-best fold over mappings of one layer: `None`
/// if `m` does not fit, otherwise `Some` of its performance if its EDP
/// beats `best`'s (or nothing is kept yet) and `Some(None)` if not.
pub(crate) fn improves(
    eval: &LayerEvaluator<'_>,
    m: &Mapping,
    best: &Option<(Mapping, LayerPerf)>,
) -> Option<Option<LayerPerf>> {
    let threshold = best.as_ref().map_or(f64::INFINITY, |(_, b)| b.edp());
    let perf = eval.fitting_below(m, threshold)?;
    Some(perf.filter(|p| best.as_ref().is_none_or(|(_, b)| p.edp() < b.edp())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{evaluate_layer, fits};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_mappings_are_valid() {
        let mut rng = StdRng::seed_from_u64(7);
        let h = Hierarchy::gemmini();
        let p = Problem::conv("c", 3, 3, 56, 56, 64, 128, 1).unwrap();
        for _ in 0..200 {
            let m = random_mapping(&mut rng, &p, &h, 128);
            m.validate(&p, &h).unwrap();
        }
    }

    #[test]
    fn spatial_cap_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = Hierarchy::gemmini();
        let p = Problem::conv("c", 1, 1, 4, 4, 512, 512, 1).unwrap();
        for _ in 0..100 {
            let m = random_mapping(&mut rng, &p, &h, 16);
            for i in 0..NUM_LEVELS {
                for d in Dim::ALL {
                    assert!(m.spatial(i, d) <= 16);
                }
            }
            m.validate(&p, &h).unwrap();
        }
    }

    #[test]
    fn pruned_search_improves_over_first_sample() {
        let mut rng = StdRng::seed_from_u64(11);
        let h = Hierarchy::gemmini();
        let p = Problem::conv("c", 3, 3, 28, 28, 128, 128, 1).unwrap();
        let hw = HardwareConfig::gemmini_default();
        let first = loop {
            let m = random_mapping(&mut rng, &p, &h, hw.pe_side());
            if fits(&p, &m, &hw, &h) {
                break evaluate_layer(&p, &m, &hw, &h);
            }
        };
        let best = random_pruned_search(&mut rng, &p, &hw, &h, 300).expect("some fit");
        assert!(best.perf.edp() <= first.edp());
        assert!(best.valid_samples > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let h = Hierarchy::gemmini();
        let p = Problem::conv("c", 3, 3, 14, 14, 256, 256, 1).unwrap();
        let m1 = random_mapping(&mut StdRng::seed_from_u64(42), &p, &h, 64);
        let m2 = random_mapping(&mut StdRng::seed_from_u64(42), &p, &h, 64);
        assert_eq!(m1, m2);
    }
}
