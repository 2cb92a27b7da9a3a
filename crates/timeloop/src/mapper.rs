//! Random mapping samplers: the random mapper used by the random-search
//! baseline and the random-pruned mapper used to evaluate fixed accelerators
//! (§6.1, §6.3).

use crate::divisors::{smallest_prime_factor, split_into_slice};
use crate::mapping::{LoopOrder, Mapping, Stationarity};
use crate::minhw::fits;
use crate::perf::{evaluate_layer, LayerPerf};
use dosa_accel::{HardwareConfig, Hierarchy, MAX_PE_SIDE, NUM_LEVELS};
use dosa_workload::{Dim, Problem, NUM_DIMS};
use rand::Rng;

/// Slot identifiers in the per-dimension factor split, innermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Temporal(usize),
    Spatial(usize),
}

/// Sample a structurally valid random mapping for `problem`.
///
/// Each dimension's prime factors are distributed across the temporal slots
/// of levels 0..3 plus the architecturally allowed spatial slots (spatial
/// slots get double weight so that random samples exercise the array).
/// Spatial factors are capped at `spatial_cap` by demoting excess primes to
/// the same level's temporal slot. Loop orders are drawn uniformly from the
/// canonical WS/IS/OS orderings per level (the DOSA search space, §5.2.1).
pub fn random_mapping(
    rng: &mut impl Rng,
    problem: &Problem,
    hier: &Hierarchy,
    spatial_cap: u64,
) -> Mapping {
    let cap = spatial_cap.clamp(1, MAX_PE_SIDE);
    let mut temporal = [[1u64; NUM_DIMS]; NUM_LEVELS];
    let mut spatial = [[1u64; NUM_DIMS]; NUM_LEVELS];

    for d in Dim::ALL {
        // Build the slot list for this dimension: all temporal levels plus
        // any level that may spatially unroll `d`. Spatial slots are listed
        // twice to weight them up. Fixed arrays keep a draw allocation-free.
        let mut slots = [Slot::Temporal(0); 3 * NUM_LEVELS];
        let mut n = 0;
        for i in 0..NUM_LEVELS {
            slots[n] = Slot::Temporal(i);
            n += 1;
        }
        for i in 0..NUM_LEVELS {
            if hier.spatial_dims(i).contains(d) {
                slots[n] = Slot::Spatial(i);
                slots[n + 1] = Slot::Spatial(i);
                n += 2;
            }
        }
        let mut factors = [1u64; 3 * NUM_LEVELS];
        split_into_slice(problem.size(d), &mut factors[..n], |k| rng.gen_range(0..k));
        for (slot, &f) in slots[..n].iter().zip(&factors[..n]) {
            match slot {
                Slot::Temporal(i) => temporal[*i][d.index()] *= f,
                Slot::Spatial(i) => spatial[*i][d.index()] *= f,
            }
        }
        // Enforce the spatial cap by demoting prime factors to the same
        // level's temporal slot.
        for i in 0..NUM_LEVELS {
            while spatial[i][d.index()] > cap {
                let p = smallest_prime_factor(spatial[i][d.index()]);
                spatial[i][d.index()] /= p;
                temporal[i][d.index()] *= p;
            }
        }
    }

    let mut orders = [LoopOrder::default(); NUM_LEVELS];
    for o in orders.iter_mut() {
        let s = Stationarity::ALL[rng.gen_range(0..3usize)];
        *o = LoopOrder::canonical(s);
    }

    Mapping {
        temporal,
        spatial,
        orders,
    }
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
/// footprint exceeds the buffers).
pub fn random_pruned_search(
    rng: &mut impl Rng,
    problem: &Problem,
    hw: &HardwareConfig,
    hier: &Hierarchy,
    samples: usize,
) -> Option<MapperResult> {
    let mut best: Option<MapperResult> = None;
    let mut valid = 0usize;
    for _ in 0..samples {
        let m = random_mapping(rng, problem, hier, hw.pe_side());
        if !fits(problem, &m, hw, hier) {
            continue;
        }
        valid += 1;
        let perf = evaluate_layer(problem, &m, hw, hier);
        let better = match &best {
            None => true,
            Some(b) => perf.edp() < b.perf.edp(),
        };
        if better {
            best = Some(MapperResult {
                mapping: m,
                perf,
                valid_samples: 0,
            });
        }
    }
    best.map(|mut b| {
        b.valid_samples = valid;
        b
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
