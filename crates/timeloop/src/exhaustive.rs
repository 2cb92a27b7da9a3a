//! Exhaustive mapspace enumeration for small problems.
//!
//! For layers whose dimensions have few divisors, the whole Gemmini
//! mapspace (divisor tilings across the four subnests and two spatial
//! slots, times the canonical per-level orderings) can be enumerated
//! outright. This provides ground-truth optima to validate the heuristic
//! and gradient-based searchers against, and a brute-force oracle for
//! property tests.

use crate::divisors::divisors;
use crate::mapper::improves;
use crate::mapping::{LoopOrder, Mapping, Stationarity};
use crate::perf::{LayerEvaluator, LayerPerf};
use dosa_accel::{level, HardwareConfig, Hierarchy, NUM_LEVELS};
use dosa_workload::{Dim, Problem, NUM_DIMS};

/// Upper bound on enumerated tilings before [`enumerate_mappings`] refuses
/// (protects against accidental combinatorial explosions in tests).
pub const MAX_ENUMERATION: usize = 2_000_000;

/// Enumerate every structurally valid tiling of `problem` (spatial factors
/// capped at `spatial_cap`), invoking `f` for each mapping with every
/// combination of canonical per-level orderings reduced to a single shared
/// choice per level set `orderings` (to bound the count, orderings are
/// enumerated uniformly across levels).
///
/// Returns the number of (tiling, ordering) pairs visited, or `None` if the
/// space exceeds [`MAX_ENUMERATION`].
pub fn enumerate_mappings(
    problem: &Problem,
    hier: &Hierarchy,
    spatial_cap: u64,
    mut f: impl FnMut(&Mapping),
) -> Option<usize> {
    // Per-dimension factor slots, innermost first:
    // T0, S1 (C only), T1, S2 (K only), T2; DRAM absorbs the remainder.
    #[derive(Clone, Copy)]
    enum Slot {
        T(usize),
        S(usize),
    }
    let slots_for = |d: Dim| -> Vec<Slot> {
        let mut v = vec![Slot::T(0)];
        if hier.spatial_dims(level::ACCUMULATOR).contains(d) {
            v.push(Slot::S(level::ACCUMULATOR));
        }
        v.push(Slot::T(1));
        if hier.spatial_dims(level::SCRATCHPAD).contains(d) {
            v.push(Slot::S(level::SCRATCHPAD));
        }
        v.push(Slot::T(2));
        v
    };

    // Enumerate per-dimension assignments recursively.
    fn assignments(n: u64, slots: usize, cap_per_slot: &dyn Fn(usize) -> u64) -> Vec<Vec<u64>> {
        if slots == 0 {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for d in divisors(n) {
            if d > cap_per_slot(0) {
                continue;
            }
            for rest in assignments(n / d, slots - 1, &|i| cap_per_slot(i + 1)) {
                let mut v = Vec::with_capacity(slots);
                v.push(d);
                v.extend(rest);
                out.push(v);
            }
        }
        out
    }

    let mut per_dim: Vec<(Vec<Slot>, Vec<Vec<u64>>)> = Vec::with_capacity(NUM_DIMS);
    let mut total: usize = 1;
    for d in Dim::ALL {
        let slots = slots_for(d);
        let slot_caps: Vec<u64> = slots
            .iter()
            .map(|s| match s {
                Slot::T(_) => u64::MAX,
                Slot::S(_) => spatial_cap,
            })
            .collect();
        let asg = assignments(problem.size(d), slots.len(), &move |i| slot_caps[i]);
        total = total.checked_mul(asg.len())?;
        if total > MAX_ENUMERATION {
            return None;
        }
        per_dim.push((slots, asg));
    }
    total = total.checked_mul(Stationarity::ALL.len())?;
    if total > MAX_ENUMERATION {
        return None;
    }

    // Odometer over per-dimension assignment indices.
    let mut idx = [0usize; NUM_DIMS];
    let mut count = 0usize;
    loop {
        let mut m = Mapping::all_at_dram(problem);
        for (di, d) in Dim::ALL.into_iter().enumerate() {
            let (slots, asg) = &per_dim[di];
            let choice = &asg[idx[di]];
            let mut inner_product = 1u64;
            for (slot, &factor) in slots.iter().zip(choice) {
                inner_product *= factor;
                match slot {
                    Slot::T(lvl) => m.temporal[*lvl][d.index()] = factor,
                    Slot::S(lvl) => m.spatial[*lvl][d.index()] = factor,
                }
            }
            m.temporal[NUM_LEVELS - 1][d.index()] = problem.size(d) / inner_product;
        }
        for s in Stationarity::ALL {
            let mut ms = m.clone();
            ms.orders = [LoopOrder::canonical(s); NUM_LEVELS];
            f(&ms);
            count += 1;
        }

        // Advance the odometer.
        let mut carry = true;
        for (di, slot) in idx.iter_mut().enumerate() {
            if !carry {
                break;
            }
            *slot += 1;
            if *slot >= per_dim[di].1.len() {
                *slot = 0;
            } else {
                carry = false;
            }
        }
        if carry {
            break;
        }
    }
    Some(count)
}

/// Brute-force optimum: the best per-layer EDP mapping of `problem` on
/// fixed hardware `hw`, or `None` if the space is too large or nothing
/// fits.
pub fn exhaustive_best(
    problem: &Problem,
    hw: &HardwareConfig,
    hier: &Hierarchy,
) -> Option<(Mapping, LayerPerf)> {
    let eval = LayerEvaluator::new(problem, hw, hier);
    let mut best: Option<(Mapping, LayerPerf)> = None;
    enumerate_mappings(problem, hier, hw.pe_side(), |m| {
        if let Some(Some(perf)) = improves(&eval, m, &best) {
            best = Some((m.clone(), perf));
        }
    })?;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::random_pruned_search;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Problem {
        // Dims with few divisors keep the space enumerable.
        Problem::conv("tiny", 1, 1, 4, 4, 8, 8, 1).unwrap()
    }

    #[test]
    fn enumeration_visits_only_valid_mappings() {
        let p = tiny();
        let hier = Hierarchy::gemmini();
        let mut n = 0usize;
        let visited = enumerate_mappings(&p, &hier, 8, |m| {
            m.validate(&p, &hier).unwrap();
            n += 1;
        })
        .expect("space is small");
        assert_eq!(n, visited);
        assert!(n > 1000, "only {n} mappings enumerated");
    }

    #[test]
    fn random_mapper_never_beats_exhaustive_optimum() {
        let p = tiny();
        let hier = Hierarchy::gemmini();
        let hw = HardwareConfig::new(8, 4.0, 8.0).unwrap();
        let (_, best) = exhaustive_best(&p, &hw, &hier).expect("something fits");
        let mut rng = StdRng::seed_from_u64(9);
        if let Some(found) = random_pruned_search(&mut rng, &p, &hw, &hier, 500) {
            assert!(
                found.perf.edp() >= best.edp() * (1.0 - 1e-12),
                "random {} beat exhaustive {}",
                found.perf.edp(),
                best.edp()
            );
        }
    }

    #[test]
    fn refuses_oversized_spaces() {
        let big = Problem::conv("big", 3, 3, 224, 224, 512, 512, 1).unwrap();
        let hier = Hierarchy::gemmini();
        assert_eq!(enumerate_mappings(&big, &hier, 128, |_| {}), None);
    }
}
