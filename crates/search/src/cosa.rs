//! A deterministic constrained mapper standing in for CoSA (§3.2 step 1,
//! §6.1, §6.4).
//!
//! CoSA formulates scheduling as a mixed-integer program solved with
//! Gurobi; neither is available offline. This substitute reproduces CoSA's
//! *role* in DOSA — producing strong, capacity-respecting mappings for a
//! given hardware configuration, deterministically — with a greedy
//! prime-factor allocator: maximize PE utilization first, then pack the
//! buffers from the innermost level outward. Like the paper's CoSA setup,
//! the scratchpad is partitioned equally between inputs and weights.

use dosa_accel::{level, HardwareConfig, Hierarchy};
use dosa_timeloop::{factorize, tile_words, Mapping, Stationarity};
use dosa_workload::{Dim, Problem, Tensor};

/// Largest divisor of `n` that is `<= cap`.
fn largest_divisor_capped(n: u64, cap: u64) -> u64 {
    dosa_timeloop::divisors(n)
        .into_iter()
        .take_while(|&d| d <= cap)
        .last()
        .unwrap_or(1)
}

/// Produce a deterministic, capacity-respecting mapping of `problem` onto
/// `hw`.
///
/// The result always validates structurally; it fits within `hw`'s buffers
/// whenever the minimum footprint allows (a single innermost iteration plus
/// the spatial array working set).
pub fn cosa_mapping(problem: &Problem, hw: &HardwareConfig, hier: &Hierarchy) -> Mapping {
    let mut m = Mapping::all_at_dram(problem);
    m.set_orders([Stationarity::WeightStationary; dosa_accel::NUM_LEVELS]);

    // Remaining (un-assigned) extent per dimension; assigned factors are
    // divided out of the DRAM factor as they move inward.
    let assign = |m: &mut Mapping, lvl: usize, spatial: bool, d: Dim, f: u64| {
        debug_assert_eq!(m.temporal[level::DRAM][d.index()] % f, 0);
        m.temporal[level::DRAM][d.index()] /= f;
        if spatial {
            m.spatial[lvl][d.index()] *= f;
        } else {
            m.temporal[lvl][d.index()] *= f;
        }
    };

    // 1) Spatial utilization (Eq. 1): C below the accumulator, K below the
    //    scratchpad, both as large as the array allows.
    let sc = largest_divisor_capped(problem.size(Dim::C), hw.pe_side());
    assign(&mut m, level::ACCUMULATOR, true, Dim::C, sc);
    let sk = largest_divisor_capped(problem.size(Dim::K), hw.pe_side());
    assign(&mut m, level::SCRATCHPAD, true, Dim::K, sk);

    // Capacity budgets in words.
    let acc_budget = hw.acc_words();
    let half_spad = hw.spad_words() / 2; // CoSA's equal W/I partition.

    // 2) Register subnest: amortize weight preloads by streaming output
    //    pixels (Q then P) for at least ~2 array sides per tile, without
    //    overflowing the accumulator (the register subnest sits inside the
    //    accumulator tile).
    let target = 2 * hw.pe_side();
    for d in [Dim::Q, Dim::P] {
        loop {
            let have: u64 = m.temporal[0].iter().product();
            let remaining = m.temporal[level::DRAM][d.index()];
            if have >= target || remaining <= 1 {
                break;
            }
            let p = factorize(remaining)[0].0;
            let mut candidate = m.clone();
            candidate.temporal[level::DRAM][d.index()] /= p;
            candidate.temporal[0][d.index()] *= p;
            let fits = tile_words(problem, &candidate, level::ACCUMULATOR, Tensor::Outputs)
                <= acc_budget
                && tile_words(problem, &candidate, level::SCRATCHPAD, Tensor::Inputs) <= half_spad;
            if fits {
                m = candidate;
            } else {
                break;
            }
        }
    }

    // 3) Accumulator subnest: grow output-tile dims while the output tile
    //    fits the accumulator. P/Q growth also inflates the scratchpad
    //    input tile through the stride halo, so the scratchpad budget is
    //    enforced here too.
    grow_while_fits(
        &mut m,
        problem,
        level::ACCUMULATOR,
        &[Dim::K, Dim::P, Dim::Q, Dim::N],
        |m| {
            tile_words(problem, m, level::ACCUMULATOR, Tensor::Outputs) <= acc_budget
                && tile_words(problem, m, level::SCRATCHPAD, Tensor::Inputs) <= half_spad
        },
    );

    // 4) Reduction dims (R, S, C) grow in the *accumulator subnest*: there
    //    they sit inner to the output-tile loops (with the OS ordering the
    //    permutation step below selects), so partial sums accumulate fully
    //    on chip instead of bouncing to DRAM. Their factors still size the
    //    scratchpad weight/input tiles, which bound the growth.
    grow_while_fits(
        &mut m,
        problem,
        level::ACCUMULATOR,
        &[Dim::R, Dim::S, Dim::C],
        |m| {
            tile_words(problem, m, level::SCRATCHPAD, Tensor::Weights) <= half_spad
                && tile_words(problem, m, level::SCRATCHPAD, Tensor::Inputs) <= half_spad
        },
    );

    //    Then more output pixels in the scratchpad subnest while inputs
    //    still fit their half.
    grow_while_fits(&mut m, problem, level::SCRATCHPAD, &[Dim::P, Dim::Q], |m| {
        tile_words(problem, m, level::SCRATCHPAD, Tensor::Inputs) <= half_spad
    });

    // 5) Loop orderings: CoSA's MIP also selects permutations; choose the
    //    best WS/IS/OS ordering per level for this mapping (this is what
    //    keeps reduction loops inside the output-tile loops and avoids
    //    partial-sum thrashing to DRAM).
    let layer = dosa_workload::Layer::once(problem.clone());
    let mut ms = [m];
    let _ = crate::gd::choose_best_orderings(std::slice::from_ref(&layer), &mut ms, hw, hier);
    let [m] = ms;

    debug_assert!(m.validate(problem, hier).is_ok());
    m
}

/// Repeatedly move the smallest prime factor of each dimension in `dims`
/// from DRAM into `lvl`'s temporal subnest while `fits` holds.
fn grow_while_fits(
    m: &mut Mapping,
    problem: &Problem,
    lvl: usize,
    dims: &[Dim],
    fits: impl Fn(&Mapping) -> bool,
) {
    let _ = problem;
    loop {
        let mut moved = false;
        for &d in dims {
            let remaining = m.temporal[level::DRAM][d.index()];
            if remaining <= 1 {
                continue;
            }
            let p = factorize(remaining)[0].0;
            let mut candidate = m.clone();
            candidate.temporal[level::DRAM][d.index()] /= p;
            candidate.temporal[lvl][d.index()] *= p;
            if fits(&candidate) {
                *m = candidate;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dosa_timeloop::{evaluate_layer, fits, min_hw, random_mapping};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Hierarchy, HardwareConfig) {
        (Hierarchy::gemmini(), HardwareConfig::gemmini_default())
    }

    #[test]
    fn cosa_mapping_is_valid_and_fits() {
        let (h, hw) = setup();
        for p in [
            Problem::conv("a", 3, 3, 56, 56, 64, 64, 1).unwrap(),
            Problem::conv("b", 7, 7, 112, 112, 3, 64, 2).unwrap(),
            Problem::matmul("c", 512, 768, 3072).unwrap(),
            Problem::conv("d", 1, 1, 7, 7, 2048, 512, 1).unwrap(),
        ] {
            let m = cosa_mapping(&p, &hw, &h);
            m.validate(&p, &h).unwrap();
            assert!(fits(&p, &m, &hw, &h), "{p}: needs {}", min_hw(&p, &m, &h));
        }
    }

    #[test]
    fn cosa_uses_the_array() {
        let (h, hw) = setup();
        let p = Problem::conv("a", 3, 3, 56, 56, 64, 64, 1).unwrap();
        let m = cosa_mapping(&p, &hw, &h);
        assert_eq!(m.spatial(level::ACCUMULATOR, Dim::C), 16);
        assert_eq!(m.spatial(level::SCRATCHPAD, Dim::K), 16);
    }

    #[test]
    fn cosa_beats_average_random_mapping() {
        let (h, hw) = setup();
        let p = Problem::conv("a", 3, 3, 28, 28, 128, 128, 1).unwrap();
        let cosa_perf = evaluate_layer(&p, &cosa_mapping(&p, &hw, &h), &hw, &h);
        let mut rng = StdRng::seed_from_u64(17);
        let mut sum = 0.0;
        let mut n = 0;
        while n < 30 {
            let m = random_mapping(&mut rng, &p, &h, hw.pe_side());
            if fits(&p, &m, &hw, &h) {
                sum += evaluate_layer(&p, &m, &hw, &h).edp().ln();
                n += 1;
            }
        }
        let avg_random = (sum / n as f64).exp();
        assert!(
            cosa_perf.edp() < avg_random,
            "cosa {} vs avg random {}",
            cosa_perf.edp(),
            avg_random
        );
    }

    #[test]
    fn deterministic() {
        let (h, hw) = setup();
        let p = Problem::conv("a", 3, 3, 28, 28, 128, 128, 1).unwrap();
        assert_eq!(cosa_mapping(&p, &hw, &h), cosa_mapping(&p, &hw, &h));
    }

    #[test]
    fn respects_small_arrays() {
        let h = Hierarchy::gemmini();
        let hw = HardwareConfig::new(4, 8.0, 16.0).unwrap();
        let p = Problem::conv("a", 3, 3, 28, 28, 128, 128, 1).unwrap();
        let m = cosa_mapping(&p, &hw, &h);
        m.validate(&p, &h).unwrap();
        assert!(m.spatial(level::ACCUMULATOR, Dim::C) <= 4);
        assert!(fits(&p, &m, &hw, &h));
    }
}
