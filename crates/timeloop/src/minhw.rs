//! Minimal-hardware inference: the mapping-first step that collapses the
//! two-loop search into one (Figure 3, §4.1).

use crate::mapping::Mapping;
use crate::traffic::Extents;
use dosa_accel::{level, HardwareConfig, Hierarchy, ACC_WORD_BYTES, SPAD_WORD_BYTES};
use dosa_workload::{Problem, Tensor};

/// The minimal hardware configuration able to execute `mapping` on
/// `problem` (Eqs. 1–5 plus the KB rounding of §6.1).
///
/// # Examples
///
/// ```
/// use dosa_timeloop::{min_hw, Mapping};
/// use dosa_accel::Hierarchy;
/// use dosa_workload::Problem;
/// let p = Problem::conv("l", 1, 1, 56, 56, 64, 64, 1)?;
/// let m = Mapping::all_at_dram(&p);
/// let hw = min_hw(&p, &m, &Hierarchy::gemmini());
/// assert_eq!(hw.pe_side(), 1); // no spatial unrolling
/// # Ok::<(), dosa_workload::ProblemError>(())
/// ```
///
/// # Panics
///
/// Panics if a spatial factor exceeds
/// [`MAX_PE_SIDE`](dosa_accel::MAX_PE_SIDE): no array can hold such a
/// mapping ([`Mapping::validate`] rejects it; [`fits`] returns `false`).
pub fn min_hw(problem: &Problem, mapping: &Mapping, hier: &Hierarchy) -> HardwareConfig {
    let _ = hier;
    let (acc_kb, spad_kb) = buffer_kb(problem, &Extents::new(mapping));
    HardwareConfig::new(array_side(mapping), acc_kb, spad_kb)
        .expect("min-HW inference produces valid configurations")
}

/// Eq. 1: the square array must fit the largest spatial factor.
fn array_side(mapping: &Mapping) -> u64 {
    mapping
        .spatial
        .iter()
        .flatten()
        .copied()
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Accumulator and scratchpad KB needed by a mapping with `extents`
/// (Eqs. 2–5), rounded up to whole KB and at least 1.
fn buffer_kb(problem: &Problem, extents: &Extents) -> (f64, f64) {
    let acc_words = extents.words(problem, level::ACCUMULATOR, Tensor::Outputs);
    let spad_words = extents.words(problem, level::SCRATCHPAD, Tensor::Weights)
        + extents.words(problem, level::SCRATCHPAD, Tensor::Inputs);
    let kb = |bytes: u64| (bytes as f64 / 1024.0).ceil().max(1.0);
    (
        kb(acc_words * ACC_WORD_BYTES),
        kb(spad_words * SPAD_WORD_BYTES),
    )
}

/// The minimal configuration supporting every `(problem, mapping)` pair:
/// the parameter-wise max of the per-layer requirements (Figure 3).
pub fn min_hw_for_all<'a>(
    pairs: impl IntoIterator<Item = (&'a Problem, &'a Mapping)>,
    hier: &Hierarchy,
) -> HardwareConfig {
    pairs
        .into_iter()
        .map(|(p, m)| min_hw(p, m, hier))
        .reduce(|a, b| a.max(&b))
        .unwrap_or_else(|| HardwareConfig::new(1, 1.0, 1.0).expect("valid"))
}

/// Whether `mapping` can execute on fixed hardware `hw` (used by the
/// two-loop baselines and the fixed-hardware RTL experiments). The array
/// side is checked first, so a spatial factor too large for any array
/// gives `false`.
pub fn fits(problem: &Problem, mapping: &Mapping, hw: &HardwareConfig, hier: &Hierarchy) -> bool {
    let _ = hier;
    Capacity::new(hw).admit(problem, mapping).is_some()
}

/// A design's limits as [`fits`] compares them: the array side and the
/// buffer sizes rounded up to whole KB.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Capacity {
    pe_side: u64,
    acc_kb: f64,
    spad_kb: f64,
}

impl Capacity {
    pub(crate) fn new(hw: &HardwareConfig) -> Capacity {
        Capacity {
            pe_side: hw.pe_side(),
            acc_kb: hw.acc_kb().ceil(),
            spad_kb: hw.spad_kb().ceil(),
        }
    }

    /// The tile extents of `mapping` if it fits, `None` if not.
    pub(crate) fn admit(&self, problem: &Problem, mapping: &Mapping) -> Option<Extents> {
        if array_side(mapping) > self.pe_side {
            return None;
        }
        let extents = Extents::new(mapping);
        let (acc_kb, spad_kb) = buffer_kb(problem, &extents);
        (acc_kb <= self.acc_kb && spad_kb <= self.spad_kb).then_some(extents)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::fig3_mapping;
    use dosa_workload::Dim;

    #[test]
    fn fig3_min_hw_matches_paper() {
        // Figure 3: 64x64 PEs, accumulator 896 words x 4 B ≈ 4 KB,
        // scratchpad (4096 + 896) words x 1 B ≈ 5 KB.
        let p = Problem::conv("fig3", 1, 1, 56, 56, 64, 64, 1).unwrap();
        let hw = min_hw(&p, &fig3_mapping(), &Hierarchy::gemmini());
        assert_eq!(hw.pe_side(), 64);
        assert_eq!(hw.acc_kb(), 4.0);
        assert_eq!(hw.spad_kb(), 5.0);
    }

    #[test]
    fn max_across_layers() {
        let h = Hierarchy::gemmini();
        let p1 = Problem::conv("a", 1, 1, 56, 56, 64, 64, 1).unwrap();
        let m1 = fig3_mapping();
        let p2 = Problem::conv("b", 1, 1, 8, 8, 16, 16, 1).unwrap();
        let m2 = Mapping::all_at_dram(&p2);
        let hw = min_hw_for_all([(&p1, &m1), (&p2, &m2)], &h);
        assert_eq!(hw.pe_side(), 64);
        assert_eq!(hw.acc_kb(), 4.0);
    }

    #[test]
    fn fits_is_monotone() {
        let h = Hierarchy::gemmini();
        let p = Problem::conv("fig3", 1, 1, 56, 56, 64, 64, 1).unwrap();
        let m = fig3_mapping();
        let exact = min_hw(&p, &m, &h);
        assert!(fits(&p, &m, &exact, &h));
        let bigger = HardwareConfig::new(128, exact.acc_kb() + 1.0, exact.spad_kb() + 1.0).unwrap();
        assert!(fits(&p, &m, &bigger, &h));
        let smaller = HardwareConfig::new(32, exact.acc_kb(), exact.spad_kb()).unwrap();
        assert!(!fits(&p, &m, &smaller, &h));
    }

    #[test]
    fn a_spatial_factor_above_every_array_does_not_fit() {
        let h = Hierarchy::gemmini();
        let p = Problem::conv("wide", 1, 1, 1, 1, 256, 256, 1).unwrap();
        let mut m = Mapping::all_at_dram(&p);
        m.temporal[level::DRAM][Dim::K.index()] = 1;
        m.spatial[level::SCRATCHPAD][Dim::K.index()] = 256;
        let biggest = HardwareConfig::new(dosa_accel::MAX_PE_SIDE, 1024.0, 1024.0).unwrap();
        assert!(!fits(&p, &m, &biggest, &h));
    }
}
