//! The Gemmini memory hierarchy: memory levels, tensor placement (Table 4's
//! `B` matrix), spatial fanout placement, and bandwidths (Table 2).

use crate::arch::HardwareConfig;
use dosa_workload::{Dim, DimSet, Tensor};

/// Number of memory levels in the Gemmini hierarchy (§4.1).
pub const NUM_LEVELS: usize = 4;

/// Memory level indices, matching the paper's numbering.
pub mod level {
    /// Per-PE registers (hold weights in the WS dataflow).
    pub const REGISTERS: usize = 0;
    /// Accumulator SRAM (holds outputs / partial sums).
    pub const ACCUMULATOR: usize = 1;
    /// Scratchpad SRAM (holds weights and inputs).
    pub const SCRATCHPAD: usize = 2;
    /// Off-chip DRAM (holds everything).
    pub const DRAM: usize = 3;
}

/// Words transferred per DRAM transaction. Timeloop computes DRAM energy per
/// block accessed (a ceiling over elements); this constant drives the
/// reference model's block accounting (§4.6: the source of the small-layer
/// divergence in Figure 4).
pub const DRAM_BLOCK_WORDS: u64 = 64;

/// Static description of one memory level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLevel {
    /// Human-readable name ("Registers", ...).
    pub name: &'static str,
    /// Which tensors this level stores (one row of Table 4's `B`).
    pub stores: [bool; 3],
    /// The problem dimension that may be spatially unrolled *below* this
    /// level (Gemmini WS: `C` below the accumulator, `K` below the
    /// scratchpad).
    pub spatial_dim: Option<Dim>,
}

impl MemoryLevel {
    /// Whether tensor `t` is stored at this level (the `B_{i,t}` entry).
    #[inline]
    pub fn stores(&self, t: Tensor) -> bool {
        self.stores[t.index()]
    }

    /// The set of tensors stored at this level.
    pub fn tensors(&self) -> impl Iterator<Item = Tensor> + '_ {
        Tensor::ALL.into_iter().filter(|t| self.stores(*t))
    }
}

/// The full hierarchy for the accelerator under study (Table 2 + Table 4).
///
/// # Examples
///
/// ```
/// use dosa_accel::{Hierarchy, level};
/// use dosa_workload::Tensor;
/// let h = Hierarchy::gemmini();
/// assert!(h.level(level::ACCUMULATOR).stores(Tensor::Outputs));
/// assert!(!h.level(level::REGISTERS).stores(Tensor::Inputs));
/// assert_eq!(h.innermost_level(Tensor::Inputs), level::SCRATCHPAD);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    levels: [MemoryLevel; NUM_LEVELS],
}

impl Hierarchy {
    /// The weight-stationary Gemmini hierarchy of Table 4.
    pub fn gemmini() -> Hierarchy {
        Hierarchy {
            levels: [
                MemoryLevel {
                    name: "Registers",
                    stores: [true, false, false],
                    spatial_dim: None,
                },
                MemoryLevel {
                    name: "Accumulator",
                    stores: [false, false, true],
                    spatial_dim: Some(Dim::C),
                },
                MemoryLevel {
                    name: "Scratchpad",
                    stores: [true, true, false],
                    spatial_dim: Some(Dim::K),
                },
                MemoryLevel {
                    name: "DRAM",
                    stores: [true, true, true],
                    spatial_dim: None,
                },
            ],
        }
    }

    /// Metadata for memory level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= NUM_LEVELS`.
    #[inline]
    pub fn level(&self, i: usize) -> &MemoryLevel {
        &self.levels[i]
    }

    /// All levels, inner to outer.
    pub fn levels(&self) -> &[MemoryLevel; NUM_LEVELS] {
        &self.levels
    }

    /// The innermost (closest to the MACs) level storing tensor `t`.
    pub fn innermost_level(&self, t: Tensor) -> usize {
        self.levels
            .iter()
            .position(|l| l.stores(t))
            .expect("every tensor is stored in DRAM")
    }

    /// The next level below `i` that stores `t`, if any.
    pub fn next_inner_level(&self, i: usize, t: Tensor) -> Option<usize> {
        (0..i).rev().find(|&j| self.levels[j].stores(t))
    }

    /// Bandwidth of level `i` in words per cycle (Table 2): registers
    /// `2·C_PE`, SRAMs `2·√C_PE`, DRAM 8.
    pub fn bandwidth(&self, i: usize, hw: &HardwareConfig) -> f64 {
        match i {
            level::REGISTERS => 2.0 * hw.num_pes() as f64,
            level::ACCUMULATOR | level::SCRATCHPAD => 2.0 * hw.pe_side() as f64,
            level::DRAM => 8.0,
            _ => panic!("unknown memory level {i}"),
        }
    }

    /// Capacity of level `i` in words for configuration `hw`.
    /// Registers hold one weight per PE; DRAM is unbounded (`u64::MAX`).
    pub fn capacity_words(&self, i: usize, hw: &HardwareConfig) -> u64 {
        match i {
            level::REGISTERS => hw.num_pes(),
            level::ACCUMULATOR => hw.acc_words(),
            level::SCRATCHPAD => hw.spad_words(),
            level::DRAM => u64::MAX,
            _ => panic!("unknown memory level {i}"),
        }
    }

    /// Dimensions allowed to carry a spatial factor at level `i`.
    pub fn spatial_dims(&self, i: usize) -> DimSet {
        match self.levels[i].spatial_dim {
            Some(d) => DimSet::EMPTY.with(d),
            None => DimSet::EMPTY,
        }
    }
}

impl Default for Hierarchy {
    fn default() -> Self {
        Hierarchy::gemmini()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_matrix_matches_table4() {
        let h = Hierarchy::gemmini();
        let expect = [
            (level::REGISTERS, [true, false, false]),
            (level::ACCUMULATOR, [false, false, true]),
            (level::SCRATCHPAD, [true, true, false]),
            (level::DRAM, [true, true, true]),
        ];
        for (i, stores) in expect {
            assert_eq!(h.level(i).stores, stores, "level {i}");
        }
    }

    #[test]
    fn innermost_levels() {
        let h = Hierarchy::gemmini();
        assert_eq!(h.innermost_level(Tensor::Weights), level::REGISTERS);
        assert_eq!(h.innermost_level(Tensor::Outputs), level::ACCUMULATOR);
        assert_eq!(h.innermost_level(Tensor::Inputs), level::SCRATCHPAD);
    }

    #[test]
    fn inner_outer_navigation() {
        let h = Hierarchy::gemmini();
        assert_eq!(
            h.next_inner_level(level::DRAM, Tensor::Weights),
            Some(level::SCRATCHPAD)
        );
        assert_eq!(
            h.next_inner_level(level::SCRATCHPAD, Tensor::Weights),
            Some(level::REGISTERS)
        );
        assert_eq!(h.next_inner_level(level::REGISTERS, Tensor::Weights), None);
        assert_eq!(
            h.next_inner_level(level::DRAM, Tensor::Outputs),
            Some(level::ACCUMULATOR)
        );
    }

    #[test]
    fn bandwidths_match_table2() {
        let h = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        assert_eq!(h.bandwidth(level::REGISTERS, &hw), 512.0); // 2 * 256
        assert_eq!(h.bandwidth(level::ACCUMULATOR, &hw), 32.0); // 2 * 16
        assert_eq!(h.bandwidth(level::SCRATCHPAD, &hw), 32.0);
        assert_eq!(h.bandwidth(level::DRAM, &hw), 8.0);
    }

    #[test]
    fn spatial_dims_match_gemmini_ws() {
        let h = Hierarchy::gemmini();
        assert!(h.spatial_dims(level::ACCUMULATOR).contains(Dim::C));
        assert!(h.spatial_dims(level::SCRATCHPAD).contains(Dim::K));
        assert!(h.spatial_dims(level::REGISTERS).is_empty());
        assert!(h.spatial_dims(level::DRAM).is_empty());
    }

    #[test]
    fn capacities_reflect_config() {
        let h = Hierarchy::gemmini();
        let hw = HardwareConfig::gemmini_default();
        assert_eq!(h.capacity_words(level::REGISTERS, &hw), 256);
        assert_eq!(h.capacity_words(level::ACCUMULATOR, &hw), 8192);
        assert_eq!(h.capacity_words(level::SCRATCHPAD, &hw), 131072);
        assert_eq!(h.capacity_words(level::DRAM, &hw), u64::MAX);
    }
}
