//! Expert-designed baseline accelerator configurations (Figure 8).
//!
//! The paper evaluates Eyeriss, NVDLA-small, NVDLA-large and the Gemmini
//! default through the same Timeloop template used for Gemmini-TL. We model
//! them the same way: as configurations of the shared memory-hierarchy
//! template, sized from the public descriptions of each design.

use crate::arch::HardwareConfig;

/// A named baseline design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Display name used in Figure 8.
    pub name: &'static str,
    /// The configuration in our shared template.
    pub config: HardwareConfig,
}

/// Eyeriss (Chen et al.): 168 PEs (we use a 13x13 square ≈ 169),
/// 108 KB global buffer, modest accumulation storage.
pub fn eyeriss() -> Baseline {
    Baseline {
        name: "Eyeriss",
        config: HardwareConfig::new(13, 16.0, 108.0).expect("static config valid"),
    }
}

/// NVDLA small profile: 64 MACs (8x8), small convolution buffer.
pub fn nvdla_small() -> Baseline {
    Baseline {
        name: "NVDLA Small",
        config: HardwareConfig::new(8, 8.0, 32.0).expect("static config valid"),
    }
}

/// NVDLA large profile: 1024 MACs (32x32), 512 KB convolution buffer.
pub fn nvdla_large() -> Baseline {
    Baseline {
        name: "NVDLA Large",
        config: HardwareConfig::new(32, 32.0, 512.0).expect("static config valid"),
    }
}

/// Gemmini's hand-tuned default configuration (16x16, 32 KB acc, 128 KB
/// scratchpad).
pub fn gemmini_default() -> Baseline {
    Baseline {
        name: "Gemmini Default",
        config: HardwareConfig::gemmini_default(),
    }
}

/// The four baselines of Figure 8, in plot order.
pub fn all_baselines() -> [Baseline; 4] {
    [eyeriss(), nvdla_small(), nvdla_large(), gemmini_default()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_distinct_baselines() {
        let all = all_baselines();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i].config, all[j].config);
                assert_ne!(all[i].name, all[j].name);
            }
        }
    }

    #[test]
    fn nvdla_sizes_ordered() {
        assert!(nvdla_small().config.num_pes() < nvdla_large().config.num_pes());
        assert!(nvdla_small().config.spad_kb() < nvdla_large().config.spad_kb());
    }
}
