//! Energy-per-access (EPA) model reproducing Table 2.
//!
//! The paper collects EPA numbers for a 40 nm process with Accelergy and its
//! Aladdin and CACTI plug-ins. We reproduce the functional forms of Table 2:
//! compute, register and DRAM access energy are constant per word; SRAM
//! access energy scales with the SRAM geometry (capacity over array side for
//! the accumulator, raw capacity for the scratchpad). Constants are Table 2's
//! verbatim; capacity terms are interpreted in KB.
//! All EPA values are in picojoules; reported energies are in microjoules.

use crate::arch::HardwareConfig;
#[cfg(test)]
use crate::hierarchy::level;
use crate::hierarchy::NUM_LEVELS;

/// Energy-per-access table for one hardware configuration (values in pJ).
///
/// # Examples
///
/// ```
/// use dosa_accel::{EnergyModel, HardwareConfig};
/// let e = EnergyModel::for_config(&HardwareConfig::gemmini_default());
/// assert_eq!(e.epa_mac(), 0.561);
/// assert!(e.epa(3) == 100.0); // DRAM
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    epa: [f64; NUM_LEVELS],
    epa_mac: f64,
}

/// EPA of one MAC operation (Table 2, "PE" row, pJ).
pub const EPA_MAC: f64 = 0.561;
/// EPA of a register access (Table 2, pJ).
pub const EPA_REGISTERS: f64 = 0.487;
/// Constant term of the accumulator EPA (Table 2, pJ).
pub const EPA_ACC_BASE: f64 = 1.94;
/// Capacity coefficient of the accumulator EPA (pJ per KB per array side).
pub const EPA_ACC_SLOPE: f64 = 0.1005;
/// Constant term of the scratchpad EPA (Table 2, pJ).
pub const EPA_SPAD_BASE: f64 = 0.49;
/// Capacity coefficient of the scratchpad EPA (pJ per KB).
pub const EPA_SPAD_SLOPE: f64 = 0.025;
/// EPA of a DRAM word access (Table 2, pJ).
pub const EPA_DRAM: f64 = 100.0;

impl EnergyModel {
    /// Compute the EPA table for a hardware configuration.
    pub fn for_config(hw: &HardwareConfig) -> EnergyModel {
        EnergyModel {
            epa: [
                EPA_REGISTERS,
                epa_accumulator(hw.acc_kb(), hw.pe_side() as f64),
                epa_scratchpad(hw.spad_kb()),
                EPA_DRAM,
            ],
            epa_mac: EPA_MAC,
        }
    }

    /// EPA of memory level `i` in pJ per word.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    #[inline]
    pub fn epa(&self, i: usize) -> f64 {
        self.epa[i]
    }

    /// EPA of one multiply-accumulate in pJ.
    #[inline]
    pub fn epa_mac(&self) -> f64 {
        self.epa_mac
    }
}

/// Accumulator EPA as a function of capacity (KB) and array side
/// (Table 2: `1.94 + 0.1005 · C₁/√C_PE`).
pub fn epa_accumulator(acc_kb: f64, pe_side: f64) -> f64 {
    EPA_ACC_BASE + EPA_ACC_SLOPE * acc_kb / pe_side.max(1.0)
}

/// Scratchpad EPA as a function of capacity in KB
/// (Table 2: `0.49 + 0.025 · C₂`).
pub fn epa_scratchpad(spad_kb: f64) -> f64 {
    EPA_SPAD_BASE + EPA_SPAD_SLOPE * spad_kb
}

/// Convert accumulated access energy in pJ to the µJ unit used in the
/// paper's EDP plots.
#[inline]
pub fn pj_to_uj(pj: f64) -> f64 {
    pj * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_epas_are_sane() {
        let e = EnergyModel::for_config(&HardwareConfig::gemmini_default());
        assert_eq!(e.epa(level::REGISTERS), 0.487);
        // 1.94 + 0.1005 * 32/16 = 2.141
        assert!((e.epa(level::ACCUMULATOR) - 2.141).abs() < 1e-12);
        // 0.49 + 0.025 * 128 = 3.69
        assert!((e.epa(level::SCRATCHPAD) - 3.69).abs() < 1e-12);
        assert_eq!(e.epa(level::DRAM), 100.0);
        assert_eq!(e.epa_mac(), 0.561);
    }

    #[test]
    fn sram_epa_grows_with_capacity() {
        assert!(epa_scratchpad(256.0) > epa_scratchpad(64.0));
        assert!(epa_accumulator(64.0, 16.0) > epa_accumulator(16.0, 16.0));
        // Larger arrays make the accumulator wider and cheaper per access.
        assert!(epa_accumulator(32.0, 32.0) < epa_accumulator(32.0, 8.0));
    }

    #[test]
    fn unit_conversion() {
        assert_eq!(pj_to_uj(2_000_000.0), 2.0);
    }
}
