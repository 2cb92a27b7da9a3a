//! Hardware configurations: the three parameters DOSA searches (§6.1).

use std::fmt;

/// Maximum PE-array side length (the paper caps the array at 128x128, §6.1).
pub const MAX_PE_SIDE: u64 = 128;

/// Bytes per word in the accumulator (32-bit partial sums; Figure 3).
pub const ACC_WORD_BYTES: u64 = 4;

/// Bytes per word in the scratchpad (8-bit activations/weights; Figure 3).
pub const SPAD_WORD_BYTES: u64 = 1;

/// A Gemmini-style hardware configuration.
///
/// The hardware design space DOSA explores consists of the PE array
/// dimensions, the accumulator SRAM size and the scratchpad SRAM size
/// (§6.1). SRAM sizes are in KB and, like the paper, are rounded up to 1 KB
/// increments when derived from mappings.
///
/// # Examples
///
/// ```
/// use dosa_accel::HardwareConfig;
/// let hw = HardwareConfig::gemmini_default();
/// assert_eq!(hw.pe_side(), 16);
/// assert_eq!(hw.num_pes(), 256);
/// assert_eq!(hw.acc_words(), 32 * 1024 / 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    pe_side: u64,
    acc_kb: f64,
    spad_kb: f64,
}

/// Error constructing a [`HardwareConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HardwareError {
    /// The PE side was zero or above [`MAX_PE_SIDE`].
    BadPeSide(u64),
    /// A buffer size was non-positive or non-finite.
    BadBufferSize,
}

impl fmt::Display for HardwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareError::BadPeSide(s) => {
                write!(f, "PE side {s} outside 1..={MAX_PE_SIDE}")
            }
            HardwareError::BadBufferSize => write!(f, "buffer sizes must be positive and finite"),
        }
    }
}

impl std::error::Error for HardwareError {}

impl HardwareConfig {
    /// Create a configuration with a `pe_side` x `pe_side` systolic array and
    /// the given SRAM sizes in KB.
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError`] if the PE side is outside `1..=128` or a
    /// buffer size is not positive and finite.
    pub fn new(pe_side: u64, acc_kb: f64, spad_kb: f64) -> Result<HardwareConfig, HardwareError> {
        if pe_side == 0 || pe_side > MAX_PE_SIDE {
            return Err(HardwareError::BadPeSide(pe_side));
        }
        if !(acc_kb.is_finite() && acc_kb > 0.0 && spad_kb.is_finite() && spad_kb > 0.0) {
            return Err(HardwareError::BadBufferSize);
        }
        Ok(HardwareConfig {
            pe_side,
            acc_kb,
            spad_kb,
        })
    }

    /// Gemmini's hand-tuned default: 16x16 PEs, 32 KB accumulator, 128 KB
    /// scratchpad (§6.5.3).
    pub fn gemmini_default() -> HardwareConfig {
        HardwareConfig {
            pe_side: 16,
            acc_kb: 32.0,
            spad_kb: 128.0,
        }
    }

    /// Side length of the square PE array.
    #[inline]
    pub fn pe_side(&self) -> u64 {
        self.pe_side
    }

    /// Total number of processing elements, `C_PE = side²` (Eq. 1).
    #[inline]
    pub fn num_pes(&self) -> u64 {
        self.pe_side * self.pe_side
    }

    /// Accumulator capacity in KB.
    #[inline]
    pub fn acc_kb(&self) -> f64 {
        self.acc_kb
    }

    /// Scratchpad capacity in KB.
    #[inline]
    pub fn spad_kb(&self) -> f64 {
        self.spad_kb
    }

    /// Accumulator capacity in words (4-byte words).
    #[inline]
    pub fn acc_words(&self) -> u64 {
        (self.acc_kb * 1024.0 / ACC_WORD_BYTES as f64).floor() as u64
    }

    /// Scratchpad capacity in words (1-byte words).
    #[inline]
    pub fn spad_words(&self) -> u64 {
        (self.spad_kb * 1024.0 / SPAD_WORD_BYTES as f64).floor() as u64
    }

    /// Parameter-wise maximum of two configurations — the reduction DOSA
    /// applies across per-layer minimal hardware requirements (Figure 3).
    #[must_use]
    pub fn max(&self, other: &HardwareConfig) -> HardwareConfig {
        HardwareConfig {
            pe_side: self.pe_side.max(other.pe_side),
            acc_kb: self.acc_kb.max(other.acc_kb),
            spad_kb: self.spad_kb.max(other.spad_kb),
        }
    }
}

impl fmt::Display for HardwareConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} PEs, {:.0} KB acc, {:.0} KB spad",
            self.pe_side, self.pe_side, self.acc_kb, self.spad_kb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let hw = HardwareConfig::gemmini_default();
        assert_eq!(hw.num_pes(), 256);
        assert_eq!(hw.acc_kb(), 32.0);
        assert_eq!(hw.spad_kb(), 128.0);
        assert_eq!(hw.spad_words(), 128 * 1024);
        assert_eq!(hw.acc_words(), 8192);
    }

    #[test]
    fn rejects_invalid() {
        assert!(HardwareConfig::new(0, 1.0, 1.0).is_err());
        assert!(HardwareConfig::new(129, 1.0, 1.0).is_err());
        assert!(HardwareConfig::new(16, 0.0, 1.0).is_err());
        assert!(HardwareConfig::new(16, 1.0, f64::NAN).is_err());
    }

    #[test]
    fn max_is_parameterwise() {
        let a = HardwareConfig::new(8, 64.0, 32.0).unwrap();
        let b = HardwareConfig::new(32, 16.0, 128.0).unwrap();
        let m = a.max(&b);
        assert_eq!(m.pe_side(), 32);
        assert_eq!(m.acc_kb(), 64.0);
        assert_eq!(m.spad_kb(), 128.0);
    }

    #[test]
    fn display_mentions_sizes() {
        let s = HardwareConfig::gemmini_default().to_string();
        assert!(s.contains("16x16") && s.contains("32") && s.contains("128"));
    }
}
