//! S-NUCA bank mapping (paper Section V-E).
//!
//! A standard S-NUCA LLC stripes consecutive lines across banks
//! (`bank = line % numBanks`). P-OPT instead interleaves *irregular* data in
//! 64-line blocks (`bank = (line >> 6) % numBanks`) so that every
//! Rereference Matrix cache line (which covers 64 irregData lines at 8-bit
//! quantization) is co-located with all the irregData lines it describes —
//! guaranteeing bank-local metadata lookups during replacement.

/// How line addresses map to NUCA banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankMapping {
    /// Standard S-NUCA: consecutive lines round-robin across banks.
    LineInterleave,
    /// P-OPT's modified policy (Reactive-NUCA style): interleave in blocks
    /// of 64 lines, matching one Rereference Matrix line's coverage.
    BlockInterleave {
        /// Log2 of the block size in lines (6 for the paper's 64-line blocks).
        block_shift: u32,
    },
}

impl BankMapping {
    /// The paper's irregData mapping: 64-line blocks.
    pub const POPT_IRREG: BankMapping = BankMapping::BlockInterleave { block_shift: 6 };

    /// Bank index for `line` among `num_banks` banks.
    pub fn bank_of(&self, line: u64, num_banks: usize) -> usize {
        match *self {
            BankMapping::LineInterleave => (line % num_banks as u64) as usize,
            BankMapping::BlockInterleave { block_shift } => {
                ((line >> block_shift) % num_banks as u64) as usize
            }
        }
    }
}

/// Most LLC banks a configuration may have:
/// [`HierarchyStats::bank_accesses`](crate::HierarchyStats::bank_accesses)
/// keeps one counter per bank in a fixed-size array.
pub const MAX_BANKS: usize = 16;

/// NUCA configuration of the LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NucaConfig {
    num_banks: usize,
    /// Mapping for ordinary (streaming + metadata) data.
    pub default_mapping: BankMapping,
    /// Mapping for irregular regions (P-OPT switches this to
    /// [`BankMapping::POPT_IRREG`]).
    pub irreg_mapping: BankMapping,
}

impl NucaConfig {
    /// Uniform S-NUCA with line interleave for everything.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero or above [`MAX_BANKS`].
    pub fn uniform(num_banks: usize) -> Self {
        assert!(num_banks > 0, "need at least one bank");
        assert!(
            num_banks <= MAX_BANKS,
            "{num_banks} LLC banks requested, but at most {MAX_BANKS} are supported \
             (HierarchyStats::bank_accesses keeps one counter per bank)"
        );
        NucaConfig {
            num_banks,
            default_mapping: BankMapping::LineInterleave,
            irreg_mapping: BankMapping::LineInterleave,
        }
    }

    /// The paper's P-OPT configuration: line interleave for ordinary data,
    /// 64-line block interleave for irregData.
    ///
    /// # Panics
    ///
    /// Panics if `num_banks` is zero or above [`MAX_BANKS`].
    pub fn popt(num_banks: usize) -> Self {
        NucaConfig {
            irreg_mapping: BankMapping::POPT_IRREG,
            ..NucaConfig::uniform(num_banks)
        }
    }

    /// Number of banks.
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// Bank of `line`, given whether the line belongs to an irregular
    /// region.
    pub fn bank_of(&self, line: u64, irregular: bool) -> usize {
        let mapping = if irregular {
            self.irreg_mapping
        } else {
            self.default_mapping
        };
        mapping.bank_of(line, self.num_banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "17 LLC banks requested, but at most 16 are supported")]
    fn more_banks_than_counters_are_rejected() {
        let _ = NucaConfig::popt(MAX_BANKS + 1);
    }

    #[test]
    fn line_interleave_round_robins() {
        let m = BankMapping::LineInterleave;
        assert_eq!(m.bank_of(0, 4), 0);
        assert_eq!(m.bank_of(5, 4), 1);
        assert_eq!(m.bank_of(7, 4), 3);
    }

    #[test]
    fn block_interleave_keeps_64_line_blocks_together() {
        let m = BankMapping::POPT_IRREG;
        let base_bank = m.bank_of(0, 8);
        for line in 0..64 {
            assert_eq!(m.bank_of(line, 8), base_bank);
        }
        assert_ne!(m.bank_of(64, 8), base_bank);
    }

    #[test]
    fn popt_config_separates_irregular_mapping() {
        let cfg = NucaConfig::popt(8);
        // Lines 0..64 irregular all in one bank; streaming stripes.
        assert_eq!(cfg.bank_of(1, true), cfg.bank_of(2, true));
        assert_ne!(cfg.bank_of(1, false), cfg.bank_of(2, false));
    }

    #[test]
    fn popt_mapping_colocates_matrix_line_with_coverage() {
        // Rereference Matrix line k (striped line-interleave) and the 64
        // irregData lines it covers (block-interleaved) land in one bank
        // when the matrix region starts at a 64-line-aligned address with
        // the same alignment — the guarantee of Section V-E.
        let cfg = NucaConfig::popt(8);
        for k in 0u64..32 {
            let matrix_bank = cfg.bank_of(k, false);
            for covered in k * 64..(k + 1) * 64 {
                assert_eq!(cfg.bank_of(covered, true), matrix_bank);
            }
        }
    }
}
