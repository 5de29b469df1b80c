use popt_trace::RegionClass;

/// Hit/miss statistics for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Valid lines displaced to make room.
    pub evictions: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Hits on irregular-region lines.
    pub irregular_hits: u64,
    /// Misses on irregular-region lines.
    pub irregular_misses: u64,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn demand_accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 if no accesses.
    pub fn miss_rate(&self) -> f64 {
        let total = self.demand_accesses();
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    /// Misses per kilo-instruction, the paper's headline locality metric.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }

    /// Counts one demand lookup, without branching on the region class.
    #[inline]
    pub(crate) fn record(&mut self, hit: bool, class: RegionClass) {
        let (hit, irregular) = (u64::from(hit), u64::from(class == RegionClass::Irregular));
        self.hits += hit;
        self.misses += 1 - hit;
        self.irregular_hits += hit & irregular;
        self.irregular_misses += (1 - hit) & irregular;
    }

    /// Component-wise sum (used to aggregate NUCA banks).
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            writebacks: self.writebacks + other.writebacks,
            irregular_hits: self.irregular_hits + other.irregular_hits,
            irregular_misses: self.irregular_misses + other.irregular_misses,
        }
    }
}

/// Aggregate statistics of a full hierarchy simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchyStats {
    /// L1 data cache stats.
    pub l1: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// LLC stats (all banks merged).
    pub llc: CacheStats,
    /// Instructions retired (memory accesses + explicit ticks).
    pub instructions: u64,
    /// Per-bank LLC demand accesses (NUCA load balance diagnostics); bank
    /// `b` counts at index `b`, and banks past the configured count read 0.
    pub bank_accesses: [u64; crate::MAX_BANKS],
    /// Lines installed by the prefetch engine.
    pub prefetch_fills: u64,
    /// Dirty private-cache victims written straight to DRAM (not resident
    /// in the LLC at writeback time).
    pub dram_writebacks: u64,
    /// Private-cache copies invalidated by other cores' writes
    /// (write-invalidate coherence).
    pub coherence_invalidations: u64,
    /// Policy overheads accumulated at the LLC.
    pub overheads: crate::PolicyOverheads,
}

impl HierarchyStats {
    /// LLC misses per kilo-instruction — the metric of Figures 2/4.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.instructions)
    }

    /// DRAM transfers (demand fills + writebacks), the paper's memory
    /// traffic measure for the PB/PHI study.
    pub fn dram_transfers(&self) -> u64 {
        self.llc.misses + self.llc.writebacks + self.dram_writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_and_mpki() {
        let s = CacheStats {
            hits: 75,
            misses: 25,
            ..Default::default()
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.mpki(1000) - 25.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
        assert_eq!(CacheStats::default().mpki(0), 0.0);
    }

    #[test]
    fn llc_mpki_is_zero_before_any_instruction_retires() {
        // A hierarchy that has only prefetched (or been constructed) has
        // misses but no retired instructions; MPKI must read 0, not NaN
        // or infinity, so report sorting and plotting stay total.
        let mut h = HierarchyStats::default();
        h.llc.misses = 10;
        assert_eq!(h.llc_mpki(), 0.0);
        h.instructions = 2000;
        assert!((h.llc_mpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn record_tracks_classes() {
        let mut s = CacheStats::default();
        s.record(true, RegionClass::Irregular);
        s.record(false, RegionClass::Irregular);
        s.record(false, RegionClass::Streaming);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.irregular_hits, 1);
        assert_eq!(s.irregular_misses, 1);
    }

    #[test]
    fn merged_sums() {
        let a = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 3,
            writebacks: 4,
            irregular_hits: 5,
            irregular_misses: 6,
        };
        let m = a.merged(a);
        assert_eq!(m.hits, 2);
        assert_eq!(m.irregular_misses, 12);
    }
}
