//! GRASP (Faldu et al. [20]): domain-specialized cache management for
//! graph analytics, reproduced for the Figure 12a comparison.
//!
//! GRASP assumes the vertex array has been reordered with Degree-Based
//! Grouping so that high-degree ("hot") vertices occupy a contiguous
//! address range. It then specializes RRIP insertion/promotion by address
//! region: hot lines insert protected and re-promote fully; warm lines
//! insert at long; cold lines insert at distant and only step toward
//! protection on hits. The paper's critique: this heuristic helps only when
//! the degree distribution is skewed enough for "hot" to be meaningful.

use crate::policies::rrip::RripCore;
use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// 2-bit RRPV ceiling, as in the RRIP baseline.
const RRPV_MAX: u8 = 3;

/// Line-number ranges (inclusive start, exclusive end) classifying the
/// DBG-ordered vertex data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraspRegions {
    /// Hottest group: the first DBG group(s) holding the highest-degree
    /// vertices.
    pub hot: (u64, u64),
    /// Warm group following the hot region.
    pub warm: (u64, u64),
}

impl GraspRegions {
    /// Builds regions from DBG group boundaries expressed as line numbers.
    /// `hot_end` and `warm_end` are exclusive line bounds within the
    /// irregular data region; lines beyond `warm_end` are cold.
    pub fn new(base_line: u64, hot_end: u64, warm_end: u64) -> Self {
        assert!(hot_end <= warm_end, "hot region must precede warm region");
        GraspRegions {
            hot: (base_line, hot_end),
            warm: (hot_end, warm_end),
        }
    }

    fn classify(&self, line: u64) -> Heat {
        if line >= self.hot.0 && line < self.hot.1 {
            Heat::Hot
        } else if line >= self.warm.0 && line < self.warm.1 {
            Heat::Warm
        } else {
            Heat::Cold
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heat {
    Hot,
    Warm,
    Cold,
}

/// The GRASP replacement policy.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::{Grasp, GraspRegions}, CacheConfig, SetAssocCache};
///
/// // DBG-ordered vertex data: lines 0..8 hot, 8..32 warm, rest cold.
/// let regions = GraspRegions::new(0, 8, 32);
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Grasp::new(cfg.num_sets(), cfg.ways(), regions)));
/// assert_eq!(cache.num_ways(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Grasp {
    core: RripCore,
    regions: GraspRegions,
}

impl Grasp {
    /// Creates GRASP for `sets × ways` with the given DBG region map.
    pub fn new(sets: usize, ways: usize, regions: GraspRegions) -> Self {
        Grasp {
            core: RripCore::new(sets, ways),
            regions,
        }
    }
}

impl ReplacementPolicy for Grasp {
    fn name(&self) -> String {
        "GRASP".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        match self.regions.classify(meta.line) {
            // Hot lines re-protect fully.
            Heat::Hot => self.core.set_rrpv(set, way, 0),
            // Others step toward protection without jumping the queue.
            Heat::Warm | Heat::Cold => {
                let cur = self.core.rrpv(set, way);
                self.core.set_rrpv(set, way, cur.saturating_sub(1));
            }
        }
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &AccessMeta) {
        let rrpv = match self.regions.classify(meta.line) {
            Heat::Hot => 0,
            Heat::Warm => RRPV_MAX - 1,
            Heat::Cold => RRPV_MAX,
        };
        self.core.set_rrpv(set, way, rrpv);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        self.core.find_victim(ctx.set, ctx.lines.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{one_set_cache, read};

    #[test]
    fn hot_lines_survive_cold_scans() {
        // Hot lines 0..4, cold lines 1000+. GRASP pins the hot region.
        let regions = GraspRegions::new(0, 8, 16);
        let mut c = one_set_cache(8, Box::new(Grasp::new(1, 8, regions)));
        for l in 0..4u64 {
            c.access(&read(l, 0));
        }
        for l in 1000..1100u64 {
            c.access(&read(l, 0));
        }
        for l in 0..4u64 {
            assert!(c.contains(l), "hot line {l} was evicted by a cold scan");
        }
    }

    #[test]
    fn cold_lines_insert_dead_on_arrival() {
        let regions = GraspRegions::new(0, 4, 8);
        let mut c = one_set_cache(2, Box::new(Grasp::new(1, 2, regions)));
        c.access(&read(0, 0)); // hot
        c.access(&read(100, 0)); // cold
        c.access(&read(101, 0)); // cold: must replace cold 100, not hot 0
        assert!(c.contains(0));
        assert!(!c.contains(100));
    }

    #[test]
    fn warm_lines_sit_between() {
        let regions = GraspRegions::new(0, 2, 6);
        let mut grasp = Grasp::new(1, 4, regions);
        grasp.on_fill(0, 0, &read(1, 0)); // hot -> 0
        grasp.on_fill(0, 1, &read(3, 0)); // warm -> 2
        grasp.on_fill(0, 2, &read(10, 0)); // cold -> 3
        assert_eq!(grasp.core.rrpv(0, 0), 0);
        assert_eq!(grasp.core.rrpv(0, 1), RRPV_MAX - 1);
        assert_eq!(grasp.core.rrpv(0, 2), RRPV_MAX);
    }

    #[test]
    #[should_panic(expected = "hot region must precede")]
    fn regions_validate_ordering() {
        let _ = GraspRegions::new(0, 10, 5);
    }
}
