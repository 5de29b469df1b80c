use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// True least-recently-used replacement — the baseline policy of the
/// paper's Figures 2, 4 and 10.
///
/// Tracks a global logical timestamp per (set, way); the victim is the way
/// with the oldest stamp.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Lru, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Lru::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_ways(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Lru {
    ways: usize,
    stamps: Vec<u64>,
    clock: u64,
}

impl Lru {
    /// Creates an LRU policy for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Lru {
            ways,
            stamps: vec![0; sets * ways],
            clock: 0,
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        if let Some(stamp) = self.stamps.get_mut(set * self.ways + way) {
            *stamp = self.clock;
        }
    }
}

impl ReplacementPolicy for Lru {
    fn name(&self) -> String {
        "LRU".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.touch(set, way);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        let base = ctx.set * self.ways;
        self.stamps
            .get(base..base + ctx.lines.len())
            .and_then(|row| row.iter().enumerate().min_by_key(|&(_, &stamp)| stamp))
            .map_or(0, |(w, _)| w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{one_set_cache, read, run_lines};

    #[test]
    fn stack_property_holds() {
        // LRU has the inclusion (stack) property: a larger LRU cache hits on
        // a superset of the accesses a smaller one hits on.
        let trace: Vec<u64> = [1u64, 2, 3, 1, 4, 2, 5, 1, 2, 3, 4, 5, 1, 6, 2, 1]
            .iter()
            .cycle()
            .take(200)
            .copied()
            .collect();
        let mut prev_hits = 0;
        for ways in [1usize, 2, 3, 4, 6] {
            let mut c = one_set_cache(ways, Box::new(Lru::new(1, ways)));
            let hits = run_lines(&mut c, &trace);
            assert!(
                hits >= prev_hits,
                "{ways}-way LRU regressed: {hits} < {prev_hits}"
            );
            prev_hits = hits;
        }
    }

    #[test]
    fn victim_is_least_recent() {
        let mut c = one_set_cache(3, Box::new(Lru::new(1, 3)));
        for l in [10u64, 20, 30] {
            c.access(&read(l, 0));
        }
        c.access(&read(10, 0));
        c.access(&read(30, 0));
        c.access(&read(40, 0)); // evicts 20
        assert!(c.contains(10) && c.contains(30) && c.contains(40));
        assert!(!c.contains(20));
    }

    #[test]
    fn repeated_scans_larger_than_cache_never_hit() {
        // The classic LRU pathology the paper exploits: cyclic reuse larger
        // than the cache yields a 0% hit rate.
        let mut c = one_set_cache(4, Box::new(Lru::new(1, 4)));
        let trace: Vec<u64> = (0..5u64).cycle().take(100).collect();
        assert_eq!(run_lines(&mut c, &trace), 0);
    }
}
