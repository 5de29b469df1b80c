use crate::{
    AccessMeta, CacheConfig, CacheStats, ControlEvent, LineView, ReplacementPolicy, VictimCtx,
};
use popt_trace::AccessKind;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was installed; if a valid line was displaced, its line
    /// number and dirtiness are reported so the caller can account for
    /// writebacks.
    Miss {
        /// Displaced line, if the chosen way held one.
        evicted: Option<u64>,
        /// Whether the displaced line was dirty.
        evicted_dirty: bool,
    },
}

impl AccessOutcome {
    /// Whether the lookup hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A single set-associative cache (or one NUCA bank of the LLC).
///
/// Way partitioning: the last `reserved_ways` ways of every set are never
/// offered for replacement, modeling Intel CAT-style reservation of LLC
/// capacity for Rereference Matrix columns (paper Section V-A). The policy
/// only ever sees the remaining *data ways*.
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    data_ways: usize,
    // Flattened [set][way] arrays. `tags` holds the *placement* line (bank-
    // local in a NUCA LLC); `global` holds the original global line number,
    // which is what policies reason about (base/bound checks, matrix rows).
    tags: Vec<u64>,
    global: Vec<u64>,
    valid: Vec<bool>,
    dirty: Vec<bool>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
    scratch: Vec<LineView>,
}

impl std::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("sets", &self.sets)
            .field("ways", &self.ways)
            .field("data_ways", &self.data_ways)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish()
    }
}

impl SetAssocCache {
    /// Creates a cache with the given geometry and policy, with no reserved
    /// ways.
    pub fn new(config: CacheConfig, policy: Box<dyn ReplacementPolicy>) -> Self {
        Self::with_reserved_ways(config, policy, 0)
    }

    /// Creates a cache reserving the top `reserved_ways` ways of every set.
    ///
    /// # Panics
    ///
    /// Panics if `reserved_ways >= ways`.
    pub fn with_reserved_ways(
        config: CacheConfig,
        policy: Box<dyn ReplacementPolicy>,
        reserved_ways: usize,
    ) -> Self {
        let (sets, ways) = (config.num_sets(), config.ways());
        assert!(reserved_ways < ways, "at least one data way is required");
        let n = sets * ways;
        SetAssocCache {
            sets,
            ways,
            data_ways: ways - reserved_ways,
            tags: vec![0; n],
            global: vec![0; n],
            valid: vec![false; n],
            dirty: vec![false; n],
            policy,
            stats: CacheStats::default(),
            scratch: Vec::with_capacity(ways),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets
    }

    /// Total associativity (including reserved ways).
    pub fn num_ways(&self) -> usize {
        self.ways
    }

    /// Ways available for demand data.
    pub fn data_ways(&self) -> usize {
        self.data_ways
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The replacement policy (for overhead queries).
    pub fn policy(&self) -> &dyn ReplacementPolicy {
        &*self.policy
    }

    /// Whether `line` is currently resident (diagnostic; does not touch
    /// replacement state).
    pub fn contains(&self, line: u64) -> bool {
        self.find((line % self.sets as u64) as usize, line)
            .is_some()
    }

    /// Forwards a software control event to the policy.
    pub fn control(&mut self, event: &ControlEvent) {
        self.policy.on_control(event);
    }

    /// Performs one demand access, placing the line by `meta.line` itself.
    ///
    /// On a miss the line is installed (write-allocate); writes dirty the
    /// line.
    pub fn access(&mut self, meta: &AccessMeta) -> AccessOutcome {
        self.access_placed(meta, meta.line)
    }

    /// Performs one demand access with an explicit *placement* line.
    ///
    /// In a NUCA LLC the hierarchy renumbers lines bank-locally so
    /// consecutive resident lines spread across a bank's sets; `placement`
    /// is that local number while `meta.line` stays the global line, which
    /// is what policies see (their `irreg_base`/`bound` checks and
    /// Rereference Matrix rows are defined on global addresses, exactly as
    /// the paper's per-bank next-ref engines operate on physical
    /// addresses).
    pub fn access_placed(&mut self, meta: &AccessMeta, placement: u64) -> AccessOutcome {
        let set = (placement % self.sets as u64) as usize;
        self.policy.on_access(set, meta);
        if let Some(w) = self.find(set, placement) {
            self.stats.record(true, meta.class);
            if meta.kind == AccessKind::Write {
                self.dirty[set * self.ways + w] = true;
            }
            self.policy.on_hit(set, w, meta);
            return AccessOutcome::Hit;
        }
        self.stats.record(false, meta.class);
        let (evicted, evicted_dirty) =
            self.fill(set, placement, meta, meta.kind == AccessKind::Write);
        AccessOutcome::Miss {
            evicted,
            evicted_dirty,
        }
    }

    /// Installs a line without recording demand statistics (prefetch).
    /// Returns `true` if the line was newly installed, `false` if it was
    /// already resident. Evictions and writebacks are accounted normally.
    pub fn prefetch_placed(&mut self, meta: &AccessMeta, placement: u64) -> bool {
        let set = (placement % self.sets as u64) as usize;
        if self.find(set, placement).is_some() {
            return false;
        }
        self.fill(set, placement, meta, false);
        true
    }

    /// The data way of `set` holding `placement`, if resident.
    #[inline]
    fn find(&self, set: usize, placement: u64) -> Option<usize> {
        let base = set * self.ways;
        (0..self.data_ways).find(|&w| self.valid[base + w] && self.tags[base + w] == placement)
    }

    /// Installs `meta.line` at `placement` in `set`, into an invalid way if
    /// there is one and into the policy's victim otherwise. Evictions and
    /// writebacks of the displaced line are counted here; the caller owns
    /// the demand hit/miss statistics. Returns the displaced global line
    /// and whether it was dirty.
    ///
    /// # Panics
    ///
    /// Panics if the policy picks a way outside the data ways: it would
    /// overwrite a reserved way (or another set's line) with no stats
    /// trail to catch it.
    #[inline]
    fn fill(
        &mut self,
        set: usize,
        placement: u64,
        meta: &AccessMeta,
        dirty: bool,
    ) -> (Option<u64>, bool) {
        let base = set * self.ways;
        let (way, evicted, evicted_dirty) =
            match (0..self.data_ways).find(|&w| !self.valid[base + w]) {
                Some(w) => (w, None, false),
                None => {
                    self.scratch.clear();
                    self.scratch.extend(
                        self.global[base..base + self.data_ways]
                            .iter()
                            .map(|&line| LineView { valid: true, line }),
                    );
                    let ctx = VictimCtx {
                        set,
                        ways: &self.scratch,
                        incoming: meta,
                    };
                    let w = self.policy.victim(&ctx);
                    assert!(
                        w < self.data_ways,
                        "policy {} chose way {w} beyond data ways",
                        self.policy.name()
                    );
                    let i = base + w;
                    let old = self.global[i];
                    let was_dirty = self.dirty[i];
                    self.policy.on_evict(set, w, old);
                    self.stats.evictions += 1;
                    if was_dirty {
                        self.stats.writebacks += 1;
                    }
                    (w, Some(old), was_dirty)
                }
            };
        let i = base + way;
        self.tags[i] = placement;
        self.global[i] = meta.line;
        self.valid[i] = true;
        self.dirty[i] = dirty;
        self.policy.on_fill(set, way, meta);
        (evicted, evicted_dirty)
    }

    /// Absorbs a writeback arriving from an upper level: if the line is
    /// resident (by placement) it is marked dirty and the writeback stops
    /// here; otherwise the caller forwards it toward DRAM (writebacks do
    /// not allocate — the usual non-inclusive simplification). Returns
    /// `true` if absorbed.
    pub fn absorb_writeback(&mut self, placement: u64) -> bool {
        let set = (placement % self.sets as u64) as usize;
        let Some(w) = self.find(set, placement) else {
            return false;
        };
        self.dirty[set * self.ways + w] = true;
        true
    }

    /// Invalidates one line by placement (coherence). The copy is dropped
    /// without a writeback: the invalidating writer's own fill supersedes
    /// it. Returns whether a copy existed.
    pub fn invalidate_line(&mut self, placement: u64) -> bool {
        let set = (placement % self.sets as u64) as usize;
        let Some(w) = self.find(set, placement) else {
            return false;
        };
        let i = set * self.ways + w;
        self.valid[i] = false;
        self.dirty[i] = false;
        true
    }

    /// Invalidates every line (context switch / co-running process
    /// pollution). Dirty lines count as writebacks; replacement state is
    /// left to the policy's `ControlEvent::ContextSwitch` handling.
    pub fn invalidate_all(&mut self) {
        for i in 0..self.valid.len() {
            if self.valid[i] && self.dirty[i] {
                self.stats.writebacks += 1;
            }
            self.valid[i] = false;
            self.dirty[i] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use popt_trace::{RegionClass, SiteId};

    fn meta(line: u64) -> AccessMeta {
        AccessMeta {
            line,
            site: SiteId(0),
            kind: AccessKind::Read,
            class: RegionClass::Streaming,
        }
    }

    fn tiny_cache(ways: usize) -> SetAssocCache {
        // 1 set of `ways` ways.
        let cfg = CacheConfig::new(64 * ways, ways);
        SetAssocCache::new(cfg, Box::new(Lru::new(cfg.num_sets(), ways)))
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny_cache(2);
        assert!(!c.access(&meta(1)).is_hit());
        assert!(c.access(&meta(1)).is_hit());
        assert!(c.contains(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny_cache(2);
        c.access(&meta(1));
        c.access(&meta(2));
        c.access(&meta(1)); // 2 is now LRU
        let out = c.access(&meta(3));
        assert_eq!(
            out,
            AccessOutcome::Miss {
                evicted: Some(2),
                evicted_dirty: false
            }
        );
        assert!(c.contains(1));
        assert!(!c.contains(2));
    }

    #[test]
    fn writes_dirty_lines_and_produce_writebacks() {
        let mut c = tiny_cache(1);
        let mut w = meta(5);
        w.kind = AccessKind::Write;
        c.access(&w);
        c.access(&meta(6)); // evicts dirty 5
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reserved_ways_shrink_effective_associativity() {
        let cfg = CacheConfig::new(64 * 4, 4);
        let mut c =
            SetAssocCache::with_reserved_ways(cfg, Box::new(Lru::new(cfg.num_sets(), 4)), 2);
        assert_eq!(c.data_ways(), 2);
        c.access(&meta(1));
        c.access(&meta(2));
        c.access(&meta(3)); // must evict despite 2 "free" reserved ways
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.contains(1));
    }

    #[test]
    fn sets_are_independent() {
        let cfg = CacheConfig::new(64 * 2 * 2, 2); // 2 sets, 2 ways
        let mut c = SetAssocCache::new(cfg, Box::new(Lru::new(2, 2)));
        // Lines 0 and 2 map to set 0; 1 and 3 to set 1.
        c.access(&meta(0));
        c.access(&meta(2));
        c.access(&meta(1));
        assert!(c.contains(0) && c.contains(2) && c.contains(1));
    }

    #[test]
    fn absorb_writeback_marks_resident_lines_dirty() {
        let mut c = tiny_cache(2);
        c.access(&meta(3));
        assert!(c.absorb_writeback(3));
        assert!(!c.absorb_writeback(9), "absent lines are not absorbed");
        // The absorbed dirty line produces a writeback when evicted.
        c.access(&meta(5));
        c.access(&meta(7)); // evicts 3 (LRU)
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_fill_skips_demand_stats_and_dirties_nothing() {
        let mut c = tiny_cache(2);
        assert!(c.prefetch_placed(&meta(4), 4));
        assert!(!c.prefetch_placed(&meta(4), 4), "already resident");
        assert_eq!(c.stats().demand_accesses(), 0);
        assert!(c.contains(4));
        // Prefetched lines are clean: evicting them writes nothing back.
        c.access(&meta(6));
        c.access(&meta(8));
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn invalidate_all_counts_dirty_writebacks() {
        let mut c = tiny_cache(2);
        let mut w = meta(1);
        w.kind = AccessKind::Write;
        c.access(&w);
        c.access(&meta(2));
        c.invalidate_all();
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.contains(1) && !c.contains(2));
    }

    /// A policy that violates the victim contract by indexing past
    /// `ctx.ways` — stands in for a buggy way-partitioning policy that
    /// forgets reserved ways are already excluded.
    struct RogueVictim;

    impl crate::ReplacementPolicy for RogueVictim {
        fn name(&self) -> String {
            "rogue".to_string()
        }
        fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn victim(&mut self, ctx: &crate::VictimCtx<'_>) -> usize {
            ctx.ways.len() // one past the last replaceable way
        }
    }

    fn full_rogue_cache() -> SetAssocCache {
        let cfg = CacheConfig::new(64 * 2, 2);
        let mut c = SetAssocCache::new(cfg, Box::new(RogueVictim));
        c.access(&meta(1));
        c.access(&meta(2)); // set is now full; the next fill needs a victim
        c
    }

    #[test]
    #[should_panic(expected = "beyond data ways")]
    fn out_of_range_victim_panics_on_demand_fill() {
        full_rogue_cache().access(&meta(3));
    }

    /// Regression: the prefetch fill path used to index `base + w` without
    /// the range check the demand path has, so an out-of-range victim
    /// silently overwrote a neighboring set's line (or a reserved way)
    /// instead of panicking.
    #[test]
    #[should_panic(expected = "beyond data ways")]
    fn out_of_range_victim_panics_on_prefetch_fill() {
        full_rogue_cache().prefetch_placed(&meta(3), 3);
    }

    #[test]
    fn irregular_class_is_tracked() {
        let mut c = tiny_cache(2);
        let mut m = meta(9);
        m.class = RegionClass::Irregular;
        c.access(&m);
        c.access(&m);
        assert_eq!(c.stats().irregular_misses, 1);
        assert_eq!(c.stats().irregular_hits, 1);
    }
}
