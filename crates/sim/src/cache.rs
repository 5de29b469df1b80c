use crate::{AccessMeta, CacheConfig, CacheStats, ControlEvent, ReplacementPolicy, VictimCtx};
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

    /// The displaced line if this miss evicted a dirty one (a writeback
    /// the next level must absorb or forward).
    pub(crate) fn dirty_victim(&self) -> Option<u64> {
        match *self {
            AccessOutcome::Miss {
                evicted,
                evicted_dirty: true,
            } => evicted,
            _ => None,
        }
    }
}

/// The low `n` bits set: the mask of ways `0..n` (`n <= 64`).
#[inline]
pub(crate) fn way_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Valid and dirty bits of one set's data ways; bit `w` is way `w`.
#[derive(Debug, Clone, Copy, Default)]
struct SetBits {
    valid: u64,
    dirty: u64,
}

/// A single set-associative cache (or one NUCA bank of the LLC).
///
/// Way partitioning: the last `reserved_ways` ways of every set are never
/// offered for replacement, modeling Intel CAT-style reservation of LLC
/// capacity for Rereference Matrix columns (paper Section V-A). The policy
/// only ever sees the remaining *data ways*, and only they are stored.
///
/// The policy type is a parameter: the LLC banks hold a
/// `Box<dyn ReplacementPolicy>` (the default), while the private levels
/// name their policy statically (`SetAssocCache<BitPlru>`) so its hooks
/// inline into the probe.
pub struct SetAssocCache<P: ReplacementPolicy + ?Sized = dyn ReplacementPolicy> {
    sets: usize,
    ways: usize,
    data_ways: usize,
    /// `sets - 1` when the set count is a power of two.
    set_mask: Option<u64>,
    /// [`way_mask`] of the data ways.
    data_mask: u64,
    bits: Vec<SetBits>,
    // Flattened [set][data way] arrays, one contiguous slice per set.
    // `tags` holds the *placement* line (bank-local in a NUCA LLC);
    // `global` holds the original global line number, which is what
    // policies reason about (base/bound checks, matrix rows).
    tags: Vec<u64>,
    global: Vec<u64>,
    policy: Box<P>,
    stats: CacheStats,
}

impl<P: ReplacementPolicy + ?Sized> std::fmt::Debug for SetAssocCache<P> {
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

impl<P: ReplacementPolicy + ?Sized> SetAssocCache<P> {
    /// Creates a cache with the given geometry and policy, with no reserved
    /// ways.
    pub fn new(config: CacheConfig, policy: Box<P>) -> Self {
        Self::with_reserved_ways(config, policy, 0)
    }

    /// Creates a cache reserving the top `reserved_ways` ways of every set.
    ///
    /// # Panics
    ///
    /// Panics if `reserved_ways >= ways`.
    pub fn with_reserved_ways(config: CacheConfig, policy: Box<P>, reserved_ways: usize) -> Self {
        let (sets, ways) = (config.num_sets(), config.ways());
        assert!(reserved_ways < ways, "at least one data way is required");
        let data_ways = ways - reserved_ways;
        let n = sets * data_ways;
        SetAssocCache {
            sets,
            ways,
            data_ways,
            set_mask: sets.is_power_of_two().then(|| sets as u64 - 1),
            data_mask: way_mask(data_ways),
            bits: vec![SetBits::default(); sets],
            tags: vec![0; n],
            global: vec![0; n],
            policy,
            stats: CacheStats::default(),
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
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Whether `line` is currently resident (diagnostic; does not touch
    /// replacement state).
    pub fn contains(&self, line: u64) -> bool {
        self.find(self.set_of(line), line).is_some()
    }

    /// Forwards a software control event to the policy.
    pub fn control(&mut self, event: &ControlEvent) {
        self.policy.on_control(event);
    }

    /// Performs one demand access, placing the line by `meta.line` itself.
    ///
    /// On a miss the line is installed (write-allocate); writes dirty the
    /// line.
    #[inline]
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
    #[inline]
    pub fn access_placed(&mut self, meta: &AccessMeta, placement: u64) -> AccessOutcome {
        let set = self.set_of(placement);
        let write = meta.kind == AccessKind::Write;
        self.policy.on_access(set, meta);
        if let Some(w) = self.find(set, placement) {
            self.stats.record(true, meta.class);
            if let Some(bits) = self.bits.get_mut(set) {
                bits.dirty |= u64::from(write) << w;
            }
            self.policy.on_hit(set, w, meta);
            return AccessOutcome::Hit;
        }
        self.stats.record(false, meta.class);
        let (evicted, evicted_dirty) = self.fill(set, placement, meta, write);
        AccessOutcome::Miss {
            evicted,
            evicted_dirty,
        }
    }

    /// Installs a line without recording demand statistics (prefetch).
    /// Returns `true` if the line was newly installed, `false` if it was
    /// already resident. Evictions and writebacks are accounted normally.
    pub fn prefetch_placed(&mut self, meta: &AccessMeta, placement: u64) -> bool {
        let set = self.set_of(placement);
        if self.find(set, placement).is_some() {
            return false;
        }
        self.fill(set, placement, meta, false);
        true
    }

    /// The set `placement` maps to: a mask when the set count is a power
    /// of two (every scaled geometry), a modulo otherwise (Table I's
    /// 3 072-set banks).
    #[inline]
    fn set_of(&self, placement: u64) -> usize {
        match self.set_mask {
            Some(mask) => (placement & mask) as usize,
            None => (placement % self.sets as u64) as usize,
        }
    }

    /// The data way of `set` holding `placement`, if resident: the lowest
    /// valid way whose tag matches, found without a branch per way.
    #[inline]
    fn find(&self, set: usize, placement: u64) -> Option<usize> {
        let valid = self.bits.get(set).map_or(0, |b| b.valid);
        let base = set * self.data_ways;
        let tags = self
            .tags
            .get(base..base + self.data_ways)
            .unwrap_or_default();
        let matches = tags
            .iter()
            .enumerate()
            .fold(0u64, |m, (w, &tag)| m | (u64::from(tag == placement) << w))
            & valid;
        (matches != 0).then(|| matches.trailing_zeros() as usize)
    }

    /// Installs `meta.line` at `placement` in `set`, into the lowest
    /// invalid way if there is one and into the policy's victim otherwise.
    /// Evictions and writebacks of the displaced line are counted here;
    /// the caller owns the demand hit/miss statistics. Returns the
    /// displaced global line and whether it was dirty.
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
        let base = set * self.data_ways;
        let span = base..base + self.data_ways;
        let (Some(bits), Some(tags), Some(global)) = (
            self.bits.get_mut(set),
            self.tags.get_mut(span.clone()),
            self.global.get_mut(span),
        ) else {
            return (None, false);
        };
        let free = !bits.valid & self.data_mask;
        let (way, evicted, evicted_dirty) = if free != 0 {
            (free.trailing_zeros() as usize, None, false)
        } else {
            let ctx = VictimCtx {
                set,
                lines: global,
                incoming: meta,
            };
            let w = self.policy.victim(&ctx);
            assert!(
                w < self.data_ways,
                "policy {} chose way {w} beyond data ways",
                self.policy.name()
            );
            let old = global.get(w).copied().unwrap_or_default();
            let was_dirty = (bits.dirty >> w) & 1 == 1;
            self.policy.on_evict(set, w, old);
            self.stats.evictions += 1;
            self.stats.writebacks += u64::from(was_dirty);
            (w, Some(old), was_dirty)
        };
        if let (Some(tag), Some(line)) = (tags.get_mut(way), global.get_mut(way)) {
            *tag = placement;
            *line = meta.line;
        }
        let bit = 1u64 << way;
        bits.valid |= bit;
        bits.dirty = (bits.dirty & !bit) | (u64::from(dirty) << way);
        self.policy.on_fill(set, way, meta);
        (evicted, evicted_dirty)
    }

    /// Absorbs a writeback arriving from an upper level: if the line is
    /// resident (by placement) it is marked dirty and the writeback stops
    /// here; otherwise the caller forwards it toward DRAM (writebacks do
    /// not allocate — the usual non-inclusive simplification). Returns
    /// `true` if absorbed.
    pub fn absorb_writeback(&mut self, placement: u64) -> bool {
        let set = self.set_of(placement);
        let Some(w) = self.find(set, placement) else {
            return false;
        };
        if let Some(bits) = self.bits.get_mut(set) {
            bits.dirty |= 1u64 << w;
        }
        true
    }

    /// Invalidates one line by placement (coherence). The copy is dropped
    /// without a writeback: the invalidating writer's own fill supersedes
    /// it. Returns whether a copy existed.
    pub fn invalidate_line(&mut self, placement: u64) -> bool {
        let set = self.set_of(placement);
        let Some(w) = self.find(set, placement) else {
            return false;
        };
        if let Some(bits) = self.bits.get_mut(set) {
            bits.valid &= !(1u64 << w);
            bits.dirty &= !(1u64 << w);
        }
        true
    }

    /// Invalidates every line (context switch / co-running process
    /// pollution). Dirty lines count as writebacks; replacement state is
    /// left to the policy's `ControlEvent::ContextSwitch` handling.
    pub fn invalidate_all(&mut self) {
        for bits in &mut self.bits {
            self.stats.writebacks += u64::from((bits.valid & bits.dirty).count_ones());
            *bits = SetBits::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Lru;
    use crate::PolicyKind;
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
    /// `ctx.lines` — stands in for a buggy way-partitioning policy that
    /// forgets reserved ways are already excluded.
    struct RogueVictim;

    impl crate::ReplacementPolicy for RogueVictim {
        fn name(&self) -> String {
            "rogue".to_string()
        }
        fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}
        fn victim(&mut self, ctx: &crate::VictimCtx<'_>) -> usize {
            ctx.lines.len() // one past the last replaceable way
        }
    }

    fn full_rogue_cache() -> SetAssocCache<RogueVictim> {
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

    /// The naive reference the bitmask cache is checked against: a vector
    /// of ways per set, linear scans, and the same policy hooks in the
    /// same order.
    struct RefCache {
        sets: usize,
        ways: Vec<Vec<RefWay>>,
        policy: Box<dyn ReplacementPolicy>,
        stats: CacheStats,
    }

    #[derive(Debug, Clone, Copy, Default)]
    struct RefWay {
        valid: bool,
        dirty: bool,
        tag: u64,
        line: u64,
    }

    impl RefCache {
        fn new(sets: usize, data_ways: usize, policy: Box<dyn ReplacementPolicy>) -> Self {
            RefCache {
                sets,
                ways: vec![vec![RefWay::default(); data_ways]; sets],
                policy,
                stats: CacheStats::default(),
            }
        }

        fn set_of(&self, placement: u64) -> usize {
            (placement % self.sets as u64) as usize
        }

        fn find(&self, set: usize, placement: u64) -> Option<usize> {
            self.ways[set]
                .iter()
                .position(|w| w.valid && w.tag == placement)
        }

        fn access_placed(&mut self, meta: &AccessMeta, placement: u64) -> AccessOutcome {
            let set = self.set_of(placement);
            self.policy.on_access(set, meta);
            let write = meta.kind == AccessKind::Write;
            if let Some(w) = self.find(set, placement) {
                self.stats.record(true, meta.class);
                if write {
                    self.ways[set][w].dirty = true;
                }
                self.policy.on_hit(set, w, meta);
                return AccessOutcome::Hit;
            }
            self.stats.record(false, meta.class);
            let (evicted, evicted_dirty) = self.fill(set, placement, meta, write);
            AccessOutcome::Miss {
                evicted,
                evicted_dirty,
            }
        }

        fn prefetch_placed(&mut self, meta: &AccessMeta, placement: u64) -> bool {
            let set = self.set_of(placement);
            if self.find(set, placement).is_some() {
                return false;
            }
            self.fill(set, placement, meta, false);
            true
        }

        fn fill(
            &mut self,
            set: usize,
            placement: u64,
            meta: &AccessMeta,
            dirty: bool,
        ) -> (Option<u64>, bool) {
            let (way, evicted, evicted_dirty) = match self.ways[set].iter().position(|w| !w.valid) {
                Some(w) => (w, None, false),
                None => {
                    let lines: Vec<u64> = self.ways[set].iter().map(|w| w.line).collect();
                    let w = self.policy.victim(&VictimCtx {
                        set,
                        lines: &lines,
                        incoming: meta,
                    });
                    let old = self.ways[set][w];
                    self.policy.on_evict(set, w, old.line);
                    self.stats.evictions += 1;
                    if old.dirty {
                        self.stats.writebacks += 1;
                    }
                    (w, Some(old.line), old.dirty)
                }
            };
            self.ways[set][way] = RefWay {
                valid: true,
                dirty,
                tag: placement,
                line: meta.line,
            };
            self.policy.on_fill(set, way, meta);
            (evicted, evicted_dirty)
        }

        fn absorb_writeback(&mut self, placement: u64) -> bool {
            let set = self.set_of(placement);
            match self.find(set, placement) {
                Some(w) => {
                    self.ways[set][w].dirty = true;
                    true
                }
                None => false,
            }
        }

        fn invalidate_line(&mut self, placement: u64) -> bool {
            let set = self.set_of(placement);
            match self.find(set, placement) {
                Some(w) => {
                    self.ways[set][w] = RefWay::default();
                    true
                }
                None => false,
            }
        }

        fn invalidate_all(&mut self) {
            for way in self.ways.iter_mut().flatten() {
                if way.valid && way.dirty {
                    self.stats.writebacks += 1;
                }
                *way = RefWay::default();
            }
        }
    }

    /// One step of a random stream, with what each cache answered.
    #[derive(Debug, PartialEq, Eq)]
    enum Answer {
        Access(AccessOutcome),
        Flag(bool),
        Done,
    }

    /// Runs `steps` random operations through both caches of one geometry
    /// under `kind` and checks they agree on every answer, on residency
    /// and on the final statistics.
    fn differential(sets: usize, ways: usize, reserved: usize, kind: PolicyKind, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = CacheConfig::new(64 * ways * sets, ways);
        let data_ways = ways - reserved;
        let mut fast =
            SetAssocCache::with_reserved_ways(cfg, kind.build(sets, data_ways), reserved);
        let mut slow = RefCache::new(sets, data_ways, kind.build(sets, data_ways));
        let mut rng = StdRng::seed_from_u64(seed);
        // Most traffic lands on a few sets, so they fill and evict; the
        // rest is spread over every set.
        let hot_sets = sets.min(6) as u64;
        let depth = 2 * data_ways as u64 + 2;
        let case = format!("{sets} sets, {ways} ways, {reserved} reserved, {kind}");
        for step in 0..1500 {
            let placement = if rng.gen_range(0..8u32) == 0 {
                rng.gen_range(0..sets as u64 * depth)
            } else {
                rng.gen_range(0..hot_sets) + sets as u64 * rng.gen_range(0..depth)
            };
            // Bank-style renumbering: the global line differs from the
            // placement, as in a 4-bank line-interleaved LLC.
            let line = placement * 4 + 1;
            let mut m = meta(line);
            m.site = SiteId(rng.gen_range(0..6u32));
            if rng.gen_range(0..3u32) == 0 {
                m.class = RegionClass::Irregular;
            }
            let op = rng.gen_range(0..200u32);
            let (a, b) = match op {
                0..=99 => (
                    Answer::Access(fast.access_placed(&m, placement)),
                    Answer::Access(slow.access_placed(&m, placement)),
                ),
                100..=139 => {
                    m.kind = AccessKind::Write;
                    (
                        Answer::Access(fast.access_placed(&m, placement)),
                        Answer::Access(slow.access_placed(&m, placement)),
                    )
                }
                140..=159 => (
                    Answer::Flag(fast.prefetch_placed(&m, placement)),
                    Answer::Flag(slow.prefetch_placed(&m, placement)),
                ),
                160..=184 => (
                    Answer::Flag(fast.absorb_writeback(placement)),
                    Answer::Flag(slow.absorb_writeback(placement)),
                ),
                185..=198 => (
                    Answer::Flag(fast.invalidate_line(placement)),
                    Answer::Flag(slow.invalidate_line(placement)),
                ),
                _ => {
                    fast.invalidate_all();
                    slow.invalidate_all();
                    (Answer::Done, Answer::Done)
                }
            };
            assert_eq!(a, b, "{case}: step {step}, op {op}, placement {placement}");
        }
        assert_eq!(*fast.stats(), slow.stats, "{case}: stats");
        for placement in 0..sets as u64 * depth {
            let set = slow.set_of(placement);
            assert_eq!(
                fast.contains(placement),
                slow.find(set, placement).is_some(),
                "{case}: residency of {placement}"
            );
        }
    }

    #[test]
    fn bitmask_cache_matches_the_naive_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xcac4e);
        // Power-of-two and other set counts, including a Table I bank.
        let set_counts = [1usize, 2, 4, 16, 64, 3, 12, 3072];
        let mut case = 0u64;
        for &sets in &set_counts {
            for ways in [1usize, 2, 7, 8, 16, 33, 64, rng.gen_range(1..=64usize)] {
                for reserved in 0..=3usize.min(ways - 1) {
                    let kind = PolicyKind::ALL[rng.gen_range(0..PolicyKind::ALL.len())];
                    differential(sets, ways, reserved, kind, case);
                    case += 1;
                }
            }
        }
    }

    #[test]
    fn every_policy_agrees_with_the_naive_reference() {
        for (i, kind) in PolicyKind::ALL.into_iter().enumerate() {
            differential(16, 16, 2, kind, 100 + i as u64);
            differential(3072, 8, 0, kind, 200 + i as u64);
            differential(4, 64, 1, kind, 300 + i as u64);
        }
    }
}
