//! Re-Reference Interval Prediction policies (Jaleel et al. [30]):
//! SRRIP, BRRIP and the set-dueling DRRIP the paper uses as its main
//! baseline ("server-class processors have been shown to use a variant of
//! DRRIP", Section VII-D footnote 6).

use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// Maximum RRPV for the 2-bit RRIP the paper's baseline uses.
const RRPV_MAX: u8 = 3;

/// BRRIP inserts with "long" (instead of "distant") re-reference prediction
/// once every `BRRIP_EPSILON` fills.
const BRRIP_EPSILON: u64 = 32;

/// Shared RRPV bookkeeping for the RRIP family.
#[derive(Debug, Clone)]
pub(crate) struct RripCore {
    ways: usize,
    rrpv: Vec<u8>,
}

impl RripCore {
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        RripCore {
            ways,
            rrpv: vec![RRPV_MAX; sets * ways],
        }
    }

    pub(crate) fn set_rrpv(&mut self, set: usize, way: usize, value: u8) {
        if let Some(r) = self.rrpv.get_mut(set * self.ways + way) {
            *r = value;
        }
    }

    pub(crate) fn rrpv(&self, set: usize, way: usize) -> u8 {
        self.rrpv
            .get(set * self.ways + way)
            .copied()
            .unwrap_or(RRPV_MAX)
    }

    /// SRRIP victim search: the lowest-indexed way at `RRPV_MAX`, after
    /// aging the set until one exists. The aging loop is done in closed
    /// form: every way ages by `RRPV_MAX - max` at once, which brings
    /// exactly the ways holding the row's maximum to `RRPV_MAX`.
    pub(crate) fn find_victim(&mut self, set: usize, ways_in_play: usize) -> usize {
        let base = set * self.ways;
        let Some(row) = self.rrpv.get_mut(base..base + ways_in_play) else {
            return 0;
        };
        let max = row.iter().copied().max().unwrap_or(RRPV_MAX);
        let age = RRPV_MAX.saturating_sub(max);
        for r in row.iter_mut() {
            *r += age;
        }
        row.iter().position(|&r| r >= RRPV_MAX).unwrap_or(0)
    }
}

/// Static RRIP: insert at RRPV `max-1` ("long"), promote to 0 on hit.
/// Scan-resistant: a one-shot burst inserts at long and ages out before
/// displacing the hot working set.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Srrip, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8 * 16, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Srrip::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_sets(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Srrip {
    core: RripCore,
}

impl Srrip {
    /// Creates SRRIP for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Srrip {
            core: RripCore::new(sets, ways),
        }
    }
}

impl ReplacementPolicy for Srrip {
    fn name(&self) -> String {
        "SRRIP".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.core.set_rrpv(set, way, 0);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.core.set_rrpv(set, way, RRPV_MAX - 1);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        self.core.find_victim(ctx.set, ctx.lines.len())
    }
}

/// Bimodal RRIP: insert at `max` ("distant") except for 1-in-32 fills at
/// `max-1`. Thrash-resistant: preserves part of a working set that cycles
/// faster than the cache can hold it.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Brrip, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8 * 16, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Brrip::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_sets(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Brrip {
    core: RripCore,
    fills: u64,
}

impl Brrip {
    /// Creates BRRIP for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Brrip {
            core: RripCore::new(sets, ways),
            fills: 0,
        }
    }

    fn insert_rrpv(fills: &mut u64) -> u8 {
        *fills += 1;
        if (*fills).is_multiple_of(BRRIP_EPSILON) {
            RRPV_MAX - 1
        } else {
            RRPV_MAX
        }
    }
}

impl ReplacementPolicy for Brrip {
    fn name(&self) -> String {
        "BRRIP".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.core.set_rrpv(set, way, 0);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        let rrpv = Self::insert_rrpv(&mut self.fills);
        self.core.set_rrpv(set, way, rrpv);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        self.core.find_victim(ctx.set, ctx.lines.len())
    }
}

/// Number of leader sets per policy for DRRIP set dueling.
const LEADERS: usize = 32;
/// PSEL saturating counter width (10 bits).
const PSEL_MAX: i32 = 1023;

/// Dynamic RRIP: set dueling between SRRIP and BRRIP leader sets with a
/// 10-bit PSEL counter; follower sets adopt the winner.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::Drrip, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8 * 16, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(Drrip::new(cfg.num_sets(), cfg.ways())));
/// assert_eq!(cache.num_sets(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Drrip {
    core: RripCore,
    sets: usize,
    fills: u64,
    psel: i32,
}

/// Leader-set role in DRRIP set dueling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetRole {
    SrripLeader,
    BrripLeader,
    Follower,
}

impl Drrip {
    /// Creates DRRIP for `sets × ways`.
    pub fn new(sets: usize, ways: usize) -> Self {
        Drrip {
            core: RripCore::new(sets, ways),
            sets,
            fills: 0,
            psel: PSEL_MAX / 2,
        }
    }

    fn role(&self, set: usize) -> SetRole {
        // Spread leaders evenly; offset the BRRIP leaders half a stride.
        // Small caches get proportionally fewer leaders so followers always
        // exist.
        let leaders = LEADERS.min(self.sets / 4).max(1);
        let stride = (self.sets / leaders).max(2);
        if set.is_multiple_of(stride) && set / stride < leaders {
            SetRole::SrripLeader
        } else if set % stride == stride / 2 && set / stride < leaders {
            SetRole::BrripLeader
        } else {
            SetRole::Follower
        }
    }

    fn use_brrip(&self, set: usize) -> bool {
        match self.role(set) {
            SetRole::SrripLeader => false,
            SetRole::BrripLeader => true,
            // PSEL above midpoint means SRRIP leaders miss more → use BRRIP.
            SetRole::Follower => self.psel > PSEL_MAX / 2,
        }
    }
}

impl ReplacementPolicy for Drrip {
    fn name(&self) -> String {
        "DRRIP".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.core.set_rrpv(set, way, 0);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        // A fill is a miss: train PSEL on leader sets.
        match self.role(set) {
            SetRole::SrripLeader => self.psel = (self.psel + 1).min(PSEL_MAX),
            SetRole::BrripLeader => self.psel = (self.psel - 1).max(0),
            SetRole::Follower => {}
        }
        let rrpv = if self.use_brrip(set) {
            Brrip::insert_rrpv(&mut self.fills)
        } else {
            RRPV_MAX - 1
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
    use crate::policies::testutil::{one_set_cache, read, run_lines};
    use crate::policies::Lru;
    use crate::{CacheConfig, SetAssocCache};

    #[test]
    fn srrip_is_scan_resistant() {
        // Hot set of 4 lines + an interleaved one-shot scan. SRRIP should
        // keep the hot lines; LRU flushes them on every scan burst.
        let mut trace = Vec::new();
        let mut scan_next = 1000u64;
        for round in 0..200 {
            for hot in 0..4u64 {
                trace.push(hot);
            }
            if round % 2 == 0 {
                for _ in 0..8 {
                    trace.push(scan_next);
                    scan_next += 1;
                }
            }
        }
        let mut srrip = one_set_cache(8, Box::new(Srrip::new(1, 8)));
        let mut lru = one_set_cache(8, Box::new(Lru::new(1, 8)));
        let s = run_lines(&mut srrip, &trace);
        let l = run_lines(&mut lru, &trace);
        assert!(s > l, "SRRIP {s} should beat LRU {l} on scans");
    }

    #[test]
    fn brrip_is_thrash_resistant() {
        // Cyclic working set of 12 lines in an 8-way set: LRU hits 0.
        let trace: Vec<u64> = (0..12u64).cycle().take(6000).collect();
        let mut brrip = one_set_cache(8, Box::new(Brrip::new(1, 8)));
        let mut lru = one_set_cache(8, Box::new(Lru::new(1, 8)));
        let b = run_lines(&mut brrip, &trace);
        let l = run_lines(&mut lru, &trace);
        assert!(
            b > l + 100,
            "BRRIP {b} should far exceed LRU {l} under thrash"
        );
    }

    #[test]
    fn drrip_tracks_the_better_component() {
        // Under thrash DRRIP should approach BRRIP, not SRRIP.
        let cfg = CacheConfig::new(64 * 8 * 64, 8); // 64 sets to give dueling room
        let lines: Vec<u64> = (0..(64 * 12) as u64).collect(); // 12 lines per set
        let mut trace = Vec::new();
        for _ in 0..40 {
            trace.extend_from_slice(&lines);
        }
        let run = |policy: Box<dyn ReplacementPolicy>| {
            let mut c = SetAssocCache::new(cfg, policy);
            trace
                .iter()
                .filter(|&&l| c.access(&read(l, 0)).is_hit())
                .count() as u64
        };
        let drrip = run(Box::new(Drrip::new(64, 8)));
        let srrip = run(Box::new(Srrip::new(64, 8)));
        let brrip = run(Box::new(Brrip::new(64, 8)));
        assert!(brrip > srrip);
        assert!(
            drrip > srrip + (brrip - srrip) / 4,
            "DRRIP {drrip} should lean toward BRRIP {brrip} over SRRIP {srrip}"
        );
    }

    /// The age-until-distant loop the closed form replaced, kept as the
    /// reference.
    fn aging_loop(rrpv: &mut [u8], ways_in_play: usize) -> usize {
        loop {
            for w in 0..ways_in_play {
                if rrpv[w] >= RRPV_MAX {
                    return w;
                }
            }
            for r in &mut rrpv[..ways_in_play] {
                *r += 1;
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn closed_form_aging_matches_the_aging_loop(
            rows in proptest::collection::vec(proptest::collection::vec(0u8..=RRPV_MAX, 64..65), 1..8),
            ways in 1usize..65,
            reserved in 0usize..4,
            set_pick in 0usize..8,
        ) {
            let mut core = RripCore::new(rows.len(), ways);
            for (set, row) in rows.iter().enumerate() {
                for (way, &v) in row.iter().take(ways).enumerate() {
                    core.set_rrpv(set, way, v);
                }
            }
            let set = set_pick % rows.len();
            let data_ways = ways.saturating_sub(reserved).max(1);
            let mut expected = core.rrpv.clone();
            let want = aging_loop(&mut expected[set * ways..], data_ways);
            let got = core.find_victim(set, data_ways);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert_eq!(&core.rrpv, &expected);
        }
    }

    #[test]
    fn rrpv_aging_terminates_and_victimizes_distant_lines() {
        let mut core = RripCore::new(1, 4);
        for w in 0..4 {
            core.set_rrpv(0, w, 0);
        }
        core.set_rrpv(0, 2, 2);
        let v = core.find_victim(0, 4);
        assert_eq!(v, 2);
        // After aging, way 2 reached max and others aged by the same amount.
        assert_eq!(core.rrpv(0, 0), 1);
    }
}
