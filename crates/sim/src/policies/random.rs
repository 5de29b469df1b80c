use crate::{AccessMeta, ReplacementPolicy, VictimCtx};

/// Pseudo-random eviction (xorshift), included as a sanity baseline: any
/// policy claiming intelligence should beat it.
///
/// # Example
///
/// ```
/// use popt_sim::{policies::RandomEvict, CacheConfig, SetAssocCache};
///
/// let cfg = CacheConfig::new(64 * 8, 8);
/// let cache = SetAssocCache::new(cfg, Box::new(RandomEvict::new(42)));
/// assert_eq!(cache.num_ways(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct RandomEvict {
    state: u64,
}

impl RandomEvict {
    /// Creates the policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        RandomEvict { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl ReplacementPolicy for RandomEvict {
    fn name(&self) -> String {
        "Random".to_string()
    }

    fn on_hit(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}

    fn on_fill(&mut self, _set: usize, _way: usize, _meta: &AccessMeta) {}

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        (self.next() % ctx.lines.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::testutil::{one_set_cache, run_lines};

    #[test]
    fn is_deterministic_per_seed() {
        let trace: Vec<u64> = (0..37u64).cycle().take(2000).collect();
        let mut a = one_set_cache(8, Box::new(RandomEvict::new(7)));
        let mut b = one_set_cache(8, Box::new(RandomEvict::new(7)));
        assert_eq!(run_lines(&mut a, &trace), run_lines(&mut b, &trace));
    }

    #[test]
    fn random_beats_lru_on_cyclic_thrash() {
        // On a cyclic scan slightly larger than the cache, LRU gets 0 hits;
        // random keeps some lines by luck.
        let trace: Vec<u64> = (0..10u64).cycle().take(5000).collect();
        let mut rnd = one_set_cache(8, Box::new(RandomEvict::new(3)));
        let mut lru = one_set_cache(8, Box::new(crate::policies::Lru::new(1, 8)));
        assert!(run_lines(&mut rnd, &trace) > run_lines(&mut lru, &trace));
    }
}
