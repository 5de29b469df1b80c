//! The hasher behind the policies' integer-keyed tables.
//!
//! Leeway, SDBP, Hawkeye and SHiP-Mem look up a table on most LLC misses,
//! keyed by an access site or a line number. The standard library's
//! SipHash is built to resist adversarial keys, which simulated addresses
//! are not, and costs most of those policies' per-miss time.
//! [`IntMap`] hashes a key with one multiply and one xor-shift instead.
//!
//! Lookups are all these maps serve: no policy's decision depends on
//! their iteration order (Hawkeye's `retain` filters by a predicate of
//! each entry alone), so the hash function cannot change a result.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, the Fibonacci hashing multiplier.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// A multiplicative hasher for integer keys: each word is mixed into the
/// state by a Fibonacci multiply, whose high half is then xor-ed into its
/// low half, so the high key bits reach the low (bucket-index) bits. Keys
/// that differ only in their high bits, such as the lines of one sampled
/// set, still spread.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MulHasher(u64);

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(MULTIPLIER);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`MulHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(x: u64) -> u64 {
        BuildHasherDefault::<MulHasher>::default().hash_one(x)
    }

    #[test]
    fn keys_sharing_low_bits_spread_over_buckets() {
        // The lines of one set of a 256-set cache all share their low 8
        // bits; their hashes must not share the low bits that pick a
        // bucket.
        let buckets: std::collections::BTreeSet<u64> =
            (0..1024u64).map(|i| hash(i * 256) & 1023).collect();
        assert!(buckets.len() > 500, "{} distinct buckets", buckets.len());
    }
}
