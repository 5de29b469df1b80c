//! Output checks: conservation laws every cell's statistics must obey,
//! and digests that pin simulated results to the values the program
//! produced when the benchmark was defined.

use popt_sim::{CacheStats, HierarchyStats};
use popt_trace::CountingSink;
use std::collections::BTreeMap;

/// FNV-1a over 64-bit words. The benchmark keeps its own hash so that a
/// refactor of the program's hashers cannot move the pinned digests.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds bytes into the hash.
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one word into the hash.
    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash value.
    fn finish(self) -> u64 {
        self.0
    }
}

fn cache_words(c: &CacheStats) -> [u64; 6] {
    [
        c.hits,
        c.misses,
        c.evictions,
        c.writebacks,
        c.irregular_hits,
        c.irregular_misses,
    ]
}

/// Digest of every simulated counter of a cell. Trailing zero bank counts
/// are skipped, so resizing the bank array to the bank count keeps the
/// digest.
pub fn stats_digest(s: &HierarchyStats) -> u64 {
    let mut h = Fnv::default();
    for level in [&s.l1, &s.l2, &s.llc] {
        for v in cache_words(level) {
            h.word(v);
        }
    }
    h.word(s.instructions);
    let used = s
        .bank_accesses
        .iter()
        .rposition(|&b| b != 0)
        .map_or(0, |i| i + 1);
    for &b in &s.bank_accesses[..used] {
        h.word(b);
    }
    for v in [
        s.prefetch_fills,
        s.dram_writebacks,
        s.coherence_invalidations,
        s.overheads.streamed_bytes,
        s.overheads.matrix_lookups,
        s.overheads.ties,
        s.overheads.decisions,
    ] {
        h.word(v);
    }
    h.finish()
}

/// Digest of a file's bytes.
pub fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.bytes(bytes);
    h.finish()
}

/// Conservation laws of the hierarchy: every L1 miss is an L2 access,
/// every L2 miss an LLC access, and the per-bank counts add up to the LLC
/// demand accesses. Returns one message per violated law.
pub fn conservation(s: &HierarchyStats) -> Vec<String> {
    let mut errors = Vec::new();
    if s.l2.demand_accesses() != s.l1.misses {
        errors.push(format!(
            "L2 accesses {} != L1 misses {}",
            s.l2.demand_accesses(),
            s.l1.misses
        ));
    }
    if s.llc.demand_accesses() != s.l2.misses {
        errors.push(format!(
            "LLC accesses {} != L2 misses {}",
            s.llc.demand_accesses(),
            s.l2.misses
        ));
    }
    let banks: u64 = s.bank_accesses.iter().sum();
    if banks != s.llc.demand_accesses() {
        errors.push(format!(
            "bank accesses {banks} != LLC accesses {}",
            s.llc.demand_accesses()
        ));
    }
    if s.l1.demand_accesses() > s.instructions {
        errors.push(format!(
            "L1 accesses {} exceed instructions {}",
            s.l1.demand_accesses(),
            s.instructions
        ));
    }
    errors
}

/// Checks a cell against the kernel's own event counts: the L1 sees every
/// memory access once, and retired instructions are the accesses plus the
/// kernel's explicit instruction ticks.
pub fn against_kernel(s: &HierarchyStats, kernel: &CountingSink) -> Vec<String> {
    let mut errors = conservation(s);
    if s.l1.demand_accesses() != kernel.accesses() {
        errors.push(format!(
            "L1 accesses {} != kernel accesses {}",
            s.l1.demand_accesses(),
            kernel.accesses()
        ));
    }
    if s.instructions != kernel.instructions {
        errors.push(format!(
            "instructions {} != kernel instructions {}",
            s.instructions, kernel.instructions
        ));
    }
    errors
}

/// Parses a pin file: `<key> <16 hex digits>` per line, `#` comments.
///
/// # Panics
///
/// Panics on a malformed line: pin files are compiled into the benchmark.
pub fn parse_pins(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (key, hex) = l.rsplit_once(' ').expect("pin line is `<key> <digest>`");
            let digest = u64::from_str_radix(hex, 16).expect("pin digest is hex");
            (key.trim().to_string(), digest)
        })
        .collect()
}

/// Compares produced digests with pinned ones. Every pinned key must be
/// produced with the same digest and nothing unpinned may appear; returns
/// one message per mismatching key.
pub fn compare_pins(pins: &BTreeMap<String, u64>, got: &BTreeMap<String, u64>) -> Vec<String> {
    let mut errors = Vec::new();
    for (key, want) in pins {
        match got.get(key) {
            Some(d) if d == want => {}
            Some(d) => errors.push(format!("{key}: digest {d:016x}, pinned {want:016x}")),
            None => errors.push(format!("{key}: pinned but not produced")),
        }
    }
    for key in got.keys().filter(|k| !pins.contains_key(*k)) {
        errors.push(format!("{key}: produced but not pinned"));
    }
    errors
}

/// Renders digests in the pin-file format.
pub fn format_pins(got: &BTreeMap<String, u64>) -> String {
    got.iter().map(|(k, d)| format!("{k} {d:016x}\n")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn consistent() -> (HierarchyStats, CountingSink) {
        let mut s = HierarchyStats {
            instructions: 120,
            ..Default::default()
        };
        s.l1 = CacheStats {
            hits: 70,
            misses: 30,
            ..Default::default()
        };
        s.l2 = CacheStats {
            hits: 10,
            misses: 20,
            ..Default::default()
        };
        s.llc = CacheStats {
            hits: 5,
            misses: 15,
            ..Default::default()
        };
        s.bank_accesses[0] = 12;
        s.bank_accesses[3] = 8;
        let kernel = CountingSink {
            reads: 60,
            writes: 40,
            instructions: 120,
            ..Default::default()
        };
        (s, kernel)
    }

    #[test]
    fn consistent_stats_pass() {
        let (s, kernel) = consistent();
        assert!(against_kernel(&s, &kernel).is_empty());
    }

    #[test]
    fn each_broken_law_is_reported() {
        let (base, kernel) = consistent();
        let mut cases: Vec<(HierarchyStats, &str)> = Vec::new();
        let mut s = base;
        s.bank_accesses[3] += 1;
        cases.push((s, "bank accesses"));
        let mut s = base;
        s.l2.hits += 1;
        cases.push((s, "L2 accesses"));
        let mut s = base;
        s.llc.misses += 1;
        cases.push((s, "LLC accesses"));
        let mut s = base;
        s.l1.hits += 1;
        cases.push((s, "kernel accesses"));
        let mut s = base;
        s.instructions += 1;
        cases.push((s, "kernel instructions"));
        for (s, law) in cases {
            let errors = against_kernel(&s, &kernel);
            assert!(
                errors.iter().any(|e| e.contains(law)),
                "{law} not reported: {errors:?}"
            );
        }
    }

    #[test]
    fn digest_ignores_bank_padding_but_not_counts() {
        let (s, _) = consistent();
        let mut moved = s;
        moved.llc.evictions += 1;
        assert_ne!(stats_digest(&s), stats_digest(&moved));
        let mut shifted = s;
        shifted.bank_accesses[0] -= 1;
        shifted.bank_accesses[1] += 1;
        assert_ne!(stats_digest(&s), stats_digest(&shifted));
    }

    #[test]
    fn pins_round_trip_and_mismatches_are_named() {
        let got: BTreeMap<String, u64> = [("a/b".to_string(), 1), ("c".to_string(), 0xdead)].into();
        let pins = parse_pins(&format!("# header\n{}", format_pins(&got)));
        assert_eq!(pins, got);
        assert!(compare_pins(&pins, &got).is_empty());
        let mut other = got.clone();
        other.insert("c".to_string(), 1);
        other.insert("d".to_string(), 2);
        other.remove("a/b");
        let errors = compare_pins(&pins, &other);
        assert_eq!(errors.len(), 3, "{errors:?}");
    }
}
