//! `hashmap-in-ordered-path` / `unseeded-rng`: byte-identical replays.

use super::SourceFile;
use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::TokenKind;

/// Constructors whose output depends on process entropy.
const UNSEEDED: &[&str] = &["thread_rng", "from_entropy"];

/// Hash-ordered collections and the hasher types that smuggle the same
/// per-process ordering in through a type parameter (e.g.
/// `BTreeMap`-free code hashing keys with `RandomState` before emitting
/// them). All of them randomize any serialization derived from their
/// iteration order.
const HASH_ORDERED: &[&str] = &["HashMap", "HashSet", "RandomState", "DefaultHasher"];

/// Scans one file for order-instability (hash collections in ordered
/// output paths) and unseeded randomness (everywhere except the
/// configured generator files).
pub fn check(file: &SourceFile, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let ordered = file.matches_any(&config.ordered_output);
    let rng_exempt = file.matches_any(&config.rng_exempt);
    for (i, tok) in file.tokens.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else {
            continue;
        };
        if ordered && !file.test_mask[i] && HASH_ORDERED.contains(&name.as_str()) {
            out.push(Diagnostic {
                lint: "hashmap-in-ordered-path",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`{name}` in an ordered-output path: iteration order varies per \
                     process and breaks golden traces and byte-stable responses; \
                     use BTreeMap/BTreeSet or sort"
                ),
            });
        }
        if !rng_exempt && UNSEEDED.contains(&name.as_str()) {
            out.push(Diagnostic {
                lint: "unseeded-rng",
                severity: Severity::Deny,
                path: file.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                message: format!(
                    "`{name}` draws process entropy; all randomness must be \
                     explicitly seeded for reproducible traces"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_collections_fire_in_ordered_paths_only() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }";
        let ordered = SourceFile::new("crates/sim/src/stats.rs".into(), src);
        let free = SourceFile::new("crates/sim/src/cache.rs".into(), src);
        let cfg = Config::default();
        assert_eq!(check(&ordered, &cfg).len(), 2);
        assert!(check(&free, &cfg).is_empty());
    }

    #[test]
    fn hasher_types_fire_in_result_table_paths() {
        // RandomState/DefaultHasher smuggle hash ordering into otherwise
        // BTree-based code; the rendered result tables are compared byte
        // for byte, so they are held to the same rule.
        let src = "use std::collections::hash_map::RandomState;\n\
                   fn f() { let h = std::hash::DefaultHasher::new(); }";
        let table = SourceFile::new("crates/cli/src/table.rs".into(), src);
        let cfg = Config::default();
        let d = check(&table, &cfg);
        assert_eq!(d.len(), 2);
        assert!(d.iter().all(|d| d.lint == "hashmap-in-ordered-path"));
        let free = SourceFile::new("crates/sim/src/cache.rs".into(), src);
        assert!(check(&free, &cfg).is_empty());
    }

    #[test]
    fn unseeded_rng_fires_everywhere_but_generators() {
        let src = "fn f() { let mut rng = rand::thread_rng(); }";
        let anywhere = SourceFile::new("crates/kernels/src/mis.rs".into(), src);
        let generators = SourceFile::new("crates/graph/src/generators.rs".into(), src);
        let cfg = Config::default();
        assert_eq!(check(&anywhere, &cfg).len(), 1);
        assert_eq!(check(&anywhere, &cfg)[0].lint, "unseeded-rng");
        assert!(check(&generators, &cfg).is_empty());
    }

    #[test]
    fn unseeded_rng_fires_even_in_test_code() {
        // Nondeterministic tests are flaky tests; the exemption that
        // applies to panics/casts deliberately does not apply here.
        let src = "#[cfg(test)]\nmod tests { fn t() { rand::thread_rng(); } }";
        let f = SourceFile::new("crates/sim/src/timing.rs".into(), src);
        assert_eq!(check(&f, &Config::default()).len(), 1);
    }

    #[test]
    fn hash_collections_in_tests_of_ordered_files_are_exempt() {
        let src = "#[cfg(test)]\nmod tests { use std::collections::HashSet; }";
        let f = SourceFile::new("crates/sim/src/stats.rs".into(), src);
        assert!(check(&f, &Config::default()).is_empty());
    }

    #[test]
    fn seeded_constructors_are_legal() {
        let src = "fn f() { let rng = StdRng::seed_from_u64(42); }";
        let f = SourceFile::new("crates/trace/src/sink.rs".into(), src);
        assert!(check(&f, &Config::default()).is_empty());
    }
}
