//! The benchmark obeys the repository's rules: its code passes the
//! `popt-analyze` invariant lints (also with the output-ordering and
//! checked-cast scopes extended to it), and `BENCHMARK.json` declares
//! metrics the result line can carry.

use popt_analyze::{run_check, Config};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a directory of the repository")
        .to_path_buf()
}

fn benchmark_diagnostics(config: &Config) -> Vec<String> {
    let report = run_check(&repo_root(), config).expect("repository sources are readable");
    report
        .violations
        .iter()
        .chain(&report.warnings)
        .filter(|d| d.path.starts_with("perfbench/"))
        .map(ToString::to_string)
        .collect()
}

#[test]
fn benchmark_passes_the_repository_lints() {
    let config = Config::load(&repo_root()).expect("analyze.toml parses");
    let found = benchmark_diagnostics(&config);
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn benchmark_passes_the_ordering_and_cast_rules_too() {
    let mut config = Config::load(&repo_root()).expect("analyze.toml parses");
    config.ordered_output.push("perfbench/src/*.rs".to_string());
    config.cast_scope.push("perfbench/src".to_string());
    let found = benchmark_diagnostics(&config);
    assert!(found.is_empty(), "{found:#?}");
}

#[test]
fn benchmark_json_declares_valid_metrics() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let mut names = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for (name, unit) in perfbench::report::declared(&text, key).expect("metric list") {
            assert!(perfbench::report::valid_name(&name), "{name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
            names.push(name);
        }
    }
    let count = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), count, "metric names are unique");
    assert!(names.iter().any(|n| n == "setup_s"));
}
