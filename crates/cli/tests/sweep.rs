//! Acceptance tests for the sweep harness: parallel determinism, warm-cache
//! reuse, and kill/resume semantics.

use popt_cli::sweep::{run_sweep, SweepOptions};
use popt_cli::Scale;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/popt-cli-test/sweep-accept")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(out: PathBuf, jobs: usize, only: &[&str]) -> SweepOptions {
    SweepOptions {
        scale: Scale::Tiny,
        jobs,
        out,
        only: only.iter().map(|s| s.to_string()).collect(),
        inject_fail: None,
    }
}

/// Every emitted result file (CSV and rendered text), keyed by file name.
fn result_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("output dir exists") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if (name.ends_with(".csv") || name.ends_with(".txt")) && !name.starts_with("sweep_report") {
            out.insert(name, std::fs::read(entry.path()).unwrap());
        }
    }
    out
}

#[test]
fn parallel_sweep_output_is_byte_identical_to_serial() {
    // fig2 exercises plain sim cells, fig7 builds matrices under several
    // encodings (so the artifact cache is on the hot path).
    let selection = ["fig2", "fig7"];
    let serial_dir = scratch("det-serial");
    let parallel_dir = scratch("det-parallel");
    let serial = run_sweep(&opts(serial_dir.clone(), 1, &selection)).unwrap();
    let parallel = run_sweep(&opts(parallel_dir.clone(), 4, &selection)).unwrap();
    assert!(serial.executed > 0);
    assert_eq!(serial.executed, parallel.executed);
    let a = result_files(&serial_dir);
    let b = result_files(&parallel_dir);
    assert!(!a.is_empty(), "sweep emitted result files");
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "same set of result files"
    );
    for (name, bytes) in &a {
        assert_eq!(bytes, &b[name], "{name} must be byte-identical at --jobs 4");
    }
    // The canonicalized manifests are byte-identical too: completion order
    // never leaks into the journal.
    assert_eq!(
        std::fs::read(serial_dir.join("sweep_manifest.jsonl")).unwrap(),
        std::fs::read(parallel_dir.join("sweep_manifest.jsonl")).unwrap()
    );
}

#[test]
fn warm_cache_rerun_resimulates_and_rebuilds_nothing() {
    let dir = scratch("warm");
    let selection = ["fig2", "fig7"];
    let first = run_sweep(&opts(dir.clone(), 2, &selection)).unwrap();
    assert!(first.executed > 0);
    assert_eq!(first.resumed, 0);
    assert!(first.counters.matrix_builds > 0, "cold run builds matrices");
    let manifest_after_first = std::fs::read(dir.join("sweep_manifest.jsonl")).unwrap();
    let second = run_sweep(&opts(dir.clone(), 2, &selection)).unwrap();
    assert_eq!(second.executed, 0, "warm run re-simulates nothing");
    assert_eq!(second.resumed, first.executed);
    assert_eq!(second.counters.graph_builds, 0, "no graph regeneration");
    assert_eq!(second.counters.matrix_builds, 0, "no matrix rebuilds");
    assert_eq!(
        std::fs::read(dir.join("sweep_manifest.jsonl")).unwrap(),
        manifest_after_first,
        "manifest is stable across warm re-runs"
    );
}

#[test]
fn failing_cells_fail_the_sweep_but_spare_the_rest() {
    let dir = scratch("inject-fail");
    // Break only fig2's urand cells; fig2's other cells and all of fig4
    // must still complete and journal.
    let mut broken = opts(dir.clone(), 2, &["fig2", "fig4"]);
    broken.inject_fail = Some("fig2/tiny/urand".to_string());
    let summary = run_sweep(&broken).unwrap();
    assert_eq!(summary.failed, vec!["fig2".to_string()]);
    assert!(summary.executed > 0, "healthy cells still simulated");
    let files = result_files(&dir);
    assert!(
        files.keys().any(|n| n.starts_with("fig4")),
        "fig4 tables emitted"
    );
    assert!(
        !files.keys().any(|n| n.starts_with("fig2")),
        "failed experiment withholds its tables"
    );
    let json = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
    assert!(json.contains("\"failed\":[\"fig2\"]"), "{json}");
    // Remove the fault: the healthy cells replay from the journal and only
    // the previously failing cells simulate.
    let fixed = run_sweep(&opts(dir.clone(), 2, &["fig2", "fig4"])).unwrap();
    assert!(fixed.failed.is_empty());
    assert!(fixed.executed > 0, "previously failing cells now simulate");
    assert!(fixed.resumed > 0, "healthy cells replay from the journal");
    assert_eq!(
        fixed.executed + fixed.resumed,
        summary.executed + summary.resumed + fixed.executed,
        "no healthy cell was re-simulated"
    );
    let files = result_files(&dir);
    assert!(
        files.keys().any(|n| n.starts_with("fig2")),
        "fig2 tables emitted after the fix"
    );
    let json = std::fs::read_to_string(dir.join("sweep_summary.json")).unwrap();
    assert!(json.contains("\"failed\":[]"), "{json}");
}

#[test]
fn interrupted_sweep_resumes_only_unfinished_cells() {
    // A first run that only gets through fig2 stands in for a killed
    // sweep; the journal it leaves behind must carry the full restart.
    let dir = scratch("resume");
    let partial = run_sweep(&opts(dir.clone(), 2, &["fig2"])).unwrap();
    assert!(partial.executed > 0);
    let resumed = run_sweep(&opts(dir.clone(), 2, &["fig2", "fig4"])).unwrap();
    assert_eq!(
        resumed.resumed, partial.executed,
        "every fig2 cell replays from the journal"
    );
    assert!(resumed.executed > 0, "fig4 cells still simulate");
    // And the combined run is now fully journaled: a third run is all
    // replay.
    let third = run_sweep(&opts(dir, 2, &["fig2", "fig4"])).unwrap();
    assert_eq!(third.executed, 0);
    assert_eq!(third.resumed, partial.executed + resumed.executed);
}
