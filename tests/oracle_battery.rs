//! The `popt-oracle` fixed-seed battery as a root-level test, so the
//! default `cargo test` checks every policy in the zoo against the
//! Mattson (LRU) and MIN (Belady) reference models and the metamorphic
//! suite, not only a `--workspace` run.
//!
//! The seeds are constants: unlike the oracle crate's own suite, this
//! battery ignores `POPT_ORACLE_SEED`.

use p_opt::graph::generators;
use p_opt::kernels::App;
use p_opt::trace::RecordingSink;
use popt_oracle::{gen, graph_aware_policies, NamedPolicy, OracleReport, TraceCase};

/// From a degenerate single-set bank up to a small LLC slice.
const GEOMETRIES: [(usize, usize); 4] = [(1, 2), (2, 4), (4, 8), (8, 16)];

/// Adversarial generators (scans, ways±1 thrash loops, mixed, random) at
/// one fixed seed across every geometry.
#[test]
fn adversarial_battery_passes_every_oracle() {
    let zoo = NamedPolicy::zoo();
    let mut report = OracleReport::new();
    for (sets, ways) in GEOMETRIES {
        for case in gen::adversarial_cases(sets, ways, 0x0BAD_5EED_0001) {
            report.check_case(&case, &zoo);
        }
    }
    assert!(report.ok(), "{}", report.render());
    assert_eq!(report.cases.len(), GEOMETRIES.len() * 8);
}

/// Kernel traces over small synthetic graphs, with T-OPT and P-OPT in the
/// zoo.
#[test]
fn kernel_battery_passes_every_oracle() {
    let runs = [
        (App::Pagerank, generators::uniform_random(96, 480, 11)),
        (App::Components, generators::mesh(8, 2, 12)),
        (App::Mis, generators::preferential_attachment(80, 3, 13)),
    ];
    let mut report = OracleReport::new();
    for (app, g) in runs {
        let plan = app.plan(&g);
        let mut sink = RecordingSink::new();
        app.trace(&g, &plan, &mut sink);
        let case = TraceCase::from_events(
            &format!("kernel/{app}"),
            8,
            8,
            sink.events(),
            Some(&plan.space),
        );
        let mut zoo = NamedPolicy::zoo();
        zoo.extend(graph_aware_policies(app, &g));
        report.check_case(&case, &zoo);
    }
    assert!(report.ok(), "{}", report.render());
    for name in ["T-OPT", "P-OPT"] {
        assert!(report.policies.iter().any(|p| p == name), "{name} missing");
    }
}
