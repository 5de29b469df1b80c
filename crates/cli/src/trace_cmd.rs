//! The `trace` subcommand: record, inspect and replay `POPTTRC2` trace
//! files.
//!
//! ```text
//! experiments trace record --app pr --graph urand [--scale S] --out FILE
//! experiments trace replay FILE --app pr --graph urand [--scale S] [--policies lru,drrip,popt]
//! experiments trace info FILE [--verify]
//! ```
//!
//! `record` executes one kernel over one suite graph and writes the
//! compressed event stream; `replay` drives any number of policy
//! hierarchies from that file in a *single* decode pass (a
//! [`FanoutSink`] fan-out — the kernel never re-executes); `info` prints
//! the footer index without decoding chunk payloads, and `--verify`
//! additionally decodes every chunk against its checksum.

use crate::runner::{policy_hierarchy_cached, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::Graph;
use popt_kernels::App;
use popt_sim::{Hierarchy, PolicyKind};
use popt_tracestore::{replay_any, trace_info, verify, ChunkWriter, FanoutSink};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: experiments trace record --app A --graph G [--scale S] --out FILE\n\
         \u{20}      experiments trace replay FILE --app A --graph G [--scale S] [--policies P,P,..]\n\
         \u{20}      experiments trace info FILE [--verify]\n\
         apps:     pr cc pr-delta radii mis\n\
         graphs:   dbp uk02 kron urand hbubl\n\
         policies: lru bit-plru random srrip brrip drrip ship-pc ship-mem\n\
         \u{20}         hawkeye sdbp leeway topt popt (belady needs two passes: use sweep)"
    );
}

fn parse_app(s: &str) -> Option<App> {
    App::ALL.into_iter().find(|a| a.name() == s)
}

fn parse_suite_graph(s: &str) -> Option<SuiteGraph> {
    SuiteGraph::ALL.into_iter().find(|g| g.name() == s)
}

fn parse_policy(s: &str) -> Result<PolicySpec, String> {
    let norm: String = s
        .to_ascii_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    let kind = match norm.as_str() {
        "lru" => PolicyKind::Lru,
        "bitplru" => PolicyKind::BitPlru,
        "random" => PolicyKind::Random,
        "srrip" => PolicyKind::Srrip,
        "brrip" => PolicyKind::Brrip,
        "drrip" => PolicyKind::Drrip,
        "shippc" => PolicyKind::ShipPc,
        "shipmem" => PolicyKind::ShipMem,
        "hawkeye" => PolicyKind::Hawkeye,
        "sdbp" => PolicyKind::Sdbp,
        "leeway" => PolicyKind::Leeway,
        "topt" => return Ok(PolicySpec::Topt),
        "popt" => return Ok(PolicySpec::popt_default()),
        "opt" | "belady" => {
            return Err(
                "Belady is two-pass (it is built from a recorded LLC stream); \
                 it cannot run from a replay fan-out"
                    .to_string(),
            )
        }
        _ => return Err(format!("unknown policy: {s}")),
    };
    Ok(PolicySpec::Baseline(kind))
}

/// Shared `--app/--graph/--scale` selection of the record/replay verbs.
struct Workload {
    app: App,
    which: SuiteGraph,
    scale: Scale,
}

impl Workload {
    fn materialize(&self) -> Graph {
        suite_graph(self.which, self.scale.suite())
    }

    /// The versioned workload descriptor (graph, scale, kernel) recorded
    /// in the file's meta string.
    fn descriptor(&self) -> String {
        format!(
            "trace/v2/suite/v1/{}/{}/{}",
            self.which,
            self.scale.name(),
            self.app.name()
        )
    }
}

/// Folds one `--app/--graph/--scale` flag into the partial selection.
/// Returns `Ok(true)` when the flag was consumed.
fn parse_workload_flag(
    arg: &str,
    iter: &mut std::vec::IntoIter<String>,
    app: &mut Option<App>,
    which: &mut Option<SuiteGraph>,
    scale: &mut Scale,
) -> Result<bool, String> {
    match arg {
        "--app" => {
            let v = iter.next().ok_or("--app needs a kernel name")?;
            *app = Some(parse_app(&v).ok_or_else(|| format!("unknown app: {v}"))?);
        }
        "--graph" => {
            let v = iter.next().ok_or("--graph needs a suite graph name")?;
            *which = Some(parse_suite_graph(&v).ok_or_else(|| format!("unknown graph: {v}"))?);
        }
        "--scale" => {
            let v = iter.next().ok_or("--scale needs tiny|small|standard")?;
            *scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale: {v}"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

fn record_main(args: Vec<String>) -> Result<(), String> {
    let mut app = None;
    let mut which = None;
    let mut scale = Scale::Tiny;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if parse_workload_flag(&arg, &mut iter, &mut app, &mut which, &mut scale)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(iter.next().ok_or("--out needs a file path")?)),
            other => return Err(format!("unknown trace record argument: {other}")),
        }
    }
    let wl = Workload {
        app: app.ok_or("trace record requires --app")?,
        which: which.ok_or("trace record requires --graph")?,
        scale,
    };
    let out = out.ok_or("trace record requires --out")?;
    let g = wl.materialize();
    let plan = wl.app.plan(&g);
    let file = std::fs::File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut writer =
        ChunkWriter::create(file, &plan.space, &wl.descriptor()).map_err(|e| e.to_string())?;
    wl.app.trace(&g, &plan, &mut writer);
    let (_, summary) = writer.finish().map_err(|e| e.to_string())?;
    println!(
        "recorded {}: {} events in {} chunks, {} bytes (raw v1 {} bytes, {:.2}x smaller)",
        out.display(),
        summary.events,
        summary.chunks,
        summary.v2_bytes,
        summary.v1_bytes,
        summary.ratio(),
    );
    Ok(())
}

fn replay_main(args: Vec<String>) -> Result<(), String> {
    let mut app = None;
    let mut which = None;
    let mut scale = Scale::Tiny;
    let mut file: Option<PathBuf> = None;
    let mut policies = vec!["lru".to_string(), "drrip".to_string(), "popt".to_string()];
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if parse_workload_flag(&arg, &mut iter, &mut app, &mut which, &mut scale)? {
            continue;
        }
        match arg.as_str() {
            "--policies" => {
                let v = iter
                    .next()
                    .ok_or("--policies needs a comma-separated list")?;
                policies = v.split(',').map(str::to_string).collect();
            }
            name if !name.starts_with('-') && file.is_none() => file = Some(PathBuf::from(name)),
            other => return Err(format!("unknown trace replay argument: {other}")),
        }
    }
    let wl = Workload {
        app: app.ok_or("trace replay requires --app (to rebuild policy inputs)")?,
        which: which.ok_or("trace replay requires --graph")?,
        scale,
    };
    let file = file.ok_or("trace replay requires a trace file")?;
    let specs = policies
        .iter()
        .map(|p| parse_policy(p))
        .collect::<Result<Vec<_>, _>>()?;
    if specs.is_empty() {
        return Err("trace replay needs at least one policy".to_string());
    }
    // Policy inputs (T-OPT transposes, P-OPT matrices) come from the graph;
    // the *event stream* comes exclusively from the file.
    let g = wl.materialize();
    let plan = wl.app.plan(&g);
    let cfg = wl.scale.config();
    let mut fanout: FanoutSink<Hierarchy> = FanoutSink::new(Vec::new());
    for spec in &specs {
        fanout.push(policy_hierarchy_cached(wl.app, &g, &cfg, &plan, spec, None));
    }
    let reader = std::fs::File::open(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    let stats = replay_any(std::io::BufReader::new(reader), &mut fanout)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!(
        "replayed {} events ({} chunks, one decode pass) into {} policies:",
        stats.events,
        stats.chunks_decoded,
        specs.len()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "policy", "llc_hits", "llc_misses", "miss%"
    );
    for (spec, hierarchy) in specs.iter().zip(fanout.into_inner()) {
        let s = hierarchy.stats();
        let total = s.llc.hits + s.llc.misses;
        let pct = if total == 0 {
            0.0
        } else {
            100.0 * s.llc.misses as f64 / total as f64
        };
        println!(
            "{:<12} {:>12} {:>12} {:>7.2}%",
            spec.label(),
            s.llc.hits,
            s.llc.misses,
            pct
        );
    }
    Ok(())
}

fn info_main(args: Vec<String>) -> Result<(), String> {
    let mut file: Option<PathBuf> = None;
    let mut check = false;
    for arg in args {
        match arg.as_str() {
            "--verify" => check = true,
            name if !name.starts_with('-') && file.is_none() => file = Some(PathBuf::from(name)),
            other => return Err(format!("unknown trace info argument: {other}")),
        }
    }
    let file = file.ok_or("trace info requires a trace file")?;
    let info = trace_info(&file).map_err(|e| format!("{}: {e}", file.display()))?;
    println!("format:   POPTTRC2");
    println!("meta:     {}", info.meta);
    println!("regions:  {}", info.regions);
    println!("events:   {}", info.events);
    println!("chunks:   {}", info.chunks.len());
    println!("v2 bytes: {}", info.file_bytes);
    println!("v1 bytes: {} ({:.2}x smaller)", info.v1_bytes, info.ratio());
    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "chunk", "offset", "events", "payload", "first_line", "last_line"
    );
    for (i, c) in info.chunks.iter().enumerate() {
        println!(
            "{i:>6} {:>12} {:>10} {:>12} {:>12} {:>12}",
            c.offset, c.events, c.payload_len, c.first_line, c.last_line
        );
    }
    if check {
        let stats = verify(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        println!(
            "verified: {} events across {} chunks, all checksums OK",
            stats.events, stats.chunks_decoded
        );
    }
    Ok(())
}

/// Entry point for `experiments trace ...`.
pub fn trace_main(mut args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        usage();
        return ExitCode::FAILURE;
    }
    let verb = args.remove(0);
    let result = match verb.as_str() {
        "record" => record_main(args),
        "replay" => replay_main(args),
        "info" => info_main(args),
        "--help" | "-h" => {
            usage();
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown trace verb: {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            usage();
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_flags_parse_and_reject() {
        let mut app = None;
        let mut which = None;
        let mut scale = Scale::Tiny;
        let args: Vec<String> = ["--app", "cc", "--graph", "kron", "--scale", "small"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            assert!(
                parse_workload_flag(&arg, &mut iter, &mut app, &mut which, &mut scale).unwrap()
            );
        }
        assert_eq!(app, Some(App::Components));
        assert_eq!(which, Some(SuiteGraph::Kron));
        assert_eq!(scale, Scale::Small);
        assert!(parse_app("nope").is_none());
        assert!(parse_suite_graph("nope").is_none());
    }

    #[test]
    fn policy_parsing_covers_the_zoo_and_rejects_belady() {
        assert!(matches!(
            parse_policy("ship-pc"),
            Ok(PolicySpec::Baseline(PolicyKind::ShipPc))
        ));
        assert!(matches!(parse_policy("TOPT"), Ok(PolicySpec::Topt)));
        assert!(matches!(parse_policy("popt"), Ok(PolicySpec::Popt { .. })));
        assert!(parse_policy("belady").is_err());
        assert!(parse_policy("opt").is_err());
        assert!(parse_policy("what").is_err());
    }

    #[test]
    fn record_then_info_then_replay_round_trips() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/trace-cmd");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("pr-urand.trc");
        record_main(
            ["--app", "pr", "--graph", "urand", "--out"]
                .iter()
                .map(|s| s.to_string())
                .chain([out.display().to_string()])
                .collect(),
        )
        .unwrap();
        info_main(vec![out.display().to_string(), "--verify".to_string()]).unwrap();
        replay_main(
            ["--app", "pr", "--graph", "urand", "--policies", "lru,drrip"]
                .iter()
                .map(|s| s.to_string())
                .chain([out.display().to_string()])
                .collect(),
        )
        .unwrap();
        // The replayed stats match a direct kernel-driven simulation.
        let g = suite_graph(SuiteGraph::Urand, Scale::Tiny.suite());
        let direct = crate::runner::simulate(
            App::Pagerank,
            &g,
            &Scale::Tiny.config(),
            &PolicySpec::Baseline(PolicyKind::Lru),
        );
        let plan = App::Pagerank.plan(&g);
        let mut fanout: FanoutSink<Hierarchy> = FanoutSink::new(Vec::new());
        fanout.push(policy_hierarchy_cached(
            App::Pagerank,
            &g,
            &Scale::Tiny.config(),
            &plan,
            &PolicySpec::Baseline(PolicyKind::Lru),
            None,
        ));
        let reader = std::io::BufReader::new(std::fs::File::open(&out).unwrap());
        replay_any(reader, &mut fanout).unwrap();
        let replayed = fanout.into_inner().pop().unwrap().stats();
        assert_eq!(replayed, direct, "replay is bit-identical to execution");
    }
}
