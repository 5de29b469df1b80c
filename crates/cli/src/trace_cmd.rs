//! The `trace` subcommand: record, inspect and replay `POPTTRC2` trace
//! files — the repository's one recorder and one replayer.
//!
//! ```text
//! experiments trace record --app pr --graph urand|FILE [--scale S] --out FILE
//! experiments trace replay FILE --app pr --graph urand|FILE [--scale S] [--policies lru,drrip,popt,opt]
//! experiments trace info FILE [--verify]
//! ```
//!
//! `record` executes one kernel over one graph and writes the compressed
//! event stream; `replay` drives any number of policy hierarchies from
//! that file in a *single* decode pass (a [`FanoutSink`] fan-out — the
//! kernel never re-executes); `info` prints the footer index without
//! decoding chunk payloads, and `--verify` additionally decodes every
//! chunk against its checksum.
//!
//! `--graph` names a suite graph or, when the name is not one, a graph
//! file (binary, MatrixMarket or edge list). For a file, `--scale` picks
//! only the hierarchy configuration. Belady (`opt`) is two-pass: `replay`
//! first decodes the file into an LRU hierarchy that records the LLC
//! stream, then lets the oracle built from it join the fan-out.

use crate::runner::{belady_hierarchy, policy_hierarchy_cached, PolicySpec};
use crate::Scale;
use popt_graph::suite::{suite_graph, SuiteGraph};
use popt_graph::{io, Graph, GraphError};
use popt_kernels::App;
use popt_sim::{Hierarchy, HierarchyStats, PolicyKind};
use popt_trace::TraceSink;
use popt_tracestore::{replay_any, trace_info, verify, ChunkWriter, FanoutSink, ReplayStats};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() {
    eprintln!(
        "usage: experiments trace record --app A --graph G [--scale S] --out FILE\n\
         \u{20}      experiments trace replay FILE --app A --graph G [--scale S] [--policies P,P,..]\n\
         \u{20}      experiments trace info FILE [--verify]\n\
         apps:     pr cc pr-delta radii mis\n\
         graphs:   dbp uk02 kron urand hbubl, or a graph file (--scale then picks\n\
         \u{20}         only the hierarchy)\n\
         policies: lru bit-plru random srrip brrip drrip ship-pc ship-mem\n\
         \u{20}         hawkeye sdbp leeway topt popt opt|belady"
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
        "opt" | "belady" => return Ok(PolicySpec::Belady),
        _ => return Err(format!("unknown policy: {s}")),
    };
    Ok(PolicySpec::Baseline(kind))
}

/// The graph a trace is recorded from or replayed against.
#[derive(Debug, Clone, PartialEq, Eq)]
enum GraphSource {
    /// A suite graph, generated at the workload's scale.
    Suite(SuiteGraph),
    /// A graph file, read with [`io::read_path`].
    File(PathBuf),
}

impl GraphSource {
    /// A suite-graph name wins; anything else is a file path.
    fn parse(s: &str) -> Self {
        parse_suite_graph(s).map_or_else(|| GraphSource::File(PathBuf::from(s)), GraphSource::Suite)
    }
}

/// Shared `--app/--graph/--scale` selection of the record/replay verbs.
struct Workload {
    app: App,
    graph: GraphSource,
    scale: Scale,
}

impl Workload {
    fn materialize(&self) -> Result<Graph, GraphError> {
        match &self.graph {
            GraphSource::Suite(which) => Ok(suite_graph(*which, self.scale.suite())),
            GraphSource::File(path) => io::read_path(path),
        }
    }

    /// [`materialize`](Self::materialize), with a failure rendered for the
    /// command line.
    fn load(&self) -> Result<Graph, String> {
        self.materialize().map_err(|e| match &self.graph {
            GraphSource::File(path) => format!(
                "{}: not a suite graph, and not a readable graph file: {e}",
                path.display()
            ),
            GraphSource::Suite(which) => format!("{which}: {e}"),
        })
    }

    /// The versioned workload descriptor (graph, scale, kernel) recorded
    /// in the file's meta string.
    fn descriptor(&self) -> String {
        match &self.graph {
            GraphSource::Suite(which) => format!(
                "trace/v2/suite/v1/{which}/{}/{}",
                self.scale.name(),
                self.app.name()
            ),
            GraphSource::File(path) => format!(
                "trace/v2/file/{}/{}",
                path.file_name().unwrap_or_default().to_string_lossy(),
                self.app.name()
            ),
        }
    }
}

/// Folds one `--app/--graph/--scale` flag into the partial selection.
/// Returns `Ok(true)` when the flag was consumed.
fn parse_workload_flag(
    arg: &str,
    iter: &mut std::vec::IntoIter<String>,
    app: &mut Option<App>,
    graph: &mut Option<GraphSource>,
    scale: &mut Scale,
) -> Result<bool, String> {
    match arg {
        "--app" => {
            let v = iter.next().ok_or("--app needs a kernel name")?;
            *app = Some(parse_app(&v).ok_or_else(|| format!("unknown app: {v}"))?);
        }
        "--graph" => {
            let v = iter
                .next()
                .ok_or("--graph needs a suite graph name or a graph file")?;
            *graph = Some(GraphSource::parse(&v));
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
    let mut graph = None;
    let mut scale = Scale::Tiny;
    let mut out: Option<PathBuf> = None;
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if parse_workload_flag(&arg, &mut iter, &mut app, &mut graph, &mut scale)? {
            continue;
        }
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(iter.next().ok_or("--out needs a file path")?)),
            other => return Err(format!("unknown trace record argument: {other}")),
        }
    }
    let wl = Workload {
        app: app.ok_or("trace record requires --app")?,
        graph: graph.ok_or("trace record requires --graph")?,
        scale,
    };
    let out = out.ok_or("trace record requires --out")?;
    let g = wl.load()?;
    let plan = wl.app.plan(&g);
    let file = std::fs::File::create(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let mut writer =
        ChunkWriter::create(file, &plan.space, &wl.descriptor()).map_err(|e| e.to_string())?;
    wl.app.trace(&g, &plan, &mut writer);
    let (_, summary) = writer.finish().map_err(|e| e.to_string())?;
    println!(
        "recorded {}: {} events in {} chunks, {} bytes (flat encoding {} bytes, {:.2}x smaller)",
        out.display(),
        summary.events,
        summary.chunks,
        summary.v2_bytes,
        summary.v1_bytes,
        summary.ratio(),
    );
    Ok(())
}

/// Decodes `file` once into `sink`.
fn decode_into<S: TraceSink>(file: &Path, sink: S) -> Result<ReplayStats, String> {
    let reader = std::fs::File::open(file).map_err(|e| format!("{}: {e}", file.display()))?;
    replay_any(reader, sink).map_err(|e| format!("{}: {e}", file.display()))
}

/// Replays `file` into one hierarchy per spec and returns the decode
/// totals with each policy's statistics, in `specs` order. One decode pass
/// feeds every policy; a listed Belady adds one LRU pass before it, which
/// records the LLC stream its oracle is built from.
fn replay(
    file: &Path,
    wl: &Workload,
    specs: &[PolicySpec],
) -> Result<(ReplayStats, Vec<HierarchyStats>), String> {
    // Policy inputs (T-OPT's next-reference index, P-OPT matrices) come
    // from the graph; the *event stream* comes exclusively from the file.
    let g = wl.load()?;
    let plan = wl.app.plan(&g);
    let cfg = wl.scale.config();
    let mut fanout: FanoutSink<Hierarchy> = FanoutSink::new(Vec::with_capacity(specs.len()));
    for spec in specs {
        fanout.push(match spec {
            PolicySpec::Belady => belady_hierarchy(&cfg, &plan, |recorder| {
                decode_into(file, recorder).map(drop)
            })?,
            _ => policy_hierarchy_cached(wl.app, &g, &cfg, &plan, spec, None),
        });
    }
    let stats = decode_into(file, &mut fanout)?;
    let policies = fanout.into_inner().iter().map(Hierarchy::stats).collect();
    Ok((stats, policies))
}

fn replay_main(args: Vec<String>) -> Result<(), String> {
    let mut app = None;
    let mut graph = None;
    let mut scale = Scale::Tiny;
    let mut file: Option<PathBuf> = None;
    let mut policies = vec!["lru".to_string(), "drrip".to_string(), "popt".to_string()];
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        if parse_workload_flag(&arg, &mut iter, &mut app, &mut graph, &mut scale)? {
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
        graph: graph.ok_or("trace replay requires --graph")?,
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
    let (stats, results) = replay(&file, &wl, &specs)?;
    let belady = specs.iter().any(|s| matches!(s, PolicySpec::Belady));
    println!(
        "replayed {} events ({} chunks, one decode pass{}) into {} policies:",
        stats.events,
        stats.chunks_decoded,
        if belady { " plus one for OPT" } else { "" },
        specs.len()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>8}",
        "policy", "llc_hits", "llc_misses", "miss%"
    );
    for (spec, s) in specs.iter().zip(results) {
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
    println!(
        "flat encoding bytes: {} ({:.2}x smaller)",
        info.v1_bytes,
        info.ratio()
    );
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
    use crate::runner::simulate;

    fn args(list: &[&str], tail: &Path) -> Vec<String> {
        list.iter()
            .map(|s| s.to_string())
            .chain([tail.display().to_string()])
            .collect()
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/trace-cmd")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn workload_flags_parse_and_reject() {
        let mut app = None;
        let mut graph = None;
        let mut scale = Scale::Tiny;
        let args: Vec<String> = ["--app", "cc", "--graph", "kron", "--scale", "small"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            assert!(
                parse_workload_flag(&arg, &mut iter, &mut app, &mut graph, &mut scale).unwrap()
            );
        }
        assert_eq!(app, Some(App::Components));
        assert_eq!(graph, Some(GraphSource::Suite(SuiteGraph::Kron)));
        assert_eq!(scale, Scale::Small);
        assert!(parse_app("nope").is_none());
        assert_eq!(
            GraphSource::parse("graphs/kron.bin"),
            GraphSource::File(PathBuf::from("graphs/kron.bin"))
        );
    }

    #[test]
    fn policy_parsing_covers_the_zoo_and_accepts_belady() {
        assert!(matches!(
            parse_policy("ship-pc"),
            Ok(PolicySpec::Baseline(PolicyKind::ShipPc))
        ));
        assert!(matches!(parse_policy("TOPT"), Ok(PolicySpec::Topt)));
        assert!(matches!(parse_policy("popt"), Ok(PolicySpec::Popt { .. })));
        assert!(matches!(parse_policy("belady"), Ok(PolicySpec::Belady)));
        assert!(matches!(parse_policy("OPT"), Ok(PolicySpec::Belady)));
        assert!(parse_policy("what").is_err());
    }

    #[test]
    fn record_then_info_then_replay_round_trips() {
        let out = scratch("suite").join("pr-urand.trc");
        record_main(args(&["--app", "pr", "--graph", "urand", "--out"], &out)).unwrap();
        info_main(vec![out.display().to_string(), "--verify".to_string()]).unwrap();
        replay_main(args(
            &["--app", "pr", "--graph", "urand", "--policies", "lru,drrip"],
            &out,
        ))
        .unwrap();
        // The replayed stats match a direct kernel-driven simulation.
        let wl = Workload {
            app: App::Pagerank,
            graph: GraphSource::Suite(SuiteGraph::Urand),
            scale: Scale::Tiny,
        };
        let lru = PolicySpec::Baseline(PolicyKind::Lru);
        let (stats, replayed) = replay(&out, &wl, std::slice::from_ref(&lru)).unwrap();
        assert!(stats.events > 0);
        let g = suite_graph(SuiteGraph::Urand, Scale::Tiny.suite());
        let direct = simulate(App::Pagerank, &g, &Scale::Tiny.config(), &lru);
        assert_eq!(
            replayed,
            vec![direct],
            "replay is bit-identical to execution"
        );
        assert_eq!(
            trace_info(&out).unwrap().meta,
            "trace/v2/suite/v1/urand/tiny/pr"
        );
    }

    #[test]
    fn graph_file_trace_replays_every_policy_like_simulate() {
        let dir = scratch("file");
        let graph_path = dir.join("g.bin");
        let g = popt_graph::generators::uniform_random(1 << 10, 8 << 10, 5);
        io::write_binary(&g, std::fs::File::create(&graph_path).unwrap()).unwrap();
        let out = dir.join("g.trc");
        let graph_arg = graph_path.display().to_string();
        record_main(args(&["--app", "pr", "--graph", &graph_arg, "--out"], &out)).unwrap();
        assert_eq!(trace_info(&out).unwrap().meta, "trace/v2/file/g.bin/pr");

        let specs: Vec<PolicySpec> = ["lru", "drrip", "topt", "popt", "opt"]
            .iter()
            .map(|p| parse_policy(p).unwrap())
            .collect();
        let wl = Workload {
            app: App::Pagerank,
            graph: GraphSource::File(graph_path),
            scale: Scale::Tiny,
        };
        let (_, replayed) = replay(&out, &wl, &specs).unwrap();
        let cfg = Scale::Tiny.config();
        for (spec, stats) in specs.iter().zip(&replayed) {
            let direct = simulate(App::Pagerank, &g, &cfg, spec);
            assert_eq!(*stats, direct, "{}", spec.label());
        }
        // Belady is the optimum: no other policy misses less, and LRU
        // misses strictly more on this graph.
        let opt = replayed[4].llc.misses;
        assert!(replayed.iter().all(|s| s.llc.misses >= opt));
        assert!(replayed[0].llc.misses > opt, "{replayed:?}");
    }

    #[test]
    fn a_bad_graph_file_is_its_typed_error() {
        let path = scratch("bad").join("bad.bin");
        let mut bytes = b"POPTCSR1".to_vec();
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let wl = Workload {
            app: App::Pagerank,
            graph: GraphSource::File(path.clone()),
            scale: Scale::Tiny,
        };
        assert!(matches!(wl.materialize(), Err(GraphError::Format(_))));
        let (out, graph) = (path.with_extension("trc"), path.display().to_string());
        let err =
            record_main(args(&["--app", "pr", "--graph", &graph, "--out"], &out)).unwrap_err();
        assert!(err.contains("malformed"), "{err}");
        assert!(!out.exists(), "no trace is written for a bad graph");
    }
}
