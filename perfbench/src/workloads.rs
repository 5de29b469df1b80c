//! The three workloads, their untraced and traced passes, and the
//! per-layer costs derived from the traced pass.

use crate::checks;
use crate::graphs;
use crate::report::{geomean, median, percentile, ratio, Ladder, Metric};
use crate::spans::Spans;
use popt_cli::runner::{self, PolicySpec};
use popt_cli::sweep::{run_sweep, SweepOptions};
use popt_cli::Scale;
use popt_core::{Popt, PoptConfig, StreamBinding};
use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};
use popt_graph::Graph;
use popt_kernels::{App, TracePlan};
use popt_sim::{
    AccessMeta, Hierarchy, HierarchyConfig, HierarchyStats, PolicyKind, SetAssocCache, TimingModel,
};
use popt_trace::{CountingSink, RegionClass, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads: all load comes from one process with this many.
pub const JOBS: usize = 2;

/// Every workload simulates PageRank, the paper's headline kernel; the
/// sweep runs the other kernels too.
const APP: App = App::Pagerank;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PageRank under LRU, DRRIP, P-OPT and T-OPT on the standard graphs.
    PrGraphaware,
    /// PageRank under the ten graph-agnostic online policies.
    ZooStd,
    /// The full experiment sweep at small scale, cold.
    SweepSmall,
}

impl Workload {
    /// All workloads, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::PrGraphaware,
        Workload::ZooStd,
        Workload::SweepSmall,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrGraphaware => "pr-graphaware",
            Workload::ZooStd => "zoo-std",
            Workload::SweepSmall => "sweep-small",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Digests pinned at the default seed: per-cell statistics for the
    /// graph workloads, output files for the sweep.
    fn pins(self) -> BTreeMap<String, u64> {
        checks::parse_pins(match self {
            Workload::PrGraphaware => include_str!("../pins/pr-graphaware.txt"),
            Workload::ZooStd => include_str!("../pins/zoo-std.txt"),
            Workload::SweepSmall => include_str!("../pins/sweep-small.txt"),
        })
    }

    /// The LLC policies of a graph workload.
    fn policies(self) -> Vec<PolicySpec> {
        match self {
            Workload::PrGraphaware => probe_policies(),
            Workload::ZooStd => PolicyKind::ALL
                .into_iter()
                .filter(|k| *k != PolicyKind::BitPlru)
                .map(PolicySpec::Baseline)
                .collect(),
            Workload::SweepSmall => Vec::new(),
        }
    }
}

/// The graph-aware comparison of Figure 10: LRU, DRRIP, P-OPT, T-OPT.
fn probe_policies() -> Vec<PolicySpec> {
    vec![
        PolicySpec::Baseline(PolicyKind::Lru),
        PolicySpec::Baseline(PolicyKind::Drrip),
        PolicySpec::popt_default(),
        PolicySpec::Topt,
    ]
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload seed (graph workloads only).
    pub seed: u64,
    /// Measuring budget: passes repeat while they fit in it.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Scratch directory for sweep outputs, removed after each pass.
    pub work: PathBuf,
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Cells and output files checked.
    pub attempted: u64,
    /// Cells and output files that failed a check.
    pub failed: u64,
    /// Messages of the failed checks.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced passes).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<Metric>,
    /// Digests of the first untraced pass, in pin-file form.
    pub digests: BTreeMap<String, u64>,
    /// Recorded spans as JSON lines (traced run only).
    pub spans: Option<String>,
}

impl RunResult {
    fn fail(&mut self, errors: Vec<String>) {
        if !errors.is_empty() {
            self.failed += 1;
            self.errors.extend(errors);
        }
    }
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &RunOptions) -> std::io::Result<RunResult> {
    match workload {
        Workload::SweepSmall => run_sweep_small(opts),
        w => Ok(run_graph_workload(w, opts)),
    }
}

// ---------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------

/// One simulation: a graph index and an LLC policy.
#[derive(Debug, Clone)]
struct Cell {
    graph: usize,
    spec: PolicySpec,
}

impl Cell {
    fn id(&self, graph_names: &[&str]) -> String {
        format!("{}/{}", graph_names[self.graph], self.spec.cell_tag())
    }
}

fn cells_for(policies: &[PolicySpec], graphs: usize) -> Vec<Cell> {
    (0..graphs)
        .flat_map(|graph| {
            policies.iter().map(move |spec| Cell {
                graph,
                spec: spec.clone(),
            })
        })
        .collect()
}

/// A finished cell: its statistics (None if it panicked), its wall time
/// and, for P-OPT, the bytes of its Rereference Matrices.
#[derive(Debug, Clone)]
struct CellRun {
    stats: Option<HierarchyStats>,
    wall: Duration,
    rrm_bytes: u64,
}

/// Runs `n` jobs on [`JOBS`] threads in submission order, timing each and
/// isolating panics.
fn run_cells(n: usize, job: impl Fn(usize) -> (HierarchyStats, u64) + Sync) -> Vec<CellRun> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CellRun>>> = Mutex::new(vec![None; n]);
    std::thread::scope(|scope| {
        for _ in 0..JOBS.min(n) {
            scope.spawn(|| loop {
                // The counter hands out indices only; it publishes no data.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let started = Instant::now();
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))).ok();
                let run = CellRun {
                    stats: out.map(|o| o.0),
                    wall: started.elapsed(),
                    rrm_bytes: out.map_or(0, |o| o.1),
                };
                slots.lock().expect("cell slots poisoned")[i] = Some(run);
            });
        }
    });
    slots
        .into_inner()
        .expect("cell slots poisoned")
        .into_iter()
        .map(|s| s.expect("every cell index was taken by a worker"))
        .collect()
}

/// Rereference Matrices of a P-OPT spec (none for other policies).
fn bindings_for(g: &Graph, plan: &TracePlan, spec: &PolicySpec) -> Vec<StreamBinding> {
    match spec {
        PolicySpec::Popt {
            quant, encoding, ..
        } => runner::popt_bindings(APP, g, plan, *quant, *encoding),
        _ => Vec::new(),
    }
}

/// The hierarchy `runner::simulate` builds for `spec`, except that a
/// default P-OPT takes prebuilt matrices so their build can be timed
/// apart from the construction.
fn build_hierarchy(
    g: &Graph,
    cfg: &HierarchyConfig,
    plan: &TracePlan,
    spec: &PolicySpec,
    bindings: &[StreamBinding],
) -> Hierarchy {
    match spec {
        PolicySpec::Popt {
            limit_study: false, ..
        } => {
            let run_cfg = cfg
                .clone()
                .with_reserved_ways(runner::reserved_ways_for(bindings, cfg));
            let bindings = bindings.to_vec();
            let mut h = Hierarchy::new(&run_cfg, move |sets, ways| {
                Box::new(Popt::new(PoptConfig::new(bindings.clone()), sets, ways))
            });
            h.set_address_space(&plan.space);
            h
        }
        _ => runner::policy_hierarchy_cached(APP, g, cfg, plan, spec, None),
    }
}

/// One cell composed from the program's public steps, each in a span:
/// `App::plan`, `popt_bindings` (P-OPT), hierarchy construction,
/// `App::trace` into the hierarchy, and `TimingModel::evaluate`. The
/// statistics must equal `runner::simulate`'s (checked by the caller).
fn traced_cell(
    spans: &Spans,
    id: &str,
    g: &Graph,
    cfg: &HierarchyConfig,
    spec: &PolicySpec,
) -> (HierarchyStats, u64) {
    spans.time("cell", id, None, |cell| {
        let parent = Some(cell);
        let plan = spans.time("kernels.plan", id, parent, |_| APP.plan(g));
        let bindings = match spec {
            PolicySpec::Popt { .. } => spans.time("core.rrm_build", id, parent, |_| {
                bindings_for(g, &plan, spec)
            }),
            _ => Vec::new(),
        };
        let rrm_bytes = bindings.iter().map(|b| b.matrix.resident_bytes()).sum();
        let mut h = spans.time("sim.build", id, parent, |_| {
            build_hierarchy(g, cfg, &plan, spec, &bindings)
        });
        spans.time("sim.run", id, parent, |_| APP.trace(g, &plan, &mut h));
        let stats = h.stats();
        spans.time("sim.timing", id, parent, |_| {
            black_box(TimingModel::default().evaluate(black_box(&stats)))
        });
        (stats, rrm_bytes)
    })
}

/// The kernel's own event counts for a graph.
fn count_kernel(g: &Graph) -> CountingSink {
    let plan = APP.plan(g);
    let mut c = CountingSink::new();
    APP.trace(g, &plan, &mut c);
    c
}

/// Checks every cell of a pass against the kernel counts and against the
/// reference digests; returns the cell digests.
fn check_cells(
    result: &mut RunResult,
    label: &str,
    ids: &[String],
    cells: &[Cell],
    runs: &[CellRun],
    kernels: &[CountingSink],
    reference: Option<&BTreeMap<String, u64>>,
) -> BTreeMap<String, u64> {
    let mut digests = BTreeMap::new();
    for ((id, cell), run) in ids.iter().zip(cells).zip(runs) {
        result.attempted += 1;
        let Some(stats) = &run.stats else {
            result.fail(vec![format!("{label} {id}: cell panicked")]);
            continue;
        };
        let digest = checks::stats_digest(stats);
        digests.insert(id.clone(), digest);
        let mut errors: Vec<String> = checks::against_kernel(stats, &kernels[cell.graph])
            .into_iter()
            .map(|e| format!("{label} {id}: {e}"))
            .collect();
        if let Some(reference) = reference {
            match reference.get(id) {
                Some(want) if *want == digest => {}
                Some(want) => errors.push(format!(
                    "{label} {id}: stats digest {digest:016x}, expected {want:016x}"
                )),
                None => errors.push(format!("{label} {id}: no reference digest")),
            }
        }
        result.fail(errors);
    }
    digests
}

// ---------------------------------------------------------------------
// Graph workloads: pr-graphaware and zoo-std
// ---------------------------------------------------------------------

struct GraphPass {
    setup_s: f64,
    wall_s: f64,
    runs: Vec<CellRun>,
}

impl GraphPass {
    fn instructions(&self) -> u64 {
        self.runs
            .iter()
            .filter_map(|r| r.stats.map(|s| s.instructions))
            .sum()
    }
}

/// One pass: materialize the five seeded graphs, then run every cell on
/// [`JOBS`] threads. With `spans`, cells run as [`traced_cell`]. Returns
/// the graphs too, for callers that inspect them after the pass.
fn graph_pass(
    cells: &[Cell],
    ids: &[String],
    seed: u64,
    spans: Option<&Spans>,
) -> (GraphPass, Vec<Graph>) {
    let cfg = Scale::Standard.config();
    let started = Instant::now();
    let graphs: Vec<Graph> = SuiteGraph::ALL
        .iter()
        .map(|&which| match spans {
            Some(sp) => sp.time("graph.gen", which.name(), None, |_| {
                graphs::standard_graph(which, seed)
            }),
            None => graphs::standard_graph(which, seed),
        })
        .collect();
    let setup_s = started.elapsed().as_secs_f64();
    let runs = run_cells(cells.len(), |i| {
        let cell = &cells[i];
        let g = &graphs[cell.graph];
        match spans {
            Some(sp) => traced_cell(sp, &ids[i], g, &cfg, &cell.spec),
            None => (runner::simulate(APP, g, &cfg, &cell.spec), 0),
        }
    });
    let pass = GraphPass {
        setup_s,
        wall_s: started.elapsed().as_secs_f64(),
        runs,
    };
    (pass, graphs)
}

fn run_graph_workload(workload: Workload, opts: &RunOptions) -> RunResult {
    let names: Vec<&str> = SuiteGraph::ALL.iter().map(SuiteGraph::name).collect();
    let cells = cells_for(&workload.policies(), names.len());
    let ids: Vec<String> = cells.iter().map(|c| c.id(&names)).collect();
    let mut result = RunResult::default();
    let pins = (opts.seed == graphs::DEFAULT_SEED).then(|| workload.pins());

    let started = Instant::now();
    let (first, graphs) = graph_pass(&cells, &ids, opts.seed, None);
    let peak_rss = peak_rss_mib();
    let kernels: Vec<CountingSink> = graphs.iter().map(count_kernel).collect();
    drop(graphs);
    let mut passes = vec![first];
    let mut last = started.elapsed();
    while another_pass(opts, started, last) {
        let pass_started = Instant::now();
        passes.push(graph_pass(&cells, &ids, opts.seed, None).0);
        last = pass_started.elapsed();
    }
    // At the default seed every pass must match the pins; at any other
    // seed every later pass must reproduce the first pass's digests.
    let mut reference = pins;
    for (i, pass) in passes.iter().enumerate() {
        let digests = check_cells(
            &mut result,
            &format!("pass {i}"),
            &ids,
            &cells,
            &pass.runs,
            &kernels,
            reference.as_ref(),
        );
        if i == 0 {
            reference.get_or_insert_with(|| digests.clone());
            result.digests = digests;
        }
    }
    let first = &passes[0];
    let stats: Vec<HierarchyStats> = first.runs.iter().filter_map(|r| r.stats).collect();
    result.end_to_end = end_to_end(
        passes
            .iter()
            .map(|p| (p.wall_s, p.setup_s, p.instructions())),
        peak_rss,
        &stats,
    );

    if opts.trace {
        let spans = Spans::default();
        let (traced, graphs) = graph_pass(&cells, &ids, opts.seed, Some(&spans));
        let reference = result.digests.clone();
        check_cells(
            &mut result,
            "traced",
            &ids,
            &cells,
            &traced.runs,
            &kernels,
            Some(&reference),
        );
        let cfg = Scale::Standard.config();
        let policies = workload.policies();
        let rungs: Vec<Rung> = graphs
            .iter()
            .zip(&names)
            .map(|(g, name)| ladder(&spans, name, g, &cfg, &policies))
            .collect();
        let mut ladder_state = Ladder::default();
        let mut layers = cell_layers(
            &mut ladder_state,
            &spans,
            &cells,
            &ids,
            &traced.runs,
            &rungs,
            &mut result,
        );
        let cell_walls: Vec<f64> = first.runs.iter().map(|r| r.wall.as_secs_f64()).collect();
        let overhead = ladder_state.diff("trace.overhead", traced.wall_s, first.wall_s);
        layers.extend(harness_from_cells(
            &cell_walls,
            first.wall_s - first.setup_s,
        ));
        layers.extend(sweep_layers(None));
        layers.extend(simulated(workload, &cells, &first.runs));
        layers.push(Metric::new("graph.gen_s", "s", spans.total_s("graph.gen")));
        layers.extend(trace_layers(&spans, overhead, &ladder_state));
        result.per_layer = layers;
        result.spans = Some(spans.to_jsonl());
    } else {
        // Untraced runs still compute the simulated layer metrics for the
        // human summary; they are exact and cost nothing to derive.
        result.per_layer = simulated(workload, &cells, &first.runs);
    }
    result
}

/// Whether a run starts another untraced pass: the first pass always
/// runs, and another one only if, taking as long as the last, it still
/// ends within the run's seconds. Runs thus last about `seconds`.
fn another_pass(opts: &RunOptions, started: Instant, last: Duration) -> bool {
    !opts.trace && (started.elapsed() + last).as_secs_f64() <= opts.seconds
}

/// The end-to-end metrics from per-pass `(wall_s, setup_s, instructions)`,
/// the peak memory after the first pass and the first pass's cell
/// statistics.
fn end_to_end(
    passes: impl Iterator<Item = (f64, f64, u64)>,
    peak_rss_mib: f64,
    stats: &[HierarchyStats],
) -> Vec<Metric> {
    let (mut wall, mut setup, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    for (w, s, instructions) in passes {
        wall.push(w);
        setup.push(s);
        rate.push(ratio(instructions as f64, w - s));
    }
    eprintln!("   {} passes, wall_s per pass {wall:.3?}", wall.len());
    let mpki: Vec<f64> = stats.iter().map(HierarchyStats::llc_mpki).collect();
    vec![
        Metric::new("wall_s", "s", median(&wall)),
        Metric::new("setup_s", "s", median(&setup)),
        Metric::new("sim_events_per_s", "events/s", median(&rate)),
        Metric::new("peak_rss_mib", "MiB", peak_rss_mib),
        Metric::new("llc_mpki_geomean", "MPKI", geomean(&mpki)),
    ]
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB; 0
/// where `/proc` is unavailable. Read after the first pass, so it covers
/// one pass in a fresh process whatever the number of passes.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

// ---------------------------------------------------------------------
// The subtraction ladder
// ---------------------------------------------------------------------

/// Standalone L1: the events' lines through one `SetAssocCache` with the
/// private levels' Bit-PLRU policy, nothing behind it.
struct L1Sink {
    cache: SetAssocCache,
}

impl TraceSink for L1Sink {
    fn event(&mut self, event: TraceEvent) {
        if let TraceEvent::Access(a) = event {
            let _ = self.cache.access(&AccessMeta {
                line: a.addr >> popt_trace::LINE_SHIFT,
                site: a.site,
                kind: a.kind,
                class: RegionClass::Streaming,
            });
        }
    }
}

/// One graph's ladder: the kernel into `CountingSink`, into a standalone
/// L1, and into a full hierarchy per policy, each run alone on one thread
/// [`LADDER_REPS`] times and costed by its fastest run.
struct Rung {
    counting_s: f64,
    l1_s: f64,
    /// Per policy cell tag: fastest `App::trace` into the hierarchy.
    hierarchy_s: BTreeMap<String, f64>,
    kernel: CountingSink,
    l1_hits: u64,
    lru: HierarchyStats,
}

/// Runs of each ladder rung; the fastest one is kept, which keeps timing
/// noise from swamping the small differences between policies.
const LADDER_REPS: usize = 2;

/// Times `f` [`LADDER_REPS`] times as spans; returns the fastest time and
/// the last output.
fn fastest<T>(
    spans: &Spans,
    name: &'static str,
    subject: &str,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..LADDER_REPS {
        let started = Instant::now();
        out = Some(spans.time(name, subject, None, |_| f()));
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, out.expect("LADDER_REPS is at least 1"))
}

fn ladder(
    spans: &Spans,
    name: &str,
    g: &Graph,
    cfg: &HierarchyConfig,
    specs: &[PolicySpec],
) -> Rung {
    let plan = APP.plan(g);
    let (counting_s, kernel) = fastest(spans, "ladder.counting", name, || {
        let mut c = CountingSink::new();
        APP.trace(g, &plan, &mut c);
        c
    });
    let (l1_s, l1_hits) = fastest(spans, "ladder.l1", name, || {
        let policy = PolicyKind::BitPlru.build(cfg.l1.num_sets(), cfg.l1.ways());
        let mut sink = L1Sink {
            cache: SetAssocCache::new(cfg.l1, policy),
        };
        APP.trace(g, &plan, &mut sink);
        sink.cache.stats().hits
    });
    let mut hierarchy_s = BTreeMap::new();
    let mut lru = HierarchyStats::default();
    for spec in specs {
        let tag = spec.cell_tag();
        let bindings = bindings_for(g, &plan, spec);
        let subject = format!("{name}/{tag}");
        let mut best = f64::INFINITY;
        for _ in 0..LADDER_REPS {
            let mut h = build_hierarchy(g, cfg, &plan, spec, &bindings);
            let started = Instant::now();
            spans.time("ladder.hierarchy", &subject, None, |_| {
                APP.trace(g, &plan, &mut h)
            });
            best = best.min(started.elapsed().as_secs_f64());
            if tag == "lru" {
                lru = h.stats();
            }
        }
        hierarchy_s.insert(tag, best);
    }
    Rung {
        counting_s,
        l1_s,
        hierarchy_s,
        kernel,
        l1_hits,
        lru,
    }
}

/// Per-layer costs of a set of traced cells over laddered graphs.
///
/// Each cell's `App::trace` time splits into the kernel (CountingSink
/// rung), the L1 probe (L1 rung minus CountingSink rung), the L2, LLC and
/// hierarchy plumbing (LRU rung minus L1 rung) and the policy (the cell's
/// rung minus the same graph's LRU rung). Plan, matrix build and
/// construction come from the traced cells' spans. Also checks that the
/// ladder saw the same stream as the cells.
fn cell_layers(
    ladder_state: &mut Ladder,
    spans: &Spans,
    cells: &[Cell],
    ids: &[String],
    runs: &[CellRun],
    rungs: &[Rung],
    result: &mut RunResult,
) -> Vec<Metric> {
    for (g, rung) in rungs.iter().enumerate() {
        result.attempted += 1;
        let mut errors = checks::against_kernel(&rung.lru, &rung.kernel);
        if rung.l1_hits != rung.lru.l1.hits {
            errors.push(format!(
                "graph {g}: standalone L1 hits {} != hierarchy L1 hits {}",
                rung.l1_hits, rung.lru.l1.hits
            ));
        }
        result.fail(errors);
    }
    let accesses: f64 = rungs.iter().map(|r| r.kernel.accesses() as f64).sum();
    let lru_s = |rung: &Rung| rung.hierarchy_s.get("lru").copied().unwrap_or(0.0);
    let mut kernel_s = 0.0;
    let mut l1_s = 0.0;
    let mut lower_s = 0.0;
    for rung in rungs {
        kernel_s += rung.counting_s;
        l1_s += ladder_state.diff("sim.l1", rung.l1_s, rung.counting_s);
        lower_s += ladder_state.diff("sim.hierarchy_lru", lru_s(rung), rung.l1_s);
    }

    // Extra time, decisions and overheads per policy class, over graphs.
    #[derive(Default)]
    struct Extra {
        s: f64,
        misses: u64,
        decisions: u64,
        lookups: u64,
        ties: u64,
    }
    let mut extra: BTreeMap<String, Extra> = BTreeMap::new();
    // Attributed cell time per layer, for the shares.
    let mut shares: BTreeMap<&str, f64> = BTreeMap::new();
    for ((cell, id), run) in cells.iter().zip(ids).zip(runs) {
        let Some(stats) = run.stats else { continue };
        let rung = &rungs[cell.graph];
        *shares.entry("kernels").or_default() +=
            rung.counting_s + spans.subject_s("kernels.plan", id);
        *shares.entry("sim_l1").or_default() += (rung.l1_s - rung.counting_s).max(0.0);
        *shares.entry("sim_lower").or_default() += (lru_s(rung) - rung.l1_s).max(0.0);
        *shares.entry("sim_build").or_default() +=
            spans.subject_s("sim.build", id) + spans.subject_s("sim.timing", id);
        *shares.entry("core_rrm").or_default() += spans.subject_s("core.rrm_build", id);
        let tag = cell.spec.cell_tag();
        if tag == "lru" {
            continue;
        }
        let d = ladder_state.diff(
            &format!("{id} policy"),
            rung.hierarchy_s.get(&tag).copied().unwrap_or(0.0),
            lru_s(rung),
        );
        let layer = match cell.spec {
            PolicySpec::Topt => "core_topt",
            PolicySpec::Popt { .. } => "core_popt",
            _ => "policy",
        };
        *shares.entry(layer).or_default() += d;
        let e = extra.entry(tag).or_default();
        e.s += d;
        e.misses += stats.llc.misses;
        e.decisions += stats.overheads.decisions;
        e.lookups += stats.overheads.matrix_lookups;
        e.ties += stats.overheads.ties;
    }
    let popt = extra.remove("popt-q8-ii").unwrap_or_default();
    let topt = extra.remove("topt").unwrap_or_default();
    let lru: HierarchyStats = rungs.iter().fold(HierarchyStats::default(), |acc, r| {
        let mut s = acc;
        s.l1 = s.l1.merged(r.lru.l1);
        s.l2 = s.l2.merged(r.lru.l2);
        s.llc = s.llc.merged(r.lru.llc);
        s
    });
    let timing_calls = spans.count("sim.timing") as f64;
    let mut m = vec![
        Metric::new("kernels.plan_s", "s", spans.total_s("kernels.plan")),
        Metric::new(
            "kernels.trace_ns_per_event",
            "ns/access",
            1e9 * ratio(kernel_s, accesses),
        ),
        Metric::new("kernels.events", "accesses", accesses),
        Metric::new("core.rrm_build_s", "s", spans.total_s("core.rrm_build")),
        Metric::new(
            "core.rrm_bytes",
            "bytes",
            runs.iter().map(|r| r.rrm_bytes as f64).sum(),
        ),
        Metric::new(
            "core.popt_ns_per_decision",
            "ns/decision",
            1e9 * ratio(popt.s, popt.decisions as f64),
        ),
        Metric::new(
            "core.popt_lookups_per_decision",
            "lookups/decision",
            ratio(popt.lookups as f64, popt.decisions as f64),
        ),
        Metric::new(
            "core.popt_tie_rate",
            "ratio",
            ratio(popt.ties as f64, popt.decisions as f64),
        ),
        Metric::new(
            "core.topt_ns_per_decision",
            "ns/decision",
            1e9 * ratio(topt.s, topt.decisions as f64),
        ),
        Metric::new(
            "sim.l1_ns_per_access",
            "ns/access",
            1e9 * ratio(l1_s, accesses),
        ),
        Metric::new("sim.l1_hit_rate", "ratio", 1.0 - lru.l1.miss_rate()),
        Metric::new("sim.l2_hit_rate", "ratio", 1.0 - lru.l2.miss_rate()),
        Metric::new(
            "sim.hierarchy_lru_ns_per_event",
            "ns/access",
            1e9 * ratio(lower_s, accesses),
        ),
        Metric::new(
            "sim.llc_accesses_per_event",
            "ratio",
            ratio(lru.llc.demand_accesses() as f64, accesses),
        ),
        Metric::new("sim.llc_miss_rate", "ratio", lru.llc.miss_rate()),
        Metric::new(
            "sim.timing_evaluate_us",
            "us",
            1e6 * ratio(spans.total_s("sim.timing"), timing_calls),
        ),
    ];
    for kind in PolicyKind::ALL {
        if matches!(kind, PolicyKind::Lru | PolicyKind::BitPlru) {
            continue;
        }
        let tag = PolicySpec::Baseline(kind).cell_tag();
        let e = extra.get(&tag);
        m.push(Metric::new(
            format!("sim.policy_ns_per_decision.{tag}"),
            "ns/miss",
            e.map_or(0.0, |e| 1e9 * ratio(e.s, e.misses as f64)),
        ));
    }
    let total: f64 = shares.values().sum();
    for layer in SHARE_LAYERS {
        m.push(Metric::new(
            format!("share.{layer}"),
            "ratio",
            ratio(shares.get(layer).copied().unwrap_or(0.0), total),
        ));
    }
    m
}

/// Layers of attributed cell time, reported as shares.
const SHARE_LAYERS: [&str; 8] = [
    "kernels",
    "sim_l1",
    "sim_lower",
    "sim_build",
    "policy",
    "core_rrm",
    "core_popt",
    "core_topt",
];

/// Scheduling metrics over cell wall times run on [`JOBS`] threads.
fn harness_from_cells(cell_walls: &[f64], cells_wall_s: f64) -> Vec<Metric> {
    let busy: f64 = cell_walls.iter().sum();
    vec![
        Metric::new("harness.cell_p50_ms", "ms", 1e3 * median(cell_walls)),
        Metric::new(
            "harness.cell_p98_ms",
            "ms",
            1e3 * percentile(cell_walls, 98),
        ),
        Metric::new(
            "harness.idle_s",
            "s",
            (JOBS as f64 * cells_wall_s - busy).max(0.0),
        ),
    ]
}

/// The metrics only the sweep produces; zeros for the graph workloads.
fn sweep_layers(sweep: Option<&SweepLayers>) -> Vec<Metric> {
    let s = sweep.cloned().unwrap_or_default();
    vec![
        Metric::new("harness.trace_hit_ratio", "ratio", s.trace_hit_ratio),
        Metric::new("harness.graph_builds", "count", s.graph_builds),
        Metric::new("harness.matrix_builds", "count", s.matrix_builds),
        Metric::new("harness.trace_builds", "count", s.trace_builds),
        Metric::new("harness.cache_bytes", "bytes", s.cache_bytes),
        Metric::new("cli.run_sweep_s", "s", s.run_sweep_s),
        Metric::new(
            "tracestore.encode_ns_per_event",
            "ns/access",
            s.encode_ns_per_event,
        ),
        Metric::new(
            "tracestore.decode_ns_per_event",
            "ns/access",
            s.decode_ns_per_event,
        ),
        Metric::new(
            "tracestore.bytes_per_event",
            "bytes/access",
            s.bytes_per_event,
        ),
    ]
}

/// Tracing bookkeeping: overhead, span count and clamped layers.
fn trace_layers(spans: &Spans, overhead_s: f64, ladder_state: &Ladder) -> Vec<Metric> {
    vec![
        Metric::new("trace.overhead_s", "s", overhead_s),
        Metric::new("trace.spans", "count", spans.snapshot().len() as f64),
        Metric::new(
            "ladder.clamped_layers",
            "count",
            ladder_state.clamped().len() as f64,
        ),
    ]
}

/// Exact simulated metrics: P-OPT and T-OPT against DRRIP and LRU where
/// the cells include them, and the zoo's LLC MPKI where they do not.
fn simulated(workload: Workload, cells: &[Cell], runs: &[CellRun]) -> Vec<Metric> {
    let model = TimingModel::default();
    let graphs = cells.iter().map(|c| c.graph + 1).max().unwrap_or(0);
    let find = |g: usize, tag: &str| {
        cells
            .iter()
            .zip(runs)
            .find(|(c, _)| c.graph == g && c.spec.cell_tag() == tag)
            .and_then(|(_, r)| r.stats)
    };
    let (mut popt_red, mut topt_red, mut popt_speedup) = (Vec::new(), Vec::new(), Vec::new());
    for g in 0..graphs {
        if let (Some(lru), Some(drrip), Some(popt), Some(topt)) = (
            find(g, "lru"),
            find(g, "drrip"),
            find(g, "popt-q8-ii"),
            find(g, "topt"),
        ) {
            let base = drrip.llc.misses.max(1) as f64;
            popt_red.push(100.0 * (1.0 - popt.llc.misses as f64 / base));
            topt_red.push(100.0 * (1.0 - topt.llc.misses as f64 / base));
            popt_speedup.push(model.speedup(&lru, &popt));
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    let zoo = if workload == Workload::ZooStd {
        let mpki: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.stats.map(|s| s.llc_mpki()))
            .collect();
        geomean(&mpki)
    } else {
        0.0
    };
    vec![
        Metric::new(
            "sim.popt_llc_miss_reduction_vs_drrip_pct",
            "%",
            mean(&popt_red),
        ),
        Metric::new(
            "sim.topt_llc_miss_reduction_vs_drrip_pct",
            "%",
            mean(&topt_red),
        ),
        Metric::new("sim.popt_speedup_vs_lru", "x", geomean(&popt_speedup)),
        Metric::new("sim.zoo_llc_mpki_geomean", "MPKI", zoo),
    ]
}

// ---------------------------------------------------------------------
// sweep-small
// ---------------------------------------------------------------------

/// What the sweep's own outputs say about the harness and trace store.
#[derive(Debug, Clone, Default)]
struct SweepLayers {
    trace_hit_ratio: f64,
    graph_builds: f64,
    matrix_builds: f64,
    trace_builds: f64,
    cache_bytes: f64,
    run_sweep_s: f64,
    encode_ns_per_event: f64,
    decode_ns_per_event: f64,
    bytes_per_event: f64,
}

/// One cold sweep and what its outputs hold.
struct SweepPass {
    setup_s: f64,
    wall_s: f64,
    instructions: u64,
    cell_walls: Vec<f64>,
    digests: BTreeMap<String, u64>,
    layers: SweepLayers,
    /// Cells (from the report) and their statistics (from the journal).
    cells: Vec<(String, bool, Option<HierarchyStats>)>,
    summary_failed: Option<String>,
}

/// The five small-scale suite inputs the sweep's figures start from.
fn small_suite() -> Vec<Graph> {
    SuiteGraph::ALL
        .iter()
        .map(|&w| suite_graph(w, SuiteScale::Small))
        .collect()
}

/// One pass: materialize the five small-scale inputs once, then run the
/// sweep cold. The sweep builds its graphs again inside its cells, so
/// `setup_s` here is a proxy for the generators' cost; `wall_s` covers
/// both, and `wall_s - setup_s` is the `run_sweep` call.
fn sweep_pass(out: &Path, spans: Option<&Spans>) -> std::io::Result<SweepPass> {
    if out.exists() {
        std::fs::remove_dir_all(out)?;
    }
    let started = Instant::now();
    let graphs = match spans {
        Some(sp) => sp.time("graph.gen", "small", None, |_| small_suite()),
        None => small_suite(),
    };
    black_box(graphs);
    let setup_s = started.elapsed().as_secs_f64();
    let opts = SweepOptions {
        scale: Scale::Small,
        jobs: JOBS,
        out: out.to_path_buf(),
        ..SweepOptions::new()
    };
    let sweep_started = Instant::now();
    let summary = match spans {
        Some(sp) => sp.time("cli.run_sweep", "small", None, |_| run_sweep(&opts)),
        None => run_sweep(&opts),
    }?;
    let run_sweep_s = sweep_started.elapsed().as_secs_f64();
    let wall_s = started.elapsed().as_secs_f64();
    let summary_failed = (!summary.failed.is_empty())
        .then(|| format!("sweep reports failed experiments: {:?}", summary.failed));

    let mut digests = BTreeMap::new();
    for entry in std::fs::read_dir(out)? {
        let path = entry?.path();
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        // table4 and sweep_report hold wall-clock times.
        let deterministic = (name.ends_with(".csv") || name == "sweep_manifest.jsonl")
            && !name.starts_with("table4")
            && !name.starts_with("sweep_report");
        if deterministic {
            digests.insert(name, checks::bytes_digest(&std::fs::read(&path)?));
        }
    }

    let report = std::fs::read_to_string(out.join("sweep_report.csv"))?;
    let manifest = popt_harness::Manifest::open(out.join("sweep_manifest.jsonl"))?;
    let mut cells = Vec::new();
    let mut cell_walls = Vec::new();
    let mut instructions = 0;
    for line in report.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let [cell, outcome, wall, instr, ..] = fields[..] else {
            cells.push((line.to_string(), false, None));
            continue;
        };
        cell_walls.push(wall.parse::<f64>().unwrap_or(0.0));
        instructions += instr.parse::<u64>().unwrap_or(0);
        cells.push((
            cell.to_string(),
            outcome == "executed",
            manifest.completed(cell).copied(),
        ));
    }
    let counters = summary.counters;
    let layers = SweepLayers {
        trace_hit_ratio: ratio(
            counters.trace_hits as f64,
            (counters.trace_hits + counters.trace_builds) as f64,
        ),
        graph_builds: counters.graph_builds as f64,
        matrix_builds: counters.matrix_builds as f64,
        trace_builds: counters.trace_builds as f64,
        cache_bytes: dir_bytes(&out.join("cache"))? as f64,
        run_sweep_s,
        ..SweepLayers::default()
    };
    std::fs::remove_dir_all(out)?;
    Ok(SweepPass {
        setup_s,
        wall_s,
        instructions,
        cell_walls,
        digests,
        layers,
        cells,
        summary_failed,
    })
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Checks a sweep pass: no failed experiment, every cell executed and
/// journaled with conserved statistics, and the output digests as
/// pinned.
fn check_sweep(
    result: &mut RunResult,
    label: &str,
    pass: &SweepPass,
    pins: &BTreeMap<String, u64>,
) {
    if let Some(e) = &pass.summary_failed {
        result.attempted += 1;
        result.fail(vec![format!("{label}: {e}")]);
    }
    for (cell, executed, stats) in &pass.cells {
        result.attempted += 1;
        let errors = match stats {
            Some(s) if *executed => checks::conservation(s),
            _ => vec!["not executed or not journaled".to_string()],
        };
        result.fail(
            errors
                .into_iter()
                .map(|e| format!("{label} {cell}: {e}"))
                .collect(),
        );
    }
    let files: std::collections::BTreeSet<&String> =
        pins.keys().chain(pass.digests.keys()).collect();
    result.attempted += files.len() as u64;
    for error in checks::compare_pins(pins, &pass.digests) {
        result.fail(vec![format!("{label}: {error}")]);
    }
}

fn run_sweep_small(opts: &RunOptions) -> std::io::Result<RunResult> {
    let pins = Workload::SweepSmall.pins();
    let out = opts.work.join("sweep-small");
    let mut result = RunResult::default();
    let started = Instant::now();
    let mut passes = vec![sweep_pass(&out, None)?];
    let peak_rss = peak_rss_mib();
    let mut last = started.elapsed();
    while another_pass(opts, started, last) {
        let pass_started = Instant::now();
        passes.push(sweep_pass(&out, None)?);
        last = pass_started.elapsed();
    }
    for (i, pass) in passes.iter().enumerate() {
        check_sweep(&mut result, &format!("pass {i}"), pass, &pins);
    }
    result.digests = passes[0].digests.clone();
    let stats: Vec<HierarchyStats> = passes[0].cells.iter().filter_map(|c| c.2).collect();
    result.end_to_end = end_to_end(
        passes.iter().map(|p| (p.wall_s, p.setup_s, p.instructions)),
        peak_rss,
        &stats,
    );
    if !opts.trace {
        return Ok(result);
    }
    let first = &passes[0];
    // The sweep runs as one call, so its inner layers are costed by a
    // probe: the graph-aware PageRank cells on the five small inputs,
    // laddered like the graph workloads, plus the trace codec.
    let probe_cells = cells_for(&probe_policies(), SuiteGraph::ALL.len());
    let names: Vec<&str> = SuiteGraph::ALL.iter().map(SuiteGraph::name).collect();
    let probe_ids: Vec<String> = probe_cells.iter().map(|c| c.id(&names)).collect();
    let spans = Spans::default();
    let traced = sweep_pass(&out, Some(&spans))?;
    check_sweep(&mut result, "traced", &traced, &pins);
    let graphs = small_suite();
    let cfg = Scale::Small.config();
    let probe_runs: Vec<CellRun> = probe_cells
        .iter()
        .zip(&probe_ids)
        .map(|(cell, id)| {
            let started = Instant::now();
            let (stats, rrm_bytes) = traced_cell(&spans, id, &graphs[cell.graph], &cfg, &cell.spec);
            CellRun {
                stats: Some(stats),
                wall: started.elapsed(),
                rrm_bytes,
            }
        })
        .collect();
    let rungs: Vec<Rung> = graphs
        .iter()
        .zip(&names)
        .map(|(g, name)| ladder(&spans, name, g, &cfg, &probe_policies()))
        .collect();
    let kernels: Vec<CountingSink> = rungs.iter().map(|r| r.kernel).collect();
    check_cells(
        &mut result,
        "probe",
        &probe_ids,
        &probe_cells,
        &probe_runs,
        &kernels,
        None,
    );
    let mut ladder_state = Ladder::default();
    let mut layers = cell_layers(
        &mut ladder_state,
        &spans,
        &probe_cells,
        &probe_ids,
        &probe_runs,
        &rungs,
        &mut result,
    );
    let mut sweep = first.layers.clone();
    let codec = trace_codec(
        &spans,
        &graphs,
        &names,
        &rungs,
        &mut ladder_state,
        &mut result,
    );
    sweep.encode_ns_per_event = codec[0];
    sweep.decode_ns_per_event = codec[1];
    sweep.bytes_per_event = codec[2];
    let overhead = ladder_state.diff("trace.overhead", traced.wall_s, first.wall_s);
    layers.extend(harness_from_cells(&first.cell_walls, first.layers.run_sweep_s));
    layers.extend(sweep_layers(Some(&sweep)));
    layers.extend(simulated(Workload::SweepSmall, &probe_cells, &probe_runs));
    layers.push(Metric::new("graph.gen_s", "s", spans.total_s("graph.gen")));
    layers.extend(trace_layers(&spans, overhead, &ladder_state));
    result.per_layer = layers;
    result.spans = Some(spans.to_jsonl());
    Ok(result)
}

/// The trace codec on each probe graph: `ChunkWriter` encode (kernel into
/// the writer, minus the CountingSink rung), `replay_any` decode, and the
/// encoded size. Returns `[encode ns, decode ns, bytes]` per access and
/// checks that the decoded stream counts like the kernel's.
fn trace_codec(
    spans: &Spans,
    graphs: &[Graph],
    names: &[&str],
    rungs: &[Rung],
    ladder_state: &mut Ladder,
    result: &mut RunResult,
) -> [f64; 3] {
    let (mut encode_s, mut decode_s, mut bytes, mut accesses) = (0.0, 0.0, 0.0, 0.0);
    for ((g, name), rung) in graphs.iter().zip(names).zip(rungs) {
        let plan = APP.plan(g);
        let encoded = spans.time("tracestore.encode", name, None, |_| {
            let mut writer = popt_tracestore::ChunkWriter::create(Vec::new(), &plan.space, name)
                .map_err(|e| e.to_string())?;
            APP.trace(g, &plan, &mut writer);
            writer
                .finish()
                .map(|(buf, _)| buf)
                .map_err(|e| e.to_string())
        });
        let decoded = encoded.and_then(|buf| {
            let counts = spans.time("tracestore.decode", name, None, |_| {
                let mut c = CountingSink::new();
                popt_tracestore::replay_any(&buf[..], &mut c).map(|_| c)
            });
            counts.map(|c| (c, buf.len())).map_err(|e| e.to_string())
        });
        result.attempted += 1;
        match decoded {
            Ok((c, len)) if c == rung.kernel => bytes += len as f64,
            Ok(_) => result.fail(vec![format!(
                "{name}: decoded trace differs from the kernel"
            )]),
            Err(e) => result.fail(vec![format!("{name}: trace codec failed: {e}")]),
        }
        encode_s += ladder_state.diff(
            "tracestore.encode",
            spans.subject_s("tracestore.encode", name),
            rung.counting_s,
        );
        decode_s += spans.subject_s("tracestore.decode", name);
        accesses += rung.kernel.accesses() as f64;
    }
    [
        1e9 * ratio(encode_s, accesses),
        1e9 * ratio(decode_s, accesses),
        ratio(bytes, accesses),
    ]
}
