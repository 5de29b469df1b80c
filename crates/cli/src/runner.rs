//! Simulation plumbing: composes kernels, graphs, hierarchy configurations
//! and replacement policies into end-to-end trace-driven runs.

use popt_core::{Encoding, Popt, PoptConfig, Quantization, StreamBinding, Topt};
use popt_graph::{Graph, VertexId};
use popt_harness::{ArtifactCache, ArtifactKey, ArtifactKind};
use popt_kernels::{App, TracePlan};
use popt_sim::policies::{Belady, Grasp, GraspRegions};
use popt_sim::{Hierarchy, HierarchyConfig, HierarchyStats, PolicyKind, TimingModel};
use std::sync::Arc;

/// Which LLC replacement policy to simulate.
#[derive(Debug, Clone)]
pub enum PolicySpec {
    /// One of the graph-agnostic baselines.
    Baseline(PolicyKind),
    /// Belady's MIN via two-pass trace recording (single-bank LLC only).
    Belady,
    /// Transpose-based optimal (idealized T-OPT).
    Topt,
    /// The P-OPT policy.
    Popt {
        /// Quantization level (the paper's default is 8-bit).
        quant: Quantization,
        /// Rereference Matrix entry encoding.
        encoding: Encoding,
        /// Limit-study mode: no way reservation, no streaming charges
        /// (Figure 15 "omits the costs of storing Rereference Matrix
        /// columns in LLC").
        limit_study: bool,
    },
    /// GRASP with DBG-derived region boundaries (vertex IDs in the
    /// *reordered* space).
    Grasp {
        /// End of the hot vertex region (exclusive).
        hot_end: VertexId,
        /// End of the warm vertex region (exclusive).
        warm_end: VertexId,
    },
}

impl PolicySpec {
    /// The paper's default P-OPT configuration (8-bit, inter+intra, full
    /// cost accounting).
    pub fn popt_default() -> Self {
        PolicySpec::Popt {
            quant: Quantization::EIGHT,
            encoding: Encoding::InterIntra,
            limit_study: false,
        }
    }

    /// Display label for figures.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Baseline(kind) => kind.label().to_string(),
            PolicySpec::Belady => "OPT".to_string(),
            PolicySpec::Topt => "T-OPT".to_string(),
            PolicySpec::Popt {
                quant, encoding, ..
            } => {
                if *quant == Quantization::EIGHT {
                    encoding.label().to_string()
                } else {
                    format!("{}-{}b", encoding.label(), quant.bits())
                }
            }
            PolicySpec::Grasp { .. } => "GRASP".to_string(),
        }
    }

    /// Stable, path-safe tag for sweep cell ids. Unlike [`label`], this
    /// distinguishes every spec variant (quantization, limit-study mode,
    /// GRASP boundaries) so that two distinct simulations can never share
    /// a cell id.
    ///
    /// [`label`]: PolicySpec::label
    pub fn cell_tag(&self) -> String {
        match self {
            PolicySpec::Baseline(kind) => kind.label().to_lowercase(),
            PolicySpec::Belady => "opt".to_string(),
            PolicySpec::Topt => "topt".to_string(),
            PolicySpec::Popt {
                quant,
                encoding,
                limit_study,
            } => format!(
                "popt-q{}-{}{}",
                quant.bits(),
                encoding_tag(*encoding),
                if *limit_study { "-limit" } else { "" }
            ),
            PolicySpec::Grasp { hot_end, warm_end } => {
                format!("grasp-h{hot_end}-w{warm_end}")
            }
        }
    }
}

/// Short stable tag for an encoding, used in cell ids and cache keys.
fn encoding_tag(encoding: Encoding) -> &'static str {
    match encoding {
        Encoding::InterOnly => "io",
        Encoding::InterIntra => "ii",
        Encoding::SingleEpoch => "se",
    }
}

/// Parses a thread-count override (the `POPT_THREADS` value): a positive
/// integer, clamped to at least 1. Returns `None` for anything that does
/// not parse, leaving the caller on its default.
pub fn parse_threads(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Worker threads for Rereference Matrix preprocessing.
///
/// Honors the `POPT_THREADS` environment variable when it holds a positive
/// integer; otherwise falls back to the machine's available parallelism.
pub fn preprocess_threads() -> usize {
    if let Ok(v) = std::env::var("POPT_THREADS") {
        if let Some(n) = parse_threads(&v) {
            return n;
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shared-artifact context for cache-aware simulation: the artifact cache
/// plus the stable descriptor of the graph the matrices derive from.
///
/// The graph descriptor is part of every matrix cache key — two different
/// graphs must never share a Rereference Matrix artifact.
#[derive(Debug, Clone)]
pub struct MatrixCtx {
    /// The run-wide artifact cache.
    pub cache: Arc<ArtifactCache>,
    /// Stable descriptor of the source graph (e.g. `suite/v1/urand/small`).
    pub graph_desc: String,
}

impl MatrixCtx {
    /// Builds (or loads) a Rereference Matrix through the artifact cache.
    fn matrix(
        &self,
        desc: &str,
        build: impl FnOnce() -> popt_core::RerefMatrix,
    ) -> Arc<popt_core::RerefMatrix> {
        self.cache
            .matrix(&ArtifactKey::new(ArtifactKind::Matrix, desc), build)
    }
}

/// Builds the P-OPT stream bindings for a kernel's plan: one Rereference
/// Matrix per irregular region, built from the traversal's transpose.
pub fn popt_bindings(
    app: App,
    g: &Graph,
    plan: &TracePlan,
    quant: Quantization,
    encoding: Encoding,
) -> Vec<StreamBinding> {
    popt_bindings_cached(app, g, plan, quant, encoding, None)
}

/// [`popt_bindings`], with matrix construction deduped through an artifact
/// cache when `ctx` is provided. The cache key captures every build input:
/// source graph, traversal direction, irregular-region index, elements per
/// line, vertices per element, quantization and encoding.
pub fn popt_bindings_cached(
    app: App,
    g: &Graph,
    plan: &TracePlan,
    quant: Quantization,
    encoding: Encoding,
    ctx: Option<&MatrixCtx>,
) -> Vec<StreamBinding> {
    let transpose = g.transpose_of(app.direction());
    plan.irregs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let region = plan.space.region(spec.region);
            let build = || {
                popt_core::preprocess::build_parallel(
                    transpose,
                    region.elems_per_line() as u32,
                    spec.vertices_per_elem,
                    quant,
                    encoding,
                    preprocess_threads(),
                )
            };
            let matrix = match ctx {
                Some(ctx) => {
                    let desc = format!(
                        "rrm/v1/{}/dir={:?}/region={i}/epl={}/vpe={}/q={}/enc={}",
                        ctx.graph_desc,
                        app.direction(),
                        region.elems_per_line(),
                        spec.vertices_per_elem,
                        quant.bits(),
                        encoding_tag(encoding),
                    );
                    ctx.matrix(&desc, build)
                }
                None => Arc::new(build()),
            };
            StreamBinding {
                base: region.base(),
                bound: region.bound(),
                matrix,
            }
        })
        .collect()
}

/// LLC ways that must be reserved for a set of stream bindings.
///
/// An empty binding set (or one whose matrices are all zero-sized) needs
/// no reservation at all; a matrix bigger than an LLC bank is capped one
/// way short of the full associativity so the irregular data always keeps
/// at least one way.
pub fn reserved_ways_for(bindings: &[StreamBinding], cfg: &HierarchyConfig) -> usize {
    let bytes: u64 = bindings.iter().map(|b| b.matrix.resident_bytes()).sum();
    if bytes == 0 {
        return 0;
    }
    let ways = (bytes as usize).div_ceil(cfg.llc_bank().way_bytes()).max(1);
    ways.min(cfg.llc.ways().saturating_sub(1))
}

/// Runs one full simulation and returns the hierarchy statistics.
///
/// # Panics
///
/// Panics if `PolicySpec::Belady` is requested with a multi-bank LLC (the
/// oracle needs one globally-ordered LLC stream).
pub fn simulate(app: App, g: &Graph, cfg: &HierarchyConfig, policy: &PolicySpec) -> HierarchyStats {
    simulate_cached(app, g, cfg, policy, None)
}

/// [`simulate`], with Rereference Matrix construction deduped through an
/// artifact cache when `ctx` is provided. Results are bit-identical to the
/// uncached path — the cache only changes *where* matrices come from.
pub fn simulate_cached(
    app: App,
    g: &Graph,
    cfg: &HierarchyConfig,
    policy: &PolicySpec,
    ctx: Option<&MatrixCtx>,
) -> HierarchyStats {
    let plan = app.plan(g);
    if matches!(policy, PolicySpec::Belady) {
        assert_eq!(cfg.nuca.num_banks(), 1, "Belady needs a single-bank LLC");
        // Pass 1: record the LLC line stream (policy-independent).
        let mut recorder = Hierarchy::new(cfg, |sets, ways| PolicyKind::Lru.build(sets, ways));
        recorder.set_address_space(&plan.space);
        recorder.start_recording_llc();
        app.trace(g, &plan, &mut recorder);
        let trace = recorder.take_llc_recording();
        // Pass 2: run the kernel again under the oracle.
        let mut hierarchy = Hierarchy::new(cfg, move |sets, ways| {
            Box::new(Belady::from_trace(sets, ways, &trace))
        });
        hierarchy.set_address_space(&plan.space);
        app.trace(g, &plan, &mut hierarchy);
        return hierarchy.stats();
    }
    let mut hierarchy = policy_hierarchy_cached(app, g, cfg, &plan, policy, ctx);
    app.trace(g, &plan, &mut hierarchy);
    hierarchy.stats()
}

/// Builds a hierarchy configured for `policy`, with its address space set,
/// ready to consume the kernel's event stream — the single construction
/// path shared by [`simulate_cached`] and the `experiments trace replay`
/// fan-out (which drives several of these from one decoded trace).
///
/// # Panics
///
/// Panics on [`PolicySpec::Belady`]: the oracle is built *from* a recorded
/// LLC stream, so it cannot be constructed ahead of event delivery. Use
/// [`simulate_cached`] for Belady.
pub fn policy_hierarchy_cached(
    app: App,
    g: &Graph,
    cfg: &HierarchyConfig,
    plan: &TracePlan,
    policy: &PolicySpec,
    ctx: Option<&MatrixCtx>,
) -> Hierarchy {
    let mut hierarchy = match policy {
        PolicySpec::Baseline(kind) => {
            let kind = *kind;
            Hierarchy::new(cfg, move |sets, ways| kind.build(sets, ways))
        }
        PolicySpec::Belady => {
            panic!("Belady is two-pass; it cannot be built ahead of event delivery")
        }
        PolicySpec::Topt => {
            let transpose = Arc::new(g.transpose_of(app.direction()).clone());
            let streams = plan.irregular_streams();
            Hierarchy::new(cfg, move |sets, ways| {
                Box::new(Topt::new(
                    Arc::clone(&transpose),
                    streams.clone(),
                    sets,
                    ways,
                ))
            })
        }
        PolicySpec::Popt {
            quant,
            encoding,
            limit_study,
        } => {
            let bindings = popt_bindings_cached(app, g, plan, *quant, *encoding, ctx);
            let run_cfg = if *limit_study {
                cfg.clone()
            } else {
                cfg.clone()
                    .with_reserved_ways(reserved_ways_for(&bindings, cfg))
            };
            let charge = !*limit_study;
            Hierarchy::new(&run_cfg, move |sets, ways| {
                let mut pc = PoptConfig::new(bindings.clone());
                pc.charge_streaming = charge;
                Box::new(Popt::new(pc, sets, ways))
            })
        }
        PolicySpec::Grasp { hot_end, warm_end } => {
            // Map DBG vertex boundaries to line numbers of the first
            // irregular region.
            let region = plan.space.region(plan.irregs[0].region);
            let elems_per_line = region.elems_per_line();
            let base_line = region.base() >> popt_trace::LINE_SHIFT;
            let hot = base_line + *hot_end as u64 / elems_per_line;
            let warm = base_line + *warm_end as u64 / elems_per_line;
            let regions = GraspRegions::new(base_line, hot, warm);
            Hierarchy::new(cfg, move |sets, ways| {
                Box::new(Grasp::new(sets, ways, regions))
            })
        }
    };
    hierarchy.set_address_space(&plan.space);
    hierarchy
}

/// LLC policy choice for the special-phase runners (tiled PR, PB, PHI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePolicy {
    /// DRRIP baseline.
    Drrip,
    /// P-OPT with the default 8-bit inter+intra configuration.
    Popt,
}

/// Wrapper policy for CSR-segmented execution: each tile is a separate
/// pass with its own (smaller) Rereference Matrix; the wrapper swaps
/// P-OPT instances at `IterationBegin` boundaries, accumulating overheads.
struct TiledPopt {
    configs: Vec<PoptConfig>,
    next: usize,
    started: bool,
    sets: usize,
    ways: usize,
    inner: Popt,
    carry: popt_sim::PolicyOverheads,
}

impl TiledPopt {
    fn new(configs: Vec<PoptConfig>, sets: usize, ways: usize) -> Self {
        assert!(!configs.is_empty(), "need at least one tile");
        let inner = Popt::new(configs[0].clone(), sets, ways);
        TiledPopt {
            configs,
            next: 1,
            started: false,
            sets,
            ways,
            inner,
            carry: Default::default(),
        }
    }
}

impl popt_sim::ReplacementPolicy for TiledPopt {
    fn name(&self) -> String {
        format!("P-OPT x{} tiles", self.configs.len())
    }

    fn on_access(&mut self, set: usize, meta: &popt_sim::AccessMeta) {
        self.inner.on_access(set, meta);
    }

    fn on_hit(&mut self, set: usize, way: usize, meta: &popt_sim::AccessMeta) {
        self.inner.on_hit(set, way, meta);
    }

    fn on_fill(&mut self, set: usize, way: usize, meta: &popt_sim::AccessMeta) {
        self.inner.on_fill(set, way, meta);
    }

    fn victim(&mut self, ctx: &popt_sim::VictimCtx<'_>) -> usize {
        self.inner.victim(ctx)
    }

    fn on_control(&mut self, event: &popt_sim::ControlEvent) {
        if matches!(event, popt_sim::ControlEvent::IterationBegin) {
            if !self.started {
                self.started = true;
                self.inner.on_control(event);
            } else if self.next < self.configs.len() {
                self.carry = self.carry.merged(self.inner.overheads());
                self.inner = Popt::new(self.configs[self.next].clone(), self.sets, self.ways);
                self.next += 1;
            }
        } else {
            self.inner.on_control(event);
        }
    }

    fn overheads(&self) -> popt_sim::PolicyOverheads {
        self.carry.merged(self.inner.overheads())
    }
}

/// Simulates CSR-segmented (tiled) PageRank (Figure 13).
pub fn simulate_tiled(
    g: &Graph,
    cfg: &HierarchyConfig,
    num_tiles: usize,
    policy: PhasePolicy,
) -> HierarchyStats {
    use popt_kernels::tiled;
    let plan = tiled::plan(g);
    let tiles = popt_graph::tiling::segment(g, num_tiles);
    let run = |cfg: &HierarchyConfig,
               factory: &mut dyn FnMut(usize, usize) -> Box<dyn popt_sim::ReplacementPolicy>|
     -> HierarchyStats {
        let mut h = Hierarchy::new(cfg, factory);
        h.set_address_space(&plan.space);
        tiled::trace(g, &tiles, &plan, &mut h);
        h.stats()
    };
    match policy {
        PhasePolicy::Drrip => run(cfg, &mut |sets, ways| PolicyKind::Drrip.build(sets, ways)),
        PhasePolicy::Popt => {
            let src_region = plan.space.region(plan.irregs[0].region);
            let quant = Quantization::EIGHT;
            let encoding = Encoding::InterIntra;
            let configs: Vec<PoptConfig> = tiles
                .iter()
                .map(|tile| {
                    // The tile's transpose: only this tile's edges, in the
                    // push direction (src -> dst), over global IDs.
                    let edges: Vec<(VertexId, VertexId)> =
                        tile.csc.iter_edges().map(|(dst, src)| (src, dst)).collect();
                    let transpose = popt_graph::Csr::from_edges(g.num_vertices(), &edges)
                        .expect("tile edges come from the graph");
                    let matrix = popt_core::RerefMatrix::build_range(
                        &transpose,
                        tile.src_begin,
                        tile.src_span(),
                        src_region.elems_per_line() as u32,
                        1,
                        quant,
                        encoding,
                    );
                    PoptConfig::new(vec![StreamBinding {
                        base: src_region.base() + tile.src_begin as u64 * src_region.elem_size(),
                        bound: src_region.base() + tile.src_end as u64 * src_region.elem_size(),
                        matrix: Arc::new(matrix),
                    }])
                })
                .collect();
            // Only one tile's columns are resident at a time: reserve for
            // the largest tile (the Figure 13 capacity win).
            let max_bytes = configs
                .iter()
                .map(|c| {
                    c.streams
                        .iter()
                        .map(|s| s.matrix.resident_bytes())
                        .sum::<u64>()
                })
                .max()
                .unwrap_or(0) as usize;
            let ways = max_bytes
                .div_ceil(cfg.llc_bank().way_bytes())
                .max(1)
                .min(cfg.llc.ways() - 1);
            let cfg = cfg.clone().with_reserved_ways(ways);
            let mut configs = Some(configs);
            run(&cfg, &mut |sets, ways| {
                Box::new(TiledPopt::new(
                    configs.take().expect("single-bank LLC for tiled P-OPT"),
                    sets,
                    ways,
                ))
            })
        }
    }
}

/// Simulates the Propagation Blocking binning phase (Figure 14).
pub fn simulate_pb(g: &Graph, cfg: &HierarchyConfig, policy: PhasePolicy) -> HierarchyStats {
    use popt_kernels::pb;
    let bins = pb::BinningConfig::for_graph(g);
    let plan = pb::plan_pb(g, bins);
    let trace = |h: &mut Hierarchy| pb::trace_pb(g, bins, &plan, h);
    match policy {
        PhasePolicy::Drrip => {
            let mut h = Hierarchy::new(cfg, |sets, ways| PolicyKind::Drrip.build(sets, ways));
            h.set_address_space(&plan.space);
            trace(&mut h);
            h.stats()
        }
        PhasePolicy::Popt => {
            let region = plan.space.region(plan.irregs[0].region);
            let transpose = pb::bin_transpose(g, bins);
            let matrix = Arc::new(popt_core::RerefMatrix::build_range(
                &transpose,
                0,
                bins.num_bins,
                1,
                1,
                Quantization::EIGHT,
                Encoding::InterIntra,
            ));
            let binding = StreamBinding {
                base: region.base(),
                bound: region.bound(),
                matrix,
            };
            let ways = reserved_ways_for(std::slice::from_ref(&binding), cfg);
            let cfg = cfg.clone().with_reserved_ways(ways);
            let mut h = Hierarchy::new(&cfg, |sets, ways| {
                Box::new(Popt::new(
                    PoptConfig::new(vec![binding.clone()]),
                    sets,
                    ways,
                ))
            });
            h.set_address_space(&plan.space);
            trace(&mut h);
            h.stats()
        }
    }
}

/// PHI aggregation capacity for a hierarchy: the paper's PHI coalesces
/// commutative updates throughout the cache hierarchy, so its effective
/// capacity scales with the LLC (one 8 B accumulator per line-half).
pub fn phi_entries(cfg: &HierarchyConfig) -> usize {
    (cfg.llc.size_bytes() / 8).max(1)
}

/// Simulates the PHI-filtered scatter phase (Figure 14).
pub fn simulate_phi(g: &Graph, cfg: &HierarchyConfig, policy: PhasePolicy) -> HierarchyStats {
    use popt_kernels::pb;
    let plan = pb::plan_phi(g);
    match policy {
        PhasePolicy::Drrip => {
            let mut h = Hierarchy::new(cfg, |sets, ways| PolicyKind::Drrip.build(sets, ways));
            h.set_address_space(&plan.space);
            pb::trace_phi(g, phi_entries(cfg), &plan, &mut h);
            h.stats()
        }
        PhasePolicy::Popt => {
            // Push-style scatter: the transpose is the in-CSC, as for CC.
            let region = plan.space.region(plan.irregs[0].region);
            let matrix = Arc::new(popt_core::preprocess::build_parallel(
                g.in_csr(),
                region.elems_per_line() as u32,
                1,
                Quantization::EIGHT,
                Encoding::InterIntra,
                preprocess_threads(),
            ));
            let binding = StreamBinding {
                base: region.base(),
                bound: region.bound(),
                matrix,
            };
            let ways = reserved_ways_for(std::slice::from_ref(&binding), cfg);
            let cfg = cfg.clone().with_reserved_ways(ways);
            let entries = phi_entries(&cfg);
            let mut h = Hierarchy::new(&cfg, |sets, ways| {
                Box::new(Popt::new(
                    PoptConfig::new(vec![binding.clone()]),
                    sets,
                    ways,
                ))
            });
            h.set_address_space(&plan.space);
            pb::trace_phi(g, entries, &plan, &mut h);
            h.stats()
        }
    }
}

/// Convenience bundle: a baseline result and the metrics derived from it.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Candidate LLC misses as a fraction of baseline misses.
    pub miss_ratio: f64,
    /// Candidate speedup over baseline (timing model).
    pub speedup: f64,
}

/// Compares `candidate` against `baseline` statistics.
pub fn compare(baseline: &HierarchyStats, candidate: &HierarchyStats) -> Comparison {
    let model = TimingModel::default();
    let miss_ratio = if baseline.llc.misses == 0 {
        1.0
    } else {
        candidate.llc.misses as f64 / baseline.llc.misses as f64
    };
    Comparison {
        miss_ratio,
        speedup: model.speedup(baseline, candidate),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::suite::{suite_graph, SuiteGraph, SuiteScale};

    fn small_cfg() -> HierarchyConfig {
        // A very small hierarchy so Small-scale graphs still thrash it.
        HierarchyConfig::small_test()
    }

    #[test]
    fn popt_and_topt_beat_lru_on_pagerank() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        let lru = simulate(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::Baseline(PolicyKind::Lru),
        );
        let topt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::Topt);
        let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        assert!(
            topt.llc.misses < lru.llc.misses,
            "T-OPT {} should beat LRU {}",
            topt.llc.misses,
            lru.llc.misses
        );
        assert!(
            popt.llc.misses < lru.llc.misses,
            "P-OPT {} should beat LRU {}",
            popt.llc.misses,
            lru.llc.misses
        );
        // T-OPT is the idealized bound: it should not lose to P-OPT by any
        // meaningful margin.
        assert!(topt.llc.misses <= popt.llc.misses * 21 / 20);
    }

    #[test]
    fn belady_is_the_floor() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        for kind in [PolicyKind::Lru, PolicyKind::Drrip] {
            let base = simulate(App::Pagerank, &g, &cfg, &PolicySpec::Baseline(kind));
            let opt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::Belady);
            assert!(
                opt.llc.misses <= base.llc.misses,
                "OPT {} must not exceed {} ({})",
                opt.llc.misses,
                base.llc.misses,
                kind.label()
            );
        }
    }

    #[test]
    fn popt_reserves_ways_and_charges_streaming() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        assert!(popt.overheads.streamed_bytes > 0);
        assert!(popt.overheads.matrix_lookups > 0);
        let limit = simulate(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::Popt {
                quant: Quantization::EIGHT,
                encoding: Encoding::InterIntra,
                limit_study: true,
            },
        );
        assert_eq!(limit.overheads.streamed_bytes, 0);
        // Limit mode has more effective capacity: misses cannot be worse.
        assert!(limit.llc.misses <= popt.llc.misses);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), Some(1), "zero clamps to one");
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("four"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("2.5"), None);
    }

    #[test]
    fn reserved_ways_handles_empty_and_oversized_bindings() {
        let cfg = small_cfg();
        // Empty binding slice: nothing to pin, reserve nothing.
        assert_eq!(reserved_ways_for(&[], &cfg), 0);
        // A matrix far larger than the LLC bank must still leave at least
        // one way for the irregular data.
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let plan = App::Pagerank.plan(&g);
        let bindings = popt_bindings(
            App::Pagerank,
            &g,
            &plan,
            Quantization::SIXTEEN,
            Encoding::InterIntra,
        );
        let total: u64 = bindings.iter().map(|b| b.matrix.resident_bytes()).sum();
        assert!(
            total as usize > cfg.llc_bank().way_bytes(),
            "test needs a matrix larger than one way"
        );
        let ways = reserved_ways_for(&bindings, &cfg);
        assert!(ways >= 1);
        assert!(ways < cfg.llc.ways(), "must not reserve every way");
    }

    #[test]
    fn cell_tags_distinguish_specs() {
        let specs = [
            PolicySpec::Baseline(PolicyKind::Lru),
            PolicySpec::Baseline(PolicyKind::ShipPc),
            PolicySpec::Belady,
            PolicySpec::Topt,
            PolicySpec::popt_default(),
            PolicySpec::Popt {
                quant: Quantization::EIGHT,
                encoding: Encoding::InterIntra,
                limit_study: true,
            },
            PolicySpec::Popt {
                quant: Quantization::FOUR,
                encoding: Encoding::SingleEpoch,
                limit_study: false,
            },
            PolicySpec::Grasp {
                hot_end: 10,
                warm_end: 20,
            },
        ];
        let tags: std::collections::BTreeSet<String> =
            specs.iter().map(PolicySpec::cell_tag).collect();
        assert_eq!(tags.len(), specs.len(), "tags must be pairwise distinct");
        assert_eq!(PolicySpec::popt_default().cell_tag(), "popt-q8-ii");
    }

    #[test]
    fn cached_simulation_matches_uncached() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Tiny);
        let cfg = small_cfg();
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/popt-cli-test/cached-sim");
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(ArtifactCache::open(&dir).unwrap());
        let ctx = MatrixCtx {
            cache: Arc::clone(&cache),
            graph_desc: "test/urand/tiny".to_string(),
        };
        let plain = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        let cached = simulate_cached(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::popt_default(),
            Some(&ctx),
        );
        assert_eq!(plain, cached);
        let first = cache.counters();
        assert!(first.matrix_builds > 0);
        // Second cached run: pure hits, same result.
        let again = simulate_cached(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::popt_default(),
            Some(&ctx),
        );
        assert_eq!(plain, again);
        let second = cache.counters();
        assert_eq!(second.matrix_builds, first.matrix_builds, "no rebuild");
        assert!(second.matrix_hits > first.matrix_hits);
    }

    #[test]
    fn comparison_metrics_are_sane() {
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = small_cfg();
        let lru = simulate(
            App::Pagerank,
            &g,
            &cfg,
            &PolicySpec::Baseline(PolicyKind::Lru),
        );
        let popt = simulate(App::Pagerank, &g, &cfg, &PolicySpec::popt_default());
        let c = compare(&lru, &popt);
        assert!(c.miss_ratio < 1.0);
        assert!(c.speedup > 1.0);
    }
}
