//! Extension experiments beyond the paper's figures: mechanisms the paper
//! describes but does not plot (parallel execution §V-F, context switches
//! §V-F), its stated future work (matrix-driven prefetching §VIII), and
//! the related-work SDBP baseline (§VIII).

use crate::exec::Session;
use crate::runner::{popt_bindings_cached, reserved_ways_for, PolicySpec};
use crate::table::{f2, pct, Table};
use crate::Scale;
use popt_core::{Encoding, NextRefIndex, Popt, PoptConfig, Quantization, StreamBinding, Topt};
use popt_graph::suite::SuiteGraph;
use popt_graph::Graph;
use popt_kernels::{pagerank, App};
use popt_sim::{Hierarchy, HierarchyConfig, HierarchyStats, PolicyKind};
use popt_trace::TraceSink;
use std::sync::Arc;

/// Vertices per serial block in the parallel traces (stands in for the
/// epoch-serial execution the paper requires of P-OPT runs).
fn parallel_block(g: &Graph) -> usize {
    Quantization::EIGHT.epoch_size(g.num_vertices()) as usize
}

fn run_parallel(
    g: &Graph,
    cfg: &HierarchyConfig,
    threads: usize,
    make: &mut dyn FnMut(usize, usize) -> Box<dyn popt_sim::ReplacementPolicy>,
) -> HierarchyStats {
    let plan = pagerank::plan(g);
    let mut h = Hierarchy::with_cores(cfg, threads.max(1), make);
    h.set_address_space(&plan.space);
    if threads <= 1 {
        pagerank::trace(g, &plan, &mut h);
    } else {
        pagerank::trace_parallel(g, &plan, &mut h, threads, parallel_block(g));
    }
    h.stats()
}

/// Extension 1 — parallel execution (paper Section V-F): P-OPT's LLC miss
/// rate with multi-threaded, epoch-serial execution should track the
/// serial miss rate ("providing similar LLC miss rates ... for
/// multi-threaded graph applications as for serial executions").
pub fn ext_parallel(session: &Session, scale: Scale) -> Vec<Table> {
    let cfg = scale.config();
    let suite = session.suite(scale);
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    let mut cells = Vec::new();
    for entry in &suite {
        let plan = pagerank::plan(&entry.graph);
        let ctx = session.matrix_ctx(&entry.desc);
        let bindings = popt_bindings_cached(
            App::Pagerank,
            &entry.graph,
            &plan,
            Quantization::EIGHT,
            Encoding::InterIntra,
            ctx.as_ref(),
        );
        let popt_cfg = cfg
            .clone()
            .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
        for threads in THREADS {
            let g = Arc::clone(&entry.graph);
            let popt_cfg = popt_cfg.clone();
            let b = bindings.clone();
            cells.push(session.cell(
                format!("ext1/{}/{}/popt/t{threads}", scale.name(), entry.which),
                move || {
                    run_parallel(&g, &popt_cfg, threads, &mut |s, w| {
                        Box::new(Popt::new(PoptConfig::new(b.clone()), s, w))
                    })
                },
            ));
        }
        let index = Arc::new(NextRefIndex::build(
            entry.graph.out_csr(),
            &plan.irregular_streams(),
        ));
        for threads in THREADS {
            let g = Arc::clone(&entry.graph);
            let cfg = cfg.clone();
            let index = Arc::clone(&index);
            cells.push(session.cell(
                format!("ext1/{}/{}/topt/t{threads}", scale.name(), entry.which),
                move || {
                    run_parallel(&g, &cfg, threads, &mut |s, w| {
                        Box::new(Topt::new(Arc::clone(&index), s, w))
                    })
                },
            ));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 1: multi-threaded P-OPT/T-OPT LLC miss rate vs serial, PageRank",
        &[
            "graph",
            "policy",
            "serial",
            "2 threads",
            "4 threads",
            "8 threads",
        ],
    );
    for entry in &suite {
        for policy in ["P-OPT", "T-OPT"] {
            let mut row = vec![entry.which.to_string(), policy.to_string()];
            for _ in THREADS {
                let stats = results.next().expect("one result per cell");
                row.push(pct(stats.llc.miss_rate()));
            }
            table.row(row);
        }
    }
    vec![table]
}

/// Extension 2 — Rereference-Matrix-driven prefetching (paper Section
/// VIII): epoch-ahead prefetch of the next epoch's irregular lines,
/// composed with DRRIP and with P-OPT.
pub fn ext_prefetch(session: &Session, scale: Scale) -> Vec<Table> {
    fn run_prefetch(
        g: &Graph,
        cfg: &HierarchyConfig,
        binding: &StreamBinding,
        popt: bool,
        prefetch: bool,
    ) -> HierarchyStats {
        let plan = App::Pagerank.plan(g);
        let cfg = if popt {
            cfg.clone()
                .with_reserved_ways(binding.matrix.reserved_llc_ways(&cfg.llc))
        } else {
            cfg.clone()
        };
        let mut h = Hierarchy::new(&cfg, |s, w| {
            if popt {
                Box::new(Popt::new(PoptConfig::new(vec![binding.clone()]), s, w))
            } else {
                PolicyKind::Drrip.build(s, w)
            }
        });
        h.set_address_space(&plan.space);
        if prefetch {
            let mut sink =
                popt_core::prefetch::PrefetchingSink::new(&mut h, &binding.matrix, binding.base);
            App::Pagerank.trace(g, &plan, &mut sink);
        } else {
            App::Pagerank.trace(g, &plan, &mut h);
        }
        h.stats()
    }
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let plan = App::Pagerank.plan(&entry.graph);
        let ctx = session.matrix_ctx(&entry.desc);
        let bindings = popt_bindings_cached(
            App::Pagerank,
            &entry.graph,
            &plan,
            Quantization::EIGHT,
            Encoding::InterIntra,
            ctx.as_ref(),
        );
        let binding = bindings[0].clone();
        for (tag, popt, prefetch) in [
            ("drrip", false, false),
            ("drrip-pf", false, true),
            ("popt", true, false),
            ("popt-pf", true, true),
        ] {
            let g = Arc::clone(&entry.graph);
            let cfg = cfg.clone();
            let binding = binding.clone();
            cells.push(session.cell(
                format!("ext2/{}/{}/{tag}", scale.name(), entry.which),
                move || run_prefetch(&g, &cfg, &binding, popt, prefetch),
            ));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 2: epoch-ahead prefetching from the Rereference Matrix, PageRank",
        &[
            "graph",
            "DRRIP",
            "DRRIP+pf",
            "P-OPT",
            "P-OPT+pf",
            "prefetch fills",
        ],
    );
    for entry in &suite {
        let drrip = results.next().expect("one result per cell");
        let drrip_pf = results.next().expect("one result per cell");
        let popt = results.next().expect("one result per cell");
        let popt_pf = results.next().expect("one result per cell");
        let base = drrip.llc.misses.max(1) as f64;
        table.row(vec![
            entry.which.to_string(),
            pct(1.0),
            pct(drrip_pf.llc.misses as f64 / base),
            pct(popt.llc.misses as f64 / base),
            pct(popt_pf.llc.misses as f64 / base),
            drrip_pf.prefetch_fills.to_string(),
        ]);
    }
    vec![table]
}

/// Extension 3 — the complete policy zoo (adds Random, SRRIP, BRRIP,
/// SHiP-Mem and the related-work SDBP dead-block predictor) plus Belady's
/// MIN, as LLC MPKI on PageRank.
pub fn ext_zoo(session: &Session, scale: Scale) -> Vec<Table> {
    const KINDS: [PolicyKind; 7] = [
        PolicyKind::Random,
        PolicyKind::Srrip,
        PolicyKind::Brrip,
        PolicyKind::ShipMem,
        PolicyKind::Sdbp,
        PolicyKind::Leeway,
        PolicyKind::Drrip,
    ];
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let prefix = format!("ext3/{}/{}", scale.name(), entry.which);
        for kind in KINDS {
            let spec = PolicySpec::Baseline(kind);
            cells.push(session.sim(
                format!("{prefix}/{}", spec.cell_tag()),
                App::Pagerank,
                entry,
                &cfg,
                &spec,
            ));
        }
        cells.push(session.sim(
            format!("{prefix}/{}", PolicySpec::Belady.cell_tag()),
            App::Pagerank,
            entry,
            &cfg,
            &PolicySpec::Belady,
        ));
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 3: full policy zoo, PageRank LLC MPKI (lower is better)",
        &[
            "graph", "Random", "SRRIP", "BRRIP", "SHiP-Mem", "SDBP", "Leeway", "DRRIP", "OPT",
        ],
    );
    for entry in &suite {
        let mut row = vec![entry.which.to_string()];
        for _ in 0..KINDS.len() + 1 {
            let stats = results.next().expect("one result per cell");
            row.push(f2(stats.llc_mpki()));
        }
        table.row(row);
    }
    vec![table]
}

/// Extension 5 — tie-break ablation (DESIGN.md §7): what does settling
/// quantization ties with the RRIP baseline buy over taking the first tied
/// way? Run as a limit study so the effect is isolated from capacity
/// costs; 4-bit quantization maximizes the tie rate.
pub fn ext_tiebreak(session: &Session, scale: Scale) -> Vec<Table> {
    use popt_core::TieBreak;
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let prefix = format!("ext5/{}/{}", scale.name(), entry.which);
        let plan = App::Pagerank.plan(&entry.graph);
        let drrip = PolicySpec::Baseline(PolicyKind::Drrip);
        cells.push(session.sim(
            format!("{prefix}/{}", drrip.cell_tag()),
            App::Pagerank,
            entry,
            &cfg,
            &drrip,
        ));
        for quant in [Quantization::FOUR, Quantization::EIGHT] {
            let ctx = session.matrix_ctx(&entry.desc);
            let bindings = popt_bindings_cached(
                App::Pagerank,
                &entry.graph,
                &plan,
                quant,
                Encoding::InterIntra,
                ctx.as_ref(),
            );
            for (tag, tie_break) in [
                ("first", TieBreak::FirstCandidate),
                ("rrip", TieBreak::Rrip),
            ] {
                let g = Arc::clone(&entry.graph);
                let cfg = cfg.clone();
                let b = bindings.clone();
                cells.push(
                    session.cell(format!("{prefix}/q{}-{tag}", quant.bits()), move || {
                        let plan = App::Pagerank.plan(&g);
                        let mut h = Hierarchy::new(&cfg, move |s, w| {
                            let mut pc = PoptConfig::new(b.clone());
                            pc.charge_streaming = false;
                            pc.tie_break = tie_break;
                            Box::new(Popt::new(pc, s, w))
                        });
                        h.set_address_space(&plan.space);
                        App::Pagerank.trace(&g, &plan, &mut h);
                        h.stats()
                    }),
                );
            }
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 5: P-OPT tie-break ablation, PageRank (misses vs DRRIP; limit study)",
        &[
            "graph",
            "4b first-way",
            "4b RRIP",
            "8b first-way",
            "8b RRIP",
        ],
    );
    for entry in &suite {
        let drrip = results.next().expect("one result per cell");
        let mut row = vec![entry.which.to_string()];
        for _ in 0..4 {
            let stats = results.next().expect("one result per cell");
            row.push(pct(stats.llc.misses as f64 / drrip.llc.misses.max(1) as f64));
        }
        table.row(row);
    }
    vec![table]
}

/// Extension 4 — context switches (paper Section V-F): P-OPT under
/// periodic preemption; the co-running process flushes the LLC, and P-OPT
/// refetches its columns on resumption. Reported: miss rate and streamed
/// metadata bytes per switch period.
pub fn ext_context_switch(session: &Session, scale: Scale) -> Vec<Table> {
    const SWITCHES: [usize; 4] = [0, 4, 16, 64];
    let cfg = scale.config();
    let entry = session.graph(SuiteGraph::Urand, scale);
    let plan = App::Pagerank.plan(&entry.graph);
    let ctx = session.matrix_ctx(&entry.desc);
    let bindings = popt_bindings_cached(
        App::Pagerank,
        &entry.graph,
        &plan,
        Quantization::EIGHT,
        Encoding::InterIntra,
        ctx.as_ref(),
    );
    let popt_cfg = cfg
        .clone()
        .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
    let mut cells = Vec::new();
    for switches in SWITCHES {
        let g = Arc::clone(&entry.graph);
        let popt_cfg = popt_cfg.clone();
        let b = bindings.clone();
        cells.push(session.cell(
            format!("ext4/{}/urand/s{switches}", scale.name()),
            move || {
                let plan = App::Pagerank.plan(&g);
                let mut h = Hierarchy::new(&popt_cfg, move |s, w| {
                    Box::new(Popt::new(PoptConfig::new(b.clone()), s, w))
                });
                h.set_address_space(&plan.space);
                // Interleave the kernel trace with evenly spaced preemptions.
                let mut rec = popt_trace::RecordingSink::new();
                App::Pagerank.trace(&g, &plan, &mut rec);
                let events = rec.into_events();
                let period = if switches == 0 {
                    usize::MAX
                } else {
                    events.len() / (switches + 1)
                };
                for (i, ev) in events.into_iter().enumerate() {
                    if period != usize::MAX && i > 0 && i % period == 0 {
                        h.context_switch();
                    }
                    h.event(ev);
                }
                h.stats()
            },
        ));
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 4: P-OPT under periodic context switches, PageRank on urand",
        &["switches/run", "miss rate", "streamed KB"],
    );
    for switches in SWITCHES {
        let stats = results.next().expect("one result per cell");
        table.row(vec![
            switches.to_string(),
            pct(stats.llc.miss_rate()),
            f2(stats.overheads.streamed_bytes as f64 / 1024.0),
        ]);
    }
    vec![table]
}

/// Extension 6 — why the huge page matters (paper Section V-B): P-OPT's
/// `irreg_base`/`irreg_bound` registers compare physical addresses, so the
/// scheme relies on `irregData` being physically contiguous (one 1 GB huge
/// page). Replaying the same workload through a scattered-4-KiB-frame
/// mapping leaves the registers meaningless: P-OPT silently degrades while
/// the address-agnostic DRRIP is unaffected.
pub fn ext_hugepage(session: &Session, scale: Scale) -> Vec<Table> {
    use popt_trace::paging::PageScrambler;
    fn run_mapping(
        g: &Graph,
        c: &HierarchyConfig,
        bindings: &[StreamBinding],
        popt: bool,
        scramble: bool,
    ) -> HierarchyStats {
        let plan = App::Pagerank.plan(g);
        let b = bindings.to_vec();
        let mut h = Hierarchy::new(c, move |s, w| {
            if popt {
                Box::new(Popt::new(PoptConfig::new(b.clone()), s, w))
            } else {
                PolicyKind::Drrip.build(s, w)
            }
        });
        h.set_address_space(&plan.space);
        if scramble {
            let mut sink = PageScrambler::new(&mut h, 0xfeed);
            App::Pagerank.trace(g, &plan, &mut sink);
        } else {
            App::Pagerank.trace(g, &plan, &mut h);
        }
        h.stats()
    }
    let cfg = scale.config();
    let suite = session.suite(scale);
    let mut cells = Vec::new();
    for entry in &suite {
        let plan = App::Pagerank.plan(&entry.graph);
        let ctx = session.matrix_ctx(&entry.desc);
        let bindings = popt_bindings_cached(
            App::Pagerank,
            &entry.graph,
            &plan,
            Quantization::EIGHT,
            Encoding::InterIntra,
            ctx.as_ref(),
        );
        let popt_cfg = cfg
            .clone()
            .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
        // Compare P-OPT against DRRIP *within* each mapping, so the
        // page-mapping's own set-indexing effects cancel out and only the
        // policy difference remains.
        for (tag, popt, scramble) in [
            ("drrip-huge", false, false),
            ("drrip-4k", false, true),
            ("popt-huge", true, false),
            ("popt-4k", true, true),
        ] {
            let g = Arc::clone(&entry.graph);
            let c = if popt { popt_cfg.clone() } else { cfg.clone() };
            let b = bindings.clone();
            cells.push(session.cell(
                format!("ext6/{}/{}/{tag}", scale.name(), entry.which),
                move || run_mapping(&g, &c, &b, popt, scramble),
            ));
        }
    }
    let mut results = session.run(cells).into_iter();
    let mut table = Table::new(
        "Extension 6: P-OPT vs DRRIP under huge-page and scattered 4 KiB mappings, PageRank",
        &["graph", "P-OPT/DRRIP hugepage", "P-OPT/DRRIP 4KiB"],
    );
    for entry in &suite {
        let drrip_huge = results.next().expect("one result per cell").llc.misses;
        let drrip_4k = results.next().expect("one result per cell").llc.misses;
        let popt_huge = results.next().expect("one result per cell").llc.misses;
        let popt_4k = results.next().expect("one result per cell").llc.misses;
        table.row(vec![
            entry.which.to_string(),
            pct(popt_huge as f64 / drrip_huge.max(1) as f64),
            pct(popt_4k as f64 / drrip_4k.max(1) as f64),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::popt_bindings;
    use popt_graph::suite::{suite_graph, SuiteScale};

    #[test]
    fn parallel_popt_stays_near_topt_and_ahead_of_drrip() {
        // The paper's Section V-F claim: sharing one `currVertex` register
        // (main-thread policy) keeps multi-threaded P-OPT near T-OPT.
        // Interleaved execution changes the LLC-level locality for *every*
        // policy, so the comparison is against T-OPT and DRRIP at the same
        // thread count, not against the serial run.
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = HierarchyConfig::small_test();
        let plan = pagerank::plan(&g);
        let bindings = popt_bindings(
            App::Pagerank,
            &g,
            &plan,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let popt_cfg = cfg
            .clone()
            .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
        let threads = 8;
        // Compare on *irregular* misses: coherence traffic on shared
        // streaming lines adds policy-independent misses that dilute the
        // overall rate.
        let b = bindings.clone();
        let popt = run_parallel(&g, &popt_cfg, threads, &mut move |s, w| {
            Box::new(Popt::new(PoptConfig::new(b.clone()), s, w))
        })
        .llc
        .irregular_misses;
        let index = Arc::new(NextRefIndex::build(g.out_csr(), &plan.irregular_streams()));
        let topt = run_parallel(&g, &cfg, threads, &mut move |s, w| {
            Box::new(Topt::new(Arc::clone(&index), s, w))
        })
        .llc
        .irregular_misses;
        let drrip = run_parallel(&g, &cfg, threads, &mut |s, w| PolicyKind::Drrip.build(s, w))
            .llc
            .irregular_misses;
        assert!(
            popt <= topt * 115 / 100,
            "8-thread P-OPT ({popt}) should track T-OPT ({topt}) on irregular misses"
        );
        assert!(
            popt <= drrip * 9 / 10,
            "8-thread P-OPT ({popt}) must stay well ahead of DRRIP ({drrip})"
        );
    }

    #[test]
    fn scattered_frames_break_popt_but_not_drrip() {
        use popt_trace::paging::PageScrambler;
        let g = suite_graph(SuiteGraph::Urand, SuiteScale::Small);
        let cfg = HierarchyConfig::small_test();
        let plan = App::Pagerank.plan(&g);
        let bindings = popt_bindings(
            App::Pagerank,
            &g,
            &plan,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let popt_cfg = cfg
            .clone()
            .with_reserved_ways(reserved_ways_for(&bindings, &cfg));
        let run = |popt: bool, scramble: bool| -> u64 {
            let b = bindings.clone();
            let mut h = Hierarchy::new(if popt { &popt_cfg } else { &cfg }, move |s, w| {
                if popt {
                    Box::new(Popt::new(PoptConfig::new(b.clone()), s, w))
                } else {
                    PolicyKind::Drrip.build(s, w)
                }
            });
            h.set_address_space(&plan.space);
            if scramble {
                let mut sink = PageScrambler::new(&mut h, 0xfeed);
                App::Pagerank.trace(&g, &plan, &mut sink);
            } else {
                App::Pagerank.trace(&g, &plan, &mut h);
            }
            h.stats().llc.misses
        };
        let popt_huge = run(true, false);
        let popt_4k = run(true, true);
        let drrip = run(false, true);
        assert!(
            popt_huge * 110 / 100 < popt_4k,
            "scattering must cost P-OPT: huge {popt_huge} vs 4k {popt_4k}"
        );
        assert!(
            popt_4k >= drrip,
            "misconfigured P-OPT ({popt_4k}) cannot beat DRRIP ({drrip})"
        );
    }

    #[test]
    fn prefetching_does_not_hurt_popt() {
        let tables = ext_prefetch(&Session::serial(), Scale::Small);
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), 5);
    }

    #[test]
    fn context_switches_increase_streamed_bytes_monotonically() {
        let tables = ext_context_switch(&Session::serial(), Scale::Small);
        let streamed: Vec<f64> = tables[0]
            .rows
            .iter()
            .map(|r| r[2].parse::<f64>().expect("streamed KB"))
            .collect();
        assert!(
            streamed.windows(2).all(|w| w[0] <= w[1]),
            "streamed {streamed:?}"
        );
    }
}
