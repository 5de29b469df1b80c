//! Quickstart: simulate one PageRank iteration under LRU, DRRIP, P-OPT and
//! T-OPT on a graph that exceeds the LLC, and print the locality and
//! estimated performance effect of each policy.
//!
//! Run with: `cargo run --release --example quickstart`

use p_opt::core::{NextRefIndex, Popt, PoptConfig, Topt};
use p_opt::prelude::*;
use std::sync::Arc;

fn main() {
    // A uniform random graph ~4x the scaled LLC: the paper's thrash regime.
    let g = p_opt::graph::generators::uniform_random(262_144, 1_048_576, 42);
    let cfg = HierarchyConfig::scaled_table1();
    let app = App::Pagerank;
    let plan = app.plan(&g);
    println!(
        "graph: {} vertices, {} edges (irregular data {} KB vs {} KB LLC)\n",
        g.num_vertices(),
        g.num_edges(),
        g.num_vertices() * 4 / 1024,
        cfg.llc.size_bytes() / 1024,
    );

    let run = |name: &str,
               cfg: &HierarchyConfig,
               factory: &mut dyn FnMut(usize, usize) -> Box<dyn ReplacementPolicy>| {
        let mut h = Hierarchy::new(cfg, factory);
        h.set_address_space(&plan.space);
        app.trace(&g, &plan, &mut h);
        let stats = h.stats();
        println!(
            "{name:8}  LLC misses: {:9}  miss rate: {:5.1}%  MPKI: {:6.2}",
            stats.llc.misses,
            stats.llc.miss_rate() * 100.0,
            stats.llc_mpki(),
        );
        stats
    };

    let lru = run("LRU", &cfg, &mut |s, w| PolicyKind::Lru.build(s, w));
    let drrip = run("DRRIP", &cfg, &mut |s, w| PolicyKind::Drrip.build(s, w));

    // P-OPT: build the Rereference Matrix from the transpose (the pull
    // kernel's transpose is the out-CSR), reserve LLC ways for its columns.
    let matrix = Arc::new(RerefMatrix::build(
        g.out_csr(),
        16,
        1,
        Quantization::EIGHT,
        Encoding::InterIntra,
    ));
    let region = plan.space.region(plan.irregs[0].region);
    let binding = StreamBinding {
        base: region.base(),
        bound: region.bound(),
        matrix: matrix.clone(),
    };
    let popt_cfg = cfg
        .clone()
        .with_reserved_ways(matrix.reserved_llc_ways(&cfg.llc));
    println!(
        "\nP-OPT reserves {} of {} LLC ways for 2 x {} KB matrix columns",
        popt_cfg.llc_reserved_ways,
        cfg.llc.ways(),
        matrix.column_bytes() / 1024,
    );
    let popt = run("P-OPT", &popt_cfg, &mut |s, w| {
        Box::new(Popt::new(PoptConfig::new(vec![binding.clone()]), s, w))
    });

    // T-OPT: the idealized transpose oracle.
    let index = Arc::new(NextRefIndex::build(g.out_csr(), &plan.irregular_streams()));
    let topt = run("T-OPT", &cfg, &mut |s, w| {
        Box::new(Topt::new(Arc::clone(&index), s, w))
    });

    let model = TimingModel::default();
    println!("\nestimated speedup over LRU (timing model):");
    for (name, stats) in [("DRRIP", &drrip), ("P-OPT", &popt), ("T-OPT", &topt)] {
        println!("  {name:8} {:.2}x", model.speedup(&lru, stats));
    }
}
