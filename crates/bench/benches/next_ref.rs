//! Next-reference computation cost: Algorithm 2 on the Rereference Matrix
//! (per encoding) against T-OPT's exact victim search, plus the next-ref
//! engine's victim selection over a full eviction set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use popt_bench::bench_graph;
use popt_core::{Encoding, IrregularStream, NextRefIndex, Quantization, RerefMatrix, Topt};
use popt_sim::{AccessMeta, ControlEvent, ReplacementPolicy, VictimCtx};
use popt_trace::{AccessKind, RegionClass, SiteId};
use std::hint::black_box;
use std::sync::Arc;

fn algorithm2(c: &mut Criterion) {
    let g = bench_graph(32_768);
    let mut group = c.benchmark_group("next_ref/algorithm2");
    for encoding in [
        Encoding::InterOnly,
        Encoding::InterIntra,
        Encoding::SingleEpoch,
    ] {
        let m = RerefMatrix::build(g.out_csr(), 16, 1, Quantization::EIGHT, encoding);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{encoding}")),
            &m,
            |b, m| {
                let mut line = 0usize;
                let mut vertex = 0u32;
                b.iter(|| {
                    line = (line + 97) % m.num_lines();
                    vertex = (vertex + 131) % 32_768;
                    black_box(m.next_ref(line, vertex))
                })
            },
        );
    }
    group.finish();
}

fn topt_victim_search(c: &mut Criterion) {
    // T-OPT's per-decision cost: the exact next reference of all 16 ways
    // of an eviction set of srcData lines, from the next-reference index,
    // while the current vertex sweeps upward as in a pull iteration.
    const VERTICES: u32 = 32_768;
    let g = bench_graph(VERTICES as usize);
    let stream = IrregularStream {
        base: 0,
        bound: u64::from(VERTICES) * 4,
        vertices_per_line: 16,
    };
    let num_lines = u64::from(VERTICES / 16);
    let index = Arc::new(NextRefIndex::build(g.out_csr(), &[stream]));
    let mut topt = Topt::new(index, 1, 16);
    let incoming = AccessMeta {
        line: 0,
        site: SiteId(0),
        kind: AccessKind::Read,
        class: RegionClass::Irregular,
    };
    c.bench_function("next_ref/topt_victim_16way", |b| {
        let mut vertex = 0u32;
        let mut lines = [0u64; 16];
        b.iter(|| {
            vertex += 3;
            if vertex >= VERTICES {
                vertex = 0;
                topt.on_control(&ControlEvent::IterationBegin);
            }
            topt.on_control(&ControlEvent::CurrentVertex(vertex));
            for (i, line) in (0u64..).zip(lines.iter_mut()) {
                *line = (u64::from(vertex) * 7 + i * 127) % num_lines;
            }
            black_box(topt.victim(&VictimCtx {
                set: 0,
                lines: &lines,
                incoming: &incoming,
            }))
        })
    });
}

fn engine_victim_selection(c: &mut Criterion) {
    use popt_core::NextRefEngine;
    let engine = NextRefEngine::new();
    let ways: Vec<popt_core::WayClass> = (0..14)
        .map(|i| popt_core::WayClass::Irregular {
            next_ref: (i * 37) % 97,
        })
        .collect();
    c.bench_function("next_ref/engine_14way", |b| {
        b.iter(|| black_box(engine.choose(&ways)))
    });
}

criterion_group!(
    benches,
    algorithm2,
    topt_victim_search,
    engine_victim_selection
);
criterion_main!(benches);
