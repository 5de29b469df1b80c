//! T-OPT: transpose-based optimal replacement (paper Section III).
//!
//! T-OPT consults the graph's transpose directly: the next reference of
//! `srcData[v]` while the pull loop processes destination `d` is `v`'s
//! first out-neighbor greater than `d`, and the next reference of a cache
//! line is the earliest such neighbor over the vertices the line holds.
//!
//! [`NextRefIndex`] answers that per line rather than per vertex. For each
//! irregular stream it stores, CSR-style, one sorted and deduplicated list
//! per line: the union of the transpose neighbors of the line's vertices.
//! A line's next reference is the first entry of its list above the
//! current vertex. The index is built once from the borrowed transpose and
//! shared by every LLC bank.
//!
//! Each [`Topt`] (one per bank) keeps a cursor per line into that list.
//! Within an iteration the current vertex mostly grows, so a lookup
//! usually checks the cursor's entry and moves it a step at most. When the
//! vertex goes backwards (a new iteration, a new tile, a permuted vertex
//! order), the cursor is re-seated by binary search. The cursor is only a
//! hint: every lookup returns the same distance whatever its position.
//!
//! The paper treats T-OPT as the idealized upper bound ("incurs no
//! overhead for tracking next references"), and so does our timing model:
//! the policy reports no metadata overheads, whatever the index costs the
//! host.

use crate::cast;
use crate::engine::{NextRefEngine, TieBreaker, WayClass};
use crate::INFINITE_DISTANCE;
use popt_graph::{Csr, VertexId};
use popt_sim::{AccessMeta, ControlEvent, PolicyOverheads, ReplacementPolicy, VictimCtx};
use std::sync::Arc;

/// One irregularly-accessed data structure tracked by T-OPT — the contents
/// of one (`irreg_base`, `irreg_bound`) register pair plus the granularity
/// needed to map cache lines back to vertex ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrregularStream {
    /// First byte of the region.
    pub base: u64,
    /// One past the last byte.
    pub bound: u64,
    /// Vertices whose data share one 64 B line (16 for 4 B elements,
    /// 512 for a bit-vector frontier).
    pub vertices_per_line: u32,
}

impl IrregularStream {
    /// Index within the stream of `line`, if its line-aligned address
    /// falls in the region. Index k covers vertices
    /// `[k · vertices_per_line, (k + 1) · vertices_per_line)`.
    fn line_index(&self, line: u64) -> Option<u64> {
        let addr = line << popt_trace::LINE_SHIFT;
        (addr >= self.base && addr < self.bound).then(|| (addr - self.base) / popt_trace::LINE_SIZE)
    }
}

/// The next-reference lists of one irregular stream, one per line.
struct StreamRefs {
    stream: IrregularStream,
    /// Line k's list is `refs[offsets[k]..offsets[k + 1]]`.
    offsets: Vec<u32>,
    /// Per line: the sorted, deduplicated transpose neighbors of its
    /// vertices.
    refs: Vec<VertexId>,
}

impl StreamRefs {
    fn build(transpose: &Csr, stream: IrregularStream) -> Self {
        let num_vertices = transpose.num_vertices() as u64;
        let per_line = u64::from(stream.vertices_per_line);
        let lines = if per_line == 0 {
            0
        } else {
            num_vertices.div_ceil(per_line)
        };
        let mut offsets: Vec<u32> = Vec::with_capacity(cast::exact(lines + 1));
        offsets.push(0);
        // The union over a line's vertices is never longer than their
        // combined lists, so E entries bound the whole stream.
        let mut refs: Vec<VertexId> = Vec::with_capacity(transpose.num_edges());
        let mut line_refs: Vec<VertexId> = Vec::new();
        for k in 0..lines {
            let first = k * per_line;
            let last = (first + per_line).min(num_vertices);
            line_refs.clear();
            for v in first..last {
                line_refs.extend_from_slice(transpose.neighbors(cast::exact(v)));
            }
            line_refs.sort_unstable();
            line_refs.dedup();
            refs.extend_from_slice(&line_refs);
            offsets.push(cast::exact(refs.len()));
        }
        refs.shrink_to_fit();
        StreamRefs {
            stream,
            offsets,
            refs,
        }
    }

    /// Line `k`'s list; empty for a line past the last vertex.
    fn line(&self, k: usize) -> &[VertexId] {
        let lo = self.offsets.get(k).copied().unwrap_or(0);
        let hi = self.offsets.get(k + 1).copied().unwrap_or(0);
        self.refs.get(lo as usize..hi as usize).unwrap_or_default()
    }

    fn num_lines(&self) -> usize {
        self.offsets.len() - 1
    }
}

/// T-OPT's next-reference index: for every line of every irregular stream,
/// the sorted union of its vertices' transpose neighbors. Built once per
/// graph and traversal direction and shared by the LLC banks' [`Topt`]
/// instances through an `Arc`.
pub struct NextRefIndex {
    streams: Vec<StreamRefs>,
}

impl std::fmt::Debug for NextRefIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let refs: usize = self.streams.iter().map(|s| s.refs.len()).sum();
        f.debug_struct("NextRefIndex")
            .field("streams", &self.streams.len())
            .field("refs", &refs)
            .finish()
    }
}

impl NextRefIndex {
    /// Builds the index of `streams` from `transpose`, which must encode
    /// the dimension opposite to the traversal
    /// ([`popt_graph::Graph::transpose_of`]).
    ///
    /// # Panics
    ///
    /// Panics if one stream's lists hold more than `u32::MAX` entries.
    pub fn build(transpose: &Csr, streams: &[IrregularStream]) -> Self {
        NextRefIndex {
            streams: streams
                .iter()
                .map(|&s| StreamRefs::build(transpose, s))
                .collect(),
        }
    }
}

/// Distance from `current` to the first entry of `refs` above it, or
/// [`INFINITE_DISTANCE`] if there is none. `cursor` is where the previous
/// lookup stopped; it is updated to where this one stops. Any starting
/// cursor gives the same distance.
fn seek(refs: &[VertexId], cursor: &mut u32, current: VertexId) -> u32 {
    let mut p = (*cursor as usize).min(refs.len());
    let passed = refs.get(..p).unwrap_or_default();
    if passed.last().is_some_and(|&r| r > current) {
        // The vertex went backwards: the answer lies among the passed
        // entries.
        p = passed.partition_point(|&r| r <= current);
    } else {
        while refs.get(p).is_some_and(|&r| r <= current) {
            p += 1;
        }
    }
    *cursor = cast::exact(p);
    refs.get(p).map_or(INFINITE_DISTANCE, |&r| r - current)
}

/// The T-OPT replacement policy.
pub struct Topt {
    index: Arc<NextRefIndex>,
    /// Per stream, per line: the position in the line's list where the
    /// last lookup stopped.
    cursors: Vec<Vec<u32>>,
    current_vertex: VertexId,
    engine: NextRefEngine,
    tie_break: TieBreaker,
    ties: u64,
    decisions: u64,
    scratch: Vec<WayClass>,
}

impl std::fmt::Debug for Topt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topt")
            .field("streams", &self.index.streams.len())
            .finish()
    }
}

impl Topt {
    /// Creates T-OPT for an LLC bank of `sets × ways`, answering
    /// next-reference queries from the shared `index`.
    pub fn new(index: Arc<NextRefIndex>, sets: usize, ways: usize) -> Self {
        let cursors = index
            .streams
            .iter()
            .map(|s| vec![0; s.num_lines()])
            .collect();
        Topt {
            index,
            cursors,
            current_vertex: 0,
            engine: NextRefEngine::new(),
            tie_break: TieBreaker::new(sets, ways),
            ties: 0,
            decisions: 0,
            scratch: Vec::with_capacity(ways),
        }
    }

    /// Classifies `line`: streaming if no irregular stream holds it,
    /// otherwise irregular with its exact next-reference distance — the
    /// minimum over the line's vertices of (first transpose neighbor beyond
    /// the current vertex) minus the current vertex.
    fn classify(&mut self, line: u64) -> WayClass {
        let current = self.current_vertex;
        for (stream, cursors) in self.index.streams.iter().zip(&mut self.cursors) {
            let Some(k) = stream.stream.line_index(line) else {
                continue;
            };
            // A line past the last vertex has no list and no cursor.
            let next_ref = usize::try_from(k)
                .ok()
                .and_then(|k| Some(seek(stream.line(k), cursors.get_mut(k)?, current)))
                .unwrap_or(INFINITE_DISTANCE);
            return WayClass::Irregular { next_ref };
        }
        WayClass::Streaming
    }
}

impl ReplacementPolicy for Topt {
    fn name(&self) -> String {
        "T-OPT".to_string()
    }

    fn on_hit(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.tie_break.on_hit(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize, _meta: &AccessMeta) {
        self.tie_break.on_fill(set, way);
    }

    fn victim(&mut self, ctx: &VictimCtx<'_>) -> usize {
        self.scratch.clear();
        for &line in ctx.lines {
            let class = self.classify(line);
            self.scratch.push(class);
        }
        let choice = self.engine.choose(&self.scratch);
        self.decisions += 1;
        if choice.is_tie() {
            self.ties += 1;
            self.tie_break.break_tie(ctx.set, &choice.candidates)
        } else {
            choice.candidates[0]
        }
    }

    fn on_control(&mut self, event: &ControlEvent) {
        match event {
            ControlEvent::CurrentVertex(v) => self.current_vertex = *v,
            ControlEvent::IterationBegin => self.current_vertex = 0,
            ControlEvent::EpochBoundary | ControlEvent::ContextSwitch => {}
        }
    }

    fn overheads(&self) -> PolicyOverheads {
        // T-OPT is the idealized design: no streamed metadata, no matrix
        // lookups — only tie statistics are reported.
        PolicyOverheads {
            ties: self.ties,
            decisions: self.decisions,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::Graph;
    use popt_trace::{AccessKind, RegionClass, SiteId};

    /// Figure 1's example graph.
    fn figure1() -> Graph {
        Graph::from_edges(
            5,
            &[
                (0, 2),
                (1, 0),
                (1, 4),
                (2, 0),
                (2, 1),
                (2, 3),
                (3, 1),
                (3, 4),
                (4, 0),
                (4, 2),
            ],
        )
        .unwrap()
    }

    /// A stream where line k holds exactly vertex k (degenerate 1-vertex
    /// lines let tests mirror the paper's walkthrough).
    fn unit_stream() -> IrregularStream {
        IrregularStream {
            base: 0,
            bound: 5 * 64,
            vertices_per_line: 1,
        }
    }

    fn index(transpose: &Csr, streams: &[IrregularStream]) -> Arc<NextRefIndex> {
        Arc::new(NextRefIndex::build(transpose, streams))
    }

    fn meta(line: u64) -> AccessMeta {
        AccessMeta {
            line,
            site: SiteId(0),
            kind: AccessKind::Read,
            class: RegionClass::Irregular,
        }
    }

    #[test]
    fn figure3_scenario_a_evicts_s1() {
        // Processing D0's neighbors; cache ways hold srcData[S1], srcData[S2].
        // "to emulate OPT we must evict srcData[S1] because its next reuse
        // (D4) is further into the future than srcData[S2] (D1)".
        let g = figure1();
        let mut topt = Topt::new(index(g.out_csr(), &[unit_stream()]), 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(0));
        let lines = [1, 2];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            lines: &lines,
            incoming: &meta(4),
        });
        assert_eq!(victim, 0, "S1 must be evicted");
    }

    #[test]
    fn figure3_scenario_b_evicts_s2() {
        // Two accesses later, processing D1; ways hold S4 and S2.
        // S4's next ref is D2, S2's is D3 -> evict S2.
        let g = figure1();
        let mut topt = Topt::new(index(g.out_csr(), &[unit_stream()]), 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(1));
        let lines = [4, 2];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            lines: &lines,
            incoming: &meta(3),
        });
        assert_eq!(victim, 1, "S2 must be evicted");
    }

    #[test]
    fn streaming_ways_lose_to_irregular_ways() {
        let g = figure1();
        let mut topt = Topt::new(index(g.out_csr(), &[unit_stream()]), 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(0));
        // Line 100 is outside the stream: streaming, evicted first even
        // though the irregular line is never referenced again.
        let lines = [0, 100];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            lines: &lines,
            incoming: &meta(3),
        });
        assert_eq!(victim, 1);
    }

    #[test]
    fn multi_vertex_lines_take_the_minimum() {
        // Line covering vertices {0,1}: v0 next at 2, v1 next at 4 (from
        // current 0) -> line distance is 2.
        let g = figure1();
        let stream = IrregularStream {
            base: 0,
            bound: 5 * 64,
            vertices_per_line: 2,
        };
        let mut topt = Topt::new(index(g.out_csr(), &[stream]), 1, 2);
        assert_eq!(topt.classify(0), WayClass::Irregular { next_ref: 2 });
    }

    #[test]
    fn iteration_begin_resets_the_register() {
        let g = figure1();
        let mut topt = Topt::new(index(g.out_csr(), &[unit_stream()]), 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(4));
        topt.on_control(&ControlEvent::IterationBegin);
        assert_eq!(topt.current_vertex, 0);
    }

    #[test]
    fn ties_are_counted_and_broken_by_recency() {
        // Two lines whose next reference is the same destination.
        let transpose = popt_graph::Csr::from_edges(4, &[(0, 3), (1, 3)]).unwrap();
        let stream = IrregularStream {
            base: 0,
            bound: 4 * 64,
            vertices_per_line: 1,
        };
        let mut topt = Topt::new(index(&transpose, &[stream]), 1, 2);
        topt.on_control(&ControlEvent::CurrentVertex(1));
        topt.on_fill(0, 0, &meta(0));
        topt.on_fill(0, 1, &meta(1));
        topt.on_hit(0, 0, &meta(0)); // way 0 recently re-referenced
        let lines = [0, 1];
        let victim = topt.victim(&VictimCtx {
            set: 0,
            lines: &lines,
            incoming: &meta(2),
        });
        assert_eq!(victim, 1, "staler way loses the tie");
        assert_eq!(topt.overheads().ties, 1);
        assert_eq!(topt.overheads().decisions, 1);
    }

    /// The old per-vertex definition, written out independently of the
    /// index: the minimum over the line's vertices of the first transpose
    /// neighbor beyond `current`, minus `current`.
    fn reference_class(
        transpose: &Csr,
        streams: &[IrregularStream],
        line: u64,
        current: VertexId,
    ) -> WayClass {
        let addr = line << popt_trace::LINE_SHIFT;
        let Some(s) = streams.iter().find(|s| addr >= s.base && addr < s.bound) else {
            return WayClass::Streaming;
        };
        let first = (addr - s.base) / popt_trace::LINE_SIZE * u64::from(s.vertices_per_line);
        let last = (first + u64::from(s.vertices_per_line)).min(transpose.num_vertices() as u64);
        let next_ref = (first..last)
            .filter_map(|v| transpose.next_neighbor_after(cast::exact(v), current))
            .map(|next| next - current)
            .min()
            .unwrap_or(INFINITE_DISTANCE);
        WayClass::Irregular { next_ref }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Index + cursor lookups equal the per-vertex definition for any
        /// order of vertex updates: monotone sweeps, arbitrary jumps, and
        /// sweeps restarted by `IterationBegin`. Two streams per case, the
        /// first at a base that is not line-aligned, both reaching lines
        /// past the last vertex.
        #[test]
        fn index_with_cursors_matches_per_vertex_search(
            num_vertices in 1u32..700,
            edges in proptest::collection::vec((0u32..700, 0u32..700), 0..1500),
            vpl in proptest::sample::select(vec![1u32, 16, 512]),
            vpl2 in proptest::sample::select(vec![1u32, 16, 512]),
            misalign in 0u64..64,
            order in proptest::sample::select(vec!["monotone", "jumps", "iterations"]),
            steps in proptest::collection::vec((0u32..720, 0u8..6), 1..80),
            probes in proptest::collection::vec(0u64..120, 1..24),
        ) {
            use proptest::prelude::prop_assert_eq;
            let edges: Vec<(VertexId, VertexId)> = edges
                .into_iter()
                .map(|(s, d)| (s % num_vertices, d % num_vertices))
                .collect();
            let transpose = Csr::from_edges(num_vertices as usize, &edges).unwrap();
            let lines_of = |per_line: u32| u64::from(num_vertices.div_ceil(per_line)) + 3;
            let base = 4096 + misalign;
            let bound = base + lines_of(vpl) * 64;
            let base2 = (bound | 63) + 1 + 64 * 5;
            let streams = [
                IrregularStream { base, bound, vertices_per_line: vpl },
                IrregularStream {
                    base: base2,
                    bound: base2 + lines_of(vpl2) * 64,
                    vertices_per_line: vpl2,
                },
            ];
            // Probe lines from just below the first region to just past
            // the second, gaps and streaming lines included.
            let first_line = (base >> popt_trace::LINE_SHIFT) - 1;
            let span = (streams[1].bound >> popt_trace::LINE_SHIFT) + 2 - first_line;
            let mut updates: Vec<ControlEvent> = Vec::new();
            match order {
                "monotone" => {
                    let mut vs: Vec<VertexId> = steps.iter().map(|&(v, _)| v).collect();
                    vs.sort_unstable();
                    updates.extend(vs.into_iter().map(ControlEvent::CurrentVertex));
                }
                "jumps" => {
                    updates.extend(steps.iter().map(|&(v, _)| ControlEvent::CurrentVertex(v)));
                }
                _ => {
                    // Ascending runs, each closed by an iteration restart.
                    let mut run: Vec<VertexId> = Vec::new();
                    for &(v, op) in &steps {
                        run.push(v);
                        if op == 0 {
                            run.sort_unstable();
                            updates.extend(run.drain(..).map(ControlEvent::CurrentVertex));
                            updates.push(ControlEvent::IterationBegin);
                        }
                    }
                    run.sort_unstable();
                    updates.extend(run.into_iter().map(ControlEvent::CurrentVertex));
                }
            }
            let mut topt = Topt::new(index(&transpose, &streams), 1, 2);
            for event in &updates {
                topt.on_control(event);
                let current = match *event {
                    ControlEvent::CurrentVertex(v) => v,
                    _ => 0,
                };
                for &probe in &probes {
                    let line = first_line + probe % span;
                    prop_assert_eq!(
                        topt.classify(line),
                        reference_class(&transpose, &streams, line, current),
                        "line {} at vertex {}", line, current
                    );
                }
            }
        }
    }
}
