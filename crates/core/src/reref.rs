use crate::cast;
use crate::{Encoding, Quantization, RawEntry, INFINITE_DISTANCE};
use popt_graph::{Csr, VertexId};

/// The Rereference Matrix (paper Section IV): a quantized encoding of a
/// graph's transpose with dimensions `numCacheLines × numEpochs`.
///
/// Row `L` describes the cache line holding elements of vertices
/// `[L·vpl, (L+1)·vpl)` of the irregularly-accessed array; column `e`
/// summarizes epoch `e` of the outer loop. Entries are encoded per
/// [`Encoding`]; [`RerefMatrix::next_ref`] implements the paper's
/// Algorithm 2 on top.
///
/// Storage is row-major (`[line][epoch]`), so the double lookup of
/// Algorithm 2 (current + next epoch) touches adjacent entries.
///
/// # Example
///
/// ```
/// use popt_core::{Encoding, Quantization, RerefMatrix};
/// use popt_graph::Csr;
///
/// // One vertex per line. Vertex 0's srcData is referenced while the pull
/// // loop processes destinations 2 and 7.
/// let transpose = Csr::from_edges(8, &[(0, 2), (0, 7)])?;
/// let m = RerefMatrix::build(&transpose, 1, 1, Quantization::EIGHT, Encoding::InterIntra);
/// assert_eq!(m.next_ref(0, 0), 2);  // two epochs ahead (epoch size 1)
/// assert_eq!(m.next_ref(0, 2), 0);  // being referenced this epoch
/// assert_eq!(m.next_ref(0, 3), 4);  // next at epoch 7
/// # Ok::<(), popt_graph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RerefMatrix {
    quant: Quantization,
    encoding: Encoding,
    /// Outer-loop vertex count (epoch geometry quantizes this range).
    num_vertices: usize,
    /// First irregular-array vertex covered by row 0 (non-zero for tiled
    /// sub-matrices, Figure 13).
    first_vertex: u32,
    /// Irregular-array vertices covered by the rows.
    covered_vertices: usize,
    num_lines: usize,
    num_epochs: usize,
    epoch_size: u32,
    sub_epoch_size: u32,
    num_sub_epochs: u32,
    vertices_per_line: u32,
    data: Vec<u16>,
}

impl RerefMatrix {
    /// Builds the matrix from `transpose` — the CSR encoding the dimension
    /// *opposite* to the traversal (out-CSR for pull kernels, in-CSR for
    /// push kernels; `Graph::transpose_of`).
    ///
    /// `elems_per_line` is how many array elements share a 64 B line (16
    /// for 4 B data); `vertices_per_elem` is how many vertices one element
    /// covers (1 for vertex data, 64 for a bit-vector frontier word).
    ///
    /// # Panics
    ///
    /// Panics if either granularity parameter is zero.
    pub fn build(
        transpose: &Csr,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        Self::build_range(
            transpose,
            0,
            transpose.num_vertices(),
            elems_per_line,
            vertices_per_elem,
            quant,
            encoding,
        )
    }

    /// Builds a matrix covering only irregular-array vertices
    /// `[first_vertex, first_vertex + covered_vertices)` — the per-tile
    /// sub-matrix of the CSR-segmenting study ("tiling reduces the address
    /// range of random access allowing P-OPT to store only a tile of a
    /// Rereference Matrix column in LLC", Section VII-C2). Epoch geometry
    /// still quantizes the full outer loop (`transpose.num_vertices()`).
    ///
    /// # Panics
    ///
    /// Panics if the covered range exceeds the vertex space or
    /// `first_vertex` is not aligned to a line boundary.
    pub fn build_range(
        transpose: &Csr,
        first_vertex: u32,
        covered_vertices: usize,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        let mut m = Self::shell_range(
            transpose.num_vertices(),
            first_vertex,
            covered_vertices,
            elems_per_line,
            vertices_per_elem,
            quant,
            encoding,
        );
        let mut refs = Vec::new();
        for line in 0..m.num_lines {
            m.collect_line_refs(transpose, line, &mut refs);
            let row_start = line * m.num_epochs;
            let row = {
                // Split borrow: the row being written never aliases `refs`.
                let data = &mut m.data;
                &mut data[row_start..row_start + m.num_epochs]
            };
            fill_row(
                row,
                &refs,
                m.epoch_size,
                m.sub_epoch_size,
                m.num_sub_epochs,
                quant,
                encoding,
            );
        }
        m
    }

    /// Allocates the matrix shape without filling entries (rows default to
    /// "never referenced"). Used by the parallel builder.
    pub(crate) fn empty_shell(
        num_vertices: usize,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        Self::shell_range(
            num_vertices,
            0,
            num_vertices,
            elems_per_line,
            vertices_per_elem,
            quant,
            encoding,
        )
    }

    /// [`geometry`](Self::geometry) with every entry "never referenced".
    fn shell_range(
        num_vertices: usize,
        first_vertex: u32,
        covered_vertices: usize,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        let mut m = Self::geometry(
            num_vertices,
            first_vertex,
            covered_vertices,
            elems_per_line,
            vertices_per_elem,
            quant,
            encoding,
        );
        let absent = RawEntry::absent(None, quant, encoding).0;
        m.data = vec![absent; m.num_lines * m.num_epochs];
        m
    }

    /// The matrix shape with empty entry storage. The loader builds on
    /// this, reading the entries itself and installing them with
    /// [`set_data`](Self::set_data), so an untrusted header never sizes an
    /// allocation up front.
    pub(crate) fn geometry(
        num_vertices: usize,
        first_vertex: u32,
        covered_vertices: usize,
        elems_per_line: u32,
        vertices_per_elem: u32,
        quant: Quantization,
        encoding: Encoding,
    ) -> Self {
        assert!(
            elems_per_line > 0 && vertices_per_elem > 0,
            "granularities must be positive"
        );
        let vertices_per_line = elems_per_line * vertices_per_elem;
        assert!(
            first_vertex as usize + covered_vertices <= num_vertices,
            "covered range must fit the vertex space"
        );
        assert_eq!(
            first_vertex % vertices_per_line,
            0,
            "tile base must align to a cache-line boundary of the irregular array"
        );
        let num_lines = covered_vertices.div_ceil(vertices_per_line as usize);
        let num_epochs = quant.epochs_spanned(num_vertices).max(1);
        let epoch_size = quant.epoch_size(num_vertices);
        let num_sub_epochs = encoding.num_sub_epochs(quant);
        let sub_epoch_size = epoch_size.div_ceil(num_sub_epochs).max(1);
        RerefMatrix {
            quant,
            encoding,
            num_vertices,
            first_vertex,
            covered_vertices,
            num_lines,
            num_epochs,
            epoch_size,
            sub_epoch_size,
            num_sub_epochs,
            vertices_per_line,
            data: Vec::new(),
        }
    }

    /// Gathers the sorted outer-loop reference positions of every vertex in
    /// `line` (the merge of their transpose neighbor lists).
    pub(crate) fn collect_line_refs(&self, transpose: &Csr, line: usize, refs: &mut Vec<VertexId>) {
        refs.clear();
        let lo = self.first_vertex as u64 + line as u64 * self.vertices_per_line as u64;
        let cap = (self.first_vertex as u64 + self.covered_vertices as u64)
            .min(transpose.num_vertices() as u64);
        let hi = (lo + self.vertices_per_line as u64).min(cap);
        for v in lo..hi {
            refs.extend_from_slice(transpose.neighbors(v as VertexId));
        }
        refs.sort_unstable();
    }

    /// The raw entry for (`line`, `epoch`). Out-of-range epochs read as
    /// "never referenced".
    pub fn entry(&self, line: usize, epoch: usize) -> RawEntry {
        if epoch >= self.num_epochs {
            return RawEntry::absent(None, self.quant, self.encoding);
        }
        RawEntry(self.data[line * self.num_epochs + epoch])
    }

    /// Algorithm 2: the next-reference distance (in epochs) of `line` given
    /// the outer loop is processing `current_vertex`. Returns
    /// [`INFINITE_DISTANCE`] when the entry's ∞ sentinel is hit.
    pub fn next_ref(&self, line: usize, current_vertex: VertexId) -> u32 {
        let (quant, enc) = (self.quant, self.encoding);
        let epoch_idx = current_vertex / self.epoch_size;
        let epoch = epoch_idx as usize;
        let curr = self.entry(line, epoch);
        let lift = |raw: u16| -> u32 {
            if raw >= enc.max_distance(quant) {
                INFINITE_DISTANCE
            } else {
                u32::from(raw)
            }
        };
        if !curr.is_present(quant, enc) {
            // Line 6: not referenced this epoch; payload is the distance.
            return lift(curr.distance(quant, enc));
        }
        // Lines 8-12: referenced this epoch; are we past the final access?
        let epoch_offset = current_vertex - epoch_idx * self.epoch_size;
        let curr_sub = (epoch_offset / self.sub_epoch_size).min(self.num_sub_epochs - 1);
        match enc {
            Encoding::InterOnly => 0, // no intra-epoch state: always "now"
            Encoding::InterIntra => {
                if curr_sub <= curr.last_sub_epoch(quant, enc) {
                    0
                } else {
                    // Lines 15-18: consult the next epoch column.
                    let next = self.entry(line, epoch + 1);
                    if next.is_present(quant, enc) {
                        1
                    } else {
                        let d = lift(next.distance(quant, enc));
                        d.saturating_add(1)
                    }
                }
            }
            Encoding::SingleEpoch => {
                if curr_sub <= curr.last_sub_epoch(quant, enc) {
                    0
                } else if curr.accessed_next_epoch(quant, enc) {
                    1
                } else {
                    // Only the current column is resident: beyond the next
                    // epoch the distance is unknown; report the most
                    // conservative in-range value.
                    2
                }
            }
        }
    }

    /// Quantization in force.
    pub fn quantization(&self) -> Quantization {
        self.quant
    }

    /// Entry encoding in force.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Number of rows (cache lines of the irregular array).
    pub fn num_lines(&self) -> usize {
        self.num_lines
    }

    /// Number of epoch columns actually materialized.
    pub fn num_epochs(&self) -> usize {
        self.num_epochs
    }

    /// Vertices per epoch.
    pub fn epoch_size(&self) -> u32 {
        self.epoch_size
    }

    /// Vertices covered by one matrix row.
    pub fn vertices_per_line(&self) -> u32 {
        self.vertices_per_line
    }

    /// First irregular-array vertex covered by row 0 (0 unless tiled).
    pub fn first_vertex(&self) -> u32 {
        self.first_vertex
    }

    /// Outer-loop vertex count the epoch geometry quantizes.
    pub fn outer_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Irregular-array vertices covered by the rows.
    pub fn covered_vertices(&self) -> usize {
        self.covered_vertices
    }

    /// The raw entry storage, row-major (serialization support).
    pub fn raw_data(&self) -> &[u16] {
        &self.data
    }

    /// Epoch of `vertex`.
    pub fn epoch_of(&self, vertex: VertexId) -> u32 {
        vertex / self.epoch_size
    }

    /// Bytes of one column as stored in the LLC
    /// (`numLines × bytes-per-entry`, Section IV-A).
    pub fn column_bytes(&self) -> u64 {
        self.num_lines as u64 * self.quant.bytes_per_entry()
    }

    /// Bytes that must stay LLC-resident (current + next column for the
    /// default encoding; one column for P-OPT-SE / inter-only).
    pub fn resident_bytes(&self) -> u64 {
        self.column_bytes() * self.encoding.resident_columns() as u64
    }

    /// LLC ways that must be reserved to pin [`resident_bytes`]
    /// (Section V-A: "reserve the minimum number of LLC ways that are
    /// sufficient").
    pub fn reserved_llc_ways(&self, llc: &popt_sim::CacheConfig) -> usize {
        (self.resident_bytes() as usize)
            .div_ceil(llc.way_bytes())
            .max(1)
    }

    /// Total matrix size in DRAM.
    pub fn total_bytes(&self) -> u64 {
        self.num_lines as u64 * self.num_epochs as u64 * self.quant.bytes_per_entry()
    }

    /// Moves the backing storage out (parallel builder support).
    pub(crate) fn take_data(&mut self) -> Vec<u16> {
        std::mem::take(&mut self.data)
    }

    /// Restores backing storage taken with [`take_data`](Self::take_data).
    pub(crate) fn set_data(&mut self, data: Vec<u16>) {
        assert_eq!(
            data.len(),
            self.num_lines * self.num_epochs,
            "data shape mismatch"
        );
        self.data = data;
    }

    pub(crate) fn sub_epoch_size_raw(&self) -> u32 {
        self.sub_epoch_size
    }

    pub(crate) fn num_sub_epochs_raw(&self) -> u32 {
        self.num_sub_epochs
    }
}

/// Fills one row from the sorted reference list of its line.
pub(crate) fn fill_row(
    row: &mut [u16],
    refs: &[VertexId],
    epoch_size: u32,
    sub_epoch_size: u32,
    num_sub_epochs: u32,
    quant: Quantization,
    encoding: Encoding,
) {
    let num_epochs = row.len();
    // Pass 1: mark present epochs with their final-access sub-epoch.
    // `present[e]` holds Some(last_sub) after the scan.
    let mut last_sub: Vec<Option<u32>> = vec![None; num_epochs];
    for &r in refs {
        let epoch_idx = r / epoch_size;
        let e = epoch_idx as usize;
        let sub = ((r - epoch_idx * epoch_size) / sub_epoch_size).min(num_sub_epochs - 1);
        last_sub[e] = Some(match last_sub[e] {
            Some(prev) => prev.max(sub),
            None => sub,
        });
    }
    // Pass 2 (reverse): distances to the next referencing epoch.
    let mut next_ref_epoch: Option<usize> = None;
    for e in (0..num_epochs).rev() {
        row[e] = match last_sub[e] {
            Some(sub) => {
                let accessed_next = e + 1 < num_epochs && last_sub[e + 1].is_some();
                let entry = RawEntry::present(sub, accessed_next, quant, encoding);
                next_ref_epoch = Some(e);
                entry.0
            }
            None => {
                // Epoch indices fit u32 by construction (≤ 2^quant.bits()).
                let distance = next_ref_epoch.map(|n| cast::exact::<u32, usize>(n - e));
                RawEntry::absent(distance, quant, encoding).0
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_graph::{Edge, Graph};

    /// Figure 1 / Figure 5's example graph.
    fn figure1() -> Graph {
        let edges: Vec<Edge> = vec![
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
        ];
        Graph::from_edges(5, &edges).expect("valid example")
    }

    /// A quantization with 2 vertices per epoch over 5 vertices, matching
    /// Figure 5's "each epoch spanning two vertices" (3 epochs). Achieved
    /// with 2-bit quantization: ceil(5/4) = 2 vertices/epoch.
    fn figure5_matrix(encoding: Encoding) -> RerefMatrix {
        let g = figure1();
        RerefMatrix::build(g.out_csr(), 1, 1, Quantization::new(2), encoding)
    }

    #[test]
    fn figure5_inter_only_entries() {
        // Expected from the paper's text: C0 row = [1, 0, M].
        let m = figure5_matrix(Encoding::InterOnly);
        assert_eq!(m.epoch_size(), 2);
        assert_eq!(m.num_epochs(), 3);
        let q = m.quantization();
        let sentinel = Encoding::InterOnly.max_distance(q);
        let row = |l: usize| -> Vec<u16> { (0..3).map(|e| m.entry(l, e).0).collect() };
        assert_eq!(row(0), vec![1, 0, sentinel]); // S0 -> {D2}
        assert_eq!(row(1), vec![0, 1, 0]); // S1 -> {D0, D4}
        assert_eq!(row(2), vec![0, 0, sentinel]); // S2 -> {D0, D1, D3}
        assert_eq!(row(3), vec![0, 1, 0]); // S3 -> {D1, D4}
        assert_eq!(row(4), vec![0, 0, sentinel]); // S4 -> {D0, D2}
    }

    #[test]
    fn algorithm2_tracks_intra_epoch_final_access() {
        // S2 (line 2) is referenced at D0, D1, D3: within epoch 0 its final
        // access is D1 (sub-epoch 1 of {D0=sub0, D1=sub1... with epoch size
        // 2 and 1 sub-epoch? 2-bit quantization has 1 payload bit -> 1
        // sub-epoch), so intra-epoch resolution is coarse here; use 8-bit
        // quantization (epoch size 1) for exact checks instead.
        let g = figure1();
        let m = RerefMatrix::build(g.out_csr(), 1, 1, Quantization::EIGHT, Encoding::InterIntra);
        assert_eq!(m.epoch_size(), 1);
        // S1 -> {D0, D4}: at D0 distance 0; at D1..D3 distance to D4.
        assert_eq!(m.next_ref(1, 0), 0);
        assert_eq!(m.next_ref(1, 1), 3);
        assert_eq!(m.next_ref(1, 3), 1);
        assert_eq!(m.next_ref(1, 4), 0);
        // S0 -> {D2} only: beyond D2 never referenced again.
        assert_eq!(m.next_ref(0, 3), INFINITE_DISTANCE);
    }

    #[test]
    fn replacement_scenarios_of_figure3_hold() {
        // Scenario A: processing D0, cache holds {S1, S2}; S1's next ref is
        // D4, S2's is D1 -> evict S1 (larger next_ref).
        let g = figure1();
        let m = RerefMatrix::build(g.out_csr(), 1, 1, Quantization::EIGHT, Encoding::InterIntra);
        // After their D0 accesses (sub-epoch of final access passed), use
        // the *next* occurrence distances measured at D0.
        let s1 = m.next_ref(1, 0); // referenced at D0 -> 0 during the epoch
        let s2 = m.next_ref(2, 0);
        assert_eq!((s1, s2), (0, 0));
        // Immediately after D0's processing, at D1:
        assert!(
            m.next_ref(1, 1) > m.next_ref(2, 1),
            "S1 (D4) is further than S2 (D1)"
        );
        // Scenario B at D1: S2's next is D3, S4's next is D2 -> evict S2.
        assert!(m.next_ref(2, 2) > m.next_ref(4, 2) || m.next_ref(2, 1) > m.next_ref(4, 1));
    }

    #[test]
    fn long_range_reuse_saturates_to_infinity_under_narrow_quantization() {
        // Line 0 is referenced at outer vertices 1 (epoch 0) and 999
        // (epoch 15). A 4-bit inter+intra entry has a 3-bit payload, so
        // from early epochs the ~14-epoch gap exceeds the representable
        // range and must read as the ∞ sentinel — not wrap into a short
        // distance that would make the line look imminently reusable.
        let g = Graph::from_edges(1000, &[(0, 1), (0, 999)]).expect("valid");
        let q = Quantization::FOUR;
        let m = RerefMatrix::build(g.out_csr(), 1, 1, q, Encoding::InterIntra);
        assert_eq!(m.epoch_size(), 63); // ceil(1000 / 16)
        assert_eq!(Encoding::InterIntra.max_distance(q), 7);
        // Epoch 2: true distance 13 epochs — beyond the payload.
        assert_eq!(m.next_ref(0, 2 * 63), INFINITE_DISTANCE);
        // Epoch 12: true distance 3 epochs — representable exactly.
        assert_eq!(m.next_ref(0, 12 * 63), 3);
    }

    #[test]
    fn matrix_matches_brute_force_oracle_on_random_graphs() {
        use popt_graph::generators;
        let g = generators::uniform_random(600, 4000, 99);
        let quant = Quantization::EIGHT;
        let m = RerefMatrix::build(g.out_csr(), 4, 1, quant, Encoding::InterIntra);
        let es = m.epoch_size();
        // Brute force: for each line and each current vertex sample, the
        // true epoch distance to the next referencing outer vertex whose
        // epoch is >= current epoch (0 if one exists in the current epoch at
        // or after the current sub-epoch... conservatively: compare only
        // cases where the answer is unambiguous at epoch granularity).
        let mut refs: Vec<Vec<u32>> = vec![Vec::new(); m.num_lines()];
        for v in 0..600u32 {
            for &d in g.out_neighbors(v) {
                refs[(v / 4) as usize].push(d);
            }
        }
        for r in &mut refs {
            r.sort_unstable();
        }
        for line in 0..m.num_lines() {
            for &cur in &[0u32, 100, 257, 404, 599] {
                let cur_epoch = cur / es;
                let got = m.next_ref(line, cur);
                // Exact expected distance at epoch granularity, *ignoring*
                // intra-epoch loss: distance from cur_epoch to the first
                // referencing epoch >= cur_epoch, where a reference in the
                // current epoch *at or after* cur counts as 0 but an earlier
                // one may legitimately report 0 or later depending on
                // sub-epoch resolution. Only assert the unambiguous cases.
                let next_at_or_after_cur = refs[line]
                    .iter()
                    .find(|&&r| r >= cur)
                    .map(|&r| r / es - cur_epoch);
                let any_in_cur_epoch = refs[line].iter().any(|&r| r / es == cur_epoch);
                match next_at_or_after_cur {
                    Some(0) => assert_eq!(got, 0, "line {line} cur {cur}"),
                    Some(d) if !any_in_cur_epoch => {
                        let expect = if d >= 127 { INFINITE_DISTANCE } else { d };
                        assert_eq!(got, expect, "line {line} cur {cur}");
                    }
                    None if !any_in_cur_epoch => {
                        assert_eq!(got, INFINITE_DISTANCE, "line {line} cur {cur}")
                    }
                    _ => {} // intra-epoch ambiguity: covered by dedicated tests
                }
            }
        }
    }

    #[test]
    fn frontier_granularity_shrinks_the_matrix() {
        let g = figure1();
        let data = RerefMatrix::build(
            g.out_csr(),
            16,
            1,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        let frontier = RerefMatrix::build(
            g.out_csr(),
            8,
            64,
            Quantization::EIGHT,
            Encoding::InterIntra,
        );
        assert_eq!(data.num_lines(), 1); // 5 vertices, 16/line
        assert_eq!(frontier.num_lines(), 1); // 512 vertices/line
        assert_eq!(frontier.vertices_per_line(), 512);
    }

    #[test]
    fn footprint_matches_paper_arithmetic() {
        // Section IV-A: "For a graph of 32 million vertices, 64B cache
        // lines, and 4B per srcData element, 8-bit quantization yields a
        // Rereference Matrix column size of 2MB (2M lines * 1B)".
        let quant = Quantization::EIGHT;
        let shell = RerefMatrix::empty_shell(32_000_000, 16, 1, quant, Encoding::InterIntra);
        assert_eq!(shell.num_lines(), 2_000_000);
        assert_eq!(shell.column_bytes(), 2_000_000);
        assert_eq!(shell.resident_bytes(), 4_000_000); // two columns
                                                       // Against the paper's 24 MB 16-way LLC (1.5 MB ways): 3 ways.
        let llc = popt_sim::CacheConfig::new(24 * 1024 * 1024, 16);
        assert_eq!(shell.reserved_llc_ways(&llc), 3);
    }

    #[test]
    fn tiled_range_matrix_matches_the_full_matrix_rows() {
        use popt_graph::generators;
        let g = generators::uniform_random(320, 2000, 7);
        let quant = Quantization::EIGHT;
        let full = RerefMatrix::build(g.out_csr(), 16, 1, quant, Encoding::InterIntra);
        // Tile covering vertices [160, 320): its rows must equal the full
        // matrix's rows 10..20 (16 vertices per line).
        let tile =
            RerefMatrix::build_range(g.out_csr(), 160, 160, 16, 1, quant, Encoding::InterIntra);
        assert_eq!(tile.num_lines(), 10);
        assert_eq!(tile.first_vertex(), 160);
        assert_eq!(tile.epoch_size(), full.epoch_size());
        for line in 0..10 {
            for e in 0..full.num_epochs() {
                assert_eq!(
                    tile.entry(line, e),
                    full.entry(line + 10, e),
                    "line {line} epoch {e}"
                );
            }
        }
        // Column shrinks with the tile: the Figure 13 capacity effect.
        assert!(tile.column_bytes() < full.column_bytes());
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_tile_base_is_rejected() {
        let t = popt_graph::Csr::from_edges(64, &[(0, 1)]).unwrap();
        let _ =
            RerefMatrix::build_range(&t, 3, 32, 16, 1, Quantization::EIGHT, Encoding::InterIntra);
    }

    #[test]
    fn single_epoch_conservative_fallback() {
        // 40 vertices with 4-bit quantization: 16 epochs of 3 vertices, so
        // intra-epoch positions exist. Vertex 0's line is referenced only at
        // outer vertex 0; vertex 1's line at outer vertices 1 and 4.
        let transpose = popt_graph::Csr::from_edges(40, &[(0, 0), (1, 1), (1, 4)]).unwrap();
        let m = RerefMatrix::build(&transpose, 1, 1, Quantization::FOUR, Encoding::SingleEpoch);
        assert_eq!(m.epoch_size(), 3);
        // Line 0 at outer vertex 1: past its final access (sub-epoch 0) with
        // no next-epoch access; only the current column is resident, so
        // P-OPT-SE reports the conservative in-range distance 2 even though
        // the true next reference is at infinity.
        assert_eq!(m.next_ref(0, 1), 2);
        // Line 1 at outer vertex 2: past its final access (vertex 1) but the
        // next-epoch bit is set (vertex 4 is in epoch 1): distance 1.
        assert_eq!(m.next_ref(1, 2), 1);
    }
}
