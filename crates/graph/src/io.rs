//! Graph serialization: a whitespace edge-list text format (the lingua
//! franca of graph datasets) and a compact binary CSR format for fast
//! reloads of generated inputs.

use crate::{Csr, Edge, Graph, GraphError, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parses a text edge list: one `src dst` pair per line; `#`- or `%`-prefixed
/// lines are comments. The vertex count is `max endpoint + 1`.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] with a 1-based line number for malformed
/// lines and propagates construction errors.
///
/// # Example
///
/// ```
/// let g = popt_graph::io::read_edge_list("# demo\n0 1\n1 2\n".as_bytes())?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 2);
/// # Ok::<(), popt_graph::GraphError>(())
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges: Vec<Edge> = Vec::new();
    let mut max_vertex: u64 = 0;
    let mut any = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: i + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: i + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        let src = parse(parts.next(), "source")?;
        let dst = parse(parts.next(), "destination")?;
        if src > u32::MAX as u64 || dst > u32::MAX as u64 {
            return Err(GraphError::Parse {
                line: i + 1,
                message: "vertex id exceeds 32 bits".to_string(),
            });
        }
        max_vertex = max_vertex.max(src).max(dst);
        edges.push((src as VertexId, dst as VertexId));
        any = true;
    }
    let n = if any { max_vertex as usize + 1 } else { 0 };
    Graph::from_edges(n, &edges)
}

/// Writes `g` as a text edge list.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_edge_list<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    writeln!(
        writer,
        "# {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (s, d) in g.out_csr().iter_edges() {
        writeln!(writer, "{s} {d}")?;
    }
    Ok(())
}

const BINARY_MAGIC: &[u8; 8] = b"POPTCSR1";

/// Writes `g`'s out-CSR in the compact binary format (magic, counts,
/// offsets, targets; all little-endian).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_binary<W: Write>(g: &Graph, mut writer: W) -> Result<(), GraphError> {
    let csr = g.out_csr();
    writer.write_all(BINARY_MAGIC)?;
    writer.write_all(&(csr.num_vertices() as u64).to_le_bytes())?;
    writer.write_all(&(csr.num_edges() as u64).to_le_bytes())?;
    for &off in csr.offsets() {
        writer.write_all(&off.to_le_bytes())?;
    }
    for &t in csr.targets() {
        writer.write_all(&t.to_le_bytes())?;
    }
    Ok(())
}

/// Offsets or targets reserved before any is read.
const MAX_PREALLOC: usize = 1 << 20;

/// Reads a graph written by [`write_binary`].
///
/// # Errors
///
/// Returns [`GraphError::Format`] on bad magic or truncation.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Graph, GraphError> {
    let mut magic = [0u8; 8];
    reader
        .read_exact(&mut magic)
        .map_err(|_| GraphError::Format("truncated magic".into()))?;
    if &magic != BINARY_MAGIC {
        return Err(GraphError::Format("bad magic".into()));
    }
    let mut buf8 = [0u8; 8];
    reader
        .read_exact(&mut buf8)
        .map_err(|_| GraphError::Format("truncated header".into()))?;
    let n = u64::from_le_bytes(buf8) as usize;
    reader
        .read_exact(&mut buf8)
        .map_err(|_| GraphError::Format("truncated header".into()))?;
    let m = u64::from_le_bytes(buf8) as usize;
    // `n` and `m` are untrusted: reserve a bounded amount and grow while
    // reading, so a corrupt header fails on the short read instead of
    // aborting the process on the allocation.
    let mut offsets = Vec::with_capacity(n.saturating_add(1).min(MAX_PREALLOC));
    for _ in 0..=n {
        reader
            .read_exact(&mut buf8)
            .map_err(|_| GraphError::Format("truncated offsets".into()))?;
        offsets.push(u64::from_le_bytes(buf8));
    }
    let mut buf4 = [0u8; 4];
    let mut targets = Vec::with_capacity(m.min(MAX_PREALLOC));
    for _ in 0..m {
        reader
            .read_exact(&mut buf4)
            .map_err(|_| GraphError::Format("truncated targets".into()))?;
        targets.push(u32::from_le_bytes(buf4));
    }
    let csr = Csr::from_raw_parts(n, offsets, targets)?;
    Ok(Graph::from_out_csr(csr))
}

/// Parses a Matrix Market coordinate file (`%%MatrixMarket matrix
/// coordinate …`) as a directed graph: entry `(i, j)` becomes the edge
/// `i → j` (1-based indices). `symmetric`/`skew-symmetric` matrices add
/// the reverse edge for off-diagonal entries, matching how graph
/// frameworks load SuiteSparse inputs. Values (for `real`/`integer`
/// fields) are ignored — the paper's workloads are unweighted.
///
/// # Errors
///
/// Returns [`GraphError::Parse`]/[`GraphError::Format`] for malformed
/// input.
///
/// # Example
///
/// ```
/// let mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
/// let g = popt_graph::io::read_matrix_market(mtx.as_bytes())?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 4); // both directions of both entries
/// # Ok::<(), popt_graph::GraphError>(())
/// ```
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();
    // Header.
    let (_, header) = lines
        .next()
        .ok_or_else(|| GraphError::Format("empty MatrixMarket file".into()))?;
    let header = header?;
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() < 4
        || tokens[0] != "%%matrixmarket"
        || tokens[1] != "matrix"
        || tokens[2] != "coordinate"
    {
        return Err(GraphError::Format(
            "expected a '%%MatrixMarket matrix coordinate' header".into(),
        ));
    }
    let symmetric = tokens
        .get(4)
        .is_some_and(|s| s == "symmetric" || s == "skew-symmetric" || s == "hermitian");
    // Size line (first non-comment line).
    let mut dims: Option<(usize, usize, usize)> = None;
    let mut edges: Vec<Edge> = Vec::new();
    for (i, line) in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: i + 1,
                message: format!("missing {what}"),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse {
                line: i + 1,
                message: format!("bad {what}: {e}"),
            })
        };
        match dims {
            None => {
                let rows = parse(parts.next(), "rows")? as usize;
                let cols = parse(parts.next(), "cols")? as usize;
                let nnz = parse(parts.next(), "nnz")? as usize;
                dims = Some((rows, cols, nnz));
                edges.reserve(if symmetric { 2 * nnz } else { nnz });
            }
            Some((rows, cols, _)) => {
                let r = parse(parts.next(), "row index")?;
                let c = parse(parts.next(), "column index")?;
                if r == 0 || c == 0 || r > rows as u64 || c > cols as u64 {
                    return Err(GraphError::Parse {
                        line: i + 1,
                        message: format!("index ({r}, {c}) outside {rows}x{cols}"),
                    });
                }
                let (src, dst) = ((r - 1) as VertexId, (c - 1) as VertexId);
                edges.push((src, dst));
                if symmetric && src != dst {
                    edges.push((dst, src));
                }
            }
        }
    }
    let (rows, cols, _) = dims.ok_or_else(|| GraphError::Format("missing size line".into()))?;
    Graph::from_edges(rows.max(cols), &edges)
}

/// Convenience: load a graph from a path, choosing the format by sniffing
/// the binary magic or the MatrixMarket banner.
///
/// # Errors
///
/// Propagates I/O, parse, and format errors.
pub fn read_path<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(BINARY_MAGIC) {
        read_binary(&bytes[..])
    } else if bytes.starts_with(b"%%MatrixMarket") || bytes.starts_with(b"%%matrixmarket") {
        read_matrix_market(&bytes[..])
    } else {
        read_edge_list(&bytes[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn text_round_trip() {
        let g = generators::uniform_random(64, 300, 7);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let h = read_edge_list(&buf[..]).unwrap();
        // Vertex count may shrink if trailing vertices are isolated; edges match.
        assert_eq!(g.num_edges(), h.num_edges());
        let mut a: Vec<_> = g.out_csr().iter_edges().collect();
        let mut b: Vec<_> = h.out_csr().iter_edges().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn binary_round_trip_is_exact() {
        let g = generators::rmat(8, 1024, generators::RmatParams::KRONECKER, 3);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let h = read_binary(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn huge_binary_header_with_truncated_body_is_a_format_error() {
        for (n, m) in [(u64::MAX, u64::MAX), (1 << 40, 1 << 40), (2, u64::MAX)] {
            let mut buf = BINARY_MAGIC.to_vec();
            buf.extend_from_slice(&n.to_le_bytes());
            buf.extend_from_slice(&m.to_le_bytes());
            // Three offsets: enough for n = 2, short of every huge n.
            for off in [0u64, 1, 2] {
                buf.extend_from_slice(&off.to_le_bytes());
            }
            buf.extend_from_slice(&7u32.to_le_bytes());
            assert!(
                matches!(read_binary(&buf[..]), Err(GraphError::Format(_))),
                "n={n} m={m}"
            );
        }
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let g = read_edge_list("# c\n\n% c\n1 0\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = read_edge_list("0 1\nxyz 3\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn missing_endpoint_is_an_error() {
        assert!(read_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            read_binary(&b"NOTAGRPH"[..]),
            Err(GraphError::Format(_))
        ));
    }

    #[test]
    fn matrix_market_general_keeps_direction() {
        let mtx = "%%MatrixMarket matrix coordinate real general\n% comment\n4 4 3\n1 2 0.5\n2 3 1.0\n4 1 2.0\n";
        let g = read_matrix_market(mtx.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(3), &[0]);
    }

    #[test]
    fn matrix_market_symmetric_mirrors_edges_but_not_diagonal() {
        let mtx = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n3 2\n2 2\n";
        let g = read_matrix_market(mtx.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 5); // 2 mirrored pairs + 1 self-loop
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.in_neighbors(0), &[1]);
    }

    #[test]
    fn matrix_market_rejects_out_of_range_indices() {
        let mtx = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n";
        assert!(matches!(
            read_matrix_market(mtx.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
        let zero = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n";
        assert!(read_matrix_market(zero.as_bytes()).is_err());
    }

    #[test]
    fn matrix_market_rejects_bad_headers() {
        assert!(read_matrix_market("%%MatrixMarket matrix array real\n".as_bytes()).is_err());
        assert!(read_matrix_market("not a matrix\n1 1 0\n".as_bytes()).is_err());
    }

    #[test]
    fn read_path_sniffs_matrix_market() {
        // Scratch space under the workspace target dir, not the shared
        // system temp dir, so parallel runs cannot interfere.
        let dir =
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/popt-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.mtx");
        std::fs::write(
            &path,
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n",
        )
        .unwrap();
        let g = read_path(&path).unwrap();
        assert_eq!(g.num_edges(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    /// Property check for any input: a typed error, or a graph whose
    /// header fields it honors and that survives its own round trip.
    fn loads_cleanly(bytes: &[u8]) -> Result<(), String> {
        let Ok(g) = read_binary(bytes) else {
            return Ok(());
        };
        let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        prop_assert_eq!(g.num_vertices() as u64, field(8));
        prop_assert_eq!(g.num_edges() as u64, field(16));
        let mut again = Vec::new();
        write_binary(&g, &mut again).unwrap();
        prop_assert_eq!(read_binary(&again[..]).unwrap(), g);
        Ok(())
    }

    fn sample_binary(n: usize, m: usize, seed: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(&generators::uniform_random(n, m, seed), &mut buf).unwrap();
        buf
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn every_truncated_binary_is_a_format_error(
            n in 1usize..48,
            m in 0usize..160,
            seed in any::<u64>(),
        ) {
            let buf = sample_binary(n, m, seed);
            for cut in 0..buf.len() {
                prop_assert!(
                    matches!(read_binary(&buf[..cut]), Err(GraphError::Format(_))),
                    "cut at {cut} loaded"
                );
            }
        }

        #[test]
        fn damaged_binaries_fail_or_load_consistently(
            n in 1usize..48,
            m in 0usize..160,
            seed in any::<u64>(),
            at in any::<u64>(),
            bit in 0u8..8,
            edges_field in any::<bool>(),
            value in any::<u64>(),
            shift in 0u32..64,
        ) {
            // One bit flip anywhere, then a huge vertex or edge count too.
            let mut buf = sample_binary(n, m, seed);
            let at = usize::try_from(at % buf.len() as u64).unwrap();
            buf[at] ^= 1 << bit;
            loads_cleanly(&buf)?;
            let at = if edges_field { 16 } else { 8 };
            buf[at..at + 8].copy_from_slice(&(value >> shift).to_le_bytes());
            loads_cleanly(&buf)?;
        }
    }
}
