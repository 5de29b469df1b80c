use crate::{Edge, GraphError, VertexId};

/// Compressed Sparse Row adjacency structure.
///
/// `Csr` is the storage format of Figure 1 in the paper: an *Offsets Array*
/// (`offsets`, one entry per vertex plus a terminator) indexing into a
/// *Neighbor Array* (`targets`) that stores each vertex's neighbors
/// contiguously. A CSC is just the `Csr` of the reversed edge set — see
/// [`Csr::transpose`].
///
/// Neighbor lists are kept **sorted by vertex ID**.
/// [`Csr::next_neighbor_after`] (binary search for the first out-neighbor
/// past the current outer-loop vertex, the next reference T-OPT computes)
/// and the Rereference Matrix builder rely on this invariant, which is
/// established at construction time.
///
/// # Example
///
/// ```
/// use popt_graph::Csr;
///
/// // The 5-vertex example graph from Figure 1 of the paper (push CSR).
/// let csr = Csr::from_edges(5, &[(0, 2), (1, 0), (1, 4), (2, 0), (2, 1), (2, 3), (3, 1), (4, 0), (4, 2)])
///     .expect("valid edges");
/// assert_eq!(csr.neighbors(2), &[0, 1, 3]);
/// assert_eq!(csr.degree(1), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    num_vertices: usize,
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
}

impl Csr {
    /// Builds a CSR from an edge list interpreted as `(vertex, neighbor)`
    /// pairs, using a counting sort (two passes, O(V + E)).
    ///
    /// Neighbor lists come out sorted and may contain duplicates if the
    /// input does (parallel edges are legal in all paper workloads).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if any endpoint is
    /// `>= num_vertices` and [`GraphError::TooManyVertices`] if
    /// `num_vertices` exceeds the 32-bit ID space.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Result<Self, GraphError> {
        if num_vertices > u32::MAX as usize {
            return Err(GraphError::TooManyVertices(num_vertices));
        }
        for &(src, dst) in edges {
            let bad = if src as usize >= num_vertices {
                Some(src)
            } else if dst as usize >= num_vertices {
                Some(dst)
            } else {
                None
            };
            if let Some(vertex) = bad {
                return Err(GraphError::VertexOutOfRange {
                    vertex: vertex as u64,
                    num_vertices,
                });
            }
        }
        let mut counts = vec![0u64; num_vertices + 1];
        for &(src, _) in edges {
            counts[src as usize + 1] += 1;
        }
        for i in 0..num_vertices {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; edges.len()];
        for &(src, dst) in edges {
            let at = cursor[src as usize];
            targets[at as usize] = dst;
            cursor[src as usize] += 1;
        }
        for v in 0..num_vertices {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
        Ok(Csr {
            num_vertices,
            offsets,
            targets,
        })
    }

    /// Builds a CSR directly from raw offset and target arrays.
    ///
    /// Neighbor lists are sorted in place to establish the crate-wide
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Format`] if `offsets` is not a monotone array of
    /// length `num_vertices + 1` terminated by `targets.len()`, and
    /// [`GraphError::VertexOutOfRange`] if any target is out of range.
    pub fn from_raw_parts(
        num_vertices: usize,
        offsets: Vec<u64>,
        mut targets: Vec<VertexId>,
    ) -> Result<Self, GraphError> {
        if offsets.len() != num_vertices + 1 {
            return Err(GraphError::Format(format!(
                "offsets has length {}, expected {}",
                offsets.len(),
                num_vertices + 1
            )));
        }
        match (offsets.first(), offsets.last()) {
            (Some(&0), Some(&last)) if last == targets.len() as u64 => {}
            _ => {
                return Err(GraphError::Format(
                    "offsets must start at 0 and end at targets.len()".to_string(),
                ));
            }
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Format("offsets must be monotone".to_string()));
        }
        for &t in &targets {
            if t as usize >= num_vertices {
                return Err(GraphError::VertexOutOfRange {
                    vertex: t as u64,
                    num_vertices,
                });
            }
        }
        for v in 0..num_vertices {
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            targets[lo..hi].sort_unstable();
        }
        Ok(Csr {
            num_vertices,
            offsets,
            targets,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// The sorted neighbor list of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v` in this direction.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The offsets array (length `num_vertices + 1`). Exposed so kernels can
    /// emit the exact streaming accesses a real CSR traversal performs.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The neighbor array. Entry `i` lives at byte offset `4 * i` of the
    /// simulated `NA` region.
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// The first neighbor of `v` strictly greater than `after`, if any.
    ///
    /// This is the core T-OPT query (Section III-A): during a pull traversal
    /// currently processing destination `after`, the next reference of the
    /// `srcData[v]` element occurs when the traversal reaches
    /// `next_neighbor_after(v, after)`.
    ///
    /// Runs in `O(log degree(v))` thanks to sorted neighbor lists.
    ///
    /// # Example
    ///
    /// ```
    /// use popt_graph::Csr;
    ///
    /// let csr = Csr::from_edges(5, &[(1, 0), (1, 4)]).expect("valid");
    /// // Vertex S1 of the running example: out-neighbors {D0, D4}.
    /// assert_eq!(csr.next_neighbor_after(1, 0), Some(4));
    /// assert_eq!(csr.next_neighbor_after(1, 4), None);
    /// ```
    pub fn next_neighbor_after(&self, v: VertexId, after: VertexId) -> Option<VertexId> {
        let ns = self.neighbors(v);
        let idx = ns.partition_point(|&n| n <= after);
        ns.get(idx).copied()
    }

    /// Builds the transpose (every edge reversed). The transpose of a push
    /// CSR is the pull CSC and vice versa.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0u64; self.num_vertices + 1];
        for &t in &self.targets {
            counts[t as usize + 1] += 1;
        }
        for i in 0..self.num_vertices {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; self.targets.len()];
        for v in 0..self.num_vertices {
            for &t in self.neighbors(v as VertexId) {
                let at = cursor[t as usize];
                targets[at as usize] = v as VertexId;
                cursor[t as usize] += 1;
            }
        }
        // Sources are visited in increasing order, so each per-vertex list is
        // already sorted.
        Csr {
            num_vertices: self.num_vertices,
            offsets,
            targets,
        }
    }

    /// Iterates over all edges `(vertex, neighbor)` in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_vertices as VertexId)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&n| (v, n)))
    }

    /// Maximum degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices)
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example graph of Figure 1, as (src, dst) pairs.
    fn figure1_edges() -> Vec<Edge> {
        vec![
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
        ]
    }

    #[test]
    fn figure1_push_csr_matches_paper() {
        let csr = Csr::from_edges(5, &figure1_edges()).unwrap();
        // Paper's CSR: OA = [0,1,3,6,8,(10)], NA = [2, 0 4, 0 1 3, 1 4, 0 2].
        assert_eq!(csr.offsets(), &[0, 1, 3, 6, 8, 10]);
        assert_eq!(csr.targets(), &[2, 0, 4, 0, 1, 3, 1, 4, 0, 2]);
    }

    #[test]
    fn figure1_pull_csc_matches_paper() {
        let csc = Csr::from_edges(5, &figure1_edges()).unwrap().transpose();
        // Paper's CSC: OA = [0,3,5,7,8,(10)], NA = [1 2 4, 2 3, 0 4, 2, 1 3].
        assert_eq!(csc.offsets(), &[0, 3, 5, 7, 8, 10]);
        assert_eq!(csc.targets(), &[1, 2, 4, 2, 3, 0, 4, 2, 1, 3]);
    }

    #[test]
    fn transpose_is_involutive() {
        let csr = Csr::from_edges(5, &figure1_edges()).unwrap();
        assert_eq!(csr.transpose().transpose(), csr);
    }

    #[test]
    fn neighbors_are_sorted_even_for_unsorted_input() {
        let csr = Csr::from_edges(4, &[(0, 3), (0, 1), (0, 2)]).unwrap();
        assert_eq!(csr.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn next_neighbor_after_scans_forward() {
        let csr = Csr::from_edges(6, &[(0, 1), (0, 3), (0, 5)]).unwrap();
        assert_eq!(csr.next_neighbor_after(0, 0), Some(1));
        assert_eq!(csr.next_neighbor_after(0, 1), Some(3));
        assert_eq!(csr.next_neighbor_after(0, 3), Some(5));
        assert_eq!(csr.next_neighbor_after(0, 4), Some(5));
        assert_eq!(csr.next_neighbor_after(0, 5), None);
        assert_eq!(csr.next_neighbor_after(1, 0), None);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = Csr::from_edges(3, &[(0, 3)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfRange {
                vertex: 3,
                num_vertices: 3
            }
        );
    }

    #[test]
    fn from_raw_parts_validates_offsets() {
        assert!(Csr::from_raw_parts(2, vec![0, 1], vec![0]).is_err());
        assert!(Csr::from_raw_parts(2, vec![0, 2, 1], vec![0]).is_err());
        assert!(Csr::from_raw_parts(2, vec![0, 1, 1], vec![5]).is_err());
        let ok = Csr::from_raw_parts(2, vec![0, 1, 2], vec![1, 0]).unwrap();
        assert_eq!(ok.neighbors(0), &[1]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let csr = Csr::from_edges(0, &[]).unwrap();
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.max_degree(), 0);
    }

    #[test]
    fn iter_edges_round_trips() {
        let edges = figure1_edges();
        let csr = Csr::from_edges(5, &edges).unwrap();
        let mut seen: Vec<Edge> = csr.iter_edges().collect();
        let mut expect = edges;
        seen.sort_unstable();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn duplicate_edges_are_preserved() {
        let csr = Csr::from_edges(2, &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.neighbors(0), &[1, 1]);
    }
}
