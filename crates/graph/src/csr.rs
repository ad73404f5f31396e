//! Compressed-sparse-row graph with per-vertex weight vectors.
//!
//! The representation mirrors METIS: `xadj` offsets into `adjncy`/`adjwgt`,
//! plus a flattened `vwgt` array of `nvtxs * ncon` vertex weights. All
//! adjacency indices are `u32` to halve memory traffic on the multi-million
//! vertex graphs of the evaluation; counts and offsets are `usize`.

use crate::{GraphError, Result};

/// Vertex index type used in adjacency lists.
pub type Vertex = u32;

/// An undirected graph in CSR form with `ncon` weights per vertex.
///
/// Invariants (checked by [`Graph::validate`], maintained by all
/// constructors in this crate):
///
/// * `xadj.len() == nvtxs + 1`, `xadj[0] == 0`, `xadj` is non-decreasing;
/// * `adjncy.len() == adjwgt.len() == xadj[nvtxs]`;
/// * adjacency is symmetric with matching edge weights and has no self-loops;
/// * `vwgt.len() == nvtxs * ncon` and every weight is non-negative.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    nvtxs: usize,
    ncon: usize,
    xadj: Vec<usize>,
    adjncy: Vec<Vertex>,
    adjwgt: Vec<i64>,
    vwgt: Vec<i64>,
}

impl Graph {
    /// Builds a graph directly from CSR arrays, validating every invariant.
    pub fn from_csr(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<Vertex>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Result<Self> {
        if xadj.is_empty() {
            return Err(GraphError::Malformed(
                "xadj must have length nvtxs + 1 >= 1".into(),
            ));
        }
        let nvtxs = xadj.len() - 1;
        let g = Graph {
            nvtxs,
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        g.validate()?;
        Ok(g)
    }

    /// Builds a graph from CSR arrays **without** validation.
    ///
    /// Intended for hot paths (graph contraction, subgraph extraction) that
    /// construct structurally-correct CSR by construction. Debug builds still
    /// validate.
    pub fn from_csr_unchecked(
        ncon: usize,
        xadj: Vec<usize>,
        adjncy: Vec<Vertex>,
        adjwgt: Vec<i64>,
        vwgt: Vec<i64>,
    ) -> Self {
        let nvtxs = xadj.len() - 1;
        let g = Graph {
            nvtxs,
            ncon,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        };
        debug_assert!(g.validate().is_ok(), "from_csr_unchecked given invalid CSR");
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn nvtxs(&self) -> usize {
        self.nvtxs
    }

    /// Number of balance constraints (weights per vertex).
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Number of undirected edges (each stored twice internally).
    #[inline]
    pub fn nedges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Length of the adjacency array (`2 * nedges`).
    #[inline]
    pub fn adjacency_len(&self) -> usize {
        self.adjncy.len()
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[Vertex] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Edge weights aligned with [`Graph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: usize) -> &[i64] {
        &self.adjwgt[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Iterator over `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn edges(&self, v: usize) -> impl Iterator<Item = (Vertex, i64)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Weight vector of vertex `v` (`ncon` components).
    #[inline]
    pub fn vwgt(&self, v: usize) -> &[i64] {
        &self.vwgt[v * self.ncon..(v + 1) * self.ncon]
    }

    /// The full flattened vertex-weight array (`nvtxs * ncon`).
    #[inline]
    pub fn vwgt_flat(&self) -> &[i64] {
        &self.vwgt
    }

    /// Raw CSR offsets.
    #[inline]
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw adjacency array.
    #[inline]
    pub fn adjncy(&self) -> &[Vertex] {
        &self.adjncy
    }

    /// Raw edge-weight array.
    #[inline]
    pub fn adjwgt(&self) -> &[i64] {
        &self.adjwgt
    }

    /// Releases spare capacity in the adjacency arrays (contraction reserves
    /// an upper bound up front). Worth it for a graph that is kept around.
    pub fn shrink_to_fit(&mut self) {
        self.adjncy.shrink_to_fit();
        self.adjwgt.shrink_to_fit();
    }

    /// Sum of each weight component over all vertices.
    pub fn total_vwgt(&self) -> Vec<i64> {
        let mut tot = vec![0i64; self.ncon];
        for v in 0..self.nvtxs {
            for (i, &w) in self.vwgt(v).iter().enumerate() {
                tot[i] += w;
            }
        }
        tot
    }

    /// Sum of all edge weights (each undirected edge counted once).
    pub fn total_adjwgt(&self) -> i64 {
        self.adjwgt.iter().sum::<i64>() / 2
    }

    /// Replaces the vertex weights with a new `nvtxs * ncon_new` array.
    pub fn with_vwgt(mut self, ncon: usize, vwgt: Vec<i64>) -> Result<Self> {
        if vwgt.len() != self.nvtxs * ncon {
            return Err(GraphError::Malformed(format!(
                "vwgt length {} != nvtxs {} * ncon {}",
                vwgt.len(),
                self.nvtxs,
                ncon
            )));
        }
        if vwgt.iter().any(|&w| w < 0) {
            return Err(GraphError::Malformed("negative vertex weight".into()));
        }
        self.ncon = ncon;
        self.vwgt = vwgt;
        Ok(self)
    }

    /// Replaces the edge weights (must match adjacency length, symmetric).
    pub fn with_adjwgt(mut self, adjwgt: Vec<i64>) -> Result<Self> {
        if adjwgt.len() != self.adjncy.len() {
            return Err(GraphError::Malformed("adjwgt length mismatch".into()));
        }
        self.adjwgt = adjwgt;
        self.validate()?;
        Ok(self)
    }

    /// Checks all structural invariants in `O(|V| + |E|)` plus sorting the
    /// adjacency lists that are not sorted already. Those are sorted in one
    /// flat copy of the adjacency, made only if some list needs it.
    ///
    /// The first violation is reported: any duplicate edge before any
    /// asymmetry, each in ascending (vertex, neighbour) order.
    pub fn validate(&self) -> Result<()> {
        self.validate_cheap()?;
        let row = |v: usize| self.xadj[v]..self.xadj[v + 1];
        let mut copy: Option<(Vec<Vertex>, Vec<i64>)> = None;
        let mut lst: Vec<(Vertex, i64)> = Vec::new();
        for v in 0..self.nvtxs {
            if self.neighbors(v).windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            lst.clear();
            lst.extend(self.edges(v));
            lst.sort_unstable();
            if let Some(w) = lst.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(GraphError::Malformed(format!(
                    "duplicate edge ({v}, {})",
                    w[0].0
                )));
            }
            let (adjncy, adjwgt) =
                copy.get_or_insert_with(|| (self.adjncy.clone(), self.adjwgt.clone()));
            for (i, &(u, w)) in row(v).zip(&lst) {
                adjncy[i] = u;
                adjwgt[i] = w;
            }
        }
        let (adjncy, adjwgt) = match &copy {
            Some((adjncy, adjwgt)) => (&adjncy[..], &adjwgt[..]),
            None => (&self.adjncy[..], &self.adjwgt[..]),
        };
        // Rows are visited in ascending order, so each row u is asked for
        // its reverse entries in ascending order too: a cursor into row u
        // that only moves forward finds them, skipping entries whose own
        // check is still to come.
        let mut cursor: Vec<usize> = self.xadj[..self.nvtxs].to_vec();
        for v in 0..self.nvtxs {
            for (&u, &w) in adjncy[row(v)].iter().zip(&adjwgt[row(v)]) {
                let end = self.xadj[u as usize + 1];
                let mut c = cursor[u as usize];
                while c < end && (adjncy[c] as usize) < v {
                    c += 1;
                }
                cursor[u as usize] = c;
                if c == end || adjncy[c] as usize != v {
                    return Err(GraphError::NotUndirected(format!(
                        "edge ({v},{u}) has no reverse edge"
                    )));
                }
                if adjwgt[c] != w {
                    return Err(GraphError::NotUndirected(format!(
                        "edge ({v},{u}) weight {w} != reverse weight {}",
                        adjwgt[c]
                    )));
                }
            }
        }
        Ok(())
    }

    /// The `O(|V| + |E|)` subset of [`Graph::validate`]: array lengths,
    /// monotone offsets, index ranges, self-loops, and weight signs — every
    /// invariant except adjacency symmetry/deduplication. This is what
    /// [`crate::check::CheckLevel::Cheap`] runs at each pipeline seam.
    pub fn validate_cheap(&self) -> Result<()> {
        if self.xadj.len() != self.nvtxs + 1 {
            return Err(GraphError::Malformed("xadj length != nvtxs + 1".into()));
        }
        if self.xadj[0] != 0 {
            return Err(GraphError::Malformed("xadj[0] != 0".into()));
        }
        for v in 0..self.nvtxs {
            if self.xadj[v] > self.xadj[v + 1] {
                return Err(GraphError::Malformed(format!(
                    "xadj decreasing at vertex {v}"
                )));
            }
        }
        let m = *self.xadj.last().unwrap();
        if self.adjncy.len() != m || self.adjwgt.len() != m {
            return Err(GraphError::Malformed(
                "adjncy/adjwgt length != xadj[nvtxs]".into(),
            ));
        }
        if self.vwgt.len() != self.nvtxs * self.ncon {
            return Err(GraphError::Malformed("vwgt length != nvtxs * ncon".into()));
        }
        if self.vwgt.iter().any(|&w| w < 0) {
            return Err(GraphError::Malformed("negative vertex weight".into()));
        }
        if self.adjwgt.iter().any(|&w| w < 0) {
            return Err(GraphError::Malformed("negative edge weight".into()));
        }
        for v in 0..self.nvtxs {
            for &u in self.neighbors(v) {
                if u as usize >= self.nvtxs {
                    return Err(GraphError::Malformed(format!(
                        "vertex {v} has out-of-range neighbor {u}"
                    )));
                }
                if u as usize == v {
                    return Err(GraphError::NotUndirected(format!(
                        "self-loop at vertex {v}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder that symmetrises and deduplicates edges.
///
/// Edges may be added in either or both directions; parallel edges are merged
/// by summing weights; self-loops are dropped. Vertex weights default to a
/// single unit constraint unless [`GraphBuilder::vwgt`] is set.
///
/// ```
/// use mcgp_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.edge(0, 1).weighted_edge(1, 2, 4);
/// b.vwgt(2, vec![1, 10, 2, 20, 3, 30]); // 2 constraints
/// let g = b.build().unwrap();
/// assert_eq!(g.nedges(), 2);
/// assert_eq!(g.vwgt(1), &[2, 20]);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    nvtxs: usize,
    ncon: usize,
    edges: Vec<(Vertex, Vertex, i64)>,
    vwgt: Option<Vec<i64>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph of `nvtxs` vertices.
    pub fn new(nvtxs: usize) -> Self {
        GraphBuilder {
            nvtxs,
            ncon: 1,
            edges: Vec::new(),
            vwgt: None,
        }
    }

    /// Adds an undirected edge of weight 1.
    pub fn edge(&mut self, u: usize, v: usize) -> &mut Self {
        self.weighted_edge(u, v, 1)
    }

    /// Adds an undirected edge with the given weight.
    pub fn weighted_edge(&mut self, u: usize, v: usize, w: i64) -> &mut Self {
        self.edges.push((u as Vertex, v as Vertex, w));
        self
    }

    /// Sets the vertex weights (flattened `nvtxs * ncon`).
    pub fn vwgt(&mut self, ncon: usize, vwgt: Vec<i64>) -> &mut Self {
        self.ncon = ncon;
        self.vwgt = Some(vwgt);
        self
    }

    /// Finalises into a validated [`Graph`].
    pub fn build(&self) -> Result<Graph> {
        let n = self.nvtxs;
        // Collect both directions per vertex, drop self-loops, merge
        // duplicates. Sorting each vertex's short list is cheaper than
        // sorting all 2|E| directed edges at once.
        let mut rows: Vec<Vec<(Vertex, i64)>> = vec![Vec::new(); n];
        for &(u, v, w) in &self.edges {
            if u as usize >= n || v as usize >= n {
                return Err(GraphError::Malformed(format!(
                    "edge ({u},{v}) out of range"
                )));
            }
            if u == v {
                continue;
            }
            if w < 0 {
                return Err(GraphError::Malformed(format!(
                    "edge ({u},{v}) has negative weight"
                )));
            }
            rows[u as usize].push((v, w));
            rows[v as usize].push((u, w));
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0usize);
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut adjncy = Vec::with_capacity(total);
        let mut adjwgt = Vec::with_capacity(total);
        for row in &mut rows {
            row.sort_unstable();
            let mut i = 0;
            while i < row.len() {
                let (v, mut w) = row[i];
                let mut j = i + 1;
                while j < row.len() && row[j].0 == v {
                    w += row[j].1;
                    j += 1;
                }
                adjncy.push(v);
                adjwgt.push(w);
                i = j;
            }
            xadj.push(adjncy.len());
        }
        drop(rows);
        let vwgt = match &self.vwgt {
            Some(w) => {
                if w.len() != n * self.ncon {
                    return Err(GraphError::Malformed(format!(
                        "vwgt length {} != nvtxs {} * ncon {}",
                        w.len(),
                        n,
                        self.ncon
                    )));
                }
                w.clone()
            }
            None => vec![1i64; n],
        };
        Graph::from_csr(self.ncon, xadj, adjncy, adjwgt, vwgt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1).edge(1, 2).edge(2, 0);
        b.build().unwrap()
    }

    #[test]
    fn builder_produces_symmetric_csr() {
        let g = triangle();
        assert_eq!(g.nvtxs(), 3);
        assert_eq!(g.nedges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
    }

    #[test]
    fn builder_merges_parallel_edges() {
        let mut b = GraphBuilder::new(2);
        b.weighted_edge(0, 1, 2).weighted_edge(1, 0, 3);
        let g = b.build().unwrap();
        assert_eq!(g.nedges(), 1);
        assert_eq!(g.edge_weights(0), &[5]);
        assert_eq!(g.edge_weights(1), &[5]);
    }

    #[test]
    fn builder_drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 0).edge(0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.nedges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn default_vertex_weights_are_unit_single_constraint() {
        let g = triangle();
        assert_eq!(g.ncon(), 1);
        assert_eq!(g.vwgt(1), &[1]);
        assert_eq!(g.total_vwgt(), vec![3]);
    }

    #[test]
    fn multi_constraint_weights_roundtrip() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).vwgt(3, vec![1, 2, 3, 4, 5, 6]);
        let g = b.build().unwrap();
        assert_eq!(g.ncon(), 3);
        assert_eq!(g.vwgt(0), &[1, 2, 3]);
        assert_eq!(g.vwgt(1), &[4, 5, 6]);
        assert_eq!(g.total_vwgt(), vec![5, 7, 9]);
    }

    #[test]
    fn validate_rejects_asymmetric() {
        let err = Graph::from_csr(1, vec![0, 1, 1], vec![1], vec![1], vec![1, 1]);
        assert!(matches!(err, Err(GraphError::NotUndirected(_))));
    }

    #[test]
    fn validate_rejects_out_of_range_neighbor() {
        let err = Graph::from_csr(1, vec![0, 1], vec![5], vec![1], vec![1]);
        assert!(matches!(err, Err(GraphError::Malformed(_))));
    }

    #[test]
    fn validate_rejects_mismatched_reverse_weight() {
        let err = Graph::from_csr(1, vec![0, 1, 2], vec![1, 0], vec![2, 3], vec![1, 1]);
        assert!(matches!(err, Err(GraphError::NotUndirected(_))));
    }

    #[test]
    fn validate_rejects_negative_weights() {
        let err = Graph::from_csr(1, vec![0, 1, 2], vec![1, 0], vec![1, 1], vec![-1, 1]);
        assert!(matches!(err, Err(GraphError::Malformed(_))));
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = Graph::from_csr(1, vec![0], vec![], vec![], vec![]).unwrap();
        assert_eq!(g.nvtxs(), 0);
        assert_eq!(g.nedges(), 0);
    }

    #[test]
    fn total_adjwgt_counts_each_edge_once() {
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(1, 2, 6);
        let g = b.build().unwrap();
        assert_eq!(g.total_adjwgt(), 10);
    }

    #[test]
    fn edges_iterator_pairs_neighbors_with_weights() {
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 4).weighted_edge(0, 2, 7);
        let g = b.build().unwrap();
        let pairs: Vec<_> = g.edges(0).collect();
        assert_eq!(pairs, vec![(1, 4), (2, 7)]);
    }
}
