//! Block-distributed CSR graph over `p` logical processors.
//!
//! Processor `q` owns the contiguous global vertex range
//! `vtxdist[q]..vtxdist[q+1]` and stores its rows of the CSR with **global**
//! neighbour ids (the ParMETIS representation). Anything a processor learns
//! about non-local vertices — their partition, coarse id, or match status —
//! must come from state published at a superstep boundary; the algorithms in
//! this crate account that traffic through [`crate::cost::CostTracker`].

use mcgp_graph::csr::Vertex;
use mcgp_graph::Graph;

/// The rows of the distributed CSR owned by one logical processor.
#[derive(Clone, Debug)]
pub struct LocalGraph {
    /// Global id of local vertex 0.
    pub first: usize,
    /// Local CSR offsets (`nlocal + 1`).
    pub xadj: Vec<usize>,
    /// Neighbour lists in **global** ids.
    pub adjncy: Vec<Vertex>,
    /// Edge weights aligned with `adjncy`.
    pub adjwgt: Vec<i64>,
    /// Flattened `nlocal × ncon` vertex weights.
    pub vwgt: Vec<i64>,
    /// Number of constraints.
    pub ncon: usize,
}

impl LocalGraph {
    /// Number of locally owned vertices.
    #[inline]
    pub fn nlocal(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Global id of local vertex `lv`.
    #[inline]
    pub fn global(&self, lv: usize) -> usize {
        self.first + lv
    }

    /// Neighbours (global ids) of local vertex `lv`.
    #[inline]
    pub fn neighbors(&self, lv: usize) -> &[Vertex] {
        &self.adjncy[self.xadj[lv]..self.xadj[lv + 1]]
    }

    /// `(global neighbour, edge weight)` pairs of local vertex `lv`.
    #[inline]
    pub fn edges(&self, lv: usize) -> impl Iterator<Item = (Vertex, i64)> + '_ {
        self.neighbors(lv).iter().copied().zip(
            self.adjwgt[self.xadj[lv]..self.xadj[lv + 1]]
                .iter()
                .copied(),
        )
    }

    /// Weight vector of local vertex `lv`.
    #[inline]
    pub fn vwgt(&self, lv: usize) -> &[i64] {
        &self.vwgt[lv * self.ncon..(lv + 1) * self.ncon]
    }

    /// Number of local edge endpoints (degree sum).
    #[inline]
    pub fn nedges_local(&self) -> usize {
        self.adjncy.len()
    }
}

/// A graph block-distributed over `p` logical processors.
#[derive(Clone, Debug)]
pub struct DistGraph {
    ncon: usize,
    nvtxs: usize,
    vtxdist: Vec<usize>,
    procs: Vec<LocalGraph>,
}

impl DistGraph {
    /// Distributes `graph` over `p` processors in contiguous blocks of
    /// near-equal vertex count (the ParMETIS default initial distribution;
    /// mesh generators emit geometrically local orderings, so blocks are
    /// spatially coherent).
    pub fn distribute(graph: &Graph, p: usize) -> DistGraph {
        assert!(p >= 1, "need at least one processor");
        let n = graph.nvtxs();
        let ncon = graph.ncon();
        let mut vtxdist = Vec::with_capacity(p + 1);
        for q in 0..=p {
            vtxdist.push(q * n / p);
        }
        let procs = (0..p)
            .map(|q| {
                let first = vtxdist[q];
                let last = vtxdist[q + 1];
                let estart = graph.xadj()[first];
                let eend = graph.xadj()[last];
                LocalGraph {
                    first,
                    xadj: graph.xadj()[first..=last]
                        .iter()
                        .map(|&x| x - estart)
                        .collect(),
                    adjncy: graph.adjncy()[estart..eend].to_vec(),
                    adjwgt: graph.adjwgt()[estart..eend].to_vec(),
                    vwgt: graph.vwgt_flat()[first * ncon..last * ncon].to_vec(),
                    ncon,
                }
            })
            .collect();
        DistGraph {
            ncon,
            nvtxs: n,
            vtxdist,
            procs,
        }
    }

    /// Assembles a distributed graph from already-built local blocks
    /// (used by parallel contraction, where block sizes are uneven).
    pub fn from_parts(ncon: usize, vtxdist: Vec<usize>, procs: Vec<LocalGraph>) -> DistGraph {
        let nvtxs = *vtxdist.last().expect("vtxdist non-empty");
        debug_assert_eq!(vtxdist.len(), procs.len() + 1);
        for (q, lg) in procs.iter().enumerate() {
            debug_assert_eq!(lg.first, vtxdist[q]);
            debug_assert_eq!(lg.nlocal(), vtxdist[q + 1] - vtxdist[q]);
        }
        DistGraph {
            ncon,
            nvtxs,
            vtxdist,
            procs,
        }
    }

    /// Number of logical processors.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Global vertex count.
    #[inline]
    pub fn nvtxs(&self) -> usize {
        self.nvtxs
    }

    /// Number of constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// The block boundaries (`p + 1` prefix array).
    #[inline]
    pub fn vtxdist(&self) -> &[usize] {
        &self.vtxdist
    }

    /// The local block of processor `q`.
    #[inline]
    pub fn local(&self, q: usize) -> &LocalGraph {
        &self.procs[q]
    }

    /// Owner of global vertex `gid`.
    #[inline]
    pub fn owner(&self, gid: usize) -> usize {
        debug_assert!(gid < self.nvtxs);
        // partition_point returns the first q with vtxdist[q] > gid.
        self.vtxdist.partition_point(|&d| d <= gid) - 1
    }

    /// Per-constraint totals over all processors.
    pub fn total_vwgt(&self) -> Vec<i64> {
        let mut tot = vec![0i64; self.ncon];
        for lg in &self.procs {
            for lv in 0..lg.nlocal() {
                for (i, &w) in lg.vwgt(lv).iter().enumerate() {
                    tot[i] += w;
                }
            }
        }
        tot
    }

    /// Per-constraint maximum vertex weight over all processors.
    pub fn max_vwgt(&self) -> Vec<i64> {
        let mut maxw = vec![0i64; self.ncon];
        for lg in &self.procs {
            for lv in 0..lg.nlocal() {
                for (i, &w) in lg.vwgt(lv).iter().enumerate() {
                    maxw[i] = maxw[i].max(w);
                }
            }
        }
        maxw
    }

    /// Number of distinct non-local vertices adjacent to processor `q`'s
    /// block — the ghost/halo size whose exchange each published-state
    /// refresh costs.
    pub fn halo_size(&self, q: usize) -> usize {
        let lg = &self.procs[q];
        let lo = self.vtxdist[q];
        let hi = self.vtxdist[q + 1];
        let mut seen = std::collections::HashSet::new();
        for &u in &lg.adjncy {
            let u = u as usize;
            if u < lo || u >= hi {
                seen.insert(u);
            }
        }
        seen.len()
    }

    /// Reassembles the full CSR graph (validation, gather-to-all steps).
    pub fn gather(&self) -> Graph {
        let mut xadj = Vec::with_capacity(self.nvtxs + 1);
        xadj.push(0usize);
        let mut adjncy = Vec::new();
        let mut adjwgt = Vec::new();
        let mut vwgt = Vec::with_capacity(self.nvtxs * self.ncon);
        for lg in &self.procs {
            for lv in 0..lg.nlocal() {
                adjncy.extend_from_slice(lg.neighbors(lv));
                adjwgt.extend_from_slice(&lg.adjwgt[lg.xadj[lv]..lg.xadj[lv + 1]]);
                xadj.push(adjncy.len());
                vwgt.extend_from_slice(lg.vwgt(lv));
            }
        }
        Graph::from_csr_unchecked(self.ncon, xadj, adjncy, adjwgt, vwgt)
    }
}

impl mcgp_core::multilevel::LevelGraph for DistGraph {
    fn nvtxs(&self) -> usize {
        DistGraph::nvtxs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    #[test]
    fn distribute_gather_roundtrip() {
        let g = synthetic::type1(&mrng_like(1000, 1), 3, 1);
        for p in [1usize, 2, 4, 7] {
            let d = DistGraph::distribute(&g, p);
            assert_eq!(d.nprocs(), p);
            assert_eq!(d.gather(), g, "p={p}");
        }
    }

    #[test]
    fn owner_matches_vtxdist() {
        let g = grid_2d(10, 10);
        let d = DistGraph::distribute(&g, 4);
        for gid in 0..100 {
            let q = d.owner(gid);
            assert!(d.vtxdist()[q] <= gid && gid < d.vtxdist()[q + 1]);
        }
    }

    #[test]
    fn blocks_are_near_equal() {
        let g = mrng_like(1000, 2);
        let d = DistGraph::distribute(&g, 8);
        let sizes: Vec<usize> = (0..8).map(|q| d.local(q).nlocal()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "uneven blocks {sizes:?}");
    }

    #[test]
    fn totals_agree_with_serial_graph() {
        let g = synthetic::type2(&grid_2d(12, 12), 4, 3);
        let d = DistGraph::distribute(&g, 3);
        assert_eq!(d.total_vwgt(), g.total_vwgt());
        let mut maxw = vec![0i64; 4];
        for v in 0..g.nvtxs() {
            for (i, &w) in g.vwgt(v).iter().enumerate() {
                maxw[i] = maxw[i].max(w);
            }
        }
        assert_eq!(d.max_vwgt(), maxw);
    }

    #[test]
    fn halo_of_grid_strip_is_row_boundary() {
        // 2 procs on an 8x8 grid: each owns 4 rows; the halo of each block
        // is the facing row of 8 vertices.
        let g = grid_2d(8, 8);
        let d = DistGraph::distribute(&g, 2);
        assert_eq!(d.halo_size(0), 8);
        assert_eq!(d.halo_size(1), 8);
    }

    #[test]
    fn single_proc_has_empty_halo() {
        let g = grid_2d(6, 6);
        let d = DistGraph::distribute(&g, 1);
        assert_eq!(d.halo_size(0), 0);
    }

    #[test]
    fn local_edges_expose_global_ids() {
        let g = grid_2d(4, 4);
        let d = DistGraph::distribute(&g, 2);
        let lg = d.local(1);
        // Local vertex 0 of proc 1 is global vertex 8 = (x=0, y=2);
        // neighbours are 9 (right), 4 (down), 12 (up).
        assert_eq!(lg.global(0), 8);
        let mut nbrs: Vec<u32> = lg.neighbors(0).to_vec();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![4, 9, 12]);
    }
}
