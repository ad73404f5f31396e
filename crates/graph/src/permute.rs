//! Graph relabelling under a vertex permutation — used to materialise
//! fill-reducing orderings and to test label-invariance of the algorithms.

use crate::csr::{Graph, Vertex};

/// Returns the graph with vertices relabelled so that old vertex `v`
/// becomes `iperm[v]` (`iperm` must be a permutation of `0..n`).
pub fn permute(graph: &Graph, iperm: &[u32]) -> Graph {
    let n = graph.nvtxs();
    assert_eq!(iperm.len(), n, "permutation length mismatch");
    let ncon = graph.ncon();
    // perm[new] = old
    let mut perm = vec![u32::MAX; n];
    for (old, &new) in iperm.iter().enumerate() {
        assert!((new as usize) < n, "iperm out of range");
        assert_eq!(perm[new as usize], u32::MAX, "iperm is not a permutation");
        perm[new as usize] = old as u32;
    }
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0usize);
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(graph.adjacency_len());
    let mut adjwgt: Vec<i64> = Vec::with_capacity(graph.adjacency_len());
    let mut vwgt = Vec::with_capacity(n * ncon);
    for &old in perm.iter().take(n) {
        let old = old as usize;
        for (u, w) in graph.edges(old) {
            adjncy.push(iperm[u as usize]);
            adjwgt.push(w);
        }
        xadj.push(adjncy.len());
        vwgt.extend_from_slice(graph.vwgt(old));
    }
    Graph::from_csr_unchecked(ncon, xadj, adjncy, adjwgt, vwgt)
}

/// Matrix bandwidth of the graph under its current labelling:
/// `max |u - v|` over edges. Orderings that cluster neighbours have small
/// bandwidth.
pub fn bandwidth(graph: &Graph) -> usize {
    let mut bw = 0usize;
    for v in 0..graph.nvtxs() {
        for &u in graph.neighbors(v) {
            bw = bw.max((u as i64 - v as i64).unsigned_abs() as usize);
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{grid_2d, mrng_like};
    use crate::synthetic;
    use mcgp_runtime::rng::Rng;

    #[test]
    fn identity_permutation_is_identity() {
        let g = synthetic::type1(&grid_2d(6, 6), 2, 1);
        let id: Vec<u32> = (0..36).collect();
        assert_eq!(permute(&g, &id), g);
    }

    #[test]
    fn permuted_graph_preserves_invariants() {
        let g = synthetic::type2(&grid_2d(8, 8), 3, 2);
        let rev: Vec<u32> = (0..64u32).rev().collect();
        let p = permute(&g, &rev);
        p.validate().unwrap();
        assert_eq!(p.nedges(), g.nedges());
        assert_eq!(p.total_vwgt(), g.total_vwgt());
        assert_eq!(p.total_adjwgt(), g.total_adjwgt());
        // Double reversal is identity.
        assert_eq!(permute(&p, &rev), g);
    }

    #[test]
    fn vertex_weights_follow_the_relabelling() {
        let g = synthetic::type1(&grid_2d(4, 4), 2, 3);
        let rev: Vec<u32> = (0..16u32).rev().collect();
        let p = permute(&g, &rev);
        for v in 0..16 {
            assert_eq!(p.vwgt(15 - v), g.vwgt(v));
        }
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutations() {
        let g = grid_2d(3, 3);
        permute(&g, &[0; 9]);
    }

    #[test]
    fn bandwidth_of_grid_orderings() {
        let g = grid_2d(10, 10);
        // Row-major labelling of a 10-wide grid has bandwidth 10.
        assert_eq!(bandwidth(&g), 10);
    }

    #[test]
    fn bandwidth_reacts_to_bad_orderings() {
        let g = mrng_like(500, 1);
        let natural = bandwidth(&g);
        use mcgp_runtime::rng::SliceRandom as _;
        let mut iperm: Vec<u32> = (0..g.nvtxs() as u32).collect();
        iperm.shuffle(&mut Rng::seed_from_u64(1));
        let shuffled = bandwidth(&permute(&g, &iperm));
        assert!(
            shuffled > natural,
            "shuffle should hurt bandwidth: {shuffled} vs {natural}"
        );
    }
}
