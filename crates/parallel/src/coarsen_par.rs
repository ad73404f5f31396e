//! Distributed graph contraction.
//!
//! Each matched pair collapses into a coarse vertex owned by the processor
//! that owns the pair's lower global id (singletons stay put). Coarse ids
//! are assigned contiguously per processor, so the coarse graph is again a
//! valid block distribution — with *uneven* blocks, exactly as in ParMETIS,
//! where coarsening gradually unbalances ownership until the coarsest graph
//! is gathered anyway.
//!
//! Communication accounted per level: the fine→coarse map of each
//! processor's halo, plus shipping the adjacency of remote constituents of
//! cross-processor pairs to the coarse owner.

use crate::cost::CostTracker;
use crate::dist::{DistGraph, LocalGraph};
use crate::match_par::ParallelMatching;
use mcgp_core::multilevel::Level;
use mcgp_graph::csr::Vertex;

/// One coarsening level of the distributed hierarchy.
pub type DistLevel = Level<DistGraph>;

/// Contracts a distributed graph along a parallel matching.
pub fn parallel_contract(
    dist: &DistGraph,
    matching: &ParallelMatching,
    tracker: &mut CostTracker,
) -> DistLevel {
    let n = dist.nvtxs();
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let mate = &matching.mate;

    // --- Coarse ownership and ids ------------------------------------------
    // Representative of a pair = lower gid; coarse vertex owned by its
    // representative's owner. Count per-proc coarse vertices (one allreduce
    // of p counts), then assign contiguous ids.
    let mut counts = vec![0usize; p];
    for v in 0..n {
        let u = mate[v] as usize;
        if u >= v {
            counts[dist.owner(v)] += 1;
        }
    }
    let mut coarse_vtxdist = Vec::with_capacity(p + 1);
    coarse_vtxdist.push(0usize);
    for q in 0..p {
        coarse_vtxdist.push(coarse_vtxdist[q] + counts[q]);
    }
    let cn = coarse_vtxdist[p];

    // cmap assignment in representative order per owner.
    const UNSET: u32 = u32::MAX;
    let mut cmap = vec![UNSET; n];
    // reps[coarse_id] = (rep, mate) — global ids.
    let mut reps: Vec<(u32, u32)> = vec![(0, 0); cn];
    let mut next = coarse_vtxdist[..p].to_vec();
    for v in 0..n {
        let u = mate[v] as usize;
        if u >= v {
            let q = dist.owner(v);
            let c = next[q];
            next[q] += 1;
            cmap[v] = c as u32;
            cmap[u] = c as u32;
            reps[c] = (v as u32, u as u32);
        }
    }
    debug_assert!(cmap.iter().all(|&c| c != UNSET));

    // Account the id-assignment scan plus the cmap halo exchange: every
    // processor needs the coarse id of each fine vertex in its halo, and the
    // adjacency of remote constituents must be shipped to the coarse owner.
    {
        let mut comp = vec![0u64; p];
        let mut bytes = vec![0u64; p];
        for q in 0..p {
            comp[q] = dist.local(q).nlocal() as u64;
            bytes[q] += (dist.halo_size(q) * 4) as u64; // cmap entries
        }
        for &(v, u) in &reps {
            let (v, u) = (v as usize, u as usize);
            if u != v {
                let qo = dist.owner(v);
                let qm = dist.owner(u);
                if qo != qm {
                    // The mate's row travels: (gid, weight) per edge plus
                    // the vertex weight vector.
                    let lg = dist.local(qm);
                    let deg = lg.neighbors(u - lg.first).len();
                    let row_bytes = (deg * 12 + ncon * 8) as u64;
                    bytes[qo] += row_bytes;
                    bytes[qm] += row_bytes;
                }
            }
        }
        tracker.superstep(&comp, &bytes);
    }

    // --- Build coarse local blocks ------------------------------------------
    let mut comp = vec![0u64; p];
    let mut procs: Vec<LocalGraph> = Vec::with_capacity(p);
    // Scratch: position of each coarse neighbour in the current row.
    const NONE: u32 = u32::MAX;
    let mut pos: Vec<u32> = vec![NONE; cn];
    for q in 0..p {
        let c_first = coarse_vtxdist[q];
        let c_last = coarse_vtxdist[q + 1];
        let nlocal = c_last - c_first;
        let mut xadj = Vec::with_capacity(nlocal + 1);
        xadj.push(0usize);
        let mut adjncy: Vec<Vertex> = Vec::new();
        let mut adjwgt: Vec<i64> = Vec::new();
        let mut vwgt = vec![0i64; nlocal * ncon];
        for (lc, &(v, u)) in reps[c_first..c_last].iter().enumerate() {
            let c = c_first + lc;
            let row_start = adjncy.len();
            let mut absorb = |fine: usize,
                              adjncy: &mut Vec<Vertex>,
                              adjwgt: &mut Vec<i64>,
                              pos: &mut Vec<u32>,
                              vwgt: &mut Vec<i64>| {
                let owner = dist.owner(fine);
                let lg = dist.local(owner);
                let lv = fine - lg.first;
                comp[q] += lg.neighbors(lv).len() as u64 * ((2 + ncon as u64) / 2) + ncon as u64;
                for (nb, w) in lg.edges(lv) {
                    let cu = cmap[nb as usize];
                    if cu as usize == c {
                        continue;
                    }
                    if pos[cu as usize] == NONE {
                        pos[cu as usize] = adjncy.len() as u32;
                        adjncy.push(cu);
                        adjwgt.push(w);
                    } else {
                        adjwgt[pos[cu as usize] as usize] += w;
                    }
                }
                for (i, &w) in lg.vwgt(lv).iter().enumerate() {
                    vwgt[lc * ncon + i] += w;
                }
            };
            absorb(v as usize, &mut adjncy, &mut adjwgt, &mut pos, &mut vwgt);
            if u != v {
                absorb(u as usize, &mut adjncy, &mut adjwgt, &mut pos, &mut vwgt);
            }
            for &nb in &adjncy[row_start..] {
                pos[nb as usize] = NONE;
            }
            xadj.push(adjncy.len());
        }
        procs.push(LocalGraph {
            first: c_first,
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            ncon,
        });
    }
    tracker.superstep(&comp, &vec![0u64; p]);

    DistLevel {
        graph: DistGraph::from_parts(ncon, coarse_vtxdist, procs),
        cmap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_par::parallel_match;
    use mcgp_core::config::MatchingScheme;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    fn contract_once(gsrc: &mcgp_graph::Graph, p: usize, seed: u64) -> (DistGraph, DistLevel) {
        let d = DistGraph::distribute(gsrc, p);
        let mut t = CostTracker::new();
        let m = parallel_match(&d, MatchingScheme::BalancedHeavyEdge, 4, seed, &mut t);
        let lvl = parallel_contract(&d, &m, &mut t);
        (d, lvl)
    }

    #[test]
    fn coarse_graph_is_valid_and_smaller() {
        let g = synthetic::type1(&mrng_like(1200, 1), 2, 1);
        let (_, lvl) = contract_once(&g, 4, 5);
        let cg = lvl.graph.gather();
        cg.validate().unwrap();
        assert!(cg.nvtxs() < g.nvtxs());
        assert!(cg.nvtxs() >= g.nvtxs() / 2);
    }

    #[test]
    fn contraction_preserves_total_vertex_weight() {
        let g = synthetic::type2(&grid_2d(16, 16), 3, 2);
        let (d, lvl) = contract_once(&g, 4, 7);
        assert_eq!(lvl.graph.total_vwgt(), d.total_vwgt());
    }

    #[test]
    fn matches_serial_contraction_on_same_matching() {
        // Feed the parallel matcher's matching into the *serial* contractor
        // and compare gathered results structurally.
        let g = mrng_like(900, 3);
        let d = DistGraph::distribute(&g, 3);
        let mut t = CostTracker::new();
        let m = parallel_match(&d, MatchingScheme::HeavyEdge, 4, 9, &mut t);
        let lvl = parallel_contract(&d, &m, &mut t);
        let serial_matching = mcgp_core::matching::GraphMatching {
            mate: m.mate.clone(),
            coarse_nvtxs: m.coarse_nvtxs,
        };
        let (sg, _) = mcgp_core::coarsen::contract(&g, &serial_matching);
        let pg = lvl.graph.gather();
        // Same vertex count and identical totals; ids may be permuted, so
        // compare invariants rather than arrays.
        assert_eq!(pg.nvtxs(), sg.nvtxs());
        assert_eq!(pg.nedges(), sg.nedges());
        assert_eq!(pg.total_vwgt(), sg.total_vwgt());
        assert_eq!(pg.total_adjwgt(), sg.total_adjwgt());
    }

    #[test]
    fn cmap_is_surjective_onto_coarse_ids() {
        let g = grid_2d(20, 20);
        let (_, lvl) = contract_once(&g, 5, 11);
        let cn = lvl.graph.nvtxs();
        let mut seen = vec![false; cn];
        for &c in &lvl.cmap {
            seen[c as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn coarse_blocks_follow_representative_ownership() {
        let g = grid_2d(12, 12);
        let d = DistGraph::distribute(&g, 3);
        let mut t = CostTracker::new();
        let m = parallel_match(&d, MatchingScheme::HeavyEdge, 4, 13, &mut t);
        let lvl = parallel_contract(&d, &m, &mut t);
        // Every fine vertex that is its pair's representative must map to a
        // coarse id owned by its own owner.
        for v in 0..g.nvtxs() {
            let u = m.mate[v] as usize;
            if u >= v {
                let c = lvl.cmap[v] as usize;
                assert_eq!(lvl.graph.owner(c), d.owner(v), "vertex {v}");
            }
        }
    }
}
