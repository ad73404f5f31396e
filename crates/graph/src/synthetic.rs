//! Multi-constraint workload synthesis — the paper's two test-problem
//! families (Section 3).
//!
//! * **Type 1** ("relatively hard problems"): compute 16 contiguous regions
//!   of the mesh and give *every vertex of a region the same weight vector*,
//!   drawn uniformly from `{0..19}^m`. Random per-vertex weights would
//!   degenerate to single-constraint balancing (the sums of any equal-sized
//!   vertex sets converge); region-constant vectors avoid that and model
//!   contiguous active regions of real multi-phase meshes.
//!
//! * **Type 2** (multi-phase computations): compute 32 contiguous regions;
//!   phase `i` is active on a random subset of regions covering a prescribed
//!   fraction of the mesh (100 %, 75 %, 50 %, 50 %, 25 % for a five-phase
//!   problem). A vertex's weight vector is its phase-activity indicator, and
//!   each edge's weight is the number of phases in which **both** endpoints
//!   are active — the paper's model of per-phase information exchange.
//!
//! The paper computes its regions with a 16/32-way partition; we grow them
//! with multi-seed BFS ([`crate::connectivity::bfs_regions`]), which provides
//! the property the synthesis actually relies on — contiguous regions of
//! roughly even size — without a circular dependency on the partitioner.
//! Callers that want paper-exact setup can pass a real partition as
//! `regions`.

use crate::connectivity::bfs_regions;
use crate::csr::Graph;
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;

/// Number of regions used by Type-1 synthesis in the paper.
pub const TYPE1_REGIONS: usize = 16;
/// Number of regions used by Type-2 synthesis in the paper.
pub const TYPE2_REGIONS: usize = 32;

/// The problem family, as labelled in Figures 3–5 (`m cons t`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProblemType {
    /// Region-constant random weight vectors.
    Type1,
    /// Overlapping phase-activity weights with co-activity edge weights.
    Type2,
}

impl std::fmt::Display for ProblemType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemType::Type1 => write!(f, "1"),
            ProblemType::Type2 => write!(f, "2"),
        }
    }
}

/// Attaches Type-1 weights using explicit region labels.
///
/// Every vertex in region `r` receives the same vector of `ncon` uniform
/// draws from `0..=19`. Edge weights are left unchanged.
pub fn type1_with_regions(graph: &Graph, ncon: usize, regions: &[u32], seed: u64) -> Graph {
    assert_eq!(graph.nvtxs(), regions.len(), "regions/graph size mismatch");
    assert!(ncon >= 1);
    let nregions = regions.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut rng = Rng::seed_from_u64(seed);
    let mut region_vec = vec![0i64; nregions * ncon];
    for w in region_vec.iter_mut() {
        *w = rng.gen_range(0..20);
    }
    let mut vwgt = Vec::with_capacity(graph.nvtxs() * ncon);
    for &r in regions {
        let r = r as usize;
        vwgt.extend_from_slice(&region_vec[r * ncon..(r + 1) * ncon]);
    }
    graph
        .clone()
        .with_vwgt(ncon, vwgt)
        .expect("type1 weight array sized by construction")
}

/// Type-1 synthesis with regions grown internally (16 BFS regions, as in the
/// paper's setup).
///
/// ```
/// use mcgp_graph::{generators::grid_2d, synthetic};
/// let workload = synthetic::type1(&grid_2d(10, 10), 3, 42);
/// assert_eq!(workload.ncon(), 3);
/// assert!(workload.vwgt(0).iter().all(|&w| (0..20).contains(&w)));
/// ```
pub fn type1(graph: &Graph, ncon: usize, seed: u64) -> Graph {
    let regions = bfs_regions(graph, TYPE1_REGIONS, seed ^ 0x5eed_0001);
    type1_with_regions(graph, ncon, &regions, seed)
}

/// The paper's active-fraction schedule for an `ncon`-phase Type-2 problem:
/// `100 %, 75 %, 50 %, 50 %, 25 %` truncated to `ncon` entries.
pub fn active_fractions(ncon: usize) -> Vec<f64> {
    const SCHEDULE: [f64; 5] = [1.0, 0.75, 0.5, 0.5, 0.25];
    assert!(
        (1..=SCHEDULE.len()).contains(&ncon),
        "paper defines 1..=5 phases"
    );
    SCHEDULE[..ncon].to_vec()
}

/// Attaches Type-2 weights using explicit region labels.
///
/// For each phase, a random subset of regions covering the scheduled
/// fraction is marked active. Vertex weights are 0/1 activity indicators and
/// edge weights are overwritten with co-activity counts.
pub fn type2_with_regions(graph: &Graph, ncon: usize, regions: &[u32], seed: u64) -> Graph {
    assert_eq!(graph.nvtxs(), regions.len(), "regions/graph size mismatch");
    let fractions = active_fractions(ncon);
    let nregions = regions.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut rng = Rng::seed_from_u64(seed);

    // active[phase][region]
    let mut active = vec![vec![false; nregions]; ncon];
    let mut region_ids: Vec<usize> = (0..nregions).collect();
    for (phase, frac) in fractions.iter().enumerate() {
        let count = ((nregions as f64) * frac).round() as usize;
        region_ids.shuffle(&mut rng);
        for &r in region_ids.iter().take(count.min(nregions)) {
            active[phase][r] = true;
        }
    }

    let mut vwgt = Vec::with_capacity(graph.nvtxs() * ncon);
    for &r in regions {
        let r = r as usize;
        for phase_active in active.iter().take(ncon) {
            vwgt.push(if phase_active[r] { 1 } else { 0 });
        }
    }

    // Edge weight = number of phases in which both endpoints are active.
    let nv = graph.nvtxs();
    let mut adjwgt = Vec::with_capacity(graph.adjacency_len());
    for v in 0..nv {
        let rv = regions[v] as usize;
        for &u in graph.neighbors(v) {
            let ru = regions[u as usize] as usize;
            let co = (0..ncon)
                .filter(|&p| active[p][rv] && active[p][ru])
                .count();
            adjwgt.push(co as i64);
        }
    }

    graph
        .clone()
        .with_vwgt(ncon, vwgt)
        .expect("type2 weight array sized by construction")
        .with_adjwgt(adjwgt)
        .expect("type2 edge weights are symmetric by construction")
}

/// Type-2 synthesis with regions grown internally (32 BFS regions, as in the
/// paper's setup).
pub fn type2(graph: &Graph, ncon: usize, seed: u64) -> Graph {
    let regions = bfs_regions(graph, TYPE2_REGIONS, seed ^ 0x5eed_0002);
    type2_with_regions(graph, ncon, &regions, seed)
}

/// Dispatches on [`ProblemType`].
pub fn synthesize(graph: &Graph, problem: ProblemType, ncon: usize, seed: u64) -> Graph {
    match problem {
        ProblemType::Type1 => type1(graph, ncon, seed),
        ProblemType::Type2 => type2(graph, ncon, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::grid_2d;

    #[test]
    fn type1_vertices_in_same_region_share_vectors() {
        let g = grid_2d(12, 12);
        let regions = bfs_regions(&g, 16, 3);
        let wg = type1_with_regions(&g, 3, &regions, 3);
        assert_eq!(wg.ncon(), 3);
        for v in 0..wg.nvtxs() {
            for u in 0..wg.nvtxs() {
                if regions[v] == regions[u] {
                    assert_eq!(wg.vwgt(v), wg.vwgt(u));
                }
            }
        }
    }

    #[test]
    fn type1_weights_in_paper_range() {
        let g = grid_2d(10, 10);
        let wg = type1(&g, 5, 1);
        for v in 0..wg.nvtxs() {
            for &w in wg.vwgt(v) {
                assert!((0..20).contains(&w));
            }
        }
    }

    #[test]
    fn type1_regions_get_distinct_vectors() {
        // With 16 regions of 5 draws from 0..20 each, collisions across all
        // regions are overwhelmingly unlikely.
        let g = grid_2d(20, 20);
        let regions = bfs_regions(&g, 16, 5);
        let wg = type1_with_regions(&g, 5, &regions, 5);
        let mut seen = std::collections::BTreeSet::new();
        for v in 0..wg.nvtxs() {
            seen.insert(wg.vwgt(v).to_vec());
        }
        assert!(seen.len() > 8, "only {} distinct vectors", seen.len());
    }

    #[test]
    fn active_fractions_match_paper_schedule() {
        assert_eq!(active_fractions(2), vec![1.0, 0.75]);
        assert_eq!(active_fractions(3), vec![1.0, 0.75, 0.5]);
        assert_eq!(active_fractions(4), vec![1.0, 0.75, 0.5, 0.5]);
        assert_eq!(active_fractions(5), vec![1.0, 0.75, 0.5, 0.5, 0.25]);
    }

    #[test]
    #[should_panic(expected = "paper defines")]
    fn active_fractions_rejects_six_phases() {
        active_fractions(6);
    }

    #[test]
    fn type2_first_phase_fully_active() {
        let g = grid_2d(16, 16);
        let wg = type2(&g, 4, 9);
        for v in 0..wg.nvtxs() {
            assert_eq!(wg.vwgt(v)[0], 1, "phase 1 must be 100% active");
        }
    }

    #[test]
    fn type2_weights_are_binary_and_fractions_roughly_hold() {
        let g = grid_2d(24, 24);
        let ncon = 5;
        let wg = type2(&g, ncon, 11);
        let n = wg.nvtxs() as f64;
        let fractions = active_fractions(ncon);
        for (phase, &scheduled) in fractions.iter().enumerate() {
            let mut active = 0.0;
            for v in 0..wg.nvtxs() {
                let w = wg.vwgt(v)[phase];
                assert!(w == 0 || w == 1);
                active += w as f64;
            }
            let frac = active / n;
            // Regions are only roughly equal-sized, so allow generous slack.
            assert!(
                (frac - scheduled).abs() < 0.25,
                "phase {phase}: active fraction {frac} vs scheduled {scheduled}"
            );
        }
    }

    #[test]
    fn type2_edge_weight_counts_coactive_phases() {
        let g = grid_2d(16, 16);
        let regions = bfs_regions(&g, 32, 2);
        let ncon = 3;
        let wg = type2_with_regions(&g, ncon, &regions, 2);
        for v in 0..wg.nvtxs() {
            for (idx, (u, w)) in wg.edges(v).enumerate() {
                let expect = (0..ncon)
                    .filter(|&p| wg.vwgt(v)[p] == 1 && wg.vwgt(u as usize)[p] == 1)
                    .count() as i64;
                assert_eq!(w, expect, "edge {idx} of vertex {v}");
            }
        }
    }

    #[test]
    fn type2_every_edge_has_positive_weight() {
        // Phase 1 is always 100% active, so co-activity is at least 1.
        let g = grid_2d(12, 12);
        let wg = type2(&g, 5, 4);
        for v in 0..wg.nvtxs() {
            for (_, w) in wg.edges(v) {
                assert!(w >= 1);
            }
        }
    }

    #[test]
    fn synthesize_dispatches() {
        let g = grid_2d(8, 8);
        let t1 = synthesize(&g, ProblemType::Type1, 2, 1);
        let t2 = synthesize(&g, ProblemType::Type2, 2, 1);
        assert_eq!(t1.ncon(), 2);
        assert_eq!(t2.ncon(), 2);
        // Type-2 weights are binary; Type-1 almost surely not all-binary.
        assert!(t2.vwgt_flat().iter().all(|&w| w == 0 || w == 1));
    }

    #[test]
    fn synthesis_is_deterministic() {
        let g = grid_2d(10, 10);
        assert_eq!(type1(&g, 3, 5), type1(&g, 3, 5));
        assert_eq!(type2(&g, 3, 5), type2(&g, 3, 5));
        assert_ne!(type1(&g, 3, 5), type1(&g, 3, 6));
    }
}
