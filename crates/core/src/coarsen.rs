//! Graph contraction and the serial coarsening hierarchy.
//!
//! Contraction merges each matched pair into one coarse vertex whose weight
//! vector is the sum of its constituents and whose adjacency merges theirs
//! (parallel coarse edges summed, the internal matched edge dropped). Total
//! vertex weight per constraint is invariant across levels — which is what
//! keeps one balance model meaningful through the whole hierarchy.

use crate::config::PartitionConfig;
use crate::matching::{match_graph, GraphMatching};
use crate::multilevel::{build_levels, enforce, Coarsening, Level};
use mcgp_graph::check as gcheck;
use mcgp_graph::csr::Vertex;
use mcgp_graph::{CheckLevel, Graph};
use mcgp_runtime::phase::{counter_add, Counter};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::{span, Span};

/// One coarsening step of a serial hierarchy.
pub type CoarseLevel = Level<Graph>;

const NONE: u32 = u32::MAX;

/// Reusable contraction scratch: the `pos[coarse_nbr] → adjncy index`
/// marker table. Invariant between calls: every entry is `NONE` (each
/// contraction resets exactly the entries it set), so reuse across levels
/// skips the per-level `O(coarse_nvtxs)` allocation + clear.
#[derive(Debug)]
pub struct ContractionScratch {
    pos: Vec<u32>,
    /// Validation level for the scratch-cleanliness scan. The scan is
    /// `O(coarse_nvtxs)` *per level*, which made debug-profile coarsening
    /// quadratic across a hierarchy — so it only runs at
    /// [`CheckLevel::Full`].
    check: CheckLevel,
}

impl Default for ContractionScratch {
    fn default() -> Self {
        ContractionScratch {
            pos: Vec::new(),
            check: CheckLevel::for_build(),
        }
    }
}

impl ContractionScratch {
    /// An empty scratch; grows on first use.
    pub fn new() -> Self {
        ContractionScratch::default()
    }

    /// An empty scratch validating at `check` (level loops pass the
    /// config's level through so `MCGP_CHECK=full` reaches the scan).
    pub fn with_check(check: CheckLevel) -> Self {
        ContractionScratch {
            pos: Vec::new(),
            check,
        }
    }
}

/// Contracts `graph` along a matching; returns the coarse graph and the
/// fine→coarse map. Allocates fresh scratch — level loops should reuse one
/// [`ContractionScratch`] via [`contract_with_scratch`].
pub fn contract(graph: &Graph, matching: &GraphMatching) -> (Graph, Vec<u32>) {
    contract_with_scratch(graph, matching, &mut ContractionScratch::new())
}

/// [`contract`] with a caller-owned scratch table.
pub fn contract_with_scratch(
    graph: &Graph,
    matching: &GraphMatching,
    scratch: &mut ContractionScratch,
) -> (Graph, Vec<u32>) {
    let n = graph.nvtxs();
    let ncon = graph.ncon();
    let cn = matching.coarse_nvtxs;

    // Assign coarse ids in fine-vertex order; remember constituents.
    const UNSET: u32 = u32::MAX;
    let mut cmap = vec![UNSET; n];
    let mut rep: Vec<(u32, u32)> = Vec::with_capacity(cn);
    for v in 0..n {
        if cmap[v] != UNSET {
            continue;
        }
        let u = matching.mate[v] as usize;
        let c = rep.len() as u32;
        cmap[v] = c;
        cmap[u] = c; // u == v for singletons
        rep.push((v as u32, u as u32));
    }
    debug_assert_eq!(rep.len(), cn);

    let mut xadj = Vec::with_capacity(cn + 1);
    xadj.push(0usize);
    // The summed fine degrees upper-bound the coarse adjacency exactly
    // (contraction only merges or drops edges), so one reservation up
    // front replaces the doubling growth from empty.
    let mut adjncy: Vec<Vertex> = Vec::with_capacity(graph.adjacency_len());
    let mut adjwgt: Vec<i64> = Vec::with_capacity(graph.adjacency_len());
    let mut vwgt = vec![0i64; cn * ncon];
    // pos[coarse_nbr] = index into adjncy for the current coarse vertex.
    if scratch.pos.len() < cn {
        scratch.pos.resize(cn, NONE);
    }
    // O(cn) cleanliness scan per level: Full-only by design.
    if scratch.check >= CheckLevel::Full {
        assert!(
            scratch.pos.iter().all(|&p| p == NONE),
            "invariant contraction_scratch_clean violated: reused scratch has live entries"
        );
    }
    let pos: &mut Vec<u32> = &mut scratch.pos;

    for (c, &(v, u)) in rep.iter().enumerate() {
        let row_start = adjncy.len();
        let mut absorb =
            |fine: usize, adjncy: &mut Vec<Vertex>, adjwgt: &mut Vec<i64>, pos: &mut Vec<u32>| {
                for (nb, w) in graph.edges(fine) {
                    let cu = cmap[nb as usize];
                    if cu as usize == c {
                        continue; // internal (matched) edge disappears
                    }
                    if pos[cu as usize] == NONE {
                        pos[cu as usize] = adjncy.len() as u32;
                        adjncy.push(cu);
                        adjwgt.push(w);
                    } else {
                        adjwgt[pos[cu as usize] as usize] += w;
                    }
                }
                for (i, &w) in graph.vwgt(fine).iter().enumerate() {
                    vwgt[c * ncon + i] += w;
                }
            };
        absorb(v as usize, &mut adjncy, &mut adjwgt, pos);
        if u != v {
            absorb(u as usize, &mut adjncy, &mut adjwgt, pos);
        }
        for &nb in &adjncy[row_start..] {
            pos[nb as usize] = NONE;
        }
        xadj.push(adjncy.len());
    }

    (
        Graph::from_csr_unchecked(ncon, xadj, adjncy, adjwgt, vwgt),
        cmap,
    )
}

/// The coarsening of the [`crate::multilevel`] driver: one RNG stream,
/// the serial matcher and the one contraction kernel. It never reads
/// `nthreads`, so every thread count builds the same levels.
pub(crate) struct Coarsener<'a> {
    config: &'a PartitionConfig,
    rng: &'a mut Rng,
    /// Seam validation level (the contraction scratch keeps its own).
    check: CheckLevel,
    scratch: ContractionScratch,
    /// Shrink each level's graph right after contraction. A cached
    /// snapshot outlives many requests, so it releases the contraction's
    /// up-front adjacency reservation before the next level allocates and
    /// can reuse the space; a one-shot run keeps the reservation.
    trim: bool,
    /// The RNG state after each level, which a snapshot replays from.
    pub(crate) rng_after: Vec<Rng>,
}

impl<'a> Coarsener<'a> {
    /// A coarsener drawing from `rng` that validates its seams at `check`
    /// and, if `trim` is set, shrinks every level it builds.
    pub(crate) fn new(
        config: &'a PartitionConfig,
        rng: &'a mut Rng,
        check: CheckLevel,
        trim: bool,
    ) -> Self {
        Coarsener {
            config,
            rng,
            check,
            scratch: ContractionScratch::with_check(config.check),
            trim,
            rng_after: Vec::new(),
        }
    }
}

impl Coarsening<Graph> for Coarsener<'_> {
    fn check(&self) -> CheckLevel {
        self.check
    }

    fn coarsen_level(&mut self, cur: &Graph, _lvl: usize, sp: &mut Span) -> Option<CoarseLevel> {
        sp.record("nedges", cur.nedges());
        let matching = {
            let _m = span!("matching", nvtxs = cur.nvtxs());
            match_graph(cur, self.config.matching, self.rng)
        };
        // Stall: a level that barely shrinks isn't worth its cost.
        if matching.coarse_nvtxs as f64 > 0.95 * cur.nvtxs() as f64 {
            return None;
        }
        counter_add(
            Counter::VerticesMatched,
            2 * (cur.nvtxs() - matching.coarse_nvtxs) as u64,
        );
        let (mut graph, cmap) = {
            let _c = span!("contract", nvtxs = matching.coarse_nvtxs);
            contract_with_scratch(cur, &matching, &mut self.scratch)
        };
        sp.record("coarse_nedges", graph.nedges());
        if self.trim {
            graph.shrink_to_fit();
        }
        self.rng_after.push(self.rng.clone());
        Some(Level { graph, cmap })
    }

    fn check_level(&self, finer: &Graph, level: &CoarseLevel) {
        // Each contraction must conserve the per-constraint weight totals
        // and produce a structurally valid CSR with an in-range projection.
        enforce(gcheck::check_graph(&level.graph, self.check));
        enforce(gcheck::check_conserved_weights(finer, &level.graph));
        enforce(gcheck::check_projection(
            &level.cmap,
            finer.nvtxs(),
            level.graph.nvtxs(),
        ));
    }
}

/// Coarsens until the graph has at most `target` vertices, contraction
/// stalls (less than 5 % reduction), or a safety cap of levels is hit.
///
/// Returns the levels finest-first (`levels[0]` was contracted from the
/// input; none means the input was already small enough); their number is
/// the paper's "coarsening levels" statistic. This is the serial level
/// loop with no seam checks and no phase span, as recursive bisection runs
/// it inside the initial phase.
pub fn coarsen(
    graph: &Graph,
    target: usize,
    config: &PartitionConfig,
    rng: &mut Rng,
) -> Vec<CoarseLevel> {
    let mut coarsener = Coarsener::new(config, rng, CheckLevel::Off, false);
    build_levels(&mut coarsener, graph, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingScheme;
    use crate::matching::match_graph;
    use mcgp_graph::csr::GraphBuilder;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn contract_merges_pair_and_drops_internal_edge() {
        // Path 0-1-2; match (0,1).
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 5).weighted_edge(1, 2, 3);
        let g = b.build().unwrap();
        let m = GraphMatching {
            mate: vec![1, 0, 2],
            coarse_nvtxs: 2,
        };
        let (cg, cmap) = contract(&g, &m);
        assert_eq!(cg.nvtxs(), 2);
        assert_eq!(cg.nedges(), 1);
        assert_eq!(cmap, vec![0, 0, 1]);
        assert_eq!(cg.vwgt(0), &[2]);
        assert_eq!(cg.edge_weights(0), &[3]);
    }

    #[test]
    fn contract_sums_parallel_coarse_edges() {
        // Square 0-1-2-3-0, match (0,1) and (2,3): the two coarse vertices
        // are joined by edges (1,2) and (3,0), which must merge.
        let mut b = GraphBuilder::new(4);
        b.weighted_edge(0, 1, 1)
            .weighted_edge(1, 2, 2)
            .weighted_edge(2, 3, 1)
            .weighted_edge(3, 0, 4);
        let g = b.build().unwrap();
        let m = GraphMatching {
            mate: vec![1, 0, 3, 2],
            coarse_nvtxs: 2,
        };
        let (cg, _) = contract(&g, &m);
        assert_eq!(cg.nvtxs(), 2);
        assert_eq!(cg.nedges(), 1);
        assert_eq!(cg.edge_weights(0), &[6]);
        cg.validate().unwrap();
    }

    #[test]
    fn contraction_preserves_total_vertex_weight() {
        let g = synthetic::type1(&grid_2d(16, 16), 4, 3);
        let m = match_graph(&g, MatchingScheme::BalancedHeavyEdge, &mut rng(1));
        let (cg, _) = contract(&g, &m);
        assert_eq!(cg.total_vwgt(), g.total_vwgt());
        cg.validate().unwrap();
    }

    #[test]
    fn contraction_conserves_edge_weight_split() {
        // exposed(coarse) + internal(matched edges) == exposed(fine).
        let g = mrng_like(1500, 4);
        let m = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng(2));
        let (cg, _) = contract(&g, &m);
        let internal: i64 = (0..g.nvtxs())
            .map(|v| {
                let u = m.mate[v] as usize;
                if u > v {
                    g.edges(v)
                        .find(|&(nb, _)| nb as usize == u)
                        .map_or(0, |(_, w)| w)
                } else {
                    0
                }
            })
            .sum();
        assert_eq!(cg.total_adjwgt() + internal, g.total_adjwgt());
    }

    #[test]
    fn cmap_is_surjective_and_in_range() {
        let g = grid_2d(12, 12);
        let m = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng(3));
        let (cg, cmap) = contract(&g, &m);
        let mut seen = vec![false; cg.nvtxs()];
        for &c in &cmap {
            seen[c as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = mrng_like(4000, 5);
        let cfg = PartitionConfig::default();
        let h = coarsen(&g, 200, &cfg, &mut rng(4));
        let coarsest = &h.last().unwrap().graph;
        assert!(coarsest.nvtxs() <= 200 || !h.is_empty());
        assert!(coarsest.nvtxs() < g.nvtxs() / 4, "too little contraction");
        // Monotone shrinkage.
        let mut prev = g.nvtxs();
        for level in &h {
            assert!(level.graph.nvtxs() < prev);
            prev = level.graph.nvtxs();
        }
    }

    #[test]
    fn hierarchy_preserves_weights_at_every_level() {
        let g = synthetic::type2(&grid_2d(24, 24), 3, 9);
        let cfg = PartitionConfig::default();
        let h = coarsen(&g, 50, &cfg, &mut rng(5));
        for level in &h {
            assert_eq!(level.graph.total_vwgt(), g.total_vwgt());
        }
    }

    #[test]
    fn project_roundtrips_partition() {
        let g = grid_2d(10, 10);
        let cfg = PartitionConfig::default();
        let h = coarsen(&g, 20, &cfg, &mut rng(6));
        assert!(!h.is_empty());
        let coarsest = &h.last().unwrap().graph;
        // Alternate parts on the coarsest graph, project to the finest.
        let mut assignment: Vec<u32> = (0..coarsest.nvtxs() as u32).map(|v| v % 2).collect();
        for level in h.iter().rev() {
            assignment = level.project(&assignment);
        }
        assert_eq!(assignment.len(), g.nvtxs());
        // Matched fine vertices inherited the same part as their mates: the
        // projection is exactly cmap-composition, so spot-check level 0.
        let l0 = &h[0];
        let coarse0: Vec<u32> = {
            let mut a: Vec<u32> = (0..coarsest.nvtxs() as u32).map(|v| v % 2).collect();
            for level in h[1..].iter().rev() {
                a = level.project(&a);
            }
            a
        };
        for v in 0..g.nvtxs() {
            assert_eq!(assignment[v], coarse0[l0.cmap[v] as usize]);
        }
    }

    #[test]
    fn trivial_graph_produces_empty_hierarchy() {
        let g = grid_2d(3, 3);
        let cfg = PartitionConfig::default();
        let h = coarsen(&g, 100, &cfg, &mut rng(7));
        assert!(h.is_empty());
    }
}
