//! Graph contraction and the coarsening hierarchy.
//!
//! Contraction merges each matched pair into one coarse vertex whose weight
//! vector is the sum of its constituents and whose adjacency merges theirs
//! (parallel coarse edges summed, the internal matched edge dropped). Total
//! vertex weight per constraint is invariant across levels — which is what
//! keeps one balance model meaningful through the whole hierarchy.

use crate::coarsen_smp::{match_smp, SMP_MIN_NVTXS};
use crate::config::PartitionConfig;
use crate::matching::{match_graph, GraphMatching};
use mcgp_graph::csr::Vertex;
use mcgp_graph::{CheckLevel, Graph};
use mcgp_runtime::phase::{counter_add, Counter};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::span;

/// One coarsening step: the coarse graph and the fine→coarse vertex map.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The contracted graph.
    pub graph: Graph,
    /// `cmap[fine_vertex] = coarse_vertex` for the *finer* graph of this
    /// level.
    pub cmap: Vec<u32>,
}

/// The full coarsening hierarchy above an input graph.
///
/// `levels[0]` was contracted from the input, `levels[i]` from
/// `levels[i-1]`. An empty hierarchy means the input was already small
/// enough.
#[derive(Clone, Debug)]
pub struct CoarsenHierarchy {
    levels: Vec<CoarseLevel>,
}

impl CoarsenHierarchy {
    /// Number of coarsening levels (0 = no contraction performed).
    pub fn nlevels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest-first.
    pub fn levels(&self) -> &[CoarseLevel] {
        &self.levels
    }

    /// The coarsest graph, or `None` if no contraction happened.
    pub fn coarsest(&self) -> Option<&Graph> {
        self.levels.last().map(|l| &l.graph)
    }

    /// Projects a partition of the coarse graph of `level` onto that level's
    /// finer graph.
    pub fn project(&self, level: usize, coarse_assignment: &[u32]) -> Vec<u32> {
        let cmap = &self.levels[level].cmap;
        cmap.iter()
            .map(|&c| coarse_assignment[c as usize])
            .collect()
    }
}

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

/// Coarsens until the graph has at most `target` vertices, contraction
/// stalls (less than 5 % reduction), or a safety cap of levels is hit.
///
/// Returns the hierarchy; the number of levels is the paper's "coarsening
/// levels" statistic (the parallel matching's under-matching shows up here).
pub fn coarsen(
    graph: &Graph,
    target: usize,
    config: &PartitionConfig,
    rng: &mut Rng,
) -> CoarsenHierarchy {
    let mut coarsener = Coarsener::new(target, config);
    let mut levels: Vec<CoarseLevel> = Vec::new();
    while let Some(level) =
        coarsener.next_level(levels.last().map_or(graph, |l| &l.graph), levels.len(), rng)
    {
        levels.push(level);
    }
    CoarsenHierarchy { levels }
}

/// The coarsening loop, one level per call: [`coarsen`] runs it to the end,
/// and [`crate::hierarchy::HierarchySnapshot::build`] runs it recording the
/// RNG state before every call.
///
/// A shallower coarsening of the same graph with target `T` stops before
/// matching the first level whose input already has `≤ T` vertices — so
/// its exit RNG state is exactly the state recorded before that level, and
/// its levels are a prefix of a deeper run's. That prefix property is what
/// lets one deep snapshot serve every `(nparts, ε)` combination
/// bit-identically.
pub(crate) struct Coarsener<'a> {
    target: usize,
    config: &'a PartitionConfig,
    scratch: ContractionScratch,
}

impl<'a> Coarsener<'a> {
    pub(crate) fn new(target: usize, config: &'a PartitionConfig) -> Self {
        Coarsener {
            target,
            config,
            scratch: ContractionScratch::with_check(config.check),
        }
    }

    /// Contracts `cur`, the input graph of level `lvl`. Returns `None` when
    /// the loop stops instead: `cur` is at or below the target, the level
    /// cap is hit, or the matching stalls (less than 5 % reduction) — the
    /// last after consuming the matching's RNG draws.
    pub(crate) fn next_level(
        &mut self,
        cur: &Graph,
        lvl: usize,
        rng: &mut Rng,
    ) -> Option<CoarseLevel> {
        const MAX_LEVELS: usize = 64;
        let config = self.config;
        if cur.nvtxs() <= self.target || lvl >= MAX_LEVELS {
            return None;
        }
        // Shared-memory matching above the size floor; small levels drop
        // to the serial matcher (the constant floor keeps `(seed, nthreads)`
        // determinism independent of the machine). Contraction is the one
        // serial kernel either way.
        let use_smp = config.nthreads > 1 && cur.nvtxs() >= SMP_MIN_NVTXS;
        let mut sp = span!(
            "coarsen_level",
            level = lvl,
            nvtxs = cur.nvtxs(),
            nedges = cur.nedges(),
            smp_threads = if use_smp { config.nthreads } else { 1 },
        );
        let matching = if use_smp {
            // One RNG draw per level keeps the serial stream advancing
            // identically whether or not a level aborts afterwards.
            match_smp(cur, config.matching, config.nthreads, rng.next_u64())
        } else {
            match_graph(cur, config.matching, rng)
        };
        // Stall: a level that barely shrinks isn't worth its cost.
        if matching.coarse_nvtxs as f64 > 0.95 * cur.nvtxs() as f64 {
            counter_add(Counter::ContractionAborts, 1);
            sp.record("aborted", 1u64);
            return None;
        }
        counter_add(
            Counter::VerticesMatched,
            2 * (cur.nvtxs() - matching.coarse_nvtxs) as u64,
        );
        let (coarse, cmap) = contract_with_scratch(cur, &matching, &mut self.scratch);
        sp.record("coarse_nvtxs", coarse.nvtxs());
        sp.record("coarse_nedges", coarse.nedges());
        sp.record("ratio", coarse.nvtxs() as f64 / cur.nvtxs() as f64);
        Some(CoarseLevel {
            graph: coarse,
            cmap,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatchingScheme;
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
        let coarsest = h.coarsest().unwrap();
        assert!(coarsest.nvtxs() <= 200 || h.nlevels() > 0);
        assert!(coarsest.nvtxs() < g.nvtxs() / 4, "too little contraction");
        // Monotone shrinkage.
        let mut prev = g.nvtxs();
        for level in h.levels() {
            assert!(level.graph.nvtxs() < prev);
            prev = level.graph.nvtxs();
        }
    }

    #[test]
    fn hierarchy_preserves_weights_at_every_level() {
        let g = synthetic::type2(&grid_2d(24, 24), 3, 9);
        let cfg = PartitionConfig::default();
        let h = coarsen(&g, 50, &cfg, &mut rng(5));
        for level in h.levels() {
            assert_eq!(level.graph.total_vwgt(), g.total_vwgt());
        }
    }

    #[test]
    fn project_roundtrips_partition() {
        let g = grid_2d(10, 10);
        let cfg = PartitionConfig::default();
        let h = coarsen(&g, 20, &cfg, &mut rng(6));
        assert!(h.nlevels() >= 1);
        let coarsest = h.coarsest().unwrap();
        // Alternate parts on the coarsest graph, project to the finest.
        let mut assignment: Vec<u32> = (0..coarsest.nvtxs() as u32).map(|v| v % 2).collect();
        for level in (0..h.nlevels()).rev() {
            assignment = h.project(level, &assignment);
        }
        assert_eq!(assignment.len(), g.nvtxs());
        // Matched fine vertices inherited the same part as their mates: the
        // projection is exactly cmap-composition, so spot-check level 0.
        let l0 = &h.levels()[0];
        let coarse0: Vec<u32> = {
            let mut a: Vec<u32> = (0..coarsest.nvtxs() as u32).map(|v| v % 2).collect();
            for level in (1..h.nlevels()).rev() {
                a = h.project(level, &a);
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
        assert_eq!(h.nlevels(), 0);
        assert!(h.coarsest().is_none());
    }
}
