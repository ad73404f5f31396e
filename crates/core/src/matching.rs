//! Coarsening-phase matchings.
//!
//! Heavy-edge matching collapses the heaviest incident edges first, removing
//! as much *exposed edge weight* per level as possible. The multi-constraint
//! twist from SC'98 is the **balanced-edge tie-break**: among (near-)equally
//! heavy candidate edges, prefer the partner whose combined weight vector is
//! flattest across the constraints, so coarse vertices stay easy to balance.
//!
//! [`match_graph`] is the one shared-memory matcher: the coarsening of every
//! thread count runs it. The distributed request/grant protocol of the BSP
//! partitioner (`mcgp-parallel::match_par`) reuses this module's
//! [`combined_spread`] and [`grant_beats`].

use crate::config::MatchingScheme;
use mcgp_graph::Graph;
use mcgp_runtime::prefetch;
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;

/// A matching over a graph: `mate[v] == v` for unmatched vertices, otherwise
/// `mate[mate[v]] == v`.
#[derive(Clone, Debug)]
pub struct GraphMatching {
    /// Partner of each vertex (itself if unmatched).
    pub mate: Vec<u32>,
    /// Number of coarse vertices the matching induces
    /// (`nvtxs - matched_pairs`).
    pub coarse_nvtxs: usize,
}

/// How many visits ahead [`match_graph`] prefetches a vertex's `xadj`
/// entry, `matched` flag and weight row.
const MATCH_FAR: usize = 24;
/// How many visits ahead [`match_graph`] prefetches the start of a vertex's
/// adjacency and edge-weight rows (its `xadj` entry, fetched at
/// [`MATCH_FAR`], is in cache by then).
const MATCH_NEAR: usize = 12;

/// Computes a matching with the given scheme. Deterministic per RNG state.
///
/// One greedy pass over a random vertex order: every still-unmatched
/// visited vertex picks its best unmatched neighbour under `scheme` and the
/// pair commits immediately. Visited vertices that find no partner become
/// singletons. The order is drawn before the first visit, so the loop
/// prefetches the rows of the vertices it will visit next; a prefetch
/// changes no value, so the matching is the same as without it.
pub fn match_graph(graph: &Graph, scheme: MatchingScheme, rng: &mut Rng) -> GraphMatching {
    let n = graph.nvtxs();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let inv_tot = inv_totals(graph);
    let (xadj, ncon) = (graph.xadj(), graph.ncon());
    let mut pairs = 0usize;
    for i in 0..n {
        if let Some(&w) = order.get(i + MATCH_FAR) {
            let w = w as usize;
            prefetch::read(xadj, w);
            prefetch::read(&matched, w);
            prefetch::read(graph.vwgt_flat(), w * ncon);
        }
        if let Some(&w) = order.get(i + MATCH_NEAR) {
            let start = xadj[w as usize];
            prefetch::read(graph.adjncy(), start);
            prefetch::read(graph.adjwgt(), start);
        }
        let v = order[i] as usize;
        if matched[v] {
            continue;
        }
        let partner = match scheme {
            MatchingScheme::Random => {
                // First unmatched neighbour in (randomised) adjacency scan.
                pick_random(graph, v, &matched, rng)
            }
            MatchingScheme::HeavyEdge => pick_heavy(graph, v, &matched),
            MatchingScheme::BalancedHeavyEdge => pick_balanced_heavy(graph, v, &matched, &inv_tot),
        };
        if let Some(u) = partner {
            mate[v] = u as u32;
            mate[u] = v as u32;
            matched[v] = true;
            matched[u] = true;
            pairs += 1;
        } else {
            matched[v] = true; // stays a singleton
        }
    }
    GraphMatching {
        mate,
        coarse_nvtxs: n - pairs,
    }
}

/// Per-constraint reciprocal weight totals — the normalisation the
/// balanced-edge tie-break needs before weight spreads are comparable
/// across constraints (zero-total constraints contribute nothing).
fn inv_totals(graph: &Graph) -> Vec<f64> {
    graph
        .total_vwgt()
        .iter()
        .map(|&t| if t > 0 { 1.0 / t as f64 } else { 0.0 })
        .collect()
}

/// Spread (`max_i − min_i`) of the combined normalised weight vector of two
/// prospective mates — the SC'98 balanced-edge objective: smaller is
/// flatter, hence easier to balance after contraction. Zero when there is
/// at most one constraint.
pub fn combined_spread(a: &[i64], b: &[i64], inv_tot: &[f64]) -> f64 {
    if inv_tot.len() <= 1 {
        return 0.0;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..inv_tot.len() {
        let c = (a[i] + b[i]) as f64 * inv_tot[i];
        lo = lo.min(c);
        hi = hi.max(c);
    }
    hi - lo
}

/// The Euro-Par grant-arbitration ordering of the distributed request/grant
/// protocol (`mcgp-parallel::match_par`): a candidate proposal `(edge
/// weight, combined spread, proposer id)` beats the incumbent on a heavier
/// edge, then a flatter combined weight vector, then the **lower proposer
/// id** (the deterministic conflict tie-break).
pub fn grant_beats(cand: (i64, f64, u32), best: (i64, f64, u32)) -> bool {
    if cand.0 != best.0 {
        return cand.0 > best.0;
    }
    if cand.1 != best.1 {
        return cand.1 < best.1;
    }
    cand.2 < best.2
}

fn pick_random(graph: &Graph, v: usize, matched: &[bool], rng: &mut Rng) -> Option<usize> {
    let nbrs = graph.neighbors(v);
    if nbrs.is_empty() {
        return None;
    }
    // Start the scan at a random offset so ties don't always favour low
    // ids; two plain segment scans (start.., then ..start) keep the modulo
    // out of the inner loop.
    let start = rng.gen_range(0..nbrs.len());
    for &u in nbrs[start..].iter().chain(&nbrs[..start]) {
        if !matched[u as usize] {
            return Some(u as usize);
        }
    }
    None
}

fn pick_heavy(graph: &Graph, v: usize, matched: &[bool]) -> Option<usize> {
    let mut best: Option<(i64, usize)> = None;
    for (u, w) in graph.edges(v) {
        let u = u as usize;
        if !matched[u] && best.is_none_or(|(bw, _)| w > bw) {
            best = Some((w, u));
        }
    }
    best.map(|(_, u)| u)
}

/// Heavy-edge with the balanced-edge tie-break: among unmatched neighbours
/// whose edge weight equals the maximum, minimise the spread
/// `max_i − min_i` of the combined normalised weight vector.
fn pick_balanced_heavy(
    graph: &Graph,
    v: usize,
    matched: &[bool],
    inv_tot: &[f64],
) -> Option<usize> {
    let vw = graph.vwgt(v);
    let mut best: Option<(i64, f64, usize)> = None;
    for (u, w) in graph.edges(v) {
        let u = u as usize;
        if matched[u] {
            continue;
        }
        let better_weight = best.is_none_or(|(bw, _, _)| w > bw);
        let tied_weight = best.is_some_and(|(bw, _, _)| w == bw);
        if !better_weight && !tied_weight {
            continue;
        }
        let spread = combined_spread(vw, graph.vwgt(u), inv_tot);
        if better_weight || best.is_none_or(|(_, bs, _)| spread < bs) {
            best = Some((w, spread, u));
        }
    }
    best.map(|(_, _, u)| u)
}

/// Validates the structural matching invariants (used by tests and debug
/// assertions): involution, and matched pairs are adjacent.
pub fn is_valid_matching(graph: &Graph, m: &GraphMatching) -> bool {
    let n = graph.nvtxs();
    if m.mate.len() != n {
        return false;
    }
    let mut pairs = 0usize;
    for v in 0..n {
        let u = m.mate[v] as usize;
        if u >= n || m.mate[u] as usize != v {
            return false;
        }
        if u != v {
            if !graph.neighbors(v).contains(&(u as u32)) {
                return false;
            }
            if u > v {
                pairs += 1;
            }
        }
    }
    m.coarse_nvtxs == n - pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::csr::GraphBuilder;
    use mcgp_graph::generators::{grid_2d, mrng_like, rmat_default};
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    /// The matcher's loop before prefetching: one greedy pass straight
    /// over the shuffled order. [`match_graph`] must give the same `mate`.
    fn match_graph_oracle(graph: &Graph, scheme: MatchingScheme, rng: &mut Rng) -> GraphMatching {
        let n = graph.nvtxs();
        let mut mate: Vec<u32> = (0..n as u32).collect();
        let mut matched = vec![false; n];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        let inv_tot = inv_totals(graph);
        let mut pairs = 0usize;
        for v in order {
            let v = v as usize;
            if matched[v] {
                continue;
            }
            let partner = match scheme {
                MatchingScheme::Random => {
                    // First unmatched neighbour in (randomised) adjacency scan.
                    pick_random(graph, v, &matched, rng)
                }
                MatchingScheme::HeavyEdge => pick_heavy(graph, v, &matched),
                MatchingScheme::BalancedHeavyEdge => {
                    pick_balanced_heavy(graph, v, &matched, &inv_tot)
                }
            };
            if let Some(u) = partner {
                mate[v] = u as u32;
                mate[u] = v as u32;
                matched[v] = true;
                matched[u] = true;
                pairs += 1;
            } else {
                matched[v] = true; // stays a singleton
            }
        }
        GraphMatching {
            mate,
            coarse_nvtxs: n - pairs,
        }
    }

    #[test]
    fn prefetching_loop_matches_the_plain_loop() {
        let graphs = [
            ("mrng ncon1", mrng_like(3000, 1)),
            ("mrng ncon3", synthetic::type1(&mrng_like(3000, 2), 3, 2)),
            ("rmat", rmat_default(12, 8, 3)),
            ("grid", grid_2d(40, 30)),
        ];
        for (name, g) in &graphs {
            for scheme in [
                MatchingScheme::Random,
                MatchingScheme::HeavyEdge,
                MatchingScheme::BalancedHeavyEdge,
            ] {
                for seed in 1..=5 {
                    let got = match_graph(g, scheme, &mut rng(seed));
                    let want = match_graph_oracle(g, scheme, &mut rng(seed));
                    assert_eq!(got.mate, want.mate, "{name} {scheme:?} seed {seed}");
                    assert_eq!(got.coarse_nvtxs, want.coarse_nvtxs);
                }
            }
        }
    }

    #[test]
    fn all_schemes_produce_valid_matchings() {
        let g = mrng_like(2000, 1);
        for scheme in [
            MatchingScheme::Random,
            MatchingScheme::HeavyEdge,
            MatchingScheme::BalancedHeavyEdge,
        ] {
            let m = match_graph(&g, scheme, &mut rng(3));
            assert!(
                is_valid_matching(&g, &m),
                "{scheme:?} produced invalid matching"
            );
        }
    }

    #[test]
    fn matching_is_near_maximal_on_meshes() {
        let g = grid_2d(20, 20);
        let m = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng(5));
        // A mesh should match the vast majority of vertices.
        assert!(
            m.coarse_nvtxs <= (g.nvtxs() * 60) / 100,
            "only contracted to {} of {}",
            m.coarse_nvtxs,
            g.nvtxs()
        );
    }

    #[test]
    fn heavy_edge_prefers_heaviest() {
        // v0 - v1 weight 1, v0 - v2 weight 10.
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 1).weighted_edge(0, 2, 10);
        let g = b.build().unwrap();
        // Whatever visit order, vertex 0 must pair with 2 (or 1-0 never
        // happens first because 1's only neighbour is 0 with the light edge;
        // if 1 is visited first it takes 0 — so repeat over seeds and check
        // the heavy pairing dominates).
        let mut heavy = 0;
        for s in 0..20 {
            let m = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng(s));
            if m.mate[0] == 2 {
                heavy += 1;
            }
        }
        assert!(heavy >= 10, "heavy edge chosen only {heavy}/20 times");
    }

    #[test]
    fn balanced_tie_break_flattens_combined_vectors() {
        // v0 has two equal-weight edges to v1 and v2. Combining v0=(4,0)
        // with v1=(4,0) gives spread; with v2=(0,4) gives a flat vector.
        let mut b = GraphBuilder::new(3);
        b.weighted_edge(0, 1, 2).weighted_edge(0, 2, 2);
        b.vwgt(2, vec![4, 0, 4, 0, 0, 4]);
        let g = b.build().unwrap();
        // When 0 or 2 initiates the match, 0 pairs with 2 (balance
        // tie-break / only option); only when 1 initiates (1/3 of random
        // visit orders) does 0 pair with 1. Expect the balanced pairing in
        // a clear majority of seeds.
        let mut balanced = 0;
        for s in 0..30 {
            let m = match_graph(&g, MatchingScheme::BalancedHeavyEdge, &mut rng(s));
            if m.mate[0] == 2 {
                balanced += 1;
            }
        }
        assert!(balanced >= 15, "balanced pairing only {balanced}/30 times");
    }

    #[test]
    fn balanced_tie_break_on_multiweight_mesh_is_valid() {
        let g = synthetic::type1(&grid_2d(16, 16), 3, 7);
        let m = match_graph(&g, MatchingScheme::BalancedHeavyEdge, &mut rng(7));
        assert!(is_valid_matching(&g, &m));
        assert!(m.coarse_nvtxs < g.nvtxs());
    }

    #[test]
    fn isolated_vertices_stay_singletons() {
        let mut b = GraphBuilder::new(3);
        b.edge(0, 1);
        let g = b.build().unwrap();
        let m = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng(1));
        assert_eq!(m.mate[2], 2);
        assert!(is_valid_matching(&g, &m));
    }

    #[test]
    fn deterministic_for_fixed_rng() {
        let g = mrng_like(1000, 2);
        let a = match_graph(&g, MatchingScheme::BalancedHeavyEdge, &mut rng(11));
        let b = match_graph(&g, MatchingScheme::BalancedHeavyEdge, &mut rng(11));
        assert_eq!(a.mate, b.mate);
    }

    #[test]
    fn grant_arbitration_orders_weight_spread_then_id() {
        // Heavier edge wins outright.
        assert!(grant_beats((5, 0.9, 7), (4, 0.0, 1)));
        assert!(!grant_beats((4, 0.0, 1), (5, 0.9, 7)));
        // Equal weight: flatter combined vector wins.
        assert!(grant_beats((5, 0.1, 7), (5, 0.2, 1)));
        // Full tie: lower proposer id wins — and beats is strict, so a
        // proposal never displaces an identical incumbent.
        assert!(grant_beats((5, 0.1, 1), (5, 0.1, 7)));
        assert!(!grant_beats((5, 0.1, 7), (5, 0.1, 7)));
    }

    #[test]
    fn combined_spread_is_flat_for_single_constraint() {
        assert_eq!(combined_spread(&[3], &[9], &[0.5]), 0.0);
        let s = combined_spread(&[4, 0], &[0, 4], &[0.25, 0.25]);
        assert!(s.abs() < 1e-12, "flat combination has spread {s}");
        let t = combined_spread(&[4, 0], &[4, 0], &[0.25, 0.25]);
        assert!(t > 1.0, "skewed combination has spread {t}");
    }
}
