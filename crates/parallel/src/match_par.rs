//! Parallel heavy-edge matching with conflict arbitration.
//!
//! The request/grant protocol (after Karypis & Kumar's coarse-grain
//! formulation, ref [4] of the paper): rounds alternate vertex parity — in
//! round `r`, unmatched vertices of parity `r % 2` *propose* to their best
//! unmatched neighbour of the opposite parity (heavy edge, balanced-edge
//! tie-break), and each proposed-to vertex's owner *grants* exactly one
//! request (heaviest edge; ties by flattest combined weight vector, then
//! lowest id). Parity makes proposer and grantee disjoint sets, so no
//! conflicting grants can arise. A final communication-free pass matches
//! leftover pairs inside each processor.
//!
//! This protocol matches strictly fewer vertices per level than serial
//! matching — the *slow coarsening* the paper observes (more levels, less
//! exposed edge weight at the coarsest graph, sometimes better final cuts).

use crate::cost::CostTracker;
use crate::dist::DistGraph;
use mcgp_core::config::MatchingScheme;
use mcgp_core::matching::{combined_spread, grant_beats};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;

/// A global matching over a distributed graph (`mate[g] == g` when
/// unmatched).
#[derive(Clone, Debug)]
pub struct ParallelMatching {
    /// Global mate array.
    pub mate: Vec<u32>,
    /// Coarse vertex count the matching induces.
    pub coarse_nvtxs: usize,
}

/// One matching proposal travelling to the owner of `target`.
#[derive(Clone, Debug)]
struct Proposal {
    target: u32,
    proposer: u32,
    edge_w: i64,
    /// Proposer's weight vector (needed for the balanced tie-break at the
    /// grant side).
    vwgt: Vec<i64>,
}

/// Computes a parallel matching in `rounds` parity-alternating rounds plus a
/// local cleanup pass. All computation and traffic is recorded in `tracker`.
pub fn parallel_match(
    dist: &DistGraph,
    scheme: MatchingScheme,
    rounds: usize,
    seed: u64,
    tracker: &mut CostTracker,
) -> ParallelMatching {
    let n = dist.nvtxs();
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let tot = dist.total_vwgt();
    let inv_tot: Vec<f64> = tot
        .iter()
        .map(|&t| if t > 0 { 1.0 / t as f64 } else { 0.0 })
        .collect();

    // Published vertex weights for tie-breaks on remote neighbours: a halo
    // exchange at the start of matching (weights are level-constant).
    let gvwgt = |gid: usize| -> &[i64] {
        let q = dist.owner(gid);
        let lg = dist.local(q);
        lg.vwgt(gid - lg.first)
    };
    {
        // Account the weight-halo exchange.
        let bytes: Vec<u64> = (0..p)
            .map(|q| (dist.halo_size(q) * ncon * 8) as u64)
            .collect();
        let comp: Vec<u64> = (0..p).map(|q| dist.local(q).nlocal() as u64).collect();
        tracker.superstep(&comp, &bytes);
    }

    for round in 0..rounds {
        let parity = round % 2;
        // --- Proposal superstep (runs on the shared-memory pool) ----------
        // Each logical processor's proposal scan is independent: `matched`
        // is read-only until grants land, and traffic tallies are summed in
        // processor order afterwards, so the result is identical to the
        // serial sweep.
        let per_proc: Vec<(Vec<Proposal>, u64, Vec<u64>)> = mcgp_runtime::pool::map(p, |q| {
            let lg = dist.local(q);
            let mut rng = Rng::seed_from_u64(seed ^ (round as u64) << 32 ^ (q as u64) << 8);
            let mut order: Vec<u32> = (0..lg.nlocal() as u32).collect();
            order.shuffle(&mut rng);
            let mut props: Vec<Proposal> = Vec::new();
            let mut comp_q = 0u64;
            let mut bytes_q = vec![0u64; p];
            for &lv in &order {
                let lv = lv as usize;
                let v = lg.global(lv);
                if matched[v] || v % 2 != parity {
                    continue;
                }
                comp_q += lg.neighbors(lv).len() as u64 * ((2 + ncon as u64) / 2) + ncon as u64;
                let vw = lg.vwgt(lv);
                // Best unmatched opposite-parity neighbour.
                let mut best: Option<(i64, f64, u32)> = None;
                for (u, w) in lg.edges(lv) {
                    let ug = u as usize;
                    if matched[ug] || ug % 2 == parity {
                        continue;
                    }
                    let better_w = best.is_none_or(|(bw, _, _)| w > bw);
                    let tie_w = best.is_some_and(|(bw, _, _)| w == bw);
                    if !better_w && !tie_w {
                        continue;
                    }
                    let spread = match scheme {
                        MatchingScheme::BalancedHeavyEdge if ncon > 1 => {
                            combined_spread(vw, gvwgt(ug), &inv_tot)
                        }
                        _ => 0.0,
                    };
                    if better_w || best.is_none_or(|(_, bs, _)| spread < bs) {
                        best = Some((w, spread, u));
                    }
                }
                // Random scheme ignores weights: pick a random unmatched
                // opposite-parity neighbour instead.
                if scheme == MatchingScheme::Random {
                    let cands: Vec<(u32, i64)> = lg
                        .edges(lv)
                        .filter(|&(u, _)| !matched[u as usize] && u as usize % 2 != parity)
                        .collect();
                    best = cands.choose(&mut rng).map(|&(u, w)| (w, 0.0, u));
                }
                if let Some((w, _, u)) = best {
                    let target_owner = dist.owner(u as usize);
                    if target_owner != q {
                        // proposer id + target id + weight + vwgt vector
                        bytes_q[q] += (12 + ncon * 8) as u64;
                        bytes_q[target_owner] += (12 + ncon * 8) as u64;
                    }
                    props.push(Proposal {
                        target: u,
                        proposer: v as u32,
                        edge_w: w,
                        vwgt: vw.to_vec(),
                    });
                }
            }
            (props, comp_q, bytes_q)
        });
        let mut proposals: Vec<Proposal> = Vec::new();
        let mut comp = vec![0u64; p];
        let mut bytes = vec![0u64; p];
        for (q, (props, comp_q, bytes_q)) in per_proc.into_iter().enumerate() {
            proposals.extend(props);
            comp[q] = comp_q;
            for (b, bq) in bytes.iter_mut().zip(bytes_q) {
                *b += bq;
            }
        }
        tracker.superstep(&comp, &bytes);

        // --- Grant superstep ----------------------------------------------
        // Owners pick one proposal per target: heaviest edge, flattest
        // combined vector, lowest proposer id.
        let mut comp = vec![0u64; p];
        proposals.sort_unstable_by_key(|pr| (pr.target, pr.proposer));
        let mut i = 0;
        let mut grants: Vec<(u32, u32)> = Vec::new();
        while i < proposals.len() {
            let target = proposals[i].target;
            let owner = dist.owner(target as usize);
            let tw = gvwgt(target as usize);
            let mut best_idx = i;
            let mut best_key = (
                proposals[i].edge_w,
                combined_spread(&proposals[i].vwgt, tw, &inv_tot),
                proposals[i].proposer,
            );
            let mut j = i + 1;
            while j < proposals.len() && proposals[j].target == target {
                let key = (
                    proposals[j].edge_w,
                    combined_spread(&proposals[j].vwgt, tw, &inv_tot),
                    proposals[j].proposer,
                );
                // Shared Euro-Par arbitration rule (also the shared-memory
                // coarsener's): heaviest edge, flattest combined vector,
                // lowest proposer id.
                if grant_beats(key, best_key) {
                    best_key = key;
                    best_idx = j;
                }
                j += 1;
            }
            comp[owner] += (j - i) as u64;
            if !matched[target as usize] {
                grants.push((proposals[best_idx].proposer, target));
            }
            i = j;
        }
        // Proposals that lost arbitration (or raced a previous grant) are
        // the protocol's conflicts — the driver of slow coarsening.
        mcgp_runtime::phase::counter_add(
            mcgp_runtime::phase::Counter::MatchConflicts,
            (proposals.len() - grants.len()) as u64,
        );
        mcgp_runtime::event!(
            "match_round",
            round = round,
            parity = parity,
            proposals = proposals.len(),
            grants = grants.len(),
            conflicts = proposals.len() - grants.len(),
        );
        // Grant notifications travel back to proposers.
        let mut bytes = vec![0u64; p];
        for &(v, u) in &grants {
            let qo = dist.owner(u as usize);
            let qp = dist.owner(v as usize);
            if qo != qp {
                bytes[qo] += 8;
                bytes[qp] += 8;
            }
            mate[v as usize] = u;
            mate[u as usize] = v;
            matched[v as usize] = true;
            matched[u as usize] = true;
        }
        tracker.superstep(&comp, &bytes);
    }

    // --- Local cleanup (no communication) ---------------------------------
    let mut comp = vec![0u64; p];
    for (q, comp_q) in comp.iter_mut().enumerate() {
        let lg = dist.local(q);
        let lo = lg.first;
        let hi = lg.first + lg.nlocal();
        for lv in 0..lg.nlocal() {
            let v = lg.global(lv);
            if matched[v] {
                continue;
            }
            *comp_q += lg.neighbors(lv).len() as u64;
            let mut best: Option<(i64, usize)> = None;
            for (u, w) in lg.edges(lv) {
                let ug = u as usize;
                if ug >= lo
                    && ug < hi
                    && !matched[ug]
                    && ug != v
                    && best.is_none_or(|(bw, _)| w > bw)
                {
                    best = Some((w, ug));
                }
            }
            if let Some((_, u)) = best {
                mate[v] = u as u32;
                mate[u] = v as u32;
                matched[v] = true;
                matched[u] = true;
            }
        }
    }
    tracker.superstep(&comp, &vec![0u64; p]);

    let pairs = mate
        .iter()
        .enumerate()
        .filter(|&(v, &m)| (m as usize) > v)
        .count();
    mcgp_runtime::phase::counter_add(
        mcgp_runtime::phase::Counter::VerticesMatched,
        2 * pairs as u64,
    );
    ParallelMatching {
        mate,
        coarse_nvtxs: n - pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    fn check_valid(dist: &DistGraph, m: &ParallelMatching) {
        let g = dist.gather();
        let n = g.nvtxs();
        assert_eq!(m.mate.len(), n);
        let mut pairs = 0;
        for v in 0..n {
            let u = m.mate[v] as usize;
            assert_eq!(m.mate[u] as usize, v, "not an involution at {v}");
            if u != v {
                assert!(
                    g.neighbors(v).contains(&(u as u32)),
                    "pair ({v},{u}) not adjacent"
                );
                if u > v {
                    pairs += 1;
                }
            }
        }
        assert_eq!(m.coarse_nvtxs, n - pairs);
    }

    #[test]
    fn produces_valid_matching_across_proc_counts() {
        let g = synthetic::type1(&mrng_like(1500, 3), 3, 3);
        for p in [1usize, 2, 4, 8] {
            let d = DistGraph::distribute(&g, p);
            let mut t = CostTracker::new();
            let m = parallel_match(&d, MatchingScheme::BalancedHeavyEdge, 4, 7, &mut t);
            check_valid(&d, &m);
            assert!(t.supersteps() > 0);
        }
    }

    #[test]
    fn matches_a_majority_of_mesh_vertices() {
        let g = grid_2d(24, 24);
        let d = DistGraph::distribute(&g, 4);
        let mut t = CostTracker::new();
        let m = parallel_match(&d, MatchingScheme::HeavyEdge, 4, 1, &mut t);
        check_valid(&d, &m);
        let matched = (0..g.nvtxs()).filter(|&v| m.mate[v] as usize != v).count();
        assert!(
            matched * 2 >= g.nvtxs(),
            "only {matched} of {} matched",
            g.nvtxs()
        );
    }

    #[test]
    fn undermatches_relative_to_serial() {
        // The parity protocol plus grant conflicts should leave more
        // singletons than serial matching — the paper's slow-coarsening
        // effect. (Compare against the serial matcher on the same graph.)
        let g = mrng_like(3000, 9);
        let d = DistGraph::distribute(&g, 16);
        let mut t = CostTracker::new();
        let par = parallel_match(&d, MatchingScheme::HeavyEdge, 2, 3, &mut t);
        let mut rng = Rng::seed_from_u64(3);
        let ser = mcgp_core::matching::match_graph(&g, MatchingScheme::HeavyEdge, &mut rng);
        assert!(
            par.coarse_nvtxs >= ser.coarse_nvtxs,
            "parallel {} vs serial {}",
            par.coarse_nvtxs,
            ser.coarse_nvtxs
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = mrng_like(800, 5);
        let d = DistGraph::distribute(&g, 4);
        let mut t1 = CostTracker::new();
        let mut t2 = CostTracker::new();
        let a = parallel_match(&d, MatchingScheme::BalancedHeavyEdge, 4, 11, &mut t1);
        let b = parallel_match(&d, MatchingScheme::BalancedHeavyEdge, 4, 11, &mut t2);
        assert_eq!(a.mate, b.mate);
    }

    #[test]
    fn communication_scales_with_halo_not_graph() {
        let g = grid_2d(32, 32);
        let d = DistGraph::distribute(&g, 4);
        let mut t = CostTracker::new();
        parallel_match(&d, MatchingScheme::HeavyEdge, 2, 1, &mut t);
        // Halo of each block is one 32-vertex row each side; total traffic
        // must be far below "ship the whole graph everywhere".
        let whole_graph_bytes = (g.adjacency_len() * 8) as u64;
        assert!(
            t.total_bytes() < whole_graph_bytes,
            "{} bytes vs graph {}",
            t.total_bytes(),
            whole_graph_bytes
        );
    }
}
