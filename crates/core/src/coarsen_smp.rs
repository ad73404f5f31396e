//! Shared-memory parallel coarsening: conflict-arbitrated matching.
//!
//! This is the Euro-Par 2000 proposal/arbitration matching protocol
//! (distributed-style in `mcgp-parallel::match_par`) rebuilt as a
//! shared-memory kernel on the `mcgp-runtime` pool. Vertices are striped
//! across `nthreads` workers; a fixed number of supersteps alternate vertex
//! parity — proposers of parity `round % 2` pick their best unmatched
//! opposite-parity neighbour, and an arbitration superstep grants exactly
//! one proposal per target under the shared rule of
//! [`crate::matching::grant_beats`] (heaviest edge, flattest combined
//! weight vector, **lowest proposer id** — the paper's deterministic
//! conflict tie-break). Parity makes proposer and target sets disjoint, so
//! every grant of a round commits without further conflict checks. A final
//! serial [`greedy_match_pass`] over the unmatched tail keeps coarsening
//! ratios close to serial heavy-edge matching.
//!
//! Contraction is not striped: its output is determined by the matching
//! alone, so every matcher feeds the one serial kernel,
//! [`crate::coarsen::contract_with_scratch`].
//!
//! **Determinism contract.** The matching depends only on
//! `(graph, scheme, seed, nthreads)`. The stripe count `nthreads` shapes the
//! result; the number of OS threads the pool actually uses (`MCGP_THREADS`,
//! `available_parallelism`) never does, because every worker writes to its
//! own stripe and merges happen in stripe order.

use crate::config::MatchingScheme;
use crate::matching::{
    combined_spread, grant_beats, greedy_match_pass, inv_totals, GraphMatching,
};
use mcgp_graph::Graph;
use mcgp_runtime::phase::{counter_add, Counter};
use mcgp_runtime::pool::{self, stripe_bounds, zip_map};
use mcgp_runtime::rng::{Rng, SliceRandom};
use mcgp_runtime::event;

/// Proposal/arbitration supersteps before the serial cleanup tail. Two per
/// parity: the second chance lets vertices whose first target was granted
/// away re-propose, which empirically leaves a tail small enough that the
/// serial pass stays a minor fraction of the matching work.
const ROUNDS: usize = 4;

/// Below this many vertices the striped supersteps cost more than they
/// save; [`crate::coarsen::coarsen`] drops to the serial path. Gating on a
/// fixed constant keeps the `(seed, nthreads)` determinism contract intact
/// — and the constant is low enough that the differential-sweep graphs
/// (~1–2k vertices) genuinely exercise the parallel engine.
pub const SMP_MIN_NVTXS: usize = 600;

/// One matching proposal: `proposer` (parity `round % 2`) asks to collapse
/// its edge to `target` (opposite parity).
struct Proposal {
    target: u32,
    proposer: u32,
    edge_w: i64,
}

/// One target's best proposal so far, live only while `stamp` matches the
/// current round (see the arbitration superstep of [`match_smp`]).
#[derive(Clone, Copy, Default)]
struct ArbSlot {
    stamp: u32,
    proposer: u32,
    edge_w: i64,
    spread: f64,
}

/// Parallel balanced-heavy-edge matching over `nthreads` vertex stripes.
/// Deterministic for a fixed `(graph, scheme, seed, nthreads)`; valid by
/// construction (involution, matched pairs adjacent).
pub fn match_smp(
    graph: &Graph,
    scheme: MatchingScheme,
    nthreads: usize,
    seed: u64,
) -> GraphMatching {
    let n = graph.nvtxs();
    let stripes = nthreads.max(1);
    let _s = mcgp_runtime::span!("match_smp", nvtxs = n, stripes = stripes);
    let bounds = stripe_bounds(n, stripes);
    let mut mate: Vec<u32> = (0..n as u32).collect();
    let mut matched = vec![false; n];
    let inv_tot = inv_totals(graph);
    let balanced = scheme == MatchingScheme::BalancedHeavyEdge && graph.ncon() > 1;
    let mut pairs = 0usize;

    // Stripe owning a vertex: the first `n % stripes` stripes are one
    // element longer than the rest, so ownership is two divisions — no
    // binary search in the proposal hot loop.
    let (quota, extra) = (n / stripes, n % stripes);
    let long_end = (quota + 1) * extra;
    let stripe_of = move |v: usize| {
        if v < long_end {
            v / (quota + 1)
        } else {
            extra + (v - long_end) / quota
        }
    };

    // Arbitration slots, one per vertex, validated by a per-round stamp: the
    // arena is allocated (and zeroed) once per matching call instead of a
    // fresh `Vec<Option<..>>` per round, and only slots a proposal actually
    // touches are ever written — later rounds have few proposals, so the
    // arbitration superstep costs O(proposals), not O(n).
    let mut arb: Vec<ArbSlot> = vec![ArbSlot::default(); n];

    // Per-parity re-proposal candidates: round `r + 2` only needs the
    // proposers that *lost* arbitration in round `r` — a parity-`p` vertex
    // that proposed nothing in round `r` cannot propose later either (the
    // matched set only grows, so candidate neighbourhoods only shrink), and
    // winners are matched. Keeping the loser lists sorted by vertex id makes
    // the re-proposal sweep visit vertices in exactly the order the full
    // stripe scan would, so the output (including the Random scheme's RNG
    // stream) is identical — the full rescans of later rounds just never run.
    let mut losers: [Option<Vec<Vec<u32>>>; 2] = [None, None];

    for round in 0..ROUNDS {
        let parity = round % 2;
        let cands = losers[parity].take();
        // --- Proposal superstep -----------------------------------------
        // Each worker scans its stripe's unmatched parity-`parity` vertices
        // (first same-parity round: the whole stripe; later rounds: the
        // previous same-parity round's arbitration losers) and proposes to
        // the best unmatched opposite-parity neighbour, bucketing proposals
        // by the target's stripe. `matched` is read-only until grants land,
        // so workers are independent.
        let cands = &cands;
        let per_stripe: Vec<Vec<Vec<Proposal>>> = pool::map(stripes, |s| {
            let mut rng =
                Rng::seed_from_u64(seed ^ ((round as u64) << 32) ^ ((s as u64) << 8));
            let mut out: Vec<Vec<Proposal>> = (0..stripes).map(|_| Vec::new()).collect();
            let mut propose = |v: usize, rng: &mut Rng| {
                if matched[v] {
                    return;
                }
                let vw = graph.vwgt(v);
                let mut best: Option<(i64, f64, u32)> = None;
                for (u, w) in graph.edges(v) {
                    let ug = u as usize;
                    if matched[ug] || ug % 2 == parity {
                        continue;
                    }
                    let better_w = best.is_none_or(|(bw, _, _)| w > bw);
                    let tie_w = best.is_some_and(|(bw, _, _)| w == bw);
                    if !better_w && !tie_w {
                        continue;
                    }
                    let spread = if balanced {
                        combined_spread(vw, graph.vwgt(ug), &inv_tot)
                    } else {
                        0.0
                    };
                    if better_w || best.is_none_or(|(_, bs, _)| spread < bs) {
                        best = Some((w, spread, u));
                    }
                }
                if scheme == MatchingScheme::Random {
                    // Random scheme ignores weights: a uniformly random
                    // unmatched opposite-parity neighbour instead.
                    let cands: Vec<(u32, i64)> = graph
                        .edges(v)
                        .filter(|&(u, _)| !matched[u as usize] && u as usize % 2 != parity)
                        .collect();
                    best = cands.choose(rng).map(|&(u, w)| (w, 0.0, u));
                }
                if let Some((w, _, u)) = best {
                    out[stripe_of(u as usize)].push(Proposal {
                        target: u,
                        proposer: v as u32,
                        edge_w: w,
                    });
                }
            };
            match cands {
                Some(lists) => {
                    for &v in &lists[s] {
                        propose(v as usize, &mut rng);
                    }
                }
                None => {
                    for v in (bounds[s] + (bounds[s] + parity) % 2..bounds[s + 1]).step_by(2) {
                        propose(v, &mut rng);
                    }
                }
            }
            out
        });

        // --- Arbitration superstep --------------------------------------
        // Worker `t` owns the targets of stripe `t`: it scans the
        // proposals every stripe bucketed for it and keeps one winner per
        // target under the shared Euro-Par rule. The winner is a pure
        // function of the proposal set, so scheduling cannot perturb it.
        // Targets are collected in first-proposal order (stripe order, then
        // bucket order — deterministic), so no O(stripe) winner scan runs.
        let stamp = round as u32 + 1;
        let grants: Vec<Vec<(u32, u32)>> = {
            let arb_chunks = split_chunks(&mut arb[..], &bounds);
            zip_map(arb_chunks, |t, slots| {
                let lo = bounds[t];
                let mut hit: Vec<u32> = Vec::new();
                for from in &per_stripe {
                    for pr in &from[t] {
                        let spread = if balanced {
                            combined_spread(
                                graph.vwgt(pr.proposer as usize),
                                graph.vwgt(pr.target as usize),
                                &inv_tot,
                            )
                        } else {
                            0.0
                        };
                        let key = (pr.edge_w, spread, pr.proposer);
                        let slot = &mut slots[pr.target as usize - lo];
                        if slot.stamp != stamp {
                            hit.push(pr.target);
                        } else if !grant_beats(key, (slot.edge_w, slot.spread, slot.proposer)) {
                            continue;
                        }
                        *slot = ArbSlot {
                            stamp,
                            proposer: pr.proposer,
                            edge_w: pr.edge_w,
                            spread,
                        };
                    }
                }
                hit.iter()
                    .map(|&u| (slots[u as usize - lo].proposer, u))
                    .collect()
            })
        };

        // --- Commit (stripe-then-target order) --------------------------
        // Proposers (parity `parity`) and targets (opposite parity) are
        // disjoint sets, each proposer proposed at most once, and each
        // target granted at most once — so every grant commits.
        let nprops: usize = per_stripe.iter().flatten().map(Vec::len).sum();
        let mut ngrants = 0usize;
        for stripe_grants in &grants {
            for &(v, u) in stripe_grants {
                debug_assert!(!matched[v as usize] && !matched[u as usize]);
                mate[v as usize] = u;
                mate[u as usize] = v;
                matched[v as usize] = true;
                matched[u as usize] = true;
                ngrants += 1;
            }
        }
        pairs += ngrants;
        if round + 2 < ROUNDS {
            losers[parity] = Some(
                per_stripe
                    .iter()
                    .map(|from| {
                        let mut l: Vec<u32> = from
                            .iter()
                            .flatten()
                            .map(|pr| pr.proposer)
                            .filter(|&p| !matched[p as usize])
                            .collect();
                        l.sort_unstable();
                        l
                    })
                    .collect(),
            );
        }
        // Losing proposals are the protocol's arbitration conflicts.
        counter_add(Counter::MatchConflicts, (nprops - ngrants) as u64);
        event!(
            "match_smp_round",
            round = round,
            parity = parity,
            proposals = nprops,
            grants = ngrants,
            conflicts = nprops - ngrants,
        );
    }

    // --- Serial cleanup tail -------------------------------------------
    // Whatever parity restrictions and lost arbitrations left unmatched
    // gets one communication-free greedy pass (any parity), in a seeded
    // random order — serial HEM on the remainder, which is what keeps the
    // coarsening ratio close to the serial matcher's.
    let mut leftover: Vec<u32> = (0..n as u32).filter(|&v| !matched[v as usize]).collect();
    let mut rng = Rng::seed_from_u64(seed ^ 0xC1EA_4011);
    leftover.shuffle(&mut rng);
    event!("match_smp_cleanup", leftover = leftover.len(), nvtxs = n);
    pairs += greedy_match_pass(
        graph,
        scheme,
        &leftover,
        &mut mate,
        &mut matched,
        &inv_tot,
        &mut rng,
    );

    GraphMatching {
        mate,
        coarse_nvtxs: n - pairs,
    }
}

/// Splits the first `bounds.last()` elements of `data` into the chunks
/// delimited by `bounds` (one per stripe) — the safe way to hand each
/// worker a disjoint `&mut` view of a shared output buffer.
fn split_chunks<'a, T>(mut data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let (chunk, rest) = data.split_at_mut(w[1] - w[0]);
        out.push(chunk);
        data = rest;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coarsen::contract;
    use crate::matching::{is_valid_matching, match_graph};
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    const SCHEMES: [MatchingScheme; 3] = [
        MatchingScheme::Random,
        MatchingScheme::HeavyEdge,
        MatchingScheme::BalancedHeavyEdge,
    ];

    #[test]
    fn parallel_matching_is_valid_involution_across_schemes_and_threads() {
        // The property the coarsener rests on: mate is an involution, no two
        // matched pairs share a vertex, pairs are adjacent, and
        // coarse_nvtxs accounts exactly for the pairs formed — across
        // schemes × stripe counts × seeds.
        let graphs = [
            synthetic::type1(&mrng_like(3000, 3), 3, 3),
            grid_2d(40, 40),
        ];
        for g in &graphs {
            for scheme in SCHEMES {
                for t in [1usize, 2, 3, 8] {
                    for seed in [0u64, 7, 1234] {
                        let m = match_smp(g, scheme, t, seed);
                        assert!(
                            is_valid_matching(g, &m),
                            "{scheme:?} t={t} seed={seed} produced an invalid matching"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_matching_ratio_close_to_serial_hem() {
        // The serial cleanup tail must keep the coarsening ratio near the
        // serial matcher's (the distributed protocol under-matches; the
        // shared-memory one must not).
        let g = mrng_like(4000, 9);
        let mut rng = Rng::seed_from_u64(3);
        let serial = match_graph(&g, MatchingScheme::HeavyEdge, &mut rng);
        for t in [2usize, 8] {
            let par = match_smp(&g, MatchingScheme::HeavyEdge, t, 3);
            assert!(
                (par.coarse_nvtxs as f64) <= 1.10 * serial.coarse_nvtxs as f64,
                "t={t}: parallel {} vs serial {} coarse vertices",
                par.coarse_nvtxs,
                serial.coarse_nvtxs
            );
        }
    }

    #[test]
    fn matching_deterministic_per_seed_and_stripe_count() {
        let g = synthetic::type1(&mrng_like(2000, 5), 3, 5);
        for t in [1usize, 2, 8] {
            let a = match_smp(&g, MatchingScheme::BalancedHeavyEdge, t, 11);
            let b = match_smp(&g, MatchingScheme::BalancedHeavyEdge, t, 11);
            assert_eq!(a.mate, b.mate, "t={t} not deterministic");
            assert_eq!(a.coarse_nvtxs, b.coarse_nvtxs);
        }
    }

    #[test]
    fn oversubscribed_stripes_and_tiny_graphs() {
        // More stripes than vertices, and singleton-heavy graphs.
        let g = grid_2d(3, 3);
        for t in [1usize, 8, 64] {
            let m = match_smp(&g, MatchingScheme::HeavyEdge, t, 1);
            assert!(is_valid_matching(&g, &m));
            let (cg, _) = contract(&g, &m);
            assert_eq!(cg.total_vwgt(), g.total_vwgt());
            cg.validate().unwrap();
        }
    }
}
