//! Multi-constraint balance bookkeeping and the explicit k-way balancing
//! pass.
//!
//! Balance is tracked with exact integer arithmetic: constraint `i` of part
//! `p` is within tolerance when its weight does not exceed
//! `max((1+tol)·avg_i, avg_i + maxvwgt_i)` — the second term is the
//! *granularity slack* that keeps coarse graphs (whose vertices are heavy
//! aggregates) from deadlocking refinement; it vanishes as uncoarsening
//! shrinks the largest vertex, so the finest level enforces the user's
//! tolerance, exactly as the multilevel paradigm intends.
//!
//! [`rebalance`] makes one move (or swap) per round, always out of the
//! worst-violated part, and its choices depend on one shuffled vertex
//! order. It keeps each part's vertices as sorted ranks into that order,
//! so a round walks only the violated part's members, in the order a
//! filtered scan of all `n` vertices would visit them, and a move is a
//! binary-search remove and insert. Each part row's normalised excess is
//! kept current across moves, and the excess of a row after a candidate
//! move is scored in place. The swap tier samples the heads of the same
//! lists and skips a source vertex's whole sample of a part when an exact
//! floating-point lower bound says no swap there can win (see
//! [`swap_escape`]). None of this changes a choice: a test keeps the
//! rescanning version as an oracle.

use mcgp_graph::Graph;
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;
use mcgp_runtime::span;

/// Flattened `nparts × ncon` subdomain weights for an assignment.
pub fn part_weights(graph: &Graph, assignment: &[u32], nparts: usize) -> Vec<i64> {
    let ncon = graph.ncon();
    let mut pw = vec![0i64; nparts * ncon];
    for (v, &p) in assignment.iter().enumerate() {
        let p = p as usize;
        let row = &mut pw[p * ncon..(p + 1) * ncon];
        for (i, &w) in graph.vwgt(v).iter().enumerate() {
            row[i] += w;
        }
    }
    pw
}

/// The largest vertex weight of each constraint, in one pass over the
/// weights.
pub(crate) fn max_vertex_weights(graph: &Graph) -> Vec<i64> {
    let mut maxvw = vec![0i64; graph.ncon()];
    for v in 0..graph.nvtxs() {
        for (m, &w) in maxvw.iter_mut().zip(graph.vwgt(v)) {
            *m = (*m).max(w);
        }
    }
    maxvw
}

/// Per-part, per-constraint balance limits for a k-way partition.
#[derive(Clone, Debug)]
pub struct BalanceModel {
    ncon: usize,
    nparts: usize,
    tot: Vec<i64>,
    /// `avg[i] = tot[i] / nparts` as a float (0 for empty constraints).
    avg: Vec<f64>,
    /// Per-constraint cap on any part's weight.
    limits: Vec<i64>,
}

impl BalanceModel {
    /// Builds the model for `graph` split `nparts` ways at tolerance `tol`.
    pub fn new(graph: &Graph, nparts: usize, tol: f64) -> Self {
        let maxvw = max_vertex_weights(graph);
        Self::from_parts(graph.ncon(), nparts, graph.total_vwgt(), &maxvw, tol)
    }

    /// Builds the model from precomputed totals and per-constraint maximum
    /// vertex weights (used when the caller already has them).
    pub fn from_parts(ncon: usize, nparts: usize, tot: Vec<i64>, maxvw: &[i64], tol: f64) -> Self {
        assert!(nparts >= 1);
        assert_eq!(tot.len(), ncon);
        assert_eq!(maxvw.len(), ncon);
        let avg: Vec<f64> = tot.iter().map(|&t| t as f64 / nparts as f64).collect();
        let limits: Vec<i64> = (0..ncon)
            .map(|i| {
                let soft = (1.0 + tol) * avg[i];
                let slack = avg[i] + maxvw[i] as f64;
                (soft.max(slack).ceil() as i64).min(tot[i])
            })
            .collect();
        BalanceModel {
            ncon,
            nparts,
            tot,
            avg,
            limits,
        }
    }

    /// Number of constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Number of parts.
    #[inline]
    pub fn nparts(&self) -> usize {
        self.nparts
    }

    /// Per-constraint totals.
    #[inline]
    pub fn totals(&self) -> &[i64] {
        &self.tot
    }

    /// Per-constraint caps applied to every part.
    #[inline]
    pub fn limits(&self) -> &[i64] {
        &self.limits
    }

    /// True if adding weight vector `vw` to part weights `row` stays within
    /// every constraint's cap.
    #[inline]
    pub fn fits(&self, row: &[i64], vw: &[i64]) -> bool {
        (0..self.ncon).all(|i| row[i] + vw[i] <= self.limits[i])
    }

    /// True when every part is within every constraint's cap.
    pub fn is_balanced(&self, pw: &[i64]) -> bool {
        debug_assert_eq!(pw.len(), self.nparts * self.ncon);
        pw.chunks_exact(self.ncon)
            .all(|row| (0..self.ncon).all(|i| row[i] <= self.limits[i]))
    }

    /// The imbalance of the worst (part, constraint) pair:
    /// `max_{p,i} pw[p][i] / avg[i]` (1.0 = perfect).
    pub fn max_load(&self, pw: &[i64]) -> f64 {
        let mut worst: f64 = 1.0;
        for row in pw.chunks_exact(self.ncon) {
            for (&w, &avg) in row.iter().zip(&self.avg) {
                if avg > 0.0 {
                    worst = worst.max(w as f64 / avg);
                }
            }
        }
        worst
    }

    /// The `(part, constraint)` with the largest relative overload above the
    /// cap, if any part exceeds its cap.
    pub fn worst_violation(&self, pw: &[i64]) -> Option<(usize, usize)> {
        let mut worst: Option<(usize, usize, f64)> = None;
        for (p, row) in pw.chunks_exact(self.ncon).enumerate() {
            for (i, &w) in row.iter().enumerate() {
                if w > self.limits[i] && self.avg[i] > 0.0 {
                    let over = w as f64 / self.avg[i];
                    if worst.is_none_or(|(_, _, o)| over > o) {
                        worst = Some((p, i, over));
                    }
                }
            }
        }
        worst.map(|(p, i, _)| (p, i))
    }
}

/// Applies one vertex move to the flattened part-weight matrix.
#[inline]
pub fn apply_move(pw: &mut [i64], ncon: usize, vw: &[i64], from: usize, to: usize) {
    for i in 0..ncon {
        pw[from * ncon + i] -= vw[i];
        pw[to * ncon + i] += vw[i];
    }
}

/// Greedy multi-constraint k-way balancing: while some part exceeds a cap,
/// move the least-damaging vertex that carries the violated weight out of
/// the worst-violated part into a part with room — and when no single move
/// can reduce the violation (the multi-constraint wedge where every part is
/// at cap on a different constraint), exchange a complementary pair of
/// vertices instead ([`swap_escape`]).
///
/// Candidates are scanned in one shuffled vertex order (the only RNG draw:
/// one shuffle of all `n` vertices), so ties resolve the same way on every
/// run. Edge-cut-increasing moves are permitted — restoring feasibility
/// takes priority, exactly as in the serial algorithm. Returns `true` when
/// the partition is within all caps on exit.
pub fn rebalance(
    graph: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    rng: &mut Rng,
) -> bool {
    let mut span = span!("balance", nvtxs = graph.nvtxs(), nparts = model.nparts());
    let mut order: Vec<u32> = (0..graph.nvtxs() as u32).collect();
    order.shuffle(rng);
    let (mut moves, mut swaps) = (0usize, 0usize);
    let ok = rebalance_in_order(graph, assignment, pw, model, order, &mut moves, &mut swaps);
    span.record("moves", moves);
    span.record("swaps", swaps);
    span.record("ok", u64::from(ok));
    ok
}

/// Each part's vertices as ranks into the shuffled `order`, ascending.
/// Walking `lists[p]` visits exactly the vertices a scan of `order`
/// filtered to part `p` would, in the same sequence, without touching the
/// other parts' vertices.
struct Members {
    order: Vec<u32>,
    lists: Vec<Vec<u32>>,
}

impl Members {
    fn new(order: Vec<u32>, assignment: &[u32], nparts: usize) -> Self {
        let mut lists = vec![Vec::new(); nparts];
        for (rank, &v) in order.iter().enumerate() {
            lists[assignment[v as usize] as usize].push(rank as u32);
        }
        Members { order, lists }
    }

    #[inline]
    fn vertex(&self, rank: u32) -> usize {
        self.order[rank as usize] as usize
    }

    /// Moves the vertex at `rank` from part `from`'s list to part `to`'s,
    /// keeping both sorted.
    fn relocate(&mut self, rank: u32, from: usize, to: usize) {
        let src = &mut self.lists[from];
        let at = src
            .binary_search(&rank)
            .expect("vertex is listed in its part");
        src.remove(at);
        let dest = &mut self.lists[to];
        let at = dest.binary_search(&rank).unwrap_err();
        dest.insert(at, rank);
    }
}

/// The body of [`rebalance`] over an already shuffled `order`; counts the
/// single moves and swaps it applies.
fn rebalance_in_order(
    graph: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    order: Vec<u32>,
    moves: &mut usize,
    swaps: &mut usize,
) -> bool {
    // Most calls start within the caps; they build no bookkeeping.
    if model.worst_violation(pw).is_none() {
        return true;
    }
    let ncon = graph.ncon();
    let nparts = model.nparts();
    // Enough rounds to drain realistic violations; each round moves one
    // vertex, so cap generously but finitely.
    let max_moves = 8 * graph.nvtxs().max(64);
    let mut members = Members::new(order, assignment, nparts);
    // The normalised excess of every part row, refreshed for the two rows
    // each move or swap changes.
    let mut excess: Vec<f64> = pw
        .chunks_exact(ncon)
        .map(|row| normalised_excess(model, row.iter().copied()))
        .collect();
    let mut conn: Vec<i64> = vec![0; nparts];
    let mut touched: Vec<usize> = Vec::new();
    let mut is_touched = vec![false; nparts];

    for _ in 0..max_moves {
        let Some((vp, vc)) = model.worst_violation(pw) else {
            return true;
        };
        // A one-vertex part cannot shed weight without emptying itself.
        if members.lists[vp].len() <= 1 {
            return false;
        }
        // Tier 1: the best-gain move into a destination that fully fits.
        // Tier 2 (fallback): the move that most reduces total normalised
        // excess — it may overload the destination slightly, but total
        // excess strictly decreases, so the loop always terminates.
        let mut best_fit: Option<(i64, u32, usize)> = None; // (gain, rank, dest)
        let mut best_relax: Option<(f64, i64, u32, usize)> = None; // (delta, gain, rank, dest)
        let src_row = &pw[vp * ncon..(vp + 1) * ncon];
        for &rank in &members.lists[vp] {
            let v = members.vertex(rank);
            let vw = graph.vwgt(v);
            if vw[vc] == 0 {
                continue;
            }
            // Connectivity of v to each part.
            touched.clear();
            let mut internal = 0i64;
            for (u, w) in graph.edges(v) {
                let pu = assignment[u as usize] as usize;
                if pu == vp {
                    internal += w;
                } else {
                    if conn[pu] == 0 {
                        touched.push(pu);
                        is_touched[pu] = true;
                    }
                    conn[pu] += w;
                }
            }
            let src_after = normalised_excess(model, src_row.iter().zip(vw).map(|(&p, &w)| p - w));
            let consider =
                |b: usize,
                 best_fit: &mut Option<(i64, u32, usize)>,
                 best_relax: &mut Option<(f64, i64, u32, usize)>| {
                    let gain = conn[b] - internal;
                    let dest_row = &pw[b * ncon..(b + 1) * ncon];
                    if model.fits(dest_row, vw) {
                        if best_fit.is_none_or(|(g, _, _)| gain > g) {
                            *best_fit = Some((gain, rank, b));
                        }
                    } else {
                        let dest_after =
                            normalised_excess(model, dest_row.iter().zip(vw).map(|(&p, &w)| p + w));
                        let delta = src_after + dest_after - excess[vp] - excess[b];
                        if delta < -1e-12
                            && best_relax.is_none_or(|(d, g, _, _)| {
                                delta < d - 1e-12 || ((delta - d).abs() <= 1e-12 && gain > g)
                            })
                        {
                            *best_relax = Some((delta, gain, rank, b));
                        }
                    }
                };
            // Prefer parts v already touches; also scan all parts while no
            // fitting candidate has been found.
            for &b in &touched {
                consider(b, &mut best_fit, &mut best_relax);
            }
            if best_fit.is_none() {
                for (b, &seen) in is_touched.iter().enumerate() {
                    if b != vp && !seen {
                        consider(b, &mut best_fit, &mut best_relax);
                    }
                }
            }
            for &b in &touched {
                conn[b] = 0;
                is_touched[b] = false;
            }
            // A zero-damage boundary move is as good as it gets; stop early.
            if matches!(best_fit, Some((g, _, _)) if g >= 0) {
                break;
            }
        }
        let chosen = match (best_fit, best_relax) {
            (Some((_, rank, b)), _) => Some((rank, b)),
            (None, Some((_, _, rank, b))) => Some((rank, b)),
            (None, None) => None,
        };
        match chosen {
            Some((rank, dest)) => {
                let v = members.vertex(rank);
                apply_move(pw, ncon, graph.vwgt(v), vp, dest);
                assignment[v] = dest as u32;
                members.relocate(rank, vp, dest);
                refresh_excess(model, pw, &mut excess, &[vp, dest]);
                *moves += 1;
            }
            None => {
                // Tier 3 (wedge breaker): every single move either fails the
                // caps or shuffles excess around without reducing it — the
                // multi-constraint deadlock where each part sits at its cap
                // on a *different* constraint while far under on the others.
                // Escaping it needs complementary weight vectors to trade
                // places, which no sequence of single excess-decreasing
                // moves can do: exchange a pair of vertices between the
                // violated part and another part when the swap strictly
                // reduces total normalised excess. Give up only when no
                // sampled swap helps either.
                if !swap_escape(
                    graph,
                    assignment,
                    pw,
                    model,
                    vp,
                    vc,
                    &mut members,
                    &mut excess,
                ) {
                    return false;
                }
                *swaps += 1;
            }
        }
    }
    model.worst_violation(pw).is_none()
}

/// Normalised excess of one part row above its caps: the per-constraint
/// overflow in units of the per-part average weight, summed. The quantity
/// both rebalancing tiers drive monotonically to zero. The row comes entry
/// by entry, so the row a move would leave behind is scored without being
/// built. Non-decreasing in every entry, also in floating point: each term
/// rounds monotonically and the terms are summed in a fixed order.
#[inline]
fn normalised_excess(model: &BalanceModel, row: impl Iterator<Item = i64>) -> f64 {
    let mut e = 0.0;
    for (i, w) in row.enumerate() {
        let over = w - model.limits[i];
        if over > 0 && model.tot[i] > 0 {
            e += over as f64 * model.nparts as f64 / model.tot[i] as f64;
        }
    }
    e
}

/// Recomputes `excess` for the rows of `parts` after they changed.
fn refresh_excess(model: &BalanceModel, pw: &[i64], excess: &mut [f64], parts: &[usize]) {
    let ncon = model.ncon;
    for &p in parts {
        excess[p] = normalised_excess(model, pw[p * ncon..(p + 1) * ncon].iter().copied());
    }
}

/// Tier-3 escape of [`rebalance`]: finds and applies one pairwise vertex
/// exchange between the violated part `vp` and any other part that strictly
/// reduces total normalised excess. Candidates are bounded deterministic
/// samples, the head of each part's member list (so the shuffled order):
/// vertices of `vp` carrying the violated constraint `vc`, against vertices
/// of every other part. Swaps keep per-part vertex counts unchanged, so the
/// caller's never-empty rule is unaffected. Returns whether a swap was
/// applied.
///
/// A `(v, q)` pair is skipped whole when a lower bound on the delta of
/// every swap of `v` with `q`'s sample cannot pass the acceptance test: the
/// excess is non-decreasing in each row entry, so giving `vp` the sample's
/// componentwise minimum and `q` its maximum bounds every member's delta
/// from below, exactly in floating point. The winner is the one the
/// unpruned search picks.
#[allow(clippy::too_many_arguments)]
fn swap_escape(
    graph: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    vp: usize,
    vc: usize,
    members: &mut Members,
    excess: &mut [f64],
) -> bool {
    const SRC_SAMPLE: usize = 32;
    const DEST_SAMPLE: usize = 32;
    let ncon = model.ncon();
    let nparts = model.nparts();
    let sample = |q: usize| {
        let list = &members.lists[q];
        &list[..list.len().min(DEST_SAMPLE)]
    };
    // Componentwise min and max of each destination sample's weights.
    let mut lo = vec![i64::MAX; nparts * ncon];
    let mut hi = vec![i64::MIN; nparts * ncon];
    for q in (0..nparts).filter(|&q| q != vp) {
        for &rank in sample(q) {
            for (i, &w) in graph.vwgt(members.vertex(rank)).iter().enumerate() {
                lo[q * ncon + i] = lo[q * ncon + i].min(w);
                hi[q * ncon + i] = hi[q * ncon + i].max(w);
            }
        }
    }
    let vp_row = &pw[vp * ncon..(vp + 1) * ncon];
    let src = members.lists[vp]
        .iter()
        .copied()
        .filter(|&rank| graph.vwgt(members.vertex(rank))[vc] > 0)
        .take(SRC_SAMPLE);
    let mut best: Option<(f64, u32, u32)> = None; // (delta, rank of v, rank of u)
    for rv in src {
        let vw = graph.vwgt(members.vertex(rv));
        for q in 0..nparts {
            let cands = sample(q);
            if q == vp || cands.is_empty() {
                continue;
            }
            let q_row = &pw[q * ncon..(q + 1) * ncon];
            let before = excess[vp] + excess[q];
            let (qlo, qhi) = (&lo[q * ncon..(q + 1) * ncon], &hi[q * ncon..(q + 1) * ncon]);
            let bound = normalised_excess(model, (0..ncon).map(|i| vp_row[i] - vw[i] + qlo[i]))
                + normalised_excess(model, (0..ncon).map(|i| q_row[i] - qhi[i] + vw[i]))
                - before;
            if bound >= -1e-12 || best.is_some_and(|(d, _, _)| bound >= d - 1e-12) {
                continue;
            }
            for &ru in cands {
                let uw = graph.vwgt(members.vertex(ru));
                let delta = normalised_excess(model, (0..ncon).map(|i| vp_row[i] - vw[i] + uw[i]))
                    + normalised_excess(model, (0..ncon).map(|i| q_row[i] - uw[i] + vw[i]))
                    - before;
                if delta < -1e-12 && best.is_none_or(|(d, _, _)| delta < d - 1e-12) {
                    best = Some((delta, rv, ru));
                }
            }
        }
    }
    let Some((_, rv, ru)) = best else {
        return false;
    };
    let (v, u) = (members.vertex(rv), members.vertex(ru));
    let q = assignment[u] as usize;
    apply_move(pw, ncon, graph.vwgt(v), vp, q);
    apply_move(pw, ncon, graph.vwgt(u), q, vp);
    assignment[v] = q as u32;
    assignment[u] = vp as u32;
    members.relocate(rv, vp, q);
    members.relocate(ru, q, vp);
    refresh_excess(model, pw, excess, &[vp, q]);
    true
}

/// The rebalancer as it was before the member lists, the hoisted excess
/// and the bound-pruned swap tier, kept word for word as an oracle: the
/// current [`rebalance`] must make exactly the choices this one makes. The
/// one addition counts applied swaps, so a test can show it reached the
/// swap tier.
#[cfg(test)]
mod reference {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Swaps applied by [`swap_escape`] on this thread.
        pub static SWAPS: Cell<usize> = const { Cell::new(0) };
    }

    /// Number of vertices assigned to each part.
    pub fn part_counts(assignment: &[u32], nparts: usize) -> Vec<u32> {
        let mut counts = vec![0u32; nparts];
        for &p in assignment {
            counts[p as usize] += 1;
        }
        counts
    }

    /// Greedy multi-constraint k-way balancing: while some part exceeds a cap,
    /// move the least-damaging vertex that carries the violated weight out of
    /// the worst-violated part into a part with room — and when no single move
    /// can reduce the violation (the multi-constraint wedge where every part is
    /// at cap on a different constraint), exchange a complementary pair of
    /// vertices instead ([`swap_escape`]).
    ///
    /// Edge-cut-increasing moves are permitted — restoring feasibility takes
    /// priority, exactly as in the serial algorithm. Returns `true` when the
    /// partition is within all caps on exit.
    pub fn rebalance(
        graph: &Graph,
        assignment: &mut [u32],
        pw: &mut [i64],
        model: &BalanceModel,
        rng: &mut Rng,
    ) -> bool {
        let ncon = graph.ncon();
        let nparts = model.nparts();
        // Enough rounds to drain realistic violations; each round moves one
        // vertex, so cap generously but finitely.
        let max_moves = 8 * graph.nvtxs().max(64);
        let mut conn: Vec<i64> = vec![0; nparts];
        let mut touched: Vec<usize> = Vec::new();
        let mut order: Vec<u32> = (0..graph.nvtxs() as u32).collect();
        order.shuffle(rng);
        // Maintained across moves so the never-empty-a-part rule is O(1).
        let mut counts = part_counts(assignment, nparts);

        let excess = |row: &[i64]| normalised_excess(model, row);

        for _ in 0..max_moves {
            let Some((vp, vc)) = model.worst_violation(pw) else {
                return true;
            };
            // Tier 1: the best-gain move into a destination that fully fits.
            // Tier 2 (fallback): the move that most reduces total normalised
            // excess — it may overload the destination slightly, but total
            // excess strictly decreases, so the loop always terminates.
            let mut best_fit: Option<(i64, usize, usize)> = None; // (gain, v, dest)
            let mut best_relax: Option<(f64, i64, usize, usize)> = None; // (delta, gain, v, dest)
                                                                         // A one-vertex part cannot shed weight without emptying itself.
            if counts[vp] <= 1 {
                return false;
            }
            for &v in &order {
                let v = v as usize;
                if assignment[v] as usize != vp {
                    continue;
                }
                let vw = graph.vwgt(v);
                if vw[vc] == 0 {
                    continue;
                }
                // Connectivity of v to each part.
                touched.clear();
                let mut internal = 0i64;
                for (u, w) in graph.edges(v) {
                    let pu = assignment[u as usize] as usize;
                    if pu == vp {
                        internal += w;
                    } else {
                        if conn[pu] == 0 {
                            touched.push(pu);
                        }
                        conn[pu] += w;
                    }
                }
                let consider = |b: usize,
                                best_fit: &mut Option<(i64, usize, usize)>,
                                best_relax: &mut Option<(f64, i64, usize, usize)>,
                                conn: &[i64]| {
                    let gain = conn[b] - internal;
                    let dest_row = &pw[b * ncon..(b + 1) * ncon];
                    if model.fits(dest_row, vw) {
                        if best_fit.is_none_or(|(g, _, _)| gain > g) {
                            *best_fit = Some((gain, v, b));
                        }
                    } else {
                        let src_row = &pw[vp * ncon..(vp + 1) * ncon];
                        let mut src_after = src_row.to_vec();
                        let mut dest_after = dest_row.to_vec();
                        for i in 0..ncon {
                            src_after[i] -= vw[i];
                            dest_after[i] += vw[i];
                        }
                        let delta = excess(&src_after) + excess(&dest_after)
                            - excess(src_row)
                            - excess(dest_row);
                        if delta < -1e-12
                            && best_relax.is_none_or(|(d, g, _, _)| {
                                delta < d - 1e-12 || ((delta - d).abs() <= 1e-12 && gain > g)
                            })
                        {
                            *best_relax = Some((delta, gain, v, b));
                        }
                    }
                };
                // Prefer parts v already touches; also scan all parts while no
                // fitting candidate has been found.
                for &b in &touched {
                    consider(b, &mut best_fit, &mut best_relax, &conn);
                }
                if best_fit.is_none() {
                    for b in 0..nparts {
                        if b != vp && !touched.contains(&b) {
                            consider(b, &mut best_fit, &mut best_relax, &conn);
                        }
                    }
                }
                for &b in &touched {
                    conn[b] = 0;
                }
                // A zero-damage boundary move is as good as it gets; stop early.
                if matches!(best_fit, Some((g, _, _)) if g >= 0) {
                    break;
                }
            }
            let chosen = match (best_fit, best_relax) {
                (Some((_, v, b)), _) => Some((v, b)),
                (None, Some((_, _, v, b))) => Some((v, b)),
                (None, None) => None,
            };
            match chosen {
                Some((v, dest)) => {
                    let from = assignment[v] as usize;
                    apply_move(pw, ncon, graph.vwgt(v), from, dest);
                    assignment[v] = dest as u32;
                    counts[from] -= 1;
                    counts[dest] += 1;
                }
                None => {
                    // Tier 3 (wedge breaker): every single move either fails the
                    // caps or shuffles excess around without reducing it — the
                    // multi-constraint deadlock where each part sits at its cap
                    // on a *different* constraint while far under on the others.
                    // Escaping it needs complementary weight vectors to trade
                    // places, which no sequence of single excess-decreasing
                    // moves can do: exchange a pair of vertices between the
                    // violated part and another part when the swap strictly
                    // reduces total normalised excess. Give up only when no
                    // sampled swap helps either.
                    if !swap_escape(graph, assignment, pw, model, vp, vc, &order) {
                        return false;
                    }
                }
            }
        }
        model.worst_violation(pw).is_none()
    }

    /// Normalised excess of one part row above its caps: the per-constraint
    /// overflow in units of the per-part average weight, summed. The quantity
    /// both rebalancing tiers drive monotonically to zero.
    fn normalised_excess(model: &BalanceModel, row: &[i64]) -> f64 {
        let mut e = 0.0;
        for (i, &w) in row.iter().enumerate() {
            let over = w - model.limits()[i];
            if over > 0 && model.totals()[i] > 0 {
                e += over as f64 * model.nparts() as f64 / model.totals()[i] as f64;
            }
        }
        e
    }

    /// Tier-3 escape of [`rebalance`]: finds and applies one pairwise vertex
    /// exchange between the violated part `vp` and any other part that strictly
    /// reduces total normalised excess. Candidates are bounded deterministic
    /// samples drawn in shuffled `order`: vertices of `vp` carrying the
    /// violated constraint `vc`, against vertices of every other part. Swaps
    /// keep per-part vertex counts unchanged, so the caller's never-empty
    /// bookkeeping is unaffected. Returns whether a swap was applied.
    fn swap_escape(
        graph: &Graph,
        assignment: &mut [u32],
        pw: &mut [i64],
        model: &BalanceModel,
        vp: usize,
        vc: usize,
        order: &[u32],
    ) -> bool {
        const SRC_SAMPLE: usize = 32;
        const DEST_SAMPLE: usize = 32;
        let ncon = model.ncon();
        let nparts = model.nparts();
        let mut src: Vec<usize> = Vec::with_capacity(SRC_SAMPLE);
        let mut dest: Vec<Vec<usize>> = vec![Vec::new(); nparts];
        let mut dest_full = 0usize;
        for &v in order {
            let v = v as usize;
            let p = assignment[v] as usize;
            if p == vp {
                if src.len() < SRC_SAMPLE && graph.vwgt(v)[vc] > 0 {
                    src.push(v);
                }
            } else if dest[p].len() < DEST_SAMPLE {
                dest[p].push(v);
                if dest[p].len() == DEST_SAMPLE {
                    dest_full += 1;
                }
            }
            if src.len() == SRC_SAMPLE && dest_full == nparts - 1 {
                break;
            }
        }
        let mut vp_after = vec![0i64; ncon];
        let mut q_after = vec![0i64; ncon];
        let mut best: Option<(f64, usize, usize)> = None; // (delta, v, u)
        for &v in &src {
            let vw = graph.vwgt(v);
            for (q, cands) in dest.iter().enumerate() {
                let q_row = &pw[q * ncon..(q + 1) * ncon];
                let vp_row = &pw[vp * ncon..(vp + 1) * ncon];
                let before = normalised_excess(model, vp_row) + normalised_excess(model, q_row);
                for &u in cands {
                    let uw = graph.vwgt(u);
                    for i in 0..ncon {
                        vp_after[i] = vp_row[i] - vw[i] + uw[i];
                        q_after[i] = q_row[i] - uw[i] + vw[i];
                    }
                    let delta = normalised_excess(model, &vp_after)
                        + normalised_excess(model, &q_after)
                        - before;
                    if delta < -1e-12 && best.is_none_or(|(d, _, _)| delta < d - 1e-12) {
                        best = Some((delta, v, u));
                    }
                }
            }
        }
        match best {
            Some((_, v, u)) => {
                SWAPS.with(|s| s.set(s.get() + 1));
                let q = assignment[u] as usize;
                apply_move(pw, ncon, graph.vwgt(v), vp, q);
                apply_move(pw, ncon, graph.vwgt(u), q, vp);
                assignment[v] = q as u32;
                assignment[u] = vp as u32;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::part_counts;
    use super::*;
    use mcgp_graph::generators::grid_2d;
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    #[test]
    fn part_weights_accumulate() {
        let g = synthetic::type1(&grid_2d(8, 8), 2, 1);
        let assignment = vec![0u32; 64];
        let pw = part_weights(&g, &assignment, 2);
        assert_eq!(&pw[0..2], g.total_vwgt().as_slice());
        assert_eq!(&pw[2..4], &[0, 0]);
    }

    #[test]
    fn limits_respect_tolerance_and_granularity() {
        // tot = 100 over 4 parts, avg 25, tol 4% -> soft 26; maxvw 10 ->
        // slack 35. Limit is the larger.
        let m = BalanceModel::from_parts(1, 4, vec![100], &[10], 0.04);
        assert_eq!(m.limits(), &[35]);
        // With a tiny max vertex the soft limit dominates.
        let m = BalanceModel::from_parts(1, 4, vec![100], &[1], 0.04);
        assert_eq!(m.limits(), &[26]);
    }

    #[test]
    fn limits_never_exceed_total() {
        let m = BalanceModel::from_parts(1, 2, vec![10], &[100], 0.05);
        assert_eq!(m.limits(), &[10]);
    }

    #[test]
    fn fits_and_is_balanced() {
        let m = BalanceModel::from_parts(2, 2, vec![10, 10], &[1, 1], 0.0);
        // limits: max(5, 6) = 6 for each constraint.
        assert!(m.fits(&[5, 5], &[1, 1]));
        assert!(!m.fits(&[6, 5], &[1, 1]));
        assert!(m.is_balanced(&[6, 6, 4, 4]));
        assert!(!m.is_balanced(&[7, 5, 3, 5]));
    }

    #[test]
    fn worst_violation_finds_largest_overload() {
        let m = BalanceModel::from_parts(2, 2, vec![10, 100], &[1, 1], 0.0);
        // limits ~ [6, 51]; part 0 violates both but constraint 1 overload
        // (90/50 = 1.8) exceeds constraint 0 (7/5 = 1.4).
        assert_eq!(m.worst_violation(&[7, 90, 3, 10]), Some((0, 1)));
        assert_eq!(m.worst_violation(&[5, 50, 5, 50]), None);
    }

    #[test]
    fn max_load_ignores_empty_constraints() {
        let m = BalanceModel::from_parts(2, 2, vec![10, 0], &[1, 0], 0.0);
        assert_eq!(m.max_load(&[5, 0, 5, 0]), 1.0);
        assert_eq!(m.max_load(&[10, 0, 0, 0]), 2.0);
    }

    #[test]
    fn apply_move_shifts_weight() {
        let mut pw = vec![5, 5, 0, 0];
        apply_move(&mut pw, 2, &[2, 3], 0, 1);
        assert_eq!(pw, vec![3, 2, 2, 3]);
    }

    #[test]
    fn rebalance_fixes_a_skewed_grid() {
        let g = grid_2d(8, 8);
        // Everything in part 0 of 2: grossly unbalanced.
        let mut assignment = vec![0u32; 64];
        let model = BalanceModel::new(&g, 2, 0.05);
        let mut pw = part_weights(&g, &assignment, 2);
        let mut rng = Rng::seed_from_u64(1);
        assert!(rebalance(&g, &mut assignment, &mut pw, &model, &mut rng));
        assert!(model.is_balanced(&pw));
        assert_eq!(
            pw,
            part_weights(&g, &assignment, 2),
            "pw bookkeeping drifted"
        );
    }

    #[test]
    fn rebalance_multi_constraint() {
        let g = synthetic::type2(&grid_2d(12, 12), 3, 5);
        let mut assignment: Vec<u32> = (0..144u32).map(|v| if v < 40 { 1 } else { 0 }).collect();
        let model = BalanceModel::new(&g, 4, 0.05);
        let mut pw = part_weights(&g, &assignment, 4);
        let mut rng = Rng::seed_from_u64(2);
        let ok = rebalance(&g, &mut assignment, &mut pw, &model, &mut rng);
        assert!(ok, "rebalance failed to reach feasibility");
        assert!(model.is_balanced(&pw));
    }

    #[test]
    fn part_counts_accumulate() {
        assert_eq!(part_counts(&[0, 2, 2, 1, 2], 4), vec![1, 1, 3, 0]);
    }

    #[test]
    fn rebalance_never_empties_a_part() {
        // Part 1 holds a single, grossly overweight vertex: rebalance must
        // refuse to move it out (and report failure) rather than empty the
        // part.
        let mut b = mcgp_graph::csr::GraphBuilder::new(4);
        b.weighted_edge(0, 1, 1)
            .weighted_edge(1, 2, 1)
            .weighted_edge(2, 3, 1)
            .vwgt(1, vec![1, 100, 1, 1]);
        let g = b.build().unwrap();
        let mut assignment = vec![0u32, 1, 0, 0];
        let model = BalanceModel::from_parts(1, 2, vec![103], &[1], 0.05);
        let mut pw = part_weights(&g, &assignment, 2);
        let mut rng = Rng::seed_from_u64(1);
        let ok = rebalance(&g, &mut assignment, &mut pw, &model, &mut rng);
        assert!(!ok);
        assert_eq!(part_counts(&assignment, 2)[1], 1, "part 1 was emptied");
    }

    #[test]
    fn rebalance_escapes_the_multiconstraint_wedge() {
        // Two parts, each at cap on a *different* constraint and well under
        // on the other. No single move helps: any vertex that sheds c0
        // overflow from part 0 adds at least as much c1 overflow to part 1,
        // so tiers 1-2 find nothing and only a pairwise exchange of
        // complementary vertices restores feasibility.
        let mut b = mcgp_graph::csr::GraphBuilder::new(10);
        for v in 0..9u32 {
            b.weighted_edge(v as usize, v as usize + 1, 1);
        }
        #[rustfmt::skip]
        b.vwgt(2, vec![
            2, 1,  2, 1,  2, 1,  2, 1,  1, 1, // part 0: pw (9, 5)
            1, 2,  1, 2,  1, 2,  1, 2,  1, 1, // part 1: pw (5, 9)
        ]);
        let g = b.build().unwrap();
        let mut assignment = vec![0u32, 0, 0, 0, 0, 1, 1, 1, 1, 1];
        let model = BalanceModel::from_parts(2, 2, vec![14, 14], &[1, 1], 0.1);
        assert_eq!(model.limits(), &[8, 8]);
        let mut pw = part_weights(&g, &assignment, 2);
        assert_eq!(pw, vec![9, 5, 5, 9]);
        let mut rng = Rng::seed_from_u64(5);
        let ok = rebalance(&g, &mut assignment, &mut pw, &model, &mut rng);
        assert!(ok, "wedge not escaped");
        assert!(model.is_balanced(&pw));
        assert_eq!(
            pw,
            part_weights(&g, &assignment, 2),
            "pw bookkeeping drifted"
        );
    }

    #[test]
    fn rebalance_noop_when_already_balanced() {
        let g = grid_2d(8, 8);
        let mut assignment: Vec<u32> = (0..64u32).map(|v| v % 8 / 4).collect();
        let model = BalanceModel::new(&g, 2, 0.05);
        let mut pw = part_weights(&g, &assignment, 2);
        let before = assignment.clone();
        let mut rng = Rng::seed_from_u64(3);
        assert!(rebalance(&g, &mut assignment, &mut pw, &model, &mut rng));
        assert_eq!(before, assignment);
    }

    /// One oracle input: a graph, a starting assignment and a model.
    struct OracleCase {
        name: String,
        graph: Graph,
        assignment: Vec<u32>,
        model: BalanceModel,
    }

    impl OracleCase {
        fn new(name: String, graph: Graph, assignment: Vec<u32>, nparts: usize, tol: f64) -> Self {
            let model = BalanceModel::new(&graph, nparts, tol);
            OracleCase {
                name,
                graph,
                assignment,
                model,
            }
        }
    }

    /// A skewed random assignment: part `⌊k·x^skew⌋` for uniform `x`, so
    /// low parts are overloaded and high parts thin or empty.
    fn skewed_assignment(n: usize, nparts: usize, skew: i32, rng: &mut Rng) -> Vec<u32> {
        (0..n)
            .map(|_| ((rng.gen_f64().powi(skew) * nparts as f64) as usize).min(nparts - 1) as u32)
            .collect()
    }

    /// Meshes and grids of both problem types at every constraint count
    /// and part count, from skewed random starts, plus the edge inputs:
    /// an all-zero constraint column, a one-vertex overloaded part and the
    /// wedge fixture.
    fn oracle_cases() -> Vec<OracleCase> {
        let mut rng = Rng::seed_from_u64(0x0a11_ba1a);
        let mesh = mcgp_graph::generators::mrng_like(700, 3);
        let grid = grid_2d(24, 24);
        let mut cases = Vec::new();
        for (shape, base) in [("mesh", &mesh), ("grid", &grid)] {
            for ncon in 1..=5 {
                for (ty, g) in [
                    ("type1", synthetic::type1(base, ncon, ncon as u64)),
                    ("type2", synthetic::type2(base, ncon, ncon as u64)),
                ] {
                    for nparts in [2, 7, 16, 64] {
                        let skew = rng.gen_range(1..4);
                        let tol = [0.0, 0.02, 0.05, 0.3][rng.gen_range(0..4)];
                        let assignment = skewed_assignment(g.nvtxs(), nparts, skew, &mut rng);
                        cases.push(OracleCase::new(
                            format!("{shape} {ty} ncon={ncon} k={nparts} skew={skew} tol={tol}"),
                            g.clone(),
                            assignment,
                            nparts,
                            tol,
                        ));
                    }
                }
            }
        }

        // Constraint 1 weighs nothing anywhere.
        let g = synthetic::type1(&grid, 3, 9);
        let vwgt: Vec<i64> = g
            .vwgt_flat()
            .chunks_exact(3)
            .flat_map(|w| [w[0], 0, w[2]])
            .collect();
        let g = g.with_vwgt(3, vwgt).unwrap();
        for nparts in [2, 7, 16] {
            let assignment = skewed_assignment(g.nvtxs(), nparts, 2, &mut rng);
            cases.push(OracleCase::new(
                format!("zero column k={nparts}"),
                g.clone(),
                assignment,
                nparts,
                0.05,
            ));
        }

        // One heavy vertex alone in an overloaded part, less overloaded
        // than the crowded parts at first. The caps leave out the heavy
        // vertex's granularity slack, so its part stays over them.
        let mut vwgt = synthetic::type1(&grid, 2, 4).vwgt_flat().to_vec();
        let maxvw = [0, 1].map(|i| vwgt.iter().skip(i).step_by(2).copied().max().unwrap());
        vwgt[2 * 100..2 * 100 + 2].copy_from_slice(&[2400, 2400]);
        let g = grid.clone().with_vwgt(2, vwgt).unwrap();
        let mut assignment = skewed_assignment(g.nvtxs(), 2, 1, &mut rng);
        assignment[100] = 2;
        let model = BalanceModel::from_parts(2, 4, g.total_vwgt(), &maxvw, 0.05);
        cases.push(OracleCase {
            name: "one-vertex part".into(),
            graph: g,
            assignment,
            model,
        });

        // The two-part wedge of `rebalance_escapes_the_multiconstraint_wedge`.
        let mut b = mcgp_graph::csr::GraphBuilder::new(10);
        for v in 0..9usize {
            b.weighted_edge(v, v + 1, 1);
        }
        #[rustfmt::skip]
        b.vwgt(2, vec![
            2, 1,  2, 1,  2, 1,  2, 1,  1, 1,
            1, 2,  1, 2,  1, 2,  1, 2,  1, 1,
        ]);
        let g = b.build().unwrap();
        let model = BalanceModel::from_parts(2, 2, vec![14, 14], &[1, 1], 0.1);
        cases.push(OracleCase {
            name: "wedge".into(),
            graph: g,
            assignment: vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
            model,
        });
        cases
    }

    #[test]
    fn rebalance_makes_the_reference_choices() {
        reference::SWAPS.with(|s| s.set(0));
        for case in oracle_cases() {
            let g = &case.graph;
            let nparts = case.model.nparts();
            for seed in [1u64, 2] {
                let mut want = case.assignment.clone();
                let mut want_pw = part_weights(g, &want, nparts);
                let mut want_rng = Rng::seed_from_u64(seed);
                let want_ok =
                    reference::rebalance(g, &mut want, &mut want_pw, &case.model, &mut want_rng);

                let mut got = case.assignment.clone();
                let mut got_pw = part_weights(g, &got, nparts);
                let mut got_rng = Rng::seed_from_u64(seed);
                let got_ok = rebalance(g, &mut got, &mut got_pw, &case.model, &mut got_rng);

                let name = &case.name;
                assert_eq!(got, want, "{name} seed {seed}: assignment");
                assert_eq!(got_pw, want_pw, "{name} seed {seed}: part weights");
                assert_eq!(got_ok, want_ok, "{name} seed {seed}: return value");
                assert_eq!(
                    got_rng.state(),
                    want_rng.state(),
                    "{name} seed {seed}: RNG draws"
                );
            }
        }
        let swaps = reference::SWAPS.with(|s| s.get());
        assert!(swaps > 0, "no case reached the swap tier");
    }
}
