//! Multi-constraint 2-way FM refinement — the SC'98 generalisation of
//! Fiduccia–Mattheyses used both to polish initial bisections and during the
//! uncoarsening phase of recursive bisection.
//!
//! The classic single-constraint FM keeps one gain queue per side; the
//! multi-constraint variant keeps **2·m queues** (side × constraint), filing
//! each vertex under its *dominant* constraint (the largest component of its
//! normalised weight vector). Each step picks the queue whose move most
//! helps the currently worst-balanced constraint, tentatively applies the
//! best-gain move from it, and at the end of a pass rolls back to the best
//! prefix — where "best" prefers feasible states, then lower cut, then lower
//! load. Hill-climbing through negative-gain moves (bounded by a window) is
//! what lets FM escape local minima.
//!
//! A call's buffers live in an [`FmWorkspace`] that callers making many
//! calls (every level of a multilevel bisection, every try of an initial
//! bisection) reuse. Gains are counted once per call and then kept exact
//! through every move and rollback, so a pass only reshuffles, refills the
//! queues and unlocks what the previous pass moved. The moves, their order
//! and the RNG draws are exactly those of recounting every gain each pass;
//! a test holds them to a kept copy of that code.

use crate::config::PartitionConfig;
use crate::pqueue::IndexedMaxHeap;
use mcgp_graph::Graph;
use mcgp_runtime::rng::SliceRandom;
use mcgp_runtime::rng::Rng;

/// Balance bookkeeping for a (possibly uneven) bisection with target
/// fractions `(f0, f1)`, `f0 + f1 = 1`.
#[derive(Clone, Debug)]
pub struct TwoWayBalance {
    ncon: usize,
    tot: Vec<i64>,
    /// `caps[side * ncon + i]`: hard cap on side weight.
    caps: Vec<i64>,
    /// `target[side * ncon + i]`: ideal side weight as a float.
    target: Vec<f64>,
}

impl TwoWayBalance {
    /// Builds the model from the graph being bisected.
    pub fn new(graph: &Graph, fractions: (f64, f64), tol: f64) -> Self {
        let ncon = graph.ncon();
        let tot = graph.total_vwgt();
        let mut maxvw = vec![0i64; ncon];
        for v in 0..graph.nvtxs() {
            for (i, &w) in graph.vwgt(v).iter().enumerate() {
                maxvw[i] = maxvw[i].max(w);
            }
        }
        let mut caps = vec![0i64; 2 * ncon];
        let mut target = vec![0f64; 2 * ncon];
        for (s, f) in [(0usize, fractions.0), (1usize, fractions.1)] {
            for i in 0..ncon {
                let ideal = f * tot[i] as f64;
                target[s * ncon + i] = ideal;
                let soft = (1.0 + tol) * ideal;
                let slack = ideal + maxvw[i] as f64;
                caps[s * ncon + i] = (soft.max(slack).ceil() as i64).min(tot[i]);
            }
        }
        TwoWayBalance {
            ncon,
            tot,
            caps,
            target,
        }
    }

    /// Number of constraints.
    #[inline]
    pub fn ncon(&self) -> usize {
        self.ncon
    }

    /// Flattened `2 × ncon` per-side caps (side 0 first).
    #[inline]
    pub fn caps(&self) -> &[i64] {
        &self.caps
    }

    /// Side weights (`2 * ncon` flattened) for an assignment.
    pub fn side_weights(&self, graph: &Graph, side: &[u32]) -> Vec<i64> {
        let mut sw = vec![0i64; 2 * self.ncon];
        for (v, &s) in side.iter().enumerate() {
            let s = s as usize;
            for (i, &w) in graph.vwgt(v).iter().enumerate() {
                sw[s * self.ncon + i] += w;
            }
        }
        sw
    }

    /// True when both sides respect every constraint's cap.
    pub fn is_feasible(&self, sw: &[i64]) -> bool {
        sw.iter().zip(self.caps.iter()).all(|(w, c)| w <= c)
    }

    /// Worst relative load `sw / target` over sides and constraints.
    pub fn load(&self, sw: &[i64]) -> f64 {
        let mut worst: f64 = 1.0;
        for (idx, &w) in sw.iter().enumerate() {
            if self.target[idx] > 0.0 {
                worst = worst.max(w as f64 / self.target[idx]);
            }
        }
        worst
    }

    /// The `(side, constraint)` with the worst relative load.
    fn worst_loaded(&self, sw: &[i64]) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        let mut worst = f64::NEG_INFINITY;
        for s in 0..2 {
            for i in 0..self.ncon {
                let idx = s * self.ncon + i;
                if self.target[idx] > 0.0 {
                    let l = sw[idx] as f64 / self.target[idx];
                    if l > worst {
                        worst = l;
                        best = (s, i);
                    }
                }
            }
        }
        best
    }

    /// True if moving weight `vw` from `from` to `1-from` keeps the
    /// destination under its caps.
    fn move_fits(&self, sw: &[i64], vw: &[i64], from: usize) -> bool {
        let to = 1 - from;
        (0..self.ncon).all(|i| sw[to * self.ncon + i] + vw[i] <= self.caps[to * self.ncon + i])
    }

    /// Dominant constraint of a weight vector under this model's totals.
    fn dominant(&self, vw: &[i64]) -> usize {
        let mut best = 0usize;
        let mut bestval = f64::NEG_INFINITY;
        for (i, &w) in vw.iter().enumerate() {
            if self.tot[i] > 0 {
                let x = w as f64 / self.tot[i] as f64;
                if x > bestval {
                    bestval = x;
                    best = i;
                }
            }
        }
        best
    }
}

/// Result statistics of an FM refinement call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FmStats {
    /// Edge-cut after refinement.
    pub cut: i64,
    /// Total vertices moved (net, after rollbacks).
    pub moves: usize,
    /// Number of passes executed.
    pub passes: usize,
}

/// Buffers of one 2-way FM call, kept so that repeated calls — every level
/// of one multilevel bisection, every try of one initial bisection —
/// allocate them once. Nothing carries over between calls: each call
/// rebuilds every field for its own graph.
#[derive(Debug, Default)]
pub(crate) struct FmWorkspace {
    /// `gains[v]`: cut decrease if `v` switched sides, exact at every pass
    /// start (a move updates every neighbour, locked or not).
    gains: Vec<i64>,
    locked: Vec<bool>,
    /// `dominant[v]`: the constraint whose queue `v` is filed under.
    dominant: Vec<u32>,
    /// Queue fill order, reshuffled (not reset) every pass.
    order: Vec<u32>,
    /// Tentative moves of the current pass; the next pass unlocks them.
    seq: Vec<u32>,
    /// `queues[side * ncon + c]`.
    queues: Vec<IndexedMaxHeap>,
}

impl FmWorkspace {
    /// Sizes every buffer for `graph` and fills gains, dominant
    /// constraints and the identity order. Returns the cut of `side`.
    fn prepare(&mut self, graph: &Graph, side: &[u32], bal: &TwoWayBalance) -> i64 {
        let n = graph.nvtxs();
        self.gains.clear();
        self.dominant.clear();
        self.locked.clear();
        self.locked.resize(n, false);
        self.order.clear();
        self.order.extend(0..n as u32);
        self.seq.clear();
        self.queues
            .resize_with(2 * bal.ncon, || IndexedMaxHeap::new(0));
        for q in &mut self.queues {
            q.reset(n);
        }
        let mut cut2 = 0i64;
        for v in 0..n {
            let sv = side[v];
            let (mut external, mut internal) = (0i64, 0i64);
            for (u, w) in graph.edges(v) {
                if side[u as usize] == sv {
                    internal += w;
                } else {
                    external += w;
                }
            }
            cut2 += external;
            self.gains.push(external - internal);
            self.dominant.push(bal.dominant(graph.vwgt(v)) as u32);
        }
        cut2 / 2
    }

    /// Switches `v` to the other side and keeps every gain exact: `v`'s
    /// own gain changes sign, and each neighbour's changes by twice the
    /// edge weight. Undoing a move is the same operation.
    #[inline]
    fn flip(&mut self, graph: &Graph, side: &mut [u32], v: usize) {
        side[v] ^= 1;
        self.gains[v] = -self.gains[v];
        for (u, w) in graph.edges(v) {
            let u = u as usize;
            self.gains[u] += if side[u] == side[v] { -2 * w } else { 2 * w };
        }
    }
}

/// True when `gains` equals a recount from `side`.
fn gains_match_recount(graph: &Graph, side: &[u32], gains: &[i64]) -> bool {
    (0..graph.nvtxs()).all(|v| {
        let g: i64 = graph
            .edges(v)
            .map(|(u, w)| if side[u as usize] == side[v] { -w } else { w })
            .sum();
        g == gains[v]
    })
}

/// Runs multi-constraint 2-way FM on `side` (entries 0/1), in place.
///
/// `fractions` are the target weight fractions of sides 0 and 1 (recursive
/// bisection uses uneven fractions for odd part counts). Returns the final
/// cut and move statistics.
///
/// ```
/// use mcgp_core::{fm2way::fm_refine_bisection, PartitionConfig};
/// use mcgp_graph::generators::grid_2d;
/// use mcgp_runtime::rng::Rng;
///
/// let g = grid_2d(8, 8);
/// // A deliberately bad alternating split...
/// let mut side: Vec<u32> = (0..64).map(|v| (v % 2) as u32).collect();
/// let mut rng = Rng::seed_from_u64(1);
/// let stats = fm_refine_bisection(&g, &mut side, (0.5, 0.5), &PartitionConfig::default(), &mut rng);
/// // ...is repaired to something near the optimal 8-edge cut.
/// assert!(stats.cut <= 16);
/// ```
pub fn fm_refine_bisection(
    graph: &Graph,
    side: &mut [u32],
    fractions: (f64, f64),
    config: &PartitionConfig,
    rng: &mut Rng,
) -> FmStats {
    let bal = TwoWayBalance::new(graph, fractions, config.imbalance_tol);
    fm_refine_with(graph, side, &bal, config, rng, &mut FmWorkspace::default())
}

/// [`fm_refine_bisection`] under a prebuilt balance model, in the buffers
/// of `ws`. `config` supplies the pass count and the hill-climbing window.
pub(crate) fn fm_refine_with(
    graph: &Graph,
    side: &mut [u32],
    bal: &TwoWayBalance,
    config: &PartitionConfig,
    rng: &mut Rng,
    ws: &mut FmWorkspace,
) -> FmStats {
    let n = graph.nvtxs();
    let ncon = graph.ncon();
    let mut sw = bal.side_weights(graph, side);
    let mut cut = ws.prepare(graph, side, bal);
    let mut total_moves = 0usize;
    let mut passes = 0usize;

    for pass in 0..config.fm_passes {
        passes += 1;
        let mut sp = mcgp_runtime::span!("fm_pass", pass = pass, nvtxs = n, cut_before = cut);
        // Gains are exact from the last pass; refill the queues in random
        // order and unlock what the last pass moved.
        debug_assert!(
            gains_match_recount(graph, side, &ws.gains),
            "kept gains drifted from a recount"
        );
        ws.order.shuffle(rng);
        for q in ws.queues.iter_mut() {
            q.clear();
        }
        for &v in &ws.seq {
            ws.locked[v as usize] = false;
        }
        ws.seq.clear();
        for &v in &ws.order {
            let v = v as usize;
            let q = side[v] as usize * ncon + ws.dominant[v] as usize;
            ws.queues[q].insert(v as u32, ws.gains[v]);
        }

        // Tentative move sequence with best-prefix rollback.
        let mut best_prefix = 0usize;
        let mut best_cut = cut;
        let mut best_feasible = bal.is_feasible(&sw);
        let mut best_load = bal.load(&sw);
        let mut since_best = 0usize;

        while let Some(v) = select_move(bal, &sw, &mut ws.queues, graph, ncon) {
            let v = v as usize;
            let from = side[v] as usize;
            let vw = graph.vwgt(v);
            // Apply tentatively.
            for i in 0..ncon {
                sw[from * ncon + i] -= vw[i];
                sw[(1 - from) * ncon + i] += vw[i];
            }
            cut -= ws.gains[v];
            side[v] ^= 1;
            ws.gains[v] = -ws.gains[v];
            ws.locked[v] = true;
            ws.seq.push(v as u32);
            // Neighbour gain updates, as in `FmWorkspace::flip`. Locked
            // neighbours keep exact gains too but stay out of the queues.
            for (u, w) in graph.edges(v) {
                let u = u as usize;
                // v flipped sides: the u-v contribution to gain(u) flips.
                ws.gains[u] += if side[u] == side[v] { -2 * w } else { 2 * w };
                if ws.locked[u] {
                    continue;
                }
                let q = side[u] as usize * ncon + ws.dominant[u] as usize;
                if ws.queues[q].contains(u as u32) {
                    ws.queues[q].update(u as u32, ws.gains[u]);
                }
            }
            // Track the best prefix: feasibility first, then cut, then load.
            let feasible = bal.is_feasible(&sw);
            let load = bal.load(&sw);
            let better = match (feasible, best_feasible) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => cut < best_cut || (cut == best_cut && load < best_load),
                (false, false) => {
                    load < best_load - 1e-12
                        || ((load - best_load).abs() <= 1e-12 && cut < best_cut)
                }
            };
            if better {
                best_prefix = ws.seq.len();
                best_cut = cut;
                best_feasible = feasible;
                best_load = load;
                since_best = 0;
            } else {
                since_best += 1;
                if since_best > config.fm_window {
                    break;
                }
            }
        }

        // Roll back past the best prefix, newest move first, so each undo
        // restores the gains the move changed.
        for k in (best_prefix..ws.seq.len()).rev() {
            let v = ws.seq[k] as usize;
            let cur = side[v] as usize;
            let vw = graph.vwgt(v);
            for i in 0..ncon {
                sw[cur * ncon + i] -= vw[i];
                sw[(1 - cur) * ncon + i] += vw[i];
            }
            ws.flip(graph, side, v);
        }
        cut = best_cut;
        total_moves += best_prefix;
        debug_assert_eq!(cut, cut_of(graph, side), "cut bookkeeping drifted");

        sp.record("tentative_moves", ws.seq.len());
        sp.record("kept_moves", best_prefix);
        sp.record("cut_after", cut);
        drop(sp);
        if best_prefix == 0 {
            break; // local minimum
        }
    }
    FmStats {
        cut,
        moves: total_moves,
        passes,
    }
}

/// Picks the next tentative move: prefer the queue of the worst-loaded
/// (side, constraint); fall back to any queue of that side, then the other
/// side. Vertices whose move would overflow the destination are discarded
/// for the rest of the pass (standard FM semantics).
fn select_move(
    bal: &TwoWayBalance,
    sw: &[i64],
    queues: &mut [IndexedMaxHeap],
    graph: &Graph,
    ncon: usize,
) -> Option<u32> {
    let (ws, wc) = bal.worst_loaded(sw);
    // Queue preference order: worst (side, constraint), then the rest of
    // that side by top gain, then the other side by top gain.
    let candidates = std::iter::once(ws * ncon + wc)
        .chain((0..ncon).filter(|&c| c != wc).map(|c| ws * ncon + c))
        .chain((0..ncon).map(|c| (1 - ws) * ncon + c));
    for q in candidates {
        let side_of_q = q / ncon;
        while let Some((v, _)) = queues[q].pop() {
            if bal.move_fits(sw, graph.vwgt(v as usize), side_of_q) {
                return Some(v);
            }
            // Discarded: stays out of every queue for this pass.
        }
    }
    None
}

/// Edge-cut of a two-way assignment.
pub fn cut_of(graph: &Graph, side: &[u32]) -> i64 {
    let mut cut = 0i64;
    for v in 0..graph.nvtxs() {
        for (u, w) in graph.edges(v) {
            if side[u as usize] != side[v] {
                cut += w;
            }
        }
    }
    cut / 2
}

/// 2-way FM as it was before the workspace and the kept gains, kept word
/// for word as an oracle: [`fm_refine_bisection`] must make exactly the
/// moves this one makes, in the same order, with the same RNG draws.
#[cfg(test)]
mod reference {
    use super::{cut_of, FmStats, TwoWayBalance};
    use crate::config::PartitionConfig;
    use crate::pqueue::reference::IndexedMaxHeap;
    use mcgp_graph::Graph;
    use mcgp_runtime::rng::Rng;
    use mcgp_runtime::rng::SliceRandom;
    use std::cell::Cell;

    thread_local! {
        /// Moves undone by rollbacks on this thread.
        pub static ROLLED_BACK: Cell<usize> = const { Cell::new(0) };
    }

    /// Runs multi-constraint 2-way FM on `side` (entries 0/1), in place.
    ///
    /// `fractions` are the target weight fractions of sides 0 and 1 (recursive
    /// bisection uses uneven fractions for odd part counts). Returns the final
    /// cut and move statistics.
    pub fn fm_refine_bisection(
        graph: &Graph,
        side: &mut [u32],
        fractions: (f64, f64),
        config: &PartitionConfig,
        rng: &mut Rng,
    ) -> FmStats {
        let n = graph.nvtxs();
        let ncon = graph.ncon();
        let bal = TwoWayBalance::new(graph, fractions, config.imbalance_tol);
        let mut sw = bal.side_weights(graph, side);
        let mut cut = cut_of(graph, side);
        let mut gains: Vec<i64> = vec![0; n];
        let mut locked: Vec<bool> = vec![false; n];
        let mut queues: Vec<IndexedMaxHeap> =
            (0..2 * ncon).map(|_| IndexedMaxHeap::new(n)).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut total_moves = 0usize;
        let mut passes = 0usize;

        for pass in 0..config.fm_passes {
            passes += 1;
            let mut sp = mcgp_runtime::span!("fm_pass", pass = pass, nvtxs = n, cut_before = cut);
            // (Re)compute gains and fill queues in random order.
            order.shuffle(rng);
            for q in queues.iter_mut() {
                q.clear();
            }
            for v in 0..n {
                locked[v] = false;
                let sv = side[v];
                let mut g = 0i64;
                for (u, w) in graph.edges(v) {
                    if side[u as usize] == sv {
                        g -= w;
                    } else {
                        g += w;
                    }
                }
                gains[v] = g;
            }
            for &v in &order {
                let v = v as usize;
                let q = side[v] as usize * ncon + bal.dominant(graph.vwgt(v));
                queues[q].insert(v as u32, gains[v]);
            }

            // Tentative move sequence with best-prefix rollback.
            let mut seq: Vec<u32> = Vec::new();
            let mut best_prefix = 0usize;
            let mut best_cut = cut;
            let mut best_feasible = bal.is_feasible(&sw);
            let mut best_load = bal.load(&sw);
            let mut since_best = 0usize;

            while let Some(v) = select_move(&bal, &sw, &mut queues, graph, ncon) {
                let from = side[v as usize] as usize;
                let vw = graph.vwgt(v as usize);
                // Apply tentatively.
                for i in 0..ncon {
                    sw[from * ncon + i] -= vw[i];
                    sw[(1 - from) * ncon + i] += vw[i];
                }
                cut -= gains[v as usize];
                side[v as usize] = 1 - from as u32;
                locked[v as usize] = true;
                seq.push(v);
                // Neighbour gain updates.
                for (u, w) in graph.edges(v as usize) {
                    let u = u as usize;
                    if locked[u] {
                        continue;
                    }
                    // v flipped sides: the u-v contribution to gain(u) flips.
                    let delta = if side[u] == side[v as usize] {
                        -2 * w
                    } else {
                        2 * w
                    };
                    gains[u] += delta;
                    let q = side[u] as usize * ncon + bal.dominant(graph.vwgt(u));
                    if queues[q].contains(u as u32) {
                        queues[q].update(u as u32, gains[u]);
                    }
                }
                // Track the best prefix: feasibility first, then cut, then load.
                let feasible = bal.is_feasible(&sw);
                let load = bal.load(&sw);
                let better = match (feasible, best_feasible) {
                    (true, false) => true,
                    (false, true) => false,
                    (true, true) => cut < best_cut || (cut == best_cut && load < best_load),
                    (false, false) => {
                        load < best_load - 1e-12
                            || ((load - best_load).abs() <= 1e-12 && cut < best_cut)
                    }
                };
                if better {
                    best_prefix = seq.len();
                    best_cut = cut;
                    best_feasible = feasible;
                    best_load = load;
                    since_best = 0;
                } else {
                    since_best += 1;
                    if since_best > config.fm_window {
                        break;
                    }
                }
            }

            // Roll back past the best prefix.
            for &v in seq[best_prefix..].iter().rev() {
                let cur = side[v as usize] as usize;
                let vw = graph.vwgt(v as usize);
                for i in 0..ncon {
                    sw[cur * ncon + i] -= vw[i];
                    sw[(1 - cur) * ncon + i] += vw[i];
                }
                side[v as usize] = 1 - cur as u32;
            }
            ROLLED_BACK.with(|r| r.set(r.get() + seq.len() - best_prefix));
            cut = best_cut;
            total_moves += best_prefix;
            debug_assert_eq!(cut, cut_of(graph, side), "cut bookkeeping drifted");

            sp.record("tentative_moves", seq.len());
            sp.record("kept_moves", best_prefix);
            sp.record("cut_after", cut);
            drop(sp);
            if best_prefix == 0 {
                break; // local minimum
            }
        }
        FmStats {
            cut,
            moves: total_moves,
            passes,
        }
    }

    /// Picks the next tentative move: prefer the queue of the worst-loaded
    /// (side, constraint); fall back to any queue of that side, then the other
    /// side. Vertices whose move would overflow the destination are discarded
    /// for the rest of the pass (standard FM semantics).
    fn select_move(
        bal: &TwoWayBalance,
        sw: &[i64],
        queues: &mut [IndexedMaxHeap],
        graph: &Graph,
        ncon: usize,
    ) -> Option<u32> {
        let (ws, wc) = bal.worst_loaded(sw);
        // Queue preference order: worst (side, constraint), then the rest of
        // that side by top gain, then the other side by top gain.
        let mut candidates: Vec<usize> = Vec::with_capacity(2 * ncon);
        candidates.push(ws * ncon + wc);
        for c in 0..ncon {
            if c != wc {
                candidates.push(ws * ncon + c);
            }
        }
        for c in 0..ncon {
            candidates.push((1 - ws) * ncon + c);
        }
        for q in candidates {
            let side_of_q = q / ncon;
            while let Some((v, _)) = queues[q].peek() {
                queues[q].pop();
                if bal.move_fits(sw, graph.vwgt(v as usize), side_of_q) {
                    return Some(v);
                }
                // Discarded: stays out of every queue for this pass.
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::grid_2d;
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    fn random_side(n: usize, seed: u64) -> Vec<u32> {
        let mut r = rng(seed);
        (0..n).map(|_| r.gen_range(0..2u32)).collect()
    }

    #[test]
    fn improves_random_bisection_of_grid() {
        let g = grid_2d(16, 16);
        let mut side = random_side(256, 1);
        let before = cut_of(&g, &side);
        let cfg = PartitionConfig::default();
        let stats = fm_refine_bisection(&g, &mut side, (0.5, 0.5), &cfg, &mut rng(2));
        assert_eq!(stats.cut, cut_of(&g, &side));
        assert!(
            stats.cut < before,
            "no improvement: {} -> {}",
            before,
            stats.cut
        );
        // A 16x16 grid has a 16-cut bisection; FM from random should get
        // within a small factor.
        assert!(stats.cut <= 48, "cut {} far from optimal", stats.cut);
        let bal = TwoWayBalance::new(&g, (0.5, 0.5), cfg.imbalance_tol);
        assert!(bal.is_feasible(&bal.side_weights(&g, &side)));
    }

    #[test]
    fn respects_multi_constraint_balance() {
        let g = synthetic::type1(&grid_2d(16, 16), 3, 5);
        let mut side = random_side(256, 3);
        let cfg = PartitionConfig::default();
        fm_refine_bisection(&g, &mut side, (0.5, 0.5), &cfg, &mut rng(4));
        let bal = TwoWayBalance::new(&g, (0.5, 0.5), cfg.imbalance_tol);
        let sw = bal.side_weights(&g, &side);
        assert!(bal.is_feasible(&sw), "infeasible final state: {:?}", sw);
    }

    #[test]
    fn type2_zero_weight_constraints_handled() {
        let g = synthetic::type2(&grid_2d(16, 16), 5, 7);
        let mut side = random_side(256, 5);
        let cfg = PartitionConfig::default();
        let stats = fm_refine_bisection(&g, &mut side, (0.5, 0.5), &cfg, &mut rng(6));
        assert_eq!(stats.cut, cut_of(&g, &side));
    }

    #[test]
    fn uneven_fractions_respected() {
        let g = grid_2d(20, 20);
        let mut side = random_side(400, 7);
        let cfg = PartitionConfig::default();
        fm_refine_bisection(&g, &mut side, (0.25, 0.75), &cfg, &mut rng(8));
        let bal = TwoWayBalance::new(&g, (0.25, 0.75), cfg.imbalance_tol);
        let sw = bal.side_weights(&g, &side);
        assert!(bal.is_feasible(&sw));
        let s0 = sw[0] as f64 / 400.0;
        assert!((s0 - 0.25).abs() < 0.08, "side 0 fraction {s0}");
    }

    #[test]
    fn already_optimal_bisection_untouched_cut() {
        let g = grid_2d(8, 8);
        // Perfect vertical split: cut 8.
        let mut side: Vec<u32> = (0..64).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect();
        let cfg = PartitionConfig::default();
        let stats = fm_refine_bisection(&g, &mut side, (0.5, 0.5), &cfg, &mut rng(9));
        assert!(stats.cut <= 8);
    }

    #[test]
    fn recovers_feasibility_from_skewed_start() {
        let g = grid_2d(12, 12);
        // 80/20 split: infeasible at 5%.
        let mut side: Vec<u32> = (0..144).map(|v| if v < 115 { 0 } else { 1 }).collect();
        let cfg = PartitionConfig::default();
        fm_refine_bisection(&g, &mut side, (0.5, 0.5), &cfg, &mut rng(10));
        let bal = TwoWayBalance::new(&g, (0.5, 0.5), cfg.imbalance_tol);
        assert!(bal.is_feasible(&bal.side_weights(&g, &side)));
    }

    #[test]
    fn stats_cut_matches_recount_across_seeds() {
        let g = synthetic::type1(&grid_2d(10, 10), 2, 11);
        let cfg = PartitionConfig::default();
        for s in 0..6 {
            let mut side = random_side(100, s);
            let stats = fm_refine_bisection(&g, &mut side, (0.5, 0.5), &cfg, &mut rng(s));
            assert_eq!(stats.cut, cut_of(&g, &side), "seed {s}");
        }
    }

    /// A small R-MAT graph with its isolated vertices kept and edge
    /// weights drawn from `0..4`, so some edges weigh nothing.
    fn weighted_rmat(seed: u64) -> Graph {
        let g = mcgp_graph::generators::rmat_default(9, 4, seed);
        let mut r = rng(seed ^ 0xfeed);
        let mut b = mcgp_graph::csr::GraphBuilder::new(g.nvtxs());
        for v in 0..g.nvtxs() {
            for (u, _) in g.edges(v) {
                if (u as usize) > v {
                    b.weighted_edge(v, u as usize, r.gen_range(0..4i64));
                }
            }
        }
        let g = b.build().unwrap();
        assert!(
            (0..g.nvtxs()).any(|v| g.degree(v) == 0),
            "no isolated vertex"
        );
        assert!(g.adjwgt().contains(&0), "no zero-weight edge");
        g
    }

    /// `graph` with `ncon` type-1 (or, when `type2`, type-2) weights.
    fn weighted(graph: &Graph, ncon: usize, type2: bool, seed: u64) -> Graph {
        match (ncon, type2) {
            (1, _) => graph.clone(),
            (_, false) => synthetic::type1(graph, ncon, seed),
            (_, true) => synthetic::type2(graph, ncon, seed),
        }
    }

    #[test]
    fn fm_makes_the_reference_moves() {
        reference::ROLLED_BACK.with(|r| r.set(0));
        let bases = [
            ("grid16", grid_2d(16, 16)),
            ("grid9x30", grid_2d(9, 30)),
            ("mrng", mcgp_graph::generators::mrng_like(700, 3)),
            ("rmat1", weighted_rmat(1)),
            ("rmat2", weighted_rmat(2)),
        ];
        let configs = [
            PartitionConfig::default(),
            PartitionConfig {
                fm_passes: 20,
                fm_window: 15,
                ..PartitionConfig::default()
            },
            PartitionConfig {
                fm_passes: 12,
                fm_window: 3,
                imbalance_tol: 0.01,
                ..PartitionConfig::default()
            },
        ];
        let mut cases = 0usize;
        for (name, base) in &bases {
            let n = base.nvtxs();
            for ncon in 1..=5usize {
                let g = weighted(base, ncon, ncon % 2 == 0, ncon as u64);
                for fraction in [0.5, 1.0 / 3.0] {
                    let fr = (fraction, 1.0 - fraction);
                    for (ci, cfg) in configs.iter().enumerate() {
                        for seed in [1u64, 2] {
                            let start: Vec<u32> = if seed == 1 {
                                random_side(n, seed + ncon as u64)
                            } else {
                                // Skewed: about 90% on side 0.
                                let mut r = rng(seed * 31 + ncon as u64);
                                (0..n)
                                    .map(|_| (r.gen_range(0..10u32) == 0) as u32)
                                    .collect()
                            };
                            let mut want = start.clone();
                            let mut want_rng = rng(seed);
                            let want_stats = reference::fm_refine_bisection(
                                &g,
                                &mut want,
                                fr,
                                cfg,
                                &mut want_rng,
                            );
                            let mut got = start;
                            let mut got_rng = rng(seed);
                            let got_stats =
                                fm_refine_bisection(&g, &mut got, fr, cfg, &mut got_rng);
                            let at =
                                format!("{name} ncon {ncon} f {fraction:.3} cfg {ci} seed {seed}");
                            assert_eq!(got, want, "{at}: side");
                            assert_eq!(got_stats, want_stats, "{at}: stats");
                            assert_eq!(got_rng.state(), want_rng.state(), "{at}: RNG draws");
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 5 * 2 * 3 * 2);
        let undone = reference::ROLLED_BACK.with(|r| r.get());
        assert!(undone > 1000, "only {undone} moves rolled back");
    }

    /// One workspace over calls on graphs of different sizes and
    /// constraint counts gives what fresh buffers give.
    #[test]
    fn a_reused_workspace_matches_fresh_calls() {
        let cfg = PartitionConfig::default();
        let mut ws = FmWorkspace::default();
        let graphs = [
            synthetic::type1(&grid_2d(20, 20), 3, 1),
            weighted_rmat(3),
            grid_2d(6, 6),
            synthetic::type2(&grid_2d(12, 12), 5, 2),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let start = random_side(g.nvtxs(), i as u64);
            let mut want = start.clone();
            let want_stats = fm_refine_bisection(g, &mut want, (0.5, 0.5), &cfg, &mut rng(7));
            let bal = TwoWayBalance::new(g, (0.5, 0.5), cfg.imbalance_tol);
            let mut got = start;
            let got_stats = fm_refine_with(g, &mut got, &bal, &cfg, &mut rng(7), &mut ws);
            assert_eq!(got, want, "graph {i}");
            assert_eq!(got_stats, want_stats, "graph {i}");
        }
    }

    #[test]
    fn two_way_balance_caps_and_load() {
        let g = grid_2d(4, 4); // 16 unit vertices
        let bal = TwoWayBalance::new(&g, (0.5, 0.5), 0.0);
        let sw = vec![8i64, 8];
        assert!(bal.is_feasible(&sw));
        assert_eq!(bal.load(&sw), 1.0);
        let sw = vec![12i64, 4];
        assert_eq!(bal.load(&sw), 1.5);
    }
}
