//! The *slice allocation* refinement — the straightforward scheme the paper
//! describes and rejects (Section 2, Figure 2).
//!
//! Before each iteration, every subdomain's extra space (cap minus current
//! weight, per constraint) is divided evenly among the `p` processors. A
//! processor may move vertices into a subdomain only while the *sum* of the
//! weight vectors it has moved there stays within its slice of **every**
//! constraint. This guarantees the imbalance tolerance can never be
//! exceeded, but as `p` or `ncon` grows the slices become so thin that most
//! edge-cut-reducing moves are forbidden — the paper measured partitions up
//! to 50 % worse than serial. Kept here as the ablation baseline
//! (experiment A1 in DESIGN.md).

use crate::boundary_par::Move;
use crate::cost::CostTracker;
use crate::dist::DistGraph;
use crate::refine_par::{commit, propose, visit_ops, Conn, LevelBoundaries, ParRefineStats, Sweep};
use mcgp_core::balance::BalanceModel;

/// Runs slice-allocation refinement on one level (same interface as
/// [`crate::refine_par::reservation_refine`]). Its proposals fit the caps
/// by construction, so a round has no disallow step.
pub fn slice_refine(
    dist: &DistGraph,
    part: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    iters: usize,
    _seed: u64,
    tracker: &mut CostTracker,
) -> ParRefineStats {
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let nparts = model.nparts();
    let mut stats = ParRefineStats::default();
    let mut boundaries = LevelBoundaries::build(dist, part);

    for iter in 0..iters {
        stats.iterations += 1;
        let upward = iter % 2 == 0;

        // Slices: each processor's private share of every subdomain's
        // remaining room, per constraint.
        let slice: Vec<i64> = (0..nparts * ncon)
            .map(|idx| {
                let i = idx % ncon;
                ((model.limits()[i] - pw[idx]).max(0)) / p as i64
            })
            .collect();

        let extra = boundaries.take_build_comp();
        let (moves, rejected) = propose(dist, &extra, tracker, |q| {
            let lg = dist.local(q);
            let mut used = vec![0i64; nparts * ncon];
            let mut conn = Conn::new(nparts);
            let mut sweep = Sweep::default();
            // The slice sweep reads the published partition directly, so
            // the published boundary set is exactly the candidate set.
            for &lv in boundaries.boundary(q) {
                let lv = lv as usize;
                let v = lg.global(lv);
                let a = part[v] as usize;
                sweep.comp += visit_ops(lg, lv, ncon);
                conn.scan(lg, lv, a, |u| part[u] as usize);
                let vw = lg.vwgt(lv);
                let mut best: Option<(i64, usize)> = None;
                for &b in &conn.touched {
                    let gain = conn.gain(b);
                    if upward != (b > a) || gain <= 0 {
                        continue;
                    }
                    // Every constraint must fit the processor's slice.
                    if (0..ncon).any(|i| used[b * ncon + i] + vw[i] > slice[b * ncon + i]) {
                        sweep.rejected += 1;
                        continue;
                    }
                    if best.is_none_or(|(g, _)| gain > g) {
                        best = Some((gain, b));
                    }
                }
                if let Some((_, b)) = best {
                    for i in 0..ncon {
                        used[b * ncon + i] += vw[i];
                    }
                    let (v, from, to, proc) = (v as u32, a as u32, b as u32, q as u32);
                    sweep.moves.push(Move { v, from, to, proc });
                }
            }
            sweep
        });
        stats.disallowed += rejected;
        commit(dist, part, pw, &moves, tracker);
        boundaries.refresh(dist, part, &moves);
        stats.committed += moves.len();
        if moves.is_empty() {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::balance::part_weights;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::metrics::edge_cut_raw;
    use mcgp_graph::synthetic;
    use mcgp_runtime::rng::Rng;

    #[test]
    fn never_violates_caps() {
        let g = synthetic::type1(&grid_2d(20, 20), 3, 3);
        let d = DistGraph::distribute(&g, 8);
        let mut part: Vec<u32> = (0..400).map(|v| ((v * 4) / 400) as u32).collect();
        let mut pw = part_weights(&g, &part, 4);
        let model = BalanceModel::new(&g, 4, 0.05);
        let feasible_before = model.is_balanced(&pw);
        let mut t = CostTracker::new();
        slice_refine(&d, &mut part, &mut pw, &model, 6, 1, &mut t);
        assert_eq!(pw, part_weights(&g, &part, 4));
        if feasible_before {
            assert!(model.is_balanced(&pw), "slice scheme violated caps");
        }
    }

    #[test]
    fn improves_cut_but_is_restrictive() {
        let g = mrng_like(2000, 4);
        let d = DistGraph::distribute(&g, 8);
        let mut part: Vec<u32> = (0..g.nvtxs()).map(|v| (v % 4) as u32).collect();
        let before = edge_cut_raw(&g, &part);
        let mut pw = part_weights(&g, &part, 4);
        let model = BalanceModel::new(&g, 4, 0.05);
        let mut t = CostTracker::new();
        let stats = slice_refine(&d, &mut part, &mut pw, &model, 8, 2, &mut t);
        let after = edge_cut_raw(&g, &part);
        assert!(after <= before);
        // The defining behaviour: it disallows moves the reservation scheme
        // would have made.
        assert!(stats.disallowed > 0 || stats.committed == 0);
    }

    #[test]
    fn thinner_slices_with_more_processors() {
        // With more processors the same refinement start must disallow at
        // least as many (usually more) moves in the first iteration.
        let g = synthetic::type1(&grid_2d(24, 24), 4, 8);
        // Uniformly random start: many positive-gain moves compete for the
        // thin per-processor slices.
        let mut rng = Rng::seed_from_u64(99);
        let start: Vec<u32> = (0..576).map(|_| rng.gen_range(0..8u32)).collect();
        let mut disallowed = Vec::new();
        for p in [2usize, 16] {
            let d = DistGraph::distribute(&g, p);
            let mut part = start.clone();
            let mut pw = part_weights(&g, &part, 8);
            let model = BalanceModel::new(&g, 8, 0.05);
            let mut t = CostTracker::new();
            let stats = slice_refine(&d, &mut part, &mut pw, &model, 1, 3, &mut t);
            disallowed.push((stats.disallowed, stats.committed));
        }
        // Not strictly monotone in pathological cases, but the thin-slice
        // effect should show as a non-trivial disallow count at p=16.
        assert!(
            disallowed[1].0 > 0,
            "no slice pressure at p=16: {disallowed:?}"
        );
    }
}
