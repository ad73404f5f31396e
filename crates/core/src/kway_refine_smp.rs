//! Shared-memory parallel k-way refinement: boundary-striped proposal
//! sweeps with deterministic conflict arbitration.
//!
//! The serial sweep of [`crate::kway_refine`] moves vertices one at a time,
//! each decision seeing every earlier move. That dependency chain is what a
//! parallel refiner has to break, and this one breaks it the same way the
//! coarsener's matching does — propose in parallel, commit under a
//! deterministic total order:
//!
//! 1. **Snapshot.** The pass order is a shuffled snapshot of the boundary
//!    (drawn from the same RNG stream the serial refiner would use), split
//!    into `nthreads` stripes.
//! 2. **Propose.** Each stripe scans its slice of the snapshot against the
//!    *frozen* engine/part-weight state and emits at most one move per
//!    vertex — the same (gain, balance-gain) decision the serial sweep
//!    makes, minus the effects of concurrent moves. Vertices with a
//!    non-negative cut gain whose every such destination fails the caps are
//!    collected separately as *capacity-blocked*: the frozen scan cannot
//!    admit them, but an earlier commit may free the headroom they need —
//!    exactly the moves the serial sweep's in-pass adaptivity finds and a
//!    frozen snapshot cannot. The frozen state makes stripes embarrassingly
//!    parallel, and it also makes the proposal *set* independent of the
//!    stripe count: striping is pure work division here, so for a fixed
//!    pass order the refiner's output does not depend on `nthreads` at all
//!    (the *pipeline's* output still does, because coarsening shapes
//!    everything downstream).
//! 3. **Arbitrate + commit.** Proposals are ordered by the shared
//!    [`crate::matching::grant_beats`] rule on `(gain, -balance_gain,
//!    vertex)` — best cut gain first, then best balance improvement, lowest
//!    id as the final tie — and committed serially in that order. Each
//!    proposal is *re-decided* against the live caches with the identical
//!    per-vertex decision the proposal scan ran (the shared move rule in
//!    [`crate::kway_refine`]): earlier
//!    commits may have stolen the frozen gain, filled the target, or opened
//!    a better destination, and the live re-decision commits whatever move
//!    is best *now* (or nothing). Capacity-blocked vertices queue up
//!    *behind* every admissible proposal (ordered by the same rule among
//!    themselves on their no-caps gain), so their currently-unrealisable
//!    frozen gains never jump the commit queue; by the time their live
//!    re-decision runs, the pass's real moves have had the chance to free
//!    the headroom they were missing. Every commit also enqueues the moved
//!    vertex's neighbours (at most once per vertex per pass) on a *ripple*
//!    worklist that gets the same live decision — those are the vertices
//!    whose move only becomes profitable because of this pass's earlier
//!    commits, the ones the serial sweep's in-pass adaptivity catches and a
//!    frozen scan cannot. The commit superstep is therefore a serial sweep
//!    over the proposal set (best-frozen-merit-first) plus the commit
//!    wavefront it triggers — which is why per-pass quality stays at the
//!    serial sweep's level instead of degrading with staleness.
//!
//! The frozen scan decides *who is worth visiting and in what order*; the
//! live re-decision decides *what actually moves*; the ripple follows the
//! consequences. Only the first part is parallel, and only the serial parts
//! touch shared state.
//!
//! The commit order is a pure function of the proposal set, and the
//! proposal set a pure function of `(graph, assignment, rng)` — scheduling
//! can never perturb the result, which is what makes full-pipeline runs
//! bit-identical for a fixed `(seed, nthreads)` regardless of how many OS
//! threads the pool actually spawns.

use crate::balance::{apply_move, BalanceModel};
use crate::boundary::{BoundaryEngine, RefineWorkspace};
use crate::kway_refine::{best_move, best_move_scan, inverse_averages, KwayRefineStats};
use crate::matching::grant_beats;
use mcgp_graph::Graph;
use mcgp_runtime::phase::{counter_add, Counter};
use mcgp_runtime::pool::{self, stripe_bounds};
use mcgp_runtime::rng::{Rng, SliceRandom};
use mcgp_runtime::{metrics, span};

/// Below this many vertices a level's refinement runs the serial sweep even
/// at `nthreads > 1`: striping a tiny boundary costs more than it saves.
/// Part of the determinism contract (a fixed constant, never a runtime
/// thread count), and low enough that the differential-sweep graphs
/// exercise the parallel refiner for real.
pub const SMP_REFINE_MIN_NVTXS: usize = 600;

/// One proposed move for vertex `v`. `gain`/`bal_gain` are the *frozen*
/// merit from the pass-start snapshot; they decide the commit order only —
/// the move actually committed is re-decided live.
struct MoveProposal {
    gain: i64,
    bal_gain: f64,
    v: u32,
}

/// One live commit attempt in the commit superstep: re-runs [`best_move`]
/// against the current caches (earlier commits may have absorbed `v` into
/// the interior, drained its part, stolen the frozen gain, or opened a
/// better destination), applies the winner if any, and enqueues `v`'s
/// not-yet-seen neighbours on the ripple worklist. Returns the committed
/// gain.
#[allow(clippy::too_many_arguments)]
fn try_commit(
    graph: &Graph,
    engine: &mut BoundaryEngine,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    inv_avg: &[f64],
    v: usize,
    ripple: &mut Vec<u32>,
    seen: &mut [u32],
    seen_epoch: u32,
) -> Option<i64> {
    counter_add(Counter::MovesAttempted, 1);
    if !engine.is_boundary(v) {
        return None;
    }
    let a = assignment[v] as usize;
    // Never empty a subdomain.
    if engine.part_count(a) == 1 {
        return None;
    }
    let (gain, _, b) = best_move(graph, engine, pw, model, inv_avg, v, a)?;
    apply_move(pw, graph.ncon(), graph.vwgt(v), a, b);
    engine.commit_move(graph, assignment, v, b);
    counter_add(Counter::MovesCommitted, 1);
    metrics::histogram_record("kway_gain", gain);
    for &u in graph.neighbors(v) {
        let u = u as usize;
        if seen[u] != seen_epoch {
            seen[u] = seen_epoch;
            ripple.push(u as u32);
        }
    }
    Some(gain)
}

/// Runs up to `iters` propose/arbitrate/commit refinement passes over
/// `nthreads` boundary stripes, updating `assignment` and the flattened
/// part-weight matrix `pw` in place. The serial-sweep counterpart is
/// [`crate::kway_refine::greedy_kway_refine_ws`].
#[allow(clippy::too_many_arguments)]
pub fn smp_kway_refine_ws(
    graph: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    iters: usize,
    nthreads: usize,
    rng: &mut Rng,
    ws: &mut RefineWorkspace,
) -> KwayRefineStats {
    let n = graph.nvtxs();
    let stripes = nthreads.max(1);
    let mut stats = KwayRefineStats::default();
    // Ripple worklist + once-per-pass marker (epoch-tagged so it resets in
    // O(1) between passes).
    let mut ripple: Vec<u32> = Vec::new();
    let mut seen: Vec<u32> = vec![0; n];
    let mut seen_epoch: u32 = 0;
    let RefineWorkspace { engine, order } = ws;
    engine.rebuild(graph, assignment, model.nparts());
    let inv_avg = inverse_averages(model);

    for pass in 0..iters {
        stats.iterations += 1;
        let mut sp = span!("refine_pass_smp", pass = pass, nvtxs = n, stripes = stripes);
        order.clear();
        order.extend_from_slice(engine.boundary());
        order.shuffle(rng);
        let boundary_this_iter = order.len();
        let bounds = stripe_bounds(order.len(), stripes);

        // --- Proposal superstep (parallel, frozen state) -----------------
        // Two lists per stripe: admissible proposals, and *capacity-blocked*
        // vertices — non-negative cut gain at freeze with every such
        // destination failing the caps. The latter are the moves the frozen
        // scan cannot admit but the serial sweep finds mid-pass once an
        // earlier move frees headroom; they get live re-decisions *after*
        // the admissible proposals, so their (currently unrealisable)
        // frozen gains never jump the commit queue.
        let (per_stripe, per_stripe_blocked): (Vec<Vec<MoveProposal>>, Vec<Vec<MoveProposal>>) = {
            let engine = &*engine;
            let order = &order[..];
            let pw = &pw[..];
            let assignment = &assignment[..];
            let inv_avg = &inv_avg[..];
            let both: Vec<(Vec<MoveProposal>, Vec<MoveProposal>)> = pool::map(stripes, |s| {
                let mut out: Vec<MoveProposal> = Vec::new();
                let mut blocked: Vec<MoveProposal> = Vec::new();
                for &v in &order[bounds[s]..bounds[s + 1]] {
                    let v = v as usize;
                    let a = assignment[v] as usize;
                    // Never empty a subdomain (frozen check; re-run live at
                    // commit, since earlier commits may drain the part).
                    if engine.part_count(a) == 1 {
                        continue;
                    }
                    match best_move_scan(graph, engine, pw, model, inv_avg, v, a) {
                        (Some((gain, bal_gain, _)), _) => out.push(MoveProposal {
                            gain,
                            bal_gain,
                            v: v as u32,
                        }),
                        (None, best_nocap) if best_nocap >= 0 => blocked.push(MoveProposal {
                            gain: best_nocap,
                            bal_gain: 0.0,
                            v: v as u32,
                        }),
                        _ => {}
                    }
                }
                (out, blocked)
            });
            both.into_iter().unzip()
        };

        // --- Arbitration: one deterministic commit order -----------------
        // Flatten in stripe order, then sort by the shared grant rule.
        // Vertex ids are unique within a pass, so the order is total — the
        // same proposal set always commits identically.
        let mut proposals: Vec<MoveProposal> = per_stripe.into_iter().flatten().collect();
        let attempted_this_iter = proposals.len();
        let grant_order = |x: &MoveProposal, y: &MoveProposal| {
            let kx = (x.gain, -x.bal_gain, x.v);
            let ky = (y.gain, -y.bal_gain, y.v);
            if grant_beats(kx, ky) {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            }
        };
        proposals.sort_unstable_by(grant_order);
        // Capacity-blocked vertices queue up *behind* every admissible
        // proposal (ordered by the same rule among themselves): their live
        // re-decision runs only after the pass's real moves have had the
        // chance to free the headroom they were missing.
        let mut blocked: Vec<MoveProposal> = per_stripe_blocked.into_iter().flatten().collect();
        blocked.sort_unstable_by(grant_order);

        // --- Commit superstep (serial, live re-decision + ripple) --------
        // Proposals commit in arbitration order, each re-decided live; every
        // commit then enqueues the moved vertex's unseen neighbours for the
        // same live decision (at most once per vertex per pass). The ripple
        // covers exactly what the frozen scan cannot see: vertices whose
        // move only becomes profitable because of commits made earlier in
        // this very pass. Serial's shuffled sweep catches those for free;
        // without the ripple the batch refiner defers them a full pass and
        // converges to visibly worse cuts.
        seen_epoch += 1;
        ripple.clear();
        let mut moved_this_iter = 0usize;
        for p in proposals.iter().chain(blocked.iter()) {
            if let Some(gain) = try_commit(
                graph, engine, assignment, pw, model, &inv_avg, p.v as usize, &mut ripple,
                &mut seen, seen_epoch,
            ) {
                moved_this_iter += 1;
                stats.gain += gain;
            }
        }
        let mut ri = 0usize;
        while ri < ripple.len() {
            let v = ripple[ri] as usize;
            ri += 1;
            if let Some(gain) = try_commit(
                graph, engine, assignment, pw, model, &inv_avg, v, &mut ripple, &mut seen,
                seen_epoch,
            ) {
                moved_this_iter += 1;
                stats.gain += gain;
            }
        }

        stats.moves += moved_this_iter;
        sp.record("boundary", boundary_this_iter);
        sp.record("proposals", attempted_this_iter);
        sp.record("blocked", blocked.len());
        sp.record("ripple", ri);
        sp.record("moves_committed", moved_this_iter);
        metrics::gauge_set("boundary_size", boundary_this_iter as i64);
        #[cfg(debug_assertions)]
        if let Err(e) = engine.validate(graph, assignment) {
            panic!("boundary cache drifted after smp pass {pass}: {e}");
        }
        if moved_this_iter == 0 {
            break; // local minimum
        }
        // Diminishing returns on huge boundaries: once a fine-level pass
        // moves under ~0.8% of the boundary it scanned, the next frozen
        // scan would pay O(boundary) again to harvest a trickle. The
        // serial sweep self-limits here — fits-starved fine levels give
        // it a zero-move pass and it stops — but the blocked-list and
        // ripple commits keep this refiner finding a handful of moves
        // per pass, so without a cutoff it pays all `iters` scans at
        // exactly the levels where scans are most expensive. Coarse
        // levels (small boundary, heavyweight vertices) are exempt:
        // their tail moves carry real cut weight. Both operands are
        // stripe-count independent, so the cutoff is too.
        if boundary_this_iter >= 16_384 && moved_this_iter * 128 < boundary_this_iter {
            break;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::part_weights;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::metrics::edge_cut_raw;
    use mcgp_graph::synthetic;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    fn striped(n: usize, nparts: usize) -> Vec<u32> {
        (0..n).map(|v| ((v * nparts) / n) as u32).collect()
    }

    fn refine(
        g: &Graph,
        assignment: &mut [u32],
        nparts: usize,
        iters: usize,
        t: usize,
        seed: u64,
    ) -> (KwayRefineStats, Vec<i64>) {
        let model = BalanceModel::new(g, nparts, 0.05);
        let mut pw = part_weights(g, assignment, nparts);
        let mut ws = RefineWorkspace::new();
        let stats = smp_kway_refine_ws(
            g,
            assignment,
            &mut pw,
            &model,
            iters,
            t,
            &mut rng(seed),
            &mut ws,
        );
        (stats, pw)
    }

    #[test]
    fn reduces_cut_and_keeps_books_straight() {
        let g = synthetic::type1(&mrng_like(2000, 3), 3, 3);
        for t in [1usize, 2, 4, 8] {
            let mut assignment = striped(g.nvtxs(), 8);
            let before = edge_cut_raw(&g, &assignment);
            let (stats, pw) = refine(&g, &mut assignment, 8, 8, t, 1);
            let after = edge_cut_raw(&g, &assignment);
            assert_eq!(before - after, stats.gain, "t={t}: gain bookkeeping drifted");
            assert!(after < before, "t={t}: {before} -> {after}");
            assert_eq!(
                pw,
                part_weights(&g, &assignment, 8),
                "t={t}: pw bookkeeping drifted"
            );
        }
    }

    #[test]
    fn output_is_stripe_count_independent() {
        // Striping is pure work division: for a fixed pass order (same RNG
        // stream), every stripe count commits the identical move sequence.
        let g = synthetic::type2(&grid_2d(40, 40), 2, 5);
        let mut expect: Option<Vec<u32>> = None;
        for t in [1usize, 2, 3, 8, 17] {
            let mut assignment = striped(g.nvtxs(), 4);
            refine(&g, &mut assignment, 4, 6, t, 7);
            match &expect {
                None => expect = Some(assignment),
                Some(e) => assert_eq!(e, &assignment, "t={t} diverged"),
            }
        }
    }

    #[test]
    fn deterministic_reruns() {
        let g = synthetic::type1(&grid_2d(30, 30), 2, 9);
        let mut a1 = striped(g.nvtxs(), 6);
        let mut a2 = a1.clone();
        refine(&g, &mut a1, 6, 6, 4, 11);
        refine(&g, &mut a2, 6, 6, 4, 11);
        assert_eq!(a1, a2);
    }

    #[test]
    fn never_empties_a_part_and_respects_caps() {
        let g = synthetic::type1(&grid_2d(16, 16), 3, 2);
        let nparts = 4;
        let mut assignment = striped(g.nvtxs(), nparts);
        let model = BalanceModel::new(&g, nparts, 0.05);
        let pw0 = part_weights(&g, &assignment, nparts);
        let violations_before: Vec<bool> = (0..nparts)
            .map(|p| (0..3).any(|i| pw0[p * 3 + i] > model.limits()[i]))
            .collect();
        let (_, pw) = refine(&g, &mut assignment, nparts, 6, 4, 3);
        let mut count = vec![0u32; nparts];
        for &p in &assignment {
            count[p as usize] += 1;
        }
        assert!(count.iter().all(|&c| c > 0), "emptied a part");
        for p in 0..nparts {
            let violated = (0..3).any(|i| pw[p * 3 + i] > model.limits()[i]);
            assert!(
                !violated || violations_before[p],
                "part {p} newly violated caps"
            );
        }
    }

    #[test]
    fn matches_serial_quality_envelope() {
        // The batch refiner only visits vertices the frozen scan proposed,
        // so it may trail the serial sweep slightly per pass — but the live
        // commit re-decision must keep it in the same league.
        let g = synthetic::type1(&mrng_like(3000, 13), 3, 13);
        let nparts = 8;
        let mut serial = striped(g.nvtxs(), nparts);
        {
            let model = BalanceModel::new(&g, nparts, 0.05);
            let mut pw = part_weights(&g, &serial, nparts);
            let mut ws = RefineWorkspace::new();
            crate::kway_refine::greedy_kway_refine_ws(
                &g, &mut serial, &mut pw, &model, 8, &mut rng(5), &mut ws,
            );
        }
        let mut smp = striped(g.nvtxs(), nparts);
        refine(&g, &mut smp, nparts, 8, 4, 5);
        let serial_cut = edge_cut_raw(&g, &serial) as f64;
        let smp_cut = edge_cut_raw(&g, &smp) as f64;
        assert!(
            smp_cut <= serial_cut * 1.25 + 50.0,
            "smp cut {smp_cut} vs serial {serial_cut}"
        );
    }
}
