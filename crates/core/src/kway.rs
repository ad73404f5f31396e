//! The multilevel k-way driver — the serial algorithm of the paper's
//! experiments (coarsen → recursive-bisection initial partitioning of the
//! coarsest graph → greedy multi-constraint refinement during uncoarsening).

use crate::balance::{part_weights, rebalance, BalanceModel};
use crate::boundary::RefineWorkspace;
use crate::coarsen::{coarsen, CoarseLevel};
use crate::config::PartitionConfig;
use crate::kway_refine::{greedy_kway_refine_ws, KwayRefineStats};
use crate::kway_refine_smp::{smp_kway_refine_ws, SMP_REFINE_MIN_NVTXS};
use crate::rb::recursive_bisection_assignment;
use crate::PartitionResult;
use crate::balance::imbalances_from_pw;
use mcgp_graph::check as gcheck;
use mcgp_graph::{CheckLevel, Graph};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::{event, span, Phase};

/// Aborts on an invariant violation detected at a pipeline seam. These are
/// partitioner bugs (never input errors — those surface as `Result`s from
/// the I/O layer), so the driver fails loudly with the invariant's name.
pub(crate) fn enforce(result: mcgp_graph::Result<()>) {
    if let Err(e) = result {
        panic!("mcgp-check: {e}");
    }
}

/// Seam: post-coarsen. Each contraction must conserve the per-constraint
/// weight totals, shrink the graph, and produce a structurally valid CSR
/// with an in-range projection map. Shared between the cold driver and
/// [`crate::hierarchy::HierarchySnapshot::build`].
pub(crate) fn check_levels(graph: &Graph, levels: &[CoarseLevel], check: CheckLevel) {
    if !check.enabled() {
        return;
    }
    let mut finer = graph;
    for level in levels {
        enforce(gcheck::check_graph(&level.graph, check));
        enforce(gcheck::check_conserved_weights(finer, &level.graph));
        enforce(gcheck::check_projection(
            &level.cmap,
            finer.nvtxs(),
            level.graph.nvtxs(),
        ));
        finer = &level.graph;
    }
}

/// Phases 2+3 of the multilevel driver: initial partitioning of the
/// coarsest graph, then uncoarsening with refinement down `levels`.
///
/// Factored out of [`partition_kway`] so the warm path of a cached
/// [`crate::hierarchy::HierarchySnapshot`] runs *exactly* the same code on
/// *exactly* the same RNG state as a cold run — bit-identical results are a
/// structural property, not a re-implementation kept in sync by tests.
/// `levels` is finest-first, as produced by [`coarsen`]; `rng` must hold
/// the post-coarsening RNG state.
pub(crate) fn initial_and_refine(
    graph: &Graph,
    levels: &[CoarseLevel],
    nparts: usize,
    config: &PartitionConfig,
    rng: &mut Rng,
) -> Vec<u32> {
    let nlevels = levels.len();
    let coarsest = levels.last().map_or(graph, |l| &l.graph);

    // Phase 2: initial partitioning of the coarsest graph via recursive
    // bisection.
    let mut assignment = {
        let _s = span!(Phase::Initial, nvtxs = coarsest.nvtxs(), nparts = nparts);
        recursive_bisection_assignment(coarsest, nparts, config, rng)
    };

    // Seam: post-initial. Recursive bisection must emit an in-range
    // assignment that covers every subdomain.
    if config.check.enabled() {
        enforce(gcheck::check_assignment(coarsest, &assignment, nparts));
        enforce(gcheck::check_no_empty_parts(&assignment, nparts));
    }

    // Phase 3: uncoarsening with refinement (and explicit balancing when a
    // level starts outside the caps). One workspace serves every level: the
    // boundary engine's buffers grow to the finest level once instead of
    // being reallocated per level.
    let mut ws = RefineWorkspace::new();
    let refine_on = |lvl: usize,
                     g: &Graph,
                     assignment: &mut Vec<u32>,
                     rng: &mut Rng,
                     ws: &mut RefineWorkspace| {
        let model = BalanceModel::new(g, nparts, config.imbalance_tol);
        let mut pw = part_weights(g, assignment, nparts);
        if !model.is_balanced(&pw) {
            rebalance(g, assignment, &mut pw, &model, rng);
        }
        // The parallel refiner takes over at `nthreads > 1` on levels big
        // enough to stripe; the threshold is a fixed constant, so which
        // refiner runs is part of the `(seed, nthreads)` contract.
        let stats: KwayRefineStats =
            if config.nthreads > 1 && g.nvtxs() >= SMP_REFINE_MIN_NVTXS {
                smp_kway_refine_ws(
                    g,
                    assignment,
                    &mut pw,
                    &model,
                    config.refine_iters,
                    config.nthreads,
                    rng,
                    ws,
                )
            } else {
                greedy_kway_refine_ws(g, assignment, &mut pw, &model, config.refine_iters, rng, ws)
            };
        // Seam: post-refine. Refinement moves vertices but must keep the
        // assignment in range and every subdomain populated.
        if config.check.enabled() {
            enforce(gcheck::check_assignment(g, assignment, nparts));
            enforce(gcheck::check_no_empty_parts(assignment, nparts));
        }
        // Field expressions (cut recount, imbalance scan) are only
        // evaluated when tracing is enabled.
        event!(
            "uncoarsen_level",
            level = lvl,
            nvtxs = g.nvtxs(),
            boundary = ws.engine.boundary().len(),
            moves = stats.moves,
            cut = mcgp_graph::metrics::edge_cut_raw(g, assignment),
            imbalance = imbalances_from_pw(&pw, g.ncon(), &model),
        );
    };

    // Refine the initial partitioning on the coarsest graph itself.
    {
        let _s = span!(Phase::Refine, nlevels = nlevels, nvtxs = graph.nvtxs());
        refine_on(nlevels, coarsest, &mut assignment, rng, &mut ws);
        for lvl in (0..nlevels).rev() {
            let cmap = &levels[lvl].cmap;
            assignment = cmap
                .iter()
                .map(|&c| assignment[c as usize])
                .collect();
            let finer = if lvl == 0 {
                graph
            } else {
                &levels[lvl - 1].graph
            };
            // Seam: post-project. Projection maps every fine vertex through
            // the cmap, so length and range must already hold here.
            if config.check.enabled() {
                enforce(gcheck::check_assignment(finer, &assignment, nparts));
            }
            refine_on(lvl, finer, &mut assignment, rng, &mut ws);
        }

        // Final feasibility passes at the finest level: alternate balancing
        // and refinement until the caps hold (bounded rounds).
        let model = BalanceModel::new(graph, nparts, config.imbalance_tol);
        let mut pw = part_weights(graph, &assignment, nparts);
        for _ in 0..4 {
            if model.is_balanced(&pw) {
                break;
            }
            rebalance(graph, &mut assignment, &mut pw, &model, rng);
            greedy_kway_refine_ws(graph, &mut assignment, &mut pw, &model, 2, rng, &mut ws);
        }
    }

    assignment
}

/// Computes a k-way multi-constraint partition with the multilevel k-way
/// algorithm. This is the serial baseline of every experiment in the paper.
pub fn partition_kway(graph: &Graph, nparts: usize, config: &PartitionConfig) -> PartitionResult {
    assert!(nparts >= 1, "nparts must be >= 1");
    assert!(graph.nvtxs() >= nparts, "more parts than vertices");
    if nparts == 1 {
        return PartitionResult::measure(graph, vec![0; graph.nvtxs()], 1, 0);
    }
    let mut rng = Rng::seed_from_u64(config.seed);
    let _root = span!(
        "partition_kway",
        nvtxs = graph.nvtxs(),
        nparts = nparts,
        ncon = graph.ncon(),
    );

    // Phase 1: coarsening.
    let hierarchy = {
        let _s = span!(Phase::Coarsen, nvtxs = graph.nvtxs());
        coarsen(graph, config.coarsen_target(nparts), config, &mut rng)
    };
    check_levels(graph, hierarchy.levels(), config.check);

    let assignment = initial_and_refine(graph, hierarchy.levels(), nparts, config, &mut rng);
    PartitionResult::measure(graph, assignment, nparts, hierarchy.nlevels())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    #[test]
    fn grid_8way_quality() {
        let g = grid_2d(32, 32);
        let cfg = PartitionConfig::default();
        let r = partition_kway(&g, 8, &cfg);
        assert!(r.partition.all_parts_nonempty());
        assert!(
            r.quality.max_imbalance <= 1.08,
            "imbalance {}",
            r.quality.max_imbalance
        );
        // A decent 8-way split of a 32x32 grid cuts well under 300.
        assert!(r.quality.edge_cut < 300, "cut {}", r.quality.edge_cut);
    }

    #[test]
    fn multiconstraint_type1_balances_all_constraints() {
        for ncon in [2usize, 3, 4, 5] {
            let g = synthetic::type1(&mrng_like(4000, 7), ncon, 7);
            let cfg = PartitionConfig::default();
            let r = partition_kway(&g, 8, &cfg);
            assert!(
                r.quality.max_imbalance <= 1.12,
                "ncon={ncon}: imbalance {} ({:?})",
                r.quality.max_imbalance,
                r.quality.imbalances
            );
        }
    }

    #[test]
    fn multiconstraint_type2_balances_all_constraints() {
        for ncon in [2usize, 3, 5] {
            let g = synthetic::type2(&mrng_like(4000, 9), ncon, 9);
            let cfg = PartitionConfig::default();
            let r = partition_kway(&g, 8, &cfg);
            assert!(
                r.quality.max_imbalance <= 1.15,
                "ncon={ncon}: imbalance {} ({:?})",
                r.quality.max_imbalance,
                r.quality.imbalances
            );
        }
    }

    #[test]
    fn threaded_pipeline_recovers_balance_multiconstraint() {
        // Regression: the threaded recursive bisection starts uncoarsening
        // more imbalanced than the serial one, which used to wedge the
        // multi-constraint pipeline — every part over the cap on one
        // constraint, `fits` blocking every move, final imbalance ~1.12
        // with zero refinement moves. The swap tier in `rebalance` breaks
        // the wedge; the finest level must land inside the caps again.
        let g = synthetic::type1(&mrng_like(20_000, 7), 3, 7);
        let cfg = PartitionConfig {
            nthreads: 2,
            ..PartitionConfig::default()
        };
        let r = partition_kway(&g, 16, &cfg);
        assert!(
            r.quality.max_imbalance <= 1.08,
            "threaded ncon3 pipeline left imbalance {} ({:?})",
            r.quality.max_imbalance,
            r.quality.imbalances
        );
    }

    #[test]
    fn beats_naive_striping_on_cut() {
        let g = mrng_like(3000, 11);
        let cfg = PartitionConfig::default();
        let r = partition_kway(&g, 16, &cfg);
        let striped: Vec<u32> = (0..g.nvtxs())
            .map(|v| ((v * 16) / g.nvtxs()) as u32)
            .collect();
        let striped_cut = mcgp_graph::metrics::edge_cut_raw(&g, &striped);
        assert!(
            r.quality.edge_cut < striped_cut,
            "multilevel {} vs striped {striped_cut}",
            r.quality.edge_cut
        );
    }

    #[test]
    fn single_part_and_small_graphs() {
        let g = grid_2d(3, 3);
        let cfg = PartitionConfig::default();
        let r = partition_kway(&g, 1, &cfg);
        assert_eq!(r.quality.edge_cut, 0);
        let r = partition_kway(&g, 3, &cfg);
        assert!(r.partition.all_parts_nonempty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = synthetic::type1(&grid_2d(20, 20), 3, 13);
        let cfg = PartitionConfig::default();
        let a = partition_kway(&g, 4, &cfg);
        let b = partition_kway(&g, 4, &cfg);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn reports_coarsening_levels() {
        let g = mrng_like(4000, 15);
        let cfg = PartitionConfig::default();
        let r = partition_kway(&g, 4, &cfg);
        assert!(r.coarsen_levels >= 3, "levels {}", r.coarsen_levels);
    }
}
