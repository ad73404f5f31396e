//! The multilevel k-way partitioner — the serial algorithm of the paper's
//! experiments (coarsen → recursive-bisection initial partitioning of the
//! coarsest graph → greedy multi-constraint refinement during uncoarsening)
//! — as the serial policy of the [`crate::multilevel`] driver.

use crate::balance::{imbalances_from_pw, part_weights, rebalance, BalanceModel};
use crate::boundary::RefineWorkspace;
use crate::coarsen::{CoarseLevel, Coarsener};
use crate::config::PartitionConfig;
use crate::kway_refine::greedy_kway_refine_ws;
use crate::multilevel::{self, enforce, LevelFields, Policy, Seam};
use crate::rb::recursive_bisection_assignment;
use crate::PartitionResult;
use mcgp_graph::check as gcheck;
use mcgp_graph::{CheckLevel, Graph};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::{span, trace};

/// The serial policy: recursive bisection of the coarsest graph and the
/// greedy k-way refiner, drawing from the stream coarsening left. It
/// serves every `nthreads`: threads reach only the recursive-bisection
/// task tree, and every level is refined by the same serial boundary
/// sweep.
pub(crate) struct Serial<'a> {
    config: &'a PartitionConfig,
    nparts: usize,
    rng: &'a mut Rng,
    ws: RefineWorkspace,
}

impl<'a> Serial<'a> {
    /// The policy of an `nparts`-way partition drawing from `rng`.
    pub(crate) fn new(config: &'a PartitionConfig, nparts: usize, rng: &'a mut Rng) -> Self {
        Serial {
            config,
            nparts,
            rng,
            ws: RefineWorkspace::new(),
        }
    }
}

impl Policy<Graph> for Serial<'_> {
    fn check(&self) -> CheckLevel {
        self.config.check
    }

    fn nparts(&self) -> usize {
        self.nparts
    }

    fn initial(&mut self, coarsest: &Graph) -> Vec<u32> {
        let _s = span!("rb", nvtxs = coarsest.nvtxs());
        recursive_bisection_assignment(coarsest, self.nparts, self.config, self.rng)
    }

    fn check_part(&self, seam: Seam, graph: &Graph, part: &[u32]) {
        enforce(gcheck::check_assignment(graph, part, self.nparts));
        // Recursive bisection and refinement keep every subdomain
        // populated; projection and the final balance rounds are not
        // asked to.
        if matches!(seam, Seam::Initial | Seam::Refined) {
            enforce(gcheck::check_no_empty_parts(part, self.nparts));
        }
    }

    fn refine(&mut self, _lvl: usize, _coarsest: bool, g: &Graph, part: &mut [u32]) -> LevelFields {
        let (nparts, config) = (self.nparts, self.config);
        let (model, mut pw) = {
            let _b = span!("balance", nvtxs = g.nvtxs());
            (
                BalanceModel::new(g, nparts, config.imbalance_tol),
                part_weights(g, part, nparts),
            )
        };
        // Explicit balancing when a level starts outside the caps.
        if !model.is_balanced(&pw) {
            rebalance(g, part, &mut pw, &model, self.rng);
        }
        let stats = {
            let _k = span!("kway_refine", nvtxs = g.nvtxs());
            greedy_kway_refine_ws(
                g,
                part,
                &mut pw,
                &model,
                config.refine_iters,
                self.rng,
                &mut self.ws,
            )
        };
        if !trace::enabled() {
            return Vec::new();
        }
        vec![
            ("boundary", self.ws.engine.boundary().len().into()),
            ("moves", stats.moves.into()),
            ("cut", mcgp_graph::metrics::edge_cut_raw(g, part).into()),
            (
                "imbalance",
                imbalances_from_pw(&pw, g.ncon(), &model).into(),
            ),
        ]
    }

    fn project(&mut self, level: &CoarseLevel, _finer: &Graph, part: &[u32]) -> Vec<u32> {
        level.project(part)
    }

    fn finish(&mut self, g: &Graph, part: &mut [u32]) {
        // Alternate balancing and refinement until the caps hold (bounded
        // rounds).
        let (nparts, config) = (self.nparts, self.config);
        let (model, mut pw) = {
            let _b = span!("balance", nvtxs = g.nvtxs());
            (
                BalanceModel::new(g, nparts, config.imbalance_tol),
                part_weights(g, part, nparts),
            )
        };
        for _ in 0..4 {
            if model.is_balanced(&pw) {
                break;
            }
            rebalance(g, part, &mut pw, &model, self.rng);
            let _k = span!("kway_refine", nvtxs = g.nvtxs());
            greedy_kway_refine_ws(g, part, &mut pw, &model, 2, self.rng, &mut self.ws);
        }
    }
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
    // The coarsener, and with it the contraction scratch sized by the
    // first coarse level, is gone before partitioning starts.
    let mut coarsener = Coarsener::new(config, &mut rng, config.check, false);
    let levels = multilevel::coarsen(&mut coarsener, graph, config.coarsen_target(nparts));
    drop(coarsener);
    let mut policy = Serial::new(config, nparts, &mut rng);
    let assignment = multilevel::uncoarsen(&mut policy, graph, &levels);
    PartitionResult::measure(graph, assignment, nparts, levels.len())
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
