//! The multilevel k-way partitioner — the serial algorithm of the paper's
//! experiments (coarsen → recursive-bisection initial partitioning of the
//! coarsest graph → greedy multi-constraint refinement during uncoarsening)
//! — as the serial policy of the [`crate::multilevel`] driver.

use crate::balance::{max_vertex_weights, part_weights, rebalance, BalanceModel};
use crate::boundary::RefineWorkspace;
use crate::coarsen::{CoarseLevel, Coarsener};
use crate::config::PartitionConfig;
use crate::kway_refine::greedy_kway_refine_ws;
use crate::multilevel::{self, enforce, LevelFields, Policy, Seam};
use crate::rb::recursive_bisection_assignment;
use crate::PartitionResult;
use mcgp_graph::check as gcheck;
use mcgp_graph::metrics::imbalances_from_weights;
use mcgp_graph::{CheckLevel, Graph, PartitionQuality};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::{span, trace};

/// The serial policy: recursive bisection of the coarsest graph and the
/// greedy k-way refiner, drawing from the stream coarsening left. It
/// serves every `nthreads`: threads reach only the recursive-bisection
/// task tree, and every level is refined by the same serial boundary
/// sweep.
///
/// What does not change between levels is carried down instead of
/// recounted: the part weights (projection moves every vertex with its
/// coarse vertex, so each part keeps its weight), the per-constraint
/// totals, and the finest level's balance model, which [`Policy::finish`]
/// reuses. A level pays one pass over its vertex weights for their
/// maximum, and the walk's result reads its quality off this state
/// ([`Serial::into_result`]).
pub(crate) struct Serial<'a> {
    config: &'a PartitionConfig,
    nparts: usize,
    rng: &'a mut Rng,
    ws: RefineWorkspace,
    /// Flattened `nparts × ncon` part weights of the current assignment.
    pw: Vec<i64>,
    /// Per-constraint vertex-weight totals, the same at every level.
    totals: Vec<i64>,
    /// The balance model of the level refined last.
    model: Option<BalanceModel>,
}

impl<'a> Serial<'a> {
    /// The policy of an `nparts`-way partition drawing from `rng`.
    pub(crate) fn new(config: &'a PartitionConfig, nparts: usize, rng: &'a mut Rng) -> Self {
        Serial {
            config,
            nparts,
            rng,
            ws: RefineWorkspace::new(),
            pw: Vec::new(),
            totals: Vec::new(),
            model: None,
        }
    }

    /// The result of the finished walk, whose assignment is `part` on
    /// `graph`. Its quality comes from the refiner's state in
    /// `O(boundary + nparts·ncon)`: the cut and communication volume from
    /// the engine's rows, the boundary size from its list, the imbalances
    /// from the carried part weights. A [`CheckLevel::Full`] run recounts
    /// it from the graph.
    pub(crate) fn into_result(
        self,
        graph: &Graph,
        part: Vec<u32>,
        levels: usize,
    ) -> PartitionResult {
        let _s = span!("metrics", nvtxs = graph.nvtxs());
        let engine = &self.ws.engine;
        let (cut, volume) = engine.cut_and_volume();
        let imbalances = imbalances_from_weights(&self.pw, &self.totals, self.nparts);
        let quality = PartitionQuality::new(cut, imbalances, volume, engine.boundary().len());
        PartitionResult::with_quality(graph, part, self.nparts, quality, levels, self.config.check)
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

    fn refine(&mut self, _lvl: usize, coarsest: bool, g: &Graph, part: &mut [u32]) -> LevelFields {
        let (nparts, config) = (self.nparts, self.config);
        let model = {
            let _b = span!("balance", nvtxs = g.nvtxs());
            if coarsest {
                self.totals = g.total_vwgt();
                self.pw = part_weights(g, part, nparts);
            }
            let maxvw = max_vertex_weights(g);
            BalanceModel::from_parts(
                g.ncon(),
                nparts,
                self.totals.clone(),
                &maxvw,
                config.imbalance_tol,
            )
        };
        // Explicit balancing when a level starts outside the caps.
        if !model.is_balanced(&self.pw) {
            rebalance(g, part, &mut self.pw, &model, self.rng);
        }
        let stats = {
            let _k = span!("kway_refine", nvtxs = g.nvtxs());
            greedy_kway_refine_ws(
                g,
                part,
                &mut self.pw,
                &model,
                config.refine_iters,
                self.rng,
                &mut self.ws,
            )
        };
        let fields = if trace::enabled() {
            vec![
                ("boundary", self.ws.engine.boundary().len().into()),
                ("moves", stats.moves.into()),
                ("cut", self.ws.engine.cut_and_volume().0.into()),
                (
                    "imbalance",
                    imbalances_from_weights(&self.pw, model.totals(), nparts).into(),
                ),
            ]
        } else {
            Vec::new()
        };
        self.model = Some(model);
        fields
    }

    fn project(&mut self, level: &CoarseLevel, _finer: &Graph, part: &[u32]) -> Vec<u32> {
        level.project(part)
    }

    fn finish(&mut self, g: &Graph, part: &mut [u32]) {
        // Alternate balancing and refinement until the caps hold (bounded
        // rounds).
        let model = self
            .model
            .take()
            .expect("the finest level is refined before it is finished");
        for _ in 0..4 {
            if model.is_balanced(&self.pw) {
                break;
            }
            rebalance(g, part, &mut self.pw, &model, self.rng);
            let _k = span!("kway_refine", nvtxs = g.nvtxs());
            greedy_kway_refine_ws(g, part, &mut self.pw, &model, 2, self.rng, &mut self.ws);
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
    policy.into_result(graph, assignment, levels.len())
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
        // Regression: on this mesh the reseeded recursive bisection starts
        // uncoarsening badly imbalanced, which used to wedge the
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

    /// Delegates to [`Serial`] and records whether `finish` found the
    /// finest level outside the caps, so it ran its rebalance rounds.
    struct Watch<'a> {
        serial: Serial<'a>,
        finish_rebalanced: bool,
    }

    impl Policy<Graph> for Watch<'_> {
        fn check(&self) -> CheckLevel {
            self.serial.check()
        }
        fn nparts(&self) -> usize {
            self.serial.nparts
        }
        fn initial(&mut self, coarsest: &Graph) -> Vec<u32> {
            self.serial.initial(coarsest)
        }
        fn check_part(&self, seam: Seam, graph: &Graph, part: &[u32]) {
            self.serial.check_part(seam, graph, part)
        }
        fn refine(
            &mut self,
            lvl: usize,
            coarsest: bool,
            g: &Graph,
            part: &mut [u32],
        ) -> LevelFields {
            self.serial.refine(lvl, coarsest, g, part)
        }
        fn project(&mut self, level: &CoarseLevel, finer: &Graph, part: &[u32]) -> Vec<u32> {
            self.serial.project(level, finer, part)
        }
        fn finish(&mut self, g: &Graph, part: &mut [u32]) {
            let model = self.serial.model.as_ref().unwrap();
            self.finish_rebalanced = !model.is_balanced(&self.serial.pw);
            self.serial.finish(g, part)
        }
    }

    /// `partition_kway`'s walk under [`Watch`]: the result and whether
    /// `finish` rebalanced.
    fn watched_kway(g: &Graph, nparts: usize, config: &PartitionConfig) -> (PartitionResult, bool) {
        let mut rng = Rng::seed_from_u64(config.seed);
        let mut coarsener = Coarsener::new(config, &mut rng, config.check, false);
        let levels = multilevel::coarsen(&mut coarsener, g, config.coarsen_target(nparts));
        drop(coarsener);
        let mut watch = Watch {
            serial: Serial::new(config, nparts, &mut rng),
            finish_rebalanced: false,
        };
        let part = multilevel::uncoarsen(&mut watch, g, &levels);
        let rebalanced = watch.finish_rebalanced;
        (watch.serial.into_result(g, part, levels.len()), rebalanced)
    }

    #[test]
    fn kept_quality_equals_the_recount() {
        use crate::HierarchySnapshot;
        use mcgp_graph::generators::rmat_default;
        let graphs = [
            ("grid", grid_2d(48, 48)),
            ("type1", synthetic::type1(&mrng_like(3000, 21), 3, 21)),
            ("type2", synthetic::type2(&mrng_like(3000, 22), 3, 22)),
            // Isolated vertices: rows of zero capacity.
            ("rmat12", rmat_default(12, 8, 23)),
        ];
        let cfg = PartitionConfig::default().with_seed(5);
        for (name, g) in &graphs {
            let snapshot = HierarchySnapshot::build(g, &cfg);
            for k in [2usize, 7, 16, 64] {
                let cold = partition_kway(g, k, &cfg);
                assert_eq!(
                    cold.quality,
                    PartitionQuality::measure(g, &cold.partition),
                    "{name} k={k}"
                );
                let warm = snapshot.partition(g, k, &cfg);
                assert_eq!(warm.partition, cold.partition, "{name} k={k}");
                assert_eq!(
                    warm.quality,
                    PartitionQuality::measure(g, &warm.partition),
                    "{name} k={k} replay"
                );
            }
        }
    }

    #[test]
    fn kept_quality_survives_the_finishing_rebalance() {
        // At zero tolerance the finest level ends refinement over its caps,
        // so `finish` alternates rebalancing and refinement.
        let g = synthetic::type2(&mrng_like(3000, 22), 3, 22);
        let cfg = PartitionConfig {
            imbalance_tol: 0.0,
            ..PartitionConfig::default().with_seed(5)
        };
        let (r, rebalanced) = watched_kway(&g, 16, &cfg);
        assert!(rebalanced, "finish found the finest level balanced");
        assert_eq!(r.quality, PartitionQuality::measure(&g, &r.partition));
        assert_eq!(r.partition, partition_kway(&g, 16, &cfg).partition);
    }

    #[test]
    fn reports_coarsening_levels() {
        let g = mrng_like(4000, 15);
        let cfg = PartitionConfig::default();
        let r = partition_kway(&g, 4, &cfg);
        assert!(r.coarsen_levels >= 3, "levels {}", r.coarsen_levels);
    }
}
