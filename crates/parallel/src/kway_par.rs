//! The full parallel multilevel multi-constraint k-way partitioner: the BSP
//! policy of the [`mcgp_core::multilevel`] driver.

use crate::coarsen_par::{parallel_contract, DistLevel};
use crate::cost::{CostModel, CostTracker, RunStats};
use crate::dist::DistGraph;
use crate::initial_par::parallel_initial_partition;
use crate::match_par::parallel_match;
use crate::refine_par::{parallel_balance, reservation_refine, ParRefineStats};
use crate::slice_refine::slice_refine;
use mcgp_core::balance::BalanceModel;
use mcgp_core::config::PartitionConfig;
use mcgp_core::multilevel::{self, enforce, Coarsening, LevelFields, Policy, Seam};
use mcgp_graph::check as gcheck;
use mcgp_graph::metrics::imbalances_from_weights;
use mcgp_graph::{CheckLevel, Graph, Partition, PartitionQuality};
use mcgp_runtime::{event, Span};

/// Which parallel refinement scheme to run during uncoarsening.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefinerKind {
    /// The paper's reservation scheme (propose → reduce → randomised
    /// disallow → commit). Default.
    Reservation,
    /// The rejected slice-allocation scheme (extra space ÷ p), kept for the
    /// ablation of experiment A1.
    Slice,
}

/// Parity-alternating matching rounds per coarsening level.
const MATCH_ROUNDS: usize = 4;

/// Coarsest-graph size per part for the parallel driver. Larger than the
/// serial default: the initial partitioning *must* come out balanced (the
/// paper: an initial partitioning more than ~20 % imbalanced is unlikely to
/// be repaired by multilevel refinement), and with many constraints that
/// requires finer vertex granularity at the coarsest level.
const COARSEN_TO_PER_PART: usize = 50;

/// How many of the `p` replicated initial-partitioning runs to actually
/// execute on the host (they are concurrent on the modeled machine).
const INIT_RUNS_EXECUTED: usize = 4;

/// Configuration of the parallel partitioner.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Number of logical processors simulated.
    pub nprocs: usize,
    /// Serial sub-configuration shared with the coarsest-graph initial
    /// partitioning: tolerance, matching scheme, seed, refinement
    /// iterations per uncoarsening level (paper: upper-bounded), and the
    /// invariant validation level at every pipeline seam. At `Full` the
    /// BSP driver also gathers each coarse distributed graph and validates
    /// its CSR structure (symmetry included), which is expensive.
    pub serial: PartitionConfig,
    /// Refinement scheme.
    pub refiner: RefinerKind,
    /// Graph folding threshold: when a coarse graph drops below this many
    /// vertices per active processor, it is redistributed onto fewer
    /// processors (as in ParMETIS). Folding keeps coarse-level refinement
    /// effective — with a handful of vertices per processor, almost every
    /// move conflicts and the reservation scheme disallows nearly
    /// everything. Set to 0 to disable.
    pub fold_threshold: usize,
}

impl ParallelConfig {
    /// Default configuration for `nprocs` logical processors.
    pub fn new(nprocs: usize) -> Self {
        ParallelConfig {
            nprocs,
            serial: PartitionConfig::default(),
            refiner: RefinerKind::Reservation,
            fold_threshold: 256,
        }
    }

    /// Copy with a different seed (for multi-run means).
    pub fn with_seed(&self, seed: u64) -> Self {
        ParallelConfig {
            serial: self.serial.with_seed(seed),
            ..self.clone()
        }
    }
}

/// Result of a parallel partitioning run.
#[derive(Clone, Debug)]
pub struct ParallelResult {
    /// The computed k-way partition (global).
    pub partition: Partition,
    /// Quality of the final partition.
    pub quality: PartitionQuality,
    /// Coarsening levels used (more than serial: slow coarsening).
    pub coarsen_levels: usize,
    /// Aggregated refinement statistics over all levels.
    pub refine: ParRefineStats,
    /// BSP cost accounting and modeled times.
    pub stats: RunStats,
}

/// Computes the global `nparts × ncon` subdomain weights with one local scan
/// plus an allreduce (both accounted).
fn compute_pw(
    dist: &DistGraph,
    part: &[u32],
    nparts: usize,
    tracker: &mut CostTracker,
) -> Vec<i64> {
    let p = dist.nprocs();
    let ncon = dist.ncon();
    let mut pw = vec![0i64; nparts * ncon];
    let mut comp = vec![0u64; p];
    for (q, comp_q) in comp.iter_mut().enumerate() {
        let lg = dist.local(q);
        *comp_q = (lg.nlocal() * ncon) as u64;
        for lv in 0..lg.nlocal() {
            let b = part[lg.global(lv)] as usize;
            for (i, &w) in lg.vwgt(lv).iter().enumerate() {
                pw[b * ncon + i] += w;
            }
        }
    }
    let bytes = vec![(2 * nparts * ncon * 8) as u64; p];
    tracker.superstep(&comp, &bytes);
    pw
}

/// The balance model of a distributed level.
fn dist_model(dist: &DistGraph, nparts: usize, tol: f64) -> BalanceModel {
    BalanceModel::from_parts(
        dist.ncon(),
        nparts,
        dist.total_vwgt(),
        &dist.max_vwgt(),
        tol,
    )
}

/// The BSP policy: distributed levels, handshake matching and contraction
/// with graph folding, replicated initial partitioning, reservation or
/// slice refinement, and the cost of every superstep. Each level draws from
/// its own seed, derived from the run's seed and the level.
struct Bsp<'a> {
    cfg: &'a ParallelConfig,
    nparts: usize,
    tracker: CostTracker,
    stats: ParRefineStats,
}

impl Coarsening<DistGraph> for Bsp<'_> {
    fn check(&self) -> CheckLevel {
        self.cfg.serial.check
    }

    fn coarsen_level(&mut self, cur: &DistGraph, lvl: usize, _: &mut Span) -> Option<DistLevel> {
        let cfg = self.cfg;
        let matching = parallel_match(
            cur,
            cfg.serial.matching,
            MATCH_ROUNDS,
            cfg.serial.seed ^ ((lvl as u64) << 40),
            &mut self.tracker,
        );
        if matching.coarse_nvtxs as f64 > 0.98 * cur.nvtxs() as f64 {
            return None; // stall
        }
        let mut level = parallel_contract(cur, &matching, &mut self.tracker);
        // Graph folding: redistribute small coarse graphs onto fewer
        // processors. Vertex ids are preserved (only ownership changes),
        // so the cmap stays valid; the shipment of each block is accounted.
        let cn = level.graph.nvtxs();
        let active = level.graph.nprocs();
        if cfg.fold_threshold > 0 && cn < cfg.fold_threshold * active && active > 1 {
            let new_p = (cn / cfg.fold_threshold).max(1).min(active);
            event!(
                "graph_fold",
                level = lvl,
                nvtxs = cn,
                from_procs = active,
                to_procs = new_p
            );
            let gathered = level.graph.gather();
            let bytes_per_proc = (gathered.adjacency_len() * 12 / active.max(1)) as u64;
            self.tracker
                .superstep(&vec![cn as u64; active], &vec![bytes_per_proc; active]);
            level.graph = DistGraph::distribute(&gathered, new_p);
        }
        Some(level)
    }

    fn check_level(&self, finer: &DistGraph, level: &DistLevel) {
        // Contraction (and folding, which only moves ownership) must
        // conserve weight totals and keep the cmap in range; Full
        // additionally gathers and validates the CSR itself.
        enforce(gcheck::check_conserved_totals(
            &finer.total_vwgt(),
            &level.graph.total_vwgt(),
        ));
        enforce(gcheck::check_projection(
            &level.cmap,
            finer.nvtxs(),
            level.graph.nvtxs(),
        ));
        if self.cfg.serial.check >= CheckLevel::Full {
            enforce(gcheck::check_graph(&level.graph.gather(), self.cfg.serial.check));
        }
    }
}

impl Policy<DistGraph> for Bsp<'_> {
    fn check(&self) -> CheckLevel {
        self.cfg.serial.check
    }

    fn nparts(&self) -> usize {
        self.nparts
    }

    fn initial(&mut self, coarsest: &DistGraph) -> Vec<u32> {
        let cfg = self.cfg;
        parallel_initial_partition(
            coarsest,
            self.nparts,
            &cfg.serial,
            INIT_RUNS_EXECUTED,
            &mut self.tracker,
        )
    }

    fn check_part(&self, seam: Seam, dist: &DistGraph, part: &[u32]) {
        enforce(gcheck::check_assignment_of(dist.nvtxs(), part, self.nparts));
        // The replicated initial partitioning and the finished partition
        // cover every subdomain; a refined coarse level need not.
        if matches!(seam, Seam::Initial | Seam::Finished) {
            enforce(gcheck::check_no_empty_parts(part, self.nparts));
        }
    }

    fn refine(
        &mut self,
        lvl: usize,
        coarsest: bool,
        dist: &DistGraph,
        part: &mut [u32],
    ) -> LevelFields {
        let (cfg, nparts, tracker) = (self.cfg, self.nparts, &mut self.tracker);
        let seed = cfg.serial.seed;
        let lvl_seed = if coarsest {
            seed ^ 0xC0A0
        } else {
            seed ^ ((lvl as u64) << 16)
        };
        let model = dist_model(dist, nparts, cfg.serial.imbalance_tol);
        let mut pw = compute_pw(dist, part, nparts, tracker);
        // Restore the caps before refining, as the serial policy does with
        // its explicit balancing pass (bounded rounds).
        let bal_moves = parallel_balance(
            dist,
            part,
            &mut pw,
            &model,
            8,
            true,
            lvl_seed ^ 0xBA7,
            tracker,
        );
        let iters = cfg.serial.refine_iters;
        let s = match cfg.refiner {
            RefinerKind::Reservation => {
                reservation_refine(dist, part, &mut pw, &model, iters, lvl_seed, tracker)
            }
            RefinerKind::Slice => {
                slice_refine(dist, part, &mut pw, &model, iters, lvl_seed, tracker)
            }
        };
        self.stats.iterations += s.iterations;
        self.stats.committed += s.committed;
        self.stats.disallowed += s.disallowed;
        self.stats.balance_moves += bal_moves;
        if !mcgp_runtime::trace::enabled() {
            return Vec::new();
        }
        let mut cut2 = 0i64; // every cut edge counted from both sides
        for q in 0..dist.nprocs() {
            let lg = dist.local(q);
            for lv in 0..lg.nlocal() {
                let pv = part[lg.global(lv)];
                cut2 += lg
                    .edges(lv)
                    .filter(|&(u, _)| part[u as usize] != pv)
                    .map(|(_, w)| w)
                    .sum::<i64>();
            }
        }
        vec![
            ("cut", (cut2 / 2).into()),
            ("committed", s.committed.into()),
            ("disallowed", s.disallowed.into()),
            ("balance_moves", bal_moves.into()),
            (
                "imbalance",
                imbalances_from_weights(&pw, model.totals(), model.nparts()).into(),
            ),
        ]
    }

    fn project(&mut self, level: &DistLevel, finer: &DistGraph, part: &[u32]) -> Vec<u32> {
        // Fine v takes the part of its coarse vertex; vertices whose coarse
        // vertex lives on another processor fetch it.
        let p = finer.nprocs();
        let mut comp = vec![0u64; p];
        let mut bytes = vec![0u64; p];
        let mut fine_part = vec![0u32; finer.nvtxs()];
        for q in 0..p {
            let lg = finer.local(q);
            comp[q] = lg.nlocal() as u64;
            for lv in 0..lg.nlocal() {
                let v = lg.global(lv);
                let c = level.cmap[v] as usize;
                if level.graph.owner(c) != q {
                    bytes[q] += 4;
                }
                fine_part[v] = part[c];
            }
        }
        self.tracker.superstep(&comp, &bytes);
        fine_part
    }

    fn finish(&mut self, finest: &DistGraph, part: &mut [u32]) {
        // The reservation scheme's residual overshoot at the finest level
        // is corrected here (cheap — the overshoot is small).
        let model = dist_model(finest, self.nparts, self.cfg.serial.imbalance_tol);
        let mut pw = compute_pw(finest, part, self.nparts, &mut self.tracker);
        let seed = self.cfg.serial.seed ^ 0xF1A1;
        self.stats.balance_moves += parallel_balance(
            finest,
            part,
            &mut pw,
            &model,
            16,
            true,
            seed,
            &mut self.tracker,
        );
    }
}

/// Runs the parallel multilevel k-way multi-constraint partitioner on
/// `nprocs` logical processors (`cfg.nprocs`), producing `nparts`
/// subdomains. The paper's experiments use `nparts == nprocs`.
pub fn parallel_partition_kway(
    graph: &Graph,
    nparts: usize,
    cfg: &ParallelConfig,
) -> ParallelResult {
    assert!(nparts >= 1);
    assert!(cfg.nprocs >= 1);
    assert!(graph.nvtxs() >= nparts, "more parts than vertices");
    let wall_start = std::time::Instant::now();
    let finest = DistGraph::distribute(graph, cfg.nprocs.min(graph.nvtxs()));
    let mut policy = Bsp {
        cfg,
        nparts,
        tracker: CostTracker::new(),
        stats: ParRefineStats::default(),
    };
    let target = (COARSEN_TO_PER_PART * nparts).max(cfg.serial.coarsen_target(nparts));
    let levels = multilevel::coarsen(&mut policy, &finest, target);
    let part = multilevel::uncoarsen(&mut policy, &finest, &levels);

    let partition =
        Partition::new(nparts, part).expect("parallel partitioner produced invalid assignment");
    let quality = {
        let _s = mcgp_runtime::span!("metrics", nvtxs = graph.nvtxs());
        PartitionQuality::measure(graph, &partition)
    };
    let tracker = &policy.tracker;
    let cost = CostModel::default();
    let stats = RunStats {
        nprocs: cfg.nprocs,
        supersteps: tracker.supersteps(),
        comm_bytes: tracker.total_bytes(),
        comp_ops: tracker.total_comp(),
        modeled_time_s: tracker.modeled_time(&cost),
        modeled_serial_time_s: tracker.total_comp() as f64 * cost.t_comp,
        wall_time_s: wall_start.elapsed().as_secs_f64(),
    };
    ParallelResult {
        partition,
        quality,
        coarsen_levels: levels.len(),
        refine: policy.stats,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::partition_kway;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    #[test]
    fn parallel_matches_serial_quality_roughly() {
        let g = synthetic::type1(&mrng_like(4000, 3), 3, 3);
        let serial = partition_kway(&g, 8, &PartitionConfig::default());
        let par = parallel_partition_kway(&g, 8, &ParallelConfig::new(8));
        let ratio = par.quality.edge_cut as f64 / serial.quality.edge_cut as f64;
        assert!(
            (0.5..=1.6).contains(&ratio),
            "parallel/serial cut ratio {ratio} ({} vs {})",
            par.quality.edge_cut,
            serial.quality.edge_cut
        );
        assert!(
            par.quality.max_imbalance < 1.25,
            "imbalance {}",
            par.quality.max_imbalance
        );
    }

    #[test]
    fn works_across_processor_counts() {
        let g = synthetic::type2(&mrng_like(3000, 5), 3, 5);
        for p in [1usize, 2, 8, 32] {
            let r = parallel_partition_kway(&g, 8, &ParallelConfig::new(p));
            assert!(r.partition.all_parts_nonempty(), "p={p}");
            assert!(
                r.quality.max_imbalance < 1.35,
                "p={p}: {}",
                r.quality.max_imbalance
            );
            assert!(r.stats.supersteps > 0);
        }
    }

    #[test]
    fn slow_coarsening_uses_at_least_serial_levels() {
        // Compare at the *same* coarsest-graph target: the parallel matching
        // protocol under-matches per level, so it needs at least as many
        // levels to reach it (the paper's slow-coarsening effect).
        use mcgp_core::coarsen::coarsen;
        use mcgp_runtime::rng::Rng;
        let g = mrng_like(4000, 7);
        let cfg = ParallelConfig::new(16);
        let target = COARSEN_TO_PER_PART * 8;
        let mut rng = Rng::seed_from_u64(7);
        let serial_cfg = PartitionConfig {
            coarsen_to_per_part: COARSEN_TO_PER_PART,
            coarsen_to_min: target,
            ..PartitionConfig::default()
        };
        let serial_levels = coarsen(&g, target, &serial_cfg, &mut rng).len();
        let par = parallel_partition_kway(&g, 8, &cfg);
        assert!(
            par.coarsen_levels >= serial_levels,
            "parallel {} vs serial {} levels",
            par.coarsen_levels,
            serial_levels
        );
    }

    #[test]
    fn modeled_time_grows_with_communication() {
        // Same graph, same work: more processors => more supersteps traffic,
        // but less per-processor compute; the modeled time must be finite
        // and the communication volume must grow with p.
        let g = mrng_like(3000, 9);
        let r2 = parallel_partition_kway(&g, 4, &ParallelConfig::new(2));
        let r16 = parallel_partition_kway(&g, 4, &ParallelConfig::new(16));
        assert!(r16.stats.comm_bytes > r2.stats.comm_bytes);
        assert!(r2.stats.modeled_time_s > 0.0 && r16.stats.modeled_time_s > 0.0);
    }

    #[test]
    fn single_processor_degenerates_gracefully() {
        let g = grid_2d(20, 20);
        let r = parallel_partition_kway(&g, 4, &ParallelConfig::new(1));
        assert!(r.quality.max_imbalance < 1.10);
        assert!(r.partition.all_parts_nonempty());
    }

    #[test]
    fn deterministic_per_seed() {
        let g = synthetic::type1(&grid_2d(24, 24), 2, 11);
        let cfg = ParallelConfig::new(4);
        let a = parallel_partition_kway(&g, 4, &cfg);
        let b = parallel_partition_kway(&g, 4, &cfg);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
    }

    #[test]
    fn slice_refiner_is_no_better_than_reservation() {
        let g = synthetic::type1(&mrng_like(3000, 13), 3, 13);
        let res = parallel_partition_kway(&g, 16, &ParallelConfig::new(16));
        let mut scfg = ParallelConfig::new(16);
        scfg.refiner = RefinerKind::Slice;
        let sli = parallel_partition_kway(&g, 16, &scfg);
        // Slice restricts strictly more moves; allow noise but it should
        // not meaningfully beat the reservation scheme.
        assert!(
            sli.quality.edge_cut as f64 >= 0.9 * res.quality.edge_cut as f64,
            "slice {} vs reservation {}",
            sli.quality.edge_cut,
            res.quality.edge_cut
        );
    }
}
