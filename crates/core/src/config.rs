//! Partitioner configuration.

use mcgp_graph::CheckLevel;

/// Coarsening matching scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchingScheme {
    /// Uniform random matching (baseline; fastest, lowest quality).
    Random,
    /// Heavy-edge matching: match across the heaviest incident edge.
    HeavyEdge,
    /// Heavy-edge matching with the SC'98 *balanced-edge* tie-break: among
    /// equally heavy edges, prefer the partner whose combined weight vector
    /// is flattest across constraints. The paper's default for
    /// multi-constraint graphs.
    BalancedHeavyEdge,
}

/// Tuning knobs of the multilevel partitioner.
///
/// The defaults reproduce the paper's setup: 5 % imbalance tolerance,
/// balanced heavy-edge matching, bounded refinement iterations per level.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// RNG seed; every run is fully deterministic for a given seed.
    pub seed: u64,
    /// Per-constraint load-imbalance tolerance (0.05 = the paper's 5 %).
    pub imbalance_tol: f64,
    /// Stop coarsening once the graph has at most
    /// `max(coarsen_to_per_part * nparts, coarsen_to_min)` vertices.
    pub coarsen_to_per_part: usize,
    /// Absolute floor for the coarsest-graph size.
    pub coarsen_to_min: usize,
    /// Matching scheme used during coarsening.
    pub matching: MatchingScheme,
    /// Worker threads for the shared-memory pipeline. Threads reach one
    /// stage, the recursive-bisection task tree of the initial partition,
    /// whose two halves of a split run as pool tasks when `nthreads > 1`
    /// and inline otherwise; matching, contraction and k-way refinement
    /// are the serial kernels at every count. This decides speed only: a
    /// partition is a function of the seed alone.
    pub nthreads: usize,
    /// Maximum refinement iterations per uncoarsening level (the paper
    /// upper-bounds these; early exit on a local minimum).
    pub refine_iters: usize,
    /// Number of seeded attempts for the initial bisection; the best
    /// balanced cut wins.
    pub init_tries: usize,
    /// Maximum FM passes per 2-way refinement call.
    pub fm_passes: usize,
    /// FM hill-climbing window: abort a pass after this many consecutive
    /// non-improving moves.
    pub fm_window: usize,
    /// Invariant validation at every pipeline seam (post-coarsen per level,
    /// post-initial, post-project, post-refine). Defaults to `Cheap` when
    /// debug assertions are on, `Off` otherwise; override with the
    /// `MCGP_CHECK` environment variable (`off | cheap | full`). A violation
    /// is a bug in the partitioner, not in the input, so the drivers panic
    /// with the catalogued invariant name.
    pub check: CheckLevel,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        PartitionConfig {
            seed: 4242,
            imbalance_tol: 0.05,
            coarsen_to_per_part: 15,
            coarsen_to_min: 120,
            matching: MatchingScheme::BalancedHeavyEdge,
            nthreads: 1,
            refine_iters: 8,
            init_tries: 8,
            fm_passes: 8,
            fm_window: 120,
            check: CheckLevel::for_build(),
        }
    }
}

impl PartitionConfig {
    /// Copy of this config with a different seed (used for multi-run means).
    pub fn with_seed(&self, seed: u64) -> Self {
        PartitionConfig {
            seed,
            ..self.clone()
        }
    }

    /// Copy of this config with a different shared-memory thread count
    /// (`0` is clamped to `1`).
    pub fn with_threads(&self, nthreads: usize) -> Self {
        PartitionConfig {
            nthreads: nthreads.max(1),
            ..self.clone()
        }
    }

    /// The coarsest-graph size target for a `nparts`-way partitioning.
    pub fn coarsen_target(&self, nparts: usize) -> usize {
        (self.coarsen_to_per_part * nparts).max(self.coarsen_to_min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = PartitionConfig::default();
        assert_eq!(c.imbalance_tol, 0.05);
        assert_eq!(c.matching, MatchingScheme::BalancedHeavyEdge);
        assert!(c.refine_iters > 0);
    }

    #[test]
    fn coarsen_target_scales_with_parts_and_floors() {
        let c = PartitionConfig::default();
        assert_eq!(c.coarsen_target(128), 15 * 128);
        assert_eq!(c.coarsen_target(2), c.coarsen_to_min);
    }

    #[test]
    fn with_seed_only_changes_seed() {
        let c = PartitionConfig::default();
        let d = c.with_seed(9);
        assert_eq!(d.seed, 9);
        assert_eq!(d.imbalance_tol, c.imbalance_tol);
    }

    #[test]
    fn default_is_serial_and_with_threads_clamps() {
        let c = PartitionConfig::default();
        assert_eq!(c.nthreads, 1);
        assert_eq!(c.with_threads(8).nthreads, 8);
        assert_eq!(c.with_threads(0).nthreads, 1);
        assert_eq!(c.with_threads(8).seed, c.seed);
    }
}
