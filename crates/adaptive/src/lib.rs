//! # mcgp-adaptive — dynamic multi-constraint repartitioning
//!
//! The paper's own motivation for parallel partitioning includes *adaptive
//! computations*: "the mesh needs to be partitioned frequently as the
//! simulation progresses", and the same group's follow-up work (Schloegel,
//! Karypis & Kumar, *Parallel static and dynamic multi-constraint graph
//! partitioning*, CCPE 2002) develops exactly the repartitioners provided
//! here, in their serial multi-constraint form:
//!
//! * [`scratch_remap`] — **scratch-remap repartitioning**: partition the
//!   evolved workload from scratch (best cut), then relabel the new
//!   subdomains to maximise overlap with the old assignment, slashing the
//!   migration volume without touching the cut.
//! * [`refine`] — **refinement-based repartitioning**: keep the old
//!   assignment and repair it in place with the multi-constraint balancing
//!   and refinement passes (lowest migration; the cut degrades gracefully
//!   as the workload drifts).
//! * [`migration`] — migration-cost accounting (the third axis, next to
//!   edge-cut and balance, that adaptive simulations optimise).
//! * [`evolve`] — a synthetic workload-evolution model (a plume of activity
//!   walking across the mesh) for experiments and tests.
//!
//! ```
//! use mcgp_graph::generators::mrng_like;
//! use mcgp_graph::synthetic;
//! use mcgp_adaptive::{repartition, RepartitionMethod};
//! use mcgp_core::{partition_kway, PartitionConfig};
//!
//! let mesh = mrng_like(2_000, 1);
//! let old_workload = synthetic::type1(&mesh, 2, 1);
//! let cfg = PartitionConfig::default();
//! let old = partition_kway(&old_workload, 8, &cfg).partition;
//!
//! // The workload evolves; repartition with minimal migration.
//! let new_workload = synthetic::type1(&mesh, 2, 2);
//! let r = repartition(&new_workload, &old, 8, RepartitionMethod::ScratchRemap, &cfg);
//! assert!(r.migration.moved_vertices < mesh.nvtxs()); // remap keeps overlap
//! ```

pub mod evolve;
pub mod migration;
pub mod refine;
pub mod scratch_remap;

pub use migration::{migration_cost, MigrationCost};

use mcgp_core::PartitionConfig;
use mcgp_graph::{Graph, Partition, PartitionQuality};

/// Which repartitioning strategy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepartitionMethod {
    /// Partition from scratch, then remap subdomain labels to the old
    /// assignment (best cut, moderate migration).
    ScratchRemap,
    /// Repair the old assignment in place (lowest migration, cut degrades
    /// with drift).
    Refine,
}

/// Result of a repartitioning step.
#[derive(Clone, Debug)]
pub struct RepartitionResult {
    /// The new assignment.
    pub partition: Partition,
    /// Quality of the new assignment under the *new* weights.
    pub quality: PartitionQuality,
    /// Migration cost relative to the old assignment.
    pub migration: MigrationCost,
}

/// Repartitions `graph` (carrying the *evolved* weights) given the previous
/// assignment `old`.
pub fn repartition(
    graph: &Graph,
    old: &Partition,
    nparts: usize,
    method: RepartitionMethod,
    config: &PartitionConfig,
) -> RepartitionResult {
    assert_eq!(graph.nvtxs(), old.len(), "old partition size mismatch");
    assert_eq!(
        nparts,
        old.nparts(),
        "repartitioning must keep the subdomain count"
    );
    let partition = match method {
        RepartitionMethod::ScratchRemap => scratch_remap::scratch_remap(graph, old, nparts, config),
        RepartitionMethod::Refine => refine::refine_repartition(graph, old, nparts, config),
    };
    let quality = PartitionQuality::measure(graph, &partition);
    let migration = migration_cost(graph, old, &partition);
    RepartitionResult {
        partition,
        quality,
        migration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::partition_kway;
    use mcgp_graph::generators::mrng_like;
    use mcgp_graph::synthetic;

    #[test]
    fn both_methods_produce_valid_balanced_partitions() {
        let mesh = mrng_like(3_000, 1);
        let cfg = PartitionConfig::default();
        let old_wg = synthetic::type1(&mesh, 3, 1);
        let old = partition_kway(&old_wg, 8, &cfg).partition;
        let new_wg = synthetic::type1(&mesh, 3, 5);
        for method in [RepartitionMethod::ScratchRemap, RepartitionMethod::Refine] {
            let r = repartition(&new_wg, &old, 8, method, &cfg);
            assert_eq!(r.partition.nparts(), 8);
            assert!(
                r.quality.max_imbalance < 1.25,
                "{method:?}: imbalance {}",
                r.quality.max_imbalance
            );
        }
    }

    #[test]
    fn refine_migrates_less_than_scratch_remap() {
        let mesh = mrng_like(3_000, 2);
        let cfg = PartitionConfig::default();
        let old_wg = synthetic::type1(&mesh, 2, 1);
        let old = partition_kway(&old_wg, 8, &cfg).partition;
        // Mild drift: same region structure, slightly different weights.
        let new_wg = synthetic::type1(&mesh, 2, 1 ^ 0xFF);
        let sr = repartition(&new_wg, &old, 8, RepartitionMethod::ScratchRemap, &cfg);
        let rf = repartition(&new_wg, &old, 8, RepartitionMethod::Refine, &cfg);
        assert!(
            rf.migration.moved_vertices <= sr.migration.moved_vertices,
            "refine {} vs scratch-remap {}",
            rf.migration.moved_vertices,
            sr.migration.moved_vertices
        );
    }

    #[test]
    #[should_panic(expected = "subdomain count")]
    fn rejects_changing_nparts() {
        let mesh = mrng_like(500, 3);
        let cfg = PartitionConfig::default();
        let old = partition_kway(&mesh, 4, &cfg).partition;
        repartition(&mesh, &old, 8, RepartitionMethod::Refine, &cfg);
    }
}
