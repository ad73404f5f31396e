//! Extension experiment E1: adaptive repartitioning (the paper's stated
//! motivation — "in adaptive computations, the mesh needs to be partitioned
//! frequently as the simulation progresses" — made concrete with the
//! scratch-remap and refinement repartitioners of `mcgp-adaptive`).
//!
//! A plume of activity walks across the mesh for `steps` time steps; each
//! step is repartitioned with both strategies, recording the cut /
//! balance / migration triangle.

use crate::report::{f3, render_table};
use mcgp_adaptive::evolve::EvolvingWorkload;
use mcgp_adaptive::{repartition, RepartitionMethod};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::Graph;

/// One step of the adaptive comparison.
#[derive(Clone, Debug)]
pub struct AdaptiveRow {
    /// Strategy name.
    pub method: String,
    /// Time step.
    pub step: usize,
    /// Edge-cut after repartitioning.
    pub cut: i64,
    /// Maximum imbalance after repartitioning.
    pub balance: f64,
    /// Vertices migrated from the previous step's partition.
    pub moved: usize,
}

mcgp_runtime::impl_to_json!(AdaptiveRow {
    method,
    step,
    cut,
    balance,
    moved
});

/// Runs the adaptive comparison on `mesh` over `steps` steps.
pub fn adaptive_comparison(
    mesh: &Graph,
    nparts: usize,
    steps: usize,
    seed: u64,
) -> Vec<AdaptiveRow> {
    let cfg = PartitionConfig::default().with_seed(seed);
    let mut rows = Vec::new();
    for method in [RepartitionMethod::ScratchRemap, RepartitionMethod::Refine] {
        let mut ev = EvolvingWorkload::new(mesh.clone(), 0.15, seed);
        let first = ev.next_workload();
        let mut current = partition_kway(&first, nparts, &cfg).partition;
        for step in 1..steps {
            let wg = ev.next_workload();
            let r = repartition(&wg, &current, nparts, method, &cfg);
            rows.push(AdaptiveRow {
                method: format!("{method:?}"),
                step,
                cut: r.quality.edge_cut,
                balance: r.quality.max_imbalance,
                moved: r.migration.moved_vertices,
            });
            current = r.partition;
        }
    }
    rows
}

/// Renders the adaptive comparison table.
pub fn adaptive_text(rows: &[AdaptiveRow]) -> String {
    render_table(
        &["method", "step", "cut", "balance", "moved vertices"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.method.clone(),
                    r.step.to_string(),
                    r.cut.to_string(),
                    f3(r.balance),
                    r.moved.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::mrng_like;

    #[test]
    fn comparison_shows_the_tradeoff() {
        let mesh = mrng_like(2_000, 1);
        let rows = adaptive_comparison(&mesh, 8, 4, 3);
        assert_eq!(rows.len(), 6); // 2 methods x 3 repartitioned steps
        let moved =
            |m: &str| -> usize { rows.iter().filter(|r| r.method == m).map(|r| r.moved).sum() };
        assert!(
            moved("Refine") <= moved("ScratchRemap"),
            "refine should migrate no more than scratch-remap: {} vs {}",
            moved("Refine"),
            moved("ScratchRemap")
        );
        assert!(adaptive_text(&rows).contains("ScratchRemap"));
    }
}
