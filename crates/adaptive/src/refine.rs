//! Refinement-based repartitioning: keep the old assignment and repair it
//! in place under the evolved weights — the multi-constraint balancing pass
//! restores the (now violated) balance caps with the fewest, least damaging
//! moves, and greedy refinement polishes the cut afterwards. Migration is
//! exactly the set of vertices those passes move.

use mcgp_core::balance::{part_weights, rebalance, BalanceModel};
use mcgp_core::kway_refine::greedy_kway_refine;
use mcgp_core::PartitionConfig;
use mcgp_graph::{Graph, Partition};
use mcgp_runtime::rng::Rng;

/// Repairs `old` in place under `graph`'s (evolved) weights.
pub fn refine_repartition(
    graph: &Graph,
    old: &Partition,
    nparts: usize,
    config: &PartitionConfig,
) -> Partition {
    let mut assignment = old.assignment().to_vec();
    let model = BalanceModel::new(graph, nparts, config.imbalance_tol);
    let mut pw = part_weights(graph, &assignment, nparts);
    let mut rng = Rng::seed_from_u64(config.seed ^ 0xADA7);
    // Alternate balancing and refinement until the caps hold (bounded).
    for _ in 0..4 {
        if !model.is_balanced(&pw) {
            rebalance(graph, &mut assignment, &mut pw, &model, &mut rng);
        }
        let stats = greedy_kway_refine(
            graph,
            &mut assignment,
            &mut pw,
            &model,
            config.refine_iters,
            &mut rng,
        );
        if model.is_balanced(&pw) && stats.moves == 0 {
            break;
        }
    }
    Partition::new(nparts, assignment).expect("refinement preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::partition_kway;
    use mcgp_graph::generators::mrng_like;
    use mcgp_graph::synthetic;
    use mcgp_graph::PartitionQuality;

    #[test]
    fn repairs_balance_after_weight_drift() {
        let mesh = mrng_like(2_000, 1);
        let cfg = PartitionConfig::default();
        let old_wg = synthetic::type1(&mesh, 2, 1);
        let old = partition_kway(&old_wg, 8, &cfg).partition;
        // Different weights: the old partition is likely imbalanced now.
        let new_wg = synthetic::type1(&mesh, 2, 99);
        let before = PartitionQuality::measure(&new_wg, &old);
        let repaired = refine_repartition(&new_wg, &old, 8, &cfg);
        let after = PartitionQuality::measure(&new_wg, &repaired);
        assert!(
            after.max_imbalance <= before.max_imbalance + 1e-9,
            "balance got worse: {} -> {}",
            before.max_imbalance,
            after.max_imbalance
        );
        assert!(
            after.max_imbalance < 1.25,
            "still badly imbalanced: {}",
            after.max_imbalance
        );
    }

    #[test]
    fn noop_when_weights_unchanged() {
        let mesh = mrng_like(1_500, 2);
        let cfg = PartitionConfig::default();
        let wg = synthetic::type1(&mesh, 2, 1);
        let old = partition_kway(&wg, 4, &cfg).partition;
        let repaired = refine_repartition(&wg, &old, 4, &cfg);
        // Already balanced and locally optimal-ish: very few moves.
        let moved = (0..wg.nvtxs())
            .filter(|&v| old.part(v) != repaired.part(v))
            .count();
        assert!(
            moved * 20 < wg.nvtxs(),
            "unnecessary churn: {moved} of {}",
            wg.nvtxs()
        );
    }
}
