//! Migration-cost accounting: how much data must move between processors
//! when an adaptive simulation adopts a new partition.

use mcgp_graph::{Graph, Partition};

/// Migration cost of switching from `old` to `new`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationCost {
    /// Vertices whose subdomain changed.
    pub moved_vertices: usize,
    /// Per-constraint total weight of moved vertices (what actually travels
    /// for each phase's data).
    pub moved_weight: Vec<i64>,
    /// Fraction of vertices that moved.
    pub moved_fraction_millis: u32,
}

mcgp_runtime::impl_to_json!(MigrationCost {
    moved_vertices,
    moved_weight,
    moved_fraction_millis
});

/// Computes the migration cost between two assignments of the same graph.
///
/// ```
/// use mcgp_adaptive::migration_cost;
/// use mcgp_graph::{generators::grid_2d, Partition};
/// let g = grid_2d(4, 4);
/// let a = Partition::new(2, vec![0; 16]).unwrap();
/// let mut moved = vec![0u32; 16];
/// moved[0] = 1;
/// let b = Partition::new(2, moved).unwrap();
/// assert_eq!(migration_cost(&g, &a, &b).moved_vertices, 1);
/// ```
pub fn migration_cost(graph: &Graph, old: &Partition, new: &Partition) -> MigrationCost {
    assert_eq!(old.len(), new.len(), "assignments differ in length");
    assert_eq!(graph.nvtxs(), old.len(), "graph/assignment mismatch");
    let ncon = graph.ncon();
    let mut moved = 0usize;
    let mut weight = vec![0i64; ncon];
    for v in 0..graph.nvtxs() {
        if old.part(v) != new.part(v) {
            moved += 1;
            for (i, &w) in graph.vwgt(v).iter().enumerate() {
                weight[i] += w;
            }
        }
    }
    let frac = if graph.nvtxs() == 0 {
        0
    } else {
        (moved * 1000 / graph.nvtxs()) as u32
    };
    MigrationCost {
        moved_vertices: moved,
        moved_weight: weight,
        moved_fraction_millis: frac,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::grid_2d;
    use mcgp_graph::synthetic;

    #[test]
    fn identical_partitions_cost_nothing() {
        let g = grid_2d(8, 8);
        let p = Partition::new(2, (0..64).map(|v| (v / 32) as u32).collect()).unwrap();
        let c = migration_cost(&g, &p, &p.clone());
        assert_eq!(c.moved_vertices, 0);
        assert_eq!(c.moved_weight, vec![0]);
        assert_eq!(c.moved_fraction_millis, 0);
    }

    #[test]
    fn full_relabel_moves_everything() {
        let g = grid_2d(8, 8);
        let a = Partition::new(2, vec![0u32; 64]).unwrap();
        let b = Partition::new(2, vec![1u32; 64]).unwrap();
        let c = migration_cost(&g, &a, &b);
        assert_eq!(c.moved_vertices, 64);
        assert_eq!(c.moved_fraction_millis, 1000);
    }

    #[test]
    fn weight_accounting_is_per_constraint() {
        let g = synthetic::type2(&grid_2d(6, 6), 3, 1);
        let a = Partition::new(2, vec![0u32; 36]).unwrap();
        let mut moved = vec![0u32; 36];
        moved[..6].fill(1);
        let b = Partition::new(2, moved).unwrap();
        let c = migration_cost(&g, &a, &b);
        assert_eq!(c.moved_vertices, 6);
        for (i, &w) in c.moved_weight.iter().enumerate() {
            let expect: i64 = (0..6).map(|v| g.vwgt(v)[i]).sum();
            assert_eq!(w, expect, "constraint {i}");
        }
    }
}
