//! The single-constraint baseline of the paper's Table 4 ("the k-way
//! single-constraint parallel graph partitioning algorithm implemented in
//! ParMeTiS" is the `m = 1` specialisation of the same multilevel
//! machinery): every partitioner takes `ncon = 1` graphs as they are, and
//! this module collapses a multi-constraint workload to one constraint.

use mcgp_graph::Graph;

/// Collapses an `ncon`-weight graph to a single constraint by summing each
/// vertex's weight vector (how a single-constraint partitioner would model
/// the same workload: total work per vertex, phases ignored).
pub fn collapse_to_single(graph: &Graph) -> Graph {
    if graph.ncon() == 1 {
        return graph.clone();
    }
    let vwgt: Vec<i64> = (0..graph.nvtxs())
        .map(|v| graph.vwgt(v).iter().sum())
        .collect();
    graph
        .clone()
        .with_vwgt(1, vwgt)
        .expect("collapsed weights sized by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::grid_2d;
    use mcgp_graph::synthetic;

    #[test]
    fn collapse_sums_weight_vectors() {
        let g = synthetic::type1(&grid_2d(8, 8), 3, 1);
        let s = collapse_to_single(&g);
        assert_eq!(s.ncon(), 1);
        for v in 0..g.nvtxs() {
            assert_eq!(s.vwgt(v)[0], g.vwgt(v).iter().sum::<i64>());
        }
        assert_eq!(s.nedges(), g.nedges());
    }

    #[test]
    fn collapse_of_single_is_identity() {
        let g = grid_2d(6, 6);
        assert_eq!(collapse_to_single(&g), g);
    }
}
