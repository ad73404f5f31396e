//! Edge cases and failure injection across the public APIs: degenerate
//! graphs, hostile weights, malformed files, and extreme configurations.

use mcgp::core::{partition_kway, partition_rb, PartitionConfig};
use mcgp::graph::csr::GraphBuilder;
use mcgp::graph::generators::{grid_2d, random_graph};
use mcgp::graph::io::read_metis;
use mcgp::graph::synthetic;
use mcgp::parallel::{parallel_partition_kway, ParallelConfig};

#[test]
fn partitioning_a_graph_with_no_edges() {
    let b = GraphBuilder::new(16);
    let g = b.build().unwrap();
    let r = partition_kway(&g, 4, &PartitionConfig::default());
    assert!(r.partition.all_parts_nonempty());
    assert_eq!(r.quality.edge_cut, 0);
    assert!(r.quality.max_imbalance <= 1.001);
}

#[test]
fn partitioning_disconnected_graphs() {
    // Four disjoint 4x4 grids glued into one vertex set.
    let mut b = GraphBuilder::new(64);
    for block in 0..4 {
        let base = block * 16;
        for y in 0..4 {
            for x in 0..4 {
                let v = base + y * 4 + x;
                if x + 1 < 4 {
                    b.edge(v, v + 1);
                }
                if y + 1 < 4 {
                    b.edge(v, v + 4);
                }
            }
        }
    }
    let g = b.build().unwrap();
    let r = partition_kway(&g, 4, &PartitionConfig::default());
    assert!(r.partition.all_parts_nonempty());
    // A perfect solution (cut 0) exists; multilevel should find something
    // close.
    assert!(r.quality.edge_cut <= 8, "cut {}", r.quality.edge_cut);
}

#[test]
fn all_zero_weight_constraint_is_ignored() {
    // Constraint 1 is identically zero — balance on it is vacuous and must
    // not panic or divide by zero anywhere.
    let mesh = grid_2d(10, 10);
    let vwgt: Vec<i64> = (0..100).flat_map(|_| [1i64, 0]).collect();
    let g = mesh.clone().with_vwgt(2, vwgt).unwrap();
    let r = partition_kway(&g, 4, &PartitionConfig::default());
    assert_eq!(r.quality.imbalances[1], 1.0);
    assert!(r.quality.imbalances[0] < 1.10);
    let p = parallel_partition_kway(&g, 4, &ParallelConfig::new(4));
    assert!(p.quality.imbalances[1] <= 1.0 + 1e-9);
}

#[test]
fn single_heavy_vertex_dominates_a_constraint() {
    // One vertex carries 90% of constraint 1: perfect balance is
    // impossible; the granularity slack must keep the run finite and the
    // other constraint balanced.
    let mesh = grid_2d(8, 8);
    let mut vwgt: Vec<i64> = (0..64).flat_map(|_| [1i64, 1]).collect();
    vwgt[2 * 10 + 1] = 600;
    let g = mesh.clone().with_vwgt(2, vwgt).unwrap();
    let r = partition_kway(&g, 4, &PartitionConfig::default());
    assert!(r.partition.all_parts_nonempty());
    assert!(
        r.quality.imbalances[0] < 1.25,
        "constraint 0: {:?}",
        r.quality.imbalances
    );
}

#[test]
fn nparts_equal_to_nvtxs() {
    let g = grid_2d(4, 4);
    let r = partition_kway(&g, 16, &PartitionConfig::default());
    assert!(r.partition.all_parts_nonempty());
    let sizes = r.partition.part_sizes();
    assert!(sizes.iter().all(|&s| s == 1), "{sizes:?}");
}

#[test]
#[should_panic(expected = "more parts than vertices")]
fn nparts_above_nvtxs_panics() {
    let g = grid_2d(2, 2);
    partition_kway(&g, 5, &PartitionConfig::default());
}

#[test]
fn zero_tolerance_is_survivable() {
    let g = grid_2d(12, 12);
    let cfg = PartitionConfig {
        imbalance_tol: 0.0,
        ..PartitionConfig::default()
    };
    let r = partition_kway(&g, 4, &cfg);
    // Granularity slack still allows one vertex of spill.
    assert!(r.quality.max_imbalance <= 1.2);
}

#[test]
fn huge_tolerance_never_worse_cut_than_tight() {
    let g = synthetic::type1(&grid_2d(20, 20), 2, 3);
    let tight = partition_kway(&g, 8, &PartitionConfig::default());
    let loose_cfg = PartitionConfig {
        imbalance_tol: 0.50,
        ..PartitionConfig::default()
    };
    let loose = partition_kway(&g, 8, &loose_cfg);
    // More freedom can only help the cut (up to heuristic noise).
    assert!(
        (loose.quality.edge_cut as f64) < 1.35 * tight.quality.edge_cut as f64,
        "loose {} vs tight {}",
        loose.quality.edge_cut,
        tight.quality.edge_cut
    );
}

#[test]
fn parallel_with_more_processors_than_coarse_vertices() {
    // p close to n: blocks of ~2 vertices each; folding must kick in and
    // the run must stay correct.
    let g = random_graph(200, 5.0, 1);
    let r = parallel_partition_kway(&g, 4, &ParallelConfig::new(100));
    assert_eq!(r.partition.len(), 200);
    assert!(r.quality.max_imbalance >= 1.0);
}

#[test]
fn rb_handles_path_graphs() {
    // Degenerate geometry: a path has tiny separators but terrible aspect
    // ratio for region growing.
    let mut b = GraphBuilder::new(200);
    for v in 0..199 {
        b.edge(v, v + 1);
    }
    let g = b.build().unwrap();
    let r = partition_rb(&g, 8, &PartitionConfig::default());
    assert!(r.partition.all_parts_nonempty());
    // Optimal cut is 7 (8 contiguous runs); accept small noise.
    assert!(r.quality.edge_cut <= 24, "cut {}", r.quality.edge_cut);
}

#[test]
fn malformed_metis_inputs_fail_cleanly() {
    // Negative weight.
    assert!(read_metis("2 1 010\n-5 2\n7 1\n".as_bytes()).is_err());
    // ncon promises two weights but the line has one.
    assert!(read_metis("1 0 011 2\n5\n".as_bytes()).is_err());
    // Junk tokens.
    assert!(read_metis("2 1\nfoo\n1\n".as_bytes()).is_err());
    // Header with too many fields.
    assert!(read_metis("1 0 011 1 9 9\n\n".as_bytes()).is_err());
    // Zero-based neighbor id (format is 1-based).
    assert!(read_metis("2 1\n0\n1\n".as_bytes()).is_err());
}

#[test]
fn five_constraint_type2_full_pipeline() {
    // The hardest workload family end to end on a small mesh.
    let g = synthetic::type2(&grid_2d(24, 24), 5, 9);
    let ser = partition_kway(&g, 16, &PartitionConfig::default());
    let par = parallel_partition_kway(&g, 16, &ParallelConfig::new(16));
    assert!(
        ser.quality.max_imbalance < 1.25,
        "serial {}",
        ser.quality.max_imbalance
    );
    assert!(
        par.quality.max_imbalance < 1.30,
        "parallel {}",
        par.quality.max_imbalance
    );
}
