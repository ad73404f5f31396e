//! Golden digests: pins the exact partition every driver produces on one
//! fixed multi-constraint mesh, so a refactor that claims bit-identical
//! output is checked across commits, not just across two runs inside one
//! binary (which is all `tests/determinism.rs` can see).
//!
//! Each digest is FNV-1a 64 over the assignment vector (each part id as
//! four little-endian bytes). A digest changes only when some vertex lands
//! in a different part; when a change is meant to alter outputs, re-derive
//! the constants and say so in the change description.

use mcgp::core::{partition_kway, partition_rb, HierarchySnapshot, PartitionConfig};
use mcgp::graph::generators::{grid_2d, mrng_like, rmat_default};
use mcgp::graph::synthetic;
use mcgp::graph::Graph;
use mcgp::parallel::{parallel_partition_kway, ParallelConfig, RefinerKind};

fn fnv1a64(assignment: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &p in assignment {
        for byte in p.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// 20k-vertex 3-constraint mesh: big enough that the threaded recursive
/// bisection engages at t=2.
fn mesh() -> Graph {
    synthetic::type1(&mrng_like(20_000, 1), 3, 1)
}

fn check(what: &str, assignment: &[u32], expect: u64) {
    let got = fnv1a64(assignment);
    assert_eq!(got, expect, "{what}: digest {got:#018x}, expected {expect:#018x}");
}

#[test]
fn kway_serial_and_threaded_outputs_are_pinned() {
    let g = mesh();
    let t1 = partition_kway(&g, 16, &PartitionConfig::default().with_seed(7));
    check("partition_kway t=1 k=16", t1.partition.assignment(), 0x03ac_b669_0df8_7fa4);
    let t2 = partition_kway(&g, 16, &PartitionConfig::default().with_seed(7).with_threads(2));
    check("partition_kway t=2 k=16", t2.partition.assignment(), 0x93d5_f569_8eb3_3a96);
}

#[test]
fn rb_output_is_pinned() {
    let g = mesh();
    let rb = partition_rb(&g, 6, &PartitionConfig::default().with_seed(7));
    check("partition_rb k=6", rb.partition.assignment(), 0xf26b_d219_21db_a390);
}

#[test]
fn parallel_kway_output_is_pinned() {
    let g = mesh();
    let par = parallel_partition_kway(&g, 16, &ParallelConfig::new(4).with_seed(7));
    check("parallel_partition_kway p=4 k=16", par.partition.assignment(), 0xb6d2_d821_9c72_3958);
}

#[test]
fn hierarchy_replay_outputs_are_pinned() {
    let g = mesh();
    let cfg = PartitionConfig::default().with_seed(7);
    let snap = HierarchySnapshot::build(&g, &cfg);
    for (k, expect) in [(8usize, 0xb342_ab53_29db_5273u64), (37, 0x9326_08cc_132b_558c)] {
        let warm = snap.partition(&g, k, &cfg);
        check(&format!("HierarchySnapshot::partition k={k}"), warm.partition.assignment(), expect);
    }
}

#[test]
fn kway_eight_thread_output_is_pinned() {
    let g = mesh();
    let cfg = PartitionConfig::default().with_seed(7).with_threads(8);
    let t8 = partition_kway(&g, 16, &cfg);
    check("partition_kway t=8 k=16", t8.partition.assignment(), 0x93d5_f569_8eb3_3a96);
}

#[test]
fn threaded_hierarchy_replay_outputs_are_pinned() {
    let g = mesh();
    let cfg = PartitionConfig::default().with_seed(7).with_threads(2);
    let snap = HierarchySnapshot::build(&g, &cfg);
    for (k, expect) in [(8usize, 0xd3d2_36ee_b07c_8ab4u64), (37, 0x1169_372e_c783_0328)] {
        let warm = snap.partition(&g, k, &cfg);
        check(&format!("HierarchySnapshot::partition t=2 k={k}"), warm.partition.assignment(), expect);
    }
}

#[test]
fn stalled_hierarchy_outputs_are_pinned() {
    // R-MAT's isolated vertices stall matching far above the k=16 target,
    // so the warm replay starts from the snapshot's final RNG state rather
    // than a recorded level boundary.
    let g = rmat_default(12, 8, 1);
    let cfg = PartitionConfig::default().with_seed(7);
    let snap = HierarchySnapshot::build(&g, &cfg);
    assert!(snap.nlevels() > 0);
    assert!(
        snap.coarsest_nvtxs_for(16, &cfg) > cfg.coarsen_target(16),
        "the hierarchy must stall above the target"
    );
    let cold = partition_kway(&g, 16, &cfg);
    check("partition_kway rmat12 k=16", cold.partition.assignment(), 0x5dc3_1f7f_684b_76f6);
    let warm = snap.partition(&g, 16, &cfg);
    check("HierarchySnapshot::partition rmat12 k=16", warm.partition.assignment(), 0x5dc3_1f7f_684b_76f6);
}

#[test]
fn levelless_outputs_are_pinned() {
    // Below every coarsening target: zero levels, so initial partitioning
    // and refinement run on the input graph itself.
    let g = synthetic::type1(&grid_2d(9, 9), 2, 3);
    let cfg = PartitionConfig::default().with_seed(7);
    let snap = HierarchySnapshot::build(&g, &cfg);
    assert_eq!(snap.nlevels(), 0);
    let cold = partition_kway(&g, 4, &cfg);
    assert_eq!(cold.coarsen_levels, 0);
    check("partition_kway 9x9 k=4", cold.partition.assignment(), 0xb02c_9b78_4999_f5b5);
    let warm = snap.partition(&g, 4, &cfg);
    check("HierarchySnapshot::partition 9x9 k=4", warm.partition.assignment(), 0xb02c_9b78_4999_f5b5);
    let par = parallel_partition_kway(&g, 4, &ParallelConfig::new(2).with_seed(7));
    assert_eq!(par.coarsen_levels, 0);
    check("parallel_partition_kway 9x9 p=2 k=4", par.partition.assignment(), 0xfdd1_7e92_2921_5116);
}

#[test]
fn parallel_kway_variants_are_pinned() {
    let g = mesh();
    let mut slice = ParallelConfig::new(4).with_seed(7);
    slice.refiner = RefinerKind::Slice;
    let r = parallel_partition_kway(&g, 16, &slice);
    check("parallel_partition_kway slice p=4 k=16", r.partition.assignment(), 0xf80a_3546_1923_3e54);
    let mut unfolded = ParallelConfig::new(4).with_seed(7);
    unfolded.fold_threshold = 0;
    let r = parallel_partition_kway(&g, 16, &unfolded);
    check("parallel_partition_kway unfolded p=4 k=16", r.partition.assignment(), 0x9411_bb69_823b_a7dd);
}

#[test]
fn parallel_kway_cost_counters_are_pinned() {
    // The BSP cost accounting of the pinned p=4 run: every superstep and
    // every counted op and byte, in order-independent totals.
    let g = mesh();
    let s = parallel_partition_kway(&g, 16, &ParallelConfig::new(4).with_seed(7)).stats;
    let words: Vec<u32> = [s.supersteps as u64, s.comm_bytes, s.comp_ops]
        .iter()
        .flat_map(|&x| [x as u32, (x >> 32) as u32])
        .collect();
    check("parallel_partition_kway p=4 k=16 RunStats", &words, 0x5d48_8994_24ff_f198);
}
