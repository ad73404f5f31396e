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

/// 20k-vertex 3-constraint mesh: big enough that recursive bisection
/// splits more than once at k = 16.
fn mesh() -> Graph {
    synthetic::type1(&mrng_like(20_000, 1), 3, 1)
}

fn check(what: &str, assignment: &[u32], expect: u64) {
    let got = fnv1a64(assignment);
    assert_eq!(got, expect, "{what}: digest {got:#018x}, expected {expect:#018x}");
}

/// Thread counts every shared-memory pin is asserted at: a partition is a
/// function of the seed alone, so each output has one digest.
const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn kway_serial_and_threaded_outputs_are_pinned() {
    let g = mesh();
    for t in THREADS {
        let cfg = PartitionConfig::default().with_seed(7).with_threads(t);
        let r = partition_kway(&g, 16, &cfg).partition;
        check(&format!("partition_kway t={t} k=16"), r.assignment(), 0x93d5_f569_8eb3_3a96);
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
fn rb_output_is_pinned() {
    let g = mesh();
    for t in THREADS {
        let rb = partition_rb(&g, 6, &PartitionConfig::default().with_seed(7).with_threads(t));
        check(&format!("partition_rb t={t} k=6"), rb.partition.assignment(), 0x527f_6aa3_84fa_dd82);
    }
}

#[test]
fn parallel_kway_output_is_pinned() {
    let g = mesh();
    let par = parallel_partition_kway(&g, 16, &ParallelConfig::new(4).with_seed(7));
    check("parallel_partition_kway p=4 k=16", par.partition.assignment(), 0x4652_36f9_3269_c865);
}

#[test]
fn hierarchy_replay_outputs_are_pinned() {
    // One snapshot, built at t = 1, serves every thread count.
    let g = mesh();
    let cfg = PartitionConfig::default().with_seed(7);
    let snap = HierarchySnapshot::build(&g, &cfg);
    for t in THREADS {
        for (k, expect) in [(8usize, 0xd3d2_36ee_b07c_8ab4u64), (37, 0x1169_372e_c783_0328)] {
            let warm = snap.partition(&g, k, &cfg.with_threads(t));
            let what = format!("HierarchySnapshot::partition t={t} k={k}");
            check(&what, warm.partition.assignment(), expect);
        }
    }
}

#[test]
fn threaded_hierarchy_replay_outputs_are_pinned() {
    // A snapshot built at t = 2 replays to the same digests as one built at t = 1.
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
    let expect = 0x53d3_26b0_f845_2fa0;
    for t in THREADS {
        let tcfg = cfg.with_threads(t);
        let cold = partition_kway(&g, 16, &tcfg);
        check(&format!("partition_kway rmat12 t={t} k=16"), cold.partition.assignment(), expect);
        let warm = snap.partition(&g, 16, &tcfg);
        let what = format!("HierarchySnapshot::partition rmat12 t={t} k=16");
        check(&what, warm.partition.assignment(), expect);
    }
}

#[test]
fn levelless_outputs_are_pinned() {
    // Below every coarsening target: zero levels, so initial partitioning
    // and refinement run on the input graph itself.
    let g = synthetic::type1(&grid_2d(9, 9), 2, 3);
    let cfg = PartitionConfig::default().with_seed(7);
    let snap = HierarchySnapshot::build(&g, &cfg);
    assert_eq!(snap.nlevels(), 0);
    let expect = 0x393a_0d7e_9184_dff5;
    for t in THREADS {
        let tcfg = cfg.with_threads(t);
        let cold = partition_kway(&g, 4, &tcfg);
        assert_eq!(cold.coarsen_levels, 0);
        check(&format!("partition_kway 9x9 t={t} k=4"), cold.partition.assignment(), expect);
        let warm = snap.partition(&g, 4, &tcfg);
        let what = format!("HierarchySnapshot::partition 9x9 t={t} k=4");
        check(&what, warm.partition.assignment(), expect);
    }
    let par = parallel_partition_kway(&g, 4, &ParallelConfig::new(2).with_seed(7));
    assert_eq!(par.coarsen_levels, 0);
    check("parallel_partition_kway 9x9 p=2 k=4", par.partition.assignment(), 0x4cc7_363e_0119_fcf7);
}

#[test]
fn parallel_kway_variants_are_pinned() {
    let g = mesh();
    let mut slice = ParallelConfig::new(4).with_seed(7);
    slice.refiner = RefinerKind::Slice;
    let r = parallel_partition_kway(&g, 16, &slice);
    check("parallel_partition_kway slice p=4 k=16", r.partition.assignment(), 0x6cdc_4386_b6d9_9494);
    let mut unfolded = ParallelConfig::new(4).with_seed(7);
    unfolded.fold_threshold = 0;
    let r = parallel_partition_kway(&g, 16, &unfolded);
    check("parallel_partition_kway unfolded p=4 k=16", r.partition.assignment(), 0x7b6b_7e36_7e1a_3bc3);
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
    check("parallel_partition_kway p=4 k=16 RunStats", &words, 0x6834_962a_c3f5_132f);
}

/// The order-independent BSP cost totals of a run, as digest words.
fn cost_words(supersteps: usize, comm_bytes: u64, comp_ops: u64) -> Vec<u32> {
    [supersteps as u64, comm_bytes, comp_ops]
        .iter()
        .flat_map(|&x| [x as u32, (x >> 32) as u32])
        .collect()
}

#[test]
fn parallel_kway_variant_cost_counters_are_pinned() {
    let g = mesh();
    let mut slice = ParallelConfig::new(4).with_seed(7);
    slice.refiner = RefinerKind::Slice;
    let s = parallel_partition_kway(&g, 16, &slice).stats;
    let words = cost_words(s.supersteps, s.comm_bytes, s.comp_ops);
    check("parallel_partition_kway slice p=4 k=16 RunStats", &words, 0x1c0b_d7b8_cde4_31c5);
    let mut unfolded = ParallelConfig::new(4).with_seed(7);
    unfolded.fold_threshold = 0;
    let s = parallel_partition_kway(&g, 16, &unfolded).stats;
    let words = cost_words(s.supersteps, s.comm_bytes, s.comp_ops);
    check("parallel_partition_kway unfolded p=4 k=16 RunStats", &words, 0x505d_5383_a0a0_1ec6);
}

#[test]
fn imbalance_recovery_path_is_pinned() {
    // Ablation A2's recovery loop, called directly as the harness does:
    // balancing without teleports (its only caller), then reservation
    // refinement, from a partition with part 0 overloaded by 40 %.
    use mcgp::core::balance::{part_weights, BalanceModel};
    use mcgp::parallel::refine_par::{parallel_balance, reservation_refine};
    use mcgp::parallel::{CostTracker, DistGraph};
    use mcgp::runtime::rng::Rng;

    let g = mesh();
    let (k, p, seed) = (16usize, 8usize, 7u64);
    let base = partition_kway(&g, k, &PartitionConfig::default().with_seed(seed));
    let mut part = base.partition.assignment().to_vec();
    let mut pw = part_weights(&g, &part, k);
    let ncon = g.ncon();
    let target = 1.4 * g.total_vwgt()[0] as f64 / k as f64;
    let mut rng = Rng::seed_from_u64(seed);
    while (pw[0] as f64) < target {
        let v = rng.gen_range(0..g.nvtxs());
        let from = part[v] as usize;
        if from != 0 {
            for i in 0..ncon {
                pw[from * ncon + i] -= g.vwgt(v)[i];
                pw[i] += g.vwgt(v)[i];
            }
            part[v] = 0;
        }
    }
    let dist = DistGraph::distribute(&g, p);
    let model = BalanceModel::new(&g, k, 0.05);
    let mut tracker = CostTracker::new();
    for it in 0..4 {
        parallel_balance(&dist, &mut part, &mut pw, &model, 2 * k, false, seed ^ it, &mut tracker);
        reservation_refine(&dist, &mut part, &mut pw, &model, 4, seed ^ it, &mut tracker);
    }
    assert_eq!(pw, part_weights(&g, &part, k));
    check("A2 recovery p=8 k=16", &part, 0x08ba_7c78_0b17_3d1d);
    let words = cost_words(tracker.supersteps(), tracker.total_bytes(), tracker.total_comp());
    check("A2 recovery p=8 k=16 CostTracker", &words, 0x8dc0_af9b_bc85_3f14);
}
