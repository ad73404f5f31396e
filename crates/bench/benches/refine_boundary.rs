//! Refinement-engine benchmarks: the uncoarsening/refinement hot path on
//! the acceptance workload (`mrng_like(200_000)`, 3 constraints, k = 16)
//! under two starting partitions:
//!
//! * `sliced` — contiguous blocks of the geometrically-local mesh order, a
//!   thin boundary (~a few % of vertices). This is the shape projected
//!   partitions have during uncoarsening and is the headline number
//!   `scripts/bench.sh` records in `BENCH_refine.json`.
//! * `scattered` — `v % k`, nearly every vertex on the boundary: the
//!   worst case for a boundary-driven engine (its caches must pay for
//!   themselves even when the boundary is the whole graph).
//!
//! `refine/rebalance` times the explicit balancing pass where the k = 64
//! pipeline spends it: on the projected (not yet refined) partition of the
//! ~4k-vertex level of the same mesh, after coarsening and recursive
//! bisection with seed 1.
//!
//! `refine/rb` times the k = 16 initial partitioning of the skewed-degree
//! R-MAT graph (`rmat_default(16, 8, 1)`): recursive bisection of the
//! 38,439-vertex graph its coarsening stalls at with seed 1, where 2-way FM
//! does most of the work.
//!
//! `refine/rebuild` times one `BoundaryEngine::rebuild` into a fresh
//! engine, so the arena's first touch counts as it does at the finest
//! level of a partition call. The assignment is the refined k = 16
//! partition `partition_kway` returns: of the mesh above, and of
//! `rmat_default(16, 8, 1)`, whose hubs have rows far shorter than their
//! degree and whose isolated vertices have none.
//!
//! `refine/smoke` is a small fast workload for the `verify.sh` bench smoke
//! (`--samples 3 smoke`).

use mcgp_bench::Bench;
use mcgp_core::balance::{part_weights, rebalance, BalanceModel};
use mcgp_core::boundary::BoundaryEngine;
use mcgp_core::coarsen::coarsen;
use mcgp_core::kway_refine::greedy_kway_refine;
use mcgp_core::rb::recursive_bisection_assignment;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::synthetic;
use mcgp_parallel::refine_par::reservation_refine;
use mcgp_parallel::slice_refine::slice_refine;
use mcgp_parallel::{CostTracker, DistGraph};
use mcgp_runtime::rng::Rng;

fn main() {
    let b = Bench::from_args();
    let k = 16usize;

    let g = synthetic::type1(&mrng_like(200_000, 1), 3, 1);
    let n = g.nvtxs();
    let model = BalanceModel::new(&g, k, 0.05);
    let sliced: Vec<u32> = (0..n).map(|v| ((v * k) / n) as u32).collect();
    let scattered: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();

    for (start_name, start) in [("sliced", &sliced), ("scattered", &scattered)] {
        b.run(
            "refine/greedy_sweep",
            &format!("mrng200k_ncon3_k16_{start_name}"),
            || {
                let mut rng = Rng::seed_from_u64(3);
                let mut a = start.clone();
                let mut pw = part_weights(&g, &a, k);
                greedy_kway_refine(&g, &mut a, &mut pw, &model, 4, &mut rng)
            },
        );
    }

    // The full serial driver on the same mesh: coarsening + initial +
    // uncoarsening. Tracks how the refinement share moves end to end.
    b.run("refine/kway_driver", "mrng200k_ncon3_k16", || {
        partition_kway(&g, k, &PartitionConfig::default())
    });

    let d = DistGraph::distribute(&g, 16);
    b.run(
        "refine/reservation",
        "p16_mrng200k_ncon3_k16_sliced",
        || {
            let mut part = sliced.clone();
            let mut pw = part_weights(&g, &part, k);
            let mut t = CostTracker::new();
            reservation_refine(&d, &mut part, &mut pw, &model, 4, 1, &mut t)
        },
    );
    b.run("refine/slice", "p16_mrng200k_ncon3_k16_sliced", || {
        let mut part = sliced.clone();
        let mut pw = part_weights(&g, &part, k);
        let mut t = CostTracker::new();
        slice_refine(&d, &mut part, &mut pw, &model, 4, 1, &mut t)
    });

    // Rebalancing the projected partition of the ~4k-vertex level at k = 64.
    let kb = 64usize;
    let cfg = PartitionConfig::default().with_seed(1);
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let levels = coarsen(&g, cfg.coarsen_target(kb), &cfg, &mut rng);
    let coarsest = &levels[levels.len() - 1].graph;
    let mut projected = recursive_bisection_assignment(coarsest, kb, &cfg, &mut rng);
    let at = (0..levels.len())
        .min_by_key(|&l| levels[l].graph.nvtxs().abs_diff(4_000))
        .expect("mrng200k coarsens");
    for lvl in (at + 1..levels.len()).rev() {
        projected = levels[lvl].project(&projected);
    }
    let bg = &levels[at].graph;
    let bmodel = BalanceModel::new(bg, kb, cfg.imbalance_tol);
    b.run("refine/rebalance", "mrng200k_ncon3_k64", || {
        let mut a = projected.clone();
        let mut pw = part_weights(bg, &a, kb);
        rebalance(bg, &mut a, &mut pw, &bmodel, &mut rng.clone())
    });

    // One rebuild from a fresh engine on each graph's refined partition.
    let rg = rmat_default(16, 8, 1);
    for (name, graph) in [("mrng200k_ncon3_k16", &g), ("rmat16_k16", &rg)] {
        let refined = partition_kway(graph, k, &PartitionConfig::default());
        let refined = refined.partition.assignment();
        b.run("refine/rebuild", name, || {
            let mut engine = BoundaryEngine::new();
            engine.rebuild(graph, refined, k);
            engine
        });
    }

    // Recursive bisection at k = 16 where R-MAT coarsening stalls.
    let mut rrng = Rng::seed_from_u64(cfg.seed);
    let rh = coarsen(&rg, cfg.coarsen_target(k), &cfg, &mut rrng);
    let rcoarsest = rh.last().map_or(&rg, |l| &l.graph);
    b.run("refine/rb", "rmat16_k16", || {
        recursive_bisection_assignment(rcoarsest, k, &cfg, &mut rrng.clone())
    });

    // Small, fast workload for CI smoke runs (filter: `smoke`).
    let sg = synthetic::type1(&mrng_like(5_000, 2), 3, 2);
    let sn = sg.nvtxs();
    let sk = 8usize;
    let sm = BalanceModel::new(&sg, sk, 0.05);
    let sstart: Vec<u32> = (0..sn).map(|v| ((v * sk) / sn) as u32).collect();
    b.run("refine/smoke", "mrng5k_ncon3_k8", || {
        let mut rng = Rng::seed_from_u64(1);
        let mut a = sstart.clone();
        let mut pw = part_weights(&sg, &a, sk);
        greedy_kway_refine(&sg, &mut a, &mut pw, &sm, 2, &mut rng)
    });
}
