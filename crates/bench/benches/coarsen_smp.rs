//! Coarsening and end-to-end benchmarks on the acceptance workload
//! (`mrng_like(200_000)`, ncon 1 and 3) plus a skewed-degree R-MAT contrast
//! case (`rmat_default(16, 8, 11)`).
//!
//! * `coarsen/match` — one `match_graph` pass in isolation.
//! * `coarsen/contract` — one contraction in isolation on a fixed matching,
//!   scratch reused across samples as the level loop does.
//! * `coarsen/hierarchy` — the full `coarsen()` hierarchy down to the
//!   k = 16 target.
//!
//! Coarsening never reads the thread count, so these three have a single
//! `_t1` row per graph.
//!
//! * `partition/full` — end-to-end `partition_kway` (coarsen + threaded
//!   recursive-bisection initial partitioning + k-way refinement) at
//!   1/2/8 threads; the `mcgp bench-gate --threads-win` rule enforces
//!   `t2 ≤ t1` on every graph's rows.
//! * `coarsen/smoke` — a small fast workload for the `verify.sh` bench
//!   smoke (`--samples 3 smoke`).
//!
//! Thread counts above `MCGP_THREADS`/`available_parallelism` still run
//! (every count gives the t = 1 partition), so the t = 2 and t = 8
//! records time the same work on any machine — on a single-core host they
//! measure the task tree's overhead, not a speedup. The thread counts of
//! one graph sample interleaved (`Bench::run_variants`) so the threads-win
//! medians are paired per sample round.

use mcgp_bench::Bench;
use mcgp_core::coarsen::{coarsen, contract_with_scratch, ContractionScratch};
use mcgp_core::config::MatchingScheme;
use mcgp_core::matching::match_graph;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::synthetic;
use mcgp_graph::Graph;
use mcgp_runtime::rng::Rng;
use std::hint::black_box;

const THREADS: [usize; 3] = [1, 2, 8];

fn bench_graph(b: &Bench, g: &Graph, tag: &str) {
    let scheme = MatchingScheme::BalancedHeavyEdge;

    b.run("coarsen/match", &format!("{tag}_t1"), || {
        let mut rng = Rng::seed_from_u64(7);
        match_graph(g, scheme, &mut rng)
    });

    let m = match_graph(g, scheme, &mut Rng::seed_from_u64(7));
    let mut scratch = ContractionScratch::new();
    b.run("coarsen/contract", &format!("{tag}_t1"), || {
        contract_with_scratch(g, &m, &mut scratch)
    });

    let cfg = PartitionConfig::default();
    let target = cfg.coarsen_target(16);
    b.run("coarsen/hierarchy", &format!("{tag}_t1"), || {
        let mut rng = Rng::seed_from_u64(7);
        coarsen(g, target, &cfg, &mut rng)
    });

    // The end-to-end pipeline — coarsen, threaded recursive-bisection
    // initial partitioning, k-way refinement — at 1/2/8 threads, sampled
    // interleaved so a machine-wide slow window hits all three rows. The
    // threads-win gate enforces these rows: `_t2` must hold `_t1`'s speed
    // on whatever host ran the bench.
    b.run_variants(
        "partition/full",
        THREADS
            .iter()
            .map(|&t| {
                let cfg = PartitionConfig::default().with_threads(t);
                let f: Box<dyn FnMut()> = Box::new(move || {
                    black_box(partition_kway(g, 16, &cfg));
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );
}

fn main() {
    let b = Bench::from_args();

    let base = mrng_like(200_000, 1);
    bench_graph(&b, &base, "mrng200k_ncon1");
    let g3 = synthetic::type1(&base, 3, 1);
    bench_graph(&b, &g3, "mrng200k_ncon3");

    // Power-law contrast case: an R-MAT graph (2^16 vertices, skewed
    // degrees) stresses matching and contraction in ways the
    // bounded-degree meshes above cannot — hub vertices stall matching
    // early and produce fat coarse adjacency rows.
    let skew = rmat_default(16, 8, 11);
    bench_graph(&b, &skew, "rmat16_ncon1");

    // Small, fast workload for CI smoke runs (filter: `smoke`).
    let sg = synthetic::type1(&mrng_like(5_000, 2), 3, 2);
    let cfg = PartitionConfig::default();
    let starget = cfg.coarsen_target(8);
    b.run("coarsen/smoke", "mrng5k_ncon3_t1", || {
        let mut rng = Rng::seed_from_u64(2);
        coarsen(&sg, starget, &cfg, &mut rng)
    });
}
