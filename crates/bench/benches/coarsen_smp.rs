//! Coarsening-engine benchmarks: the shared-memory matching against its
//! serial counterpart on the acceptance workload (`mrng_like(200_000)`,
//! ncon 1 and 3) plus a skewed-degree R-MAT contrast case
//! (`rmat_default(16, 8, 11)`) at 1/2/8 stripes.
//!
//! * `coarsen/match` — one matching pass in isolation (`match_graph` at
//!   t = 1, `match_smp` above).
//! * `coarsen/contract` — one contraction in isolation on a fixed serial
//!   matching, scratch reused across samples as the level loop does. There
//!   is one contraction kernel (`contract_with_scratch`) at every thread
//!   count, so each graph has a single `_t1` row.
//! * `coarsen/hierarchy` — the full `coarsen()` hierarchy down to the
//!   k = 16 target, the end-to-end number `scripts/bench.sh` records in
//!   `BENCH_coarsen.json`.
//! * `partition/full` — end-to-end `partition_kway` (coarsen + threaded
//!   recursive-bisection initial partitioning + k-way refinement), the
//!   row the `mcgp bench-gate --threads-win` rule
//!   enforces `t2 ≤ t1` on.
//! * `coarsen/smoke` — a small fast workload for the `verify.sh` bench
//!   smoke (`--samples 3 smoke`).
//!
//! Stripe counts above `MCGP_THREADS`/`available_parallelism` still run
//! (striping is a determinism parameter, not a thread count), so the t = 2
//! and t = 8 records are honest on any machine — on a single-core host
//! they measure the striped matching's overhead, not a speedup. Thread-count
//! families sample interleaved (`Bench::run_variants`) so the
//! threads-win medians are paired per sample round.

use mcgp_bench::Bench;
use std::hint::black_box;
use mcgp_core::coarsen::{coarsen, contract_with_scratch, ContractionScratch};
use mcgp_core::coarsen_smp::match_smp;
use mcgp_core::config::MatchingScheme;
use mcgp_core::matching::match_graph;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::synthetic;
use mcgp_graph::Graph;
use mcgp_runtime::rng::Rng;

const THREADS: [usize; 3] = [1, 2, 8];

fn bench_graph(b: &Bench, g: &Graph, tag: &str) {
    let scheme = MatchingScheme::BalancedHeavyEdge;

    // Every `_t{1,2,8}` family samples via `run_variants`: the thread
    // counts of one workload are interleaved round-robin so the
    // threads-win comparison of their medians is paired per round — a
    // machine-wide slow window hits all three rows, not whichever row's
    // consecutive samples it happened to overlap.
    b.run_variants(
        "coarsen/match",
        THREADS
            .iter()
            .map(|&t| {
                let f: Box<dyn FnMut()> = Box::new(move || {
                    if t == 1 {
                        let mut rng = Rng::seed_from_u64(7);
                        black_box(match_graph(g, scheme, &mut rng));
                    } else {
                        black_box(match_smp(g, scheme, t, 7));
                    }
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );

    let m = match_graph(g, scheme, &mut Rng::seed_from_u64(7));
    let mut scratch = ContractionScratch::new();
    b.run("coarsen/contract", &format!("{tag}_t1"), || {
        contract_with_scratch(g, &m, &mut scratch)
    });

    let target = PartitionConfig::default().coarsen_target(16);
    b.run_variants(
        "coarsen/hierarchy",
        THREADS
            .iter()
            .map(|&t| {
                let cfg = PartitionConfig::default().with_threads(t);
                let f: Box<dyn FnMut()> = Box::new(move || {
                    let mut rng = Rng::seed_from_u64(7);
                    black_box(coarsen(g, target, &cfg, &mut rng));
                });
                (format!("{tag}_t{t}"), f)
            })
            .collect(),
    );

    // The end-to-end pipeline — coarsen, threaded recursive-bisection
    // initial partitioning, k-way refinement — at the same
    // stripe counts. This is the row the threads-win gate enforces:
    // `_t2` must hold `_t1`'s speed on whatever host ran the bench.
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
    // degrees) stresses the matching arbiter and contraction in ways the
    // bounded-degree meshes above cannot — hub vertices concentrate
    // conflicts on a few stripes and produce fat coarse adjacency rows.
    let skew = rmat_default(16, 8, 11);
    bench_graph(&b, &skew, "rmat16_ncon1");

    // Small, fast workload for CI smoke runs (filter: `smoke`).
    let sg = synthetic::type1(&mrng_like(5_000, 2), 3, 2);
    let starget = PartitionConfig::default().coarsen_target(8);
    for t in [1usize, 4] {
        let cfg = PartitionConfig::default().with_threads(t);
        b.run("coarsen/smoke", &format!("mrng5k_ncon3_t{t}"), || {
            let mut rng = Rng::seed_from_u64(2);
            coarsen(&sg, starget, &cfg, &mut rng)
        });
    }
}
