//! Determinism regression tests: the same graph and the same seed must
//! produce a **bit-identical** partition vector (and therefore identical
//! edge cut) on every run — the guarantee DESIGN.md's hermetic-runtime
//! section makes. This covers both the serial driver and the parallel
//! driver, and for the parallel driver both the pooled and the forced
//! single-thread execution path (`MCGP_THREADS=1`): the pool's ordered
//! merge makes thread count invisible in the result. The serial driver's
//! `nthreads` is invisible as well: every count gives the t=1 partition.

use mcgp::core::coarsen::coarsen;
use mcgp::core::{
    partition_kway, partition_rb, HierarchySnapshot, MatchingScheme, PartitionConfig,
};
use mcgp::graph::generators::mrng_like;
use mcgp::graph::synthetic;
use mcgp::parallel::{parallel_partition_kway, ParallelConfig};
use mcgp::runtime::rng::Rng;

#[test]
fn serial_kway_is_bit_identical_across_runs() {
    let g = synthetic::type1(&mrng_like(3_000, 5), 3, 5);
    let cfg = PartitionConfig::default().with_seed(77);
    let a = partition_kway(&g, 8, &cfg);
    let b = partition_kway(&g, 8, &cfg);
    assert_eq!(a.partition.assignment(), b.partition.assignment());
    assert_eq!(a.quality.edge_cut, b.quality.edge_cut);
}

#[test]
fn serial_rb_is_bit_identical_across_runs() {
    let g = synthetic::type2(&mrng_like(2_000, 3), 2, 3);
    let cfg = PartitionConfig::default().with_seed(13);
    let a = partition_rb(&g, 6, &cfg);
    let b = partition_rb(&g, 6, &cfg);
    assert_eq!(a.partition.assignment(), b.partition.assignment());
    assert_eq!(a.quality.edge_cut, b.quality.edge_cut);
}

#[test]
fn parallel_kway_is_bit_identical_across_runs_and_thread_counts() {
    let g = synthetic::type1(&mrng_like(2_500, 9), 3, 9);
    let cfg = ParallelConfig::new(8).with_seed(42);
    let a = parallel_partition_kway(&g, 8, &cfg);
    let b = parallel_partition_kway(&g, 8, &cfg);
    assert_eq!(a.partition.assignment(), b.partition.assignment());
    assert_eq!(a.quality.edge_cut, b.quality.edge_cut);

    // Forcing serial execution of every pooled region must not change the
    // result either: work units merge in index order, never in completion
    // order. (Set the cap inside this one test only — the other tests in
    // this binary never read it mid-run on the serial path.)
    std::env::set_var("MCGP_THREADS", "1");
    let c = parallel_partition_kway(&g, 8, &cfg);
    std::env::remove_var("MCGP_THREADS");
    assert_eq!(a.partition.assignment(), c.partition.assignment());
    assert_eq!(a.quality.edge_cut, c.quality.edge_cut);
}

#[test]
fn threaded_full_pipeline_is_bit_identical_per_seed_and_thread_count() {
    // The end-to-end shared-memory pipeline — serial coarsening, threaded
    // recursive-bisection initial partitioning and the serial k-way sweep
    // — must be a function of `(graph, seed)` alone: reruns and every
    // thread count give one assignment. Big enough that the task tree
    // actually forks, multi-constraint so the balance model is exercised.
    let g = synthetic::type1(&mrng_like(6_000, 11), 3, 11);
    let base = PartitionConfig::default().with_seed(5);
    let kway_t1 = partition_kway(&g, 8, &base);
    let rb_t1 = partition_rb(&g, 6, &base);
    assert!(kway_t1.partition.all_parts_nonempty());
    for t in [1usize, 2, 4, 8] {
        let cfg = base.with_threads(t);
        let a = partition_kway(&g, 8, &cfg);
        assert_eq!(
            a.partition.assignment(),
            kway_t1.partition.assignment(),
            "t={t} k-way differs from t=1"
        );
        assert_eq!(a.quality.edge_cut, kway_t1.quality.edge_cut);
        assert_eq!(
            partition_rb(&g, 6, &cfg).partition.assignment(),
            rb_t1.partition.assignment(),
            "t={t} RB differs from t=1"
        );
    }

    // Threads reach only the task tree, never the matcher: one partition
    // at every thread count whatever the matching scheme.
    for scheme in [
        MatchingScheme::Random,
        MatchingScheme::HeavyEdge,
        MatchingScheme::BalancedHeavyEdge,
    ] {
        let run = |t: usize| {
            let mut cfg = base.with_threads(t);
            cfg.matching = scheme;
            partition_kway(&g, 8, &cfg)
        };
        let t1 = run(1);
        for t in [2usize, 4, 8] {
            assert_eq!(
                run(t).partition.assignment(),
                t1.partition.assignment(),
                "{scheme:?}: t={t} differs from t=1"
            );
        }
    }

    // One cached hierarchy serves every thread count: a snapshot built at
    // t=1 and replayed at t=4 gives the cold t=1 partition.
    let snap = HierarchySnapshot::build(&g, &base);
    let warm = snap.partition(&g, 8, &base.with_threads(4));
    assert_eq!(
        warm.partition.assignment(),
        kway_t1.partition.assignment(),
        "t=4 replay of a t=1 snapshot differs from t=1"
    );

    // Coarsening never reads the thread count: the same level graphs and
    // cmaps at t=1 and t=8.
    let target = PartitionConfig::default().coarsen_target(8);
    let hierarchy = |t: usize| {
        let cfg = PartitionConfig::default().with_seed(5).with_threads(t);
        coarsen(&g, target, &cfg, &mut Rng::seed_from_u64(5))
    };
    let (serial, threaded) = (hierarchy(1), hierarchy(8));
    assert!(!serial.is_empty());
    assert_eq!(serial.len(), threaded.len(), "level counts differ");
    for (i, (a, b)) in serial.iter().zip(&threaded).enumerate() {
        assert_eq!(a.graph, b.graph, "level {i} graph differs");
        assert_eq!(a.cmap, b.cmap, "level {i} cmap differs");
    }

    // The physical worker cap must be invisible too. (Same env-var pattern
    // as the parallel-driver test above: set and removed within one test.)
    std::env::set_var("MCGP_THREADS", "1");
    let inline = partition_kway(&g, 8, &base.with_threads(4));
    std::env::remove_var("MCGP_THREADS");
    assert_eq!(
        inline.partition.assignment(),
        kway_t1.partition.assignment(),
        "physical thread availability leaked into the t=4 result"
    );
}

#[test]
fn tracing_does_not_perturb_the_partition() {
    // The observability layer must be a pure observer: the partition vector
    // with tracing enabled is bit-identical to the one with tracing off,
    // for both drivers. (Enabling tracing is a process-global toggle; any
    // events a concurrently running test deposits in its own thread-local
    // buffer are simply dropped with that thread.)
    let g = synthetic::type1(&mrng_like(2_000, 21), 3, 21);
    let scfg = PartitionConfig::default().with_seed(55);
    let pcfg = ParallelConfig::new(4).with_seed(55);

    let serial_off = partition_kway(&g, 8, &scfg);
    let par_off = parallel_partition_kway(&g, 8, &pcfg);

    mcgp::runtime::trace::set_enabled(true);
    let serial_on = partition_kway(&g, 8, &scfg);
    let par_on = parallel_partition_kway(&g, 8, &pcfg);
    mcgp::runtime::trace::set_enabled(false);
    let events = mcgp::runtime::trace::take_local();
    assert!(!events.is_empty(), "tracing was on but produced no events");

    assert_eq!(
        serial_off.partition.assignment(),
        serial_on.partition.assignment()
    );
    assert_eq!(
        par_off.partition.assignment(),
        par_on.partition.assignment()
    );
}

#[test]
fn distinct_seeds_change_the_stream() {
    // Guard against an RNG wiring bug where the seed is ignored: different
    // seeds should give a different partition vector on a non-trivial graph
    // (cut quality stays in band — asserted by the end-to-end tests).
    let g = synthetic::type1(&mrng_like(3_000, 5), 2, 5);
    let a = partition_kway(&g, 8, &PartitionConfig::default().with_seed(1));
    let b = partition_kway(&g, 8, &PartitionConfig::default().with_seed(2));
    assert_ne!(a.partition.assignment(), b.partition.assignment());
}
