//! Seed-driven randomized tests over the core data structures and the
//! multilevel invariants, on randomly generated graphs and weights.
//!
//! Each property runs ~48 cases drawn from `mcgp-runtime`'s deterministic
//! RNG. When an assertion fails, the harness prints the failing seed —
//! replay the single case by passing that seed to the property body (every
//! random choice derives from it and nothing else).

use mcgp::core::balance::{part_weights, BalanceModel};
use mcgp::core::coarsen::{coarsen, contract};
use mcgp::core::config::{MatchingScheme, PartitionConfig};
use mcgp::core::matching::{is_valid_matching, match_graph};
use mcgp::core::{partition_kway, partition_rb};
use mcgp::graph::csr::GraphBuilder;
use mcgp::graph::generators::random_connected;
use mcgp::graph::metrics::{edge_cut, edge_cut_raw};
use mcgp::graph::{Graph, Partition};
use mcgp::runtime::rng::{Rng, SliceRandom};

/// Cases per property (the count the old proptest config used).
const CASES: u64 = 48;

/// Runs `property` for `cases` seeds; a panic inside the property is
/// re-raised after printing the seed that produced it.
fn for_each_seed(name: &str, cases: u64, property: impl Fn(u64) + std::panic::RefUnwindSafe) {
    for i in 0..cases {
        let seed = 0x5EED_C0DE_0000_0000u64 | i;
        if let Err(cause) = std::panic::catch_unwind(|| property(seed)) {
            eprintln!("property `{name}` failed at seed {seed:#x} (case {i} of {cases})");
            std::panic::resume_unwind(cause);
        }
    }
}

/// A connected random graph with random multi-constraint weights — the old
/// `arb_weighted_graph` strategy, as a pure function of the case RNG.
fn weighted_graph(rng: &mut Rng) -> Graph {
    let n = rng.gen_range(10..200usize);
    let ncon = rng.gen_range(1..4usize);
    let seed = rng.gen_range(0..1000u64);
    let g = random_connected(n, 4.0, seed);
    let mut wrng = Rng::seed_from_u64(seed ^ 0xF00D);
    let vwgt: Vec<i64> = (0..n * ncon).map(|_| wrng.gen_range(0..10i64)).collect();
    g.with_vwgt(ncon, vwgt).unwrap()
}

#[test]
fn builder_graphs_always_validate() {
    for_each_seed("builder_graphs_always_validate", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let n = rng.gen_range(2..60usize);
        let nedges = rng.gen_range(1..120usize);
        let mut b = GraphBuilder::new(n);
        for _ in 0..nedges {
            let u = rng.gen_range(0..60usize);
            let v = rng.gen_range(0..60usize);
            let w = rng.gen_range(1..5i64);
            if u < n && v < n {
                b.weighted_edge(u, v, w);
            }
        }
        let g = b.build().unwrap();
        assert!(g.validate().is_ok());
    });
}

#[test]
fn matching_invariants_hold() {
    for_each_seed("matching_invariants_hold", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let mut mrng = Rng::seed_from_u64(rng.gen_range(0..100u64));
        for scheme in [
            MatchingScheme::Random,
            MatchingScheme::HeavyEdge,
            MatchingScheme::BalancedHeavyEdge,
        ] {
            let m = match_graph(&g, scheme, &mut mrng);
            assert!(is_valid_matching(&g, &m));
        }
    });
}

#[test]
fn contraction_preserves_totals() {
    for_each_seed("contraction_preserves_totals", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let mut mrng = Rng::seed_from_u64(rng.gen_range(0..100u64));
        let m = match_graph(&g, MatchingScheme::HeavyEdge, &mut mrng);
        let (cg, cmap) = contract(&g, &m);
        assert!(cg.validate().is_ok());
        assert_eq!(cg.total_vwgt(), g.total_vwgt());
        // Edge weight: exposed + internal-matched == original exposed.
        let internal: i64 = (0..g.nvtxs())
            .map(|v| {
                let u = m.mate[v] as usize;
                if u > v {
                    g.edges(v)
                        .find(|&(nb, _)| nb as usize == u)
                        .map_or(0, |(_, w)| w)
                } else {
                    0
                }
            })
            .sum();
        assert_eq!(cg.total_adjwgt() + internal, g.total_adjwgt());
        // cmap is a surjection onto coarse ids.
        let mut seen = vec![false; cg.nvtxs()];
        for &c in &cmap {
            seen[c as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
    });
}

#[test]
fn projection_preserves_cut_through_full_hierarchy() {
    for_each_seed(
        "projection_preserves_cut_through_full_hierarchy",
        CASES,
        |seed| {
            let mut rng = Rng::seed_from_u64(seed);
            let g = weighted_graph(&mut rng);
            let sub_seed = rng.gen_range(0..50u64);
            let cfg = PartitionConfig::default().with_seed(sub_seed);
            let mut crng = Rng::seed_from_u64(sub_seed);
            let h = coarsen(&g, 20, &cfg, &mut crng);
            let Some(coarsest) = h.last().map(|l| &l.graph) else {
                return;
            };
            // Any partition of the coarsest projects to a partition of the
            // finest with EXACTLY the same cut (projection moves no weight
            // across the cut).
            let coarse_assignment: Vec<u32> = (0..coarsest.nvtxs() as u32).map(|v| v % 3).collect();
            let coarse_cut = edge_cut_raw(coarsest, &coarse_assignment);
            let mut a = coarse_assignment;
            for level in h.iter().rev() {
                a = level.project(&a);
            }
            assert_eq!(edge_cut_raw(&g, &a), coarse_cut);
        },
    );
}

#[test]
fn kway_partition_is_valid_and_cut_matches() {
    for_each_seed("kway_partition_is_valid_and_cut_matches", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let k = rng.gen_range(2..6usize);
        if g.nvtxs() < k * 2 {
            return;
        }
        let r = partition_kway(&g, k, &PartitionConfig::default());
        assert_eq!(r.partition.len(), g.nvtxs());
        assert!(r.partition.assignment().iter().all(|&p| (p as usize) < k));
        // The reported cut equals an independent recount.
        let recount = edge_cut(&g, &r.partition);
        assert_eq!(r.quality.edge_cut, recount);
    });
}

#[test]
fn rb_partition_is_valid() {
    for_each_seed("rb_partition_is_valid", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let k = rng.gen_range(2..5usize);
        if g.nvtxs() < k * 2 {
            return;
        }
        let r = partition_rb(&g, k, &PartitionConfig::default());
        assert!(r.partition.assignment().iter().all(|&p| (p as usize) < k));
        assert_eq!(edge_cut(&g, &r.partition), r.quality.edge_cut);
    });
}

#[test]
fn part_weights_match_partition_type() {
    for_each_seed("part_weights_match_partition_type", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let k = rng.gen_range(2..5usize);
        if g.nvtxs() < k {
            return;
        }
        let assignment: Vec<u32> = (0..g.nvtxs()).map(|v| (v % k) as u32).collect();
        let pw = part_weights(&g, &assignment, k);
        let p = Partition::new(k, assignment).unwrap();
        assert_eq!(pw, p.part_weights(&g));
    });
}

#[test]
fn balance_model_limits_are_achievable() {
    for_each_seed("balance_model_limits_are_achievable", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let k = rng.gen_range(2..5usize);
        // The granularity slack guarantees SOME assignment satisfies the
        // caps per constraint: limits * k >= tot always.
        let model = BalanceModel::new(&g, k, 0.05);
        for i in 0..g.ncon() {
            assert!(model.limits()[i] * k as i64 >= model.totals()[i]);
        }
    });
}

#[test]
fn metrics_are_label_invariant() {
    for_each_seed("metrics_are_label_invariant", CASES, |seed| {
        // Relabelling vertices and relabelling the partition the same way
        // leaves every metric unchanged.
        use mcgp::graph::permute::permute;
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let perm_seed = rng.gen_range(0..50u64);
        let k = rng.gen_range(2..5usize);
        let n = g.nvtxs();
        if n < k {
            return;
        }
        let mut prng = Rng::seed_from_u64(perm_seed);
        let mut iperm: Vec<u32> = (0..n as u32).collect();
        iperm.shuffle(&mut prng);
        let assignment: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        let p1 = Partition::new(k, assignment.clone()).unwrap();
        let pg = permute(&g, &iperm);
        let mut relabelled = vec![0u32; n];
        for v in 0..n {
            relabelled[iperm[v] as usize] = assignment[v];
        }
        let p2 = Partition::new(k, relabelled).unwrap();
        let q1 = mcgp::graph::PartitionQuality::measure(&g, &p1);
        let q2 = mcgp::graph::PartitionQuality::measure(&pg, &p2);
        assert_eq!(q1, q2);
    });
}

#[test]
fn metis_io_roundtrips() {
    for_each_seed("metis_io_roundtrips", CASES, |seed| {
        let mut rng = Rng::seed_from_u64(seed);
        let g = weighted_graph(&mut rng);
        let mut buf = Vec::new();
        mcgp::graph::io::write_metis(&g, &mut buf).unwrap();
        let back = mcgp::graph::io::read_metis(buf.as_slice()).unwrap();
        assert_eq!(back, g);
    });
}

#[test]
fn parallel_equals_partition_contract() {
    for_each_seed("parallel_equals_partition_contract", 16, |seed| {
        // The distributed pipeline produces a valid partition with exact
        // bookkeeping regardless of processor count.
        use mcgp::parallel::{parallel_partition_kway, ParallelConfig};
        let mut rng = Rng::seed_from_u64(seed);
        let gseed = rng.gen_range(0..30u64);
        let p = rng.gen_range(1..9usize);
        let g = random_connected(400, 5.0, gseed);
        let r = parallel_partition_kway(&g, 4, &ParallelConfig::new(p).with_seed(gseed));
        assert_eq!(r.partition.len(), g.nvtxs());
        let recount = edge_cut(&g, &r.partition);
        assert_eq!(r.quality.edge_cut, recount);
        assert!(r.quality.max_imbalance >= 1.0);
    });
}

#[test]
fn dist_graph_gather_is_identity() {
    for_each_seed("dist_graph_gather_is_identity", 16, |seed| {
        use mcgp::parallel::DistGraph;
        let mut rng = Rng::seed_from_u64(seed);
        let gseed = rng.gen_range(0..30u64);
        let p = rng.gen_range(1..9usize);
        let g = random_connected(300, 4.0, gseed);
        let d = DistGraph::distribute(&g, p);
        assert_eq!(d.gather(), g);
    });
}

#[test]
fn boundary_cache_equals_recompute_after_arbitrary_moves() {
    for_each_seed(
        "boundary_cache_equals_recompute_after_arbitrary_moves",
        CASES,
        |seed| {
            // The incremental boundary/connectivity cache must equal a
            // from-scratch recompute after ANY sequence of committed moves
            // (boundary moves, interior moves, teleports into empty parts).
            use mcgp::core::boundary::BoundaryEngine;
            use mcgp::graph::synthetic;
            let mut rng = Rng::seed_from_u64(seed);
            let base =
                random_connected(rng.gen_range(30..250usize), 4.0, rng.gen_range(0..1000u64));
            let ncon = *[1usize, 3, 5].as_slice().choose(&mut rng).unwrap();
            let wseed = rng.gen_range(0..1000u64);
            let g = if rng.gen_range(0..2u32) == 0 {
                synthetic::type1(&base, ncon, wseed)
            } else {
                synthetic::type2(&base, ncon, wseed)
            };
            let n = g.nvtxs();
            let k = rng.gen_range(2..8usize);
            let mut assignment: Vec<u32> = (0..n).map(|v| ((v * k) / n) as u32).collect();
            let mut engine = BoundaryEngine::new();
            engine.rebuild(&g, &assignment, k);
            let moves = rng.gen_range(1..120usize);
            for step in 0..moves {
                let v = if step % 5 == 0 || engine.boundary().is_empty() {
                    rng.gen_range(0..n as u32) as usize
                } else {
                    let i = rng.gen_range(0..engine.boundary().len() as u32) as usize;
                    engine.boundary()[i] as usize
                };
                let to = rng.gen_range(0..k as u32) as usize;
                engine.commit_move(&g, &mut assignment, v, to);
            }
            engine.validate(&g, &assignment).unwrap_or_else(|e| {
                panic!("cache drifted from recompute after {moves} moves: {e}")
            });
        },
    );
}
