//! Multilevel recursive bisection (the "pmetis"-style driver).
//!
//! Each bisection is itself multilevel — coarsen, bisect the coarsest graph,
//! FM-refine back up — and the graph is then split into its two induced
//! halves, recursing with part counts `⌈k/2⌉ / ⌊k/2⌋` (uneven target
//! fractions handle non-power-of-two k). Recursive bisection is both a
//! standalone partitioner and the initial-partitioning engine of the k-way
//! driver, exactly as in METIS. Each half of a split recurses on its own
//! RNG stream, seeded from two draws off the parent stream; at
//! `nthreads > 1` the halves run as [`pool::join`] tasks. This task tree is
//! the only place threads reach the shared-memory pipeline, and it does
//! not change a draw, so a partition is a function of the seed alone.

use crate::coarsen::coarsen;
use crate::config::PartitionConfig;
use crate::fm2way::{fm_refine_with, FmWorkspace, TwoWayBalance};
use crate::initial::initial_bisection;
use crate::multilevel::enforce;
use crate::PartitionResult;
use mcgp_graph::check as gcheck;
use mcgp_graph::subgraph::split_bisection;
use mcgp_graph::Graph;
use mcgp_runtime::pool;
use mcgp_runtime::rng::Rng;

/// One complete multilevel bisection of `graph` with side-0 target
/// `fraction`. Returns the side assignment and the number of coarsening
/// levels its hierarchy had. One FM workspace serves every level.
fn bisect(
    graph: &Graph,
    fraction: f64,
    config: &PartitionConfig,
    rng: &mut Rng,
) -> (Vec<u32>, usize) {
    let levels = coarsen(graph, config.coarsen_target(2), config, rng);
    let coarsest = levels.last().map_or(graph, |l| &l.graph);
    let mut side = initial_bisection(coarsest, fraction, config, rng);
    let mut ws = FmWorkspace::default();
    for lvl in (0..levels.len()).rev() {
        side = levels[lvl].project(&side);
        let finer = if lvl == 0 {
            graph
        } else {
            &levels[lvl - 1].graph
        };
        let bal = TwoWayBalance::new(finer, (fraction, 1.0 - fraction), config.imbalance_tol);
        fm_refine_with(finer, &mut side, &bal, config, rng, &mut ws);
    }
    (side, levels.len())
}

/// Recursive bisection on a raw graph; returns the assignment into
/// `0..nparts`. Used directly by the k-way driver for its coarsest-graph
/// initial partitioning.
pub fn recursive_bisection_assignment(
    graph: &Graph,
    nparts: usize,
    config: &PartitionConfig,
    rng: &mut Rng,
) -> Vec<u32> {
    recursive_bisection(graph, nparts, config, rng).0
}

/// [`recursive_bisection_assignment`], also returning the coarsening level
/// count of the top-level bisection, or `None` when no bisection ran.
fn recursive_bisection(
    graph: &Graph,
    nparts: usize,
    config: &PartitionConfig,
    rng: &mut Rng,
) -> (Vec<u32>, Option<usize>) {
    // Per-bisection imbalance compounds multiplicatively over the recursion
    // depth, so split the user's tolerance across the levels:
    // (1 + tol_level)^depth = 1 + tol.
    let depth = nparts.next_power_of_two().trailing_zeros().max(1) as f64;
    let level_tol = (1.0 + config.imbalance_tol).powf(1.0 / depth) - 1.0;
    let level_config = PartitionConfig {
        imbalance_tol: level_tol,
        ..config.clone()
    };
    let mut assignment = vec![0u32; graph.nvtxs()];
    let levels = recurse(graph, nparts, 0, &level_config, rng, &mut assignment);
    (assignment, levels)
}

/// Fills `out` with parts `base..base + nparts`. Returns the coarsening
/// level count of this call's own bisection, or `None` when it made none.
fn recurse(
    graph: &Graph,
    nparts: usize,
    base: u32,
    config: &PartitionConfig,
    rng: &mut Rng,
    out: &mut [u32],
) -> Option<usize> {
    debug_assert_eq!(out.len(), graph.nvtxs());
    if nparts <= 1 {
        out.fill(base);
        return None;
    }
    // Degenerate granularity: with as many parts as vertices, give every
    // vertex its own part. A split always leaves each half at least as
    // many vertices as parts (see `fill_sides`), so only a caller's graph
    // can have fewer.
    if graph.nvtxs() <= nparts {
        for (i, o) in out.iter_mut().enumerate() {
            *o = base + (i as u32).min(nparts as u32 - 1);
        }
        return None;
    }
    let left_parts = nparts.div_ceil(2);
    let right_parts = nparts - left_parts;
    let fraction = left_parts as f64 / nparts as f64;
    let (mut side, levels) = bisect(graph, fraction, config, rng);
    fill_sides(graph, &mut side, [left_parts, right_parts]);
    if nparts == 2 {
        for (o, &s) in out.iter_mut().zip(&side) {
            *o = base + s;
        }
        return Some(levels);
    }
    let (left, right) = split_bisection(graph, &side);
    // Each subtree reseeds from a value drawn off the parent stream, so
    // the output is a function of the seed alone. Threads only choose
    // whether the halves run as pool tasks or inline, one after the other.
    let (lseed, rseed) = (rng.next_u64(), rng.next_u64());
    let subtree = |half: &Graph, parts: usize, base: u32, seed: u64| {
        let mut sub_rng = Rng::seed_from_u64(seed);
        let mut sub_out = vec![0u32; half.nvtxs()];
        recurse(half, parts, base, config, &mut sub_rng, &mut sub_out);
        sub_out
    };
    let left_task = || subtree(&left.graph, left_parts, base, lseed);
    let right_task = || subtree(&right.graph, right_parts, base + left_parts as u32, rseed);
    // The pool's worker cap comes from `MCGP_THREADS` or the machine, not
    // from the config, so `nthreads == 1` must not reach `pool::join`.
    let (left_out, right_out) = if config.nthreads > 1 {
        pool::join(left_task, right_task)
    } else {
        (left_task(), right_task())
    };
    for (local, &parent) in left.to_parent.iter().enumerate() {
        out[parent as usize] = left_out[local];
    }
    for (local, &parent) in right.to_parent.iter().enumerate() {
        out[parent as usize] = right_out[local];
    }
    Some(levels)
}

/// Moves vertices across a bisection until each side holds at least `need`
/// of them, so the recursion below can give every part a vertex. The
/// lightest vertices of the other side move (ties to the lower id), which
/// costs the least balance; refinement repairs the cut. A bisection that
/// already meets `need` is left as it is. The caller guarantees
/// `side.len() > need[0] + need[1]`, so the giving side keeps its own.
fn fill_sides(graph: &Graph, side: &mut [u32], need: [usize; 2]) {
    let on_left = side.iter().filter(|&&s| s == 0).count();
    let have = [on_left, side.len() - on_left];
    let Some(to) = (0..2).find(|&s| have[s] < need[s]) else {
        return;
    };
    let mut donors: Vec<(i64, usize)> = (0..side.len())
        .filter(|&v| side[v] as usize != to)
        .map(|v| (graph.vwgt(v).iter().sum(), v))
        .collect();
    donors.sort_unstable();
    for &(_, v) in &donors[..need[to] - have[to]] {
        side[v] = to as u32;
    }
}

/// Multilevel recursive bisection partitioner (public driver).
///
/// ```
/// use mcgp_core::{partition_rb, PartitionConfig};
/// use mcgp_graph::generators::grid_2d;
/// let r = partition_rb(&grid_2d(16, 16), 4, &PartitionConfig::default());
/// assert!(r.partition.all_parts_nonempty());
/// assert!(r.quality.max_imbalance < 1.10);
/// ```
pub fn partition_rb(graph: &Graph, nparts: usize, config: &PartitionConfig) -> PartitionResult {
    assert!(nparts >= 1, "nparts must be >= 1");
    assert!(graph.nvtxs() >= nparts, "more parts than vertices");
    let mut rng = Rng::seed_from_u64(config.seed);
    let (assignment, top_levels) = recursive_bisection(graph, nparts, config, &mut rng);
    // Level count of the top-level bisection, for statistics. Coarsening
    // does not read the tolerance that recursion splits per level, so that
    // bisection's hierarchy is the one a fresh coarsening under `config`
    // builds; only when no bisection ran is the probe coarsened.
    let levels = top_levels.unwrap_or_else(|| probe_levels(graph, config));
    // Seam: post-refine (recursive bisection refines inside each split).
    if config.check.enabled() {
        enforce(gcheck::check_assignment(graph, &assignment, nparts));
        enforce(gcheck::check_no_empty_parts(&assignment, nparts));
    }
    PartitionResult::measure(graph, assignment, nparts, levels)
}

/// Level count of a coarsening of `graph` to the bisection target, from a
/// fresh RNG stream on `config.seed`.
fn probe_levels(graph: &Graph, config: &PartitionConfig) -> usize {
    let mut probe_rng = Rng::seed_from_u64(config.seed);
    coarsen(graph, config.coarsen_target(2), config, &mut probe_rng).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::{grid_2d, mrng_like};
    use mcgp_graph::synthetic;

    #[test]
    fn bisection_of_grid_is_good_and_balanced() {
        let g = grid_2d(24, 24);
        let cfg = PartitionConfig::default();
        let r = partition_rb(&g, 2, &cfg);
        assert!(
            r.quality.max_imbalance <= 1.06,
            "imbalance {}",
            r.quality.max_imbalance
        );
        // Optimal is 24; accept a small multiple.
        assert!(r.quality.edge_cut <= 60, "cut {}", r.quality.edge_cut);
    }

    #[test]
    fn four_way_partition_nonempty_parts() {
        let g = mrng_like(2000, 3);
        let cfg = PartitionConfig::default();
        let r = partition_rb(&g, 4, &cfg);
        assert!(r.partition.all_parts_nonempty());
        assert!(
            r.quality.max_imbalance <= 1.10,
            "imbalance {}",
            r.quality.max_imbalance
        );
    }

    #[test]
    fn non_power_of_two_parts() {
        let g = grid_2d(30, 30);
        let cfg = PartitionConfig::default();
        let r = partition_rb(&g, 7, &cfg);
        assert!(r.partition.all_parts_nonempty());
        let sizes = r.partition.part_sizes();
        let avg = 900.0 / 7.0;
        for (p, &s) in sizes.iter().enumerate() {
            assert!(
                (s as f64) < avg * 1.25 && (s as f64) > avg * 0.70,
                "part {p} size {s} vs avg {avg}"
            );
        }
    }

    #[test]
    fn multi_constraint_rb_respects_tolerance_roughly() {
        let g = synthetic::type1(&mrng_like(3000, 5), 3, 5);
        let cfg = PartitionConfig::default();
        let r = partition_rb(&g, 4, &cfg);
        // RB compounds per-level tolerance; allow modest slack above 5%.
        assert!(
            r.quality.max_imbalance <= 1.20,
            "imbalance {}",
            r.quality.max_imbalance
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = synthetic::type1(&grid_2d(16, 16), 2, 9);
        let cfg = PartitionConfig::default();
        let a = partition_rb(&g, 4, &cfg);
        let b = partition_rb(&g, 4, &cfg);
        assert_eq!(a.partition.assignment(), b.partition.assignment());
        let c = partition_rb(&g, 4, &cfg.with_seed(1));
        // Different seed very likely differs.
        assert_ne!(a.partition.assignment(), c.partition.assignment());
    }

    #[test]
    fn coarsen_levels_equal_a_probe_coarsening() {
        let g = synthetic::type1(&mrng_like(3000, 2), 2, 3);
        for seed in [1u64, 4] {
            for threads in [1usize, 2] {
                let cfg = PartitionConfig::default()
                    .with_seed(seed)
                    .with_threads(threads);
                // A second, stand-alone coarsening of the whole graph.
                let mut probe_rng = Rng::seed_from_u64(seed);
                let probe = coarsen(&g, cfg.coarsen_target(2), &cfg, &mut probe_rng).len();
                assert!(probe > 1, "mesh does not coarsen");
                for k in [1usize, 2, 6] {
                    let r = partition_rb(&g, k, &cfg);
                    assert_eq!(r.coarsen_levels, probe, "k {k} seed {seed} t {threads}");
                }
            }
        }
    }

    #[test]
    fn skewed_graphs_fill_every_part_under_full_checks() {
        // R-MAT bisections can leave a half with fewer vertices than the
        // parts it must hold; the full seams reject the empty part.
        use mcgp_graph::generators::rmat_default;
        use mcgp_graph::CheckLevel;
        for (scale, k) in [(10u32, 16usize), (12, 64)] {
            let g = rmat_default(scale, 8, 1);
            let cfg = PartitionConfig {
                check: CheckLevel::Full,
                ..PartitionConfig::default().with_seed(1)
            };
            let r = crate::partition_kway(&g, k, &cfg);
            assert!(r.partition.all_parts_nonempty(), "rmat {scale} k {k}");
            let rb = recursive_bisection_assignment(&g, k, &cfg, &mut Rng::seed_from_u64(1));
            let mut sizes = vec![0usize; k];
            for &p in &rb {
                sizes[p as usize] += 1;
            }
            assert!(
                sizes.iter().all(|&s| s > 0),
                "rmat {scale} k {k}: {sizes:?}"
            );
        }
    }

    #[test]
    fn fill_sides_moves_the_lightest_vertices() {
        let g = grid_2d(3, 3);
        let mut side = vec![0u32; 9];
        side[8] = 1;
        fill_sides(&g, &mut side, [2, 3]);
        assert_eq!(side, [1, 1, 0, 0, 0, 0, 0, 0, 1]);
        let before = side.clone();
        fill_sides(&g, &mut side, [2, 3]);
        assert_eq!(side, before, "a filled bisection is left as it is");
    }

    #[test]
    fn single_part_is_trivial() {
        let g = grid_2d(5, 5);
        let cfg = PartitionConfig::default();
        let r = partition_rb(&g, 1, &cfg);
        assert_eq!(r.quality.edge_cut, 0);
        assert!(r.partition.assignment().iter().all(|&p| p == 0));
    }
}
