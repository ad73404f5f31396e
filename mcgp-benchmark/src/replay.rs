//! Layer-by-layer replays of `partition_kway` and of a served request,
//! built from each layer's public functions and timed with [`Tracer`]
//! spans.
//!
//! A replay must compute exactly what the real call computes: the traced
//! pass compares every replayed assignment (library) or response body
//! (serve) with the real one and reports the outcome as `trace.identical`.
//! When the program's pipeline changes shape, a mismatch marks the
//! per-layer numbers as stale until this file follows; the end-to-end
//! metrics never run through it. The replays cover `nthreads = 1`, the
//! setting every workload uses.

use crate::serve::{response_body, TOL};
use crate::spans::Tracer;
use mcgp_core::balance::{part_weights, rebalance, BalanceModel};
use mcgp_core::boundary::RefineWorkspace;
use mcgp_core::coarsen::{contract_with_scratch, CoarseLevel, ContractionScratch};
use mcgp_core::kway_refine::greedy_kway_refine_ws;
use mcgp_core::matching::match_graph;
use mcgp_core::rb::recursive_bisection_assignment;
use mcgp_core::{HierarchySnapshot, PartitionConfig};
use mcgp_graph::check::check_graph;
use mcgp_graph::io::read_metis;
use mcgp_graph::metrics::edge_cut_raw;
use mcgp_graph::{CheckLevel, Graph, Partition, PartitionQuality};
use mcgp_runtime::rng::Rng;
use mcgp_serve::protocol::PartitionParams;
use mcgp_serve::{fingerprint, CachedEntry, GraphFormat, HierarchyCache};
use std::time::Instant;

/// `coarsen`'s cap on hierarchy depth.
const MAX_LEVELS: usize = 64;

/// Work counts of one replayed operation, measured where the work happens.
#[derive(Clone, Debug, Default)]
pub struct OpStats {
    /// Coarsening levels the operation partitioned through.
    pub levels: usize,
    /// Vertices of the graph initial partitioning ran on.
    pub coarsest_nvtxs: usize,
    /// Mean coarse/fine vertex ratio over those levels.
    pub shrink: f64,
    /// Approximate bytes of those levels (CSR arrays, weights, cmaps).
    pub hierarchy_bytes: usize,
    /// Edge cut of the initial partition on the coarsest graph.
    pub rb_cut: i64,
    pub balance_calls: usize,
    pub balance_moved: usize,
    /// Calls that returned with some part still over its cap.
    pub balance_failed: usize,
    pub refine_moves: usize,
    pub refine_iterations: usize,
    /// Boundary vertices left after each refinement call, summed.
    pub refine_boundary: usize,
}

impl OpStats {
    fn describe_levels(&mut self, graph: &Graph, levels: &[CoarseLevel]) {
        self.levels = levels.len();
        self.coarsest_nvtxs = levels.last().map_or(graph, |l| &l.graph).nvtxs();
        let mut finer = graph.nvtxs();
        let mut ratios = 0.0;
        for l in levels {
            let g = &l.graph;
            ratios += g.nvtxs() as f64 / finer as f64;
            finer = g.nvtxs();
            self.hierarchy_bytes += (g.nvtxs() + 1) * 8
                + g.adjacency_len() * (4 + 8)
                + g.nvtxs() * g.ncon() * 8
                + l.cmap.len() * 4;
        }
        self.shrink = if levels.is_empty() {
            1.0
        } else {
            ratios / levels.len() as f64
        };
    }
}

/// What one replayed partition produced.
pub struct Replayed {
    pub assignment: Vec<u32>,
    pub quality: PartitionQuality,
    pub stats: OpStats,
}

/// `mcgp_core::partition_kway` (`nparts >= 2`), one layer at a time.
pub fn partition_kway(
    graph: &Graph,
    nparts: usize,
    cfg: &PartitionConfig,
    tr: &mut Tracer,
) -> Replayed {
    assert_eq!(
        cfg.nthreads, 1,
        "the replay covers the serial pipeline only"
    );
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let levels = tr.span("coarsen", |tr| {
        coarsen(graph, cfg.coarsen_target(nparts), cfg, &mut rng, None, tr)
    });
    initial_and_refine(graph, &levels, nparts, cfg, &mut rng, tr)
}

/// The coarsening loop of `mcgp_core::coarsen::coarsen`; with `record`,
/// also the RNG state before each level, as `coarsen_recorded` keeps it.
fn coarsen(
    graph: &Graph,
    target: usize,
    cfg: &PartitionConfig,
    rng: &mut Rng,
    mut record: Option<&mut Vec<Rng>>,
    tr: &mut Tracer,
) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut scratch = ContractionScratch::with_check(cfg.check);
    loop {
        let cur = levels.last().map_or(graph, |l| &l.graph);
        if let Some(states) = record.as_deref_mut() {
            states.push(rng.clone());
        }
        if cur.nvtxs() <= target || levels.len() >= MAX_LEVELS {
            break;
        }
        let matching = tr.span("matching", |_| match_graph(cur, cfg.matching, rng));
        if matching.coarse_nvtxs as f64 > 0.95 * cur.nvtxs() as f64 {
            break;
        }
        let (coarse, cmap) = tr.span("contract", |_| {
            contract_with_scratch(cur, &matching, &mut scratch)
        });
        levels.push(CoarseLevel {
            graph: coarse,
            cmap,
        });
    }
    levels
}

/// Initial partitioning and uncoarsening (`kway::initial_and_refine`),
/// then the quality report `partition_kway` returns.
fn initial_and_refine(
    graph: &Graph,
    levels: &[CoarseLevel],
    nparts: usize,
    cfg: &PartitionConfig,
    rng: &mut Rng,
    tr: &mut Tracer,
) -> Replayed {
    let mut stats = OpStats::default();
    stats.describe_levels(graph, levels);
    let coarsest = levels.last().map_or(graph, |l| &l.graph);
    let mut assignment = tr.span("rb", |_| {
        recursive_bisection_assignment(coarsest, nparts, cfg, rng)
    });
    stats.rb_cut = edge_cut_raw(coarsest, &assignment);

    let mut ws = RefineWorkspace::new();
    tr.span("refine", |tr| {
        refine_level(
            coarsest,
            &mut assignment,
            nparts,
            cfg,
            rng,
            &mut ws,
            &mut stats,
            tr,
        );
        for lvl in (0..levels.len()).rev() {
            let cmap = &levels[lvl].cmap;
            assignment = tr.span("project", |_| {
                cmap.iter().map(|&c| assignment[c as usize]).collect()
            });
            let finer = if lvl == 0 {
                graph
            } else {
                &levels[lvl - 1].graph
            };
            refine_level(
                finer,
                &mut assignment,
                nparts,
                cfg,
                rng,
                &mut ws,
                &mut stats,
                tr,
            );
        }
        // The final feasibility rounds at the finest level.
        let (model, mut pw) = tr.span("balance", |_| {
            (
                BalanceModel::new(graph, nparts, cfg.imbalance_tol),
                part_weights(graph, &assignment, nparts),
            )
        });
        for _ in 0..4 {
            if model.is_balanced(&pw) {
                break;
            }
            balance(graph, &mut assignment, &mut pw, &model, rng, &mut stats, tr);
            let s = tr.span("kway_refine", |_| {
                greedy_kway_refine_ws(graph, &mut assignment, &mut pw, &model, 2, rng, &mut ws)
            });
            stats.refine_moves += s.moves;
            stats.refine_iterations += s.iterations;
            stats.refine_boundary += ws.engine.boundary().len();
        }
    });

    let (assignment, quality) = tr.span("metrics", |_| {
        let partition =
            Partition::new(nparts, assignment).expect("replayed assignment is in range");
        let quality = PartitionQuality::measure(graph, &partition);
        (partition.into_assignment(), quality)
    });
    Replayed {
        assignment,
        quality,
        stats,
    }
}

#[allow(clippy::too_many_arguments)]
fn refine_level(
    g: &Graph,
    assignment: &mut [u32],
    nparts: usize,
    cfg: &PartitionConfig,
    rng: &mut Rng,
    ws: &mut RefineWorkspace,
    stats: &mut OpStats,
    tr: &mut Tracer,
) {
    let (model, mut pw) = tr.span("balance", |_| {
        (
            BalanceModel::new(g, nparts, cfg.imbalance_tol),
            part_weights(g, assignment, nparts),
        )
    });
    if !model.is_balanced(&pw) {
        balance(g, assignment, &mut pw, &model, rng, stats, tr);
    }
    let s = tr.span("kway_refine", |_| {
        greedy_kway_refine_ws(g, assignment, &mut pw, &model, cfg.refine_iters, rng, ws)
    });
    stats.refine_moves += s.moves;
    stats.refine_iterations += s.iterations;
    stats.refine_boundary += ws.engine.boundary().len();
}

fn balance(
    g: &Graph,
    assignment: &mut [u32],
    pw: &mut [i64],
    model: &BalanceModel,
    rng: &mut Rng,
    stats: &mut OpStats,
    tr: &mut Tracer,
) {
    let before = assignment.to_vec();
    let ok = tr.span("balance", |_| rebalance(g, assignment, pw, model, rng));
    stats.balance_calls += 1;
    stats.balance_moved += before
        .iter()
        .zip(assignment.iter())
        .filter(|(a, b)| a != b)
        .count();
    stats.balance_failed += usize::from(!ok);
}

/// `HierarchySnapshot::build`, one coarsening level at a time.
fn build_snapshot(graph: &Graph, cfg: &PartitionConfig, tr: &mut Tracer) -> HierarchySnapshot {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut rng_at = Vec::new();
    let levels = coarsen(
        graph,
        cfg.coarsen_to_min,
        cfg,
        &mut rng,
        Some(&mut rng_at),
        tr,
    );
    HierarchySnapshot::from_parts(levels, rng_at, rng, graph.nvtxs(), cfg.seed, cfg.nthreads)
        .expect("a replayed hierarchy is structurally valid")
}

/// `HierarchySnapshot::partition` (`nparts >= 2`): the level prefix and RNG
/// state a cold run with this `nparts` would stop at, then initial
/// partitioning and refinement.
fn snapshot_partition(
    graph: &Graph,
    snap: &HierarchySnapshot,
    nparts: usize,
    cfg: &PartitionConfig,
    tr: &mut Tracer,
) -> Replayed {
    let target = cfg.coarsen_target(nparts);
    let levels = snap.levels();
    let input_nvtxs = |i: usize| {
        if i == 0 {
            graph.nvtxs()
        } else {
            levels[i - 1].graph.nvtxs()
        }
    };
    let cut = (0..=levels.len())
        .find(|&i| input_nvtxs(i) <= target)
        .unwrap_or(levels.len());
    let mut rng = if input_nvtxs(cut) <= target {
        snap.rng_boundary_states()[cut].clone()
    } else {
        snap.rng_final().clone()
    };
    initial_and_refine(graph, &levels[..cut], nparts, cfg, &mut rng, tr)
}

/// The daemon's handling of `POST /partition?k=<k>&seed=<seed>&threads=1`
/// with a METIS `body`, run in-process against `cache`: fingerprint, cache
/// lookup (on a miss: parse, check, coarsen), partition from the cached
/// hierarchy, serialize.
pub fn serve_request(
    body: &[u8],
    nparts: usize,
    seed: u64,
    cache: &HierarchyCache,
    tr: &mut Tracer,
) -> Result<(Vec<u8>, OpStats), String> {
    let fp = tr.span("fingerprint", |_| {
        fingerprint(GraphFormat::Metis, body, seed, 1)
    });
    let build_cfg = PartitionConfig {
        seed,
        nthreads: 1,
        ..PartitionConfig::default()
    };
    let (entry, _) = tr
        .span("cache", |tr| {
            cache.get_or_build(fp, || {
                tr.span("build", |tr| {
                    let t0 = Instant::now();
                    let graph = tr.span("parse", |_| read_metis(body))?;
                    tr.span("check", |_| check_graph(&graph, CheckLevel::Cheap))?;
                    let snapshot = tr.span("coarsen", |tr| build_snapshot(&graph, &build_cfg, tr));
                    Ok(CachedEntry::new(
                        graph,
                        snapshot,
                        t0.elapsed().as_secs_f64(),
                    ))
                })
            })
        })
        .map_err(|e| format!("in-process replay rejected the body: {e}"))?;
    let cfg = PartitionConfig {
        imbalance_tol: TOL,
        ..build_cfg
    };
    let r = tr.span("partition", |tr| {
        snapshot_partition(&entry.graph, &entry.snapshot, nparts, &cfg, tr)
    });
    let params = PartitionParams {
        nparts,
        tol: TOL,
        seed,
        nthreads: 1,
    };
    let body = tr.span("serialize", |_| {
        response_body(
            fp,
            &params,
            &entry.graph,
            &r.assignment,
            r.stats.levels,
            &r.quality,
        )
    });
    Ok((body, r.stats))
}
