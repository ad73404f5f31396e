//! The library workloads: closed-loop `partition_kway` calls in this
//! process, one caller on one CPU.

use crate::host::{pin_to_one_cpu, Normalizer};
use crate::replay::{self, Replayed};
use crate::spans::Tracer;
use crate::{
    derive, make_graph, peak_rss_mb, Book, Ctx, Family, LayerCounters, Report, Timings, TracedOp,
};
use mcgp_core::{partition_kway, PartitionConfig, PartitionResult};
use mcgp_graph::Graph;
use std::hint::black_box;
use std::time::Instant;

/// Runs `partition_kway(graph, nparts)` over `ctx.problems` problems in
/// turn. Problem `p` uses partitioner seed `p` of the workload seed.
pub fn run(ctx: &Ctx, family: Family, nparts: usize) -> Result<Report, String> {
    let config = |p: usize| PartitionConfig {
        seed: derive(ctx.seed, 1000 + p as u64),
        ..PartitionConfig::default()
    };
    let mut book = Book::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |book: &mut Book, graph: &Graph, p: usize, r: &PartitionResult| {
        attempted += 1;
        let q = &r.quality;
        if !book.check(
            graph,
            p,
            nparts,
            r.partition.assignment(),
            q.edge_cut,
            q.max_imbalance,
        ) {
            failed += 1;
        }
    };
    pin_to_one_cpu()?;
    let mut clock = Normalizer::new();
    let mut t = Timings::default();

    // Set-up: generate the graph and warm up with problem 0, whose result
    // is the first reference of the determinism check.
    let mut graph: Option<Graph> = None;
    let setups = if ctx.trace { 1 } else { ctx.sizes.setups };
    for _ in 0..setups {
        drop(graph.take());
        let ((g, warm), _, setup_s) = clock.time(|| {
            let g = make_graph(family, &ctx.sizes);
            let warm = partition_kway(&g, nparts, &config(0));
            (g, warm)
        });
        t.setup.push(setup_s);
        check(&mut book, &g, 0, &warm);
        graph = Some(g);
    }
    let g = &graph.expect("at least one set-up");

    let mut traced: Vec<TracedOp> = Vec::new();
    let mut tracer = Tracer::new();
    let mut identical = true;
    let mut replay = |tracer: &mut Tracer, g: &Graph, cfg: &PartitionConfig| {
        let op = traced.len() as u64;
        tracer.set_op(op);
        let rep = tracer.span("partition_kway", |tr| {
            replay::partition_kway(g, nparts, cfg, tr)
        });
        let own = tracer.self_seconds(op);
        let total = tracer.seconds(op, "partition_kway");
        traced.push(TracedOp {
            shares: own.iter().map(|(&name, &s)| (name, s / total)).collect(),
            stats: rep.stats.clone(),
            stage_s: total - own["partition_kway"],
            traced_s: total,
        });
        rep
    };
    let start = Instant::now();
    let mut i = 0;
    // A traced run traces every operation.
    while ctx.keep_going(start, i, i) {
        let p = i % ctx.problems;
        let cfg = config(p);
        // Traced runs alternate which of the pair goes first, so neither
        // always finds the caches the other left.
        let replay_first = ctx.trace && i % 2 == 1;
        let early: Option<Replayed> = replay_first.then(|| replay(&mut tracer, g, &cfg));
        let (r, raw, normalised) = clock.time(|| partition_kway(black_box(g), nparts, &cfg));
        t.record(p, raw, normalised);
        check(&mut book, g, p, &r);
        let rep = match early {
            Some(rep) => Some(rep),
            None => ctx.trace.then(|| replay(&mut tracer, g, &cfg)),
        };
        if let Some(rep) = rep {
            identical &= rep.assignment == r.partition.assignment() && rep.quality == r.quality;
        }
        i += 1;
    }
    t.probes = clock.probes;
    t.peak_rss_mb = peak_rss_mb(None)?;

    Ok(if ctx.trace {
        let counters = LayerCounters::default();
        Report::traced(
            attempted,
            failed,
            &traced,
            &t.raw(),
            identical,
            &counters,
            tracer,
        )
    } else {
        Report::end_to_end(attempted, failed, &t, &book, ctx.problems)
    })
}
