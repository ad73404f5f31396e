//! Each `refine_pass` span of a traced k-way refiner call records its
//! summed committed gain, so the spans of one call add up to the call's
//! total gain and to the edge-cut drop across it. A single `#[test]` owns
//! the trace, because tracing is a process-global toggle.

use mcgp_core::balance::{part_weights, BalanceModel};
use mcgp_core::kway_refine::greedy_kway_refine;
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::metrics::edge_cut_raw;
use mcgp_graph::{synthetic, Graph};
use mcgp_runtime::rng::Rng;
use mcgp_runtime::trace::{self, EventKind, FieldValue};

const K: usize = 16;

/// Refines a striped start of `graph` once with tracing on and returns the
/// call's gain, the cut drop, the summed `refine_pass` gains and the number
/// of passes.
fn traced_refine(graph: &Graph) -> (i64, i64, i64, usize) {
    let n = graph.nvtxs();
    let mut assignment: Vec<u32> = (0..n).map(|v| (v * K / n) as u32).collect();
    let mut pw = part_weights(graph, &assignment, K);
    let model = BalanceModel::new(graph, K, 0.05);
    let before = edge_cut_raw(graph, &assignment);

    let _ = trace::take_local();
    trace::set_enabled(true);
    let stats = greedy_kway_refine(
        graph,
        &mut assignment,
        &mut pw,
        &model,
        8,
        &mut Rng::seed_from_u64(3),
    );
    trace::set_enabled(false);
    let events = trace::take_local();

    let pass_gains: Vec<i64> = events
        .iter()
        .filter(|ev| ev.kind == EventKind::End && ev.name == "refine_pass")
        .map(|ev| match ev.fields.iter().find(|(k, _)| *k == "gain") {
            Some((_, FieldValue::I64(g))) => *g,
            other => panic!("refine_pass without an integer gain field: {other:?}"),
        })
        .collect();
    assert_eq!(pass_gains.len(), stats.iterations, "one span per pass");
    let drop = before - edge_cut_raw(graph, &assignment);
    (stats.gain, drop, pass_gains.iter().sum(), pass_gains.len())
}

#[test]
fn refine_pass_gains_sum_to_the_call_gain_and_the_cut_drop() {
    let rmat = rmat_default(12, 8, 3);
    let mesh = synthetic::type1(&mrng_like(8000, 3), 3, 3);
    for (name, graph) in [("rmat12", &rmat), ("mrng8k type1", &mesh)] {
        let (gain, drop, summed, passes) = traced_refine(graph);
        assert!(
            gain > 0 && passes > 1,
            "{name}: gain {gain} over {passes} pass(es)"
        );
        assert_eq!(
            summed, gain,
            "{name}: summed pass gains vs KwayRefineStats::gain"
        );
        assert_eq!(
            summed, drop,
            "{name}: summed pass gains vs the edge-cut drop"
        );
    }
}
