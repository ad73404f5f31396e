//! Observability-merge determinism: per-worker windowed histograms and
//! collapsed span stacks, produced under 1, 2 and 8 pool workers and
//! merged in worker-index order, must be identical byte for byte — the
//! same contract `merge_threads.rs` pins for phase counters and trace
//! events, extended to the SLO and profiler artifacts this layer feeds
//! into `/metrics` and `*.folded` files.
//!
//! A single `#[test]` owns the whole sweep: the worker count comes from
//! the process-global `MCGP_THREADS` variable, so the runs must not
//! interleave. The deterministic sub-workload per unit (values derived
//! from the unit index, never from time or thread identity) is what makes
//! byte-equality possible; the pool only changes *where* each unit runs.

use mcgp_runtime::metrics::{validate_prometheus, PromWriter, WindowedHistogram};
use mcgp_runtime::profile::{validate_collapsed, CollapsedStacks};
use mcgp_runtime::Histogram;

const UNITS: usize = 48;

/// Per-unit latencies: a deterministic spread covering several log₂
/// buckets, including the degenerate edges (zero, negative) the
/// histogram must bucket consistently.
fn unit_latencies(unit: usize) -> Vec<i64> {
    (0..12)
        .map(|j| {
            let v = ((unit as i64 + 1) * 37 + j * j * 11) % 5000;
            match (unit + j as usize) % 17 {
                0 => 0,
                1 => -v,
                _ => v,
            }
        })
        .collect()
}

/// Per-unit span stack and weight for the collapsed-profile artifact.
fn unit_stack(unit: usize) -> (Vec<&'static str>, u64) {
    const LEAVES: [&str; 4] = ["match", "contract", "fm_pass", "project"];
    let stack = vec![
        "partition",
        ["coarsen", "refine"][unit % 2],
        LEAVES[unit % 4],
    ];
    (stack, unit as u64 % 7 + 1)
}

/// One full run: each pool worker unit records into its own windowed
/// histogram and collapsed tally; the per-unit results are merged in
/// index order (the order `pool::map` returns them), exactly how the
/// production pool paths fold worker-local observability state.
fn run_workload() -> (WindowedHistogram, CollapsedStacks) {
    let per_unit: Vec<(Histogram, CollapsedStacks)> = mcgp_runtime::pool::map(UNITS, |i| {
        let mut h = Histogram::default();
        for v in unit_latencies(i) {
            h.record(v);
        }
        let mut stacks = CollapsedStacks::default();
        let (stack, weight) = unit_stack(i);
        stacks.add(&stack, weight);
        (h, stacks)
    });
    // Windowed state is single-writer by design; the merge replays the
    // worker samples through one window in index order so every sweep
    // sees the same epoch boundaries.
    let mut window = WindowedHistogram::new(4, 64);
    let mut merged_hist = Histogram::default();
    let mut folded = CollapsedStacks::default();
    for (h, s) in &per_unit {
        merged_hist.merge(h);
        folded.merge(s);
    }
    for i in 0..per_unit.len() {
        for v in unit_latencies(i) {
            window.record(v);
        }
    }
    // Merging worker histograms and replaying their samples must agree.
    assert_eq!(
        format!("{merged_hist:?}"),
        format!("{:?}", window.lifetime())
    );
    (window, folded)
}

#[test]
fn windowed_histograms_and_collapsed_stacks_merge_identically() {
    std::env::set_var("MCGP_THREADS", "1");
    let (base_window, base_folded) = run_workload();
    let base_rendered = base_folded.render();
    let base_lifetime = format!("{:?}", base_window.lifetime());
    let base_window_hist = format!("{:?}", base_window.window());

    // The baseline artifacts are themselves well-formed.
    assert_eq!(
        validate_collapsed(&base_rendered).unwrap(),
        base_folded.len(),
        "baseline collapsed output invalid"
    );
    assert_eq!(base_window.lifetime().count, (UNITS * 12) as u64);
    assert!(base_folded.total_samples() > 0);

    for threads in ["2", "8"] {
        std::env::set_var("MCGP_THREADS", threads);
        let (window, folded) = run_workload();
        assert_eq!(
            folded.render(),
            base_rendered,
            "collapsed stacks differ under {threads} workers"
        );
        assert_eq!(
            format!("{:?}", window.lifetime()),
            base_lifetime,
            "lifetime histogram differs under {threads} workers"
        );
        assert_eq!(
            format!("{:?}", window.window()),
            base_window_hist,
            "windowed histogram differs under {threads} workers"
        );
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                window.window().quantile(q),
                base_window.window().quantile(q),
                "q={q} differs under {threads} workers"
            );
        }
    }
    std::env::remove_var("MCGP_THREADS");

    // Round-trip: the merged histogram rendered as Prometheus text passes
    // the exposition validator, and the quantile gauges agree with the
    // source. This is the same path `/metrics?format=prom` takes.
    let mut w = PromWriter::new();
    w.histogram(
        "test_latency_seconds",
        "Merged workload latencies.",
        &[("source", "merge_test")],
        base_window.lifetime(),
        1e-6,
    );
    w.gauge(
        "test_latency_window_seconds",
        "Windowed quantiles.",
        &[("quantile", "0.5")],
        base_window.window().quantile(0.5) as f64 * 1e-6,
    );
    w.gauge(
        "test_latency_window_seconds",
        "Windowed quantiles.",
        &[("quantile", "0.99")],
        base_window.window().quantile(0.99) as f64 * 1e-6,
    );
    let text = w.finish();
    let samples = validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    // At least one bucket + _sum + _count for the histogram family plus
    // the two quantile gauges.
    assert!(samples >= 5, "only {samples} samples:\n{text}");
    assert_eq!(text.matches("# TYPE").count(), 2, "two families:\n{text}");
    assert!(text.contains(&format!(
        "test_latency_seconds_count{{source=\"merge_test\"}} {}",
        base_window.lifetime().count
    )));
}
