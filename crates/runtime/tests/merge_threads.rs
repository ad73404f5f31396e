//! Pool-merge determinism: running the same traced workload under 1, 2 and
//! 8 worker threads must produce an identical merged [`PhaseReport`] (its
//! counters, and non-zero time in every phase) and an identical trace-event
//! multiset, modulo timing fields (`ts_ns`, `tid`). The workload opens
//! phase-tagged spans inside `pool::map` and `pool::join` workers, so their
//! time must reach the caller through the pool's merge.
//!
//! A single `#[test]` owns the whole sweep: the thread count comes from the
//! process-global `MCGP_THREADS` variable and tracing is a process-global
//! toggle, so the runs must not interleave with each other.

use mcgp_runtime::phase::{counter_add, Counter, Phase, PhaseReport};
use mcgp_runtime::{event, pool, span, trace, Json, TraceEvent};

const UNITS: usize = 32;

fn run_workload() -> (PhaseReport, Vec<TraceEvent>) {
    let _ = trace::take_local();
    trace::set_enabled(true);
    let (sum, report) = PhaseReport::capture(|| {
        let out: Vec<u64> = pool::map(UNITS, |i| {
            let _phase = span!(Phase::ALL[i % Phase::COUNT], unit = i);
            let mut sp = span!("unit", unit = i);
            counter_add(Counter::MovesAttempted, i as u64 + 1);
            if i % 3 == 0 {
                counter_add(Counter::MovesCommitted, 1);
            }
            event!("tick", unit = i, parity = i % 2);
            sp.record("doubled", 2 * i as u64);
            2 * i as u64
        });
        pool::join(
            || {
                let _phase = span!(Phase::Initial, side = "a");
                counter_add(Counter::MatchConflicts, 1);
            },
            || {
                let _phase = span!(Phase::Refine, side = "b");
                counter_add(Counter::MatchConflicts, 2);
            },
        );
        out.iter().sum::<u64>()
    });
    trace::set_enabled(false);
    let events = trace::take_local();
    assert_eq!(sum, (UNITS * (UNITS - 1)) as u64, "workload result");
    (report, events)
}

/// Canonical multiset key per event: the JSONL rendering with the timing
/// fields removed, sorted. `pool_worker` events legitimately differ across
/// thread counts (one per worker, with wall-clock skew) and are excluded.
fn canon(events: &[TraceEvent]) -> Vec<String> {
    let mut keys: Vec<String> = events
        .iter()
        .filter(|e| e.name != "pool_worker")
        .map(|e| match e.to_jsonl_json() {
            Json::Obj(fields) => Json::Obj(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "ts_ns" && k != "tid")
                    .collect(),
            )
            .to_string(),
            other => other.to_string(),
        })
        .collect();
    keys.sort();
    keys
}

#[test]
fn merged_report_and_events_identical_across_thread_counts() {
    std::env::set_var("MCGP_THREADS", "1");
    let (base_report, base_events) = run_workload();
    let base_canon = canon(&base_events);
    assert_eq!(
        base_canon.len(),
        // One B + one E per span (two per map unit), one instant per map
        // unit, then one span per join side.
        4 * UNITS + UNITS + 2 * 2,
        "unexpected event count under 1 thread"
    );
    assert_phase_times_nonzero(&base_report, "1");

    for threads in ["2", "8"] {
        std::env::set_var("MCGP_THREADS", threads);
        let (report, events) = run_workload();
        assert_phase_times_nonzero(&report, threads);
        for &c in Counter::ALL {
            assert_eq!(
                report.counter(c),
                base_report.counter(c),
                "counter {} differs under {threads} threads",
                c.name()
            );
        }
        assert_eq!(
            canon(&events),
            base_canon,
            "trace event multiset differs under {threads} threads"
        );
    }
    std::env::remove_var("MCGP_THREADS");
}

fn assert_phase_times_nonzero(report: &PhaseReport, threads: &str) {
    for &p in Phase::ALL {
        assert!(
            report.nanos(p) > 0,
            "no {} time merged under {threads} threads",
            p.name()
        );
    }
}
