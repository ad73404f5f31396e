//! Phase totals are span durations. For every driver, `PhaseReport`'s time
//! for a phase equals the summed `End − Begin` of the spans tagged with that
//! phase, to the nanosecond; with tracing off the same spans still time
//! every phase. The refiner's move counters, added once per pass, equal
//! the moves its `refine_pass` spans report.
//!
//! A single `#[test]` owns both halves, because tracing is a process-global
//! toggle.

use mcgp::core::{partition_kway, HierarchySnapshot, PartitionConfig};
use mcgp::graph::generators::mrng_like;
use mcgp::graph::synthetic;
use mcgp::parallel::{parallel_partition_kway, ParallelConfig};
use mcgp::runtime::trace::{self, EventKind, FieldValue, TraceEvent};
use mcgp::runtime::{Counter, Phase, PhaseReport};
use std::collections::BTreeMap;

/// Sums `End − Begin` per phase over the spans named after a phase (the
/// tagged spans), pairing Begin and End per thread.
fn tagged_span_ns(events: &[TraceEvent]) -> [u64; Phase::COUNT] {
    let mut open: BTreeMap<u64, Vec<(&str, u64)>> = BTreeMap::new();
    let mut sums = [0u64; Phase::COUNT];
    for ev in events {
        match ev.kind {
            EventKind::Begin => open.entry(ev.tid).or_default().push((ev.name, ev.ts_ns)),
            EventKind::End => {
                let (name, begin) = open.get_mut(&ev.tid).and_then(Vec::pop).expect("balanced");
                assert_eq!(name, ev.name);
                if let Some(&p) = Phase::ALL.iter().find(|p| p.name() == name) {
                    sums[p.index()] += ev.ts_ns - begin;
                }
            }
            EventKind::Instant => {}
        }
    }
    sums
}

/// Sums the `key` field over the End events of the `refine_pass` spans.
fn refine_pass_total(events: &[TraceEvent], key: &str) -> u64 {
    events
        .iter()
        .filter(|ev| ev.kind == EventKind::End && ev.name == "refine_pass")
        .flat_map(|ev| &ev.fields)
        .map(|(k, v)| match v {
            FieldValue::U64(n) if *k == key => *n,
            _ => 0,
        })
        .sum()
}

#[test]
fn phase_totals_are_tagged_span_durations() {
    let g = synthetic::type1(&mrng_like(20_000, 1), 3, 1);
    let cfg = PartitionConfig::default().with_seed(7);
    let cfg_t2 = cfg.with_threads(2);
    let pcfg = ParallelConfig::new(4).with_seed(7);
    let drivers: [(&str, &dyn Fn()); 4] = [
        ("partition_kway", &|| {
            partition_kway(&g, 16, &cfg);
        }),
        ("partition_kway t2", &|| {
            partition_kway(&g, 16, &cfg_t2);
        }),
        ("hierarchy build + partition", &|| {
            HierarchySnapshot::build(&g, &cfg).partition(&g, 16, &cfg);
        }),
        ("parallel_partition_kway", &|| {
            parallel_partition_kway(&g, 16, &pcfg);
        }),
    ];

    for (name, run) in drivers {
        let _ = trace::take_local();
        trace::set_enabled(true);
        let ((), report) = PhaseReport::capture(run);
        trace::set_enabled(false);
        let events = trace::take_local();
        let sums = tagged_span_ns(&events);
        for &p in Phase::ALL {
            assert!(sums[p.index()] > 0, "{name}: no {} span", p.name());
            assert_eq!(report.nanos(p), sums[p.index()], "{name}: {}", p.name());
        }
        for (counter, key) in [
            (Counter::MovesCommitted, "moves_committed"),
            (Counter::MovesAttempted, "moves_attempted"),
        ] {
            let passes = refine_pass_total(&events, key);
            assert_eq!(report.counter(counter), passes, "{name}: {key}");
            if name == "partition_kway" {
                assert!(passes > 0, "{name}: the refiner reported no {key}");
            }
        }
    }

    for (name, run) in drivers {
        let ((), report) = PhaseReport::capture(run);
        for &p in Phase::ALL {
            assert!(report.nanos(p) > 0, "{name} untraced: no {} time", p.name());
        }
    }
    assert!(trace::take_local().is_empty(), "tracing was off");
}
