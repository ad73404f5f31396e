//! The k-way layers the benchmark reports shares for are named spans in
//! the program itself: a traced `partition_kway` opens each of them, nested
//! where the layer belongs, at one thread and at two. A single `#[test]`
//! owns the trace, because tracing is a process-global toggle.

use mcgp::core::{partition_kway, PartitionConfig};
use mcgp::graph::generators::mrng_like;
use mcgp::graph::synthetic;
use mcgp::runtime::trace::{self, EventKind};
use std::collections::BTreeMap;

/// Each layer span and the span it must sit inside.
const LAYERS: [(&str, &str); 7] = [
    ("matching", "coarsen_level"),
    ("contract", "coarsen_level"),
    ("rb", "initial"),
    ("project", "refine"),
    ("balance", "refine"),
    ("kway_refine", "refine"),
    ("metrics", "partition_kway"),
];

/// The refiner's per-pass span: not a layer, but it must sit inside the
/// layer that times the whole refiner call.
const PASS: (&str, &str) = ("refine_pass", "kway_refine");

/// Traces one `partition_kway` and counts, per span name in [`LAYERS`] and
/// [`PASS`], how many spans opened and how many opened inside their parent.
fn traced_nesting(
    g: &mcgp::graph::Graph,
    config: &PartitionConfig,
) -> BTreeMap<&'static str, (usize, usize)> {
    let _ = trace::take_local();
    trace::set_enabled(true);
    partition_kway(g, 16, config);
    trace::set_enabled(false);
    let events = trace::take_local();

    let mut seen: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut open: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for ev in &events {
        let stack = open.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::Begin => {
                let mut spans = LAYERS.iter().chain([&PASS]);
                if let Some(&(_, parent)) = spans.find(|(name, _)| *name == ev.name) {
                    let entry = seen.entry(ev.name).or_default();
                    entry.0 += 1;
                    entry.1 += usize::from(stack.contains(&parent));
                }
                stack.push(ev.name);
            }
            EventKind::End => assert_eq!(stack.pop(), Some(ev.name), "unbalanced spans"),
            EventKind::Instant => {}
        }
    }
    seen
}

#[test]
fn traced_kway_opens_every_layer_span() {
    let benchmark = include_str!("../BENCHMARK.json");
    for (name, _) in LAYERS {
        assert!(
            benchmark.contains(&format!("\"{name}.share\"")),
            "{name} is not a layer of BENCHMARK.json"
        );
    }
    // The threaded pipeline (forked recursive bisection) opens the same
    // spans as the serial one, nested the same way.
    let g = synthetic::type1(&mrng_like(20_000, 1), 3, 1);
    for threads in [1, 2] {
        let config = PartitionConfig::default()
            .with_seed(7)
            .with_threads(threads);
        let seen = traced_nesting(&g, &config);
        for (name, parent) in LAYERS.iter().chain([&PASS]) {
            let (opened, nested) = seen.get(name).copied().unwrap_or_default();
            assert!(opened > 0, "t={threads}: no {name} span");
            assert_eq!(
                nested, opened,
                "t={threads}: a {name} span outside {parent}"
            );
        }
    }
}
