//! The k-way layers the benchmark reports shares for are named spans in
//! the program itself: a traced `partition_kway` opens each of them, nested
//! where the layer belongs. A single `#[test]` owns the trace, because
//! tracing is a process-global toggle.

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

#[test]
fn traced_kway_opens_every_layer_span() {
    let g = synthetic::type1(&mrng_like(20_000, 1), 3, 1);
    let _ = trace::take_local();
    trace::set_enabled(true);
    partition_kway(&g, 16, &PartitionConfig::default().with_seed(7));
    trace::set_enabled(false);
    let events = trace::take_local();

    // Per layer: how many spans opened, and how many inside their parent.
    let mut seen: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    let mut open: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for ev in &events {
        let stack = open.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::Begin => {
                if let Some(&(_, parent)) = LAYERS.iter().find(|(name, _)| *name == ev.name) {
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

    let benchmark = include_str!("../BENCHMARK.json");
    for (name, parent) in LAYERS {
        let (opened, nested) = seen.get(name).copied().unwrap_or_default();
        assert!(opened > 0, "no {name} span");
        assert_eq!(nested, opened, "a {name} span outside {parent}");
        assert!(
            benchmark.contains(&format!("\"{name}.share\"")),
            "{name} is not a layer of BENCHMARK.json"
        );
    }
}
