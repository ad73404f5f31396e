//! Benchmarks of the extension crate: adaptive repartitioning.

use mcgp_adaptive::evolve::EvolvingWorkload;
use mcgp_adaptive::{repartition, RepartitionMethod};
use mcgp_bench::Bench;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::mrng_like;

fn main() {
    let b = Bench::from_args();

    let mesh = mrng_like(8_000, 2);
    let cfg = PartitionConfig::default();
    let mut ev = EvolvingWorkload::new(mesh, 0.15, 3);
    let first = ev.next_workload();
    let old = partition_kway(&first, 16, &cfg).partition;
    let next = ev.next_workload();
    for method in [RepartitionMethod::ScratchRemap, RepartitionMethod::Refine] {
        b.run("extensions/adaptive", &format!("{method:?}"), || {
            repartition(&next, &old, 16, method, &cfg)
        });
    }
}
