//! Bench regenerating the Figures 3–5 kernel: serial vs parallel
//! multi-constraint partitioning on one `m cons t` cell (the full figure
//! sweep lives in `mcgp figures`; this measures the per-cell cost).

use mcgp_bench::Bench;
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::mrng_like;
use mcgp_graph::synthetic;
use mcgp_parallel::{parallel_partition_kway, ParallelConfig};

fn main() {
    let b = Bench::from_args();
    let mesh = mrng_like(8_000, 1);
    for ncon in [2usize, 3, 5] {
        let wg = synthetic::type1(&mesh, ncon, 1);
        b.run("figures/cell_mrng1_p32", &format!("serial/{ncon}"), || {
            partition_kway(&wg, 32, &PartitionConfig::default())
        });
        b.run(
            "figures/cell_mrng1_p32",
            &format!("parallel/{ncon}"),
            || parallel_partition_kway(&wg, 32, &ParallelConfig::new(32)),
        );
    }
}
