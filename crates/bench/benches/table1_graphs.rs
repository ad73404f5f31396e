//! Bench for Table 1's substrate: generation of the `mrng`-like evaluation
//! graphs and the Type-1/Type-2 workload synthesis on them.

use mcgp_bench::Bench;
use mcgp_graph::generators::mrng_like;
use mcgp_graph::synthetic;

fn main() {
    let b = Bench::from_args();
    for n in [4_000usize, 16_000] {
        b.run("table1/mrng_generation", &n.to_string(), || mrng_like(n, 1));
    }
    let mesh = mrng_like(16_000, 1);
    for ncon in [2usize, 5] {
        b.run(
            "table1/workload_synthesis",
            &format!("type1/{ncon}"),
            || synthetic::type1(&mesh, ncon, 1),
        );
        b.run(
            "table1/workload_synthesis",
            &format!("type2/{ncon}"),
            || synthetic::type2(&mesh, ncon, 1),
        );
    }
}
