//! Differential serial ↔ parallel testing.
//!
//! The Euro-Par 2000 parallel formulation is *supposed* to approximate the
//! serial SC'98 algorithm: same multilevel structure, coarser-grained
//! refinement. This module makes that claim executable. For every cell of a
//! seeded sweep (weight type × ncon × k × p, the serial driver running at
//! `p` threads so the envelopes also cover its threaded recursive
//! bisection) it runs both drivers with full seam
//! validation enabled and checks, against documented envelopes, that
//!
//! 1. both partitions are structurally valid (in-range, every subdomain
//!    populated) — hard failures;
//! 2. both respect their imbalance envelopes (serial is expected to hit the
//!    5 % tolerance up to granularity slack; parallel is allowed the
//!    paper's looser residual);
//! 3. the parallel edge-cut stays within a bounded ratio of the serial cut
//!    (both directions: a wildly *better* parallel cut on a balanced
//!    partition would equally signal a serial regression).
//!
//! The envelopes are deliberately generous — they bound "broken", not
//! "slightly worse" — and are documented in DESIGN.md ("Validation &
//! differential testing").

use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::check as gcheck;
use mcgp_graph::generators::mrng_like;
use mcgp_graph::{synthetic, CheckLevel, Graph};
use mcgp_parallel::{parallel_partition_kway, ParallelConfig};

/// The paper's two multi-weight synthesis schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightType {
    /// Type 1: independent random weights per constraint.
    Type1,
    /// Type 2: geometrically-localised weight blocks.
    Type2,
}

/// Divergence envelopes the sweep asserts. The defaults bound "broken":
/// they hold with wide margin on every graph family the repo generates.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// Upper bound on `parallel_cut / serial_cut`.
    pub max_cut_ratio: f64,
    /// Lower bound on `parallel_cut / serial_cut` (a parallel cut this much
    /// *better* means the serial refiner regressed).
    pub min_cut_ratio: f64,
    /// Cuts below this are considered noise and skip the ratio check
    /// (a 2-edge difference on a 10-edge cut is not a divergence signal).
    pub min_cut_for_ratio: i64,
    /// Ceiling on the serial partition's max per-constraint imbalance.
    pub max_serial_imbalance: f64,
    /// Ceiling on the parallel partition's max per-constraint imbalance
    /// (the reservation scheme leaves a bounded residual; the paper's
    /// parallel results sit near 5-15 %, more with many constraints).
    pub max_parallel_imbalance: f64,
}

impl Default for Envelope {
    fn default() -> Self {
        Envelope {
            max_cut_ratio: 2.5,
            min_cut_ratio: 0.3,
            min_cut_for_ratio: 20,
            max_serial_imbalance: 1.25,
            max_parallel_imbalance: 1.45,
        }
    }
}

/// One cell of the differential sweep.
#[derive(Clone, Debug)]
pub struct DiffRecord {
    pub wtype: &'static str,
    pub ncon: usize,
    pub nparts: usize,
    pub nprocs: usize,
    /// Thread count the serial driver runs at in this cell (same value as
    /// `nprocs`, recorded explicitly so the JSONL is self-describing).
    pub serial_threads: usize,
    pub seed: u64,
    pub serial_cut: i64,
    pub parallel_cut: i64,
    pub cut_ratio: f64,
    pub serial_imbalance: f64,
    pub parallel_imbalance: f64,
    /// Whether rerunning the serial driver at one thread reproduced its
    /// `nprocs`-thread partition bit-for-bit — determinism and thread
    /// independence in one check, asserted in every cell.
    pub rerun_identical: bool,
    /// Envelope/validity violations; empty means the cell passed.
    pub failures: Vec<String>,
}

mcgp_runtime::impl_to_json!(DiffRecord {
    wtype,
    ncon,
    nparts,
    nprocs,
    serial_threads,
    seed,
    serial_cut,
    parallel_cut,
    cut_ratio,
    serial_imbalance,
    parallel_imbalance,
    rerun_identical,
    failures
});

impl DiffRecord {
    /// True when the cell met every envelope.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The sweep grid. `Default` is the documented acceptance grid
/// (type1/type2 × ncon {1,3,5} × k {4,16,64} × p {1,2,8}).
#[derive(Clone, Debug)]
pub struct SweepGrid {
    pub nvtxs: usize,
    pub wtypes: Vec<WeightType>,
    pub ncons: Vec<usize>,
    pub ks: Vec<usize>,
    pub procs: Vec<usize>,
    pub seed: u64,
}

impl Default for SweepGrid {
    fn default() -> Self {
        SweepGrid {
            nvtxs: 2000,
            wtypes: vec![WeightType::Type1, WeightType::Type2],
            ncons: vec![1, 3, 5],
            ks: vec![4, 16, 64],
            procs: vec![1, 2, 8],
            seed: 0xD1FF,
        }
    }
}

impl SweepGrid {
    /// A cut-down grid for debug-profile `cargo test`: the same shape,
    /// small enough to stay fast without optimisation.
    pub fn reduced() -> Self {
        SweepGrid {
            nvtxs: 900,
            wtypes: vec![WeightType::Type1, WeightType::Type2],
            ncons: vec![1, 3],
            ks: vec![4, 16],
            procs: vec![1, 2, 8],
            seed: 0xD1FF,
        }
    }
}

/// Builds the workload graph for one sweep cell.
pub fn sweep_graph(wtype: WeightType, nvtxs: usize, ncon: usize, seed: u64) -> Graph {
    let base = mrng_like(nvtxs, seed);
    match (wtype, ncon) {
        (_, 1) => base,
        (WeightType::Type1, n) => synthetic::type1(&base, n, seed),
        (WeightType::Type2, n) => synthetic::type2(&base, n, seed),
    }
}

/// Runs one differential cell: serial and parallel drivers at `seed` with
/// full seam validation, then every envelope check.
pub fn differential_case(
    graph: &Graph,
    wtype: WeightType,
    nparts: usize,
    nprocs: usize,
    seed: u64,
    env: &Envelope,
) -> DiffRecord {
    // The serial driver runs at `nprocs` threads, so every cell of the
    // grid with `nprocs > 1` also covers the threaded recursive-bisection
    // task tree (threads 1/2/8 on the default grids) under the same
    // envelopes.
    let serial_cfg = {
        let mut c = PartitionConfig::default()
            .with_seed(seed)
            .with_threads(nprocs);
        c.check = CheckLevel::Full;
        c
    };
    let serial = partition_kway(graph, nparts, &serial_cfg);

    // Determinism row: the serial driver is a function of `(graph, seed)`
    // alone, so a rerun at one thread reproduces the `nprocs`-thread
    // assignment bit-for-bit in every cell.
    let rerun = partition_kway(graph, nparts, &serial_cfg.with_threads(1));
    let rerun_identical = rerun.partition.assignment() == serial.partition.assignment();

    let par_cfg = {
        let mut c = ParallelConfig::new(nprocs).with_seed(seed);
        c.serial.check = CheckLevel::Full;
        c
    };
    let parallel = parallel_partition_kway(graph, nparts, &par_cfg);

    let mut failures = Vec::new();
    if !rerun_identical {
        failures.push(format!(
            "serial driver at {nprocs} thread(s) differs from its rerun at 1 thread"
        ));
    }
    let tol = serial_cfg.imbalance_tol;
    for (label, assignment) in [
        ("serial", serial.partition.assignment()),
        ("parallel", parallel.partition.assignment()),
    ] {
        if let Err(e) = gcheck::check_assignment(graph, assignment, nparts)
            .and_then(|()| gcheck::check_no_empty_parts(assignment, nparts))
        {
            failures.push(format!("{label}: {e}"));
        }
    }
    let s_imb = serial.quality.max_imbalance;
    let p_imb = parallel.quality.max_imbalance;
    if s_imb > env.max_serial_imbalance {
        failures.push(format!(
            "serial imbalance {s_imb:.4} exceeds envelope {:.4}",
            env.max_serial_imbalance
        ));
    }
    if p_imb > env.max_parallel_imbalance {
        failures.push(format!(
            "parallel imbalance {p_imb:.4} exceeds envelope {:.4}",
            env.max_parallel_imbalance
        ));
    }
    let (sc, pc) = (serial.quality.edge_cut, parallel.quality.edge_cut);
    let ratio = pc as f64 / (sc.max(1)) as f64;
    if sc.max(pc) >= env.min_cut_for_ratio {
        if ratio > env.max_cut_ratio {
            failures.push(format!(
                "cut ratio {ratio:.3} ({pc} vs {sc}) exceeds envelope {:.3}",
                env.max_cut_ratio
            ));
        }
        if ratio < env.min_cut_ratio {
            failures.push(format!(
                "cut ratio {ratio:.3} ({pc} vs {sc}) below envelope {:.3}",
                env.min_cut_ratio
            ));
        }
    }
    // The serial driver enforces the 5 % tolerance up to granularity slack;
    // verify it against the named balance invariant too (this is the check
    // `mcgp check` runs), folding its message into the failure list.
    if let Err(e) = gcheck::check_balance(
        graph,
        serial.partition.assignment(),
        nparts,
        // The serial envelope, not the raw tolerance: refinement's bounded
        // feasibility rounds may legitimately stop slightly above tol.
        (env.max_serial_imbalance - 1.0).max(tol),
    ) {
        failures.push(format!("serial balance: {e}"));
    }
    DiffRecord {
        wtype: match wtype {
            WeightType::Type1 => "type1",
            WeightType::Type2 => "type2",
        },
        ncon: graph.ncon(),
        nparts,
        nprocs,
        serial_threads: nprocs,
        seed,
        serial_cut: sc,
        parallel_cut: pc,
        cut_ratio: ratio,
        serial_imbalance: s_imb,
        parallel_imbalance: p_imb,
        rerun_identical,
        failures,
    }
}

/// Runs the full sweep, invoking `on_record` after each cell (for progress
/// reporting), and returns every record. Cells where `k > nvtxs` are
/// skipped.
pub fn run_sweep<F: FnMut(&DiffRecord)>(
    grid: &SweepGrid,
    env: &Envelope,
    mut on_record: F,
) -> Vec<DiffRecord> {
    let mut records = Vec::new();
    for &wtype in &grid.wtypes {
        for &ncon in &grid.ncons {
            let graph = sweep_graph(wtype, grid.nvtxs, ncon, grid.seed);
            for &k in &grid.ks {
                if k > graph.nvtxs() {
                    continue;
                }
                for &p in &grid.procs {
                    let seed = grid.seed ^ ((ncon as u64) << 8) ^ ((k as u64) << 16);
                    let rec = differential_case(&graph, wtype, k, p, seed, env);
                    on_record(&rec);
                    records.push(rec);
                }
            }
        }
    }
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_passes_envelopes() {
        let g = sweep_graph(WeightType::Type1, 800, 3, 1);
        let rec = differential_case(&g, WeightType::Type1, 8, 2, 1, &Envelope::default());
        assert!(rec.pass(), "failures: {:?}", rec.failures);
        assert_eq!(rec.ncon, 3);
        assert!(rec.serial_cut > 0);
    }

    #[test]
    fn envelope_violations_are_reported_not_panicked() {
        let g = sweep_graph(WeightType::Type1, 800, 1, 2);
        let strict = Envelope {
            max_cut_ratio: 0.0001,
            min_cut_ratio: 0.0,
            min_cut_for_ratio: 0,
            max_serial_imbalance: 1.0,
            max_parallel_imbalance: 1.0,
        };
        let rec = differential_case(&g, WeightType::Type1, 8, 2, 2, &strict);
        assert!(!rec.pass());
        assert!(rec.failures.iter().any(|f| f.contains("cut ratio")));
    }
}
