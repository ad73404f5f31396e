//! Ablations A1–A3 of DESIGN.md — the claims the paper states in prose:
//!
//! * **A1** (§2): the slice-allocation refinement produces partitionings
//!   "up to 50 % worse in quality than the serial multi-constraint
//!   algorithm".
//! * **A2** (§4): "an initial partitioning that is more than 20 % imbalanced
//!   for one or more constraints is unlikely to be improved during
//!   multilevel refinement".
//! * **A3** (§4): "as the number of constraints increases further [beyond
//!   two to four], ... the quality of the produced partitionings can drop
//!   off dramatically".

use crate::report::{f3, render_table};
use crate::suite::{SuiteGraph, WorkloadSpec};
use mcgp_core::balance::{part_weights, BalanceModel};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::synthetic::ProblemType;
use mcgp_parallel::refine_par::{parallel_balance, reservation_refine};
use mcgp_parallel::{parallel_partition_kway, DistGraph, ParallelConfig, RefinerKind};
use mcgp_runtime::rng::Rng;

/// One A1 cell: slice vs reservation quality, both normalised by serial.
#[derive(Clone, Debug)]
pub struct SliceAblationRow {
    /// Graph name.
    pub graph: String,
    /// Workload label.
    pub label: String,
    /// Processors.
    pub nprocs: usize,
    /// Reservation-refined cut / serial cut.
    pub reservation_ratio: f64,
    /// Slice-refined cut / serial cut.
    pub slice_ratio: f64,
    /// Moves the slice scheme disallowed (its thin-slice pressure).
    pub slice_disallowed: usize,
}

mcgp_runtime::impl_to_json!(SliceAblationRow {
    graph,
    label,
    nprocs,
    reservation_ratio,
    slice_ratio,
    slice_disallowed
});

/// Runs the A1 grid.
pub fn slice_ablation(
    suite: &[SuiteGraph],
    procs: &[usize],
    ncons: &[usize],
    seeds: &[u64],
    mut progress: impl FnMut(&SliceAblationRow),
) -> Vec<SliceAblationRow> {
    let mut rows = Vec::new();
    for sg in suite {
        for &ncon in ncons {
            let spec = WorkloadSpec {
                ncon,
                problem: ProblemType::Type1,
            };
            for &p in procs {
                let mut acc = (0.0f64, 0.0f64, 0usize);
                for &seed in seeds {
                    let wg = spec.synthesize(&sg.graph, seed);
                    let ser = partition_kway(&wg, p, &PartitionConfig::default().with_seed(seed));
                    let res =
                        parallel_partition_kway(&wg, p, &ParallelConfig::new(p).with_seed(seed));
                    let mut scfg = ParallelConfig::new(p).with_seed(seed);
                    scfg.refiner = RefinerKind::Slice;
                    let sli = parallel_partition_kway(&wg, p, &scfg);
                    let base = ser.quality.edge_cut.max(1) as f64;
                    acc.0 += res.quality.edge_cut as f64 / base;
                    acc.1 += sli.quality.edge_cut as f64 / base;
                    acc.2 += sli.refine.disallowed;
                }
                let n = seeds.len() as f64;
                let row = SliceAblationRow {
                    graph: sg.spec.name.to_string(),
                    label: spec.label(),
                    nprocs: p,
                    reservation_ratio: acc.0 / n,
                    slice_ratio: acc.1 / n,
                    slice_disallowed: (acc.2 as f64 / n) as usize,
                };
                progress(&row);
                rows.push(row);
            }
        }
    }
    rows
}

/// Renders the A1 table.
pub fn slice_ablation_text(rows: &[SliceAblationRow]) -> String {
    render_table(
        &[
            "graph",
            "problem",
            "p",
            "reservation/serial",
            "slice/serial",
            "slice disallowed",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.graph.clone(),
                    r.label.clone(),
                    r.nprocs.to_string(),
                    f3(r.reservation_ratio),
                    f3(r.slice_ratio),
                    r.slice_disallowed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One A2 cell: injected initial imbalance vs what parallel refinement
/// recovered.
#[derive(Clone, Debug)]
pub struct ImbalanceRow {
    /// Injected initial imbalance (e.g. 1.25 = 25 % over average).
    pub injected: f64,
    /// Maximum imbalance after parallel refinement + bounded balancing.
    pub final_imbalance: f64,
    /// Edge-cut after refinement, normalised by the cut of the uncorrupted
    /// partitioning.
    pub cut_ratio: f64,
}

mcgp_runtime::impl_to_json!(ImbalanceRow {
    injected,
    final_imbalance,
    cut_ratio
});

/// A2: corrupt a good k-way partitioning to a target imbalance, then let
/// the parallel refinement machinery (reservation refinement plus the
/// boundary-only balance phase — no teleports, as during uncoarsening) try
/// to recover. The paper's claim: beyond ~20 % it rarely does.
pub fn imbalance_recovery(
    mesh: &mcgp_graph::Graph,
    nparts: usize,
    nprocs: usize,
    injections: &[f64],
    seed: u64,
) -> Vec<ImbalanceRow> {
    let spec = WorkloadSpec {
        ncon: 3,
        problem: ProblemType::Type1,
    };
    let wg = spec.synthesize(mesh, seed);
    let base = partition_kway(&wg, nparts, &PartitionConfig::default().with_seed(seed));
    let base_cut = base.quality.edge_cut.max(1) as f64;
    let dist = DistGraph::distribute(&wg, nprocs);
    let model = BalanceModel::new(&wg, nparts, 0.05);
    let ncon = wg.ncon();
    let tot = wg.total_vwgt();
    let avg0 = tot[0] as f64 / nparts as f64;

    injections
        .iter()
        .map(|&inject| {
            // Corrupt: move random vertices into part 0 until constraint 0
            // reaches (1 + inject) * avg.
            let mut part = base.partition.assignment().to_vec();
            let mut rng = Rng::seed_from_u64(seed ^ 0xC0 ^ (inject * 100.0) as u64);
            let mut pw = part_weights(&wg, &part, nparts);
            let target = (1.0 + inject) * avg0;
            let mut guard = 0;
            while (pw[0] as f64) < target && guard < wg.nvtxs() * 4 {
                let v = rng.gen_range(0..wg.nvtxs());
                guard += 1;
                if part[v] != 0 {
                    let from = part[v] as usize;
                    for i in 0..ncon {
                        pw[from * ncon + i] -= wg.vwgt(v)[i];
                        pw[i] += wg.vwgt(v)[i];
                    }
                    part[v] = 0;
                }
            }
            // Recover with the uncoarsening-style machinery.
            let mut tracker = mcgp_parallel::CostTracker::new();
            for it in 0..4 {
                parallel_balance(
                    &dist,
                    &mut part,
                    &mut pw,
                    &model,
                    2 * nparts,
                    false,
                    seed ^ it,
                    &mut tracker,
                );
                reservation_refine(
                    &dist,
                    &mut part,
                    &mut pw,
                    &model,
                    4,
                    seed ^ it,
                    &mut tracker,
                );
            }
            let final_imbalance = model.max_load(&pw);
            let cut = mcgp_graph::metrics::edge_cut_raw(&wg, &part) as f64;
            ImbalanceRow {
                injected: 1.0 + inject,
                final_imbalance,
                cut_ratio: cut / base_cut,
            }
        })
        .collect()
}

/// Renders the A2 table.
pub fn imbalance_text(rows: &[ImbalanceRow]) -> String {
    render_table(
        &["injected imbalance", "final imbalance", "cut ratio"],
        &rows
            .iter()
            .map(|r| vec![f3(r.injected), f3(r.final_imbalance), f3(r.cut_ratio)])
            .collect::<Vec<_>>(),
    )
}

/// One A3 cell: serial quality as the constraint count grows.
#[derive(Clone, Debug)]
pub struct ConstraintRow {
    /// Number of constraints.
    pub ncon: usize,
    /// Edge-cut normalised by the single-constraint cut.
    pub cut_ratio: f64,
    /// Maximum imbalance achieved.
    pub balance: f64,
}

mcgp_runtime::impl_to_json!(ConstraintRow {
    ncon,
    cut_ratio,
    balance
});

/// A3: serial multi-constraint quality for m = 1..=max_ncon (Type-1
/// weights) at fixed k.
pub fn constraint_sweep(
    mesh: &mcgp_graph::Graph,
    nparts: usize,
    max_ncon: usize,
    seed: u64,
) -> Vec<ConstraintRow> {
    let mut base_cut = None;
    (1..=max_ncon)
        .map(|ncon| {
            let wg = mcgp_graph::synthetic::type1(mesh, ncon, seed);
            let r = partition_kway(&wg, nparts, &PartitionConfig::default().with_seed(seed));
            let cut = r.quality.edge_cut.max(1) as f64;
            let base = *base_cut.get_or_insert(cut);
            ConstraintRow {
                ncon,
                cut_ratio: cut / base,
                balance: r.quality.max_imbalance,
            }
        })
        .collect()
}

/// Renders the A3 table.
pub fn constraint_text(rows: &[ConstraintRow]) -> String {
    render_table(
        &["m", "cut / cut(m=1)", "balance"],
        &rows
            .iter()
            .map(|r| vec![r.ncon.to_string(), f3(r.cut_ratio), f3(r.balance)])
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{build_suite, Scale};
    use mcgp_graph::generators::mrng_like;

    #[test]
    fn slice_ablation_shows_restriction() {
        let suite = vec![build_suite(Scale { denominator: 128 }, 1).remove(0)];
        let rows = slice_ablation(&suite, &[16], &[3], &[1], |_| {});
        assert_eq!(rows.len(), 1);
        // Slice should not be meaningfully better than reservation.
        assert!(
            rows[0].slice_ratio > 0.8 * rows[0].reservation_ratio,
            "{rows:?}"
        );
        assert!(slice_ablation_text(&rows).contains("slice/serial"));
    }

    #[test]
    fn imbalance_recovery_costs_grow_with_injection() {
        let mesh = mrng_like(3000, 5);
        let rows = imbalance_recovery(&mesh, 8, 8, &[0.0, 0.40], 3);
        assert_eq!(rows.len(), 2);
        // Recovery from a heavy injection costs strictly more cut than from
        // a balanced start (and may also leave residual imbalance).
        assert!(
            rows[1].cut_ratio > rows[0].cut_ratio,
            "recovery cost did not grow: {rows:?}"
        );
        assert!(
            rows[0].final_imbalance < 1.15,
            "balanced start drifted: {rows:?}"
        );
        assert!(imbalance_text(&rows).contains("injected"));
    }

    #[test]
    fn constraint_sweep_shows_growth() {
        let mesh = mrng_like(2000, 7);
        let rows = constraint_sweep(&mesh, 8, 4, 7);
        assert_eq!(rows.len(), 4);
        assert!((rows[0].cut_ratio - 1.0).abs() < 1e-9);
        // More constraints => cut should not shrink dramatically.
        assert!(rows[3].cut_ratio > 0.8, "{rows:?}");
        assert!(constraint_text(&rows).contains("balance"));
    }
}
