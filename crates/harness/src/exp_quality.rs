//! Table 1 (graph characteristics) and Figures 3–5 (edge-cut normalised by
//! the serial multi-constraint algorithm, plus maximum balance) at
//! p = 32, 64, 128.

use crate::report::{f3, render_table};
use crate::suite::{SuiteGraph, WorkloadSpec};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_parallel::{parallel_partition_kway, ParallelConfig};

/// One row of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Graph name.
    pub graph: String,
    /// Generated vertex count.
    pub nvtxs: usize,
    /// Generated edge count.
    pub nedges: usize,
    /// The paper's vertex count (scale reference).
    pub paper_nvtxs: usize,
    /// The paper's edge count.
    pub paper_nedges: usize,
}

mcgp_runtime::impl_to_json!(Table1Row {
    graph,
    nvtxs,
    nedges,
    paper_nvtxs,
    paper_nedges
});

/// Regenerates Table 1 for the given suite.
pub fn table1(suite: &[SuiteGraph]) -> Vec<Table1Row> {
    suite
        .iter()
        .map(|s| Table1Row {
            graph: s.spec.name.to_string(),
            nvtxs: s.graph.nvtxs(),
            nedges: s.graph.nedges(),
            paper_nvtxs: s.spec.paper_nvtxs,
            paper_nedges: s.spec.paper_nedges,
        })
        .collect()
}

/// Renders Table 1 in the paper's layout.
pub fn table1_text(rows: &[Table1Row]) -> String {
    render_table(
        &[
            "Graph",
            "Num of Verts",
            "Num of Edges",
            "paper Verts",
            "paper Edges",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.graph.clone(),
                    r.nvtxs.to_string(),
                    r.nedges.to_string(),
                    r.paper_nvtxs.to_string(),
                    r.paper_nedges.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// One bar pair of Figures 3–5: a (graph, workload, p) cell averaged over
/// seeds.
#[derive(Clone, Debug)]
pub struct QualityRow {
    /// Graph name (mrng1..mrng4).
    pub graph: String,
    /// Workload label (`m cons t`).
    pub label: String,
    /// Processors (= subdomains, as in the paper).
    pub nprocs: usize,
    /// Mean serial edge-cut over seeds.
    pub serial_cut: f64,
    /// Mean parallel edge-cut over seeds.
    pub parallel_cut: f64,
    /// `parallel_cut / serial_cut` — the figure's bar height.
    pub ratio: f64,
    /// Mean maximum imbalance of the parallel partitionings (the figure's
    /// balance series).
    pub balance: f64,
    /// Mean maximum imbalance of the serial partitionings.
    pub serial_balance: f64,
    /// Mean coarsening levels, parallel (slow-coarsening statistic).
    pub levels_parallel: f64,
    /// Mean coarsening levels, serial.
    pub levels_serial: f64,
}

mcgp_runtime::impl_to_json!(QualityRow {
    graph,
    label,
    nprocs,
    serial_cut,
    parallel_cut,
    ratio,
    balance,
    serial_balance,
    levels_parallel,
    levels_serial
});

/// Runs the Figures 3–5 grid: every suite graph × the workload grid ×
/// `procs`, averaged over `seeds` (the paper used three seeds).
///
/// The serial baseline for a (graph, workload, seed) triple is shared
/// across all `p` values, as in the paper (the serial algorithm does not
/// depend on p beyond `k = p`). `progress` is invoked once per completed
/// cell.
pub fn figure_quality(
    suite: &[SuiteGraph],
    procs: &[usize],
    seeds: &[u64],
    mut progress: impl FnMut(&QualityRow),
) -> Vec<QualityRow> {
    let grid = WorkloadSpec::figure_grid();
    let mut rows = Vec::new();
    for sg in suite {
        for spec in &grid {
            // Workload per seed (the weight synthesis is seeded too).
            let workloads: Vec<_> = seeds
                .iter()
                .map(|&s| spec.synthesize(&sg.graph, s))
                .collect();
            for &p in procs {
                let mut srow = (0.0, 0.0, 0.0); // cut, balance, levels
                let mut prow = (0.0, 0.0, 0.0);
                for (wg, &seed) in workloads.iter().zip(seeds) {
                    let scfg = PartitionConfig::default().with_seed(seed);
                    let ser = partition_kway(wg, p, &scfg);
                    srow.0 += ser.quality.edge_cut as f64;
                    srow.1 += ser.quality.max_imbalance;
                    srow.2 += ser.coarsen_levels as f64;
                    let pcfg = ParallelConfig::new(p).with_seed(seed);
                    let par = parallel_partition_kway(wg, p, &pcfg);
                    prow.0 += par.quality.edge_cut as f64;
                    prow.1 += par.quality.max_imbalance;
                    prow.2 += par.coarsen_levels as f64;
                }
                let n = seeds.len() as f64;
                let row = QualityRow {
                    graph: sg.spec.name.to_string(),
                    label: spec.label(),
                    nprocs: p,
                    serial_cut: srow.0 / n,
                    parallel_cut: prow.0 / n,
                    ratio: (prow.0 / n) / (srow.0 / n).max(1.0),
                    balance: prow.1 / n,
                    serial_balance: srow.1 / n,
                    levels_parallel: prow.2 / n,
                    levels_serial: srow.2 / n,
                };
                progress(&row);
                rows.push(row);
            }
        }
    }
    rows
}

/// Renders one figure (a fixed p) in a readable bar-table form.
pub fn figure_text(rows: &[QualityRow], p: usize) -> String {
    let filtered: Vec<&QualityRow> = rows.iter().filter(|r| r.nprocs == p).collect();
    render_table(
        &[
            "graph",
            "problem",
            "cut ratio",
            "balance",
            "ser balance",
            "lvls par/ser",
        ],
        &filtered
            .iter()
            .map(|r| {
                vec![
                    r.graph.clone(),
                    r.label.clone(),
                    f3(r.ratio),
                    f3(r.balance),
                    f3(r.serial_balance),
                    format!("{:.1}/{:.1}", r.levels_parallel, r.levels_serial),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

/// Renders one figure as bar charts per graph (ratio bars with the 1.0
/// serial reference marked), visually mirroring the paper's Figures 3-5.
pub fn figure_bars(rows: &[QualityRow], p: usize) -> String {
    use crate::report::render_bars;
    let mut out = String::new();
    let mut graphs: Vec<&str> = Vec::new();
    for r in rows.iter().filter(|r| r.nprocs == p) {
        if !graphs.contains(&r.graph.as_str()) {
            graphs.push(&r.graph);
        }
    }
    for g in graphs {
        out.push_str(&format!("{g} (cut ratio vs serial; '|' marks 1.0):\n"));
        let items: Vec<(String, f64)> = rows
            .iter()
            .filter(|r| r.nprocs == p && r.graph == g)
            .map(|r| (r.label.clone(), r.ratio))
            .collect();
        out.push_str(&render_bars(&items, 1.0, 40));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{build_suite, Scale};

    fn tiny_suite() -> Vec<SuiteGraph> {
        build_suite(Scale { denominator: 256 }, 3)
    }

    #[test]
    fn table1_reflects_suite() {
        let suite = tiny_suite();
        let rows = table1(&suite);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].graph, "mrng1");
        assert!(rows[3].nvtxs > rows[0].nvtxs);
        let text = table1_text(&rows);
        assert!(text.contains("mrng4"));
    }

    #[test]
    fn quality_grid_produces_expected_cells() {
        // One small graph, one p, one seed: 8 workload cells.
        let suite = vec![tiny_suite().remove(0)];
        let mut n_progress = 0;
        let rows = figure_quality(&suite, &[8], &[1], |_| n_progress += 1);
        assert_eq!(rows.len(), 8);
        assert_eq!(n_progress, 8);
        for r in &rows {
            assert!(r.ratio > 0.2 && r.ratio < 5.0, "wild ratio {}", r.ratio);
            assert!(r.balance >= 1.0);
            assert!(r.serial_cut > 0.0);
        }
        let text = figure_text(&rows, 8);
        assert!(text.contains("2 cons 1"));
        assert!(text.contains("5 cons 2"));
        let bars = figure_bars(&rows, 8);
        assert!(bars.contains("mrng1"));
        assert!(bars.contains('#'));
    }
}
