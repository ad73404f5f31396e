//! Partition quality metrics: edge-cut, per-constraint load imbalance, and
//! communication volume.
//!
//! These are the quantities every table and figure of the paper reports.
//! *Imbalance* follows the paper's definition exactly: the maximum subdomain
//! weight divided by the average subdomain weight, per constraint (so a
//! perfectly balanced constraint scores 1.0 and the paper's 5 % tolerance
//! corresponds to 1.05).

use crate::csr::Graph;
use crate::partition::Partition;

/// Total weight of edges crossing subdomain boundaries (each undirected edge
/// counted once).
///
/// ```
/// use mcgp_graph::{generators::grid_2d, metrics::edge_cut, Partition};
/// let g = grid_2d(4, 4);
/// let halves = Partition::new(2, (0..16).map(|v| (v / 8) as u32).collect()).unwrap();
/// assert_eq!(edge_cut(&g, &halves), 4); // one row of cut edges
/// ```
pub fn edge_cut(graph: &Graph, part: &Partition) -> i64 {
    assert_eq!(graph.nvtxs(), part.len(), "partition/graph size mismatch");
    let mut cut = 0i64;
    for v in 0..graph.nvtxs() {
        let pv = part.part(v);
        for (u, w) in graph.edges(v) {
            if part.part(u as usize) != pv {
                cut += w;
            }
        }
    }
    cut / 2
}

/// Edge-cut computed from a raw assignment slice (internal hot-path variant).
pub fn edge_cut_raw(graph: &Graph, assignment: &[u32]) -> i64 {
    let mut cut = 0i64;
    for v in 0..graph.nvtxs() {
        let pv = assignment[v];
        for (u, w) in graph.edges(v) {
            if assignment[u as usize] != pv {
                cut += w;
            }
        }
    }
    cut / 2
}

/// Per-constraint load imbalance: `max_j w_i(V_j) / avg_j w_i(V_j)` for each
/// constraint `i`.
///
/// A constraint whose total weight is zero is reported as perfectly balanced
/// (1.0) — it cannot be violated.
pub fn imbalances(graph: &Graph, part: &Partition) -> Vec<f64> {
    imbalances_from_weights(
        &part.part_weights(graph),
        &graph.total_vwgt(),
        part.nparts(),
    )
}

/// [`imbalances`] from a flattened `nparts × ncon` part-weight matrix and
/// the per-constraint totals, for callers that keep both current.
pub fn imbalances_from_weights(pw: &[i64], tot: &[i64], nparts: usize) -> Vec<f64> {
    let ncon = tot.len();
    debug_assert_eq!(pw.len(), nparts * ncon);
    let k = nparts as f64;
    (0..ncon)
        .map(|i| {
            if tot[i] == 0 {
                return 1.0;
            }
            let avg = tot[i] as f64 / k;
            let max = (0..nparts).map(|j| pw[j * ncon + i]).max().unwrap_or(0);
            max as f64 / avg
        })
        .collect()
}

/// The worst imbalance over all constraints (the "Balance" series of
/// Figures 3–5).
pub fn max_imbalance(graph: &Graph, part: &Partition) -> f64 {
    imbalances(graph, part).into_iter().fold(1.0, f64::max)
}

/// Total communication volume: for each vertex, the number of *distinct*
/// foreign subdomains among its neighbours, summed over all vertices.
pub fn comm_volume(graph: &Graph, part: &Partition) -> usize {
    let mut vol = 0usize;
    let mut seen: Vec<u32> = Vec::new();
    for v in 0..graph.nvtxs() {
        let pv = part.part(v) as u32;
        seen.clear();
        for &u in graph.neighbors(v) {
            let pu = part.assignment()[u as usize];
            if pu != pv && !seen.contains(&pu) {
                seen.push(pu);
            }
        }
        vol += seen.len();
    }
    vol
}

/// Number of boundary vertices (vertices with at least one foreign neighbour).
pub fn boundary_count(graph: &Graph, part: &Partition) -> usize {
    (0..graph.nvtxs())
        .filter(|&v| {
            let pv = part.part(v);
            graph
                .neighbors(v)
                .iter()
                .any(|&u| part.part(u as usize) != pv)
        })
        .count()
}

/// A bundled quality report for one partitioning run.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionQuality {
    /// Total weight of cut edges.
    pub edge_cut: i64,
    /// Per-constraint imbalance (`>= 1.0`).
    pub imbalances: Vec<f64>,
    /// Worst imbalance over constraints.
    pub max_imbalance: f64,
    /// Total communication volume.
    pub comm_volume: usize,
    /// Number of boundary vertices.
    pub boundary: usize,
}

mcgp_runtime::impl_to_json!(PartitionQuality {
    edge_cut,
    imbalances,
    max_imbalance,
    comm_volume,
    boundary
});

impl PartitionQuality {
    /// A report from its counted parts; the worst imbalance is derived.
    pub fn new(edge_cut: i64, imbalances: Vec<f64>, comm_volume: usize, boundary: usize) -> Self {
        let max_imbalance = imbalances.iter().copied().fold(1.0, f64::max);
        PartitionQuality {
            edge_cut,
            imbalances,
            max_imbalance,
            comm_volume,
            boundary,
        }
    }

    /// Computes the full report. Cut, communication volume and boundary
    /// count come from one adjacency pass and equal [`edge_cut`],
    /// [`comm_volume`] and [`boundary_count`]: a per-part stamp holding
    /// the last vertex that saw the part counts each foreign part once
    /// per vertex.
    pub fn measure(graph: &Graph, part: &Partition) -> Self {
        assert_eq!(graph.nvtxs(), part.len(), "partition/graph size mismatch");
        let (xadj, adjncy, adjwgt) = (graph.xadj(), graph.adjncy(), graph.adjwgt());
        let assignment = part.assignment();
        let mut stamp = vec![usize::MAX; part.nparts()];
        let (mut cut, mut comm_volume, mut boundary) = (0i64, 0usize, 0usize);
        for (v, &pv) in assignment.iter().enumerate() {
            let mut foreign = 0usize;
            let (lo, hi) = (xadj[v], xadj[v + 1]);
            for (&u, &w) in adjncy[lo..hi].iter().zip(&adjwgt[lo..hi]) {
                let pu = assignment[u as usize];
                if pu != pv {
                    cut += w;
                    let seen = &mut stamp[pu as usize];
                    if *seen != v {
                        *seen = v;
                        foreign += 1;
                    }
                }
            }
            comm_volume += foreign;
            boundary += usize::from(foreign > 0);
        }
        PartitionQuality::new(cut / 2, imbalances(graph, part), comm_volume, boundary)
    }

    /// True when every constraint is within `(1 + tol)` of perfect balance.
    pub fn is_balanced(&self, tol: f64) -> bool {
        self.max_imbalance <= 1.0 + tol + 1e-9
    }
}

/// Per-subdomain detail: weights, boundary size, and neighbouring
/// subdomains — what a simulation operator inspects when a partition
/// underperforms.
#[derive(Clone, Debug, PartialEq)]
pub struct SubdomainReport {
    /// Subdomain id.
    pub part: usize,
    /// Vertices assigned.
    pub vertices: usize,
    /// Weight per constraint.
    pub weights: Vec<i64>,
    /// Boundary vertices (having a foreign neighbour).
    pub boundary: usize,
    /// Distinct adjacent subdomains (the processor's communication degree).
    pub neighbors: usize,
    /// Total weight of edges leaving this subdomain.
    pub cut_edges: i64,
}

mcgp_runtime::impl_to_json!(SubdomainReport {
    part,
    vertices,
    weights,
    boundary,
    neighbors,
    cut_edges
});

/// Computes the per-subdomain breakdown of a partition.
pub fn subdomain_reports(graph: &Graph, part: &Partition) -> Vec<SubdomainReport> {
    let k = part.nparts();
    let ncon = graph.ncon();
    let pw = part.part_weights(graph);
    let mut vertices = vec![0usize; k];
    let mut boundary = vec![0usize; k];
    let mut cut = vec![0i64; k];
    let mut nbr_sets: Vec<std::collections::BTreeSet<usize>> =
        vec![std::collections::BTreeSet::new(); k];
    for v in 0..graph.nvtxs() {
        let pv = part.part(v);
        vertices[pv] += 1;
        let mut is_boundary = false;
        for (u, w) in graph.edges(v) {
            let pu = part.part(u as usize);
            if pu != pv {
                is_boundary = true;
                cut[pv] += w;
                nbr_sets[pv].insert(pu);
            }
        }
        if is_boundary {
            boundary[pv] += 1;
        }
    }
    (0..k)
        .map(|p| SubdomainReport {
            part: p,
            vertices: vertices[p],
            weights: pw[p * ncon..(p + 1) * ncon].to_vec(),
            boundary: boundary[p],
            neighbors: nbr_sets[p].len(),
            cut_edges: cut[p],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::partition::Partition;

    /// 4-cycle with one heavy edge.
    fn square() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.weighted_edge(0, 1, 1)
            .weighted_edge(1, 2, 5)
            .weighted_edge(2, 3, 1)
            .weighted_edge(3, 0, 5);
        b.build().unwrap()
    }

    #[test]
    fn edge_cut_counts_crossing_weight_once() {
        let g = square();
        // {0,1} vs {2,3} cuts edges (1,2)=5 and (3,0)=5.
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        assert_eq!(edge_cut(&g, &p), 10);
        // {0,3} vs {1,2} cuts edges (0,1)=1 and (2,3)=1.
        let q = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        assert_eq!(edge_cut(&g, &q), 2);
    }

    #[test]
    fn edge_cut_zero_for_single_part() {
        let g = square();
        let p = Partition::new(1, vec![0, 0, 0, 0]).unwrap();
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn imbalance_perfectly_balanced_is_one() {
        let g = square();
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        assert_eq!(imbalances(&g, &p), vec![1.0]);
    }

    #[test]
    fn imbalance_detects_skew() {
        let g = square();
        let p = Partition::new(2, vec![0, 0, 0, 1]).unwrap();
        // Weights are unit: parts are 3 and 1, avg 2, max 3 -> 1.5.
        assert_eq!(imbalances(&g, &p), vec![1.5]);
        assert_eq!(max_imbalance(&g, &p), 1.5);
    }

    #[test]
    fn multi_constraint_imbalance_is_per_constraint() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        // Constraint 0 balanced by {0,1}|{2,3}; constraint 1 skewed.
        b.vwgt(2, vec![1, 3, 1, 0, 1, 0, 1, 3]);
        let g = b.build().unwrap();
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        let imb = imbalances(&g, &p);
        assert_eq!(imb[0], 1.0);
        assert!(
            (imb[1] - 1.0).abs() < 1e-12,
            "constraint 1: 3 vs 3 balanced"
        );
        let q = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        let imb = imbalances(&g, &q);
        assert_eq!(imb[0], 1.0);
        assert_eq!(imb[1], 2.0); // parts: {0,3} -> 6, {1,2} -> 0, avg 3.
    }

    #[test]
    fn zero_total_constraint_reports_balanced() {
        let mut b = GraphBuilder::new(2);
        b.edge(0, 1).vwgt(2, vec![1, 0, 1, 0]);
        let g = b.build().unwrap();
        let p = Partition::new(2, vec![0, 1]).unwrap();
        assert_eq!(imbalances(&g, &p)[1], 1.0);
    }

    #[test]
    fn comm_volume_counts_distinct_foreign_parts() {
        // Star: center 0 joined to 1,2,3 each in its own part.
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(0, 2).edge(0, 3);
        let g = b.build().unwrap();
        let p = Partition::new(4, vec![0, 1, 2, 3]).unwrap();
        // Center sees 3 foreign parts; each leaf sees 1.
        assert_eq!(comm_volume(&g, &p), 6);
    }

    #[test]
    fn boundary_count_square() {
        let g = square();
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        assert_eq!(boundary_count(&g, &p), 4);
        let whole = Partition::new(1, vec![0, 0, 0, 0]).unwrap();
        assert_eq!(boundary_count(&g, &whole), 0);
    }

    #[test]
    fn subdomain_reports_cover_the_partition() {
        let g = square();
        let p = Partition::new(2, vec![0, 0, 1, 1]).unwrap();
        let reports = subdomain_reports(&g, &p);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].vertices + reports[1].vertices, 4);
        // Each side's outgoing cut weight equals the global cut (both
        // directions see the same crossing edges).
        assert_eq!(reports[0].cut_edges, edge_cut(&g, &p));
        assert_eq!(reports[1].cut_edges, edge_cut(&g, &p));
        assert_eq!(reports[0].neighbors, 1);
        assert_eq!(reports[0].boundary, 2);
    }

    #[test]
    fn subdomain_reports_weights_match_part_weights() {
        let mut b = GraphBuilder::new(4);
        b.edge(0, 1).edge(1, 2).edge(2, 3);
        b.vwgt(2, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let g = b.build().unwrap();
        let p = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        let reports = subdomain_reports(&g, &p);
        assert_eq!(reports[0].weights, vec![1 + 7, 2 + 8]);
        assert_eq!(reports[1].weights, vec![3 + 5, 4 + 6]);
    }

    #[test]
    fn measure_equals_the_standalone_metrics_on_random_graphs() {
        use mcgp_runtime::rng::Rng;
        for seed in 0..40u64 {
            let mut rng = Rng::seed_from_u64(seed);
            let n = rng.gen_range(1..60usize);
            // The last quarter of the vertices stays isolated; about one
            // edge in four weighs zero.
            let linked = (n - n / 4).max(1);
            let mut b = GraphBuilder::new(n);
            for _ in 0..rng.gen_range(0..4 * n) {
                let (u, v) = (rng.gen_range(0..linked), rng.gen_range(0..linked));
                let w = if rng.gen_bool(0.25) {
                    0
                } else {
                    rng.gen_range(1..9i64)
                };
                b.weighted_edge(u, v, w);
            }
            let g = b.build().unwrap();
            for k in [1, 2.min(n), rng.gen_range(1..n + 1), n] {
                let assignment = (0..n).map(|_| rng.gen_range(0..k as u32)).collect();
                let p = Partition::new(k, assignment).unwrap();
                let q = PartitionQuality::measure(&g, &p);
                let want = (
                    edge_cut(&g, &p),
                    comm_volume(&g, &p),
                    boundary_count(&g, &p),
                );
                assert_eq!(
                    (q.edge_cut, q.comm_volume, q.boundary),
                    want,
                    "seed {seed} k {k}"
                );
                assert_eq!(q.imbalances, imbalances(&g, &p));
            }
        }
    }

    #[test]
    fn quality_report_is_consistent() {
        let g = square();
        let p = Partition::new(2, vec![0, 1, 1, 0]).unwrap();
        let q = PartitionQuality::measure(&g, &p);
        assert_eq!(q.edge_cut, 2);
        assert_eq!(q.max_imbalance, 1.0);
        assert!(q.is_balanced(0.05));
        assert_eq!(q.boundary, 4);
    }
}
