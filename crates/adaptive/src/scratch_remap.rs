//! Scratch-remap repartitioning: compute a fresh partition of the evolved
//! workload (the best cut the static partitioner can deliver), then
//! *relabel* its subdomains to maximise overlap with the old assignment —
//! the relabelling changes no cut edge and no balance, only which
//! processor each subdomain lands on, so it is pure migration savings.

use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::{Graph, Partition};

/// Computes the fresh partition and remaps its labels onto `old`'s.
pub fn scratch_remap(
    graph: &Graph,
    old: &Partition,
    nparts: usize,
    config: &PartitionConfig,
) -> Partition {
    let fresh = partition_kway(graph, nparts, config).partition;
    let mapping = overlap_mapping(graph, old, &fresh);
    let remapped: Vec<u32> = fresh
        .assignment()
        .iter()
        .map(|&p| mapping[p as usize])
        .collect();
    Partition::new(nparts, remapped).expect("remapping preserves validity")
}

/// Greedy maximum-overlap label assignment: repeatedly match the
/// (new-label, old-label) pair with the largest shared vertex weight until
/// every new label has an old label (leftovers take the remaining labels).
///
/// Greedy is within a factor of 2 of the optimal assignment and is the
/// standard choice in remapping literature; `k` is small, so the dense
/// overlap matrix is cheap.
pub fn overlap_mapping(graph: &Graph, old: &Partition, fresh: &Partition) -> Vec<u32> {
    let k = old.nparts();
    assert_eq!(k, fresh.nparts());
    // overlap[new * k + old] = total (first-constraint) weight shared.
    let mut overlap = vec![0i64; k * k];
    for v in 0..graph.nvtxs() {
        let w = graph.vwgt(v)[0].max(1);
        overlap[fresh.part(v) * k + old.part(v)] += w;
    }
    let mut entries: Vec<(i64, usize, usize)> = Vec::with_capacity(k * k);
    for new in 0..k {
        for oldl in 0..k {
            let w = overlap[new * k + oldl];
            if w > 0 {
                entries.push((w, new, oldl));
            }
        }
    }
    entries.sort_unstable_by(|a, b| b.cmp(a));
    const UNSET: u32 = u32::MAX;
    let mut mapping = vec![UNSET; k];
    let mut taken = vec![false; k];
    for (_, new, oldl) in entries {
        if mapping[new] == UNSET && !taken[oldl] {
            mapping[new] = oldl as u32;
            taken[oldl] = true;
        }
    }
    // Leftover labels (zero overlap) take whatever remains.
    let mut free: Vec<u32> = (0..k as u32).filter(|&l| !taken[l as usize]).collect();
    for m in mapping.iter_mut() {
        if *m == UNSET {
            *m = free.pop().expect("label counts match");
        }
    }
    mapping
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::grid_2d;
    use mcgp_graph::metrics::edge_cut;

    #[test]
    fn mapping_is_a_permutation() {
        let g = grid_2d(12, 12);
        let old = Partition::new(4, (0..144).map(|v| (v % 4) as u32).collect()).unwrap();
        let fresh = Partition::new(4, (0..144).map(|v| ((v + 1) % 4) as u32).collect()).unwrap();
        let m = overlap_mapping(&g, &old, &fresh);
        let mut sorted = m.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
    }

    #[test]
    fn remap_recovers_pure_relabelling() {
        // fresh = old with labels rotated: the remap must undo the rotation
        // exactly, reducing migration to zero.
        let g = grid_2d(10, 10);
        let old = Partition::new(4, (0..100).map(|v| ((v / 25) % 4) as u32).collect()).unwrap();
        let rotated: Vec<u32> = old.assignment().iter().map(|&p| (p + 1) % 4).collect();
        let fresh = Partition::new(4, rotated).unwrap();
        let m = overlap_mapping(&g, &old, &fresh);
        let remapped: Vec<u32> = fresh.assignment().iter().map(|&p| m[p as usize]).collect();
        assert_eq!(remapped, old.assignment());
    }

    #[test]
    fn remapping_preserves_cut() {
        let g = grid_2d(16, 16);
        let cfg = PartitionConfig::default();
        let old = partition_kway(&g, 4, &cfg).partition;
        let fresh = partition_kway(&g, 4, &cfg.with_seed(99)).partition;
        let before = edge_cut(&g, &fresh);
        let m = overlap_mapping(&g, &old, &fresh);
        let remapped = Partition::new(
            4,
            fresh.assignment().iter().map(|&p| m[p as usize]).collect(),
        )
        .unwrap();
        assert_eq!(edge_cut(&g, &remapped), before);
    }

    #[test]
    fn remap_never_increases_migration() {
        let g = grid_2d(16, 16);
        let cfg = PartitionConfig::default();
        let old = partition_kway(&g, 8, &cfg).partition;
        let fresh = partition_kway(&g, 8, &cfg.with_seed(7)).partition;
        let raw_moved = (0..g.nvtxs())
            .filter(|&v| old.part(v) != fresh.part(v))
            .count();
        let m = overlap_mapping(&g, &old, &fresh);
        let remapped: Vec<u32> = fresh.assignment().iter().map(|&p| m[p as usize]).collect();
        let remap_moved = (0..g.nvtxs())
            .filter(|&v| old.part(v) as u32 != remapped[v])
            .count();
        assert!(
            remap_moved <= raw_moved,
            "remap {remap_moved} vs raw {raw_moved}"
        );
    }
}
