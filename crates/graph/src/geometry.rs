//! Geometric partitioning: recursive coordinate bisection (RCB).
//!
//! The classic pre-multilevel baseline — split the point set at the median
//! of its widest axis, recurse. It needs coordinates (which graph
//! partitioners don't), produces box-shaped subdomains, and ignores the
//! edge structure entirely, so its cut is typically well above a multilevel
//! partitioner's. It is kept here as the historical baseline the multilevel
//! method displaced, and as a fast initial-guess generator.

use crate::csr::Graph;
use crate::partition::Partition;

/// Recursive coordinate bisection of `coords` into `nparts` parts (counts
/// balanced; non-powers of two handled with proportional splits).
pub fn rcb(coords: &[[f32; 3]], nparts: usize) -> Partition {
    assert!(nparts >= 1, "nparts must be >= 1");
    assert!(coords.len() >= nparts, "more parts than points");
    let mut assignment = vec![0u32; coords.len()];
    let mut ids: Vec<u32> = (0..coords.len() as u32).collect();
    recurse(coords, &mut ids, nparts, 0, &mut assignment);
    Partition::new(nparts, assignment).expect("rcb assignment is valid by construction")
}

fn recurse(coords: &[[f32; 3]], ids: &mut [u32], nparts: usize, base: u32, out: &mut [u32]) {
    if nparts <= 1 {
        for &v in ids.iter() {
            out[v as usize] = base;
        }
        return;
    }
    // Widest axis of this point set.
    let mut lo = [f32::INFINITY; 3];
    let mut hi = [f32::NEG_INFINITY; 3];
    for &v in ids.iter() {
        let c = coords[v as usize];
        for a in 0..3 {
            lo[a] = lo[a].min(c[a]);
            hi[a] = hi[a].max(c[a]);
        }
    }
    let axis = (0..3)
        .max_by(|&a, &b| {
            (hi[a] - lo[a])
                .partial_cmp(&(hi[b] - lo[b]))
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap();

    // Proportional split point for non-power-of-two part counts.
    let left_parts = nparts.div_ceil(2);
    let split = ids.len() * left_parts / nparts;
    ids.select_nth_unstable_by(split.min(ids.len() - 1), |&a, &b| {
        coords[a as usize][axis]
            .partial_cmp(&coords[b as usize][axis])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let (left, right) = ids.split_at_mut(split);
    recurse(coords, left, left_parts, base, out);
    recurse(
        coords,
        right,
        nparts - left_parts,
        base + left_parts as u32,
        out,
    );
}

/// Convenience: RCB evaluated against a graph's edge structure (the graph
/// supplies the cut; the coordinates supply the split).
pub fn rcb_quality(graph: &Graph, coords: &[[f32; 3]], nparts: usize) -> crate::PartitionQuality {
    assert_eq!(graph.nvtxs(), coords.len(), "graph/coords size mismatch");
    let part = rcb(coords, nparts);
    crate::PartitionQuality::measure(graph, &part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::mrng_like_with_coords;

    fn grid_coords(nx: usize, ny: usize) -> Vec<[f32; 3]> {
        let mut c = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                c.push([x as f32, y as f32, 0.0]);
            }
        }
        c
    }

    #[test]
    fn splits_grid_into_equal_boxes() {
        let coords = grid_coords(8, 8);
        let p = rcb(&coords, 4);
        let sizes = p.part_sizes();
        assert_eq!(sizes, vec![16, 16, 16, 16]);
    }

    #[test]
    fn rcb_parts_are_spatially_coherent() {
        // 17 x 8: the x axis is strictly widest, so the first split is on x.
        let coords = grid_coords(17, 8);
        let p = rcb(&coords, 2);
        let n = coords.len();
        let max_x0 = (0..n)
            .filter(|&v| p.part(v) == 0)
            .map(|v| coords[v][0] as i32)
            .max()
            .unwrap();
        let min_x1 = (0..n)
            .filter(|&v| p.part(v) == 1)
            .map(|v| coords[v][0] as i32)
            .min()
            .unwrap();
        assert!(max_x0 <= min_x1, "boxes overlap: {max_x0} vs {min_x1}");
    }

    #[test]
    fn non_power_of_two_counts_balance() {
        let coords = grid_coords(10, 9);
        let p = rcb(&coords, 3);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 90);
        for &s in &sizes {
            assert!((28..=32).contains(&s), "sizes {sizes:?}");
        }
    }

    #[test]
    fn rcb_cut_on_mesh_is_finite_and_balanced() {
        let (g, coords) = mrng_like_with_coords(2_000, 1);
        let q = rcb_quality(&g, &coords, 8);
        assert!(q.edge_cut > 0);
        assert!(
            q.max_imbalance < 1.05,
            "counts split is near-perfect: {}",
            q.max_imbalance
        );
    }
}
