//! Traversals and region utilities: BFS, connected components, and the
//! multi-seed BFS region growing used by the workload synthesiser.

use crate::csr::Graph;
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;

/// Breadth-first order of the component containing `start`.
pub fn bfs_order(graph: &Graph, start: usize) -> Vec<u32> {
    let mut visited = vec![false; graph.nvtxs()];
    let mut order = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    visited[start] = true;
    queue.push_back(start as u32);
    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &u in graph.neighbors(v as usize) {
            if !visited[u as usize] {
                visited[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    order
}

/// Labels connected components; returns `(labels, count)`.
pub fn connected_components(graph: &Graph) -> (Vec<u32>, usize) {
    let n = graph.nvtxs();
    let mut label = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if label[s] != u32::MAX {
            continue;
        }
        label[s] = count;
        queue.push_back(s as u32);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(v as usize) {
                if label[u as usize] == u32::MAX {
                    label[u as usize] = count;
                    queue.push_back(u);
                }
            }
        }
        count += 1;
    }
    (label, count as usize)
}

/// True when the graph is connected (the empty graph counts as connected).
pub fn is_connected(graph: &Graph) -> bool {
    graph.nvtxs() == 0 || connected_components(graph).1 == 1
}

/// Grows `nregions` contiguous regions by synchronous multi-seed BFS
/// (a BFS Voronoi diagram from randomly chosen seeds).
///
/// This stands in for the paper's "compute a 16-way (or 32-way)
/// partitioning" step of workload synthesis: what the synthesis needs is a
/// covering set of *contiguous* regions of roughly similar size, not a
/// minimum-cut partition. Unreached vertices (in disconnected graphs) are
/// assigned to region of the nearest previously-labelled vertex scanning
/// by index, or region 0 if none.
pub fn bfs_regions(graph: &Graph, nregions: usize, seed: u64) -> Vec<u32> {
    let n = graph.nvtxs();
    assert!(nregions >= 1, "nregions must be >= 1");
    let mut rng = Rng::seed_from_u64(seed);
    let mut verts: Vec<u32> = (0..n as u32).collect();
    verts.shuffle(&mut rng);
    let seeds: Vec<u32> = verts.into_iter().take(nregions.min(n)).collect();

    let mut region = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for (r, &s) in seeds.iter().enumerate() {
        region[s as usize] = r as u32;
        queue.push_back(s);
    }
    while let Some(v) = queue.pop_front() {
        let r = region[v as usize];
        for &u in graph.neighbors(v as usize) {
            if region[u as usize] == u32::MAX {
                region[u as usize] = r;
                queue.push_back(u);
            }
        }
    }
    // Disconnected leftovers: inherit from the last labelled vertex seen.
    let mut last = 0u32;
    for r in region.iter_mut().take(n) {
        if *r == u32::MAX {
            *r = last;
        } else {
            last = *r;
        }
    }
    region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators::grid_2d;

    fn path(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.edge(v, v + 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn bfs_order_visits_whole_component() {
        let g = path(5);
        let order = bfs_order(&g, 2);
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], 2);
    }

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = GraphBuilder::new(5);
        b.edge(0, 1).edge(2, 3);
        let g = b.build().unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn grid_is_connected() {
        assert!(is_connected(&grid_2d(8, 8)));
    }

    #[test]
    fn bfs_regions_cover_all_vertices_and_are_contiguous() {
        let g = grid_2d(16, 16);
        let regions = bfs_regions(&g, 8, 42);
        assert_eq!(regions.len(), 256);
        let distinct: std::collections::BTreeSet<u32> = regions.iter().copied().collect();
        assert_eq!(distinct.len(), 8);
        // Contiguity: every region's induced subgraph is connected.
        for &r in &distinct {
            let members: Vec<usize> = (0..256).filter(|&v| regions[v] == r).collect();
            let mut reached = std::collections::BTreeSet::new();
            let mut stack = vec![members[0]];
            reached.insert(members[0]);
            while let Some(v) = stack.pop() {
                for &u in g.neighbors(v) {
                    let u = u as usize;
                    if regions[u] == r && reached.insert(u) {
                        stack.push(u);
                    }
                }
            }
            assert_eq!(reached.len(), members.len(), "region {r} not contiguous");
        }
    }

    #[test]
    fn bfs_regions_deterministic_per_seed() {
        let g = grid_2d(10, 10);
        assert_eq!(bfs_regions(&g, 4, 7), bfs_regions(&g, 4, 7));
        assert_ne!(bfs_regions(&g, 4, 7), bfs_regions(&g, 4, 8));
    }

    #[test]
    fn bfs_regions_more_regions_than_vertices() {
        let g = path(3);
        let regions = bfs_regions(&g, 10, 1);
        assert_eq!(regions.len(), 3);
        assert!(regions.iter().all(|&r| r < 10));
    }
}
