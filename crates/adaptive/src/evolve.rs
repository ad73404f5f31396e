//! Synthetic workload evolution — a plume of activity walking across the
//! mesh, the standard stress model for adaptive repartitioners (an
//! advancing shock front / moving refinement region).

use mcgp_graph::connectivity::bfs_order;
use mcgp_graph::Graph;
use mcgp_runtime::rng::Rng;
use mcgp_runtime::rng::SliceRandom;

/// An evolving 2-constraint workload over a fixed mesh: constraint 0 is
/// uniform background work; constraint 1 is a heavy plume covering
/// `plume_fraction` of the mesh whose centre walks to a neighbouring seed
/// each step.
pub struct EvolvingWorkload {
    mesh: Graph,
    /// Candidate plume centres (shuffled vertex ids).
    centres: Vec<u32>,
    plume_size: usize,
    step: usize,
}

impl EvolvingWorkload {
    /// Creates the evolution with a deterministic centre walk.
    pub fn new(mesh: Graph, plume_fraction: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&plume_fraction));
        let n = mesh.nvtxs();
        let mut rng = Rng::seed_from_u64(seed);
        let mut centres: Vec<u32> = (0..n as u32).collect();
        centres.shuffle(&mut rng);
        let plume_size = ((n as f64) * plume_fraction).round().max(1.0) as usize;
        EvolvingWorkload {
            mesh,
            centres,
            plume_size,
            step: 0,
        }
    }

    /// The underlying mesh.
    pub fn mesh(&self) -> &Graph {
        &self.mesh
    }

    /// Current step index.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Produces the workload of the current step and advances the plume.
    pub fn next_workload(&mut self) -> Graph {
        let centre = self.centres[self.step % self.centres.len()] as usize;
        self.step += 1;
        let order = bfs_order(&self.mesh, centre);
        let mut in_plume = vec![false; self.mesh.nvtxs()];
        for &v in order.iter().take(self.plume_size) {
            in_plume[v as usize] = true;
        }
        let mut vwgt = Vec::with_capacity(self.mesh.nvtxs() * 2);
        for &p in &in_plume {
            vwgt.push(1); // background
            vwgt.push(if p { 8 } else { 0 }); // plume work
        }
        self.mesh
            .clone()
            .with_vwgt(2, vwgt)
            .expect("sized by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::generators::grid_2d;

    #[test]
    fn plume_covers_requested_fraction() {
        let mut ev = EvolvingWorkload::new(grid_2d(20, 20), 0.25, 1);
        let wg = ev.next_workload();
        let plume = (0..400).filter(|&v| wg.vwgt(v)[1] > 0).count();
        assert_eq!(plume, 100);
        assert_eq!(wg.ncon(), 2);
    }

    #[test]
    fn plume_moves_between_steps() {
        let mut ev = EvolvingWorkload::new(grid_2d(16, 16), 0.2, 2);
        let a = ev.next_workload();
        let b = ev.next_workload();
        let differing = (0..256).filter(|&v| a.vwgt(v)[1] != b.vwgt(v)[1]).count();
        assert!(differing > 0, "plume did not move");
        assert_eq!(ev.step(), 2);
    }

    #[test]
    fn evolution_is_deterministic() {
        let mut e1 = EvolvingWorkload::new(grid_2d(10, 10), 0.3, 7);
        let mut e2 = EvolvingWorkload::new(grid_2d(10, 10), 0.3, 7);
        assert_eq!(e1.next_workload(), e2.next_workload());
        assert_eq!(e1.next_workload(), e2.next_workload());
    }
}
