//! BSP/LogP cost accounting.
//!
//! Every parallel phase reports, per superstep, each logical processor's
//! local computation (abstract "ops": vertices touched + edges scanned) and
//! communication volume (bytes it sends/receives). The tracker folds these
//! into the standard BSP time
//!
//! ```text
//! T = Σ_steps [ max_p comp_p · t_comp  +  max_p bytes_p · t_byte  +  L ]
//! ```
//!
//! With the default constants (calibrated to a T3E-class machine: ~450 MHz
//! cores doing roughly one graph op per 8 ns, ~500 MB/s sustained link
//! bandwidth, ~10 µs message latency per superstep) the modeled times land
//! in the same range as the paper's tables; what the model *preserves* is
//! the scaling shape — efficiency decay with `p`, isoefficiency, and the
//! multi- vs single-constraint ratio — because those depend only on the
//! operation and communication counts, which are counted exactly.

/// Machine constants of the cost model.
///
/// ```
/// use mcgp_parallel::{CostModel, CostTracker};
/// let mut t = CostTracker::new();
/// t.superstep(&[1_000, 2_000], &[0, 64]); // two logical processors
/// let m = CostModel::default();
/// assert!(t.modeled_time(&m) > 0.0);
/// assert_eq!(t.supersteps(), 1);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Seconds per abstract computation op.
    pub t_comp: f64,
    /// Seconds per byte communicated (per processor, max over procs).
    pub t_byte: f64,
    /// Seconds of fixed latency per superstep (barrier + message startup).
    pub latency: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // T3E-class constants; see module docs.
        CostModel {
            t_comp: 8e-9,
            t_byte: 2e-9,
            latency: 10e-6,
        }
    }
}

/// Accumulates per-superstep maxima across a run.
#[derive(Clone, Debug, Default)]
pub struct CostTracker {
    supersteps: usize,
    comp_max_sum: f64,
    bytes_max_sum: f64,
    comp_total: u64,
    bytes_total: u64,
}

impl CostTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one superstep from per-processor op and byte counts.
    pub fn superstep(&mut self, comp_per_proc: &[u64], bytes_per_proc: &[u64]) {
        self.supersteps += 1;
        self.comp_max_sum += comp_per_proc.iter().copied().max().unwrap_or(0) as f64;
        self.bytes_max_sum += bytes_per_proc.iter().copied().max().unwrap_or(0) as f64;
        self.comp_total += comp_per_proc.iter().sum::<u64>();
        self.bytes_total += bytes_per_proc.iter().sum::<u64>();
    }

    /// Number of supersteps recorded.
    pub fn supersteps(&self) -> usize {
        self.supersteps
    }

    /// Total communication volume over all processors (bytes).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_total
    }

    /// Total computation over all processors (ops).
    pub fn total_comp(&self) -> u64 {
        self.comp_total
    }

    /// Modeled parallel time under `model`.
    pub fn modeled_time(&self, model: &CostModel) -> f64 {
        self.comp_max_sum * model.t_comp
            + self.bytes_max_sum * model.t_byte
            + self.supersteps as f64 * model.latency
    }

    /// Folds another tracker's record into this one (phases tracked
    /// separately and then merged).
    pub fn merge(&mut self, other: &CostTracker) {
        self.supersteps += other.supersteps;
        self.comp_max_sum += other.comp_max_sum;
        self.bytes_max_sum += other.bytes_max_sum;
        self.comp_total += other.comp_total;
        self.bytes_total += other.bytes_total;
    }
}

/// Final run statistics attached to a parallel partitioning result.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Logical processors used.
    pub nprocs: usize,
    /// BSP supersteps executed.
    pub supersteps: usize,
    /// Total bytes communicated across all processors.
    pub comm_bytes: u64,
    /// Total abstract computation ops across all processors.
    pub comp_ops: u64,
    /// Modeled parallel time (seconds) under the configured [`CostModel`].
    pub modeled_time_s: f64,
    /// Modeled serial time: total ops at `t_comp`, no communication — the
    /// denominator of modeled speedup/efficiency.
    pub modeled_serial_time_s: f64,
    /// Actual wall-clock of the whole simulation on the host (seconds).
    pub wall_time_s: f64,
}

mcgp_runtime::impl_to_json!(RunStats {
    nprocs,
    supersteps,
    comm_bytes,
    comp_ops,
    modeled_time_s,
    modeled_serial_time_s,
    wall_time_s
});

impl RunStats {
    /// Modeled speedup (`serial / parallel`).
    pub fn speedup(&self) -> f64 {
        if self.modeled_time_s > 0.0 {
            self.modeled_serial_time_s / self.modeled_time_s
        } else {
            0.0
        }
    }

    /// Modeled parallel efficiency (`speedup / p`).
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.nprocs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modeled_time_formula() {
        let mut t = CostTracker::new();
        t.superstep(&[100, 200], &[10, 50]);
        t.superstep(&[300, 100], &[0, 0]);
        let m = CostModel {
            t_comp: 1.0,
            t_byte: 10.0,
            latency: 1000.0,
        };
        // max comp: 200 + 300; max bytes: 50 + 0; latency: 2 steps.
        assert_eq!(t.modeled_time(&m), 500.0 + 500.0 + 2000.0);
        assert_eq!(t.supersteps(), 2);
        assert_eq!(t.total_bytes(), 60);
        assert_eq!(t.total_comp(), 700);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = CostTracker::new();
        a.superstep(&[10], &[5]);
        let mut b = CostTracker::new();
        b.superstep(&[20], &[1]);
        a.merge(&b);
        assert_eq!(a.supersteps(), 2);
        assert_eq!(a.total_comp(), 30);
        assert_eq!(a.total_bytes(), 6);
    }

    #[test]
    fn perfect_parallelism_gives_high_efficiency() {
        let stats = RunStats {
            nprocs: 4,
            supersteps: 1,
            comm_bytes: 0,
            comp_ops: 400,
            modeled_time_s: 1.0,
            modeled_serial_time_s: 4.0,
            wall_time_s: 0.0,
        };
        assert_eq!(stats.speedup(), 4.0);
        assert_eq!(stats.efficiency(), 1.0);
    }

    #[test]
    fn imbalanced_supersteps_cost_more_than_balanced() {
        let m = CostModel {
            t_comp: 1.0,
            t_byte: 0.0,
            latency: 0.0,
        };
        let mut balanced = CostTracker::new();
        balanced.superstep(&[50, 50], &[0, 0]);
        let mut skewed = CostTracker::new();
        skewed.superstep(&[90, 10], &[0, 0]);
        assert!(skewed.modeled_time(&m) > balanced.modeled_time(&m));
    }
}
