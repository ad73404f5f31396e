//! # mcgp — multilevel multi-constraint graph partitioning
//!
//! Umbrella crate re-exporting the whole workspace behind one dependency:
//!
//! * [`graph`] — CSR graphs, synthetic FE meshes, multi-weight workloads,
//!   METIS I/O, quality metrics ([`mcgp_graph`]).
//! * [`core`] — the serial multilevel multi-constraint partitioner of
//!   Karypis & Kumar, SC 1998 ([`mcgp_core`]).
//! * [`parallel`] — the parallel formulation of Schloegel, Karypis & Kumar,
//!   Euro-Par 2000, on a BSP logical-processor substrate ([`mcgp_parallel`]).
//! * [`harness`] — experiment drivers regenerating every table and figure of
//!   the paper ([`mcgp_harness`]).
//! * [`runtime`] — the hermetic zero-dependency substrate everything above
//!   runs on: deterministic RNG, scoped thread pool, JSON, phase timers
//!   ([`mcgp_runtime`]).
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory.

pub use mcgp_adaptive as adaptive;
pub use mcgp_core as core;
pub use mcgp_graph as graph;
pub use mcgp_harness as harness;
pub use mcgp_parallel as parallel;
pub use mcgp_runtime as runtime;
