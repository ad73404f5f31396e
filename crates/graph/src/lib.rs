//! # mcgp-graph — graph substrate for multi-constraint partitioning
//!
//! This crate provides everything the partitioners in [`mcgp-core`] and
//! [`mcgp-parallel`] consume:
//!
//! * [`Graph`]: a compressed-sparse-row undirected graph whose vertices carry
//!   a *weight vector* of `ncon` components (one per computational phase of a
//!   multi-phase simulation) and whose edges carry scalar weights.
//! * [`generators`]: deterministic synthetic finite-element-style meshes,
//!   including the `mrng`-like graphs used throughout the paper's evaluation.
//! * [`synthetic`]: the paper's Type-1 and Type-2 multi-weight workload
//!   synthesis (Section 3 of the Euro-Par 2000 text).
//! * [`io`]: METIS-format readers/writers for multi-constraint graphs.
//! * [`metrics`]: edge-cut, per-constraint load imbalance, and communication
//!   volume — the quantities every table and figure reports.
//!
//! The crate is dependency-light and fully deterministic: every randomised
//! routine takes an explicit seed and uses a stable ChaCha stream.

pub mod check;
pub mod connectivity;
pub mod csr;
pub mod generators;
pub mod geometry;
pub mod io;
pub mod metrics;
pub mod partition;
pub mod permute;
pub mod subgraph;
pub mod synthetic;

pub use check::CheckLevel;
pub use csr::{Graph, GraphBuilder, Vertex};
pub use metrics::{edge_cut, imbalances, max_imbalance, PartitionQuality};
pub use partition::Partition;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, McgpError>;

/// The typed error taxonomy shared by the whole workspace: structural
/// problems, I/O failures with line/column context, invariant violations
/// with the violated invariant's name, and index-width overflows.
///
/// The historical name [`GraphError`] remains as an alias.
#[derive(Debug)]
pub enum McgpError {
    /// The CSR arrays are structurally inconsistent (lengths, ranges).
    Malformed(String),
    /// The adjacency structure is not symmetric or contains self-loops.
    NotUndirected(String),
    /// A file could not be read, written, or parsed.
    Io(std::io::Error),
    /// A METIS-format file violated the format specification. `col` is the
    /// 1-based whitespace-token index on the line (0 when the whole line is
    /// at fault).
    Parse { line: usize, col: usize, msg: String },
    /// A pipeline-stage invariant was violated. `invariant` names the
    /// specific catalogued invariant (see DESIGN.md, "Validation &
    /// differential testing"), `detail` locates the offending entity.
    Invariant {
        invariant: &'static str,
        detail: String,
    },
    /// A quantity exceeded the representable index width (`u32` adjacency
    /// indices) or a sane structural bound.
    Overflow {
        what: &'static str,
        value: u128,
        limit: u128,
    },
}

/// Historical alias of [`McgpError`].
pub type GraphError = McgpError;

impl McgpError {
    /// Convenience constructor for a parse error without column context.
    pub(crate) fn parse(line: usize, msg: impl Into<String>) -> Self {
        McgpError::Parse {
            line,
            col: 0,
            msg: msg.into(),
        }
    }

    /// Convenience constructor for an invariant violation.
    pub fn invariant(invariant: &'static str, detail: impl Into<String>) -> Self {
        McgpError::Invariant {
            invariant,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for McgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McgpError::Malformed(msg) => write!(f, "malformed graph: {msg}"),
            McgpError::NotUndirected(msg) => write!(f, "graph is not undirected: {msg}"),
            McgpError::Io(e) => write!(f, "i/o error: {e}"),
            McgpError::Parse { line, col: 0, msg } => {
                write!(f, "parse error at line {line}: {msg}")
            }
            McgpError::Parse { line, col, msg } => {
                write!(f, "parse error at line {line}, token {col}: {msg}")
            }
            McgpError::Invariant { invariant, detail } => {
                write!(f, "invariant `{invariant}` violated: {detail}")
            }
            McgpError::Overflow { what, value, limit } => {
                write!(f, "overflow: {what} = {value} exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for McgpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            McgpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for McgpError {
    fn from(e: std::io::Error) -> Self {
        McgpError::Io(e)
    }
}
