//! A table-driven corpus of malformed METIS inputs.
//!
//! Each entry is a named, deliberately-broken graph file together with the
//! error class the reader must produce. The corpus backs both the
//! `mcgp-check` regression tests and the CLI tests that `mcgp check` exits
//! non-zero with a readable diagnostic on every one of them.

/// Which [`mcgp_graph::McgpError`] variant a corpus entry must produce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpectedError {
    /// `McgpError::Parse { .. }` with line context.
    Parse,
    /// `McgpError::Overflow { .. }`.
    Overflow,
    /// Structural rejection from CSR construction
    /// (`Malformed` or `NotUndirected`).
    Structure,
}

/// One malformed graph file: `(name, contents, expected error class)`.
pub type CorpusEntry = (&'static str, &'static str, ExpectedError);

/// The malformed-METIS corpus. Every entry must be rejected by
/// `read_metis` with the given typed error — never a panic, never a
/// silently-coerced graph.
pub const MALFORMED_GRAPHS: &[CorpusEntry] = &[
    ("empty file", "", ExpectedError::Parse),
    (
        "comments only",
        "% nothing here\n% still nothing\n",
        ExpectedError::Parse,
    ),
    ("header too short", "4\n", ExpectedError::Parse),
    ("header too long", "4 3 011 2 9\n", ExpectedError::Parse),
    ("non-numeric nvtxs", "x 3\n1 2\n", ExpectedError::Parse),
    ("non-numeric nedges", "2 y\n2\n1\n", ExpectedError::Parse),
    (
        "malformed fmt digits",
        "2 1 019\n2\n1\n",
        ExpectedError::Parse,
    ),
    ("non-numeric fmt", "2 1 ab\n2\n1\n", ExpectedError::Parse),
    (
        "vertex sizes unsupported",
        "2 1 100\n1 2\n1 1\n",
        ExpectedError::Parse,
    ),
    (
        "zero ncon",
        "2 1 011 0\n5 2 9\n7 1 9\n",
        ExpectedError::Parse,
    ),
    (
        "ncon without vwgt flag",
        "2 1 001 2\n2 9\n1 9\n",
        ExpectedError::Parse,
    ),
    ("body missing", "3 2\n", ExpectedError::Parse),
    (
        "header/body mismatch: too few vertex lines",
        "3 2\n2\n1 3\n",
        ExpectedError::Parse,
    ),
    (
        "header/body mismatch: extra vertex line",
        "2 1\n2\n1\n1\n",
        ExpectedError::Parse,
    ),
    (
        "header/body mismatch: edge count",
        "3 5\n2\n1 3\n2\n",
        ExpectedError::Parse,
    ),
    ("self-loop", "2 2\n1 2\n1 2\n", ExpectedError::Structure),
    (
        "asymmetric edge",
        "3 2\n2 3\n1 3\n\n",
        ExpectedError::Structure,
    ),
    (
        "asymmetric edge weight",
        "2 1 001\n2 5\n1 7\n",
        ExpectedError::Structure,
    ),
    (
        "duplicate edge",
        "2 2\n2 2\n1 1\n",
        ExpectedError::Structure,
    ),
    (
        "non-numeric weight",
        "2 1 010\nx 2\n7 1\n",
        ExpectedError::Parse,
    ),
    (
        "negative vertex weight",
        "2 1 010\n-5 2\n7 1\n",
        ExpectedError::Parse,
    ),
    (
        "missing vertex weight",
        "2 1 011 2\n5 2 9\n7 8 1 9\n",
        ExpectedError::Parse,
    ),
    (
        "missing edge weight",
        "2 1 001\n2\n1 4\n",
        ExpectedError::Parse,
    ),
    ("neighbor id zero", "2 1\n0\n1\n", ExpectedError::Parse),
    (
        "huge neighbor id",
        "2 1\n999999999\n1\n",
        ExpectedError::Parse,
    ),
    (
        "vertex count beyond u32",
        "4294967296 0\n",
        ExpectedError::Overflow,
    ),
    (
        "huge ncon",
        "2 1 011 9999\n5 2 9\n7 1 9\n",
        ExpectedError::Overflow,
    ),
];

/// Malformed `.part` files: `(name, contents)`. Each must be rejected by
/// `read_partition_bounded(_, 4)` with a `Parse` error naming a line.
pub const MALFORMED_PARTITIONS: &[(&str, &str)] = &[
    ("non-numeric id", "0\nx\n1\n"),
    ("negative id", "0\n-1\n"),
    ("float id", "0\n1.5\n"),
    ("out of range id", "0\n3\n4\n"),
    ("huge id", "0\n99999999999999999999\n"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_graph::io::{read_metis, read_partition_bounded};
    use mcgp_graph::McgpError;

    #[test]
    fn every_graph_entry_is_rejected_with_its_typed_error() {
        for &(name, text, expected) in MALFORMED_GRAPHS {
            let err = read_metis(text.as_bytes())
                .err()
                .unwrap_or_else(|| panic!("corpus `{name}` was accepted"));
            let ok = match expected {
                ExpectedError::Parse => matches!(err, McgpError::Parse { .. }),
                ExpectedError::Overflow => matches!(err, McgpError::Overflow { .. }),
                ExpectedError::Structure => {
                    matches!(err, McgpError::Malformed(_) | McgpError::NotUndirected(_))
                }
            };
            assert!(ok, "corpus `{name}`: expected {expected:?}, got {err:?}");
            // Every diagnostic renders to something readable.
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn every_partition_entry_is_rejected_with_line_context() {
        for &(name, text) in MALFORMED_PARTITIONS {
            match read_partition_bounded(text.as_bytes(), 4) {
                Err(McgpError::Parse { line, .. }) => {
                    assert!(line > 0, "corpus `{name}`: missing line context")
                }
                other => panic!("corpus `{name}`: expected parse error, got {other:?}"),
            }
        }
    }
}
