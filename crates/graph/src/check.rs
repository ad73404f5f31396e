//! Pipeline-wide invariant validation — the substrate of the `mcgp-check`
//! correctness subsystem.
//!
//! The SC'98 algorithm's quality claims rest on structural invariants that
//! every stage must preserve: symmetric CSR with no self-loops, weight
//! vectors conserved under contraction, and k-way assignments that are
//! in-range, cover every subdomain, and respect the per-constraint
//! tolerance. This module names each invariant and checks it on demand; the
//! serial and parallel drivers call these at every pipeline seam (post-read,
//! post-coarsen per level, post-initial, post-refine, post-project) behind a
//! [`CheckLevel`] knob.
//!
//! Every violation is a typed [`McgpError::Invariant`] carrying the
//! catalogued invariant name (see DESIGN.md, "Validation & differential
//! testing") — never a bare panic — so the `mcgp check` CLI and the
//! differential harness can report precisely what broke.

use crate::csr::Graph;
use crate::{McgpError, Result};

/// How much validation to run at each pipeline seam.
///
/// `Cheap` covers the `O(|V| + |E|)` invariants that need no sorted
/// adjacency; `Full` adds adjacency symmetry with matching reverse weights
/// and duplicate-edge detection. Levels are ordered, so `level >= Cheap`
/// tests "any checking at all".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum CheckLevel {
    /// No validation (production hot path).
    #[default]
    Off,
    /// Linear-time checks: lengths, ranges, signs, conservation, coverage.
    Cheap,
    /// Everything, including the symmetry check (linear, plus sorting any
    /// unsorted adjacency lists).
    Full,
}

impl CheckLevel {
    /// Parses `off | cheap | full` (or `0 | 1 | 2`).
    pub fn parse(s: &str) -> Option<CheckLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" => Some(CheckLevel::Off),
            "cheap" | "1" => Some(CheckLevel::Cheap),
            "full" | "2" => Some(CheckLevel::Full),
            _ => None,
        }
    }

    /// The level requested via the `MCGP_CHECK` environment variable, if set
    /// and well-formed.
    pub fn from_env() -> Option<CheckLevel> {
        std::env::var("MCGP_CHECK")
            .ok()
            .and_then(|v| Self::parse(&v))
    }

    /// The default for partitioner configs: `MCGP_CHECK` when set, otherwise
    /// `Cheap` in builds with debug assertions (tests, `--profile checked`)
    /// and `Off` in plain release builds.
    pub fn for_build() -> CheckLevel {
        Self::from_env().unwrap_or(if cfg!(debug_assertions) {
            CheckLevel::Cheap
        } else {
            CheckLevel::Off
        })
    }

    /// True when any checking is enabled.
    #[inline]
    pub fn enabled(self) -> bool {
        self >= CheckLevel::Cheap
    }
}

/// Validates the structural invariants of a graph at the given level:
/// `Cheap` runs the linear scan ([`Graph::validate_cheap`]), `Full` adds
/// symmetry and duplicate-edge detection ([`Graph::validate`]).
pub fn check_graph(graph: &Graph, level: CheckLevel) -> Result<()> {
    let inner = match level {
        CheckLevel::Off => return Ok(()),
        CheckLevel::Cheap => graph.validate_cheap(),
        CheckLevel::Full => graph.validate(),
    };
    inner.map_err(|e| McgpError::invariant("graph/csr", e.to_string()))
}

/// Validates that `assignment` is a well-formed k-way assignment for
/// `graph`: one entry per vertex, every entry `< nparts`.
pub fn check_assignment(graph: &Graph, assignment: &[u32], nparts: usize) -> Result<()> {
    check_assignment_of(graph.nvtxs(), assignment, nparts)
}

/// [`check_assignment`] against a vertex count, for graphs held in another
/// form (a distributed graph).
pub fn check_assignment_of(nvtxs: usize, assignment: &[u32], nparts: usize) -> Result<()> {
    if assignment.len() != nvtxs {
        return Err(McgpError::invariant(
            "partition/length",
            format!(
                "assignment has {} entries for a graph of {nvtxs} vertices",
                assignment.len(),
            ),
        ));
    }
    if let Some((v, &p)) = assignment
        .iter()
        .enumerate()
        .find(|(_, &p)| p as usize >= nparts)
    {
        return Err(McgpError::invariant(
            "partition/range",
            format!("vertex {v} assigned to part {p} >= nparts {nparts}"),
        ));
    }
    Ok(())
}

/// Validates that every subdomain received at least one vertex.
pub fn check_no_empty_parts(assignment: &[u32], nparts: usize) -> Result<()> {
    let mut seen = vec![false; nparts];
    for &p in assignment {
        if let Some(s) = seen.get_mut(p as usize) {
            *s = true;
        }
    }
    if let Some(p) = seen.iter().position(|&s| !s) {
        return Err(McgpError::invariant(
            "partition/nonempty",
            format!("subdomain {p} of {nparts} received no vertices"),
        ));
    }
    Ok(())
}

/// Validates every constraint's load against the balance cap the refinement
/// phase enforces: part weight `<= max((1+tol)·avg, avg + maxvwgt)` per
/// constraint (the second term is the granularity slack that a graph's
/// heaviest vertex makes unavoidable; it vanishes on fine graphs).
pub fn check_balance(graph: &Graph, assignment: &[u32], nparts: usize, tol: f64) -> Result<()> {
    check_assignment(graph, assignment, nparts)?;
    let ncon = graph.ncon();
    let tot = graph.total_vwgt();
    let mut maxvw = vec![0i64; ncon];
    let mut pw = vec![0i64; nparts * ncon];
    for (v, &p) in assignment.iter().enumerate() {
        let row = &mut pw[p as usize * ncon..(p as usize + 1) * ncon];
        for (i, &w) in graph.vwgt(v).iter().enumerate() {
            row[i] += w;
            maxvw[i] = maxvw[i].max(w);
        }
    }
    for i in 0..ncon {
        if tot[i] == 0 {
            continue;
        }
        let avg = tot[i] as f64 / nparts as f64;
        let limit = ((1.0 + tol) * avg).max(avg + maxvw[i] as f64).ceil() as i64;
        let limit = limit.min(tot[i]);
        for p in 0..nparts {
            let w = pw[p * ncon + i];
            if w > limit {
                return Err(McgpError::invariant(
                    "partition/balance",
                    format!(
                        "constraint {i}: part {p} weight {w} exceeds cap {limit} \
                         (avg {avg:.1}, tol {tol}, max vertex weight {})",
                        maxvw[i]
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Validates the contraction invariants between a fine graph and the coarse
/// graph built from it: same constraint count, per-constraint total vertex
/// weight exactly conserved, vertex count non-increasing, and total edge
/// weight non-increasing (contraction only drops or merges edges).
pub fn check_conserved_weights(fine: &Graph, coarse: &Graph) -> Result<()> {
    check_conserved_totals(&fine.total_vwgt(), &coarse.total_vwgt())?;
    if coarse.nvtxs() > fine.nvtxs() {
        return Err(McgpError::invariant(
            "coarsen/shrinks",
            format!(
                "coarse graph has {} vertices, fine has {}",
                coarse.nvtxs(),
                fine.nvtxs()
            ),
        ));
    }
    if coarse.total_adjwgt() > fine.total_adjwgt() {
        return Err(McgpError::invariant(
            "coarsen/adjwgt-monotone",
            format!(
                "coarse edge weight {} exceeds fine {}",
                coarse.total_adjwgt(),
                fine.total_adjwgt()
            ),
        ));
    }
    Ok(())
}

/// The vertex-weight half of [`check_conserved_weights`], from the fine and
/// coarse per-constraint totals (for graphs held in another form): same
/// constraint count, every total exactly conserved.
pub fn check_conserved_totals(fine: &[i64], coarse: &[i64]) -> Result<()> {
    if fine.len() != coarse.len() {
        return Err(McgpError::invariant(
            "coarsen/ncon",
            format!("fine ncon {} != coarse ncon {}", fine.len(), coarse.len()),
        ));
    }
    if fine != coarse {
        return Err(McgpError::invariant(
            "coarsen/weight-conservation",
            format!("fine totals {fine:?} != coarse totals {coarse:?}"),
        ));
    }
    Ok(())
}

/// Validates a fine→coarse projection map: one entry per fine vertex, every
/// entry a valid coarse vertex.
pub fn check_projection(cmap: &[u32], fine_nvtxs: usize, coarse_nvtxs: usize) -> Result<()> {
    if cmap.len() != fine_nvtxs {
        return Err(McgpError::invariant(
            "project/cmap-length",
            format!(
                "cmap has {} entries for {fine_nvtxs} fine vertices",
                cmap.len()
            ),
        ));
    }
    if let Some((v, &c)) = cmap
        .iter()
        .enumerate()
        .find(|(_, &c)| c as usize >= coarse_nvtxs)
    {
        return Err(McgpError::invariant(
            "project/cmap-range",
            format!("fine vertex {v} maps to coarse vertex {c} >= {coarse_nvtxs}"),
        ));
    }
    Ok(())
}

/// The complete validity check for a finished `(graph, partition)` pair —
/// what `mcgp check` and the differential harness run: graph structure at
/// the requested level, assignment well-formedness, subdomain coverage, and
/// per-constraint balance within `tol` (plus granularity slack).
pub fn check_partition(
    graph: &Graph,
    assignment: &[u32],
    nparts: usize,
    tol: f64,
    level: CheckLevel,
) -> Result<()> {
    if !level.enabled() {
        return Ok(());
    }
    check_graph(graph, level)?;
    check_assignment(graph, assignment, nparts)?;
    check_no_empty_parts(assignment, nparts)?;
    check_balance(graph, assignment, nparts, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphBuilder;
    use crate::generators::grid_2d;

    fn invariant_of(err: McgpError) -> &'static str {
        match err {
            McgpError::Invariant { invariant, .. } => invariant,
            other => panic!("expected invariant error, got {other}"),
        }
    }

    #[test]
    fn levels_are_ordered_and_parse() {
        assert!(CheckLevel::Off < CheckLevel::Cheap);
        assert!(CheckLevel::Cheap < CheckLevel::Full);
        assert_eq!(CheckLevel::parse("full"), Some(CheckLevel::Full));
        assert_eq!(CheckLevel::parse("CHEAP"), Some(CheckLevel::Cheap));
        assert_eq!(CheckLevel::parse("0"), Some(CheckLevel::Off));
        assert_eq!(CheckLevel::parse("bogus"), None);
        assert!(!CheckLevel::Off.enabled());
        assert!(CheckLevel::Full.enabled());
    }

    #[test]
    fn check_graph_passes_valid_levels() {
        let g = grid_2d(4, 4);
        assert!(check_graph(&g, CheckLevel::Off).is_ok());
        assert!(check_graph(&g, CheckLevel::Cheap).is_ok());
        assert!(check_graph(&g, CheckLevel::Full).is_ok());
    }

    #[test]
    fn assignment_checks_name_their_invariant() {
        let g = grid_2d(2, 2);
        let err = check_assignment(&g, &[0, 1], 2).unwrap_err();
        assert_eq!(invariant_of(err), "partition/length");
        let err = check_assignment(&g, &[0, 1, 2, 5], 4).unwrap_err();
        assert_eq!(invariant_of(err), "partition/range");
        assert!(check_assignment(&g, &[0, 1, 2, 3], 4).is_ok());
    }

    #[test]
    fn empty_part_detected() {
        let err = check_no_empty_parts(&[0, 0, 2, 2], 3).unwrap_err();
        assert_eq!(invariant_of(err), "partition/nonempty");
        assert!(check_no_empty_parts(&[0, 1, 2], 3).is_ok());
    }

    #[test]
    fn balance_check_respects_tolerance_and_slack() {
        let g = grid_2d(4, 4); // 16 unit vertices
                               // 8|8 split: perfectly balanced.
        let even: Vec<u32> = (0..16).map(|v| (v / 8) as u32).collect();
        assert!(check_balance(&g, &even, 2, 0.05).is_ok());
        // 12|4 split: max 12 vs cap max(1.05*8, 8+1)=9 — violation.
        let skew: Vec<u32> = (0..16).map(|v| u32::from(v >= 12)).collect();
        let err = check_balance(&g, &skew, 2, 0.05).unwrap_err();
        assert_eq!(invariant_of(err), "partition/balance");
        // Same split passes once the tolerance admits it.
        assert!(check_balance(&g, &skew, 2, 0.6).is_ok());
    }

    #[test]
    fn conservation_check_detects_weight_loss() {
        let fine = grid_2d(4, 4);
        let mut b = GraphBuilder::new(8);
        for v in 0..7 {
            b.edge(v, v + 1);
        }
        b.vwgt(1, vec![2; 8]); // 16 total: conserved
        let coarse = b.build().unwrap();
        assert!(check_conserved_weights(&fine, &coarse).is_ok());
        let mut b = GraphBuilder::new(8);
        for v in 0..7 {
            b.edge(v, v + 1);
        }
        b.vwgt(1, vec![1; 8]); // 8 total: weight lost
        let bad = b.build().unwrap();
        let err = check_conserved_weights(&fine, &bad).unwrap_err();
        assert_eq!(invariant_of(err), "coarsen/weight-conservation");
    }

    #[test]
    fn projection_check_catches_bad_cmap() {
        assert!(check_projection(&[0, 0, 1, 1], 4, 2).is_ok());
        let err = check_projection(&[0, 0, 1], 4, 2).unwrap_err();
        assert_eq!(invariant_of(err), "project/cmap-length");
        let err = check_projection(&[0, 0, 9, 1], 4, 2).unwrap_err();
        assert_eq!(invariant_of(err), "project/cmap-range");
    }

    #[test]
    fn check_partition_composes() {
        let g = grid_2d(4, 4);
        let even: Vec<u32> = (0..16).map(|v| (v / 8) as u32).collect();
        assert!(check_partition(&g, &even, 2, 0.05, CheckLevel::Full).is_ok());
        // Off short-circuits even for garbage.
        assert!(check_partition(&g, &[9; 16], 2, 0.05, CheckLevel::Off).is_ok());
        assert!(check_partition(&g, &[9; 16], 2, 0.05, CheckLevel::Cheap).is_err());
    }
}
