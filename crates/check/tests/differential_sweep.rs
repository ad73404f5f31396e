//! The differential serial ↔ parallel acceptance sweep.
//!
//! By default this runs a reduced grid sized for debug-profile `cargo test`.
//! Set `MCGP_DIFF_FULL=1` to run the documented acceptance grid
//! (type1/type2 × ncon {1,3,5} × k {4,16,64} × p {1,2,8});
//! `scripts/verify.sh` does so under the `checked` profile, where the
//! release-speed build keeps the full grid cheap while `debug_assertions`
//! keep every seam validator live.

use mcgp_check::differential::{run_sweep, Envelope, SweepGrid};

#[test]
fn serial_and_parallel_agree_within_envelopes_across_sweep() {
    let grid = if std::env::var("MCGP_DIFF_FULL").is_ok_and(|v| v == "1") {
        SweepGrid::default()
    } else {
        SweepGrid::reduced()
    };
    let env = Envelope::default();
    let records = run_sweep(&grid, &env, |rec| {
        if !rec.pass() {
            eprintln!(
                "FAIL {} ncon={} k={} p={} seed={}: {:?}",
                rec.wtype, rec.ncon, rec.nparts, rec.nprocs, rec.seed, rec.failures
            );
        }
    });
    assert!(!records.is_empty(), "sweep produced no cells");

    // Both partitioners must be exercised at >= 2 distinct thread counts.
    let procs: std::collections::BTreeSet<usize> = records.iter().map(|r| r.nprocs).collect();
    assert!(
        procs.len() >= 2,
        "sweep covered only {procs:?} processor counts"
    );

    let failing: Vec<String> = records
        .iter()
        .filter(|r| !r.pass())
        .map(|r| {
            format!(
                "{} ncon={} k={} p={}: {}",
                r.wtype,
                r.ncon,
                r.nparts,
                r.nprocs,
                r.failures.join("; ")
            )
        })
        .collect();
    assert!(
        failing.is_empty(),
        "{}/{} sweep cells violated their envelopes:\n{}",
        failing.len(),
        records.len(),
        failing.join("\n")
    );
}
