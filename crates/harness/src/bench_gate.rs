//! The bench regression gate behind `mcgp bench-gate`.
//!
//! Compares a freshly generated bench JSONL report against a committed
//! baseline (`BENCH_refine.json` / `BENCH_coarsen.json` /
//! `BENCH_serve.json`) and produces a machine-readable verdict. A bench
//! regresses when its fresh median exceeds the baseline median by more
//! than the configured ratio; throughput rows (`rps`) are gated in the
//! inverse direction. The gate is deliberately loose by default —
//! wall-clock benches on shared CI hardware are noisy — its job is to
//! catch order-of-magnitude regressions (a cache that stopped caching, a
//! refinement pass gone quadratic), not 10% drift.
//!
//! Robustness choices, each load-bearing:
//!
//! * **Intersection gating.** Only benches present in *both* files are
//!   compared; additions and renames don't fail the gate (they show up as
//!   `only_baseline` / `only_fresh` in the verdict for a human to read).
//!   An empty intersection is an error — it means the gate compared
//!   nothing and a pass would be vacuous.
//! * **Noise floor.** Benches whose baseline median sits below the floor
//!   are reported but not gated: a 0.4 ms bench doubling is scheduler
//!   jitter, not a regression.
//! * **Median, not max.** `max_s` includes warm-up and interference
//!   outliers by construction.

use mcgp_runtime::json::{Json, ToJson};
use std::collections::BTreeMap;

/// Gate thresholds. `Default` matches what `scripts/verify.sh` runs.
#[derive(Clone, Debug)]
pub struct GateConfig {
    /// Fail when `fresh_median > baseline_median * tolerance` (and, for
    /// throughput, when `fresh_rps < baseline_rps / tolerance`).
    pub tolerance: f64,
    /// Baseline medians below this many seconds are too noisy to gate;
    /// they are listed with `gated: false` and never fail.
    pub noise_floor_s: f64,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            tolerance: 3.0,
            noise_floor_s: 0.005,
        }
    }
}

/// One bench row as the gate sees it: the validated subset of the JSONL
/// schema plus optional throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    pub median_s: f64,
    pub samples: u64,
    pub rps: Option<f64>,
}

/// Outcome of one baseline-vs-fresh comparison.
#[derive(Clone, Debug)]
pub struct Check {
    pub bench: String,
    pub baseline_median_s: f64,
    pub fresh_median_s: f64,
    /// `fresh / baseline`; > 1 means slower.
    pub ratio: f64,
    /// Throughput ratio `fresh_rps / baseline_rps` when both rows carry
    /// `rps`; > 1 means faster.
    pub rps_ratio: Option<f64>,
    /// Whether this bench participated in the verdict (above the noise
    /// floor).
    pub gated: bool,
    /// Whether this bench regressed past the tolerance. Only possible
    /// when `gated`.
    pub regressed: bool,
}

/// The whole gate result: per-bench checks plus the non-compared
/// leftovers on each side.
#[derive(Clone, Debug)]
pub struct GateReport {
    pub checks: Vec<Check>,
    pub only_baseline: Vec<String>,
    pub only_fresh: Vec<String>,
    pub tolerance: f64,
    pub noise_floor_s: f64,
}

impl GateReport {
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.regressed)
    }

    pub fn regressions(&self) -> impl Iterator<Item = &Check> {
        self.checks.iter().filter(|c| c.regressed)
    }
}

impl ToJson for GateReport {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "verdict",
                Json::Str(if self.passed() { "pass" } else { "fail" }.into()),
            ),
            ("tolerance", Json::Float(self.tolerance)),
            ("noise_floor_s", Json::Float(self.noise_floor_s)),
            ("compared", Json::UInt(self.checks.len() as u64)),
            (
                "regressed",
                Json::UInt(self.regressions().count() as u64),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            let mut pairs = vec![
                                ("bench".to_string(), Json::Str(c.bench.clone())),
                                (
                                    "baseline_median_s".to_string(),
                                    Json::Float(c.baseline_median_s),
                                ),
                                ("fresh_median_s".to_string(), Json::Float(c.fresh_median_s)),
                                ("ratio".to_string(), Json::Float(c.ratio)),
                                ("gated".to_string(), Json::Bool(c.gated)),
                                ("regressed".to_string(), Json::Bool(c.regressed)),
                            ];
                            if let Some(r) = c.rps_ratio {
                                pairs.push(("rps_ratio".to_string(), Json::Float(r)));
                            }
                            Json::Obj(pairs)
                        })
                        .collect(),
                ),
            ),
            (
                "only_baseline",
                Json::Arr(self.only_baseline.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "only_fresh",
                Json::Arr(self.only_fresh.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Configuration for the threads-win rule: inside one (fresh) report,
/// every `<stem>_tN` row under a gated prefix must not be slower than its
/// `<stem>_t1` sibling past `tolerance`. This is what makes "the parallel
/// pipeline beats serial" an enforced invariant instead of a hope: the
/// comparison is within a single run on a single machine, so it is immune
/// to cross-host baseline drift.
#[derive(Clone, Debug)]
pub struct ThreadsWinConfig {
    /// Bench-name prefixes enrolled in the rule (e.g.
    /// `coarsen/hierarchy/mrng200k`, `partition/full/`). Rows not under
    /// any prefix are ignored.
    pub prefixes: Vec<String>,
    /// Fail when `tN_median > t1_median * tolerance`. Slightly above 1:
    /// on a loaded host, equal medians jitter a few percent either way.
    pub tolerance: f64,
    /// `_t1` medians below this are too fast to compare meaningfully;
    /// their groups are listed with `gated: false` and never fail.
    pub noise_floor_s: f64,
}

impl Default for ThreadsWinConfig {
    fn default() -> Self {
        ThreadsWinConfig {
            prefixes: Vec::new(),
            tolerance: 1.10,
            noise_floor_s: 0.005,
        }
    }
}

/// One `_tN`-vs-`_t1` comparison.
#[derive(Clone, Debug)]
pub struct ThreadsWinCheck {
    /// Bench name minus the `_tN` suffix.
    pub stem: String,
    /// The N of the threaded row.
    pub threads: u64,
    pub t1_median_s: f64,
    pub tn_median_s: f64,
    /// `tN / t1`; > 1 means the threaded row is slower.
    pub ratio: f64,
    pub gated: bool,
    pub regressed: bool,
}

/// Result of [`threads_win`] over one report.
#[derive(Clone, Debug)]
pub struct ThreadsWinReport {
    pub checks: Vec<ThreadsWinCheck>,
    pub tolerance: f64,
}

impl ThreadsWinReport {
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.regressed)
    }

    pub fn regressions(&self) -> impl Iterator<Item = &ThreadsWinCheck> {
        self.checks.iter().filter(|c| c.regressed)
    }
}

impl ToJson for ThreadsWinReport {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "verdict",
                Json::Str(if self.passed() { "pass" } else { "fail" }.into()),
            ),
            ("tolerance", Json::Float(self.tolerance)),
            ("compared", Json::UInt(self.checks.len() as u64)),
            (
                "regressed",
                Json::UInt(self.regressions().count() as u64),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("stem", Json::Str(c.stem.clone())),
                                ("threads", Json::UInt(c.threads)),
                                ("t1_median_s", Json::Float(c.t1_median_s)),
                                ("tn_median_s", Json::Float(c.tn_median_s)),
                                ("ratio", Json::Float(c.ratio)),
                                ("gated", Json::Bool(c.gated)),
                                ("regressed", Json::Bool(c.regressed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Splits a bench name into `(stem, N)` when it ends in `_t<digits>`.
fn split_threads_suffix(name: &str) -> Option<(&str, u64)> {
    let at = name.rfind("_t")?;
    let digits = &name[at + 2..];
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some((&name[..at], digits.parse().ok()?))
}

/// Runs the threads-win rule over one parsed report. Errors when a
/// prefix matches threaded rows with no `_t1` sibling (the comparison
/// would be silently skipped) or matches nothing at all (a vacuous pass).
pub fn threads_win(
    report: &BTreeMap<String, BenchRow>,
    config: &ThreadsWinConfig,
) -> Result<ThreadsWinReport, String> {
    assert!(config.tolerance >= 1.0, "tolerance must be >= 1");
    let mut checks = Vec::new();
    for (name, row) in report {
        if !config.prefixes.iter().any(|p| name.starts_with(p.as_str())) {
            continue;
        }
        let Some((stem, n)) = split_threads_suffix(name) else {
            continue;
        };
        if n <= 1 {
            continue;
        }
        let t1_name = format!("{stem}_t1");
        let Some(t1) = report.get(&t1_name) else {
            return Err(format!(
                "threads-win: `{name}` has no `{t1_name}` sibling to compare against"
            ));
        };
        let ratio = row.median_s / t1.median_s.max(f64::MIN_POSITIVE);
        let gated = t1.median_s >= config.noise_floor_s;
        checks.push(ThreadsWinCheck {
            stem: stem.to_string(),
            threads: n,
            t1_median_s: t1.median_s,
            tn_median_s: row.median_s,
            ratio,
            gated,
            regressed: gated && ratio > config.tolerance,
        });
    }
    if checks.is_empty() {
        return Err(format!(
            "threads-win: no `_tN` rows matched prefixes {:?} — nothing gated",
            config.prefixes
        ));
    }
    Ok(ThreadsWinReport {
        checks,
        tolerance: config.tolerance,
    })
}

/// One enrolment in the rps-win rule: within a single report, the `fast`
/// row's throughput must be at least `min_ratio` times the `slow` row's.
/// Like the threads-win rule, the comparison is same-run/same-host, so it
/// survives committing new baseline numbers — a vs-baseline "2x faster"
/// check would fail forever the moment the faster numbers become the
/// baseline.
#[derive(Clone, Debug)]
pub struct RpsWinPair {
    /// Bench name whose `rps` must win (e.g. `serve_warm_keepalive_rmat11`).
    pub fast: String,
    /// Bench name it must beat (e.g. `serve_warm_perconn_rmat11`).
    pub slow: String,
    /// Minimum `fast_rps / slow_rps` ratio.
    pub min_ratio: f64,
}

/// One evaluated rps-win pair.
#[derive(Clone, Debug)]
pub struct RpsWinCheck {
    pub fast: String,
    pub slow: String,
    pub fast_rps: f64,
    pub slow_rps: f64,
    /// `fast_rps / slow_rps`.
    pub ratio: f64,
    pub min_ratio: f64,
    pub regressed: bool,
}

/// Result of [`rps_win`] over one report.
#[derive(Clone, Debug)]
pub struct RpsWinReport {
    pub checks: Vec<RpsWinCheck>,
}

impl RpsWinReport {
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| !c.regressed)
    }

    pub fn regressions(&self) -> impl Iterator<Item = &RpsWinCheck> {
        self.checks.iter().filter(|c| c.regressed)
    }
}

impl ToJson for RpsWinReport {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "verdict",
                Json::Str(if self.passed() { "pass" } else { "fail" }.into()),
            ),
            ("compared", Json::UInt(self.checks.len() as u64)),
            (
                "regressed",
                Json::UInt(self.regressions().count() as u64),
            ),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("fast", Json::Str(c.fast.clone())),
                                ("slow", Json::Str(c.slow.clone())),
                                ("fast_rps", Json::Float(c.fast_rps)),
                                ("slow_rps", Json::Float(c.slow_rps)),
                                ("ratio", Json::Float(c.ratio)),
                                ("min_ratio", Json::Float(c.min_ratio)),
                                ("regressed", Json::Bool(c.regressed)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Runs the rps-win rule over one parsed (fresh) report. A named row
/// that is missing or carries no `rps` field is a configuration error,
/// not a silent skip — the gate must never pass vacuously.
pub fn rps_win(
    report: &BTreeMap<String, BenchRow>,
    pairs: &[RpsWinPair],
) -> Result<RpsWinReport, String> {
    if pairs.is_empty() {
        return Err("rps-win: no pairs configured — nothing gated".to_string());
    }
    let mut checks = Vec::new();
    for pair in pairs {
        assert!(pair.min_ratio > 0.0, "min_ratio must be positive");
        let fetch = |name: &str| -> Result<f64, String> {
            report
                .get(name)
                .ok_or_else(|| format!("rps-win: report has no bench `{name}`"))?
                .rps
                .ok_or_else(|| format!("rps-win: bench `{name}` carries no rps field"))
        };
        let fast_rps = fetch(&pair.fast)?;
        let slow_rps = fetch(&pair.slow)?;
        let ratio = fast_rps / slow_rps.max(f64::MIN_POSITIVE);
        checks.push(RpsWinCheck {
            fast: pair.fast.clone(),
            slow: pair.slow.clone(),
            fast_rps,
            slow_rps,
            ratio,
            min_ratio: pair.min_ratio,
            regressed: ratio < pair.min_ratio,
        });
    }
    Ok(RpsWinReport { checks })
}

/// Parses a bench JSONL report into `name → row`. This is the one bench
/// schema: `mcgp bench-check` validates a file by calling it, and the gate
/// never compares garbage. Every non-blank line is a JSON object with a
/// non-empty string `bench`, a finite `samples` of at least 1, and finite
/// timings with `0 <= min_s <= median_s <= max_s`; a positive `rps` is
/// kept when present. Bench names are unique (the gate would silently
/// compare only the last), and a file holds at least one record.
pub fn parse_bench_file(text: &str, label: &str) -> Result<BTreeMap<String, BenchRow>, String> {
    let mut rows = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let json = Json::parse(line).map_err(|e| format!("{label}:{lineno}: not JSON: {e:?}"))?;
        let name = json
            .get("bench")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{label}:{lineno}: missing string field `bench`"))?
            .to_string();
        if name.is_empty() {
            return Err(format!("{label}:{lineno}: empty `bench` name"));
        }
        let num = |key: &str| -> Result<f64, String> {
            json.get(key)
                .and_then(|v| v.as_f64())
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("{label}:{lineno}: missing finite field `{key}`"))
        };
        let samples = num("samples")?;
        if samples < 1.0 {
            return Err(format!("{label}:{lineno}: `samples` {samples} is below 1"));
        }
        let (median_s, min_s, max_s) = (num("median_s")?, num("min_s")?, num("max_s")?);
        if min_s < 0.0 || min_s > median_s || median_s > max_s {
            return Err(format!(
                "{label}:{lineno}: timings out of order: min {min_s} median {median_s} max {max_s}"
            ));
        }
        let samples = samples as u64;
        let rps = json.get("rps").and_then(|v| v.as_f64()).filter(|v| *v > 0.0);
        if rows
            .insert(
                name.clone(),
                BenchRow {
                    median_s,
                    samples,
                    rps,
                },
            )
            .is_some()
        {
            return Err(format!("{label}:{lineno}: duplicate bench `{name}`"));
        }
    }
    if rows.is_empty() {
        return Err(format!("{label}: no bench records"));
    }
    Ok(rows)
}

/// Runs the gate over two parsed reports. Errors when the name
/// intersection is empty — a gate that compared nothing must not pass.
pub fn gate(
    baseline: &BTreeMap<String, BenchRow>,
    fresh: &BTreeMap<String, BenchRow>,
    config: &GateConfig,
) -> Result<GateReport, String> {
    assert!(config.tolerance >= 1.0, "tolerance must be >= 1");
    assert!(config.noise_floor_s >= 0.0, "noise floor must be >= 0");
    let mut checks = Vec::new();
    for (name, base) in baseline {
        let Some(new) = fresh.get(name) else { continue };
        // A zero baseline median carries no signal (and would make every
        // ratio infinite); the noise floor subsumes it for any floor > 0,
        // and `max(f64::MIN_POSITIVE)` keeps the ratio finite regardless.
        let ratio = new.median_s / base.median_s.max(f64::MIN_POSITIVE);
        let rps_ratio = match (base.rps, new.rps) {
            (Some(b), Some(n)) => Some(n / b),
            _ => None,
        };
        let gated = base.median_s >= config.noise_floor_s;
        let slow = ratio > config.tolerance;
        let throughput_drop = rps_ratio.is_some_and(|r| r < 1.0 / config.tolerance);
        checks.push(Check {
            bench: name.clone(),
            baseline_median_s: base.median_s,
            fresh_median_s: new.median_s,
            ratio,
            rps_ratio,
            gated,
            regressed: gated && (slow || throughput_drop),
        });
    }
    if checks.is_empty() {
        return Err(format!(
            "no common benches between baseline ({}) and fresh ({}) — nothing gated",
            baseline.len(),
            fresh.len()
        ));
    }
    let compared: std::collections::BTreeSet<&String> = checks.iter().map(|c| &c.bench).collect();
    Ok(GateReport {
        only_baseline: baseline
            .keys()
            .filter(|k| !compared.contains(k))
            .cloned()
            .collect(),
        only_fresh: fresh
            .keys()
            .filter(|k| !compared.contains(k))
            .cloned()
            .collect(),
        checks,
        tolerance: config.tolerance,
        noise_floor_s: config.noise_floor_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rows: &[(&str, f64, Option<f64>)]) -> String {
        rows.iter()
            .map(|(name, median, rps)| {
                let rps = rps.map_or(String::new(), |r| format!(",\"rps\":{r}"));
                format!(
                    "{{\"bench\":\"{name}\",\"samples\":5,\"median_s\":{median},\
                     \"min_s\":{median},\"max_s\":{median}{rps}}}"
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn parse(rows: &[(&str, f64, Option<f64>)]) -> BTreeMap<String, BenchRow> {
        parse_bench_file(&file(rows), "test").unwrap()
    }

    #[test]
    fn identical_reports_pass() {
        let rows = parse(&[("a", 0.1, None), ("b", 0.2, Some(10.0))]);
        let report = gate(&rows, &rows, &GateConfig::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.checks.len(), 2);
        assert!(report.checks.iter().all(|c| (c.ratio - 1.0).abs() < 1e-12));
        let json = report.to_json();
        assert_eq!(json.get("verdict").unwrap().as_str(), Some("pass"));
        assert_eq!(json.get("regressed").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn tenfold_slowdown_fails_and_names_the_bench() {
        let base = parse(&[("fast", 0.1, None), ("slow", 0.1, None)]);
        let fresh = parse(&[("fast", 0.1, None), ("slow", 1.0, None)]);
        let report = gate(&base, &fresh, &GateConfig::default()).unwrap();
        assert!(!report.passed());
        let bad: Vec<&str> = report.regressions().map(|c| c.bench.as_str()).collect();
        assert_eq!(bad, ["slow"]);
        assert_eq!(
            report.to_json().get("verdict").unwrap().as_str(),
            Some("fail")
        );
    }

    #[test]
    fn throughput_collapse_fails_even_with_flat_latency() {
        let base = parse(&[("mixed", 0.1, Some(100.0))]);
        let fresh = parse(&[("mixed", 0.1, Some(5.0))]);
        let report = gate(&base, &fresh, &GateConfig::default()).unwrap();
        assert!(!report.passed());
        assert!(report.checks[0].rps_ratio.unwrap() < 0.1);
    }

    #[test]
    fn noise_floor_exempts_microbenches() {
        let base = parse(&[("tiny", 0.0001, None), ("real", 0.1, None)]);
        let fresh = parse(&[("tiny", 0.01, None), ("real", 0.1, None)]); // tiny 100x "slower"
        let report = gate(&base, &fresh, &GateConfig::default()).unwrap();
        assert!(report.passed(), "sub-floor bench must not gate");
        let tiny = report.checks.iter().find(|c| c.bench == "tiny").unwrap();
        assert!(!tiny.gated && !tiny.regressed);
    }

    #[test]
    fn renames_are_reported_not_fatal_but_empty_intersection_is() {
        let base = parse(&[("old_name", 0.1, None), ("kept", 0.1, None)]);
        let fresh = parse(&[("new_name", 0.1, None), ("kept", 0.1, None)]);
        let report = gate(&base, &fresh, &GateConfig::default()).unwrap();
        assert!(report.passed());
        assert_eq!(report.only_baseline, ["old_name"]);
        assert_eq!(report.only_fresh, ["new_name"]);

        let disjoint = parse(&[("completely_different", 0.1, None)]);
        assert!(gate(&base, &disjoint, &GateConfig::default()).is_err());
    }

    #[test]
    fn parser_rejects_garbage_and_duplicates() {
        assert!(parse_bench_file("", "t").is_err(), "empty file");
        assert!(parse_bench_file("not json", "t").is_err());
        assert!(parse_bench_file("{\"bench\":\"a\"}", "t").is_err(), "missing fields");
        let dup = file(&[("a", 0.1, None), ("a", 0.2, None)]);
        assert!(parse_bench_file(&dup, "t").unwrap_err().contains("duplicate"));
        // Blank lines are fine.
        let ok = format!("\n{}\n\n", file(&[("a", 0.1, None)]));
        assert_eq!(parse_bench_file(&ok, "t").unwrap().len(), 1);
    }

    /// One record with `fields` spliced after a valid `bench` name.
    fn record(fields: &str) -> String {
        format!("{{\"bench\":\"a\",{fields}}}")
    }

    /// Asserts that `text` fails to parse with an error naming `why`.
    fn rejected(text: &str, why: &str) {
        let err = parse_bench_file(text, "t").expect_err(text);
        assert!(err.contains(why), "{text}: {err}");
    }

    const TIMINGS: &str = "\"median_s\":0.2,\"min_s\":0.1,\"max_s\":0.3";

    #[test]
    fn parser_rejects_empty_bench_names() {
        let row = format!("{{\"bench\":\"\",\"samples\":3,{TIMINGS}}}");
        rejected(&row, "empty `bench`");
    }

    #[test]
    fn parser_rejects_too_few_or_non_finite_samples() {
        for samples in ["0", "0.5", "-3"] {
            let row = record(&format!("\"samples\":{samples},{TIMINGS}"));
            rejected(&row, "below 1");
        }
        let row = record(&format!("\"samples\":1e999,{TIMINGS}"));
        rejected(&row, "finite field `samples`");
    }

    #[test]
    fn parser_requires_min_and_max_timings() {
        let no_min = record("\"samples\":3,\"median_s\":0.2,\"max_s\":0.3");
        rejected(&no_min, "min_s");
        let no_max = record("\"samples\":3,\"median_s\":0.2,\"min_s\":0.1");
        rejected(&no_max, "max_s");
    }

    #[test]
    fn parser_rejects_misordered_timings() {
        for (min, median, max) in [(0.3, 0.2, 0.4), (0.1, 0.5, 0.4), (-0.1, 0.2, 0.3)] {
            let timings = format!("\"median_s\":{median},\"min_s\":{min},\"max_s\":{max}");
            rejected(&record(&format!("\"samples\":3,{timings}")), "out of order");
        }
    }

    fn tw_config(prefixes: &[&str]) -> ThreadsWinConfig {
        ThreadsWinConfig {
            prefixes: prefixes.iter().map(|p| p.to_string()).collect(),
            ..ThreadsWinConfig::default()
        }
    }

    #[test]
    fn threads_win_passes_when_threaded_rows_hold_serial_speed() {
        let rows = parse(&[
            ("full/g_t1", 0.100, None),
            ("full/g_t2", 0.095, None),
            ("full/g_t8", 0.108, None), // within the 1.10x default
            ("other/x_t1", 0.1, None),
            ("other/x_t2", 9.0, None), // not enrolled: no prefix match
        ]);
        let report = threads_win(&rows, &tw_config(&["full/"])).unwrap();
        assert!(report.passed());
        assert_eq!(report.checks.len(), 2);
        assert!(report.checks.iter().all(|c| c.stem == "full/g"));
        assert_eq!(
            report.to_json().get("verdict").unwrap().as_str(),
            Some("pass")
        );
    }

    #[test]
    fn threads_win_fails_when_a_threaded_row_is_slower() {
        let rows = parse(&[("full/g_t1", 0.100, None), ("full/g_t2", 0.150, None)]);
        let report = threads_win(&rows, &tw_config(&["full/"])).unwrap();
        assert!(!report.passed());
        let bad: Vec<u64> = report.regressions().map(|c| c.threads).collect();
        assert_eq!(bad, [2]);
    }

    #[test]
    fn threads_win_noise_floor_and_missing_sibling() {
        // A sub-floor t1: reported, never failed.
        let rows = parse(&[("full/tiny_t1", 0.0001, None), ("full/tiny_t2", 0.01, None)]);
        let report = threads_win(&rows, &tw_config(&["full/"])).unwrap();
        assert!(report.passed());
        assert!(!report.checks[0].gated);

        // A threaded row with no _t1 sibling is a configuration error,
        // not a silent skip.
        let rows = parse(&[("full/g_t2", 0.1, None)]);
        assert!(threads_win(&rows, &tw_config(&["full/"]))
            .unwrap_err()
            .contains("no `full/g_t1` sibling"));

        // A prefix that matches nothing: vacuous pass forbidden.
        let rows = parse(&[("elsewhere_t1", 0.1, None), ("elsewhere_t2", 0.1, None)]);
        assert!(threads_win(&rows, &tw_config(&["full/"])).is_err());

        // Names without a _tN suffix under the prefix are ignored.
        let rows = parse(&[
            ("full/g_t1", 0.1, None),
            ("full/g_t2", 0.1, None),
            ("full/total", 0.1, None),
        ]);
        assert_eq!(
            threads_win(&rows, &tw_config(&["full/"])).unwrap().checks.len(),
            1
        );
    }

    #[test]
    fn rps_win_holds_the_ratio_within_one_report() {
        let rows = parse(&[
            ("ka", 0.001, Some(500.0)),
            ("pc", 0.005, Some(200.0)),
        ]);
        let pair = |min_ratio| {
            vec![RpsWinPair {
                fast: "ka".into(),
                slow: "pc".into(),
                min_ratio,
            }]
        };
        // 2.5x observed: a 2.0x requirement passes, 3.0x fails.
        let report = rps_win(&rows, &pair(2.0)).unwrap();
        assert!(report.passed());
        assert!((report.checks[0].ratio - 2.5).abs() < 1e-12);
        assert_eq!(
            report.to_json().get("verdict").unwrap().as_str(),
            Some("pass")
        );
        let report = rps_win(&rows, &pair(3.0)).unwrap();
        assert!(!report.passed());
        assert_eq!(report.regressions().count(), 1);
    }

    #[test]
    fn rps_win_rejects_missing_rows_and_vacuous_configs() {
        let rows = parse(&[("ka", 0.001, Some(500.0)), ("norps", 0.1, None)]);
        let pair = |fast: &str, slow: &str| {
            vec![RpsWinPair {
                fast: fast.into(),
                slow: slow.into(),
                min_ratio: 2.0,
            }]
        };
        assert!(rps_win(&rows, &[]).unwrap_err().contains("no pairs"));
        assert!(rps_win(&rows, &pair("ka", "gone"))
            .unwrap_err()
            .contains("no bench `gone`"));
        assert!(rps_win(&rows, &pair("ka", "norps"))
            .unwrap_err()
            .contains("no rps field"));
    }

    #[test]
    fn tolerance_boundary_is_exclusive() {
        let base = parse(&[("b", 0.1, None)]);
        let fresh = parse(&[("b", 0.3, None)]); // exactly 3.0x
        let cfg = GateConfig::default();
        let report = gate(&base, &fresh, &cfg).unwrap();
        assert!(report.passed(), "ratio == tolerance passes");
        let fresh = parse(&[("b", 0.30001, None)]);
        assert!(!gate(&base, &fresh, &cfg).unwrap().passed());
    }
}
