//! `mcgp-benchmark compare <a.jsonl> <b.jsonl>`: one verdict per
//! (end-to-end metric, workload) from the metric lines of two sets of runs,
//! judged by the bounds in `BENCHMARK.json`.
//!
//! Runs are paired by `(workload, seed)`: a seed fixes a run's inputs, so
//! the ratio `b / a` of one seed's two values leaves out how much one
//! seed's inputs differ from another's. Cut and imbalance are deterministic
//! per seed, so their ratios are exact.

use crate::median;
use mcgp_runtime::Json;
use std::collections::BTreeMap;

struct Bound {
    lower_is_better: bool,
    bound: f64,
}

/// The end-to-end metrics' directions and bounds.
fn bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
    {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        let lower_is_better = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(
            name.to_string(),
            Bound {
                lower_is_better,
                bound,
            },
        );
    }
    Ok(out)
}

/// Values by seed (as its JSON text).
type Seeds = BTreeMap<String, Vec<f64>>;

/// The `{"workload","seed","metric","value"}` lines of a file, per
/// `(metric, workload)`; other lines are skipped.
fn load(path: &str) -> Result<BTreeMap<(String, String), Seeds>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<(String, String), Seeds> = BTreeMap::new();
    for line in text.lines() {
        let Ok(doc) = Json::parse(line) else { continue };
        let field = |k| doc.get(k).and_then(Json::as_str);
        if let (Some(w), Some(seed), Some(m), Some(v)) = (
            field("workload"),
            doc.get("seed").map(Json::to_string),
            field("metric"),
            doc.get("value").and_then(Json::as_f64),
        ) {
            out.entry((m.to_string(), w.to_string()))
                .or_default()
                .entry(seed)
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n < 2 {
        return [d[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// For every seed both sides ran: the median of `a`'s values, of `b`'s,
/// and the ratio of the two.
fn pair(a: &Seeds, b: &Seeds) -> [Vec<f64>; 3] {
    let mut out: [Vec<f64>; 3] = Default::default();
    for (seed, xs) in a {
        if let Some(ys) = b.get(seed) {
            let (x, y) = (median(xs), median(ys));
            out[0].push(x);
            out[1].push(y);
            out[2].push(y / x);
        }
    }
    out
}

/// The verdict on per-seed ratios `b / a`: `unresolved` when their spread
/// is wider than the bound (unless every seed reads better in `b`), else
/// `worse` when their median is worse by more than the bound, else `ok`.
/// Also returns how much worse the median ratio is.
fn verdict(ratios: &[f64], bound: &Bound) -> (&'static str, f64) {
    let sign = if bound.lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (median(ratios) - 1.0);
    let verdict = if spread(ratios) > bound.bound {
        if ratios.iter().all(|&r| sign * (r - 1.0) < 0.0) {
            "ok"
        } else {
            "unresolved"
        }
    } else if worse_by > bound.bound {
        "worse"
    } else {
        "ok"
    };
    (verdict, worse_by)
}

/// Prints the verdicts; exit code 1 when any pair is `worse`.
pub fn run(a_path: &str, b_path: &str) -> Result<i32, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds = bounds(&text)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut worse = 0;
    println!(
        "{:<16} {:<12} {:<10} {:>5} {:>12} {:>12} {:>8} {:>8}",
        "metric", "workload", "verdict", "seeds", "median_a", "median_b", "worse_by", "spread"
    );
    for (key, seeds_a) in &a {
        let (Some(bound), Some(seeds_b)) = (bounds.get(&key.0), b.get(key)) else {
            continue;
        };
        let [va, vb, ratios] = pair(seeds_a, seeds_b);
        if ratios.is_empty() {
            continue;
        }
        let (v, worse_by) = verdict(&ratios, bound);
        worse += usize::from(v == "worse");
        println!(
            "{:<16} {:<12} {v:<10} {:>5} {:>12.6} {:>12.6} {:>+8.4} {:>8.4}",
            key.0,
            key.1,
            ratios.len(),
            median(&va),
            median(&vb),
            worse_by,
            spread(&ratios)
        );
    }
    Ok(i32::from(worse > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let lower = Bound {
            lower_is_better: true,
            bound: 0.1,
        };
        assert_eq!(verdict(&[1.05, 1.04, 1.06, 1.05, 1.05], &lower).0, "ok");
        assert_eq!(verdict(&[1.2, 1.21, 1.19, 1.2, 1.2], &lower).0, "worse");
        assert_eq!(verdict(&[1.0, 2.0, 0.5, 3.0, 0.2], &lower).0, "unresolved");
        assert_eq!(verdict(&[0.5, 0.9, 0.2, 0.95, 0.3], &lower).0, "ok");
        let higher = Bound {
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(verdict(&[0.8, 0.81, 0.79, 0.8, 0.8], &higher).0, "worse");
        assert_eq!(verdict(&[1.2, 1.21, 1.19, 1.2, 1.2], &higher).0, "ok");
    }

    #[test]
    fn runs_pair_by_seed() {
        let seeds = |runs: &[(&str, f64)]| -> Seeds {
            runs.iter()
                .map(|&(s, v)| (s.to_string(), vec![v]))
                .collect()
        };
        // Seeds whose values differ by 30% from each other, each 1% worse
        // in `b`: a spread of 0 among the ratios, not 30%. Seeds only one
        // side ran are left out.
        let a = seeds(&[("1", 100.0), ("2", 130.0), ("3", 115.0), ("4", 90.0)]);
        let b = seeds(&[("1", 101.0), ("2", 131.3), ("3", 116.15), ("5", 1.0)]);
        let [va, vb, ratios] = pair(&a, &b);
        assert_eq!((va.len(), vb.len()), (3, 3));
        assert!(ratios.iter().all(|r| (r - 1.01).abs() < 1e-12));
        let bound = Bound {
            lower_is_better: true,
            bound: 0.02,
        };
        assert_eq!(verdict(&ratios, &bound).0, "ok");
        let b = seeds(&[("1", 103.0), ("2", 133.9), ("3", 118.45)]);
        assert_eq!(verdict(&pair(&a, &b)[2], &bound).0, "worse");
    }
}
