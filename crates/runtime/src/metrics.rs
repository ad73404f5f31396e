//! Daemon metric types: log₂-bucket histograms, a sliding-window
//! histogram, and Prometheus text exposition with its validator.
//!
//! The partitioner reports through two channels, neither of which lives
//! here. The always-on [`crate::phase`] tally holds per-phase times and
//! five counters; trace-gated [`crate::trace`] spans and events hold the
//! rest (per-pass boundary sizes and gains, per-round grants and
//! withholds). This module holds only what `mcgp serve`'s `/metrics`
//! endpoint aggregates across requests: [`Histogram`] and
//! [`WindowedHistogram`] for request latency, and [`PromWriter`] /
//! [`validate_prometheus`] for the text exposition.

use crate::json::{Json, ToJson};
use std::collections::BTreeMap;

/// Number of histogram buckets: negatives, zero, then 32 log₂ magnitude
/// buckets (`[2^k, 2^(k+1))`).
pub const HIST_BUCKETS: usize = 34;

/// A log₂-bucket histogram over `i64` samples.
///
/// Bucket 0 counts negative samples, bucket 1 counts zeros, and bucket
/// `2 + k` counts samples in `[2^k, 2^(k+1))` — coarse enough to stay a
/// fixed-size array, fine enough to read a gain distribution's shape.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: i64,
    /// Smallest sample (0 when empty).
    pub min: i64,
    /// Largest sample (0 when empty).
    pub max: i64,
    /// Bucket occupancy (see type docs for the bucket scheme).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// The bucket index a sample falls in.
pub fn bucket_of(v: i64) -> usize {
    if v < 0 {
        0
    } else if v == 0 {
        1
    } else {
        (2 + (63 - (v as u64).leading_zeros() as usize)).min(HIST_BUCKETS - 1)
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: i64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        self.buckets[bucket_of(v)] += 1;
    }

    /// Adds `other`'s samples into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (b, ob) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += ob;
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (0 ≤ q ≤ 1), estimated from the log₂
    /// buckets: the answer is the representative value (bucket midpoint)
    /// of the bucket holding the `⌈q·count⌉`-th smallest sample, clamped
    /// to the observed `[min, max]`. Exact for q=0/q=1, within a 1.5×
    /// factor otherwise — plenty for SLO dashboards. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> i64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return self.min;
        }
        if q == 1.0 {
            return self.max;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let rep = match i {
                    0 => self.min,        // negatives: no lower bound recorded
                    1 => 0,               // the zero bucket
                    _ => {
                        let k = (i - 2) as u32;
                        // Midpoint of [2^k, 2^(k+1)): 1.5 · 2^k.
                        (1i64 << k) + (1i64 << k) / 2
                    }
                };
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// The upper (inclusive) bound of histogram bucket `i`, as Prometheus'
/// `le` value: negatives → `-1`, zero → `0`, `[2^k, 2^(k+1))` → `2^(k+1)-1`
/// (integer samples make the half-open bound inclusive), last bucket →
/// `+Inf` (it is clamped open-ended by [`bucket_of`]).
pub fn bucket_le(i: usize) -> f64 {
    match i {
        0 => -1.0,
        1 => 0.0,
        _ if i < HIST_BUCKETS - 1 => ((1u64 << (i - 1)) - 1) as f64,
        _ => f64::INFINITY,
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        // Trailing empty buckets are elided so records stay compact.
        let used = self
            .buckets
            .iter()
            .rposition(|&b| b > 0)
            .map_or(0, |i| i + 1);
        Json::obj([
            ("count", Json::UInt(self.count)),
            ("sum", Json::Int(self.sum)),
            ("min", Json::Int(self.min)),
            ("max", Json::Int(self.max)),
            (
                "buckets",
                Json::Arr(self.buckets[..used].iter().map(|&b| Json::UInt(b)).collect()),
            ),
        ])
    }
}

/// A sliding-window histogram: a lifetime [`Histogram`] plus a ring of
/// per-epoch sub-histograms, so a long-lived daemon can report both
/// "since start" and "lately" quantiles from one stream of samples.
///
/// Epochs advance **by sample count**, not wall clock — every
/// `epoch_len` samples the ring rotates and the oldest epoch is
/// forgotten. That keeps the window a deterministic function of the
/// sample sequence (the same requests produce the same window, whatever
/// the timing), matching the determinism contract everywhere else in the
/// runtime. The window therefore covers the last
/// `(epochs-1)·epoch_len + 1 ..= epochs·epoch_len` samples.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowedHistogram {
    lifetime: Histogram,
    ring: Vec<Histogram>,
    epoch_len: u64,
    /// Samples recorded into the current (head) epoch so far.
    in_epoch: u64,
    head: usize,
}

impl WindowedHistogram {
    /// A window of `epochs` ring slots, rotating every `epoch_len`
    /// samples. Both are clamped to ≥ 1.
    pub fn new(epochs: usize, epoch_len: u64) -> Self {
        WindowedHistogram {
            lifetime: Histogram::default(),
            ring: vec![Histogram::default(); epochs.max(1)],
            epoch_len: epoch_len.max(1),
            in_epoch: 0,
            head: 0,
        }
    }

    /// Records one sample into the lifetime histogram and the current
    /// epoch, rotating the ring when the epoch fills.
    pub fn record(&mut self, v: i64) {
        self.lifetime.record(v);
        self.ring[self.head].record(v);
        self.in_epoch += 1;
        if self.in_epoch >= self.epoch_len {
            self.head = (self.head + 1) % self.ring.len();
            self.ring[self.head] = Histogram::default();
            self.in_epoch = 0;
        }
    }

    /// The lifetime histogram (all samples since construction).
    pub fn lifetime(&self) -> &Histogram {
        &self.lifetime
    }

    /// The merged window: every live epoch, oldest to newest. Epoch
    /// boundaries don't affect the merge (histogram merge is
    /// commutative), so this is a pure function of the recent samples.
    pub fn window(&self) -> Histogram {
        let mut out = Histogram::default();
        for h in &self.ring {
            out.merge(h);
        }
        out
    }

    /// Ring size in epochs.
    pub fn epochs(&self) -> usize {
        self.ring.len()
    }

    /// Samples per epoch.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }
}

// --- Prometheus text exposition (format 0.0.4) -----------------------------

fn prom_escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn prom_value(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf".into() } else { "-Inf".into() }
    } else if v.is_nan() {
        "NaN".into()
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn prom_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

/// Builds a Prometheus text-exposition (format 0.0.4) document. Each
/// metric family gets `# HELP` / `# TYPE` headers the first time it is
/// written; repeated writes of the same family (different label sets)
/// must be consecutive, as the format requires — [`validate_prometheus`]
/// enforces both rules, mirroring how the trace validators re-check
/// written traces.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
    seen: std::collections::BTreeSet<String>,
}

impl PromWriter {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if self.seen.insert(name.to_string()) {
            self.out.push_str(&format!("# HELP {name} {help}\n"));
            self.out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
    }

    /// Writes one counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.header(name, help, "counter");
        self.out
            .push_str(&format!("{name}{} {value}\n", prom_labels(labels)));
    }

    /// Writes one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.header(name, help, "gauge");
        self.out
            .push_str(&format!("{name}{} {}\n", prom_labels(labels), prom_value(value)));
    }

    /// Writes one histogram family member: cumulative `_bucket` series
    /// over the log₂ bucket bounds (ending in `+Inf`), plus `_sum` and
    /// `_count`. `scale` converts recorded integer samples to the exported
    /// unit (e.g. `1e-6` to export microsecond samples as seconds).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        h: &Histogram,
        scale: f64,
    ) {
        self.header(name, help, "histogram");
        let mut cumulative = 0u64;
        for (i, &b) in h.buckets.iter().enumerate() {
            cumulative += b;
            // Leading empty bounds carry no information; always keep +Inf.
            if cumulative == 0 && i != HIST_BUCKETS - 1 {
                continue;
            }
            let raw = bucket_le(i);
            let le = if raw.is_finite() { raw * scale } else { raw };
            let mut bucket_labels: Vec<(&str, &str)> = labels.to_vec();
            let le_s = prom_value(le);
            bucket_labels.push(("le", &le_s));
            self.out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                prom_labels(&bucket_labels)
            ));
        }
        self.out.push_str(&format!(
            "{name}_sum{} {}\n",
            prom_labels(labels),
            prom_value(h.sum as f64 * scale)
        ));
        self.out
            .push_str(&format!("{name}_count{} {}\n", prom_labels(labels), h.count));
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// A parsed sample line: metric name, label pairs, value.
type Sample = (String, Vec<(String, String)>, f64);

/// Splits a sample line into its parts, honouring escapes inside label
/// values.
fn parse_sample(line: &str, no: usize) -> Result<Sample, String> {
    let (name_part, rest) = match line.find('{') {
        Some(b) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("line {no}: unclosed label braces"))?;
            (&line[..b], Some((&line[b + 1..close], &line[close + 1..])))
        }
        None => (
            line.split_whitespace()
                .next()
                .ok_or_else(|| format!("line {no}: empty sample"))?,
            None,
        ),
    };
    let name = name_part.trim().to_string();
    if !valid_metric_name(&name) {
        return Err(format!("line {no}: invalid metric name `{name}`"));
    }
    let (labels_text, value_text) = match rest {
        Some((l, v)) => (l, v),
        None => ("", line[name_part.len()..].trim_start()),
    };
    let mut labels = Vec::new();
    if !labels_text.is_empty() {
        let mut chars = labels_text.chars().peekable();
        loop {
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if c == '=' {
                    break;
                }
                key.push(c);
                chars.next();
            }
            if chars.next() != Some('=') || chars.next() != Some('"') {
                return Err(format!("line {no}: malformed label pair"));
            }
            let key = key.trim().to_string();
            if !valid_metric_name(&key) {
                return Err(format!("line {no}: invalid label name `{key}`"));
            }
            let mut val = String::new();
            loop {
                match chars.next() {
                    Some('\\') => match chars.next() {
                        Some('\\') => val.push('\\'),
                        Some('"') => val.push('"'),
                        Some('n') => val.push('\n'),
                        _ => return Err(format!("line {no}: bad escape in label value")),
                    },
                    Some('"') => break,
                    Some(c) => val.push(c),
                    None => return Err(format!("line {no}: unterminated label value")),
                }
            }
            labels.push((key, val));
            match chars.next() {
                Some(',') => continue,
                None => break,
                Some(c) => return Err(format!("line {no}: unexpected `{c}` after label")),
            }
        }
    }
    let value_text = value_text.trim();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        t => t
            .split_whitespace()
            .next()
            .unwrap_or("")
            .parse::<f64>()
            .map_err(|_| format!("line {no}: invalid sample value `{t}`"))?,
    };
    Ok((name, labels, value))
}

/// Validates a Prometheus text-exposition document the way
/// [`crate::trace::validate_jsonl`] validates traces. Checks: metric and
/// label names are well-formed; every sample's family has a `# TYPE`
/// declared *before* it and exactly once; families are contiguous (no
/// interleaving); counter samples are finite and non-negative; histogram
/// families have strictly increasing `le` bounds per label set with
/// cumulative non-decreasing bucket values, a `+Inf` bucket, a `_sum`,
/// and `_count == +Inf` count. Returns the number of sample lines.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    #[derive(Default)]
    struct HistState {
        // Keyed by the label set minus `le`.
        buckets: BTreeMap<String, Vec<(f64, f64)>>,
        counts: BTreeMap<String, f64>,
        sums: BTreeMap<String, f64>,
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();
    let mut current_family: Option<String> = None;
    let mut closed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let mut samples = 0usize;

    let family_of = |name: &str, types: &BTreeMap<String, String>| -> String {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if types.get(base).map(String::as_str) == Some("histogram") {
                    return base.to_string();
                }
            }
        }
        name.to_string()
    };

    for (no, raw) in text.lines().enumerate() {
        let no = no + 1;
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it
                .next()
                .ok_or_else(|| format!("line {no}: TYPE without name"))?;
            let kind = it
                .next()
                .ok_or_else(|| format!("line {no}: TYPE without kind"))?;
            if !valid_metric_name(name) {
                return Err(format!("line {no}: invalid metric name `{name}`"));
            }
            if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                return Err(format!("line {no}: unknown metric type `{kind}`"));
            }
            if types.insert(name.to_string(), kind.to_string()).is_some() {
                return Err(format!("line {no}: duplicate TYPE for `{name}`"));
            }
            if let Some(prev) = current_family.replace(name.to_string()) {
                closed.insert(prev);
            }
            if closed.contains(name) {
                return Err(format!("line {no}: family `{name}` reopened"));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        let (name, labels, value) = parse_sample(line, no)?;
        let family = family_of(&name, &types);
        let kind = types
            .get(&family)
            .ok_or_else(|| format!("line {no}: sample `{name}` precedes its TYPE"))?
            .clone();
        if current_family.as_deref() != Some(family.as_str()) {
            if closed.contains(&family) {
                return Err(format!("line {no}: family `{family}` not contiguous"));
            }
            if let Some(prev) = current_family.replace(family.clone()) {
                closed.insert(prev);
            }
            if closed.contains(&family) {
                return Err(format!("line {no}: family `{family}` not contiguous"));
            }
        }
        match kind.as_str() {
            "counter" if !value.is_finite() || value < 0.0 => {
                return Err(format!("line {no}: counter `{name}` value {value} invalid"));
            }
            "histogram" => {
                let st = hists.entry(family.clone()).or_default();
                let mut base_labels: Vec<(String, String)> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .cloned()
                    .collect();
                base_labels.sort();
                let key = base_labels
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",");
                if name.ends_with("_bucket") {
                    let le_text = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.as_str())
                        .ok_or_else(|| format!("line {no}: bucket without le label"))?;
                    let le = match le_text {
                        "+Inf" => f64::INFINITY,
                        t => t
                            .parse::<f64>()
                            .map_err(|_| format!("line {no}: bad le `{t}`"))?,
                    };
                    st.buckets.entry(key).or_default().push((le, value));
                } else if name.ends_with("_sum") {
                    st.sums.insert(key, value);
                } else if name.ends_with("_count") {
                    st.counts.insert(key, value);
                } else {
                    return Err(format!(
                        "line {no}: bare sample `{name}` in histogram family"
                    ));
                }
            }
            _ => {}
        }
        samples += 1;
    }

    for (family, st) in &hists {
        for (key, series) in &st.buckets {
            let mut last_le = f64::NEG_INFINITY;
            let mut last_v = -1.0;
            for &(le, v) in series {
                if le <= last_le {
                    return Err(format!(
                        "histogram `{family}`{{{key}}}: le bounds not increasing"
                    ));
                }
                if v < last_v {
                    return Err(format!(
                        "histogram `{family}`{{{key}}}: cumulative buckets decrease"
                    ));
                }
                last_le = le;
                last_v = v;
            }
            let Some(&(inf_le, inf_v)) = series.last() else {
                return Err(format!("histogram `{family}`{{{key}}}: no buckets"));
            };
            if !inf_le.is_infinite() {
                return Err(format!("histogram `{family}`{{{key}}}: missing +Inf bucket"));
            }
            let count = st
                .counts
                .get(key)
                .ok_or_else(|| format!("histogram `{family}`{{{key}}}: missing _count"))?;
            if (count - inf_v).abs() > 1e-9 {
                return Err(format!(
                    "histogram `{family}`{{{key}}}: _count {count} != +Inf bucket {inf_v}"
                ));
            }
            if !st.sums.contains_key(key) {
                return Err(format!("histogram `{family}`{{{key}}}: missing _sum"));
            }
        }
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_scheme_covers_int_range() {
        assert_eq!(bucket_of(-5), 0);
        assert_eq!(bucket_of(0), 1);
        assert_eq!(bucket_of(1), 2);
        assert_eq!(bucket_of(2), 3);
        assert_eq!(bucket_of(3), 3);
        assert_eq!(bucket_of(4), 4);
        assert_eq!(bucket_of(i64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_samples_add_and_merge() {
        let mut a = Histogram::default();
        a.record(-1);
        a.record(0);
        a.record(5);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 4);
        assert_eq!(a.min, -1);
        assert_eq!(a.max, 5);
        let mut b = Histogram::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.max, 100);
        let empty = Histogram::default();
        let before = a.clone();
        a.merge(&empty);
        assert_eq!(a, before);
    }

    #[test]
    fn quantile_tracks_bucket_midpoints_and_extremes() {
        let mut h = Histogram::default();
        for v in [1i64, 1, 1, 1000, 1000, 1000, 1000, 1000, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100_000);
        // p50 lands in the [512,1024) bucket; midpoint 768.
        assert_eq!(h.quantile(0.5), 768);
        // Estimates never leave the observed range.
        assert!(h.quantile(0.99) <= h.max && h.quantile(0.01) >= h.min);
        assert_eq!(Histogram::default().quantile(0.5), 0);
        let mut one = Histogram::default();
        one.record(7);
        assert_eq!(one.quantile(0.5), 7);
    }

    #[test]
    fn windowed_histogram_forgets_old_epochs_deterministically() {
        let mut w = WindowedHistogram::new(4, 8);
        // 64 slow samples, then 32 fast ones: the 4×8 window holds only
        // fast samples once 25+ fast samples have displaced the slow era.
        for _ in 0..64 {
            w.record(5000);
        }
        for _ in 0..32 {
            w.record(10);
        }
        assert_eq!(w.lifetime().count, 96);
        assert_eq!(w.lifetime().max, 5000);
        let win = w.window();
        assert!(win.count <= 4 * 8);
        assert_eq!(win.max, 10, "window converged to steady-state samples");
        assert_eq!(win.quantile(0.99), 10);
        // Replaying the same sample sequence reproduces the same window.
        let mut w2 = WindowedHistogram::new(4, 8);
        for _ in 0..64 {
            w2.record(5000);
        }
        for _ in 0..32 {
            w2.record(10);
        }
        assert_eq!(w.window(), w2.window());
    }

    #[test]
    fn prom_writer_roundtrips_through_validator() {
        let mut h = Histogram::default();
        for v in [3i64, 90, 1500, 1500, 40_000] {
            h.record(v);
        }
        let mut w = PromWriter::new();
        w.counter("mcgp_requests_total", "Total requests.", &[("route", "partition")], 10);
        w.counter("mcgp_requests_total", "Total requests.", &[("route", "metrics")], 4);
        w.gauge("mcgp_cache_bytes", "Cache size.", &[], 123.0);
        w.gauge("mcgp_hit_ratio", "Hits over lookups.", &[], 0.75);
        w.histogram("mcgp_latency_seconds", "Request latency.", &[], &h, 1e-6);
        let text = w.finish();
        let n = validate_prometheus(&text).expect(&text);
        assert!(n >= 4, "{text}");
        assert!(text.contains("# TYPE mcgp_latency_seconds histogram"), "{text}");
        assert!(text.contains("mcgp_latency_seconds_bucket{le=\"+Inf\"} 5"), "{text}");
        assert!(text.contains("mcgp_latency_seconds_count 5"), "{text}");
        assert!(text.contains("mcgp_requests_total{route=\"partition\"} 10"), "{text}");
        // Headers are emitted once per family even with two label rows.
        assert_eq!(text.matches("# TYPE mcgp_requests_total").count(), 1);
    }

    #[test]
    fn prom_validator_rejects_malformed_documents() {
        // Sample before its TYPE.
        assert!(validate_prometheus("a_total 3\n").is_err());
        // Negative counter.
        let neg = "# TYPE a_total counter\na_total -1\n";
        assert!(validate_prometheus(neg).is_err());
        // Interleaved families.
        let interleaved = "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na 2\n";
        assert!(validate_prometheus(interleaved).unwrap_err().contains("contiguous"));
        // Histogram without +Inf.
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prometheus(no_inf).unwrap_err().contains("+Inf"));
        // Decreasing cumulative buckets.
        let dec = "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n";
        assert!(validate_prometheus(dec).unwrap_err().contains("decrease"));
        // _count disagrees with +Inf.
        let cnt = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n";
        assert!(validate_prometheus(cnt).unwrap_err().contains("_count"));
        // Bad metric name.
        assert!(validate_prometheus("# TYPE 9bad counter\n9bad 1\n").is_err());
        // Escaped label values parse.
        let esc = "# TYPE g gauge\ng{path=\"a\\\"b\\\\c\"} 1\n";
        assert_eq!(validate_prometheus(esc).unwrap(), 1);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut h = Histogram::default();
        h.record(3);
        let s = h.to_json().to_string();
        assert_eq!(
            s,
            "{\"count\":1,\"sum\":3,\"min\":3,\"max\":3,\"buckets\":[0,0,0,1]}"
        );
    }
}
