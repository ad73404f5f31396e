//! Self-contained benchmark harness for the paper-table benchmarks in
//! `benches/` (one target per table/figure, see `Cargo.toml`).
//!
//! Each benchmark binary builds a [`Bench`] from its command line, then
//! times closures with [`Bench::run`]: one warmup call, a fixed number of
//! timed samples, and one JSONL record per benchmark on stdout
//! (median/min/max wall seconds) with a human-readable line on stderr.
//! Runs are plain wall-clock medians — no statistical machinery, no
//! external dependencies — which is enough to track order-of-magnitude
//! regressions in the partitioning phases.

use mcgp_runtime::Json;
use std::hint::black_box;
use std::time::Instant;

/// A benchmark session: sample count, an optional name filter, and whether
/// to collect trace-event counts alongside the timings.
pub struct Bench {
    samples: usize,
    filter: Option<String>,
    trace: bool,
}

impl Bench {
    /// Builds a session from the process arguments, as `cargo bench`
    /// invokes a `harness = false` target: `--samples <n>` overrides the
    /// default of 10, `--trace` attaches per-event-name trace counts to
    /// every record, a bare argument filters benchmarks by substring of
    /// `group/name`, and cargo's own flags (`--bench`, `--exact`) are
    /// ignored.
    pub fn from_args() -> Bench {
        let mut samples = 10usize;
        let mut filter = None;
        let mut trace = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--samples" => {
                    samples = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or(samples)
                }
                "--trace" => trace = true,
                "--bench" | "--exact" => {}
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                _ => {}
            }
        }
        Bench {
            samples,
            filter,
            trace,
        }
    }

    /// Session with an explicit sample count (tests).
    pub fn with_samples(samples: usize) -> Bench {
        Bench {
            samples: samples.max(1),
            filter: None,
            trace: false,
        }
    }

    /// Enables or disables per-record trace-event counts (tests).
    pub fn with_trace(mut self, on: bool) -> Bench {
        self.trace = on;
        self
    }

    /// Times `f`: one warmup call, then `samples` timed calls. Emits the
    /// `group/name` record as one JSONL line on stdout and a summary line
    /// on stderr. Returns the median seconds (`None` when filtered out).
    pub fn run<T>(&self, group: &str, name: &str, mut f: impl FnMut() -> T) -> Option<f64> {
        let id = format!("{group}/{name}");
        if let Some(flt) = &self.filter {
            if !id.contains(flt.as_str()) {
                return None;
            }
        }
        black_box(f()); // warmup
                        // With --trace, the warmup's events are discarded and tracing stays
                        // on for the timed samples; the per-event-name counts of all samples
                        // are attached to the record. Timings then include the (small)
                        // tracing overhead — comparable across benchmarks, not with runs
                        // that have tracing off.
        let mut event_counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        if self.trace {
            mcgp_runtime::trace::set_enabled(true);
            let _ = mcgp_runtime::trace::take_local();
        }
        let times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t0 = Instant::now();
                black_box(f());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        if self.trace {
            mcgp_runtime::trace::set_enabled(false);
            for ev in mcgp_runtime::trace::take_local() {
                *event_counts.entry(ev.name).or_insert(0) += 1;
            }
        }
        Some(self.emit(&id, times, event_counts))
    }

    /// Times a family of closures as one interleaved session: every kept
    /// variant is warmed up once, then each sample round makes one timed
    /// call per variant, cycling round-robin. Rows produced this way are
    /// meant to be *compared with each other* — the `bench-gate`
    /// threads-win rule pits `_tN` medians against their `_t1` sibling —
    /// and on a shared host a machine-wide slow window then lands in the
    /// same round of every variant instead of poisoning one variant's
    /// consecutive samples. Emits the same per-variant records as
    /// [`Bench::run`], in variant order. Closures must [`black_box`] their
    /// own results.
    pub fn run_variants(
        &self,
        group: &str,
        mut variants: Vec<(String, Box<dyn FnMut() + '_>)>,
    ) -> Vec<Option<f64>> {
        let ids: Vec<String> = variants
            .iter()
            .map(|(name, _)| format!("{group}/{name}"))
            .collect();
        let keep: Vec<bool> = ids
            .iter()
            .map(|id| {
                self.filter
                    .as_ref()
                    .is_none_or(|flt| id.contains(flt.as_str()))
            })
            .collect();
        for (i, (_, f)) in variants.iter_mut().enumerate() {
            if keep[i] {
                f(); // warmup
            }
        }
        let n = variants.len();
        let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(self.samples); n];
        let mut event_counts: Vec<std::collections::BTreeMap<&'static str, u64>> =
            vec![std::collections::BTreeMap::new(); n];
        if self.trace {
            mcgp_runtime::trace::set_enabled(true);
            let _ = mcgp_runtime::trace::take_local();
        }
        for _ in 0..self.samples {
            for (i, (_, f)) in variants.iter_mut().enumerate() {
                if !keep[i] {
                    continue;
                }
                let t0 = Instant::now();
                f();
                times[i].push(t0.elapsed().as_secs_f64());
                if self.trace {
                    for ev in mcgp_runtime::trace::take_local() {
                        *event_counts[i].entry(ev.name).or_insert(0) += 1;
                    }
                }
            }
        }
        if self.trace {
            mcgp_runtime::trace::set_enabled(false);
        }
        ids.iter()
            .zip(times)
            .zip(event_counts)
            .zip(keep)
            .map(|(((id, t), ev), k)| k.then(|| self.emit(id, t, ev)))
            .collect()
    }

    /// Sorts one benchmark's samples, prints its JSONL record and stderr
    /// summary, and returns the median.
    fn emit(
        &self,
        id: &str,
        mut times: Vec<f64>,
        event_counts: std::collections::BTreeMap<&'static str, u64>,
    ) -> f64 {
        times.sort_by(f64::total_cmp);
        let median = if times.len() % 2 == 1 {
            times[times.len() / 2]
        } else {
            (times[times.len() / 2 - 1] + times[times.len() / 2]) / 2.0
        };
        let (min, max) = (times[0], *times.last().unwrap());
        let mut record = Json::obj([
            ("bench", Json::Str(id.to_string())),
            ("samples", Json::UInt(self.samples as u64)),
            ("median_s", Json::Float(median)),
            ("min_s", Json::Float(min)),
            ("max_s", Json::Float(max)),
        ]);
        if self.trace {
            let counts = Json::Obj(
                event_counts
                    .into_iter()
                    .map(|(name, n)| (name.to_string(), Json::UInt(n)))
                    .collect(),
            );
            if let Json::Obj(fields) = &mut record {
                fields.push(("trace_events".to_string(), counts));
            }
        }
        println!("{record}");
        eprintln!(
            "{id:<44} median {median:>9.4}s  min {min:>9.4}s  max {max:>9.4}s  n={}",
            self.samples
        );
        median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_reports_a_positive_median() {
        let b = Bench::with_samples(3);
        let m = b.run("test", "spin", || {
            let mut x = 0u64;
            for i in 0..1000 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert!(m.is_some_and(|m| m >= 0.0));
    }

    #[test]
    fn trace_mode_collects_and_drains_events() {
        let b = Bench::with_samples(2).with_trace(true);
        let m = b.run("test", "traced", || {
            mcgp_runtime::event!("bench_tick", i = 1u64);
            1
        });
        assert!(m.is_some());
        // run() turns tracing back off and drains the buffer it counted.
        assert!(!mcgp_runtime::trace::enabled());
        assert!(mcgp_runtime::trace::take_local().is_empty());
    }

    #[test]
    fn run_variants_interleaves_and_reports_all() {
        let b = Bench::with_samples(3);
        let calls = std::cell::RefCell::new(String::new());
        let medians = b.run_variants(
            "test",
            vec![
                (
                    "a".to_string(),
                    Box::new(|| calls.borrow_mut().push('a')) as Box<dyn FnMut()>,
                ),
                (
                    "b".to_string(),
                    Box::new(|| calls.borrow_mut().push('b')) as Box<dyn FnMut()>,
                ),
            ],
        );
        assert_eq!(medians.len(), 2);
        assert!(medians.iter().all(|m| m.is_some_and(|m| m >= 0.0)));
        // One warmup each, then three rounds of (a, b) — interleaved, not
        // consecutive per variant.
        assert_eq!(*calls.borrow(), "abababab");
    }

    #[test]
    fn run_variants_respects_the_filter() {
        let b = Bench {
            samples: 2,
            filter: Some("only".to_string()),
            trace: false,
        };
        let medians = b.run_variants(
            "test",
            vec![
                ("only-this".to_string(), Box::new(|| ()) as Box<dyn FnMut()>),
                ("other".to_string(), Box::new(|| ()) as Box<dyn FnMut()>),
            ],
        );
        assert!(medians[0].is_some());
        assert!(medians[1].is_none());
    }

    #[test]
    fn filter_skips_nonmatching_names() {
        let b = Bench {
            samples: 1,
            filter: Some("only-this".to_string()),
            trace: false,
        };
        assert!(b.run("test", "other", || 1).is_none());
        assert!(b.run("test", "only-this", || 1).is_some());
    }
}
