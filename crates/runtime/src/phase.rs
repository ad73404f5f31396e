//! Per-phase wall time and behavioural counters: the always-on tally
//! behind [`PhaseReport`].
//!
//! Multilevel partitioning has a natural phase structure (coarsen →
//! initial → refine), and both the paper's tables and day-to-day
//! performance work need the per-phase wall-time split plus a handful of
//! behavioural counters (moves attempted/committed, matching conflicts).
//! Threading an explicit stats object through every call signature would
//! make instrumentation the most invasive part of the codebase, so the
//! tally lives in a thread-local instead. Time has exactly one source: a
//! span tagged with a phase (`span!(Phase::Coarsen, …)`, see
//! [`crate::trace`]) adds its duration here when it closes, whether or not
//! tracing is on. Counters come from leaf code via [`counter_add`]. Drivers
//! drain the tally with [`take_local`] (or [`PhaseReport::capture`]), and
//! [`crate::pool`] merges worker-thread tallies back into the caller so
//! parallel regions stay observable.

use crate::json::{Json, ToJson};
use std::cell::RefCell;

/// Declares a dense tally enum and its single source-of-truth name table.
/// Variant order *is* the index (`repr(usize)`), so index and name can
/// never drift apart the way hand-written `match` tables can.
macro_rules! tally_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $Enum:ident {
            $($(#[$vmeta:meta])* $Var:ident => $name:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        $vis enum $Enum {
            $($(#[$vmeta])* $Var,)+
        }

        impl $Enum {
            /// Every variant, in declaration order.
            pub const ALL: &'static [$Enum] = &[$($Enum::$Var,)+];
            /// Stable names, aligned with [`Self::ALL`].
            pub const NAMES: &'static [&'static str] = &[$($name,)+];
            /// Number of variants.
            pub const COUNT: usize = Self::NAMES.len();

            /// Dense index: declaration order.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable name used in reports and JSON keys.
            pub fn name(self) -> &'static str {
                Self::NAMES[self as usize]
            }
        }
    };
}

tally_enum! {
    /// A timed phase of a partitioning run.
    pub enum Phase {
        /// Coarsening: matching + contraction, all levels.
        Coarsen => "coarsen",
        /// Initial partitioning of the coarsest graph.
        Initial => "initial",
        /// Uncoarsening: projection + refinement + balancing, all levels.
        Refine => "refine",
    }
}

tally_enum! {
    /// A monotonic behavioural counter.
    pub enum Counter {
        /// Refinement moves evaluated against the balance model.
        MovesAttempted => "moves_attempted",
        /// Refinement moves actually applied.
        MovesCommitted => "moves_committed",
        /// Parallel matching proposals that lost grant arbitration or were
        /// withheld by the reservation scheme.
        MatchConflicts => "match_conflicts",
        /// Vertices paired by matching, summed over coarsening levels.
        VerticesMatched => "vertices_matched",
        /// Coarsening levels abandoned because contraction stalled.
        ContractionAborts => "contraction_aborts",
    }
}

/// Accumulated per-phase wall time and counters for one run (or one
/// aggregation of runs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseReport {
    times_ns: [u64; Phase::COUNT],
    counters: [u64; Counter::COUNT],
}

impl PhaseReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall time attributed to `phase`, in nanoseconds: the summed
    /// durations of the spans tagged with it.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.times_ns[phase.index()]
    }

    /// Wall time attributed to `phase`, in seconds.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.nanos(phase) as f64 * 1e-9
    }

    /// Current value of `counter`.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter.index()]
    }

    /// Adds `other`'s times and counters into this report.
    pub fn merge(&mut self, other: &PhaseReport) {
        for i in 0..self.times_ns.len() {
            self.times_ns[i] += other.times_ns[i];
        }
        for i in 0..self.counters.len() {
            self.counters[i] += other.counters[i];
        }
    }

    /// One-line human-readable summary, e.g.
    /// `coarsen 0.012s | initial 0.003s | refine 0.020s | moves 812/1024 | conflicts 3 | matched 5820`.
    pub fn render(&self) -> String {
        format!(
            "coarsen {:.3}s | initial {:.3}s | refine {:.3}s | moves {}/{} | conflicts {} | matched {}",
            self.seconds(Phase::Coarsen),
            self.seconds(Phase::Initial),
            self.seconds(Phase::Refine),
            self.counter(Counter::MovesCommitted),
            self.counter(Counter::MovesAttempted),
            self.counter(Counter::MatchConflicts),
            self.counter(Counter::VerticesMatched),
        )
    }

    /// Runs `f` against a clean thread-local tally and returns `f`'s result
    /// together with exactly the tally `f` produced. Whatever was in the
    /// tally beforehand is preserved (restored after the capture), so
    /// drivers no longer need the `let _ = take_local()` reset dance.
    pub fn capture<T>(f: impl FnOnce() -> T) -> (T, PhaseReport) {
        let prior = take_local();
        let out = f();
        let report = take_local();
        merge_local(&prior);
        (out, report)
    }
}

impl ToJson for PhaseReport {
    fn to_json(&self) -> Json {
        let mut obj: Vec<(String, Json)> = Vec::new();
        for &p in Phase::ALL {
            obj.push((format!("{}_s", p.name()), Json::Float(self.seconds(p))));
        }
        for &c in Counter::ALL {
            obj.push((c.name().to_string(), Json::UInt(self.counter(c))));
        }
        Json::Obj(obj)
    }
}

thread_local! {
    static LOCAL: RefCell<PhaseReport> = RefCell::new(PhaseReport::new());
}

/// Adds `n` to `counter` in the current thread's tally.
#[inline]
pub fn counter_add(counter: Counter, n: u64) {
    if n > 0 {
        LOCAL.with(|l| l.borrow_mut().counters[counter.index()] += n);
    }
}

/// Adds a closing phase-tagged span's duration to `phase` in the current
/// thread's tally (called only from [`crate::trace::Span`]'s drop).
pub(crate) fn add_span_ns(phase: Phase, ns: u64) {
    LOCAL.with(|l| l.borrow_mut().times_ns[phase.index()] += ns);
}

/// Drains and returns the current thread's tally (drivers call this right
/// after a run; call it before the run too if earlier activity on the
/// thread must not leak in).
pub fn take_local() -> PhaseReport {
    LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// Adds `report` into the current thread's tally (used by the pool to
/// forward worker tallies, and by drivers aggregating sub-runs).
pub fn merge_local(report: &PhaseReport) {
    LOCAL.with(|l| l.borrow_mut().merge(report));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tagged_span_attributes_wall_time() {
        let _ = take_local();
        {
            let _s = crate::span!(Phase::Coarsen);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let r = take_local();
        assert!(r.seconds(Phase::Coarsen) >= 0.004, "{}", r.seconds(Phase::Coarsen));
        assert_eq!(r.seconds(Phase::Refine), 0.0);
    }

    #[test]
    fn counters_accumulate_and_drain() {
        let _ = take_local();
        counter_add(Counter::MovesAttempted, 3);
        counter_add(Counter::MovesAttempted, 2);
        counter_add(Counter::MovesCommitted, 1);
        let r = take_local();
        assert_eq!(r.counter(Counter::MovesAttempted), 5);
        assert_eq!(r.counter(Counter::MovesCommitted), 1);
        // Drained: a second take sees a fresh tally.
        assert_eq!(take_local(), PhaseReport::new());
    }

    #[test]
    fn merge_sums_fields() {
        let mut a = PhaseReport::new();
        a.times_ns[0] = 10;
        a.counters[1] = 4;
        let mut b = PhaseReport::new();
        b.times_ns[0] = 5;
        b.counters[1] = 6;
        a.merge(&b);
        assert_eq!(a.times_ns[0], 15);
        assert_eq!(a.counters[1], 10);
    }

    #[test]
    fn report_serialises_with_stable_keys() {
        let _ = take_local();
        counter_add(Counter::MatchConflicts, 7);
        let s = take_local().to_json().to_string();
        assert!(s.contains("\"coarsen_s\":"), "{s}");
        assert!(s.contains("\"match_conflicts\":7"), "{s}");
    }

    #[test]
    fn capture_isolates_and_preserves_prior_tally() {
        let _ = take_local();
        counter_add(Counter::MovesCommitted, 11); // pre-existing activity
        let (out, report) = PhaseReport::capture(|| {
            counter_add(Counter::MovesAttempted, 4);
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(report.counter(Counter::MovesAttempted), 4);
        assert_eq!(report.counter(Counter::MovesCommitted), 0, "prior tally leaked in");
        let rest = take_local();
        assert_eq!(rest.counter(Counter::MovesCommitted), 11, "prior tally lost");
    }

    #[test]
    fn enum_tables_are_aligned() {
        for (i, (&v, &n)) in Phase::ALL.iter().zip(Phase::NAMES).enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(v.name(), n);
        }
        for (i, (&v, &n)) in Counter::ALL.iter().zip(Counter::NAMES).enumerate() {
            assert_eq!(v.index(), i);
            assert_eq!(v.name(), n);
        }
        assert_eq!(Counter::COUNT, 5);
    }

    #[test]
    fn render_mentions_every_phase() {
        let r = PhaseReport::new();
        let s = r.render();
        for key in ["coarsen", "initial", "refine", "moves", "conflicts"] {
            assert!(s.contains(key), "{s}");
        }
    }
}
