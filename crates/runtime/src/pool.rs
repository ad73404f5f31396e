//! Scoped worker pool over index ranges.
//!
//! The BSP partitioner's supersteps all have the same shape: `p`
//! independent units of work whose outputs must be merged *in unit order*
//! so that parallel execution never changes the result. [`map`] and
//! [`for_each`] provide exactly that: work units are claimed from a shared
//! atomic counter (so uneven units balance), results land in their own
//! slot, and whatever a worker's thread-locals gathered — [`crate::phase`]
//! time and counters, trace events, metrics — is merged back into the
//! caller's as one bundle, so instrumented code deep inside a work unit
//! needs no plumbing to stay observable.
//!
//! Thread count: `min(available_parallelism, units)`, overridable with the
//! `MCGP_THREADS` environment variable (`MCGP_THREADS=1` forces serial
//! execution, which is also the fallback for tiny inputs; a value above
//! `available_parallelism` deliberately oversubscribes, so multi-thread
//! merge paths are testable on small machines).
//!
//! For *task-tree* parallelism — recursive bisection runs the two halves
//! of each split as independent tasks — [`join`] runs two closures,
//! spawning the second on a scoped thread only when the process-wide
//! worker budget has room. The budget (a live-worker count capped at
//! `MCGP_THREADS` / `available_parallelism`) is shared with [`map`], so
//! nested parallel regions anywhere in a task tree degrade to inline
//! execution instead of oversubscribing the pool, and no caller ever
//! blocks waiting for a slot — there is no deadlock to have. Spawning decisions never affect results: `join` always returns
//! `(a(), b())` and merges thread-local tallies in that fixed order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Live pool worker threads across the whole process (spawned by [`map`]
/// or [`join`], released when their region ends). The cap is re-read from
/// the environment per region, so only the *count* is global state.
static LIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The process-wide worker-thread cap: `MCGP_THREADS` if set, else
/// `available_parallelism`.
fn worker_cap() -> usize {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::var("MCGP_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw)
}

/// Reserves up to `want` worker slots subject to `LIVE_WORKERS <= cap`,
/// returning a guard holding however many were granted (possibly zero).
/// Never blocks: a region that gets no slots runs inline.
fn reserve_workers(want: usize, cap: usize) -> BudgetGuard {
    if want == 0 {
        return BudgetGuard(0);
    }
    let mut granted = 0usize;
    let _ = LIVE_WORKERS.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
        granted = want.min(cap.saturating_sub(cur));
        if granted == 0 {
            None
        } else {
            Some(cur + granted)
        }
    });
    BudgetGuard(granted)
}

/// RAII release of reserved worker slots (releases on unwind too, so a
/// panicking region caught upstream does not leak budget).
struct BudgetGuard(usize);

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        if self.0 > 0 {
            LIVE_WORKERS.fetch_sub(self.0, Ordering::Relaxed);
        }
    }
}

/// Live pool worker threads right now — observability for the budget
/// regression tests; not part of the stable API.
#[doc(hidden)]
pub fn live_workers() -> usize {
    LIVE_WORKERS.load(Ordering::Relaxed)
}

/// Everything a worker thread's thread-locals accumulated during its share
/// of a parallel region: phase tally (tagged-span time and counters), trace
/// events, and metrics.
struct WorkerReport {
    phase: crate::phase::PhaseReport,
    events: Vec<crate::trace::TraceEvent>,
    metrics: crate::metrics::MetricsReport,
}

impl WorkerReport {
    /// Drains the current thread's tallies. On a fresh worker thread they
    /// hold exactly this worker's share.
    fn take() -> Self {
        WorkerReport {
            phase: crate::phase::take_local(),
            events: crate::trace::take_local(),
            metrics: crate::metrics::take_local(),
        }
    }

    /// Adds the bundle into the current thread's tallies.
    fn merge(self) {
        crate::phase::merge_local(&self.phase);
        crate::trace::merge_local(self.events);
        crate::metrics::merge_local(&self.metrics);
    }
}

/// Number of worker threads a parallel region will use for `units` work
/// units: `min(units, available_parallelism)`. An explicit `MCGP_THREADS`
/// replaces `available_parallelism` outright (it may oversubscribe the
/// hardware — determinism never depends on the physical thread count, only
/// on the unit count, so this is purely a scheduling choice).
pub(crate) fn threads_for(units: usize) -> usize {
    worker_cap().min(units).max(1)
}

/// Applies `f` to every index in `0..n` on the pool and returns the
/// results **in index order**. `f` must be safe to call concurrently from
/// several threads; determinism of the merged output is guaranteed by the
/// ordered merge, not by scheduling.
pub fn map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads_for(n) <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Reserve worker slots from the process-wide budget; a region nested
    // inside an already-saturated task tree gets none and runs inline.
    let budget = reserve_workers(threads_for(n), worker_cap());
    let nthreads = budget.0;
    if nthreads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    // Workers adopt the spawning thread's published span stack as a
    // prefix, so profiler samples taken on a worker attribute its time
    // under the span that dispatched the parallel region.
    let profile_prefix = crate::profile::current_stack_ids();
    let mut buckets: Vec<Vec<(usize, T)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..nthreads)
            .map(|w| {
                let f = &f;
                let next = &next;
                let profile_prefix = &profile_prefix;
                scope.spawn(move || {
                    let _pg = crate::profile::adopt_stack(profile_prefix);
                    let start = std::time::Instant::now();
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    if crate::trace::enabled() {
                        // Per-worker timing: busy time and units claimed,
                        // so a trace shows scheduling skew across workers.
                        crate::event!(
                            "pool_worker",
                            worker = w,
                            units = local.len(),
                            busy_ns = start.elapsed().as_nanos() as u64,
                        );
                    }
                    (local, WorkerReport::take())
                })
            })
            .collect();
        // Workers are drained in spawn order, so the merged tallies (and the
        // relative order of forwarded trace events) do not depend on timing.
        for h in handles {
            let (local, report) = h.join().expect("pool worker panicked");
            buckets.push(local);
            report.merge();
        }
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, v) in buckets.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("pool produced every index"))
        .collect()
}

/// Runs `f` for every index in `0..n` on the pool, discarding results.
pub fn for_each<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    map(n, f);
}

/// Runs `a` and `b`, returning `(a(), b())`. When the process-wide worker
/// budget has a free slot, `b` runs on a scoped thread concurrently with
/// `a` on the caller; otherwise both run inline, in that order. The
/// results — and the merge order of thread-local phase counters, trace
/// events, and metrics (`a`'s first, then `b`'s) — are identical either
/// way, so scheduling never perturbs output: this is the task-tree
/// primitive recursive bisection uses to run the two halves of a split
/// concurrently without breaking the partitioner's determinism contract
/// (output a function of the seed alone).
///
/// Nested freely: every level of a task tree draws from the same budget
/// (capped at `MCGP_THREADS` / `available_parallelism`, minus one for the
/// busy caller), and a reservation never blocks — exhausted budget means
/// inline execution, never a deadlock.
pub fn join<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
{
    // The caller keeps running `a`, so it occupies one slot implicitly:
    // reserve against `cap - 1` to keep total runnable threads within cap.
    let budget = reserve_workers(1, worker_cap().saturating_sub(1));
    if budget.0 == 0 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    let profile_prefix = crate::profile::current_stack_ids();
    let (ra, (rb, report)) = std::thread::scope(|scope| {
        let h = scope.spawn(|| {
            let _pg = crate::profile::adopt_stack(&profile_prefix);
            (b(), WorkerReport::take())
        });
        let ra = a();
        (ra, h.join().expect("join worker panicked"))
    });
    drop(budget);
    // `a`'s tallies landed on the caller's thread-locals while it ran;
    // merging `b`'s afterwards gives the same order as the inline path.
    report.merge();
    (ra, rb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order() {
        let out = map(257, |i| i * i);
        assert_eq!(out.len(), 257);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn map_runs_every_index_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = map(100, |i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(map(0, |i| i), Vec::<usize>::new());
        assert_eq!(map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn parallel_matches_serial_result() {
        let serial: Vec<u64> = (0..64)
            .map(|i| crate::rng::Rng::seed_from_u64(i as u64).next_u64())
            .collect();
        let parallel = map(64, |i| crate::rng::Rng::seed_from_u64(i as u64).next_u64());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn worker_phase_counters_merge_into_caller() {
        use crate::phase::{counter_add, take_local, Counter};
        let _ = take_local(); // clean slate for this test thread
        for_each(40, |_| counter_add(Counter::MovesAttempted, 1));
        let report = take_local();
        assert_eq!(report.counter(Counter::MovesAttempted), 40);
    }

    #[test]
    fn threads_for_respects_bounds() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(1), 1);
        assert!(threads_for(1 << 20) >= 1);
    }

    #[test]
    fn join_returns_both_results_in_order() {
        let (a, b) = join(|| 6 * 7, || "right".to_string());
        assert_eq!((a, b.as_str()), (42, "right"));
    }

    #[test]
    fn join_merges_worker_counters_like_inline() {
        use crate::phase::{counter_add, take_local, Counter};
        let _ = take_local();
        join(
            || counter_add(Counter::MovesAttempted, 3),
            || counter_add(Counter::MovesAttempted, 4),
        );
        assert_eq!(take_local().counter(Counter::MovesAttempted), 7);
    }

    #[test]
    fn nested_join_tree_completes_and_is_correct() {
        // A 4-deep task tree: every level reserves from the same budget, so
        // this must terminate (no blocking reservation) with the exact
        // serial result whatever the budget grants.
        fn tree_sum(lo: u64, hi: u64, depth: usize) -> u64 {
            if depth == 0 || hi - lo < 2 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (l, r) = join(
                || tree_sum(lo, mid, depth - 1),
                || tree_sum(mid, hi, depth - 1),
            );
            l + r
        }
        assert_eq!(tree_sum(0, 1000, 4), 499_500);
    }
}
