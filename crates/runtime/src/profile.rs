//! Span-stack sampling profiler: collapsed-stack ("flame graph") output
//! with no external dependencies and no cost when off.
//!
//! [`crate::trace`] records *every* span — exact but heavyweight, and a
//! long daemon run drowns in events. This module answers the complementary
//! production question — *where does time go, statistically?* — the way
//! `perf` does, but hermetically and without stack unwinding:
//!
//! * Every thread that opens a [`crate::span!`] while profiling is enabled
//!   publishes its current span stack to a lock-free per-thread **slot**: a
//!   fixed-depth array of interned frame ids plus a seqlock-style
//!   generation counter. The writer side is a handful of relaxed/release
//!   atomic stores — no locks, no allocation, no syscalls on the
//!   partitioner's hot path.
//! * A **sampler thread** ([`Profiler`]) wakes at a configurable rate,
//!   walks the registered slots, and tallies each observed stack into a
//!   collapsed-stack multiset. A torn read (the owner mutated the slot
//!   mid-walk) is detected by the generation counter and discarded — the
//!   sampler only ever *reads* atomics, so it can never block or corrupt
//!   the partitioner (the sampling safety argument in DESIGN.md).
//! * Output is the Brendan Gregg **collapsed format** — one line per
//!   distinct stack, `outer;inner;leaf 42` — consumable by any flamegraph
//!   tool. [`CollapsedStacks`] merges deterministically (counts add,
//!   output is sorted), and [`validate_collapsed`] re-checks a written
//!   file the same way the trace validators re-check traces.
//!
//! Gating mirrors [`crate::trace::enabled`]: a single relaxed atomic load
//! guards the slot write, the [`crate::span!`] macro does not evaluate its
//! fields unless *some* observer is on, and partitioning results are
//! bit-identical with the profiler on or off — the slots are write-only
//! from the partitioner's point of view.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Maximum span-stack depth a slot publishes. Deeper nesting keeps an
/// accurate depth counter (pushes/pops stay balanced) but frames beyond
/// the cap are not visible to the sampler.
pub const MAX_DEPTH: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// True when span-stack publication is on. A relaxed load — the only cost
/// the partitioner pays when profiling is off.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span-stack publication on or off process-wide. [`Profiler::start`]
/// flips this on; spans opened *before* enabling publish nothing (their
/// frames were never pushed), which only shortens sampled stacks — it never
/// corrupts them, because pops are tracked per-span, not per-slot.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

// --- Frame-name interning -------------------------------------------------
//
// Slots store frames as dense `u32` ids rather than `&'static str` so a
// frame write is one atomic store and a sampler read can never observe a
// torn pointer/length pair. The intern table only grows; ids are stable
// for the life of the process.

#[derive(Default)]
struct Intern {
    by_name: BTreeMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn intern_table() -> &'static Mutex<Intern> {
    static TABLE: OnceLock<Mutex<Intern>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Intern::default()))
}

/// The dense id of a static frame name, assigning one on first use.
pub fn intern(name: &'static str) -> u32 {
    let mut t = intern_table().lock().unwrap();
    if let Some(&id) = t.by_name.get(name) {
        return id;
    }
    let id = t.names.len() as u32;
    t.by_name.insert(name, id);
    t.names.push(name);
    id
}

/// The name behind an interned id (`"?"` for an id never assigned — only
/// reachable if a slot read raced an enable/disable cycle).
pub fn name_of(id: u32) -> &'static str {
    let t = intern_table().lock().unwrap();
    t.names.get(id as usize).copied().unwrap_or("?")
}

// --- Per-thread slots -----------------------------------------------------

/// One thread's published span stack. Single-writer (the owning thread),
/// many-reader (the sampler). The `generation` counter is a seqlock: odd
/// while a mutation is in flight, bumped again when it completes; a reader
/// that sees the counter change (or odd) across its walk discards the
/// sample.
struct Slot {
    frames: [AtomicU32; MAX_DEPTH],
    depth: AtomicUsize,
    generation: AtomicU64,
    alive: AtomicBool,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
            depth: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            alive: AtomicBool::new(true),
        }
    }

    /// Seqlock write-open. The `Acquire` RMW keeps the data stores that
    /// follow from being hoisted above the increment, and the `Release`
    /// fence orders the (now odd) generation before them — so a reader
    /// that observes any new frame/depth value also observes the odd
    /// generation and discards the sample. This is the standard fencing
    /// (crossbeam's `SeqLock` uses the same shape); plain `Release` on the
    /// increment alone would let the relaxed data stores reorder above it
    /// on weakly ordered hardware.
    fn begin_write(&self) {
        self.generation.fetch_add(1, Ordering::Acquire);
        std::sync::atomic::fence(Ordering::Release);
    }

    /// Seqlock write-close: the `Release` increment orders the preceding
    /// data stores before the generation becoming even again.
    fn end_write(&self) {
        self.generation.fetch_add(1, Ordering::Release);
    }

    fn push(&self, id: u32) {
        self.begin_write();
        let d = self.depth.load(Ordering::Relaxed);
        if d < MAX_DEPTH {
            self.frames[d].store(id, Ordering::Relaxed);
        }
        self.depth.store(d + 1, Ordering::Relaxed);
        self.end_write();
    }

    fn pop(&self) {
        self.begin_write();
        let d = self.depth.load(Ordering::Relaxed);
        self.depth.store(d.saturating_sub(1), Ordering::Relaxed);
        self.end_write();
    }

    /// One consistent read of the published stack, or `None` when the
    /// owner was mid-mutation on every attempt (vanishingly rare: the
    /// write window is a few stores).
    fn read(&self) -> Option<Vec<u32>> {
        for _ in 0..4 {
            let g0 = self.generation.load(Ordering::Acquire);
            if !g0.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed).min(MAX_DEPTH);
            let mut stack = Vec::with_capacity(depth);
            for f in &self.frames[..depth] {
                stack.push(f.load(Ordering::Relaxed));
            }
            // The fence orders the relaxed data loads above before the
            // validating generation load below (an `Acquire` on the load
            // alone would not — acquire orders *later* accesses, not the
            // earlier data reads this check is meant to vouch for).
            std::sync::atomic::fence(Ordering::Acquire);
            let g1 = self.generation.load(Ordering::Relaxed);
            if g0 == g1 {
                return Some(stack);
            }
        }
        None
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static SLOTS: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    SLOTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Registers this thread's slot on first use and marks it dead when the
/// thread exits (the next sampler pass prunes it).
struct SlotGuard(Arc<Slot>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.alive.store(false, Ordering::SeqCst);
    }
}

thread_local! {
    static MY_SLOT: SlotGuard = {
        let slot = Arc::new(Slot::new());
        registry().lock().unwrap().push(slot.clone());
        SlotGuard(slot)
    };
}

/// Publishes `name` as the top of this thread's span stack. Callers must
/// pair every push with exactly one [`pop_frame`] — [`crate::trace::Span`]
/// owns that pairing, so pushes stay balanced even if profiling is toggled
/// while spans are open.
pub fn push_frame(name: &'static str) {
    let id = intern(name);
    MY_SLOT.with(|s| s.0.push(id));
}

/// Pops the top of this thread's published span stack.
pub fn pop_frame() {
    MY_SLOT.with(|s| s.0.pop());
}

/// This thread's currently-published stack as interned ids (empty when
/// profiling is off or nothing is pushed). The pool captures this before
/// spawning workers so their samples keep the spawning stack as a prefix.
pub fn current_stack_ids() -> Vec<u32> {
    if !enabled() {
        return Vec::new();
    }
    MY_SLOT.with(|s| s.0.read().unwrap_or_default())
}

/// Pushes a previously-captured stack prefix onto this thread's slot,
/// popping it when the guard drops. Inert for an empty prefix, so callers
/// can pass [`current_stack_ids`]'s result unconditionally.
pub struct PrefixGuard {
    frames: usize,
}

/// Adopts `prefix` (finest frame last) as this thread's published stack
/// base — see [`current_stack_ids`].
pub fn adopt_stack(prefix: &[u32]) -> PrefixGuard {
    if !prefix.is_empty() {
        MY_SLOT.with(|s| {
            for &id in prefix {
                s.0.push(id);
            }
        });
    }
    PrefixGuard {
        frames: prefix.len(),
    }
}

impl Drop for PrefixGuard {
    fn drop(&mut self) {
        if self.frames > 0 {
            MY_SLOT.with(|s| {
                for _ in 0..self.frames {
                    s.0.pop();
                }
            });
        }
    }
}

// --- Collapsed stacks -----------------------------------------------------

/// A multiset of collapsed stacks: `"outer;inner;leaf" → samples`. The
/// map is ordered, so rendering and merging are deterministic functions of
/// the content regardless of sampling or merge order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CollapsedStacks {
    stacks: BTreeMap<String, u64>,
}

impl CollapsedStacks {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `count` samples of a stack given as frames, outermost first.
    pub fn add(&mut self, frames: &[&str], count: u64) {
        if frames.is_empty() || count == 0 {
            return;
        }
        *self.stacks.entry(frames.join(";")).or_insert(0) += count;
    }

    /// Adds `count` samples of an already-collapsed `a;b;c` key.
    pub fn add_key(&mut self, key: &str, count: u64) {
        if key.is_empty() || count == 0 {
            return;
        }
        *self.stacks.entry(key.to_string()).or_insert(0) += count;
    }

    /// Merges `other` in; counts add per stack. Merging any permutation of
    /// the same tallies yields the same result.
    pub fn merge(&mut self, other: &CollapsedStacks) {
        for (k, v) in &other.stacks {
            *self.stacks.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Total samples across all stacks.
    pub fn total_samples(&self) -> u64 {
        self.stacks.values().sum()
    }

    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.stacks.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.stacks.is_empty()
    }

    /// The sample count for one collapsed key.
    pub fn count(&self, key: &str) -> u64 {
        self.stacks.get(key).copied().unwrap_or(0)
    }

    /// Iterates `(stack, count)` in sorted stack order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.stacks.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Writes the Brendan Gregg collapsed format: one `a;b;c 42` line per
    /// stack, sorted by stack so the output is canonical.
    pub fn write_collapsed<W: Write>(&self, mut w: W) -> io::Result<()> {
        for (stack, count) in &self.stacks {
            writeln!(w, "{stack} {count}")?;
        }
        w.flush()
    }

    /// The collapsed document as a string.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_collapsed(&mut out).expect("write to Vec");
        String::from_utf8(out).expect("collapsed output is UTF-8")
    }
}

/// Validates a collapsed-stack document: every line is `stack count` with
/// a positive integer count, every `;`-delimited frame is non-empty and
/// free of whitespace, and lines are in strictly increasing (sorted,
/// duplicate-free) stack order — the canonical form [`CollapsedStacks`]
/// writes. Returns the line count.
pub fn validate_collapsed(text: &str) -> Result<usize, String> {
    let mut count = 0usize;
    let mut prev_stack: Option<&str> = None;
    for (no, line) in text.lines().enumerate() {
        let line_no = no + 1;
        if line.trim().is_empty() {
            return Err(format!("line {line_no}: empty line"));
        }
        let Some((stack, samples)) = line.rsplit_once(' ') else {
            return Err(format!("line {line_no}: missing ` count` suffix"));
        };
        let n: u64 = samples
            .parse()
            .map_err(|_| format!("line {line_no}: count `{samples}` is not an integer"))?;
        if n == 0 {
            return Err(format!("line {line_no}: zero sample count"));
        }
        if stack.is_empty() {
            return Err(format!("line {line_no}: empty stack"));
        }
        for frame in stack.split(';') {
            if frame.is_empty() {
                return Err(format!(
                    "line {line_no}: empty frame (leading/trailing/double `;`)"
                ));
            }
            if frame.chars().any(|c| c.is_whitespace()) {
                return Err(format!("line {line_no}: whitespace inside frame `{frame}`"));
            }
        }
        if let Some(prev) = prev_stack {
            if stack <= prev {
                return Err(format!(
                    "line {line_no}: stack order not strictly increasing (`{stack}` after `{prev}`)"
                ));
            }
        }
        prev_stack = Some(stack);
        count += 1;
    }
    Ok(count)
}

// --- The sampler ----------------------------------------------------------

/// A running sampler thread. [`Profiler::start`] enables slot publication
/// and begins sampling; [`Profiler::stop`] disables it, joins the thread,
/// and returns the tally.
pub struct Profiler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<CollapsedStacks>,
}

/// Sampling rates outside this range are clamped (a 0 hz profiler would
/// never sample; beyond ~10 kHz the sampler's own scheduling dominates).
pub const MIN_HZ: u32 = 1;
/// See [`MIN_HZ`].
pub const MAX_HZ: u32 = 10_000;

impl Profiler {
    /// Enables span-stack publication and starts sampling every slot at
    /// `hz`. Only one profiler should run at a time (they share the
    /// process-wide enable flag); serialise callers if needed.
    pub fn start(hz: u32) -> Profiler {
        let hz = hz.clamp(MIN_HZ, MAX_HZ);
        let interval = Duration::from_nanos(1_000_000_000u64 / hz as u64);
        set_enabled(true);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let thread = std::thread::Builder::new()
            .name("mcgp-profiler".into())
            .spawn(move || {
                let mut tally: BTreeMap<Vec<u32>, u64> = BTreeMap::new();
                while !stop_flag.load(Ordering::SeqCst) {
                    sample_once(&mut tally);
                    std::thread::sleep(interval);
                }
                // Resolve ids to names only once, at the end.
                let mut out = CollapsedStacks::new();
                for (ids, count) in tally {
                    let frames: Vec<&str> = ids.iter().map(|&id| name_of(id)).collect();
                    out.add(&frames, count);
                }
                out
            })
            .expect("spawn profiler thread");
        Profiler { stop, thread }
    }

    /// Stops sampling, disables slot publication, and returns the tally.
    pub fn stop(self) -> CollapsedStacks {
        self.stop.store(true, Ordering::SeqCst);
        set_enabled(false);
        self.thread.join().expect("profiler thread panicked")
    }
}

/// One sampling pass over every registered slot; prunes slots whose owner
/// thread has exited.
fn sample_once(tally: &mut BTreeMap<Vec<u32>, u64>) {
    let mut slots = registry().lock().unwrap();
    slots.retain(|s| s.alive.load(Ordering::SeqCst));
    for slot in slots.iter() {
        if let Some(stack) = slot.read() {
            if !stack.is_empty() {
                *tally.entry(stack).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let a = intern("profile_test_frame_a");
        let b = intern("profile_test_frame_b");
        assert_ne!(a, b);
        assert_eq!(intern("profile_test_frame_a"), a);
        assert_eq!(name_of(a), "profile_test_frame_a");
        assert_eq!(name_of(u32::MAX), "?");
    }

    #[test]
    fn slot_push_pop_and_read_roundtrip() {
        let slot = Slot::new();
        let (x, y) = (intern("ppx"), intern("ppy"));
        slot.push(x);
        slot.push(y);
        assert_eq!(slot.read(), Some(vec![x, y]));
        slot.pop();
        assert_eq!(slot.read(), Some(vec![x]));
        slot.pop();
        assert_eq!(slot.read(), Some(vec![]));
        // Underflow saturates rather than wrapping.
        slot.pop();
        assert_eq!(slot.read(), Some(vec![]));
    }

    #[test]
    fn slot_depth_overflow_keeps_balance() {
        let slot = Slot::new();
        let id = intern("deep");
        for _ in 0..MAX_DEPTH + 5 {
            slot.push(id);
        }
        assert_eq!(slot.read().unwrap().len(), MAX_DEPTH);
        for _ in 0..MAX_DEPTH + 5 {
            slot.pop();
        }
        assert_eq!(slot.read(), Some(vec![]));
    }

    #[test]
    fn collapsed_render_validate_roundtrip() {
        let mut c = CollapsedStacks::new();
        c.add(&["main", "coarsen", "match"], 7);
        c.add(&["main", "refine"], 3);
        c.add(&["main", "coarsen", "match"], 2);
        assert_eq!(c.total_samples(), 12);
        assert_eq!(c.count("main;coarsen;match"), 9);
        let text = c.render();
        assert_eq!(validate_collapsed(&text).unwrap(), 2);
        assert!(text.starts_with("main;coarsen;match 9\n"));
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |pairs: &[(&str, u64)]| {
            let mut c = CollapsedStacks::new();
            for (k, v) in pairs {
                c.add_key(k, *v);
            }
            c
        };
        let parts = [
            mk(&[("a;b", 1), ("a;c", 4)]),
            mk(&[("a;b", 2)]),
            mk(&[("d", 9), ("a;c", 1)]),
        ];
        let mut fwd = CollapsedStacks::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = CollapsedStacks::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.count("a;b"), 3);
        assert_eq!(fwd.total_samples(), 17);
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_collapsed("a;b notanumber\n").is_err());
        assert!(validate_collapsed("a;b 0\n").is_err());
        assert!(validate_collapsed("a;;b 3\n")
            .unwrap_err()
            .contains("empty frame"));
        assert!(validate_collapsed(";a 3\n").is_err());
        assert!(validate_collapsed("b 1\na 1\n")
            .unwrap_err()
            .contains("increasing"));
        assert!(
            validate_collapsed("a 1\na 2\n").is_err(),
            "duplicates rejected"
        );
        assert!(validate_collapsed("\n").is_err());
        assert_eq!(validate_collapsed("").unwrap(), 0);
    }

    #[test]
    fn sampler_captures_open_spans() {
        // Serialised with the other observability toggles (profiling is
        // process-global, like tracing).
        let _g = crate::trace::test_lock();
        let profiler = Profiler::start(2000);
        // Keep a distinctive span open long enough that missing every
        // sample is implausible; retry the window a few times to stay
        // robust on a loaded machine.
        let mut tally = CollapsedStacks::new();
        for _ in 0..50 {
            {
                let _s = crate::span!("profile_sampler_outer");
                let _i = crate::span!("profile_sampler_inner");
                std::thread::sleep(Duration::from_millis(10));
            }
            if !current_stack_ids().is_empty() {
                panic!("span guards must pop their frames");
            }
        }
        tally.merge(&profiler.stop());
        assert!(!enabled(), "stop() disables publication");
        assert!(
            tally.count("profile_sampler_outer;profile_sampler_inner") > 0,
            "expected samples of the open span stack, got: {:?}",
            tally.iter().collect::<Vec<_>>()
        );
        let text = tally.render();
        assert_eq!(validate_collapsed(&text).unwrap(), tally.len());
    }

    #[test]
    fn adopt_stack_prefixes_and_pops() {
        let _g = crate::trace::test_lock();
        set_enabled(true);
        let (a, b) = (intern("adopt_outer"), intern("adopt_inner"));
        {
            let _pg = adopt_stack(&[a, b]);
            assert_eq!(current_stack_ids(), vec![a, b]);
        }
        assert!(current_stack_ids().is_empty());
        let _pg = adopt_stack(&[]);
        assert!(current_stack_ids().is_empty());
        set_enabled(false);
    }
}
