//! Graph fingerprinting and the bounded, coalescing hierarchy cache.
//!
//! The cache key is a 64-bit digest over everything coarsening
//! consumes: the raw request body bytes (hashed *before* parsing, four
//! 64-bit lanes at a time, so keying costs one memory-speed scan), the
//! wire format tag and the seed. Two requests with the same digest
//! therefore share a coarsening hierarchy that is bit-identical to the one
//! either would have built cold — `nparts`, the imbalance tolerance and
//! the thread count are deliberately *not* part of the key, which is the
//! entire point.
//!
//! Concurrency: the first request for a key inserts a `Building`
//! placeholder and coarsens outside the lock; concurrent requests for
//! the same key wait on a condvar and share the finished entry instead
//! of duplicating the work (request coalescing). A build that fails or
//! panics removes its placeholder and wakes the waiters, one of which
//! retries — an error never poisons the cache.
//!
//! **Eviction is cost-aware**, not pure LRU: each resident entry carries
//! a GDSF (Greedy-Dual-Size-Frequency) priority
//! `H = L + freq · cost_s / resident_MB`, where `L` is the running
//! inflation (the priority of the last victim). A hierarchy that took
//! seconds to coarsen and packs small outranks a huge cheap one even
//! when the cheap one was touched more recently; aging through `L`
//! guarantees nothing is immortal. Priorities are updated under the
//! cache lock, so for a serial operation history (with fixed measured
//! costs) the victim order is deterministic; the entry just inserted is
//! never its own victim.
//!
//! **Admission is filtered**: an entry larger than half the budget is
//! only admitted once its key has been requested before (a doorkeeper),
//! so a one-shot giant graph cannot flush a working set of hot,
//! expensive hierarchies on its single appearance.
//!
//! **Spill**: with a spill directory configured, evicted,
//! admission-rejected, and (via [`HierarchyCache::spill_all`]) shutdown
//! entries are serialized to disk, and a lookup that misses in memory
//! first tries the disk ([`CacheVerdict::Disk`]) before coarsening — see
//! [`crate::spill`] for the format.

use mcgp_core::HierarchySnapshot;
use mcgp_graph::{Graph, McgpError};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

use crate::protocol::GraphFormat;
use crate::spill;

// XXH64's primes; `round` and the lane merge are XXH64's too.
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One multiply–rotate step of a lane.
#[inline(always)]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// Folds one 64-bit word into the running hash.
#[inline(always)]
fn fold(h: u64, word: u64) -> u64 {
    (h ^ round(0, word))
        .rotate_left(27)
        .wrapping_mul(P1)
        .wrapping_add(P4)
}

#[inline(always)]
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

/// The body hash kernel: four independent multiply–rotate lanes over
/// `bytes` 32 at a time (one 64-bit word per lane per step), merged,
/// then the tail (whole words, then the last 1–7 bytes zero-padded into
/// one word), the byte length and every word of `extra`, and a final
/// avalanche. The lanes carry no dependency on each other, so the loop
/// runs at memory speed rather than at one multiply latency per byte.
/// The cache fingerprint, the spill checksum and the serve bench's
/// response digests all hash through here.
pub(crate) fn lane_hash(bytes: &[u8], extra: &[u64]) -> u64 {
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = round(*lane, le_word(word));
        }
    }
    let mut h = lanes[0]
        .rotate_left(1)
        .wrapping_add(lanes[1].rotate_left(7))
        .wrapping_add(lanes[2].rotate_left(12))
        .wrapping_add(lanes[3].rotate_left(18));
    for lane in lanes {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h = fold(h, le_word(word));
    }
    let last = words.remainder();
    if !last.is_empty() {
        let mut padded = [0u8; 8];
        padded[..last.len()].copy_from_slice(last);
        h = fold(h, u64::from_le_bytes(padded));
    }
    h = fold(h, bytes.len() as u64);
    for &word in extra {
        h = fold(h, word);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Content fingerprint of a partitioning request's coarsening inputs:
/// raw body bytes, format tag, seed. Everything initial partitioning and
/// refinement consume beyond these (`k`, `ε`, refinement knobs, the
/// thread count) is free to vary per request, because a partition is a
/// function of the seed alone. `_nthreads` is ignored; the parameter stays
/// until the benchmark's layer replay stops calling this with four
/// arguments (ROADMAP item 8).
pub fn fingerprint(format: GraphFormat, body: &[u8], seed: u64, _nthreads: usize) -> u64 {
    lane_hash(body, &[u64::from(format.tag()), seed])
}

/// A cached graph plus its deep coarsening hierarchy.
#[derive(Debug)]
pub struct CachedEntry {
    /// The parsed, validated input graph.
    pub graph: Graph,
    /// The recorded deep coarsening of [`Self::graph`].
    pub snapshot: HierarchySnapshot,
    bytes: usize,
    build_cost_s: f64,
}

/// Approximate resident bytes of a graph's CSR arrays.
fn graph_bytes(g: &Graph) -> usize {
    (g.nvtxs() + 1) * 8 + g.adjacency_len() * (4 + 8) + g.nvtxs() * g.ncon() * 8
}

impl CachedEntry {
    /// Bundles a graph with its hierarchy, sizes the pair for the byte
    /// budget, and records the measured build cost (seconds spent
    /// parsing + coarsening) that eviction priorities are derived from.
    pub fn new(graph: Graph, snapshot: HierarchySnapshot, build_cost_s: f64) -> Self {
        let bytes = graph_bytes(&graph) + snapshot.approx_bytes();
        CachedEntry {
            graph,
            snapshot,
            bytes,
            build_cost_s: build_cost_s.max(0.0),
        }
    }

    /// Bytes this entry charges against the cache budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Measured seconds it took to build this entry.
    pub fn build_cost_s(&self) -> f64 {
        self.build_cost_s
    }

    /// Rebuild cost per resident megabyte — the size-normalized value
    /// GDSF priorities scale with.
    pub fn cost_density(&self) -> f64 {
        self.build_cost_s * 1e6 / (self.bytes.max(1) as f64)
    }
}

/// How a [`HierarchyCache::get_or_build`] lookup was satisfied. The
/// daemon reports this verbatim (`X-Mcgp-Cache: miss|hit|wait|disk`) and
/// the bench buckets latency samples by it — a coalesced wait costs a
/// build's wall-clock without doing the build, so lumping it with
/// resident hits would poison any steady-state latency quantile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheVerdict {
    /// This lookup ran the build closure.
    Miss,
    /// Served from a resident entry; no waiting, no building.
    Hit,
    /// Waited for a concurrent build of the same key, then shared it.
    Coalesced,
    /// Reloaded from the spill directory; no coarsening, but disk I/O
    /// plus deserialization.
    Disk,
}

impl CacheVerdict {
    /// True when the caller did not pay for coarsening itself (a resident
    /// hit, a coalesced wait, or a disk reload) — the wire meaning of
    /// "reused".
    pub fn reused(self) -> bool {
        !matches!(self, CacheVerdict::Miss)
    }

    /// The `X-Mcgp-Cache` header value.
    pub fn header_value(self) -> &'static str {
        match self {
            CacheVerdict::Miss => "miss",
            CacheVerdict::Hit => "hit",
            CacheVerdict::Coalesced => "wait",
            CacheVerdict::Disk => "disk",
        }
    }
}

/// Configuration of a [`HierarchyCache`] beyond the plain byte budget.
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Byte budget evictions keep residency under.
    pub budget_bytes: usize,
    /// Spill directory for evicted/shutdown hierarchies; `None` disables
    /// persistence.
    pub spill_dir: Option<PathBuf>,
}

/// Admission doorkeeper threshold as a fraction of the budget: entries
/// larger than `budget_bytes * ADMIT_FRACTION` are admitted only when their
/// key has been requested before.
const ADMIT_FRACTION: f64 = 0.5;

impl CacheConfig {
    /// Defaults: no spill, doorkeeper at half the budget.
    pub fn new(budget_bytes: usize) -> Self {
        CacheConfig {
            budget_bytes,
            spill_dir: None,
        }
    }
}

struct ReadyEntry {
    entry: Arc<CachedEntry>,
    /// Lookups that touched this entry while resident.
    freq: u64,
    /// GDSF priority at last touch: `inflation + freq * cost_density`.
    priority: f64,
    /// Last-touch tick; breaks exact priority ties deterministically.
    tick: u64,
}

enum Slot {
    /// A request is coarsening this graph right now; wait, don't duplicate.
    Building,
    Ready(ReadyEntry),
}

#[derive(Default)]
struct Inner {
    map: HashMap<u64, Slot>,
    /// GDSF aging floor: the priority of the most valuable victim
    /// evicted so far. New/touched entries start from here, so long-idle
    /// expensive entries eventually lose to fresh traffic.
    inflation: f64,
    /// Requests seen per key (the admission doorkeeper's memory).
    seen: HashMap<u64, u64>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    disk_hits: u64,
    admission_rejects: u64,
    spill_writes: u64,
    spill_errors: u64,
}

/// Bound on the doorkeeper map so adversarial unique keys cannot grow it
/// without limit; clearing only widens admission for genuinely-new keys.
const SEEN_CAP: usize = 65_536;

impl Inner {
    /// Records one lookup of `key`; returns how many came before it.
    fn note_request(&mut self, key: u64) -> u64 {
        if self.seen.len() >= SEEN_CAP {
            self.seen.clear();
        }
        let n = self.seen.entry(key).or_insert(0);
        *n += 1;
        *n - 1
    }
}

/// Counters and occupancy of a [`HierarchyCache`] at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheStats {
    /// Ready entries resident.
    pub entries: usize,
    /// Bytes charged by resident entries.
    pub bytes: usize,
    /// Byte budget evictions keep [`Self::bytes`] under.
    pub budget: usize,
    /// Lookups served from a resident entry.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Lookups that waited for a concurrent build of the same key.
    pub coalesced: u64,
    /// Entries evicted to fit the budget.
    pub evictions: u64,
    /// Lookups served by reloading a spilled hierarchy from disk.
    pub disk_hits: u64,
    /// Built entries the doorkeeper kept out of memory.
    pub admission_rejects: u64,
    /// Spill files written (evictions, rejections, shutdown).
    pub spill_writes: u64,
    /// Spill load/write failures (corrupt files count here, then miss).
    pub spill_errors: u64,
    /// Current GDSF inflation floor.
    pub inflation: f64,
}

impl CacheStats {
    /// Fraction of lookups that skipped coarsening (resident hits,
    /// coalesced waits, and disk reloads, over all lookups); 0 before
    /// the first lookup.
    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.hits + self.misses + self.coalesced + self.disk_hits;
        if lookups == 0 {
            0.0
        } else {
            (self.hits + self.coalesced + self.disk_hits) as f64 / lookups as f64
        }
    }
}

/// One resident entry's eviction score, as exported on `/metrics`.
#[derive(Clone, Debug)]
pub struct EntryScore {
    /// Cache fingerprint of the entry.
    pub fingerprint: u64,
    /// Resident bytes.
    pub bytes: usize,
    /// Measured build cost in seconds.
    pub cost_s: f64,
    /// Lookups while resident.
    pub freq: u64,
    /// Current GDSF priority (higher survives longer).
    pub priority: f64,
}

/// Bounded cost-aware cache of coarsening hierarchies keyed by
/// [`fingerprint`], with coalescing of concurrent builds and optional
/// disk spill.
pub struct HierarchyCache {
    inner: Mutex<Inner>,
    cond: Condvar,
    config: CacheConfig,
}

impl HierarchyCache {
    /// An empty cache that evicts to stay within `budget_bytes`, with no
    /// spill directory.
    pub fn new(budget_bytes: usize) -> Self {
        Self::with_config(CacheConfig::new(budget_bytes))
    }

    /// An empty cache with full configuration.
    pub fn with_config(config: CacheConfig) -> Self {
        HierarchyCache {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            config,
        }
    }

    /// Largest entry the doorkeeper admits on first sight.
    fn first_sight_max_bytes(&self) -> usize {
        (self.config.budget_bytes as f64 * ADMIT_FRACTION) as usize
    }

    /// Returns the entry for `key`, building it with `build` on a miss.
    ///
    /// The [`CacheVerdict`] says how the lookup was satisfied: `Miss`
    /// (this call built), `Hit` (resident), `Coalesced` (waited for a
    /// concurrent build of the same key), or `Disk` (reloaded from the
    /// spill directory). On a build error the placeholder is removed
    /// (waiters retry with their own closure) and the error is returned;
    /// a panicking build likewise cleans up before the panic resumes.
    pub fn get_or_build<F>(
        &self,
        key: u64,
        build: F,
    ) -> Result<(Arc<CachedEntry>, CacheVerdict), McgpError>
    where
        F: FnOnce() -> Result<CachedEntry, McgpError>,
    {
        let mut build = Some(build);
        let mut waited = false;
        let mut g = self.inner.lock().unwrap();
        let prior_requests = g.note_request(key);
        loop {
            match g.map.get(&key) {
                Some(Slot::Ready(_)) => {
                    g.tick += 1;
                    let t = g.tick;
                    let inflation = g.inflation;
                    let e = match g.map.get_mut(&key) {
                        Some(Slot::Ready(r)) => {
                            r.freq += 1;
                            r.priority = inflation + r.freq as f64 * r.entry.cost_density();
                            r.tick = t;
                            r.entry.clone()
                        }
                        _ => unreachable!("slot re-checked under the same lock"),
                    };
                    let verdict = if waited {
                        g.coalesced += 1;
                        CacheVerdict::Coalesced
                    } else {
                        g.hits += 1;
                        CacheVerdict::Hit
                    };
                    return Ok((e, verdict));
                }
                Some(Slot::Building) => {
                    waited = true;
                    g = self.cond.wait(g).unwrap();
                }
                None => {
                    g.map.insert(key, Slot::Building);
                    drop(g);

                    // Disk first: a spilled hierarchy replays identically
                    // at a fraction of a coarsening.
                    let mut load_error = None;
                    let disk_entry = match &self.config.spill_dir {
                        Some(dir) => match spill::load(dir, key) {
                            Ok(found) => found,
                            Err(msg) => {
                                load_error = Some(msg);
                                None
                            }
                        },
                        None => None,
                    };
                    let (outcome, verdict) = match disk_entry {
                        Some(e) => (Ok(Ok(e)), CacheVerdict::Disk),
                        None => (
                            catch_unwind(AssertUnwindSafe(
                                build.take().expect("build closure consumed twice"),
                            ))
                            .map(|r| r.map(Arc::new)),
                            CacheVerdict::Miss,
                        ),
                    };

                    let mut g2 = self.inner.lock().unwrap();
                    if load_error.is_some() {
                        g2.spill_errors += 1;
                    }
                    match outcome {
                        Err(panic) => {
                            g2.misses += 1;
                            g2.map.remove(&key);
                            drop(g2);
                            self.cond.notify_all();
                            resume_unwind(panic);
                        }
                        Ok(Err(e)) => {
                            g2.misses += 1;
                            g2.map.remove(&key);
                            drop(g2);
                            self.cond.notify_all();
                            return Err(e);
                        }
                        Ok(Ok(entry)) => {
                            match verdict {
                                CacheVerdict::Disk => g2.disk_hits += 1,
                                _ => g2.misses += 1,
                            }
                            let first_sight = prior_requests == 0;
                            if first_sight && entry.bytes() > self.first_sight_max_bytes() {
                                // Doorkeeper: a never-seen oversized entry
                                // is served but not admitted — spilled
                                // instead, so a repeat comes off disk.
                                g2.admission_rejects += 1;
                                drop(g2);
                                // The placeholder stays up during the
                                // write: waiters keep waiting, then
                                // retry and find the spill file.
                                self.spill_entries(&[(key, entry.clone())]);
                                let mut g3 = self.inner.lock().unwrap();
                                g3.map.remove(&key);
                                drop(g3);
                                self.cond.notify_all();
                                return Ok((entry, verdict));
                            }
                            g2.bytes += entry.bytes();
                            g2.tick += 1;
                            let ready = ReadyEntry {
                                entry: entry.clone(),
                                freq: 1,
                                priority: g2.inflation + entry.cost_density(),
                                tick: g2.tick,
                            };
                            g2.map.insert(key, Slot::Ready(ready));
                            let victims = self.evict_over_budget(&mut g2, key);
                            drop(g2);
                            self.cond.notify_all();
                            self.spill_entries(&victims);
                            return Ok((entry, verdict));
                        }
                    }
                }
            }
        }
    }

    /// Evicts the lowest-priority Ready entries (never `keep`, never a
    /// Building placeholder) until the budget holds, raising the
    /// inflation floor to each victim's priority (GDSF aging). Exact
    /// priority ties fall back to the older tick, then the key, so the
    /// victim order is a deterministic function of the operation history
    /// and the measured costs. Returns the victims for spilling.
    fn evict_over_budget(&self, g: &mut Inner, keep: u64) -> Vec<(u64, Arc<CachedEntry>)> {
        let mut victims = Vec::new();
        while g.bytes > self.config.budget_bytes {
            let victim = g
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(r) if *k != keep => Some((r.priority, r.tick, *k)),
                    _ => None,
                })
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
            match victim {
                Some((priority, _, k)) => {
                    if let Some(Slot::Ready(r)) = g.map.remove(&k) {
                        g.bytes -= r.entry.bytes();
                        g.evictions += 1;
                        g.inflation = g.inflation.max(priority);
                        victims.push((k, r.entry));
                    }
                }
                None => break,
            }
        }
        victims
    }

    /// Writes entries to the spill directory (no-op without one),
    /// counting successes and failures. Callers must not hold the lock.
    fn spill_entries(&self, entries: &[(u64, Arc<CachedEntry>)]) {
        let Some(dir) = &self.config.spill_dir else {
            return;
        };
        if entries.is_empty() {
            return;
        }
        let mut written = 0u64;
        let mut failed = 0u64;
        for (key, entry) in entries {
            match spill::write(dir, *key, entry) {
                Ok(true) => written += 1,
                Ok(false) => {}
                Err(_) => failed += 1,
            }
        }
        let mut g = self.inner.lock().unwrap();
        g.spill_writes += written;
        g.spill_errors += failed;
    }

    /// Spills every resident entry to disk (daemon shutdown path), so a
    /// restart with the same `--cache-dir` serves warm. Returns the
    /// number of files written.
    pub fn spill_all(&self) -> u64 {
        if self.config.spill_dir.is_none() {
            return 0;
        }
        let resident: Vec<(u64, Arc<CachedEntry>)> = {
            let g = self.inner.lock().unwrap();
            g.map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(r) => Some((*k, r.entry.clone())),
                    Slot::Building => None,
                })
                .collect()
        };
        let before = self.inner.lock().unwrap().spill_writes;
        self.spill_entries(&resident);
        self.inner.lock().unwrap().spill_writes - before
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().unwrap();
        CacheStats {
            entries: g
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready(_)))
                .count(),
            bytes: g.bytes,
            budget: self.config.budget_bytes,
            hits: g.hits,
            misses: g.misses,
            coalesced: g.coalesced,
            evictions: g.evictions,
            disk_hits: g.disk_hits,
            admission_rejects: g.admission_rejects,
            spill_writes: g.spill_writes,
            spill_errors: g.spill_errors,
            inflation: g.inflation,
        }
    }

    /// Per-entry GDSF scores of the resident set, highest priority
    /// first — the `/metrics` view of what eviction would spare.
    pub fn entry_scores(&self) -> Vec<EntryScore> {
        let g = self.inner.lock().unwrap();
        let mut scores: Vec<EntryScore> = g
            .map
            .iter()
            .filter_map(|(k, slot)| match slot {
                Slot::Ready(r) => Some(EntryScore {
                    fingerprint: *k,
                    bytes: r.entry.bytes(),
                    cost_s: r.entry.build_cost_s(),
                    freq: r.freq,
                    priority: r.priority,
                }),
                Slot::Building => None,
            })
            .collect();
        scores.sort_by(|a, b| {
            b.priority
                .total_cmp(&a.priority)
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::PartitionConfig;
    use mcgp_graph::generators::mrng_like;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn entry_with_cost(nvtxs: usize, seed: u64, cost_s: f64) -> CachedEntry {
        let g = mrng_like(nvtxs, seed);
        let snap = HierarchySnapshot::build(&g, &PartitionConfig::default());
        CachedEntry::new(g, snap, cost_s)
    }

    fn entry(nvtxs: usize, seed: u64) -> CachedEntry {
        entry_with_cost(nvtxs, seed, 0.1)
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mcgp-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fingerprint_separates_inputs_and_ignores_request_knobs() {
        let a = fingerprint(GraphFormat::Metis, b"graph-a", 1, 1);
        assert_eq!(a, fingerprint(GraphFormat::Metis, b"graph-a", 1, 1));
        assert_ne!(a, fingerprint(GraphFormat::Metis, b"graph-b", 1, 1));
        assert_ne!(a, fingerprint(GraphFormat::Metis, b"graph-a", 2, 1));
        assert_eq!(a, fingerprint(GraphFormat::Metis, b"graph-a", 1, 2));
        assert_ne!(a, fingerprint(GraphFormat::Json, b"graph-a", 1, 1));
    }

    #[test]
    fn fingerprint_sees_every_byte_and_the_length() {
        let body: Vec<u8> = (0..100u32).map(|i| (i * 37 % 251) as u8).collect();
        let base = fingerprint(GraphFormat::Metis, &body, 1, 1);
        // Every offset, so every lane position mod 32 and every tail slot.
        for at in 0..body.len() {
            for flip in [0x01u8, 0x80] {
                let mut changed = body.clone();
                changed[at] ^= flip;
                assert_ne!(
                    base,
                    fingerprint(GraphFormat::Metis, &changed, 1, 1),
                    "byte {at}"
                );
            }
        }
        // Prefixes of one buffer, zeros included, with every tail length
        // 0..=31 both before the first block and after two: all distinct.
        for fill in [0u8, 0xab] {
            let buf = [fill; 96];
            let mut seen = std::collections::HashSet::new();
            for len in (0..=31).chain(64..=96) {
                assert!(
                    seen.insert(fingerprint(GraphFormat::Metis, &buf[..len], 1, 1)),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_value_is_pinned() {
        // The fingerprint names spill files and shows in meta lines and
        // trace ids; changing the hash must be a deliberate edit here.
        // 38 bytes: one 32-byte block through the lanes, then a tail.
        let body = b"% fingerprint pin\n4 4\n2 4\n1 3\n2 4\n1 3\n";
        assert_eq!(
            fingerprint(GraphFormat::Metis, body, 4242, 1),
            0xbaf3_72a3_104c_6aa0
        );
    }

    #[test]
    fn second_lookup_reuses_entry_without_building() {
        let cache = HierarchyCache::new(usize::MAX);
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok(entry(400, 3))
        };
        let (e1, v1) = cache.get_or_build(7, build).unwrap();
        assert_eq!(v1, CacheVerdict::Miss);
        assert!(!v1.reused());
        // A hit must not invoke the closure at all — different (k, ε)
        // requests on the same fingerprint share the hierarchy.
        let (e2, v2) = cache
            .get_or_build(7, || panic!("hit path must not build"))
            .unwrap();
        assert_eq!(v2, CacheVerdict::Hit);
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn eviction_prefers_cold_equal_cost_entries() {
        // Equal cost and size: GDSF degenerates to frequency-then-LRU,
        // preserving the old behavior for undifferentiated entries.
        let probe = entry(400, 1);
        let cache = HierarchyCache::new(probe.bytes() * 2 + probe.bytes() / 2);
        cache.get_or_build(1, || Ok(entry(400, 1))).unwrap();
        cache.get_or_build(2, || Ok(entry(400, 2))).unwrap();
        assert_eq!(cache.stats().entries, 2);
        // Touch 1 so 2 becomes the coldest, then insert 3.
        cache.get_or_build(1, || unreachable!()).unwrap();
        cache.get_or_build(3, || Ok(entry(400, 3))).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // 2 was evicted; 1 and 3 are resident.
        let (_, v1) = cache.get_or_build(1, || unreachable!()).unwrap();
        let (_, v3) = cache.get_or_build(3, || unreachable!()).unwrap();
        assert!(v1.reused() && v3.reused());
        let rebuilt = AtomicUsize::new(0);
        cache
            .get_or_build(2, || {
                rebuilt.fetch_add(1, Ordering::SeqCst);
                Ok(entry(400, 2))
            })
            .unwrap();
        assert_eq!(rebuilt.load(Ordering::SeqCst), 1, "2 must rebuild");
    }

    #[test]
    fn expensive_hierarchy_survives_pressure_from_cheap_recent_entries() {
        // One small entry that took 5 s to coarsen vs a stream of
        // larger entries that took 10 ms each: pure LRU would evict the
        // expensive one first (it is the least recent); GDSF must not.
        let expensive = entry_with_cost(400, 1, 5.0);
        let cheap_probe = entry_with_cost(900, 2, 0.01);
        assert!(cheap_probe.bytes() > expensive.bytes());
        let budget = expensive.bytes() + cheap_probe.bytes() * 2 + cheap_probe.bytes() / 2;
        let cache = HierarchyCache::new(budget);
        cache
            .get_or_build(1, || Ok(entry_with_cost(400, 1, 5.0)))
            .unwrap();
        for key in 2..8u64 {
            cache
                .get_or_build(key, || Ok(entry_with_cost(900, key, 0.01)))
                .unwrap();
        }
        assert!(cache.stats().evictions > 0, "pressure must have evicted");
        let (_, v) = cache
            .get_or_build(1, || panic!("the expensive hierarchy was evicted"))
            .unwrap();
        assert_eq!(v, CacheVerdict::Hit);
        // The scores view ranks it on top.
        let scores = cache.entry_scores();
        assert_eq!(scores[0].fingerprint, 1);
        assert!(scores[0].priority > scores.last().unwrap().priority);
    }

    #[test]
    fn admission_filter_rejects_one_shot_oversized_entry() {
        // Budget sized so the hot entry fits but the giant exceeds the
        // doorkeeper threshold (half the budget).
        let hot = entry_with_cost(400, 1, 1.0);
        let giant_probe = entry_with_cost(2000, 9, 0.05);
        let budget = giant_probe.bytes() + hot.bytes();
        assert!(giant_probe.bytes() > budget / 2);
        let cache = HierarchyCache::new(budget);
        cache
            .get_or_build(1, || Ok(entry_with_cost(400, 1, 1.0)))
            .unwrap();

        // First sight of the giant: served, not admitted, hot survives.
        let builds = AtomicUsize::new(0);
        let (_, v) = cache
            .get_or_build(9, || {
                builds.fetch_add(1, Ordering::SeqCst);
                Ok(entry_with_cost(2000, 9, 0.05))
            })
            .unwrap();
        assert_eq!(v, CacheVerdict::Miss);
        let s = cache.stats();
        assert_eq!((s.admission_rejects, s.evictions, s.entries), (1, 0, 1));
        let (_, v) = cache.get_or_build(1, || unreachable!()).unwrap();
        assert_eq!(v, CacheVerdict::Hit, "hot entry must survive the one-shot");

        // Second request for the giant: the doorkeeper has seen the key,
        // so now it is admitted (and may evict under pressure).
        let (_, v) = cache
            .get_or_build(9, || {
                builds.fetch_add(1, Ordering::SeqCst);
                Ok(entry_with_cost(2000, 9, 0.05))
            })
            .unwrap();
        assert_eq!(v, CacheVerdict::Miss);
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        let s = cache.stats();
        assert_eq!(s.admission_rejects, 1, "repeat is admitted, not rejected");
        assert!(s.entries >= 1);
        let (_, v) = cache.get_or_build(9, || unreachable!()).unwrap();
        assert!(v.reused());
    }

    #[test]
    fn tiny_budget_keeps_only_the_latest_entry() {
        // Budget 1: every entry fails the doorkeeper on first sight, so
        // request keys twice — the admitted entry still displaces the
        // previous resident.
        let cache = HierarchyCache::new(1);
        cache.get_or_build(1, || Ok(entry(300, 1))).unwrap();
        cache.get_or_build(1, || Ok(entry(300, 1))).unwrap();
        assert_eq!(cache.stats().entries, 1, "just-inserted entry survives");
        cache.get_or_build(2, || Ok(entry(300, 2))).unwrap();
        cache.get_or_build(2, || Ok(entry(300, 2))).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (1, 1));
        let (_, v) = cache.get_or_build(2, || unreachable!()).unwrap();
        assert_eq!(v, CacheVerdict::Hit, "latest entry is the resident one");
    }

    #[test]
    fn failed_build_leaves_no_residue() {
        let cache = HierarchyCache::new(usize::MAX);
        let err = cache
            .get_or_build(9, || Err(McgpError::Malformed("nope".into())))
            .unwrap_err();
        assert!(matches!(err, McgpError::Malformed(_)));
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        // The key is buildable afterwards.
        let (_, v) = cache.get_or_build(9, || Ok(entry(300, 9))).unwrap();
        assert_eq!(v, CacheVerdict::Miss);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn panicking_build_cleans_up_and_cache_stays_usable() {
        let cache = HierarchyCache::new(usize::MAX);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            let _ = cache.get_or_build(5, || panic!("builder bug"));
        }));
        assert!(boom.is_err());
        assert_eq!(cache.stats().entries, 0);
        let (_, v) = cache.get_or_build(5, || Ok(entry(300, 5))).unwrap();
        assert_eq!(v, CacheVerdict::Miss);
    }

    #[test]
    fn concurrent_same_key_lookups_coalesce() {
        let cache = Arc::new(HierarchyCache::new(usize::MAX));
        let builds = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cache = cache.clone();
            let builds = builds.clone();
            handles.push(std::thread::spawn(move || {
                let (_, verdict) = cache
                    .get_or_build(11, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Hold the Building slot long enough for the
                        // other threads to arrive and wait.
                        std::thread::sleep(std::time::Duration::from_millis(50));
                        Ok(entry(400, 11))
                    })
                    .unwrap();
                verdict
            }));
        }
        let verdicts: Vec<CacheVerdict> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        assert_eq!(
            verdicts
                .iter()
                .filter(|v| **v == CacheVerdict::Miss)
                .count(),
            1
        );
        // Latecomers that waited report Coalesced, never Hit: they paid a
        // build's wall-clock and must not be counted as steady-state.
        assert!(verdicts
            .iter()
            .all(|v| matches!(v, CacheVerdict::Miss | CacheVerdict::Coalesced)));
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.coalesced, 3);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn evicted_entry_spills_and_reloads_from_disk() {
        let dir = tempdir("evict-reload");
        let probe = entry(400, 1);
        // Two entries fill the budget exactly, and each is at most half of
        // it, so the doorkeeper admits every one on first sight.
        let mut config = CacheConfig::new(probe.bytes() * 2);
        config.spill_dir = Some(dir.clone());
        let cache = HierarchyCache::with_config(config);
        cache.get_or_build(1, || Ok(entry(400, 1))).unwrap();
        cache.get_or_build(2, || Ok(entry(400, 2))).unwrap();
        assert_eq!(cache.stats().evictions, 0);
        // Inserting 3 evicts the oldest, 1, which must land on disk.
        cache.get_or_build(3, || Ok(entry(400, 3))).unwrap();
        let s = cache.stats();
        assert_eq!(
            (s.admission_rejects, s.evictions, s.spill_writes),
            (0, 1, 1)
        );
        assert!(spill::spill_path(&dir, 1).exists());
        // Reload: the build closure must NOT run.
        let (e, v) = cache
            .get_or_build(1, || panic!("disk hit must not rebuild"))
            .unwrap();
        assert_eq!(v, CacheVerdict::Disk);
        assert!(v.reused());
        assert_eq!(e.bytes(), probe.bytes());
        assert_eq!(cache.stats().disk_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn spill_all_makes_a_fresh_cache_start_warm() {
        let dir = tempdir("restart");
        let mut config = CacheConfig::new(usize::MAX);
        config.spill_dir = Some(dir.clone());
        let cache = HierarchyCache::with_config(config.clone());
        cache.get_or_build(5, || Ok(entry(500, 5))).unwrap();
        cache.get_or_build(6, || Ok(entry(500, 6))).unwrap();
        assert_eq!(cache.spill_all(), 2);
        drop(cache);
        // "Restart": a brand-new cache over the same directory.
        let cache = HierarchyCache::with_config(config);
        let (_, v) = cache
            .get_or_build(5, || panic!("warm restart must not recoarsen"))
            .unwrap();
        assert_eq!(v, CacheVerdict::Disk);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_spill_file_is_a_clean_miss() {
        let dir = tempdir("corrupt-miss");
        let mut config = CacheConfig::new(usize::MAX);
        config.spill_dir = Some(dir.clone());
        let cache = HierarchyCache::with_config(config);
        std::fs::write(spill::spill_path(&dir, 8), b"MCGPSNAPgarbage").unwrap();
        let builds = AtomicUsize::new(0);
        let (_, v) = cache
            .get_or_build(8, || {
                builds.fetch_add(1, Ordering::SeqCst);
                Ok(entry(300, 8))
            })
            .unwrap();
        assert_eq!(v, CacheVerdict::Miss, "corrupt file falls back to build");
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!((s.spill_errors, s.misses), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
