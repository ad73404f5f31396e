//! Host-speed normalisation of measured times.
//!
//! On a shared host a vCPU alternates, over tens of seconds, between
//! phases in which branchy integer code runs about 40% apart in speed, and
//! each vCPU does so on its own schedule. Run-to-run medians of raw times
//! then differ by more than any useful bound. A fixed probe — sorting the
//! same 300,000 pseudo-random keys — slows in step with the partitioner,
//! so every workload runs on one pinned CPU (the serve workloads' daemon
//! too), and every timed operation is divided by the probe's time on that
//! CPU just before and just after it, then scaled to [`REF_PROBE_S`]. The
//! probe is this file's code and the standard library's sort, neither of
//! which a change to the partitioner touches.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time when the host is in its fast phase; normalised times
/// are in seconds of a host running the probe this fast.
pub const REF_PROBE_S: f64 = 0.0057;

/// Seconds to generate and sort 300,000 pseudo-random `u32` keys.
fn probe() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut keys: Vec<u32> = (0..300_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    keys.sort_unstable();
    black_box(&keys);
    t0.elapsed().as_secs_f64()
}

/// `cpu_set_t` as glibc lays it out: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and the threads and processes it starts
/// from now on, to the first CPU it may use.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..1024)
        .find(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the thread may run on no CPU")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "cannot pin to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Times operations on the calling thread's CPU and normalises each by the
/// probe before and after it.
pub struct Normalizer {
    last: f64,
    /// Every probe time taken, for reporting.
    pub probes: Vec<f64>,
}

impl Normalizer {
    pub fn new() -> Normalizer {
        let last = probe();
        Normalizer {
            last,
            probes: vec![last],
        }
    }

    /// Runs `f`; returns its result, its raw seconds and its normalised
    /// seconds.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.last;
        let t0 = Instant::now();
        let out = f();
        let raw = t0.elapsed().as_secs_f64();
        self.last = probe();
        self.probes.push(self.last);
        (out, raw, raw * REF_PROBE_S * 2.0 / (before + self.last))
    }
}
