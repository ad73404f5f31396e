//! # mcgp-runtime — hermetic zero-dependency runtime substrate
//!
//! Every other crate in the workspace builds on this one, and this one
//! builds on nothing but `std`. That is a deliberate policy, not an
//! accident (see `DESIGN.md`, "Hermetic builds"): the workspace must
//! compile and test with `--offline` on a machine that has never talked to
//! crates.io, and the partitioner must own the runtime behaviours its
//! results depend on.
//!
//! Its modules:
//!
//! * [`rng`] — a seedable deterministic PRNG (SplitMix64-seeded
//!   xoshiro256++). Same seed ⇒ bit-identical stream on every platform,
//!   which makes every partition reproducible and every test failure
//!   replayable from a single `u64`.
//! * [`pool`] — a scoped worker pool over index ranges. Results are merged
//!   in index order, so parallel execution never perturbs determinism.
//! * [`json`] — a minimal JSON value type with writer and parser, enough
//!   for the experiment JSONL records and config round-trips.
//! * [`phase`] — per-phase wall time, fed by phase-tagged spans, and five
//!   monotonic counters (moves attempted/committed, matching conflicts,
//!   vertices matched, contraction aborts) collected thread-locally and
//!   merged across [`pool`] workers. Always on: a fixed-size array tally.
//! * [`trace`] — structured tracing: scoped spans ([`span!`]) and typed
//!   instant events ([`event!`]), exportable as JSONL or Chrome
//!   trace-event JSON. Off by default; near-zero cost when off. These are
//!   the partitioner's two reporting channels: the phase tally holds the
//!   totals, and every other number (per-pass boundary sizes and gains,
//!   per-round grants and withholds) is a span or event field.
//! * [`metrics`] — histograms, a sliding-window histogram and Prometheus
//!   text exposition, for the daemon's `/metrics` endpoint.
//! * [`profile`] — a span-stack sampling profiler: spans publish to
//!   lock-free per-thread slots, a sampler thread tallies collapsed
//!   stacks (Brendan Gregg `a;b;c 42` format). Off by default; one
//!   relaxed load when off.
//! * [`prefetch`] — a bounds-checked software prefetch hint, the crate's
//!   one `unsafe` block, for loops that know their next visits.
//! * [`net`] — hand-rolled HTTP/1.1 request/response primitives over
//!   `std::net`, the transport under `mcgp serve` (hermetic policy: no
//!   hyper/tokio).

pub mod json;
pub mod metrics;
pub mod net;
pub mod phase;
pub mod pool;
pub mod prefetch;
pub mod profile;
pub mod rng;
pub mod trace;

pub use json::{Json, ToJson};
pub use metrics::{Histogram, WindowedHistogram};
pub use phase::{Counter, Phase, PhaseReport};
pub use profile::{CollapsedStacks, Profiler};
pub use rng::{Rng, SliceRandom};
pub use trace::{FieldValue, Span, TraceEvent, TraceFormat};
