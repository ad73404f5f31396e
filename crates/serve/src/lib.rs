//! # mcgp-serve — partitioning as a service
//!
//! A long-running daemon that answers k-way multi-constraint partitioning
//! requests over HTTP, amortising the multilevel pipeline's dominant cost
//! across requests: coarsening depends only on `(graph, seed, matching
//! scheme)` — never on `nparts`, the imbalance tolerance or the thread
//! count — so the daemon fingerprints each ingested graph, caches its deep
//! [`mcgp_core::HierarchySnapshot`] in a bounded cost-aware cache
//! ([`cache::HierarchyCache`]), and serves any `(k, ε, threads)`
//! combination on a warm graph by replaying only initial partitioning +
//! refinement.
//!
//! The transport is the hand-rolled HTTP/1.1 subset in
//! [`mcgp_runtime::net`] (hermetic policy: no hyper/tokio) with
//! persistent keep-alive connections: one socket carries many requests,
//! streamed responses use chunked framing under reuse, and idle
//! connections are reaped on a deadline. Responses stream as JSONL;
//! everything that varies between a cold, warm, or disk-reloaded run
//! (cache verdict, timings, trace id) rides in `X-Mcgp-*` headers so
//! the partition in a response body is a function of
//! `(graph bytes, k, ε, seed)` alone — the determinism contract
//! [`server`] documents and `tests/serve_http.rs` enforces bit-for-bit.
//!
//! Modules:
//!
//! - [`cache`] — graph fingerprinting and the coalescing cost-aware
//!   hierarchy cache (GDSF eviction, admission doorkeeper).
//! - [`spill`] — the versioned, checksummed disk format behind
//!   `--cache-dir` warm restarts.
//! - [`protocol`] — request parsing, the typed error taxonomy on the wire,
//!   and the JSONL response body builders.
//! - [`server`] — the daemon: worker pool, keep-alive connection loop,
//!   routing, `/metrics`, graceful drain on shutdown.
//! - [`signal`] — SIGINT/SIGTERM latching for graceful shutdown.
//! - [`bench`] — the self-contained load generator behind `mcgp bench serve`.

pub mod bench;
pub mod cache;
pub mod protocol;
pub mod server;
pub mod signal;
pub mod spill;

pub use cache::{fingerprint, CacheConfig, CacheStats, CachedEntry, HierarchyCache};
pub use protocol::GraphFormat;
pub use server::{ServeConfig, Server, ServerHandle, MAX_REQUESTS_PER_CONN};
