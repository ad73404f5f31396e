//! The load generator behind `mcgp bench serve`.
//!
//! Self-contained: binds an in-process [`crate::Server`] on an ephemeral
//! loopback port, generates one mesh, serialises it to METIS text once,
//! and hammers the daemon from N client threads over real sockets with a
//! deterministic cold/warm request mix. Each client holds one persistent
//! keep-alive connection ([`NetClient`]) — the deployment shape the
//! daemon is tuned for. Cold requests carry a unique seed (fresh
//! fingerprint, full coarsen); warm requests share one seed and cycle
//! `k`, so after a priming request they all hit the hierarchy cache.
//! Requests are classified by the daemon's own `X-Mcgp-Cache` verdict,
//! never by guesswork.
//!
//! Output is JSONL on the provided writer, one row per class
//! (`serve_cold_*`, `serve_warm_first_*`, `serve_warm_steady_*`,
//! `serve_mixed_*`, and the `serve_warm_keepalive_*` /
//! `serve_warm_perconn_*` connection-reuse pair, and the in-process
//! `stage/fingerprint|measure|part_lines/*` timings), each carrying the
//! `bench`/`samples`/`median_s`/`min_s`/`max_s` fields `mcgp
//! bench-check` validates plus `p50_s`/`p99_s` latency quantiles;
//! throughput rows add `rps`.
//!
//! The steady-warm row means steady state: a warm sample lands in
//! `serve_warm_steady_*` only if the daemon called it `hit` *and* its
//! wall-clock interval overlapped no cold build — a hit served while a
//! miss is coarsening on the other worker rides the same contended
//! epoch (queueing, allocator pressure) and is reported with the
//! coalesced `wait` verdicts in `serve_warm_first_*` instead. Lumping
//! them produced steady-warm p99s an order of magnitude above the
//! median; the split gives the SLO window an honest baseline.
//!
//! The connection-reuse pair runs the same small warm request back to
//! back through one kept-alive socket and then through one socket per
//! request; `mcgp bench-gate --rps-win` holds their ratio ≥ 2x. While
//! running, the generator also cross-checks the determinism contract:
//! responses to an identical request must be byte-identical — cold,
//! warm, disk, chunked under keep-alive, or close-delimited.

use crate::cache::{fingerprint, lane_hash};
use crate::protocol::{part_line, GraphFormat, PART_CHUNK};
use crate::server::{ServeConfig, Server};
use mcgp_core::{HierarchySnapshot, PartitionConfig};
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::io::write_metis;
use mcgp_graph::{Graph, PartitionQuality};
use mcgp_runtime::net::{http_request, NetClient};
use mcgp_runtime::Json;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Load-test shape. Defaults reproduce the checked-in `BENCH_serve.json`:
/// the 200k mesh of the bench suite, 2 clients, every 6th request cold,
/// plus the rmat9 connection-reuse pair.
#[derive(Clone, Debug)]
pub struct BenchServeConfig {
    /// Mesh size (vertices) of the generated graph.
    pub nvtxs: usize,
    /// Total timed requests across all clients.
    pub requests: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Every `cold_every`-th request uses a fresh seed (cache miss).
    pub cold_every: usize,
    /// Server worker threads.
    pub workers: usize,
    /// R-MAT scale (`2^scale` vertices) of the small warm graph behind
    /// the connection-reuse pair. Small on purpose: per-request work must
    /// be cheap enough that connection setup is the dominant cost being
    /// measured.
    pub small_scale: u32,
    /// Timed requests in each half of the connection-reuse pair.
    pub small_requests: usize,
}

impl Default for BenchServeConfig {
    fn default() -> Self {
        BenchServeConfig {
            nvtxs: 200_000,
            requests: 24,
            clients: 2,
            cold_every: 6,
            workers: 2,
            small_scale: 9,
            small_requests: 40,
        }
    }
}

struct Sample {
    /// Request interval as offsets from the load-test epoch, so warm
    /// samples can be checked for overlap with cold builds.
    start: f64,
    end: f64,
    /// The daemon's `X-Mcgp-Cache` verdict: `"miss"`, `"hit"`, `"wait"`,
    /// or `"disk"`.
    verdict: String,
}

impl Sample {
    fn seconds(&self) -> f64 {
        self.end - self.start
    }

    fn overlaps_any(&self, intervals: &[(f64, f64)]) -> bool {
        intervals.iter().any(|&(a, b)| self.start < b && a < self.end)
    }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn latency_row(name: &str, samples: &mut [f64], extra: Vec<(String, Json)>) -> String {
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut pairs = vec![
        ("bench".to_string(), Json::Str(name.into())),
        ("samples".to_string(), Json::UInt(samples.len() as u64)),
        ("median_s".to_string(), Json::Float(quantile(samples, 0.5))),
        ("min_s".to_string(), Json::Float(samples[0])),
        (
            "max_s".to_string(),
            Json::Float(samples[samples.len() - 1]),
        ),
        ("p50_s".to_string(), Json::Float(quantile(samples, 0.5))),
        ("p99_s".to_string(), Json::Float(quantile(samples, 0.99))),
    ];
    pairs.extend(extra);
    Json::Obj(pairs).to_string()
}

/// Runs the load test and writes the JSONL report to `out`. Progress
/// goes to stderr; the report alone goes to the writer so callers can
/// redirect it straight into `BENCH_serve.json`.
pub fn run_serve_bench(cfg: &BenchServeConfig, out: &mut dyn Write) -> io::Result<()> {
    assert!(
        cfg.requests >= 2 && cfg.clients >= 1 && cfg.cold_every >= 2 && cfg.small_requests >= 4
    );
    eprintln!(
        "bench serve: generating mrng mesh, nvtxs={} ...",
        cfg.nvtxs
    );
    let graph = mrng_like(cfg.nvtxs, 5);
    let mut body = Vec::new();
    write_metis(&graph, &mut body).map_err(|e| io::Error::other(e.to_string()))?;

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: cfg.workers,
        ..ServeConfig::default()
    })?;
    let addr = server.local_addr()?.to_string();
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let timeout = Some(Duration::from_secs(600));
    let warm_seed: u64 = 1;
    let warm_k = [4usize, 8, 16];
    // Prime the warm fingerprint so every timed warm request is a hit.
    eprintln!("bench serve: priming warm hierarchy on {addr} ...");
    let prime = http_request(
        &addr,
        "POST",
        &format!("/partition?k=8&seed={warm_seed}"),
        &[],
        &body,
        timeout,
    )?;
    if prime.status != 200 {
        return Err(io::Error::other(format!(
            "priming request failed: status {} body {}",
            prime.status,
            prime.text()
        )));
    }

    eprintln!(
        "bench serve: {} requests, {} clients, cold every {} ...",
        cfg.requests, cfg.clients, cfg.cold_every
    );
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    // Responses to an identical request must be byte-identical whether
    // they were served cold or warm, over a fresh connection or a reused
    // one: the determinism contract, enforced while load-testing.
    let body_digests: Mutex<HashMap<(usize, u64), u64>> = Mutex::new(HashMap::new());
    let t_start = Instant::now();
    let failure: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for client in 0..cfg.clients {
            let addr = &addr;
            let body = &body;
            let samples = &samples;
            let body_digests = &body_digests;
            let failure = &failure;
            let warm_k = &warm_k;
            scope.spawn(move || {
                // One persistent connection per client for the whole run.
                let mut net = NetClient::new(addr, timeout);
                let mut i = client;
                while i < cfg.requests {
                    let cold = i % cfg.cold_every == 0;
                    let seed = if cold { 1000 + i as u64 } else { warm_seed };
                    let k = warm_k[i % warm_k.len()];
                    let target = format!("/partition?k={k}&seed={seed}");
                    let t0 = Instant::now();
                    let resp = match net.request_on("POST", &target, &[], body) {
                        Ok(r) => r,
                        Err(e) => {
                            *failure.lock().unwrap() =
                                Some(format!("request {i} failed: {e}"));
                            return;
                        }
                    };
                    let start = (t0 - t_start).as_secs_f64();
                    let end = t_start.elapsed().as_secs_f64();
                    if resp.status != 200 {
                        *failure.lock().unwrap() = Some(format!(
                            "request {i} got status {}: {}",
                            resp.status,
                            resp.text()
                        ));
                        return;
                    }
                    let verdict = resp
                        .header("x-mcgp-cache")
                        .unwrap_or("miss")
                        .to_string();
                    let digest = lane_hash(&resp.body, &[]);
                    let prior = body_digests.lock().unwrap().insert((k, seed), digest);
                    if let Some(prior) = prior {
                        if prior != digest {
                            *failure.lock().unwrap() = Some(format!(
                                "determinism violation: k={k} seed={seed} bodies differ"
                            ));
                            return;
                        }
                    }
                    samples.lock().unwrap().push(Sample { start, end, verdict });
                    i += cfg.clients;
                }
            });
        }
    });
    let wall_s = t_start.elapsed().as_secs_f64();
    if let Some(msg) = failure.lock().unwrap().take() {
        handle.shutdown();
        let _ = server_thread.join();
        return Err(io::Error::other(msg));
    }

    // Connection-reuse pair: the same small warm request, back to back,
    // through one kept-alive socket and then one socket per request.
    let pair = small_warm_pair(cfg, &addr, timeout, &body_digests);

    handle.shutdown();
    server_thread
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))??;
    let (mut ka, mut pc) = pair?;

    let samples = samples.into_inner().unwrap();
    let mut cold: Vec<f64> = Vec::new();
    let mut warm_steady: Vec<f64> = Vec::new();
    let mut warm_first: Vec<f64> = Vec::new();
    // Epoch split: a `hit` only counts as steady state when its interval
    // overlapped no cold build — contended hits share the `wait` row.
    let miss_intervals: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.verdict == "miss")
        .map(|s| (s.start, s.end))
        .collect();
    for s in &samples {
        match s.verdict.as_str() {
            "miss" => cold.push(s.seconds()),
            "hit" | "disk" if !s.overlaps_any(&miss_intervals) => warm_steady.push(s.seconds()),
            _ => warm_first.push(s.seconds()),
        }
    }
    if cold.is_empty() || warm_steady.is_empty() {
        return Err(io::Error::other(format!(
            "degenerate mix: {} cold / {} steady-warm samples",
            cold.len(),
            warm_steady.len()
        )));
    }
    let mut all: Vec<f64> = samples.iter().map(|s| s.seconds()).collect();
    let label = format!("mrng{}", cfg.nvtxs);
    writeln!(out, "{}", latency_row(&format!("serve_cold_{label}"), &mut cold, vec![]))?;
    if !warm_first.is_empty() {
        writeln!(
            out,
            "{}",
            latency_row(&format!("serve_warm_first_{label}"), &mut warm_first, vec![])
        )?;
    }
    writeln!(
        out,
        "{}",
        latency_row(&format!("serve_warm_steady_{label}"), &mut warm_steady, vec![])
    )?;
    writeln!(
        out,
        "{}",
        latency_row(
            &format!("serve_mixed_{label}"),
            &mut all,
            vec![
                ("rps".to_string(), Json::Float(samples.len() as f64 / wall_s)),
                ("wall_s".to_string(), Json::Float(wall_s)),
                ("clients".to_string(), Json::UInt(cfg.clients as u64)),
                ("workers".to_string(), Json::UInt(cfg.workers as u64)),
            ],
        )
    )?;
    let small_label = format!("rmat{}", cfg.small_scale);
    let ka_rps = ka.len() as f64 / ka.iter().sum::<f64>().max(1e-9);
    let pc_rps = pc.len() as f64 / pc.iter().sum::<f64>().max(1e-9);
    writeln!(
        out,
        "{}",
        latency_row(
            &format!("serve_warm_keepalive_{small_label}"),
            &mut ka,
            vec![("rps".to_string(), Json::Float(ka_rps))],
        )
    )?;
    writeln!(
        out,
        "{}",
        latency_row(
            &format!("serve_warm_perconn_{small_label}"),
            &mut pc,
            vec![("rps".to_string(), Json::Float(pc_rps))],
        )
    )?;
    for row in stage_rows(cfg.nvtxs, &graph, &body) {
        writeln!(out, "{row}")?;
    }
    eprintln!(
        "bench serve: cold median {:.3}s, steady-warm median {:.3}s ({:.1}x), {} contended/coalesced, {:.2} req/s mixed; keep-alive {:.1} vs per-conn {:.1} req/s ({:.1}x)",
        quantile(&cold, 0.5),
        quantile(&warm_steady, 0.5),
        quantile(&cold, 0.5) / quantile(&warm_steady, 0.5).max(1e-9),
        warm_first.len(),
        samples.len() as f64 / wall_s,
        ka_rps,
        pc_rps,
        ka_rps / pc_rps.max(1e-9),
    );
    Ok(())
}

/// Timed samples per `stage/*` row.
const STAGE_SAMPLES: usize = 15;

/// The `stage/*` rows: in-process timings of the served-path stages that
/// are not partitioning, on the load test's own mesh and body after the
/// daemon has stopped — fingerprinting the upload, measuring a k = 16
/// partition's quality, and serialising its `part` lines. `n` is the
/// mesh size the graph was generated for.
fn stage_rows(n: usize, graph: &Graph, body: &[u8]) -> Vec<String> {
    let label = if n.is_multiple_of(1000) {
        format!("mrng{}k", n / 1000)
    } else {
        format!("mrng{n}")
    };
    eprintln!("bench serve: stage timings on {label} ...");
    let k = 16;
    let cfg = PartitionConfig::default();
    let partition = HierarchySnapshot::build(graph, &cfg)
        .partition(graph, k, &cfg)
        .partition;
    let time = |f: &mut dyn FnMut()| -> Vec<f64> {
        (0..STAGE_SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .collect()
    };
    let mut fp = time(&mut || {
        black_box(fingerprint(GraphFormat::Metis, black_box(body), 1, 1));
    });
    let mut measure = time(&mut || {
        black_box(PartitionQuality::measure(graph, black_box(&partition)));
    });
    let mut lines = time(&mut || {
        for (i, chunk) in partition.assignment().chunks(PART_CHUNK).enumerate() {
            black_box(part_line(i * PART_CHUNK, black_box(chunk)));
        }
    });
    vec![
        latency_row(&format!("stage/fingerprint/{label}"), &mut fp, vec![]),
        latency_row(&format!("stage/measure/{label}_k{k}"), &mut measure, vec![]),
        latency_row(&format!("stage/part_lines/{label}_k{k}"), &mut lines, vec![]),
    ]
}

/// Runs the connection-reuse pair against an already-running daemon:
/// primes a small warm hierarchy, then times `small_requests` identical
/// warm requests through one persistent connection and again through a
/// fresh connection per request. Returns the two per-request latency
/// sets (keep-alive first). Single-client and warm-only by design — the
/// pair isolates connection setup cost, nothing else.
fn small_warm_pair(
    cfg: &BenchServeConfig,
    addr: &str,
    timeout: Option<Duration>,
    body_digests: &Mutex<HashMap<(usize, u64), u64>>,
) -> io::Result<(Vec<f64>, Vec<f64>)> {
    let seed: u64 = 2;
    let k: usize = 4;
    let graph = rmat_default(cfg.small_scale, 8, 7);
    let mut body = Vec::new();
    write_metis(&graph, &mut body).map_err(|e| io::Error::other(e.to_string()))?;
    let target = format!("/partition?k={k}&seed={seed}");
    eprintln!(
        "bench serve: connection-reuse pair, rmat{} x{} ...",
        cfg.small_scale, cfg.small_requests
    );
    let check = |resp: mcgp_runtime::net::ClientResponse, who: &str| -> io::Result<()> {
        if resp.status != 200 {
            return Err(io::Error::other(format!(
                "{who} request got status {}: {}",
                resp.status,
                resp.text()
            )));
        }
        let digest = lane_hash(&resp.body, &[]);
        let prior = body_digests.lock().unwrap().insert((k, seed), digest);
        if prior.is_some_and(|p| p != digest) {
            return Err(io::Error::other(
                "determinism violation: keep-alive and per-connection bodies differ".to_string(),
            ));
        }
        Ok(())
    };
    // Prime (and absorb the one cold build) before timing anything.
    let mut net = NetClient::new(addr, timeout);
    check(net.request_on("POST", &target, &[], &body)?, "priming")?;

    let mut ka = Vec::with_capacity(cfg.small_requests);
    for _ in 0..cfg.small_requests {
        let t0 = Instant::now();
        let resp = net.request_on("POST", &target, &[], &body)?;
        ka.push(t0.elapsed().as_secs_f64());
        check(resp, "keep-alive")?;
    }
    // The daemon must not have idled out the pumping client: every timed
    // keep-alive request rode the priming request's socket.
    if net.connects() != 1 {
        return Err(io::Error::other(format!(
            "keep-alive phase opened {} connections, expected 1",
            net.connects()
        )));
    }
    let mut pc = Vec::with_capacity(cfg.small_requests);
    for _ in 0..cfg.small_requests {
        let t0 = Instant::now();
        let resp = http_request(addr, "POST", &target, &[], &body, timeout)?;
        pc.push(t0.elapsed().as_secs_f64());
        check(resp, "per-connection")?;
    }
    Ok((ka, pc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_load_test_produces_valid_rows() {
        let cfg = BenchServeConfig {
            nvtxs: 600,
            requests: 6,
            clients: 2,
            cold_every: 3,
            workers: 2,
            small_scale: 6,
            small_requests: 4,
        };
        let mut out = Vec::new();
        run_serve_bench(&cfg, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let rows: Vec<Json> = text
            .lines()
            .map(|l| Json::parse(l).expect("row parses"))
            .collect();
        // 8 rows always (cold / warm_steady / mixed / keepalive /
        // perconn / three stage rows); a 9th (warm_first) only when the
        // tiny run happened to coalesce or contend with a cold build.
        assert!(rows.len() == 8 || rows.len() == 9, "{} rows", rows.len());
        let mut names = Vec::new();
        for row in &rows {
            names.push(row.get("bench").unwrap().as_str().unwrap().to_string());
            let samples = row.get("samples").unwrap().as_i64().unwrap();
            assert!(samples >= 1);
            let (min, med, max) = (
                row.get("min_s").unwrap().as_f64().unwrap(),
                row.get("median_s").unwrap().as_f64().unwrap(),
                row.get("max_s").unwrap().as_f64().unwrap(),
            );
            assert!(min <= med && med <= max, "{row}");
            assert!(row.get("p99_s").unwrap().as_f64().unwrap() >= med);
        }
        assert!(names[0].starts_with("serve_cold_"));
        assert_eq!(
            names[names.len() - 3..],
            [
                "stage/fingerprint/mrng600",
                "stage/measure/mrng600_k16",
                "stage/part_lines/mrng600_k16"
            ]
        );
        assert!(names.iter().any(|n| n.starts_with("serve_warm_steady_")));
        let find = |prefix: &str| {
            rows.iter()
                .find(|r| {
                    r.get("bench")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .starts_with(prefix)
                })
                .unwrap_or_else(|| panic!("missing {prefix} row"))
        };
        assert!(find("serve_mixed_").get("rps").unwrap().as_f64().unwrap() > 0.0);
        // The reuse pair exists and carries throughput; the tiny run
        // makes no claim about the ratio (that's bench-gate's job on the
        // real configuration).
        assert!(
            find("serve_warm_keepalive_")
                .get("rps")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert!(
            find("serve_warm_perconn_")
                .get("rps")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
    }
}
