//! The serve workloads: one client on one keep-alive connection drives a
//! real `mcgp serve` daemon (or, in the smoke test, an in-process
//! [`Server`]) with the METIS text of the benchmark mesh.

use crate::host::{pin_to_one_cpu, Normalizer};
use crate::replay::{self, OpStats};
use crate::spans::Tracer;
use crate::{
    derive, make_graph, median, peak_rss_mb, Book, Ctx, Family, LayerCounters, Report, Timings,
    TracedOp,
};
use mcgp_core::{HierarchySnapshot, PartitionConfig};
use mcgp_graph::io::{read_metis, write_metis};
use mcgp_graph::{Graph, PartitionQuality};
use mcgp_runtime::net::{http_request, ClientResponse, NetClient};
use mcgp_runtime::Json;
use mcgp_serve::protocol::{done_line, meta_line, part_line, PartitionParams, PART_CHUNK};
use mcgp_serve::{fingerprint, GraphFormat, HierarchyCache, ServeConfig, Server, ServerHandle};
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The daemon's default imbalance tolerance; requests leave `tol` unset.
pub const TOL: f64 = 0.05;
/// `serve_warm` cycles `k` through `WARM_K0 ..` (one value per problem).
const WARM_K0: usize = 9;
const COLD_K: usize = 16;
/// Most cold requests `serve_cold` sends before timing to make the cache
/// evict (three fill the default budget).
const MAX_PREFILL: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(120);

/// Which daemon a serve workload talks to.
pub enum DaemonBin {
    /// A `mcgp serve` child process.
    Exe(PathBuf),
    /// A [`Server`] on a thread of this process, with its own cache budget
    /// (the smoke test's stand-in, since its build has no `mcgp` binary).
    InProcess { cache_bytes: usize },
}

impl DaemonBin {
    fn cache_bytes(&self) -> usize {
        match self {
            DaemonBin::Exe(_) => ServeConfig::default().cache_bytes,
            DaemonBin::InProcess { cache_bytes } => *cache_bytes,
        }
    }
}

enum Proc {
    Child(Child),
    Thread(ServerHandle, std::thread::JoinHandle<std::io::Result<()>>),
}

/// A running daemon; dropping it without [`Daemon::stop`] kills it.
struct Daemon {
    addr: String,
    proc: Option<Proc>,
}

impl Daemon {
    fn start(bin: &DaemonBin, out_dir: &Path) -> Result<Daemon, String> {
        match bin {
            DaemonBin::Exe(exe) => {
                let port_file = out_dir.join(format!("port-{}", std::process::id()));
                let _ = std::fs::remove_file(&port_file);
                let child = Command::new(exe)
                    .args(["serve", "--addr", "127.0.0.1:0", "--port-file"])
                    .arg(&port_file)
                    .env_remove("MCGP_THREADS")
                    .env_remove("MCGP_CHECK")
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .stderr(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                let mut daemon = Daemon {
                    addr: String::new(),
                    proc: Some(Proc::Child(child)),
                };
                let deadline = Instant::now() + Duration::from_secs(30);
                loop {
                    let text = std::fs::read_to_string(&port_file).unwrap_or_default();
                    if text.parse::<SocketAddr>().is_ok() {
                        let _ = std::fs::remove_file(&port_file);
                        daemon.addr = text;
                        return Ok(daemon);
                    }
                    if let Some(Proc::Child(c)) = &mut daemon.proc {
                        if let Ok(Some(status)) = c.try_wait() {
                            return Err(format!("mcgp serve exited during start-up: {status}"));
                        }
                    }
                    if Instant::now() > deadline {
                        return Err("mcgp serve did not report its port within 30 s".into());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            DaemonBin::InProcess { cache_bytes } => {
                let server = Server::bind(ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    cache_bytes: *cache_bytes,
                    ..ServeConfig::default()
                })
                .map_err(|e| format!("bind: {e}"))?;
                let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
                let handle = server.handle();
                let thread = std::thread::spawn(move || server.run());
                Ok(Daemon {
                    addr,
                    proc: Some(Proc::Thread(handle, thread)),
                })
            }
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        match &self.proc {
            Some(Proc::Child(c)) => peak_rss_mb(Some(c.id())),
            _ => peak_rss_mb(None),
        }
    }

    fn metrics(&self) -> Result<Json, String> {
        let resp = http_request(&self.addr, "GET", "/metrics", &[], &[], Some(TIMEOUT))
            .map_err(|e| format!("GET /metrics: {e}"))?;
        Json::parse(resp.text().trim()).map_err(|e| format!("GET /metrics: {e}"))
    }

    fn cache_counter(&self, name: &str) -> Result<f64, String> {
        self.metrics()?
            .get("cache")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("/metrics has no cache.{name}"))
    }

    /// Graceful shutdown; waits until the daemon has ended.
    fn stop(mut self) -> Result<(), String> {
        match self.proc.take() {
            Some(Proc::Child(mut c)) => {
                let asked = http_request(&self.addr, "POST", "/shutdown", &[], &[], Some(TIMEOUT));
                if asked.is_err() {
                    let _ = c.kill();
                }
                let status = c.wait().map_err(|e| e.to_string())?;
                match asked {
                    Ok(_) if status.success() => Ok(()),
                    Ok(_) => Err(format!("mcgp serve exited with {status}")),
                    Err(e) => Err(format!("POST /shutdown: {e}")),
                }
            }
            Some(Proc::Thread(handle, thread)) => {
                handle.shutdown();
                match thread.join() {
                    Ok(Ok(())) => Ok(()),
                    _ => Err("in-process server failed".into()),
                }
            }
            None => Ok(()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        match self.proc.take() {
            Some(Proc::Child(mut c)) => {
                let _ = c.kill();
                let _ = c.wait();
            }
            Some(Proc::Thread(handle, thread)) => {
                handle.shutdown();
                let _ = thread.join();
            }
            None => {}
        }
    }
}

/// The response body the daemon streams for one partition, byte for byte.
pub fn response_body(
    fp: u64,
    params: &PartitionParams,
    graph: &Graph,
    assignment: &[u32],
    levels: usize,
    quality: &PartitionQuality,
) -> Vec<u8> {
    let meta = meta_line(
        fp,
        params,
        graph.nvtxs(),
        graph.adjacency_len() / 2,
        graph.ncon(),
        levels,
    );
    let mut out = String::with_capacity(4 * assignment.len() + 1024);
    out.push_str(&meta);
    out.push('\n');
    for (i, chunk) in assignment.chunks(PART_CHUNK).enumerate() {
        out.push_str(&part_line(i * PART_CHUNK, chunk));
        out.push('\n');
    }
    out.push_str(&done_line(quality));
    out.push('\n');
    out.into_bytes()
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// One request's `(k, seed, problem)`.
type Key = (usize, u64, usize);

struct Inputs {
    warm: bool,
    seed: u64,
    problems: usize,
    /// The METIS text every request uploads.
    body: Vec<u8>,
    /// The graph the daemon parses out of `body`.
    graph: Graph,
}

impl Inputs {
    /// `serve_warm`: one seed, `k` cycling over `problems` values, so every
    /// request after priming is a cache hit. `serve_cold`: `k = 16` and a
    /// fresh seed per request, so every request misses.
    fn key(&self, i: usize) -> Key {
        if self.warm {
            let p = i % self.problems;
            (WARM_K0 + p, derive(self.seed, 2), p)
        } else {
            (COLD_K, derive(self.seed, 1_000_000 + i as u64), i)
        }
    }

    fn prime_key(&self) -> Key {
        if self.warm {
            self.key(0)
        } else {
            (COLD_K, derive(self.seed, 3), usize::MAX)
        }
    }

    fn prefill_key(&self, j: usize) -> Key {
        (COLD_K, derive(self.seed, 2_000_000 + j as u64), usize::MAX)
    }

    /// The body the daemon must send for `key`, computed in-process with
    /// `HierarchySnapshot::partition`; `snap` keeps the last hierarchy.
    fn expected_body(&self, (k, seed, _): Key, snap: &mut Option<HierarchySnapshot>) -> Vec<u8> {
        let cfg = PartitionConfig {
            seed,
            nthreads: 1,
            imbalance_tol: TOL,
            ..PartitionConfig::default()
        };
        if snap.as_ref().is_none_or(|s| s.seed() != seed) {
            *snap = Some(HierarchySnapshot::build(&self.graph, &cfg));
        }
        let snap = snap.as_ref().expect("built above");
        let r = snap.partition(&self.graph, k, &cfg);
        let params = PartitionParams {
            nparts: k,
            tol: TOL,
            seed,
            nthreads: 1,
        };
        let fp = fingerprint(GraphFormat::Metis, &self.body, seed, 1);
        response_body(
            fp,
            &params,
            &self.graph,
            r.partition.assignment(),
            r.coarsen_levels,
            &r.quality,
        )
    }
}

/// One request as the client saw it.
struct Exchange {
    seconds: f64,
    status: u16,
    verdict: String,
    /// The daemon's own request time (`X-Mcgp-Total-Us`).
    server_s: f64,
    body: Vec<u8>,
}

fn target((k, seed, _): Key) -> String {
    format!("/partition?k={k}&seed={seed}&threads=1")
}

fn exchange(resp: ClientResponse, seconds: f64) -> Exchange {
    Exchange {
        seconds,
        status: resp.status,
        verdict: resp.header("x-mcgp-cache").unwrap_or("").to_string(),
        server_s: resp
            .header("x-mcgp-total-us")
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(f64::NAN, |us| us * 1e-6),
        body: resp.body,
    }
}

/// A request on the client's keep-alive connection.
fn post(client: &mut NetClient, body: &[u8], key: Key) -> Result<Exchange, String> {
    let t0 = Instant::now();
    let resp = client
        .request_on("POST", &target(key), &[], body)
        .map_err(|e| format!("POST {}: {e}", target(key)))?;
    Ok(exchange(resp, t0.elapsed().as_secs_f64()))
}

/// A request on a connection of its own, closed afterwards: an idle
/// keep-alive connection would pin one of the daemon's two workers until
/// its idle timeout.
fn post_once(addr: &str, body: &[u8], key: Key, verdict: &str) -> Result<(), String> {
    let resp = http_request(addr, "POST", &target(key), &[], body, Some(TIMEOUT))
        .map_err(|e| format!("POST {}: {e}", target(key)))?;
    let got = resp.header("x-mcgp-cache").unwrap_or("");
    if resp.status != 200 || got != verdict {
        return Err(format!(
            "set-up request {} answered {} with cache verdict {got:?} (want 200, {verdict})",
            target(key),
            resp.status,
        ));
    }
    Ok(())
}

/// The assignment, cut and imbalance a response body reports.
fn parse_body(body: &[u8]) -> Result<(Vec<u32>, i64, f64), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let mut assignment = Vec::new();
    let mut done = None;
    for line in text.lines() {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        match doc.get("type").and_then(Json::as_str) {
            Some("part") => {
                let offset = doc.get("offset").and_then(Json::as_i64);
                if offset != Some(assignment.len() as i64) {
                    return Err("part lines out of order".into());
                }
                for p in doc
                    .get("parts")
                    .and_then(Json::as_arr)
                    .ok_or("part line without parts")?
                {
                    let p = p
                        .as_i64()
                        .and_then(|p| u32::try_from(p).ok())
                        .ok_or("bad part id")?;
                    assignment.push(p);
                }
            }
            Some("done") => {
                let cut = doc
                    .get("edge_cut")
                    .and_then(Json::as_i64)
                    .ok_or("done without edge_cut")?;
                let imb = doc
                    .get("max_imbalance")
                    .and_then(Json::as_f64)
                    .ok_or("done without max_imbalance")?;
                done = Some((cut, imb));
            }
            _ => {}
        }
    }
    let (cut, imb) = done.ok_or("body has no done line")?;
    Ok((assignment, cut, imb))
}

/// The output checks of one served request. Bodies of repeated requests
/// must be byte-identical to the first (`first_body`); the first ones are
/// compared with the in-process serialization after the run.
struct Checks {
    want_verdict: &'static str,
    book: Book,
    first_body: BTreeMap<usize, u64>,
    /// `(problem, passed)` per checked request.
    ops: Vec<(usize, bool)>,
}

impl Checks {
    fn check(&mut self, inputs: &Inputs, key: Key, ex: &Exchange) {
        let (k, _, p) = key;
        let ok = ex.status == 200
            && ex.verdict == self.want_verdict
            && parse_body(&ex.body)
                .is_ok_and(|(a, cut, imb)| self.book.check(&inputs.graph, p, k, &a, cut, imb))
            && *self
                .first_body
                .entry(p)
                .or_insert_with(|| hash_bytes(&ex.body))
                == hash_bytes(&ex.body);
        self.ops.push((p, ok));
    }

    /// Compares each problem's first body with the in-process one; returns
    /// `(attempted, failed)`.
    fn finish(&mut self, inputs: &Inputs) -> (u64, u64) {
        let mut snap = None;
        for (&p, &h) in &self.first_body {
            let key = inputs.key(p);
            if hash_bytes(&inputs.expected_body(key, &mut snap)) != h {
                for op in self.ops.iter_mut().filter(|op| op.0 == p) {
                    op.1 = false;
                }
            }
        }
        let failed = self.ops.iter().filter(|op| !op.1).count();
        (self.ops.len() as u64, failed as u64)
    }
}

/// Runs `serve_warm` (`warm`) or `serve_cold`.
pub fn run(ctx: &Ctx, warm: bool) -> Result<Report, String> {
    let mut body = Vec::new();
    write_metis(&make_graph(Family::Mesh, &ctx.sizes), &mut body).map_err(|e| e.to_string())?;
    let graph = read_metis(&body[..]).map_err(|e| e.to_string())?;
    let inputs = Inputs {
        warm,
        seed: ctx.seed,
        problems: ctx.problems,
        body,
        graph,
    };
    let body = &inputs.body[..];

    // Client, daemon and in-process replays share one CPU, so the probe on
    // this thread measures the CPU every part of a request ran on.
    pin_to_one_cpu()?;
    let mut clock = Normalizer::new();
    let mut t = Timings::default();

    // Set-up: start a daemon and prime it; the last one serves the run.
    let mut daemon: Option<Daemon> = None;
    let setups = if ctx.trace { 1 } else { ctx.sizes.setups };
    for _ in 0..setups {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let (d, _, setup_s) = clock.time(|| {
            let d = Daemon::start(&ctx.daemon, &ctx.out_dir)?;
            post_once(&d.addr, body, inputs.prime_key(), "miss")?;
            Ok::<_, String>(d)
        });
        t.setup.push(setup_s);
        daemon = Some(d?);
    }
    let daemon = daemon.expect("at least one set-up");

    // The traced pass replays every request against this cache, which sees
    // the daemon's request sequence under the daemon's budget.
    let local = HierarchyCache::new(ctx.daemon.cache_bytes());
    let mut scratch = Tracer::new();
    let mut mirror = |key: Key| -> Result<(), String> {
        if ctx.trace {
            replay::serve_request(body, key.0, key.1, &local, &mut scratch)?;
        }
        Ok(())
    };
    mirror(inputs.prime_key())?;
    if !warm {
        // Every timed cold request must also evict.
        let mut j = 0;
        while daemon.cache_counter("evictions")? == 0.0 {
            if j == MAX_PREFILL {
                return Err(format!(
                    "no cache eviction after {MAX_PREFILL} prefill requests"
                ));
            }
            post_once(&daemon.addr, body, inputs.prefill_key(j), "miss")?;
            mirror(inputs.prefill_key(j))?;
            j += 1;
        }
    }

    let mut checks = Checks {
        want_verdict: if warm { "hit" } else { "miss" },
        book: Book::default(),
        first_body: BTreeMap::new(),
        ops: Vec::new(),
    };
    let mut client = NetClient::new(&daemon.addr, Some(TIMEOUT));
    let mut traced: Vec<TracedOp> = Vec::new();
    let mut tracer = Tracer::new();
    let mut identical = true;
    let mut response_bytes = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    // The daemon is never traced, so in a traced run every request is
    // both a plain request and, afterwards, a traced replay.
    while ctx.keep_going(start, i, i) {
        let key = inputs.key(i);
        i += 1;
        if ctx.trace {
            let op = traced.len() as u64;
            tracer.set_op(op);
            let (ex, (replayed, stats)) = tracer.span("serve_request", |tr| {
                let t0 = Instant::now();
                let ex = post(&mut client, body, key)?;
                tr.record("daemon", t0, Instant::now());
                let replayed = replay::serve_request(body, key.0, key.1, &local, tr)?;
                Ok::<_, String>((ex, replayed))
            })?;
            checks.check(&inputs, key, &ex);
            identical &= replayed == ex.body;
            response_bytes.push(ex.body.len() as f64);
            t.record(key.2, ex.seconds, ex.seconds);
            traced.push(serve_op(&tracer, op, &ex, stats));
        } else {
            let (ex, raw, normalised) = clock.time(|| post(&mut client, body, key));
            let ex = ex?;
            checks.check(&inputs, key, &ex);
            t.record(key.2, raw, normalised);
        }
    }
    let requests = i as f64;
    let connects = client.connects() as f64;
    drop(client);
    t.probes = clock.probes;
    // After the timed loop: for `serve_cold` the peak then includes a full
    // cache, its evictions and every request's own allocations.
    t.peak_rss_mb = daemon.peak_rss_mb()?;

    let counters = LayerCounters {
        body_bytes: body.len() as f64,
        response_bytes: median(&response_bytes),
        cache_hit_ratio: daemon.cache_counter("hit_ratio")?,
        cache_evictions: daemon.cache_counter("evictions")?,
        cache_waits: daemon.cache_counter("coalesced")?,
        requests_per_connect: requests / connects,
    };
    daemon.stop()?;
    let (attempted, failed) = checks.finish(&inputs);
    Ok(if ctx.trace {
        Report::traced(
            attempted,
            failed,
            &traced,
            &t.raw(),
            identical,
            &counters,
            tracer,
        )
    } else {
        Report::end_to_end(attempted, failed, &t, &checks.book, ctx.problems)
    })
}

/// Per-layer shares of one traced request, relative to the client's
/// latency. `transport` is what the daemon's own clock does not see
/// (upload, download, queueing); `server` is what it does.
fn serve_op(tr: &Tracer, op: u64, ex: &Exchange, stats: OpStats) -> TracedOp {
    let latency = ex.seconds;
    let own = tr.self_seconds(op);
    let replay_s =
        tr.seconds(op, "serve_request") - own["serve_request"] - tr.seconds(op, "daemon");
    let mut shares: BTreeMap<&'static str, f64> = own
        .into_iter()
        .filter(|(name, _)| !matches!(*name, "serve_request" | "daemon"))
        .map(|(name, s)| (name, s / latency))
        .collect();
    shares.insert("transport", (latency - ex.server_s) / latency);
    shares.insert("server", ex.server_s / latency);
    let stage_s = replay_s + latency - ex.server_s;
    TracedOp {
        shares,
        stats,
        stage_s,
        traced_s: stage_s,
    }
}
