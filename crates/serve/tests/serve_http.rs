//! End-to-end tests of the daemon over real loopback sockets: hierarchy
//! cache semantics (a warm request is bit-identical to its cold run and
//! to the library), and protocol robustness (the malformed-graph corpus
//! over the wire returns typed errors and never kills the daemon or
//! poisons the cache).

use mcgp_check::corpus::{ExpectedError, MALFORMED_GRAPHS};
use mcgp_core::{partition_kway, PartitionConfig};
use mcgp_graph::generators::mrng_like;
use mcgp_graph::io::write_metis;
use mcgp_graph::{synthetic, Graph};
use mcgp_runtime::net::{http_request, ClientResponse, Limits, NetClient};
use mcgp_runtime::trace::{self, EventKind, FieldValue};
use mcgp_runtime::{Json, PhaseReport, ToJson};
use mcgp_serve::server::{ServeConfig, Server};
use mcgp_serve::{ServerHandle, MAX_REQUESTS_PER_CONN};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::time::Duration;

type ServerThread = std::thread::JoinHandle<std::io::Result<()>>;

fn start(config: ServeConfig) -> (String, ServerHandle, ServerThread) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (addr, handle, thread)
}

fn start_default() -> (String, ServerHandle, ServerThread) {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
}

fn stop(handle: &ServerHandle, thread: ServerThread) {
    handle.shutdown();
    thread.join().unwrap().unwrap();
}

fn metis_bytes(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    write_metis(g, &mut out).unwrap();
    out
}

fn post(addr: &str, target: &str, body: &[u8]) -> ClientResponse {
    http_request(
        addr,
        "POST",
        target,
        &[],
        body,
        Some(Duration::from_secs(120)),
    )
    .unwrap()
}

fn get(addr: &str, target: &str) -> ClientResponse {
    http_request(addr, "GET", target, &[], b"", Some(Duration::from_secs(30))).unwrap()
}

/// Parses a success body into (meta, assignment, done).
fn parse_body(text: &str) -> (Json, Vec<u32>, Json) {
    let mut lines = text.lines();
    let meta = Json::parse(lines.next().expect("meta line")).unwrap();
    assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
    let mut parts: Vec<u32> = Vec::new();
    let mut done = None;
    for line in lines {
        let doc = Json::parse(line).unwrap();
        match doc.get("type").unwrap().as_str().unwrap() {
            "part" => {
                let offset = doc.get("offset").unwrap().as_i64().unwrap() as usize;
                assert_eq!(offset, parts.len(), "part lines in order");
                parts.extend(
                    doc.get("parts")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .iter()
                        .map(|p| p.as_i64().unwrap() as u32),
                );
            }
            "done" => done = Some(doc),
            other => panic!("unexpected body line type: {other}"),
        }
    }
    (meta, parts, done.expect("done line"))
}

#[test]
fn warm_requests_are_bit_identical_and_match_the_library() {
    let graph = synthetic::type1(&mrng_like(1500, 7), 2, 7);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // Cold: pays coarsening.
    let cold = post(&addr, "/partition?k=4", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-mcgp-cache"), Some("miss"));
    assert!(cold.header("x-mcgp-trace-id").is_some());
    let cold_coarsen: u64 = cold.header("x-mcgp-coarsen-us").unwrap().parse().unwrap();
    assert!(cold_coarsen > 0, "cold run must pay coarsening");

    // Identical request: cache hit, zero coarsening, byte-identical body.
    let warm = post(&addr, "/partition?k=4", &body);
    assert_eq!(warm.header("x-mcgp-cache"), Some("hit"));
    let warm_coarsen: u64 = warm.header("x-mcgp-coarsen-us").unwrap().parse().unwrap();
    assert_eq!(warm_coarsen, 0, "warm run must not coarsen");
    assert_eq!(cold.body, warm.body, "responses must be byte-identical");

    // Same fingerprint, different (k, ε): still a hit, and bit-identical
    // to what the library computes cold.
    let other = post(&addr, "/partition?k=8&tol=0.2", &body);
    assert_eq!(other.status, 200, "{}", other.text());
    assert_eq!(other.header("x-mcgp-cache"), Some("hit"));
    let (meta, parts, done) = parse_body(&other.text());
    assert_eq!(meta.get("k").unwrap().as_i64(), Some(8));
    let lib_cfg = PartitionConfig {
        imbalance_tol: 0.2,
        ..PartitionConfig::default()
    };
    let lib = partition_kway(&graph, 8, &lib_cfg);
    assert_eq!(parts, lib.partition.assignment(), "served != library");
    assert_eq!(
        done.get("edge_cut").unwrap().as_i64(),
        Some(lib.quality.edge_cut)
    );
    assert_eq!(
        meta.get("levels").unwrap().as_i64().unwrap() as usize,
        lib.coarsen_levels
    );

    // A different seed is a different fingerprint: cold again.
    let reseeded = post(&addr, "/partition?k=4&seed=9", &body);
    assert_eq!(reseeded.header("x-mcgp-cache"), Some("miss"));

    let metrics = get(&addr, "/metrics");
    assert_eq!(metrics.status, 200);
    let doc = Json::parse(metrics.text().trim()).unwrap();
    let cache = doc.get("cache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_i64(), Some(2));
    assert_eq!(cache.get("misses").unwrap().as_i64(), Some(2));
    assert_eq!(cache.get("entries").unwrap().as_i64(), Some(2));
    assert_eq!(doc.get("errors").unwrap().as_i64(), Some(0));
    // The `phases` object is `PhaseReport`'s own JSON: same keys, same
    // order, and the two cold builds' coarsening time is in it.
    let keys = |j: &Json| match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
        other => panic!("not an object: {other}"),
    };
    let phases = doc.get("phases").unwrap();
    assert_eq!(keys(phases), keys(&PhaseReport::new().to_json()));
    assert!(phases.get("coarsen_s").unwrap().as_f64().unwrap() > 0.0);

    stop(&handle, thread);
}

#[test]
fn json_and_metis_ingest_agree_on_the_same_graph() {
    let graph = mrng_like(600, 3);
    let metis = metis_bytes(&graph);
    let json_body = Json::obj([
        (
            "xadj",
            Json::Arr(graph.xadj().iter().map(|&x| Json::UInt(x as u64)).collect()),
        ),
        (
            "adjncy",
            Json::Arr(
                graph
                    .adjncy()
                    .iter()
                    .map(|&x| Json::UInt(x as u64))
                    .collect(),
            ),
        ),
        (
            "adjwgt",
            Json::Arr(graph.adjwgt().iter().map(|&x| Json::Int(x)).collect()),
        ),
        (
            "vwgt",
            Json::Arr(graph.vwgt_flat().iter().map(|&x| Json::Int(x)).collect()),
        ),
        ("ncon", Json::UInt(graph.ncon() as u64)),
    ])
    .to_string();
    let (addr, handle, thread) = start_default();

    let via_metis = post(&addr, "/partition?k=6", &metis);
    assert_eq!(via_metis.status, 200, "{}", via_metis.text());
    let via_json = http_request(
        &addr,
        "POST",
        "/partition?k=6",
        &[("Content-Type", "application/json")],
        json_body.as_bytes(),
        Some(Duration::from_secs(120)),
    )
    .unwrap();
    assert_eq!(via_json.status, 200, "{}", via_json.text());
    // Different wire bytes → different fingerprints → both cold ...
    assert_eq!(via_json.header("x-mcgp-cache"), Some("miss"));
    // ... but the same graph, seed, and knobs → the same partition.
    let (_, parts_m, done_m) = parse_body(&via_metis.text());
    let (_, parts_j, done_j) = parse_body(&via_json.text());
    assert_eq!(parts_m, parts_j);
    assert_eq!(
        done_m.get("edge_cut").unwrap().as_i64(),
        done_j.get("edge_cut").unwrap().as_i64()
    );

    stop(&handle, thread);
}

#[test]
fn json_body_with_many_constraints_and_no_vertex_weights_is_a_400() {
    // A 400 KB body at ncon 255 without `vwgt` used to make the daemon
    // allocate 255 unit weights per vertex (a 64 MiB body: ~65 GB).
    let body = format!(
        r#"{{"ncon":255,"xadj":[{}]}}"#,
        vec!["0"; 200_000].join(",")
    );
    let (addr, handle, thread) = start_default();
    let resp = http_request(
        &addr,
        "POST",
        "/partition?k=1",
        &[("Content-Type", "application/json")],
        body.as_bytes(),
        Some(Duration::from_secs(60)),
    )
    .unwrap();
    assert_eq!(resp.status, 400, "{}", resp.text());
    let doc = Json::parse(resp.text().trim()).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("parse"));
    assert!(resp.text().contains("vwgt"), "{}", resp.text());
    assert_eq!(get(&addr, "/healthz").status, 200);
    stop(&handle, thread);
}

#[test]
fn malformed_corpus_over_the_wire_yields_typed_errors_not_a_dead_daemon() {
    let (addr, handle, thread) = start_default();

    for (label, text, expected) in MALFORMED_GRAPHS {
        let resp = post(&addr, "/partition?k=4", text.as_bytes());
        assert!(
            resp.status == 400 || resp.status == 413,
            "{label}: expected a 4xx, got {} ({})",
            resp.status,
            resp.text()
        );
        let doc = Json::parse(resp.text().trim())
            .unwrap_or_else(|e| panic!("{label}: error body is not JSON: {e}"));
        assert_eq!(doc.get("type").unwrap().as_str(), Some("error"), "{label}");
        let kind = doc.get("kind").unwrap().as_str().unwrap().to_string();
        let allowed: &[&str] = match expected {
            ExpectedError::Parse => &["parse"],
            ExpectedError::Overflow => &["overflow"],
            ExpectedError::Structure => &["malformed", "not_undirected", "invariant"],
        };
        assert!(
            allowed.contains(&kind.as_str()),
            "{label}: kind '{kind}' not in {allowed:?}"
        );
        assert!(!doc.get("detail").unwrap().as_str().unwrap().is_empty());
    }

    // The daemon survived the whole corpus, cached nothing from it, and
    // still partitions a valid graph.
    assert_eq!(get(&addr, "/healthz").status, 200);
    let metrics = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    assert_eq!(
        metrics
            .get("cache")
            .unwrap()
            .get("entries")
            .unwrap()
            .as_i64(),
        Some(0),
        "malformed inputs must not populate the cache"
    );
    assert_eq!(
        metrics.get("errors").unwrap().as_i64(),
        Some(MALFORMED_GRAPHS.len() as i64)
    );
    let ok = post(&addr, "/partition?k=2", &metis_bytes(&mrng_like(300, 1)));
    assert_eq!(ok.status, 200, "{}", ok.text());

    stop(&handle, thread);
}

#[test]
fn protocol_errors_are_typed_and_survivable() {
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        limits: Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        },
        ..ServeConfig::default()
    });
    let small = metis_bytes(&mrng_like(30, 1));

    // Raw non-HTTP bytes: typed 400, connection handled.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    raw.write_all(b"GARBAGE FRAME\r\n\r\n").unwrap();
    raw.shutdown(std::net::Shutdown::Write).unwrap();
    let mut answer = String::new();
    raw.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    assert!(answer.contains("bad_request"), "{answer}");

    // Routing errors.
    assert_eq!(get(&addr, "/nope").status, 404);
    assert_eq!(get(&addr, "/partition").status, 405);
    assert_eq!(
        http_request(&addr, "DELETE", "/healthz", &[], b"", None)
            .unwrap()
            .status,
        405
    );

    // Parameter errors.
    for target in [
        "/partition",            // k missing
        "/partition?k=0",        // k out of range
        "/partition?k=4&tol=-1", // tol out of range
        "/partition?k=4&threads=0",
    ] {
        let resp = post(&addr, target, &small);
        assert_eq!(resp.status, 400, "{target}");
        let doc = Json::parse(resp.text().trim()).unwrap();
        assert_eq!(doc.get("kind").unwrap().as_str(), Some("invalid_param"));
    }
    // k larger than the graph: typed, and the graph stays cached.
    let resp = post(&addr, "/partition?k=500", &small);
    assert_eq!(resp.status, 400);
    let doc = Json::parse(resp.text().trim()).unwrap();
    assert_eq!(doc.get("kind").unwrap().as_str(), Some("invalid_param"));
    let ok = post(&addr, "/partition?k=4", &small);
    assert_eq!(ok.status, 200);
    assert_eq!(
        ok.header("x-mcgp-cache"),
        Some("hit"),
        "rejected k must not evict the hierarchy it looked up"
    );

    // Empty body.
    let resp = post(&addr, "/partition?k=4", b"");
    assert_eq!(resp.status, 400);

    // Body over the configured limit: 413.
    let resp = post(&addr, "/partition?k=4", &vec![b'1'; 4096]);
    assert_eq!(resp.status, 413);
    assert!(resp.text().contains("too_large"), "{}", resp.text());

    assert_eq!(get(&addr, "/healthz").status, 200);
    stop(&handle, thread);
}

#[test]
fn slow_client_gets_a_request_timeout() {
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        io_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    // An incomplete head, never finished: the daemon's read times out.
    s.write_all(b"POST /partition?k=4 HTTP/1.1\r\nContent-Len")
        .unwrap();
    let mut answer = String::new();
    s.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 408"), "{answer}");
    assert!(answer.contains("timeout"), "{answer}");
    stop(&handle, thread);
}

#[test]
fn prom_metrics_validate_and_report_windowed_quantiles() {
    let graph = mrng_like(800, 5);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // One cold build, then enough identical hits to dominate the window.
    for _ in 0..12 {
        let resp = post(&addr, "/partition?k=4", &body);
        assert_eq!(resp.status, 200, "{}", resp.text());
    }

    // Explicit format=prom query.
    let prom = get(&addr, "/metrics?format=prom");
    assert_eq!(prom.status, 200);
    assert_eq!(
        prom.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = prom.text();
    let samples =
        mcgp_runtime::metrics::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(samples >= 20, "only {samples} sample lines:\n{text}");
    for needle in [
        "# TYPE mcgp_requests_total counter",
        "mcgp_requests_total{route=\"partition\",outcome=\"hit\"} 11",
        "mcgp_requests_total{route=\"partition\",outcome=\"miss\"} 1",
        "# TYPE mcgp_cache_hit_ratio gauge",
        "# TYPE mcgp_request_latency_seconds histogram",
        "mcgp_request_latency_window_seconds{quantile=\"0.5\"}",
        "mcgp_request_latency_window_seconds{quantile=\"0.99\"}",
        "mcgp_cache_lookups_total{result=\"hit\"} 11",
        "mcgp_cache_evictions_total 0",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    // With warm traffic dominating, the windowed p50 must sit at
    // steady-warm latency: far below the lifetime max (the cold build).
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let window = json.get("latency_window_us").unwrap();
    let lifetime = json.get("latency_us").unwrap();
    let wp50 = window.get("p50").unwrap().as_i64().unwrap();
    let life_max = lifetime.get("max").unwrap().as_i64().unwrap();
    let wins: i64 = window.get("count").unwrap().as_i64().unwrap();
    assert!(wins >= 12, "window holds all recent samples: {wins}");
    assert!(
        wp50 <= life_max,
        "windowed p50 {wp50} vs lifetime max {life_max}"
    );
    assert_eq!(
        json.get("cache").unwrap().get("hits").unwrap().as_i64(),
        Some(11)
    );
    let ratio = json
        .get("cache")
        .unwrap()
        .get("hit_ratio")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!((ratio - 11.0 / 12.0).abs() < 1e-9, "hit_ratio {ratio}");
    let routes = json.get("routes").unwrap();
    assert_eq!(routes.get("partition.hit").unwrap().as_i64(), Some(11));
    assert_eq!(routes.get("partition.miss").unwrap().as_i64(), Some(1));

    // Accept-header negotiation reaches the same exposition.
    let negotiated = http_request(
        &addr,
        "GET",
        "/metrics",
        &[("Accept", "text/plain")],
        b"",
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    assert_eq!(
        negotiated.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    assert!(mcgp_runtime::metrics::validate_prometheus(&negotiated.text()).is_ok());

    stop(&handle, thread);
}

#[test]
fn profile_endpoint_returns_valid_collapsed_stacks() {
    let graph = mrng_like(2000, 9);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // Sample while a background thread keeps the daemon partitioning, so
    // the profiler has spans to observe.
    let load_addr = addr.clone();
    let load_body = body.clone();
    let stop_flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let stop_load = stop_flag.clone();
    let loader = std::thread::spawn(move || {
        let mut seed = 0u64;
        while !stop_load.load(std::sync::atomic::Ordering::Relaxed) {
            seed += 1;
            let target = format!("/partition?k=4&seed={seed}");
            let _ = http_request(
                &load_addr,
                "POST",
                &target,
                &[],
                &load_body,
                Some(Duration::from_secs(30)),
            );
        }
    });

    let prof = http_request(
        &addr,
        "GET",
        "/profile?seconds=0.6&hz=1500",
        &[],
        b"",
        Some(Duration::from_secs(30)),
    )
    .unwrap();
    stop_flag.store(true, std::sync::atomic::Ordering::Relaxed);
    loader.join().unwrap();
    assert_eq!(prof.status, 200, "{}", prof.text());
    let folded = prof.text();
    let stacks = mcgp_runtime::profile::validate_collapsed(&folded)
        .unwrap_or_else(|e| panic!("{e}\n{folded}"));
    assert!(stacks >= 1, "profiler saw no samples:\n{folded}");
    assert!(
        folded.contains("hierarchy_build") || folded.contains("serve_request"),
        "expected partition spans in:\n{folded}"
    );
    // Profiling is off again after the session: spans are free once more.
    assert!(!mcgp_runtime::profile::enabled());

    // Non-finite durations must not panic the worker: `parse::<f64>("nan")`
    // succeeds and NaN survives `clamp`, so an unsanitized value would reach
    // `Duration::from_secs_f64` and kill the thread. The request falls back
    // to defaults-with-a-tiny-window and the daemon keeps serving.
    for bad in ["nan", "inf"] {
        let target = format!("/profile?seconds={bad}&hz=1500");
        let prof = http_request(
            &addr,
            "GET",
            &target,
            &[],
            b"",
            Some(Duration::from_secs(30)),
        )
        .unwrap_or_else(|e| panic!("seconds={bad} hung or died: {e}"));
        assert_eq!(prof.status, 200, "seconds={bad}: {}", prof.text());
    }
    let alive = http_request(
        &addr,
        "GET",
        "/healthz",
        &[],
        b"",
        Some(Duration::from_secs(5)),
    )
    .expect("daemon must survive non-finite profile params");
    assert_eq!(alive.status, 200);

    stop(&handle, thread);
}

#[test]
fn threaded_requests_are_deterministic_and_surfaced_in_metrics() {
    let graph = synthetic::type1(&mrng_like(1200, 3), 2, 3);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // The fingerprint leaves the thread count out, so threads=4 hits the
    // hierarchy threads=1 built, and both serve one partition.
    let t1 = post(&addr, "/partition?k=4&threads=1", &body);
    assert_eq!(t1.status, 200, "{}", t1.text());
    assert_eq!(t1.header("x-mcgp-cache"), Some("miss"));
    let t4 = post(&addr, "/partition?k=4&threads=4", &body);
    assert_eq!(t4.status, 200, "{}", t4.text());
    assert_eq!(t4.header("x-mcgp-cache"), Some("hit"));
    let part_lines = |r: &ClientResponse| -> Vec<String> {
        r.text()
            .lines()
            .filter(|l| l.contains(r#""type":"part""#))
            .map(str::to_string)
            .collect()
    };
    assert!(!part_lines(&t1).is_empty());
    assert_eq!(
        part_lines(&t1),
        part_lines(&t4),
        "t4 part lines differ from t1"
    );

    // And both match the library at t=1.
    let lib = partition_kway(&graph, 4, &PartitionConfig::default());
    for (t, resp) in [(1, &t1), (4, &t4)] {
        let (_, parts, done) = parse_body(&resp.text());
        assert_eq!(
            parts,
            lib.partition.assignment(),
            "served t{t} != library t1"
        );
        assert_eq!(
            done.get("edge_cut").unwrap().as_i64(),
            Some(lib.quality.edge_cut)
        );
    }

    // One hierarchy build (the miss) serves both thread counts.
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let cache = json.get("cache").unwrap();
    assert_eq!(cache.get("misses").unwrap().as_i64(), Some(1));
    assert_eq!(cache.get("hits").unwrap().as_i64(), Some(1));
    assert_eq!(cache.get("entries").unwrap().as_i64(), Some(1));
    let by_threads = json.get("partition_threads").unwrap();
    assert_eq!(by_threads.get("t4").unwrap().as_i64(), Some(1));
    assert_eq!(by_threads.get("t1").unwrap().as_i64(), Some(1));

    let prom = get(&addr, "/metrics?format=prom");
    let text = prom.text();
    mcgp_runtime::metrics::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for needle in [
        "mcgp_partition_threads_total{threads=\"4\"} 1",
        "mcgp_partition_threads_total{threads=\"1\"} 1",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }

    stop(&handle, thread);
}

#[test]
fn shutdown_endpoint_drains_and_run_returns() {
    let (addr, _handle, thread) = start_default();
    let resp = post(&addr, "/shutdown", b"");
    assert_eq!(resp.status, 200);
    assert!(resp.text().contains("draining"));
    // run() returns on its own — no handle.shutdown() here.
    thread.join().unwrap().unwrap();
}

/// A scratch directory under the system temp dir, unique per test.
fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mcgp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The head (through its blank line) and the `Content-Length` of the
/// response at the front of `bytes`, once its head has fully arrived.
/// Every daemon response is `Content-Length`-framed and carries no
/// `Transfer-Encoding`.
fn response_head(bytes: &[u8]) -> Option<(String, usize)> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = String::from_utf8(bytes[..head_end].to_vec()).unwrap();
    let lower = head.to_ascii_lowercase();
    assert!(!lower.contains("transfer-encoding"), "{head}");
    let len = lower
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .expect("content-length header")
        .trim()
        .parse()
        .unwrap();
    Some((head, len))
}

/// Splits one raw HTTP response off the front of `bytes`: returns
/// (head text, body, rest).
fn split_response(bytes: &[u8]) -> (String, Vec<u8>, &[u8]) {
    let (head, len) = response_head(bytes).expect("response head");
    let rest = &bytes[head.len()..];
    (head, rest[..len].to_vec(), &rest[len..])
}

#[test]
fn pipelined_keepalive_requests_are_byte_stable_on_one_socket() {
    let graph = mrng_like(400, 11);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    // Reference response over a throwaway `Connection: close` socket.
    let reference = post(&addr, "/partition?k=4", &body);
    assert_eq!(reference.status, 200, "{}", reference.text());
    assert_eq!(reference.header("transfer-encoding"), None);
    assert_eq!(
        reference.header("content-length"),
        Some(reference.body.len().to_string().as_str())
    );

    // Three identical requests written back to back in one burst — the
    // third asks the server to close so the socket drains cleanly.
    let mut burst = Vec::new();
    for i in 0..3 {
        let close = if i == 2 { "Connection: close\r\n" } else { "" };
        burst.extend_from_slice(
            format!(
                "POST /partition?k=4 HTTP/1.1\r\nHost: {addr}\r\n{close}Content-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        );
        burst.extend_from_slice(&body);
    }
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(&burst).unwrap();
    let mut all = Vec::new();
    s.read_to_end(&mut all).unwrap();

    // `split_response` asserts every head has a `Content-Length` and no
    // `Transfer-Encoding`; taking exactly that many bytes per response
    // must leave nothing over.
    let mut rest: &[u8] = &all;
    for i in 0..3 {
        let (head, payload, after) = split_response(rest);
        rest = after;
        assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
        let lower = head.to_ascii_lowercase();
        if i < 2 {
            assert!(lower.contains("connection: keep-alive"), "{head}");
            // Pipelined follow-ups are warm: the first request on this
            // socket already built the hierarchy (the reference request
            // built it even earlier).
            assert!(lower.contains("x-mcgp-cache: hit"), "response {i}: {head}");
        } else {
            assert!(lower.contains("connection: close"), "{head}");
        }
        assert_eq!(
            payload, reference.body,
            "response {i} payload differs from the per-connection reference"
        );
    }
    assert!(
        rest.is_empty(),
        "{} stray bytes after responses",
        rest.len()
    );

    // The whole burst rode one connection; with the reference request
    // that's 2 accepted sockets for 4 served partitions (the /metrics
    // connection is counted on accept, but its request snapshot is taken
    // before it records itself).
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    assert_eq!(json.get("connections").unwrap().as_i64(), Some(3));
    assert_eq!(json.get("requests").unwrap().as_i64(), Some(4));

    stop(&handle, thread);
}

#[test]
fn keepalive_connection_closes_at_the_request_cap() {
    let (addr, handle, thread) = start_default();
    let cap = MAX_REQUESTS_PER_CONN as usize;

    // Exactly `cap` keep-alive requests on one socket, written from a
    // second thread so neither side blocks on a full socket buffer.
    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut writer = s.try_clone().unwrap();
    let request = format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n");
    let burst = request.repeat(cap);
    let write = std::thread::spawn(move || writer.write_all(burst.as_bytes()));
    let mut all = Vec::new();
    s.read_to_end(&mut all).unwrap();
    write.join().unwrap().unwrap();

    let mut rest: &[u8] = &all;
    for i in 0..cap {
        let (head, payload, after) = split_response(rest);
        rest = after;
        assert!(head.starts_with("HTTP/1.1 200"), "response {i}: {head}");
        assert_eq!(payload, b"{\"ok\":true}\n", "response {i}");
        let connection = if i + 1 < cap { "keep-alive" } else { "close" };
        assert!(
            head.to_ascii_lowercase()
                .contains(&format!("connection: {connection}")),
            "response {i} of {cap}: {head}"
        );
    }
    assert!(
        rest.is_empty(),
        "{} stray bytes after responses",
        rest.len()
    );

    stop(&handle, thread);
}

#[test]
fn net_client_reuse_matches_per_connection_responses() {
    let graph = mrng_like(500, 13);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start_default();

    let reference = post(&addr, "/partition?k=3", &body);
    assert_eq!(reference.status, 200, "{}", reference.text());

    let mut net = NetClient::new(&addr, Some(Duration::from_secs(60)));
    for i in 0..4 {
        let resp = net
            .request_on("POST", "/partition?k=3", &[], &body)
            .unwrap();
        assert_eq!(resp.status, 200, "request {i}");
        assert_eq!(resp.header("x-mcgp-cache"), Some("hit"), "request {i}");
        assert_eq!(resp.body, reference.body, "request {i} body differs");
    }
    assert_eq!(net.connects(), 1, "client must have reused one socket");

    stop(&handle, thread);
}

/// A traced daemon times building a partition response and sending it
/// as two spans, `serialize` (with the body's byte count) and `write`,
/// each opened once per successful `/partition`, directly inside that
/// request's `serve_request` span; a request that fails opens neither.
/// Tracing is a process-wide toggle, so other tests running meanwhile
/// trace too; their events stay with their own daemons and threads.
#[test]
fn traced_partition_opens_one_serialize_and_one_write_span() {
    let graph = mrng_like(600, 23);
    let body = metis_bytes(&graph);
    trace::set_enabled(true);
    let (addr, handle, thread) = start_default();
    let cold = post(&addr, "/partition?k=4", &body);
    let warm = post(&addr, "/partition?k=8", &body);
    let failed = post(&addr, "/partition?k=4", b"not a graph");
    stop(&handle, thread);
    let events = handle.take_trace();
    trace::set_enabled(false);
    assert_eq!((cold.status, warm.status), (200, 200));
    assert_eq!(failed.status, 400, "{}", failed.text());

    // Per thread, a stack of open spans; each open `serve_request`
    // counts the `serialize` and `write` spans opened directly inside.
    let mut stacks: BTreeMap<u64, Vec<(&str, usize, usize)>> = BTreeMap::new();
    let mut requests: Vec<(String, usize, usize)> = Vec::new();
    let mut serialized: Vec<u64> = Vec::new();
    for ev in &events {
        let stack = stacks.entry(ev.tid).or_default();
        match ev.kind {
            EventKind::Begin => {
                if matches!(ev.name, "serialize" | "write") {
                    let parent = stack.last_mut().expect("stage span outside any span");
                    assert_eq!(parent.0, "serve_request", "{} nested wrongly", ev.name);
                    if ev.name == "serialize" {
                        parent.1 += 1;
                    } else {
                        parent.2 += 1;
                    }
                }
                stack.push((ev.name, 0, 0));
            }
            EventKind::End => {
                let (name, serializes, writes) = stack.pop().expect("unbalanced spans");
                assert_eq!(name, ev.name, "unbalanced spans");
                let field = |key: &str| ev.fields.iter().find(|(k, _)| *k == key);
                if name == "serve_request" {
                    let outcome = match field("outcome") {
                        Some((_, FieldValue::Str(s))) => s.to_string(),
                        other => panic!("serve_request without an outcome: {other:?}"),
                    };
                    requests.push((outcome, serializes, writes));
                } else if name == "serialize" {
                    match field("bytes") {
                        Some((_, FieldValue::U64(n))) => serialized.push(*n),
                        other => panic!("serialize without bytes: {other:?}"),
                    }
                }
            }
            EventKind::Instant => {}
        }
    }
    // Workers drain their events after each request, so the two workers'
    // requests may land in either order.
    requests.sort();
    assert_eq!(
        requests,
        vec![
            ("hit".to_string(), 1, 1),
            ("miss".to_string(), 1, 1),
            ("parse".to_string(), 0, 0),
        ]
    );
    serialized.sort();
    let mut lengths = vec![cold.body.len() as u64, warm.body.len() as u64];
    lengths.sort();
    assert_eq!(serialized, lengths);
}

#[test]
fn slowloris_second_request_is_reaped_on_the_idle_deadline() {
    let graph = mrng_like(300, 17);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        io_timeout: Duration::from_secs(10),
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });

    let mut s = std::net::TcpStream::connect(&addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    s.write_all(
        format!(
            "POST /partition?k=2 HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    s.write_all(&body).unwrap();
    let mut buf = vec![0u8; 1 << 20];
    // Read the first response through its head, then up to its
    // Content-Length.
    let mut got = Vec::new();
    let mut want = None;
    while want.is_none_or(|n| got.len() < n) {
        let n = s.read(&mut buf).unwrap();
        assert!(n > 0, "server closed before finishing the first response");
        got.extend_from_slice(&buf[..n]);
        if want.is_none() {
            want = response_head(&got).map(|(head, len)| head.len() + len);
        }
    }
    assert_eq!(got.len(), want.unwrap(), "no bytes past the first response");
    assert!(
        got.starts_with(b"HTTP/1.1 200"),
        "first response must succeed"
    );

    // Drip the second request a few bytes at a time, slower than the idle
    // deadline allows. Re-arming reads must not extend the deadline: the
    // worker reaps the connection with a 408 instead of staying pinned.
    let t0 = std::time::Instant::now();
    let mut tail = Vec::new();
    for piece in ["POST /par", "tition?k=2 ", "HTTP/1.1\r\nCon"] {
        if s.write_all(piece.as_bytes()).is_err() {
            break; // server already closed on us — also a pass
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    let _ = s.read_to_end(&mut tail);
    let answer = String::from_utf8_lossy(&tail);
    assert!(
        answer.contains("HTTP/1.1 408") || answer.is_empty(),
        "expected 408 or close, got: {answer}"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "drip-fed request pinned the worker for {:?}",
        t0.elapsed()
    );

    stop(&handle, thread);
}

#[test]
fn warm_restart_from_cache_dir_serves_disk_hits_with_zero_coarsening() {
    let graph = synthetic::type1(&mrng_like(900, 21), 2, 21);
    let body = metis_bytes(&graph);
    let dir = tempdir("warm-restart");

    // First daemon lifetime: a cold build, spilled on graceful drain.
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let cold = post(&addr, "/partition?k=5", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    assert_eq!(cold.header("x-mcgp-cache"), Some("miss"));
    stop(&handle, thread);
    assert!(
        std::fs::read_dir(&dir).unwrap().count() > 0,
        "shutdown must spill resident hierarchies to the cache dir"
    );

    // Second daemon lifetime, same directory: the first request reloads
    // the hierarchy from disk — no coarsening, byte-identical body.
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let warm = post(&addr, "/partition?k=5", &body);
    assert_eq!(warm.status, 200, "{}", warm.text());
    assert_eq!(warm.header("x-mcgp-cache"), Some("disk"));
    assert_eq!(
        warm.header("x-mcgp-coarsen-us")
            .unwrap()
            .parse::<u64>()
            .unwrap(),
        0,
        "a disk reload must not coarsen"
    );
    assert_eq!(cold.body, warm.body, "cold and disk-warm responses differ");
    // Once resident, repeats are plain RAM hits.
    let again = post(&addr, "/partition?k=5", &body);
    assert_eq!(again.header("x-mcgp-cache"), Some("hit"));
    assert_eq!(cold.body, again.body);

    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let cache = json.get("cache").unwrap();
    assert_eq!(cache.get("disk_hits").unwrap().as_i64(), Some(1));
    assert_eq!(cache.get("hits").unwrap().as_i64(), Some(1));
    let prom = get(&addr, "/metrics?format=prom").text();
    assert!(
        prom.contains("mcgp_cache_lookups_total{result=\"disk\"} 1"),
        "missing disk lookup counter in:\n{prom}"
    );

    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_spill_files_fall_back_to_a_cold_build() {
    let graph = mrng_like(700, 23);
    let body = metis_bytes(&graph);
    let dir = tempdir("corrupt-spill");

    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let cold = post(&addr, "/partition?k=4", &body);
    assert_eq!(cold.status, 200, "{}", cold.text());
    stop(&handle, thread);

    // Flip bytes in the middle of every spill file.
    for f in std::fs::read_dir(&dir).unwrap() {
        let path = f.unwrap().path();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
    }

    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let rebuilt = post(&addr, "/partition?k=4", &body);
    assert_eq!(rebuilt.status, 200, "{}", rebuilt.text());
    // Corruption is a clean miss (rebuild), never a panic or a bad reload.
    assert_eq!(rebuilt.header("x-mcgp-cache"), Some("miss"));
    assert_eq!(cold.body, rebuilt.body, "rebuild must match the original");

    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn daemon_default_threads_apply_when_the_request_does_not_pin() {
    let graph = synthetic::type1(&mrng_like(1000, 29), 2, 29);
    let body = metis_bytes(&graph);
    let (addr, handle, thread) = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        default_threads: 2,
        ..ServeConfig::default()
    });

    // No threads= parameter: the daemon's default width (2) applies, and
    // the response matches the library at nthreads=2 ...
    let served = post(&addr, "/partition?k=4", &body);
    assert_eq!(served.status, 200, "{}", served.text());
    let (meta, parts, _) = parse_body(&served.text());
    assert_eq!(meta.get("threads").unwrap().as_i64(), Some(2));
    let lib = partition_kway(
        &graph,
        4,
        &PartitionConfig {
            nthreads: 2,
            ..PartitionConfig::default()
        },
    );
    assert_eq!(parts, lib.partition.assignment(), "served != library at t2");

    // ... an explicit threads=1 still wins ...
    let pinned = post(&addr, "/partition?k=4&threads=1", &body);
    assert_eq!(pinned.status, 200, "{}", pinned.text());
    let (meta1, parts1, _) = parse_body(&pinned.text());
    assert_eq!(meta1.get("threads").unwrap().as_i64(), Some(1));
    let lib1 = partition_kway(&graph, 4, &PartitionConfig::default());
    assert_eq!(parts1, lib1.partition.assignment());

    // ... and the threads metric proves the parallel pipeline served the
    // defaulted request end to end.
    let json = Json::parse(get(&addr, "/metrics").text().trim()).unwrap();
    let by_threads = json.get("partition_threads").unwrap();
    assert_eq!(by_threads.get("t2").unwrap().as_i64(), Some(1));
    assert_eq!(by_threads.get("t1").unwrap().as_i64(), Some(1));

    stop(&handle, thread);
}
