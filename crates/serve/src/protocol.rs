//! The wire protocol: request parameters, the typed error taxonomy as it
//! appears on the wire, and the JSONL response body builders.
//!
//! A partitioning exchange is one `POST /partition` with the graph as the
//! request body (METIS text by default, the JSON-CSR schema of
//! [`mcgp_graph::io::graph_from_json`] under `Content-Type:
//! application/json`) and the knobs as query parameters. The response
//! body is JSONL: one `meta` line, `part` lines carrying the assignment
//! in fixed-size chunks, one `done` line with the quality report. Error
//! responses are a single JSON object with a stable `kind` drawn from the
//! [`mcgp_graph::McgpError`] taxonomy — a client can switch on it, and
//! the protocol-robustness tests do.
//!
//! Determinism contract: every body line is a pure function of
//! `(graph bytes, k, ε, seed, nthreads)`. Anything that varies between a
//! cold and warm run of the same request — cache verdict, phase timings,
//! trace id — is carried in `X-Mcgp-*` response headers, never the body.

use mcgp_graph::{McgpError, PartitionQuality};
use mcgp_runtime::net::Request;
use mcgp_runtime::Json;

/// Vertices per `part` body line. Fixed so response chunking never
/// depends on runtime conditions.
pub const PART_CHUNK: usize = 8192;

/// How the request body encodes the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphFormat {
    /// METIS adjacency text (the default).
    Metis,
    /// The JSON-CSR schema of [`mcgp_graph::io::graph_from_json`].
    Json,
}

impl GraphFormat {
    /// Stable byte folded into the cache fingerprint.
    pub fn tag(self) -> u8 {
        match self {
            GraphFormat::Metis => 0,
            GraphFormat::Json => 1,
        }
    }

    /// Format selected by a request's `Content-Type` header.
    pub fn from_request(req: &Request) -> GraphFormat {
        match req.header("content-type") {
            Some(ct) if ct.trim().to_ascii_lowercase().starts_with("application/json") => {
                GraphFormat::Json
            }
            _ => GraphFormat::Metis,
        }
    }
}

/// The knobs of one partitioning request, parsed from query parameters.
#[derive(Clone, Debug)]
pub struct PartitionParams {
    /// Number of parts (`k`, required, ≥ 1).
    pub nparts: usize,
    /// Imbalance tolerance (`tol`, default 0.05).
    pub tol: f64,
    /// Coarsening seed (`seed`, default 4242 — the library default).
    pub seed: u64,
    /// Thread count (`threads`; the daemon's configured
    /// default width when the request doesn't pin one).
    pub nthreads: usize,
}

fn parse_num<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, String> {
    match req.query_param(name) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("query parameter '{name}' is not a valid number: '{raw}'")),
    }
}

/// Widest pipeline a request may ask for with `threads=`. The daemon's
/// `--threads`/`MCGP_THREADS` default and `mcgp partition --threads` are
/// held to the same `1 ..= MAX_THREADS` range.
pub const MAX_THREADS: usize = 256;

/// The imbalance tolerances a request may ask for with `tol=`. The
/// `--tol` flags of `mcgp partition`, `check` and `serve-request` are
/// held to the same range.
pub const TOL_RANGE: &str = "finite, 0 < tol < 10";

/// True when `tol` lies in [`TOL_RANGE`]. Outside it the caps degenerate:
/// a negative or NaN tolerance leaves only the granularity slack, an
/// infinite one no cap at all, and recursive bisection's per-level split
/// `(1+tol)^(1/depth)` turns a tolerance below −1 into NaN.
pub fn tol_in_range(tol: f64) -> bool {
    tol.is_finite() && tol > 0.0 && tol < 10.0
}

impl PartitionParams {
    /// Parses and range-checks the query parameters of a `/partition`
    /// request. `default_threads` is the daemon-configured pipeline
    /// width applied when the request carries no `threads=` parameter
    /// (set by `--threads`/`MCGP_THREADS` on `mcgp serve`); it is
    /// range-checked like an explicit value.
    pub fn from_request(req: &Request, default_threads: usize) -> Result<PartitionParams, String> {
        let nparts: usize = parse_num(req, "k")?
            .ok_or_else(|| "missing required query parameter 'k'".to_string())?;
        if nparts == 0 || nparts > 1 << 20 {
            return Err(format!("k={nparts} out of range (1 ..= 2^20)"));
        }
        let tol: f64 = parse_num(req, "tol")?.unwrap_or(0.05);
        if !tol_in_range(tol) {
            return Err(format!("tol={tol} out of range ({TOL_RANGE})"));
        }
        let seed: u64 = parse_num(req, "seed")?.unwrap_or(4242);
        let nthreads: usize = parse_num(req, "threads")?.unwrap_or(default_threads.max(1));
        if nthreads == 0 || nthreads > MAX_THREADS {
            return Err(format!(
                "threads={nthreads} out of range (1 ..= {MAX_THREADS})"
            ));
        }
        Ok(PartitionParams {
            nparts,
            tol,
            seed,
            nthreads,
        })
    }
}

/// Everything that can go wrong with one request, mapped to a status
/// code and a stable machine-readable kind.
#[derive(Debug)]
pub enum RequestError {
    /// A query parameter is missing, unparsable, or out of range.
    Param(String),
    /// The graph body was rejected by the input layer.
    Graph(McgpError),
    /// The partitioner panicked; the daemon survives, the request does not.
    Internal(String),
}

impl RequestError {
    /// `(status, kind, detail)` for the error response.
    pub fn parts(&self) -> (u16, &'static str, String) {
        match self {
            RequestError::Param(msg) => (400, "invalid_param", msg.clone()),
            RequestError::Graph(e) => {
                let kind = match e {
                    McgpError::Malformed(_) => "malformed",
                    McgpError::NotUndirected(_) => "not_undirected",
                    McgpError::Io(_) => "io",
                    McgpError::Parse { .. } => "parse",
                    McgpError::Invariant { .. } => "invariant",
                    McgpError::Overflow { .. } => "overflow",
                };
                let status = if matches!(e, McgpError::Overflow { .. }) {
                    413
                } else {
                    400
                };
                (status, kind, e.to_string())
            }
            RequestError::Internal(msg) => (500, "internal", msg.clone()),
        }
    }

    /// The single-line JSON error body.
    pub fn body(&self) -> String {
        let (_, kind, detail) = self.parts();
        let mut line = Json::obj([
            ("type", Json::Str("error".into())),
            ("kind", Json::Str(kind.into())),
            ("detail", Json::Str(detail)),
        ])
        .to_string();
        line.push('\n');
        line
    }
}

/// The `meta` line opening a successful response body.
pub fn meta_line(
    fp: u64,
    params: &PartitionParams,
    nvtxs: usize,
    nedges: usize,
    ncon: usize,
    levels: usize,
) -> String {
    Json::obj([
        ("type", Json::Str("meta".into())),
        ("fingerprint", Json::Str(format!("{fp:016x}"))),
        ("k", Json::UInt(params.nparts as u64)),
        ("tol", Json::Float(params.tol)),
        ("seed", Json::UInt(params.seed)),
        ("threads", Json::UInt(params.nthreads as u64)),
        ("nvtxs", Json::UInt(nvtxs as u64)),
        ("nedges", Json::UInt(nedges as u64)),
        ("ncon", Json::UInt(ncon as u64)),
        ("levels", Json::UInt(levels as u64)),
    ])
    .to_string()
}

/// One `part` line carrying `assignment[offset ..]`'s next chunk:
/// `{"type":"part","offset":N,"parts":[p,..]}`, the bytes `Json::obj`
/// would print, with the digits written straight into a buffer sized
/// for the widest `u32`.
pub fn part_line(offset: usize, chunk: &[u32]) -> String {
    let mut line = Vec::with_capacity(48 + 11 * chunk.len());
    line.extend_from_slice(b"{\"type\":\"part\",\"offset\":");
    push_decimal(&mut line, offset as u64);
    line.extend_from_slice(b",\"parts\":[");
    for (i, &p) in chunk.iter().enumerate() {
        if i > 0 {
            line.push(b',');
        }
        push_decimal(&mut line, u64::from(p));
    }
    line.extend_from_slice(b"]}");
    String::from_utf8(line).expect("a part line is ASCII")
}

/// Appends the decimal digits of `v`.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// The closing `done` line with the quality report.
pub fn done_line(quality: &PartitionQuality) -> String {
    Json::obj([
        ("type", Json::Str("done".into())),
        ("edge_cut", Json::Int(quality.edge_cut)),
        (
            "imbalances",
            Json::Arr(quality.imbalances.iter().map(|&x| Json::Float(x)).collect()),
        ),
        ("max_imbalance", Json::Float(quality.max_imbalance)),
        ("comm_volume", Json::UInt(quality.comm_volume as u64)),
        ("boundary", Json::UInt(quality.boundary as u64)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_runtime::net::Limits;

    fn req(target: &str, headers: &[(&str, &str)]) -> Request {
        // Round-trip a request through the real parser over a loopback
        // socket so tests exercise the same path the daemon does.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut head = format!("POST {target} HTTP/1.1\r\nContent-Length: 0\r\n");
        for (k, v) in headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str("\r\n");
        let t = std::thread::spawn(move || {
            use std::io::Write;
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(head.as_bytes()).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let parsed =
            mcgp_runtime::net::read_request(&mut stream, &Limits::default(), None).unwrap();
        t.join().unwrap();
        parsed
    }

    #[test]
    fn params_parse_defaults_and_values() {
        let p = PartitionParams::from_request(&req("/partition?k=8", &[]), 1).unwrap();
        assert_eq!((p.nparts, p.seed, p.nthreads), (8, 4242, 1));
        assert!((p.tol - 0.05).abs() < 1e-12);
        let p = PartitionParams::from_request(
            &req("/partition?k=4&tol=0.2&seed=7&threads=2", &[]),
            1,
        )
        .unwrap();
        assert_eq!((p.nparts, p.seed, p.nthreads), (4, 7, 2));
        assert!((p.tol - 0.2).abs() < 1e-12);
    }

    #[test]
    fn params_honor_daemon_default_threads() {
        // No threads= parameter: the daemon-configured width applies.
        let p = PartitionParams::from_request(&req("/partition?k=8", &[]), 4).unwrap();
        assert_eq!(p.nthreads, 4);
        // An explicit parameter always wins over the daemon default.
        let p =
            PartitionParams::from_request(&req("/partition?k=8&threads=1", &[]), 4).unwrap();
        assert_eq!(p.nthreads, 1);
        // A degenerate configured default of 0 clamps to serial.
        let p = PartitionParams::from_request(&req("/partition?k=8", &[]), 0).unwrap();
        assert_eq!(p.nthreads, 1);
    }

    #[test]
    fn params_reject_bad_values() {
        for target in [
            "/partition",
            "/partition?k=0",
            "/partition?k=abc",
            "/partition?k=4&tol=0",
            "/partition?k=4&tol=-1",
            "/partition?k=4&tol=nope",
            "/partition?k=4&tol=NaN",
            "/partition?k=4&tol=inf",
            "/partition?k=4&tol=10",
            "/partition?k=4&threads=0",
            "/partition?k=4&threads=999",
        ] {
            assert!(
                PartitionParams::from_request(&req(target, &[]), 1).is_err(),
                "{target} should be rejected"
            );
        }
    }

    #[test]
    fn format_follows_content_type() {
        assert_eq!(
            GraphFormat::from_request(&req("/partition?k=2", &[])),
            GraphFormat::Metis
        );
        assert_eq!(
            GraphFormat::from_request(&req(
                "/partition?k=2",
                &[("Content-Type", "application/json; charset=utf-8")]
            )),
            GraphFormat::Json
        );
        assert_eq!(
            GraphFormat::from_request(&req("/partition?k=2", &[("Content-Type", "text/plain")])),
            GraphFormat::Metis
        );
    }

    #[test]
    fn error_bodies_are_single_json_lines_with_stable_kinds() {
        let cases: Vec<(RequestError, u16, &str)> = vec![
            (RequestError::Param("bad k".into()), 400, "invalid_param"),
            (
                RequestError::Graph(McgpError::Malformed("x".into())),
                400,
                "malformed",
            ),
            (
                RequestError::Graph(McgpError::Overflow {
                    what: "ncon",
                    value: 99,
                    limit: 8,
                }),
                413,
                "overflow",
            ),
            (RequestError::Internal("panic".into()), 500, "internal"),
        ];
        for (err, want_status, want_kind) in cases {
            let (status, kind, _) = err.parts();
            assert_eq!((status, kind), (want_status, want_kind));
            let doc = Json::parse(err.body().trim()).unwrap();
            assert_eq!(doc.get("type").unwrap().as_str(), Some("error"));
            assert_eq!(doc.get("kind").unwrap().as_str(), Some(want_kind));
        }
    }

    /// The `Json`-tree form `part_line` must reproduce byte for byte.
    fn part_line_via_json(offset: usize, chunk: &[u32]) -> String {
        Json::obj([
            ("type", Json::Str("part".into())),
            ("offset", Json::UInt(offset as u64)),
            (
                "parts",
                Json::Arr(chunk.iter().map(|&p| Json::UInt(p as u64)).collect()),
            ),
        ])
        .to_string()
    }

    #[test]
    fn part_line_matches_the_json_tree_bytes() {
        let mixed: Vec<u32> = (0..PART_CHUNK as u32)
            .map(|i| i.wrapping_mul(2_654_435_761) >> (i % 32))
            .collect();
        let cases: [(usize, &[u32]); 7] = [
            (0, &[]),
            (0, &[0]),
            (7, &[9]),
            (8192, &[u32::MAX]),
            (usize::MAX, &[u32::MAX, 0, 10, 99, 100, 4_294_967_295]),
            (1 << 40, &[1, 22, 333, 4444, 55555]),
            (3 * PART_CHUNK, &mixed),
        ];
        for (offset, chunk) in cases {
            assert_eq!(part_line(offset, chunk), part_line_via_json(offset, chunk));
        }
    }

    #[test]
    fn body_lines_round_trip_through_json() {
        let params = PartitionParams {
            nparts: 4,
            tol: 0.05,
            seed: 1,
            nthreads: 1,
        };
        let meta = Json::parse(&meta_line(0xabcd, &params, 100, 250, 2, 3)).unwrap();
        assert_eq!(meta.get("type").unwrap().as_str(), Some("meta"));
        assert_eq!(
            meta.get("fingerprint").unwrap().as_str(),
            Some("000000000000abcd")
        );
        assert_eq!(meta.get("levels").unwrap().as_i64(), Some(3));
        let part = Json::parse(&part_line(8192, &[0, 1, 2])).unwrap();
        assert_eq!(part.get("offset").unwrap().as_i64(), Some(8192));
        assert_eq!(part.get("parts").unwrap().as_arr().unwrap().len(), 3);
    }
}
