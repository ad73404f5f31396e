//! `mcgp-benchmark`: the end-to-end and per-layer benchmark of the mcgp
//! partitioner, called as a library and served by `mcgp serve`.
//!
//! ```text
//! mcgp-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]
//! mcgp-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! A run sets up its workload, measures it closed-loop for `--seconds`,
//! checks every output, and prints one `{"workload","metric","value","unit"}`
//! line per metric followed by a summary object as the last line. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run pairs every plain operation with a layer-by-layer replay of it and
//! reports per-layer metrics, writing the replays' spans as a Chrome trace
//! under `.bench_out/traces/`. README.md explains the workloads and
//! metrics.

mod compare;
mod host;
mod library;
mod replay;
mod serve;
mod spans;

use mcgp_graph::check::{check_assignment, check_no_empty_parts};
use mcgp_graph::generators::{mrng_like, rmat_default};
use mcgp_graph::metrics::edge_cut_raw;
use mcgp_graph::{synthetic, Graph};
use mcgp_runtime::Json;
use replay::OpStats;
use serve::DaemonBin;
use spans::Tracer;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: mcgp-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]\n       \
                     mcgp-benchmark compare <a.jsonl> <b.jsonl>";

/// The graph family a workload partitions.
#[derive(Clone, Copy, Debug)]
pub enum Family {
    /// `synthetic::type1(mrng_like(n), 3)`: the paper's 3-constraint FE mesh.
    Mesh,
    /// `rmat_default(scale, 8)`: a skewed-degree graph whose coarsening
    /// stalls early, leaving a large coarsest graph.
    Rmat,
}

enum Kind {
    Library { family: Family, nparts: usize },
    Serve { warm: bool },
}

struct Workload {
    name: &'static str,
    kind: Kind,
    /// Distinct problems a run cycles through: partitioner seeds (library),
    /// values of `k` (`serve_warm`), or the first cold requests
    /// (`serve_cold`). A run makes at least this many operations; cut and
    /// imbalance are means over the problems, and latency weighs every
    /// problem alike. More problems average out more partitioner luck in
    /// the cut, at the cost of a longer minimum run.
    problems: usize,
}

/// README.md records why each workload is here.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "mesh_k16",
        kind: Kind::Library {
            family: Family::Mesh,
            nparts: 16,
        },
        problems: 48,
    },
    Workload {
        name: "mesh_k64",
        kind: Kind::Library {
            family: Family::Mesh,
            nparts: 64,
        },
        problems: 32,
    },
    Workload {
        name: "rmat_k16",
        kind: Kind::Library {
            family: Family::Rmat,
            nparts: 16,
        },
        problems: 16,
    },
    Workload {
        name: "serve_warm",
        kind: Kind::Serve { warm: true },
        problems: 32,
    },
    Workload {
        name: "serve_cold",
        kind: Kind::Serve { warm: false },
        problems: 32,
    },
];

/// Input sizes and repetition counts.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub mesh_nvtxs: usize,
    pub rmat_scale: u32,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

const FULL: Sizes = Sizes {
    mesh_nvtxs: 200_000,
    rmat_scale: 16,
    setups: 3,
};

/// Traced operations a `--trace 1` run makes at least.
const MIN_TRACED: usize = 3;

/// Everything a workload run needs.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub sizes: Sizes,
    /// The workload's number of problems.
    pub problems: usize,
    pub daemon: DaemonBin,
    /// Where run files (the daemon's port file, traces) go.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Whether a closed loop that started at `start` and has made `ops`
    /// operations, `traced` of them traced, goes on.
    pub fn keep_going(&self, start: Instant, ops: usize, traced: usize) -> bool {
        let min_met = if self.trace {
            traced >= MIN_TRACED
        } else {
            ops >= self.problems
        };
        !min_met || start.elapsed() < self.seconds
    }
}

/// Seed of stream `stream` under the workload seed (SplitMix64), so every
/// partitioner and request seed follows from `--seed`.
pub const fn derive(seed: u64, stream: u64) -> u64 {
    let mut z =
        (seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generator seed of the benchmark graphs. Each family is one fixed graph
/// and `--seed` picks the partitioner and request seeds. A type-1 mesh's
/// cut and time depend on the random weights of its 16 regions more than
/// on the partitioner seed, so a graph per workload seed would make the
/// numbers of one seed differ from another's by how much their meshes
/// differ (README.md, "Why the graphs are fixed").
const GRAPH_SEED: u64 = derive(1, 1);

/// The benchmark graph of `family`.
pub fn make_graph(family: Family, sizes: &Sizes) -> Graph {
    match family {
        Family::Mesh => synthetic::type1(&mrng_like(sizes.mesh_nvtxs, GRAPH_SEED), 3, GRAPH_SEED),
        Family::Rmat => rmat_default(sizes.rmat_scale, 8, GRAPH_SEED),
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path} has no VmHWM"))
}

struct Reference {
    hash: u64,
    cut: i64,
    imbalance: f64,
}

/// The output checks shared by every workload, and the per-problem results
/// the cut and imbalance metrics average.
#[derive(Default)]
pub struct Book {
    refs: Vec<Option<Reference>>,
}

impl Book {
    /// Checks one `nparts`-way partition of problem `p` with its reported
    /// cut and imbalance: in range, no empty part, the cut recomputes, and
    /// a repeat of the problem reproduces the first result exactly.
    pub fn check(
        &mut self,
        g: &Graph,
        p: usize,
        nparts: usize,
        assignment: &[u32],
        cut: i64,
        imbalance: f64,
    ) -> bool {
        let valid = check_assignment(g, assignment, nparts).is_ok()
            && check_no_empty_parts(assignment, nparts).is_ok()
            && edge_cut_raw(g, assignment) == cut;
        let mut h = DefaultHasher::new();
        assignment.hash(&mut h);
        let hash = h.finish();
        if self.refs.len() <= p {
            self.refs.resize_with(p + 1, || None);
        }
        let first = self.refs[p].get_or_insert(Reference {
            hash,
            cut,
            imbalance,
        });
        valid && first.hash == hash && first.cut == cut
    }

    /// Mean of `f` over the first `n` problems' first results.
    fn mean(&self, n: usize, f: impl Fn(&Reference) -> f64) -> f64 {
        let v: Vec<f64> = self.refs.iter().take(n).flatten().map(f).collect();
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Per-layer numbers of one traced operation.
pub struct TracedOp {
    /// Self time of each stage as a share of the operation's time.
    pub shares: BTreeMap<&'static str, f64>,
    pub stats: OpStats,
    /// Time the recorded stages account for.
    pub stage_s: f64,
    /// Time of the operation as traced.
    pub traced_s: f64,
}

/// Per-layer numbers only the serve workloads have; zero for the library.
#[derive(Default)]
pub struct LayerCounters {
    pub body_bytes: f64,
    pub response_bytes: f64,
    pub cache_hit_ratio: f64,
    pub cache_evictions: f64,
    pub cache_waits: f64,
    pub requests_per_connect: f64,
}

/// Stages reported as `<stage>.share` in a traced run. `transport` and
/// `server` exist for served requests only: the part of the client's
/// latency the daemon's clock does not see, and the part it does.
const STAGES: [&str; 14] = [
    "matching",
    "contract",
    "rb",
    "project",
    "balance",
    "kway_refine",
    "metrics",
    "fingerprint",
    "cache",
    "parse",
    "check",
    "serialize",
    "transport",
    "server",
];

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a timed run measured.
#[derive(Default)]
pub struct Timings {
    /// Host-normalised seconds per set-up.
    pub setup: Vec<f64>,
    /// Per timed operation: its problem, raw and host-normalised seconds.
    ops: Vec<(usize, f64, f64)>,
    /// Every host-probe time.
    pub probes: Vec<f64>,
    /// Peak resident memory of the process doing the work (this one, or
    /// the daemon) at the end of the timed loop.
    pub peak_rss_mb: f64,
}

impl Timings {
    pub fn record(&mut self, problem: usize, raw: f64, normalised: f64) {
        self.ops.push((problem, raw, normalised));
    }

    /// Raw seconds of the timed operations, in order.
    pub fn raw(&self) -> Vec<f64> {
        self.ops.iter().map(|op| op.1).collect()
    }

    /// `select`ed times grouped by problem, so that every problem weighs
    /// the same however many times the run happened to repeat it.
    fn by_problem(&self, select: fn(&(usize, f64, f64)) -> f64) -> Vec<Vec<f64>> {
        let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for op in &self.ops {
            groups.entry(op.0).or_default().push(select(op));
        }
        groups.into_values().collect()
    }
}

fn medians(groups: &[Vec<f64>]) -> Vec<f64> {
    groups.iter().map(|g| median(g)).collect()
}

/// The outcome of one workload run.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Printed as metric lines but left out of the summary object.
    info: Vec<Metric>,
    /// The traced run's spans.
    tracer: Option<Tracer>,
}

impl Report {
    /// End-to-end metrics: set-up, latency and throughput of the timed
    /// operations (host-normalised, every problem weighing the same), mean
    /// cut and imbalance over the problems, peak memory. The raw latency
    /// and the probe's time are printed alongside as information.
    pub fn end_to_end(
        attempted: u64,
        failed: u64,
        t: &Timings,
        book: &Book,
        problems: usize,
    ) -> Report {
        let normalised = t.by_problem(|op| op.2);
        let mean_s: f64 = normalised
            .iter()
            .map(|g| g.iter().sum::<f64>() / g.len() as f64)
            .sum();
        Report {
            attempted,
            failed,
            metrics: vec![
                metric("setup_s", median(&t.setup), "s"),
                metric("latency_p50_s", median(&medians(&normalised)), "s"),
                metric("throughput_ops", normalised.len() as f64 / mean_s, "1/s"),
                metric("edge_cut", book.mean(problems, |r| r.cut as f64), "edges"),
                metric(
                    "max_imbalance",
                    book.mean(problems, |r| r.imbalance),
                    "ratio",
                ),
                metric("peak_rss_mb", t.peak_rss_mb, "MiB"),
            ],
            info: vec![
                metric(
                    "latency_p50_raw_s",
                    median(&medians(&t.by_problem(|op| op.1))),
                    "s",
                ),
                metric("host.probe_s", median(&t.probes), "s"),
            ],
            tracer: None,
        }
    }

    /// Per-layer metrics: medians over the traced operations, compared
    /// with the plain operations of the same run (`untraced`).
    pub fn traced(
        attempted: u64,
        failed: u64,
        ops: &[TracedOp],
        untraced: &[f64],
        identical: bool,
        counters: &LayerCounters,
        tracer: Tracer,
    ) -> Report {
        let over = |f: &dyn Fn(&TracedOp) -> f64| median(&ops.iter().map(f).collect::<Vec<_>>());
        let stat = |f: fn(&OpStats) -> usize| over(&|o| f(&o.stats) as f64);
        let op_s = median(untraced);
        let mut metrics: Vec<Metric> = STAGES
            .iter()
            .map(|s| {
                metric(
                    format!("{s}.share"),
                    over(&|o| o.shares.get(s).copied().unwrap_or(0.0)),
                    "fraction",
                )
            })
            .collect();
        metrics.extend([
            metric("coarsen.levels", stat(|s| s.levels), "count"),
            metric(
                "coarsen.coarsest_nvtxs",
                stat(|s| s.coarsest_nvtxs),
                "count",
            ),
            metric("matching.shrink", over(&|o| o.stats.shrink), "ratio"),
            metric("hierarchy.bytes", stat(|s| s.hierarchy_bytes), "bytes"),
            metric("rb.cut", over(&|o| o.stats.rb_cut as f64), "edges"),
            metric("balance.calls", stat(|s| s.balance_calls), "count"),
            metric("balance.moved", stat(|s| s.balance_moved), "count"),
            metric("balance.failed", stat(|s| s.balance_failed), "count"),
            metric("kway_refine.moves", stat(|s| s.refine_moves), "count"),
            metric(
                "kway_refine.iterations",
                stat(|s| s.refine_iterations),
                "count",
            ),
            metric("kway_refine.boundary", stat(|s| s.refine_boundary), "count"),
            metric(
                "kway_refine.useful_ratio",
                over(&|o| o.stats.refine_moves as f64 / o.stats.refine_boundary.max(1) as f64),
                "ratio",
            ),
            metric("io.body_bytes", counters.body_bytes, "bytes"),
            metric("protocol.response_bytes", counters.response_bytes, "bytes"),
            metric("cache.hit_ratio", counters.cache_hit_ratio, "ratio"),
            metric("cache.evictions", counters.cache_evictions, "count"),
            metric("cache.waits", counters.cache_waits, "count"),
            metric(
                "net.requests_per_connect",
                counters.requests_per_connect,
                "ratio",
            ),
            metric("trace.op_s", op_s, "s"),
            metric("trace.coverage", over(&|o| o.stage_s) / op_s, "ratio"),
            metric(
                "trace.overhead",
                over(&|o| o.traced_s) / op_s - 1.0,
                "ratio",
            ),
            metric("trace.identical", f64::from(u8::from(identical)), "count"),
            metric("trace.ops", ops.len() as f64, "count"),
        ]);
        Report {
            attempted,
            failed,
            metrics,
            info: Vec::new(),
            tracer: Some(tracer),
        }
    }

    /// The metric lines and, last, the summary object. The seed lets
    /// `compare` pair runs of the same inputs.
    fn lines(&self, workload: &str, seed: u64) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        for m in self.info.iter().chain(&self.metrics) {
            if !m.value.is_finite() {
                return Err(format!("{workload}: metric {} is {}", m.name, m.value));
            }
            lines.push(
                Json::obj([
                    ("workload", Json::Str(workload.into())),
                    ("seed", Json::UInt(seed)),
                    ("metric", Json::Str(m.name.clone())),
                    ("value", Json::Float(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ])
                .to_string(),
            );
        }
        let summary = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([
                        ("value", Json::Float(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        lines.push(
            Json::obj([
                ("correct", Json::Bool(self.failed == 0)),
                ("attempted", Json::UInt(self.attempted)),
                ("failed", Json::UInt(self.failed)),
                ("metrics", Json::Obj(summary)),
            ])
            .to_string(),
        );
        Ok(lines)
    }
}

fn run_workload(w: &Workload, ctx: &Ctx) -> Result<Report, String> {
    match w.kind {
        Kind::Library { family, nparts } => library::run(ctx, family, nparts),
        Kind::Serve { warm } => serve::run(ctx, warm),
    }
}

/// Writes the traced run's spans as a Chrome trace and validates the file;
/// returns its path and event count.
fn write_trace(
    tracer: &Tracer,
    out_dir: &Path,
    workload: &str,
    seed: u64,
) -> Result<(PathBuf, usize), String> {
    let dir = out_dir.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.json"));
    let mut text = Vec::new();
    mcgp_runtime::trace::write_chrome(&tracer.chrome_events(), &mut text)
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    let written = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = mcgp_runtime::trace::validate_chrome(&written)
        .map_err(|e| format!("{}: invalid Chrome trace: {e}", path.display()))?;
    Ok((path, events))
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => run.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(run.seconds.is_finite() && run.seconds >= 0.0) {
        return Err(format!("bad value for --seconds: {}", run.seconds));
    }
    Ok(run)
}

fn run(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.into());
        };
        return compare::run(a, b);
    }
    let args = parse_run_args(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| {
            format!(
                "unknown workload {:?}; one of {names:?}\n{USAGE}",
                args.workload
            )
        })?;
    // The daemon is the `mcgp` binary built next to this one (run.sh).
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mcgp = exe.with_file_name("mcgp");
    if matches!(workload.kind, Kind::Serve { .. }) && !mcgp.is_file() {
        return Err(format!(
            "{} not found; build it with run.sh",
            mcgp.display()
        ));
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs_f64(args.seconds),
        trace: args.trace,
        sizes: FULL,
        problems: workload.problems,
        daemon: DaemonBin::Exe(mcgp),
        out_dir: PathBuf::from(".bench_out"),
    };
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let report = run_workload(workload, &ctx)?;
    let lines = report.lines(workload.name, ctx.seed)?;
    if let Some(tracer) = &report.tracer {
        let (path, events) = write_trace(tracer, &ctx.out_dir, workload.name, ctx.seed)?;
        let line = Json::obj([
            ("workload", Json::Str(workload.name.into())),
            ("trace_file", Json::Str(path.display().to_string())),
            ("events", Json::UInt(events as u64)),
        ]);
        println!("{line}");
    }
    for line in lines {
        println!("{line}");
    }
    Ok(0)
}

fn main() {
    // Thread counts and check levels are part of each workload's
    // definition, not of the caller's environment.
    for var in ["MCGP_THREADS", "MCGP_CHECK"] {
        std::env::remove_var(var);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&args).unwrap_or_else(|e| {
        eprintln!("mcgp-benchmark: {e}");
        1
    });
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgp_core::{HierarchySnapshot, PartitionConfig};
    use mcgp_serve::CachedEntry;

    const TINY: Sizes = Sizes {
        mesh_nvtxs: 5_000,
        rmat_scale: 10,
        setups: 2,
    };

    /// A cache budget of three and a half tiny-mesh entries: every entry is
    /// admitted, and the fourth cold request evicts.
    fn tiny_cache_bytes() -> usize {
        let mut body = Vec::new();
        mcgp_graph::io::write_metis(&make_graph(Family::Mesh, &TINY), &mut body).unwrap();
        let g = mcgp_graph::io::read_metis(&body[..]).unwrap();
        let snap = HierarchySnapshot::build(&g, &PartitionConfig::default());
        CachedEntry::new(g, snap, 0.0).bytes() * 7 / 2
    }

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let doc = Json::parse(&text).unwrap();
        let field = |m: &Json, k| m.get(k).and_then(Json::as_str).unwrap().to_string();
        doc.get(section)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn every_workload_prints_every_declared_metric() {
        let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.bench_out/test"));
        let cache_bytes = tiny_cache_bytes();
        for w in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx {
                    seed: 1,
                    seconds: Duration::ZERO,
                    trace,
                    sizes: TINY,
                    problems: 2,
                    daemon: DaemonBin::InProcess { cache_bytes },
                    out_dir: out_dir.clone(),
                };
                let report = run_workload(w, &ctx).unwrap_or_else(|e| panic!("{}: {e}", w.name));
                let lines = report.lines(w.name, 1).unwrap();
                let summary = Json::parse(lines.last().unwrap()).unwrap();
                assert_eq!(
                    summary.get("correct"),
                    Some(&Json::Bool(true)),
                    "{} trace={trace}",
                    w.name
                );
                let metrics = summary.get("metrics").unwrap();
                let section = if trace { "per_layer" } else { "end_to_end" };
                for (name, unit) in declared(section) {
                    let m = metrics
                        .get(&name)
                        .unwrap_or_else(|| panic!("{}: no {name}", w.name));
                    assert_eq!(
                        m.get("unit").and_then(Json::as_str),
                        Some(unit.as_str()),
                        "{name}"
                    );
                    assert!(
                        m.get("value")
                            .and_then(Json::as_f64)
                            .is_some_and(f64::is_finite),
                        "{name}"
                    );
                }
                if trace {
                    let identical = metrics.get("trace.identical").and_then(|m| m.get("value"));
                    assert_eq!(identical.and_then(Json::as_f64), Some(1.0), "{}", w.name);
                    let tracer = report.tracer.as_ref().unwrap();
                    let (_, events) = write_trace(tracer, &out_dir, w.name, 1).unwrap();
                    assert!(events > 0);
                }
            }
        }
    }

    /// The settings of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<&str> {
        manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect()
    }

    /// The library workloads run the crates as the `mcgp` binary ships
    /// them, so this package's release profile must be the repository's.
    #[test]
    fn release_profile_is_the_repositorys() {
        let read = |p: &str| std::fs::read_to_string(format!("{}/{p}", env!("CARGO_MANIFEST_DIR")));
        let (ours, root) = (read("Cargo.toml").unwrap(), read("../Cargo.toml").unwrap());
        assert!(!release_profile(&root).is_empty());
        assert_eq!(release_profile(&ours), release_profile(&root));
    }

    #[test]
    fn seeds_are_distinct_per_stream_and_stable() {
        assert_ne!(derive(1, 1), derive(1, 2));
        assert_ne!(derive(1, 1), derive(2, 1));
        assert_eq!(derive(7, 1000), derive(7, 1000));
    }
}
