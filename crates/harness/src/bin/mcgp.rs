//! `mcgp` — command-line driver for the partitioners and every paper
//! experiment.
//!
//! ```text
//! mcgp table1|figures|table2|table3|table4|ablation-slices|
//!      ablation-imbalance|ablation-constraints|all [options]
//! mcgp partition <file.graph> <k> [--parallel <p>] [--threads <t>] [--seed <s>]
//!                [--outfile <f>] [--trace <f>] [--trace-format jsonl|chrome]
//!                [--profile <f.folded>] [--profile-hz <n>]
//! mcgp check <file.graph> [<file.part> <k>] [--tol <t>] [--level cheap|full]
//! mcgp fuzz [--seed <s>] [--cases <n>]
//! mcgp trace-check <trace-file> [--format jsonl|chrome|folded]
//! mcgp bench-check <bench-jsonl-file>
//! mcgp bench-gate <baseline-jsonl> <fresh-jsonl> [--tolerance <x>]
//!                 [--noise-floor-ms <ms>] [--threads-win <prefix>[,..]]
//!                 [--threads-win-tolerance <x>]
//!                 [--rps-win <fast>/<slow>:<min-ratio>[,..]]
//! mcgp serve [--addr <host:port>] [--workers <n>] [--cache-mb <mb>]
//!            [--cache-dir <dir>] [--threads <n>] [--timeout-secs <s>]
//!            [--idle-millis <ms>] [--port-file <f>] [--trace <f>]
//! mcgp serve-request --addr <host:port> (--get <path> | <file.graph|gen:...> <k>)
//!                    [--seed <s>] [--tol <t>] [--threads <t>] [--repeat <n>]
//!                    [--json] [--full]
//! mcgp bench serve [--nvtxs <n>] [--requests <n>] [--clients <n>]
//!                  [--cold-every <n>] [--workers <n>] [--small-scale <n>]
//!                  [--small-requests <n>] [--profile <f.folded>] [--profile-hz <n>]
//!
//! options:
//!   --scale <N>    generate graphs at 1/N of paper size   [default 16]
//!   --seeds <N>    runs per cell, averaged                [default 3]
//!   --procs <list> comma-separated processor counts       [default 32,64,128]
//!   --out <dir>    also write JSONL records under <dir>
//! ```
//!
//! `partition` and `verify` accept generator pseudo-files in place of a
//! METIS file: `gen:grid:WxH` (2-D grid) and `gen:mrng:N[:NCON]` (random
//! geometric graph, optionally lifted to NCON Type-1 constraints).

use mcgp_harness::exp_ablation::{
    constraint_sweep, constraint_text, imbalance_recovery, imbalance_text, slice_ablation,
    slice_ablation_text,
};
use mcgp_harness::exp_adaptive::{adaptive_comparison, adaptive_text};
use mcgp_harness::exp_quality::{figure_bars, figure_quality, figure_text, table1, table1_text};
use mcgp_harness::exp_time::{iso_rows, scaling_table, scaling_text, table2, table2_text};
use mcgp_harness::report::write_records;
use mcgp_harness::suite::{build_suite, Scale};
use std::path::PathBuf;

struct Opts {
    scale: usize,
    seeds: usize,
    procs: Vec<usize>,
    out: Option<PathBuf>,
    rest: Vec<String>,
}

/// Prints a diagnostic and exits with the usage-error status. All CLI
/// argument problems go through here — the binary must never panic on bad
/// input.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value following a flag, or a usage error naming the flag.
fn flag_value<'a, I: Iterator<Item = &'a String>>(it: &mut I, flag: &str, usage: &str) -> &'a str {
    match it.next() {
        Some(v) => v.as_str(),
        None => die(format!("missing value for {flag}\n{usage}")),
    }
}

/// Parses a flag value, or a usage error naming the flag and the bad token.
fn parse_value<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die(format!("bad value `{s}` for {flag}")))
}

/// Holds a pipeline width to the range the daemon accepts as `threads=`;
/// anything else is a usage error (exit 2), not an allocation abort.
fn check_threads(threads: usize, flag: &str, usage: &str) {
    let max = mcgp_serve::protocol::MAX_THREADS;
    if threads == 0 || threads > max {
        die(format!(
            "{flag} must be between 1 and {max}, got {threads}\n{usage}"
        ));
    }
}

/// Holds an imbalance tolerance to the range the daemon accepts as
/// `tol=`; anything else (negative, NaN, infinite) is a usage error.
fn check_tol(tol: f64, usage: &str) {
    if !mcgp_serve::protocol::tol_in_range(tol) {
        die(format!(
            "--tol must be {}, got {tol}\n{usage}",
            mcgp_serve::protocol::TOL_RANGE
        ));
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        scale: 16,
        seeds: 3,
        procs: vec![32, 64, 128],
        out: None,
        rest: Vec::new(),
    };
    let usage = "options: --scale N --seeds N --procs p1,p2,... --out dir";
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => opts.scale = parse_value(flag_value(&mut it, a, usage), a),
            "--seeds" => opts.seeds = parse_value(flag_value(&mut it, a, usage), a),
            "--procs" => {
                opts.procs = flag_value(&mut it, a, usage)
                    .split(',')
                    .map(|s| parse_value(s, a))
                    .collect()
            }
            "--out" => opts.out = Some(PathBuf::from(flag_value(&mut it, a, usage))),
            other => opts.rest.push(other.to_string()),
        }
    }
    opts
}

fn seeds(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 1000 + 37 * i).collect()
}

/// Writes experiment records under `--out`, exiting with a readable
/// diagnostic instead of panicking when the directory is unwritable.
fn write_out<T: mcgp_runtime::json::ToJson>(
    out: Option<&std::path::Path>,
    name: &str,
    records: &[T],
) {
    write_records(out, name, records).unwrap_or_else(|e| {
        eprintln!("failed to write {name} records: {e}");
        std::process::exit(1);
    });
}

const SUITE_SEED: u64 = 20260706;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!("usage: mcgp <table1|figures|table2|table3|table4|ablation-slices|ablation-imbalance|ablation-constraints|all|partition> [options]");
        std::process::exit(2);
    };
    let opts = parse_opts(&args[1..]);
    let out = opts.out.clone();
    let out = out.as_deref();
    let scale = Scale {
        denominator: opts.scale,
    };

    match cmd.as_str() {
        "table1" => run_table1(scale, out),
        "figures" | "fig3" | "fig4" | "fig5" => run_figures(&cmd, scale, &opts, out),
        "table2" => run_table2(scale, out),
        "table3" => run_table3(scale, out),
        "table4" => run_table4(scale, out),
        "ablation-slices" => run_ablation_slices(scale, &opts, out),
        "ablation-imbalance" => run_ablation_imbalance(scale, out),
        "ablation-constraints" => run_ablation_constraints(scale, out),
        "adaptive" => run_adaptive(scale, out),
        "all" => {
            run_table1(scale, out);
            run_figures("figures", scale, &opts, out);
            run_table2(scale, out);
            run_table3(scale, out);
            run_table4(scale, out);
            run_ablation_slices(scale, &opts, out);
            run_ablation_imbalance(scale, out);
            run_ablation_constraints(scale, out);
            run_adaptive(scale, out);
        }
        "partition" => run_partition(&opts),
        "verify" => run_verify(&opts),
        "check" => run_check(&opts),
        "fuzz" => run_fuzz(&opts),
        "trace-check" => run_trace_check(&opts),
        "bench-check" => run_bench_check(&opts),
        "bench-gate" => run_bench_gate(&opts),
        "serve" => run_serve(&opts),
        "serve-request" => run_serve_request(&opts),
        "bench" => run_bench(&opts),
        other => {
            eprintln!("unknown command `{other}`");
            std::process::exit(2);
        }
    }
}

fn run_table1(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!(
        "[table1] generating suite at 1/{} scale...",
        scale.denominator
    );
    let suite = build_suite(scale, SUITE_SEED);
    let rows = table1(&suite);
    println!(
        "\nTable 1. Graph characteristics (generated at 1/{} scale).",
        scale.denominator
    );
    println!("{}", table1_text(&rows));
    write_out(out, "table1", &rows);
}

fn run_figures(which: &str, scale: Scale, opts: &Opts, out: Option<&std::path::Path>) {
    let procs: Vec<usize> = match which {
        "fig3" => vec![32],
        "fig4" => vec![64],
        "fig5" => vec![128],
        _ => opts.procs.clone(),
    };
    eprintln!(
        "[figures] suite 1/{}, procs {:?}, {} seed(s) — this is the long experiment",
        scale.denominator, procs, opts.seeds
    );
    let suite = build_suite(scale, SUITE_SEED);
    let t0 = std::time::Instant::now();
    let rows = figure_quality(&suite, &procs, &seeds(opts.seeds), |r| {
        eprintln!(
            "  {} {} p={}: ratio {:.3} balance {:.3} ({:.0?})",
            r.graph,
            r.label,
            r.nprocs,
            r.ratio,
            r.balance,
            t0.elapsed()
        );
    });
    for &p in &procs {
        let fig = match p {
            32 => "Figure 3",
            64 => "Figure 4",
            128 => "Figure 5",
            _ => "Figure (custom p)",
        };
        println!("\n{fig}. Edge-cut normalized by the serial algorithm and max balance, p = {p}.");
        println!("{}", figure_text(&rows, p));
        println!("{}", figure_bars(&rows, p));
    }
    write_out(out, "figures", &rows);
}

fn run_table2(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!("[table2] serial vs parallel on mrng1, 3-constraint Type-1...");
    let suite = build_suite(scale, SUITE_SEED);
    let ks: Vec<usize> = [8, 16, 32, 64, 128]
        .into_iter()
        .filter(|&k| k <= suite[0].graph.nvtxs())
        .collect();
    let rows = table2(&suite[0].graph, &ks, 1001);
    println!("\nTable 2. Serial and parallel run times (modeled seconds), 3-constraint, mrng1.");
    println!("{}", table2_text(&rows));
    write_out(out, "table2", &rows);
}

fn run_table3(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!("[table3] scaling, 3-constraint Type-1, mrng2..mrng4...");
    let suite = build_suite(scale, SUITE_SEED);
    let procs = [8, 16, 32, 64, 128];
    let cells = scaling_table(&suite[1..4], &procs, 3, 1001, |c| {
        eprintln!(
            "  {} p={}: {:.3}s eff {:.0}%",
            c.graph,
            c.nprocs,
            c.time_s,
            c.efficiency * 100.0
        );
    });
    println!(
        "\nTable 3. Parallel run times (modeled seconds) and efficiencies, 3-constraint Type-1."
    );
    println!("{}", scaling_text(&cells, &procs, true));
    let iso = iso_rows(&cells);
    if !iso.is_empty() {
        println!(
            "Isoefficiency check (graph x4, processors x2 should roughly preserve efficiency):"
        );
        for r in &iso {
            println!(
                "  {} eff {:.0}%  ->  {} eff {:.0}%",
                r.small,
                r.eff_small * 100.0,
                r.large,
                r.eff_large * 100.0
            );
        }
    }
    write_out(out, "table3", &cells);
    write_out(out, "table3_iso", &iso);
}

fn run_table4(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!("[table4] single-constraint baseline, mrng2..mrng4...");
    let suite = build_suite(scale, SUITE_SEED);
    let procs = [8, 16, 32, 64, 128];
    let cells = scaling_table(&suite[1..4], &procs, 1, 1001, |c| {
        eprintln!("  {} p={}: {:.3}s", c.graph, c.nprocs, c.time_s);
    });
    println!(
        "\nTable 4. Parallel run times (modeled seconds) of the single-constraint partitioner."
    );
    println!("{}", scaling_text(&cells, &procs, false));
    write_out(out, "table4", &cells);
}

fn run_ablation_slices(scale: Scale, opts: &Opts, out: Option<&std::path::Path>) {
    eprintln!("[A1] slice vs reservation refinement...");
    let suite = build_suite(scale, SUITE_SEED);
    let rows = slice_ablation(
        &suite[0..2],
        &[32, 64],
        &[2, 3, 5],
        &seeds(opts.seeds),
        |r| {
            eprintln!(
                "  {} {} p={}: reservation {:.3} slice {:.3}",
                r.graph, r.label, r.nprocs, r.reservation_ratio, r.slice_ratio
            );
        },
    );
    println!("\nAblation A1. Slice-allocation vs reservation refinement (cut / serial cut).");
    println!("{}", slice_ablation_text(&rows));
    write_out(out, "ablation_slices", &rows);
}

fn run_ablation_imbalance(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!("[A2] initial-imbalance recoverability...");
    let suite = build_suite(scale, SUITE_SEED);
    let injections = [0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40];
    let rows = imbalance_recovery(&suite[0].graph, 16, 16, &injections, 1001);
    println!("\nAblation A2. Injected initial imbalance vs what refinement recovers (k = p = 16).");
    println!("{}", imbalance_text(&rows));
    write_out(out, "ablation_imbalance", &rows);
}

fn run_ablation_constraints(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!("[A3] constraint-count sweep...");
    let suite = build_suite(scale, SUITE_SEED);
    let rows = constraint_sweep(&suite[0].graph, 32, 8, 1001);
    println!("\nAblation A3. Serial quality vs number of constraints (Type-1, k = 32).");
    println!("{}", constraint_text(&rows));
    write_out(out, "ablation_constraints", &rows);
}

/// Reads a METIS graph file, or generates the graph a `gen:` spec names.
/// Every generator field is checked against its documented range (the
/// upper bounds keep a generated graph within about a gigabyte); a spec
/// outside it exits 2 with the usage.
fn load_graph(spec: &str, seed: u64) -> mcgp_graph::Graph {
    let Some(rest) = spec.strip_prefix("gen:") else {
        return mcgp_graph::io::read_metis_file(spec).unwrap_or_else(|e| {
            eprintln!("failed to read {spec}: {e}");
            std::process::exit(1);
        });
    };
    let usage = "generator specs: gen:grid:WxH (W, H in 1..=2048), \
                 gen:mrng:N[:NCON] (N in 8..=4000000, NCON in 1..=16), \
                 gen:rmat:SCALE[:EF] (SCALE in 1..=20, EF in 1..=16, default 8)";
    let bad = |msg: String| -> ! {
        eprintln!("{msg}\n{usage}");
        std::process::exit(2);
    };
    let field = |s: &str, what: &str, lo: usize, hi: usize| -> usize {
        match s.parse::<usize>() {
            Ok(x) if (lo..=hi).contains(&x) => x,
            _ => bad(format!(
                "bad {what} `{s}` in generator spec `{spec}`: want an integer in {lo}..={hi}"
            )),
        }
    };
    let parts: Vec<&str> = rest.split(':').collect();
    match parts.as_slice() {
        ["grid", dims] => match dims.split_once('x') {
            Some((w, h)) => mcgp_graph::generators::grid_2d(
                field(w, "grid width", 1, 2048),
                field(h, "grid height", 1, 2048),
            ),
            None => bad(format!("generator spec `{spec}` wants gen:grid:WxH")),
        },
        ["mrng", n] => {
            mcgp_graph::generators::mrng_like(field(n, "vertex count", 8, 4_000_000), seed)
        }
        ["mrng", n, ncon] => {
            let n = field(n, "vertex count", 8, 4_000_000);
            let ncon = field(ncon, "constraint count", 1, 16);
            mcgp_graph::synthetic::type1(&mcgp_graph::generators::mrng_like(n, seed), ncon, seed)
        }
        ["rmat", scale, ef @ ..] if ef.len() <= 1 => {
            let scale = field(scale, "rmat scale", 1, 20);
            let ef = ef
                .first()
                .map_or(8, |ef| field(ef, "rmat edge factor", 1, 16));
            mcgp_graph::generators::rmat_default(scale as u32, ef, seed)
        }
        _ => bad(format!("unknown generator spec `{spec}`")),
    }
}

fn run_partition(opts: &Opts) {
    let usage = "usage: mcgp partition <file.graph|gen:...> <k> [--parallel <p>] [--threads <t>] \
                 [--seed <s>] [--tol <t>] [--outfile <f>] [--trace <f>] \
                 [--trace-format jsonl|chrome] [--profile <f.folded>] [--profile-hz <n>]";
    let mut file = None;
    let mut k = None;
    let mut parallel = None;
    let mut threads = 1usize;
    let mut seed = 4242u64;
    let mut tol = 0.05f64;
    let mut outfile = None;
    let mut trace_file: Option<String> = None;
    let mut trace_format = mcgp_runtime::trace::TraceFormat::Jsonl;
    let mut profile_file: Option<String> = None;
    let mut profile_hz = 997u32;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--parallel" => parallel = Some(parse_value(flag_value(&mut it, a, usage), a)),
            "--threads" => threads = parse_value(flag_value(&mut it, a, usage), a),
            "--seed" => seed = parse_value(flag_value(&mut it, a, usage), a),
            "--tol" => tol = parse_value(flag_value(&mut it, a, usage), a),
            "--outfile" => outfile = Some(flag_value(&mut it, a, usage).to_string()),
            "--trace" => trace_file = Some(flag_value(&mut it, a, usage).to_string()),
            "--trace-format" => {
                let name = flag_value(&mut it, a, usage);
                trace_format = mcgp_runtime::trace::TraceFormat::parse(name)
                    .unwrap_or_else(|| die(format!("unknown trace format `{name}` (jsonl|chrome)")))
            }
            "--profile" => profile_file = Some(flag_value(&mut it, a, usage).to_string()),
            "--profile-hz" => profile_hz = parse_value(flag_value(&mut it, a, usage), a),
            other if file.is_none() => file = Some(other.to_string()),
            other if k.is_none() => k = Some(parse_value(other, "part count <k>")),
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    let (Some(file), Some(k)) = (file, k) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    // The partitioners assert these; reject them here as usage errors.
    if parallel == Some(0) {
        die(format!("--parallel must be at least 1, got 0\n{usage}"));
    }
    check_threads(threads, "--threads", usage);
    check_tol(tol, usage);
    let graph = load_graph(&file, seed);
    if k == 0 || k > graph.nvtxs() {
        die(format!(
            "part count <k> must be between 1 and the graph's {} vertices, got {k}\n{usage}",
            graph.nvtxs()
        ));
    }
    eprintln!(
        "{}: {} vertices, {} edges, {} constraint(s)",
        file,
        graph.nvtxs(),
        graph.nedges(),
        graph.ncon()
    );
    // Threads run the recursive-bisection task tree's halves as pool tasks;
    // the output depends on the seed alone.
    let mut cfg = mcgp_core::PartitionConfig::default()
        .with_seed(seed)
        .with_threads(threads);
    cfg.imbalance_tol = tol;
    if trace_file.is_some() {
        let _ = mcgp_runtime::trace::take_local(); // clean slate for the event buffer
        mcgp_runtime::trace::set_enabled(true);
    }
    // The profiler is a pure observer: the partition below is
    // bit-identical with or without it (the span stack is write-only
    // state the algorithms never read).
    let profiler = profile_file
        .as_ref()
        .map(|_| mcgp_runtime::profile::Profiler::start(profile_hz));
    let ((assignment, quality), report) =
        mcgp_runtime::phase::PhaseReport::capture(|| match parallel {
            Some(p) => {
                let mut pcfg = mcgp_parallel::ParallelConfig::new(p);
                pcfg.serial = cfg;
                let r = mcgp_parallel::parallel_partition_kway(&graph, k, &pcfg);
                eprintln!(
                    "parallel (p={p}): modeled time {:.3}s, {} supersteps, {} bytes comm",
                    r.stats.modeled_time_s, r.stats.supersteps, r.stats.comm_bytes
                );
                (r.partition.into_assignment(), r.quality)
            }
            None => {
                let r = mcgp_core::partition_kway(&graph, k, &cfg);
                (r.partition.into_assignment(), r.quality)
            }
        });
    println!(
        "edge-cut {}  max-imbalance {:.4}  comm-volume {}",
        quality.edge_cut, quality.max_imbalance, quality.comm_volume
    );
    eprintln!("{}", report.render());
    if let (Some(path), Some(profiler)) = (&profile_file, profiler) {
        let stacks = profiler.stop();
        let folded = stacks.render();
        if let Err(e) = mcgp_runtime::profile::validate_collapsed(&folded) {
            eprintln!("internal error: profiler produced invalid collapsed output: {e}");
            std::process::exit(1);
        }
        std::fs::write(path, &folded).unwrap_or_else(|e| {
            eprintln!("failed to write profile {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "wrote {} samples over {} stack(s) to {path} (hz {profile_hz})",
            stacks.total_samples(),
            stacks.len()
        );
    }
    if let Some(path) = &trace_file {
        mcgp_runtime::trace::set_enabled(false);
        let events = mcgp_runtime::trace::take_local();
        mcgp_runtime::trace::write_trace_file(&events, trace_format, std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("failed to write trace {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("wrote {} trace events to {path}", events.len());
    }
    let outfile = outfile.unwrap_or_else(|| format!("{}.part.{k}", file.replace(':', "_")));
    std::fs::File::create(&outfile)
        .map_err(mcgp_graph::McgpError::Io)
        .and_then(|f| mcgp_graph::io::write_partition(&assignment, f))
        .unwrap_or_else(|e| {
            eprintln!("failed to write {outfile}: {e}");
            std::process::exit(1);
        });
    eprintln!("wrote {outfile}");
}

/// The artifact formats `trace-check` can validate: the two span-trace
/// encodings plus the profiler's collapsed-stack output.
#[derive(Clone, Copy, Debug)]
enum CheckFormat {
    Jsonl,
    Chrome,
    Folded,
}

fn run_trace_check(opts: &Opts) {
    let usage = "usage: mcgp trace-check <trace-file> [--format jsonl|chrome|folded]";
    let mut file = None;
    let mut format = None;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => {
                format = Some(match flag_value(&mut it, a, usage) {
                    "jsonl" => CheckFormat::Jsonl,
                    "chrome" => CheckFormat::Chrome,
                    "folded" => CheckFormat::Folded,
                    name => {
                        eprintln!("unknown trace format `{name}` (jsonl|chrome|folded)");
                        std::process::exit(2);
                    }
                })
            }
            other if file.is_none() => file = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("failed to read {file}: {e}");
        std::process::exit(1);
    });
    // Infer the format from the content when not given: a Chrome trace is
    // a single JSON array, JSONL starts with an object, and a collapsed
    // profile is neither (its lines start with a frame name).
    let format = format.unwrap_or(match text.trim_start().chars().next() {
        Some('[') => CheckFormat::Chrome,
        Some('{') => CheckFormat::Jsonl,
        _ => CheckFormat::Folded,
    });
    let (checked, unit) = match format {
        CheckFormat::Jsonl => (mcgp_runtime::trace::validate_jsonl(&text), "events"),
        CheckFormat::Chrome => (mcgp_runtime::trace::validate_chrome(&text), "events"),
        CheckFormat::Folded => (mcgp_runtime::profile::validate_collapsed(&text), "stacks"),
    };
    match checked {
        Ok(n) => println!("{file}: ok, {n} {unit} ({format:?})"),
        Err(e) => {
            eprintln!("{file}: invalid trace: {e}");
            std::process::exit(1);
        }
    }
}

/// Validates a `mcgp-bench` JSONL result file (e.g. `BENCH_refine.json`)
/// against the bench schema of [`mcgp_harness::bench_gate::parse_bench_file`].
/// Exits non-zero on any drift so CI catches harness format regressions.
fn run_bench_check(opts: &Opts) {
    let usage = "usage: mcgp bench-check <bench-jsonl-file>";
    let Some(file) = opts.rest.first() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("failed to read {file}: {e}");
        std::process::exit(1);
    });
    match mcgp_harness::bench_gate::parse_bench_file(&text, file) {
        Ok(rows) => println!("{file}: ok, {} bench records", rows.len()),
        Err(e) => {
            eprintln!("invalid bench file: {e}");
            std::process::exit(1);
        }
    }
}

/// `mcgp bench-gate <baseline> <fresh>`: the regression gate. Prints a
/// one-object JSON verdict on stdout (a `checks` array with per-bench
/// ratios plus a top-level `verdict`), a human summary on stderr. Exit 0
/// on pass, 1 on regression, 2 on usage/schema errors — so CI can tell
/// "it got slower" apart from "the gate itself broke".
fn run_bench_gate(opts: &Opts) {
    let usage = "usage: mcgp bench-gate <baseline-jsonl> <fresh-jsonl> \
                 [--tolerance <x>] [--noise-floor-ms <ms>] \
                 [--threads-win <prefix>[,<prefix>..]] [--threads-win-tolerance <x>] \
                 [--rps-win <fast>/<slow>:<min-ratio>[,<pair>..]]";
    let mut files: Vec<String> = Vec::new();
    let mut config = mcgp_harness::bench_gate::GateConfig::default();
    let mut tw_config = mcgp_harness::bench_gate::ThreadsWinConfig::default();
    let mut rw_pairs: Vec<mcgp_harness::bench_gate::RpsWinPair> = Vec::new();
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => config.tolerance = parse_value(flag_value(&mut it, a, usage), a),
            "--noise-floor-ms" => {
                let ms: f64 = parse_value(flag_value(&mut it, a, usage), a);
                config.noise_floor_s = ms / 1000.0;
            }
            "--threads-win" => {
                let list = flag_value(&mut it, a, usage);
                tw_config
                    .prefixes
                    .extend(list.split(',').filter(|p| !p.is_empty()).map(String::from));
            }
            "--threads-win-tolerance" => {
                tw_config.tolerance = parse_value(flag_value(&mut it, a, usage), a);
            }
            "--rps-win" => {
                let list = flag_value(&mut it, a, usage);
                for spec in list.split(',').filter(|p| !p.is_empty()) {
                    rw_pairs.push(parse_rps_win_pair(spec).unwrap_or_else(|e| die(e)));
                }
            }
            other if files.len() < 2 => files.push(other.to_string()),
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    if files.len() != 2 {
        die(usage);
    }
    if config.tolerance < 1.0 || !config.tolerance.is_finite() {
        die(format!(
            "--tolerance must be a finite ratio >= 1, got {}",
            config.tolerance
        ));
    }
    if tw_config.tolerance < 1.0 || !tw_config.tolerance.is_finite() {
        die(format!(
            "--threads-win-tolerance must be a finite ratio >= 1, got {}",
            tw_config.tolerance
        ));
    }
    let read = |path: &str| -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("failed to read {path}: {e}")))
    };
    let parse = |path: &str| {
        mcgp_harness::bench_gate::parse_bench_file(&read(path), path)
            .unwrap_or_else(|e| die(format!("bench-gate: {e}")))
    };
    let baseline = parse(&files[0]);
    let fresh = parse(&files[1]);
    let report = mcgp_harness::bench_gate::gate(&baseline, &fresh, &config)
        .unwrap_or_else(|e| die(format!("bench-gate: {e}")));
    // Threads-win rule: within the fresh run only — `_tN` rows enrolled
    // via --threads-win must hold their `_t1` siblings' speed.
    let tw_report = (!tw_config.prefixes.is_empty()).then(|| {
        mcgp_harness::bench_gate::threads_win(&fresh, &tw_config)
            .unwrap_or_else(|e| die(format!("bench-gate: {e}")))
    });
    // Rps-win rule: also within the fresh run only — each `fast/slow:ratio`
    // pair must hold its throughput ratio in the same report, so committing
    // new baselines can never rot the comparison.
    let rw_report = (!rw_pairs.is_empty()).then(|| {
        mcgp_harness::bench_gate::rps_win(&fresh, &rw_pairs)
            .unwrap_or_else(|e| die(format!("bench-gate: {e}")))
    });
    let passed = report.passed()
        && tw_report.as_ref().is_none_or(|t| t.passed())
        && rw_report.as_ref().is_none_or(|r| r.passed());
    let mut doc = match mcgp_runtime::json::ToJson::to_json(&report) {
        mcgp_runtime::json::Json::Obj(mut pairs) => {
            // The top-level verdict covers both sections.
            if let Some(v) = pairs.iter_mut().find(|(k, _)| k == "verdict") {
                v.1 = mcgp_runtime::json::Json::Str(if passed { "pass" } else { "fail" }.into());
            }
            pairs
        }
        _ => unreachable!("GateReport serialises as an object"),
    };
    if let Some(tw) = &tw_report {
        doc.push((
            "threads_win".to_string(),
            mcgp_runtime::json::ToJson::to_json(tw),
        ));
    }
    if let Some(rw) = &rw_report {
        doc.push((
            "rps_win".to_string(),
            mcgp_runtime::json::ToJson::to_json(rw),
        ));
    }
    println!("{}", mcgp_runtime::json::Json::Obj(doc));
    for c in &report.checks {
        let tag = if c.regressed {
            "REGRESSED"
        } else if c.gated {
            "ok"
        } else {
            "skipped (noise floor)"
        };
        eprintln!(
            "bench-gate: {:<40} {:>9.4}s -> {:>9.4}s  x{:.2}  {tag}",
            c.bench, c.baseline_median_s, c.fresh_median_s, c.ratio
        );
    }
    for name in &report.only_baseline {
        eprintln!("bench-gate: {name}: only in baseline (renamed or removed?)");
    }
    for name in &report.only_fresh {
        eprintln!("bench-gate: {name}: only in fresh (new bench, not gated)");
    }
    if let Some(tw) = &tw_report {
        for c in &tw.checks {
            let tag = if c.regressed {
                "LOST TO SERIAL"
            } else if c.gated {
                "ok"
            } else {
                "skipped (noise floor)"
            };
            eprintln!(
                "bench-gate: threads-win {:<34} t1 {:>9.4}s vs t{} {:>9.4}s  x{:.2}  {tag}",
                c.stem, c.t1_median_s, c.threads, c.tn_median_s, c.ratio
            );
        }
        if tw.passed() {
            eprintln!(
                "bench-gate: threads-win pass — {} threaded row(s) within {:.2}x of t1",
                tw.checks.len(),
                tw.tolerance
            );
        } else {
            eprintln!(
                "bench-gate: threads-win FAIL — {} of {} threaded row(s) slower than \
                 t1 past {:.2}x",
                tw.regressions().count(),
                tw.checks.len(),
                tw.tolerance
            );
        }
    }
    if let Some(rw) = &rw_report {
        for c in &rw.checks {
            let tag = if c.regressed { "LOST THE RATIO" } else { "ok" };
            eprintln!(
                "bench-gate: rps-win {} {:>9.2} rps vs {} {:>9.2} rps  x{:.2} (need {:.2}x)  {tag}",
                c.fast, c.fast_rps, c.slow, c.slow_rps, c.ratio, c.min_ratio
            );
        }
        if rw.passed() {
            eprintln!(
                "bench-gate: rps-win pass — {} pair(s) held their ratio",
                rw.checks.len()
            );
        } else {
            eprintln!(
                "bench-gate: rps-win FAIL — {} of {} pair(s) below their minimum ratio",
                rw.regressions().count(),
                rw.checks.len()
            );
        }
    }
    if report.passed() {
        eprintln!(
            "bench-gate: pass — {} bench(es) within {:.1}x of {}",
            report.checks.len(),
            report.tolerance,
            files[0]
        );
    } else {
        eprintln!(
            "bench-gate: FAIL — {} of {} bench(es) regressed past {:.1}x",
            report.regressions().count(),
            report.checks.len(),
            report.tolerance
        );
    }
    if !passed {
        std::process::exit(1);
    }
}

/// Parse one `--rps-win` spec: `<fast>/<slow>:<min-ratio>`.
fn parse_rps_win_pair(spec: &str) -> Result<mcgp_harness::bench_gate::RpsWinPair, String> {
    let bad = || format!("--rps-win: expected <fast>/<slow>:<min-ratio>, got `{spec}`");
    let (names, ratio) = spec.rsplit_once(':').ok_or_else(bad)?;
    let (fast, slow) = names.split_once('/').ok_or_else(bad)?;
    if fast.is_empty() || slow.is_empty() {
        return Err(bad());
    }
    let min_ratio: f64 = ratio.parse().map_err(|_| bad())?;
    if !min_ratio.is_finite() || min_ratio < 1.0 {
        return Err(format!(
            "--rps-win: minimum ratio must be a finite value >= 1, got `{ratio}`"
        ));
    }
    Ok(mcgp_harness::bench_gate::RpsWinPair {
        fast: fast.to_string(),
        slow: slow.to_string(),
        min_ratio,
    })
}

fn run_adaptive(scale: Scale, out: Option<&std::path::Path>) {
    eprintln!("[E1] adaptive repartitioning comparison...");
    let suite = build_suite(scale, SUITE_SEED);
    let rows = adaptive_comparison(&suite[0].graph, 16, 6, 1001);
    println!("\nExtension E1. Adaptive repartitioning: scratch-remap vs refinement (k = 16).");
    println!("{}", adaptive_text(&rows));
    write_out(out, "adaptive", &rows);
}

/// `mcgp check`: validates a graph file — and optionally a partition of it —
/// against the named invariant catalogue. Typed diagnostics, exit 1 on any
/// violation, exit 2 on usage errors; never panics on bad input.
fn run_check(opts: &Opts) {
    let usage =
        "usage: mcgp check <file.graph|gen:...> [<file.part> <k>] [--tol <t>] [--level cheap|full]";
    let mut gfile = None;
    let mut pfile = None;
    let mut k: Option<usize> = None;
    let mut tol = 0.05f64;
    let mut level = mcgp_graph::CheckLevel::Full;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol" => tol = parse_value(flag_value(&mut it, a, usage), a),
            "--level" => {
                let name = flag_value(&mut it, a, usage);
                level = mcgp_graph::CheckLevel::parse(name)
                    .filter(|l| l.enabled())
                    .unwrap_or_else(|| die(format!("unknown check level `{name}` (cheap|full)")));
            }
            other if gfile.is_none() => gfile = Some(other.to_string()),
            other if pfile.is_none() => pfile = Some(other.to_string()),
            other if k.is_none() => k = Some(parse_value(other, "part count <k>")),
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    let Some(gfile) = gfile else { die(usage) };
    check_tol(tol, usage);
    let graph = load_graph(&gfile, 4242);
    if let Err(e) = mcgp_check::check_graph(&graph, level) {
        eprintln!("{gfile}: {e}");
        std::process::exit(1);
    }
    println!(
        "{gfile}: graph ok ({} vertices, {} edges, {} constraint(s), level {level:?})",
        graph.nvtxs(),
        graph.nedges(),
        graph.ncon()
    );
    let Some(pfile) = pfile else { return };
    let Some(k) = k else {
        die(format!(
            "`mcgp check` needs <k> alongside <file.part>\n{usage}"
        ))
    };
    let assignment = std::fs::File::open(&pfile)
        .map_err(mcgp_graph::McgpError::Io)
        .and_then(|f| mcgp_graph::io::read_partition_bounded(f, k))
        .unwrap_or_else(|e| {
            eprintln!("{pfile}: {e}");
            std::process::exit(1);
        });
    if let Err(e) = mcgp_check::check_partition(&graph, &assignment, k, tol, level) {
        eprintln!("{pfile}: {e}");
        std::process::exit(1);
    }
    let part = mcgp_graph::Partition::new(k, assignment).unwrap_or_else(|e| {
        eprintln!("{pfile}: {e}");
        std::process::exit(1);
    });
    let q = mcgp_graph::PartitionQuality::measure(&graph, &part);
    println!(
        "{pfile}: partition ok (k {k}, edge-cut {}, max-imbalance {:.4}, tol {tol})",
        q.edge_cut, q.max_imbalance
    );
}

/// `mcgp fuzz`: the structure-aware input fuzzer as a CLI smoke. Exit 1 if
/// any reader panic escapes; the seed/mutation of every escape is printed
/// for replay.
fn run_fuzz(opts: &Opts) {
    let usage = "usage: mcgp fuzz [--seed <s>] [--cases <n>]";
    let mut seed = 0xF0CCu64;
    let mut cases = 200usize;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = parse_value(flag_value(&mut it, a, usage), a),
            "--cases" => cases = parse_value(flag_value(&mut it, a, usage), a),
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    // Silence the default per-panic backtrace spew while the fuzzer probes;
    // escaped panics are reported below with replay seeds.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = mcgp_check::fuzz::fuzz_run(seed, cases);
    std::panic::set_hook(prev);
    println!(
        "fuzz seed {seed}: {} cases — {} accepted, {} rejected, {} panic(s)",
        report.cases,
        report.accepted,
        report.rejected,
        report.panics.len()
    );
    if !report.clean() {
        for c in &report.panics {
            eprintln!(
                "PANIC: replay with `mcgp fuzz --seed {} --cases 1` (mutation: {}): {}",
                c.seed, c.mutation, c.detail
            );
        }
        std::process::exit(1);
    }
}

fn run_verify(opts: &Opts) {
    let usage = "usage: mcgp verify <file.graph> <file.part>";
    let (Some(gfile), Some(pfile)) = (opts.rest.first(), opts.rest.get(1)) else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    // Generator specs use the `partition` default seed, so a partition of a
    // `gen:` graph verifies against the same graph.
    let graph = load_graph(gfile, 4242);
    // No partition of this graph has more parts than vertices: bounding the
    // ids here keeps a hostile id from sizing the per-part arrays below.
    let assignment = mcgp_graph::io::read_partition_bounded(
        std::fs::File::open(pfile).unwrap_or_else(|e| {
            eprintln!("failed to open {pfile}: {e}");
            std::process::exit(1);
        }),
        graph.nvtxs(),
    )
    .unwrap_or_else(|e| {
        eprintln!("failed to parse {pfile}: {e}");
        std::process::exit(1);
    });
    if assignment.len() != graph.nvtxs() {
        eprintln!(
            "partition length {} does not match graph vertex count {}",
            assignment.len(),
            graph.nvtxs()
        );
        std::process::exit(1);
    }
    let nparts = assignment
        .iter()
        .copied()
        .max()
        .map_or(1, |m| m as usize + 1);
    let part = mcgp_graph::Partition::new(nparts, assignment).unwrap_or_else(|e| {
        eprintln!("invalid partition: {e}");
        std::process::exit(1);
    });
    let q = mcgp_graph::PartitionQuality::measure(&graph, &part);
    println!(
        "parts {}  edge-cut {}  comm-volume {}  boundary {}",
        nparts, q.edge_cut, q.comm_volume, q.boundary
    );
    for (i, imb) in q.imbalances.iter().enumerate() {
        println!("constraint {i}: imbalance {imb:.4}");
    }
    if opts.rest.iter().any(|a| a == "--detailed") {
        println!();
        println!("part  vertices  boundary  neighbors  cut-edges  weights");
        for r in mcgp_graph::metrics::subdomain_reports(&graph, &part) {
            println!(
                "{:>4}  {:>8}  {:>8}  {:>9}  {:>9}  {:?}",
                r.part, r.vertices, r.boundary, r.neighbors, r.cut_edges, r.weights
            );
        }
    }
}

/// `mcgp serve`: the partitioning daemon. Binds, optionally reports the
/// actual address through `--port-file` (scripts bind port 0), installs
/// the SIGINT/SIGTERM latch, and serves until a graceful shutdown.
fn run_serve(opts: &Opts) {
    let usage = "usage: mcgp serve [--addr <host:port>] [--workers <n>] [--cache-mb <mb>] \
                 [--cache-dir <dir>] [--threads <n>] [--timeout-secs <s>] \
                 [--idle-millis <ms>] [--port-file <f>] [--trace <f>] \
                 [--trace-format jsonl|chrome]   (MCGP_THREADS sets the --threads default)";
    let mut config = mcgp_serve::ServeConfig::default();
    // Requests that do not pin `threads=` inherit the daemon default:
    // --threads wins, then the MCGP_THREADS environment, then serial.
    if let Some(n) = std::env::var("MCGP_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
    {
        config.default_threads = n;
    }
    let mut port_file: Option<String> = None;
    let mut trace_file: Option<String> = None;
    let mut trace_format = mcgp_runtime::trace::TraceFormat::Jsonl;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => config.addr = flag_value(&mut it, a, usage).to_string(),
            "--workers" => config.workers = parse_value(flag_value(&mut it, a, usage), a),
            "--cache-mb" => {
                let mb: usize = parse_value(flag_value(&mut it, a, usage), a);
                config.cache_bytes = mb * 1024 * 1024;
            }
            "--cache-dir" => {
                config.cache_dir = Some(std::path::PathBuf::from(flag_value(&mut it, a, usage)));
            }
            "--threads" => config.default_threads = parse_value(flag_value(&mut it, a, usage), a),
            "--timeout-secs" => {
                let secs: u64 = parse_value(flag_value(&mut it, a, usage), a);
                config.io_timeout = std::time::Duration::from_secs(secs.max(1));
            }
            "--idle-millis" => {
                let ms: u64 = parse_value(flag_value(&mut it, a, usage), a);
                config.idle_timeout = std::time::Duration::from_millis(ms.max(1));
            }
            "--port-file" => port_file = Some(flag_value(&mut it, a, usage).to_string()),
            "--trace" => trace_file = Some(flag_value(&mut it, a, usage).to_string()),
            "--trace-format" => {
                let name = flag_value(&mut it, a, usage);
                trace_format = mcgp_runtime::trace::TraceFormat::parse(name)
                    .unwrap_or_else(|| die(format!("unknown trace format `{name}` (jsonl|chrome)")))
            }
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    // Every request without `threads=` would get a 400 otherwise.
    check_threads(config.default_threads, "--threads (or MCGP_THREADS)", usage);
    // One OS thread per worker, spawned after bind.
    check_threads(config.workers, "--workers", usage);
    if trace_file.is_some() {
        mcgp_runtime::trace::set_enabled(true);
    }
    mcgp_serve::signal::install();
    let workers = config.workers;
    let cache_mb = config.cache_bytes / (1024 * 1024);
    let server = mcgp_serve::Server::bind(config).unwrap_or_else(|e| {
        eprintln!("mcgp serve: bind failed: {e}");
        std::process::exit(1);
    });
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| die(format!("local_addr: {e}")));
    if let Some(path) = &port_file {
        std::fs::write(path, addr.to_string()).unwrap_or_else(|e| {
            eprintln!("mcgp serve: cannot write --port-file {path}: {e}");
            std::process::exit(1);
        });
    }
    eprintln!("mcgp serve: listening on {addr} ({workers} workers, {cache_mb} MiB cache)");
    let handle = server.handle();
    server.run().unwrap_or_else(|e| {
        eprintln!("mcgp serve: {e}");
        std::process::exit(1);
    });
    eprintln!("mcgp serve: drained and stopped");
    eprintln!("mcgp serve: final metrics: {}", handle.metrics_json());
    if let Some(path) = &trace_file {
        mcgp_runtime::trace::set_enabled(false);
        let events = handle.take_trace();
        mcgp_runtime::trace::write_trace_file(&events, trace_format, std::path::Path::new(path))
            .unwrap_or_else(|e| {
                eprintln!("failed to write trace {path}: {e}");
                std::process::exit(1);
            });
        eprintln!("wrote {} trace events to {path}", events.len());
    }
}

/// `mcgp serve-request`: a minimal client for scripts and smoke tests.
/// Prints `status:`, the response headers (lower-cased), a blank line,
/// then the body — eliding bulky `part` lines unless `--full` is given.
/// Exits 0 on a 2xx status, 1 otherwise.
fn run_serve_request(opts: &Opts) {
    let usage =
        "usage: mcgp serve-request --addr <host:port> (--get <path> | <file.graph|gen:...> <k>) \
                 [--seed <s>] [--tol <t>] [--threads <t>] [--repeat <n>] [--json] [--full]";
    let mut addr: Option<String> = None;
    let mut get_path: Option<String> = None;
    let mut file: Option<String> = None;
    let mut k: Option<usize> = None;
    let mut seed = 4242u64;
    let mut tol = 0.05f64;
    let mut threads: Option<usize> = None;
    let mut repeat = 1usize;
    let mut as_json = false;
    let mut full = false;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(flag_value(&mut it, a, usage).to_string()),
            "--get" => get_path = Some(flag_value(&mut it, a, usage).to_string()),
            "--seed" => seed = parse_value(flag_value(&mut it, a, usage), a),
            "--tol" => tol = parse_value(flag_value(&mut it, a, usage), a),
            "--threads" => threads = Some(parse_value(flag_value(&mut it, a, usage), a)),
            "--repeat" => repeat = parse_value(flag_value(&mut it, a, usage), a),
            "--json" => as_json = true,
            "--full" => full = true,
            other if file.is_none() => file = Some(other.to_string()),
            other if k.is_none() => k = Some(parse_value(other, "part count <k>")),
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    let Some(addr) = addr else { die(usage) };
    if repeat == 0 {
        die("--repeat must be >= 1");
    }
    check_tol(tol, usage);
    let timeout = Some(std::time::Duration::from_secs(600));
    let (method, target, headers, body): (&str, String, Vec<(String, String)>, Vec<u8>);
    if let Some(path) = get_path {
        (method, target, headers, body) = ("GET", path, Vec::new(), Vec::new());
    } else {
        let (Some(file), Some(k)) = (file, k) else {
            die(usage)
        };
        let graph = load_graph(&file, seed);
        // Leave `threads=` off the wire unless pinned, so the daemon's
        // --threads / MCGP_THREADS default applies.
        let threads_q = threads.map(|t| format!("&threads={t}")).unwrap_or_default();
        let url = format!("/partition?k={k}&tol={tol}&seed={seed}{threads_q}");
        let (post_body, post_headers): (Vec<u8>, Vec<(String, String)>) = if as_json {
            let doc = mcgp_runtime::json::Json::obj([
                (
                    "xadj",
                    mcgp_runtime::json::Json::Arr(
                        graph
                            .xadj()
                            .iter()
                            .map(|&x| mcgp_runtime::json::Json::UInt(x as u64))
                            .collect(),
                    ),
                ),
                (
                    "adjncy",
                    mcgp_runtime::json::Json::Arr(
                        graph
                            .adjncy()
                            .iter()
                            .map(|&x| mcgp_runtime::json::Json::UInt(x as u64))
                            .collect(),
                    ),
                ),
                (
                    "adjwgt",
                    mcgp_runtime::json::Json::Arr(
                        graph
                            .adjwgt()
                            .iter()
                            .map(|&x| mcgp_runtime::json::Json::Int(x))
                            .collect(),
                    ),
                ),
                (
                    "vwgt",
                    mcgp_runtime::json::Json::Arr(
                        graph
                            .vwgt_flat()
                            .iter()
                            .map(|&x| mcgp_runtime::json::Json::Int(x))
                            .collect(),
                    ),
                ),
                ("ncon", mcgp_runtime::json::Json::UInt(graph.ncon() as u64)),
            ])
            .to_string()
            .into_bytes();
            (
                doc,
                vec![("Content-Type".to_string(), "application/json".to_string())],
            )
        } else {
            let mut body = Vec::new();
            mcgp_graph::io::write_metis(&graph, &mut body).unwrap_or_else(|e| {
                eprintln!("failed to serialise {file}: {e}");
                std::process::exit(1);
            });
            (body, Vec::new())
        };
        (method, target, headers, body) = ("POST", url, post_headers, post_body);
    }
    let header_refs: Vec<(&str, &str)> = headers
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_str()))
        .collect();
    fn fail(addr: &str, e: impl std::fmt::Display) -> ! {
        eprintln!("request to {addr} failed: {e}");
        std::process::exit(1);
    }
    // With --repeat, all requests share one keep-alive connection and every
    // response must be byte-identical to the first — the smoke-test teeth
    // behind the determinism-across-reuse contract.
    let resp = if repeat == 1 {
        mcgp_runtime::net::http_request(&addr, method, &target, &header_refs, &body, timeout)
            .unwrap_or_else(|e| fail(&addr, e))
    } else {
        let mut net = mcgp_runtime::net::NetClient::new(&addr, timeout);
        let first = net
            .request_on(method, &target, &header_refs, &body)
            .unwrap_or_else(|e| fail(&addr, e));
        for i in 1..repeat {
            let next = net
                .request_on(method, &target, &header_refs, &body)
                .unwrap_or_else(|e| fail(&addr, e));
            if next.status != first.status || next.body != first.body {
                eprintln!(
                    "repeat {i}: response diverged (status {} vs {}, {} vs {} byte(s))",
                    next.status,
                    first.status,
                    next.body.len(),
                    first.body.len()
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "({repeat} identical response(s) over {} connection(s))",
            net.connects()
        );
        first
    };
    println!("status: {}", resp.status);
    for (name, value) in &resp.headers {
        println!("{name}: {value}");
    }
    println!();
    let mut elided = 0usize;
    for line in resp.text().lines() {
        if !full && line.starts_with("{\"type\":\"part\"") {
            elided += 1;
            continue;
        }
        println!("{line}");
    }
    if elided > 0 {
        eprintln!("({elided} part line(s) elided; pass --full to print them)");
    }
    if resp.status / 100 != 2 {
        std::process::exit(1);
    }
}

/// `mcgp bench serve`: the self-contained load generator. JSONL report on
/// stdout (redirect into `BENCH_serve.json`), progress on stderr.
fn run_bench(opts: &Opts) {
    let usage = "usage: mcgp bench serve [--nvtxs <n>] [--requests <n>] [--clients <n>] \
                 [--cold-every <n>] [--workers <n>] [--small-scale <n>] [--small-requests <n>] \
                 [--profile <f.folded>] [--profile-hz <n>]";
    let mut cfg = mcgp_serve::bench::BenchServeConfig::default();
    let mut which: Option<String> = None;
    let mut profile_file: Option<String> = None;
    let mut profile_hz = 997u32;
    let mut it = opts.rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--nvtxs" => cfg.nvtxs = parse_value(flag_value(&mut it, a, usage), a),
            "--requests" => cfg.requests = parse_value(flag_value(&mut it, a, usage), a),
            "--clients" => cfg.clients = parse_value(flag_value(&mut it, a, usage), a),
            "--cold-every" => cfg.cold_every = parse_value(flag_value(&mut it, a, usage), a),
            "--workers" => cfg.workers = parse_value(flag_value(&mut it, a, usage), a),
            "--small-scale" => cfg.small_scale = parse_value(flag_value(&mut it, a, usage), a),
            "--small-requests" => {
                cfg.small_requests = parse_value(flag_value(&mut it, a, usage), a)
            }
            "--profile" => profile_file = Some(flag_value(&mut it, a, usage).to_string()),
            "--profile-hz" => profile_hz = parse_value(flag_value(&mut it, a, usage), a),
            other if which.is_none() => which = Some(other.to_string()),
            other => die(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    match which.as_deref() {
        Some("serve") => {}
        Some(other) => die(format!(
            "unknown bench target `{other}` (only `serve`)\n{usage}"
        )),
        None => die(usage),
    }
    // One OS thread per client and per daemon worker.
    check_threads(cfg.clients, "--clients", usage);
    check_threads(cfg.workers, "--workers", usage);
    // The load generator runs its daemon in-process, so one profiler
    // session sees both the clients and the server workers.
    let profiler = profile_file
        .as_ref()
        .map(|_| mcgp_runtime::profile::Profiler::start(profile_hz));
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    mcgp_serve::bench::run_serve_bench(&cfg, &mut out).unwrap_or_else(|e| {
        eprintln!("mcgp bench serve: {e}");
        std::process::exit(1);
    });
    if let (Some(path), Some(profiler)) = (&profile_file, profiler) {
        let stacks = profiler.stop();
        let folded = stacks.render();
        if let Err(e) = mcgp_runtime::profile::validate_collapsed(&folded) {
            eprintln!("internal error: profiler produced invalid collapsed output: {e}");
            std::process::exit(1);
        }
        std::fs::write(path, &folded).unwrap_or_else(|e| {
            eprintln!("failed to write profile {path}: {e}");
            std::process::exit(1);
        });
        eprintln!(
            "mcgp bench serve: wrote {} samples over {} stack(s) to {path} (hz {profile_hz})",
            stacks.total_samples(),
            stacks.len()
        );
    }
}
