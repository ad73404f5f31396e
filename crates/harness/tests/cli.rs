//! Integration tests of the `mcgp` command-line binary.

use std::process::Command;

fn mcgp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcgp"))
}

#[test]
fn table1_prints_all_four_graphs() {
    let out = mcgp()
        .args(["table1", "--scale", "256"])
        .output()
        .expect("run mcgp");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for g in ["mrng1", "mrng2", "mrng3", "mrng4"] {
        assert!(stdout.contains(g), "missing {g} in:\n{stdout}");
    }
    assert!(stdout.contains("Table 1"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = mcgp().arg("bogus").output().expect("run mcgp");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn no_command_prints_usage() {
    let out = mcgp().output().expect("run mcgp");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn partition_subcommand_roundtrip() {
    // Write a small multi-constraint graph, partition it via the CLI, and
    // validate the produced .part file.
    let dir = std::env::temp_dir().join("mcgp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("tiny.graph");
    let mesh = mcgp_graph::generators::grid_2d(20, 20);
    let wg = mcgp_graph::synthetic::type1(&mesh, 2, 1);
    mcgp_graph::io::write_metis_file(&wg, &gpath).unwrap();

    let ppath = dir.join("tiny.part");
    let out = mcgp()
        .args([
            "partition",
            gpath.to_str().unwrap(),
            "4",
            "--outfile",
            ppath.to_str().unwrap(),
        ])
        .output()
        .expect("run mcgp partition");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edge-cut"), "{stdout}");

    let assignment = mcgp_graph::io::read_partition(std::fs::File::open(&ppath).unwrap()).unwrap();
    assert_eq!(assignment.len(), 400);
    assert!(assignment.iter().all(|&p| p < 4));
}

#[test]
fn partition_parallel_mode() {
    let dir = std::env::temp_dir().join("mcgp_cli_test_par");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("tiny.graph");
    let mesh = mcgp_graph::generators::grid_2d(16, 16);
    mcgp_graph::io::write_metis_file(&mesh, &gpath).unwrap();
    let out = mcgp()
        .args(["partition", gpath.to_str().unwrap(), "4", "--parallel", "4"])
        .current_dir(&dir)
        .output()
        .expect("run mcgp partition --parallel");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("modeled time"));
}

#[test]
fn partition_rejects_missing_file() {
    let out = mcgp()
        .args(["partition", "/nonexistent/file.graph", "4"])
        .output()
        .expect("run mcgp");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to read"));
}

#[test]
fn partition_rejects_bad_part_and_processor_counts() {
    for (args, needle) in [
        (&["gen:grid:3x3", "0"][..], "got 0"),
        (&["gen:grid:3x3", "20"][..], "got 20"),
        (&["gen:grid:3x3", "4", "--parallel", "0"][..], "--parallel must be at least 1"),
    ] {
        let out = mcgp()
            .arg("partition")
            .args(args)
            .output()
            .expect("run mcgp partition");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn partition_holds_threads_to_the_daemon_range() {
    // A huge thread count used to abort on a multi-gigabyte allocation.
    for bad in ["0", "257", "100000000"] {
        let out = mcgp()
            .args(["partition", "gen:mrng:4000:3", "8", "--threads", bad])
            .output()
            .expect("run mcgp partition");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {bad}: {stderr}");
        assert!(
            stderr.contains(&format!("got {bad}")),
            "--threads {bad}: {stderr}"
        );
        assert!(
            stderr.contains("between 1 and 256"),
            "--threads {bad}: {stderr}"
        );
    }
    let dir = std::env::temp_dir().join("mcgp_cli_threads");
    std::fs::create_dir_all(&dir).unwrap();
    let ppath = dir.join("grid.part");
    let out = mcgp()
        .args([
            "partition",
            "gen:grid:3x3",
            "2",
            "--threads",
            "256",
            "--outfile",
        ])
        .arg(&ppath)
        .output()
        .expect("run mcgp partition");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn tol_outside_the_daemon_range_is_a_usage_error() {
    // A negative, NaN or infinite tolerance used to exit 0 with a
    // partition built on degenerate caps.
    let commands: [&[&str]; 3] = [
        &["partition", "gen:grid:32x32", "8"],
        &["check", "gen:grid:32x32"],
        &["serve-request", "--addr", "127.0.0.1:9", "gen:grid:32x32", "8"],
    ];
    for args in commands {
        for bad in ["-2", "nan", "inf", "-inf", "0", "10"] {
            let out = mcgp()
                .args(args)
                .args(["--tol", bad])
                .output()
                .expect("run mcgp");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?} --tol {bad}: {stderr}");
            assert!(
                stderr.contains("--tol must be finite, 0 < tol < 10, got"),
                "{args:?} --tol {bad}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?} --tol {bad} wrote output");
        }
    }
    let dir = std::env::temp_dir().join("mcgp_cli_tol");
    std::fs::create_dir_all(&dir).unwrap();
    for good in ["0.001", "9.5"] {
        let out = mcgp()
            .args(["partition", "gen:grid:8x8", "4", "--tol", good, "--outfile"])
            .arg(dir.join("grid.part"))
            .output()
            .expect("run mcgp partition");
        assert!(
            out.status.success(),
            "--tol {good}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// Runs `cmd` with piped stderr and returns its exit code and stderr. A
/// process still running after 20 s is killed and fails the test.
fn exit_within_deadline(mut cmd: Command, what: &str) -> (Option<i32>, String) {
    let mut child = cmd
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mcgp");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll mcgp") {
            break status;
        }
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what}: mcgp kept running instead of exiting");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    (status.code(), stderr)
}

#[test]
fn serve_rejects_out_of_range_default_threads_at_startup() {
    for (flag, env) in [(Some("0"), None), (Some("257"), None), (None, Some("100000000"))] {
        let mut cmd = mcgp();
        cmd.args(["serve", "--addr", "127.0.0.1:0"]).env_remove("MCGP_THREADS");
        if let Some(t) = flag {
            cmd.args(["--threads", t]);
        }
        if let Some(t) = env {
            cmd.env("MCGP_THREADS", t);
        }
        let (code, stderr) = exit_within_deadline(cmd, &format!("{flag:?}/{env:?}"));
        let bad = flag.or(env).unwrap();
        assert_eq!(code, Some(2), "{flag:?}/{env:?}: {stderr}");
        assert!(
            stderr.contains(&format!("got {bad}")),
            "{flag:?}/{env:?}: {stderr}"
        );
    }
}

#[test]
fn worker_and_client_counts_are_held_to_the_thread_range() {
    // Each count is one OS thread; 0 workers used to run as 1 under a
    // "0 workers" banner.
    let serve: &[&str] = &["serve", "--addr", "127.0.0.1:0"];
    let bench: &[&str] = &["bench", "serve", "--nvtxs", "2000", "--requests", "4"];
    for (args, flag) in [
        (serve, "--workers"),
        (bench, "--workers"),
        (bench, "--clients"),
    ] {
        for bad in ["0", "257"] {
            let mut cmd = mcgp();
            cmd.args(args).args([flag, bad]).env_remove("MCGP_THREADS");
            let what = format!("{args:?} {flag} {bad}");
            let (code, stderr) = exit_within_deadline(cmd, &what);
            assert_eq!(code, Some(2), "{what}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag} must be between 1 and 256, got {bad}")),
                "{what}: {stderr}"
            );
            assert!(!stderr.contains("listening"), "{what} bound: {stderr}");
        }
    }
}

#[test]
fn verify_subcommand_reports_quality() {
    let dir = std::env::temp_dir().join("mcgp_cli_verify");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("v.graph");
    let ppath = dir.join("v.part");
    let mesh = mcgp_graph::generators::grid_2d(10, 10);
    mcgp_graph::io::write_metis_file(&mesh, &gpath).unwrap();
    let assignment: Vec<u32> = (0..100).map(|v| (v / 50) as u32).collect();
    mcgp_graph::io::write_partition(&assignment, std::fs::File::create(&ppath).unwrap()).unwrap();
    let out = mcgp()
        .args(["verify", gpath.to_str().unwrap(), ppath.to_str().unwrap()])
        .output()
        .expect("run mcgp verify");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("edge-cut 10"), "{stdout}");
    assert!(stdout.contains("imbalance 1.0000"), "{stdout}");
}

#[test]
fn verify_detailed_prints_subdomain_rows() {
    let dir = std::env::temp_dir().join("mcgp_cli_verify_det");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("v.graph");
    let ppath = dir.join("v.part");
    let mesh = mcgp_graph::generators::grid_2d(8, 8);
    mcgp_graph::io::write_metis_file(&mesh, &gpath).unwrap();
    let assignment: Vec<u32> = (0..64).map(|v| (v / 32) as u32).collect();
    mcgp_graph::io::write_partition(&assignment, std::fs::File::create(&ppath).unwrap()).unwrap();
    let out = mcgp()
        .args(["verify", gpath.to_str().unwrap(), ppath.to_str().unwrap(), "--detailed"])
        .output()
        .expect("run mcgp verify --detailed");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("part  vertices"), "{stdout}");
}

#[test]
fn verify_rejects_length_mismatch() {
    let dir = std::env::temp_dir().join("mcgp_cli_verify_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("v.graph");
    let ppath = dir.join("v.part");
    mcgp_graph::io::write_metis_file(&mcgp_graph::generators::grid_2d(4, 4), &gpath).unwrap();
    mcgp_graph::io::write_partition(&[0u32, 1], std::fs::File::create(&ppath).unwrap()).unwrap();
    let out = mcgp()
        .args(["verify", gpath.to_str().unwrap(), ppath.to_str().unwrap()])
        .output()
        .expect("run mcgp verify");
    assert!(!out.status.success());
}

#[test]
fn verify_rejects_huge_part_id_with_line_context() {
    // A part id far beyond the vertex count must be a parse error naming
    // its line, not a per-part allocation sized by the id.
    let dir = std::env::temp_dir().join("mcgp_cli_verify_huge");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("v.graph");
    let ppath = dir.join("v.part");
    mcgp_graph::io::write_metis_file(&mcgp_graph::generators::grid_2d(2, 2), &gpath).unwrap();
    std::fs::write(&ppath, "0\n1\n0\n4000000000\n").unwrap();
    let out = mcgp()
        .args(["verify", gpath.to_str().unwrap(), ppath.to_str().unwrap()])
        .output()
        .expect("run mcgp verify");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 4"), "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");
}

#[test]
fn partition_gen_spec_writes_trace_jsonl_that_validates() {
    let dir = std::env::temp_dir().join("mcgp_cli_trace_jsonl");
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("run.trace.jsonl");
    let ppath = dir.join("run.part");
    let out = mcgp()
        .args([
            "partition",
            "gen:grid:24x24",
            "4",
            "--trace",
            tpath.to_str().unwrap(),
            "--outfile",
            ppath.to_str().unwrap(),
        ])
        .output()
        .expect("run mcgp partition --trace");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&tpath).unwrap();
    assert!(!text.trim().is_empty(), "trace file is empty");
    // Round-trip every line through runtime::json and validate the schema
    // (required keys, monotonic timestamps, balanced spans).
    let n = mcgp_runtime::trace::validate_jsonl(&text).expect("schema-clean JSONL trace");
    assert!(n > 0);
    // Per-level records: a coarsen span and an uncoarsen event with cut and
    // per-constraint imbalance must both be present.
    assert!(text.contains("\"name\":\"coarsen_level\""), "{text}");
    assert!(text.contains("\"name\":\"uncoarsen_level\""), "{text}");
    assert!(text.contains("\"cut\":"), "{text}");
    assert!(text.contains("\"imbalance\":["), "{text}");

    // And `mcgp trace-check` agrees.
    let chk = mcgp()
        .args(["trace-check", tpath.to_str().unwrap()])
        .output()
        .expect("run mcgp trace-check");
    assert!(
        chk.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&chk.stderr)
    );
    assert!(String::from_utf8_lossy(&chk.stdout).contains("ok"));
}

#[test]
fn partition_parallel_writes_chrome_trace_that_validates() {
    let dir = std::env::temp_dir().join("mcgp_cli_trace_chrome");
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("run.trace.json");
    let ppath = dir.join("run.part");
    let out = mcgp()
        .args([
            "partition",
            "gen:mrng:1500:2",
            "8",
            "--parallel",
            "4",
            "--trace",
            tpath.to_str().unwrap(),
            "--trace-format",
            "chrome",
            "--outfile",
            ppath.to_str().unwrap(),
        ])
        .output()
        .expect("run mcgp partition --trace --trace-format chrome");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&tpath).unwrap();
    let n = mcgp_runtime::trace::validate_chrome(&text).expect("schema-clean Chrome trace");
    assert!(n > 0);
    // The parallel pipeline's own events made it into the file.
    assert!(text.contains("match_round"), "{text}");
    assert!(text.contains("uncoarsen_level"), "{text}");

    let chk = mcgp()
        .args(["trace-check", tpath.to_str().unwrap(), "--format", "chrome"])
        .output()
        .expect("run mcgp trace-check --format chrome");
    assert!(
        chk.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&chk.stderr)
    );
}

#[test]
fn trace_check_rejects_garbage() {
    let dir = std::env::temp_dir().join("mcgp_cli_trace_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let tpath = dir.join("bad.jsonl");
    std::fs::write(&tpath, "{\"ts_ns\":5}\nnot json\n").unwrap();
    let out = mcgp()
        .args(["trace-check", tpath.to_str().unwrap()])
        .output()
        .expect("run mcgp trace-check");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid trace"));
}

#[test]
fn bench_check_accepts_good_and_rejects_drifted_records() {
    let dir = std::env::temp_dir().join("mcgp_cli_bench");
    std::fs::create_dir_all(&dir).unwrap();

    let good = dir.join("good.json");
    std::fs::write(
        &good,
        "{\"bench\":\"refine/smoke\",\"samples\":3,\"median_s\":0.2,\"min_s\":0.1,\"max_s\":0.3}\n",
    )
    .unwrap();
    let out = mcgp()
        .args(["bench-check", good.to_str().unwrap()])
        .output()
        .expect("run mcgp bench-check");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("1 bench records"));

    // A record missing a timing field fails, as does an empty file.
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"bench\":\"x\",\"samples\":3,\"median_s\":0.2}\n").unwrap();
    let out = mcgp()
        .args(["bench-check", bad.to_str().unwrap()])
        .output()
        .expect("run mcgp bench-check");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("min_s"));

    let empty = dir.join("empty.json");
    std::fs::write(&empty, "").unwrap();
    let out = mcgp()
        .args(["bench-check", empty.to_str().unwrap()])
        .output()
        .expect("run mcgp bench-check");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no bench records"));
}

#[test]
fn bench_check_rejects_duplicate_names_and_non_finite_samples() {
    // The rules bench-check gained from the gate's parser.
    let dir = std::env::temp_dir().join("mcgp_cli_bench_strict");
    std::fs::create_dir_all(&dir).unwrap();
    let timings = "\"median_s\":0.2,\"min_s\":0.1,\"max_s\":0.3";
    let cases = [
        (
            "dup.json",
            format!(
                "{{\"bench\":\"x\",\"samples\":3,{timings}}}\n\
                 {{\"bench\":\"x\",\"samples\":3,{timings}}}\n"
            ),
            "duplicate bench `x`",
        ),
        (
            "inf.json",
            format!("{{\"bench\":\"x\",\"samples\":1e999,{timings}}}\n"),
            "finite field `samples`",
        ),
    ];
    for (name, body, why) in cases {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        let out = mcgp()
            .args(["bench-check", path.to_str().unwrap()])
            .output()
            .expect("run mcgp bench-check");
        assert!(!out.status.success(), "{name} passed");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(why), "{name}: {stderr}");
    }
}

#[test]
fn check_accepts_known_good_graph_and_partition_pair() {
    let dir = std::env::temp_dir().join("mcgp_cli_check_good");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("g.graph");
    let ppath = dir.join("g.part");
    let mesh = mcgp_graph::generators::grid_2d(12, 12);
    let wg = mcgp_graph::synthetic::type1(&mesh, 2, 7);
    mcgp_graph::io::write_metis_file(&wg, &gpath).unwrap();
    let r = mcgp_core::partition_kway(&wg, 4, &mcgp_core::PartitionConfig::default());
    mcgp_graph::io::write_partition(
        r.partition.assignment(),
        std::fs::File::create(&ppath).unwrap(),
    )
    .unwrap();
    let out = mcgp()
        .args([
            "check",
            gpath.to_str().unwrap(),
            ppath.to_str().unwrap(),
            "4",
            "--tol",
            "0.25",
        ])
        .output()
        .expect("run mcgp check");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("graph ok"), "{stdout}");
    assert!(stdout.contains("partition ok"), "{stdout}");
}

#[test]
fn check_rejects_every_malformed_corpus_entry_without_panicking() {
    let dir = std::env::temp_dir().join("mcgp_cli_check_corpus");
    std::fs::create_dir_all(&dir).unwrap();
    for (i, &(name, text, _expected)) in mcgp_check::corpus::MALFORMED_GRAPHS.iter().enumerate() {
        let gpath = dir.join(format!("bad{i}.graph"));
        std::fs::write(&gpath, text).unwrap();
        let out = mcgp()
            .args(["check", gpath.to_str().unwrap()])
            .output()
            .expect("run mcgp check");
        assert!(
            !out.status.success(),
            "corpus `{name}` was accepted by `mcgp check`"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A readable one-line diagnostic, not a crash.
        assert!(!stderr.trim().is_empty(), "corpus `{name}`: empty stderr");
        assert!(
            !stderr.contains("panicked"),
            "corpus `{name}` panicked:\n{stderr}"
        );
    }
}

#[test]
fn check_rejects_corrupt_partition_with_line_context() {
    let dir = std::env::temp_dir().join("mcgp_cli_check_badpart");
    std::fs::create_dir_all(&dir).unwrap();
    let gpath = dir.join("g.graph");
    let ppath = dir.join("g.part");
    mcgp_graph::io::write_metis_file(&mcgp_graph::generators::grid_2d(4, 4), &gpath).unwrap();
    // Vertex 6's id is >= k: the diagnostic must name line 6.
    std::fs::write(&ppath, "0\n1\n0\n1\n0\n9\n0\n1\n0\n1\n0\n1\n0\n1\n0\n1\n").unwrap();
    let out = mcgp()
        .args(["check", gpath.to_str().unwrap(), ppath.to_str().unwrap(), "2"])
        .output()
        .expect("run mcgp check");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 6"), "{stderr}");
    assert!(stderr.contains("out of range"), "{stderr}");
}

#[test]
fn check_usage_errors_exit_2() {
    let out = mcgp().arg("check").output().expect("run mcgp check");
    assert_eq!(out.status.code(), Some(2));
    let out = mcgp()
        .args(["check", "gen:grid:4x4", "--level", "bogus"])
        .output()
        .expect("run mcgp check");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown check level"));
}

#[test]
fn fuzz_smoke_is_clean_and_deterministic() {
    let run = |args: &[&str]| {
        let out = mcgp().args(args).output().expect("run mcgp fuzz");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let a = run(&["fuzz", "--seed", "7", "--cases", "60"]);
    let b = run(&["fuzz", "--seed", "7", "--cases", "60"]);
    assert_eq!(a, b, "fuzz run is not deterministic");
    assert!(a.contains("0 panic(s)"), "{a}");
}
