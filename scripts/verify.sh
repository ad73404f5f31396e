#!/usr/bin/env sh
# Tier-1 verification: the workspace must build and test hermetically —
# no network, no registry, no external crates (see DESIGN.md, "Hermetic
# runtime"). Run from anywhere; operates on the repo this script lives in.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings
# Formatting: the workspace is rustfmt-clean, so a whole-crate `cargo fmt`
# in a later change rewrites only what that change touched.
cargo fmt --all -- --check
# Unsafe surface: outside the test directories, `unsafe` code lives only in
# the prefetch hint (mcgp-runtime) and the SIGTERM latch (mcgp-serve).
UNSAFE_HITS="$(grep -rnw --include='*.rs' unsafe crates/*/src crates/*/benches src examples \
    | grep -v '^[^:]*:[0-9]*: *//' \
    | grep -v '^crates/runtime/src/prefetch\.rs:\|^crates/serve/src/signal\.rs:' || true)"
if [ -n "$UNSAFE_HITS" ]; then
    echo "verify: unsafe code outside the two allowed files:" >&2
    echo "$UNSAFE_HITS" >&2
    exit 1
fi
# The benchmark is its own workspace and calls core internals directly:
# build and test it here so a signature change fails verify, not the first
# benchmark run. It shares the workspace's target directory.
CARGO_TARGET_DIR=target cargo test -q --release --offline \
    --manifest-path mcgp-benchmark/Cargo.toml

# Observability smoke test: partition a generator graph with tracing on and
# validate the trace file (non-empty, schema-clean, balanced spans).
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
./target/release/mcgp partition gen:grid:32x32 8 \
    --trace "$TRACE_DIR/smoke.trace.jsonl" \
    --outfile "$TRACE_DIR/smoke.part"
test -s "$TRACE_DIR/smoke.trace.jsonl"
./target/release/mcgp trace-check "$TRACE_DIR/smoke.trace.jsonl"
./target/release/mcgp partition gen:grid:32x32 8 --parallel 4 \
    --trace "$TRACE_DIR/smoke.trace.json" --trace-format chrome \
    --outfile "$TRACE_DIR/smoke.part"
./target/release/mcgp trace-check "$TRACE_DIR/smoke.trace.json" --format chrome

# Profiler smoke: a profiled run must produce a valid non-empty collapsed
# file and a partition byte-identical to the unprofiled run — the span
# profiler is a pure observer (DESIGN.md, "Observability v2").
./target/release/mcgp partition gen:mrng:60000:3 8 \
    --profile "$TRACE_DIR/smoke.folded" --profile-hz 4000 \
    --outfile "$TRACE_DIR/prof.part" > /dev/null
test -s "$TRACE_DIR/smoke.folded"
./target/release/mcgp trace-check "$TRACE_DIR/smoke.folded" --format folded
grep -q "partition_kway" "$TRACE_DIR/smoke.folded"
# The k-way layers keep their span names in release builds: the refiner
# call shows up in the samples, and the release trace above records the
# projection (a pass too short to be sampled reliably).
grep -q ";kway_refine" "$TRACE_DIR/smoke.folded"
grep -q '"name":"project"' "$TRACE_DIR/smoke.trace.jsonl"
./target/release/mcgp partition gen:mrng:60000:3 8 \
    --outfile "$TRACE_DIR/noprof.part" > /dev/null
cmp "$TRACE_DIR/prof.part" "$TRACE_DIR/noprof.part"
./target/release/mcgp partition gen:mrng:60000:3 8 --threads 4 \
    --profile "$TRACE_DIR/smoke_t4.folded" --profile-hz 4000 \
    --outfile "$TRACE_DIR/prof_t4.part" > /dev/null
# Format inference: a collapsed file is neither '[' nor '{'.
./target/release/mcgp trace-check "$TRACE_DIR/smoke_t4.folded"
# The profiler must be a pure observer on the threaded pipeline too: the
# t=4 partition with sampling on is byte-identical to the one without.
./target/release/mcgp partition gen:mrng:60000:3 8 --threads 4 \
    --outfile "$TRACE_DIR/noprof_t4.part" > /dev/null
cmp "$TRACE_DIR/prof_t4.part" "$TRACE_DIR/noprof_t4.part"
# The threaded pipeline runs recursive bisection's halves as pool tasks
# and refines with the serial sweep's passes. A trace records every span,
# so this check is deterministic where profile samples are not.
./target/release/mcgp partition gen:mrng:60000:3 8 --threads 2 \
    --trace "$TRACE_DIR/smoke_t2.trace.jsonl" \
    --outfile "$TRACE_DIR/trace_t2.part" > /dev/null
./target/release/mcgp trace-check "$TRACE_DIR/smoke_t2.trace.jsonl"
grep -q '"name":"rb"' "$TRACE_DIR/smoke_t2.trace.jsonl"
grep -q '"name":"refine_pass"' "$TRACE_DIR/smoke_t2.trace.jsonl"

# Bench-gate smoke: the gate must pass comparing a committed baseline to
# itself — including the threads-win rule over the committed threaded
# rows, which time the same partition as their t=1 sibling (the committed
# file must show t>1 holding serial speed) — and
# exit non-zero when an order-of-magnitude regression is injected into
# every median.
./target/release/mcgp bench-gate BENCH_coarsen.json BENCH_coarsen.json \
    --threads-win partition/full/ > /dev/null
# The committed serve baseline must hold the keep-alive throughput win:
# one reused connection at least doubles per-connection request rate.
./target/release/mcgp bench-gate BENCH_serve.json BENCH_serve.json \
    --rps-win serve_warm_keepalive_rmat9/serve_warm_perconn_rmat9:2.0 > /dev/null
# Every timing gets the same prefix, so `min_s <= median_s <= max_s` still
# holds and the gate must answer with its regression exit (1), not a schema
# error (2).
sed 's/"\(median\|min\|max\)_s":/"\1_s":9/g' BENCH_coarsen.json > "$TRACE_DIR/regressed.json"
gate_status=0
./target/release/mcgp bench-gate BENCH_coarsen.json "$TRACE_DIR/regressed.json" \
    > /dev/null 2>&1 || gate_status=$?
if [ "$gate_status" -ne 1 ]; then
    echo "verify: bench-gate exited $gate_status on an injected 10x regression (want 1)" >&2
    exit 1
fi

# Bench smoke test: run the small refinement and coarsening benches and
# fail on any drift in the JSONL result format (`mcgp bench-check`
# validates every record).
cargo bench --offline -p mcgp-bench --bench refine_boundary -- \
    --samples 3 smoke > "$TRACE_DIR/bench_smoke.json"
test -s "$TRACE_DIR/bench_smoke.json"
./target/release/mcgp bench-check "$TRACE_DIR/bench_smoke.json"
cargo bench --offline -p mcgp-bench --bench coarsen_smp -- \
    --samples 3 smoke > "$TRACE_DIR/bench_coarsen_smoke.json"
test -s "$TRACE_DIR/bench_coarsen_smoke.json"
./target/release/mcgp bench-check "$TRACE_DIR/bench_coarsen_smoke.json"

# Threaded-pipeline smoke: the same (seed, threads) pair must reproduce
# byte-identical partitions across repeated CLI runs, and every thread
# count must give the same partition as T = 1.
for T in 1 2 4 8; do
    ./target/release/mcgp partition gen:mrng:4000:3 8 --threads "$T" \
        --outfile "$TRACE_DIR/smp_a_t$T.part" > /dev/null
    ./target/release/mcgp partition gen:mrng:4000:3 8 --threads "$T" \
        --outfile "$TRACE_DIR/smp_b.part" > /dev/null
    cmp "$TRACE_DIR/smp_a_t$T.part" "$TRACE_DIR/smp_b.part"
done
for T in 2 4 8; do
    cmp "$TRACE_DIR/smp_a_t1.part" "$TRACE_DIR/smp_a_t$T.part"
done

# Correctness smoke tests (see DESIGN.md, "Validation & differential
# testing"). The `checked` profile is release + debug-assertions, so the
# full differential acceptance grid runs at release speed with every
# CheckLevel seam validator live.
MCGP_DIFF_FULL=1 MCGP_CHECK=full \
    cargo test -q --offline --profile checked -p mcgp-check
# Structure-aware fuzz smoke with a fixed seed budget: the METIS readers
# and the JSON-CSR decoder must reject corrupted inputs with typed errors,
# never panic.
./target/release/mcgp fuzz --seed 3405691582 --cases 400
# `mcgp check` end-to-end: a known-good (graph, partition) pair validates,
# a corrupted partition is rejected with a diagnostic and non-zero exit.
./target/release/mcgp partition gen:mrng:2000:3 8 \
    --outfile "$TRACE_DIR/smoke3.part" > /dev/null
./target/release/mcgp check gen:mrng:2000:3 "$TRACE_DIR/smoke3.part" 8 --tol 0.25
sed '1s/.*/9999/' "$TRACE_DIR/smoke3.part" > "$TRACE_DIR/smoke3.bad.part"
if ./target/release/mcgp check gen:mrng:2000:3 "$TRACE_DIR/smoke3.bad.part" 8 \
    > /dev/null 2>&1; then
    echo "verify: mcgp check accepted a corrupted partition" >&2
    exit 1
fi
# Kept quality: a partition call reads its cut, communication volume and
# boundary size off the refiner's connectivity rows and its imbalances
# off the carried part weights; `MCGP_CHECK=full` recounts them from the
# graph and panics on a difference. Run it on a skewed-degree graph with
# isolated vertices, in the checked profile (debug assertions on).
MCGP_CHECK=full cargo run -q --offline --profile checked -p mcgp-harness \
    --bin mcgp -- partition gen:rmat:12 16 \
    --outfile "$TRACE_DIR/rmat_full.part" > /dev/null
# Recursive bisection of these R-MAT graphs once left a half with fewer
# vertices than parts, so a subdomain came out empty at the initial seam.
for SPEC in "gen:rmat:10 16" "gen:rmat:12 64"; do
    # shellcheck disable=SC2086 # SPEC holds the graph and the part count
    MCGP_CHECK=full cargo run -q --offline --profile checked -p mcgp-harness \
        --bin mcgp -- partition $SPEC --seed 1 \
        --outfile "$TRACE_DIR/rmat_full.part" > /dev/null
done
# A generator spec outside its documented range is a usage error (exit
# 2), not a panic.
gen_status=0
./target/release/mcgp partition gen:mrng:3 4 > /dev/null 2>&1 || gen_status=$?
if [ "$gen_status" -ne 2 ]; then
    echo "verify: an out-of-range gen: spec exited $gen_status (want 2)" >&2
    exit 1
fi
# Serve smoke: daemon on an ephemeral port, one cold + one warm request.
# The warm request must hit the hierarchy cache and skip coarsening
# entirely (X-Mcgp-Coarsen-Us: 0), and SIGTERM must drain cleanly.
rm -f "$TRACE_DIR/serve.port"
./target/release/mcgp serve --addr 127.0.0.1:0 --workers 2 \
    --port-file "$TRACE_DIR/serve.port" 2> "$TRACE_DIR/serve.log" &
SERVE_PID=$!
i=0
while [ ! -s "$TRACE_DIR/serve.port" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "verify: mcgp serve never wrote its port file" >&2
        cat "$TRACE_DIR/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
SERVE_ADDR="$(cat "$TRACE_DIR/serve.port")"
./target/release/mcgp serve-request --addr "$SERVE_ADDR" gen:mrng:2000 4 \
    > "$TRACE_DIR/serve_cold.txt"
grep -q "^x-mcgp-cache: miss$" "$TRACE_DIR/serve_cold.txt"
# Same graph bytes + seed, different k: must reuse the cached hierarchy.
./target/release/mcgp serve-request --addr "$SERVE_ADDR" gen:mrng:2000 8 \
    > "$TRACE_DIR/serve_warm.txt"
grep -q "^x-mcgp-cache: hit$" "$TRACE_DIR/serve_warm.txt"
grep -q "^x-mcgp-coarsen-us: 0$" "$TRACE_DIR/serve_warm.txt"
# Prometheus exposition: negotiated via the query parameter, and the
# windowed quantile gauges must be present.
./target/release/mcgp serve-request --addr "$SERVE_ADDR" \
    --get "/metrics?format=prom" > "$TRACE_DIR/serve_prom.txt"
grep -q "^# TYPE mcgp_requests_total counter$" "$TRACE_DIR/serve_prom.txt"
grep -q "mcgp_request_latency_window_seconds{quantile=\"0.99\"}" \
    "$TRACE_DIR/serve_prom.txt"
grep -q "mcgp_cache_hit_ratio" "$TRACE_DIR/serve_prom.txt"
# Identical request twice: served bytes must be deterministic.
./target/release/mcgp serve-request --addr "$SERVE_ADDR" gen:mrng:2000 8 --full \
    > "$TRACE_DIR/serve_rep_a.txt"
./target/release/mcgp serve-request --addr "$SERVE_ADDR" gen:mrng:2000 8 --full \
    > "$TRACE_DIR/serve_rep_b.txt"
grep -v "^x-mcgp-trace-id\|^x-mcgp-total-us" "$TRACE_DIR/serve_rep_a.txt" \
    > "$TRACE_DIR/serve_rep_a.stable"
grep -v "^x-mcgp-trace-id\|^x-mcgp-total-us" "$TRACE_DIR/serve_rep_b.txt" \
    > "$TRACE_DIR/serve_rep_b.stable"
cmp "$TRACE_DIR/serve_rep_a.stable" "$TRACE_DIR/serve_rep_b.stable"
# Keep-alive: eight requests pipelined over ONE reused connection must
# all be byte-identical. serve-request --repeat asserts the stability
# itself and reports the connection count on stderr.
./target/release/mcgp serve-request --addr "$SERVE_ADDR" gen:mrng:2000 8 \
    --repeat 8 > /dev/null 2> "$TRACE_DIR/serve_repeat.log"
grep -q "8 identical response(s) over 1 connection(s)" "$TRACE_DIR/serve_repeat.log"
kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
    echo "verify: mcgp serve did not drain cleanly on SIGTERM" >&2
    cat "$TRACE_DIR/serve.log" >&2
    exit 1
fi
grep -q "drained and stopped" "$TRACE_DIR/serve.log"

# Warm-restart smoke: a daemon with --cache-dir spills its hierarchies on
# drain; a fresh daemon over the same directory must answer its FIRST
# request from disk with zero coarsening work.
wait_serve_port() {
    i=0
    while [ ! -s "$1" ]; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "verify: mcgp serve never wrote its port file" >&2
            cat "$2" >&2
            exit 1
        fi
        sleep 0.1
    done
}
mkdir -p "$TRACE_DIR/serve_cache"
rm -f "$TRACE_DIR/serve2.port"
./target/release/mcgp serve --addr 127.0.0.1:0 --workers 2 \
    --cache-dir "$TRACE_DIR/serve_cache" \
    --port-file "$TRACE_DIR/serve2.port" 2> "$TRACE_DIR/serve2.log" &
SERVE_PID=$!
wait_serve_port "$TRACE_DIR/serve2.port" "$TRACE_DIR/serve2.log"
./target/release/mcgp serve-request --addr "$(cat "$TRACE_DIR/serve2.port")" \
    gen:mrng:2000 4 > "$TRACE_DIR/serve_spill_cold.txt"
grep -q "^x-mcgp-cache: miss$" "$TRACE_DIR/serve_spill_cold.txt"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { cat "$TRACE_DIR/serve2.log" >&2; exit 1; }
ls "$TRACE_DIR/serve_cache"/*.snap > /dev/null
rm -f "$TRACE_DIR/serve3.port"
./target/release/mcgp serve --addr 127.0.0.1:0 --workers 2 \
    --cache-dir "$TRACE_DIR/serve_cache" \
    --port-file "$TRACE_DIR/serve3.port" 2> "$TRACE_DIR/serve3.log" &
SERVE_PID=$!
wait_serve_port "$TRACE_DIR/serve3.port" "$TRACE_DIR/serve3.log"
./target/release/mcgp serve-request --addr "$(cat "$TRACE_DIR/serve3.port")" \
    gen:mrng:2000 4 > "$TRACE_DIR/serve_spill_warm.txt"
grep -q "^x-mcgp-cache: disk$" "$TRACE_DIR/serve_spill_warm.txt"
grep -q "^x-mcgp-coarsen-us: 0$" "$TRACE_DIR/serve_spill_warm.txt"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { cat "$TRACE_DIR/serve3.log" >&2; exit 1; }

echo "verify: OK"
