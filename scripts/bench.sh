#!/usr/bin/env sh
# Perf trajectory: runs the refinement- and coarsening-heavy bench targets
# plus the `mcgp serve` load test, and writes BENCH_refine.json /
# BENCH_coarsen.json / BENCH_serve.json (one JSONL record per bench:
# median/min/max wall seconds over $SAMPLES samples; serve rows add
# p50/p99 latency and throughput) at the repo root, then validates each
# file's schema with `mcgp bench-check`, and finally runs the
# `mcgp bench-gate` regression gate against the committed baselines
# (non-fatal; GATE=off to skip, GATE=<ratio> to tune).
#
#   SAMPLES=5 scripts/bench.sh          # default 5 samples per bench
#   scripts/bench.sh smoke              # filter benches by substring
set -eu

cd "$(dirname "$0")/.."

SAMPLES="${SAMPLES:-5}"
REFINE_OUT="${REFINE_OUT:-BENCH_refine.json}"
COARSEN_OUT="${COARSEN_OUT:-BENCH_coarsen.json}"
SERVE_OUT="${SERVE_OUT:-BENCH_serve.json}"
# Fresh-vs-committed regression gate tolerance (`mcgp bench-gate`).
# Loose by default: the gate flags order-of-magnitude breakage, the
# committed medians are not lab-grade. GATE=off disables it.
GATE="${GATE:-5.0}"

# Snapshot the committed baselines before the runs below overwrite them,
# so the gate at the end compares fresh numbers against what was there.
BASE_DIR="$(mktemp -d)"
trap 'rm -rf "$BASE_DIR"' EXIT
for f in "$REFINE_OUT" "$COARSEN_OUT" "$SERVE_OUT"; do
    [ -f "$f" ] && cp "$f" "$BASE_DIR/$(basename "$f")"
done

cargo build --release --offline -p mcgp-harness
cargo bench --offline -p mcgp-bench --bench refine_boundary -- \
    --samples "$SAMPLES" "$@" > "$REFINE_OUT"
./target/release/mcgp bench-check "$REFINE_OUT"
echo "bench: wrote $REFINE_OUT"
cargo bench --offline -p mcgp-bench --bench coarsen_smp -- \
    --samples "$SAMPLES" "$@" > "$COARSEN_OUT"
./target/release/mcgp bench-check "$COARSEN_OUT"
echo "bench: wrote $COARSEN_OUT"

# Daemon load test: in-process server, mixed cold/warm client mix. The
# cold/warm split is the hierarchy cache's headline number; the mixed row
# carries throughput (rps). Not filterable — it is one self-contained run.
./target/release/mcgp bench serve > "$SERVE_OUT"
./target/release/mcgp bench-check "$SERVE_OUT"
echo "bench: wrote $SERVE_OUT"

# Regression gate: fresh medians vs the pre-run snapshot of each
# committed baseline. Non-fatal — the files are about to be committed as
# the new baseline and machines differ — but the verdict goes to stderr
# so an accidental order-of-magnitude regression is loud.
if [ "$GATE" != "off" ]; then
    for f in "$REFINE_OUT" "$COARSEN_OUT" "$SERVE_OUT"; do
        base="$BASE_DIR/$(basename "$f")"
        [ -f "$base" ] || continue
        # The coarsening file additionally carries the threads-win rule:
        # its threaded end-to-end partition rows must hold serial speed
        # within the fresh run itself. Unlike the baseline
        # comparison this one is same-host same-run, so it is fatal.
        TW_ARGS=""
        if [ "$f" = "$COARSEN_OUT" ]; then
            TW_ARGS="--threads-win partition/full/"
        fi
        # The serve file carries the rps-win rule: small warm requests over
        # one keep-alive connection must at least double the throughput of
        # a fresh connection per request, within the fresh run itself. Its
        # stage/* rows take 1-10 ms, so its noise floor is 1 ms, not 5 ms:
        # a fingerprint or part-line writer gone 5x slower must fail.
        if [ "$f" = "$SERVE_OUT" ]; then
            TW_ARGS="--rps-win serve_warm_keepalive_rmat9/serve_warm_perconn_rmat9:2.0 --noise-floor-ms 1"
        fi
        # shellcheck disable=SC2086
        if ./target/release/mcgp bench-gate "$base" "$f" \
            --tolerance "$GATE" $TW_ARGS > /dev/null; then
            echo "bench: gate ok for $f (tolerance ${GATE}x)"
        else
            echo "bench: WARNING: $f regressed past ${GATE}x vs committed baseline" >&2
        fi
    done
fi
