#!/usr/bin/env bash
# Builds the `mcgp` CLI (the daemon the serve workloads drive) and the
# benchmark, then runs the benchmark with the given arguments. Run it from
# the repository root:
#
#   bash mcgp-benchmark/run.sh --workload mesh_k16 --seed 1 --seconds 15 --trace 0
#   bash mcgp-benchmark/run.sh compare a.jsonl b.jsonl
#
# Both builds share one target directory, `$CARGO_TARGET_DIR` or
# `.bench_build`, so the benchmark finds `mcgp` next to its own executable.
set -euo pipefail
bench_dir="$(dirname "${BASH_SOURCE[0]}")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --workspace --bin mcgp
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/mcgp-benchmark" "$@"
