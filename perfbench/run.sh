#!/usr/bin/env bash
# Build the `madpipe` binary and the benchmark from source, then run one
# workload:  bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); cargo's own progress goes to stderr, so the
# last stdout line is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p madpipe-cli >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --madpipe "$CARGO_TARGET_DIR/release/madpipe" \
    --out-dir "$CARGO_TARGET_DIR/perfbench" \
    "$@"
