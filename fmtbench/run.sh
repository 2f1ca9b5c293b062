#!/usr/bin/env bash
# Builds the fmtk binary and the benchmark from source, then runs one
# benchmark run. Run from the root of a checkout:
#
#   bash fmtbench/run.sh --workload point_query --seed 1 --seconds 35 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# result is the last line of standard output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p fmt-cli >&2
cargo build --release --offline --quiet --manifest-path fmtbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fmtbench" "$@"
