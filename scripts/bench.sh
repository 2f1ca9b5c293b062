#!/usr/bin/env bash
# Performance harness: one datalog_bench run measures every Datalog
# layer, writes BENCH_datalog.json at the repo root and checks every
# Datalog gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> datalog harness and gates (writes BENCH_datalog.json)"
cargo run --release -p fmt-bench --bin datalog_bench

echo "Bench run complete; see BENCH_datalog.json."
