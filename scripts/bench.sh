#!/usr/bin/env bash
# Performance harness: one datalog_bench run measures every Datalog
# layer, writes BENCH_datalog.json at the repo root and checks every
# Datalog gate; then the criterion smoke benches for the Datalog and
# EF-game engines.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> datalog harness and gates (writes BENCH_datalog.json)"
cargo run --release -p fmt-bench --bin datalog_bench

echo "==> criterion bench: datalog"
cargo bench -p fmt-bench --bench datalog

echo "==> criterion bench: ef_games"
cargo bench -p fmt-bench --bench ef_games

echo "Bench run complete; see BENCH_datalog.json."
