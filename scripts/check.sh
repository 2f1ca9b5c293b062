#!/usr/bin/env bash
# Repo-wide checks: formatting, lints, and the tier-1 build + test gate.
# Run from anywhere; everything executes at the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings; vendored stand-ins excluded, as in the lint policy)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline \
    --exclude proptest --exclude rand --exclude serde --exclude serde_derive

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> fmtbench: its own workspace, so tier-1 never builds or tests it"
cargo test --release --offline --manifest-path fmtbench/Cargo.toml

echo "==> datalog_bench unit tests: tier-1 tests only the root package"
cargo test --release -q -p fmt-bench

echo "==> lint gate: corpus and clean fixtures must pass --deny warnings"
cargo build --release -q -p fmt-cli
FMTK="target/release/fmtk"
"$FMTK" lint --deny warnings tests/lint/clean.fo tests/lint/clean.dl
for case in tests/corpus/*.case; do
    if grep -q '^param: mutant = true$' "$case"; then
        # Mutant stratified cases exist *because* lint rejects their
        # programs (D006/D007); that rejection is the pinned behavior.
        if "$FMTK" lint --deny warnings "$case" > /dev/null 2>&1; then
            echo "mutant case $case unexpectedly lint-clean" >&2
            exit 1
        fi
    else
        "$FMTK" lint --deny warnings "$case"
    fi
done

echo "==> lint gate: every trigger fixture must FAIL under --deny warnings"
for fixture in tests/lint/[FD][0-9][0-9][0-9].*; do
    # F006 only fires when a sentence is expected.
    flags=()
    [[ "$fixture" == *F006* ]] && flags=(--sentence)
    if "$FMTK" lint --deny warnings "${flags[@]}" "$fixture" > /dev/null 2>&1; then
        echo "lint fixture $fixture unexpectedly passed" >&2
        exit 1
    fi
done

echo "==> output-failure exit codes (full device and closed pipe exit 0 or 1, never panic)"
OUT_DIR=target/output-failure
mkdir -p "$OUT_DIR"
# sg on a depth-7 tree prints ~330 KB, well past a pipe buffer, so
# `head -1` closes the pipe while fmtk is still writing.
{
    echo "size: 255"
    for ((i = 0; i < 127; i++)); do
        echo "E($i,$((2 * i + 1)))"
        echo "E($i,$((2 * i + 2)))"
    done
} > "$OUT_DIR/tree.st"
printf 'sg(x, x).\nsg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).\n' > "$OUT_DIR/sg.dl"
set +e
"$FMTK" datalog "$OUT_DIR/tree.st" "$OUT_DIR/sg.dl" > /dev/full 2> /dev/null
full_rc=$?
"$FMTK" datalog "$OUT_DIR/tree.st" "$OUT_DIR/sg.dl" 2> /dev/null | head -1 > /dev/null
pipe_rc=${PIPESTATUS[0]}
set -e
for rc in "$full_rc" "$pipe_rc"; do
    if [[ "$rc" != 0 && "$rc" != 1 ]]; then
        echo "output failure exit codes: /dev/full -> $full_rc, head -1 -> $pipe_rc (want 0 or 1)" >&2
        exit 1
    fi
done

echo "==> conformance smoke hunt (fixed seed, fails on any oracle disagreement)"
mkdir -p target/conform-corpus
"$FMTK" conform --seed 7 --cases 240 --corpus target/conform-corpus

echo "==> budget fault-injection smoke sweep (fixed seed, 240 cases)"
"$FMTK" conform --oracle budget-fault --seed 11 --cases 240

echo "==> incremental trace-equivalence sweep (fixed seed, 240 cases)"
"$FMTK" conform --oracle incremental --seed 13 --cases 240

echo "==> stratified negation sweep (fixed seed, 240 cases)"
"$FMTK" conform --oracle stratified --seed 17 --cases 240

echo "==> magic-sets goal-directed sweep (fixed seed, 240 cases)"
"$FMTK" conform --oracle magic --seed 19 --cases 240

echo "==> datalog gates (scan-comparison ratio, throughput, overhead, incremental, magic pruning, trace attribution)"
cargo build --release -q -p fmt-bench --bin datalog_bench
BENCH_DIR=target/bench-check
mkdir -p "$BENCH_DIR"
{
    echo "size: 512"
    for ((i = 0; i < 511; i++)); do echo "E($i,$((i + 1)))"; done
} > "$BENCH_DIR/tc_path_512.st"
printf 't(x,y) :- e(x,y).\nt(x,z) :- t(x,y), e(y,z).\n' > "$BENCH_DIR/tc.dl"
"$FMTK" --trace "$BENCH_DIR/tc_path_512.trace.json" \
    datalog "$BENCH_DIR/tc_path_512.st" "$BENCH_DIR/tc.dl" > /dev/null
# Runs in $BENCH_DIR, so the BENCH_datalog.json it writes never touches
# the committed one. On a miss the binary respawns itself (up to 5
# processes in all): per-process layout moves hot-loop timings by a few
# percent, but a real regression fails every spawn.
(cd "$BENCH_DIR" && ../release/datalog_bench tc_path_512.trace.json)

if [[ "${RUN_BENCH:-0}" == "1" ]]; then
    echo "==> benches (RUN_BENCH=1)"
    scripts/bench.sh
fi

echo "All checks passed."
