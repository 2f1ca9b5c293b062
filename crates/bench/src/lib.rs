//! # fmt-bench
//!
//! Criterion benchmark harness for the toolbox, one bench target per
//! performance-shaped experiment of DESIGN.md §5:
//!
//! | bench | experiment | claim measured |
//! |---|---|---|
//! | `combined_complexity` | E1 | naive evaluation exponential in rank, polynomial in data |
//! | `ac0_circuits` | E2 | circuit compile/eval cost polynomial; depth constant |
//! | `ef_games` | E3/E16 | game solving cost; ablation of memoization/pruning |
//! | `locality` | E6/E8/E9 | neighborhood census, Hanf checks, violation search |
//! | `datalog` | E7 | naive vs semi-naive fixpoint evaluation |
//! | `bounded_degree` | E10 | census pass linear vs textbook superlinear |
//! | `zero_one` | E13/E14 | sampling, μ estimation, symbolic 0-1 decision |
//!
//! Run all with `cargo bench`, or one with e.g.
//! `cargo bench --bench ef_games`.
//!
//! The one binary, `datalog_bench`, is E7's perf harness: it measures
//! every Datalog layer, writes `BENCH_datalog.json` and checks every
//! Datalog gate against pinned baselines in one process.

/// Shared helper: a small deterministic RNG seed used across benches so
/// runs are comparable.
pub const BENCH_SEED: u64 = 0x2009_0629;
