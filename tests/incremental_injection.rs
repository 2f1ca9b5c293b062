//! Seeded regression test for the incremental oracle's fault-injection
//! plumbing (`FMT_CONFORM_INJECT=incremental`): an injected maintenance
//! divergence must be caught, shrunk (the trace to empty, fuel to 1),
//! written and replayable — see `tests/injection/mod.rs`.
//!
//! This test owns the `FMT_CONFORM_INJECT` process environment variable
//! for its whole body; keep this file to a single test.

mod injection;

#[test]
fn injected_divergence_is_caught_shrunk_written_and_replayable() {
    injection::check_injection("incremental", 11);
}
