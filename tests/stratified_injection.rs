//! Seeded regression test for the stratified oracle's fault-injection
//! plumbing (`FMT_CONFORM_INJECT=stratified`): an injected
//! stratification-coherence failure must be caught, shrunk (fuel to 1),
//! written with its program and replayable — see
//! `tests/injection/mod.rs`.
//!
//! This test owns the `FMT_CONFORM_INJECT` process environment variable
//! for its whole body; keep this file to a single test.

mod injection;

#[test]
fn injected_stratification_bug_is_caught_shrunk_written_and_replayable() {
    injection::check_injection("stratified", 7);
}
