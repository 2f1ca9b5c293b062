//! Seeded regression test for the budget fault-injection plumbing
//! (`FMT_CONFORM_INJECT=budget-fault`): an injected panic inside the
//! budgeted engine runs must be caught, shrunk, written and replayable
//! (see `tests/injection/mod.rs`), and a corpus that cannot be written
//! must surface as a structured error.
//!
//! This test owns the [`INJECT_ENV`] process environment variable for
//! its whole body; keep this file to a single test.

mod injection;

use fmt_conform::oracle::INJECT_ENV;
use fmt_conform::{RunConfig, RunError};

#[test]
fn injected_panic_is_caught_shrunk_written_and_replayable() {
    injection::check_injection("budget-fault", 7);

    // The runner reports corpus-write problems as a structured
    // `RunError::Other` — not a panic, not a silent drop. Point the
    // corpus at a plain file and force a write by re-arming the fault.
    let file_not_dir = injection::scratch_path("not-a-dir");
    std::fs::write(&file_not_dir, b"occupied").unwrap();
    std::env::set_var(INJECT_ENV, "budget-fault");
    let err = fmt_conform::run(&RunConfig {
        seed: 7,
        cases: 1,
        oracle: Some("budget-fault".to_owned()),
        corpus_dir: Some(file_not_dir.clone()),
        ..RunConfig::default()
    });
    std::env::remove_var(INJECT_ENV);
    match err {
        Err(RunError::Other(msg)) => assert!(msg.contains("writing"), "{msg}"),
        other => panic!("expected a corpus-write error, got {other:?}"),
    }
    let _ = std::fs::remove_file(&file_not_dir);
}
