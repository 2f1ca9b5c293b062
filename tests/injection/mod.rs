//! Shared body of the seeded fault-injection regression tests for the
//! four oracles that [`fmt_conform::oracle::INJECT_ENV`] can arm
//! (`budget-fault`, `incremental`, `stratified`, `magic`): an injected
//! fault must be *caught* by its oracle, *shrunk*, *written* to a corpus
//! directory, and the written case must replay — reproducing while the
//! fault is armed, clean once it is cured.
//!
//! Each `tests/*_injection.rs` file arms one oracle through
//! [`check_injection`]. A test owns the `INJECT_ENV` process environment
//! variable for its whole body; keep each of those files to a single
//! test so no concurrently running test observes an armed fault.

use fmt_conform::gen::UpdateTrace;
use fmt_conform::oracle::INJECT_ENV;
use fmt_conform::{ReproCase, RunConfig};
use std::path::PathBuf;

pub fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fmt-{tag}-{}", std::process::id()))
}

/// The oracle-specific half of the check on one written case: what the
/// shrinker must have reduced, and what the case must record.
fn check_shrunk(case: &ReproCase) {
    match case.oracle.as_str() {
        "budget-fault" => {
            assert!(case.note.contains("panicked"), "note: {}", case.note);
            let s = case.structure("A").unwrap();
            assert_eq!(s.size(), 0, "unconditional fault must shrink to size 0");
        }
        "incremental" => {
            let domain = case.param_u64("domain").unwrap() as u32;
            let trace = UpdateTrace::parse_compact(domain, case.param("trace").unwrap()).unwrap();
            assert!(
                trace.ops.is_empty(),
                "unconditional fault must shrink the trace empty, got {:?}",
                trace.ops
            );
        }
        "stratified" => assert!(case.param("program").is_some(), "case records its program"),
        "magic" => {
            assert!(case.param("program").is_some(), "case records its program");
            assert!(case.param("goal").is_some(), "case records its goal");
        }
        other => panic!("unexpected oracle {other}"),
    }
    if case.oracle != "budget-fault" {
        assert!(case.note.contains("injected"), "note: {}", case.note);
    }
    // An unconditional fault reproduces at the guard minimum, fuel 1.
    assert_eq!(case.param_u64("fuel").unwrap(), 1, "fuel must shrink to 1");
}

/// Arms `oracle`'s injected fault, hunts two cases from `seed`, and
/// checks that both are caught, shrunk, written and replayable; leaves
/// the fault disarmed.
pub fn check_injection(oracle: &str, seed: u64) {
    let corpus = scratch_path(&format!("{oracle}-corpus"));
    let _ = std::fs::remove_dir_all(&corpus);
    std::env::set_var(INJECT_ENV, oracle);

    // With the fault armed every check of the oracle fails, so each
    // hunted case must be caught (through catch_unwind for a panic, not
    // by taking the harness down) and serialized.
    let report = fmt_conform::run(&RunConfig {
        seed,
        cases: 2,
        oracle: Some(oracle.to_owned()),
        corpus_dir: Some(corpus.clone()),
        ..RunConfig::default()
    })
    .unwrap_or_else(|e| panic!("{oracle}: the hunt itself must survive an injected fault: {e}"));
    assert!(!report.clean(), "{oracle}: armed fault must be caught");
    assert_eq!(
        report.written.len(),
        2,
        "{oracle}: every caught failure must be written to the corpus"
    );
    for path in &report.written {
        let text = std::fs::read_to_string(path).unwrap();
        let case = ReproCase::from_text(&text).expect("written cases parse back");
        assert_eq!(case.oracle, oracle);
        check_shrunk(&case);
        // Still armed: the written case reproduces.
        fmt_conform::runner::replay_text(&text).expect_err("armed fault must reproduce on replay");
    }

    // Cure the fault: the same files now replay clean — exactly what
    // `tests/conform_corpus.rs` asserts for the committed corpus.
    std::env::remove_var(INJECT_ENV);
    for path in &report.written {
        let text = std::fs::read_to_string(path).unwrap();
        fmt_conform::runner::replay_text(&text)
            .unwrap_or_else(|e| panic!("{}: cured case must replay clean: {e}", path.display()));
    }
    let _ = std::fs::remove_dir_all(&corpus);
}
