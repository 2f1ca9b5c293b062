//! The lint metering counters live in the process-global `fmt_obs`
//! registry, which any concurrently running test that lints would bump
//! too; keep this file to a single test so it owns its process.

use fmt_lint::{lint_formula_src, lint_program_src, LintConfig};
use fmt_structures::Signature;

#[test]
fn metering_counts_inputs_and_diagnostics() {
    fmt_obs::reset();
    fmt_obs::enable();
    let sig = Signature::graph();
    lint_formula_src(&sig, "exists x. E(y, y)", &LintConfig::default());
    lint_program_src(&sig, "p(x) :- e(x, x).", &LintConfig::default());
    let snap = fmt_obs::snapshot();
    fmt_obs::disable();
    assert_eq!(snap.counter("lint.formulas"), Some(1));
    assert_eq!(snap.counter("lint.programs"), Some(1));
    assert_eq!(snap.counter("lint.diagnostics"), Some(1));
}
