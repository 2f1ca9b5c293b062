//! EDB hash indexes are built once per relation and shared by every
//! goal prepared on it. The index counters live in the process-global
//! `fmt_obs` registry, which any concurrently running test that
//! evaluates would bump too; keep this file to a single test so it owns
//! its process.

use fmt_queries::datalog::Program;
use fmt_queries::magic;
use fmt_structures::{builders, Elem, Structure};

/// `(queries.index.builds, queries.index.build_tuples)` spent answering
/// `goal` on `s`, with the answers.
fn goal_cost(prog: &Program, s: &Structure, goal: &str) -> ((u64, u64), Vec<Vec<Elem>>) {
    let counters = || {
        let snap = fmt_obs::snapshot();
        let get = |name| snap.counter(name).unwrap_or(0);
        (
            get("queries.index.builds"),
            get("queries.index.build_tuples"),
        )
    };
    let mq = magic::rewrite(prog, &magic::parse_goal(goal).unwrap()).unwrap();
    assert!(!mq.transparent, "{goal} must rewrite");
    let before = counters();
    let es = mq.prepare(s);
    let e = s.signature().relation("E").unwrap();
    assert!(
        std::ptr::eq(es.rel(e), s.rel(e)),
        "prepare shares the input's relations"
    );
    let out = mq.program.eval_seminaive_with(&es, 1);
    let after = counters();
    (
        (after.0 - before.0, after.1 - before.1),
        mq.answers(s, &out),
    )
}

#[test]
fn second_goal_builds_no_edb_index() {
    fmt_obs::reset();
    fmt_obs::enable();
    let prog = Program::transitive_closure();
    let s = builders::directed_path(64);
    let edges = s.num_tuples() as u64;

    // The first goal builds `e`'s index on its second column (the
    // magic TC rules probe `e(x, y)` with `y` bound); the second goal
    // on the same structure finds it cached, so it builds exactly one
    // index and `|e|` index tuples fewer than the same goal on a
    // fresh copy of the input.
    let (first, _) = goal_cost(&prog, &s, "tc(3, y)?");
    let (warm, warm_answers) = goal_cost(&prog, &s, "tc(40, y)?");
    let (cold, cold_answers) = goal_cost(&prog, &builders::directed_path(64), "tc(40, y)?");
    fmt_obs::disable();

    assert_eq!(warm_answers, cold_answers);
    assert_eq!(warm_answers.len(), 23);
    assert!(first.1 >= edges, "the first goal indexes e: {first:?}");
    assert_eq!(cold.0 - warm.0, 1, "builds: warm {warm:?}, cold {cold:?}");
    assert_eq!(
        cold.1 - warm.1,
        edges,
        "build tuples: warm {warm:?}, cold {cold:?}"
    );
}
