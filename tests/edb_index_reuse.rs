//! EDB hash indexes are built once per relation and shared by every
//! goal prepared on it, and binary relations need none: their one-column
//! probes are served by the structure's adjacency lists. The index
//! counters live in the process-global `fmt_obs` registry, which any
//! concurrently running test that evaluates would bump too; keep this
//! file to a single test so it owns its process.

use fmt_queries::datalog::Program;
use fmt_queries::magic;
use fmt_structures::{builders, Elem, Signature, Structure, StructureBuilder};

/// `(queries.index.builds, queries.index.build_tuples)` spent answering
/// `goal` on `s`, with the answers. `rel` names the EDB relation that
/// preparing the goal must share with `s`.
fn goal_cost(prog: &Program, s: &Structure, rel: &str, goal: &str) -> ((u64, u64), Vec<Vec<Elem>>) {
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
    let r = s.signature().relation(rel).unwrap();
    assert!(
        std::ptr::eq(es.rel(r), s.rel(r)),
        "prepare shares the input's relations"
    );
    let out = mq.program.eval_seminaive_with(&es, 1);
    let after = counters();
    (
        (after.0 - before.0, after.1 - before.1),
        mq.answers(s, &out),
    )
}

/// A labelled path `T(i, i mod 3, i + 1)` on `n` elements: ternary, so it
/// has no adjacency lists.
fn labelled_path(n: u32) -> Structure {
    let sig = Signature::builder().relation("T", 3).finish_arc();
    let t = sig.relation("T").unwrap();
    let mut b = StructureBuilder::new(sig, n);
    for i in 0..n - 1 {
        b.add(t, &[i, i % 3, i + 1]).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn second_goal_builds_no_edb_index() {
    fmt_obs::reset();
    fmt_obs::enable();
    let builds = || {
        fmt_obs::snapshot()
            .counter("queries.index.builds")
            .unwrap_or(0)
    };

    // Ternary `t` with the target bound: the key [2] is no prefix, so
    // the first goal builds `t`'s index on that column; the second goal
    // on the same structure finds it cached, so it builds exactly one
    // index and `|t|` index tuples fewer than the same goal on a fresh
    // copy of the input.
    let s = labelled_path(64);
    let prog = Program::parse(
        s.signature(),
        "tc(x, y) :- t(x, l, y). tc(x, z) :- t(x, l, y), tc(y, z).",
    )
    .unwrap();
    let edges = s.num_tuples() as u64;
    let (first, _) = goal_cost(&prog, &s, "T", "tc(3, y)?");
    let (warm, warm_answers) = goal_cost(&prog, &s, "T", "tc(40, y)?");
    let (cold, cold_answers) = goal_cost(&prog, &labelled_path(64), "T", "tc(40, y)?");

    // Binary `e`: the magic TC rules probe `e(x, y)` with `y` bound,
    // which the structure's in-neighbour lists answer. A first goal on
    // a fresh input therefore builds only what the warm ternary goal
    // builds (the IDB indexes), and `e` has no cached index afterwards:
    // asking for one builds it.
    let path = builders::directed_path(64);
    let tc = Program::transitive_closure();
    let (binary, binary_answers) = goal_cost(&tc, &path, "E", "tc(40, y)?");
    let before = builds();
    path.rel(path.signature().relation("E").unwrap())
        .index(&[1]);
    let e_built = builds() - before;
    fmt_obs::disable();

    assert_eq!(warm_answers, cold_answers);
    assert_eq!(warm_answers.len(), 23);
    assert!(first.1 >= edges, "the first goal indexes t: {first:?}");
    assert_eq!(cold.0 - warm.0, 1, "builds: warm {warm:?}, cold {cold:?}");
    assert_eq!(
        cold.1 - warm.1,
        edges,
        "build tuples: warm {warm:?}, cold {cold:?}"
    );
    assert_eq!(binary_answers, warm_answers);
    assert_eq!(binary, warm, "binary e builds no EDB index");
    assert_eq!(e_built, 1, "no goal cached an index on e");
}
