//! Property-based tests of the incremental Datalog runtime: random
//! shrinkable update traces replayed through `DatalogRuntime` must
//! agree with from-scratch semi-naive recomputation at every poll, at
//! one and at three worker threads. Failures are minimized with the
//! conformance harness's [`Shrinkable`] machinery before reporting, so
//! a red run prints a near-minimal trace ready to paste into a repro
//! case.

use fmt_conform::gen::{UpdateOp, UpdateTrace};
use fmt_conform::shrink::minimize;
use fmt_core::queries::datalog::Program;
use fmt_core::queries::incremental::DatalogRuntime;
use fmt_core::structures::{Elem, Signature, StructureBuilder};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Programs spanning the shapes the runtime must maintain: linear
/// recursion, a bodiless rule with repeated head variables (never
/// drains), and the conformance anchor mix of binary/unary/nullary
/// IDBs with an unbound head variable.
const PROGRAMS: [&str; 3] = [
    "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z).",
    "sg(x, x). sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).",
    "p(x, y) :- e(x, y). q(x) :- e(x, x). hit :- e(x, y). p(x, z) :- p(x, y), p(y, z). q(w) :- hit, e(x, x).",
];

/// From-scratch reference on the trace's current fact set.
fn scratch(prog: &Program, domain: u32, facts: &BTreeSet<(u32, u32)>) -> Vec<Vec<Vec<Elem>>> {
    let e = prog.signature().relation("E").unwrap();
    let mut b = StructureBuilder::new(prog.signature().clone(), domain);
    for &(u, v) in facts {
        b.add(e, &[u, v]).unwrap();
    }
    let out = prog.eval_seminaive(&b.build().unwrap());
    (0..prog.num_idbs())
        .map(|i| {
            let mut rows: Vec<Vec<Elem>> = out.relation(i).iter().collect();
            rows.sort();
            rows
        })
        .collect()
}

/// Replays `trace` at 1 and 3 threads, comparing every poll against
/// scratch; `Some(note)` on the first divergence.
fn divergence(src: &str, trace: &UpdateTrace) -> Option<String> {
    let sig = Signature::graph();
    let prog = Program::parse(&sig, src).expect("test programs parse");
    let e = sig.relation("E").unwrap();
    let mut facts: BTreeSet<(u32, u32)> = BTreeSet::new();
    let mut rt1 = DatalogRuntime::new(prog.clone(), trace.domain).expect("negation-free");
    let mut rt3 = DatalogRuntime::new(prog.clone(), trace.domain).expect("negation-free");
    rt3.set_threads(3);
    for (step, op) in trace.ops.iter().enumerate() {
        match *op {
            UpdateOp::Insert(u, v) => {
                facts.insert((u, v));
                rt1.insert(e, &[u, v]);
                rt3.insert(e, &[u, v]);
            }
            UpdateOp::Retract(u, v) => {
                facts.remove(&(u, v));
                rt1.retract(e, &[u, v]);
                rt3.retract(e, &[u, v]);
            }
            UpdateOp::Poll => {
                rt1.poll();
                rt3.poll();
                let want = scratch(&prog, trace.domain, &facts);
                for (threads, rt) in [(1usize, &rt1), (3, &rt3)] {
                    for (i, rows) in want.iter().enumerate() {
                        let mut got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
                        got.sort();
                        if got != *rows {
                            let (name, _) = prog.idb_info(i);
                            return Some(format!(
                                "{threads}-thread runtime diverges on {name} at op {step}"
                            ));
                        }
                    }
                }
            }
        }
    }
    None
}

/// A random trace: domain in `1..=5`, up to 24 ops biased toward
/// insertions, with a final poll appended.
fn arb_trace() -> impl Strategy<Value = UpdateTrace> {
    (
        1u32..=5,
        0usize..=24,
        proptest::collection::vec((0u32..5, 0u32..5, 0u32..10), 24),
    )
        .prop_map(|(domain, len, raw)| {
            let mut ops: Vec<UpdateOp> = raw
                .into_iter()
                .take(len)
                .map(|(u, v, kind)| {
                    let (u, v) = (u % domain, v % domain);
                    match kind {
                        0..=4 => UpdateOp::Insert(u, v),
                        5..=7 => UpdateOp::Retract(u, v),
                        _ => UpdateOp::Poll,
                    }
                })
                .collect();
            ops.push(UpdateOp::Poll);
            UpdateTrace { domain, ops }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trace equivalence across all three program shapes, shrunk with
    /// the conformance minimizer on failure.
    #[test]
    fn runtime_matches_scratch_at_1_and_3_threads(
        trace in arb_trace(),
        prog_i in 0usize..3,
    ) {
        let src = PROGRAMS[prog_i];
        if let Some(note) = divergence(src, &trace) {
            let (min, _) = minimize(
                trace.clone(),
                &mut |t: &UpdateTrace| divergence(src, t).is_some(),
                2_000,
            );
            let min_note = divergence(src, &min).unwrap_or(note);
            panic!(
                "incremental runtime diverged: {min_note}\n\
                 program: {src}\n\
                 domain: {} trace: {}",
                min.domain,
                min.to_compact()
            );
        }
    }

    /// Retracting every inserted edge must drain the IDBs back to
    /// exactly their empty-EDB extents (empty for TC; `sg(x, x)` and
    /// nothing else for the bodiless-rule program).
    #[test]
    fn retract_everything_drains_idbs(
        pool in proptest::collection::vec((0u32..4, 0u32..4), 16),
        len in 1usize..=16,
        prog_i in 0usize..3,
    ) {
        let edges: Vec<(u32, u32)> = pool.into_iter().take(len).collect();
        let sig = Signature::graph();
        let prog = Program::parse(&sig, PROGRAMS[prog_i]).unwrap();
        let e = sig.relation("E").unwrap();
        let mut rt = DatalogRuntime::new(prog.clone(), 4).expect("negation-free");
        for &(u, v) in &edges {
            rt.insert(e, &[u, v]);
        }
        rt.poll();
        for &(u, v) in &edges {
            rt.retract(e, &[u, v]);
        }
        rt.poll();
        prop_assert!(rt.edb(e).next().is_none(), "EDB not drained");
        let want = scratch(&prog, 4, &BTreeSet::new());
        for (i, rows) in want.iter().enumerate() {
            let mut got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
            got.sort();
            prop_assert_eq!(&got, rows, "IDB {} not drained to its empty-EDB extent", i);
        }
    }
}

/// The incremental runtime does not yet maintain stratified negation;
/// it must refuse such programs with a typed, spannable error — never
/// accept them and silently compute wrong extents, never panic.
#[test]
fn negated_programs_are_rejected_with_a_typed_error() {
    let sig = Signature::graph();
    let src = "t(x, y) :- e(x, y). nt(x, y) :- e(x, y), !t(y, x).";
    let prog = Program::parse(&sig, src).unwrap();

    let err = DatalogRuntime::new(prog.clone(), 3).expect_err("negation must be rejected");
    assert_eq!((err.rule, err.atom), (1, 1), "points at the negated atom");
    assert_eq!(err.pred, "t");
    assert!(
        err.to_string().contains("does not support negation"),
        "got: {err}"
    );

    let s = StructureBuilder::new(sig, 3).build().unwrap();
    let err2 = DatalogRuntime::from_structure(prog, &s).expect_err("from_structure too");
    assert_eq!((err2.rule, err2.atom), (1, 1));
}

/// A rule binding more than 128 distinct variables: backtracking must
/// unbind the variables past the 128th too (a `u128` rollback mask
/// once wrapped there), or stale bindings silently drop derivations.
/// The 130-edge chain rule runs over a 134-node path whose nodes all
/// also have a dead-end in-edge (from 0) and out-edge (to 1), so every
/// join step backtracks over a failed candidate.
#[test]
fn rules_with_more_than_128_variables_roll_back_exactly() {
    const LEN: u32 = 130;
    const DOMAIN: u32 = LEN + 6;
    let body: Vec<String> = (0..LEN).map(|i| format!("e(x{i}, x{})", i + 1)).collect();
    let src = format!("p(x0, x{LEN}) :- {}.", body.join(", "));
    let sig = Signature::graph();
    let prog = Program::parse(&sig, &src).unwrap();
    let e = sig.relation("E").unwrap();
    let mut facts: BTreeSet<(u32, u32)> = BTreeSet::new();
    for u in 2..DOMAIN {
        facts.insert((0, u));
        facts.insert((u, 1));
        if u + 1 < DOMAIN && u != 62 {
            facts.insert((u, u + 1));
        }
    }
    let mut rt = DatalogRuntime::new(prog.clone(), DOMAIN).expect("negation-free");
    for &(u, v) in &facts {
        rt.insert(e, &[u, v]);
    }
    rt.poll();
    // Batch evaluation shares the runtime's join kernel, so the extent
    // is also checked against walks of exactly LEN edges, computed
    // without any join.
    let walks = |facts: &BTreeSet<(u32, u32)>| -> Vec<Vec<Elem>> {
        let mut succ = vec![Vec::new(); DOMAIN as usize];
        for &(u, v) in facts {
            succ[u as usize].push(v);
        }
        let mut pairs = Vec::new();
        for a in 0..DOMAIN {
            let mut ends = BTreeSet::from([a]);
            for _ in 0..LEN {
                ends = ends
                    .iter()
                    .flat_map(|&u| succ[u as usize].clone())
                    .collect();
            }
            pairs.extend(ends.into_iter().map(|b| vec![a, b]));
        }
        pairs
    };
    let check = |rt: &DatalogRuntime, facts: &BTreeSet<(u32, u32)>, when: &str| {
        let mut got: Vec<Vec<Elem>> = rt.query(0).iter().collect();
        got.sort();
        assert_eq!(got, scratch(&prog, DOMAIN, facts)[0], "after {when}");
        assert_eq!(got, walks(facts), "after {when}");
    };
    check(&rt, &facts, "seeding");
    for (insert, edge) in [(true, (62, 63)), (false, (2, 3))] {
        if insert {
            facts.insert(edge);
            rt.insert(e, &[edge.0, edge.1]);
        } else {
            facts.remove(&edge);
            rt.retract(e, &[edge.0, edge.1]);
        }
        rt.poll();
        check(&rt, &facts, &format!("{edge:?}"));
    }
}

/// Probe keys wider than the kernel's 8-slot stack buffer spill to the
/// heap. The runtime probes its columnar EDB on 9 bound positions here
/// (`r` joined with itself on its first nine columns) and on all 10
/// in the goal-directed proof search; maintenance under one
/// insert and one retract must still equal batch evaluation.
#[test]
fn wide_atoms_probe_through_the_heap_spill() {
    const DOMAIN: u32 = 6;
    let sig = Signature::builder().relation("R", 10).finish_arc();
    let xs: Vec<String> = (0..9).map(|i| format!("x{i}")).collect();
    let prefix = xs.join(", ");
    let src = format!(
        "pair(y, z) :- r({prefix}, y), r({prefix}, z). \
         reach(y, z) :- pair(y, z). reach(x, z) :- reach(x, y), pair(y, z)."
    );
    let prog = Program::parse(&sig, &src).unwrap();
    let r = sig.relation("R").unwrap();
    // Rows sharing a 9-column prefix pair up their last columns; three
    // prefix groups chain the last values into longer reach paths.
    let row = |group: u32, last: u32| -> Vec<Elem> {
        let mut t: Vec<Elem> = (0..9).map(|i| (group + i) % DOMAIN).collect();
        t.push(last);
        t
    };
    let mut facts: BTreeSet<Vec<Elem>> = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3), (2, 4)]
        .iter()
        .map(|&(g, l)| row(g, l))
        .collect();
    let check = |rt: &DatalogRuntime, facts: &BTreeSet<Vec<Elem>>, when: &str| {
        let mut b = StructureBuilder::new(sig.clone(), DOMAIN);
        for t in facts {
            b.add(r, t).unwrap();
        }
        let want = prog.eval_seminaive(&b.build().unwrap());
        for i in 0..prog.num_idbs() {
            assert_eq!(
                rt.query(i),
                want.relation(i),
                "{} after {when}",
                prog.idb_info(i).0
            );
        }
    };
    let mut rt = DatalogRuntime::new(prog.clone(), DOMAIN).expect("negation-free");
    for t in &facts {
        rt.insert(r, t);
    }
    rt.poll();
    check(&rt, &facts, "seeding");
    let reach = prog.idb("reach").unwrap();
    assert!(
        rt.query(reach).contains(&[0, 2]),
        "the chain 0-1-2 is reachable"
    );

    for (insert, t) in [(true, row(2, 2)), (false, row(1, 1))] {
        if insert {
            facts.insert(t.clone());
            rt.insert(r, &t);
        } else {
            facts.remove(&t);
            rt.retract(r, &t);
        }
        let stats = rt.poll();
        assert!(!stats.rebuilt, "maintained, not rebuilt");
        check(
            &rt,
            &facts,
            &format!("{} {t:?}", if insert { "insert" } else { "retract" }),
        );
    }
    assert!(
        rt.query(reach).contains(&[2, 4]),
        "the insert joins groups 1 and 2"
    );
    assert!(!rt.query(reach).contains(&[0, 2]), "the retract cuts 0-1-2");
}

/// A from-scratch poll runs the batch engine's rounds: its
/// initialization pass is the batch one (every rule on the pre-pass
/// extents), so it propagates for exactly `iterations - 1` rounds and
/// derives every batch fact once.
#[test]
fn rebuild_polls_run_the_batch_rounds() {
    use fmt_core::structures::builders;
    for (prog, s) in [
        (Program::same_generation(), builders::full_binary_tree(4)),
        (Program::transitive_closure(), builders::directed_path(20)),
        (Program::transitive_closure(), builders::grid(4, 5)),
    ] {
        let batch = prog.eval_seminaive(&s);
        let facts: u64 = (0..prog.num_idbs())
            .map(|i| batch.relation(i).len() as u64)
            .sum();
        let stats = DatalogRuntime::from_structure(prog.clone(), &s)
            .unwrap()
            .poll();
        assert!(stats.rebuilt);
        assert_eq!(stats.rounds as usize, batch.iterations - 1, "rounds");
        assert_eq!(stats.derived, facts, "derived");
    }
}
