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
        prop_assert!(rt.edb(e).is_empty(), "EDB not drained");
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
    let check = |rt: &DatalogRuntime, facts: &BTreeSet<(u32, u32)>, when: &str| {
        let mut got: Vec<Vec<Elem>> = rt.query(0).iter().collect();
        got.sort();
        assert_eq!(got, scratch(&prog, DOMAIN, facts)[0], "after {when}");
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
