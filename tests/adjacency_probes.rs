//! Batch probes of a binary input relation on one bound column are
//! served by the structure's adjacency lists. They must yield the
//! candidates the sorted-prefix and hash-index probes they replace
//! yielded, in the same order, so the kernel's work is unchanged: the
//! per-rule span fields, per-round deltas and IDB row order below were
//! recorded with those probes and are pinned here.
//!
//! The trace journal is process-global and records every thread's
//! spans, so every test that evaluates holds `TRACE_LOCK` for its whole
//! body.

use fmt_core::queries::datalog::Program;
use fmt_core::structures::budget::Budget;
use fmt_core::structures::index::probe_prefix;
use fmt_core::structures::store::{fnv_step, FNV_SEED};
use fmt_core::structures::{builders, Elem, Signature, Structure, StructureBuilder};
use fmt_obs::trace;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `(rule, round, probes, derived)` of every `datalog.rule` span of one
/// traced single-thread semi-naive run, in the order they closed; the
/// run's `delta_history`; and an FNV fold of every IDB's rows in row-id
/// order, which changes with the order the rows were derived in.
type Work = (Vec<(u64, u64, u64, u64)>, Vec<u64>, u64);

fn rule_work(prog: &Program, s: &Structure) -> Work {
    trace::start();
    let out = prog
        .try_eval_seminaive_with(s, 1, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust");
    let t = trace::stop();
    let field = |e: &trace::TraceEvent, k| e.field(k).and_then(trace::FieldValue::as_u64);
    let spans = t
        .events
        .iter()
        .filter(|e| e.name == "datalog.rule")
        .map(|e| {
            let f = |k| field(e, k).unwrap_or_else(|| panic!("rule span without {k}"));
            (f("rule"), f("round"), f("probes"), f("derived"))
        })
        .collect();
    let row_order = (0..prog.num_idbs())
        .flat_map(|i| out.relation(i).iter())
        .flatten()
        .fold(FNV_SEED, fnv_step);
    (spans, out.delta_history, row_order)
}

#[test]
fn adjacency_probes_keep_the_pinned_rule_work() {
    let _g = locked();
    // sg on the depth-4 tree: every edge atom probes column 0.
    let sg = rule_work(&Program::same_generation(), &builders::full_binary_tree(4));
    assert_eq!(
        sg.0,
        [
            (0, 1, 0, 31),
            (1, 1, 0, 0),
            (1, 2, 121, 60),
            (1, 3, 114, 56),
            (1, 4, 200, 96),
            (1, 5, 288, 128),
            (1, 6, 128, 0),
        ]
    );
    assert_eq!(sg.1, [31, 30, 56, 96, 128, 0]);
    assert_eq!(sg.2, 1971236845649841285, "sg row order");
    // tc on the undirected 4×5 grid: the edge atom probes column 1.
    let tc = rule_work(&Program::transitive_closure(), &builders::grid(4, 5));
    assert_eq!(
        tc.0,
        [
            (0, 1, 62, 62),
            (1, 1, 0, 0),
            (1, 2, 264, 202),
            (1, 3, 476, 364),
            (1, 4, 392, 298),
            (1, 5, 288, 216),
            (1, 6, 152, 112),
            (1, 7, 56, 40),
            (1, 8, 12, 8),
        ]
    );
    assert_eq!(tc.1, [62, 112, 94, 72, 40, 16, 4, 0]);
    assert_eq!(tc.2, 17952780376270790885, "tc row order");
}

#[test]
fn adjacency_candidates_match_prefix_and_index_probes() {
    let _g = locked();
    // Edges added out of order, with duplicates and a self-loop.
    let sig = Signature::graph();
    let e = sig.relation("E").unwrap();
    let mut b = StructureBuilder::new(sig, 6);
    for (u, v) in [
        (4, 1),
        (0, 5),
        (2, 1),
        (0, 3),
        (4, 1),
        (5, 5),
        (0, 1),
        (3, 1),
        (0, 3),
        (1, 0),
        (5, 2),
    ] {
        b.add(e, &[u, v]).unwrap();
    }
    let s = b.build().unwrap();
    assert_eq!(s.rel(e).len(), 9, "duplicates are stored once");
    // Column 0 bound: the prefix probe's rows; column 1 bound: the hash
    // index's bucket, which lists rows in the order they were indexed.
    let (rel, idx) = (s.rel(e), s.rel(e).index(&[1]));
    for u in s.domain() {
        let out: Vec<Elem> = probe_prefix(rel, &[u]).map(|t| t[1]).collect();
        let key = [u];
        let inn: Vec<Elem> = idx
            .probe(rel, &key)
            .map(|id| rel.row(id as usize)[0])
            .collect();
        assert_eq!(s.out_neighbors(e, u), out, "out-neighbours of {u}");
        assert_eq!(s.in_neighbors(e, u), inn, "in-neighbours of {u}");
    }
    assert_eq!(s.in_neighbors(e, 1), [0, 2, 3, 4]);
    assert_eq!(s.out_neighbors(e, 0), [1, 3, 5]);
    // The kernel's adjacency probes (tc probes column 1, sg column 0)
    // agree with the scan engine, which reads only the sorted rows.
    for prog in [Program::transitive_closure(), Program::same_generation()] {
        let indexed = prog.eval_seminaive(&s);
        let scanned = prog.eval_seminaive_scan(&s);
        assert_eq!(indexed.relation(0), scanned.relation(0));
        assert_eq!(indexed.delta_history, scanned.delta_history);
    }
}
