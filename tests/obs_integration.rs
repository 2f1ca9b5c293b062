//! Cross-crate tests of the `fmt-obs` instrumentation layer: the
//! counters the engines report must match what the algorithms provably
//! do, not merely be nonzero.
//!
//! The registry is process-global, so every test that enables it holds
//! `OBS_LOCK` for its whole body and resets the registry at the start.

use fmt_core::queries::datalog::Program;
use fmt_core::structures::builders;
use fmt_games::parallel::duplicator_wins_parallel;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn datalog_fixpoint_counts_are_exact() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();

    // TC on the directed path 0 → 1 → ⋯ → 5. Semi-naive evaluation
    // seeds Δ₀ with the 5 edges, then each round extends paths by one
    // edge: |Δ| = 5, 4, 3, 2, 1, and a final empty delta stops the
    // loop. That is 6 rounds and 5+4+3+2+1+0 = 15 delta facts.
    let s = builders::directed_path(6);
    let out = Program::transitive_closure().eval_seminaive(&s);
    assert_eq!(out.relation(0).len(), 15); // C(6,2) pairs i < j

    let snap = fmt_obs::snapshot();
    assert_eq!(snap.counter("queries.datalog.rounds"), Some(6));
    assert_eq!(snap.counter("queries.datalog.delta_facts"), Some(15));
    let h = snap
        .histogram("queries.datalog.delta_size")
        .expect("delta sizes recorded");
    assert_eq!(h.count, 6);
    assert_eq!(h.sum, 15);
    assert_eq!(h.max, 5);
}

#[test]
fn indexed_engine_probes_instead_of_scanning() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();

    // The counters behind the perf criterion, at test scale: tuple
    // comparisons done by the indexed engine (index probes plus its
    // residual scans) must undercut the written-order scan engine's
    // nested-loop tuple visits by at least 5×, on the same input and
    // with identical output.
    let prog = Program::transitive_closure();
    let s = builders::directed_path(128);

    let scan_out = prog.eval_seminaive_scan(&s);
    let scanned = fmt_obs::snapshot()
        .counter("queries.datalog.scan_tuples")
        .expect("scan engine counts tuples");

    fmt_obs::reset();
    let idx_out = prog.eval_seminaive(&s);
    let snap = fmt_obs::snapshot();
    let probed = snap.counter("queries.index.probes").unwrap_or(0)
        + snap.counter("queries.index.scan_tuples").unwrap_or(0);
    // Every probe of `e` is served by the structure's adjacency lists,
    // which build no index, and is metered as a probe all the same.
    assert!(snap.counter("queries.index.probe_ops").unwrap_or(0) > 0);
    assert_eq!(snap.counter("queries.index.builds").unwrap_or(0), 0);

    assert_eq!(scan_out.relation(0), idx_out.relation(0));
    assert_eq!(scan_out.iterations, idx_out.iterations);
    assert!(
        probed * 5 <= scanned,
        "indexed engine compared {probed} tuples vs {scanned} scanned"
    );
}

#[test]
fn parallel_solver_counts_every_first_move() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();

    // L_8 vs L_8: isomorphic, so no worker ever refutes and all
    // 8 + 8 = 16 first moves are fully explored.
    let a = builders::linear_order(8);
    let b = builders::linear_order(8);
    assert!(duplicator_wins_parallel(&a, &b, 3, 4));

    let snap = fmt_obs::snapshot();
    assert_eq!(snap.counter("games.parallel.first_moves"), Some(16));
    // No worker refuted, so nothing was cancelled (the counter may not
    // even have registered yet — registration is lazy on first use).
    assert_eq!(snap.counter("games.parallel.cancellations").unwrap_or(0), 0);
    // The workers' solvers share the global counters: concurrent
    // increments from 4 threads must not lose updates.
    let expanded = snap
        .counter("games.solver.positions_expanded")
        .expect("solver ran");
    assert!(expanded >= 16, "expanded only {expanded} positions");
}

#[test]
fn disabled_registry_records_nothing() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();
    fmt_obs::disable();

    let s = builders::directed_path(4);
    let _ = Program::transitive_closure().eval_seminaive(&s);
    let a = builders::linear_order(3);
    assert!(duplicator_wins_parallel(&a, &a, 2, 2));

    // `reset` zeroes but keeps registrations, so previously used metric
    // names may still appear — every value must be zero, though.
    let snap = fmt_obs::snapshot();
    for row in snap.rows() {
        assert_eq!(
            row[1], "0",
            "disabled registry recorded {}={}",
            row[0], row[1]
        );
    }
    fmt_obs::enable();
}

#[test]
fn snapshot_reset_roundtrip_is_deterministic() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();

    // Each run gets a freshly built input: a second run on the first
    // one's structure would find its EDB index cached and build none.
    let s = || builders::directed_path(5);
    let prog = Program::transitive_closure();
    let _ = prog.eval_seminaive(&s());
    let first = fmt_obs::snapshot();

    fmt_obs::reset();
    let zeroed = fmt_obs::snapshot();
    assert!(zeroed.rows().iter().all(|r| r[1] == "0"));

    // The same run after a reset reports the same numbers.
    let _ = prog.eval_seminaive(&s());
    let second = fmt_obs::snapshot();
    assert_eq!(first.rows(), second.rows());
    assert_eq!(first.to_json(), second.to_json());
}

#[test]
fn every_registered_metric_name_satisfies_the_grammar() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();

    // Exercise engines across the workspace so their lazily-registered
    // statics all land in the registry before the sweep.
    let s = builders::directed_path(8);
    let _ = Program::transitive_closure().eval_seminaive(&s);
    let _ = Program::transitive_closure().eval_seminaive_scan(&s);
    let a = builders::linear_order(3);
    let b = builders::linear_order(4);
    let _ = duplicator_wins_parallel(&a, &b, 2, 2);
    let _ = fmt_core::games::pebble::pebble_duplicator_wins(&a, &b, 2, 2);
    let _ = fmt_core::games::bijection::bijection_duplicator_wins(&a, &b, 1);
    let sig = fmt_core::structures::Signature::graph();
    let f = fmt_core::logic::parser::parse_formula(&sig, "exists x. E(x, x)").unwrap();
    let _ = fmt_core::eval::relalg::check_sentence(&s, &f);
    let _ = fmt_core::eval::naive::check_sentence(&s, &f);
    let _ = fmt_core::eval::circuit::compile(&sig, &f, 3);
    let mut reg = fmt_core::locality::TypeRegistry::new();
    let _ = fmt_core::locality::TypeCensus::compute(&s, 1, &mut reg);
    let _ = fmt_core::zeroone::mu::mu_exact(&sig, 1, &f);

    let snap = fmt_obs::snapshot();
    let names: Vec<&str> = snap
        .counters
        .iter()
        .map(|(n, _)| n.as_str())
        .chain(snap.histograms.iter().map(|h| h.name.as_str()))
        .collect();
    assert!(
        names.len() >= 10,
        "expected a broad sweep, saw only {names:?}"
    );
    for name in names {
        assert!(
            fmt_obs::valid_metric_name(name),
            "registered metric name {name:?} violates ^[a-z0-9_.]+$"
        );
    }
}
