//! Cross-thread trace attribution: spans opened inside `fan_out`
//! workers (and the engines built on it) must parent to the span that
//! was open at the fan-out point, and a traced multi-thread run must
//! record exactly the same rule-level work as a single-thread run.
//!
//! The trace journal is process-global, so every test here holds
//! `TRACE_LOCK` for its whole body.

use fmt_core::queries::datalog::Program;
use fmt_core::queries::incremental::DatalogRuntime;
use fmt_core::queries::magic;
use fmt_core::structures::budget::Budget;
use fmt_core::structures::builders;
use fmt_obs::trace;
use fmt_structures::par::fan_out;
use proptest::prelude::*;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn field(ev: &trace::TraceEvent, key: &str) -> Option<u64> {
    ev.field(key).and_then(trace::FieldValue::as_u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every span opened inside a `fan_out` worker is a child of the
    /// span that was open at the call site, whatever thread it ran on,
    /// and the per-chunk items add back up to the full work list.
    #[test]
    fn fan_out_reparents_worker_spans(threads in 1usize..5, n_items in 1usize..40) {
        let _g = locked();
        let items: Vec<u64> = (0..n_items as u64).collect();
        trace::start();
        {
            let _root = fmt_obs::trace_span!("root");
            let _ = fan_out(threads, &items, |work| {
                let _s = fmt_obs::trace_span!("chunk", n = work.len());
                work.len()
            });
        }
        let t = trace::stop();
        let root = t
            .events
            .iter()
            .find(|e| e.name == "root")
            .expect("root span recorded");
        let chunks: Vec<_> = t.events.iter().filter(|e| e.name == "chunk").collect();
        prop_assert!(!chunks.is_empty());
        let mut total = 0;
        for c in &chunks {
            prop_assert_eq!(c.parent, root.id, "chunk must parent to root");
            total += field(c, "n").unwrap();
        }
        prop_assert_eq!(total as usize, n_items);
    }
}

/// Runs traced indexed Datalog TC on the 30-path and returns the sorted
/// multiset of `datalog.rule` span work records.
fn rule_multiset(threads: usize) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    let s = builders::directed_path(30);
    let prog = Program::transitive_closure();
    trace::start();
    let out = prog
        .try_eval_seminaive_with(&s, threads, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust");
    let t = trace::stop();
    assert_eq!(out.relation(0).len(), 30 * 29 / 2);
    let mut v: Vec<_> = t
        .events
        .iter()
        .filter(|e| e.name == "datalog.rule")
        .map(|e| {
            (
                field(e, "rule").expect("rule field"),
                field(e, "pos").unwrap_or(u64::MAX),
                field(e, "round").expect("round field"),
                field(e, "tuples").unwrap_or(u64::MAX),
                field(e, "derived").expect("derived field"),
                field(e, "probes").expect("probes field"),
            )
        })
        .collect();
    v.sort_unstable();
    v
}

/// A 3-thread traced run records the same rule-application multiset
/// (rule, join position, round, delta tuples, derivations, probes) as
/// a 1-thread run: parallelism moves work across lanes, never changes
/// it. The 30-path keeps every delta under the sharding threshold, so
/// the job lists are identical too.
#[test]
fn parallel_rule_spans_match_serial_multiset() {
    let _g = locked();
    let serial = rule_multiset(1);
    let parallel = rule_multiset(3);
    assert!(!serial.is_empty());
    assert_eq!(serial, parallel);
}

/// A round driving fewer than 512 rows runs on the calling thread,
/// whatever its job count: at 4 threads, a magic goal on a short path
/// (three or four jobs per round) and a runtime's first poll record
/// every `datalog.rule` span on the lane of the `datalog.eval` or
/// `datalog.incr.poll` span that encloses it.
#[test]
fn small_rounds_run_on_the_calling_lane() {
    let _g = locked();
    let s = builders::directed_path(40);
    let prog = Program::transitive_closure();
    let goal = magic::parse_goal("tc(5, gy)?").expect("goal parses");
    let mq = magic::rewrite(&prog, &goal).expect("goal rewrites");
    let es = mq.prepare(&s);
    trace::start();
    mq.program
        .try_eval_seminaive_with(&es, 4, &Budget::unlimited())
        .expect("unlimited budget cannot exhaust");
    let goal_trace = trace::stop();
    let mut rt = DatalogRuntime::from_structure(prog, &s).expect("tc is negation-free");
    rt.set_threads(4);
    trace::start();
    rt.poll();
    let poll_trace = trace::stop();
    for (t, root) in [
        (&goal_trace, "datalog.eval"),
        (&poll_trace, "datalog.incr.poll"),
    ] {
        let lane = t
            .events
            .iter()
            .find(|e| e.name == root)
            .unwrap_or_else(|| panic!("{root} span recorded"))
            .lane;
        let rules: Vec<_> = t
            .events
            .iter()
            .filter(|e| e.name == "datalog.rule")
            .collect();
        assert!(!rules.is_empty(), "{root}: no datalog.rule spans");
        for r in rules {
            assert_eq!(r.lane, lane, "{root}: rule span off the calling lane");
        }
    }
}

/// The `(delta, new)` fields of every `datalog.round` span in `t`, in
/// the order the rounds ran.
fn round_deltas(t: &trace::Trace) -> Vec<(u64, u64)> {
    t.events
        .iter()
        .filter(|e| e.name == "datalog.round")
        .map(|e| (field(e, "delta").unwrap(), field(e, "new").unwrap()))
        .collect()
}

/// The `(rule, pos, round, probes, derived)` fields of every
/// `datalog.rule` span in `t`, in the order the rules ran.
fn rule_work(t: &trace::Trace) -> Vec<[u64; 5]> {
    t.events
        .iter()
        .filter(|e| e.name == "datalog.rule")
        .map(|e| {
            ["rule", "pos", "round", "probes", "derived"]
                .map(|name| field(e, name).unwrap_or(u64::MAX))
        })
        .collect()
}

/// A fresh runtime's first poll is the batch evaluation of its input,
/// which it reads in place, so it runs the batch rounds span for span:
/// the same `datalog.round` spans, each driving the same delta to the
/// same new facts, and the same `datalog.rule` spans, each probing as
/// many candidates and deriving as many facts.
#[test]
fn rebuild_polls_run_the_batch_rounds_span_for_span() {
    let _g = locked();
    for (prog, s) in [
        (Program::same_generation(), builders::full_binary_tree(4)),
        (Program::transitive_closure(), builders::grid(4, 5)),
    ] {
        trace::start();
        prog.eval_seminaive(&s);
        let batch = trace::stop();
        let mut rt = DatalogRuntime::from_structure(prog, &s).expect("negation-free");
        trace::start();
        rt.poll();
        let rebuild = trace::stop();
        assert!(round_deltas(&batch).len() > 2, "{:?}", round_deltas(&batch));
        assert_eq!(round_deltas(&batch), round_deltas(&rebuild));
        assert_eq!(rule_work(&batch), rule_work(&rebuild));
    }
}

/// Budget exhaustion is journaled as a `budget.exhausted` instant with
/// the resource and tick site as fields.
#[test]
fn budget_exhaustion_leaves_an_instant_event() {
    let _g = locked();
    let s = builders::directed_path(12);
    let prog = Program::transitive_closure();
    trace::start();
    let r = prog.try_eval_seminaive_with(&s, 1, &Budget::with_fuel(3));
    let t = trace::stop();
    assert!(r.is_err(), "3 ticks cannot finish TC on a 12-path");
    let ev = t
        .events
        .iter()
        .find(|e| e.name == "budget.exhausted")
        .expect("exhaustion instant journaled");
    assert!(ev.dur_ns.is_none(), "instants have no duration");
    assert_eq!(ev.field("resource").and_then(|v| v.as_str()), Some("fuel"));
}

/// Cancellation is likewise journaled, from whichever thread observes
/// it first.
#[test]
fn cancellation_leaves_an_instant_event() {
    let _g = locked();
    let budget = Budget::unlimited();
    trace::start();
    budget.cancel();
    let s = builders::directed_path(8);
    let r = Program::transitive_closure().try_eval_seminaive_with(&s, 1, &budget);
    let t = trace::stop();
    assert!(r.is_err(), "a cancelled budget stops the engine");
    assert!(
        t.events.iter().any(|e| e.name == "budget.cancelled"),
        "cancellation instant journaled"
    );
}
