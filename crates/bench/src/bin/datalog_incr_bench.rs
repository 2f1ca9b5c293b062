//! Incremental-maintenance perf harness: single-edge churn through the
//! [`DatalogRuntime`] vs from-scratch semi-naive recomputation.
//!
//! The workload is transitive closure over the 512-node directed path —
//! the same `tc_path_512` instance the batch engine is gated on. After
//! the initial materialization, each churn cycle retracts the final
//! edge `E(510, 511)`, polls, re-inserts it, and polls again: two
//! updates whose maintenance work (511 overdeletions, then 511
//! re-derivations) is a tiny slice of the 130816-tuple fixpoint a
//! from-scratch run rebuilds. The acceptance bar is that one
//! maintained update is at least 5× faster than one recomputation;
//! the measured figures land in `BENCH_datalog.json` under
//! `"incremental"`.

use fmt_queries::datalog::Program;
use fmt_queries::incremental::DatalogRuntime;
use fmt_structures::builders;
use std::time::Instant;

/// Measurement batch size; the minimum filters out scheduler noise.
const BATCH: usize = 5;

/// Required speedup of one maintained update over one from-scratch run.
const MIN_SPEEDUP: f64 = 5.0;

/// Path length: `tc_path_512`, matching the batch-engine gate.
const NODES: u32 = 512;

fn min_secs(runs: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| run()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let s = builders::directed_path(NODES);
    let prog = Program::transitive_closure();
    let e = prog.signature().relation("E").unwrap();

    // From-scratch reference: full semi-naive fixpoint per update.
    let out = prog.eval_seminaive(&s);
    let tuples = out.relation(0).len();
    let scratch_secs = min_secs(BATCH, || {
        let t0 = Instant::now();
        let _ = prog.eval_seminaive(&s);
        t0.elapsed().as_secs_f64()
    });

    // Initial materialization through the runtime, timed for the
    // record, then steady-state churn on the final edge.
    let mut rt = DatalogRuntime::from_structure(prog.clone(), &s)
        .expect("benchmark programs are negation-free");
    let t0 = Instant::now();
    rt.poll();
    let initial_secs = t0.elapsed().as_secs_f64();
    assert_eq!(rt.query(0).len(), tuples, "initial poll must match batch");

    let last = (NODES - 2, NODES - 1);
    let cycle = |rt: &mut DatalogRuntime| {
        let t0 = Instant::now();
        rt.retract(e, &[last.0, last.1]);
        rt.poll();
        rt.insert(e, &[last.0, last.1]);
        rt.poll();
        t0.elapsed().as_secs_f64()
    };
    cycle(&mut rt); // warm-up: builds goal plans and indexes
    assert_eq!(rt.query(0).len(), tuples, "churn must restore the extent");
    let update_secs = min_secs(BATCH, || cycle(&mut rt)) / 2.0;
    assert_eq!(rt.query(0).len(), tuples, "churn must restore the extent");

    let speedup = scratch_secs / update_secs.max(1e-12);
    println!(
        "tc_path_{NODES}: {tuples} tuples; scratch {scratch_secs:.6}s/update, \
         incremental {update_secs:.6}s/update (initial poll {initial_secs:.6}s), \
         speedup {speedup:.1}x"
    );

    // Replace (or append) only our own "incremental" block; every other
    // block of the file survives.
    let json = std::fs::read_to_string("BENCH_datalog.json")
        .unwrap_or_else(|_| "{\n  \"bench\":\"datalog\"\n}\n".to_owned());
    let block = format!(
        "{{\"workload\":\"tc_path_{NODES}\",\
         \"gate\":\"maintained single-edge update ≥5× faster than from-scratch recomputation\",\
         \"output_tuples\":{tuples},\"scratch_secs\":{scratch_secs:.6},\
         \"initial_poll_secs\":{initial_secs:.6},\"update_secs\":{update_secs:.6},\
         \"speedup\":{speedup:.2}}}"
    );
    std::fs::write(
        "BENCH_datalog.json",
        fmt_bench::replace_block(&json, "incremental", &block),
    )
    .expect("write BENCH_datalog.json");

    assert!(
        speedup >= MIN_SPEEDUP,
        "incremental gate failed: maintained update {update_secs:.6}s must be ≥ \
         {MIN_SPEEDUP:.0}× faster than from-scratch {scratch_secs:.6}s"
    );
    println!("incremental bench passed (≥ {MIN_SPEEDUP:.0}x per maintained update)");
}
