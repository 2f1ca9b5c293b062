//! Goal-directed evaluation perf harness: a magic-sets point query vs
//! full materialization.
//!
//! The workload is transitive closure over the 512-node directed path —
//! the same `tc_path_512` instance the batch and incremental layers are
//! gated on — with the point goal `tc(448, gy)?`. Full materialization
//! derives all 130816 reachability facts; the rewritten program only
//! explores the 64-node demand cone downstream of node 448. Pruning is
//! reported two ways: the **derivation ratio** (deterministic — the
//! engines count every derived tuple, so this is a property of the
//! rewrite, not of the machine) and the wall-time speedup (recorded for
//! the curious, never gated — small queries are timer-noise-bound).
//! The acceptance bar is a ≥5× derivation ratio; the measured figures
//! land in `BENCH_datalog.json` under `"magic"`.

use fmt_queries::datalog::Program;
use fmt_queries::magic;
use fmt_structures::builders;
use std::time::Instant;

/// Measurement batch size; the minimum filters out scheduler noise.
const BATCH: usize = 5;

/// Required derivation ratio of full materialization over the rewrite.
const MIN_PRUNING: f64 = 5.0;

/// Path length: `tc_path_512`, matching the other datalog gates.
const NODES: u32 = 512;

/// Bound source vertex of the point goal.
const SOURCE: u32 = 448;

fn min_secs(runs: usize, mut run: impl FnMut() -> f64) -> f64 {
    (0..runs).map(|_| run()).fold(f64::INFINITY, f64::min)
}

fn main() {
    let s = builders::directed_path(NODES);
    let prog = Program::transitive_closure();
    let goal_src = format!("tc({SOURCE}, gy)?");
    let goal = magic::parse_goal(&goal_src).expect("goal parses");
    let mq = magic::rewrite(&prog, &goal).expect("goal rewrites");
    assert!(!mq.transparent, "a point query must actually rewrite");

    // Full materialization: every reachability fact.
    let full = prog.eval_seminaive(&s);
    let full_tuples = full.relation(0).len();
    let full_derivations = full.derivations;
    let full_secs = min_secs(BATCH, || {
        let t0 = Instant::now();
        let _ = prog.eval_seminaive(&s);
        t0.elapsed().as_secs_f64()
    });

    // Goal-directed: the rewritten program over the seeded structure.
    let es = mq.prepare(&s);
    let out = mq.program.eval_seminaive(&es);
    let answers = mq.answers(&s, &out).len();
    let magic_derivations = out.derivations;
    let magic_secs = min_secs(BATCH, || {
        let t0 = Instant::now();
        let _ = mq.program.eval_seminaive(&es);
        t0.elapsed().as_secs_f64()
    });
    assert_eq!(
        mq.answers(&s, &out),
        mq.filter(&s, full.relation(mq.orig_idb)),
        "rewrite must stay sound and complete while being benchmarked"
    );

    let pruning = full_derivations as f64 / (magic_derivations.max(1)) as f64;
    let speedup = full_secs / magic_secs.max(1e-12);
    println!(
        "tc_path_{NODES} ⊢ tc({SOURCE}, gy)?: {answers} answers of {full_tuples} tuples; \
         derivations {full_derivations} → {magic_derivations} ({pruning:.1}x pruning), \
         wall {full_secs:.6}s → {magic_secs:.6}s ({speedup:.1}x)"
    );

    // Replace (or append) only our own "magic" block; every other
    // block of the file survives.
    let json = std::fs::read_to_string("BENCH_datalog.json")
        .unwrap_or_else(|_| "{\n  \"bench\":\"datalog\"\n}\n".to_owned());
    let block = format!(
        "{{\"workload\":\"tc_path_{NODES}\",\"goal\":\"tc({SOURCE}, gy)?\",\
         \"gate\":\"point query derives ≥5× fewer tuples than full materialization\",\
         \"answers\":{answers},\"full_tuples\":{full_tuples},\
         \"full_derivations\":{full_derivations},\"magic_derivations\":{magic_derivations},\
         \"pruning\":{pruning:.2},\"full_secs\":{full_secs:.6},\"magic_secs\":{magic_secs:.6},\
         \"speedup\":{speedup:.2}}}"
    );
    std::fs::write(
        "BENCH_datalog.json",
        fmt_bench::replace_block(&json, "magic", &block),
    )
    .expect("write BENCH_datalog.json");

    assert!(
        pruning >= MIN_PRUNING,
        "magic gate failed: the rewrite derived {magic_derivations} tuples, \
         more than 1/{MIN_PRUNING:.0} of the full materialization's {full_derivations}"
    );
    println!("magic bench passed (≥ {MIN_PRUNING:.0}x derivation pruning)");
}
