//! The three workloads. Each isolates one layer of the Datalog stack;
//! see the README for why each was chosen and which metrics it moves.

pub mod incr_churn;
pub mod point_query;
pub mod sg_cli;

use crate::stats::median;
use crate::trace::Trace;
use fmt_queries::datalog::{Output, Program};
use fmt_queries::magic;
use fmt_structures::{Budget, Structure};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One run of one operation: its timed wall time, and whether its
/// answer checked out (checked after the timed window closes).
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub wall: Duration,
    pub ok: bool,
}

/// A workload is a fixed list of distinct operations drawn from the
/// seed; the harness runs the list in order, pass after pass.
pub trait Workload {
    /// Number of distinct operations.
    fn ops(&self) -> usize;
    /// Runs operation `i` (`i < ops()`) once and checks its answer.
    fn op(&mut self, i: usize, tr: &mut Trace) -> Op;
    /// A heavier check of the whole state against the harness's own
    /// reference; run at set-up and after every complete pass, outside
    /// the timed window and outside peak-memory tracking.
    fn audit(&self) -> bool {
        true
    }
    /// Per-layer figures the workload derives itself, over its traced
    /// operations; may run extra untimed work (the thread-scaling row).
    fn extras(&mut self) -> Vec<(&'static str, f64)>;
    /// Peak resident set of the process that did the work, in MiB, given
    /// the harness's own peak while operations ran.
    fn peak_rss_mb(&self, harness: f64) -> f64 {
        harness
    }
}

/// What a set-up needs from the harness.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    /// A private scratch directory inside the checkout.
    pub work: PathBuf,
    /// The `fmtk` binary.
    pub fmtk: PathBuf,
}

/// Seed streams: inputs and the operation list are drawn independently
/// from one workload seed.
pub const INPUT_STREAM: u64 = 1;
pub const OPS_STREAM: u64 = 2;

pub const NAMES: [&str; 3] = ["sg_cli", "point_query", "incr_churn"];

/// Builds workload `name` (`None` if unknown).
pub fn setup(name: &str, ctx: &Ctx, tr: &mut Trace) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sg_cli" => Box::new(sg_cli::SgCli::setup(ctx, tr)),
        "point_query" => Box::new(point_query::PointQuery::setup(ctx, tr)),
        "incr_churn" => Box::new(incr_churn::IncrChurn::setup(ctx, tr)),
        _ => return None,
    })
}

pub fn parse_structure(tr: &mut Trace, text: &str) -> Structure {
    tr.layer("structures.parse", || fmt_structures::parse::parse(text))
        .expect("generated structure parses")
}

/// Parses a program the way `fmtk datalog` does: split off a trailing
/// query goal, then parse the rule prefix with spans.
pub fn parse_program(tr: &mut Trace, s: &Structure, src: &str) -> Program {
    tr.layer("queries.parse", || {
        let split = magic::split_query(src)?;
        let body = split.as_ref().map_or(src, |(len, _)| &src[..*len]);
        Program::parse_spanned(s.signature(), body)
    })
    .expect("benchmark program parses")
    .program
}

/// Alternating 1- and 2-thread evaluations for the thread-scaling row.
const SCALING_PAIRS: usize = 8;

/// The thread-scaling row of a traced run: the median 1-thread
/// evaluation time, and its ratio to the median 2-thread time, over
/// alternating untraced evaluations that `ok` checks.
pub fn thread_scaling(
    p: &Program,
    s: &Structure,
    ok: impl Fn(&Output) -> bool,
) -> Vec<(&'static str, f64)> {
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    for _ in 0..SCALING_PAIRS {
        for (threads, times) in [(1, &mut t1), (2, &mut t2)] {
            let t = Instant::now();
            let out = p.try_eval_seminaive_with(s, threads, &Budget::unlimited());
            times.push(t.elapsed().as_secs_f64() * 1e3);
            assert!(out.is_ok_and(|o| ok(&o)), "thread-scaling run is correct");
        }
    }
    vec![
        ("queries.eval_ms.t1", median(&t1)),
        ("queries.eval.speedup_t2", median(&t1) / median(&t2)),
    ]
}

/// Evaluation counters summed over traced operations.
#[derive(Debug, Default)]
pub struct EvalTally {
    pub ops: u64,
    pub derivations: u64,
    iterations: u64,
    tuples: u64,
}

impl EvalTally {
    pub fn add(&mut self, out: &Output, num_idbs: usize) {
        self.ops += 1;
        self.derivations += out.derivations;
        self.iterations += out.iterations as u64;
        self.tuples += (0..num_idbs)
            .map(|i| out.relation(i).len() as u64)
            .sum::<u64>();
    }

    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let per_op = |v: u64| v as f64 / self.ops.max(1) as f64;
        let dup = if self.derivations == 0 {
            0.0
        } else {
            1.0 - self.tuples as f64 / self.derivations as f64
        };
        vec![
            ("queries.eval.derivations", per_op(self.derivations)),
            ("queries.eval.iterations", per_op(self.iterations)),
            ("queries.eval.output_tuples", per_op(self.tuples)),
            ("queries.eval.dup_ratio", dup),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Parent;

    /// Share of an op's wall time the layer spans must account for; the
    /// rest is the harness's glue between calls.
    const MIN_COVERAGE: f64 = 0.95;

    /// "The parts must add up to the whole": for every in-process
    /// workload, the traced layer spans of an op sum to its wall time
    /// within the stated tolerance. (`sg_cli` times a child process, so
    /// its spans cover only the in-process replay of the child's calls.)
    #[test]
    fn traced_layers_add_up_to_op_wall_time() {
        for name in ["point_query", "incr_churn"] {
            let ctx = Ctx {
                seed: 11,
                work: PathBuf::from("unused"),
                fmtk: PathBuf::from("unused"),
            };
            let mut tr = Trace::new();
            let mut w = setup(name, &ctx, &mut tr).expect("known workload");
            assert!(w.audit(), "{name}: set-up state is wrong");
            tr.on = true;
            let (mut wall, mut covered) = (Duration::ZERO, Duration::ZERO);
            for i in 0..w.ops() {
                tr.enter(Parent::Op(i as u64));
                let op = w.op(i, &mut tr);
                assert!(op.ok, "{name}: op {i} answered wrongly");
                wall += op.wall;
                covered += tr.op_covered(i as u64);
            }
            assert!(w.audit(), "{name}: state after one pass is wrong");
            let coverage = covered.as_secs_f64() / wall.as_secs_f64();
            assert!(
                (MIN_COVERAGE..=1.0).contains(&coverage),
                "{name}: layers cover {coverage:.4} of the op wall time"
            );
        }
    }
}
