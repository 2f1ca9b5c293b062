//! `point_query`: goal-directed (magic-sets) point queries `tc(c, y)?`
//! on 200 label-shuffled disjoint 256-node paths. The structure is
//! parsed once at set-up; each operation rewrites, prepares, evaluates
//! (one thread) and filters for its own goal.
//!
//! The operation list is stratified by answer count: goal `i` of
//! [`GOALS`] has a cone of between `i·k` and `(i+1)·k − 1` later
//! vertices (`k = LEN / GOALS`), so every seed gives the same spread of
//! work and only the labels, paths and positions differ.

use super::{
    parse_program, parse_structure, Ctx, EvalTally, Op, Workload, INPUT_STREAM, OPS_STREAM,
};
use crate::gen::{self, Rng};
use crate::trace::Trace;
use fmt_queries::datalog::Program;
use fmt_queries::magic;
use fmt_structures::{Budget, Structure};
use std::time::Instant;

const PATHS: u32 = 200;
const LEN: u32 = 256;
/// Distinct goals, one per stratum of answer counts.
const GOALS: u32 = 64;

#[derive(Debug)]
pub struct PointQuery {
    s: Structure,
    p: Program,
    /// Goal constants, and each goal's answers: `c` paired with every
    /// later vertex of its path (the reference).
    goals: Vec<(u32, Vec<Vec<u32>>)>,
    eval: EvalTally,
    prepared_tuples: u64,
    answers: u64,
}

impl PointQuery {
    pub fn setup(ctx: &Ctx, tr: &mut Trace) -> PointQuery {
        let g = gen::shuffled_paths(&mut Rng::new(ctx.seed, INPUT_STREAM), PATHS, LEN);
        let s = parse_structure(tr, &g.to_text());
        let p = parse_program(tr, &s, gen::TC);
        PointQuery {
            s,
            p,
            goals: goals(&g, &mut Rng::new(ctx.seed, OPS_STREAM)),
            eval: EvalTally::default(),
            prepared_tuples: 0,
            answers: 0,
        }
    }
}

/// One goal per answer-count stratum, each with its expected answers.
fn goals(g: &gen::Graph, rng: &mut Rng) -> Vec<(u32, Vec<Vec<u32>>)> {
    let mut next = vec![None; g.n as usize];
    let mut has_pred = vec![false; g.n as usize];
    for &(a, b) in &g.edges {
        next[a as usize] = Some(b);
        has_pred[b as usize] = true;
    }
    // by_cone[k]: the vertices with exactly k later vertices.
    let mut by_cone = vec![Vec::new(); LEN as usize];
    for head in (0..g.n).filter(|&v| !has_pred[v as usize]) {
        let mut path = vec![head];
        while let Some(v) = next[*path.last().expect("non-empty") as usize] {
            path.push(v);
        }
        for (j, &v) in path.iter().enumerate() {
            by_cone[path.len() - 1 - j].push(v);
        }
    }
    let width = LEN / GOALS;
    (0..GOALS)
        .map(|i| {
            let cone = &by_cone[(i * width + rng.below(u64::from(width)) as u32) as usize];
            let c = cone[rng.below(cone.len() as u64) as usize];
            let mut answers = Vec::new();
            let mut at = next[c as usize];
            while let Some(y) = at {
                answers.push(vec![c, y]);
                at = next[y as usize];
            }
            answers.sort();
            (c, answers)
        })
        .collect()
}

impl Workload for PointQuery {
    fn ops(&self) -> usize {
        self.goals.len()
    }

    fn op(&mut self, i: usize, tr: &mut Trace) -> Op {
        let goal_text = format!("tc({}, y)?", self.goals[i].0);
        let (p, s) = (&self.p, &self.s);
        let t = Instant::now();
        let mq = tr.layer("queries.magic.rewrite", || {
            let goal = magic::parse_goal(&goal_text).expect("generated goal parses");
            magic::rewrite(p, &goal)
        });
        let result = mq.map(|mq| {
            let es = tr.layer("queries.magic.prepare", || mq.prepare(s));
            let out = tr.layer("queries.eval", || {
                mq.program
                    .try_eval_seminaive_with(&es, 1, &Budget::unlimited())
            });
            let answers = out
                .as_ref()
                .ok()
                .map(|out| tr.layer("queries.magic.answers", || mq.answers(&es, out)));
            (mq, es, out, answers)
        });
        let wall = t.elapsed();
        let ok = match &result {
            Ok((mq, es, Ok(out), Some(answers))) => {
                if tr.on {
                    self.eval.add(out, mq.program.num_idbs());
                    self.prepared_tuples += es
                        .signature()
                        .relations()
                        .map(|(r, _, _)| es.rel(r).len() as u64)
                        .sum::<u64>();
                    self.answers += answers.len() as u64;
                }
                *answers == self.goals[i].1
            }
            _ => false,
        };
        Op { wall, ok }
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let mut v = self.eval.metrics();
        v.push((
            "queries.magic.prepared_tuples",
            self.prepared_tuples as f64 / self.eval.ops.max(1) as f64,
        ));
        v.push((
            "queries.magic.answers_per_derivation",
            self.answers as f64 / self.eval.derivations.max(1) as f64,
        ));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goals_cover_every_answer_stratum() {
        let g = gen::shuffled_paths(&mut Rng::new(5, INPUT_STREAM), PATHS, LEN);
        let goals = goals(&g, &mut Rng::new(5, OPS_STREAM));
        let width = (LEN / GOALS) as usize;
        for (i, (_, answers)) in goals.iter().enumerate() {
            assert!((i * width..(i + 1) * width).contains(&answers.len()));
        }
    }
}
