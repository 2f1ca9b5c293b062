//! `incr_churn`: an incrementally maintained transitive closure of a
//! 24×24 grid DAG under edge swaps. Each operation retracts one present
//! edge, inserts one withheld edge, polls, and reads a few closure facts,
//! so every poll runs DRed (delete–rederive) and propagation.
//!
//! The operation list is [`SWAPS`] swap-and-restore pairs: operation
//! `2i` swaps edge `rᵢ` out for withheld edge `pᵢ`, operation `2i + 1`
//! swaps them back, so every pass starts from the same edge set. The
//! edges are stratified by how much of the closure can depend on them
//! (`|ancestors(a)| · |descendants(b)|` for edge `a → b`), so every seed
//! gives the same spread of work.

use super::{parse_program, parse_structure, Ctx, Op, Workload, INPUT_STREAM, OPS_STREAM};
use crate::gen::{self, Rng};
use crate::trace::Trace;
use fmt_queries::incremental::DatalogRuntime;
use fmt_structures::{Budget, RelId, StructureBuilder};
use std::time::Instant;

const SIDE: u32 = 24;
/// Swap-and-restore pairs; the operation list is twice as long.
const SWAPS: usize = 32;
const READS: usize = 4;

type Edge = (u32, u32);

#[derive(Debug)]
pub struct IncrChurn {
    rt: DatalogRuntime,
    e: RelId,
    tc: usize,
    n: u32,
    present: Vec<Edge>,
    /// `(index of rᵢ in present, rᵢ, pᵢ)`.
    swaps: Vec<(usize, Edge, Edge)>,
    reads: Vec<[Edge; READS]>,
    traced: u64,
    derived: u64,
    overdeleted: u64,
    rederived: u64,
    rounds: u64,
    rebuilds: u64,
}

impl IncrChurn {
    pub fn setup(ctx: &Ctx, tr: &mut Trace) -> IncrChurn {
        let g = gen::grid_dag(&mut Rng::new(ctx.seed, INPUT_STREAM), SIDE, SIDE);
        let mut rng = Rng::new(ctx.seed, OPS_STREAM);
        let (out, back) = stratified_pairs(&g.edges, &mut rng);
        let present: Vec<Edge> = g
            .edges
            .iter()
            .filter(|e| !back.contains(e))
            .copied()
            .collect();
        let swaps = out
            .iter()
            .zip(&back)
            .map(|(&r, &p)| (present.iter().position(|&e| e == r).expect("present"), r, p))
            .collect();
        let n = u64::from(g.n);
        let reads = (0..2 * SWAPS)
            .map(|_| std::array::from_fn(|_| (rng.below(n) as u32, rng.below(n) as u32)))
            .collect();

        let text = gen::Graph {
            n: g.n,
            edges: present.clone(),
        }
        .to_text();
        let s = parse_structure(tr, &text);
        let p = parse_program(tr, &s, gen::TC);
        let e = s.signature().relation("E").expect("edge relation");
        let tc = p.idb("tc").expect("tc predicate");
        let mut rt = DatalogRuntime::from_structure(p, &s).expect("TC has no negation");
        tr.layer("queries.incremental.setup_poll", || {
            rt.try_poll(&Budget::unlimited())
        })
        .expect("unbudgeted poll");
        IncrChurn {
            rt,
            e,
            tc,
            n: g.n,
            present,
            swaps,
            reads,
            traced: 0,
            derived: 0,
            overdeleted: 0,
            rederived: 0,
            rounds: 0,
            rebuilds: 0,
        }
    }
}

/// Sorts the grid's edges by `|ancestors(a) ∪ {a}| · |descendants(b) ∪
/// {b}|`, cuts them into `2 · SWAPS` strata, and draws one edge from
/// each: the even strata give the edges swapped out, the odd ones the
/// withheld edges swapped in.
fn stratified_pairs(edges: &[Edge], rng: &mut Rng) -> (Vec<Edge>, Vec<Edge>) {
    let weight = |&(a, b): &Edge| {
        let (xa, ya, xb, yb) = (a % SIDE, a / SIDE, b % SIDE, b / SIDE);
        (xa + 1) * (ya + 1) * (SIDE - xb) * (SIDE - yb)
    };
    let mut sorted = edges.to_vec();
    sorted.sort_by_key(weight);
    let strata = 2 * SWAPS;
    let picks: Vec<Edge> = (0..strata)
        .map(|j| {
            let (lo, hi) = (j * sorted.len() / strata, (j + 1) * sorted.len() / strata);
            sorted[lo + rng.below((hi - lo) as u64) as usize]
        })
        .collect();
    picks.chunks(2).map(|c| (c[0], c[1])).unzip()
}

impl Workload for IncrChurn {
    fn ops(&self) -> usize {
        2 * self.swaps.len()
    }

    fn op(&mut self, i: usize, tr: &mut Trace) -> Op {
        let (at, r, p) = self.swaps[i / 2];
        let (gone, back) = if i.is_multiple_of(2) { (r, p) } else { (p, r) };
        let reads = self.reads[i];
        let (rt, e, tc) = (&mut self.rt, self.e, self.tc);

        let t = Instant::now();
        tr.layer("queries.incremental.update", || {
            rt.retract(e, &[gone.0, gone.1]);
            rt.insert(e, &[back.0, back.1]);
        });
        let stats = tr.layer("queries.incremental.poll", || {
            rt.try_poll(&Budget::unlimited())
        });
        let seen: Vec<bool> = tr.layer("queries.incremental.read", || {
            let ext = rt.query(tc);
            reads.iter().map(|&(a, b)| ext.contains(&[a, b])).collect()
        });
        let wall = t.elapsed();

        self.present[at] = back;
        let adj = gen::Graph {
            n: self.n,
            edges: self.present.clone(),
        }
        .adjacency();
        let ok = stats.is_ok()
            && reads
                .iter()
                .zip(&seen)
                .all(|(&(a, b), &got)| got == gen::reaches(&adj, a, b));
        if let (true, Ok(st)) = (tr.on, stats) {
            self.traced += 1;
            self.derived += st.derived;
            self.overdeleted += st.overdeleted;
            self.rederived += st.rederived;
            self.rounds += st.rounds;
            self.rebuilds += u64::from(st.rebuilt);
        }
        Op { wall, ok }
    }

    /// The maintained extent equals a batch evaluation of the current
    /// edge set.
    fn audit(&self) -> bool {
        let p = self.rt.program();
        let mut b = StructureBuilder::new(p.signature().clone(), self.n);
        for &(x, y) in &self.present {
            b.add(self.e, &[x, y]).expect("edge in range");
        }
        let s = b.build().expect("edge structure");
        p.try_eval_seminaive_with(&s, 1, &Budget::unlimited())
            .is_ok_and(|out| out.relation(self.tc) == self.rt.query(self.tc))
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let per_op = |v: u64| v as f64 / self.traced.max(1) as f64;
        vec![
            ("queries.incremental.derived", per_op(self.derived)),
            ("queries.incremental.overdeleted", per_op(self.overdeleted)),
            ("queries.incremental.rederived", per_op(self.rederived)),
            ("queries.incremental.rounds", per_op(self.rounds)),
            ("queries.incremental.rebuilds", per_op(self.rebuilds)),
            (
                "queries.incremental.rederive_ratio",
                self.rederived as f64 / self.overdeleted.max(1) as f64,
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_distinct_grid_edges() {
        let g = gen::grid_dag(&mut Rng::new(9, INPUT_STREAM), SIDE, SIDE);
        let (out, back) = stratified_pairs(&g.edges, &mut Rng::new(9, OPS_STREAM));
        assert_eq!((out.len(), back.len()), (SWAPS, SWAPS));
        let mut all: Vec<Edge> = out.iter().chain(&back).copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 2 * SWAPS);
        assert!(out.iter().chain(&back).all(|e| g.edges.contains(e)));
    }
}
