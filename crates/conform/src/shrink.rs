//! Greedy counterexample minimization (delta-debugging style).
//!
//! The vendored `proptest` stand-in deliberately has no shrinking, so
//! this module supplies it for the whole workspace: a [`Shrinkable`]
//! trait producing strictly smaller candidate values, and a greedy
//! [`minimize`] loop that repeatedly commits the first candidate on
//! which the failure still reproduces. Oracles shrink every
//! counterexample before serializing it; ordinary proptests can opt in
//! by calling [`minimize`] in their failure path.

use crate::gen::UpdateTrace;
use fmt_logic::Formula;
use fmt_obs::Counter;
use fmt_structures::{Structure, StructureBuilder};

static OBS_SHRINK_STEPS: Counter = Counter::new("conform.shrink_steps");

/// A value with a notion of strictly smaller neighbors.
///
/// Implementations must guarantee every candidate is *smaller* in some
/// well-founded measure (node count, tuple count, magnitude), so greedy
/// descent terminates.
pub trait Shrinkable: Sized + Clone {
    /// Strictly smaller variants, most aggressive first.
    fn shrink_candidates(&self) -> Vec<Self>;
}

/// Greedily minimizes `value` under the failure predicate: repeatedly
/// replaces it with the first shrink candidate on which `still_fails`
/// holds, until no candidate fails or `max_steps` predicate evaluations
/// are spent. Returns the minimized value and the number of candidates
/// tried (also recorded on `conform.shrink_steps`).
pub fn minimize<T: Shrinkable>(
    value: T,
    still_fails: &mut impl FnMut(&T) -> bool,
    max_steps: usize,
) -> (T, usize) {
    let mut value = value;
    let mut steps = 0usize;
    'descend: while steps < max_steps {
        for cand in value.shrink_candidates() {
            steps += 1;
            if still_fails(&cand) {
                value = cand;
                continue 'descend;
            }
            if steps >= max_steps {
                break 'descend;
            }
        }
        break;
    }
    OBS_SHRINK_STEPS.add(steps as u64);
    (value, steps)
}

impl Shrinkable for Structure {
    /// Element drops first (each removes a whole induced row/column of
    /// tuples), then single-tuple drops. Element drops are skipped when
    /// the signature has constants, since the induced substructure is
    /// undefined if it evicts a constant's interpretation.
    fn shrink_candidates(&self) -> Vec<Structure> {
        let mut out = Vec::new();
        if self.signature().num_constants() == 0 {
            for dropped in self.domain() {
                let keep: Vec<u32> = self.domain().filter(|&v| v != dropped).collect();
                let (sub, _) = self.induced(&keep);
                out.push(sub);
            }
        }
        for (r, _, _) in self.signature().relations() {
            for skip in 0..self.rel(r).len() {
                let mut b = StructureBuilder::new(self.signature().clone(), self.size());
                for (r2, _, _) in self.signature().relations() {
                    for (i, t) in self.rel(r2).iter().enumerate() {
                        if r2 == r && i == skip {
                            continue;
                        }
                        b.add(r2, t).expect("tuple was valid in the original");
                    }
                }
                for (c, _) in self.signature().constants() {
                    b.set_constant(c, self.constant(c));
                }
                out.push(b.build().expect("smaller structure is valid"));
            }
        }
        out
    }
}

impl Shrinkable for Formula {
    /// Constant collapses first, then subformula promotion and
    /// conjunct/disjunct dropping. All candidates preserve the
    /// normalized shape (`And`/`Or` stay flat with ≥ 2 children) that
    /// the generators produce, so shrunk formulas still roundtrip
    /// through the parser.
    fn shrink_candidates(&self) -> Vec<Formula> {
        let mut out = Vec::new();
        if !matches!(self, Formula::True) {
            out.push(Formula::True);
        }
        if !matches!(self, Formula::False) {
            out.push(Formula::False);
        }
        match self {
            Formula::True | Formula::False | Formula::Atom { .. } | Formula::Eq(..) => {}
            Formula::Not(g) => out.push((**g).clone()),
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                out.push((**a).clone());
                out.push((**b).clone());
            }
            Formula::Exists(_, g) | Formula::Forall(_, g) => out.push((**g).clone()),
            Formula::And(fs) => {
                out.extend(fs.iter().cloned());
                if fs.len() > 2 {
                    for i in 0..fs.len() {
                        let rest: Vec<Formula> = fs
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, g)| g.clone())
                            .collect();
                        out.push(Formula::And(rest));
                    }
                }
            }
            Formula::Or(fs) => {
                out.extend(fs.iter().cloned());
                if fs.len() > 2 {
                    for i in 0..fs.len() {
                        let rest: Vec<Formula> = fs
                            .iter()
                            .enumerate()
                            .filter(|&(j, _)| j != i)
                            .map(|(_, g)| g.clone())
                            .collect();
                        out.push(Formula::Or(rest));
                    }
                }
            }
        }
        out
    }
}

impl Shrinkable for UpdateTrace {
    /// Halving first (drop the first or second half of the ops — the
    /// delta-debugging move that kills long traces fast), then
    /// single-op drops. The domain is left alone: every remaining op
    /// stays in range, and the failing poll usually depends on it.
    fn shrink_candidates(&self) -> Vec<UpdateTrace> {
        let mut out = Vec::new();
        let n = self.ops.len();
        if n >= 2 {
            for half in [&self.ops[n / 2..], &self.ops[..n / 2]] {
                out.push(UpdateTrace {
                    domain: self.domain,
                    ops: half.to_vec(),
                });
            }
        }
        for i in 0..n {
            let ops: Vec<_> = self
                .ops
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, op)| *op)
                .collect();
            out.push(UpdateTrace {
                domain: self.domain,
                ops,
            });
        }
        out
    }
}

/// Numeric parameters shrink toward zero: `0`, halving, decrement.
impl Shrinkable for u64 {
    fn shrink_candidates(&self) -> Vec<u64> {
        let v = *self;
        let mut out = Vec::new();
        for c in [0, v / 2, v.saturating_sub(1)] {
            if c < v && !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }
}

impl Shrinkable for u32 {
    fn shrink_candidates(&self) -> Vec<u32> {
        (*self as u64)
            .shrink_candidates()
            .into_iter()
            .map(|v| v as u32)
            .collect()
    }
}

/// A fuel allowance: shrinks like a number, but never to 0, since
/// replay reads a recorded fuel as at least 1 and a case shrunk to 0
/// would replay under a different budget than it failed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fuel(pub u64);

impl Shrinkable for Fuel {
    fn shrink_candidates(&self) -> Vec<Fuel> {
        (self.0.shrink_candidates().into_iter())
            .filter(|&f| f >= 1)
            .map(Fuel)
            .collect()
    }
}

/// A case component carried through minimization unchanged, such as a
/// program's text or a goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fixed<T>(pub T);

impl<T: Clone> Shrinkable for Fixed<T> {
    fn shrink_candidates(&self) -> Vec<Fixed<T>> {
        Vec::new()
    }
}

/// Parameter tuples shrink one coordinate at a time.
impl<A: Shrinkable, B: Shrinkable> Shrinkable for (A, B) {
    fn shrink_candidates(&self) -> Vec<(A, B)> {
        let mut out = Vec::new();
        for a in self.0.shrink_candidates() {
            out.push((a, self.1.clone()));
        }
        for b in self.1.shrink_candidates() {
            out.push((self.0.clone(), b));
        }
        out
    }
}

impl<A: Shrinkable, B: Shrinkable, C: Shrinkable> Shrinkable for (A, B, C) {
    fn shrink_candidates(&self) -> Vec<(A, B, C)> {
        let mut out = Vec::new();
        for a in self.0.shrink_candidates() {
            out.push((a, self.1.clone(), self.2.clone()));
        }
        for b in self.1.shrink_candidates() {
            out.push((self.0.clone(), b, self.2.clone()));
        }
        for c in self.2.shrink_candidates() {
            out.push((self.0.clone(), self.1.clone(), c));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_structures::builders;

    #[test]
    fn structure_candidates_are_smaller() {
        let s = builders::directed_cycle(4);
        for c in s.shrink_candidates() {
            assert!(
                c.size() < s.size() || c.num_tuples() < s.num_tuples(),
                "candidate not smaller"
            );
        }
        // 4 element drops + 4 tuple drops.
        assert_eq!(s.shrink_candidates().len(), 8);
    }

    #[test]
    fn formula_candidates_preserve_normalization() {
        let sig = fmt_structures::Signature::graph();
        let e = sig.relation("E").unwrap();
        let atom = |i, j| Formula::atom(e, &[fmt_logic::Var(i), fmt_logic::Var(j)]);
        let f = atom(0, 1).and(atom(1, 0)).and(Formula::True);
        for c in f.shrink_candidates() {
            if let Formula::And(fs) | Formula::Or(fs) = &c {
                assert!(fs.len() >= 2, "degenerate connective after shrink: {c:?}");
            }
        }
    }

    #[test]
    fn minimize_reaches_small_fixpoint() {
        // Failure: "structure has at least one edge". Minimal failing
        // example is a single-edge structure on few vertices.
        let s = builders::complete_graph(4);
        let (min, steps) = minimize(s, &mut |t: &Structure| t.num_tuples() >= 1, 10_000);
        assert_eq!(min.num_tuples(), 1);
        assert!(min.size() <= 2);
        assert!(steps > 0);
    }

    #[test]
    fn minimize_on_numbers() {
        // Failure: m >= 5. Greedy descent must land exactly on 5.
        let (m, _) = minimize(40u64, &mut |&v| v >= 5, 1000);
        assert_eq!(m, 5);
    }

    #[test]
    fn update_traces_shrink_to_the_guilty_op() {
        use crate::gen::UpdateOp;
        // Failure: "the trace still retracts (1, 2)". Minimal failing
        // trace is that single retraction.
        let t = UpdateTrace {
            domain: 4,
            ops: vec![
                UpdateOp::Insert(0, 1),
                UpdateOp::Poll,
                UpdateOp::Insert(1, 2),
                UpdateOp::Retract(1, 2),
                UpdateOp::Poll,
                UpdateOp::Insert(2, 3),
            ],
        };
        let (min, _) = minimize(
            t,
            &mut |c: &UpdateTrace| c.ops.contains(&UpdateOp::Retract(1, 2)),
            10_000,
        );
        assert_eq!(min.ops, vec![UpdateOp::Retract(1, 2)]);
        assert_eq!(min.domain, 4);
    }

    #[test]
    fn fuel_shrinks_to_one_and_fixed_parts_stay() {
        let always = &mut |_: &(Fuel, Fixed<&str>)| true;
        let ((fuel, Fixed(text)), _) =
            minimize((Fuel(40), Fixed("p(x) :- e(x, x).")), always, 1000);
        assert_eq!(fuel, Fuel(1));
        assert_eq!(text, "p(x) :- e(x, x).");
    }

    #[test]
    fn minimize_respects_step_cap() {
        let (_, steps) = minimize(u64::MAX, &mut |&v| v > 0, 7);
        assert!(steps <= 7);
    }
}
