//! Bottom-up, set-at-a-time FO evaluation — the relational-algebra view
//! of "FO as a query language".
//!
//! Each subformula is evaluated to the [`Table`] of its satisfying
//! assignments (a relation over its free variables). Connectives become
//! algebra operators: `∧` is a natural join, `∨` a (schema-aligned)
//! union, `∃` a projection, `∀` a division by the domain, and `¬` a
//! complement relative to `domainᵃʳⁱᵗʸ`. Cost is `O(n^width)` where
//! `width` is the number of distinct variables — the engine behind the
//! data-complexity story, and the reference implementation the
//! bounded-degree evaluator and circuit compiler are validated against.

use fmt_logic::{nf, Formula, Query, Term, Var};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::index::{self, ColumnIndex};
use fmt_structures::{Elem, Structure};
use std::collections::HashSet;

/// Budget tick site label for this engine.
const AT: &str = "eval.relalg";

/// A relation over a set of variables: the satisfying assignments of a
/// subformula. `vars` is kept sorted; each row assigns `row[i]` to
/// `vars[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// The schema: sorted distinct variables.
    pub vars: Vec<Var>,
    /// The rows, aligned with `vars`.
    pub rows: HashSet<Vec<Elem>>,
}

impl Table {
    /// The table over no variables representing `true` (one empty row)
    /// or `false` (no rows).
    pub fn boolean(b: bool) -> Table {
        let mut rows = HashSet::new();
        if b {
            rows.insert(Vec::new());
        }
        Table { vars: vec![], rows }
    }

    /// `true` iff this is a Boolean table containing the empty row.
    pub fn as_bool(&self) -> bool {
        debug_assert!(self.vars.is_empty());
        !self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Projects onto a subset of the schema (which must be contained in
    /// `self.vars`).
    fn project(&self, keep: &[Var]) -> Table {
        let idx: Vec<usize> = keep
            .iter()
            .map(|v| self.vars.binary_search(v).expect("projection var"))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| idx.iter().map(|&i| r[i]).collect())
            .collect();
        Table {
            vars: keep.to_vec(),
            rows,
        }
    }

    /// Extends the schema with missing variables, crossing with the full
    /// domain `0..n` for each — in one pass over the rows, emitting each
    /// output row directly in the target column order (rather than
    /// materializing an intermediate row set per added variable).
    /// Ticks the budget once per emitted row: the output is `n^fresh`
    /// times larger than the input, so this loop can dominate.
    fn extend_to(&self, target: &[Var], n: u32, budget: &Budget) -> BudgetResult<Table> {
        debug_assert!(target.windows(2).all(|w| w[0] < w[1]));
        if target == self.vars.as_slice() {
            return Ok(self.clone());
        }
        // Each target column is either an existing column or the next
        // fresh domain-valued one.
        enum Src {
            Old(usize),
            Fresh(usize),
        }
        let mut src: Vec<Src> = Vec::with_capacity(target.len());
        let mut fresh = 0usize;
        for &v in target {
            match self.vars.binary_search(&v) {
                Ok(i) => src.push(Src::Old(i)),
                Err(_) => {
                    src.push(Src::Fresh(fresh));
                    fresh += 1;
                }
            }
        }
        if fresh > 0 && n == 0 {
            return Ok(Table {
                vars: target.to_vec(),
                rows: HashSet::new(),
            });
        }
        // Odometer over the fresh columns; returns false on wrap-around.
        fn bump(assign: &mut [Elem], n: u32) -> bool {
            for a in assign.iter_mut().rev() {
                *a += 1;
                if *a < n {
                    return true;
                }
                *a = 0;
            }
            false
        }
        let combos = (n as usize).saturating_pow(fresh as u32);
        let mut rows: HashSet<Vec<Elem>> =
            HashSet::with_capacity(self.rows.len().saturating_mul(combos));
        let mut assign = vec![0 as Elem; fresh];
        for r in &self.rows {
            loop {
                budget.tick(AT)?;
                rows.insert(
                    src.iter()
                        .map(|c| match *c {
                            Src::Old(i) => r[i],
                            Src::Fresh(j) => assign[j],
                        })
                        .collect(),
                );
                if !bump(&mut assign, n) {
                    break;
                }
            }
        }
        Ok(Table {
            vars: target.to_vec(),
            rows,
        })
    }

    /// Natural join. Ticks the budget once per probed left row and once
    /// per produced row.
    fn join(&self, other: &Table, budget: &Budget) -> BudgetResult<Table> {
        // Shared variables and their positions.
        let shared: Vec<Var> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.vars.binary_search(v).is_ok())
            .collect();
        let self_shared: Vec<usize> = shared
            .iter()
            .map(|v| self.vars.binary_search(v).unwrap())
            .collect();
        let other_shared: Vec<usize> = shared
            .iter()
            .map(|v| other.vars.binary_search(v).unwrap())
            .collect();
        let other_extra: Vec<usize> = (0..other.vars.len())
            .filter(|i| !other_shared.contains(i))
            .collect();

        // Hash-index `other` on the shared key (the same index structure
        // the Datalog join engine probes).
        let other_rows: Vec<&[Elem]> = other.rows.iter().map(Vec::as_slice).collect();
        let mut index = ColumnIndex::new(&other_shared);
        index.extend(&other_rows[..]);

        let mut vars: Vec<Var> = self.vars.clone();
        vars.extend(other_extra.iter().map(|&i| other.vars[i]));
        let mut order: Vec<usize> = (0..vars.len()).collect();
        order.sort_by_key(|&i| vars[i]);
        let out_vars: Vec<Var> = order.iter().map(|&i| vars[i]).collect();

        let mut rows = HashSet::new();
        let mut key: Vec<Elem> = Vec::with_capacity(self_shared.len());
        for r in &self.rows {
            budget.tick(AT)?;
            key.clear();
            key.extend(self_shared.iter().map(|&i| r[i]));
            for id in index.probe(&other_rows[..], &key) {
                budget.tick(AT)?;
                let m = other_rows[id as usize];
                let mut combined: Vec<Elem> = r.clone();
                combined.extend(other_extra.iter().map(|&i| m[i]));
                let sorted: Vec<Elem> = order.iter().map(|&i| combined[i]).collect();
                rows.insert(sorted);
            }
        }
        Ok(Table {
            vars: out_vars,
            rows,
        })
    }

    /// Complement relative to `domain^vars`. Ticks the budget once per
    /// enumerated tuple — the loop visits all `n^arity` of them.
    fn complement(&self, n: u32, budget: &Budget) -> BudgetResult<Table> {
        let m = self.vars.len();
        let mut rows = HashSet::new();
        if m == 0 {
            return Ok(Table::boolean(!self.as_bool()));
        }
        let mut tuple = vec![0 as Elem; m];
        if n == 0 {
            return Ok(Table {
                vars: self.vars.clone(),
                rows,
            });
        }
        loop {
            budget.tick(AT)?;
            if !self.rows.contains(&tuple) {
                rows.insert(tuple.clone());
            }
            let mut pos = m;
            loop {
                if pos == 0 {
                    return Ok(Table {
                        vars: self.vars.clone(),
                        rows,
                    });
                }
                pos -= 1;
                tuple[pos] += 1;
                if tuple[pos] < n {
                    break;
                }
                tuple[pos] = 0;
                if pos == 0 {
                    return Ok(Table {
                        vars: self.vars.clone(),
                        rows,
                    });
                }
            }
        }
    }
}

/// Evaluates a formula bottom-up, returning the table of satisfying
/// assignments over its free variables (in sorted order).
///
/// The formula is first converted to NNF so that negation only occurs on
/// atoms (where complementation is `O(n^arity)`).
pub fn eval(s: &Structure, f: &Formula) -> Table {
    eval_budgeted(s, f, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// Budgeted [`eval`]: stops cleanly with
/// [`Exhausted`](fmt_structures::budget::Exhausted) when `budget` runs
/// out; no partial table escapes.
pub fn eval_budgeted(s: &Structure, f: &Formula, budget: &Budget) -> BudgetResult<Table> {
    let mut span = fmt_obs::trace_span!("eval.relalg.eval", size = s.size());
    let g = nf::nnf(f);
    let t = eval_nnf(s, &g, budget)?;
    span.record_field("rows", t.rows.len());
    Ok(t)
}

/// Operator applications (one per NNF node evaluated).
static OBS_OPS: fmt_obs::Counter = fmt_obs::Counter::new("eval.relalg.operators");
/// Output cardinality of each operator application.
static OBS_OP_ROWS: fmt_obs::Histogram = fmt_obs::Histogram::new("eval.relalg.op_rows");

/// Operator label for a span, one per NNF connective.
fn op_name(f: &Formula) -> &'static str {
    match f {
        Formula::True | Formula::False => "const",
        Formula::Atom { .. } => "atom",
        Formula::Eq(..) => "eq",
        Formula::Not(..) => "complement",
        Formula::And(..) => "join",
        Formula::Or(..) => "union",
        Formula::Exists(..) => "project",
        Formula::Forall(..) => "divide",
        Formula::Implies(..) | Formula::Iff(..) => "rewrite",
    }
}

fn eval_nnf(s: &Structure, f: &Formula, budget: &Budget) -> BudgetResult<Table> {
    let mut span = fmt_obs::trace_span!("eval.relalg.op", op = op_name(f));
    let t = eval_nnf_node(s, f, budget)?;
    OBS_OPS.incr();
    OBS_OP_ROWS.record(t.rows.len() as u64);
    span.record_field("rows", t.rows.len());
    Ok(t)
}

fn eval_nnf_node(s: &Structure, f: &Formula, budget: &Budget) -> BudgetResult<Table> {
    budget.tick(AT)?;
    let n = s.size();
    match f {
        Formula::True => Ok(Table::boolean(true)),
        Formula::False => Ok(Table::boolean(false)),
        Formula::Atom { rel, args } => atom_table(s, *rel, args, budget),
        Formula::Eq(a, b) => Ok(eq_table(s, a, b)),
        Formula::Not(g) => {
            // NNF: g is an atom, an equality, or a constant.
            let t = eval_nnf(s, g, budget)?;
            t.complement(n, budget)
        }
        Formula::And(fs) => {
            // Natural join of all conjuncts; the resulting schema is the
            // union of the conjunct schemas = the free variables of the
            // conjunction.
            let mut acc = Table::boolean(true);
            for g in fs {
                acc = acc.join(&eval_nnf(s, g, budget)?, budget)?;
            }
            Ok(acc)
        }
        Formula::Or(fs) => {
            let target = target_vars(f);
            let mut rows = HashSet::new();
            for g in fs {
                let t = eval_nnf(s, g, budget)?.extend_to(&target, n, budget)?;
                rows.extend(t.rows);
            }
            Ok(Table { vars: target, rows })
        }
        Formula::Exists(v, g) => {
            let t = eval_nnf(s, g, budget)?;
            if t.vars.binary_search(v).is_err() {
                // v does not occur free in the body: ∃v φ ≡ φ ∧ "domain
                // nonempty".
                if n == 0 {
                    return Ok(Table {
                        vars: t.vars.clone(),
                        rows: HashSet::new(),
                    });
                }
                return Ok(t);
            }
            let keep: Vec<Var> = t.vars.iter().copied().filter(|w| w != v).collect();
            Ok(t.project(&keep))
        }
        Formula::Forall(v, g) => {
            let t = eval_nnf(s, g, budget)?;
            if t.vars.binary_search(v).is_err() {
                // ∀v φ ≡ φ ∨ "domain empty".
                if n == 0 {
                    let mut rows = HashSet::new();
                    if t.vars.is_empty() {
                        rows.insert(Vec::new());
                    }
                    return Ok(Table {
                        vars: t.vars.clone(),
                        rows,
                    });
                }
                return Ok(t);
            }
            // Division: keep assignments whose v-extensions all hold.
            let vi = t.vars.binary_search(v).unwrap();
            let keep: Vec<Var> = t.vars.iter().copied().filter(|w| w != v).collect();
            use std::collections::HashMap;
            let mut counts: HashMap<Vec<Elem>, u32> = HashMap::new();
            for r in &t.rows {
                budget.tick(AT)?;
                let mut key = r.clone();
                key.remove(vi);
                *counts.entry(key).or_insert(0) += 1;
            }
            let rows = counts
                .into_iter()
                .filter(|&(_, c)| c == n)
                .map(|(k, _)| k)
                .collect();
            if n == 0 {
                // ∀ over the empty domain is vacuously true for every
                // assignment of the other variables — but there are no
                // assignments over an empty domain either, except the
                // empty one.
                let mut rows = HashSet::new();
                if keep.is_empty() {
                    rows.insert(Vec::new());
                }
                return Ok(Table { vars: keep, rows });
            }
            Ok(Table { vars: keep, rows })
        }
        Formula::Implies(..) | Formula::Iff(..) => {
            unreachable!("NNF output contains no implications")
        }
    }
}

fn target_vars(f: &Formula) -> Vec<Var> {
    f.free_vars().into_iter().collect()
}

fn atom_table(
    s: &Structure,
    rel: fmt_structures::RelId,
    args: &[Term],
    budget: &Budget,
) -> BudgetResult<Table> {
    // Distinct variables in sorted order form the schema.
    let mut vars: Vec<Var> = args.iter().filter_map(Term::as_var).collect();
    vars.sort_unstable();
    vars.dedup();
    // A leading run of constant arguments narrows the scan to a sorted
    // prefix range of the relation instead of the full extent.
    let prefix: Vec<Elem> = args
        .iter()
        .map_while(|a| match a {
            Term::Const(c) => Some(s.constant(*c)),
            Term::Var(_) => None,
        })
        .collect();
    let mut rows = HashSet::new();
    'tuples: for t in index::probe_prefix(s.rel(rel), &prefix) {
        budget.tick(AT)?;
        // Check constants and repeated-variable consistency.
        let mut assignment: Vec<Option<Elem>> = vec![None; vars.len()];
        for (i, a) in args.iter().enumerate() {
            match a {
                Term::Const(c) => {
                    if s.constant(*c) != t[i] {
                        continue 'tuples;
                    }
                }
                Term::Var(v) => {
                    let vi = vars.binary_search(v).unwrap();
                    match assignment[vi] {
                        None => assignment[vi] = Some(t[i]),
                        Some(prev) if prev != t[i] => continue 'tuples,
                        _ => {}
                    }
                }
            }
        }
        rows.insert(assignment.into_iter().map(Option::unwrap).collect());
    }
    Ok(Table { vars, rows })
}

fn eq_table(s: &Structure, a: &Term, b: &Term) -> Table {
    let n = s.size();
    match (a, b) {
        (Term::Const(c1), Term::Const(c2)) => Table::boolean(s.constant(*c1) == s.constant(*c2)),
        (Term::Var(v), Term::Const(c)) | (Term::Const(c), Term::Var(v)) => {
            let mut rows = HashSet::new();
            if s.constant(*c) < n {
                rows.insert(vec![s.constant(*c)]);
            }
            Table {
                vars: vec![*v],
                rows,
            }
        }
        (Term::Var(v1), Term::Var(v2)) if v1 == v2 => {
            let rows = (0..n).map(|d| vec![d]).collect();
            Table {
                vars: vec![*v1],
                rows,
            }
        }
        (Term::Var(v1), Term::Var(v2)) => {
            let mut vars = vec![*v1, *v2];
            vars.sort_unstable();
            let rows = (0..n).map(|d| vec![d, d]).collect();
            Table { vars, rows }
        }
    }
}

/// Evaluates a query and returns its sorted answer set, matching
/// [`crate::naive::answers`] (including the answer-variable order of the
/// query).
pub fn answers(s: &Structure, q: &Query) -> Vec<Vec<Elem>> {
    answers_budgeted(s, q, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// Budgeted [`answers`]: stops cleanly when `budget` runs out.
pub fn answers_budgeted(s: &Structure, q: &Query, budget: &Budget) -> BudgetResult<Vec<Vec<Elem>>> {
    let t = eval_budgeted(s, q.formula(), budget)?;
    // t.vars is sorted; q.free() may order differently.
    let idx: Vec<usize> = q
        .free()
        .iter()
        .map(|v| t.vars.binary_search(v).expect("schema mismatch"))
        .collect();
    let mut out: Vec<Vec<Elem>> = t
        .rows
        .iter()
        .map(|r| idx.iter().map(|&i| r[i]).collect())
        .collect();
    out.sort_unstable();
    Ok(out)
}

/// Checks a sentence via bottom-up evaluation.
pub fn check_sentence(s: &Structure, f: &Formula) -> bool {
    check_sentence_budgeted(s, f, &Budget::unlimited()).expect("unlimited budget cannot exhaust")
}

/// Budgeted [`check_sentence`]: stops cleanly when `budget` runs out.
///
/// # Panics
/// Panics if `f` has free variables.
pub fn check_sentence_budgeted(s: &Structure, f: &Formula, budget: &Budget) -> BudgetResult<bool> {
    assert!(f.is_sentence(), "check_sentence requires a sentence");
    Ok(eval_budgeted(s, f, budget)?.as_bool())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_logic::{library, Query};
    use fmt_structures::{builders, Signature};

    #[test]
    fn agrees_with_naive_on_suite() {
        let sig = Signature::graph();
        let e = sig.relation("E").unwrap();
        let structures = vec![
            builders::directed_path(5),
            builders::undirected_cycle(6),
            builders::complete_graph(4),
            builders::empty_graph(4),
            builders::full_binary_tree(2),
            builders::empty_graph(0),
        ];
        let sentences = vec![
            library::at_least(3),
            library::k_clique(e, 3),
            library::k_path(e, 2),
            library::q1_all_pairs_adjacent(e),
            library::q2_distinguishing_neighbor(e),
            library::dominating_vertex(e),
            library::no_isolated_vertex(e),
        ];
        for s in &structures {
            for f in &sentences {
                assert_eq!(
                    check_sentence(s, f),
                    crate::naive::check_sentence(s, f),
                    "disagreement on {} over size {}",
                    f.display(&sig),
                    s.size()
                );
            }
        }
    }

    #[test]
    fn agrees_with_naive_on_open_queries() {
        let sig = Signature::graph();
        let queries = [
            "E(x, y)",
            "exists z. E(x, z) & E(z, y)",
            "!E(x, y) & !(x = y)",
            "forall z. E(z, x) -> E(z, y)",
            "E(x, x) | exists y. E(x, y) & !(y = x)",
        ];
        let structures = vec![
            builders::directed_path(4),
            builders::undirected_cycle(5),
            builders::full_binary_tree(2),
        ];
        for src in queries {
            let q = Query::parse(&sig, src).unwrap();
            for s in &structures {
                assert_eq!(
                    answers(s, &q),
                    crate::naive::answers(s, &q),
                    "disagreement on {src} over size {}",
                    s.size()
                );
            }
        }
    }

    #[test]
    fn join_with_shared_and_fresh_vars() {
        let sig = Signature::graph();
        let q = Query::parse(&sig, "E(x, y) & E(y, z)").unwrap();
        let s = builders::directed_path(4);
        let a = answers(&s, &q);
        assert_eq!(a, vec![vec![0, 1, 2], vec![1, 2, 3]]);
    }

    #[test]
    fn union_aligns_schemas() {
        let sig = Signature::graph();
        // x free on one side only.
        let q = Query::parse(&sig, "E(x, y) | E(y, x)").unwrap();
        let s = builders::directed_path(3);
        let a = answers(&s, &q);
        assert_eq!(a, vec![vec![0, 1], vec![1, 0], vec![1, 2], vec![2, 1]]);
    }

    #[test]
    fn negated_atom_complement() {
        let sig = Signature::graph();
        let q = Query::parse(&sig, "!E(x, y)").unwrap();
        let s = builders::complete_graph(3);
        // Complete loop-free graph: only the diagonal is missing.
        let a = answers(&s, &q);
        assert_eq!(a, vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
    }

    #[test]
    fn forall_division() {
        let sig = Signature::graph();
        // Vertices dominated by every vertex: ∀y (y = x ∨ E(y,x)).
        let q = Query::parse(&sig, "forall y. y = x | E(y, x)").unwrap();
        let k3 = builders::complete_graph(3);
        assert_eq!(answers(&k3, &q).len(), 3);
        let p3 = builders::directed_path(3);
        assert!(answers(&p3, &q).is_empty());
    }

    #[test]
    fn vacuous_quantifiers() {
        let sig = Signature::graph();
        let s2 = builders::empty_graph(2);
        let s0 = builders::empty_graph(0);
        let f = Query::parse_sentence(&sig, "exists x. true").unwrap();
        assert!(check_sentence(&s2, f.formula()));
        assert!(!check_sentence(&s0, f.formula()));
        let g = Query::parse_sentence(&sig, "forall x. false").unwrap();
        assert!(!check_sentence(&s2, g.formula()));
        assert!(check_sentence(&s0, g.formula()));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let sig = Signature::graph();
        let q = Query::parse(&sig, "E(x, x)").unwrap();
        let s = builders::directed_cycle(1); // one self-loop
        assert_eq!(answers(&s, &q), vec![vec![0]]);
        let t = builders::directed_path(3);
        assert!(answers(&t, &q).is_empty());
    }

    #[test]
    fn equality_tables() {
        let sig = Signature::graph();
        let q = Query::parse(&sig, "x = y").unwrap();
        let s = builders::empty_graph(3);
        assert_eq!(answers(&s, &q), vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
    }
}
