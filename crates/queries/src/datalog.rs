//! A Datalog engine with naive, semi-naive, and indexed/parallel
//! semi-naive evaluation.
//!
//! The survey's same-generation example is a Datalog program:
//!
//! ```text
//! sg(x, x).
//! sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).
//! ```
//!
//! On a full binary tree of depth `d` its output realizes all degrees
//! `1, 2, 4, …, 2^d` — violating the BNDP, hence not FO-definable
//! (experiment E7). Transitive closure is the other canonical fixpoint
//! query. Both ship as ready-made [`Program`]s; arbitrary programs can
//! be parsed from the textual syntax above.
//!
//! Semantics notes:
//!
//! * EDB predicates are the relations of the input structure, matched
//!   by name case-insensitively (`e` ↦ relation `E`);
//! * nullary predicates are written `p` or `p()`;
//! * head variables not bound by the body range over the **whole
//!   domain** (the paper's `sg(x, x) :-` fact means "for every element
//!   x"), which relaxes the usual range-restriction requirement;
//! * [`Program::eval_naive`] recomputes all rules to fixpoint;
//!   [`Program::eval_seminaive`] focuses each recursive rule on the
//!   latest delta — same fixpoint, far fewer rule instantiations.
//!
//! Evaluation engine (see `docs/join-engine.md` and `docs/storage.md`):
//! rule bodies are joined in a greedy order (most-bound,
//! smallest-extent atom first) by the planner and kernel this engine
//! shares with the incremental runtime, and bound-position lookups
//! probe hash or sorted-prefix indexes from [`fmt_structures::index`]
//! instead of rescanning extents. Both indexed engines are one
//! fixpoint driver (`join::Fixpoint`, shared with the runtime) over the
//! input's sorted relations: the semi-naive engine runs each stratum
//! through it (an initialization pass, then delta rounds planned once
//! per `(rule, delta position)`), the naive engine repeats its
//! driverless pass. Every round runs its rule applications inline
//! below 512 driver rows and hash-sharded across scoped workers above,
//! then merges their staged output into the stores in a fixed order
//! (`join::Runner`). IDB extents live in
//! columnar [`TupleStore`] arenas: the kernel walks `u32` row ids and
//! per-column slices, a delta is the list of rows the last round
//! appended, and the steady-state join loop performs no
//! per-derived-tuple heap allocation. The original
//! written-order nested-loop evaluator survives as
//! [`Program::eval_seminaive_scan`] — the baseline the `datalog` bench
//! and the `queries.index.*` counters are compared against, still on
//! the old `HashSet<Vec<Elem>>` representation as a differential
//! oracle.

use crate::join::{Fixpoint, SortedEdb};
use fmt_structures::budget::{Budget, BudgetResult, Exhausted};
use fmt_structures::index::ColumnIndex;
use fmt_structures::par::resolve_threads;
use fmt_structures::store::TupleStore;
use fmt_structures::{Elem, Interner, RelId, Signature, Span, Structure};
use std::collections::HashSet;
use std::sync::Arc;

/// Budget tick site label shared by all three Datalog engines.
const AT: &str = "queries.datalog";

/// Fixpoint rounds of semi-naive evaluation (the initialization pass
/// counts as round one, mirroring `Output::iterations`).
static OBS_ROUNDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.rounds");
/// New facts discovered across all semi-naive rounds.
static OBS_DELTA_FACTS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.delta_facts");
/// New facts per semi-naive round (the engine's termination signal).
static OBS_DELTA_SIZE: fmt_obs::Histogram = fmt_obs::Histogram::new("queries.datalog.delta_size");
/// Fixpoint rounds of the naive reference evaluator.
static OBS_NAIVE_ROUNDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.naive_rounds");
/// Tuples visited by the written-order nested-loop join of the scan
/// evaluator ([`Program::eval_seminaive_scan`]) — the "old scan
/// counter" the indexed engine's `queries.index.probes` is measured
/// against.
static OBS_SCAN_TUPLES: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.scan_tuples");

/// A Datalog variable (local to a rule).
type DlVar = u32;

/// A predicate: either an input relation (EDB) or a derived one (IDB).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pred {
    /// An EDB predicate: a relation of the input structure.
    Edb(RelId),
    /// An IDB predicate, by index into the program's IDB table.
    Idb(usize),
}

/// An atom `p(v₁, …, vₖ)` in a rule (variables only; repeated variables
/// express equality constraints). A body atom may be negated (`!p(x)`
/// or `not p(x)`), read as stratified set difference: the tuple must be
/// **absent** from the predicate's completed lower-stratum extent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// The predicate.
    pub pred: Pred,
    /// Argument variables.
    pub args: Vec<DlVar>,
    /// `true` for a negated body atom (heads are never negated).
    pub negated: bool,
}

/// A rule `head :- body₁, …, bodyₖ` (empty body = a fact schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom (always an IDB predicate).
    pub head: Atom,
    /// The body atoms.
    pub body: Vec<Atom>,
}

/// A validated Datalog program over a fixed input signature.
#[derive(Debug, Clone)]
pub struct Program {
    sig: std::sync::Arc<Signature>,
    idb_names: Vec<String>,
    idb_arity: Vec<usize>,
    /// Shared with every [`Fixpoint`] evaluating the program.
    pub(crate) rules: Arc<[Rule]>,
}

/// The result of evaluating a program: one tuple set per IDB predicate,
/// plus work counters.
#[derive(Debug, Clone)]
pub struct Output {
    relations: Vec<TupleStore>,
    /// Fixpoint iterations performed.
    pub iterations: usize,
    /// Tuples produced across all rule applications (incl. duplicates).
    pub derivations: u64,
    /// New facts added per fixpoint round (summed over all IDB
    /// predicates), including the final round that added nothing. The
    /// perf harness uses this to model the scan engine's cost exactly.
    pub delta_history: Vec<u64>,
}

impl Output {
    /// The tuples of an IDB predicate, as a columnar [`TupleStore`]
    /// (set semantics live in its `PartialEq`; iterate for the rows).
    pub fn relation(&self, idb: usize) -> &TupleStore {
        &self.relations[idb]
    }
}

pub(crate) fn is_ident(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// A Datalog parse error with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatalogParseError {
    /// Byte offset into the source at which the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
    /// Byte range of the offending clause, atom, or name
    /// (`offset == span.start`).
    pub span: Span,
}

impl DatalogParseError {
    pub(crate) fn new(span: Span, message: impl Into<String>) -> DatalogParseError {
        DatalogParseError {
            offset: span.start,
            message: message.into(),
            span,
        }
    }
}

impl std::fmt::Display for DatalogParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DatalogParseError {}

/// Why a budgeted evaluation stopped without an [`Output`]: either the
/// budget ran out mid-fixpoint, or the stratification precheck rejected
/// the program statically — before a single tuple was derived.
///
/// The static cases mirror the `fmt-lint` codes D006 and D007 exactly:
/// a program the linter flags as unstratifiable (D006) or unsafely
/// negated (D007) produces the matching typed error from every engine,
/// never a panic, and vice versa.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The budget ran out (see [`Exhausted`]); no partial output is
    /// left behind.
    Exhausted(Exhausted),
    /// A negated body atom lies inside a recursive component of the
    /// predicate dependency graph, so no stratification exists
    /// (lint code D006).
    Unstratifiable {
        /// Rule index of the offending negative dependency edge.
        rule: usize,
        /// Body-atom index of the negated atom inducing it.
        atom: usize,
        /// Name of the negated predicate.
        pred: String,
        /// IDB predicate names of the recursive component the edge
        /// closes, for diagnostics.
        cycle: Vec<String>,
    },
    /// A negated body atom uses a variable that no positive body atom
    /// of the same rule binds (lint code D007).
    UnsafeNegation {
        /// Rule index.
        rule: usize,
        /// Body-atom index of the negated atom.
        atom: usize,
        /// The unbound variable as a rule-local id;
        /// [`ParsedProgram::var_names`] maps it back to its source name.
        var: u32,
    },
}

impl EvalError {
    /// Unwraps the [`EvalError::Exhausted`] case. Panics on the static
    /// stratification errors — for callers that know their program is
    /// negation-free and only budget exhaustion is possible.
    pub fn into_exhausted(self) -> Exhausted {
        match self {
            EvalError::Exhausted(e) => e,
            other => panic!("static evaluation error on a supposedly clean program: {other}"),
        }
    }
}

impl From<Exhausted> for EvalError {
    fn from(e: Exhausted) -> EvalError {
        EvalError::Exhausted(e)
    }
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Exhausted(e) => e.fmt(f),
            EvalError::Unstratifiable {
                rule, pred, cycle, ..
            } => write!(
                f,
                "program is not stratifiable: rule {} negates {} inside the recursive component {{{}}}",
                rule,
                pred,
                cycle.join(", ")
            ),
            EvalError::UnsafeNegation { rule, atom, .. } => write!(
                f,
                "unsafe negation: rule {rule}, body atom {atom} uses a variable no positive atom binds"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Byte spans of one atom: the whole atom, the predicate name, and
/// each argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpans {
    /// The whole atom, `p(x, y)`.
    pub span: Span,
    /// The predicate name.
    pub pred: Span,
    /// One span per argument, aligned with [`Atom::args`].
    pub args: Vec<Span>,
}

/// Byte spans of one rule, aligned with the corresponding [`Rule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpans {
    /// The whole rule, excluding the terminating `.`.
    pub span: Span,
    /// The head atom.
    pub head: AtomSpans,
    /// The body atoms, in order.
    pub body: Vec<AtomSpans>,
}

/// The result of [`Program::parse_spanned`]: the program plus the byte
/// span and source variable names of every rule — the location
/// substrate for `fmt-lint`'s Datalog diagnostics.
#[derive(Debug, Clone)]
pub struct ParsedProgram {
    /// The parsed program.
    pub program: Program,
    /// `spans[i]` mirrors `program.rules()[i]`.
    pub spans: Vec<RuleSpans>,
    /// `var_names[i][v]` is the source name of rule `i`'s variable `v`.
    pub var_names: Vec<Vec<String>>,
}

/// Shrinks a span to the non-whitespace core of the text it covers.
pub(crate) fn trim_span(src: &str, span: Span) -> Span {
    let s = span.slice(src);
    let start = span.start + (s.len() - s.trim_start().len());
    Span::new(start, start + s.trim().len())
}

impl Program {
    /// Parses a program; each line is `head :- a1, a2, ... .` or a
    /// body-less `head.` / `head :- .`. Predicates matching a relation
    /// name of `sig` (case-insensitively) are EDB; all others must
    /// appear in some head and are IDB. Nullary atoms are written `p`
    /// or `p()`. Errors are flattened to strings; see
    /// [`Program::parse_spanned`] for positions and spans.
    pub fn parse(sig: &std::sync::Arc<Signature>, src: &str) -> Result<Program, String> {
        Program::parse_spanned(sig, src)
            .map(|p| p.program)
            .map_err(|e| e.to_string())
    }

    /// Parses a program, returning it together with the byte span of
    /// every rule, atom, predicate name, and argument, plus the
    /// per-rule variable-name tables. Every error carries the byte
    /// range it was detected at.
    pub fn parse_spanned(
        sig: &std::sync::Arc<Signature>,
        src: &str,
    ) -> Result<ParsedProgram, DatalogParseError> {
        struct RawAtom {
            pred: String,
            args: Vec<String>,
            negated: bool,
            span: Span,
            pred_span: Span,
            arg_spans: Vec<Span>,
        }
        fn parse_atom(src: &str, span: Span) -> Result<RawAtom, DatalogParseError> {
            // A `!` or `not ` prefix marks a negated atom; the atom's
            // span keeps the prefix so diagnostics underline all of
            // `!p(x)`, while the predicate and argument spans come from
            // the bare atom after it.
            let outer = trim_span(src, span);
            let prefix = outer.slice(src);
            let (negated, span) = if prefix.starts_with('!') {
                (true, trim_span(src, Span::new(outer.start + 1, outer.end)))
            } else if prefix.len() > 3
                && prefix.starts_with("not")
                && prefix.as_bytes()[3].is_ascii_whitespace()
            {
                (true, trim_span(src, Span::new(outer.start + 3, outer.end)))
            } else {
                (false, outer)
            };
            let t = span.slice(src);
            let Some(open) = t.find('(') else {
                // No argument list at all: a nullary atom, provided the
                // whole token is a plain identifier.
                if is_ident(t) {
                    return Ok(RawAtom {
                        pred: t.to_owned(),
                        args: Vec::new(),
                        negated,
                        span: outer,
                        pred_span: span,
                        arg_spans: Vec::new(),
                    });
                }
                return Err(DatalogParseError::new(
                    span,
                    format!("missing '(' in {t:?}"),
                ));
            };
            let close = t
                .rfind(')')
                .filter(|&c| c > open)
                .ok_or_else(|| DatalogParseError::new(span, format!("missing ')' in {t:?}")))?;
            let pred_span = trim_span(src, Span::new(span.start, span.start + open));
            let pred = pred_span.slice(src).to_owned();
            if pred.is_empty() {
                return Err(DatalogParseError::new(
                    Span::point(span.start + open),
                    format!("empty predicate name in {t:?}"),
                ));
            }
            let inner_span = trim_span(src, Span::new(span.start + open + 1, span.start + close));
            let mut args = Vec::new();
            let mut arg_spans = Vec::new();
            if !inner_span.is_empty() {
                // Split the argument list on commas (atoms are flat).
                let inner = inner_span.slice(src);
                let bytes = inner.as_bytes();
                let mut piece_start = inner_span.start;
                for i in 0..=bytes.len() {
                    if i < bytes.len() && bytes[i] != b',' {
                        continue;
                    }
                    let a = trim_span(src, Span::new(piece_start, inner_span.start + i));
                    if a.is_empty() {
                        return Err(DatalogParseError::new(
                            a,
                            format!("empty argument in {t:?}"),
                        ));
                    }
                    args.push(a.slice(src).to_owned());
                    arg_spans.push(a);
                    piece_start = inner_span.start + i + 1;
                }
            }
            Ok(RawAtom {
                pred,
                args,
                negated,
                span: outer,
                pred_span,
                arg_spans,
            })
        }

        // Split on '.' (a missing final dot is tolerated), keeping the
        // byte range of every clause.
        let mut raw_rules: Vec<(RawAtom, Vec<RawAtom>, Span)> = Vec::new();
        let bytes = src.as_bytes();
        let mut clause_start = 0usize;
        for i in 0..=bytes.len() {
            if i < bytes.len() && bytes[i] != b'.' {
                continue;
            }
            let clause = trim_span(src, Span::new(clause_start, i));
            clause_start = i + 1;
            if clause.is_empty() {
                continue;
            }
            let text = clause.slice(src);
            let (head_span, body_span) = match text.find(":-") {
                Some(p) => (
                    Span::new(clause.start, clause.start + p),
                    Some(trim_span(src, Span::new(clause.start + p + 2, clause.end))),
                ),
                None => (clause, None),
            };
            let head = parse_atom(src, head_span)?;
            let mut body = Vec::new();
            if let Some(bs) = body_span.filter(|b| !b.is_empty()) {
                // Split body on commas at depth zero.
                let bbytes = bs.slice(src).as_bytes().to_vec();
                let mut depth = 0usize;
                let mut start = bs.start;
                for (j, &c) in bbytes.iter().enumerate() {
                    match c {
                        b'(' => depth += 1,
                        b')' => depth = depth.saturating_sub(1),
                        b',' if depth == 0 => {
                            body.push(parse_atom(src, Span::new(start, bs.start + j))?);
                            start = bs.start + j + 1;
                        }
                        _ => {}
                    }
                }
                body.push(parse_atom(src, Span::new(start, bs.end))?);
            }
            raw_rules.push((head, body, clause));
        }
        if raw_rules.is_empty() {
            return Err(DatalogParseError::new(Span::point(0), "empty program"));
        }

        let lookup_edb = |name: &str| -> Option<RelId> {
            sig.relations()
                .find(|(_, n, _)| n.eq_ignore_ascii_case(name))
                .map(|(r, _, _)| r)
        };

        // IDB predicates: all head predicates, in order of appearance.
        let mut idb_names: Vec<String> = Vec::new();
        let mut idb_arity: Vec<usize> = Vec::new();
        for (head, _, _) in &raw_rules {
            if head.negated {
                return Err(DatalogParseError::new(
                    head.span,
                    format!("rule head {} cannot be negated", head.pred),
                ));
            }
            if lookup_edb(&head.pred).is_some() {
                return Err(DatalogParseError::new(
                    head.pred_span,
                    format!("cannot redefine EDB predicate {}", head.pred),
                ));
            }
            match idb_names.iter().position(|n| n == &head.pred) {
                Some(i) => {
                    if idb_arity[i] != head.args.len() {
                        return Err(DatalogParseError::new(
                            head.span,
                            format!("inconsistent arity for {}", head.pred),
                        ));
                    }
                }
                None => {
                    idb_names.push(head.pred.clone());
                    idb_arity.push(head.args.len());
                }
            }
        }
        // A *negated* body atom may name a predicate with no defining
        // rule: it is registered as a rule-less IDB (empty extent, so
        // the negation is vacuously true — lint code D008 flags it).
        // Positive references to unknown predicates remain errors.
        for (_, body, _) in &raw_rules {
            for raw in body {
                if !raw.negated || lookup_edb(&raw.pred).is_some() {
                    continue;
                }
                match idb_names.iter().position(|n| n == &raw.pred) {
                    Some(i) => {
                        if idb_arity[i] != raw.args.len() {
                            return Err(DatalogParseError::new(
                                raw.span,
                                format!("inconsistent arity for {}", raw.pred),
                            ));
                        }
                    }
                    None => {
                        idb_names.push(raw.pred.clone());
                        idb_arity.push(raw.args.len());
                    }
                }
            }
        }

        let mut rules = Vec::new();
        let mut spans = Vec::new();
        let mut var_names = Vec::new();
        let atom_spans = |raw: &RawAtom| AtomSpans {
            span: raw.span,
            pred: raw.pred_span,
            args: raw.arg_spans.clone(),
        };
        for (head, body, clause) in &raw_rules {
            // Per-rule variable table: source names interned to dense
            // ids in first-occurrence order (head first, then body).
            let mut vars = Interner::new();
            let resolve = |raw: &RawAtom, vars: &mut Interner| -> Result<Atom, DatalogParseError> {
                let pred = if let Some(r) = lookup_edb(&raw.pred) {
                    if sig.arity(r) != raw.args.len() {
                        return Err(DatalogParseError::new(
                            raw.span,
                            format!(
                                "EDB predicate {} has arity {}, atom has {}",
                                raw.pred,
                                sig.arity(r),
                                raw.args.len()
                            ),
                        ));
                    }
                    Pred::Edb(r)
                } else {
                    let i = idb_names
                        .iter()
                        .position(|n| n == &raw.pred)
                        .ok_or_else(|| {
                            DatalogParseError::new(
                                raw.pred_span,
                                format!("unknown predicate {}", raw.pred),
                            )
                        })?;
                    if idb_arity[i] != raw.args.len() {
                        return Err(DatalogParseError::new(
                            raw.span,
                            format!("inconsistent arity for {}", raw.pred),
                        ));
                    }
                    Pred::Idb(i)
                };
                Ok(Atom {
                    pred,
                    args: raw.args.iter().map(|a| vars.intern(a)).collect(),
                    negated: raw.negated,
                })
            };
            let h = resolve(head, &mut vars)?;
            let b: Result<Vec<Atom>, DatalogParseError> =
                body.iter().map(|a| resolve(a, &mut vars)).collect();
            rules.push(Rule { head: h, body: b? });
            spans.push(RuleSpans {
                span: *clause,
                head: atom_spans(head),
                body: body.iter().map(atom_spans).collect(),
            });
            var_names.push(vars.into_names());
        }
        Ok(ParsedProgram {
            program: Program {
                sig: sig.clone(),
                idb_names,
                idb_arity,
                rules: rules.into(),
            },
            spans,
            var_names,
        })
    }

    /// Assembles a program directly from resolved parts — the back door
    /// used by [`crate::magic`]'s rewriter, which synthesizes adorned
    /// and `magic_*` predicates that have no source text to parse.
    /// Callers are responsible for the parser's invariants: head
    /// predicates are IDBs, arities are consistent, and every
    /// `Pred::Idb` index is in range.
    pub(crate) fn from_parts(
        sig: std::sync::Arc<Signature>,
        idb_names: Vec<String>,
        idb_arity: Vec<usize>,
        rules: Vec<Rule>,
    ) -> Program {
        Program {
            sig,
            idb_names,
            idb_arity,
            rules: rules.into(),
        }
    }

    /// The input signature the program was parsed against.
    pub fn signature(&self) -> &std::sync::Arc<Signature> {
        &self.sig
    }

    /// The survey's transitive-closure program over the graph signature.
    pub fn transitive_closure() -> Program {
        Program::parse(
            &Signature::graph(),
            "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z).",
        )
        .expect("canned program parses")
    }

    /// The survey's same-generation program over the graph signature
    /// (`e` is the parent→child relation).
    pub fn same_generation() -> Program {
        Program::parse(
            &Signature::graph(),
            "sg(x, x). sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).",
        )
        .expect("canned program parses")
    }

    /// Index of an IDB predicate by name.
    pub fn idb(&self, name: &str) -> Option<usize> {
        self.idb_names.iter().position(|n| n == name)
    }

    /// Number of IDB predicates.
    pub fn num_idbs(&self) -> usize {
        self.idb_names.len()
    }

    /// Name and arity of an IDB predicate.
    pub fn idb_info(&self, idb: usize) -> (&str, usize) {
        (&self.idb_names[idb], self.idb_arity[idb])
    }

    /// The rules of the program.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// `true` if any body atom is negated. Negation-free programs skip
    /// the dependency analysis entirely and evaluate on the exact
    /// pre-stratification path.
    pub fn has_negation(&self) -> bool {
        self.rules.iter().any(|r| r.body.iter().any(|a| a.negated))
    }

    /// Rule indices grouped by evaluation stratum, lowest first — the
    /// driver schedule shared by all three engines. Negation-free
    /// programs short-circuit to a single stratum holding every rule in
    /// written order (bit-identical to the pre-stratification engines);
    /// otherwise the [`crate::depgraph`] analysis runs and
    /// unstratifiable or unsafe programs are rejected with a typed
    /// error.
    pub(crate) fn eval_strata(&self) -> Result<Vec<Vec<usize>>, EvalError> {
        if !self.has_negation() {
            return Ok(vec![(0..self.rules.len()).collect()]);
        }
        let analysis = crate::depgraph::DepAnalysis::of(self);
        if let Some(v) = analysis.violations.first() {
            return Err(EvalError::Unstratifiable {
                rule: v.rule,
                atom: v.atom,
                pred: self.idb_info(v.dep).0.to_owned(),
                cycle: analysis.sccs[analysis.scc_of[v.dep]]
                    .iter()
                    .map(|&j| self.idb_info(j).0.to_owned())
                    .collect(),
            });
        }
        if let Some(u) = analysis.unsafe_negs.first() {
            return Err(EvalError::UnsafeNegation {
                rule: u.rule,
                atom: u.atom,
                var: u.var,
            });
        }
        let strat = analysis
            .stratification
            .expect("violation-free analyses carry a stratification");
        Ok(strat.rules_by_stratum)
    }

    fn check_structure(&self, s: &Structure) {
        assert_eq!(
            s.signature(),
            &self.sig,
            "structure signature does not match program signature"
        );
    }

    pub(crate) fn new_store(&self) -> Vec<IdbStore> {
        self.idb_arity.iter().map(|&a| IdbStore::new(a)).collect()
    }

    /// Naive bottom-up evaluation: apply every rule on the full IDB
    /// extent until nothing new is derived, stratum by stratum for
    /// programs with negation. Rule bodies are joined in greedy
    /// index-probing order (same answers as written order).
    ///
    /// # Panics
    /// Panics if the program is unstratifiable or uses unsafe negation;
    /// use [`Program::try_eval_naive`] for a typed [`EvalError`].
    pub fn eval_naive(&self, s: &Structure) -> Output {
        self.try_eval_naive(s, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust and program must be stratifiable")
    }

    /// Budgeted [`Program::eval_naive`]: consults `budget` on every
    /// join step and stops cleanly with [`EvalError::Exhausted`] when
    /// it runs out, leaving no partial output behind. Programs with
    /// negation are stratified first; unstratifiable or unsafe ones are
    /// rejected with the matching static [`EvalError`] before any
    /// evaluation work.
    pub fn try_eval_naive(&self, s: &Structure, budget: &Budget) -> Result<Output, EvalError> {
        self.check_structure(s);
        let strata = self.eval_strata()?;
        let eval_span =
            fmt_obs::trace_span!("datalog.eval", engine = "naive", rules = self.rules.len());
        let mut fx = Fixpoint::new(self, SortedEdb::new(s), s.size(), 1, AT);
        let mut derivations = 0u64;
        let mut delta_history = Vec::new();
        for rules_in in &strata {
            loop {
                OBS_NAIVE_ROUNDS.incr();
                let mut round_span =
                    fmt_obs::trace_span!("datalog.round", round = delta_history.len() + 1);
                let (new, derived) = fx.pass(rules_in, budget)?;
                derivations += derived;
                let added = new.iter().map(Vec::len).sum::<usize>() as u64;
                delta_history.push(added);
                round_span.record_field("new", added);
                if added == 0 {
                    break;
                }
            }
        }
        Ok(output(fx, eval_span, derivations, delta_history))
    }

    /// Semi-naive evaluation with the indexed, join-ordered, parallel
    /// engine and an automatic worker count
    /// ([`fmt_structures::par::resolve_threads`]).
    pub fn eval_seminaive(&self, s: &Structure) -> Output {
        self.eval_seminaive_with(s, 0)
    }

    /// Semi-naive evaluation: recursive rules are re-applied with one
    /// IDB body atom restricted to the last iteration's delta, joined
    /// in greedy index-probing order, with the per-round rule×delta
    /// applications hash-sharded across `threads` scoped workers
    /// (`0` = automatic). Small rounds run inline — sharding only pays
    /// once a round carries enough delta tuples.
    pub fn eval_seminaive_with(&self, s: &Structure, threads: usize) -> Output {
        self.try_eval_seminaive_with(s, threads, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust and program must be stratifiable")
    }

    /// Budgeted [`Program::eval_seminaive_with`]: every worker shard
    /// shares `budget` (one cheap clone each), so fuel exhaustion or an
    /// external [`Budget::cancel`] stops all shards cooperatively — the
    /// first shard to observe exhaustion makes every other shard's next
    /// tick fail too. Programs with negation evaluate stratum by
    /// stratum (negated atoms probe the completed lower strata);
    /// unstratifiable or unsafe ones are rejected with a static
    /// [`EvalError`] before any evaluation work.
    pub fn try_eval_seminaive_with(
        &self,
        s: &Structure,
        threads: usize,
        budget: &Budget,
    ) -> Result<Output, EvalError> {
        self.check_structure(s);
        let strata = self.eval_strata()?;
        let threads = resolve_threads(threads);
        let eval_span = fmt_obs::trace_span!(
            "datalog.eval",
            engine = "indexed",
            rules = self.rules.len(),
            threads = threads
        );
        let mut fx = Fixpoint::new(self, SortedEdb::new(s), s.size(), threads, AT);
        let mut derivations = 0u64;
        let mut delta_history: Vec<u64> = Vec::new();
        // Each stratum's initialization pass joins its rules over the
        // completed lower strata (and its own still-empty heads); its
        // new rows are the first delta. Lower-stratum extents stop
        // growing once their stratum completes, so they never drive a
        // job again.
        for rules_in in &strata {
            fx.stratum(rules_in, budget, &mut |new, derived| {
                derivations += derived;
                OBS_ROUNDS.incr();
                OBS_DELTA_FACTS.add(new);
                OBS_DELTA_SIZE.record(new);
                delta_history.push(new);
            })?;
        }
        Ok(output(fx, eval_span, derivations, delta_history))
    }

    /// Semi-naive evaluation by the original written-order nested-loop
    /// join — no indexes, no reordering, no parallelism. Kept as the
    /// measured baseline for the indexed engine (its per-tuple work is
    /// the `queries.datalog.scan_tuples` counter).
    pub fn eval_seminaive_scan(&self, s: &Structure) -> Output {
        self.try_eval_seminaive_scan(s, &Budget::unlimited())
            .expect("unlimited budget cannot exhaust and program must be stratifiable")
    }

    /// Budgeted [`Program::eval_seminaive_scan`]. Programs with
    /// negation evaluate stratum by stratum, with negated atoms checked
    /// as `HashSet` membership against the completed lower strata — an
    /// implementation deliberately independent of the indexed kernel's
    /// anti-join probes.
    pub fn try_eval_seminaive_scan(
        &self,
        s: &Structure,
        budget: &Budget,
    ) -> Result<Output, EvalError> {
        self.check_structure(s);
        let strata = self.eval_strata()?;
        let mut eval_span =
            fmt_obs::trace_span!("datalog.eval", engine = "scan", rules = self.rules.len());
        let k = self.idb_names.len();
        let mut total: Vec<HashSet<Vec<Elem>>> = vec![HashSet::new(); k];
        let mut derivations = 0u64;
        let mut delta_history: Vec<u64> = Vec::new();
        let mut iterations = 0usize;

        for rules_in in &strata {
            // Stratum initialization: this stratum's rules on the
            // completed lower strata (their own heads are still empty).
            let init_span = fmt_obs::trace_span!("datalog.init");
            let mut delta: Vec<HashSet<Vec<Elem>>> = vec![HashSet::new(); k];
            for &ri in rules_in {
                let rule = &self.rules[ri];
                let mut rule_span =
                    fmt_obs::trace_span!("datalog.rule", rule = ri, round = iterations + 1);
                let mut rule_derived = 0u64;
                self.apply_rule_scan(s, rule, &total, None, budget, &mut |idb, t| {
                    rule_derived += 1;
                    delta[idb].insert(t);
                })?;
                derivations += rule_derived;
                rule_span.record_field("derived", rule_derived);
            }
            for (t, d) in total.iter_mut().zip(delta.iter()) {
                t.extend(d.iter().cloned());
            }
            drop(init_span);
            let initial_facts: usize = delta.iter().map(HashSet::len).sum();
            iterations += 1;
            OBS_ROUNDS.incr();
            OBS_DELTA_FACTS.add(initial_facts as u64);
            OBS_DELTA_SIZE.record(initial_facts as u64);
            delta_history.push(initial_facts as u64);

            while delta.iter().any(|d| !d.is_empty()) {
                iterations += 1;
                OBS_ROUNDS.incr();
                let total_delta: usize = delta.iter().map(HashSet::len).sum();
                let mut round_span =
                    fmt_obs::trace_span!("datalog.round", round = iterations, delta = total_delta);
                let mut next: Vec<HashSet<Vec<Elem>>> = vec![HashSet::new(); k];
                for &ri in rules_in {
                    let rule = &self.rules[ri];
                    // One application per positive IDB body-atom
                    // position, with that atom reading the delta
                    // (negated atoms are membership checks, never
                    // delta drivers).
                    for (pos, atom) in rule.body.iter().enumerate() {
                        if atom.negated {
                            continue;
                        }
                        if let Pred::Idb(j) = atom.pred {
                            if delta[j].is_empty() {
                                continue;
                            }
                            let mut rule_span = fmt_obs::trace_span!(
                                "datalog.rule",
                                rule = ri,
                                pos = pos,
                                round = iterations,
                                tuples = delta[j].len()
                            );
                            let mut rule_derived = 0u64;
                            self.apply_rule_scan(
                                s,
                                rule,
                                &total,
                                Some((pos, &delta)),
                                budget,
                                &mut |idb, t| {
                                    rule_derived += 1;
                                    if !total[idb].contains(&t) {
                                        next[idb].insert(t);
                                    }
                                },
                            )?;
                            derivations += rule_derived;
                            rule_span.record_field("derived", rule_derived);
                        }
                    }
                }
                for (t, d) in total.iter_mut().zip(next.iter()) {
                    t.extend(d.iter().cloned());
                }
                let new_facts: usize = next.iter().map(HashSet::len).sum();
                OBS_DELTA_FACTS.add(new_facts as u64);
                OBS_DELTA_SIZE.record(new_facts as u64);
                delta_history.push(new_facts as u64);
                round_span.record_field("new", new_facts);
                delta = next;
            }
        }
        eval_span.record_field("rounds", iterations);
        eval_span.record_field("derivations", derivations);
        // The scan engine keeps its legacy HashSet representation as a
        // differential oracle; only the output is columnar.
        Ok(Output {
            relations: total
                .iter()
                .zip(self.idb_arity.iter())
                .map(|(set, &a)| TupleStore::from_rows(a, set.iter().map(Vec::as_slice)))
                .collect(),
            iterations,
            derivations,
            delta_history,
        })
    }

    /// Applies one rule by written-order nested loops: joins the body
    /// against the given IDB extent (with at most one atom redirected
    /// to a delta), emitting each head instantiation. Unbound head
    /// variables range over the domain. Negated atoms are deferred to
    /// the end of the join order (positives in written order first) and
    /// checked as plain membership tests — safety guarantees all their
    /// variables are bound by then. Deliberately kept on the legacy
    /// materialized-tuple path: the scan engine is the independent
    /// differential oracle for the columnar kernel.
    fn apply_rule_scan(
        &self,
        s: &Structure,
        rule: &Rule,
        idb: &[HashSet<Vec<Elem>>],
        delta: Option<(usize, &Vec<HashSet<Vec<Elem>>>)>,
        budget: &Budget,
        emit: &mut dyn FnMut(usize, Vec<Elem>),
    ) -> BudgetResult<()> {
        let mut binding: Vec<Option<Elem>> = vec![None; rule_num_vars(rule)];
        let head = head_idb(rule);
        // Positive atoms in written order, then the negated checks (a
        // negation-free body keeps the exact original order).
        let mut order: Vec<usize> = (0..rule.body.len())
            .filter(|&i| !rule.body[i].negated)
            .collect();
        order.extend((0..rule.body.len()).filter(|&i| rule.body[i].negated));

        #[allow(clippy::too_many_arguments)] // internal join kernel
        fn match_body(
            s: &Structure,
            rule: &Rule,
            order: &[usize],
            idb: &[HashSet<Vec<Elem>>],
            delta: Option<(usize, &Vec<HashSet<Vec<Elem>>>)>,
            head_idb: usize,
            pos: usize,
            binding: &mut Vec<Option<Elem>>,
            budget: &Budget,
            emit: &mut dyn FnMut(usize, Vec<Elem>),
        ) -> BudgetResult<()> {
            budget.tick(AT)?;
            if pos == order.len() {
                return emit_head_scan(s, rule, head_idb, binding, budget, emit);
            }
            let ai = order[pos];
            let atom = &rule.body[ai];
            if atom.negated {
                let t: Vec<Elem> = atom
                    .args
                    .iter()
                    .map(|&v| {
                        binding[v as usize].expect("negated atom variables are bound positively")
                    })
                    .collect();
                let present = match atom.pred {
                    Pred::Edb(r) => {
                        let rel = s.rel(r);
                        OBS_SCAN_TUPLES.add(rel.len() as u64);
                        rel.iter().any(|u| u == &t[..])
                    }
                    Pred::Idb(j) => {
                        OBS_SCAN_TUPLES.add(1);
                        idb[j].contains(&t)
                    }
                };
                if present {
                    return Ok(());
                }
                return match_body(
                    s,
                    rule,
                    order,
                    idb,
                    delta,
                    head_idb,
                    pos + 1,
                    binding,
                    budget,
                    emit,
                );
            }
            let try_tuple = |t: &[Elem],
                             binding: &mut Vec<Option<Elem>>,
                             emit: &mut dyn FnMut(usize, Vec<Elem>)|
             -> BudgetResult<()> {
                let mut touched: Vec<DlVar> = Vec::new();
                let mut ok = true;
                for (&v, &e) in atom.args.iter().zip(t.iter()) {
                    match binding[v as usize] {
                        Some(b) if b != e => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            binding[v as usize] = Some(e);
                            touched.push(v);
                        }
                    }
                }
                let result = if ok {
                    match_body(
                        s,
                        rule,
                        order,
                        idb,
                        delta,
                        head_idb,
                        pos + 1,
                        binding,
                        budget,
                        emit,
                    )
                } else {
                    Ok(())
                };
                for v in touched {
                    binding[v as usize] = None;
                }
                result
            };
            match atom.pred {
                Pred::Edb(r) => {
                    let rel = s.rel(r);
                    OBS_SCAN_TUPLES.add(rel.len() as u64);
                    for t in rel.iter() {
                        try_tuple(t, binding, emit)?;
                    }
                }
                Pred::Idb(j) => {
                    let source = match delta {
                        Some((dpos, d)) if dpos == ai => &d[j],
                        _ => &idb[j],
                    };
                    OBS_SCAN_TUPLES.add(source.len() as u64);
                    for t in source.iter() {
                        try_tuple(t, binding, emit)?;
                    }
                }
            }
            Ok(())
        }

        match_body(
            s,
            rule,
            &order,
            idb,
            delta,
            head,
            0,
            &mut binding,
            budget,
            emit,
        )
    }
}

// ---------------------------------------------------------------------
// Indexed join engine: IDB store, plans, and the execution kernel
// ---------------------------------------------------------------------

/// The mutable extent of one IDB predicate during a fixpoint run: a
/// columnar [`TupleStore`] (arenas + row-id dedup in one) plus
/// incrementally-maintained [`ColumnIndex`]es keyed by bound-position
/// subsets. The handful of indexes per predicate live in a `Vec` —
/// a linear key scan beats hashing a `Vec<usize>` per probe.
#[derive(Debug)]
pub(crate) struct IdbStore {
    pub(crate) store: TupleStore,
    pub(crate) indexes: Vec<(Vec<usize>, ColumnIndex)>,
}

impl IdbStore {
    pub(crate) fn new(arity: usize) -> IdbStore {
        IdbStore {
            store: TupleStore::new(arity),
            indexes: Vec::new(),
        }
    }

    pub(crate) fn ensure_index(&mut self, key: &[usize]) {
        if self.indexes.iter().any(|(k, _)| k == key) {
            return;
        }
        let mut idx = ColumnIndex::new(key);
        idx.extend(&self.store);
        self.indexes.push((key.to_vec(), idx));
    }

    pub(crate) fn index(&self, key: &[usize]) -> &ColumnIndex {
        &self
            .indexes
            .iter()
            .find(|(k, _)| k == key)
            .expect("index was prepared when its plan was made")
            .1
    }

    /// Catches every index up to the rows appended since the last call
    /// (the semi-naive merge step).
    pub(crate) fn extend_indexes(&mut self) {
        for (_, idx) in &mut self.indexes {
            idx.extend(&self.store);
        }
    }
}

pub(crate) fn rule_num_vars(rule: &Rule) -> usize {
    rule.head
        .args
        .iter()
        .chain(rule.body.iter().flat_map(|a| a.args.iter()))
        .max()
        .map_or(0, |&m| m as usize + 1)
}

pub(crate) fn head_idb(rule: &Rule) -> usize {
    match rule.head.pred {
        Pred::Idb(i) => i,
        Pred::Edb(_) => unreachable!("heads are IDB by construction"),
    }
}

/// The [`Output`] of an indexed evaluation: the driver's IDB stores
/// and the per-round counts, recorded on its `datalog.eval` span.
fn output<E>(
    fx: Fixpoint<E>,
    mut eval_span: fmt_obs::trace::SpanGuard,
    derivations: u64,
    delta_history: Vec<u64>,
) -> Output {
    let iterations = delta_history.len();
    eval_span.record_field("rounds", iterations);
    eval_span.record_field("derivations", derivations);
    Output {
        relations: fx.idb.into_iter().map(|r| r.store).collect(),
        iterations,
        derivations,
        delta_history,
    }
}

/// Head emission for the scan oracle: emits every instantiation of the
/// head under the current binding, with unbound head variables ranging
/// over the whole domain. Materializes each head tuple as a `Vec` —
/// intentionally independent of the columnar kernel's buffered path.
fn emit_head_scan(
    s: &Structure,
    rule: &Rule,
    head_idb: usize,
    binding: &mut Vec<Option<Elem>>,
    budget: &Budget,
    emit: &mut dyn FnMut(usize, Vec<Elem>),
) -> BudgetResult<()> {
    #[allow(clippy::too_many_arguments)] // internal join kernel
    fn rec(
        s: &Structure,
        head: &Atom,
        head_idb: usize,
        binding: &mut Vec<Option<Elem>>,
        unbound: &[DlVar],
        i: usize,
        budget: &Budget,
        emit: &mut dyn FnMut(usize, Vec<Elem>),
    ) -> BudgetResult<()> {
        if i == unbound.len() {
            budget.tick(AT)?;
            let t: Vec<Elem> = head
                .args
                .iter()
                .map(|&v| binding[v as usize].expect("head var bound"))
                .collect();
            emit(head_idb, t);
            return Ok(());
        }
        let mut result = Ok(());
        for d in s.domain() {
            binding[unbound[i] as usize] = Some(d);
            result = rec(s, head, head_idb, binding, unbound, i + 1, budget, emit);
            if result.is_err() {
                break;
            }
        }
        binding[unbound[i] as usize] = None;
        result
    }

    let mut unbound: Vec<DlVar> = rule
        .head
        .args
        .iter()
        .copied()
        .filter(|&v| binding[v as usize].is_none())
        .collect();
    unbound.sort_unstable();
    unbound.dedup();
    rec(s, &rule.head, head_idb, binding, &unbound, 0, budget, emit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::{self, Access};
    use fmt_structures::builders;

    /// Batch evaluation's extent sizes before any IDB row is derived.
    fn initial_extent(s: &Structure) -> impl Fn(&Atom) -> usize + '_ {
        |a| match a.pred {
            Pred::Edb(r) => s.rel(r).len(),
            Pred::Idb(_) => 0,
        }
    }

    #[test]
    fn tc_program_matches_reference() {
        let prog = Program::transitive_closure();
        for s in [
            builders::directed_path(6),
            builders::directed_cycle(5),
            builders::full_binary_tree(3),
        ] {
            let out = prog.eval_naive(&s);
            let tc = prog.idb("tc").unwrap();
            let reference = crate::graph::transitive_closure(&s);
            let e = reference.signature().relation("E").unwrap();
            let expected: HashSet<Vec<Elem>> =
                reference.rel(e).iter().map(<[u32]>::to_vec).collect();
            assert_eq!(out.relation(tc), &expected);
        }
    }

    #[test]
    fn seminaive_agrees_with_naive() {
        let progs = [Program::transitive_closure(), Program::same_generation()];
        let structures = [
            builders::directed_path(7),
            builders::full_binary_tree(3),
            builders::directed_cycle(6),
            builders::empty_graph(4),
        ];
        for prog in &progs {
            for s in &structures {
                let a = prog.eval_naive(s);
                let b = prog.eval_seminaive(s);
                let c = prog.eval_seminaive_scan(s);
                for i in 0..prog.num_idbs() {
                    assert_eq!(a.relation(i), b.relation(i), "IDB {i}");
                    assert_eq!(a.relation(i), c.relation(i), "IDB {i} (scan)");
                }
                assert_eq!(a.iterations, b.iterations);
                assert_eq!(b.iterations, c.iterations);
                assert_eq!(
                    b.derivations, c.derivations,
                    "join order changes no emissions"
                );
                assert_eq!(b.delta_history, c.delta_history);
            }
        }
    }

    #[test]
    fn thread_counts_agree() {
        let prog = Program::same_generation();
        let s = builders::full_binary_tree(4);
        let reference = prog.eval_seminaive_with(&s, 1);
        for threads in [2, 3, 5] {
            let out = prog.eval_seminaive_with(&s, threads);
            for i in 0..prog.num_idbs() {
                assert_eq!(
                    reference.relation(i),
                    out.relation(i),
                    "threads = {threads}"
                );
            }
            assert_eq!(reference.iterations, out.iterations);
            assert_eq!(reference.derivations, out.derivations);
            assert_eq!(reference.delta_history, out.delta_history);
        }
    }

    #[test]
    fn seminaive_does_less_work() {
        let prog = Program::transitive_closure();
        let s = builders::directed_path(24);
        let a = prog.eval_naive(&s);
        let b = prog.eval_seminaive(&s);
        assert!(
            b.derivations < a.derivations,
            "semi-naive {} vs naive {}",
            b.derivations,
            a.derivations
        );
    }

    #[test]
    fn same_generation_on_binary_tree() {
        // Nodes are in the same generation iff at equal depth; on a full
        // binary tree of depth d, level i contributes 2^i × 2^i pairs.
        let d = 3u32;
        let s = builders::full_binary_tree(d);
        let prog = Program::same_generation();
        let out = prog.eval_seminaive(&s);
        let sg = prog.idb("sg").unwrap();
        let expected: u64 = (0..=d).map(|i| (1u64 << i) * (1u64 << i)).sum();
        assert_eq!(out.relation(sg).len() as u64, expected);
        // Spot checks: the two children of the root are same-generation.
        assert!(out.relation(sg).contains(&[1, 2]));
        assert!(!out.relation(sg).contains(&[0, 1]));
    }

    #[test]
    fn unbound_head_vars_range_over_domain() {
        let sig = Signature::graph();
        let prog = Program::parse(&sig, "all(x, y).").unwrap();
        let s = builders::empty_graph(3);
        let out = prog.eval_naive(&s);
        assert_eq!(out.relation(0).len(), 9);
    }

    #[test]
    fn parser_errors() {
        let sig = Signature::graph();
        assert!(Program::parse(&sig, "").is_err());
        assert!(Program::parse(&sig, "e(x, y) :- e(y, x).").is_err()); // EDB head
        assert!(Program::parse(&sig, "p(x) :- q(x).").is_err()); // unknown q
        assert!(Program::parse(&sig, "p(x). p(x, y).").is_err()); // arity clash
        assert!(Program::parse(&sig, "p(x) :- e(x).").is_err()); // EDB arity
        assert!(Program::parse(&sig, "p(x :- e(x, y).").is_err()); // syntax
        assert!(Program::parse(&sig, "p x :- e(x, y).").is_err()); // not an ident
    }

    #[test]
    fn parse_errors_carry_positions() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, y), q(x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "q");
        assert_eq!(err.offset, 17);
        assert_eq!(err.to_string(), "at byte 17: unknown predicate q");

        let src = "p(x, y) :- e(x, y). p(x) :- e(x, x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "p(x)");

        let src = "e(x, y) :- p(x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "e");

        let src = "p(x) :- e(x).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "e(x)");
    }

    #[test]
    fn parse_spanned_spans_point_at_source() {
        let sig = Signature::graph();
        let src = " tc(x, y) :- e(x, y).\ntc(x, z) :- e(x, y), tc(y, z).";
        let p = Program::parse_spanned(&sig, src).unwrap();
        assert_eq!(p.spans.len(), 2);
        let r0 = &p.spans[0];
        assert_eq!(r0.span.slice(src), "tc(x, y) :- e(x, y)");
        assert_eq!(r0.head.span.slice(src), "tc(x, y)");
        assert_eq!(r0.head.pred.slice(src), "tc");
        assert_eq!(r0.head.args[1].slice(src), "y");
        assert_eq!(r0.body[0].span.slice(src), "e(x, y)");
        let r1 = &p.spans[1];
        assert_eq!(r1.body[1].span.slice(src), "tc(y, z)");
        assert_eq!(r1.body[1].args[0].slice(src), "y");
        // Per-rule variable names, in first-occurrence order.
        assert_eq!(p.var_names[1], vec!["x", "z", "y"]);
    }

    #[test]
    fn nullary_predicates() {
        let sig = Signature::graph();
        // `reach` is true iff some edge exists; `both()` uses the
        // explicit nullary form.
        let prog = Program::parse(&sig, "reach :- e(x, y). both() :- reach.").unwrap();
        let reach = prog.idb("reach").unwrap();
        let both = prog.idb("both").unwrap();
        assert_eq!(prog.idb_info(reach).1, 0);

        let s = builders::directed_path(3);
        for out in [
            prog.eval_naive(&s),
            prog.eval_seminaive(&s),
            prog.eval_seminaive_scan(&s),
        ] {
            assert_eq!(out.relation(reach).len(), 1);
            assert!(out.relation(both).contains(&Vec::new()));
        }
        let empty = builders::empty_graph(3);
        let out = prog.eval_seminaive(&empty);
        assert!(out.relation(reach).is_empty());
        assert!(out.relation(both).is_empty());

        // A nullary EDB reference still reports the arity clash, not a
        // cryptic parse failure.
        let err = Program::parse(&sig, "p(x) :- e.").unwrap_err();
        assert!(err.contains("arity"), "{err}");
    }

    #[test]
    fn repeated_variables_constrain() {
        let sig = Signature::graph();
        // Loops: p(x) :- e(x, x).
        let prog = Program::parse(&sig, "p(x) :- e(x, x).").unwrap();
        let s = builders::directed_cycle(1); // self-loop at 0
        let out = prog.eval_naive(&s);
        assert_eq!(out.relation(0).len(), 1);
        let t = builders::directed_path(4);
        assert!(prog.eval_naive(&t).relation(0).is_empty());
    }

    #[test]
    fn mutual_recursion() {
        let sig = Signature::graph();
        // Even/odd distance from a self-declared start set (all nodes).
        let prog = Program::parse(
            &sig,
            "ev(x, x). od(x, y) :- ev(x, z), e(z, y). ev(x, y) :- od(x, z), e(z, y).",
        )
        .unwrap();
        let s = builders::directed_path(5);
        let out = prog.eval_seminaive(&s);
        let ev = prog.idb("ev").unwrap();
        let od = prog.idb("od").unwrap();
        assert!(out.relation(ev).contains(&[0, 2]));
        assert!(out.relation(od).contains(&[0, 3]));
        assert!(!out.relation(ev).contains(&[0, 3]));
    }

    #[test]
    fn iterations_reported() {
        let prog = Program::transitive_closure();
        let s = builders::directed_path(10);
        let out = prog.eval_seminaive(&s);
        // Path of length 9: deltas shrink over ~9 iterations.
        assert!(out.iterations >= 8, "iterations = {}", out.iterations);
        assert!(out.derivations > 0);
        assert_eq!(out.delta_history.len(), out.iterations);
    }

    #[test]
    fn negation_parses_with_spans() {
        let sig = Signature::graph();
        let src = "p(x) :- e(x, y), !q(y). q(x) :- e(x, x).";
        let p = Program::parse_spanned(&sig, src).unwrap();
        assert!(!p.program.rules()[0].body[0].negated);
        assert!(p.program.rules()[0].body[1].negated);
        assert_eq!(p.spans[0].body[1].span.slice(src), "!q(y)");
        assert_eq!(p.spans[0].body[1].pred.slice(src), "q");
        assert_eq!(p.spans[0].body[1].args[0].slice(src), "y");
        assert!(p.program.has_negation());

        let src = "p(x) :- e(x, y), not q(y). q(x) :- e(x, x).";
        let p = Program::parse_spanned(&sig, src).unwrap();
        assert!(p.program.rules()[0].body[1].negated);
        assert_eq!(p.spans[0].body[1].span.slice(src), "not q(y)");
        assert_eq!(p.spans[0].body[1].pred.slice(src), "q");

        // Negated heads are rejected, with the span on the head atom.
        let src = "!p(x) :- e(x, y).";
        let err = Program::parse_spanned(&sig, src).unwrap_err();
        assert_eq!(err.span.slice(src), "!p(x)");
        assert!(err.message.contains("cannot be negated"), "{}", err.message);

        // A negated *unknown* predicate registers a rule-less IDB; a
        // positive one is still an error.
        let p = Program::parse(&sig, "q(x) :- e(x, x), !ghost(x).").unwrap();
        assert!(p.idb("ghost").is_some());
        assert!(Program::parse(&sig, "q(x) :- e(x, x), ghost(x).").is_err());
    }

    #[test]
    fn stratified_negation_agrees_across_engines() {
        let sig = Signature::graph();
        // Three flavors at once: a recursive positive stratum (t), a
        // negation stratum over it (sink = has an in-edge, no
        // out-edge), and a negated EDB atom (skip = two-step pairs
        // with no shortcut edge).
        let prog = Program::parse(
            &sig,
            "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z). \
             src(x) :- e(x, y). sink(x) :- e(y, x), !src(x). \
             skip(x, z) :- e(x, y), e(y, z), !e(x, z).",
        )
        .unwrap();
        for s in [
            builders::directed_path(6),
            builders::directed_cycle(5),
            builders::full_binary_tree(3),
            builders::empty_graph(4),
        ] {
            let a = prog.eval_naive(&s);
            let b = prog.eval_seminaive(&s);
            let c = prog.eval_seminaive_scan(&s);
            for i in 0..prog.num_idbs() {
                assert_eq!(a.relation(i), b.relation(i), "IDB {i}");
                assert_eq!(a.relation(i), c.relation(i), "IDB {i} (scan)");
            }
            assert_eq!(a.iterations, b.iterations);
            assert_eq!(b.iterations, c.iterations);
            assert_eq!(b.derivations, c.derivations);
            assert_eq!(b.delta_history, c.delta_history);
        }
        // Spot-check the semantics on the path 0→1→…→5.
        let s = builders::directed_path(6);
        let out = prog.eval_seminaive(&s);
        let sink = prog.idb("sink").unwrap();
        let skip = prog.idb("skip").unwrap();
        assert_eq!(out.relation(sink).len(), 1);
        assert!(out.relation(sink).contains(&[5]));
        assert_eq!(out.relation(skip).len(), 4);
        assert!(out.relation(skip).contains(&[0, 2]));
        // And thread counts still agree, counters included.
        let s = builders::full_binary_tree(4);
        let reference = prog.eval_seminaive_with(&s, 1);
        for threads in [2, 3] {
            let out = prog.eval_seminaive_with(&s, threads);
            for i in 0..prog.num_idbs() {
                assert_eq!(reference.relation(i), out.relation(i), "threads {threads}");
            }
            assert_eq!(reference.iterations, out.iterations);
            assert_eq!(reference.derivations, out.derivations);
            assert_eq!(reference.delta_history, out.delta_history);
        }
    }

    #[test]
    fn vacuous_negation_passes_everything_through() {
        let sig = Signature::graph();
        let prog = Program::parse(&sig, "q(x) :- e(x, x), !ghost(x).").unwrap();
        let s = builders::directed_cycle(1); // one self-loop at 0
        let out = prog.eval_seminaive(&s);
        assert!(out.relation(prog.idb("q").unwrap()).contains(&[0]));
        assert!(out.relation(prog.idb("ghost").unwrap()).is_empty());
    }

    #[test]
    fn unstratifiable_and_unsafe_programs_error_not_panic() {
        let sig = Signature::graph();
        let s = builders::directed_path(3);
        let b = Budget::unlimited();
        let prog = Program::parse(&sig, "p(x) :- e(x, y), !p(y).").unwrap();
        for err in [
            prog.try_eval_naive(&s, &b).unwrap_err(),
            prog.try_eval_seminaive_with(&s, 1, &b).unwrap_err(),
            prog.try_eval_seminaive_scan(&s, &b).unwrap_err(),
        ] {
            match err {
                EvalError::Unstratifiable {
                    rule,
                    atom,
                    ref pred,
                    ref cycle,
                } => {
                    assert_eq!((rule, atom), (0, 1));
                    assert_eq!(pred, "p");
                    assert_eq!(cycle, &["p".to_owned()]);
                }
                other => panic!("expected Unstratifiable, got {other:?}"),
            }
        }

        let prog = Program::parse(&sig, "q(x) :- e(x, x), !p(y, y). p(x, y) :- e(x, y).").unwrap();
        for err in [
            prog.try_eval_naive(&s, &b).unwrap_err(),
            prog.try_eval_seminaive_with(&s, 1, &b).unwrap_err(),
            prog.try_eval_seminaive_scan(&s, &b).unwrap_err(),
        ] {
            match err {
                EvalError::UnsafeNegation { rule, atom, var } => {
                    assert_eq!((rule, atom), (0, 1));
                    assert_eq!(var, 1); // `y`, second variable of rule 0
                }
                other => panic!("expected UnsafeNegation, got {other:?}"),
            }
        }
    }

    #[test]
    fn planner_places_neg_checks_at_earliest_bound_step() {
        let sig = Signature::graph();
        let prog = Program::parse(
            &sig,
            "q(x, z) :- e(x, y), !e(y, y), e(y, z). p(x) :- e(x, x).",
        )
        .unwrap();
        let s = builders::directed_path(4);
        let plan = join::plan(&prog.rules()[0], None, &[], &initial_extent(&s));
        // The NegCheck on `!e(y, y)` lands right after the first step
        // binds y — before the second positive edge atom is joined.
        let neg_step = plan
            .iter()
            .position(|st| st.access == Access::NegCheck)
            .unwrap();
        assert_eq!(neg_step, 1, "plan: {plan:?}");
    }

    #[test]
    fn planner_orders_most_bound_first() {
        // sg rule with the delta at position 2: the driver binds xp and
        // yp, so both edge atoms become indexable probes on their bound
        // parent. (`join`'s tests check that the driver's plan cache
        // turns them into prefix probes of the sorted edge relation.)
        let prog = Program::same_generation();
        let s = builders::full_binary_tree(3);
        let rule = &prog.rules()[1];
        let plan = join::plan(rule, Some(2), &[], &initial_extent(&s));
        assert_eq!(plan[0].atom, 2);
        assert_eq!(plan[0].access, Access::ScanDelta);
        for step in &plan[1..] {
            assert_eq!(step.access, Access::Probe(vec![0]));
        }
        // Without a driver nothing is bound at first: the smallest
        // extent leads (the empty IDB extent beats the edge relation).
        let plan = join::plan(rule, None, &[], &initial_extent(&s));
        assert_eq!(plan[0].atom, 2);
        assert_eq!(plan[0].access, Access::Scan);
    }
}
