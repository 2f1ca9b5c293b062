//! Magic-sets rewriting: goal-directed Datalog evaluation.
//!
//! A query goal `tc("a", y)?` asks for the tuples of one IDB predicate
//! matching a pattern of bound constants and free variables. The
//! batch engines can only materialize *everything*; this module
//! rewrites the program so that the very same engines derive only
//! what the goal can reach (see `docs/magic-sets.md`):
//!
//! 1. **Adornment.** Starting from the goal's bound/free mask, every
//!    IDB predicate reachable from the goal is specialized per
//!    binding pattern (`tc_bf` = first argument bound). Bindings
//!    propagate through rule bodies along a *static* sideways
//!    information passing (SIP) order: the join planner's own
//!    most-bound-first order with no extents, so the rewrite prunes
//!    along the same joins the engine actually runs.
//! 2. **Magic predicates.** Each adorned predicate with at least one
//!    bound position gets a `magic_*` companion holding the bound
//!    argument tuples actually *demanded* during evaluation: a guard
//!    atom restricts every adorned rule, and one magic rule per IDB
//!    body occurrence passes demands sideways from the rule prefix.
//!    The goal itself is seeded through a fresh one-tuple
//!    `__magic_seed` EDB relation appended to the signature.
//! 3. **Strata.** Negated body atoms are adorned and magicked like
//!    positive ones (they are placed only once fully bound, so their
//!    adornment is all-bound). That can close a negative cycle that
//!    the original program did not have; the rewrite re-runs the
//!    [`crate::depgraph`] analysis on its output and rejects such
//!    goals with the typed [`MagicError::Unstratifiable`] instead of
//!    ever evaluating an unstratified program.
//!
//! An all-free goal rewrites to the original program unchanged
//! ([`MagicQuery::transparent`]), so goal-less behavior — extents,
//! counters, delta histories — is preserved byte for byte.
//!
//! Correctness contract (enforced by the `magic` conformance oracle):
//! evaluating the rewritten program and filtering the goal
//! predicate's extent yields exactly the goal-matching tuples of a
//! full materialization of the original program, on every engine.

use crate::datalog::{
    is_ident, rule_num_vars, trim_span, Atom, DatalogParseError, EvalError, Output, Pred, Program,
    Rule,
};
use crate::join;
use fmt_structures::store::TupleStore;
use fmt_structures::{ConstId, Elem, RelId, Signature, Span, Structure};
use std::collections::{HashMap, VecDeque};

/// One argument of a query goal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalTerm {
    /// A free position. Repeated variables constrain answers to have
    /// equal columns but do not bind for the rewrite.
    Var(String),
    /// A bound position: a numeric literal denoting a domain element.
    Element(Elem),
    /// A bound position: a quoted name resolved through the
    /// signature's declared constants (`tc("a", y)`).
    Named(String),
}

/// A goal argument with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoalArg {
    /// The term.
    pub term: GoalTerm,
    /// Byte span of the argument token.
    pub span: Span,
}

/// A parsed query goal `pred(t₁, …, tₖ)` (the trailing `?` is part of
/// the syntax, not of the spans).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goal {
    /// The queried predicate name.
    pub pred: String,
    /// Byte span of the predicate name.
    pub pred_span: Span,
    /// The arguments in order.
    pub args: Vec<GoalArg>,
    /// Byte span of the whole goal atom (without the `?`).
    pub span: Span,
}

impl std::fmt::Display for Goal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.pred)?;
        if !self.args.is_empty() {
            let args: Vec<String> = self
                .args
                .iter()
                .map(|a| match &a.term {
                    GoalTerm::Var(v) => v.clone(),
                    GoalTerm::Element(e) => e.to_string(),
                    GoalTerm::Named(n) => format!("{n:?}"),
                })
                .collect();
            write!(f, "({})", args.join(", "))?;
        }
        write!(f, "?")
    }
}

/// Splits a program source into a rule prefix and an optional trailing
/// query goal `pred(t…)?`. On `Ok(Some((len, goal)))`, parse the
/// program from `&src[..len]` — the goal's spans are byte offsets into
/// the *full* `src`, so diagnostics render against the original file.
pub fn split_query(src: &str) -> Result<Option<(usize, Goal)>, DatalogParseError> {
    // Locate the (single) `?` outside quotes; everything after it must
    // be whitespace, everything from the last clause-ending `.` up to
    // it is the goal.
    let mut mark: Option<usize> = None;
    let mut in_quote = false;
    for (i, c) in src.char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '?' if !in_quote => {
                if let Some(first) = mark {
                    return Err(DatalogParseError::new(
                        Span::point(i),
                        format!("multiple query goals (first `?` at byte {first})"),
                    ));
                }
                mark = Some(i);
            }
            _ => {}
        }
    }
    let Some(q) = mark else { return Ok(None) };
    let rest = &src[q + 1..];
    if !rest.trim().is_empty() {
        let extra = trim_span(src, Span::new(q + 1, src.len()));
        return Err(DatalogParseError::new(
            extra,
            "the query goal must be the final clause of the program",
        ));
    }
    let mut in_quote = false;
    let mut dot: Option<usize> = None;
    for (i, c) in src[..q].char_indices() {
        match c {
            '"' => in_quote = !in_quote,
            '.' if !in_quote => dot = Some(i),
            _ => {}
        }
    }
    let start = dot.map_or(0, |d| d + 1);
    let span = trim_span(src, Span::new(start, q));
    if span.is_empty() {
        return Err(DatalogParseError::new(
            Span::point(q),
            "empty query goal before `?`",
        ));
    }
    Ok(Some((start, parse_goal_at(src, span)?)))
}

/// Parses a standalone goal string (as passed to `fmtk datalog
/// --query`); a trailing `?` is accepted and stripped. Spans are byte
/// offsets into `text`.
pub fn parse_goal(text: &str) -> Result<Goal, DatalogParseError> {
    let mut span = trim_span(text, Span::new(0, text.len()));
    if span.slice(text).ends_with('?') {
        span = trim_span(text, Span::new(span.start, span.end - 1));
    }
    if span.is_empty() {
        return Err(DatalogParseError::new(Span::point(0), "empty query goal"));
    }
    parse_goal_at(text, span)
}

/// Parses the goal atom covered by `span` within `src`.
fn parse_goal_at(src: &str, span: Span) -> Result<Goal, DatalogParseError> {
    let t = span.slice(src);
    let Some(open) = t.find('(') else {
        // Nullary goal: `reach?`.
        if is_ident(t) && !t.starts_with(|c: char| c.is_ascii_digit()) {
            return Ok(Goal {
                pred: t.to_owned(),
                pred_span: span,
                args: Vec::new(),
                span,
            });
        }
        return Err(DatalogParseError::new(
            span,
            format!("malformed query goal {t:?}"),
        ));
    };
    if !t.ends_with(')') {
        return Err(DatalogParseError::new(
            span,
            format!("missing ')' in query goal {t:?}"),
        ));
    }
    let pred_span = trim_span(src, Span::new(span.start, span.start + open));
    let pred = pred_span.slice(src).to_owned();
    if !is_ident(&pred) || pred.starts_with(|c: char| c.is_ascii_digit()) {
        return Err(DatalogParseError::new(
            pred_span,
            format!("malformed query predicate {pred:?}"),
        ));
    }
    let inner = Span::new(span.start + open + 1, span.end - 1);
    let mut args = Vec::new();
    if !trim_span(src, inner).is_empty() {
        // Split on commas outside quotes.
        let bytes = inner.slice(src).as_bytes().to_vec();
        let mut in_quote = false;
        let mut piece_start = inner.start;
        for j in 0..=bytes.len() {
            if j < bytes.len() {
                if bytes[j] == b'"' {
                    in_quote = !in_quote;
                    continue;
                }
                if bytes[j] != b',' || in_quote {
                    continue;
                }
            }
            let a = trim_span(src, Span::new(piece_start, inner.start + j));
            piece_start = inner.start + j + 1;
            args.push(parse_goal_arg(src, a)?);
        }
    }
    Ok(Goal {
        pred,
        pred_span,
        args,
        span,
    })
}

/// Parses one goal argument token: quoted name, numeric literal, or
/// variable.
fn parse_goal_arg(src: &str, span: Span) -> Result<GoalArg, DatalogParseError> {
    let t = span.slice(src);
    let term = if let Some(q) = t.strip_prefix('"') {
        let name = q
            .strip_suffix('"')
            .filter(|n| !n.is_empty())
            .ok_or_else(|| {
                DatalogParseError::new(span, format!("malformed quoted constant {t:?}"))
            })?;
        GoalTerm::Named(name.to_owned())
    } else if !t.is_empty() && t.chars().all(|c| c.is_ascii_digit()) {
        let e: Elem = t
            .parse()
            .map_err(|_| DatalogParseError::new(span, format!("numeric constant {t} overflows")))?;
        GoalTerm::Element(e)
    } else if is_ident(t) {
        GoalTerm::Var(t.to_owned())
    } else {
        return Err(DatalogParseError::new(
            span,
            format!("malformed goal argument {t:?} (variable, number, or \"name\")"),
        ));
    };
    Ok(GoalArg { term, span })
}

/// Why a goal cannot be rewritten or evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MagicError {
    /// The goal names a predicate that is neither an IDB of the
    /// program nor an EDB relation (lint code D010).
    UnknownPredicate {
        /// The unresolved name.
        pred: String,
        /// Span of the predicate name in the goal.
        span: Span,
    },
    /// The goal names an EDB relation; only IDB predicates can be
    /// queried (lint code D010).
    NotIdb {
        /// The EDB relation name.
        pred: String,
        /// Span of the predicate name in the goal.
        span: Span,
    },
    /// The goal's argument count differs from the predicate's arity
    /// (lint code D010).
    ArityMismatch {
        /// The queried predicate.
        pred: String,
        /// Its declared arity.
        expected: usize,
        /// The goal's argument count.
        got: usize,
        /// Span of the whole goal atom.
        span: Span,
    },
    /// A quoted goal constant names no declared signature constant
    /// (lint code D010).
    UnknownConstant {
        /// The unresolved constant name.
        name: String,
        /// Span of the argument.
        span: Span,
    },
    /// The *original* program is statically rejected (D006/D007) — the
    /// same typed error full materialization reports, surfaced before
    /// rewriting so a goal cannot sneak past an unstratifiable
    /// program whose bad cycle it happens not to reach.
    Original(EvalError),
    /// The rewrite itself broke stratification: a `magic_*` demand
    /// rule closed a recursive component through a negated atom. The
    /// goal must be evaluated by full materialization instead.
    Unstratifiable {
        /// The negated predicate (adorned name) inside the component.
        pred: String,
        /// The component's predicate names, for diagnostics.
        cycle: Vec<String>,
    },
}

impl MagicError {
    /// The goal-source span of a resolution error (the D010 family);
    /// `None` for the program-level variants.
    pub fn goal_span(&self) -> Option<Span> {
        match self {
            MagicError::UnknownPredicate { span, .. }
            | MagicError::NotIdb { span, .. }
            | MagicError::ArityMismatch { span, .. }
            | MagicError::UnknownConstant { span, .. } => Some(*span),
            MagicError::Original(_) | MagicError::Unstratifiable { .. } => None,
        }
    }
}

impl std::fmt::Display for MagicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MagicError::UnknownPredicate { pred, .. } => {
                write!(f, "query goal references unknown predicate {pred}")
            }
            MagicError::NotIdb { pred, .. } => write!(
                f,
                "query goal names the EDB relation {pred}; only IDB predicates can be queried"
            ),
            MagicError::ArityMismatch {
                pred,
                expected,
                got,
                ..
            } => write!(
                f,
                "query goal arity mismatch: {pred} has arity {expected}, goal has {got} arguments"
            ),
            MagicError::UnknownConstant { name, .. } => {
                write!(f, "query goal references undeclared constant {name:?}")
            }
            MagicError::Original(e) => e.fmt(f),
            MagicError::Unstratifiable { pred, cycle } => write!(
                f,
                "magic-sets rewriting of this goal is not stratifiable: the demand rules \
                 close a recursive component {{{}}} through negated {pred}",
                cycle.join(", ")
            ),
        }
    }
}

impl std::error::Error for MagicError {}

/// A bound goal constant, resolved against the program signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResolvedConst {
    /// A numeric literal; out-of-domain values simply match nothing.
    Element(Elem),
    /// A declared signature constant, interpreted by the structure.
    Named(ConstId),
}

/// A goal resolved against a concrete program: the IDB it queries and
/// its per-position bound/free mask.
#[derive(Debug, Clone)]
pub struct ResolvedGoal {
    /// IDB index of the goal predicate in the original program.
    pub idb: usize,
    /// `mask[p]` is `true` iff goal position `p` is bound.
    pub mask: Vec<bool>,
    /// Bound constants, aligned with `mask`.
    consts: Vec<Option<ResolvedConst>>,
    /// Positions sharing a repeated goal variable (groups of ≥ 2).
    var_groups: Vec<Vec<usize>>,
}

/// Resolves a goal against a program: checks the predicate exists, is
/// an IDB, the arity matches, and every quoted constant is declared —
/// the whole D010 family.
pub fn resolve_goal(prog: &Program, goal: &Goal) -> Result<ResolvedGoal, MagicError> {
    let sig = prog.signature();
    if sig
        .relations()
        .any(|(_, n, _)| n.eq_ignore_ascii_case(&goal.pred))
    {
        return Err(MagicError::NotIdb {
            pred: goal.pred.clone(),
            span: goal.pred_span,
        });
    }
    let idb = prog
        .idb(&goal.pred)
        .ok_or_else(|| MagicError::UnknownPredicate {
            pred: goal.pred.clone(),
            span: goal.pred_span,
        })?;
    let (_, arity) = prog.idb_info(idb);
    if arity != goal.args.len() {
        return Err(MagicError::ArityMismatch {
            pred: goal.pred.clone(),
            expected: arity,
            got: goal.args.len(),
            span: goal.span,
        });
    }
    let mut consts = Vec::with_capacity(goal.args.len());
    let mut groups: HashMap<&str, Vec<usize>> = HashMap::new();
    for (p, arg) in goal.args.iter().enumerate() {
        match &arg.term {
            GoalTerm::Var(v) => {
                groups.entry(v).or_default().push(p);
                consts.push(None);
            }
            GoalTerm::Element(e) => consts.push(Some(ResolvedConst::Element(*e))),
            GoalTerm::Named(n) => {
                let c = sig.constant(n).ok_or_else(|| MagicError::UnknownConstant {
                    name: n.clone(),
                    span: arg.span,
                })?;
                consts.push(Some(ResolvedConst::Named(c)));
            }
        }
    }
    let mut var_groups: Vec<Vec<usize>> = groups.into_values().filter(|g| g.len() >= 2).collect();
    var_groups.sort();
    Ok(ResolvedGoal {
        idb,
        mask: consts.iter().map(Option::is_some).collect(),
        consts,
        var_groups,
    })
}

/// What each IDB of a rewritten program stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdbRole {
    /// Adorned copy of the original IDB with this index.
    Adorned(usize),
    /// Magic (demand) predicate of the adorned IDB with this index in
    /// the *rewritten* program.
    Magic(usize),
}

/// The result of [`rewrite`]: a program specialized to one goal.
#[derive(Debug, Clone)]
pub struct MagicQuery {
    /// The program to evaluate — the magic-sets rewrite, or a clone of
    /// the original for all-free (transparent) goals.
    pub program: Program,
    /// IDB index in [`Self::program`] whose extent holds the goal
    /// tuples (before [`Self::filter`]).
    pub goal_idb: usize,
    /// IDB index of the goal predicate in the original program.
    pub orig_idb: usize,
    /// `true` when the rewrite was the identity (all-free goal):
    /// [`Self::program`] is the original and [`Self::prepare`] returns
    /// the input structure unchanged.
    pub transparent: bool,
    /// Role of every IDB of [`Self::program`].
    roles: Vec<IdbRole>,
    /// The resolved goal (bound constants, repeated variables).
    resolved: ResolvedGoal,
    /// The appended seed relation (`None` when transparent).
    seed: Option<RelId>,
}

/// Rewrites `prog` for goal-directed evaluation of `goal`. See the
/// module docs for the algorithm and [`MagicError`] for the rejection
/// cases.
pub fn rewrite(prog: &Program, goal: &Goal) -> Result<MagicQuery, MagicError> {
    let resolved = resolve_goal(prog, goal)?;
    // The original program must be evaluable at all: an unstratifiable
    // or unsafe program is rejected with the engines' own typed error
    // even when the goal would not reach the offending rules.
    prog.eval_strata().map_err(MagicError::Original)?;
    if resolved.mask.iter().all(|&b| !b) {
        let roles = (0..prog.num_idbs()).map(IdbRole::Adorned).collect();
        return Ok(MagicQuery {
            program: prog.clone(),
            goal_idb: resolved.idb,
            orig_idb: resolved.idb,
            transparent: true,
            roles,
            resolved,
            seed: None,
        });
    }

    let sig = prog.signature();
    let mut rw = Rewriter {
        prog,
        names: Vec::new(),
        arity: Vec::new(),
        roles: Vec::new(),
        rules: Vec::new(),
        adorned: HashMap::new(),
        magic: HashMap::new(),
        queue: VecDeque::new(),
    };
    let goal_adorned = rw.ensure(resolved.idb, resolved.mask.clone());
    while let Some((orig, mask)) = rw.queue.pop_front() {
        rw.adapt_rules(orig, &mask);
    }

    // Seed: a fresh EDB relation carries the goal's bound constants
    // into the goal's magic predicate.
    let mut seed_name = "__magic_seed".to_owned();
    while sig
        .relations()
        .any(|(_, n, _)| n.eq_ignore_ascii_case(&seed_name))
    {
        seed_name.push_str("_x");
    }
    let bound_arity = resolved.mask.iter().filter(|&&b| b).count();
    let mut b = Signature::builder();
    for (_, n, a) in sig.relations() {
        b = b.relation(n, a);
    }
    b = b.relation(&seed_name, bound_arity);
    for (_, n) in sig.constants() {
        b = b.constant(n);
    }
    let ext_sig = b.finish_arc();
    let seed_rel = ext_sig
        .relation(&seed_name)
        .expect("seed relation declared");
    let goal_magic = rw.magic[&(resolved.idb, resolved.mask.clone())];
    let seed_args: Vec<u32> = (0..bound_arity as u32).collect();
    rw.rules.push(Rule {
        head: Atom {
            pred: Pred::Idb(goal_magic),
            args: seed_args.clone(),
            negated: false,
        },
        body: vec![Atom {
            pred: Pred::Edb(seed_rel),
            args: seed_args,
            negated: false,
        }],
    });

    let program = Program::from_parts(ext_sig, rw.names, rw.arity, rw.rules);
    // Demand rules can close negative cycles the original did not
    // have; such goals are rejected rather than mis-evaluated.
    if let Err(e) = program.eval_strata() {
        return Err(match e {
            EvalError::Unstratifiable { pred, cycle, .. } => {
                MagicError::Unstratifiable { pred, cycle }
            }
            // The rewrite never weakens negation safety (every
            // original positive atom survives), so this arm is
            // unreachable; surface it typed rather than panic.
            other => MagicError::Original(other),
        });
    }
    Ok(MagicQuery {
        program,
        goal_idb: goal_adorned,
        orig_idb: resolved.idb,
        transparent: false,
        roles: rw.roles,
        resolved,
        seed: Some(seed_rel),
    })
}

impl MagicQuery {
    /// Role of every IDB of [`Self::program`], aligned with its IDB
    /// indices (all [`IdbRole::Adorned`] identities when transparent).
    pub fn roles(&self) -> &[IdbRole] {
        &self.roles
    }

    /// The structure to evaluate [`Self::program`] on: the input
    /// extended with the one-tuple seed relation holding the goal's
    /// bound constants. The input's relations, and the indexes cached
    /// on them, are shared with the result, not copied
    /// ([`Structure::extend`]), so the cost does not grow with the
    /// input. The seed stays empty when a numeric constant lies
    /// outside the domain — the query then derives nothing, which is
    /// exactly its answer set. Transparent queries return the input
    /// unchanged.
    ///
    /// # Panics
    /// Panics if `s` is not over the signature the goal's program was
    /// rewritten from.
    pub fn prepare(&self, s: &Structure) -> Structure {
        if self.seed.is_none() {
            return s.clone();
        }
        let seed = self.seed_tuple(s).unwrap_or_default();
        s.extend(self.program.signature().clone(), vec![seed])
            .unwrap_or_else(|e| {
                panic!("prepare: {e}: the structure is not over the goal program's signature")
            })
    }

    /// The seed tuple (bound constants in position order), or `None`
    /// when some constant denotes no element of `s`.
    fn seed_tuple(&self, s: &Structure) -> Option<Vec<Elem>> {
        self.resolved
            .consts
            .iter()
            .flatten()
            .map(|c| self.resolve(s, *c))
            .collect()
    }

    fn resolve(&self, s: &Structure, c: ResolvedConst) -> Option<Elem> {
        match c {
            ResolvedConst::Element(e) => (e < s.size()).then_some(e),
            ResolvedConst::Named(c) => Some(s.constant(c)),
        }
    }

    /// Filters a goal-predicate extent down to the tuples the goal
    /// matches — bound positions equal to their constants, repeated
    /// goal variables equal to each other — sorted. Apply it to
    /// `relation(goal_idb)` of the rewritten program's output, or to
    /// the goal predicate's extent of a full materialization of the
    /// original program: the two must coincide, which is the `magic`
    /// conformance oracle's equation.
    pub fn filter(&self, s: &Structure, rows: &TupleStore) -> Vec<Vec<Elem>> {
        let mut want: Vec<Option<Elem>> = Vec::with_capacity(self.resolved.consts.len());
        for c in &self.resolved.consts {
            match c {
                None => want.push(None),
                Some(rc) => match self.resolve(s, *rc) {
                    Some(e) => want.push(Some(e)),
                    // An out-of-domain constant matches nothing.
                    None => return Vec::new(),
                },
            }
        }
        let mut v: Vec<Vec<Elem>> = rows
            .iter()
            .filter(|row| {
                want.iter()
                    .zip(row.iter())
                    .all(|(w, &e)| w.map_or(true, |w| w == e))
                    && self
                        .resolved
                        .var_groups
                        .iter()
                        .all(|g| g.iter().all(|&p| row[p] == row[g[0]]))
            })
            .collect();
        v.sort();
        v
    }

    /// [`Self::filter`] applied to the rewritten output's goal extent.
    pub fn answers(&self, s: &Structure, out: &Output) -> Vec<Vec<Elem>> {
        self.filter(s, out.relation(self.goal_idb))
    }
}

/// The worklist state of one rewrite.
struct Rewriter<'a> {
    prog: &'a Program,
    names: Vec<String>,
    arity: Vec<usize>,
    roles: Vec<IdbRole>,
    rules: Vec<Rule>,
    adorned: HashMap<(usize, Vec<bool>), usize>,
    magic: HashMap<(usize, Vec<bool>), usize>,
    queue: VecDeque<(usize, Vec<bool>)>,
}

/// `bf`-style suffix of a bound/free mask.
fn adornment(mask: &[bool]) -> String {
    mask.iter().map(|&b| if b { 'b' } else { 'f' }).collect()
}

impl Rewriter<'_> {
    /// A name not colliding with EDB relations or already-allocated
    /// IDBs (collisions are possible when the source program itself
    /// uses `tc_bf`-style names).
    fn fresh_name(&self, base: String) -> String {
        let mut name = base;
        let sig = self.prog.signature();
        while self.names.contains(&name)
            || sig
                .relations()
                .any(|(_, n, _)| n.eq_ignore_ascii_case(&name))
        {
            name.push_str("_m");
        }
        name
    }

    /// The adorned IDB index for `(orig, mask)`, allocating it (plus
    /// its magic companion and a worklist entry) on first sight.
    fn ensure(&mut self, orig: usize, mask: Vec<bool>) -> usize {
        if let Some(&i) = self.adorned.get(&(orig, mask.clone())) {
            return i;
        }
        let (name, arity) = self.prog.idb_info(orig);
        let a = self.names.len();
        self.names
            .push(self.fresh_name(format!("{name}_{}", adornment(&mask))));
        self.arity.push(arity);
        self.roles.push(IdbRole::Adorned(orig));
        self.adorned.insert((orig, mask.clone()), a);
        if mask.iter().any(|&b| b) {
            let m = self.names.len();
            self.names
                .push(self.fresh_name(format!("magic_{name}_{}", adornment(&mask))));
            self.arity.push(mask.iter().filter(|&&b| b).count());
            self.roles.push(IdbRole::Magic(a));
            self.magic.insert((orig, mask.clone()), m);
        }
        self.queue.push_back((orig, mask));
        a
    }

    /// Emits the adorned variant of every rule defining `orig`, plus
    /// one magic (demand) rule per IDB body occurrence.
    fn adapt_rules(&mut self, orig: usize, mask: &[bool]) {
        let head_idb = self.adorned[&(orig, mask.to_vec())];
        let guard = self.magic.get(&(orig, mask.to_vec())).copied();
        for rule in self.prog.rules().to_vec() {
            if rule.head.pred != Pred::Idb(orig) {
                continue;
            }
            self.adapt_rule(&rule, head_idb, mask, guard);
        }
    }

    fn adapt_rule(&mut self, rule: &Rule, head_idb: usize, mask: &[bool], guard: Option<usize>) {
        // The head's bound positions are bound from the start (the guard
        // binds them).
        let mut pre_bound = vec![false; rule_num_vars(rule)];
        for (p, &b) in mask.iter().enumerate() {
            pre_bound[rule.head.args[p] as usize] |= b;
        }
        let mut body: Vec<Atom> = Vec::new();
        if let Some(m) = guard {
            let args: Vec<u32> = mask
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(p, _)| rule.head.args[p])
                .collect();
            body.push(Atom {
                pred: Pred::Idb(m),
                args,
                negated: false,
            });
        }

        // Static SIP: the join planner's own order with no extents —
        // most-bound positive atom next (ties: earliest written), each
        // negated atom as soon as all its variables are bound. Walking
        // it, each IDB atom is adorned against the bindings established
        // *before* it (everything but the variables its step binds) and
        // emits its demand rule from the prefix.
        for step in join::plan(rule, None, &pre_bound, &|_| 0) {
            let atom = &rule.body[step.atom];
            match atom.pred {
                Pred::Edb(_) => body.push(atom.clone()),
                Pred::Idb(o2) => {
                    let mask2: Vec<bool> =
                        atom.args.iter().map(|v| !step.fresh.contains(v)).collect();
                    let a2 = self.ensure(o2, mask2.clone());
                    if let Some(&m2) = self.magic.get(&(o2, mask2.clone())) {
                        let args: Vec<u32> = atom
                            .args
                            .iter()
                            .zip(&mask2)
                            .filter(|&(_, &b)| b)
                            .map(|(&v, _)| v)
                            .collect();
                        self.rules.push(Rule {
                            head: Atom {
                                pred: Pred::Idb(m2),
                                args,
                                negated: false,
                            },
                            body: body.clone(),
                        });
                    }
                    body.push(Atom {
                        pred: Pred::Idb(a2),
                        args: atom.args.clone(),
                        negated: atom.negated,
                    });
                }
            }
        }
        self.rules.push(Rule {
            head: Atom {
                pred: Pred::Idb(head_idb),
                args: rule.head.args.clone(),
                negated: false,
            },
            body,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_structures::{builders, StructureBuilder};

    fn tc_with_goal(goal: &str) -> (Program, Goal) {
        let sig = Signature::graph();
        let src = format!("tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). {goal}");
        let (len, g) = split_query(&src).unwrap().unwrap();
        let prog = Program::parse(&sig, &src[..len]).unwrap();
        (prog, g)
    }

    #[test]
    fn split_finds_the_trailing_goal() {
        let src = "tc(x, y) :- e(x, y). tc(\"a\", y)?";
        let (len, g) = split_query(src).unwrap().unwrap();
        assert_eq!(&src[..len], "tc(x, y) :- e(x, y).");
        assert_eq!(g.pred, "tc");
        assert_eq!(g.args.len(), 2);
        assert_eq!(g.args[0].term, GoalTerm::Named("a".to_owned()));
        assert_eq!(g.args[1].term, GoalTerm::Var("y".to_owned()));
        assert_eq!(g.span.slice(src), "tc(\"a\", y)");
        assert_eq!(g.to_string(), "tc(\"a\", y)?");
    }

    #[test]
    fn split_without_goal_and_malformed_goals() {
        assert_eq!(split_query("tc(x, y) :- e(x, y).").unwrap(), None);
        assert!(split_query("tc(x)? tc(y)?").is_err()); // two marks
        assert!(split_query("tc(x)? e(0, 1).").is_err()); // goal not last
        assert!(split_query("tc(x, y) :- e(x, y). ?").is_err()); // empty
        assert_eq!(split_query("p(x) :- e(x, x). p(x").unwrap(), None);
        assert!(split_query("p(x) :- e(x, x). p(x?").is_err());
    }

    #[test]
    fn parse_goal_accepts_flag_syntax() {
        let g = parse_goal("tc(3, y)?").unwrap();
        assert_eq!(g.args[0].term, GoalTerm::Element(3));
        let g = parse_goal("  reach  ").unwrap();
        assert!(g.args.is_empty());
        assert!(parse_goal("").is_err());
        assert!(parse_goal("tc(x,)?").is_err());
        assert!(parse_goal("3(x)?").is_err());
    }

    #[test]
    fn goal_resolution_errors() {
        let (prog, _) = tc_with_goal("tc(0, y)?");
        let err = |g: &str| resolve_goal(&prog, &parse_goal(g).unwrap()).unwrap_err();
        assert!(matches!(
            err("ghost(x)?"),
            MagicError::UnknownPredicate { .. }
        ));
        assert!(matches!(err("e(x, y)?"), MagicError::NotIdb { .. }));
        assert!(matches!(err("tc(x)?"), MagicError::ArityMismatch { .. }));
        assert!(matches!(
            err("tc(\"zeus\", y)?"),
            MagicError::UnknownConstant { .. }
        ));
    }

    #[test]
    fn all_free_goals_are_transparent() {
        let (prog, goal) = tc_with_goal("tc(x, y)?");
        let mq = rewrite(&prog, &goal).unwrap();
        assert!(mq.transparent);
        assert_eq!(mq.program.rules(), prog.rules());
        assert_eq!(mq.goal_idb, mq.orig_idb);
        let s = builders::directed_path(5);
        assert_eq!(mq.prepare(&s).signature(), s.signature());
        let out = mq.program.eval_seminaive(&s);
        let full = prog.eval_seminaive(&s);
        assert_eq!(mq.answers(&s, &out), mq.filter(&s, full.relation(0)));
    }

    #[test]
    fn bound_goal_prunes_and_agrees_with_filtered_full() {
        let (prog, goal) = tc_with_goal("tc(6, y)?");
        let mq = rewrite(&prog, &goal).unwrap();
        assert!(!mq.transparent);
        let s = builders::directed_path(10);
        let es = mq.prepare(&s);
        let out = mq.program.eval_seminaive(&es);
        let full = prog.eval_seminaive(&s);
        let expect = mq.filter(&s, full.relation(0));
        assert_eq!(
            expect,
            vec![vec![6, 7], vec![6, 8], vec![6, 9]],
            "goal-filtered full materialization"
        );
        assert_eq!(mq.answers(&s, &out), expect);
        assert!(
            out.derivations < full.derivations,
            "magic evaluation must prune: {} vs {}",
            out.derivations,
            full.derivations
        );
    }

    #[test]
    fn repeated_goal_variables_constrain_answers_but_not_bindings() {
        let sig = Signature::graph();
        let src = "sg(x, x). sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp). sg(z, z)?";
        let (len, goal) = split_query(src).unwrap().unwrap();
        let prog = Program::parse(&sig, &src[..len]).unwrap();
        let mq = rewrite(&prog, &goal).unwrap();
        assert!(mq.transparent, "repeated variables do not bind");
        let s = builders::full_binary_tree(3);
        let out = mq.program.eval_seminaive(&s);
        let answers = mq.answers(&s, &out);
        let diag: Vec<Vec<Elem>> = s.domain().map(|d| vec![d, d]).collect();
        assert_eq!(answers, diag);
    }

    #[test]
    fn out_of_domain_constants_yield_empty_answers() {
        let (prog, goal) = tc_with_goal("tc(999, y)?");
        let mq = rewrite(&prog, &goal).unwrap();
        let s = builders::directed_path(4);
        let es = mq.prepare(&s);
        assert!(es.rel(mq.seed.unwrap()).is_empty(), "seed stays empty");
        let out = mq.program.eval_seminaive(&es);
        assert!(mq.answers(&s, &out).is_empty());
        let full = prog.eval_seminaive(&s);
        assert!(mq.filter(&s, full.relation(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "structures are over different signatures")]
    fn prepare_on_a_mismatched_structure_names_the_mismatch() {
        let (prog, goal) = tc_with_goal("tc(1, y)?");
        let mq = rewrite(&prog, &goal).unwrap();
        let _ = mq.prepare(&builders::linear_order(4));
    }

    #[test]
    fn named_constants_resolve_through_the_structure() {
        let sig = Signature::builder()
            .relation("E", 2)
            .constant("a")
            .finish_arc();
        let src = "tc(x, y) :- e(x, y). tc(x, z) :- e(x, y), tc(y, z). tc(\"a\", y)?";
        let (len, goal) = split_query(src).unwrap().unwrap();
        let prog = Program::parse(&sig, &src[..len]).unwrap();
        let mq = rewrite(&prog, &goal).unwrap();
        let mut b = StructureBuilder::new(sig.clone(), 4);
        for i in 0..3u32 {
            b.add(sig.relation("E").unwrap(), &[i, i + 1]).unwrap();
        }
        b.set_constant(sig.constant("a").unwrap(), 2);
        let s = b.build().unwrap();
        let out = mq.program.eval_seminaive(&mq.prepare(&s));
        assert_eq!(mq.answers(&s, &out), vec![vec![2, 3]]);
    }

    #[test]
    fn stratified_negation_survives_when_demand_stays_acyclic() {
        let sig = Signature::graph();
        let src = "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z). \
                   nt(x, y) :- e(x, y), !t(y, x). nt(0, y)?";
        let (len, goal) = split_query(src).unwrap().unwrap();
        let prog = Program::parse(&sig, &src[..len]).unwrap();
        let mq = rewrite(&prog, &goal).unwrap();
        let s = builders::directed_path(6);
        let out = mq.program.eval_seminaive(&mq.prepare(&s));
        let full = prog.eval_seminaive(&s);
        assert_eq!(
            mq.answers(&s, &out),
            mq.filter(&s, full.relation(prog.idb("nt").unwrap()))
        );
    }

    #[test]
    fn demand_through_negation_inside_recursion_is_rejected() {
        // Original: stratified (b below t). Rewritten: the demand rule
        // magic_b_b :- …, t_bf(y, z) closes {t_bf, b_b, magic_b_b}
        // through the negative edge t_bf → b_b.
        let sig = Signature::graph();
        let src = "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z), !b(z). \
                   b(x) :- e(x, x). t(0, y)?";
        let (len, goal) = split_query(src).unwrap().unwrap();
        let prog = Program::parse(&sig, &src[..len]).unwrap();
        assert!(prog.eval_strata().is_ok());
        match rewrite(&prog, &goal) {
            Err(MagicError::Unstratifiable { cycle, .. }) => {
                assert!(cycle.iter().any(|p| p.starts_with("magic_")), "{cycle:?}");
            }
            other => panic!("expected Unstratifiable, got {other:?}"),
        }
    }

    #[test]
    fn unstratifiable_originals_are_rejected_before_rewriting() {
        let sig = Signature::graph();
        let src = "w(x) :- e(x, x), !w(x). w(0)?";
        let (len, goal) = split_query(src).unwrap().unwrap();
        let prog = Program::parse(&sig, &src[..len]).unwrap();
        assert!(matches!(
            rewrite(&prog, &goal),
            Err(MagicError::Original(EvalError::Unstratifiable { .. }))
        ));
    }

    #[test]
    fn every_magic_predicate_has_a_rule() {
        let (prog, goal) = tc_with_goal("tc(0, y)?");
        let mq = rewrite(&prog, &goal).unwrap();
        for (i, role) in mq.roles().iter().enumerate() {
            if let IdbRole::Magic(_) = role {
                assert!(
                    mq.program
                        .rules()
                        .iter()
                        .any(|r| r.head.pred == Pred::Idb(i)),
                    "magic predicate {} has no rules",
                    mq.program.idb_info(i).0
                );
            }
        }
    }
}
