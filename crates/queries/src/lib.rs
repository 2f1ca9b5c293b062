//! # fmt-queries
//!
//! The query zoo and reduction machinery of the toolbox (Libkin,
//! PODS'09, §3.3): the canonical **non-FO-definable** queries that the
//! survey's inexpressibility arguments target, an executable
//! implementation of each, a small **Datalog engine** for the fixpoint
//! queries, and the **FO interpretations** that carry the reduction
//! tricks.
//!
//! * [`graph`] — transitive closure, connectivity, acyclicity, tree
//!   test, EVEN, and friends (reference implementations used as ground
//!   truth throughout the workspace);
//! * [`datalog`] — a Datalog engine with naive and semi-naive
//!   evaluation, including the survey's *same-generation* program and
//!   the transitive-closure program, with stratified negation;
//! * [`depgraph`] — the predicate dependency-graph analysis behind
//!   stratification: positive/negative precedence edges, SCC
//!   condensation, stratum assignment, and negation safety — consumed
//!   by the engines and by `fmt-lint`'s D006–D009 codes;
//! * [`incremental`] — a long-lived Datalog runtime maintaining the
//!   semi-naive fixpoint under fact insertions and retractions
//!   (delta rules + backward/forward retraction) instead of
//!   recomputing from scratch;
//! * [`magic`] — magic-sets rewriting: query goals (`tc("a", y)?`),
//!   bound/free adornment along the join planner's binding order, and
//!   `magic_*` demand predicates, so the batch engines evaluate
//!   goal-directed instead of materializing everything;
//! * [`interp`] — FO interpretations: define a new structure by FO
//!   formulas over an old one (reductions-as-queries);
//! * [`reductions`] — the paper's three tricks, end to end:
//!   EVEN(<) → CONN (2nd-successor gadget), EVEN(<) → ACYCL (back
//!   edge), CONN → TC (symmetric closure + completeness).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datalog;
pub mod depgraph;
pub mod graph;
pub mod incremental;
pub mod interp;
mod join;
pub mod magic;
pub mod order_invariant;
pub mod reductions;

pub use interp::Interpretation;
