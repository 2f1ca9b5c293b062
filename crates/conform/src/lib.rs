//! `fmt-conform` — the toolbox's differential-testing subsystem.
//!
//! The workspace has four overlapping ways to decide the same
//! first-order facts: naive evaluation, relational algebra, AC⁰
//! circuits, and EF-game search with closed-form strategy theorems
//! (Theorem 3.1 and the locality toolkit of the survey). Agreement
//! between independent implementations of the *same theorem* is a far
//! stronger check than any one implementation's unit tests, so this
//! crate hunts for disagreements:
//!
//! * [`gen`] — deterministic, seed-driven generators of random finite
//!   structures and well-typed FO sentences with bounded quantifier
//!   rank (every case is a pure function of the seed);
//! * [`oracle`] — a pluggable registry of cross-checks: evaluator
//!   agreement, solver vs. closed-form game theorems, Hanf-locality
//!   invariants, parser ↔ printer roundtrips, and Datalog engine
//!   agreement;
//! * [`shrink`] — a greedy structure/formula minimizer applied to every
//!   counterexample before it is reported;
//! * [`corpus`] — self-contained textual repro cases, written into
//!   `tests/corpus/` and replayed as ordinary `cargo test` regressions;
//! * [`runner`] — the round-robin driver behind `fmtk conform`, metered
//!   under `conform.*` observability counters.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod shrink;

pub use corpus::ReproCase;
pub use oracle::{Oracle, Shape};
pub use runner::{run, RunConfig, RunError, RunReport};
pub use shrink::{minimize, Fixed, Fuel, Shrinkable};
