//! The oracle registry: every way the toolbox can disagree with itself.
//!
//! Every oracle has one [`Shape`]: it *generates* a random case,
//! *checks* it against two or more independent deciders of the same
//! fact, and *encodes* / *decodes* it as a [`ReproCase`]. One driver,
//! the [`Oracle`] impl every shape gets, does the rest: a hunt runs
//! check → [`minimize`] → re-check for the note → encode, and a replay
//! is `check(decode(case))`, which is how `tests/conform_corpus.rs`
//! turns every discovered bug into a permanent regression test.
//!
//! The Datalog oracles share one engine matrix (naive, scan, indexed
//! at 1 and 3 threads), one extents canonicaliser and one fuel
//! contract.
//!
//! Registered oracles:
//!
//! | name             | cross-check                                               |
//! |------------------|-----------------------------------------------------------|
//! | `eval-agreement` | naive vs. relational-algebra vs. AC⁰ circuit sentences    |
//! | `parse-display`  | `parse(display(φ)) == φ` exactly                          |
//! | `games-sets`     | EF solver vs. the closed-form pure-set win predicate      |
//! | `games-orders`   | EF solver vs. Theorem 3.1 (`L_m ≡ₙ L_k`, `m,k ≥ 2ⁿ − 1`)  |
//! | `hanf-locality`  | census invariants + Hanf's theorem vs. direct game search |
//! | `datalog-engines`| the engine matrix's fixpoints and semi-naive work counters |
//! | `lint-clean`     | lint-clean inputs evaluate without panics and all engines agree |
//! | `budget-fault`   | engines under tight fuel budgets finish, agree, and fail cleanly |
//! | `incremental`    | insert/retract runtime vs. from-scratch recomputation at every poll |
//! | `stratified`     | lint verdict ⇔ typed eval error on negated programs; matrix agreement |
//! | `magic`          | goal answers of the magic-sets rewrite == goal-filtered full materialization |

use crate::corpus::ReproCase;
use crate::gen::{self, GenConfig, UpdateOp, UpdateTrace};
use crate::shrink::{minimize, Fixed, Fuel, Shrinkable};
use fmt_eval::{circuit, naive, relalg};
use fmt_games::closed_form::{orders_equivalent, sets_duplicator_wins};
use fmt_games::solver::EfSolver;
use fmt_lint::LintConfig;
use fmt_locality::hanf::hanf_equivalent;
use fmt_logic::{parser, Formula};
use fmt_obs::Counter;
use fmt_queries::datalog::{EvalError, Output, Program};
use fmt_queries::incremental::DatalogRuntime;
use fmt_queries::magic::{self, MagicError};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::store::TupleStore;
use fmt_structures::StructureBuilder;
use fmt_structures::{builders, parse as sparse, Elem, RelId, Signature, Structure};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::BTreeSet;
use std::fmt::{Debug, Display};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Shrink budget per counterexample (predicate evaluations).
const SHRINK_BUDGET: usize = 2_000;

/// Test-only fault-injection switch. Its value names the oracle to
/// fault: under `budget-fault` every budgeted engine run panics instead
/// of evaluating; under `incremental`, `stratified` or `magic` every
/// check of that oracle reports a fabricated violation. It exists to
/// prove each oracle's catch/shrink/write/replay plumbing (and the
/// CLI's replay exit code) end to end, since correct engines never fail
/// organically.
pub const INJECT_ENV: &str = "FMT_CONFORM_INJECT";

fn inject_armed(oracle: &str) -> bool {
    std::env::var_os(INJECT_ENV).is_some_and(|v| v == oracle)
}

static OBS_EVAL: Counter = Counter::new("conform.oracle.eval_agreement");
static OBS_PARSE: Counter = Counter::new("conform.oracle.parse_display");
static OBS_SETS: Counter = Counter::new("conform.oracle.games_sets");
static OBS_ORDERS: Counter = Counter::new("conform.oracle.games_orders");
static OBS_HANF: Counter = Counter::new("conform.oracle.hanf_locality");
static OBS_DATALOG: Counter = Counter::new("conform.oracle.datalog_engines");
static OBS_LINT: Counter = Counter::new("conform.oracle.lint_clean");
static OBS_BUDGET: Counter = Counter::new("conform.oracle.budget_fault");
static OBS_INCR: Counter = Counter::new("conform.oracle.incremental");
static OBS_STRAT: Counter = Counter::new("conform.oracle.stratified");
static OBS_MAGIC: Counter = Counter::new("conform.oracle.magic");

/// A differential cross-check that can both hunt (run a fresh random
/// case) and replay (re-run a serialized counterexample). Every
/// [`Shape`] is one.
pub trait Oracle {
    /// The registry name, used in `--oracle` filters and case files.
    fn name(&self) -> &'static str;

    /// Runs one random case. Returns a shrunk [`ReproCase`] on
    /// disagreement, `None` when all engines agree.
    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase>;

    /// Replays a serialized case: `Ok` if the engines now agree,
    /// `Err` with a description if the disagreement still reproduces
    /// (or the case is malformed).
    fn replay(&self, case: &ReproCase) -> Result<(), String>;
}

/// The one shape of an oracle: generate a case, check it, and encode /
/// decode it as a [`ReproCase`]. The [`Oracle`] driver supplies the
/// hunt and the replay.
pub trait Shape {
    /// The registry name, used in `--oracle` filters and case files.
    const NAME: &'static str;

    /// Everything one check reads. Its [`Shrinkable`] impl decides what
    /// a hunt minimizes; [`Fixed`] parts stay as generated.
    type Case: Shrinkable;

    /// The `conform.oracle.*` counter of hunted cases.
    fn counter(&self) -> &'static Counter;

    /// Draws a fresh case.
    fn generate(&self, rng: &mut StdRng) -> Self::Case;

    /// `Ok` when the deciders agree on `case`, else what went wrong.
    fn check(&self, case: &Self::Case) -> Result<(), String>;

    /// Records `case` in `repro`, whose provenance, note and graph
    /// signature are already filled in.
    fn encode(&self, case: &Self::Case, repro: &mut ReproCase);

    /// Reads back what [`Shape::encode`] recorded.
    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String>;
}

impl<S: Shape> Oracle for S {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        self.counter().incr();
        let input = self.generate(rng);
        let note = self.check(&input).err()?;
        let still_fails = &mut |c: &S::Case| self.check(c).is_err();
        let (input, _) = minimize(input, still_fails, SHRINK_BUDGET);
        let mut repro = ReproCase {
            oracle: S::NAME.to_owned(),
            seed,
            case,
            note: self.check(&input).err().unwrap_or(note),
            sig: vec![("E".to_owned(), 2)],
            ..ReproCase::default()
        };
        self.encode(&input, &mut repro);
        Some(repro)
    }

    fn replay(&self, repro: &ReproCase) -> Result<(), String> {
        self.check(&self.decode(repro)?)
    }
}

/// All registered oracles, in round-robin order.
pub fn all_oracles() -> Vec<Box<dyn Oracle>> {
    vec![
        Box::new(EvalAgreement),
        Box::new(ParseDisplay),
        Box::new(GamesSets),
        Box::new(GamesOrders),
        Box::new(HanfLocality),
        Box::new(DatalogEngines),
        Box::new(LintClean),
        Box::new(BudgetFault),
        Box::new(Incremental),
        Box::new(Stratified),
        Box::new(Magic),
    ]
}

/// Finds an oracle by name.
pub fn find_oracle(name: &str) -> Option<Box<dyn Oracle>> {
    all_oracles().into_iter().find(|o| o.name() == name)
}

/// A case parameter.
fn param(name: &str, value: impl ToString) -> (String, String) {
    (name.to_owned(), value.to_string())
}

/// A labeled structure block.
fn block(label: &str, s: &Structure) -> (String, String) {
    (label.to_owned(), sparse::to_text(s))
}

fn formula_text(repro: &ReproCase) -> Result<&str, String> {
    repro
        .formula
        .as_deref()
        .ok_or_else(|| "case has no formula".to_owned())
}

fn decode_fuel(repro: &ReproCase) -> Result<Fuel, String> {
    Ok(Fuel(repro.param_u64("fuel")?.max(1)))
}

/// `Ok` when every named value is equal; else the first pair that
/// differs.
fn agree<N: Display, T: PartialEq>(what: &str, named: &[(N, T)]) -> Result<(), String> {
    match named.windows(2).find(|w| w[0].1 != w[1].1) {
        Some(w) => Err(format!("{what} differ: {} vs {}", w[0].0, w[1].0)),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// eval-agreement
// ---------------------------------------------------------------------

/// Naive, relational-algebra, and circuit evaluation must return the
/// same truth value for every sentence on every structure.
#[derive(Debug)]
pub struct EvalAgreement;

/// `Ok` when the three FO engines give the sentence `f` one truth value
/// on `s`.
fn eval_agree(s: &Structure, f: &Formula) -> Result<(), String> {
    let nv = naive::check_sentence(s, f);
    let ra = relalg::check_sentence(s, f);
    let (c, layout) = circuit::compile(s.signature(), f, s.size());
    let cv = c.eval(&layout.encode(s));
    if nv == ra && nv == cv {
        Ok(())
    } else {
        Err(format!("naive={nv} relalg={ra} circuit={cv}"))
    }
}

impl Shape for EvalAgreement {
    const NAME: &'static str = "eval-agreement";
    type Case = (Structure, Formula);

    fn counter(&self) -> &'static Counter {
        &OBS_EVAL
    }

    fn generate(&self, rng: &mut StdRng) -> (Structure, Formula) {
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        (s, gen::random_sentence(rng, &cfg))
    }

    fn check(&self, (s, f): &(Structure, Formula)) -> Result<(), String> {
        if !f.is_sentence() || f.well_formed(s.signature()).is_err() {
            return Ok(());
        }
        eval_agree(s, f)
    }

    fn encode(&self, (s, f): &(Structure, Formula), repro: &mut ReproCase) {
        repro.structures.push(block("A", s));
        repro.formula = Some(format!("{}", f.display(s.signature())));
    }

    fn decode(&self, repro: &ReproCase) -> Result<(Structure, Formula), String> {
        let s = repro.structure("A")?;
        let f = parser::parse_formula(s.signature(), formula_text(repro)?)
            .map_err(|e| e.to_string())?;
        Ok((s, f))
    }
}

// ---------------------------------------------------------------------
// parse-display
// ---------------------------------------------------------------------

/// Parsing the pretty-printed form of a normalized formula must return
/// the identical AST (satellite: the canonical `x<digits>` parser rule
/// exists exactly so this holds).
#[derive(Debug)]
pub struct ParseDisplay;

impl Shape for ParseDisplay {
    const NAME: &'static str = "parse-display";
    type Case = Formula;

    fn counter(&self) -> &'static Counter {
        &OBS_PARSE
    }

    fn generate(&self, rng: &mut StdRng) -> Formula {
        gen::random_sentence(rng, &GenConfig::default())
    }

    fn check(&self, f: &Formula) -> Result<(), String> {
        let sig = Signature::graph();
        let printed = format!("{}", f.display(&sig));
        match parser::parse_formula(&sig, &printed) {
            Ok(g) if g == *f => Ok(()),
            _ => Err(format!("parse(display(f)) != f for {printed:?}")),
        }
    }

    fn encode(&self, f: &Formula, repro: &mut ReproCase) {
        repro.formula = Some(format!("{}", f.display(&Signature::graph())));
    }

    fn decode(&self, repro: &ReproCase) -> Result<Formula, String> {
        parser::parse_formula(&repro.signature(), formula_text(repro)?).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// games-sets
// ---------------------------------------------------------------------

/// The EF solver on pure sets must match the closed-form win predicate
/// (equal sizes, or both at least `n`).
#[derive(Debug)]
pub struct GamesSets;

impl Shape for GamesSets {
    const NAME: &'static str = "games-sets";
    type Case = (u32, u32, u32);

    fn counter(&self) -> &'static Counter {
        &OBS_SETS
    }

    fn generate(&self, rng: &mut StdRng) -> (u32, u32, u32) {
        let na = rng.random_range(0..=5u32);
        let nb = rng.random_range(0..=5u32);
        (na, nb, rng.random_range(1..=3u32))
    }

    fn check(&self, &(na, nb, n): &(u32, u32, u32)) -> Result<(), String> {
        if n == 0 {
            return Ok(());
        }
        let solver = EfSolver::new(&builders::set(na), &builders::set(nb)).duplicator_wins(n);
        let closed_form = sets_duplicator_wins(na, nb, n);
        if solver == closed_form {
            Ok(())
        } else {
            Err(format!("solver={solver} closed_form={closed_form}"))
        }
    }

    fn encode(&self, &(na, nb, n): &(u32, u32, u32), repro: &mut ReproCase) {
        repro.sig = Vec::new(); // pure sets: the empty signature
        repro.params = vec![param("na", na), param("nb", nb), param("n", n)];
    }

    fn decode(&self, repro: &ReproCase) -> Result<(u32, u32, u32), String> {
        Ok((
            repro.param_u64("na")? as u32,
            repro.param_u64("nb")? as u32,
            repro.param_u64("n")? as u32,
        ))
    }
}

// ---------------------------------------------------------------------
// games-orders
// ---------------------------------------------------------------------

/// The EF solver on linear orders must match the exact Theorem 3.1
/// characterization `L_m ≡ₙ L_k ⟺ m = k ∨ m, k ≥ 2ⁿ − 1`.
#[derive(Debug)]
pub struct GamesOrders;

impl Shape for GamesOrders {
    const NAME: &'static str = "games-orders";
    type Case = (u64, u64, u32);

    fn counter(&self) -> &'static Counter {
        &OBS_ORDERS
    }

    fn generate(&self, rng: &mut StdRng) -> (u64, u64, u32) {
        let m = rng.random_range(1..=9u64);
        let k = rng.random_range(1..=9u64);
        (m, k, rng.random_range(1..=3u32))
    }

    fn check(&self, &(m, k, n): &(u64, u64, u32)) -> Result<(), String> {
        if m == 0 || k == 0 || n == 0 {
            return Ok(()); // builders::linear_order wants nonempty orders
        }
        let a = builders::linear_order(m as u32);
        let b = builders::linear_order(k as u32);
        let solver = EfSolver::new(&a, &b).duplicator_wins(n);
        let closed_form = orders_equivalent(m, k, n);
        if solver == closed_form {
            Ok(())
        } else {
            Err(format!("solver={solver} closed_form={closed_form}"))
        }
    }

    fn encode(&self, &(m, k, n): &(u64, u64, u32), repro: &mut ReproCase) {
        repro.sig = vec![("<".to_owned(), 2)];
        repro.params = vec![param("m", m), param("k", k), param("n", n)];
    }

    fn decode(&self, repro: &ReproCase) -> Result<(u64, u64, u32), String> {
        Ok((
            repro.param_u64("m")?,
            repro.param_u64("k")?,
            repro.param_u64("n")? as u32,
        ))
    }
}

// ---------------------------------------------------------------------
// hanf-locality
// ---------------------------------------------------------------------

/// Census-based Hanf equivalence must be symmetric, reflexive up to
/// relabeling, downward monotone in the radius, and must imply
/// game equivalence at the Hanf radius `(3ⁿ − 1)/2` (Hanf's theorem,
/// cross-checked against direct EF search).
#[derive(Debug)]
pub struct HanfLocality;

/// A `hanf-locality` case: two graphs, a census radius and a game rank.
#[derive(Debug, Clone)]
pub struct HanfCase {
    a: Structure,
    b: Structure,
    r: u32,
    n: u32,
    /// `b` is a relabeling of `a`, so `a ⇆ᵣ b` must hold at every `r`.
    relabel: bool,
}

impl Shrinkable for HanfCase {
    /// The pair shrinks; a relabeled copy stays whole, since shrinking
    /// its sides apart would no longer leave a relabeling.
    fn shrink_candidates(&self) -> Vec<HanfCase> {
        if self.relabel {
            return Vec::new();
        }
        let pair = (self.a.clone(), self.b.clone());
        (pair.shrink_candidates().into_iter())
            .map(|(a, b)| HanfCase { a, b, ..*self })
            .collect()
    }
}

/// The recorded `kind`s: the violations in the order they are checked,
/// then `none` for a case that upholds every invariant.
const HANF_KINDS: [&str; 5] = ["relabel", "symmetry", "monotone", "hanf-theorem", "none"];

/// The Hanf-locality rank bound: `A ⇆ᵣ B` with `r = (3ⁿ − 1)/2`
/// implies `A ≡ₙ B`.
fn hanf_radius(n: u32) -> u32 {
    (3u32.pow(n) - 1) / 2
}

/// The first of [`HANF_KINDS`] the case violates.
fn hanf_violation(c: &HanfCase) -> Option<&'static str> {
    let (a, b, r, n) = (&c.a, &c.b, c.r, c.n);
    if c.relabel && !hanf_equivalent(a, b, r) {
        return Some("relabel");
    }
    if hanf_equivalent(a, b, r) != hanf_equivalent(b, a, r) {
        return Some("symmetry");
    }
    if hanf_equivalent(a, b, r + 1) && !hanf_equivalent(a, b, r) {
        return Some("monotone");
    }
    if n > 0 && hanf_equivalent(a, b, hanf_radius(n)) && !EfSolver::new(a, b).duplicator_wins(n) {
        return Some("hanf-theorem");
    }
    None
}

impl Shape for HanfLocality {
    const NAME: &'static str = "hanf-locality";
    type Case = HanfCase;

    fn counter(&self) -> &'static Counter {
        &OBS_HANF
    }

    fn generate(&self, rng: &mut StdRng) -> HanfCase {
        let cfg = GenConfig::default();
        // Alternate between adversarial random pairs and the survey's
        // cycle construction C_m ⊎ C_m vs C_2m, which actually exercises
        // the theorem direction (random pairs are rarely ⇆ᵣ-equivalent).
        let (a, b, relabel) = if rng.random_bool(0.5) {
            let a = gen::random_graph(rng, &cfg);
            if rng.random_bool(0.3) {
                // A shuffled relabeling: ⇆ᵣ must hold at every radius.
                let mut perm: Vec<u32> = a.domain().collect();
                for i in (1..perm.len()).rev() {
                    let j = rng.random_range(0..=i);
                    perm.swap(i, j);
                }
                let b = a.relabel(&perm);
                (a, b, true)
            } else {
                let b = gen::random_graph(rng, &cfg);
                (a, b, false)
            }
        } else {
            let m = rng.random_range(4..=10u32);
            let two = builders::copies(&builders::undirected_cycle(m), 2);
            (two, builders::undirected_cycle(2 * m), false)
        };
        let r = rng.random_range(0..=2u32);
        let n = rng.random_range(1..=2u32);
        HanfCase {
            a,
            b,
            r,
            n,
            relabel,
        }
    }

    fn check(&self, c: &HanfCase) -> Result<(), String> {
        match hanf_violation(c) {
            Some(kind) => Err(format!("hanf invariant broken: {kind}")),
            None => Ok(()),
        }
    }

    fn encode(&self, c: &HanfCase, repro: &mut ReproCase) {
        let kind = hanf_violation(c).unwrap_or(if c.relabel { "relabel" } else { "none" });
        repro.params = vec![param("kind", kind), param("r", c.r), param("n", c.n)];
        repro.structures = vec![block("A", &c.a), block("B", &c.b)];
    }

    fn decode(&self, repro: &ReproCase) -> Result<HanfCase, String> {
        let kind = repro.param_str("kind")?;
        if !HANF_KINDS.contains(&kind) {
            return Err(format!("unknown hanf violation kind {kind:?}"));
        }
        let relabel = kind == "relabel";
        Ok(HanfCase {
            a: repro.structure("A")?,
            b: repro.structure("B")?,
            r: repro.param_u64("r")? as u32,
            // Relabel cases may omit the game rank; 0 skips the theorem.
            n: match repro.param("n") {
                None if relabel => 0,
                _ => repro.param_u64("n")? as u32,
            },
            relabel,
        })
    }
}

// ---------------------------------------------------------------------
// The Datalog engine matrix
// ---------------------------------------------------------------------

/// One engine configuration of the Datalog [`MATRIX`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// The naive engine: every rule on the full extents each round.
    Naive,
    /// The written-order scan engine over `HashSet` extents.
    Scan,
    /// The indexed semi-naive engine at this many threads.
    Indexed(usize),
}

/// The engine configurations every Datalog oracle runs. Conform graphs
/// have at most 6 elements, so every round drives far fewer than the
/// 512 rows at which the indexed engine starts sharding: `indexed(3)`
/// takes the inline path of `indexed(1)` and guards the thread count's
/// plumbing. `tests/datalog_engines.rs` covers the sharded join.
const MATRIX: [Engine; 4] = [
    Engine::Naive,
    Engine::Scan,
    Engine::Indexed(1),
    Engine::Indexed(3),
];

impl Engine {
    fn run(self, prog: &Program, s: &Structure, budget: &Budget) -> Result<Output, EvalError> {
        match self {
            Engine::Naive => prog.try_eval_naive(s, budget),
            Engine::Scan => prog.try_eval_seminaive_scan(s, budget),
            Engine::Indexed(threads) => prog.try_eval_seminaive_with(s, threads, budget),
        }
    }

    /// Whether a run's exhaustion point is reproducible: multi-thread
    /// configurations share fuel across workers, so their exhaustion
    /// tick is legitimately racy.
    fn deterministic(self) -> bool {
        !matches!(self, Engine::Indexed(threads) if threads > 1)
    }
}

impl Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Naive => f.write_str("naive"),
            Engine::Scan => f.write_str("scan"),
            Engine::Indexed(threads) => write!(f, "indexed({threads})"),
        }
    }
}

/// IDB extents in the one form the oracles compare: per IDB, its rows
/// sorted.
type Extents = Vec<Vec<Vec<Elem>>>;

/// The canonical [`Extents`] of `idbs` relations.
fn extents<'a>(idbs: usize, relation: impl Fn(usize) -> &'a TupleStore) -> Extents {
    (0..idbs)
        .map(|i| {
            let mut rows: Vec<Vec<Elem>> = relation(i).iter().collect();
            rows.sort();
            rows
        })
        .collect()
}

fn output_extents(prog: &Program, out: &Output) -> Extents {
    extents(prog.num_idbs(), |i| out.relation(i))
}

/// Each engine's unbudgeted result, in order.
type EngineRuns = Vec<(Engine, Result<Output, EvalError>)>;

/// Runs each engine on `(prog, s)` without a budget, catching panics:
/// the results, or a note naming the engine that panicked.
fn run_engines(engines: &[Engine], prog: &Program, s: &Structure) -> Result<EngineRuns, String> {
    let unlimited = Budget::unlimited();
    (engines.iter())
        .map(|&engine| {
            catch_unwind(AssertUnwindSafe(|| engine.run(prog, s, &unlimited)))
                .map(|out| (engine, out))
                .map_err(|_| format!("{engine} panicked"))
        })
        .collect()
}

/// One engine's outcome under a finite fuel budget.
#[derive(Debug, Clone, PartialEq, Eq)]
enum FuelOutcome<T> {
    /// Completed within budget.
    Done(T),
    /// Failed cleanly, having spent this many ticks.
    Exhausted(u64),
    /// Panicked — always a violation.
    Panicked,
}

fn run_with_fuel<T>(fuel: u64, run: impl FnOnce(&Budget) -> BudgetResult<T>) -> FuelOutcome<T> {
    let budget = Budget::with_fuel(fuel);
    match catch_unwind(AssertUnwindSafe(|| {
        if inject_armed("budget-fault") {
            panic!("injected budget fault ({INJECT_ENV}=budget-fault)");
        }
        run(&budget)
    })) {
        Err(_) => FuelOutcome::Panicked,
        Ok(Ok(v)) => FuelOutcome::Done(v),
        Ok(Err(e)) => FuelOutcome::Exhausted(e.spent),
    }
}

/// The fuel contract for one engine: run under `fuel` it completes or
/// exhausts cleanly, never panicking, and a `deterministic` one run
/// twice gives the identical outcome, exhaustion tick included. Returns
/// the value it completed with, if any.
fn fuel_check<T: PartialEq + Debug>(
    name: &str,
    fuel: u64,
    deterministic: bool,
    run: impl Fn(&Budget) -> BudgetResult<T>,
) -> Result<Option<T>, String> {
    let first = run_with_fuel(fuel, &run);
    if matches!(first, FuelOutcome::Panicked) {
        return Err(format!("{name} panicked under fuel {fuel}"));
    }
    if deterministic {
        let second = run_with_fuel(fuel, &run);
        if first != second {
            return Err(format!(
                "{name} is fuel-nondeterministic under fuel {fuel}: {first:?} vs {second:?}"
            ));
        }
    }
    match first {
        FuelOutcome::Done(v) => Ok(Some(v)),
        _ => Ok(None),
    }
}

/// The fuel contract on the whole [`MATRIX`]: [`fuel_check`] on every
/// engine (twice on the deterministic ones), then agreement among the
/// engines that completed. `label` prefixes the engine names in notes.
fn fuel_contract<T: PartialEq + Debug>(
    label: &str,
    fuel: u64,
    run: impl Fn(Engine, &Budget) -> BudgetResult<T>,
) -> Result<(), String> {
    let mut done = Vec::new();
    for engine in MATRIX {
        let name = format!("{label}.{engine}");
        if let Some(v) = fuel_check(&name, fuel, engine.deterministic(), |b| run(engine, b))? {
            done.push((name, v));
        }
    }
    agree(&format!("completed engines under fuel {fuel}"), &done)
}

// ---------------------------------------------------------------------
// datalog-engines
// ---------------------------------------------------------------------

/// Every engine of the matrix must compute the identical fixpoint,
/// and the semi-naive ones identical work counters, on random programs.
#[derive(Debug)]
pub struct DatalogEngines;

fn check_datalog_engines(s: &Structure, src: &str) -> Result<(), String> {
    let prog =
        Program::parse(s.signature(), src).map_err(|e| format!("program failed to parse: {e}"))?;
    let mut fixpoints = Vec::new();
    let mut work = Vec::new();
    for (engine, out) in run_engines(&MATRIX, &prog, s)? {
        let out = out.map_err(|e| format!("{engine} failed: {e}"))?;
        if engine != Engine::Naive {
            let counters = (out.iterations, out.derivations, out.delta_history.clone());
            work.push((engine, counters));
        }
        fixpoints.push((engine, output_extents(&prog, &out)));
    }
    agree("fixpoints", &fixpoints)?;
    agree("work counters", &work)
}

impl Shape for DatalogEngines {
    const NAME: &'static str = "datalog-engines";
    type Case = (Structure, Fixed<String>);

    fn counter(&self) -> &'static Counter {
        &OBS_DATALOG
    }

    fn generate(&self, rng: &mut StdRng) -> Self::Case {
        let s = gen::random_graph(rng, &GenConfig::default());
        (s, Fixed(gen::random_datalog_program(rng)))
    }

    fn check(&self, (s, Fixed(src)): &Self::Case) -> Result<(), String> {
        check_datalog_engines(s, src)
    }

    fn encode(&self, (s, Fixed(src)): &Self::Case, repro: &mut ReproCase) {
        repro.params = vec![param("program", src.trim())];
        repro.structures.push(block("A", s));
    }

    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String> {
        let src = repro.param_str("program")?.to_owned();
        Ok((repro.structure("A")?, Fixed(src)))
    }
}

// ---------------------------------------------------------------------
// lint-clean
// ---------------------------------------------------------------------

/// The static/dynamic contract of `fmt-lint`: the generators never
/// produce an input the linter rejects outright (error severity), and
/// an input the linter passes — warnings allowed — evaluates without a
/// panic and with all engines agreeing.
#[derive(Debug)]
pub struct LintClean;

/// What `lint-clean` and `budget-fault` check on a graph.
#[derive(Debug, Clone)]
pub enum Input {
    /// A sentence, in the FO text syntax.
    Formula(String),
    /// A Datalog program.
    Program(String),
}

impl Input {
    /// A sentence or a program, with even odds.
    fn generate(rng: &mut StdRng, cfg: &GenConfig, s: &Structure) -> Input {
        if rng.random_bool(0.5) {
            let f = gen::random_sentence(rng, cfg);
            Input::Formula(format!("{}", f.display(s.signature())))
        } else {
            Input::Program(gen::random_datalog_program(rng))
        }
    }

    /// Records the input's `kind`, then `fuel` (if any), then its text.
    fn encode(&self, fuel: Option<Fuel>, repro: &mut ReproCase) {
        let kind = match self {
            Input::Formula(_) => "formula",
            Input::Program(_) => "program",
        };
        repro.params.push(param("kind", kind));
        repro.params.extend(fuel.map(|Fuel(f)| param("fuel", f)));
        match self {
            Input::Formula(text) => repro.formula = Some(text.clone()),
            Input::Program(src) => repro.params.push(param("program", src.trim())),
        }
    }

    fn decode(repro: &ReproCase) -> Result<Input, String> {
        match repro.param_str("kind")? {
            "formula" => Ok(Input::Formula(formula_text(repro)?.to_owned())),
            "program" => Ok(Input::Program(repro.param_str("program")?.to_owned())),
            other => Err(format!("unknown case kind {other:?}")),
        }
    }
}

fn lint_cfg() -> LintConfig {
    LintConfig {
        expect_sentence: true,
        ..LintConfig::default()
    }
}

fn first_lint_error(diags: &[fmt_lint::Diagnostic]) -> Result<(), String> {
    match diags
        .iter()
        .find(|d| d.severity == fmt_lint::Severity::Error)
    {
        Some(d) => Err(format!("{}: {}", d.code, d.message)),
        None => Ok(()),
    }
}

/// `Ok` when the sentence upholds the lint-clean contract on `s`.
fn check_lint_clean_formula(s: &Structure, text: &str) -> Result<(), String> {
    first_lint_error(&fmt_lint::lint_formula_src(
        s.signature(),
        text,
        &lint_cfg(),
    ))
    .map_err(|e| format!("linter rejects a generated sentence ({e})"))?;
    let f = parser::parse_formula(s.signature(), text)
        .map_err(|e| format!("lint-clean sentence fails to parse: {e}"))?;
    match catch_unwind(AssertUnwindSafe(|| eval_agree(s, &f))) {
        Err(_) => Err("evaluation panicked on a lint-clean sentence".to_owned()),
        Ok(verdict) => {
            verdict.map_err(|note| format!("engines disagree on a lint-clean sentence: {note}"))
        }
    }
}

/// `Ok` when the program upholds the lint-clean contract on `s`.
fn check_lint_clean_program(s: &Structure, src: &str) -> Result<(), String> {
    first_lint_error(&fmt_lint::lint_program_src(s.signature(), src, &lint_cfg()))
        .map_err(|e| format!("linter rejects a generated program ({e})"))?;
    check_datalog_engines(s, src).map_err(|note| format!("lint-clean program: {note}"))
}

impl Shape for LintClean {
    const NAME: &'static str = "lint-clean";
    type Case = (Structure, Fixed<Input>);

    fn counter(&self) -> &'static Counter {
        &OBS_LINT
    }

    fn generate(&self, rng: &mut StdRng) -> Self::Case {
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        let input = Input::generate(rng, &cfg, &s);
        (s, Fixed(input))
    }

    fn check(&self, (s, Fixed(input)): &Self::Case) -> Result<(), String> {
        match input {
            Input::Formula(text) => check_lint_clean_formula(s, text),
            Input::Program(src) => check_lint_clean_program(s, src),
        }
    }

    fn encode(&self, (s, Fixed(input)): &Self::Case, repro: &mut ReproCase) {
        input.encode(None, repro);
        repro.structures.push(block("A", s));
    }

    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String> {
        Ok((repro.structure("A")?, Fixed(Input::decode(repro)?)))
    }
}

// ---------------------------------------------------------------------
// budget-fault
// ---------------------------------------------------------------------

/// Fault injection for the budget layer: every engine run under a
/// tight random fuel budget must either complete (agreeing with every
/// other engine that completed) or fail cleanly with `Exhausted` —
/// never panic — and rerunning a single-threaded engine with the same
/// fuel must reproduce the identical outcome, exhaustion tick
/// included.
#[derive(Debug)]
pub struct BudgetFault;

/// `Ok` when all three FO engines uphold the fuel contract on
/// `(s, text)` under `fuel`.
fn check_budget_formula(s: &Structure, text: &str, fuel: u64) -> Result<(), String> {
    let Ok(f) = parser::parse_formula(s.signature(), text) else {
        return Ok(());
    };
    if !f.is_sentence() || f.well_formed(s.signature()).is_err() {
        return Ok(());
    }
    type Run<'a> = &'a dyn Fn(&Budget) -> BudgetResult<bool>;
    let runs: [(&str, Run<'_>); 3] = [
        ("eval.naive", &|b| naive::check_sentence_budgeted(s, &f, b)),
        ("eval.relalg", &|b| {
            relalg::check_sentence_budgeted(s, &f, b)
        }),
        ("eval.circuit", &|b| {
            let (c, layout) = circuit::compile_budgeted(s.signature(), &f, s.size(), b)?;
            c.try_eval(&layout.encode(s), b)
        }),
    ];
    let mut done = Vec::new();
    for (name, run) in runs {
        if let Some(v) = fuel_check(name, fuel, true, run)? {
            done.push((name, v));
        }
    }
    agree(&format!("completed engines under fuel {fuel}"), &done)
}

/// `Ok` when the [`MATRIX`] upholds the fuel contract on `(s, src)`
/// under `fuel`.
fn check_budget_program(s: &Structure, src: &str, fuel: u64) -> Result<(), String> {
    let Ok(prog) = Program::parse(s.signature(), src) else {
        return Ok(());
    };
    fuel_contract("datalog", fuel, |engine, b| {
        let out = engine.run(&prog, s, b).map_err(EvalError::into_exhausted)?;
        Ok(output_extents(&prog, &out))
    })
}

impl Shape for BudgetFault {
    const NAME: &'static str = "budget-fault";
    type Case = (Structure, Fuel, Fixed<Input>);

    fn counter(&self) -> &'static Counter {
        &OBS_BUDGET
    }

    fn generate(&self, rng: &mut StdRng) -> Self::Case {
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        let fuel = Fuel(rng.random_range(1..=48u64));
        let input = Input::generate(rng, &cfg, &s);
        (s, fuel, Fixed(input))
    }

    fn check(&self, (s, Fuel(fuel), Fixed(input)): &Self::Case) -> Result<(), String> {
        match input {
            Input::Formula(text) => check_budget_formula(s, text, *fuel),
            Input::Program(src) => check_budget_program(s, src, *fuel),
        }
    }

    fn encode(&self, (s, fuel, Fixed(input)): &Self::Case, repro: &mut ReproCase) {
        input.encode(Some(*fuel), repro);
        repro.structures.push(block("A", s));
    }

    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String> {
        let input = Input::decode(repro)?;
        Ok((repro.structure("A")?, decode_fuel(repro)?, Fixed(input)))
    }
}

// ---------------------------------------------------------------------
// incremental
// ---------------------------------------------------------------------

/// Trace equivalence for the incremental Datalog runtime: replaying a
/// random insert/retract trace through `DatalogRuntime` must yield the
/// same IDB extents as from-scratch semi-naive recomputation at every
/// `poll` (at each thread count of the matrix's indexed engine),
/// and replaying the same trace under a tight shared fuel budget must
/// never panic, must be outcome-deterministic, and must recover to the
/// exact fixpoint with one unbudgeted poll afterwards.
#[derive(Debug)]
pub struct Incremental;

/// The from-scratch reference: the one-thread indexed engine over a
/// structure holding exactly `facts`.
fn incr_scratch(prog: &Program, domain: u32, facts: &BTreeSet<(u32, u32)>) -> Extents {
    let e = prog.signature().relation("E").expect("graph signature");
    let mut b = StructureBuilder::new(prog.signature().clone(), domain);
    for &(u, v) in facts {
        b.add(e, &[u, v]).expect("trace ops are in domain");
    }
    let s = b.build().expect("trace structure is valid");
    let out = (Engine::Indexed(1).run(prog, &s, &Budget::unlimited()))
        .expect("generated incremental programs are negation-free");
    output_extents(prog, &out)
}

fn new_runtime(prog: &Program, domain: u32) -> DatalogRuntime {
    DatalogRuntime::new(prog.clone(), domain)
        .expect("generated incremental programs are negation-free")
}

/// Queues an insertion or retraction; a poll is the caller's to run.
fn queue(rt: &mut DatalogRuntime, e: RelId, op: UpdateOp) {
    match op {
        UpdateOp::Insert(u, v) => rt.insert(e, &[u, v]),
        UpdateOp::Retract(u, v) => rt.retract(e, &[u, v]),
        UpdateOp::Poll => {}
    }
}

/// `Ok` when the runtime upholds the trace-equivalence and budget
/// contracts on `(src, trace, fuel)`.
fn check_incremental(src: &str, trace: &UpdateTrace, fuel: u64) -> Result<(), String> {
    let sig = Signature::graph();
    let prog = Program::parse(&sig, src).map_err(|e| format!("program failed to parse: {e}"))?;
    let e = sig.relation("E").expect("graph signature");
    if inject_armed("incremental") {
        return Err(format!(
            "injected incremental fault ({INJECT_ENV}=incremental)"
        ));
    }

    // Half one: unbudgeted trace equivalence, at each thread count of
    // the matrix's indexed engine.
    let mut facts = BTreeSet::new();
    let mut runtimes: Vec<DatalogRuntime> = (MATRIX.iter())
        .filter_map(|engine| match *engine {
            Engine::Indexed(threads) => Some(threads),
            _ => None,
        })
        .map(|threads| {
            let mut rt = new_runtime(&prog, trace.domain);
            rt.set_threads(threads);
            rt
        })
        .collect();
    for (step, &op) in trace.ops.iter().enumerate() {
        match op {
            UpdateOp::Insert(u, v) => {
                facts.insert((u, v));
            }
            UpdateOp::Retract(u, v) => {
                facts.remove(&(u, v));
            }
            UpdateOp::Poll => {}
        }
        for rt in &mut runtimes {
            queue(rt, e, op);
        }
        if op != UpdateOp::Poll {
            continue;
        }
        let want = incr_scratch(&prog, trace.domain, &facts);
        for rt in &mut runtimes {
            rt.poll();
            let got = extents(prog.num_idbs(), |i| rt.query(i));
            if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
                return Err(format!(
                    "runtime({} threads) diverges from scratch on {} at poll (op {step}): \
                     {:?} vs {:?}",
                    rt.threads(),
                    prog.idb_info(i).0,
                    got[i],
                    want[i]
                ));
            }
        }
    }

    // Half two: the same trace under one tight shared fuel budget must
    // not panic and must produce the identical outcome sequence twice
    // (single-threaded exhaustion is deterministic), then recover to
    // the exact fixpoint with one unbudgeted poll.
    let budgeted = || -> Result<Vec<String>, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let budget = Budget::with_fuel(fuel);
            let mut rt = new_runtime(&prog, trace.domain);
            let mut outcomes = Vec::new();
            for &op in &trace.ops {
                queue(&mut rt, e, op);
                if op == UpdateOp::Poll {
                    outcomes.push(match rt.try_poll(&budget) {
                        Ok(stats) => format!("ok rebuilt={}", stats.rebuilt),
                        Err(ex) => format!("exhausted spent={} at={}", ex.spent, ex.at),
                    });
                }
            }
            let final_poll = rt.poll();
            outcomes.push(format!("recovery rebuilt={}", final_poll.rebuilt));
            let want = incr_scratch(&prog, trace.domain, &facts);
            let got = extents(prog.num_idbs(), |i| rt.query(i));
            if let Some(i) = (0..want.len()).find(|&i| got[i] != want[i]) {
                let (name, _) = prog.idb_info(i);
                outcomes.push(format!("post-recovery divergence on {name}"));
            }
            outcomes
        }))
        .map_err(|_| format!("runtime panicked replaying the trace under fuel {fuel}"))
    };
    let first = budgeted()?;
    if let Some(bad) = first.iter().find(|o| o.starts_with("post-recovery")) {
        return Err(format!("{bad} under fuel {fuel}"));
    }
    let second = budgeted()?;
    if first != second {
        return Err(format!(
            "budgeted replay is nondeterministic under fuel {fuel}: {first:?} vs {second:?}"
        ));
    }
    Ok(())
}

impl Shape for Incremental {
    const NAME: &'static str = "incremental";
    type Case = (UpdateTrace, Fuel, Fixed<String>);

    fn counter(&self) -> &'static Counter {
        &OBS_INCR
    }

    fn generate(&self, rng: &mut StdRng) -> Self::Case {
        let src = gen::random_datalog_program(rng);
        let trace = gen::random_update_trace(rng);
        let fuel = Fuel(rng.random_range(1..=300u64));
        (trace, fuel, Fixed(src))
    }

    fn check(&self, (trace, Fuel(fuel), Fixed(src)): &Self::Case) -> Result<(), String> {
        check_incremental(src, trace, *fuel)
    }

    fn encode(&self, (trace, Fuel(fuel), Fixed(src)): &Self::Case, repro: &mut ReproCase) {
        repro.params = vec![
            param("domain", trace.domain),
            param("program", src.trim()),
            param("trace", trace.to_compact()),
            param("fuel", fuel),
        ];
    }

    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String> {
        let domain = repro.param_u64("domain")? as u32;
        let src = repro.param_str("program")?.to_owned();
        let trace = UpdateTrace::parse_compact(domain, repro.param_str("trace")?)?;
        Ok((trace, decode_fuel(repro)?, Fixed(src)))
    }
}

// ---------------------------------------------------------------------
// stratified
// ---------------------------------------------------------------------

/// Stratified negation, coherent end to end: on random stratified
/// programs (and seeded unstratifiable/unsafe mutants) the lint
/// verdict must match every engine's behavior — D006/D007 errors iff
/// the engine returns the matching typed [`EvalError`], never a panic
/// — every matrix engine must agree on extents when evaluation is
/// legal, and tight fuel budgets must fail cleanly and
/// deterministically.
#[derive(Debug)]
pub struct Stratified;

/// `Ok` when the stratified-negation contract holds on `(s, src)`
/// under `fuel`. `expect_defect` is the generator's own claim (a
/// mutant was / was not seeded), cross-checked against the linter to
/// catch generator/linter drift.
fn check_stratified(
    s: &Structure,
    src: &str,
    fuel: u64,
    expect_defect: Option<bool>,
) -> Result<(), String> {
    if inject_armed("stratified") {
        return Err(format!(
            "injected stratification fault ({INJECT_ENV}=stratified)"
        ));
    }
    let prog =
        Program::parse(s.signature(), src).map_err(|e| format!("program failed to parse: {e}"))?;
    let diags = fmt_lint::lint_program_src(s.signature(), src, &LintConfig::default());
    let lint_d006 = diags.iter().any(|d| d.code == "D006");
    let lint_d007 = diags.iter().any(|d| d.code == "D007");
    let statically_rejected = lint_d006 || lint_d007;
    if let Some(defect) = expect_defect {
        if defect != statically_rejected {
            return Err(format!(
                "generator seeded defect={defect} but lint reports D006={lint_d006} \
                 D007={lint_d007}"
            ));
        }
    }

    // An engine's verdict: extents, or the lint code its typed error
    // corresponds to.
    let classify = |r: Result<Output, EvalError>| match r {
        Ok(out) => Ok(output_extents(&prog, &out)),
        Err(EvalError::Unstratifiable { .. }) => Err("D006"),
        Err(EvalError::UnsafeNegation { .. }) => Err("D007"),
        Err(EvalError::Exhausted(e)) => Err(if e.spent == 0 {
            "spurious"
        } else {
            "exhausted"
        }),
    };
    let mut done = Vec::new();
    for (engine, out) in run_engines(&MATRIX, &prog, s)? {
        match classify(out) {
            Err(code @ ("D006" | "D007")) => {
                let coherent = (code == "D006" && lint_d006) || (code == "D007" && lint_d007);
                if !coherent {
                    return Err(format!(
                        "{engine} rejected with {code} but lint reports D006={lint_d006} \
                         D007={lint_d007}"
                    ));
                }
            }
            Err(code) => return Err(format!("{engine} failed with {code} on unlimited budget")),
            Ok(_) if statically_rejected => {
                return Err(format!(
                    "lint rejects the program (D006={lint_d006} D007={lint_d007}) but {engine} \
                     evaluated it"
                ))
            }
            Ok(extents) => done.push((engine, extents)),
        }
    }
    agree("stratified extents", &done)?;

    // Budget transparency: the typed errors are verdicts like extents;
    // only exhaustion is the budget's.
    fuel_contract("stratified", fuel, |engine, b| {
        match engine.run(&prog, s, b) {
            Err(EvalError::Exhausted(e)) => Err(e),
            other => Ok(classify(other)),
        }
    })
}

impl Shape for Stratified {
    const NAME: &'static str = "stratified";
    type Case = (Structure, Fuel, Fixed<(String, Option<bool>)>);

    fn counter(&self) -> &'static Counter {
        &OBS_STRAT
    }

    fn generate(&self, rng: &mut StdRng) -> Self::Case {
        let s = gen::random_graph(rng, &GenConfig::default());
        let (src, defect) = gen::random_stratified_program(rng);
        let fuel = Fuel(rng.random_range(8..=96u64));
        (s, fuel, Fixed((src, Some(defect))))
    }

    fn check(&self, (s, Fuel(fuel), Fixed((src, defect))): &Self::Case) -> Result<(), String> {
        check_stratified(s, src, *fuel, *defect)
    }

    fn encode(&self, (s, Fuel(fuel), Fixed((src, defect))): &Self::Case, repro: &mut ReproCase) {
        repro.params.push(param("fuel", fuel));
        repro.params.extend(defect.map(|d| param("mutant", d)));
        repro.params.push(param("program", src.trim()));
        repro.structures.push(block("A", s));
    }

    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String> {
        let defect = match repro.param("mutant") {
            Some("true") => Some(true),
            Some("false") => Some(false),
            _ => None,
        };
        let src = repro.param_str("program")?.to_owned();
        Ok((
            repro.structure("A")?,
            decode_fuel(repro)?,
            Fixed((src, defect)),
        ))
    }
}

// ---------------------------------------------------------------------
// magic
// ---------------------------------------------------------------------

/// Goal-directed evaluation must be sound and complete for its goal:
/// on random stratified programs and random bound/free goals, the
/// magic-sets-rewritten program — evaluated by every matrix engine
/// — must produce exactly the goal-matching tuples of a full
/// materialization of the original program, deterministically under
/// random fuel. Rewrites the engines reject (`Original` /
/// `Unstratifiable`) are cross-checked against direct evaluation.
/// Those engines run on the prepared structure, which shares the
/// input's relations and so the EDB indexes earlier runs cached on
/// them; `magic.cold` repeats the indexed run on a rebuilt copy with
/// no cached index, so warm and cold indexes answer alike.
#[derive(Debug)]
pub struct Magic;

/// `Ok` when the goal-directed contract holds on `(s, src, goal)`
/// under `fuel`.
fn check_magic(s: &Structure, src: &str, goal_src: &str, fuel: u64) -> Result<(), String> {
    if inject_armed("magic") {
        return Err(format!("injected magic-sets fault ({INJECT_ENV}=magic)"));
    }
    let prog =
        Program::parse(s.signature(), src).map_err(|e| format!("program failed to parse: {e}"))?;
    let goal = magic::parse_goal(goal_src).map_err(|e| format!("goal failed to parse: {e}"))?;
    let unlimited = Budget::unlimited();
    let mq = match magic::rewrite(&prog, &goal) {
        Ok(mq) => mq,
        // The original program is statically rejected; the engines
        // must reject it too (same typed-error coherence the
        // stratified oracle checks in depth), and there is nothing to
        // compare.
        Err(MagicError::Original(_)) => {
            return match prog.try_eval_naive(s, &unlimited) {
                Err(EvalError::Unstratifiable { .. } | EvalError::UnsafeNegation { .. }) => Ok(()),
                other => Err(format!(
                    "rewrite reports an Original error but naive evaluation says {:?}",
                    other.map(|o| o.derivations)
                )),
            };
        }
        // The demand rules closed a negative cycle: a legal refusal,
        // but only on a program that full materialization accepts —
        // otherwise `Original` should have fired first.
        Err(MagicError::Unstratifiable { .. }) => {
            return match prog.try_eval_naive(s, &unlimited) {
                Ok(_) => Ok(()),
                Err(e) => Err(format!(
                    "rewrite is Unstratifiable on a program the naive engine also rejects: {e}"
                )),
            };
        }
        // The generator only emits resolvable goals.
        Err(e) => return Err(format!("generated goal failed to resolve: {e}")),
    };

    // Ground truth: goal-filter a full materialization of the original
    // program (statically legal, or `Original` would have fired).
    let (_, full) = run_engines(&[Engine::Naive], &prog, s)
        .map_err(|note| format!("full materialization: {note}"))?
        .remove(0);
    let full = full.map_err(|e| {
        format!("full materialization failed after rewrite accepted the program: {e}")
    })?;
    let expected = mq.filter(s, full.relation(mq.orig_idb));

    // Every engine configuration on the rewritten program must answer
    // the goal identically to the ground truth.
    let es = mq.prepare(s);
    let cold = cold_copy(&es);
    let rprog = &mq.program;
    let warm_and_cold: [(&str, &Structure, &[Engine]); 2] = [
        ("magic", &es, &MATRIX),
        ("magic.cold", &cold, &[Engine::Indexed(1)]),
    ];
    for (label, structure, engines) in warm_and_cold {
        for (engine, out) in run_engines(engines, rprog, structure)
            .map_err(|note| format!("{label}.{note} on a rewritten program"))?
        {
            let out =
                out.map_err(|e| format!("{label}.{engine} rejected the rewritten program: {e}"))?;
            let answers = mq.answers(s, &out);
            if answers != expected {
                return Err(format!(
                    "{label}.{engine} goal answers diverge from goal-filtered full \
                     materialization: {answers:?} vs {expected:?} (goal {goal_src})"
                ));
            }
        }
    }

    // Budget transparency on the rewritten program.
    fuel_contract("magic", fuel, |engine, b| {
        let out = engine
            .run(rprog, &es, b)
            .map_err(EvalError::into_exhausted)?;
        Ok(mq.answers(s, &out))
    })
}

/// `s` rebuilt tuple by tuple through [`StructureBuilder`]: equal to
/// `s`, but sharing none of its relations and with no index cached.
fn cold_copy(s: &Structure) -> Structure {
    let sig = s.signature();
    let mut b = StructureBuilder::new(sig.clone(), s.size());
    for (r, _, _) in sig.relations() {
        for t in s.rel(r).iter() {
            b.add(r, t)
                .expect("a built structure's tuples are in range");
        }
    }
    for (c, _) in sig.constants() {
        b.set_constant(c, s.constant(c));
    }
    b.build().expect("a built structure rebuilds")
}

impl Shape for Magic {
    const NAME: &'static str = "magic";
    type Case = (Structure, Fuel, Fixed<(String, String)>);

    fn counter(&self) -> &'static Counter {
        &OBS_MAGIC
    }

    fn generate(&self, rng: &mut StdRng) -> Self::Case {
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        // Mutant programs are kept: they exercise the `Original`
        // cross-check branch (rewrite and engines must both reject).
        let (src, _) = gen::random_stratified_program(rng);
        let prog = Program::parse(s.signature(), &src).expect("generated programs parse");
        let goal = gen::random_goal(rng, &prog, cfg.max_size);
        let fuel = Fuel(rng.random_range(8..=96u64));
        (s, fuel, Fixed((src, goal)))
    }

    fn check(&self, (s, Fuel(fuel), Fixed((src, goal))): &Self::Case) -> Result<(), String> {
        check_magic(s, src, goal, *fuel)
    }

    fn encode(&self, (s, Fuel(fuel), Fixed((src, goal))): &Self::Case, repro: &mut ReproCase) {
        repro.params = vec![
            param("fuel", fuel),
            param("goal", goal),
            param("program", src.trim()),
        ];
        repro.structures.push(block("A", s));
    }

    fn decode(&self, repro: &ReproCase) -> Result<Self::Case, String> {
        let src = repro.param_str("program")?.to_owned();
        let goal = repro.param_str("goal")?.to_owned();
        Ok((
            repro.structure("A")?,
            decode_fuel(repro)?,
            Fixed((src, goal)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let names: Vec<&str> = all_oracles().iter().map(|o| o.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for n in names {
            assert!(find_oracle(n).is_some());
        }
        assert!(find_oracle("nonsense").is_none());
    }

    #[test]
    fn every_oracle_passes_a_quick_hunt() {
        // A correct toolbox yields zero disagreements: each oracle runs
        // a handful of cases without producing a ReproCase.
        for oracle in all_oracles() {
            let mut rng = StdRng::seed_from_u64(99);
            for case in 0..8u64 {
                if let Some(c) = oracle.run_case(&mut rng, 99, case) {
                    panic!(
                        "oracle {} reported a disagreement:\n{}",
                        oracle.name(),
                        c.to_text()
                    );
                }
            }
        }
    }

    #[test]
    fn stratified_contract_holds_on_canned_programs() {
        let s = builders::directed_path(4);
        // A legal stratified program: all layers agree, no violation.
        check_stratified(
            &s,
            "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z). \
             nt(x, y) :- e(x, y), !t(y, x).",
            32,
            Some(false),
        )
        .unwrap();
        // An unstratifiable program is *coherently* rejected: lint says
        // D006, every engine returns the typed error, still no violation.
        check_stratified(&s, "w(x) :- e(x, x), !w(x).", 32, Some(true)).unwrap();
        // Same for unsafe negation / D007.
        check_stratified(
            &s,
            "t(x, y) :- e(x, y). u(x) :- e(x, x), !t(z, x).",
            32,
            Some(true),
        )
        .unwrap();
        // Generator/linter drift is itself a violation.
        let note = check_stratified(&s, "w(x) :- e(x, x), !w(x).", 32, Some(false));
        assert!(note.unwrap_err().contains("defect=false"));
    }

    #[test]
    fn every_oracle_rejects_a_bare_case() {
        // A case that names its oracle and nothing else must fail to
        // decode, so replay reports it: never a clean pass, never a
        // panic.
        for oracle in all_oracles() {
            let bare = ReproCase {
                oracle: oracle.name().to_owned(),
                ..ReproCase::default()
            };
            match catch_unwind(AssertUnwindSafe(|| oracle.replay(&bare))) {
                Ok(Err(_)) => {}
                Ok(Ok(())) => panic!("{}: a bare case replayed clean", oracle.name()),
                Err(_) => panic!("{}: replaying a bare case panicked", oracle.name()),
            }
        }
    }

    /// Generated cases survive encode → text → decode → encode
    /// unchanged, and still check clean after the round trip.
    fn encode_decode_roundtrip<S: Shape>(shape: S) {
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..6 {
            let input = shape.generate(&mut rng);
            let mut first = ReproCase {
                oracle: S::NAME.to_owned(),
                case,
                sig: vec![("E".to_owned(), 2)],
                ..ReproCase::default()
            };
            shape.encode(&input, &mut first);
            let parsed = ReproCase::from_text(&first.to_text()).unwrap();
            let decoded = shape
                .decode(&parsed)
                .unwrap_or_else(|e| panic!("{}: case {case} fails to decode: {e}", S::NAME));
            let mut second = ReproCase {
                params: Vec::new(),
                structures: Vec::new(),
                formula: None,
                ..parsed.clone()
            };
            shape.encode(&decoded, &mut second);
            assert_eq!(
                first,
                second,
                "{}: case {case} re-encodes differently",
                S::NAME
            );
            assert!(shape.check(&decoded).is_ok(), "{}: case {case}", S::NAME);
        }
    }

    #[test]
    fn every_shape_decodes_what_it_encodes() {
        encode_decode_roundtrip(EvalAgreement);
        encode_decode_roundtrip(ParseDisplay);
        encode_decode_roundtrip(GamesSets);
        encode_decode_roundtrip(GamesOrders);
        encode_decode_roundtrip(HanfLocality);
        encode_decode_roundtrip(DatalogEngines);
        encode_decode_roundtrip(LintClean);
        encode_decode_roundtrip(BudgetFault);
        encode_decode_roundtrip(Incremental);
        encode_decode_roundtrip(Stratified);
        encode_decode_roundtrip(Magic);
    }
}
