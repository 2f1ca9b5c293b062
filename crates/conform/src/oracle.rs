//! The oracle registry: every way the toolbox can disagree with itself.
//!
//! An [`Oracle`] runs one random case against two or more independent
//! deciders of the same fact and, on disagreement, shrinks the inputs
//! greedily and serializes a [`ReproCase`]. The same oracle later
//! *replays* serialized cases, which is how `tests/conform_corpus.rs`
//! turns every discovered bug into a permanent regression test.
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
//! | `datalog-engines`| naive / scan / indexed·threaded semi-naive fixpoints      |
//! | `lint-clean`     | lint-clean inputs evaluate without panics and all engines agree |
//! | `budget-fault`   | engines under tight fuel budgets finish, agree, and fail cleanly |
//! | `incremental`    | insert/retract runtime vs. from-scratch recomputation at every poll |
//! | `stratified`     | lint verdict ⇔ typed eval error on negated programs; 1-vs-3-thread agreement |
//! | `magic`          | goal answers of the magic-sets rewrite == goal-filtered full materialization |

use crate::corpus::ReproCase;
use crate::gen::{self, GenConfig};
use crate::shrink::minimize;
use fmt_eval::{circuit, naive, relalg};
use fmt_games::closed_form::{orders_equivalent, sets_duplicator_wins};
use fmt_games::solver::EfSolver;
use fmt_lint::LintConfig;
use fmt_locality::hanf::hanf_equivalent;
use fmt_logic::{parser, Formula};
use fmt_obs::Counter;
use fmt_queries::datalog::{EvalError, Program};
use fmt_queries::magic::{self, MagicError};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::{builders, parse as sparse, Elem, Structure};
use rand::rngs::StdRng;
use rand::RngExt;
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
/// case) and replay (re-run a serialized counterexample).
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

fn graph_sig_decl() -> Vec<(String, usize)> {
    vec![("E".to_owned(), 2)]
}

fn case_skeleton(oracle: &dyn Oracle, seed: u64, case: u64, note: String) -> ReproCase {
    ReproCase {
        oracle: oracle.name().to_owned(),
        seed,
        case,
        note,
        sig: graph_sig_decl(),
        ..ReproCase::default()
    }
}

// ---------------------------------------------------------------------
// eval-agreement
// ---------------------------------------------------------------------

/// Naive, relational-algebra, and circuit evaluation must return the
/// same truth value for every sentence on every structure.
#[derive(Debug)]
pub struct EvalAgreement;

/// The three engines' verdicts on a sentence.
fn eval_verdicts(s: &Structure, f: &Formula) -> (bool, bool, bool) {
    let nv = naive::check_sentence(s, f);
    let ra = relalg::check_sentence(s, f);
    let (c, layout) = circuit::compile(s.signature(), f, s.size());
    let cv = c.eval(&layout.encode(s));
    (nv, ra, cv)
}

fn eval_disagrees(s: &Structure, f: &Formula) -> bool {
    if !f.is_sentence() || f.well_formed(s.signature()).is_err() {
        return false;
    }
    let (nv, ra, cv) = eval_verdicts(s, f);
    nv != ra || nv != cv
}

impl Oracle for EvalAgreement {
    fn name(&self) -> &'static str {
        "eval-agreement"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_EVAL.incr();
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        let f = gen::random_sentence(rng, &cfg);
        if !eval_disagrees(&s, &f) {
            return None;
        }
        let ((s, f), _) = minimize(
            (s, f),
            &mut |(s, f): &(Structure, Formula)| eval_disagrees(s, f),
            SHRINK_BUDGET,
        );
        let (nv, ra, cv) = eval_verdicts(&s, &f);
        let mut c = case_skeleton(
            self,
            seed,
            case,
            format!("naive={nv} relalg={ra} circuit={cv}"),
        );
        c.structures.push(("A".to_owned(), sparse::to_text(&s)));
        c.formula = Some(format!("{}", f.display(s.signature())));
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let s = case.structure("A")?;
        let text = case.formula.as_ref().ok_or("case has no formula")?;
        let f = parser::parse_formula(s.signature(), text).map_err(|e| e.to_string())?;
        let (nv, ra, cv) = eval_verdicts(&s, &f);
        if nv != ra || nv != cv {
            return Err(format!(
                "engines still disagree: naive={nv} relalg={ra} circuit={cv}"
            ));
        }
        Ok(())
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

fn roundtrips(f: &Formula) -> bool {
    let sig = fmt_structures::Signature::graph();
    let printed = format!("{}", f.display(&sig));
    match parser::parse_formula(&sig, &printed) {
        Ok(g) => g == *f,
        Err(_) => false,
    }
}

impl Oracle for ParseDisplay {
    fn name(&self) -> &'static str {
        "parse-display"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_PARSE.incr();
        let cfg = GenConfig::default();
        let f = gen::random_sentence(rng, &cfg);
        if roundtrips(&f) {
            return None;
        }
        let (f, _) = minimize(f, &mut |g: &Formula| !roundtrips(g), SHRINK_BUDGET);
        let sig = fmt_structures::Signature::graph();
        let mut c = case_skeleton(self, seed, case, "parse(display(f)) != f".to_owned());
        c.formula = Some(format!("{}", f.display(&sig)));
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let sig = case.signature();
        let text = case.formula.as_ref().ok_or("case has no formula")?;
        let f = parser::parse_formula(&sig, text).map_err(|e| e.to_string())?;
        // The invariant on replay: the parsed formula is a fixed point
        // of display ∘ parse.
        let printed = format!("{}", f.display(&sig));
        let g = parser::parse_formula(&sig, &printed)
            .map_err(|e| format!("reparse of {printed:?} failed: {e}"))?;
        if g != f {
            return Err(format!("roundtrip still broken for {printed:?}"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// games-sets
// ---------------------------------------------------------------------

/// The EF solver on pure sets must match the closed-form win predicate
/// (equal sizes, or both at least `n`).
#[derive(Debug)]
pub struct GamesSets;

fn sets_disagree(na: u32, nb: u32, n: u32) -> bool {
    if n == 0 {
        return false;
    }
    let a = builders::set(na);
    let b = builders::set(nb);
    EfSolver::new(&a, &b).duplicator_wins(n) != sets_duplicator_wins(na, nb, n)
}

impl Oracle for GamesSets {
    fn name(&self) -> &'static str {
        "games-sets"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_SETS.incr();
        let na = rng.random_range(0..=5u32);
        let nb = rng.random_range(0..=5u32);
        let n = rng.random_range(1..=3u32);
        if !sets_disagree(na, nb, n) {
            return None;
        }
        let ((na, nb, n), _) = minimize(
            (na, nb, n),
            &mut |&(na, nb, n): &(u32, u32, u32)| sets_disagree(na, nb, n),
            SHRINK_BUDGET,
        );
        let a = builders::set(na);
        let b = builders::set(nb);
        let solver = EfSolver::new(&a, &b).duplicator_wins(n);
        let mut c = case_skeleton(
            self,
            seed,
            case,
            format!(
                "solver={solver} closed_form={}",
                sets_duplicator_wins(na, nb, n)
            ),
        );
        c.sig = Vec::new(); // pure sets: the empty signature
        c.params = vec![
            ("na".to_owned(), na.to_string()),
            ("nb".to_owned(), nb.to_string()),
            ("n".to_owned(), n.to_string()),
        ];
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let na = case.param_u64("na")? as u32;
        let nb = case.param_u64("nb")? as u32;
        let n = case.param_u64("n")? as u32;
        if sets_disagree(na, nb, n) {
            return Err(format!(
                "solver and sets_duplicator_wins still disagree on ({na}, {nb}) at n = {n}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// games-orders
// ---------------------------------------------------------------------

/// The EF solver on linear orders must match the exact Theorem 3.1
/// characterization `L_m ≡ₙ L_k ⟺ m = k ∨ m, k ≥ 2ⁿ − 1`.
#[derive(Debug)]
pub struct GamesOrders;

fn orders_disagree(m: u64, k: u64, n: u32) -> bool {
    if m == 0 || k == 0 || n == 0 {
        return false; // builders::linear_order wants nonempty orders
    }
    let a = builders::linear_order(m as u32);
    let b = builders::linear_order(k as u32);
    EfSolver::new(&a, &b).duplicator_wins(n) != orders_equivalent(m, k, n)
}

impl Oracle for GamesOrders {
    fn name(&self) -> &'static str {
        "games-orders"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_ORDERS.incr();
        let m = rng.random_range(1..=9u64);
        let k = rng.random_range(1..=9u64);
        let n = rng.random_range(1..=3u32);
        if !orders_disagree(m, k, n) {
            return None;
        }
        let ((m, k, n), _) = minimize(
            (m, k, n),
            &mut |&(m, k, n): &(u64, u64, u32)| orders_disagree(m, k, n),
            SHRINK_BUDGET,
        );
        let a = builders::linear_order(m as u32);
        let b = builders::linear_order(k as u32);
        let solver = EfSolver::new(&a, &b).duplicator_wins(n);
        let mut c = case_skeleton(
            self,
            seed,
            case,
            format!("solver={solver} closed_form={}", orders_equivalent(m, k, n)),
        );
        c.sig = vec![("<".to_owned(), 2)];
        c.params = vec![
            ("m".to_owned(), m.to_string()),
            ("k".to_owned(), k.to_string()),
            ("n".to_owned(), n.to_string()),
        ];
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let m = case.param_u64("m")?;
        let k = case.param_u64("k")?;
        let n = case.param_u64("n")? as u32;
        if orders_disagree(m, k, n) {
            return Err(format!(
                "solver and orders_equivalent still disagree on L_{m} vs L_{k} at n = {n}"
            ));
        }
        Ok(())
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

/// The Hanf-locality rank bound: `A ⇆ᵣ B` with `r = (3ⁿ − 1)/2`
/// implies `A ≡ₙ B`.
fn hanf_radius(n: u32) -> u32 {
    (3u32.pow(n) - 1) / 2
}

fn hanf_violation_kind(a: &Structure, b: &Structure, r: u32, n: u32) -> Option<&'static str> {
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

impl Oracle for HanfLocality {
    fn name(&self) -> &'static str {
        "hanf-locality"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_HANF.incr();
        let cfg = GenConfig::default();
        // Alternate between adversarial random pairs and the survey's
        // cycle construction C_m ⊎ C_m vs C_2m, which actually exercises
        // the theorem direction (random pairs are rarely ⇆ᵣ-equivalent).
        let (a, b, kind_hint) = if rng.random_bool(0.5) {
            let a = gen::random_graph(rng, &cfg);
            let b = if rng.random_bool(0.3) {
                // A shuffled relabeling: ⇆ᵣ must hold at every radius.
                let mut perm: Vec<u32> = a.domain().collect();
                for i in (1..perm.len()).rev() {
                    let j = rng.random_range(0..=i);
                    perm.swap(i, j);
                }
                (a.relabel(&perm), "relabel")
            } else {
                (gen::random_graph(rng, &cfg), "random")
            };
            (a, b.0, b.1)
        } else {
            let m = rng.random_range(4..=10u32);
            let two = builders::copies(&builders::undirected_cycle(m), 2);
            let one = builders::undirected_cycle(2 * m);
            (two, one, "cycles")
        };
        let r = rng.random_range(0..=2u32);
        let n = rng.random_range(1..=2u32);
        if kind_hint == "relabel" && !hanf_equivalent(&a, &b, r) {
            let mut c = case_skeleton(self, seed, case, "relabeled copy not ⇆ᵣ".to_owned());
            c.params = vec![
                ("kind".to_owned(), "relabel".to_owned()),
                ("r".to_owned(), r.to_string()),
            ];
            c.structures.push(("A".to_owned(), sparse::to_text(&a)));
            c.structures.push(("B".to_owned(), sparse::to_text(&b)));
            return Some(c);
        }
        let kind = hanf_violation_kind(&a, &b, r, n)?;
        let mut still_fails = |pair: &(Structure, Structure)| {
            hanf_violation_kind(&pair.0, &pair.1, r, n) == Some(kind)
        };
        let ((a, b), _) = minimize((a, b), &mut still_fails, SHRINK_BUDGET);
        let mut c = case_skeleton(self, seed, case, format!("hanf invariant broken: {kind}"));
        c.params = vec![
            ("kind".to_owned(), kind.to_owned()),
            ("r".to_owned(), r.to_string()),
            ("n".to_owned(), n.to_string()),
        ];
        c.structures.push(("A".to_owned(), sparse::to_text(&a)));
        c.structures.push(("B".to_owned(), sparse::to_text(&b)));
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let a = case.structure("A")?;
        let b = case.structure("B")?;
        let r = case.param_u64("r")? as u32;
        let kind = case.param("kind").ok_or("case is missing `kind`")?;
        let ok = match kind {
            "relabel" => hanf_equivalent(&a, &b, r),
            "symmetry" => hanf_equivalent(&a, &b, r) == hanf_equivalent(&b, &a, r),
            "monotone" => !hanf_equivalent(&a, &b, r + 1) || hanf_equivalent(&a, &b, r),
            "hanf-theorem" => {
                let n = case.param_u64("n")? as u32;
                !hanf_equivalent(&a, &b, hanf_radius(n)) || EfSolver::new(&a, &b).duplicator_wins(n)
            }
            other => return Err(format!("unknown hanf violation kind {other:?}")),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("hanf invariant {kind:?} still violated"))
        }
    }
}

// ---------------------------------------------------------------------
// datalog-engines
// ---------------------------------------------------------------------

/// The naive, written-order scan, and indexed (1–2 threads) Datalog
/// engines must compute identical fixpoints — and the two semi-naive
/// engines identical work counters — on random programs.
#[derive(Debug)]
pub struct DatalogEngines;

fn datalog_disagreement(s: &Structure, src: &str) -> Option<String> {
    let prog = match Program::parse(s.signature(), src) {
        Ok(p) => p,
        Err(e) => return Some(format!("program failed to parse: {e}")),
    };
    let nv = prog.eval_naive(s);
    let scan = prog.eval_seminaive_scan(s);
    for threads in 1..=2 {
        let indexed = prog.eval_seminaive_with(s, threads);
        for i in 0..prog.num_idbs() {
            let (name, _) = prog.idb_info(i);
            if nv.relation(i) != indexed.relation(i) {
                return Some(format!("naive vs indexed({threads}) differ on {name}"));
            }
            if scan.relation(i) != indexed.relation(i) {
                return Some(format!("scan vs indexed({threads}) differ on {name}"));
            }
        }
        if scan.iterations != indexed.iterations
            || scan.derivations != indexed.derivations
            || scan.delta_history != indexed.delta_history
        {
            return Some(format!("scan vs indexed({threads}) work counters differ"));
        }
    }
    None
}

impl Oracle for DatalogEngines {
    fn name(&self) -> &'static str {
        "datalog-engines"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_DATALOG.incr();
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        let src = gen::random_datalog_program(rng);
        let note = datalog_disagreement(&s, &src)?;
        let (s, _) = minimize(
            s,
            &mut |t: &Structure| datalog_disagreement(t, &src).is_some(),
            SHRINK_BUDGET,
        );
        let note = datalog_disagreement(&s, &src).unwrap_or(note);
        let mut c = case_skeleton(self, seed, case, note);
        c.params = vec![("program".to_owned(), src.trim().to_owned())];
        c.structures.push(("A".to_owned(), sparse::to_text(&s)));
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let s = case.structure("A")?;
        let src = case.param("program").ok_or("case is missing `program`")?;
        match datalog_disagreement(&s, src) {
            Some(note) => Err(note),
            None => Ok(()),
        }
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

fn lint_cfg() -> LintConfig {
    LintConfig {
        expect_sentence: true,
        ..LintConfig::default()
    }
}

fn first_lint_error(diags: &[fmt_lint::Diagnostic]) -> Option<String> {
    diags
        .iter()
        .find(|d| d.severity == fmt_lint::Severity::Error)
        .map(|d| format!("{}: {}", d.code, d.message))
}

/// `None` when the sentence upholds the lint-clean contract on `s`.
fn lint_clean_formula_violation(s: &Structure, text: &str) -> Option<String> {
    let diags = fmt_lint::lint_formula_src(s.signature(), text, &lint_cfg());
    if let Some(e) = first_lint_error(&diags) {
        return Some(format!("linter rejects a generated sentence ({e})"));
    }
    let f = match parser::parse_formula(s.signature(), text) {
        Ok(f) => f,
        Err(e) => return Some(format!("lint-clean sentence fails to parse: {e}")),
    };
    match catch_unwind(AssertUnwindSafe(|| eval_verdicts(s, &f))) {
        Err(_) => Some("evaluation panicked on a lint-clean sentence".to_owned()),
        Ok((nv, ra, cv)) if nv != ra || nv != cv => Some(format!(
            "engines disagree on a lint-clean sentence: naive={nv} relalg={ra} circuit={cv}"
        )),
        Ok(_) => None,
    }
}

/// `None` when the program upholds the lint-clean contract on `s`.
fn lint_clean_program_violation(s: &Structure, src: &str) -> Option<String> {
    let diags = fmt_lint::lint_program_src(s.signature(), src, &lint_cfg());
    if let Some(e) = first_lint_error(&diags) {
        return Some(format!("linter rejects a generated program ({e})"));
    }
    match catch_unwind(AssertUnwindSafe(|| datalog_disagreement(s, src))) {
        Err(_) => Some("evaluation panicked on a lint-clean program".to_owned()),
        Ok(Some(note)) => Some(format!("engines disagree on a lint-clean program: {note}")),
        Ok(None) => None,
    }
}

impl Oracle for LintClean {
    fn name(&self) -> &'static str {
        "lint-clean"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_LINT.incr();
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        if rng.random_bool(0.5) {
            let f = gen::random_sentence(rng, &cfg);
            let text = format!("{}", f.display(s.signature()));
            let note = lint_clean_formula_violation(&s, &text)?;
            let (s, _) = minimize(
                s,
                &mut |t: &Structure| lint_clean_formula_violation(t, &text).is_some(),
                SHRINK_BUDGET,
            );
            let note = lint_clean_formula_violation(&s, &text).unwrap_or(note);
            let mut c = case_skeleton(self, seed, case, note);
            c.params = vec![("kind".to_owned(), "formula".to_owned())];
            c.formula = Some(text);
            c.structures.push(("A".to_owned(), sparse::to_text(&s)));
            Some(c)
        } else {
            let src = gen::random_datalog_program(rng);
            let note = lint_clean_program_violation(&s, &src)?;
            let (s, _) = minimize(
                s,
                &mut |t: &Structure| lint_clean_program_violation(t, &src).is_some(),
                SHRINK_BUDGET,
            );
            let note = lint_clean_program_violation(&s, &src).unwrap_or(note);
            let mut c = case_skeleton(self, seed, case, note);
            c.params = vec![
                ("kind".to_owned(), "program".to_owned()),
                ("program".to_owned(), src.trim().to_owned()),
            ];
            c.structures.push(("A".to_owned(), sparse::to_text(&s)));
            Some(c)
        }
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let s = case.structure("A")?;
        let violation = match case.param("kind").ok_or("case is missing `kind`")? {
            "formula" => {
                let text = case.formula.as_ref().ok_or("case has no formula")?;
                lint_clean_formula_violation(&s, text)
            }
            "program" => {
                let src = case.param("program").ok_or("case is missing `program`")?;
                lint_clean_program_violation(&s, src)
            }
            other => return Err(format!("unknown lint-clean case kind {other:?}")),
        };
        match violation {
            Some(note) => Err(note),
            None => Ok(()),
        }
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

/// Runs one engine twice under the same fuel, checking the clean-fail
/// and determinism halves of the contract. Returns the completed value
/// (if any) or the violation note.
fn fuel_check<T: Clone + PartialEq + std::fmt::Debug>(
    name: &str,
    fuel: u64,
    run: impl Fn(&Budget) -> BudgetResult<T>,
) -> Result<Option<T>, String> {
    let first = run_with_fuel(fuel, &run);
    if matches!(first, FuelOutcome::Panicked) {
        return Err(format!("{name} panicked under fuel {fuel}"));
    }
    let second = run_with_fuel(fuel, &run);
    if first != second {
        return Err(format!(
            "{name} is fuel-nondeterministic under fuel {fuel}: {first:?} vs {second:?}"
        ));
    }
    match first {
        FuelOutcome::Done(v) => Ok(Some(v)),
        _ => Ok(None),
    }
}

/// A list of named budgeted engine runs for [`fuel_check`] to drive.
type EngineChecks<'a, T> = Vec<(&'static str, Box<dyn Fn(&Budget) -> BudgetResult<T> + 'a>)>;

/// `None` when all three FO engines uphold the budget contract on
/// `(s, text)` under `fuel`.
fn budget_fault_formula_violation(s: &Structure, text: &str, fuel: u64) -> Option<String> {
    let Ok(f) = parser::parse_formula(s.signature(), text) else {
        return None;
    };
    if !f.is_sentence() || f.well_formed(s.signature()).is_err() {
        return None;
    }
    let mut done: Vec<(&str, bool)> = Vec::new();
    let checks: EngineChecks<'_, bool> = vec![
        (
            "eval.naive",
            Box::new(|b: &Budget| naive::check_sentence_budgeted(s, &f, b)),
        ),
        (
            "eval.relalg",
            Box::new(|b: &Budget| relalg::check_sentence_budgeted(s, &f, b)),
        ),
        (
            "eval.circuit",
            Box::new(|b: &Budget| {
                let (c, layout) = circuit::compile_budgeted(s.signature(), &f, s.size(), b)?;
                c.try_eval(&layout.encode(s), b)
            }),
        ),
    ];
    for (name, run) in checks {
        match fuel_check(name, fuel, run) {
            Err(note) => return Some(note),
            Ok(Some(v)) => done.push((name, v)),
            Ok(None) => {}
        }
    }
    if let Some(w) = done.windows(2).find(|w| w[0].1 != w[1].1) {
        return Some(format!(
            "completed engines disagree under fuel {fuel}: {}={} vs {}={}",
            w[0].0, w[0].1, w[1].0, w[1].1
        ));
    }
    None
}

/// `None` when all Datalog engines uphold the budget contract on
/// `(s, src)` under `fuel`. The two-thread indexed engine shares fuel
/// across shards, so only its no-panic/agreement halves are checked —
/// its exhaustion tick is legitimately racy.
fn budget_fault_program_violation(s: &Structure, src: &str, fuel: u64) -> Option<String> {
    let Ok(prog) = Program::parse(s.signature(), src) else {
        return None;
    };
    let canon = |out: &fmt_queries::datalog::Output| -> Vec<Vec<Vec<Elem>>> {
        (0..prog.num_idbs())
            .map(|i| {
                let mut v: Vec<Vec<Elem>> = out.relation(i).iter().collect();
                v.sort();
                v
            })
            .collect()
    };
    let mut done: Vec<(&str, Vec<Vec<Vec<Elem>>>)> = Vec::new();
    let checks: EngineChecks<'_, fmt_queries::datalog::Output> = vec![
        (
            "datalog.naive",
            Box::new(|b: &Budget| prog.try_eval_naive(s, b).map_err(EvalError::into_exhausted)),
        ),
        (
            "datalog.scan",
            Box::new(|b: &Budget| {
                prog.try_eval_seminaive_scan(s, b)
                    .map_err(EvalError::into_exhausted)
            }),
        ),
        (
            "datalog.indexed",
            Box::new(|b: &Budget| {
                prog.try_eval_seminaive_with(s, 1, b)
                    .map_err(EvalError::into_exhausted)
            }),
        ),
    ];
    for (name, run) in checks {
        match fuel_check(name, fuel, |b| run(b).map(|out| canon(&out))) {
            Err(note) => return Some(note),
            Ok(Some(v)) => done.push((name, v)),
            Ok(None) => {}
        }
    }
    match run_with_fuel(fuel, |b| {
        prog.try_eval_seminaive_with(s, 2, b)
            .map_err(EvalError::into_exhausted)
            .map(|out| canon(&out))
    }) {
        FuelOutcome::Panicked => {
            return Some(format!("datalog.indexed(2) panicked under fuel {fuel}"))
        }
        FuelOutcome::Done(v) => done.push(("datalog.indexed(2)", v)),
        FuelOutcome::Exhausted(_) => {}
    }
    if let Some(w) = done.windows(2).find(|w| w[0].1 != w[1].1) {
        return Some(format!(
            "completed engines disagree under fuel {fuel}: {} vs {}",
            w[0].0, w[1].0
        ));
    }
    None
}

impl Oracle for BudgetFault {
    fn name(&self) -> &'static str {
        "budget-fault"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_BUDGET.incr();
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        let fuel = rng.random_range(1..=48u64);
        if rng.random_bool(0.5) {
            let f = gen::random_sentence(rng, &cfg);
            let text = format!("{}", f.display(s.signature()));
            let note = budget_fault_formula_violation(&s, &text, fuel)?;
            let ((s, fuel), _) = minimize(
                (s, fuel),
                &mut |(t, fl): &(Structure, u64)| {
                    *fl >= 1 && budget_fault_formula_violation(t, &text, *fl).is_some()
                },
                SHRINK_BUDGET,
            );
            let note = budget_fault_formula_violation(&s, &text, fuel).unwrap_or(note);
            let mut c = case_skeleton(self, seed, case, note);
            c.params = vec![
                ("kind".to_owned(), "formula".to_owned()),
                ("fuel".to_owned(), fuel.to_string()),
            ];
            c.formula = Some(text);
            c.structures.push(("A".to_owned(), sparse::to_text(&s)));
            Some(c)
        } else {
            let src = gen::random_datalog_program(rng);
            let note = budget_fault_program_violation(&s, &src, fuel)?;
            let ((s, fuel), _) = minimize(
                (s, fuel),
                &mut |(t, fl): &(Structure, u64)| {
                    *fl >= 1 && budget_fault_program_violation(t, &src, *fl).is_some()
                },
                SHRINK_BUDGET,
            );
            let note = budget_fault_program_violation(&s, &src, fuel).unwrap_or(note);
            let mut c = case_skeleton(self, seed, case, note);
            c.params = vec![
                ("kind".to_owned(), "program".to_owned()),
                ("fuel".to_owned(), fuel.to_string()),
                ("program".to_owned(), src.trim().to_owned()),
            ];
            c.structures.push(("A".to_owned(), sparse::to_text(&s)));
            Some(c)
        }
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let s = case.structure("A")?;
        let fuel = case.param_u64("fuel")?.max(1);
        let violation = match case.param("kind").ok_or("case is missing `kind`")? {
            "formula" => {
                let text = case.formula.as_ref().ok_or("case has no formula")?;
                budget_fault_formula_violation(&s, text, fuel)
            }
            "program" => {
                let src = case.param("program").ok_or("case is missing `program`")?;
                budget_fault_program_violation(&s, src, fuel)
            }
            other => return Err(format!("unknown budget-fault case kind {other:?}")),
        };
        match violation {
            Some(note) => Err(note),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// incremental
// ---------------------------------------------------------------------

/// Trace equivalence for the incremental Datalog runtime: replaying a
/// random insert/retract trace through `DatalogRuntime` must yield the
/// same IDB extents as from-scratch semi-naive recomputation at every
/// `poll` (at one and three worker threads), and replaying the same
/// trace under a tight shared fuel budget must never panic, must be
/// outcome-deterministic, and must recover to the exact fixpoint with
/// one unbudgeted poll afterwards.
#[derive(Debug)]
pub struct Incremental;

/// The from-scratch reference: semi-naive evaluation over a structure
/// holding exactly `facts`, as sorted tuple lists per IDB.
fn incr_scratch(
    prog: &Program,
    domain: u32,
    facts: &std::collections::BTreeSet<(u32, u32)>,
) -> Vec<Vec<Vec<Elem>>> {
    let e = prog.signature().relation("E").expect("graph signature");
    let mut b = fmt_structures::StructureBuilder::new(prog.signature().clone(), domain);
    for &(u, v) in facts {
        b.add(e, &[u, v]).expect("trace ops are in domain");
    }
    let out = prog.eval_seminaive(&b.build().expect("trace structure is valid"));
    (0..prog.num_idbs())
        .map(|i| {
            let mut rows: Vec<Vec<Elem>> = out.relation(i).iter().collect();
            rows.sort();
            rows
        })
        .collect()
}

/// `None` when the runtime upholds the trace-equivalence and budget
/// contracts on `(src, trace, fuel)`.
fn incremental_violation(src: &str, trace: &gen::UpdateTrace, fuel: u64) -> Option<String> {
    use fmt_queries::incremental::DatalogRuntime;
    use gen::UpdateOp;

    let sig = fmt_structures::Signature::graph();
    let prog = match Program::parse(&sig, src) {
        Ok(p) => p,
        Err(e) => return Some(format!("program failed to parse: {e}")),
    };
    let e = sig.relation("E").expect("graph signature");
    if inject_armed("incremental") {
        return Some(format!(
            "injected incremental fault ({INJECT_ENV}=incremental)"
        ));
    }

    // Half one: unbudgeted trace equivalence, at 1 and 3 threads.
    let mut facts: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
    let mut rt1 = DatalogRuntime::new(prog.clone(), trace.domain)
        .expect("generated incremental programs are negation-free");
    let mut rt3 = DatalogRuntime::new(prog.clone(), trace.domain)
        .expect("generated incremental programs are negation-free");
    rt3.set_threads(3);
    for (step, op) in trace.ops.iter().enumerate() {
        match *op {
            UpdateOp::Insert(u, v) => {
                facts.insert((u, v));
                rt1.insert(e, &[u, v]);
                rt3.insert(e, &[u, v]);
            }
            UpdateOp::Retract(u, v) => {
                facts.remove(&(u, v));
                rt1.retract(e, &[u, v]);
                rt3.retract(e, &[u, v]);
            }
            UpdateOp::Poll => {
                rt1.poll();
                rt3.poll();
                let want = incr_scratch(&prog, trace.domain, &facts);
                for (threads, rt) in [(1usize, &rt1), (3, &rt3)] {
                    for (i, rows) in want.iter().enumerate() {
                        let mut got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
                        got.sort();
                        if got != *rows {
                            let (name, _) = prog.idb_info(i);
                            return Some(format!(
                                "runtime({threads} threads) diverges from scratch on {name} \
                                 at poll (op {step}): {got:?} vs {rows:?}"
                            ));
                        }
                    }
                }
            }
        }
    }

    // Half two: the same trace under one tight shared fuel budget must
    // not panic and must produce the identical outcome sequence twice
    // (single-threaded exhaustion is deterministic), then recover to
    // the exact fixpoint with one unbudgeted poll.
    let budgeted = |fuel: u64| -> Result<Vec<String>, String> {
        catch_unwind(AssertUnwindSafe(|| {
            let budget = Budget::with_fuel(fuel);
            let mut rt = DatalogRuntime::new(prog.clone(), trace.domain)
                .expect("generated incremental programs are negation-free");
            let mut outcomes = Vec::new();
            for op in &trace.ops {
                match *op {
                    UpdateOp::Insert(u, v) => rt.insert(e, &[u, v]),
                    UpdateOp::Retract(u, v) => rt.retract(e, &[u, v]),
                    UpdateOp::Poll => outcomes.push(match rt.try_poll(&budget) {
                        Ok(stats) => format!("ok rebuilt={}", stats.rebuilt),
                        Err(ex) => format!("exhausted spent={} at={}", ex.spent, ex.at),
                    }),
                }
            }
            let final_poll = rt.poll();
            outcomes.push(format!("recovery rebuilt={}", final_poll.rebuilt));
            let want = incr_scratch(&prog, trace.domain, &facts);
            for (i, rows) in want.iter().enumerate() {
                let mut got: Vec<Vec<Elem>> = rt.query(i).iter().collect();
                got.sort();
                if got != *rows {
                    let (name, _) = prog.idb_info(i);
                    outcomes.push(format!("post-recovery divergence on {name}"));
                }
            }
            outcomes
        }))
        .map_err(|_| format!("runtime panicked replaying the trace under fuel {fuel}"))
    };
    let first = match budgeted(fuel) {
        Ok(o) => o,
        Err(note) => return Some(note),
    };
    if let Some(bad) = first.iter().find(|o| o.starts_with("post-recovery")) {
        return Some(format!("{bad} under fuel {fuel}"));
    }
    let second = match budgeted(fuel) {
        Ok(o) => o,
        Err(note) => return Some(note),
    };
    if first != second {
        return Some(format!(
            "budgeted replay is nondeterministic under fuel {fuel}: {first:?} vs {second:?}"
        ));
    }
    None
}

impl Oracle for Incremental {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_INCR.incr();
        let src = gen::random_datalog_program(rng);
        let trace = gen::random_update_trace(rng);
        let fuel = rng.random_range(1..=300u64);
        let note = incremental_violation(&src, &trace, fuel)?;
        let ((trace, fuel), _) = minimize(
            (trace, fuel),
            &mut |(t, fl): &(gen::UpdateTrace, u64)| {
                *fl >= 1 && incremental_violation(&src, t, *fl).is_some()
            },
            SHRINK_BUDGET,
        );
        let note = incremental_violation(&src, &trace, fuel).unwrap_or(note);
        let mut c = case_skeleton(self, seed, case, note);
        c.params = vec![
            ("domain".to_owned(), trace.domain.to_string()),
            ("program".to_owned(), src.trim().to_owned()),
            ("trace".to_owned(), trace.to_compact()),
            ("fuel".to_owned(), fuel.to_string()),
        ];
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let domain = case.param_u64("domain")? as u32;
        let src = case.param("program").ok_or("case is missing `program`")?;
        let text = case.param("trace").ok_or("case is missing `trace`")?;
        let trace = gen::UpdateTrace::parse_compact(domain, text)?;
        let fuel = case.param_u64("fuel")?.max(1);
        match incremental_violation(src, &trace, fuel) {
            Some(note) => Err(note),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// stratified
// ---------------------------------------------------------------------

/// Stratified negation, coherent end to end: on random stratified
/// programs (and seeded unstratifiable/unsafe mutants) the lint
/// verdict must match every engine's behavior — D006/D007 errors iff
/// the engine returns the matching typed [`EvalError`], never a panic
/// — all four engine configurations (naive, scan, indexed at 1 and 3
/// threads) must agree on extents when evaluation is legal, and tight
/// fuel budgets must fail cleanly and deterministically.
#[derive(Debug)]
pub struct Stratified;

/// `None` when the stratified-negation contract holds on `(s, src)`
/// under `fuel`. `expect_defect` is the generator's own claim (a
/// mutant was / was not seeded), cross-checked against the linter to
/// catch generator/linter drift.
fn stratified_violation(
    s: &Structure,
    src: &str,
    fuel: u64,
    expect_defect: Option<bool>,
) -> Option<String> {
    if inject_armed("stratified") {
        return Some(format!(
            "injected stratification fault ({INJECT_ENV}=stratified)"
        ));
    }
    let prog = match Program::parse(s.signature(), src) {
        Ok(p) => p,
        Err(e) => return Some(format!("program failed to parse: {e}")),
    };
    let diags = fmt_lint::lint_program_src(s.signature(), src, &LintConfig::default());
    let lint_d006 = diags.iter().any(|d| d.code == "D006");
    let lint_d007 = diags.iter().any(|d| d.code == "D007");
    let statically_rejected = lint_d006 || lint_d007;
    if let Some(defect) = expect_defect {
        if defect != statically_rejected {
            return Some(format!(
                "generator seeded defect={defect} but lint reports D006={lint_d006} \
                 D007={lint_d007}"
            ));
        }
    }

    let canon = |out: &fmt_queries::datalog::Output| -> Vec<Vec<Vec<Elem>>> {
        (0..prog.num_idbs())
            .map(|i| {
                let mut v: Vec<Vec<Elem>> = out.relation(i).iter().collect();
                v.sort();
                v
            })
            .collect()
    };
    // An engine's unlimited-budget verdict: extents, or the lint code
    // its typed error corresponds to.
    let classify = |r: Result<fmt_queries::datalog::Output, EvalError>| match r {
        Ok(out) => Ok(canon(&out)),
        Err(EvalError::Unstratifiable { .. }) => Err("D006"),
        Err(EvalError::UnsafeNegation { .. }) => Err("D007"),
        Err(EvalError::Exhausted(e)) => Err(if e.spent == 0 {
            "spurious"
        } else {
            "exhausted"
        }),
    };
    let unlimited = Budget::unlimited();
    type Run<'a> = Box<dyn Fn() -> Result<fmt_queries::datalog::Output, EvalError> + 'a>;
    let engines: Vec<(&str, Run<'_>)> = vec![
        ("naive", Box::new(|| prog.try_eval_naive(s, &unlimited))),
        (
            "scan",
            Box::new(|| prog.try_eval_seminaive_scan(s, &unlimited)),
        ),
        (
            "indexed(1)",
            Box::new(|| prog.try_eval_seminaive_with(s, 1, &unlimited)),
        ),
        (
            "indexed(3)",
            Box::new(|| prog.try_eval_seminaive_with(s, 3, &unlimited)),
        ),
    ];
    let mut done: Vec<(&str, Vec<Vec<Vec<Elem>>>)> = Vec::new();
    for (name, run) in &engines {
        let verdict = match catch_unwind(AssertUnwindSafe(run)) {
            Err(_) => return Some(format!("{name} panicked on a stratified-oracle program")),
            Ok(r) => classify(r),
        };
        match verdict {
            Err(code @ ("D006" | "D007")) => {
                let coherent = (code == "D006" && lint_d006) || (code == "D007" && lint_d007);
                if !coherent {
                    return Some(format!(
                        "{name} rejected with {code} but lint reports D006={lint_d006} \
                         D007={lint_d007}"
                    ));
                }
            }
            Err(code) => return Some(format!("{name} failed with {code} on unlimited budget")),
            Ok(_) if statically_rejected => {
                return Some(format!(
                    "lint rejects the program (D006={lint_d006} D007={lint_d007}) but {name} \
                     evaluated it"
                ))
            }
            Ok(extents) => done.push((name, extents)),
        }
    }
    if let Some(w) = done.windows(2).find(|w| w[0].1 != w[1].1) {
        return Some(format!(
            "stratified engines disagree: {} vs {}",
            w[0].0, w[1].0
        ));
    }

    // Budget transparency: the single-threaded engines under tight
    // fuel must fail cleanly and reproduce the identical outcome; the
    // multi-threaded engine shares fuel across shards, so only its
    // no-panic half is checked.
    let budgeted = |r: Result<fmt_queries::datalog::Output, EvalError>| -> BudgetResult<
        Result<Vec<Vec<Vec<Elem>>>, &'static str>,
    > {
        match r {
            Err(EvalError::Exhausted(e)) => Err(e),
            other => Ok(classify(other)),
        }
    };
    type Check<'a> =
        Box<dyn Fn(&Budget) -> BudgetResult<Result<Vec<Vec<Vec<Elem>>>, &'static str>> + 'a>;
    let checks: Vec<(&str, Check<'_>)> = vec![
        (
            "stratified.naive",
            Box::new(|b: &Budget| budgeted(prog.try_eval_naive(s, b))),
        ),
        (
            "stratified.scan",
            Box::new(|b: &Budget| budgeted(prog.try_eval_seminaive_scan(s, b))),
        ),
        (
            "stratified.indexed",
            Box::new(|b: &Budget| budgeted(prog.try_eval_seminaive_with(s, 1, b))),
        ),
    ];
    for (name, run) in checks {
        if let Err(note) = fuel_check(name, fuel, run) {
            return Some(note);
        }
    }
    let b3 = Budget::with_fuel(fuel);
    if catch_unwind(AssertUnwindSafe(|| {
        let _ = prog.try_eval_seminaive_with(s, 3, &b3);
    }))
    .is_err()
    {
        return Some(format!("indexed(3) panicked under fuel {fuel}"));
    }
    None
}

impl Oracle for Stratified {
    fn name(&self) -> &'static str {
        "stratified"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_STRAT.incr();
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        let (src, defect) = gen::random_stratified_program(rng);
        let fuel = rng.random_range(8..=96u64);
        let note = stratified_violation(&s, &src, fuel, Some(defect))?;
        let ((s, fuel), _) = minimize(
            (s, fuel),
            &mut |(t, fl): &(Structure, u64)| {
                *fl >= 1 && stratified_violation(t, &src, *fl, Some(defect)).is_some()
            },
            SHRINK_BUDGET,
        );
        let note = stratified_violation(&s, &src, fuel, Some(defect)).unwrap_or(note);
        let mut c = case_skeleton(self, seed, case, note);
        c.params = vec![
            ("fuel".to_owned(), fuel.to_string()),
            ("mutant".to_owned(), defect.to_string()),
            ("program".to_owned(), src.trim().to_owned()),
        ];
        c.structures.push(("A".to_owned(), sparse::to_text(&s)));
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let s = case.structure("A")?;
        let fuel = case.param_u64("fuel")?.max(1);
        let src = case.param("program").ok_or("case is missing `program`")?;
        let defect = match case.param("mutant") {
            Some("true") => Some(true),
            Some("false") => Some(false),
            _ => None,
        };
        match stratified_violation(&s, src, fuel, defect) {
            Some(note) => Err(note),
            None => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// magic
// ---------------------------------------------------------------------

/// Goal-directed evaluation must be sound and complete for its goal:
/// on random stratified programs and random bound/free goals, the
/// magic-sets-rewritten program — evaluated by all four engine
/// configurations — must produce exactly the goal-matching tuples of a
/// full materialization of the original program, deterministically
/// under random fuel. Rewrites the engines reject (`Original` /
/// `Unstratifiable`) are cross-checked against direct evaluation.
#[derive(Debug)]
pub struct Magic;

/// `None` when the goal-directed contract holds on `(s, src, goal)`
/// under `fuel`.
fn magic_violation(s: &Structure, src: &str, goal_src: &str, fuel: u64) -> Option<String> {
    if inject_armed("magic") {
        return Some(format!("injected magic-sets fault ({INJECT_ENV}=magic)"));
    }
    let prog = match Program::parse(s.signature(), src) {
        Ok(p) => p,
        Err(e) => return Some(format!("program failed to parse: {e}")),
    };
    let goal = match magic::parse_goal(goal_src) {
        Ok(g) => g,
        Err(e) => return Some(format!("goal failed to parse: {e}")),
    };
    let unlimited = Budget::unlimited();
    let mq = match magic::rewrite(&prog, &goal) {
        Ok(mq) => mq,
        // The original program is statically rejected; the engines
        // must reject it too (same typed-error coherence the
        // stratified oracle checks in depth), and there is nothing to
        // compare.
        Err(MagicError::Original(_)) => {
            return match prog.try_eval_naive(s, &unlimited) {
                Err(EvalError::Unstratifiable { .. } | EvalError::UnsafeNegation { .. }) => None,
                other => Some(format!(
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
                Ok(_) => None,
                Err(e) => Some(format!(
                    "rewrite is Unstratifiable on a program the naive engine also rejects: {e}"
                )),
            };
        }
        // The generator only emits resolvable goals.
        Err(e) => return Some(format!("generated goal failed to resolve: {e}")),
    };

    // Ground truth: goal-filter a full materialization of the original
    // program (statically legal, or `Original` would have fired).
    let full = match catch_unwind(AssertUnwindSafe(|| prog.try_eval_naive(s, &unlimited))) {
        Err(_) => return Some("naive full materialization panicked".to_owned()),
        Ok(Err(e)) => {
            return Some(format!(
                "full materialization failed after rewrite accepted the program: {e}"
            ))
        }
        Ok(Ok(out)) => out,
    };
    let expected = mq.filter(s, full.relation(mq.orig_idb));

    // Every engine configuration on the rewritten program must answer
    // the goal identically to the ground truth.
    let es = mq.prepare(s);
    let rprog = &mq.program;
    type Run<'a> = Box<dyn Fn() -> Result<fmt_queries::datalog::Output, EvalError> + 'a>;
    let engines: Vec<(&str, Run<'_>)> = vec![
        (
            "magic.naive",
            Box::new(|| rprog.try_eval_naive(&es, &unlimited)),
        ),
        (
            "magic.scan",
            Box::new(|| rprog.try_eval_seminaive_scan(&es, &unlimited)),
        ),
        (
            "magic.indexed(1)",
            Box::new(|| rprog.try_eval_seminaive_with(&es, 1, &unlimited)),
        ),
        (
            "magic.indexed(3)",
            Box::new(|| rprog.try_eval_seminaive_with(&es, 3, &unlimited)),
        ),
    ];
    for (name, run) in &engines {
        let out = match catch_unwind(AssertUnwindSafe(run)) {
            Err(_) => return Some(format!("{name} panicked on a rewritten program")),
            Ok(Err(e)) => return Some(format!("{name} rejected the rewritten program: {e}")),
            Ok(Ok(out)) => out,
        };
        let answers = mq.answers(s, &out);
        if answers != expected {
            return Some(format!(
                "{name} goal answers diverge from goal-filtered full materialization: \
                 {answers:?} vs {expected:?} (goal {goal_src})"
            ));
        }
    }

    // Budget transparency on the rewritten program: single-threaded
    // engines must fail cleanly and deterministically under tight
    // fuel; the sharded engine's exhaustion tick is legitimately racy,
    // so only its no-panic half is checked.
    let checks: EngineChecks<'_, Vec<Vec<Elem>>> = vec![
        (
            "magic.naive",
            Box::new(|b: &Budget| {
                rprog
                    .try_eval_naive(&es, b)
                    .map_err(EvalError::into_exhausted)
                    .map(|o| mq.answers(s, &o))
            }),
        ),
        (
            "magic.scan",
            Box::new(|b: &Budget| {
                rprog
                    .try_eval_seminaive_scan(&es, b)
                    .map_err(EvalError::into_exhausted)
                    .map(|o| mq.answers(s, &o))
            }),
        ),
        (
            "magic.indexed",
            Box::new(|b: &Budget| {
                rprog
                    .try_eval_seminaive_with(&es, 1, b)
                    .map_err(EvalError::into_exhausted)
                    .map(|o| mq.answers(s, &o))
            }),
        ),
    ];
    for (name, run) in checks {
        if let Err(note) = fuel_check(name, fuel, run) {
            return Some(note);
        }
    }
    let b3 = Budget::with_fuel(fuel);
    if catch_unwind(AssertUnwindSafe(|| {
        let _ = rprog.try_eval_seminaive_with(&es, 3, &b3);
    }))
    .is_err()
    {
        return Some(format!("magic.indexed(3) panicked under fuel {fuel}"));
    }
    None
}

impl Oracle for Magic {
    fn name(&self) -> &'static str {
        "magic"
    }

    fn run_case(&self, rng: &mut StdRng, seed: u64, case: u64) -> Option<ReproCase> {
        OBS_MAGIC.incr();
        let cfg = GenConfig::default();
        let s = gen::random_graph(rng, &cfg);
        // Mutant programs are kept: they exercise the `Original`
        // cross-check branch (rewrite and engines must both reject).
        let (src, _) = gen::random_stratified_program(rng);
        let prog = Program::parse(s.signature(), &src).expect("generated programs parse");
        let goal = gen::random_goal(rng, &prog, cfg.max_size);
        let fuel = rng.random_range(8..=96u64);
        let note = magic_violation(&s, &src, &goal, fuel)?;
        let ((s, fuel), _) = minimize(
            (s, fuel),
            &mut |(t, fl): &(Structure, u64)| {
                *fl >= 1 && magic_violation(t, &src, &goal, *fl).is_some()
            },
            SHRINK_BUDGET,
        );
        let note = magic_violation(&s, &src, &goal, fuel).unwrap_or(note);
        let mut c = case_skeleton(self, seed, case, note);
        c.params = vec![
            ("fuel".to_owned(), fuel.to_string()),
            ("goal".to_owned(), goal.clone()),
            ("program".to_owned(), src.trim().to_owned()),
        ];
        c.structures.push(("A".to_owned(), sparse::to_text(&s)));
        Some(c)
    }

    fn replay(&self, case: &ReproCase) -> Result<(), String> {
        let s = case.structure("A")?;
        let fuel = case.param_u64("fuel")?.max(1);
        let src = case.param("program").ok_or("case is missing `program`")?;
        let goal = case.param("goal").ok_or("case is missing `goal`")?;
        match magic_violation(&s, src, goal, fuel) {
            Some(note) => Err(note),
            None => Ok(()),
        }
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
        assert_eq!(
            stratified_violation(
                &s,
                "t(x, y) :- e(x, y). t(x, z) :- e(x, y), t(y, z). \
                 nt(x, y) :- e(x, y), !t(y, x).",
                32,
                Some(false),
            ),
            None
        );
        // An unstratifiable program is *coherently* rejected: lint says
        // D006, every engine returns the typed error, still no violation.
        assert_eq!(
            stratified_violation(&s, "w(x) :- e(x, x), !w(x).", 32, Some(true)),
            None
        );
        // Same for unsafe negation / D007.
        assert_eq!(
            stratified_violation(
                &s,
                "t(x, y) :- e(x, y). u(x) :- e(x, x), !t(z, x).",
                32,
                Some(true),
            ),
            None
        );
        // Generator/linter drift is itself a violation.
        let note = stratified_violation(&s, "w(x) :- e(x, x), !w(x).", 32, Some(false));
        assert!(note.unwrap().contains("defect=false"));
    }

    #[test]
    fn replay_detects_an_injected_disagreement() {
        // A hand-written case whose inputs DO disagree with a wrong
        // expectation is the other half of the contract: replay must
        // fail loudly. We fake it by claiming L_2 and L_3 are
        // equivalent at n = 2 — orders_equivalent and the solver both
        // say no, so the case replays clean; then corrupt m so the
        // stored pair genuinely disagrees... which cannot happen with
        // correct engines. Instead, check the malformed-case path.
        let bad = ReproCase {
            oracle: "games-orders".to_owned(),
            ..ReproCase::default()
        };
        let o = find_oracle("games-orders").unwrap();
        assert!(o.replay(&bad).is_err(), "missing params must error");
    }
}
