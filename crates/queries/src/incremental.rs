//! Incremental Datalog materialization: a long-lived [`DatalogRuntime`]
//! that keeps the semi-naive fixpoint of a [`Program`] current under
//! fact insertions and retractions instead of recomputing from scratch
//! (see `docs/incremental.md`).
//!
//! The maintenance algorithm:
//!
//! * **insertions** run the delta-rewritten program through the batch
//!   engine's fixpoint driver (`join::Fixpoint::saturate`): every rule is
//!   planned once per `(rule, delta position)` and driven by the row
//!   ids appended (or revived) since the last round, joining the other
//!   body atoms against the full current extents;
//! * **retractions** run Backward/Forward (Motik, Nenov, Piro, Horrocks,
//!   AAAI 2015): the retracted facts seed a deletion worklist of the
//!   heads of their rule instances. Before a candidate is tombstoned, a
//!   backward search over the live facts (goal plans, head variables
//!   pre-bound) asks whether it still has a proof, built bottom-up from
//!   surviving EDB facts; only a candidate without one is tombstoned
//!   and queues the heads of its own instances. So exactly the facts
//!   that lost every proof are deleted, and nothing has to be revived.
//!
//! Both directions ride on [`TupleStore`]'s logical deletion: a
//! tombstoned row keeps its arena slot and its row id, re-inserting the
//! same tuple revives that id, and `ColumnIndex` probes skip dead rows
//! — so the runtime's delta lists are plain `Vec<u32>` row ids and no
//! index is rebuilt on the maintenance path (compaction, which does
//! invalidate ids, runs only between polls once tombstones dominate).
//!
//! The driver owns the EDB and IDB stores and the one plan cache that
//! propagation and retraction share. An input relation is read in place
//! until a poll first updates it; from then on the runtime owns a
//! columnar copy of it, made once. So a from-scratch rebuild is the
//! batch engine's stratum pass on that driver, round for round, and a
//! fresh runtime's first poll is the batch evaluation of its input. A
//! budget-exhausted poll leaves the stores
//! half-maintained; the runtime remembers this and the next poll falls
//! back to a rebuild, so exhaustion is recoverable and — for a fixed
//! operation sequence at one thread — deterministic. Work is metered
//! under `queries.incr.*` and traced as `datalog.incr.*` spans around
//! the driver's `datalog.init` / `datalog.round` spans.

use crate::datalog::{head_idb, IdbStore, Pred, Program, Rule};
use crate::join::{Binding, Fixpoint, PlanKey, PlanRef};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::index::ColumnIndex;
use fmt_structures::par::resolve_threads;
use fmt_structures::store::TupleStore;
use fmt_structures::{Elem, RelId, Structure, StructureBuilder};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Budget tick site label for the incremental maintenance loop.
const AT: &str = "queries.incr";

/// Polls that ran to completion (successful `poll`/`try_poll` calls).
static OBS_POLLS: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.polls");
/// Net EDB facts inserted by polls.
static OBS_INSERTED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.inserted_facts");
/// Net EDB facts retracted by polls.
static OBS_RETRACTED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.retracted_facts");
/// IDB facts added (first derivations and propagation revivals).
static OBS_DERIVED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.derived_facts");
/// IDB facts tombstoned by retraction: those that lost every proof.
static OBS_OVERDELETED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.overdeleted");
/// Deletion candidates the backward search proved and kept.
static OBS_REDERIVED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.rederived");
/// Delta propagation rounds across all polls.
static OBS_ROUNDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.rounds");
/// From-scratch rebuilds (first poll, or recovery after exhaustion).
static OBS_REBUILDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.rebuilds");

/// What one [`DatalogRuntime::poll`] did, in fact counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollStats {
    /// Net EDB facts added (insertions of absent tuples).
    pub inserted: u64,
    /// Net EDB facts removed (retractions of present tuples).
    pub retracted: u64,
    /// IDB facts added: first derivations plus propagation revivals.
    pub derived: u64,
    /// IDB facts tombstoned by retraction: exactly those that lost
    /// every proof.
    pub overdeleted: u64,
    /// Deletion candidates that the backward search proved and kept.
    pub rederived: u64,
    /// Propagation rounds run (a rebuild propagates for the batch
    /// engine's `iterations - 1` rounds).
    pub rounds: u64,
    /// `true` if this poll recomputed from scratch (first poll, or
    /// recovery after a budget-exhausted poll).
    pub rebuilt: bool,
}

/// One update: relation, tuple, and `true` to insert or `false` to
/// retract.
type Update = (RelId, Vec<Elem>, bool);

/// The incremental runtime does not maintain programs with negation:
/// retraction under stratified negation needs maintenance stratum by
/// stratum with *sign-flipped* deltas, which is out of scope here (see
/// `docs/incremental.md`). [`DatalogRuntime::new`]
/// rejects such programs with this typed error instead of panicking —
/// use the batch engines, which evaluate stratum by stratum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedNegation {
    /// Rule index of the first negated atom.
    pub rule: usize,
    /// Body-atom index of that atom within the rule.
    pub atom: usize,
    /// Name of the negated predicate.
    pub pred: String,
}

impl std::fmt::Display for UnsupportedNegation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "incremental maintenance does not support negation: rule {} negates {}",
            self.rule, self.pred
        )
    }
}

impl std::error::Error for UnsupportedNegation {}

/// A long-lived incrementally-maintained materialization of a Datalog
/// program over a mutable fact base.
///
/// ```
/// use fmt_queries::datalog::Program;
/// use fmt_queries::incremental::DatalogRuntime;
/// use fmt_structures::RelId;
///
/// let mut rt = DatalogRuntime::new(Program::transitive_closure(), 4).unwrap();
/// let e = RelId(0);
/// rt.insert(e, &[0, 1]);
/// rt.insert(e, &[1, 2]);
/// rt.poll();
/// let tc = rt.program().idb("tc").unwrap();
/// assert!(rt.query(tc).contains(&[0, 2]));
/// rt.retract(e, &[1, 2]);
/// rt.poll();
/// assert!(!rt.query(tc).contains(&[0, 2]));
/// ```
#[derive(Debug)]
pub struct DatalogRuntime {
    program: Program,
    /// The fixpoint driver: one extent per signature relation, shared
    /// with the input until its first update, one columnar store per
    /// IDB predicate, and the plans.
    fx: Fixpoint,
    /// Rule indices grouped by head IDB (the backward search's goals).
    rules_by_head: Vec<Vec<usize>>,
    pending: Vec<Update>,
    /// `true` while the materialization may not match the fact base: on
    /// creation, and after a budget-exhausted poll left the stores
    /// half-maintained. The next poll rebuilds from scratch.
    dirty: bool,
}

impl DatalogRuntime {
    /// An empty runtime for `program` over the domain `{0, …, n−1}`
    /// (the domain matters because unbound head variables range over
    /// it, exactly as in the batch engines): a runtime over the empty
    /// structure. Programs with negated atoms are rejected with
    /// [`UnsupportedNegation`].
    pub fn new(program: Program, domain_size: u32) -> Result<DatalogRuntime, UnsupportedNegation> {
        let empty = StructureBuilder::new(program.signature().clone(), domain_size)
            .build()
            .expect("an empty structure is valid");
        DatalogRuntime::from_structure(program, &empty)
    }

    /// A runtime over the facts of `s`, which it reads in place: a
    /// relation is copied only when a poll first updates it. Call
    /// [`DatalogRuntime::poll`] to materialize. Programs with negated
    /// atoms are rejected with [`UnsupportedNegation`].
    pub fn from_structure(
        program: Program,
        s: &Structure,
    ) -> Result<DatalogRuntime, UnsupportedNegation> {
        assert_eq!(
            program.signature(),
            s.signature(),
            "program and structure must share a signature"
        );
        let mut atoms = (program.rules().iter().enumerate())
            .flat_map(|(ri, rule)| rule.body.iter().enumerate().map(move |(ai, a)| (ri, ai, a)));
        if let Some((rule, atom, a)) = atoms.find(|(_, _, a)| a.negated) {
            let pred = match a.pred {
                Pred::Idb(j) => program.idb_info(j).0.to_owned(),
                Pred::Edb(r) => program.signature().relation_name(r).to_owned(),
            };
            return Err(UnsupportedNegation { rule, atom, pred });
        }
        let fx = Fixpoint::new(&program, s, 1, AT);
        let mut rules_by_head = vec![Vec::new(); program.num_idbs()];
        for (ri, rule) in program.rules().iter().enumerate() {
            rules_by_head[head_idb(rule)].push(ri);
        }
        Ok(DatalogRuntime {
            program,
            fx,
            rules_by_head,
            pending: Vec::new(),
            dirty: true,
        })
    }

    /// The program being maintained.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The domain size `n` fixed at construction.
    pub fn domain_size(&self) -> u32 {
        self.fx.runner.domain
    }

    /// Worker threads used by rebuild and propagation rounds (1 =
    /// inline).
    pub fn threads(&self) -> usize {
        self.fx.runner.threads
    }

    /// Sets the worker-thread count, `0` meaning automatic
    /// ([`resolve_threads`], as in batch evaluation). The result of a
    /// poll is the same at any thread count; budget exhaustion points
    /// are deterministic only at one thread.
    pub fn set_threads(&mut self, threads: usize) {
        self.fx.runner.threads = resolve_threads(threads);
    }

    /// Queued updates not yet applied by a poll.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// `true` if the next poll will rebuild from scratch instead of
    /// maintaining incrementally (freshly created, or a previous poll
    /// exhausted its budget mid-maintenance).
    pub fn needs_rebuild(&self) -> bool {
        self.dirty
    }

    /// Queues insertion of `t` into EDB relation `rel`.
    ///
    /// # Panics
    /// Panics if the arity mismatches or a value is outside the domain.
    pub fn insert(&mut self, rel: RelId, t: &[Elem]) {
        self.check_fact(rel, t);
        self.pending.push((rel, t.to_vec(), true));
    }

    /// Queues retraction of `t` from EDB relation `rel`.
    ///
    /// # Panics
    /// Panics if the arity mismatches or a value is outside the domain.
    pub fn retract(&mut self, rel: RelId, t: &[Elem]) {
        self.check_fact(rel, t);
        self.pending.push((rel, t.to_vec(), false));
    }

    fn check_fact(&self, rel: RelId, t: &[Elem]) {
        assert_eq!(
            t.len(),
            self.program.signature().arity(rel),
            "tuple arity must match relation {}",
            self.program.signature().relation_name(rel)
        );
        assert!(
            t.iter().all(|&v| v < self.domain_size()),
            "tuple values must lie in the domain 0..{}",
            self.domain_size()
        );
    }

    /// The current extent of IDB predicate `idb` (as of the last
    /// successful poll; pending updates are not reflected). Live rows
    /// only under [`TupleStore::iter`]/[`PartialEq`]; tombstoned rows
    /// may linger in the arenas until compaction.
    pub fn query(&self, idb: usize) -> &TupleStore {
        &self.fx.idb[idb].store
    }

    /// The live tuples of EDB relation `rel` (as of the last successful
    /// poll).
    pub fn edb(&self, rel: RelId) -> impl Iterator<Item = Vec<Elem>> + '_ {
        self.fx.edb.tuples(rel)
    }

    /// Applies all pending updates and restores the fixpoint,
    /// unbudgeted. Returns what was done.
    pub fn poll(&mut self) -> PollStats {
        self.try_poll(&Budget::unlimited())
            .expect("unlimited budget cannot exhaust")
    }

    /// Applies all pending updates and restores the fixpoint under
    /// `budget`. On exhaustion the stores may be half-maintained: the
    /// pending queue is kept, [`DatalogRuntime::needs_rebuild`] turns
    /// `true`, and the next poll recovers with a from-scratch rebuild.
    pub fn try_poll(&mut self, budget: &Budget) -> BudgetResult<PollStats> {
        let mut span = fmt_obs::trace_span!("datalog.incr.poll", pending = self.pending.len());
        // Net effect of the queue: the last op per (relation, tuple)
        // wins, in first-occurrence order for determinism.
        let mut net: Vec<Update> = Vec::new();
        let mut at: HashMap<(RelId, &[Elem]), usize> = HashMap::new();
        for (rel, t, add) in &self.pending {
            let i = *at.entry((*rel, t)).or_insert_with(|| {
                net.push((*rel, t.clone(), *add));
                net.len() - 1
            });
            net[i].2 = *add;
        }
        // Every relation the poll updates switches to its owned copy
        // now, before a plan is resolved: the switch drops the plans.
        for (rel, _, _) in &net {
            self.fx.own_edb(*rel);
        }

        let mut stats = PollStats::default();
        let was_dirty = self.dirty;
        self.dirty = true; // until this poll completes
        if was_dirty {
            self.rebuild(&net, budget, &mut stats)?;
        } else {
            self.maintain(&net, budget, &mut stats)?;
        }
        self.pending.clear();
        self.dirty = false;
        for r in self.fx.edb.stores_mut().chain(self.fx.idb.iter_mut()) {
            compact_if_mostly_dead(r);
        }
        OBS_POLLS.incr();
        OBS_INSERTED.add(stats.inserted);
        OBS_RETRACTED.add(stats.retracted);
        span.record_field("inserted", stats.inserted);
        span.record_field("retracted", stats.retracted);
        span.record_field("derived", stats.derived);
        span.record_field("overdeleted", stats.overdeleted);
        span.record_field("rounds", stats.rounds);
        Ok(stats)
    }

    /// From-scratch path: apply the net updates to the EDB, drop the
    /// IDB stores and the plans, then run the batch engine's stratum
    /// pass over every rule.
    fn rebuild(
        &mut self,
        net: &[Update],
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        OBS_REBUILDS.incr();
        stats.rebuilt = true;
        for (rel, t, add) in net {
            let st = &mut self.fx.edb.owned(*rel).store;
            if *add {
                if st.push_if_new(t).is_some() {
                    stats.inserted += 1;
                }
            } else if st.remove(t).is_some() {
                stats.retracted += 1;
            }
        }
        for r in self.fx.edb.stores_mut() {
            r.extend_indexes();
        }
        self.fx.restart();
        let all: Vec<usize> = (0..self.program.rules().len()).collect();
        // The initialization pass counts its facts, but it is not a
        // propagation round.
        let mut init = true;
        self.fx.stratum(&all, budget, &mut |new, _| {
            if !std::mem::take(&mut init) {
                stats.rounds += 1;
                OBS_ROUNDS.incr();
            }
            stats.derived += new;
            OBS_DERIVED.add(new);
        })
    }

    /// Incremental path: backward/forward retraction, then
    /// delta-rewritten insertion and its propagation to the new
    /// fixpoint. Retraction deletes exactly the facts that lost every
    /// proof, so nothing needs rescuing afterwards.
    fn maintain(
        &mut self,
        net: &[Update],
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        let mut to_retract: Vec<(RelId, &[Elem])> = Vec::new();
        let mut to_insert: Vec<(RelId, &[Elem])> = Vec::new();
        for (rel, t, add) in net {
            match (*add, self.fx.edb.owned(*rel).store.contains(t)) {
                (true, false) => to_insert.push((*rel, t)),
                (false, true) => to_retract.push((*rel, t)),
                _ => {}
            }
        }

        if !to_retract.is_empty() {
            let mut span = fmt_obs::trace_span!("datalog.incr.retract", facts = to_retract.len());
            let (fx, by_head) = (&mut self.fx, &self.rules_by_head);
            let (affected, checked) = Retraction::run(fx, by_head, &to_retract, budget, stats)?;
            span.record_field("affected", affected);
            span.record_field("checked", checked);
            span.record_field("overdeleted", stats.overdeleted);
            span.record_field("rederived", stats.rederived);
            OBS_OVERDELETED.add(stats.overdeleted);
            OBS_REDERIVED.add(stats.rederived);
        }

        let mut edb_delta: Vec<Vec<u32>> = vec![Vec::new(); self.fx.edb.copies.len()];
        if !to_insert.is_empty() {
            let span = fmt_obs::trace_span!("datalog.incr.insert", facts = to_insert.len());
            for &(rel, t) in &to_insert {
                if let Some(row) = self.fx.edb.owned(rel).store.push_if_new(t) {
                    edb_delta[rel.0].push(row);
                    stats.inserted += 1;
                }
            }
            for r in self.fx.edb.stores_mut() {
                r.extend_indexes();
            }
            drop(span);
        }
        self.propagate(edb_delta, budget, stats)
    }

    /// Semi-naive propagation of the delta-rewritten program through
    /// the driver, from the EDB insertions.
    fn propagate(
        &mut self,
        edb_delta: Vec<Vec<u32>>,
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        let all: Vec<usize> = (0..self.program.rules().len()).collect();
        let idb_delta = vec![Vec::new(); self.fx.idb.len()];
        self.fx
            .saturate(&all, &edb_delta, idb_delta, budget, &mut |new, _| {
                stats.rounds += 1;
                OBS_ROUNDS.incr();
                stats.derived += new;
                OBS_DERIVED.add(new);
            })
    }
}

/// One IDB fact of a retraction: its IDB index in the high half, its
/// row id in the low half. Row ids stay put for the whole poll
/// (compaction runs only after it), so a fact keeps its key.
type Fact = u64;

fn fact(idb: usize, row: u32) -> Fact {
    (idb as u64) << 32 | u64::from(row)
}

fn split(f: Fact) -> (usize, u32) {
    ((f >> 32) as usize, f as u32)
}

/// The IDB facts a retraction can reach: per IDB, one bit per row id,
/// set for every fact with a rule instance that uses a retracted fact
/// or a reached one. Any other live fact keeps the derivation it had,
/// since none of its facts is retracted, so the backward search counts
/// it as proved without opening it. Until the set is computed
/// (`None`), every fact counts as affected. One bit a row, freed with
/// the poll.
#[derive(Debug, Default)]
struct Affected(Option<Vec<Vec<u64>>>);

impl Affected {
    fn contains(&self, f: Fact) -> bool {
        let (j, row) = split(f);
        (self.0.as_ref()).map_or(true, |bits| {
            bits[j][row as usize / 64] & 1 << (row % 64) != 0
        })
    }

    /// Adds `f` to a computed set; returns `true` if it was not in yet.
    fn insert(&mut self, f: Fact) -> bool {
        let (j, row) = split(f);
        let bits = self.0.as_mut().expect("the set is being computed");
        let (word, bit) = (&mut bits[j][row as usize / 64], 1 << (row % 64));
        let new = *word & bit == 0;
        *word |= bit;
        new
    }
}

/// Flag: the fact entered the deletion worklist.
const QUEUED: u8 = 1;
/// Flag: the fact's backward search has started.
const CHECKED: u8 = 2;
/// Flag: the fact is proved bottom-up from surviving EDB facts.
const PROVED: u8 = 4;

/// Hashes a row id with one multiply and a fold. Row ids are handed out
/// by the stores, never taken from the input, so they need no
/// protection against crafted collisions, and std's SipHash would cost
/// more than the lookup.
#[derive(Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("row keys are u32")
    }

    fn write_u32(&mut self, row: u32) {
        let h = u64::from(row).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// The flags of the facts one retraction touched: per IDB, a map from
/// row id to [`QUEUED`] / [`CHECKED`] / [`PROVED`]. Sized by the facts
/// touched (eight bytes a bucket), not by the stores.
#[derive(Debug, Default)]
struct Marks(Vec<HashMap<u32, u8, BuildHasherDefault<RowHasher>>>);

impl Marks {
    fn new(idbs: usize) -> Marks {
        Marks((0..idbs).map(|_| HashMap::default()).collect())
    }

    fn get(&self, f: Fact) -> u8 {
        let (j, row) = split(f);
        self.0[j].get(&row).copied().unwrap_or(0)
    }

    /// Sets `flag` on `f`; returns the flags it had.
    fn set(&mut self, f: Fact, flag: u8) -> u8 {
        let (j, row) = split(f);
        let m = self.0[j].entry(row).or_default();
        let old = *m;
        *m |= flag;
        old
    }
}

/// One open fact of the backward search. It takes its rule instances
/// a few at a time and checks their unchecked body facts,
/// `children[next..end]`, in turn; its children start at `start`.
#[derive(Debug, Clone, Copy)]
struct Frame {
    fact: Fact,
    start: usize,
    next: usize,
    end: usize,
    /// The rule (an index into the fact's `rules_by_head`) whose
    /// instances come next, and whether its first instance is taken.
    rule: usize,
    first_taken: bool,
}

/// The plans one retraction runs, resolved from the driver's cache on
/// first use in the poll: each rule's driver plan per body position,
/// then its goal plan.
#[derive(Debug, Default)]
struct Plans {
    /// Rule `r`'s slots are `first[r]..first[r + 1]`.
    first: Vec<usize>,
    slots: Vec<Option<PlanRef>>,
}

impl Plans {
    fn new(rules: &[Rule]) -> Plans {
        let mut first = vec![0];
        for rule in rules {
            first.push(first.last().expect("starts at 0") + rule.body.len() + 1);
        }
        let slots = vec![None; *first.last().expect("starts at 0")];
        Plans { first, slots }
    }

    fn get(&mut self, fx: &mut Fixpoint, key: PlanKey) -> PlanRef {
        let slot = match key {
            PlanKey::Driver { rule, pos } => self.first[rule] + pos,
            PlanKey::Goal { rule } => self.first[rule + 1] - 1,
        };
        *self.slots[slot].get_or_insert_with(|| fx.resolve(key))
    }

    /// The forward step of a retraction: runs every rule instance with
    /// `row` of `pred` in its body, over the facts not deleted yet (the
    /// fact itself still among them, so an instance using it twice is
    /// found), through the driver plan of each position `pred` occurs
    /// at. `sink` sees the IDB stores, the rule, the head fact if it is
    /// live, and the instance's binding.
    fn instances(
        &mut self,
        fx: &mut Fixpoint,
        rules: &[Rule],
        pred: Pred,
        row: u32,
        budget: &Budget,
        mut sink: impl FnMut(&[IdbStore], &Rule, Option<Fact>, &Binding),
    ) -> BudgetResult<()> {
        for (rule, pos) in uses(rules, pred) {
            let (r, plan) = (&rules[rule], self.get(fx, PlanKey::Driver { rule, pos }));
            let h = head_idb(r);
            fx.exec_with(plan, &[row], &[], budget, &mut |idb, head, b| {
                let hf = idb[h].store.find(head).map(|hr| fact(h, hr));
                sink(idb, r, hf, b);
                true
            })?;
        }
        Ok(())
    }
}

/// Backward/forward retraction (Motik, Nenov, Piro, Horrocks, AAAI
/// 2015): the deletion worklist and the proof search of one poll. Its
/// sets are sized by the facts the poll explores (the affected set, one
/// bit a row), and freed with it.
///
/// When a search first has a body fact to open, the candidates'
/// consequences are closed forward into [`Affected`]. A live fact
/// outside that set still has the derivation it had, so the search
/// stops there: it opens only affected facts, and a candidate costs its
/// own rule instances, not a walk down its whole proof.
///
/// A fact is *proved* only bottom-up: forward-chained from surviving
/// EDB facts and unaffected facts over facts whose search has started.
/// So support that runs in a cycle — `tc(0,1)` from `tc(1,1)` from
/// `tc(0,1)` — never proves itself. A fact whose search finished
/// unproved has no proof: each of its instances has a body fact that is
/// deleted or itself finished unproved.
#[derive(Debug, Default)]
struct Retraction {
    marks: Marks,
    affected: Affected,
    /// Deletion candidates, in discovery order.
    queue: Vec<Fact>,
    /// The backward search's stack, in place of recursion: a proof may
    /// be as deep as the input.
    frames: Vec<Frame>,
    children: Vec<Fact>,
    /// Scratch: proved facts not yet chained forward, one instance's
    /// IDB body facts, one searched head, one body tuple.
    proved: Vec<Fact>,
    body: Vec<Fact>,
    head: Vec<Elem>,
    tuple: Vec<Elem>,
    /// Facts reached by the forward closure this poll.
    reached: u64,
    /// Facts whose backward search started this poll.
    checked: u64,
    plans: Plans,
}

impl Retraction {
    /// Retracts `to_retract` (present EDB facts) and tombstones every
    /// IDB fact left without a proof. Each retracted fact queues the
    /// heads of its rule instances, then goes. The queue is then worked
    /// in discovery order: a candidate with a proof stays (counted as
    /// `rederived`); one without is tombstoned (`overdeleted`) and
    /// queues the heads of its own instances. Returns the number of
    /// affected facts and of facts whose backward search started.
    fn run(
        fx: &mut Fixpoint,
        rules_by_head: &[Vec<usize>],
        to_retract: &[(RelId, &[Elem])],
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<(u64, u64)> {
        let rules = Arc::clone(&fx.runner.rules);
        let mut r = Retraction {
            marks: Marks::new(fx.idb.len()),
            plans: Plans::new(&rules),
            ..Retraction::default()
        };
        for &(rel, t) in to_retract {
            let row = (fx.edb.owned(rel).store.find(t)).expect("to_retract holds present tuples");
            r.delete(fx, &rules, Pred::Edb(rel), row, budget)?;
            fx.edb.owned(rel).store.remove_row(row);
            stats.retracted += 1;
        }
        let mut next = 0;
        while let Some(&f) = r.queue.get(next) {
            next += 1;
            if r.provable(fx, &rules, rules_by_head, f, budget)? {
                stats.rederived += 1;
                continue;
            }
            let (j, row) = split(f);
            r.delete(fx, &rules, Pred::Idb(j), row, budget)?;
            fx.idb[j].store.remove_row(row);
            stats.overdeleted += 1;
        }
        Ok((r.reached, r.checked))
    }

    /// Computes [`Retraction::affected`]: the live queued facts, closed
    /// forward — the head of every rule instance with an affected fact
    /// in its body is affected. Runs once, when the first search is
    /// about to open a body fact; until then no search has opened one,
    /// so no earlier verdict leaned on a fact's being affected. A live
    /// fact that an affected one's deletion would queue is affected,
    /// and the facts deleted so far queued the heads of their
    /// instances already, so the closure over the live facts misses
    /// none. The worklist is [`Retraction::children`], empty here.
    fn reach(&mut self, fx: &mut Fixpoint, rules: &[Rule], budget: &Budget) -> BudgetResult<()> {
        let Retraction {
            affected,
            queue,
            children: work,
            plans,
            reached,
            ..
        } = self;
        affected.0 = Some(
            (fx.idb.iter())
                .map(|r| vec![0; (r.store.rows32() as usize).div_ceil(64)])
                .collect(),
        );
        let live = |f: &Fact| {
            let (j, row) = split(*f);
            fx.idb[j].store.is_live(row)
        };
        let seeds: Vec<Fact> = queue.iter().copied().filter(live).collect();
        work.extend(seeds.into_iter().filter(|&f| affected.insert(f)));
        while let Some(f) = work.pop() {
            budget.tick(AT)?;
            *reached += 1;
            let (j, row) = split(f);
            plans.instances(fx, rules, Pred::Idb(j), row, budget, |_, _, hf, _| {
                let hf = hf.expect("heads are materialized");
                if affected.insert(hf) {
                    work.push(hf);
                }
            })?;
        }
        Ok(())
    }

    /// Queues the head of every rule instance with `row` of `pred` in
    /// its body ([`Plans::instances`]).
    fn delete(
        &mut self,
        fx: &mut Fixpoint,
        rules: &[Rule],
        pred: Pred,
        row: u32,
        budget: &Budget,
    ) -> BudgetResult<()> {
        let Retraction {
            marks,
            queue,
            plans,
            ..
        } = self;
        plans.instances(fx, rules, pred, row, budget, |_, _, hf, _| {
            // A head deleted earlier has no live row.
            if let Some(hf) = hf {
                if marks.set(hf, QUEUED) & QUEUED == 0 {
                    queue.push(hf);
                }
            }
        })
    }

    /// Whether `f` still has a proof: the backward search from `f`,
    /// depth first on [`Retraction::frames`]. A frame is done when its
    /// fact is proved, or when it has taken every instance and checked
    /// every child, exactly as the recursive search returns; so when
    /// `f`'s search ends, every fact it opened is proved or finished.
    fn provable(
        &mut self,
        fx: &mut Fixpoint,
        rules: &[Rule],
        rules_by_head: &[Vec<usize>],
        f: Fact,
        budget: &Budget,
    ) -> BudgetResult<bool> {
        if self.marks.get(f) & CHECKED == 0 {
            self.open(f, budget)?;
            while let Some(&top) = self.frames.last() {
                if self.marks.get(top.fact) & PROVED != 0 {
                    self.children.truncate(top.start);
                    self.frames.pop();
                } else if top.next < top.end && self.affected.0.is_none() {
                    // The first fact a search would open: compute the
                    // affected set, then retake this root's instances
                    // knowing which body facts need no search.
                    debug_assert_eq!(self.frames.len(), 1, "no search opened a fact yet");
                    self.children.truncate(top.start);
                    self.reach(fx, rules, budget)?;
                    let top = self.frames.last_mut().expect("top exists");
                    (top.next, top.end, top.rule, top.first_taken) =
                        (top.start, top.start, 0, false);
                } else if top.next < top.end {
                    let child = self.children[top.next];
                    self.frames.last_mut().expect("top exists").next += 1;
                    if self.marks.get(child) & CHECKED == 0 {
                        self.open(child, budget)?;
                    }
                } else if !self.take_instances(fx, rules, rules_by_head, budget)? {
                    self.children.truncate(top.start);
                    self.frames.pop();
                }
            }
        }
        Ok(self.marks.get(f) & PROVED != 0)
    }

    /// Starts `f`'s backward search with a frame that has taken no
    /// instance yet.
    fn open(&mut self, f: Fact, budget: &Budget) -> BudgetResult<()> {
        budget.tick(AT)?;
        self.checked += 1;
        self.marks.set(f, CHECKED);
        let start = self.children.len();
        self.frames.push(Frame {
            fact: f,
            start,
            next: start,
            end: start,
            rule: 0,
            first_taken: false,
        });
        Ok(())
    }

    /// Takes the top frame's next rule instances over the live facts,
    /// with the head-bound goal plans: a rule's first instance alone
    /// (in a chain, its proof usually proves the fact, and the other
    /// instances are never probed), then all the rest. An instance
    /// whose IDB body facts are all proved (or that has none) proves
    /// the fact at once; otherwise its unchecked body facts become the
    /// frame's children. Returns `false` once every rule's instances
    /// are taken.
    fn take_instances(
        &mut self,
        fx: &mut Fixpoint,
        rules: &[Rule],
        rules_by_head: &[Vec<usize>],
        budget: &Budget,
    ) -> BudgetResult<bool> {
        let top = self.frames.last_mut().expect("a frame is open");
        let f = top.fact;
        let (j, row) = split(f);
        let Retraction {
            marks,
            affected,
            children,
            body,
            head,
            tuple,
            plans,
            ..
        } = self;
        let proved = |g: Fact| !affected.contains(g) || marks.get(g) & PROVED != 0;
        fx.idb[j].store.read_row_into(row, head);
        while let Some(&rule) = rules_by_head[j].get(top.rule) {
            let r = &rules[rule];
            let plan = plans.get(fx, PlanKey::Goal { rule });
            let (first_only, mut skip) = (!top.first_taken, top.first_taken);
            let (mut taken, mut found) = (false, false);
            fx.exec_with(plan, &[], head, budget, &mut |idb, _, b| {
                if std::mem::take(&mut skip) {
                    return true;
                }
                taken = true;
                body.clear();
                push_body_facts(r, idb, b, tuple, body);
                if body.iter().all(|&g| proved(g)) {
                    found = true;
                    return false;
                }
                let unchecked =
                    (body.iter()).filter(|&&g| affected.contains(g) && marks.get(g) & CHECKED == 0);
                children.extend(unchecked);
                !first_only
            })?;
            if found {
                self.prove(fx, rules, f, budget)?;
                return Ok(true);
            }
            if first_only && taken {
                top.first_taken = true;
            } else {
                top.rule += 1;
                top.first_taken = false;
            }
            if taken {
                top.end = children.len();
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Marks `f` proved and chains forward: the head of every rule
    /// instance whose IDB body facts are all proved is proved too, if
    /// its search has started. Facts never checked take no part, so a
    /// proof always bottoms out in surviving EDB facts.
    fn prove(
        &mut self,
        fx: &mut Fixpoint,
        rules: &[Rule],
        f: Fact,
        budget: &Budget,
    ) -> BudgetResult<()> {
        self.marks.set(f, PROVED);
        self.proved.push(f);
        let Retraction {
            marks,
            affected,
            proved,
            body,
            tuple,
            plans,
            ..
        } = self;
        while let Some(x) = proved.pop() {
            let (j, row) = split(x);
            plans.instances(fx, rules, Pred::Idb(j), row, budget, |idb, r, hf, b| {
                let Some(hf) = hf.filter(|&hf| marks.get(hf) & (CHECKED | PROVED) == CHECKED)
                else {
                    return;
                };
                body.clear();
                push_body_facts(r, idb, b, tuple, body);
                if (body.iter()).all(|&g| !affected.contains(g) || marks.get(g) & PROVED != 0) {
                    marks.set(hf, PROVED);
                    proved.push(hf);
                }
            })?;
        }
        Ok(())
    }
}

/// Every `(rule, body position)` where `pred` occurs positively.
fn uses(rules: &[Rule], pred: Pred) -> impl Iterator<Item = (usize, usize)> + '_ {
    rules.iter().enumerate().flat_map(move |(ri, rule)| {
        (rule.body.iter().enumerate())
            .filter(move |(_, a)| a.pred == pred && !a.negated)
            .map(move |(pos, _)| (ri, pos))
    })
}

/// Pushes the fact of each positive IDB body atom of `rule` under the
/// instance's `binding`; its EDB atoms matched surviving facts, which
/// need no proof.
fn push_body_facts(
    rule: &Rule,
    idb: &[IdbStore],
    binding: &[Option<Elem>],
    tuple: &mut Vec<Elem>,
    out: &mut Vec<Fact>,
) {
    for atom in rule.body.iter().filter(|a| !a.negated) {
        if let Pred::Idb(j) = atom.pred {
            tuple.clear();
            tuple.extend(
                atom.args
                    .iter()
                    .map(|&v| binding[v as usize].expect("body var bound")),
            );
            let row = idb[j]
                .store
                .find(tuple)
                .expect("the kernel matched a live row");
            out.push(fact(j, row));
        }
    }
}

/// Compacts a store once tombstones dominate (≥ 32 dead rows and at
/// least half the arena), rebuilding its indexes from scratch — row
/// ids move, so this runs only between polls, never while delta lists
/// are alive.
fn compact_if_mostly_dead(rel: &mut IdbStore) {
    let dead = rel.store.tombstones();
    if dead < 32 || dead * 2 < rel.store.rows32() as usize {
        return;
    }
    let _ = rel.store.compact();
    for idx in &mut rel.indexes {
        *idx = ColumnIndex::new(idx.key());
        idx.extend(&rel.store);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmt_structures::builders;

    fn e() -> RelId {
        RelId(0)
    }

    /// From-scratch reference: the batch engine on the runtime's
    /// current EDB.
    fn scratch(rt: &DatalogRuntime) -> Vec<TupleStore> {
        let sig = rt.program().signature().clone();
        let mut b = fmt_structures::StructureBuilder::new(sig.clone(), rt.domain_size());
        for (r, _, _) in sig.relations() {
            for t in rt.edb(r) {
                b.add(r, &t).unwrap();
            }
        }
        let out = rt.program().eval_seminaive(&b.build().unwrap());
        (0..rt.program().num_idbs())
            .map(|j| out.relation(j).clone())
            .collect()
    }

    fn assert_matches_scratch(rt: &DatalogRuntime) {
        let want = scratch(rt);
        for (j, w) in want.iter().enumerate() {
            assert_eq!(
                rt.query(j),
                w,
                "IDB {} diverged from scratch",
                rt.program().idb_info(j).0
            );
        }
    }

    #[test]
    fn insertions_reach_the_batch_fixpoint() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 6).unwrap();
        for u in 0..5 {
            rt.insert(e(), &[u, u + 1]);
        }
        let stats = rt.poll();
        assert!(stats.rebuilt, "first poll rebuilds");
        assert_matches_scratch(&rt);
        let tc = rt.program().idb("tc").unwrap();
        assert_eq!(rt.query(tc).len(), 15);

        // Steady state: a single appended edge extends the closure.
        rt.insert(e(), &[3, 0]);
        let stats = rt.poll();
        assert!(!stats.rebuilt);
        assert!(stats.derived > 0);
        assert_matches_scratch(&rt);
    }

    #[test]
    fn retraction_deletes_what_lost_its_proof_and_matches_scratch() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 6).unwrap();
        for u in 0..5 {
            rt.insert(e(), &[u, u + 1]);
        }
        rt.poll();
        rt.retract(e(), &[2, 3]);
        let stats = rt.poll();
        // The 3 · 3 pairs from {0, 1, 2} to {3, 4, 5} crossed the edge.
        assert_eq!(stats.overdeleted, 9);
        assert_eq!(stats.rederived, 0);
        assert_matches_scratch(&rt);
        let tc = rt.program().idb("tc").unwrap();
        assert!(!rt.query(tc).contains(&[0, 5]));
        assert!(rt.query(tc).contains(&[0, 2]));
        assert!(rt.query(tc).contains(&[3, 5]));
    }

    #[test]
    fn backward_search_keeps_facts_with_surviving_support() {
        // Two parallel paths 0→1→3 and 0→2→3: retracting one leaves
        // tc(0,3) derivable through the other.
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 4).unwrap();
        for &(u, v) in &[(0, 1), (1, 3), (0, 2), (2, 3)] {
            rt.insert(e(), &[u, v]);
        }
        rt.poll();
        rt.retract(e(), &[1, 3]);
        let stats = rt.poll();
        assert_eq!(stats.overdeleted, 1, "only tc(1,3) lost its proof");
        assert_eq!(stats.rederived, 1, "tc(0,3) must be proved and kept");
        assert_matches_scratch(&rt);
        let tc = rt.program().idb("tc").unwrap();
        assert!(rt.query(tc).contains(&[0, 3]));
    }

    #[test]
    fn cyclic_support_does_not_prove_itself() {
        // TC of the 3-cycle 0→1→2→0 holds all 9 pairs, each supported
        // through the cycle; without E(2,0) only (0,1), (0,2), (1,2)
        // have a proof.
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 3).unwrap();
        for &(u, v) in &[(0, 1), (1, 2), (2, 0)] {
            rt.insert(e(), &[u, v]);
        }
        rt.poll();
        let tc = rt.program().idb("tc").unwrap();
        assert_eq!(rt.query(tc).len(), 9);
        rt.retract(e(), &[2, 0]);
        let stats = rt.poll();
        assert_matches_scratch(&rt);
        assert_eq!(stats.overdeleted, 6);
    }

    #[test]
    fn mutual_support_without_a_base_is_deleted() {
        // With 0⇄1 and 1→2, tc(0,2) and tc(1,2) each have an instance
        // through the other; without E(1,2) neither has a proof.
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 3).unwrap();
        for &(u, v) in &[(0, 1), (1, 0), (1, 2)] {
            rt.insert(e(), &[u, v]);
        }
        rt.poll();
        rt.retract(e(), &[1, 2]);
        let stats = rt.poll();
        assert_matches_scratch(&rt);
        assert_eq!((stats.overdeleted, stats.rederived), (2, 0));
        let tc = rt.program().idb("tc").unwrap();
        assert!(!rt.query(tc).contains(&[0, 2]));
        assert!(rt.query(tc).contains(&[0, 0]));
    }

    #[test]
    fn searches_finish_every_fact_they_open() {
        // A conform-found program where a search proves its root while a
        // fact it opened deeper is still unproved with instances left to
        // take. Dropping the open frames then would leave that fact
        // looking unprovable, and a later candidate check would delete
        // it.
        let sig = fmt_structures::Signature::graph();
        let src = "p(x, y) :- e(x, y). q(x) :- e(x, x). hit :- e(x, y). \
                   p(x, w) :- p(y, w), p(y, z). p(y, x) :- e(w, y). q(x) :- e(w, y), hit.";
        let mut rt = DatalogRuntime::new(Program::parse(&sig, src).unwrap(), 2).unwrap();
        rt.insert(e(), &[1, 0]);
        rt.insert(e(), &[0, 0]);
        rt.poll();
        rt.retract(e(), &[1, 0]);
        rt.poll();
        assert_matches_scratch(&rt);
    }

    /// The reachability program over `S/1` and `E/2`, seeded with
    /// `s(0)` and `edges`, polled once.
    fn reachability(n: u32, edges: impl Iterator<Item = (u32, u32)>) -> (DatalogRuntime, usize) {
        let sig = fmt_structures::Signature::builder()
            .relation("S", 1)
            .relation("E", 2)
            .finish_arc();
        let (s, e) = (sig.relation("S").unwrap(), sig.relation("E").unwrap());
        let src = "r(y) :- s(x), e(x, y).\nr(z) :- r(y), e(y, z).\n";
        let prog = Program::parse(&sig, src).unwrap();
        let r = prog.idb("r").unwrap();
        let mut rt = DatalogRuntime::new(prog, n).unwrap();
        rt.insert(s, &[0]);
        for (u, v) in edges {
            rt.insert(e, &[u, v]);
        }
        rt.poll();
        (rt, r)
    }

    #[test]
    fn deep_proofs_search_without_recursion() {
        // Reachability from s(0) along a chain 0→1→…→N, plus a shortcut
        // 0→N. Retracting the shortcut leaves r(N) with one proof, N
        // facts deep; its last step is unaffected, so the search opens
        // r(N) alone.
        const N: u32 = 200_000;
        let (mut rt, r) = reachability(N + 1, (0..N).map(|u| (u, u + 1)).chain([(0, N)]));
        assert_eq!(rt.query(r).len(), N as usize);
        rt.retract(RelId(1), &[0, N]);
        let stats = rt.poll();
        assert_eq!((stats.overdeleted, stats.rederived), (0, 1));
        assert_eq!(rt.query(r).len(), N as usize);
        assert!(rt.query(r).contains(&[N]));
    }

    #[test]
    fn deep_searches_through_affected_facts_use_no_recursion() {
        // A chain 1⇄2⇄…⇄N entered by 0→1 and 0→N. Without E(0, 1) every
        // r fact is affected, and r(1)'s one proof runs back from r(N)
        // through all of them: the search is N facts deep and must not
        // grow the thread's stack.
        const N: u32 = 200_000;
        let chain = (1..N).flat_map(|u| [(u, u + 1), (u + 1, u)]);
        let (mut rt, r) = reachability(N + 1, chain.chain([(0, 1), (0, N)]));
        assert_eq!(rt.query(r).len(), N as usize);
        rt.retract(RelId(1), &[0, 1]);
        let stats = rt.poll();
        assert_eq!((stats.overdeleted, stats.rederived), (0, 1));
        assert_eq!(rt.query(r).len(), N as usize);
    }

    #[test]
    fn updates_to_one_relation_leave_the_others_in_place() {
        // Reachability from a one-tuple `S` along a 2,000-edge chain `E`;
        // each poll moves the source and touches `S` alone. `E` stays
        // the input's relation: no copy, and no index over it.
        const N: u32 = 2_000;
        let sig = fmt_structures::Signature::builder()
            .relation("S", 1)
            .relation("E", 2)
            .finish_arc();
        let (src, e) = (sig.relation("S").unwrap(), sig.relation("E").unwrap());
        let mut b = fmt_structures::StructureBuilder::new(sig.clone(), N + 1);
        b.add(src, &[0]).unwrap();
        for u in 0..N {
            b.add(e, &[u, u + 1]).unwrap();
        }
        let input = b.build().unwrap();
        let prog = Program::parse(&sig, "r(y) :- s(x), e(x, y).\nr(z) :- r(y), e(y, z).\n");
        let mut rt = DatalogRuntime::from_structure(prog.unwrap(), &input).unwrap();
        let r = rt.program().idb("r").unwrap();
        assert!(rt.poll().rebuilt);
        assert_eq!(rt.query(r).len(), N as usize);
        for (from, to) in [(0, 500), (500, 1_500), (1_500, 200)] {
            rt.retract(src, &[from]);
            rt.insert(src, &[to]);
            assert!(!rt.poll().rebuilt);
            assert_eq!(rt.query(r).len(), (N - to) as usize);
            assert_matches_scratch(&rt);
        }
        let edb = &rt.fx.edb;
        assert!(
            std::ptr::eq(edb.input.rel(e), input.rel(e)),
            "E is read in place"
        );
        assert!(edb.input.rel(src).is_empty(), "S is held twice");
        assert_eq!(input.rel(src).len(), 1, "the caller lost its S");
        assert!(edb.copies[e.0].is_none(), "E was copied");
        assert!(edb.copies[src.0].is_some(), "S was not copied on update");
        assert!(edb.slots.is_empty(), "an index was built over E");
    }

    #[test]
    fn same_generation_with_unbound_head_vars_maintains() {
        let s = builders::full_binary_tree(3);
        let mut rt = DatalogRuntime::from_structure(Program::same_generation(), &s).unwrap();
        rt.poll();
        assert_matches_scratch(&rt);
        // Retract one child edge; sg(x,x) facts must survive (they
        // have a bodiless rule as remaining support).
        let edge: Vec<Elem> = s.rel(e()).iter().next().unwrap().to_vec();
        rt.retract(e(), &edge);
        rt.poll();
        assert_matches_scratch(&rt);
        let sg = rt.program().idb("sg").unwrap();
        assert!(rt.query(sg).contains(&[2, 2]));
    }

    #[test]
    fn retract_everything_drains_idbs() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 8).unwrap();
        for u in 0..7 {
            rt.insert(e(), &[u, u + 1]);
        }
        rt.poll();
        for u in 0..7 {
            rt.retract(e(), &[u, u + 1]);
        }
        rt.poll();
        let tc = rt.program().idb("tc").unwrap();
        assert!(rt.query(tc).is_empty());
        assert_matches_scratch(&rt);
    }

    #[test]
    fn batched_insert_retract_nets_out() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 4).unwrap();
        rt.insert(e(), &[0, 1]);
        rt.poll();
        // Insert+retract of the same tuple in one batch: last op wins.
        rt.insert(e(), &[1, 2]);
        rt.retract(e(), &[1, 2]);
        let stats = rt.poll();
        assert_eq!(stats.inserted, 0);
        assert_eq!(stats.retracted, 0);
        assert_matches_scratch(&rt);
    }

    #[test]
    fn threads_agree() {
        let mut a = DatalogRuntime::new(Program::same_generation(), 7).unwrap();
        let mut b = DatalogRuntime::new(Program::same_generation(), 7).unwrap();
        b.set_threads(3);
        let s = builders::full_binary_tree(2);
        for t in s.rel(e()).iter() {
            a.insert(e(), t);
            b.insert(e(), t);
        }
        a.poll();
        b.poll();
        for j in 0..a.program().num_idbs() {
            assert_eq!(a.query(j), b.query(j));
        }
    }

    #[test]
    fn zero_threads_means_the_automatic_count() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 3).unwrap();
        rt.set_threads(0);
        assert_eq!(rt.threads(), resolve_threads(0));
        rt.set_threads(2);
        assert_eq!(rt.threads(), 2);
    }

    #[test]
    fn exhausted_poll_recovers_by_rebuilding() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 6).unwrap();
        for u in 0..5 {
            rt.insert(e(), &[u, u + 1]);
        }
        rt.poll();
        rt.retract(e(), &[2, 3]);
        rt.insert(e(), &[0, 3]);
        let err = rt
            .try_poll(&Budget::with_fuel(3))
            .expect_err("3 fuel cannot maintain");
        assert_eq!(err.spent, 4);
        assert!(rt.needs_rebuild());
        assert_eq!(rt.pending_ops(), 2, "pending ops survive exhaustion");
        let stats = rt.poll();
        assert!(stats.rebuilt, "recovery rebuilds from scratch");
        assert_matches_scratch(&rt);
    }

    #[test]
    fn deterministic_exhaustion_at_one_thread() {
        let run = || {
            let mut rt = DatalogRuntime::new(Program::transitive_closure(), 6).unwrap();
            for u in 0..5 {
                rt.insert(e(), &[u, u + 1]);
            }
            match rt.try_poll(&Budget::with_fuel(40)) {
                Ok(stats) => format!("ok:{stats:?}"),
                Err(ex) => format!("exhausted:{}:{}", ex.spent, ex.at),
            }
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn compaction_triggers_and_preserves_the_extent() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 100).unwrap();
        for u in 0..99 {
            rt.insert(e(), &[u, u + 1]);
        }
        rt.poll();
        for u in 0..98 {
            rt.retract(e(), &[u, u + 1]);
        }
        rt.poll();
        let tc = rt.program().idb("tc").unwrap();
        assert_eq!(rt.query(tc).len(), 1);
        assert_eq!(
            rt.query(tc).tombstones(),
            0,
            "a mostly-dead store must have been compacted"
        );
        assert_matches_scratch(&rt);
        rt.insert(e(), &[0, 1]);
        rt.poll();
        assert_matches_scratch(&rt);
    }

    #[test]
    fn nullary_idbs_toggle() {
        let sig = fmt_structures::Signature::graph();
        let prog = Program::parse(&sig, "hit :- e(x, y).").unwrap();
        let hit = prog.idb("hit").unwrap();
        let mut rt = DatalogRuntime::new(prog, 3).unwrap();
        rt.poll();
        assert!(rt.query(hit).is_empty());
        rt.insert(e(), &[0, 1]);
        rt.poll();
        assert!(rt.query(hit).contains(&[]));
        rt.retract(e(), &[0, 1]);
        rt.poll();
        assert!(rt.query(hit).is_empty());
    }
}
