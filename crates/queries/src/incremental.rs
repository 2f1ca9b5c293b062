//! Incremental Datalog materialization: a long-lived [`DatalogRuntime`]
//! that keeps the semi-naive fixpoint of a [`Program`] current under
//! fact insertions and retractions instead of recomputing from scratch
//! (see `docs/incremental.md`).
//!
//! The maintenance algorithm is the classical pair:
//!
//! * **insertions** run the delta-rewritten program: every rule is
//!   re-planned with the batch engine's greedy planner once per
//!   `(rule, delta position)` and driven by the row ids appended (or
//!   revived) since the last round, joining the other body atoms
//!   against the full current extents;
//! * **retractions** run DRed (delete–rederive): an over-deletion pass
//!   applies the same delta rules with the retracted facts as drivers
//!   against the *pre-deletion* extents, marking every fact with a
//!   derivation through a deleted fact; marked facts are tombstoned,
//!   then each is checked for *remaining support* by a goal-directed
//!   join (head variables pre-bound to the candidate's values) and
//!   revived if any rule body still fires — with the revivals fed back
//!   through insertion propagation to rescue downstream casualties.
//!
//! Both directions ride on [`TupleStore`]'s logical deletion: a
//! tombstoned row keeps its arena slot and its row id, re-inserting the
//! same tuple revives that id, and `ColumnIndex` probes skip dead rows
//! — so the runtime's delta lists are plain `Vec<u32>` row ids and no
//! index is rebuilt on the maintenance path (compaction, which does
//! invalidate ids, runs only between polls once tombstones dominate).
//!
//! A budget-exhausted poll leaves the stores half-maintained; the
//! runtime remembers this and the next poll falls back to a
//! from-scratch rebuild, so exhaustion is recoverable and — for a fixed
//! operation sequence at one thread — deterministic. Work is metered
//! under `queries.incr.*` and traced as `datalog.incr.*` spans.

use crate::datalog::{head_idb, rule_num_vars, Atom, IdbStore, Pred, Program};
use crate::join::{self, exec, Access, Edb, ExecCtx, Job, Runner, Step};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::index::ColumnIndex;
use fmt_structures::par::resolve_threads;
use fmt_structures::store::TupleStore;
use fmt_structures::{Elem, RelId, Structure};
use std::collections::HashMap;

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
/// IDB facts tombstoned by the DRed over-deletion pass.
static OBS_OVERDELETED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.overdeleted");
/// Over-deleted facts revived by the direct remaining-support check.
static OBS_REDERIVED: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.rederived");
/// Delta propagation rounds across all polls.
static OBS_ROUNDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.rounds");
/// From-scratch rebuilds (first poll, or recovery after exhaustion).
static OBS_REBUILDS: fmt_obs::Counter = fmt_obs::Counter::new("queries.incr.rebuilds");

/// Key of the per-rule plan cache. Mirrors the batch engine's
/// per-(rule, pos) cache, extended with the two driverless shapes the
/// maintenance loop needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PlanKey {
    /// Delta-driven: body position `pos` iterates the delta rows.
    Driver { rule: usize, pos: usize },
    /// No driver, nothing pre-bound: the rebuild initialization pass.
    Init { rule: usize },
    /// No driver, head variables pre-bound: the DRed remaining-support
    /// check.
    Goal { rule: usize },
}

impl PlanKey {
    /// The rule, and the driven body position if any.
    fn rule_pos(self) -> (usize, Option<usize>) {
        match self {
            PlanKey::Driver { rule, pos } => (rule, Some(pos)),
            PlanKey::Init { rule } | PlanKey::Goal { rule } => (rule, None),
        }
    }
}

/// What one [`DatalogRuntime::poll`] did, in fact counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollStats {
    /// Net EDB facts added (insertions of absent tuples).
    pub inserted: u64,
    /// Net EDB facts removed (retractions of present tuples).
    pub retracted: u64,
    /// IDB facts added: first derivations plus propagation revivals.
    pub derived: u64,
    /// IDB facts tombstoned by the DRed over-deletion pass.
    pub overdeleted: u64,
    /// Over-deleted facts revived by the direct support check.
    pub rederived: u64,
    /// Over-deletion and propagation rounds run (a rebuild propagates
    /// for the batch engine's `iterations - 1` rounds).
    pub rounds: u64,
    /// `true` if this poll recomputed from scratch (first poll, or
    /// recovery after a budget-exhausted poll).
    pub rebuilt: bool,
}

/// One queued update: `insert` flag, relation, tuple.
type PendingOp = (bool, RelId, Vec<Elem>);

/// The incremental runtime does not maintain programs with negation:
/// DRed (delete–rederive) under stratified negation needs per-stratum
/// over-deletion with *sign-flipped* deltas, which is explicitly out of
/// scope here (see `docs/incremental.md`). [`DatalogRuntime::new`]
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
    domain: u32,
    threads: usize,
    /// One columnar extent per signature relation, indexed by `RelId.0`.
    edb: Vec<IdbStore>,
    /// One columnar extent per IDB predicate.
    idb: Vec<IdbStore>,
    /// Rule indices grouped by head IDB (the rederivation worklist).
    rules_by_head: Vec<Vec<usize>>,
    plans: Vec<Vec<Step>>,
    plan_of: HashMap<PlanKey, usize>,
    pending: Vec<PendingOp>,
    /// `true` while the materialization may not match the fact base: on
    /// creation, and after a budget-exhausted poll left the stores
    /// half-maintained. The next poll rebuilds from scratch.
    dirty: bool,
}

impl DatalogRuntime {
    /// An empty runtime for `program` over the domain `{0, …, n−1}`
    /// (the domain matters because unbound head variables range over
    /// it, exactly as in the batch engines). Programs with negated
    /// atoms are rejected with [`UnsupportedNegation`].
    pub fn new(program: Program, domain_size: u32) -> Result<DatalogRuntime, UnsupportedNegation> {
        for (ri, rule) in program.rules().iter().enumerate() {
            for (ai, atom) in rule.body.iter().enumerate() {
                if atom.negated {
                    let pred = match atom.pred {
                        Pred::Idb(j) => program.idb_info(j).0.to_owned(),
                        Pred::Edb(r) => program.signature().relation_name(r).to_owned(),
                    };
                    return Err(UnsupportedNegation {
                        rule: ri,
                        atom: ai,
                        pred,
                    });
                }
            }
        }
        let sig = program.signature().clone();
        let edb = sig
            .relations()
            .map(|(_, _, arity)| IdbStore::new(arity))
            .collect();
        let idb = (0..program.num_idbs())
            .map(|j| IdbStore::new(program.idb_info(j).1))
            .collect();
        let mut rules_by_head = vec![Vec::new(); program.num_idbs()];
        for (ri, rule) in program.rules().iter().enumerate() {
            rules_by_head[head_idb(rule)].push(ri);
        }
        Ok(DatalogRuntime {
            program,
            domain: domain_size,
            threads: 1,
            edb,
            idb,
            rules_by_head,
            plans: Vec::new(),
            plan_of: HashMap::new(),
            pending: Vec::new(),
            dirty: true,
        })
    }

    /// A runtime seeded with every fact of `s` (queued as pending
    /// insertions — call [`DatalogRuntime::poll`] to materialize).
    /// Programs with negated atoms are rejected with
    /// [`UnsupportedNegation`].
    pub fn from_structure(
        program: Program,
        s: &Structure,
    ) -> Result<DatalogRuntime, UnsupportedNegation> {
        assert_eq!(
            program.signature(),
            s.signature(),
            "program and structure must share a signature"
        );
        let mut rt = DatalogRuntime::new(program, s.size())?;
        for (r, _, _) in s.signature().relations() {
            for t in s.rel(r).iter() {
                rt.insert(r, t);
            }
        }
        Ok(rt)
    }

    /// The program being maintained.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The domain size `n` fixed at construction.
    pub fn domain_size(&self) -> u32 {
        self.domain
    }

    /// Worker threads used by rebuild and propagation rounds (1 =
    /// inline).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the worker-thread count, `0` meaning automatic
    /// ([`resolve_threads`], as in batch evaluation). The result of a
    /// poll is the same at any thread count; budget exhaustion points
    /// are deterministic only at one thread.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = resolve_threads(threads);
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
        self.pending.push((true, rel, t.to_vec()));
    }

    /// Queues retraction of `t` from EDB relation `rel`.
    ///
    /// # Panics
    /// Panics if the arity mismatches or a value is outside the domain.
    pub fn retract(&mut self, rel: RelId, t: &[Elem]) {
        self.check_fact(rel, t);
        self.pending.push((false, rel, t.to_vec()));
    }

    fn check_fact(&self, rel: RelId, t: &[Elem]) {
        assert_eq!(
            t.len(),
            self.program.signature().arity(rel),
            "tuple arity must match relation {}",
            self.program.signature().relation_name(rel)
        );
        assert!(
            t.iter().all(|&v| v < self.domain),
            "tuple values must lie in the domain 0..{}",
            self.domain
        );
    }

    /// The current extent of IDB predicate `idb` (as of the last
    /// successful poll; pending updates are not reflected). Live rows
    /// only under [`TupleStore::iter`]/[`PartialEq`]; tombstoned rows
    /// may linger in the arenas until compaction.
    pub fn query(&self, idb: usize) -> &TupleStore {
        &self.idb[idb].store
    }

    /// The current extent of EDB relation `rel` (as of the last
    /// successful poll).
    pub fn edb(&self, rel: RelId) -> &TupleStore {
        &self.edb[rel.0].store
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
        let mut order: Vec<(RelId, Vec<Elem>)> = Vec::new();
        let mut last: HashMap<(usize, Vec<Elem>), bool> = HashMap::new();
        for (add, rel, t) in &self.pending {
            let key = (rel.0, t.clone());
            if !last.contains_key(&key) {
                order.push((*rel, t.clone()));
            }
            last.insert(key, *add);
        }

        let mut stats = PollStats::default();
        let was_dirty = self.dirty;
        self.dirty = true; // until this poll completes
        if was_dirty {
            self.rebuild(&order, &last, budget, &mut stats)?;
        } else {
            self.maintain(&order, &last, budget, &mut stats)?;
        }
        self.pending.clear();
        self.dirty = false;
        for r in self.edb.iter_mut().chain(self.idb.iter_mut()) {
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

    /// From-scratch path: apply the net updates to the EDB, clear the
    /// IDB, run the batch-style initialization pass, then propagate.
    fn rebuild(
        &mut self,
        order: &[(RelId, Vec<Elem>)],
        last: &HashMap<(usize, Vec<Elem>), bool>,
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        OBS_REBUILDS.incr();
        stats.rebuilt = true;
        for (rel, t) in order {
            if last[&(rel.0, t.clone())] {
                if self.edb[rel.0].store.push_if_new(t).is_some() {
                    stats.inserted += 1;
                }
            } else if self.edb[rel.0].store.remove(t).is_some() {
                stats.retracted += 1;
            }
        }
        for r in &mut self.edb {
            r.extend_indexes();
        }
        for (j, r) in self.idb.iter_mut().enumerate() {
            *r = IdbStore::new(self.program.idb_info(j).1);
        }
        // Goal/driver plans survive (access shapes stay valid); any
        // index they reference is re-created lazily by ensure_indexes.
        // The initialization pass is the batch engine's: every rule,
        // driverless, on the pre-pass extents.
        let span = fmt_obs::trace_span!("datalog.incr.init");
        let keys: Vec<(PlanKey, &[u32])> = (0..self.program.rules().len())
            .map(|rule| (PlanKey::Init { rule }, &[][..]))
            .collect();
        let idb_delta = self.run_round(0, &keys, budget)?;
        drop(span);
        stats.derived += idb_delta.iter().map(|d| d.len() as u64).sum::<u64>();
        OBS_DERIVED.add(stats.derived);
        let edb_delta = vec![Vec::new(); self.edb.len()];
        // The init pass joined full EDB extents already, so only IDB
        // deltas need driving — but rules with *only* EDB bodies fired
        // completely during init too, which is exactly why the EDB
        // delta is empty here.
        self.propagate(edb_delta, idb_delta, budget, stats)
    }

    /// Incremental path: DRed retraction (overdelete, tombstone,
    /// rederive), then delta-rewritten insertion, then one shared
    /// propagation to the new fixpoint.
    fn maintain(
        &mut self,
        order: &[(RelId, Vec<Elem>)],
        last: &HashMap<(usize, Vec<Elem>), bool>,
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        let mut to_retract: Vec<(RelId, Vec<Elem>)> = Vec::new();
        let mut to_insert: Vec<(RelId, Vec<Elem>)> = Vec::new();
        for (rel, t) in order {
            let add = last[&(rel.0, t.clone())];
            let present = self.edb[rel.0].store.contains(t);
            if add && !present {
                to_insert.push((*rel, t.clone()));
            } else if !add && present {
                to_retract.push((*rel, t.clone()));
            }
        }

        let mut revived_delta: Vec<Vec<u32>> = vec![Vec::new(); self.idb.len()];
        if !to_retract.is_empty() {
            let over = self.overdelete(&to_retract, budget, stats)?;
            self.rederive(&over, &mut revived_delta, budget, stats)?;
        }

        let mut edb_delta: Vec<Vec<u32>> = vec![Vec::new(); self.edb.len()];
        if !to_insert.is_empty() {
            let span = fmt_obs::trace_span!("datalog.incr.insert", facts = to_insert.len());
            for (rel, t) in &to_insert {
                if let Some(row) = self.edb[rel.0].store.push_if_new(t) {
                    edb_delta[rel.0].push(row);
                    stats.inserted += 1;
                }
            }
            for r in &mut self.edb {
                r.extend_indexes();
            }
            drop(span);
        }
        self.propagate(edb_delta, revived_delta, budget, stats)
    }

    /// DRed phase one: semi-naive over-deletion against the
    /// pre-deletion extents, then tombstoning. Returns the marked rows
    /// per IDB, in discovery order.
    fn overdelete(
        &mut self,
        to_retract: &[(RelId, Vec<Elem>)],
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<Vec<Vec<u32>>> {
        let mut span = fmt_obs::trace_span!("datalog.incr.retract", facts = to_retract.len());
        let mut edb_delta: Vec<Vec<u32>> = vec![Vec::new(); self.edb.len()];
        for (rel, t) in to_retract {
            let row = self.edb[rel.0]
                .store
                .find(t)
                .expect("to_retract holds present tuples");
            edb_delta[rel.0].push(row);
        }
        let mut over: Vec<Vec<u32>> = vec![Vec::new(); self.idb.len()];
        let mut marked: Vec<Vec<bool>> = self
            .idb
            .iter()
            .map(|r| vec![false; r.store.rows32() as usize])
            .collect();
        let mut idb_delta: Vec<Vec<u32>> = vec![Vec::new(); self.idb.len()];
        loop {
            stats.rounds += 1;
            OBS_ROUNDS.incr();
            let jobs = self.delta_jobs(&edb_delta, &idb_delta);
            if jobs.is_empty() {
                break;
            }
            let mut next_delta: Vec<Vec<u32>> = vec![Vec::new(); self.idb.len()];
            for &(key, driver) in &jobs {
                let (ri, _) = key.rule_pos();
                let pi = self.plan_for(key);
                let ctx = self.ctx(ri, pi, driver);
                let h = ctx.head_idb;
                let head_store = &self.idb[h].store;
                let marks = &mut marked[h];
                let fresh = &mut next_delta[h];
                ctx.run(budget, &mut |_, t| {
                    // Every emitted head had a derivation over the old
                    // extents, so it is in the old fixpoint; mark it
                    // for deletion once.
                    if let Some(row) = head_store.find(t) {
                        if !marks[row as usize] {
                            marks[row as usize] = true;
                            fresh.push(row);
                        }
                    }
                    true
                })?;
            }
            for r in &mut edb_delta {
                r.clear();
            }
            let mut any = false;
            for (j, fresh) in next_delta.iter_mut().enumerate() {
                any |= !fresh.is_empty();
                over[j].extend_from_slice(fresh);
            }
            idb_delta = next_delta;
            if !any {
                break;
            }
        }
        // Mutate only now that the over-deletion fixpoint is done: the
        // passes above must join against the *pre-deletion* extents.
        for (rel, t) in to_retract {
            if self.edb[rel.0].store.remove(t).is_some() {
                stats.retracted += 1;
            }
        }
        for (j, rows) in over.iter().enumerate() {
            for &row in rows {
                self.idb[j].store.remove_row(row);
            }
            stats.overdeleted += rows.len() as u64;
        }
        OBS_OVERDELETED.add(stats.overdeleted);
        span.record_field("overdeleted", stats.overdeleted);
        Ok(over)
    }

    /// DRed phase two: for every over-deleted fact, a goal-directed
    /// join (head variables pre-bound) asks whether any rule body still
    /// fires over the post-deletion extents; survivors are revived.
    /// Facts rescued only *through* a survivor are caught later by
    /// propagation, with the revivals as deltas.
    fn rederive(
        &mut self,
        over: &[Vec<u32>],
        revived_delta: &mut [Vec<u32>],
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        let mut span = fmt_obs::trace_span!(
            "datalog.incr.rederive",
            candidates = over.iter().map(Vec::len).sum::<usize>()
        );
        let mut tuple = Vec::new();
        for (j, rows) in over.iter().enumerate() {
            for &row in rows {
                self.idb[j].store.read_row_into(row, &mut tuple);
                let t = std::mem::take(&mut tuple);
                if self.derivable(j, &t, budget)? {
                    let revived = self.idb[j]
                        .store
                        .push_if_new(&t)
                        .expect("over-deleted rows are dead, so re-insertion revives");
                    debug_assert_eq!(revived, row, "revival returns the tombstoned row id");
                    revived_delta[j].push(revived);
                    stats.rederived += 1;
                }
                tuple = t;
            }
        }
        OBS_REDERIVED.add(stats.rederived);
        span.record_field("rederived", stats.rederived);
        Ok(())
    }

    /// `true` iff some rule with head `idb` derives `t` from the
    /// current live extents (the remaining-support test of DRed).
    fn derivable(&mut self, idb: usize, t: &[Elem], budget: &Budget) -> BudgetResult<bool> {
        for ri_i in 0..self.rules_by_head[idb].len() {
            let ri = self.rules_by_head[idb][ri_i];
            let pi = self.plan_for(PlanKey::Goal { rule: ri });
            let rule = &self.program.rules()[ri];
            let mut binding = vec![None; rule_num_vars(rule)];
            let mut consistent = true;
            for (&v, &e) in rule.head.args.iter().zip(t.iter()) {
                match binding[v as usize] {
                    Some(b) if b != e => {
                        consistent = false;
                        break;
                    }
                    _ => binding[v as usize] = Some(e),
                }
            }
            if !consistent {
                continue;
            }
            // The first witness suffices: `emit` stops the join, and
            // the kernel reports the stop as `Ok(false)`.
            if !exec(
                &self.ctx(ri, pi, &[]),
                0,
                &mut binding,
                budget,
                &mut |_, _| false,
            )? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Semi-naive propagation of the delta-rewritten program: every
    /// `(rule, delta position)` with a nonempty delta becomes a job
    /// (EDB deltas drive the first round only), and each round goes
    /// through the shared runner. New and revived rows form the next
    /// round's deltas.
    fn propagate(
        &mut self,
        mut edb_delta: Vec<Vec<u32>>,
        mut idb_delta: Vec<Vec<u32>>,
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        while edb_delta.iter().any(|d| !d.is_empty()) || idb_delta.iter().any(|d| !d.is_empty()) {
            stats.rounds += 1;
            OBS_ROUNDS.incr();
            let jobs = self.delta_jobs(&edb_delta, &idb_delta);
            let span = fmt_obs::trace_span!("datalog.incr.round", jobs = jobs.len());
            let next = self.run_round(stats.rounds as usize, &jobs, budget)?;
            drop(span);
            let derived = next.iter().map(|d| d.len() as u64).sum::<u64>();
            stats.derived += derived;
            OBS_DERIVED.add(derived);
            edb_delta.iter_mut().for_each(Vec::clear);
            idb_delta = next;
        }
        Ok(())
    }

    /// The delta-driven jobs of one round, over every rule: a plan key
    /// and the driver rows of each `(rule, position)` whose atom has a
    /// nonempty EDB or IDB delta.
    fn delta_jobs<'d>(
        &self,
        edb_delta: &'d [Vec<u32>],
        idb_delta: &'d [Vec<u32>],
    ) -> Vec<(PlanKey, &'d [u32])> {
        let rules = self.program.rules();
        join::delta_jobs(rules, 0..rules.len(), |p| match p {
            Pred::Edb(r) => edb_delta[r.0].as_slice(),
            Pred::Idb(j) => idb_delta[j].as_slice(),
        })
        .into_iter()
        .map(|(rule, pos, rows)| (PlanKey::Driver { rule, pos }, rows))
        .collect()
    }

    /// Runs one round of jobs, each a plan key and its driver rows,
    /// through the shared runner; returns the new and revived rows per
    /// IDB.
    fn run_round(
        &mut self,
        round: usize,
        keys: &[(PlanKey, &[u32])],
        budget: &Budget,
    ) -> BudgetResult<Vec<Vec<u32>>> {
        let pis: Vec<usize> = keys.iter().map(|&(key, _)| self.plan_for(key)).collect();
        let jobs: Vec<Job> = keys
            .iter()
            .zip(&pis)
            .map(|(&(key, driver), &pi)| {
                let (rule, pos) = key.rule_pos();
                Job {
                    rule,
                    pos,
                    plan: &self.plans[pi],
                    driver,
                }
            })
            .collect();
        let runner = Runner {
            rules: self.program.rules(),
            domain: self.domain,
            threads: self.threads,
            site: AT,
        };
        let edb = Edb::Columnar(&self.edb);
        Ok(runner.run(round, edb, &jobs, &mut self.idb, budget)?.0)
    }

    /// A kernel context for rule `ri` under cached plan `pi`, with
    /// `driver` as the `ScanDelta` rows.
    fn ctx<'a>(&'a self, ri: usize, pi: usize, driver: &'a [u32]) -> ExecCtx<'a> {
        let rule = &self.program.rules()[ri];
        let edb = Edb::Columnar(&self.edb);
        ExecCtx::new(
            rule,
            &self.plans[pi],
            edb,
            &self.idb,
            driver,
            self.domain,
            AT,
        )
    }

    /// Plan-cache lookup, planning (and building the indexes the plan
    /// probes) on first sight — the incremental counterpart of the
    /// batch engine's per-(rule, pos) cache, extended with init and
    /// goal shapes.
    fn plan_for(&mut self, key: PlanKey) -> usize {
        if let Some(&pi) = self.plan_of.get(&key) {
            self.ensure_indexes(pi, key);
            return pi;
        }
        let (ri, driver) = key.rule_pos();
        let rule = &self.program.rules()[ri];
        let mut pre_bound = vec![false; rule_num_vars(rule)];
        if matches!(key, PlanKey::Goal { .. }) {
            for &v in &rule.head.args {
                pre_bound[v as usize] = true;
            }
        }
        let edb = &self.edb;
        let idb = &self.idb;
        let extent_len = |atom: &Atom| -> usize {
            match atom.pred {
                Pred::Edb(r) => edb[r.0].store.len(),
                Pred::Idb(j) => idb[j].store.len(),
            }
        };
        let plan = join::plan(rule, driver, &pre_bound, &extent_len);
        self.plans.push(plan);
        let pi = self.plans.len() - 1;
        self.plan_of.insert(key, pi);
        self.ensure_indexes(pi, key);
        pi
    }

    /// Builds (or catches up) every index a plan probes. Cheap when
    /// current: `ColumnIndex::extend` is a no-op past `built_upto`.
    fn ensure_indexes(&mut self, pi: usize, key: PlanKey) {
        let (ri, _) = key.rule_pos();
        for si in 0..self.plans[pi].len() {
            let Access::Probe(ref k) = self.plans[pi][si].access else {
                continue;
            };
            let k = k.clone();
            let atom_i = self.plans[pi][si].atom;
            let rel = match self.program.rules()[ri].body[atom_i].pred {
                Pred::Edb(r) => &mut self.edb[r.0],
                Pred::Idb(j) => &mut self.idb[j],
            };
            rel.ensure_index(&k);
            rel.extend_indexes();
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
    for (key, idx) in &mut rel.indexes {
        *idx = ColumnIndex::new(key);
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
            for t in rt.edb(r).iter() {
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
    fn retraction_runs_dred_and_matches_scratch() {
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 6).unwrap();
        for u in 0..5 {
            rt.insert(e(), &[u, u + 1]);
        }
        rt.poll();
        rt.retract(e(), &[2, 3]);
        let stats = rt.poll();
        assert!(stats.overdeleted > 0);
        assert_matches_scratch(&rt);
        let tc = rt.program().idb("tc").unwrap();
        assert!(!rt.query(tc).contains(&[0, 5]));
        assert!(rt.query(tc).contains(&[0, 2]));
        assert!(rt.query(tc).contains(&[3, 5]));
    }

    #[test]
    fn rederivation_revives_surviving_support() {
        // Two parallel paths 0→1→3 and 0→2→3: retracting one leaves
        // tc(0,3) derivable through the other.
        let mut rt = DatalogRuntime::new(Program::transitive_closure(), 4).unwrap();
        for &(u, v) in &[(0, 1), (1, 3), (0, 2), (2, 3)] {
            rt.insert(e(), &[u, v]);
        }
        rt.poll();
        rt.retract(e(), &[1, 3]);
        let stats = rt.poll();
        assert!(stats.rederived > 0, "tc(0,3) must be rederived");
        assert_matches_scratch(&rt);
        let tc = rt.program().idb("tc").unwrap();
        assert!(rt.query(tc).contains(&[0, 3]));
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
