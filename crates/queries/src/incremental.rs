//! Incremental Datalog materialization: a long-lived [`DatalogRuntime`]
//! that keeps the semi-naive fixpoint of a [`Program`] current under
//! fact insertions and retractions instead of recomputing from scratch
//! (see `docs/incremental.md`).
//!
//! The maintenance algorithm is the classical pair:
//!
//! * **insertions** run the delta-rewritten program through the batch
//!   engine's fixpoint driver (`join::Fixpoint::saturate`): every rule is
//!   planned once per `(rule, delta position)` and driven by the row
//!   ids appended (or revived) since the last round, joining the other
//!   body atoms against the full current extents;
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
//! The driver owns the EDB and IDB stores and the one plan cache that
//! propagation, over-deletion and the support check share. A from-
//! scratch rebuild is the batch engine's stratum pass on that driver,
//! round for round. A budget-exhausted poll leaves the stores
//! half-maintained; the runtime remembers this and the next poll falls
//! back to a rebuild, so exhaustion is recoverable and — for a fixed
//! operation sequence at one thread — deterministic. Work is metered
//! under `queries.incr.*` and traced as `datalog.incr.*` spans around
//! the driver's `datalog.init` / `datalog.round` spans.

use crate::datalog::{head_idb, IdbStore, Pred, Program};
use crate::join::{self, Fixpoint, PlanKey};
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
    /// The fixpoint driver: one columnar extent per signature relation
    /// (indexed by `RelId.0`) and per IDB predicate, and the plans.
    fx: Fixpoint<Vec<IdbStore>>,
    /// Rule indices grouped by head IDB (the rederivation worklist).
    rules_by_head: Vec<Vec<usize>>,
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
        let edb = (program.signature().relations())
            .map(|(_, _, arity)| IdbStore::new(arity))
            .collect();
        let fx = Fixpoint::new(&program, edb, domain_size, 1, AT);
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

    /// The current extent of EDB relation `rel` (as of the last
    /// successful poll).
    pub fn edb(&self, rel: RelId) -> &TupleStore {
        &self.fx.edb[rel.0].store
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
        for r in self.fx.edb.iter_mut().chain(self.fx.idb.iter_mut()) {
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
        order: &[(RelId, Vec<Elem>)],
        last: &HashMap<(usize, Vec<Elem>), bool>,
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        OBS_REBUILDS.incr();
        stats.rebuilt = true;
        let edb = &mut self.fx.edb;
        for (rel, t) in order {
            if last[&(rel.0, t.clone())] {
                if edb[rel.0].store.push_if_new(t).is_some() {
                    stats.inserted += 1;
                }
            } else if edb[rel.0].store.remove(t).is_some() {
                stats.retracted += 1;
            }
        }
        for r in edb.iter_mut() {
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
            let present = self.fx.edb[rel.0].store.contains(t);
            if add && !present {
                to_insert.push((*rel, t.clone()));
            } else if !add && present {
                to_retract.push((*rel, t.clone()));
            }
        }

        let mut revived_delta: Vec<Vec<u32>> = vec![Vec::new(); self.fx.idb.len()];
        if !to_retract.is_empty() {
            let over = self.overdelete(&to_retract, budget, stats)?;
            self.rederive(&over, &mut revived_delta, budget, stats)?;
        }

        let mut edb_delta: Vec<Vec<u32>> = vec![Vec::new(); self.fx.edb.len()];
        if !to_insert.is_empty() {
            let span = fmt_obs::trace_span!("datalog.incr.insert", facts = to_insert.len());
            let edb = &mut self.fx.edb;
            for (rel, t) in &to_insert {
                if let Some(row) = edb[rel.0].store.push_if_new(t) {
                    edb_delta[rel.0].push(row);
                    stats.inserted += 1;
                }
            }
            for r in edb.iter_mut() {
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
        let (edb, idb) = (&self.fx.edb, &self.fx.idb);
        let mut edb_delta: Vec<Vec<u32>> = vec![Vec::new(); edb.len()];
        for (rel, t) in to_retract {
            let row = edb[rel.0]
                .store
                .find(t)
                .expect("to_retract holds present tuples");
            edb_delta[rel.0].push(row);
        }
        let mut over: Vec<Vec<u32>> = vec![Vec::new(); idb.len()];
        let mut marked: Vec<Vec<bool>> = idb
            .iter()
            .map(|r| vec![false; r.store.rows32() as usize])
            .collect();
        let mut idb_delta: Vec<Vec<u32>> = vec![Vec::new(); idb.len()];
        let rules = self.program.rules();
        loop {
            stats.rounds += 1;
            OBS_ROUNDS.incr();
            let jobs = join::delta_jobs(rules, 0..rules.len(), |p| match p {
                Pred::Edb(r) => edb_delta[r.0].as_slice(),
                Pred::Idb(j) => idb_delta[j].as_slice(),
            });
            if jobs.is_empty() {
                break;
            }
            let mut next_delta: Vec<Vec<u32>> = vec![Vec::new(); idb_delta.len()];
            for (rule, pos, driver) in jobs {
                let h = head_idb(&rules[rule]);
                let (marks, fresh) = (&mut marked[h], &mut next_delta[h]);
                let key = PlanKey::Driver { rule, pos };
                self.fx
                    .exec_with(key, driver, &[], budget, &mut |head, t| {
                        // Every emitted head had a derivation over the old
                        // extents, so it is in the old fixpoint; mark it
                        // for deletion once.
                        if let Some(row) = head.find(t) {
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
            if self.fx.edb[rel.0].store.remove(t).is_some() {
                stats.retracted += 1;
            }
        }
        for (j, rows) in over.iter().enumerate() {
            for &row in rows {
                self.fx.idb[j].store.remove_row(row);
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
                self.fx.idb[j].store.read_row_into(row, &mut tuple);
                let t = std::mem::take(&mut tuple);
                if self.derivable(j, &t, budget)? {
                    let revived = self.fx.idb[j]
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
        for &rule in &self.rules_by_head[idb] {
            // The first witness suffices: `emit` stops the join, and
            // the kernel reports the stop as `Ok(false)`.
            let key = PlanKey::Goal { rule };
            if !self.fx.exec_with(key, &[], t, budget, &mut |_, _| false)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Semi-naive propagation of the delta-rewritten program through
    /// the driver, from the EDB insertions and the revived IDB rows.
    fn propagate(
        &mut self,
        edb_delta: Vec<Vec<u32>>,
        idb_delta: Vec<Vec<u32>>,
        budget: &Budget,
        stats: &mut PollStats,
    ) -> BudgetResult<()> {
        let all: Vec<usize> = (0..self.program.rules().len()).collect();
        self.fx
            .saturate(&all, &edb_delta, idb_delta, budget, &mut |new, _| {
                stats.rounds += 1;
                OBS_ROUNDS.incr();
                stats.derived += new;
                OBS_DERIVED.add(new);
            })
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
