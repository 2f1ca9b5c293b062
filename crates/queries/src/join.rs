//! The join planner, the join kernel, the semi-naive round runner and
//! the fixpoint driver shared by every indexed Datalog evaluator (see
//! `docs/join-engine.md`):
//!
//! * batch evaluation ([`crate::datalog`]) runs each stratum, and each
//!   naive round, through a [`Fixpoint`] over the input structure;
//! * the incremental runtime ([`crate::incremental`]) runs its rebuild
//!   (the same stratum pass) and its propagation through a [`Fixpoint`]
//!   over its input, and its backward/forward retraction through
//!   [`Fixpoint::exec_with`] on the same plan cache;
//! * the magic-sets rewrite ([`crate::magic`]) takes its static SIP
//!   order from [`plan`] with no extents.
//!
//! Every caller reads the EDB through one [`Edb`]: a relation is read in
//! place from the input structure until its first update, and from an
//! owned columnar copy after. IDB extents are columnar [`IdbStore`]s.

use crate::datalog::{rule_num_vars, Atom, IdbStore, Pred, Program, Rule};
use fmt_structures::budget::{Budget, BudgetResult};
use fmt_structures::index::{self, ColumnIndex};
use fmt_structures::par::fan_out;
use fmt_structures::store::{self, TupleStore};
use fmt_structures::{Elem, RelId, Structure};
use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

/// Rule×delta applications run by [`Runner::run`], batch and runtime.
static OBS_PAR_JOBS: fmt_obs::Counter = fmt_obs::Counter::new("queries.datalog.parallel_jobs");
/// Per sharded job, the fill of the fullest driver shard as a
/// percentage of the ideal (perfectly balanced) shard size.
static OBS_SHARD_IMBALANCE: fmt_obs::Histogram =
    fmt_obs::Histogram::new("queries.datalog.shard_imbalance");

/// A round whose jobs drive fewer rows than this in total runs on the
/// calling thread: sharding and spawning only pay on big deltas.
const PAR_MIN_ROWS: usize = 512;

/// Bytes per stored element, for the `arena_bytes` span fields.
const ELEM_BYTES: usize = std::mem::size_of::<Elem>();

/// How one body atom is accessed by the join kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Access {
    /// The delta-driver atom: iterate the driver row ids.
    ScanDelta,
    /// No bound positions: iterate the full live extent.
    Scan,
    /// Hash-index probe on the given bound argument positions.
    Probe(Vec<usize>),
    /// A [`Access::Probe`] of a shared binary EDB relation on the one
    /// bound column `col`: the input structure's adjacency list of the
    /// bound value (out-neighbours for column 0, in-neighbours for
    /// column 1), an offset lookup with no search and no index build.
    /// Never produced by [`plan`]; [`Edb::prepare`] rewrites probes of
    /// a shared relation to this when a plan is made.
    Adjacent(usize),
    /// Any other [`Access::Probe`] on the bound prefix `0..k` of a
    /// shared EDB relation: binary prefix probe over its sorted rows,
    /// no index build. Rewritten like [`Access::Adjacent`].
    ProbePrefix(usize),
    /// Any other [`Access::Probe`] of a shared EDB relation: a probe of
    /// the hash index in the given slot of [`Edb`]'s index table.
    /// Rewritten like [`Access::Adjacent`].
    ProbeIndex(usize),
    /// Membership check of a fully bound atom: the instantiated tuple
    /// is looked up in the extent, with no index build. A positive atom
    /// passes when the tuple is present (a semijoin), a negated one when
    /// it is absent from the completed lower-stratum extent (an
    /// antijoin).
    Member,
}

/// One step of a rule plan: which body atom to join next, and how.
#[derive(Debug, Clone)]
pub(crate) struct Step {
    pub(crate) atom: usize,
    pub(crate) access: Access,
    /// The variables this step binds: those of its atom that neither
    /// the plan's pre-binding nor an earlier step binds (always empty
    /// for [`Access::Member`]). Backtracking unbinds exactly these,
    /// whatever the rule's variable count.
    pub(crate) fresh: Vec<u32>,
}

/// Greedy join order for one rule: the delta driver (if any) first,
/// then repeatedly the positive atom with the most bound argument
/// positions, breaking ties toward the smallest `extent_len`, then
/// written order. Variables marked in `pre_bound` count as bound from
/// the start (the head of a goal-directed join). Each chosen atom
/// records how it will be accessed given what is bound; one whose every
/// column is bound is a membership check. Negated atoms are placed, in
/// written order, as membership checks at the earliest step where every
/// one of their variables is bound — the soonest the check is decidable
/// is where it prunes most.
pub(crate) fn plan(
    rule: &Rule,
    driver: Option<usize>,
    pre_bound: &[bool],
    extent_len: &dyn Fn(&Atom) -> usize,
) -> Vec<Step> {
    let mut bound = vec![false; rule_num_vars(rule)];
    bound[..pre_bound.len()].copy_from_slice(pre_bound);
    let mut steps: Vec<Step> = Vec::with_capacity(rule.body.len());
    let (mut remaining, mut negs): (Vec<usize>, Vec<usize>) =
        (0..rule.body.len()).partition(|&i| !rule.body[i].negated);

    let take = |i: usize, access: Access, steps: &mut Vec<Step>, bound: &mut Vec<bool>| {
        let mut fresh = Vec::new();
        for &v in &rule.body[i].args {
            if !bound[v as usize] {
                bound[v as usize] = true;
                fresh.push(v);
            }
        }
        steps.push(Step {
            atom: i,
            access,
            fresh,
        });
    };
    let place_negs = |steps: &mut Vec<Step>, bound: &[bool], negs: &mut Vec<usize>| {
        negs.retain(|&i| {
            let ready = rule.body[i].args.iter().all(|&v| bound[v as usize]);
            if ready {
                steps.push(Step {
                    atom: i,
                    access: Access::Member,
                    fresh: Vec::new(),
                });
            }
            !ready
        });
    };

    // Negated atoms over pre-bound variables only (nullary ones,
    // typically) gate the whole rule — check them before any extent.
    place_negs(&mut steps, &bound, &mut negs);
    if let Some(d) = driver {
        take(d, Access::ScanDelta, &mut steps, &mut bound);
        remaining.retain(|&i| i != d);
        place_negs(&mut steps, &bound, &mut negs);
    }
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .max_by_key(|&i| {
                let atom = &rule.body[i];
                let bound_positions = atom.args.iter().filter(|&&v| bound[v as usize]).count();
                (
                    bound_positions,
                    std::cmp::Reverse(extent_len(atom)),
                    std::cmp::Reverse(i),
                )
            })
            .expect("remaining is nonempty");
        let atom = &rule.body[best];
        let key: Vec<usize> = (0..atom.args.len())
            .filter(|&p| bound[atom.args[p] as usize])
            .collect();
        let access = if key.is_empty() {
            Access::Scan
        } else if key.len() == atom.args.len() {
            Access::Member
        } else {
            Access::Probe(key)
        };
        take(best, access, &mut steps, &mut bound);
        remaining.retain(|&i| i != best);
        place_negs(&mut steps, &bound, &mut negs);
    }
    // Anything left is unsafe negation; every caller rejects it before
    // planning (`eval_strata`), but keep the plan total regardless.
    steps.extend(negs.into_iter().map(|i| Step {
        atom: i,
        access: Access::Member,
        fresh: Vec::new(),
    }));
    steps
}

/// The EDB a [`Fixpoint`] evaluates over: one extent per relation of
/// the input structure. A relation is *shared* until its first update:
/// the kernel reads the input in place ([`Edb::prepare`]). Then
/// [`Fixpoint::own_edb`] switches it to *owned*: a columnar, tombstoned
/// copy whose row ids are the runtime's deltas, made once and probed
/// through its `ColumnIndex`es like an IDB.
#[derive(Debug)]
pub(crate) struct Edb {
    /// The input structure: a clone sharing its relations and adjacency
    /// lists, with each owned relation emptied.
    pub(crate) input: Structure,
    /// Per relation (by `RelId.0`), its owned copy once it has one.
    pub(crate) copies: Vec<Option<IdbStore>>,
    /// The hash indexes of the plans' [`Access::ProbeIndex`] slots.
    pub(crate) slots: Vec<Arc<ColumnIndex>>,
}

impl Edb {
    fn new(input: &Structure) -> Edb {
        Edb {
            input: input.clone(),
            copies: input.signature().relations().map(|_| None).collect(),
            slots: Vec::new(),
        }
    }

    /// The owned copy of `r`, which an updated relation has.
    pub(crate) fn owned(&mut self, r: RelId) -> &mut IdbStore {
        self.copies[r.0].as_mut().expect("r is owned")
    }

    /// Every owned copy.
    pub(crate) fn stores_mut(&mut self) -> impl Iterator<Item = &mut IdbStore> {
        self.copies.iter_mut().flatten()
    }

    /// The live tuples of `r`.
    pub(crate) fn tuples(&self, r: RelId) -> Box<dyn Iterator<Item = Vec<Elem>> + '_> {
        match &self.copies[r.0] {
            Some(st) => Box::new(st.store.iter()),
            None => Box::new(self.input.rel(r).iter().map(<[Elem]>::to_vec)),
        }
    }

    /// The extent size [`plan`] breaks ties by.
    fn len(&self, r: RelId) -> usize {
        self.copies[r.0]
            .as_ref()
            .map_or(self.input.rel(r).len(), |st| st.store.len())
    }

    /// How the kernel serves a planned [`Access::Probe`] of `r` on
    /// `key`, with whatever index that needs prepared. An owned copy
    /// keeps the probe and indexes its store. On a shared relation, one
    /// bound column of a binary relation is served by the structure's
    /// adjacency lists ([`Access::Adjacent`]); any other bound prefix
    /// `0..k` needs no index either — the rows are sorted — so it
    /// becomes [`Access::ProbePrefix`]; every other key becomes an
    /// [`Access::ProbeIndex`] into the slot table.
    fn prepare(&mut self, r: RelId, key: &[usize]) -> Access {
        if let Some(st) = &mut self.copies[r.0] {
            st.ensure_index(key);
            return Access::Probe(key.to_vec());
        }
        if let [col] = *key {
            if self.input.has_adjacency(r) {
                return Access::Adjacent(col);
            }
        }
        if key.iter().enumerate().all(|(i, &p)| i == p) {
            return Access::ProbePrefix(key.len());
        }
        let idx = self.input.rel(r).index(key);
        let slot = self.slots.iter().position(|s| Arc::ptr_eq(s, &idx));
        Access::ProbeIndex(slot.unwrap_or_else(|| {
            self.slots.push(idx);
            self.slots.len() - 1
        }))
    }

    fn extent(&self, r: RelId) -> Extent<'_> {
        match &self.copies[r.0] {
            Some(st) => Extent::Columnar(st),
            None => Extent::Shared(&self.input, r, &self.slots),
        }
    }
}

/// The extent one body atom reads: a columnar store (an IDB, or an
/// owned EDB relation), or a shared relation of the input structure
/// with the EDB's index slots.
enum Extent<'a> {
    Columnar(&'a IdbStore),
    Shared(&'a Structure, RelId, &'a [Arc<ColumnIndex>]),
}

/// Everything the join kernel needs for one rule application. Each
/// worker builds its own; the plan and extents it borrows are shared
/// immutably across threads.
struct ExecCtx<'a> {
    rule: &'a Rule,
    plan: &'a [Step],
    edb: &'a Edb,
    idb: &'a [IdbStore],
    /// Row ids for the `ScanDelta` step, indexing into the driven
    /// predicate's store (a shard, or the whole delta).
    driver: &'a [u32],
    /// Unbound head variables range over `0..domain`.
    domain: u32,
    head_idb: usize,
    /// Budget tick site label of the calling engine.
    site: &'static str,
    /// Candidate tuples the kernel tried to bind during this rule
    /// application — the per-rule probe count reported on trace spans
    /// and by `fmtk datalog --explain`. A `Cell` because the kernel
    /// threads `&ExecCtx` immutably; each context lives on one thread.
    probes: Cell<u64>,
    /// Heap allocations the kernel's stack buffers spilled into (keys,
    /// prefixes, or head tuples wider than [`VAL_STACK`]); zero on the
    /// steady-state join loop, surfaced per rule for `--explain`.
    probe_allocs: Cell<u64>,
}

impl<'a> ExecCtx<'a> {
    /// A context emitting into the rule's head IDB, ticking `budget`
    /// under the calling engine's `site` label.
    fn new(
        rule: &'a Rule,
        plan: &'a [Step],
        edb: &'a Edb,
        idb: &'a [IdbStore],
        driver: &'a [u32],
        domain: u32,
        site: &'static str,
    ) -> ExecCtx<'a> {
        ExecCtx {
            rule,
            plan,
            edb,
            idb,
            driver,
            domain,
            head_idb: crate::datalog::head_idb(rule),
            site,
            probes: Cell::new(0),
            probe_allocs: Cell::new(0),
        }
    }

    /// Runs the whole plan from an empty binding; see [`exec`].
    fn run(&self, budget: &Budget, emit: &mut Emit<'_>) -> BudgetResult<bool> {
        exec(
            self,
            0,
            &mut vec![None; rule_num_vars(self.rule)],
            budget,
            emit,
        )
    }

    fn extent(&self, pred: Pred) -> Extent<'a> {
        match pred {
            Pred::Idb(j) => Extent::Columnar(&self.idb[j]),
            Pred::Edb(r) => self.edb.extent(r),
        }
    }
}

/// One value per rule variable, `None` while unbound.
pub(crate) type Binding = [Option<Elem>];

/// The kernel's sink: sees each head tuple with the binding of the rule
/// instance that emitted it, and returns `false` to stop the join.
type Emit<'a> = dyn FnMut(&[Elem], &Binding) -> bool + 'a;

/// Stack capacity for probe keys, prefixes, and head tuples — wide
/// enough for every realistic atom; wider tuples spill to the heap and
/// are counted in `queries.store.probe_allocs`.
const VAL_STACK: usize = 8;

/// Copies `n` values into `stack` (or `heap` when they don't fit) and
/// returns the filled slice — the zero-allocation buffer behind every
/// probe key and head emission in the kernel.
fn fill_slice<'b>(
    ctx: &ExecCtx<'_>,
    n: usize,
    vals: impl Iterator<Item = Elem>,
    stack: &'b mut [Elem; VAL_STACK],
    heap: &'b mut Vec<Elem>,
) -> &'b [Elem] {
    if n <= VAL_STACK {
        for (slot, v) in stack.iter_mut().zip(vals) {
            *slot = v;
        }
        &stack[..n]
    } else {
        ctx.probe_allocs.set(ctx.probe_allocs.get() + 1);
        store::note_probe_alloc();
        heap.extend(vals);
        heap
    }
}

/// Emits every instantiation of the head under the current binding;
/// unbound head variables range over the whole domain. `emit` sees the
/// head tuple and the complete binding of the rule instance. Returns
/// `Ok(false)` as soon as `emit` does; the binding is fully restored
/// before returning either way.
fn emit_head_unbound(
    ctx: &ExecCtx<'_>,
    binding: &mut [Option<Elem>],
    budget: &Budget,
    emit: &mut Emit<'_>,
) -> BudgetResult<bool> {
    fn rec(
        ctx: &ExecCtx<'_>,
        binding: &mut [Option<Elem>],
        unbound: &[u32],
        i: usize,
        budget: &Budget,
        emit: &mut Emit<'_>,
    ) -> BudgetResult<bool> {
        if i == unbound.len() {
            budget.tick(ctx.site)?;
            let head = &ctx.rule.head;
            let mut stack = [0; VAL_STACK];
            let mut heap = Vec::new();
            let t = fill_slice(
                ctx,
                head.args.len(),
                head.args
                    .iter()
                    .map(|&v| binding[v as usize].expect("head var bound")),
                &mut stack,
                &mut heap,
            );
            return Ok(emit(t, binding));
        }
        let mut result = Ok(true);
        for d in 0..ctx.domain {
            binding[unbound[i] as usize] = Some(d);
            result = rec(ctx, binding, unbound, i + 1, budget, emit);
            if !matches!(result, Ok(true)) {
                break;
            }
        }
        binding[unbound[i] as usize] = None;
        result
    }

    // Empty for range-restricted rules and goal plans, so the
    // steady-state path never allocates here (an empty
    // `filter().collect()` does not allocate).
    let mut unbound: Vec<u32> = ctx
        .rule
        .head
        .args
        .iter()
        .copied()
        .filter(|&v| binding[v as usize].is_none())
        .collect();
    unbound.sort_unstable();
    unbound.dedup();
    rec(ctx, binding, &unbound, 0, budget, emit)
}

/// Binds a candidate tuple — addressed by a column accessor, so row-id
/// and slice candidates share one path — against the atom at plan step
/// `step_i`, recursing into the next step on success. The binding is
/// fully restored before returning (also on a budget error) by
/// unbinding the step's [`Step::fresh`] variables.
fn try_candidate(
    ctx: &ExecCtx<'_>,
    step_i: usize,
    get: impl Fn(usize) -> Elem,
    binding: &mut [Option<Elem>],
    budget: &Budget,
    emit: &mut Emit<'_>,
) -> BudgetResult<bool> {
    ctx.probes.set(ctx.probes.get() + 1);
    let step = &ctx.plan[step_i];
    let mut ok = true;
    for (i, &v) in ctx.rule.body[step.atom].args.iter().enumerate() {
        let e = get(i);
        match binding[v as usize] {
            Some(b) if b != e => {
                ok = false;
                break;
            }
            Some(_) => {}
            None => binding[v as usize] = Some(e),
        }
    }
    let result = if ok {
        exec(ctx, step_i + 1, binding, budget, emit)
    } else {
        Ok(true)
    };
    for &v in &step.fresh {
        binding[v as usize] = None;
    }
    result
}

/// The join kernel: runs plan step `step_i` under the current binding,
/// emitting head instantiations once every step is satisfied. Ticks
/// the budget once per step entered. Candidates are walked as row ids
/// over columnar stores (skipping tombstoned rows), as sorted-row
/// slices of a shared relation, or as a bound value and its adjacency
/// list — no path
/// materializes a tuple or a probe key on the heap. `emit` returns
/// `false` to stop the whole join (the runtime's proof search wants one
/// witness), which the kernel forwards as `Ok(false)`.
fn exec(
    ctx: &ExecCtx<'_>,
    step_i: usize,
    binding: &mut [Option<Elem>],
    budget: &Budget,
    emit: &mut Emit<'_>,
) -> BudgetResult<bool> {
    budget.tick(ctx.site)?;
    if step_i == ctx.plan.len() {
        return emit_head_unbound(ctx, binding, budget, emit);
    }
    let step = &ctx.plan[step_i];
    let atom = &ctx.rule.body[step.atom];
    let bound = |p: usize| binding[atom.args[p] as usize].expect("planned position is bound");
    let mut stack = [0; VAL_STACK];
    let mut heap = Vec::new();
    match (&step.access, ctx.extent(atom.pred)) {
        (Access::Member, extent) => {
            // The planner placed this step only once every argument
            // was bound, so one membership probe decides the subtree.
            ctx.probes.set(ctx.probes.get() + 1);
            let n = atom.args.len();
            let t = fill_slice(ctx, n, (0..n).map(bound), &mut stack, &mut heap);
            let present = match extent {
                Extent::Columnar(ext) => ext.store.contains(t),
                Extent::Shared(s, r, _) => index::probe_prefix(s.rel(r), t).next().is_some(),
            };
            if present != atom.negated {
                return exec(ctx, step_i + 1, binding, budget, emit);
            }
        }
        (Access::ScanDelta, Extent::Columnar(ext)) => {
            index::note_scan(ctx.driver.len() as u64);
            let st = &ext.store;
            for &row in ctx.driver {
                if !try_candidate(ctx, step_i, |p| st.value(row, p), binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (Access::Scan, Extent::Columnar(ext)) => {
            let st = &ext.store;
            index::note_scan(st.len() as u64);
            for row in (0..st.rows32()).filter(|&row| st.is_live(row)) {
                if !try_candidate(ctx, step_i, |p| st.value(row, p), binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (Access::Probe(key), Extent::Columnar(ext)) => {
            let kv = fill_slice(
                ctx,
                key.len(),
                key.iter().map(|&p| bound(p)),
                &mut stack,
                &mut heap,
            );
            let st = &ext.store;
            for row in ext.index(key).probe(st, kv) {
                if !try_candidate(ctx, step_i, |p| st.value(row, p), binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (Access::Scan, Extent::Shared(s, r, _)) => {
            let rel = s.rel(r);
            index::note_scan(rel.len() as u64);
            for t in rel.iter() {
                if !try_candidate(ctx, step_i, |p| t[p], binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (&Access::Adjacent(col), Extent::Shared(s, r, _)) => {
            // Adjacency lists are sorted, so candidates come in the
            // relation's row order, as from a prefix or index probe.
            let u = bound(col);
            let ws = if col == 0 {
                s.out_neighbors(r, u)
            } else {
                s.in_neighbors(r, u)
            };
            index::note_probe(ws.len() as u64);
            for &w in ws {
                let get = |p| if p == col { u } else { w };
                if !try_candidate(ctx, step_i, get, binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (Access::ProbePrefix(k), Extent::Shared(s, r, _)) => {
            let prefix = fill_slice(ctx, *k, (0..*k).map(bound), &mut stack, &mut heap);
            for t in index::probe_prefix(s.rel(r), prefix) {
                if !try_candidate(ctx, step_i, |p| t[p], binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (Access::ProbeIndex(slot), Extent::Shared(s, r, indexes)) => {
            let (rel, idx) = (s.rel(r), &indexes[*slot]);
            let key = idx.key();
            let kv = fill_slice(
                ctx,
                key.len(),
                key.iter().map(|&p| bound(p)),
                &mut stack,
                &mut heap,
            );
            for id in idx.probe(rel, kv) {
                let t = rel.row(id as usize);
                if !try_candidate(ctx, step_i, |p| t[p], binding, budget, emit)? {
                    return Ok(false);
                }
            }
        }
        (Access::ScanDelta, Extent::Shared(..)) => {
            unreachable!("delta drivers are IDB atoms or owned EDB relations")
        }
        (Access::Probe(_), Extent::Shared(..)) => {
            unreachable!("probes of shared relations become adjacency, prefix or slot probes")
        }
        (
            Access::Adjacent(_) | Access::ProbePrefix(_) | Access::ProbeIndex(_),
            Extent::Columnar(_),
        ) => {
            unreachable!("adjacency, prefix and slot probes are planned for shared relations only")
        }
    }
    Ok(true)
}

/// One rule application of a semi-naive round: rule `rule` of the
/// [`Runner`]'s rules under `plan`, with body atom `pos` iterating the
/// `driver` rows (`pos: None`: a driverless pass over full extents).
struct Job<'a> {
    rule: usize,
    pos: Option<usize>,
    plan: &'a [Step],
    driver: &'a [u32],
}

/// Every `(rule, body position, driver rows)` among `rules_in` whose
/// positive atom has a nonempty delta: the delta-driven jobs of one
/// semi-naive round, in rule and position order.
pub(crate) fn delta_jobs<'d>(
    rules: &[Rule],
    rules_in: impl IntoIterator<Item = usize>,
    delta: impl Fn(Pred) -> &'d [u32],
) -> Vec<(usize, usize, &'d [u32])> {
    let mut jobs = Vec::new();
    for ri in rules_in {
        for (pos, atom) in rules[ri].body.iter().enumerate() {
            let rows = delta(atom.pred);
            if !atom.negated && !rows.is_empty() {
                jobs.push((ri, pos, rows));
            }
        }
    }
    jobs
}

/// Derived tuples one worker staged: flat per-IDB buffers (the counts
/// carry nullary facts, whose rows occupy no bytes) and the number of
/// emissions, duplicates included.
struct Staged {
    bufs: Vec<Vec<Elem>>,
    counts: Vec<usize>,
    derivations: u64,
}

/// The round runner of one [`Fixpoint`]: the rules, domain, worker
/// count and budget site all of its rounds share.
#[derive(Debug)]
pub(crate) struct Runner {
    pub(crate) rules: Arc<[Rule]>,
    /// Unbound head variables range over `0..domain`.
    pub(crate) domain: u32,
    pub(crate) threads: usize,
    /// Budget tick site label of the calling engine.
    pub(crate) site: &'static str,
}

impl Runner {
    /// Runs `jobs` and merges what they derive into `idb`; returns the
    /// rows each IDB gained (appended or revived, in merge order) and
    /// the number of derivations. Every job reads the extents as they
    /// were before the round. A round driving fewer than
    /// [`PAR_MIN_ROWS`] rows runs on the calling thread; a bigger one
    /// splits each job's driver rows into one shard per thread by an
    /// FNV hash of the row, fanned out over scoped workers. Workers
    /// stage every emission unfiltered (the merge's `push_if_new` is
    /// its one hash), and the stores take them in item order, so the
    /// result is the same at any thread count. `round` labels the
    /// `datalog.rule` spans.
    fn run(
        &self,
        round: usize,
        edb: &Edb,
        jobs: &[Job<'_>],
        idb: &mut [IdbStore],
        budget: &Budget,
    ) -> BudgetResult<(Vec<Vec<u32>>, u64)> {
        let join_span = fmt_obs::trace_span!("datalog.join", jobs = jobs.len());
        OBS_PAR_JOBS.add(jobs.iter().filter(|j| j.pos.is_some()).count() as u64);
        let rows: usize = jobs.iter().map(|j| j.driver.len()).sum();
        let workers = if rows < PAR_MIN_ROWS { 1 } else { self.threads };
        let mut items: Vec<(usize, Cow<'_, [u32]>)> = Vec::new();
        for (ji, job) in jobs.iter().enumerate() {
            let Some(pos) = job.pos.filter(|_| workers > 1) else {
                items.push((ji, Cow::Borrowed(job.driver)));
                continue;
            };
            let st = match self.rules[job.rule].body[pos].pred {
                Pred::Idb(j) => &idb[j],
                Pred::Edb(r) => edb.copies[r.0].as_ref().expect("EDB drivers are owned"),
            };
            // Row hashes balance the shards: an even share plus 1/8.
            let per_shard = job.driver.len() / workers * 9 / 8 + 1;
            let mut shards: Vec<Vec<u32>> = vec![Vec::with_capacity(per_shard); workers];
            for &row in job.driver {
                shards[(st.store.row_hash(row) % workers as u64) as usize].push(row);
            }
            let ideal = job.driver.len().div_ceil(workers).max(1);
            let fullest = shards.iter().map(Vec::len).max().unwrap_or(0);
            OBS_SHARD_IMBALANCE.record((fullest * 100 / ideal) as u64);
            items.extend(
                shards
                    .into_iter()
                    .filter(|sh| !sh.is_empty())
                    .map(|sh| (ji, Cow::Owned(sh))),
            );
        }
        let frozen: &[IdbStore] = idb;
        let results = fan_out(workers, &items, |chunk| {
            self.stage(round, edb, jobs, chunk, frozen, budget)
        });
        drop((items, join_span));

        let dedup_span = fmt_obs::trace_span!("datalog.dedup");
        // Sized once from the staged counts, not grown by doubling.
        let mut new_rows: Vec<Vec<u32>> = (0..idb.len())
            .map(|j| {
                let staged = results.iter().flatten().map(|st| st.counts[j]).sum();
                Vec::with_capacity(staged)
            })
            .collect();
        let mut derivations = 0u64;
        for result in results {
            let staged = result?;
            derivations += staged.derivations;
            for (j, (buf, &n)) in staged.bufs.iter().zip(&staged.counts).enumerate() {
                let a = idb[j].store.arity();
                for i in 0..n {
                    if let Some(row) = idb[j].store.push_if_new(&buf[i * a..(i + 1) * a]) {
                        new_rows[j].push(row);
                    }
                }
            }
        }
        drop(dedup_span);
        let _merge_span = fmt_obs::trace_span!("datalog.merge");
        for r in idb.iter_mut() {
            r.extend_indexes();
        }
        Ok((new_rows, derivations))
    }

    /// One worker's share of a round: runs its items' jobs over the
    /// frozen stores, staging every emission.
    fn stage(
        &self,
        round: usize,
        edb: &Edb,
        jobs: &[Job<'_>],
        items: &[(usize, Cow<'_, [u32]>)],
        idb: &[IdbStore],
        budget: &Budget,
    ) -> BudgetResult<Staged> {
        let mut staged = Staged {
            bufs: vec![Vec::new(); idb.len()],
            counts: vec![0; idb.len()],
            derivations: 0,
        };
        for (ji, driver) in items {
            let job = &jobs[*ji];
            let mut span = fmt_obs::trace_span!("datalog.rule", rule = job.rule, round = round);
            if let Some(pos) = job.pos {
                span.record_field("pos", pos);
                span.record_field("tuples", driver.len());
            }
            let rule = &self.rules[job.rule];
            let ctx = ExecCtx::new(rule, job.plan, edb, idb, driver, self.domain, self.site);
            let staged0: usize = staged.bufs.iter().map(Vec::len).sum();
            let mut derived = 0u64;
            let h = ctx.head_idb;
            ctx.run(budget, &mut |t, _| {
                derived += 1;
                staged.bufs[h].extend_from_slice(t);
                staged.counts[h] += 1;
                true
            })?;
            staged.derivations += derived;
            let bytes = (staged.bufs.iter().map(Vec::len).sum::<usize>() - staged0) * ELEM_BYTES;
            span.record_field("probes", ctx.probes.get());
            span.record_field("derived", derived);
            span.record_field("probe_allocs", ctx.probe_allocs.get());
            span.record_field("arena_bytes", bytes as u64);
        }
        Ok(staged)
    }
}

/// The sink of [`Fixpoint::exec_with`]: sees the IDB stores, each head
/// tuple and the binding of its rule instance, and returns `false` to
/// stop the join.
pub(crate) type InstanceSink<'a> = dyn FnMut(&[IdbStore], &[Elem], &Binding) -> bool + 'a;

/// Key of the [`Fixpoint`] plan cache. Driverless passes are not
/// cached: they plan afresh on the extents they start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PlanKey {
    /// Delta-driven: body position `pos` iterates the delta rows.
    Driver { rule: usize, pos: usize },
    /// No driver, head variables pre-bound: the runtime's backward
    /// proof search.
    Goal { rule: usize },
}

/// A plan of a [`Fixpoint`]'s cache and its rule, resolved once by
/// [`Fixpoint::resolve`] so that a caller running it many times skips
/// the cache lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanRef {
    plan: usize,
    rule: usize,
}

/// The fixpoint driver of one batch evaluation or one incremental
/// runtime: the EDB, the IDB stores, and one plan cache. A cached plan
/// is made on first sight, and every index it probes is prepared then;
/// after that, every path that adds rows catches the indexes up (the
/// round merge, and the runtime's EDB insertions).
#[derive(Debug)]
pub(crate) struct Fixpoint {
    pub(crate) runner: Runner,
    pub(crate) edb: Edb,
    pub(crate) idb: Vec<IdbStore>,
    plans: Vec<Vec<Step>>,
    plan_of: HashMap<PlanKey, usize>,
    /// Rounds run so far; labels the `datalog.rule` spans.
    round: usize,
}

impl Fixpoint {
    /// A driver for `program` over `input`, every relation shared, with
    /// empty IDB stores; unbound head variables range over the input's
    /// domain.
    pub(crate) fn new(
        program: &Program,
        input: &Structure,
        threads: usize,
        site: &'static str,
    ) -> Fixpoint {
        Fixpoint {
            runner: Runner {
                rules: Arc::clone(&program.rules),
                domain: input.size(),
                threads,
                site,
            },
            edb: Edb::new(input),
            idb: program.new_store(),
            plans: Vec::new(),
            plan_of: HashMap::new(),
            round: 0,
        }
    }

    /// Empties the IDB stores, dropping the cached plans with them
    /// (their indexes lived in the old stores).
    pub(crate) fn restart(&mut self) {
        for r in &mut self.idb {
            *r = IdbStore::new(r.store.arity());
        }
        self.drop_plans();
        self.round = 0;
    }

    /// Switches EDB relation `r` to its owned copy, made once from the
    /// input on the first call, which empties `r` in the input clone so
    /// that the runtime holds one copy of it. The cached plans were
    /// made for the shared relation, so a switch drops them: no
    /// [`PlanRef`] resolved before it may run after it.
    pub(crate) fn own_edb(&mut self, r: RelId) {
        if self.edb.copies[r.0].is_none() {
            let store = TupleStore::from_relation(self.edb.input.rel(r));
            self.edb.input.clear_relation(r);
            self.edb.copies[r.0] = Some(IdbStore {
                store,
                indexes: Vec::new(),
            });
            self.drop_plans();
        }
    }

    fn drop_plans(&mut self) {
        self.plans.clear();
        self.plan_of.clear();
        self.edb.slots.clear();
    }

    /// The cached plan of `key`, made on first sight.
    fn plan(&mut self, key: PlanKey) -> usize {
        if let Some(&pi) = self.plan_of.get(&key) {
            return pi;
        }
        let plan = match key {
            PlanKey::Driver { rule, pos } => self.make_plan(rule, Some(pos), false),
            PlanKey::Goal { rule } => self.make_plan(rule, None, true),
        };
        self.plans.push(plan);
        self.plan_of.insert(key, self.plans.len() - 1);
        self.plans.len() - 1
    }

    /// A plan of rule `ri` on the current extents (its head pre-bound
    /// for a `goal`), with every index it probes prepared.
    fn make_plan(&mut self, ri: usize, driver: Option<usize>, goal: bool) -> Vec<Step> {
        let rule = &self.runner.rules[ri];
        let pre_bound: Vec<bool> = (0..rule_num_vars(rule) as u32)
            .map(|v| goal && rule.head.args.contains(&v))
            .collect();
        let (edb, idb) = (&self.edb, &self.idb);
        let mut steps = plan(rule, driver, &pre_bound, &|a| match a.pred {
            Pred::Edb(r) => edb.len(r),
            Pred::Idb(j) => idb[j].store.len(),
        });
        for step in &mut steps {
            let Access::Probe(key) = &step.access else {
                continue;
            };
            match rule.body[step.atom].pred {
                Pred::Edb(r) => step.access = self.edb.prepare(r, key),
                Pred::Idb(j) => self.idb[j].ensure_index(key),
            }
        }
        steps
    }

    /// One driverless round over the full extents: every rule of
    /// `rules_in`, planned afresh — a stratum's initialization pass,
    /// and each naive round. Returns the rows each IDB gained and the
    /// number of derivations.
    pub(crate) fn pass(
        &mut self,
        rules_in: &[usize],
        budget: &Budget,
    ) -> BudgetResult<(Vec<Vec<u32>>, u64)> {
        self.round += 1;
        let plans: Vec<Vec<Step>> = rules_in
            .iter()
            .map(|&ri| self.make_plan(ri, None, false))
            .collect();
        let jobs: Vec<Job> = rules_in
            .iter()
            .zip(&plans)
            .map(|(&rule, plan)| Job {
                rule,
                pos: None,
                plan,
                driver: &[],
            })
            .collect();
        self.runner
            .run(self.round, &self.edb, &jobs, &mut self.idb, budget)
    }

    /// One stratum to its fixpoint: the initialization pass, then
    /// semi-naive rounds from the rows it derived. `on_round` sees the
    /// new facts and derivations of the pass and of every round.
    pub(crate) fn stratum(
        &mut self,
        rules_in: &[usize],
        budget: &Budget,
        on_round: &mut dyn FnMut(u64, u64),
    ) -> BudgetResult<()> {
        let init_span = fmt_obs::trace_span!("datalog.init");
        let (delta, derived) = self.pass(rules_in, budget)?;
        drop(init_span);
        on_round(delta.iter().map(Vec::len).sum::<usize>() as u64, derived);
        self.saturate(rules_in, &[], delta, budget, on_round)
    }

    /// Semi-naive rounds over `rules_in` until no delta is left, from
    /// the given EDB and IDB deltas (the EDB deltas drive the first
    /// round only). Each round runs one job per (rule, positive body
    /// position) whose predicate has a delta; the rows it adds are the
    /// next round's delta. `on_round` sees each round's new facts and
    /// derivations.
    pub(crate) fn saturate(
        &mut self,
        rules_in: &[usize],
        mut edb_delta: &[Vec<u32>],
        mut idb_delta: Vec<Vec<u32>>,
        budget: &Budget,
        on_round: &mut dyn FnMut(u64, u64),
    ) -> BudgetResult<()> {
        loop {
            let total: usize = edb_delta.iter().chain(&idb_delta).map(Vec::len).sum();
            if total == 0 {
                return Ok(());
            }
            self.round += 1;
            let mut round_span =
                fmt_obs::trace_span!("datalog.round", round = self.round, delta = total);
            let plan_span = fmt_obs::trace_span!("datalog.plan");
            let keys = delta_jobs(&self.runner.rules, rules_in.iter().copied(), |p| match p {
                Pred::Edb(r) => edb_delta.get(r.0).map_or(&[][..], Vec::as_slice),
                Pred::Idb(j) => idb_delta[j].as_slice(),
            });
            let pis: Vec<usize> = keys
                .iter()
                .map(|&(rule, pos, _)| self.plan(PlanKey::Driver { rule, pos }))
                .collect();
            let jobs: Vec<Job> = keys
                .iter()
                .zip(&pis)
                .map(|(&(rule, pos, driver), &pi)| Job {
                    rule,
                    pos: Some(pos),
                    plan: &self.plans[pi],
                    driver,
                })
                .collect();
            drop(plan_span);
            let (new, derived) =
                self.runner
                    .run(self.round, &self.edb, &jobs, &mut self.idb, budget)?;
            let added = new.iter().map(Vec::len).sum::<usize>() as u64;
            round_span.record_field("new", added);
            on_round(added, derived);
            edb_delta = &[];
            idb_delta = new;
        }
    }

    /// `key`'s cached plan, for [`Fixpoint::exec_with`]; valid until
    /// the next [`Fixpoint::restart`].
    pub(crate) fn resolve(&mut self, key: PlanKey) -> PlanRef {
        let (PlanKey::Driver { rule, .. } | PlanKey::Goal { rule }) = key;
        PlanRef {
            plan: self.plan(key),
            rule,
        }
    }

    /// Runs one rule application of `plan` with its head bound to
    /// `head` (empty for a [`PlanKey::Driver`] plan) and `driver` as
    /// the delta rows, sending each emission to `emit` instead of
    /// merging it, with the binding the caller reads the instance's
    /// body facts from. Returns `Ok(false)` as soon as `emit` does, and
    /// `Ok(true)` at once when the rule's head cannot take the values
    /// `head`.
    pub(crate) fn exec_with(
        &self,
        plan: PlanRef,
        driver: &[u32],
        head: &[Elem],
        budget: &Budget,
        emit: &mut InstanceSink<'_>,
    ) -> BudgetResult<bool> {
        let rule = &self.runner.rules[plan.rule];
        // The runtime calls this once per fact it checks, so the binding
        // lives on the stack unless the rule is unusually wide.
        let n = rule_num_vars(rule);
        let mut stack = [None; 2 * VAL_STACK];
        let mut heap = Vec::new();
        let binding = if n <= stack.len() {
            &mut stack[..n]
        } else {
            heap.resize(n, None);
            &mut heap[..]
        };
        for (&v, &e) in rule.head.args.iter().zip(head) {
            match binding[v as usize] {
                Some(b) if b != e => return Ok(true),
                _ => binding[v as usize] = Some(e),
            }
        }
        let (domain, site) = (self.runner.domain, self.runner.site);
        let (edb, idb) = (&self.edb, &self.idb);
        let ctx = ExecCtx::new(rule, &self.plans[plan.plan], edb, idb, driver, domain, site);
        exec(&ctx, 0, binding, budget, &mut |t, b| emit(idb, t, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog::Program;
    use fmt_structures::{builders, Signature, StructureBuilder};

    /// The `fresh` invariants the kernel's rollback relies on: the lists
    /// are pairwise disjoint and disjoint from the pre-binding, together
    /// with it they cover every variable of a positive body atom, and
    /// anti-join checks bind nothing.
    fn assert_fresh_partition(rule: &Rule, pre_bound: &[bool], plan: &[Step]) {
        let mut bound = vec![false; rule_num_vars(rule)];
        bound[..pre_bound.len()].copy_from_slice(pre_bound);
        for step in plan {
            if step.access == Access::Member {
                assert!(step.fresh.is_empty(), "{plan:?}");
            }
            for &v in &step.fresh {
                assert!(!bound[v as usize], "variable {v} bound twice: {plan:?}");
                bound[v as usize] = true;
            }
        }
        for atom in rule.body.iter().filter(|a| !a.negated) {
            for &v in &atom.args {
                assert!(bound[v as usize], "variable {v} never bound: {plan:?}");
            }
        }
    }

    fn parse_rule(src: &str) -> Rule {
        let prog = Program::parse(&Signature::graph(), src).unwrap();
        prog.rules()[0].clone()
    }

    fn head_bound(rule: &Rule) -> Vec<bool> {
        let mut pre_bound = vec![false; rule_num_vars(rule)];
        for &v in &rule.head.args {
            pre_bound[v as usize] = true;
        }
        pre_bound
    }

    #[test]
    fn fresh_lists_partition_the_rule_variables() {
        let extent = |a: &Atom| a.args.len();
        // Repeated variables within and across atoms, and a negated
        // atom, under every driver.
        let rule = parse_rule("q(x, z) :- e(x, x), q(x, y), !e(y, y), e(y, z), e(z, z).");
        for driver in [None, Some(0), Some(1), Some(3)] {
            let steps = plan(&rule, driver, &[], &extent);
            assert_eq!(steps.len(), rule.body.len());
            assert_fresh_partition(&rule, &[], &steps);
        }
        // A goal plan: the head is pre-bound, so no step re-binds it.
        let rule = parse_rule("sg(x, y) :- e(xp, x), e(yp, y), sg(xp, yp).");
        let pre_bound = head_bound(&rule);
        let steps = plan(&rule, None, &pre_bound, &extent);
        assert_fresh_partition(&rule, &pre_bound, &steps);
        assert!(steps
            .iter()
            .all(|s| s.fresh.iter().all(|&v| !pre_bound[v as usize])));
        // The 131-variable chain rule, past any fixed-width mask.
        let body: Vec<String> = (0..130).map(|i| format!("e(x{i}, x{})", i + 1)).collect();
        let rule = parse_rule(&format!("p(x0, x130) :- {}.", body.join(", ")));
        assert_eq!(rule_num_vars(&rule), 131);
        for (driver, pre_bound) in [
            (None, Vec::new()),
            (Some(65), Vec::new()),
            (None, head_bound(&rule)),
        ] {
            let steps = plan(&rule, driver, &pre_bound, &extent);
            assert_fresh_partition(&rule, &pre_bound, &steps);
        }
    }

    #[test]
    fn constant_extents_order_by_bound_positions_then_written_order() {
        // With every extent equal, the tie-break is most bound
        // positions, then earliest written — the magic rewrite's SIP.
        let rule = parse_rule("p(x, w) :- e(y, z), e(x, y), !e(z, z), e(z, w).");
        let mut pre_bound = vec![false; rule_num_vars(&rule)];
        pre_bound[0] = true; // x
        let order: Vec<usize> = plan(&rule, None, &pre_bound, &|_| 0)
            .iter()
            .map(|s| s.atom)
            .collect();
        assert_eq!(order, vec![1, 0, 2, 3]);
    }

    #[test]
    fn fixpoint_plans_prepare_each_probe_on_its_own_relation() {
        // sg with the delta at position 2: the driver binds xp and yp,
        // so each edge atom probes the binary edge relation on its first
        // column, which the structure's out-neighbour lists serve.
        let prog = Program::same_generation();
        let s = builders::full_binary_tree(3);
        let mut fx = Fixpoint::new(&prog, &s, 1, "test");
        let pi = fx.plan(PlanKey::Driver { rule: 1, pos: 2 });
        assert_eq!(fx.plans[pi][0].access, Access::ScanDelta);
        for step in &fx.plans[pi][1..] {
            assert_eq!(step.access, Access::Adjacent(0), "{:?}", fx.plans[pi]);
        }
        // tc with the delta at position 1 binds y, the second column of
        // e(x, y): the in-neighbour lists serve it, and no slot is taken.
        let prog = Program::transitive_closure();
        let mut fx = Fixpoint::new(&prog, &s, 1, "test");
        let pi = fx.plan(PlanKey::Driver { rule: 1, pos: 1 });
        assert_eq!(fx.plans[pi][1].access, Access::Adjacent(1));
        assert!(fx.edb.slots.is_empty());
        // A ternary relation has no adjacency lists: a bound prefix is a
        // prefix probe, and a non-prefix key probes a slot holding the
        // relation's own index on that key. A binary atom with both
        // columns bound is a membership check.
        let sig = Signature::builder()
            .relation("E", 2)
            .relation("T", 3)
            .finish_arc();
        let prog = Program::parse(
            &sig,
            "f(x, z) :- t(x, l, y), f(y, z). \
             g(x, z) :- g(x, y), t(y, l, z). \
             h(x, y) :- h(x, y), e(x, y).",
        )
        .unwrap();
        let t = sig.relation("T").unwrap();
        let mut b = StructureBuilder::new(Arc::clone(&sig), 4);
        for i in 0..3 {
            b.add(t, &[i, 0, i + 1]).unwrap();
        }
        let s = b.build().unwrap();
        let mut fx = Fixpoint::new(&prog, &s, 1, "test");
        let pi = fx.plan(PlanKey::Driver { rule: 0, pos: 1 });
        let Access::ProbeIndex(slot) = fx.plans[pi][1].access else {
            panic!("t atom not an index probe: {:?}", fx.plans[pi]);
        };
        assert!(Arc::ptr_eq(&fx.edb.slots[slot], &s.rel(t).index(&[2])));
        let pi = fx.plan(PlanKey::Driver { rule: 1, pos: 0 });
        assert_eq!(fx.plans[pi][1].access, Access::ProbePrefix(1));
        let pi = fx.plan(PlanKey::Driver { rule: 2, pos: 0 });
        assert_eq!(fx.plans[pi][1].access, Access::Member);
        // A goal plan binds the head first. Over the empty `e` both
        // edge atoms come first and bind the whole sg atom, which is
        // then a membership check: no index is built over sg.
        let prog = Program::same_generation();
        let mut fx = Fixpoint::new(&prog, &s, 1, "test");
        let pi = fx.plan(PlanKey::Goal { rule: 1 });
        let step = fx.plans[pi].iter().find(|st| st.atom == 2).unwrap();
        assert_eq!(step.access, Access::Member, "{:?}", fx.plans[pi]);
        assert!(fx.idb[0].indexes.is_empty());
        // Once `e` is owned, its probes are hash-index probes of the
        // copy, whose index exists as soon as the plan is made.
        fx.own_edb(RelId(0));
        let pi = fx.plan(PlanKey::Goal { rule: 1 });
        let Access::Probe(key) = &fx.plans[pi][0].access else {
            panic!("e atom not a probe: {:?}", fx.plans[pi]);
        };
        let e = fx.edb.owned(RelId(0));
        assert!(e.indexes.iter().any(|idx| idx.key() == key));
    }
}
