//! Hierarchical structured tracing: spans, an event journal, exporters.
//!
//! The metrics in the crate root answer *how much* (counters,
//! histograms); this module answers *where and when*. A [`SpanGuard`]
//! marks a region of work; spans nest through a thread-local stack, so
//! a rule-application span recorded inside a round span inside an
//! evaluation span carries its full ancestry. Finished spans land in a
//! lock-sharded, bounded, global journal; [`stop`] drains it into a
//! [`Trace`] that can be exported as Chrome trace-event JSON (opens in
//! Perfetto or `chrome://tracing`) or folded-stack text (pipes into
//! `flamegraph.pl` / speedscope).
//!
//! Work that hops threads keeps its ancestry explicitly: capture
//! [`current_parent`] before spawning and re-install it in the worker
//! with [`with_parent`]. `fmt_structures::par::fan_out` does this
//! automatically, so engine code that parallelizes through `fan_out`
//! needs no extra plumbing.
//!
//! Tracing is off by default. The [`trace_span!`](crate::trace_span)
//! and [`trace_instant!`](crate::trace_instant) macros check
//! [`enabled`] — one relaxed atomic load — before evaluating any field
//! expression, so instrumented hot paths cost almost nothing when no
//! trace is being recorded.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::{json_escape, lock};

/// Journal shard count. Sharded by thread lane, so concurrent workers
/// rarely contend on the same mutex.
const SHARDS: usize = 16;

/// Default journal capacity (events). Roughly 100 bytes/event, so the
/// default bounds the journal near 100 MiB — far above any bench run,
/// but a hard stop against a runaway loop with tracing left on.
const DEFAULT_CAPACITY: u64 = 1 << 20;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_CAPACITY);
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);
static JOURNAL: [Mutex<Vec<Rec>>; SHARDS] = [const { Mutex::new(Vec::new()) }; SHARDS];

thread_local! {
    /// Innermost open span on this thread (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// Lazily-assigned display lane (Chrome `tid`) for this thread.
    static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
}

fn lane() -> u64 {
    LANE.with(|l| {
        if l.get() == u64::MAX {
            l.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        l.get()
    })
}

/// `true` while a trace is being recorded. One relaxed atomic load —
/// the only tracing cost paid on hot paths when recording is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording: clears the journal and drop counters, pins the
/// trace epoch (timestamps are nanoseconds since this instant), and
/// enables span capture. Spans already open keep working as parents
/// but were not themselves recorded.
pub fn start() {
    let mut epoch = lock(&EPOCH);
    for shard in &JOURNAL {
        lock(shard).clear();
    }
    COUNT.store(0, Ordering::SeqCst);
    DROPPED.store(0, Ordering::SeqCst);
    *epoch = Some(Instant::now());
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and drains the journal into a [`Trace`]. Spans
/// still open when `stop` runs are discarded (their guards see tracing
/// disabled at drop time).
pub fn stop() -> Trace {
    ENABLED.store(false, Ordering::SeqCst);
    let epoch = lock(&EPOCH).take();
    collect(epoch, true)
}

/// Snapshots the journal *without* stopping the recording or draining
/// events — the view a subcommand uses to analyze its own spans (e.g.
/// `fmtk datalog --explain`) while a `--trace` capture is still live.
pub fn peek() -> Trace {
    let epoch = *lock(&EPOCH);
    collect(epoch, false)
}

/// Caps the journal at `capacity` events; beyond it, new events are
/// counted in [`Trace::dropped`] instead of recorded. Applies from the
/// next [`start`].
pub fn set_capacity(capacity: u64) {
    CAPACITY.store(capacity, Ordering::SeqCst);
}

fn collect(epoch: Option<Instant>, drain: bool) -> Trace {
    let Some(epoch) = epoch else {
        return Trace {
            events: Vec::new(),
            dropped: 0,
        };
    };
    let mut events = Vec::new();
    for shard in &JOURNAL {
        let mut guard = lock(shard);
        let recs: Vec<Rec> = if drain {
            std::mem::take(&mut guard)
        } else {
            guard.clone()
        };
        drop(guard);
        for rec in recs {
            let ts_ns = rec
                .start
                .checked_duration_since(epoch)
                .map_or(0, |d| d.as_nanos() as u64);
            events.push(TraceEvent {
                id: rec.id,
                parent: rec.parent,
                lane: rec.lane,
                name: rec.name,
                ts_ns,
                dur_ns: rec.dur_ns,
                fields: rec.fields,
            });
        }
    }
    events.sort_by_key(|e| (e.ts_ns, e.id));
    Trace {
        events,
        dropped: DROPPED.load(Ordering::SeqCst),
    }
}

/// A finished span or instant event waiting in the journal. Times stay
/// as `Instant`s until drain so the hot path never does clock math.
#[derive(Debug, Clone)]
struct Rec {
    id: u64,
    parent: u64,
    lane: u64,
    name: &'static str,
    start: Instant,
    /// `Some(duration)` in nanoseconds for spans, `None` for instant
    /// events.
    dur_ns: Option<u64>,
    fields: Vec<(&'static str, FieldValue)>,
}

fn push(rec: Rec) {
    let n = COUNT.fetch_add(1, Ordering::Relaxed);
    if n >= CAPACITY.load(Ordering::Relaxed) {
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let shard = (rec.lane as usize) % SHARDS;
    lock(&JOURNAL[shard]).push(rec);
}

/// The value of a span field. Engines attach small facts — a rule
/// index, a delta size, a probe count — to the span that did the work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    /// An unsigned integer (counts, sizes, indices; `bool` maps to 0/1).
    U64(u64),
    /// A short label (engine name, budget resource, rule text).
    Str(String),
}

impl FieldValue {
    /// The integer payload, if this is a [`FieldValue::U64`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::Str(_) => None,
        }
    }

    /// The string payload, if this is a [`FieldValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::U64(_) => None,
            FieldValue::Str(s) => Some(s),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v.into())
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::U64(v.into())
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// RAII guard for an open span: created by
/// [`trace_span!`](crate::trace_span), records the span into the
/// journal when dropped. While the guard lives, spans opened on the
/// same thread (or under a propagated [`ParentHandle`]) become its
/// children.
#[must_use = "a span measures until its guard drops; an unbound guard ends immediately"]
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

impl SpanGuard {
    /// Opens a span as a child of the thread's current span. Prefer
    /// [`trace_span!`](crate::trace_span), which skips field
    /// evaluation when tracing is off.
    pub fn enter(name: &'static str) -> SpanGuard {
        if !enabled() {
            return SpanGuard { inner: None };
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        SpanGuard {
            inner: Some(ActiveSpan {
                id,
                parent,
                name,
                start: Instant::now(),
                fields: Vec::new(),
            }),
        }
    }

    /// A no-op guard, used when tracing is disabled.
    pub fn disabled() -> SpanGuard {
        SpanGuard { inner: None }
    }

    /// Attaches a `key = value` field to the span. No-op on a disabled
    /// guard, so callers can record unconditionally.
    pub fn record_field(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(s) = &mut self.inner {
            s.fields.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.inner.take() else { return };
        let dur_ns = s.start.elapsed().as_nanos() as u64;
        // Restore the parent even if recording stopped mid-span: the
        // thread-local stack must stay balanced.
        CURRENT.with(|c| c.set(s.parent));
        if enabled() {
            push(Rec {
                id: s.id,
                parent: s.parent,
                lane: lane(),
                name: s.name,
                start: s.start,
                dur_ns: Some(dur_ns),
                fields: s.fields,
            });
        }
    }
}

/// Records a zero-duration event under the current span. Prefer
/// [`trace_instant!`](crate::trace_instant).
pub fn instant(name: &'static str, fields: Vec<(&'static str, FieldValue)>) {
    if !enabled() {
        return;
    }
    push(Rec {
        id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
        parent: CURRENT.with(std::cell::Cell::get),
        lane: lane(),
        name,
        start: Instant::now(),
        dur_ns: None,
        fields,
    });
}

/// A capture of a thread's current span, for re-installing on another
/// thread so cross-thread work keeps its ancestry. Cheap to copy.
#[derive(Debug, Clone, Copy)]
pub struct ParentHandle {
    id: u64,
}

/// Captures the calling thread's innermost open span as a
/// [`ParentHandle`]. Pair with [`with_parent`] in the worker.
pub fn current_parent() -> ParentHandle {
    ParentHandle {
        id: CURRENT.with(std::cell::Cell::get),
    }
}

/// Runs `f` with `parent` installed as the current span, so spans `f`
/// opens become its children. Restores the previous current span
/// afterwards (also on panic).
pub fn with_parent<R>(parent: ParentHandle, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(parent.id)));
    f()
}

/// One recorded event: a completed span (`dur_ns = Some(..)`) or an
/// instant (`dur_ns = None`).
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Unique event id (process-global, never 0).
    pub id: u64,
    /// Id of the enclosing span at creation time (0 = root).
    pub parent: u64,
    /// Display lane — distinct per OS thread, `tid` in Chrome JSON.
    pub lane: u64,
    /// Span name, e.g. `"datalog.round"`.
    pub name: &'static str,
    /// Start time, nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds for spans; `None` for instants.
    pub dur_ns: Option<u64>,
    /// Key-value fields attached by the instrumentation site.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl TraceEvent {
    /// Looks up a field by key (first occurrence).
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A drained trace: every recorded event, sorted by start time.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The recorded events in timestamp order.
    pub events: Vec<TraceEvent>,
    /// Events discarded because the journal hit its capacity.
    pub dropped: u64,
}

impl Trace {
    /// Renders the trace as Chrome trace-event JSON — load the file in
    /// [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
    /// Spans become `ph:"X"` complete events, instants `ph:"i"`; span
    /// fields plus `id`/`parent` ride in `args`. `ts` and `dur` are in
    /// microseconds with three decimals, so nothing is lost to rounding.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
                json_escape(e.name),
                if e.dur_ns.is_some() { 'X' } else { 'i' },
                Micros(e.ts_ns),
            );
            if let Some(d) = e.dur_ns {
                let _ = write!(out, "\"dur\":{},", Micros(d));
            } else {
                out.push_str("\"s\":\"t\",");
            }
            let _ = write!(
                out,
                "\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
                e.lane, e.id, e.parent
            );
            for (k, v) in &e.fields {
                match v {
                    FieldValue::U64(n) => {
                        let _ = write!(out, ",\"{}\":{n}", json_escape(k));
                    }
                    FieldValue::Str(s) => {
                        let _ = write!(out, ",\"{}\":\"{}\"", json_escape(k), json_escape(s));
                    }
                }
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the trace as folded-stack text (`root;child;leaf 123`
    /// per line, values = self-time in whole µs), the input format of
    /// `flamegraph.pl` and speedscope. Instants are skipped; a span's
    /// self-time is its duration minus its direct children's durations,
    /// clamped at zero because parallel children can overlap and sum
    /// past their parent.
    pub fn to_folded(&self) -> String {
        let spans: BTreeMap<u64, &TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.dur_ns.is_some())
            .map(|e| (e.id, e))
            .collect();
        let mut child_time: BTreeMap<u64, u64> = BTreeMap::new();
        for e in spans.values() {
            *child_time.entry(e.parent).or_default() += e.dur_ns.unwrap_or(0);
        }
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for e in spans.values() {
            let self_ns = e
                .dur_ns
                .unwrap_or(0)
                .saturating_sub(child_time.get(&e.id).copied().unwrap_or(0));
            // Root-to-leaf path. Parent ids are always smaller than
            // child ids, so this walk terminates.
            let mut path = vec![e.name];
            let mut at = e.parent;
            while let Some(p) = spans.get(&at) {
                path.push(p.name);
                at = p.parent;
            }
            path.reverse();
            *folded.entry(path.join(";")).or_default() += self_ns;
        }
        let mut out = String::new();
        for (path, ns) in folded {
            let _ = writeln!(out, "{path} {}", ns / 1000);
        }
        out
    }
}

/// Nanoseconds rendered as microseconds with three decimals.
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// Opens a hierarchical span and returns its [`SpanGuard`]; the span
/// ends (and is journaled) when the guard drops.
///
/// ```
/// # fmt_obs::trace::start();
/// let mut span = fmt_obs::trace_span!("datalog.round", round = 3u64, delta = 17usize);
/// // ... do the round's work ...
/// span.record_field("new", 5u64); // fields can be added as results arrive
/// drop(span);
/// # fmt_obs::trace::stop();
/// ```
///
/// Field expressions are **not evaluated** when tracing is off — the
/// whole macro is one relaxed atomic load in that case.
#[macro_export]
macro_rules! trace_span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            #[allow(unused_mut)]
            let mut __span = $crate::trace::SpanGuard::enter($name);
            $(__span.record_field(stringify!($key), $value);)*
            __span
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

/// Records a zero-duration event under the current span — used for
/// point occurrences like budget exhaustion or cancellation. Field
/// expressions are not evaluated when tracing is off.
#[macro_export]
macro_rules! trace_instant {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            let __fields: ::std::vec::Vec<(&'static str, $crate::trace::FieldValue)> =
                ::std::vec![$((stringify!($key), $crate::trace::FieldValue::from($value))),*];
            $crate::trace::instant($name, __fields);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; tests that record serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn spans_nest_and_record_fields() {
        let _g = lock(&TEST_LOCK);
        start();
        {
            let _outer = crate::trace_span!("outer", size = 4u64);
            {
                let _inner = crate::trace_span!("inner", label = "abc");
            }
            crate::trace_instant!("tick", n = 1u64);
        }
        let trace = stop();
        assert_eq!(trace.dropped, 0);
        let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = trace.events.iter().find(|e| e.name == "inner").unwrap();
        let tick = trace.events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(tick.parent, outer.id);
        assert!(inner.dur_ns.is_some() && tick.dur_ns.is_none());
        assert_eq!(outer.field("size"), Some(&FieldValue::U64(4)));
        assert_eq!(
            inner.field("label"),
            Some(&FieldValue::Str("abc".to_string()))
        );
        // Spans close inner-first, but timestamps sort outer-first.
        assert!(outer.ts_ns <= inner.ts_ns);
    }

    #[test]
    fn disabled_tracing_skips_field_evaluation() {
        let _g = lock(&TEST_LOCK);
        assert!(!enabled());
        let mut evaluated = false;
        {
            let _s = crate::trace_span!(
                "never",
                x = {
                    evaluated = true;
                    1u64
                }
            );
        }
        crate::trace_instant!(
            "never",
            x = {
                evaluated = true;
                1u64
            }
        );
        assert!(
            !evaluated,
            "fields must not be evaluated when tracing is off"
        );
    }

    #[test]
    fn journal_is_bounded_and_counts_drops() {
        let _g = lock(&TEST_LOCK);
        set_capacity(3);
        start();
        for _ in 0..8 {
            crate::trace_instant!("e");
        }
        let trace = stop();
        set_capacity(DEFAULT_CAPACITY);
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.dropped, 5);
    }

    #[test]
    fn cross_thread_parent_propagation() {
        let _g = lock(&TEST_LOCK);
        start();
        let outer_id;
        {
            let _outer = crate::trace_span!("spawner");
            let handle = current_parent();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    with_parent(handle, || {
                        let _w = crate::trace_span!("worker");
                    });
                    // Outside with_parent the thread has no current span.
                    let _orphan = crate::trace_span!("orphan");
                });
            });
            outer_id = peek()
                .events
                .iter()
                .find(|e| e.name == "worker")
                .map(|e| e.parent);
        }
        let trace = stop();
        let spawner = trace.events.iter().find(|e| e.name == "spawner").unwrap();
        let worker = trace.events.iter().find(|e| e.name == "worker").unwrap();
        let orphan = trace.events.iter().find(|e| e.name == "orphan").unwrap();
        assert_eq!(worker.parent, spawner.id);
        assert_eq!(outer_id, Some(spawner.id));
        assert_eq!(orphan.parent, 0);
        assert_ne!(worker.lane, spawner.lane);
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let _g = lock(&TEST_LOCK);
        start();
        {
            let _s = crate::trace_span!("phase", engine = "indexed", n = 2u64);
            crate::trace_instant!("budget.exhausted", resource = "fuel");
        }
        let json = stop().to_chrome_json();
        let doc = crate::json::parse(&json).expect("chrome trace must parse");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let span = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("phase"))
            .unwrap();
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert!(span.get("dur").unwrap().as_f64().is_some());
        assert_eq!(
            span.get("args").unwrap().get("engine").unwrap().as_str(),
            Some("indexed")
        );
        let inst = events
            .iter()
            .find(|e| e.get("name").unwrap().as_str() == Some("budget.exhausted"))
            .unwrap();
        assert_eq!(inst.get("ph").unwrap().as_str(), Some("i"));
    }

    #[test]
    fn chrome_times_are_microseconds_with_three_decimals() {
        assert_eq!(Micros(1_234_567).to_string(), "1234.567");
        assert_eq!(Micros(42).to_string(), "0.042");
    }

    #[test]
    fn folded_export_computes_self_time() {
        // Built by hand so durations are exact.
        let ev = |id, parent, name: &'static str, dur| TraceEvent {
            id,
            parent,
            lane: 0,
            name,
            ts_ns: id,
            dur_ns: Some(dur * 1000u64),
            fields: Vec::new(),
        };
        let trace = Trace {
            events: vec![
                ev(1, 0, "eval", 100),
                ev(2, 1, "round", 60),
                ev(3, 2, "rule", 25),
                ev(4, 2, "rule", 25),
                // Parallel children may exceed the parent: clamps to 0.
                ev(5, 1, "par", 30),
                ev(6, 5, "chunk", 20),
                ev(7, 5, "chunk", 20),
            ],
            dropped: 0,
        };
        let folded = trace.to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "eval 10",
                "eval;par 0",
                "eval;par;chunk 40",
                "eval;round 10",
                "eval;round;rule 50",
            ]
        );
    }

    #[test]
    fn stop_discards_open_spans_and_peek_sees_closed_ones() {
        let _g = lock(&TEST_LOCK);
        start();
        let open = crate::trace_span!("open");
        {
            let _closed = crate::trace_span!("closed");
        }
        let mid = peek();
        assert!(mid.events.iter().any(|e| e.name == "closed"));
        assert!(!mid.events.iter().any(|e| e.name == "open"));
        let trace = stop();
        drop(open); // dropped after stop: discarded
        assert!(trace.events.iter().all(|e| e.name != "open"));
        assert!(stop().events.is_empty()); // journal already drained
    }
}
