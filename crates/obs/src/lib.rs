//! # fmt-obs
//!
//! Zero-dependency instrumentation for the finite model theory toolbox.
//!
//! Every engine hot path (EF-game search, FO evaluation, semi-naive
//! Datalog, neighborhood censuses, 0-1-law sampling) records its work
//! through this crate so that perf PRs can ship with before/after
//! numbers and `fmtk --stats` can show what an invocation actually did.
//!
//! The build environment is offline, so there is no `tracing`,
//! `prometheus`, or `once_cell` here — just `std` atomics:
//!
//! * [`Counter`] — a monotonic `AtomicU64`;
//! * [`Histogram`] — fixed power-of-two buckets plus count/sum/max,
//!   suitable for sizes and microsecond durations;
//! * a process-global registry, **disabled by default**: when disabled,
//!   every record path short-circuits on a single relaxed atomic load
//!   and touches nothing else (asserted by the `cheap_when_disabled`
//!   test), so instrumented engines pay no measurable cost.
//!
//! Metrics are `static`s declared next to the code they measure:
//!
//! ```
//! static POSITIONS: fmt_obs::Counter = fmt_obs::Counter::new("demo.positions");
//!
//! fmt_obs::enable();
//! POSITIONS.add(3);
//! let snap = fmt_obs::snapshot();
//! assert_eq!(snap.counter("demo.positions"), Some(3));
//! fmt_obs::reset();
//! fmt_obs::disable();
//! ```
//!
//! A metric registers itself in the global registry the first time it
//! records while enabled; [`snapshot`] returns everything registered so
//! far, sorted by name, and [`Snapshot::to_json`] renders a single-line
//! JSON object suitable for appending to `BENCH_*.json`. Registration
//! enforces hygiene: names must match `^[a-z0-9_.]+$` and be unique
//! across the whole registry — a violation is a programming error and
//! panics at the first record.
//!
//! Metrics aggregate; the [`trace`] module *attributes*: hierarchical
//! spans with key-value fields, recorded into a bounded journal and
//! exported as Chrome trace-event JSON (Perfetto) or folded stacks
//! (flamegraphs). [`Snapshot::to_prometheus`] renders the metrics side
//! in Prometheus text exposition format — the payload a future
//! `fmtk serve` mounts at `/metrics`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod trace;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};

/// Poison-tolerant lock used across the crate: metrics and traces must
/// keep working after a panic elsewhere in an instrumented region.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of histogram buckets: bucket `i` counts values `v` with
/// `bit_length(v) == i`, i.e. bucket 0 holds `0`, bucket `i ≥ 1` holds
/// `2^(i-1) ..= 2^i - 1`; the last bucket absorbs everything above.
pub const BUCKETS: usize = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(Vec::new()),
    histograms: Mutex::new(Vec::new()),
};

/// Turns recording on process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off process-wide (already-recorded values are kept
/// until [`reset`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every registered metric (registration itself is kept, so
/// names remain visible in subsequent snapshots).
pub fn reset() {
    for c in lock(&REGISTRY.counters).iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in lock(&REGISTRY.histograms).iter() {
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------
// Registration hygiene
// ---------------------------------------------------------------------

/// The metric naming grammar: `^[a-z0-9_.]+$`. Lowercase dotted paths
/// keep text rows sortable and map cleanly onto Prometheus names
/// (dots become underscores in [`Snapshot::to_prometheus`]).
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_' || b == b'.')
}

/// Registers a metric name, checking the grammar and global uniqueness
/// across counters *and* histograms. Returns the violation (if any) so
/// the caller can panic **after** every registry guard is dropped —
/// panicking inside the critical section would poison the registry for
/// the whole process.
fn register(name: &'static str, push: impl FnOnce(&Registry)) {
    let grammar_ok = valid_metric_name(name);
    let duplicate = {
        let counters = lock(&REGISTRY.counters);
        let histograms = lock(&REGISTRY.histograms);
        let duplicate =
            counters.iter().any(|c| c.name == name) || histograms.iter().any(|h| h.name == name);
        drop(counters);
        drop(histograms);
        if grammar_ok && !duplicate {
            push(&REGISTRY);
        }
        duplicate
    };
    assert!(
        grammar_ok,
        "obs metric name {name:?} violates the ^[a-z0-9_.]+$ grammar"
    );
    assert!(!duplicate, "duplicate obs metric name {name:?}");
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// A monotonic counter. Declare as a `static` next to the code it
/// measures; increments are relaxed atomic adds, skipped entirely while
/// the registry is disabled.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: Once,
}

impl Counter {
    /// A new counter with a `dotted.metric.name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` (no-op while disabled).
    ///
    /// # Panics
    /// Panics on first record if the name violates the grammar or is
    /// already registered — see [`valid_metric_name`].
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| register(self.name, |r| lock(&r.counters).push(self)));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 (no-op while disabled).
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------

/// A histogram over `u64` values with fixed power-of-two buckets (no
/// allocation, no locks). Used for sizes (delta facts per round, ball
/// sizes, operator cardinalities) and durations.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: Once,
}

impl Histogram {
    /// A new histogram with a `dotted.metric.name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            registered: Once::new(),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one value (no-op while disabled).
    ///
    /// # Panics
    /// Panics on first record if the name violates the grammar or is
    /// already registered — see [`valid_metric_name`].
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| register(self.name, |r| lock(&r.histograms).push(self)));
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        let bucket = ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------

/// Point-in-time summary of one histogram.
///
/// Quantiles are estimated from the power-of-two buckets by linear
/// interpolation: the value at rank `r` inside a bucket holding `b`
/// values over `[lo, hi]` is taken to be `lo + r·(hi − lo)/b`, with
/// `hi` clamped to the observed maximum. The estimate is exact when
/// values fill their bucket densely and never off by more than the
/// bucket width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Median estimate (interpolated).
    pub p50: u64,
    /// 95th-percentile estimate (interpolated).
    pub p95: u64,
    /// 99th-percentile estimate (interpolated).
    pub p99: u64,
    /// Raw bucket counts: bucket `i` holds values with bit-length `i`
    /// (bucket 0 holds exactly the zeros). Drives
    /// [`Snapshot::to_prometheus`] and external re-aggregation.
    pub buckets: Vec<u64>,
}

/// Interpolated quantile over pow2 `buckets` (see
/// [`HistogramSnapshot`] for the estimator).
fn bucket_quantile(q: f64, count: u64, max: u64, buckets: &[u64]) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        if b == 0 {
            continue;
        }
        if seen + b >= rank {
            if i == 0 {
                return 0; // bucket 0 holds only the value 0
            }
            let lo = 1u64 << (i - 1);
            // The top bucket absorbs everything above, so its only
            // honest upper bound is the observed max; every bucket is
            // clamped there too (the max lives in the last nonempty one).
            let hi = if i == BUCKETS - 1 {
                max
            } else {
                ((1u64 << i) - 1).min(max)
            };
            let k = rank - seen; // 1-based rank within this bucket
            let est = lo as f64 + (k as f64 / b as f64) * (hi - lo) as f64;
            return est.round() as u64;
        }
        seen += b;
    }
    max
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// Summaries of every registered histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Takes a snapshot of all metrics registered so far.
pub fn snapshot() -> Snapshot {
    let mut counters: Vec<(String, u64)> = lock(&REGISTRY.counters)
        .iter()
        .map(|c| (c.name.to_owned(), c.get()))
        .collect();
    counters.sort();
    let mut histograms: Vec<HistogramSnapshot> = lock(&REGISTRY.histograms)
        .iter()
        .map(|h| {
            let count = h.count.load(Ordering::Relaxed);
            let max = h.max.load(Ordering::Relaxed);
            let buckets: Vec<u64> = h
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect();
            HistogramSnapshot {
                name: h.name.to_owned(),
                count,
                sum: h.sum.load(Ordering::Relaxed),
                max,
                p50: bucket_quantile(0.50, count, max, &buckets),
                p95: bucket_quantile(0.95, count, max, &buckets),
                p99: bucket_quantile(0.99, count, max, &buckets),
                buckets,
            }
        })
        .collect();
    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    Snapshot {
        counters,
        histograms,
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// `true` if nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The JSON members of the snapshot, without enclosing braces —
    /// `"counters":{…},"histograms":{…}` — so callers can splice extra
    /// fields (the CLI adds `"command":…`) into one flat object.
    pub fn json_body(&self) -> String {
        let mut out = String::from("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"histograms\":{");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                json_escape(&h.name),
                h.count,
                h.sum,
                h.max,
                h.p50,
                h.p95,
                h.p99
            ));
        }
        out.push('}');
        out
    }

    /// The whole snapshot as one single-line JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_body())
    }

    /// `(metric, value)` rows for plain-text rendering (histograms
    /// expand into `.count`/`.sum`/`.p50`/`.p95`/`.p99`/`.max` rows).
    /// Pair with `fmt_core::report::table(&["metric", "value"], &rows)`.
    pub fn rows(&self) -> Vec<Vec<String>> {
        let mut rows: Vec<Vec<String>> = self
            .counters
            .iter()
            .map(|(n, v)| vec![n.clone(), v.to_string()])
            .collect();
        for h in &self.histograms {
            rows.push(vec![format!("{}.count", h.name), h.count.to_string()]);
            rows.push(vec![format!("{}.sum", h.name), h.sum.to_string()]);
            rows.push(vec![format!("{}.p50", h.name), h.p50.to_string()]);
            rows.push(vec![format!("{}.p95", h.name), h.p95.to_string()]);
            rows.push(vec![format!("{}.p99", h.name), h.p99.to_string()]);
            rows.push(vec![format!("{}.max", h.name), h.max.to_string()]);
        }
        rows
    }

    /// Renders the snapshot in Prometheus text exposition format — the
    /// payload `fmtk --metrics-text` prints and a future `fmtk serve`
    /// will mount at `/metrics`. Dots in metric names become
    /// underscores; histograms expose cumulative `_bucket{le="…"}`
    /// series over the pow2 bounds (empty buckets elided), plus
    /// `_sum`, `_count`, and a `_max` gauge.
    pub fn to_prometheus(&self) -> String {
        let prom_name = |name: &str| name.replace('.', "_");
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for h in &self.histograms {
            let n = prom_name(&h.name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                if b == 0 {
                    continue;
                }
                cum += b;
                // Bucket i holds values of bit-length i, so its
                // inclusive upper bound is 2^i − 1 (bucket 0 holds 0).
                let le = if i == 0 { 0 } else { (1u64 << i) - 1 };
                out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
            out.push_str(&format!("# TYPE {n}_max gauge\n{n}_max {}\n", h.max));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests that enable it must not
    /// interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        let guard = TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        disable();
        reset();
        guard
    }

    static C1: Counter = Counter::new("test.c1");
    static C2: Counter = Counter::new("test.c2");
    static H1: Histogram = Histogram::new("test.h1");

    #[test]
    fn cheap_when_disabled() {
        let _g = locked();
        // Disabled: the add short-circuits before touching the atomic,
        // so the value stays zero and nothing registers.
        C1.add(41);
        assert_eq!(C1.get(), 0);
        H1.record(9);
        assert_eq!(H1.count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let _g = locked();
        enable();
        C1.incr();
        C1.add(4);
        C2.add(7);
        let snap = snapshot();
        assert_eq!(snap.counter("test.c1"), Some(5));
        assert_eq!(snap.counter("test.c2"), Some(7));
        reset();
        assert_eq!(snapshot().counter("test.c1"), Some(0));
        disable();
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = locked();
        enable();
        for v in [0u64, 1, 1, 2, 3, 8, 100] {
            H1.record(v);
        }
        let snap = snapshot();
        let h = snap.histogram("test.h1").expect("registered");
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 115);
        assert_eq!(h.max, 100);
        // p50 is rank 4, the first of the two values in bucket [2, 3]:
        // interpolated 2 + (1/2)·1 = 2.5, rounded to 3.
        assert_eq!(h.p50, 3);
        // p95/p99 land on the lone 100, whose bucket [64, 127] clamps
        // its upper bound to the observed max.
        assert_eq!(h.p95, 100);
        assert_eq!(h.p99, 100);
        // Raw buckets ride along: bit-length 0, 1, 2, 4, 7 are hit.
        assert_eq!(h.buckets.iter().sum::<u64>(), 7);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.buckets[7], 1);
        disable();
    }

    static HDENSE: Histogram = Histogram::new("test.hdense");

    #[test]
    fn quantile_interpolation_on_dense_distribution() {
        // On the dense distribution 1..=100 the pow2 buckets are full,
        // so linear interpolation recovers the true quantiles exactly —
        // this pins the estimator.
        let _g = locked();
        enable();
        for v in 1..=100u64 {
            HDENSE.record(v);
        }
        let snap = snapshot();
        let h = snap.histogram("test.hdense").expect("registered");
        assert_eq!(h.p50, 50);
        assert_eq!(h.p95, 95);
        assert_eq!(h.p99, 99);
        assert_eq!(h.max, 100);
        disable();
    }

    #[test]
    fn quantiles_of_empty_and_singleton_histograms() {
        assert_eq!(bucket_quantile(0.5, 0, 0, &[0; BUCKETS]), 0);
        let mut one = [0u64; BUCKETS];
        one[4] = 1; // the single value 9
        assert_eq!(bucket_quantile(0.5, 1, 9, &one), 9);
        assert_eq!(bucket_quantile(0.99, 1, 9, &one), 9);
        // All-zero values: everything sits in bucket 0.
        let mut zeros = [0u64; BUCKETS];
        zeros[0] = 5;
        assert_eq!(bucket_quantile(0.99, 5, 0, &zeros), 0);
    }

    #[test]
    fn metric_name_grammar() {
        for good in ["a", "queries.datalog.rounds", "x_1.y_2", "0.9"] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", "Upper.case", "has space", "dash-ed", "unicode.µs"] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    static BAD_NAME: Counter = Counter::new("Not-A-Valid-Name");

    #[test]
    #[should_panic(expected = "violates")]
    fn invalid_name_panics_at_registration() {
        let _g = locked();
        enable();
        BAD_NAME.add(1);
    }

    static DUP_A: Counter = Counter::new("test.duplicate");
    static DUP_B: Histogram = Histogram::new("test.duplicate");

    #[test]
    #[should_panic(expected = "duplicate obs metric name")]
    fn duplicate_name_panics_at_registration() {
        let _g = locked();
        enable();
        DUP_A.add(1);
        DUP_B.record(1);
    }

    static PC: Counter = Counter::new("test.prom.counter");
    static PH: Histogram = Histogram::new("test.prom.hist");

    #[test]
    fn prometheus_exposition_round_trips() {
        let _g = locked();
        enable();
        PC.add(12);
        for v in [0u64, 3, 200] {
            PH.record(v);
        }
        let text = snapshot().to_prometheus();
        disable();
        // The counter round-trips by name and value.
        assert!(text.contains("# TYPE test_prom_counter counter\n"));
        assert!(text.contains("test_prom_counter 12\n"));
        // The histogram exposes cumulative buckets ending at +Inf = count.
        assert!(text.contains("# TYPE test_prom_hist histogram\n"));
        assert!(text.contains("test_prom_hist_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("test_prom_hist_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("test_prom_hist_bucket{le=\"255\"} 3\n"));
        assert!(text.contains("test_prom_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("test_prom_hist_sum 203\n"));
        assert!(text.contains("test_prom_hist_count 3\n"));
        assert!(text.contains("test_prom_hist_max 200\n"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("test_prom_hist_bucket{") {
                let v: u64 = rest.split('}').nth(1).unwrap().trim().parse().unwrap();
                assert!(v >= last, "{line}");
                last = v;
            }
        }
    }

    #[test]
    fn json_shape() {
        let _g = locked();
        enable();
        C1.add(3);
        H1.record(5);
        let snap = snapshot();
        let json = snap.to_json();
        assert!(!json.contains('\n'), "single line");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"test.c1\":3"), "{json}");
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"count\":1"));
        // Balanced braces — a cheap structural validity check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
        disable();
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\tline"), "tab\\u0009line");
    }

    #[test]
    fn rows_cover_all_metrics() {
        let _g = locked();
        enable();
        C2.add(2);
        H1.record(4);
        let rows = snapshot().rows();
        assert!(rows.iter().any(|r| r[0] == "test.c2" && r[1] == "2"));
        assert!(rows.iter().any(|r| r[0] == "test.h1.count"));
        assert!(rows.iter().any(|r| r[0] == "test.h1.p50"));
        disable();
    }

    #[test]
    fn concurrent_adds_are_lossless() {
        let _g = locked();
        enable();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        C1.incr();
                    }
                });
            }
        });
        assert_eq!(snapshot().counter("test.c1"), Some(8000));
        disable();
    }
}
