//! Resource budgets: fuel, wall-clock deadlines, and cooperative
//! cancellation for every engine in the toolbox.
//!
//! Every tool the survey describes has worst-case exponential cost
//! (combined complexity of FO evaluation is PSPACE-complete), so a
//! long-running service must be able to stop an adversarial query
//! without wedging a worker thread. A [`Budget`] is a small shared
//! handle that hot loops consult through a cheap atomic [`Budget::tick`]
//! call; when the budget runs out the engine unwinds cleanly with a
//! structured [`Exhausted`] error — never a panic, never a partial
//! write into caller-visible state.
//!
//! Three resources are tracked:
//!
//! * **fuel** — a deterministic tick allowance. Single-threaded engines
//!   consume fuel in a reproducible order, so running twice with the
//!   same fuel exhausts at the same tick (this is asserted by property
//!   tests).
//! * **deadline** — a wall-clock cutoff, checked on the first tick and
//!   every [`DEADLINE_CHECK_PERIOD`] ticks thereafter so the common
//!   path stays branch-cheap.
//! * **cancellation** — an external flag flipped by [`Budget::cancel`]
//!   from any thread; every tick observes it, which is what makes
//!   cancellation *cooperative* across `fan_out` worker shards (all
//!   shards share one handle).
//!
//! Tick placement rules for engine authors are documented in
//! `docs/budgets.md`: tick once per unit of work that is `O(1)`-ish
//! (an AST node visit, a game position expansion, a candidate tuple),
//! never per round — the goal is that no single inter-tick gap can
//! take more than microseconds on real inputs.
//!
//! ```
//! use fmt_structures::budget::{Budget, Resource};
//!
//! let b = Budget::with_fuel(2);
//! assert!(b.tick("doc.example").is_ok());
//! assert!(b.tick("doc.example").is_ok());
//! let err = b.tick("doc.example").unwrap_err();
//! assert_eq!(err.resource, Resource::Fuel);
//! assert_eq!(err.spent, 3);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deadline checks happen on the first metered tick and then every this
/// many ticks: `Instant::now()` is much more expensive than the relaxed
/// atomics on the common path.
pub const DEADLINE_CHECK_PERIOD: u64 = 64;

/// Exhausted-fuel errors observed process-wide.
static OBS_EXHAUSTED_FUEL: fmt_obs::Counter = fmt_obs::Counter::new("budget.exhausted.fuel");
/// Exceeded-deadline errors observed process-wide.
static OBS_EXHAUSTED_DEADLINE: fmt_obs::Counter =
    fmt_obs::Counter::new("budget.exhausted.deadline");
/// Cancellation errors observed process-wide.
static OBS_CANCELLED: fmt_obs::Counter = fmt_obs::Counter::new("budget.exhausted.cancelled");
/// Metered ticks consumed process-wide (unlimited budgets do not meter,
/// so this equals the sum of [`Budget::spent`] over all metered
/// budgets — the "no lost ticks" invariant of the cancellation tests).
static OBS_TICKS: fmt_obs::Counter = fmt_obs::Counter::new("budget.ticks");

/// Which resource ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The fuel allowance was consumed.
    Fuel,
    /// The wall-clock deadline passed.
    Deadline,
    /// [`Budget::cancel`] was called from another thread.
    Cancelled,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Resource::Fuel => "fuel",
            Resource::Deadline => "deadline",
            Resource::Cancelled => "cancelled",
        })
    }
}

/// The structured error returned when a budget runs out.
///
/// Carries enough to diagnose *where* the engine stopped: the resource
/// that ran out, the number of metered ticks spent when it was
/// detected, and the static label of the tick site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted {
    /// Which resource ran out.
    pub resource: Resource,
    /// Metered ticks consumed when exhaustion was detected (0 when an
    /// unmetered budget was cancelled before any metered tick).
    pub spent: u64,
    /// Static label of the tick site, e.g. `"queries.datalog.indexed"`.
    pub at: &'static str,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.resource {
            Resource::Fuel => write!(
                f,
                "fuel exhausted after {} ticks at {}",
                self.spent, self.at
            ),
            Resource::Deadline => write!(
                f,
                "deadline exceeded after {} ticks at {}",
                self.spent, self.at
            ),
            Resource::Cancelled => {
                write!(f, "cancelled at {} ({} ticks spent)", self.at, self.spent)
            }
        }
    }
}

impl std::error::Error for Exhausted {}

/// Result alias used by every budget-aware engine entry point.
pub type BudgetResult<T> = Result<T, Exhausted>;

#[derive(Debug)]
struct Inner {
    /// Fuel allowance; `u64::MAX` means unlimited.
    fuel: u64,
    /// Wall-clock cutoff, if any.
    deadline: Option<Instant>,
    /// True iff fuel or deadline is set: the metered path counts ticks,
    /// the unmetered path is a single relaxed load.
    metered: bool,
    /// Metered ticks consumed so far.
    spent: AtomicU64,
    /// External cancellation flag.
    cancelled: AtomicBool,
}

/// A shared resource budget. Cloning is cheap (an [`Arc`] bump) and all
/// clones observe the same fuel pool, deadline, and cancellation flag —
/// hand clones to worker threads to get cooperative cancellation.
#[derive(Debug, Clone)]
pub struct Budget {
    inner: Arc<Inner>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    fn build(fuel: u64, deadline: Option<Instant>) -> Budget {
        Budget {
            inner: Arc::new(Inner {
                fuel,
                deadline,
                metered: fuel != u64::MAX || deadline.is_some(),
                spent: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A budget that never exhausts on its own (it can still be
    /// [cancelled](Budget::cancel)). Ticks on an unlimited budget are a
    /// single relaxed atomic load, so engines pay essentially nothing
    /// when no limit is requested.
    pub fn unlimited() -> Budget {
        Budget::build(u64::MAX, None)
    }

    /// A budget allowing exactly `fuel` metered ticks; tick `fuel + 1`
    /// fails. Fuel accounting is deterministic for single-threaded
    /// engines.
    pub fn with_fuel(fuel: u64) -> Budget {
        Budget::build(fuel, None)
    }

    /// A budget that exhausts once `timeout` has elapsed (measured from
    /// this call).
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget::build(u64::MAX, Some(Instant::now() + timeout))
    }

    /// A budget combining an optional fuel allowance and an optional
    /// timeout; `Budget::new(None, None)` is [`Budget::unlimited`].
    pub fn new(fuel: Option<u64>, timeout: Option<Duration>) -> Budget {
        Budget::build(
            fuel.unwrap_or(u64::MAX),
            timeout.map(|t| Instant::now() + t),
        )
    }

    /// Flips the cancellation flag: every subsequent tick on any clone
    /// of this handle fails with [`Resource::Cancelled`].
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
        fmt_obs::trace_instant!("budget.cancelled", spent = self.spent());
    }

    /// Whether [`Budget::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Metered ticks consumed so far (always 0 for unlimited budgets,
    /// which skip metering).
    pub fn spent(&self) -> u64 {
        self.inner.spent.load(Ordering::Relaxed)
    }

    /// Whether this budget meters ticks (a fuel or deadline limit is
    /// set). Unmetered budgets only ever fail through cancellation.
    pub fn is_metered(&self) -> bool {
        self.inner.metered
    }

    /// Consumes one tick. The hot-path cost is one relaxed load
    /// (cancellation) for unlimited budgets, plus one relaxed
    /// `fetch_add` when metered; the wall clock is consulted only every
    /// [`DEADLINE_CHECK_PERIOD`] metered ticks.
    ///
    /// `at` is a static label for the call site (dot-separated, e.g.
    /// `"games.solver"`) carried verbatim into [`Exhausted::at`].
    #[inline]
    pub fn tick(&self, at: &'static str) -> BudgetResult<()> {
        let inner = &*self.inner;
        if inner.cancelled.load(Ordering::Relaxed) {
            OBS_CANCELLED.incr();
            let spent = inner.spent.load(Ordering::Relaxed);
            fmt_obs::trace_instant!(
                "budget.exhausted",
                resource = "cancelled",
                at = at,
                spent = spent
            );
            return Err(Exhausted {
                resource: Resource::Cancelled,
                spent,
                at,
            });
        }
        if !inner.metered {
            return Ok(());
        }
        self.tick_metered(at)
    }

    fn tick_metered(&self, at: &'static str) -> BudgetResult<()> {
        let inner = &*self.inner;
        let spent = inner.spent.fetch_add(1, Ordering::Relaxed) + 1;
        OBS_TICKS.incr();
        if spent > inner.fuel {
            OBS_EXHAUSTED_FUEL.incr();
            fmt_obs::trace_instant!(
                "budget.exhausted",
                resource = "fuel",
                at = at,
                spent = spent
            );
            return Err(Exhausted {
                resource: Resource::Fuel,
                spent,
                at,
            });
        }
        if let Some(deadline) = inner.deadline {
            if (spent == 1 || spent % DEADLINE_CHECK_PERIOD == 0) && Instant::now() >= deadline {
                OBS_EXHAUSTED_DEADLINE.incr();
                fmt_obs::trace_instant!(
                    "budget.exhausted",
                    resource = "deadline",
                    at = at,
                    spent = spent
                );
                return Err(Exhausted {
                    resource: Resource::Deadline,
                    spent,
                    at,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.tick("test").unwrap();
        }
        assert_eq!(b.spent(), 0, "unlimited budgets do not meter");
        assert!(!b.is_metered());
    }

    #[test]
    fn fuel_exhausts_exactly_after_allowance() {
        let b = Budget::with_fuel(3);
        assert!(b.is_metered());
        for i in 1..=3u64 {
            b.tick("test").unwrap();
            assert_eq!(b.spent(), i);
        }
        let err = b.tick("test").unwrap_err();
        assert_eq!(err.resource, Resource::Fuel);
        assert_eq!(err.spent, 4);
        assert_eq!(err.at, "test");
    }

    #[test]
    fn fuel_accounting_is_deterministic() {
        let spend = |fuel: u64| -> u64 {
            let b = Budget::with_fuel(fuel);
            loop {
                if let Err(e) = b.tick("det") {
                    return e.spent;
                }
            }
        };
        assert_eq!(spend(17), spend(17));
        assert_eq!(spend(17), 18);
    }

    #[test]
    fn zero_timeout_trips_on_first_tick() {
        let b = Budget::with_timeout(Duration::from_millis(0));
        let err = b.tick("test").unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
        assert_eq!(err.spent, 1);
    }

    #[test]
    fn generous_timeout_does_not_trip() {
        let b = Budget::with_timeout(Duration::from_secs(3600));
        for _ in 0..1000 {
            b.tick("test").unwrap();
        }
        assert_eq!(b.spent(), 1000);
    }

    #[test]
    fn cancellation_is_observed_by_clones() {
        let b = Budget::unlimited();
        let c = b.clone();
        b.tick("test").unwrap();
        c.cancel();
        assert!(b.is_cancelled());
        let err = b.tick("test").unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
    }

    #[test]
    fn clones_share_one_fuel_pool() {
        let b = Budget::with_fuel(4);
        let c = b.clone();
        b.tick("a").unwrap();
        c.tick("b").unwrap();
        b.tick("a").unwrap();
        c.tick("b").unwrap();
        assert!(b.tick("a").is_err());
        assert!(c.tick("b").is_err());
        assert_eq!(b.spent(), c.spent());
    }

    #[test]
    fn combined_limits_report_first_to_trip() {
        // Tiny fuel, huge timeout: fuel trips.
        let b = Budget::new(Some(1), Some(Duration::from_secs(3600)));
        b.tick("test").unwrap();
        assert_eq!(b.tick("test").unwrap_err().resource, Resource::Fuel);
        // Huge fuel, zero timeout: deadline trips.
        let b = Budget::new(Some(1_000_000), Some(Duration::from_millis(0)));
        assert_eq!(b.tick("test").unwrap_err().resource, Resource::Deadline);
    }

    #[test]
    fn display_formats_are_stable() {
        let e = Exhausted {
            resource: Resource::Fuel,
            spent: 7,
            at: "x.y",
        };
        assert_eq!(e.to_string(), "fuel exhausted after 7 ticks at x.y");
        let e = Exhausted {
            resource: Resource::Cancelled,
            spent: 0,
            at: "x.y",
        };
        assert_eq!(e.to_string(), "cancelled at x.y (0 ticks spent)");
    }
}
