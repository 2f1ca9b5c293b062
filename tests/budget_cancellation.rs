//! Cancellation race tests: flip [`Budget::cancel`] from another thread
//! while the parallel engines are mid-workload, and assert that they
//! (a) return promptly with [`Resource::Cancelled`], (b) leave no
//! poisoned state behind (the same engines solve fresh inputs correctly
//! afterwards), and (c) lose no ticks — the global `budget.ticks`
//! counter equals the handle's own [`Budget::spent`] at the end.
//!
//! The registry is process-global, so every test that touches it holds
//! `OBS_LOCK` for its whole body (same pattern as `obs_integration.rs`).

use fmt_core::queries::datalog::Program;
use fmt_core::structures::budget::{Budget, Resource};
use fmt_core::structures::builders;
use fmt_games::parallel::try_duplicator_wins_parallel;
use std::sync::Mutex;
use std::time::{Duration, Instant};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The cancelling thread flips the flag after `delay`; the caller gets
/// the engine result plus the wall-clock time from cancellation to
/// return.
fn cancel_after<T: Send>(
    budget: &Budget,
    delay: Duration,
    work: impl FnOnce() -> T + Send,
) -> (T, Duration) {
    std::thread::scope(|scope| {
        let worker = scope.spawn(work);
        std::thread::sleep(delay);
        let cancelled_at = Instant::now();
        budget.cancel();
        let result = worker.join().expect("engine must not panic when cancelled");
        (result, cancelled_at.elapsed())
    })
}

#[test]
fn indexed_parallel_datalog_cancels_promptly_and_loses_no_ticks() {
    let _g = locked();
    fmt_obs::enable();
    fmt_obs::reset();

    // Same-generation over the depth-9 binary tree: its semi-naive
    // rounds drive thousands of rows, past the 512 at which the indexed
    // engine splits jobs across workers, and the fixpoint takes far
    // longer than the cancellation delay, even in release builds.
    let s = builders::full_binary_tree(9);
    let prog = Program::same_generation();
    // Metered (huge fuel) so every tick is counted: the no-lost-ticks
    // check below compares the global counter against `spent()`.
    let budget = Budget::with_fuel(u64::MAX - 1);

    let (result, to_return) = cancel_after(&budget, Duration::from_millis(15), || {
        prog.try_eval_seminaive_with(&s, 4, &budget)
    });
    let e = result
        .expect_err("cancellation must interrupt the fixpoint")
        .into_exhausted();
    assert_eq!(e.resource, Resource::Cancelled);
    assert!(
        to_return < Duration::from_secs(5),
        "cancelled engine took {to_return:?} to return"
    );

    // No lost ticks: every metered tick the workers consumed is visible
    // both in the shared handle and in the process-wide counter.
    let snap = fmt_obs::snapshot();
    assert_eq!(snap.counter("budget.ticks"), Some(budget.spent()));
    assert!(snap.counter("budget.exhausted.cancelled").unwrap_or(0) >= 1);
    // The run really was parallel: it split rounds across workers.
    let sharded = snap.histogram("queries.datalog.shard_imbalance");
    assert!(sharded.is_some_and(|h| h.count > 0), "no round was sharded");

    // No poisoned state: the same program on the same structure still
    // evaluates to the right fixpoint afterwards: 4^l pairs at level l.
    let out = prog
        .try_eval_seminaive_with(&s, 4, &Budget::unlimited())
        .expect("fresh unlimited run must complete");
    assert_eq!(out.relation(0).len(), (4usize.pow(10) - 1) / 3);
}

#[test]
fn parallel_games_cancel_promptly_from_another_thread() {
    let _g = locked();

    // L_63 vs L_64 at 6 rounds sits exactly at the 2^6 - 1 threshold:
    // the duplicator wins, so there is no early refutation and the
    // solver must explore the whole move tree — far more work than the
    // cancellation delay allows.
    let a = builders::linear_order(63);
    let b = builders::linear_order(64);
    let budget = Budget::unlimited();

    let (result, to_return) = cancel_after(&budget, Duration::from_millis(15), || {
        try_duplicator_wins_parallel(&a, &b, 6, 4, &budget)
    });
    let e = result.expect_err("cancellation must interrupt the solver");
    assert_eq!(e.resource, Resource::Cancelled);
    assert!(
        to_return < Duration::from_secs(5),
        "cancelled solver took {to_return:?} to return"
    );

    // No poisoned state: a fresh small game still solves correctly on
    // both sides of the threshold.
    let small = builders::linear_order(2);
    let big = builders::linear_order(3);
    assert!(
        !try_duplicator_wins_parallel(&small, &big, 2, 4, &Budget::unlimited()).unwrap(),
        "L_2 vs L_3 is separated by 2 rounds"
    );
    assert!(try_duplicator_wins_parallel(&big, &big, 3, 4, &Budget::unlimited()).unwrap());
}
