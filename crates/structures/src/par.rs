//! Scoped-thread fan-out shared by the parallel engines.
//!
//! The EF-game solver (`fmt-games`) and the Datalog fixpoint engine
//! (`fmt-queries`) parallelize the same way: a slice of independent
//! work items is chunked across a fixed number of scoped workers, and
//! the per-chunk results are collected back **in chunk order**, so the
//! caller's merge is deterministic regardless of which worker finished
//! first. This module is that pattern, once.

/// The most workers any `threads` setting resolves to. A worker is a
/// scoped thread with its own shard buffers, so an unbounded request
/// (`--threads 100000`) would spawn until the process fails.
pub const MAX_THREADS: usize = 256;

/// The worker count a `threads` setting asks for: `0` means automatic,
/// `min(available_parallelism, 8)`; any other value is taken as given,
/// up to [`MAX_THREADS`]. Every parallel engine and the `--threads`
/// flag resolve through here.
pub fn resolve_threads(threads: usize) -> usize {
    if threads != 0 {
        return threads.min(MAX_THREADS);
    }
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
        .min(8)
}

/// Runs `worker` over `items` split into at most `threads` contiguous
/// chunks, each on its own scoped thread, returning the per-chunk
/// results in chunk order.
///
/// With `threads == 1` or a single chunk the work runs on the calling
/// thread — no spawn cost for small inputs. Workers borrow from the
/// caller's stack (scoped threads), so `items` may reference
/// round-local data.
///
/// # Panics
/// Panics if `threads == 0` or a worker panics.
pub fn fan_out<T, R, F>(threads: usize, items: &[T], worker: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&[T]) -> R + Sync,
{
    assert!(threads >= 1, "fan_out requires at least one thread");
    if items.is_empty() {
        return Vec::new();
    }
    let chunk = items.len().div_ceil(threads);
    if chunk >= items.len() {
        return vec![worker(items)];
    }
    // Propagate the spawning thread's trace span to the workers, so
    // spans they open attach under the caller instead of floating as
    // roots (no-op cost when tracing is off: the handle is one Cell
    // read and with_parent two Cell writes).
    let parent = fmt_obs::trace::current_parent();
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|work| scope.spawn(move || fmt_obs::trace::with_parent(parent, || worker(work))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan_out worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_chunk_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 7, 100, 200] {
            let sums = fan_out(threads, &items, |chunk| chunk.iter().sum::<usize>());
            assert_eq!(sums.iter().sum::<usize>(), 4950, "threads = {threads}");
            // Chunk order: the first chunk holds the smallest items.
            let firsts = fan_out(threads, &items, |chunk| chunk[0]);
            let mut sorted = firsts.clone();
            sorted.sort_unstable();
            assert_eq!(firsts, sorted);
        }
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let calls = AtomicUsize::new(0);
        let out: Vec<()> = fan_out(4, &[] as &[u32], |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert!(out.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_threads_resolves_to_the_automatic_count() {
        let auto = resolve_threads(0);
        assert!((1..=8).contains(&auto), "{auto}");
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn huge_thread_counts_clamp_to_the_maximum() {
        assert_eq!(resolve_threads(MAX_THREADS), MAX_THREADS);
        assert_eq!(resolve_threads(MAX_THREADS + 1), MAX_THREADS);
        assert_eq!(resolve_threads(usize::MAX), MAX_THREADS);
    }

    #[test]
    fn single_chunk_runs_inline() {
        let out = fan_out(1, &[1u32, 2, 3], <[u32]>::len);
        assert_eq!(out, vec![3]);
    }
}
