//! Deterministic host-side parallelism for the BatchZK reproduction.
//!
//! The simulator's own thesis — throughput comes from keeping every
//! execution unit busy — applies to the host too: Montgomery muls, SHA-256
//! compressions and the N independent devices of a `DevicePool` are
//! embarrassingly parallel streams, yet a naive `thread::spawn` free-for-all
//! would destroy the byte-determinism the bench trajectory is built on.
//!
//! This crate is the middle path: a dependency-free *scoped claim-loop*
//! pool (hermetic, std-only, matching the repo's no-external-deps rule) with
//! **deterministic result ordering**. The caller and its spawned workers
//! claim items one at a time, in input order, from one shared queue — a
//! worker that finishes early just claims the next item — but every result
//! is written back into its input's slot, so the output `Vec` is
//! byte-identical to the `threads = 1` run no matter how the race unfolds.
//! Parallelism may only change wall-clock time, never bytes.
//!
//! Thread count resolution (first match wins):
//! 1. an explicit count passed by the caller (`*_with` variants),
//! 2. a process-wide override set via [`set_threads`] (the `--threads` CLI
//!    flag),
//! 3. the `BATCHZK_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! # Examples
//!
//! ```
//! // Results land in input order regardless of which worker ran what,
//! // so the bytes match the serial run at any thread count.
//! let squares = batchzk_par::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! let mut cells = vec![0u64; 8];
//! batchzk_par::with_threads(4, || {
//!     batchzk_par::par_map_mut(&mut cells, |i, c| *c += i as u64);
//! });
//! assert_eq!(cells, vec![0, 1, 2, 3, 4, 5, 6, 7]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets a process-wide thread-count override (the `--threads` flag).
/// A count of 0 clears the override, falling back to `BATCHZK_THREADS`
/// and then [`std::thread::available_parallelism`].
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Resolves the effective thread count: the [`set_threads`] override if
/// set, else `BATCHZK_THREADS` (ignored when unparsable or 0), else the
/// machine's available parallelism, else 1. Always at least 1.
pub fn current_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("BATCHZK_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Physical parallelism of the host as reported by
/// [`std::thread::available_parallelism`] (1 when the query fails).
/// Unlike [`current_threads`] this ignores every override: it is the
/// quantity wall-clock measurements record so readers can tell a
/// saturated host from a scaling failure.
pub fn host_cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with the thread count forced to `n`, restoring the previous
/// override afterwards. Intended for single-threaded drivers (the bench
/// binary's wall-clock sweep and determinism tests); the override is
/// process-wide, so concurrent callers will observe it — harmless for
/// correctness (any thread count produces identical bytes) but it can
/// perturb concurrent wall-clock measurements.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.swap(n, Ordering::Relaxed);
    let out = f();
    THREAD_OVERRIDE.store(prev, Ordering::Relaxed);
    out
}

/// The one claim loop behind every fan-out. The caller plus `workers - 1`
/// scoped threads each call `next` until it returns `None`; one call
/// claims the next unclaimed item, runs it and returns its input index
/// with the result, so a worker that finishes early simply claims the
/// next item. The `(index, result)` pairs are scattered back into index
/// order, so the output never depends on which worker ran what.
fn claim_loop<R: Send>(
    workers: usize,
    n: usize,
    next: impl Fn() -> Option<(usize, R)> + Sync,
) -> Vec<R> {
    let drain = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        while let Some(pair) = next() {
            local.push(pair);
        }
        local
    };
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        let mut scatter = |pairs: Vec<(usize, R)>| {
            for (i, r) in pairs {
                slots[i] = Some(r);
            }
        };
        scatter(drain());
        for h in handles {
            scatter(h.join().expect("batchzk-par worker panicked"));
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

/// Applies `f` to every index in `0..n` on up to `threads` workers and
/// returns the results **in index order** — byte-identical to
/// `(0..n).map(f).collect()` regardless of thread count or interleaving.
/// Workers claim indices in ascending order from one shared cursor.
///
/// `threads <= 1` (and `n <= 1`) short-circuits to a fully inline serial
/// loop: no threads are spawned, no atomics touched.
pub fn par_map_indexed_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // The cursor publishes no data (results return through the joins),
    // so `Relaxed` suffices: each index is still handed out exactly once.
    let cursor = AtomicUsize::new(0);
    claim_loop(threads.min(n), n, || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        (i < n).then(|| (i, f(i)))
    })
}

/// [`par_map_indexed_with`] at the [`current_threads`] count.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_map_indexed_with(current_threads(), n, f)
}

/// Maps `f` over a slice on up to `threads` workers, results in input
/// order.
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_with(threads, items.len(), |i| f(&items[i]))
}

/// [`par_map_with`] at the [`current_threads`] count.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(current_threads(), items, f)
}

/// Applies `f` to every element of `items` by `&mut`, returning the
/// per-element results in input order. Workers claim `(index, &mut T)`
/// pairs one at a time from a shared iterator (the lock is held only for
/// the claim, never while `f` runs), so items are *started* in input
/// order: a caller that lists its longest items first gets a greedy
/// longest-processing-time-first schedule.
pub fn par_map_mut_with<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    claim_loop(threads.min(n), n, || {
        // The guard is a temporary of this statement: the lock is
        // released before `f` runs.
        let (i, item) = queue.lock().expect("claim lock poisoned").next()?;
        Some((i, f(i, item)))
    })
}

/// [`par_map_mut_with`] at the [`current_threads`] count.
pub fn par_map_mut<T, R, F>(items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    par_map_mut_with(current_threads(), items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order_at_every_thread_count() {
        let n = 1000usize;
        let serial: Vec<u64> = (0..n).map(|i| (i as u64).wrapping_mul(0x9e37)).collect();
        for threads in [1, 2, 3, 4, 8, 17] {
            let par = par_map_indexed_with(threads, n, |i| (i as u64).wrapping_mul(0x9e37));
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn skewed_work_is_stolen_and_stays_ordered() {
        // One pathologically slow item claimed first: the other workers
        // claim and drain the rest, and the output is still index-ordered.
        let n = 64usize;
        let out = par_map_indexed_with(4, n, |i| {
            if i == 0 {
                // Busy-work instead of sleeping: keep the test fast but the
                // skew real.
                let mut acc = 1u64;
                for k in 1..200_000u64 {
                    acc = acc.wrapping_mul(k) ^ k;
                }
                (i as u64) ^ (acc & 1)
            } else {
                i as u64
            }
        });
        for (i, v) in out.iter().enumerate().skip(1) {
            assert_eq!(*v, i as u64);
        }
        assert_eq!(out.len(), n);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = par_map_indexed_with(4, 0, |i| i as u32);
        assert!(empty.is_empty());
        let one = par_map_indexed_with(4, 1, |i| i as u32 + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn par_map_borrows_items() {
        let items: Vec<String> = (0..50).map(|i| format!("item-{i}")).collect();
        let lens = par_map_with(4, &items, |s| s.len());
        let serial: Vec<usize> = items.iter().map(|s| s.len()).collect();
        assert_eq!(lens, serial);
    }

    #[test]
    fn par_map_mut_mutates_every_element_in_place() {
        for threads in [1, 2, 4, 7] {
            let mut items: Vec<u64> = (0..100).collect();
            let returns = par_map_mut_with(threads, &mut items, |i, v| {
                *v += 1;
                *v * i as u64
            });
            let expect_items: Vec<u64> = (1..=100).collect();
            let expect_ret: Vec<u64> = (0..100u64).map(|i| (i + 1) * i).collect();
            assert_eq!(items, expect_items, "threads={threads}");
            assert_eq!(returns, expect_ret, "threads={threads}");
        }
    }

    /// Spins (politely) until `done()` holds or ten seconds pass; returns
    /// whether it held. The deadline turns a scheduling bug into a test
    /// failure instead of a hang.
    fn wait_until(done: impl Fn() -> bool) -> bool {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !done() {
            if std::time::Instant::now() > deadline {
                return false;
            }
            thread::sleep(std::time::Duration::from_micros(50));
        }
        true
    }

    #[test]
    fn par_map_mut_claims_items_in_input_order() {
        // Every item holds its worker until the test releases it, and the
        // test releases items one at a time in index order once every
        // worker holds one. Each release frees exactly one worker, so the
        // order in which items start is the order they are claimed: after
        // the first `threads` (claimed at once), the k-th claim ticket
        // must be item k.
        let n = 12usize;
        for threads in [2usize, 3, 4] {
            let tickets = Mutex::new(Vec::new());
            let released = AtomicUsize::new(0);
            let mut items = vec![0usize; n];
            let mut stalled = false;
            thread::scope(|scope| {
                scope.spawn(|| {
                    par_map_mut_with(threads, &mut items, |i, v| {
                        tickets.lock().unwrap().push(i);
                        wait_until(|| released.load(Ordering::Acquire) > i);
                        *v = i;
                    })
                });
                for r in 0..n {
                    let want = (r + threads).min(n);
                    if !wait_until(|| tickets.lock().unwrap().len() >= want) {
                        stalled = true;
                        break;
                    }
                    released.store(r + 1, Ordering::Release);
                }
                released.store(usize::MAX, Ordering::Release);
            });
            assert!(
                !stalled,
                "threads={threads}: an item was claimed out of order"
            );
            let tickets = tickets.into_inner().unwrap();
            let mut first: Vec<usize> = tickets[..threads].to_vec();
            first.sort_unstable();
            assert_eq!(first, (0..threads).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(
                tickets[threads..],
                (threads..n).collect::<Vec<_>>()[..],
                "threads={threads}"
            );
            assert_eq!(items, (0..n).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn a_panicking_item_panics_the_call_without_hanging() {
        for threads in [1usize, 2, 4] {
            let mut items = vec![0u64; 16];
            let mutated = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map_mut_with(threads, &mut items, |i, v| {
                    assert_ne!(i, 5, "item 5 fails");
                    *v += 1;
                })
            }));
            assert!(mutated.is_err(), "threads={threads}: par_map_mut_with");
            let indexed = std::panic::catch_unwind(|| {
                par_map_indexed_with(threads, 16, |i| {
                    assert_ne!(i, 5, "item 5 fails");
                    i
                })
            });
            assert!(indexed.is_err(), "threads={threads}: par_map_indexed_with");
        }
    }

    #[test]
    fn par_map_mut_slow_first_item_does_not_hold_back_the_rest() {
        // Item 0 does not finish until every other item has: under the
        // claim loop its worker is the only one held up, and the other
        // worker claims and runs everything else. A static split would
        // leave half the items queued behind item 0 and stall here.
        let n = 32usize;
        let done = AtomicUsize::new(0);
        let mut items: Vec<Option<thread::ThreadId>> = vec![None; n];
        let finished = par_map_mut_with(2, &mut items, |i, who| {
            *who = Some(thread::current().id());
            if i == 0 {
                wait_until(|| done.load(Ordering::Acquire) == n - 1)
            } else {
                done.fetch_add(1, Ordering::AcqRel);
                true
            }
        });
        assert!(finished[0], "item 0 waited on items stuck behind it");
        let slow = items[0].expect("item 0 ran");
        let rest = items[1].expect("item 1 ran");
        assert_ne!(slow, rest);
        assert!(items[1..].iter().all(|w| *w == Some(rest)));
    }

    #[test]
    fn thread_count_override_wins_over_env() {
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(5, || assert_eq!(current_threads(), 5));
            assert_eq!(current_threads(), 3);
        });
        assert!(current_threads() >= 1);
    }
}
