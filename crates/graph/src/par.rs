//! The workspace's one fan-out primitive.
//!
//! Every parallel loop in the workspace — RR sampling, Monte-Carlo spread
//! estimation, per-ad engine initialization and repair, the selection
//! rounds' candidate refresh, terminal accounting — runs through
//! [`steal_blocks`] (or its one-item-per-block wrapper
//! [`par_map_ordered`]). It lives next to [`crate::seed`] for the same
//! reason: every crate can reach it. One module owns the scoped threads,
//! the hardware lookup ([`available_cores`]) and the worker cap
//! ([`MAX_WORKERS`]), and rm-lint's `scoped-threads` rule keeps it that
//! way.
//!
//! Results reach the caller in block order at every worker count, so a
//! caller whose per-block work depends only on the block's index range
//! (per-set or per-item RNG streams, per-ad jobs) gets output that is
//! independent of scheduling.

// INVARIANT(indexing): the only computed index is `slots[k]` in
// `par_map_ordered`, with `k` a block index below `count == slots.len()`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Most workers one fan-out runs, whatever the caller asks for.
pub const MAX_WORKERS: usize = 32;

/// Hardware parallelism (1 when unknown).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// When [`steal_blocks`] hands a parallel call's finished blocks to its
/// consumer. Either way the consumer sees every block once, in block order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handoff {
    /// As they finish: the worker that finishes the next block in order
    /// consumes it, and any finished blocks queued behind it, under a lock,
    /// so only the blocks finished ahead of the consumer are held at once.
    Streamed,
    /// On the calling thread, once every block is done. Each worker holds
    /// its own finished blocks until then.
    Joined,
}

/// Runs `work(lo, hi, ws)` over the `block`-item blocks of `0..count` on
/// up to `threads` workers and hands each result to `consume` in block
/// order, as `handoff` says.
///
/// Workers pull blocks off a shared atomic cursor (work-stealing: a
/// straggler strands at most one block), and each owns one workspace from
/// `make_ws` for its whole share, so an O(n) scratch array is built once
/// per worker, not once per block. The worker count is `threads`, capped
/// at [`MAX_WORKERS`] and at the number of blocks; one worker runs the
/// blocks in order on the calling thread, consuming each as it finishes.
/// A panic in `work` or `consume` propagates to the caller.
pub fn steal_blocks<W, T: Send>(
    count: usize,
    block: usize,
    threads: usize,
    handoff: Handoff,
    make_ws: impl Fn() -> W + Sync,
    work: impl Fn(usize, usize, &mut W) -> T + Sync,
    mut consume: impl FnMut(T) + Send,
) {
    debug_assert!(block > 0, "blocks must hold at least one item");
    let nblocks = count.div_ceil(block);
    let bounds = |b: usize| (b * block, ((b + 1) * block).min(count));
    let threads = threads.min(nblocks).min(MAX_WORKERS);
    if threads <= 1 {
        if nblocks > 0 {
            let mut ws = make_ws();
            for b in 0..nblocks {
                let (lo, hi) = bounds(b);
                consume(work(lo, hi, &mut ws));
            }
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    // The next block to consume, the finished blocks queued behind it,
    // and the consumer.
    let splice = Mutex::new((0usize, BTreeMap::new(), consume));
    let mut held: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, make_ws, work, bounds, splice) =
                    (&cursor, &make_ws, &work, &bounds, &splice);
                scope.spawn(move || {
                    let mut ws = make_ws();
                    let mut held = Vec::new();
                    loop {
                        let b = cursor.fetch_add(1, Ordering::Relaxed);
                        if b >= nblocks {
                            break;
                        }
                        let (lo, hi) = bounds(b);
                        let part = work(lo, hi, &mut ws);
                        if handoff == Handoff::Joined {
                            held.push((b, part));
                            continue;
                        }
                        // INVARIANT: poisoning means a sibling panicked
                        // while consuming; the call is lost, so propagate.
                        let mut guard = splice.lock().expect("fan-out splice lock poisoned");
                        let (next, ahead, consume) = &mut *guard;
                        ahead.insert(b, part);
                        while let Some(part) = ahead.remove(next) {
                            consume(part);
                            *next += 1;
                        }
                    }
                    held
                })
            })
            .collect();
        workers
            .into_iter()
            // INVARIANT: a worker panic leaves the call incomplete;
            // propagating is the only sound response.
            .flat_map(|w| w.join().expect("fan-out worker panicked"))
            .collect()
    });
    held.sort_unstable_by_key(|p| p.0);
    // INVARIANT: every worker has been joined, so no lock holder panicked
    // unnoticed.
    let (mut next, _, mut consume) = splice.into_inner().expect("fan-out splice lock poisoned");
    for (b, part) in held {
        debug_assert_eq!(b, next, "blocks must be consumed in order");
        consume(part);
        next += 1;
    }
    debug_assert_eq!(
        next, nblocks,
        "steal cursor must hand out each block exactly once"
    );
}

/// Maps `f` over `items` on up to `workers` threads, one item per block,
/// and returns the results in item order, whatever the scheduling.
/// `workers <= 1` runs inline.
pub fn par_map_ordered<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let count = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let mut out = Vec::with_capacity(count);
    steal_blocks(
        count,
        1,
        workers,
        Handoff::Joined,
        || (),
        |k, _, _| {
            // INVARIANT: the cursor hands out block `k` once, so its item
            // is still there, and no other worker ever locks its slot.
            let item = slots[k].lock().expect("fan-out item lock poisoned").take();
            f(item.expect("fan-out item taken twice"))
        },
        |r| out.push(r),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The blocks `steal_blocks` consumes, as `(lo, hi, worker-independent
    /// payload)` triples.
    fn consumed(
        count: usize,
        block: usize,
        threads: usize,
        handoff: Handoff,
    ) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        steal_blocks(
            count,
            block,
            threads,
            handoff,
            Vec::<u64>::new,
            |lo, hi, ws| {
                // The workspace is reused across a worker's blocks; the
                // payload must not depend on what it holds.
                ws.clear();
                ws.extend((lo..hi).map(|i| crate::seed::mix64(i as u64)));
                (lo, hi, ws.iter().fold(0, |a, &x| a ^ x))
            },
            |part| out.push(part),
        );
        out
    }

    #[test]
    fn blocks_are_consumed_once_in_order_at_any_worker_count() {
        for (count, block) in [
            (0usize, 4usize),
            (1, 4),
            (12, 4),
            (13, 4),
            (3, 8),
            (1000, 7),
        ] {
            let nblocks = count.div_ceil(block);
            let want: Vec<(usize, usize)> = (0..nblocks)
                .map(|b| (b * block, ((b + 1) * block).min(count)))
                .collect();
            let reference = consumed(count, block, 1, Handoff::Joined);
            for handoff in [Handoff::Streamed, Handoff::Joined] {
                for threads in [1, 2, 8] {
                    let got = consumed(count, block, threads, handoff);
                    let spans: Vec<(usize, usize)> = got.iter().map(|p| (p.0, p.1)).collect();
                    assert_eq!(
                        spans, want,
                        "{handoff:?} at {threads} workers, count {count}"
                    );
                    assert_eq!(
                        got, reference,
                        "{handoff:?} at {threads} workers, count {count}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_map_ordered_keeps_item_order() {
        for count in [0, 1, 2, 3, 17] {
            let want: Vec<u64> = (0..count as u64)
                .map(|i| crate::seed::mix64(i) % 1000)
                .collect();
            for workers in [1, 2, 8] {
                let got = par_map_ordered((0..count as u64).collect(), workers, |i| {
                    crate::seed::mix64(i) % 1000
                });
                assert_eq!(got, want, "{workers} workers, {count} items");
            }
        }
    }

    #[test]
    fn par_map_ordered_moves_mutable_borrows_in() {
        let mut xs = vec![1u32, 2, 3, 4, 5];
        let doubled = par_map_ordered(xs.iter_mut().collect(), 8, |x| {
            *x *= 2;
            *x
        });
        assert_eq!(doubled, vec![2, 4, 6, 8, 10]);
        assert_eq!(xs, doubled);
    }

    #[test]
    fn worker_count_is_capped_by_blocks_and_max_workers() {
        // Each worker builds exactly one workspace.
        for (count, threads, workers) in [
            (0, 8, 0),
            (5, 1, 1),
            (3, 8, 3),
            (100, 10 * MAX_WORKERS, MAX_WORKERS),
        ] {
            let made = AtomicUsize::new(0);
            steal_blocks(
                count,
                1,
                threads,
                Handoff::Joined,
                || made.fetch_add(1, Ordering::Relaxed),
                |lo, _, _| lo,
                |_| {},
            );
            assert_eq!(
                made.into_inner(),
                workers,
                "{count} blocks, {threads} asked"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fan-out worker panicked")]
    fn a_panicking_job_propagates_streamed() {
        consumed_with_panic(Handoff::Streamed);
    }

    #[test]
    #[should_panic(expected = "fan-out worker panicked")]
    fn a_panicking_job_propagates_joined() {
        consumed_with_panic(Handoff::Joined);
    }

    #[test]
    #[should_panic(expected = "fan-out worker panicked")]
    fn a_panicking_map_job_propagates() {
        par_map_ordered((0..16).collect(), 4, |i: u32| {
            assert_ne!(i, 11, "job 11 fails");
            i
        });
    }

    fn consumed_with_panic(handoff: Handoff) {
        steal_blocks(
            64,
            4,
            4,
            handoff,
            || (),
            |lo, _, _| {
                assert_ne!(lo, 20, "block 5 fails");
                lo
            },
            |_| {},
        );
    }
}
