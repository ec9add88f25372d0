//! # eip_exec — deterministic chunked execution
//!
//! The shared execution core behind every parallel hot path of the
//! Entropy/IP workspace: sharded profiling (`NybbleCounts` merges),
//! intra-segment mining (per-shard value histograms merged before
//! thresholding), batched candidate generation, and chunked-source
//! streaming ingestion ([`Scheduler::par_map_feed`]: a sequential
//! producer fanned out in worker-sized batches with bounded
//! lookahead, results consumed in production order).
//!
//! The design contract is **determinism at any worker count**:
//!
//! * work is split into *stable, contiguous* chunks ([`shard_ranges`])
//!   whose order never depends on thread scheduling;
//! * mapped results are joined **in chunk order**, so order-sensitive
//!   consumers observe the serial sequence;
//! * reductions fold shard results left-to-right in shard order, so
//!   any *associative* reduction (all of ours merge exact integer
//!   counts) produces the same value at every worker count.
//!
//! Every fan-out runs on [`std::thread::scope`] threads, so the
//! primitives borrow their inputs — no global state, no unsafe code,
//! no `'static` bounds. A [`Scheduler`] with one worker runs
//! everything inline on the calling thread as a single shard, so the
//! same engine serves every worker count without spawning at one
//! (the shard-equivalence proptests in `entropy-ip` pin every worker
//! count to the serial oracles). For fleet-scale
//! workloads — many concurrent pipeline jobs on one box — a scheduler
//! can instead be attached to a shared thread budget
//! ([`pool::StealPool`], [`Scheduler::shared`]): each fan-out then
//! leases what extra threads the budget has free, and runs inline
//! when it has none, while the shard geometry (and therefore every
//! result) stays exactly what an unattached scheduler produces.
//!
//! The worker count is a *geometry* parameter, not a thread count:
//! it fixes the shard decomposition (and therefore the output), while
//! the number of OS threads actually spawned is clamped to the host's
//! [`available_parallelism`](std::thread::available_parallelism).
//! Oversubscribing a small box — `--jobs 4` in a one-CPU container —
//! therefore costs nothing: the four shards run inline, back to back,
//! producing bit-identical results to the same four shards fanned out
//! over four real cores. [`Scheduler::pinned`] overrides the clamp so
//! tests can exercise the spawning paths on any host.
//!
//! ```
//! use eip_exec::Scheduler;
//!
//! let exec = Scheduler::new(4);
//! // Order-preserving map: same output as the serial iterator.
//! let squares = exec.par_map(&[1u64, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Shard-count-then-merge: sum 0..100 in contiguous shards.
//! let total = exec
//!     .par_map_reduce(
//!         100,
//!         |range| range.map(|i| i as u64).sum::<u64>(),
//!         |acc, part| *acc += part,
//!     )
//!     .unwrap();
//! assert_eq!(total, 4950);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::Arc;
use std::thread;

pub mod fault;
pub mod pool;
pub mod rng;

use pool::StealPool;

/// Splits `0..len` into at most `shards` stable, contiguous,
/// near-equal ranges (the first `len % shards` ranges are one element
/// longer). Returns fewer ranges when `len < shards` — never an empty
/// range — and an empty vector when `len == 0`.
///
/// The boundaries are a pure function of `(len, shards)`, which is
/// what makes sharded work repeatable run to run.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let size = base + usize::from(s < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// A deterministic chunked scheduler: a worker budget (the shard
/// geometry, which fixes the output) plus the fan-out/join primitives
/// the hot paths share. See the [module docs](self) for the
/// determinism contract and for how OS threads relate to workers.
///
/// Three orthogonal knobs, only the first of which affects output:
///
/// * **workers** — the shard geometry. Fixes the decomposition and
///   therefore every result.
/// * **threads** — the scoped-spawn budget ([`Scheduler::new`] clamps
///   it to `available_parallelism`; [`Scheduler::pinned`] overrides).
///   Pure speed.
/// * **pool** — an optional shared thread budget, a [`StealPool`]
///   ([`Scheduler::shared`]). When attached, each fan-out runs on
///   `1 +` the extra threads it can lease from the budget, so a fleet
///   of concurrent jobs never oversubscribes the box. Pure speed: the
///   budget's size is invisible in the output.
#[derive(Clone, Debug)]
pub struct Scheduler {
    workers: usize,
    threads: usize,
    pool: Option<Arc<StealPool>>,
}

impl PartialEq for Scheduler {
    /// Equality is over the *deterministic* configuration — the shard
    /// geometry (`workers`). The thread budget and the attached pool
    /// are speed knobs, not parameters of the output, so two
    /// schedulers that differ only in them (including a host-clamped
    /// `new` against a pool-attached `shared`) compare equal, exactly
    /// as their results do.
    fn eq(&self, other: &Self) -> bool {
        self.workers == other.workers
    }
}

impl Eq for Scheduler {}

impl Default for Scheduler {
    /// A serial scheduler (one worker).
    fn default() -> Self {
        Scheduler::new(1)
    }
}

/// The host's usable CPU count (respects cgroup quotas and CPU
/// affinity masks); 1 if it cannot be determined.
fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

impl Scheduler {
    /// A scheduler with the given worker budget (clamped to ≥ 1).
    /// Spawns at most `min(workers, available_parallelism)` OS
    /// threads — the worker count only fixes the shard geometry, so
    /// requesting more workers than the host has CPUs changes nothing
    /// but how the same shards are interleaved. One worker needs no
    /// clamp, so `new(1)` does not query the host.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Scheduler {
            workers,
            threads: (workers > 1)
                .then(hardware_threads)
                .map_or(1, |hw| workers.min(hw)),
            pool: None,
        }
    }

    /// A scheduler with an explicit OS-thread budget, bypassing the
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// clamp of [`Scheduler::new`]. For tests and benchmarks that
    /// must exercise the spawning paths regardless of host size;
    /// production call sites should use `new`.
    pub fn pinned(workers: usize, threads: usize) -> Self {
        Scheduler {
            workers: workers.max(1),
            threads: threads.max(1),
            pool: None,
        }
    }

    /// A scheduler with the given worker budget (shard geometry)
    /// attached to a shared thread budget. Each fan-out runs on
    /// `1 + lease` threads, where the lease is however many extra
    /// threads (up to `min(workers, pool.workers()) − 1`) the budget
    /// has free at that moment; with none free it runs inline on the
    /// calling job thread. The leases of concurrent jobs never exceed
    /// the budget, so N jobs compute on at most N + `pool.workers()`
    /// threads at once. Composes with the clamp contract of
    /// [`Scheduler::new`]: `workers` still fixes the output, and
    /// neither the budget's size nor what it has free can change any
    /// result.
    pub fn shared(workers: usize, pool: Arc<StealPool>) -> Self {
        let workers = workers.max(1);
        Scheduler {
            workers,
            threads: workers,
            pool: Some(pool),
        }
    }

    /// Whether a shared thread budget is attached.
    #[inline]
    pub fn has_pool(&self) -> bool {
        self.pool.is_some()
    }

    /// The worker budget (the shard geometry).
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The most OS threads one fan-out uses. On a pool-attached
    /// scheduler this is the worker count, and a fan-out gets only as
    /// many of these threads as it can lease.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this scheduler was requested with a single worker: its
    /// one shard runs inline on the caller. The engines need no such
    /// test; the generator reads it to walk its draws lazily instead
    /// of drawing speculative batches. (Distinct from
    /// [`threads`](Scheduler::threads) `== 1`, which only means the
    /// shards of a multi-worker scheduler happen to run inline.)
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// The stable shard decomposition this scheduler uses for `len`
    /// work items (one shard per worker, fewer for tiny inputs).
    pub fn shards(&self, len: usize) -> Vec<Range<usize>> {
        shard_ranges(len, self.workers)
    }

    /// Maps `f` over `0..len`, returning results in index order.
    /// Indices are fanned out in contiguous chunks, one per OS
    /// thread; with one thread the loop runs inline. (The chunking
    /// here is pure load distribution — each index is mapped
    /// independently and results land in index order — so this uses
    /// the thread budget, not the worker-shard geometry.)
    pub fn par_map_indexed<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        concat(self.fan_out(len, <[_]>::to_vec, |r| r.map(&f).collect()))
    }

    /// Maps `f` over a slice, returning results in input order. The
    /// parallel equivalent of `items.iter().map(f).collect()`.
    pub fn par_map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Maps `f` over an owned vector, *consuming* the items, and
    /// returns results in input order — the parallel equivalent of
    /// `items.into_iter().map(f).collect()`. Use this when the mapped
    /// values are expensive to clone (e.g. a merged histogram handed
    /// to a consuming stage).
    pub fn par_map_owned<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let len = items.len();
        // Carve the vector into one owned chunk per thread (splitting
        // from the tail avoids any element shifting), map each chunk
        // on its own thread and flatten in chunk order.
        let carve = |ranges: &[Range<usize>]| {
            let mut tail = items;
            let mut chunks: Vec<Vec<I>> = Vec::with_capacity(ranges.len());
            for range in ranges.iter().skip(1).rev() {
                chunks.push(tail.split_off(range.start));
            }
            chunks.push(tail);
            chunks.reverse();
            chunks
        };
        concat(self.fan_out(len, carve, |chunk| chunk.into_iter().map(&f).collect()))
    }

    /// Sorts a vector by sorting one contiguous run per OS thread,
    /// then merging adjacent sorted runs bottom-up (taking from the
    /// left run on ties). Like
    /// [`sort_unstable`](slice::sort_unstable), the relative order of
    /// *equal* elements is unspecified — so the result is guaranteed
    /// identical to `sort_unstable`, and independent of the worker
    /// and thread counts, for types whose equal elements are
    /// indistinguishable (all the key types this workspace sorts:
    /// `u128`, `Ip6`, lexicographic tuples of them). With one thread
    /// this is plain `sort_unstable`.
    ///
    /// The sorted-key hot paths (candidate evaluation, sharded
    /// population synthesis) sort a million `u128`-keyed items per
    /// run; `Copy` keeps the merge a pair of cursor walks.
    pub fn par_sort_unstable<T>(&self, items: &mut Vec<T>)
    where
        T: Ord + Send + Copy,
    {
        let len = items.len();
        let slice = items.as_mut_slice();
        let carve = move |ranges: &[Range<usize>]| {
            let mut rest = slice;
            let mut chunks = Vec::with_capacity(ranges.len());
            for range in ranges {
                let (chunk, tail) = rest.split_at_mut(range.len());
                chunks.push(chunk);
                rest = tail;
            }
            chunks
        };
        let lens = self.fan_out(len, carve, |chunk: &mut [T]| {
            chunk.sort_unstable();
            chunk.len()
        });
        if lens.len() <= 1 {
            return;
        }
        let mut runs: Vec<(usize, usize)> = Vec::with_capacity(lens.len());
        let mut start = 0;
        for n in lens {
            runs.push((start, start + n));
            start += n;
        }
        // Bottom-up merge of the contiguous sorted runs, ping-ponging
        // through one scratch buffer.
        let mut scratch: Vec<T> = Vec::with_capacity(items.len());
        while runs.len() > 1 {
            scratch.clear();
            let mut next_runs = Vec::with_capacity(runs.len().div_ceil(2));
            for pair in runs.chunks(2) {
                let start = scratch.len();
                if let [a, b] = *pair {
                    let (mut i, mut j) = (a.0, b.0);
                    while i < a.1 && j < b.1 {
                        if items[j] < items[i] {
                            scratch.push(items[j]);
                            j += 1;
                        } else {
                            scratch.push(items[i]);
                            i += 1;
                        }
                    }
                    scratch.extend_from_slice(&items[i..a.1]);
                    scratch.extend_from_slice(&items[j..b.1]);
                } else {
                    scratch.extend_from_slice(&items[pair[0].0..pair[0].1]);
                }
                next_runs.push((start, scratch.len()));
            }
            std::mem::swap(items, &mut scratch);
            runs = next_runs;
        }
    }

    /// Feeds a *sequential* source through parallel mapping with
    /// bounded lookahead: repeatedly pulls up to
    /// [`workers`](Scheduler::workers) items from `produce`, maps the
    /// batch on the scheduler
    /// ([`par_map_owned`](Scheduler::par_map_owned)), and hands each
    /// result to
    /// `consume` **in production order**. At most one batch of items
    /// (plus its mapped results) is alive at a time, so memory stays
    /// O(item size × workers) no matter how long the source runs —
    /// this is the chunked-source contract the streaming ingestion
    /// engine builds on.
    ///
    /// `produce` returns `Ok(Some(item))` to feed one more item,
    /// `Ok(None)` at end of source; an `Err` from `produce` or
    /// `consume` aborts the feed immediately and is returned.
    /// Determinism: batch boundaries are a pure function of the
    /// worker budget and the item sequence, results are consumed in
    /// item order, and `map` runs per item — so any fold `consume`
    /// performs observes the exact serial sequence at every worker
    /// and thread count.
    pub fn par_map_feed<I, T, E, P, M, C>(
        &self,
        mut produce: P,
        map: M,
        mut consume: C,
    ) -> Result<(), E>
    where
        I: Send,
        T: Send,
        P: FnMut() -> Result<Option<I>, E>,
        M: Fn(I) -> T + Sync,
        C: FnMut(T) -> Result<(), E>,
    {
        loop {
            let mut batch: Vec<I> = Vec::with_capacity(self.workers);
            let mut done = false;
            while batch.len() < self.workers {
                match produce()? {
                    Some(item) => batch.push(item),
                    None => {
                        done = true;
                        break;
                    }
                }
            }
            if batch.is_empty() {
                return Ok(());
            }
            for out in self.par_map_owned(batch, &map) {
                consume(out)?;
            }
            if done {
                return Ok(());
            }
        }
    }

    /// Shard-count-then-merge: splits `0..len` into this scheduler's
    /// stable shards, maps every shard with `map`, and folds the
    /// shard results **in shard order** with `reduce`. Returns `None`
    /// for empty input.
    ///
    /// The fold order is fixed, so the result is independent of the
    /// worker count whenever `reduce` is associative — which holds
    /// exactly for the count-merging reductions this workspace uses
    /// (`eip_stats`' `Histogram::merge` / `NybbleCounts::merge`).
    ///
    /// The shard decomposition always follows the *worker* budget —
    /// `map` sees exactly the same ranges at any thread count — while
    /// the shards are executed on at most
    /// [`threads`](Scheduler::threads) OS threads (inline when that
    /// is 1).
    pub fn par_map_reduce<T, M, R>(&self, len: usize, map: M, mut reduce: R) -> Option<T>
    where
        T: Send,
        M: Fn(Range<usize>) -> T + Sync,
        R: FnMut(&mut T, T),
    {
        let shards = self.shards(len);
        let parts = self.par_map_indexed(shards.len(), |i| map(shards[i].clone()));
        let mut parts = parts.into_iter();
        let mut acc = parts.next()?;
        for part in parts {
            reduce(&mut acc, part);
        }
        Some(acc)
    }

    /// The one scoped fan-out behind every primitive. Splits `0..len`
    /// into one contiguous chunk per thread this call gets, has
    /// `carve` turn those ranges into the chunks' work items, runs
    /// `run` on each item on its own scoped thread while the caller
    /// waits, and returns the results in chunk order. A lone item
    /// (one thread, a one-item input, or a shared budget with nothing
    /// free) runs inline. The first panic in chunk order reaches the
    /// caller with its own payload, after every chunk has settled.
    ///
    /// The thread count is [`threads`](Scheduler::threads) for
    /// [`new`](Scheduler::new) and [`pinned`](Scheduler::pinned)
    /// schedulers, and `1 +` the leased extra threads for
    /// [`shared`](Scheduler::shared) ones; the lease returns its
    /// tokens on drop, panics included.
    fn fan_out<J, T>(
        &self,
        len: usize,
        carve: impl FnOnce(&[Range<usize>]) -> Vec<J>,
        run: impl Fn(J) -> T + Sync,
    ) -> Vec<T>
    where
        J: Send,
        T: Send,
    {
        let cap = self.threads.min(len);
        let lease = match &self.pool {
            Some(pool) if cap > 1 => Some(pool.lease(cap - 1)),
            _ => None,
        };
        let threads = lease.as_ref().map_or(cap, |lease| 1 + lease.tokens());
        let items = carve(&shard_ranges(len, threads));
        if items.len() <= 1 {
            return items.into_iter().map(run).collect();
        }
        let run = &run;
        thread::scope(|s| {
            let handles: Vec<_> = items
                .into_iter()
                .map(|item| s.spawn(move || run(item)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }
}

/// Flattens per-chunk results in chunk order; a lone chunk is
/// returned as is.
fn concat<T>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            for shards in 1..=9 {
                let ranges = shard_ranges(len, shards);
                if len == 0 {
                    assert!(ranges.is_empty());
                    continue;
                }
                assert!(ranges.len() <= shards);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                // Near-equal sizes: max - min <= 1, none empty.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(sizes.iter().all(|&s| s > 0));
                assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
            }
        }
    }

    #[test]
    fn shard_ranges_are_stable() {
        assert_eq!(shard_ranges(10, 3), shard_ranges(10, 3));
        assert_eq!(shard_ranges(10, 3), vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn par_map_preserves_order_at_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for workers in 1..=8 {
            let exec = Scheduler::new(workers);
            assert_eq!(exec.par_map(&items, |&x| x * 3 + 1), expect);
            let indexed = exec.par_map_indexed(items.len(), |i| items[i] * 3 + 1);
            assert_eq!(indexed, expect);
        }
    }

    #[test]
    fn par_map_owned_consumes_in_order() {
        // Non-Clone payloads prove items are moved, not copied.
        struct NoClone(u64);
        let expect: Vec<u64> = (0..101).map(|x| x * 2).collect();
        for workers in 1..=8 {
            let items: Vec<NoClone> = (0..101).map(NoClone).collect();
            let out = Scheduler::new(workers).par_map_owned(items, |i| i.0 * 2);
            assert_eq!(out, expect, "{workers} workers");
        }
        assert!(Scheduler::new(3)
            .par_map_owned(Vec::<u8>::new(), |x| x)
            .is_empty());
    }

    #[test]
    fn par_map_reduce_is_worker_count_independent() {
        let serial = Scheduler::new(1)
            .par_map_reduce(1000, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b)
            .unwrap();
        for workers in 2..=8 {
            let parallel = Scheduler::new(workers)
                .par_map_reduce(1000, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b)
                .unwrap();
            assert_eq!(parallel, serial);
        }
    }

    #[test]
    fn par_sort_matches_sort_unstable() {
        // Pseudo-random, duplicate-heavy input at sizes around shard
        // boundaries.
        for len in [0usize, 1, 2, 3, 7, 64, 1000, 4097] {
            let mut expect: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % 97)
                .collect();
            expect.sort_unstable();
            for workers in 1..=8 {
                let mut v: Vec<u64> = (0..len as u64)
                    .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) % 97)
                    .collect();
                Scheduler::new(workers).par_sort_unstable(&mut v);
                assert_eq!(v, expect, "len {len}, {workers} workers");
            }
        }
    }

    #[test]
    fn par_map_feed_consumes_in_order_at_any_worker_count() {
        for workers in 1..=8 {
            let mut next = 0u64;
            let mut seen: Vec<u64> = Vec::new();
            Scheduler::new(workers)
                .par_map_feed(
                    || {
                        next += 1;
                        Ok::<_, ()>(if next <= 23 { Some(next) } else { None })
                    },
                    |x| x * 10,
                    |out| {
                        seen.push(out);
                        Ok(())
                    },
                )
                .unwrap();
            let expect: Vec<u64> = (1..=23).map(|x| x * 10).collect();
            assert_eq!(seen, expect, "{workers} workers");
        }
    }

    #[test]
    fn par_map_feed_bounds_lookahead_and_propagates_errors() {
        // Producer error surfaces immediately.
        let err: Result<(), &str> =
            Scheduler::new(4).par_map_feed(|| Err::<Option<u8>, _>("boom"), |x| x, |_| Ok(()));
        assert_eq!(err, Err("boom"));
        // Consumer error aborts mid-feed; the producer is never asked
        // for more than one extra batch of lookahead.
        let mut produced = 0u32;
        let err: Result<(), &str> = Scheduler::new(2).par_map_feed(
            || {
                produced += 1;
                Ok(Some(produced))
            },
            |x| x,
            |x| if x >= 2 { Err("stop") } else { Ok(()) },
        );
        assert_eq!(err, Err("stop"));
        assert!(produced <= 4, "unbounded lookahead: produced {produced}");
        // Empty source is fine.
        let ok: Result<(), ()> =
            Scheduler::new(3).par_map_feed(|| Ok(None::<u8>), |x| x, |_| panic!("no items"));
        assert_eq!(ok, Ok(()));
    }

    #[test]
    fn empty_inputs() {
        let exec = Scheduler::new(4);
        assert!(exec.par_map(&[] as &[u8], |_| 0u8).is_empty());
        assert!(exec.par_map_indexed(0, |i| i).is_empty());
        assert_eq!(exec.par_map_reduce(0, |_| 0u64, |a, b| *a += b), None);
    }

    #[test]
    fn worker_budget_clamps_to_one() {
        assert_eq!(Scheduler::new(0).workers(), 1);
        assert!(Scheduler::new(0).is_serial());
        assert!(!Scheduler::new(2).is_serial());
        assert_eq!(Scheduler::default(), Scheduler::new(1));
    }

    #[test]
    fn thread_budget_clamps_to_hardware_but_keeps_geometry() {
        let exec = Scheduler::new(64);
        assert_eq!(exec.workers(), 64);
        assert!(exec.threads() <= 64);
        assert!(exec.threads() >= 1);
        // The shard geometry ignores the thread clamp entirely.
        assert_eq!(exec.shards(1024).len(), 64);
        assert_eq!(Scheduler::pinned(4, 9).threads(), 9);
    }

    #[test]
    fn pinned_threads_match_inline_results() {
        // Force real spawning (even on a one-CPU host) at thread
        // counts below, equal to, and above the worker count; every
        // primitive must match its inline result exactly.
        let items: Vec<u64> = (0..1013).collect();
        let expect_map: Vec<u64> = items.iter().map(|&x| x ^ 0x5a).collect();
        let mut expect_sorted: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) % 251).collect();
        expect_sorted.sort_unstable();
        let expect_reduce = Scheduler::new(4)
            .par_map_reduce(1013, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b)
            .unwrap();
        for threads in [2usize, 4, 7] {
            let exec = Scheduler::pinned(4, threads);
            assert_eq!(exec.par_map(&items, |&x| x ^ 0x5a), expect_map);
            let owned: Vec<u64> = items.clone();
            assert_eq!(exec.par_map_owned(owned, |x| x ^ 0x5a), expect_map);
            let mut v: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) % 251).collect();
            exec.par_sort_unstable(&mut v);
            assert_eq!(v, expect_sorted);
            assert_eq!(
                exec.par_map_reduce(1013, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b),
                Some(expect_reduce),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn shared_scheduler_composes_with_clamp_and_pinning() {
        // Worker budget = shard geometry (output); the shared budget's
        // size and the thread clamp are speed-only.
        let pool = Arc::new(StealPool::new(3));
        let exec = Scheduler::shared(4, Arc::clone(&pool));
        assert_eq!(exec.workers(), 4);
        assert!(exec.has_pool());
        assert!(!Scheduler::new(4).has_pool());
        // Geometry ignores both the budget size and the clamp.
        assert_eq!(exec.shards(1024).len(), 4);
        assert_eq!(exec.shards(1024), Scheduler::new(4).shards(1024));
        assert_eq!(exec.shards(1024), Scheduler::pinned(4, 9).shards(1024));
        // Equality is over the deterministic configuration only: the
        // shard geometry, not the pool or the (host-clamped) threads.
        assert_eq!(exec, Scheduler::shared(4, Arc::new(StealPool::new(1))));
        assert_eq!(exec.clone(), exec);
        assert_eq!(exec, Scheduler::new(4));
        assert_eq!(Scheduler::pinned(4, 1), Scheduler::pinned(4, 9));
    }

    #[test]
    fn shared_budget_matches_scoped_at_any_pool_size() {
        let items: Vec<u64> = (0..1013).collect();
        let expect_map: Vec<u64> = items.iter().map(|&x| x ^ 0x5a).collect();
        let mut expect_sorted: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) % 251).collect();
        expect_sorted.sort_unstable();
        let expect = Scheduler::new(1)
            .par_map_reduce(1000, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b)
            .unwrap();
        for pool_size in [1usize, 2, 7, 8] {
            let pool = Arc::new(StealPool::new(pool_size));
            for workers in [1usize, 3, 8] {
                let exec = Scheduler::shared(workers, Arc::clone(&pool));
                let got = exec
                    .par_map_reduce(1000, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b)
                    .unwrap();
                assert_eq!(got, expect, "pool {pool_size}, workers {workers}");
                assert_eq!(exec.par_map(&items, |&x| x ^ 0x5a), expect_map);
                assert_eq!(exec.par_map_owned(items.clone(), |x| x ^ 0x5a), expect_map);
                let mut v: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31) % 251).collect();
                exec.par_sort_unstable(&mut v);
                assert_eq!(v, expect_sorted, "pool {pool_size}, workers {workers}");
            }
        }
        assert_eq!(
            Scheduler::shared(3, Arc::new(StealPool::new(2))).par_map_reduce(
                0,
                |_| 0u64,
                |a, b| *a += b
            ),
            None
        );
    }

    #[test]
    fn tiny_inputs_use_fewer_shards_than_workers() {
        let exec = Scheduler::new(8);
        assert_eq!(exec.shards(3).len(), 3);
        assert_eq!(exec.par_map(&[5u8, 6, 7], |&x| x + 1), vec![6, 7, 8]);
    }
}
