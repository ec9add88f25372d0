//! A shared thread budget for concurrent pipeline jobs.
//!
//! The fan-out primitives of [`Scheduler`](crate::Scheduler) spawn
//! scoped threads per call, so they can borrow their inputs. Running
//! many pipelines concurrently on them would oversubscribe the box:
//! each job would size its fan-outs as if it were alone. A
//! [`StealPool`] is the fleet-scale answer: one budget of `workers`
//! thread tokens, shared by every scheduler attached to it
//! ([`Scheduler::shared`](crate::Scheduler::shared)).
//!
//! ## Leasing
//!
//! Each fan-out on a pool-attached scheduler leases up to
//! `workers − 1` tokens without blocking and runs its chunks on
//! `1 + lease` scoped threads. When no token is left it runs inline
//! on the calling job thread, so a job always makes progress however
//! busy its neighbours are. The lease is a drop guard: its tokens go
//! back when the fan-out returns, or when a panicking shard unwinds
//! out of it.
//!
//! ## Determinism
//!
//! The lease decides only how many threads run a fan-out, never what
//! it computes: the shard geometry follows the scheduler's worker
//! count, and results are joined in chunk order. Every consumer
//! therefore stays byte-identical to its solo serial run at any pool
//! size and any number of concurrent jobs (pinned by the multi-job
//! determinism suite and the budget-storm proptests).
//!
//! The type keeps its historical name; nothing is stolen any more.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Lifetime counters for the pool, each monotonic. Snapshot via
/// [`StealPool::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fan-outs run by schedulers attached to the pool.
    pub jobs: u64,
    /// Chunks run on spawned threads.
    pub executed: u64,
    /// Always 0: the pool no longer steals. Kept so existing readers
    /// of the counters still compile.
    pub stolen: u64,
    /// Chunks the calling thread ran inline because no token was
    /// free.
    pub caller_ran: u64,
}

/// A budget of `workers` thread tokens shared by concurrent jobs. See
/// the [module docs](self) for the leasing rule and the determinism
/// contract.
#[derive(Debug)]
pub struct StealPool {
    workers: usize,
    /// Tokens not leased right now. Like the counters below it is
    /// updated `Relaxed`: it publishes no other data.
    free: AtomicUsize,
    jobs: AtomicU64,
    executed: AtomicU64,
    caller_ran: AtomicU64,
}

impl StealPool {
    /// A budget of exactly `workers` tokens (clamped to ≥ 1). Unlike
    /// [`Scheduler::new`](crate::Scheduler::new) this is not clamped
    /// to `available_parallelism`: the budget is an explicit
    /// machine-level resource its owner sizes once, and tests must be
    /// able to build oversized budgets on small hosts.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        StealPool {
            workers,
            free: AtomicUsize::new(workers),
            jobs: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            caller_ran: AtomicU64::new(0),
        }
    }

    /// The fixed token count.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the lifetime counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            jobs: self.jobs.load(Ordering::Relaxed),
            executed: self.executed.load(Ordering::Relaxed),
            stolen: 0,
            caller_ran: self.caller_ran.load(Ordering::Relaxed),
        }
    }

    /// Leases up to `want` extra threads for one fan-out (at most
    /// `workers − 1`), without blocking. The fan-out then runs one
    /// chunk per thread on `1 + tokens` threads, spawned when that is
    /// more than one, which is what the counters record.
    pub(crate) fn lease(&self, want: usize) -> Lease<'_> {
        let want = want.min(self.workers - 1);
        let free = self
            .free
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                Some(free - free.min(want))
            })
            .expect("the update always succeeds");
        let tokens = free.min(want);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        if tokens == 0 {
            self.caller_ran.fetch_add(1, Ordering::Relaxed);
        } else {
            self.executed
                .fetch_add(tokens as u64 + 1, Ordering::Relaxed);
        }
        Lease { pool: self, tokens }
    }
}

/// Tokens leased from a [`StealPool`]; they return to the budget on
/// drop, including when a shard's panic unwinds through the fan-out.
pub(crate) struct Lease<'p> {
    pool: &'p StealPool,
    tokens: usize,
}

impl Lease<'_> {
    /// The extra threads this lease grants.
    #[inline]
    pub(crate) fn tokens(&self) -> usize {
        self.tokens
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.pool.free.fetch_add(self.tokens, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scheduler;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// Sum of `0..len` on `exec`, through the reduction primitive.
    fn sum(exec: &Scheduler, len: usize) -> Option<u64> {
        exec.par_map_reduce(len, |r| r.map(|i| i as u64).sum::<u64>(), |a, b| *a += b)
    }

    /// How many chunks the next fan-out over `len` items on a fresh
    /// scheduler of `workers` runs, read off the counters.
    fn next_fan_out_chunks(pool: &Arc<StealPool>, workers: usize, len: usize) -> u64 {
        let before = pool.stats();
        let exec = Scheduler::shared(workers, Arc::clone(pool));
        assert_eq!(
            exec.par_map_indexed(len, |i| i),
            (0..len).collect::<Vec<_>>()
        );
        let after = pool.stats();
        (after.executed - before.executed) + (after.caller_ran - before.caller_ran)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [1usize, 2, 7, 8] {
            let exec = Scheduler::shared(workers, Arc::new(StealPool::new(workers)));
            let out = exec.par_map_indexed(100, |i| i * 3);
            assert_eq!(
                out,
                (0..100usize).map(|i| i * 3).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn many_small_jobs_settle_on_multi_worker_pools() {
        // Many short fan-outs racing for the same tokens; the watchdog
        // turns a leaked token or a stuck join into a failure.
        let (tx, rx) = std::sync::mpsc::channel();
        let jobs = thread::spawn(move || {
            for workers in 2..=8usize {
                let pool = Arc::new(StealPool::new(workers));
                let jobs: Vec<_> = (0..2usize)
                    .map(|job| {
                        let exec = Scheduler::shared(workers, Arc::clone(&pool));
                        thread::spawn(move || {
                            for round in 0..100usize {
                                let base = job * 1000 + round;
                                let out = exec.par_map_indexed(16, |i| base + i);
                                assert_eq!(out, (base..base + 16).collect::<Vec<_>>());
                            }
                        })
                    })
                    .collect();
                for job in jobs {
                    job.join().expect("job thread");
                }
                assert_eq!(pool.free.load(Ordering::Relaxed), workers);
            }
            tx.send(()).expect("watchdog listening");
        });
        let outcome = rx.recv_timeout(Duration::from_secs(60));
        assert!(outcome.is_ok(), "jobs did not all settle: {outcome:?}");
        jobs.join().expect("job thread");
    }

    #[test]
    fn empty_job_returns_immediately() {
        let pool = Arc::new(StealPool::new(2));
        let exec = Scheduler::shared(4, Arc::clone(&pool));
        assert!(exec.par_map_indexed(0, |i| i).is_empty());
        assert_eq!(sum(&exec, 0), None);
        assert_eq!(pool.stats().jobs, 0);
    }

    #[test]
    fn concurrent_jobs_share_the_pool_without_cross_talk() {
        // Eight jobs on a two-token budget, each mapping its own
        // items; every job must see exactly its own results.
        let pool = Arc::new(StealPool::new(2));
        let jobs: Vec<_> = (0..8u64)
            .map(|job| {
                let exec = Scheduler::shared(4, Arc::clone(&pool));
                thread::spawn(move || {
                    let out = exec.par_map_indexed(40, |i| job * 1000 + i as u64);
                    assert_eq!(out, (0..40u64).map(|i| job * 1000 + i).collect::<Vec<_>>());
                })
            })
            .collect();
        for job in jobs {
            job.join().expect("job thread");
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs, 8);
        assert_eq!(stats.stolen, 0);
        assert!(
            stats.executed + stats.caller_ran >= 8,
            "every job ran at least one chunk: {stats:?}"
        );
        assert_eq!(pool.free.load(Ordering::Relaxed), 2, "every token is back");
    }

    #[test]
    fn exhausted_budget_runs_inline_and_completes() {
        // Another job holds every token: the fan-out must neither
        // block nor spawn, and still return the full result.
        let pool = Arc::new(StealPool::new(3));
        let held = [pool.lease(usize::MAX), pool.lease(usize::MAX)];
        assert_eq!(held.iter().map(Lease::tokens).sum::<usize>(), 3);
        let before = pool.stats();
        let exec = Scheduler::shared(4, Arc::clone(&pool));
        assert_eq!(sum(&exec, 1000), Some(499_500));
        let after = pool.stats();
        assert_eq!(after.executed, before.executed, "nothing spawned");
        assert_eq!(after.caller_ran, before.caller_ran + 1);
        drop(held);
        assert_eq!(next_fan_out_chunks(&pool, 4, 1000), 3);
    }

    #[test]
    fn panicking_task_is_contained_and_reraised() {
        let pool = Arc::new(StealPool::new(2));
        let exec = Scheduler::shared(3, Arc::clone(&pool));
        let outcome = thread::spawn(move || {
            exec.par_map_indexed(3, |i| {
                if i == 1 {
                    panic!("shard exploded");
                }
                i
            })
        })
        .join();
        let payload = outcome.expect_err("panic must reach the submitting caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("shard exploded"), "{msg}");
        // The budget survives for the next job.
        let exec = Scheduler::shared(3, Arc::clone(&pool));
        assert_eq!(exec.par_map_indexed(3, |i| i + 7), vec![7, 8, 9]);
    }

    #[test]
    fn panicking_shard_returns_its_lease() {
        // A shard panics while its fan-out holds every token it could
        // lease; unwinding must give them back, so the next fan-out
        // gets the full budget again.
        let pool = Arc::new(StealPool::new(4));
        assert_eq!(next_fan_out_chunks(&pool, 4, 100), 4);
        for _ in 0..3 {
            let exec = Scheduler::shared(4, Arc::clone(&pool));
            let outcome = thread::spawn(move || {
                exec.par_map_reduce(100, |r| assert!(r.start == 0, "shard exploded"), |_, ()| ())
            })
            .join();
            assert!(outcome.is_err(), "the panic reached the caller");
            assert_eq!(next_fan_out_chunks(&pool, 4, 100), 4, "full budget again");
        }
    }

    #[test]
    fn oversized_pools_are_allowed() {
        // Unlike Scheduler::new, the budget is not clamped to the
        // host: a 9-token budget on a 1-CPU box must still work.
        let pool = Arc::new(StealPool::new(9));
        assert_eq!(pool.workers(), 9);
        let exec = Scheduler::shared(9, Arc::clone(&pool));
        assert_eq!(
            exec.par_map_indexed(30, |i| i + 1),
            (1..=30).collect::<Vec<_>>()
        );
        assert_eq!(pool.stats().executed, 9);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let pool = Arc::new(StealPool::new(0));
        assert_eq!(pool.workers(), 1);
        // One token leaves no extra thread to lease: runs inline.
        let exec = Scheduler::shared(4, Arc::clone(&pool));
        assert_eq!(sum(&exec, 10), Some(45));
        assert_eq!(pool.stats().caller_ran, 1);
        assert_eq!(pool.stats().executed, 0);
    }
}
