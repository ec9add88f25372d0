//! Budget-storm proptests: concurrent jobs with randomized shard
//! durations on randomized shared thread budgets must compute exactly
//! what the serial scheduler computes, and hand every leased token
//! back.
//!
//! Shard durations are randomized via the deterministic fault plan
//! ([`eip_exec::fault::FaultPlan`]): each shard consults the plan at
//! its own index and sleeps when the plan injects a delay, so a given
//! proptest case replays the same storm every run while still
//! covering slow-shard skew and jobs racing for the last tokens.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use eip_exec::fault::FaultPlan;
use eip_exec::pool::StealPool;
use eip_exec::Scheduler;
use proptest::prelude::*;

/// Stream id for the storm's delay draws (see `eip_exec::rng`).
const STORM_STREAM: u64 = 0x0073_746d; // "stm"

/// Sleeps when the plan injects a delay at `index`.
fn maybe_stall(plan: &FaultPlan, index: u64) {
    if plan.decide(index).is_some() {
        thread::sleep(Duration::from_micros(200));
    }
}

/// One job's work: a reduction, a sort and an owned map over `len`
/// items, keyed by `job` so no two jobs compute the same values.
fn job_outputs(
    exec: &Scheduler,
    plan: &FaultPlan,
    job: u64,
    len: usize,
) -> (Option<u64>, Vec<u64>, Vec<u64>) {
    let key = |i: u64| (i ^ job.wrapping_mul(0x9e37_79b9)).wrapping_mul(0x2545_f491) % 1009;
    let sum = exec.par_map_reduce(
        len,
        |r| {
            maybe_stall(plan, r.start as u64);
            r.map(|i| key(i as u64)).sum::<u64>()
        },
        |a, b| *a = a.wrapping_add(b),
    );
    let mut sorted: Vec<u64> = (0..len as u64).map(key).collect();
    exec.par_sort_unstable(&mut sorted);
    let mapped = exec.par_map_owned((0..len as u64).collect(), |i| {
        maybe_stall(plan, i);
        key(i) + job
    });
    (sum, sorted, mapped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Nothing lost or duplicated under a storm: 2–4 concurrent jobs
    /// on one budget each get exactly their serial results, and once
    /// the storm is over the next fan-out gets the whole budget back.
    #[test]
    fn storm_loses_nothing(
        pool_size in 1usize..9,
        jobs in 2u64..5,
        workers in 1usize..9,
        len in 0usize..400,
        seed in 0u64..1000,
    ) {
        let plan = FaultPlan::new(seed, STORM_STREAM).with_delays(300, 200);
        let pool = Arc::new(StealPool::new(pool_size));
        let serial = Scheduler::new(1);
        let handles: Vec<_> = (0..jobs)
            .map(|job| {
                let exec = Scheduler::shared(workers, Arc::clone(&pool));
                thread::spawn(move || job_outputs(&exec, &plan, job, len))
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("job thread"))
            .collect();
        for (job, got) in (0..jobs).zip(results) {
            prop_assert_eq!(got, job_outputs(&serial, &plan, job, len), "job {}", job);
        }
        prop_assert_eq!(pool.stats().stolen, 0);
        // Every token is back: a fan-out wider than the budget runs
        // on all of it.
        let before = pool.stats();
        let exec = Scheduler::shared(8, Arc::clone(&pool));
        prop_assert_eq!(exec.par_map_indexed(64, |i| i), (0..64).collect::<Vec<_>>());
        let after = pool.stats();
        let chunks = (after.executed - before.executed) + (after.caller_ran - before.caller_ran);
        prop_assert_eq!(chunks, pool_size as u64);
    }

    /// The reduction primitive under the same storm: random geometry,
    /// random budget size, injected delays — the fold must equal the
    /// serial reference every time.
    #[test]
    fn storm_reductions_match_serial(
        pool_size in 1usize..8,
        workers in 1usize..16,
        len in 0usize..5000,
        seed in 0u64..1000,
    ) {
        let plan = FaultPlan::new(seed, STORM_STREAM).with_delays(250, 150);
        let expect = Scheduler::new(1).par_map_reduce(
            len,
            |r| r.map(|i| (i as u64).wrapping_mul(0x9e37)).sum::<u64>(),
            |a, b| *a = a.wrapping_add(b),
        );
        let exec = Scheduler::shared(workers, Arc::new(StealPool::new(pool_size)));
        let got = exec.par_map_reduce(
            len,
            |r| {
                maybe_stall(&plan, r.start as u64);
                r.map(|i| (i as u64).wrapping_mul(0x9e37)).sum::<u64>()
            },
            |a, b| *a = a.wrapping_add(b),
        );
        prop_assert_eq!(got, expect);
    }
}
