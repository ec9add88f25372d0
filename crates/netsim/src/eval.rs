//! Scanning-campaign evaluation (the bookkeeping behind Tables 4–6).
//!
//! §5.5's protocol: train a model on 1K addresses, generate 1M
//! candidates, then count
//!
//! * **Test set** — candidates present in the held-out remainder of
//!   the dataset;
//! * **Ping** — candidates answering an ICMPv6 echo;
//! * **rDNS** — candidates with a genuine reverse-DNS record;
//! * **Overall** — candidates passing at least one of the three
//!   tests, and the success rate = overall / generated;
//! * **New /64s** — /64 prefixes among the hits that were absent from
//!   the training sample.
//!
//! ## Sort-join instead of hashing
//!
//! At the paper's native scale ([`crate::eval`] sees a million
//! candidates per run) the original `HashSet` bookkeeping — hash the
//! training /64s, hash every hit's /64 — was the hot spot, and a
//! binary search per candidate into each of the test, active, rDNS
//! and training-/64 arrays was little better: every probe missed the
//! cache. The counters are now a *sort-merge join over `u128` keys*.
//! The candidate scan shards on an [`eip_exec::Scheduler`]; each
//! shard sorts its own candidates and walks the four sorted sets
//! (training /64s come pre-sorted from [`AddressSet::slash64s`]) with
//! forward cursors. Because a /64 prefix is the top 64 bits, sorted
//! candidates give sorted prefixes, so each shard emits its new /64s
//! already distinct; counters merge by addition, and the prefix lists
//! concatenate in shard order before one global sort-and-dedup. The
//! outcome is therefore identical at any worker count. The original
//! hashing implementation survives as [`evaluate_scan_reference`],
//! the oracle the sort-join path is verified against (see
//! `tests/proptests.rs`).

use std::collections::HashSet;

use eip_addr::{AddressSet, Ip6};
use eip_exec::Scheduler;

use crate::responder::Responder;

/// The counters of one scanning evaluation (one row of Table 4).
#[derive(Clone, Debug, Default)]
pub struct ScanOutcome {
    /// Candidates generated.
    pub generated: usize,
    /// Hits against the held-out test set.
    pub test_hits: usize,
    /// Candidates answering ping.
    pub ping_hits: usize,
    /// Candidates with reverse DNS.
    pub rdns_hits: usize,
    /// Candidates passing at least one test.
    pub overall: usize,
    /// Distinct /64s among overall hits that were not in training.
    pub new_slash64: usize,
}

impl ScanOutcome {
    /// Success rate = overall / generated (0 if nothing generated).
    pub fn success_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.overall as f64 / self.generated as f64
        }
    }
}

/// Evaluates a candidate list against the held-out test set and the
/// responder, counting new /64s relative to the training sample —
/// serially, via the sort-join core. Equivalent to
/// [`evaluate_scan_sharded`] with a serial scheduler.
pub fn evaluate_scan(
    candidates: &[Ip6],
    training: &AddressSet,
    test: &AddressSet,
    responder: &Responder,
) -> ScanOutcome {
    evaluate_scan_sharded(candidates, training, test, responder, &Scheduler::default())
}

/// [`evaluate_scan`] with the candidate scan fanned out on a
/// scheduler, as a per-shard sort-merge join. Each shard copies and
/// sorts its slice of candidates, then walks the test set, the
/// responder's active and rDNS sets and the training /64s with
/// forward cursors, each starting at the partition point of the
/// shard's smallest key. Ping verdicts apply the responder's fault
/// rules exactly as [`Responder::ping`] does, and the responder's
/// probe counter grows by `candidates.len()` once per call. Shard
/// counters merge by addition and the new-/64 dedup runs globally
/// over sorted keys, so the outcome is identical at any worker count.
pub fn evaluate_scan_sharded(
    candidates: &[Ip6],
    training: &AddressSet,
    test: &AddressSet,
    responder: &Responder,
    exec: &Scheduler,
) -> ScanOutcome {
    /// Per-shard counters plus the shard's distinct hit /64s outside
    /// training, in ascending order.
    struct Shard {
        test_hits: usize,
        ping_hits: usize,
        rdns_hits: usize,
        overall: usize,
        new64: Vec<Ip6>,
    }
    responder.count_probes(candidates.len());
    let train64: Vec<Ip6> = training.slash64s();
    let merged = exec.par_map_reduce(
        candidates.len(),
        |range| {
            let mut keys = candidates[range].to_vec();
            keys.sort_unstable();
            let lo = keys.first().copied().unwrap_or(Ip6(0));
            let mut in_test = Cursor::new(test.as_slice(), lo);
            let mut active = Cursor::new(responder.active().as_slice(), lo);
            let mut rdns = Cursor::new(responder.rdns_hosts().as_slice(), lo);
            let mut known64 = Cursor::new(&train64, lo.slash64());
            let mut s = Shard {
                test_hits: 0,
                ping_hits: 0,
                rdns_hits: 0,
                overall: 0,
                new64: Vec::new(),
            };
            for &ip in &keys {
                let t = in_test.seek(ip);
                let p = responder.verdict(ip, active.seek(ip));
                let r = rdns.seek(ip);
                s.test_hits += usize::from(t);
                s.ping_hits += usize::from(p);
                s.rdns_hits += usize::from(r);
                if t || p || r {
                    s.overall += 1;
                    let p64 = ip.slash64();
                    if !known64.seek(p64) && s.new64.last() != Some(&p64) {
                        s.new64.push(p64);
                    }
                }
            }
            s
        },
        |acc, part| {
            acc.test_hits += part.test_hits;
            acc.ping_hits += part.ping_hits;
            acc.rdns_hits += part.rdns_hits;
            acc.overall += part.overall;
            acc.new64.extend_from_slice(&part.new64);
        },
    );
    let mut out = ScanOutcome {
        generated: candidates.len(),
        ..Default::default()
    };
    if let Some(mut merged) = merged {
        out.test_hits = merged.test_hits;
        out.ping_hits = merged.ping_hits;
        out.rdns_hits = merged.rdns_hits;
        out.overall = merged.overall;
        merged.new64.sort_unstable();
        merged.new64.dedup();
        out.new_slash64 = merged.new64.len();
    }
    out
}

/// A forward-only membership cursor over a sorted slice, for probing
/// it with non-decreasing keys.
struct Cursor<'a> {
    keys: &'a [Ip6],
    at: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the first element not below `lo`.
    fn new(keys: &'a [Ip6], lo: Ip6) -> Self {
        Cursor {
            at: keys.partition_point(|&k| k < lo),
            keys,
        }
    }

    /// Whether `key` is in the slice. Keys must not decrease from one
    /// call to the next.
    fn seek(&mut self, key: Ip6) -> bool {
        while self.keys.get(self.at).is_some_and(|&k| k < key) {
            self.at += 1;
        }
        self.keys.get(self.at) == Some(&key)
    }
}

/// The original `HashSet`-based evaluation, kept verbatim as the
/// oracle the sort-join path is verified against (equivalence
/// proptests in `tests/proptests.rs`). Prefer [`evaluate_scan`].
pub fn evaluate_scan_reference(
    candidates: &[Ip6],
    training: &AddressSet,
    test: &AddressSet,
    responder: &Responder,
) -> ScanOutcome {
    let train64: HashSet<Ip6> = training.iter().map(|ip| ip.slash64()).collect();
    let mut out = ScanOutcome {
        generated: candidates.len(),
        ..Default::default()
    };
    let mut new64: HashSet<Ip6> = HashSet::new();
    for &ip in candidates {
        let in_test = test.contains(ip);
        let ping = responder.ping(ip);
        let rdns = responder.rdns(ip);
        if in_test {
            out.test_hits += 1;
        }
        if ping {
            out.ping_hits += 1;
        }
        if rdns {
            out.rdns_hits += 1;
        }
        if in_test || ping || rdns {
            out.overall += 1;
            let p64 = ip.slash64();
            if !train64.contains(&p64) {
                new64.insert(p64);
            }
        }
    }
    out.new_slash64 = new64.len();
    out
}

/// In-sample adherence of a candidate batch: how many candidates land
/// back inside the (training) population, and how many *distinct*
/// /64s the rest open up. This is the `repro --full` evaluate stage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Adherence {
    /// Candidates present in the population.
    pub hits: usize,
    /// Candidates whose /64 prefix is present in the population —
    /// the "aiming at the right subnets" counter. For populations
    /// with wide pseudo-random IIDs (the paper's S1), exact `hits`
    /// are vanishingly rare no matter how good the model is
    /// (collision odds ~2⁻⁶⁴ per candidate), so this is the metric
    /// that distinguishes *structure learned, IID space huge* from
    /// *model aiming nowhere*.
    pub slash64_hits: usize,
    /// Distinct candidate /64s absent from the population's /64s.
    pub new_slash64: usize,
}

/// Computes [`Adherence`] by sort-merge-join: the candidate keys are
/// sorted once (sharded on the scheduler, identical at any worker
/// count), then one streaming two-pointer pass against the sorted
/// population — and, since `/64` prefixes are the *top* 64 bits, the
/// sorted candidates' prefixes are already sorted too, so the same
/// pass merge-joins them against the population's pre-sorted /64 list
/// and counts distinct misses. No hashing, no tree, no per-candidate
/// binary search into a cache-cold megabyte array.
pub fn population_adherence(
    candidates: &[Ip6],
    population: &AddressSet,
    exec: &Scheduler,
) -> Adherence {
    let mut keys: Vec<Ip6> = candidates.to_vec();
    exec.par_sort_unstable(&mut keys);
    let pop = population.as_slice();
    let pop64: Vec<Ip6> = population.slash64s();
    let mut hits = 0usize;
    let mut hits64 = 0usize;
    let mut new64 = 0usize;
    let mut pi = 0usize; // cursor into pop
    let mut qi = 0usize; // cursor into pop64
    let mut last_new: Option<Ip6> = None;
    for &ip in &keys {
        while pi < pop.len() && pop[pi] < ip {
            pi += 1;
        }
        hits += usize::from(pi < pop.len() && pop[pi] == ip);
        let p64 = ip.slash64();
        while qi < pop64.len() && pop64[qi] < p64 {
            qi += 1;
        }
        let known = qi < pop64.len() && pop64[qi] == p64;
        hits64 += usize::from(known);
        if !known && last_new != Some(p64) {
            new64 += 1;
            last_new = Some(p64);
        }
    }
    Adherence {
        hits,
        slash64_hits: hits64,
        new_slash64: new64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(i: u128) -> Ip6 {
        Ip6((0x2001_0db8u128 << 96) | i)
    }

    #[test]
    fn counts_each_test_independently() {
        let training: AddressSet = (0..10u128).map(base).collect();
        let test: AddressSet = (10..20u128).map(base).collect();
        // Active = training + test (the usual situation).
        let responder = Responder::new(training.union(&test), 1.0, 1);
        let candidates = vec![base(11), base(5000), base(12)];
        let o = evaluate_scan(&candidates, &training, &test, &responder);
        assert_eq!(o.generated, 3);
        assert_eq!(o.test_hits, 2);
        assert_eq!(o.ping_hits, 2);
        assert_eq!(o.rdns_hits, 2);
        assert_eq!(o.overall, 2);
        assert!((o.success_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn new_slash64_excludes_training_prefixes() {
        let training: AddressSet = vec![base(1)].into_iter().collect();
        // Test addresses in a *different* /64.
        let other = Ip6((0x2001_0db8_0000_0001u128 << 64) | 7);
        let test: AddressSet = vec![other].into_iter().collect();
        let responder = Responder::new(test.clone(), 0.0, 1);
        let o = evaluate_scan(&[other, base(1)], &training, &test, &responder);
        assert_eq!(o.new_slash64, 1);
    }

    #[test]
    fn misses_score_zero() {
        let training: AddressSet = (0..5u128).map(base).collect();
        let test: AddressSet = (5..10u128).map(base).collect();
        let responder = Responder::new(test.clone(), 0.5, 1);
        let o = evaluate_scan(&[base(100), base(200)], &training, &test, &responder);
        assert_eq!(o.overall, 0);
        assert_eq!(o.success_rate(), 0.0);
        assert_eq!(o.new_slash64, 0);
    }

    /// Sort-join and hashing oracle must agree field by field, at any
    /// worker count.
    #[test]
    fn sharded_matches_reference_at_any_worker_count() {
        let training: AddressSet = (0..50u128).map(base).collect();
        let test: AddressSet = (50..200u128).map(base).collect();
        let responder = Responder::new(training.union(&test), 0.4, 3);
        let candidates: Vec<Ip6> = (0..500u128)
            .map(|i| {
                if i % 3 == 0 {
                    base(i) // some hits, some /64-local misses
                } else {
                    Ip6((0x2001_0db8u128 << 96) | (i << 64) | i) // fresh /64s
                }
            })
            .collect();
        let oracle = evaluate_scan_reference(&candidates, &training, &test, &responder);
        for workers in [1usize, 2, 3, 8] {
            let o = evaluate_scan_sharded(
                &candidates,
                &training,
                &test,
                &responder,
                &Scheduler::new(workers),
            );
            assert_eq!(o.generated, oracle.generated, "{workers} workers");
            assert_eq!(o.test_hits, oracle.test_hits);
            assert_eq!(o.ping_hits, oracle.ping_hits);
            assert_eq!(o.rdns_hits, oracle.rdns_hits);
            assert_eq!(o.overall, oracle.overall);
            assert_eq!(o.new_slash64, oracle.new_slash64);
        }
    }

    const EDGE_WORKERS: [usize; 3] = [1, 2, 7];

    fn scan(
        candidates: &[Ip6],
        training: &AddressSet,
        test: &AddressSet,
        responder: &Responder,
        workers: usize,
    ) -> ScanOutcome {
        let exec = Scheduler::new(workers);
        evaluate_scan_sharded(candidates, training, test, responder, &exec)
    }

    #[test]
    fn probes_sent_grows_by_candidate_count_per_call() {
        let training: AddressSet = (0..10u128).map(base).collect();
        let test: AddressSet = (10..20u128).map(base).collect();
        let responder = Responder::new(training.union(&test), 0.5, 1);
        let candidates: Vec<Ip6> = (0..37u128).map(|i| base(i * 3)).collect();
        for workers in EDGE_WORKERS {
            let before = responder.probes_sent();
            scan(&candidates, &training, &test, &responder, workers);
            assert_eq!(responder.probes_sent() - before, 37, "{workers} workers");
            scan(&candidates[..5], &training, &test, &responder, workers);
            assert_eq!(responder.probes_sent() - before, 42, "{workers} workers");
        }
    }

    #[test]
    fn empty_candidate_list_scores_nothing() {
        let training: AddressSet = (0..10u128).map(base).collect();
        let test: AddressSet = (10..20u128).map(base).collect();
        let responder = Responder::new(training.union(&test), 1.0, 1);
        for workers in EDGE_WORKERS {
            let o = scan(&[], &training, &test, &responder, workers);
            assert_eq!(o.generated, 0, "{workers} workers");
            assert_eq!(o.overall, 0);
            assert_eq!(o.new_slash64, 0);
        }
        assert_eq!(responder.probes_sent(), 0);
    }

    #[test]
    fn candidates_above_every_set_element_start_cursors_at_the_end() {
        let training: AddressSet = (0..10u128).map(base).collect();
        let test: AddressSet = (10..20u128).map(base).collect();
        let responder = Responder::new(training.union(&test), 1.0, 1);
        // Every candidate's address and /64 exceed every element of
        // the test, active, rDNS and training-/64 sets.
        let candidates: Vec<Ip6> = (0..20u128)
            .map(|i| Ip6((0x2001_0db9u128 << 96) | (i << 64) | i))
            .collect();
        let oracle = evaluate_scan_reference(&candidates, &training, &test, &responder);
        assert_eq!(oracle.overall, 0);
        for workers in EDGE_WORKERS {
            let o = scan(&candidates, &training, &test, &responder, workers);
            assert_eq!(o.generated, 20, "{workers} workers");
            assert_eq!(o.test_hits, 0);
            assert_eq!(o.ping_hits, 0);
            assert_eq!(o.rdns_hits, 0);
            assert_eq!(o.overall, 0);
            assert_eq!(o.new_slash64, 0);
        }
    }

    #[test]
    fn hits_in_one_new_slash64_count_once() {
        let fresh = |i: u128| Ip6((0x2001_0db8_0000_0001u128 << 64) | i);
        let training: AddressSet = (0..10u128).map(base).collect();
        let test: AddressSet = (0..40u128).map(fresh).collect();
        let responder = Responder::new(test.clone(), 0.5, 1);
        // Every shard sees part of the same /64, some addresses twice.
        let candidates: Vec<Ip6> = (0..60u128).map(|i| fresh(i % 45)).collect();
        for workers in EDGE_WORKERS {
            let o = scan(&candidates, &training, &test, &responder, workers);
            assert_eq!(o.test_hits, 55, "{workers} workers");
            assert_eq!(o.overall, 55);
            assert_eq!(o.new_slash64, 1);
        }
    }

    #[test]
    fn adherence_counts_hits_and_fresh_prefixes() {
        let population: AddressSet = (0..100u128).map(base).collect();
        // 2 hits, 3 candidates in the population's single /64, 2
        // distinct fresh /64s (one probed twice).
        let fresh_a = Ip6((0x2001_0db8_0000_0001u128 << 64) | 1);
        let fresh_a2 = Ip6((0x2001_0db8_0000_0001u128 << 64) | 2);
        let fresh_b = Ip6((0x2001_0db8_0000_0002u128 << 64) | 1);
        let candidates = vec![base(1), base(2), base(5000), fresh_a, fresh_a2, fresh_b];
        for workers in [1usize, 2, 5] {
            let a = population_adherence(&candidates, &population, &Scheduler::new(workers));
            assert_eq!(a.hits, 2, "{workers} workers");
            // base(1), base(2), base(5000) all live in the
            // population's /64 even though base(5000) misses exactly.
            assert_eq!(a.slash64_hits, 3);
            assert_eq!(a.new_slash64, 2);
        }
        assert_eq!(
            population_adherence(&[], &population, &Scheduler::default()),
            Adherence::default()
        );
    }
}
