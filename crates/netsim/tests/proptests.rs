//! Property-based equivalence tests for the sort-join evaluation and
//! the sharded population synthesis: the fast paths must reproduce
//! their serial/hashing oracles exactly, at every worker count.

use eip_addr::{AddressSet, Ip6, Prefix};
use eip_exec::Scheduler;
use eip_netsim::{
    evaluate_scan_reference, evaluate_scan_sharded, population_adherence, AddressPlan, FaultConfig,
    FieldKind, PlanField, Responder, ScanOutcome,
};
use proptest::prelude::*;

/// A base address inside the documentation prefix with structured
/// /64 variety: `sub` picks the /64, `host` the IID.
fn addr(sub: u128, host: u128) -> Ip6 {
    Ip6((0x2001_0db8u128 << 96) | ((sub & 0xffff) << 64) | (host & 0xffff))
}

/// Like [`addr`], but `sub` also spreads over /48s: eight /64s per
/// /48, so a /48 echo prefix covers some candidates and not others.
fn addr48(sub: u128, host: u128) -> Ip6 {
    Ip6((0x2001_0db8u128 << 96) | ((sub / 8) << 80) | ((sub % 8) << 64) | (host & 0xffff))
}

/// Every counter of a [`ScanOutcome`], in declaration order.
fn counters(o: &ScanOutcome) -> [usize; 6] {
    [
        o.generated,
        o.test_hits,
        o.ping_hits,
        o.rdns_hits,
        o.overall,
        o.new_slash64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sort-join `evaluate_scan` ≡ the `HashSet` reference: same
    /// counters, field for field, on random populations, candidate
    /// mixes (hits, same-/64 misses, fresh /64s, duplicates) and
    /// worker counts.
    #[test]
    fn sort_join_scan_matches_hashset_reference(
        pop_seed in 0u128..1000,
        pop_size in 1usize..300,
        cand in prop::collection::vec((0u128..40, 0u128..400), 0..400),
        rdns_frac in 0.0f64..1.0,
        workers in 1usize..=8,
    ) {
        let population: AddressSet = (0..pop_size as u128)
            .map(|i| addr((i * 7 + pop_seed) % 30, i % 200))
            .collect();
        let mut rng = eip_addr::set::SplitMix64::new(pop_seed as u64);
        let (training, test) = population.split_sample(pop_size / 3, &mut rng);
        let responder = Responder::new(population.clone(), rdns_frac, pop_seed as u64);
        let candidates: Vec<Ip6> = cand.iter().map(|&(s, h)| addr(s, h)).collect();
        let oracle = evaluate_scan_reference(&candidates, &training, &test, &responder);
        let fast = evaluate_scan_sharded(
            &candidates,
            &training,
            &test,
            &responder,
            &Scheduler::new(workers),
        );
        prop_assert_eq!(fast.generated, oracle.generated);
        prop_assert_eq!(fast.test_hits, oracle.test_hits);
        prop_assert_eq!(fast.ping_hits, oracle.ping_hits);
        prop_assert_eq!(fast.rdns_hits, oracle.rdns_hits);
        prop_assert_eq!(fast.overall, oracle.overall);
        prop_assert_eq!(fast.new_slash64, oracle.new_slash64);
    }

    /// With faults on, the sort-join scan ≡ the `HashSet` reference,
    /// field for field, at every worker count 1..=8, and each call
    /// counts exactly one probe per candidate. Faults are
    /// hash-deterministic probe loss and up to two echo prefixes (/48
    /// or /64) over candidate /64s. Candidates come in runs inside one
    /// /64, each address repeated up to three times, so shard
    /// boundaries cut /64s and duplicates straddle shards.
    #[test]
    fn sort_join_scan_matches_reference_under_faults(
        pop_seed in 0u128..1000,
        pop_size in 1usize..300,
        runs in prop::collection::vec((0u128..40, 0u128..400, 1u128..80, 1usize..=3), 0..12),
        rdns_frac in 0.0f64..1.0,
        probe_loss in 0.0f64..1.0,
        fault_seed in any::<u64>(),
        echoes in prop::collection::vec((any::<usize>(), any::<bool>()), 0..=2),
    ) {
        let population: AddressSet = (0..pop_size as u128)
            .map(|i| addr48((i * 7 + pop_seed) % 30, i % 200))
            .collect();
        let mut rng = eip_addr::set::SplitMix64::new(pop_seed as u64);
        let (training, test) = population.split_sample(pop_size / 3, &mut rng);
        let candidates: Vec<Ip6> = runs
            .iter()
            .flat_map(|&(sub, host, len, reps)| {
                (host..host + len).flat_map(move |h| std::iter::repeat_n(addr48(sub, h), reps))
            })
            .collect();
        let echo_prefixes: Vec<Prefix> = if candidates.is_empty() {
            Vec::new()
        } else {
            echoes
                .iter()
                .map(|&(at, wide)| {
                    Prefix::new(candidates[at % candidates.len()], if wide { 48 } else { 64 })
                })
                .collect()
        };
        let responder = Responder::new(population.clone(), rdns_frac, pop_seed as u64)
            .with_faults(FaultConfig {
                probe_loss,
                echo_prefixes,
                seed: fault_seed,
            });
        let oracle = counters(&evaluate_scan_reference(&candidates, &training, &test, &responder));
        for workers in 1usize..=8 {
            let before = responder.probes_sent();
            let fast = counters(&evaluate_scan_sharded(
                &candidates,
                &training,
                &test,
                &responder,
                &Scheduler::new(workers),
            ));
            prop_assert_eq!(
                responder.probes_sent() - before,
                candidates.len() as u64,
                "{} workers: probe count",
                workers
            );
            prop_assert_eq!(
                fast,
                oracle,
                "{} workers: sort-join {:?} != reference {:?}",
                workers,
                fast,
                oracle
            );
        }
    }

    /// Merge-join `population_adherence` ≡ a naive hashing reference
    /// on random candidate batches, at every worker count.
    #[test]
    fn adherence_matches_hashing_reference(
        pop_size in 1usize..300,
        cand in prop::collection::vec((0u128..40, 0u128..400), 0..400),
        workers in 1usize..=8,
    ) {
        let population: AddressSet = (0..pop_size as u128)
            .map(|i| addr(i % 25, i * 3))
            .collect();
        let candidates: Vec<Ip6> = cand.iter().map(|&(s, h)| addr(s, h)).collect();
        let hits = candidates.iter().filter(|&&ip| population.contains(ip)).count();
        let pop64: std::collections::HashSet<Ip6> =
            population.iter().map(|ip| ip.slash64()).collect();
        let hits64 = candidates
            .iter()
            .filter(|ip| pop64.contains(&ip.slash64()))
            .count();
        let new64 = candidates
            .iter()
            .map(|ip| ip.slash64())
            .filter(|p| !pop64.contains(p))
            .collect::<std::collections::HashSet<Ip6>>()
            .len();
        let a = population_adherence(&candidates, &population, &Scheduler::new(workers));
        prop_assert_eq!(a.hits, hits);
        prop_assert_eq!(a.slash64_hits, hits64);
        prop_assert_eq!(a.new_slash64, new64);
    }

    /// Keyed sharded synthesis ≡ the straight-line keyed serial loop
    /// on random plans: identical [`AddressSet`]s at every worker
    /// count and shard geometry, including the non-power-of-two ones
    /// the chunk-based engines never had to face.
    #[test]
    fn keyed_synthesis_matches_straight_line_loop(
        pool in 1u128..600,
        span in 0u128..2000,
        n in 0usize..1500,
        k0 in 0u64..50,
        seed in any::<u64>(),
        workers in 1usize..=8,
    ) {
        let plan = AddressPlan::single(
            "t",
            vec![
                PlanField::new(0, 32, FieldKind::Const(0x2001_0db8)),
                PlanField::new(
                    48,
                    16,
                    FieldKind::Sequential { base: 0, step: 1, modulo: pool },
                ),
                PlanField::new(112, 16, FieldKind::Uniform { lo: 0, hi: span }),
            ],
        );
        let oracle = plan.generate_keyed(n, k0, seed);
        let sharded = plan.generate_keyed_sharded(n, k0, seed, &Scheduler::new(workers));
        prop_assert_eq!(sharded, oracle);
    }
}
