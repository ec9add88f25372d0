//! Property-based tests for the pipeline invariants.

use eip_addr::{AddressSet, Ip6};
use eip_exec::Scheduler;
use entropy_ip::mining::{mine_segment, mine_segment_sharded, MiningOptions};
use entropy_ip::segments::{segment_entropy_profile, Segment, SegmentationOptions};
use entropy_ip::{Config, EntropyIp, Pipeline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// Segmentation always partitions 1..=width, regardless of the
    /// entropy profile.
    #[test]
    fn segmentation_partitions(profile in prop::collection::vec(0.0f64..=1.0, 32)) {
        let segs = segment_entropy_profile(&profile, &SegmentationOptions::default());
        prop_assert_eq!(segs[0].start, 1);
        prop_assert_eq!(segs.last().unwrap().end, 32);
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end + 1, w[1].start);
        }
        // Bits 1-32 stay one segment; a boundary follows bit 64.
        prop_assert_eq!(segs[0].end, 8);
        prop_assert!(segs.iter().any(|s| s.start == 17));
        // Labels are A, B, C, ... in order.
        for (i, s) in segs.iter().enumerate() {
            prop_assert_eq!(&s.label, &entropy_ip::segments::label_for(i));
        }
    }

    /// Mining never produces overlapping *exact* codes, covers every
    /// input value unless below the leftover threshold, and keeps
    /// count accounting consistent.
    #[test]
    fn mining_invariants(raw in prop::collection::vec(0u128..4096, 1..600)) {
        let seg = Segment { label: "T".into(), start: 20, end: 22 };
        let m = mine_segment(&seg, &raw, &MiningOptions::default());
        prop_assert_eq!(m.total, raw.len() as u64);
        prop_assert!(!m.values.is_empty());
        // No duplicate exact values.
        let exacts: Vec<u128> = m
            .values
            .iter()
            .filter_map(|v| match v.kind {
                entropy_ip::ValueKind::Exact(x) => Some(x),
                _ => None,
            })
            .collect();
        let uniq: std::collections::HashSet<&u128> = exacts.iter().collect();
        prop_assert_eq!(uniq.len(), exacts.len());
        // Coverage: at most 0.1% of observations may fail to encode.
        let misses = raw.iter().filter(|&&v| m.encode(v).is_none()).count();
        prop_assert!(misses as f64 <= (raw.len() as f64 * 0.001).ceil() + 1e-9,
            "{} of {} observations unencodable", misses, raw.len());
        // Frequencies are consistent with counts.
        for sv in &m.values {
            prop_assert!((sv.freq - sv.count as f64 / m.total as f64).abs() < 1e-9);
        }
    }

    /// Shard-count-then-merge mining is exact: for arbitrary raw
    /// values and any shard count 1..=8, the sharded path produces a
    /// `MinedSegment` identical to the serial reference — same codes,
    /// same kinds, same counts, same frequencies.
    #[test]
    fn sharded_mining_matches_serial(
        raw in prop::collection::vec(0u128..4096, 1..600),
        shards in 1usize..=8,
    ) {
        let seg = Segment { label: "T".into(), start: 20, end: 22 };
        let serial = mine_segment(&seg, &raw, &MiningOptions::default());
        let sharded = mine_segment_sharded(
            &seg,
            &raw,
            &MiningOptions::default(),
            &Scheduler::new(shards),
        );
        prop_assert_eq!(sharded, serial);
    }

    /// The whole staged pipeline is worker-count independent: models
    /// built with the sharded engines export byte-identically to the
    /// one-worker run for arbitrary structured populations.
    #[test]
    fn pipeline_sharded_equals_serial(
        prefix in 0u128..0xff,
        subnets in 1u128..8,
        hosts in 2u128..50,
        workers in 2usize..=8,
    ) {
        let set: AddressSet = (0..subnets)
            .flat_map(|s| {
                (0..hosts).map(move |h| {
                    Ip6((0x2001_0db8u128 << 96) | (prefix << 80) | (s << 16) | (h * 3))
                })
            })
            .collect();
        let serial = Pipeline::new(Config::default()).run(set.iter()).unwrap();
        let parallel = Pipeline::new(Config::default().with_parallelism(workers))
            .run(set.iter())
            .unwrap();
        prop_assert_eq!(
            entropy_ip::profile::export(&parallel),
            entropy_ip::profile::export(&serial)
        );
    }

    /// Candidate generation through the compiled sampling plan ≡ the
    /// `sample_row` oracle: for arbitrary structured populations and
    /// seeds, [`entropy_ip::IpModel::generate`] (plan + reusable byte
    /// row) reproduces a hand-rolled `sample_row` + `decode` loop
    /// draw for draw on the same RNG stream.
    #[test]
    fn compiled_generation_matches_oracle(
        prefix in 0u128..0xff,
        subnets in 1u128..8,
        hosts in 2u128..50,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let set: AddressSet = (0..subnets)
            .flat_map(|s| {
                (0..hosts).map(move |h| {
                    Ip6((0x2001_0db8u128 << 96) | (prefix << 80) | (s << 16) | (h * 3))
                })
            })
            .collect();
        let model = Pipeline::new(Config::default()).run(set.iter()).unwrap();
        let (n, attempts) = (100usize, 500usize);
        let mut a = StdRng::seed_from_u64(seed);
        let mut oracle: Vec<Ip6> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..attempts {
            if oracle.len() >= n {
                break;
            }
            let row = eip_bayes::sample_row(model.bn(), &mut a);
            let ip = model.decode(&row, &mut a);
            if seen.insert(ip) {
                oracle.push(ip);
            }
        }
        let mut b = StdRng::seed_from_u64(seed);
        prop_assert_eq!(model.generate(n, attempts, &mut b), oracle);
    }

    /// Sharded BN training is exact: training the mined dictionaries
    /// at any worker count 1..=8 yields a network identical to the
    /// serial oracle ([`eip_bayes::learn_structure`] on the row-wise
    /// encoding) — same parents, same CPT bytes (the count-reuse
    /// engine fits from the same integer counts).
    #[test]
    fn sharded_training_matches_serial(
        prefix in 0u128..0xff,
        subnets in 1u128..8,
        hosts in 2u128..50,
    ) {
        let set: AddressSet = (0..subnets)
            .flat_map(|s| {
                (0..hosts).map(move |h| {
                    Ip6((0x2001_0db8u128 << 96) | (prefix << 80) | (s << 16) | (h * 3))
                })
            })
            .collect();
        let serial = Pipeline::new(Config::default())
            .profile(set.iter())
            .unwrap()
            .segment()
            .mine();
        let dictionaries = serial.train().unwrap().into_model();
        let oracle = eip_bayes::learn_structure(
            &entropy_ip::baseline::encoded_dataset(&dictionaries, serial.addresses()),
            &eip_bayes::LearnOptions {
                names: serial.analysis().segments.iter().map(|s| s.label.clone()).collect(),
                ..Default::default()
            },
        );
        for workers in 1usize..=8 {
            let mined = Pipeline::new(Config::default().with_parallelism(workers))
                .profile(set.iter())
                .unwrap()
                .segment()
                .mine();
            let trained = mined.train().unwrap();
            prop_assert_eq!(trained.model().bn(), &oracle, "{} workers", workers);
        }
    }

    /// Encode is stable: the same value always maps to the same code.
    #[test]
    fn encode_deterministic(raw in prop::collection::vec(0u128..512, 1..300)) {
        let seg = Segment { label: "T".into(), start: 25, end: 27 };
        let m = mine_segment(&seg, &raw, &MiningOptions::default());
        for &v in raw.iter().take(50) {
            prop_assert_eq!(m.encode(v), m.encode(v));
        }
    }

    /// Every generated candidate re-encodes into the model, for
    /// arbitrary structured populations.
    #[test]
    fn generation_is_model_consistent(
        prefix in 0u128..0xffff,
        subnets in 1u128..12,
        hosts in 1u128..40,
        seed in any::<u64>(),
    ) {
        let set: AddressSet = (0..subnets)
            .flat_map(|s| {
                (0..hosts).map(move |h| {
                    Ip6((0x2001_0db8u128 << 96) | (prefix << 64) | (s << 16) | h)
                })
            })
            .collect();
        let model = EntropyIp::new().analyze(&set).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for ip in model.generate(30, 3_000, &mut rng) {
            prop_assert!(model.encode(ip).is_some(), "{} does not re-encode", ip);
        }
    }

    /// The binary model container round-trips bit-exactly for
    /// arbitrary structured populations: identical dictionaries,
    /// identical CPT *bit patterns* (not just `==`, which would let
    /// `-0.0` drift through), and the recompiled sampling plan draws
    /// identical keyed rows in lockstep with the original.
    #[test]
    fn store_round_trip_bit_exact(
        prefix in 0u128..0xff,
        subnets in 1u128..8,
        hosts in 2u128..50,
        seed in any::<u64>(),
    ) {
        let set: AddressSet = (0..subnets)
            .flat_map(|s| {
                (0..hosts).map(move |h| {
                    Ip6((0x2001_0db8u128 << 96) | (prefix << 80) | (s << 16) | (h * 3))
                })
            })
            .collect();
        let model = EntropyIp::new().analyze(&set).unwrap();
        let fp = entropy_ip::store::fingerprint("proptest network");
        let bytes = entropy_ip::store::save(&model, fp);
        let (back, fp_back) = entropy_ip::store::load(&bytes).unwrap();
        prop_assert_eq!(fp_back, fp);
        prop_assert_eq!(back.analysis(), model.analysis());
        prop_assert_eq!(back.mined(), model.mined());
        prop_assert_eq!(back.bn(), model.bn());
        for i in 0..model.bn().num_vars() {
            let (a, b) = (model.bn().node(i), back.bn().node(i));
            let bits = |cpt: &eip_bayes::Cpt| -> Vec<u64> {
                cpt.flat().iter().map(|p| p.to_bits()).collect()
            };
            prop_assert_eq!(bits(&a.cpt), bits(&b.cpt), "CPT bits differ at node {}", i);
        }
        // The loaded model recompiles its sampling plan; it must walk
        // in lockstep with the original for any keyed draw.
        let mut row_a = vec![0u8; model.plan().num_vars()];
        let mut row_b = vec![0u8; back.plan().num_vars()];
        for index in 0..200u64 {
            model.plan().sample_keyed_into(&mut row_a, seed, 7, index);
            back.plan().sample_keyed_into(&mut row_b, seed, 7, index);
            prop_assert_eq!(&row_a, &row_b, "plan diverged at index {}", index);
        }
    }
}
