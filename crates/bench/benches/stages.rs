//! Per-stage benchmarks of the Entropy/IP pipeline, timed at the real
//! stage boundaries of the typed [`Pipeline`] API: profile (streaming
//! ingestion + entropy/ACR), segmentation, mining and BN training
//! (each serial oracle vs its sharded engine), candidate generation
//! (the `sample_row` oracle vs the compiled sampling plan on the
//! batched scheduler) and candidate evaluation (the tree/hash
//! bookkeeping reference vs the sharded sort-merge-join), and the
//! §5.5 scan evaluation (the `HashSet` reference vs the per-shard
//! sort-merge join) — plus the windowing grid and posterior inference
//! that sit beside the pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eip_addr::set::SplitMix64;
use eip_addr::{AddressSet, DedupSet, Ip6};
use eip_bayes::{learn_structure, LearnOptions};
use eip_exec::Scheduler;
use eip_netsim::{
    dataset, evaluate_scan_reference, evaluate_scan_sharded, population_adherence, Responder,
};
use eip_stats::WindowGrid;
use entropy_ip::baseline::encoded_dataset;
use entropy_ip::mining::mine_segment;
use entropy_ip::{Config, Generator, Mined, MiningOptions, Pipeline, Profiled, Segmented};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn population(n: usize) -> AddressSet {
    dataset("S1").unwrap().population_sized(n, 1)
}

fn profiled(n: usize) -> Profiled {
    Pipeline::new(Config::default())
        .profile(population(n).iter())
        .unwrap()
}

fn segmented(n: usize) -> Segmented {
    profiled(n).segment()
}

fn mined(n: usize) -> Mined {
    segmented(n).mine()
}

/// Stage 0: population synthesis — the straight-line keyed serial
/// oracle ([`AddressPlan::generate_keyed`]: the naive per-draw
/// sampler, one `HashSet` insert per draw, unsorted `from_iter` at
/// the end) vs the keyed sharded engine
/// ([`AddressPlan::generate_keyed_sharded`]: per-index draws through
/// the compiled plan, screened against a `DedupSet` on the scheduler,
/// one sharded sort, a pre-sorted `from_iter`). Keyed draws make
/// sampling itself shardable — address `k` is a pure function of
/// `(seed, k)` — so the two produce byte-identical sets at any worker
/// count. Benched near the `--full` stage's real scale (500k): that is
/// where the engine's cache behavior (compiled sampling + multiply-
/// shift dedup + presorted set construction) separates from the
/// oracle's large-table hashing even without cores to fan out over;
/// `tools/bench_guard.sh` fails CI if the engine loses that edge.
fn bench_synthesize_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage_synthesize");
    g.sample_size(10);
    let plan = dataset("S1").unwrap().plan();
    g.bench_function("serial_500000", |b| {
        b.iter(|| plan.generate_keyed(500_000, 0, 1));
    });
    let exec = Scheduler::new(4);
    g.bench_function("parallel4_500000", |b| {
        b.iter(|| plan.generate_keyed_sharded(500_000, 0, 1, &exec));
    });
    g.finish();
}

/// Stage 1: streaming ingestion + entropy/ACR profile, serial and
/// sharded (merge-based per-shard `NybbleCounts`).
fn bench_profile_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage_profile");
    for n in [1_000usize, 10_000] {
        let set = population(n);
        let pipeline = Pipeline::new(Config::default());
        g.bench_with_input(BenchmarkId::from_parameter(n), &set, |b, s| {
            b.iter(|| pipeline.profile(s.iter()).unwrap());
        });
    }
    let set = population(10_000);
    let sharded = Pipeline::new(Config::default().with_parallelism(4));
    g.bench_with_input(
        BenchmarkId::from_parameter("parallel4_10000"),
        &set,
        |b, s| {
            b.iter(|| sharded.profile(s.iter()).unwrap());
        },
    );
    g.finish();
}

/// Stage 2: segmentation of an existing profile.
fn bench_segment_stage(c: &mut Criterion) {
    let p = profiled(10_000);
    c.bench_function("stage_segment", |b| {
        b.iter(|| p.segment());
    });
}

/// Stage 3: mining an existing segmentation — the per-segment
/// [`mine_segment`] oracle (one value pass per segment) vs the
/// sharded engine (per-shard histograms for every segment in one
/// pass, merged, then thresholded). The two produce identical
/// dictionaries; `tools/bench_guard.sh` fails CI if the sharded path
/// loses its speed edge. Benched at 50k addresses: the SWAR segment
/// extraction cut the per-address cost of both paths, so at smaller
/// scales the engine's fixed per-shard histogram and merge overhead
/// hides its one-pass advantage.
fn bench_mine_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage_mine");
    g.sample_size(10);
    let serial = segmented(50_000);
    let opts = MiningOptions::default();
    g.bench_function("serial_50000", |b| {
        b.iter(|| {
            serial
                .segments()
                .iter()
                .map(|seg| {
                    let values: Vec<u128> = serial
                        .addresses()
                        .iter()
                        .map(|ip| ip.segment(seg.start, seg.end))
                        .collect();
                    mine_segment(seg, &values, &opts)
                })
                .collect::<Vec<_>>()
        });
    });
    let parallel = Pipeline::new(Config::default().with_parallelism(4))
        .profile(population(50_000).iter())
        .unwrap()
        .segment();
    g.bench_function("parallel4_50000", |b| {
        b.iter(|| parallel.mine());
    });
    g.finish();
}

/// Stage 4: BN training on existing dictionaries — the serial oracle
/// (row encode with [`encoded_dataset`], then the per-candidate
/// rescan learner [`learn_structure`]) vs the sharded count-reuse
/// engine (columnar encode + one dense contingency pass per child,
/// CPTs fitted from the same tables). The two learn identical
/// networks; `tools/bench_guard.sh` fails CI if the count-reuse
/// engine stops beating the serial reference.
fn bench_train_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage_train");
    g.sample_size(10);
    for n in [1_000usize, 5_000] {
        let m = mined(n);
        g.bench_with_input(BenchmarkId::from_parameter(n), &m, |b, m| {
            b.iter(|| m.train().unwrap());
        });
    }
    let serial = mined(10_000);
    // The dictionaries to encode against; the oracle relearns the BN.
    let dictionaries = serial.train().unwrap().into_model();
    let opts = LearnOptions {
        names: serial
            .analysis()
            .segments
            .iter()
            .map(|seg| seg.label.clone())
            .collect(),
        ..LearnOptions::default()
    };
    g.bench_function("serial_10000", |b| {
        b.iter(|| learn_structure(&encoded_dataset(&dictionaries, serial.addresses()), &opts));
    });
    let parallel = Pipeline::new(Config::default().with_parallelism(4))
        .profile(population(10_000).iter())
        .unwrap()
        .segment()
        .mine();
    g.bench_function("parallel4_10000", |b| {
        b.iter(|| parallel.train().unwrap());
    });
    g.finish();
}

/// Stage 5: batch candidate generation from a trained model — a serial
/// loop over the allocating `sample_row` oracle vs the compiled
/// sampling plan on the batched scheduler ([`Generator::run_seeded`],
/// parallelism 4), each drawing 10K candidates within an 8× budget;
/// `tools/bench_guard.sh` fails CI if the compiled path loses its
/// speed edge.
fn bench_generate_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage_generate");
    g.sample_size(10);
    let model = mined(10_000).train().unwrap().into_model();
    g.bench_function("serial_10000", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut seen = DedupSet::with_capacity(10_000);
            let draws = std::iter::repeat_with(|| {
                let row = eip_bayes::sample_row(model.bn(), &mut rng);
                model.decode(&row, &mut rng)
            });
            let fresh = draws.take(80_000).filter(|&ip| seen.insert(ip));
            fresh.take(10_000).collect::<Vec<_>>()
        });
    });
    g.bench_function("parallel4_10000", |b| {
        b.iter(|| {
            Generator::new(&model)
                .attempts_per_candidate(8)
                .parallelism(4)
                .run_seeded(10_000, 7)
        });
    });
    g.finish();
}

/// Stage 6: candidate-batch evaluation against the population — the
/// `repro --full` evaluate stage. The tree/hash bookkeeping the stage
/// used before PR 5 (binary-search hits + `BTreeSet` /64 dedup) vs
/// the sharded sort-merge-join ([`eip_netsim::population_adherence`]:
/// one sharded candidate sort, then streaming two-pointer joins).
/// Identical counts; `tools/bench_guard.sh` guards the edge.
fn bench_evaluate_stage(c: &mut Criterion) {
    use std::collections::BTreeSet;
    let mut g = c.benchmark_group("stage_evaluate");
    g.sample_size(10);
    let population = population(10_000);
    let model = Pipeline::new(Config::default())
        .run(population.iter())
        .unwrap();
    let candidates = Generator::new(&model)
        .attempts_per_candidate(8)
        .run_seeded(10_000, 13)
        .candidates;
    g.bench_function("serial_10000", |b| {
        b.iter(|| {
            let hits = candidates
                .iter()
                .filter(|&&ip| population.contains(ip))
                .count();
            let known64: BTreeSet<_> = population.slash64s().into_iter().collect();
            let new64 = candidates
                .iter()
                .map(|ip| ip.slash64())
                .filter(|p| !known64.contains(p))
                .collect::<BTreeSet<_>>()
                .len();
            (hits, new64)
        });
    });
    let exec = Scheduler::new(4);
    g.bench_function("parallel4_10000", |b| {
        b.iter(|| population_adherence(&candidates, &population, &exec));
    });
    g.finish();
}

/// Stage 6, scan protocol: the §5.5 evaluation behind Table 4 —
/// test-set, ping and rDNS hits plus new /64s — on S1 with 1K
/// training addresses and 100K candidates. The `HashSet` reference
/// ([`evaluate_scan_reference`]: three binary searches and a hash
/// probe per candidate) vs the per-shard sort-merge join
/// ([`evaluate_scan_sharded`] on four workers). Identical outcomes;
/// `tools/bench_guard.sh` guards the edge.
fn bench_scan_evaluate_stage(c: &mut Criterion) {
    let mut g = c.benchmark_group("stage_scan_evaluate");
    g.sample_size(10);
    let spec = dataset("S1").unwrap();
    let observed = spec.population(1);
    let (train, test) = observed.split_sample(1_000, &mut SplitMix64::new(2));
    let responder = Responder::new(observed.clone(), spec.rdns_fraction, 3);
    let model = Pipeline::new(Config::default()).run(train.iter()).unwrap();
    let candidates = Generator::new(&model)
        .excluding(&train)
        .attempts_per_candidate(8)
        .run_seeded(100_000, 4)
        .candidates;
    g.bench_function("reference_100000", |b| {
        b.iter(|| evaluate_scan_reference(&candidates, &train, &test, &responder));
    });
    let exec = Scheduler::new(4);
    g.bench_function("parallel4_100000", |b| {
        b.iter(|| evaluate_scan_sharded(&candidates, &train, &test, &responder, &exec));
    });
    g.finish();
}

/// The windowing analysis (§4.5), beside the pipeline proper.
fn bench_window_grid(c: &mut Criterion) {
    let addrs: Vec<Ip6> = population(1_000).iter().collect();
    c.bench_function("window_grid_1k", |b| {
        b.iter(|| WindowGrid::compute(&addrs));
    });
}

/// Posterior inference on the trained model (one browser refresh).
fn bench_inference(c: &mut Criterion) {
    let model = mined(2_000).train().unwrap().into_model();
    c.bench_function("posterior_marginals", |b| {
        b.iter(|| model.posterior(&vec![(0, 0)]));
    });
}

criterion_group!(
    benches,
    bench_synthesize_stage,
    bench_profile_stage,
    bench_segment_stage,
    bench_mine_stage,
    bench_train_stage,
    bench_generate_stage,
    bench_evaluate_stage,
    bench_scan_evaluate_stage,
    bench_window_grid,
    bench_inference
);
criterion_main!(benches);
