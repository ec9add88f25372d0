//! Fleet-scale concurrent sweeps: `repro --fleet`.
//!
//! The paper's Table 1 evaluates sixteen network datasets; §5.5 runs
//! each at one million addresses in and one million candidates out.
//! This module runs that entire fleet under one command: all sixteen
//! networks execute their full staged pipeline — synthesis, streaming
//! ingest, profiling, segmentation, mining, BN training, generation,
//! evaluation — **concurrently**, as sixteen jobs whose fan-outs lease
//! their threads from one shared thread budget
//! ([`eip_exec::pool::StealPool`]), and every trained model is
//! persisted into a single [`ModelStore`] directory that `eip serve`
//! can serve as-is.
//!
//! Determinism is the headline invariant: the shared budget decides
//! how many threads run a shard, not what it computes. Shard geometry is keyed
//! by `--jobs` and every hot path draws counter-based per-index
//! randomness, so each network's model and candidate stream are
//! byte-identical to a solo serial run. The fleet does not take this
//! on faith — after the concurrent phase it re-runs every network
//! solo (no pool, same `--jobs`) as a sequential baseline and asserts
//! the model export and a candidate-stream digest match byte for
//! byte. The baseline doubles as the honest timing reference: the
//! summary and `crates/bench/BENCH_fleet.json` record concurrent
//! fleet wall-clock against the sum of the sixteen solo runs
//! (guarded in CI by `tools/bench_guard.sh` under
//! `BENCH_FLEET_MARGIN`).

use std::sync::Arc;
use std::time::Instant;

use eip_exec::pool::StealPool;
use eip_netsim::{dataset, population_adherence, Adherence, ALL_DATASETS};
use eip_serve::ModelStore;
use entropy_ip::{store, Config, Generator, IngestOptions, IpModel, Pipeline};

use crate::common::{human, RunConfig};
use crate::corpus::CorpusReader;
use crate::fullrun::StageTimer;

/// Fleet-mode knobs, set from the command line.
pub struct FleetOptions {
    /// Model-store directory (default: `target/fleet_models` under
    /// the workspace root).
    pub store_out: Option<String>,
    /// Timings JSON path (default: `crates/bench/BENCH_fleet.json`).
    pub bench_out: Option<String>,
    /// Shared-pool worker count, which also bounds how many fleet
    /// jobs run at once (default: the machine's available
    /// parallelism). Speed-only: any value yields identical models.
    pub pool_size: Option<usize>,
}

/// One network's completed run: timings plus the two byte-level
/// identity witnesses (model export, candidate digest).
struct NetworkRun {
    id: &'static str,
    stages: Vec<(&'static str, f64)>,
    total: f64,
    model: Arc<IpModel>,
    export: String,
    digest: u64,
    adherence: Adherence,
    candidates: usize,
}

/// Runs the whole Table-1 fleet concurrently on a shared pool,
/// persists all sixteen models, re-runs the fleet solo-serial as the
/// timing + determinism baseline, and writes `BENCH_fleet.json`.
pub fn fleet_run(cfg: &RunConfig, opts: &FleetOptions) {
    let n = cfg.candidates;
    let pool_size = opts.pool_size.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    });
    let store_dir = opts.store_out.clone().unwrap_or_else(default_store_out);
    std::fs::create_dir_all(&store_dir)
        .unwrap_or_else(|e| panic!("cannot create model store dir {store_dir}: {e}"));
    let fleet_store =
        ModelStore::open(&store_dir).unwrap_or_else(|e| panic!("cannot open {store_dir}: {e}"));

    println!(
        "=== Fleet run: {} networks × {} addresses in / {} candidates out, \
         jobs {} (shard geometry), pool {} (workers) ===\n",
        ALL_DATASETS.len(),
        human(n),
        human(n),
        cfg.jobs,
        pool_size
    );

    // Phase 1: the concurrent fleet. One job thread per network, all
    // leasing fan-out threads from the one shared budget; each job
    // persists its model into the shared store as it finishes.
    //
    // Admission control: at most `pool_size` jobs execute at once.
    // The jobs are CPU-bound, so running more of them than the budget
    // has tokens buys no throughput — it only evicts each other's
    // cache-hot working sets on every context switch (measured ~1.6×
    // the sequential sum on a single-CPU host with all 16 unleashed).
    // All sixteen jobs are still in flight under the one command and
    // share the one budget; the gate only bounds how many are *running*.
    let pool = Arc::new(StealPool::new(pool_size));
    let gate = Arc::new((std::sync::Mutex::new(0usize), std::sync::Condvar::new()));
    let fleet_start = Instant::now();
    let concurrent: Vec<NetworkRun> = std::thread::scope(|s| {
        let handles: Vec<_> = ALL_DATASETS
            .iter()
            .map(|id| {
                let pool = Arc::clone(&pool);
                let store = fleet_store.clone();
                let gate = Arc::clone(&gate);
                s.spawn(move || {
                    let (active, turnstile) = &*gate;
                    {
                        let mut running = active.lock().expect("fleet gate");
                        while *running >= pool_size {
                            running = turnstile.wait(running).expect("fleet gate");
                        }
                        *running += 1;
                    }
                    let run = run_network(id, cfg, n, Some(pool));
                    let fp = store::fingerprint(&format!(
                        "fleet dataset={id} n={} seed={} jobs={}",
                        cfg.candidates, cfg.seed, cfg.jobs
                    ));
                    store
                        .save(id, &run.model, fp)
                        .unwrap_or_else(|e| panic!("persist {id}: {e}"));
                    *active.lock().expect("fleet gate") -= 1;
                    turnstile.notify_one();
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet job panicked"))
            .collect()
    });
    let fleet_wall = fleet_start.elapsed().as_secs_f64();
    let stats = pool.stats();
    drop(pool);

    let listed = fleet_store.list().expect("list model store");
    assert_eq!(
        listed.len(),
        ALL_DATASETS.len(),
        "model store should hold one model per network, found {listed:?}"
    );
    println!(
        "concurrent fleet: {fleet_wall:.3} s wall — {} models in {store_dir} \
         (pool: {} jobs, {} executed, {} caller-ran)\n",
        listed.len(),
        stats.jobs,
        stats.executed,
        stats.caller_ran
    );

    // Phase 2: the solo-serial baseline. Every network again, no
    // pool, one at a time — the honest sequential-sum reference and
    // the paper-scale determinism oracle in one pass.
    let mut serial: Vec<NetworkRun> = Vec::with_capacity(ALL_DATASETS.len());
    let serial_start = Instant::now();
    for id in ALL_DATASETS {
        serial.push(run_network(id, cfg, n, None));
    }
    let serial_sum = serial_start.elapsed().as_secs_f64();

    println!(
        "{:<4} {:>12} {:>12}   identity",
        "net", "fleet (s)", "solo (s)"
    );
    for (c, s) in concurrent.iter().zip(&serial) {
        assert_eq!(c.id, s.id);
        assert!(
            c.export == s.export && c.digest == s.digest,
            "{}: concurrent fleet output diverged from the solo serial run",
            c.id
        );
        println!(
            "{:<4} {:>12.3} {:>12.3}   model+candidates byte-identical",
            c.id, c.total, s.total
        );
    }
    let speedup = serial_sum / fleet_wall.max(1e-9);
    println!(
        "\nfleet wall {fleet_wall:.3} s   sequential sum {serial_sum:.3} s   speedup {speedup:.2}x"
    );
    if pool_size == 1 {
        println!(
            "(single-worker pool: the admission gate pipelines the fleet one job at \
             a time — the guard checks bounded overhead, not speedup)"
        );
    }

    let json = render_fleet_json(
        cfg,
        pool_size,
        &concurrent,
        &serial,
        fleet_wall,
        serial_sum,
        &stats,
        &store_dir,
    );
    let path = opts.bench_out.clone().unwrap_or_else(default_bench_out);
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nfleet timings written to {path}"),
        Err(e) => eprintln!("\nwarning: could not write {path}: {e}"),
    }
}

/// One network, end to end. `pool: Some` → fleet mode (a scheduler
/// on the shared thread budget); `None` → the solo serial
/// oracle. Both use the same `--jobs` shard geometry, so the outputs
/// must be byte-identical — the caller asserts it.
fn run_network(
    id: &'static str,
    cfg: &RunConfig,
    n: usize,
    pool: Option<Arc<StealPool>>,
) -> NetworkRun {
    let spec = dataset(id).unwrap_or_else(|| panic!("unknown dataset {id}"));
    let mut config = Config::default().with_parallelism(cfg.jobs);
    if let Some(pool) = &pool {
        config = config.with_pool(Arc::clone(pool));
    }
    let exec = config.scheduler();
    let pipeline = Pipeline::new(config);
    let mut timer = StageTimer::quiet();
    let seed = cfg.seed ^ store::fingerprint(id);

    let population = timer.stage("synthesize", || spec.population_sized_exec(n, seed, &exec));
    // Streaming ingest of a duplicate-heavy synthetic corpus, checked
    // bit-for-bit against the in-memory profile — same re-verification
    // the `--full` run does, now per network under fleet concurrency.
    let corpus_lines = n as u64 + n as u64 / 4;
    let ingested = timer.stage("ingest", || {
        let reader = CorpusReader::new(&population, corpus_lines, seed ^ 0xc0de);
        pipeline
            .profile_reader_streaming(reader, &IngestOptions::chunk_mib(cfg.chunk_mb.max(1)))
            .unwrap_or_else(|e| panic!("{id}: corpus ingest: {e}"))
            .0
    });
    let profiled = timer.stage("profile", || {
        pipeline
            .profile(population.iter())
            .unwrap_or_else(|e| panic!("{id}: profile: {e}"))
    });
    assert!(
        ingested.addresses() == profiled.addresses()
            && ingested.entropy() == profiled.entropy()
            && ingested.acr() == profiled.acr(),
        "{id}: streaming ingest diverged from the in-memory profile"
    );
    let segmented = timer.stage("segment", || profiled.segment());
    let mined = timer.stage("mine", || segmented.mine());
    let model = timer.stage("train", || {
        Arc::new(
            mined
                .train()
                .unwrap_or_else(|e| panic!("{id}: train: {e}"))
                .into_model(),
        )
    });
    let report = timer.stage("generate", || {
        Generator::shared(Arc::clone(&model))
            .with_scheduler(exec.clone())
            .attempts_per_candidate(8)
            .run_seeded(n, seed ^ 0xf001)
    });
    let adherence = timer.stage("evaluate", || {
        population_adherence(&report.candidates, &population, &exec)
    });
    // Concentrated plans (R4 and friends) can exhaust the 8× attempt
    // budget on duplicates before filling a 1M batch — the paper's
    // generator has the same property — so the batch may come up
    // short, but never empty.
    assert!(
        !report.candidates.is_empty(),
        "{id}: generator produced no candidates"
    );
    // Tracked quality assertion at paper scale only: diverse
    // aggregate plans (AT) can legitimately score zero /64 hits on
    // toy-sized smoke batches, but at 100K+ a trained model that hits
    // nothing means generation or evaluation regressed.
    assert!(
        n < 100_000 || adherence.hits > 0 || adherence.slash64_hits > 0,
        "{id}: model aims at no population address or /64"
    );

    let export = entropy_ip::profile::export(&model);
    let mut digest = eip_exec::rng::mix(seed, 0x0066_6c65_6574, 0); // "fleet"
    for ip in &report.candidates {
        digest = eip_exec::rng::mix(digest, (ip.0 >> 64) as u64, ip.0 as u64);
    }
    NetworkRun {
        id,
        total: timer.total(),
        stages: timer.stages().to_vec(),
        model,
        export,
        digest,
        adherence,
        candidates: report.candidates.len(),
    }
}

/// Default model-store directory: `target/fleet_models` under the
/// workspace root (artifacts, not sources — kept out of the tree).
fn default_store_out() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/fleet_models").to_string()
}

/// Default timings path: the bench crate's `BENCH_fleet.json`.
fn default_bench_out() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/BENCH_fleet.json").to_string()
}

#[allow(clippy::too_many_arguments)]
fn render_fleet_json(
    cfg: &RunConfig,
    pool_size: usize,
    concurrent: &[NetworkRun],
    serial: &[NetworkRun],
    fleet_wall: f64,
    serial_sum: f64,
    stats: &eip_exec::pool::PoolStats,
    store_dir: &str,
) -> String {
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"comment\": \"Fleet-scale concurrent sweep (`repro --fleet`): all 16 \
         Table-1 networks end-to-end on one shared thread budget, vs the sum \
         of 16 solo serial runs. Models and candidate streams are asserted \
         byte-identical between the two phases; only the timings vary.\",\n",
    );
    out.push_str(&format!("  \"unix_time\": {unix_time},\n"));
    out.push_str("  \"unit\": \"seconds\",\n");
    out.push_str(&format!(
        "  \"config\": {{ \"networks\": {}, \"addresses\": {}, \"candidates\": {}, \"seed\": {}, \"jobs\": {}, \"pool_workers\": {}, \"hardware_threads\": {} }},\n",
        concurrent.len(),
        cfg.candidates,
        cfg.candidates,
        cfg.seed,
        cfg.jobs,
        pool_size,
        hardware
    ));
    out.push_str(&format!("  \"store_dir\": \"{store_dir}\",\n"));
    out.push_str("  \"networks\": {\n");
    let last = concurrent.len().saturating_sub(1);
    for (i, (c, s)) in concurrent.iter().zip(serial).enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{ \"fleet\": {:.6}, \"solo\": {:.6}, \"candidates\": {}, \"slash64_hits\": {}, \"stages\": {{",
            c.id, c.total, s.total, c.candidates, c.adherence.slash64_hits
        ));
        let slast = c.stages.len().saturating_sub(1);
        for (j, (name, secs)) in c.stages.iter().enumerate() {
            out.push_str(&format!(
                " \"{name}\": {secs:.6}{}",
                if j == slast { " " } else { "," }
            ));
        }
        out.push_str(&format!("}} }}{}\n", if i == last { "" } else { "," }));
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"pool\": {{ \"jobs\": {}, \"executed\": {}, \"stolen\": {}, \"caller_ran\": {} }},\n",
        stats.jobs, stats.executed, stats.stolen, stats.caller_ran
    ));
    out.push_str(&format!("  \"fleet_wall\": {fleet_wall:.6},\n"));
    out.push_str(&format!("  \"sequential_sum\": {serial_sum:.6},\n"));
    out.push_str(&format!(
        "  \"speedup\": {:.4},\n",
        serial_sum / fleet_wall.max(1e-9)
    ));
    out.push_str(
        "  \"determinism\": \"all networks byte-identical between fleet and solo phases\"\n",
    );
    out.push_str("}\n");
    out
}
