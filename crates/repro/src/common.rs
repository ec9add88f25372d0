//! Shared plumbing for the experiment harness, built on the staged
//! [`Pipeline`] API.

use eip_addr::set::SplitMix64;
use eip_addr::{AddressSet, Ip6};
use eip_exec::Scheduler;
use eip_netsim::{dataset, FaultConfig, Responder};
use entropy_ip::{Config, EipError, Generator, IpModel, Pipeline};

/// Harness-wide knobs, set from the command line.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Training sample size (paper: 1 000).
    pub train: usize,
    /// Candidates generated per network (paper: 1 000 000; default
    /// scaled down for quick runs).
    pub candidates: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Probe-loss fraction injected into the responder.
    pub probe_loss: f64,
    /// Worker threads for the scheduler-backed hot paths (synthesis,
    /// profiling, mining, generation, evaluation). Every path draws
    /// keyed per-index randomness ([`eip_exec::rng`]), so all output
    /// is byte-identical at **any** `jobs` value — only wall-clock
    /// changes.
    pub jobs: usize,
    /// Streaming-ingest chunk size in MiB for the `--full` ingest
    /// stage and `--corpus-out` sizing (clamped to at least 1).
    pub chunk_mb: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            train: 1_000,
            candidates: 100_000,
            seed: 20160317,
            probe_loss: 0.0,
            jobs: 1,
            chunk_mb: 4,
        }
    }
}

impl RunConfig {
    /// The pipeline configuration these knobs imply (full-width).
    pub fn pipeline(&self) -> Pipeline {
        Pipeline::new(Config::default().with_parallelism(self.jobs))
    }

    /// The top-64-bit (prefix) pipeline.
    pub fn prefix_pipeline(&self) -> Pipeline {
        Pipeline::new(Config::top64().with_parallelism(self.jobs))
    }
}

/// Generates the evaluation candidates for one experiment: the keyed
/// batched generator ([`Generator::run_seeded`]), whose candidate
/// stream is a pure function of `(model, n, seed)` — byte-identical
/// at **every** `--jobs` value, including 1. The old two-regime split
/// (serial `StdRng` stream at `jobs == 1`, chunked batching above) is
/// gone: keyed per-attempt draws made the worker count invisible, so
/// all tables print identically at any `--jobs` (asserted by the
/// tier-1 determinism suite).
pub fn generate_candidates(
    model: &IpModel,
    exclude: &AddressSet,
    n: usize,
    seed: u64,
    jobs: usize,
) -> Vec<Ip6> {
    Generator::new(model)
        .excluding(exclude)
        .attempts_per_candidate(8)
        .parallelism(jobs)
        .run_seeded(n, seed)
        .candidates
}

/// Everything one scanning experiment needs for a dataset family.
pub struct Workbench {
    /// Training sample.
    pub train: AddressSet,
    /// Held-out remainder.
    pub test: AddressSet,
    /// The measurement oracle (knows observed + unobserved actives).
    pub responder: Responder,
    /// The trained model.
    pub model: IpModel,
}

/// Builds the full workbench for one dataset id.
///
/// The responder's ground truth is the observed population plus a
/// same-plan *unobserved* population half its size — scanning can
/// legitimately discover hosts nobody had in their dataset, which is
/// how the paper finds more "Ping" hits than "Test set" hits for some
/// networks.
pub fn workbench(id: &str, cfg: &RunConfig) -> Workbench {
    let spec = dataset(id).unwrap_or_else(|| panic!("unknown dataset {id}"));
    let exec = Scheduler::new(cfg.jobs);
    let observed = spec.population_sized_exec(spec.default_population, cfg.seed, &exec);
    let mut split_rng = SplitMix64::new(cfg.seed ^ 0xbeef);
    let (train, test) = observed.split_sample(cfg.train, &mut split_rng);

    let unobserved = spec.plan().generate_keyed_sharded(
        spec.default_population / 2,
        0,
        cfg.seed ^ 0x5eed,
        &exec,
    );
    let active = observed.union(&unobserved);
    let responder =
        Responder::new(active, spec.rdns_fraction, cfg.seed ^ 0xd15).with_faults(FaultConfig {
            probe_loss: cfg.probe_loss,
            echo_prefixes: vec![],
            seed: cfg.seed,
        });

    let model = cfg
        .pipeline()
        .run(train.iter())
        .expect("non-empty training set");
    Workbench {
        train,
        test,
        responder,
        model,
    }
}

/// Builds only observed population + trained model (for figures).
pub fn quick_model(id: &str, n: usize, seed: u64) -> (AddressSet, IpModel) {
    let spec = dataset(id).unwrap_or_else(|| panic!("unknown dataset {id}"));
    let observed = spec.population_sized(n, seed);
    let model = Pipeline::new(Config::default())
        .run(observed.iter())
        .expect("non-empty set");
    (observed, model)
}

/// Trains a top-64-bit (prefix) model.
pub fn prefix_model(prefixes: &AddressSet, cfg: &RunConfig) -> Result<IpModel, EipError> {
    cfg.prefix_pipeline().run(prefixes.iter())
}

/// Human formatting: 12345 → "12.3 K", matching the paper's table
/// style.
pub fn human(n: usize) -> String {
    let n = n as f64;
    if n >= 1e9 {
        format!("{:.1} G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.1} M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1} K", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}
