//! The staged pipeline API: typed, independently re-runnable stages.
//!
//! Entropy/IP is a five-stage pipeline (profile → segment → mine →
//! train → generate), but callers rarely need all of it at once: the
//! figures want only the entropy profile, parameter sweeps want to
//! re-mine with new options without re-counting entropy, and a saved
//! profile wants to retrain the BN without touching the raw
//! addresses. [`Pipeline`] exposes each stage as a typed artifact:
//!
//! ```text
//! Pipeline::new(Config)
//!     .profile(ips)?      -> Profiled    entropy + ACR counters
//!     .segment()          -> Segmented   + lettered segments (§4.2)
//!     .mine()             -> Mined       + value dictionaries (§4.3)
//!     .train()?           -> Trained     + Bayesian network (§4.4)
//!     .into_model()       -> IpModel     browse / generate (§5)
//! ```
//!
//! Every stage is `Clone` and borrows nothing, so intermediate
//! artifacts can be kept, compared, and re-run: [`Segmented::mine_with`]
//! re-mines under different [`MiningOptions`] without recomputing the
//! entropy profile, and [`Mined::train_with`] retrains the BN without
//! re-mining. The address set is shared behind an [`Arc`], so cloning
//! a stage is cheap.
//!
//! **Streaming ingestion.** [`Pipeline::profile`] accepts any
//! `IntoIterator<Item = Ip6>` and feeds an
//! [`AddressSetBuilder`] plus
//! counter-based entropy ([`eip_stats::NybbleCounts`]) — no
//! intermediate `Vec<Ip6>` is materialized beyond the deduplicated
//! set itself. [`Pipeline::profile_lines`] does the same from a line
//! reader (one address per line, `#` comments allowed) on one thread
//! with a reused line buffer — it is the tested serial oracle for
//! [`Pipeline::profile_reader_streaming`]/[`Pipeline::profile_path`],
//! the chunked parallel engine ([`crate::ingest`]) that profiles
//! 100M+-line files in O(chunk size × workers) memory beyond the
//! distinct set, byte-identically at any chunk size and worker
//! count.
//!
//! **One engine per stage.** Every stage runs its sharded engine on
//! the [`eip_exec::Scheduler`] that [`Config::parallelism`] implies,
//! uniformly across `Profiled → Segmented → Mined → Trained`:
//! profiling shards the address stream and merges per-shard
//! [`NybbleCounts`]; mining builds every segment's value histogram
//! per input shard in one pass, merges them, then thresholds each
//! segment (see `mine_all`), so even one heavy segment parallelizes
//! *internally*; training encodes the addresses shard-wise into
//! per-segment byte columns (see `encode_dataset`) and learns the BN
//! on the count-reuse engine ([`eip_bayes::learn_structure_sharded`]),
//! which counts each child's candidate families in one sharded column
//! pass and fits CPTs from the same tables. With one worker each
//! engine runs a single shard inline. Every merge is an exact
//! integer-count reduction, so the model is identical at any worker
//! count and to the serial oracles
//! ([`mine_segment`](crate::mining::mine_segment),
//! [`eip_bayes::learn_structure`]), which survive only as test
//! support (see the oracle-pin and shard-equivalence tests). Batched
//! candidate generation rides the same scheduler through
//! [`Generator::run_seeded`](crate::Generator::run_seeded).
//!
//! The one-shot [`EntropyIp::analyze`](crate::EntropyIp::analyze) is
//! now a thin convenience over these stages and produces
//! byte-identical models (via [`crate::profile::export`]).

use std::io::{BufRead, Read};
use std::sync::Arc;

use eip_addr::{AddressSet, AddressSetBuilder, Ip6};
use eip_bayes::{learn_structure_sharded, Dataset, LearnOptions};
use eip_exec::Scheduler;
use eip_stats::{acr4, Histogram, NybbleCounts};

use crate::analysis::Analysis;
use crate::error::EipError;
use crate::ingest::{IngestOptions, IngestReport};
use crate::mining::{mine_segment_histogram, MinedSegment, MiningOptions};
use crate::model::{IpModel, Options};
use crate::segments::{Segment, SegmentationOptions};

/// Full pipeline configuration: the per-stage options plus the
/// worker-thread budget for the parallel hot paths.
#[derive(Clone, Debug)]
pub struct Config {
    /// Segmentation parameters (§4.2).
    pub segmentation: SegmentationOptions,
    /// Mining parameters (§4.3).
    pub mining: MiningOptions,
    /// Structure-learning parameters (§4.4).
    pub learning: LearnOptions,
    /// Worker budget of the hot stages: the shard geometry of every
    /// engine (1 = one shard, run inline). The model produced is
    /// identical at any setting; only wall-clock changes.
    pub parallelism: usize,
    /// Optional shared thread budget ([`Config::with_pool`]). When
    /// set, every fan-out of the hot stages leases its extra threads
    /// from this budget, so many concurrent pipeline jobs share a
    /// bounded number of threads. Speed only: the shard geometry stays
    /// [`Config::parallelism`], so the model is byte-identical with or
    /// without a budget, at any budget size.
    pub pool: Option<Arc<eip_exec::pool::StealPool>>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            segmentation: SegmentationOptions::default(),
            mining: MiningOptions::default(),
            learning: LearnOptions::default(),
            parallelism: 1,
            pool: None,
        }
    }
}

impl Config {
    /// Configuration for /64-prefix prediction (§5.6): analysis
    /// constrained to the top 64 bits.
    pub fn top64() -> Self {
        Config {
            segmentation: SegmentationOptions::top64(),
            ..Default::default()
        }
    }

    /// Sets the worker-thread budget (clamped to at least 1).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Attaches a shared thread budget: the hot stages' fan-outs will
    /// lease their extra threads from it. See [`Config::pool`].
    pub fn with_pool(mut self, pool: Arc<eip_exec::pool::StealPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The scheduler this configuration implies: worker budget =
    /// [`Config::parallelism`] (the shard geometry), attached to the
    /// shared pool when one is configured.
    pub fn scheduler(&self) -> Scheduler {
        match &self.pool {
            Some(pool) => Scheduler::shared(self.parallelism, Arc::clone(pool)),
            None => Scheduler::new(self.parallelism),
        }
    }
}

impl From<Options> for Config {
    fn from(opts: Options) -> Self {
        Config {
            segmentation: opts.segmentation,
            mining: opts.mining,
            learning: opts.learning,
            parallelism: 1,
            pool: None,
        }
    }
}

/// The staged Entropy/IP pipeline. See the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    cfg: Config,
}

impl Pipeline {
    /// A pipeline with the given configuration.
    pub fn new(cfg: Config) -> Self {
        Pipeline { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// Stage 1 — streaming ingestion and profiling. Deduplicates the
    /// addresses (reducing them to their /64 networks first in top-64
    /// mode, as §5.6 trains on prefixes) and accumulates the entropy
    /// and ACR profiles.
    ///
    /// Fails with [`EipError::EmptySet`] if the iterator yields
    /// nothing.
    pub fn profile<I>(&self, ips: I) -> Result<Profiled, EipError>
    where
        I: IntoIterator<Item = Ip6>,
    {
        let top64 = self.cfg.segmentation.width <= 16;
        let mut builder = AddressSetBuilder::new();
        for ip in ips {
            builder.push(if top64 { ip.slash64() } else { ip });
        }
        self.profile_working(builder.finish())
    }

    /// Profiles an already-ingested working set (top-64 reduction and
    /// deduplication must have happened during ingestion). The nybble
    /// counting shards the address stream and merges per-shard
    /// [`NybbleCounts`] — an exact reduction, so the profile is
    /// identical at any worker count.
    fn profile_working(&self, working: AddressSet) -> Result<Profiled, EipError> {
        if working.is_empty() {
            return Err(EipError::EmptySet);
        }
        let exec = self.cfg.scheduler();
        // Shards count through the wide slice kernel
        // ([`NybbleCounts::observe_slice`]: two independent u64
        // half-walks per address instead of one serialized u128
        // chain); per-shard counts merge exactly, so the profile is
        // identical at any worker count and to the scalar
        // `observe` oracle. One worker means one shard, run inline.
        let counts = exec
            .par_map_reduce(
                working.len(),
                |range| {
                    let mut counts = NybbleCounts::new();
                    counts.observe_slice(&working.as_slice()[range]);
                    counts
                },
                |acc, part| acc.merge(&part),
            )
            .expect("non-empty working set");
        let entropy = counts.entropy();
        let acr = acr4(&working);
        Ok(Profiled {
            cfg: self.cfg.clone(),
            working: Arc::new(working),
            entropy,
            acr,
        })
    }

    /// Stage 1 from a line reader: one address per line (colon or
    /// fixed-width hex format), blank lines and `#` comments skipped.
    ///
    /// This is the **serial ingestion oracle**: one thread, one
    /// reused line buffer ([`BufRead::read_until`] — no per-line
    /// `String` allocation, and the allocation-free
    /// [`eip_addr::set::parse_address_bytes`] classifier shared with
    /// the chunked engine), feeding an [`AddressSetBuilder`]. The
    /// streaming engine below is verified byte-identical against it;
    /// use [`Pipeline::profile_reader_streaming`] or
    /// [`Pipeline::profile_path`] when the input is large.
    pub fn profile_lines<R: BufRead>(&self, mut reader: R) -> Result<Profiled, EipError> {
        let top64 = self.cfg.segmentation.width <= 16;
        let mut builder = AddressSetBuilder::new();
        let mut buf: Vec<u8> = Vec::with_capacity(128);
        let mut no = 0usize;
        loop {
            buf.clear();
            no += 1;
            let n = reader
                .read_until(b'\n', &mut buf)
                .map_err(|e| EipError::io(format!("line {no}"), e))?;
            if n == 0 {
                break;
            }
            if let Some(ip) = eip_addr::set::parse_address_bytes(no, &buf)? {
                builder.push(if top64 { ip.slash64() } else { ip });
            }
        }
        self.profile_working(builder.finish())
    }

    /// Stage 1 from any [`Read`] through the **bounded-memory
    /// parallel streaming engine** ([`crate::ingest`]): newline-
    /// aligned chunks fan out on the scheduler, per-chunk sorted runs
    /// merge into the working set, and peak memory stays
    /// O(chunk size × workers) plus the distinct set — independent of
    /// the raw stream length. The `Profiled` artifact is
    /// byte-identical to [`Pipeline::profile_lines`] at every chunk
    /// size and worker count (pinned by the chunk-boundary torture
    /// suite). Also returns the [`IngestReport`] with line/byte
    /// throughput and the peak working-set estimate.
    pub fn profile_reader_streaming<R: Read>(
        &self,
        reader: R,
        opts: &IngestOptions,
    ) -> Result<(Profiled, IngestReport), EipError> {
        let top64 = self.cfg.segmentation.width <= 16;
        let (set, report) =
            crate::ingest::ingest_reader(reader, top64, &self.cfg.scheduler(), opts)?;
        Ok((self.profile_working(set)?, report))
    }

    /// Stage 1 from a file path via the streaming engine with default
    /// [`IngestOptions`] — the `eip analyze ips.txt` ingestion path.
    pub fn profile_path(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(Profiled, IngestReport), EipError> {
        self.profile_path_with(path, &IngestOptions::default())
    }

    /// [`Pipeline::profile_path`] with explicit [`IngestOptions`]
    /// (the CLI `--chunk-mb` knob lands here).
    pub fn profile_path_with(
        &self,
        path: impl AsRef<std::path::Path>,
        opts: &IngestOptions,
    ) -> Result<(Profiled, IngestReport), EipError> {
        let path = path.as_ref();
        let file =
            std::fs::File::open(path).map_err(|e| EipError::io(path.display().to_string(), e))?;
        self.profile_reader_streaming(file, opts)
    }

    /// All four stages in one call (the staged equivalent of
    /// [`EntropyIp::analyze`](crate::EntropyIp::analyze)).
    pub fn run<I>(&self, ips: I) -> Result<IpModel, EipError>
    where
        I: IntoIterator<Item = Ip6>,
    {
        Ok(self.profile(ips)?.segment().mine().train()?.into_model())
    }
}

/// Stage-1 artifact: the deduplicated working set with its entropy
/// and ACR profiles.
#[derive(Clone, Debug)]
pub struct Profiled {
    cfg: Config,
    working: Arc<AddressSet>,
    entropy: [f64; 32],
    acr: [f64; 32],
}

impl Profiled {
    /// The configuration this artifact was produced under.
    pub fn config(&self) -> &Config {
        &self.cfg
    }

    /// The deduplicated working set (already /64-reduced in top-64
    /// mode).
    pub fn addresses(&self) -> &AddressSet {
        &self.working
    }

    /// Normalized per-nybble entropy Ĥ(X₁)…Ĥ(X₃₂).
    pub fn entropy(&self) -> &[f64; 32] {
        &self.entropy
    }

    /// Normalized 4-bit aggregate count ratios.
    pub fn acr(&self) -> &[f64; 32] {
        &self.acr
    }

    /// Total entropy Ĥ_S over the analyzed width.
    pub fn total_entropy(&self) -> f64 {
        self.entropy[..self.cfg.segmentation.width].iter().sum()
    }

    /// Number of distinct addresses profiled.
    pub fn num_addresses(&self) -> usize {
        self.working.len()
    }

    /// Stage 2 — segmentation of the entropy profile (§4.2).
    pub fn segment(&self) -> Segmented {
        let analysis = Analysis::from_profile(
            self.entropy,
            self.acr,
            self.working.len(),
            &self.cfg.segmentation,
        );
        Segmented {
            profiled: self.clone(),
            analysis,
        }
    }
}

/// Stage-2 artifact: the profile plus its lettered segments, packaged
/// as the [`Analysis`] the figures and the model display.
#[derive(Clone, Debug)]
pub struct Segmented {
    profiled: Profiled,
    analysis: Analysis,
}

impl Segmented {
    /// The configuration this artifact was produced under.
    pub fn config(&self) -> &Config {
        &self.profiled.cfg
    }

    /// The deduplicated working set.
    pub fn addresses(&self) -> &AddressSet {
        self.profiled.addresses()
    }

    /// The full analysis (entropy, ACR, Ĥ_S, segments).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// The discovered segments, left to right.
    pub fn segments(&self) -> &[Segment] {
        &self.analysis.segments
    }

    /// Stage 3 — mines every segment's value dictionary with the
    /// configured [`MiningOptions`].
    pub fn mine(&self) -> Mined {
        self.mine_with(&self.profiled.cfg.mining)
    }

    /// Stage 3 with explicit options: re-mines this artifact without
    /// recomputing the entropy profile or segmentation. Mining runs
    /// the sharded engine (per-shard histograms for every segment in
    /// one pass over the addresses, merged and then thresholded); the
    /// result is identical at any worker count.
    pub fn mine_with(&self, opts: &MiningOptions) -> Mined {
        let mined = mine_all(
            &self.profiled.working,
            &self.analysis.segments,
            opts,
            &self.profiled.cfg.scheduler(),
        );
        Mined {
            segmented: self.clone(),
            mined,
        }
    }
}

/// Stage-3 artifact: the segmentation plus one mined value dictionary
/// per segment.
#[derive(Clone, Debug)]
pub struct Mined {
    segmented: Segmented,
    mined: Vec<MinedSegment>,
}

impl Mined {
    /// The configuration this artifact was produced under.
    pub fn config(&self) -> &Config {
        self.segmented.config()
    }

    /// The deduplicated working set.
    pub fn addresses(&self) -> &AddressSet {
        self.segmented.addresses()
    }

    /// The analysis this mining was based on.
    pub fn analysis(&self) -> &Analysis {
        self.segmented.analysis()
    }

    /// Mined value dictionaries, one per segment.
    pub fn mined(&self) -> &[MinedSegment] {
        &self.mined
    }

    /// Stage 4 — encodes the working set as categorical rows and
    /// learns the Bayesian network with the configured
    /// [`LearnOptions`].
    pub fn train(&self) -> Result<Trained, EipError> {
        self.train_with(&self.config().learning)
    }

    /// Stage 4 with explicit options: retrains the BN on this
    /// artifact without re-mining. Variable names are always the
    /// segment letters, and the worker budget is
    /// [`Config::parallelism`]: the encode loop shards the address
    /// stream into per-segment byte columns on the scheduler, and
    /// structure learning runs the count-reuse engine
    /// ([`eip_bayes::learn_structure_sharded`]) — identical network
    /// at any worker count.
    ///
    /// The mining stop rule ("if there is <=0.1% of values left, we
    /// finish") can leave a sliver of rare segment values outside
    /// every dictionary; those addresses are dropped from BN
    /// training, exactly as the paper's V_k construction implies. If
    /// *no* address encodes, this fails with [`EipError::EmptySet`].
    pub fn train_with(&self, opts: &LearnOptions) -> Result<Trained, EipError> {
        // The columnar dataset stores codes as bytes; a dictionary
        // past 256 values (possible only with extreme MiningOptions)
        // must fail cleanly here, not panic inside the encoder.
        if let Some(m) = self.mined.iter().find(|m| m.cardinality() > 256) {
            return Err(EipError::Unsupported(format!(
                "segment {} mined {} dictionary values; BN training supports at most 256",
                m.segment.label,
                m.cardinality()
            )));
        }
        let exec = self.config().scheduler();
        let dataset = encode_dataset(&self.segmented.profiled.working, &self.mined, &exec);
        if dataset.is_empty() {
            return Err(EipError::EmptySet);
        }
        let mut learn_opts = opts.clone();
        learn_opts.names = self
            .analysis()
            .segments
            .iter()
            .map(|s| s.label.clone())
            .collect();
        // The configured scheduler carries the shared thread budget,
        // so a pool-attached pipeline's counting passes lease their
        // threads from it too.
        let bn = learn_structure_sharded(&dataset, &learn_opts, &exec);
        Ok(Trained {
            model: IpModel::from_parts(self.analysis().clone(), self.mined.clone(), bn),
        })
    }
}

/// Stage-4 artifact: the trained model.
#[derive(Clone, Debug)]
pub struct Trained {
    model: IpModel,
}

impl Trained {
    /// The trained model.
    pub fn model(&self) -> &IpModel {
        &self.model
    }

    /// Consumes the artifact into the model.
    pub fn into_model(self) -> IpModel {
        self.model
    }
}

/// Mines every segment on the sharded engine: the §4.3 counting
/// phase runs as shard-count-then-merge. One pass over each input
/// shard slices every address's segment values *once*, each shard
/// run-length-encodes its own [`Histogram`] per segment, shard
/// histograms merge in shard order (exact integer counts), and the
/// thresholding core then runs per segment on the scheduler. This
/// parallelizes *within* every segment, so a single heavy segment
/// (e.g. a pseudo-random IID segment with a huge histogram) does not
/// own the critical path. With one worker the single shard runs
/// inline.
///
/// No RNG is involved and the merge is exact, so the dictionaries
/// are identical at any worker count and to the per-segment
/// [`mine_segment`](crate::mining::mine_segment) oracle (pinned by
/// `tests::parallel_mining_matches_serial`).
fn mine_all(
    working: &AddressSet,
    segments: &[Segment],
    opts: &MiningOptions,
    exec: &Scheduler,
) -> Vec<MinedSegment> {
    let merged: Vec<Histogram> = exec
        .par_map_reduce(
            working.len(),
            |range| shard_histograms(&working.as_slice()[range], segments),
            |acc, part| {
                for (a, b) in acc.iter_mut().zip(&part) {
                    a.merge(b);
                }
            },
        )
        .unwrap_or_else(|| vec![Histogram::default(); segments.len()]);
    let items: Vec<(&Segment, Histogram)> = segments.iter().zip(merged).collect();
    exec.par_map_owned(items, |(seg, hist)| mine_segment_histogram(seg, hist, opts))
}

/// One mining shard: a single pass over `addrs` that slices every
/// segment's value straight off each address's `u128`
/// ([`Ip6::segment`]: one shift + one mask, no nybble expansion),
/// then run-length-encodes one histogram per segment.
///
/// The shard is processed in fixed-size sub-blocks so the transient
/// value buffers stay at `segments × BLOCK × 16 B` (a few MB) instead
/// of `segments × shard_len` — at paper scale (1M addresses, ~8
/// segments) the naive all-at-once buffers would transiently hold
/// over 100 MB. Sub-block histograms merge exactly, so the result is
/// byte-identical to a single-block pass.
fn shard_histograms(addrs: &[Ip6], segments: &[Segment]) -> Vec<Histogram> {
    /// Addresses per sub-block (65 536 × 16 B = 1 MiB per segment).
    const BLOCK: usize = 1 << 16;
    let mut hists: Vec<Histogram> = vec![Histogram::default(); segments.len()];
    for block in addrs.chunks(BLOCK) {
        let mut values: Vec<Vec<u128>> = segments
            .iter()
            .map(|_| Vec::with_capacity(block.len()))
            .collect();
        for &ip in block {
            for (vs, seg) in values.iter_mut().zip(segments) {
                vs.push(ip.segment(seg.start, seg.end));
            }
        }
        for (h, vs) in hists.iter_mut().zip(values) {
            h.merge(&Histogram::from_values_owned(vs));
        }
    }
    hists
}

/// Encodes the working set as a columnar [`Dataset`]: one byte column
/// per mined segment, built shard-wise on the scheduler with no
/// intermediate row `Vec`s.
///
/// Each shard slices segment values directly off each address
/// ([`Ip6::segment`]), encodes them into a fixed on-stack buffer,
/// and appends the row
/// to its per-segment columns only if **every** segment encodes
/// (addresses outside the dictionaries are dropped, as §4.4's V_k
/// construction implies). Shard columns concatenate in shard order,
/// so the row order — and therefore the dataset — is identical at any
/// worker count; with one worker the single shard runs inline.
fn encode_dataset(working: &AddressSet, mined: &[MinedSegment], exec: &Scheduler) -> Dataset {
    let cardinalities: Vec<usize> = mined.iter().map(|m| m.cardinality()).collect();
    let columns = exec
        .par_map_reduce(
            working.len(),
            |range| {
                let mut cols: Vec<Vec<u8>> = mined.iter().map(|_| Vec::new()).collect();
                // Segments partition at most 32 nybbles, so a row
                // always fits this stack buffer.
                let mut row = [0u8; 32];
                'rows: for ip in &working.as_slice()[range] {
                    for (slot, m) in row.iter_mut().zip(mined) {
                        match m.encode(ip.segment(m.segment.start, m.segment.end)) {
                            Some(code) => *slot = code as u8,
                            None => continue 'rows,
                        }
                    }
                    for (col, &code) in cols.iter_mut().zip(&row[..mined.len()]) {
                        col.push(code);
                    }
                }
                cols
            },
            |acc, part| {
                for (a, p) in acc.iter_mut().zip(part) {
                    a.extend_from_slice(&p);
                }
            },
        )
        .unwrap_or_else(|| mined.iter().map(|_| Vec::new()).collect());
    Dataset::from_columns(cardinalities, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EntropyIp;
    use crate::profile;

    fn training_set() -> AddressSet {
        (0..900u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | ((i % 8) << 80) | (i % 120)))
            .collect()
    }

    #[test]
    fn staged_matches_one_shot_exactly() {
        let set = training_set();
        let staged = Pipeline::new(Config::default())
            .profile(set.iter())
            .unwrap()
            .segment()
            .mine()
            .train()
            .unwrap()
            .into_model();
        let one_shot = EntropyIp::new().analyze(&set).unwrap();
        assert_eq!(profile::export(&staged), profile::export(&one_shot));
    }

    #[test]
    fn stages_expose_their_artifacts() {
        let set = training_set();
        let profiled = Pipeline::new(Config::default())
            .profile(set.iter())
            .unwrap();
        assert_eq!(profiled.num_addresses(), set.len());
        assert!(profiled.total_entropy() > 0.0);
        assert_eq!(profiled.entropy()[0], 0.0, "constant top nybble");
        let segmented = profiled.segment();
        assert!(segmented.segments().len() >= 3);
        assert_eq!(segmented.analysis().width, 32);
        let mined = segmented.mine();
        assert_eq!(mined.mined().len(), segmented.segments().len());
        let trained = mined.train().unwrap();
        assert_eq!(trained.model().mined().len(), mined.mined().len());
    }

    #[test]
    fn remine_without_reprofiling() {
        // Last byte: dominant value 7 plus three stragglers — the
        // stragglers are enumerated verbatim by the default miner but
        // collapse into one range when enumeration is disabled.
        let base = 0x2001_0db8u128 << 96;
        let mut v: Vec<Ip6> = (0..500u128).map(|i| Ip6(base | (i << 8) | 7)).collect();
        v.extend(
            [100u128, 200, 300]
                .iter()
                .map(|&x| Ip6(base | (600 << 8) | x)),
        );
        let segmented = Pipeline::new(Config::default())
            .profile(v)
            .unwrap()
            .segment();
        let default = segmented.mine();
        let coarse = segmented.mine_with(&MiningOptions {
            enumerate_limit: 0,
            ..MiningOptions::default()
        });
        // Same segmentation, different dictionaries.
        assert_eq!(default.analysis(), coarse.analysis());
        assert_ne!(
            default
                .mined()
                .iter()
                .map(|m| m.cardinality())
                .sum::<usize>(),
            coarse
                .mined()
                .iter()
                .map(|m| m.cardinality())
                .sum::<usize>(),
        );
        // Both still train.
        assert!(coarse.train().is_ok());
    }

    #[test]
    fn retrain_without_remining() {
        let mined = Pipeline::new(Config::default())
            .profile(training_set().iter())
            .unwrap()
            .segment()
            .mine();
        let dense = mined.train().unwrap();
        let edgeless = mined
            .train_with(&LearnOptions {
                max_parents: 0,
                ..LearnOptions::default()
            })
            .unwrap();
        assert!(edgeless.model().bn().edges().is_empty());
        // Dictionaries are shared; only the BN differs.
        assert_eq!(dense.model().mined(), edgeless.model().mined());
    }

    #[test]
    fn oversized_dictionary_is_a_clean_error() {
        // Extreme MiningOptions can enumerate a dictionary past the
        // 256 codes the byte-columnar trainer stores; training must
        // fail with Unsupported, not panic inside the encoder.
        let set: AddressSet = (0..400u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | (i.wrapping_mul(2654435761) % 65536)))
            .collect();
        let segmented = Pipeline::new(Config::default())
            .profile(set.iter())
            .unwrap()
            .segment();
        let mined = segmented.mine_with(&MiningOptions {
            top_per_step: 0,
            enumerate_limit: 1000,
            ..MiningOptions::default()
        });
        let max_card = mined.mined().iter().map(|m| m.cardinality()).max().unwrap();
        assert!(max_card > 256, "setup should over-mine (got {max_card})");
        match mined.train() {
            Err(EipError::Unsupported(msg)) => {
                assert!(msg.contains("256"), "{msg}");
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_is_an_error() {
        assert_eq!(
            Pipeline::new(Config::default())
                .profile(std::iter::empty())
                .unwrap_err(),
            EipError::EmptySet
        );
    }

    #[test]
    fn profile_lines_streams_and_reports_errors() {
        let p = Pipeline::new(Config::default());
        let good = "# header\n2001:db8::1\n\n20010db8000000000000000000000002\n";
        let profiled = p.profile_lines(good.as_bytes()).unwrap();
        assert_eq!(profiled.num_addresses(), 2);
        let bad = "2001:db8::1\nbogus\n";
        match p.profile_lines(bad.as_bytes()) {
            Err(EipError::Parse(msg)) => assert!(msg.contains("line 2"), "{msg}"),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn streaming_profile_matches_serial_oracle() {
        // The chunked parallel engine must reproduce the serial
        // profile bit for bit, at clamped-tiny and huge chunk sizes,
        // serial and sharded, in both width modes.
        let mut text = String::from("# corpus\n");
        for ip in training_set().iter() {
            text.push_str(&ip.to_hex32());
            text.push('\n');
        }
        for cfg in [Config::default(), Config::top64()] {
            let serial = Pipeline::new(cfg.clone())
                .profile_lines(text.as_bytes())
                .unwrap();
            for (chunk, workers) in [(1usize, 2usize), (64, 4), (1 << 22, 1)] {
                let p = Pipeline::new(cfg.clone().with_parallelism(workers));
                let (streamed, report) = p
                    .profile_reader_streaming(
                        text.as_bytes(),
                        &IngestOptions {
                            chunk_bytes: chunk,
                            ..IngestOptions::default()
                        },
                    )
                    .unwrap();
                assert_eq!(streamed.entropy(), serial.entropy(), "chunk={chunk}");
                assert_eq!(streamed.acr(), serial.acr());
                assert_eq!(streamed.addresses(), serial.addresses());
                assert_eq!(report.distinct, serial.num_addresses());
                assert_eq!(report.bytes, text.len() as u64);
            }
        }
    }

    #[test]
    fn top64_config_reduces_to_prefixes() {
        let profiled = Pipeline::new(Config::top64())
            .profile(training_set().iter())
            .unwrap();
        assert_eq!(profiled.num_addresses(), 8, "8 distinct /64s");
        for ip in profiled.addresses().iter() {
            assert_eq!(ip.value() & u128::from(u64::MAX), 0);
        }
    }

    /// The model the serial oracles build from the same segmentation:
    /// [`mine_segment`](crate::mining::mine_segment) per segment, a
    /// row-wise encode, then [`eip_bayes::learn_structure`].
    fn oracle_model(segmented: &Segmented) -> IpModel {
        use crate::mining::mine_segment;
        let opts = MiningOptions::default();
        let mined: Vec<MinedSegment> = segmented
            .segments()
            .iter()
            .map(|seg| {
                let values: Vec<u128> = segmented
                    .addresses()
                    .iter()
                    .map(|ip| ip.segment(seg.start, seg.end))
                    .collect();
                mine_segment(seg, &values, &opts)
            })
            .collect();
        let rows: Vec<Vec<usize>> = segmented
            .addresses()
            .iter()
            .filter_map(|ip| {
                mined
                    .iter()
                    .map(|m| m.encode(ip.segment(m.segment.start, m.segment.end)))
                    .collect()
            })
            .collect();
        let cards = mined.iter().map(|m| m.cardinality()).collect();
        let learn_opts = LearnOptions {
            names: segmented
                .segments()
                .iter()
                .map(|s| s.label.clone())
                .collect(),
            ..LearnOptions::default()
        };
        let bn = eip_bayes::learn_structure(&Dataset::new(cards, rows), &learn_opts);
        IpModel::from_parts(segmented.analysis().clone(), mined, bn)
    }

    #[test]
    fn parallel_mining_matches_serial() {
        // The engines are the only production path at every worker
        // count, one included; pin them to the serial oracles.
        let set = training_set();
        let segmented = Pipeline::new(Config::default())
            .profile(set.iter())
            .unwrap()
            .segment();
        let expect = profile::export(&oracle_model(&segmented));
        for workers in [1usize, 2, 7] {
            let model = Pipeline::new(Config::default().with_parallelism(workers))
                .run(set.iter())
                .unwrap();
            assert_eq!(profile::export(&model), expect, "{workers} workers");
        }
    }

    #[test]
    fn pool_attached_pipeline_matches_scoped() {
        // Attaching a shared thread budget is a pure speed change:
        // the full staged model must be byte-identical to the
        // unattached run at every budget size and worker geometry.
        let set = training_set();
        let serial = Pipeline::new(Config::default()).run(set.iter()).unwrap();
        let expect = profile::export(&serial);
        for pool_size in [1usize, 2, 7, 8] {
            let pool = Arc::new(eip_exec::pool::StealPool::new(pool_size));
            for workers in [2usize, 5] {
                let cfg = Config::default()
                    .with_parallelism(workers)
                    .with_pool(Arc::clone(&pool));
                assert!(cfg.scheduler().has_pool());
                let model = Pipeline::new(cfg).run(set.iter()).unwrap();
                assert_eq!(
                    profile::export(&model),
                    expect,
                    "pool {pool_size}, workers {workers}"
                );
            }
        }
    }

    #[test]
    fn sharded_engine_is_worker_count_independent() {
        // Profiling and mining shard by the worker count; the model
        // (and every intermediate artifact) must be identical at
        // every worker count, including counts that exceed the input
        // size.
        let set = training_set();
        let serial = Pipeline::new(Config::default())
            .profile(set.iter())
            .unwrap();
        for workers in [2usize, 3, 5, 16] {
            let parallel = Pipeline::new(Config::default().with_parallelism(workers))
                .profile(set.iter())
                .unwrap();
            assert_eq!(parallel.entropy(), serial.entropy(), "{workers} workers");
            assert_eq!(parallel.acr(), serial.acr());
            let mined = parallel.segment().mine();
            assert_eq!(mined.mined(), serial.segment().mine().mined());
        }
    }
}
