//! # Entropy/IP — uncovering structure in IPv6 addresses
//!
//! A from-scratch reproduction of *Entropy/IP: Uncovering Structure
//! in IPv6 Addresses* (Foremski, Plonka & Berger, IMC 2016). Given a
//! set of active IPv6 addresses, the pipeline:
//!
//! 1. computes the normalized entropy of each of the 32 hex-character
//!    positions ([`eip_stats::nybble_entropy`], §4.1);
//! 2. groups adjacent nybbles of similar entropy into *segments*
//!    ([`segments`], §4.2 — threshold set `{0.025, 0.1, 0.3, 0.5,
//!    0.9}` with 0.05 hysteresis, hard boundaries after bits 32/64);
//! 3. mines each segment for popular values and dense ranges
//!    ([`mining`], §4.3 — IQR outliers, then two DBSCAN passes);
//! 4. re-codes every address as a categorical vector and learns a
//!    Bayesian network over the segments ([`model`], §4.4);
//! 5. serves exploration and generation: the conditional probability
//!    browser ([`browser`]) and the candidate target generator
//!    ([`generate`], §5.5–5.6).
//!
//! ## Quickstart — the staged pipeline
//!
//! The canonical entry point is [`Pipeline`]: each stage is a typed,
//! `Clone`-able artifact that can be inspected and re-run on its own
//! (re-mine with different [`MiningOptions`] without recomputing the
//! entropy profile; retrain the BN without re-mining). Ingestion is
//! streaming: [`Pipeline::profile`] takes any `Iterator<Item = Ip6>`.
//!
//! ```
//! use eip_addr::Ip6;
//! use entropy_ip::{Config, Pipeline};
//!
//! // A toy "network": one /64, IIDs counting upward — streamed
//! // straight from the iterator, no intermediate Vec.
//! let pipeline = Pipeline::new(Config::default());
//! let profiled = pipeline
//!     .profile((0..512u128).map(|i| Ip6((0x2001_0db8_0001_0000u128 << 64) | i)))
//!     .unwrap();
//! assert!(profiled.total_entropy() < 4.0); // highly structured
//!
//! // Segment, mine, and train — each artifact is inspectable.
//! let segmented = profiled.segment();
//! let mined = segmented.mine();
//! assert_eq!(mined.mined().len(), segmented.segments().len());
//! let model = mined.train().unwrap().into_model();
//!
//! // Generate fresh candidates that match the discovered structure.
//! let mut rng = rand::thread_rng();
//! let candidates = model.generate(100, 10_000, &mut rng);
//! assert!(!candidates.is_empty());
//! ```
//!
//! The one-shot convenience is still there — `EntropyIp::analyze`
//! runs all four stages and returns the same model byte-for-byte:
//!
//! ```
//! use eip_addr::{AddressSet, Ip6};
//! use entropy_ip::EntropyIp;
//!
//! let ips: AddressSet = (0..512u128)
//!     .map(|i| Ip6((0x2001_0db8_0001_0000u128 << 64) | i))
//!     .collect();
//! let model = EntropyIp::new().analyze(&ips).unwrap();
//! assert!(model.analysis().total_entropy < 4.0);
//! ```
//!
//! All fallible operations report the unified [`EipError`].
//! Every stage runs one sharded engine on the deterministic chunked
//! scheduler ([`eip_exec::Scheduler`]) that [`Config::parallelism`]
//! sizes, one worker included: profiling shards the address stream
//! and merges per-shard nybble counts, mining builds per-shard value
//! histograms for every segment in one pass, merges them, and
//! thresholds — so even a single heavy segment parallelizes
//! internally — and training learns the BN from sharded family
//! counts.
//! [`Generator::run_seeded`] batches candidate generation on the same
//! scheduler. Every result is identical at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod baseline;
pub mod browser;
pub mod error;
pub mod generate;
pub mod ingest;
pub mod mining;
pub mod model;
pub mod pipeline;
pub mod profile;
pub mod segments;
pub mod store;

pub use analysis::Analysis;
pub use browser::{Browser, SegmentDistribution};
pub use error::EipError;
pub use generate::Generator;
pub use ingest::{IngestOptions, IngestReport};
pub use mining::{MinedSegment, MiningOptions, SegmentValue, ValueKind};
pub use model::{EntropyIp, IpModel, ModelError, Options};
pub use pipeline::{Config, Mined, Pipeline, Profiled, Segmented, Trained};
pub use segments::{segment_entropy_profile, Segment, SegmentationOptions};
