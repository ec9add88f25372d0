//! Discrete Bayesian networks for Entropy/IP (§4.4), hand-rolled.
//!
//! The paper models segment-coded IPv6 addresses with a Bayesian
//! network learned by the BNFinder tool (Wilczyński & Dojer 2009),
//! constrained so that "given segment k can only depend on previous
//! segments < k". No mature Rust BN crate exists (the calibration
//! notes say as much), so this crate implements the full stack from
//! scratch:
//!
//! * [`data`] — categorical datasets, stored as per-variable byte
//!   columns (the counting engines walk columns, not rows).
//! * [`cpt`] — conditional probability tables with Laplace smoothing.
//! * [`learn`] — score-based structure learning: per-node exhaustive
//!   search over admissible parent sets (subsets of *earlier*
//!   variables, bounded in-degree) under the BIC/MDL score, with the
//!   Dojer-style admissible bound that lets the search stop early —
//!   the same idea that makes BNFinder exact yet fast.
//! * [`counts`] — the dense contingency engine behind sharded
//!   learning: per child, one pass over the columns (sharded on an
//!   [`eip_exec::Scheduler`], shard arrays merged by exact integer
//!   addition) counts the joint of every maximum-size candidate
//!   family; smaller candidates are scored by marginalizing a
//!   superset table, and the winner's table feeds the CPT directly.
//! * [`factor`] / [`infer`] — factors and exact inference by variable
//!   elimination, powering the paper's "conditional probability
//!   browser" (evidential reasoning flows backwards, e.g. clicking
//!   segment J's value updates segment C in its Fig. 1(c)).
//! * [`sample`] — ancestral sampling, plus exact conditional sampling
//!   used for constrained candidate generation (§4.4: "generate
//!   candidate addresses that match the model, optionally constrained
//!   to certain segment values").
//! * [`compile`] — the compile-then-sample fast path: a trained
//!   network compiles once into a flat [`SamplingPlan`] (per-node
//!   cumulative-weight tables for every parent configuration,
//!   precomputed mixed-radix strides, topological order baked in), so
//!   drawing a row is one uniform draw plus one binary search per
//!   node into a reusable `&mut [u8]` buffer — no allocation and no
//!   CPT lookups on the hot loop.
//! * [`serial`] — the endian-stable binary wire layer (little-endian
//!   primitives, length-prefixed strings, CPT probabilities as raw
//!   f64 bits) behind model persistence: `entropy_ip::store` frames
//!   these bytes into the versioned `.eipm` model file the
//!   `eip serve` daemon loads.
//!
//! The ordering constraint means every network is already in
//! topological order, which keeps sampling and learning simple and
//! makes the structure search exact rather than heuristic.
//!
//! ## Engine + oracle pattern
//!
//! Both hot paths ship one production engine and one reference
//! implementation that survives as test support:
//!
//! * **Structure learning**: the sharded count-reuse engine
//!   ([`learn_structure_sharded`], the only production learner, at any
//!   worker count) counts each child's maximum-size candidate
//!   families in one sharded column pass and derives every smaller
//!   candidate (and the final CPT) from those dense tables by
//!   marginalization; the serial oracle ([`learn_structure`])
//!   re-scans the data per candidate through a `HashMap`.
//! * **Sampling** (compile-then-sample): [`sample_row`] is the
//!   allocating reference sampler; [`BayesNet::compile`] bakes the
//!   same inverse-CDF semantics into a flat [`SamplingPlan`] whose
//!   rows are byte-identical to the oracle's on the same RNG stream.
//!
//! Each engine shares its oracle's decision semantics exactly, so both
//! produce identical output — asserted by the equivalence proptests
//! in `tests/proptests.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod counts;
pub mod cpt;
pub mod data;
pub mod factor;
pub mod infer;
pub mod learn;
pub mod network;
pub mod sample;
pub mod serial;

pub use compile::SamplingPlan;
pub use counts::{count_families, family_score_dense, FamilyTable};
pub use cpt::Cpt;
pub use data::Dataset;
pub use factor::Factor;
pub use infer::{joint_probability, posterior_marginals, Evidence};
pub use learn::{learn_structure, learn_structure_sharded, LearnOptions};
pub use network::{BayesNet, Node};
pub use sample::{sample_conditional, sample_row};
