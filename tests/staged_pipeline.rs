//! Integration: the staged pipeline API against the one-shot path —
//! byte-identical models, independently re-runnable stages, streaming
//! ingestion, and parallel/serial determinism.

use eip_bayes::LearnOptions;
use eip_netsim::dataset;
use entropy_ip::{profile, store, Config, EipError, EntropyIp, MiningOptions, Pipeline};

fn seed_set() -> eip_addr::AddressSet {
    dataset("S1").unwrap().population_sized(5_000, 20160317)
}

/// The staged path produces a model byte-identical (via
/// `profile::export`) to `EntropyIp::analyze` under the same options
/// and seed set.
#[test]
fn staged_equals_one_shot_byte_identical() {
    let set = seed_set();
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

/// Re-mine a `Segmented` artifact with altered `MiningOptions` and
/// retrain — without recomputing the entropy profile — and the result
/// still matches a from-scratch run under the same altered options.
#[test]
fn remine_and_retrain_from_segmented_artifact() {
    let set = seed_set();
    let altered = MiningOptions {
        top_per_step: 4,
        enumerate_limit: 2,
        ..MiningOptions::default()
    };

    // One profile + segmentation, reused for both minings.
    let segmented = Pipeline::new(Config::default())
        .profile(set.iter())
        .unwrap()
        .segment();
    let default_model = segmented.mine().train().unwrap().into_model();
    let altered_model = segmented.mine_with(&altered).train().unwrap().into_model();

    // The altered re-mine really changed the dictionaries...
    assert_ne!(
        profile::export(&default_model),
        profile::export(&altered_model)
    );
    // ...while the analysis (profile + segmentation) is shared.
    assert_eq!(default_model.analysis(), altered_model.analysis());

    // And the re-mined result is exactly what a from-scratch pipeline
    // with those options produces (stages hide no state).
    let scratch = Pipeline::new(Config {
        mining: altered,
        ..Config::default()
    })
    .run(set.iter())
    .unwrap();
    assert_eq!(profile::export(&altered_model), profile::export(&scratch));
}

/// Retraining a `Mined` artifact with altered `LearnOptions` reuses
/// the dictionaries and only changes the BN.
#[test]
fn retrain_from_mined_artifact() {
    let mined = Pipeline::new(Config::default())
        .profile(seed_set().iter())
        .unwrap()
        .segment()
        .mine();
    let default_bn = mined.train().unwrap();
    let no_edges = mined
        .train_with(&LearnOptions {
            max_parents: 0,
            ..LearnOptions::default()
        })
        .unwrap();
    assert!(no_edges.model().bn().edges().is_empty());
    assert!(!default_bn.model().bn().edges().is_empty());
    assert_eq!(default_bn.model().mined(), no_edges.model().mined());
}

/// Same `Config` seed set ⇒ identical `IpModel` at `parallelism` 1
/// and N (per-segment mining fans out over scoped threads but joins
/// in segment order).
#[test]
fn parallel_and_serial_mining_are_deterministic() {
    let set = seed_set();
    let serial = Pipeline::new(Config::default().with_parallelism(1))
        .run(set.iter())
        .unwrap();
    for n in [2usize, 4, 16] {
        let parallel = Pipeline::new(Config::default().with_parallelism(n))
            .run(set.iter())
            .unwrap();
        assert_eq!(
            profile::export(&serial),
            profile::export(&parallel),
            "parallelism {n} diverged"
        );
    }
}

/// Streaming ingestion: profiling an iterator (with duplicates, out
/// of order) equals profiling the materialized set, and the line
/// reader agrees with both.
#[test]
fn streaming_ingestion_matches_materialized() {
    let set = seed_set();
    // Stream with duplicates and reversed order.
    let stream: Vec<eip_addr::Ip6> = set
        .as_slice()
        .iter()
        .rev()
        .copied()
        .chain(set.iter().take(500))
        .collect();
    let p = Pipeline::new(Config::default());
    let from_stream = p.profile(stream).unwrap();
    let from_set = p.profile(set.iter()).unwrap();
    assert_eq!(from_stream.entropy(), from_set.entropy());
    assert_eq!(from_stream.acr(), from_set.acr());
    assert_eq!(from_stream.num_addresses(), from_set.num_addresses());

    // Line-reader path: render and re-ingest.
    let text: String = set.iter().map(|ip| format!("{ip}\n")).collect();
    let from_lines = p.profile_lines(text.as_bytes()).unwrap();
    assert_eq!(from_lines.entropy(), from_set.entropy());
    assert_eq!(from_lines.num_addresses(), from_set.num_addresses());
}

/// The unified error surfaces through both entry points.
#[test]
fn unified_errors_from_both_paths() {
    assert_eq!(
        Pipeline::new(Config::default())
            .profile(std::iter::empty())
            .unwrap_err(),
        EipError::EmptySet
    );
    assert_eq!(
        EntropyIp::new()
            .analyze(&eip_addr::AddressSet::new())
            .unwrap_err(),
        EipError::EmptySet
    );
    let mut version9 = b"EIPM".to_vec();
    version9.extend_from_slice(&9u32.to_le_bytes());
    version9.resize(32, 0);
    assert!(matches!(
        store::load(&version9),
        Err(EipError::Profile(msg)) if msg.contains("version 9")
    ));
}
