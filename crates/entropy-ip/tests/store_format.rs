//! Format-drift guard for the binary model container: a model built
//! from a fixed training set must serialize to *exactly* the
//! committed fixture bytes. Any diff here means the on-disk format
//! changed — deployed `.eipm` fleets would stop loading.
//!
//! When a format change is intentional:
//!
//! 1. bump [`store::FORMAT_VERSION`] (keep a reader arm for the old
//!    version if fleets must migrate in place),
//! 2. regenerate the fixture with
//!    `UPDATE_GOLDENS=1 cargo test -p entropy_ip --test store_format`,
//! 3. review the fixture diff like code and note the bump in
//!    CHANGES.md.

use std::path::PathBuf;

use eip_addr::{AddressSet, Ip6};
use entropy_ip::{store, EntropyIp};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/model_v1.eipm")
}

/// The pinned training set: deterministic, structured, small.
fn fixture_model() -> entropy_ip::IpModel {
    let set: AddressSet = (0..400u128)
        .map(|i| Ip6((0x2001_0db8u128 << 96) | ((i % 8) << 80) | (i * 3 + 1)))
        .collect();
    EntropyIp::new().analyze(&set).unwrap()
}

#[test]
fn on_disk_bytes_are_pinned() {
    let model = fixture_model();
    let fp = store::fingerprint("store_format fixture v1");
    let bytes = store::save(&model, fp);

    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             UPDATE_GOLDENS=1 cargo test -p entropy_ip --test store_format",
            path.display()
        )
    });
    assert_eq!(
        bytes, expected,
        "the .eipm container format drifted; if intentional, bump \
         store::FORMAT_VERSION and refresh the fixture with \
         UPDATE_GOLDENS=1 cargo test -p entropy_ip --test store_format"
    );
}

#[test]
fn fixture_still_loads_and_samples() {
    let expected = std::fs::read(fixture_path()).expect("fixture exists");
    let (model, fp) = store::load(&expected).expect("fixture loads");
    assert_eq!(fp, store::fingerprint("store_format fixture v1"));

    // The loaded model must be the fixture model, bit for bit, and
    // its recompiled plan must draw the same keyed rows.
    let fresh = fixture_model();
    assert_eq!(model.mined(), fresh.mined());
    assert_eq!(model.bn(), fresh.bn());
    let mut a = vec![0u8; fresh.plan().num_vars()];
    let mut b = vec![0u8; model.plan().num_vars()];
    for index in 0..100 {
        fresh.plan().sample_keyed_into(&mut a, 42, 3, index);
        model.plan().sample_keyed_into(&mut b, 42, 3, index);
        assert_eq!(a, b, "plan diverged at index {index}");
    }
}

#[test]
fn header_layout_is_stable() {
    let expected = std::fs::read(fixture_path()).expect("fixture exists");
    assert_eq!(&expected[0..4], b"EIPM", "magic");
    let version = u32::from_le_bytes(expected[4..8].try_into().unwrap());
    assert_eq!(version, store::FORMAT_VERSION);
    assert_eq!(version, 1, "bumping FORMAT_VERSION requires a new fixture");
}

/// FNV-1a, the container checksum: recomputed after byte surgery so a
/// mutation reaches the decoder instead of the checksum check (FNV-1a
/// is not cryptographic — crafted files can do the same).
fn reseal(bytes: &mut [u8]) {
    let body_end = bytes.len() - 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in &bytes[..body_end] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[body_end..].copy_from_slice(&h.to_le_bytes());
}

/// Every single-byte mutation of the fixture's payload — each byte set
/// to 0x00 and 0xff and flipped in its low and high bit — with the
/// checksum resealed either fails to load or loads a model whose
/// every dictionary value decodes. A loader that accepted a value
/// wider than its segment, or a range with `lo > hi`, would hand
/// `eip serve` a model that panics on its first `GEN`.
#[test]
fn mutated_payloads_load_only_decodable_models() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    const HEADER_LEN: usize = 24;
    let good = std::fs::read(fixture_path()).expect("fixture exists");
    let body_end = good.len() - 8;
    let mut rng = StdRng::seed_from_u64(1);
    let mut loaded = 0usize;
    for at in HEADER_LEN..body_end {
        let b = good[at];
        for mutated in [0x00, 0xff, b ^ 0x01, b ^ 0x80] {
            if mutated == b {
                continue;
            }
            let mut bytes = good.clone();
            bytes[at] = mutated;
            reseal(&mut bytes);
            let Ok((model, _)) = store::load(&bytes) else {
                continue;
            };
            loaded += 1;
            let cards: Vec<usize> = model.mined().iter().map(|m| m.cardinality()).collect();
            for (seg, &card) in cards.iter().enumerate() {
                for code in 0..card {
                    let mut row = vec![0usize; cards.len()];
                    row[seg] = code;
                    model.decode(&row, &mut rng);
                }
            }
        }
    }
    // Counts, frequencies and labels carry no structure the loader can
    // check, so many mutations load; the sweep must reach the decoder.
    assert!(loaded > 0, "no mutation loaded");
}
