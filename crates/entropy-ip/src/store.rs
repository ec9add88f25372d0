//! Versioned binary model persistence — train once, serve millions.
//!
//! A trained [`IpModel`] is a read-only artifact: after PR 5/6 it is
//! cheap to share in-process, but every consumer still had to re-run
//! profile → mine → train because nothing persisted it. This module
//! is the persistence layer of the model service: a versioned,
//! endian-stable binary container (`.eipm`) that the `eip` CLI writes
//! (`--model-out`) and the `eip_serve` registry loads.
//!
//! ## On-disk layout (format version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"EIPM"
//! 4       4     format version (u32 LE) = 1
//! 8       8     fingerprint (u64 LE) — caller-supplied identity of
//!               the training run (seed/config hash, see
//!               [`fingerprint`]); load returns it for callers to
//!               verify against their expectations
//! 16      8     payload length (u64 LE)
//! 24      n     payload (analysis + dictionaries + BN; see below)
//! 24+n    8     checksum (u64 LE): FNV-1a over header + payload
//! ```
//!
//! The payload serializes, in order: width, address count, the
//! entropy and ACR profiles (f64 bit patterns), the segments, the
//! mined dictionaries (codes, value kinds, counts, frequencies), and
//! the Bayesian network via [`eip_bayes::serial::write_net`]. Every
//! float travels as its IEEE-754 bits, so save → load reproduces the
//! model **bit for bit** — and because [`IpModel::from_parts`]
//! recompiles the [`SamplingPlan`](eip_bayes::SamplingPlan)
//! deterministically from the CPTs, the loaded model's plan draws
//! rows byte-identical to the original's (pinned by the round-trip
//! proptests and the golden fixture).
//!
//! ## Version-bump path
//!
//! The format version is checked on load; readers reject anything but
//! the versions they know. To evolve the format: bump
//! [`FORMAT_VERSION`], keep a reader arm for every released version,
//! regenerate the golden fixture
//! (`UPDATE_GOLDENS=1 cargo test -p entropy_ip --test store_format`),
//! and review the fixture diff like code. The committed golden pins
//! the bytes of version 1, so accidental drift fails CI.

use std::path::Path;

use eip_bayes::serial::{self, Reader};

use crate::analysis::Analysis;
use crate::error::EipError;
use crate::mining::{MinedSegment, SegmentValue, ValueKind};
use crate::model::IpModel;
use crate::segments::Segment;

/// File magic: "EIPM" (Entropy/IP model).
pub const MAGIC: [u8; 4] = *b"EIPM";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// Conventional file extension for saved models.
pub const EXTENSION: &str = "eipm";

/// Size of the fixed header (magic + version + fingerprint + length).
const HEADER_LEN: usize = 24;

/// FNV-1a over a byte slice: the container checksum. Not
/// cryptographic — it catches truncation and bit rot, not tampering.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A stable fingerprint of a training run's identity: FNV-1a over the
/// caller's summary string (seed, config knobs, input name — whatever
/// distinguishes one training run from another). Stored in the header
/// and returned by [`load`], so a service can refuse a model whose
/// provenance does not match what it expects.
pub fn fingerprint(summary: &str) -> u64 {
    fnv1a(summary.as_bytes())
}

/// Serializes a model into the versioned container format.
pub fn save(model: &IpModel, fingerprint: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(4096);
    let a = model.analysis();
    serial::put_u32(&mut payload, a.width as u32);
    serial::put_u64(&mut payload, a.num_addresses as u64);
    for h in &a.entropy {
        serial::put_f64(&mut payload, *h);
    }
    for h in &a.acr {
        serial::put_f64(&mut payload, *h);
    }
    serial::put_u32(&mut payload, a.segments.len() as u32);
    for s in &a.segments {
        serial::put_str(&mut payload, &s.label);
        serial::put_u32(&mut payload, s.start as u32);
        serial::put_u32(&mut payload, s.end as u32);
    }
    for m in model.mined() {
        serial::put_u64(&mut payload, m.total);
        serial::put_u32(&mut payload, m.values.len() as u32);
        for v in &m.values {
            serial::put_str(&mut payload, &v.code);
            match v.kind {
                ValueKind::Exact(x) => {
                    payload.push(0);
                    serial::put_u128(&mut payload, x);
                }
                ValueKind::Range { lo, hi } => {
                    payload.push(1);
                    serial::put_u128(&mut payload, lo);
                    serial::put_u128(&mut payload, hi);
                }
            }
            serial::put_u64(&mut payload, v.count);
            serial::put_f64(&mut payload, v.freq);
        }
    }
    serial::write_net(model.bn(), &mut payload);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
    out.extend_from_slice(&MAGIC);
    serial::put_u32(&mut out, FORMAT_VERSION);
    serial::put_u64(&mut out, fingerprint);
    serial::put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    let sum = fnv1a(&out);
    serial::put_u64(&mut out, sum);
    out
}

/// Deserializes a model container, returning the model and the stored
/// fingerprint. The [`SamplingPlan`](eip_bayes::SamplingPlan) and the
/// O(1) label/code lookup maps are rebuilt deterministically by
/// [`IpModel::from_parts`], so they never travel on disk.
pub fn load(bytes: &[u8]) -> Result<(IpModel, u64), EipError> {
    load_inner(bytes).map_err(EipError::Profile)
}

fn load_inner(bytes: &[u8]) -> Result<(IpModel, u64), String> {
    if bytes.len() < HEADER_LEN + 8 {
        return Err(format!(
            "file too short ({} bytes) for a model",
            bytes.len()
        ));
    }
    if bytes[..4] != MAGIC {
        return Err("bad magic: not an Entropy/IP model file".into());
    }
    let mut r = Reader::new(&bytes[4..]);
    let version = r.u32("format version")?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "unsupported model format version {version} (this build reads {FORMAT_VERSION})"
        ));
    }
    let fingerprint = r.u64("fingerprint")?;
    let payload_len = r.u64("payload length")?;
    // Compare against what the file holds rather than adding to the
    // claimed length, which may be anything up to `u64::MAX`.
    let body_end = bytes.len() - 8;
    if u64::try_from(body_end - HEADER_LEN) != Ok(payload_len) {
        return Err(format!(
            "length mismatch: header claims {payload_len}-byte payload, file has {} bytes",
            bytes.len()
        ));
    }
    let stored_sum = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
    let computed = fnv1a(&bytes[..body_end]);
    if stored_sum != computed {
        return Err(format!(
            "checksum mismatch: stored {stored_sum:#018x}, computed {computed:#018x}"
        ));
    }

    let mut r = Reader::new(&bytes[HEADER_LEN..body_end]);
    let width = r.len(32, "width")?;
    let num_addresses = r.u64("address count")? as usize;
    let mut entropy = [0.0f64; 32];
    for h in &mut entropy {
        *h = r.f64("entropy")?;
    }
    let mut acr = [0.0f64; 32];
    for h in &mut acr {
        *h = r.f64("acr")?;
    }
    let nseg = r.len(32, "segment count")?;
    let mut segments = Vec::with_capacity(nseg);
    for _ in 0..nseg {
        let label = r.str("segment label")?;
        let start = r.len(32, "segment start")?;
        let end = r.len(32, "segment end")?;
        // Positions are 1-based inclusive; downstream arithmetic
        // (`end - start + 1`, nybble slicing) must never see an
        // inverted or out-of-width range.
        if start == 0 || start > end || end > width {
            return Err(format!(
                "segment {label:?} range {start}-{end} invalid for width {width}"
            ));
        }
        segments.push(Segment { label, start, end });
    }
    let total_entropy: f64 = entropy[..width].iter().sum();
    let analysis = Analysis {
        entropy,
        acr,
        total_entropy,
        segments: segments.clone(),
        num_addresses,
        width,
    };

    let mut mined = Vec::with_capacity(nseg);
    for seg in &segments {
        let total = r.u64("dictionary total")?;
        // Plan rows carry byte codes, so no model has more values.
        let nvals = r.len(256, "dictionary size")?;
        // Decoding ORs each value into its segment's bits, so a value
        // must fit the segment and a range must not be inverted.
        let bits = (seg.end - seg.start + 1) * 4;
        let max = u128::MAX >> (128 - bits);
        let mut values = Vec::with_capacity(nvals);
        for _ in 0..nvals {
            let code = r.str("value code")?;
            let kind = match r.u8("value kind")? {
                0 => ValueKind::Exact(r.u128("exact value")?),
                1 => ValueKind::Range {
                    lo: r.u128("range lo")?,
                    hi: r.u128("range hi")?,
                },
                k => return Err(format!("unknown value kind tag {k}")),
            };
            let fits = match kind {
                ValueKind::Exact(v) => v <= max,
                ValueKind::Range { lo, hi } => lo <= hi && hi <= max,
            };
            if !fits {
                return Err(format!(
                    "segment {:?} value {code:?} ({kind:?}) does not fit its {bits} bits",
                    seg.label
                ));
            }
            let count = r.u64("value count")?;
            let freq = r.f64("value freq")?;
            values.push(SegmentValue {
                code,
                kind,
                count,
                freq,
            });
        }
        mined.push(MinedSegment {
            segment: seg.clone(),
            values,
            total,
        });
    }

    let bn = serial::read_net(&mut r)?;
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after model", r.remaining()));
    }
    if bn.num_vars() != nseg {
        return Err("BN variable count disagrees with segments".into());
    }
    for (i, m) in mined.iter().enumerate() {
        if bn.node(i).cardinality != m.cardinality() {
            return Err(format!("cardinality mismatch at segment {i}"));
        }
    }
    Ok((IpModel::from_parts(analysis, mined, bn), fingerprint))
}

/// Writes a model container to `path` **atomically**: the bytes land
/// in a `<name>.tmp` sibling first (flushed with `sync_all`) and are
/// renamed over the target only once complete. A crash — power loss,
/// SIGKILL, a full disk mid-write — therefore never leaves a torn
/// container at `path`: readers see either the old model or the new
/// one, and a stale `.tmp` leftover is invisible to
/// `ModelStore::list` (wrong extension) and overwritten by the next
/// save.
pub fn save_file(path: impl AsRef<Path>, model: &IpModel, fp: u64) -> Result<(), EipError> {
    let path = path.as_ref();
    write_atomic(path, &save(model, fp))
}

/// The temp-file + rename discipline behind [`save_file`], exposed so
/// tests (and the chaos suite) can exercise crash points directly.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), EipError> {
    use std::io::Write;
    let err = |e: std::io::Error| EipError::io(path.display().to_string(), e);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| EipError::Usage(format!("{} has no file name", path.display())))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        // Durability before visibility: the rename must never expose
        // bytes still sitting in the page cache of a dying machine.
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(err)
}

/// Reads a model container from `path`.
pub fn load_file(path: impl AsRef<Path>) -> Result<(IpModel, u64), EipError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| EipError::io(path.display().to_string(), e))?;
    load(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::EntropyIp;
    use crate::profile;
    use eip_addr::{AddressSet, Ip6};
    use eip_bayes::{BayesNet, Cpt, Node};

    fn model() -> IpModel {
        let set: AddressSet = (0..800u128)
            .map(|i| Ip6((0x2001_0db8u128 << 96) | ((i % 8) << 80) | (i % 100)))
            .collect();
        EntropyIp::new().analyze(&set).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let m = model();
        let bytes = save(&m, 0xdead_beef);
        let (back, fp) = load(&bytes).expect("load");
        assert_eq!(fp, 0xdead_beef);
        // The text exporter covers every model field bit-for-bit, so
        // equal exports mean equal models.
        assert_eq!(profile::export(&back), profile::export(&m));
    }

    #[test]
    fn loaded_plan_draws_identical_rows() {
        let m = model();
        let (back, _) = load(&save(&m, 1)).unwrap();
        let mut a = vec![0u8; m.plan().num_vars()];
        let mut b = vec![0u8; back.plan().num_vars()];
        for index in 0..500u64 {
            m.plan().sample_keyed_into(&mut a, 7, 3, index);
            back.plan().sample_keyed_into(&mut b, 7, 3, index);
            assert_eq!(a, b, "plan rows diverge at index {index}");
        }
    }

    #[test]
    fn header_fields_are_checked() {
        let m = model();
        let good = save(&m, 5);
        // Magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(load(&bad), Err(EipError::Profile(msg)) if msg.contains("magic")));
        // Version.
        let mut bad = good.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(load(&bad), Err(EipError::Profile(msg)) if msg.contains("version 99")));
        // Checksum (flip one payload byte).
        let mut bad = good.clone();
        let mid = HEADER_LEN + 10;
        bad[mid] ^= 0xff;
        assert!(matches!(load(&bad), Err(EipError::Profile(msg)) if msg.contains("checksum")));
        // Truncation.
        assert!(load(&good[..good.len() - 9]).is_err());
        assert!(load(&[]).is_err());
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(load(&bad).is_err());
        // Payload lengths that overflow when added to the header.
        for claim in [u64::MAX, (usize::MAX - HEADER_LEN + 1) as u64] {
            let mut bad = good.clone();
            bad[16..HEADER_LEN].copy_from_slice(&claim.to_le_bytes());
            assert!(
                matches!(load(&bad), Err(EipError::Profile(msg)) if msg.contains("length mismatch")),
                "payload length {claim}"
            );
        }
    }

    /// Rewrites the trailing checksum after byte surgery, so the
    /// corruption reaches the decoder instead of the checksum check
    /// (FNV-1a is not cryptographic — crafted files can do the same).
    fn reseal(bytes: &mut [u8]) {
        let body_end = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_end]);
        bytes[body_end..].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn crafted_payloads_error_instead_of_panicking() {
        let m = model();
        let good = save(&m, 5);

        // Non-normalized CPT row: the payload ends with the last BN
        // node's probabilities; poison the final one with NaN.
        let mut bad = good.clone();
        let body_end = bad.len() - 8;
        bad[body_end - 8..body_end].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        reseal(&mut bad);
        assert!(matches!(load(&bad), Err(EipError::Profile(msg)) if msg.contains("sums to")));

        // Inverted segment range (start > end): the first segment's
        // start field sits after width, address count, both profiles,
        // and the segment count + label.
        let mut off = HEADER_LEN + 4 + 8 + 32 * 8 + 32 * 8 + 4;
        let label_len = u32::from_le_bytes(good[off..off + 4].try_into().unwrap()) as usize;
        off += 4 + label_len;
        let mut bad = good.clone();
        bad[off..off + 4].copy_from_slice(&31u32.to_le_bytes());
        reseal(&mut bad);
        assert!(matches!(load(&bad), Err(EipError::Profile(msg)) if msg.contains("range")));

        // Zero segment start (positions are 1-based).
        let mut bad = good;
        bad[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
        reseal(&mut bad);
        assert!(load(&bad).is_err());
    }

    #[test]
    fn oversized_dictionary_is_an_error() {
        // Plan rows are byte codes, so no model has more than 256
        // values per segment; a crafted container claiming 257 (with a
        // matching BN node) must fail to load, not panic compiling
        // the plan.
        let card = 257usize;
        let mut payload = Vec::new();
        serial::put_u32(&mut payload, 32);
        serial::put_u64(&mut payload, 1000);
        for _ in 0..64 {
            serial::put_f64(&mut payload, 0.5);
        }
        serial::put_u32(&mut payload, 1);
        serial::put_str(&mut payload, "A");
        serial::put_u32(&mut payload, 30);
        serial::put_u32(&mut payload, 32);
        serial::put_u64(&mut payload, card as u64);
        serial::put_u32(&mut payload, card as u32);
        for v in 0..card {
            serial::put_str(&mut payload, &format!("A{v}"));
            payload.push(0);
            serial::put_u128(&mut payload, v as u128);
            serial::put_u64(&mut payload, 1);
            serial::put_f64(&mut payload, 1.0 / card as f64);
        }
        let cpt = Cpt::from_probs(card, vec![], vec![1.0 / card as f64; card]);
        let node = Node {
            name: "A".into(),
            cardinality: card,
            parents: vec![],
            cpt,
        };
        serial::write_net(&BayesNet::new(vec![node]), &mut payload);
        let mut bytes = MAGIC.to_vec();
        serial::put_u32(&mut bytes, FORMAT_VERSION);
        serial::put_u64(&mut bytes, 0);
        serial::put_u64(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&[0; 8]);
        reseal(&mut bytes);
        assert!(
            matches!(load(&bytes), Err(EipError::Profile(msg)) if msg.contains("dictionary size"))
        );
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("eip_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.eipm");
        let m = model();
        save_file(&path, &m, 42).unwrap();
        let (back, fp) = load_file(&path).unwrap();
        assert_eq!(fp, 42);
        assert_eq!(profile::export(&back), profile::export(&m));
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            load_file(dir.join("missing.eipm")),
            Err(EipError::Io { .. })
        ));
    }

    #[test]
    fn atomic_save_survives_crash_leftovers() {
        let dir = std::env::temp_dir().join("eip_store_atomic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.eipm");
        let m = model();
        save_file(&path, &m, 1).unwrap();

        // Simulate a writer that crashed mid-write: a torn temp file
        // (what FaultyWrite's fail_at leaves of a container) next to
        // the good target. The target must stay readable.
        let tmp = dir.join("net.eipm.tmp");
        let mut torn = eip_exec::fault::FaultPlan::new(3, 0)
            .failing_at(0)
            .wrap_write(std::fs::File::create(&tmp).unwrap());
        assert!(std::io::Write::write(&mut torn, &save(&m, 2)).is_err());
        drop(torn);
        assert!(tmp.exists(), "torn temp file left behind");
        let (_, fp) = load_file(&path).expect("crash leftover must not corrupt the target");
        assert_eq!(fp, 1, "old model still served");

        // The next save overwrites the leftover and completes.
        save_file(&path, &m, 3).unwrap();
        assert!(!tmp.exists(), "successful save cleans the temp name");
        assert_eq!(load_file(&path).unwrap().1, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_rejects_pathless_targets() {
        assert!(matches!(
            write_atomic(Path::new("/"), b"x"),
            Err(EipError::Usage(_))
        ));
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(
            fingerprint("seed=1 top64=false"),
            fingerprint("seed=1 top64=false")
        );
        assert_ne!(
            fingerprint("seed=1 top64=false"),
            fingerprint("seed=2 top64=false")
        );
    }
}
