//! Crash-consistency: kill the snapshot save at every registered crash failpoint and
//! prove the loader either round-trips bit-identically (the old snapshot survives) or
//! rejects/quarantines cleanly with a typed error — it never serves a half-written
//! index as if it were whole.
//!
//! Failpoints are process-global, so every test here serializes on one mutex and
//! disarms on exit (panic included) via a guard. This file is its own test binary:
//! `cargo test` runs binaries in parallel but tests *within* a binary share the lock.

use std::sync::{Mutex, MutexGuard, OnceLock};

use sudowoodo_faults as faults;
use sudowoodo_index::{
    BlockingIndex, QuantSpec, ShardedCosineIndex, DELTA_MANIFEST_FILE, MANIFEST_FILE,
};

fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Disarms every failpoint when dropped, so a panicking assertion cannot leave the
/// process armed for the tests that follow.
struct DisarmGuard;

impl Drop for DisarmGuard {
    fn drop(&mut self) {
        faults::disarm_all();
    }
}

fn vectors(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
                })
                .collect()
        })
        .collect()
}

fn crash_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sudowoodo-crash-{tag}-{}", std::process::id()))
}

/// Every snapshot-save crash seam the failpoint registry knows about.
const CRASH_POINTS: [&str; 3] = [
    "snapshot.payload.torn",  // payload write dies mid-file, no CRC trailer
    "snapshot.rename.skip",   // tmp file written, crash before the atomic rename
    "snapshot.manifest.torn", // manifest half-written at its final name
];

/// The crash seams of a DELTA publish: the local-payload writes share the full
/// save's failpoints, the manifest has its own (a delta manifest at its final
/// name is `DELTA.swdel`, torn by `delta.manifest.torn`).
const DELTA_CRASH_POINTS: [&str; 3] = [
    "snapshot.payload.torn",
    "snapshot.rename.skip",
    "delta.manifest.torn",
];

fn assert_bit_identical(
    got: &[(usize, usize, f32)],
    expected: &[(usize, usize, f32)],
    context: &str,
) {
    assert_eq!(got.len(), expected.len(), "{context}: pair count");
    for (a, b) in got.iter().zip(expected.iter()) {
        assert_eq!((a.0, a.1), (b.0, b.1), "{context}: ids");
        assert_eq!(a.2.to_bits(), b.2.to_bits(), "{context}: scores");
    }
}

/// A save into a FRESH directory killed at any crash point must leave a directory the
/// loader refuses (typed error) or quarantines — never a half-written index that
/// loads as if complete.
#[test]
fn a_crashed_first_save_never_loads_as_a_whole_index() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let corpus = vectors(24, 6, 11);
    let queries = vectors(5, 6, 12);
    let built = ShardedCosineIndex::from_vectors(&corpus, 8);
    let expected = built.knn_join(&queries, 4);

    for point in CRASH_POINTS {
        let dir = crash_dir(&format!("fresh-{}", point.replace('.', "-")));
        faults::arm(point, faults::Policy::Once);
        let err = built.save_snapshot(&dir).expect_err("the save must crash");
        assert!(
            err.to_string().contains("failpoint"),
            "{point}: the injected crash must surface, got: {err}"
        );
        faults::disarm(point);

        match ShardedCosineIndex::load_snapshot(&dir) {
            // No manifest reached its final name (or it is torn): a clean, typed
            // rejection is crash-consistent.
            Err(e) => {
                let message = e.to_string();
                assert!(
                    message.contains("manifest")
                        || message.contains("CRC")
                        || e.kind() == std::io::ErrorKind::NotFound,
                    "{point}: rejection must be typed, got: {message}"
                );
            }
            // The manifest survived whole, so the load succeeds — but the torn
            // payload must be quarantined, never silently served.
            Ok(loaded) => {
                let outcome = loaded.knn_join_report(&queries, 4);
                if loaded.quarantined_shards().is_empty() {
                    assert_bit_identical(&outcome.pairs, &expected, point);
                    assert!(!outcome.degraded, "{point}: whole load cannot degrade");
                } else {
                    assert!(
                        outcome.degraded,
                        "{point}: quarantined shards must flag the join"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A save OVER an existing good snapshot killed at any crash point must leave the old
/// snapshot loadable bit-identically (the whole point of tmp-file + atomic rename),
/// or reject/quarantine cleanly when the crash tore the final files themselves.
#[test]
fn a_crashed_overwrite_keeps_the_previous_snapshot_or_fails_typed() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let queries = vectors(5, 6, 22);

    for point in CRASH_POINTS {
        let dir = crash_dir(&format!("overwrite-{}", point.replace('.', "-")));
        let old = ShardedCosineIndex::from_vectors(&vectors(24, 6, 21), 8);
        old.save_snapshot(&dir).expect("the good save");
        let expected = old.knn_join(&queries, 4);

        // The overwriting index differs, so a surviving load must match ONE of the
        // two generations — stitching them together would produce different pairs.
        let mut newer = ShardedCosineIndex::from_vectors(&vectors(24, 6, 21), 8);
        newer.add_batch(&vectors(8, 6, 23));
        let newer_expected = newer.knn_join(&queries, 4);

        faults::arm(point, faults::Policy::Once);
        newer
            .save_snapshot(&dir)
            .expect_err("the overwrite must crash");
        faults::disarm(point);

        match ShardedCosineIndex::load_snapshot(&dir) {
            Err(e) => {
                // Only a torn manifest at its final name can make the directory
                // unloadable; the CRC must be what caught it.
                assert_eq!(point, "snapshot.manifest.torn", "unexpected rejection");
                assert!(e.to_string().contains("CRC"), "got: {e}");
            }
            Ok(loaded) => {
                let outcome = loaded.knn_join_report(&queries, 4);
                if outcome.degraded {
                    // A torn payload under a surviving old manifest: quarantined,
                    // flagged, and the un-quarantined pairs still come from exactly
                    // one generation's shard files.
                    assert!(!loaded.quarantined_shards().is_empty());
                } else {
                    let matches_old =
                        outcome.pairs.len() == expected.len()
                            && outcome.pairs.iter().zip(expected.iter()).all(|(a, b)| {
                                (a.0, a.1, a.2.to_bits()) == (b.0, b.1, b.2.to_bits())
                            });
                    let matches_new = outcome.pairs.len() == newer_expected.len()
                        && outcome
                            .pairs
                            .iter()
                            .zip(newer_expected.iter())
                            .all(|(a, b)| (a.0, a.1, a.2.to_bits()) == (b.0, b.1, b.2.to_bits()));
                    assert!(
                        matches_old || matches_new,
                        "{point}: a loaded snapshot must be one generation, not a blend"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A DELTA publish killed at any of its crash seams must (a) leave the target
/// directory unloadable as a whole epoch — typed rejection or quarantine, never a
/// silently partial chain head — and (b) leave the BASE snapshot untouched and
/// loadable bit-identically: a crashed incremental publish can cost the new
/// epoch, never the old one.
#[test]
fn a_crashed_delta_publish_rejects_the_head_and_preserves_the_base() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let queries = vectors(5, 6, 52);

    for point in DELTA_CRASH_POINTS {
        let base_dir = crash_dir(&format!("delta-base-{}", point.replace('.', "-")));
        let head_dir = crash_dir(&format!("delta-head-{}", point.replace('.', "-")));
        ShardedCosineIndex::from_vectors(&vectors(24, 6, 51), 8)
            .save_snapshot(&base_dir)
            .expect("the good base save");
        let base_expected = ShardedCosineIndex::load_snapshot(&base_dir)
            .expect("base loads")
            .knn_join(&queries, 4);

        let mut index = ShardedCosineIndex::load_snapshot(&base_dir).expect("cold load");
        index.add_batch(&vectors(8, 6, 53));

        faults::arm(point, faults::Policy::Once);
        let err = index
            .save_delta_snapshot(&base_dir, &head_dir)
            .expect_err("the delta publish must crash");
        assert!(
            err.to_string().contains("failpoint"),
            "{point}: the injected crash must surface, got: {err}"
        );
        faults::disarm(point);

        // (a) The half-published head never loads as a whole epoch.
        match ShardedCosineIndex::load_snapshot(&head_dir) {
            Err(e) => {
                let message = e.to_string();
                assert!(
                    message.contains("manifest")
                        || message.contains("CRC")
                        || e.kind() == std::io::ErrorKind::NotFound,
                    "{point}: rejection must be typed, got: {message}"
                );
            }
            Ok(loaded) => {
                // Only possible when the manifest reached its final name whole;
                // a torn local payload must then be quarantined, not served.
                let outcome = loaded.knn_join_report(&queries, 4);
                assert!(
                    outcome.degraded && !loaded.quarantined_shards().is_empty(),
                    "{point}: a surviving manifest over torn payloads must degrade"
                );
            }
        }

        // (b) The base is untouched: bit-identical to before the crashed publish.
        let base_after = ShardedCosineIndex::load_snapshot(&base_dir)
            .unwrap_or_else(|e| panic!("{point}: the base must survive, got: {e}"));
        assert_bit_identical(
            &base_after.knn_join(&queries, 4),
            &base_expected,
            &format!("{point}: base after crashed delta publish"),
        );

        std::fs::remove_dir_all(&base_dir).ok();
        std::fs::remove_dir_all(&head_dir).ok();
    }
}

/// The crash seams hold for the quantized payload format too: `SWSHARDQ1` shares
/// the torn-payload failpoint with `SWSHARD1` (the writer dies mid-file, before the
/// codes and the CRC trailer), and a quantized save killed at any crash point must
/// reject or quarantine — never serve a half-written quantized shard.
#[test]
fn a_crashed_quantized_save_never_loads_as_a_whole_index() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let corpus = vectors(24, 6, 61);
    let queries = vectors(5, 6, 62);
    let mut built = ShardedCosineIndex::from_vectors(&corpus, 8);
    built.set_quantization(Some(QuantSpec::default()));
    built.compact();
    assert_eq!(built.num_quantized_shards(), built.num_shards());
    let expected = built.knn_join(&queries, 4);

    for point in CRASH_POINTS {
        let dir = crash_dir(&format!("quant-fresh-{}", point.replace('.', "-")));
        faults::arm(point, faults::Policy::Once);
        let err = built.save_snapshot(&dir).expect_err("the save must crash");
        assert!(
            err.to_string().contains("failpoint"),
            "{point}: the injected crash must surface, got: {err}"
        );
        faults::disarm(point);

        match ShardedCosineIndex::load_snapshot(&dir) {
            Err(e) => {
                let message = e.to_string();
                assert!(
                    message.contains("manifest")
                        || message.contains("CRC")
                        || e.kind() == std::io::ErrorKind::NotFound,
                    "{point}: rejection must be typed, got: {message}"
                );
            }
            Ok(loaded) => {
                let outcome = loaded.knn_join_report(&queries, 4);
                if loaded.quarantined_shards().is_empty() {
                    assert_bit_identical(&outcome.pairs, &expected, point);
                    assert!(!outcome.degraded, "{point}: whole load cannot degrade");
                } else {
                    assert!(
                        outcome.degraded,
                        "{point}: quarantined shards must flag the join"
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The un-faulted save/load cycle is bit-identical — the control leg proving the
/// chaos legs above are testing the fault paths, not masking a broken baseline.
#[test]
fn unfaulted_round_trip_is_bit_identical() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let corpus = vectors(24, 6, 31);
    let queries = vectors(5, 6, 32);
    let built = ShardedCosineIndex::from_vectors(&corpus, 8);
    let dir = crash_dir("control");
    built.save_snapshot(&dir).unwrap();
    let loaded = ShardedCosineIndex::load_snapshot(&dir).unwrap();
    let outcome = loaded.knn_join_report(&queries, 4);
    assert!(!outcome.degraded);
    assert!(outcome.quarantined_shards.is_empty());
    assert_bit_identical(&outcome.pairs, &built.knn_join(&queries, 4), "control");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A foreign or bit-flipped manifest is caught by magic/CRC checks with a typed
/// error naming the cause — the BlockingIndex wrapper included.
#[test]
fn manifest_corruption_is_named_not_misparsed() {
    let _serial = fault_lock();
    let _disarm = DisarmGuard;
    let dir = crash_dir("manifest-flip");
    ShardedCosineIndex::from_vectors(&vectors(12, 4, 41), 4)
        .save_snapshot(&dir)
        .unwrap();
    let manifest = dir.join(MANIFEST_FILE);
    let mut bytes = std::fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&manifest, &bytes).unwrap();
    let err = BlockingIndex::load_snapshot(&dir).unwrap_err();
    assert!(err.to_string().contains("CRC"), "got: {err}");
    std::fs::remove_dir_all(&dir).unwrap();

    // Hostile manifests with a valid CRC: every huge count is bounded only by other
    // fields of the same manifest, so the loaders must reject them typed instead of
    // allocating (or computing a payload length) from them.
    let huge = 1u64 << 40;
    let assert_invalid = |err: std::io::Error, what: &str| {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    };

    // Full snapshot: shard_capacity, next_id, the first record's rows and its row
    // count, all at 2^40.
    let dir = crash_dir("manifest-hostile-full");
    ShardedCosineIndex::from_vectors(&vectors(8, 4, 42), 4)
        .save_snapshot(&dir)
        .unwrap();
    forge_manifest(
        &dir.join(MANIFEST_FILE),
        &[(17, huge), (25, huge), (49, huge), (66, huge)],
    );
    assert_invalid(
        ShardedCosineIndex::load_snapshot(&dir).unwrap_err(),
        "full-snapshot row bomb",
    );
    std::fs::remove_dir_all(&dir).unwrap();

    // Delta: a base whose legitimately huge shard capacity leaves the delta record's
    // row count bounded only by next_id and rows, both forged to 2^40.
    let base = crash_dir("manifest-hostile-base");
    let head = crash_dir("manifest-hostile-delta");
    ShardedCosineIndex::from_vectors(&vectors(8, 4, 43), 1 << 40)
        .save_snapshot(&base)
        .unwrap();
    let mut grown = ShardedCosineIndex::load_snapshot(&base).unwrap();
    grown.add_batch(&vectors(4, 4, 44));
    grown.save_delta_snapshot(&base, &head).unwrap();
    let delta_manifest = head.join(DELTA_MANIFEST_FILE);
    let bytes = std::fs::read(&delta_manifest).unwrap();
    // magic · base_kind · base_ref (len u64 + bytes) · base_crc, then the geometry.
    let ref_len = u64::from_le_bytes(bytes[9..17].try_into().unwrap()) as usize;
    let geometry = 17 + ref_len + 4;
    let record = geometry + 40;
    assert_eq!(bytes[record], 0, "the grown shard is written locally");
    forge_manifest(
        &delta_manifest,
        &[
            (geometry + 16, huge),
            (record + 1, huge),
            (record + 18, huge),
        ],
    );
    assert_invalid(
        ShardedCosineIndex::load_snapshot(&head).unwrap_err(),
        "delta row bomb",
    );
    std::fs::remove_dir_all(&head).unwrap();
    std::fs::remove_dir_all(&base).unwrap();

    // Dense snapshot: payload rows of 2^62 overflow the payload length arithmetic.
    let dir = crash_dir("manifest-hostile-dense");
    BlockingIndex::build(vectors(8, 4, 45), None)
        .save_snapshot(&dir)
        .unwrap();
    forge_manifest(&dir.join(MANIFEST_FILE), &[(25, 1 << 62)]);
    assert_invalid(
        BlockingIndex::load_snapshot(&dir).unwrap_err(),
        "dense payload length overflow",
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Overwrites little-endian u64 `fields` (byte offset, value) of a manifest and re-fixes
/// its CRC-32 trailer, so only the loader's own validation can reject the values.
fn forge_manifest(path: &std::path::Path, fields: &[(usize, u64)]) {
    let mut bytes = std::fs::read(path).unwrap();
    for &(at, value) in fields {
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    }
    let body = bytes.len() - 4;
    let crc = crc32(&bytes[..body]);
    bytes[body..].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(path, bytes).unwrap();
}

/// Bitwise CRC-32/ISO-HDLC, the manifest trailer checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
        }
    }
    !crc
}
