//! The binary blob artifact tier: raw checksummed files for large
//! payloads.
//!
//! JSON envelopes (see [`crate::store`]) are the right format for
//! pipeline-stage artifacts — small, structured, human-inspectable —
//! but a recorded [`EventTrace`](cbsp_sim::EventTrace) is megabytes of
//! varint event bytes, and round-tripping it through base64-in-JSON
//! pays ~33% size inflation plus a parse, a decode, and a copy on
//! every read. The blob tier stores such payloads as raw binary files
//! with a small fixed header, keyed by the *same* content digests as
//! the envelope tier, so cache-key derivation, gc roots, and the
//! repair-as-miss contract are unchanged — only the bytes on disk are.
//!
//! ## On-disk layout
//!
//! Blob files live beside the envelopes, distinguished by extension:
//!
//! ```text
//! <root>/objects/<k[0..2]>/<k>.blob
//! ```
//!
//! A blob file is a fixed 100-byte header followed by a small *meta*
//! section and the *payload* bytes verbatim:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "CBSB"
//!      4     4  format version (u32 LE, currently 1)
//!      8     1  stage-name length (≤ 15)
//!      9    15  stage name, zero-padded
//!     24    32  key (raw SHA-256; must match the filename)
//!     56    32  checksum: SHA-256 of meta ‖ payload
//!     88     4  meta length (u32 LE)
//!     92     8  payload length (u64 LE)
//!    100     —  meta bytes, then payload bytes
//! ```
//!
//! The *meta* section carries the payload's fixed header fields (event
//! counts, dimensions — whatever the consumer needs to interpret the
//! raw bytes); the *payload* is handed out in its own freshly read
//! buffer, so a consumer like [`crate::TraceCache`] can adopt it as
//! the event buffer directly — no re-encode, no intermediate copy.
//!
//! Corruption — wrong magic, stage or key mismatch, bad lengths,
//! checksum mismatch, truncation, trailing bytes — is detected on read
//! and reported as a typed
//! [`CbspError::ArtifactCorrupt`](cbsp_core::CbspError), never a
//! panic; an unknown format version reports
//! [`CbspError::ArtifactVersionMismatch`](cbsp_core::CbspError).
//! Property-tested over header and payload mutations in
//! `crates/store/tests/blob_props.rs`.

use cbsp_core::CbspError;
use std::io::Read;
use std::path::PathBuf;

use crate::sha256::{to_hex, Sha256};
use crate::store::{corrupt, io_err, write_then_rename, ArtifactStore, StageKey};

/// First four bytes of every blob file.
pub const BLOB_MAGIC: [u8; 4] = *b"CBSB";

/// Blob framing version; bump when the header or section layout
/// changes incompatibly.
pub const BLOB_FORMAT_VERSION: u32 = 1;

/// Fixed header size in bytes.
pub const BLOB_HEADER_LEN: usize = 100;

/// Longest stage name the fixed header can hold.
pub const BLOB_STAGE_MAX: usize = 15;

/// A verified blob read: the meta section and the payload, each in its
/// own buffer. The payload buffer is freshly allocated at exactly the
/// payload's length, so consumers can adopt it without copying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blob {
    /// The fixed-field meta section.
    pub meta: Vec<u8>,
    /// The raw payload bytes, verbatim as written.
    pub payload: Vec<u8>,
}

/// Decodes a 64-hex-digit key into its raw 32 bytes.
fn key_bytes(key: &StageKey) -> [u8; 32] {
    let hex = key.as_hex().as_bytes();
    let nib = |c: u8| -> u8 {
        match c {
            b'0'..=b'9' => c - b'0',
            b'a'..=b'f' => c - b'a' + 10,
            b'A'..=b'F' => c - b'A' + 10,
            _ => 0,
        }
    };
    let mut out = [0u8; 32];
    for (i, chunk) in hex.chunks(2).take(32).enumerate() {
        out[i] = (nib(chunk[0]) << 4) | nib(chunk[1]);
    }
    out
}

fn checksum(meta: &[u8], payload: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(meta);
    h.update(payload);
    h.finalize()
}

/// Builds the 100-byte header for (`stage`, `key`, `meta`, `payload`).
///
/// # Panics
///
/// Panics if `stage` exceeds [`BLOB_STAGE_MAX`] bytes or `meta`
/// exceeds `u32::MAX` — both programmer errors, not data corruption.
fn encode_header(
    stage: &str,
    key: &StageKey,
    meta: &[u8],
    payload: &[u8],
) -> [u8; BLOB_HEADER_LEN] {
    assert!(
        stage.len() <= BLOB_STAGE_MAX,
        "blob stage name `{stage}` exceeds {BLOB_STAGE_MAX} bytes"
    );
    let mut h = [0u8; BLOB_HEADER_LEN];
    h[0..4].copy_from_slice(&BLOB_MAGIC);
    h[4..8].copy_from_slice(&BLOB_FORMAT_VERSION.to_le_bytes());
    h[8] = stage.len() as u8;
    h[9..9 + stage.len()].copy_from_slice(stage.as_bytes());
    h[24..56].copy_from_slice(&key_bytes(key));
    h[56..88].copy_from_slice(&checksum(meta, payload));
    h[88..92].copy_from_slice(
        &u32::try_from(meta.len())
            .expect("meta fits u32")
            .to_le_bytes(),
    );
    h[92..100].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h
}

impl ArtifactStore {
    /// Path of the blob file for `key`.
    pub fn blob_path(&self, key: &StageKey) -> PathBuf {
        self.object_path(key).with_extension("blob")
    }

    /// Whether a blob exists for `key` (without verifying it).
    pub fn contains_blob(&self, key: &StageKey) -> bool {
        self.blob_path(key).is_file()
    }

    /// Stores (`meta`, `payload`) as the blob of (`stage`, `key`),
    /// replacing any file already there. Write-then-rename like the
    /// envelope tier's [`ArtifactStore::put`], so readers never observe
    /// a torn file, and a key names one value, so replacing a present
    /// blob rewrites the same bytes or repairs a damaged one.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn put_blob(
        &self,
        stage: &str,
        key: &StageKey,
        meta: &[u8],
        payload: &[u8],
    ) -> Result<(), CbspError> {
        let _span = cbsp_trace::span_labeled("store/put_blob", || stage.to_string());
        let header = encode_header(stage, key, meta, payload);
        write_then_rename(&self.blob_path(key), &[&header, meta, payload])?;
        cbsp_trace::add(
            "store/blob_bytes_written",
            (BLOB_HEADER_LEN + meta.len() + payload.len()) as u64,
        );
        Ok(())
    }

    /// Retrieves and verifies the blob for (`stage`, `key`).
    ///
    /// Returns `Ok(None)` on a clean miss (no file). The payload is
    /// read with a single allocation sized exactly to the declared
    /// payload length — the buffer handed back *is* the read buffer.
    ///
    /// # Errors
    ///
    /// * [`CbspError::ArtifactCorrupt`] — bad magic, wrong stage/key
    ///   binding, impossible lengths, truncation, trailing bytes, or
    ///   checksum mismatch;
    /// * [`CbspError::ArtifactVersionMismatch`] — blob format version
    ///   from a different build;
    /// * [`CbspError::StoreIo`] — filesystem failure other than
    ///   not-found.
    pub fn get_blob(&self, stage: &str, key: &StageKey) -> Result<Option<Blob>, CbspError> {
        let _span = cbsp_trace::span_labeled("store/get_blob", || stage.to_string());
        let path = self.blob_path(key);
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        // The length of the opened file, not of whatever the path names
        // now: a concurrent `cache gc` may unlink the blob after the
        // open, and the open handle still reads it whole.
        let total = file.metadata().map_err(|e| io_err(&path, e))?.len();

        let mut header = [0u8; BLOB_HEADER_LEN];
        file.read_exact(&mut header)
            .map_err(|_| corrupt(key, "blob truncated inside the header"))?;
        if header[0..4] != BLOB_MAGIC {
            return Err(corrupt(key, "bad blob magic"));
        }
        let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        if version != BLOB_FORMAT_VERSION {
            return Err(CbspError::ArtifactVersionMismatch {
                key: key.as_hex().to_string(),
                found: version,
                supported: BLOB_FORMAT_VERSION,
            });
        }
        let stage_len = header[8] as usize;
        if stage_len > BLOB_STAGE_MAX {
            return Err(corrupt(key, format!("impossible stage length {stage_len}")));
        }
        let stored_stage = &header[9..9 + stage_len];
        if stored_stage != stage.as_bytes() {
            return Err(corrupt(
                key,
                format!(
                    "stage mismatch: stored for `{}`, requested `{stage}`",
                    String::from_utf8_lossy(stored_stage)
                ),
            ));
        }
        if header[9 + stage_len..24].iter().any(|&b| b != 0) {
            return Err(corrupt(key, "nonzero stage padding"));
        }
        if header[24..56] != key_bytes(key) {
            return Err(corrupt(key, "stored key does not match its filename"));
        }
        let meta_len = u32::from_le_bytes(header[88..92].try_into().expect("4 bytes")) as usize;
        let payload_len = u64::from_le_bytes(header[92..100].try_into().expect("8 bytes"));
        let declared = BLOB_HEADER_LEN as u64 + meta_len as u64 + payload_len;
        if declared != total {
            return Err(corrupt(
                key,
                format!("length mismatch: header declares {declared} bytes, file has {total}"),
            ));
        }
        let payload_len = payload_len as usize;

        let mut meta = vec![0u8; meta_len];
        file.read_exact(&mut meta)
            .map_err(|_| corrupt(key, "blob truncated inside the meta section"))?;
        // The payload buffer is the one we hand out: one allocation,
        // filled directly from the file, adopted by the caller.
        let mut payload = vec![0u8; payload_len];
        file.read_exact(&mut payload)
            .map_err(|_| corrupt(key, "blob truncated inside the payload"))?;
        if header[56..88] != checksum(&meta, &payload) {
            return Err(corrupt(key, "blob checksum mismatch"));
        }
        cbsp_trace::add("store/blob_reads", 1);
        cbsp_trace::add(
            "store/blob_bytes_read",
            (BLOB_HEADER_LEN + meta_len + payload_len) as u64,
        );
        Ok(Some(Blob { meta, payload }))
    }
}

/// Derives a subordinate blob key from `parent`: the SHA-256 of
/// `"<parent-hex>/<label>/<index>"`. Used for per-slice blobs hanging
/// off a slice-manifest key — the derivation is deterministic, so the
/// sub-keys never need to be stored, and distinct parents can never
/// collide (their hex digests differ).
pub fn derived_key(parent: &StageKey, label: &str, index: u64) -> StageKey {
    let mut h = Sha256::new();
    h.update(parent.as_hex().as_bytes());
    h.update(b"/");
    h.update(label.as_bytes());
    h.update(b"/");
    h.update(index.to_string().as_bytes());
    StageKey::parse(&to_hex(&h.finalize())).expect("sha256 hex is a valid key")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::stage_key;
    use serde::Value;

    fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("cbsp-blob-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).expect("store opens"), dir)
    }

    fn a_key(n: u64) -> StageKey {
        stage_key("trace", &[Value::UInt(n)])
    }

    #[test]
    fn blob_round_trips_and_is_idempotent() {
        let _lock = cbsp_trace::test_lock();
        let (store, dir) = temp_store("roundtrip");
        let key = a_key(1);
        let meta = [1u8, 2, 3];
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        store
            .put_blob("trace", &key, &meta, &payload)
            .expect("puts");
        let first = std::fs::read(store.blob_path(&key)).expect("blob exists");
        store
            .put_blob("trace", &key, &meta, &payload)
            .expect("puts again");
        let second = std::fs::read(store.blob_path(&key)).expect("blob exists");
        assert!(first == second, "a second put leaves the same bytes");
        let blob = store.get_blob("trace", &key).expect("reads").expect("hit");
        assert_eq!(blob.meta, meta);
        assert_eq!(blob.payload, payload);
        assert!(store.contains_blob(&key));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clean_miss_is_none() {
        let _lock = cbsp_trace::test_lock();
        let (store, dir) = temp_store("miss");
        assert_eq!(store.get_blob("trace", &a_key(2)).expect("no error"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_stage_and_version_are_typed() {
        let _lock = cbsp_trace::test_lock();
        let (store, dir) = temp_store("stage");
        let key = a_key(3);
        store.put_blob("trace", &key, &[], b"xyz").expect("puts");
        let err = store
            .get_blob("trace_slice", &key)
            .expect_err("stage mismatch");
        assert!(matches!(err, CbspError::ArtifactCorrupt { .. }), "{err}");

        // Flip the version field.
        let path = store.blob_path(&key);
        let mut bytes = std::fs::read(&path).expect("blob exists");
        bytes[4] = 99;
        std::fs::write(&path, &bytes).expect("rewrites");
        let err = store.get_blob("trace", &key).expect_err("version mismatch");
        assert!(
            matches!(err, CbspError::ArtifactVersionMismatch { found: 99, .. }),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_corruption_are_typed_never_panics() {
        let _lock = cbsp_trace::test_lock();
        let (store, dir) = temp_store("corrupt");
        let key = a_key(4);
        let payload: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        store
            .put_blob("trace", &key, &[7; 20], &payload)
            .expect("puts");
        let path = store.blob_path(&key);
        let pristine = std::fs::read(&path).expect("blob exists");

        // Truncate at every section boundary and a few interior cuts.
        for cut in [
            0,
            10,
            BLOB_HEADER_LEN - 1,
            BLOB_HEADER_LEN,
            BLOB_HEADER_LEN + 10,
            pristine.len() - 1,
        ] {
            std::fs::write(&path, &pristine[..cut]).expect("truncates");
            let err = store.get_blob("trace", &key).expect_err("truncated");
            assert!(
                matches!(err, CbspError::ArtifactCorrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        // Trailing bytes are a length mismatch.
        let mut longer = pristine.clone();
        longer.push(0);
        std::fs::write(&path, &longer).expect("extends");
        let err = store.get_blob("trace", &key).expect_err("trailing");
        assert!(matches!(err, CbspError::ArtifactCorrupt { .. }), "{err}");
        // A flipped payload byte fails the checksum.
        let mut flipped = pristine.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        std::fs::write(&path, &flipped).expect("flips");
        let err = store.get_blob("trace", &key).expect_err("checksum");
        assert!(matches!(err, CbspError::ArtifactCorrupt { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A fixed blob's 100-byte header. Its key and checksum are
    /// SHA-256 digests, so a hash that drifted would orphan every
    /// existing store, and quietly: each warm read would turn into a
    /// repair and a recomputation.
    const GOLDEN_HEADER: &str = concat!(
        // magic, version, stage
        "434253420100000005747261636500000000000000000000",
        // key
        "f6c9e4cde769c258a7bf41456631671a54d66116f81dc15219a3e3701c56c778",
        // checksum of meta and payload
        "26ea47e9c65865bdfa4a7542d0b6af070fad267810131b49ee1f6169b23d7430",
        // meta and payload lengths
        "0b0000001027000000000000",
    );

    #[test]
    fn header_is_byte_stable_and_reads_back_without_repair() {
        let _lock = cbsp_trace::test_lock();
        let (store, dir) = temp_store("golden");
        let key = stage_key("trace", &[Value::Str("golden".to_string()), Value::UInt(7)]);
        let meta = b"golden meta";
        let payload: Vec<u8> = (0..10_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        store.put_blob("trace", &key, meta, &payload).expect("puts");
        let bytes = std::fs::read(store.blob_path(&key)).expect("blob exists");
        let header: String = bytes[..BLOB_HEADER_LEN]
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(header, GOLDEN_HEADER);

        cbsp_trace::enable();
        cbsp_trace::reset();
        let blob = store.get_blob("trace", &key).expect("reads");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        let blob = blob.expect("hit");
        assert_eq!(blob.meta, meta);
        assert_eq!(blob.payload, payload);
        assert_eq!(counters.get("store/blob_reads"), Some(&1));
        assert_eq!(counters.get("store/repairs").copied().unwrap_or(0), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn derived_keys_are_stable_and_distinct() {
        let parent = a_key(5);
        let k0 = derived_key(&parent, "slice", 0);
        let k1 = derived_key(&parent, "slice", 1);
        assert_eq!(k0, derived_key(&parent, "slice", 0), "deterministic");
        assert_ne!(k0, k1);
        assert_ne!(k0, parent);
        assert_eq!(k0.as_hex().len(), 64);
    }
}
