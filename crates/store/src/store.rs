//! The content-addressed on-disk artifact store.
//!
//! Every pipeline artifact is stored under a [`StageKey`] — the SHA-256
//! of a canonical JSON document naming the stage, the schema version,
//! and every input that determines the artifact (source program,
//! target/opt configuration, stage configuration). Identical inputs
//! always map to the same key, so cache lookup is a pure function of
//! the work description and invalidation is automatic: changing any
//! input changes the key, and the old artifact simply stops being
//! referenced.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/objects/<k[0..2]>/<k>.json   checksummed artifact envelopes
//! <root>/objects/<k[0..2]>/<k>.blob   binary blob tier (see [`crate::blob`])
//! <root>/manifests/<run>.json         human-readable run manifests
//! ```
//!
//! An artifact file is a JSON envelope in one canonical form, compact
//! with its fields in this order:
//!
//! ```text
//! {"schema":3,"stage":"vli","key":"<64 hex>",
//!  "checksum":"<sha256 of the payload's canonical JSON>","payload":...}
//! ```
//!
//! `get` checks the schema, stage and key, then requires the file to be
//! exactly the head rebuilt from those fields and the checksum, the
//! payload text and `}`, and compares the SHA-256 of the payload text
//! as stored with the checksum. Every byte of the file is covered by a
//! check and nothing is re-serialized: truncation, on-disk modification
//! and any other form of the envelope (a pretty-printed one, say) are
//! reported as a typed [`CbspError::ArtifactCorrupt`] — never a panic,
//! and never silently wrong data.
//!
//! Every write replaces the file through write-then-rename, whether the
//! key was absent, damaged or already holds the same bytes, so each
//! tier has one write function ([`ArtifactStore::put`] here,
//! [`ArtifactStore::put_blob`] for blobs). Every lookup, in every tier,
//! follows one repair-as-miss contract: a damaged artifact counts as a
//! miss, is recomputed and is written over.

use cbsp_core::CbspError;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::sha256::hex_digest;

/// Artifact schema version; bump when envelope or payload encodings
/// change incompatibly.
///
/// v2: `SimPoint` gained a `share` field and `VliProfile` a `mavs`
/// field (estimator lanes); v1 payloads no longer deserialize.
///
/// v3: fuzzy cross-binary mapping — `MappedSlicing` gained an optional
/// `mappings` table (omitted when empty, so exact-lane payload *bytes*
/// are unchanged from v2) and fuzzy lanes store under `@fuzzy`
/// namespaces. The version bump keeps pre-fuzzy readers from
/// misinterpreting fuzzy artifacts (e.g. sentinel boundaries).
pub const SCHEMA_VERSION: u32 = 3;

/// A content key: the SHA-256 (hex) of a stage's canonical input
/// description.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StageKey(String);

impl StageKey {
    /// The full 64-hex-digit key.
    pub fn as_hex(&self) -> &str {
        &self.0
    }

    /// Shortened prefix for display.
    pub fn short(&self) -> &str {
        &self.0[..12]
    }

    /// Re-admits a 64-hex-digit digest as a key. Keys are normally
    /// *derived* ([`stage_key`]), but blob sub-keys are rebuilt from a
    /// digest. Returns `None` unless `hex` is exactly 64 lowercase-hex
    /// digits.
    pub fn parse(hex: &str) -> Option<StageKey> {
        let valid = hex.len() == 64
            && hex
                .bytes()
                .all(|c| c.is_ascii_digit() || (b'a'..=b'f').contains(&c));
        valid.then(|| StageKey(hex.to_string()))
    }
}

impl fmt::Display for StageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Canonical compact JSON of any serializable value (the byte string
/// all hashes are computed over).
pub fn canonical_json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serialization to a string cannot fail")
}

/// SHA-256 (hex) of a value's canonical JSON — used to identify stage
/// *inputs* (binaries, workloads) inside key documents.
pub fn content_hash<T: serde::Serialize + ?Sized>(value: &T) -> String {
    hex_digest(canonical_json(value).as_bytes())
}

/// Derives the [`StageKey`] for `stage` from the canonical description
/// of everything that determines its output.
///
/// `inputs` should hold one entry per determining input, either a
/// content hash string (for large inputs like binaries) or the
/// serialized configuration itself (for small configs) — see
/// [`key_part`].
pub fn stage_key(stage: &str, inputs: &[Value]) -> StageKey {
    let doc = Value::Object(vec![
        ("schema".to_string(), Value::UInt(u64::from(SCHEMA_VERSION))),
        ("stage".to_string(), Value::Str(stage.to_string())),
        ("inputs".to_string(), Value::Array(inputs.to_vec())),
    ]);
    StageKey(hex_digest(canonical_json(&doc).as_bytes()))
}

/// Converts any serializable value into a key-document part.
pub fn key_part<T: serde::Serialize>(value: &T) -> Value {
    serde_json::to_value(value).expect("serialization to a value cannot fail")
}

/// Per-stage usage in [`StoreStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StageStats {
    /// Number of artifacts of this stage.
    pub artifacts: u64,
    /// Total bytes of their files, envelopes and blobs alike.
    pub bytes: u64,
}

/// A snapshot of the store's disk usage.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StoreStats {
    /// Total artifact count.
    pub artifacts: u64,
    /// Total bytes across artifact files.
    pub bytes: u64,
    /// Number of run manifests.
    pub manifests: u64,
    /// Per-stage breakdown, keyed by stage name.
    pub per_stage: BTreeMap<String, StageStats>,
}

impl StoreStats {
    /// Usage of one stage namespace (zero if the store holds none).
    pub fn stage(&self, stage: &str) -> StageStats {
        self.per_stage.get(stage).cloned().unwrap_or_default()
    }

    /// Usage of the pipeline-stage artifacts: the totals minus every
    /// lease namespace ([`LEASE_STAGES`](crate::LEASE_STAGES)).
    pub fn pipeline(&self) -> StageStats {
        let leases = crate::traces::LEASE_STAGES.map(|stage| self.stage(stage));
        StageStats {
            artifacts: self.artifacts - leases.iter().map(|s| s.artifacts).sum::<u64>(),
            bytes: self.bytes - leases.iter().map(|s| s.bytes).sum::<u64>(),
        }
    }
}

/// Result of a [`ArtifactStore::gc`] sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Artifacts removed (unreferenced by any manifest).
    pub removed: u64,
    /// Bytes reclaimed.
    pub reclaimed_bytes: u64,
    /// Artifacts kept (referenced).
    pub kept: u64,
}

/// One stage record inside a [`RunManifest`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ManifestStage {
    /// Stage name (`profile`, `mappable`, `vli`, `simpoint`, `map`).
    pub stage: String,
    /// Display label (e.g. which binary a profile covers).
    pub label: String,
    /// The artifact's content key.
    pub key: String,
    /// Whether this run served the stage from the store.
    pub hit: bool,
}

/// A human-readable record of one orchestrated run: which artifacts it
/// produced or reused. Manifests are what `gc` treats as roots.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RunManifest {
    /// Envelope schema version the run wrote.
    pub schema: u32,
    /// Key identifying the run (hash over its stage keys).
    pub run_key: String,
    /// What was analyzed (program, input, targets).
    pub description: String,
    /// Seconds since the Unix epoch when the run finished.
    pub finished_unix: u64,
    /// Stage-by-stage artifact keys and hit/miss outcomes.
    pub stages: Vec<ManifestStage>,
}

/// The content-addressed artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

/// Writes `parts` to `path` through a temp file and a rename, so
/// readers never observe a torn file and concurrent writers of one key
/// settle on identical content. The temp name is unique per process
/// *and* per in-process writer, so concurrent writers never rename each
/// other's file out from under themselves.
pub(crate) fn write_then_rename(path: &Path, parts: &[&[u8]]) -> Result<(), CbspError> {
    use std::io::Write;
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().expect("store paths have a parent");
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp.{}.{seq}", std::process::id()));
    let write = || -> std::io::Result<()> {
        let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        for part in parts {
            file.write_all(part)?;
        }
        file.flush()
    };
    write().map_err(|e| io_err(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

pub(crate) fn io_err(path: &Path, e: impl fmt::Display) -> CbspError {
    CbspError::StoreIo {
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

pub(crate) fn corrupt(key: &StageKey, detail: impl Into<String>) -> CbspError {
    CbspError::ArtifactCorrupt {
        key: key.as_hex().to_string(),
        detail: detail.into(),
    }
}

/// The canonical envelope up to its payload:
/// `{"schema":…,"stage":…,"key":…,"checksum":…,"payload":`. An artifact
/// file is this head, the payload's canonical JSON and `}`.
fn envelope_head(stage: &str, key: &StageKey, checksum: &str) -> String {
    format!(
        "{{\"schema\":{SCHEMA_VERSION},\"stage\":{},\"key\":\"{key}\",\"checksum\":{},\"payload\":",
        canonical_json(stage),
        canonical_json(checksum),
    )
}

/// The repair-as-miss contract, for every tier and every artifact: a
/// damaged stored artifact counts as a miss, is recomputed, and is
/// written over.
///
/// With a `store`, `read` looks the artifact up. A hit is served as is
/// and the result is `(value, true)`. On a clean miss (`Ok(None)`) the
/// value is computed and written. A damaged artifact —
/// [`CbspError::ArtifactCorrupt`] or
/// [`CbspError::ArtifactVersionMismatch`] from `read` — also counts
/// `store/repairs`, then is computed and written the same way. Without
/// a store the value is computed and nothing is read or written. Other
/// errors from `read`, `compute` or `write` propagate.
pub(crate) fn read_through<T>(
    store: Option<&ArtifactStore>,
    read: impl FnOnce(&ArtifactStore) -> Result<Option<T>, CbspError>,
    compute: impl FnOnce() -> Result<T, CbspError>,
    write: impl FnOnce(&ArtifactStore, &T) -> Result<(), CbspError>,
) -> Result<(T, bool), CbspError> {
    let Some(store) = store else {
        return Ok((compute()?, false));
    };
    match read(store) {
        Ok(Some(value)) => return Ok((value, true)),
        Ok(None) => {}
        Err(CbspError::ArtifactCorrupt { .. } | CbspError::ArtifactVersionMismatch { .. }) => {
            cbsp_trace::add("store/repairs", 1);
        }
        Err(other) => return Err(other),
    }
    let value = compute()?;
    write(store, &value)?;
    Ok((value, false))
}

/// Reads the stage name out of a blob file's fixed header — best-effort
/// attribution for stats; a malformed header yields `None` (the file
/// still counts toward totals, under `<unknown>`).
fn read_blob_stage(path: &Path) -> Option<String> {
    use std::io::Read;
    let mut header = [0u8; 24];
    std::fs::File::open(path)
        .ok()?
        .read_exact(&mut header)
        .ok()?;
    if header[0..4] != crate::blob::BLOB_MAGIC {
        return None;
    }
    let len = header[8] as usize;
    if len > crate::blob::BLOB_STAGE_MAX {
        return None;
    }
    String::from_utf8(header[9..9 + len].to_vec()).ok()
}

impl ArtifactStore {
    /// Opens (creating if necessary) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the directories cannot be
    /// created.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, CbspError> {
        let root = root.into();
        for sub in ["objects", "manifests"] {
            let dir = root.join(sub);
            std::fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        }
        Ok(ArtifactStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the artifact file for `key`.
    pub fn object_path(&self, key: &StageKey) -> PathBuf {
        self.root
            .join("objects")
            .join(&key.as_hex()[..2])
            .join(format!("{}.json", key.as_hex()))
    }

    /// Whether an artifact exists for `key` (without verifying it).
    pub fn contains(&self, key: &StageKey) -> bool {
        self.object_path(key).is_file()
    }

    /// Stores `value` as the artifact of (`stage`, `key`), replacing any
    /// file already there. A key names exactly one value, so replacing
    /// a present artifact rewrites the same bytes, or repairs a damaged
    /// one; write-then-rename keeps every reader safe.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn put<T: serde::Serialize>(
        &self,
        stage: &str,
        key: &StageKey,
        value: &T,
    ) -> Result<(), CbspError> {
        let _span = cbsp_trace::span_labeled("store/put", || stage.to_string());
        let payload = canonical_json(value);
        let head = envelope_head(stage, key, &hex_digest(payload.as_bytes()));
        let parts = [head.as_bytes(), payload.as_bytes(), b"}"];
        write_then_rename(&self.object_path(key), &parts)?;
        cbsp_trace::add(
            "store/bytes_written",
            parts.iter().map(|p| p.len() as u64).sum(),
        );
        Ok(())
    }

    /// Retrieves and verifies the artifact for (`stage`, `key`).
    ///
    /// Returns `Ok(None)` on a clean miss (no file).
    ///
    /// # Errors
    ///
    /// * [`CbspError::ArtifactCorrupt`] — unparseable envelope, wrong
    ///   stage/key binding, an envelope not in canonical form, checksum
    ///   mismatch, or undecodable payload;
    /// * [`CbspError::ArtifactVersionMismatch`] — schema version from a
    ///   different build;
    /// * [`CbspError::StoreIo`] — filesystem failure other than
    ///   not-found.
    pub fn get<T: serde::de::DeserializeOwned>(
        &self,
        stage: &str,
        key: &StageKey,
    ) -> Result<Option<T>, CbspError> {
        let _span = cbsp_trace::span_labeled("store/get", || stage.to_string());
        let path = self.object_path(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(&path, e)),
        };
        cbsp_trace::add("store/bytes_read", text.len() as u64);
        let envelope: Value = serde_json::parse(&text)
            .map_err(|e| corrupt(key, format!("unparseable envelope: {e}")))?;
        let fields = envelope
            .as_object()
            .ok_or_else(|| corrupt(key, "envelope is not an object"))?;
        let field = |name: &str| -> Result<&Value, CbspError> {
            fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| corrupt(key, format!("envelope is missing `{name}`")))
        };

        let schema = match field("schema")? {
            Value::UInt(v) => u32::try_from(*v)
                .map_err(|_| corrupt(key, format!("schema {v} is out of range")))?,
            _ => return Err(corrupt(key, "schema is not an integer")),
        };
        if schema != SCHEMA_VERSION {
            return Err(CbspError::ArtifactVersionMismatch {
                key: key.as_hex().to_string(),
                found: schema,
                supported: SCHEMA_VERSION,
            });
        }
        match field("stage")? {
            Value::Str(s) if s == stage => {}
            Value::Str(s) => {
                return Err(corrupt(
                    key,
                    format!("stage mismatch: stored for `{s}`, requested `{stage}`"),
                ))
            }
            _ => return Err(corrupt(key, "stage is not a string")),
        }
        match field("key")? {
            Value::Str(s) if s == key.as_hex() => {}
            _ => return Err(corrupt(key, "stored key does not match its filename")),
        }
        let checksum = match field("checksum")? {
            Value::Str(s) => s,
            _ => return Err(corrupt(key, "checksum is not a string")),
        };
        let payload = field("payload")?;
        let stored = text
            .strip_prefix(envelope_head(stage, key, checksum).as_str())
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| corrupt(key, "envelope is not in canonical form"))?;
        let actual = hex_digest(stored.as_bytes());
        if actual != *checksum {
            return Err(corrupt(
                key,
                format!("checksum mismatch: stored {checksum}, computed {actual}"),
            ));
        }
        let value = T::deserialize_value(payload)
            .map_err(|e| corrupt(key, format!("payload does not decode: {e}")))?;
        Ok(Some(value))
    }

    /// Writes a run manifest (named by its run key).
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on filesystem failure.
    pub fn write_manifest(&self, manifest: &RunManifest) -> Result<PathBuf, CbspError> {
        let path = self
            .root
            .join("manifests")
            .join(format!("{}.json", manifest.run_key));
        let text = serde_json::to_string_pretty(manifest).expect("serialization cannot fail");
        write_then_rename(&path, &[text.as_bytes()])?;
        Ok(path)
    }

    /// Reads all run manifests, oldest first and, among runs that
    /// finished in the same second, by run key, so two stores filled by
    /// the same commands list them alike. Unparseable manifests are
    /// skipped: they cannot serve as gc roots, which only makes gc more
    /// aggressive, never wrong.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the manifest directory cannot
    /// be listed.
    pub fn manifests(&self) -> Result<Vec<RunManifest>, CbspError> {
        let dir = self.root.join("manifests");
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| io_err(&dir, e))? {
            let entry = entry.map_err(|e| io_err(&dir, e))?;
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            if let Ok(m) = serde_json::from_str::<RunManifest>(&text) {
                out.push(m);
            }
        }
        out.sort_by(|a, b| (a.finished_unix, &a.run_key).cmp(&(b.finished_unix, &b.run_key)));
        Ok(out)
    }

    fn walk_objects(
        &self,
        mut visit: impl FnMut(&Path, u64, Option<&str>),
    ) -> Result<(), CbspError> {
        let objects = self.root.join("objects");
        for shard in std::fs::read_dir(&objects).map_err(|e| io_err(&objects, e))? {
            let shard = shard.map_err(|e| io_err(&objects, e))?.path();
            if !shard.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(&shard).map_err(|e| io_err(&shard, e))? {
                let path = entry.map_err(|e| io_err(&shard, e))?.path();
                let is_blob = match path.extension().and_then(|e| e.to_str()) {
                    Some("json") => false,
                    Some("blob") => true,
                    _ => continue,
                };
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                // Best-effort stage attribution for stats; a file that
                // doesn't parse still counts toward totals. Blob stage
                // names sit in the fixed header — no JSON parse needed.
                let stage = if is_blob {
                    read_blob_stage(&path)
                } else {
                    std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|text| serde_json::parse(&text).ok())
                        .and_then(|v| {
                            v.as_object().and_then(|fields| {
                                fields
                                    .iter()
                                    .find(|(k, _)| k == "stage")
                                    .and_then(|(_, v)| match v {
                                        Value::Str(s) => Some(s.clone()),
                                        _ => None,
                                    })
                            })
                        })
                };
                visit(&path, bytes, stage.as_deref());
            }
        }
        Ok(())
    }

    /// Disk-usage statistics for `cache stats`.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the store cannot be listed.
    pub fn stats(&self) -> Result<StoreStats, CbspError> {
        let mut stats = StoreStats::default();
        self.walk_objects(|_, bytes, stage| {
            stats.artifacts += 1;
            stats.bytes += bytes;
            let entry = stats
                .per_stage
                .entry(stage.unwrap_or("<unknown>").to_string())
                .or_default();
            entry.artifacts += 1;
            entry.bytes += bytes;
        })?;
        stats.manifests = self.manifests()?.len() as u64;
        Ok(stats)
    }

    /// Removes every artifact not referenced by any run manifest.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] if the store cannot be listed.
    pub fn gc(&self) -> Result<GcReport, CbspError> {
        let mut referenced = std::collections::BTreeSet::new();
        for manifest in self.manifests()? {
            for stage in &manifest.stages {
                referenced.insert(stage.key.clone());
            }
        }
        let mut report = GcReport::default();
        let mut doomed: Vec<PathBuf> = Vec::new();
        self.walk_objects(|path, bytes, _| {
            let key = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("")
                .to_string();
            if referenced.contains(&key) {
                report.kept += 1;
            } else {
                report.removed += 1;
                report.reclaimed_bytes += bytes;
                doomed.push(path.to_path_buf());
            }
        })?;
        for path in doomed {
            std::fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
        }
        cbsp_trace::add("store/evicted", report.removed);
        cbsp_trace::add("store/evicted_bytes", report.reclaimed_bytes);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_range_schema_is_corrupt_not_truncated() {
        let dir = std::env::temp_dir().join(format!("cbsp-store-schema-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let key = stage_key("vli", &[Value::UInt(1)]);
        store.put("vli", &key, &vec![1u64, 2, 3]).expect("writes");
        let path = store.object_path(&key);
        let text = std::fs::read_to_string(&path).expect("envelope exists");

        // 2^32 + SCHEMA_VERSION truncates to SCHEMA_VERSION as a u32.
        let current = format!("\"schema\":{SCHEMA_VERSION}");
        let wrapped = (1u64 << 32) + u64::from(SCHEMA_VERSION);
        assert!(text.contains(&current), "{text}");
        let forged = text.replacen(&current, &format!("\"schema\":{wrapped}"), 1);
        std::fs::write(&path, forged).expect("forges the schema");

        match store.get::<Vec<u64>>("vli", &key) {
            Err(CbspError::ArtifactCorrupt { detail, .. }) => {
                assert!(detail.contains("out of range"), "{detail}");
            }
            other => panic!("expected ArtifactCorrupt, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_canonical_envelope_is_corrupt_and_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let dir = std::env::temp_dir().join(format!("cbsp-store-form-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let key = stage_key("vli", &[Value::UInt(2)]);
        let payload = vec![0.5f64, 1.0, -2.25];
        store.put("vli", &key, &payload).expect("writes");
        let path = store.object_path(&key);
        let canonical = std::fs::read(&path).expect("envelope exists");

        // The same fields and payload, checksum still valid, re-emitted
        // pretty-printed.
        let envelope = serde_json::parse(std::str::from_utf8(&canonical).expect("UTF-8"))
            .expect("envelope parses");
        let pretty = serde_json::to_string_pretty(&envelope).expect("serializes");
        assert_ne!(pretty.as_bytes(), canonical);
        std::fs::write(&path, &pretty).expect("re-emits the envelope");

        match store.get::<Vec<f64>>("vli", &key) {
            Err(CbspError::ArtifactCorrupt { detail, .. }) => {
                assert!(detail.contains("not in canonical form"), "{detail}");
            }
            other => panic!("expected ArtifactCorrupt, got {other:?}"),
        }

        cbsp_trace::enable();
        cbsp_trace::reset();
        let (value, hit) = read_through(
            Some(&store),
            |store| store.get::<Vec<f64>>("vli", &key),
            || Ok(payload.clone()),
            |store, value| store.put("vli", &key, value),
        )
        .expect("repairs");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        assert_eq!((value, hit), (payload, false));
        assert_eq!(counters.get("store/repairs"), Some(&1));
        assert_eq!(std::fs::read(&path).expect("rewritten"), canonical);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifests_of_one_second_list_in_run_key_order() {
        let dir = std::env::temp_dir().join(format!("cbsp-store-order-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let manifest = |run_key: &str, finished_unix: u64| RunManifest {
            schema: SCHEMA_VERSION,
            run_key: run_key.to_string(),
            description: format!("run {run_key}"),
            finished_unix,
            stages: Vec::new(),
        };
        for key in ["c3", "a1", "e5", "b2", "d4"] {
            store.write_manifest(&manifest(key, 7)).expect("writes");
        }
        store.write_manifest(&manifest("f0", 6)).expect("writes");
        let listed: Vec<String> = store
            .manifests()
            .expect("lists")
            .into_iter()
            .map(|m| m.run_key)
            .collect();
        assert_eq!(listed, ["f0", "a1", "b2", "c3", "d4", "e5"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
