//! Property tests of the artifact store's two core guarantees:
//!
//! 1. Round-trip fidelity — any value that goes in comes back
//!    byte-identical (canonical JSON compares equal).
//! 2. Corruption safety — any single-byte mutation or truncation of an
//!    artifact file is detected on read and reported as a typed
//!    [`CbspError`], never a panic and never silently wrong data.

use cbsp_core::CbspError;
use cbsp_store::{canonical_json, stage_key, ArtifactStore, StageKey};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh store rooted in a unique temp directory.
fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbsp-store-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");
    (store, dir)
}

fn small_string() -> impl Strategy<Value = String> {
    vec(any::<char>(), 0..8).prop_map(|chars| chars.into_iter().collect())
}

/// Arbitrary JSON trees — every payload shape the store can hold.
fn json_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<u64>().prop_map(Value::UInt),
        any::<f64>().prop_map(Value::Float),
        small_string().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            vec(inner.clone(), 0..4).prop_map(Value::Array),
            vec((small_string(), inner), 0..4).prop_map(Value::Object),
        ]
        .boxed()
    })
}

fn key_of(payload: &Value, salt: u64) -> StageKey {
    stage_key("prop", &[payload.clone(), Value::UInt(salt)])
}

proptest! {
    /// Whatever goes in comes back byte-identical.
    #[test]
    fn round_trip_is_byte_identical(payload in json_value(), salt in 0u64..1000) {
        let (store, dir) = temp_store("roundtrip");
        let key = key_of(&payload, salt);
        store.put("prop", &key, &payload).expect("put succeeds");
        let first = std::fs::read(store.object_path(&key)).expect("artifact file exists");
        // A second put of the same content leaves the same bytes.
        store.put("prop", &key, &payload).expect("put succeeds");
        let second = std::fs::read(store.object_path(&key)).expect("artifact file exists");
        prop_assert!(first == second);
        let got: Value = store
            .get("prop", &key)
            .expect("get succeeds")
            .expect("artifact present");
        prop_assert_eq!(canonical_json(&got), canonical_json(&payload));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single-byte mutation of the stored file surfaces as a typed
    /// error. Every byte is covered by a check: the envelope's head is
    /// rebuilt from its validated fields, the payload text as stored is
    /// hashed against the checksum, and the file must end right after
    /// it. So even a change the decoded value cannot show (a float
    /// digit below f64 precision, say) is caught. Never a panic, never
    /// silently different data.
    #[test]
    fn corrupted_artifact_is_a_typed_error(
        payload in json_value(),
        pos_seed in any::<u64>(),
        replacement in 0x20u8..0x7f,
    ) {
        let (store, dir) = temp_store("corrupt");
        let key = key_of(&payload, 0);
        store.put("prop", &key, &payload).expect("put succeeds");

        let path = store.object_path(&key);
        let mut bytes = std::fs::read(&path).expect("artifact file exists");
        let pos = (pos_seed % bytes.len() as u64) as usize;
        prop_assume!(bytes[pos] != replacement);
        bytes[pos] = replacement;
        std::fs::write(&path, &bytes).expect("rewrite");

        match store.get::<Value>("prop", &key) {
            Err(CbspError::ArtifactCorrupt { key: k, .. }) => {
                prop_assert_eq!(k, key.as_hex().to_string());
            }
            Err(CbspError::ArtifactVersionMismatch { .. }) => {
                // The mutation hit the schema-version digit.
            }
            other => prop_assert!(false, "corruption not detected: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A truncated artifact file is likewise a typed error.
    #[test]
    fn truncated_artifact_is_a_typed_error(payload in json_value(), keep_seed in any::<u64>()) {
        let (store, dir) = temp_store("truncate");
        let key = key_of(&payload, 0);
        store.put("prop", &key, &payload).expect("put succeeds");

        let path = store.object_path(&key);
        let bytes = std::fs::read(&path).expect("artifact file exists");
        let keep = (keep_seed % bytes.len() as u64) as usize;
        std::fs::write(&path, &bytes[..keep]).expect("truncate");

        match store.get::<Value>("prop", &key) {
            Err(CbspError::ArtifactCorrupt { .. }) => {}
            other => prop_assert!(false, "truncation not detected: {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Keys are deterministic in their inputs and (modulo SHA-256
    /// collisions) distinct for distinct inputs.
    #[test]
    fn keys_are_deterministic_and_input_sensitive(payload in json_value(), salt in 0u64..1000) {
        let key = key_of(&payload, salt);
        prop_assert_eq!(key.clone(), key_of(&payload, salt));
        prop_assert!(key.as_hex().len() == 64);
        prop_assert!(key != key_of(&payload, salt + 1));
        prop_assert!(
            stage_key("prop", std::slice::from_ref(&payload))
                != stage_key("other", std::slice::from_ref(&payload))
        );
    }
}
