//! Property tests of the binary blob tier's guarantees:
//!
//! 1. Framing fidelity — any (stage, meta, payload) triple round-trips
//!    byte-identical through the on-disk blob format.
//! 2. Corruption safety — any single-byte mutation or truncation of a
//!    blob file is detected on read and reported as a typed
//!    [`CbspError`] (`ArtifactCorrupt` / `ArtifactVersionMismatch`),
//!    never a panic and never silently wrong bytes.
//! 3. Prefetch determinism — slice prefetch fan-out returns the same
//!    bytes at 1 thread and at 8.

use cbsp_core::CbspError;
use cbsp_par::Pool;
use cbsp_program::{compile, workloads, CompileTarget, Input, Scale};
use cbsp_store::{stage_key, ArtifactStore, StageKey, TraceCache};
use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh store rooted in a unique temp directory.
fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbsp-blob-prop-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");
    (store, dir)
}

fn key_of(salt: u64) -> StageKey {
    stage_key("blob-prop", &[Value::UInt(salt)])
}

/// Stage names within the header's 15-byte budget.
fn stage_name() -> impl Strategy<Value = String> {
    (0usize..4).prop_map(|i| ["trace", "trace_slice", "t", "abcdefghijklmno"][i].to_string())
}

proptest! {
    /// Whatever (stage, meta, payload) goes in comes back
    /// byte-identical, through both the fresh write and a rewrite of
    /// the same key.
    #[test]
    fn blob_round_trip_is_byte_identical(
        stage in stage_name(),
        meta in vec(any::<u8>(), 0..64),
        payload in vec(any::<u8>(), 0..512),
        salt in 0u64..1000,
    ) {
        let (store, dir) = temp_store("roundtrip");
        let key = key_of(salt);
        store.put_blob(&stage, &key, &meta, &payload).expect("writes");
        let first = std::fs::read(store.blob_path(&key)).expect("blob exists");
        // Content-addressed: a second put of the same key leaves the
        // same bytes.
        store.put_blob(&stage, &key, &meta, &payload).expect("rewrites");
        let second = std::fs::read(store.blob_path(&key)).expect("blob exists");
        prop_assert!(first == second);
        let blob = store
            .get_blob(&stage, &key)
            .expect("reads")
            .expect("present");
        prop_assert_eq!(blob.meta, meta);
        prop_assert_eq!(blob.payload, payload);
        // A missing key is a clean miss, not an error.
        prop_assert!(store.get_blob(&stage, &key_of(salt + 1000)).expect("reads").is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Any single flipped byte anywhere in the blob file is detected
    /// and reported as a typed error — never a panic, never wrong
    /// bytes served as good.
    #[test]
    fn any_single_byte_flip_is_detected(
        meta in vec(any::<u8>(), 0..24),
        payload in vec(any::<u8>(), 1..64),
        flip_seed in any::<usize>(),
        salt in 0u64..1000,
    ) {
        let (store, dir) = temp_store("flip");
        let key = key_of(salt);
        store.put_blob("trace", &key, &meta, &payload).expect("writes");
        let path = store.blob_path(&key);
        let mut bytes = std::fs::read(&path).expect("blob file exists");
        let at = flip_seed % bytes.len();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrites");

        match store.get_blob("trace", &key) {
            Err(CbspError::ArtifactCorrupt { .. })
            | Err(CbspError::ArtifactVersionMismatch { .. }) => {}
            other => prop_assert!(false, "flip at {at} must be typed corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncation at every possible length — mid-header, mid-meta,
    /// mid-payload — is detected as typed corruption, and a trailing
    /// extra byte is too.
    #[test]
    fn any_truncation_is_detected(
        meta in vec(any::<u8>(), 0..16),
        payload in vec(any::<u8>(), 1..32),
        cut_seed in any::<usize>(),
        salt in 0u64..1000,
    ) {
        let (store, dir) = temp_store("cut");
        let key = key_of(salt);
        store.put_blob("trace", &key, &meta, &payload).expect("writes");
        let path = store.blob_path(&key);
        let bytes = std::fs::read(&path).expect("blob file exists");

        let cut = cut_seed % bytes.len();
        std::fs::write(&path, &bytes[..cut]).expect("truncates");
        match store.get_blob("trace", &key) {
            Err(CbspError::ArtifactCorrupt { .. })
            | Err(CbspError::ArtifactVersionMismatch { .. }) => {}
            other => prop_assert!(false, "cut to {cut} must be typed corruption, got {other:?}"),
        }

        let mut longer = bytes.clone();
        longer.push(0);
        std::fs::write(&path, &longer).expect("extends");
        match store.get_blob("trace", &key) {
            Err(CbspError::ArtifactCorrupt { .. }) => {}
            other => prop_assert!(false, "trailing byte must be corruption, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Slice prefetch fan-out is byte-deterministic: a cache prefetching
/// on 1 thread and one prefetching on 8 return identical slices in
/// identical order.
#[test]
fn slice_prefetch_is_byte_identical_across_thread_counts() {
    use cbsp_profile::{ExecPoint, MarkerRef};
    use cbsp_program::{run, Marker, TraceSink};
    use cbsp_sim::MemoryConfig;

    #[derive(Default)]
    struct Tally(std::collections::BTreeMap<MarkerRef, u64>);
    impl TraceSink for Tally {
        fn on_block(&mut self, _b: cbsp_program::BlockId, _i: u64) {}
        fn on_marker(&mut self, m: Marker) {
            let r = match m {
                Marker::ProcEntry(p) => MarkerRef::Proc(u32::from(p)),
                Marker::LoopEntry(l) => MarkerRef::LoopEntry(u32::from(l)),
                Marker::LoopBack(l) => MarkerRef::LoopBack(u32::from(l)),
            };
            *self.0.entry(r).or_insert(0) += 1;
        }
    }

    let prog = workloads::by_name("gzip")
        .expect("in suite")
        .build(Scale::Test);
    let bin = compile(&prog, CompileTarget::W32_O2);
    let input = Input::test();
    let mut tally = Tally::default();
    run(&bin, &input, &mut tally);
    let (&marker, &execs) = tally.0.iter().max_by_key(|(_, &n)| n).expect("markers run");
    let cuts = 8.min(execs);
    let boundaries: Vec<ExecPoint> = (1..=cuts)
        .map(|i| ExecPoint {
            marker,
            count: i * execs / cuts,
        })
        .collect();
    let selected: Vec<usize> = (0..=boundaries.len()).collect();
    let config = MemoryConfig::table1();

    let (store, dir) = temp_store("prefetch");
    // Materialize the slice blobs once.
    TraceCache::new(Some(&store))
        .get_slices(&bin, &input, &config, &boundaries, &selected)
        .expect("cold materialization");

    let serial = TraceCache::new(Some(&store))
        .with_prefetch(Pool::new(1))
        .get_slices(&bin, &input, &config, &boundaries, &selected)
        .expect("serial prefetch");
    let pooled = TraceCache::new(Some(&store))
        .with_prefetch(Pool::new(8))
        .get_slices(&bin, &input, &config, &boundaries, &selected)
        .expect("pooled prefetch");
    assert_eq!(
        *serial, *pooled,
        "slice prefetch must merge in index order at any thread count"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
