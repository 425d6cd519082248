//! Determinism of the CPI estimate path: every binary's estimate must
//! come back bit-identical with no store, from a cold and a warm blob
//! store, and from a store an older version left holding JSON
//! envelopes, at 1 pool thread or 8, and must equal the same estimate
//! computed from one marker-sliced simulation — the replay lease and
//! the blob tier change what is read, never the answer.
//!
//! Every test holds [`cbsp_trace::test_lock`]: one of them asserts
//! exact counters, and the collector is process-global.

use cbsp_par::Pool;
use cbsp_store::{
    trace_key, trace_slice_key, ArtifactStore, CpiEstimate, Prepared, StageKey, TraceCache,
    TRACE_SLICE_STAGE, TRACE_STAGE,
};
use cross_binary_simpoints::core::{stratified_ci, weighted_cpi_with};
use cross_binary_simpoints::prelude::*;
use cross_binary_simpoints::sim::IntervalSim;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

const INTERVAL: u64 = 20_000;

/// A benchmark's four binaries at Test scale and their cross-binary
/// result under the `stratified` lane (several points per phase, so
/// the confidence half-width is not trivially zero).
fn pipeline(name: &str) -> (Vec<Binary>, CrossBinaryResult) {
    let prog = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Test);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    let config = CbspConfig {
        interval_target: INTERVAL,
        estimator: EstimatorConfig::parse("stratified").expect("known tag"),
        ..CbspConfig::default()
    };
    let cross = run_cross_binary(
        &binaries.iter().collect::<Vec<_>>(),
        &Input::test(),
        &config,
    )
    .expect("pipeline runs");
    (binaries, cross)
}

/// Every binary's estimate through a fresh cache over `store`.
fn estimate(
    store: Option<&ArtifactStore>,
    binaries: &[Binary],
    cross: &CrossBinaryResult,
    threads: usize,
) -> Vec<CpiEstimate> {
    TraceCache::new(store)
        .estimate_cpi(
            &Prepared::new(binaries.to_vec(), Input::test()),
            &MemoryConfig::table1(),
            cross,
            INTERVAL,
            &Pool::new(threads),
        )
        .expect("estimates")
}

/// The keys an older version's estimate wrote: per binary, in order,
/// its whole trace and its slice manifest over the simulation points.
fn old_estimate_keys(
    binaries: &[Binary],
    cross: &CrossBinaryResult,
) -> Vec<(&'static str, StageKey)> {
    let mut selected: Vec<usize> = cross.simpoint.points.iter().map(|p| p.interval).collect();
    selected.sort_unstable();
    selected.dedup();
    let input = Input::test();
    binaries
        .iter()
        .enumerate()
        .flat_map(|(b, bin)| {
            [
                (TRACE_STAGE, trace_key(bin, &input)),
                (
                    TRACE_SLICE_STAGE,
                    trace_slice_key(
                        bin,
                        &input,
                        &MemoryConfig::table1(),
                        &cross.boundaries[b],
                        &selected,
                    ),
                ),
            ]
        })
        .collect()
}

fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cbsp-blob-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ArtifactStore::open(&dir).expect("store opens"), dir)
}

/// Writes a checksummed JSON envelope under each `(stage, key)`, as an
/// older version stored traces and slice manifests. Nothing reads the
/// payload any more, so it only keeps the pre-blob field names.
fn put_envelopes(store: &ArtifactStore, keys: &[(&str, StageKey)]) {
    let payload = Value::Object(vec![
        ("n_procs".to_string(), Value::UInt(0)),
        ("n_loops".to_string(), Value::UInt(0)),
        ("events".to_string(), Value::UInt(0)),
        ("data".to_string(), Value::Str(String::new())),
    ]);
    for (stage, key) in keys {
        store.put(stage, key, &payload).expect("envelope writes");
    }
}

/// Runs `f` with tracing on, returning its result and the counters it
/// bumped, less the pool's timings (`*_ns`), which vary run to run.
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    cbsp_trace::enable();
    cbsp_trace::reset();
    let out = f();
    let mut counters = cbsp_trace::snapshot().counters;
    cbsp_trace::disable();
    cbsp_trace::reset();
    counters.retain(|name, _| !name.ends_with("_ns"));
    (out, counters)
}

/// Every estimate's fields as bit patterns, so equality is exact
/// rather than float `==`.
fn bits(estimates: &[CpiEstimate]) -> Vec<[u64; 4]> {
    estimates
        .iter()
        .map(|e| {
            [
                e.true_cpi.to_bits(),
                e.instructions,
                e.estimated_cpi.to_bits(),
                e.ci_half.to_bits(),
            ]
        })
        .collect()
}

/// The CPI estimate is bit-identical across {no store, blob store,
/// store holding an older version's JSON envelopes} × {1, 8 pool
/// threads}, cold and warm, for every binary of a workload.
#[test]
fn estimates_are_identical_across_formats_and_thread_counts() {
    let _lock = cbsp_trace::test_lock();
    let (binaries, cross) = pipeline("mcf");
    let reference = bits(&estimate(None, &binaries, &cross, 1));
    assert!(
        reference.iter().any(|e| f64::from_bits(e[3]) > 0.0),
        "the stratified lane reports a confidence interval"
    );

    let (blob_store, blob_dir) = temp_store("blob");
    let (json_store, json_dir) = temp_store("json");
    put_envelopes(&json_store, &old_estimate_keys(&binaries, &cross));

    // The first call of each store is cold, the second warm.
    for threads in [1usize, 8] {
        for (format, store) in [
            ("no store", None),
            ("blob", Some(&blob_store)),
            ("json", Some(&json_store)),
        ] {
            assert_eq!(
                reference,
                bits(&estimate(store, &binaries, &cross, threads)),
                "{format} / {threads} threads"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&blob_dir);
    let _ = std::fs::remove_dir_all(&json_dir);
}

/// A store an older version left holding JSON envelopes behaves exactly
/// like an empty store: every entry point serves the same value and
/// bumps the same counters — a miss, no repair — and writes its blob
/// beside the untouched envelopes, which the next `gc` evicts. Only
/// `get_or_record` records a trace, only `get_slices` cuts slices, and
/// the estimate writes neither.
#[test]
fn old_store_envelopes_are_plain_misses() {
    let _lock = cbsp_trace::test_lock();
    let (binaries, cross) = pipeline("swim");
    let bin = &binaries[1];
    let input = Input::test();
    let config = MemoryConfig::table1();
    let boundaries = &cross.boundaries[1];
    let selected: Vec<usize> = cross.simpoint.points.iter().map(|p| p.interval).collect();
    let old = old_estimate_keys(&binaries, &cross);
    let (tkey, skey) = (&old[2].1, &old[3].1);

    /// Runs `call` against an empty store and against one holding old
    /// envelopes under `old`. `written` are the blobs the call must
    /// write, and no other key of `old` may get one; `records` says
    /// whether it records the trace (one trace miss) or leaves traces
    /// alone (no trace counter moves).
    fn check<T: PartialEq + std::fmt::Debug>(
        entry: &str,
        old: &[(&str, StageKey)],
        written: &[&StageKey],
        records: bool,
        call: impl Fn(&TraceCache) -> T,
    ) {
        let (empty, empty_dir) = temp_store(&format!("empty-{entry}"));
        let (aged, aged_dir) = temp_store(&format!("old-{entry}"));
        put_envelopes(&aged, old);

        let (want, want_counters) = counted(|| call(&TraceCache::new(Some(&empty))));
        let (got, got_counters) = counted(|| call(&TraceCache::new(Some(&aged))));
        assert_eq!(
            got, want,
            "{entry}: old store serves what an empty one does"
        );
        assert_eq!(got_counters, want_counters, "{entry}: same counters");
        let trace_misses = got_counters.get("sim/trace_cache_misses");
        assert_eq!(trace_misses, records.then_some(&1), "{entry}: traces");
        assert_eq!(got_counters.get("sim/trace_cache_hits"), None);
        assert_eq!(got_counters.get("sim/full_replay_avoided"), None);
        assert_eq!(
            got_counters.get("store/repairs"),
            None,
            "{entry}: no repair"
        );
        for (_, key) in old {
            for store in [&empty, &aged] {
                assert_eq!(
                    store.contains_blob(key),
                    written.contains(&key),
                    "{entry}: blob under {}",
                    key.short()
                );
            }
            assert!(aged.contains(key), "{entry}: envelopes untouched");
        }

        aged.gc().expect("gc sweeps");
        for (_, key) in old {
            assert!(!aged.contains(key), "{entry}: gc evicts envelopes");
        }
        let _ = std::fs::remove_dir_all(&empty_dir);
        let _ = std::fs::remove_dir_all(&aged_dir);
    }

    check("get_or_record", &old, &[tkey], true, |cache| {
        cache.get_or_record(bin, &input).expect("records")
    });
    check("get_slices", &old, &[skey], false, |cache| {
        cache
            .get_slices(bin, &input, &config, boundaries, &selected)
            .expect("materializes")
    });
    check("estimate_cpi", &old, &[], false, |cache| {
        let prepared = Prepared::new(binaries.clone(), input.clone());
        let estimates = cache
            .estimate_cpi(&prepared, &config, &cross, INTERVAL, &Pool::new(2))
            .expect("estimates");
        bits(&estimates)
    });
}

/// The estimate equals the same estimate computed from one in-context
/// `simulate_marker_sliced` pass — `weighted_cpi_with` and
/// `stratified_ci` over the per-interval CPIs — bit for bit, for every
/// binary of a workload, with the pipeline's own boundaries, simulation
/// points and per-binary phase weights, with and without a store.
#[test]
fn estimates_match_a_marker_sliced_simulation() {
    let _lock = cbsp_trace::test_lock();
    let (binaries, cross) = pipeline("mcf");
    let input = Input::test();
    let config = MemoryConfig::table1();
    let points = &cross.simpoint.points;
    let n = cross.interval_count();

    let mut direct = Vec::with_capacity(binaries.len());
    for (b, bin) in binaries.iter().enumerate() {
        let weights = &cross.weights[b];
        let (full, mut intervals) =
            simulate_marker_sliced(bin, &input, &config, &cross.boundaries[b]);
        intervals.resize(n.max(intervals.len()), IntervalSim::default());
        let interval_cpis: Vec<f64> = intervals.iter().map(IntervalSim::cpi).collect();
        direct.push(CpiEstimate {
            true_cpi: full.cpi(),
            instructions: full.instructions,
            estimated_cpi: weighted_cpi_with(points, weights, &interval_cpis),
            ci_half: stratified_ci(points, &cross.simpoint.labels, weights, &interval_cpis),
        });
    }

    let (store, dir) = temp_store("direct");
    for (what, store) in [
        ("no store", None),
        ("cold", Some(&store)),
        ("warm", Some(&store)),
    ] {
        let estimates = estimate(store, &binaries, &cross, 2);
        for (b, bin) in binaries.iter().enumerate() {
            assert_eq!(
                bits(&estimates[b..=b]),
                bits(&direct[b..=b]),
                "{what}: {}",
                bin.label()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
