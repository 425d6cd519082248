//! Determinism of the sliced-trace estimate path: the same CPI estimate
//! must come back bit-identical from a blob store and from a store an
//! older version left holding JSON envelopes, whether slice prefetch
//! fans out over 1 thread or 8, and must equal the same estimate
//! computed from a full marker-sliced simulation — slicing and the blob
//! tier change the bytes read, never the answer.
//!
//! Every test holds [`cbsp_trace::test_lock`]: one of them asserts
//! exact counters, and the collector is process-global.

use cbsp_par::Pool;
use cbsp_store::{
    trace_key, trace_slice_key, ArtifactStore, CpiEstimate, StageKey, TraceCache,
    TRACE_SLICE_STAGE, TRACE_STAGE,
};
use cross_binary_simpoints::core::weighted_cpi_with;
use cross_binary_simpoints::prelude::*;
use cross_binary_simpoints::profile::{ExecPoint, MarkerRef};
use cross_binary_simpoints::program::{BlockId, Marker};
use cross_binary_simpoints::sim::{simulate_marker_sliced, IntervalSim, MemoryConfig};
use cross_binary_simpoints::simpoint::SimPoint;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Counts marker executions to derive in-order [`ExecPoint`]
/// boundaries without involving the profiling pipeline.
#[derive(Default)]
struct MarkerTally(BTreeMap<MarkerRef, u64>);

impl TraceSink for MarkerTally {
    fn on_block(&mut self, _block: BlockId, _instrs: u64) {}

    fn on_marker(&mut self, marker: Marker) {
        let r = match marker {
            Marker::ProcEntry(p) => MarkerRef::Proc(u32::from(p)),
            Marker::LoopEntry(l) => MarkerRef::LoopEntry(u32::from(l)),
            Marker::LoopBack(l) => MarkerRef::LoopBack(u32::from(l)),
        };
        *self.0.entry(r).or_insert(0) += 1;
    }
}

fn boundaries_and_points(bin: &Binary, input: &Input) -> (Vec<ExecPoint>, Vec<SimPoint>) {
    let mut tally = MarkerTally::default();
    run(bin, input, &mut tally);
    let (&marker, &execs) = tally.0.iter().max_by_key(|(_, &n)| n).expect("markers run");
    let cuts = 8.min(execs);
    let boundaries: Vec<ExecPoint> = (1..=cuts)
        .map(|i| ExecPoint {
            marker,
            count: i * execs / cuts,
        })
        .collect();
    let n = boundaries.len() + 1;
    let points = vec![
        SimPoint {
            phase: 0,
            interval: 0,
            weight: 0.5,
            share: 1.0,
            variance: 0.0,
        },
        SimPoint {
            phase: 1,
            interval: n / 2,
            weight: 0.3,
            share: 1.0,
            variance: 0.0,
        },
        SimPoint {
            phase: 2,
            interval: n - 1,
            weight: 0.2,
            share: 1.0,
            variance: 0.0,
        },
    ];
    (boundaries, points)
}

fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cbsp-blob-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (ArtifactStore::open(&dir).expect("store opens"), dir)
}

/// Writes a checksummed JSON envelope under each `(stage, key)`, as an
/// older version stored traces and slice manifests. Nothing reads the
/// payload any more, so it only keeps the pre-blob field names.
fn put_envelopes(store: &ArtifactStore, keys: &[(&str, &StageKey)]) {
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
/// bumped.
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    cbsp_trace::enable();
    cbsp_trace::reset();
    let out = f();
    let counters = cbsp_trace::snapshot().counters;
    cbsp_trace::disable();
    cbsp_trace::reset();
    (out, counters)
}

fn assert_bit_identical(reference: &CpiEstimate, other: &CpiEstimate, label: &str) {
    assert_eq!(
        reference.estimated_cpi.to_bits(),
        other.estimated_cpi.to_bits(),
        "{label}: estimated CPI differs"
    );
    assert_eq!(
        reference.true_cpi.to_bits(),
        other.true_cpi.to_bits(),
        "{label}: true CPI differs"
    );
    let bits = |e: &CpiEstimate| {
        e.interval_cpis
            .iter()
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(reference),
        bits(other),
        "{label}: per-interval CPIs differ"
    );
    assert_eq!(reference, other, "{label}: estimate differs");
}

/// The sliced CPI estimate is bit-identical across {blob store, store
/// holding pre-blob JSON envelopes} × {1, 8 prefetch threads} for two
/// binaries of a workload.
#[test]
fn estimates_are_identical_across_formats_and_thread_counts() {
    let _lock = cbsp_trace::test_lock();
    let prog = workloads::by_name("gzip")
        .expect("in suite")
        .build(Scale::Test);
    let input = Input::test();
    let config = MemoryConfig::table1();

    for &target in &[CompileTarget::W32_O2, CompileTarget::W64_O0] {
        let bin = compile(&prog, target);
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let n = boundaries.len() + 1;
        let label = bin.label();

        // Blob-format store: a cold estimate materializes the blobs.
        let (blob_store, blob_dir) = temp_store(&format!("blob-{target:?}"));
        let reference = TraceCache::new(Some(&blob_store))
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("cold blob estimate");

        // Old-format store: envelopes under the same keys.
        let (json_store, json_dir) = temp_store(&format!("json-{target:?}"));
        put_envelopes(
            &json_store,
            &[
                (TRACE_STAGE, &trace_key(&bin, &input)),
                (
                    TRACE_SLICE_STAGE,
                    &trace_slice_key(&bin, &input, &config, &boundaries, &selected),
                ),
            ],
        );

        for threads in [1usize, 8] {
            let pool = Pool::new(threads);
            for (format, store) in [("blob", &blob_store), ("json", &json_store)] {
                let estimate = TraceCache::new(Some(store))
                    .with_prefetch(pool)
                    .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                    .expect("store-warm estimate");
                assert_bit_identical(
                    &reference,
                    &estimate,
                    &format!("{label} / {format} / {threads} threads"),
                );
            }
        }
        let _ = std::fs::remove_dir_all(&blob_dir);
        let _ = std::fs::remove_dir_all(&json_dir);
    }
}

/// A store an older version left holding JSON envelopes behaves exactly
/// like an empty store: every entry point serves the same value and
/// bumps the same counters — a miss, no repair — and writes its blob
/// beside the untouched envelope, which the next `gc` evicts. Only
/// `get_or_record` records a trace: the slice paths cut their slices
/// from a direct run and leave the `trace` namespace alone.
#[test]
fn old_store_envelopes_are_plain_misses() {
    let _lock = cbsp_trace::test_lock();
    let prog = workloads::by_name("swim")
        .expect("in suite")
        .build(Scale::Test);
    let bin = compile(&prog, CompileTarget::W32_O2);
    let input = Input::test();
    let config = MemoryConfig::table1();
    let (boundaries, points) = boundaries_and_points(&bin, &input);
    let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
    let n = boundaries.len() + 1;
    let tkey = trace_key(&bin, &input);
    let skey = trace_slice_key(&bin, &input, &config, &boundaries, &selected);

    /// Runs `call` against an empty store and against one holding old
    /// envelopes under both keys. `written` are the blobs the call must
    /// write; `records` says whether it records the trace (one trace
    /// miss, trace blob written) or leaves traces alone (no trace
    /// counter moves, no trace blob).
    fn check<T: PartialEq + std::fmt::Debug>(
        entry: &str,
        tkey: &StageKey,
        skey: &StageKey,
        written: &[&StageKey],
        records: bool,
        call: impl Fn(&TraceCache) -> T,
    ) {
        let (empty, empty_dir) = temp_store(&format!("empty-{entry}"));
        let (old, old_dir) = temp_store(&format!("old-{entry}"));
        put_envelopes(&old, &[(TRACE_STAGE, tkey), (TRACE_SLICE_STAGE, skey)]);

        let (want, want_counters) = counted(|| call(&TraceCache::new(Some(&empty))));
        let (got, got_counters) = counted(|| call(&TraceCache::new(Some(&old))));
        assert_eq!(
            got, want,
            "{entry}: old store serves what an empty one does"
        );
        assert_eq!(got_counters, want_counters, "{entry}: same counters");
        if records {
            assert_eq!(got_counters.get("sim/trace_cache_misses"), Some(&1));
        } else {
            assert_eq!(
                got_counters.get("sim/trace_cache_misses"),
                None,
                "{entry}: no trace recorded"
            );
            for store in [&empty, &old] {
                assert!(!store.contains_blob(tkey), "{entry}: no trace blob");
            }
        }
        assert_eq!(got_counters.get("sim/trace_cache_hits"), None);
        assert_eq!(got_counters.get("sim/full_replay_avoided"), None);
        assert_eq!(
            got_counters.get("store/repairs"),
            None,
            "{entry}: no repair"
        );
        for key in written {
            assert!(old.contains_blob(key), "{entry}: blob written");
        }
        assert!(
            old.contains(tkey) && old.contains(skey),
            "{entry}: envelopes untouched"
        );

        old.gc().expect("gc sweeps");
        assert!(
            !old.contains(tkey) && !old.contains(skey),
            "{entry}: gc evicts envelopes"
        );
        let _ = std::fs::remove_dir_all(&empty_dir);
        let _ = std::fs::remove_dir_all(&old_dir);
    }

    check("get_or_record", &tkey, &skey, &[&tkey], true, |cache| {
        cache.get_or_record(&bin, &input).expect("records")
    });
    check("get_slices", &tkey, &skey, &[&skey], false, |cache| {
        cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes")
    });
    check(
        "estimate_cpi_sliced",
        &tkey,
        &skey,
        &[&skey],
        false,
        |cache| {
            let est = cache
                .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                .expect("estimates");
            // Bit patterns, so equality is exact rather than float `==`.
            (
                est.true_cpi.to_bits(),
                est.instructions,
                est.estimated_cpi.to_bits(),
                est.interval_cpis
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>(),
            )
        },
    );
}

/// The sliced estimate equals the same estimate computed from a full
/// run — one in-context `simulate_marker_sliced` pass, then
/// `weighted_cpi_with` — bit for bit, for every binary of a workload,
/// with the pipeline's own boundaries, simulation points, and
/// per-binary phase weights.
#[test]
fn sliced_estimates_match_a_full_trace_replay() {
    let _lock = cbsp_trace::test_lock();
    let prog = workloads::by_name("gzip")
        .expect("in suite")
        .build(Scale::Test);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    let input = Input::test();
    let config = MemoryConfig::table1();
    let cbsp = CbspConfig {
        interval_target: 20_000,
        ..CbspConfig::default()
    };
    let result = run_cross_binary(&binaries.iter().collect::<Vec<_>>(), &input, &cbsp)
        .expect("pipeline runs");
    let points = &result.simpoint.points;
    let n = result.interval_count();

    let cache = TraceCache::new(None);
    for (b, bin) in binaries.iter().enumerate() {
        let label = bin.label();
        let boundaries = &result.boundaries[b];
        let weights = &result.weights[b];
        let sliced = cache
            .estimate_cpi_sliced(bin, &input, &config, boundaries, points, Some(weights), n)
            .expect("sliced estimate");

        let (full, mut intervals) = simulate_marker_sliced(bin, &input, &config, boundaries);
        intervals.resize(n.max(intervals.len()), IntervalSim::default());
        let interval_cpis: Vec<f64> = intervals.iter().map(IntervalSim::cpi).collect();
        let estimated = weighted_cpi_with(points, weights, &interval_cpis);

        assert_eq!(
            sliced.true_cpi.to_bits(),
            full.cpi().to_bits(),
            "{label}: true CPI"
        );
        assert_eq!(
            sliced.instructions, full.instructions,
            "{label}: instructions"
        );
        assert_eq!(
            sliced.estimated_cpi.to_bits(),
            estimated.to_bits(),
            "{label}: estimated CPI"
        );
        for p in points {
            assert_eq!(
                sliced.interval_cpis[p.interval].to_bits(),
                interval_cpis[p.interval].to_bits(),
                "{label}: CPI of selected interval {}",
                p.interval
            );
        }
    }
}
