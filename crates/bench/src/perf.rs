//! Performance baseline: per-stage wall time of the cross-binary
//! pipeline at 1 thread vs N threads (the `perf` artifact,
//! `BENCH_simpoint.json`).
//!
//! Runs the pipeline stage by stage — compile, profile, mappable, VLI,
//! SimPoint clustering, boundary mapping, detailed simulation, sliced
//! CPI estimation — once serially and once on a pool, timing each
//! stage, and checks that the two runs produce identical results (the
//! engine's determinism guarantee, measured rather than assumed). The
//! `estimate` stage doubles as the sliced-trace cold/warm lane: the
//! serial run materializes each binary's slice manifest, the parallel
//! run answers from cached slices alone.

use cbsp_core::{
    map_stage, mappable_stage, profile_stage_all, simpoint_stage, vli_stage, CbspConfig,
    MappableStage, MappedSlicing,
};
use cbsp_par::Pool;
use cbsp_program::{
    compile, compile_cost_estimate_ns, workloads, Binary, CompileTarget, Input, Scale,
};
use cbsp_sim::{replay_marker_sliced, MemoryConfig};
use cbsp_simpoint::{SimPointConfig, SimPointResult};
use cbsp_store::{ArtifactStore, CpiEstimate, TraceCache};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Wall time of one pipeline stage at both thread counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTime {
    /// Stage name.
    pub stage: String,
    /// Milliseconds with one thread.
    pub serial_ms: f64,
    /// Milliseconds with the full pool.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// The full perf baseline (serialized to `BENCH_simpoint.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Benchmark measured.
    pub benchmark: String,
    /// Scale the run used.
    pub scale: String,
    /// Interval-size target in instructions.
    pub interval_target: u64,
    /// Threads in the parallel configuration.
    pub threads: usize,
    /// Per-stage times, in pipeline order.
    pub stages: Vec<StageTime>,
    /// End-to-end serial milliseconds.
    pub total_serial_ms: f64,
    /// End-to-end parallel milliseconds.
    pub total_parallel_ms: f64,
    /// End-to-end speedup.
    pub total_speedup: f64,
    /// `true` — the serial and parallel runs produced identical
    /// clusterings and weights (checked, not assumed).
    pub results_identical: bool,
    /// Counter snapshot from the parallel run (`cbsp-trace`): pool
    /// queue-wait/exec nanoseconds, k-means iterations, Hamerly bound
    /// skips, intervals produced, … — the *why* behind the timings.
    pub metrics: BTreeMap<String, u64>,
    /// Warm-daemon vs cold-pipeline lane, merged in by
    /// `cbsp-serve-bench` (absent until that load generator has run;
    /// [`compare`] ignores it, so the perf gate is unaffected).
    pub serve: Option<crate::serve_lane::ServeLane>,
    /// Warm-capacity scaling across 1/2/4 cluster workers, merged in
    /// by `cbsp-cluster-bench` (absent until that load generator has
    /// run; [`compare`] ignores it, so the perf gate is unaffected).
    pub cluster: Option<crate::cluster_lane::ClusterLane>,
}

struct MeasuredRun {
    times: Vec<(&'static str, f64)>,
    simpoint: SimPointResult,
    weights: Vec<Vec<f64>>,
    estimates: Vec<CpiEstimate>,
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn measure(
    name: &str,
    scale: Scale,
    interval_target: u64,
    threads: usize,
    mem: &MemoryConfig,
    traces: &TraceCache<'_>,
) -> MeasuredRun {
    let workload = workloads::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let prog = workload.build(scale);
    let input = match scale {
        Scale::Test => Input::test(),
        Scale::Train => Input::train(),
        Scale::Reference => Input::reference(),
    };
    let pool = Pool::new(threads);
    let config = CbspConfig {
        interval_target,
        simpoint: SimPointConfig {
            threads,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    let mut times = Vec::new();

    let t = Instant::now();
    let binaries: Vec<Binary> = {
        let _span = cbsp_trace::span_labeled("stage/compile", || name.to_string());
        let est = compile_cost_estimate_ns(&prog) * CompileTarget::ALL_FOUR.len() as u64;
        pool.for_work(est)
            .run_indexed(CompileTarget::ALL_FOUR.len(), |i| {
                compile(&prog, CompileTarget::ALL_FOUR[i])
            })
    };
    times.push(("compile", ms(t)));
    let bin_refs: Vec<&Binary> = binaries.iter().collect();

    let t = Instant::now();
    let profiles = profile_stage_all(&bin_refs, &input, &pool);
    times.push(("profile", ms(t)));

    let t = Instant::now();
    let MappableStage { set: mappable, .. } = mappable_stage(&bin_refs, &profiles);
    times.push(("mappable", ms(t)));

    let t = Instant::now();
    let vli = vli_stage(&bin_refs, &input, &config, &mappable, &profiles);
    times.push(("vli", ms(t)));

    let t = Instant::now();
    let simpoint = simpoint_stage(&vli, &config.simpoint, &config.estimator);
    times.push(("simpoint", ms(t)));

    let t = Instant::now();
    let MappedSlicing {
        boundaries,
        weights,
        ..
    } = map_stage(
        &bin_refs,
        &input,
        config.primary,
        &mappable,
        &vli,
        &simpoint,
        &pool,
    )
    .expect("same-program binaries map cleanly");
    times.push(("map", ms(t)));

    let t = Instant::now();
    let event_traces = traces
        .get_or_record_all(&bin_refs, &input, &pool)
        .expect("trace cache records and serves the event traces");
    let sims = pool.run_indexed(binaries.len(), |b| {
        replay_marker_sliced(&event_traces[b], mem, &boundaries[b]).expect("recorded trace decodes")
    });
    times.push(("detailed_sim", ms(t)));
    drop(sims);

    // CPI estimation from per-simpoint trace slices: the serial (first)
    // run materializes the slice manifests — one cutting replay per
    // binary — and the parallel run replays only the cached slices, so
    // this stage measures the sliced-trace warm path against its own
    // cold materialization.
    let t = Instant::now();
    let estimates = {
        let _span = cbsp_trace::span_labeled("stage/estimate", || name.to_string());
        pool.run_indexed(binaries.len(), |b| {
            traces
                .estimate_cpi_sliced(
                    &binaries[b],
                    &input,
                    mem,
                    &boundaries[b],
                    &simpoint.points,
                    Some(&weights[b]),
                    boundaries[b].len() + 1,
                )
                .expect("trace cache serves the sliced estimate")
        })
    };
    times.push(("estimate", ms(t)));

    MeasuredRun {
        times,
        simpoint,
        weights,
        estimates,
    }
}

/// Measures the pipeline at 1 thread and at `threads`, returning the
/// per-stage comparison.
///
/// # Panics
///
/// Panics if `name` is not in the workload suite.
pub fn run_perf(
    name: &str,
    scale: Scale,
    interval_target: u64,
    threads: usize,
    mem: &MemoryConfig,
) -> PerfReport {
    let threads = threads.max(2);
    // One on-disk artifact store spans both runs, but each run gets its
    // own trace cache (empty memory tier): the serial run pays the
    // interpret+record cost once and persists blob-tier traces and
    // slice manifests; the parallel run answers from the blob tier
    // alone — exactly how a fresh experiment process re-simulates, so
    // the detailed_sim and estimate rows measure the blob read path
    // (including the slice-prefetch fan-out) rather than a same-process
    // memory hit.
    static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
    let store_dir = std::env::temp_dir().join(format!(
        "cbsp-perf-store-{}-{}",
        std::process::id(),
        STORE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let store = ArtifactStore::open(&store_dir).expect("perf baseline store opens in temp dir");
    let serial = {
        let traces = TraceCache::new(Some(&store));
        measure(name, scale, interval_target, 1, mem, &traces)
    };

    // Trace only the parallel run, so the embedded counters explain the
    // numbers the gate actually guards (queue wait, bound skips, cache
    // traffic at N threads). Restore the collector state afterwards.
    let was_enabled = cbsp_trace::enabled();
    cbsp_trace::reset();
    cbsp_trace::enable();
    let parallel = {
        let traces = TraceCache::new(Some(&store));
        measure(name, scale, interval_target, threads, mem, &traces)
    };
    let mut metrics = cbsp_trace::snapshot().counters;
    if !was_enabled {
        cbsp_trace::disable();
    }
    cbsp_trace::reset();
    let _ = std::fs::remove_dir_all(&store_dir);

    // The store-tier counters are part of the report schema even when
    // zero (prefetch gated serial), so downstream tooling can always
    // read them.
    for key in ["store/blob_reads", "store/prefetch_fanouts"] {
        metrics.entry(key.to_string()).or_insert(0);
    }

    let stages: Vec<StageTime> = serial
        .times
        .iter()
        .zip(&parallel.times)
        .map(|(&(stage, s_ms), &(_, p_ms))| StageTime {
            stage: stage.to_string(),
            serial_ms: s_ms,
            parallel_ms: p_ms,
            speedup: if p_ms > 0.0 { s_ms / p_ms } else { 1.0 },
        })
        .collect();
    let total_serial_ms: f64 = stages.iter().map(|s| s.serial_ms).sum();
    let total_parallel_ms: f64 = stages.iter().map(|s| s.parallel_ms).sum();
    PerfReport {
        benchmark: name.to_string(),
        scale: format!("{scale:?}"),
        interval_target,
        threads,
        stages,
        total_serial_ms,
        total_parallel_ms,
        total_speedup: if total_parallel_ms > 0.0 {
            total_serial_ms / total_parallel_ms
        } else {
            1.0
        },
        results_identical: serial.simpoint == parallel.simpoint
            && serial.weights == parallel.weights
            && serial.estimates == parallel.estimates,
        metrics,
        serve: None,
        cluster: None,
    }
}

/// One stage of a baseline-vs-current comparison ([`compare`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareRow {
    /// Stage name (or `"total"`).
    pub stage: String,
    /// Baseline parallel milliseconds.
    pub base_ms: f64,
    /// Current parallel milliseconds.
    pub cur_ms: f64,
    /// `cur_ms / base_ms` (1.0 when the baseline is zero).
    pub ratio: f64,
    /// `true` when the stage slowed down beyond tolerance *and* is big
    /// enough to matter (see [`compare`]).
    pub regressed: bool,
    /// `true` when the baseline stage ran gated-serial — its speedup is
    /// below [`GATED_SERIAL_MAX_SPEEDUP`], meaning `Pool::for_work`
    /// (or the stage's own structure) deliberately kept it on one
    /// thread. Gated rows are judged against the *slower* of the
    /// baseline's serial/parallel times, so scheduling jitter between
    /// "inlined" and "dispatched once" does not fail the gate.
    pub gated: bool,
}

/// Stages faster than this (in both baseline and current) are reported
/// but never fail the gate: timer noise on sub-5 ms stages dwarfs any
/// real regression, and CI runners are noisy.
pub const COMPARE_MIN_MS: f64 = 5.0;

/// Baseline speedup below which a stage counts as gated-serial: the
/// pool decided (via `Pool::for_work`'s cost estimate, or because the
/// stage is memory-bandwidth-bound) that fan-out would not pay, so its
/// parallel time *is* its serial time plus noise. `profile` and `vli`
/// sit here at Reference scale by design — see DESIGN.md, "Stages that
/// stay near 1× on purpose".
pub const GATED_SERIAL_MAX_SPEEDUP: f64 = 1.05;

/// Result of comparing a current perf run against a committed baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfComparison {
    /// Allowed fractional slowdown (0.25 = current may be 25% slower).
    pub tolerance: f64,
    /// Per-stage rows in baseline order, then a `"total"` row.
    pub rows: Vec<CompareRow>,
    /// Stages present in only one of the two reports (schema drift —
    /// always a failure, a silently dropped stage is not a speedup).
    pub mismatched_stages: Vec<String>,
    /// `false` if the current run lost cross-thread determinism.
    pub results_identical: bool,
}

impl PerfComparison {
    /// `true` when the gate should fail the build.
    pub fn regressed(&self) -> bool {
        !self.results_identical
            || !self.mismatched_stages.is_empty()
            || self.rows.iter().any(|r| r.regressed)
    }
}

/// Compares the current report's parallel wall times against the
/// committed baseline, flagging any stage (or the total) that got more
/// than `tolerance` slower. Stages under [`COMPARE_MIN_MS`] in both
/// reports are shown but exempt from failing; the total row never is.
///
/// Stages whose baseline speedup is below [`GATED_SERIAL_MAX_SPEEDUP`]
/// ran gated-serial in the baseline; for those the regression limit is
/// `(1 + tolerance) × max(baseline serial, baseline parallel)` rather
/// than the parallel time alone, because which of the two essentially
/// equal times the scheduler lands on is noise, not signal.
pub fn compare(baseline: &PerfReport, current: &PerfReport, tolerance: f64) -> PerfComparison {
    let row =
        |stage: &str, base_ms: f64, limit_ms: f64, cur_ms: f64, exemptable: bool, gated: bool| {
            let ratio = if base_ms > 0.0 { cur_ms / base_ms } else { 1.0 };
            let too_small = exemptable && base_ms < COMPARE_MIN_MS && cur_ms < COMPARE_MIN_MS;
            CompareRow {
                stage: stage.to_string(),
                base_ms,
                cur_ms,
                ratio,
                regressed: cur_ms > limit_ms * (1.0 + tolerance) && !too_small,
                gated,
            }
        };

    let mut rows = Vec::new();
    let mut mismatched = Vec::new();
    let cur_stage = |name: &str| current.stages.iter().find(|s| s.stage == name);
    for b in &baseline.stages {
        match cur_stage(&b.stage) {
            Some(c) => {
                let gated = b.speedup < GATED_SERIAL_MAX_SPEEDUP;
                let limit = if gated {
                    b.parallel_ms.max(b.serial_ms)
                } else {
                    b.parallel_ms
                };
                rows.push(row(
                    &b.stage,
                    b.parallel_ms,
                    limit,
                    c.parallel_ms,
                    true,
                    gated,
                ));
            }
            None => mismatched.push(b.stage.clone()),
        }
    }
    for c in &current.stages {
        if !baseline.stages.iter().any(|b| b.stage == c.stage) {
            mismatched.push(c.stage.clone());
        }
    }
    rows.push(row(
        "total",
        baseline.total_parallel_ms,
        baseline.total_parallel_ms,
        current.total_parallel_ms,
        false,
        false,
    ));

    PerfComparison {
        tolerance,
        rows,
        mismatched_stages: mismatched,
        results_identical: current.results_identical,
    }
}

/// Renders a comparison as an aligned table with a PASS/FAIL verdict.
pub fn render_compare(c: &PerfComparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Perf gate — parallel wall time vs committed baseline (tolerance {:.0}%)\n",
        c.tolerance * 100.0
    ));
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>8}  {}\n",
        "stage", "baseline ms", "current ms", "ratio", "verdict"
    ));
    for r in &c.rows {
        let verdict = if r.regressed {
            "REGRESSED"
        } else if r.gated {
            "ok (gated-serial)"
        } else if r.ratio > 1.0 + c.tolerance {
            "ok (below min size)"
        } else {
            "ok"
        };
        out.push_str(&format!(
            "{:<14} {:>12.1} {:>12.1} {:>7.2}x  {}\n",
            r.stage, r.base_ms, r.cur_ms, r.ratio, verdict
        ));
    }
    for s in &c.mismatched_stages {
        out.push_str(&format!("stage {s:?} present in only one report — FAIL\n"));
    }
    if !c.results_identical {
        out.push_str("current run lost cross-thread determinism — FAIL\n");
    }
    out.push_str(if c.regressed() {
        "perf gate: FAIL\n"
    } else {
        "perf gate: PASS\n"
    });
    out
}

/// Renders a perf report as an aligned text table.
pub fn render(r: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Pipeline stage wall time — {} ({} scale, interval {}), 1 vs {} threads\n",
        r.benchmark, r.scale, r.interval_target, r.threads
    ));
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>9}\n",
        "stage", "serial ms", "parallel ms", "speedup"
    ));
    for s in &r.stages {
        out.push_str(&format!(
            "{:<14} {:>12.1} {:>12.1} {:>8.2}x\n",
            s.stage, s.serial_ms, s.parallel_ms, s.speedup
        ));
    }
    out.push_str(&format!(
        "{:<14} {:>12.1} {:>12.1} {:>8.2}x\n",
        "total", r.total_serial_ms, r.total_parallel_ms, r.total_speedup
    ));
    out.push_str(&format!(
        "results identical across thread counts: {}\n",
        r.results_identical
    ));
    let key = |name: &str| r.metrics.get(name).copied().unwrap_or(0);
    if !r.metrics.is_empty() {
        out.push_str(&format!(
            "parallel-run counters: {} fan-outs, {} pool jobs ({} inline), \
             queue wait {:.1} ms, {} k-means iterations, {} bound skips\n",
            key("pool/fan_outs"),
            key("pool/jobs_executed"),
            key("pool/jobs_inline"),
            key("pool/queue_wait_ns") as f64 / 1e6,
            key("simpoint/kmeans_iterations"),
            key("simpoint/hamerly_bound_skips"),
        ));
        out.push_str(&format!(
            "replay engine: {} replays ({} events), trace cache {} hits / {} misses\n",
            key("sim/replays"),
            key("sim/replay_events"),
            key("sim/trace_cache_hits"),
            key("sim/trace_cache_misses"),
        ));
        out.push_str(&format!(
            "sliced estimates: {} slice replays reading {} bytes, \
             {} full replays avoided\n",
            key("sim/slice_replays"),
            key("sim/slice_bytes_read"),
            key("sim/full_replay_avoided"),
        ));
    }
    if let Some(lane) = &r.serve {
        out.push('\n');
        out.push_str(&crate::serve_lane::render(lane));
    }
    if let Some(lane) = &r.cluster {
        out.push('\n');
        out.push_str(&crate::cluster_lane::render(lane));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_is_complete_and_identical() {
        let _guard = cbsp_trace::test_lock();
        let r = run_perf("gzip", Scale::Test, 20_000, 4, &MemoryConfig::table1());
        assert_eq!(r.stages.len(), 8);
        assert!(r.total_serial_ms > 0.0);
        assert!(r.total_parallel_ms > 0.0);
        assert!(
            r.results_identical,
            "serial and parallel runs must produce identical results"
        );
        assert!(
            r.metrics.contains_key("pipeline/intervals_produced"),
            "parallel run must embed trace counters, got {:?}",
            r.metrics.keys().collect::<Vec<_>>()
        );
        assert!(r.metrics.contains_key("simpoint/kmeans_iterations"));
        assert!(
            r.metrics.contains_key("sim/replays"),
            "parallel detailed sim must be replay-driven, got {:?}",
            r.metrics.keys().collect::<Vec<_>>()
        );
        assert!(
            r.metrics.get("sim/trace_cache_hits").copied().unwrap_or(0) >= 4,
            "parallel run must hit the traces recorded by the serial run"
        );
        assert!(
            r.metrics
                .get("sim/full_replay_avoided")
                .copied()
                .unwrap_or(0)
                >= 4,
            "parallel estimates must answer from the slice manifests \
             the serial run materialized, got {:?}",
            r.metrics.keys().collect::<Vec<_>>()
        );
        assert!(
            r.metrics.get("sim/slice_replays").copied().unwrap_or(0) > 0,
            "warm estimates replay slices"
        );
        assert!(r.metrics.contains_key("sim/slice_bytes_read"));
        assert!(
            r.metrics.get("store/blob_reads").copied().unwrap_or(0) >= 4,
            "parallel run must answer from the blob tier the serial run \
             wrote, got {:?}",
            r.metrics.get("store/blob_reads")
        );
        assert!(
            r.metrics.contains_key("store/prefetch_fanouts"),
            "store counters are embedded even at zero"
        );
        let text = render(&r);
        assert!(text.contains("simpoint"));
        assert!(text.contains("detailed_sim"));
        assert!(text.contains("estimate"));
        assert!(text.contains("parallel-run counters"));
        assert!(text.contains("replay engine"));
        assert!(text.contains("sliced estimates"));
        let json = serde_json::to_string(&r).expect("serializes");
        assert!(json.contains("total_speedup"));
        assert!(json.contains("kmeans_iterations"));
        let back: PerfReport = serde_json::from_str(&json).expect("round-trips");
        assert_eq!(back, r);
    }

    fn toy_report(parallel_ms: &[(&str, f64)], identical: bool) -> PerfReport {
        let stages: Vec<StageTime> = parallel_ms
            .iter()
            .map(|&(stage, p)| StageTime {
                stage: stage.to_string(),
                serial_ms: p * 2.0,
                parallel_ms: p,
                speedup: 2.0,
            })
            .collect();
        let total: f64 = stages.iter().map(|s| s.parallel_ms).sum();
        PerfReport {
            benchmark: "gcc".into(),
            scale: "Reference".into(),
            interval_target: 100_000,
            threads: 8,
            stages,
            total_serial_ms: total * 2.0,
            total_parallel_ms: total,
            total_speedup: 2.0,
            results_identical: identical,
            metrics: BTreeMap::new(),
            serve: None,
            cluster: None,
        }
    }

    #[test]
    fn compare_passes_within_tolerance() {
        let base = toy_report(&[("compile", 10.0), ("simpoint", 100.0)], true);
        let cur = toy_report(&[("compile", 11.0), ("simpoint", 120.0)], true);
        let c = compare(&base, &cur, 0.25);
        assert!(!c.regressed(), "{}", render_compare(&c));
        assert!(render_compare(&c).contains("PASS"));
    }

    #[test]
    fn compare_fails_on_regression_beyond_tolerance() {
        let base = toy_report(&[("compile", 10.0), ("simpoint", 100.0)], true);
        let cur = toy_report(&[("compile", 10.0), ("simpoint", 140.0)], true);
        let c = compare(&base, &cur, 0.25);
        assert!(c.regressed());
        let text = render_compare(&c);
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        // The 40% simpoint regression also drags the total past 25%.
        assert!(c.rows.iter().any(|r| r.stage == "total" && r.regressed));
    }

    #[test]
    fn compare_exempts_sub_minimum_stages_but_not_total() {
        // 2 ms -> 4 ms is a 2x "regression" that is pure timer noise.
        let base = toy_report(&[("mappable", 2.0), ("simpoint", 100.0)], true);
        let cur = toy_report(&[("mappable", 4.0), ("simpoint", 100.0)], true);
        let c = compare(&base, &cur, 0.25);
        assert!(
            !c.rows.iter().any(|r| r.stage == "mappable" && r.regressed),
            "sub-{COMPARE_MIN_MS} ms stages must not fail the gate"
        );
        assert!(render_compare(&c).contains("below min size"));
    }

    /// A report whose named stage runs gated-serial: serial and
    /// parallel wall times are essentially equal (speedup ~1×).
    fn gated_report(stage: &str, serial_ms: f64, parallel_ms: f64) -> PerfReport {
        let mut r = toy_report(&[("simpoint", 100.0)], true);
        r.stages.push(StageTime {
            stage: stage.to_string(),
            serial_ms,
            parallel_ms,
            speedup: if parallel_ms > 0.0 {
                serial_ms / parallel_ms
            } else {
                1.0
            },
        });
        r.total_parallel_ms += parallel_ms;
        r.total_serial_ms += serial_ms;
        r
    }

    #[test]
    fn compare_tolerates_gated_serial_stages_up_to_their_serial_time() {
        // Baseline profile ran gated: 44 ms serial, 42 ms parallel
        // (1.05x — which of the two the scheduler lands on is noise).
        // Current lands at 54 ms parallel: 1.29x against the baseline
        // parallel time, but within tolerance of the 44 ms serial
        // limit (44 × 1.25 = 55 ms).
        let base = gated_report("profile", 44.0, 42.0);
        let cur = gated_report("profile", 44.0, 54.0);
        let c = compare(&base, &cur, 0.25);
        let profile = c.rows.iter().find(|r| r.stage == "profile").unwrap();
        assert!(profile.gated, "~1x baseline speedup marks the row gated");
        assert!(profile.ratio > 1.25, "ratio still reports the raw slowdown");
        assert!(
            !profile.regressed,
            "gated rows are judged against max(serial, parallel): {}",
            render_compare(&c)
        );
        assert!(render_compare(&c).contains("gated-serial"));
    }

    #[test]
    fn compare_marks_sub_1x_stages_gated() {
        // profile at Reference scale: 0.8x "speedup" — parallel is the
        // slower of the two, so the limit stays the parallel time and
        // only the gated annotation changes.
        let base = gated_report("profile", 32.0, 40.0);
        let cur = gated_report("profile", 32.0, 40.0);
        let c = compare(&base, &cur, 0.25);
        let profile = c.rows.iter().find(|r| r.stage == "profile").unwrap();
        assert!(profile.gated);
        assert!(!profile.regressed);
        assert!(render_compare(&c).contains("gated-serial"));
    }

    #[test]
    fn compare_still_fails_gated_stages_beyond_the_serial_limit() {
        let base = gated_report("profile", 44.0, 42.0);
        let cur = gated_report("profile", 44.0, 60.0); // > 44 * 1.25
        let c = compare(&base, &cur, 0.25);
        let profile = c.rows.iter().find(|r| r.stage == "profile").unwrap();
        assert!(profile.gated);
        assert!(
            profile.regressed,
            "a real slowdown past the serial limit must still fail: {}",
            render_compare(&c)
        );
    }

    #[test]
    fn compare_does_not_gate_stages_with_real_speedups() {
        let base = toy_report(&[("simpoint", 100.0)], true);
        let cur = toy_report(&[("simpoint", 140.0)], true);
        let c = compare(&base, &cur, 0.25);
        let row = c.rows.iter().find(|r| r.stage == "simpoint").unwrap();
        assert!(!row.gated, "2x baseline speedup is not gated-serial");
        assert!(row.regressed);
    }

    #[test]
    fn compare_fails_on_schema_drift_and_lost_determinism() {
        let base = toy_report(&[("compile", 10.0), ("simpoint", 100.0)], true);
        let cur = toy_report(&[("compile", 10.0)], true);
        let c = compare(&base, &cur, 0.25);
        assert_eq!(c.mismatched_stages, vec!["simpoint".to_string()]);
        assert!(c.regressed());

        let cur = toy_report(&[("compile", 10.0), ("simpoint", 100.0)], false);
        let c = compare(&base, &cur, 0.25);
        assert!(c.regressed());
        assert!(render_compare(&c).contains("determinism"));
    }
}
