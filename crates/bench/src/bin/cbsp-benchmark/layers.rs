//! The traced run: where a workload's time goes, layer by layer.
//!
//! One set-up, then the workload twice with half the budget each —
//! untraced, then with `cbsp-trace` collecting — then direct probes of
//! each layer on the workload's own inputs (its first
//! [`PROBE_BENCHMARKS`] benchmarks at its finest interval). Every call
//! the benchmark makes into a layer sits in a `bench/<layer>/<fn>` span;
//! no instrumentation is added inside the program.
//!
//! Writes `<out>/<workload>.trace.json` (Chrome trace events) and
//! `<out>/<workload>.layers.json` (per span name: count, total and self
//! milliseconds, self = the span minus its child spans on its thread).
//! The two runs must produce the same results, or the run fails: tracing
//! observes, it must not change anything.

use crate::batch::{config, suite_names, SUITE_INTERVAL};
use crate::serve::{self, Method, ServeLayer};
use crate::stats::{median, ratio};
use crate::{input, Metric, Plan, Report, Workload, FINE_INTERVAL, HOT_BENCHMARKS, THREADS};
use cbsp_core::{
    map_stage, mappable_stage, profile_stage_all, simpoint_stage, vli_stage, MappableStage,
};
use cbsp_par::Pool;
use cbsp_program::{
    compile, run, workloads, Binary, BlockId, CompileTarget, NullSink, Scale, TraceSink,
};
use cbsp_sim::{
    record_trace, replay, replay_full, replay_slice, EventTrace, Gshare, Hierarchy, MemoryConfig,
};
use cbsp_store::{pipeline_keys, ArtifactStore, CachePolicy, Orchestrator, TraceCache};
use cbsp_trace::{span_labeled, Snapshot};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Benchmarks the layer probes run on.
const PROBE_BENCHMARKS: usize = 3;

/// Length of the serve probe `suite-train` runs (it has no daemon of its
/// own).
const PROBE_SERVE_SECONDS: f64 = 4.0;

/// A sink that feeds only the cache hierarchy.
struct HierarchySink {
    hierarchy: Hierarchy,
    accesses: u64,
}

impl TraceSink for HierarchySink {
    fn on_block(&mut self, _: BlockId, _: u64) {}

    fn on_access(&mut self, addr: u64, is_write: bool) {
        self.accesses += 1;
        std::hint::black_box(self.hierarchy.access(addr, is_write));
    }
}

/// A sink that feeds only the branch predictor.
struct GshareSink {
    gshare: Gshare,
}

impl TraceSink for GshareSink {
    fn on_block(&mut self, _: BlockId, _: u64) {}

    fn on_branch(&mut self, branch: u64, taken: bool) {
        std::hint::black_box(self.gshare.resolve(branch, taken));
    }
}

/// Seconds `f` takes inside a `bench/<layer>/<fn>` span labelled with
/// the benchmark.
fn timed<T>(name: &'static str, label: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = span_labeled(name, || label.to_string());
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn counter(s: &Snapshot, name: &str) -> f64 {
    s.counters.get(name).copied().unwrap_or(0) as f64
}

fn span_ns(s: &Snapshot, name: &str) -> f64 {
    s.spans.get(name).map_or(0.0, |t| t.total_ns as f64)
}

/// The probes' accumulated work and time, summed over benchmarks.
#[derive(Default)]
struct Probe {
    instrs: f64,
    interpret_s: f64,
    events: f64,
    record_s: f64,
    decode_s: f64,
    replay_s: f64,
    accesses: f64,
    hierarchy_s: f64,
    branches: f64,
    gshare_s: f64,
    slice_us: Vec<f64>,
    profile_s: f64,
    mappable_s: f64,
    vli_s: f64,
    simpoint_s: f64,
    map_s: f64,
    kmeans_iters: f64,
    cold_run_s: f64,
    warm_run_s: f64,
    write_bytes: f64,
    write_ns: f64,
    read_bytes: f64,
    read_s: f64,
    prepare_s: f64,
    benchmarks: usize,
}

/// Runs every layer probe on one benchmark.
fn probe_benchmark(
    p: &mut Probe,
    name: &str,
    scale: Scale,
    interval: u64,
    store: &ArtifactStore,
) -> Result<(), String> {
    let input = input(scale);
    let mem = MemoryConfig::table1();
    let config = config(interval);
    let pool = Pool::new(THREADS);
    let workload = workloads::by_name(name).ok_or(format!("unknown benchmark {name}"))?;

    // What the daemon does on its connection thread before admitting
    // a request.
    let ((binaries, keys), s) = timed("bench/serve/prepare", name, || {
        let program = workload.build(scale);
        let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&program, t))
            .collect();
        let keys = pipeline_keys(&binaries.iter().collect::<Vec<_>>(), &input, &config);
        (binaries, keys)
    });
    keys.map_err(|e| format!("{name}: {e}"))?;
    p.prepare_s += s;
    let refs: Vec<&Binary> = binaries.iter().collect();

    for bin in &binaries {
        let (summary, s) = timed("bench/program/run", name, || {
            run(bin, &input, &mut NullSink)
        });
        p.instrs += summary.instructions as f64;
        p.interpret_s += s;
    }
    let mut traces: Vec<EventTrace> = Vec::new();
    for bin in &binaries {
        let (trace, s) = timed("bench/sim/record_trace", name, || record_trace(bin, &input));
        p.record_s += s;
        p.events += trace.events as f64;
        traces.push(trace);
    }
    for trace in &traces {
        let (decoded, s) = timed("bench/sim/replay", name, || replay(trace, &mut NullSink));
        decoded.map_err(|e| format!("{name}: {e}"))?;
        p.decode_s += s;
        let (stats, s) = timed("bench/sim/replay_full", name, || replay_full(trace, &mem));
        stats.map_err(|e| format!("{name}: {e}"))?;
        p.replay_s += s;
        let mut sink = HierarchySink {
            hierarchy: Hierarchy::new(&mem),
            accesses: 0,
        };
        let (decoded, s) = timed("bench/sim/hierarchy_access", name, || {
            replay(trace, &mut sink)
        });
        decoded.map_err(|e| format!("{name}: {e}"))?;
        p.hierarchy_s += s;
        p.accesses += sink.accesses as f64;
        let mut sink = GshareSink {
            gshare: Gshare::new(&mem.branch.unwrap_or_default()),
        };
        let (decoded, s) = timed("bench/sim/gshare_resolve", name, || {
            replay(trace, &mut sink)
        });
        decoded.map_err(|e| format!("{name}: {e}"))?;
        p.gshare_s += s;
        p.branches += sink.gshare.branches() as f64;
    }
    drop(traces);

    // The pipeline's stages called directly, then through the store.
    let (profiles, s) = timed("bench/core/profile_stage_all", name, || {
        profile_stage_all(&refs, &input, &pool)
    });
    p.profile_s += s;
    let (MappableStage { set, .. }, s) = timed("bench/core/mappable_stage", name, || {
        mappable_stage(&refs, &profiles)
    });
    p.mappable_s += s;
    let (vli, s) = timed("bench/core/vli_stage", name, || {
        vli_stage(&refs, &input, &config, &set, &profiles)
    });
    p.vli_s += s;
    let before = cbsp_trace::snapshot();
    let (simpoint, s) = timed("bench/simpoint/simpoint_stage", name, || {
        simpoint_stage(&vli, &config.simpoint, &config.estimator)
    });
    let after = cbsp_trace::snapshot();
    p.simpoint_s += s;
    p.kmeans_iters += counter(&after, "simpoint/kmeans_iterations")
        - counter(&before, "simpoint/kmeans_iterations");
    let (mapped, s) = timed("bench/core/map_stage", name, || {
        map_stage(&refs, &input, config.primary, &set, &vli, &simpoint, &pool)
    });
    mapped.map_err(|e| format!("{name}: {e}"))?;
    p.map_s += s;

    let orchestrator = Orchestrator::new(store, CachePolicy::ReadWrite);
    let (cold, s) = timed("bench/store/run_cross_binary", name, || {
        orchestrator.run_cross_binary(&refs, &input, &config, name)
    });
    let (cross, _) = cold.map_err(|e| format!("{name}: {e}"))?;
    p.cold_run_s += s;
    let (warm, s) = timed("bench/store/run_cross_binary", name, || {
        orchestrator.run_cross_binary(&refs, &input, &config, name)
    });
    let (_, report) = warm.map_err(|e| format!("{name}: {e}"))?;
    if report.misses() > 0 {
        return Err(format!(
            "{name}: a warm run recomputed {} stages",
            report.misses()
        ));
    }
    p.warm_run_s += s;

    // Trace blobs: recorded and written by one cache, read back by a
    // fresh one.
    let before = cbsp_trace::snapshot();
    let writer = TraceCache::new(Some(store));
    for bin in &refs {
        timed("bench/store/get_or_record", name, || {
            writer.get_or_record(bin, &input)
        })
        .0
        .map_err(|e| format!("{name}: {e}"))?;
    }
    let after = cbsp_trace::snapshot();
    p.write_bytes +=
        counter(&after, "store/blob_bytes_written") - counter(&before, "store/blob_bytes_written");
    p.write_ns += span_ns(&after, "store/put_blob") - span_ns(&before, "store/put_blob");
    let reader = TraceCache::new(Some(store));
    for bin in &refs {
        let (trace, s) = timed("bench/store/get_or_record", name, || {
            reader.get_or_record(bin, &input)
        });
        p.read_bytes += trace.map_err(|e| format!("{name}: {e}"))?.encoded_len() as f64;
        p.read_s += s;
    }

    // Per-simpoint slices, as `estimate.cpi` replays them.
    let selected: Vec<usize> = cross.simpoint.points.iter().map(|pt| pt.interval).collect();
    for (b, bin) in refs.iter().enumerate() {
        let sliced = reader
            .get_slices(bin, &input, &mem, &cross.boundaries[b], &selected)
            .map_err(|e| format!("{name}: {e}"))?;
        for slice in &sliced.slices {
            let (sim, s) = timed("bench/sim/replay_slice", name, || replay_slice(slice, &mem));
            sim.map_err(|e| format!("{name}: {e}"))?;
            p.slice_us.push(s * 1e6);
        }
    }
    p.benchmarks += 1;
    Ok(())
}

/// The benchmarks, interval and scale a workload's probes run on.
fn probe_inputs(w: Workload, plan: &Plan) -> (Vec<&'static str>, u64, Scale) {
    let (names, interval, scale) = match w {
        Workload::SuiteTrain => (suite_names(plan), SUITE_INTERVAL, plan.scale),
        Workload::ServeHot => (
            plan.take(HOT_BENCHMARKS.to_vec()),
            FINE_INTERVAL,
            plan.scale,
        ),
    };
    (
        names.into_iter().take(PROBE_BENCHMARKS).collect(),
        interval,
        scale,
    )
}

/// One row of `<workload>.layers.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub name: String,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

fn num(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::UInt(n) => Some(*n as f64),
        _ => None,
    }
}

/// Per span name: occurrences, total and self time, from a Chrome
/// trace. A span's self time is its duration minus that of the spans
/// directly nested in it on the same thread. Sorted by self time,
/// largest first.
pub fn span_table(chrome: &str) -> Result<Vec<SpanRow>, String> {
    let doc = serde_json::parse(chrome).map_err(|e| format!("trace json: {e}"))?;
    let get = |v: &'_ Value, k: &str| {
        v.as_object()
            .and_then(|o| o.iter().find(|(key, _)| key == k))
            .map(|(_, v)| v.clone())
    };
    let Some(Value::Array(events)) = get(&doc, "traceEvents") else {
        return Err("trace json has no traceEvents".to_string());
    };
    // (tid, start µs, duration µs, name)
    let mut spans: Vec<(u64, f64, f64, String)> = events
        .iter()
        .filter(|e| get(e, "ph") == Some(Value::Str("X".to_string())))
        .filter_map(|e| {
            let name = match get(e, "name")? {
                Value::Str(s) => s,
                _ => return None,
            };
            Some((
                num(get(e, "tid").as_ref())? as u64,
                num(get(e, "ts").as_ref())?,
                num(get(e, "dur").as_ref())?,
                name,
            ))
        })
        .collect();
    spans.sort_by(|a, b| {
        (a.0, a.1, -a.2)
            .partial_cmp(&(b.0, b.1, -b.2))
            .expect("finite times")
    });
    let mut child_us = vec![0.0; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (tid, ts, _, _) = spans[i];
        while let Some(&top) = stack.last() {
            let (t, start, dur, _) = spans[top];
            if t == tid && ts < start + dur {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            child_us[parent] += spans[i].2;
        }
        stack.push(i);
    }
    let mut rows: BTreeMap<&str, SpanRow> = BTreeMap::new();
    for (i, (_, _, dur, name)) in spans.iter().enumerate() {
        let row = rows.entry(name).or_insert_with(|| SpanRow {
            name: name.clone(),
            count: 0,
            total_ms: 0.0,
            self_ms: 0.0,
        });
        row.count += 1;
        row.total_ms += dur / 1e3;
        row.self_ms += (dur - child_us[i]).max(0.0) / 1e3;
    }
    let mut rows: Vec<SpanRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ms.partial_cmp(&a.self_ms).expect("finite times"));
    Ok(rows)
}

fn write_outputs(w: Workload, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let chrome = cbsp_trace::chrome_trace_json();
    let rows: Vec<Value> = span_table(&chrome)?
        .into_iter()
        .map(|r| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(r.name)),
                ("count".to_string(), Value::UInt(r.count)),
                ("total_ms".to_string(), Value::Float(r.total_ms)),
                ("self_ms".to_string(), Value::Float(r.self_ms)),
            ])
        })
        .collect();
    let layers = Value::Object(vec![
        ("workload".to_string(), Value::Str(w.name().to_string())),
        ("spans".to_string(), Value::Array(rows)),
    ]);
    let write = |file: String, text: String| {
        let path = out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))
    };
    write(format!("{}.trace.json", w.name()), chrome)?;
    write(
        format!("{}.layers.json", w.name()),
        serde_json::to_string(&layers).expect("layer table serializes"),
    )
}

/// What the traced workload run itself recorded, before any probe.
struct During {
    counters: Snapshot,
    spans: Vec<SpanRow>,
    wall_ns: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
fn layer_metrics(p: &Probe, during: &During, layer: &ServeLayer, overhead_pct: f64) -> Vec<Metric> {
    let per_bench_ms = |s: f64| s * 1e3 / p.benchmarks as f64;
    // Simulator replay: every `sim/` span's own time but interpretation
    // (`sim/record`), so nested spans count once.
    let replay_ns = during
        .spans
        .iter()
        .filter(|r| r.name.starts_with("sim/") && r.name != "sim/record")
        .fold(0.0, |acc, r| acc + r.self_ms * 1e6);
    let wall_ns = during.wall_ns;
    let during = &during.counters;
    let (run_p50, run_tail) = serve::method_latency(layer, Method::PipelineRun);
    let (est_p50, est_tail) = serve::method_latency(layer, Method::EstimateCpi);
    let (get_p50, get_tail) = serve::method_latency(layer, Method::SimpointsGet);
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m(
            "program.interpret_minstr_s",
            p.instrs / p.interpret_s / 1e6,
            "Minstr/s",
        ),
        m(
            "sim.record_mevents_s",
            p.events / p.record_s / 1e6,
            "Mevents/s",
        ),
        m(
            "sim.decode_mevents_s",
            p.events / p.decode_s / 1e6,
            "Mevents/s",
        ),
        m(
            "sim.replay_mevents_s",
            p.events / p.replay_s / 1e6,
            "Mevents/s",
        ),
        // The hierarchy and predictor rates exclude the decode they
        // ride on, but never drop below 1% of their own time.
        m(
            "sim.hierarchy_maccesses_s",
            p.accesses / (p.hierarchy_s - p.decode_s).max(p.hierarchy_s / 100.0) / 1e6,
            "Maccesses/s",
        ),
        m(
            "sim.gshare_mlookups_s",
            p.branches / (p.gshare_s - p.decode_s).max(p.gshare_s / 100.0) / 1e6,
            "Mlookups/s",
        ),
        m(
            "sim.replay_share",
            ratio(replay_ns, THREADS as f64 * wall_ns),
            "ratio",
        ),
        m("sim.slice_replay_us", median(&p.slice_us), "us"),
        m("core.profile_ms", per_bench_ms(p.profile_s), "ms"),
        m("core.mappable_ms", per_bench_ms(p.mappable_s), "ms"),
        m("core.vli_ms", per_bench_ms(p.vli_s), "ms"),
        m("core.map_ms", per_bench_ms(p.map_s), "ms"),
        m("simpoint.analyze_ms", per_bench_ms(p.simpoint_s), "ms"),
        m(
            "simpoint.kmeans_iters_s",
            p.kmeans_iters / p.simpoint_s,
            "1/s",
        ),
        m(
            "store.blob_read_mb_s",
            p.read_bytes / p.read_s / 1e6,
            "MB/s",
        ),
        m(
            "store.blob_write_mb_s",
            p.write_bytes / (p.write_ns / 1e9) / 1e6,
            "MB/s",
        ),
        m(
            "store.stage_hit_ratio",
            ratio(
                counter(during, "store/hits"),
                counter(during, "store/hits") + counter(during, "store/misses"),
            ),
            "ratio",
        ),
        m("store.warm_run_ms", per_bench_ms(p.warm_run_s), "ms"),
        m(
            "store.cold_overhead_ms",
            per_bench_ms(
                p.cold_run_s - (p.profile_s + p.mappable_s + p.vli_s + p.simpoint_s + p.map_s),
            ),
            "ms",
        ),
        m("store.repairs", counter(during, "store/repairs"), "count"),
        m(
            "par.queue_wait_ms",
            counter(during, "pool/queue_wait_ns") / 1e6,
            "ms",
        ),
        m(
            "par.busy_frac",
            ratio(counter(during, "pool/exec_ns"), THREADS as f64 * wall_ns),
            "ratio",
        ),
        m(
            "par.inline_job_frac",
            ratio(
                counter(during, "pool/jobs_inline"),
                counter(during, "pool/jobs_inline") + counter(during, "pool/jobs_executed"),
            ),
            "ratio",
        ),
        m("serve.prepare_ms", per_bench_ms(p.prepare_s), "ms"),
        m("serve.pipeline_run_p50_ms", run_p50, "ms"),
        m("serve.pipeline_run_tail_ms", run_tail, "ms"),
        m("serve.estimate_cpi_p50_ms", est_p50, "ms"),
        m("serve.estimate_cpi_tail_ms", est_tail, "ms"),
        m("serve.simpoints_get_p50_ms", get_p50, "ms"),
        m("serve.simpoints_get_tail_ms", get_tail, "ms"),
        m(
            "serve.cold_request_p50_ms",
            median(&layer.cold_request_ms),
            "ms",
        ),
        m("serve.result_hit_ratio", layer.result_hit_ratio, "ratio"),
        m("serve.queue_wait_ms_mean", layer.queue_wait_ms_mean, "ms"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// The traced run of `w` (see the module docs).
pub fn traced(
    w: Workload,
    plan: &Plan,
    seed: u64,
    dir: &Path,
    out: &Path,
) -> Result<Report, String> {
    let state = w.setup(plan, dir)?;
    let half = plan.halved();
    let untraced = state.measure(&half, seed, dir)?;

    cbsp_trace::reset();
    cbsp_trace::enable();
    let t = Instant::now();
    let traced = timed("bench/workload/measure", w.name(), || {
        state.measure(&half, seed, dir)
    })
    .0?;
    let during = During {
        wall_ns: t.elapsed().as_nanos() as f64,
        counters: cbsp_trace::snapshot(),
        spans: span_table(&cbsp_trace::chrome_trace_json())?,
    };
    drop(state);

    let (names, interval, scale) = probe_inputs(w, plan);
    let mut probe = Probe::default();
    let store_dir = dir.join("probe-store");
    let store = ArtifactStore::open(&store_dir).map_err(|e| format!("opening probe store: {e}"))?;
    for name in &names {
        probe_benchmark(&mut probe, name, scale, interval, &store)?;
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    // `suite-train` starts no daemon: probe the serve layer with a small
    // one over its probe benchmarks.
    let mut probe_attempted = 0;
    let mut probe_failed = 0;
    let layer = match &traced.serve {
        Some(layer) => layer.clone(),
        None => {
            let probe_plan = Plan {
                seconds: PROBE_SERVE_SECONDS,
                reps: 1,
                ..plan.clone()
            };
            let shape = serve::Shape {
                scale,
                benchmarks: names.clone(),
                intervals: vec![interval],
            };
            let serving = serve::setup(&shape, &dir.join("probe-serve"))?;
            let run = serve::measure(&serving, &probe_plan, seed)?;
            probe_attempted = run.attempted;
            probe_failed = run.failed;
            run.serve.expect("serve runs observe the daemon")
        }
    };
    cbsp_trace::disable();
    write_outputs(w, out)?;

    let overhead_pct = (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0;
    let pure = traced.results == untraced.results;
    let mut notes = traced.notes.clone();
    notes.push(format!(
        "traced and untraced runs produced {} results",
        if pure { "the same" } else { "DIFFERENT" }
    ));
    notes.push(format!(
        "layer probes on {} at interval {interval}",
        names.join(", ")
    ));
    notes.push(format!(
        "wrote {}/{}.{{trace,layers}}.json",
        out.display(),
        w.name()
    ));
    let failed =
        untraced.failed + traced.failed + probe_failed + if pure { 0 } else { traced.attempted };
    Ok(Report {
        attempted: untraced.attempted + traced.attempted + probe_attempted,
        failed,
        correct: failed == 0,
        metrics: layer_metrics(&probe, &during, &layer, overhead_pct),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_spans_on_the_same_thread() {
        // Thread 1: outer [0, 100) holds a [10, 40) and b [50, 60);
        // a holds c [20, 30). Thread 2: d [5, 95) overlaps outer in
        // time but is not its child.
        let chrome = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":1,"tid":0},
            {"name":"outer","ph":"X","pid":1,"tid":1,"ts":0.0,"dur":100.0},
            {"name":"a","ph":"X","pid":1,"tid":1,"ts":10.0,"dur":30.0},
            {"name":"c","ph":"X","pid":1,"tid":1,"ts":20.0,"dur":10.0},
            {"name":"b","ph":"X","pid":1,"tid":1,"ts":50.0,"dur":10.0},
            {"name":"d","ph":"X","pid":1,"tid":2,"ts":5.0,"dur":90.0},
            {"name":"b","ph":"X","pid":1,"tid":2,"ts":96.0,"dur":2.0}
        ]}"#;
        let rows = span_table(chrome).expect("parses");
        let row = |n: &str| rows.iter().find(|r| r.name == n).expect("row").clone();
        let us = |ms: f64| (ms * 1e3).round();
        assert_eq!(us(row("outer").self_ms), 60.0);
        assert_eq!(us(row("a").self_ms), 20.0);
        assert_eq!(us(row("c").self_ms), 10.0);
        assert_eq!(us(row("d").self_ms), 90.0);
        let b = row("b");
        assert_eq!((b.count, us(b.total_ms), us(b.self_ms)), (2, 12.0, 12.0));
        assert_eq!(rows[0].name, "d", "largest self time first");
    }

    /// The traced run of every workload, at Test scale: tracing changes
    /// no result, every per-layer metric is reported, and both output
    /// files are written.
    #[test]
    fn traced_runs_report_every_layer_metric_at_test_scale() {
        let _guard = cbsp_trace::test_lock();
        let plan = Plan::smoke();
        for w in Workload::ALL {
            let dir = std::env::temp_dir().join(format!(
                "cbsp-benchmark-traced-{}-{}",
                std::process::id(),
                w.name()
            ));
            let out = dir.join("out");
            let report = traced(w, &plan, 11, &dir.join("work"), &out);
            let files =
                ["trace", "layers"].map(|kind| out.join(format!("{}.{kind}.json", w.name())));
            let written = files.iter().all(|f| f.is_file());
            let _ = std::fs::remove_dir_all(&dir);
            let report = report.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(
                report.correct && report.failed == 0,
                "{}: {report:?}",
                w.name()
            );
            assert!(written, "{}: trace files missing", w.name());
            assert_eq!(report.metrics.len(), 34, "{}", w.name());
            assert!(
                report.metrics.iter().all(|m| m.value.is_finite()),
                "{}: {report:?}",
                w.name()
            );
        }
    }
}
