//! Request preparation and execution against warm pipeline state.
//!
//! The [`Engine`] owns the process-lifetime state — the
//! content-addressed [`ArtifactStore`] and the memos below — and knows
//! how to turn protocol params into a [`PipelineSpec`] and a request
//! into its result value. Admission policy (single flight, turns,
//! deadlines) lives in [`crate::server`]; nothing here blocks on
//! anything but the pipeline itself.
//!
//! Three memos make the daemon *warm* rather than just resident, and
//! each holds a pure function of its key, so none can go stale:
//!
//! - **Binaries** ([`Prepared`]), per `(benchmark, scale)`: compiling
//!   four binaries and hashing them for their stage keys is most of a
//!   warm request's preparation, so the first request pays it and
//!   every later one derives its keys from the stored digests.
//! - **Runs** ([`CachedRun`]), per map-stage digest — a content hash
//!   over binaries, input, and config, so a hit is exactly a
//!   byte-identical rerun. The store alone still costs a disk read
//!   plus deserialization of every stage artifact per request, while a
//!   cached run answers from RAM with its content hash precomputed.
//! - **Estimates**, per resident run: every input of the replay lease
//!   an `estimate.cpi` reads derives from the run's digest, so its
//!   first answer is kept beside the run and evicted with it.

use crate::protocol::{fault, get, obj, param_str, param_str_or, param_u64_or, ErrorCode, Fault};
use cbsp_core::{mapping_stats, CbspConfig, CbspError, CrossBinaryResult, FuzzyConfig};
use cbsp_par::Pool;
use cbsp_program::workloads::{self, Workload};
use cbsp_program::{compile, Binary, CompileTarget, Input, Scale};
use cbsp_sim::MemoryConfig;
use cbsp_simpoint::{EstimatorConfig, SimPointResult};
use cbsp_store::{
    content_hash, pipeline_keys_from_digests, stage_namespaces, ArtifactStore, CachePolicy,
    CpiEstimate, Digests, Orchestrator, PipelineKeys, RunReport, TraceCache,
};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One benchmark's four binaries at one scale, compiled, with the
/// content digests its stage keys derive from — a pure function of
/// `(benchmark, scale)`, which the engine computes once per daemon.
#[derive(Debug)]
pub(crate) struct Prepared {
    input: Input,
    binaries: Vec<Binary>,
    /// The binaries' and the input's content digests.
    digests: Digests,
}

impl Prepared {
    fn build(workload: &Workload, scale: Scale) -> Prepared {
        let program = workload.build(scale);
        let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&program, t))
            .collect();
        let input = Input::for_scale(scale);
        Prepared {
            digests: Digests::of(&binaries.iter().collect::<Vec<_>>(), &input),
            input,
            binaries,
        }
    }

    /// The binaries as the pipeline's `&[&Binary]`.
    fn refs(&self) -> Vec<&Binary> {
        self.binaries.iter().collect()
    }
}

/// A fully resolved pipeline request: the benchmark's compiled
/// binaries, config fixed, stage keys derived. Everything needed to
/// execute — or to recognize an identical in-flight request by content
/// digest alone.
#[derive(Debug)]
pub(crate) struct PipelineSpec {
    pub benchmark: String,
    pub scale_name: &'static str,
    pub config: CbspConfig,
    pub prepared: Arc<Prepared>,
    pub keys: PipelineKeys,
    /// `pipeline.run` only: embed the full `CrossBinaryResult` in the
    /// response (`"detail": "full"`).
    pub detail_full: bool,
}

/// A finished request: a result value or a typed fault.
pub(crate) type Reply = Result<Value, Fault>;

/// A completed pipeline run pinned in memory, content hash included —
/// the unit the result cache holds and every pipeline-shaped method
/// reads from.
pub(crate) struct CachedRun {
    pub cross: CrossBinaryResult,
    pub report: RunReport,
    /// `content_hash(&cross)`, computed once at insert (hashing a ref
    /// -scale result costs milliseconds — comparable to the store
    /// round trip the cache exists to avoid).
    pub result_hash: String,
    /// Each binary's CPI estimate, set by the first `estimate.cpi`
    /// that succeeds on this run.
    pub estimates: OnceLock<Vec<CpiEstimate>>,
}

/// Completed runs the daemon keeps resident. Bounds memory, not
/// correctness: an evicted run is recomputed from the store at the
/// cost of one artifact read per stage. One daemon holding 64 runs
/// served more warm requests per second than 4 workers holding 16 each
/// (DESIGN.md, "Why the result cache holds 64 runs").
pub(crate) const RESULT_CACHE_CAP: usize = 64;

/// The result cache proper: keyed entries plus their FIFO insertion
/// order (the eviction queue).
struct ResultCache<V> {
    order: VecDeque<String>,
    entries: HashMap<String, V>,
}

impl<V> Default for ResultCache<V> {
    fn default() -> Self {
        ResultCache {
            order: VecDeque::new(),
            entries: HashMap::new(),
        }
    }
}

impl<V> ResultCache<V> {
    /// Inserts `value` under `key`, evicting the oldest keys beyond
    /// [`RESULT_CACHE_CAP`]. A resident key keeps its place in the
    /// eviction queue: a racing request may insert the same key between
    /// its lookup and here, and both values are identical.
    fn insert(&mut self, key: String, value: V) {
        if self.entries.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            while self.entries.len() > RESULT_CACHE_CAP {
                let Some(evict) = self.order.pop_front() else {
                    break;
                };
                self.entries.remove(&evict);
            }
        }
    }
}

/// Warm per-process pipeline state shared by every request.
pub(crate) struct Engine {
    pub store: ArtifactStore,
    /// Thread budget of each executing request.
    pub threads: usize,
    /// Each `(benchmark, scale)`'s binaries, filled by the first
    /// request naming them. Keyed by the suite's own name, so it never
    /// holds more than 21 × 3 entries and needs no cap.
    prepared: Mutex<HashMap<(&'static str, Scale), Arc<Prepared>>>,
    /// Completed runs keyed by map-stage digest, FIFO-evicted at
    /// [`RESULT_CACHE_CAP`].
    runs: Mutex<ResultCache<Arc<CachedRun>>>,
    /// Requests answered from the result cache (for `/metrics`).
    pub result_hits: AtomicU64,
    /// Requests that had to run the (store-backed) pipeline.
    pub result_misses: AtomicU64,
    /// Stage executions those runs served from the store (for
    /// `/metrics`): the sum of their [`RunReport::hits`].
    pub store_hits: AtomicU64,
    /// Stage executions those runs computed: the sum of their
    /// [`RunReport::misses`].
    pub store_misses: AtomicU64,
}

/// The `fuzzy_map` param: absent, `null`, or `false` ⇒ exact-only
/// mapping; `true` ⇒ the fuzzy fallback at the default acceptance
/// threshold; a number ⇒ a custom threshold in `(0, 1]`.
fn param_fuzzy(params: &Value) -> Result<Option<FuzzyConfig>, Fault> {
    let threshold = match params.as_object().and_then(|p| get(p, "fuzzy_map")) {
        None | Some(Value::Null | Value::Bool(false)) => return Ok(None),
        Some(Value::Bool(true)) => return Ok(Some(FuzzyConfig::default())),
        Some(Value::Float(f)) => *f,
        Some(Value::UInt(n)) => *n as f64,
        Some(other) => {
            return Err(fault(
                ErrorCode::BadRequest,
                format!(
                    "param `fuzzy_map` must be a boolean or number, got {}",
                    other.kind()
                ),
            ))
        }
    };
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(fault(
            ErrorCode::BadRequest,
            format!("param `fuzzy_map` threshold {threshold} outside (0, 1]"),
        ));
    }
    Ok(Some(FuzzyConfig { threshold }))
}

/// `estimate.cpi` simulates each binary sliced at exact marker
/// boundaries, which the fuzzy fallback's instruction-offset windows do
/// not follow — so the method is exact-lane only.
pub(crate) fn reject_fuzzy_estimate(spec: &PipelineSpec) -> Result<(), Fault> {
    if spec.config.fuzzy.is_some() {
        return Err(fault(
            ErrorCode::BadRequest,
            "estimate.cpi does not accept `fuzzy_map` (its detailed simulation slices at exact \
             marker boundaries; evaluate fuzzy lanes with `experiments accuracy-gate --fuzzy`)",
        ));
    }
    Ok(())
}

/// Resolves `params` for one of the pipeline-shaped methods: the
/// benchmark's [`Prepared`] binaries and the stage keys derived from
/// their digests. Runs on the connection thread and produces the
/// content digests admission needs for single-flight deduplication.
/// Every param is checked before the binaries memo is read, so a bad
/// request never fills it.
pub(crate) fn prepare_spec(
    engine: &Engine,
    params: &Value,
    detail_allowed: bool,
) -> Result<PipelineSpec, Fault> {
    let benchmark = param_str(params, "benchmark")?;
    let Some(workload) = workloads::by_name(&benchmark) else {
        return Err(fault(
            ErrorCode::BadRequest,
            format!("unknown benchmark `{benchmark}` (try the `cbsp list` command)"),
        ));
    };
    let (scale, scale_name) = match param_str_or(params, "scale", "train")?.as_str() {
        "test" => (Scale::Test, "test"),
        "train" => (Scale::Train, "train"),
        "ref" | "reference" => (Scale::Reference, "ref"),
        other => {
            return Err(fault(
                ErrorCode::BadRequest,
                format!("bad scale `{other}` (test|train|ref)"),
            ))
        }
    };
    let default = CbspConfig::default();
    let interval = param_u64_or(params, "interval", default.interval_target)?;
    if interval == 0 {
        return Err(fault(ErrorCode::BadRequest, "param `interval` must be > 0"));
    }
    let estimator_tag = param_str_or(params, "estimator", "bbv")?;
    let Some(estimator) = EstimatorConfig::parse(&estimator_tag) else {
        return Err(fault(
            ErrorCode::BadRequest,
            format!(
                "bad estimator `{estimator_tag}` ({})",
                EstimatorConfig::KNOWN_TAGS.join("|")
            ),
        ));
    };
    let detail_full = match param_str_or(params, "detail", "summary")?.as_str() {
        "summary" => false,
        "full" if detail_allowed => true,
        "full" => {
            return Err(fault(
                ErrorCode::BadRequest,
                "param `detail` is only accepted by pipeline.run",
            ))
        }
        other => {
            return Err(fault(
                ErrorCode::BadRequest,
                format!("bad detail `{other}` (summary|full)"),
            ))
        }
    };
    let config = CbspConfig {
        interval_target: interval,
        estimator,
        fuzzy: param_fuzzy(params)?,
        ..default
    };

    let prepared = engine.prepared(&workload, scale);
    let keys = pipeline_keys_from_digests(&prepared.refs(), &prepared.digests, &config)
        .map_err(internal)?;
    Ok(PipelineSpec {
        benchmark,
        scale_name,
        config,
        prepared,
        keys,
        detail_full,
    })
}

impl Engine {
    pub fn new(store: ArtifactStore, threads: usize) -> Engine {
        Engine {
            store,
            threads,
            prepared: Mutex::new(HashMap::new()),
            runs: Mutex::new(ResultCache::default()),
            result_hits: AtomicU64::new(0),
            result_misses: AtomicU64::new(0),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
        }
    }

    /// `workload`'s binaries at `scale`, from the memo or compiled and
    /// hashed here. A fill runs outside the lock; a racing fill computed
    /// the same value, and the first one inserted wins.
    fn prepared(&self, workload: &Workload, scale: Scale) -> Arc<Prepared> {
        let key = (workload.name, scale);
        if let Some(hit) = self.prepared.lock().expect("prepared lock").get(&key) {
            return Arc::clone(hit);
        }
        let fresh = Arc::new(Prepared::build(workload, scale));
        let mut memo = self.prepared.lock().expect("prepared lock");
        Arc::clone(memo.entry(key).or_insert(fresh))
    }

    /// Runs the cached pipeline for `spec`, cancelling at stage
    /// boundaries once `deadline` passes.
    pub fn execute_pipeline(&self, spec: &PipelineSpec, deadline: Instant) -> Reply {
        let run = self.run_cross(spec, deadline)?;
        let mut fields = summary_fields(spec, &run);
        if spec.detail_full {
            fields.push((
                "result".to_string(),
                serde_json::to_value(&run.cross).expect("result serializes"),
            ));
        }
        Ok(Value::Object(fields))
    }

    /// Runs the pipeline, then reports each binary's true and
    /// SimPoint-estimated CPI. The first request on a resident run
    /// computes them from the replay lease of the binaries' detailed
    /// simulations at Table 1 and the run's interval target — the lease
    /// an experiment evaluation of the same digest writes, so a warm
    /// store simulates nothing (see DESIGN.md "Replay leases") — and
    /// keeps them on the run. Every input of that lease derives from
    /// the run's digest, so later requests answer from memory. The
    /// lease key derives from the kept digests: no request hashes a
    /// binary. A failure is returned, never kept, and the next request
    /// retries.
    pub fn execute_estimate(&self, spec: &PipelineSpec, deadline: Instant) -> Reply {
        let run = self.run_cross(spec, deadline)?;
        let estimates = match run.estimates.get() {
            Some(estimates) => estimates,
            None => {
                let fresh = TraceCache::new(Some(&self.store))
                    .estimate_cpi(
                        &spec.prepared.refs(),
                        &spec.prepared.input,
                        Some(&spec.prepared.digests),
                        &MemoryConfig::default(),
                        &run.cross,
                        spec.config.interval_target,
                        &Pool::new(self.threads),
                    )
                    .map_err(internal)?;
                // A racing request computed the same estimates.
                run.estimates.get_or_init(|| fresh)
            }
        };
        let mut binaries = Vec::with_capacity(spec.prepared.binaries.len());
        for (bin, est) in spec.prepared.binaries.iter().zip(estimates) {
            binaries.push(obj(vec![
                ("label", Value::Str(bin.label())),
                ("true_cpi", Value::Float(est.true_cpi)),
                ("estimated_cpi", Value::Float(est.estimated_cpi)),
                (
                    "rel_error",
                    Value::Float(if est.true_cpi > 0.0 {
                        (est.estimated_cpi - est.true_cpi).abs() / est.true_cpi
                    } else {
                        0.0
                    }),
                ),
                // Zero for single-representative lanes by
                // construction; the stratified lane reports its
                // half-width (see DESIGN.md).
                ("ci_half", Value::Float(est.ci_half)),
            ]));
        }
        let mut fields = summary_fields(spec, &run);
        fields.push(("binaries".to_string(), Value::Array(binaries)));
        Ok(Value::Object(fields))
    }

    /// Pure store lookup: derive the simpoint stage key and probe the
    /// store. Never compiles a stage, so a miss answers in microseconds.
    pub fn execute_simpoints(&self, spec: &PipelineSpec) -> Reply {
        let key = &spec.keys.simpoint;
        let ns = stage_namespaces(&spec.config.estimator, spec.config.fuzzy.is_some());
        let found = match self.store.get::<SimPointResult>(&ns.simpoint, key) {
            Ok(found) => found,
            Err(CbspError::ArtifactCorrupt { .. } | CbspError::ArtifactVersionMismatch { .. }) => {
                None
            }
            Err(other) => return Err(internal(other)),
        };
        Ok(obj(vec![
            ("benchmark", Value::Str(spec.benchmark.clone())),
            ("scale", Value::Str(spec.scale_name.to_string())),
            ("interval", Value::UInt(spec.config.interval_target)),
            ("key", Value::Str(key.as_hex().to_string())),
            ("found", Value::Bool(found.is_some())),
            (
                "simpoint",
                found.map_or(Value::Null, |s| {
                    serde_json::to_value(&s).expect("simpoint serializes")
                }),
            ),
        ]))
    }

    /// Store usage, with the lease namespaces — recorded traces, sliced
    /// traces and replay leases — split out from the pipeline stages
    /// (leases are evicted by `gc` and rebuilt on use, so lumping them
    /// with stage artifacts hides both facts). `pipeline` excludes every
    /// lease namespace ([`cbsp_store::LEASE_STAGES`]); FLI leases, which
    /// only experiment evaluations write, show in `per_stage` alone.
    pub fn execute_store_stats(&self) -> Reply {
        let stats = self.store.stats().map_err(internal)?;
        let sub = |stage: &cbsp_store::StageStats| {
            obj(vec![
                ("artifacts", Value::UInt(stage.artifacts)),
                ("bytes", Value::UInt(stage.bytes)),
            ])
        };
        Ok(obj(vec![
            ("artifacts", Value::UInt(stats.artifacts)),
            ("bytes", Value::UInt(stats.bytes)),
            ("manifests", Value::UInt(stats.manifests)),
            ("pipeline", sub(&stats.pipeline())),
            ("traces", sub(&stats.stage(cbsp_store::TRACE_STAGE))),
            (
                "trace_slices",
                sub(&stats.stage(cbsp_store::TRACE_SLICE_STAGE)),
            ),
            ("replays", sub(&stats.stage(cbsp_store::REPLAY_STAGE))),
            (
                "per_stage",
                Value::Object(
                    stats
                        .per_stage
                        .iter()
                        .map(|(k, v)| (k.clone(), sub(v)))
                        .collect(),
                ),
            ),
        ]))
    }

    /// The global [`cbsp_trace`] snapshot (counters/gauges/spans).
    pub fn execute_trace_snapshot(&self) -> Reply {
        let metrics = serde_json::parse(&cbsp_trace::metrics_json())
            .map_err(|e| fault(ErrorCode::Internal, format!("snapshot encode: {e}")))?;
        Ok(obj(vec![
            ("enabled", Value::Bool(cbsp_trace::enabled())),
            ("metrics", metrics),
        ]))
    }

    /// Runs (or recalls) the cross-binary pipeline for `spec`.
    ///
    /// The map-stage key is a digest over the binaries, input, and
    /// config, and the pipeline is deterministic at any thread count,
    /// so a cached run is byte-for-byte what a recomputation would
    /// produce — the cache can ignore the thread budget and `deadline`.
    /// A miss runs the orchestrator on `spec.keys` (the thread count is
    /// not in them), so it hashes nothing either.
    fn run_cross(&self, spec: &PipelineSpec, deadline: Instant) -> Result<Arc<CachedRun>, Fault> {
        use std::sync::atomic::Ordering;
        let cache_key = spec.keys.map.as_hex().to_string();
        if let Some(hit) = {
            let cache = self.runs.lock().expect("result cache lock");
            cache.entries.get(&cache_key).cloned()
        } {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.result_misses.fetch_add(1, Ordering::Relaxed);

        let config = CbspConfig {
            simpoint: cbsp_simpoint::SimPointConfig {
                threads: self.threads,
                ..spec.config.simpoint
            },
            ..spec.config
        };
        let orch = Orchestrator::new(&self.store, CachePolicy::ReadWrite)
            .with_cancel(Arc::new(move || Instant::now() >= deadline));
        let description = format!("serve: {}/{}", spec.benchmark, spec.scale_name);
        let prepared = &spec.prepared;
        let (cross, report) = orch
            .run_keyed(
                &prepared.refs(),
                &prepared.input,
                &config,
                &spec.keys,
                &description,
            )
            .map_err(|e| match e {
                CbspError::Cancelled { stage } => fault(
                    ErrorCode::Timeout,
                    format!("deadline passed at the {stage} stage boundary"),
                ),
                other => internal(other),
            })?;
        self.store_hits
            .fetch_add(report.hits() as u64, Ordering::Relaxed);
        self.store_misses
            .fetch_add(report.misses() as u64, Ordering::Relaxed);
        let run = Arc::new(CachedRun {
            result_hash: content_hash(&cross),
            cross,
            report,
            estimates: OnceLock::new(),
        });

        self.runs
            .lock()
            .expect("result cache lock")
            .insert(cache_key, Arc::clone(&run));
        Ok(run)
    }
}

/// The summary fields shared by `pipeline.run` and `estimate.cpi`
/// responses, in fixed order. The `cache` hits/misses describe the
/// store traffic of the run that *computed* this result — a
/// result-cache hit replays them unchanged, keeping responses
/// byte-identical.
fn summary_fields(spec: &PipelineSpec, run: &CachedRun) -> Vec<(String, Value)> {
    let cross = &run.cross;
    let report = &run.report;
    let mut pairs = vec![
        ("benchmark", Value::Str(spec.benchmark.clone())),
        ("scale", Value::Str(spec.scale_name.to_string())),
        ("interval", Value::UInt(spec.config.interval_target)),
        ("estimator", Value::Str(spec.config.estimator.tag())),
        ("run_key", Value::Str(report.run_key.clone())),
        ("result_hash", Value::Str(run.result_hash.clone())),
        ("k", Value::UInt(cross.simpoint.k as u64)),
        ("points", Value::UInt(cross.simpoint.points.len() as u64)),
        ("intervals", Value::UInt(cross.interval_count() as u64)),
        (
            "cache",
            obj(vec![
                ("hits", Value::UInt(report.hits() as u64)),
                ("misses", Value::UInt(report.misses() as u64)),
            ]),
        ),
    ];
    // Appended only on fuzzy runs, so exact-lane responses stay
    // byte-identical to pre-fuzzy builds (docs/PROTOCOL.md).
    if let Some(fuzzy) = &spec.config.fuzzy {
        let stats = mapping_stats(&cross.mappings);
        pairs.push(("fuzzy_map", Value::Float(fuzzy.threshold)));
        pairs.push((
            "mapping",
            obj(vec![
                ("exact", Value::UInt(stats.exact as u64)),
                ("fuzzy", Value::UInt(stats.fuzzy as u64)),
                ("unmapped", Value::UInt(stats.unmapped as u64)),
                ("mean_confidence", Value::Float(stats.mean_confidence)),
                ("mapped_fraction", Value::Float(stats.mapped_fraction())),
            ]),
        ));
    }
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

fn internal(e: impl std::fmt::Display) -> Fault {
    fault(ErrorCode::Internal, format!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::{prepare_spec, ArtifactStore, Engine, Input, ResultCache, RESULT_CACHE_CAP};
    use std::sync::Arc;

    #[test]
    fn prepared_binaries_are_one_entry_per_benchmark_and_scale() {
        let dir = std::env::temp_dir().join(format!("cbsp-serve-prepared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(ArtifactStore::open(&dir).expect("store opens"), 1);
        let prepare = |params: &str| {
            let params = serde_json::parse(params).expect("params parse");
            prepare_spec(&engine, &params, false)
        };
        let entries = || engine.prepared.lock().expect("prepared lock").len();

        let lanes = [
            (20_000, "bbv"),
            (20_000, "stratified"),
            (30_000, "bbv"),
            (30_000, "stratified"),
        ];
        let specs: Vec<_> = lanes
            .iter()
            .map(|(interval, estimator)| {
                prepare(&format!(
                    r#"{{"benchmark":"gzip","scale":"test","interval":{interval},"estimator":"{estimator}"}}"#
                ))
                .expect("prepares")
            })
            .collect();
        for spec in &specs {
            assert!(Arc::ptr_eq(&specs[0].prepared, &spec.prepared));
            // Keys from the kept digests are the library's keys.
            let keys =
                cbsp_store::pipeline_keys(&spec.prepared.refs(), &Input::test(), &spec.config);
            assert_eq!(spec.keys, keys.expect("keys derive"));
        }
        assert_eq!(entries(), 1);

        // Requests that fail to resolve add nothing.
        assert!(prepare(r#"{"benchmark":"not-a-benchmark","scale":"test"}"#).is_err());
        assert!(prepare(r#"{"benchmark":"gzip","scale":"huge"}"#).is_err());
        assert_eq!(entries(), 1);
        // Another scale of the same benchmark is another entry.
        prepare(r#"{"benchmark":"gzip","scale":"train"}"#).expect("prepares");
        assert_eq!(entries(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn result_cache_holds_at_most_its_cap_and_evicts_first_in_first() {
        let mut cache = ResultCache::default();
        for i in 0..=RESULT_CACHE_CAP {
            cache.insert(format!("k{i}"), i);
        }
        assert_eq!(cache.entries.len(), RESULT_CACHE_CAP);
        assert_eq!(cache.order.len(), RESULT_CACHE_CAP);
        assert!(!cache.entries.contains_key("k0"));
        assert!(cache.entries.contains_key("k1"));
        assert!(cache.entries.contains_key(&format!("k{RESULT_CACHE_CAP}")));
    }

    #[test]
    fn reinserting_a_resident_key_neither_grows_nor_evicts() {
        let mut cache = ResultCache::default();
        for i in 0..RESULT_CACHE_CAP {
            cache.insert(format!("k{i}"), i);
        }
        cache.insert("k0".to_string(), 0);
        assert_eq!(cache.order.len(), RESULT_CACHE_CAP);
        assert_eq!(cache.entries.len(), RESULT_CACHE_CAP);
        assert_eq!(cache.order.front().map(String::as_str), Some("k0"));
        // The next new key still evicts k0 first.
        cache.insert("new".to_string(), RESULT_CACHE_CAP);
        assert!(!cache.entries.contains_key("k0"));
        assert!(cache.entries.contains_key("k1"));
    }
}
