//! The stage-graph orchestrator: `cbsp-core`'s stage driver
//! ([`cbsp_core::run_stages`]) run with a store hook, so each stage is
//! individually cached and the run can be cancelled between stages.
//!
//! ```text
//! profile(b0) ─┐
//! profile(b1) ─┼─► mappable ─► vli ─► simpoint ─► map
//! profile(b…) ─┘
//! ```
//!
//! Each stage's content key is derived from everything that determines
//! its output — the binaries (hashed), the workload input, the stage
//! configuration, and the keys of upstream stages — so editing any
//! input invalidates exactly the downstream stages and nothing else.
//! Profile collection, the only per-binary stage, runs its binaries in
//! parallel; the hook records every outcome and sorts them by [`Stage`],
//! so run keys and manifests list stages in pipeline order.

use cbsp_core::{
    run_stages, validate_binaries, CbspConfig, CbspError, CrossBinaryResult, Stage, StageHook,
};
use cbsp_program::workloads::Workload;
use cbsp_program::{compile, Binary, CompileTarget, Input, Scale};
use cbsp_simpoint::{EstimatorConfig, RepresentativePolicy, SimPointConfig};
use serde::Value;
use std::sync::{Arc, Mutex, OnceLock};

use crate::sha256::hex_digest;
use crate::store::{
    canonical_json, content_hash, key_part, read_through, stage_key, ArtifactStore, ManifestStage,
    RunManifest, StageKey,
};

/// The five pipeline stages, in dependency order. These are *logical*
/// stage names; the estimator-dependent stages (`vli`, `simpoint`,
/// `map`) are stored under estimator-tagged namespaces — see
/// [`stage_namespaces`].
pub const STAGE_ORDER: [&str; 5] = ["profile", "mappable", "vli", "simpoint", "map"];

/// Store namespaces of the estimator-dependent pipeline stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageNamespaces {
    /// Namespace of the `vli` stage (depends only on the feature kind:
    /// every BBV-based selector shares one interval profile).
    pub vli: String,
    /// Namespace of the `simpoint` stage (full estimator tag).
    pub simpoint: String,
    /// Namespace of the `map` stage (full estimator tag).
    pub map: String,
}

/// The store namespaces `estimator`'s artifacts live under; `fuzzy` is
/// whether the run uses the fuzzy-mapping fallback.
///
/// The default estimator (nearest-centroid BBV) uses the plain stage
/// names, so its keys — and therefore its on-disk artifacts — are
/// byte-identical to the pre-estimator store. Every other lane gets
/// `stage@tag` namespaces (e.g. `simpoint@stratified`), which flow into
/// both the stage-key hash and the artifact envelope's stage string, so
/// lanes can never collide and `cache stats` can attribute populations
/// per estimator. The `vli` namespace depends only on the *feature*
/// kind: selectors reuse the same interval profile, so the `early` and
/// `stratified` lanes share the default lane's `vli` artifacts.
///
/// Fuzzy runs append `@fuzzy` to all three estimator-dependent
/// namespaces (cache-key invariant 8): fuzzy VLI cutting uses the
/// extended pairwise marker filter and the map stage stores mapping
/// records, so none of those artifacts may ever collide with an exact
/// lane's. The acceptance *threshold* does not enter the namespaces —
/// it only affects the map stage, where it enters the key inputs
/// directly (see [`pipeline_keys`]) — so fuzzy runs at different
/// thresholds share `vli`/`simpoint` artifacts.
pub fn stage_namespaces(estimator: &EstimatorConfig, fuzzy: bool) -> StageNamespaces {
    let vli = if estimator.features.wants_mav() {
        format!("vli@{}", estimator.features.tag())
    } else {
        "vli".to_string()
    };
    let (simpoint, map) = if estimator.is_default() {
        ("simpoint".to_string(), "map".to_string())
    } else {
        let tag = estimator.tag();
        (format!("simpoint@{tag}"), format!("map@{tag}"))
    };
    let suffix = |s: String| if fuzzy { format!("{s}@fuzzy") } else { s };
    StageNamespaces {
        vli: suffix(vli),
        simpoint: suffix(simpoint),
        map: suffix(map),
    }
}

/// The content digests every key of a run derives from: each binary's
/// and the input's [`content_hash`]. Hashing the binaries is most of
/// the cost of deriving a key (about 0.3 ms for four Train binaries),
/// so a [`Prepared`] hashes its binaries once, on first use, and every
/// stage and lease key of its runs derives from here.
#[derive(Debug)]
pub(crate) struct Digests {
    /// `content_hash` of each binary, in binary order.
    pub binaries: Vec<String>,
    /// `content_hash` of the input.
    pub input: String,
}

/// One program's binaries and the input they run on: the unit every
/// pipeline run, replay lease and FLI lease is keyed on. It keeps the
/// content digests of both, hashed on first use — a store-less run
/// never hashes, and every keyed lookup after the first hashes nothing.
#[derive(Debug)]
pub struct Prepared {
    binaries: Vec<Binary>,
    input: Input,
    digests: OnceLock<Digests>,
}

impl Prepared {
    /// `workload`'s four standard binaries
    /// ([`CompileTarget::ALL_FOUR`] order) at `scale`, on the scale's
    /// standard input. Compiling all four takes microseconds, so it
    /// runs serially, inside one `stage/compile` span.
    pub fn of(workload: &Workload, scale: Scale) -> Prepared {
        let program = workload.build(scale);
        let binaries = {
            let _span = cbsp_trace::span_labeled("stage/compile", || workload.name.to_string());
            CompileTarget::ALL_FOUR
                .iter()
                .map(|&t| compile(&program, t))
                .collect()
        };
        Prepared::new(binaries, Input::for_scale(scale))
    }

    /// Any binary set on `input` (custom compile options, a subset of
    /// the four targets, hand-built programs).
    pub fn new(binaries: Vec<Binary>, input: Input) -> Prepared {
        Prepared {
            binaries,
            input,
            digests: OnceLock::new(),
        }
    }

    /// The binaries, in order.
    pub fn binaries(&self) -> &[Binary] {
        &self.binaries
    }

    /// The binaries as the pipeline's `&[&Binary]`.
    pub fn refs(&self) -> Vec<&Binary> {
        self.binaries.iter().collect()
    }

    /// The input the binaries run on.
    pub fn input(&self) -> &Input {
        &self.input
    }

    /// [`pipeline_keys`] of these binaries and input under `config`,
    /// from the kept digests.
    ///
    /// # Errors
    ///
    /// As [`pipeline_keys`]: the binaries are validated on every call.
    pub fn keys(&self, config: &CbspConfig) -> Result<PipelineKeys, CbspError> {
        self.digests().keys(&self.refs(), config)
    }

    /// The content digests, hashed here on first use.
    pub(crate) fn digests(&self) -> &Digests {
        self.digests
            .get_or_init(|| Digests::of(&self.refs(), &self.input))
    }
}

/// The content keys of every stage of one pipeline run, derived from
/// the inputs alone — computing them costs a few hashes, never a stage
/// execution. This is what makes digest-based lookups (`cbsp-serve`'s
/// `simpoints.get`) possible: hash the inputs, chain the keys, and ask
/// the store directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineKeys {
    /// One `profile` key per binary, in binary order.
    pub profile: Vec<StageKey>,
    /// The `mappable` stage key (all binaries + input).
    pub mappable: StageKey,
    /// The `vli` stage key (primary binary's intervals).
    pub vli: StageKey,
    /// The `simpoint` stage key (clustering of the primary intervals;
    /// thread count normalized out — see [`pipeline_keys`]).
    pub simpoint: StageKey,
    /// The `map` stage key (boundary translation, all binaries).
    pub map: StageKey,
}

/// Derives the full key chain for a pipeline run without executing any
/// stage. The same derivation [`Orchestrator::run_cross_binary`] and
/// [`Prepared::keys`] use, exposed so callers can probe the store (or
/// deduplicate work) by content digest alone.
///
/// The `simpoint` key normalizes `threads` to 0: thread count is an
/// execution knob with no effect on the result (clustering is
/// bit-identical at any setting), so runs at different thread counts
/// share cache entries.
///
/// The estimator enters the derivation through the stage *namespaces*
/// ([`stage_namespaces`]): the namespace string is hashed into each
/// stage key, so estimator lanes can never collide, while the default
/// lane's namespaces are the plain stage names and its keys stay
/// byte-identical to the pre-estimator store. The selector additionally
/// enters the simpoint key through [`clustering_key`], as the policy
/// [`cbsp_core::simpoint_stage`] runs.
///
/// # Errors
///
/// Returns the same input-validation errors as the pipeline itself
/// (empty set, program mismatch, primary out of range).
pub fn pipeline_keys(
    binaries: &[&Binary],
    input: &Input,
    config: &CbspConfig,
) -> Result<PipelineKeys, CbspError> {
    Digests::of(binaries, input).keys(binaries, config)
}

/// The clustering part of a key: the document the `simpoint` stage
/// key and the FLI lease key hash for a clustering under `config` whose
/// representatives `selector` chooses.
///
/// It holds `config`'s fields in declaration order, then
/// `representative` (the selector), `accelerated` (always `false`) and
/// `threads` (always 0; clustering is bit-identical at any thread
/// count). The last three stand where `SimPointConfig` once carried a
/// representative policy, a Hamerly k-means switch and the thread
/// count, so every key derived before those fields went is unchanged.
pub fn clustering_key(config: &SimPointConfig, selector: RepresentativePolicy) -> Value {
    // Exhaustive: a field added to `SimPointConfig` fails to compile
    // here until it is keyed.
    let SimPointConfig {
        max_k,
        projection_dims,
        bic_threshold,
        restarts,
        max_iters,
        seed,
        threads: _,
    } = *config;
    Value::Object(vec![
        ("max_k".to_string(), key_part(&max_k)),
        ("projection_dims".to_string(), key_part(&projection_dims)),
        ("bic_threshold".to_string(), key_part(&bic_threshold)),
        ("restarts".to_string(), key_part(&restarts)),
        ("max_iters".to_string(), key_part(&max_iters)),
        ("seed".to_string(), key_part(&seed)),
        ("representative".to_string(), key_part(&selector)),
        ("accelerated".to_string(), Value::Bool(false)),
        ("threads".to_string(), Value::UInt(0)),
    ])
}

impl Digests {
    /// Hashes `binaries` and `input`.
    fn of(binaries: &[&Binary], input: &Input) -> Digests {
        Digests {
            binaries: binaries.iter().map(|b| content_hash(*b)).collect(),
            input: content_hash(input),
        }
    }

    /// [`pipeline_keys`] of `binaries`, whose digests these are.
    fn keys(&self, binaries: &[&Binary], config: &CbspConfig) -> Result<PipelineKeys, CbspError> {
        let bin_hashes = &self.binaries;
        validate_binaries(binaries, config)?;
        let ns = stage_namespaces(&config.estimator, config.fuzzy.is_some());
        let input_hash = self.input.clone();
        let hash_parts: Vec<Value> = bin_hashes.iter().map(|h| Value::Str(h.clone())).collect();

        let profile: Vec<StageKey> = bin_hashes
            .iter()
            .map(|h| {
                stage_key(
                    "profile",
                    &[Value::Str(h.clone()), Value::Str(input_hash.clone())],
                )
            })
            .collect();

        let mut mappable_inputs = hash_parts.clone();
        mappable_inputs.push(Value::Str(input_hash.clone()));
        let mappable = stage_key("mappable", &mappable_inputs);

        let vli = stage_key(
            &ns.vli,
            &[
                Value::Str(bin_hashes[config.primary].clone()),
                Value::Str(input_hash.clone()),
                Value::UInt(config.interval_target),
                Value::UInt(config.primary as u64),
                Value::Str(mappable.as_hex().to_string()),
            ],
        );

        let simpoint = stage_key(
            &ns.simpoint,
            &[
                Value::Str(vli.as_hex().to_string()),
                clustering_key(&config.simpoint, config.estimator.selector),
            ],
        );

        let mut map_inputs = hash_parts;
        map_inputs.push(Value::Str(input_hash));
        map_inputs.push(Value::UInt(config.primary as u64));
        map_inputs.push(Value::Str(mappable.as_hex().to_string()));
        map_inputs.push(Value::Str(vli.as_hex().to_string()));
        map_inputs.push(Value::Str(simpoint.as_hex().to_string()));
        // The fuzzy config (acceptance threshold) changes only the matching
        // decisions of the map stage, so it enters only this key — fuzzy
        // runs at different thresholds share every upstream artifact.
        if let Some(fuzzy) = &config.fuzzy {
            map_inputs.push(key_part(fuzzy));
        }
        let map = stage_key(&ns.map, &map_inputs);

        Ok(PipelineKeys {
            profile,
            mappable,
            vli,
            simpoint,
            map,
        })
    }
}

/// How the orchestrator uses the store. Running without a store is
/// simply [`cbsp_core::run_cross_binary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Serve hits from the store; write misses back (the default).
    #[default]
    ReadWrite,
    /// Recompute every stage and write over stored artifacts.
    Refresh,
}

/// What happened to one stage execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageOutcome {
    /// The stage execution (its [`Stage::name`] is one of
    /// [`STAGE_ORDER`]).
    pub stage: Stage,
    /// Display label (e.g. the binary a profile covers).
    pub label: String,
    /// The artifact's content key.
    pub key: StageKey,
    /// `true` if served from the store without recomputation.
    pub hit: bool,
}

/// Cache behaviour of one orchestrated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Key identifying the run (hash over its stage keys).
    pub run_key: String,
    /// One outcome per stage execution (profiles appear once per
    /// binary), in pipeline order.
    pub outcomes: Vec<StageOutcome>,
}

impl RunReport {
    /// Stage executions served from the store.
    pub fn hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.hit).count()
    }

    /// Stage executions that were recomputed.
    pub fn misses(&self) -> usize {
        self.outcomes.len() - self.hits()
    }

    /// Per-stage `(name, hits, executions)` in pipeline order.
    pub fn stage_summary(&self) -> Vec<(&'static str, usize, usize)> {
        STAGE_ORDER
            .iter()
            .map(|&name| {
                let of_stage = self.outcomes.iter().filter(|o| o.stage.name() == name);
                let total = of_stage.clone().count();
                let hits = of_stage.filter(|o| o.hit).count();
                (name, hits, total)
            })
            .collect()
    }
}

/// Runs pipeline stages against an [`ArtifactStore`] under a
/// [`CachePolicy`].
#[derive(Clone)]
pub struct Orchestrator<'s> {
    store: &'s ArtifactStore,
    policy: CachePolicy,
    /// Polled before every stage execution; `true` abandons the run
    /// with [`CbspError::Cancelled`]. `None` means never cancelled.
    cancel: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
}

impl std::fmt::Debug for Orchestrator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("store", &self.store)
            .field("policy", &self.policy)
            .field("cancel", &self.cancel.as_ref().map(|_| "<fn>"))
            .finish()
    }
}

impl<'s> Orchestrator<'s> {
    /// Creates an orchestrator over `store`.
    pub fn new(store: &'s ArtifactStore, policy: CachePolicy) -> Self {
        Orchestrator {
            store,
            policy,
            cancel: None,
        }
    }

    /// Attaches a cancellation check, polled before every stage
    /// execution of [`Orchestrator::run_cross_binary`], each binary's
    /// profile included. When `check` returns `true` the run stops with
    /// [`CbspError::Cancelled`] naming the stage about to start — cheap
    /// cooperative cancellation for servers enforcing per-request
    /// deadlines. Stages themselves are never interrupted, so the store
    /// is never left with a torn artifact.
    pub fn with_cancel(mut self, check: Arc<dyn Fn() -> bool + Send + Sync>) -> Self {
        self.cancel = Some(check);
        self
    }

    /// Runs the full cross-binary pipeline with per-stage caching,
    /// returning the result (identical to
    /// [`cbsp_core::run_cross_binary`] on the same inputs) and the
    /// cache report. `description` labels the run in its manifest.
    ///
    /// This is `cbsp-core`'s driver ([`run_stages`]) with a hook that
    /// polls the cancellation check and then serves each stage from
    /// the store under the repair-as-miss contract.
    ///
    /// # Errors
    ///
    /// Returns validation errors from the pipeline,
    /// [`CbspError::Cancelled`] once the check fires, and
    /// [`CbspError::StoreIo`] on store failure.
    pub fn run_cross_binary(
        &self,
        binaries: &[&Binary],
        input: &Input,
        config: &CbspConfig,
        description: &str,
    ) -> Result<(CrossBinaryResult, RunReport), CbspError> {
        let keys = pipeline_keys(binaries, input, config)?;
        self.run_keyed(binaries, input, config, &keys, description)
    }

    /// [`Orchestrator::run_cross_binary`] on `prepared`'s binaries and
    /// input, its stage keys derived from the digests it keeps.
    ///
    /// # Errors
    ///
    /// As [`Orchestrator::run_cross_binary`].
    pub fn run_prepared(
        &self,
        prepared: &Prepared,
        config: &CbspConfig,
        description: &str,
    ) -> Result<(CrossBinaryResult, RunReport), CbspError> {
        let keys = prepared.keys(config)?;
        self.run_keyed(
            &prepared.refs(),
            prepared.input(),
            config,
            &keys,
            description,
        )
    }

    /// The run both entry points share: `keys` are `binaries`' and
    /// `input`'s under `config`.
    fn run_keyed(
        &self,
        binaries: &[&Binary],
        input: &Input,
        config: &CbspConfig,
        keys: &PipelineKeys,
        description: &str,
    ) -> Result<(CrossBinaryResult, RunReport), CbspError> {
        let hook = StoreHook {
            orchestrator: self,
            binaries,
            primary: config.primary,
            keys,
            ns: stage_namespaces(&config.estimator, config.fuzzy.is_some()),
            outcomes: Mutex::new(Vec::with_capacity(binaries.len() + 4)),
        };
        let result = run_stages(binaries, input, config, &hook)?;

        let mut outcomes = hook.outcomes.into_inner().expect("outcome lock");
        outcomes.sort_by_key(|o| o.stage);
        let run_key = run_key_of(&outcomes);
        self.store.write_manifest(&RunManifest {
            schema: crate::store::SCHEMA_VERSION,
            run_key: run_key.clone(),
            description: description.to_string(),
            finished_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            stages: outcomes
                .iter()
                .map(|o| ManifestStage {
                    stage: o.stage.name().to_string(),
                    label: o.label.clone(),
                    key: o.key.as_hex().to_string(),
                    hit: o.hit,
                })
                .collect(),
        })?;
        Ok((result, RunReport { run_key, outcomes }))
    }
}

/// The store's [`StageHook`] for one run: polls the cancellation
/// check, serves the stage from the store, and records its outcome.
struct StoreHook<'a> {
    orchestrator: &'a Orchestrator<'a>,
    binaries: &'a [&'a Binary],
    primary: usize,
    keys: &'a PipelineKeys,
    ns: StageNamespaces,
    /// Outcomes in completion order; profiles may finish in any order.
    outcomes: Mutex<Vec<StageOutcome>>,
}

impl StageHook for StoreHook<'_> {
    fn run<T, F>(&self, stage: Stage, compute: F) -> Result<T, CbspError>
    where
        T: serde::Serialize + serde::Deserialize,
        F: FnOnce() -> Result<T, CbspError>,
    {
        let name = stage.name();
        if self.orchestrator.cancel.as_ref().is_some_and(|c| c()) {
            return Err(CbspError::Cancelled {
                stage: name.to_string(),
            });
        }
        // `ns` is the store namespace the artifact lives under: the
        // stage name, except for non-default estimator and fuzzy lanes
        // (see [`stage_namespaces`]).
        let (ns, key, label) = match stage {
            Stage::Profile(b) => ("profile", &self.keys.profile[b], self.binaries[b].label()),
            Stage::Mappable => ("mappable", &self.keys.mappable, "all binaries".to_string()),
            Stage::Vli => (
                self.ns.vli.as_str(),
                &self.keys.vli,
                self.binaries[self.primary].label(),
            ),
            Stage::Simpoint => (
                self.ns.simpoint.as_str(),
                &self.keys.simpoint,
                "primary intervals".to_string(),
            ),
            Stage::Map => (
                self.ns.map.as_str(),
                &self.keys.map,
                "all binaries".to_string(),
            ),
        };
        let policy = self.orchestrator.policy;
        let (value, hit) = read_through(
            Some(self.orchestrator.store),
            |store| match policy {
                CachePolicy::ReadWrite => store.get(ns, key),
                CachePolicy::Refresh => Ok(None),
            },
            compute,
            |store, value| store.put(ns, key, value),
        )?;
        cbsp_trace::add(if hit { "store/hits" } else { "store/misses" }, 1);
        if cbsp_trace::enabled() {
            let outcome = if hit { "hit" } else { "miss" };
            cbsp_trace::add(&format!("store/{outcome}/{name}"), 1);
        }
        self.outcomes
            .lock()
            .expect("outcome lock")
            .push(StageOutcome {
                stage,
                label,
                key: key.clone(),
                hit,
            });
        Ok(value)
    }
}

/// A run's identity: the hash of its ordered stage keys.
fn run_key_of(outcomes: &[StageOutcome]) -> String {
    let doc = Value::Array(
        outcomes
            .iter()
            .map(|o| Value::Str(o.key.as_hex().to_string()))
            .collect(),
    );
    hex_digest(canonical_json(&doc).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_program::{compile, workloads, CompileTarget, Scale};

    /// The four binaries of `name` at Test scale.
    fn binaries(name: &str) -> Vec<Binary> {
        let prog = workloads::by_name(name)
            .expect("in suite")
            .build(Scale::Test);
        let targets = CompileTarget::ALL_FOUR.iter();
        targets.map(|&t| compile(&prog, t)).collect()
    }

    #[test]
    fn estimator_lanes_get_disjoint_keys_and_share_what_they_can() {
        let bins = binaries("swim");
        let refs: Vec<&Binary> = bins.iter().collect();
        let input = Input::test();
        let of = |tag: &str| {
            let config = CbspConfig {
                estimator: EstimatorConfig::parse(tag).expect("known tag"),
                ..CbspConfig::default()
            };
            pipeline_keys(&refs, &input, &config).expect("keys derive")
        };
        let bbv = of("bbv");
        let mav = of("bbv+mav");
        let strat = of("stratified");
        let early = of("early");

        // Estimator-independent stages share keys across all lanes.
        for other in [&mav, &strat, &early] {
            assert_eq!(bbv.profile, other.profile);
            assert_eq!(bbv.mappable, other.mappable);
        }
        // BBV-feature selectors reuse the default lane's interval
        // profile; the MAV lane records extra payload and must not.
        assert_eq!(bbv.vli, strat.vli);
        assert_eq!(bbv.vli, early.vli);
        assert_ne!(bbv.vli, mav.vli);
        // Clustering and mapping keys are disjoint across every lane.
        let simpoints = [
            &bbv.simpoint,
            &mav.simpoint,
            &strat.simpoint,
            &early.simpoint,
        ];
        let maps = [&bbv.map, &mav.map, &strat.map, &early.map];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(simpoints[i], simpoints[j], "simpoint keys {i} vs {j}");
                assert_ne!(maps[i], maps[j], "map keys {i} vs {j}");
            }
        }
    }

    #[test]
    fn a_prepared_set_of_two_programs_fails_its_keys() {
        let mut bins = binaries("swim");
        bins[3] = binaries("gzip").swap_remove(3);
        let prepared = Prepared::new(bins, Input::test());
        let derived = prepared.keys(&CbspConfig::default());
        assert!(matches!(derived, Err(CbspError::ProgramMismatch { .. })));
    }

    /// The keys a [`Prepared`] derives from its kept digests are the
    /// library's keys for every estimator lane and the fuzzy lane.
    #[test]
    fn prepared_keys_are_the_library_keys_on_every_lane() {
        let prepared = Prepared::of(&workloads::by_name("swim").expect("in suite"), Scale::Test);
        let refs = prepared.refs();
        let mut configs: Vec<CbspConfig> = EstimatorConfig::KNOWN_TAGS
            .iter()
            .map(|tag| CbspConfig {
                estimator: EstimatorConfig::parse(tag).expect("known tag"),
                ..CbspConfig::default()
            })
            .collect();
        configs.push(CbspConfig {
            fuzzy: Some(cbsp_core::FuzzyConfig::default()),
            ..CbspConfig::default()
        });
        for config in &configs {
            let library = pipeline_keys(&refs, &Input::test(), config).expect("keys derive");
            assert_eq!(prepared.keys(config).expect("keys derive"), library);
        }
    }

    /// A [`Prepared`] hashes its binaries and input only for a store: a
    /// store-less pipeline run and lease calls leave its digests
    /// unhashed, and a store-backed run hashes them once, which its cold
    /// and warm leases and every later key of the same value reuse.
    #[test]
    fn prepared_digests_are_hashed_once_and_only_for_a_store() {
        use crate::traces::TraceCache;
        let _lock = cbsp_trace::test_lock();
        let gzip = Prepared::of(&workloads::by_name("gzip").expect("in suite"), Scale::Test);
        let config = CbspConfig {
            interval_target: 20_000,
            ..CbspConfig::default()
        };
        let (mem, pool) = (cbsp_sim::MemoryConfig::table1(), cbsp_par::Pool::new(2));
        let leases = |cache: &TraceCache, cross: &CrossBinaryResult| {
            let target = config.interval_target;
            let fli = cache.fli_simpoints(&gzip, target, &config.simpoint, &pool);
            let sims = cache.replay_sliced_both_all(&gzip, &mem, &cross.boundaries, target, &pool);
            (fli.expect("clusters"), sims.expect("simulates"))
        };

        let cross = cbsp_core::run_cross_binary(&gzip.refs(), gzip.input(), &config).expect("runs");
        let plain = leases(&TraceCache::new(None), &cross);
        assert!(
            gzip.digests.get().is_none(),
            "a store-less run hashes nothing"
        );

        let dir = std::env::temp_dir().join(format!("cbsp-prepared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let (stored, _) = Orchestrator::new(&store, CachePolicy::ReadWrite)
            .run_prepared(&gzip, &config, "prepared")
            .expect("runs");
        let hashed: *const Digests = gzip.digests.get().expect("a store-backed run hashes");
        let cache = TraceCache::new(Some(&store));
        assert_eq!(leases(&cache, &stored), plain, "cold leases");
        assert_eq!(leases(&cache, &stored), plain, "warm leases");
        gzip.keys(&config).expect("keys derive");
        assert!(std::ptr::eq(hashed, gzip.digests()), "hashed once");
        assert_eq!(stored, cross);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_estimator_uses_plain_namespaces() {
        let ns = stage_namespaces(&EstimatorConfig::default(), false);
        assert_eq!(
            (ns.vli.as_str(), ns.simpoint.as_str(), ns.map.as_str()),
            ("vli", "simpoint", "map")
        );
        let strat = stage_namespaces(&EstimatorConfig::parse("stratified").expect("known"), false);
        assert_eq!(strat.vli, "vli", "selector lanes share the vli namespace");
        assert_eq!(strat.simpoint, "simpoint@stratified");
        assert_eq!(strat.map, "map@stratified");
        let mav = stage_namespaces(&EstimatorConfig::parse("bbv+mav").expect("known"), false);
        assert_eq!(mav.vli, "vli@bbv+mav");
        assert_eq!(mav.simpoint, "simpoint@bbv+mav");
    }

    #[test]
    fn fuzzy_namespaces_are_suffixed_everywhere() {
        let ns = stage_namespaces(&EstimatorConfig::default(), true);
        assert_eq!(
            (ns.vli.as_str(), ns.simpoint.as_str(), ns.map.as_str()),
            ("vli@fuzzy", "simpoint@fuzzy", "map@fuzzy")
        );
        let mav = stage_namespaces(&EstimatorConfig::parse("bbv+mav").expect("known"), true);
        assert_eq!(mav.vli, "vli@bbv+mav@fuzzy");
        assert_eq!(mav.simpoint, "simpoint@bbv+mav@fuzzy");
        assert_eq!(mav.map, "map@bbv+mav@fuzzy");
    }

    #[test]
    fn fuzzy_keys_never_collide_with_exact_lanes() {
        use cbsp_core::FuzzyConfig;
        let bins = binaries("swim");
        let refs: Vec<&Binary> = bins.iter().collect();
        let input = Input::test();
        let of = |fuzzy: Option<FuzzyConfig>| {
            let config = CbspConfig {
                fuzzy,
                ..CbspConfig::default()
            };
            pipeline_keys(&refs, &input, &config).expect("keys derive")
        };
        let exact = of(None);
        let fuzzy = of(Some(FuzzyConfig::default()));
        let loose = of(Some(FuzzyConfig { threshold: 0.3 }));

        // Invariant 8: no estimator-dependent key of a fuzzy run may
        // collide with an exact lane's.
        assert_eq!(exact.profile, fuzzy.profile);
        assert_eq!(exact.mappable, fuzzy.mappable);
        assert_ne!(exact.vli, fuzzy.vli);
        assert_ne!(exact.simpoint, fuzzy.simpoint);
        assert_ne!(exact.map, fuzzy.map);
        // Thresholds differ only in matching: map keys split, upstream
        // artifacts are shared.
        assert_eq!(fuzzy.vli, loose.vli);
        assert_eq!(fuzzy.simpoint, loose.simpoint);
        assert_ne!(fuzzy.map, loose.map);
    }

    /// With one thread every stage execution polls the check once, in
    /// pipeline order. A check that fires from its k-th poll on stops
    /// the run before the k-th execution, leaves the k − 1 artifacts
    /// written before it readable, and a rerun without the check hits
    /// exactly those and returns the uncancelled result.
    #[test]
    fn cancellation_stops_at_every_stage_boundary() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let _lock = cbsp_trace::test_lock();
        let bins = binaries("gzip");
        let refs: Vec<&Binary> = bins.iter().collect();
        let input = Input::test();
        let simpoint = SimPointConfig {
            threads: 1,
            ..SimPointConfig::default()
        };
        let config = CbspConfig {
            interval_target: 20_000,
            simpoint,
            ..CbspConfig::default()
        };
        let uncancelled = cbsp_core::run_cross_binary(&refs, &input, &config).expect("runs");
        // (stage, key) of every execution, in order; the default lane
        // stores each stage under its own name.
        let keys = pipeline_keys(&refs, &input, &config).expect("keys derive");
        let mut executions: Vec<(&str, &StageKey)> =
            keys.profile.iter().map(|key| ("profile", key)).collect();
        executions.extend([
            ("mappable", &keys.mappable),
            ("vli", &keys.vli),
            ("simpoint", &keys.simpoint),
            ("map", &keys.map),
        ]);
        let polling = |dir: &std::path::Path, fire_from: usize| {
            let _ = std::fs::remove_dir_all(dir);
            let store = ArtifactStore::open(dir).expect("store opens");
            let polls = Arc::new(AtomicUsize::new(0));
            let counter = Arc::clone(&polls);
            let check = Arc::new(move || counter.fetch_add(1, Ordering::SeqCst) + 1 >= fire_from);
            let run = Orchestrator::new(&store, CachePolicy::ReadWrite)
                .with_cancel(check)
                .run_cross_binary(&refs, &input, &config, "cancelled")
                .map(|(result, _)| result);
            (store, run, polls.load(Ordering::SeqCst))
        };

        let dir = std::env::temp_dir().join(format!("cbsp-cancel-{}", std::process::id()));
        let (_, run, polls) = polling(&dir, usize::MAX);
        assert_eq!(run.expect("never cancelled"), uncancelled);
        assert_eq!(polls, executions.len(), "one poll per stage execution");

        for k in 1..=polls {
            let (store, run, _) = polling(&dir, k);
            match run {
                Err(CbspError::Cancelled { stage }) => assert_eq!(stage, executions[k - 1].0),
                other => panic!("k = {k}: expected a cancellation, got {other:?}"),
            }
            assert_eq!(store.stats().expect("stats").artifacts, k as u64 - 1);
            for (stage, key) in &executions[..k - 1] {
                let stored = store.get::<Value>(stage, key).expect("reads back");
                assert!(stored.is_some(), "k = {k}: {stage} was written");
            }
            let (result, report) = Orchestrator::new(&store, CachePolicy::ReadWrite)
                .run_cross_binary(&refs, &input, &config, "rerun")
                .expect("reruns");
            assert_eq!(result, uncancelled, "k = {k}");
            assert_eq!(report.hits(), k - 1, "k = {k}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
