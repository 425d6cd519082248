//! # cbsp-store — content-addressed artifacts + incremental pipeline
//!
//! Infrastructure the paper's experiments lean on implicitly: profiling
//! and clustering runs are deterministic functions of their inputs, so
//! their outputs can be cached on disk and shared across CLI runs,
//! benchmark sweeps, and figure regeneration.
//!
//! Layers:
//!
//! * [`ArtifactStore`] — a content-addressed on-disk store. Artifacts
//!   are keyed by the SHA-256 of a canonical description of their
//!   inputs, written as checksummed, schema-versioned JSON envelopes
//!   ([`ArtifactStore::put`]) or binary blobs
//!   ([`ArtifactStore::put_blob`]), and described by human-readable run
//!   manifests. Each tier has one write, which always replaces the file
//!   through write-then-rename. Corruption is detected on read and
//!   reported as a typed [`CbspError`](cbsp_core::CbspError) — never a
//!   panic.
//! * [`Orchestrator`] — `cbsp-core`'s stage driver
//!   ([`cbsp_core::run_stages`]) with a store hook: the five-stage graph
//!   (`profile → mappable → vli → simpoint → map`) with per-stage cache
//!   lookup, key-chained invalidation, cancellation between stages, and
//!   parallel profile collection across binaries. Without a store the
//!   same driver is [`cbsp_core::run_cross_binary`].
//! * [`TraceCache`] — the evaluation's leases: its detailed
//!   simulations, which every CPI estimate of the same binaries reads
//!   too ([`TraceCache::estimate_cpi`]), and its per-binary FLI
//!   clusterings ([`TraceCache::fli_simpoints`]), plus the slice
//!   manifests the end-to-end benchmark's probe cuts.
//! * [`Prepared`] — one program's binaries and their input, the unit
//!   every run and lease is keyed on. It hashes them once, on first
//!   use, and every stage and lease key of its runs derives from those
//!   digests.
//!
//! Every cached lookup in the crate, stage or lease, follows one
//! repair-as-miss contract: a damaged artifact counts as a miss, is
//! recomputed, and is written over.
//!
//! ## Example
//!
//! ```
//! use cbsp_program::{workloads, Scale};
//! use cbsp_core::CbspConfig;
//! use cbsp_store::{ArtifactStore, CachePolicy, Orchestrator, Prepared};
//!
//! let dir = std::env::temp_dir().join(format!("cbsp-store-doc-{}", std::process::id()));
//! let store = ArtifactStore::open(&dir).expect("store opens");
//! let swim = Prepared::of(&workloads::by_name("swim").expect("in suite"), Scale::Test);
//! let config = CbspConfig { interval_target: 20_000, ..CbspConfig::default() };
//!
//! let orch = Orchestrator::new(&store, CachePolicy::ReadWrite);
//! let (first, cold) = orch.run_prepared(&swim, &config, "swim/test").expect("pipeline runs");
//! let (second, warm) = orch.run_prepared(&swim, &config, "swim/test").expect("pipeline runs");
//! assert_eq!(first, second);
//! assert_eq!(cold.hits(), 0);
//! assert_eq!(warm.misses(), 0);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

// The SHA-extensions kernel in `sha256` is the one exception.
#![deny(unsafe_code)]

pub mod blob;
pub mod orchestrator;
pub mod sha256;
pub mod store;
pub mod traces;

pub use blob::{
    derived_key, Blob, BLOB_FORMAT_VERSION, BLOB_HEADER_LEN, BLOB_MAGIC, BLOB_STAGE_MAX,
};
pub use orchestrator::{
    clustering_key, pipeline_keys, stage_namespaces, CachePolicy, Orchestrator, PipelineKeys,
    Prepared, RunReport, StageNamespaces, StageOutcome, STAGE_ORDER,
};
pub use sha256::{hex_digest, Sha256};
pub use store::{
    canonical_json, content_hash, key_part, stage_key, ArtifactStore, GcReport, ManifestStage,
    RunManifest, StageKey, StageStats, StoreStats, SCHEMA_VERSION,
};
pub use traces::{
    trace_key, trace_slice_key, CpiEstimate, TraceCache, FLI_STAGE, LEASE_STAGES, REPLAY_STAGE,
    TRACE_SLICE_STAGE, TRACE_STAGE,
};
