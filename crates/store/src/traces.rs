//! Content-addressed evaluation cache: replay leases, FLI leases and
//! per-simpoint slice manifests, optionally backed by the
//! [`ArtifactStore`].
//!
//! Every simulation interprets its binary straight into the simulator
//! sink; nothing here records a whole [`EventTrace`] for later replay,
//! because decoding one costs about as much as interpreting the binary
//! again. What is worth keeping is smaller:
//!
//! * a **replay lease** ([`TraceCache::replay_sliced_both_all`]): the
//!   detailed simulations of one evaluation, each binary simulated
//!   once into its marker-bounded and its fixed-length slicing. A
//!   warm-store evaluation reads the results back and simulates
//!   nothing; every field is an integer counter, so a hit is
//!   bit-identical to the simulation it replaces. Every product CPI
//!   estimate reads the same lease ([`TraceCache::estimate_cpi`]), so
//!   one lease serves the evaluation and every estimator lane of a
//!   (benchmark, scale, interval);
//! * an **FLI lease** ([`TraceCache::fli_simpoints`]): the per-binary
//!   SimPoint baseline of one evaluation, each binary's fixed-length
//!   intervals clustered on their own. A warm-store evaluation reads the
//!   four clusterings back and profiles and clusters nothing;
//! * a **sliced trace** ([`TraceCache::get_slices`]): for one binary,
//!   its whole-run statistics plus one exact state checkpoint and the
//!   events of each selected interval, cut from one direct run. Only
//!   the end-to-end benchmark's slice-replay probe reads them.
//!
//! ## The binary blob tier
//!
//! Persistent artifacts are written to the store's **blob tier** (see
//! [`crate::blob`]): raw checksummed binary files under the content
//! digests, with event bytes stored verbatim. A sliced-trace manifest
//! names its per-slice blobs, which are read back in interval order.
//!
//! The blob is the encoding of every lease here but the FLI lease, a
//! few kilobytes of clustering results stored as the JSON envelope the
//! `simpoint` stage already uses for them. Slice and replay artifacts
//! are leases — no run manifest references them, so
//! `gc` always evicts them — and a JSON envelope left by an older
//! version is therefore a plain miss: the artifact is re-materialized,
//! its blob lands beside the envelope, and the next `gc` evicts the
//! envelope. Corrupt or truncated blobs follow the repair-as-miss
//! contract: typed errors, re-materialize, rewrite in place.
//!
//! ## Whole traces
//!
//! The [`TRACE_STAGE`] namespace and [`TraceCache::get_or_record`]
//! remain only for the benchmark's blob-throughput probes, which
//! record a trace, write it and read it back. Stores written by older
//! versions hold a `trace` blob per binary; nothing reads them, and
//! `gc` evicts them like every other lease.

use cbsp_core::{run_per_binary, stratified_ci, weighted_cpi_with, CbspError, CrossBinaryResult};
use cbsp_par::Pool;
use cbsp_profile::ExecPoint;
use cbsp_program::{Binary, Input};
use cbsp_sim::{
    record_trace, simulate_sliced_both, slice_trace, BothSlicings, EventTrace, IntervalSim,
    LevelStats, MemoryConfig, SimStats, SlicedTrace, TraceSlice,
};
use cbsp_simpoint::{SimPointConfig, SimPointResult};

use crate::blob::{derived_key, Blob};
use crate::orchestrator::Prepared;
use crate::store::{
    content_hash, corrupt, key_part, read_through, stage_key, ArtifactStore, StageKey,
};
use serde::Value;

/// Stage name whole recorded traces are stored under, by
/// [`TraceCache::get_or_record`] alone.
pub const TRACE_STAGE: &str = "trace";

/// Stage name sliced-trace manifests (and their per-slice blobs) are
/// stored under. Like [`TRACE_STAGE`], artifacts in this namespace are
/// never referenced by run manifests, so `gc` always evicts them.
pub const TRACE_SLICE_STAGE: &str = "trace_slice";

/// Stage name replay leases are stored under: the detailed simulations
/// of one evaluation, written by [`TraceCache::replay_sliced_both_all`].
/// Like [`TRACE_SLICE_STAGE`], no run manifest references them, so `gc`
/// always evicts them.
pub const REPLAY_STAGE: &str = "replay";

/// Stage name FLI leases are stored under: the per-binary SimPoint
/// clusterings of one evaluation, written by
/// [`TraceCache::fli_simpoints`]. Like [`REPLAY_STAGE`], no run
/// manifest references them, so `gc` always evicts them.
pub const FLI_STAGE: &str = "fli";

/// Every lease namespace. Artifacts in these stages are never
/// referenced by run manifests — `gc` always evicts them, and the
/// trace cache re-materializes slices and leases on next use — while
/// everything else in the store is a pipeline-stage artifact.
pub const LEASE_STAGES: [&str; 4] = [TRACE_STAGE, TRACE_SLICE_STAGE, REPLAY_STAGE, FLI_STAGE];

/// Content key of the trace for `(binary, input)`.
pub fn trace_key(binary: &Binary, input: &Input) -> StageKey {
    stage_key(
        TRACE_STAGE,
        &[
            Value::Str(content_hash(binary)),
            Value::Str(content_hash(input)),
        ],
    )
}

/// Content key of the slice manifest for `(binary, input)` sliced at
/// `boundaries` under `config`, covering `selected` intervals.
///
/// Every input that shapes the slices is keyed: the binary and input
/// digests (which events exist), the boundary list (where intervals
/// cut), the memory configuration (immaterial to the bytes, but kept so
/// a config change can never serve a stale ground-truth `full` field),
/// and the selected interval set. `selected` must be sorted and
/// deduplicated — [`TraceCache::get_slices`] normalizes before keying —
/// so the key is order-insensitive.
pub fn trace_slice_key(
    binary: &Binary,
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[ExecPoint],
    selected: &[usize],
) -> StageKey {
    stage_key(
        TRACE_SLICE_STAGE,
        &[
            Value::Str(content_hash(binary)),
            Value::Str(content_hash(input)),
            Value::Str(content_hash(config)),
            Value::Str(content_hash(boundaries)),
            Value::Str(content_hash(selected)),
        ],
    )
}

/// Content key of the replay lease for `prepared`'s binaries and input,
/// each binary simulated under `config` and sliced at its own
/// `boundaries` list and at `fli_target` instructions.
///
/// Every input that shapes the results is keyed, by the rule
/// [`trace_slice_key`] follows: the input (which events exist), the
/// memory configuration (what each event costs), the FLI target, and
/// per binary, in order, its digest and its boundary list (where its
/// marker intervals cut).
fn replay_key(
    prepared: &Prepared,
    config: &MemoryConfig,
    boundaries: &[Vec<ExecPoint>],
    fli_target: u64,
) -> StageKey {
    let digests = prepared.digests();
    let per_binary = digests
        .binaries
        .iter()
        .zip(boundaries)
        .map(|(digest, cuts)| {
            Value::Array(vec![
                Value::Str(digest.clone()),
                Value::Str(content_hash(cuts)),
            ])
        })
        .collect();
    stage_key(
        REPLAY_STAGE,
        &[
            Value::Str(digests.input.clone()),
            Value::Str(content_hash(config)),
            Value::UInt(fli_target),
            Value::Array(per_binary),
        ],
    )
}

/// Content key of the FLI lease for `prepared`'s binaries and input,
/// each binary profiled at `interval_target`-instruction intervals and
/// clustered under `config`: the binary digests in order, the input
/// digest, the interval target and the configuration with `threads`
/// normalized to 0, as the `simpoint` stage key does (clustering is
/// bit-identical at any thread count).
fn fli_key(prepared: &Prepared, interval_target: u64, config: &SimPointConfig) -> StageKey {
    let digests = prepared.digests();
    let mut inputs: Vec<Value> = digests
        .binaries
        .iter()
        .map(|digest| Value::Str(digest.clone()))
        .collect();
    inputs.push(Value::Str(digests.input.clone()));
    inputs.push(Value::UInt(interval_target));
    inputs.push(key_part(&SimPointConfig {
        threads: 0,
        ..*config
    }));
    stage_key(FLI_STAGE, &inputs)
}

// ---------------------------------------------------------------------
// Blob-tier encodings
// ---------------------------------------------------------------------

fn read_u32(b: &[u8], pos: &mut usize) -> Option<u32> {
    let s = b.get(*pos..*pos + 4)?;
    *pos += 4;
    Some(u32::from_le_bytes(s.try_into().ok()?))
}

fn read_u64(b: &[u8], pos: &mut usize) -> Option<u64> {
    let s = b.get(*pos..*pos + 8)?;
    *pos += 8;
    Some(u64::from_le_bytes(s.try_into().ok()?))
}

fn stats_fields(s: &SimStats) -> [u64; 13] {
    [
        s.instructions,
        s.cycles,
        s.accesses,
        s.levels[0].hits,
        s.levels[0].misses,
        s.levels[1].hits,
        s.levels[1].misses,
        s.levels[2].hits,
        s.levels[2].misses,
        s.dram_accesses,
        s.dram_writebacks,
        s.branches,
        s.branch_mispredicts,
    ]
}

fn read_stats(b: &[u8], pos: &mut usize) -> Option<SimStats> {
    let mut f = [0u64; 13];
    for v in &mut f {
        *v = read_u64(b, pos)?;
    }
    Some(SimStats {
        instructions: f[0],
        cycles: f[1],
        accesses: f[2],
        levels: [
            LevelStats {
                hits: f[3],
                misses: f[4],
            },
            LevelStats {
                hits: f[5],
                misses: f[6],
            },
            LevelStats {
                hits: f[7],
                misses: f[8],
            },
        ],
        dram_accesses: f[9],
        dram_writebacks: f[10],
        branches: f[11],
        branch_mispredicts: f[12],
    })
}

/// Blob meta of a full trace: `n_procs` + `n_loops` + `events`, all LE.
/// The payload is the varint event bytes verbatim.
fn trace_blob_meta(trace: &EventTrace) -> [u8; 16] {
    let mut m = [0u8; 16];
    m[0..4].copy_from_slice(&trace.n_procs.to_le_bytes());
    m[4..8].copy_from_slice(&trace.n_loops.to_le_bytes());
    m[8..16].copy_from_slice(&trace.events.to_le_bytes());
    m
}

/// Adopts a verified trace blob as an [`EventTrace`]. The payload
/// buffer *is* the event buffer — no copy.
fn decode_trace_blob(blob: Blob) -> Option<EventTrace> {
    if blob.meta.len() != 16 {
        return None;
    }
    let mut p = 0;
    let n_procs = read_u32(&blob.meta, &mut p)?;
    let n_loops = read_u32(&blob.meta, &mut p)?;
    let events = read_u64(&blob.meta, &mut p)?;
    Some(EventTrace {
        n_procs,
        n_loops,
        events,
        bytes: blob.payload,
    })
}

/// Decoded slice-manifest blob: ground truth plus which per-slice
/// blobs to prefetch (their derived keys follow from the intervals).
struct SliceManifest {
    n_procs: u32,
    n_loops: u32,
    full: SimStats,
    intervals: usize,
    slice_intervals: Vec<u64>,
}

/// Blob meta of a slice manifest: dims, ground-truth statistics,
/// interval count, and the selected interval list. The payload is
/// empty — slice bytes live in their own per-slice blobs under
/// [`derived_key`]`(manifest, "slice", interval)`.
fn slice_manifest_meta(n_procs: u32, n_loops: u32, sliced: &SlicedTrace) -> Vec<u8> {
    let mut m = Vec::with_capacity(8 + 104 + 12 + 8 * sliced.slices.len());
    m.extend_from_slice(&n_procs.to_le_bytes());
    m.extend_from_slice(&n_loops.to_le_bytes());
    for v in stats_fields(&sliced.full) {
        m.extend_from_slice(&v.to_le_bytes());
    }
    m.extend_from_slice(&(sliced.intervals as u64).to_le_bytes());
    m.extend_from_slice(&(sliced.slices.len() as u32).to_le_bytes());
    for s in &sliced.slices {
        m.extend_from_slice(&(s.interval as u64).to_le_bytes());
    }
    m
}

fn decode_slice_manifest(blob: Blob) -> Option<SliceManifest> {
    if !blob.payload.is_empty() {
        return None;
    }
    let b = &blob.meta;
    let mut p = 0;
    let n_procs = read_u32(b, &mut p)?;
    let n_loops = read_u32(b, &mut p)?;
    let full = read_stats(b, &mut p)?;
    let intervals = read_u64(b, &mut p)?;
    let n_slices = read_u32(b, &mut p)? as usize;
    // The count comes off disk: bound it by the bytes that remain
    // before allocating for it.
    if n_slices.checked_mul(8)? != b.len() - p {
        return None;
    }
    let mut slice_intervals = Vec::with_capacity(n_slices);
    for _ in 0..n_slices {
        slice_intervals.push(read_u64(b, &mut p)?);
    }
    Some(SliceManifest {
        n_procs,
        n_loops,
        full,
        intervals: intervals as usize,
        slice_intervals,
    })
}

/// Blob meta of one per-slice blob: its interval, event count, and
/// checkpoint length. The payload is the re-based event bytes followed
/// by the packed state checkpoint — state last, so decoding can split
/// the small checkpoint off the end and adopt the truncated payload as
/// the event buffer without copying it.
fn slice_blob_parts(slice: &TraceSlice) -> ([u8; 20], Vec<u8>) {
    let mut m = [0u8; 20];
    m[0..8].copy_from_slice(&(slice.interval as u64).to_le_bytes());
    m[8..16].copy_from_slice(&slice.trace.events.to_le_bytes());
    m[16..20].copy_from_slice(&(slice.state.len() as u32).to_le_bytes());
    let mut payload = Vec::with_capacity(slice.trace.bytes.len() + slice.state.len());
    payload.extend_from_slice(&slice.trace.bytes);
    payload.extend_from_slice(&slice.state);
    (m, payload)
}

fn decode_slice_blob(
    expected_interval: u64,
    n_procs: u32,
    n_loops: u32,
    blob: Blob,
) -> Option<TraceSlice> {
    if blob.meta.len() != 20 {
        return None;
    }
    let mut p = 0;
    let interval = read_u64(&blob.meta, &mut p)?;
    let events = read_u64(&blob.meta, &mut p)?;
    let state_len = read_u32(&blob.meta, &mut p)? as usize;
    if interval != expected_interval {
        return None;
    }
    let mut payload = blob.payload;
    if state_len > payload.len() {
        return None;
    }
    let state = payload.split_off(payload.len() - state_len);
    Some(TraceSlice {
        interval: interval as usize,
        state,
        trace: EventTrace {
            n_procs,
            n_loops,
            events,
            bytes: payload,
        },
    })
}

/// Bytes of one [`IntervalSim`] in a replay lease's payload.
const INTERVAL_BYTES: usize = 5 * 8;

/// Bytes of one binary's entry in a replay lease's meta: 13 whole-run
/// statistics plus the marker and FLI interval counts.
const REPLAY_ENTRY_BYTES: usize = 15 * 8;

/// Blob parts of a replay lease. Meta: the binary count, then per
/// binary its whole-run [`SimStats`] and its marker and FLI interval
/// counts. Payload: every interval's five [`IntervalSim`] fields, per
/// binary its marker intervals then its FLI intervals. All LE.
fn replay_blob_parts(sims: &[BothSlicings]) -> (Vec<u8>, Vec<u8>) {
    let mut meta = Vec::with_capacity(4 + REPLAY_ENTRY_BYTES * sims.len());
    meta.extend_from_slice(&(sims.len() as u32).to_le_bytes());
    let intervals: usize = sims.iter().map(|s| s.marker.len() + s.fli.len()).sum();
    let mut payload = Vec::with_capacity(INTERVAL_BYTES * intervals);
    for sim in sims {
        for v in stats_fields(&sim.stats) {
            meta.extend_from_slice(&v.to_le_bytes());
        }
        meta.extend_from_slice(&(sim.marker.len() as u64).to_le_bytes());
        meta.extend_from_slice(&(sim.fli.len() as u64).to_le_bytes());
        for i in sim.marker.iter().chain(&sim.fli) {
            for v in [
                i.instructions,
                i.cycles,
                i.accesses,
                i.l1_misses,
                i.dram_accesses,
            ] {
                payload.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    (meta, payload)
}

/// Decodes a replay lease of `binaries` binaries. Every count is
/// checked against the section it describes before anything is
/// allocated for it, so a lease whose counts disagree with its bytes
/// is a miss, not an allocation.
fn decode_replay_blob(binaries: usize, blob: Blob) -> Option<Vec<BothSlicings>> {
    let b = &blob.meta;
    let mut p = 0;
    let n = read_u32(b, &mut p)? as usize;
    if n != binaries || n.checked_mul(REPLAY_ENTRY_BYTES)? != b.len() - p {
        return None;
    }
    let mut entries = Vec::with_capacity(n);
    let mut intervals = 0usize;
    for _ in 0..n {
        let stats = read_stats(b, &mut p)?;
        let marker = usize::try_from(read_u64(b, &mut p)?).ok()?;
        let fli = usize::try_from(read_u64(b, &mut p)?).ok()?;
        intervals = intervals.checked_add(marker)?.checked_add(fli)?;
        entries.push((stats, marker, fli));
    }
    if intervals.checked_mul(INTERVAL_BYTES)? != blob.payload.len() {
        return None;
    }
    let mut q = 0;
    let mut next_interval = || -> Option<IntervalSim> {
        Some(IntervalSim {
            instructions: read_u64(&blob.payload, &mut q)?,
            cycles: read_u64(&blob.payload, &mut q)?,
            accesses: read_u64(&blob.payload, &mut q)?,
            l1_misses: read_u64(&blob.payload, &mut q)?,
            dram_accesses: read_u64(&blob.payload, &mut q)?,
        })
    };
    entries
        .into_iter()
        .map(|(stats, marker, fli)| {
            Some(BothSlicings {
                stats,
                marker: (0..marker)
                    .map(|_| next_interval())
                    .collect::<Option<_>>()?,
                fli: (0..fli).map(|_| next_interval()).collect::<Option<_>>()?,
            })
        })
        .collect()
}

/// Writes a [`SlicedTrace`] to the blob tier: per-slice blobs first,
/// manifest last, so a reader that finds the manifest finds every
/// slice it names.
fn put_slice_blobs(
    store: &ArtifactStore,
    key: &StageKey,
    binary: &Binary,
    sliced: &SlicedTrace,
) -> Result<(), CbspError> {
    for s in &sliced.slices {
        let (meta, payload) = slice_blob_parts(s);
        let skey = derived_key(key, "slice", s.interval as u64);
        store.put_blob(TRACE_SLICE_STAGE, &skey, &meta, &payload)?;
    }
    let meta = slice_manifest_meta(binary.procs.len() as u32, binary.loops.len() as u32, sliced);
    store.put_blob(TRACE_SLICE_STAGE, key, &meta, &[])
}

/// Reads the blob of (`stage`, `key`) and decodes it with `decode`. A
/// blob that passes its framing checks but does not decode is as
/// damaged as one that fails them: [`CbspError::ArtifactCorrupt`].
fn read_blob<T>(
    store: &ArtifactStore,
    stage: &str,
    key: &StageKey,
    decode: impl FnOnce(Blob) -> Option<T>,
) -> Result<Option<T>, CbspError> {
    store
        .get_blob(stage, key)?
        .map(|blob| decode(blob).ok_or_else(|| corrupt(key, "blob payload does not decode")))
        .transpose()
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// A cache of replay leases, FLI leases and sliced traces, backed by
/// an optional store. It holds nothing in memory: every hit is read
/// back from the store, and without a store every call computes.
#[derive(Debug)]
pub struct TraceCache<'s> {
    store: Option<&'s ArtifactStore>,
}

impl<'s> TraceCache<'s> {
    /// Creates a cache backed by `store` (pass `None` to simulate, or
    /// cut slices, on every call).
    pub fn new(store: Option<&'s ArtifactStore>) -> Self {
        TraceCache { store }
    }

    /// Returns the recorded trace for `(binary, input)`: one store round
    /// trip. A hit decodes the stored blob (`sim/trace_cache_hits`); a
    /// miss — or a corrupt blob, repaired in place — records the trace
    /// and writes it (`sim/trace_cache_misses`). Without a store tier
    /// every call records. Nothing keeps the trace in memory.
    ///
    /// Nothing in the pipeline calls this: it stays only because the
    /// benchmark's `store.blob_*_mb_s` probes do, each time through a
    /// fresh cache.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure.
    pub fn get_or_record(&self, binary: &Binary, input: &Input) -> Result<EventTrace, CbspError> {
        let key = trace_key(binary, input);
        let (trace, hit) = read_through(
            self.store,
            |store| read_blob(store, TRACE_STAGE, &key, decode_trace_blob),
            || {
                cbsp_trace::add("sim/trace_cache_misses", 1);
                Ok(record_trace(binary, input))
            },
            |store, trace| store.put_blob(TRACE_STAGE, &key, &trace_blob_meta(trace), &trace.bytes),
        )?;
        if hit {
            cbsp_trace::add("sim/trace_cache_hits", 1);
        }
        Ok(trace)
    }

    /// The detailed simulations of one evaluation: each of `prepared`'s
    /// binaries simulated once on its input under `config` into both its
    /// marker slicing at `boundaries[b]` and its fixed
    /// `fli_target`-instruction slicing
    /// ([`cbsp_sim::simulate_sliced_both`]), in binary order.
    ///
    /// With a store tier the results are a lease, one blob for all the
    /// binaries under [`REPLAY_STAGE`], keyed on `prepared`'s digests: a
    /// hit reads it back and simulates nothing
    /// (`sim/replay_cache_hits`); a miss simulates the binaries in
    /// parallel over `pool` and writes the lease
    /// (`sim/replay_cache_misses`). Without a store tier every call
    /// simulates and nothing is hashed.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. A damaged lease,
    /// or one whose counts disagree with its payload, is treated as a
    /// miss and repaired in place.
    ///
    /// # Panics
    ///
    /// Panics if `boundaries` does not hold one list per binary, if
    /// `fli_target` is zero, or if some boundary is never reached by
    /// its binary's execution (same contract as
    /// [`cbsp_sim::simulate_sliced_both`]).
    pub fn replay_sliced_both_all(
        &self,
        prepared: &Prepared,
        config: &MemoryConfig,
        boundaries: &[Vec<ExecPoint>],
        fli_target: u64,
        pool: &Pool,
    ) -> Result<Vec<BothSlicings>, CbspError> {
        let (binaries, input) = (prepared.binaries(), prepared.input());
        assert_eq!(
            binaries.len(),
            boundaries.len(),
            "one boundary list per binary"
        );
        let simulate = || {
            pool.run_indexed(binaries.len(), |b| {
                simulate_sliced_both(&binaries[b], input, config, &boundaries[b], fli_target)
            })
        };
        let Some(store) = self.store else {
            return Ok(simulate());
        };
        let key = replay_key(prepared, config, boundaries, fli_target);
        let (sims, hit) = read_through(
            Some(store),
            |store| {
                read_blob(store, REPLAY_STAGE, &key, |blob| {
                    decode_replay_blob(binaries.len(), blob)
                })
            },
            || {
                cbsp_trace::add("sim/replay_cache_misses", 1);
                Ok(simulate())
            },
            |store, sims| {
                let (meta, payload) = replay_blob_parts(sims);
                store.put_blob(REPLAY_STAGE, &key, &meta, &payload)
            },
        )?;
        if hit {
            cbsp_trace::add("sim/replay_cache_hits", 1);
        }
        Ok(sims)
    }

    /// True and SimPoint-estimated CPI of every binary of `cross`, in
    /// binary order: the detailed simulations of
    /// [`TraceCache::replay_sliced_both_all`] of `prepared` at
    /// `cross.boundaries` and `interval_target`, each binary's marker
    /// intervals weighted by [`CpiEstimate::from_marker_intervals`].
    /// With the memory configuration and interval target of an
    /// evaluation of the same binaries, this reads that evaluation's
    /// replay lease and simulates nothing; estimator lanes share the
    /// VLI cutting, so they share the lease too.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure.
    ///
    /// # Panics
    ///
    /// As [`TraceCache::replay_sliced_both_all`]: if `prepared` and
    /// `cross.boundaries` differ in length, if `interval_target` is
    /// zero, or if some boundary of `cross` is never reached by its
    /// binary (as when the binaries are not `cross`'s).
    pub fn estimate_cpi(
        &self,
        prepared: &Prepared,
        config: &MemoryConfig,
        cross: &CrossBinaryResult,
        interval_target: u64,
        pool: &Pool,
    ) -> Result<Vec<CpiEstimate>, CbspError> {
        let sims = self.replay_sliced_both_all(
            prepared,
            config,
            &cross.boundaries,
            interval_target,
            pool,
        )?;
        Ok(sims
            .iter()
            .enumerate()
            .map(|(b, sim)| CpiEstimate::from_marker_intervals(cross, b, &sim.stats, &sim.marker))
            .collect())
    }

    /// The per-binary (FLI) SimPoint baseline of one evaluation, in
    /// binary order: each of `prepared`'s binaries profiled on its input
    /// at fixed `interval_target`-instruction intervals and clustered
    /// under `config` ([`run_per_binary`]), the binaries side by side
    /// over `pool`, each clustering with its share of the thread budget
    /// (`config.threads` is ignored).
    ///
    /// With a store tier the clusterings are a lease, one JSON envelope
    /// for all the binaries under [`FLI_STAGE`], keyed like the replay
    /// lease on `prepared`'s digests: a hit reads it back and profiles
    /// and clusters nothing (`simpoint/fli_cache_hits`); a miss computes
    /// and writes the lease (`simpoint/fli_cache_misses`). Without a
    /// store tier every call computes and nothing is hashed.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. A damaged
    /// lease, or one that does not hold one clustering per binary, is
    /// treated as a miss and repaired in place.
    ///
    /// # Panics
    ///
    /// Panics if `interval_target` is zero.
    pub fn fli_simpoints(
        &self,
        prepared: &Prepared,
        interval_target: u64,
        config: &SimPointConfig,
        pool: &Pool,
    ) -> Result<Vec<SimPointResult>, CbspError> {
        let (binaries, input) = (prepared.binaries(), prepared.input());
        let compute = || {
            let config = SimPointConfig {
                threads: pool.split(binaries.len()).threads(),
                ..*config
            };
            pool.run_indexed(binaries.len(), |b| {
                run_per_binary(&binaries[b], input, interval_target, &config).simpoint
            })
        };
        let Some(store) = self.store else {
            return Ok(compute());
        };
        let key = fli_key(prepared, interval_target, config);
        let (simpoints, hit) = read_through(
            Some(store),
            |store| {
                let stored = store.get::<Vec<SimPointResult>>(FLI_STAGE, &key)?;
                match stored {
                    Some(s) if s.len() != binaries.len() => Err(corrupt(
                        &key,
                        format!("{} clusterings for {} binaries", s.len(), binaries.len()),
                    )),
                    stored => Ok(stored),
                }
            },
            || {
                cbsp_trace::add("simpoint/fli_cache_misses", 1);
                Ok(compute())
            },
            |store, simpoints| store.put(FLI_STAGE, &key, simpoints),
        )?;
        if hit {
            cbsp_trace::add("simpoint/fli_cache_hits", 1);
        }
        Ok(simpoints)
    }

    /// Returns the per-simpoint slice manifest for `(binary, input)`
    /// cut at `boundaries` covering `selected` intervals (order and
    /// duplicates do not matter), cutting it from one direct run
    /// ([`cbsp_sim::slice_trace`]) unless the store has it. A store hit
    /// reads the manifest blob, then each per-slice blob in interval
    /// order (`sim/full_replay_avoided` counts hits).
    ///
    /// Only the end-to-end benchmark's `sim.slice_replay_us` probe calls
    /// this; every CPI estimate reads a replay lease instead.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. Corrupt stored
    /// manifests or slice blobs are treated as misses and repaired in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if some boundary is never reached by the binary's
    /// execution (same contract as [`cbsp_sim::slice_trace`]).
    pub fn get_slices(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        selected: &[usize],
    ) -> Result<SlicedTrace, CbspError> {
        let mut wanted: Vec<usize> = selected.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let key = trace_slice_key(binary, input, config, boundaries, &wanted);
        let (sliced, hit) = read_through(
            self.store,
            |store| read_slices(store, &key),
            || Ok(slice_trace(binary, input, config, boundaries, &wanted)),
            |store, sliced| put_slice_blobs(store, &key, binary, sliced),
        )?;
        if hit {
            cbsp_trace::add("sim/full_replay_avoided", 1);
        }
        Ok(sliced)
    }
}

/// Reads the slice manifest under `key` and every per-slice blob it
/// names, in interval order. A missing or damaged slice blob damages
/// the manifest.
fn read_slices(store: &ArtifactStore, key: &StageKey) -> Result<Option<SlicedTrace>, CbspError> {
    let Some(man) = read_blob(store, TRACE_SLICE_STAGE, key, decode_slice_manifest)? else {
        return Ok(None);
    };
    let slices = man
        .slice_intervals
        .iter()
        .map(|&interval| {
            let skey = derived_key(key, "slice", interval);
            let decode = |blob| decode_slice_blob(interval, man.n_procs, man.n_loops, blob);
            read_blob(store, TRACE_SLICE_STAGE, &skey, decode)?
                .ok_or_else(|| corrupt(key, format!("slice {interval} is missing")))
        })
        .collect::<Result<Vec<TraceSlice>, CbspError>>()?;
    Ok(Some(SlicedTrace {
        full: man.full,
        intervals: man.intervals,
        slices,
    }))
}

/// One binary's true and SimPoint-estimated CPI.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiEstimate {
    /// Whole-program CPI (full-run ground truth).
    pub true_cpi: f64,
    /// Whole-program instruction count.
    pub instructions: u64,
    /// The SimPoint-weighted CPI estimate.
    pub estimated_cpi: f64,
    /// Half-width of the stratified 95% confidence interval around the
    /// estimate ([`stratified_ci`]); zero for single-representative
    /// lanes by construction.
    pub ci_half: f64,
}

impl CpiEstimate {
    /// Binary `b`'s estimate under `cross`: its whole-run `stats`, and
    /// the CPI of its marker `intervals` (padded with empty intervals
    /// to [`CrossBinaryResult::interval_count`]) weighted by the
    /// simulation points and the binary's recalculated phase weights
    /// ([`weighted_cpi_with`]), with the stratified half-width around
    /// it. `stats` and `intervals` come from one marker-sliced
    /// simulation of the binary at `cross.boundaries[b]`: a
    /// [`BothSlicings`] or [`cbsp_sim::simulate_marker_sliced`].
    pub fn from_marker_intervals(
        cross: &CrossBinaryResult,
        b: usize,
        stats: &SimStats,
        intervals: &[IntervalSim],
    ) -> CpiEstimate {
        let cpis: Vec<f64> = (0..cross.interval_count())
            .map(|i| intervals.get(i).copied().unwrap_or_default().cpi())
            .collect();
        let points = &cross.simpoint.points;
        let weights = &cross.weights[b];
        CpiEstimate {
            true_cpi: stats.cpi(),
            instructions: stats.instructions,
            estimated_cpi: weighted_cpi_with(points, weights, &cpis),
            ci_half: stratified_ci(points, &cross.simpoint.labels, weights, &cpis),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_profile::MarkerRef;
    use cbsp_program::{compile, run, workloads, CompileTarget, Marker, Scale, TraceSink};
    use cbsp_sim::{replay_full, simulate_full, MemoryConfig};

    fn test_binary() -> Binary {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        compile(&prog, CompileTarget::W32_O2)
    }

    /// Counts marker executions to derive in-order [`ExecPoint`]
    /// boundaries without involving the profiling pipeline.
    #[derive(Default)]
    struct MarkerTally {
        counts: std::collections::BTreeMap<MarkerRef, u64>,
    }

    impl TraceSink for MarkerTally {
        fn on_block(&mut self, _block: cbsp_program::BlockId, _instrs: u64) {}

        fn on_marker(&mut self, marker: Marker) {
            let r = match marker {
                Marker::ProcEntry(p) => MarkerRef::Proc(u32::from(p)),
                Marker::LoopEntry(l) => MarkerRef::LoopEntry(u32::from(l)),
                Marker::LoopBack(l) => MarkerRef::LoopBack(u32::from(l)),
            };
            *self.counts.entry(r).or_insert(0) += 1;
        }
    }

    /// Sixteen boundaries at evenly spaced executions of the binary's
    /// most frequent marker, plus a few selected intervals among them.
    fn boundaries_and_selection(bin: &Binary, input: &Input) -> (Vec<ExecPoint>, Vec<usize>) {
        let mut tally = MarkerTally::default();
        run(bin, input, &mut tally);
        let (&marker, &execs) = tally
            .counts
            .iter()
            .max_by_key(|(_, &n)| n)
            .expect("binary executes at least one marker");
        let cuts = 16.min(execs);
        let boundaries = (1..=cuts)
            .map(|i| ExecPoint {
                marker,
                count: i * execs / cuts,
            })
            .collect();
        (boundaries, vec![0, 2, 3])
    }

    fn temp_store(tag: &str) -> (ArtifactStore, std::path::PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("cbsp-trace-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        (ArtifactStore::open(&dir).expect("store opens"), dir)
    }

    #[test]
    fn store_tier_serves_blob_hits_zero_decode() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (store, dir) = temp_store("persist");

        let first = TraceCache::new(Some(&store));
        let t1 = first.get_or_record(&bin, &input).expect("records");
        // The recording landed in the blob tier, not a JSON envelope.
        let key = trace_key(&bin, &input);
        assert!(store.contains_blob(&key), "trace stored as a blob");
        assert!(!store.contains(&key), "no JSON envelope written");

        // A fresh cache (fresh process, conceptually) hits the store.
        let second = TraceCache::new(Some(&store));
        cbsp_trace::enable();
        cbsp_trace::reset();
        let t2 = second.get_or_record(&bin, &input).expect("store hit");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        assert_eq!(t1, t2, "stored trace round-trips exactly");
        assert_eq!(counters.get("sim/trace_cache_hits"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        assert_eq!(counters.get("store/blob_reads"), Some(&1));

        // And the replayed simulation equals direct interpretation.
        let cfg = MemoryConfig::table1();
        assert_eq!(
            replay_full(&t2, &cfg).expect("decodes"),
            simulate_full(&bin, &input, &cfg)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stored_trace_blob_is_repaired() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (store, dir) = temp_store("repair");
        let cache = TraceCache::new(Some(&store));
        let t1 = cache.get_or_record(&bin, &input).expect("records");

        // Truncate the blob on disk.
        let path = store.blob_path(&trace_key(&bin, &input));
        let bytes = std::fs::read(&path).expect("blob exists");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

        let fresh = TraceCache::new(Some(&store));
        let t2 = fresh.get_or_record(&bin, &input).expect("repairs");
        assert_eq!(t1, t2);
        // Repaired in place: a third cache now hits cleanly.
        let third = TraceCache::new(Some(&store));
        let t3 = third.get_or_record(&bin, &input).expect("hits");
        assert_eq!(t1, t3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slice_manifest_persists_as_blobs() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, selected) = boundaries_and_selection(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-persist");

        cbsp_trace::enable();
        cbsp_trace::reset();
        let cold = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");
        let cold_counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        assert_eq!(cold_counters.get("sim/full_replay_avoided"), None);

        // Manifest and one blob per selected interval, no envelopes.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        assert!(store.contains_blob(&key), "manifest blob on disk");
        assert!(!store.contains(&key), "no JSON envelope written");
        for s in &cold.slices {
            let skey = derived_key(&key, "slice", s.interval as u64);
            assert!(store.contains_blob(&skey), "slice {} blob", s.interval);
        }
        // The manifest is a small fraction of the full trace.
        let full = cbsp_sim::record_trace(&bin, &input);
        assert!(
            cold.encoded_len() < full.bytes.len(),
            "slices {} vs full trace {}",
            cold.encoded_len(),
            full.bytes.len()
        );

        // A fresh cache (fresh process, conceptually) loads the stored
        // manifest without touching the full trace.
        cbsp_trace::enable();
        cbsp_trace::reset();
        let warm = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("store hit");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();

        assert_eq!(cold, warm, "stored manifest round-trips exactly");
        assert_eq!(counters.get("sim/full_replay_avoided"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        // Manifest + per-slice blobs were all read through the blob tier.
        let blob_reads = counters.get("store/blob_reads").copied().unwrap_or(0);
        assert_eq!(blob_reads, 1 + cold.slices.len() as u64);

        // Selection order and duplicates do not change the key.
        let shuffled = vec![selected[2], selected[0], selected[1], selected[0]];
        cbsp_trace::enable();
        cbsp_trace::reset();
        let again = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &shuffled)
            .expect("normalized key hits");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        cbsp_trace::reset();
        assert_eq!(cold, again);
        assert_eq!(counters.get("sim/full_replay_avoided"), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_slice_manifest_blob_is_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, selected) = boundaries_and_selection(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-repair");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");

        // Truncate the manifest blob on disk.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let path = store.blob_path(&key);
        let bytes = std::fs::read(&path).expect("blob exists");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");

        let fresh = TraceCache::new(Some(&store));
        let repaired = fresh
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs");
        assert_eq!(cold, repaired);
        // Repaired in place: a third cache now hits cleanly.
        let third = TraceCache::new(Some(&store));
        let warm = third
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_per_slice_blob_is_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, selected) = boundaries_and_selection(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-blob-repair");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");

        // Corrupt one per-slice blob (flip a payload byte: framing
        // checksum catches it; deleting it exercises the same path).
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let skey = derived_key(&key, "slice", cold.slices[1].interval as u64);
        let path = store.blob_path(&skey);
        let mut bytes = std::fs::read(&path).expect("blob exists");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");

        let fresh = TraceCache::new(Some(&store));
        let repaired = fresh
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs");
        assert_eq!(cold, repaired);
        let third = TraceCache::new(Some(&store));
        let warm = third
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(cold, warm);

        // A *missing* slice blob is the same miss.
        std::fs::remove_file(&path).expect("remove");
        let fourth = TraceCache::new(Some(&store));
        let again = fourth
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs missing blob");
        assert_eq!(cold, again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-valid manifest whose slice count exceeds its meta
    /// bytes is a miss — decoded without allocating for the count —
    /// and is repaired in place.
    #[test]
    fn slice_manifest_with_an_oversized_count_is_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, selected) = boundaries_and_selection(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-count");

        let cold = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let path = store.blob_path(&key);
        let good = std::fs::read(&path).expect("manifest blob exists");

        // Claim u32::MAX slices and drop the list: 32 GiB if trusted.
        let mut meta = slice_manifest_meta(0, 0, &cold);
        let count_at = 8 + 13 * 8 + 8;
        meta.truncate(count_at);
        meta.extend_from_slice(&u32::MAX.to_le_bytes());
        store
            .put_blob(TRACE_SLICE_STAGE, &key, &meta, &[])
            .expect("forges a checksum-valid manifest");

        cbsp_trace::enable();
        cbsp_trace::reset();
        let repaired = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        assert_eq!(cold, repaired);
        assert_eq!(counters.get("store/repairs"), Some(&1));
        assert_eq!(std::fs::read(&path).expect("rewritten"), good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The four binaries of gzip at Test scale, each with its own
    /// boundary list.
    fn four_binaries() -> (Prepared, Vec<Vec<ExecPoint>>) {
        let gzip = Prepared::of(&workloads::by_name("gzip").expect("in suite"), Scale::Test);
        let cuts = gzip
            .binaries()
            .iter()
            .map(|b| boundaries_and_selection(b, &Input::test()).0)
            .collect();
        (gzip, cuts)
    }

    const FLI_TARGET: u64 = 20_000;

    /// One [`TraceCache::replay_sliced_both_all`] call through a fresh
    /// cache over `store`, with the counters it recorded.
    fn lease_call(
        store: Option<&ArtifactStore>,
        bins: &Prepared,
        config: &MemoryConfig,
        cuts: &[Vec<ExecPoint>],
        fli_target: u64,
    ) -> (Vec<BothSlicings>, std::collections::BTreeMap<String, u64>) {
        let cache = TraceCache::new(store);
        cbsp_trace::enable();
        cbsp_trace::reset();
        let sims = cache
            .replay_sliced_both_all(bins, config, cuts, fli_target, &Pool::new(2))
            .expect("replays");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        cbsp_trace::reset();
        (sims, counters)
    }

    /// Asserts that a lease miss simulated each binary directly, exactly
    /// once: no trace was recorded or replayed, and the simulated
    /// instructions are one run of every binary.
    fn assert_simulated_once(
        sims: &[BothSlicings],
        counters: &std::collections::BTreeMap<String, u64>,
    ) {
        assert_eq!(counters.get("sim/replays"), None);
        assert_eq!(counters.get("sim/record_bytes"), None);
        let instructions: u64 = sims.iter().map(|s| s.stats.instructions).sum();
        assert_eq!(counters.get("sim/instructions"), Some(&instructions));
    }

    fn lease_key(bins: &Prepared, config: &MemoryConfig, cuts: &[Vec<ExecPoint>]) -> StageKey {
        replay_key(bins, config, cuts, FLI_TARGET)
    }

    #[test]
    fn replay_lease_hits_only_on_identical_inputs() {
        let _lock = cbsp_trace::test_lock();
        let (bins, cuts) = four_binaries();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("replay-keys");

        let (cold, counters) = lease_call(Some(&store), &bins, &config, &cuts, FLI_TARGET);
        assert_eq!(counters.get("sim/replay_cache_misses"), Some(&1));
        assert_eq!(counters.get("sim/replay_cache_hits"), None);
        assert_simulated_once(&cold, &counters);
        assert!(store.contains_blob(&lease_key(&bins, &config, &cuts)));

        // Identical inputs hit: one blob read, no trace, no simulation.
        let (warm, counters) = lease_call(Some(&store), &bins, &config, &cuts, FLI_TARGET);
        assert_eq!(warm, cold, "a hit is bit-identical to the simulation");
        assert_eq!(counters.get("sim/replay_cache_hits"), Some(&1));
        assert_eq!(counters.get("sim/replay_cache_misses"), None);
        assert_eq!(counters.get("sim/replays"), None);
        assert_eq!(counters.get("sim/trace_cache_hits"), None);
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        assert_eq!(counters.get("store/blob_reads"), Some(&1));

        // Without a store tier every call simulates, to the same result.
        let (plain, counters) = lease_call(None, &bins, &config, &cuts, FLI_TARGET);
        assert_eq!(plain, cold);
        assert_simulated_once(&plain, &counters);
        assert_eq!(counters.get("sim/replay_cache_misses"), None);

        // Every input that shapes the result re-keys the lease.
        let prefetch = MemoryConfig {
            next_line_prefetch: true,
            ..config
        };
        let branch = MemoryConfig {
            branch: Some(cbsp_sim::BranchConfig::default()),
            ..config
        };
        let mut moved = cuts.clone();
        moved[1].pop();
        for (what, config, cuts, target) in [
            ("prefetch", &prefetch, &cuts, FLI_TARGET),
            ("branch predictor", &branch, &cuts, FLI_TARGET),
            ("one binary's boundaries", &config, &moved, FLI_TARGET),
            ("FLI target", &config, &cuts, FLI_TARGET / 2),
        ] {
            let (sims, counters) = lease_call(Some(&store), &bins, config, cuts, target);
            assert_eq!(counters.get("sim/replay_cache_misses"), Some(&1), "{what}");
            assert_eq!(counters.get("sim/replay_cache_hits"), None, "{what}");
            let (plain, _) = lease_call(None, &bins, config, cuts, target);
            assert_eq!(sims, plain, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_replay_lease_is_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let (bins, cuts) = four_binaries();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("replay-repair");
        let (cold, _) = lease_call(Some(&store), &bins, &config, &cuts, FLI_TARGET);
        let key = lease_key(&bins, &config, &cuts);
        let path = store.blob_path(&key);
        let good = std::fs::read(&path).expect("lease blob exists");

        let check = |what: &str| {
            let (sims, counters) = lease_call(Some(&store), &bins, &config, &cuts, FLI_TARGET);
            assert_eq!(sims, cold, "{what}");
            assert_eq!(counters.get("store/repairs"), Some(&1), "{what}");
            assert_eq!(counters.get("sim/replay_cache_misses"), Some(&1), "{what}");
            let rewritten = std::fs::read(&path).expect("lease rewritten");
            assert!(rewritten == good, "{what}: repaired in place");
        };

        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xFF;
        for (what, bytes) in [
            ("flipped byte", flipped),
            ("truncation", good[..good.len() / 2].to_vec()),
        ] {
            std::fs::write(&path, bytes).expect("damages the lease");
            check(what);
        }

        // Checksum-valid leases whose counts disagree with their bytes.
        let (meta, payload) = replay_blob_parts(&cold);
        let marker_count_at = 4 + 13 * 8;
        let forged = |at: usize, value: &[u8]| {
            let mut m = meta.clone();
            m[at..at + value.len()].copy_from_slice(value);
            m
        };
        let one_more = (cold[0].marker.len() as u64 + 1).to_le_bytes();
        for (what, meta) in [
            (
                "interval count off by one",
                forged(marker_count_at, &one_more),
            ),
            (
                "interval count u64::MAX",
                forged(marker_count_at + 8, &u64::MAX.to_le_bytes()),
            ),
            ("binary count u32::MAX", forged(0, &u32::MAX.to_le_bytes())),
        ] {
            store
                .put_blob(REPLAY_STAGE, &key, &meta, &payload)
                .expect("forges a checksum-valid lease");
            check(what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_replay_leases() {
        let _lock = cbsp_trace::test_lock();
        let (bins, cuts) = four_binaries();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("replay-gc");
        let (cold, _) = lease_call(Some(&store), &bins, &config, &cuts, FLI_TARGET);
        let key = lease_key(&bins, &config, &cuts);
        assert!(store.contains_blob(&key));
        let report = store.gc().expect("gc runs");
        assert!(report.removed > 0);
        assert!(!store.contains_blob(&key), "no manifest references a lease");
        let (again, counters) = lease_call(Some(&store), &bins, &config, &cuts, FLI_TARGET);
        assert_eq!(again, cold);
        assert_eq!(counters.get("sim/replay_cache_misses"), Some(&1));
        assert_simulated_once(&again, &counters);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The replay key derived from a [`Prepared`]'s digests is the key
    /// earlier versions derived by hashing the binaries inside the
    /// lookup, so a store they filled still serves every replay lease.
    /// The hex is the key such a version wrote for this lease; changing
    /// the gzip workload, the compiler or the key document re-keys every
    /// lease and moves it.
    #[test]
    fn replay_key_from_digests_is_the_hashing_key() {
        let _lock = cbsp_trace::test_lock();
        let (bins, cuts) = four_binaries();
        assert_eq!(
            replay_key(&bins, &MemoryConfig::table1(), &cuts, FLI_TARGET).as_hex(),
            "0565a68778da1314d60a0463d0d6f9c94c8db91c141876126cfad4d308510217"
        );
    }

    /// One [`TraceCache::fli_simpoints`] call through a fresh cache over
    /// `store` on a `threads`-thread pool, with the counters it
    /// recorded.
    fn fli_call(
        store: Option<&ArtifactStore>,
        bins: &Prepared,
        target: u64,
        config: &SimPointConfig,
        threads: usize,
    ) -> (Vec<SimPointResult>, std::collections::BTreeMap<String, u64>) {
        let cache = TraceCache::new(store);
        let config = SimPointConfig { threads, ..*config };
        cbsp_trace::enable();
        cbsp_trace::reset();
        let simpoints = cache
            .fli_simpoints(bins, target, &config, &Pool::new(threads))
            .expect("clusters");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        cbsp_trace::reset();
        (simpoints, counters)
    }

    fn fli_lease_key(bins: &Prepared) -> StageKey {
        fli_key(bins, FLI_TARGET, &SimPointConfig::default())
    }

    #[test]
    fn fli_lease_hits_only_on_identical_inputs() {
        let _lock = cbsp_trace::test_lock();
        let (bins, _) = four_binaries();
        let input = Input::test();
        let config = SimPointConfig::default();
        let (store, dir) = temp_store("fli-keys");

        let (cold, counters) = fli_call(Some(&store), &bins, FLI_TARGET, &config, 1);
        assert_eq!(cold.len(), 4);
        assert_eq!(counters.get("simpoint/fli_cache_misses"), Some(&1));
        assert_eq!(counters.get("simpoint/fli_cache_hits"), None);
        assert!(counters.contains_key("simpoint/kmeans_runs"));
        let key = fli_lease_key(&bins);
        assert!(store.contains(&key), "the lease is one JSON envelope");
        assert!(!store.contains_blob(&key));

        // A lease written at one thread reads back identically at three:
        // one envelope read, no k-means.
        let (warm, counters) = fli_call(Some(&store), &bins, FLI_TARGET, &config, 3);
        assert_eq!(warm, cold);
        assert_eq!(counters.get("simpoint/fli_cache_hits"), Some(&1));
        assert_eq!(counters.get("simpoint/fli_cache_misses"), None);
        assert_eq!(counters.get("simpoint/kmeans_runs"), None);

        // Without a store tier every call clusters, to the same result.
        let (plain, counters) = fli_call(None, &bins, FLI_TARGET, &config, 2);
        assert_eq!(plain, cold);
        assert_eq!(counters.get("simpoint/fli_cache_misses"), None);
        assert!(counters.contains_key("simpoint/kmeans_runs"));

        // Every input that shapes the result re-keys the lease: the
        // binary set, the input, the interval target, and every field
        // of the configuration but `threads`.
        let three = Prepared::new(bins.binaries()[..3].to_vec(), input.clone());
        let other_input = Prepared::new(
            bins.binaries().to_vec(),
            Input::new("test", input.seed + 1, Scale::Test),
        );
        let mut cases: Vec<(&str, &Prepared, u64, SimPointConfig)> = vec![
            ("binary set", &three, FLI_TARGET, config),
            ("input", &other_input, FLI_TARGET, config),
            ("interval target", &bins, FLI_TARGET / 2, config),
        ];
        let early = cbsp_simpoint::RepresentativePolicy::Earliest { tolerance: 0.1 };
        for (what, changed) in [
            ("max_k", SimPointConfig { max_k: 6, ..config }),
            (
                "projection_dims",
                SimPointConfig {
                    projection_dims: 8,
                    ..config
                },
            ),
            (
                "bic_threshold",
                SimPointConfig {
                    bic_threshold: 0.8,
                    ..config
                },
            ),
            (
                "restarts",
                SimPointConfig {
                    restarts: 3,
                    ..config
                },
            ),
            (
                "max_iters",
                SimPointConfig {
                    max_iters: 50,
                    ..config
                },
            ),
            (
                "seed",
                SimPointConfig {
                    seed: config.seed + 1,
                    ..config
                },
            ),
            (
                "representative",
                SimPointConfig {
                    representative: early,
                    ..config
                },
            ),
            (
                "accelerated",
                SimPointConfig {
                    accelerated: !config.accelerated,
                    ..config
                },
            ),
        ] {
            cases.push((what, &bins, FLI_TARGET, changed));
        }
        for (what, bins, target, config) in cases {
            let (_, counters) = fli_call(Some(&store), bins, target, &config, 2);
            assert_eq!(
                counters.get("simpoint/fli_cache_misses"),
                Some(&1),
                "{what}"
            );
            assert_eq!(counters.get("simpoint/fli_cache_hits"), None, "{what}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_fli_lease_is_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let (bins, _) = four_binaries();
        let config = SimPointConfig::default();
        let (store, dir) = temp_store("fli-repair");
        let (cold, _) = fli_call(Some(&store), &bins, FLI_TARGET, &config, 2);
        let key = fli_lease_key(&bins);
        let path = store.object_path(&key);
        let good = std::fs::read(&path).expect("lease envelope exists");

        let check = |what: &str| {
            let (simpoints, counters) = fli_call(Some(&store), &bins, FLI_TARGET, &config, 2);
            assert_eq!(simpoints, cold, "{what}");
            assert_eq!(counters.get("store/repairs"), Some(&1), "{what}");
            assert_eq!(
                counters.get("simpoint/fli_cache_misses"),
                Some(&1),
                "{what}"
            );
            let rewritten = std::fs::read(&path).expect("lease rewritten");
            assert!(rewritten == good, "{what}: repaired in place");
        };
        let mut flipped = good.clone();
        let middle = flipped.len() / 2;
        flipped[middle] ^= 0x01;
        for (what, bytes) in [
            ("flipped byte", flipped),
            ("truncation", good[..good.len() / 2].to_vec()),
        ] {
            std::fs::write(&path, bytes).expect("damages the lease");
            check(what);
        }
        // A checksum-valid lease that holds too few clusterings.
        store
            .put(FLI_STAGE, &key, &cold[..3].to_vec())
            .expect("forges a checksum-valid lease");
        check("three clusterings for four binaries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_evicts_fli_leases() {
        let _lock = cbsp_trace::test_lock();
        let (bins, _) = four_binaries();
        let config = SimPointConfig::default();
        let (store, dir) = temp_store("fli-gc");
        let (cold, _) = fli_call(Some(&store), &bins, FLI_TARGET, &config, 2);
        let key = fli_lease_key(&bins);
        assert!(store.contains(&key));
        assert_eq!(store.stats().expect("stats").stage(FLI_STAGE).artifacts, 1);
        assert_eq!(store.stats().expect("stats").pipeline().artifacts, 0);
        let report = store.gc().expect("gc runs");
        assert_eq!(report.removed, 1);
        assert!(!store.contains(&key), "no manifest references a lease");
        let (again, counters) = fli_call(Some(&store), &bins, FLI_TARGET, &config, 2);
        assert_eq!(again, cold);
        assert_eq!(counters.get("simpoint/fli_cache_misses"), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
