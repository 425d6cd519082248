//! Content-addressed simulation cache: per-simpoint slice manifests
//! and replay leases, in memory and optionally in the
//! [`ArtifactStore`].
//!
//! Every simulation interprets its binary straight into the simulator
//! sink; nothing here records a whole [`EventTrace`] for later replay,
//! because decoding one costs about as much as interpreting the binary
//! again. What is worth keeping is smaller:
//!
//! * a **sliced trace** ([`TraceCache::get_slices`]): for one binary,
//!   its whole-run statistics plus one exact state checkpoint and the
//!   events of each selected interval, cut from one direct run; a warm
//!   CPI estimate replays kilobytes of slices instead of simulating;
//! * a **replay lease** ([`TraceCache::replay_sliced_both_all`]): the
//!   detailed simulations of one experiment evaluation, each binary
//!   simulated once into its marker-bounded and its fixed-length
//!   slicing. A warm-store evaluation reads the results back and
//!   simulates nothing; every field is an integer counter, so a hit is
//!   bit-identical to the simulation it replaces.
//!
//! ## The binary blob tier
//!
//! Persistent artifacts are written to the store's **blob tier** (see
//! [`crate::blob`]): raw checksummed binary files under the content
//! digests, with event bytes stored verbatim. A sliced-trace manifest's
//! per-slice blobs are prefetched in parallel over a
//! [`cbsp_par::Pool`] (independent files; the index-ordered merge keeps
//! results byte-identical at any thread count).
//!
//! The blob is the only encoding this cache reads or writes. Slice and
//! replay artifacts are leases — no run manifest references them, so
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

use cbsp_core::{weighted_cpi, weighted_cpi_with, CbspError};
use cbsp_par::Pool;
use cbsp_profile::ExecPoint;
use cbsp_program::{Binary, Input};
use cbsp_sim::{
    record_trace, replay_slice, simulate_sliced_both, slice_trace, BothSlicings, EventTrace,
    IntervalSim, LevelStats, MemoryConfig, SimStats, SlicedTrace, TraceSlice,
};
use cbsp_simpoint::SimPoint;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::blob::{derived_key, Blob};
use crate::store::{content_hash, stage_key, ArtifactStore, StageKey};
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

/// Every lease namespace. Artifacts in these stages are never
/// referenced by run manifests — `gc` always evicts them, and the
/// trace cache re-materializes slices and replay leases on next use —
/// while everything else in the store is a pipeline-stage artifact.
pub const LEASE_STAGES: [&str; 3] = [TRACE_STAGE, TRACE_SLICE_STAGE, REPLAY_STAGE];

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

/// Content key of the replay lease for `binaries` on `input`, each
/// simulated under `config` and sliced at its own `boundaries` list and
/// at `fli_target` instructions.
///
/// Every input that shapes the results is keyed, by the rule
/// [`trace_slice_key`] follows: the input (which events exist), the
/// memory configuration (what each event costs), the FLI target, and
/// per binary, in order, its digest and its boundary list (where its
/// marker intervals cut).
fn replay_key(
    binaries: &[&Binary],
    input: &Input,
    config: &MemoryConfig,
    boundaries: &[Vec<ExecPoint>],
    fli_target: u64,
) -> StageKey {
    let per_binary = binaries
        .iter()
        .zip(boundaries)
        .map(|(binary, cuts)| {
            Value::Array(vec![
                Value::Str(content_hash(*binary)),
                Value::Str(content_hash(cuts)),
            ])
        })
        .collect();
    stage_key(
        REPLAY_STAGE,
        &[
            Value::Str(content_hash(input)),
            Value::Str(content_hash(config)),
            Value::UInt(fli_target),
            Value::Array(per_binary),
        ],
    )
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
    overwrite: bool,
) -> Result<(), CbspError> {
    for s in &sliced.slices {
        let skey = derived_key(key, "slice", s.interval as u64);
        let (meta, payload) = slice_blob_parts(s);
        if overwrite {
            store.put_blob_overwrite(TRACE_SLICE_STAGE, &skey, &meta, &payload)?;
        } else {
            store.put_blob(TRACE_SLICE_STAGE, &skey, &meta, &payload)?;
        }
    }
    let meta = slice_manifest_meta(binary.procs.len() as u32, binary.loops.len() as u32, sliced);
    if overwrite {
        store.put_blob_overwrite(TRACE_SLICE_STAGE, key, &meta, &[])?;
    } else {
        store.put_blob(TRACE_SLICE_STAGE, key, &meta, &[])?;
    }
    Ok(())
}

/// Outcome of one blob-tier read under the repair-as-miss contract.
enum Lookup<T> {
    /// The blob exists, passed its framing checks, and decoded.
    Hit(T),
    /// No blob under the key.
    Miss,
    /// The blob failed its framing checks or did not decode; the
    /// caller re-materializes the artifact and overwrites it.
    Corrupt,
}

/// Reads the blob of (`stage`, `key`) and decodes it with `decode`,
/// folding typed corruption into [`Lookup::Corrupt`].
fn lookup<T>(
    store: &ArtifactStore,
    stage: &str,
    key: &StageKey,
    decode: impl FnOnce(Blob) -> Option<T>,
) -> Result<Lookup<T>, CbspError> {
    match store.get_blob(stage, key) {
        Ok(Some(blob)) => Ok(decode(blob).map_or(Lookup::Corrupt, Lookup::Hit)),
        Ok(None) => Ok(Lookup::Miss),
        Err(CbspError::ArtifactCorrupt { .. } | CbspError::ArtifactVersionMismatch { .. }) => {
            Ok(Lookup::Corrupt)
        }
        Err(other) => Err(other),
    }
}

// ---------------------------------------------------------------------
// The cache
// ---------------------------------------------------------------------

/// How a [`TraceCache`] reaches its persistent tier: not at all,
/// through a borrow scoped to one experiment, or through shared
/// ownership for long-lived holders (the `cbsp-serve` daemon).
#[derive(Debug)]
enum StoreTier<'s> {
    None,
    Borrowed(&'s ArtifactStore),
    Shared(Arc<ArtifactStore>),
}

/// A two-tier (memory + optional store) cache of sliced traces, plus
/// the store's replay leases.
///
/// Cheap to construct; scope one per experiment so its in-memory tier
/// holds only the handful of binaries that experiment touches — or
/// build one with [`TraceCache::shared`] and keep it for a process
/// lifetime, as the serving daemon does.
#[derive(Debug)]
pub struct TraceCache<'s> {
    store: StoreTier<'s>,
    /// In-memory tier of the sliced-trace path: per-simpoint slice
    /// manifests keyed like the `trace_slice` store namespace.
    slices: Mutex<HashMap<String, Arc<SlicedTrace>>>,
    /// Pool slice-blob prefetches fan out over.
    prefetch: Pool,
}

impl<'s> TraceCache<'s> {
    /// Creates a cache backed by `store` (pass `None` to keep slices in
    /// memory only and to simulate on every
    /// [`TraceCache::replay_sliced_both_all`] call).
    pub fn new(store: Option<&'s ArtifactStore>) -> Self {
        TraceCache::with_tier(store.map_or(StoreTier::None, StoreTier::Borrowed))
    }

    /// Creates a cache with no persistent tier.
    pub fn in_memory() -> TraceCache<'static> {
        TraceCache::new(None)
    }

    /// Creates a cache that co-owns its backing store, freeing the
    /// holder from the borrow scope [`TraceCache::new`] imposes. A
    /// long-lived server keeps one of these so both the in-memory slice
    /// tier and the on-disk tier stay warm across requests.
    pub fn shared(store: Arc<ArtifactStore>) -> TraceCache<'static> {
        TraceCache::with_tier(StoreTier::Shared(store))
    }

    fn with_tier(store: StoreTier<'s>) -> Self {
        TraceCache {
            store,
            slices: Mutex::new(HashMap::new()),
            prefetch: Pool::auto(),
        }
    }

    /// Overrides the pool slice-blob prefetches fan out over (the
    /// default is [`Pool::auto`]). Determinism tests pin this to
    /// compare thread counts.
    #[must_use]
    pub fn with_prefetch(mut self, pool: Pool) -> Self {
        self.prefetch = pool;
        self
    }

    /// The persistent tier, whichever way it is held.
    fn store(&self) -> Option<&ArtifactStore> {
        match &self.store {
            StoreTier::None => None,
            StoreTier::Borrowed(s) => Some(s),
            StoreTier::Shared(s) => Some(s),
        }
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
        let mut repair = false;
        if let Some(store) = self.store() {
            match lookup(store, TRACE_STAGE, &key, decode_trace_blob)? {
                Lookup::Hit(trace) => {
                    cbsp_trace::add("sim/trace_cache_hits", 1);
                    return Ok(trace);
                }
                Lookup::Miss => {}
                Lookup::Corrupt => {
                    repair = true;
                    cbsp_trace::add("store/repairs", 1);
                }
            }
        }

        cbsp_trace::add("sim/trace_cache_misses", 1);
        let trace = record_trace(binary, input);
        if let Some(store) = self.store() {
            let meta = trace_blob_meta(&trace);
            if repair {
                store.put_blob_overwrite(TRACE_STAGE, &key, &meta, &trace.bytes)?;
            } else {
                store.put_blob(TRACE_STAGE, &key, &meta, &trace.bytes)?;
            }
        }
        Ok(trace)
    }

    /// The detailed simulations of one evaluation: each binary simulated
    /// once under `config` into both its marker slicing at
    /// `boundaries[b]` and its fixed `fli_target`-instruction slicing
    /// ([`cbsp_sim::simulate_sliced_both`]), in input order.
    ///
    /// With a store tier the results are a lease, one blob for all the
    /// binaries under [`REPLAY_STAGE`]: a hit reads it back and
    /// simulates nothing (`sim/replay_cache_hits`); a miss simulates the
    /// binaries in parallel over `pool` and writes the lease
    /// (`sim/replay_cache_misses`). Without a store tier every call
    /// simulates. Each binary is hashed once per call, and only when
    /// there is a store tier.
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
        binaries: &[&Binary],
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[Vec<ExecPoint>],
        fli_target: u64,
        pool: &Pool,
    ) -> Result<Vec<BothSlicings>, CbspError> {
        assert_eq!(
            binaries.len(),
            boundaries.len(),
            "one boundary list per binary"
        );
        let lease = self.store().map(|store| {
            let key = replay_key(binaries, input, config, boundaries, fli_target);
            (store, key)
        });
        let mut repair = false;
        if let Some((store, key)) = &lease {
            let decode = |blob| decode_replay_blob(binaries.len(), blob);
            match lookup(store, REPLAY_STAGE, key, decode)? {
                Lookup::Hit(sims) => {
                    cbsp_trace::add("sim/replay_cache_hits", 1);
                    return Ok(sims);
                }
                Lookup::Miss => {}
                Lookup::Corrupt => {
                    repair = true;
                    cbsp_trace::add("store/repairs", 1);
                }
            }
            cbsp_trace::add("sim/replay_cache_misses", 1);
        }

        let sims = pool.run_indexed(binaries.len(), |b| {
            simulate_sliced_both(binaries[b], input, config, &boundaries[b], fli_target)
        });
        if let Some((store, key)) = &lease {
            let (meta, payload) = replay_blob_parts(&sims);
            if repair {
                store.put_blob_overwrite(REPLAY_STAGE, key, &meta, &payload)?;
            } else {
                store.put_blob(REPLAY_STAGE, key, &meta, &payload)?;
            }
        }
        Ok(sims)
    }

    /// Returns the per-simpoint slice manifest for `(binary, input)`
    /// cut at `boundaries` covering `selected` intervals, cutting it
    /// from one direct run ([`cbsp_sim::slice_trace`]) only if neither
    /// cache tier has it. Warm calls touch kilobytes of slice payload
    /// instead of simulating the whole run (`sim/full_replay_avoided`
    /// counts them).
    ///
    /// Store hits read the manifest blob, then prefetch its per-slice
    /// blobs in parallel (`store/prefetch_fanouts` counts multi-slice
    /// fan-outs); the index-ordered merge keeps the result
    /// byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure. Corrupt stored
    /// manifests or slice blobs — damaged framing or undecodable
    /// payloads — are treated as misses and repaired in place.
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
    ) -> Result<Arc<SlicedTrace>, CbspError> {
        let mut wanted: Vec<usize> = selected.to_vec();
        wanted.sort_unstable();
        wanted.dedup();
        let key = trace_slice_key(binary, input, config, boundaries, &wanted);
        let mem_key = key.as_hex().to_string();
        if let Some(s) = self.slices.lock().expect("slice cache lock").get(&mem_key) {
            cbsp_trace::add("sim/full_replay_avoided", 1);
            return Ok(Arc::clone(s));
        }

        let mut repair = false;
        if let Some(store) = self.store() {
            match lookup(store, TRACE_SLICE_STAGE, &key, decode_slice_manifest)? {
                Lookup::Hit(man) => match self.fetch_slice_blobs(store, &key, &man)? {
                    Some(slices) => {
                        cbsp_trace::add("sim/full_replay_avoided", 1);
                        let sliced = Arc::new(SlicedTrace {
                            full: man.full,
                            intervals: man.intervals,
                            slices,
                        });
                        self.insert_slices(mem_key, &sliced);
                        return Ok(sliced);
                    }
                    None => repair = true,
                },
                Lookup::Miss => {}
                Lookup::Corrupt => repair = true,
            }
            if repair {
                cbsp_trace::add("store/repairs", 1);
            }
        }
        self.cut_slices(binary, input, config, boundaries, &wanted, key, repair)
    }

    /// Cuts the slice manifest under `key` from one direct run, writes
    /// it to the store tier (overwriting a damaged one when `repair`)
    /// and keeps it in memory.
    #[allow(clippy::too_many_arguments)]
    fn cut_slices(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        wanted: &[usize],
        key: StageKey,
        repair: bool,
    ) -> Result<Arc<SlicedTrace>, CbspError> {
        let sliced = Arc::new(slice_trace(binary, input, config, boundaries, wanted));
        if let Some(store) = self.store() {
            put_slice_blobs(store, &key, binary, &sliced, repair)?;
        }
        self.insert_slices(key.as_hex().to_string(), &sliced);
        Ok(sliced)
    }

    /// Reads every per-slice blob a manifest names, fanned out over the
    /// prefetch pool. Returns `Ok(None)` if any slice blob is missing
    /// or corrupt (repair-as-miss); `run_indexed`'s index-ordered merge
    /// keeps the slice order — and therefore every downstream result —
    /// independent of thread count.
    fn fetch_slice_blobs(
        &self,
        store: &ArtifactStore,
        key: &StageKey,
        man: &SliceManifest,
    ) -> Result<Option<Vec<TraceSlice>>, CbspError> {
        if man.slice_intervals.len() > 1 && self.prefetch.threads() > 1 {
            cbsp_trace::add("store/prefetch_fanouts", 1);
        }
        let fetched: Result<Vec<Option<TraceSlice>>, CbspError> = self
            .prefetch
            .run_indexed(man.slice_intervals.len(), |i| {
                let interval = man.slice_intervals[i];
                let skey = derived_key(key, "slice", interval);
                let decode = |blob| decode_slice_blob(interval, man.n_procs, man.n_loops, blob);
                Ok(match lookup(store, TRACE_SLICE_STAGE, &skey, decode)? {
                    Lookup::Hit(slice) => Some(slice),
                    Lookup::Miss | Lookup::Corrupt => None,
                })
            })
            .into_iter()
            .collect();
        Ok(fetched?.into_iter().collect::<Option<Vec<_>>>())
    }

    fn insert_slices(&self, mem_key: String, sliced: &Arc<SlicedTrace>) {
        self.slices
            .lock()
            .expect("slice cache lock")
            .insert(mem_key, Arc::clone(sliced));
    }

    /// True and SimPoint-estimated CPI for one binary, computed from
    /// per-simpoint trace slices: each selected interval's CPI comes
    /// from replaying its slice (an exact state checkpoint plus the
    /// interval's own events), and the whole-program truth comes from
    /// the slice manifest — so a warm call decodes only kilobytes.
    /// Slice replays are bit-identical to the in-context interval
    /// statistics of a full run, so the result is byte-identical across
    /// cache temperature and thread count, *and* to the same estimate
    /// computed from [`cbsp_sim::simulate_marker_sliced`].
    ///
    /// `phase_weights` follows [`weighted_cpi_with`] (the cross-binary
    /// scheme); pass `None` to use each point's own weight.
    ///
    /// # Errors
    ///
    /// Returns [`CbspError::StoreIo`] on store failure.
    ///
    /// # Panics
    ///
    /// Panics if some boundary is never reached by the binary's
    /// execution.
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_cpi_sliced(
        &self,
        binary: &Binary,
        input: &Input,
        config: &MemoryConfig,
        boundaries: &[ExecPoint],
        points: &[SimPoint],
        phase_weights: Option<&[f64]>,
        interval_count: usize,
    ) -> Result<CpiEstimate, CbspError> {
        let _span = cbsp_trace::span_labeled("sim/estimate_sliced", || binary.label());
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let sliced = self.get_slices(binary, input, config, boundaries, &selected)?;
        let n = interval_count.max(sliced.intervals);
        let mut interval_cpis = vec![0.0f64; n];
        let replayed = match replay_all_slices(&sliced, config) {
            Some(replayed) => replayed,
            None => {
                // A slice stream that fails to decode is a corrupt
                // stored manifest: re-cut it and overwrite it.
                cbsp_trace::add("store/repairs", 1);
                let mut wanted = selected;
                wanted.sort_unstable();
                wanted.dedup();
                let key = trace_slice_key(binary, input, config, boundaries, &wanted);
                let fresh =
                    self.cut_slices(binary, input, config, boundaries, &wanted, key, true)?;
                replay_all_slices(&fresh, config).expect("freshly cut slices decode")
            }
        };
        for (interval, stats) in replayed {
            if interval < n {
                interval_cpis[interval] = stats.cpi();
            }
        }
        let estimated_cpi = match phase_weights {
            Some(w) => weighted_cpi_with(points, w, &interval_cpis),
            None => weighted_cpi(points, &interval_cpis),
        };
        Ok(CpiEstimate {
            true_cpi: sliced.full.cpi(),
            instructions: sliced.full.instructions,
            estimated_cpi,
            interval_cpis,
        })
    }
}

/// Result of a sliced CPI estimate for one binary.
#[derive(Debug, Clone, PartialEq)]
pub struct CpiEstimate {
    /// Whole-program CPI (full-run ground truth).
    pub true_cpi: f64,
    /// Whole-program instruction count.
    pub instructions: u64,
    /// The SimPoint-weighted CPI estimate.
    pub estimated_cpi: f64,
    /// Per-interval CPIs backing the estimate; selected intervals hold
    /// their slice-replayed CPI, unselected intervals are 0.
    pub interval_cpis: Vec<f64>,
}

/// Replays every slice in `sliced`, or `None` if any slice stream is
/// corrupt.
fn replay_all_slices(
    sliced: &SlicedTrace,
    config: &MemoryConfig,
) -> Option<Vec<(usize, IntervalSim)>> {
    sliced
        .slices
        .iter()
        .map(|s| replay_slice(s, config).ok().map(|r| (s.interval, r)))
        .collect()
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
    /// most frequent marker, plus a few synthetic simpoints over the
    /// resulting intervals.
    fn boundaries_and_points(bin: &Binary, input: &Input) -> (Vec<ExecPoint>, Vec<SimPoint>) {
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
                interval: 2,
                weight: 0.3,
                share: 1.0,
                variance: 0.0,
            },
            SimPoint {
                phase: 2,
                interval: 3,
                weight: 0.2,
                share: 1.0,
                variance: 0.0,
            },
        ];
        (boundaries, points)
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
    fn warm_slice_manifest_avoids_the_full_replay() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let cache = TraceCache::in_memory();

        cbsp_trace::enable();
        cbsp_trace::reset();
        let cold = cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");
        let cold_counters = cbsp_trace::snapshot().counters;
        let warm = cache
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("memory hit");
        let warm_counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();

        assert!(Arc::ptr_eq(&cold, &warm), "same manifest allocation");
        assert_eq!(cold_counters.get("sim/full_replay_avoided"), None);
        assert_eq!(warm_counters.get("sim/full_replay_avoided"), Some(&1));
        // The manifest is a small fraction of the full trace.
        let full = cbsp_sim::record_trace(&bin, &input);
        assert!(
            cold.encoded_len() < full.bytes.len(),
            "slices {} vs full trace {}",
            cold.encoded_len(),
            full.bytes.len()
        );
        // Selection order and duplicates do not change the key.
        let shuffled = vec![selected[2], selected[0], selected[1], selected[0]];
        let again = cache
            .get_slices(&bin, &input, &config, &boundaries, &shuffled)
            .expect("normalized key hits");
        assert!(Arc::ptr_eq(&cold, &again));
    }

    #[test]
    fn slice_manifest_persists_as_blobs_and_prefetches() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-persist");

        let first = TraceCache::new(Some(&store));
        let cold = first
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("materializes");

        // Manifest and one blob per selected interval, no envelopes.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        assert!(store.contains_blob(&key), "manifest blob on disk");
        assert!(!store.contains(&key), "no JSON envelope written");
        for s in &cold.slices {
            let skey = derived_key(&key, "slice", s.interval as u64);
            assert!(store.contains_blob(&skey), "slice {} blob", s.interval);
        }

        // A fresh cache (fresh process, conceptually) loads the stored
        // manifest without touching the full trace.
        let second = TraceCache::new(Some(&store));
        cbsp_trace::enable();
        cbsp_trace::reset();
        let warm = second
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("store hit");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();

        assert_eq!(*cold, *warm, "stored manifest round-trips exactly");
        assert_eq!(counters.get("sim/full_replay_avoided"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        // Manifest + per-slice blobs were all read through the blob
        // tier; multi-slice reads fan out.
        let blob_reads = counters.get("store/blob_reads").copied().unwrap_or(0);
        assert_eq!(blob_reads, 1 + cold.slices.len() as u64);
        if Pool::auto().threads() > 1 {
            assert_eq!(counters.get("store/prefetch_fanouts"), Some(&1));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_slice_manifest_blob_is_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
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
        assert_eq!(*cold, *repaired);
        // Repaired in place: a third cache now hits cleanly.
        let third = TraceCache::new(Some(&store));
        let warm = third
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(*cold, *warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_per_slice_blob_is_repaired_as_a_miss() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
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
        assert_eq!(*cold, *repaired);
        let third = TraceCache::new(Some(&store));
        let warm = third
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("hits");
        assert_eq!(*cold, *warm);

        // A *missing* slice blob is the same miss.
        std::fs::remove_file(&path).expect("remove");
        let fourth = TraceCache::new(Some(&store));
        let again = fourth
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs missing blob");
        assert_eq!(*cold, *again);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-valid slice blob whose event stream fails to decode is
    /// re-cut from one direct run and rewritten in place: the estimate
    /// is unchanged, the repair is counted, and no trace is recorded.
    #[test]
    fn undecodable_slice_stream_is_re_cut_in_place() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
        let config = MemoryConfig::table1();
        let n = boundaries.len() + 1;
        let (store, dir) = temp_store("slice-stream");
        let estimate = || {
            TraceCache::new(Some(&store))
                .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                .expect("estimates")
        };
        let cold = estimate();

        // Claim one event more than the slice holds: the framing is
        // valid, the replay runs out of bytes.
        let key = trace_slice_key(&bin, &input, &config, &boundaries, &selected);
        let sliced = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("store hit");
        let mut forged = sliced.slices[1].clone();
        let skey = derived_key(&key, "slice", forged.interval as u64);
        let good = std::fs::read(store.blob_path(&skey)).expect("slice blob exists");
        forged.trace.events += 1;
        let (meta, payload) = slice_blob_parts(&forged);
        store
            .put_blob_overwrite(TRACE_SLICE_STAGE, &skey, &meta, &payload)
            .expect("forges a checksum-valid slice");

        cbsp_trace::enable();
        cbsp_trace::reset();
        let repaired = estimate();
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        cbsp_trace::reset();
        assert_eq!(repaired, cold);
        assert_eq!(counters.get("store/repairs"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        assert!(!store.contains_blob(&trace_key(&bin, &input)), "no trace");
        let rewritten = std::fs::read(store.blob_path(&skey)).expect("slice rewritten");
        assert!(rewritten == good, "repaired in place");
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
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let selected: Vec<usize> = points.iter().map(|p| p.interval).collect();
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
            .put_blob_overwrite(TRACE_SLICE_STAGE, &key, &meta, &[])
            .expect("forges a checksum-valid manifest");

        cbsp_trace::enable();
        cbsp_trace::reset();
        let repaired = TraceCache::new(Some(&store))
            .get_slices(&bin, &input, &config, &boundaries, &selected)
            .expect("repairs");
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        assert_eq!(*cold, *repaired);
        assert_eq!(counters.get("store/repairs"), Some(&1));
        assert_eq!(std::fs::read(&path).expect("rewritten"), good);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The four binaries of gzip at Test scale, each with its own
    /// boundary list.
    fn four_binaries() -> (Vec<Binary>, Vec<Vec<ExecPoint>>) {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        let bins: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&prog, t))
            .collect();
        let cuts = bins
            .iter()
            .map(|b| boundaries_and_points(b, &Input::test()).0)
            .collect();
        (bins, cuts)
    }

    const FLI_TARGET: u64 = 20_000;

    /// One [`TraceCache::replay_sliced_both_all`] call through a fresh
    /// cache over `store`, with the counters it recorded.
    fn lease_call(
        store: Option<&ArtifactStore>,
        bins: &[Binary],
        config: &MemoryConfig,
        cuts: &[Vec<ExecPoint>],
        fli_target: u64,
    ) -> (Vec<BothSlicings>, std::collections::BTreeMap<String, u64>) {
        let refs: Vec<&Binary> = bins.iter().collect();
        let cache = TraceCache::new(store);
        cbsp_trace::enable();
        cbsp_trace::reset();
        let sims = cache
            .replay_sliced_both_all(
                &refs,
                &Input::test(),
                config,
                cuts,
                fli_target,
                &Pool::new(2),
            )
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

    fn lease_key(bins: &[Binary], config: &MemoryConfig, cuts: &[Vec<ExecPoint>]) -> StageKey {
        let refs: Vec<&Binary> = bins.iter().collect();
        replay_key(&refs, &Input::test(), config, cuts, FLI_TARGET)
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
                .put_blob_overwrite(REPLAY_STAGE, &key, &meta, &payload)
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

    /// The estimate is byte-identical across cache temperature and
    /// thread count: cold materialization and warm slice replay run the
    /// same per-interval simulations.
    #[test]
    fn sliced_estimate_is_identical_cold_warm_and_across_threads() {
        let _lock = cbsp_trace::test_lock();
        let bin = test_binary();
        let input = Input::test();
        let (boundaries, points) = boundaries_and_points(&bin, &input);
        let config = MemoryConfig::table1();
        let (store, dir) = temp_store("slice-estimate");

        let n = boundaries.len() + 1;
        let cache = TraceCache::new(Some(&store));
        let cold = cache
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("cold estimate");
        assert!(cold.true_cpi > 1.0 && cold.estimated_cpi > 0.0);
        assert_eq!(cold.interval_cpis.len(), n);

        for threads in [1usize, 8] {
            let pool = Pool::new(threads);
            let warm = pool.run_indexed(2 * threads.max(2), |_| {
                cache
                    .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
                    .expect("warm estimate")
            });
            for est in warm {
                assert_eq!(
                    cold.estimated_cpi.to_bits(),
                    est.estimated_cpi.to_bits(),
                    "{threads} threads"
                );
                assert_eq!(cold.true_cpi.to_bits(), est.true_cpi.to_bits());
                assert_eq!(cold.instructions, est.instructions);
                assert_eq!(cold.interval_cpis, est.interval_cpis);
            }
        }

        // A fresh cache over the same store (warm disk, cold memory)
        // also reproduces the estimate bit-for-bit.
        let fresh = TraceCache::new(Some(&store));
        let from_store = fresh
            .estimate_cpi_sliced(&bin, &input, &config, &boundaries, &points, None, n)
            .expect("store-warm estimate");
        assert_eq!(
            cold.estimated_cpi.to_bits(),
            from_store.estimated_cpi.to_bits()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
