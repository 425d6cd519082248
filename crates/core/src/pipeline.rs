//! The end-to-end Cross Binary SimPoint pipeline (paper §3.2).
//!
//! Given all binaries of one program and one input:
//!
//! 1. profile each binary's calls and loop branches
//!    ([`CallLoopProfile`]);
//! 2. find the mappable points that exist in every binary
//!    ([`find_mappable_points`], plus inline recovery);
//! 3. cut the *primary* binary's execution into variable-length
//!    intervals bounded by mappable points ([`crate::build_vli`]);
//! 4. run SimPoint on the primary binary's interval BBVs
//!    ([`cbsp_simpoint::analyze`]);
//! 5. map the chosen simulation points to every binary — free, because
//!    boundaries are `(marker, count)` pairs and markers are mappable;
//! 6. recalculate each binary's phase weights from its own instruction
//!    counts over the mapped intervals ([`slice_instr_counts`]).

use crate::error::CbspError;
use crate::fuzzy::{extended_markers, map_stage_fuzzy, FuzzyConfig, SimpointMapping};
use crate::inlining::recover_inlined;
use crate::mappable::{find_mappable_points, MappableSet};
use crate::vli::{build_vli_with, slice_instr_counts, VliProfile};
use cbsp_par::Pool;
use cbsp_profile::{CallLoopProfile, ExecPoint, PinPointsFile, RegionBound, SimRegion};
use cbsp_program::{Binary, Input};
use cbsp_simpoint::{analyze, EstimatorConfig, SimPointConfig, SimPointResult};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Configuration of a cross-binary analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CbspConfig {
    /// Desired interval size in instructions (the paper uses 100M on
    /// SPEC; the default here is scaled to the synthetic suite).
    pub interval_target: u64,
    /// SimPoint clustering configuration.
    pub simpoint: SimPointConfig,
    /// Index of the primary binary (whose execution defines the
    /// intervals). "The primary binary can be selected arbitrarily"
    /// (§3.2.4); interval sizes in the other binaries stretch or shrink
    /// with their relative instruction counts.
    pub primary: usize,
    /// Estimation methodology: which features feed the clustering and
    /// how representatives are chosen. The estimator's selector is the
    /// single source of truth for representative selection — it
    /// overrides `simpoint.representative` in [`simpoint_stage`].
    pub estimator: EstimatorConfig,
    /// Similarity-based fallback mapping for marker-loss binaries
    /// (ROADMAP item 4). `None` — the default — runs the exact
    /// pipeline, byte-identical to pre-fuzzy behavior. `Some` switches
    /// VLI cutting to the extended pairwise marker filter
    /// ([`extended_markers`]) and the map stage to
    /// [`map_stage_fuzzy`]; see `docs/MAPPING.md`.
    pub fuzzy: Option<FuzzyConfig>,
}

impl Default for CbspConfig {
    fn default() -> Self {
        CbspConfig {
            interval_target: 100_000,
            simpoint: SimPointConfig::default(),
            primary: 0,
            estimator: EstimatorConfig::default(),
            fuzzy: None,
        }
    }
}

/// Result of the cross-binary pipeline.
// Serialize/Deserialize are manual, not derived: `mappings` must be
// omitted when empty so exact-lane JSON (and therefore cached
// artifacts and digests) stays byte-identical to pre-fuzzy output —
// the vendored serde derive has no `skip_serializing_if`.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossBinaryResult {
    /// The mappable-point set.
    pub mappable: MappableSet,
    /// Procedures whose loops inline recovery re-mapped.
    pub recovered_procs: usize,
    /// Index of the primary binary.
    pub primary: usize,
    /// The primary binary's VLI profile.
    pub vli: VliProfile,
    /// SimPoint clustering of the primary binary's intervals.
    pub simpoint: SimPointResult,
    /// Interval boundaries translated to each binary (index-aligned
    /// with the input binary set).
    pub boundaries: Vec<Vec<ExecPoint>>,
    /// Instructions per mapped interval, per binary.
    pub interval_instrs: Vec<Vec<u64>>,
    /// Recalculated phase weights per binary: `weights[b][phase]`.
    pub weights: Vec<Vec<f64>>,
    /// How each simulation point was carried into each binary:
    /// `mappings[b][point]`. Empty for exact (non-fuzzy) runs, where
    /// every point is exact by construction.
    pub mappings: Vec<Vec<SimpointMapping>>,
}

impl Serialize for CrossBinaryResult {
    fn serialize_value(&self) -> serde::Value {
        let mut fields = vec![
            ("mappable".to_string(), self.mappable.serialize_value()),
            (
                "recovered_procs".to_string(),
                self.recovered_procs.serialize_value(),
            ),
            ("primary".to_string(), self.primary.serialize_value()),
            ("vli".to_string(), self.vli.serialize_value()),
            ("simpoint".to_string(), self.simpoint.serialize_value()),
            ("boundaries".to_string(), self.boundaries.serialize_value()),
            (
                "interval_instrs".to_string(),
                self.interval_instrs.serialize_value(),
            ),
            ("weights".to_string(), self.weights.serialize_value()),
        ];
        if !self.mappings.is_empty() {
            fields.push(("mappings".to_string(), self.mappings.serialize_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for CrossBinaryResult {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = value
            .as_object()
            .ok_or_else(|| serde::__private::unexpected("struct CrossBinaryResult", value))?;
        let field = |name: &str| serde::__private::get(pairs, name);
        Ok(CrossBinaryResult {
            mappable: req(field("mappable"), "mappable")?,
            recovered_procs: req(field("recovered_procs"), "recovered_procs")?,
            primary: req(field("primary"), "primary")?,
            vli: req(field("vli"), "vli")?,
            simpoint: req(field("simpoint"), "simpoint")?,
            boundaries: req(field("boundaries"), "boundaries")?,
            interval_instrs: req(field("interval_instrs"), "interval_instrs")?,
            weights: req(field("weights"), "weights")?,
            mappings: match field("mappings") {
                Some(v) => Deserialize::deserialize_value(v)?,
                None => Vec::new(),
            },
        })
    }
}

/// Deserializes a required struct field (shared by the manual impls
/// above; mirrors the derive's missing-field handling).
fn req<T: Deserialize>(value: Option<&serde::Value>, name: &str) -> Result<T, serde::Error> {
    match value {
        Some(v) => T::deserialize_value(v),
        None => T::deserialize_missing(name),
    }
}

impl CrossBinaryResult {
    /// Number of intervals in the mapped slicing.
    pub fn interval_count(&self) -> usize {
        self.vli.intervals.len()
    }

    /// Builds a PinPoints region file for binary `b` (regions =
    /// simulation points, bounds = mapped marker coordinates, weights =
    /// binary-specific recalculated weights).
    ///
    /// For fuzzy runs (non-empty [`mappings`](Self::mappings)), each
    /// region's bounds follow its [`SimpointMapping`]: exact points use
    /// marker coordinates as always, fuzzy points use the matched
    /// instruction-offset window, and unmapped points get a zero-weight
    /// empty region. Mapped weights are renormalized to sum to 1 so the
    /// file still validates when some points are unmapped.
    pub fn pinpoints_for(&self, b: usize, binary: &Binary, input: &Input) -> PinPointsFile {
        let bounds = &self.boundaries[b];
        let maps = (!self.mappings.is_empty()).then(|| &self.mappings[b]);
        let mut regions: Vec<SimRegion> = self
            .simpoint
            .points
            .iter()
            .enumerate()
            .map(|(pi, pt)| {
                // The binary's recalculated phase weight, split by the
                // point's within-phase share (1 for the
                // single-representative selectors).
                let weight = self.weights[b][pt.phase as usize] * pt.share;
                match maps.map(|m| m[pi]) {
                    Some(SimpointMapping::Fuzzy { start, end, .. }) => {
                        return SimRegion {
                            phase: pt.phase,
                            weight,
                            start: RegionBound::Instr(start),
                            end: RegionBound::Instr(end),
                        };
                    }
                    Some(SimpointMapping::Unmapped) => {
                        return SimRegion {
                            phase: pt.phase,
                            weight: 0.0,
                            start: RegionBound::Instr(0),
                            end: RegionBound::Instr(0),
                        };
                    }
                    Some(SimpointMapping::Exact) | None => {}
                }
                let i = pt.interval;
                let start = if i == 0 {
                    RegionBound::Instr(0)
                } else {
                    RegionBound::Point(bounds[i - 1])
                };
                let end = if i < bounds.len() {
                    RegionBound::Point(bounds[i])
                } else {
                    RegionBound::Instr(u64::MAX) // tail region: run to end
                };
                SimRegion {
                    phase: pt.phase,
                    weight,
                    start,
                    end,
                }
            })
            .collect();
        if maps.is_some() {
            let total: f64 = regions.iter().map(|r| r.weight).sum();
            if total > 0.0 {
                for r in regions.iter_mut() {
                    r.weight /= total;
                }
            }
        }
        PinPointsFile {
            program: binary.program.clone(),
            binary: binary.label(),
            input: input.name.clone(),
            interval_target: 0, // variable-length; target kept in config
            regions,
        }
    }
}

/// Output of the *mappable* stage: the cross-binary point set plus the
/// inline-recovery count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappableStage {
    /// The mappable-point set across all binaries.
    pub set: MappableSet,
    /// Procedures whose loops inline recovery re-mapped.
    pub recovered_procs: usize,
}

/// Output of the *map* stage: the primary slicing carried onto every
/// binary.
// Manual serde for the same reason as [`CrossBinaryResult`]: an empty
// `mappings` table is omitted so exact-lane artifacts stay
// byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedSlicing {
    /// Interval boundaries translated to each binary. In fuzzy runs,
    /// untranslatable entries hold
    /// [`UNMAPPED_BOUNDARY`](crate::fuzzy::UNMAPPED_BOUNDARY).
    pub boundaries: Vec<Vec<ExecPoint>>,
    /// Instructions per mapped interval, per binary.
    pub interval_instrs: Vec<Vec<u64>>,
    /// Recalculated phase weights per binary.
    pub weights: Vec<Vec<f64>>,
    /// Per-simpoint mapping outcomes (`mappings[b][point]`); empty for
    /// exact runs.
    pub mappings: Vec<Vec<SimpointMapping>>,
}

impl Serialize for MappedSlicing {
    fn serialize_value(&self) -> serde::Value {
        let mut fields = vec![
            ("boundaries".to_string(), self.boundaries.serialize_value()),
            (
                "interval_instrs".to_string(),
                self.interval_instrs.serialize_value(),
            ),
            ("weights".to_string(), self.weights.serialize_value()),
        ];
        if !self.mappings.is_empty() {
            fields.push(("mappings".to_string(), self.mappings.serialize_value()));
        }
        serde::Value::Object(fields)
    }
}

impl Deserialize for MappedSlicing {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let pairs = value
            .as_object()
            .ok_or_else(|| serde::__private::unexpected("struct MappedSlicing", value))?;
        let field = |name: &str| serde::__private::get(pairs, name);
        Ok(MappedSlicing {
            boundaries: req(field("boundaries"), "boundaries")?,
            interval_instrs: req(field("interval_instrs"), "interval_instrs")?,
            weights: req(field("weights"), "weights")?,
            mappings: match field("mappings") {
                Some(v) => Deserialize::deserialize_value(v)?,
                None => Vec::new(),
            },
        })
    }
}

/// Validates the binary set and configuration before any pipeline work.
///
/// # Errors
///
/// Returns an error when the binary set is empty, mixes programs, or
/// the primary index is out of range.
pub fn validate_binaries(binaries: &[&Binary], config: &CbspConfig) -> Result<(), CbspError> {
    if binaries.is_empty() {
        return Err(CbspError::EmptyBinarySet);
    }
    if config.primary >= binaries.len() {
        return Err(CbspError::PrimaryOutOfRange {
            primary: config.primary,
            binaries: binaries.len(),
        });
    }
    let program = &binaries[0].program;
    if let Some(b) = binaries.iter().find(|b| &b.program != program) {
        return Err(CbspError::ProgramMismatch {
            expected: program.clone(),
            found: b.program.clone(),
        });
    }
    Ok(())
}

/// Pipeline step 1 for one binary: its call/loop execution profile.
pub fn profile_stage(binary: &Binary, input: &Input) -> CallLoopProfile {
    let _span = cbsp_trace::span_labeled("stage/profile", || binary.label());
    CallLoopProfile::collect(binary, input)
}

/// Pipeline step 1 for every binary, fanned out over `pool` (one job
/// per binary; profiles are independent full-program runs and dominate
/// the pre-clustering wall time).
pub fn profile_stage_all(binaries: &[&Binary], input: &Input, pool: &Pool) -> Vec<CallLoopProfile> {
    pool.run_indexed(binaries.len(), |i| profile_stage(binaries[i], input))
}

/// Pipeline step 2: mappable points across all binaries, with inlined
/// loops recovered (paper §3.2.1–§3.2.2).
pub fn mappable_stage(binaries: &[&Binary], profiles: &[CallLoopProfile]) -> MappableStage {
    let _span = cbsp_trace::span("stage/mappable");
    let prof_refs: Vec<&CallLoopProfile> = profiles.iter().collect();
    let mut set = find_mappable_points(binaries, &prof_refs);
    let recovered_procs = recover_inlined(binaries, &prof_refs, &mut set);
    MappableStage {
        set,
        recovered_procs,
    }
}

/// Pipeline step 3: variable-length intervals on the primary binary
/// (paper §3.2.3).
///
/// Exact runs cut at the markers mappable across *all* binaries. Fuzzy
/// runs (`config.fuzzy` set) cut at the union of *pairwise* mappable
/// markers instead ([`extended_markers`], which needs `profiles`), so a
/// single marker-destroyed binary cannot balloon every interval.
pub fn vli_stage(
    binaries: &[&Binary],
    input: &Input,
    config: &CbspConfig,
    mappable: &MappableSet,
    profiles: &[CallLoopProfile],
) -> VliProfile {
    let _span = cbsp_trace::span("stage/vli");
    let markers = if config.fuzzy.is_some() && binaries.len() > 1 {
        extended_markers(binaries, profiles, config.primary)
    } else {
        mappable.markers_of(config.primary)
    };
    let vli = build_vli_with(
        binaries[config.primary],
        input,
        config.interval_target,
        &markers,
        config.estimator.features.wants_mav(),
    );
    cbsp_trace::add("pipeline/intervals_produced", vli.intervals.len() as u64);
    vli
}

/// Pipeline step 4: SimPoint clustering of the primary's interval
/// features. The estimator decides both the feature vectors (BBV, or
/// BBV ⧺ MAV when the profile recorded accesses) and the
/// representative-selection policy (`estimator.selector` overrides
/// `config.representative`).
pub fn simpoint_stage(
    vli: &VliProfile,
    config: &SimPointConfig,
    estimator: &EstimatorConfig,
) -> SimPointResult {
    let _span = cbsp_trace::span("stage/simpoint");
    let builder = estimator.features.builder();
    let vectors: Vec<Vec<f64>> = vli
        .intervals
        .iter()
        .enumerate()
        .map(|(i, iv)| builder.features(&iv.bbv, vli.mav(i)))
        .collect();
    let instrs: Vec<u64> = vli.intervals.iter().map(|i| i.instrs).collect();
    let effective = SimPointConfig {
        representative: estimator.selector,
        ..*config
    };
    analyze(&vectors, &instrs, &effective)
}

/// Pipeline steps 5–6: translate interval boundaries to every binary
/// and recalculate per-binary instruction counts and phase weights
/// (paper §3.2.4).
///
/// # Errors
///
/// Returns [`CbspError::UnmappableBoundary`] if a VLI boundary uses a
/// marker outside the mappable set (an internal invariant violation).
pub fn map_stage(
    binaries: &[&Binary],
    input: &Input,
    primary: usize,
    mappable: &MappableSet,
    vli: &VliProfile,
    simpoint: &SimPointResult,
    pool: &Pool,
) -> Result<MappedSlicing, CbspError> {
    let _span = cbsp_trace::span("stage/map");
    // Steps 5 and 6 fused into one per-binary fan-out: translate the
    // binary's boundary column (step 5, cheap table lookups), then
    // compute its interval instruction counts and phase weights
    // (step 6, where `slice_instr_counts` re-executes each non-primary
    // binary and dominates). One fan-out instead of two halves the
    // spawn/queue overhead, and the whole stage is `for_work`-gated on
    // the slicing cost so small workloads skip the fan-out entirely —
    // the same gating that fixed the compile-stage parallel regression.
    let mut table: BTreeMap<cbsp_profile::MarkerRef, usize> = BTreeMap::new();
    for (pi, p) in mappable.points.iter().enumerate() {
        table.insert(p.per_binary[primary], pi);
    }
    let instrs: Vec<u64> = vli.intervals.iter().map(|i| i.instrs).collect();
    let n_intervals = vli.intervals.len();
    let k = simpoint
        .points
        .iter()
        .map(|p| p.phase as usize + 1)
        .max()
        .unwrap_or(1);
    let est_ns = map_cost_estimate_ns(instrs.iter().sum(), vli.boundaries.len(), binaries.len());
    let per_binary = pool.for_work(est_ns).run_indexed(binaries.len(), |b| {
        let bounds = vli
            .boundaries
            .iter()
            .map(|bp| {
                let pi = table
                    .get(&bp.marker)
                    .ok_or(CbspError::UnmappableBoundary { marker: bp.marker })?;
                Ok(ExecPoint {
                    marker: mappable.points[*pi].per_binary[b],
                    count: bp.count,
                })
            })
            .collect::<Result<Vec<ExecPoint>, CbspError>>()?;
        let mut slices = if b == primary {
            instrs.clone()
        } else {
            slice_instr_counts(binaries[b], input, &bounds)
        };
        slices.resize(n_intervals, 0); // zero-length tail in this binary
        let total: u64 = slices.iter().sum();
        let mut w = vec![0.0f64; k];
        for (i, &label) in simpoint.labels.iter().enumerate() {
            w[label as usize] += slices[i] as f64;
        }
        if total > 0 {
            for x in w.iter_mut() {
                *x /= total as f64;
            }
        }
        Ok((bounds, slices, w))
    });

    let mut boundaries = Vec::with_capacity(binaries.len());
    let mut interval_instrs = Vec::with_capacity(binaries.len());
    let mut weights = Vec::with_capacity(binaries.len());
    for r in per_binary {
        let (bounds, slices, w): (Vec<ExecPoint>, Vec<u64>, Vec<f64>) = r?;
        boundaries.push(bounds);
        interval_instrs.push(slices);
        weights.push(w);
    }

    Ok(MappedSlicing {
        boundaries,
        interval_instrs,
        weights,
        mappings: Vec::new(), // exact runs: every point exact by construction
    })
}

/// Estimated serial cost of the map stage, for [`Pool::for_work`]
/// gating: slicing re-executes every non-primary binary (roughly one
/// nanosecond per primary instruction each), plus boundary translation
/// (tree lookups, ~100 ns per boundary per binary).
fn map_cost_estimate_ns(total_instrs: u64, n_boundaries: usize, n_binaries: usize) -> u64 {
    let non_primary = n_binaries.saturating_sub(1) as u64;
    total_instrs
        .saturating_mul(non_primary)
        .saturating_add((n_boundaries * n_binaries) as u64 * 100)
}

/// One stage execution of the pipeline, as [`run_stages`] hands it to
/// its [`StageHook`]. The derived order is the pipeline order —
/// profiles in binary order, then the four whole-set stages — so
/// sorting recorded stages restores it however the profiles
/// interleaved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Step 1 for binary `b`: its call/loop profile
    /// ([`CallLoopProfile`]).
    Profile(usize),
    /// Step 2: the mappable points ([`MappableStage`]).
    Mappable,
    /// Step 3: the primary binary's intervals ([`VliProfile`]).
    Vli,
    /// Step 4: the clustering ([`SimPointResult`]).
    Simpoint,
    /// Steps 5–6: the slicing mapped to every binary
    /// ([`MappedSlicing`]).
    Map,
}

impl Stage {
    /// The logical stage name: `profile`, `mappable`, `vli`,
    /// `simpoint` or `map`.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Profile(_) => "profile",
            Stage::Mappable => "mappable",
            Stage::Vli => "vli",
            Stage::Simpoint => "simpoint",
            Stage::Map => "map",
        }
    }
}

/// What happens around each stage [`run_stages`] executes. The library
/// driver's hook only computes; `cbsp-store`'s polls a cancellation
/// check and serves the stage from a content-addressed artifact store.
pub trait StageHook: Sync {
    /// Produces `stage`'s output, calling `compute` if it has to.
    ///
    /// # Errors
    ///
    /// Returns `compute`'s error, or the hook's own (cancellation,
    /// store failure).
    fn run<T, F>(&self, stage: Stage, compute: F) -> Result<T, CbspError>
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> Result<T, CbspError>;
}

/// The hook of [`run_cross_binary`]: every stage is computed.
struct Compute;

impl StageHook for Compute {
    fn run<T, F>(&self, _stage: Stage, compute: F) -> Result<T, CbspError>
    where
        T: Serialize + Deserialize,
        F: FnOnce() -> Result<T, CbspError>,
    {
        compute()
    }
}

/// Runs the full cross-binary pipeline over `binaries`, each stage
/// through `hook`.
///
/// This is the one copy of the stage sequence ([`profile_stage`] per
/// binary → [`mappable_stage`] → [`vli_stage`] → [`simpoint_stage`] →
/// [`map_stage`], or [`map_stage_fuzzy`] when `config.fuzzy` is set).
/// The profiles run in parallel over one pool sized by
/// `config.simpoint.threads`, which the map stage reuses.
///
/// # Errors
///
/// Returns an error when the binary set is empty, mixes programs, or
/// the primary index is out of range, and otherwise the first error a
/// stage or the hook returns.
pub fn run_stages<H: StageHook>(
    binaries: &[&Binary],
    input: &Input,
    config: &CbspConfig,
    hook: &H,
) -> Result<CrossBinaryResult, CbspError> {
    validate_binaries(binaries, config)?;
    let pool = Pool::new(config.simpoint.threads);

    // Steps 1-2: profiles and mappable points.
    let profiles = pool
        .run_indexed(binaries.len(), |b| {
            hook.run(Stage::Profile(b), || Ok(profile_stage(binaries[b], input)))
        })
        .into_iter()
        .collect::<Result<Vec<CallLoopProfile>, CbspError>>()?;
    let MappableStage {
        set: mappable,
        recovered_procs,
    } = hook.run(Stage::Mappable, || Ok(mappable_stage(binaries, &profiles)))?;

    // Step 3: VLIs on the primary binary.
    let primary = config.primary;
    let vli = hook.run(Stage::Vli, || {
        Ok(vli_stage(binaries, input, config, &mappable, &profiles))
    })?;

    // Step 4: SimPoint on the primary's interval features.
    let simpoint = hook.run(Stage::Simpoint, || {
        Ok(simpoint_stage(&vli, &config.simpoint, &config.estimator))
    })?;

    // Steps 5-6: boundary translation and weight recalculation —
    // exact-only, or with the similarity fallback when fuzzy mapping
    // is enabled.
    let MappedSlicing {
        boundaries,
        interval_instrs,
        weights,
        mappings,
    } = hook.run(Stage::Map, || {
        if config.fuzzy.is_some() {
            Ok(map_stage_fuzzy(
                binaries, input, &profiles, &vli, &simpoint, config, &pool,
            ))
        } else {
            map_stage(binaries, input, primary, &mappable, &vli, &simpoint, &pool)
        }
    })?;

    Ok(CrossBinaryResult {
        mappable,
        recovered_procs,
        primary,
        vli,
        simpoint,
        boundaries,
        interval_instrs,
        weights,
        mappings,
    })
}

/// Runs the full cross-binary pipeline over `binaries`, computing every
/// stage ([`run_stages`] with a hook that only computes). The
/// `cbsp-store` crate runs the same driver with a hook that serves
/// stages from a content-addressed artifact store.
///
/// # Errors
///
/// Returns an error when the binary set is empty, mixes programs, or
/// the primary index is out of range.
pub fn run_cross_binary(
    binaries: &[&Binary],
    input: &Input,
    config: &CbspConfig,
) -> Result<CrossBinaryResult, CbspError> {
    run_stages(binaries, input, config, &Compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbsp_program::{compile, workloads, CompileTarget, Scale};

    fn run_for(name: &str) -> (Vec<Binary>, Input, CrossBinaryResult) {
        let prog = workloads::by_name(name)
            .expect("in suite")
            .build(Scale::Test);
        let input = Input::test();
        let bins: Vec<Binary> = CompileTarget::ALL_FOUR
            .iter()
            .map(|&t| compile(&prog, t))
            .collect();
        let config = CbspConfig {
            interval_target: 20_000,
            ..CbspConfig::default()
        };
        let result = run_cross_binary(&bins.iter().collect::<Vec<_>>(), &input, &config)
            .expect("pipeline runs");
        (bins, input, result)
    }

    #[test]
    fn pipeline_produces_consistent_structures() {
        let (_bins, _input, r) = run_for("swim");
        assert!(r.interval_count() > 2);
        assert_eq!(r.boundaries.len(), 4);
        assert_eq!(r.weights.len(), 4);
        assert_eq!(r.interval_instrs.len(), 4);
        for b in 0..4 {
            assert_eq!(r.interval_instrs[b].len(), r.interval_count());
            let total: f64 = r.weights[b].iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "weights[{b}] sum {total}");
        }
        assert_eq!(r.simpoint.labels.len(), r.interval_count());
    }

    #[test]
    fn weights_differ_across_binaries_but_phases_align() {
        let (_bins, _input, r) = run_for("apsi");
        // Same phase structure everywhere (labels come from the primary),
        // but weights are binary-specific.
        let w0 = &r.weights[0];
        assert!(
            r.weights
                .iter()
                .any(|w| { w.iter().zip(w0).any(|(a, b)| (a - b).abs() > 1e-6) }),
            "at least one binary should reweight phases"
        );
    }

    #[test]
    fn errors_are_reported() {
        let prog = workloads::by_name("gzip")
            .expect("in suite")
            .build(Scale::Test);
        let other = workloads::by_name("mcf")
            .expect("in suite")
            .build(Scale::Test);
        let a = compile(&prog, CompileTarget::W32_O0);
        let b = compile(&other, CompileTarget::W32_O2);
        let input = Input::test();
        let config = CbspConfig::default();

        assert!(matches!(
            run_cross_binary(&[], &input, &config),
            Err(CbspError::EmptyBinarySet)
        ));
        assert!(matches!(
            run_cross_binary(&[&a, &b], &input, &config),
            Err(CbspError::ProgramMismatch { .. })
        ));
        let bad = CbspConfig {
            primary: 5,
            ..config
        };
        assert!(matches!(
            run_cross_binary(&[&a], &input, &bad),
            Err(CbspError::PrimaryOutOfRange { .. })
        ));
    }

    #[test]
    fn pinpoints_files_validate() {
        let (bins, input, r) = run_for("gzip");
        for (b, bin) in bins.iter().enumerate() {
            let pp = r.pinpoints_for(b, bin, &input);
            assert_eq!(pp.validate(), Ok(()), "binary {b}");
            assert_eq!(pp.regions.len(), r.simpoint.points.len());
        }
    }

    #[test]
    fn applu_pattern_yields_oversized_intervals() {
        let (_bins, _input, r) = run_for("applu");
        // The paper's Figure 2 outlier: inlining + splitting leaves no
        // mappable markers inside a driver iteration, so VLIs are far
        // larger than the target.
        assert!(
            r.vli.average_interval_size() > 2.0 * 20_000.0,
            "applu VLIs should balloon: avg {}",
            r.vli.average_interval_size()
        );
    }

    #[test]
    fn swim_intervals_stay_near_the_target() {
        let (_bins, _input, r) = run_for("swim");
        assert!(
            r.vli.average_interval_size() < 2.0 * 20_000.0,
            "swim has dense markers: avg {}",
            r.vli.average_interval_size()
        );
    }
}
