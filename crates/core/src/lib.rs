//! # cbsp-core — Cross Binary Simulation Points
//!
//! The primary contribution of the paper (Perelman et al., ISPASS
//! 2007): finding a *single* set of simulation points usable across
//! every binary compiled from one program source, so that sampled
//! simulation compares the *same* parts of execution when the ISA or
//! optimization level changes.
//!
//! * [`find_mappable_points`] / [`MappableSet`] — procedure entries and
//!   loop branches identifiable in every binary (§3.2.2);
//! * [`inlining::recover_inlined`] — re-mapping loops of inlined
//!   procedures by their trip-count signatures (§3.3);
//! * [`build_vli`] / [`VliProfile`] — variable-length intervals bounded
//!   by mappable points (§3.2.3);
//! * [`run_cross_binary`] — the end-to-end six-step pipeline (§3.2),
//!   producing mapped simulation points and per-binary weights;
//!   [`run_stages`] is its driver, the one copy of the stage sequence,
//!   which runs every [`Stage`] through a [`StageHook`] (`cbsp-store`'s
//!   adds caching and cancellation);
//! * [`run_per_binary`] — the classic per-binary SimPoint baseline
//!   (§2) the paper compares against;
//! * [`estimate`] — CPI extrapolation, speedup, and the paper's error
//!   metrics (§5.2);
//! * [`fuzzy`] — the similarity-based mapping fallback for binaries
//!   whose markers optimization destroyed (the paper's `applu` §5.1
//!   failure mode): cosine window matching over shared-space profiles,
//!   per-simpoint [`fuzzy::SimpointMapping`] outcomes, contract
//!   documented (and replay-tested) in `docs/MAPPING.md`.
//!
//! ## Example
//!
//! ```
//! use cbsp_program::{workloads, compile, CompileTarget, Input, Scale};
//! use cbsp_core::{run_cross_binary, CbspConfig};
//!
//! let prog = workloads::by_name("swim").expect("in suite").build(Scale::Test);
//! let bins: Vec<_> = CompileTarget::ALL_FOUR
//!     .iter()
//!     .map(|&t| compile(&prog, t))
//!     .collect();
//! let config = CbspConfig { interval_target: 20_000, ..CbspConfig::default() };
//! let result = run_cross_binary(
//!     &bins.iter().collect::<Vec<_>>(),
//!     &Input::test(),
//!     &config,
//! )?;
//! // The same phases, with per-binary weights, for all four binaries.
//! assert_eq!(result.weights.len(), 4);
//! # Ok::<(), cbsp_core::CbspError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod estimate;
pub mod fuzzy;
pub mod inlining;
pub mod mappable;
pub mod perbinary;
pub mod pipeline;
pub mod softmarkers;
pub mod vli;

pub use error::CbspError;
pub use estimate::{
    estimated_cycles, relative_error, speedup, speedup_error, stratified_ci, weighted_cpi,
    weighted_cpi_with, weighted_metric, weighted_metric_with, STRATIFIED_CI_Z,
};
pub use fuzzy::{
    cosine_similarity, extended_markers, map_stage_fuzzy, mapping_stats, FuzzyConfig, MappingStats,
    SimpointMapping, UNMAPPED_BOUNDARY,
};
pub use mappable::{find_mappable_points, MappablePoint, MappableSet, PointKind};
pub use perbinary::{run_per_binary, PerBinaryResult};
pub use pipeline::{
    map_stage, mappable_stage, profile_stage, profile_stage_all, run_cross_binary, run_stages,
    simpoint_stage, validate_binaries, vli_stage, CbspConfig, CrossBinaryResult, MappableStage,
    MappedSlicing, Stage, StageHook,
};
pub use softmarkers::{
    marker_period_stats, marker_period_stats_all, select_phase_markers, slice_at_marker,
    MarkerStats,
};
pub use vli::{build_vli, build_vli_with, slice_instr_counts, VliProfile};
