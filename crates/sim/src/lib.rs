//! # cbsp-sim — a CMP$im-like performance simulator
//!
//! The simulator the paper evaluates with (§4): an in-order core
//! attached to a three-level non-inclusive write-back data-cache
//! hierarchy (Table 1: 32 KB 2-way L1, 512 KB 8-way L2, 1 MB 16-way L3,
//! 64 B lines, LRU, 3/14/35-cycle hit latencies, 250-cycle DRAM).
//!
//! Cycles = instructions + Σ per-access latency of the servicing level.
//!
//! Every driver interprets the binary straight into a simulator sink:
//! * [`simulate_full`] — whole-program ground truth;
//! * [`simulate_fli_sliced`] — the same run, reported per fixed-length
//!   interval (for per-binary SimPoint evaluation);
//! * [`simulate_marker_sliced`] — the same run, reported per mapped
//!   marker-bounded interval (for cross-binary SimPoint evaluation);
//! * [`simulate_sliced_both`] — both slicings from one run;
//! * [`simulate_regions`] — only the regions of a PinPoints file;
//! * [`slice_trace`] — the marker slicing, plus one recorded
//!   [`TraceSlice`] per selected interval, which [`replay_slice`]
//!   simulates again from its state checkpoint alone.
//!
//! No product path reads a recorded event stream back: decoding a
//! whole recorded [`EventTrace`] costs about as much as interpreting
//! the binary, so no driver records one, and CPI estimates read their
//! evaluation's stored simulation results rather than slices.
//! Whole-trace recording, [`replay_full`], [`slice_trace`] and
//! [`replay_slice`] stay for the end-to-end benchmark's probes.
//!
//! ## Example
//!
//! ```
//! use cbsp_program::{workloads, compile, CompileTarget, Input, Scale};
//! use cbsp_sim::{simulate_full, MemoryConfig};
//!
//! let prog = workloads::by_name("mcf").expect("in suite").build(Scale::Test);
//! let bin = compile(&prog, CompileTarget::W64_O2);
//! let stats = simulate_full(&bin, &Input::test(), &MemoryConfig::table1());
//! assert!(stats.cpi() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod record;
pub mod regions;
pub mod replay;
pub mod runner;
pub mod slice;
pub mod stats;

pub use branch::{BranchConfig, Gshare};
pub use cache::{AccessOutcome, Cache};
pub use config::{CacheLevelConfig, MemoryConfig, Replacement};
pub use hierarchy::{Hierarchy, ServicedBy};
pub use record::{record_trace, EventTrace, RecordSink};
pub use regions::{
    estimate_cpi_from_regions, simulate_regions, simulate_regions_with, RegionStats, Warmup,
};
pub use replay::{replay, replay_full, TraceError};
pub use runner::{
    simulate_fli_sliced, simulate_full, simulate_marker_sliced, simulate_sliced_both, BothSlicings,
    FliSlicedSim, FullSim, MarkerSlicedSim,
};
pub use slice::{replay_slice, slice_trace, SlicedTrace, TraceSlice};
pub use stats::{IntervalSim, LevelStats, SimStats};

/// Small xorshift step used by the random replacement policy.
#[inline]
pub(crate) fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
