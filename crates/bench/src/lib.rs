//! # cbsp-bench — experiment harness
//!
//! Regenerates every table and figure of the Cross Binary Simulation
//! Points paper on the synthetic suite:
//!
//! | Artifact | Function |
//! |---|---|
//! | Table 1 (memory config) | [`report::table1`] |
//! | Figure 1 (#SimPoints) | [`report::fig1`] |
//! | Figure 2 (VLI interval size) | [`report::fig2`] |
//! | Figure 3 (CPI error) | [`report::fig3`] |
//! | Figure 4 (same-platform speedup error) | [`report::fig4`] |
//! | Figure 5 (cross-platform speedup error) | [`report::fig5`] |
//! | Tables 2/3 (phase bias, gcc & apsi) | [`report::phase_table`] |
//!
//! Run everything with the `experiments` binary:
//!
//! ```text
//! cargo run --release -p cbsp-bench --bin experiments -- all --scale ref
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod archsweep;
pub mod estimators;
pub mod experiment;
pub mod fuzzy_lane;
pub mod gate;
pub mod report;
pub mod seeds;
pub mod softmark_study;
pub mod suite;
pub mod warmup;

pub use ablation::{run_ablations, standard_variants, Variant, VariantResult};
pub use archsweep::{standard_archs, sweep_benchmark, ArchSweepRow, ArchVariant};
pub use estimators::{lane_rows, render_lanes, EstimatorLane, LaneBenchmark};
pub use experiment::{
    evaluate_benchmark, evaluate_benchmark_cached, mpki_eval, phase_bias, BenchmarkEval,
    BenchmarkRun, MpkiEval, Pair, PhaseBias, PhaseRow, SchemeEval,
};
pub use fuzzy_lane::{
    destroyed_binaries, fuzzy_benchmark, render_fuzzy, run_fuzzy_lane, FuzzyBenchmark, FuzzyLane,
    FUZZY_BENCHMARKS, FUZZY_SLACK_MULTIPLIER, MAPPED_FLOOR,
};
pub use gate::{
    accuracy_gate, bench_gate, render_bench_gate, render_gate, BenchGateReport, BenchPair,
    BenchRow, BenchRun, EndToEndMetric, GateFailure, GateReport,
};
pub use seeds::{seed_stability, SeedRow};
pub use softmark_study::{softmark_benchmark, SoftMarkRow};
pub use suite::{run_suite, SuiteResults};
pub use warmup::{warmup_benchmark, WarmupRow};
