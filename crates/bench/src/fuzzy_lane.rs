//! Fuzzy-mapping accuracy lane: the marker-loss scenario as a gated
//! experiment.
//!
//! Every benchmark in this lane is evaluated on the *applu set*
//! (paper §5.1): two unoptimized binaries compiled normally plus two
//! optimized siblings compiled with
//! [`CompileOptions::marker_destroying`] — aggressive inlining and
//! unconditional loop splitting, which erase almost every mappable
//! marker. The exact map stage cannot place simulation points in the
//! destroyed binaries, so this lane exercises the similarity fallback
//! ([`FuzzyConfig`]) end to end: run the fuzzy pipeline, replay each
//! binary's mapped region file, and compare the extrapolated CPI
//! against a full detailed simulation.
//!
//! The lane rides along with `experiments accuracy-gate --fuzzy`,
//! where it is gated two ways (see [`crate::accuracy_gate`]):
//!
//! * an **absolute floor** — at least [`MAPPED_FLOOR`] of each
//!   benchmark's simulation points must map (exactly or fuzzily); and
//! * a **looser CPI-error bound** — per-benchmark CPI error may
//!   degrade vs the committed reference by up to
//!   [`FUZZY_SLACK_MULTIPLIER`]× the exact lanes' slack, because
//!   similarity-matched windows are approximations of regions the
//!   target binary no longer delimits.

use cbsp_core::fuzzy::{mapping_stats, FuzzyConfig};
use cbsp_core::{relative_error, run_cross_binary, CbspConfig};
use cbsp_par::Pool;
use cbsp_program::{
    compile, compile_with, workloads, Binary, CompileOptions, CompileTarget, Input, Scale,
};
use cbsp_sim::{estimate_cpi_from_regions, simulate_full, simulate_regions, MemoryConfig};
use cbsp_simpoint::SimPointConfig;
use serde::{Deserialize, Serialize};

/// Default benchmark subset for the lane: the paper's marker-loss
/// example (`applu`) plus the workloads the fuzzy end-to-end tests
/// exercise, spanning loop-heavy FP and branchy integer codes.
pub const FUZZY_BENCHMARKS: [&str; 5] = ["applu", "art", "gzip", "mcf", "swim"];

/// Minimum fraction of simulation points each benchmark must map
/// (exactly or fuzzily) for the gate to pass — the ≥ 80% bar from
/// ROADMAP item 4.
pub const MAPPED_FLOOR: f64 = 0.8;

/// How much looser the fuzzy lane's CPI-error slack is than the exact
/// lanes': `--tolerance 0.02` gates fuzzy CPI error at 0.10 absolute.
pub const FUZZY_SLACK_MULTIPLIER: f64 = 5.0;

/// One benchmark's fuzzy-lane evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzyBenchmark {
    /// Benchmark name.
    pub name: String,
    /// Simulation-point placements that translated exactly, summed
    /// over the four binaries.
    pub exact: usize,
    /// Placements recovered by similarity matching.
    pub fuzzy: usize,
    /// Placements below the acceptance threshold (dropped, weight
    /// renormalized over the rest).
    pub unmapped: usize,
    /// Mean cosine confidence over the fuzzy placements (0 when none).
    pub mean_confidence: f64,
    /// `(exact + fuzzy) / total` placements.
    pub mapped_fraction: f64,
    /// Whole-program CPI from full detailed simulation, per binary.
    pub true_cpi: [f64; 4],
    /// CPI extrapolated from the mapped region file, per binary.
    pub est_cpi: [f64; 4],
    /// Relative CPI error, per binary.
    pub cpi_err: [f64; 4],
}

impl FuzzyBenchmark {
    /// Mean relative CPI error across the four binaries.
    pub fn avg_cpi_err(&self) -> f64 {
        self.cpi_err.iter().sum::<f64>() / 4.0
    }
}

/// The whole lane: one [`FuzzyBenchmark`] per evaluated benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzyLane {
    /// Acceptance threshold the lane ran at.
    pub threshold: f64,
    /// Per-benchmark rows, in run order.
    pub benchmarks: Vec<FuzzyBenchmark>,
}

/// The applu set for `name`: normally-compiled unoptimized binaries
/// plus marker-destroyed optimized siblings. The normal siblings keep
/// the pairwise marker union fine-grained, so the destroyed binaries
/// genuinely cannot translate most boundaries and must fall back to
/// similarity matching.
///
/// # Panics
///
/// Panics if `name` is not in the workload suite.
pub fn destroyed_binaries(name: &str, scale: Scale) -> Vec<Binary> {
    let program = workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .build(scale);
    let destroy = CompileOptions::marker_destroying();
    vec![
        compile(&program, CompileTarget::W32_O0),
        compile(&program, CompileTarget::W64_O0),
        compile_with(&program, CompileTarget::W32_O2, destroy),
        compile_with(&program, CompileTarget::W64_O2, destroy),
    ]
}

/// Evaluates one benchmark on its applu set: fuzzy pipeline, mapped
/// region replay per binary, CPI error vs full simulation.
///
/// # Panics
///
/// Panics if `name` is not in the workload suite.
pub fn fuzzy_benchmark(
    name: &str,
    scale: Scale,
    interval_target: u64,
    threshold: f64,
    mem: &MemoryConfig,
    pool: &Pool,
) -> FuzzyBenchmark {
    let input = Input::for_scale(scale);
    let binaries = destroyed_binaries(name, scale);
    let config = CbspConfig {
        interval_target,
        fuzzy: Some(FuzzyConfig { threshold }),
        simpoint: SimPointConfig {
            threads: pool.threads(),
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    let bin_refs: Vec<&Binary> = binaries.iter().collect();
    let result = run_cross_binary(&bin_refs, &input, &config).expect("same-program binaries");
    let stats = mapping_stats(&result.mappings);

    // Truth and estimate per binary: a full detailed simulation next
    // to a replay of the mapped (exact / fuzzy-window) region file.
    let sims = pool.run_indexed(binaries.len(), |b| {
        let truth = simulate_full(&binaries[b], &input, mem).cpi();
        let file = result.pinpoints_for(b, &binaries[b], &input);
        let regions = simulate_regions(&binaries[b], &input, mem, &file);
        (truth, estimate_cpi_from_regions(&regions))
    });
    let mut row = FuzzyBenchmark {
        name: name.to_string(),
        exact: stats.exact,
        fuzzy: stats.fuzzy,
        unmapped: stats.unmapped,
        mean_confidence: stats.mean_confidence,
        mapped_fraction: stats.mapped_fraction(),
        true_cpi: [0.0; 4],
        est_cpi: [0.0; 4],
        cpi_err: [0.0; 4],
    };
    for (b, (truth, est)) in sims.into_iter().enumerate() {
        row.true_cpi[b] = truth;
        row.est_cpi[b] = est;
        row.cpi_err[b] = relative_error(truth, est);
    }
    row
}

/// Runs the lane for `names` (or [`FUZZY_BENCHMARKS`] when empty),
/// spreading benchmarks over `threads` worker threads the same way
/// [`crate::run_suite`] does.
///
/// # Panics
///
/// Panics if any name is not in the workload suite.
pub fn run_fuzzy_lane(
    names: &[String],
    scale: Scale,
    interval_target: u64,
    threshold: f64,
    mem: &MemoryConfig,
    threads: usize,
) -> FuzzyLane {
    let selected: Vec<&str> = if names.is_empty() {
        FUZZY_BENCHMARKS.to_vec()
    } else {
        names.iter().map(String::as_str).collect()
    };
    let budget = Pool::new(threads.max(1));
    let outer = Pool::new(budget.threads().min(selected.len().max(1)));
    let inner = budget.split(outer.threads());
    let benchmarks = outer.run_indexed(selected.len(), |i| {
        let row = fuzzy_benchmark(selected[i], scale, interval_target, threshold, mem, &inner);
        eprintln!("  [fuzzy] {} done", selected[i]);
        row
    });
    FuzzyLane {
        threshold,
        benchmarks,
    }
}

/// Renders the lane as the table `experiments accuracy-gate --fuzzy`
/// prints.
pub fn render_fuzzy(lane: &FuzzyLane) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Fuzzy mapping lane (threshold {:.2}) — marker-destroyed optimized siblings\n",
        lane.threshold
    ));
    out.push_str(&format!(
        "{:<10} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8}\n",
        "benchmark", "exact", "fuzzy", "unmap", "conf", "mapped", "cpi_err"
    ));
    for b in &lane.benchmarks {
        out.push_str(&format!(
            "{:<10} {:>6} {:>6} {:>6} {:>6.3} {:>7.0}% {:>7.2}%\n",
            b.name,
            b.exact,
            b.fuzzy,
            b.unmapped,
            b.mean_confidence,
            100.0 * b.mapped_fraction,
            100.0 * b.avg_cpi_err()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_maps_destroyed_binaries_and_estimates_cpi() {
        let _guard = cbsp_trace::test_lock();
        let row = fuzzy_benchmark(
            "swim",
            Scale::Test,
            20_000,
            FuzzyConfig::DEFAULT_THRESHOLD,
            &MemoryConfig::table1(),
            &Pool::new(2),
        );
        assert!(row.fuzzy > 0, "destroyed set must exercise the fallback");
        assert!(
            row.mapped_fraction >= MAPPED_FLOOR,
            "mapped only {:.0}%",
            100.0 * row.mapped_fraction
        );
        for b in 0..4 {
            assert!(row.true_cpi[b] > 1.0, "binary {b} true CPI");
            assert!(row.est_cpi[b] > 0.0, "binary {b} estimate");
            assert!(row.cpi_err[b] < 0.5, "binary {b} err {}", row.cpi_err[b]);
        }
        let lane = FuzzyLane {
            threshold: FuzzyConfig::DEFAULT_THRESHOLD,
            benchmarks: vec![row],
        };
        let table = render_fuzzy(&lane);
        assert!(table.contains("swim"), "{table}");
        assert!(table.contains("cpi_err"), "{table}");
    }
}
