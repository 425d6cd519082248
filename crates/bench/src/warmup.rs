//! Warm-up study: how much of the sampled-simulation accuracy depends
//! on presenting each region with warmed cache state.
//!
//! The paper's evaluation (like the PinPoints flow it builds on)
//! simulates regions in context, i.e. with functionally-warmed caches.
//! At small region sizes, cold-starting each region instead inflates
//! its measured CPI by re-paying compulsory misses — this experiment
//! quantifies that error for both bound kinds, motivating the
//! functional-warming default of [`cbsp_sim::simulate_regions`].

use cbsp_core::{run_cross_binary, CbspConfig};
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_sim::{
    estimate_cpi_from_regions, simulate_full, simulate_regions_with, MemoryConfig, Warmup,
};
use std::fmt::Write as _;

/// Result row for one benchmark.
#[derive(Debug, Clone)]
pub struct WarmupRow {
    /// Benchmark name.
    pub name: String,
    /// True whole-program CPI (32o binary).
    pub true_cpi: f64,
    /// Estimate with functional warming.
    pub warm_est: f64,
    /// Estimate with cold-started regions.
    pub cold_est: f64,
}

impl WarmupRow {
    /// Relative error of the warm estimate.
    pub fn warm_err(&self) -> f64 {
        (self.true_cpi - self.warm_est).abs() / self.true_cpi
    }

    /// Relative error of the cold estimate.
    pub fn cold_err(&self) -> f64 {
        (self.true_cpi - self.cold_est).abs() / self.true_cpi
    }
}

/// Runs the study on one benchmark (the optimized 32-bit binary, using
/// cross-binary region files).
pub fn warmup_benchmark(name: &str, scale: Scale, interval_target: u64) -> WarmupRow {
    let prog = workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .build(scale);
    let input = match scale {
        Scale::Test => Input::test(),
        Scale::Train => Input::train(),
        Scale::Reference => Input::reference(),
    };
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    let config = CbspConfig {
        interval_target,
        ..CbspConfig::default()
    };
    let result = run_cross_binary(&binaries.iter().collect::<Vec<_>>(), &input, &config)
        .expect("pipeline succeeds");
    let mem = MemoryConfig::table1();
    let b = 1; // the 32o binary
    let file = result.pinpoints_for(b, &binaries[b], &input);
    let bin = &binaries[b];
    let warm = simulate_regions_with(bin, &input, &mem, &file, Warmup::Functional);
    let cold = simulate_regions_with(bin, &input, &mem, &file, Warmup::Cold);
    let full = simulate_full(bin, &input, &mem);
    WarmupRow {
        name: name.to_string(),
        true_cpi: full.cpi(),
        warm_est: estimate_cpi_from_regions(&warm),
        cold_est: estimate_cpi_from_regions(&cold),
    }
}

/// Renders the study table.
pub fn render(rows: &[WarmupRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Warm-up study (32o binary, cross-binary regions)\n\
         {:<10} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "benchmark", "true CPI", "warm est", "warm err", "cold est", "cold err"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>9.3} {:>10.3} {:>9.2}% {:>10.3} {:>9.2}%",
            r.name,
            r.true_cpi,
            r.warm_est,
            100.0 * r.warm_err(),
            r.cold_est,
            100.0 * r.cold_err()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_start_hurts_estimates() {
        let _guard = cbsp_trace::test_lock();
        let row = warmup_benchmark("gzip", Scale::Train, 50_000);
        assert!(row.warm_err() < 0.05, "warm err {}", row.warm_err());
        assert!(
            row.cold_est > row.warm_est,
            "cold ({}) must overestimate vs warm ({})",
            row.cold_est,
            row.warm_est
        );
        assert!(
            row.cold_err() > row.warm_err(),
            "cold err {} should exceed warm err {}",
            row.cold_err(),
            row.warm_err()
        );
    }
}
