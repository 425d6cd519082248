//! Seed-stability study: SimPoint is a randomized analysis (projection
//! matrix, k-means++ seeding), so its estimates vary run to run unless
//! the seed is pinned. This study quantifies that variation for the
//! cross-binary scheme — the spread of CPI and speedup estimates over
//! several master seeds — showing the conclusions do not hinge on a
//! lucky seed.

use cbsp_core::{run_cross_binary, CbspConfig};
use cbsp_program::{workloads, Scale};
use cbsp_sim::{simulate_marker_sliced, MemoryConfig};
use cbsp_simpoint::SimPointConfig;
use cbsp_store::{CpiEstimate, Prepared};
use std::fmt::Write as _;

/// Stability of one benchmark's estimates across seeds.
#[derive(Debug, Clone)]
pub struct SeedRow {
    /// Benchmark name.
    pub name: String,
    /// Seeds evaluated.
    pub seeds: usize,
    /// True 32u→64u speedup.
    pub true_speedup: f64,
    /// Per-seed estimated speedups.
    pub est_speedups: Vec<f64>,
    /// Per-seed mean CPI error across the four binaries.
    pub cpi_errs: Vec<f64>,
}

impl SeedRow {
    /// Largest deviation of any seed's speedup estimate from truth.
    pub fn worst_speedup_err(&self) -> f64 {
        self.est_speedups
            .iter()
            .map(|e| ((self.true_speedup - e) / self.true_speedup).abs())
            .fold(0.0, f64::max)
    }

    /// Spread (max − min) of the speedup estimates across seeds.
    pub fn speedup_spread(&self) -> f64 {
        let min = self
            .est_speedups
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let max = self
            .est_speedups
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        max - min
    }

    /// Worst per-seed mean CPI error.
    pub fn worst_cpi_err(&self) -> f64 {
        self.cpi_errs.iter().copied().fold(0.0, f64::max)
    }
}

/// Evaluates one benchmark under `seeds` different SimPoint master
/// seeds (profiling and simulation are deterministic; only the
/// clustering randomness varies).
pub fn seed_stability(name: &str, scale: Scale, interval_target: u64, seeds: usize) -> SeedRow {
    let workload = workloads::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let prepared = Prepared::of(&workload, scale);
    let input = prepared.input();
    let mem = MemoryConfig::table1();

    let mut est_speedups = Vec::with_capacity(seeds);
    let mut cpi_errs = Vec::with_capacity(seeds);
    let mut true_speedup = 0.0;
    for s in 0..seeds {
        let config = CbspConfig {
            interval_target,
            simpoint: SimPointConfig {
                seed: 0xBA5E_0000 + s as u64,
                ..SimPointConfig::default()
            },
            ..CbspConfig::default()
        };
        let result = run_cross_binary(&prepared.refs(), input, &config).expect("pipeline succeeds");
        let mut est_cycles = [0.0f64; 4];
        let mut true_cycles = [0.0f64; 4];
        let mut err = 0.0;
        for (b, bin) in prepared.binaries().iter().enumerate() {
            let (full, ivs) = simulate_marker_sliced(bin, input, &mem, &result.boundaries[b]);
            let est = CpiEstimate::from_marker_intervals(&result, b, &full, &ivs).estimated_cpi;
            est_cycles[b] = est * full.instructions as f64;
            true_cycles[b] = full.cycles as f64;
            err += (full.cpi() - est).abs() / full.cpi();
        }
        true_speedup = true_cycles[0] / true_cycles[2];
        est_speedups.push(est_cycles[0] / est_cycles[2]);
        cpi_errs.push(err / 4.0);
    }
    SeedRow {
        name: name.to_string(),
        seeds,
        true_speedup,
        est_speedups,
        cpi_errs,
    }
}

/// Renders the stability table.
pub fn render(rows: &[SeedRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Seed stability (mappable SimPoint, {} seeds per benchmark)\n\
         {:<10} {:>12} {:>14} {:>14} {:>14}",
        rows.first().map_or(0, |r| r.seeds),
        "benchmark",
        "true 32u64u",
        "worst sp err",
        "sp spread",
        "worst CPI err"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>11.3}x {:>13.2}% {:>13.4} {:>13.2}%",
            r.name,
            r.true_speedup,
            100.0 * r.worst_speedup_err(),
            r.speedup_spread(),
            100.0 * r.worst_cpi_err()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_stable_across_seeds() {
        let _guard = cbsp_trace::test_lock();
        let row = seed_stability("gzip", Scale::Train, 50_000, 3);
        assert_eq!(row.est_speedups.len(), 3);
        assert!(
            row.worst_speedup_err() < 0.05,
            "worst seed speedup err {}",
            row.worst_speedup_err()
        );
        assert!(
            row.speedup_spread() < 0.1 * row.true_speedup,
            "spread {} vs true {}",
            row.speedup_spread(),
            row.true_speedup
        );
    }
}
