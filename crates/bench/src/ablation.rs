//! Ablation studies over the design choices DESIGN.md calls out:
//! interval size, cluster budget, projection dimensionality, BIC
//! threshold, representative policy, primary-binary choice, and the
//! value of inline recovery (via the compiler's
//! `preserve_inline_lines` switch, which makes recovery unnecessary).
//!
//! Each variant runs the full cross-binary pipeline on a benchmark
//! subset and reports: average CPI error, average cross-platform
//! speedup error, mappable point count, and the interval count — so
//! the sensitivity of the headline results to every knob is visible.

use cbsp_core::{
    relative_error, run_cross_binary, speedup, speedup_error, weighted_cpi_with, CbspConfig,
};
use cbsp_program::{compile_with, workloads, Binary, CompileOptions, CompileTarget, Input, Scale};
use cbsp_sim::{simulate_marker_sliced, IntervalSim, MemoryConfig};
use cbsp_simpoint::{RepresentativePolicy, SimPointConfig};
use std::fmt::Write as _;

/// One ablation variant: a label plus the knobs it changes.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Row label.
    pub label: String,
    /// Pipeline configuration.
    pub config: CbspConfig,
    /// Compiler options (all four binaries).
    pub compile: CompileOptions,
}

impl Variant {
    fn new(label: &str, config: CbspConfig) -> Self {
        Variant {
            label: label.to_string(),
            config,
            compile: CompileOptions::default(),
        }
    }
}

/// The standard variant grid around a baseline interval target.
pub fn standard_variants(base_interval: u64) -> Vec<Variant> {
    let base = CbspConfig {
        interval_target: base_interval,
        ..CbspConfig::default()
    };
    let mut variants = vec![Variant::new("baseline", base)];

    for target in [base_interval / 2, base_interval * 2] {
        variants.push(Variant::new(
            &format!("interval={}k", target / 1000),
            CbspConfig {
                interval_target: target,
                ..base
            },
        ));
    }
    for max_k in [5usize, 20] {
        variants.push(Variant::new(
            &format!("max_k={max_k}"),
            CbspConfig {
                simpoint: SimPointConfig {
                    max_k,
                    ..base.simpoint
                },
                ..base
            },
        ));
    }
    for dims in [4usize, 64] {
        variants.push(Variant::new(
            &format!("proj_dims={dims}"),
            CbspConfig {
                simpoint: SimPointConfig {
                    projection_dims: dims,
                    ..base.simpoint
                },
                ..base
            },
        ));
    }
    for theta in [0.7f64, 1.0] {
        variants.push(Variant::new(
            &format!("bic_theta={theta}"),
            CbspConfig {
                simpoint: SimPointConfig {
                    bic_threshold: theta,
                    ..base.simpoint
                },
                ..base
            },
        ));
    }
    variants.push(Variant::new(
        "early_points(0.3)",
        CbspConfig {
            simpoint: SimPointConfig {
                representative: RepresentativePolicy::Earliest { tolerance: 0.3 },
                ..base.simpoint
            },
            ..base
        },
    ));
    variants.push(Variant::new(
        "primary=32o",
        CbspConfig { primary: 1, ..base },
    ));
    let mut inline_lines = Variant::new("inline_debug_lines", base);
    inline_lines.compile = CompileOptions {
        preserve_inline_lines: true,
        ..CompileOptions::default()
    };
    variants.push(inline_lines);
    variants
}

/// Aggregate result of one variant over the benchmark subset.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Row label.
    pub label: String,
    /// Mean VLI CPI error across benchmarks × binaries.
    pub cpi_err: f64,
    /// Mean cross-platform (32u→64u) speedup error.
    pub speedup_err: f64,
    /// Mean mappable point count.
    pub mappable_points: f64,
    /// Mean interval count.
    pub intervals: f64,
    /// Mean simulation points (k).
    pub k: f64,
}

/// Evaluates one variant on one benchmark, returning
/// `(cpi errors per binary, speedup error, mappable, intervals, k)`.
fn evaluate_variant(
    name: &str,
    scale: Scale,
    variant: &Variant,
    mem: &MemoryConfig,
) -> ([f64; 4], f64, usize, usize, usize) {
    let prog = workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .build(scale);
    let input = Input::for_scale(scale);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile_with(&prog, t, variant.compile))
        .collect();
    let result = run_cross_binary(
        &binaries.iter().collect::<Vec<_>>(),
        &input,
        &variant.config,
    )
    .expect("pipeline succeeds");

    let mut cpi_err = [0.0f64; 4];
    let mut cycles = [0.0f64; 4];
    let mut true_cycles = [0.0f64; 4];
    for (b, bin) in binaries.iter().enumerate() {
        let (full, mut ivs) = simulate_marker_sliced(bin, &input, mem, &result.boundaries[b]);
        ivs.resize(result.interval_count(), IntervalSim::default());
        let cpis: Vec<f64> = ivs.iter().map(IntervalSim::cpi).collect();
        let est = weighted_cpi_with(&result.simpoint.points, &result.weights[b], &cpis);
        cpi_err[b] = relative_error(full.cpi(), est);
        cycles[b] = est * full.instructions as f64;
        true_cycles[b] = full.cycles as f64;
    }
    let sp_err = speedup_error(
        speedup(true_cycles[0], true_cycles[2]),
        speedup(cycles[0], cycles[2]),
    );
    (
        cpi_err,
        sp_err,
        result.mappable.points.len(),
        result.interval_count(),
        result.simpoint.k,
    )
}

/// Runs every variant over `names`, averaging the metrics.
pub fn run_ablations(
    names: &[&str],
    scale: Scale,
    base_interval: u64,
    mem: &MemoryConfig,
) -> Vec<VariantResult> {
    let variants = standard_variants(base_interval);
    let mut acc = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64); variants.len()];
    for name in names {
        for (vi, variant) in variants.iter().enumerate() {
            let (cpi_err, sp_err, mappable, intervals, k) =
                evaluate_variant(name, scale, variant, mem);
            let a = &mut acc[vi];
            a.0 += cpi_err.iter().sum::<f64>() / 4.0;
            a.1 += sp_err;
            a.2 += mappable as f64;
            a.3 += intervals as f64;
            a.4 += k as f64;
        }
    }
    let n = names.len() as f64;
    variants
        .iter()
        .zip(acc)
        .map(|(variant, (cpi, sp, mp, iv, kk))| VariantResult {
            label: variant.label.clone(),
            cpi_err: cpi / n,
            speedup_err: sp / n,
            mappable_points: mp / n,
            intervals: iv / n,
            k: kk / n,
        })
        .collect()
}

/// Renders the ablation table.
pub fn render(results: &[VariantResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Ablation: mappable SimPoint sensitivity (averages over the subset)\n\
         {:<20} {:>9} {:>12} {:>10} {:>10} {:>6}",
        "variant", "CPI err", "speedup err", "mappable", "intervals", "k"
    );
    for r in results {
        let _ = writeln!(
            s,
            "{:<20} {:>8.2}% {:>11.2}% {:>10.1} {:>10.1} {:>6.1}",
            r.label,
            100.0 * r.cpi_err,
            100.0 * r.speedup_err,
            r.mappable_points,
            r.intervals,
            r.k
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_grid_covers_every_knob() {
        let vs = standard_variants(100_000);
        let labels: Vec<&str> = vs.iter().map(|v| v.label.as_str()).collect();
        assert!(labels.contains(&"baseline"));
        assert!(labels.iter().any(|l| l.starts_with("interval=")));
        assert!(labels.iter().any(|l| l.starts_with("max_k=")));
        assert!(labels.iter().any(|l| l.starts_with("proj_dims=")));
        assert!(labels.iter().any(|l| l.starts_with("bic_theta=")));
        assert!(labels.contains(&"early_points(0.3)"));
        assert!(labels.contains(&"primary=32o"));
        assert!(labels.contains(&"inline_debug_lines"));
        assert!(vs.len() >= 10);
    }

    #[test]
    fn ablations_run_on_a_small_subset() {
        let _guard = cbsp_trace::test_lock();
        let results = run_ablations(&["gzip"], Scale::Test, 20_000, &MemoryConfig::table1());
        assert_eq!(results.len(), standard_variants(20_000).len());
        for r in &results {
            assert!(r.cpi_err.is_finite() && r.cpi_err >= 0.0);
            assert!(r.k >= 1.0);
        }
        let table = render(&results);
        assert!(table.contains("baseline"));
    }

    #[test]
    fn preserving_inline_lines_increases_mappable_points() {
        let _guard = cbsp_trace::test_lock();
        // With inline debug lines preserved, fma3d's inlined loops match
        // directly — at least as many mappable points as the baseline,
        // found without the recovery pass.
        let base = Variant::new(
            "base",
            CbspConfig {
                interval_target: 20_000,
                ..CbspConfig::default()
            },
        );
        let mut keep = base.clone();
        keep.compile = CompileOptions {
            preserve_inline_lines: true,
            ..CompileOptions::default()
        };
        let mem = MemoryConfig::table1();
        let (_, _, base_points, _, _) = evaluate_variant("fma3d", Scale::Test, &base, &mem);
        let (_, _, keep_points, _, _) = evaluate_variant("fma3d", Scale::Test, &keep, &mem);
        assert!(
            keep_points >= base_points,
            "lines preserved: {keep_points} < baseline {base_points}"
        );
    }
}
