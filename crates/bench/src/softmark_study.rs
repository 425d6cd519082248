//! Software-phase-marker study: compares the related-work approach
//! (slice at a single low-variability code construct — Lau et al., the
//! paper's reference \[4\]) against fixed-length slicing on the same
//! binary, by the quality of the SimPoint estimates built on top of
//! each slicing.

use cbsp_core::{
    marker_period_stats, relative_error, select_phase_markers, slice_at_marker, weighted_cpi,
};
use cbsp_profile::MarkerRef;
use cbsp_program::{compile, workloads, CompileTarget, Input, Scale};
use cbsp_sim::{simulate_sliced_both, IntervalSim, MemoryConfig};
use cbsp_simpoint::{analyze, RepresentativePolicy, SimPointConfig};
use std::fmt::Write as _;

/// Result row for one benchmark.
#[derive(Debug, Clone)]
pub struct SoftMarkRow {
    /// Benchmark name.
    pub name: String,
    /// The chosen marker (None when no candidate qualified).
    pub marker: Option<MarkerRef>,
    /// Its period coefficient of variation.
    pub marker_cv: f64,
    /// Intervals produced by marker-aligned slicing.
    pub aligned_intervals: usize,
    /// CPI error of SimPoint on marker-aligned intervals.
    pub aligned_err: f64,
    /// CPI error of SimPoint on fixed-length intervals (same binary).
    pub fli_err: f64,
}

/// Runs the study for one benchmark on its optimized 64-bit binary.
pub fn softmark_benchmark(name: &str, scale: Scale, interval_target: u64) -> SoftMarkRow {
    let prog = workloads::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .build(scale);
    let input = Input::for_scale(scale);
    let bin = compile(&prog, CompileTarget::W64_O2);
    let mem = MemoryConfig::table1();
    let sp_config = SimPointConfig::default();
    let nearest = RepresentativePolicy::NearestCentroid;

    // Marker-aligned slicing at the most regular candidate. Unlike the
    // VLI pitch, a phase marker's natural period may be much smaller
    // than the interval target — each execution then bounds one (small)
    // phase-aligned interval, which is fine for clustering.
    let stats = marker_period_stats(&bin, &input);
    let picked = select_phase_markers(&stats, interval_target / 64, 2_000.0, 0.6);
    let best = picked.first().copied();
    // Boundaries at every execution of the marker from 1..execs, so the
    // marker slicing yields the aligned intervals' in-context stats.
    let boundaries: Vec<cbsp_profile::ExecPoint> = best
        .map(|best| {
            (1..=best.execs)
                .map(|count| cbsp_profile::ExecPoint {
                    marker: best.marker,
                    count,
                })
                .collect()
        })
        .unwrap_or_default();

    // One detailed simulation of the 64o binary serves both slicings.
    let sim = simulate_sliced_both(&bin, &input, &mem, &boundaries, interval_target);
    let full = sim.stats;

    // FLI baseline.
    let fli_profile = cbsp_profile::profile_fli(&bin, &input, interval_target);
    let vectors: Vec<Vec<f64>> = fli_profile.iter().map(|i| i.bbv.clone()).collect();
    let instrs: Vec<u64> = fli_profile.iter().map(|i| i.instrs).collect();
    let fli_sp = analyze(&vectors, &instrs, &sp_config, nearest);
    let fli_cpis: Vec<f64> = sim.fli.iter().map(IntervalSim::cpi).collect();
    let fli_err = relative_error(full.cpi(), weighted_cpi(&fli_sp.points, &fli_cpis));

    let Some(best) = best else {
        return SoftMarkRow {
            name: name.to_string(),
            marker: None,
            marker_cv: f64::NAN,
            aligned_intervals: 0,
            aligned_err: f64::NAN,
            fli_err,
        };
    };
    let aligned = slice_at_marker(&bin, &input, best.marker);
    let vectors: Vec<Vec<f64>> = aligned.iter().map(|i| i.bbv.clone()).collect();
    let instrs: Vec<u64> = aligned.iter().map(|i| i.instrs).collect();
    let aligned_sp = analyze(&vectors, &instrs, &sp_config, nearest);
    let mut aligned_ivs = sim.marker;
    aligned_ivs.resize(aligned.len(), IntervalSim::default());
    let aligned_cpis: Vec<f64> = aligned_ivs.iter().map(IntervalSim::cpi).collect();
    let aligned_err = relative_error(full.cpi(), weighted_cpi(&aligned_sp.points, &aligned_cpis));

    SoftMarkRow {
        name: name.to_string(),
        marker: Some(best.marker),
        marker_cv: best.cv,
        aligned_intervals: aligned.len(),
        aligned_err,
        fli_err,
    }
}

/// Renders the study table.
pub fn render(rows: &[SoftMarkRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Software-phase-marker study (64o binary): slice at one regular\n\
         code construct vs fixed-length slicing, SimPoint CPI error on each\n\
         {:<10} {:<14} {:>8} {:>10} {:>12} {:>9}",
        "benchmark", "marker", "CV", "intervals", "aligned err", "FLI err"
    );
    for r in rows {
        let marker = r
            .marker
            .map(|m| m.to_string())
            .unwrap_or_else(|| "<none>".to_string());
        let _ = writeln!(
            s,
            "{:<10} {:<14} {:>8.3} {:>10} {:>11.2}% {:>8.2}%",
            r.name,
            marker,
            r.marker_cv,
            r.aligned_intervals,
            100.0 * r.aligned_err,
            100.0 * r.fli_err
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swim_aligned_slicing_is_competitive() {
        let _guard = cbsp_trace::test_lock();
        let row = softmark_benchmark("swim", Scale::Train, 50_000);
        assert!(row.marker.is_some(), "swim has regular markers");
        assert!(row.marker_cv < 0.3);
        assert!(row.aligned_intervals > 10);
        assert!(
            row.aligned_err < 0.10,
            "aligned slicing err {}",
            row.aligned_err
        );
    }
}
