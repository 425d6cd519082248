//! Estimator-lane head-to-head: evaluates each configured estimation
//! methodology on the same benchmarks, against the same detailed
//! simulations, so CI can gate every lane independently.
//!
//! The lanes share everything the estimator does not change: the
//! binaries, the mappable set, the VLI boundaries (memory-access
//! vectors are extra clustering payload, never a different cutting),
//! and therefore the per-interval detailed simulations already
//! computed by [`crate::experiment::evaluate_benchmark_cached`]. Per
//! lane, only the clustering and weight recalculation rerun — against
//! the artifact store when one is given, where each lane caches under
//! its own namespace (see `cbsp_store::stage_namespaces`).

use crate::experiment::BenchmarkRun;
use cbsp_core::{relative_error, run_cross_binary, CbspConfig};
use cbsp_par::Pool;
use cbsp_program::Scale;
use cbsp_simpoint::{EstimatorConfig, SimPointConfig};
use cbsp_store::{ArtifactStore, CachePolicy, CpiEstimate, Orchestrator};
use serde::{Deserialize, Serialize};

/// One benchmark's CPI-estimation quality under one estimator lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneBenchmark {
    /// Benchmark name.
    pub name: String,
    /// Simulation points the lane selected (shared across binaries).
    pub points: usize,
    /// Relative CPI error vs. the full simulation, per binary
    /// (`[32u, 32o, 64u, 64o]`).
    pub cpi_err: [f64; 4],
    /// Stratified confidence half-width around the estimate, per
    /// binary — exactly zero for single-representative lanes.
    pub ci_half: [f64; 4],
    /// Whether the true CPI lies within `estimate ± ci_half`, per
    /// binary. Trivially false for single-representative lanes (their
    /// interval has zero width but their estimate is not exact).
    pub ci_contains: [bool; 4],
}

impl LaneBenchmark {
    /// Mean CPI error across the four binaries.
    pub fn avg_cpi_err(&self) -> f64 {
        self.cpi_err.iter().sum::<f64>() / 4.0
    }

    /// How many of the four binaries' confidence intervals contain the
    /// true CPI.
    pub fn contains_count(&self) -> usize {
        self.ci_contains.iter().filter(|&&c| c).count()
    }

    /// Whether any binary reports a positive confidence half-width
    /// (i.e. the lane actually samples within phases).
    pub fn has_ci(&self) -> bool {
        self.ci_half.iter().any(|&h| h > 0.0)
    }
}

/// All benchmarks' results for one estimator lane, in suite order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorLane {
    /// Canonical lane tag (`bbv`, `bbv+mav`, `early`, `stratified`, or
    /// a composite tag for non-canonical configs).
    pub estimator: String,
    /// Per-benchmark evaluations, index-aligned with
    /// [`crate::SuiteResults::benchmarks`].
    pub benchmarks: Vec<LaneBenchmark>,
}

impl EstimatorLane {
    /// Suite-mean CPI error of this lane.
    pub fn avg_cpi_err(&self) -> f64 {
        if self.benchmarks.is_empty() {
            return 0.0;
        }
        self.benchmarks
            .iter()
            .map(LaneBenchmark::avg_cpi_err)
            .sum::<f64>()
            / self.benchmarks.len() as f64
    }
}

/// Evaluates every `estimators` lane on one completed benchmark run,
/// reusing its binaries, their digests and its detailed simulations.
/// Returns one [`LaneBenchmark`] per estimator, index-aligned with
/// `estimators`.
///
/// # Panics
///
/// Panics if a lane's pipeline fails (same-program binaries cannot)
/// or produces boundaries that differ from the base run's — the
/// estimator contract is that feature payload never changes the
/// cutting.
pub fn lane_rows(
    run: &BenchmarkRun,
    scale: Scale,
    interval_target: u64,
    store: Option<&ArtifactStore>,
    pool: &Pool,
    estimators: &[EstimatorConfig],
) -> Vec<LaneBenchmark> {
    estimators
        .iter()
        .map(|&estimator| {
            let config = CbspConfig {
                interval_target,
                estimator,
                simpoint: SimPointConfig {
                    threads: pool.threads(),
                    ..SimPointConfig::default()
                },
                ..CbspConfig::default()
            };
            // The default lane is exactly the base run — reuse it both
            // to save work and because the gate's byte-identity story
            // depends on the default column being the same numbers.
            let lane_cross;
            let cross = if estimator.is_default() {
                &run.cross
            } else {
                lane_cross = match store {
                    Some(store) => {
                        let orch = Orchestrator::new(store, CachePolicy::ReadWrite);
                        let description = format!(
                            "bench {} scale={scale:?} interval={interval_target} estimator={}",
                            run.eval.name,
                            estimator.tag()
                        );
                        orch.run_prepared(&run.prepared, &config, &description)
                            .expect("same-program binaries")
                            .0
                    }
                    None => run_cross_binary(&run.prepared.refs(), run.prepared.input(), &config)
                        .expect("same-program binaries"),
                };
                assert_eq!(
                    lane_cross.boundaries, run.cross.boundaries,
                    "estimator lanes must share the VLI cutting"
                );
                &lane_cross
            };

            let mut row = LaneBenchmark {
                name: run.eval.name.clone(),
                points: cross.simpoint.points.len(),
                cpi_err: [0.0; 4],
                ci_half: [0.0; 4],
                ci_contains: [false; 4],
            };
            for b in 0..4 {
                let est = CpiEstimate::from_marker_intervals(
                    cross,
                    b,
                    &run.eval.true_stats[b],
                    &run.vli_interval_stats[b],
                );
                row.cpi_err[b] = relative_error(est.true_cpi, est.estimated_cpi);
                row.ci_half[b] = est.ci_half;
                row.ci_contains[b] = (est.estimated_cpi - est.true_cpi).abs() <= est.ci_half;
            }
            row
        })
        .collect()
}

/// Renders the estimator head-to-head table: per-benchmark mean CPI
/// error per lane, with confidence-interval containment for lanes
/// that sample within phases.
pub fn render_lanes(lanes: &[EstimatorLane]) -> String {
    let mut out = String::new();
    if lanes.is_empty() {
        return out;
    }
    out.push_str("Estimator head-to-head — mean CPI error across the four binaries\n");
    out.push_str(&format!("{:<10}", "benchmark"));
    for lane in lanes {
        out.push_str(&format!(" {:>18}", lane.estimator));
    }
    out.push('\n');
    let n = lanes[0].benchmarks.len();
    for i in 0..n {
        out.push_str(&format!("{:<10}", lanes[0].benchmarks[i].name));
        for lane in lanes {
            let row = &lane.benchmarks[i];
            let cell = if row.has_ci() {
                format!(
                    "{:.2}% ({}/4 CI)",
                    100.0 * row.avg_cpi_err(),
                    row.contains_count()
                )
            } else {
                format!("{:.2}%", 100.0 * row.avg_cpi_err())
            };
            out.push_str(&format!(" {cell:>18}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<10}", "average"));
    for lane in lanes {
        out.push_str(&format!(" {:>17.2}%", 100.0 * lane.avg_cpi_err()));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::evaluate_benchmark;
    use cbsp_sim::MemoryConfig;
    use cbsp_store::TraceCache;

    #[test]
    fn lanes_share_slicing_and_default_matches_base() {
        let _guard = cbsp_trace::test_lock();
        let run = evaluate_benchmark("gzip", Scale::Train, 20_000, &MemoryConfig::table1(), None);
        let estimators: Vec<EstimatorConfig> = ["bbv", "bbv+mav", "stratified"]
            .iter()
            .map(|t| EstimatorConfig::parse(t).expect("known tag"))
            .collect();
        let rows = lane_rows(&run, Scale::Train, 20_000, None, &Pool::new(2), &estimators);
        assert_eq!(rows.len(), 3);
        // The default lane reproduces the base run's VLI numbers
        // exactly — same points, same errors.
        assert_eq!(rows[0].points, run.cross.simpoint.points.len());
        for b in 0..4 {
            assert_eq!(rows[0].cpi_err[b], run.eval.vli.cpi_err[b], "binary {b}");
            assert_eq!(rows[0].ci_half[b], 0.0, "single-rep lanes have no CI");
        }
        // The stratified lane selects at least as many points and its
        // intervals are well-formed.
        assert!(rows[2].points >= rows[0].points);
        for b in 0..4 {
            assert!(rows[2].ci_half[b] >= 0.0);
            assert!(rows[2].cpi_err[b].is_finite());
        }
    }

    /// One replay lease per (benchmark, scale, interval): every lane's
    /// CPI estimate reads the lease the evaluation wrote, simulates
    /// nothing, and reproduces the lane's row bit for bit.
    #[test]
    fn every_lane_estimate_reads_the_evaluation_lease() {
        let _guard = cbsp_trace::test_lock();
        let dir = std::env::temp_dir().join(format!("cbsp-lane-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let (mem, pool) = (MemoryConfig::default(), Pool::new(2));
        let run = crate::experiment::evaluate_benchmark_cached(
            "gzip",
            Scale::Test,
            20_000,
            &mem,
            Some(&store),
            &TraceCache::new(Some(&store)),
            &pool,
        );
        let refs = run.prepared.refs();
        for tag in ["bbv", "bbv+mav", "stratified"] {
            let estimator = EstimatorConfig::parse(tag).expect("known tag");
            let config = CbspConfig {
                interval_target: 20_000,
                estimator,
                ..CbspConfig::default()
            };
            let cross =
                run_cross_binary(&refs, run.prepared.input(), &config).expect("pipeline runs");
            cbsp_trace::enable();
            cbsp_trace::reset();
            let estimates = TraceCache::new(Some(&store))
                .estimate_cpi(&run.prepared, &mem, &cross, 20_000, &pool)
                .expect("estimates");
            let counters = cbsp_trace::snapshot().counters;
            cbsp_trace::disable();
            cbsp_trace::reset();
            assert_eq!(counters.get("sim/replay_cache_hits"), Some(&1), "{tag}");
            assert_eq!(counters.get("sim/instructions"), None, "{tag} simulated");

            let row = &lane_rows(&run, Scale::Test, 20_000, None, &pool, &[estimator])[0];
            for (b, est) in estimates.iter().enumerate() {
                let err = relative_error(est.true_cpi, est.estimated_cpi);
                assert_eq!(err.to_bits(), row.cpi_err[b].to_bits(), "{tag} binary {b}");
                assert_eq!(est.ci_half.to_bits(), row.ci_half[b].to_bits());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn head_to_head_renders_every_lane_column() {
        let lane = |tag: &str, err: f64, half: f64| EstimatorLane {
            estimator: tag.to_string(),
            benchmarks: vec![LaneBenchmark {
                name: "gzip".to_string(),
                points: 7,
                cpi_err: [err; 4],
                ci_half: [half; 4],
                ci_contains: [half > 0.0; 4],
            }],
        };
        let text = render_lanes(&[lane("bbv", 0.02, 0.0), lane("stratified", 0.01, 0.05)]);
        assert!(text.contains("bbv"), "{text}");
        assert!(text.contains("stratified"), "{text}");
        assert!(text.contains("(4/4 CI)"), "{text}");
        assert!(text.contains("average"), "{text}");
    }
}
