//! Suite-level experiment driver: evaluates every benchmark and
//! aggregates the data behind each figure.

use crate::estimators::{lane_rows, EstimatorLane};
use crate::experiment::{evaluate_benchmark_cached, BenchmarkEval, Pair};
use crate::fuzzy_lane::FuzzyLane;
use cbsp_par::Pool;
use cbsp_program::{workloads, Scale};
use cbsp_sim::MemoryConfig;
use cbsp_simpoint::EstimatorConfig;
use cbsp_store::{ArtifactStore, TraceCache};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Results for the whole suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteResults {
    /// Scale the suite ran at.
    pub scale: String,
    /// Interval-size target in instructions.
    pub interval_target: u64,
    /// Per-benchmark evaluations, in suite order.
    pub benchmarks: Vec<BenchmarkEval>,
    /// Estimator-lane head-to-head columns (empty unless the run asked
    /// for lanes); each lane's benchmarks align with `benchmarks`.
    pub estimators: Vec<EstimatorLane>,
    /// Fuzzy-mapping accuracy lane (`None` unless the run asked for
    /// it with `--fuzzy`); evaluated on its own marker-destroyed
    /// binary sets, so its benchmark list is independent of
    /// `benchmarks`. Absent from pre-fuzzy result files — the field
    /// deserializes to `None` when missing.
    pub fuzzy: Option<FuzzyLane>,
}

impl SuiteResults {
    /// Mean over benchmarks of a per-benchmark metric.
    pub fn average(&self, f: impl Fn(&BenchmarkEval) -> f64) -> f64 {
        if self.benchmarks.is_empty() {
            return 0.0;
        }
        self.benchmarks.iter().map(f).sum::<f64>() / self.benchmarks.len() as f64
    }

    /// Suite-average speedup error of a scheme on a pair.
    pub fn avg_speedup_err(&self, vli: bool, pair: Pair) -> f64 {
        self.average(|e| e.speedup_err(vli, pair))
    }
}

/// Runs the evaluation for `names` (or the full suite when empty),
/// spreading benchmarks over `threads` worker threads. With `store`,
/// workers serve pipeline stages and leases from the shared store where
/// possible and write what they compute, so re-running an experiment
/// (or overlapping benchmark selections) reuses prior work. Each entry
/// of `estimators` adds a head-to-head lane to
/// [`SuiteResults::estimators`], re-using every benchmark's detailed
/// simulations (only clustering reruns per lane).
pub fn run_suite(
    names: &[String],
    scale: Scale,
    interval_target: u64,
    mem: &MemoryConfig,
    threads: usize,
    store: Option<&ArtifactStore>,
    estimators: &[EstimatorConfig],
) -> SuiteResults {
    let selected: Vec<&'static str> = if names.is_empty() {
        workloads::suite().iter().map(|w| w.name).collect()
    } else {
        names
            .iter()
            .map(|n| {
                workloads::by_name(n)
                    .unwrap_or_else(|| panic!("unknown benchmark {n}"))
                    .name
            })
            .collect()
    };

    // Split the thread budget: benchmarks fan out across the pool, and
    // each evaluation's inner stages (pipeline, clustering, detailed
    // sims) share the remainder, so `threads` bounds total parallelism.
    let budget = Pool::new(threads.max(1));
    let outer = Pool::new(budget.threads().min(selected.len().max(1)));
    let inner = budget.split(outer.threads());
    let done = AtomicUsize::new(0);
    let evaluated = outer.run_indexed(selected.len(), |i| {
        let traces = TraceCache::new(store);
        let run = evaluate_benchmark_cached(
            selected[i],
            scale,
            interval_target,
            mem,
            store,
            &traces,
            &inner,
        );
        let rows = lane_rows(&run, scale, interval_target, store, &inner, estimators);
        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("  [{}/{}] {} done", finished, selected.len(), selected[i]);
        (run.eval, rows)
    });

    // Transpose per-benchmark lane rows into suite-ordered lane columns.
    let mut lanes: Vec<EstimatorLane> = estimators
        .iter()
        .map(|e| EstimatorLane {
            estimator: e.tag(),
            benchmarks: Vec::with_capacity(selected.len()),
        })
        .collect();
    let mut benchmarks = Vec::with_capacity(selected.len());
    for (eval, rows) in evaluated {
        benchmarks.push(eval);
        for (lane, row) in lanes.iter_mut().zip(rows) {
            lane.benchmarks.push(row);
        }
    }

    SuiteResults {
        scale: format!("{scale:?}"),
        interval_target,
        benchmarks,
        estimators: lanes,
        fuzzy: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_suite_runs_and_aggregates() {
        let _guard = cbsp_trace::test_lock();
        let names = vec!["gzip".to_string(), "swim".to_string()];
        let r = run_suite(
            &names,
            Scale::Test,
            20_000,
            &MemoryConfig::table1(),
            2,
            None,
            &[],
        );
        assert_eq!(r.benchmarks.len(), 2);
        assert_eq!(r.benchmarks[0].name, "gzip");
        assert_eq!(r.benchmarks[1].name, "swim");
        let avg = r.average(|e| e.vli.avg_cpi_err());
        assert!((0.0..0.5).contains(&avg));
        for pair in Pair::ALL {
            assert!(r.avg_speedup_err(true, pair).is_finite());
            assert!(r.avg_speedup_err(false, pair).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_name_panics() {
        let _ = run_suite(
            &["nope".to_string()],
            Scale::Test,
            10_000,
            &MemoryConfig::table1(),
            1,
            None,
            &[],
        );
    }
}
