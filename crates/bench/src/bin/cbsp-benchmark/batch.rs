//! The `suite-train` workload: the paper's experiment over the whole
//! suite. Every benchmark's four binaries are evaluated (cross-binary
//! pipeline, per-binary baseline, detailed simulation) at the paper's
//! interval, one benchmark at a time on the whole thread budget.
//!
//! Set-up evaluates every benchmark without a store; that is the
//! reference every measured evaluation must reproduce exactly. A run
//! then alternates cold passes in suite order, each into an empty store,
//! and warm passes in the seed's order over the store the cold pass
//! before filled, each benchmark with a fresh trace cache. Over the
//! pairs of passes [`calm`] keeps, `cold_s` and `warm_s` are the median
//! pass; an operation is one benchmark's evaluation in a warm pass, and
//! `ops_per_s` is benchmarks per second of the median warm pass.

use crate::stats::{calm, median, Steal};
use crate::{fits, shuffle, Plan, Run, THREADS};
use cbsp_bench::{evaluate_benchmark_cached, BenchmarkEval, SuiteResults};
use cbsp_core::CbspConfig;
use cbsp_par::Pool;
use cbsp_program::rng::SplitMix64;
use cbsp_program::workloads;
use cbsp_sim::MemoryConfig;
use cbsp_simpoint::SimPointConfig;
use cbsp_store::{content_hash, ArtifactStore, TraceCache};
use std::path::Path;
use std::time::Instant;

/// The paper's interval target.
pub const SUITE_INTERVAL: u64 = 100_000;

/// Every suite benchmark, in suite order.
pub fn suite_names(plan: &Plan) -> Vec<&'static str> {
    plan.take(workloads::suite().iter().map(|w| w.name).collect())
}

/// The pipeline configuration every workload runs with.
pub fn config(interval: u64) -> CbspConfig {
    CbspConfig {
        interval_target: interval,
        simpoint: SimPointConfig {
            threads: THREADS,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    }
}

/// `suite-train`'s set-up: the suite and each benchmark's evaluation
/// as computed without a store, by content hash.
pub struct Suite {
    names: Vec<&'static str>,
    expected: Vec<String>,
}

/// Evaluates every benchmark of `names` in turn on `store` (or none).
/// Returns each evaluation and its milliseconds, in order.
fn suite_pass(
    names: &[&'static str],
    plan: &Plan,
    store: Option<&ArtifactStore>,
) -> Vec<(BenchmarkEval, f64)> {
    let pool = Pool::new(THREADS);
    let mem = MemoryConfig::table1();
    names
        .iter()
        .map(|&name| {
            let _span = cbsp_trace::span_labeled("bench/bench/evaluate_benchmark_cached", || {
                name.to_string()
            });
            let t = Instant::now();
            let traces = TraceCache::new(store);
            let run = evaluate_benchmark_cached(
                name,
                plan.scale,
                SUITE_INTERVAL,
                &mem,
                store,
                &traces,
                &pool,
            );
            (run.eval, t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Evaluates the suite without a store.
pub fn suite_setup(plan: &Plan) -> Result<Suite, String> {
    let names = suite_names(plan);
    let expected = suite_pass(&names, plan, None)
        .iter()
        .map(|(eval, _)| content_hash(eval))
        .collect();
    Ok(Suite { names, expected })
}

/// One `suite-train` run: a cold and a warm pass in turn, a pair at a
/// time while the next pair fits in the budget (at least [`Plan::reps`]
/// pairs).
pub fn suite_measure(suite: &Suite, plan: &Plan, seed: u64, dir: &Path) -> Result<Run, String> {
    let mut order: Vec<usize> = (0..suite.names.len()).collect();
    shuffle(&mut SplitMix64::new(seed), &mut order);
    let warm_names: Vec<&'static str> = order.iter().map(|&i| suite.names[i]).collect();
    let warm_expected: Vec<String> = order.iter().map(|&i| suite.expected[i].clone()).collect();
    let store_dir = dir.join("suite-store");
    let start = Instant::now();
    let mut pairs_s = Vec::new();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let (mut cold_s, mut warm_s) = (Vec::new(), Vec::new());
    let mut steal = Vec::new();
    while pairs_s.len() < plan.reps || fits(&pairs_s, start, plan.seconds) {
        let clock = Steal::start();
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(&store_dir);
        let store = ArtifactStore::open(&store_dir)
            .map_err(|e| format!("opening store {}: {e}", store_dir.display()))?;
        let pass = Instant::now();
        cold.push(suite_pass(&suite.names, plan, Some(&store)));
        cold_s.push(pass.elapsed().as_secs_f64());
        let pass = Instant::now();
        warm.push(suite_pass(&warm_names, plan, Some(&store)));
        warm_s.push(pass.elapsed().as_secs_f64());
        pairs_s.push(t.elapsed().as_secs_f64());
        steal.push(clock.share());
    }
    let _ = std::fs::remove_dir_all(&store_dir);

    let passes = cold.len() + warm.len();
    // Evaluations that differ from set-up's for the same benchmark.
    let mismatches = |passes: &[Vec<(BenchmarkEval, f64)>], expected: &[String]| {
        passes
            .iter()
            .flat_map(|pass| pass.iter().zip(expected))
            .filter(|((eval, _), expected)| content_hash(eval) != **expected)
            .count()
    };
    let failed = (mismatches(&cold, &suite.expected) + mismatches(&warm, &warm_expected)) as u64;
    // Timings come from the pairs of passes `calm` keeps.
    let keep = calm(&steal);
    let kept = |values: &[f64]| -> Vec<f64> {
        values
            .iter()
            .zip(&keep)
            .filter_map(|(v, k)| k.then_some(*v))
            .collect()
    };
    let op_ms: Vec<f64> = warm
        .iter()
        .zip(&keep)
        .filter(|(_, k)| **k)
        .flat_map(|(pass, _)| pass.iter().map(|(_, ms)| *ms))
        .collect();
    let hashes: Vec<String> = cold[0].iter().map(|(e, _)| content_hash(e)).collect();
    let results = SuiteResults {
        scale: format!("{:?}", plan.scale),
        interval_target: SUITE_INTERVAL,
        benchmarks: cold.swap_remove(0).into_iter().map(|(e, _)| e).collect(),
        estimators: Vec::new(),
        fuzzy: None,
    };
    let warm_s = median(&kept(&warm_s));
    Ok(Run {
        cold_s: median(&kept(&cold_s)),
        warm_s,
        ops_per_s: suite.names.len() as f64 / warm_s,
        op_ms,
        attempted: (suite.names.len() * passes) as u64,
        failed,
        results: content_hash(&hashes),
        notes: vec![
            format!(
                "{} cold and {} warm passes over {} benchmarks, {} pairs kept \
                 (steal at most {:.2}% in each)",
                passes / 2,
                passes / 2,
                suite.names.len(),
                kept(&steal).len(),
                kept(&steal).into_iter().fold(0.0, f64::max) * 100.0
            ),
            format!(
                "suite VLI CPI error {:.6}% (mean over benchmarks)",
                results.average(|e| e.vli.avg_cpi_err()) * 100.0
            ),
        ],
        serve: None,
    })
}
