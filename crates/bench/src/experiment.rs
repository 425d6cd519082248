//! Per-benchmark evaluation: runs both SimPoint schemes on all four
//! binaries of a program, simulates everything, and computes the
//! paper's metrics.

use cbsp_core::{
    relative_error, run_cross_binary, speedup, speedup_error, weighted_cpi, weighted_metric,
    weighted_metric_with, CbspConfig, CrossBinaryResult,
};
use cbsp_par::Pool;
use cbsp_program::{
    compile, compile_cost_estimate_ns, workloads, Binary, CompileTarget, Input, Scale,
};
use cbsp_sim::{IntervalSim, MemoryConfig, SimStats};
use cbsp_simpoint::{SimPointConfig, SimPointResult};
use cbsp_store::{
    pipeline_keys_from_digests, ArtifactStore, CachePolicy, CpiEstimate, Digests, Orchestrator,
    TraceCache,
};
use serde::{Deserialize, Serialize};

/// The four standard binaries, in paper order.
pub const BINARY_LABELS: [&str; 4] = ["32u", "32o", "64u", "64o"];

/// Binary-pair configurations of Figures 4 and 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Pair {
    /// 32-bit unoptimized → 32-bit optimized (same platform, Fig 4).
    P32u32o,
    /// 64-bit unoptimized → 64-bit optimized (same platform, Fig 4).
    P64u64o,
    /// 32-bit unoptimized → 64-bit unoptimized (cross platform, Fig 5).
    P32u64u,
    /// 32-bit optimized → 64-bit optimized (cross platform, Fig 5).
    P32o64o,
}

impl Pair {
    /// All four pairs in figure order.
    pub const ALL: [Pair; 4] = [Pair::P32u32o, Pair::P64u64o, Pair::P32u64u, Pair::P32o64o];

    /// Indices into the `ALL_FOUR` binary order (`[32u, 32o, 64u, 64o]`).
    pub fn indices(self) -> (usize, usize) {
        match self {
            Pair::P32u32o => (0, 1),
            Pair::P64u64o => (2, 3),
            Pair::P32u64u => (0, 2),
            Pair::P32o64o => (1, 3),
        }
    }

    /// Label as used in the paper's figures, e.g. `"32u32o"`.
    pub fn label(self) -> &'static str {
        match self {
            Pair::P32u32o => "32u32o",
            Pair::P64u64o => "64u64o",
            Pair::P32u64u => "32u64u",
            Pair::P32o64o => "32o64o",
        }
    }
}

/// Per-binary measurements for one estimation scheme.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeEval {
    /// Simulation points chosen (k), per binary.
    pub num_points: [usize; 4],
    /// Estimated whole-program CPI, per binary.
    pub cpi_est: [f64; 4],
    /// Relative CPI error vs. the full simulation, per binary.
    pub cpi_err: [f64; 4],
    /// Estimated total cycles, per binary.
    pub cycles_est: [f64; 4],
}

impl SchemeEval {
    /// Mean CPI error across the four binaries (the bars of Figure 3).
    pub fn avg_cpi_err(&self) -> f64 {
        self.cpi_err.iter().sum::<f64>() / 4.0
    }

    /// Mean number of simulation points (the bars of Figure 1).
    pub fn avg_num_points(&self) -> f64 {
        self.num_points.iter().sum::<usize>() as f64 / 4.0
    }

    /// Estimated speedup for a binary pair.
    pub fn est_speedup(&self, pair: Pair) -> f64 {
        let (a, b) = pair.indices();
        speedup(self.cycles_est[a], self.cycles_est[b])
    }
}

/// One row of phase-bias detail (Tables 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseRow {
    /// Phase id (within its scheme/binary).
    pub phase: u32,
    /// Phase weight (fraction of instructions).
    pub weight: f64,
    /// True CPI: instruction-weighted CPI over all intervals of the
    /// phase.
    pub true_cpi: f64,
    /// CPI of the phase's simulation point.
    pub sp_cpi: f64,
}

impl PhaseRow {
    /// The paper's signed per-phase bias: `(true − sp) / true`.
    pub fn cpi_error(&self) -> f64 {
        if self.true_cpi == 0.0 {
            0.0
        } else {
            (self.true_cpi - self.sp_cpi) / self.true_cpi
        }
    }
}

/// Full evaluation of one benchmark at one scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkEval {
    /// Benchmark name.
    pub name: String,
    /// True whole-program stats per binary (`[32u, 32o, 64u, 64o]`).
    pub true_stats: [SimStats; 4],
    /// Classic per-binary SimPoint (FLI).
    pub fli: SchemeEval,
    /// Mappable cross-binary SimPoint (VLI).
    pub vli: SchemeEval,
    /// Average VLI interval size in instructions (averaged over the
    /// four binaries' mapped slicings — Figure 2).
    pub vli_avg_interval: f64,
    /// Largest mapped interval observed in any binary, in instructions
    /// (the tail Figure 2's averages hide).
    pub vli_max_interval: u64,
    /// Number of mappable points found.
    pub mappable_points: usize,
    /// Procedures recovered by the inlining analysis.
    pub recovered_procs: usize,
    /// Interval-size target used.
    pub interval_target: u64,
}

impl BenchmarkEval {
    /// True speedup of a binary pair (ratio of full-run cycles).
    pub fn true_speedup(&self, pair: Pair) -> f64 {
        let (a, b) = pair.indices();
        speedup(
            self.true_stats[a].cycles as f64,
            self.true_stats[b].cycles as f64,
        )
    }

    /// Speedup-estimation error of a scheme on a pair (Figures 4–5).
    pub fn speedup_err(&self, vli: bool, pair: Pair) -> f64 {
        let scheme = if vli { &self.vli } else { &self.fli };
        speedup_error(self.true_speedup(pair), scheme.est_speedup(pair))
    }
}

/// Phase-bias tables for one benchmark/binary-pair (Tables 2 and 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseBias {
    /// Benchmark name.
    pub name: String,
    /// The two binaries compared (indices into `ALL_FOUR` order).
    pub pair: Pair,
    /// Top phases under VLI, per binary of the pair: `vli[0]` and
    /// `vli[1]` are index-aligned (same phase ids — that is the point).
    pub vli: [Vec<PhaseRow>; 2],
    /// Top phases under FLI, per binary of the pair (independent phase
    /// ids per binary).
    pub fli: [Vec<PhaseRow>; 2],
}

/// Everything needed to evaluate one benchmark (kept so callers can
/// also inspect intermediate artifacts).
pub struct BenchmarkRun {
    /// The four compiled binaries.
    pub binaries: Vec<Binary>,
    /// The cross-binary pipeline output.
    pub cross: CrossBinaryResult,
    /// Per-binary FLI clusterings: each binary's fixed-length intervals
    /// clustered on their own.
    pub per_binary: Vec<SimPointResult>,
    /// Per-binary interval stats under the mapped (VLI) slicing.
    pub vli_interval_stats: Vec<Vec<IntervalSim>>,
    /// Per-binary interval stats under the FLI slicing.
    pub fli_interval_stats: Vec<Vec<IntervalSim>>,
    /// The evaluation summary.
    pub eval: BenchmarkEval,
}

/// Runs the complete evaluation of one benchmark.
///
/// # Panics
///
/// Panics if `name` is not in the workload suite.
pub fn evaluate_benchmark(
    name: &str,
    scale: Scale,
    interval_target: u64,
    mem: &MemoryConfig,
) -> BenchmarkRun {
    evaluate_benchmark_with(name, scale, interval_target, mem, None)
}

/// [`evaluate_benchmark`] with an optional artifact store: when given,
/// pipeline stages are served from / written to the store, so repeated
/// experiment runs (or runs sharing benchmarks) skip recomputation.
///
/// # Panics
///
/// Panics if `name` is not in the workload suite or the store fails.
pub fn evaluate_benchmark_with(
    name: &str,
    scale: Scale,
    interval_target: u64,
    mem: &MemoryConfig,
    store: Option<&ArtifactStore>,
) -> BenchmarkRun {
    let traces = TraceCache::new(store);
    evaluate_benchmark_cached(
        name,
        scale,
        interval_target,
        mem,
        store,
        &traces,
        &Pool::auto(),
    )
}

/// [`evaluate_benchmark_with`] with an explicit [`TraceCache`] and
/// parallelism: the cross-binary pipeline, the per-binary FLI
/// analyses, and the detailed simulations all fan out over `pool`
/// (compilation too, when the program is big enough to pay for it),
/// and results are bit-identical at any pool size. Each binary is
/// simulated once, straight from the interpreter, into both detailed
/// slicings ([`TraceCache::replay_sliced_both_all`]). When the cache
/// has a store tier, those simulations and the FLI clusterings
/// ([`TraceCache::fli_simpoints`]) are leases: a later evaluation of
/// the same binaries, input and configuration reads them back instead
/// of simulating, profiling and clustering. Pass a cache without a
/// persistent tier to keep pipeline-stage caching while opting out of
/// every lease. With a store, the binaries and the input are hashed
/// once, and every stage and lease key derives from those [`Digests`].
///
/// # Panics
///
/// Panics if `name` is not in the workload suite or the store fails.
pub fn evaluate_benchmark_cached(
    name: &str,
    scale: Scale,
    interval_target: u64,
    mem: &MemoryConfig,
    store: Option<&ArtifactStore>,
    traces: &TraceCache<'_>,
    pool: &Pool,
) -> BenchmarkRun {
    let workload = workloads::by_name(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let prog = workload.build(scale);
    let input = Input::for_scale(scale);
    // Compiling four binaries takes microseconds: the work-size gate
    // keeps it off the pool unless the program is big enough to pay
    // for the fan-out.
    let compile_ns = compile_cost_estimate_ns(&prog) * CompileTarget::ALL_FOUR.len() as u64;
    let binaries: Vec<Binary> = pool
        .for_work(compile_ns)
        .run_indexed(CompileTarget::ALL_FOUR.len(), |i| {
            compile(&prog, CompileTarget::ALL_FOUR[i])
        });
    let bin_refs: Vec<&Binary> = binaries.iter().collect();
    let digests = store.map(|_| Digests::of(&bin_refs, &input));

    // Cross-binary (VLI) pipeline; the pipeline's internal stages use
    // the same thread budget.
    let config = CbspConfig {
        interval_target,
        simpoint: SimPointConfig {
            threads: pool.threads(),
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    let cross = match store.zip(digests.as_ref()) {
        Some((store, digests)) => {
            let keys = pipeline_keys_from_digests(&bin_refs, digests, &config)
                .expect("same-program binaries");
            let description = format!("bench {name} scale={scale:?} interval={interval_target}");
            Orchestrator::new(store, CachePolicy::ReadWrite)
                .run_keyed(&bin_refs, &input, &config, &keys, &description)
                .expect("same-program binaries")
                .0
        }
        None => run_cross_binary(&bin_refs, &input, &config).expect("same-program binaries"),
    };

    // Per-binary (FLI) pipeline: four independent analyses side by
    // side, each clustering with its share of the thread budget. With
    // a store tier they are a lease, so a warm evaluation runs no
    // k-means.
    let per_binary = traces
        .fli_simpoints(
            &bin_refs,
            &input,
            digests.as_ref(),
            interval_target,
            &config.simpoint,
            pool,
        )
        .expect("trace store usable");

    // Detailed simulation, sliced both ways: one run of each binary
    // yields both slicings. With a store tier the four results are one
    // replay lease, so a warm evaluation reads them back and simulates
    // nothing.
    let sims = traces
        .replay_sliced_both_all(
            &bin_refs,
            &input,
            digests.as_ref(),
            mem,
            &cross.boundaries,
            interval_target,
            pool,
        )
        .expect("trace store usable");
    let mut true_stats = [SimStats::default(); 4];
    let mut vli_interval_stats = Vec::with_capacity(4);
    let mut fli_interval_stats = Vec::with_capacity(4);
    for (slot, mut sim) in true_stats.iter_mut().zip(sims) {
        sim.marker
            .resize(cross.interval_count(), IntervalSim::default());
        *slot = sim.stats;
        vli_interval_stats.push(sim.marker);
        fli_interval_stats.push(sim.fli);
    }

    // FLI estimates: per-binary points and weights.
    let mut fli = SchemeEval {
        num_points: [0; 4],
        cpi_est: [0.0; 4],
        cpi_err: [0.0; 4],
        cycles_est: [0.0; 4],
    };
    for b in 0..4 {
        let cpis: Vec<f64> = fli_interval_stats[b].iter().map(IntervalSim::cpi).collect();
        let est = weighted_cpi(&per_binary[b].points, &cpis);
        fli.num_points[b] = per_binary[b].points.len();
        fli.cpi_est[b] = est;
        fli.cpi_err[b] = relative_error(true_stats[b].cpi(), est);
        fli.cycles_est[b] = est * true_stats[b].instructions as f64;
    }

    // VLI estimates: shared points, per-binary recalculated weights.
    let mut vli = SchemeEval {
        num_points: [0; 4],
        cpi_est: [0.0; 4],
        cpi_err: [0.0; 4],
        cycles_est: [0.0; 4],
    };
    for b in 0..4 {
        let est =
            CpiEstimate::from_marker_intervals(&cross, b, &true_stats[b], &vli_interval_stats[b]);
        vli.num_points[b] = cross.simpoint.points.len();
        vli.cpi_est[b] = est.estimated_cpi;
        vli.cpi_err[b] = relative_error(est.true_cpi, est.estimated_cpi);
        vli.cycles_est[b] = est.estimated_cpi * est.instructions as f64;
    }

    // Figure 2's metric: mapped interval sizes averaged over binaries.
    let vli_avg_interval = (0..4)
        .map(|b| {
            let n = cross.interval_count().max(1) as f64;
            true_stats[b].instructions as f64 / n
        })
        .sum::<f64>()
        / 4.0;
    let vli_max_interval = cross
        .interval_instrs
        .iter()
        .flat_map(|slices| slices.iter().copied())
        .max()
        .unwrap_or(0);

    let eval = BenchmarkEval {
        name: name.to_string(),
        true_stats,
        fli,
        vli,
        vli_avg_interval,
        vli_max_interval,
        mappable_points: cross.mappable.points.len(),
        recovered_procs: cross.recovered_procs,
        interval_target,
    };

    BenchmarkRun {
        binaries,
        cross,
        per_binary,
        vli_interval_stats,
        fli_interval_stats,
        eval,
    }
}

/// Estimation quality for a *second* architecture metric — DRAM
/// accesses per kilo-instruction — demonstrating that the same
/// simulation points extrapolate any metric the simulator reports
/// (paper §2.3 step 6: "CPI, miss rate, etc.").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MpkiEval {
    /// True DRAM MPKI per binary.
    pub true_mpki: [f64; 4],
    /// Per-binary SimPoint estimate.
    pub fli_est: [f64; 4],
    /// Cross-binary SimPoint estimate.
    pub vli_est: [f64; 4],
}

impl MpkiEval {
    /// Mean relative estimation error of a scheme across binaries.
    pub fn avg_err(&self, vli: bool) -> f64 {
        let est = if vli { &self.vli_est } else { &self.fli_est };
        (0..4)
            .map(|b| relative_error(self.true_mpki[b], est[b]))
            .sum::<f64>()
            / 4.0
    }
}

/// Computes the DRAM-MPKI extrapolation quality of a completed run.
pub fn mpki_eval(run: &BenchmarkRun) -> MpkiEval {
    let mut out = MpkiEval {
        true_mpki: [0.0; 4],
        fli_est: [0.0; 4],
        vli_est: [0.0; 4],
    };
    for b in 0..4 {
        out.true_mpki[b] = run.eval.true_stats[b].dram_mpki();
        let vli_vals: Vec<f64> = run.vli_interval_stats[b]
            .iter()
            .map(IntervalSim::dram_mpki)
            .collect();
        out.vli_est[b] =
            weighted_metric_with(&run.cross.simpoint.points, &run.cross.weights[b], &vli_vals);
        let fli_vals: Vec<f64> = run.fli_interval_stats[b]
            .iter()
            .map(IntervalSim::dram_mpki)
            .collect();
        out.fli_est[b] = weighted_metric(&run.per_binary[b].points, &fli_vals);
    }
    out
}

/// Computes the phase-bias tables (Tables 2/3) for a binary pair of a
/// completed run. `top` limits the number of phases shown (the paper
/// shows 3).
pub fn phase_bias(run: &BenchmarkRun, pair: Pair, top: usize) -> PhaseBias {
    let (a, b) = pair.indices();

    // VLI: shared phases; rank by combined weight.
    let k = run.cross.weights[a].len();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&x, &y| {
        let wx = run.cross.weights[a][x] + run.cross.weights[b][x];
        let wy = run.cross.weights[a][y] + run.cross.weights[b][y];
        wy.partial_cmp(&wx).expect("finite weights")
    });
    let vli_rows = |bi: usize| -> Vec<PhaseRow> {
        order
            .iter()
            .take(top)
            .filter_map(|&phase| {
                let pt = run.cross.simpoint.point_for_phase(phase as u32)?;
                let stats = &run.vli_interval_stats[bi];
                let mut cyc = 0.0;
                let mut ins = 0.0;
                for (i, &label) in run.cross.simpoint.labels.iter().enumerate() {
                    if label as usize == phase {
                        cyc += stats[i].cycles as f64;
                        ins += stats[i].instructions as f64;
                    }
                }
                Some(PhaseRow {
                    phase: phase as u32,
                    weight: run.cross.weights[bi][phase],
                    true_cpi: if ins > 0.0 { cyc / ins } else { 0.0 },
                    sp_cpi: stats[pt.interval].cpi(),
                })
            })
            .collect()
    };

    // FLI: independent phases per binary; rank by that binary's weights.
    let fli_rows = |bi: usize| -> Vec<PhaseRow> {
        let analysis = &run.per_binary[bi];
        let stats = &run.fli_interval_stats[bi];
        let mut pts = analysis.points.clone();
        pts.sort_by(|x, y| y.weight.partial_cmp(&x.weight).expect("finite weights"));
        pts.iter()
            .take(top)
            .map(|pt| {
                let mut cyc = 0.0;
                let mut ins = 0.0;
                for (i, &label) in analysis.labels.iter().enumerate() {
                    if label == pt.phase {
                        cyc += stats[i].cycles as f64;
                        ins += stats[i].instructions as f64;
                    }
                }
                PhaseRow {
                    phase: pt.phase,
                    weight: pt.weight,
                    true_cpi: if ins > 0.0 { cyc / ins } else { 0.0 },
                    sp_cpi: stats[pt.interval].cpi(),
                }
            })
            .collect()
    };

    PhaseBias {
        name: run.eval.name.clone(),
        pair,
        vli: [vli_rows(a), vli_rows(b)],
        fli: [fli_rows(a), fli_rows(b)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_cover_the_paper_configurations() {
        assert_eq!(Pair::ALL.len(), 4);
        assert_eq!(Pair::P32u32o.indices(), (0, 1));
        assert_eq!(Pair::P32o64o.label(), "32o64o");
    }

    #[test]
    fn evaluate_one_benchmark_end_to_end() {
        let _guard = cbsp_trace::test_lock();
        // Train scale: Test-scale runs are so short that the init phase
        // dominates the interval population and estimates get noisy.
        let run = evaluate_benchmark("gzip", Scale::Train, 20_000, &MemoryConfig::table1());
        let e = &run.eval;
        for b in 0..4 {
            assert!(e.true_stats[b].cpi() > 1.0, "binary {b} CPI");
            assert!(e.fli.cpi_est[b] > 0.0);
            assert!(e.vli.cpi_est[b] > 0.0);
            // Both schemes should be within 30% of truth even at the
            // tiny test scale.
            assert!(e.fli.cpi_err[b] < 0.3, "FLI err {}", e.fli.cpi_err[b]);
            assert!(e.vli.cpi_err[b] < 0.3, "VLI err {}", e.vli.cpi_err[b]);
        }
        // -O0 binaries are genuinely slower overall.
        assert!(e.true_speedup(Pair::P32u32o) > 1.5);
        assert!(e.mappable_points > 0);
    }

    /// Asserts exact counters, so every test in this crate that
    /// simulates holds `cbsp_trace::test_lock()`: a concurrent
    /// simulation would land in this count.
    #[test]
    fn evaluation_simulates_each_binary_once() {
        let _guard = cbsp_trace::test_lock();
        let traces = TraceCache::new(None);
        cbsp_trace::enable();
        cbsp_trace::reset();
        let run = evaluate_benchmark_cached(
            "gzip",
            Scale::Test,
            20_000,
            &MemoryConfig::table1(),
            None,
            &traces,
            &Pool::new(2),
        );
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        cbsp_trace::reset();
        assert_eq!(counters.get("sim/replays"), None, "no trace is replayed");
        assert_eq!(
            counters.get("sim/record_bytes"),
            None,
            "no trace is recorded"
        );
        // One run per binary feeds both slicings.
        let instructions: u64 = run.eval.true_stats.iter().map(|s| s.instructions).sum();
        assert_eq!(counters.get("sim/instructions"), Some(&instructions));
    }

    /// A warm-store evaluation reads its detailed simulations back from
    /// the replay lease and its FLI clusterings from the FLI lease: no
    /// simulation, no trace loaded, no k-means, same result.
    #[test]
    fn warm_store_evaluation_replays_nothing() {
        let _guard = cbsp_trace::test_lock();
        let dir = std::env::temp_dir().join(format!("cbsp-bench-lease-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("store opens");
        let mem = MemoryConfig::table1();
        let pool = Pool::new(2);
        let evaluate = |store: Option<&ArtifactStore>| {
            let traces = TraceCache::new(store);
            evaluate_benchmark_cached("gzip", Scale::Test, 20_000, &mem, store, &traces, &pool).eval
        };
        let plain = evaluate(None);
        let cold = evaluate(Some(&store));
        cbsp_trace::enable();
        cbsp_trace::reset();
        let warm = evaluate(Some(&store));
        let counters = cbsp_trace::snapshot().counters;
        cbsp_trace::disable();
        cbsp_trace::reset();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(counters.get("sim/replays").copied().unwrap_or(0), 0);
        assert_eq!(counters.get("sim/replay_cache_hits"), Some(&1));
        assert_eq!(counters.get("sim/trace_cache_hits"), None);
        assert_eq!(counters.get("sim/trace_cache_misses"), None);
        assert_eq!(counters.get("simpoint/fli_cache_hits"), Some(&1));
        assert_eq!(counters.get("simpoint/kmeans_runs"), None);
        let expected = cbsp_store::content_hash(&plain);
        assert_eq!(cbsp_store::content_hash(&cold), expected);
        assert_eq!(cbsp_store::content_hash(&warm), expected);
    }

    #[test]
    fn phase_bias_tables_are_well_formed() {
        let _guard = cbsp_trace::test_lock();
        let run = evaluate_benchmark("apsi", Scale::Test, 20_000, &MemoryConfig::table1());
        let t = phase_bias(&run, Pair::P32o64o, 3);
        assert!(!t.vli[0].is_empty());
        assert_eq!(t.vli[0].len(), t.vli[1].len());
        // VLI rows are phase-aligned across the two binaries.
        for (x, y) in t.vli[0].iter().zip(&t.vli[1]) {
            assert_eq!(x.phase, y.phase);
        }
        for row in t.vli[0].iter().chain(&t.fli[0]) {
            assert!(row.weight > 0.0 && row.weight <= 1.0);
            assert!(row.true_cpi > 0.0);
            assert!(row.sp_cpi > 0.0);
        }
    }
}
