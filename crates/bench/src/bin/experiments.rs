//! Command-line driver regenerating the paper's tables and figures,
//! the extension studies of EXPERIMENTS.md, and the CI regression
//! gates. [`USAGE`] lists every artifact and the flags it reads
//! ([`FLAGS`]); any other flag is refused before anything runs.
//!
//! `bench-gate` runs every `BENCHMARK.json` workload with two
//! `cbsp-benchmark` builds, a parent commit's and a change's, in 5
//! pairs of 10 s runs seeded by the pair index, alternating which side
//! runs first. It prints each run's result line and one row per
//! workload × end-to-end metric, and fails as [`cbsp_bench::bench_gate`]
//! decides.
//!
//! `--estimators` adds head-to-head estimator lanes: each lane
//! re-clusters the shared detailed simulations under its own
//! methodology, the gate prints the per-benchmark comparison table,
//! and every lane is gated against its own committed reference column.
//!
//! `--fuzzy` adds the fuzzy-mapping lane: each of its benchmarks is
//! evaluated on marker-destroyed optimized binaries (the paper's
//! `applu` failure mode) and gated on a hard ≥ 80% mapped-fraction
//! floor plus a CPI-error bound 5× looser than `--tolerance` (see
//! `docs/MAPPING.md`). `fuzzy` alone (no gate) runs just the lane and
//! prints its table.

use cbsp_bench::{
    bench_gate, evaluate_benchmark, mpki_eval, phase_bias, render_lanes, report, run_ablations,
    run_suite, standard_archs, sweep_benchmark, BenchGateReport, BenchPair, BenchRun,
    EndToEndMetric, Pair, SuiteResults,
};
use cbsp_program::Scale;
use cbsp_sim::MemoryConfig;
use cbsp_simpoint::EstimatorConfig;
use cbsp_store::ArtifactStore;
use std::collections::BTreeMap;

const USAGE: &str = "\
experiments — the paper's tables and figures, the extension studies and
the CI gates

usage: experiments [ARTIFACT] [flags]      (ARTIFACT defaults to all)

artifacts, each with the flags it reads:
  all|fig1|fig2|fig3|fig4|fig5   one suite run, then every table and figure
                                 (all) or one figure
      [--scale test|train|ref] [--interval N] [--benchmarks a,b,c]
      [--threads N] [--json FILE] [--cache-dir DIR] [--estimators a,b,c]
  table1                         the memory-system configuration
  table2|table3                  per-phase bias: gcc 32u/64u, apsi 32o/64o
      [--scale S] [--interval N] [--cache-dir DIR]
  mpki                           DRAM MPKI extrapolation
      [--scale S] [--interval N] [--benchmarks a,b,c] [--cache-dir DIR]
  ablation                       design-choice ablations
      [--scale S] [--interval N] [--benchmarks a,b,c]
  archsweep                      one point set across five designs
      [--scale S] [--interval N] [--benchmarks a,b,c]
  warmup                         functional vs cold warming
      [--scale S] [--interval N] [--benchmarks a,b,c]
  softmarkers                    software phase markers vs fixed intervals
      [--scale S] [--interval N] [--benchmarks a,b,c]
  seeds                          seed stability
      [--scale S] [--interval N] [--benchmarks a,b,c]
  fuzzy                          the fuzzy-mapping lane alone
      [--fuzzy[=T]] [--scale S] [--interval N] [--benchmarks a,b,c]
      [--threads N] [--json FILE]
  accuracy-gate                  rerun the suite at a reference's scale and
                                 interval; exit 1 on a regression
      [--ref FILE] [--tolerance T] [--benchmarks a,b,c] [--threads N]
      [--json FILE] [--cache-dir DIR] [--estimators a,b,c] [--fuzzy[=T]]
  bench-gate PARENT_BIN CHANGE_BIN
                                 BENCHMARK.json's workloads, parent vs change
                                 cbsp-benchmark; exit 1 on a regression

A flag the artifact does not read is a usage error (exit 2), reported
before anything runs.
";

/// The flags the suite artifacts (`all`, `fig1`–`fig5`) read.
const SUITE_FLAGS: &[&str] = &[
    "scale",
    "interval",
    "benchmarks",
    "threads",
    "json",
    "cache-dir",
    "estimators",
];

/// The flags every extension study reads.
const STUDY_FLAGS: &[&str] = &["scale", "interval", "benchmarks"];

/// The flags each artifact reads, as [`USAGE`] lists them: the
/// `|`-separated artifacts of one entry share its flags.
const FLAGS: &[(&str, &[&str])] = &[
    ("all|fig1|fig2|fig3|fig4|fig5", SUITE_FLAGS),
    ("table1", &[]),
    ("table2|table3", &["scale", "interval", "cache-dir"]),
    ("mpki", &["scale", "interval", "benchmarks", "cache-dir"]),
    ("ablation", STUDY_FLAGS),
    ("archsweep", STUDY_FLAGS),
    ("warmup", STUDY_FLAGS),
    ("softmarkers", STUDY_FLAGS),
    ("seeds", STUDY_FLAGS),
    (
        "fuzzy",
        &[
            "fuzzy",
            "scale",
            "interval",
            "benchmarks",
            "threads",
            "json",
        ],
    ),
    (
        "accuracy-gate",
        &[
            "ref",
            "tolerance",
            "benchmarks",
            "threads",
            "json",
            "cache-dir",
            "estimators",
            "fuzzy",
        ],
    ),
    ("bench-gate", &[]),
];

/// Fails on an unknown artifact, or on the first of `given` (flag
/// names) that `artifact` does not read.
fn check_flags(artifact: &str, given: &[String]) -> Result<(), String> {
    let Some((_, reads)) = FLAGS
        .iter()
        .find(|(names, _)| names.split('|').any(|name| name == artifact))
    else {
        return Err(format!(
            "unknown artifact {artifact} (see experiments --help)"
        ));
    };
    match given.iter().find(|flag| !reads.contains(&flag.as_str())) {
        None => Ok(()),
        Some(flag) => Err(format!(
            "experiments {artifact} does not read --{flag} (see experiments --help)"
        )),
    }
}

struct Options {
    artifact: String,
    /// Positionals after the artifact: `bench-gate`'s two binaries.
    args: Vec<String>,
    scale: Scale,
    interval: u64,
    benchmarks: Vec<String>,
    threads: usize,
    json: Option<String>,
    cache_dir: Option<String>,
    /// Estimator lanes to evaluate head-to-head (empty = none).
    estimators: Vec<EstimatorConfig>,
    /// Fuzzy-mapping lane acceptance threshold (`None` = lane off).
    fuzzy: Option<f64>,
    reference: String,
    tolerance: Option<f64>,
}

fn parse_args() -> Options {
    let mut opts = Options {
        artifact: "all".to_string(),
        args: Vec::new(),
        scale: Scale::Reference,
        interval: 100_000,
        benchmarks: Vec::new(),
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        json: None,
        cache_dir: None,
        estimators: Vec::new(),
        fuzzy: None,
        reference: "results_ref.json".to_string(),
        tolerance: None,
    };
    let mut positional: Vec<String> = Vec::new();
    let mut given: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if let Some(flag) = a.strip_prefix("--") {
            given.push(flag.split('=').next().unwrap_or(flag).to_string());
        }
        match a.as_str() {
            "--scale" => {
                opts.scale = match args.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("train") => Scale::Train,
                    Some("ref") | Some("reference") => Scale::Reference,
                    other => die(&format!("bad --scale {other:?}")),
                }
            }
            "--interval" => {
                opts.interval = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("bad --interval"));
            }
            "--benchmarks" => {
                opts.benchmarks = args
                    .next()
                    .unwrap_or_else(|| die("--benchmarks needs a list"))
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--threads" => {
                opts.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("bad --threads"));
            }
            "--json" => {
                opts.json = Some(args.next().unwrap_or_else(|| die("--json needs a path")));
            }
            "--cache-dir" => {
                opts.cache_dir = Some(
                    args.next()
                        .unwrap_or_else(|| die("--cache-dir needs a path")),
                );
            }
            "--estimators" => {
                opts.estimators = args
                    .next()
                    .unwrap_or_else(|| die("--estimators needs a list"))
                    .split(',')
                    .map(|tag| {
                        EstimatorConfig::parse(tag).unwrap_or_else(|| {
                            die(&format!(
                                "bad estimator {tag} ({})",
                                EstimatorConfig::KNOWN_TAGS.join("|")
                            ))
                        })
                    })
                    .collect();
            }
            "--fuzzy" => {
                opts.fuzzy = Some(cbsp_core::FuzzyConfig::DEFAULT_THRESHOLD);
            }
            flag if flag.starts_with("--fuzzy=") => {
                let v = &flag["--fuzzy=".len()..];
                let threshold: f64 = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("bad --fuzzy threshold {v}")));
                if !(threshold > 0.0 && threshold <= 1.0) {
                    die(&format!("--fuzzy threshold {threshold} outside (0, 1]"));
                }
                opts.fuzzy = Some(threshold);
            }
            "--ref" => {
                opts.reference = args.next().unwrap_or_else(|| die("--ref needs a path"));
            }
            "--tolerance" => {
                opts.tolerance = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("bad --tolerance")),
                );
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            name if !name.starts_with('-') => positional.push(name.to_string()),
            other => die(&format!("unknown option {other}")),
        }
    }
    let mut positional = positional.into_iter();
    if let Some(artifact) = positional.next() {
        opts.artifact = artifact;
    }
    if let Err(e) = check_flags(&opts.artifact, &given) {
        die(&e);
    }
    opts.args = positional.collect();
    let expected = if opts.artifact == "bench-gate" { 2 } else { 0 };
    if opts.args.len() != expected {
        die(&format!(
            "{} takes {expected} argument(s), got {}",
            opts.artifact,
            opts.args.len()
        ));
    }
    opts
}

fn read_json<T: serde::de::DeserializeOwned>(path: &str) -> T {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")))
}

fn parse_scale(name: &str) -> Scale {
    match name {
        "Test" | "test" => Scale::Test,
        "Train" | "train" => Scale::Train,
        "Reference" | "ref" | "reference" => Scale::Reference,
        other => die(&format!("unknown scale {other:?} in reference file")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Seeded pairs `bench-gate` runs per workload.
const BENCH_GATE_PAIRS: u64 = 5;

/// Budget of each `bench-gate` run's measured phases, seconds.
const BENCH_GATE_SECONDS: u64 = 10;

/// The parts of `BENCHMARK.json` the bench gate reads.
#[derive(serde::Deserialize)]
struct BenchmarkSpec {
    workloads: Vec<WorkloadSpec>,
    end_to_end: Vec<EndToEndMetric>,
}

#[derive(serde::Deserialize)]
struct WorkloadSpec {
    name: String,
}

/// A `cbsp-benchmark` result line.
#[derive(serde::Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, MetricValue>,
}

#[derive(serde::Deserialize)]
struct MetricValue {
    value: f64,
}

/// Runs `binary` on one workload and seed, untraced, and reads its
/// final line.
fn bench_run(binary: &str, label: &str, workload: &str, seed: u64) -> BenchRun {
    let output = std::process::Command::new(binary)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &BENCH_GATE_SECONDS.to_string(), "--trace", "0"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .unwrap_or_else(|e| die(&format!("running {binary}: {e}")));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    println!("{label} {workload} seed {seed}: {line}");
    let exited_ok = output.status.success();
    let Ok(r) = serde_json::from_str::<ResultLine>(line) else {
        return BenchRun {
            exited_ok,
            ..BenchRun::default()
        };
    };
    BenchRun {
        exited_ok,
        correct: r.correct,
        attempted: r.attempted,
        failed: r.failed,
        metrics: r.metrics.into_iter().map(|(k, v)| (k, v.value)).collect(),
    }
}

/// `bench-gate`: every `BENCHMARK.json` workload in
/// [`BENCH_GATE_PAIRS`] seeded pairs, the side that runs first
/// alternating, then the decision of [`cbsp_bench::bench_gate`].
fn bench_gate_runs(parent: &str, change: &str) -> BenchGateReport {
    let spec: BenchmarkSpec = read_json("BENCHMARK.json");
    let workloads: Vec<(String, Vec<BenchPair>)> = spec
        .workloads
        .iter()
        .map(|w| {
            let pairs = (0..BENCH_GATE_PAIRS)
                .map(|seed| {
                    let parent_run = || bench_run(parent, "parent", &w.name, seed);
                    let change_run = || bench_run(change, "change", &w.name, seed);
                    if seed % 2 == 0 {
                        let parent = parent_run();
                        BenchPair {
                            parent,
                            change: change_run(),
                        }
                    } else {
                        let change = change_run();
                        BenchPair {
                            parent: parent_run(),
                            change,
                        }
                    }
                })
                .collect();
            (w.name.clone(), pairs)
        })
        .collect();
    bench_gate(&spec.end_to_end, &workloads)
}

fn main() {
    let opts = parse_args();
    let mem = MemoryConfig::table1();
    let store: Option<ArtifactStore> = opts
        .cache_dir
        .as_ref()
        .map(|dir| ArtifactStore::open(dir.as_str()).unwrap_or_else(|e| die(&e.to_string())));
    let store = store.as_ref();

    match opts.artifact.as_str() {
        "table1" => {
            print!("{}", report::table1(&mem));
            return;
        }
        "table2" | "table3" => {
            let (name, pair, labels) = if opts.artifact == "table2" {
                (
                    "gcc",
                    Pair::P32u64u,
                    ("32-bit Unoptimized", "64-bit Unoptimized"),
                )
            } else {
                (
                    "apsi",
                    Pair::P32o64o,
                    ("32-bit Optimized", "64-bit Optimized"),
                )
            };
            eprintln!("evaluating {name} at {:?} scale...", opts.scale);
            let run = evaluate_benchmark(name, opts.scale, opts.interval, &mem, store);
            let t = phase_bias(&run, pair, 3);
            print!("{}", report::phase_table(&t, labels));
            return;
        }
        "mpki" => {
            // Second-metric extrapolation: DRAM accesses per kilo-instruction.
            let names: Vec<&str> = if opts.benchmarks.is_empty() {
                vec!["mcf", "swim", "gcc", "crafty", "apsi", "equake"]
            } else {
                opts.benchmarks.iter().map(String::as_str).collect()
            };
            println!(
                "DRAM MPKI extrapolation (avg relative error across 4 binaries)\n{:<10} {:>10} {:>8} {:>8}",
                "benchmark", "true@32o", "FLI", "VLI"
            );
            for name in names {
                eprintln!("  evaluating {name}...");
                let run = evaluate_benchmark(name, opts.scale, opts.interval, &mem, store);
                let m = mpki_eval(&run);
                println!(
                    "{:<10} {:>10.3} {:>7.2}% {:>7.2}%",
                    name,
                    m.true_mpki[1],
                    100.0 * m.avg_err(false),
                    100.0 * m.avg_err(true)
                );
            }
            return;
        }
        "seeds" => {
            let names: Vec<&str> = if opts.benchmarks.is_empty() {
                vec!["gzip", "gcc", "mcf", "apsi"]
            } else {
                opts.benchmarks.iter().map(String::as_str).collect()
            };
            let mut rows = Vec::new();
            for name in names {
                eprintln!("  seed stability on {name}...");
                rows.push(cbsp_bench::seed_stability(
                    name,
                    opts.scale,
                    opts.interval,
                    5,
                ));
            }
            print!("{}", cbsp_bench::seeds::render(&rows));
            return;
        }
        "softmarkers" => {
            let names: Vec<&str> = if opts.benchmarks.is_empty() {
                vec!["swim", "sixtrack", "art", "gzip", "mesa"]
            } else {
                opts.benchmarks.iter().map(String::as_str).collect()
            };
            let mut rows = Vec::new();
            for name in names {
                eprintln!("  phase-marker study on {name}...");
                rows.push(cbsp_bench::softmark_benchmark(
                    name,
                    opts.scale,
                    opts.interval,
                ));
            }
            print!("{}", cbsp_bench::softmark_study::render(&rows));
            return;
        }
        "warmup" => {
            let names: Vec<&str> = if opts.benchmarks.is_empty() {
                vec!["gzip", "mcf", "swim", "equake"]
            } else {
                opts.benchmarks.iter().map(String::as_str).collect()
            };
            let mut rows = Vec::new();
            for name in names {
                eprintln!("  warmup study on {name}...");
                rows.push(cbsp_bench::warmup_benchmark(
                    name,
                    opts.scale,
                    opts.interval,
                ));
            }
            print!("{}", cbsp_bench::warmup::render(&rows));
            return;
        }
        "archsweep" => {
            let names: Vec<&str> = if opts.benchmarks.is_empty() {
                vec!["gzip", "mcf", "swim", "gcc", "twolf"]
            } else {
                opts.benchmarks.iter().map(String::as_str).collect()
            };
            let archs = standard_archs();
            let mut rows = Vec::new();
            for name in names {
                eprintln!("  sweeping {name}...");
                rows.push(sweep_benchmark(name, opts.scale, opts.interval, &archs));
            }
            print!("{}", cbsp_bench::archsweep::render(&rows, &archs));
            return;
        }
        "bench-gate" => {
            let report = bench_gate_runs(&opts.args[0], &opts.args[1]);
            print!("{}", cbsp_bench::render_bench_gate(&report));
            std::process::exit(i32::from(!report.passed()));
        }
        "fuzzy" => {
            // Standalone fuzzy-mapping lane: marker-destroyed binary
            // sets, similarity fallback, CPI error vs full simulation.
            let threshold = opts
                .fuzzy
                .unwrap_or(cbsp_core::FuzzyConfig::DEFAULT_THRESHOLD);
            eprintln!(
                "fuzzy lane at {:?} scale, interval {}, threshold {threshold}...",
                opts.scale, opts.interval
            );
            let lane = cbsp_bench::run_fuzzy_lane(
                &opts.benchmarks,
                opts.scale,
                opts.interval,
                threshold,
                &mem,
                opts.threads,
            );
            print!("{}", cbsp_bench::render_fuzzy(&lane));
            if let Some(path) = &opts.json {
                let json = serde_json::to_string_pretty(&lane).expect("lane serializes");
                std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
                eprintln!("wrote {path}");
            }
            return;
        }
        "accuracy-gate" => {
            // CI accuracy gate: rerun the suite at the reference's own
            // scale/interval and require per-benchmark CPI and speedup
            // errors within --tolerance (default 0.02 absolute) of the
            // committed results_ref.json.
            let mut reference: SuiteResults = read_json(&opts.reference);
            if !opts.benchmarks.is_empty() {
                // Local spot-check: gate only the requested subset.
                reference
                    .benchmarks
                    .retain(|b| opts.benchmarks.contains(&b.name));
                for lane in &mut reference.estimators {
                    lane.benchmarks
                        .retain(|b| opts.benchmarks.contains(&b.name));
                }
                if let Some(lane) = &mut reference.fuzzy {
                    lane.benchmarks
                        .retain(|b| opts.benchmarks.contains(&b.name));
                }
            }
            let scale = parse_scale(&reference.scale);
            eprintln!(
                "accuracy gate: rerunning suite at {scale:?} scale, interval {}...",
                reference.interval_target
            );
            let mut current = run_suite(
                &opts.benchmarks,
                scale,
                reference.interval_target,
                &mem,
                opts.threads,
                store,
                &opts.estimators,
            );
            if let Some(threshold) = opts.fuzzy {
                // The fuzzy lane runs its default benchmark subset
                // (or the --benchmarks intersection with it) on
                // marker-destroyed binary sets at the reference's own
                // scale/interval, mirroring the reference column.
                let names: Vec<String> = cbsp_bench::FUZZY_BENCHMARKS
                    .iter()
                    .filter(|n| {
                        opts.benchmarks.is_empty() || opts.benchmarks.iter().any(|b| b == *n)
                    })
                    .map(|n| n.to_string())
                    .collect();
                eprintln!(
                    "fuzzy lane: {} benchmarks, threshold {threshold}...",
                    names.len()
                );
                current.fuzzy = Some(cbsp_bench::run_fuzzy_lane(
                    &names,
                    scale,
                    reference.interval_target,
                    threshold,
                    &mem,
                    opts.threads,
                ));
            }
            if let Some(path) = &opts.json {
                // Persist the rerun results so CI can attach them to
                // failed runs (and so a passing rerun can become the
                // next committed reference).
                let json = serde_json::to_string_pretty(&current).expect("results serialize");
                std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
            }
            if !current.estimators.is_empty() {
                print!("{}", render_lanes(&current.estimators));
            }
            if let Some(lane) = &current.fuzzy {
                print!("{}", cbsp_bench::render_fuzzy(lane));
            }
            let slack = opts.tolerance.unwrap_or(0.02);
            let g = cbsp_bench::accuracy_gate(&current, &reference, slack);
            print!("{}", cbsp_bench::render_gate(&g));
            std::process::exit(i32::from(!g.passed()));
        }
        "ablation" => {
            let names: Vec<&str> = if opts.benchmarks.is_empty() {
                vec!["gzip", "gcc", "swim", "mcf", "applu"]
            } else {
                opts.benchmarks.iter().map(String::as_str).collect()
            };
            eprintln!(
                "running ablations over {names:?} at {:?} scale...",
                opts.scale
            );
            let results = run_ablations(&names, opts.scale, opts.interval, &mem);
            print!("{}", cbsp_bench::ablation::render(&results));
            return;
        }
        _ => {}
    }

    // Everything else needs the suite results.
    eprintln!(
        "running suite at {:?} scale, interval target {}...",
        opts.scale, opts.interval
    );
    let results = run_suite(
        &opts.benchmarks,
        opts.scale,
        opts.interval,
        &mem,
        opts.threads,
        store,
        &opts.estimators,
    );
    if !results.estimators.is_empty() {
        print!("{}", render_lanes(&results.estimators));
    }
    if let Some(path) = &opts.json {
        let json = serde_json::to_string_pretty(&results).expect("results serialize");
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
        eprintln!("wrote {path}");
    }

    match opts.artifact.as_str() {
        "fig1" => print!("{}", report::fig1(&results)),
        "fig2" => print!("{}", report::fig2(&results)),
        "fig3" => print!("{}", report::fig3(&results)),
        "fig4" => print!("{}", report::fig4(&results)),
        "fig5" => print!("{}", report::fig5(&results)),
        "all" => {
            println!("{}", report::table1(&mem));
            println!("{}", report::fig1(&results));
            println!("{}", report::fig2(&results));
            println!("{}", report::fig3(&results));
            println!("{}", report::fig4(&results));
            println!("{}", report::fig5(&results));
            for (name, pair, labels) in [
                ("gcc", Pair::P32u64u, ("32u", "64u")),
                ("apsi", Pair::P32o64o, ("32o", "64o")),
            ] {
                let run = evaluate_benchmark(name, opts.scale, opts.interval, &mem, store);
                let t = phase_bias(&run, pair, 3);
                println!("{}", report::phase_table(&t, labels));
            }
        }
        other => unreachable!("check_flags admits no artifact {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::{check_flags, FLAGS, USAGE};

    /// Every `--flag` named in `text`, in order.
    fn flags_in(text: &str) -> Vec<&str> {
        text.split("--")
            .skip(1)
            .map(|rest| {
                let end = rest
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(rest.len());
                &rest[..end]
            })
            .collect()
    }

    #[test]
    fn usage_and_the_flag_table_name_the_same_flags() {
        let artifacts = USAGE
            .split_once("the flags it reads:\n")
            .and_then(|(_, rest)| rest.split_once("\n\n"))
            .map(|(artifacts, _)| artifacts)
            .expect("USAGE lists the artifacts in one block");
        // Each artifact line and the deeper-indented lines under it.
        let mut sections: Vec<(&str, String)> = Vec::new();
        for line in artifacts.lines() {
            if line.starts_with("  ") && !line.starts_with("   ") {
                let names = line.split_whitespace().next().expect("artifact names");
                sections.push((names, String::new()));
            }
            if let Some((_, text)) = sections.last_mut() {
                text.push_str(line);
            }
        }
        let usage: Vec<(&str, Vec<&str>)> = sections
            .iter()
            .map(|(names, text)| (*names, flags_in(text)))
            .collect();
        let table: Vec<(&str, Vec<&str>)> = FLAGS
            .iter()
            .map(|(names, reads)| (*names, reads.to_vec()))
            .collect();
        assert_eq!(usage, table);
    }

    #[test]
    fn flags_an_artifact_does_not_read_are_refused() {
        let given = |flags: &[&str]| flags.iter().map(|f| f.to_string()).collect::<Vec<_>>();
        assert!(check_flags("fig3", &given(&["scale", "estimators", "cache-dir"])).is_ok());
        assert!(check_flags("table1", &[]).is_ok());
        for (artifact, flag) in [
            ("seeds", "json"),
            ("seeds", "cache-dir"),
            ("seeds", "estimators"),
            ("table2", "threads"),
            ("mpki", "threads"),
            ("table1", "cache-dir"),
            ("bench-gate", "scale"),
        ] {
            let err = check_flags(artifact, &given(&[flag])).unwrap_err();
            assert!(err.contains(&format!("--{flag}")), "{artifact}: {err}");
        }
        assert!(check_flags("fig9", &[])
            .unwrap_err()
            .contains("unknown artifact"));
    }
}
