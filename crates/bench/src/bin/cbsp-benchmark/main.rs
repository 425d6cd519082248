//! `cbsp-benchmark` — the end-to-end benchmark of this repository: two
//! named workloads, end-to-end metrics from untraced runs, and a traced
//! run that breaks each workload down by layer. See `README.md` next to
//! this file for the workloads, the metrics and how to read them.
//!
//! ```text
//! cbsp-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                [--out DIR]
//! ```
//!
//! `--trace 0` (the default) reports the end-to-end metrics; `--trace 1`
//! is the traced run and reports the per-layer ones. With `--workload`,
//! one workload runs in this process and the last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. Without it, every workload runs in a child process of its
//! own (so peak RSS is per workload) and the last line merges theirs.

mod batch;
mod layers;
mod serve;
mod stats;

use cbsp_program::rng::SplitMix64;
use cbsp_program::{Input, Scale};
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::Instant;

/// Threads every workload runs with: the pipeline pools and the
/// daemon's execution slots.
pub const THREADS: usize = 2;

/// Run length when `--seconds` is not given (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: u64 = 50;

/// Set-ups repeat (at least [`Plan::setups`] times) until they have
/// taken this long together, so a short set-up (`serve-hot`'s takes
/// ~0.1 s) still gets a steady median.
const SETUP_MIN_S: f64 = 1.0;

/// Where runs keep their stores (removed after each run) and the
/// traced run's files, relative to the working directory.
const WORK_ROOT: &str = ".cbsp-benchmark";

/// `serve-hot`'s benchmarks: 6 × 2 intervals = 12 digests, inside the
/// daemon's 16-entry result cache.
const HOT_BENCHMARKS: [&str; 6] = ["gcc", "gzip", "mcf", "swim", "art", "applu"];

/// `serve-hot`'s second interval target, ten times finer than the
/// paper's: its digests cluster ten times as many intervals.
pub const FINE_INTERVAL: u64 = 10_000;

/// How a run is sized. [`Plan::new`] is the benchmark proper.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Input scale of every workload.
    pub scale: Scale,
    /// Budget of the measured phases, seconds.
    pub seconds: f64,
    /// Fewest timed set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest repetitions of a timed phase: the suite's cold and warm
    /// passes, the daemon's cold and warm sweeps.
    pub reps: usize,
    /// Most benchmarks a workload takes from its list.
    pub max_benchmarks: usize,
}

impl Plan {
    /// The benchmark: every workload at Train scale, where a pass over
    /// the suite takes seconds, so a run repeats each phase often enough
    /// for its median to be steady.
    pub fn new(seconds: f64) -> Plan {
        Plan {
            scale: Scale::Train,
            seconds,
            setups: 3,
            reps: 2,
            max_benchmarks: usize::MAX,
        }
    }

    /// A Test-scale run over two benchmarks per workload with short
    /// phases, for the smoke tests.
    #[cfg(test)]
    pub fn smoke() -> Plan {
        Plan {
            scale: Scale::Test,
            seconds: 1.0,
            setups: 1,
            reps: 1,
            max_benchmarks: 2,
        }
    }

    /// The same plan with half the budget (each half of a traced run).
    pub fn halved(&self) -> Plan {
        Plan {
            seconds: self.seconds / 2.0,
            ..self.clone()
        }
    }

    /// The first [`Plan::max_benchmarks`] of `names`.
    pub fn take(&self, names: Vec<&'static str>) -> Vec<&'static str> {
        names.into_iter().take(self.max_benchmarks).collect()
    }
}

/// A scale's wire name.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Train => "train",
        Scale::Reference => "ref",
    }
}

/// The input a scale runs on.
pub fn input(scale: Scale) -> Input {
    match scale {
        Scale::Test => Input::test(),
        Scale::Train => Input::train(),
        Scale::Reference => Input::reference(),
    }
}

/// What one measured run of a workload produced.
#[derive(Debug)]
pub struct Run {
    /// The workload's job with nothing resident, seconds: the median
    /// repetition.
    pub cold_s: f64,
    /// The same job with its caches populated, seconds: the median
    /// repetition.
    pub warm_s: f64,
    /// Latency of each measured operation, ms.
    pub op_ms: Vec<f64>,
    /// Operations completed per second.
    pub ops_per_s: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Digest of every result the run produced: equal for two runs of
    /// one seed, traced or not.
    pub results: String,
    /// Human-readable facts about the run.
    pub notes: Vec<String>,
    /// Daemon-side observations (serve workloads).
    pub serve: Option<serve::ServeLayer>,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finished invocation's result.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every check passed (no failed operation, observation changed
    /// nothing).
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteTrain,
    ServeHot,
}

/// A workload's state after set-up.
pub enum State {
    Suite(batch::Suite),
    Serve(serve::Serving),
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::SuiteTrain, Workload::ServeHot];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteTrain => "suite-train",
            Workload::ServeHot => "serve-hot",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Everything a run needs before its measured phases.
    pub fn setup(self, plan: &Plan, dir: &Path) -> Result<State, String> {
        match self {
            Workload::SuiteTrain => batch::suite_setup(plan).map(State::Suite),
            Workload::ServeHot => {
                let shape = serve::Shape {
                    scale: plan.scale,
                    benchmarks: plan.take(HOT_BENCHMARKS.to_vec()),
                    intervals: vec![batch::SUITE_INTERVAL, FINE_INTERVAL],
                };
                serve::setup(&shape, dir).map(State::Serve)
            }
        }
    }
}

impl State {
    /// One measured run.
    pub fn measure(&self, plan: &Plan, seed: u64, dir: &Path) -> Result<Run, String> {
        match self {
            State::Suite(suite) => batch::suite_measure(suite, plan, seed, dir),
            State::Serve(serving) => serve::measure(serving, plan, seed),
        }
    }
}

/// Whether another repetition as long as the last of `done` (seconds)
/// still ends within `budget_s` seconds of `start`; there is always a
/// first.
pub fn fits(done: &[f64], start: Instant, budget_s: f64) -> bool {
    done.last()
        .is_none_or(|last| start.elapsed().as_secs_f64() + last <= budget_s)
}

/// Shuffles `items` in place (Fisher–Yates) with `rng`.
pub fn shuffle<T>(rng: &mut SplitMix64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// An untraced run: timed set-ups, then the measured phases.
pub fn end_to_end(w: Workload, plan: &Plan, seed: u64, dir: &Path) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    let mut total = 0.0;
    while setup_s.len() < plan.setups || total < SETUP_MIN_S {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(plan, dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
        total += setup_s[setup_s.len() - 1];
    }
    let state = state.expect("at least one set-up");
    let run = state.measure(plan, seed, dir)?;
    let mut notes = run.notes;
    notes.push(format!(
        "{} latency samples, {THREADS} threads on {} available",
        run.op_ms.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    Ok(Report {
        attempted: run.attempted,
        failed: run.failed,
        correct: run.failed == 0,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: stats::median(&setup_s),
                unit: "s",
            },
            Metric {
                name: "cold_s",
                value: run.cold_s,
                unit: "s",
            },
            Metric {
                name: "warm_s",
                value: run.warm_s,
                unit: "s",
            },
            Metric {
                name: "p50_ms",
                value: stats::median(&run.op_ms),
                unit: "ms",
            },
            Metric {
                name: "ops_per_s",
                value: run.ops_per_s,
                unit: "1/s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb()?,
                unit: "MB",
            },
        ],
        notes,
    })
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (name → value and unit).
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &str)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let v = Value::Object(vec![
                ("value".to_string(), Value::Float(value)),
                ("unit".to_string(), Value::Str(unit.to_string())),
            ]);
            (name, v)
        })
        .collect();
    let v = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::UInt(attempted)),
        ("failed".to_string(), Value::UInt(failed)),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&v).expect("a result object serializes")
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str =
    "usage: cbsp-benchmark [--workload suite-train|serve-hot] [--seed N] [--seconds S] \
                     [--trace 0|1] [--out DIR]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: Path::new(WORK_ROOT).join("trace"),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            flag @ ("--workload" | "--seed" | "--seconds" | "--trace" | "--out") => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                match flag {
                    "--workload" => {
                        parsed.workload = Some(
                            Workload::parse(value).ok_or(format!("unknown workload {value}"))?,
                        )
                    }
                    "--seed" => {
                        parsed.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?
                    }
                    "--seconds" => {
                        parsed.seconds =
                            value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                        if parsed.seconds == 0 {
                            return Err("--seconds must be at least 1".to_string());
                        }
                    }
                    "--trace" => {
                        parsed.trace = match value.as_str() {
                            "0" => false,
                            "1" => true,
                            other => return Err(format!("bad --trace {other} (0|1)")),
                        }
                    }
                    _ => parsed.out = PathBuf::from(value),
                }
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its result.
fn run_one(w: Workload, args: &Args) -> i32 {
    let dir = Path::new(WORK_ROOT).join(format!("work-{}", std::process::id()));
    let plan = Plan::new(args.seconds as f64);
    let outcome = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("creating {}: {e}", dir.display()))
        .and_then(|()| {
            if args.trace {
                layers::traced(w, &plan, args.seed, &dir, &args.out)
            } else {
                end_to_end(w, &plan, args.seed, &dir)
            }
        });
    let _ = std::fs::remove_dir_all(&dir);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {}: {e}", w.name());
            return 1;
        }
    };
    for note in &report.notes {
        println!("{} # {note}", w.name());
    }
    for m in &report.metrics {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: {}: metric {} is not finite", w.name(), m.name);
        return 1;
    }
    let metrics = report
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value, m.unit))
        .collect();
    println!(
        "{}",
        result_json(report.correct, report.attempted, report.failed, metrics)
    );
    i32::from(!report.correct)
}

/// Runs every workload, each in a child process, and merges their
/// results (metric names prefixed by workload).
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: locating this executable: {e}");
            return 1;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output();
        let stdout = match output {
            Ok(out) => String::from_utf8_lossy(&out.stdout).into_owned(),
            Err(e) => {
                eprintln!("error: running {}: {e}", w.name());
                return 1;
            }
        };
        let mut lines: Vec<&str> = stdout.lines().collect();
        let Some(result) = lines.pop().and_then(|l| serde_json::parse(l).ok()) else {
            eprintln!("error: {} printed no result", w.name());
            return 1;
        };
        for line in lines {
            println!("{line}");
        }
        let get = |key: &str| {
            result
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
        };
        correct &= get("correct") == Some(Value::Bool(true));
        attempted += match get("attempted") {
            Some(Value::UInt(n)) => n,
            _ => 0,
        };
        failed += match get("failed") {
            Some(Value::UInt(n)) => n,
            _ => 0,
        };
        if let Some(Value::Object(ms)) = get("metrics") {
            for (name, m) in ms {
                let field = |k: &str| {
                    m.as_object()
                        .and_then(|o| o.iter().find(|(key, _)| key == k))
                        .map(|(_, v)| v.clone())
                };
                let (Some(Value::Float(value)), Some(Value::Str(unit))) =
                    (field("value"), field("unit"))
                else {
                    continue;
                };
                metrics.push((format!("{}.{name}", w.name()), value, unit));
            }
        }
    }
    let metrics = metrics
        .iter()
        .map(|(n, v, u)| (n.clone(), *v, u.as_str()))
        .collect();
    println!("{}", result_json(correct, attempted, failed, metrics));
    i32::from(!correct)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2);
        }
    };
    exit(match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let items: Vec<u32> = (0..21).collect();
        let shuffled = |seed| {
            let mut out = items.clone();
            shuffle(&mut SplitMix64::new(seed), &mut out);
            out
        };
        let a = shuffled(5);
        assert_eq!(a, shuffled(5));
        assert_ne!(a, shuffled(6));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items);
    }

    #[test]
    fn command_line_flags_parse() {
        let argv: Vec<String> = "--workload serve-hot --seed 9 --seconds 7 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let args = parse_args(&argv).expect("parses");
        assert_eq!(args.workload, Some(Workload::ServeHot));
        assert_eq!((args.seed, args.seconds, args.trace), (9, 7, true));
        let args = parse_args(&[]).expect("parses");
        assert!(!args.trace && args.workload.is_none());
        assert!(parse_args(&["trace".to_string()]).is_err());
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--workload".to_string(), "nope".to_string()]).is_err());
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let line = result_json(true, 3, 0, vec![("setup_s".to_string(), 0.25, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
    }

    /// Every workload runs end to end at Test scale and checks
    /// its own results.
    #[test]
    fn every_workload_runs_at_test_scale() {
        let _guard = cbsp_trace::test_lock();
        let plan = Plan::smoke();
        for w in Workload::ALL {
            let dir = std::env::temp_dir().join(format!(
                "cbsp-benchmark-smoke-{}-{}",
                std::process::id(),
                w.name()
            ));
            let report = end_to_end(w, &plan, 11, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            let report = report.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(report.correct, "{}: {report:?}", w.name());
            assert!(
                report.attempted > 0 && report.failed == 0,
                "{}: {report:?}",
                w.name()
            );
            assert_eq!(report.metrics.len(), 6);
            for m in &report.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{} {}: {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}
