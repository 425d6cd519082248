//! End-to-end tests of the `cbsp` binary: each tool-chain stage run as
//! a real subprocess, files flowing between stages.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn cbsp(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cbsp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("cbsp binary runs")
}

fn assert_ok(out: &Output, what: &str) -> String {
    assert!(
        out.status.success(),
        "{what} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbsp-cli-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn list_shows_the_suite() {
    let dir = temp_dir("list");
    let out = assert_ok(&cbsp(&dir, &["list"]), "list");
    for name in ["gcc", "applu", "mcf", "wupwise"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn help_and_errors() {
    let dir = temp_dir("help");
    let out = assert_ok(&cbsp(&dir, &["help"]), "help");
    assert!(out.contains("usage: cbsp"));

    let bad = cbsp(&dir, &["frobnicate"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown command"));

    let bad = cbsp(&dir, &["compile", "nosuchbench"]);
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown benchmark"));
}

#[test]
fn unknown_flags_fail_before_the_command_runs() {
    let dir = temp_dir("flags");
    let stderr = |out: &Output| String::from_utf8_lossy(&out.stderr).to_string();
    // A misspelt flag used to run silently at the default interval.
    let typo = cbsp(
        &dir,
        &[
            "cross",
            "gzip",
            "--scale",
            "test",
            "--intervall",
            "20000",
            "--no-cache",
            "1",
        ],
    );
    assert_eq!(typo.status.code(), Some(2), "{}", stderr(&typo));
    assert!(
        stderr(&typo).contains("unknown flag --intervall"),
        "{}",
        stderr(&typo)
    );
    assert!(typo.stdout.is_empty(), "the command ran");

    // The estimate is exact-lane only, so it refuses the fuzzy lane
    // instead of ignoring it.
    let fuzzy = cbsp(
        &dir,
        &[
            "estimate",
            "gzip",
            "--scale",
            "test",
            "--interval",
            "20000",
            "--fuzzy-map",
            "--no-cache",
            "1",
        ],
    );
    assert_eq!(fuzzy.status.code(), Some(2), "{}", stderr(&fuzzy));
    assert!(
        stderr(&fuzzy).contains("exact-lane only"),
        "{}",
        stderr(&fuzzy)
    );
    assert!(fuzzy.stdout.is_empty(), "the command ran");

    // The observability flags are accepted by every command.
    assert_ok(&cbsp(&dir, &["list", "--metrics-json", "m.json"]), "list");
    assert!(dir.join("m.json").exists());
}

#[test]
fn compile_inspect_profile_simpoint_chain() {
    let dir = temp_dir("chain");
    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "compile", "gzip", "--target", "32o", "--scale", "test", "--out", "bin.json",
            ],
        ),
        "compile",
    );
    assert!(out.contains("compiled gzip-32o"));
    assert!(dir.join("bin.json").exists());

    let out = assert_ok(&cbsp(&dir, &["inspect", "bin.json"]), "inspect");
    assert!(out.contains("binary gzip-32o"));
    assert!(out.contains("deflate"), "symbols listed:\n{out}");

    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "profile",
                "bin.json",
                "--interval",
                "20000",
                "--scale",
                "test",
                "--out",
                "p.bb",
            ],
        ),
        "profile",
    );
    assert!(out.contains("intervals over"));
    let bb = std::fs::read_to_string(dir.join("p.bb")).expect("bb written");
    assert!(bb.starts_with('T'));

    let out = assert_ok(
        &cbsp(
            &dir,
            &["simpoint", "p.bb", "--max-k", "6", "--out", "sp.json"],
        ),
        "simpoint",
    );
    assert!(out.contains("phases"));
    assert!(dir.join("sp.json").exists());
}

#[test]
fn cross_then_simulate_regions() {
    let dir = temp_dir("cross");
    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "cross",
                "swim",
                "--scale",
                "test",
                "--interval",
                "20000",
                "--out-dir",
                "out",
            ],
        ),
        "cross",
    );
    assert!(out.contains("mappable points"));
    for label in ["swim-32u", "swim-32o", "swim-64u", "swim-64o"] {
        assert!(dir.join(format!("out/{label}.json")).exists());
        assert!(dir.join(format!("out/{label}.pinpoints.json")).exists());
    }

    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "simulate",
                "out/swim-64o.json",
                "--regions",
                "out/swim-64o.pinpoints.json",
                "--full",
                "1",
                "--scale",
                "test",
            ],
        ),
        "simulate",
    );
    assert!(out.contains("estimated whole-program CPI"));
    assert!(out.contains("true whole-program CPI"));
    // Every region of a matching (binary, input) pair must be reached.
    assert!(!out.contains("false"), "unreached region:\n{out}");
}

/// A reader that goes away before `cbsp` prints (`cbsp cross … |
/// head -1`) ends the printing, not the command: no panic, exit 0, and
/// every file the command writes is still written.
#[test]
fn closed_stdout_ends_the_printing_but_not_the_command() {
    let dir = temp_dir("closed-stdout");
    let mut child = Command::new(env!("CARGO_BIN_EXE_cbsp"))
        .args([
            "cross",
            "gzip",
            "--scale",
            "test",
            "--interval",
            "20000",
            "--no-cache",
            "1",
            "--out-dir",
            "out",
            "--metrics-json",
            "m.json",
        ])
        .current_dir(&dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("cbsp binary runs");
    // The pipeline runs for a while before the first line, so the read
    // end is closed before anything is printed.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("cbsp exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(dir.join("m.json").exists(), "metrics file written");
    for label in ["gzip-32u", "gzip-32o", "gzip-64u", "gzip-64o"] {
        assert!(dir.join(format!("out/{label}.json")).exists());
        assert!(dir.join(format!("out/{label}.pinpoints.json")).exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_serves_warm_run_from_cache() {
    let dir = temp_dir("cache");
    let args = &[
        "cross",
        "mcf",
        "--scale",
        "test",
        "--interval",
        "20000",
        "--out-dir",
        "out",
        "--cache-dir",
        "store",
    ];
    let cold = assert_ok(&cbsp(&dir, args), "cold cross");
    assert!(
        cold.contains("cache: 0 of"),
        "cold run computes everything:\n{cold}"
    );

    let warm = assert_ok(&cbsp(&dir, args), "warm cross");
    // All 8 stage executions (4 profiles + mappable + vli + simpoint +
    // map) served from the store on the second run.
    assert!(
        warm.contains("cache: 8 of 8 stage executions"),
        "warm run fully cached:\n{warm}"
    );
    for stage in [
        "profile 4/4",
        "mappable 1/1",
        "vli 1/1",
        "simpoint 1/1",
        "map 1/1",
    ] {
        assert!(warm.contains(stage), "missing {stage} in:\n{warm}");
    }

    // Cached results are identical to an uncached run.
    let nocache = assert_ok(
        &cbsp(
            &dir,
            &[
                "cross",
                "mcf",
                "--scale",
                "test",
                "--interval",
                "20000",
                "--out-dir",
                "plain",
                "--no-cache",
                "1",
            ],
        ),
        "uncached cross",
    );
    assert!(nocache.contains("cache: bypassed"));
    assert!(
        !dir.join(".cbsp-cache").exists(),
        "an uncached run creates no store"
    );
    for label in ["mcf-32u", "mcf-32o", "mcf-64u", "mcf-64o"] {
        let cached = std::fs::read(dir.join(format!("out/{label}.pinpoints.json")))
            .expect("cached pinpoints");
        let plain = std::fs::read(dir.join(format!("plain/{label}.pinpoints.json")))
            .expect("uncached pinpoints");
        assert_eq!(cached, plain, "{label} region files differ");
    }

    let stats = assert_ok(
        &cbsp(&dir, &["cache", "stats", "--cache-dir", "store"]),
        "stats",
    );
    assert!(
        stats.contains("8 artifacts"),
        "store holds the run:\n{stats}"
    );
    assert!(stats.contains("run "), "manifests listed:\n{stats}");
    assert!(
        stats.contains("cross mcf"),
        "run description shown:\n{stats}"
    );

    // Everything is referenced by a manifest, so gc removes nothing.
    let gc = assert_ok(&cbsp(&dir, &["cache", "gc", "--cache-dir", "store"]), "gc");
    assert!(gc.contains("removed 0 artifacts"), "{gc}");
    assert!(gc.contains("kept 8"), "{gc}");

    // Add leases: four recorded traces, as older versions left them,
    // and the replay and FLI leases of an experiment evaluation. They
    // are reported apart from the pipeline stages and the estimator
    // lanes, and gc evicts them.
    let mcf = cbsp_store::Prepared::of(
        &cbsp_program::workloads::by_name("mcf").expect("in suite"),
        cbsp_program::Scale::Test,
    );
    let store = cbsp_store::ArtifactStore::open(dir.join("store")).expect("store opens");
    let traces = cbsp_store::TraceCache::new(Some(&store));
    for bin in mcf.binaries() {
        traces.get_or_record(bin, mcf.input()).expect("records");
    }
    traces
        .replay_sliced_both_all(
            &mcf,
            &cbsp_sim::MemoryConfig::table1(),
            &vec![Vec::new(); mcf.binaries().len()],
            20_000,
            &cbsp_par::Pool::new(1),
        )
        .expect("simulates");
    traces
        .fli_simpoints(
            &mcf,
            20_000,
            &cbsp_simpoint::SimPointConfig::default(),
            &cbsp_par::Pool::new(1),
        )
        .expect("clusters");
    let stats = assert_ok(
        &cbsp(&dir, &["cache", "stats", "--cache-dir", "store"]),
        "stats with leases",
    );
    for line in [
        "store: 14 artifacts",
        "pipeline stages: 8 artifacts",
        "trace cache:     4 artifacts",
        "sliced traces:   0 artifacts",
        "replay leases:   1 artifacts",
        "FLI leases:      1 artifacts",
        "bbv            8 artifacts",
    ] {
        assert!(stats.contains(line), "missing `{line}` in:\n{stats}");
    }
    let gc = assert_ok(&cbsp(&dir, &["cache", "gc", "--cache-dir", "store"]), "gc");
    assert!(gc.contains("removed 6 artifacts"), "{gc}");
    assert!(gc.contains("kept 8"), "{gc}");

    for action in ["shred", "migrate"] {
        let bad = cbsp(&dir, &["cache", action, "--cache-dir", "store"]);
        assert!(!bad.status.success(), "cache {action} must fail");
        assert!(
            String::from_utf8_lossy(&bad.stderr).contains("unknown cache action"),
            "cache {action}"
        );
    }
}

#[test]
fn estimate_is_identical_cold_warm_and_uncached() {
    let dir = temp_dir("estimate");
    let args = [
        "estimate",
        "mcf",
        "--scale",
        "test",
        "--interval",
        "20000",
        "--estimator",
        "stratified",
    ];
    let cached = [&args[..], &["--cache-dir", "store"]].concat();
    let cold = assert_ok(&cbsp(&dir, &cached), "cold estimate");
    let warm = assert_ok(&cbsp(&dir, &cached), "warm estimate");
    let plain = assert_ok(
        &cbsp(&dir, &[&args[..], &["--no-cache", "1"]].concat()),
        "uncached estimate",
    );
    for label in ["mcf-32u", "mcf-32o", "mcf-64u", "mcf-64o"] {
        assert!(cold.contains(label), "missing {label} in:\n{cold}");
    }
    assert_eq!(warm, cold, "warm estimate differs");
    assert_eq!(plain, cold, "uncached estimate differs");
    assert!(
        !dir.join(".cbsp-cache").exists(),
        "an uncached run creates no store"
    );

    // The CPI side is one replay lease over the four binaries, and no
    // per-simpoint slices.
    let stats = assert_ok(
        &cbsp(&dir, &["cache", "stats", "--cache-dir", "store"]),
        "stats",
    );
    for line in [
        "replay leases:   1 artifacts",
        "sliced traces:   0 artifacts",
    ] {
        assert!(stats.contains(line), "missing `{line}` in:\n{stats}");
    }
}

#[test]
fn perbinary_produces_a_valid_region_file() {
    let dir = temp_dir("perbinary");
    assert_ok(
        &cbsp(
            &dir,
            &[
                "compile", "eon", "--target", "64u", "--scale", "test", "--out", "eon.json",
            ],
        ),
        "compile",
    );
    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "perbinary",
                "eon.json",
                "--interval",
                "20000",
                "--scale",
                "test",
                "--out",
                "pp.json",
            ],
        ),
        "perbinary",
    );
    assert!(out.contains("phases"));
    // The produced file drives the region simulator.
    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "simulate",
                "eon.json",
                "--regions",
                "pp.json",
                "--full",
                "1",
                "--scale",
                "test",
            ],
        ),
        "simulate",
    );
    assert!(out.contains("estimate error"));
}

#[test]
fn hot_source_and_markers_commands() {
    let dir = temp_dir("tools");
    assert_ok(
        &cbsp(
            &dir,
            &[
                "compile",
                "swim",
                "--target",
                "32o",
                "--scale",
                "test",
                "--out",
                "swim.json",
            ],
        ),
        "compile",
    );

    let out = assert_ok(&cbsp(&dir, &["hot", "swim.json", "--scale", "test"]), "hot");
    assert!(
        out.contains("calc1"),
        "hot procedures listed:
{out}"
    );
    assert!(out.contains('%'));

    let out = assert_ok(&cbsp(&dir, &["source", "swim"]), "source");
    assert!(out.contains("program swim"));
    assert!(out.contains("fn calc1()"));

    let out = assert_ok(
        &cbsp(
            &dir,
            &[
                "markers",
                "swim.json",
                "--scale",
                "test",
                "--interval",
                "20000",
            ],
        ),
        "markers",
    );
    assert!(out.contains("markers profiled"), "{out}");

    let out = assert_ok(
        &cbsp(&dir, &["inspect", "swim.json", "--code", "1"]),
        "inspect --code",
    );
    assert!(
        out.contains("instrs"),
        "lowered code shown:
{out}"
    );
}

#[test]
fn simulate_rejects_mismatched_region_files() {
    let dir = temp_dir("mismatch");
    assert_ok(
        &cbsp(
            &dir,
            &[
                "compile", "art", "--target", "32o", "--scale", "test", "--out", "art.json",
            ],
        ),
        "compile art",
    );
    assert_ok(
        &cbsp(
            &dir,
            &[
                "compile", "mcf", "--target", "32o", "--scale", "test", "--out", "mcf.json",
            ],
        ),
        "compile mcf",
    );
    assert_ok(
        &cbsp(
            &dir,
            &[
                "perbinary",
                "mcf.json",
                "--interval",
                "20000",
                "--scale",
                "test",
                "--out",
                "pp.json",
            ],
        ),
        "perbinary mcf",
    );
    // Using mcf's regions on art: instruction-offset regions may or may
    // not be reachable, but the command itself must not crash.
    let out = cbsp(
        &dir,
        &[
            "simulate",
            "art.json",
            "--regions",
            "pp.json",
            "--scale",
            "test",
        ],
    );
    assert!(out.status.success(), "graceful handling of foreign regions");
}

/// `cbsp serve` answers `server.shutdown` before the process exits.
#[test]
fn serve_answers_shutdown_before_it_exits() {
    let dir = temp_dir("serve-shutdown");
    for attempt in 0..20 {
        let mut daemon = Command::new(env!("CARGO_BIN_EXE_cbsp"))
            .args(["serve", "--addr", "127.0.0.1:0", "--threads", "1"])
            .args(["--cache-dir", "store"])
            .current_dir(&dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("cbsp serve starts");
        // The pipe stays open in `daemon`, which prints as it drains.
        let mut banner = String::new();
        BufReader::new(daemon.stdout.as_mut().expect("stdout piped"))
            .read_line(&mut banner)
            .expect("banner read");
        let addr = banner.rsplit(' ').next().expect("banner names the address");
        let mut stream = TcpStream::connect(addr.trim()).expect("connects");
        let mut replies = BufReader::new(stream.try_clone().expect("clone")).lines();
        let mut exchange = |frame: &str| {
            stream.write_all(frame.as_bytes()).expect("sent");
            replies.next().and_then(Result::ok)
        };
        let pong = exchange("{\"id\":1,\"method\":\"ping\"}\n");
        let bye = exchange("{\"id\":2,\"method\":\"server.shutdown\"}\n");
        assert!(daemon.wait().expect("cbsp serve exits").success());
        assert!(pong.is_some_and(|pong| pong.contains("\"pong\":true")));
        let draining = r#"{"id":2,"ok":true,"v":1,"result":{"draining":true}}"#;
        assert_eq!(bye.as_deref(), Some(draining), "try {attempt}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
