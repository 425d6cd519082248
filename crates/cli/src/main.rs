//! `cbsp` — command-line tools for cross-binary simulation points.
//!
//! Mirrors the paper's tool-chain stages as shell commands:
//!
//! ```text
//! cbsp list                                      # the benchmark suite
//! cbsp compile gcc --target 32o --scale ref      # source -> binary (JSON)
//! cbsp inspect gcc-32o.json                      # symbols, loops, layout
//! cbsp profile gcc-32o.json --interval 100000    # binary -> .bb BBV profile
//! cbsp simpoint gcc-32o.bb --max-k 10            # .bb -> phases + points
//! cbsp perbinary gcc-32o.json                    # classic SimPoint regions
//! cbsp cross gcc --scale ref --out-dir out/      # the full 6-step pipeline
//! cbsp simulate out/gcc-32o.json \
//!      --regions out/gcc-32o.pinpoints.json --full 1
//! ```

#![forbid(unsafe_code)]

mod commands;
mod opts;

use opts::Opts;

const USAGE: &str = "\
cbsp — cross-binary simulation point tools

usage: cbsp <command> [args]

commands:
  list                         list the benchmark suite
  compile <bench>              compile a benchmark to a binary JSON
      [--target 32u|32o|64u|64o] [--scale test|train|ref] [--out FILE]
  inspect <binary.json>        show symbols, loops, and layout
      [--code 1]                 (also print the lowered code)
  hot <binary.json>            hottest procedures by instruction share
      [--scale S] [--top N]
  source <bench>               pseudo-C listing of a benchmark's source
  markers <binary.json>        software-phase-marker analysis
      [--scale S] [--interval N] [--top N]
  profile <binary.json>        collect a fixed-length-interval BBV profile (.bb)
      [--interval N] [--scale S] [--out FILE.bb]
  simpoint <profile.bb>        run SimPoint clustering on a .bb profile
      [--max-k K] [--dims D] [--theta T] [--out FILE.json]
  perbinary <binary.json>      classic per-binary SimPoint -> region file
      [--interval N] [--scale S] [--out FILE]
  cross <bench>                cross-binary pipeline over all four binaries
      [--interval N] [--scale S] [--threads N] [--out-dir DIR]
      [--estimator bbv|bbv+mav|early|stratified]
      [--fuzzy-map[=T]]          similarity fallback when exact marker
                                 mapping fails (acceptance threshold T,
                                 default 0.6; see docs/MAPPING.md)
      [--cache-dir DIR] [--no-cache 1] [--refresh 1]
                                 (each estimator lane caches under its
                                 own store namespace; fuzzy runs cache
                                 under @fuzzy-suffixed namespaces)
  simulate <binary.json>       simulate the regions of a PinPoints file
      --regions FILE [--full 1] [--scale S]
  estimate <bench>             true vs SimPoint-estimated CPI per binary
      [--interval N] [--scale S] [--threads N]
      [--estimator bbv|bbv+mav|early|stratified]
      [--cache-dir DIR] [--no-cache 1] [--refresh 1]
                                 (reads per-simpoint trace slices;
                                 stratified also reports a confidence
                                 half-width)
  cache <stats|gc>             inspect or garbage-collect the artifact
      [--cache-dir DIR]          store (stats splits pipeline stages from the
                                 leases: traces, slices, replays; gc keeps
                                 manifest-referenced stage artifacts and
                                 evicts every lease — rebuilt on next use)
  serve                        run the simulation-point query daemon
      [--addr HOST:PORT] [--threads N] [--max-inflight N]
      [--cache-dir DIR] [--timeout-ms N] [--shard-id N]
                                 (NDJSON over TCP plus GET /healthz and
                                 GET /metrics; see docs/PROTOCOL.md)
      [--cluster N]              route across N spawned workers, each with
                                 its own store shard (digest routing, health
                                 checks, failover; docs/PROTOCOL.md)
      [--shard-map FILE]         adopt externally started workers from a
                                 shard-map JSON file instead of spawning
      [--worker-threads N] [--health-interval-ms N]

observability (any command):
  --trace-out FILE             write a Chrome trace-event JSON of the run
                               (load in chrome://tracing or ui.perfetto.dev)
  --metrics-json FILE          write a flat counters/gauges/span snapshot
";

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let opts = match Opts::parse(args) {
        Ok(o) => o,
        Err(e) => fail(&e),
    };
    opts.enable_tracing();
    let result = match command.as_str() {
        "list" => commands::list(&opts),
        "compile" => commands::compile_cmd(&opts),
        "inspect" => commands::inspect(&opts),
        "hot" => commands::hot(&opts),
        "source" => commands::source(&opts),
        "markers" => commands::markers(&opts),
        "profile" => commands::profile(&opts),
        "simpoint" => commands::simpoint(&opts),
        "perbinary" => commands::perbinary(&opts),
        "cross" => commands::cross(&opts),
        "simulate" => commands::simulate(&opts),
        "estimate" => commands::estimate(&opts),
        "cache" => commands::cache(&opts),
        "serve" => commands::serve(&opts),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}\n\n{USAGE}")),
    };
    if let Err(e) = result.and_then(|()| opts.export_tracing()) {
        fail(&e);
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}
