//! The `cbsp` subcommands.

use crate::opts::{read_json, write_json, Opts};
use cbsp_core::{
    mapping_stats, marker_period_stats, run_per_binary, select_phase_markers, CbspConfig,
    CrossBinaryResult, PointKind,
};
use cbsp_par::Pool;
use cbsp_profile::{parse_bb, write_bb, PinPointsFile, ProcHotness};
use cbsp_program::{compile, workloads, Binary, CompileTarget, OptLevel, Width};
use cbsp_sim::{estimate_cpi_from_regions, simulate_full, simulate_regions, MemoryConfig};
use cbsp_simpoint::{analyze, EstimatorConfig, SimPointConfig};
use cbsp_store::{ArtifactStore, Orchestrator, Prepared, RunReport, TraceCache};

/// `cbsp list` — the benchmark suite.
pub fn list(_opts: &Opts) -> Result<(), String> {
    println!("available benchmarks ({}):", workloads::suite().len());
    for w in workloads::suite() {
        println!("  {:<10} {}", w.name, w.description);
    }
    println!("\ntargets: 32u 32o 64u 64o   scales: test train ref");
    Ok(())
}

/// Parses the `--estimator` lane flag shared by `cross` and `estimate`.
fn parse_estimator(opts: &Opts) -> Result<EstimatorConfig, String> {
    let tag = opts.flag("estimator").unwrap_or("bbv");
    EstimatorConfig::parse(tag).ok_or_else(|| {
        format!(
            "bad estimator {tag} ({})",
            EstimatorConfig::KNOWN_TAGS.join("|")
        )
    })
}

fn parse_target(s: &str) -> Result<CompileTarget, String> {
    match s {
        "32u" => Ok(CompileTarget::W32_O0),
        "32o" => Ok(CompileTarget::W32_O2),
        "64u" => Ok(CompileTarget::W64_O0),
        "64o" => Ok(CompileTarget::W64_O2),
        other => Err(format!("bad target {other} (32u|32o|64u|64o)")),
    }
}

/// `cbsp compile <benchmark> [--target 32o] [--scale train] [--out F]`
pub fn compile_cmd(opts: &Opts) -> Result<(), String> {
    let name = opts.positional(0, "benchmark name")?;
    let target = parse_target(opts.flag("target").unwrap_or("32o"))?;
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let binary = compile(&workload.build(opts.scale()?), target);
    let out = opts
        .flag("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.json", binary.label()));
    write_json(&out, &binary)?;
    println!(
        "compiled {} -> {} ({} blocks, {} procs, {} loops)",
        binary.label(),
        out,
        binary.blocks.len(),
        binary.procs.len(),
        binary.loops.len()
    );
    Ok(())
}

/// `cbsp inspect <binary.json>` — symbol table, loops, layout.
pub fn inspect(opts: &Opts) -> Result<(), String> {
    let binary: Binary = read_json(opts.positional(0, "binary file")?)?;
    println!("binary {}", binary.label());
    println!(
        "  target: {}-bit, {}",
        match binary.target.width {
            Width::W32 => 32,
            Width::W64 => 64,
        },
        match binary.target.opt {
            OptLevel::O0 => "unoptimized",
            OptLevel::O2 => "optimized",
        }
    );
    let static_instrs: u64 = binary.blocks.iter().map(|b| b.instrs).sum();
    println!(
        "  {} basic blocks ({static_instrs} static instructions), {} arrays",
        binary.blocks.len(),
        binary.layout.arrays.len()
    );
    println!("  procedures:");
    for p in &binary.procs {
        println!("    {} @ {}", p.name, p.line);
    }
    println!("  loops:");
    for (i, l) in binary.loops.iter().enumerate() {
        let line = l
            .line
            .map(|ln| ln.to_string())
            .unwrap_or_else(|| "<no line info>".to_string());
        let proc = &binary.procs[l.proc.index()].name;
        let unroll = if l.unroll > 1 {
            format!(", unrolled x{}", l.unroll)
        } else {
            String::new()
        };
        println!("    L{i} in {proc} @ {line}{unroll}");
    }
    if opts.flag("code").is_some() {
        println!(
            "
{}",
            binary.disassemble()
        );
    }
    Ok(())
}

/// `cbsp profile <binary.json> [--interval N] [--scale S] [--out F.bb]`
pub fn profile(opts: &Opts) -> Result<(), String> {
    let path = opts.positional(0, "binary file")?;
    let binary: Binary = read_json(path)?;
    let interval = opts.flag_or("interval", 100_000u64)?;
    let input = opts.input()?;
    let intervals = cbsp_profile::profile_fli(&binary, &input, interval);
    let out = opts
        .flag("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.bb", binary.label()));
    std::fs::write(&out, write_bb(&intervals)).map_err(|e| format!("writing {out}: {e}"))?;
    let total: u64 = intervals.iter().map(|i| i.instrs).sum();
    println!(
        "profiled {}: {} intervals over {} instructions -> {}",
        binary.label(),
        intervals.len(),
        total,
        out
    );
    Ok(())
}

/// `cbsp simpoint <profile.bb> [--max-k K] [--dims D] [--out F.json]`
pub fn simpoint(opts: &Opts) -> Result<(), String> {
    let path = opts.positional(0, "profile (.bb) file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let intervals = parse_bb(&text).map_err(|e| format!("{path}: {e}"))?;
    if intervals.is_empty() {
        return Err(format!("{path} contains no intervals"));
    }
    let config = SimPointConfig {
        max_k: opts.flag_or("max-k", 10usize)?,
        projection_dims: opts.flag_or("dims", 15usize)?,
        bic_threshold: opts.flag_or("theta", 0.9f64)?,
        ..SimPointConfig::default()
    };
    let vectors: Vec<Vec<f64>> = intervals.iter().map(|i| i.bbv.clone()).collect();
    let instrs: Vec<u64> = intervals.iter().map(|i| i.instrs).collect();
    let result = analyze(&vectors, &instrs, &config);
    println!(
        "{} intervals -> {} phases (BIC over k=1..{}):",
        intervals.len(),
        result.k,
        config.max_k
    );
    println!(
        "{:>6} {:>9} {:>8} {:>12}",
        "phase", "interval", "weight", "variance"
    );
    for p in &result.points {
        println!(
            "{:>6} {:>9} {:>8.4} {:>12.6}",
            p.phase, p.interval, p.weight, p.variance
        );
    }
    if let Some(out) = opts.flag("out") {
        write_json(out, &result)?;
        println!("wrote {out}");
    }
    Ok(())
}

/// The pipeline run `cross` and `estimate` share: through the artifact
/// store at `--cache-dir` (every stage recomputed and written over
/// under `--refresh 1`), returning the store and the run's cache report
/// beside the result. Under `--no-cache 1` it runs
/// [`cbsp_core::run_cross_binary`] and never opens, or creates, the
/// store.
fn run_pipeline(
    opts: &Opts,
    prepared: &Prepared,
    config: &CbspConfig,
    description: &str,
) -> Result<(CrossBinaryResult, Option<(ArtifactStore, RunReport)>), String> {
    let Some(policy) = opts.cache_policy()? else {
        let result = cbsp_core::run_cross_binary(&prepared.refs(), prepared.input(), config)
            .map_err(|e| e.to_string())?;
        return Ok((result, None));
    };
    let store = ArtifactStore::open(opts.cache_dir()).map_err(|e| e.to_string())?;
    let (result, report) = Orchestrator::new(&store, policy)
        .run_prepared(prepared, config, description)
        .map_err(|e| e.to_string())?;
    Ok((result, Some((store, report))))
}

/// `cbsp cross <benchmark> [--interval N] [--scale S] [--threads N]
/// [--estimator bbv|bbv+mav|early|stratified] [--fuzzy-map[=T]]
/// [--out-dir D] [--cache-dir D] [--no-cache 1] [--refresh 1]` — the
/// full six-step pipeline; writes the four binaries and their
/// PinPoints region files. Stages are served from the
/// content-addressed artifact store when their inputs are unchanged —
/// each estimator lane caches under its own namespace, so lanes never
/// collide, and `--fuzzy-map` runs under `@fuzzy`-suffixed namespaces
/// so it can never poison an exact lane. `--threads` sizes the shared
/// pool (0 = one per core); output is bit-identical at every setting.
pub fn cross(opts: &Opts) -> Result<(), String> {
    let name = opts.positional(0, "benchmark name")?;
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let scale = opts.scale()?;
    let estimator = parse_estimator(opts)?;
    let config = CbspConfig {
        interval_target: opts.flag_or("interval", 100_000u64)?,
        estimator,
        fuzzy: opts.fuzzy()?,
        simpoint: SimPointConfig {
            threads: opts.threads()?,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    let out_dir = opts.flag("out-dir").unwrap_or(".");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {out_dir}: {e}"))?;

    let prepared = Prepared::of(&workload, scale);
    let mut description = if config.estimator.is_default() {
        format!(
            "cross {name} scale={scale:?} interval={}",
            config.interval_target
        )
    } else {
        format!(
            "cross {name} scale={scale:?} interval={} estimator={}",
            config.interval_target,
            config.estimator.tag()
        )
    };
    if let Some(fuzzy) = &config.fuzzy {
        description.push_str(&format!(" fuzzy-map={}", fuzzy.threshold));
    }
    let (result, cached) = run_pipeline(opts, &prepared, &config, &description)?;
    match cached {
        None => println!("cache: bypassed (--no-cache)"),
        Some((_, report)) => {
            let summary: Vec<String> = report
                .stage_summary()
                .iter()
                .map(|(stage, hits, total)| format!("{stage} {hits}/{total}"))
                .collect();
            println!(
                "cache: {} of {} stage executions served from {} ({})",
                report.hits(),
                report.outcomes.len(),
                opts.cache_dir(),
                summary.join(", ")
            );
        }
    }

    println!(
        "{name}: {} mappable points ({} proc entries, {} loop entries, {} loop bodies; {} procedures recovered)",
        result.mappable.points.len(),
        result.mappable.of_kind(PointKind::ProcEntry).count(),
        result.mappable.of_kind(PointKind::LoopEntry).count(),
        result.mappable.of_kind(PointKind::LoopBody).count(),
        result.recovered_procs,
    );
    println!(
        "marker density: {:.1} mappable executions per target interval{}",
        result
            .mappable
            .density(result.vli.total_instrs(), config.interval_target),
        if result
            .mappable
            .density(result.vli.total_instrs(), config.interval_target)
            < 2.0
        {
            "  (LOW: expect oversized intervals)"
        } else {
            ""
        }
    );
    println!(
        "{} intervals (avg {:.0} instructions), {} phases{}",
        result.interval_count(),
        result.vli.average_interval_size(),
        result.simpoint.k,
        if config.estimator.is_default() {
            String::new()
        } else {
            format!(
                ", {} points (estimator {})",
                result.simpoint.points.len(),
                config.estimator.tag()
            )
        }
    );
    if let Some(fuzzy) = &config.fuzzy {
        let stats = mapping_stats(&result.mappings);
        println!(
            "fuzzy mapping (threshold {}): {} exact, {} fuzzy (mean confidence {:.3}), \
             {} unmapped — {:.0}% of simpoints mapped",
            fuzzy.threshold,
            stats.exact,
            stats.fuzzy,
            stats.mean_confidence,
            stats.unmapped,
            stats.mapped_fraction() * 100.0
        );
    }
    for (b, bin) in prepared.binaries().iter().enumerate() {
        let bin_path = format!("{out_dir}/{}.json", bin.label());
        write_json(&bin_path, bin)?;
        let pp = result.pinpoints_for(b, bin, prepared.input());
        let pp_path = format!("{out_dir}/{}.pinpoints.json", bin.label());
        write_json(&pp_path, &pp)?;
        println!("  {} -> {bin_path}, {pp_path}", bin.label());
    }
    Ok(())
}

/// `cbsp markers <binary.json> [--scale S] [--interval N] [--top N]` —
/// software-phase-marker analysis (period regularity per marker).
pub fn markers(opts: &Opts) -> Result<(), String> {
    let binary: Binary = read_json(opts.positional(0, "binary file")?)?;
    let input = opts.input()?;
    let target = opts.flag_or("interval", 100_000u64)?;
    let top = opts.flag_or("top", 10usize)?;
    let stats = marker_period_stats(&binary, &input);
    let picked = select_phase_markers(&stats, target / 2, 20.0, 0.5);
    println!(
        "{}: {} markers profiled, {} phase-marker candidates near {} instructions",
        binary.label(),
        stats.len(),
        picked.len(),
        target
    );
    println!(
        "{:<16} {:<20} {:>8} {:>14} {:>8}",
        "marker", "construct", "execs", "mean period", "CV"
    );
    for s in picked.iter().take(top) {
        let construct = match s.marker {
            cbsp_profile::MarkerRef::Proc(i) => {
                format!("proc {}", binary.procs[i as usize].name)
            }
            cbsp_profile::MarkerRef::LoopEntry(i) => {
                let l = &binary.loops[i as usize];
                format!("loop in {}", binary.procs[l.proc.index()].name)
            }
            cbsp_profile::MarkerRef::LoopBack(i) => format!("loop-body #{i}"),
        };
        println!(
            "{:<16} {:<20} {:>8} {:>14.0} {:>8.3}",
            s.marker.to_string(),
            construct,
            s.execs,
            s.mean_period,
            s.cv
        );
    }
    Ok(())
}

/// `cbsp source <benchmark> [--scale S]` — pseudo-C source listing.
pub fn source(opts: &Opts) -> Result<(), String> {
    let name = opts.positional(0, "benchmark name")?;
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    print!("{}", workload.build(opts.scale()?));
    Ok(())
}

/// `cbsp hot <binary.json> [--scale S] [--top N]` — hottest procedures.
pub fn hot(opts: &Opts) -> Result<(), String> {
    let binary: Binary = read_json(opts.positional(0, "binary file")?)?;
    let input = opts.input()?;
    let top = opts.flag_or("top", 10usize)?;
    let h = ProcHotness::collect(&binary, &input);
    println!(
        "{} on {} input: {} instructions",
        binary.label(),
        input.name,
        h.total
    );
    println!("{:<24} {:>14} {:>8}", "procedure", "instructions", "share");
    for (proc, instrs, frac) in h.ranking().into_iter().take(top) {
        if instrs == 0 {
            break;
        }
        println!(
            "{:<24} {:>14} {:>7.2}%",
            binary.procs[proc.index()].name,
            instrs,
            100.0 * frac
        );
    }
    Ok(())
}

/// `cbsp simulate <binary.json> --regions <pp.json> [--full] [--scale S]`
pub fn simulate(opts: &Opts) -> Result<(), String> {
    let binary: Binary = read_json(opts.positional(0, "binary file")?)?;
    let regions_path = opts
        .flag("regions")
        .ok_or("missing --regions <pinpoints.json>")?;
    let file: PinPointsFile = read_json(regions_path)?;
    file.validate()?;
    let input = opts.input()?;
    let mem = MemoryConfig::table1();

    let regions = simulate_regions(&binary, &input, &mem, &file);
    println!(
        "{:>6} {:>8} {:>12} {:>10} {:>8}",
        "phase", "weight", "instructions", "CPI", "reached"
    );
    for r in &regions {
        println!(
            "{:>6} {:>8.4} {:>12} {:>10.3} {:>8}",
            r.phase,
            r.weight,
            r.stats.instructions,
            r.stats.cpi(),
            r.reached
        );
    }
    let est = estimate_cpi_from_regions(&regions);
    println!("estimated whole-program CPI: {est:.4}");

    if opts.flag("full").is_some() {
        let full = simulate_full(&binary, &input, &mem);
        let err = 100.0 * (full.cpi() - est).abs() / full.cpi();
        println!(
            "true whole-program CPI:      {:.4}  (estimate error {err:.2}%)",
            full.cpi()
        );
        println!("full-simulation detail:\n{full}");
    }
    Ok(())
}

/// `cbsp perbinary <binary.json> [--interval N] [--scale S] [--out F]` —
/// the classic per-binary SimPoint baseline, producing a region file.
pub fn perbinary(opts: &Opts) -> Result<(), String> {
    let binary: Binary = read_json(opts.positional(0, "binary file")?)?;
    let interval = opts.flag_or("interval", 100_000u64)?;
    let input = opts.input()?;
    let analysis = run_per_binary(&binary, &input, interval, &SimPointConfig::default());
    println!(
        "{}: {} intervals -> {} phases",
        binary.label(),
        analysis.interval_count(),
        analysis.simpoint.k
    );
    let pp = analysis.pinpoints(&binary, &input);
    let out = opts
        .flag("out")
        .map(str::to_string)
        .unwrap_or_else(|| format!("{}.pinpoints.json", binary.label()));
    write_json(&out, &pp)?;
    println!("wrote {out}");
    Ok(())
}

/// `cbsp estimate <benchmark> [--interval N] [--scale S] [--threads N]
/// [--estimator bbv|bbv+mav|early|stratified] [--cache-dir D]
/// [--no-cache 1] [--refresh 1]` — true vs SimPoint-estimated CPI for
/// all four binaries. The pipeline stages come from the artifact store
/// like `cbsp cross`; the CPI side reads the replay lease of the
/// binaries' detailed simulations at Table 1 and the run's interval —
/// the lease an `experiments` evaluation of the same benchmark, scale
/// and interval writes — so a warm run reads one blob and simulates
/// nothing (DESIGN.md "Replay leases"). The stratified lane
/// additionally reports a confidence half-width per binary (zero for
/// single-representative lanes by construction).
pub fn estimate(opts: &Opts) -> Result<(), String> {
    let name = opts.positional(0, "benchmark name")?;
    let workload = workloads::by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let scale = opts.scale()?;
    let estimator = parse_estimator(opts)?;
    let config = CbspConfig {
        interval_target: opts.flag_or("interval", 100_000u64)?,
        estimator,
        simpoint: SimPointConfig {
            threads: opts.threads()?,
            ..SimPointConfig::default()
        },
        ..CbspConfig::default()
    };
    let prepared = Prepared::of(&workload, scale);
    let description = format!("estimate {name} scale={scale:?}");
    let (result, cached) = run_pipeline(opts, &prepared, &config, &description)?;
    // Under `--no-cache 1` the binaries are simulated in memory too.
    let estimates = TraceCache::new(cached.as_ref().map(|(store, _)| store))
        .estimate_cpi(
            &prepared,
            &MemoryConfig::default(),
            &result,
            config.interval_target,
            &Pool::new(config.simpoint.threads),
        )
        .map_err(|e| e.to_string())?;
    println!(
        "{name}: {} intervals, {} phases, {} simulation points (estimator {})",
        result.interval_count(),
        result.simpoint.k,
        result.simpoint.points.len(),
        config.estimator.tag()
    );
    println!(
        "{:<10} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "binary", "instructions", "true CPI", "estimated", "rel error", "CI ±"
    );
    for (bin, est) in prepared.binaries().iter().zip(estimates) {
        let rel = if est.true_cpi > 0.0 {
            (est.estimated_cpi - est.true_cpi).abs() / est.true_cpi
        } else {
            0.0
        };
        println!(
            "{:<10} {:>12} {:>10.4} {:>12.4} {:>9.2}% {:>10.4}",
            bin.label(),
            est.instructions,
            est.true_cpi,
            est.estimated_cpi,
            100.0 * rel,
            est.ci_half
        );
    }
    Ok(())
}

/// `cbsp cache <stats|gc> [--cache-dir D]` — inspect or
/// garbage-collect the content-addressed artifact store.
///
/// The store holds pipeline stage artifacts (referenced by run
/// manifests) and leases ([`cbsp_store::LEASE_STAGES`]), which no run
/// manifest references: the detailed simulations that experiment
/// evaluations and `cbsp estimate` read under `replay`, the per-binary
/// FLI clusterings of experiment evaluations under `fli`, and
/// per-simpoint slice manifests under `trace_slice` and whole recorded
/// traces under `trace`, which only older versions and the benchmark's
/// probes write. `stats` reports each population separately; `gc` keeps
/// manifest-referenced artifacts and evicts every lease — replay leases
/// are re-simulated and FLI leases re-clustered on next use, and
/// nothing outside the benchmark reads slices or whole traces back.
pub fn cache(opts: &Opts) -> Result<(), String> {
    let action = opts.positional(0, "cache action (stats|gc)")?;
    let store = ArtifactStore::open(opts.cache_dir()).map_err(|e| e.to_string())?;
    match action {
        "stats" => {
            let stats = store.stats().map_err(|e| e.to_string())?;
            println!(
                "store {}: {} artifacts, {} bytes, {} manifests",
                opts.cache_dir(),
                stats.artifacts,
                stats.bytes,
                stats.manifests
            );
            let pipeline = stats.pipeline();
            println!(
                "  pipeline stages: {} artifacts, {} bytes",
                pipeline.artifacts, pipeline.bytes
            );
            let traces = stats.stage(cbsp_store::TRACE_STAGE);
            let slices = stats.stage(cbsp_store::TRACE_SLICE_STAGE);
            let replays = stats.stage(cbsp_store::REPLAY_STAGE);
            let fli = stats.stage(cbsp_store::FLI_STAGE);
            println!(
                "  trace cache:     {} artifacts, {} bytes (evicted by gc, unused by evaluations)",
                traces.artifacts, traces.bytes
            );
            println!(
                "  sliced traces:   {} artifacts, {} bytes (evicted by gc, unused by estimates)",
                slices.artifacts, slices.bytes
            );
            println!(
                "  replay leases:   {} artifacts, {} bytes (evicted by gc, re-simulated on use)",
                replays.artifacts, replays.bytes
            );
            println!(
                "  FLI leases:      {} artifacts, {} bytes (evicted by gc, re-clustered on use)",
                fli.artifacts, fli.bytes
            );
            for (stage, s) in &stats.per_stage {
                println!("  {stage:<10} {} artifacts, {} bytes", s.artifacts, s.bytes);
            }
            // Lane breakdown: non-default estimator lanes cache their
            // stages under `stage@tag` namespaces (see
            // cbsp_store::stage_namespaces); plain pipeline stages
            // belong to the default `bbv` lane (profile/mappable are
            // shared by every lane and counted there).
            let mut lanes: std::collections::BTreeMap<&str, cbsp_store::StageStats> =
                std::collections::BTreeMap::new();
            for (stage, s) in &stats.per_stage {
                if cbsp_store::LEASE_STAGES.contains(&stage.as_str()) {
                    continue;
                }
                let lane = match stage.split_once('@') {
                    Some((_, tag)) => tag,
                    None => "bbv",
                };
                let entry = lanes.entry(lane).or_default();
                entry.artifacts += s.artifacts;
                entry.bytes += s.bytes;
            }
            println!("  by estimator lane:");
            for (lane, s) in &lanes {
                println!(
                    "    {lane:<14} {} artifacts, {} bytes",
                    s.artifacts, s.bytes
                );
            }
            for manifest in store.manifests().map_err(|e| e.to_string())? {
                let hits = manifest.stages.iter().filter(|s| s.hit).count();
                println!(
                    "  run {}  {}  ({hits}/{} stage executions from cache)",
                    &manifest.run_key[..12.min(manifest.run_key.len())],
                    manifest.description,
                    manifest.stages.len()
                );
            }
            Ok(())
        }
        "gc" => {
            let report = store.gc().map_err(|e| e.to_string())?;
            println!(
                "gc {}: removed {} artifacts ({} bytes), kept {}",
                opts.cache_dir(),
                report.removed,
                report.reclaimed_bytes,
                report.kept
            );
            println!(
                "note: removal includes every lease — recorded traces, sliced traces, replay \
                 leases and FLI leases (no manifest references them); replay leases are \
                 re-simulated and FLI leases re-clustered on next use"
            );
            Ok(())
        }
        other => Err(format!("unknown cache action {other} (stats|gc)")),
    }
}

/// `cbsp serve [--addr A] [--threads N] [--max-inflight N]
/// [--cache-dir D] [--timeout-ms N]` — run the query daemon.
///
/// Serves the pipeline from warm state (store handle, each benchmark's
/// binaries, completed runs and their estimates) over
/// newline-delimited JSON on TCP, with `GET /healthz` and
/// `GET /metrics` answered on the same port. Blocks until a client
/// sends `server.shutdown`, then drains admitted work and exits. See
/// `docs/PROTOCOL.md` for the wire format.
pub fn serve(opts: &Opts) -> Result<(), String> {
    let config = cbsp_serve::ServeConfig {
        addr: opts.flag("addr").unwrap_or("127.0.0.1:4650").to_string(),
        threads: opts.threads()?,
        max_inflight: opts.flag_or("max-inflight", 64usize)?,
        cache_dir: std::path::PathBuf::from(opts.cache_dir()),
        default_timeout_ms: opts.flag_or("timeout-ms", 30_000u64)?,
        ..cbsp_serve::ServeConfig::default()
    };
    if config.max_inflight == 0 {
        return Err("--max-inflight must be > 0".into());
    }
    let server = cbsp_serve::Server::start(config)?;
    println!("cbsp-serve listening on {}", server.addr());
    println!("  NDJSON protocol + GET /healthz, GET /metrics (docs/PROTOCOL.md)");
    println!("  stop with: {{\"method\":\"server.shutdown\"}}");
    server.wait()?;
    println!("drained; bye");
    Ok(())
}
