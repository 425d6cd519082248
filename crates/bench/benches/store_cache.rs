//! Cold vs. warm pipeline runs through the artifact store: how much
//! wall-clock a populated cache saves, and what the store machinery
//! itself (hashing, serialization, checksumming) costs on a hit.

use cbsp_core::CbspConfig;
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_store::{ArtifactStore, CachePolicy, Orchestrator, TraceCache};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::path::PathBuf;

fn setup(name: &str) -> (Vec<Binary>, Input, CbspConfig) {
    let prog = workloads::by_name(name)
        .expect("in suite")
        .build(Scale::Test);
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    let config = CbspConfig {
        interval_target: 20_000,
        ..CbspConfig::default()
    };
    (binaries, Input::test(), config)
}

fn temp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cbsp-bench-store-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).expect("store opens");
    (store, dir)
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    for name in ["gzip", "gcc"] {
        let (binaries, input, config) = setup(name);
        let bin_refs: Vec<&Binary> = binaries.iter().collect();

        // Cold: every iteration recomputes all five stages (Refresh
        // overwrites, so the store never serves a hit).
        let (store, dir) = temp_store(&format!("cold-{name}"));
        let orchestrator = Orchestrator::new(&store, CachePolicy::Refresh);
        group.bench_with_input(BenchmarkId::new("cold_run", name), &name, |b, _| {
            b.iter(|| {
                black_box(
                    orchestrator
                        .run_cross_binary(&bin_refs, &input, &config, "bench cold")
                        .expect("pipeline runs"),
                )
            })
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Warm: one priming run, then every stage is a cache hit.
        let (store, dir) = temp_store(&format!("warm-{name}"));
        let orchestrator = Orchestrator::new(&store, CachePolicy::ReadWrite);
        let (_, report) = orchestrator
            .run_cross_binary(&bin_refs, &input, &config, "bench prime")
            .expect("pipeline runs");
        assert_eq!(report.hits(), 0, "priming run starts cold");
        group.bench_with_input(BenchmarkId::new("warm_run", name), &name, |b, _| {
            b.iter(|| {
                let (result, report) = orchestrator
                    .run_cross_binary(&bin_refs, &input, &config, "bench warm")
                    .expect("pipeline runs");
                assert_eq!(report.misses(), 0, "warm run is fully cached");
                black_box(result)
            })
        });
        let _ = std::fs::remove_dir_all(&dir);

        // Baseline: the pipeline with the store bypassed entirely.
        let (store, dir) = temp_store(&format!("bypass-{name}"));
        let orchestrator = Orchestrator::new(&store, CachePolicy::Bypass);
        group.bench_with_input(BenchmarkId::new("no_store", name), &name, |b, _| {
            b.iter(|| {
                black_box(
                    orchestrator
                        .run_cross_binary(&bin_refs, &input, &config, "bench bypass")
                        .expect("pipeline runs"),
                )
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

/// The cold-process trace read path: each iteration builds a fresh
/// trace cache (empty memory tier) over a primed store and loads all
/// four recorded binaries' traces from the blob tier (header check,
/// checksum pass, bytes adopted verbatim).
fn bench_blob_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    for name in ["gzip", "gcc"] {
        let (binaries, input, _) = setup(name);

        let (store, dir) = temp_store(&format!("blob-cold-{name}"));
        let primer = TraceCache::new(Some(&store));
        for bin in &binaries {
            primer.get_or_record(bin, &input).expect("store usable");
        }
        group.bench_with_input(BenchmarkId::new("blob_cold", name), &name, |b, _| {
            b.iter(|| {
                let cache = TraceCache::new(Some(&store));
                for bin in &binaries {
                    black_box(cache.get_or_record(bin, &input).expect("store usable"));
                }
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_cold_vs_warm, bench_blob_cold);
criterion_main!(benches);
