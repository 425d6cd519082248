//! Benchmarks of the pipeline's consumers that the end-to-end
//! benchmark never runs: region simulation from a PinPoints file (the
//! `cbsp simulate` path) and `.bb` file writing and parsing.

use cbsp_core::{run_cross_binary, CbspConfig};
use cbsp_profile::{parse_bb, profile_fli, write_bb};
use cbsp_program::{compile, workloads, Binary, CompileTarget, Input, Scale};
use cbsp_sim::{simulate_regions, MemoryConfig};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_region_sim_and_bbfile(c: &mut Criterion) {
    let prog = workloads::by_name("swim")
        .expect("in suite")
        .build(Scale::Test);
    let input = Input::test();
    let binaries: Vec<Binary> = CompileTarget::ALL_FOUR
        .iter()
        .map(|&t| compile(&prog, t))
        .collect();
    let config = CbspConfig {
        interval_target: 20_000,
        ..CbspConfig::default()
    };
    let result = run_cross_binary(&binaries.iter().collect::<Vec<&Binary>>(), &input, &config)
        .expect("pipeline runs");
    let file = result.pinpoints_for(1, &binaries[1], &input);

    let mut group = c.benchmark_group("consumers");
    group.sample_size(10);
    group.bench_function("region_simulation", |b| {
        b.iter(|| {
            black_box(simulate_regions(
                &binaries[1],
                &input,
                &MemoryConfig::table1(),
                &file,
            ))
        })
    });

    let intervals = profile_fli(&binaries[0], &input, 20_000);
    let text = write_bb(&intervals);
    group.bench_function("bb_write", |b| b.iter(|| black_box(write_bb(&intervals))));
    group.bench_function("bb_parse", |b| {
        b.iter(|| black_box(parse_bb(&text).expect("parses")))
    });
    group.finish();
}

criterion_group!(benches, bench_region_sim_and_bbfile);
criterion_main!(benches);
