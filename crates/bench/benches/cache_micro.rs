//! Microbenchmark of the CMP$im-like memory system's replacement
//! policies. The end-to-end benchmark only runs the Table 1 hierarchy
//! (LRU); this group measures FIFO and Random against it on one mixed
//! access stream.

use cbsp_sim::{Hierarchy, MemoryConfig, Replacement};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_replacement_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("replacement");
    const N: u64 = 100_000;
    group.throughput(Throughput::Elements(N));
    for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
        let mut config = MemoryConfig::table1();
        config.replacement = policy;
        group.bench_with_input(
            BenchmarkId::new("mixed", format!("{policy:?}")),
            &config,
            |b, config| {
                b.iter_batched(
                    || Hierarchy::new(config),
                    |mut h| {
                        for i in 0..N {
                            // 2 MB strided walk: exercises every level.
                            h.access((i * 192) % (2 * 1024 * 1024), i % 5 == 0);
                        }
                        black_box(h)
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_replacement_policies);
criterion_main!(benches);
