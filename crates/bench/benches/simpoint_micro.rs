//! Microbenchmark of the two k-means engines head to head: Hamerly's
//! bounds-accelerated k-means against plain Lloyd iteration, from the
//! same initial centres. The end-to-end benchmark only runs the engine
//! the default configuration picks.

use cbsp_simpoint::{kmeans, kmeans_hamerly_from, Pool, Projection, VectorSet};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

/// Synthetic BBVs over `dims` blocks in `phases` phases, projected to
/// SimPoint's 15 dimensions, with equal weights.
fn projected(n: usize, dims: usize, phases: usize) -> (VectorSet, Vec<f64>) {
    let mut vectors = Vec::with_capacity(n);
    for i in 0..n {
        let p = i % phases;
        let mut v = vec![0.0; dims];
        let base = (p * dims / phases) % dims;
        for j in 0..(dims / phases).max(1) {
            v[base + j] = 100.0 + ((i * 7 + j * 3) % 13) as f64;
        }
        vectors.push(v);
    }
    let p = Projection::new(1, 15);
    let data = p.project_all(&VectorSet::from_rows(&vectors), &Pool::serial());
    (data, vec![100_000.0; n])
}

fn bench_hamerly_vs_lloyd(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_engines");
    for &n in &[400usize, 1600] {
        let (data, weights) = projected(n, 240, 6);
        let mut init = VectorSet::new(data.dims());
        for i in 0..8 {
            init.push(data.row(i * n / 8));
        }
        group.bench_with_input(BenchmarkId::new("lloyd_k8", n), &n, |b, _| {
            b.iter(|| black_box(kmeans(&data, &weights, 8, 3, 100)))
        });
        group.bench_with_input(BenchmarkId::new("hamerly_k8", n), &n, |b, _| {
            b.iter(|| black_box(kmeans_hamerly_from(&data, &weights, init.clone(), 100)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_hamerly_vs_lloyd);
criterion_main!(benches);
