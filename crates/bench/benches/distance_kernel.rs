//! Distance-kernel microbenchmark: the shipped unrolled kernels over
//! the flat [`VectorSet`] storage.
//!
//! The workload is the clustering hot loop: for every point, distance
//! to every one of `k` centroids, for both the squared-Euclidean kernel
//! (k-means assignment) and the L1 kernel (BIC scoring / diagnostics).

use cbsp_simpoint::{distance_l1, distance_sq, VectorSet};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const K: usize = 16;

/// Deterministic synthetic points (no RNG: keeps runs comparable).
fn synthetic(n: usize, dims: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..dims)
                .map(|j| ((i * 31 + j * 7) % 97) as f64 * 0.25)
                .collect()
        })
        .collect()
}

fn bench_distance_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_kernel");
    for &dims in &[15usize, 64, 240] {
        let flat = VectorSet::from_rows(&synthetic(1024, dims));
        let centroids = VectorSet::from_rows(&synthetic(K, dims));

        group.bench_with_input(BenchmarkId::new("flat_unrolled", dims), &dims, |b, _| {
            b.iter(|| {
                let mut sum = 0.0;
                for v in flat.rows() {
                    for cent in centroids.rows() {
                        sum += distance_sq(v, cent);
                    }
                }
                black_box(sum)
            })
        });
        group.bench_with_input(BenchmarkId::new("l1_unrolled", dims), &dims, |b, _| {
            b.iter(|| {
                let mut sum = 0.0;
                for v in flat.rows() {
                    for cent in centroids.rows() {
                        sum += distance_l1(v, cent);
                    }
                }
                black_box(sum)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_distance_kernel);
criterion_main!(benches);
