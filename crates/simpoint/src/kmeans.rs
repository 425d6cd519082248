//! Weighted k-means with k-means++ seeding (paper §2.3 step 3).
//!
//! SimPoint 3.0 clusters projected interval vectors with k-means; in
//! VLI mode each vector carries a weight proportional to the
//! instructions its interval spans, so long intervals pull centroids
//! harder than short ones ("considers the number of instructions in
//! each interval during the clustering process", §3.2.4).
//!
//! ## Order of summation
//!
//! Each Lloyd iteration is one fused assignment-and-partial-sum pass
//! over fixed [`LLOYD_CHUNK`]-point chunks of the data: every chunk
//! sums its own weighted centroid coordinates and masses from zero, and
//! the chunk partials are then added *in chunk order*. The final WCSS
//! is summed the same way. A plain running sum over all points would
//! associate the floating-point additions differently, and every stored
//! clustering and `results_ref.json` were computed with this chunked
//! order, so it stays even though the pass is serial: the
//! parallelism of an analysis is its k×restart grid
//! ([`analyze`](crate::analyze)), one serial `kmeans` per cell.

use crate::vector::{distance_sq, VectorSet};
use cbsp_par::chunk_ranges;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Points per Lloyd chunk. Fixed: the chunking sets the order of every
/// floating-point sum, and so every f64 result (see the module docs).
pub const LLOYD_CHUNK: usize = 256;

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centroids, `k` of them.
    pub centroids: VectorSet,
    /// Cluster label per input vector.
    pub labels: Vec<u32>,
    /// Weighted within-cluster sum of squared distances.
    pub wcss: f64,
    /// Lloyd iterations executed before convergence (or the cap).
    pub iterations: usize,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }
}

/// Runs weighted k-means on `data`.
///
/// `weights[i]` scales vector `i`'s influence on centroids and on the
/// objective. `seed` fixes the k-means++ initialization. Runs Lloyd
/// iterations until assignments stabilize or `max_iters` is reached.
///
/// # Panics
///
/// Panics if `data` is empty, `k` is zero or exceeds `data.len()`,
/// `weights.len() != data.len()`, or any weight is negative or
/// non-finite.
pub fn kmeans(
    data: &VectorSet,
    weights: &[f64],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> KMeansResult {
    assert!(!data.is_empty(), "kmeans needs at least one vector");
    assert!(
        k >= 1 && k <= data.len(),
        "k={k} out of range for {} vectors",
        data.len()
    );
    assert_eq!(weights.len(), data.len(), "one weight per vector");
    assert!(
        weights.iter().all(|w| w.is_finite() && *w >= 0.0),
        "weights must be finite and non-negative"
    );
    let n = data.len();
    let dims = data.dims();

    let mut centroids = plus_plus_init(data, weights, k, seed);
    let mut labels = vec![0u32; n];
    let mut iterations = 0;
    // One chunk's partial sums, reset per chunk.
    let mut part_sums = vec![0.0; k * dims];
    let mut part_mass = vec![0.0; k];

    for iter in 0..max_iters.max(1) {
        iterations = iter + 1;

        // Fused assignment + update accumulation, chunk by chunk; each
        // chunk's partial sums are added to the totals in chunk order.
        let mut changed = false;
        let mut sums = vec![0.0; k * dims];
        let mut mass = vec![0.0; k];
        for range in chunk_ranges(n, LLOYD_CHUNK) {
            part_sums.fill(0.0);
            part_mass.fill(0.0);
            for i in range {
                let v = data.row(i);
                let best = nearest(v, &centroids).0;
                if labels[i] != best as u32 {
                    changed = true;
                    labels[i] = best as u32;
                }
                part_mass[best] += weights[i];
                let sum = &mut part_sums[best * dims..(best + 1) * dims];
                for (s, x) in sum.iter_mut().zip(v) {
                    *s += weights[i] * x;
                }
            }
            for (s, p) in sums.iter_mut().zip(&part_sums) {
                *s += p;
            }
            for (m, p) in mass.iter_mut().zip(&part_mass) {
                *m += p;
            }
        }
        if !changed && iter > 0 {
            break;
        }

        // Update step (weighted means); clusters with zero mass keep
        // their centroid until repair below.
        for (c, &m) in mass.iter().enumerate() {
            if m > 0.0 {
                let sum = &sums[c * dims..(c + 1) * dims];
                for (out, s) in centroids.row_mut(c).iter_mut().zip(sum) {
                    *out = s / m;
                }
            }
        }
        // Empty clusters: reseed to the point farthest from its own
        // (new) centroid — standard k-means repair, in cluster order so
        // it is deterministic.
        for (c, &m) in mass.iter().enumerate() {
            if m <= 0.0 {
                let far = (0..n)
                    .max_by(|&i, &j| {
                        let a = distance_sq(data.row(i), centroids.row(labels[i] as usize));
                        let b = distance_sq(data.row(j), centroids.row(labels[j] as usize));
                        a.partial_cmp(&b).expect("distances are finite")
                    })
                    .expect("data nonempty");
                centroids.row_mut(c).copy_from_slice(data.row(far));
            }
        }
    }

    let wcss = chunk_ranges(n, LLOYD_CHUNK)
        .map(|range| {
            range
                .map(|i| weights[i] * distance_sq(data.row(i), centroids.row(labels[i] as usize)))
                .fold(0.0f64, |a, b| a + b)
        })
        .reduce(|a, b| a + b)
        .unwrap_or(0.0);
    KMeansResult {
        centroids,
        labels,
        wcss,
        iterations,
    }
}

/// Index and squared distance of the centroid nearest to `v`.
#[inline]
fn nearest(v: &[f64], centroids: &VectorSet) -> (usize, f64) {
    let mut best = (0, f64::INFINITY);
    for (c, centroid) in centroids.rows().enumerate() {
        let d = distance_sq(v, centroid);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// k-means++ seeding: the first centroid is weight-proportionally
/// random; each next centroid is chosen with probability proportional
/// to `weight × distance²` from the nearest already-chosen centroid.
///
/// Degenerate distributions are well-defined: whenever the score mass
/// is zero (all-zero weights, or every point coinciding with a chosen
/// centroid — duplicate vectors), the draw falls back to a uniform
/// choice over all points (see `sample_index`'s contract, covered by
/// this module's tests). Inputs are [`kmeans`]'s, already checked.
fn plus_plus_init(data: &VectorSet, weights: &[f64], k: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut centroids = VectorSet::with_capacity(data.dims(), k);

    let total_w: f64 = weights.iter().sum();
    let first = sample_index(&mut rng, weights, total_w);
    centroids.push(data.row(first));

    let mut dist: Vec<f64> = data
        .rows()
        .map(|v| distance_sq(v, centroids.row(0)))
        .collect();
    while centroids.len() < k {
        let scores: Vec<f64> = dist.iter().zip(weights).map(|(d, w)| d * w).collect();
        let total: f64 = scores.iter().sum();
        let next = sample_index(&mut rng, &scores, total);
        centroids.push(data.row(next));
        let newest = centroids.row(centroids.len() - 1);
        for (d, v) in dist.iter_mut().zip(data.rows()) {
            let nd = distance_sq(v, newest);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// Draws an index with probability proportional to `scores`.
///
/// Contract (the k-means++ degenerate-distribution audit):
/// * `total > 0` and finite: returns an index whose score is strictly
///   positive — a zero-score entry is never selected, even when the
///   running subtraction lands on one through floating-point error or a
///   zero-score tail.
/// * `total <= 0` or non-finite (all-zero scores): falls back to a
///   uniform draw over all indices, so the choice stays seeded-random
///   and well-defined rather than silently collapsing to index 0.
///
/// # Panics
///
/// Panics if `scores` is empty.
fn sample_index(rng: &mut StdRng, scores: &[f64], total: f64) -> usize {
    assert!(
        !scores.is_empty(),
        "cannot sample from an empty distribution"
    );
    if !(total > 0.0 && total.is_finite()) {
        return rng.gen_range(0..scores.len());
    }
    let mut t = rng.gen_range(0.0..total);
    let mut last_positive = None;
    for (i, &s) in scores.iter().enumerate() {
        if s > 0.0 {
            last_positive = Some(i);
            t -= s;
            if t <= 0.0 {
                return i;
            }
        }
    }
    last_positive.expect("positive total implies a positive score")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> (VectorSet, Vec<f64>) {
        let mut data = VectorSet::new(2);
        for i in 0..10 {
            data.push(&[0.0 + (i as f64) * 0.01, 0.0]);
            data.push(&[10.0 + (i as f64) * 0.01, 10.0]);
        }
        let weights = vec![1.0; data.len()];
        (data, weights)
    }

    #[test]
    fn separates_two_obvious_blobs() {
        let (data, weights) = two_blobs();
        let r = kmeans(&data, &weights, 2, 1, 100);
        assert_eq!(r.k(), 2);
        // All even indices (blob A) share a label; odd (blob B) share
        // the other.
        let a = r.labels[0];
        let b = r.labels[1];
        assert_ne!(a, b);
        for i in 0..data.len() {
            assert_eq!(r.labels[i], if i % 2 == 0 { a } else { b });
        }
        assert!(r.wcss < 1.0, "tight blobs: wcss = {}", r.wcss);
    }

    #[test]
    fn k_equals_one_gives_weighted_mean() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![10.0]]);
        let weights = vec![3.0, 1.0];
        let r = kmeans(&data, &weights, 1, 0, 50);
        assert!(
            (r.centroids.row(0)[0] - 2.5).abs() < 1e-9,
            "weighted mean 2.5"
        );
    }

    #[test]
    fn heavy_weight_pulls_the_centroid() {
        let data = VectorSet::from_rows(&[vec![0.0], vec![1.0], vec![100.0]]);
        let light = kmeans(&data, &[1.0, 1.0, 1.0], 1, 0, 50).centroids.row(0)[0];
        let heavy = kmeans(&data, &[1.0, 1.0, 10.0], 1, 0, 50).centroids.row(0)[0];
        assert!(heavy > light);
    }

    #[test]
    fn k_equals_n_gives_zero_wcss() {
        let (data, weights) = two_blobs();
        let r = kmeans(&data, &weights, data.len(), 5, 100);
        assert!(r.wcss < 1e-18);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (data, weights) = two_blobs();
        let a = kmeans(&data, &weights, 3, 9, 100);
        let b = kmeans(&data, &weights, 3, 9, 100);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.wcss, b.wcss);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn k_larger_than_n_panics() {
        let data = VectorSet::from_rows(&[vec![1.0]]);
        let _ = kmeans(&data, &[1.0], 2, 0, 10);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weights_panic() {
        let data = VectorSet::from_rows(&[vec![1.0], vec![2.0]]);
        let _ = kmeans(&data, &[1.0, -1.0], 1, 0, 10);
    }

    #[test]
    fn identical_points_do_not_crash() {
        let data = VectorSet::from_rows(&vec![vec![5.0, 5.0]; 8]);
        let r = kmeans(&data, &[1.0; 8], 3, 2, 50);
        assert_eq!(r.labels.len(), 8);
        assert!(r.wcss < 1e-18);
    }

    #[test]
    fn all_zero_weights_are_well_defined() {
        // Zero total mass degenerates every k-means++ draw and every
        // centroid update; the run must still produce a valid labelling
        // deterministically.
        let data = VectorSet::from_rows(&[vec![0.0, 0.0], vec![5.0, 0.0], vec![0.0, 5.0]]);
        let weights = [0.0; 3];
        let a = kmeans(&data, &weights, 2, 7, 50);
        let b = kmeans(&data, &weights, 2, 7, 50);
        assert_eq!(a, b, "deterministic under zero weights");
        assert_eq!(a.labels.len(), 3);
        assert!(a.labels.iter().all(|&l| (l as usize) < 2));
        assert_eq!(a.wcss, 0.0, "zero weights make the objective zero");
        assert!(a.centroids.as_flat().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn duplicate_vectors_fall_back_to_uniform_seeding() {
        // All points coincide: after the first centroid every k-means++
        // score is zero. Seeding must stay in range and vary with the
        // seed (uniform fallback), not pin to index 0.
        let data = VectorSet::from_rows(&vec![vec![3.0, 3.0]; 16]);
        let weights = vec![1.0; 16];
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let init = plus_plus_init(&data, &weights, 4, seed);
            assert_eq!(init.len(), 4);
            for row in init.rows() {
                assert_eq!(row, &[3.0, 3.0]);
            }
            // Record where the seeding's uniform draws land by running
            // the same rng protocol.
            let again = plus_plus_init(&data, &weights, 4, seed);
            assert_eq!(init, again, "deterministic per seed");
            seen.insert(format!("{:?}", init.as_flat()));
        }
        assert_eq!(seen.len(), 1, "identical points: all inits equal");
    }

    #[test]
    fn sample_index_never_selects_zero_scores() {
        let scores = [0.0, 3.0, 0.0, 5.0, 0.0];
        let total: f64 = scores.iter().sum();
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let i = sample_index(&mut rng, &scores, total);
            assert!(i == 1 || i == 3, "seed {seed} picked zero-score {i}");
        }
    }

    #[test]
    fn sample_index_uniform_fallback_covers_the_range() {
        let scores = [0.0; 8];
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let i = sample_index(&mut rng, &scores, 0.0);
            assert!(i < 8);
            seen.insert(i);
        }
        assert!(
            seen.len() > 1,
            "uniform fallback must not collapse to one index: {seen:?}"
        );
    }
}
