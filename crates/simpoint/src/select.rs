//! The SimPoint driver (paper §2.3 steps 1–5): normalize → project →
//! search k → pick the clustering → select representatives and weights.

use crate::bic::bic;
use crate::estimator::RepresentativePolicy;
use crate::kmeans::{kmeans, KMeansResult};
use crate::projection::Projection;
use crate::vector::{distance_sq, normalized, VectorSet};
use cbsp_par::Pool;
use serde::{Deserialize, Serialize};

/// Intervals per normalization chunk (fixed: layout is thread-count
/// independent).
const NORM_CHUNK: usize = 256;

/// Configuration of a SimPoint analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimPointConfig {
    /// Maximum number of clusters (phases). The paper uses 10 (§5.1).
    pub max_k: usize,
    /// Random-projection dimensionality (SimPoint default: 15).
    pub projection_dims: usize,
    /// BIC threshold θ ∈ \[0, 1\]: the chosen clustering is the smallest
    /// k whose BIC reaches `min + θ·(max − min)` over the k search
    /// (SimPoint default: 0.9).
    pub bic_threshold: f64,
    /// k-means restarts (random seeds) per k; the best WCSS wins.
    pub restarts: usize,
    /// Lloyd-iteration cap per k-means run.
    pub max_iters: usize,
    /// Master seed for projection and clustering.
    pub seed: u64,
    /// Worker threads for the analysis (`0` = all available cores).
    ///
    /// Purely an execution knob: the k×restart search grid and the
    /// chunked normalization and projection are deterministic by
    /// construction, so the result is bit-identical at every value.
    /// Cache/artifact keys must therefore ignore this field.
    pub threads: usize,
}

impl Default for SimPointConfig {
    fn default() -> Self {
        SimPointConfig {
            max_k: 10,
            projection_dims: 15,
            bic_threshold: 0.9,
            restarts: 5,
            max_iters: 100,
            seed: 0x51AD_2007,
            threads: 0,
        }
    }
}

/// One selected simulation point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimPoint {
    /// Phase (cluster) id in `0..k`.
    pub phase: u32,
    /// Index of the representative interval.
    pub interval: usize,
    /// Overall weight of this point: the phase's instruction fraction
    /// times [`share`](Self::share), in `[0, 1]`. All points' weights
    /// sum to ≈ 1.
    pub weight: f64,
    /// Fraction of the phase this point stands for, in `(0, 1]`.
    /// Single-representative selectors always report 1; stratified
    /// selection splits the phase by stratum instruction mass.
    pub share: f64,
    /// Mean squared distance of the phase's members to its centroid in
    /// the projected space (a confidence signal: tight phases are
    /// better represented by a single point). SimPoint 3.0 reports the
    /// analogous per-cluster statistics.
    pub variance: f64,
}

/// Result of a SimPoint analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimPointResult {
    /// Chosen number of phases (distinct clusters with members).
    pub k: usize,
    /// Phase label per interval.
    pub labels: Vec<u32>,
    /// Selected simulation points, ordered by descending weight. One
    /// per phase for single-representative selectors; stratified
    /// selection yields up to `per_cluster` points per phase.
    pub points: Vec<SimPoint>,
    /// `(k, BIC)` for every k examined (diagnostics / ablations).
    pub bic_scores: Vec<(usize, f64)>,
}

impl SimPointResult {
    /// Total weight of all points (≈ 1).
    pub fn total_weight(&self) -> f64 {
        self.points.iter().map(|p| p.weight).sum()
    }

    /// The heaviest simulation point for `phase` (its only point under
    /// single-representative selectors).
    pub fn point_for_phase(&self, phase: u32) -> Option<&SimPoint> {
        self.points.iter().find(|p| p.phase == phase)
    }
}

/// Runs the full SimPoint analysis on one binary's intervals.
///
/// `vectors[i]` is interval *i*'s (unnormalized) frequency vector and
/// `instr_counts[i]` the instructions it spans. For fixed-length
/// intervals all counts are (nearly) equal and this reduces to classic
/// SimPoint; for variable-length intervals the counts weight both the
/// clustering and the phase weights (§3.2.4). `selector` chooses each
/// phase's representatives after the clustering is decided, so it
/// never changes `k` or the labels.
///
/// # Panics
///
/// Panics if inputs are empty or lengths mismatch.
pub fn analyze(
    vectors: &[Vec<f64>],
    instr_counts: &[u64],
    config: &SimPointConfig,
    selector: RepresentativePolicy,
) -> SimPointResult {
    assert!(!vectors.is_empty(), "need at least one interval");
    assert_eq!(
        vectors.len(),
        instr_counts.len(),
        "one instruction count per interval"
    );
    let in_dims = vectors[0].len();
    assert!(in_dims > 0, "intervals need at least one dimension");
    assert!(
        vectors.iter().all(|v| v.len() == in_dims),
        "intervals must share dimensionality"
    );
    let pool = Pool::new(config.threads);

    // Steps 1-2: normalize, project — both chunk-parallel over fixed
    // ranges, so the flat output layout is thread-count independent.
    let normed = {
        let _span = cbsp_trace::span("simpoint/normalize");
        let chunks = pool.map_chunks(vectors.len(), NORM_CHUNK, |range| {
            let mut flat = Vec::with_capacity(range.len() * in_dims);
            for i in range {
                flat.extend_from_slice(&normalized(&vectors[i]));
            }
            flat
        });
        let mut flat = Vec::with_capacity(vectors.len() * in_dims);
        for chunk in chunks {
            flat.extend_from_slice(&chunk);
        }
        VectorSet::from_flat(in_dims, flat)
    };
    let projection = Projection::new(config.seed, config.projection_dims.max(1));
    let data = {
        let _span = cbsp_trace::span("simpoint/project");
        projection.project_all(&normed, &pool)
    };
    drop(normed);

    // Interval weights: instructions, scaled to mean 1 so BIC's
    // effective sample size matches the interval count.
    let n = data.len();
    let total_instr: f64 = instr_counts.iter().map(|&c| c as f64).sum();
    let weights: Vec<f64> = if total_instr > 0.0 {
        instr_counts
            .iter()
            .map(|&c| c as f64 * n as f64 / total_instr)
            .collect()
    } else {
        vec![1.0; n]
    };

    // Step 3: k search with restarts. The whole k×restart grid fans out
    // over the pool — one cell per (k, restart), each running a serial
    // k-means — and the per-k best is reduced afterwards in restart
    // order with a strict `<` (first minimum wins), exactly matching
    // the serial nested-loop order. Since each cell is a pure function
    // of its seed, the selection is identical at any thread count.
    let max_k = config.max_k.clamp(1, n);
    let restarts = config.restarts.max(1);
    let search_span = cbsp_trace::span("simpoint/search");
    let cell_runs = pool.run_indexed(max_k * restarts, |cell| {
        let k = cell / restarts + 1;
        let r = cell % restarts;
        let seed = config
            .seed
            .wrapping_add((k as u64) << 32)
            .wrapping_add(r as u64);
        let run = kmeans(&data, &weights, k, seed, config.max_iters);
        cbsp_trace::add("simpoint/kmeans_runs", 1);
        cbsp_trace::add("simpoint/kmeans_iterations", run.iterations as u64);
        run
    });
    let mut runs: Vec<(usize, KMeansResult, f64)> = Vec::with_capacity(max_k);
    let mut cells = cell_runs.into_iter();
    for k in 1..=max_k {
        let mut best: Option<KMeansResult> = None;
        for _ in 0..restarts {
            let run = cells.next().expect("one run per grid cell");
            if best.as_ref().is_none_or(|b| run.wcss < b.wcss) {
                best = Some(run);
            }
        }
        let best = best.expect("at least one restart");
        let score = bic(&data, &weights, &best);
        runs.push((k, best, score));
    }
    drop(search_span);

    // Step 4: smallest k reaching the BIC threshold.
    let bic_scores: Vec<(usize, f64)> = runs.iter().map(|(k, _, s)| (*k, *s)).collect();
    let min = bic_scores
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    let max = bic_scores
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::NEG_INFINITY, f64::max);
    let cutoff = min + config.bic_threshold.clamp(0.0, 1.0) * (max - min);
    let chosen_idx = runs
        .iter()
        .position(|(_, _, s)| *s >= cutoff - 1e-12)
        .unwrap_or(runs.len() - 1);
    let (k, clustering, _) = &runs[chosen_idx];

    // Step 5: representatives and weights. Phase weights stay the
    // phase's instruction fraction, split across representatives by the
    // selector's within-phase shares (`share == 1.0` for the classic
    // single-representative policies, which keeps their weights
    // bit-identical to the pre-estimator pipeline).
    let mut points = Vec::with_capacity(*k);
    let mut phases = 0;
    for phase in 0..*k {
        let members: Vec<usize> = clustering
            .labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l as usize == phase)
            .map(|(i, _)| i)
            .collect();
        if members.is_empty() {
            continue; // k-means can leave a label unused after repair
        }
        let centroid = clustering.centroids.row(phase);
        let dists: Vec<f64> = members
            .iter()
            .map(|&i| distance_sq(data.row(i), centroid))
            .collect();
        let phase_instr: f64 = members.iter().map(|&i| instr_counts[i] as f64).sum();
        let variance = dists.iter().sum::<f64>() / members.len() as f64;
        let phase_weight = if total_instr > 0.0 {
            phase_instr / total_instr
        } else {
            members.len() as f64 / n as f64
        };
        phases += 1;
        for chosen in selector.select(&members, &dists, instr_counts) {
            points.push(SimPoint {
                phase: phase as u32,
                interval: chosen.interval,
                weight: phase_weight * chosen.share,
                share: chosen.share,
                variance,
            });
        }
    }
    points.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("finite weights"));

    SimPointResult {
        k: phases,
        labels: clustering.labels.clone(),
        points,
        bic_scores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NEAREST: RepresentativePolicy = RepresentativePolicy::NearestCentroid;

    /// Builds `phases` synthetic phases of `per` intervals each; phase
    /// `p` concentrates its BBV mass on blocks `[p*8, p*8+8)`. Members
    /// of a phase are identical: per-interval jitter would introduce
    /// real sub-structure, and whether BIC's 0.9 threshold lands before
    /// or after the sub-clusters split depends on the projection's
    /// random stream rather than on the phase structure under test.
    fn phased_vectors(phases: usize, per: usize) -> (Vec<Vec<f64>>, Vec<u64>) {
        let dims = phases * 8;
        let mut vectors = Vec::new();
        for p in 0..phases {
            for _ in 0..per {
                let mut v = vec![0.0; dims];
                for j in 0..8 {
                    v[p * 8 + j] = 100.0 + ((p + j) % 3) as f64;
                }
                vectors.push(v);
            }
        }
        let counts = vec![100_000u64; vectors.len()];
        (vectors, counts)
    }

    #[test]
    fn recovers_clear_phase_structure() {
        let (vectors, counts) = phased_vectors(4, 10);
        let r = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        assert_eq!(r.k, 4, "four well-separated phases");
        assert!((r.total_weight() - 1.0).abs() < 1e-9);
        // Intervals of the same synthetic phase share a label.
        for p in 0..4 {
            let first = r.labels[p * 10];
            for i in 0..10 {
                assert_eq!(r.labels[p * 10 + i], first);
            }
        }
        // Equal-size phases: each weight ≈ 1/4.
        for pt in &r.points {
            assert!((pt.weight - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn representative_belongs_to_its_phase() {
        let (vectors, counts) = phased_vectors(3, 7);
        let r = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        for pt in &r.points {
            assert_eq!(r.labels[pt.interval], pt.phase);
        }
    }

    #[test]
    fn single_behaviour_yields_one_phase() {
        let vectors = vec![vec![5.0, 5.0, 0.0]; 30];
        let counts = vec![1000u64; 30];
        let r = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        assert_eq!(r.k, 1);
        assert_eq!(r.points[0].weight, 1.0);
    }

    #[test]
    fn max_k_caps_the_phase_count() {
        let (vectors, counts) = phased_vectors(8, 6);
        let config = SimPointConfig {
            max_k: 3,
            ..SimPointConfig::default()
        };
        let r = analyze(&vectors, &counts, &config, NEAREST);
        assert!(r.k <= 3, "got k={}", r.k);
    }

    #[test]
    fn variable_interval_lengths_drive_weights() {
        // Two phases; phase 0's intervals are 9x longer.
        let mut vectors = Vec::new();
        let mut counts = Vec::new();
        for i in 0..10 {
            let mut a = vec![0.0; 16];
            a[0] = 10.0;
            a[1] = (i % 3) as f64 * 0.1; // small within-phase jitter
            vectors.push(a);
            counts.push(900_000);
            let mut b = vec![0.0; 16];
            b[8] = 10.0;
            b[9] = (i % 3) as f64 * 0.1;
            vectors.push(b);
            counts.push(100_000);
        }
        let r = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        // BIC may split the jittered sub-behaviours further, but the
        // instruction mass must land 90/10 across the two behaviour
        // families (block 0 vs block 8).
        let mass_a: f64 = r
            .points
            .iter()
            .filter(|p| vectors[p.interval][0] > vectors[p.interval][8])
            .map(|p| p.weight)
            .sum();
        assert!((mass_a - 0.9).abs() < 1e-6, "phase-A mass {mass_a}");
        assert!((r.total_weight() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_is_deterministic() {
        let (vectors, counts) = phased_vectors(5, 9);
        let a = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        let b = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        assert_eq!(a, b);
    }

    #[test]
    fn earliest_policy_prefers_earlier_intervals() {
        // Three phases whose members drift slightly: the earliest
        // member is never the centroid-nearest, but it is within a
        // generous tolerance.
        let mut vectors = Vec::new();
        for p in 0..3 {
            for i in 0..10 {
                let mut v = vec![0.0; 24];
                v[p * 8] = 100.0;
                v[p * 8 + 1] = i as f64; // drift: later members differ
                vectors.push(v);
            }
        }
        let counts = vec![1_000u64; vectors.len()];
        let nearest = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        let early = analyze(
            &vectors,
            &counts,
            &SimPointConfig::default(),
            RepresentativePolicy::Earliest { tolerance: 1.0 },
        );
        // Same clustering, but representatives are no later.
        assert_eq!(early.k, nearest.k);
        assert_eq!(early.labels, nearest.labels);
        for (e, n) in early.points.iter().zip(&nearest.points) {
            assert!(
                e.interval <= n.interval,
                "early {} > nearest {}",
                e.interval,
                n.interval
            );
        }
        // With tolerance 1.0 the earliest member of each phase wins.
        for pt in &early.points {
            let first_member = early
                .labels
                .iter()
                .position(|&l| l == pt.phase)
                .expect("phase has members");
            assert_eq!(pt.interval, first_member);
        }
        // Zero tolerance reduces to the nearest-centroid choice.
        let zero = analyze(
            &vectors,
            &counts,
            &SimPointConfig::default(),
            RepresentativePolicy::Earliest { tolerance: 0.0 },
        );
        for (z, n) in zero.points.iter().zip(&nearest.points) {
            assert_eq!(z.interval, n.interval);
        }
    }

    #[test]
    fn variance_reflects_phase_tightness() {
        // Phase 0: identical members (zero variance). Phase 1: spread.
        let mut vectors = Vec::new();
        for _ in 0..8 {
            let mut v = vec![0.0; 16];
            v[0] = 50.0;
            vectors.push(v);
        }
        for i in 0..8 {
            let mut v = vec![0.0; 16];
            v[8] = 50.0;
            v[9] = 5.0 * i as f64;
            vectors.push(v);
        }
        let counts = vec![1_000u64; vectors.len()];
        // Cap k at 2 so the spread family stays one (loose) cluster.
        let config = SimPointConfig {
            max_k: 2,
            ..SimPointConfig::default()
        };
        let r = analyze(&vectors, &counts, &config, NEAREST);
        let tight = r
            .points
            .iter()
            .find(|p| r.labels[0] == p.phase)
            .expect("phase of interval 0");
        assert!(
            tight.variance < 1e-12,
            "identical members: {}",
            tight.variance
        );
        assert!(
            r.points.iter().any(|p| p.variance > tight.variance),
            "spread phase must have higher variance"
        );
    }

    #[test]
    fn analysis_is_bit_identical_at_any_thread_count() {
        let (vectors, counts) = phased_vectors(5, 11);
        let serial = analyze(
            &vectors,
            &counts,
            &SimPointConfig {
                threads: 1,
                ..SimPointConfig::default()
            },
            NEAREST,
        );
        for threads in [2, 8] {
            let pooled = analyze(
                &vectors,
                &counts,
                &SimPointConfig {
                    threads,
                    ..SimPointConfig::default()
                },
                NEAREST,
            );
            assert_eq!(serial, pooled, "threads={threads} must match exactly");
            for ((_, a), (_, b)) in serial.bic_scores.iter().zip(&pooled.bic_scores) {
                assert_eq!(a.to_bits(), b.to_bits(), "BIC bits at threads={threads}");
            }
        }
    }

    #[test]
    fn stratified_selects_multiple_points_per_phase() {
        let (vectors, counts) = phased_vectors(3, 9);
        let config = SimPointConfig::default();
        let nearest = analyze(&vectors, &counts, &config, NEAREST);
        let strat = analyze(
            &vectors,
            &counts,
            &config,
            RepresentativePolicy::Stratified { per_cluster: 3 },
        );
        // Same clustering decision (selection happens after step 4)…
        assert_eq!(strat.k, nearest.k);
        assert_eq!(strat.labels, nearest.labels);
        // …but three representatives per phase, sharing its weight.
        assert_eq!(strat.points.len(), 3 * nearest.points.len());
        assert!((strat.total_weight() - 1.0).abs() < 1e-9);
        for pt in &strat.points {
            assert_eq!(strat.labels[pt.interval], pt.phase);
            assert!(pt.share > 0.0 && pt.share <= 1.0);
        }
        for phase in 0..strat.k as u32 {
            let share: f64 = strat
                .points
                .iter()
                .filter(|p| p.phase == phase)
                .map(|p| p.share)
                .sum();
            assert!((share - 1.0).abs() < 1e-12, "phase {phase} share {share}");
        }
        // Single-representative lanes always report share 1.
        for pt in &nearest.points {
            assert_eq!(pt.share, 1.0);
        }
    }

    #[test]
    fn stratified_degenerate_phases_stay_deterministic() {
        // One large phase plus a single-interval phase: asking for 4
        // representatives must select the lone member exactly once with
        // share 1, and never panic or duplicate.
        let mut vectors = Vec::new();
        for _ in 0..12 {
            let mut v = vec![0.0; 16];
            v[0] = 100.0;
            vectors.push(v);
        }
        let mut lone = vec![0.0; 16];
        lone[8] = 100.0;
        vectors.push(lone);
        let counts = vec![1_000u64; vectors.len()];
        let config = SimPointConfig {
            max_k: 2,
            ..SimPointConfig::default()
        };
        let policy = RepresentativePolicy::Stratified { per_cluster: 4 };
        let a = analyze(&vectors, &counts, &config, policy);
        let b = analyze(&vectors, &counts, &config, policy);
        assert_eq!(a, b, "degenerate stratified selection is deterministic");
        let lone_phase = a.labels[12];
        let lone_points: Vec<_> = a.points.iter().filter(|p| p.phase == lone_phase).collect();
        assert_eq!(lone_points.len(), 1, "single-member phase: one point");
        assert_eq!(lone_points[0].share, 1.0);
        // The 12-member zero-variance phase: 4 distinct representatives.
        let big: Vec<_> = a.points.iter().filter(|p| p.phase != lone_phase).collect();
        assert_eq!(big.len(), 4);
        let mut seen: Vec<usize> = big.iter().map(|p| p.interval).collect();
        seen.dedup();
        assert_eq!(seen.len(), 4, "no duplicate representatives");
    }

    #[test]
    fn bic_scores_reported_for_every_k() {
        let (vectors, counts) = phased_vectors(2, 12);
        let r = analyze(&vectors, &counts, &SimPointConfig::default(), NEAREST);
        assert_eq!(r.bic_scores.len(), 10);
        assert_eq!(r.bic_scores[0].0, 1);
        assert_eq!(r.bic_scores[9].0, 10);
    }
}
