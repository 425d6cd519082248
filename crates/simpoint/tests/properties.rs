//! Property-based tests of the SimPoint engine's invariants.

// Index-heavy math assertions read better with explicit indices.
#![allow(clippy::needless_range_loop)]

use cbsp_simpoint::vector::{distance_l1, distance_sq, normalize, normalized, KERNEL_LANES};
use cbsp_simpoint::{
    analyze, bic, kmeans, EstimatorConfig, Projection, RepresentativePolicy, SimPointConfig,
    VectorSet,
};
use proptest::prelude::*;
use std::collections::HashMap;

const NEAREST: RepresentativePolicy = RepresentativePolicy::NearestCentroid;

fn vectors_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
    // n vectors of shared dimension d, strictly positive mass.
    (2usize..40, 2usize..24).prop_flat_map(|(n, d)| {
        prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, d)
                .prop_filter("nonzero mass", |v| v.iter().sum::<f64>() > 1.0),
            n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn normalization_produces_unit_mass(vs in vectors_strategy()) {
        for v in &vs {
            let n = normalized(v);
            prop_assert!((n.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Order is preserved.
            for (a, b) in v.iter().zip(&n) {
                prop_assert!((a > &0.0) == (b > &0.0));
            }
        }
    }

    #[test]
    fn projection_preserves_linearity_and_determinism(
        v in prop::collection::vec(0.0f64..10.0, 30),
        scale in 0.1f64..5.0,
        seed in any::<u64>(),
    ) {
        let p = Projection::new(seed, 8);
        let pv = p.project(&v);
        prop_assert_eq!(pv.clone(), p.project(&v));
        let scaled: Vec<f64> = v.iter().map(|x| x * scale).collect();
        let ps = p.project(&scaled);
        for (a, b) in pv.iter().zip(&ps) {
            prop_assert!((a * scale - b).abs() < 1e-6 * (1.0 + a.abs() * scale));
        }
    }

    #[test]
    fn kmeans_output_is_well_formed(vs in vectors_strategy(), k in 1usize..6, seed in any::<u64>()) {
        let k = k.min(vs.len());
        let weights = vec![1.0; vs.len()];
        let data = VectorSet::from_rows(&vs);
        let r = kmeans(&data, &weights, k, seed, 50);
        prop_assert_eq!(r.labels.len(), vs.len());
        prop_assert_eq!(r.centroids.len(), k);
        for &l in &r.labels {
            prop_assert!((l as usize) < k);
        }
        prop_assert!(r.wcss >= 0.0 && r.wcss.is_finite());
        // Every vector's own centroid is at least as close as the
        // assigned distance sum implies (assignment optimality).
        for (i, v) in vs.iter().enumerate() {
            let own = distance_sq(v, r.centroids.row(r.labels[i] as usize));
            for c in r.centroids.rows() {
                prop_assert!(own <= distance_sq(v, c) + 1e-9);
            }
        }
    }

    #[test]
    fn kmeans_with_k_equals_n_is_exact(vs in vectors_strategy()) {
        // Distinct points each get their own cluster => zero objective.
        let mut unique = vs.clone();
        unique.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        unique.dedup();
        let weights = vec![1.0; unique.len()];
        let data = VectorSet::from_rows(&unique);
        let r = kmeans(&data, &weights, unique.len(), 0, 100);
        prop_assert!(r.wcss < 1e-9, "wcss {}", r.wcss);
    }

    #[test]
    fn bic_is_finite_for_any_clustering(vs in vectors_strategy(), k in 1usize..6) {
        let k = k.min(vs.len());
        let weights = vec![1.0; vs.len()];
        let data = VectorSet::from_rows(&vs);
        let r = kmeans(&data, &weights, k, 1, 50);
        let score = bic(&data, &weights, &r);
        prop_assert!(score.is_finite());
    }

    #[test]
    fn analyze_invariants_hold(vs in vectors_strategy(), instr_base in 1u64..1_000_000) {
        let instrs: Vec<u64> = (0..vs.len()).map(|i| instr_base + i as u64).collect();
        let r = analyze(&vs, &instrs, &SimPointConfig::default(), NEAREST);
        // Weights sum to 1 and every representative carries its own label.
        prop_assert!((r.total_weight() - 1.0).abs() < 1e-9);
        prop_assert_eq!(r.labels.len(), vs.len());
        for pt in &r.points {
            prop_assert_eq!(r.labels[pt.interval], pt.phase);
            prop_assert!(pt.weight > 0.0 && pt.weight <= 1.0 + 1e-12);
        }
        // Points are sorted by descending weight.
        for w in r.points.windows(2) {
            prop_assert!(w[0].weight >= w[1].weight);
        }
        // k respects the configured maximum.
        prop_assert!(r.k >= 1 && r.k <= 10);
    }

    #[test]
    fn weights_equal_phase_instruction_shares(vs in vectors_strategy()) {
        let instrs: Vec<u64> = (0..vs.len()).map(|i| 1_000 + (i as u64 % 7) * 100).collect();
        let total: u64 = instrs.iter().sum();
        let r = analyze(&vs, &instrs, &SimPointConfig::default(), NEAREST);
        for pt in &r.points {
            let share: u64 = r
                .labels
                .iter()
                .enumerate()
                .filter(|(_, &l)| l == pt.phase)
                .map(|(i, _)| instrs[i])
                .sum();
            prop_assert!((pt.weight - share as f64 / total as f64).abs() < 1e-9);
        }
    }

    /// The clustering engine's parallelism is invisible in the output:
    /// the full analysis at 8 threads equals the 1-thread analysis
    /// exactly, for arbitrary workloads and seeds.
    #[test]
    fn analysis_is_thread_count_invariant(
        vs in vectors_strategy(),
        instr_base in 1u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let instrs: Vec<u64> = (0..vs.len()).map(|i| instr_base + i as u64).collect();
        let config = SimPointConfig { seed, threads: 1, ..SimPointConfig::default() };
        let serial = analyze(&vs, &instrs, &config, NEAREST);
        let pooled = analyze(&vs, &instrs, &SimPointConfig { threads: 8, ..config }, NEAREST);
        prop_assert_eq!(&serial, &pooled);
        for ((_, a), (_, b)) in serial.bic_scores.iter().zip(&pooled.bic_scores) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The unrolled kernels are *bit-identical* to straightforward
    /// mirrors with the same lane layout and reduction order: the
    /// unrolling is pure loop restructuring, not a numerical change the
    /// compiler (or a future refactor) is free to reassociate.
    #[test]
    fn distance_kernels_are_bit_identical_to_lane_mirrors(
        pairs in (1usize..70).prop_flat_map(|d| (
            prop::collection::vec(-1e6f64..1e6, d),
            prop::collection::vec(-1e6f64..1e6, d),
        )),
    ) {
        fn mirror<F: Fn(f64, f64) -> f64>(a: &[f64], b: &[f64], term: F) -> f64 {
            let main = a.len() & !(KERNEL_LANES - 1);
            let mut acc = [0.0f64; KERNEL_LANES];
            for i in (0..main).step_by(KERNEL_LANES) {
                for lane in 0..KERNEL_LANES {
                    acc[lane] += term(a[i + lane], b[i + lane]);
                }
            }
            let mut tail = 0.0;
            for i in main..a.len() {
                tail += term(a[i], b[i]);
            }
            ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
        }
        let (a, b) = pairs;
        let sq = mirror(&a, &b, |x, y| (x - y) * (x - y));
        prop_assert_eq!(distance_sq(&a, &b).to_bits(), sq.to_bits());
        let l1 = mirror(&a, &b, |x, y| (x - y).abs());
        prop_assert_eq!(distance_l1(&a, &b).to_bits(), l1.to_bits());
    }

    /// Stratified selection under arbitrary (and degenerate) phase
    /// populations — the selector-level mirror of the k-means++
    /// degenerate-distribution audit in `kmeans::sample_index`:
    /// single-member phases, zero-variance phases, and `per_cluster`
    /// exceeding the phase size must all produce a deterministic,
    /// duplicate-free selection whose shares partition each phase.
    #[test]
    fn stratified_selection_survives_degenerate_phases(
        vs in vectors_strategy(),
        per_cluster in 1usize..6,
        seed in any::<u64>(),
    ) {
        let instrs: Vec<u64> = (0..vs.len()).map(|i| 1_000 + (i as u64 % 5) * 500).collect();
        let config = SimPointConfig { seed, ..SimPointConfig::default() };
        let policy = RepresentativePolicy::Stratified { per_cluster };
        let r = analyze(&vs, &instrs, &config, policy);
        prop_assert_eq!(&r, &analyze(&vs, &instrs, &config, policy));
        prop_assert!((r.total_weight() - 1.0).abs() < 1e-9);
        let mut per_phase: HashMap<u32, Vec<usize>> = HashMap::new();
        for pt in &r.points {
            prop_assert_eq!(r.labels[pt.interval], pt.phase);
            prop_assert!(pt.share > 0.0 && pt.share <= 1.0 + 1e-12);
            per_phase.entry(pt.phase).or_default().push(pt.interval);
        }
        for (phase, mut intervals) in per_phase {
            let size = r.labels.iter().filter(|&&l| l == phase).count();
            // Never more representatives than members or than asked for.
            prop_assert!(intervals.len() <= per_cluster.min(size));
            intervals.sort_unstable();
            intervals.dedup();
            let reps = r.points.iter().filter(|p| p.phase == phase).count();
            prop_assert_eq!(intervals.len(), reps, "no duplicate representatives");
            let share: f64 = r
                .points
                .iter()
                .filter(|p| p.phase == phase)
                .map(|p| p.share)
                .sum();
            prop_assert!((share - 1.0).abs() < 1e-9, "phase {} share {}", phase, share);
        }
    }

    /// Every estimator lane's selection, not just the default, is
    /// invisible to parallelism: 8-thread analysis equals 1-thread
    /// analysis exactly under each selection policy.
    #[test]
    fn every_selector_is_thread_count_invariant(
        vs in vectors_strategy(),
        seed in any::<u64>(),
        lane in 0usize..EstimatorConfig::KNOWN_TAGS.len(),
    ) {
        let estimator = EstimatorConfig::parse(EstimatorConfig::KNOWN_TAGS[lane])
            .expect("known tag");
        let instrs: Vec<u64> = (0..vs.len()).map(|i| 1_000 + i as u64).collect();
        let config = SimPointConfig { seed, threads: 1, ..SimPointConfig::default() };
        let serial = analyze(&vs, &instrs, &config, estimator.selector);
        let pooled = SimPointConfig { threads: 8, ..config };
        let pooled = analyze(&vs, &instrs, &pooled, estimator.selector);
        prop_assert_eq!(&serial, &pooled);
    }

    #[test]
    fn normalize_is_idempotent(v in prop::collection::vec(0.0f64..50.0, 1..30)) {
        prop_assume!(v.iter().sum::<f64>() > 0.0);
        let mut once = v.clone();
        normalize(&mut once);
        let mut twice = once.clone();
        normalize(&mut twice);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }
}
