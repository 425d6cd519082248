//! # cbsp-simpoint — SimPoint 3.0 reimplementation
//!
//! The phase-clustering engine of the paper's §2.3, rebuilt from the
//! published algorithm:
//!
//! 1. normalize interval frequency vectors ([`vector`]),
//! 2. reduce dimensionality with a random linear projection
//!    ([`Projection`]),
//! 3. run weighted k-means with k-means++ seeding over a range of k
//!    ([`kmeans()`]),
//! 4. score each clustering with the Bayesian Information Criterion and
//!    pick the smallest k near the best score ([`bic()`]),
//! 5. choose each cluster's representative interval — by default its
//!    centroid-nearest one — and weight it by the cluster's instruction
//!    share ([`analyze`], [`RepresentativePolicy::select`]).
//!
//! Variable-length intervals are supported throughout: interval
//! instruction counts weight the clustering, the BIC, and the phase
//! weights (§3.2.4).
//!
//! ## Performance architecture
//!
//! Vectors live in a flat row-major [`VectorSet`] (one allocation, no
//! per-row pointer chase) and every distance goes through the unrolled
//! [`vector::distance_sq`] kernel. The k×restart search grid and
//! normalization/projection fan out over a [`cbsp_par::Pool`] sized by
//! [`SimPointConfig::threads`]; each grid cell runs one serial
//! [`kmeans()`]. Every cell is a pure function of its seed and every
//! chunked step has thread-count-independent boundaries merged in chunk
//! order, so results are **bit-identical at any thread count**.
//!
//! ## Example
//!
//! ```
//! use cbsp_simpoint::{analyze, RepresentativePolicy, SimPointConfig};
//!
//! // Six intervals alternating between two behaviours.
//! let vectors: Vec<Vec<f64>> = (0..6)
//!     .map(|i| if i % 2 == 0 { vec![9.0, 0.0] } else { vec![0.0, 9.0] })
//!     .collect();
//! let instrs = vec![1_000u64; 6];
//! let result = analyze(
//!     &vectors,
//!     &instrs,
//!     &SimPointConfig::default(),
//!     RepresentativePolicy::NearestCentroid,
//! );
//! assert_eq!(result.k, 2);
//! assert!((result.total_weight() - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bic;
pub mod estimator;
pub mod kmeans;
pub mod projection;
pub mod select;
pub mod vector;

pub use bic::bic;
pub use estimator::{Chosen, EstimatorConfig, FeatureKind, RepresentativePolicy};
pub use kmeans::{kmeans, KMeansResult};
pub use projection::Projection;
pub use select::{analyze, SimPoint, SimPointConfig, SimPointResult};
pub use vector::{distance_l1, distance_sq, VectorSet};
