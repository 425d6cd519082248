//! Frequency-vector storage and distance kernels.
//!
//! SimPoint's first step (paper §2.3 step 1): normalize each interval's
//! frequency vector so its elements sum to 1, making intervals of
//! different lengths comparable by *behaviour* rather than by volume.
//!
//! The clustering engine stores its vectors in a [`VectorSet`] — one
//! contiguous row-major `Vec<f64>` — rather than `Vec<Vec<f64>>`. The
//! distance loop of k-means walks rows sequentially; flat storage turns
//! every row access into a stride within one allocation (no pointer
//! chase, no per-row cache-line split), and the unrolled
//! [`distance_sq`] kernel below gives the compiler independent
//! accumulator chains it can map onto SIMD lanes.

/// Normalizes `v` in place so its elements sum to 1.
///
/// Vectors with zero mass (an interval that executed nothing) are left
/// untouched; callers should not produce them.
pub fn normalize(v: &mut [f64]) {
    let sum: f64 = v.iter().sum();
    if sum > 0.0 {
        for x in v.iter_mut() {
            *x /= sum;
        }
    }
}

/// Returns a normalized copy of `v`.
pub fn normalized(v: &[f64]) -> Vec<f64> {
    let mut out = v.to_vec();
    normalize(&mut out);
    out
}

/// A set of equal-dimension vectors in one contiguous row-major buffer.
///
/// Row `i` occupies `data[i*dims .. (i+1)*dims]`. This is the storage
/// format of every hot loop in the crate: k-means data and centroids
/// and projected vectors all index into flat rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VectorSet {
    data: Vec<f64>,
    dims: usize,
}

impl VectorSet {
    /// An empty set of `dims`-dimensional vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero.
    pub fn new(dims: usize) -> Self {
        Self::with_capacity(dims, 0)
    }

    /// An empty set with room for `rows` vectors.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero.
    pub fn with_capacity(dims: usize, rows: usize) -> Self {
        assert!(dims > 0, "vectors need at least one dimension");
        VectorSet {
            data: Vec::with_capacity(dims * rows),
            dims,
        }
    }

    /// Builds a set from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is zero or `data.len()` is not a multiple of
    /// `dims`.
    pub fn from_flat(dims: usize, data: Vec<f64>) -> Self {
        assert!(dims > 0, "vectors need at least one dimension");
        assert_eq!(data.len() % dims, 0, "flat buffer must hold whole rows");
        VectorSet { data, dims }
    }

    /// Builds a set by copying nested rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, the first row is empty, or rows have
    /// unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let dims = rows.first().map_or(0, Vec::len);
        let mut set = VectorSet::with_capacity(dims, rows.len());
        for row in rows {
            set.push(row);
        }
        set
    }

    /// Appends one vector.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dims()`.
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dims, "row dimensionality mismatch");
        self.data.extend_from_slice(row);
    }

    /// Number of vectors.
    pub fn len(&self) -> usize {
        self.data.len() / self.dims
    }

    /// `true` if the set holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every vector.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Vector `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Mutable view of vector `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Iterates over rows in index order.
    pub fn rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.dims)
    }

    /// The whole row-major buffer.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Copies the rows back into nested form (interop / diagnostics —
    /// not for hot paths).
    pub fn to_rows(&self) -> Vec<Vec<f64>> {
        self.rows().map(<[f64]>::to_vec).collect()
    }
}

/// Number of independent accumulator chains in the distance kernels.
///
/// Eight f64 lanes fill two 4-wide AVX registers (or four 2-wide
/// NEON/SSE registers) and, more importantly, break the loop-carried
/// add dependency eight ways: with ~4-cycle add latency and 2
/// adds/cycle throughput, at least eight chains are needed to keep the
/// FP units saturated. An A/B bench against the 4-lane predecessor
/// settled the width.
pub const KERNEL_LANES: usize = 8;

/// Squared Euclidean distance between two equal-length vectors.
///
/// Unrolled over [`KERNEL_LANES`] independent accumulators so the
/// chains have no loop-carried dependency on each other — the form
/// auto-vectorizers turn into packed SIMD (and FMA where the target has
/// it). The accumulator layout and the pairwise reduction order are
/// fixed, so the result is a pure function of the inputs: identical on
/// every call, at any thread count.
///
/// # Panics
///
/// Debug-asserts equal lengths.
#[inline]
pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() & !(KERNEL_LANES - 1);
    let mut acc = [0.0f64; KERNEL_LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(KERNEL_LANES)
        .zip(b[..main].chunks_exact(KERNEL_LANES))
    {
        for lane in 0..KERNEL_LANES {
            let d = ca[lane] - cb[lane];
            acc[lane] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        let d = x - y;
        tail += d * d;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

/// Manhattan distance, used by SimPoint's original phase-comparison
/// analyses; provided for completeness and ablations.
///
/// Same [`KERNEL_LANES`]-chain unrolling and fixed reduction order as
/// [`distance_sq`] — `abs` is branch-free (a sign-bit mask), so the
/// loop vectorizes the same way.
#[inline]
pub fn distance_l1(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let main = a.len() & !(KERNEL_LANES - 1);
    let mut acc = [0.0f64; KERNEL_LANES];
    for (ca, cb) in a[..main]
        .chunks_exact(KERNEL_LANES)
        .zip(b[..main].chunks_exact(KERNEL_LANES))
    {
        for lane in 0..KERNEL_LANES {
            acc[lane] += (ca[lane] - cb[lane]).abs();
        }
    }
    let mut tail = 0.0;
    for (x, y) in a[main..].iter().zip(&b[main..]) {
        tail += (x - y).abs();
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_makes_unit_mass() {
        let mut v = vec![2.0, 6.0, 0.0, 2.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.2, 0.6, 0.0, 0.2]);
        assert!((v.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_leaves_zero_vectors() {
        let mut v = vec![0.0, 0.0];
        normalize(&mut v);
        assert_eq!(v, vec![0.0, 0.0]);
    }

    #[test]
    fn distances() {
        let a = [0.0, 3.0];
        let b = [4.0, 0.0];
        assert_eq!(distance_sq(&a, &b), 25.0);
        assert_eq!(distance_l1(&a, &b), 7.0);
        assert_eq!(distance_sq(&a, &a), 0.0);
    }

    #[test]
    fn unrolled_kernel_matches_scalar_reference_at_every_length() {
        // Cover all four tail residues and a longer vector.
        for len in [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 17, 33] {
            let a: Vec<f64> = (0..len).map(|i| (i as f64) * 0.37 - 1.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            let fast = distance_sq(&a, &b);
            let scalar: f64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>();
            assert!(
                (fast - scalar).abs() <= 1e-12 * (1.0 + scalar),
                "len {len}: {fast} vs {scalar}"
            );
        }
    }

    #[test]
    fn l1_kernel_matches_scalar_reference_at_every_tail_residue() {
        // Cover every residue mod KERNEL_LANES plus longer vectors.
        for len in 1..=(3 * KERNEL_LANES + 1) {
            let a: Vec<f64> = (0..len).map(|i| (i as f64) * 0.37 - 1.0).collect();
            let b: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            let fast = distance_l1(&a, &b);
            let scalar: f64 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(
                (fast - scalar).abs() <= 1e-12 * (1.0 + scalar),
                "len {len}: {fast} vs {scalar}"
            );
        }
    }

    #[test]
    fn vector_set_round_trips_rows() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]];
        let set = VectorSet::from_rows(&rows);
        assert_eq!(set.len(), 2);
        assert_eq!(set.dims(), 3);
        assert_eq!(set.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(set.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(set.to_rows(), rows);
        assert_eq!(set.rows().count(), 2);
        assert_eq!(set.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn vector_set_push_and_mutate() {
        let mut set = VectorSet::new(2);
        assert!(set.is_empty());
        set.push(&[1.0, 2.0]);
        set.push(&[3.0, 4.0]);
        set.row_mut(0)[1] = 9.0;
        assert_eq!(set.row(0), &[1.0, 9.0]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn from_flat_checks_shape() {
        let set = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn from_flat_rejects_ragged_buffers() {
        let _ = VectorSet::from_flat(2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn push_rejects_wrong_dims() {
        let mut set = VectorSet::new(3);
        set.push(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn zero_dims_rejected() {
        let _ = VectorSet::new(0);
    }
}
