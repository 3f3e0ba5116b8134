//! The dense oracle: row-major embedding storage and the blocked
//! dot-product kernel.
//!
//! The selector scores its pool through [`crate::SparseMatrix`], whose
//! kernel skips the lanes a text-hash embedding leaves at `+0.0`.
//! [`EmbeddingMatrix`] keeps every lane: it is the reference that kernel
//! must reproduce bit for bit, scored by `select-bench`'s full-sort check,
//! the property tests and the `selection` criterion bench. [`dot`] keeps
//! four independent `f32` accumulators so the multiplies pipeline instead
//! of serializing on one add chain; its accumulator layout is the
//! contract [`crate::sparse_dot`] follows, and it still scores the dense
//! IVF centroids.
//!
//! Accumulation happens in `f32` (the reference path,
//! `textkit::Embedding::cosine`, accumulates in `f64`); for unit-norm
//! 512-dim rows the divergence is bounded well below `1e-5` — see
//! promptkit's `f32_kernel_divergence_is_bounded` test.

/// A dense row-major matrix of embedding rows with precomputed L2 norms.
///
/// Rows are appended once at build time and scored many times; all rows
/// must share the dimension fixed at construction.
#[derive(Debug, Clone)]
pub struct EmbeddingMatrix {
    dim: usize,
    data: Vec<f32>,
    norms: Vec<f32>,
}

impl EmbeddingMatrix {
    /// An empty matrix whose rows will have `dim` lanes.
    pub fn with_dim(dim: usize) -> EmbeddingMatrix {
        assert!(dim > 0, "embedding dimension must be positive");
        EmbeddingMatrix {
            dim,
            data: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// An empty matrix with capacity reserved for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> EmbeddingMatrix {
        let mut m = EmbeddingMatrix::with_dim(dim);
        m.data.reserve(rows * dim);
        m.norms.reserve(rows);
        m
    }

    /// Append one row (must have exactly `dim` lanes).
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
        self.norms.push(dot(row, row).sqrt());
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Row dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// All precomputed L2 norms, one per row.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Precomputed L2 norm of row `i`.
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// Stream the cosine of every row in `lo..hi` against `query`, in row
    /// order — the hot-scan form of [`EmbeddingMatrix::cosine`], walking
    /// the backing buffer with `chunks_exact` instead of re-slicing per
    /// row. Performs exactly the same arithmetic as calling `cosine` row
    /// by row, so the scores are bit-identical.
    pub fn scores<'a>(
        &'a self,
        query: &'a [f32],
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = f32> + 'a {
        self.data[lo * self.dim..hi * self.dim]
            .chunks_exact(self.dim)
            .zip(&self.norms[lo..hi])
            .map(move |(row, &n)| if n == 0.0 { 0.0 } else { dot(row, query) / n })
    }

    /// Cosine similarity between row `i` and `query`, accumulated in `f32`.
    ///
    /// Rows built from L2-normalized embeddings have unit (or zero) norm,
    /// so this is effectively the dot product; the precomputed-norm
    /// division only matters for callers that push unnormalized rows, and
    /// guards the zero-vector case either way.
    #[inline]
    pub fn cosine(&self, i: usize, query: &[f32]) -> f32 {
        let n = self.norms[i];
        if n == 0.0 {
            return 0.0;
        }
        dot(self.row(i), query) / n
    }
}

/// Dot product with four independent accumulators over 4-lane blocks.
///
/// The four partial sums break the loop-carried dependence on a single
/// accumulator; the compiler is free to keep them in separate registers
/// (or vectorize the whole block). Summation order is fixed —
/// `(s0 + s1) + (s2 + s3)` over blocks in index order — so results are
/// bit-identical across runs, shard splits and thread counts.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // `chunks_exact` hoists the bounds checks out of the loop body, so the
    // block below compiles to branch-free 4-lane mul-adds the autovectorizer
    // can take wholesale.
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    let (mut s0, mut s1, mut s2, mut s3) = (0f32, 0f32, 0f32, 0f32);
    for (xa, xb) in ca.by_ref().zip(cb.by_ref()) {
        s0 += xa[0] * xb[0];
        s1 += xa[1] * xb[1];
        s2 += xa[2] * xb[2];
        s3 += xa[3] * xb[3];
    }
    let mut tail = 0f32;
    for (xa, xb) in ca.remainder().iter().zip(cb.remainder()) {
        tail += xa * xb;
    }
    (s0 + s1) + (s2 + s3) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn dot_matches_scalar_on_odd_lengths() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 17, 512] {
            let a: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..len).map(|i| (i as f32 * 0.11).cos()).collect();
            let got = dot(&a, &b);
            let want = scalar_dot(&a, &b);
            assert!((got - want).abs() < 1e-4, "len {len}: {got} vs {want}");
        }
    }

    #[test]
    fn rows_round_trip_and_norms_precompute() {
        let mut m = EmbeddingMatrix::with_capacity(4, 2);
        m.push_row(&[1.0, 0.0, 0.0, 0.0]);
        m.push_row(&[0.0, 3.0, 4.0, 0.0]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.row(1), &[0.0, 3.0, 4.0, 0.0]);
        assert!((m.norm(0) - 1.0).abs() < 1e-6);
        assert!((m.norm(1) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_handles_zero_rows() {
        let mut m = EmbeddingMatrix::with_dim(3);
        m.push_row(&[0.0, 0.0, 0.0]);
        m.push_row(&[1.0, 0.0, 0.0]);
        assert_eq!(m.cosine(0, &[1.0, 1.0, 1.0]), 0.0);
        assert!((m.cosine(1, &[1.0, 0.0, 0.0]) - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn mismatched_row_panics() {
        let mut m = EmbeddingMatrix::with_dim(4);
        m.push_row(&[1.0, 2.0]);
    }
}
