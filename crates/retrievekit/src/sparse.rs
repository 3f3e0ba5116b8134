//! Compressed sparse rows (CSR) for the selector's pool embeddings, and a
//! sparse dot kernel bit-identical to the dense [`crate::dot`].
//!
//! textkit hashes word unigrams, word bigrams and character trigrams into
//! 512 lanes, so a pool row holds a few dozen non-zero lanes. A
//! [`SparseMatrix`] stores only those: `u32` row offsets, `u16` lanes in
//! strictly ascending order and their `f32` values, plus the per-row L2
//! norms [`crate::EmbeddingMatrix::push_row`] computes. Scoring a row then
//! costs its non-zero count instead of the full width.
//!
//! **Bit-identity.** [`sparse_dot`] keeps [`crate::dot`]'s accumulator
//! layout: lane `l` goes into accumulator `l % 4` in ascending lane order,
//! the last `dim % 4` lanes go into `tail`, and the result is
//! `(s0 + s1) + (s2 + s3) + tail`. A lane the sparse form skips holds
//! `+0.0`, so the dense kernel would have added a `±0.0` product there.
//! Every accumulator starts at `+0.0`, and under round-to-nearest a sum
//! that starts at `+0.0` can never become `-0.0` (only `-0.0 + -0.0` is
//! `-0.0`); adding `±0.0` to any other value leaves it unchanged. So with
//! a finite query each partial sum, and therefore every cosine, has the
//! dense kernel's exact bits. Which lanes are kept is decided on bit
//! patterns (`to_bits() != 0`), as in the snapshot format, so an explicit
//! `-0.0` lane is stored rather than folded into the `+0.0` background.

use crate::matrix::dot;

/// Dot product of one sparse row (`lanes` strictly ascending, `values`
/// aligned) with a dense `query`, in [`crate::dot`]'s accumulator layout —
/// bit-identical to `dot(dense_row, query)` for a finite query.
#[inline]
pub fn sparse_dot(lanes: &[u16], values: &[f32], query: &[f32]) -> f32 {
    debug_assert_eq!(lanes.len(), values.len());
    // The last `dim % 4` lanes are the dense kernel's remainder; being the
    // highest lanes, they sit at the end of an ascending row.
    let body = query.len() - query.len() % 4;
    let mut split = lanes.len();
    while split > 0 && lanes[split - 1] as usize >= body {
        split -= 1;
    }
    let mut acc = [0f32; 4];
    for (&l, &v) in lanes[..split].iter().zip(&values[..split]) {
        let l = l as usize;
        acc[l & 3] += v * query[l];
    }
    let mut tail = 0f32;
    for (&l, &v) in lanes[split..].iter().zip(&values[split..]) {
        tail += v * query[l as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Embedding rows in CSR form with precomputed L2 norms.
///
/// Rows are appended once at build time and scored many times; all rows
/// share the width fixed at construction, which must fit `u16` lanes.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    dim: usize,
    offsets: Vec<u32>,
    lanes: Vec<u16>,
    values: Vec<f32>,
    norms: Vec<f32>,
}

impl SparseMatrix {
    /// An empty matrix whose rows will have `dim` lanes.
    pub fn with_dim(dim: usize) -> SparseMatrix {
        assert!(dim > 0, "embedding dimension must be positive");
        assert!(
            dim <= u16::MAX as usize + 1,
            "sparse lanes are u16: dim {dim} is too wide"
        );
        SparseMatrix {
            dim,
            offsets: vec![0],
            lanes: Vec::new(),
            values: Vec::new(),
            norms: Vec::new(),
        }
    }

    /// An empty matrix with room reserved for `rows` rows.
    pub fn with_capacity(dim: usize, rows: usize) -> SparseMatrix {
        let mut m = SparseMatrix::with_dim(dim);
        m.offsets.reserve(rows);
        m.norms.reserve(rows);
        m
    }

    /// Append one dense row (exactly `dim` lanes), keeping the lanes whose
    /// bits are not `+0.0`. The norm is the dense kernel's, so it equals
    /// [`crate::EmbeddingMatrix::push_row`]'s bit for bit.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        for (lane, &x) in row.iter().enumerate() {
            if x.to_bits() != 0 {
                self.lanes.push(lane as u16);
                self.values.push(x);
            }
        }
        self.norms.push(dot(row, row).sqrt());
        self.close_row();
    }

    /// Append one row given as its stored entries and its norm — how a
    /// snapshot's sparse block and an IVF list copy rows without a dense
    /// detour. The caller guarantees ascending in-range lanes; the norm is
    /// trusted as given.
    pub(crate) fn push_entries(&mut self, lanes: &[u16], values: &[f32], norm: f32) {
        debug_assert_eq!(lanes.len(), values.len());
        debug_assert!(lanes.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(lanes.last().is_none_or(|&l| (l as usize) < self.dim));
        self.lanes.extend_from_slice(lanes);
        self.values.extend_from_slice(values);
        self.norms.push(norm);
        self.close_row();
    }

    /// Reserve room for `n` more stored entries.
    pub(crate) fn reserve_entries(&mut self, n: usize) {
        self.lanes.reserve(n);
        self.values.reserve(n);
    }

    fn close_row(&mut self) {
        let end = u32::try_from(self.lanes.len()).expect("sparse matrix exceeds u32 entries");
        self.offsets.push(end);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Stored entries over all rows.
    pub fn nnz(&self) -> usize {
        self.lanes.len()
    }

    /// Row `i`'s stored lanes (ascending) and their values.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u16], &[f32]) {
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (&self.lanes[lo..hi], &self.values[lo..hi])
    }

    /// Write row `i` into `out` (`dim` lanes) as the dense row it was
    /// built from.
    pub fn densify_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "row dimension mismatch");
        out.fill(0.0);
        let (lanes, values) = self.row(i);
        for (&l, &v) in lanes.iter().zip(values) {
            out[l as usize] = v;
        }
    }

    /// All precomputed L2 norms, one per row.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Precomputed L2 norm of row `i`.
    pub fn norm(&self, i: usize) -> f32 {
        self.norms[i]
    }

    /// Dot product of row `i` with a dense `query`.
    #[inline]
    pub fn dot(&self, i: usize, query: &[f32]) -> f32 {
        let (lanes, values) = self.row(i);
        sparse_dot(lanes, values, query)
    }

    /// Cosine similarity between row `i` and `query`: bit-identical to
    /// [`crate::EmbeddingMatrix::cosine`] on the same row.
    #[inline]
    pub fn cosine(&self, i: usize, query: &[f32]) -> f32 {
        let n = self.norms[i];
        if n == 0.0 {
            return 0.0;
        }
        self.dot(i, query) / n
    }

    /// Stream the cosine of every row in `lo..hi` against `query`, in row
    /// order — the scan form of [`SparseMatrix::cosine`], with the same
    /// arithmetic.
    pub fn scores<'a>(
        &'a self,
        query: &'a [f32],
        lo: usize,
        hi: usize,
    ) -> impl Iterator<Item = f32> + 'a {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        self.offsets[lo..=hi]
            .windows(2)
            .zip(&self.norms[lo..hi])
            .map(move |(w, &n)| {
                if n == 0.0 {
                    return 0.0;
                }
                let (a, b) = (w[0] as usize, w[1] as usize);
                sparse_dot(&self.lanes[a..b], &self.values[a..b], query) / n
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::EmbeddingMatrix;

    #[test]
    fn keeps_nonzero_bits_and_negative_zero() {
        let mut m = SparseMatrix::with_dim(6);
        m.push_row(&[0.0, -0.0, 1.5, 0.0, 0.0, -2.0]);
        m.push_row(&[0.0; 6]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.nnz(), 3);
        let (lanes, values) = m.row(0);
        assert_eq!(lanes, &[1, 2, 5]);
        assert_eq!(values[0].to_bits(), (-0.0f32).to_bits());
        assert!(m.row(1).0.is_empty());
        let mut back = [1f32; 6];
        m.densify_into(0, &mut back);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&[0.0, -0.0, 1.5, 0.0, 0.0, -2.0]));
    }

    #[test]
    fn cosine_bits_equal_the_dense_kernel_with_tail_lanes() {
        // dim 7 leaves three tail lanes after one 4-lane block.
        let rows: [[f32; 7]; 4] = [
            [0.5, 0.0, -0.25, 0.0, 0.0, 3.0, -1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-0.0, 1e-3, 0.0, 7.0, 0.0, 0.0, 0.0],
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
        ];
        let query = [0.3f32, -1.1, 0.7, 0.01, -0.0, 2.5, 0.9];
        let mut dense = EmbeddingMatrix::with_dim(7);
        let mut sparse = SparseMatrix::with_dim(7);
        for r in &rows {
            dense.push_row(r);
            sparse.push_row(r);
        }
        for i in 0..rows.len() {
            assert_eq!(dense.norm(i).to_bits(), sparse.norm(i).to_bits());
            assert_eq!(
                dense.cosine(i, &query).to_bits(),
                sparse.cosine(i, &query).to_bits(),
                "row {i}"
            );
        }
        let d: Vec<u32> = dense.scores(&query, 1, 4).map(f32::to_bits).collect();
        let s: Vec<u32> = sparse.scores(&query, 1, 4).map(f32::to_bits).collect();
        assert_eq!(d, s);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn mismatched_row_panics() {
        let mut m = SparseMatrix::with_dim(4);
        m.push_row(&[1.0, 2.0]);
    }
}
