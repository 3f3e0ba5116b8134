//! IVF (inverted-file) approximate retrieval over sparse rows:
//! deterministic k-means, inverted lists that own their rows, and probed
//! search with exact rerank.
//!
//! The exact sharded scan ([`crate::top_k_cosine`]) scores every pool row
//! per query. An IVF index spends a one-time clustering pass to partition
//! rows into `n_clusters` inverted lists, then answers each query by
//! scoring only the lists of the `n_probe` nearest centroids — a tunable
//! fraction of the pool — while the final top-k is always computed from
//! **full-precision f32 cosines** with the committed score-desc/index-asc
//! tie-breaking. Approximation can therefore *drop* a true neighbor whose
//! cluster went unprobed (measured as recall@k by `select-bench`), but it
//! can never *reorder* the candidates it does see.
//!
//! **Sparse rows throughout.** Training and search take a
//! [`SparseMatrix`] and score with [`sparse_dot`], which is bit-identical
//! to the dense [`dot`]: the stride sample is kept as normalized sparse
//! rows, kmeans++, Lloyd and the final assignment score them against the
//! dense centroids, and the f64 centroid sums add only the stored lanes.
//! The centroids themselves stay dense and are probed with [`dot`].
//!
//! **Lists own their rows.** The index copies the pool rows into one
//! [`SparseMatrix`] in list order, with each row's pool id and the offset
//! where each list starts, so a probe streams its lists front to back
//! instead of gathering rows from across the pool. Hits carry pool ids and
//! [`TopK`] breaks ties by them, so the scan order cannot show through.
//!
//! **Determinism.** Training must be byte-identical across `DAIL_THREADS`
//! values and across runs:
//! - the training sample is a deterministic stride over rows;
//! - kmeans++ seeding uses a splitmix64 stream from a caller-fixed seed;
//! - assignment is a pure per-row function (argmax of `dot(row, centroid)`
//!   with ties to the lowest centroid index), so sharding it across any
//!   number of workers writes the same values to disjoint slices;
//! - centroid updates accumulate `f64` sums sequentially in row order, so
//!   no floating-point reassociation can leak thread count into results.
//!
//! The `proptest_ivf.rs` suite pins both halves of the contract:
//! thread-count invariance of training, and full-probe degeneracy
//! (`n_probe = n_clusters` ≡ exact top-k).
//!
//! An index lives only in memory: a selector trains it when it is built,
//! and the same inputs always train the same index.

use crate::matrix::dot;
use crate::shard::resolve_threads;
use crate::sparse::{sparse_dot, SparseMatrix};
use crate::topk::TopK;

/// Which scan representation `promptkit` selection uses. Callers pick it
/// explicitly (`ExampleSelector::with_retrieval`); `ExampleSelector::new`
/// is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrievalMode {
    /// Exact sharded scan of the full pool — the committed oracle and the
    /// default. Selections in this mode are byte-identical to pre-IVF
    /// builds.
    Exact,
    /// IVF probe + f32 scoring of probed lists. Candidate scores are the
    /// same arithmetic as the exact scan, so only unprobed clusters can
    /// cost recall.
    Ivf,
}

impl RetrievalMode {
    /// Stable lowercase name, as reports print it.
    pub fn as_str(&self) -> &'static str {
        match self {
            RetrievalMode::Exact => "exact",
            RetrievalMode::Ivf => "ivf",
        }
    }
}

/// Training knobs for [`IvfIndex::train`]. `Default` gives the committed
/// heuristics used by `promptkit` and the benches.
#[derive(Debug, Clone)]
pub struct IvfParams {
    /// Number of clusters; `None` → `clamp(sqrt(rows) / 4, 1, 128)`.
    pub n_clusters: Option<usize>,
    /// Default probe width stored on the index; `None` → `max(1, n_clusters / 8)`.
    pub n_probe: Option<usize>,
    /// Lloyd iteration budget after kmeans++ seeding.
    pub iters: usize,
    /// Cap on the deterministic training sample (stride-sampled rows).
    pub sample_cap: usize,
    /// Seed for the kmeans++ splitmix64 stream.
    pub seed: u64,
    /// Worker count for the parallel phases; `None` → [`resolve_threads`].
    /// Any value yields byte-identical indexes — this knob exists so tests
    /// can pin thread counts without racing on the environment.
    pub threads: Option<usize>,
}

impl Default for IvfParams {
    fn default() -> IvfParams {
        IvfParams {
            n_clusters: None,
            n_probe: None,
            iters: 6,
            sample_cap: 16_384,
            seed: 0x1df5_eed0,
            threads: None,
        }
    }
}

/// A trained IVF index: unit-norm (or zero) dense centroids, and the
/// pool rows copied into one sparse matrix in list order — cluster, then
/// ascending pool id — with each row's pool id and the offset where each
/// list starts.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    dim: usize,
    n_probe: usize,
    centroids: Vec<f32>,
    rows: SparseMatrix,
    ids: Vec<u32>,
    starts: Vec<u32>,
}

/// splitmix64 step — the only randomness source in training, fully
/// determined by `IvfParams::seed`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Append row `i` of `m` to `out`, scaled to unit norm (an empty row if
/// it has zero norm). Lanes the division leaves at `+0.0` are dropped,
/// as [`SparseMatrix::push_row`] would drop them. Training reads only the
/// sample's entries, so its stored norm is just "unit or zero".
fn push_normalized(m: &SparseMatrix, i: usize, out: &mut SparseMatrix) {
    let n = m.norm(i);
    let (mut lanes, mut values) = (Vec::new(), Vec::new());
    if n != 0.0 {
        let (src_lanes, src_values) = m.row(i);
        for (&l, &x) in src_lanes.iter().zip(src_values) {
            let y = x / n;
            if y.to_bits() != 0 {
                lanes.push(l);
                values.push(y);
            }
        }
    }
    out.push_entries(&lanes, &values, if n == 0.0 { 0.0 } else { 1.0 });
}

/// Nearest centroid of row `i` by dot product, ties to the lowest index.
/// Centroids are unit-or-zero norm and ranking by dot is scale-invariant
/// for positive row norms, so this is cosine assignment without divisions.
#[inline]
fn nearest_centroid(m: &SparseMatrix, i: usize, centroids: &[f32], dim: usize) -> u32 {
    let (lanes, values) = m.row(i);
    let mut best = 0u32;
    let mut best_score = f32::NEG_INFINITY;
    for (j, c) in centroids.chunks_exact(dim).enumerate() {
        let s = sparse_dot(lanes, values, c);
        if s > best_score {
            best_score = s;
            best = j as u32;
        }
    }
    best
}

/// Assign rows `0..out.len()` of `m` to their nearest centroids, sharded
/// across `threads` workers. Each assignment is a pure function of one
/// row, so the output is byte-identical for any worker count.
fn assign_all(m: &SparseMatrix, centroids: &[f32], threads: usize, out: &mut [u32]) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let dim = m.dim();
    let threads = threads.max(1).min(n);
    if threads == 1 || n < crate::shard::PARALLEL_THRESHOLD {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = nearest_centroid(m, i, centroids, dim);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slice) in out.chunks_mut(chunk).enumerate() {
            let lo = t * chunk;
            scope.spawn(move || {
                for (off, slot) in slice.iter_mut().enumerate() {
                    *slot = nearest_centroid(m, lo + off, centroids, dim);
                }
            });
        }
    });
}

impl IvfIndex {
    /// Cluster the first `rows` rows of `matrix` into inverted lists.
    ///
    /// Training normalizes a deterministic stride sample of the rows, seeds
    /// centroids with kmeans++, runs `params.iters` Lloyd iterations
    /// (assignment parallel, f64 centroid accumulation sequential in row
    /// order), then assigns every pool row to its final centroid and copies
    /// the rows into list order.
    pub fn train(matrix: &SparseMatrix, rows: usize, params: &IvfParams) -> IvfIndex {
        assert!(rows <= matrix.len(), "train rows exceed matrix length");
        let dim = matrix.dim();
        let k = params
            .n_clusters
            .unwrap_or_else(|| ((rows as f64).sqrt() as usize / 4).clamp(1, 128))
            .clamp(1, rows.max(1));
        let n_probe = params.n_probe.unwrap_or_else(|| (k / 8).max(1)).clamp(1, k);
        let threads = params.threads.unwrap_or_else(resolve_threads);

        if rows == 0 {
            return IvfIndex {
                dim,
                n_probe,
                centroids: vec![0.0; k * dim],
                rows: SparseMatrix::with_dim(dim),
                ids: Vec::new(),
                starts: vec![0; k + 1],
            };
        }

        // Deterministic stride sample of `s` rows, normalized once.
        let s = rows.min(params.sample_cap.max(k));
        let mut sample = SparseMatrix::with_capacity(dim, s);
        for i in 0..s {
            let src = i * rows / s; // floor stride: covers the pool evenly
            push_normalized(matrix, src, &mut sample);
        }

        // kmeans++ seeding on the sample (single-threaded, seeded).
        let mut rng = params.seed;
        let mut centroids = vec![0f32; k * dim];
        let first = (splitmix64(&mut rng) % s as u64) as usize;
        sample.densify_into(first, &mut centroids[..dim]);
        // d2[i] = squared distance on the unit sphere to the nearest chosen
        // centroid so far: 2 - 2·dot, clamped at 0 for rounding.
        let mut d2: Vec<f64> = (0..s)
            .map(|i| (2.0 - 2.0 * sample.dot(i, &centroids[..dim]) as f64).max(0.0))
            .collect();
        for j in 1..k {
            let total: f64 = d2.iter().sum();
            let pick = if total <= 0.0 {
                // Degenerate sample (all points already covered): fall back
                // to a deterministic spread.
                j * s / k
            } else {
                let r = (splitmix64(&mut rng) as f64 / (u64::MAX as f64 + 1.0)) * total;
                let mut acc = 0.0;
                let mut chosen = s - 1;
                for (i, &w) in d2.iter().enumerate() {
                    acc += w;
                    if acc > r {
                        chosen = i;
                        break;
                    }
                }
                chosen
            };
            let centroid = &mut centroids[j * dim..(j + 1) * dim];
            sample.densify_into(pick, centroid);
            for (i, d) in d2.iter_mut().enumerate() {
                let nd = (2.0 - 2.0 * sample.dot(i, centroid) as f64).max(0.0);
                if nd < *d {
                    *d = nd;
                }
            }
        }

        // Lloyd iterations on the sample.
        let mut assign = vec![0u32; s];
        let mut sums = vec![0f64; k * dim];
        let mut counts = vec![0u64; k];
        for _ in 0..params.iters {
            assign_all(&sample, &centroids, threads, &mut assign);
            sums.fill(0.0);
            counts.fill(0);
            // Sequential accumulation in sample order: thread-count cannot
            // perturb the f64 sums. Only stored lanes are added: a sum
            // that starts at +0.0 never becomes -0.0, so the +0.0 a
            // skipped lane would add leaves it unchanged.
            for (i, &c) in assign.iter().enumerate() {
                let c = c as usize;
                counts[c] += 1;
                let acc = &mut sums[c * dim..(c + 1) * dim];
                let (lanes, values) = sample.row(i);
                for (&l, &v) in lanes.iter().zip(values) {
                    acc[l as usize] += v as f64;
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    continue; // empty cluster keeps its previous centroid
                }
                let acc = &sums[c * dim..(c + 1) * dim];
                let norm: f64 = acc.iter().map(|v| v * v).sum::<f64>().sqrt();
                let out = &mut centroids[c * dim..(c + 1) * dim];
                if norm == 0.0 {
                    out.fill(0.0);
                } else {
                    for (o, v) in out.iter_mut().zip(acc) {
                        *o = (*v / norm) as f32;
                    }
                }
            }
        }

        // Final assignment of the full pool. Raw (unnormalized) rows rank
        // centroids identically to normalized ones; zero rows tie
        // everywhere and land in cluster 0 via the lowest-index rule.
        let mut pool_assign = vec![0u32; rows];
        assign_all(matrix, &centroids, threads, &mut pool_assign);

        // List order: by cluster, and (the sort is stable) by ascending
        // pool id within a list.
        let mut ids: Vec<u32> = (0..rows as u32).collect();
        ids.sort_by_key(|&i| pool_assign[i as usize]);
        let mut starts = vec![0u32; k + 1];
        for &c in &pool_assign {
            starts[c as usize + 1] += 1;
        }
        for c in 0..k {
            starts[c + 1] += starts[c];
        }
        let mut list_rows = SparseMatrix::with_capacity(dim, rows);
        list_rows.reserve_entries((0..rows).map(|i| matrix.row(i).0.len()).sum());
        for &id in &ids {
            let (lanes, values) = matrix.row(id as usize);
            list_rows.push_entries(lanes, values, matrix.norm(id as usize));
        }
        IvfIndex {
            dim,
            n_probe,
            centroids,
            rows: list_rows,
            ids,
            starts,
        }
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.starts.len() - 1
    }

    /// Default probe width used by [`IvfIndex::search`].
    pub fn n_probe(&self) -> usize {
        self.n_probe
    }

    /// Centroids, row-major `n_clusters × dim`, each unit-norm or zero.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Reconstruct the per-row cluster assignment (index `i` → cluster id),
    /// the byte-comparable artifact the determinism property test pins.
    pub fn assignments(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.ids.len()];
        for (c, w) in self.starts.windows(2).enumerate() {
            for &id in &self.ids[w[0] as usize..w[1] as usize] {
                out[id as usize] = c as u32;
            }
        }
        out
    }

    /// Ids of the `n_probe` centroids nearest to `query` (score desc,
    /// centroid index asc — the same deterministic order as everything
    /// else).
    fn probe(&self, query: &[f32], n_probe: usize) -> Vec<(f32, u32)> {
        let mut heap = TopK::new(n_probe.clamp(1, self.n_clusters()));
        for (j, c) in self.centroids.chunks_exact(self.dim).enumerate() {
            heap.push(dot(query, c), j as u32);
        }
        heap.into_sorted()
    }

    /// [`Self::search_with_probe`] at the stored probe width.
    pub fn search(&self, query: &[f32], k: usize) -> (Vec<(f32, u32)>, usize) {
        self.search_with_probe(query, k, self.n_probe)
    }

    /// Top-k by exact f32 cosine over the rows of the `n_probe` probed
    /// lists, as `(score, pool_id)` best first, plus the number of rows
    /// scored. Scoring is [`SparseMatrix::cosine`] — bit-identical
    /// arithmetic to the exact scan — and ties break by pool id, so with
    /// `n_probe = n_clusters` the result equals the exact top-k, ties
    /// included.
    pub fn search_with_probe(
        &self,
        query: &[f32],
        k: usize,
        n_probe: usize,
    ) -> (Vec<(f32, u32)>, usize) {
        let mut heap = TopK::new(k);
        let mut scanned = 0usize;
        for &(_, c) in &self.probe(query, n_probe) {
            let (lo, hi) = (
                self.starts[c as usize] as usize,
                self.starts[c as usize + 1] as usize,
            );
            scanned += hi - lo;
            for (s, &id) in self.rows.scores(query, lo, hi).zip(&self.ids[lo..hi]) {
                heap.push(s, id);
            }
        }
        if obskit::enabled() {
            obskit::current().add_counter("retrievekit.scored", scanned as u64);
            obskit::current().add_counter("retrievekit.ivf_probes", n_probe as u64);
        }
        (heap.into_sorted(), scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::full_sort;

    fn dense_row(m: &SparseMatrix, i: usize) -> Vec<f32> {
        let mut row = vec![0f32; m.dim()];
        m.densify_into(i, &mut row);
        row
    }

    fn clustered_matrix(rows: usize, dim: usize) -> SparseMatrix {
        // Three well-separated directions plus per-row jitter, L2-normalized
        // like real textkit embeddings.
        let mut m = SparseMatrix::with_capacity(dim, rows);
        let mut row = vec![0f32; dim];
        for i in 0..rows {
            let center = i % 3;
            for (j, x) in row.iter_mut().enumerate() {
                let base = if j % 3 == center { 1.0 } else { 0.05 };
                *x = base + 0.1 * (((i * 31 + j * 7) as f32) * 0.13).sin();
            }
            let n = dot(&row, &row).sqrt();
            for x in row.iter_mut() {
                *x /= n;
            }
            m.push_row(&row);
        }
        m
    }

    fn exact_top_k(m: &SparseMatrix, q: &[f32], k: usize) -> Vec<(f32, u32)> {
        full_sort(m.scores(q, 0, m.len()), k)
    }

    #[test]
    fn full_probe_equals_exact_top_k() {
        let m = clustered_matrix(500, 32);
        let idx = IvfIndex::train(
            &m,
            m.len(),
            &IvfParams {
                n_clusters: Some(8),
                threads: Some(1),
                ..IvfParams::default()
            },
        );
        for qi in [0usize, 7, 123, 499] {
            let q = dense_row(&m, qi);
            let (got, scored) = idx.search_with_probe(&q, 6, idx.n_clusters());
            assert_eq!(got, exact_top_k(&m, &q, 6), "query row {qi}");
            assert_eq!(scored, m.len());
        }
    }

    #[test]
    fn default_probe_finds_the_query_cluster() {
        let m = clustered_matrix(600, 32);
        let idx = IvfIndex::train(
            &m,
            m.len(),
            &IvfParams {
                n_clusters: Some(6),
                n_probe: Some(2),
                threads: Some(1),
                ..IvfParams::default()
            },
        );
        // A pool row is its own nearest neighbor; the probed cluster that
        // contains it must be found.
        for qi in [3usize, 50, 77] {
            let q = dense_row(&m, qi);
            let (got, _) = idx.search(&q, 1);
            assert_eq!(got[0].1, qi as u32, "row {qi} should be its own top-1");
        }
    }

    #[test]
    fn empty_and_tiny_pools_are_handled() {
        let m = SparseMatrix::with_dim(8);
        let idx = IvfIndex::train(&m, 0, &IvfParams::default());
        assert_eq!(idx.search(&[0.5; 8], 3), (Vec::new(), 0));
        let mut one = SparseMatrix::with_dim(8);
        one.push_row(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let idx1 = IvfIndex::train(&one, 1, &IvfParams::default());
        assert_eq!(idx1.n_clusters(), 1);
        let (got, _) = idx1.search(&[1.0; 8], 3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 0);
    }

    #[test]
    fn zero_rows_land_in_cluster_zero() {
        let mut m = SparseMatrix::with_dim(8);
        for i in 0..20 {
            let mut row = [0f32; 8];
            row[i % 8] = 1.0;
            m.push_row(&row);
        }
        m.push_row(&[0.0; 8]);
        let idx = IvfIndex::train(
            &m,
            m.len(),
            &IvfParams {
                n_clusters: Some(4),
                threads: Some(1),
                ..IvfParams::default()
            },
        );
        assert_eq!(idx.assignments()[20], 0);
    }
}
