//! IVF (inverted-file) approximate retrieval: deterministic k-means over
//! the embedding matrix, inverted lists per centroid, and probed search
//! with exact rerank.
//!
//! The exact sharded scan ([`crate::top_k_cosine`]) is O(n·d) per query;
//! at a million pool rows that is half a gigaflop per selection. An IVF
//! index spends a one-time clustering pass to partition rows into
//! `n_clusters` inverted lists, then answers each query by scoring only
//! the lists of the `n_probe` nearest centroids — a tunable fraction of
//! the pool — while the final top-k is always computed from
//! **full-precision f32 cosines** with the committed score-desc/index-asc
//! tie-breaking. Approximation can therefore *drop* a true neighbor whose
//! cluster went unprobed (measured as recall@k by `select-bench`), but it
//! can never *reorder* the candidates it does see.
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
//! The `proptest_ivf.rs` suite pins all three contracts: thread-count
//! invariance, full-probe degeneracy (`n_probe = n_clusters` ≡ exact
//! top-k), and the bounded-error int8 kernel.

use crate::matrix::{dot, EmbeddingMatrix};
use crate::quant::{quantize_query, QuantizedMatrix};
use crate::shard::resolve_threads;
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
    /// IVF probe + int8 candidate generation, then exact f32 rerank of the
    /// shortlist. ~4× less scan bandwidth; the rerank keeps the final
    /// ordering a function of exact scores.
    IvfInt8,
}

impl RetrievalMode {
    /// Stable lowercase name, as reports print it.
    pub fn as_str(&self) -> &'static str {
        match self {
            RetrievalMode::Exact => "exact",
            RetrievalMode::Ivf => "ivf",
            RetrievalMode::IvfInt8 => "ivf-int8",
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

/// A trained IVF index: unit-norm (or zero) centroids plus one ascending
/// inverted list of row ids per centroid.
#[derive(Debug, Clone, PartialEq)]
pub struct IvfIndex {
    dim: usize,
    rows: usize,
    n_probe: usize,
    centroids: Vec<f32>,
    lists: Vec<Vec<u32>>,
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

/// Copy row `i` of `m` into `out`, scaled to unit norm (zeros if the row
/// has zero norm).
fn normalized_row(m: &EmbeddingMatrix, i: usize, out: &mut [f32]) {
    let n = m.norm(i);
    if n == 0.0 {
        out.fill(0.0);
    } else {
        for (o, x) in out.iter_mut().zip(m.row(i)) {
            *o = x / n;
        }
    }
}

/// Nearest centroid of `x` by dot product, ties to the lowest index.
/// Centroids are unit-or-zero norm and ranking by dot is scale-invariant
/// for positive row norms, so this is cosine assignment without divisions.
#[inline]
fn nearest_centroid(x: &[f32], centroids: &[f32], dim: usize) -> u32 {
    let mut best = 0u32;
    let mut best_score = f32::NEG_INFINITY;
    for (j, c) in centroids.chunks_exact(dim).enumerate() {
        let s = dot(x, c);
        if s > best_score {
            best_score = s;
            best = j as u32;
        }
    }
    best
}

/// Assign every sample/row in `0..n` to its nearest centroid, sharded
/// across `threads` workers. Each assignment is a pure function of one
/// row, so the output is byte-identical for any worker count.
fn assign_all(rows: &[f32], dim: usize, centroids: &[f32], threads: usize, out: &mut [u32]) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let threads = threads.max(1).min(n);
    if threads == 1 || n < crate::shard::PARALLEL_THRESHOLD {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = nearest_centroid(&rows[i * dim..(i + 1) * dim], centroids, dim);
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        for (t, slice) in out.chunks_mut(chunk).enumerate() {
            let lo = t * chunk;
            scope.spawn(move || {
                for (off, slot) in slice.iter_mut().enumerate() {
                    let i = lo + off;
                    *slot = nearest_centroid(&rows[i * dim..(i + 1) * dim], centroids, dim);
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
    /// order), then assigns every pool row to its final centroid.
    pub fn train(matrix: &EmbeddingMatrix, rows: usize, params: &IvfParams) -> IvfIndex {
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
                rows: 0,
                n_probe,
                centroids: vec![0.0; k * dim],
                lists: vec![Vec::new(); k],
            };
        }

        // Deterministic stride sample of `s` rows, normalized once.
        let s = rows.min(params.sample_cap.max(k));
        let mut sample = vec![0f32; s * dim];
        for i in 0..s {
            let src = i * rows / s; // floor stride: covers the pool evenly
            normalized_row(matrix, src, &mut sample[i * dim..(i + 1) * dim]);
        }

        // kmeans++ seeding on the sample (single-threaded, seeded).
        let mut rng = params.seed;
        let mut centroids = vec![0f32; k * dim];
        let first = (splitmix64(&mut rng) % s as u64) as usize;
        centroids[..dim].copy_from_slice(&sample[first * dim..(first + 1) * dim]);
        // d2[i] = squared distance on the unit sphere to the nearest chosen
        // centroid so far: 2 - 2·dot, clamped at 0 for rounding.
        let mut d2 = vec![0f64; s];
        for (i, x) in sample.chunks_exact(dim).enumerate() {
            d2[i] = (2.0 - 2.0 * dot(x, &centroids[..dim]) as f64).max(0.0);
        }
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
            let (dst, src) = (j * dim, pick * dim);
            centroids[dst..dst + dim].copy_from_slice(&sample[src..src + dim]);
            for (i, x) in sample.chunks_exact(dim).enumerate() {
                let nd = (2.0 - 2.0 * dot(x, &centroids[dst..dst + dim]) as f64).max(0.0);
                if nd < d2[i] {
                    d2[i] = nd;
                }
            }
        }

        // Lloyd iterations on the sample.
        let mut assign = vec![0u32; s];
        let mut sums = vec![0f64; k * dim];
        let mut counts = vec![0u64; k];
        for _ in 0..params.iters {
            assign_all(&sample, dim, &centroids, threads, &mut assign);
            sums.fill(0.0);
            counts.fill(0);
            // Sequential accumulation in sample order: thread-count cannot
            // perturb the f64 sums.
            for (i, x) in sample.chunks_exact(dim).enumerate() {
                let c = assign[i] as usize;
                counts[c] += 1;
                let acc = &mut sums[c * dim..(c + 1) * dim];
                for (a, v) in acc.iter_mut().zip(x) {
                    *a += *v as f64;
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
        assign_all(
            &matrix.data()[..rows * dim],
            dim,
            &centroids,
            threads,
            &mut pool_assign,
        );
        let mut lists = vec![Vec::new(); k];
        for (i, &c) in pool_assign.iter().enumerate() {
            lists[c as usize].push(i as u32); // in-order push → ascending ids
        }
        IvfIndex {
            dim,
            rows,
            n_probe,
            centroids,
            lists,
        }
    }

    /// Row dimension the index was trained on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of pool rows the index covers.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of clusters.
    pub fn n_clusters(&self) -> usize {
        self.lists.len()
    }

    /// Default probe width used by [`IvfIndex::search`].
    pub fn n_probe(&self) -> usize {
        self.n_probe
    }

    /// Reconstruct the per-row cluster assignment (index `i` → cluster id),
    /// the byte-comparable artifact the determinism property test pins.
    pub fn assignments(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.rows];
        for (c, list) in self.lists.iter().enumerate() {
            for &id in list {
                out[id as usize] = c as u32;
            }
        }
        out
    }

    /// Ids of the `n_probe` centroids nearest to `query` (score desc,
    /// centroid index asc — the same deterministic order as everything
    /// else).
    fn probe(&self, query: &[f32], n_probe: usize) -> Vec<(f32, u32)> {
        let mut heap = TopK::new(n_probe.clamp(1, self.lists.len()));
        for (j, c) in self.centroids.chunks_exact(self.dim).enumerate() {
            heap.push(dot(query, c), j as u32);
        }
        heap.into_sorted()
    }

    /// Top-k by exact f32 cosine over the rows of the `n_probe` default
    /// probed lists. Equivalent to [`Self::search_with_probe`] at the
    /// stored probe width.
    pub fn search(&self, matrix: &EmbeddingMatrix, query: &[f32], k: usize) -> Vec<(f32, u32)> {
        self.search_with_probe(matrix, query, k, self.n_probe)
    }

    /// Top-k by exact f32 cosine over the rows of the `n_probe` probed
    /// lists. Scoring uses [`EmbeddingMatrix::cosine`] — bit-identical
    /// arithmetic to the exact scan — so with `n_probe = n_clusters` the
    /// result equals the exact top-k, ties included.
    pub fn search_with_probe(
        &self,
        matrix: &EmbeddingMatrix,
        query: &[f32],
        k: usize,
        n_probe: usize,
    ) -> Vec<(f32, u32)> {
        debug_assert!(matrix.len() >= self.rows, "index/matrix row mismatch");
        let mut heap = TopK::new(k);
        let mut scanned = 0u64;
        for &(_, c) in &self.probe(query, n_probe) {
            let list = &self.lists[c as usize];
            scanned += list.len() as u64;
            for &id in list {
                heap.push(matrix.cosine(id as usize, query), id);
            }
        }
        if obskit::enabled() {
            obskit::current().add_counter("retrievekit.scored", scanned);
            obskit::current().add_counter("retrievekit.ivf_probes", n_probe as u64);
        }
        heap.into_sorted()
    }

    /// Top-k with int8 candidate generation: probed lists are ranked by the
    /// quantized i32 dot kernel into a shortlist of `max(16k, 128)`, then the
    /// shortlist is reranked with exact f32 cosines. The approximate stage
    /// decides only *which* rows reach the rerank; final scores and
    /// ordering are full precision.
    pub fn search_quantized(
        &self,
        matrix: &EmbeddingMatrix,
        quant: &QuantizedMatrix,
        query: &[f32],
        k: usize,
    ) -> Vec<(f32, u32)> {
        self.search_quantized_with_probe(matrix, quant, query, k, self.n_probe)
    }

    /// [`Self::search_quantized`] with an explicit probe width.
    pub fn search_quantized_with_probe(
        &self,
        matrix: &EmbeddingMatrix,
        quant: &QuantizedMatrix,
        query: &[f32],
        k: usize,
        n_probe: usize,
    ) -> Vec<(f32, u32)> {
        debug_assert!(quant.len() >= self.rows, "index/quant row mismatch");
        let qq = quantize_query(query);
        // The int8 kernel resolves relative score gaps down to roughly
        // 1/127 per operand; near-duplicate pools pack many candidates
        // inside that band, so the shortlist must be much wider than k for
        // the true top-k to survive candidate generation. Reranking is
        // O(shortlist · d) against an O(candidates · d) scan, so a wide
        // margin costs almost nothing.
        let shortlist_n = (16 * k).max(128);
        let mut shortlist = TopK::new(shortlist_n);
        let mut scanned = 0u64;
        for &(_, c) in &self.probe(query, n_probe) {
            let list = &self.lists[c as usize];
            scanned += list.len() as u64;
            for &id in list {
                shortlist.push(quant.approx_cosine(id as usize, &qq), id);
            }
        }
        if obskit::enabled() {
            obskit::current().add_counter("retrievekit.scored", scanned);
            obskit::current().add_counter("retrievekit.ivf_probes", n_probe as u64);
        }
        let mut heap = TopK::new(k);
        for (_, id) in shortlist.into_sorted() {
            heap.push(matrix.cosine(id as usize, query), id);
        }
        heap.into_sorted()
    }

    /// Serialize to the DAILEMB1 `IVFIDX01` section payload:
    /// header (`dim`, `n_clusters`, `n_probe`, reserved, `rows`), centroid
    /// f32 bits, then per-cluster `[len u32][ascending ids u32 …]`, all
    /// little-endian.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ids: usize = self.lists.iter().map(|l| l.len()).sum();
        let mut out =
            Vec::with_capacity(24 + self.centroids.len() * 4 + self.lists.len() * 4 + ids * 4);
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.lists.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_probe as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&(self.rows as u64).to_le_bytes());
        for c in &self.centroids {
            out.extend_from_slice(&c.to_bits().to_le_bytes());
        }
        for list in &self.lists {
            out.extend_from_slice(&(list.len() as u32).to_le_bytes());
            for id in list {
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
        out
    }

    /// Parse a section payload written by [`Self::to_bytes`], validating
    /// shapes, list ordering, and that every row id appears exactly once.
    pub fn from_bytes(bytes: &[u8]) -> Result<IvfIndex, String> {
        fn take<'a>(b: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
            if b.len() < n {
                return Err(format!("ivf index truncated reading {what}"));
            }
            let (head, tail) = b.split_at(n);
            *b = tail;
            Ok(head)
        }
        let mut b = bytes;
        let u32_at = |raw: &[u8]| u32::from_le_bytes(raw.try_into().unwrap());
        let dim = u32_at(take(&mut b, 4, "dim")?) as usize;
        let k = u32_at(take(&mut b, 4, "n_clusters")?) as usize;
        let n_probe = u32_at(take(&mut b, 4, "n_probe")?) as usize;
        let reserved = u32_at(take(&mut b, 4, "reserved")?);
        let rows = u64::from_le_bytes(take(&mut b, 8, "rows")?.try_into().unwrap()) as usize;
        if reserved != 0 {
            return Err(format!("ivf index reserved field is {reserved}, want 0"));
        }
        if dim == 0 || k == 0 {
            return Err("ivf index has zero dim or zero clusters".to_string());
        }
        if n_probe == 0 || n_probe > k {
            return Err(format!("ivf index n_probe {n_probe} out of range 1..={k}"));
        }
        let mut centroids = Vec::with_capacity(k * dim);
        for raw in take(&mut b, k * dim * 4, "centroids")?.chunks_exact(4) {
            centroids.push(f32::from_bits(u32_at(raw)));
        }
        let mut lists = Vec::with_capacity(k);
        let mut seen = vec![false; rows];
        let mut total = 0usize;
        for c in 0..k {
            let len = u32_at(take(&mut b, 4, "list length")?) as usize;
            let mut list = Vec::with_capacity(len);
            let mut prev: Option<u32> = None;
            for raw in take(&mut b, len * 4, "list ids")?.chunks_exact(4) {
                let id = u32_at(raw);
                if id as usize >= rows {
                    return Err(format!("ivf list {c} id {id} out of range (rows {rows})"));
                }
                if prev.is_some_and(|p| p >= id) {
                    return Err(format!("ivf list {c} ids not strictly ascending"));
                }
                if seen[id as usize] {
                    return Err(format!("ivf row id {id} appears in two lists"));
                }
                seen[id as usize] = true;
                prev = Some(id);
                list.push(id);
            }
            total += len;
            lists.push(list);
        }
        if !b.is_empty() {
            return Err(format!("ivf index has {} trailing bytes", b.len()));
        }
        if total != rows {
            return Err(format!("ivf lists cover {total} rows, header says {rows}"));
        }
        Ok(IvfIndex {
            dim,
            rows,
            n_probe,
            centroids,
            lists,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::full_sort;

    fn clustered_matrix(rows: usize, dim: usize) -> EmbeddingMatrix {
        // Three well-separated directions plus per-row jitter, L2-normalized
        // like real textkit embeddings.
        let mut m = EmbeddingMatrix::with_capacity(dim, rows);
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

    fn exact_top_k(m: &EmbeddingMatrix, q: &[f32], k: usize) -> Vec<(f32, u32)> {
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
            let q = m.row(qi).to_vec();
            let got = idx.search_with_probe(&m, &q, 6, idx.n_clusters());
            assert_eq!(got, exact_top_k(&m, &q, 6), "query row {qi}");
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
            let q = m.row(qi).to_vec();
            let got = idx.search(&m, &q, 1);
            assert_eq!(got[0].1, qi as u32, "row {qi} should be its own top-1");
        }
    }

    #[test]
    fn quantized_search_reranks_with_exact_scores() {
        let m = clustered_matrix(400, 32);
        let quant = QuantizedMatrix::from_matrix(&m);
        let idx = IvfIndex::train(
            &m,
            m.len(),
            &IvfParams {
                n_clusters: Some(5),
                threads: Some(1),
                ..IvfParams::default()
            },
        );
        let q = m.row(42).to_vec();
        let got = idx.search_quantized_with_probe(&m, &quant, &q, 4, idx.n_clusters());
        // Full probe + shortlist ≥ 4k means the true top-4 survive candidate
        // generation here; scores must be the exact f32 cosines.
        let want = exact_top_k(&m, &q, 4);
        assert_eq!(got, want);
        for &(s, id) in &got {
            assert_eq!(s.to_bits(), m.cosine(id as usize, &q).to_bits());
        }
    }

    #[test]
    fn serialization_round_trips() {
        let m = clustered_matrix(300, 16);
        let idx = IvfIndex::train(
            &m,
            m.len(),
            &IvfParams {
                n_clusters: Some(7),
                threads: Some(1),
                ..IvfParams::default()
            },
        );
        let bytes = idx.to_bytes();
        let back = IvfIndex::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, idx);
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let m = clustered_matrix(50, 8);
        let idx = IvfIndex::train(
            &m,
            m.len(),
            &IvfParams {
                n_clusters: Some(3),
                threads: Some(1),
                ..IvfParams::default()
            },
        );
        let good = idx.to_bytes();
        assert!(IvfIndex::from_bytes(&good[..good.len() - 1])
            .unwrap_err()
            .contains("truncated"));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(IvfIndex::from_bytes(&trailing)
            .unwrap_err()
            .contains("trailing"));
        let mut bad_probe = good.clone();
        bad_probe[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(IvfIndex::from_bytes(&bad_probe)
            .unwrap_err()
            .contains("n_probe"));
    }

    #[test]
    fn empty_and_tiny_pools_are_handled() {
        let m = EmbeddingMatrix::with_dim(8);
        let idx = IvfIndex::train(&m, 0, &IvfParams::default());
        assert!(idx.search(&m, &[0.5; 8], 3).is_empty());
        let mut one = EmbeddingMatrix::with_dim(8);
        one.push_row(&[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]);
        let idx1 = IvfIndex::train(&one, 1, &IvfParams::default());
        assert_eq!(idx1.n_clusters(), 1);
        let got = idx1.search(&one, &[1.0; 8], 3);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, 0);
    }

    #[test]
    fn zero_rows_land_in_cluster_zero() {
        let mut m = EmbeddingMatrix::with_dim(8);
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
