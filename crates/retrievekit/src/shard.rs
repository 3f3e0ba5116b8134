//! Sharded pool scoring: split the sparse matrix rows across workers,
//! take a local top-k per shard, merge via the k-way heap.
//!
//! Sharding kicks in only for pools of at least [`PARALLEL_THRESHOLD`]
//! rows — below that, thread spawn/join costs more than the scan. Scores
//! are a pure function of `(row, query)` and shard results carry global
//! indices, so the merged answer is bit-identical for any worker count
//! (the CLI test `select_bench_is_thread_invariant_and_pins_the_exact_checksum`
//! runs `select-bench` under `DAIL_THREADS=1` and `=4` and byte-compares
//! the reports).

use crate::sparse::SparseMatrix;
use crate::topk::{merge_top_k, TopK};

/// Pool size below which scoring stays single-threaded.
pub const PARALLEL_THRESHOLD: usize = 4096;

/// Worker count for sharded scoring and for the eval harness: the
/// `DAIL_THREADS` environment variable when set to a positive integer,
/// else available parallelism.
///
/// Silent on unparsable input: the CLI warns about it once at start-up,
/// and this runs thousands of times per evaluation.
pub fn resolve_threads() -> usize {
    std::env::var("DAIL_THREADS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Cosine-score the first `rows` rows of `matrix` against `query` and
/// return the top `k` as `(score, row_index)`, best first. Scores are
/// bit-identical to [`crate::EmbeddingMatrix::cosine`] on the dense rows,
/// so the answer equals [`crate::full_sort`] over the dense oracle.
///
/// Uses sharded scoring across [`resolve_threads`] workers when the pool
/// is large enough; the result is identical either way. Below
/// [`PARALLEL_THRESHOLD`] the scan stays on this thread, so the worker
/// count is not resolved at all.
pub fn top_k_cosine(
    matrix: &SparseMatrix,
    query: &[f32],
    rows: usize,
    k: usize,
) -> Vec<(f32, u32)> {
    let threads = if rows.min(matrix.len()) < PARALLEL_THRESHOLD {
        1
    } else {
        resolve_threads()
    };
    top_k_cosine_with_threads(matrix, query, rows, k, threads)
}

/// [`top_k_cosine`] across an explicit worker count, so tests can pin it
/// without racing on the environment. Any count gives the same answer.
pub fn top_k_cosine_with_threads(
    matrix: &SparseMatrix,
    query: &[f32],
    rows: usize,
    k: usize,
    threads: usize,
) -> Vec<(f32, u32)> {
    let rows = rows.min(matrix.len());
    if obskit::enabled() {
        obskit::current().add_counter("retrievekit.scored", rows as u64);
    }
    let threads = threads.min(rows.max(1));
    if rows < PARALLEL_THRESHOLD || threads <= 1 {
        return scan(matrix, query, 0, rows, k);
    }
    let chunk = rows.div_ceil(threads);
    let lists: Vec<Vec<(f32, u32)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(rows);
                scope.spawn(move || scan(matrix, query, lo, hi, k))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoring shard panicked"))
            .collect()
    });
    merge_top_k(&lists, k)
}

/// [`top_k_cosine`] wrapped in a `retrievekit.score` span under the
/// request's trace context. Scoring is unchanged — the span only makes
/// the retrieval stage visible in per-request trace trees.
pub fn top_k_cosine_traced(
    matrix: &SparseMatrix,
    query: &[f32],
    rows: usize,
    k: usize,
    trace: obskit::TraceContext,
) -> Vec<(f32, u32)> {
    let (_span, _) = trace.span("retrievekit.score");
    top_k_cosine(matrix, query, rows, k)
}

/// One shard's streaming scan over rows `lo..hi` (global indices kept).
fn scan(matrix: &SparseMatrix, query: &[f32], lo: usize, hi: usize, k: usize) -> Vec<(f32, u32)> {
    let mut heap = TopK::new(k);
    for (i, s) in matrix.scores(query, lo, hi).enumerate() {
        heap.push(s, (lo + i) as u32);
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, dim: usize) -> SparseMatrix {
        let mut m = SparseMatrix::with_capacity(dim, rows);
        let mut row = vec![0f32; dim];
        for i in 0..rows {
            for (j, x) in row.iter_mut().enumerate() {
                *x = ((i * 31 + j * 7) % 17) as f32 / 17.0 - 0.5;
            }
            m.push_row(&row);
        }
        m
    }

    #[test]
    fn sharded_matches_single_threaded_above_threshold() {
        let m = matrix(PARALLEL_THRESHOLD + 100, 16);
        let query: Vec<f32> = (0..16).map(|j| (j as f32 * 0.3).sin()).collect();
        let single = {
            let mut heap = TopK::new(7);
            for i in 0..m.len() {
                heap.push(m.cosine(i, &query), i as u32);
            }
            heap.into_sorted()
        };
        for threads in [1, 2, 4] {
            assert_eq!(
                top_k_cosine_with_threads(&m, &query, m.len(), 7, threads),
                single
            );
        }
    }

    #[test]
    fn row_prefix_restricts_the_pool() {
        let m = matrix(64, 8);
        let query = vec![0.25f32; 8];
        let got = top_k_cosine(&m, &query, 10, 3);
        assert!(got.iter().all(|&(_, i)| i < 10));
        assert_eq!(got.len(), 3);
    }
}
