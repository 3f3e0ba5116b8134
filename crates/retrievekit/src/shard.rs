//! Sharded pool scoring: split the matrix rows across workers, take a
//! local top-k per shard, merge via the k-way heap.
//!
//! Sharding kicks in only for pools of at least [`PARALLEL_THRESHOLD`]
//! rows — below that, thread spawn/join costs more than the scan. Scores
//! are a pure function of `(row, query)` and shard results carry global
//! indices, so the merged answer is bit-identical for any worker count
//! (the `scripts/check.sh` golden gate runs `select-bench` under
//! `DAIL_THREADS=1` and `=4` and byte-compares the reports).

use crate::matrix::EmbeddingMatrix;
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
/// return the top `k` as `(score, row_index)`, best first.
///
/// Uses sharded scoring when the pool is large enough and more than one
/// worker is available; the result is identical either way.
pub fn top_k_cosine(
    matrix: &EmbeddingMatrix,
    query: &[f32],
    rows: usize,
    k: usize,
) -> Vec<(f32, u32)> {
    let rows = rows.min(matrix.len());
    if obskit::enabled() {
        obskit::current().add_counter("retrievekit.scored", rows as u64);
    }
    let threads = resolve_threads().min(rows.max(1));
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
    matrix: &EmbeddingMatrix,
    query: &[f32],
    rows: usize,
    k: usize,
    trace: obskit::TraceContext,
) -> Vec<(f32, u32)> {
    let (_span, _) = trace.span("retrievekit.score");
    top_k_cosine(matrix, query, rows, k)
}

/// One shard's streaming scan over rows `lo..hi` (global indices kept).
fn scan(
    matrix: &EmbeddingMatrix,
    query: &[f32],
    lo: usize,
    hi: usize,
    k: usize,
) -> Vec<(f32, u32)> {
    let mut heap = TopK::new(k);
    for (i, s) in matrix.scores(query, lo, hi).enumerate() {
        heap.push(s, (lo + i) as u32);
    }
    heap.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix(rows: usize, dim: usize) -> EmbeddingMatrix {
        let mut m = EmbeddingMatrix::with_capacity(dim, rows);
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
        // Whatever DAIL_THREADS says, the sharded result must agree.
        assert_eq!(top_k_cosine(&m, &query, m.len(), 7), single);
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
