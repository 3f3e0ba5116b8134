//! Property tests pinning the IVF contracts from the module docs:
//!
//! 1. **Thread-count invariance** — training with 1 worker and 4 workers
//!    produces identical cluster assignments and bit-identical centroids.
//!    Pools are drawn *above* `PARALLEL_THRESHOLD` so the sharded
//!    assignment path genuinely runs; a small-pool sweep would pass
//!    vacuously through the sequential branch.
//! 2. **Full-probe degeneracy** — probing every cluster must reproduce the
//!    exact top-k, ties included: candidate scoring is the same f32
//!    arithmetic as the exact scan and `TopK`'s total order makes the
//!    result push-order-independent, so partitioning cannot show through.
//!
//! The index trains on and searches sparse rows; the exact top-k it must
//! reproduce is scored on the dense oracle built from the same rows.
//! Matrices are built from a proptest-supplied seed through a local
//! splitmix64 so a failing case shrinks to a tiny reproducible tuple
//! instead of a 100k-element vector.

use proptest::prelude::*;
use retrievekit::ivf::{IvfIndex, IvfParams};
use retrievekit::{full_sort, EmbeddingMatrix, SparseMatrix, PARALLEL_THRESHOLD};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Unit interval draw from the seed stream.
fn unit(state: &mut u64) -> f32 {
    (splitmix64(state) >> 40) as f32 / (1u64 << 24) as f32
}

/// A seeded pool, as sparse rows and as the dense oracle, with mild
/// cluster structure, about a third of the lanes left at zero, and heavy
/// duplication — every 7th row repeats an earlier one, so exact ties exist
/// and the tie-breaking half of the contracts is actually exercised.
fn seeded_matrix(seed: u64, rows: usize, dim: usize) -> (SparseMatrix, EmbeddingMatrix) {
    let mut state = seed;
    let mut sparse = SparseMatrix::with_capacity(dim, rows);
    let mut dense = EmbeddingMatrix::with_capacity(dim, rows);
    let mut row = vec![0f32; dim];
    for i in 0..rows {
        if i % 7 == 6 && i > 0 {
            let dup = (splitmix64(&mut state) as usize) % i;
            let prev = dense.row(dup).to_vec();
            sparse.push_row(&prev);
            dense.push_row(&prev);
            continue;
        }
        let center = i % 4;
        for (j, x) in row.iter_mut().enumerate() {
            let base = if j % 4 == center { 0.8 } else { 0.1 };
            let jitter = unit(&mut state);
            *x = if j % 4 != center && jitter < 0.45 {
                0.0
            } else {
                base + 0.3 * (jitter - 0.5)
            };
        }
        sparse.push_row(&row);
        dense.push_row(&row);
    }
    (sparse, dense)
}

proptest! {
    // Pools above PARALLEL_THRESHOLD make these cases expensive; a handful
    // of cases at full size beats hundreds of vacuously-sequential ones.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// k-means training is byte-identical across worker counts.
    #[test]
    fn training_is_thread_count_invariant(
        seed in any::<u64>(),
        extra in 0usize..600,
        dim in 6usize..20,
        k in 2usize..9,
    ) {
        let rows = PARALLEL_THRESHOLD + extra;
        let (m, _) = seeded_matrix(seed, rows, dim);
        let params = |threads| IvfParams {
            n_clusters: Some(k),
            iters: 3,
            threads: Some(threads),
            ..IvfParams::default()
        };
        let idx1 = IvfIndex::train(&m, rows, &params(1));
        let idx4 = IvfIndex::train(&m, rows, &params(4));
        let bits = |idx: &IvfIndex| idx.centroids().iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(idx1.assignments(), idx4.assignments());
        prop_assert_eq!(bits(&idx1), bits(&idx4));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Probing every cluster reproduces the exact top-k, ties included.
    #[test]
    fn full_probe_equals_exact_top_k(
        seed in any::<u64>(),
        rows in 1usize..300,
        dim in 4usize..24,
        k in 1usize..12,
        clusters in 1usize..8,
        query_pick in any::<usize>(),
    ) {
        let (m, dense) = seeded_matrix(seed, rows, dim);
        let idx = IvfIndex::train(&m, rows, &IvfParams {
            n_clusters: Some(clusters.min(rows)),
            iters: 2,
            threads: Some(1),
            ..IvfParams::default()
        });
        let q = dense.row(query_pick % rows).to_vec();
        let (got, scored) = idx.search_with_probe(&q, k, idx.n_clusters());
        let want = full_sort(dense.scores(&q, 0, rows), k);
        prop_assert_eq!(got, want);
        prop_assert_eq!(scored, rows);
    }
}
