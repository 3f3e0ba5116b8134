//! Property tests pinning the sparse kernel to the dense oracle, bit for
//! bit.
//!
//! [`SparseMatrix`] skips the lanes a row leaves at `+0.0` and keeps
//! `retrievekit::dot`'s accumulator layout, so every cosine must carry the
//! dense kernel's exact bits. The rows are adversarial for that claim:
//! signed values over several magnitudes, explicit `-0.0` lanes, empty
//! rows, rows with every lane set, and widths 1–67 so most widths leave
//! tail lanes outside the 4-lane blocks. Matrices come from a
//! proptest-supplied seed through a local splitmix64, so a failing case
//! shrinks to a small reproducible tuple.

use proptest::prelude::*;
use retrievekit::{
    full_sort, top_k_cosine_with_threads, EmbeddingMatrix, SparseMatrix, PARALLEL_THRESHOLD,
};

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One signed lane value: `+0.0`, `-0.0`, or a non-zero over six orders of
/// magnitude, in proportions that leave most lanes of a sparse row zero.
fn lane_value(state: &mut u64, density: u64) -> f32 {
    let r = splitmix64(state);
    if r % 100 >= density {
        return 0.0;
    }
    match (r >> 8) % 10 {
        0 => -0.0,
        _ => {
            let mag =
                ((r >> 16) % 1_000_000) as f32 / 1000.0 * 10f32.powi(-(((r >> 40) % 4) as i32));
            if (r >> 48) & 1 == 0 {
                mag
            } else {
                -mag
            }
        }
    }
}

/// A seeded pool as sparse rows and as the dense oracle. Row kinds cycle
/// through empty, all lanes set, sparse, and a duplicate of an earlier row
/// (so exact score ties exist).
fn seeded_pool(seed: u64, rows: usize, dim: usize) -> (SparseMatrix, EmbeddingMatrix) {
    let mut state = seed;
    let mut sparse = SparseMatrix::with_capacity(dim, rows);
    let mut dense = EmbeddingMatrix::with_capacity(dim, rows);
    let mut row = vec![0f32; dim];
    for i in 0..rows {
        match splitmix64(&mut state) % 8 {
            0 => row.fill(0.0),
            1 => {
                for x in row.iter_mut() {
                    *x = lane_value(&mut state, 100);
                    if x.to_bits() == 0 {
                        *x = -0.0;
                    }
                }
            }
            2 if i > 0 => row.copy_from_slice(dense.row(splitmix64(&mut state) as usize % i)),
            _ => {
                for x in row.iter_mut() {
                    *x = lane_value(&mut state, 15);
                }
            }
        }
        sparse.push_row(&row);
        dense.push_row(&row);
    }
    (sparse, dense)
}

/// A finite query with the same lane mix as a sparse row, denser.
fn seeded_query(seed: u64, dim: usize) -> Vec<f32> {
    let mut state = seed ^ 0x5eed_0f7e_57ed;
    (0..dim).map(|_| lane_value(&mut state, 60)).collect()
}

fn bits(xs: impl Iterator<Item = f32>) -> Vec<u32> {
    xs.map(f32::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Norms, per-row cosines and the scan stream carry the dense bits.
    #[test]
    fn sparse_cosine_bits_equal_dense(
        seed in any::<u64>(),
        rows in 1usize..40,
        dim in 1usize..68,
    ) {
        let (sparse, dense) = seeded_pool(seed, rows, dim);
        let q = seeded_query(seed, dim);
        prop_assert_eq!(
            bits(sparse.norms().iter().copied()),
            bits(dense.norms().iter().copied())
        );
        for i in 0..rows {
            prop_assert_eq!(sparse.cosine(i, &q).to_bits(), dense.cosine(i, &q).to_bits());
            let mut back = vec![1f32; dim];
            sparse.densify_into(i, &mut back);
            prop_assert_eq!(bits(back.into_iter()), bits(dense.row(i).iter().copied()));
        }
        prop_assert_eq!(
            bits(sparse.scores(&q, 0, rows)),
            bits(dense.scores(&q, 0, rows))
        );
    }
}

proptest! {
    // Pools above PARALLEL_THRESHOLD make these cases expensive; a few
    // cases at full size beat many that never leave the sequential branch.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The sharded sparse scan returns the dense full-sort selection at
    /// one and at four workers.
    #[test]
    fn sparse_top_k_equals_dense_full_sort(
        seed in any::<u64>(),
        extra in 0usize..500,
        dim in 1usize..68,
        k in 1usize..24,
    ) {
        let rows = PARALLEL_THRESHOLD + extra;
        let (sparse, dense) = seeded_pool(seed, rows, dim);
        let q = seeded_query(seed, dim);
        let want = full_sort(dense.scores(&q, 0, rows), k);
        for threads in [1, 4] {
            let got = top_k_cosine_with_threads(&sparse, &q, rows, k, threads);
            prop_assert_eq!(&got, &want);
        }
    }
}
