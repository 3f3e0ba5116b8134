//! Microbenches for the retrievekit selection fast path: the streaming
//! embedder vs the allocating one, the sparse kernel vs the dense blocked
//! f32 row it reproduces and the f64 reference cosine, bounded-heap top-k
//! vs the full-sort oracle, and the end-to-end sparse scan vs the naive
//! per-row layout.

use bench::small_benchmark;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retrievekit::{
    full_sort, top_k, top_k_cosine, EmbeddingMatrix, IvfIndex, IvfParams, SparseMatrix, TopK,
};
use std::hint::black_box;
use textkit::{embed, embed_into, Embedding, DIM};

const K: usize = 8;
const POOL: usize = 10_000;

fn random_scores(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn embedder(c: &mut Criterion) {
    let bench = small_benchmark();
    let q = &bench.dev[0].question;

    c.bench_function("embed_allocating", |b| {
        b.iter(|| black_box(embed(black_box(q))))
    });

    let mut buf = vec![0f32; DIM];
    c.bench_function("embed_into_streaming", |b| {
        b.iter(|| {
            embed_into(black_box(q), &mut buf);
            black_box(buf[0])
        })
    });
}

fn kernel(c: &mut Criterion) {
    let a = embed("how many singers are there in each stadium");
    let b_ = embed("list the names of all concerts ordered by year");
    let mut m = EmbeddingMatrix::with_capacity(DIM, 1);
    m.push_row(&a.0);
    let mut sparse = SparseMatrix::with_capacity(DIM, 1);
    sparse.push_row(&a.0);

    c.bench_function("cosine_f64_reference", |b| {
        b.iter(|| black_box(black_box(&a).cosine(black_box(&b_))))
    });

    c.bench_function("cosine_f32_kernel", |b| {
        b.iter(|| black_box(m.cosine(0, black_box(&b_.0))))
    });

    c.bench_function("cosine_sparse_kernel", |b| {
        b.iter(|| black_box(sparse.cosine(0, black_box(&b_.0))))
    });
}

fn topk(c: &mut Criterion) {
    let scores = random_scores(POOL, 11);

    c.bench_function("topk_full_sort_10k", |b| {
        b.iter(|| black_box(full_sort(scores.iter().copied(), K)))
    });

    c.bench_function("topk_bounded_heap_10k", |b| {
        b.iter(|| black_box(top_k(scores.iter().copied(), K)))
    });

    // The streaming push in isolation (mostly the reject comparison).
    c.bench_function("topk_push_stream_10k", |b| {
        b.iter(|| {
            let mut heap = TopK::new(K);
            for (i, &s) in scores.iter().enumerate() {
                heap.push(s, i as u32);
            }
            black_box(heap.len())
        })
    });
}

fn end_to_end(c: &mut Criterion) {
    // A synthetic pool with the embedding distribution of real questions:
    // reuse a small question vocabulary so rows collide like benchmarks do.
    let stems = [
        "how many singers are there",
        "list the names of all stadiums",
        "what is the average capacity",
        "count the concerts for each year",
        "which students are older than 20",
        "show the products ordered by price",
    ];
    let mut rng = StdRng::seed_from_u64(3);
    let pool: Vec<String> = (0..POOL)
        .map(|i| {
            format!(
                "{} in region {}",
                stems[rng.gen_range(0..stems.len())],
                i % 97
            )
        })
        .collect();

    let mut matrix = SparseMatrix::with_capacity(DIM, POOL);
    let mut row = vec![0f32; DIM];
    for q in &pool {
        embed_into(q, &mut row);
        matrix.push_row(&row);
    }
    let naive_rows: Vec<Embedding> = pool.iter().map(|q| embed(q)).collect();

    let target = embed("how many stadiums are there in each region");

    c.bench_function("select_naive_f64_fullsort_10k", |b| {
        b.iter(|| {
            let mut scored: Vec<(f64, usize)> = naive_rows
                .iter()
                .enumerate()
                .map(|(i, r)| (r.cosine(black_box(&target)), i))
                .collect();
            scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            scored.truncate(K);
            black_box(scored)
        })
    });

    c.bench_function("select_retrievekit_10k", |b| {
        b.iter(|| black_box(top_k_cosine(&matrix, black_box(&target.0), POOL, K)))
    });
}

fn ivf_probe(c: &mut Criterion) {
    // IVF probe-width sweep on a 10k pool with the near-duplicate question
    // distribution: cost should scale with the probed fraction of the pool
    // while p = n_clusters degenerates to the exact scan.
    let stems = [
        "how many singers are there",
        "list the names of all stadiums",
        "what is the average capacity",
        "count the concerts for each year",
        "which students are older than 20",
        "show the products ordered by price",
    ];
    let mut rng = StdRng::seed_from_u64(5);
    let mut matrix = SparseMatrix::with_capacity(DIM, POOL);
    let mut row = vec![0f32; DIM];
    for i in 0..POOL {
        let q = format!(
            "{} in region {}",
            stems[rng.gen_range(0..stems.len())],
            i % 97
        );
        embed_into(&q, &mut row);
        matrix.push_row(&row);
    }
    let index = IvfIndex::train(&matrix, POOL, &IvfParams::default());
    let target = embed("how many stadiums are there in each region");

    for p in [1usize, 4, 16] {
        c.bench_function(format!("ivf_probe_p{p}_10k"), |b| {
            b.iter(|| black_box(index.search_with_probe(black_box(&target.0), K, p)))
        });
    }
}

criterion_group!(benches, embedder, kernel, topk, end_to_end, ivf_probe);
criterion_main!(benches);
