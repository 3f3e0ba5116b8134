//! # retrievekit — zero-alloc, cache-friendly top-k retrieval
//!
//! The engine behind example selection, DAIL-SQL's headline contribution
//! and the hot path of every evaluated item: each query scores the entire
//! training pool and keeps the `k ≤ 16` best. This crate replaces the
//! naive shape of that work —
//!
//! * one heap `Vec<f32>` per candidate → one [`SparseMatrix`] of
//!   compressed sparse rows (text-hash embeddings fill a few dozen of 512
//!   lanes) with precomputed norms, scored by [`sparse_dot`], which keeps
//!   the 4-way-unrolled dense [`dot`]'s accumulator layout and so returns
//!   its exact bits; the dense row-major [`EmbeddingMatrix`] stays as the
//!   oracle the sparse path is tested against;
//! * full `O(n log n)` sort per query → streaming bounded-heap [`TopK`]
//!   (`O(n + k log k)`), with explicit score-then-pool-index tie-breaking
//!   so results are deterministic and bit-identical to the naive
//!   [`full_sort`] oracle;
//! * single-threaded scans of large pools → sharded scoring across
//!   `DAIL_THREADS` workers ([`top_k_cosine`]), merged via a k-way heap,
//!   identical output for any worker count;
//! * per-strategy re-embedding of targets → a shared [`FeatureCache`];
//! * full-pool scans at million-row scale → an optional [`IvfIndex`]
//!   (deterministic sparse k-means, inverted lists that hold their own
//!   rows, exact f32 rerank), selected per selector by a
//!   [`RetrievalMode`] — exact stays the default and the oracle.
//!
//! Instrumentation: `retrievekit.scored` counts candidates scored,
//! `retrievekit.feature_cache_{hits,misses}` track target reuse, and
//! callers (promptkit) time whole selections into the
//! `retrievekit.select_ns` histogram. Benchmarks live in
//! `crates/bench/benches/selection.rs`; the `dail_sql_cli select-bench`
//! subcommand gates the ≥3× speedup over the committed naive reference in
//! `scripts/check.sh`.

#![warn(missing_docs)]

pub mod cache;
pub mod ivf;
pub mod matrix;
pub mod shard;
pub mod snapshot;
pub mod sparse;
pub mod topk;

pub use cache::FeatureCache;
pub use ivf::{IvfIndex, IvfParams, RetrievalMode};
pub use matrix::{dot, EmbeddingMatrix};
pub use shard::{
    resolve_threads, top_k_cosine, top_k_cosine_traced, top_k_cosine_with_threads,
    PARALLEL_THRESHOLD,
};
pub use snapshot::{load_snapshot, save_snapshot, Snapshot, SnapshotError};
pub use sparse::{sparse_dot, SparseMatrix};
pub use topk::{full_sort, merge_top_k, top_k, TopK};
