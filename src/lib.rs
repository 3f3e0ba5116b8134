//! # dail-sql — a Rust reproduction of the DAIL-SQL benchmark evaluation
//!
//! This crate re-exports the full workspace behind one dependency:
//!
//! * [`sqlkit`] — SQL parser/AST/printer, exact-set match, skeletons;
//! * [`storage`] — in-memory relational engine (execution accuracy);
//! * [`spider_gen`] — synthetic cross-domain Spider-like benchmark;
//! * [`textkit`] — tokenizer, embeddings, masking;
//! * [`retrievekit`] — zero-alloc, cache-friendly top-k retrieval engine
//!   (contiguous embedding matrix, bounded-heap selection, sharded scans)
//!   behind example selection;
//! * [`promptkit`] — question representations, example selection and
//!   organization (the paper's prompt-engineering space);
//! * [`simllm`] — the calibrated stochastic semantic-parser LLM simulator;
//! * [`dail_core`] — the DAIL-SQL pipeline and leaderboard baselines;
//! * [`eval`] — metrics, cost accounting and the E1–E10 experiment suite;
//! * [`servekit`] — fault-tolerant serving layer: load shedding, LRU
//!   prediction cache, retries with backoff, a worker pool;
//! * [`obskit`] — zero-dependency tracing/metrics wired through all of the
//!   above (spans, counters, latency histograms, JSONL traces, profiles).
//!
//! ```
//! use dail_sql::prelude::*;
//!
//! let bench = Benchmark::generate(BenchmarkConfig::tiny());
//! let selector = ExampleSelector::new(&bench);
//! let tokenizer = Tokenizer::new();
//! let ctx = PredictCtx {
//!     bench: &bench, selector: &selector, tokenizer: &tokenizer,
//!     seed: 1, realistic: false, trace: TraceContext::disabled(),
//! };
//! let dail = DailSql::new(SimLlm::new("gpt-4").unwrap());
//! let item = &bench.dev[0];
//! let prediction = dail.predict(&ctx, item);
//! let score = score_item(bench.db(item), item, &prediction.sql);
//! println!("EX = {}", score.ex);
//! ```

#![warn(missing_docs)]

pub use dail_core;
pub use eval;
pub use obskit;
pub use promptkit;
pub use retrievekit;
pub use servekit;
pub use simllm;
pub use spider_gen;
pub use sqlkit;
pub use storage;
pub use textkit;

/// Everything a typical user needs, in one import.
pub mod prelude {
    pub use dail_core::{
        C3Style, DailSql, DinSqlStyle, FewShot, PredictCtx, Prediction, Predictor, ZeroShot,
    };
    pub use eval::{
        evaluate, evaluate_opts, score_item, EvalOptions, ExperimentRunner, RunResult, Scale,
    };
    pub use obskit::{Profile, Recorder, TraceContext};
    pub use promptkit::{
        build_prompt, ExampleSelector, OrganizationStrategy, PromptConfig, QuestionRepr,
        ReprOptions, SelectionStrategy,
    };
    pub use servekit::{serve, LoadConfig, Outcome, ServeConfig};
    pub use simllm::{FaultConfig, GenOptions, PromptStyle, SimLlm};
    pub use spider_gen::{Benchmark, BenchmarkConfig, ExampleItem};
    pub use sqlkit::{parse_query, Hardness, Query, Skeleton};
    pub use storage::{execute_query, Database, ResultSet, Value};
    pub use textkit::Tokenizer;
}
