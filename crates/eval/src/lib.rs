//! # eval — metrics, cost accounting and the experiment harness
//!
//! Scores predictions with Spider's two metrics — **execution accuracy**
//! (EX, via the `storage` engine) and **exact-set match** (EM, via
//! `sqlkit`'s canonicalizer) — tracks token/dollar costs, and drives the
//! paper's ten experiments (E1–E10), each regenerating one table or figure.
//!
//! Telemetry goes to the caller's obskit sink. With an enabled
//! [`obskit::Recorder`] entered (`let _sink = rec.enter();`), a run records
//! the harness's per-item spans and every layer's counters into it, and
//! [`evaluate_opts`]'s workers enter that same sink. Scoring itself never
//! reads telemetry — EX/EM numbers are byte-identical with telemetry on or
//! off.
//!
//! ```no_run
//! use eval::{ExperimentRunner, Scale};
//! use spider_gen::{Benchmark, BenchmarkConfig};
//!
//! let bench = Benchmark::generate(BenchmarkConfig::default());
//! let runner = ExperimentRunner::new(&bench, Scale::full(), 2023);
//! for table in runner.run_experiment("e1") {
//!     println!("{}", table.to_markdown());
//! }
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod digest;
pub mod errors;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;
pub mod stats;

pub use cost::CostTally;
pub use digest::{DigestAccumulator, DigestEntry, QueryObs};
pub use errors::{analyze_errors, classify_error, ErrorBreakdown, ErrorClass};
pub use experiments::{ExperimentRunner, Scale};
pub use harness::{evaluate, evaluate_opts, EvalOptions, RunResult};
pub use metrics::{score_item, score_item_traced, ItemScore};
pub use report::{f1, pct, usd, Table};
pub use stats::{bootstrap_ci95, ConfidenceInterval};
