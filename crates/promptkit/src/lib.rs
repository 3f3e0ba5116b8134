//! # promptkit — the paper's prompt-engineering space
//!
//! Question representations (BS_P, TR_P, OD_P, CR_P, AS_P) with the paper's
//! three ablation toggles (foreign keys, rule implication, table content);
//! example selection strategies (Random, QTS, MQS, QRS, DAIL); example
//! organization strategies (FULL, SQLONLY, DAIL pairs); and prompt assembly
//! under a token budget.
//!
//! ```
//! use promptkit::{PromptConfig, build_prompt, ExampleSelector};
//! use spider_gen::{Benchmark, BenchmarkConfig};
//! use textkit::Tokenizer;
//!
//! let bench = Benchmark::generate(BenchmarkConfig::tiny());
//! let selector = ExampleSelector::new(&bench);
//! let cfg = PromptConfig::dail_sql(3);
//! let bundle = build_prompt(
//!     &cfg, &bench, &selector, &bench.dev[0], None, false, &Tokenizer::new(), 1,
//! );
//! assert!(bundle.tokens > 0);
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod organize;
pub mod repr;
pub mod select;

pub use builder::{build_prompt, build_prompt_traced, PromptBundle, PromptConfig};
pub use organize::{render_examples, OrganizationStrategy};
pub use repr::{render_prompt, render_schema, QuestionRepr, ReprOptions};
pub use retrievekit::{resolve_threads, RetrievalMode};
pub use select::{ExampleSelector, SelectionStrategy};
