//! # simllm — calibrated stochastic semantic-parser LLM simulator
//!
//! The offline stand-in for the LLM APIs the paper benchmarks. A
//! [`SimLlm`] consumes *only the prompt string* and produces a completion:
//!
//! 1. **comprehension** ([`SimLlm::comprehend`], once per prompt, no seed)
//!    — re-parse the prompt (schema, foreign keys, examples, question,
//!    instruction flags), trim it to the context window and read each
//!    example once; information a representation omitted is genuinely
//!    unavailable downstream;
//! 2. **schema linking** ([`SimLlm::sample`] from here on, once per seeded
//!    sample) — match question words to recovered tables/columns, after
//!    tier-scaled attention dropout;
//! 3. **intent induction** — cue-based sketch prior plus in-context example
//!    votes weighted by question similarity (the paper's question→skeleton
//!    learning hypothesis, made mechanical);
//! 4. **decoding** — slot-fill the sketch; joins use prompt FK info when
//!    present and unreliable name-guessing otherwise;
//! 5. **corruption** — tier-scaled slip-ups, damped by relevant examples;
//! 6. **formatting** — alignment-dependent chattiness, suppressed by the
//!    "no explanation" rule.
//!
//! Fine-tuning ([`SimLlm::finetune`]) raises capability toward a data-bound
//! ceiling, locks the expected prompt style, and collapses ICL weight —
//! reproducing the paper's SFT findings.
//!
//! Everything is deterministic given (prompt, seed, sample index).

#![warn(missing_docs)]

pub mod comprehend;
pub mod decode;
pub mod faults;
pub mod intent;
pub mod linking;
pub mod model;
pub mod profile;
pub mod sft;
pub mod values;

pub use comprehend::{parse_prompt, ParsedExample, ParsedFk, ParsedPrompt, ParsedTable};
pub use faults::{FaultConfig, FaultInjector, FaultPlan};
pub use intent::{intent_of_query, Intent};
pub use linking::Linker;
pub use model::{extract_sql, CompletionTrace, Comprehension, GenOptions, SimLlm};
pub use profile::{profile, ModelProfile, MAIN_STUDY, OPEN_SOURCE_STUDY, ZOO};
pub use sft::{detect_style, PromptStyle, SftState};
