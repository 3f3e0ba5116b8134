//! # textkit — text substrate for Text-to-SQL benchmarking
//!
//! Deterministic GPT-approximating tokenizer (for the paper's token-efficiency
//! metric), hashed sentence embeddings with cosine similarity (for example
//! selection), domain-word masking (for masked-question similarity), and
//! character edit distance (for near-miss column suggestions).
//!
//! ```
//! use textkit::{Tokenizer, text_cosine, DomainMasker};
//!
//! let t = Tokenizer::new();
//! assert!(t.count("SELECT name FROM singer") > 0);
//! assert!(text_cosine("how many cats", "how many dogs") > 0.0);
//! let m = DomainMasker::new(["singer"]);
//! assert_eq!(m.mask("count singers"), "count <mask>");
//! ```

#![warn(missing_docs)]

pub mod embed;
pub mod mask;
pub mod similar;
pub mod tokenizer;

pub use embed::{embed, embed_into, text_cosine, Embedding, DIM};
pub use mask::{DomainMasker, MASK};
pub use similar::edit_distance;
pub use tokenizer::Tokenizer;
