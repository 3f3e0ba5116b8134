//! # servekit — fault-tolerant, cached serving layer for predictors
//!
//! Runs any [`dail_core::Predictor`] behind an admission model, a
//! prediction cache and a worker pool, the shape a Text-to-SQL pipeline
//! takes when it serves real traffic instead of a batch eval:
//!
//! * **load shedding** — a request arriving when the admission model's
//!   buffer is full gets a typed [`Outcome::Overloaded`], never a panic;
//! * **retry with exponential backoff** — against deterministic injected
//!   faults from [`simllm::faults`] (transient errors, latency spikes,
//!   corrupted SQL);
//! * **per-request deadlines** — a retry sequence that runs past its
//!   deadline resolves to [`Outcome::DeadlineExceeded`];
//! * **LRU prediction cache** — keyed on `(db, question, repr)`, with
//!   hit/miss/eviction counters; a resident key is served by the
//!   computation that first ran it;
//! * **observability** — retry/shed/panic counters and per-stage latency
//!   histograms through `obskit`.
//!
//! Reported numbers run on a *virtual clock* (simulated milliseconds
//! derived from request keys and fault plans), so a serve-bench report is
//! byte-identical across runs and across worker counts — see [`server`]
//! for the determinism model. One pass in request order makes every
//! decision; the work itself is real: a pool of threads runs each
//! computation's predictor call once under `catch_unwind`.
//!
//! ```
//! use servekit::{AdmissionModel, cache_key};
//!
//! let mut m = AdmissionModel::new(2);
//! assert!(m.offer(0, 100).is_some());
//! assert_ne!(cache_key("db", "q", "code"), cache_key("db", "q", "text"));
//! ```

#![warn(missing_docs)]

pub mod loadgen;
pub mod report;
pub mod server;
pub mod slo;

pub use loadgen::{generate, LoadConfig};
pub use report::{render, render_json, ReportInput};
pub use server::{
    cache_key, serve, AdmissionModel, CacheStats, Outcome, ServeConfig, ServeOutput, ServeReq,
    ServeStats,
};
pub use slo::{render_slo_report, RequestOutcome, SloConfig};
