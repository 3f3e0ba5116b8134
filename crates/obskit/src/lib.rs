//! # obskit — zero-dependency tracing and metrics for the DAIL-SQL pipeline
//!
//! The paper this workspace reproduces is a *measurement* study: it compares
//! question representations, example-selection and organization strategies
//! on accuracy **and** token/call cost. This crate is the telemetry
//! substrate that turns the reproduction's aggregate numbers into
//! explanations — per-stage wall-clock, token and failure attribution.
//!
//! Pieces:
//!
//! * [`Span`] — RAII timers with parent/child nesting (thread-local stack).
//! * [`Recorder`] — thread-safe event sink; serializes traces to JSONL
//!   (whose string escaper, [`json_escape`], every crate's JSON output
//!   shares, as `storage`'s statistics reader shares its [`Json`] parser).
//! * Named counters, gauges and log-scale latency [`Histogram`]s.
//! * [`Profile`] — the one replay of a recorded trace. One pass builds
//!   the span forest under one rule (self-times sum to the wall-clock on
//!   every trace, truncated or concatenated) and derives the per-stage
//!   stats, the [`Flame`] tree, the metric summaries, the annotations and
//!   the windowed [`tsdb::Tsdb`]; it renders a per-stage markdown
//!   breakdown table (same visual style as `eval::report::Table`).
//! * [`ProfileDiff`] — cross-run comparison of two profiles (per-stage
//!   self-times, counters, histograms) with a CI regression gate.
//! * [`Flame`] — a profile's spans merged by stack, rendered as
//!   folded-stack text or a self-contained `flamegraph.svg`.
//! * [`TraceContext`] — request-scoped context (request id, parent span
//!   and a deterministic head-sampling decision) for explicit
//!   cross-thread span parenting; one connected tree per served request.
//! * [`expo`] — Prometheus text exposition of the counters/gauges/log₂
//!   histograms (and a profile's labelled [`tsdb`] series with
//!   `# exemplar` lines), plus a validating mini-parser for tests.
//! * [`tsdb`] — windowed time series, folded from the windowed writes a
//!   run records ([`Recorder::add_counter_at`], [`Recorder::observe_at`]):
//!   labelled series with a hard cardinality bound, fixed-step
//!   ring-buffer windows (rates, windowed quantiles), and per-window
//!   exemplars linking back to sampled request traces. All on the
//!   virtual clock.
//! * One scoped sink per run: [`Recorder::enter`] makes a recorder current
//!   on the calling thread (an RAII [`SinkGuard`] restores the previous
//!   one), so deep layers (`simllm`, `storage`, `promptkit`, …) emit to
//!   [`current`] without threading a handle through every signature.
//!   Code that fans work out to threads enters the caller's sink on each
//!   worker; a thread that enters none records nothing. The disabled path
//!   is a single thread-local load ([`enabled`]).
//!
//! Determinism: event *ordering* is stable for a fixed workload (workers
//! buffer into local recorders that are absorbed in item order), and
//! [`Event`] equality excludes timestamps, so traces can be compared in
//! tests.

#![warn(missing_docs)]

mod event;
pub mod expo;
mod flame;
mod hist;
mod jsonl;
mod profile;
mod recorder;
pub mod trace;
pub mod tsdb;

pub use event::Event;
pub use flame::{Flame, FlameNode};
pub use hist::{bucket_high, bucket_index, bucket_low, Histogram, BUCKETS};
pub use jsonl::{
    canonical_jsonl, json_escape, json_escape_into, parse_jsonl, parse_jsonl_line,
    parse_jsonl_lossy, to_json_line, Json, SKIPPED_LINES_COUNTER,
};
pub use profile::{fmt_ns, fmt_ns_delta, Profile, ProfileDiff, StageDelta, StageStats};
pub use recorder::{current, enabled, MetricsSnapshot, Recorder, SinkGuard, Span};
pub use trace::TraceContext;
