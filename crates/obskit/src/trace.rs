//! Request-scoped trace contexts: explicit span parenting across
//! queues, caches and worker threads, with deterministic head sampling.
//!
//! The thread-local span stack in [`crate::Recorder`] gives implicit
//! parenting *within* one thread, but a served request hops threads: it
//! is admitted on the submission thread, waits in a queue, runs its
//! retry attempts on a worker, and is EX-scored after the serving loop
//! has drained. A [`TraceContext`] carries the request identity and the
//! current parent span id across those hops so every span a request
//! touches lands in one connected tree under one request root.
//!
//! Sampling is *head-based* and deterministic: the decision is made
//! once at admission from `(seed, request_id, rate)` via [`sample`], so
//! the same seed always samples the same requests — traces stay
//! reproducible under load. A sampled-out context is indistinguishable
//! from a disabled one: its [`TraceContext::span`] returns a no-op
//! [`Span`] and emits nothing, while counters/gauges/histograms (which
//! are not request-scoped) keep flowing to the current sink.
//!
//! The context carries no recorder: spans land in the sink current on the
//! thread that opens them ([`crate::current`]). That keeps the context
//! `Copy`; a thread that carries a context across a hop enters the
//! caller's sink first ([`crate::Recorder::enter`]).

use crate::recorder::Span;

/// A request-scoped tracing context: request id, current parent span,
/// and the head-sampling decision. `Copy`, so it can be threaded through
/// call chains and stored in queue items without lifetime plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    request_id: u64,
    parent: Option<u64>,
    sampled: bool,
}

impl TraceContext {
    /// A context that records nothing (the default for un-traced paths).
    pub const fn disabled() -> TraceContext {
        TraceContext {
            request_id: 0,
            parent: None,
            sampled: false,
        }
    }

    /// A new root context for `request_id`. Spans opened through it are
    /// parented under `parent` (e.g. a batch-level span), or become
    /// trace roots when `parent` is `None`. `sampled: false` yields a
    /// no-op context that still carries the request id.
    pub const fn root(request_id: u64, sampled: bool, parent: Option<u64>) -> TraceContext {
        TraceContext {
            request_id,
            parent,
            sampled,
        }
    }

    /// The request id this context belongs to.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// Will [`TraceContext::span`] actually record? True only when this
    /// request was sampled *and* an enabled sink is current on this thread.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.sampled && crate::enabled()
    }

    /// Open a span named `name` in the current sink, explicitly
    /// parented to this context's parent span, and return it together
    /// with a child context whose parent is the new span. On the no-op
    /// path (unsampled, or tracing disabled) returns a dead span and
    /// `self` unchanged.
    pub fn span(&self, name: &str) -> (Span, TraceContext) {
        if !self.is_recording() {
            return (Span::dead(), *self);
        }
        let span = crate::current().span_under(name, self.parent);
        let child = TraceContext {
            request_id: self.request_id,
            parent: span.id(),
            sampled: true,
        };
        (span, child)
    }

    /// Attach a key/value annotation event, gated on the sampling
    /// decision like [`TraceContext::span`].
    pub fn meta(&self, name: &str, fields: &[(&str, String)]) {
        if self.is_recording() {
            crate::current().meta(name, fields);
        }
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::disabled()
    }
}

/// Deterministic head-sampling decision for one request.
///
/// Hashes `(seed, request_id)` (FNV-1a) into a uniform value in
/// `[0, 1)` and compares it against `rate`. Pure: the same inputs always
/// give the same decision, so traces are reproducible across runs and
/// worker counts. `rate >= 1.0` samples everything, `rate <= 0.0`
/// nothing.
pub fn sample(seed: u64, request_id: u64, rate: f64) -> bool {
    if rate >= 1.0 {
        return true;
    }
    if rate <= 0.0 {
        return false;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in seed
        .to_le_bytes()
        .into_iter()
        .chain(request_id.to_le_bytes())
    {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    // Top 53 bits → uniform f64 in [0, 1).
    ((h >> 11) as f64 / (1u64 << 53) as f64) < rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, Recorder};

    #[test]
    fn disabled_context_records_nothing() {
        let ctx = TraceContext::disabled();
        assert!(!ctx.is_recording());
        let (span, child) = ctx.span("x");
        assert!(span.id().is_none());
        assert_eq!(child, ctx);
    }

    #[test]
    fn span_chain_links_parent_ids() {
        // Use a local recorder through span_under to test the linking
        // logic without entering a sink.
        let r = Recorder::enabled();
        let root = r.span_under("root", None);
        let child = r.span_under("child", root.id());
        let ev = r.events();
        match &ev[1] {
            Event::SpanStart { parent, .. } => assert_eq!(*parent, root.id()),
            other => panic!("unexpected {other:?}"),
        }
        drop(child);
        drop(root);
    }

    #[test]
    fn sampling_is_deterministic_and_respects_bounds() {
        for id in 0..64 {
            assert!(sample(7, id, 1.0));
            assert!(!sample(7, id, 0.0));
            assert_eq!(sample(7, id, 0.5), sample(7, id, 0.5));
        }
    }

    #[test]
    fn sampling_rate_is_roughly_honored() {
        let hits = (0..10_000).filter(|&id| sample(42, id, 0.1)).count();
        assert!((500..1500).contains(&hits), "{hits}");
    }

    #[test]
    fn different_seeds_pick_different_requests() {
        let pick = |seed| {
            (0..1000)
                .filter(|&id| sample(seed, id, 0.1))
                .collect::<Vec<_>>()
        };
        assert_ne!(pick(1), pick(2));
    }
}
