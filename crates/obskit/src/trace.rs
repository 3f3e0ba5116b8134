//! Request-scoped trace contexts: explicit span parenting.
//!
//! The thread-local span stack in [`crate::Recorder`] parents a span under
//! the innermost span open on the same thread and recorder. A
//! [`TraceContext`] names the parent explicitly instead, so the layers one
//! request runs through (prompt building, example selection, the model
//! call, execution and comparison) nest under that request's root span
//! wherever they are called from: under `eval --trace`, the item's
//! `predict` and `score` spans. Code handed [`TraceContext::disabled`]
//! records no span at all.
//!
//! The context carries no recorder: spans land in the sink current on the
//! thread that opens them ([`crate::current`]). That keeps the context
//! `Copy`; a thread that carries a context across a hop enters the
//! caller's sink first ([`crate::Recorder::enter`]).

use crate::recorder::Span;

/// A request-scoped tracing context: the current parent span, or nothing
/// at all on untraced paths. `Copy`, so it can be threaded through call
/// chains without lifetime plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    parent: Option<u64>,
    live: bool,
}

impl TraceContext {
    /// A context that records nothing (the default for un-traced paths).
    pub const fn disabled() -> TraceContext {
        TraceContext {
            parent: None,
            live: false,
        }
    }

    /// A new root context for one request. Spans opened through it are
    /// parented under `parent` (e.g. the item's `predict` span), or become
    /// trace roots when `parent` is `None`.
    pub const fn root(parent: Option<u64>) -> TraceContext {
        TraceContext { parent, live: true }
    }

    /// Will [`TraceContext::span`] actually record? True only for a
    /// [`TraceContext::root`] context while an enabled sink is current on
    /// this thread.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.live && crate::enabled()
    }

    /// Open a span named `name` in the current sink, explicitly
    /// parented to this context's parent span, and return it together
    /// with a child context whose parent is the new span. On the no-op
    /// path (disabled context, or tracing disabled) returns a dead span
    /// and `self` unchanged.
    pub fn span(&self, name: &str) -> (Span, TraceContext) {
        if !self.is_recording() {
            return (Span::dead(), *self);
        }
        let span = crate::current().span_under(name, self.parent);
        let child = TraceContext::root(span.id());
        (span, child)
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::disabled()
    }
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
}
