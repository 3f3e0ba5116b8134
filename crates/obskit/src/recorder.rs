//! The event sink: spans, counters, gauges, histograms, windowed writes,
//! and the per-thread *current sink* that deep layers emit to.

use crate::event::Event;
use crate::hist::Histogram;
use crate::tsdb;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::marker::PhantomData;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// Stack of `(recorder identity, span id)` for open spans on this
    /// thread, used for implicit parenting. The identity tag keeps one
    /// recorder's spans from parenting another's (worker recorders often
    /// run on a thread that also has the main recorder's spans open).
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
    /// Is the current sink enabled? Const-initialised and free of drop
    /// glue, so [`enabled`] is a single thread-local load.
    static SINK_ENABLED: Cell<bool> = const { Cell::new(false) };
    /// The current sink: the innermost [`Recorder::enter`]ed recorder.
    static SINK: RefCell<Recorder> = const { RefCell::new(Recorder::disabled()) };
}

/// Fast check: is an enabled sink current on this thread?
///
/// One thread-local load — cheap enough for the hottest loops. Deep layers
/// gate every emission on it.
#[inline]
pub fn enabled() -> bool {
    SINK_ENABLED.with(Cell::get)
}

/// The sink current on this thread: the recorder of the innermost live
/// [`Recorder::enter`] guard, or a disabled recorder when none is.
pub fn current() -> Recorder {
    if !enabled() {
        return Recorder::disabled();
    }
    SINK.with(|s| s.borrow().clone())
}

/// Keeps a recorder current on the thread that entered it; dropping the
/// guard restores the sink that was current before. Guards must drop in
/// reverse order of entry (bind them to a scope with `let _sink = ...`).
#[must_use = "the recorder is current only while the guard lives"]
pub struct SinkGuard {
    prev: Recorder,
    /// Bound to the entering thread: the guard restores *its* sink.
    _not_send: PhantomData<*const ()>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let prev = std::mem::replace(&mut self.prev, Recorder::disabled());
        SINK_ENABLED.with(|e| e.set(prev.is_enabled()));
        // `try_with`: a guard dropped during thread teardown must not panic.
        let _left = SINK.try_with(|s| s.replace(prev));
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    events: Mutex<Vec<Event>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    hists: Mutex<BTreeMap<String, Histogram>>,
}

/// A thread-safe trace/metrics sink.
///
/// Cloning is cheap (an `Arc`). A *disabled* recorder is a guaranteed
/// no-op: every method returns immediately after one `Option` check, which
/// is what makes always-on instrumentation affordable (verified by the
/// `substrate` criterion bench).
///
/// A run hands its telemetry to the layers underneath by entering its
/// recorder ([`Recorder::enter`]): deep layers emit to [`current`], and
/// code that fans work out to threads enters the caller's sink on each
/// worker. Windowed writes ([`Recorder::add_counter_at`],
/// [`Recorder::observe_at`]) are recorded as trace events like any other;
/// [`crate::Profile::from_events`] folds them into a [`crate::tsdb::Tsdb`].
#[derive(Clone)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

/// Point-in-time copy of a recorder's aggregated metrics.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → last value.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram name → histogram.
    pub histograms: BTreeMap<String, Histogram>,
}

impl Recorder {
    /// A no-op recorder: records nothing, costs one branch per call.
    pub const fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled in-memory recorder.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                hists: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Make this recorder the current sink of the calling thread until
    /// the returned guard drops. [`enabled`] then reports whether this
    /// recorder records, and [`current`] returns it.
    pub fn enter(&self) -> SinkGuard {
        let prev = SINK.with(|s| s.replace(self.clone()));
        SINK_ENABLED.with(|e| e.set(self.is_enabled()));
        SinkGuard {
            prev,
            _not_send: PhantomData,
        }
    }

    /// Is this recorder actually recording?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`, parented to the innermost open span on
    /// this thread (if any). Closing happens on drop.
    pub fn span(&self, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { data: None };
        };
        let key = Arc::as_ptr(inner) as usize;
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, id)| *id)
        });
        self.start_span_with(inner, name, parent)
    }

    /// Open a span explicitly parented to `parent` (use across threads,
    /// where the thread-local stack can't see the caller's spans).
    pub fn span_under(&self, name: &str, parent: Option<u64>) -> Span {
        let Some(inner) = &self.inner else {
            return Span { data: None };
        };
        self.start_span_with(inner, name, parent)
    }

    fn start_span_with(&self, inner: &Arc<Inner>, name: &str, parent: Option<u64>) -> Span {
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let t_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.events.lock().unwrap().push(Event::SpanStart {
            id,
            parent,
            name: name.to_string(),
            t_ns,
        });
        SPAN_STACK.with(|s| s.borrow_mut().push((Arc::as_ptr(inner) as usize, id)));
        Span {
            data: Some(SpanData {
                recorder: self.clone(),
                id,
                name: name.to_string(),
                start: Instant::now(),
            }),
        }
    }

    /// Add `delta` to the named monotonic counter.
    #[inline]
    pub fn add_counter(&self, name: &str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        *inner
            .counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    /// Set the named gauge.
    #[inline]
    pub fn set_gauge(&self, name: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.gauges.lock().unwrap().insert(name.to_string(), value);
    }

    /// Record one observation into the named log-scale histogram.
    #[inline]
    pub fn observe(&self, name: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        inner
            .hists
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Record a span whose duration was measured externally, emitting the
    /// `SpanStart`/`SpanEnd` pair immediately with the supplied duration.
    ///
    /// Unlike [`Recorder::span`], the duration is *not* re-measured on drop:
    /// callers that maintain their own exact time partition (the executor's
    /// per-operator probe sums self-times to the whole statement) use this so
    /// the emitted span equals their partition to the nanosecond. The span is
    /// parented to the innermost open span on this thread, and its start time
    /// is back-dated by `dur_ns`. A duration longer than the recorder's own
    /// lifetime would back-date the start *before the epoch* (a caller bug or
    /// clock skew); instead of letting the subtraction clamp silently, the
    /// span is recorded at now with zero duration and the
    /// `obskit.span.clamped` counter is incremented. Returns the span id
    /// (`None` when disabled).
    pub fn record_span(&self, name: &str, dur_ns: u64) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        let key = Arc::as_ptr(inner) as usize;
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, id)| *id)
        });
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let t_ns = inner.epoch.elapsed().as_nanos() as u64;
        let (start_ns, dur_ns) = if dur_ns > t_ns {
            self.add_counter("obskit.span.clamped", 1);
            (t_ns, 0)
        } else {
            (t_ns - dur_ns, dur_ns)
        };
        let mut events = inner.events.lock().unwrap();
        events.push(Event::SpanStart {
            id,
            parent,
            name: name.to_string(),
            t_ns: start_ns,
        });
        events.push(Event::SpanEnd {
            id,
            name: name.to_string(),
            dur_ns,
        });
        Some(id)
    }

    /// Add `delta` to the windowed counter series `metric{labels}` at
    /// virtual time `t_ms`, recorded as one `tsdb.counter` annotation.
    pub fn add_counter_at(&self, metric: &str, labels: &[(&str, &str)], t_ms: u64, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let ev = tsdb::write_event(tsdb::COUNTER_EVENT, metric, labels, t_ms, delta, None);
        inner.events.lock().unwrap().push(ev);
    }

    /// Record one observation into the windowed histogram series
    /// `metric{labels}` at virtual time `t_ms`, optionally carrying the
    /// request id of a *sampled* request as an exemplar; recorded as one
    /// `tsdb.observe` annotation.
    pub fn observe_at(
        &self,
        metric: &str,
        labels: &[(&str, &str)],
        t_ms: u64,
        value: u64,
        exemplar_request: Option<u64>,
    ) {
        let Some(inner) = &self.inner else { return };
        let ev = tsdb::write_event(
            tsdb::OBSERVE_EVENT,
            metric,
            labels,
            t_ms,
            value,
            exemplar_request,
        );
        inner.events.lock().unwrap().push(ev);
    }

    /// Attach a free-form key/value annotation event.
    pub fn meta(&self, name: &str, fields: &[(&str, String)]) {
        let Some(inner) = &self.inner else { return };
        inner.events.lock().unwrap().push(Event::Meta {
            name: name.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Copy of the span/meta event stream recorded so far.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.events.lock().unwrap().clone(),
            None => Vec::new(),
        }
    }

    /// Snapshot of the aggregated metrics.
    pub fn metrics(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => MetricsSnapshot {
                counters: inner.counters.lock().unwrap().clone(),
                gauges: inner.gauges.lock().unwrap().clone(),
                histograms: inner.hists.lock().unwrap().clone(),
            },
            None => MetricsSnapshot::default(),
        }
    }

    /// Merge a finished child recorder's events and metrics into this
    /// one.
    ///
    /// Span ids are remapped onto this recorder's id space; root spans of
    /// the child are re-parented under `attach_to`. Workers use this to
    /// buffer events thread-locally and merge them *in a deterministic
    /// order* after joining, which keeps trace ordering stable however
    /// many threads ran.
    pub fn absorb(&self, child: &Recorder, attach_to: Option<u64>) {
        let (Some(inner), Some(child_inner)) = (&self.inner, &child.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, child_inner) {
            return; // absorbing a recorder into itself would self-deadlock
        }
        let child_events = child_inner.events.lock().unwrap().clone();
        // Remap child span ids into our id space, preserving order.
        let mut id_map: BTreeMap<u64, u64> = BTreeMap::new();
        let mut remapped = Vec::with_capacity(child_events.len());
        for ev in child_events {
            remapped.push(match ev {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    t_ns,
                } => {
                    let new_id = inner.next_id.fetch_add(1, Ordering::Relaxed);
                    id_map.insert(id, new_id);
                    let parent = match parent {
                        Some(p) => id_map.get(&p).copied().or(attach_to),
                        None => attach_to,
                    };
                    Event::SpanStart {
                        id: new_id,
                        parent,
                        name,
                        t_ns,
                    }
                }
                Event::SpanEnd { id, name, dur_ns } => Event::SpanEnd {
                    id: id_map.get(&id).copied().unwrap_or(id),
                    name,
                    dur_ns,
                },
                other => other,
            });
        }
        inner.events.lock().unwrap().extend(remapped);
        for (k, v) in child_inner.counters.lock().unwrap().iter() {
            *inner.counters.lock().unwrap().entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in child_inner.gauges.lock().unwrap().iter() {
            inner.gauges.lock().unwrap().insert(k.clone(), *v);
        }
        for (k, h) in child_inner.hists.lock().unwrap().iter() {
            inner
                .hists
                .lock()
                .unwrap()
                .entry(k.clone())
                .or_default()
                .merge(h);
        }
    }

    /// The full trace: recorded events, then final counter, gauge and
    /// histogram summary events (sorted by name for determinism). Reads
    /// only, so repeated calls return the same events.
    pub fn drain_trace(&self) -> Vec<Event> {
        let mut out = self.events();
        let m = self.metrics();
        for (name, value) in m.counters {
            out.push(Event::Counter { name, value });
        }
        for (name, value) in m.gauges {
            out.push(Event::Gauge { name, value });
        }
        for (name, h) in m.histograms {
            out.push(Event::Histogram {
                name,
                count: h.count(),
                sum: h.sum(),
                min: h.min(),
                max: h.max(),
                buckets: h.occupied(),
            });
        }
        out
    }

    /// Serialize the full trace as JSONL.
    pub fn to_jsonl(&self) -> String {
        jsonl_of(&self.drain_trace())
    }

    /// Write the full trace to `path` as JSONL and return the number of
    /// events written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let events = self.drain_trace();
        let mut f = std::fs::File::create(path)?;
        f.write_all(jsonl_of(&events).as_bytes())?;
        Ok(events.len())
    }

    fn end_span(&self, id: u64, name: &str, start: Instant) {
        let Some(inner) = &self.inner else { return };
        let entry = (Arc::as_ptr(inner) as usize, id);
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&entry) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|&x| x == entry) {
                // Out-of-order drop (span moved or leaked); still unlink it.
                stack.remove(pos);
            }
        });
        inner.events.lock().unwrap().push(Event::SpanEnd {
            id,
            name: name.to_string(),
            dur_ns: start.elapsed().as_nanos() as u64,
        });
    }
}

/// `events` as JSONL, one event per line.
fn jsonl_of(events: &[Event]) -> String {
    let mut s = String::new();
    for ev in events {
        s.push_str(&crate::jsonl::to_json_line(ev));
        s.push('\n');
    }
    s
}

struct SpanData {
    recorder: Recorder,
    id: u64,
    name: String,
    start: Instant,
}

/// An RAII stage timer. Created by [`Recorder::span`]; emits a
/// [`Event::SpanEnd`] with the measured duration when dropped.
pub struct Span {
    data: Option<SpanData>,
}

impl Span {
    /// A dead (no-op) span: records nothing on drop. Used by
    /// [`crate::TraceContext`] on the unsampled path.
    pub fn dead() -> Span {
        Span { data: None }
    }

    /// This span's id, usable as an explicit parent for cross-thread
    /// children ([`Recorder::span_under`]). `None` on the no-op path.
    pub fn id(&self) -> Option<u64> {
        self.data.as_ref().map(|d| d.id)
    }

    /// Open a child span of this span on the current thread.
    pub fn child(&self, name: &str) -> Span {
        match &self.data {
            Some(d) => d.recorder.span_under(name, Some(d.id)),
            None => Span { data: None },
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(d) = self.data.take() {
            d.recorder.end_span(d.id, &d.name, d.start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = Recorder::disabled();
        {
            let s = r.span("root");
            assert!(s.id().is_none());
            let c = s.child("inner");
            assert!(c.id().is_none());
        }
        r.add_counter("c", 5);
        r.set_gauge("g", 1.0);
        r.observe("h", 9);
        r.add_counter_at("w", &[("t", "a")], 0, 1);
        r.observe_at("w.h", &[], 0, 9, Some(1));
        r.meta("m", &[("k", "v".into())]);
        assert!(r.events().is_empty());
        assert!(r.drain_trace().is_empty());
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let r = Recorder::enabled();
        {
            let outer = r.span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = r.span("inner");
                assert_ne!(inner.id(), outer.id());
            }
            let ev = r.events();
            match &ev[1] {
                Event::SpanStart { parent, name, .. } => {
                    assert_eq!(*parent, Some(outer_id));
                    assert_eq!(name, "inner");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // outer dropped: both ends present, inner closed before outer.
        let names: Vec<String> = r
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanEnd { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["inner".to_string(), "outer".to_string()]);
    }

    #[test]
    fn nested_span_timing_is_monotone() {
        let r = Recorder::enabled();
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let mut durs = BTreeMap::new();
        for ev in r.events() {
            if let Event::SpanEnd { name, dur_ns, .. } = ev {
                durs.insert(name, dur_ns);
            }
        }
        assert!(durs["outer"] >= durs["inner"], "{durs:?}");
        assert!(durs["inner"] > 0);
    }

    #[test]
    fn record_span_emits_exact_duration_under_current_parent() {
        let r = Recorder::enabled();
        let outer = r.span("outer");
        let outer_id = outer.id().unwrap();
        let id = r.record_span("measured", 1234).unwrap();
        drop(outer);
        let ev = r.events();
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::SpanStart { id: i, parent, name, .. }
                if *i == id && *parent == Some(outer_id) && name == "measured"
        )));
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::SpanEnd { id: i, dur_ns: 1234, .. } if *i == id
        )));
        assert!(Recorder::disabled().record_span("x", 1).is_none());
    }

    #[test]
    fn record_span_clamps_durations_longer_than_the_epoch() {
        let r = Recorder::enabled();
        // A duration no process could have measured: would back-date the
        // start before the recorder existed.
        let id = r.record_span("bogus", u64::MAX).unwrap();
        let ev = r.events();
        assert!(ev.iter().any(|e| matches!(
            e,
            Event::SpanEnd { id: i, dur_ns: 0, .. } if *i == id
        )));
        assert_eq!(r.metrics().counters["obskit.span.clamped"], 1);
        // A sane duration is untouched and does not count.
        std::thread::sleep(std::time::Duration::from_millis(1));
        r.record_span("fine", 1_000).unwrap();
        assert_eq!(r.metrics().counters["obskit.span.clamped"], 1);
    }

    #[test]
    fn counters_gauges_histograms_aggregate() {
        let r = Recorder::enabled();
        r.add_counter("tokens", 10);
        r.add_counter("tokens", 5);
        r.set_gauge("ex_pct", 61.5);
        r.set_gauge("ex_pct", 62.5);
        r.observe("lat", 100);
        r.observe("lat", 200);
        let m = r.metrics();
        assert_eq!(m.counters["tokens"], 15);
        assert_eq!(m.gauges["ex_pct"], 62.5);
        assert_eq!(m.histograms["lat"].count(), 2);
    }

    #[test]
    fn absorb_remaps_ids_and_merges_metrics() {
        let main = Recorder::enabled();
        let root = main.span("root");
        let root_id = root.id().unwrap();

        let worker = Recorder::enabled();
        {
            let _s = worker.span("item");
        }
        worker.add_counter("items", 1);
        worker.observe("lat", 42);
        worker.add_counter_at("req", &[("tenant", "t0")], 10, 1);

        main.absorb(&worker, Some(root_id));
        drop(root);

        let ev = main.events();
        // root start, absorbed item start/end and windowed write, root end.
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[3].name(), "tsdb.counter");
        match &ev[1] {
            Event::SpanStart {
                id, parent, name, ..
            } => {
                assert_eq!(name, "item");
                assert_eq!(*parent, Some(root_id));
                assert_ne!(*id, root_id, "child ids must be remapped, not collide");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(main.metrics().counters["items"], 1);
        assert_eq!(main.metrics().histograms["lat"].count(), 1);
    }

    #[test]
    fn absorb_order_determines_event_order() {
        let build = || {
            let main = Recorder::enabled();
            for n in ["a", "b", "c"] {
                let w = Recorder::enabled();
                {
                    let _s = w.span(n);
                }
                main.absorb(&w, None);
            }
            main.events()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn trace_contains_metric_summaries() {
        let r = Recorder::enabled();
        r.add_counter("c", 1);
        r.set_gauge("g", 2.0);
        r.observe("h", 3);
        let trace = r.drain_trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e, Event::Counter { name, value: 1 } if name == "c")));
        assert!(trace
            .iter()
            .any(|e| matches!(e, Event::Gauge { name, .. } if name == "g")));
        assert!(trace
            .iter()
            .any(|e| matches!(e, Event::Histogram { name, count: 1, .. } if name == "h")));
    }

    #[test]
    fn recorder_is_thread_safe() {
        let r = Recorder::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = r.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        r.add_counter("n", 1);
                    }
                });
            }
        });
        assert_eq!(r.metrics().counters["n"], 4000);
    }
}
