//! The current sink is per thread: entering a recorder scopes telemetry
//! to the entering thread, guards nest, and a recorder's trace drains
//! without being consumed.

use obskit::{Event, Recorder};

/// What deep layers do: emit to whatever sink is current.
fn emit(name: &str) {
    if obskit::enabled() {
        obskit::current().add_counter(name, 1);
        let _span = obskit::current().span(name);
    }
}

fn counter_names(rec: &Recorder) -> Vec<String> {
    rec.metrics().counters.into_keys().collect()
}

#[test]
fn threads_with_different_sinks_record_only_their_own_events() {
    let (a, b) = (Recorder::enabled(), Recorder::enabled());
    // Both sinks are current at once before either thread emits.
    let entered = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for (rec, name) in [(&a, "a"), (&b, "b")] {
            let entered = &entered;
            scope.spawn(move || {
                let _sink = rec.enter();
                entered.wait();
                for _ in 0..100 {
                    emit(name);
                }
            });
        }
    });
    for (rec, name) in [(&a, "a"), (&b, "b")] {
        assert_eq!(counter_names(rec), vec![name.to_string()]);
        assert_eq!(rec.metrics().counters[name], 100);
        assert!(rec.events().iter().all(|e| e.name() == name));
        assert_eq!(rec.events().len(), 200, "100 span start/end pairs");
    }
}

#[test]
fn dropping_a_nested_guard_restores_the_outer_sink() {
    let (outer, inner) = (Recorder::enabled(), Recorder::enabled());
    assert!(!obskit::enabled(), "no sink before the first enter");
    {
        let _outer = outer.enter();
        emit("before");
        {
            let _inner = inner.enter();
            emit("nested");
            {
                // A disabled recorder switches telemetry off for its scope.
                let _off = Recorder::disabled().enter();
                assert!(!obskit::enabled());
                emit("silenced");
            }
            assert!(obskit::enabled());
            emit("nested_again");
        }
        emit("after");
    }
    assert!(!obskit::enabled(), "the last guard restores no sink");
    emit("outside");
    assert_eq!(counter_names(&outer), vec!["after", "before"]);
    assert_eq!(counter_names(&inner), vec!["nested", "nested_again"]);
}

#[test]
fn a_thread_that_enters_no_sink_records_nothing() {
    let rec = Recorder::enabled();
    let _sink = rec.enter();
    emit("caller");
    let worker_saw_enabled = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                emit("worker");
                let ctx = obskit::TraceContext::root(None);
                let (span, _) = ctx.span("worker.request");
                assert!(span.id().is_none(), "no sink, no span");
                obskit::enabled() || obskit::current().is_enabled()
            })
            .join()
            .unwrap()
    });
    assert!(!worker_saw_enabled);
    assert_eq!(counter_names(&rec), vec!["caller"]);
}

#[test]
fn drain_trace_is_repeatable() {
    let rec = Recorder::enabled();
    rec.add_counter("plain", 2);
    rec.meta("note", &[("k", "a".into())]);
    {
        let _span = rec.span("work");
    }
    let first = rec.drain_trace();
    let second = rec.drain_trace();
    assert_eq!(first, second);
    assert_eq!(rec.to_jsonl(), rec.to_jsonl());
    // Recorded events come in order, before the sorted counter summary.
    let names: Vec<&str> = first.iter().map(Event::name).collect();
    assert_eq!(names, vec!["note", "work", "work", "plain"]);
    // Folding the drained trace twice gives the same annotations and sums.
    let folded = obskit::Profile::from_events(&first);
    let again = obskit::Profile::from_events(&second);
    assert_eq!(folded.metas, again.metas);
    assert_eq!(folded.metrics.counters, again.metrics.counters);
    assert_eq!(folded.metrics.counters["plain"], 2);
    assert!(Recorder::disabled().drain_trace().is_empty());
}
