//! Determinism test: the same evaluation run on one worker thread and on
//! four must produce the same report *and* the same trace.
//!
//! Per-item seeds derive from `seed ^ item.id` and workers absorb their
//! local recorders in chunk order, so nothing observable may depend on
//! thread scheduling. Traces are compared through
//! [`obskit::canonical_jsonl`], which zeroes wall-clock timestamps and
//! durations; the `eval.threads` gauge is filtered out because reporting
//! the thread count is the gauge's whole job. The layers underneath also
//! record into the run's sink, and their latency histograms hold
//! wall-clock samples, so histograms are compared by name and
//! observation count.

use dail_core::DailSql;
use eval::{evaluate_opts, EvalOptions, RunResult};
use obskit::canonical_jsonl;
use promptkit::ExampleSelector;
use simllm::SimLlm;
use spider_gen::{Benchmark, BenchmarkConfig};

/// Run the full DAIL pipeline over the tiny benchmark with `threads`
/// workers, returning the result, the canonicalised, filtered trace, and
/// each histogram's name and observation count.
fn run(threads: usize) -> (RunResult, String, Vec<(String, u64)>) {
    let bench = Benchmark::generate(BenchmarkConfig::tiny());
    let selector = ExampleSelector::new(&bench);
    let predictor = DailSql::new(SimLlm::new("gpt-4").expect("gpt-4 is in the zoo"));
    let items = &bench.dev[..8.min(bench.dev.len())];
    let opts = EvalOptions {
        threads: Some(threads),
        digests: false,
    };
    let rec = obskit::Recorder::enabled();
    let result = {
        let _sink = rec.enter();
        evaluate_opts(&bench, &selector, &predictor, items, 2023, false, &opts)
    };
    let mut hists = Vec::new();
    let events: Vec<obskit::Event> = rec
        .drain_trace()
        .into_iter()
        .filter(|e| match e {
            obskit::Event::Histogram { name, count, .. } => {
                hists.push((name.clone(), *count));
                false
            }
            other => other.name() != "eval.threads",
        })
        .collect();
    (result, canonical_jsonl(&events), hists)
}

#[test]
fn reports_and_traces_are_identical_across_thread_counts() {
    let (r1, trace1, hists1) = run(1);
    let (r4, trace4, hists4) = run(4);

    // Every observable field of the report matches...
    assert_eq!(r1.name, r4.name);
    assert_eq!(r1.n, r4.n);
    assert_eq!(r1.valid, r4.valid);
    assert_eq!(r1.ex, r4.ex);
    assert_eq!(r1.em, r4.em);
    assert_eq!(r1.ex_by_hardness, r4.ex_by_hardness);
    assert_eq!(r1.ex_outcomes, r4.ex_outcomes);
    assert_eq!(r1.cost.prompt_tokens, r4.cost.prompt_tokens);
    assert_eq!(r1.cost.completion_tokens, r4.cost.completion_tokens);
    assert_eq!(r1.cost.api_calls, r4.cost.api_calls);
    assert_eq!(r1.cost.items, r4.cost.items);

    // ...and so does every byte of the canonicalised trace.
    assert_eq!(trace1, trace4);
    assert!(!trace1.is_empty(), "tracing must actually record events");
    assert_eq!(hists1, hists4);
    assert!(
        !hists1.is_empty(),
        "the layers underneath record into the sink"
    );
}

#[test]
fn repeat_runs_on_the_same_thread_count_are_stable() {
    let (r_a, trace_a, hists_a) = run(4);
    let (r_b, trace_b, hists_b) = run(4);
    assert_eq!(r_a.ex_outcomes, r_b.ex_outcomes);
    assert_eq!(trace_a, trace_b);
    assert_eq!(hists_a, hists_b);
}
