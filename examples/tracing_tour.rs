//! Tracing tour: record a full pipeline trace and replay it as a profile.
//!
//! ```text
//! cargo run --release --example tracing_tour
//! ```
//!
//! The same machinery backs `dail_sql_cli ... --trace FILE.jsonl` and
//! `dail_sql_cli profile FILE.jsonl`.

use dail_sql::prelude::*;

fn main() {
    // 1. One enabled recorder, entered as this thread's sink. Everything
    //    run while the guard lives records into it: the harness's per-item
    //    spans and the deep layers' counters and latency histograms
    //    (simllm, storage, promptkit, sqlkit, textkit). The harness's
    //    worker threads enter the same sink.
    let recorder = Recorder::enabled();
    let _sink = recorder.enter();

    // 2. A traced evaluation run.
    let bench = Benchmark::generate(BenchmarkConfig::tiny());
    let selector = ExampleSelector::new(&bench);
    let dail = DailSql::new(SimLlm::new("gpt-4").unwrap());
    let items = &bench.dev[..12.min(bench.dev.len())];
    let result = evaluate(&bench, &selector, &dail, items, 42, false);
    println!(
        "evaluated {} items: EX {:.1}% ({} prompt tokens total)\n",
        result.n,
        result.ex_pct(),
        result.cost.prompt_tokens
    );

    // 3. The raw trace is JSONL — one event per line, replayable later.
    let jsonl = recorder.to_jsonl();
    let preview: Vec<&str> = jsonl.lines().take(5).collect();
    println!("first trace lines:\n{}\n...\n", preview.join("\n"));

    // 4. Replay the trace into a per-stage breakdown. Span self-times sum
    //    to the run wall-clock; the metric tables aggregate every layer's
    //    counters, gauges and histograms.
    let events = recorder.drain_trace();
    let profile = Profile::from_events(&events);
    println!("{}", profile.to_markdown());

    // 5. Individual metrics are directly addressable too.
    let metrics = recorder.metrics();
    println!(
        "the executor ran {} statements and scanned {} rows to score this run",
        metrics
            .counters
            .get("storage.statements")
            .copied()
            .unwrap_or(0),
        metrics
            .counters
            .get("storage.rows_scanned")
            .copied()
            .unwrap_or(0),
    );
}
