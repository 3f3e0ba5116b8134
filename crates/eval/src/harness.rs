//! Evaluation harness: run a predictor over a dev set, in parallel, and
//! aggregate metrics.

use crate::cost::CostTally;
use crate::digest::DigestAccumulator;
use crate::metrics::{score_item_traced, ItemScore};
use dail_core::{PredictCtx, Predictor};
use promptkit::ExampleSelector;
use spider_gen::{Benchmark, ExampleItem};
use sqlkit::Hardness;
use std::collections::BTreeMap;
use textkit::Tokenizer;

/// Aggregated result of one evaluation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Predictor name.
    pub name: String,
    /// Items evaluated.
    pub n: usize,
    /// Count of valid (parse + execute) predictions.
    pub valid: usize,
    /// Count of execution-accurate predictions.
    pub ex: usize,
    /// Count of exact-set matches.
    pub em: usize,
    /// EX correct/total per hardness bucket.
    pub ex_by_hardness: BTreeMap<Hardness, (usize, usize)>,
    /// Per-item EX outcomes, in item order (for bootstrap CIs).
    pub ex_outcomes: Vec<bool>,
    /// Token/call accounting.
    pub cost: CostTally,
    /// Query-digest rollup over executed predictions. `Some` only when
    /// [`EvalOptions::digests`] was set; the default scoring path never
    /// touches the analyzed executor.
    pub digests: Option<DigestAccumulator>,
}

impl RunResult {
    /// EX percentage.
    pub fn ex_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.ex as f64 / self.n as f64
        }
    }

    /// EM percentage.
    pub fn em_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.em as f64 / self.n as f64
        }
    }

    /// Valid-SQL percentage.
    pub fn valid_pct(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            100.0 * self.valid as f64 / self.n as f64
        }
    }

    /// 95% bootstrap confidence interval for EX.
    pub fn ex_ci95(&self, seed: u64) -> crate::stats::ConfidenceInterval {
        crate::stats::bootstrap_ci95(&self.ex_outcomes, seed)
    }
}

/// Knobs for [`evaluate_opts`] beyond the core inputs.
///
/// Telemetry is not a knob: the run records into the caller's current
/// obskit sink (see [`obskit::Recorder::enter`]), if any.
#[derive(Default)]
pub struct EvalOptions {
    /// Worker-thread override. `None` falls back to the `DAIL_THREADS`
    /// environment variable ([`promptkit::resolve_threads`]), then to
    /// available parallelism.
    pub threads: Option<usize>,
    /// Score through the analyzed executor and build a query-digest rollup
    /// in [`RunResult::digests`]. Off by default: scores are identical
    /// either way, but the analyzed path pays per-operator bookkeeping.
    pub digests: bool,
}

/// Resolve the worker-thread count: a positive explicit override, else
/// the shared `DAIL_THREADS` resolver, clamped to the number of items.
fn resolve_threads(threads: Option<usize>, n_items: usize) -> usize {
    threads
        .filter(|&n| n > 0)
        .unwrap_or_else(promptkit::resolve_threads)
        .min(n_items.max(1))
}

/// Evaluate a predictor over `items`, running chunks on worker threads.
///
/// Per-item seeds derive from `seed ^ item.id`, so results are independent
/// of thread count and item order. Shorthand for [`evaluate_opts`] with
/// [`EvalOptions::default`].
pub fn evaluate(
    bench: &Benchmark,
    selector: &ExampleSelector<'_>,
    predictor: &(dyn Predictor + Sync),
    items: &[ExampleItem],
    seed: u64,
    realistic: bool,
) -> RunResult {
    evaluate_opts(
        bench,
        selector,
        predictor,
        items,
        seed,
        realistic,
        &EvalOptions::default(),
    )
}

/// [`evaluate`] with explicit [`EvalOptions`]. Traced when an enabled
/// obskit sink is current: per-item spans and cost counters are buffered
/// per worker and absorbed in chunk order. Each worker enters its own
/// buffer, so what the layers underneath record lands there too, nested
/// under the item's open span and in item order.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_opts(
    bench: &Benchmark,
    selector: &ExampleSelector<'_>,
    predictor: &(dyn Predictor + Sync),
    items: &[ExampleItem],
    seed: u64,
    realistic: bool,
    opts: &EvalOptions,
) -> RunResult {
    let threads = resolve_threads(opts.threads, items.len());
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let rec = &obskit::current();
    let eval_span = rec.span("evaluate");
    rec.set_gauge("eval.threads", threads as f64);

    let digests_on = opts.digests;
    type Scored = (ItemScore, Hardness, usize, usize, usize);
    let (scored, digests): (Vec<Scored>, Option<DigestAccumulator>) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for part in items.chunks(chunk) {
            // Workers buffer trace events locally; the buffers are absorbed
            // below in chunk order, so trace ordering is independent of
            // thread scheduling.
            let wrec = if rec.is_enabled() {
                obskit::Recorder::enabled()
            } else {
                obskit::Recorder::disabled()
            };
            let id_lo = part.first().map(|i| i.id).unwrap_or(0);
            let id_hi = part.last().map(|i| i.id).unwrap_or(0);
            let handle = {
                let wrec = wrec.clone();
                scope.spawn(move || {
                    let _sink = wrec.enter();
                    let tokenizer = Tokenizer::new();
                    let ctx = PredictCtx {
                        bench,
                        selector,
                        tokenizer: &tokenizer,
                        seed,
                        realistic,
                        trace: obskit::TraceContext::disabled(),
                    };
                    let mut acc = digests_on.then(DigestAccumulator::new);
                    let part_scores = part
                        .iter()
                        .map(|item| {
                            let item_span = wrec.span("item");
                            let pred = {
                                let _s = item_span.child("predict");
                                predictor.predict(&ctx, item)
                            };
                            let score = {
                                let _s = item_span.child("score");
                                score_item_traced(
                                    bench.db(item),
                                    item,
                                    &pred.sql,
                                    ctx.trace,
                                    acc.as_mut(),
                                )
                            };
                            wrec.add_counter("eval.items", 1);
                            wrec.add_counter("eval.prompt_tokens", pred.prompt_tokens as u64);
                            wrec.add_counter(
                                "eval.completion_tokens",
                                pred.completion_tokens as u64,
                            );
                            wrec.add_counter("eval.api_calls", pred.api_calls as u64);
                            (
                                score,
                                item.hardness,
                                pred.prompt_tokens,
                                pred.completion_tokens,
                                pred.api_calls,
                            )
                        })
                        .collect::<Vec<_>>();
                    (part_scores, acc)
                })
            };
            handles.push((handle, wrec, id_lo, id_hi));
        }
        let mut all = Vec::with_capacity(items.len());
        // Merged in chunk order, though digest merging is order-independent
        // anyway, so the rollup matches a single-threaded run.
        let mut merged = digests_on.then(DigestAccumulator::new);
        for (handle, wrec, id_lo, id_hi) in handles {
            match handle.join() {
                Ok((part, acc)) => {
                    all.extend(part);
                    if let (Some(m), Some(a)) = (&mut merged, &acc) {
                        m.merge(a);
                    }
                }
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic payload>");
                    panic!("evaluation worker panicked on items {id_lo}..={id_hi}: {msg}");
                }
            }
            rec.absorb(&wrec, eval_span.id());
        }
        (all, merged)
    });

    let mut out = RunResult {
        name: predictor.name(),
        n: scored.len(),
        valid: 0,
        ex: 0,
        em: 0,
        ex_by_hardness: BTreeMap::new(),
        ex_outcomes: Vec::with_capacity(scored.len()),
        cost: CostTally::default(),
        digests,
    };
    for (score, hardness, pt, ct, calls) in scored {
        out.valid += usize::from(score.valid);
        out.ex += usize::from(score.ex);
        out.em += usize::from(score.em);
        out.ex_outcomes.push(score.ex);
        let e = out.ex_by_hardness.entry(hardness).or_insert((0, 0));
        e.0 += usize::from(score.ex);
        e.1 += 1;
        out.cost.add(pt, ct, calls);
    }
    rec.set_gauge("eval.ex_pct", out.ex_pct());
    rec.set_gauge("eval.em_pct", out.em_pct());
    rec.set_gauge("eval.valid_pct", out.valid_pct());
    drop(eval_span);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dail_core::{Prediction, ZeroShot};
    use promptkit::QuestionRepr;
    use simllm::SimLlm;
    use spider_gen::BenchmarkConfig;

    /// A predictor that always returns the gold SQL (oracle).
    struct Oracle;
    impl Predictor for Oracle {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn predict(&self, _ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
            Prediction {
                sql: item.gold_sql.clone(),
                prompt_tokens: 10,
                completion_tokens: 5,
                api_calls: 1,
            }
        }
    }

    #[test]
    fn oracle_scores_100() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let r = evaluate(&bench, &selector, &Oracle, &bench.dev, 1, false);
        assert_eq!(r.ex, r.n);
        assert_eq!(r.em, r.n);
        assert_eq!(r.valid, r.n);
        assert!((r.ex_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn evaluation_is_deterministic_across_runs() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let z = ZeroShot::new(
            SimLlm::new("gpt-3.5-turbo").unwrap(),
            QuestionRepr::CodeRepr,
        );
        let items = &bench.dev[..20.min(bench.dev.len())];
        let a = evaluate(&bench, &selector, &z, items, 7, false);
        let b = evaluate(&bench, &selector, &z, items, 7, false);
        assert_eq!(a.ex, b.ex);
        assert_eq!(a.em, b.em);
        assert_eq!(a.cost.prompt_tokens, b.cost.prompt_tokens);
    }

    #[test]
    fn hardness_breakdown_sums_to_n() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let r = evaluate(&bench, &selector, &Oracle, &bench.dev, 1, false);
        let total: usize = r.ex_by_hardness.values().map(|(_, t)| t).sum();
        assert_eq!(total, r.n);
    }

    #[test]
    fn thread_override_gives_same_results() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let one = EvalOptions {
            threads: Some(1),
            ..Default::default()
        };
        let many = EvalOptions {
            threads: Some(7),
            ..Default::default()
        };
        let a = evaluate_opts(&bench, &selector, &Oracle, &bench.dev, 1, false, &one);
        let b = evaluate_opts(&bench, &selector, &Oracle, &bench.dev, 1, false, &many);
        assert_eq!(a.ex, b.ex);
        assert_eq!(a.ex_outcomes, b.ex_outcomes);
        assert_eq!(a.cost.prompt_tokens, b.cost.prompt_tokens);
    }

    #[test]
    fn worker_panic_names_item_id_range() {
        struct Bomb;
        impl Predictor for Bomb {
            fn name(&self) -> String {
                "bomb".into()
            }
            fn predict(&self, _ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
                panic!("boom on item {}", item.id);
            }
        }
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let items = bench.dev[..4.min(bench.dev.len())].to_vec();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let opts = EvalOptions {
                threads: Some(1),
                ..Default::default()
            };
            evaluate_opts(&bench, &selector, &Bomb, &items, 1, false, &opts);
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "<none>".into());
        assert!(msg.contains("evaluation worker panicked on items"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn tracing_run_produces_spans_and_counters() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let items = &bench.dev[..6.min(bench.dev.len())];
        let opts = EvalOptions {
            threads: Some(2),
            digests: false,
        };
        let rec = obskit::Recorder::enabled();
        let r = {
            let _sink = rec.enter();
            evaluate_opts(&bench, &selector, &Oracle, items, 1, false, &opts)
        };
        let m = rec.metrics();
        assert_eq!(m.counters["eval.items"], items.len() as u64);
        assert_eq!(
            m.counters["eval.prompt_tokens"],
            r.cost.prompt_tokens as u64
        );
        // The workers entered the sink: the executor scoring each item
        // recorded into it too.
        assert_eq!(m.counters["storage.statements"], 2 * items.len() as u64);
        // One predict + one score span per item, plus the evaluate span.
        let ends: Vec<String> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                obskit::Event::SpanEnd { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(ends.iter().filter(|s| *s == "predict").count(), items.len());
        assert_eq!(ends.iter().filter(|s| *s == "score").count(), items.len());
        assert_eq!(ends.iter().filter(|s| *s == "evaluate").count(), 1);
    }

    #[test]
    fn trace_event_order_is_independent_of_thread_count() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let items = &bench.dev[..6.min(bench.dev.len())];
        let run = |threads: usize| {
            let opts = EvalOptions {
                threads: Some(threads),
                digests: false,
            };
            let rec = obskit::Recorder::enabled();
            let _sink = rec.enter();
            evaluate_opts(&bench, &selector, &Oracle, items, 1, false, &opts);
            rec.drain_trace()
                .into_iter()
                // The thread-count gauge is the one legitimately varying bit.
                .filter(|e| e.name() != "eval.threads")
                .collect::<Vec<_>>()
        };
        // Event equality excludes timestamps, so identical workloads give
        // identical traces regardless of parallelism.
        assert_eq!(run(1), run(3));
    }
}
