//! End-to-end serving tests: determinism across worker counts, fault
//! tolerance without panics, typed load shedding, cache eviction, and EX
//! correctness of served responses.

use std::sync::atomic::{AtomicU64, Ordering};

use dail_core::{PredictCtx, Prediction, Predictor, ZeroShot};
use promptkit::{ExampleSelector, QuestionRepr};
use servekit::{generate, serve, LoadConfig, Outcome, ServeConfig, ServeReq};
use simllm::{FaultConfig, SimLlm};
use spider_gen::{Benchmark, BenchmarkConfig};

fn bench() -> Benchmark {
    Benchmark::generate(BenchmarkConfig::tiny())
}

fn ctx<'a>(
    bench: &'a Benchmark,
    selector: &'a ExampleSelector<'a>,
    tokenizer: &'a textkit::Tokenizer,
) -> PredictCtx<'a> {
    PredictCtx {
        bench,
        selector,
        tokenizer,
        seed: 7,
        realistic: false,
        trace: obskit::TraceContext::disabled(),
    }
}

fn faulty() -> FaultConfig {
    FaultConfig {
        seed: 7,
        error_rate: 0.15,
        spike_rate: 0.1,
        spike_ms: 300,
        corrupt_rate: 0.05,
    }
}

/// Returns the gold SQL for every item.
struct Oracle;
impl Predictor for Oracle {
    fn name(&self) -> String {
        "oracle".into()
    }
    fn predict(&self, _ctx: &PredictCtx<'_>, item: &spider_gen::ExampleItem) -> Prediction {
        Prediction {
            sql: item.gold_sql.clone(),
            prompt_tokens: 0,
            completion_tokens: 0,
            api_calls: 1,
        }
    }
}

#[test]
fn serve_is_deterministic_across_worker_counts() {
    let b = bench();
    let selector = ExampleSelector::new(&b);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = ctx(&b, &selector, &tokenizer);
    let predictor = ZeroShot::new(
        SimLlm::new("gpt-3.5-turbo").unwrap(),
        QuestionRepr::CodeRepr,
    );
    let reqs = generate(
        &LoadConfig {
            requests: 80,
            ..LoadConfig::default()
        },
        b.dev.len(),
    );
    let cfg1 = ServeConfig {
        workers: 1,
        faults: faulty(),
        ..ServeConfig::default()
    };
    let cfg4 = ServeConfig {
        workers: 4,
        ..cfg1.clone()
    };
    let out1 = serve(&predictor, &ctx, &b.dev, &reqs, &cfg1);
    let out4 = serve(&predictor, &ctx, &b.dev, &reqs, &cfg4);
    assert_eq!(
        out1.outcomes, out4.outcomes,
        "outcomes depend on worker count"
    );
    assert_eq!(out1.stats, out4.stats, "stats depend on worker count");
}

#[test]
fn faults_are_absorbed_without_panics() {
    let b = bench();
    let selector = ExampleSelector::new(&b);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = ctx(&b, &selector, &tokenizer);
    let predictor = ZeroShot::new(
        SimLlm::new("gpt-3.5-turbo").unwrap(),
        QuestionRepr::CodeRepr,
    );
    let reqs = generate(
        &LoadConfig {
            requests: 100,
            ..LoadConfig::default()
        },
        b.dev.len(),
    );
    let cfg = ServeConfig {
        faults: FaultConfig {
            seed: 3,
            error_rate: 0.4,
            spike_rate: 0.2,
            spike_ms: 400,
            corrupt_rate: 0.1,
        },
        ..ServeConfig::default()
    };
    let out = serve(&predictor, &ctx, &b.dev, &reqs, &cfg);
    assert_eq!(out.stats.panics, 0);
    assert!(out.stats.retries > 0, "40% transient errors must retry");
    assert!(
        out.stats.cache.served > 0,
        "duplicated requests must be served from cache"
    );
    assert_eq!(
        out.stats.ok + out.stats.failed + out.stats.deadline_exceeded,
        out.stats.admitted,
        "every admitted request resolves to a typed outcome"
    );
    // Duplicates of the same key get identical terminal outcomes.
    let keys: Vec<usize> = reqs.iter().map(|r| r.item_idx).collect();
    for i in 0..reqs.len() {
        for j in (i + 1)..reqs.len() {
            if keys[i] != keys[j] {
                continue;
            }
            match (&out.outcomes[i], &out.outcomes[j]) {
                (Outcome::Overloaded, _) | (_, Outcome::Overloaded) => {}
                (Outcome::Ok { sql: a, .. }, Outcome::Ok { sql: b, .. }) => assert_eq!(a, b),
                (a, b) => assert_eq!(
                    std::mem::discriminant(a),
                    std::mem::discriminant(b),
                    "same key resolved differently: {a:?} vs {b:?}"
                ),
            }
        }
    }
}

#[test]
fn overload_sheds_with_typed_outcome() {
    let b = bench();
    let selector = ExampleSelector::new(&b);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = ctx(&b, &selector, &tokenizer);
    let reqs = generate(
        &LoadConfig {
            requests: 60,
            mean_gap_ms: 0, // everything arrives at t=0
            dup_rate: 0.0,
            ..LoadConfig::default()
        },
        b.dev.len(),
    );
    let cfg = ServeConfig {
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let out = serve(&Oracle, &ctx, &b.dev, &reqs, &cfg);
    assert!(out.stats.shed > 0, "a burst beyond capacity must shed");
    assert_eq!(
        out.outcomes
            .iter()
            .filter(|o| matches!(o, Outcome::Overloaded))
            .count() as u64,
        out.stats.shed
    );
    assert!(out.stats.admitted > 0, "the buffer still admits some");
}

#[test]
fn served_oracle_responses_are_execution_accurate() {
    let b = bench();
    let selector = ExampleSelector::new(&b);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = ctx(&b, &selector, &tokenizer);
    let reqs = generate(&LoadConfig::default(), b.dev.len());
    let out = serve(&Oracle, &ctx, &b.dev, &reqs, &ServeConfig::default());
    assert!(out.stats.ok > 0);
    for (req, outcome) in reqs.iter().zip(&out.outcomes) {
        if let Outcome::Ok { sql, .. } = outcome {
            let item = &b.dev[req.item_idx];
            let score = eval::score_item(b.db(item), item, sql);
            assert!(score.ex, "served oracle SQL must be execution-accurate");
        }
    }
}

/// Predicts the gold SQL and counts its calls.
struct Counting(AtomicU64);
impl Predictor for Counting {
    fn name(&self) -> String {
        "counting".into()
    }
    fn predict(&self, ctx: &PredictCtx<'_>, item: &spider_gen::ExampleItem) -> Prediction {
        self.0.fetch_add(1, Ordering::Relaxed);
        Oracle.predict(ctx, item)
    }
}

#[test]
fn an_evicted_key_runs_again_and_only_cache_hits_are_billed_the_hit_cost() {
    let b = bench();
    let selector = ExampleSelector::new(&b);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = ctx(&b, &selector, &tokenizer);
    // 4,100 distinct questions overflow the 4,096-entry cache, so item 0,
    // the least recently used, is evicted before it is requested again.
    let items: Vec<_> = (0..4_100)
        .map(|i| {
            let mut item = b.dev[i % b.dev.len()].clone();
            item.question = format!("{} #{i}", item.question);
            item
        })
        .collect();
    let reqs: Vec<ServeReq> = (0..items.len())
        .chain([0])
        .enumerate()
        .map(|(n, item_idx)| ServeReq {
            item_idx,
            arrival_ms: 1_000 * n as u64,
            tenant: 0,
        })
        .collect();
    let predictor = Counting(AtomicU64::new(0));
    let out = serve(&predictor, &ctx, &items, &reqs, &ServeConfig::default());
    let stats = &out.stats;
    assert_eq!(stats.admitted, reqs.len() as u64);
    assert!(stats.cache.evictions > 0);
    assert_eq!(predictor.0.load(Ordering::Relaxed), stats.cache.misses);
    assert_eq!(
        stats.service_ms.iter().filter(|&&ms| ms == 1).count() as u64,
        stats.cache.served
    );
}
