//! Ablation benches for the design choices called out in DESIGN.md:
//! selection strategy cost, token-budget truncation, and self-consistency
//! sample count.

use bench::small_benchmark;
use criterion::{criterion_group, criterion_main, Criterion};
use dail_core::{DailSql, PredictCtx, Predictor};
use promptkit::{build_prompt, ExampleSelector, PromptConfig, SelectionStrategy};
use simllm::SimLlm;
use std::hint::black_box;
use textkit::{DomainMasker, Tokenizer};

fn ablate_selection(c: &mut Criterion) {
    let bench = small_benchmark();
    let selector = ExampleSelector::new(&bench);
    let item = &bench.dev[0];
    let spec = bench.spec(item);
    let masker = DomainMasker::new(spec.domain_terms());
    let masked = masker.mask(&item.question);
    let mut g = c.benchmark_group("ablate_selection");
    for strategy in SelectionStrategy::ALL {
        g.bench_function(strategy.as_str(), |b| {
            b.iter(|| {
                black_box(selector.select(
                    strategy,
                    &item.question,
                    &masked,
                    Some(&item.gold),
                    5,
                    1,
                ))
            })
        });
    }
    g.finish();
}

fn ablate_budget(c: &mut Criterion) {
    let bench = small_benchmark();
    let selector = ExampleSelector::new(&bench);
    let tokenizer = Tokenizer::new();
    let item = &bench.dev[0];
    let mut g = c.benchmark_group("ablate_budget");
    for budget in [256usize, 1024, 8192] {
        let mut cfg = PromptConfig::dail_sql(8);
        cfg.max_tokens = budget;
        g.bench_function(format!("budget_{budget}"), |b| {
            b.iter(|| {
                black_box(build_prompt(
                    &cfg,
                    &bench,
                    &selector,
                    black_box(item),
                    None,
                    false,
                    &tokenizer,
                    1,
                ))
            })
        });
    }
    g.finish();
}

fn ablate_sc(c: &mut Criterion) {
    let bench = small_benchmark();
    let selector = ExampleSelector::new(&bench);
    let tokenizer = Tokenizer::new();
    let ctx = PredictCtx {
        bench: &bench,
        selector: &selector,
        tokenizer: &tokenizer,
        seed: 1,
        realistic: false,
        trace: obskit::TraceContext::disabled(),
    };
    let item = &bench.dev[0];
    let mut g = c.benchmark_group("ablate_sc");
    g.sample_size(10);
    for k in [1usize, 3, 5, 10] {
        let p = DailSql::with_self_consistency(SimLlm::new("gpt-4").unwrap(), k);
        g.bench_function(format!("sc_{k}"), |b| {
            b.iter(|| black_box(p.predict(&ctx, black_box(item))))
        });
    }
    g.finish();
}

criterion_group!(benches, ablate_selection, ablate_budget, ablate_sc);
criterion_main!(benches);
