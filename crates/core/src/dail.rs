//! DAIL-SQL: the paper's integrated solution.
//!
//! Code representation (CR_P) + DAIL example selection (masked-question
//! similarity ∧ query-skeleton similarity against a preliminary prediction)
//! + DAIL example organization (question–SQL pairs), with optional
//!   self-consistency voting over sampled completions (the prompt is
//!   comprehended once and sampled k times).

use crate::pipeline::{PredictCtx, Prediction, Predictor};
use crate::self_consistency::vote_by_execution;
use promptkit::{build_prompt_traced, PromptConfig, QuestionRepr};
use simllm::{extract_sql, GenOptions, SimLlm};
use spider_gen::ExampleItem;
use sqlkit::parse_query;

/// The DAIL-SQL pipeline.
pub struct DailSql {
    /// The backbone model.
    pub model: SimLlm,
    /// Number of in-context examples.
    pub shots: usize,
    /// Self-consistency sample count (1 = greedy, no voting).
    pub self_consistency: usize,
}

impl DailSql {
    /// DAIL-SQL with the paper's defaults (5-shot, greedy).
    pub fn new(model: SimLlm) -> DailSql {
        DailSql {
            model,
            shots: 5,
            self_consistency: 1,
        }
    }

    /// DAIL-SQL + SC: self-consistency voting with `k` samples.
    pub fn with_self_consistency(model: SimLlm, k: usize) -> DailSql {
        DailSql {
            model,
            shots: 5,
            self_consistency: k.max(1),
        }
    }

    /// Run the preliminary zero-shot pass that seeds query-similarity
    /// selection.
    fn preliminary(
        &self,
        ctx: &PredictCtx<'_>,
        item: &ExampleItem,
    ) -> (Option<sqlkit::Query>, usize, usize) {
        let (_span, tctx) = ctx.trace.span("dail.preliminary");
        let cfg = PromptConfig::zero_shot(QuestionRepr::CodeRepr);
        let bundle = build_prompt_traced(
            &cfg,
            ctx.bench,
            ctx.selector,
            item,
            None,
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
            tctx,
        );
        let out = self.model.complete(
            &bundle.text,
            &GenOptions {
                seed: ctx.seed,
                trace: tctx,
                ..Default::default()
            },
        );
        let sql = extract_sql(&out, bundle.text.trim_end().ends_with("SELECT"));
        let completion = ctx.tokenizer.count(&sql);
        (parse_query(&sql).ok(), bundle.tokens, completion)
    }
}

impl Predictor for DailSql {
    fn name(&self) -> String {
        if self.self_consistency > 1 {
            format!("DAIL-SQL({}) + SC", self.model.profile.name)
        } else {
            format!("DAIL-SQL({})", self.model.profile.name)
        }
    }

    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
        // Stage 1: preliminary prediction for skeleton-aware selection.
        let (preliminary, mut prompt_tokens, mut completion_tokens) = self.preliminary(ctx, item);
        let mut api_calls = 1;

        // Stage 2: DAIL prompt.
        let (_span, tctx) = ctx.trace.span("dail.main");
        let cfg = PromptConfig::dail_sql(self.shots);
        let bundle = build_prompt_traced(
            &cfg,
            ctx.bench,
            ctx.selector,
            item,
            preliminary.as_ref(),
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
            tctx,
        );
        let had_prefix = bundle.text.trim_end().ends_with("SELECT");

        let sql = if self.self_consistency <= 1 {
            let out = self.model.complete(
                &bundle.text,
                &GenOptions {
                    seed: ctx.seed,
                    trace: tctx,
                    ..Default::default()
                },
            );
            prompt_tokens += bundle.tokens;
            api_calls += 1;
            let sql = extract_sql(&out, had_prefix);
            completion_tokens += ctx.tokenizer.count(&sql);
            sql
        } else {
            // Every sample reads the same prompt: comprehend it once.
            let comprehension = self.model.comprehend(&bundle.text, tctx);
            let mut candidates = Vec::with_capacity(self.self_consistency);
            for i in 0..self.self_consistency {
                // Sample 0 is the greedy decode (standard practice: include
                // the temperature-0 answer among the voters).
                let temperature = if i == 0 { 0.0 } else { 1.0 };
                let out = self.model.sample(
                    &comprehension,
                    &GenOptions {
                        seed: ctx.seed,
                        temperature,
                        sample_index: i as u32,
                        trace: tctx,
                    },
                );
                prompt_tokens += bundle.tokens;
                api_calls += 1;
                let sql = extract_sql(&out, had_prefix);
                completion_tokens += ctx.tokenizer.count(&sql);
                candidates.push(sql);
            }
            if obskit::enabled() {
                obskit::current()
                    .add_counter("dail.self_consistency_samples", candidates.len() as u64);
            }
            vote_by_execution(ctx.bench.db(item), &candidates)
        };

        Prediction {
            sql,
            prompt_tokens,
            completion_tokens,
            api_calls,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promptkit::ExampleSelector;
    use spider_gen::{Benchmark, BenchmarkConfig};
    use textkit::Tokenizer;

    fn ctx_parts() -> (Benchmark, Tokenizer) {
        (
            Benchmark::generate(BenchmarkConfig::tiny()),
            Tokenizer::new(),
        )
    }

    #[test]
    fn dail_sql_produces_parseable_sql_mostly() {
        let (bench, tok) = ctx_parts();
        let selector = ExampleSelector::new(&bench);
        let ctx = PredictCtx {
            bench: &bench,
            selector: &selector,
            tokenizer: &tok,
            seed: 3,
            realistic: false,
            trace: obskit::TraceContext::disabled(),
        };
        let pipe = DailSql::new(SimLlm::new("gpt-4").unwrap());
        let mut parseable = 0;
        let n = 10.min(bench.dev.len());
        for item in &bench.dev[..n] {
            let pred = pipe.predict(&ctx, item);
            assert!(pred.api_calls >= 2, "preliminary + main call");
            assert!(pred.prompt_tokens > 0);
            if parse_query(&pred.sql).is_ok() {
                parseable += 1;
            }
        }
        assert!(parseable >= n * 8 / 10, "{parseable}/{n}");
    }

    #[test]
    fn self_consistency_makes_more_calls() {
        let (bench, tok) = ctx_parts();
        let selector = ExampleSelector::new(&bench);
        let ctx = PredictCtx {
            bench: &bench,
            selector: &selector,
            tokenizer: &tok,
            seed: 3,
            realistic: false,
            trace: obskit::TraceContext::disabled(),
        };
        let greedy = DailSql::new(SimLlm::new("gpt-4").unwrap());
        let sc = DailSql::with_self_consistency(SimLlm::new("gpt-4").unwrap(), 5);
        let item = &bench.dev[0];
        assert_eq!(greedy.predict(&ctx, item).api_calls, 2);
        assert_eq!(sc.predict(&ctx, item).api_calls, 6);
    }

    #[test]
    fn names_reflect_configuration() {
        let a = DailSql::new(SimLlm::new("gpt-4").unwrap());
        let b = DailSql::with_self_consistency(SimLlm::new("gpt-4").unwrap(), 5);
        assert_eq!(a.name(), "DAIL-SQL(gpt-4)");
        assert!(b.name().contains("SC"));
    }
}
