//! Leaderboard baselines: zero-shot prompting, a DIN-SQL-style pipeline
//! (decomposition-flavoured few-shot with execution-guided self-correction),
//! and a C3-style pipeline (calibrated zero-shot ChatGPT with
//! self-consistency). These reproduce the *mechanics* the leaderboard rows
//! compare — few-shot quality, correction loops, sampling — at this
//! repository's abstraction level.

use crate::pipeline::{PredictCtx, Prediction, Predictor};
use crate::self_consistency::vote_by_execution;
use promptkit::{
    build_prompt_traced, OrganizationStrategy, PromptConfig, QuestionRepr, ReprOptions,
    SelectionStrategy,
};
use simllm::{extract_sql, GenOptions, SimLlm};
use spider_gen::ExampleItem;
use storage::execute_query;

/// Plain zero-shot prompting with a chosen representation.
pub struct ZeroShot {
    /// Backbone model.
    pub model: SimLlm,
    /// Representation.
    pub repr: QuestionRepr,
    /// Representation toggles.
    pub opts: ReprOptions,
}

impl ZeroShot {
    /// Zero-shot with default toggles.
    pub fn new(model: SimLlm, repr: QuestionRepr) -> ZeroShot {
        ZeroShot {
            model,
            repr,
            opts: ReprOptions::default(),
        }
    }
}

impl Predictor for ZeroShot {
    fn name(&self) -> String {
        format!(
            "ZeroShot[{}]({})",
            self.repr.as_str(),
            self.model.profile.name
        )
    }

    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
        let cfg = PromptConfig {
            repr: self.repr,
            opts: self.opts,
            ..PromptConfig::zero_shot(self.repr)
        };
        let bundle = build_prompt_traced(
            &cfg,
            ctx.bench,
            ctx.selector,
            item,
            None,
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
            ctx.trace,
        );
        let had_prefix = bundle.text.trim_end().ends_with("SELECT");
        let out = self.model.complete(
            &bundle.text,
            &GenOptions {
                seed: ctx.seed,
                trace: ctx.trace,
                ..Default::default()
            },
        );
        let sql = extract_sql(&out, had_prefix);
        Prediction {
            completion_tokens: ctx.tokenizer.count(&sql),
            sql,
            prompt_tokens: bundle.tokens,
            api_calls: 1,
        }
    }
}

/// Generic few-shot predictor over an arbitrary prompt configuration — the
/// workhorse of the example-selection and example-organization experiment
/// grids.
pub struct FewShot {
    /// Backbone model.
    pub model: SimLlm,
    /// The full prompt configuration (representation, selection,
    /// organization, shots, budget).
    pub cfg: PromptConfig,
    /// Run a preliminary zero-shot pass to seed query-similarity selection
    /// (QRS / DAIL need it; others ignore it).
    pub use_preliminary: bool,
}

impl FewShot {
    /// Few-shot with a configuration.
    pub fn new(model: SimLlm, cfg: PromptConfig) -> FewShot {
        let use_preliminary = matches!(
            cfg.selection,
            SelectionStrategy::QuerySimilarity | SelectionStrategy::Dail
        );
        FewShot {
            model,
            cfg,
            use_preliminary,
        }
    }
}

impl Predictor for FewShot {
    fn name(&self) -> String {
        format!(
            "FewShot[{} sel={} org={} k={}]({})",
            self.cfg.repr.as_str(),
            self.cfg.selection.as_str(),
            self.cfg.organization.as_str(),
            self.cfg.shots,
            self.model.profile.name
        )
    }

    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
        let mut prompt_tokens = 0;
        let mut completion_tokens = 0;
        let mut api_calls = 0;
        let preliminary = if self.use_preliminary {
            let cfg = PromptConfig::zero_shot(self.cfg.repr);
            let bundle = build_prompt_traced(
                &cfg,
                ctx.bench,
                ctx.selector,
                item,
                None,
                ctx.realistic,
                ctx.tokenizer,
                ctx.seed,
                ctx.trace,
            );
            let out = self.model.complete(
                &bundle.text,
                &GenOptions {
                    seed: ctx.seed,
                    trace: ctx.trace,
                    ..Default::default()
                },
            );
            prompt_tokens += bundle.tokens;
            api_calls += 1;
            let sql = extract_sql(&out, bundle.text.trim_end().ends_with("SELECT"));
            completion_tokens += ctx.tokenizer.count(&sql);
            sqlkit::parse_query(&sql).ok()
        } else {
            None
        };
        let bundle = build_prompt_traced(
            &self.cfg,
            ctx.bench,
            ctx.selector,
            item,
            preliminary.as_ref(),
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
            ctx.trace,
        );
        let had_prefix = bundle.text.trim_end().ends_with("SELECT");
        let out = self.model.complete(
            &bundle.text,
            &GenOptions {
                seed: ctx.seed,
                trace: ctx.trace,
                ..Default::default()
            },
        );
        prompt_tokens += bundle.tokens;
        api_calls += 1;
        let sql = extract_sql(&out, had_prefix);
        completion_tokens += ctx.tokenizer.count(&sql);
        Prediction {
            sql,
            prompt_tokens,
            completion_tokens,
            api_calls,
        }
    }
}

/// DIN-SQL-style pipeline: question-similar few-shot examples with full
/// information, plus an execution-guided self-correction round.
pub struct DinSqlStyle {
    /// Backbone model.
    pub model: SimLlm,
    /// Few-shot count.
    pub shots: usize,
}

impl DinSqlStyle {
    /// With the configuration used for the leaderboard comparison.
    pub fn new(model: SimLlm) -> DinSqlStyle {
        DinSqlStyle { model, shots: 5 }
    }
}

impl Predictor for DinSqlStyle {
    fn name(&self) -> String {
        format!("DIN-SQL-style({})", self.model.profile.name)
    }

    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
        // DIN-SQL routes each question through a hardness classifier that
        // picks the decomposition branch; the published pipeline's
        // classifier misroutes a fraction of questions, and a misrouted
        // question gets demonstrations for the wrong query class. Model
        // that brittleness: with a small probability the selected
        // demonstrations are effectively off-class (random).
        use rand::{Rng, SeedableRng};
        let mut route_rng =
            rand::rngs::StdRng::seed_from_u64(ctx.seed ^ (item.id as u64).wrapping_mul(0x9E3779B9));
        let misrouted = route_rng.gen_bool(0.18);
        let cfg = PromptConfig {
            repr: QuestionRepr::CodeRepr,
            opts: ReprOptions::default(),
            selection: if misrouted {
                SelectionStrategy::Random
            } else {
                SelectionStrategy::QuestionSimilarity
            },
            organization: OrganizationStrategy::Full,
            shots: self.shots,
            max_tokens: 8192,
        };
        let bundle = build_prompt_traced(
            &cfg,
            ctx.bench,
            ctx.selector,
            item,
            None,
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
            ctx.trace,
        );
        let had_prefix = bundle.text.trim_end().ends_with("SELECT");
        let mut prompt_tokens = bundle.tokens;
        let mut api_calls = 1;
        let out = self.model.complete(
            &bundle.text,
            &GenOptions {
                seed: ctx.seed,
                trace: ctx.trace,
                ..Default::default()
            },
        );
        let mut sql = extract_sql(&out, had_prefix);
        let mut completion_tokens = ctx.tokenizer.count(&sql);

        // Self-correction: if the draft does not execute, retry once with a
        // perturbed seed (modeling DIN-SQL's correction prompt).
        let executes = sqlkit::parse_query(&sql)
            .ok()
            .map(|q| execute_query(ctx.bench.db(item), &q).is_ok())
            .unwrap_or(false);
        if !executes {
            let out2 = self.model.complete(
                &bundle.text,
                &GenOptions {
                    seed: ctx.seed ^ 0x5eed,
                    trace: ctx.trace,
                    ..Default::default()
                },
            );
            prompt_tokens += bundle.tokens;
            api_calls += 1;
            let sql2 = extract_sql(&out2, had_prefix);
            completion_tokens += ctx.tokenizer.count(&sql2);
            let fixed = sqlkit::parse_query(&sql2)
                .ok()
                .map(|q| execute_query(ctx.bench.db(item), &q).is_ok())
                .unwrap_or(false);
            if fixed {
                sql = sql2;
            }
        }
        Prediction {
            sql,
            prompt_tokens,
            completion_tokens,
            api_calls,
        }
    }
}

/// C3-style pipeline: calibrated zero-shot prompting (clear layout, FK info)
/// on gpt-3.5-class models with self-consistency voting.
pub struct C3Style {
    /// Backbone model (the original uses ChatGPT).
    pub model: SimLlm,
    /// Self-consistency samples.
    pub samples: usize,
}

impl C3Style {
    /// With the configuration used for the leaderboard comparison.
    pub fn new(model: SimLlm) -> C3Style {
        C3Style { model, samples: 8 }
    }
}

impl Predictor for C3Style {
    fn name(&self) -> String {
        format!("C3-style({})", self.model.profile.name)
    }

    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
        let cfg = PromptConfig::zero_shot(QuestionRepr::OpenAiDemo);
        let bundle = build_prompt_traced(
            &cfg,
            ctx.bench,
            ctx.selector,
            item,
            None,
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
            ctx.trace,
        );
        let had_prefix = bundle.text.trim_end().ends_with("SELECT");
        let mut prompt_tokens = 0;
        let mut completion_tokens = 0;
        let comprehension = self.model.comprehend(&bundle.text, ctx.trace);
        let mut candidates = Vec::with_capacity(self.samples);
        for i in 0..self.samples {
            let out = self.model.sample(
                &comprehension,
                &GenOptions {
                    seed: ctx.seed,
                    temperature: 1.0,
                    sample_index: i as u32,
                    trace: ctx.trace,
                },
            );
            prompt_tokens += bundle.tokens;
            let sql = extract_sql(&out, had_prefix);
            completion_tokens += ctx.tokenizer.count(&sql);
            candidates.push(sql);
        }
        let sql = vote_by_execution(ctx.bench.db(item), &candidates);
        Prediction {
            sql,
            prompt_tokens,
            completion_tokens,
            api_calls: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promptkit::ExampleSelector;
    use spider_gen::{Benchmark, BenchmarkConfig};
    use textkit::Tokenizer;

    #[test]
    fn baselines_run_and_account_costs() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        let selector = ExampleSelector::new(&bench);
        let tok = Tokenizer::new();
        let ctx = PredictCtx {
            bench: &bench,
            selector: &selector,
            tokenizer: &tok,
            seed: 1,
            realistic: false,
            trace: obskit::TraceContext::disabled(),
        };
        let item = &bench.dev[0];

        let z = ZeroShot::new(SimLlm::new("gpt-4").unwrap(), QuestionRepr::CodeRepr);
        let p = z.predict(&ctx, item);
        assert_eq!(p.api_calls, 1);
        assert!(p.prompt_tokens > 0);

        let din = DinSqlStyle::new(SimLlm::new("gpt-4").unwrap());
        let p = din.predict(&ctx, item);
        assert!(p.api_calls <= 2);

        let c3 = C3Style::new(SimLlm::new("gpt-3.5-turbo").unwrap());
        let p = c3.predict(&ctx, item);
        assert_eq!(p.api_calls, 8);
    }

    #[test]
    fn names_are_distinct() {
        let z = ZeroShot::new(SimLlm::new("gpt-4").unwrap(), QuestionRepr::TextRepr);
        let din = DinSqlStyle::new(SimLlm::new("gpt-4").unwrap());
        let c3 = C3Style::new(SimLlm::new("gpt-3.5-turbo").unwrap());
        let names = [z.name(), din.name(), c3.name()];
        assert_eq!(
            names.iter().collect::<std::collections::HashSet<_>>().len(),
            3
        );
    }
}
