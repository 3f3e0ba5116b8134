//! Prompt assembly: representation × selection × organization under a token
//! budget.

use crate::organize::{render_examples, OrganizationStrategy};
use crate::repr::{render_prompt, QuestionRepr, ReprOptions};
use crate::select::{ExampleSelector, SelectionStrategy};
use spider_gen::{Benchmark, ExampleItem};
use sqlkit::Query;
use textkit::{DomainMasker, Tokenizer};

/// A complete prompt-engineering configuration (one cell of the paper's
/// experiment grids).
#[derive(Debug, Clone, Copy)]
pub struct PromptConfig {
    /// Question representation.
    pub repr: QuestionRepr,
    /// Representation toggles.
    pub opts: ReprOptions,
    /// Example selection strategy.
    pub selection: SelectionStrategy,
    /// Example organization strategy.
    pub organization: OrganizationStrategy,
    /// Number of in-context examples (0 = zero-shot).
    pub shots: usize,
    /// Maximum prompt tokens; examples are dropped (least similar first)
    /// until the prompt fits.
    pub max_tokens: usize,
}

impl PromptConfig {
    /// Zero-shot configuration for a representation.
    pub fn zero_shot(repr: QuestionRepr) -> Self {
        PromptConfig {
            repr,
            opts: ReprOptions::default(),
            selection: SelectionStrategy::Random,
            organization: OrganizationStrategy::Full,
            shots: 0,
            max_tokens: 8192,
        }
    }

    /// The DAIL-SQL configuration: CR_P + DAIL selection + DAIL organization.
    pub fn dail_sql(shots: usize) -> Self {
        PromptConfig {
            repr: QuestionRepr::CodeRepr,
            opts: ReprOptions::default(),
            selection: SelectionStrategy::Dail,
            organization: OrganizationStrategy::DailPairs,
            shots,
            max_tokens: 8192,
        }
    }
}

/// An assembled prompt plus bookkeeping the harness records.
#[derive(Debug, Clone)]
pub struct PromptBundle {
    /// The prompt text handed to the model.
    pub text: String,
    /// Token count of `text`.
    pub tokens: usize,
    /// Ids of the examples that made it into the prompt.
    pub example_ids: Vec<usize>,
}

/// Assemble a prompt for one dev item.
///
/// `preliminary` is the draft prediction used by QRS/DAIL selection.
/// `use_realistic` switches to the Spider-Realistic question surface.
#[allow(clippy::too_many_arguments)]
pub fn build_prompt(
    cfg: &PromptConfig,
    bench: &Benchmark,
    selector: &ExampleSelector<'_>,
    item: &ExampleItem,
    preliminary: Option<&Query>,
    use_realistic: bool,
    tokenizer: &Tokenizer,
    seed: u64,
) -> PromptBundle {
    build_prompt_traced(
        cfg,
        bench,
        selector,
        item,
        preliminary,
        use_realistic,
        tokenizer,
        seed,
        obskit::TraceContext::disabled(),
    )
}

/// [`build_prompt`] under a request trace context: assembly runs inside
/// a `promptkit.build_prompt` span, with the selection stage as a
/// `promptkit.select` child. The produced prompt is identical to the
/// untraced path.
#[allow(clippy::too_many_arguments)]
pub fn build_prompt_traced(
    cfg: &PromptConfig,
    bench: &Benchmark,
    selector: &ExampleSelector<'_>,
    item: &ExampleItem,
    preliminary: Option<&Query>,
    use_realistic: bool,
    tokenizer: &Tokenizer,
    seed: u64,
    trace: obskit::TraceContext,
) -> PromptBundle {
    let (_span, tctx) = trace.span("promptkit.build_prompt");
    let question = if use_realistic {
        &item.question_realistic
    } else {
        &item.question
    };
    let masked = selector.mask_target(&item.db_id, question, || {
        let spec = bench.spec(item);
        DomainMasker::new(spec.domain_terms()).mask(question)
    });

    let mut examples = selector.select_traced(
        cfg.selection,
        question,
        &masked,
        preliminary,
        cfg.shots,
        seed ^ item.id as u64,
        tctx,
    );

    let schema = &bench.db(item).schema;
    let db = bench.db(item);
    let target = render_prompt(cfg.repr, schema, Some(db), question, cfg.opts);

    // Fit to token budget by dropping the least-similar examples (tail of the
    // selection ranking) one at a time.
    let requested = examples.len();
    loop {
        let examples_text = render_examples(cfg.organization, cfg.repr, bench, &examples, cfg.opts);
        let text = format!("{examples_text}{target}");
        let tokens = tokenizer.count(&text);
        if tokens <= cfg.max_tokens || examples.is_empty() {
            if obskit::enabled() {
                let g = obskit::current();
                g.add_counter("promptkit.prompts_built", 1);
                g.add_counter("promptkit.examples_emitted", examples.len() as u64);
                g.add_counter(
                    "promptkit.examples_dropped",
                    (requested - examples.len()) as u64,
                );
                g.add_counter("promptkit.tokens_budgeted", tokens as u64);
            }
            return PromptBundle {
                text,
                tokens,
                example_ids: examples.iter().map(|e| e.id).collect(),
            };
        }
        examples.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gen::{Benchmark, BenchmarkConfig};

    fn setup() -> Benchmark {
        Benchmark::generate(BenchmarkConfig::tiny())
    }

    #[test]
    fn zero_shot_prompt_has_no_examples() {
        let b = setup();
        let sel = ExampleSelector::new(&b);
        let t = Tokenizer::new();
        let cfg = PromptConfig::zero_shot(QuestionRepr::CodeRepr);
        let p = build_prompt(&cfg, &b, &sel, &b.dev[0], None, false, &t, 1);
        assert!(p.example_ids.is_empty());
        assert!(p.text.contains(&b.dev[0].question));
    }

    #[test]
    fn few_shot_prompt_contains_examples() {
        let b = setup();
        let sel = ExampleSelector::new(&b);
        let t = Tokenizer::new();
        let cfg = PromptConfig::dail_sql(4);
        let p = build_prompt(&cfg, &b, &sel, &b.dev[0], None, false, &t, 1);
        assert_eq!(p.example_ids.len(), 4);
        assert!(p.tokens > 0);
    }

    #[test]
    fn token_budget_drops_examples() {
        let b = setup();
        let sel = ExampleSelector::new(&b);
        let t = Tokenizer::new();
        let mut cfg = PromptConfig::dail_sql(8);
        cfg.organization = OrganizationStrategy::Full;
        cfg.max_tokens = 600; // deliberately tight
        let p = build_prompt(&cfg, &b, &sel, &b.dev[0], None, false, &t, 1);
        assert!(p.example_ids.len() < 8, "kept {}", p.example_ids.len());
        assert!(p.tokens <= 600 || p.example_ids.is_empty());
    }

    #[test]
    fn realistic_mode_switches_question() {
        let b = setup();
        let sel = ExampleSelector::new(&b);
        let t = Tokenizer::new();
        let cfg = PromptConfig::zero_shot(QuestionRepr::TextRepr);
        let item = b
            .dev
            .iter()
            .find(|e| e.question != e.question_realistic)
            .expect("some realistic question differs");
        let p = build_prompt(&cfg, &b, &sel, item, None, true, &t, 1);
        assert!(p.text.contains(&item.question_realistic));
        assert!(!p.text.contains(&item.question));
    }

    #[test]
    fn build_is_deterministic() {
        let b = setup();
        let sel = ExampleSelector::new(&b);
        let t = Tokenizer::new();
        let cfg = PromptConfig::dail_sql(3);
        let p1 = build_prompt(&cfg, &b, &sel, &b.dev[1], None, false, &t, 9);
        let p2 = build_prompt(&cfg, &b, &sel, &b.dev[1], None, false, &t, 9);
        assert_eq!(p1.text, p2.text);
    }
}
