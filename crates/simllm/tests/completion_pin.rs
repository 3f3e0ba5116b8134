//! Pins `SimLlm::complete`: one FNV-1a fingerprint over every response of
//! a fixed grid of prompts, models and sampling settings.
//!
//! The grid covers what the simulator's comprehension reads from a prompt:
//! all five question representations, zero-shot and few-shot prompts in
//! each example organization, a prompt long enough that small-window
//! models trim examples from its front, four zoo models of different
//! tiers and one fine-tuned model. Each (prompt, model) pair is completed
//! greedily and at temperature 1 with sample indices 0–4. Any change to a
//! single response byte changes the fingerprint, so a refactor of the
//! completion path that claims identical output can be checked against it.

use promptkit::{
    build_prompt, ExampleSelector, OrganizationStrategy, PromptConfig, QuestionRepr,
    SelectionStrategy,
};
use simllm::{parse_prompt, GenOptions, PromptStyle, SimLlm};
use spider_gen::{Benchmark, BenchmarkConfig};
use textkit::Tokenizer;

/// The fingerprint the grid produced when it was pinned.
const EXPECTED: u64 = 0x80ee_07f3_716e_9963;

const ITEMS: usize = 8;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= *b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn models() -> Vec<SimLlm> {
    let mut models: Vec<SimLlm> = ["gpt-4", "gpt-3.5-turbo", "vicuna-33b", "llama-7b"]
        .iter()
        .map(|name| SimLlm::new(name).expect("zoo model"))
        .collect();
    let tuned = SimLlm::new("llama-7b")
        .expect("zoo model")
        .finetune(PromptStyle::Alpaca, 1000);
    models.push(tuned);
    models
}

fn prompts(bench: &Benchmark) -> Vec<String> {
    let selector = ExampleSelector::new(bench);
    let tokenizer = Tokenizer::new();
    let reprs = [
        QuestionRepr::BasicPrompt,
        QuestionRepr::TextRepr,
        QuestionRepr::OpenAiDemo,
        QuestionRepr::CodeRepr,
        QuestionRepr::AlpacaSft,
    ];
    let orgs = [
        OrganizationStrategy::DailPairs,
        OrganizationStrategy::SqlOnly,
        OrganizationStrategy::Full,
    ];
    let mut out = Vec::new();
    for (i, item) in bench.dev.iter().take(ITEMS).enumerate() {
        for (r, repr) in reprs.iter().enumerate() {
            let zero = PromptConfig::zero_shot(*repr);
            out.push(build_prompt(&zero, bench, &selector, item, None, false, &tokenizer, 11).text);
            let few = PromptConfig {
                selection: SelectionStrategy::MaskedQuestionSimilarity,
                organization: orgs[(i + r) % orgs.len()],
                shots: 5,
                ..zero
            };
            out.push(build_prompt(&few, bench, &selector, item, None, false, &tokenizer, 11).text);
        }
        // Full-information examples, many of them: longer than a 2k-token
        // context window, so small models drop the earliest examples.
        let long = PromptConfig {
            selection: SelectionStrategy::MaskedQuestionSimilarity,
            organization: OrganizationStrategy::Full,
            shots: 24,
            ..PromptConfig::zero_shot(QuestionRepr::CodeRepr)
        };
        out.push(build_prompt(&long, bench, &selector, item, None, false, &tokenizer, 11).text);
    }
    out
}

#[test]
fn completions_match_the_pinned_fingerprint() {
    let bench = Benchmark::generate(BenchmarkConfig::tiny());
    let prompts = prompts(&bench);
    let mut h: u64 = 0xcbf29ce484222325;
    let mut trimmed = 0;
    for model in models() {
        for prompt in &prompts {
            let greedy = GenOptions {
                seed: 5,
                ..GenOptions::default()
            };
            let parsed_examples = parse_prompt(prompt).examples.len();
            if model.complete_traced(prompt, &greedy).examples_seen < parsed_examples {
                trimmed += 1;
            }
            for temperature in [0.0, 1.0] {
                for sample_index in 0..5 {
                    let opts = GenOptions {
                        temperature,
                        sample_index,
                        ..greedy
                    };
                    fnv(&mut h, model.complete(prompt, &opts).as_bytes());
                    fnv(&mut h, &[0xff]);
                }
            }
        }
    }
    assert!(
        trimmed > 0,
        "no prompt was long enough for the context-window trim"
    );
    assert_eq!(h, EXPECTED, "fingerprint {h:#018x}");
}
