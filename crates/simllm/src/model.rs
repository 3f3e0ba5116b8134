//! The simulated LLM driver: prompt in, completion text out.
//!
//! A completion runs in two halves. [`SimLlm::comprehend`] does everything
//! that depends only on the prompt and the model: it parses the prompt,
//! trims it to the context window, fixes the effective parameters, fires
//! the question cues and reads each in-context example once (its SQL's
//! sketch family and skeleton, its question's similarity to the target).
//! [`SimLlm::sample`] runs the seeded steps on that [`Comprehension`]:
//! reasoning-path reroll, tier-scaled attention dropout, schema linking,
//! cue dropout, intent ranking with the example votes, sketch decoding,
//! corruption noise and alignment-dependent output formatting.
//! [`SimLlm::complete`] is one of each, so a caller that draws several
//! samples from one prompt can comprehend it once. Everything is
//! deterministic given (prompt, seed, sample index).

use crate::comprehend::{parse_prompt, ParsedPrompt};
use crate::decode::{corrupt_query, decode};
use crate::intent::{example_votes, fire_cues, rank_intents, read_examples, Cue, Intent};
use crate::linking::Linker;
use crate::profile::{profile, ModelProfile};
use crate::sft::{detect_style, SftState};
use crate::values::{self, ExtractedValues};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlkit::Skeleton;

/// Generation options.
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Caller seed (combined with a prompt hash).
    pub seed: u64,
    /// Sampling temperature; 0 = greedy (sample index ignored).
    pub temperature: f64,
    /// Sample index for self-consistency sampling.
    pub sample_index: u32,
    /// Request trace context; when recording, each sample opens a
    /// `simllm.complete` span under it (and [`SimLlm::complete`] a
    /// `simllm.comprehend` span before it). Never affects the output text.
    pub trace: obskit::TraceContext,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            seed: 0,
            temperature: 0.0,
            sample_index: 0,
            trace: obskit::TraceContext::disabled(),
        }
    }
}

/// A stage-by-stage account of one completion — the model's "anatomy".
///
/// Returned by [`SimLlm::complete_traced`]; useful for error analysis,
/// debugging prompt configurations, and the `model_anatomy` example.
#[derive(Debug, Clone, Default)]
pub struct CompletionTrace {
    /// Tables recovered from the prompt (post attention-dropout), with the
    /// columns the model actually retained.
    pub tables_seen: Vec<(String, usize)>,
    /// Foreign keys recovered.
    pub fks_seen: usize,
    /// In-context examples recovered.
    pub examples_seen: usize,
    /// The target question as understood.
    pub question: String,
    /// Effective capability tier after SFT/instruction adjustments.
    pub tier: f64,
    /// Effective alignment.
    pub alignment: f64,
    /// Cues that survived attention (id, weight).
    pub cues_kept: Vec<(usize, f64)>,
    /// Ranked intents after example votes (intent, score), best first.
    pub intent_ranking: Vec<(crate::intent::Intent, f64)>,
    /// The sketch the model committed to.
    pub intent: crate::intent::Intent,
    /// Demonstration stabilization signal in `[0, 1]`.
    pub stabilize: f64,
    /// Per-site systematic corruption probability applied.
    pub p_sys: f64,
    /// Per-site sampling corruption probability applied.
    pub p_noise: f64,
    /// The SQL before surface formatting.
    pub sql: String,
    /// The final response text.
    pub response: String,
}

/// What one model understood from one prompt, before any seeded draw.
///
/// Built by [`SimLlm::comprehend`] and consumed by [`SimLlm::sample`];
/// it carries the comprehending model's effective parameters, so sample
/// it with that model. Every sample drawn from it equals a full
/// [`SimLlm::complete`] of the same prompt.
#[derive(Debug, Clone)]
pub struct Comprehension {
    /// The parsed prompt, its examples trimmed to the context window.
    parsed: ParsedPrompt,
    /// Hash of the task content (question plus recovered schema).
    content_hash: u64,
    /// Hash of the prompt's surface style.
    style_hash: u64,
    /// Capability tier after SFT, before temperature and instructions.
    tier: f64,
    alignment: f64,
    /// Whether the prompt carries any task instruction.
    has_instruction: bool,
    /// Whether the schema is in a structured format (DDL / pound-sign).
    structured: bool,
    values: ExtractedValues,
    /// Cues a perfectly attentive reader would fire.
    cues: Vec<Cue>,
    /// The in-context example votes, in prompt order.
    votes: Vec<(Intent, f64)>,
    /// Skeletons of the examples whose SQL parses.
    skeletons: Vec<Skeleton>,
    /// Question-similarity channel of demonstration stabilization.
    icl_signal: f64,
    icl_weight: f64,
}

/// A simulated LLM.
#[derive(Debug, Clone)]
pub struct SimLlm {
    /// The underlying profile.
    pub profile: ModelProfile,
    /// Fine-tuning state, when the model has been SFT'ed.
    pub sft: Option<SftState>,
}

impl SimLlm {
    /// Instantiate a model from the zoo by name.
    pub fn new(name: &str) -> Option<SimLlm> {
        profile(name).map(|p| SimLlm {
            profile: *p,
            sft: None,
        })
    }

    /// Generate a completion for a prompt: [`SimLlm::sample`] on a fresh
    /// [`SimLlm::comprehend`].
    ///
    /// Two error sources are deliberately separated: *systematic* errors
    /// (misreading the schema, overlooking a question cue, guessing a wrong
    /// join) are seeded only by the prompt and caller seed — they persist
    /// across temperature samples, so self-consistency voting cannot launder
    /// them away — while *sampling* noise (decoding slip-ups, formatting)
    /// additionally varies with the sample index.
    pub fn complete(&self, prompt: &str, opts: &GenOptions) -> String {
        self.sample(&self.comprehend(prompt, opts.trace), opts)
    }

    /// Like [`SimLlm::complete`], but also returns the full stage-by-stage
    /// trace. The `response` field is byte-identical to what `complete`
    /// returns for the same inputs.
    pub fn complete_traced(&self, prompt: &str, opts: &GenOptions) -> CompletionTrace {
        self.sample_traced(&self.comprehend(prompt, opts.trace), opts)
    }

    /// Comprehend a prompt: everything a completion needs that depends
    /// only on the prompt and this model. Draws nothing from any seed.
    /// When `trace` is recording, runs in a `simllm.comprehend` span.
    pub fn comprehend(&self, prompt: &str, trace: obskit::TraceContext) -> Comprehension {
        // Telemetry goes to the current obskit sink as counters and
        // latency histograms only — aggregates are order-independent, so
        // multi-threaded harness runs still produce deterministic traces.
        let obs = obskit::enabled().then(std::time::Instant::now);
        let (_span, _) = trace.span("simllm.comprehend");
        let mut parsed = parse_prompt(prompt);
        let (tables_parsed, examples_parsed) = (parsed.tables.len(), parsed.examples.len());

        // Systematic decisions are seeded by the *information content* of
        // the task — the question plus the recovered schema — not by the raw
        // prompt bytes. Two prompts that differ only in formatting (a toggle,
        // an extra example) therefore share their systematic draws: paired
        // comparisons isolate the mechanism under test instead of reshuffling
        // every error (the common-random-numbers variance-reduction idiom).
        let mut content_sig = String::with_capacity(128);
        content_sig.push_str(&parsed.question);
        for t in &parsed.tables {
            content_sig.push('\u{1}');
            content_sig.push_str(&t.name);
            for c in &t.columns {
                content_sig.push('\u{2}');
                content_sig.push_str(c);
            }
        }

        // --- effective parameters (SFT shifts them per prompt style) ---
        let style = detect_style(prompt);
        let (tier, alignment, icl_weight) = match &self.sft {
            Some(sft) => sft.effective_params(&self.profile, style),
            None => (
                self.profile.tier,
                self.profile.alignment,
                self.profile.icl_weight,
            ),
        };

        // A prompt with no task instruction at all (BS_P) leaves the model
        // guessing what is being asked — the paper's finding that detailed
        // instructions matter.
        let has_instruction = parsed.has_rule
            || prompt.contains("Answer the following")
            || prompt.contains("Write a sql")
            || prompt.contains("Complete sqlite");

        // --- context window: drop earliest examples until the prompt fits ---
        let approx_tokens = prompt.len() / 4;
        if approx_tokens > self.profile.context_window {
            let overflow = approx_tokens - self.profile.context_window;
            // Rough per-example cost estimate; drop from the front.
            let per_example = 40.max(prompt.len() / (4 * (parsed.examples.len() + 4)));
            let drop = (overflow / per_example + 1).min(parsed.examples.len());
            parsed.examples.drain(..drop);
        }

        // --- in-context examples: each one read once ---
        let readings = read_examples(&parsed.question, &parsed.examples);
        let votes = example_votes(&readings, icl_weight);
        // ICL signal: relevant demonstrations stabilize generation.
        let icl_signal = readings
            .iter()
            .filter_map(|r| r.similarity)
            .fold(0.0f64, f64::max)
            * icl_weight;
        let skeletons = readings
            .into_iter()
            .filter_map(|r| r.shape.map(|(_, skel)| skel))
            .collect();

        let comprehension = Comprehension {
            content_hash: fnv(&content_sig),
            style_hash: fnv(&format!("{style:?}")),
            tier,
            alignment,
            has_instruction,
            // The structured formats (DDL / pound-sign) are easier to read.
            structured: prompt.contains("CREATE TABLE") || prompt.contains("### SQLite SQL tables"),
            values: values::extract(&parsed.question),
            cues: fire_cues(&parsed.question),
            votes,
            skeletons,
            icl_signal,
            icl_weight,
            parsed,
        };
        if let Some(t) = obs {
            let g = obskit::current();
            g.add_counter("simllm.comprehensions", 1);
            g.observe("simllm.comprehend_ns", t.elapsed().as_nanos() as u64);
            g.add_counter("simllm.tables_seen", tables_parsed as u64);
            g.add_counter("simllm.examples_seen", examples_parsed as u64);
        }
        comprehension
    }

    /// Draw one completion from a [`Comprehension`] of this model: every
    /// step seeded by `opts`. Equals [`SimLlm::complete`] on the prompt
    /// the comprehension was built from.
    pub fn sample(&self, c: &Comprehension, opts: &GenOptions) -> String {
        self.sample_traced(c, opts).response
    }

    /// Like [`SimLlm::sample`], but also returns the full stage-by-stage
    /// trace.
    pub fn sample_traced(&self, c: &Comprehension, opts: &GenOptions) -> CompletionTrace {
        let obs = obskit::enabled().then(std::time::Instant::now);
        let (_gen_span, _gen_ctx) = opts.trace.span("simllm.complete");
        let mut trace = CompletionTrace::default();

        let sys_seed = c.content_hash ^ opts.seed.wrapping_mul(0x9E3779B97F4A7C15);
        // The sampling stream additionally varies with the surface form:
        // token-level noise is prompt-shape-sensitive even when the task
        // content is identical.
        let mut sample_seed = sys_seed ^ 0xA5A5A5A5A5A5A5A5 ^ c.style_hash;
        if opts.temperature > 0.0 {
            sample_seed ^= (opts.sample_index as u64).wrapping_mul(0xD1B54A32D192ED03) | 1;
        }
        // At temperature > 0 most samples explore an independent "reasoning
        // path": their systematic decisions re-roll too. This is what makes
        // self-consistency voting work at all — correct paths cluster on one
        // result while independent errors scatter — without letting it
        // launder the residual fully-systematic component.
        let mut path_rng = StdRng::seed_from_u64(sample_seed ^ 0x517cc1b727220a95);
        let reroll =
            opts.temperature > 0.0 && path_rng.gen_bool((0.75 * opts.temperature).clamp(0.0, 0.95));
        let mut sys_rng = StdRng::seed_from_u64(if reroll {
            sample_seed ^ 0xC2B2AE3D27D4EB4F
        } else {
            sys_seed
        });
        let mut rng = StdRng::seed_from_u64(sample_seed);

        // Temperature loosens decoding slightly (used for self-consistency).
        let mut tier = (c.tier - 0.04 * opts.temperature).clamp(0.02, 0.99);
        // Aligned models cope better with a missing instruction.
        if !c.has_instruction {
            tier = (tier - 0.05 - 0.10 * (1.0 - c.alignment)).clamp(0.02, 0.99);
        }

        // --- comprehension dropout: weaker models overlook columns ---
        let mut tables = c.parsed.tables.clone();
        let drop_p = 0.10 * (1.0 - tier) * if c.structured { 0.6 } else { 1.0 };
        for t in &mut tables {
            if t.columns.len() > 1 {
                let mut i = 0;
                while i < t.columns.len() {
                    if t.columns.len() > 1 && sys_rng.gen_bool(drop_p) {
                        t.columns.remove(i);
                        if i < t.types.len() {
                            t.types.remove(i);
                        }
                    } else {
                        i += 1;
                    }
                }
            }
        }

        trace.tables_seen = tables
            .iter()
            .map(|t| (t.name.clone(), t.columns.len()))
            .collect();
        trace.fks_seen = c.parsed.fks.len();
        trace.examples_seen = c.parsed.examples.len();
        trace.question = c.parsed.question.clone();
        trace.tier = tier;
        trace.alignment = c.alignment;

        let linker = Linker::new(&c.parsed, &tables);

        // --- intent: cue dropout + ICL votes ---
        // The chance of overlooking a cue falls with capability AND with the
        // cue's surface strength: nobody misreads "how many ... are there",
        // while subtle compositional cues slip past weaker readers. This is
        // what concentrates errors on hard queries, as in the paper's
        // per-hardness breakdowns.
        let kept: Vec<Cue> = c
            .cues
            .iter()
            .copied()
            .filter(|(id, _, w)| {
                if *id == 22 {
                    // The default-List prior is always retained.
                    return true;
                }
                let miss = ((1.0 - tier).powf(0.8) * (2.0 / w).powi(2) * 1.25).clamp(0.0, 0.95);
                !sys_rng.gen_bool(miss)
            })
            .collect();
        trace.cues_kept = kept.iter().map(|(id, _, w)| (*id, *w)).collect();
        let ranked = rank_intents(&kept, &c.votes);
        let intent = ranked.first().map(|(i, _)| *i).unwrap_or(Intent::List);
        trace.intent_ranking = ranked;
        trace.intent = intent;

        // --- decode (systematic slot errors) + corrupt (sampling noise) ---
        let decode_t = obs.map(|_| std::time::Instant::now());
        let query = decode(intent, &linker, &c.values, &mut sys_rng, tier).or_else(|| {
            // Fallback sketch: project something from the best table.
            decode(Intent::List, &linker, &c.values, &mut sys_rng, tier)
        });
        if let Some(t) = decode_t {
            let g = obskit::current();
            g.observe("simllm.decode_ns", t.elapsed().as_nanos() as u64);
            if query.is_none() {
                g.add_counter("simllm.decode_fallbacks", 1);
            }
        }
        let sql = match query {
            Some(mut q) => {
                // Demonstrations stabilize generation through two channels:
                // a similar *question* (the model trusts the analogy) and a
                // matching *SQL skeleton* (the demonstrated structure guides
                // each clause). The second channel is what skeleton-aware
                // DAIL selection — and, weakly, SQL-only organization — buys.
                let skel = Skeleton::of(&q);
                let icl_struct = c
                    .skeletons
                    .iter()
                    .map(|ex| ex.similarity(&skel))
                    .fold(0.0f64, f64::max)
                    * c.icl_weight;
                let stabilize = c.icl_signal.max(icl_struct).min(1.0);
                trace.stabilize = stabilize;

                // Systematic misreadings: per-site probability scales with
                // (lack of) capability, so complex queries — more sites —
                // accumulate more errors, matching the paper's hardness
                // breakdowns. Relevant demonstrations suppress them.
                let p_sys = (0.62 * (1.0 - tier).powf(0.85)).min(0.45) * (1.0 - 0.75 * stabilize);
                trace.p_sys = p_sys.clamp(0.0, 0.45);
                corrupt_query(&mut q, &mut sys_rng, trace.p_sys);
                // Sampling noise on top (varies per temperature sample).
                let p_noise =
                    (0.12 * (1.0 - tier).powf(1.3) * (1.0 - 0.6 * stabilize)).clamp(0.0, 0.5);
                trace.p_noise = p_noise;
                corrupt_query(&mut q, &mut rng, p_noise);
                q.to_string()
            }
            None => "SELECT 1".to_string(),
        };

        trace.response = self.format_output(&sql, &c.parsed, c.alignment, &mut rng);
        trace.sql = sql;
        if let Some(t) = obs {
            let g = obskit::current();
            g.add_counter("simllm.completions", 1);
            g.observe("simllm.complete_ns", t.elapsed().as_nanos() as u64);
        }
        trace
    }

    /// Alignment-dependent surface formatting.
    fn format_output(
        &self,
        sql: &str,
        parsed: &ParsedPrompt,
        alignment: f64,
        rng: &mut StdRng,
    ) -> String {
        // Invalid/truncated output: undisciplined models sometimes cut off.
        let p_invalid = (1.0 - alignment) * if parsed.has_rule { 0.02 } else { 0.06 };
        if rng.gen_bool(p_invalid.clamp(0.0, 0.5)) {
            let cut = (sql.len() * 3 / 5).max(8).min(sql.len());
            return sql[..cut].to_string();
        }
        // Chatty wrappers: the rule implication suppresses them; a trailing
        // `SELECT ` prefix constrains the continuation too.
        let mut p_chatty = (1.0 - alignment) * if parsed.has_rule { 0.12 } else { 0.70 };
        if parsed.ends_with_select {
            p_chatty *= 0.4;
        }
        let chatty = rng.gen_bool(p_chatty.clamp(0.0, 0.95));

        let body = if parsed.ends_with_select {
            // Continue after the "SELECT " prefix.
            sql.strip_prefix("SELECT ").unwrap_or(sql).to_string()
        } else {
            sql.to_string()
        };

        if !chatty {
            return body;
        }
        if parsed.ends_with_select {
            format!("{body}\n\nThis query retrieves the rows you asked about.")
        } else {
            match rng.gen_range(0..3) {
                0 => format!("Here is the SQL query you asked for:\n```sql\n{sql}\n```"),
                1 => {
                    format!("{sql}\n\nExplanation: this query retrieves the requested information.")
                }
                _ => format!("Sure! You can use the following query: {sql}"),
            }
        }
    }
}

/// Recover a SQL string from a model response.
///
/// `had_select_prefix` must be true when the prompt ended with `SELECT `
/// (the response is then a continuation). Handles markdown fences and chatty
/// wrappers; returns the best-effort SQL text (which may still fail to
/// parse — that is scored as invalid downstream).
pub fn extract_sql(response: &str, had_select_prefix: bool) -> String {
    let mut text = response.trim();
    // Markdown fence.
    if let Some(start) = text.find("```") {
        let after = &text[start + 3..];
        let after = after.strip_prefix("sql").unwrap_or(after);
        if let Some(end) = after.find("```") {
            text = after[..end].trim();
        } else {
            text = after.trim();
        }
    }
    // Find the SELECT onset. When the prompt ended with a `SELECT ` prefix
    // the whole response is a continuation — prepend rather than searching,
    // or a nested subquery's SELECT would be mistaken for the onset.
    let lower = text.to_lowercase();
    let body = if had_select_prefix {
        if lower.starts_with("select") {
            text.to_string()
        } else {
            format!("SELECT {text}")
        }
    } else if let Some(pos) = lower.find("select ") {
        text[pos..].to_string()
    } else {
        text.to_string()
    };
    // Cut at blank line or explanation marker.
    let mut out = &body[..];
    for marker in ["\n\n", "Explanation:", "This query", "Note:"] {
        if let Some(pos) = out.find(marker) {
            out = &out[..pos];
        }
    }
    out.trim().trim_end_matches(';').to_string()
}

pub(crate) fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use promptkit::{render_prompt, QuestionRepr, ReprOptions};
    use spider_gen::all_domains;

    fn prompt(question: &str) -> String {
        render_prompt(
            QuestionRepr::CodeRepr,
            &all_domains()[0].to_schema(),
            None,
            question,
            ReprOptions::default(),
        )
    }

    #[test]
    fn gpt4_answers_simple_questions_correctly() {
        let m = SimLlm::new("gpt-4").unwrap();
        let p = prompt("How many singers are there?");
        let out = m.complete(&p, &GenOptions::default());
        let sql = extract_sql(&out, true);
        assert_eq!(sql, "SELECT COUNT(*) FROM singer");
    }

    #[test]
    fn completion_is_deterministic_at_temperature_zero() {
        let m = SimLlm::new("gpt-3.5-turbo").unwrap();
        let p = prompt("What is the average age of all singers?");
        let a = m.complete(&p, &GenOptions::default());
        let b = m.complete(&p, &GenOptions::default());
        assert_eq!(a, b);
        // Sample index must not matter at temperature 0.
        let c = m.complete(
            &p,
            &GenOptions {
                sample_index: 3,
                ..Default::default()
            },
        );
        assert_eq!(a, c);
    }

    #[test]
    fn temperature_varies_samples() {
        let m = SimLlm::new("vicuna-33b").unwrap();
        let p = prompt("What is the name of the singer with the highest age?");
        let outs: std::collections::HashSet<String> = (0..10)
            .map(|i| {
                m.complete(
                    &p,
                    &GenOptions {
                        temperature: 1.0,
                        sample_index: i,
                        seed: 5,
                        ..Default::default()
                    },
                )
            })
            .collect();
        assert!(outs.len() > 1, "temperature should diversify outputs");
    }

    #[test]
    fn weak_models_err_more_often() {
        let strong = SimLlm::new("gpt-4").unwrap();
        let weak = SimLlm::new("llama-7b").unwrap();
        let questions = [
            "How many singers are there?",
            "What is the average age of all singers?",
            "Show the number of singers for each country.",
            "What is the name of the singer with the highest age?",
            "List the distinct country of the singers.",
            "How many concerts does each singer have? Show the name and the count.",
            "Which genre is the most common among the singers?",
            "Show the name of singers whose age is above the average age.",
        ];
        let mut strong_ok = 0;
        let mut weak_ok = 0;
        for (i, q) in questions.iter().enumerate() {
            let p = prompt(q);
            for seed in 0..6u64 {
                let opts = GenOptions {
                    seed: seed * 31 + i as u64,
                    ..Default::default()
                };
                let s = extract_sql(&strong.complete(&p, &opts), true);
                let w = extract_sql(&weak.complete(&p, &opts), true);
                if sqlkit::parse_query(&s).is_ok() {
                    strong_ok += 1;
                }
                if sqlkit::parse_query(&w).is_ok() && s == w {
                    weak_ok += 1;
                }
            }
        }
        assert!(
            strong_ok > weak_ok,
            "strong {strong_ok} vs weak-matching {weak_ok}"
        );
    }

    #[test]
    fn extract_sql_handles_wrappers() {
        assert_eq!(
            extract_sql(
                "Here is the SQL query you asked for:\n```sql\nSELECT a FROM t\n```",
                false
            ),
            "SELECT a FROM t"
        );
        assert_eq!(
            extract_sql("SELECT a FROM t\n\nExplanation: because.", false),
            "SELECT a FROM t"
        );
        assert_eq!(
            extract_sql("count(*) FROM singer", true),
            "SELECT count(*) FROM singer"
        );
        assert_eq!(extract_sql("SELECT a FROM t;", false), "SELECT a FROM t");
        assert_eq!(
            extract_sql(
                "Sure! You can use the following query: SELECT a FROM t",
                false
            ),
            "SELECT a FROM t"
        );
    }

    #[test]
    fn rule_implication_reduces_chatty_outputs() {
        let m = SimLlm::new("llama-13b").unwrap();
        let schema = all_domains()[0].to_schema();
        let mut chatty_with_rule = 0;
        let mut chatty_without = 0;
        for seed in 0..40u64 {
            for (rule, counter) in [(true, &mut chatty_with_rule), (false, &mut chatty_without)] {
                let p = render_prompt(
                    QuestionRepr::TextRepr,
                    &schema,
                    None,
                    "How many singers are there?",
                    ReprOptions {
                        rule_implication: rule,
                        ..Default::default()
                    },
                );
                let out = m.complete(
                    &p,
                    &GenOptions {
                        seed,
                        ..Default::default()
                    },
                );
                if out.contains("This query") || out.contains("Sure!") || out.contains("```") {
                    *counter += 1;
                }
            }
        }
        assert!(
            chatty_with_rule < chatty_without,
            "rule {chatty_with_rule} vs no-rule {chatty_without}"
        );
    }

    #[test]
    fn relevant_examples_improve_weak_model_output() {
        let m = SimLlm::new("vicuna-33b").unwrap();
        let schema = all_domains()[0].to_schema();
        let target = render_prompt(
            QuestionRepr::CodeRepr,
            &schema,
            None,
            "Which genre is the most common among the singers?",
            ReprOptions::default(),
        );
        let examples = "/* Some example questions and corresponding SQL queries are provided based on similar problems: */\n\
            /* Answer the following: Which cuisine is the most common among the restaurants? */\n\
            SELECT cuisine FROM restaurant GROUP BY cuisine ORDER BY COUNT(*) DESC LIMIT 1\n\
            /* Answer the following: Which species is the most common among the pets? */\n\
            SELECT species FROM pet GROUP BY species ORDER BY COUNT(*) DESC LIMIT 1\n\n";
        let few_shot = format!("{examples}{target}");
        let mut zero_ok = 0;
        let mut few_ok = 0;
        let want = "SELECT genre FROM singer GROUP BY genre ORDER BY COUNT(*) DESC LIMIT 1";
        for seed in 0..30u64 {
            let opts = GenOptions {
                seed,
                ..Default::default()
            };
            if extract_sql(&m.complete(&target, &opts), true) == want {
                zero_ok += 1;
            }
            if extract_sql(&m.complete(&few_shot, &opts), true) == want {
                few_ok += 1;
            }
        }
        assert!(
            few_ok >= zero_ok,
            "few-shot {few_ok} vs zero-shot {zero_ok}"
        );
    }
}
