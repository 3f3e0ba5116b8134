//! The traced run: `DailSql::predict` and `eval::score_item` replayed as
//! the public calls they make, each timed from here, so every layer's
//! busy time comes from outside the program.
//!
//! The run serves the dev items once through the real pipeline, then
//! once through the replica on a freshly built selector (so both passes
//! start with cold memo caches), and fails every item where the two
//! disagree on SQL, prompt tokens or verdict.

use crate::report::{self, Metrics};
use crate::run::{check, context, has_top_level_order, serve_pass, RunResult, Served};
use crate::workload::{predict_ctx, with_pipeline, Workload};
use dail_core::{vote_by_execution, DailSql, PredictCtx};
use eval::ItemScore;
use promptkit::{
    render_examples, render_prompt, ExampleSelector, PromptConfig, QuestionRepr, RetrievalMode,
    SelectionStrategy,
};
use simllm::{extract_sql, GenOptions};
use spider_gen::ExampleItem;
use sqlkit::{exact_set_match, parse_query, ParseResult, Query};
use std::collections::HashSet;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use storage::{execute_query, results_match, ExecResult, ResultSet};
use textkit::DomainMasker;

/// A public call the replica times. Metric names are
/// `<layer>.<call>.calls`, `.ms`, and for the calls whose tail matters,
/// `.p50_us` and `.p99_us`.
#[derive(Clone, Copy)]
enum Call {
    Mask,
    Select,
    Render,
    Tokenize,
    Complete,
    Parse,
    Em,
    Exec,
    Compare,
    Vote,
}

/// Metric prefix and whether percentiles are kept, indexed by [`Call`].
const CALLS: [(&str, bool); 10] = [
    ("textkit.mask", false),
    ("promptkit.select", true),
    ("promptkit.render", false),
    ("textkit.tokenize", false),
    ("simllm.complete", true),
    ("sqlkit.parse", false),
    ("sqlkit.em", false),
    ("storage.exec", true),
    ("storage.compare", false),
    ("core.vote", false),
];

#[derive(Default)]
struct Timings {
    calls: [u64; CALLS.len()],
    busy_ns: [u64; CALLS.len()],
    samples: [Vec<u64>; CALLS.len()],
}

/// What the replay observes beside time.
#[derive(Default)]
struct Counts {
    main_prompts: usize,
    examples_kept: usize,
    completions: usize,
    distinct_prompts: HashSet<String>,
    vote_candidates: usize,
    vote_distinct: usize,
    parses: usize,
    parse_fails: usize,
    pred_execs: usize,
    pred_exec_errors: usize,
    rows_out: usize,
}

/// Inputs and result of one item's DAIL selection, kept for recall@k.
struct Selection {
    masked: Arc<String>,
    preliminary: Option<Query>,
    picked: Vec<usize>,
}

struct Replica<'a> {
    ctx: PredictCtx<'a>,
    dail: &'a DailSql,
    timings: Timings,
    counts: Counts,
}

impl<'a> Replica<'a> {
    fn time<T>(&mut self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        let ns = start.elapsed().as_nanos() as u64;
        let i = call as usize;
        self.timings.calls[i] += 1;
        self.timings.busy_ns[i] += ns;
        if CALLS[i].1 {
            self.timings.samples[i].push(ns);
        }
        out
    }

    fn tokenize(&mut self, text: &str) -> usize {
        let tokenizer = self.ctx.tokenizer;
        self.time(Call::Tokenize, || tokenizer.count(text))
    }

    fn parse(&mut self, sql: &str) -> ParseResult<Query> {
        let parsed = self.time(Call::Parse, || parse_query(sql));
        self.counts.parses += 1;
        self.counts.parse_fails += usize::from(parsed.is_err());
        parsed
    }

    fn exec(&mut self, item: &ExampleItem, q: &Query) -> ExecResult<ResultSet> {
        let db = self.ctx.bench.db(item);
        let rs = self.time(Call::Exec, || execute_query(db, q));
        if let Ok(rs) = &rs {
            self.counts.rows_out += rs.rows.len();
        }
        rs
    }

    /// `promptkit::build_prompt_traced`: mask, select, render, then drop
    /// the least similar example until the prompt fits the budget.
    fn prompt(
        &mut self,
        cfg: &PromptConfig,
        item: &ExampleItem,
        preliminary: Option<&Query>,
    ) -> (String, usize, Option<Selection>) {
        let PredictCtx {
            bench, selector, ..
        } = self.ctx;
        let question = &item.question;
        let masked = self.time(Call::Mask, || {
            selector.mask_target(&item.db_id, question, || {
                DomainMasker::new(bench.spec(item).domain_terms()).mask(question)
            })
        });
        // `select` returns nothing without touching the pool when no
        // example is asked for, so the zero-shot prompt skips the call.
        let mut examples = if cfg.shots == 0 {
            Vec::new()
        } else {
            let seed = self.ctx.seed ^ item.id as u64;
            self.time(Call::Select, || {
                selector.select(
                    cfg.selection,
                    question,
                    &masked,
                    preliminary,
                    cfg.shots,
                    seed,
                )
            })
        };
        let selection = (cfg.shots > 0).then(|| Selection {
            masked: Arc::clone(&masked),
            preliminary: preliminary.cloned(),
            picked: examples.iter().map(|e| e.id).collect(),
        });
        let db = bench.db(item);
        let target = self.time(Call::Render, || {
            render_prompt(cfg.repr, &db.schema, Some(db), question, cfg.opts)
        });
        loop {
            let examples_text = self.time(Call::Render, || {
                render_examples(cfg.organization, cfg.repr, bench, &examples, cfg.opts)
            });
            let text = format!("{examples_text}{target}");
            let tokens = self.tokenize(&text);
            if tokens <= cfg.max_tokens || examples.is_empty() {
                if cfg.shots > 0 {
                    self.counts.main_prompts += 1;
                    self.counts.examples_kept += examples.len();
                }
                return (text, tokens, selection);
            }
            examples.pop();
        }
    }

    fn complete(&mut self, text: &str, opts: GenOptions) -> String {
        let model = &self.dail.model;
        let out = self.time(Call::Complete, || model.complete(text, &opts));
        self.counts.completions += 1;
        if !self.counts.distinct_prompts.contains(text) {
            self.counts.distinct_prompts.insert(text.to_string());
        }
        out
    }

    /// `DailSql::predict`: a zero-shot preliminary pass whose SQL guides
    /// DAIL selection, then the DAIL prompt, greedy or voted.
    fn predict(&mut self, item: &ExampleItem) -> (String, usize, Selection) {
        let seed = self.ctx.seed;
        let greedy = GenOptions {
            seed,
            ..GenOptions::default()
        };
        let cfg = PromptConfig::zero_shot(QuestionRepr::CodeRepr);
        let (text, mut prompt_tokens, _) = self.prompt(&cfg, item, None);
        let out = self.complete(&text, greedy);
        let sql = extract_sql(&out, text.trim_end().ends_with("SELECT"));
        self.tokenize(&sql);
        let preliminary = self.parse(&sql).ok();

        let cfg = PromptConfig::dail_sql(self.dail.shots);
        let (text, tokens, selection) = self.prompt(&cfg, item, preliminary.as_ref());
        let selection = selection.expect("the DAIL prompt selects examples");
        let had_prefix = text.trim_end().ends_with("SELECT");
        let samples = self.dail.self_consistency;
        let sql = if samples <= 1 {
            let out = self.complete(&text, greedy);
            prompt_tokens += tokens;
            let sql = extract_sql(&out, had_prefix);
            self.tokenize(&sql);
            sql
        } else {
            let mut candidates = Vec::with_capacity(samples);
            for i in 0..samples {
                // Sample 0 is the greedy decode, as in `DailSql`.
                let opts = GenOptions {
                    temperature: if i == 0 { 0.0 } else { 1.0 },
                    sample_index: i as u32,
                    ..greedy
                };
                let out = self.complete(&text, opts);
                prompt_tokens += tokens;
                let sql = extract_sql(&out, had_prefix);
                self.tokenize(&sql);
                candidates.push(sql);
            }
            self.counts.vote_candidates += candidates.len();
            self.counts.vote_distinct += candidates.iter().collect::<HashSet<_>>().len();
            let db = self.ctx.bench.db(item);
            self.time(Call::Vote, || vote_by_execution(db, &candidates))
        };
        (sql, prompt_tokens, selection)
    }

    /// `eval::score_item`.
    fn score(&mut self, item: &ExampleItem, pred_sql: &str) -> ItemScore {
        let Ok(pred) = self.parse(pred_sql) else {
            return ItemScore::default();
        };
        let em = self.time(Call::Em, || exact_set_match(&item.gold, &pred));
        self.counts.pred_execs += 1;
        let Ok(pred_rs) = self.exec(item, &pred) else {
            self.counts.pred_exec_errors += 1;
            return ItemScore::default();
        };
        let gold_rs = self
            .exec(item, &item.gold)
            .expect("gold queries always execute");
        let ordered = has_top_level_order(&item.gold);
        let ex = self.time(Call::Compare, || results_match(&gold_rs, &pred_rs, ordered));
        ItemScore {
            valid: true,
            ex,
            em,
        }
    }
}

pub fn traced(workload: Workload, seed: u64) -> RunResult {
    with_pipeline(workload, |p, setup| {
        let bench = p.bench;
        let items = &bench.dev;
        let shots = p.predictor.shots;
        let mut info = context(workload, seed, &p);
        // The real pipeline first: the replica must reproduce it item by
        // item, and its busy time is the untraced side of the overhead.
        let real = serve_pass(&p.ctx(seed), &p.predictor, items, None);
        drop(p.selector);

        let selector = ExampleSelector::with_retrieval(bench, workload.retrieval());
        let mut replica = Replica {
            ctx: predict_ctx(bench, &selector, &p.tokenizer, seed),
            dail: &p.predictor,
            timings: Timings::default(),
            counts: Counts::default(),
        };
        let mut replayed = Vec::with_capacity(items.len());
        let mut item_ns = 0u64;
        for item in items {
            let start = Instant::now();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let (sql, prompt_tokens, selection) = replica.predict(item);
                let score = replica.score(item, &sql);
                let served = Served {
                    sql,
                    prompt_tokens,
                    score,
                };
                (served, selection)
            }))
            .ok();
            item_ns += start.elapsed().as_nanos() as u64;
            replayed.push(outcome);
        }
        let Replica {
            timings, counts, ..
        } = replica;
        drop(selector);

        // recall@k of the workload's selections against exact ones, from a
        // selector built for this check only.
        let exact = ExampleSelector::with_retrieval(bench, RetrievalMode::Exact);
        let (mut hits, mut wanted) = (0usize, 0usize);
        for (item, outcome) in items.iter().zip(&replayed) {
            let Some((_, s)) = outcome else { continue };
            let truth = exact.select(
                SelectionStrategy::Dail,
                &item.question,
                &s.masked,
                s.preliminary.as_ref(),
                shots,
                seed ^ item.id as u64,
            );
            wanted += truth.len();
            hits += truth.iter().filter(|e| s.picked.contains(&e.id)).count();
        }
        drop(exact);

        let checked = check(bench, &real.outcomes);
        let ok: Vec<bool> = checked
            .ok
            .iter()
            .zip(&real.outcomes)
            .zip(&replayed)
            .map(|((&ok, real), replayed)| match (real, replayed) {
                (Some(real), Some((replayed, _))) => ok && real.same_as(replayed),
                _ => false,
            })
            .collect();
        let failed = ok.iter().filter(|ok| !**ok).count();

        let busy: u64 = timings.busy_ns.iter().sum();
        assert!(busy <= item_ns, "timed calls nest inside their item");
        let real_ns: u64 = real.item_ns.iter().sum();
        let mut m = Metrics::default();
        let other = setup.total - setup.generate - setup.selector_build;
        m.push("spider-gen.generate_s", setup.generate.as_secs_f64(), "s");
        m.push(
            "promptkit.selector_build_s",
            setup.selector_build.as_secs_f64(),
            "s",
        );
        m.push("bench.setup_other_s", other.as_secs_f64(), "s");
        m.push("bench.setup_s", setup.total.as_secs_f64(), "s");
        for (i, (name, tail)) in CALLS.iter().enumerate() {
            m.push(format!("{name}.calls"), timings.calls[i] as f64, "count");
            m.push(format!("{name}.ms"), timings.busy_ns[i] as f64 / 1e6, "ms");
            if *tail {
                let samples = &timings.samples[i];
                let (p50, p99) = if samples.is_empty() {
                    (0, 0)
                } else {
                    (
                        report::percentile(samples, 0.50),
                        report::percentile(samples, 0.99),
                    )
                };
                m.push(format!("{name}.p50_us"), p50 as f64 / 1e3, "us");
                m.push(format!("{name}.p99_us"), p99 as f64 / 1e3, "us");
            }
        }
        let c = &counts;
        m.push(
            "promptkit.examples_per_prompt",
            report::ratio(c.examples_kept, c.main_prompts),
            "count",
        );
        m.push(
            "simllm.distinct_prompt_ratio",
            report::ratio(c.distinct_prompts.len(), c.completions),
            "ratio",
        );
        m.push(
            "core.vote_distinct_ratio",
            report::ratio(c.vote_distinct, c.vote_candidates),
            "ratio",
        );
        m.push(
            "sqlkit.parse_fail_ratio",
            report::ratio(c.parse_fails, c.parses),
            "ratio",
        );
        m.push(
            "storage.exec_error_ratio",
            report::ratio(c.pred_exec_errors, c.pred_execs),
            "ratio",
        );
        m.push("storage.rows_out", c.rows_out as f64, "count");
        m.push(
            "retrievekit.recall_at_k",
            report::ratio(hits, wanted),
            "ratio",
        );
        m.push("bench.item_ms", item_ns as f64 / 1e6, "ms");
        m.push(
            "bench.unattributed_pct",
            100.0 * (item_ns - busy) as f64 / item_ns as f64,
            "%",
        );
        m.push(
            "bench.trace_overhead_pct",
            100.0 * (item_ns as f64 / real_ns as f64 - 1.0),
            "%",
        );
        info.extend([
            ("prediction_fingerprint", checked.fingerprint.hex()),
            ("ex_pct", report::json_number(checked.ex_pct())),
            (
                "prompt_tokens_per_item",
                report::json_number(checked.prompt_tokens_per_item()),
            ),
        ]);
        RunResult {
            metrics: m,
            attempted: items.len(),
            failed,
            info,
        }
    })
}
