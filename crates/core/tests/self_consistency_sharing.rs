//! Self-consistency shares its work without changing a prediction.
//!
//! `DailSql`'s voted path and `C3Style` comprehend each prompt once,
//! sample it k times, and execute each distinct candidate once. The
//! oracles below keep the unshared path: k independent
//! `SimLlm::complete` calls and a vote that executes every candidate and
//! compares all result signatures pairwise. Every prediction, its token
//! counts and its API calls must equal the oracle's.

use dail_core::{vote_by_execution, C3Style, DailSql, PredictCtx, Prediction, Predictor};
use promptkit::{build_prompt, ExampleSelector, PromptConfig, QuestionRepr};
use proptest::prelude::*;
use simllm::{extract_sql, GenOptions, PromptStyle, SimLlm};
use spider_gen::{Benchmark, BenchmarkConfig, ExampleItem};
use sqlkit::parse_query;
use storage::schema::{ColType, ColumnDef, DbSchema, TableSchema};
use storage::{execute_query, Database, ResultSet, Value};

/// The vote as it was before deduplication: execute every candidate,
/// count for each one how many signatures equal its own, and keep the
/// first candidate with the most votes.
fn oracle_vote(db: &Database, candidates: &[String]) -> String {
    if candidates.is_empty() {
        return String::new();
    }
    let mut signatures: Vec<Option<String>> = Vec::with_capacity(candidates.len());
    for sql in candidates {
        let sig = parse_query(sql)
            .ok()
            .and_then(|q| execute_query(db, &q).ok())
            .map(|rs| signature(&rs));
        signatures.push(sig);
    }
    let mut best_idx = 0usize;
    let mut best_votes = 0usize;
    for (i, sig) in signatures.iter().enumerate() {
        let votes = match sig {
            Some(s) => signatures
                .iter()
                .filter(|other| other.as_deref() == Some(s.as_str()))
                .count(),
            None => 0,
        };
        if votes > best_votes {
            best_votes = votes;
            best_idx = i;
        }
    }
    candidates[best_idx].clone()
}

fn signature(rs: &ResultSet) -> String {
    let mut rows: Vec<String> = rs
        .rows
        .iter()
        .map(|r| r.iter().map(Value::group_key).collect::<Vec<_>>().join(","))
        .collect();
    rows.sort();
    format!("{}|{}", rs.columns.len(), rows.join(";"))
}

/// k independent completions of one prompt, extracted and voted by the
/// oracle: sample 0 greedy, the rest at temperature 1.
fn oracle_samples(
    model: &SimLlm,
    ctx: &PredictCtx<'_>,
    item: &ExampleItem,
    text: &str,
    temperatures: impl Iterator<Item = f64>,
    out: &mut Prediction,
) {
    let had_prefix = text.trim_end().ends_with("SELECT");
    let tokens = ctx.tokenizer.count(text);
    let mut candidates = Vec::new();
    for (i, temperature) in temperatures.enumerate() {
        let response = model.complete(
            text,
            &GenOptions {
                seed: ctx.seed,
                temperature,
                sample_index: i as u32,
                ..GenOptions::default()
            },
        );
        let sql = extract_sql(&response, had_prefix);
        out.prompt_tokens += tokens;
        out.completion_tokens += ctx.tokenizer.count(&sql);
        out.api_calls += 1;
        candidates.push(sql);
    }
    out.sql = oracle_vote(ctx.bench.db(item), &candidates);
}

/// `DailSql::with_self_consistency(model, k)` without sharing.
fn oracle_dail_sc(
    model: &SimLlm,
    k: usize,
    ctx: &PredictCtx<'_>,
    item: &ExampleItem,
) -> Prediction {
    let prompt = |cfg: &PromptConfig, preliminary: Option<&sqlkit::Query>| {
        build_prompt(
            cfg,
            ctx.bench,
            ctx.selector,
            item,
            preliminary,
            ctx.realistic,
            ctx.tokenizer,
            ctx.seed,
        )
    };
    let zero = prompt(&PromptConfig::zero_shot(QuestionRepr::CodeRepr), None);
    let response = model.complete(
        &zero.text,
        &GenOptions {
            seed: ctx.seed,
            ..GenOptions::default()
        },
    );
    let sql = extract_sql(&response, zero.text.trim_end().ends_with("SELECT"));
    let mut out = Prediction {
        sql: String::new(),
        prompt_tokens: zero.tokens,
        completion_tokens: ctx.tokenizer.count(&sql),
        api_calls: 1,
    };
    let preliminary = parse_query(&sql).ok();
    let main = prompt(&PromptConfig::dail_sql(5), preliminary.as_ref());
    assert_eq!(main.tokens, ctx.tokenizer.count(&main.text));
    let temperatures = (0..k).map(|i| if i == 0 { 0.0 } else { 1.0 });
    oracle_samples(model, ctx, item, &main.text, temperatures, &mut out);
    out
}

/// `C3Style::new(model)` without sharing: eight samples at temperature 1.
fn oracle_c3(model: &SimLlm, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
    let bundle = build_prompt(
        &PromptConfig::zero_shot(QuestionRepr::OpenAiDemo),
        ctx.bench,
        ctx.selector,
        item,
        None,
        ctx.realistic,
        ctx.tokenizer,
        ctx.seed,
    );
    assert_eq!(bundle.tokens, ctx.tokenizer.count(&bundle.text));
    let mut out = Prediction {
        sql: String::new(),
        prompt_tokens: 0,
        completion_tokens: 0,
        api_calls: 0,
    };
    oracle_samples(
        model,
        ctx,
        item,
        &bundle.text,
        (0..8).map(|_| 1.0),
        &mut out,
    );
    out
}

fn assert_same(got: &Prediction, want: &Prediction, what: &str) {
    assert_eq!(got.sql, want.sql, "{what}: SQL");
    assert_eq!(
        got.prompt_tokens, want.prompt_tokens,
        "{what}: prompt tokens"
    );
    assert_eq!(
        got.completion_tokens, want.completion_tokens,
        "{what}: completion tokens"
    );
    assert_eq!(got.api_calls, want.api_calls, "{what}: API calls");
}

#[test]
fn shared_self_consistency_predicts_like_independent_completions() {
    let bench = Benchmark::generate(BenchmarkConfig::tiny());
    let selector = ExampleSelector::new(&bench);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = PredictCtx {
        bench: &bench,
        selector: &selector,
        tokenizer: &tokenizer,
        seed: 3,
        realistic: false,
        trace: obskit::TraceContext::disabled(),
    };
    let mut models: Vec<SimLlm> = ["gpt-4", "gpt-3.5-turbo", "vicuna-33b", "llama-7b"]
        .iter()
        .map(|name| SimLlm::new(name).expect("zoo model"))
        .collect();
    models.push(
        SimLlm::new("llama-7b")
            .expect("zoo model")
            .finetune(PromptStyle::Ddl, 1000),
    );
    for model in &models {
        let sc = DailSql::with_self_consistency(model.clone(), 5);
        let c3 = C3Style::new(model.clone());
        for item in &bench.dev {
            let what = format!("{} item {}", model.profile.name, item.id);
            let want = oracle_dail_sc(model, 5, &ctx, item);
            assert_same(
                &sc.predict(&ctx, item),
                &want,
                &format!("DAIL-SQL+SC {what}"),
            );
            let want_c3 = oracle_c3(model, &ctx, item);
            assert_same(&c3.predict(&ctx, item), &want_c3, &format!("C3 {what}"));
        }
    }
}

fn vote_db() -> Database {
    let schema = DbSchema {
        db_id: "d".into(),
        tables: vec![TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef::new("x", ColType::Int),
                ColumnDef::new("y", ColType::Int),
            ],
            primary_key: vec![0],
        }],
        foreign_keys: vec![],
    };
    let mut db = Database::new(schema);
    for i in 0..5 {
        db.insert("t", vec![Value::Int(i), Value::Int(i % 2)])
            .expect("row fits the schema");
    }
    db
}

/// Candidate SQL for the vote property: results shared by several
/// spellings, distinct results, SQL that parses but fails to execute, and
/// text that does not parse.
const POOL: &[&str] = &[
    "SELECT count(*) FROM t",
    "SELECT count(*) FROM t WHERE x >= 0",
    "SELECT COUNT(*) FROM t",
    "SELECT count(*) FROM t WHERE x > 2",
    "SELECT x FROM t",
    "SELECT x FROM t ORDER BY x DESC",
    "SELECT y FROM t",
    "SELECT DISTINCT y FROM t",
    "SELECT y FROM t WHERE x < 2",
    "SELECT nope FROM t",
    "SELECT x FROM missing",
    "garbage !!",
    "SELECT",
    "",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The deduplicated vote picks the same candidate as the oracle on
    /// lists with repeats, ties, failing and unparseable candidates.
    #[test]
    fn vote_by_execution_matches_the_oracle(
        picks in proptest::collection::vec(0usize..POOL.len(), 0..9),
    ) {
        let db = vote_db();
        let candidates: Vec<String> = picks.iter().map(|&i| POOL[i].to_string()).collect();
        prop_assert_eq!(
            vote_by_execution(&db, &candidates),
            oracle_vote(&db, &candidates),
            "{:?}", candidates
        );
    }
}
