//! Microbenches for the substrates: SQL parsing, execution (subqueries
//! included), canonicalization, skeleton extraction, tokenization and
//! embedding — the inner loops every experiment runs millions of times —
//! plus the two halves of a simulated completion and the self-consistency
//! vote.

use bench::small_benchmark;
use criterion::{criterion_group, criterion_main, Criterion};
use sqlkit::{exact_set_match, parse_query, Skeleton};
use std::hint::black_box;
use storage::execute_query;
use textkit::{embed, Tokenizer};

const SQL: &str = "SELECT T1.name, count(*) FROM singer AS T1 JOIN concert AS T2 ON T1.singer_id = T2.singer_id WHERE T2.year > 2015 GROUP BY T1.singer_id ORDER BY count(*) DESC LIMIT 3";

fn substrate(c: &mut Criterion) {
    let bench = small_benchmark();

    c.bench_function("parse_query", |b| {
        b.iter(|| black_box(parse_query(black_box(SQL)).unwrap()))
    });

    let q = parse_query(SQL).unwrap();
    c.bench_function("print_query", |b| b.iter(|| black_box(q.to_string())));

    c.bench_function("skeleton_extract", |b| {
        b.iter(|| black_box(Skeleton::of(black_box(&q))))
    });

    let q2 = parse_query(&SQL.replace("2015", "2016")).unwrap();
    c.bench_function("exact_set_match", |b| {
        b.iter(|| black_box(exact_set_match(black_box(&q), black_box(&q2))))
    });

    // Execute a real gold query on its database.
    let item = &bench.dev[0];
    let db = bench.db(item);
    c.bench_function("execute_gold_query", |b| {
        b.iter(|| black_box(execute_query(db, black_box(&item.gold)).unwrap()))
    });

    // Subqueries on the generated concert_singer database: the uncorrelated
    // IN runs its subquery once per statement, the correlated EXISTS once
    // per singer.
    let concert = &bench.databases["concert_singer"];
    let uncorrelated = parse_query(
        "SELECT name FROM singer WHERE singer_id IN \
         (SELECT singer_id FROM concert WHERE year > 2015)",
    )
    .unwrap();
    c.bench_function("exec_uncorrelated_in", |b| {
        b.iter(|| black_box(execute_query(concert, black_box(&uncorrelated)).unwrap()))
    });
    let correlated = parse_query(
        "SELECT name FROM singer AS S WHERE EXISTS \
         (SELECT 1 FROM concert AS C WHERE C.singer_id = S.singer_id)",
    )
    .unwrap();
    c.bench_function("exec_correlated_exists", |b| {
        b.iter(|| black_box(execute_query(concert, black_box(&correlated)).unwrap()))
    });

    let tok = Tokenizer::new();
    let prompt_text = promptkit::render_prompt(
        promptkit::QuestionRepr::CodeRepr,
        &db.schema,
        Some(db),
        &item.question,
        promptkit::ReprOptions::default(),
    );
    c.bench_function("tokenize_prompt", |b| {
        b.iter(|| black_box(tok.count(black_box(&prompt_text))))
    });

    c.bench_function("embed_question", |b| {
        b.iter(|| black_box(embed(black_box(&item.question))))
    });
}

/// The observability acceptance gate: instrumented hot paths with NO enabled
/// sink entered must cost the same as before obskit existed. Compare
/// `execute_gold_query` / `parse_query` above (which now carry the disabled
/// check inline) with these recorder-free micro-ops; the `obskit_*` rows
/// bound the per-call overhead itself (one thread-local load).
fn obskit_overhead(c: &mut Criterion) {
    let bench = small_benchmark();
    let item = &bench.dev[0];
    let db = bench.db(item);

    // The disabled fast path, in isolation: enabled() + a no-op recorder call.
    c.bench_function("obskit_disabled_enabled_check", |b| {
        b.iter(|| black_box(obskit::enabled()))
    });
    let off = obskit::Recorder::disabled();
    c.bench_function("obskit_disabled_counter_add", |b| {
        b.iter(|| off.add_counter(black_box("bench.counter"), black_box(1)))
    });
    c.bench_function("obskit_disabled_span", |b| {
        b.iter(|| black_box(off.span(black_box("bench.span")).id()))
    });

    // The instrumented executor with tracing off — the <2% overhead claim.
    c.bench_function("execute_gold_query_noop_recorder", |b| {
        b.iter(|| black_box(execute_query(db, black_box(&item.gold)).unwrap()))
    });

    // Enabled-path costs, for scale (not part of the no-op gate).
    let on = obskit::Recorder::enabled();
    c.bench_function("obskit_enabled_counter_add", |b| {
        b.iter(|| on.add_counter(black_box("bench.counter"), black_box(1)))
    });
    c.bench_function("obskit_enabled_histogram_observe", |b| {
        b.iter(|| on.observe(black_box("bench.hist"), black_box(12345)))
    });
}

/// Self-consistency's shared work: a full completion of a 5-shot DAIL
/// prompt against one sample drawn from its prebuilt comprehension, and a
/// vote over five candidates of which two are distinct.
fn self_consistency(c: &mut Criterion) {
    let bench = small_benchmark();
    let selector = promptkit::ExampleSelector::new(&bench);
    let tok = Tokenizer::new();
    let item = &bench.dev[0];
    // The gold query stands in for the preliminary prediction.
    let prompt = promptkit::build_prompt(
        &promptkit::PromptConfig::dail_sql(5),
        &bench,
        &selector,
        item,
        Some(&item.gold),
        false,
        &tok,
        1,
    )
    .text;
    let model = simllm::SimLlm::new("gpt-4").expect("zoo model");
    let opts = simllm::GenOptions {
        seed: 1,
        temperature: 1.0,
        sample_index: 3,
        ..simllm::GenOptions::default()
    };
    c.bench_function("simllm_complete_dail_prompt", |b| {
        b.iter(|| black_box(model.complete(black_box(&prompt), &opts)))
    });
    let comprehension = model.comprehend(&prompt, obskit::TraceContext::disabled());
    c.bench_function("simllm_sample_shared", |b| {
        b.iter(|| black_box(model.sample(black_box(&comprehension), &opts)))
    });

    let db = bench.db(item);
    let other = format!("SELECT count(*) FROM {}", db.schema.tables[0].name);
    let candidates = [
        &item.gold_sql,
        &other,
        &item.gold_sql,
        &other,
        &item.gold_sql,
    ]
    .map(|s| s.to_string());
    c.bench_function("vote_by_execution_5", |b| {
        b.iter(|| black_box(dail_core::vote_by_execution(db, black_box(&candidates))))
    });
}

criterion_group!(benches, substrate, obskit_overhead, self_consistency);
criterion_main!(benches);
