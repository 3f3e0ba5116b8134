//! `dail_sql_cli` — command-line front door to the library.
//!
//! `dail_sql_cli help` prints every command with its flags (see
//! [`usage`]): the model zoo, benchmark export, one-off questions and
//! pipeline evaluation; the paper's experiments; serving, SLO and
//! retrieval/execution benchmarks; persistence and recovery; EXPLAIN and
//! statistics; and the trace renderers `profile`, `flame`, `metrics` and
//! `dashboard`. Each command reads a fixed set of `--flag`s, named in its
//! [`COMMANDS`] entry next to its help text; any other flag exits 2.
//!
//! `eval` and `run-experiments` accept `--trace FILE.jsonl` to record a
//! full pipeline trace, replayable with the `profile` and `flame`
//! subcommands. Each of `profile`, `flame`, `metrics` and `dashboard`
//! folds a trace once into an `obskit::Profile` and renders part of it.
//!
//! A run is configured by its command line alone. The one environment
//! variable read is `DAIL_THREADS`, the worker count the library falls
//! back on; the CLI only warns when it does not parse.
//!
//! Exit codes: 0 success, 1 a failed check (perf regression beyond the
//! `--fail-on-regress` threshold, engine divergence, corrupt store), 2
//! usage / unreadable input.

use dail_core::{C3Style, DailSql, DinSqlStyle, Predictor, ZeroShot};
use eval::{evaluate_opts, EvalOptions, ExperimentRunner, Scale};
use promptkit::{render_prompt, ExampleSelector, QuestionRepr, ReprOptions};
use simllm::{extract_sql, GenOptions, SimLlm};
use spider_gen::{export_benchmark, Benchmark, BenchmarkConfig};
use std::collections::HashMap;
use std::path::PathBuf;

fn main() {
    warn_unparsable_threads();
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        usage();
        std::process::exit(2);
    };
    // `profile`/`flame` take positional paths; everything else is --flag
    // based. `-o` is accepted as shorthand for `--out`.
    let rest: Vec<String> = args
        .map(|a| if a == "-o" { "--out".to_string() } else { a })
        .collect();
    let positional: Vec<&String> = rest.iter().take_while(|a| !a.starts_with("--")).collect();
    let flags = parse_flags(rest.iter().cloned());
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        reject_unknown_flags(&cmd, &flags, &[]);
        usage();
        return;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("unknown command: {cmd}\n");
        usage();
        std::process::exit(2);
    };
    reject_unknown_flags(&cmd, &flags, command.reads);
    (command.run)(&positional, &flags);
}

/// One subcommand: its help entry (`usage` after the name, then `about`),
/// every flag it reads (its own set, then one set per shared helper it
/// calls) and its body. Any other `--flag` exits 2, and the unit test
/// `help_names_every_flag_a_command_reads` holds `usage` to `reads`.
struct Command {
    name: &'static str,
    usage: &'static str,
    about: &'static str,
    reads: &'static [&'static [&'static str]],
    run: fn(&[&String], &HashMap<String, String>),
}

/// Every subcommand, in help order.
const COMMANDS: &[Command] = &[
    Command {
        name: "models",
        usage: "",
        about: "list simulated models",
        reads: &[],
        run: |_, _| models(),
    },
    Command {
        name: "generate",
        usage: "--out DIR [bench flags]",
        about: "export a benchmark (SQL dumps + JSONL)",
        reads: &[&["out"], BENCH_FLAGS],
        run: |_, f| generate(f),
    },
    Command {
        name: "ask",
        usage: "--question \"...\" [--model M] [--db DB_ID] [bench flags]",
        about: "one-off Text-to-SQL against a generated db",
        reads: &[&["question", "model", "db"], BENCH_FLAGS],
        run: |_, f| ask(f),
    },
    Command {
        name: "eval",
        usage: "[--pipeline dail|dail-sc|din|c3|zero] [--model M] [--threads N]\n\
                [--trace FILE.jsonl] [--digests N] [--canonical] [bench flags]",
        about: "evaluate a pipeline and print the summary;\n\
                --digests appends a query-digest rollup",
        reads: &[
            &["threads", "digests", "canonical"],
            PREDICTOR_FLAGS,
            TRACE_FLAGS,
            BENCH_FLAGS,
        ],
        run: |_, f| run_eval(f),
    },
    Command {
        name: "explain",
        usage: "DB_ID \"SQL\" [--analyze] [--canonical] [bench flags]",
        about: "print the operator plan tree for a query\n\
                (--analyze executes it and adds actual rows / invocations /\n\
                self-times; --canonical zeroes times for diffing)",
        reads: &[&["analyze", "canonical"], BENCH_FLAGS],
        run: explain_cmd,
    },
    Command {
        name: "stats",
        usage: "DB_ID [--out FILE] [--roundtrip] [bench flags]",
        about: "per-table / per-column statistics as JSONL; --roundtrip\n\
                re-parses the output and exits 1 unless byte-identical",
        reads: &[&["roundtrip", "out"], BENCH_FLAGS],
        run: stats_cmd,
    },
    Command {
        name: "persist",
        usage: "--out DIR [--resume] [--crash-at SITE@N] [bench flags]",
        about: "materialize every benchmark database to WAL-backed page stores\n\
                plus the example pool snapshot; --resume skips stores already\n\
                marked complete; --crash-at aborts at the N-th hit of SITE\n\
                (mid-frame, before-commit, mid-commit, after-commit,\n\
                mid-checkpoint) for the kill-and-recover gate",
        reads: &[&["out", "crash-at", "resume"], BENCH_FLAGS],
        run: |_, f| persist_cmd(f),
    },
    Command {
        name: "recover",
        usage: "DIR [--verify]",
        about: "replay WALs and report per-store state; --verify fully loads\n\
                complete stores and checksums the pool snapshot's data blocks",
        reads: &[&["verify"]],
        run: recover_cmd,
    },
    Command {
        name: "warm-start-bench",
        usage: "--store DIR [--json FILE] [--seed N] [--train N] [--dev N]",
        about: "time cold selector build vs warm snapshot load (must be\n\
                bit-identical); --json writes {cold_ms,warm_ms,speedup}",
        reads: &[&["store", "seed", "train", "dev", "json"]],
        run: |_, f| warm_start_bench(f),
    },
    Command {
        name: "serve-bench",
        usage: "[--pipeline P] [--model M] [--requests N] [--mean-gap-ms N]\n\
                [--workers N] [--queue N] [--error-rate R] [--spike-rate R]\n\
                [--spike-ms N] [--corrupt-rate R] [--trace FILE.jsonl]\n\
                [--trace-sample R] [--json FILE] [--digests N] [--canonical]\n\
                [bench flags]",
        about: "drive the fault-injected serving layer with a seeded load, print\n\
                a markdown report (deterministic given --seed); --trace-sample R\n\
                head-samples request traces at rate R (default 1.0)",
        reads: &[
            &["canonical", "json"],
            SERVE_FLAGS,
            PREDICTOR_FLAGS,
            TRACE_FLAGS,
            BENCH_FLAGS,
        ],
        run: |_, f| serve_bench(f),
    },
    Command {
        name: "slo-report",
        usage: "[serve-bench flags] [--slo-latency-ms N] [--burn-alert B] [--json FILE]",
        about: "serve the same seeded load and print a deterministic SLO /\n\
                burn-rate report (every serve-bench flag but --canonical)",
        reads: &[
            &["slo-latency-ms", "burn-alert", "json"],
            SERVE_FLAGS,
            PREDICTOR_FLAGS,
            TRACE_FLAGS,
            BENCH_FLAGS,
        ],
        run: |_, f| slo_report(f),
    },
    Command {
        name: "metrics",
        usage: "TRACE.jsonl",
        about: "render a recorded trace's metrics as Prometheus text exposition",
        reads: &[],
        run: |p, _| metrics_trace(p),
    },
    Command {
        name: "dashboard",
        usage: "TRACE.jsonl [--window N] [--tenant T] [--json FILE]",
        about: "render the trace's windowed time-series (rates, p50/p99,\n\
                sparklines, exemplars) as a deterministic markdown dashboard;\n\
                --window sets the trailing stats window (default 8), --tenant\n\
                filters series",
        reads: &[&["window", "tenant", "json"]],
        run: dashboard_cmd,
    },
    Command {
        name: "select-bench",
        usage: "[--pool N | --pool-rows N[,N...]] [--queries M] [--seed S]\n\
                [--json FILE] [--no-timing]",
        about: "--pool: score a synthetic pool with the retrievekit fast path vs\n\
                the naive reference and print a markdown report (byte-identical\n\
                across DAIL_THREADS with --no-timing); --pool-rows: ANN sweep\n\
                instead, per pool size exact scan vs ivf retrieval with\n\
                recall@k, training cost and throughput per point",
        reads: &[&["pool", "pool-rows", "queries", "seed", "no-timing", "json"]],
        run: |_, f| select_bench(f),
    },
    Command {
        name: "exec-diff",
        usage: "[bench flags]",
        about: "run every gold query through the columnar engine AND the\n\
                reference interpreter; exit 1 unless results are bit-identical",
        reads: &[BENCH_FLAGS],
        run: |_, f| exec_diff(f),
    },
    Command {
        name: "exec-bench",
        usage: "[--rows N] [--engine columnar|oracle] [--trace FILE.jsonl]",
        about: "run a fixed scan/filter/join/aggregate workload on a synthetic\n\
                table through one engine (default columnar), recording\n\
                storage.exec spans for `profile`",
        reads: &[&["rows", "engine"], TRACE_FLAGS],
        run: |_, f| exec_bench(f),
    },
    Command {
        name: "run-experiments",
        usage: "--experiment e1..e10|a1..a6 [--dev-cap N] [--trace FILE.jsonl]\n\
                [bench flags]",
        about: "run one paper experiment, print its tables",
        reads: &[&["experiment", "dev-cap"], TRACE_FLAGS, BENCH_FLAGS],
        run: |_, f| run_experiments(f),
    },
    Command {
        name: "profile",
        usage: "TRACE.jsonl | BASE.jsonl NEW.jsonl [--fail-on-regress PCT]",
        about: "render a recorded trace as a per-stage time/metric breakdown, or\n\
                diff two traces (self-times, counters, histograms) and exit 1 if\n\
                any stage's self-time regressed beyond PCT percent",
        reads: &[&["fail-on-regress"]],
        run: profile_trace,
    },
    Command {
        name: "flame",
        usage: "TRACE.jsonl [-o|--out OUT.svg] [--folded]",
        about: "render a trace as flamegraph SVG (or folded stacks with --folded)",
        reads: &[&["out", "folded"]],
        run: flame_trace,
    },
];

/// Flags [`bench_from_flags`] reads, `[bench flags]` in help.
const BENCH_FLAGS: &[&str] = &["seed", "train", "dev", "store"];
/// How help spells out `[bench flags]`.
const BENCH_USAGE: &str = "[--seed N] [--train N] [--dev N] [--store DIR]";
/// Flags [`setup_trace`] reads.
const TRACE_FLAGS: &[&str] = &["trace"];
/// Flags [`build_predictor`] reads.
const PREDICTOR_FLAGS: &[&str] = &["model", "pipeline"];
/// Flags [`run_serve`] reads itself; it also calls the three helpers above.
const SERVE_FLAGS: &[&str] = &[
    "pipeline",
    "seed",
    "error-rate",
    "spike-rate",
    "spike-ms",
    "corrupt-rate",
    "workers",
    "queue",
    "trace-sample",
    "requests",
    "mean-gap-ms",
    "digests",
];

/// Exit 2 naming the first flag (alphabetically) in none of `sets`, the
/// flags `cmd` reads: a misspelt flag must not silently run its default.
fn reject_unknown_flags(cmd: &str, flags: &HashMap<String, String>, sets: &[&[&str]]) {
    let mut unknown: Vec<&String> = flags
        .keys()
        .filter(|k| !sets.iter().any(|set| set.contains(&k.as_str())))
        .collect();
    unknown.sort();
    if let Some(key) = unknown.first() {
        eprintln!("{cmd}: unknown flag --{key} (see `dail_sql_cli help`)");
        std::process::exit(2);
    }
}

/// Print every command's help entry from [`COMMANDS`], then the shared
/// `[bench flags]` group.
fn usage() {
    let indent =
        |text: &str, pad: &str| -> String { text.lines().map(|l| format!("{pad}{l}\n")).collect() };
    let mut out = String::from("dail_sql_cli — DAIL-SQL reproduction CLI\n\ncommands:\n");
    for c in COMMANDS {
        let (first, more) = c.usage.split_once('\n').unwrap_or((c.usage, ""));
        out.push_str(format!("  {} {first}", c.name).trim_end());
        out.push('\n');
        out.push_str(&indent(more, "      "));
        out.push_str(&indent(c.about, "          "));
    }
    out.push_str(&format!(
        "\n[bench flags] = {BENCH_USAGE}\n          \
         the generated benchmark's seed and train/dev sizes; --store DIR\n          \
         runs on the databases `persist` wrote there"
    ));
    eprintln!("{out}");
}

fn parse_flags(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        if let Some(key) = a.strip_prefix("--") {
            let val = match args.peek() {
                Some(v) if !v.starts_with("--") => args.next().unwrap(),
                _ => "true".to_string(),
            };
            out.insert(key.to_string(), val);
        }
    }
    out
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    flags.get(key).map(String::as_str).unwrap_or(default)
}

/// Parse a numeric flag, exiting with status 2 (not a panic) on bad input.
fn num_flag<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("--{key} must be a number, got {raw:?}");
            std::process::exit(2);
        }),
    }
}

/// Parse a probability flag (a float in `[0, 1]`), exiting with status 2
/// on bad input.
fn rate_flag(flags: &HashMap<String, String>, key: &str, default: f64) -> f64 {
    match flags.get(key) {
        None => default,
        Some(raw) => match raw.parse::<f64>() {
            Ok(v) if (0.0..=1.0).contains(&v) => v,
            _ => {
                eprintln!("--{key} must be a number in [0, 1], got {raw:?}");
                std::process::exit(2);
            }
        },
    }
}

/// `DAIL_THREADS` is read where work fans out, silently falling back to
/// available parallelism on a value it cannot parse; so the CLI names a
/// rejected value once, up front. A typo'd override silently running on
/// every core is the kind of surprise that invalidates a benchmark run.
fn warn_unparsable_threads() {
    if let Ok(raw) = std::env::var("DAIL_THREADS") {
        if raw.trim().parse::<usize>().is_err() {
            eprintln!(
                "warning: ignoring unparsable DAIL_THREADS={raw:?}; \
                 falling back to available parallelism"
            );
        }
    }
}

/// A command's telemetry sink, current on the main thread while this
/// lives, and the file [`finish_trace`] writes it to (`None` untraced).
struct Trace {
    rec: obskit::Recorder,
    path: Option<PathBuf>,
    _sink: obskit::SinkGuard,
}

/// Enter the command's sink: an enabled recorder when `--trace FILE` was
/// given, else a disabled one.
fn setup_trace(flags: &HashMap<String, String>) -> Trace {
    let path = flags.get("trace").map(PathBuf::from);
    let rec = match path {
        None => obskit::Recorder::disabled(),
        Some(_) => obskit::Recorder::enabled(),
    };
    let _sink = rec.enter();
    Trace { rec, path, _sink }
}

/// Write the trace out (if tracing was requested) and tell the user.
fn finish_trace(trace: Trace) {
    let Trace { rec, path, .. } = trace;
    let Some(path) = path else { return };
    match rec.write_jsonl(&path) {
        Ok(events) => eprintln!(
            "trace written to {} ({events} events); replay with `dail_sql_cli profile {}`",
            path.display(),
            path.display()
        ),
        Err(e) => {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

fn models() {
    println!(
        "{:<18} {:>5} {:>6} {:>5} {:>8} {:>10} {:>6}",
        "model", "tier", "align", "icl", "context", "$/1k in", "open"
    );
    for p in simllm::ZOO {
        println!(
            "{:<18} {:>5.2} {:>6.2} {:>5.2} {:>8} {:>10.4} {:>6}",
            p.name,
            p.tier,
            p.alignment,
            p.icl_weight,
            p.context_window,
            p.price_per_1k_prompt,
            p.open_source
        );
    }
}

/// `--digests [N]`: `None` when absent, `Some(top_n)` when present
/// (bare `--digests` defaults to the top 10).
fn digests_top_n(flags: &HashMap<String, String>) -> Option<usize> {
    match flags.get("digests") {
        None => None,
        Some(v) if v == "true" => Some(10),
        Some(v) => match v.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                eprintln!("--digests must be a number, got {v:?}");
                std::process::exit(2);
            }
        },
    }
}

/// Look up a database by id, exiting with status 2 (and the available ids)
/// when unknown. Shared by `ask`, `explain` and `stats`.
fn db_by_id<'a>(bench: &'a Benchmark, db_id: &str) -> &'a storage::Database {
    match bench.databases.get(db_id) {
        Some(db) => db,
        None => {
            eprintln!(
                "unknown db {db_id}; available: {}",
                bench
                    .databases
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            std::process::exit(2);
        }
    }
}

/// `explain`: print the operator plan tree for one query, optionally
/// executing it (`--analyze`) to fill in actual rows / invocations /
/// self-times. `--canonical` zeroes the time fields so output is
/// byte-stable for goldens and cross-thread-count diffing.
fn explain_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [db_id, sql] = positional else {
        eprintln!("explain requires: dail_sql_cli explain DB_ID \"SQL\" [--analyze] [--canonical]");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let db = db_by_id(&bench, db_id);
    let q = match sqlkit::parse_query(sql) {
        Ok(q) => q,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(2);
        }
    };
    let stats = storage::collect(db);
    let canonical = flags.contains_key("canonical");
    if flags.contains_key("analyze") {
        match storage::execute_query_analyzed(
            db,
            &q,
            storage::Engine::default(),
            Some(&stats),
            obskit::TraceContext::disabled(),
        ) {
            Ok(an) => print!("{}", an.plan.render(true, canonical)),
            Err(e) => {
                eprintln!("execution error: {e}");
                std::process::exit(1);
            }
        }
    } else {
        let plan = storage::explain_query(db, &q, storage::Engine::default(), Some(&stats));
        print!("{}", plan.render(false, canonical));
    }
}

/// `stats`: collect per-table / per-column statistics for one database and
/// emit them as JSONL. `--roundtrip` re-parses the emitted text and exits 1
/// unless re-serialization is byte-identical (the format's invariant).
fn stats_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [db_id] = positional else {
        eprintln!("stats requires: dail_sql_cli stats DB_ID [--out FILE] [--roundtrip]");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let db = db_by_id(&bench, db_id);
    let stats = storage::collect(db);
    let jsonl = stats.to_jsonl();
    if flags.contains_key("roundtrip") {
        match storage::DbStats::from_jsonl(&jsonl) {
            Ok(back) if back.to_jsonl() == jsonl => {
                eprintln!(
                    "round-trip OK: {} tables, {} bytes",
                    stats.tables.len(),
                    jsonl.len()
                );
            }
            Ok(_) => {
                eprintln!("FATAL: stats JSONL round-trip is not byte-identical");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("FATAL: emitted stats JSONL does not parse back: {e}");
                std::process::exit(1);
            }
        }
    }
    match flags.get("out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("stats written to {path} ({} tables)", stats.tables.len());
        }
        None => print!("{jsonl}"),
    }
}

/// `exec-diff`: the differential oracle gate over the benchmark's gold
/// queries. Every gold query must satisfy [`storage::check_agreement`]
/// (columnar engine vs reference interpreter); any divergence exits 1.
fn exec_diff(flags: &HashMap<String, String>) {
    let bench = bench_from_flags(flags);
    let mut n = 0usize;
    for item in bench.train.iter().chain(bench.dev.iter()) {
        let q = match sqlkit::parse_query(&item.gold_sql) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("gold query failed to parse ({e}): {}", item.gold_sql);
                std::process::exit(1);
            }
        };
        if let Err(msg) = storage::check_agreement(bench.db(item), &q) {
            eprintln!("ENGINE DIVERGENCE on {}\n{msg}", item.gold_sql);
            std::process::exit(1);
        }
        n += 1;
    }
    println!(
        "exec-diff: {n} gold queries — columnar engine and reference \
         interpreter agree bit-for-bit"
    );
}

/// `exec-bench`: a fixed scan/filter/join/aggregate workload on a synthetic
/// star schema (`--rows` fact rows), run through the `--engine` given
/// (columnar by default). The analyzed executor emits `storage.exec` spans,
/// so two traced runs (columnar vs oracle) can be diffed with `profile` —
/// that is the CI step-change gate. Result row counts go to stdout (the
/// engines must agree on them); timing goes to stderr and the trace only.
fn exec_bench(flags: &HashMap<String, String>) {
    use storage::schema::{ColType, ColumnDef, DbSchema, TableSchema};
    use storage::{Engine, Value};
    let rows: usize = num_flag(flags, "rows", 50_000usize);
    let engine_name = flag(flags, "engine", "columnar");
    let engine = match engine_name {
        "columnar" => Engine::Columnar,
        "oracle" => Engine::Oracle,
        other => {
            eprintln!("--engine must be columnar or oracle, got {other:?}");
            std::process::exit(2);
        }
    };
    let trace = setup_trace(flags);
    let schema = DbSchema {
        db_id: "exec_bench".into(),
        tables: vec![
            TableSchema {
                name: "fact".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("k", ColType::Int),
                    ColumnDef::new("v", ColType::Float),
                    ColumnDef::new("tag", ColType::Text),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "dim".into(),
                columns: vec![
                    ColumnDef::new("k", ColType::Int),
                    ColumnDef::new("label", ColType::Text),
                ],
                primary_key: vec![0],
            },
        ],
        foreign_keys: vec![],
    };
    let mut db = storage::Database::new(schema);
    for i in 0..rows {
        db.insert(
            "fact",
            vec![
                Value::Int(i as i64),
                Value::Int((i % 97) as i64),
                Value::Float((i % 1000) as f64 / 10.0),
                Value::Str(format!("t{}", i % 7)),
            ],
        )
        .unwrap();
    }
    for k in 0..97i64 {
        db.insert("dim", vec![Value::Int(k), Value::Str(format!("label{k}"))])
            .unwrap();
    }
    let queries = [
        ("point", "SELECT count(*) FROM fact WHERE id = 12345"),
        (
            "range",
            "SELECT count(*), sum(v) FROM fact WHERE id BETWEEN 1000 AND 2000",
        ),
        (
            "filter",
            "SELECT count(*) FROM fact WHERE k = 13 AND v > 50.0",
        ),
        ("like", "SELECT count(*) FROM fact WHERE tag LIKE 't1%'"),
        (
            "join",
            "SELECT count(*) FROM fact AS F JOIN dim AS D ON F.k = D.k WHERE F.v < 25.0",
        ),
        (
            "group",
            "SELECT D.label, count(*), sum(F.v) FROM fact AS F JOIN dim AS D ON F.k = D.k \
             GROUP BY D.label ORDER BY D.label ASC LIMIT 5",
        ),
    ];
    println!("# exec-bench: {rows} fact rows, engine {engine_name}");
    let t0 = std::time::Instant::now();
    for (i, (name, sql)) in queries.into_iter().enumerate() {
        let q = sqlkit::parse_query(sql).expect("workload SQL parses");
        // Each workload query is its own traced request.
        let request = obskit::TraceContext::root(i as u64, true, None);
        match storage::execute_query_analyzed(&db, &q, engine, None, request) {
            Ok(an) => println!("{name}: {} rows", an.result.rows.len()),
            Err(e) => {
                eprintln!("exec-bench query {name} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("exec-bench wall time: {:?}", t0.elapsed());
    finish_trace(trace);
}

fn bench_from_flags(flags: &HashMap<String, String>) -> Benchmark {
    let cfg = BenchmarkConfig {
        seed: num_flag(flags, "seed", 2023u64),
        train_size: num_flag(flags, "train", 400usize),
        dev_size: num_flag(flags, "dev", 100usize),
        dev_domains: 6,
        synthetic_domains: 0,
    };
    let mut bench = Benchmark::generate(cfg);
    if let Some(dir) = flags.get("store") {
        apply_store(&mut bench, std::path::Path::new(dir));
    }
    bench
}

/// `--store DIR`: replace every generated database with the one persisted
/// in `DIR` (written by `persist`). Loads are validated against the WAL /
/// checksum machinery, so a benchmark served this way runs on exactly the
/// bytes that survived a restart. Missing or unreadable stores exit 2.
fn apply_store(bench: &mut Benchmark, dir: &std::path::Path) {
    if !dir.is_dir() {
        eprintln!("--store {}: not a directory", dir.display());
        std::process::exit(2);
    }
    let ids: Vec<String> = bench.databases.keys().cloned().collect();
    for id in ids {
        let path = dir.join(format!("{id}.pg"));
        match storage::load_database(&path) {
            Ok((db, _)) => {
                bench.databases.insert(id, db);
            }
            Err(e) => {
                eprintln!("cannot load store {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
}

/// Path of the example-pool snapshot inside a store directory.
fn pool_snapshot_path(dir: &std::path::Path) -> PathBuf {
    dir.join("pool.emb")
}

/// `persist`: materialize every benchmark database into a WAL-backed page
/// store under `--out DIR` (one `<db_id>.pg` file each), then write the
/// example-pool embedding snapshot. `--resume` skips stores already marked
/// complete, which is how a run interrupted mid-commit (by a crash, or by
/// the `--crash-at SITE@N` injector) finishes the job after `recover`.
fn persist_cmd(flags: &HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("persist requires --out DIR");
        std::process::exit(2);
    };
    let crash = flags.get("crash-at").map(|spec| {
        spec.parse::<storage::CrashPoint>().unwrap_or_else(|e| {
            eprintln!("--crash-at: {e}");
            std::process::exit(2);
        })
    });
    let dir = PathBuf::from(out);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let resume = flags.contains_key("resume");
    let bench = bench_from_flags(flags);
    let (mut written, mut skipped) = (0usize, 0usize);
    for (id, db) in &bench.databases {
        let path = dir.join(format!("{id}.pg"));
        if resume && matches!(storage::recover_store(&path), Ok(info) if info.complete) {
            skipped += 1;
            continue;
        }
        if let Err(e) = storage::persist_database(db, &path, crash.as_ref()) {
            eprintln!("persist {}: {e}", path.display());
            std::process::exit(1);
        }
        written += 1;
    }
    let selector = ExampleSelector::new(&bench);
    if let Err(e) = selector.save_snapshot(&pool_snapshot_path(&dir)) {
        eprintln!("persist pool snapshot: {e}");
        std::process::exit(1);
    }
    println!(
        "persisted {written} databases ({skipped} already complete) and a {}-example \
         pool snapshot to {}",
        bench.train.len(),
        dir.display()
    );
}

/// `recover`: open every page store in `DIR`, replaying committed WAL
/// tails and discarding torn ones, and report the per-store verdict.
/// `--verify` additionally loads every complete store row by row and
/// checksums the pool snapshot's f32 data blocks. Exit codes: 2 when `DIR`
/// is missing, 1 when any store is corrupt, 0 otherwise (incomplete
/// stores are reported, not fatal — `persist --resume` finishes them).
fn recover_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [dir] = positional else {
        eprintln!("recover requires a store directory: dail_sql_cli recover DIR [--verify]");
        std::process::exit(2);
    };
    let dir = PathBuf::from(dir);
    if !dir.is_dir() {
        eprintln!("cannot recover {}: not a directory", dir.display());
        std::process::exit(2);
    }
    let verify = flags.contains_key("verify");
    let mut stores: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "pg"))
            .collect(),
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    stores.sort();
    let mut corrupt = 0usize;
    let mut incomplete = 0usize;
    for path in &stores {
        match storage::recover_store(path) {
            Ok(info) => {
                let rows: u64 = info.tables.iter().map(|(_, n)| n).sum();
                println!(
                    "{}: {} seq={} pages={} tables={} rows={} replayed={}{}",
                    info.db_id,
                    if info.complete {
                        "complete"
                    } else {
                        "INCOMPLETE"
                    },
                    info.commit_seq,
                    info.n_pages,
                    info.tables.len(),
                    rows,
                    info.replayed_commits,
                    if info.discarded_tail {
                        " discarded-torn-tail"
                    } else {
                        ""
                    }
                );
                if !info.complete {
                    incomplete += 1;
                } else if verify {
                    if let Err(e) = storage::load_database(path) {
                        println!("{}: VERIFY FAILED: {e}", info.db_id);
                        corrupt += 1;
                    }
                }
            }
            Err(e @ storage::StoreError::Incomplete(_)) => {
                println!("{}: INCOMPLETE: {e}", path.display());
                incomplete += 1;
            }
            Err(e) => {
                println!("{}: CORRUPT: {e}", path.display());
                corrupt += 1;
            }
        }
    }
    let snap = pool_snapshot_path(&dir);
    if snap.is_file() {
        match retrievekit::load_snapshot(&snap, verify) {
            Ok(s) => println!(
                "pool.emb: ok matrices={} rows={}{}",
                s.matrices.len(),
                s.matrices.first().map(|m| m.len()).unwrap_or(0),
                if verify { " data-checksum=ok" } else { "" }
            ),
            Err(e) => {
                println!("pool.emb: CORRUPT: {e}");
                corrupt += 1;
            }
        }
    }
    println!(
        "recover: {} stores, {incomplete} incomplete, {corrupt} corrupt",
        stores.len()
    );
    if corrupt > 0 {
        std::process::exit(1);
    }
}

/// `warm-start-bench`: prove the snapshot warm path reproduces the cold
/// selector bit for bit, then time both. The cold path embeds and masks
/// every training question and walks every gold AST; the warm path reads
/// one file. `--json FILE` records `{cold_ms, warm_ms, speedup}` for the
/// CI floor in `scripts/check.sh`.
fn warm_start_bench(flags: &HashMap<String, String>) {
    let Some(store) = flags.get("store") else {
        eprintln!("warm-start-bench requires --store DIR");
        std::process::exit(2);
    };
    let dir = PathBuf::from(store);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let snap = pool_snapshot_path(&dir);
    // The benchmark itself is generated outside both timed regions: it is
    // shared input, not part of either path's cost. The default pool is
    // larger than eval's (2000 vs 400 examples): the warm path's cost is
    // mostly fixed (one file read), so a serving-sized pool is where the
    // cold/warm gap is representative.
    let cfg = BenchmarkConfig {
        seed: num_flag(flags, "seed", 2023u64),
        train_size: num_flag(flags, "train", 2000usize),
        dev_size: num_flag(flags, "dev", 100usize),
        dev_domains: 6,
        synthetic_domains: 0,
    };
    let bench = Benchmark::generate(cfg);

    // Min-of-N timing on both sides: the first iteration of either path
    // pays one-off page-fault and allocator costs that say nothing about
    // the path itself, and the minimum is the standard noise-robust
    // estimator for deterministic workloads.
    const ITERS: usize = 5;
    let mut cold_ms = f64::INFINITY;
    let mut cold = None;
    for _ in 0..ITERS {
        let t0 = std::time::Instant::now();
        let s = ExampleSelector::new(&bench);
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        cold = Some(s);
    }
    let cold = cold.expect("at least one cold build");
    if let Err(e) = cold.save_snapshot(&snap) {
        eprintln!("cannot write {}: {e}", snap.display());
        std::process::exit(1);
    }

    let mut warm_ms = f64::INFINITY;
    let mut warm = None;
    for _ in 0..ITERS {
        let t0 = std::time::Instant::now();
        let s = match ExampleSelector::load_snapshot(&bench, &snap, false) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("warm load failed: {e}");
                std::process::exit(1);
            }
        };
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        warm = Some(s);
    }
    let warm = warm.expect("at least one warm load");

    // Equivalence is part of the benchmark's contract: a warm start that
    // selects differently is a bug, not a speedup.
    let draft = sqlkit::parse_query("SELECT count(*) FROM t").expect("draft parses");
    for strat in promptkit::SelectionStrategy::ALL {
        let pick = |s: &ExampleSelector| -> Vec<usize> {
            s.select(
                strat,
                "How many gadgets are there?",
                "how many <mask> are there",
                Some(&draft),
                8,
                7,
            )
            .iter()
            .map(|e| e.id)
            .collect()
        };
        if pick(&cold) != pick(&warm) {
            eprintln!("FATAL: warm selector diverges from cold on {strat:?}");
            std::process::exit(1);
        }
    }

    let speedup = cold_ms / warm_ms.max(1e-9);
    println!("# warm-start-bench\n");
    println!("| metric | value |");
    println!("|---|---|");
    println!("| pool | {} |", bench.train.len());
    println!("| dim | {} |", textkit::DIM);
    println!("| cold build | {cold_ms:.2} ms |");
    println!("| warm load | {warm_ms:.2} ms |");
    println!("| speedup | {speedup:.1}x |");
    println!("| selections | identical |");
    if let Some(path) = flags.get("json") {
        let json = format!(
            "{{\"pool\":{},\"dim\":{},\"cold_ms\":{cold_ms:.3},\"warm_ms\":{warm_ms:.3},\
             \"speedup\":{speedup:.2}}}\n",
            bench.train.len(),
            textkit::DIM
        );
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("warm-start numbers written to {path}");
    }
}

fn generate(flags: &HashMap<String, String>) {
    let Some(out) = flags.get("out") else {
        eprintln!("generate requires --out DIR");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let dir = PathBuf::from(out);
    export_benchmark(&bench, &dir).expect("export failed");
    println!(
        "exported {} databases, {} train and {} dev examples to {}",
        bench.databases.len(),
        bench.train.len(),
        bench.dev.len(),
        dir.display()
    );
}

fn ask(flags: &HashMap<String, String>) {
    let Some(question) = flags.get("question") else {
        eprintln!("ask requires --question \"...\"");
        std::process::exit(2);
    };
    let model_name = flag(flags, "model", "gpt-4");
    let Some(model) = SimLlm::new(model_name) else {
        eprintln!("unknown model {model_name}; try `dail_sql_cli models`");
        std::process::exit(2);
    };
    let bench = bench_from_flags(flags);
    let db_id = flag(flags, "db", "");
    let db = if db_id.is_empty() {
        bench
            .databases
            .values()
            .next()
            .expect("benchmark has databases")
    } else {
        db_by_id(&bench, db_id)
    };
    let seed: u64 = num_flag(flags, "seed", 1u64);
    let prompt = render_prompt(
        QuestionRepr::CodeRepr,
        &db.schema,
        Some(db),
        question,
        ReprOptions::default(),
    );
    let out = model.complete(
        &prompt,
        &GenOptions {
            seed,
            ..Default::default()
        },
    );
    let sql = extract_sql(&out, prompt.trim_end().ends_with("SELECT"));
    println!("db:  {}", db.schema.db_id);
    println!("sql: {sql}");
    match sqlkit::parse_query(&sql).map(|q| storage::execute_query(db, &q)) {
        Ok(Ok(rs)) => {
            println!("rows ({}):", rs.rows.len());
            for row in rs.rows.iter().take(10) {
                let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                println!("  {}", cells.join(" | "));
            }
        }
        Ok(Err(e)) => println!("execution error: {e}"),
        Err(e) => println!("parse error: {e}"),
    }
}

/// Build the predictor named by `--pipeline` / `--model`, exiting with
/// status 2 on unknown names. Shared by `eval` and `serve-bench`.
fn build_predictor(flags: &HashMap<String, String>) -> Box<dyn Predictor + Sync> {
    let model_name = flag(flags, "model", "gpt-4");
    let Some(model) = SimLlm::new(model_name) else {
        eprintln!("unknown model {model_name}; try `dail_sql_cli models`");
        std::process::exit(2);
    };
    match flag(flags, "pipeline", "dail") {
        "dail" => Box::new(DailSql::new(model)),
        "dail-sc" => Box::new(DailSql::with_self_consistency(model, 5)),
        "din" => Box::new(DinSqlStyle::new(model)),
        "c3" => Box::new(C3Style::new(model)),
        "zero" => Box::new(ZeroShot::new(model, QuestionRepr::CodeRepr)),
        other => {
            eprintln!("unknown pipeline {other} (use dail|dail-sc|din|c3|zero)");
            std::process::exit(2);
        }
    }
}

fn run_eval(flags: &HashMap<String, String>) {
    let predictor = build_predictor(flags);
    let trace = setup_trace(flags);
    let bench = bench_from_flags(flags);
    let selector = ExampleSelector::new(&bench);
    let threads = flags
        .get("threads")
        .map(|_| num_flag(flags, "threads", 0usize));
    let digests_n = digests_top_n(flags);
    let opts = EvalOptions {
        threads,
        digests: digests_n.is_some(),
    };
    let r = evaluate_opts(
        &bench,
        &selector,
        predictor.as_ref(),
        &bench.dev,
        2023,
        false,
        &opts,
    );
    println!("pipeline: {}", r.name);
    println!("items:    {}", r.n);
    println!("EX:       {}", r.ex_ci95(2023).render());
    println!("EM:       {:.1}%", r.em_pct());
    println!("valid:    {:.1}%", r.valid_pct());
    println!(
        "tokens:   {:.0} prompt + {:.0} completion per query",
        r.cost.avg_prompt_tokens(),
        r.cost.avg_completion_tokens()
    );
    println!("calls:    {:.1} per query", r.cost.avg_api_calls());
    for (h, (c, n)) in &r.ex_by_hardness {
        println!(
            "  {:<7} {:>5.1}%  ({c}/{n})",
            h.as_str(),
            100.0 * *c as f64 / (*n).max(1) as f64
        );
    }
    if let (Some(n), Some(acc)) = (digests_n, &r.digests) {
        println!();
        print!("{}", acc.render_top(n, flags.contains_key("canonical")));
    }
    finish_trace(trace);
}

/// One finished serve-bench run, owned (no borrows into the benchmark),
/// shared by `serve-bench` and `slo-report`.
struct ServeRun {
    predictor_name: String,
    faults: simllm::FaultConfig,
    reqs: Vec<servekit::ServeReq>,
    outcomes: Vec<servekit::Outcome>,
    stats: servekit::ServeStats,
    /// Per-request EX verdict: `Some` for scored OK responses.
    ex: Vec<Option<bool>>,
    /// Query-digest rollup over scored responses; `Some` only when the
    /// analyzed scoring path was active (`--digests`).
    digests: Option<eval::DigestAccumulator>,
    trace: Trace,
}

/// Drive the servekit serving layer with a seeded load against injected
/// faults. Every number in the result is deterministic given `--seed` —
/// including across `--workers` settings — which is what makes the
/// reports golden-testable. EX scoring runs under each request's trace
/// context, so traced runs show execution/comparison spans inside the
/// request tree.
fn run_serve(flags: &HashMap<String, String>) -> ServeRun {
    let predictor = build_predictor(flags);
    let pipeline = flag(flags, "pipeline", "dail").to_string();
    let seed: u64 = num_flag(flags, "seed", 7u64);
    let trace = setup_trace(flags);
    let bench = bench_from_flags(flags);
    let selector = ExampleSelector::new(&bench);
    let tokenizer = textkit::Tokenizer::new();
    let ctx = dail_core::PredictCtx {
        bench: &bench,
        selector: &selector,
        tokenizer: &tokenizer,
        seed,
        realistic: false,
        trace: obskit::TraceContext::disabled(),
    };
    let faults = simllm::FaultConfig {
        seed,
        error_rate: rate_flag(flags, "error-rate", 0.1),
        spike_rate: rate_flag(flags, "spike-rate", 0.05),
        spike_ms: num_flag(flags, "spike-ms", 250u64),
        corrupt_rate: rate_flag(flags, "corrupt-rate", 0.05),
    };
    let cfg = servekit::ServeConfig {
        workers: num_flag(flags, "workers", 4usize),
        queue_capacity: num_flag(flags, "queue", 32usize),
        // The pipeline fixes its own representation and shot count, so its
        // name stands in for both in the cache key.
        repr: pipeline,
        faults,
        trace_sample: rate_flag(flags, "trace-sample", 1.0),
    };
    let load = servekit::LoadConfig {
        seed,
        requests: num_flag(flags, "requests", 120usize),
        mean_gap_ms: num_flag(flags, "mean-gap-ms", 30u64),
        dup_rate: 0.35,
    };
    let reqs = servekit::generate(&load, bench.dev.len());
    let out = servekit::serve(predictor.as_ref(), &ctx, &bench.dev, &reqs, &cfg);

    // Scoring path: the analyzed executor (per-operator accounting and
    // digest rollup) is opt-in via `--digests`; scores are identical either
    // way, so every number in the report is unchanged.
    let mut digests = digests_top_n(flags)
        .is_some()
        .then(eval::DigestAccumulator::new);
    let mut ex: Vec<Option<bool>> = Vec::with_capacity(reqs.len());
    for (i, (req, outcome)) in reqs.iter().zip(&out.outcomes).enumerate() {
        if let servekit::Outcome::Ok {
            sql, latency_ms, ..
        } = outcome
        {
            let item = &bench.dev[req.item_idx];
            let score =
                eval::score_item_traced(bench.db(item), item, sql, out.traces[i], digests.as_mut());
            if trace.rec.is_enabled() {
                trace.rec.add_counter_at(
                    "eval.ex_verdicts",
                    &[
                        ("db", item.db_id.as_str()),
                        ("tenant", &format!("t{}", req.tenant)),
                        ("verdict", if score.ex { "correct" } else { "wrong" }),
                    ],
                    req.arrival_ms + latency_ms,
                    1,
                );
            }
            ex.push(Some(score.ex));
        } else {
            ex.push(None);
        }
    }
    ServeRun {
        predictor_name: predictor.name(),
        faults,
        reqs,
        outcomes: out.outcomes,
        stats: out.stats,
        ex,
        digests,
        trace,
    }
}

/// The [`servekit::ReportInput`] of a finished run (shared by the
/// markdown report, the `--json` emitter and `slo-report --json`).
fn serve_report_input(run: &ServeRun) -> servekit::ReportInput<'_> {
    servekit::ReportInput {
        predictor: &run.predictor_name,
        faults: &run.faults,
        stats: &run.stats,
        ex_correct: run.ex.iter().flatten().filter(|&&v| v).count() as u64,
        ex_scored: run.ex.iter().flatten().count() as u64,
    }
}

/// Write the JSON report when `--json FILE` was given.
fn write_json_report(flags: &HashMap<String, String>, report: &servekit::ReportInput) {
    let Some(path) = flags.get("json") else {
        return;
    };
    if let Err(e) = std::fs::write(path, servekit::render_json(report)) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("json report written to {path}");
}

/// `serve-bench`: run the seeded load and print the markdown report.
/// `--digests N` appends a query-digest rollup section; `--json FILE`
/// additionally writes a machine-readable report.
fn serve_bench(flags: &HashMap<String, String>) {
    let run = run_serve(flags);
    let report = serve_report_input(&run);
    print!("{}", servekit::render(&report));
    if let (Some(n), Some(acc)) = (digests_top_n(flags), &run.digests) {
        println!();
        print!("{}", acc.render_top(n, flags.contains_key("canonical")));
    }
    write_json_report(flags, &report);
    finish_trace(run.trace);
}

/// `slo-report`: run the same seeded load as `serve-bench` and print the
/// SLO / burn-rate report. Deterministic: every number runs on the
/// serving layer's virtual clock.
fn slo_report(flags: &HashMap<String, String>) {
    let cfg = servekit::SloConfig {
        latency_threshold_ms: num_flag(flags, "slo-latency-ms", 300u64),
        latency_objective: 0.95,
        ex_objective: 0.50,
        short_window_ms: 2_000,
        long_window_ms: 10_000,
        burn_alert: num_flag(flags, "burn-alert", 2.0f64),
    };
    let run = run_serve(flags);
    let outcomes: Vec<servekit::RequestOutcome> = run
        .reqs
        .iter()
        .zip(&run.outcomes)
        .zip(&run.ex)
        .map(|((req, outcome), ex)| match outcome {
            servekit::Outcome::Ok { latency_ms, .. } => servekit::RequestOutcome {
                t_ms: req.arrival_ms + latency_ms,
                served_ok: true,
                latency_ms: *latency_ms,
                ex: *ex,
            },
            servekit::Outcome::Overloaded => servekit::RequestOutcome {
                t_ms: req.arrival_ms,
                served_ok: false,
                latency_ms: 0,
                ex: None,
            },
            servekit::Outcome::DeadlineExceeded { latency_ms, .. }
            | servekit::Outcome::Failed { latency_ms, .. } => servekit::RequestOutcome {
                t_ms: req.arrival_ms + latency_ms,
                served_ok: false,
                latency_ms: *latency_ms,
                ex: None,
            },
        })
        .collect();
    print!("{}", servekit::render_slo_report(&cfg, &outcomes));
    write_json_report(flags, &serve_report_input(&run));
    finish_trace(run.trace);
}

/// `metrics`: render a recorded trace's counters, gauges and histograms
/// as Prometheus text exposition on stdout.
fn metrics_trace(positional: &[&String]) {
    let [path] = positional else {
        eprintln!("metrics requires a trace file: dail_sql_cli metrics TRACE.jsonl");
        std::process::exit(2);
    };
    let profile = obskit::Profile::from_events(&load_trace(path));
    print!("{}", obskit::expo::render_profile(&profile));
}

/// `dashboard`: render as markdown the windowed time-series store that
/// the trace's profile folds from the run's windowed writes. Every number
/// derives from those `tsdb.*` events on the virtual clock, so the output
/// is byte-identical across runs and thread counts.
fn dashboard_cmd(positional: &[&String], flags: &HashMap<String, String>) {
    let [path] = positional else {
        eprintln!("dashboard requires a trace file: dail_sql_cli dashboard TRACE.jsonl");
        std::process::exit(2);
    };
    let profile = obskit::Profile::from_events(&load_trace(path));
    let tsdb = &profile.tsdb;
    if tsdb.series_count() == 0 {
        eprintln!("no tsdb series in {path} (not a traced serve-bench or slo-report run?)");
        std::process::exit(2);
    }
    let window: u64 = num_flag(flags, "window", 8u64).max(1);
    let tenant = flags.get("tenant").map(String::as_str);
    print!("{}", render_dashboard(tsdb, window, tenant));
    if let Some(json_path) = flags.get("json") {
        if let Err(e) = std::fs::write(json_path, dashboard_json(tsdb, window, tenant)) {
            eprintln!("cannot write {json_path}: {e}");
            std::process::exit(2);
        }
        eprintln!("json dashboard written to {json_path}");
    }
}

/// How many trailing windows a sparkline covers.
const SPARK_WINDOWS: u64 = 24;

/// Sparkline over the last [`SPARK_WINDOWS`] windows ending at `latest`:
/// `·` for an empty window, otherwise one of eight block heights scaled
/// against the series' own maximum in the shown range.
fn sparkline(series: &obskit::tsdb::Series, latest: u64) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = (latest + 1).saturating_sub(SPARK_WINDOWS);
    let mut counts = vec![0u64; (latest - lo + 1) as usize];
    for w in series.windows() {
        if w.win >= lo && w.win <= latest {
            counts[(w.win - lo) as usize] = w.count;
        }
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                '·'
            } else {
                // 1..=max scales to block 0..=7, top value always full.
                BLOCKS[((c * 8).div_ceil(max.max(1)).max(1) - 1).min(7) as usize]
            }
        })
        .collect()
}

/// Rows the dashboard shows: top-k series ranked by a deliberately
/// time-free key (total observations over all retained windows, then
/// name) so the ranking never flaps with the clock.
fn dashboard_rows<'a>(
    tsdb: &'a obskit::tsdb::Tsdb,
    tenant: Option<&str>,
) -> Vec<&'a obskit::tsdb::Series> {
    let mut rows: Vec<&obskit::tsdb::Series> = tsdb
        .series()
        .filter(|s| tenant.is_none_or(|t| s.label("tenant") == Some(t)))
        .collect();
    rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.name().cmp(b.name())));
    rows.truncate(20);
    rows
}

fn render_dashboard(tsdb: &obskit::tsdb::Tsdb, window: u64, tenant: Option<&str>) -> String {
    use std::fmt::Write as _;
    let step_ms = obskit::tsdb::STEP_MS;
    let latest = tsdb.latest_window().unwrap_or(0);
    let earliest = tsdb.earliest_window().unwrap_or(latest);
    let mut out = String::new();
    out.push_str("# tsdb dashboard\n\n");
    out.push_str("| param | value |\n|---|---|\n");
    let _ = writeln!(out, "| step | {step_ms} ms |");
    let _ = writeln!(out, "| series | {} |", tsdb.series_count());
    let _ = writeln!(
        out,
        "| windows | {}..{} (span {} ms) |",
        earliest,
        latest,
        (latest - earliest + 1) * step_ms
    );
    let _ = writeln!(
        out,
        "| stats window | last {} windows ({} ms) |",
        window,
        window * step_ms
    );
    if let Some(t) = tenant {
        let _ = writeln!(out, "| tenant filter | {t} |");
    }
    let _ = writeln!(out, "| overflow | {} |", tsdb.overflow());
    let _ = writeln!(out, "| dropped late | {} |", tsdb.dropped_late());
    out.push('\n');
    out.push_str("## top series (by total over all retained windows)\n\n");
    let _ = writeln!(
        out,
        "| series | total | rate/s | p50 | p99 | last {SPARK_WINDOWS} windows | exemplar |"
    );
    out.push_str("|---|---|---|---|---|---|---|\n");
    for s in dashboard_rows(tsdb, tenant) {
        let rate =
            s.windowed_count(window, latest) as f64 / (window as f64 * step_ms as f64 / 1000.0);
        let (p50, p99) = if s.is_hist() {
            let h = s.merged(window, latest);
            if h.count() > 0 {
                (h.p50().to_string(), h.p99().to_string())
            } else {
                ("-".to_string(), "-".to_string())
            }
        } else {
            ("-".to_string(), "-".to_string())
        };
        let ex = s
            .exemplar(window, latest)
            .or_else(|| s.best_exemplar())
            .map(|e| format!("req={} ({})", e.request_id, e.value))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "| `{}` | {} | {rate:.2} | {p50} | {p99} | {} | {ex} |",
            s.name(),
            s.total(),
            sparkline(s, latest)
        );
    }
    out
}

fn dashboard_json(tsdb: &obskit::tsdb::Tsdb, window: u64, tenant: Option<&str>) -> String {
    use std::fmt::Write as _;
    let step_ms = obskit::tsdb::STEP_MS;
    let latest = tsdb.latest_window().unwrap_or(0);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"step_ms\":{},\"series\":{},\"window\":{},\"overflow\":{},\"dropped_late\":{},\"rows\":[",
        step_ms,
        tsdb.series_count(),
        window,
        tsdb.overflow(),
        tsdb.dropped_late()
    );
    for (i, s) in dashboard_rows(tsdb, tenant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let rate =
            s.windowed_count(window, latest) as f64 / (window as f64 * step_ms as f64 / 1000.0);
        let _ = write!(
            out,
            "{{\"series\":\"{}\",\"total\":{},\"rate_per_s\":{rate:.4}",
            obskit::json_escape(s.name()),
            s.total()
        );
        if s.is_hist() {
            let h = s.merged(window, latest);
            if h.count() > 0 {
                let _ = write!(out, ",\"p50\":{},\"p99\":{}", h.p50(), h.p99());
            }
        }
        if let Some(e) = s.exemplar(window, latest).or_else(|| s.best_exemplar()) {
            let _ = write!(
                out,
                ",\"exemplar\":{{\"request_id\":{},\"value\":{}}}",
                e.request_id, e.value
            );
        }
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

// ---- select-bench: retrieval fast path vs naive reference ----

/// Vocabulary for the synthetic question pool. Questions share openers,
/// nouns and qualifiers the way real benchmark questions do, so embeddings
/// collide and near-tie exactly where the top-k tie-breaking matters.
const SB_OPENERS: &[&str] = &[
    "how many",
    "list the",
    "what is the",
    "show the",
    "count the",
    "which",
    "find the",
    "return the",
];
const SB_NOUNS: &[&str] = &[
    "singers",
    "stadiums",
    "concerts",
    "albums",
    "students",
    "courses",
    "flights",
    "airports",
    "orders",
    "products",
    "employees",
    "departments",
    "matches",
    "teams",
    "players",
    "books",
    "authors",
    "cities",
    "countries",
    "rivers",
    "hospitals",
    "patients",
    "doctors",
    "visits",
];
const SB_QUALS: &[&str] = &[
    "are there",
    "with the highest capacity",
    "grouped by city",
    "ordered by name",
    "for each year",
    "above the average age",
    "in each region",
    "sorted by total sales",
    "younger than 30",
    "with more than 5 entries",
];

fn sb_question(rng: &mut rand::rngs::StdRng) -> String {
    use rand::seq::SliceRandom;
    format!(
        "{} {} {}",
        SB_OPENERS.choose(rng).unwrap(),
        SB_NOUNS.choose(rng).unwrap(),
        SB_QUALS.choose(rng).unwrap(),
    )
}

/// Fold a selection's indices into a running FNV-1a checksum, so the
/// report carries a compact fingerprint of *which* examples were picked.
fn sb_checksum(mut h: u64, picks: &[(f32, u32)]) -> u64 {
    for &(_, idx) in picks {
        for b in idx.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// The committed naive reference: one allocated embedding per row, `f64`
/// iterator cosine, full stable sort — the exact shape of the selector
/// before retrievekit. `select-bench` times the fast path against this
/// and `scripts/check.sh` gates the speedup.
fn sb_naive_select(
    rows: &[textkit::Embedding],
    n: usize,
    query: &textkit::Embedding,
    k: usize,
) -> Vec<(f64, usize)> {
    let mut scored: Vec<(f64, usize)> = rows[..n]
        .iter()
        .enumerate()
        .map(|(i, r)| (r.cosine(query), i))
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
}

/// Benchmark retrievekit's selection fast path against the naive
/// reference on a seeded synthetic pool. Every selection is hard-checked
/// against the full-sort oracle (exit 1 on any mismatch); with
/// `--no-timing` the report contains no wall-clock numbers and is
/// byte-identical across machines and `DAIL_THREADS` settings.
fn select_bench(flags: &HashMap<String, String>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrievekit::{full_sort, top_k_cosine, EmbeddingMatrix, SparseMatrix};
    use std::fmt::Write as _;
    use textkit::{embed, embed_into, DIM};

    if flags.contains_key("pool-rows") {
        // The ANN sweep is a separate report: it measures approximate
        // retrieval against the exact scan, while this legacy path gates
        // the exact fast path against the committed naive reference and
        // must stay byte-identical to pre-IVF builds.
        return select_bench_sweep(flags);
    }

    let pool_n: usize = num_flag(flags, "pool", 10_000usize).max(1);
    let queries_n: usize = num_flag(flags, "queries", 50usize).max(1);
    let k: usize = 8;
    let seed: u64 = num_flag(flags, "seed", 2023u64);
    let timing = !flags.contains_key("no-timing");
    let json_path = flags.get("json");
    if json_path.is_some() && !timing {
        eprintln!("--json needs wall-clock numbers; drop --no-timing");
        std::process::exit(2);
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<String> = (0..pool_n).map(|_| sb_question(&mut rng)).collect();
    let targets: Vec<String> = (0..queries_n).map(|_| sb_question(&mut rng)).collect();

    // Build every index shape once, outside any timed region: the sparse
    // rows the fast path scans, the dense oracle and the naive rows.
    let mut matrix = SparseMatrix::with_capacity(DIM, pool_n);
    let mut dense = EmbeddingMatrix::with_capacity(DIM, pool_n);
    let mut row = vec![0f32; DIM];
    for q in &pool {
        embed_into(q, &mut row);
        matrix.push_row(&row);
        dense.push_row(&row);
    }
    let naive_rows: Vec<textkit::Embedding> = pool.iter().map(|q| embed(q)).collect();

    // Correctness sweep: the fast path must equal the full-sort oracle
    // over the dense rows on every query (hard gate), and we report its
    // agreement with the f64 naive reference (informational — `f32`
    // accumulation is allowed to diverge below 1e-5, which in practice
    // never reorders a selection).
    let mut checksum = 0xcbf29ce484222325u64;
    let mut naive_agree = 0usize;
    let mut qbuf = vec![0f32; DIM];
    for (qi, t) in targets.iter().enumerate() {
        embed_into(t, &mut qbuf);
        let fast = top_k_cosine(&matrix, &qbuf, pool_n, k);
        let oracle = full_sort(dense.scores(&qbuf, 0, pool_n), k);
        if fast != oracle {
            eprintln!("FATAL: query {qi} fast path disagrees with full-sort oracle");
            eprintln!("  fast:   {fast:?}");
            eprintln!("  oracle: {oracle:?}");
            std::process::exit(1);
        }
        let naive = sb_naive_select(&naive_rows, pool_n, &embed(t), k);
        if fast
            .iter()
            .map(|&(_, i)| i as usize)
            .eq(naive.iter().map(|&(_, i)| i))
        {
            naive_agree += 1;
        }
        checksum = sb_checksum(checksum, &fast);
    }

    // Throughput trajectory over pool-size prefixes (the full pool last —
    // its point is the headline speedup the CI floor gates on).
    struct Point {
        rows: usize,
        fast_qps: f64,
        naive_qps: f64,
    }
    let mut points: Vec<Point> = Vec::new();
    if timing {
        for denom in [8usize, 4, 2, 1] {
            let rows = (pool_n / denom).max(1);
            let t0 = std::time::Instant::now();
            for t in &targets {
                embed_into(t, &mut qbuf);
                std::hint::black_box(top_k_cosine(&matrix, &qbuf, rows, k));
            }
            let fast_s = t0.elapsed().as_secs_f64();
            let t0 = std::time::Instant::now();
            for t in &targets {
                std::hint::black_box(sb_naive_select(&naive_rows, rows, &embed(t), k));
            }
            let naive_s = t0.elapsed().as_secs_f64();
            points.push(Point {
                rows,
                fast_qps: queries_n as f64 / fast_s.max(1e-9),
                naive_qps: queries_n as f64 / naive_s.max(1e-9),
            });
        }
    }
    let speedup = points.last().map(|p| p.fast_qps / p.naive_qps.max(1e-9));

    let mut md = String::new();
    let _ = writeln!(md, "# select-bench report\n");
    let _ = writeln!(md, "| param | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| pool | {pool_n} |");
    let _ = writeln!(md, "| queries | {queries_n} |");
    let _ = writeln!(md, "| k | {k} |");
    let _ = writeln!(md, "| seed | {seed} |");
    let _ = writeln!(md, "| dim | {DIM} |");
    let _ = writeln!(md);
    let _ = writeln!(md, "## selection equivalence\n");
    let _ = writeln!(md, "| check | result |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(
        md,
        "| full-sort oracle | {queries_n}/{queries_n} identical |"
    );
    let _ = writeln!(
        md,
        "| naive f64 reference | {naive_agree}/{queries_n} identical |"
    );
    let _ = writeln!(md, "| selection checksum | {checksum:#018x} |");
    let _ = writeln!(md);
    let _ = writeln!(md, "## throughput\n");
    let _ = writeln!(md, "| pool rows | naive q/s | fast q/s | speedup |");
    let _ = writeln!(md, "|---|---|---|---|");
    if timing {
        for p in &points {
            let _ = writeln!(
                md,
                "| {} | {:.1} | {:.1} | {:.2}x |",
                p.rows,
                p.naive_qps,
                p.fast_qps,
                p.fast_qps / p.naive_qps.max(1e-9)
            );
        }
    } else {
        for denom in [8usize, 4, 2, 1] {
            let _ = writeln!(md, "| {} | - | - | - |", (pool_n / denom).max(1));
        }
    }
    print!("{md}");

    if let Some(path) = json_path {
        let speedup = speedup.expect("timing enabled when --json is set");
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"pool\":{pool_n},\"queries\":{queries_n},\"k\":{k},\"seed\":{seed},\
             \"checksum\":\"{checksum:#018x}\",\"speedup_vs_naive\":{speedup:.3},\"points\":["
        );
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                let _ = write!(json, ",");
            }
            let _ = write!(
                json,
                "{{\"pool\":{},\"naive_qps\":{:.1},\"fast_qps\":{:.1}}}",
                p.rows, p.naive_qps, p.fast_qps
            );
        }
        let _ = writeln!(json, "]}}");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("throughput points written to {path}");
    }
}

/// Question generator for the ANN sweep. The legacy `sb_question`
/// vocabulary yields only 8×24×10 = 1,920 distinct strings, so a
/// million-row pool would hold ~520 exact copies of every question and
/// recall@k would be trivially 1.0. Suffixing one of 97 regions multiplies
/// the distinct count to ~186k while keeping the distribution realistic
/// for ANN: questions sharing a base differ only in the region trigrams,
/// giving dense near-duplicate neighborhoods instead of orthogonal rows.
fn sb_question_region(rng: &mut rand::rngs::StdRng) -> String {
    use rand::Rng;
    let base = sb_question(rng);
    format!("{base} in region {}", rng.gen_range(0u32..97))
}

/// ANN retrieval sweep (`select-bench --pool-rows N[,N...]`): for each
/// pool size, measure the exact sharded scan of the sparse rows, then IVF
/// retrieval — recall@k against the exact scan, training cost, and
/// throughput. `scripts/check.sh` gates recall ≥ 0.99 and a ≥5× speedup
/// at the 1M-row point from the `--json` output. With `--no-timing` the
/// report carries no wall-clock numbers and is byte-identical across
/// machines and `DAIL_THREADS` settings (the CLI test
/// `select_sweep_matches_golden_at_every_thread_count` holds a 20k-row
/// report to a committed golden).
fn select_bench_sweep(flags: &HashMap<String, String>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use retrievekit::{top_k_cosine, IvfIndex, IvfParams, SparseMatrix};
    use std::fmt::Write as _;
    use textkit::{embed_into, DIM};

    let raw_sizes = flags.get("pool-rows").expect("dispatch checked the flag");
    let mut sizes: Vec<usize> = Vec::new();
    for part in raw_sizes.split(',') {
        match part.trim().parse::<usize>() {
            Ok(n) if n > 0 => sizes.push(n),
            _ => {
                eprintln!("--pool-rows wants positive integers (comma-separated), got {part:?}");
                std::process::exit(2);
            }
        }
    }
    let queries_n: usize = num_flag(flags, "queries", 20usize).max(1);
    let k: usize = 8;
    let seed: u64 = num_flag(flags, "seed", 2023u64);
    let timing = !flags.contains_key("no-timing");
    let json_path = flags.get("json");
    if json_path.is_some() && !timing {
        eprintln!("--json needs wall-clock numbers; drop --no-timing");
        std::process::exit(2);
    }

    let max_n = *sizes.iter().max().expect("sizes is non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    eprintln!("building {max_n}-row pool...");
    let mut matrix = SparseMatrix::with_capacity(DIM, max_n);
    let mut row = vec![0f32; DIM];
    for _ in 0..max_n {
        embed_into(&sb_question_region(&mut rng), &mut row);
        matrix.push_row(&row);
    }
    let targets: Vec<String> = (0..queries_n)
        .map(|_| sb_question_region(&mut rng))
        .collect();
    let mut target_rows = vec![0f32; queries_n * DIM];
    for (t, chunk) in targets.iter().zip(target_rows.chunks_exact_mut(DIM)) {
        embed_into(t, chunk);
    }

    struct Point {
        pool: usize,
        mode: &'static str,
        clusters: Option<usize>,
        probe: Option<usize>,
        recall: Option<f64>,
        train_ms: Option<f64>,
        qps: Option<f64>,
        speedup: Option<f64>,
        checksum: u64,
    }
    let mut points: Vec<Point> = Vec::new();

    for &n in &sizes {
        let k_eff = k.min(n);
        eprintln!("pool {n}: exact baseline...");
        let t0 = std::time::Instant::now();
        let exact: Vec<Vec<(f32, u32)>> = target_rows
            .chunks_exact(DIM)
            .map(|q| top_k_cosine(&matrix, q, n, k))
            .collect();
        let exact_s = t0.elapsed().as_secs_f64();
        let exact_qps = queries_n as f64 / exact_s.max(1e-9);
        let mut checksum = 0xcbf29ce484222325u64;
        for picks in &exact {
            checksum = sb_checksum(checksum, picks);
        }
        points.push(Point {
            pool: n,
            mode: "exact",
            clusters: None,
            probe: None,
            recall: None,
            train_ms: None,
            qps: timing.then_some(exact_qps),
            speedup: None,
            checksum,
        });

        eprintln!("pool {n}: training ivf index...");
        let t0 = std::time::Instant::now();
        let index = IvfIndex::train(&matrix, n, &IvfParams::default());
        let train_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t0 = std::time::Instant::now();
        let approx: Vec<Vec<(f32, u32)>> = target_rows
            .chunks_exact(DIM)
            .map(|q| index.search(q, k).0)
            .collect();
        let approx_s = t0.elapsed().as_secs_f64();
        let qps = queries_n as f64 / approx_s.max(1e-9);
        let mut hit = 0usize;
        let mut checksum = 0xcbf29ce484222325u64;
        for (got, want) in approx.iter().zip(&exact) {
            hit += got
                .iter()
                .filter(|(_, id)| want.iter().any(|&(_, w)| w == *id))
                .count();
            checksum = sb_checksum(checksum, got);
        }
        let recall = hit as f64 / (queries_n * k_eff) as f64;
        points.push(Point {
            pool: n,
            mode: "ivf",
            clusters: Some(index.n_clusters()),
            probe: Some(index.n_probe()),
            recall: Some(recall),
            train_ms: timing.then_some(train_ms),
            qps: timing.then_some(qps),
            speedup: timing.then_some(qps / exact_qps.max(1e-9)),
            checksum,
        });
    }

    let opt = |v: Option<f64>, fmt: fn(f64) -> String| match v {
        Some(x) => fmt(x),
        None => "-".to_string(),
    };
    let mut md = String::new();
    let _ = writeln!(md, "# select-bench report (ANN sweep)\n");
    let _ = writeln!(md, "| param | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| pool rows | {raw_sizes} |");
    let _ = writeln!(md, "| queries | {queries_n} |");
    let _ = writeln!(md, "| k | {k} |");
    let _ = writeln!(md, "| seed | {seed} |");
    let _ = writeln!(md, "| dim | {DIM} |");
    let _ = writeln!(md);
    let _ = writeln!(md, "## ann trajectory\n");
    let _ = writeln!(
        md,
        "| pool rows | mode | clusters | probe | recall@k | train ms | q/s | speedup vs exact |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    for p in &points {
        let _ = writeln!(
            md,
            "| {} | {} | {} | {} | {} | {} | {} | {} |",
            p.pool,
            p.mode,
            p.clusters.map_or("-".into(), |c: usize| c.to_string()),
            p.probe.map_or("-".into(), |c: usize| c.to_string()),
            p.recall
                .map_or("1.0000 (oracle)".into(), |r| format!("{r:.4}")),
            opt(p.train_ms, |x| format!("{x:.1}")),
            opt(p.qps, |x| format!("{x:.1}")),
            opt(p.speedup, |x| format!("{x:.2}x")),
        );
    }
    let _ = writeln!(md);
    let _ = writeln!(md, "## selection checksums\n");
    let _ = writeln!(md, "| pool rows | mode | checksum |");
    let _ = writeln!(md, "|---|---|---|");
    for p in &points {
        let _ = writeln!(md, "| {} | {} | {:#018x} |", p.pool, p.mode, p.checksum);
    }
    print!("{md}");

    if let Some(path) = json_path {
        // One point per line so shell gates can grep a mode's fields
        // without a JSON parser.
        let mut json = String::new();
        let _ = writeln!(
            json,
            "{{\"queries\":{queries_n},\"k\":{k},\"seed\":{seed},\"dim\":{DIM},\"points\":["
        );
        for (i, p) in points.iter().enumerate() {
            let sep = if i + 1 == points.len() { "" } else { "," };
            let mut line = format!("{{\"pool\":{},\"mode\":\"{}\"", p.pool, p.mode);
            if let Some(r) = p.recall {
                let _ = write!(line, ",\"recall_at_k\":{r:.4}");
            }
            if let Some(t) = p.train_ms {
                let _ = write!(line, ",\"train_ms\":{t:.1}");
            }
            if let Some(q) = p.qps {
                let _ = write!(line, ",\"qps\":{q:.1}");
            }
            if let Some(s) = p.speedup {
                let _ = write!(line, ",\"speedup_vs_exact\":{s:.3}");
            }
            let _ = write!(line, ",\"checksum\":\"{:#018x}\"}}", p.checksum);
            let _ = writeln!(json, "{line}{sep}");
        }
        let _ = writeln!(json, "]}}");
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("ann sweep points written to {path}");
    }
}

fn run_experiments(flags: &HashMap<String, String>) {
    let Some(id) = flags.get("experiment") else {
        eprintln!(
            "run-experiments requires --experiment ID (one of {} / {})",
            ExperimentRunner::ALL_IDS.join(", "),
            ExperimentRunner::ABLATION_IDS.join(", ")
        );
        std::process::exit(2);
    };
    let known = ExperimentRunner::ALL_IDS.contains(&id.as_str())
        || ExperimentRunner::ABLATION_IDS.contains(&id.as_str());
    if !known {
        eprintln!(
            "unknown experiment {id}; known ids: {} / {}",
            ExperimentRunner::ALL_IDS.join(", "),
            ExperimentRunner::ABLATION_IDS.join(", ")
        );
        std::process::exit(2);
    }
    let trace = setup_trace(flags);
    let scale = Scale {
        dev_cap: num_flag(flags, "dev-cap", 24usize),
        full_grid: false,
    };
    let seed = num_flag(flags, "seed", 2023u64);
    let bench = bench_from_flags(flags);
    let runner = ExperimentRunner::new(&bench, scale, seed);
    for table in runner.run_experiment(id) {
        println!("{}", table.to_markdown());
    }
    finish_trace(trace);
}

/// Load a trace leniently: unreadable files and traces with no intact
/// events exit 2; damaged lines (a crashed run's truncated tail, stray
/// garbage) are skipped with a warning so partial traces still render.
fn load_trace(path: &str) -> Vec<obskit::Event> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let (events, warnings) = obskit::parse_jsonl_lossy(&text);
    // A damaged trace also carries one synthetic skipped-lines counter; a
    // trace with no *real* event left (empty, blank, or every line
    // skipped) is unusable, and diffing against it would pass any gate.
    if events.len() == usize::from(!warnings.is_empty()) {
        match warnings.first() {
            Some(w) => eprintln!("invalid trace {path}: {w}"),
            None => eprintln!("empty trace {path}: no events"),
        }
        std::process::exit(2);
    }
    for w in &warnings {
        eprintln!("warning: {path}: skipped {w}");
    }
    if !warnings.is_empty() {
        eprintln!(
            "warning: {path}: {} line(s) skipped (counted as {})",
            warnings.len(),
            obskit::SKIPPED_LINES_COUNTER
        );
    }
    events
}

fn profile_trace(positional: &[&String], flags: &HashMap<String, String>) {
    match positional {
        [] => {
            eprintln!(
                "profile requires a trace file: dail_sql_cli profile TRACE.jsonl \
                 (or two files to diff them)"
            );
            std::process::exit(2);
        }
        [path] => print!(
            "{}",
            obskit::Profile::from_events(&load_trace(path)).to_markdown()
        ),
        [base_path, new_path] => {
            let base = obskit::Profile::from_events(&load_trace(base_path));
            let new = obskit::Profile::from_events(&load_trace(new_path));
            let diff = obskit::ProfileDiff::between(&base, &new);
            print!("{}", diff.to_markdown());
            if let Some(raw) = flags.get("fail-on-regress") {
                let threshold: f64 = match raw.parse() {
                    Ok(t) if t >= 0.0 => t,
                    _ => {
                        eprintln!(
                            "--fail-on-regress must be a non-negative percentage, got {raw:?}"
                        );
                        std::process::exit(2);
                    }
                };
                let regressed = diff.regressions(threshold);
                if !regressed.is_empty() {
                    for (stage, pct) in &regressed {
                        eprintln!("REGRESSION: stage {stage} self-time +{pct:.1}% (threshold {threshold}%)");
                    }
                    std::process::exit(1);
                }
                eprintln!("perf gate OK: no stage regressed beyond {threshold}%");
            }
        }
        more => {
            eprintln!("profile takes one or two trace files, got {}", more.len());
            std::process::exit(2);
        }
    }
}

fn flame_trace(positional: &[&String], flags: &HashMap<String, String>) {
    let [path] = positional else {
        eprintln!("flame requires a trace file: dail_sql_cli flame TRACE.jsonl [-o OUT.svg]");
        std::process::exit(2);
    };
    let flame = obskit::Profile::from_events(&load_trace(path)).flame;
    if flags.contains_key("folded") {
        print!("{}", flame.folded());
        return;
    }
    let svg = flame.to_svg();
    match flags.get("out") {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &svg) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(2);
            }
            eprintln!(
                "flamegraph written to {out} (wall {}, {} root frames)",
                obskit::fmt_ns(flame.wall_ns()),
                flame.root.children.len()
            );
        }
        None => print!("{svg}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A command's help entry with the shared groups spelled out:
    /// `[bench flags]`, and `[serve-bench flags]` (slo-report's).
    fn expanded_usage(c: &Command) -> String {
        let serve = COMMANDS.iter().find(|c| c.name == "serve-bench").unwrap();
        c.usage
            .replace("[serve-bench flags]", serve.usage)
            .replace("[bench flags]", BENCH_USAGE)
    }

    /// Does `text` name `--flag` whole (`--dev` is not `--dev-cap`)?
    fn names_flag(text: &str, flag: &str) -> bool {
        let needle = format!("--{flag}");
        text.match_indices(&needle).any(|(i, _)| {
            !text[i + needle.len()..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
        })
    }

    #[test]
    fn help_names_every_flag_a_command_reads() {
        for c in COMMANDS {
            let usage = expanded_usage(c);
            for flag in c.reads.iter().flat_map(|set| set.iter()) {
                assert!(
                    names_flag(&usage, flag),
                    "help for `{}` omits --{flag}: {usage}",
                    c.name
                );
            }
        }
        assert!(!names_flag("[--dev-cap N]", "dev"));
    }

    #[test]
    fn command_names_are_unique() {
        for (i, c) in COMMANDS.iter().enumerate() {
            assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "{}", c.name);
        }
    }
}
