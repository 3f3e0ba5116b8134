//! Integration tests for the `dail_sql_cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dail_sql_cli"))
}

#[test]
fn models_lists_the_zoo() {
    let out = cli().arg("models").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("gpt-4"));
    assert!(text.contains("llama-7b"));
    assert!(text.contains("vicuna-33b"));
    // Header row: one column per profile field shown.
    let header = text.lines().next().expect("non-empty output");
    for col in [
        "model", "tier", "align", "icl", "context", "$/1k in", "open",
    ] {
        assert!(header.contains(col), "missing column {col:?} in {header:?}");
    }
    // Every zoo row is aligned under the header.
    assert!(text.lines().count() >= 8, "{text}");
}

#[test]
fn ask_answers_a_question() {
    let out = cli()
        .args([
            "ask",
            "--question",
            "How many singers are there?",
            "--db",
            "concert_singer",
            "--train",
            "40",
            "--dev",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sql:"), "{text}");
    assert!(text.to_lowercase().contains("singer"), "{text}");
}

#[test]
fn eval_prints_a_summary() {
    let out = cli()
        .args([
            "eval",
            "--pipeline",
            "zero",
            "--model",
            "gpt-4",
            "--train",
            "60",
            "--dev",
            "15",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EX:"), "{text}");
    assert!(text.contains("valid:"), "{text}");
}

#[test]
fn generate_exports_files() {
    let dir = std::env::temp_dir().join("dail_cli_gen_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args([
            "generate",
            "--out",
            dir.to_str().unwrap(),
            "--train",
            "40",
            "--dev",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("train.jsonl").exists());
    assert!(dir.join("dev.jsonl").exists());
    assert!(dir.join("databases").read_dir().unwrap().count() > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_command_fails_with_usage() {
    // The retired serving commands are unknown too.
    for cmd in ["bogus", "serve-bench", "slo-report", "dashboard"] {
        let out = cli().arg(cmd).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        assert!(out.stdout.is_empty(), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command: {cmd}")), "{err}");
        assert!(err.contains("commands:"), "usage should follow: {err}");
    }
}

#[test]
fn missing_command_exits_2_with_usage() {
    let out = cli().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

#[test]
fn missing_required_argument_exits_2() {
    for args in [
        vec!["generate"],
        vec!["ask"],
        vec!["run-experiments"],
        vec!["profile"],
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn malformed_numeric_flag_exits_2() {
    let out = cli()
        .args(["eval", "--dev", "ten"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--dev"), "{err}");
}

#[test]
fn unknown_model_fails() {
    let out = cli()
        .args(["eval", "--model", "gpt-99"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_experiment_id_exits_2() {
    let out = cli()
        .args(["run-experiments", "--experiment", "e99"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}

#[test]
fn trace_then_profile_round_trips() {
    let trace = std::env::temp_dir().join("dail_cli_trace_test.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = cli()
        .args([
            "run-experiments",
            "--experiment",
            "a2",
            "--dev-cap",
            "6",
            "--train",
            "40",
            "--dev",
            "10",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    // Every line is valid JSONL and parses back into events.
    let events = obskit::parse_jsonl(&text).expect("valid trace");
    assert!(!events.is_empty());

    let out = cli()
        .args(["profile", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("PROFILE"), "{report}");
    assert!(report.contains("| stage |"), "{report}");
    assert!(report.contains("experiment.a2"), "{report}");
    assert!(report.contains("eval.items"), "{report}");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn profile_rejects_garbage_input() {
    let bad = std::env::temp_dir().join("dail_cli_bad_trace.jsonl");
    std::fs::write(&bad, "this is not json\n").unwrap();
    let out = cli()
        .args(["profile", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("line 1"));
    let _ = std::fs::remove_file(&bad);

    // A trace with no event at all, empty or blank, is unusable too: every
    // renderer rejects it, and diffing against it must not pass the gate
    // with every stage at -100%.
    let base = fixture("baseline_trace.jsonl");
    for (name, text) in [("empty", ""), ("blank", "\n  \n\t\n")] {
        let path = std::env::temp_dir().join(format!("dail_cli_{name}_trace.jsonl"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        for args in [
            vec!["profile", path],
            vec!["flame", path, "--folded"],
            vec!["metrics", path],
            vec!["profile", &base, path, "--fail-on-regress", "10"],
        ] {
            let out = cli().args(&args).output().expect("binary runs");
            assert_eq!(out.status.code(), Some(2), "{name}: {args:?}");
            assert!(out.stdout.is_empty(), "{name}: {args:?}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(err.contains("no events"), "{name}: {args:?}: {err}");
        }
        let _ = std::fs::remove_file(path);
    }
}

// ---- perf-regression gate: flame + profile diff ----

/// Absolute path of a committed trace fixture under `tests/golden/`.
fn fixture(name: &str) -> String {
    format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Assert that `actual` equals the committed `tests/golden/{name}` byte
/// for byte (`what` names the run in a failure), or rewrite the golden
/// when `DAIL_UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, what: &str, actual: &[u8]) {
    let path = fixture(name);
    if std::env::var("DAIL_UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read(&path).unwrap_or_else(|e| {
        panic!("golden {name} committed ({e}); regenerate with DAIL_UPDATE_GOLDEN=1")
    });
    assert!(
        actual == expected,
        "{what} drifted from tests/golden/{name}; if intended, regenerate with \
         DAIL_UPDATE_GOLDEN=1 cargo test -p bench. Got:\n{}",
        String::from_utf8_lossy(actual)
    );
}

#[test]
fn profile_diff_identical_pair_passes_the_gate() {
    let base = fixture("baseline_trace.jsonl");
    // The baseline's own profile, rendered by the CLI, is the golden.
    let out = cli()
        .args(["profile", &base])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_golden(
        "baseline_profile.md",
        "profile of the baseline",
        &out.stdout,
    );

    let out = cli()
        .args(["profile", &base, &base, "--fail-on-regress", "10"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PROFILE DIFF"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("perf gate OK"), "{err}");
}

#[test]
fn profile_diff_flags_the_injected_slowdown() {
    let out = cli()
        .args([
            "profile",
            &fixture("baseline_trace.jsonl"),
            &fixture("slowdown_trace.jsonl"),
            "--fail-on-regress",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("REGRESSION"), "{err}");
    assert!(err.contains("predict"), "{err}");
    // The report still prints, with the regressed stage's delta.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("+33.3"), "{text}");
}

#[test]
fn profile_diff_without_gate_is_report_only() {
    let out = cli()
        .args([
            "profile",
            &fixture("baseline_trace.jsonl"),
            &fixture("slowdown_trace.jsonl"),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("PROFILE DIFF"), "{text}");
    assert!(text.contains("predict"), "{text}");
}

#[test]
fn malformed_regress_threshold_exits_2() {
    let base = fixture("baseline_trace.jsonl");
    let out = cli()
        .args(["profile", &base, &base, "--fail-on-regress", "ten"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fail-on-regress"));
}

#[test]
fn profile_missing_file_exits_2() {
    let out = cli()
        .args(["profile", "/nonexistent/trace.jsonl"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn profile_three_files_exits_2() {
    let base = fixture("baseline_trace.jsonl");
    let out = cli()
        .args(["profile", &base, &base, &base])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn flame_writes_svg_with_wall_clock_root() {
    let svg_path = std::env::temp_dir().join("dail_cli_flame_test.svg");
    let _ = std::fs::remove_file(&svg_path);
    let out = cli()
        .args([
            "flame",
            &fixture("baseline_trace.jsonl"),
            "--out",
            svg_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("flamegraph written"));
    let svg = std::fs::read_to_string(&svg_path).expect("svg written");
    assert!(
        svg.contains("<svg"),
        "not an svg: {}",
        &svg[..80.min(svg.len())]
    );
    // The root frame spans exactly the fixture's 10ms wall-clock.
    assert!(
        svg.contains("data-name=\"all\" data-ns=\"10000000\""),
        "root frame must span the wall-clock"
    );

    // `-o` is shorthand for `--out` and produces the same bytes.
    let short_path = std::env::temp_dir().join("dail_cli_flame_test_short.svg");
    let _ = std::fs::remove_file(&short_path);
    let out = cli()
        .args([
            "flame",
            &fixture("baseline_trace.jsonl"),
            "-o",
            short_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(svg, std::fs::read_to_string(&short_path).unwrap());
    let _ = std::fs::remove_file(&svg_path);
    let _ = std::fs::remove_file(&short_path);
}

#[test]
fn flame_folded_matches_committed_golden() {
    let out = cli()
        .args(["flame", &fixture("baseline_trace.jsonl"), "--folded"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let expected = std::fs::read_to_string(fixture("baseline_trace.folded")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
}

#[test]
fn flame_requires_a_trace_file() {
    let out = cli().arg("flame").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn truncated_trace_warns_but_still_renders() {
    // A partial trace: the full baseline plus a line chopped mid-object,
    // as left behind by a crashed or still-running producer.
    let partial = std::env::temp_dir().join("dail_cli_partial_trace.jsonl");
    let mut text = std::fs::read_to_string(fixture("baseline_trace.jsonl")).unwrap();
    text.push_str("{\"ev\":\"span_start\",\"id\":99,\"par\n");
    std::fs::write(&partial, &text).unwrap();

    let out = cli()
        .args(["profile", partial.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("skipped"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("| stage |"));

    // The flamegraph of the intact events is unchanged by the junk line.
    let out = cli()
        .args(["flame", partial.to_str().unwrap(), "--folded"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let expected = std::fs::read_to_string(fixture("baseline_trace.folded")).unwrap();
    assert_eq!(String::from_utf8_lossy(&out.stdout), expected);
    let _ = std::fs::remove_file(&partial);
}

#[test]
fn eval_is_deterministic_across_dail_threads() {
    let run = |threads: &str| {
        let trace = std::env::temp_dir().join(format!("dail_cli_det_{threads}.jsonl"));
        let _ = std::fs::remove_file(&trace);
        let out = cli()
            .env("DAIL_THREADS", threads)
            .args([
                "eval",
                "--pipeline",
                "zero",
                "--model",
                "gpt-4",
                "--train",
                "40",
                "--dev",
                "10",
                "--trace",
                trace.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let _ = std::fs::remove_file(&trace);
        // Two kinds of events legitimately vary run to run: the thread-count
        // gauge (reporting it is its whole job) and latency histograms,
        // whose observations are real wall-clock samples. Histograms are
        // still checked below by name and observation count.
        let mut hist_counts: Vec<(String, u64)> = Vec::new();
        let events: Vec<obskit::Event> = obskit::parse_jsonl(&text)
            .expect("valid trace")
            .into_iter()
            .filter(|e| match e {
                obskit::Event::Histogram { name, count, .. } => {
                    hist_counts.push((name.clone(), *count));
                    false
                }
                other => other.name() != "eval.threads",
            })
            .collect();
        (out.stdout, obskit::canonical_jsonl(&events), hist_counts)
    };
    let (stdout1, trace1, hists1) = run("1");
    let (stdout4, trace4, hists4) = run("4");
    // Same report on stdout, same canonicalised trace on disk, and the same
    // number of observations in every latency histogram.
    assert_eq!(
        String::from_utf8_lossy(&stdout1),
        String::from_utf8_lossy(&stdout4)
    );
    assert_eq!(trace1, trace4);
    assert!(!trace1.is_empty());
    assert_eq!(hists1, hists4);
    assert!(!hists1.is_empty());
}

// ---- trace trees and exposition ----

/// `id -> (name, parent)` for every span in a trace.
fn span_index(events: &[obskit::Event]) -> std::collections::HashMap<u64, (String, Option<u64>)> {
    let mut idx = std::collections::HashMap::new();
    for e in events {
        if let obskit::Event::SpanStart {
            id, parent, name, ..
        } = e
        {
            idx.insert(*id, (name.clone(), *parent));
        }
    }
    idx
}

/// Walk parent links from `id` until a span named `target` (returning its
/// id) or the root. Panics on a broken link or a cycle.
fn ancestor_named(
    idx: &std::collections::HashMap<u64, (String, Option<u64>)>,
    mut id: u64,
    target: &str,
) -> Option<u64> {
    for _ in 0..idx.len() + 1 {
        let (name, parent) = idx.get(&id).expect("parent link resolves");
        if name == target {
            return Some(id);
        }
        match parent {
            Some(p) => id = *p,
            None => return None,
        }
    }
    panic!("cycle while walking ancestors of span {id}");
}

#[test]
fn metrics_exposition_matches_golden_and_parses() {
    let run = |threads: &str| {
        let out = cli()
            .env("DAIL_THREADS", threads)
            .args(["metrics", &fixture("baseline_trace.jsonl")])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run("1");
    let b = run("4");
    assert_eq!(a, b, "exposition must not depend on DAIL_THREADS");
    assert_eq!(a, run("1"), "exposition must be stable across runs");

    let text = String::from_utf8_lossy(&a).to_string();
    let families = obskit::expo::parse(&text).expect("exposition passes the mini-parser");
    assert!(!families.is_empty());
    assert_golden("metrics_expo.txt", "metrics exposition", &a);
}

#[test]
fn metrics_requires_a_trace_file() {
    let out = cli().arg("metrics").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args(["metrics", "/nonexistent/trace.jsonl"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

// ---- eval harness: DAIL_THREADS handling ----

#[test]
fn unparsable_dail_threads_warns_and_falls_back() {
    let out = cli()
        .env("DAIL_THREADS", "=all")
        .args([
            "eval",
            "--pipeline",
            "zero",
            "--model",
            "gpt-4",
            "--train",
            "40",
            "--dev",
            "8",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "unparsable DAIL_THREADS must not abort the run: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("DAIL_THREADS") && err.contains("=all"),
        "stderr must name the rejected value: {err}"
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("EX:"),
        "eval still completes"
    );
}

// ---- explain / stats / digests ----

/// The committed golden explain invocation: canonical ANALYZE plan for a
/// join + group query.
fn explain_cmd_golden() -> Command {
    let mut c = cli();
    c.args([
        "explain",
        "concert_singer",
        "SELECT T1.country, count(*) FROM singer AS T1 JOIN concert AS T2 \
         ON T1.singer_id = T2.singer_id WHERE T2.year > 2015 \
         GROUP BY T1.country ORDER BY count(*) DESC LIMIT 3",
        "--analyze",
        "--canonical",
        "--train",
        "40",
        "--dev",
        "10",
    ]);
    c
}

#[test]
fn explain_matches_golden_plan() {
    let out = explain_cmd_golden().output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8_lossy(&out.stdout);
    // Structural sanity before the byte comparison.
    for needle in [
        "exec",
        "scan singer as t1",
        "join on",
        "group by",
        "total self-time: 0ns",
    ] {
        assert!(actual.contains(needle), "missing {needle:?} in:\n{actual}");
    }
    assert_golden("explain_plan.txt", "explain plan", &out.stdout);
}

/// Uncorrelated subqueries run once per statement (`calls=1`, one scan of
/// `concert` and one of `singer`); the correlated EXISTS runs once for each
/// outer row that reaches it.
#[test]
fn explain_subquery_matches_golden_plan() {
    let out = cli()
        .args([
            "explain",
            "concert_singer",
            "SELECT name FROM singer AS S WHERE singer_id IN \
             (SELECT singer_id FROM concert WHERE year > 2015) \
             AND age > (SELECT avg(age) FROM singer) \
             AND EXISTS (SELECT 1 FROM concert AS C WHERE C.singer_id = S.singer_id)",
            "--analyze",
            "--canonical",
            "--train",
            "40",
            "--dev",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_golden("explain_subquery.txt", "explain subquery plan", &out.stdout);
}

#[test]
fn explain_analyze_is_byte_identical_across_thread_counts() {
    let run = |threads: &str| {
        let out = explain_cmd_golden()
            .env("DAIL_THREADS", threads)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(
        run("1"),
        run("4"),
        "canonical ANALYZE output must not depend on DAIL_THREADS"
    );
}

#[test]
fn explain_without_analyze_prints_estimates_only() {
    let out = cli()
        .args([
            "explain",
            "concert_singer",
            "SELECT name FROM singer WHERE age > 40",
            "--train",
            "40",
            "--dev",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("est="), "{text}");
    assert!(
        !text.contains("act="),
        "no actuals without --analyze: {text}"
    );
    assert!(!text.contains("total self-time"), "{text}");
}

#[test]
fn explain_analyze_surfaces_near_miss_column_suggestions() {
    let out = cli()
        .args([
            "explain",
            "concert_singer",
            "SELECT nmae FROM singer",
            "--analyze",
            "--train",
            "40",
            "--dev",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("did you mean singer.name?"),
        "unknown-column errors should suggest the near miss: {err}"
    );
}

#[test]
fn stats_prints_database_jsonl() {
    let out = cli()
        .args(["stats", "concert_singer", "--train", "40", "--dev", "10"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"db\":\"concert_singer\""), "{text}");
    assert!(text.contains("\"ndv\""), "{text}");
}

/// `eval` of DAIL-SQL on gpt-4 over the seed-7 benchmark with 60 training
/// and 24 dev items, plus `extra` flags.
fn eval_dail_cmd(extra: &[&str]) -> Command {
    let mut c = cli();
    c.args([
        "eval",
        "--pipeline",
        "dail",
        "--model",
        "gpt-4",
        "--seed",
        "7",
        "--train",
        "60",
        "--dev",
        "24",
    ]);
    c.args(extra);
    c
}

/// Stdout of a successful run.
fn stdout_of(mut c: Command) -> Vec<u8> {
    let out = c.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn eval_digests_flag_appends_the_rollup() {
    let mut zero = cli();
    zero.args([
        "eval",
        "--pipeline",
        "zero",
        "--model",
        "gpt-4",
        "--train",
        "40",
        "--dev",
        "10",
        "--digests",
        "3",
        "--canonical",
    ]);
    let text = String::from_utf8(stdout_of(zero)).unwrap();
    assert!(text.contains("EX:"), "summary still prints: {text}");
    assert!(
        text.contains("## Query digests (top 3 by rows scanned)"),
        "{text}"
    );

    // Scoring through the analyzed executor is passive: `--digests` only
    // appends its rollup and never changes a summary byte.
    let plain = stdout_of(eval_dail_cmd(&[]));
    let analyzed = stdout_of(eval_dail_cmd(&["--digests"]));
    assert!(
        analyzed.len() > plain.len() && analyzed.starts_with(&plain),
        "--digests must only append its rollup, never change a report byte"
    );

    // The canonical rollup is byte-stable, and its skeletons mask every
    // table and column name (all lowercase in the generated schemas).
    let canonical =
        || String::from_utf8(stdout_of(eval_dail_cmd(&["--digests", "5", "--canonical"]))).unwrap();
    let a = canonical();
    assert!(
        a.contains("## Query digests (top 5 by rows scanned)"),
        "{a}"
    );
    assert!(a.contains("distinct shapes."), "{a}");
    let skeletons: Vec<&str> = a
        .lines()
        .filter(|l| l.starts_with("| ") && l.ends_with("` |"))
        .filter_map(|l| l.split('`').nth(1))
        .collect();
    assert_eq!(skeletons.len(), 5, "{a}");
    for skel in skeletons {
        assert!(
            !skel.contains(|c: char| c.is_ascii_lowercase()),
            "skeletons are masked: {skel}"
        );
    }
    assert_eq!(a, canonical(), "canonical digest section is byte-stable");
}

#[test]
fn eval_digests_trace_nests_exec_spans_under_their_item() {
    // `--digests` scores through the analyzed executor, which records a
    // storage.exec span into whatever recorder its thread has entered.
    // Each eval worker must enter its own buffer, so the span nests under
    // the item's eval.execution span, inside its score span, and lands at
    // the same place in every run.
    let run = |tag: &str, extra: &[&str]| {
        let trace = std::env::temp_dir().join(format!("dail_cli_eval_exec_{tag}.jsonl"));
        let _ = std::fs::remove_file(&trace);
        let mut args = vec![
            "eval",
            "--pipeline",
            "dail",
            "--model",
            "gpt-4",
            "--train",
            "40",
            "--dev",
            "12",
            "--threads",
            "2",
            // Zeroes the digest table's wall-clock column.
            "--canonical",
        ];
        args.extend_from_slice(extra);
        let traced = {
            let mut c = cli();
            c.args(&args).args(["--trace", trace.to_str().unwrap()]);
            stdout_of(c)
        };
        // Telemetry never changes a reported byte.
        let mut untraced = cli();
        untraced.args(&args);
        assert_eq!(
            String::from_utf8_lossy(&traced),
            String::from_utf8_lossy(&stdout_of(untraced)),
            "traced and untraced reports differ ({tag})"
        );
        let events = obskit::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let _ = std::fs::remove_file(&trace);
        // Latency histograms hold wall-clock samples; everything else,
        // event order included, must repeat byte for byte.
        events
            .into_iter()
            .filter(|e| !matches!(e, obskit::Event::Histogram { .. }))
            .collect::<Vec<obskit::Event>>()
    };
    let count = |idx: &std::collections::HashMap<u64, (String, Option<u64>)>, name: &str| {
        idx.values().filter(|(n, _)| n == name).count()
    };
    let digests = run("digests", &["--digests", "3"]);
    let idx = span_index(&digests);
    let execs: Vec<Option<u64>> = idx
        .values()
        .filter(|(name, _)| name == "storage.exec")
        .map(|(_, parent)| *parent)
        .collect();
    assert_eq!(execs.len(), 12, "one analyzed execution per dev item");
    for parent in execs {
        let parent = parent.expect("storage.exec span has a parent");
        let (name, grandparent) = &idx[&parent];
        assert_eq!(name, "eval.execution", "storage.exec parent");
        let grandparent = grandparent.expect("eval.execution span has a parent");
        assert_eq!(idx[&grandparent].0, "score", "eval.execution parent");
    }
    // Each item is one request tree: every span but the run's own
    // `evaluate` root walks its parent links up to an `item` span.
    assert_eq!(count(&idx, "item"), 12);
    for (&id, (name, _)) in &idx {
        if name != "evaluate" {
            assert!(
                ancestor_named(&idx, id, "item").is_some(),
                "span {id} ({name}) is not inside any item"
            );
        }
    }
    // The analyzed path opens the same scoring spans as plain scoring.
    let plain = span_index(&run("plain", &[]));
    for name in ["eval.execution", "eval.comparison"] {
        assert!(count(&plain, name) > 0, "plain scoring opens {name} spans");
        assert_eq!(
            count(&idx, name),
            count(&plain, name),
            "{name} spans under --digests"
        );
    }
    assert_eq!(
        obskit::canonical_jsonl(&digests),
        obskit::canonical_jsonl(&run("again", &["--digests", "3"])),
        "canonical traces differ between runs"
    );
}

// --- persistence: persist / recover / warm-start-bench / --store ---------

#[test]
fn persist_then_recover_round_trips() {
    let dir = std::env::temp_dir().join("dail_cli_persist_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args([
            "persist",
            "--out",
            dir.to_str().unwrap(),
            "--train",
            "40",
            "--dev",
            "10",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("pool.emb").exists());
    assert!(dir.read_dir().unwrap().count() > 1, "page stores written");

    let out = cli()
        .args(["recover", dir.to_str().unwrap(), "--verify"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 incomplete, 0 corrupt"), "{text}");
    assert!(text.contains("data-checksum=ok"), "{text}");

    // A resumed persist over a complete store skips every database.
    let out = cli()
        .args([
            "persist",
            "--out",
            dir.to_str().unwrap(),
            "--train",
            "40",
            "--dev",
            "10",
            "--resume",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 databases"), "nothing rewritten: {text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_verify_flags_a_snapshot_header_bit_flip() {
    let dir = std::env::temp_dir().join("dail_cli_snapshot_flip_test");
    let _ = std::fs::remove_dir_all(&dir);
    let out = cli()
        .args([
            "persist",
            "--out",
            dir.to_str().unwrap(),
            "--seed",
            "7",
            "--train",
            "60",
            "--dev",
            "24",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Bit 0 of the header's `dim` field (byte 12) turns 512 into 513,
    // which every stored lane still fits.
    let snap = dir.join("pool.emb");
    let mut bytes = std::fs::read(&snap).unwrap();
    bytes[12] ^= 1;
    std::fs::write(&snap, &bytes).unwrap();
    let out = cli()
        .args(["recover", dir.to_str().unwrap(), "--verify"])
        .output()
        .expect("binary runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("pool.emb: CORRUPT"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_with_store_matches_eval_without() {
    let dir = std::env::temp_dir().join("dail_cli_store_eval_test");
    let _ = std::fs::remove_dir_all(&dir);
    let common = ["--train", "40", "--dev", "10"];
    let out = cli()
        .args(["persist", "--out", dir.to_str().unwrap()])
        .args(common)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = |extra: &[&str]| {
        let out = cli()
            .args(["eval", "--pipeline", "dail", "--model", "gpt-4"])
            .args(common)
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let generated = run(&[]);
    let from_disk = run(&["--store", dir.to_str().unwrap()]);
    assert_eq!(
        String::from_utf8_lossy(&generated),
        String::from_utf8_lossy(&from_disk),
        "evaluating against disk-loaded databases must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recover_missing_dir_exits_2() {
    let out = cli()
        .args(["recover", "/definitely/not/a/store"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not a directory"), "{err}");
}

#[test]
fn persist_without_out_exits_2() {
    let out = cli().arg("persist").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn malformed_crash_point_or_engine_exits_2() {
    let dir = std::env::temp_dir().join("dail_cli_bad_crash_at");
    let _ = std::fs::remove_dir_all(&dir);
    for spec in ["mid-air@1", "mid-commit", "mid-commit@0"] {
        let out = cli()
            .args([
                "persist",
                "--out",
                dir.to_str().unwrap(),
                "--crash-at",
                spec,
            ])
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "--crash-at {spec}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("--crash-at"), "{spec}: {err}");
        assert!(!dir.exists(), "a rejected spec must not start persisting");
    }
    let out = cli()
        .args(["exec-bench", "--rows", "10", "--engine", "vectorized"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--engine") && err.contains("vectorized"),
        "{err}"
    );
}

#[test]
fn warm_start_bench_without_store_exits_2() {
    let out = cli().arg("warm-start-bench").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn store_flag_with_missing_dir_exits_2() {
    let out = cli()
        .args([
            "eval",
            "--pipeline",
            "zero",
            "--model",
            "gpt-4",
            "--train",
            "40",
            "--dev",
            "10",
            "--store",
            "/definitely/not/a/store",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn exec_diff_gold_queries_agree_bit_for_bit() {
    // Every gold query of a 60-train / 24-dev benchmark, through both
    // engines (exit 1 on any divergence).
    let out = cli()
        .args(["exec-diff", "--train", "60", "--dev", "24"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("exec-diff: 84 gold queries"), "{text}");
    assert!(text.contains("agree bit-for-bit"), "{text}");
}

#[test]
fn select_bench_is_thread_invariant_and_pins_the_exact_checksum() {
    // 6000 rows is above the 4096-row parallel threshold, so DAIL_THREADS=4
    // really shards the scan; the exact selection's checksum is the golden
    // recorded before approximate retrieval existed.
    let run = |threads: &str| {
        let out = cli()
            .env("DAIL_THREADS", threads)
            .args([
                "select-bench",
                "--pool",
                "6000",
                "--queries",
                "12",
                "--seed",
                "11",
                "--no-timing",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let t1 = run("1");
    assert!(
        t1 == run("4"),
        "select-bench report differs between DAIL_THREADS=1 and =4"
    );
    let text = String::from_utf8_lossy(&t1);
    assert!(
        text.contains("| selection checksum | 0x125a29265b97d94a |"),
        "exact selection checksum drifted from the pre-IVF golden:\n{text}"
    );
}

#[test]
fn select_sweep_matches_golden_at_every_thread_count() {
    // The ANN sweep on a 20k-row pool: above the 4096-row threshold, so
    // DAIL_THREADS=4 shards both the exact scan and the k-means
    // assignment. The report — recall, cluster counts and both selection
    // checksums — must equal the golden at any worker count; the golden
    // was recorded from the dense k-means, so it also pins the sparse
    // index to the selections the dense one made.
    for threads in ["1", "4"] {
        let out = cli()
            .env("DAIL_THREADS", threads)
            .args([
                "select-bench",
                "--pool-rows",
                "20000",
                "--queries",
                "12",
                "--seed",
                "11",
                "--no-timing",
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_golden(
            "select_sweep_20k.md",
            &format!("select-bench sweep at DAIL_THREADS={threads}"),
            &out.stdout,
        );
    }
}

#[test]
fn unknown_flag_exits_2_and_names_it() {
    let corpus = fixture("exec_diff/nulls_nan_zeros.sql");
    for args in [
        vec!["exec-diff", "--corpus", &corpus],
        vec!["models", "--verbose"],
        // The retired windowed store's series bound is no flag.
        vec!["eval", "--tsdb-max-series", "2"],
        vec!["run-experiments", "--tsdb-max-series", "2"],
        vec!["exec-bench", "--tsdb-max-series", "2"],
        // Nothing reads stats JSONL back, so there is no round trip to check.
        vec!["stats", "--roundtrip"],
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {}", args[1])),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn crash_injected_persist_recovers_to_identical_store() {
    // The seed-7 benchmark, persisted with a crash injected mid-commit,
    // recovered and resumed: the page files equal an uninterrupted
    // persist's, and evaluating on the recovered store prints the same
    // bytes as evaluating on the generated databases.
    let dir = std::env::temp_dir().join("dail_cli_crash_test");
    let clean = std::env::temp_dir().join("dail_cli_crash_clean");
    for d in [&dir, &clean] {
        let _ = std::fs::remove_dir_all(d);
    }
    let common = ["--seed", "7", "--train", "60", "--dev", "24"];

    // Injected crash: the process must die mid-commit, not exit cleanly.
    let out = cli()
        .args(["persist", "--out", dir.to_str().unwrap()])
        .args(common)
        .args(["--crash-at", "mid-commit@2"])
        .output()
        .expect("binary runs");
    // Killed by the abort signal, so no exit code at all.
    assert_eq!(
        out.status.code(),
        None,
        "crash point did not fire: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Recovery reports the torn store without failing.
    let out = cli()
        .args(["recover", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Resume, then demand byte-identical page files vs an uninterrupted run.
    for (target, resume) in [(&dir, true), (&clean, false)] {
        let mut c = cli();
        c.args(["persist", "--out", target.to_str().unwrap()]);
        c.args(common);
        if resume {
            c.arg("--resume");
        }
        let out = c.output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let mut names: Vec<String> = dir
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".pg"))
        .collect();
    names.sort();
    assert!(!names.is_empty());
    for name in names {
        let a = std::fs::read(dir.join(&name)).unwrap();
        let b = std::fs::read(clean.join(&name)).unwrap();
        assert_eq!(a, b, "{name} differs between recovered and clean persist");
    }

    let out = cli()
        .args(["recover", dir.to_str().unwrap(), "--verify"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("0 incomplete, 0 corrupt"), "{text}");
    assert_eq!(
        String::from_utf8_lossy(&stdout_of(eval_dail_cmd(&[
            "--store",
            dir.to_str().unwrap()
        ]))),
        String::from_utf8_lossy(&stdout_of(eval_dail_cmd(&[]))),
        "eval on the crash-recovered store differs from eval on the generated databases"
    );
    for d in [&dir, &clean] {
        let _ = std::fs::remove_dir_all(d);
    }
}
