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
    let out = cli().arg("bogus").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("commands:"), "usage should follow: {err}");
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

// ---- serving layer: serve-bench ----

/// The committed golden serve-bench invocation. Small benchmark, moderate
/// overload so shedding, retries and cache hits all appear in the report.
fn serve_bench_cmd(extra: &[&str]) -> Command {
    let mut c = cli();
    c.args([
        "serve-bench",
        "--seed",
        "7",
        "--train",
        "60",
        "--dev",
        "24",
        "--requests",
        "120",
        "--mean-gap-ms",
        "15",
        "--queue",
        "16",
    ]);
    c.args(extra);
    c
}

#[test]
fn serve_bench_report_is_deterministic_across_workers() {
    let run = |workers: &str| {
        let out = serve_bench_cmd(&["--workers", workers])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let w1 = run("1");
    let w6 = run("6");
    assert_eq!(
        String::from_utf8_lossy(&w1),
        String::from_utf8_lossy(&w6),
        "report must be byte-identical across worker counts"
    );

    let text = String::from_utf8_lossy(&w1);
    // Under injected faults the pool absorbs everything without a panic…
    assert!(text.contains("| panics | 0 |"), "{text}");
    // …the cache serves repeated questions…
    let cache_line = text
        .lines()
        .find(|l| l.contains("cache served"))
        .expect("cache row present");
    let served: u64 = cache_line
        .split('|')
        .nth(2)
        .and_then(|v| v.trim().split(" / ").next())
        .and_then(|n| n.trim().parse().ok())
        .expect("cache row parses");
    assert!(served > 0, "cache must serve duplicates: {cache_line}");
    // …and overload resolves to typed sheds, reported with a rate.
    assert!(text.contains("| shed | "), "{text}");
    assert!(text.contains("| EX (served ok) | "), "{text}");
}

#[test]
fn serve_bench_matches_committed_golden() {
    // The golden is recorded untraced, with no windowed store. A traced
    // run always owns one, and at 1% or 100% head sampling it may not
    // change a reported byte.
    for rate in ["off", "0.01", "1.0"] {
        let trace = std::env::temp_dir().join(format!("dail_cli_serve_golden_{rate}.jsonl"));
        let trace = trace.to_str().unwrap();
        let traced = ["--trace-sample", rate, "--trace", trace];
        let out = serve_bench_cmd(if rate == "off" { &[] } else { &traced })
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let what = format!("serve-bench report (--trace-sample {rate})");
        assert_golden("serve_bench_report.md", &what, &out.stdout);
        let _ = std::fs::remove_file(trace);
    }
}

// ---- request telemetry: trace trees, sampling, exposition, SLOs ----

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

fn counter_value(events: &[obskit::Event], counter: &str) -> Option<u64> {
    events.iter().find_map(|e| match e {
        obskit::Event::Counter { name, value } if name == counter => Some(*value),
        _ => None,
    })
}

#[test]
fn serve_bench_trace_forms_one_connected_tree_per_request() {
    let trace = std::env::temp_dir().join("dail_cli_serve_tree.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = serve_bench_cmd(&["--trace", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = obskit::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let _ = std::fs::remove_file(&trace);
    let idx = span_index(&events);

    // Exactly one batch root, itself unparented.
    let serve_ids: Vec<u64> = idx
        .iter()
        .filter(|(_, (n, _))| n == "servekit.serve")
        .map(|(&id, _)| id)
        .collect();
    assert_eq!(serve_ids.len(), 1, "one serve batch span");
    assert_eq!(idx[&serve_ids[0]].1, None);

    // One request span per submitted request (default sample rate is 1.0),
    // each a direct child of the batch span.
    let request_ids: Vec<u64> = idx
        .iter()
        .filter(|(_, (n, _))| n == "servekit.request")
        .map(|(&id, _)| id)
        .collect();
    assert_eq!(
        request_ids.len() as u64,
        counter_value(&events, "servekit.submitted").expect("submitted counter"),
        "one request span per submitted request"
    );
    for &id in &request_ids {
        assert_eq!(idx[&id].1, Some(serve_ids[0]), "request under batch span");
    }

    // Every other span walks its parent links into exactly one request
    // tree: nothing float-free, nothing orphaned.
    let mut names_by_request: std::collections::HashMap<u64, std::collections::HashSet<String>> =
        std::collections::HashMap::new();
    for (&id, (name, _)) in &idx {
        if name == "servekit.serve" || name == "servekit.request" {
            continue;
        }
        let req = ancestor_named(&idx, id, "servekit.request").unwrap_or_else(|| {
            panic!("span {id} ({name}) is not connected to any servekit.request")
        });
        names_by_request
            .entry(req)
            .or_default()
            .insert(name.clone());
    }

    // At least one request tree contains the full pipeline: admission,
    // queue wait, cache lookup, the retry attempts, both DAIL stages with
    // prompt build + selection + scoring + model call, and post-serve
    // execution + comparison.
    let full: Vec<&str> = vec![
        "servekit.admission",
        "servekit.queue_wait",
        "servekit.cache_lookup",
        "servekit.attempt",
        "dail.preliminary",
        "dail.main",
        "promptkit.build_prompt",
        "promptkit.select",
        "retrievekit.score",
        "simllm.complete",
        "eval.execution",
        "eval.comparison",
    ];
    assert!(
        names_by_request
            .values()
            .any(|names| full.iter().all(|n| names.contains(*n))),
        "no request tree contains the full pipeline; trees seen: {names_by_request:?}"
    );
}

#[test]
fn sampled_out_requests_emit_no_spans_but_still_count() {
    // Plain scoring, then scoring through the analyzed executor, whose
    // storage.exec span must follow the request's sampling decision too
    // (`--canonical` zeroes the digest table's wall-clock column).
    sampled_out_run("plain", &[]);
    sampled_out_run("digests", &["--digests", "5", "--canonical"]);
}

fn sampled_out_run(tag: &str, extra: &[&str]) {
    let trace = std::env::temp_dir().join(format!("dail_cli_sampled_out_{tag}.jsonl"));
    let _ = std::fs::remove_file(&trace);
    let mut args = vec!["--trace", trace.to_str().unwrap(), "--trace-sample", "0"];
    args.extend_from_slice(extra);
    let out = serve_bench_cmd(&args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let events = obskit::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();

    // Zero request-scoped spans: only the batch span remains.
    let span_names: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            obskit::Event::SpanStart { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(span_names, vec!["servekit.serve"], "{span_names:?}");

    // …but the metrics keep counting every request.
    let submitted = counter_value(&events, "servekit.submitted").expect("submitted");
    assert_eq!(counter_value(&events, "servekit.trace.sampled"), Some(0));
    assert_eq!(
        counter_value(&events, "servekit.trace.unsampled"),
        Some(submitted)
    );
    assert!(counter_value(&events, "promptkit.prompts_built").unwrap_or(0) > 0);

    // The rendered report is byte-identical to a fully-untraced run:
    // telemetry never changes a reported number.
    let untraced = serve_bench_cmd(extra).output().expect("binary runs");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&untraced.stdout)
    );

    // The exposition of that trace passes the in-repo mini-parser.
    let metrics = cli()
        .args(["metrics", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(metrics.status.success());
    let families =
        obskit::expo::parse(&String::from_utf8_lossy(&metrics.stdout)).expect("exposition parses");
    assert!(!families.is_empty());
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn unparsable_trace_sample_exits_2_and_names_the_flag() {
    let out = serve_bench_cmd(&["--trace-sample", "lots"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--trace-sample") && err.contains("lots"),
        "stderr must name the flag and the rejected value: {err}"
    );
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

/// The committed golden slo-report invocation: the serve-bench golden
/// load with a burn-rate threshold tuned so exactly one alert fires.
fn slo_report_cmd(extra: &[&str]) -> Command {
    let mut c = cli();
    c.args([
        "slo-report",
        "--seed",
        "7",
        "--train",
        "60",
        "--dev",
        "24",
        "--requests",
        "120",
        "--mean-gap-ms",
        "15",
        "--queue",
        "16",
        "--burn-alert",
        "4",
    ]);
    c.args(extra);
    c
}

#[test]
fn slo_report_is_deterministic_and_matches_golden() {
    let run = |threads: &str, workers: &str| {
        let out = slo_report_cmd(&["--workers", workers])
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
    let a = run("1", "1");
    let b = run("4", "6");
    assert_eq!(
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b),
        "slo-report must be byte-identical across workers and DAIL_THREADS"
    );
    assert_eq!(a, run("1", "1"), "slo-report must be stable across runs");

    let text = String::from_utf8_lossy(&a).to_string();
    assert_eq!(
        text.lines().filter(|l| l.starts_with("- ALERT")).count(),
        1,
        "golden config fires exactly one burn-rate alert:\n{text}"
    );
    assert!(text.contains("| error budget remaining |"), "{text}");
    assert_golden("slo_report.md", "slo-report", &a);

    // Traced at 1% and 100% head sampling (with the windowed store every
    // traced run owns), the report keeps every byte of the untraced golden.
    for rate in ["0.01", "1.0"] {
        let trace = std::env::temp_dir().join(format!("dail_cli_slo_golden_{rate}.jsonl"));
        let trace = trace.to_str().unwrap();
        let out = slo_report_cmd(&["--trace-sample", rate, "--trace", trace])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let what = format!("slo-report (--trace-sample {rate})");
        assert_golden("slo_report.md", &what, &out.stdout);
        let _ = std::fs::remove_file(trace);
    }
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

// ---- dashboard: windowed time-series over a recorded trace ----

/// Run the golden traced serve-bench (at the default full sampling, so
/// every request can carry exemplars) and leave the trace at `trace`.
fn traced_serve_for_dashboard(trace: &std::path::Path, threads: &str, workers: &str) {
    let _ = std::fs::remove_file(trace);
    let out = serve_bench_cmd(&["--workers", workers, "--trace", trace.to_str().unwrap()])
        .env("DAIL_THREADS", threads)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn dashboard_output(trace: &std::path::Path, extra: &[&str]) -> String {
    let out = cli()
        .arg("dashboard")
        .arg(trace)
        .args(extra)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

#[test]
fn dashboard_is_deterministic_and_matches_golden() {
    let t1 = std::env::temp_dir().join("dail_cli_dash_t1.jsonl");
    let t4 = std::env::temp_dir().join("dail_cli_dash_t4.jsonl");
    traced_serve_for_dashboard(&t1, "1", "1");
    traced_serve_for_dashboard(&t4, "4", "6");
    let a = dashboard_output(&t1, &[]);
    let b = dashboard_output(&t4, &[]);
    assert_eq!(
        a, b,
        "dashboard must be byte-identical across DAIL_THREADS and workers"
    );
    let _ = std::fs::remove_file(&t4);

    for needle in [
        "# tsdb dashboard",
        "| step | 250 ms |",
        "| overflow | 0 |",
        "| dropped late | 0 |",
        "## top series (by total over all retained windows)",
        "servekit.latency_ms{db=",
        "eval.ex_verdicts{db=",
        "req=",
    ] {
        assert!(a.contains(needle), "missing {needle:?} in:\n{a}");
    }

    // Tenant filtering keeps only that tenant's series.
    let filtered = dashboard_output(&t1, &["--tenant", "t0"]);
    assert!(filtered.contains("| tenant filter | t0 |"), "{filtered}");
    for line in filtered.lines().filter(|l| l.starts_with("| `")) {
        assert!(line.contains("tenant=\"t0\""), "foreign series: {line}");
    }

    // JSON twin parses the same rows.
    let json_path = std::env::temp_dir().join("dail_cli_dash.json");
    let _ = dashboard_output(&t1, &["--json", json_path.to_str().unwrap()]);
    let json = std::fs::read_to_string(&json_path).unwrap();
    let _ = std::fs::remove_file(&json_path);
    assert!(json.starts_with("{\"step_ms\":250,"), "{json}");
    assert!(json.contains("\"exemplar\":{\"request_id\":"), "{json}");

    // The windowed series belong to the dashboard and the exposition: the
    // profile of the same trace lists no `tsdb.*` annotation.
    let profile = cli().arg("profile").arg(&t1).output().expect("binary runs");
    assert!(profile.status.success());
    let profile = String::from_utf8_lossy(&profile.stdout);
    assert!(profile.contains("- **servekit."), "{profile}");
    assert!(!profile.contains("- **tsdb."), "{profile}");
    let _ = std::fs::remove_file(&t1);
    assert_golden("dashboard.md", "dashboard", a.as_bytes());
}

#[test]
fn tsdb_series_bound_reroutes_to_overflow() {
    // A trace with more distinct label sets than the series bound: the
    // excess reroutes to the `__overflow__` series, and the overflow count
    // shows in both the dashboard and the exposition.
    let trace = std::env::temp_dir().join("dail_cli_dash_overflow.jsonl");
    let rec = obskit::Recorder::enabled();
    for i in 0..obskit::tsdb::MAX_SERIES + 5 {
        let tenant = format!("t{i}");
        rec.add_counter_at(
            "servekit.requests",
            &[("tenant", &tenant)],
            10 * i as u64,
            1,
        );
    }
    rec.write_jsonl(&trace).expect("trace written");
    let dash = dashboard_output(&trace, &[]);
    assert!(dash.contains("__overflow__"), "{dash}");
    assert!(dash.contains("| overflow | 5 |"), "{dash}");
    let out = cli()
        .arg("metrics")
        .arg(&trace)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&trace);
    assert!(out.status.success());
    let expo = String::from_utf8_lossy(&out.stdout);
    let overflow: u64 = expo
        .lines()
        .find_map(|l| l.strip_prefix("obskit_tsdb_overflow "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no obskit_tsdb_overflow sample in:\n{expo}"));
    assert!(overflow > 0, "overflow counter did not fire");
}

#[test]
fn dashboard_exemplar_resolves_to_a_real_request_in_the_trace() {
    let trace = std::env::temp_dir().join("dail_cli_dash_exemplar.jsonl");
    traced_serve_for_dashboard(&trace, "2", "4");
    let text = dashboard_output(&trace, &[]);

    // Pull the first latency exemplar's request id off the dashboard.
    let req_id: u64 = text
        .lines()
        .find(|l| l.contains("servekit.latency_ms{") && l.contains("req="))
        .and_then(|l| {
            let rest = &l[l.find("req=").unwrap() + 4..];
            rest[..rest.find(' ').unwrap()].parse().ok()
        })
        .expect("dashboard shows a latency exemplar");

    // The id must belong to an admitted request in the same trace: find
    // its admission decision and walk the span tree around it.
    let events =
        obskit::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).expect("trace parses");
    let _ = std::fs::remove_file(&trace);
    let idx = span_index(&events);
    let mut last_admission_span = None;
    let mut admission_span_of_req = None;
    for e in &events {
        match e {
            obskit::Event::SpanStart { id, name, .. } if name == "servekit.admission" => {
                last_admission_span = Some(*id);
            }
            obskit::Event::Meta { name, fields } if name == "servekit.admission.decision" => {
                let field = |k: &str| {
                    fields
                        .iter()
                        .find(|(fk, _)| fk == k)
                        .map(|(_, v)| v.as_str())
                };
                if field("request") == Some(req_id.to_string().as_str()) {
                    assert_eq!(
                        field("decision"),
                        Some("admit"),
                        "exemplar request {req_id} must have been admitted"
                    );
                    admission_span_of_req = last_admission_span;
                }
            }
            _ => {}
        }
    }
    let admission = admission_span_of_req
        .unwrap_or_else(|| panic!("no admission decision for exemplar request {req_id}"));
    // The admission span sits inside that request's tree, under the batch.
    assert!(
        ancestor_named(&idx, admission, "servekit.request").is_some(),
        "admission span {admission} not under a servekit.request span"
    );
    assert!(
        ancestor_named(&idx, admission, "servekit.serve").is_some(),
        "admission span {admission} not under the servekit.serve batch span"
    );
}

#[test]
fn dashboard_requires_a_trace_with_tsdb_events() {
    let out = cli().arg("dashboard").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = cli()
        .args(["dashboard", "/nonexistent/trace.jsonl"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // A valid trace without tsdb events (pre-tsdb fixture) is also exit 2.
    let out = cli()
        .args(["dashboard", &fixture("baseline_trace.jsonl")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no tsdb series"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_bench_rejects_out_of_range_rate() {
    let out = cli()
        .args(["serve-bench", "--error-rate", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error-rate"));
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

#[test]
fn serve_bench_report_is_unchanged_under_analyzed_scoring() {
    let run = |extra: &[&str]| {
        let out = serve_bench_cmd(extra).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let plain = run(&[]);
    let analyzed = run(&["--digests"]);
    assert!(
        analyzed.len() > plain.len() && analyzed.starts_with(&plain),
        "--digests must only append its rollup, never change a report byte \
         (passive observability)"
    );
}

#[test]
fn serve_bench_digests_section_is_deterministic() {
    let run = || {
        let out = serve_bench_cmd(&["--digests", "5", "--canonical"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a = run();
    assert!(
        a.contains("## Query digests (top 5 by rows scanned)"),
        "{a}"
    );
    assert!(a.contains("distinct shapes."), "{a}");
    assert!(!a.contains("FROM singer"), "skeletons are masked: {a}");
    assert_eq!(a, run(), "canonical digest section is byte-stable");
}

#[test]
fn digests_keep_scoring_spans_inside_their_request() {
    // `--digests` scores through the analyzed executor. It must open the
    // same parented eval.execution and eval.comparison spans as plain
    // scoring, with the executor's storage.exec span inside
    // eval.execution.
    let spans = |tag: &str, extra: &[&str]| {
        let trace = std::env::temp_dir().join(format!("dail_cli_scoring_spans_{tag}.jsonl"));
        let _ = std::fs::remove_file(&trace);
        let mut args = vec!["--trace", trace.to_str().unwrap()];
        args.extend_from_slice(extra);
        let out = serve_bench_cmd(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let events = obskit::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let _ = std::fs::remove_file(&trace);
        span_index(&events)
    };
    let parents = |idx: &std::collections::HashMap<u64, (String, Option<u64>)>, name: &str| {
        idx.values()
            .filter(|(n, _)| n == name)
            .map(|(_, parent)| parent.unwrap_or_else(|| panic!("{name} span has no parent")))
            .collect::<Vec<u64>>()
    };
    let plain = spans("plain", &[]);
    let digests = spans("digests", &["--digests", "5"]);
    for name in ["eval.execution", "eval.comparison"] {
        let n = parents(&plain, name).len();
        assert!(n > 0, "plain scoring opens {name} spans");
        assert_eq!(
            parents(&digests, name).len(),
            n,
            "{name} spans under --digests"
        );
    }
    let execs = parents(&digests, "storage.exec");
    assert_eq!(execs.len(), parents(&digests, "eval.execution").len());
    for p in execs {
        assert_eq!(digests[&p].0, "eval.execution", "storage.exec parent");
    }
}

#[test]
fn serve_bench_json_report_has_headline_numbers() {
    let dir = std::env::temp_dir().join("dail_cli_serve_json_test");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_serve.json");
    let out = serve_bench_cmd(&["--json", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let js = std::fs::read_to_string(&path).expect("json report written");
    for key in [
        "\"requests\"",
        "\"shed_rate\"",
        "\"throughput_rps\"",
        "\"hit_ratio\"",
        "\"p50\"",
        "\"p99\"",
        "\"ex\"",
    ] {
        assert!(js.contains(key), "missing {key} in:\n{js}");
    }
    // The markdown report and the JSON must tell the same story.
    let md = String::from_utf8_lossy(&out.stdout);
    let requests_row = md
        .lines()
        .find(|l| l.starts_with("| requests |"))
        .expect("requests row");
    let n: String = requests_row
        .chars()
        .filter(|c| c.is_ascii_digit())
        .collect();
    assert!(js.contains(&format!("\"requests\": {n}")), "{js}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slo_report_json_flag_writes_the_same_schema() {
    let dir = std::env::temp_dir().join("dail_cli_slo_json_test");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_serve.json");
    let mut c = cli();
    c.args([
        "slo-report",
        "--seed",
        "7",
        "--train",
        "30",
        "--dev",
        "12",
        "--requests",
        "40",
        "--mean-gap-ms",
        "15",
        "--queue",
        "16",
        "--json",
        path.to_str().unwrap(),
    ]);
    let out = c.output().expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let js = std::fs::read_to_string(&path).expect("json report written");
    assert!(js.contains("\"throughput_rps\""), "{js}");
    assert!(js.contains("\"latency_ms\""), "{js}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_digests_flag_appends_the_rollup() {
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
            "--digests",
            "3",
            "--canonical",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("EX:"), "summary still prints: {text}");
    assert!(
        text.contains("## Query digests (top 3 by rows scanned)"),
        "{text}"
    );
}

#[test]
fn eval_digests_trace_nests_exec_spans_under_their_item() {
    // `--digests` scores through the analyzed executor, which records a
    // storage.exec span into whatever recorder its thread has entered.
    // Each eval worker must enter its own buffer, so the span nests under
    // the item's eval.execution span, inside its score span, and lands at
    // the same place in every run.
    let run = |tag: &str| {
        let trace = std::env::temp_dir().join(format!("dail_cli_eval_exec_{tag}.jsonl"));
        let _ = std::fs::remove_file(&trace);
        let out = cli()
            .args([
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
                "--digests",
                "3",
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
        let events = obskit::parse_jsonl(&std::fs::read_to_string(&trace).unwrap()).unwrap();
        let _ = std::fs::remove_file(&trace);
        // Latency histograms hold wall-clock samples; everything else,
        // event order included, must repeat byte for byte.
        let events: Vec<obskit::Event> = events
            .into_iter()
            .filter(|e| !matches!(e, obskit::Event::Histogram { .. }))
            .collect();
        let idx = span_index(&events);
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
        obskit::canonical_jsonl(&events)
    };
    assert_eq!(run("a"), run("b"), "canonical traces differ between runs");
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
    // Every gold query of the serving golden's benchmark size, through both
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
        vec!["serve-bench", "--reqests", "5"],
        vec!["exec-diff", "--corpus", &corpus],
        vec!["slo-report", "--canonical"],
        vec!["models", "--verbose"],
        // The windowed store's series bound is a constant, not a flag.
        vec!["eval", "--tsdb-max-series", "2"],
        vec!["run-experiments", "--tsdb-max-series", "2"],
        vec!["exec-bench", "--tsdb-max-series", "2"],
        vec!["serve-bench", "--tsdb-max-series", "2"],
        vec!["slo-report", "--tsdb-max-series", "2"],
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
    // The serving golden's benchmark, persisted with a crash injected
    // mid-commit, recovered and resumed: the page files equal an
    // uninterrupted persist's, and serving from the recovered store
    // reproduces the serve-bench golden byte for byte.
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
    let out = serve_bench_cmd(&["--store", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_golden(
        "serve_bench_report.md",
        "serve-bench from the crash-recovered store",
        &out.stdout,
    );
    for d in [&dir, &clean] {
        let _ = std::fs::remove_dir_all(d);
    }
}
