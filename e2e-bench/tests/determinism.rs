//! The report must not change with the run or with `DAIL_THREADS`: EX,
//! prompt tokens, every per-layer count and ratio, and the fingerprints
//! are identical across two runs and across one and two threads. Only
//! times may differ.
//!
//! Run with `cargo test --release --manifest-path e2e-bench/Cargo.toml`.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_e2e-bench");

fn run(args: &[&str]) -> Output {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for var in [
        "DAIL_THREADS",
        "DAIL_EXEC",
        "DAIL_RETRIEVAL",
        "DAIL_ANALYZE",
        "DAIL_TRACE_SAMPLE",
        "DAIL_TSDB",
        "DAIL_CRASH_POINT",
    ] {
        cmd.env_remove(var);
    }
    cmd.output().expect("the benchmark binary runs")
}

/// `(name, value)` pairs of a flat JSON object line whose values are
/// numbers, strings, or `{"value": v, "unit": u}` objects.
fn fields(line: &str) -> Vec<(String, String)> {
    let body = line
        .trim()
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .expect("a JSON object line");
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(start) = rest.find('"') {
        let after = &rest[start + 1..];
        let end = after.find('"').expect("closed key");
        let key = after[..end].to_string();
        let value_start = after[end + 1..]
            .strip_prefix(": ")
            .expect("key is followed by a value");
        let value_end = if value_start.starts_with('{') {
            value_start.find('}').expect("closed object") + 1
        } else {
            value_start.find(", \"").unwrap_or(value_start.len())
        };
        out.push((key, value_start[..value_end].to_string()));
        rest = &value_start[value_end..];
    }
    out
}

/// Everything in a traced run's output that may not depend on timing:
/// the context line without the thread count, and each metric whose unit
/// is a count or a ratio.
fn deterministic_report(workload: &str, threads: &str) -> Vec<(String, String)> {
    let out = run(&["--workload", workload, "--trace", "1", "--threads", threads]);
    assert!(
        out.status.success(),
        "{workload} exited with {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., info, result] = lines[..] else {
        panic!("{workload} printed fewer than two lines: {stdout}");
    };
    let result = fields(result);
    assert_eq!(result[0], ("correct".into(), "true".into()), "{workload}");
    assert_eq!(result[2], ("failed".into(), "0".into()), "{workload}");
    let metrics = line_after(&stdout, "\"metrics\": ");
    let mut report: Vec<(String, String)> = fields(info)
        .into_iter()
        .filter(|(k, _)| k != "threads")
        .collect();
    report.extend(
        fields(&metrics)
            .into_iter()
            .filter(|(_, v)| v.ends_with("\"count\"}") || v.ends_with("\"ratio\"}")),
    );
    report
}

/// The metrics object of the result line.
fn line_after(stdout: &str, marker: &str) -> String {
    let last = stdout.lines().last().expect("a result line");
    let start = last.find(marker).expect("a metrics object") + marker.len();
    last[start..last.len() - 1].to_string()
}

fn field<'a>(report: &'a [(String, String)], key: &str) -> &'a str {
    &report
        .iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no {key} in the report"))
        .1
}

fn assert_repeats(workload: &str) -> Vec<(String, String)> {
    let first = deterministic_report(workload, "2");
    assert!(first.len() > 20, "{workload}: {first:?}");
    assert_eq!(
        first,
        deterministic_report(workload, "2"),
        "{workload}: run 2"
    );
    assert_eq!(
        first,
        deterministic_report(workload, "1"),
        "{workload}: 1 thread"
    );
    first
}

#[test]
fn dev_greedy_report_repeats_across_runs_and_threads() {
    let report = assert_repeats("dev-greedy");
    assert_eq!(
        field(&report, "simllm.distinct_prompt_ratio"),
        "{\"value\": 1, \"unit\": \"ratio\"}"
    );
}

#[test]
fn sc_vote_report_repeats_across_runs_and_threads() {
    let report = assert_repeats("sc-vote");
    // Six completions per item on two distinct prompts.
    assert!(
        field(&report, "simllm.distinct_prompt_ratio").starts_with("{\"value\": 0.333"),
        "{report:?}"
    );
}

#[test]
fn large_pool_repeats_and_serves_the_dev_greedy_dev_set() {
    let large = assert_repeats("large-pool");
    let small = deterministic_report("dev-greedy", "2");
    assert_eq!(
        field(&large, "dev_fingerprint"),
        field(&small, "dev_fingerprint")
    );
    assert_eq!(field(&large, "pool_rows"), "100000");
    assert_eq!(field(&large, "retrieval"), "\"ivf\"");
}

#[test]
fn refuses_to_start_with_a_setting_that_changes_the_pipeline() {
    let out = Command::new(BIN)
        .args(["--workload", "dev-greedy", "--seconds", "0"])
        .env("DAIL_EXEC", "oracle")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn rejects_bad_arguments() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "dev-greedy", "--trace", "2"],
        &["--workload", "dev-greedy", "--threads", "0"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
