//! Markdown serve-bench report.
//!
//! Every value comes from the deterministic [`ServeStats`](crate::ServeStats)
//! side of the serving layer, so the rendered report is byte-identical
//! across runs with the same seed — including runs with different worker
//! counts (worker count intentionally does not appear in the report).

/// Inputs to the report renderer.
#[derive(Debug, Clone)]
pub struct ReportInput {
    /// Load-generator / fault seed.
    pub seed: u64,
    /// Predictor display name.
    pub predictor: String,
    /// Fault knobs, echoed for reproducibility.
    pub error_rate: f64,
    /// Spike probability.
    pub spike_rate: f64,
    /// Spike magnitude in ms.
    pub spike_ms: u64,
    /// Corruption probability.
    pub corrupt_rate: f64,
    /// Requests offered.
    pub submitted: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests shed.
    pub shed: u64,
    /// Requests served OK.
    pub ok: u64,
    /// Requests failed after retries.
    pub failed: u64,
    /// Requests past deadline.
    pub deadline_exceeded: u64,
    /// Retried attempts.
    pub retries: u64,
    /// Caught predictor panics.
    pub panics: u64,
    /// Cache lookups served from cache (hits + coalesced).
    pub cache_served: u64,
    /// Cache misses (unique computations).
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
    /// Simulated total latency per admitted request, in ms.
    pub latencies_ms: Vec<u64>,
    /// Virtual completion time of the batch, in ms.
    pub makespan_ms: u64,
    /// Served-OK responses whose SQL is execution-accurate.
    pub ex_correct: u64,
    /// Served-OK responses scored for EX.
    pub ex_scored: u64,
}

fn pct(num: u64, den: u64) -> String {
    if den == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// Render the markdown report.
///
/// Latency percentiles come from an [`obskit::Histogram`] (log2 buckets),
/// so the printed p50/p99 carry the same bucket-upper-bound semantics as
/// the exported metrics — the report and the `/metrics`-style exposition
/// can never disagree about a quantile.
pub fn render(r: &ReportInput) -> String {
    let mut hist = obskit::Histogram::new();
    for &ms in &r.latencies_ms {
        hist.record(ms);
    }
    let p50 = hist.p50();
    let p99 = hist.p99();
    let throughput = if r.makespan_ms == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.1} req/s (virtual)",
            r.admitted as f64 * 1000.0 / r.makespan_ms as f64
        )
    };
    let ex = if r.ex_scored == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.3} ({}/{})",
            r.ex_correct as f64 / r.ex_scored as f64,
            r.ex_correct,
            r.ex_scored
        )
    };

    let mut out = String::new();
    out.push_str("# serve-bench report\n\n");
    out.push_str(&format!(
        "predictor: {} | seed: {} | faults: error {:.2}, spike {:.2} (+{} ms), corrupt {:.2}\n\n",
        r.predictor, r.seed, r.error_rate, r.spike_rate, r.spike_ms, r.corrupt_rate
    ));
    out.push_str("| metric | value |\n|---|---|\n");
    let rows: Vec<(&str, String)> = vec![
        ("requests", r.submitted.to_string()),
        ("admitted", r.admitted.to_string()),
        ("shed", format!("{} ({})", r.shed, pct(r.shed, r.submitted))),
        ("served ok", r.ok.to_string()),
        // Unserved-cause breakdown: every non-Ok outcome lands in exactly
        // one of these three rows.
        ("shed: queue full", r.shed.to_string()),
        ("failed: retries exhausted", r.failed.to_string()),
        ("failed: deadline exceeded", r.deadline_exceeded.to_string()),
        ("retries", r.retries.to_string()),
        ("panics", r.panics.to_string()),
        (
            "cache served / miss / evicted",
            format!(
                "{} / {} / {}",
                r.cache_served, r.cache_misses, r.cache_evictions
            ),
        ),
        (
            "cache hit ratio",
            pct(r.cache_served, r.cache_served + r.cache_misses),
        ),
        ("throughput", throughput),
        ("latency p50 / p99", format!("{p50} ms / {p99} ms")),
        ("EX (served ok)", ex),
    ];
    for (k, v) in rows {
        out.push_str(&format!("| {k} | {v} |\n"));
    }
    out
}

fn json_ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "null".to_string()
    } else {
        format!("{:.4}", num as f64 / den as f64)
    }
}

/// Render the report as a machine-readable JSON object (the `--json` output
/// of `serve-bench`). Quantiles come from the same [`obskit::Histogram`] as
/// the markdown report, so the two can never disagree; ratios with a zero
/// denominator render as `null` rather than a fake zero.
pub fn render_json(r: &ReportInput) -> String {
    let mut hist = obskit::Histogram::new();
    for &ms in &r.latencies_ms {
        hist.record(ms);
    }
    let throughput = if r.makespan_ms == 0 {
        "null".to_string()
    } else {
        format!("{:.4}", r.admitted as f64 * 1000.0 / r.makespan_ms as f64)
    };
    format!(
        concat!(
            "{{\n",
            "  \"seed\": {seed},\n",
            "  \"predictor\": \"{predictor}\",\n",
            "  \"requests\": {submitted},\n",
            "  \"admitted\": {admitted},\n",
            "  \"shed\": {shed},\n",
            "  \"shed_rate\": {shed_rate},\n",
            "  \"served_ok\": {ok},\n",
            "  \"failed\": {failed},\n",
            "  \"deadline_exceeded\": {deadline},\n",
            "  \"retries\": {retries},\n",
            "  \"panics\": {panics},\n",
            "  \"cache\": {{\"served\": {cs}, \"misses\": {cm}, ",
            "\"evictions\": {ce}, \"hit_ratio\": {hit}}},\n",
            "  \"throughput_rps\": {tp},\n",
            "  \"latency_ms\": {{\"p50\": {p50}, \"p99\": {p99}}},\n",
            "  \"ex\": {{\"correct\": {exc}, \"scored\": {exs}, \"rate\": {exr}}}\n",
            "}}\n"
        ),
        seed = r.seed,
        predictor = obskit::json_escape(&r.predictor),
        submitted = r.submitted,
        admitted = r.admitted,
        shed = r.shed,
        shed_rate = json_ratio(r.shed, r.submitted),
        ok = r.ok,
        failed = r.failed,
        deadline = r.deadline_exceeded,
        retries = r.retries,
        panics = r.panics,
        cs = r.cache_served,
        cm = r.cache_misses,
        ce = r.cache_evictions,
        hit = json_ratio(r.cache_served, r.cache_served + r.cache_misses),
        tp = throughput,
        p50 = hist.p50(),
        p99 = hist.p99(),
        exc = r.ex_correct,
        exs = r.ex_scored,
        exr = json_ratio(r.ex_correct, r.ex_scored),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_match_the_histogram() {
        // The report's p50/p99 must agree with obskit's histogram
        // quantiles, bucket-upper-bound semantics included.
        let r = ReportInput {
            latencies_ms: vec![10, 20, 30, 1000],
            ..report_fixture()
        };
        let mut h = obskit::Histogram::new();
        for &v in &r.latencies_ms {
            h.record(v);
        }
        let md = render(&r);
        assert!(
            md.contains(&format!(
                "| latency p50 / p99 | {} ms / {} ms |",
                h.p50(),
                h.p99()
            )),
            "{md}"
        );
    }

    fn report_fixture() -> ReportInput {
        ReportInput {
            seed: 7,
            predictor: "DAIL-SQL(gpt-4)".into(),
            error_rate: 0.1,
            spike_rate: 0.05,
            spike_ms: 200,
            corrupt_rate: 0.02,
            submitted: 100,
            admitted: 90,
            shed: 10,
            ok: 85,
            failed: 3,
            deadline_exceeded: 2,
            retries: 12,
            panics: 0,
            cache_served: 30,
            cache_misses: 60,
            cache_evictions: 0,
            latencies_ms: vec![10, 20, 30, 40],
            makespan_ms: 3_000,
            ex_correct: 70,
            ex_scored: 85,
        }
    }

    #[test]
    fn json_report_is_valid_and_matches_markdown() {
        let r = report_fixture();
        let js = render_json(&r);
        for needle in [
            "\"requests\": 100",
            "\"shed_rate\": 0.1000",
            "\"hit_ratio\": 0.3333",
            "\"throughput_rps\": 30.0000",
            "\"rate\": 0.8235",
        ] {
            assert!(js.contains(needle), "missing {needle:?} in:\n{js}");
        }
        // Quantiles agree with the markdown report's histogram.
        let mut h = obskit::Histogram::new();
        for &v in &r.latencies_ms {
            h.record(v);
        }
        assert!(js.contains(&format!("\"p50\": {}, \"p99\": {}", h.p50(), h.p99())));
        assert_eq!(render_json(&r), js, "deterministic");
    }

    #[test]
    fn json_report_nulls_zero_denominators_and_escapes() {
        let r = ReportInput {
            predictor: "weird \"name\"\n".into(),
            submitted: 0,
            ex_scored: 0,
            makespan_ms: 0,
            cache_served: 0,
            cache_misses: 0,
            ..report_fixture()
        };
        let js = render_json(&r);
        assert!(js.contains("\"shed_rate\": null"));
        assert!(js.contains("\"throughput_rps\": null"));
        assert!(js.contains("\"hit_ratio\": null"));
        assert!(js.contains("\"rate\": null"));
        assert!(js.contains("weird \\\"name\\\"\\n"));
    }

    #[test]
    fn report_renders_every_metric_row() {
        let r = report_fixture();
        let md = render(&r);
        for needle in [
            "# serve-bench report",
            "| requests | 100 |",
            "| shed | 10 (10.0%) |",
            "| shed: queue full | 10 |",
            "| failed: retries exhausted | 3 |",
            "| failed: deadline exceeded | 2 |",
            "| panics | 0 |",
            "| cache hit ratio | 33.3% |",
            "| throughput | 30.0 req/s (virtual) |",
            "| EX (served ok) | 0.824 (70/85) |",
        ] {
            assert!(md.contains(needle), "missing {needle:?} in:\n{md}");
        }
        assert_eq!(render(&r), md, "rendering is deterministic");
    }
}
