//! Markdown serve-bench report.
//!
//! Every value comes from the deterministic [`ServeStats`] side of the
//! serving layer, so the rendered report is byte-identical across runs
//! with the same seed — including runs with different worker counts
//! (worker count intentionally does not appear in the report).

use crate::ServeStats;
use simllm::FaultConfig;

/// What a report shows: one run's fault knobs and serving stats as
/// [`serve`](crate::serve) left them, plus the caller's EX verdicts.
#[derive(Debug, Clone, Copy)]
pub struct ReportInput<'a> {
    /// Predictor display name.
    pub predictor: &'a str,
    /// Fault knobs, seed included, echoed for reproducibility.
    pub faults: &'a FaultConfig,
    /// The run's serving stats.
    pub stats: &'a ServeStats,
    /// Served-OK responses whose SQL is execution-accurate.
    pub ex_correct: u64,
    /// Served-OK responses scored for EX.
    pub ex_scored: u64,
}

/// The admitted requests' simulated total latencies, in ms.
fn latency_hist(s: &ServeStats) -> obskit::Histogram {
    let mut hist = obskit::Histogram::new();
    for &ms in &s.total_ms {
        hist.record(ms);
    }
    hist
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
    let (s, f) = (r.stats, r.faults);
    let hist = latency_hist(s);
    let p50 = hist.p50();
    let p99 = hist.p99();
    let throughput = if s.makespan_ms == 0 {
        "n/a".to_string()
    } else {
        format!(
            "{:.1} req/s (virtual)",
            s.admitted as f64 * 1000.0 / s.makespan_ms as f64
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
        r.predictor, f.seed, f.error_rate, f.spike_rate, f.spike_ms, f.corrupt_rate
    ));
    out.push_str("| metric | value |\n|---|---|\n");
    let rows: Vec<(&str, String)> = vec![
        ("requests", s.submitted.to_string()),
        ("admitted", s.admitted.to_string()),
        ("shed", format!("{} ({})", s.shed, pct(s.shed, s.submitted))),
        ("served ok", s.ok.to_string()),
        // Unserved-cause breakdown: every non-Ok outcome lands in exactly
        // one of these three rows.
        ("shed: queue full", s.shed.to_string()),
        ("failed: retries exhausted", s.failed.to_string()),
        ("failed: deadline exceeded", s.deadline_exceeded.to_string()),
        ("retries", s.retries.to_string()),
        ("panics", s.panics.to_string()),
        (
            "cache served / miss / evicted",
            format!(
                "{} / {} / {}",
                s.cache.served, s.cache.misses, s.cache.evictions
            ),
        ),
        (
            "cache hit ratio",
            pct(s.cache.served, s.cache.served + s.cache.misses),
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
    let s = r.stats;
    let hist = latency_hist(s);
    let throughput = if s.makespan_ms == 0 {
        "null".to_string()
    } else {
        format!("{:.4}", s.admitted as f64 * 1000.0 / s.makespan_ms as f64)
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
        seed = r.faults.seed,
        predictor = obskit::json_escape(r.predictor),
        submitted = s.submitted,
        admitted = s.admitted,
        shed = s.shed,
        shed_rate = json_ratio(s.shed, s.submitted),
        ok = s.ok,
        failed = s.failed,
        deadline = s.deadline_exceeded,
        retries = s.retries,
        panics = s.panics,
        cs = s.cache.served,
        cm = s.cache.misses,
        ce = s.cache.evictions,
        hit = json_ratio(s.cache.served, s.cache.served + s.cache.misses),
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
    use crate::CacheStats;

    fn faults() -> FaultConfig {
        FaultConfig {
            seed: 7,
            error_rate: 0.1,
            spike_rate: 0.05,
            spike_ms: 200,
            corrupt_rate: 0.02,
        }
    }

    fn stats() -> ServeStats {
        ServeStats {
            submitted: 100,
            admitted: 90,
            shed: 10,
            ok: 85,
            failed: 3,
            deadline_exceeded: 2,
            retries: 12,
            panics: 0,
            cache: CacheStats {
                served: 30,
                misses: 60,
                evictions: 0,
            },
            total_ms: vec![10, 20, 30, 40],
            makespan_ms: 3_000,
            ..ServeStats::default()
        }
    }

    fn report<'a>(faults: &'a FaultConfig, stats: &'a ServeStats) -> ReportInput<'a> {
        ReportInput {
            predictor: "DAIL-SQL(gpt-4)",
            faults,
            stats,
            ex_correct: 70,
            ex_scored: 85,
        }
    }

    #[test]
    fn latency_quantiles_match_the_histogram() {
        // The report's p50/p99 must agree with obskit's histogram
        // quantiles, bucket-upper-bound semantics included.
        let s = ServeStats {
            total_ms: vec![10, 20, 30, 1000],
            ..stats()
        };
        let mut h = obskit::Histogram::new();
        for &v in &s.total_ms {
            h.record(v);
        }
        let md = render(&report(&faults(), &s));
        assert!(
            md.contains(&format!(
                "| latency p50 / p99 | {} ms / {} ms |",
                h.p50(),
                h.p99()
            )),
            "{md}"
        );
    }

    #[test]
    fn json_report_is_valid_and_matches_markdown() {
        let (f, s) = (faults(), stats());
        let r = report(&f, &s);
        let js = render_json(&r);
        for needle in [
            "\"seed\": 7",
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
        for &v in &s.total_ms {
            h.record(v);
        }
        assert!(js.contains(&format!("\"p50\": {}, \"p99\": {}", h.p50(), h.p99())));
        assert_eq!(render_json(&r), js, "deterministic");
    }

    #[test]
    fn json_report_nulls_zero_denominators_and_escapes() {
        let f = faults();
        let s = ServeStats {
            submitted: 0,
            makespan_ms: 0,
            cache: CacheStats::default(),
            ..stats()
        };
        let r = ReportInput {
            predictor: "weird \"name\"\n",
            ex_scored: 0,
            ..report(&f, &s)
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
        let (f, s) = (faults(), stats());
        let r = report(&f, &s);
        let md = render(&r);
        for needle in [
            "# serve-bench report",
            "predictor: DAIL-SQL(gpt-4) | seed: 7 | faults: error 0.10, spike 0.05 (+200 ms), corrupt 0.02",
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
