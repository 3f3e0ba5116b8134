//! Prometheus text exposition for obskit metrics.
//!
//! Renders a [`MetricsSnapshot`] (or the metrics of a folded trace, see
//! [`render_profile`]) in the Prometheus text exposition format: one
//! `# TYPE` line per family, counter/gauge samples, and
//! `_bucket`/`_sum`/`_count` series derived from the log₂
//! [`Histogram`]s. Bucket upper bounds are the histogram's power-of-two
//! bucket bounds, emitted cumulatively and terminated with `+Inf`, as
//! the format requires.
//!
//! Output is deterministic: families render in sorted name order (the
//! snapshot maps are `BTreeMap`s) and label sets are written in a fixed
//! order, so expositions of the same metrics are byte-identical — which
//! is what lets the CLI tests golden-gate them.
//!
//! Traces that carry windowed [`crate::tsdb`] series additionally render
//! OpenMetrics-style *labelled* families — one sample per label set for
//! counters, per-label-set `_bucket`/`_sum`/`_count` series for
//! histograms — plus `# exemplar` comment lines tying a histogram label
//! set to the request id of its largest sampled observation.
//!
//! Label values are escaped per the Prometheus text format (`\\`, `\"`,
//! `\n`); see [`escape_label_value`].
//!
//! [`parse`] is a small validating parser for the same format, used by
//! tests to prove CLI output is well-formed (names, label syntax and
//! escapes, family/sample agreement, per-label-set cumulative
//! non-decreasing buckets ending in `+Inf`, `_count` == `+Inf` bucket,
//! well-formed exemplar lines).

use crate::hist::{bucket_high, Histogram};
use crate::profile::Profile;
use crate::recorder::MetricsSnapshot;
use crate::tsdb::Tsdb;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sanitize a metric name into the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): dots and other invalid characters
/// become underscores, and a leading digit is prefixed with one.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if ok {
            out.push(c);
        } else if i == 0 && c.is_ascii_digit() {
            out.push('_');
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the Prometheus text format: backslash,
/// double-quote and newline become `\\`, `\"` and `\n`. Everything else
/// passes through unchanged.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Format a sample value: integers without a fractional part, floats in
/// Rust's shortest round-trip form, non-finite values in Prometheus
/// spelling (`NaN`, `+Inf`, `-Inf`).
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if v.fract() == 0.0 && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn render_histogram(out: &mut String, name: &str, h: &Histogram) {
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, n) in h.occupied() {
        cumulative += n;
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cumulative}",
            bucket_high(i as usize)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Render a metrics snapshot in Prometheus text exposition format.
pub fn render(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snap.gauges {
        let name = sanitize_name(name);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_value(*value));
    }
    for (name, h) in &snap.histograms {
        render_histogram(&mut out, &sanitize_name(name), h);
    }
    out
}

/// `{k="v",...}` suffix for a rendered label set (empty when unlabelled).
fn labels_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", crate::tsdb::render_label_set(labels))
    }
}

/// Render the windowed series of a [`Tsdb`] as labelled OpenMetrics-style
/// families: one sample per label set for counter metrics, per-label-set
/// `_bucket`/`_sum`/`_count` series (merged across retained windows) for
/// histogram metrics, plus a `# exemplar` line per histogram label set
/// carrying the request id of its largest sampled observation. `used`
/// holds already-declared family names; colliding metric names get `_`
/// appended until unique, so the exposition never redeclares a family.
fn render_tsdb(out: &mut String, db: &Tsdb, used: &mut BTreeMap<String, ()>) {
    let mut by_metric: BTreeMap<&str, Vec<&crate::tsdb::Series>> = BTreeMap::new();
    for s in db.series() {
        by_metric.entry(s.metric()).or_default().push(s);
    }
    for (metric, group) in by_metric {
        let mut fam = sanitize_name(metric);
        while used.insert(fam.clone(), ()).is_some() {
            fam.push('_');
        }
        let is_hist = group[0].is_hist();
        if is_hist {
            let _ = writeln!(out, "# TYPE {fam} histogram");
        } else {
            let _ = writeln!(out, "# TYPE {fam} counter");
        }
        for s in group {
            if s.is_hist() != is_hist {
                continue; // a metric never mixes kinds via the tsdb API
            }
            if !is_hist {
                let _ = writeln!(out, "{fam}{} {}", labels_suffix(s.labels()), s.total());
                continue;
            }
            let mut h = Histogram::new();
            for w in s.windows() {
                if let Some(wh) = w.hist {
                    h.merge(wh);
                }
            }
            let ls = crate::tsdb::render_label_set(s.labels());
            let sep = if ls.is_empty() { "" } else { "," };
            let mut cumulative = 0u64;
            for (i, n) in h.occupied() {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{fam}_bucket{{{ls}{sep}le=\"{}\"}} {cumulative}",
                    bucket_high(i as usize)
                );
            }
            let _ = writeln!(out, "{fam}_bucket{{{ls}{sep}le=\"+Inf\"}} {}", h.count());
            if let Some(e) = s.best_exemplar() {
                let _ = writeln!(
                    out,
                    "# exemplar {fam}{{{ls}{sep}request_id=\"{}\"}} {}",
                    e.request_id, e.value
                );
            }
            let _ = writeln!(out, "{fam}_sum{} {}", labels_suffix(s.labels()), h.sum());
            let _ = writeln!(
                out,
                "{fam}_count{} {}",
                labels_suffix(s.labels()),
                h.count()
            );
        }
    }
}

/// Render a folded trace's metrics: its counters, gauges and histograms,
/// then its windowed series as labelled families (with `# exemplar`
/// lines) after the plain ones.
pub fn render_profile(p: &Profile) -> String {
    let snap = &p.metrics;
    let mut out = render(snap);
    if p.tsdb.series_count() > 0 {
        let mut used: BTreeMap<String, ()> = BTreeMap::new();
        for name in snap
            .counters
            .keys()
            .chain(snap.gauges.keys())
            .chain(snap.histograms.keys())
        {
            used.insert(sanitize_name(name), ());
        }
        render_tsdb(&mut out, &p.tsdb, &mut used);
    }
    out
}

/// Kind of a metric family, from its `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

/// One sample line of an exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (may carry a `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A parsed metric family: its `# TYPE` declaration plus samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name.
    pub name: String,
    /// Declared kind.
    pub kind: FamilyKind,
    /// Samples belonging to this family.
    pub samples: Vec<Sample>,
    /// Parsed `# exemplar` lines of this (histogram) family; each
    /// carries a `request_id` label alongside the series labels.
    pub exemplars: Vec<Sample>,
}

fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse().ok(),
    }
}

/// Scan one quoted label value starting just *after* the opening quote,
/// resolving `\\`/`\"`/`\n` escapes. Returns the unescaped value and
/// the remainder after the closing quote. Any other backslash sequence
/// is rejected — an unescaped backslash is not a valid label value.
fn scan_label_value(rest: &str) -> Result<(String, &str), String> {
    let mut value = String::new();
    let mut chars = rest.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((value, &rest[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '\\')) => value.push('\\'),
                Some((_, '"')) => value.push('"'),
                Some((_, 'n')) => value.push('\n'),
                Some((_, other)) => return Err(format!("invalid escape \\{other} in label value")),
                None => return Err("unterminated escape in label value".to_string()),
            },
            other => value.push(other),
        }
    }
    Err(format!("unterminated label value: {rest:?}"))
}

fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = &rest[..eq];
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("label value must be quoted: {rest:?}"));
        }
        let (value, after) = scan_label_value(&rest[1..])?;
        labels.push((key.to_string(), value));
        rest = after;
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value: {rest:?}"));
        }
    }
    Ok(labels)
}

/// Parse a `k="v",...` label set (escape-aware) into pairs. Public for
/// the label sets of [`crate::tsdb`]'s windowed-write annotations and for
/// tests.
pub fn parse_label_set(s: &str) -> Result<Vec<(String, String)>, String> {
    parse_labels(s)
}

/// Canonical grouping key of a label set: sorted, rendered, optionally
/// dropping one label name (`le` for buckets, `request_id` for
/// exemplars).
fn label_group_key(labels: &[(String, String)], drop: &str) -> String {
    let mut ls: Vec<(String, String)> = labels.iter().filter(|(k, _)| k != drop).cloned().collect();
    ls.sort();
    crate::tsdb::render_label_set(&ls)
}

/// Validate one histogram family, grouping its samples by label set
/// (minus `le`): each label set must carry a complete cumulative bucket
/// series ending in `+Inf` plus matching `_sum`/`_count`, and each
/// exemplar must name an existing label set.
fn check_histogram(fam: &Family) -> Result<(), String> {
    let name = &fam.name;
    #[derive(Default)]
    struct Group {
        buckets: Vec<(f64, f64)>,
        count: Option<f64>,
        sum: Option<f64>,
    }
    let mut groups: BTreeMap<String, Group> = BTreeMap::new();
    for s in &fam.samples {
        if s.name == format!("{name}_bucket") {
            let le = s
                .labels
                .iter()
                .find(|(k, _)| k == "le")
                .ok_or_else(|| format!("{name}: bucket sample without le label"))?;
            let bound = parse_value(&le.1)
                .ok_or_else(|| format!("{name}: unparsable le bound {:?}", le.1))?;
            groups
                .entry(label_group_key(&s.labels, "le"))
                .or_default()
                .buckets
                .push((bound, s.value));
        } else if s.name == format!("{name}_count") {
            groups
                .entry(label_group_key(&s.labels, "le"))
                .or_default()
                .count = Some(s.value);
        } else if s.name == format!("{name}_sum") {
            groups
                .entry(label_group_key(&s.labels, "le"))
                .or_default()
                .sum = Some(s.value);
        }
    }
    for (key, g) in &groups {
        let ctx = if key.is_empty() {
            name.to_string()
        } else {
            format!("{name}{{{key}}}")
        };
        if g.buckets.is_empty() {
            return Err(format!("{ctx}: histogram without buckets"));
        }
        for w in g.buckets.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("{ctx}: le bounds not increasing"));
            }
            if w[1].1 < w[0].1 {
                return Err(format!("{ctx}: bucket counts not cumulative"));
            }
        }
        let last = g.buckets.last().unwrap();
        if !last.0.is_infinite() {
            return Err(format!("{ctx}: last bucket must be +Inf"));
        }
        let count = g.count.ok_or_else(|| format!("{ctx}: missing _count"))?;
        g.sum.ok_or_else(|| format!("{ctx}: missing _sum"))?;
        if count != last.1 {
            return Err(format!("{ctx}: _count != +Inf bucket"));
        }
    }
    for e in &fam.exemplars {
        let key = label_group_key(&e.labels, "request_id");
        if !groups.contains_key(&key) {
            return Err(format!(
                "{name}: exemplar names unknown label set {{{key}}}"
            ));
        }
    }
    Ok(())
}

/// Parse one `name{labels} value` line (shared by samples and
/// `# exemplar` payloads).
fn parse_sample_line(line: &str, n: usize) -> Result<Sample, String> {
    let (name_labels, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("line {n}: sample without value"))?;
    let value = parse_value(value).ok_or_else(|| format!("line {n}: bad value {value:?}"))?;
    let (name, labels) = match name_labels.split_once('{') {
        Some((name, rest)) => {
            let body = rest
                .strip_suffix('}')
                .ok_or_else(|| format!("line {n}: unterminated label set"))?;
            (
                name,
                parse_labels(body).map_err(|e| format!("line {n}: {e}"))?,
            )
        }
        None => (name_labels, Vec::new()),
    };
    if !valid_name(name) {
        return Err(format!("line {n}: bad sample name {name:?}"));
    }
    Ok(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parse and validate a Prometheus text exposition.
///
/// Checks metric/label name charsets (label values must use `\\`/`\"`/
/// `\n` escapes — anything else after a backslash is rejected), that
/// every sample belongs to the family declared immediately above it,
/// that families are not redeclared, that counter/gauge families have
/// at least one sample with no duplicated label set, and that histogram
/// series are complete *per label set* (cumulative non-decreasing
/// `_bucket`s ending in `+Inf`, with `_sum` and a `_count` equal to the
/// `+Inf` bucket). `# exemplar` lines are parsed, must follow a
/// histogram family, carry a `request_id` label, and name one of the
/// family's label sets.
pub fn parse(text: &str) -> Result<Vec<Family>, String> {
    let mut families: Vec<Family> = Vec::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let (name, kind) = (it.next().unwrap_or(""), it.next().unwrap_or(""));
            if !valid_name(name) {
                return Err(format!("line {n}: bad family name {name:?}"));
            }
            if it.next().is_some() {
                return Err(format!("line {n}: junk after TYPE line"));
            }
            let kind = match kind {
                "counter" => FamilyKind::Counter,
                "gauge" => FamilyKind::Gauge,
                "histogram" => FamilyKind::Histogram,
                other => return Err(format!("line {n}: unknown family kind {other:?}")),
            };
            if seen.insert(name.to_string(), ()).is_some() {
                return Err(format!("line {n}: family {name:?} redeclared"));
            }
            families.push(Family {
                name: name.to_string(),
                kind,
                samples: Vec::new(),
                exemplars: Vec::new(),
            });
            continue;
        }
        if let Some(rest) = line.strip_prefix("# exemplar ") {
            let ex = parse_sample_line(rest, n)?;
            let fam = families
                .last_mut()
                .ok_or_else(|| format!("line {n}: exemplar before any TYPE line"))?;
            if fam.kind != FamilyKind::Histogram {
                return Err(format!("line {n}: exemplar on non-histogram family"));
            }
            if ex.name != fam.name {
                return Err(format!(
                    "line {n}: exemplar {:?} does not belong to family {:?}",
                    ex.name, fam.name
                ));
            }
            if !ex.labels.iter().any(|(k, _)| k == "request_id") {
                return Err(format!("line {n}: exemplar without request_id label"));
            }
            fam.exemplars.push(ex);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or free-form comment
        }
        let sample = parse_sample_line(line, n)?;
        let name = sample.name.as_str();
        let fam = families
            .last_mut()
            .ok_or_else(|| format!("line {n}: sample before any TYPE line"))?;
        let belongs = match fam.kind {
            FamilyKind::Counter | FamilyKind::Gauge => name == fam.name,
            FamilyKind::Histogram => {
                name == format!("{}_bucket", fam.name)
                    || name == format!("{}_sum", fam.name)
                    || name == format!("{}_count", fam.name)
            }
        };
        if !belongs {
            return Err(format!(
                "line {n}: sample {name:?} does not belong to family {:?}",
                fam.name
            ));
        }
        fam.samples.push(sample);
    }
    for fam in &families {
        match fam.kind {
            FamilyKind::Histogram => check_histogram(fam)?,
            _ => {
                if fam.samples.is_empty() {
                    return Err(format!("{}: family without samples", fam.name));
                }
                let mut sets: BTreeMap<String, ()> = BTreeMap::new();
                for s in &fam.samples {
                    let key = label_group_key(&s.labels, "");
                    if sets.insert(key.clone(), ()).is_some() {
                        return Err(format!(
                            "{}: duplicate sample for label set {{{key}}}",
                            fam.name
                        ));
                    }
                }
            }
        }
    }
    Ok(families)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn render_trace(events: &[Event]) -> String {
        render_profile(&Profile::from_events(events))
    }

    fn snap_with_all() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("eval.items".into(), 24);
        snap.counters.insert("servekit.shed".into(), 3);
        snap.gauges.insert("eval.ex_pct".into(), 61.5);
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 900, 901] {
            h.record(v);
        }
        snap.histograms.insert("servekit.latency_ms".into(), h);
        snap
    }

    #[test]
    fn render_is_valid_and_deterministic() {
        let snap = snap_with_all();
        let a = render(&snap);
        let b = render(&snap);
        assert_eq!(a, b);
        let fams = parse(&a).unwrap();
        assert_eq!(fams.len(), 4);
        assert!(a.contains("# TYPE eval_items counter"));
        assert!(a.contains("eval_items 24"));
        assert!(a.contains("eval_ex_pct 61.5"));
        assert!(a.contains("servekit_latency_ms_bucket{le=\"+Inf\"} 5"));
        assert!(a.contains("servekit_latency_ms_count 5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_log2_bounds() {
        let snap = snap_with_all();
        let text = render(&snap);
        // 0 → bucket 0 (le=0), 1 → bucket 1 (le=1), 3 → bucket 2 (le=3),
        // 900/901 → bucket 10 (le=1023).
        assert!(text.contains("servekit_latency_ms_bucket{le=\"0\"} 1"));
        assert!(text.contains("servekit_latency_ms_bucket{le=\"1\"} 2"));
        assert!(text.contains("servekit_latency_ms_bucket{le=\"3\"} 3"));
        assert!(text.contains("servekit_latency_ms_bucket{le=\"1023\"} 5"));
    }

    #[test]
    fn render_profile_folds_metric_summaries() {
        let events = vec![
            Event::Counter {
                name: "a.b".into(),
                value: 2,
            },
            Event::Counter {
                name: "a.b".into(),
                value: 3,
            },
            Event::Gauge {
                name: "g".into(),
                value: 1.0,
            },
            Event::Gauge {
                name: "g".into(),
                value: 2.5,
            },
            Event::Histogram {
                name: "h".into(),
                count: 2,
                sum: 5,
                min: 2,
                max: 3,
                buckets: vec![(2, 2)],
            },
        ];
        let text = render_trace(&events);
        assert!(text.contains("a_b 5"));
        assert!(text.contains("g 2.5"));
        assert!(text.contains("h_count 2"));
        parse(&text).unwrap();
    }

    #[test]
    fn sanitize_fixes_bad_names() {
        assert_eq!(sanitize_name("a.b-c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        assert!(parse("no_type_line 1\n").is_err());
        assert!(parse("# TYPE x widget\nx 1\n").is_err());
        assert!(parse("# TYPE x counter\ny 1\n").is_err());
        assert!(parse("# TYPE x counter\nx 1\n# TYPE x counter\nx 2\n").is_err());
        assert!(parse("# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n").is_err());
        // Non-cumulative buckets.
        assert!(parse(
            "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n"
        )
        .is_err());
        // _count disagrees with +Inf bucket.
        assert!(
            parse("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n").is_err()
        );
    }

    #[test]
    fn parser_accepts_minimal_valid_families() {
        let text = "# TYPE c counter\nc 1\n# TYPE g gauge\ng NaN\n\
                    # TYPE h histogram\nh_bucket{le=\"7\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 4\nh_count 1\n";
        let fams = parse(text).unwrap();
        assert_eq!(fams.len(), 3);
        assert_eq!(fams[2].samples.len(), 4);
    }

    #[test]
    fn value_formatting_is_stable() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(61.5), "61.5");
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
    }

    #[test]
    fn label_values_escape_and_round_trip() {
        let raw = "a\"b\\c\nd";
        let escaped = escape_label_value(raw);
        assert_eq!(escaped, "a\\\"b\\\\c\\nd");
        let labels = parse_label_set(&format!("k=\"{escaped}\",plain=\"x\"")).unwrap();
        assert_eq!(
            labels,
            vec![
                ("k".to_string(), raw.to_string()),
                ("plain".to_string(), "x".to_string())
            ]
        );
    }

    #[test]
    fn parser_rejects_unescaped_label_values() {
        // Raw quote inside the value: terminates early, junk follows.
        assert!(parse("# TYPE c counter\nc{l=\"a\"b\"} 1\n").is_err());
        // Invalid escape sequence.
        assert!(parse("# TYPE c counter\nc{l=\"a\\x\"} 1\n").is_err());
        // Trailing lone backslash.
        assert!(parse("# TYPE c counter\nc{l=\"a\\\"} 1\n").is_err());
        // Properly escaped forms parse.
        let fams = parse("# TYPE c counter\nc{l=\"a\\\\b\\\"c\\nd\"} 1\n").unwrap();
        assert_eq!(fams[0].samples[0].labels[0].1, "a\\b\"c\nd");
    }

    #[test]
    fn labelled_counter_families_allow_distinct_label_sets_only() {
        let ok = "# TYPE c counter\nc{t=\"a\"} 1\nc{t=\"b\"} 2\n";
        let fams = parse(ok).unwrap();
        assert_eq!(fams[0].samples.len(), 2);
        // Same label set twice (even reordered) is a duplicate.
        let dup = "# TYPE c counter\nc{a=\"1\",b=\"2\"} 1\nc{b=\"2\",a=\"1\"} 2\n";
        assert!(parse(dup).is_err());
        // A family with zero samples is still rejected.
        assert!(parse("# TYPE c counter\n").is_err());
    }

    #[test]
    fn labelled_histograms_validate_per_label_set() {
        let ok = "# TYPE h histogram\n\
                  h_bucket{t=\"a\",le=\"1\"} 1\nh_bucket{t=\"a\",le=\"+Inf\"} 2\n\
                  h_sum{t=\"a\"} 3\nh_count{t=\"a\"} 2\n\
                  h_bucket{t=\"b\",le=\"+Inf\"} 1\nh_sum{t=\"b\"} 9\nh_count{t=\"b\"} 1\n";
        parse(ok).unwrap();
        // One label set's _count disagrees with its +Inf bucket.
        let bad = ok.replace("h_count{t=\"b\"} 1", "h_count{t=\"b\"} 5");
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn exemplar_lines_round_trip_and_validate() {
        let ok = "# TYPE h histogram\n\
                  h_bucket{t=\"a\",le=\"+Inf\"} 2\n\
                  # exemplar h{t=\"a\",request_id=\"17\"} 42\n\
                  h_sum{t=\"a\"} 3\nh_count{t=\"a\"} 2\n";
        let fams = parse(ok).unwrap();
        assert_eq!(fams[0].exemplars.len(), 1);
        assert_eq!(fams[0].exemplars[0].value, 42.0);
        assert_eq!(
            fams[0].exemplars[0].labels,
            vec![
                ("t".to_string(), "a".to_string()),
                ("request_id".to_string(), "17".to_string())
            ]
        );
        // Missing request_id label.
        assert!(parse(&ok.replace("request_id=\"17\"", "req=\"17\"")).is_err());
        // Exemplar naming a label set the family does not have.
        assert!(parse(&ok.replace("# exemplar h{t=\"a\"", "# exemplar h{t=\"z\"")).is_err());
        // Exemplar on a counter family.
        assert!(parse("# TYPE c counter\nc 1\n# exemplar c{request_id=\"1\"} 2\n").is_err());
    }

    #[test]
    fn render_profile_includes_tsdb_series_with_exemplars() {
        let rec = crate::Recorder::enabled();
        rec.add_counter_at("req.count", &[("tenant", "t0")], 10, 3);
        rec.add_counter_at("req.count", &[("tenant", "t1")], 300, 1);
        rec.observe_at("lat.ms", &[("tenant", "t0")], 10, 64, Some(7));
        rec.add_counter("plain.counter", 5);
        let text = render_trace(&rec.drain_trace());
        assert!(text.contains("# TYPE req_count counter"), "{text}");
        assert!(text.contains("req_count{tenant=\"t0\"} 3"), "{text}");
        assert!(text.contains("req_count{tenant=\"t1\"} 1"), "{text}");
        assert!(text.contains("# TYPE lat_ms histogram"), "{text}");
        assert!(
            text.contains("# exemplar lat_ms{tenant=\"t0\",request_id=\"7\"} 64"),
            "{text}"
        );
        assert!(text.contains("lat_ms_count{tenant=\"t0\"} 1"), "{text}");
        // The whole exposition round-trips through the mini-parser.
        let fams = parse(&text).unwrap();
        let lat = fams.iter().find(|f| f.name == "lat_ms").unwrap();
        assert_eq!(lat.exemplars.len(), 1);
    }

    #[test]
    fn tsdb_family_name_collisions_get_suffixed() {
        let rec = crate::Recorder::enabled();
        rec.add_counter_at("plain.counter", &[("t", "a")], 0, 1);
        rec.add_counter("plain.counter", 5);
        let text = render_trace(&rec.drain_trace());
        assert!(text.contains("# TYPE plain_counter counter\nplain_counter 5"));
        assert!(text.contains("# TYPE plain_counter_ counter"), "{text}");
        assert!(text.contains("plain_counter_{t=\"a\"} 1"), "{text}");
        parse(&text).unwrap();
    }
}
