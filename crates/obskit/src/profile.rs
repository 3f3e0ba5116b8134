//! The one replay of a recorded trace: spans into a forest with
//! self-times and a flame tree, metric summaries into a snapshot, and a
//! per-stage breakdown report over the result.

use crate::event::Event;
use crate::flame::{Flame, FlameNode};
use crate::hist::Histogram;
use crate::recorder::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-stage aggregate computed from span events.
#[derive(Debug, Clone, Default)]
pub struct StageStats {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall-clock across those spans, ns.
    pub total_ns: u64,
    /// Width minus the widths of child spans, ns (see
    /// [`Profile::from_events`]).
    pub self_ns: u64,
    /// Smallest single span, ns.
    pub min_ns: u64,
    /// Largest single span, ns.
    pub max_ns: u64,
}

/// A trace folded once into everything its renderers show.
///
/// Build one with [`Profile::from_events`] (e.g. after
/// [`crate::parse_jsonl`] on a `--trace` file). [`Profile::to_markdown`]
/// renders the per-stage breakdown in the style of the experiment report
/// tables (`eval::report::Table`); [`Flame`] renders
/// [`Profile::flame`], [`crate::expo::render`] the metrics.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Stage name → aggregated span stats, ordered by name.
    pub stages: BTreeMap<String, StageStats>,
    /// The spans merged by stack of names; its root spans the wall-clock.
    pub flame: Flame,
    /// Counter totals, last gauge values and merged histograms.
    pub metrics: MetricsSnapshot,
    /// Meta annotations, in order.
    pub metas: Vec<(String, Vec<(String, String)>)>,
}

/// One span of a trace: the index of the span it nests in, and its
/// duration once it has closed.
struct TraceSpan<'a> {
    name: &'a str,
    parent: Option<usize>,
    dur_ns: Option<u64>,
}

impl Profile {
    /// Fold a trace in one pass.
    ///
    /// Spans form one forest under one rule:
    /// * a span's parent is the latest span started before it with the
    ///   parent id, so ids may repeat and concatenated runs keep every
    ///   span;
    /// * unclosed spans are dropped, and a span whose parent never closed
    ///   is a root;
    /// * a span's width is the larger of its duration and the sum of its
    ///   children's widths, and its self-time is the width its children
    ///   leave, so self-times sum to the wall-clock (the roots' widths) on
    ///   every trace, truncated or overlong children included.
    ///
    /// Counters with the same name are summed, gauges keep the last value
    /// and histograms merge; annotations are kept in order.
    pub fn from_events(events: &[Event]) -> Profile {
        let mut p = Profile::default();
        let mut spans: Vec<TraceSpan> = Vec::new();
        // Span id → index of the latest span started with it, and of the
        // one still open with it.
        let mut latest: BTreeMap<u64, usize> = BTreeMap::new();
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
        for ev in events {
            match ev {
                Event::SpanStart {
                    id, parent, name, ..
                } => {
                    let at = spans.len();
                    spans.push(TraceSpan {
                        name,
                        parent: parent.and_then(|up| latest.get(&up).copied()),
                        dur_ns: None,
                    });
                    latest.insert(*id, at);
                    open.insert(*id, at);
                }
                Event::SpanEnd { id, name, dur_ns } => match open.remove(id) {
                    Some(at) => spans[at].dur_ns = Some(*dur_ns),
                    // Its start was lost: the span still counts, as a root.
                    None => spans.push(TraceSpan {
                        name,
                        parent: None,
                        dur_ns: Some(*dur_ns),
                    }),
                },
                Event::Counter { name, value } => {
                    *p.metrics.counters.entry(name.clone()).or_insert(0) += value;
                }
                Event::Gauge { name, value } => {
                    p.metrics.gauges.insert(name.clone(), *value);
                }
                Event::Histogram {
                    name,
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } => {
                    let h = Histogram::from_parts(*count, *sum, *min, *max, buckets);
                    p.metrics
                        .histograms
                        .entry(name.clone())
                        .or_default()
                        .merge(&h);
                }
                Event::Meta { name, fields } => {
                    p.metas.push((name.clone(), fields.clone()));
                }
            }
        }
        p.fold_spans(&spans);
        p
    }

    /// Widths, self-times and stage stats, then the flame tree. A parent
    /// always precedes its children in `spans`, so a backward pass meets
    /// every child before its parent and a forward pass every parent
    /// before its children.
    fn fold_spans(&mut self, spans: &[TraceSpan]) {
        let closed_parent = |s: &TraceSpan| s.parent.filter(|&up| spans[up].dur_ns.is_some());
        let mut width = vec![0u64; spans.len()];
        let mut kids_ns = vec![0u64; spans.len()];
        let mut wall_ns = 0u64;
        for (at, s) in spans.iter().enumerate().rev() {
            let Some(dur_ns) = s.dur_ns else { continue };
            width[at] = dur_ns.max(kids_ns[at]);
            let stats = self.stages.entry(s.name.to_string()).or_default();
            if stats.count == 0 {
                stats.min_ns = dur_ns;
            }
            stats.count += 1;
            stats.total_ns += dur_ns;
            stats.self_ns += width[at] - kids_ns[at];
            stats.min_ns = stats.min_ns.min(dur_ns);
            stats.max_ns = stats.max_ns.max(dur_ns);
            match closed_parent(s) {
                Some(up) => kids_ns[up] += width[at],
                None => wall_ns += width[at],
            }
        }
        // Merge spans sharing a stack of names into one frame. Frames grow
        // in an arena, each after its parent frame, then hang under their
        // parents deepest first.
        let mut frames: Vec<(usize, &str, FlameNode)> = vec![(0, "", FlameNode::default())];
        let mut frame_index: BTreeMap<(usize, &str), usize> = BTreeMap::new();
        let mut frame_of = vec![0usize; spans.len()];
        for (at, s) in spans.iter().enumerate() {
            let Some(dur_ns) = s.dur_ns else { continue };
            let up = closed_parent(s).map_or(0, |p| frame_of[p]);
            let f = *frame_index.entry((up, s.name)).or_insert_with(|| {
                frames.push((up, s.name, FlameNode::default()));
                frames.len() - 1
            });
            frame_of[at] = f;
            let node = &mut frames[f].2;
            node.total_ns += dur_ns;
            node.width_ns += width[at];
            node.count += 1;
        }
        while frames.len() > 1 {
            let (up, name, node) = frames.pop().expect("more than the root");
            frames[up].2.children.insert(name.to_string(), node);
        }
        let (_, _, mut root) = frames.pop().expect("the root frame");
        root.width_ns = wall_ns;
        self.flame = Flame { root };
    }

    /// Wall-clock of the trace: the sum of its root spans' widths, ns.
    pub fn wall_ns(&self) -> u64 {
        self.flame.wall_ns()
    }

    /// Render the breakdown as Markdown, in the same visual style as the
    /// experiment report tables.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let wall_ns = self.wall_ns();
        let _ = writeln!(
            s,
            "### PROFILE — per-stage breakdown (wall {} over root spans)\n",
            fmt_ns(wall_ns)
        );
        if !self.metas.is_empty() {
            for (name, fields) in &self.metas {
                let kv: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                let _ = writeln!(s, "- **{name}**: {}", kv.join(", "));
            }
            let _ = writeln!(s);
        }
        if !self.stages.is_empty() {
            let _ = writeln!(
                s,
                "| stage | count | total | self | mean | min | max | % wall |"
            );
            let _ = writeln!(s, "|---|---|---|---|---|---|---|---|");
            // Widest stages first; name breaks ties for determinism.
            let mut rows: Vec<(&String, &StageStats)> = self.stages.iter().collect();
            rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
            for (name, st) in rows {
                let mean = st.total_ns.checked_div(st.count).unwrap_or(0);
                let pct = if wall_ns == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", 100.0 * st.total_ns as f64 / wall_ns as f64)
                };
                let _ = writeln!(
                    s,
                    "| {name} | {} | {} | {} | {} | {} | {} | {pct} |",
                    st.count,
                    fmt_ns(st.total_ns),
                    fmt_ns(st.self_ns),
                    fmt_ns(mean),
                    fmt_ns(st.min_ns),
                    fmt_ns(st.max_ns),
                );
            }
            let _ = writeln!(s);
        }
        let m = &self.metrics;
        if !m.counters.is_empty() || !m.gauges.is_empty() {
            let _ = writeln!(s, "| metric | value |");
            let _ = writeln!(s, "|---|---|");
            for (name, v) in &m.counters {
                let _ = writeln!(s, "| {name} | {v} |");
            }
            for (name, v) in &m.gauges {
                let _ = writeln!(s, "| {name} | {v:.3} |");
            }
            let _ = writeln!(s);
        }
        if !m.histograms.is_empty() {
            let _ = writeln!(s, "| histogram | count | mean | p50 | p99 | min | max |");
            let _ = writeln!(s, "|---|---|---|---|---|---|---|");
            for (name, h) in &m.histograms {
                let _ = writeln!(
                    s,
                    "| {name} | {} | {:.1} | {} | {} | {} | {} |",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.min(),
                    h.max(),
                );
            }
        }
        s
    }
}

/// One stage's base-vs-new comparison inside a [`ProfileDiff`].
#[derive(Debug, Clone)]
pub struct StageDelta {
    /// Stage name.
    pub name: String,
    /// Stats in the base trace (`None` when the stage is new).
    pub base: Option<StageStats>,
    /// Stats in the new trace (`None` when the stage disappeared).
    pub new: Option<StageStats>,
}

impl StageDelta {
    /// Self-time in the base trace, ns (0 when absent).
    pub fn base_self_ns(&self) -> u64 {
        self.base.as_ref().map(|s| s.self_ns).unwrap_or(0)
    }

    /// Self-time in the new trace, ns (0 when absent).
    pub fn new_self_ns(&self) -> u64 {
        self.new.as_ref().map(|s| s.self_ns).unwrap_or(0)
    }

    /// Signed self-time change, ns.
    pub fn delta_ns(&self) -> i128 {
        self.new_self_ns() as i128 - self.base_self_ns() as i128
    }

    /// Self-time change as a percentage of the base self-time, or `None`
    /// when the stage has no base self-time to compare against.
    pub fn delta_pct(&self) -> Option<f64> {
        let base = self.base_self_ns();
        (base > 0).then(|| 100.0 * self.delta_ns() as f64 / base as f64)
    }
}

/// A cross-run comparison of two [`Profile`]s: per-stage self-times,
/// counters and histograms. Built by [`ProfileDiff::between`]; rendered
/// with [`ProfileDiff::to_markdown`]; gated in CI via
/// [`ProfileDiff::regressions`].
#[derive(Debug, Clone, Default)]
pub struct ProfileDiff {
    /// Base trace wall-clock, ns.
    pub base_wall_ns: u64,
    /// New trace wall-clock, ns.
    pub new_wall_ns: u64,
    /// Per-stage deltas, worst absolute self-time increase first
    /// (name breaks ties).
    pub stages: Vec<StageDelta>,
    /// Counter totals `(name, base, new)` over the union of names
    /// (0 when absent on one side), ordered by name.
    pub counters: Vec<(String, u64, u64)>,
    /// Histograms `(name, base, new)` over the union of names (empty when
    /// absent on one side), ordered by name.
    pub histograms: Vec<(String, Histogram, Histogram)>,
}

impl ProfileDiff {
    /// Compare two aggregated profiles.
    pub fn between(base: &Profile, new: &Profile) -> ProfileDiff {
        let (base_m, new_m) = (&base.metrics, &new.metrics);
        let stage_names: std::collections::BTreeSet<&String> =
            base.stages.keys().chain(new.stages.keys()).collect();
        let mut stages: Vec<StageDelta> = stage_names
            .into_iter()
            .map(|name| StageDelta {
                name: name.clone(),
                base: base.stages.get(name).cloned(),
                new: new.stages.get(name).cloned(),
            })
            .collect();
        stages.sort_by(|a, b| {
            b.delta_ns()
                .cmp(&a.delta_ns())
                .then_with(|| a.name.cmp(&b.name))
        });
        let counter_names: std::collections::BTreeSet<&String> = base_m
            .counters
            .keys()
            .chain(new_m.counters.keys())
            .collect();
        let counters = counter_names
            .into_iter()
            .map(|name| {
                (
                    name.clone(),
                    base_m.counters.get(name).copied().unwrap_or(0),
                    new_m.counters.get(name).copied().unwrap_or(0),
                )
            })
            .collect();
        let hist_names: std::collections::BTreeSet<&String> = base_m
            .histograms
            .keys()
            .chain(new_m.histograms.keys())
            .collect();
        let histograms = hist_names
            .into_iter()
            .map(|name| {
                (
                    name.clone(),
                    base_m.histograms.get(name).cloned().unwrap_or_default(),
                    new_m.histograms.get(name).cloned().unwrap_or_default(),
                )
            })
            .collect();
        ProfileDiff {
            base_wall_ns: base.wall_ns(),
            new_wall_ns: new.wall_ns(),
            stages,
            counters,
            histograms,
        }
    }

    /// Stages whose self-time grew by more than `threshold_pct` percent of
    /// their base self-time, worst first. Stages with zero base self-time
    /// (including brand-new stages) are never flagged — there is no
    /// baseline to regress against.
    pub fn regressions(&self, threshold_pct: f64) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = self
            .stages
            .iter()
            .filter_map(|d| {
                let pct = d.delta_pct()?;
                (pct > threshold_pct).then(|| (d.name.clone(), pct))
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Render the comparison as a Markdown delta table, in the same visual
    /// style as [`Profile::to_markdown`].
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let wall_pct = if self.base_wall_ns == 0 {
            "-".to_string()
        } else {
            format!(
                "{:+.1}%",
                100.0 * (self.new_wall_ns as i128 - self.base_wall_ns as i128) as f64
                    / self.base_wall_ns as f64
            )
        };
        let _ = writeln!(
            s,
            "### PROFILE DIFF — wall {} → {} ({wall_pct})\n",
            fmt_ns(self.base_wall_ns),
            fmt_ns(self.new_wall_ns)
        );
        if !self.stages.is_empty() {
            let _ = writeln!(s, "| stage | calls | base self | new self | Δ self | Δ% |");
            let _ = writeln!(s, "|---|---|---|---|---|---|");
            for d in &self.stages {
                let calls = format!(
                    "{}→{}",
                    d.base.as_ref().map(|s| s.count).unwrap_or(0),
                    d.new.as_ref().map(|s| s.count).unwrap_or(0)
                );
                let pct = match d.delta_pct() {
                    Some(p) => format!("{p:+.1}"),
                    None => "-".to_string(),
                };
                let _ = writeln!(
                    s,
                    "| {} | {calls} | {} | {} | {} | {pct} |",
                    d.name,
                    fmt_ns(d.base_self_ns()),
                    fmt_ns(d.new_self_ns()),
                    fmt_ns_delta(d.delta_ns()),
                );
            }
            let _ = writeln!(s);
        }
        if !self.counters.is_empty() {
            let _ = writeln!(s, "| counter | base | new | Δ |");
            let _ = writeln!(s, "|---|---|---|---|");
            for (name, base, new) in &self.counters {
                let _ = writeln!(
                    s,
                    "| {name} | {base} | {new} | {:+} |",
                    *new as i128 - *base as i128
                );
            }
            let _ = writeln!(s);
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                s,
                "| histogram | count | base mean | new mean | base p99 | new p99 |"
            );
            let _ = writeln!(s, "|---|---|---|---|---|---|");
            for (name, base, new) in &self.histograms {
                let _ = writeln!(
                    s,
                    "| {name} | {}→{} | {:.1} | {:.1} | {} | {} |",
                    base.count(),
                    new.count(),
                    base.mean(),
                    new.mean(),
                    base.quantile(0.99),
                    new.quantile(0.99),
                );
            }
        }
        s
    }
}

/// Human-format a signed nanosecond delta (`+1.5ms`, `-300ns`, `0ns`).
pub fn fmt_ns_delta(delta: i128) -> String {
    let mag = fmt_ns(delta.unsigned_abs().min(u64::MAX as u128) as u64);
    match delta.signum() {
        1 => format!("+{mag}"),
        -1 => format!("-{mag}"),
        _ => mag,
    }
}

/// Human-format nanoseconds (ns/µs/ms/s with one decimal).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, dur: u64) -> [Event; 2] {
        [
            Event::SpanStart {
                id,
                parent,
                name: name.into(),
                t_ns: 0,
            },
            Event::SpanEnd {
                id,
                name: name.into(),
                dur_ns: dur,
            },
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        // run(100) -> predict(60) -> decode(45)
        let ev = vec![
            Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
                t_ns: 0,
            },
            Event::SpanStart {
                id: 2,
                parent: Some(1),
                name: "predict".into(),
                t_ns: 1,
            },
            Event::SpanStart {
                id: 3,
                parent: Some(2),
                name: "decode".into(),
                t_ns: 2,
            },
            Event::SpanEnd {
                id: 3,
                name: "decode".into(),
                dur_ns: 45,
            },
            Event::SpanEnd {
                id: 2,
                name: "predict".into(),
                dur_ns: 60,
            },
            Event::SpanEnd {
                id: 1,
                name: "run".into(),
                dur_ns: 100,
            },
        ];
        let p = Profile::from_events(&ev);
        assert_eq!(p.wall_ns(), 100);
        assert_eq!(p.stages["run"].self_ns, 40);
        assert_eq!(p.stages["predict"].self_ns, 15);
        assert_eq!(p.stages["decode"].self_ns, 45);
        // Parent/child accounting: self times sum to the wall clock.
        let self_sum: u64 = p.stages.values().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, p.wall_ns());
    }

    #[test]
    fn repeated_stages_aggregate() {
        let mut ev: Vec<Event> = Vec::new();
        for (id, d) in [(1, 10u64), (2, 30), (3, 20)] {
            ev.extend(span(id, None, "item", d));
        }
        let p = Profile::from_events(&ev);
        let st = &p.stages["item"];
        assert_eq!(st.count, 3);
        assert_eq!(st.total_ns, 60);
        assert_eq!(st.min_ns, 10);
        assert_eq!(st.max_ns, 30);
        assert_eq!(p.wall_ns(), 60);
    }

    #[test]
    fn markdown_contains_stages_metrics_and_meta() {
        let mut ev: Vec<Event> = span(1, None, "run", 2_000_000).to_vec();
        ev.push(Event::Counter {
            name: "eval.items".into(),
            value: 24,
        });
        ev.push(Event::Gauge {
            name: "ex_pct".into(),
            value: 61.5,
        });
        ev.push(Event::Histogram {
            name: "lat".into(),
            count: 1,
            sum: 7,
            min: 7,
            max: 7,
            buckets: vec![(3, 1)],
        });
        ev.push(Event::Meta {
            name: "experiment.e1".into(),
            fields: vec![("seed".into(), "2023".into())],
        });
        let md = Profile::from_events(&ev).to_markdown();
        assert!(md.contains("| stage |"), "{md}");
        assert!(md.contains("| run | 1 |"), "{md}");
        assert!(md.contains("| eval.items | 24 |"), "{md}");
        assert!(md.contains("ex_pct"), "{md}");
        assert!(md.contains("| lat | 1 |"), "{md}");
        assert!(md.contains("experiment.e1"), "{md}");
        assert!(md.contains("seed=2023"), "{md}");
    }

    #[test]
    fn unclosed_spans_are_ignored() {
        let ev = vec![Event::SpanStart {
            id: 1,
            parent: None,
            name: "zombie".into(),
            t_ns: 0,
        }];
        let p = Profile::from_events(&ev);
        assert!(p.stages.is_empty());
        assert_eq!(p.wall_ns(), 0);
    }

    fn base_and_slow() -> (Profile, Profile) {
        let mut base: Vec<Event> = Vec::new();
        let mut slow: Vec<Event> = Vec::new();
        // run(1000) -> predict(600); slow run(1400) -> predict(1000).
        for (evs, run, predict) in [(&mut base, 1000u64, 600u64), (&mut slow, 1400, 1000)] {
            evs.push(Event::SpanStart {
                id: 1,
                parent: None,
                name: "run".into(),
                t_ns: 0,
            });
            evs.extend(span(2, Some(1), "predict", predict));
            evs.push(Event::SpanEnd {
                id: 1,
                name: "run".into(),
                dur_ns: run,
            });
            evs.push(Event::Counter {
                name: "eval.items".into(),
                value: 3,
            });
        }
        slow.push(Event::Counter {
            name: "eval.retries".into(),
            value: 2,
        });
        (Profile::from_events(&base), Profile::from_events(&slow))
    }

    #[test]
    fn diff_flags_only_regressed_stages() {
        let (b, n) = base_and_slow();
        let d = ProfileDiff::between(&b, &n);
        assert_eq!(d.base_wall_ns, 1000);
        assert_eq!(d.new_wall_ns, 1400);
        // predict self: 600 -> 1000 (+66.7%); run self: 400 -> 400 (0%).
        let r = d.regressions(10.0);
        assert_eq!(r.len(), 1, "{r:?}");
        assert_eq!(r[0].0, "predict");
        assert!((r[0].1 - 66.666).abs() < 0.1, "{r:?}");
        assert!(d.regressions(100.0).is_empty());
        // Identical traces never regress.
        assert!(ProfileDiff::between(&b, &b).regressions(0.0).is_empty());
    }

    #[test]
    fn diff_orders_worst_stage_first() {
        let (b, n) = base_and_slow();
        let d = ProfileDiff::between(&b, &n);
        assert_eq!(d.stages[0].name, "predict");
        assert_eq!(d.stages[0].delta_ns(), 400);
        assert_eq!(d.stages[1].name, "run");
        assert_eq!(d.stages[1].delta_ns(), 0);
    }

    #[test]
    fn diff_handles_new_and_vanished_stages() {
        let only_a = Profile::from_events(&span(1, None, "a", 100));
        let only_b = Profile::from_events(&span(1, None, "b", 100));
        let d = ProfileDiff::between(&only_a, &only_b);
        let a = d.stages.iter().find(|s| s.name == "a").unwrap();
        let b = d.stages.iter().find(|s| s.name == "b").unwrap();
        assert!(a.new.is_none());
        assert!(b.base.is_none());
        assert_eq!(b.delta_pct(), None, "new stage has no baseline");
        // Neither direction trips the gate: no baseline to regress against.
        assert!(d.regressions(0.0).is_empty());
    }

    #[test]
    fn diff_markdown_contains_stage_counter_histogram_deltas() {
        let (b, mut n) = base_and_slow();
        n.metrics
            .histograms
            .entry("lat".into())
            .or_default()
            .merge(&Histogram::from_parts(1, 7, 7, 7, &[(3, 1)]));
        let md = ProfileDiff::between(&b, &n).to_markdown();
        assert!(md.contains("PROFILE DIFF"), "{md}");
        assert!(md.contains("| predict | 1→1 |"), "{md}");
        assert!(md.contains("+66.7"), "{md}");
        assert!(md.contains("| eval.items | 3 | 3 | +0 |"), "{md}");
        assert!(md.contains("| eval.retries | 0 | 2 | +2 |"), "{md}");
        assert!(md.contains("| lat | 0→1 |"), "{md}");
        assert!(md.contains("+40.0%"), "wall delta header: {md}");
    }

    #[test]
    fn fmt_ns_delta_signs() {
        assert_eq!(fmt_ns_delta(1_500_000), "+1.5ms");
        assert_eq!(fmt_ns_delta(-300), "-300ns");
        assert_eq!(fmt_ns_delta(0), "0ns");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999), "999ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }
}
