//! Windowed time-series metrics on the virtual clock.
//!
//! The [`crate::Recorder`]'s counters and histograms are *cumulative*:
//! one number per name for the whole run. This module adds the layer the
//! multi-tenant serving and live-update streaming scenarios need —
//! metrics **over time** and **per label set**:
//!
//! * **Labelled series** — `metric{db="x",tenant="t0"}` with a hard
//!   cardinality bound ([`MAX_SERIES`]). Observations for label sets past
//!   the bound are rerouted, loudly, into a per-metric
//!   `{series="__overflow__"}` series, and the reroute count is exported
//!   as the `obskit.tsdb.overflow` counter.
//! * **Fixed-step ring-buffer windows** — every observation lands in the
//!   window `t_ms / STEP_MS` of a ring of [`WINDOW_SLOTS`] windows.
//!   Counters become rates (count per window), histograms become
//!   *windowed* quantiles (the log₂ [`Histogram`] per window, mergeable
//!   across a window range). Observations older than the ring are dropped
//!   and counted (`obskit.tsdb.dropped_late`).
//! * **Exemplars** — a histogram observation may carry the
//!   [`crate::TraceContext`] request id of a *sampled* request. Each
//!   window keeps the exemplar of its largest such observation, so a p99
//!   spike in a window links directly to one span tree in the same
//!   JSONL trace.
//!
//! Everything is driven by caller-supplied **virtual milliseconds** — no
//! wall clock anywhere. A run records each windowed write as one trace
//! annotation ([`crate::Recorder::add_counter_at`],
//! [`crate::Recorder::observe_at`]: a `tsdb.counter` or `tsdb.observe`
//! [`Event::Meta`] holding the metric, the label set, the virtual ms, the
//! value and the optional exemplar request id). A store is built in one
//! place: [`crate::Profile::from_events`] replays those annotations in
//! recording order through the store's one write path (`Tsdb::counter`
//! and `Tsdb::observe`), for the `dashboard` subcommand and the
//! exposition renderer. A run that
//! writes from one thread therefore folds to the same store however many
//! threads served it.
//!
//! [`SlidingCounts`] is the second windowing primitive: an exact
//! event-time sliding window (deque-based, O(1) amortized per event)
//! over good/bad observations, used by `servekit::slo` for burn-rate
//! alerting in place of per-event rescans.

use crate::event::Event;
use crate::hist::Histogram;
use std::collections::{BTreeMap, VecDeque};

/// Window width in virtual ms: an observation at `t_ms` lands in window
/// `t_ms / STEP_MS`.
pub const STEP_MS: u64 = 250;
/// Ring capacity in windows: windows older than the newest
/// `WINDOW_SLOTS` are evicted.
pub const WINDOW_SLOTS: usize = 256;
/// Hard cardinality bound: maximum distinct series (overflow series are
/// exempt — they are where the excess goes).
pub const MAX_SERIES: usize = 512;

/// Annotation name of one windowed counter increment.
pub(crate) const COUNTER_EVENT: &str = "tsdb.counter";
/// Annotation name of one windowed histogram observation.
pub(crate) const OBSERVE_EVENT: &str = "tsdb.observe";

/// The shape of a store; the constants above outside this module's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TsdbConfig {
    step_ms: u64,
    max_series: usize,
    window_slots: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            step_ms: STEP_MS,
            max_series: MAX_SERIES,
            window_slots: WINDOW_SLOTS,
        }
    }
}

/// The exemplar of one window: the request id of the largest sampled
/// observation recorded into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// [`crate::TraceContext`] request id of the sampled observation.
    pub request_id: u64,
    /// The observed value itself.
    pub value: u64,
}

/// Label value used for rerouted observations of a metric whose series
/// cardinality exceeded [`MAX_SERIES`].
pub const OVERFLOW_LABEL: &str = "__overflow__";

#[derive(Debug, Clone, PartialEq)]
struct Slot {
    count: u64,
    hist: Option<Box<Histogram>>,
    exemplar: Option<Exemplar>,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            count: 0,
            hist: None,
            exemplar: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// A read-only view of one occupied window of a [`Series`].
#[derive(Debug, Clone, Copy)]
pub struct WindowData<'a> {
    /// Absolute window index (`t_ms / step_ms`).
    pub win: u64,
    /// Observations (or counter increments summed) in this window.
    pub count: u64,
    /// The window's histogram, for histogram series.
    pub hist: Option<&'a Histogram>,
    /// The window's exemplar, when a sampled observation landed in it.
    pub exemplar: Option<Exemplar>,
}

/// One labelled time series: a metric name, a sorted label set, and a
/// ring of fixed-step windows.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    metric: String,
    labels: Vec<(String, String)>,
    is_hist: bool,
    /// Absolute window index of `slots[0]`.
    start_win: u64,
    slots: VecDeque<Slot>,
}

impl Series {
    fn new(name: String, metric: String, labels: Vec<(String, String)>, is_hist: bool) -> Series {
        Series {
            name,
            metric,
            labels,
            is_hist,
            start_win: 0,
            slots: VecDeque::new(),
        }
    }

    /// Full rendered identity, `metric{k="v",...}` with sorted, escaped
    /// labels (or just `metric` for an empty label set).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The metric name (shared by every label set of the metric).
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// The label set, sorted by key.
    pub fn labels(&self) -> &[(String, String)] {
        &self.labels
    }

    /// Value of one label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Is this a histogram series (vs a counter series)?
    pub fn is_hist(&self) -> bool {
        self.is_hist
    }

    /// Total observations across all retained windows.
    pub fn total(&self) -> u64 {
        self.slots.iter().map(|s| s.count).sum()
    }

    /// Occupied windows, ascending by window index.
    pub fn windows(&self) -> Vec<WindowData<'_>> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| WindowData {
                win: self.start_win + i as u64,
                count: s.count,
                hist: s.hist.as_deref(),
                exemplar: s.exemplar,
            })
            .collect()
    }

    /// Observations in windows `(as_of_win - last_n, as_of_win]`.
    pub fn windowed_count(&self, last_n: u64, as_of_win: u64) -> u64 {
        self.range_slots(last_n, as_of_win).map(|s| s.count).sum()
    }

    /// Merge the histograms of windows `(as_of_win - last_n, as_of_win]`
    /// (empty histogram for counter series or an empty range): windowed
    /// quantiles come from `merged(..).quantile(q)`.
    pub fn merged(&self, last_n: u64, as_of_win: u64) -> Histogram {
        let mut h = Histogram::new();
        for s in self.range_slots(last_n, as_of_win) {
            if let Some(sh) = &s.hist {
                h.merge(sh);
            }
        }
        h
    }

    /// The largest-value exemplar in windows `(as_of_win - last_n, as_of_win]`.
    pub fn exemplar(&self, last_n: u64, as_of_win: u64) -> Option<Exemplar> {
        self.range_slots(last_n, as_of_win)
            .filter_map(|s| s.exemplar)
            .max_by_key(|e| e.value)
    }

    /// The largest-value exemplar across all retained windows.
    pub fn best_exemplar(&self) -> Option<Exemplar> {
        self.slots
            .iter()
            .filter_map(|s| s.exemplar)
            .max_by_key(|e| e.value)
    }

    fn range_slots(&self, last_n: u64, as_of_win: u64) -> impl Iterator<Item = &Slot> {
        let lo = (as_of_win + 1).saturating_sub(last_n); // first included window
        self.slots.iter().enumerate().filter_map(move |(i, s)| {
            let w = self.start_win + i as u64;
            (w >= lo && w <= as_of_win && !s.is_empty()).then_some(s)
        })
    }

    /// Slot for absolute window `win`, advancing the ring as needed.
    /// Returns `None` when `win` has already been evicted (too old).
    fn slot_mut(&mut self, win: u64, cap: usize) -> Option<&mut Slot> {
        if self.slots.is_empty() {
            self.start_win = win;
            self.slots.push_back(Slot::empty());
            return self.slots.back_mut();
        }
        if win < self.start_win {
            return None; // older than the ring
        }
        while self.start_win + (self.slots.len() as u64) <= win {
            if self.slots.len() >= cap.max(1) {
                self.slots.pop_front();
                self.start_win += 1;
            }
            self.slots.push_back(Slot::empty());
        }
        let idx = (win - self.start_win) as usize;
        self.slots.get_mut(idx)
    }
}

/// A deterministic, virtual-clock-driven windowed time-series store.
///
/// See the [module docs](self) for the model. Outside this crate a store
/// is read only: [`crate::Profile::from_events`] is the one place that
/// fills one.
#[derive(Debug, Clone, PartialEq)]
pub struct Tsdb {
    cfg: TsdbConfig,
    series: BTreeMap<String, Series>,
    overflow: u64,
    dropped_late: u64,
}

/// Render the canonical series identity: labels sorted by key, values
/// escaped per the Prometheus text format.
pub fn series_name(metric: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return metric.to_string();
    }
    let mut out = String::with_capacity(metric.len() + 16 * labels.len());
    out.push_str(metric);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(&crate::expo::escape_label_value(v));
        out.push('"');
    }
    out.push('}');
    out
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    v.sort();
    v
}

impl Default for Tsdb {
    fn default() -> Self {
        Tsdb::new(TsdbConfig::default())
    }
}

impl Tsdb {
    /// An empty store of the given shape.
    pub(crate) fn new(cfg: TsdbConfig) -> Tsdb {
        Tsdb {
            cfg,
            series: BTreeMap::new(),
            overflow: 0,
            dropped_late: 0,
        }
    }

    /// Observations rerouted to `__overflow__` series so far.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Observations dropped because their window was already evicted.
    pub fn dropped_late(&self) -> u64 {
        self.dropped_late
    }

    /// Number of live series (including overflow series).
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// All series, ascending by rendered name.
    pub fn series(&self) -> impl Iterator<Item = &Series> {
        self.series.values()
    }

    /// Look up one series by its rendered name.
    pub fn get(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// The newest window index any series has reached.
    pub fn latest_window(&self) -> Option<u64> {
        self.series
            .values()
            .filter(|s| !s.slots.is_empty())
            .map(|s| s.start_win + s.slots.len() as u64 - 1)
            .max()
    }

    /// The oldest retained occupied window index across series.
    pub fn earliest_window(&self) -> Option<u64> {
        self.series
            .values()
            .flat_map(|s| s.windows().first().map(|w| w.win))
            .min()
    }

    /// Add `delta` to the counter series `metric{labels}` at `t_ms`.
    pub(crate) fn counter(&mut self, metric: &str, labels: &[(&str, &str)], t_ms: u64, delta: u64) {
        self.record(metric, labels, t_ms, delta, false, 0, None);
    }

    /// Record one histogram observation into `metric{labels}` at `t_ms`,
    /// optionally carrying the request id of a *sampled* request as an
    /// exemplar (each window keeps its largest-value exemplar).
    pub(crate) fn observe(
        &mut self,
        metric: &str,
        labels: &[(&str, &str)],
        t_ms: u64,
        value: u64,
        exemplar_request: Option<u64>,
    ) {
        self.record(metric, labels, t_ms, 1, true, value, exemplar_request);
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        metric: &str,
        labels: &[(&str, &str)],
        t_ms: u64,
        delta: u64,
        is_hist: bool,
        value: u64,
        exemplar_request: Option<u64>,
    ) {
        let labels = sorted_labels(labels);
        let name = series_name(metric, &labels);
        let (name, labels) =
            if self.series.contains_key(&name) || self.series.len() < self.cfg.max_series {
                (name, labels)
            } else {
                // Cardinality bound hit: reroute into the metric's overflow
                // series (exempt from the bound — it IS the pressure valve)
                // and account loudly.
                self.overflow += delta;
                let labels = vec![("series".to_string(), OVERFLOW_LABEL.to_string())];
                (series_name(metric, &labels), labels)
            };
        let win = t_ms / self.cfg.step_ms;
        let cap = self.cfg.window_slots;
        let series = self
            .series
            .entry(name.clone())
            .or_insert_with(|| Series::new(name, metric.to_string(), labels, is_hist));
        let Some(slot) = series.slot_mut(win, cap) else {
            self.dropped_late += delta;
            return;
        };
        slot.count += delta;
        if is_hist {
            slot.hist.get_or_insert_with(Default::default).record(value);
            if let Some(request_id) = exemplar_request {
                let better = slot.exemplar.is_none_or(|e| value > e.value);
                if better {
                    slot.exemplar = Some(Exemplar { request_id, value });
                }
            }
        }
    }

    /// Replay one windowed write recorded by [`write_event`] through
    /// [`Tsdb::counter`] or [`Tsdb::observe`]. Any other `tsdb.*`
    /// annotation, or a malformed one, writes nothing.
    pub(crate) fn replay(&mut self, name: &str, fields: &[(String, String)]) {
        let field = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let num = |key: &str| field(key).and_then(|v| v.parse::<u64>().ok());
        let (Some(metric), Some(Ok(labels)), Some(t_ms), Some(value)) = (
            field("metric"),
            field("labels").map(|l| crate::expo::parse_label_set(l)),
            num("t_ms"),
            num("value"),
        ) else {
            return;
        };
        let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (&k[..], &v[..])).collect();
        match name {
            COUNTER_EVENT => self.counter(metric, &labels, t_ms, value),
            OBSERVE_EVENT => self.observe(metric, &labels, t_ms, value, num("exemplar_req")),
            _ => {}
        }
    }
}

/// One windowed write as the trace annotation that records it: `name`
/// ([`COUNTER_EVENT`] or [`OBSERVE_EVENT`]) with the metric, the rendered
/// label set, the virtual ms, the value (a counter's delta or the observed
/// value) and, when there is one, the exemplar request id.
pub(crate) fn write_event(
    name: &str,
    metric: &str,
    labels: &[(&str, &str)],
    t_ms: u64,
    value: u64,
    exemplar_request: Option<u64>,
) -> Event {
    let mut fields = vec![
        ("metric".to_string(), metric.to_string()),
        ("labels".to_string(), render_label_set(labels)),
        ("t_ms".to_string(), t_ms.to_string()),
        ("value".to_string(), value.to_string()),
    ];
    if let Some(request_id) = exemplar_request {
        fields.push(("exemplar_req".to_string(), request_id.to_string()));
    }
    Event::Meta {
        name: name.to_string(),
        fields,
    }
}

/// Render a label set as `k="v",k2="v2"` (escaped, in the given order),
/// the form a windowed write's annotation stores and
/// [`crate::expo::parse_label_set`] parses back.
pub fn render_label_set<K: AsRef<str>, V: AsRef<str>>(labels: &[(K, V)]) -> String {
    labels
        .iter()
        .map(|(k, v)| {
            format!(
                "{}=\"{}\"",
                k.as_ref(),
                crate::expo::escape_label_value(v.as_ref())
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// An exact event-time sliding window over good/bad observations.
///
/// Unlike the fixed-step ring windows of [`Tsdb`], this keeps the exact
/// timestamps of the observations currently inside `(now - window_ms,
/// now]` and evicts as `now` advances — the semantics burn-rate alerting
/// needs (`servekit::slo`), at O(1) amortized per pushed event instead
/// of a rescan per evaluation. Pushes must be non-decreasing in time.
#[derive(Debug, Clone)]
pub struct SlidingCounts {
    window_ms: u64,
    entries: VecDeque<(u64, bool)>,
    total: u64,
    bad: u64,
}

impl SlidingCounts {
    /// An empty window of width `window_ms` virtual ms.
    pub fn new(window_ms: u64) -> SlidingCounts {
        SlidingCounts {
            window_ms,
            entries: VecDeque::new(),
            total: 0,
            bad: 0,
        }
    }

    /// Push one observation at `t_ms` (non-decreasing across calls) and
    /// evict everything at or before `t_ms - window_ms`.
    pub fn push(&mut self, t_ms: u64, good: bool) {
        self.entries.push_back((t_ms, good));
        self.total += 1;
        self.bad += u64::from(!good);
        let cutoff = t_ms.saturating_sub(self.window_ms);
        while let Some(&(t, g)) = self.entries.front() {
            if t <= cutoff {
                self.entries.pop_front();
                self.total -= 1;
                self.bad -= u64::from(!g);
            } else {
                break;
            }
        }
    }

    /// Observations currently in the window.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Bad observations currently in the window.
    pub fn bad(&self) -> u64 {
        self.bad
    }

    /// Burn rate of the current window against an error `budget`
    /// (`(bad/total)/budget`; 0.0 when empty or the budget is not
    /// positive).
    pub fn burn(&self, budget: f64) -> f64 {
        if self.total == 0 || budget <= 0.0 {
            0.0
        } else {
            (self.bad as f64 / self.total as f64) / budget
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tsdb {
        Tsdb::new(TsdbConfig {
            step_ms: 100,
            max_series: 4,
            window_slots: 8,
        })
    }

    #[test]
    fn counters_land_in_fixed_step_windows() {
        let mut db = small();
        db.counter("req", &[("tenant", "t0")], 0, 1);
        db.counter("req", &[("tenant", "t0")], 99, 1);
        db.counter("req", &[("tenant", "t0")], 100, 1);
        db.counter("req", &[("tenant", "t0")], 350, 2);
        let s = db.get("req{tenant=\"t0\"}").unwrap();
        let wins: Vec<(u64, u64)> = s.windows().iter().map(|w| (w.win, w.count)).collect();
        assert_eq!(wins, vec![(0, 2), (1, 1), (3, 2)]);
        assert_eq!(s.total(), 5);
        assert_eq!(s.windowed_count(2, 3), 2, "windows (1, 3] hold only w3");
        assert_eq!(s.windowed_count(4, 3), 5);
    }

    #[test]
    fn histogram_windows_give_windowed_quantiles_and_exemplars() {
        let mut db = small();
        db.observe("lat", &[], 10, 5, Some(1));
        db.observe("lat", &[], 20, 900, Some(2));
        db.observe("lat", &[], 150, 7, None);
        let s = db.get("lat").unwrap();
        assert!(s.is_hist());
        // Window 0 keeps the larger observation's exemplar.
        let w0 = &s.windows()[0];
        assert_eq!(
            w0.exemplar,
            Some(Exemplar {
                request_id: 2,
                value: 900
            })
        );
        assert_eq!(w0.hist.unwrap().count(), 2);
        // Windowed quantiles over just window 1 exclude the 900.
        let h = s.merged(1, 1);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p99(), 7);
        // Over both windows the spike dominates p99.
        assert_eq!(s.merged(2, 1).p99(), 900);
        assert_eq!(
            s.exemplar(2, 1),
            Some(Exemplar {
                request_id: 2,
                value: 900
            })
        );
        assert_eq!(s.windows()[1].exemplar, None, "unsampled observation");
    }

    #[test]
    fn cardinality_bound_reroutes_to_overflow_series() {
        let mut db = small(); // max_series = 4
        for i in 0..6 {
            let tenant = format!("t{i}");
            db.counter("req", &[("tenant", &tenant)], 0, 1);
        }
        // 4 real series + 1 overflow series holding the 2 rerouted.
        assert_eq!(db.series_count(), 5);
        assert_eq!(db.overflow(), 2);
        let ovf = db.get("req{series=\"__overflow__\"}").unwrap();
        assert_eq!(ovf.total(), 2);
        // Existing series keep recording after the bound trips.
        db.counter("req", &[("tenant", "t0")], 50, 1);
        assert_eq!(db.get("req{tenant=\"t0\"}").unwrap().total(), 2);
        assert_eq!(db.overflow(), 2);
    }

    #[test]
    fn ring_evicts_old_windows_and_counts_late_drops() {
        let mut db = small(); // 8 slots of 100ms
        db.counter("c", &[], 0, 1);
        db.counter("c", &[], 2_000, 1); // window 20: evicts window 0
        let s = db.get("c").unwrap();
        assert_eq!(
            s.windows().iter().map(|w| w.win).collect::<Vec<_>>(),
            vec![20]
        );
        // An observation for an evicted window is dropped and counted.
        db.counter("c", &[], 100, 3);
        assert_eq!(db.dropped_late(), 3);
        assert_eq!(db.get("c").unwrap().total(), 1);
    }

    #[test]
    fn labels_are_sorted_and_escaped_in_series_names() {
        let mut db = small();
        db.counter("m", &[("z", "1"), ("a", "x\"y\\z\n")], 0, 1);
        let name = "m{a=\"x\\\"y\\\\z\\n\",z=\"1\"}";
        assert!(
            db.get(name).is_some(),
            "have: {:?}",
            db.series().map(|s| s.name()).collect::<Vec<_>>()
        );
        // Same labels in any order hit the same series.
        db.counter("m", &[("a", "x\"y\\z\n"), ("z", "1")], 0, 1);
        assert_eq!(db.series_count(), 1);
        assert_eq!(db.get(name).unwrap().total(), 2);
    }

    #[test]
    fn recorded_writes_fold_to_the_store_the_same_writes_build() {
        let rec = crate::Recorder::enabled();
        let mut direct = Tsdb::default();
        // `exemplar: None` is a counter increment, `Some(e)` a histogram
        // observation carrying exemplar `e`.
        let mut write = |metric: &str,
                         labels: &[(&str, &str)],
                         t_ms: u64,
                         value: u64,
                         exemplar: Option<Option<u64>>| match exemplar {
            None => {
                rec.add_counter_at(metric, labels, t_ms, value);
                direct.counter(metric, labels, t_ms, value);
            }
            Some(e) => {
                rec.observe_at(metric, labels, t_ms, value, e);
                direct.observe(metric, labels, t_ms, value, e);
            }
        };
        write("req", &[("tenant", "t0"), ("db", "a")], 0, 3, None);
        write("req", &[("tenant", "t1")], 120, 1, None);
        write("lat", &[("db", "a\"b\\c\n")], 40, 64, Some(Some(9)));
        write("lat", &[("db", "a\"b\\c\n")], 41, 700, Some(Some(11)));
        write("lat", &[], 41, 5, Some(None));
        // Four series exist, so 7 of these label sets pass the bound and
        // reroute to overflow.
        for i in 0..MAX_SERIES + 3 {
            write("ovf", &[("t", &format!("x{i}"))], 10, 1, None);
        }
        // Past the ring, then back into an evicted window: dropped late.
        let past_ring = STEP_MS * WINDOW_SLOTS as u64 + 500;
        write("req", &[("tenant", "t0"), ("db", "a")], past_ring, 1, None);
        write("req", &[("tenant", "t0"), ("db", "a")], 5, 2, None);
        rec.add_counter("plain", 1);

        let back = crate::parse_jsonl(&rec.to_jsonl()).unwrap();
        let folded = crate::Profile::from_events(&back);
        assert_eq!(folded.tsdb, direct);
        assert_eq!(direct.overflow(), 7);
        assert_eq!(direct.dropped_late(), 2);
        assert_eq!(
            folded
                .tsdb
                .get("lat{db=\"a\\\"b\\\\c\\n\"}")
                .unwrap()
                .best_exemplar(),
            Some(Exemplar {
                request_id: 11,
                value: 700
            })
        );
        // The writes fold into the store, not the annotations, and the
        // store's accounting joins the counters.
        assert!(folded.metas.is_empty(), "{:?}", folded.metas);
        let counters = &folded.metrics.counters;
        assert_eq!(counters["obskit.tsdb.series"], direct.series_count() as u64);
        assert_eq!(counters["obskit.tsdb.overflow"], 7);
        assert_eq!(counters["obskit.tsdb.dropped_late"], 2);
        assert_eq!(counters["plain"], 1);
    }

    #[test]
    fn latest_and_earliest_windows_span_all_series() {
        let mut db = small();
        assert_eq!(db.latest_window(), None);
        db.counter("a", &[], 250, 1);
        db.counter("b", &[], 610, 1);
        assert_eq!(db.earliest_window(), Some(2));
        assert_eq!(db.latest_window(), Some(6));
    }

    #[test]
    fn sliding_counts_match_rescan_semantics() {
        // Reference: burn over (end - w, end] by full rescan.
        let events: Vec<(u64, bool)> = vec![
            (0, false),
            (10, true),
            (500, false),
            (500, false),
            (1_000, true),
            (1_490, true),
            (1_510, true),
            (2_000, false),
        ];
        let w = 1_000u64;
        let budget = 0.1;
        let rescan = |end: u64| {
            let start = end.saturating_sub(w);
            let inside: Vec<_> = events
                .iter()
                .filter(|&&(t, _)| t > start && t <= end)
                .collect();
            if inside.is_empty() {
                0.0
            } else {
                (inside.iter().filter(|&&&(_, g)| !g).count() as f64 / inside.len() as f64) / budget
            }
        };
        let mut sc = SlidingCounts::new(w);
        let mut i = 0;
        while i < events.len() {
            // Push all events sharing this timestamp before evaluating,
            // matching the rescan (which always sees whole tie groups).
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                sc.push(events[i].0, events[i].1);
                i += 1;
            }
            assert_eq!(sc.burn(budget), rescan(t), "at t={t}");
        }
        assert_eq!(sc.burn(0.0), 0.0, "non-positive budget");
    }

    #[test]
    fn sliding_counts_evict_at_exact_boundary() {
        let mut sc = SlidingCounts::new(1_000);
        sc.push(0, false);
        sc.push(1_000, true);
        // (0, 1000]: the t=0 event is outside (t > start is strict).
        assert_eq!(sc.total(), 1);
        assert_eq!(sc.bad(), 0);
        sc.push(1_500, true);
        assert_eq!(sc.total(), 2);
    }
}
