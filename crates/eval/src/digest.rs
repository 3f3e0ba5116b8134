//! Query digests: fleet-level rollup of executed queries grouped by
//! structural fingerprint.
//!
//! Every executed prediction is reduced to its [`sqlkit::Skeleton`] and
//! grouped under the skeleton's 64-bit [`fingerprint`]; each group
//! accumulates execution counts, total executor self-time, rows scanned and
//! EX outcomes. The rollup answers "which query *shapes* dominate executor
//! time / scan volume / failures" across a whole benchmark or serving run,
//! the way a database's statement-digest view does.
//!
//! Rows scanned count what the executor actually ran: the columnar engine
//! runs an uncorrelated subquery once per statement, so its scans count
//! once, while a correlated subquery's scans count once per outer row that
//! reached it.
//!
//! [`fingerprint`]: sqlkit::Skeleton::fingerprint

use sqlkit::{Query, Skeleton};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Observation attached to one executed query: executor self-time and rows
/// scanned, both taken from the analyzed plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryObs {
    /// Total executor self-time in nanoseconds (sums to the `storage.exec`
    /// span for the query).
    pub exec_ns: u64,
    /// Rows read out of base-table scans.
    pub rows_scanned: u64,
}

/// Accumulated statistics for one structural fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    /// Structural fingerprint (grouping key).
    pub fingerprint: u64,
    /// Rendered skeleton, e.g. `SELECT _ FROM WHERE _ = _`.
    pub skeleton: String,
    /// Number of executions grouped here.
    pub count: u64,
    /// Total executor self-time across all executions.
    pub exec_ns: u64,
    /// Total rows scanned across all executions.
    pub rows_scanned: u64,
    /// Executions scored for EX.
    pub ex_scored: u64,
    /// Scored executions that failed EX.
    pub ex_fail: u64,
}

impl DigestEntry {
    /// EX failure rate in percent over scored executions (0 when unscored).
    pub fn ex_fail_pct(&self) -> f64 {
        if self.ex_scored == 0 {
            0.0
        } else {
            100.0 * self.ex_fail as f64 / self.ex_scored as f64
        }
    }
}

/// Rollup of executed queries keyed by structural fingerprint.
#[derive(Debug, Clone, Default)]
pub struct DigestAccumulator {
    entries: HashMap<u64, DigestEntry>,
}

impl DigestAccumulator {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one executed query into the rollup. `ex` is `Some(outcome)`
    /// when the execution was scored for execution accuracy.
    pub fn record(&mut self, q: &Query, obs: QueryObs, ex: Option<bool>) {
        let skel = Skeleton::of(q);
        let fp = skel.fingerprint();
        let e = self.entries.entry(fp).or_insert_with(|| DigestEntry {
            fingerprint: fp,
            skeleton: skel.render(),
            count: 0,
            exec_ns: 0,
            rows_scanned: 0,
            ex_scored: 0,
            ex_fail: 0,
        });
        e.count += 1;
        e.exec_ns += obs.exec_ns;
        e.rows_scanned += obs.rows_scanned;
        if let Some(ok) = ex {
            e.ex_scored += 1;
            e.ex_fail += u64::from(!ok);
        }
    }

    /// Merge another rollup into this one (used to combine worker-thread
    /// partials; merging is order-independent).
    pub fn merge(&mut self, other: &DigestAccumulator) {
        for e in other.entries.values() {
            let t = self
                .entries
                .entry(e.fingerprint)
                .or_insert_with(|| DigestEntry {
                    fingerprint: e.fingerprint,
                    skeleton: e.skeleton.clone(),
                    count: 0,
                    exec_ns: 0,
                    rows_scanned: 0,
                    ex_scored: 0,
                    ex_fail: 0,
                });
            t.count += e.count;
            t.exec_ns += e.exec_ns;
            t.rows_scanned += e.rows_scanned;
            t.ex_scored += e.ex_scored;
            t.ex_fail += e.ex_fail;
        }
    }

    /// Number of distinct fingerprints.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total executions recorded.
    pub fn total_count(&self) -> u64 {
        self.entries.values().map(|e| e.count).sum()
    }

    /// Top `n` digests, ordered by rows scanned (desc), then execution count
    /// (desc), then fingerprint (asc). The sort key deliberately excludes
    /// wall-clock time so the ranking — and any golden built on it — is
    /// deterministic across runs and thread counts.
    pub fn top(&self, n: usize) -> Vec<&DigestEntry> {
        let mut v: Vec<&DigestEntry> = self.entries.values().collect();
        v.sort_by(|a, b| {
            b.rows_scanned
                .cmp(&a.rows_scanned)
                .then(b.count.cmp(&a.count))
                .then(a.fingerprint.cmp(&b.fingerprint))
        });
        v.truncate(n);
        v
    }

    /// Render the top-`n` digests as a markdown table. `canonical` zeroes
    /// the (non-deterministic) time column so the output is byte-stable.
    pub fn render_top(&self, n: usize, canonical: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## Query digests (top {n} by rows scanned)");
        out.push('\n');
        let _ = writeln!(
            out,
            "| digest | count | rows scanned | exec time | EX fail | skeleton |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        for e in self.top(n) {
            let ns = if canonical { 0 } else { e.exec_ns };
            let _ = writeln!(
                out,
                "| {:016x} | {} | {} | {}ns | {}/{} | `{}` |",
                e.fingerprint, e.count, e.rows_scanned, ns, e.ex_fail, e.ex_scored, e.skeleton
            );
        }
        let _ = writeln!(
            out,
            "\n{} executions over {} distinct shapes.",
            self.total_count(),
            self.len()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlkit::parse_query;

    fn obs(ns: u64, rows: u64) -> QueryObs {
        QueryObs {
            exec_ns: ns,
            rows_scanned: rows,
        }
    }

    #[test]
    fn structurally_equal_queries_share_a_digest() {
        let mut acc = DigestAccumulator::new();
        let a = parse_query("SELECT name FROM singer WHERE age > 40").unwrap();
        let b = parse_query("SELECT title FROM song WHERE sales > 100").unwrap();
        let c = parse_query("SELECT count(*) FROM singer").unwrap();
        acc.record(&a, obs(10, 5), Some(true));
        acc.record(&b, obs(20, 7), Some(false));
        acc.record(&c, obs(5, 5), None);
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.total_count(), 3);
        let top = acc.top(10);
        assert_eq!(top[0].count, 2);
        assert_eq!(top[0].rows_scanned, 12);
        assert_eq!(top[0].exec_ns, 30);
        assert_eq!(top[0].ex_scored, 2);
        assert_eq!(top[0].ex_fail, 1);
        assert!((top[0].ex_fail_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_order_independent() {
        let q1 = parse_query("SELECT name FROM singer").unwrap();
        let q2 = parse_query("SELECT name FROM singer WHERE age > 1").unwrap();
        let mut a = DigestAccumulator::new();
        a.record(&q1, obs(1, 2), Some(true));
        let mut b = DigestAccumulator::new();
        b.record(&q2, obs(3, 4), Some(false));
        b.record(&q1, obs(5, 6), None);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.render_top(10, true), ba.render_top(10, true));
        assert_eq!(ab.total_count(), 3);
    }

    #[test]
    fn canonical_render_zeroes_time_only() {
        let mut acc = DigestAccumulator::new();
        let q = parse_query("SELECT name FROM singer").unwrap();
        acc.record(&q, obs(12345, 9), Some(true));
        let canon = acc.render_top(5, true);
        assert!(canon.contains("| 0ns |"));
        assert!(canon.contains("| 9 |"), "rows survive: {canon}");
        let live = acc.render_top(5, false);
        assert!(live.contains("| 12345ns |"));
    }

    #[test]
    fn top_truncates_and_ranks_by_rows_scanned() {
        let mut acc = DigestAccumulator::new();
        let big = parse_query("SELECT name FROM singer WHERE age > 40").unwrap();
        let small = parse_query("SELECT count(*) FROM singer").unwrap();
        acc.record(&big, obs(1, 1000), None);
        acc.record(&small, obs(999, 1), None);
        let top = acc.top(1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].rows_scanned, 1000);
    }
}
