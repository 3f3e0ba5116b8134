//! Scoring: execution accuracy (EX), exact-set match (EM), validity.

use crate::digest::{DigestAccumulator, QueryObs};
use spider_gen::ExampleItem;
use sqlkit::{exact_set_match, parse_query, Query};
use storage::{execute_query, execute_query_analyzed, results_match, Database, Engine};

/// Scores for one (gold, prediction) pair.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemScore {
    /// The prediction parsed and executed without error.
    pub valid: bool,
    /// Execution accuracy: result sets match.
    pub ex: bool,
    /// Exact-set match (values masked, Spider-standard).
    pub em: bool,
}

/// Score one predicted SQL string against an item's gold query.
pub fn score_item(db: &Database, item: &ExampleItem, pred_sql: &str) -> ItemScore {
    score_item_traced(db, item, pred_sql, obskit::TraceContext::disabled(), None)
}

/// [`score_item`] under a request trace context: query execution runs
/// in an `eval.execution` span and the result comparison in an
/// `eval.comparison` span, completing the per-request trace tree
/// (admission → … → execution → comparison).
///
/// With `digests`, the prediction runs through the analyzed executor (its
/// `storage.exec` span opens inside `eval.execution`) and every prediction
/// that parses is folded into the rollup with its EX verdict; one that
/// fails to execute is folded with zeroed counters, so digest counts and
/// EX-failure rates still include it. Scores are identical on every path.
pub fn score_item_traced(
    db: &Database,
    item: &ExampleItem,
    pred_sql: &str,
    trace: obskit::TraceContext,
    digests: Option<&mut DigestAccumulator>,
) -> ItemScore {
    let Ok(pred) = parse_query(pred_sql) else {
        return ItemScore::default();
    };
    let em = exact_set_match(&item.gold, &pred);
    let executed = {
        let (_span, xctx) = trace.span("eval.execution");
        let pred_rs = if digests.is_some() {
            execute_query_analyzed(db, &pred, Engine::default(), None, xctx).map(|an| {
                let obs = QueryObs {
                    exec_ns: an.plan.total_self_ns(),
                    rows_scanned: an.plan.rows_scanned(),
                };
                (an.result, obs)
            })
        } else {
            execute_query(db, &pred).map(|rs| (rs, QueryObs::default()))
        };
        pred_rs.map(|(pred_rs, obs)| {
            let gold_rs = execute_query(db, &item.gold).expect("gold queries always execute");
            (pred_rs, gold_rs, obs)
        })
    };
    // EM can hold even for un-executable predictions in principle, but
    // Spider counts such predictions as failures on both metrics.
    let (score, obs) = match executed {
        Ok((pred_rs, gold_rs, obs)) => {
            let ordered = has_top_level_order(&item.gold);
            let ex = {
                let (_span, _) = trace.span("eval.comparison");
                results_match(&gold_rs, &pred_rs, ordered)
            };
            let score = ItemScore {
                valid: true,
                ex,
                em,
            };
            (score, obs)
        }
        Err(_) => (ItemScore::default(), QueryObs::default()),
    };
    if let Some(acc) = digests {
        acc.record(&pred, obs, Some(score.ex));
    }
    score
}

fn has_top_level_order(q: &Query) -> bool {
    match q {
        Query::Select(s) => !s.order_by.is_empty(),
        Query::Compound { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gen::{Benchmark, BenchmarkConfig};

    fn setup() -> Benchmark {
        Benchmark::generate(BenchmarkConfig::tiny())
    }

    #[test]
    fn gold_scores_perfectly_against_itself() {
        let b = setup();
        for item in &b.dev[..10.min(b.dev.len())] {
            let s = score_item(b.db(item), item, &item.gold_sql);
            assert!(s.valid && s.ex && s.em, "{}", item.gold_sql);
        }
    }

    #[test]
    fn garbage_scores_zero() {
        let b = setup();
        let item = &b.dev[0];
        let s = score_item(b.db(item), item, "not sql at all");
        assert!(!s.valid && !s.ex && !s.em);
    }

    #[test]
    fn unknown_table_is_invalid() {
        let b = setup();
        let item = &b.dev[0];
        let s = score_item(b.db(item), item, "SELECT x FROM nonexistent_table");
        assert!(!s.valid);
    }

    /// A dev item whose gold is a bare single-block SELECT (no WHERE, no
    /// grouping) so a `WHERE <tautology>` variant stays comparable.
    fn bare_item(b: &Benchmark) -> &spider_gen::ExampleItem {
        b.dev
            .iter()
            .find(|e| {
                matches!(&e.gold, sqlkit::Query::Select(s)
                    if s.where_cond.is_none()
                        && s.group_by.is_empty()
                        && s.order_by.is_empty()
                        && s.limit.is_none()
                        && !s.distinct)
            })
            .expect("tiny bench has a bare select")
    }

    #[test]
    fn semantically_equal_but_differently_written_passes_ex() {
        let b = setup();
        let item = bare_item(&b);
        // A WHERE-true variant returns the same result but fails EM.
        let variant = format!("{} WHERE 1 = 1", item.gold_sql);
        let s = score_item(b.db(item), item, &variant);
        assert!(s.valid, "{variant}");
        assert!(s.ex, "same result set: {variant}");
        assert!(!s.em, "different clause structure");
    }

    #[test]
    fn wrong_result_fails_ex_but_may_be_valid() {
        let b = setup();
        let item = bare_item(&b);
        let variant = format!("{} WHERE 1 = 0", item.gold_sql);
        let s = score_item(b.db(item), item, &variant);
        assert!(s.valid && !s.ex, "{variant}");
    }
}
