//! Self-consistency voting over sampled SQL candidates.
//!
//! Candidates are executed against the item's database; candidates whose
//! results agree form a vote block, and the SQL of the largest block wins
//! (ties break toward the earliest sample, i.e. the lowest-temperature-index
//! candidate). Invalid or failing candidates vote only for themselves.
//! Samples often repeat one another, so each distinct SQL string is parsed
//! and executed once.

use sqlkit::parse_query;
use storage::{execute_query, Database, ResultSet};

/// Pick the majority candidate by execution-result agreement.
///
/// Returns the first candidate when none executes (all invalid).
pub fn vote_by_execution(db: &Database, candidates: &[String]) -> String {
    if candidates.is_empty() {
        return String::new();
    }
    // One entry per distinct SQL string, in first-seen order: its result
    // signature (None when it fails to parse or execute) and its count.
    let mut distinct: Vec<(&str, Option<String>, usize)> = Vec::new();
    // For each candidate, its entry in `distinct`.
    let mut entry_of = Vec::with_capacity(candidates.len());
    let mut executions = 0u64;
    for sql in candidates {
        let e = match distinct.iter().position(|(s, _, _)| *s == sql.as_str()) {
            Some(e) => e,
            None => {
                let sig = parse_query(sql).ok().and_then(|q| {
                    executions += 1;
                    execute_query(db, &q).ok().map(|rs| signature(&rs))
                });
                distinct.push((sql.as_str(), sig, 0));
                distinct.len() - 1
            }
        };
        distinct[e].2 += 1;
        entry_of.push(e);
    }
    if obskit::enabled() {
        obskit::current().add_counter("core.vote.executions", executions);
    }
    // A candidate's votes: every candidate whose result equals its own.
    let votes_of = |e: usize| match &distinct[e].1 {
        Some(sig) => distinct
            .iter()
            .filter(|(_, other, _)| other.as_ref() == Some(sig))
            .map(|(_, _, n)| n)
            .sum(),
        None => 0,
    };
    let mut best_idx = 0usize;
    let mut best_votes = 0usize;
    for (i, &e) in entry_of.iter().enumerate() {
        let votes = votes_of(e);
        if votes > best_votes {
            best_votes = votes;
            best_idx = i;
        }
    }
    candidates[best_idx].clone()
}

/// Alternative voting scheme: majority over exact SQL strings (no
/// execution). Cheaper but blind to semantically-equal rewrites; the paper's
/// self-consistency votes on execution results, and the `ablate_sc` bench
/// plus unit tests document why that is the better choice.
pub fn vote_by_sql(candidates: &[String]) -> String {
    if candidates.is_empty() {
        return String::new();
    }
    let mut best_idx = 0usize;
    let mut best_votes = 0usize;
    for (i, sql) in candidates.iter().enumerate() {
        let votes = candidates.iter().filter(|s| *s == sql).count();
        if votes > best_votes {
            best_votes = votes;
            best_idx = i;
        }
    }
    candidates[best_idx].clone()
}

/// Order-insensitive result signature.
fn signature(rs: &ResultSet) -> String {
    let mut rows: Vec<String> = rs
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(storage::Value::group_key)
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    rows.sort();
    format!("{}|{}", rs.columns.len(), rows.join(";"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use storage::schema::{ColType, ColumnDef, DbSchema, TableSchema};
    use storage::Value;

    fn db() -> Database {
        let schema = DbSchema {
            db_id: "d".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("x", ColType::Int),
                    ColumnDef::new("y", ColType::Int),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        for i in 0..5 {
            d.insert("t", vec![Value::Int(i), Value::Int(i * 10)])
                .unwrap();
        }
        d
    }

    #[test]
    fn majority_wins() {
        let d = db();
        let candidates = vec![
            "SELECT count(*) FROM t".to_string(),
            "SELECT count(*) FROM t WHERE x >= 0".to_string(), // same result
            "SELECT count(*) FROM t WHERE x > 2".to_string(),  // different
        ];
        let winner = vote_by_execution(&d, &candidates);
        assert_eq!(winner, "SELECT count(*) FROM t");
    }

    #[test]
    fn invalid_candidates_lose() {
        let d = db();
        let candidates = vec![
            "SELECT nonsense FROM nowhere".to_string(),
            "garbage !!".to_string(),
            "SELECT x FROM t".to_string(),
        ];
        let winner = vote_by_execution(&d, &candidates);
        assert_eq!(winner, "SELECT x FROM t");
    }

    #[test]
    fn all_invalid_returns_first() {
        let d = db();
        let candidates = vec!["broken".to_string(), "also broken".to_string()];
        assert_eq!(vote_by_execution(&d, &candidates), "broken");
    }

    #[test]
    fn empty_candidates_give_empty() {
        assert_eq!(vote_by_execution(&db(), &[]), "");
    }

    #[test]
    fn sql_voting_misses_semantic_agreement() {
        let d = db();
        // Three semantically-equal queries written differently plus two
        // identical wrong ones: execution voting finds the majority meaning,
        // string voting is fooled by surface repetition.
        let candidates = vec![
            "SELECT count(*) FROM t".to_string(),
            "SELECT count(*) FROM t WHERE x >= 0".to_string(),
            "SELECT COUNT(*) FROM t".to_string(),
            "SELECT count(*) FROM t WHERE x > 99".to_string(),
            "SELECT count(*) FROM t WHERE x > 99".to_string(),
        ];
        let by_exec = vote_by_execution(&d, &candidates);
        let by_sql = vote_by_sql(&candidates);
        assert_eq!(by_exec, "SELECT count(*) FROM t");
        assert_eq!(by_sql, "SELECT count(*) FROM t WHERE x > 99");
    }

    #[test]
    fn tie_breaks_to_earliest() {
        let d = db();
        let candidates = vec!["SELECT x FROM t".to_string(), "SELECT y FROM t".to_string()];
        assert_eq!(vote_by_execution(&d, &candidates), "SELECT x FROM t");
    }
}
