//! The differential-testing oracle: the original row-at-a-time interpreter,
//! and the agreement rule the columnar engine is held to against it.
//!
//! The columnar engine ([`crate::exec::Engine::Columnar`]) never replaced
//! the tree-walking interpreter — it only front-ends FROM + WHERE when its
//! planner proves the shape safe, and materializes every output cell from
//! the same row store. The interpreter therefore remains fully reachable as
//! the *reference implementation*, and this module pins it down as an
//! explicit entry point. The interpreter re-runs every subquery for every
//! outer row, while the columnar engine runs a subquery whose run read no
//! outer row once per statement; agreement therefore holds that memo to
//! the naive semantics. Both engines read `ON a = b` as `WHERE a = b`
//! (`sql_cmp` equality), so one run per engine covers every join.
//! [`check_agreement`] is the one statement of what "the engines agree"
//! means, and every differential gate calls it:
//!
//! * `crates/storage/tests/exec_differential.rs` runs it on random
//!   databases and queries, and replays the committed regression corpus
//!   under `tests/golden/exec_diff/`;
//! * the `exec-diff` CLI subcommand runs it over the benchmark's gold
//!   queries;
//! * `exec-bench --engine oracle` runs the fixed workload through the
//!   interpreter, the baseline of the step-change perf gate.
//!
//! Keep this module boring: it must not grow behavior of its own, only
//! forward to the interpreter with the columnar engine disabled.

use crate::db::Database;
use crate::error::ExecResult;
use crate::exec::{execute_query_with, Engine, ResultSet};
use crate::value::Value;
use sqlkit::ast::Query;

/// Execute a query through the reference interpreter.
pub fn execute_query_oracle(db: &Database, q: &Query) -> ExecResult<ResultSet> {
    execute_query_with(db, q, Engine::Oracle)
}

/// The engine-agreement rule: the columnar engine and the reference
/// interpreter return bit-identical results or equal errors. Bit-identical
/// is stricter than `PartialEq`: same columns, same row order, and every
/// float cell equal by `to_bits`, so `-0.0` vs `0.0` and NaN payloads
/// cannot silently diverge. `Err` describes the divergence.
pub fn check_agreement(db: &Database, q: &Query) -> Result<(), String> {
    fn bits_eq(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }
    let oracle = execute_query_oracle(db, q);
    let columnar = execute_query_with(db, q, Engine::Columnar);
    let agree = match (&oracle, &columnar) {
        (Ok(a), Ok(b)) => {
            a.columns == b.columns
                && a.rows.len() == b.rows.len()
                && a.rows
                    .iter()
                    .zip(&b.rows)
                    .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| bits_eq(x, y)))
        }
        (Err(a), Err(b)) => a == b,
        _ => false,
    };
    if agree {
        Ok(())
    } else {
        Err(format!(
            "engines diverge\n  oracle:   {oracle:?}\n  columnar: {columnar:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, DbSchema, TableSchema};
    use crate::value::Value;

    #[test]
    fn oracle_and_columnar_agree_on_a_smoke_query() {
        let schema = DbSchema {
            db_id: "o".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("v", ColType::Int),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        let mut db = Database::new(schema);
        for i in 0..100 {
            db.insert("t", vec![Value::Int(i), Value::Int(i % 7)])
                .unwrap();
        }
        let q = sqlkit::parse_query("SELECT v, count(*) FROM t WHERE id < 30 GROUP BY v").unwrap();
        let a = execute_query_oracle(&db, &q).unwrap();
        let b = execute_query_with(&db, &q, Engine::Columnar).unwrap();
        assert_eq!(a, b);
    }
}
