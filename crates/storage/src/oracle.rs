//! The differential-testing oracle: the original row-at-a-time interpreter.
//!
//! The columnar engine ([`crate::exec::Engine::Columnar`]) never replaced
//! the tree-walking interpreter — it only front-ends FROM + WHERE when its
//! planner proves the shape safe, and materializes every output cell from
//! the same row store. The interpreter therefore remains fully reachable as
//! the *reference implementation*, and this module pins it down as an
//! explicit entry point:
//!
//! * the differential proptest suite executes every generated query through
//!   both engines and requires `value_eq`-identical results (or identical
//!   errors);
//! * the `exec-diff` CLI subcommand does the same over the benchmark's gold
//!   queries;
//! * `exec-bench --engine oracle` runs the fixed workload through the
//!   interpreter, the baseline of the step-change perf gate.
//!
//! Keep this module boring: it must not grow behavior of its own, only
//! forward to the interpreter with the columnar engine disabled.

use crate::db::Database;
use crate::error::ExecResult;
use crate::exec::{execute_query_with, Engine, ExecOptions, ResultSet};
use sqlkit::ast::Query;

/// Execute a query through the reference interpreter, default options.
pub fn execute_query_oracle(db: &Database, q: &Query) -> ExecResult<ResultSet> {
    execute_query_oracle_with(db, q, ExecOptions::default())
}

/// Execute through the reference interpreter with explicit options (the
/// engine field is overridden to [`Engine::Oracle`]; join strategy and any
/// future options are honored).
pub fn execute_query_oracle_with(
    db: &Database,
    q: &Query,
    opts: ExecOptions,
) -> ExecResult<ResultSet> {
    execute_query_with(
        db,
        q,
        ExecOptions {
            engine: Engine::Oracle,
            ..opts
        },
    )
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
        let b = execute_query_with(
            &db,
            &q,
            ExecOptions {
                engine: Engine::Columnar,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
