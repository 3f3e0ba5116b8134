//! # storage — in-memory relational engine
//!
//! Executes the Spider SQL subset against in-memory databases so the harness
//! can score **execution accuracy** (EX): run gold and predicted SQL on the
//! same database and compare result sets. This substitutes for the SQLite
//! executions the paper performs; the supported surface (joins, aggregation,
//! group/having, order/limit, set ops, nested and correlated subqueries,
//! LIKE / IN / BETWEEN / IS NULL, three-valued logic) covers every query the
//! benchmark generator and the simulated models emit.
//!
//! One equality serves every predicate: `ON a = b` means what `WHERE a = b`
//! means, [`Value::sql_cmp`] equality with each column resolved to its first
//! occurrence in scope. So `-0.0` joins `0.0`, NaN joins every number, and
//! distinct integers beyond 2^53 never join each other, whichever engine
//! runs.
//!
//! EX comparison semantics (see [`compare`] for the full statement): column
//! count and row count must agree; rows compare as an order-insensitive
//! multiset unless the gold query has a top-level ORDER BY; numeric cells
//! compare with tolerance `|x − y| ≤ 1e-6 · max(|x|, |y|, 1)` (so `2 ==
//! 2.0` and `-0.0 == 0.0`); NULL equals only NULL; strings are byte-exact.
//!
//! ```
//! use storage::{Database, execute_query};
//! use storage::schema::{ColType, ColumnDef, DbSchema, TableSchema};
//! use storage::Value;
//!
//! let schema = DbSchema {
//!     db_id: "demo".into(),
//!     tables: vec![TableSchema {
//!         name: "t".into(),
//!         columns: vec![ColumnDef::new("x", ColType::Int)],
//!         primary_key: vec![0],
//!     }],
//!     foreign_keys: vec![],
//! };
//! let mut db = Database::new(schema);
//! db.insert("t", vec![Value::Int(7)]).unwrap();
//! let q = sqlkit::parse_query("SELECT count(*) FROM t").unwrap();
//! let rs = execute_query(&db, &q).unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```

#![warn(missing_docs)]

mod column;
pub mod compare;
pub mod db;
pub mod error;
pub mod exec;
pub mod explain;
mod index;
mod kernels;
pub mod oracle;
pub mod pagestore;
mod planner;
pub mod schema;
pub mod stats;
pub mod value;

pub use compare::{results_match, value_eq};
pub use db::Database;
pub use error::{ExecError, ExecResult};
pub use exec::{
    execute_query, execute_query_analyzed, execute_query_with, like_match, Analyzed, Engine,
    ResultSet,
};
pub use explain::{explain_query, OpKind, OpStats, Plan, PlanNode};
pub use oracle::{check_agreement, execute_query_oracle};
pub use pagestore::{
    load_database, persist_database, recover_store, CrashPoint, StoreError, StoreInfo, StoreResult,
};
pub use schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
pub use stats::{collect, ColumnStats, DbStats, TableStats};
pub use value::{Row, Value};
