//! In-memory database: schema plus table contents.

use crate::column::ColumnarTable;
use crate::schema::{DbSchema, TableSchema};
use crate::value::{Row, Value};
use crate::ExecError;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A table's contents.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    /// Rows in insertion order.
    pub rows: Vec<Row>,
    /// Lazily built columnar view; invalidated on insert. The row store
    /// above stays the source of truth — the columnar form only selects
    /// rowids, never materializes output cells.
    columnar: OnceLock<ColumnarTable>,
}

/// An in-memory database instance.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema.
    pub schema: DbSchema,
    /// Lowercased table name → contents.
    tables: BTreeMap<String, TableData>,
    /// Lazily collected exact statistics; invalidated on insert.
    stats: OnceLock<crate::stats::DbStats>,
}

impl Database {
    /// Create an empty database for a schema.
    pub fn new(schema: DbSchema) -> Database {
        let tables = schema
            .tables
            .iter()
            .map(|t| (t.name.to_lowercase(), TableData::default()))
            .collect();
        Database {
            schema,
            tables,
            stats: OnceLock::new(),
        }
    }

    /// Insert a row, validating arity against the schema.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), ExecError> {
        let key = table.to_lowercase();
        let schema = self
            .schema
            .table(table)
            .ok_or_else(|| ExecError::UnknownTable(table.to_string()))?;
        if row.len() != schema.columns.len() {
            return Err(ExecError::Arity {
                table: table.to_string(),
                expected: schema.columns.len(),
                got: row.len(),
            });
        }
        let td = self.tables.get_mut(&key).expect("table map mirrors schema");
        td.rows.push(row);
        td.columnar = OnceLock::new();
        self.stats = OnceLock::new();
        Ok(())
    }

    /// The rows of a table (empty slice if unknown — callers validate first).
    pub fn rows(&self, table: &str) -> Option<&[Row]> {
        self.tables
            .get(&table.to_lowercase())
            .map(|t| t.rows.as_slice())
    }

    /// The columnar view of a table, built on first use and cached until the
    /// next insert. `None` for unknown tables.
    pub(crate) fn columnar(&self, table: &str) -> Option<&ColumnarTable> {
        let td = self.tables.get(&table.to_lowercase())?;
        let n_cols = self.schema.table(table)?.columns.len();
        Some(
            td.columnar
                .get_or_init(|| ColumnarTable::build(&td.rows, n_cols)),
        )
    }

    /// Exact statistics for this database, collected on first use and cached
    /// until the next insert. The columnar planner and `EXPLAIN` both resolve
    /// their stats through here when the caller does not supply any, so plan
    /// decisions are identical across entry points.
    pub fn cached_stats(&self) -> &crate::stats::DbStats {
        self.stats.get_or_init(|| crate::stats::collect(self))
    }

    /// Look up a table schema by name.
    pub fn table_schema(&self, table: &str) -> Option<&TableSchema> {
        self.schema.table(table)
    }

    /// Total rows across all tables (used by content-sampling prompts).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }

    /// First `n` rows of a table, for prompt content sampling.
    pub fn sample_rows(&self, table: &str, n: usize) -> Vec<&Row> {
        self.rows(table)
            .map(|rows| rows.iter().take(n).collect())
            .unwrap_or_default()
    }

    /// Distinct values of one column (used by the simulated LLM's value
    /// linking and by generators picking realistic predicates).
    pub fn column_values(&self, table: &str, column: &str) -> Vec<Value> {
        let Some(schema) = self.table_schema(table) else {
            return Vec::new();
        };
        let Some(idx) = schema.column_index(column) else {
            return Vec::new();
        };
        let Some(rows) = self.rows(table) else {
            return Vec::new();
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for r in rows {
            let v = &r[idx];
            if !v.is_null() && seen.insert(v.group_key()) {
                out.push(v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef};

    fn db() -> Database {
        let schema = DbSchema {
            db_id: "d".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        Database::new(schema)
    }

    #[test]
    fn insert_and_read_back() {
        let mut d = db();
        d.insert("t", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        assert_eq!(d.rows("t").unwrap().len(), 1);
        assert_eq!(d.total_rows(), 1);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut d = db();
        assert!(matches!(
            d.insert("t", vec![Value::Int(1)]),
            Err(ExecError::Arity { .. })
        ));
    }

    #[test]
    fn insert_rejects_unknown_table() {
        let mut d = db();
        assert!(matches!(
            d.insert("nope", vec![]),
            Err(ExecError::UnknownTable(_))
        ));
    }

    #[test]
    fn column_values_dedup_and_skip_null() {
        let mut d = db();
        d.insert("t", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        d.insert("t", vec![Value::Int(2), Value::Str("a".into())])
            .unwrap();
        d.insert("t", vec![Value::Int(3), Value::Null]).unwrap();
        let vals = d.column_values("t", "name");
        assert_eq!(vals.len(), 1);
    }
}
