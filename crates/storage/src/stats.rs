//! Table and column statistics for the columnar planner and `EXPLAIN`.
//!
//! At current Spider-subset scale every database fits in memory, so the
//! collector computes *exact* statistics in one pass: row counts, exact NDV,
//! min/max, null fractions, and a log2 histogram of value byte-widths per
//! column (reusing [`obskit::Histogram`] so the width distribution shares the
//! fleet's histogram bucketing). The columnar planner reads them for
//! pushdown estimates and join order, and the `explain` module for its
//! cardinality estimates, both through [`Database::cached_stats`];
//! execution-time observations (predicate selectivities, per-operator row
//! counts) are accumulated separately into the current obskit sink by
//! [`crate::explain::Plan::record_observations`].
//!
//! [`DbStats::to_jsonl`] prints them for the `stats` subcommand: one header
//! line identifying the database, then one JSON object per table.

use crate::db::Database;
use crate::value::Value;
use obskit::{json_escape_into, Histogram};
use std::fmt::Write as _;

/// Exact statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Lowercased column name.
    pub name: String,
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Number of NULLs.
    pub nulls: u64,
    /// Smallest non-null value (SQL comparison order), if any.
    pub min: Option<Value>,
    /// Largest non-null value, if any.
    pub max: Option<Value>,
    /// Log2 histogram of value byte-widths (NULL counts as width 0).
    pub width: Histogram,
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Lowercased table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Look up a column's stats by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        let lower = name.to_lowercase();
        self.columns.iter().find(|c| c.name == lower)
    }
}

impl ColumnStats {
    /// Fraction of rows that are NULL in this column, given the table's
    /// row count (0.0 for an empty table).
    pub fn null_fraction(&self, table_rows: u64) -> f64 {
        if table_rows == 0 {
            0.0
        } else {
            self.nulls as f64 / table_rows as f64
        }
    }
}

/// Statistics for a whole database.
#[derive(Debug, Clone, PartialEq)]
pub struct DbStats {
    /// Database id (from the schema).
    pub db_id: String,
    /// Per-table stats, in schema order.
    pub tables: Vec<TableStats>,
}

impl DbStats {
    /// Look up a table's stats by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        let lower = name.to_lowercase();
        self.tables.iter().find(|t| t.name == lower)
    }
}

/// Byte width of a value as stored (NULL → 0, numbers → 8, strings → UTF-8
/// length). Feeds the per-column width histograms.
fn value_width(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
    }
}

/// Compute exact statistics for every table and column of `db`, in schema
/// order (deterministic output for a deterministic database).
pub fn collect(db: &Database) -> DbStats {
    let mut tables = Vec::with_capacity(db.schema.tables.len());
    for ts in &db.schema.tables {
        let rows = db.rows(&ts.name).unwrap_or(&[]);
        let mut columns = Vec::with_capacity(ts.columns.len());
        for (ci, col) in ts.columns.iter().enumerate() {
            let mut distinct = std::collections::BTreeSet::new();
            let mut nulls = 0u64;
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            let mut width = Histogram::default();
            for row in rows {
                let v = &row[ci];
                width.record(value_width(v));
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                distinct.insert(v.group_key());
                min = Some(match min {
                    Some(m) if m.total_cmp(v) != std::cmp::Ordering::Greater => m,
                    _ => v,
                });
                max = Some(match max {
                    Some(m) if m.total_cmp(v) != std::cmp::Ordering::Less => m,
                    _ => v,
                });
            }
            columns.push(ColumnStats {
                name: col.name.to_lowercase(),
                ndv: distinct.len() as u64,
                nulls,
                min: min.cloned(),
                max: max.cloned(),
                width,
            });
        }
        tables.push(TableStats {
            name: ts.name.to_lowercase(),
            rows: rows.len() as u64,
            columns,
        });
    }
    DbStats {
        db_id: db.schema.db_id.clone(),
        tables,
    }
}

// ---- JSONL serialization ----

/// Tagged string encoding for an optional value: `""` = none, else the first
/// two characters are a type tag (`i:` int, `f:` float, `s:` string). Floats
/// use `{:?}` (shortest round-trip representation).
fn encode_value(v: &Option<Value>) -> String {
    match v {
        None => String::new(),
        Some(Value::Int(i)) => format!("i:{i}"),
        Some(Value::Float(f)) => format!("f:{f:?}"),
        Some(Value::Str(s)) => format!("s:{s}"),
        Some(Value::Null) => String::new(),
    }
}

fn hist_json(h: &Histogram, out: &mut String) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max()
    );
    for (i, (bucket, n)) in h.occupied().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{bucket},{n}]");
    }
    out.push_str("]}");
}

impl DbStats {
    /// Serialize as JSONL: a `{"db":...,"version":1}` header line followed by
    /// one line per table.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"db\":\"");
        json_escape_into(&mut out, &self.db_id);
        out.push_str("\",\"version\":1}\n");
        for t in &self.tables {
            out.push_str("{\"table\":\"");
            json_escape_into(&mut out, &t.name);
            let _ = write!(out, "\",\"rows\":{},\"columns\":[", t.rows);
            for (i, c) in t.columns.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":\"");
                json_escape_into(&mut out, &c.name);
                let _ = write!(out, "\",\"ndv\":{},\"nulls\":{},\"min\":\"", c.ndv, c.nulls);
                json_escape_into(&mut out, &encode_value(&c.min));
                out.push_str("\",\"max\":\"");
                json_escape_into(&mut out, &encode_value(&c.max));
                out.push_str("\",\"width\":");
                hist_json(&c.width, &mut out);
                out.push('}');
            }
            out.push_str("]}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, DbSchema, TableSchema};
    use obskit::Json;

    fn db() -> Database {
        let schema = DbSchema {
            db_id: "stats_db".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                    ColumnDef::new("score", ColType::Float),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        let rows = [
            (1, Some("alpha"), Some(1.5)),
            (2, Some("beta"), None),
            (3, None, Some(2.5)),
            (4, Some("alpha"), Some(1.5)),
        ];
        for (id, name, score) in rows {
            d.insert(
                "t",
                vec![
                    Value::Int(id),
                    name.map(|s| Value::Str(s.into())).unwrap_or(Value::Null),
                    score.map(Value::Float).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn collect_computes_exact_stats() {
        let s = collect(&db());
        assert_eq!(s.db_id, "stats_db");
        let t = s.table("t").unwrap();
        assert_eq!(t.rows, 4);
        let id = t.column("id").unwrap();
        assert_eq!(id.ndv, 4);
        assert_eq!(id.nulls, 0);
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(4)));
        let name = t.column("name").unwrap();
        assert_eq!(name.ndv, 2);
        assert_eq!(name.nulls, 1);
        assert!((name.null_fraction(t.rows) - 0.25).abs() < 1e-12);
        assert_eq!(name.min, Some(Value::Str("alpha".into())));
        assert_eq!(name.max, Some(Value::Str("beta".into())));
        // Width histogram saw every row (NULL recorded as width 0).
        assert_eq!(name.width.count(), 4);
    }

    #[test]
    fn jsonl_survives_awkward_identifiers() {
        let schema = DbSchema {
            db_id: "we\"ird\\db".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("c", ColType::Text)],
                primary_key: vec![],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        d.insert("t", vec![Value::Str("a\"b\\c\nd\te".into())])
            .unwrap();
        let text = collect(&d).to_jsonl();
        let lines: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert_eq!(
            lines[0].get("db").and_then(Json::as_str),
            Some("we\"ird\\db")
        );
        let Some(Json::Arr(cols)) = lines[1].get("columns") else {
            panic!("{text}")
        };
        let min = cols[0].get("min").and_then(Json::as_str);
        assert_eq!(min, Some("s:a\"b\\c\nd\te"));
    }

    #[test]
    fn empty_table_has_empty_stats() {
        let schema = DbSchema {
            db_id: "e".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("c", ColType::Int)],
                primary_key: vec![],
            }],
            foreign_keys: vec![],
        };
        let d = Database::new(schema);
        let s = collect(&d);
        let c = &s.tables[0].columns[0];
        assert_eq!((c.ndv, c.nulls), (0, 0));
        assert_eq!(c.min, None);
        assert_eq!(c.null_fraction(0), 0.0);
    }
}
