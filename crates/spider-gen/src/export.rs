//! Benchmark export: dump a generated benchmark to portable files.
//!
//! * one SQL dump per database (`CREATE TABLE` DDL + `INSERT` statements,
//!   loadable into SQLite as-is);
//! * `train.jsonl` / `dev.jsonl` in the Spider record shape
//!   (`db_id`, `question`, `question_realistic`, `query`, `hardness`);
//! * `tables.jsonl` describing every schema (tables, columns, types, keys).
//!
//! JSON is emitted by a small hand-rolled writer (the workspace deliberately
//! avoids extra dependencies beyond the approved list).

use crate::bench_set::{Benchmark, ExampleItem};
use obskit::json_escape;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use storage::{Database, Value};

/// One benchmark example as a JSON line.
pub fn example_to_json(e: &ExampleItem) -> String {
    format!(
        "{{\"id\":{},\"db_id\":\"{}\",\"question\":\"{}\",\"question_realistic\":\"{}\",\"query\":\"{}\",\"hardness\":\"{}\",\"template\":\"{}\"}}",
        e.id,
        json_escape(&e.db_id),
        json_escape(&e.question),
        json_escape(&e.question_realistic),
        json_escape(&e.gold_sql),
        e.hardness.as_str(),
        e.template,
    )
}

/// A database as a SQLite-loadable SQL dump.
pub fn database_to_sql(db: &Database) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- database: {}", db.schema.db_id);
    for t in &db.schema.tables {
        let _ = writeln!(out, "CREATE TABLE {} (", t.name);
        for (i, c) in t.columns.iter().enumerate() {
            let comma = if i + 1 < t.columns.len() || !t.primary_key.is_empty() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "  {} {}{}", c.name, c.ctype.sql_name(), comma);
        }
        if let Some(&pk) = t.primary_key.first() {
            let _ = writeln!(out, "  PRIMARY KEY ({})", t.columns[pk].name);
        }
        let _ = writeln!(out, ");");
        if let Some(rows) = db.rows(&t.name) {
            for row in rows {
                let cells: Vec<String> = row.iter().map(sql_literal).collect();
                let _ = writeln!(out, "INSERT INTO {} VALUES ({});", t.name, cells.join(", "));
            }
        }
    }
    for fk in &db.schema.foreign_keys {
        let _ = writeln!(
            out,
            "-- FOREIGN KEY: {}.{} -> {}.{}",
            fk.from_table, fk.from_column, fk.to_table, fk.to_column
        );
    }
    out
}

fn sql_literal(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => format!("{f}"),
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

/// Schema description as a JSON line (Spider `tables.json` flavour).
pub fn schema_to_json(db: &Database) -> String {
    let tables: Vec<String> = db
        .schema
        .tables
        .iter()
        .map(|t| {
            let cols: Vec<String> = t
                .columns
                .iter()
                .map(|c| {
                    format!(
                        "{{\"name\":\"{}\",\"type\":\"{}\"}}",
                        json_escape(&c.name),
                        c.ctype.sql_name()
                    )
                })
                .collect();
            format!(
                "{{\"name\":\"{}\",\"columns\":[{}],\"primary_key\":{:?}}}",
                json_escape(&t.name),
                cols.join(","),
                t.primary_key
            )
        })
        .collect();
    let fks: Vec<String> = db
        .schema
        .foreign_keys
        .iter()
        .map(|fk| {
            format!(
                "{{\"from\":\"{}.{}\",\"to\":\"{}.{}\"}}",
                json_escape(&fk.from_table),
                json_escape(&fk.from_column),
                json_escape(&fk.to_table),
                json_escape(&fk.to_column)
            )
        })
        .collect();
    format!(
        "{{\"db_id\":\"{}\",\"tables\":[{}],\"foreign_keys\":[{}]}}",
        json_escape(&db.schema.db_id),
        tables.join(","),
        fks.join(",")
    )
}

/// Export the whole benchmark to `dir`:
/// `databases/<db_id>.sql`, `train.jsonl`, `dev.jsonl`, `tables.jsonl`.
pub fn export_benchmark(bench: &Benchmark, dir: &Path) -> std::io::Result<()> {
    let db_dir = dir.join("databases");
    std::fs::create_dir_all(&db_dir)?;

    for (db_id, db) in &bench.databases {
        std::fs::File::create(db_dir.join(format!("{db_id}.sql")))?
            .write_all(database_to_sql(db).as_bytes())?;
    }

    let mut tables = std::fs::File::create(dir.join("tables.jsonl"))?;
    for db in bench.databases.values() {
        writeln!(tables, "{}", schema_to_json(db))?;
    }

    for (name, items) in [("train.jsonl", &bench.train), ("dev.jsonl", &bench.dev)] {
        let mut f = std::fs::File::create(dir.join(name))?;
        for e in items {
            writeln!(f, "{}", example_to_json(e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_set::BenchmarkConfig;

    #[test]
    fn example_json_is_wellformed_ish() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        let line = example_to_json(&b.dev[0]);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"db_id\":"));
        assert!(line.contains("\"query\":"));
        // No raw newlines inside a JSONL record.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn sql_dump_contains_ddl_and_rows() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        let db = b.databases.values().next().unwrap();
        let dump = database_to_sql(db);
        assert!(dump.contains("CREATE TABLE"));
        assert!(dump.contains("INSERT INTO"));
        assert!(dump.contains("PRIMARY KEY"));
    }

    #[test]
    fn export_writes_all_files() {
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        let dir = std::env::temp_dir().join("dail_sql_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        export_benchmark(&b, &dir).unwrap();
        assert!(dir.join("train.jsonl").exists());
        assert!(dir.join("dev.jsonl").exists());
        assert!(dir.join("tables.jsonl").exists());
        let dbs = std::fs::read_dir(dir.join("databases")).unwrap().count();
        assert_eq!(dbs, b.databases.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dump_round_trips_through_the_parser() {
        // Every CREATE TABLE in the dump must be valid DDL per our prompt
        // parser's expectations (sanity: starts/ends correctly).
        let b = Benchmark::generate(BenchmarkConfig::tiny());
        let db = b.databases.values().next().unwrap();
        let dump = database_to_sql(db);
        let creates = dump.matches("CREATE TABLE").count();
        assert_eq!(creates, db.schema.tables.len());
        let semis = dump.matches(");").count();
        assert!(semis >= creates);
    }
}
