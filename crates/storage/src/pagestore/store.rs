//! Database ⇄ page store materialization.
//!
//! [`persist_database`] writes the schema catalog (length-prefixed strings)
//! into a contiguous page run, then streams every table through the B+tree
//! — one durable commit per table, plus a final commit that flips the
//! `complete` flag. [`load_database`] is the inverse and is **bit-exact**:
//! float cells are serialized as their raw IEEE-754 bits, so `-0.0`, NaN
//! payloads, and 2^53-adjacent integers survive a round trip unchanged and
//! every EX report computed from a loaded database is byte-identical to
//! one computed from the in-memory original.
//!
//! Row encoding: `[n: u16]` then per cell a tag byte — `0` NULL, `1` Int +
//! i64 LE, `2` Float + u64 bit pattern LE, `3` Str + u32 length + UTF-8.

use super::btree::{self, Key};
use super::pager::{PageStore, RecoveryInfo, PAGE_SIZE};
use super::{CrashPoint, StoreError, StoreResult};
use crate::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
use crate::value::{Row, Value};
use std::path::Path;

/// What [`recover_store`] found after replaying the WAL.
#[derive(Debug, Clone)]
pub struct StoreInfo {
    /// Database id from the on-disk schema (empty if none was written yet).
    pub db_id: String,
    /// The persist that wrote this store ran to completion.
    pub complete: bool,
    /// Last durable commit sequence number.
    pub commit_seq: u64,
    /// Total pages in the page file.
    pub n_pages: u64,
    /// Committed WAL batches replayed on open.
    pub replayed_commits: u64,
    /// A torn/uncommitted WAL tail was discarded on open.
    pub discarded_tail: bool,
    /// `(table name, row count)` in schema order.
    pub tables: Vec<(String, u64)>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a decoded blob.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(StoreError::Corrupt("record truncated".into()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> StoreResult<u16> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> StoreResult<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> StoreResult<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn str(&mut self) -> StoreResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("invalid UTF-8 in catalog string".into()))
    }
}

fn encode_schema(schema: &DbSchema) -> Vec<u8> {
    let mut out = Vec::new();
    put_str(&mut out, &schema.db_id);
    out.extend_from_slice(&(schema.tables.len() as u32).to_le_bytes());
    for t in &schema.tables {
        put_str(&mut out, &t.name);
        out.extend_from_slice(&(t.columns.len() as u32).to_le_bytes());
        for c in &t.columns {
            put_str(&mut out, &c.name);
            out.push(match c.ctype {
                ColType::Int => 0,
                ColType::Float => 1,
                ColType::Text => 2,
            });
        }
        out.extend_from_slice(&(t.primary_key.len() as u32).to_le_bytes());
        for &pk in &t.primary_key {
            out.extend_from_slice(&(pk as u32).to_le_bytes());
        }
    }
    out.extend_from_slice(&(schema.foreign_keys.len() as u32).to_le_bytes());
    for fk in &schema.foreign_keys {
        put_str(&mut out, &fk.from_table);
        put_str(&mut out, &fk.from_column);
        put_str(&mut out, &fk.to_table);
        put_str(&mut out, &fk.to_column);
    }
    out
}

fn decode_schema(bytes: &[u8]) -> StoreResult<DbSchema> {
    let mut r = Reader::new(bytes);
    let db_id = r.str()?;
    let n_tables = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.str()?;
        let n_cols = r.u32()? as usize;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let cname = r.str()?;
            let ctype = match r.u8()? {
                0 => ColType::Int,
                1 => ColType::Float,
                2 => ColType::Text,
                t => {
                    return Err(StoreError::Corrupt(format!("unknown column type tag {t}")));
                }
            };
            columns.push(ColumnDef::new(cname, ctype));
        }
        let n_pk = r.u32()? as usize;
        let mut primary_key = Vec::with_capacity(n_pk);
        for _ in 0..n_pk {
            primary_key.push(r.u32()? as usize);
        }
        tables.push(TableSchema {
            name,
            columns,
            primary_key,
        });
    }
    let n_fks = r.u32()? as usize;
    let mut foreign_keys = Vec::with_capacity(n_fks);
    for _ in 0..n_fks {
        foreign_keys.push(ForeignKey {
            from_table: r.str()?,
            from_column: r.str()?,
            to_table: r.str()?,
            to_column: r.str()?,
        });
    }
    Ok(DbSchema {
        db_id,
        tables,
        foreign_keys,
    })
}

fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        match v {
            Value::Null => out.push(0),
            Value::Int(i) => {
                out.push(1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            Value::Float(f) => {
                out.push(2);
                // Raw bit pattern: -0.0 and NaN payloads round-trip exactly.
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
            Value::Str(s) => {
                out.push(3);
                put_str(&mut out, s);
            }
        }
    }
    out
}

fn decode_row(bytes: &[u8]) -> StoreResult<Row> {
    let mut r = Reader::new(bytes);
    let n = r.u16()? as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(match r.u8()? {
            0 => Value::Null,
            1 => Value::Int(i64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"))),
            2 => Value::Float(f64::from_bits(r.u64()?)),
            3 => Value::Str(r.str()?),
            t => return Err(StoreError::Corrupt(format!("unknown value tag {t}"))),
        });
    }
    if r.pos != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after row".into()));
    }
    Ok(row)
}

/// Write the schema blob into a fresh contiguous page run and stage its
/// location in the meta page.
fn write_schema_pages(store: &mut PageStore, bytes: &[u8]) -> StoreResult<()> {
    let n_pages = bytes.len().div_ceil(PAGE_SIZE).max(1);
    let first = store.allocate();
    for i in 1..n_pages {
        let no = store.allocate();
        debug_assert_eq!(no, first + i as u64);
    }
    for (i, chunk) in bytes.chunks(PAGE_SIZE).enumerate() {
        let mut page = vec![0u8; PAGE_SIZE];
        page[..chunk.len()].copy_from_slice(chunk);
        store.write_page(first + i as u64, page)?;
    }
    store.set_schema_loc(first, bytes.len() as u64);
    Ok(())
}

fn read_schema(store: &mut PageStore) -> StoreResult<DbSchema> {
    let (first, len) = store.schema_loc();
    if len == 0 {
        return Err(StoreError::Corrupt("store has no schema catalog".into()));
    }
    let n_pages = (len as usize).div_ceil(PAGE_SIZE);
    let mut bytes = Vec::with_capacity(n_pages * PAGE_SIZE);
    for i in 0..n_pages {
        bytes.extend_from_slice(&store.read_page(first + i as u64)?);
    }
    bytes.truncate(len as usize);
    decode_schema(&bytes)
}

/// Materialize a database to disk at `path` (plus a `<path>.wal` sibling),
/// overwriting anything already there. One commit for the schema, one per
/// table, and a final commit that marks the store complete — so an
/// interrupted persist is always detectable via [`StoreError::Incomplete`].
/// An armed `crash` aborts the process at its site instead of returning.
pub fn persist_database(
    db: &crate::Database,
    path: &Path,
    crash: Option<&CrashPoint>,
) -> StoreResult<()> {
    let mut store = PageStore::create(path)?;
    write_schema_pages(&mut store, &encode_schema(&db.schema))?;
    store.commit(crash)?;
    let table_names: Vec<String> = db.schema.tables.iter().map(|t| t.name.clone()).collect();
    for (ti, name) in table_names.iter().enumerate() {
        let rows = db.rows(name).unwrap_or(&[]);
        for (ri, row) in rows.iter().enumerate() {
            let key = Key {
                table: ti as u32,
                row: ri as u64,
            };
            btree::insert(&mut store, key, &encode_row(row))?;
        }
        store.commit(crash)?;
    }
    store.set_complete(true);
    store.commit(crash)?;
    Ok(())
}

/// Load a database back from disk, byte-identically. Runs WAL recovery
/// first; refuses stores whose persist never completed.
pub fn load_database(path: &Path) -> StoreResult<(crate::Database, RecoveryInfo)> {
    let (mut store, info) = PageStore::open(path)?;
    if !store.complete() {
        return Err(StoreError::Incomplete(format!(
            "{} was not fully persisted (interrupted persist — re-run it)",
            path.display()
        )));
    }
    let schema = read_schema(&mut store)?;
    let mut db = crate::Database::new(schema.clone());
    let mut expect_row = vec![0u64; schema.tables.len()];
    for (key, bytes) in btree::scan_all(&mut store)? {
        let ti = key.table as usize;
        let table = schema.tables.get(ti).ok_or_else(|| {
            StoreError::Corrupt(format!("row keyed to unknown table ordinal {ti}"))
        })?;
        if key.row != expect_row[ti] {
            return Err(StoreError::Corrupt(format!(
                "table {} has a row-id gap: expected {}, found {}",
                table.name, expect_row[ti], key.row
            )));
        }
        expect_row[ti] += 1;
        let row = decode_row(&bytes)?;
        db.insert(&table.name, row)
            .map_err(|e| StoreError::Corrupt(format!("stored row rejected: {e}")))?;
    }
    Ok((db, info))
}

/// Open a store, run WAL recovery, and report what was found — without
/// requiring the store to be complete (this is the `recover` CLI's
/// workhorse, and an interrupted persist is exactly what it inspects).
pub fn recover_store(path: &Path) -> StoreResult<StoreInfo> {
    let (mut store, info) = PageStore::open(path)?;
    let (db_id, names) = match read_schema(&mut store) {
        Ok(schema) => (
            schema.db_id.clone(),
            schema.tables.iter().map(|t| t.name.clone()).collect(),
        ),
        // A store that crashed before the schema commit has no catalog yet;
        // still report the file-level facts.
        Err(_) => (String::new(), Vec::new()),
    };
    let mut counts = vec![0u64; names.len()];
    for (key, _) in btree::scan_all(&mut store)? {
        if let Some(c) = counts.get_mut(key.table as usize) {
            *c += 1;
        }
    }
    Ok(StoreInfo {
        db_id,
        complete: store.complete(),
        commit_seq: store.commit_seq(),
        n_pages: store.n_pages(),
        replayed_commits: info.replayed_commits,
        discarded_tail: info.discarded_tail,
        tables: names.into_iter().zip(counts).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, DbSchema, TableSchema};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("dail_store_{}_{name}.pages", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let mut wal = p.clone().into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(PathBuf::from(wal));
        p
    }

    fn adversarial_db() -> crate::Database {
        let schema = DbSchema {
            db_id: "bits".into(),
            tables: vec![
                TableSchema {
                    name: "t".into(),
                    columns: vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("x", ColType::Float),
                        ColumnDef::new("s", ColType::Text),
                    ],
                    primary_key: vec![0],
                },
                TableSchema {
                    name: "empty".into(),
                    columns: vec![ColumnDef::new("a", ColType::Int)],
                    primary_key: vec![0],
                },
            ],
            foreign_keys: vec![],
        };
        let mut db = crate::Database::new(schema);
        let nan_payload = f64::from_bits(0x7ff8_0000_0000_beef);
        let cells = [
            (
                Value::Int(i64::MAX),
                Value::Float(-0.0),
                Value::Str("αβ".into()),
            ),
            (
                Value::Int(-1),
                Value::Float(f64::NAN),
                Value::Str(String::new()),
            ),
            (Value::Null, Value::Float(nan_payload), Value::Null),
            (
                Value::Int(9_007_199_254_740_993),
                Value::Float(f64::NEG_INFINITY),
                Value::Str("a\nb".into()),
            ),
        ];
        for (a, b, c) in cells {
            db.insert("t", vec![a, b, c]).unwrap();
        }
        db
    }

    fn rows_bit_equal(a: &crate::Database, b: &crate::Database, table: &str) -> bool {
        let (ra, rb) = (a.rows(table).unwrap(), b.rows(table).unwrap());
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(x, y)| {
                x.len() == y.len()
                    && x.iter().zip(y).all(|(u, v)| match (u, v) {
                        (Value::Float(f), Value::Float(g)) => f.to_bits() == g.to_bits(),
                        _ => u == v,
                    })
            })
    }

    #[test]
    fn persist_load_is_bit_exact() {
        let path = tmp("roundtrip");
        let db = adversarial_db();
        persist_database(&db, &path, None).unwrap();
        let (loaded, info) = load_database(&path).unwrap();
        assert!(!info.discarded_tail);
        assert_eq!(loaded.schema, db.schema);
        assert!(rows_bit_equal(&db, &loaded, "t"));
        assert_eq!(loaded.rows("empty").unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_reports_tables() {
        let path = tmp("recover");
        persist_database(&adversarial_db(), &path, None).unwrap();
        let info = recover_store(&path).unwrap();
        assert!(info.complete);
        assert_eq!(info.db_id, "bits");
        assert_eq!(info.tables, vec![("t".into(), 4), ("empty".into(), 0)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn row_codec_rejects_trailing_garbage() {
        let mut bytes = encode_row(&vec![Value::Int(1)]);
        bytes.push(0xAA);
        assert!(matches!(decode_row(&bytes), Err(StoreError::Corrupt(_))));
    }
}
