//! Sorted-key secondary indexes over columnar tables.
//!
//! An index is the column's non-null rowids sorted by cell value (ties
//! broken by rowid, so builds are deterministic). Range and equality
//! predicates become two binary searches plus a slice copy; the matched
//! rowids are then re-sorted ascending so downstream kernels and joins see
//! rows in the same scan order as a full table scan — order preservation is
//! what keeps the columnar engine bit-identical to the row-at-a-time
//! reference.
//!
//! A column only gets an index when the shared comparator is a **total
//! order** over its cells ([`crate::column::Column::indexable`]). Two
//! shapes fail that bar: columns containing NaN (NaN compares `Equal` to
//! every number, so a sort would place NaN rows arbitrarily), and mixed
//! int/float columns holding integers beyond 2^53 (Int/Int compares
//! exactly but Int/Float through a lossy f64 cast, so the order is not
//! transitive and `partition_point` can land mid-run — the binary search
//! would then disagree with the scan path). Both fall back to scans.

use crate::column::{Column, ColumnData};
use crate::value::{float_total_cmp, Value};
use std::cmp::Ordering;

/// One bound of a range probe: the literal plus whether it is inclusive.
pub(crate) type Bound<'a> = Option<(&'a Value, bool)>;

/// Non-null rowids sorted by (cell value, rowid).
#[derive(Debug, Clone)]
pub(crate) struct SortedIndex {
    order: Vec<u32>,
}

impl SortedIndex {
    /// Build the index for a column. The caller guarantees
    /// `col.indexable()`.
    pub fn build(col: &Column) -> SortedIndex {
        debug_assert!(col.indexable());
        let n = match &col.data {
            ColumnData::Int(xs) => xs.len(),
            ColumnData::Float(xs) => xs.len(),
            ColumnData::Str(xs) => xs.len(),
            ColumnData::Mixed(xs) => xs.len(),
        };
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&i| col.is_valid(i as usize))
            .collect();
        match &col.data {
            ColumnData::Int(xs) => {
                order.sort_unstable_by(|&a, &b| xs[a as usize].cmp(&xs[b as usize]).then(a.cmp(&b)))
            }
            ColumnData::Float(xs) => order.sort_unstable_by(|&a, &b| {
                float_total_cmp(xs[a as usize], xs[b as usize]).then(a.cmp(&b))
            }),
            ColumnData::Str(xs) => {
                order.sort_unstable_by(|&a, &b| xs[a as usize].cmp(&xs[b as usize]).then(a.cmp(&b)))
            }
            ColumnData::Mixed(xs) => order.sort_unstable_by(|&a, &b| {
                xs[a as usize].total_cmp(&xs[b as usize]).then(a.cmp(&b))
            }),
        }
        SortedIndex { order }
    }

    /// Rowids whose cell lies within `[lo, hi]` (each bound optional and
    /// independently inclusive/exclusive), returned ascending by rowid.
    /// Bounds must be non-null literals.
    pub fn range(&self, col: &Column, lo: Bound<'_>, hi: Bound<'_>) -> Vec<u32> {
        let start = match lo {
            None => 0,
            Some((v, inclusive)) => self.order.partition_point(|&i| {
                let ord = col.cmp_cell_lit(i as usize, v);
                if inclusive {
                    ord == Ordering::Less
                } else {
                    ord != Ordering::Greater
                }
            }),
        };
        let end = match hi {
            None => self.order.len(),
            Some((v, inclusive)) => self.order.partition_point(|&i| {
                let ord = col.cmp_cell_lit(i as usize, v);
                if inclusive {
                    ord != Ordering::Greater
                } else {
                    ord == Ordering::Less
                }
            }),
        };
        if start >= end {
            return Vec::new();
        }
        let mut out = self.order[start..end].to_vec();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Row;

    fn col(vals: Vec<Value>) -> Column {
        let rows: Vec<Row> = vals.into_iter().map(|v| vec![v]).collect();
        let t = crate::column::ColumnarTable::build(&rows, 1);
        t.columns.into_iter().next().unwrap()
    }

    #[test]
    fn range_scan_matches_linear_scan() {
        let vals = vec![
            Value::Int(5),
            Value::Null,
            Value::Int(2),
            Value::Int(9),
            Value::Int(2),
            Value::Int(7),
        ];
        let c = col(vals.clone());
        let idx = c.sorted_index().expect("no NaN");
        let lo = Value::Int(2);
        let hi = Value::Int(7);
        let got = idx.range(&c, Some((&lo, true)), Some((&hi, false)));
        let want: Vec<u32> = vals
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                !v.is_null()
                    && v.total_cmp(&lo) != Ordering::Less
                    && v.total_cmp(&hi) == Ordering::Less
            })
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn equality_probe_is_a_closed_range() {
        let c = col(vec![
            Value::Float(1.0),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(2.5),
        ]);
        let idx = c.sorted_index().unwrap();
        let zero = Value::Int(0);
        // -0.0 and 0.0 both equal integer 0 under the shared comparator.
        assert_eq!(
            idx.range(&c, Some((&zero, true)), Some((&zero, true))),
            vec![1, 2]
        );
    }

    #[test]
    fn nan_columns_refuse_an_index() {
        let c = col(vec![Value::Float(1.0), Value::Float(f64::NAN)]);
        assert!(c.sorted_index().is_none());
    }

    #[test]
    fn open_bounds() {
        let c = col(vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
        let idx = c.sorted_index().unwrap();
        let two = Value::Int(2);
        assert_eq!(idx.range(&c, Some((&two, true)), None), vec![0, 2]);
        assert_eq!(idx.range(&c, None, Some((&two, false))), vec![1]);
        assert_eq!(idx.range(&c, None, None), vec![0, 1, 2]);
    }

    /// Linear-scan reference under `Value::total_cmp` — the semantics the
    /// row-at-a-time interpreter applies to the same predicate.
    fn scan_range(vals: &[Value], lo: Bound<'_>, hi: Bound<'_>) -> Vec<u32> {
        vals.iter()
            .enumerate()
            .filter(|(_, v)| {
                if v.is_null() {
                    return false;
                }
                let lo_ok = match lo {
                    None => true,
                    Some((l, true)) => v.total_cmp(l) != Ordering::Less,
                    Some((l, false)) => v.total_cmp(l) == Ordering::Greater,
                };
                let hi_ok = match hi {
                    None => true,
                    Some((h, true)) => v.total_cmp(h) != Ordering::Greater,
                    Some((h, false)) => v.total_cmp(h) == Ordering::Less,
                };
                lo_ok && hi_ok
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Every (bound, inclusivity) combination over a literal battery must
    /// agree with the linear scan. `cells` picks the column representation
    /// (Int / Float / Str / Mixed) — each has its own comparator dispatch
    /// in `cmp_cell_lit`, and rows loaded back from the page store rebuild
    /// these exact columns, so this is also the on-disk ordering contract.
    fn battery(cells: Vec<Value>, lits: &[Value]) {
        let c = col(cells.clone());
        let idx = c.sorted_index().expect("battery columns are NaN-free");
        let mut bounds: Vec<Bound<'_>> = vec![None];
        for l in lits {
            bounds.push(Some((l, true)));
            bounds.push(Some((l, false)));
        }
        for lo in &bounds {
            for hi in &bounds {
                let got = idx.range(&c, *lo, *hi);
                let want = scan_range(&cells, *lo, *hi);
                assert_eq!(
                    got, want,
                    "index/scan divergence for bounds lo={lo:?} hi={hi:?} over {cells:?}"
                );
            }
        }
    }

    const BIG: i64 = 9_007_199_254_740_992; // 2^53

    fn boundary_lits() -> Vec<Value> {
        vec![
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::Float(1.0),
            Value::Float(1.0 + f64::EPSILON),
            Value::Float(1.0 - f64::EPSILON / 2.0),
            Value::Int(BIG),
            Value::Int(BIG + 1),
            Value::Float(BIG as f64),
            Value::Int(-2),
            Value::Str(String::new()),
            Value::Str("a".into()),
        ]
    }

    #[test]
    fn float_column_boundary_battery() {
        battery(
            vec![
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Float(1.0),
                Value::Float(1.0 + f64::EPSILON),
                Value::Float(1.0 - f64::EPSILON / 2.0),
                Value::Float(-1.5),
                Value::Float(BIG as f64),
                Value::Null,
                Value::Float(0.0),
            ],
            &boundary_lits(),
        );
    }

    #[test]
    fn int_column_boundary_battery() {
        // 2^53 neighbors: the literal comparisons go through an f64 cast,
        // which is lossy but *monotone*, so the binary search stays aligned
        // with the exact i64 sort order.
        battery(
            vec![
                Value::Int(0),
                Value::Int(1),
                Value::Int(-2),
                Value::Int(BIG),
                Value::Int(BIG + 1),
                Value::Null,
                Value::Int(0),
            ],
            &boundary_lits(),
        );
    }

    #[test]
    fn mixed_column_boundary_battery() {
        // NULL < numbers < text, int/float cells interleaved — all numerics
        // exactly representable in f64, so the comparator is total.
        battery(
            vec![
                Value::Int(0),
                Value::Float(-0.0),
                Value::Float(0.0),
                Value::Int(-2),
                Value::Float(BIG as f64),
                Value::Str(String::new()),
                Value::Str("ab".into()),
                Value::Null,
                Value::Float(1.0 + f64::EPSILON),
            ],
            &boundary_lits(),
        );
        // Int + Str mix with 2^53 neighbors: no float cells, so Int/Int
        // stays exact and the order is total.
        battery(
            vec![
                Value::Int(BIG),
                Value::Int(BIG + 1),
                Value::Int(0),
                Value::Str("a".into()),
                Value::Null,
            ],
            &boundary_lits(),
        );
    }

    /// The divergence this gate exists for: `Int(2^53)`, `Int(2^53+1)` and
    /// `Float(2^53.0)` in one column make `Value::total_cmp` non-transitive
    /// (Int/Int exact, Int/Float lossy), so `partition_point` over the sort
    /// can include `2^53+1` in `x <= 2^53` while the scan path excludes it.
    /// Such columns must refuse the index and fall back to scans.
    #[test]
    fn ambiguous_int_float_mix_refuses_an_index() {
        let c = col(vec![
            Value::Int(0),
            Value::Int(BIG),
            Value::Int(BIG + 1),
            Value::Float(BIG as f64),
        ]);
        assert!(!c.indexable());
        assert!(c.sorted_index().is_none());
        // Below 2^53 the cast is exact and the mix stays indexable.
        let ok = col(vec![Value::Int(7), Value::Float(7.5)]);
        assert!(ok.sorted_index().is_some());
    }

    /// Keys that travel through the page store must keep the same total
    /// order after a disk round trip: persist a table whose float column
    /// holds every boundary value, load it back, and both the rebuilt
    /// index order and the probe results must be identical.
    #[test]
    fn index_order_survives_disk_roundtrip() {
        use crate::schema::{ColType, ColumnDef, DbSchema, TableSchema};
        let schema = DbSchema {
            db_id: "idx_disk".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("x", ColType::Float),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        let mut db = crate::Database::new(schema);
        let xs = [
            -0.0,
            0.0,
            1.0,
            1.0 + f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
            -1.5,
            BIG as f64,
        ];
        for (i, x) in xs.iter().enumerate() {
            db.insert("t", vec![Value::Int(i as i64), Value::Float(*x)])
                .unwrap();
        }
        let path = std::env::temp_dir().join(format!("dail_idx_disk_{}.pages", std::process::id()));
        let _ = std::fs::remove_file(&path);
        crate::pagestore::persist_database(&db, &path, None).unwrap();
        let (loaded, _) = crate::pagestore::load_database(&path).unwrap();
        let orig = db.columnar("t").unwrap().columns[1].clone();
        let back = loaded.columnar("t").unwrap().columns[1].clone();
        let zero = Value::Float(-0.0);
        let one = Value::Float(1.0);
        for (lo, hi) in [
            (Some((&zero, true)), Some((&one, false))),
            (Some((&zero, false)), None),
            (None, Some((&one, true))),
        ] {
            assert_eq!(
                orig.sorted_index().unwrap().range(&orig, lo, hi),
                back.sorted_index().unwrap().range(&back, lo, hi),
                "disk round trip changed a probe result"
            );
        }
        let _ = std::fs::remove_file(&path);
        let mut wal = path.into_os_string();
        wal.push(".wal");
        let _ = std::fs::remove_file(std::path::PathBuf::from(wal));
    }
}
