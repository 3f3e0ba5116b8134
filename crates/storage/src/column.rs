//! Columnar table representation: per-column typed vectors with validity
//! bitmaps, built lazily (and cached) from a table's row store.
//!
//! The columnar form exists purely for *predicate evaluation*: the
//! vectorized kernels ([`crate::kernels`]) and the sorted secondary indexes
//! ([`crate::index`]) read typed vectors, while result rows are always
//! materialized from the original `Vec<Row>` by rowid (late
//! materialization). Output values are therefore bit-identical to the
//! row-at-a-time reference interpreter by construction — the columnar path
//! only ever decides *which* rows survive, never *what* their cells contain.

use crate::index::SortedIndex;
use crate::value::{Row, Value};
use std::sync::OnceLock;

/// Typed storage for one column.
///
/// A column is demoted to [`ColumnData::Mixed`] unless every non-null cell
/// shares one representation. In particular a column mixing `Int` and
/// `Float` cells stays `Mixed`: storing ints as `f64` would silently change
/// comparison semantics for integers beyond 2^53, and exactness against the
/// oracle outranks the wider fast path.
#[derive(Debug, Clone)]
pub(crate) enum ColumnData {
    /// All non-null cells are `Value::Int`; null slots hold 0.
    Int(Vec<i64>),
    /// All non-null cells are `Value::Float`; null slots hold 0.0.
    Float(Vec<f64>),
    /// All non-null cells are `Value::Str`; null slots hold "".
    Str(Vec<String>),
    /// Anything else: cells kept as `Value` (including the nulls).
    Mixed(Vec<Value>),
}

/// One column: typed vector plus a validity bitmap (bit set = non-null).
#[derive(Debug, Clone)]
pub(crate) struct Column {
    pub data: ColumnData,
    /// Validity bitmap, one bit per row, little-endian within each word.
    pub validity: Vec<u64>,
    /// Number of NULL cells.
    pub n_nulls: usize,
    /// Whether any float cell is NaN. NaN compares `Equal` to everything
    /// under [`crate::value::float_total_cmp`], which is not a total order,
    /// so NaN columns refuse index builds and hash joins.
    pub has_nan: bool,
    /// A mixed column holds both `Int` and `Float` cells *and* an integer
    /// beyond f64's exact range: `Value::total_cmp` then compares Int/Int
    /// exactly but Int/Float through a lossy cast, which is not transitive
    /// (`2^53 == 2^53.0 == 2^53+1` yet `2^53 < 2^53+1`), so a sort over it
    /// is unreliable and the column refuses an index.
    pub int_float_ambiguous: bool,
    /// Lazily built sorted secondary index (`None` once built when the
    /// column cannot support one, i.e. it contains NaN).
    index: OnceLock<Option<SortedIndex>>,
}

impl Column {
    fn build(rows: &[Row], ci: usize) -> Column {
        let n = rows.len();
        let mut validity = vec![0u64; n.div_ceil(64)];
        let mut n_nulls = 0usize;
        let mut has_nan = false;
        let mut int_float_ambiguous = false;
        let (mut all_int, mut all_float, mut all_str) = (true, true, true);
        for (i, row) in rows.iter().enumerate() {
            match &row[ci] {
                Value::Null => {
                    n_nulls += 1;
                    continue;
                }
                Value::Int(_) => (all_float, all_str) = (false, false),
                Value::Float(f) => {
                    (all_int, all_str) = (false, false);
                    has_nan |= f.is_nan();
                }
                Value::Str(_) => (all_int, all_float) = (false, false),
            }
            validity[i / 64] |= 1u64 << (i % 64);
        }
        let data = if all_int {
            ColumnData::Int(
                rows.iter()
                    .map(|r| if let Value::Int(v) = r[ci] { v } else { 0 })
                    .collect(),
            )
        } else if all_float {
            ColumnData::Float(
                rows.iter()
                    .map(|r| if let Value::Float(v) = r[ci] { v } else { 0.0 })
                    .collect(),
            )
        } else if all_str {
            ColumnData::Str(
                rows.iter()
                    .map(|r| match &r[ci] {
                        Value::Str(s) => s.clone(),
                        _ => String::new(),
                    })
                    .collect(),
            )
        } else {
            let cells: Vec<Value> = rows.iter().map(|r| r[ci].clone()).collect();
            has_nan |= cells
                .iter()
                .any(|v| matches!(v, Value::Float(f) if f.is_nan()));
            let has_float = cells.iter().any(|v| matches!(v, Value::Float(_)));
            int_float_ambiguous = has_float
                && cells
                    .iter()
                    .any(|v| matches!(v, Value::Int(i) if i.unsigned_abs() > (1u64 << 53)));
            ColumnData::Mixed(cells)
        };
        Column {
            data,
            validity,
            n_nulls,
            has_nan,
            int_float_ambiguous,
            index: OnceLock::new(),
        }
    }

    /// Is row `i` non-null?
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity[i / 64] >> (i % 64) & 1 == 1
    }

    /// The cell at row `i` as a `Value` view (allocates only for `Str`).
    /// The engine never materializes from columns (late materialization
    /// clones from the row store), so this is a test-only convenience.
    #[cfg(test)]
    pub fn value_at(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Int(xs) => Value::Int(xs[i]),
            ColumnData::Float(xs) => Value::Float(xs[i]),
            ColumnData::Str(xs) => Value::Str(xs[i].clone()),
            ColumnData::Mixed(xs) => xs[i].clone(),
        }
    }

    /// Compare the (non-null) cell at row `i` against a literal under
    /// `Value::total_cmp` semantics, without materializing a `Value`.
    #[inline]
    pub fn cmp_cell_lit(&self, i: usize, lit: &Value) -> std::cmp::Ordering {
        use crate::value::float_total_cmp;
        use std::cmp::Ordering;
        debug_assert!(self.is_valid(i));
        match (&self.data, lit) {
            (ColumnData::Int(xs), Value::Int(l)) => xs[i].cmp(l),
            (ColumnData::Int(xs), Value::Float(l)) => float_total_cmp(xs[i] as f64, *l),
            (ColumnData::Float(xs), Value::Int(l)) => float_total_cmp(xs[i], *l as f64),
            (ColumnData::Float(xs), Value::Float(l)) => float_total_cmp(xs[i], *l),
            (ColumnData::Str(xs), Value::Str(l)) => xs[i].as_str().cmp(l.as_str()),
            // Cross-class: numbers sort before text (storage-class order).
            (ColumnData::Int(_) | ColumnData::Float(_), Value::Str(_)) => Ordering::Less,
            (ColumnData::Str(_), Value::Int(_) | Value::Float(_)) => Ordering::Greater,
            (ColumnData::Mixed(xs), l) => xs[i].total_cmp(l),
            (_, Value::Null) => unreachable!("kernels reject NULL literals upfront"),
        }
    }

    /// [`exact_key`] of the cell at row `i` (`None` for NULL cells). The
    /// caller guarantees no NaN reaches this path (`use_loop` fallback).
    pub fn cell_exact_key(&self, i: usize) -> Option<ValueKey<'_>> {
        if !self.is_valid(i) {
            return None;
        }
        Some(match &self.data {
            ColumnData::Int(xs) => ValueKey::Num((xs[i] as f64).to_bits()),
            ColumnData::Float(xs) => {
                let f = xs[i];
                debug_assert!(!f.is_nan(), "NaN keys must take the loop-join fallback");
                ValueKey::Num(if f == 0.0 { 0 } else { f.to_bits() })
            }
            ColumnData::Str(xs) => ValueKey::Str(&xs[i]),
            ColumnData::Mixed(xs) => return exact_key(&xs[i]),
        })
    }

    /// Whether a sorted index over this column is sound: the comparator
    /// must be a total order over its cells, which rules out NaN and
    /// ambiguous int/float mixes beyond 2^53. The planner consults the
    /// same gate, so access-path choice and index construction agree.
    pub fn indexable(&self) -> bool {
        !self.has_nan && !self.int_float_ambiguous
    }

    /// The sorted secondary index for this column, built on first use.
    /// `None` when the column cannot support one (see [`Self::indexable`]).
    pub fn sorted_index(&self) -> Option<&SortedIndex> {
        self.index
            .get_or_init(|| {
                if self.indexable() {
                    Some(SortedIndex::build(self))
                } else {
                    None
                }
            })
            .as_ref()
    }
}

/// Columnar view of one table: all columns plus the row count.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnarTable {
    pub n_rows: usize,
    pub columns: Vec<Column>,
}

impl ColumnarTable {
    /// Convert a row store into typed column vectors.
    pub fn build(rows: &[Row], n_cols: usize) -> ColumnarTable {
        ColumnarTable {
            n_rows: rows.len(),
            columns: (0..n_cols).map(|ci| Column::build(rows, ci)).collect(),
        }
    }
}

/// Hash-join key of one non-NULL cell: the *prefilter* for equi-joins,
/// which compare with `sql_cmp` equality in both engines. Numbers key on
/// their f64 image with `-0.0` canonicalized to `0.0`, so no `sql_cmp`-equal
/// pair can land in different buckets, and strings key byte-exact. Callers
/// must re-verify candidates with `sql_cmp`: distinct ints beyond 2^53
/// share an f64 image and produce false positives only. There is no NaN
/// key on purpose: a join must fall back to a pairwise loop when a NaN is
/// present, because NaN compares equal to every number under `sql_cmp` and
/// cannot be bucketed. `None` means NULL — never joinable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ValueKey<'a> {
    Num(u64),
    Str(&'a str),
}

/// A typed, allocation-free view of one non-null cell.
enum CellRef<'a> {
    I(i64),
    F(f64),
    S(&'a str),
}

impl Column {
    fn cell_ref(&self, i: usize) -> CellRef<'_> {
        debug_assert!(self.is_valid(i));
        match &self.data {
            ColumnData::Int(xs) => CellRef::I(xs[i]),
            ColumnData::Float(xs) => CellRef::F(xs[i]),
            ColumnData::Str(xs) => CellRef::S(&xs[i]),
            ColumnData::Mixed(xs) => match &xs[i] {
                Value::Int(v) => CellRef::I(*v),
                Value::Float(v) => CellRef::F(*v),
                Value::Str(s) => CellRef::S(s),
                Value::Null => unreachable!("validity checked"),
            },
        }
    }
}

/// `sql_cmp`-equality of two non-null cells across columns, matching
/// `Value::total_cmp == Equal` exactly (Int/Int exact, mixed numerics via
/// [`crate::value::float_total_cmp`], cross-class never equal).
pub(crate) fn cells_sql_eq(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    use crate::value::float_total_cmp;
    use std::cmp::Ordering;
    match (a.cell_ref(i), b.cell_ref(j)) {
        (CellRef::I(x), CellRef::I(y)) => x == y,
        (CellRef::S(x), CellRef::S(y)) => x == y,
        (CellRef::I(x), CellRef::F(y)) => float_total_cmp(x as f64, y) == Ordering::Equal,
        (CellRef::F(x), CellRef::I(y)) => float_total_cmp(x, y as f64) == Ordering::Equal,
        (CellRef::F(x), CellRef::F(y)) => float_total_cmp(x, y) == Ordering::Equal,
        _ => false,
    }
}

/// Prefilter key for `sql_cmp`-exact equi-joins (see type-level docs).
pub(crate) fn exact_key(v: &Value) -> Option<ValueKey<'_>> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(ValueKey::Num((*i as f64).to_bits())),
        Value::Float(f) => {
            debug_assert!(!f.is_nan(), "NaN keys must take the loop-join fallback");
            Some(ValueKey::Num(if *f == 0.0 { 0 } else { f.to_bits() }))
        }
        Value::Str(s) => Some(ValueKey::Str(s)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: Vec<Value>) -> Column {
        let rows: Vec<Row> = vals.into_iter().map(|v| vec![v]).collect();
        Column::build(&rows, 0)
    }

    #[test]
    fn typed_classification() {
        assert!(matches!(
            col(vec![Value::Int(1), Value::Null, Value::Int(3)]).data,
            ColumnData::Int(_)
        ));
        assert!(matches!(
            col(vec![Value::Float(1.5), Value::Null]).data,
            ColumnData::Float(_)
        ));
        assert!(matches!(
            col(vec![Value::Str("a".into())]).data,
            ColumnData::Str(_)
        ));
        // Int+Float mix must stay Mixed (2^53 exactness).
        assert!(matches!(
            col(vec![Value::Int(1), Value::Float(2.0)]).data,
            ColumnData::Mixed(_)
        ));
    }

    #[test]
    fn validity_and_nulls() {
        let c = col(vec![Value::Int(1), Value::Null, Value::Int(3)]);
        assert!(c.is_valid(0) && !c.is_valid(1) && c.is_valid(2));
        assert_eq!(c.n_nulls, 1);
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(3));
    }

    #[test]
    fn nan_detection_spans_representations() {
        assert!(col(vec![Value::Float(f64::NAN)]).has_nan);
        assert!(col(vec![Value::Int(1), Value::Float(f64::NAN)]).has_nan);
        assert!(!col(vec![Value::Float(1.0)]).has_nan);
    }

    #[test]
    fn cmp_cell_lit_matches_total_cmp() {
        let vals = vec![
            Value::Int(5),
            Value::Float(-0.0),
            Value::Str("abc".into()),
            Value::Int(-7),
        ];
        let c = col(vals.clone());
        let lits = [
            Value::Int(5),
            Value::Float(0.0),
            Value::Str("abd".into()),
            Value::Float(2.5),
        ];
        for (i, v) in vals.iter().enumerate() {
            for l in &lits {
                assert_eq!(c.cmp_cell_lit(i, l), v.total_cmp(l), "{v:?} vs {l:?}");
            }
        }
    }

    #[test]
    fn exact_key_never_splits_sql_equal_pairs() {
        // sql_cmp-equal non-NaN values must share an exact_key bucket.
        let vals = [
            Value::Int(0),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Int(3),
            Value::Float(3.0),
        ];
        for a in &vals {
            for b in &vals {
                if a.sql_cmp(b) == Some(std::cmp::Ordering::Equal) {
                    assert_eq!(exact_key(a), exact_key(b), "{a:?} vs {b:?}");
                }
            }
        }
    }
}
