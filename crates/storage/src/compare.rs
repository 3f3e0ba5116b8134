//! Result-set comparison for execution accuracy (EX).
//!
//! Spider's execution accuracy runs gold and predicted SQL on the same
//! database and compares result sets. Following the official test-suite
//! semantics, the exact rules are:
//!
//! * **Arity and cardinality**: column count and row count must agree
//!   (both queries project in the question's requested column order).
//! * **Ordered vs multiset**: row order matters only when the *gold* query
//!   constrains it (top-level ORDER BY). Otherwise rows compare as a
//!   multiset — duplicates count, order does not.
//! * **Float tolerance**: numeric cells compare with relative/absolute
//!   tolerance `EPS` (`|x − y| ≤ EPS · max(|x|, |y|, 1)`); integers and
//!   floats compare numerically (`2 == 2.0`).
//! * **Signed zero**: `-0.0` and `0.0` are equal (their difference is 0).
//! * **NULL** equals only NULL; strings compare byte-exact and never equal
//!   numbers.
//!
//! The multiset comparison sorts both row sets by [`Value::total_cmp`]
//! (which already treats `-0.0 == 0.0` and `2 == 2.0`) and then matches
//! sorted rows pairwise with the same tolerant [`value_eq`] used by the
//! ordered path — so a value never changes equality class merely because a
//! formatting/rounding boundary fell between two tolerance-equal floats.

use crate::exec::ResultSet;
use crate::value::Value;
use std::cmp::Ordering;

/// Relative/absolute tolerance for float comparison.
const EPS: f64 = 1e-6;

/// Compare two result sets.
///
/// `ordered` should be true when the gold query constrains row order
/// (top-level ORDER BY).
pub fn results_match(gold: &ResultSet, pred: &ResultSet, ordered: bool) -> bool {
    if gold.columns.len() != pred.columns.len() {
        return false;
    }
    if gold.rows.len() != pred.rows.len() {
        return false;
    }
    if ordered {
        gold.rows.iter().zip(&pred.rows).all(|(a, b)| rows_eq(a, b))
    } else {
        // Multiset comparison: sort both sides by the tolerance-agnostic
        // total order, then require pairwise tolerant equality. Sorting
        // never separates tolerance-equal values the way a canonical
        // string key (rounded to fixed decimals) can: `-0.0`/`0.0` and
        // floats straddling a rounding boundary sort adjacently and are
        // then matched by `value_eq`.
        let mut ga: Vec<&[Value]> = gold.rows.iter().map(Vec::as_slice).collect();
        let mut pa: Vec<&[Value]> = pred.rows.iter().map(Vec::as_slice).collect();
        ga.sort_by(|a, b| row_total_cmp(a, b));
        pa.sort_by(|a, b| row_total_cmp(a, b));
        ga.iter().zip(&pa).all(|(a, b)| rows_eq(a, b))
    }
}

fn rows_eq(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_eq(x, y))
}

/// Lexicographic total order over rows, using [`Value::total_cmp`] per cell
/// (NULL first, then numbers — with `-0.0 == 0.0` — then text).
fn row_total_cmp(a: &[Value], b: &[Value]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// Value equality with numeric tolerance.
pub fn value_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => (x - y).abs() <= EPS * x.abs().max(y.abs()).max(1.0),
            _ => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn identical_sets_match() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(results_match(&a, &a, true));
        assert!(results_match(&a, &a, false));
    }

    #[test]
    fn unordered_comparison_ignores_row_order() {
        let a = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let b = rs(&["x"], vec![vec![Value::Int(2)], vec![Value::Int(1)]]);
        assert!(results_match(&a, &b, false));
        assert!(!results_match(&a, &b, true));
    }

    #[test]
    fn arity_mismatch_fails() {
        let a = rs(&["x"], vec![vec![Value::Int(1)]]);
        let b = rs(&["x", "y"], vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(!results_match(&a, &b, false));
    }

    #[test]
    fn row_count_mismatch_fails() {
        let a = rs(&["x"], vec![vec![Value::Int(1)]]);
        let b = rs(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        assert!(!results_match(&a, &b, false));
    }

    #[test]
    fn float_tolerance() {
        assert!(value_eq(
            &Value::Float(1.0 / 3.0),
            &Value::Float(0.33333333)
        ));
        assert!(value_eq(&Value::Int(2), &Value::Float(2.0)));
        assert!(!value_eq(&Value::Float(1.0), &Value::Float(1.1)));
    }

    #[test]
    fn multiset_semantics_count_duplicates() {
        let a = rs(
            &["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ],
        );
        let b = rs(
            &["x"],
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(2)],
            ],
        );
        assert!(!results_match(&a, &b, false), "duplicate counts differ");
    }

    #[test]
    fn null_equals_null_only() {
        assert!(value_eq(&Value::Null, &Value::Null));
        assert!(!value_eq(&Value::Null, &Value::Int(0)));
        assert!(!value_eq(&Value::Str("1".into()), &Value::Int(1)));
    }

    /// Regression: `-0.0` canonicalized to `n:-0.000000` ≠ `n:0.000000`
    /// under the old string-key multiset comparison although `value_eq`
    /// calls them equal, so the unordered path disagreed with the ordered
    /// one on signed zero.
    #[test]
    fn unordered_comparison_accepts_signed_zero() {
        let a = rs(&["x"], vec![vec![Value::Float(-0.0)]]);
        let b = rs(&["x"], vec![vec![Value::Float(0.0)]]);
        assert!(results_match(&a, &b, true), "ordered path accepts -0.0");
        assert!(
            results_match(&a, &b, false),
            "unordered path must agree with the ordered one on -0.0"
        );
        // Also as one cell of a wider multiset.
        let a = rs(
            &["x"],
            vec![vec![Value::Float(-0.0)], vec![Value::Float(1.5)]],
        );
        let b = rs(
            &["x"],
            vec![vec![Value::Float(1.5)], vec![Value::Float(0.0)]],
        );
        assert!(results_match(&a, &b, false));
    }

    /// Regression: two floats within EPS that straddle a 1e-6 rounding
    /// boundary (`0.4999994` → `"0.499999"`, `0.4999996` → `"0.500000"`)
    /// produced different canonical keys under the old comparison even
    /// though `value_eq` accepts them.
    #[test]
    fn unordered_comparison_tolerates_rounding_boundary_floats() {
        let (x, y) = (0.4999994_f64, 0.4999996_f64);
        assert!(value_eq(&Value::Float(x), &Value::Float(y)));
        let a = rs(&["x"], vec![vec![Value::Float(x)]]);
        let b = rs(&["x"], vec![vec![Value::Float(y)]]);
        assert!(results_match(&a, &b, true));
        assert!(
            results_match(&a, &b, false),
            "tolerance-equal floats must compare equal in the multiset path"
        );
    }

    #[test]
    fn unordered_comparison_mixes_int_and_float_cells() {
        let a = rs(&["x"], vec![vec![Value::Int(2)], vec![Value::Float(3.5)]]);
        let b = rs(
            &["x"],
            vec![vec![Value::Float(3.5)], vec![Value::Float(2.0)]],
        );
        assert!(results_match(&a, &b, false), "2 == 2.0 across row orders");
    }

    #[test]
    fn genuinely_different_floats_still_fail() {
        let a = rs(&["x"], vec![vec![Value::Float(0.25)]]);
        let b = rs(&["x"], vec![vec![Value::Float(0.2501)]]);
        assert!(!results_match(&a, &b, false));
    }
}
