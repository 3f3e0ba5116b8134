//! Runtime values with SQLite-flavoured comparison semantics.

use sqlkit::Literal;
use std::cmp::Ordering;
use std::fmt;

/// A runtime cell value.
///
/// Note: the derived `PartialEq` is *structural* (`Int(2) != Float(2.0)`);
/// SQL comparisons go through [`Value::sql_cmp`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 text.
    Str(String),
}

impl Value {
    /// Convert a parsed literal into a runtime value.
    pub fn from_literal(l: &Literal) -> Value {
        match l {
            Literal::Int(v) => Value::Int(*v),
            Literal::Float(v) => Value::Float(*v),
            Literal::Str(s) => Value::Str(s.clone()),
            Literal::Null => Value::Null,
        }
    }

    /// Is this NULL?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to float); `None` for NULL / text.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// SQL comparison: `None` when either side is NULL (unknown), otherwise
    /// the ordering under SQLite's cross-type rules (numbers sort before
    /// text; int/float compare numerically).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            _ => Some(self.total_cmp(other)),
        }
    }

    /// Total order used for ORDER BY and grouping: NULL first, then numbers,
    /// then text (matching SQLite's ordering of storage classes).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Float(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if class(a) == 1 && class(b) == 1 => {
                let fa = a.as_f64().expect("numeric");
                let fb = b.as_f64().expect("numeric");
                float_total_cmp(fa, fb)
            }
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// A normalized key string for hashing in GROUP BY, DISTINCT, set ops
    /// and `count(DISTINCT ..)`. Its classes are: NULL alone; each number by
    /// its f64 image, so `1` and `1.0` share a key, and so do ints beyond
    /// 2^53 that round to one float; `-0.0` apart from `0.0`; every NaN
    /// together; each string byte-exact. These are not `sql_cmp` equality,
    /// which equates `-0.0` with `0.0` and NaN with every number and keeps
    /// distinct ints apart.
    pub fn group_key(&self) -> String {
        match self {
            Value::Null => "n".to_string(),
            Value::Int(v) => format!("f{:?}", *v as f64),
            Value::Float(v) => format!("f{v:?}"),
            Value::Str(s) => format!("s{s}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The one total order over `f64` used by every comparison path in the
/// engine: `Value::total_cmp`, the vectorized kernels in `crate::kernels`,
/// and the sorted secondary indexes.
///
/// Semantics are inherited from `partial_cmp` with a deliberate NaN rule:
/// `-0.0 == 0.0` (IEEE equality) and any comparison involving NaN collapses
/// to `Equal`. That NaN rule is historical (`total_cmp` has always used
/// `partial_cmp(..).unwrap_or(Equal)`); keeping the scalar interpreter and
/// the columnar kernels on this single function is what guarantees they
/// cannot drift bit-for-bit on `-0.0`/NaN/near-epsilon floats.
pub fn float_total_cmp(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).unwrap_or(Ordering::Equal)
}

/// A row of values.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn numbers_sort_before_text() {
        assert_eq!(
            Value::Int(99).total_cmp(&Value::Str("1".into())),
            Ordering::Less
        );
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
    }

    #[test]
    fn group_keys_unify_int_and_float() {
        assert_eq!(Value::Int(3).group_key(), Value::Float(3.0).group_key());
        assert_ne!(
            Value::Int(3).group_key(),
            Value::Str("3".into()).group_key()
        );
        assert_ne!(Value::Null.group_key(), Value::Int(0).group_key());
    }

    #[test]
    fn from_literal_roundtrip() {
        assert!(matches!(
            Value::from_literal(&Literal::Int(5)),
            Value::Int(5)
        ));
        assert!(Value::from_literal(&Literal::Null).is_null());
    }
}
