//! Execution errors.

use std::fmt;

/// An error raised while executing a query.
///
/// When the evaluation harness executes *predicted* SQL, these errors are
/// expected (the model hallucinated a table, produced a type error, ...) and
/// count as execution failures rather than panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Referenced table does not exist.
    UnknownTable(String),
    /// Referenced column cannot be resolved in scope.
    UnknownColumn(String),
    /// Row arity does not match the table schema.
    Arity {
        /// Table name.
        table: String,
        /// Expected column count.
        expected: usize,
        /// Provided value count.
        got: usize,
    },
    /// Set operation operands have different column counts.
    SetOpArity(usize, usize),
    /// A scalar subquery returned more than one column.
    SubqueryArity(usize),
    /// Aggregate used in an invalid position (e.g. inside WHERE).
    InvalidAggregate(String),
    /// `*` used somewhere it is not allowed.
    InvalidStar,
    /// Anything else the engine does not support.
    Unsupported(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            ExecError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            ExecError::Arity {
                table,
                expected,
                got,
            } => {
                write!(f, "table {table} expects {expected} values, got {got}")
            }
            ExecError::SetOpArity(a, b) => {
                write!(f, "set operation arity mismatch: {a} vs {b} columns")
            }
            ExecError::SubqueryArity(n) => {
                write!(f, "scalar subquery returned {n} columns, expected 1")
            }
            ExecError::InvalidAggregate(s) => write!(f, "invalid aggregate use: {s}"),
            ExecError::InvalidStar => write!(f, "'*' is not valid here"),
            ExecError::Unsupported(s) => write!(f, "unsupported: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Convenience alias.
pub type ExecResult<T> = Result<T, ExecError>;
