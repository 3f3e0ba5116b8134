//! Typed AST for the Spider SQL subset.
//!
//! The subset covers what the Spider benchmark's gold queries use: single
//! SELECT blocks with joins, aggregation, grouping, having, ordering, limit,
//! the three set operations, and nested subqueries in WHERE (comparison / IN /
//! EXISTS) and FROM positions.

use std::fmt;

/// A literal constant value appearing in a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// SQL NULL.
    Null,
}

impl Literal {
    /// True if this literal is numeric (int or float).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Literal::Int(_) | Literal::Float(_))
    }
}

impl Eq for Literal {}

impl std::hash::Hash for Literal {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Literal::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Literal::Float(v) => {
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Literal::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Literal::Null => 3u8.hash(state),
        }
    }
}

/// Reference to a column, optionally qualified by a table name or alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias; `None` when unqualified.
    pub table: Option<String>,
    /// Column name; `*` is represented by [`Expr::Star`], never here.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified column reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A table-qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

/// Aggregate functions in the Spider subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Canonical uppercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// All aggregate functions, for generators and tests.
    pub const ALL: [AggFunc; 5] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
    ];
}

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// Operator spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Lit(Literal),
    /// A column reference.
    Col(ColumnRef),
    /// `*` — only valid inside `COUNT(*)` or as a select item.
    Star,
    /// An aggregate call, e.g. `COUNT(DISTINCT t.name)`.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Whether `DISTINCT` was present.
        distinct: bool,
        /// The argument; `Expr::Star` for `COUNT(*)`.
        arg: Box<Expr>,
    },
    /// Binary arithmetic.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Unary minus.
    Neg(Box<Expr>),
}

impl Expr {
    /// True if the expression contains an aggregate call anywhere.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Arith { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Neg(e) => e.contains_aggregate(),
            _ => false,
        }
    }

    /// Collect every column referenced by this expression into `out`.
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Col(c) => out.push(c),
            Expr::Agg { arg, .. } => arg.collect_columns(out),
            Expr::Arith { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Neg(e) => e.collect_columns(out),
            _ => {}
        }
    }
}

/// Comparison operators used in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum CmpOp {
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Operator spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator with operand order flipped (`<` becomes `>` etc.).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }
}

/// Right-hand side of a comparison: a scalar expression or a scalar subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A scalar expression.
    Expr(Expr),
    /// A parenthesized subquery expected to return a single value.
    Subquery(Box<Query>),
}

/// Source of values for an IN predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum InSource {
    /// An explicit literal list: `IN (1, 2, 3)`.
    List(Vec<Literal>),
    /// A subquery: `IN (SELECT ...)`.
    Subquery(Box<Query>),
}

/// Boolean conditions (WHERE / HAVING / JOIN ON).
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Comparison between an expression and an operand.
    Cmp {
        /// Left side.
        left: Expr,
        /// Operator.
        op: CmpOp,
        /// Right side.
        right: Operand,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Expr,
        /// Negated?
        negated: bool,
        /// Lower bound.
        low: Expr,
        /// Upper bound.
        high: Expr,
    },
    /// `expr [NOT] IN (...)`.
    In {
        /// Tested expression.
        expr: Expr,
        /// Negated?
        negated: bool,
        /// Value source.
        source: InSource,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        /// Tested expression.
        expr: Expr,
        /// Negated?
        negated: bool,
        /// Pattern with `%` and `_` wildcards.
        pattern: String,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Expr,
        /// Negated (`IS NOT NULL`)?
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists {
        /// Negated?
        negated: bool,
        /// The subquery.
        query: Box<Query>,
    },
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

impl Cond {
    /// Split a condition into its top-level AND-ed conjuncts.
    pub fn conjuncts(&self) -> Vec<&Cond> {
        let mut out = Vec::new();
        fn walk<'a>(c: &'a Cond, out: &mut Vec<&'a Cond>) {
            match c {
                Cond::And(l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// True if any subquery appears anywhere inside this condition.
    pub fn contains_subquery(&self) -> bool {
        match self {
            Cond::Cmp {
                right: Operand::Subquery(_),
                ..
            } => true,
            Cond::In {
                source: InSource::Subquery(_),
                ..
            } => true,
            Cond::Exists { .. } => true,
            Cond::And(l, r) | Cond::Or(l, r) => l.contains_subquery() || r.contains_subquery(),
            Cond::Not(c) => c.contains_subquery(),
            _ => false,
        }
    }
}

/// One item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Optional output alias (`AS name`).
    pub alias: Option<String>,
}

impl SelectItem {
    /// A select item without an alias.
    pub fn bare(expr: Expr) -> Self {
        SelectItem { expr, alias: None }
    }
}

/// A table reference in FROM: either a named table or a derived table.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A base table, optionally aliased.
    Named {
        /// Table name as written.
        name: String,
        /// Optional alias (`AS t1`).
        alias: Option<String>,
    },
    /// A parenthesized subquery used as a table, with a required alias in
    /// standard SQL but optional in Spider's corpus.
    Derived {
        /// The subquery.
        query: Box<Query>,
        /// Optional alias.
        alias: Option<String>,
    },
}

impl TableRef {
    /// The name this reference binds in scope: its alias if present, else the
    /// base table name (derived tables without alias bind nothing).
    pub fn binding(&self) -> Option<&str> {
        match self {
            TableRef::Named { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Derived { alias, .. } => alias.as_deref(),
        }
    }
}

/// A JOIN step: `JOIN <table> [ON cond]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// The joined table.
    pub table: TableRef,
    /// Join condition; Spider gold queries always use equi-joins but model
    /// output may produce arbitrary conditions, so store a full [`Cond`].
    pub on: Option<Cond>,
}

/// The FROM clause: a leading table plus zero or more joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// First table.
    pub base: TableRef,
    /// Subsequent `JOIN ... ON ...` steps.
    pub joins: Vec<Join>,
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SortDir {
    Asc,
    Desc,
}

impl SortDir {
    /// Keyword spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SortDir::Asc => "ASC",
            SortDir::Desc => "DESC",
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression (column or aggregate).
    pub expr: Expr,
    /// Direction; ASC when omitted in the source.
    pub dir: SortDir,
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// `SELECT DISTINCT`?
    pub distinct: bool,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// FROM clause; `None` only for degenerate `SELECT <literal>` queries.
    pub from: Option<FromClause>,
    /// WHERE condition.
    pub where_cond: Option<Cond>,
    /// GROUP BY keys.
    pub group_by: Vec<ColumnRef>,
    /// HAVING condition.
    pub having: Option<Cond>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// Set operations combining two queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum SetOp {
    Union,
    Intersect,
    Except,
}

impl SetOp {
    /// Keyword spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SetOp::Union => "UNION",
            SetOp::Intersect => "INTERSECT",
            SetOp::Except => "EXCEPT",
        }
    }
}

/// A full query: a SELECT block or a set-operation of two queries.
///
/// `Select` is deliberately stored inline: virtually every query in the
/// corpus is a plain select, so boxing it would add an allocation to the
/// common case to shrink the rare one.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Query {
    /// Plain SELECT.
    Select(Select),
    /// `left <op> right` (set semantics, as in SQLite for Spider).
    Compound {
        /// The set operation.
        op: SetOp,
        /// Left query.
        left: Box<Query>,
        /// Right query.
        right: Box<Query>,
    },
}

impl Query {
    /// The leftmost SELECT block, which defines the output arity.
    pub fn head_select(&self) -> &Select {
        match self {
            Query::Select(s) => s,
            Query::Compound { left, .. } => left.head_select(),
        }
    }

    /// Visit every SELECT block in the query, including nested subqueries.
    pub fn visit_selects<'a>(&'a self, f: &mut impl FnMut(&'a Select)) {
        match self {
            Query::Select(s) => {
                f(s);
                // Recurse into FROM-derived tables and condition subqueries.
                if let Some(from) = &s.from {
                    visit_tableref(&from.base, f);
                    for j in &from.joins {
                        visit_tableref(&j.table, f);
                        if let Some(c) = &j.on {
                            visit_cond(c, f);
                        }
                    }
                }
                if let Some(c) = &s.where_cond {
                    visit_cond(c, f);
                }
                if let Some(c) = &s.having {
                    visit_cond(c, f);
                }
            }
            Query::Compound { left, right, .. } => {
                left.visit_selects(f);
                right.visit_selects(f);
            }
        }
    }

    /// True if this query nests another query anywhere (set op counts).
    pub fn is_nested(&self) -> bool {
        match self {
            Query::Compound { .. } => true,
            Query::Select(s) => {
                s.where_cond.as_ref().is_some_and(Cond::contains_subquery)
                    || s.having.as_ref().is_some_and(Cond::contains_subquery)
                    || s.from.as_ref().is_some_and(|f| {
                        matches!(f.base, TableRef::Derived { .. })
                            || f.joins
                                .iter()
                                .any(|j| matches!(j.table, TableRef::Derived { .. }))
                    })
            }
        }
    }
}

fn visit_tableref<'a>(t: &'a TableRef, f: &mut impl FnMut(&'a Select)) {
    if let TableRef::Derived { query, .. } = t {
        query.visit_selects(f);
    }
}

fn visit_cond<'a>(c: &'a Cond, f: &mut impl FnMut(&'a Select)) {
    match c {
        Cond::Cmp {
            right: Operand::Subquery(q),
            ..
        } => q.visit_selects(f),
        Cond::In {
            source: InSource::Subquery(q),
            ..
        } => q.visit_selects(f),
        Cond::Exists { query, .. } => query.visit_selects(f),
        Cond::And(l, r) | Cond::Or(l, r) => {
            visit_cond(l, f);
            visit_cond(r, f);
        }
        Cond::Not(inner) => visit_cond(inner, f),
        _ => {}
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Literal::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Literal::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let leaf = |n: i64| Cond::Cmp {
            left: Expr::Lit(Literal::Int(n)),
            op: CmpOp::Eq,
            right: Operand::Expr(Expr::Lit(Literal::Int(n))),
        };
        let c = Cond::And(
            Box::new(Cond::And(Box::new(leaf(1)), Box::new(leaf(2)))),
            Box::new(leaf(3)),
        );
        assert_eq!(c.conjuncts().len(), 3);
    }

    #[test]
    fn contains_aggregate_walks_arith() {
        let e = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::Lit(Literal::Int(1))),
            right: Box::new(Expr::Agg {
                func: AggFunc::Count,
                distinct: false,
                arg: Box::new(Expr::Star),
            }),
        };
        assert!(e.contains_aggregate());
    }

    #[test]
    fn binding_prefers_alias() {
        let t = TableRef::Named {
            name: "singer".into(),
            alias: Some("t1".into()),
        };
        assert_eq!(t.binding(), Some("t1"));
        let t = TableRef::Named {
            name: "singer".into(),
            alias: None,
        };
        assert_eq!(t.binding(), Some("singer"));
    }

    #[test]
    fn literal_display_escapes_quotes() {
        assert_eq!(Literal::Str("it's".into()).to_string(), "'it''s'");
    }

    #[test]
    fn float_literal_displays_with_decimal() {
        assert_eq!(Literal::Float(3.0).to_string(), "3.0");
    }

    #[test]
    fn flipped_ops() {
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flipped(), CmpOp::Eq);
    }

    #[test]
    fn nested_detection() {
        let inner = Query::Select(Select::default());
        let q = Query::Select(Select {
            where_cond: Some(Cond::In {
                expr: Expr::Col(ColumnRef::new("x")),
                negated: false,
                source: InSource::Subquery(Box::new(inner)),
            }),
            ..Select::default()
        });
        assert!(q.is_nested());
        let plain = Query::Select(Select::default());
        assert!(!plain.is_nested());
    }
}
