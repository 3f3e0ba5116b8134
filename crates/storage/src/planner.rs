//! Cost-based front-end planner for the columnar executor.
//!
//! [`plan_front`] analyzes one `SELECT`'s FROM + WHERE and, when the shape
//! is *statically safe* (see below), produces a [`FrontPlan`]: single-table
//! predicates pushed below the joins as vectorized kernels, post-pushdown
//! cardinality estimates from the exact NDV/min-max/null-fraction
//! statistics in [`crate::stats`], a greedy cost-ordered join sequence over
//! equality edges, and a classification of the remaining WHERE work. There
//! is one access path: every FROM table starts from its full selection and
//! runs each pushed predicate as a kernel. Both the executor and `EXPLAIN`
//! call this same function with the same inputs, so the plan shown is the
//! plan run.
//!
//! Returning `None` means "use the reference interpreter for this select" —
//! correctness never depends on the planner recognizing a shape.
//!
//! ## Static safety
//!
//! The columnar front-end reorders work (pushdown, join reordering), which
//! is only sound when the reordered fragment cannot error and cannot change
//! the reference's lazy-error behavior:
//!
//! * every FROM table is a named, existing base table (no derived tables);
//! * every JOIN ... ON is a single `a = b` equi-predicate whose columns,
//!   each resolved to its first occurrence in the combined scope (as the
//!   reference evaluates ON), land on opposite sides of the join (anything
//!   else falls back entirely);
//! * WHERE conjuncts are pushed or turned into join edges only when every
//!   column resolves locally and no subquery/aggregate/`*` appears. A WHERE
//!   containing any unsafe conjunct is executed *whole*, row-at-a-time, over
//!   the join output restored to reference order — identical rows in
//!   identical order reproduce identical errors.
//!
//! ## Key semantics
//!
//! Every join edge, from ON or from a WHERE equi-predicate, compares with
//! `sql_cmp` equality, as the reference does: `-0.0` equals `0.0`, distinct
//! ints beyond 2^53 differ, and NaN equals every number. Edges hash on
//! `exact_key` as a prefilter and re-verify each candidate pairwise; a NaN
//! in a key column forces the pairwise loop fallback because it cannot be
//! bucketed.

use crate::db::Database;
use crate::kernels::KernelPred;
use crate::stats::ColumnStats;
use crate::value::Value;
use sqlkit::ast::*;

/// A fully planned FROM + WHERE front-end for one `SELECT`.
pub(crate) struct FrontPlan<'q> {
    /// One entry per FROM position (base = 0, `joins[i]` = `i + 1`).
    pub tables: Vec<TableAccess<'q>>,
    /// Execution order over FROM positions; `order[0]` is scanned first.
    pub order: Vec<usize>,
    /// Join steps, one per position after the first in `order`.
    pub steps: Vec<JoinStep<'q>>,
    /// What remains of WHERE after pushdown and edge extraction.
    pub where_mode: WhereMode<'q>,
}

/// Access plan for one FROM table.
pub(crate) struct TableAccess<'q> {
    /// The AST node, for probe identity.
    pub tref: &'q TableRef,
    /// Lowercased base-table name.
    pub name: String,
    /// Lowercased binding (alias or table name).
    pub binding: String,
    /// Physical row count.
    pub n_rows: u64,
    /// Pushed predicates applied as vectorized kernels, in WHERE order.
    pub pushed: Vec<KernelPred>,
    /// Display strings of the pushed conjuncts, in WHERE order — for
    /// EXPLAIN labels.
    pub pushed_displays: Vec<String>,
    /// Estimated rows after pushdown.
    pub est_rows: u64,
}

/// One executed join step.
pub(crate) struct JoinStep<'q> {
    /// FROM position introduced by this step.
    pub introduces: usize,
    /// The AST join this step reports against (probe identity). Under
    /// reordering this is `joins[introduces - 1]`, or the starting
    /// position's join when this step introduces position 0 — a bijection,
    /// so every join node reports exactly once.
    pub ast_join: &'q Join,
    /// Equality edges applied at this step.
    pub keys: Vec<JoinKey>,
    /// Pairwise fallback: set when a key column contains NaN.
    pub use_loop: bool,
    /// Estimated output tuples.
    pub est_out: u64,
    /// Display strings of the applied conditions (for EXPLAIN labels).
    pub cond_displays: Vec<String>,
}

/// One equality edge between an already-placed table and the introduced one.
#[derive(Clone, Copy)]
pub(crate) struct JoinKey {
    /// FROM position of the already-placed side.
    pub left_pos: usize,
    /// Column index on the placed side.
    pub left_col: usize,
    /// Column index on the introduced table.
    pub right_col: usize,
}

/// What remains of WHERE after the planner consumed what it could.
pub(crate) enum WhereMode<'q> {
    /// Nothing left (no WHERE, or fully consumed by pushdown/edges).
    None,
    /// Safe leftover conjuncts, evaluated row-wise over the joined output.
    Residual(Vec<&'q Cond>),
    /// The WHERE may error or contains subqueries: evaluate it whole,
    /// row-at-a-time, in reference order.
    RowWise(&'q Cond),
}

struct Edge {
    a: (usize, usize),
    b: (usize, usize),
    display: String,
}

/// Plan the FROM + WHERE front-end of `s`, or `None` to use the reference
/// interpreter. Deterministic in `(db, s)`; estimates read
/// [`Database::cached_stats`].
pub(crate) fn plan_front<'q>(db: &Database, s: &'q Select) -> Option<FrontPlan<'q>> {
    let stats = db.cached_stats();
    let from = s.from.as_ref()?;
    let mut trefs: Vec<&'q TableRef> = vec![&from.base];
    trefs.extend(from.joins.iter().map(|j| &j.table));
    let n_pos = trefs.len();

    // Every FROM entry must be a named, existing base table.
    let mut tables: Vec<TableAccess<'q>> = Vec::with_capacity(n_pos);
    let mut col_names: Vec<Vec<String>> = Vec::with_capacity(n_pos);
    for tref in &trefs {
        let TableRef::Named { name, alias } = tref else {
            return None;
        };
        let schema = db.table_schema(name)?;
        let binding = alias.as_deref().unwrap_or(name).to_lowercase();
        let names: Vec<String> = schema
            .columns
            .iter()
            .map(|c| c.name.to_lowercase())
            .collect();
        let n_rows = db.rows(name).map(|r| r.len() as u64).unwrap_or(0);
        col_names.push(names);
        tables.push(TableAccess {
            tref,
            name: name.to_lowercase(),
            binding,
            n_rows,
            pushed: Vec::new(),
            pushed_displays: Vec::new(),
            est_rows: n_rows,
        });
    }

    // Column resolution mirroring the reference `resolve()`: first
    // (binding, name) match in FROM order, restricted to positions
    // `lo..hi`.
    let resolve_range = |c: &ColumnRef, lo: usize, hi: usize| -> Option<(usize, usize)> {
        let name = c.column.to_lowercase();
        let want = c.table.as_ref().map(|t| t.to_lowercase());
        for p in lo..hi {
            if let Some(w) = &want {
                if tables[p].binding != *w {
                    continue;
                }
            }
            if let Some(ci) = col_names[p].iter().position(|n| *n == name) {
                return Some((p, ci));
            }
        }
        None
    };

    // ON analysis: every ON must be absent (cross) or a single equi-predicate
    // whose columns, resolved over the combined scope with first-occurrence
    // resolution as the reference evaluates ON, land on opposite sides of
    // this step.
    let mut edges: Vec<Edge> = Vec::new();
    for (i, j) in from.joins.iter().enumerate() {
        let p = i + 1;
        let Some(on) = &j.on else { continue };
        let Cond::Cmp {
            left: Expr::Col(ca),
            op: CmpOp::Eq,
            right: Operand::Expr(Expr::Col(cb)),
        } = on
        else {
            return None;
        };
        let a = resolve_range(ca, 0, p + 1)?;
        let b = resolve_range(cb, 0, p + 1)?;
        if (a.0 == p) == (b.0 == p) {
            return None;
        }
        edges.push(Edge {
            a,
            b,
            display: on.to_string(),
        });
    }

    // WHERE classification.
    let resolve_all = |c: &ColumnRef| resolve_range(c, 0, n_pos);
    let mut where_mode = WhereMode::None;
    let mut pushed: Vec<Vec<(KernelPred, String)>> = vec![Vec::new(); n_pos];
    if let Some(cond) = &s.where_cond {
        let mut residuals: Vec<&'q Cond> = Vec::new();
        let mut where_edges: Vec<Edge> = Vec::new();
        let mut safe = true;
        for conj in cond.conjuncts() {
            if let Some((pos, kp)) = classify_pushable(conj, false, &resolve_all) {
                pushed[pos].push((kp, conj.to_string()));
            } else if let Some(e) = classify_edge(conj, &resolve_all) {
                where_edges.push(e);
            } else if cond_is_safe(conj, &resolve_all) {
                residuals.push(conj);
            } else {
                safe = false;
                break;
            }
        }
        if safe {
            if !residuals.is_empty() {
                where_mode = WhereMode::Residual(residuals);
            }
            edges.extend(where_edges);
        } else {
            // Evaluate WHERE whole in reference order; no pushdown at all,
            // so `AND` short-circuiting sees the same rows it would have.
            where_mode = WhereMode::RowWise(cond);
            pushed = vec![Vec::new(); n_pos];
        }
    }

    // Post-pushdown estimates per table: the product of every pushed
    // predicate's selectivity. (Capture table names separately so the
    // closure doesn't pin `tables`, which the loop below mutates.)
    let table_names: Vec<String> = tables.iter().map(|t| t.name.clone()).collect();
    let col_stats = |pos: usize, ci: usize| -> Option<&ColumnStats> {
        stats.table(&table_names[pos])?.column(&col_names[pos][ci])
    };
    for (pos, preds) in pushed.into_iter().enumerate() {
        let t_rows = tables[pos].n_rows;
        let sel_prod: f64 = preds
            .iter()
            .map(|(kp, _)| pred_selectivity(kp, col_stats(pos, kp.col()), t_rows))
            .product();
        tables[pos].est_rows = est_mul(t_rows, sel_prod);
        (tables[pos].pushed, tables[pos].pushed_displays) = preds.into_iter().unzip();
    }

    // Greedy cost-ordered join sequence: start at the cheapest table, then
    // repeatedly take the connected table with the smallest estimated join
    // output (disconnected tables fall back to FROM order as cross joins).
    let ndv = |pos: usize, ci: usize| col_stats(pos, ci).map(|c| c.ndv).unwrap_or(1).max(1);
    let start = (0..n_pos)
        .min_by_key(|&p| (tables[p].est_rows, p))
        .expect("at least one table");
    let mut placed = vec![false; n_pos];
    placed[start] = true;
    let mut order = vec![start];
    let mut acc_est = tables[start].est_rows;
    let mut steps: Vec<JoinStep<'q>> = Vec::with_capacity(n_pos.saturating_sub(1));
    while order.len() < n_pos {
        let connecting = |q: usize| -> Vec<&Edge> {
            edges
                .iter()
                .filter(|e| (e.a.0 == q && placed[e.b.0]) || (e.b.0 == q && placed[e.a.0]))
                .collect()
        };
        let est_with = |q: usize| -> u64 {
            let mut est = acc_est as f64 * tables[q].est_rows as f64;
            for e in connecting(q) {
                est /= ndv(e.a.0, e.a.1).max(ndv(e.b.0, e.b.1)) as f64;
            }
            est.ceil() as u64
        };
        let q = (0..n_pos)
            .filter(|&q| !placed[q] && !connecting(q).is_empty())
            .min_by_key(|&q| (est_with(q), q))
            .unwrap_or_else(|| (0..n_pos).find(|&q| !placed[q]).expect("unplaced"));
        let est_out = est_with(q);
        let mut keys = Vec::new();
        let mut cond_displays = Vec::new();
        for e in connecting(q) {
            let (left, right_col) = if e.b.0 == q {
                (e.a, e.b.1)
            } else {
                (e.b, e.a.1)
            };
            keys.push(JoinKey {
                left_pos: left.0,
                left_col: left.1,
                right_col,
            });
            cond_displays.push(e.display.clone());
        }
        let use_loop = keys.iter().any(|k| {
            columnar_has_nan(db, &tables[k.left_pos].name, k.left_col)
                || columnar_has_nan(db, &tables[q].name, k.right_col)
        });
        let ast_join = if q > 0 {
            &from.joins[q - 1]
        } else {
            &from.joins[start - 1]
        };
        steps.push(JoinStep {
            introduces: q,
            ast_join,
            keys,
            use_loop,
            est_out,
            cond_displays,
        });
        placed[q] = true;
        order.push(q);
        acc_est = est_out;
    }

    Some(FrontPlan {
        tables,
        order,
        steps,
        where_mode,
    })
}

fn columnar_has_nan(db: &Database, table: &str, col: usize) -> bool {
    db.columnar(table)
        .map(|ct| ct.columns[col].has_nan)
        .unwrap_or(false)
}

/// `x AND NOT x` folding of comparison operators (total on non-NULL values,
/// so the 3VL keep test is preserved: NULL drops on both sides).
fn negate_op(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Neq,
        CmpOp::Neq => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
    }
}

/// Classify a conjunct as a single-table pushable predicate, folding any
/// number of outer `NOT`s into the kernel's own negation.
fn classify_pushable(
    c: &Cond,
    neg: bool,
    resolve: &impl Fn(&ColumnRef) -> Option<(usize, usize)>,
) -> Option<(usize, KernelPred)> {
    match c {
        Cond::Not(inner) => classify_pushable(inner, !neg, resolve),
        Cond::Cmp {
            left,
            op,
            right: Operand::Expr(right),
        } => {
            let (cr, lit, op) = match (left, right) {
                (Expr::Col(cr), Expr::Lit(l)) => (cr, l, *op),
                (Expr::Lit(l), Expr::Col(cr)) => (cr, l, op.flipped()),
                _ => return None,
            };
            let op = if neg { negate_op(op) } else { op };
            let (pos, col) = resolve(cr)?;
            Some((
                pos,
                KernelPred::Cmp {
                    col,
                    op,
                    lit: Value::from_literal(lit),
                },
            ))
        }
        Cond::Between {
            expr: Expr::Col(cr),
            negated,
            low: Expr::Lit(lo),
            high: Expr::Lit(hi),
        } => {
            let (pos, col) = resolve(cr)?;
            Some((
                pos,
                KernelPred::Between {
                    col,
                    lo: Value::from_literal(lo),
                    hi: Value::from_literal(hi),
                    negated: *negated != neg,
                },
            ))
        }
        Cond::In {
            expr: Expr::Col(cr),
            negated,
            source: InSource::List(lits),
        } => {
            let (pos, col) = resolve(cr)?;
            Some((
                pos,
                KernelPred::InList {
                    col,
                    list: lits.iter().map(Value::from_literal).collect(),
                    negated: *negated != neg,
                },
            ))
        }
        Cond::Like {
            expr: Expr::Col(cr),
            negated,
            pattern,
        } => {
            let (pos, col) = resolve(cr)?;
            Some((
                pos,
                KernelPred::Like {
                    col,
                    pattern: pattern.clone(),
                    negated: *negated != neg,
                },
            ))
        }
        Cond::IsNull {
            expr: Expr::Col(cr),
            negated,
        } => {
            let (pos, col) = resolve(cr)?;
            Some((
                pos,
                KernelPred::IsNull {
                    col,
                    negated: *negated != neg,
                },
            ))
        }
        _ => None,
    }
}

/// Classify a conjunct as a cross-table equi-edge (`sql_cmp` semantics).
fn classify_edge(
    c: &Cond,
    resolve: &impl Fn(&ColumnRef) -> Option<(usize, usize)>,
) -> Option<Edge> {
    let Cond::Cmp {
        left: Expr::Col(ca),
        op: CmpOp::Eq,
        right: Operand::Expr(Expr::Col(cb)),
    } = c
    else {
        return None;
    };
    let a = resolve(ca)?;
    let b = resolve(cb)?;
    if a.0 == b.0 {
        return None; // same table: leave as a residual filter
    }
    Some(Edge {
        a,
        b,
        display: c.to_string(),
    })
}

/// Can this expression be evaluated for any row without erroring?
fn expr_is_safe(e: &Expr, resolve: &impl Fn(&ColumnRef) -> Option<(usize, usize)>) -> bool {
    match e {
        Expr::Lit(_) => true,
        Expr::Col(c) => resolve(c).is_some(),
        Expr::Star | Expr::Agg { .. } => false,
        Expr::Arith { left, right, .. } => {
            expr_is_safe(left, resolve) && expr_is_safe(right, resolve)
        }
        Expr::Neg(inner) => expr_is_safe(inner, resolve),
    }
}

/// Can this condition be evaluated for any row without erroring? (No
/// subqueries, no aggregates, every column locally resolvable — arithmetic
/// is total: overflow widens to float and division by zero yields NULL.)
fn cond_is_safe(c: &Cond, resolve: &impl Fn(&ColumnRef) -> Option<(usize, usize)>) -> bool {
    match c {
        Cond::Cmp {
            left,
            op: _,
            right: Operand::Expr(r),
        } => expr_is_safe(left, resolve) && expr_is_safe(r, resolve),
        Cond::Cmp { .. } => false, // scalar subquery
        Cond::Between {
            expr, low, high, ..
        } => {
            expr_is_safe(expr, resolve) && expr_is_safe(low, resolve) && expr_is_safe(high, resolve)
        }
        Cond::In {
            expr,
            source: InSource::List(_),
            ..
        } => expr_is_safe(expr, resolve),
        Cond::In { .. } => false, // IN (subquery)
        Cond::Like { expr, .. } => expr_is_safe(expr, resolve),
        Cond::IsNull { expr, .. } => expr_is_safe(expr, resolve),
        Cond::Exists { .. } => false,
        Cond::And(l, r) | Cond::Or(l, r) => cond_is_safe(l, resolve) && cond_is_safe(r, resolve),
        Cond::Not(inner) => cond_is_safe(inner, resolve),
    }
}

/// Multiply a cardinality by a selectivity, rounding up and clamping. A
/// non-finite selectivity (degenerate stats that slipped every other
/// guard) estimates conservatively as "no reduction" rather than letting a
/// NaN→u64 cast collapse the estimate to 0 and silently reorder joins.
fn est_mul(rows: u64, sel: f64) -> u64 {
    if !sel.is_finite() {
        return rows;
    }
    ((rows as f64 * sel.clamp(0.0, 1.0)).ceil() as u64).min(rows)
}

/// Final guard on every selectivity estimate: stats over adversarial data
/// (NaN min/max from NaN-bearing columns, ±inf spans, NDV 0 on empty or
/// all-NULL tables) must never leak a non-finite or out-of-range factor
/// into plan costs — plans must stay deterministic on any database.
fn sane_sel(s: f64) -> f64 {
    if s.is_finite() {
        s.clamp(0.0, 1.0)
    } else {
        0.1
    }
}

fn flip(s: f64, negated: bool) -> f64 {
    if negated {
        1.0 - s
    } else {
        s
    }
}

/// Position of `lit` within the column's [min, max] span, for range
/// interpolation; `None` when any of the three is non-numeric.
fn range_fraction(cs: Option<&ColumnStats>, lit: &Value) -> Option<f64> {
    let cs = cs?;
    let (min, max) = (cs.min.as_ref()?.as_f64()?, cs.max.as_ref()?.as_f64()?);
    let v = lit.as_f64()?;
    // NaN min/max (a NaN-bearing column) fails every comparison, so the
    // degenerate-span check below would pass NaN straight into the
    // division; ±inf spans likewise yield inf/NaN fractions. Bail to the
    // textbook fallback for any non-finite ingredient.
    if !min.is_finite() || !max.is_finite() || !v.is_finite() {
        return None;
    }
    if max <= min {
        return None;
    }
    Some(((v - min) / (max - min)).clamp(0.0, 1.0))
}

/// Estimated selectivity of one pushed predicate, sharpened by stats:
/// equality via exact NDV, ranges via min-max interpolation, IS NULL via the
/// exact null fraction, with the textbook constants as fallbacks.
fn pred_selectivity(kp: &KernelPred, cs: Option<&ColumnStats>, _rows: u64) -> f64 {
    let eq_sel = || match cs.map(|c| c.ndv) {
        Some(ndv) if ndv > 0 => 1.0 / ndv as f64,
        _ => 0.1,
    };
    sane_sel(match kp {
        KernelPred::Cmp { op, lit, .. } => match op {
            CmpOp::Eq => eq_sel(),
            CmpOp::Neq => 1.0 - eq_sel(),
            CmpOp::Lt | CmpOp::Le => range_fraction(cs, lit).unwrap_or(1.0 / 3.0),
            CmpOp::Gt | CmpOp::Ge => range_fraction(cs, lit)
                .map(|f| 1.0 - f)
                .unwrap_or(1.0 / 3.0),
        },
        KernelPred::Between {
            lo, hi, negated, ..
        } => {
            let s = match (range_fraction(cs, lo), range_fraction(cs, hi)) {
                (Some(a), Some(b)) => (b - a).max(0.0),
                _ => 0.25,
            };
            flip(s, *negated)
        }
        KernelPred::InList { list, negated, .. } => {
            flip((list.len() as f64 * 0.1).min(1.0), *negated)
        }
        KernelPred::Like { negated, .. } => flip(0.25, *negated),
        KernelPred::IsNull { negated, .. } => {
            let frac = cs
                .map(|c| {
                    if _rows == 0 {
                        0.0
                    } else {
                        c.nulls as f64 / _rows as f64
                    }
                })
                .unwrap_or(0.05);
            flip(frac, *negated)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, DbSchema, TableSchema};

    /// `big` (200 rows, ids 0..200, val cycles 0..10) and `small` (10 rows).
    fn db() -> Database {
        let schema = DbSchema {
            db_id: "planner_test".into(),
            tables: vec![
                TableSchema {
                    name: "big".into(),
                    columns: vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("val", ColType::Int),
                    ],
                    primary_key: vec![0],
                },
                TableSchema {
                    name: "small".into(),
                    columns: vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("tag", ColType::Text),
                    ],
                    primary_key: vec![0],
                },
            ],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        for i in 0..200 {
            d.insert("big", vec![Value::Int(i), Value::Int(i % 10)])
                .unwrap();
        }
        for i in 0..10 {
            d.insert("small", vec![Value::Int(i), Value::Str(format!("t{i}"))])
                .unwrap();
        }
        d
    }

    fn plan<'q>(db: &Database, q: &'q Query) -> Option<FrontPlan<'q>> {
        let Query::Select(s) = q else {
            panic!("select")
        };
        plan_front(db, s)
    }

    fn parse(sql: &str) -> Query {
        sqlkit::parse_query(sql).unwrap()
    }

    // ---- pushdown and estimates ----

    #[test]
    fn equality_estimate_uses_exact_ndv() {
        let d = db();
        let q = parse("SELECT * FROM big WHERE id = 7");
        let fp = plan(&d, &q).unwrap();
        // 1/ndv = 1/200 → est 1 row.
        assert_eq!(fp.tables[0].est_rows, 1);
        assert_eq!(fp.tables[0].pushed.len(), 1);
    }

    #[test]
    fn wide_range_stays_a_scan() {
        let d = db();
        // id > 10 covers ~95% of [0,199].
        let q = parse("SELECT * FROM big WHERE id > 10");
        let fp = plan(&d, &q).unwrap();
        let kernel = KernelPred::Cmp {
            col: 0,
            op: CmpOp::Gt,
            lit: Value::Int(10),
        };
        assert_eq!(fp.tables[0].pushed, [kernel]);
        // 1 - 10/199 of 200 rows, rounded up.
        assert_eq!(fp.tables[0].est_rows, 190);
    }

    #[test]
    fn every_pushed_conjunct_runs_as_a_kernel() {
        let d = db();
        // val = 3 has sel 1/10 and id = 7 has sel 1/200: both run as
        // kernels, in WHERE order, and the estimate multiplies them.
        let q = parse("SELECT * FROM big WHERE val = 3 AND id = 7");
        let fp = plan(&d, &q).unwrap();
        let cols: Vec<usize> = fp.tables[0].pushed.iter().map(KernelPred::col).collect();
        assert_eq!(cols, [1, 0]);
        assert_eq!(fp.tables[0].pushed_displays, ["val = 3", "id = 7"]);
        assert_eq!(fp.tables[0].est_rows, 1);
    }

    // ---- join ordering ----

    #[test]
    fn join_starts_from_the_filtered_side() {
        let d = db();
        let q = parse("SELECT * FROM big AS b JOIN small AS s ON b.val = s.id WHERE b.id = 7");
        let fp = plan(&d, &q).unwrap();
        // big is filtered to ~1 row, so it goes first despite being larger.
        assert_eq!(fp.order, vec![0, 1]);
        assert_eq!(fp.steps.len(), 1);
        assert_eq!(fp.steps[0].introduces, 1);
        // est: 1 * 10 / max(ndv(val)=10, ndv(id)=10) = 1.
        assert_eq!(fp.steps[0].est_out, 1);
    }

    #[test]
    fn join_reorders_to_the_smaller_table() {
        let d = db();
        let q = parse("SELECT * FROM big AS b JOIN small AS s ON b.val = s.id");
        let fp = plan(&d, &q).unwrap();
        // Unfiltered: small (10) beats big (200) as the start.
        assert_eq!(fp.order, vec![1, 0]);
        // The step that introduces position 0 reports against the leftover
        // AST join (the bijection keeps probe accounting exact).
        assert_eq!(fp.steps[0].introduces, 0);
        assert!(!fp.steps[0].keys.is_empty());
    }

    #[test]
    fn where_equi_pred_becomes_a_join_key() {
        let d = db();
        let q = parse("SELECT * FROM big AS b JOIN small AS s ON b.val = s.id WHERE b.id = s.id");
        let fp = plan(&d, &q).unwrap();
        assert!(matches!(fp.where_mode, WhereMode::None));
        let step = &fp.steps[0];
        assert_eq!(step.keys.len(), 2);
        assert_eq!(step.cond_displays, ["b.val = s.id", "b.id = s.id"]);
    }

    #[test]
    fn on_columns_resolve_to_their_first_occurrence() {
        let d = db();
        // Unqualified `id` is big's, the first in FROM order, so both
        // columns land on big's side and the ON is not a join edge.
        let q = parse("SELECT * FROM big AS b JOIN small AS s ON b.val = id");
        assert!(plan(&d, &q).is_none());
        let q = parse("SELECT * FROM big AS b JOIN small AS s ON s.id = val");
        assert!(plan(&d, &q).is_some());
    }

    // ---- safety fallbacks ----

    #[test]
    fn subquery_in_where_goes_row_wise() {
        let d = db();
        let q = parse("SELECT * FROM big WHERE val = 3 AND id IN (SELECT id FROM small)");
        let fp = plan(&d, &q).unwrap();
        // Unsafe conjunct: the whole WHERE is row-wise, nothing pushed.
        assert!(matches!(fp.where_mode, WhereMode::RowWise(_)));
        assert!(fp.tables[0].pushed.is_empty());
    }

    #[test]
    fn non_equi_on_falls_back_entirely() {
        let d = db();
        let q = parse("SELECT * FROM big AS b JOIN small AS s ON b.val > s.id");
        assert!(plan(&d, &q).is_none());
    }

    #[test]
    fn unknown_table_falls_back_entirely() {
        let d = db();
        let q = parse("SELECT * FROM nope WHERE x = 1");
        assert!(plan(&d, &q).is_none());
    }

    #[test]
    fn safe_residual_is_kept_row_wise_after_pushdown() {
        let d = db();
        let q = parse("SELECT * FROM big WHERE id = 7 AND id + val > 5");
        let fp = plan(&d, &q).unwrap();
        match &fp.where_mode {
            WhereMode::Residual(conds) => assert_eq!(conds.len(), 1),
            _ => panic!("expected a residual"),
        }
        let kernel = KernelPred::Cmp {
            col: 0,
            op: CmpOp::Eq,
            lit: Value::Int(7),
        };
        assert_eq!(fp.tables[0].pushed, [kernel]);
    }

    // ---- degenerate-stats guards ----

    fn cstats(min: Value, max: Value, ndv: u64) -> ColumnStats {
        ColumnStats {
            name: "c".into(),
            ndv,
            nulls: 0,
            min: Some(min),
            max: Some(max),
            width: obskit::Histogram::default(),
        }
    }

    #[test]
    fn range_fraction_refuses_non_finite_spans() {
        // An all-NaN column collects NaN min/max; `max <= min` is false for
        // NaN, so without the finite guard the division would yield NaN.
        let nan = cstats(Value::Float(f64::NAN), Value::Float(f64::NAN), 1);
        assert_eq!(range_fraction(Some(&nan), &Value::Float(1.0)), None);
        let inf = cstats(
            Value::Float(f64::NEG_INFINITY),
            Value::Float(f64::INFINITY),
            3,
        );
        assert_eq!(range_fraction(Some(&inf), &Value::Float(0.0)), None);
        let ok = cstats(Value::Int(0), Value::Int(10), 10);
        assert_eq!(range_fraction(Some(&ok), &Value::Float(f64::NAN)), None);
        assert_eq!(range_fraction(Some(&ok), &Value::Int(5)), Some(0.5));
    }

    #[test]
    fn est_mul_survives_nan_and_out_of_range_selectivity() {
        assert_eq!(est_mul(100, f64::NAN), 100);
        assert_eq!(est_mul(100, f64::INFINITY), 100);
        assert_eq!(est_mul(100, -0.5), 0);
        assert_eq!(est_mul(100, 7.0), 100);
        assert_eq!(est_mul(0, f64::NAN), 0);
        assert_eq!(sane_sel(f64::NAN), 0.1);
        assert_eq!(sane_sel(f64::NEG_INFINITY), 0.1);
        assert_eq!(sane_sel(2.0), 1.0);
    }

    /// `dead` (empty), `ghost` (all-NULL column), `haze` (all-NaN column):
    /// the degenerate shapes spider-gen can emit.
    fn degenerate_db() -> Database {
        let schema = DbSchema {
            db_id: "degenerate".into(),
            tables: vec![
                TableSchema {
                    name: "dead".into(),
                    columns: vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("x", ColType::Float),
                    ],
                    primary_key: vec![0],
                },
                TableSchema {
                    name: "ghost".into(),
                    columns: vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("x", ColType::Float),
                    ],
                    primary_key: vec![0],
                },
                TableSchema {
                    name: "haze".into(),
                    columns: vec![
                        ColumnDef::new("id", ColType::Int),
                        ColumnDef::new("x", ColType::Float),
                    ],
                    primary_key: vec![0],
                },
            ],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        for i in 0..50 {
            d.insert("ghost", vec![Value::Int(i), Value::Null]).unwrap();
            d.insert("haze", vec![Value::Int(i), Value::Float(f64::NAN)])
                .unwrap();
        }
        d
    }

    #[test]
    fn nan_minmax_stats_fall_back_instead_of_poisoning_estimates() {
        let d = degenerate_db();
        // haze.x collects NaN min/max; before the guards this estimated
        // NaN·rows → 0 rows via the saturating cast.
        let q = parse("SELECT * FROM haze WHERE x < 1.0");
        let fp = plan(&d, &q).unwrap();
        // Textbook 1/3 fallback: ceil(50/3) = 17, not 0 and not 50.
        assert_eq!(fp.tables[0].est_rows, 17);
    }

    #[test]
    fn empty_and_all_null_tables_plan_deterministically() {
        let d = degenerate_db();
        let q = parse("SELECT * FROM dead WHERE x > 2.5 AND id = 1");
        let fp = plan(&d, &q).unwrap();
        assert_eq!(fp.tables[0].est_rows, 0);
        // All-NULL column: NDV 0 (eq fallback) and min/max None (range
        // fallback); the IS NULL fraction is exact.
        let q = parse("SELECT * FROM ghost WHERE x = 1.0");
        let fp = plan(&d, &q).unwrap();
        assert_eq!(fp.tables[0].est_rows, 5); // 50 · 0.1 NDV fallback
        let q = parse("SELECT * FROM ghost WHERE x IS NULL");
        let fp = plan(&d, &q).unwrap();
        assert_eq!(fp.tables[0].est_rows, 50);
        let q = parse("SELECT * FROM ghost WHERE x IS NOT NULL");
        let fp = plan(&d, &q).unwrap();
        assert_eq!(fp.tables[0].est_rows, 0);
    }

    #[test]
    fn joins_over_degenerate_tables_keep_finite_costs() {
        let d = degenerate_db();
        let q = parse(
            "SELECT * FROM ghost AS g JOIN haze AS h ON g.id = h.id \
             WHERE g.x < 3.0 AND h.x < 3.0",
        );
        let fp = plan(&d, &q).unwrap();
        // Both sides fall back to 1/3; join est divides by ndv(id) = 50.
        for step in &fp.steps {
            assert!(step.est_out <= 50 * 50, "estimate must stay clamped");
        }
        // Planning twice yields the identical order: determinism survives
        // degenerate stats.
        let q2 = parse(
            "SELECT * FROM ghost AS g JOIN haze AS h ON g.id = h.id \
             WHERE g.x < 3.0 AND h.x < 3.0",
        );
        let fp2 = plan(&d, &q2).unwrap();
        assert_eq!(fp.order, fp2.order);
        assert_eq!(
            fp.steps.iter().map(|s| s.est_out).collect::<Vec<_>>(),
            fp2.steps.iter().map(|s| s.est_out).collect::<Vec<_>>()
        );
    }
}
