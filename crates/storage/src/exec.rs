//! Volcano-style tree-walking executor for the Spider SQL subset.
//!
//! The executor materializes intermediate relations (the Spider databases are
//! small) and supports correlated subqueries via a stack of outer row scopes.
//! `ON a = b` means what `WHERE a = b` means: `sql_cmp` equality, each
//! column resolved to its first occurrence in the combined scope. When the
//! two columns land on opposite sides the join hashes on `exact_key` and
//! re-verifies each candidate with `sql_cmp`, which yields the nested loop's
//! rows in the nested loop's order.
//!
//! The columnar engine runs each uncorrelated subquery once per statement:
//! a subquery whose first run read no outer row is memoized for the rest of
//! the execute call (see `Executor::subquery`). The reference interpreter
//! ([`Engine::Oracle`]) re-runs every subquery for every outer row, and
//! [`crate::check_agreement`] holds the memo to that.

use crate::db::Database;
use crate::error::{ExecError, ExecResult};
use crate::explain::{Plan, Probe, SelectIds};
use crate::value::{Row, Value};
use sqlkit::ast::*;
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

/// Execution engine choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Vectorized columnar front-end with cost-based planning (default).
    /// Falls back per-select to the reference interpreter whenever the
    /// planner does not recognize the FROM/WHERE shape as statically safe,
    /// and runs each uncorrelated subquery once per statement.
    #[default]
    Columnar,
    /// The row-at-a-time reference interpreter, unconditionally, re-running
    /// every subquery for every outer row. This is the differential-testing
    /// oracle (and `exec-bench --engine oracle`); results are
    /// `value_eq`-identical to [`Engine::Columnar`] by construction.
    Oracle,
}

/// Execute a query against a database on the default engine.
pub fn execute_query(db: &Database, q: &Query) -> ExecResult<ResultSet> {
    execute_query_with(db, q, Engine::default())
}

/// Execute on an explicit engine.
pub fn execute_query_with(db: &Database, q: &Query, engine: Engine) -> ExecResult<ResultSet> {
    let ex = Executor::new(db, engine, None);
    let out = ex.run(q);
    if obskit::enabled() {
        let g = obskit::current();
        g.add_counter("storage.statements", 1);
        g.add_counter("storage.rows_scanned", ex.rows_scanned.get());
        if out.is_err() {
            g.add_counter("storage.errors", 1);
        }
    }
    out
}

/// Result of an analyzed execution: the rows plus the annotated plan tree.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// The query result (identical to [`execute_query_with`] output).
    pub result: ResultSet,
    /// Plan tree with actual row counts, invocations and exact self-times.
    pub plan: Plan,
}

/// Execute with per-operator instrumentation (EXPLAIN ANALYZE).
///
/// Rows are identical to [`execute_query_with`] by construction — same code
/// path, plus probe bookkeeping. On success, the plan's operator self-times
/// partition the statement's wall-clock exactly (`plan.total_self_ns()` *is*
/// the measured total). When an enabled sink is current, the statement
/// counters and per-operator observation metrics
/// ([`Plan::record_observations`]) are recorded, and when `trace` is
/// recording a `storage.exec` span with exactly that duration is emitted
/// under the innermost open span. A request that was sampled out emits
/// no span. The plan's cardinality estimates read
/// [`Database::cached_stats`], as the planner does, so the plan shown is
/// the plan run.
pub fn execute_query_analyzed(
    db: &Database,
    q: &Query,
    engine: Engine,
    trace: obskit::TraceContext,
) -> ExecResult<Analyzed> {
    let (mut nodes, root, map) = crate::explain::build_plan(db, q, engine);
    let probe = Probe::new(map, nodes.len());
    let (out, rows_scanned) = {
        let ex = Executor::new(db, engine, Some(&probe));
        probe.enter(root);
        let out = ex.run(q);
        probe.exit();
        if let Ok(rs) = &out {
            // The synthetic root passes the final result through unchanged.
            probe.rows(root, rs.rows.len() as u64, rs.rows.len() as u64);
        }
        (out, ex.rows_scanned.get())
    };
    for (node, st) in nodes.iter_mut().zip(probe.into_stats()) {
        node.stats = st;
    }
    let plan = Plan { nodes, root };
    if obskit::enabled() {
        let g = obskit::current();
        g.add_counter("storage.statements", 1);
        g.add_counter("storage.rows_scanned", rows_scanned);
        if out.is_err() {
            g.add_counter("storage.errors", 1);
        } else {
            if trace.is_recording() {
                g.record_span("storage.exec", plan.total_self_ns());
            }
            plan.record_observations(&g);
        }
    }
    Ok(Analyzed { result: out?, plan })
}

/// An intermediate relation: labelled columns plus rows.
#[derive(Debug, Clone)]
struct Relation {
    /// (binding, column) labels, both lowercase.
    cols: Vec<(String, String)>,
    rows: Vec<Row>,
}

/// One outer scope for correlated subqueries.
#[derive(Clone, Copy)]
struct OuterScope<'a> {
    cols: &'a [(String, String)],
    row: &'a Row,
}

/// Evaluation context: a single row or a group of rows (aggregate context).
enum Ctx<'a> {
    Row {
        cols: &'a [(String, String)],
        row: &'a Row,
    },
    Group {
        cols: &'a [(String, String)],
        rows: &'a [Row],
    },
}

impl<'a> Ctx<'a> {
    fn cols(&self) -> &'a [(String, String)] {
        match self {
            Ctx::Row { cols, .. } | Ctx::Group { cols, .. } => cols,
        }
    }

    /// The representative row for bare-column evaluation (SQLite picks an
    /// arbitrary row of the group; we pick the first).
    fn repr_row(&self) -> Option<&'a Row> {
        match self {
            Ctx::Row { row, .. } => Some(row),
            Ctx::Group { rows, .. } => rows.first(),
        }
    }
}

struct Executor<'a> {
    db: &'a Database,
    engine: Engine,
    /// Base-table rows materialized by scans (telemetry only).
    rows_scanned: Cell<u64>,
    /// Per-operator probe for analyzed runs; `None` on the normal path, in
    /// which case every probe hook is a single branch.
    probe: Option<&'a Probe>,
    /// Results of the subqueries whose run read no outer row, keyed by the
    /// subquery's AST address; lives as long as this one execute call.
    memo: RefCell<HashMap<usize, Rc<ResultSet>>>,
    /// Lowest outer-scope index read since [`Executor::subquery`] last
    /// reset it, `usize::MAX` for none.
    outer_read: Cell<usize>,
}

/// RAII guard for a probe `enter`: exits on drop, so early `?` returns keep
/// the probe stack balanced (the time partition stays exact even when a
/// statement errors out mid-operator).
struct ProbeGuard<'p>(Option<&'p Probe>);

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.0 {
            p.exit();
        }
    }
}

impl<'a> Executor<'a> {
    fn new(db: &'a Database, engine: Engine, probe: Option<&'a Probe>) -> Self {
        Executor {
            db,
            engine,
            rows_scanned: Cell::new(0),
            probe,
            memo: RefCell::new(HashMap::new()),
            outer_read: Cell::new(usize::MAX),
        }
    }

    fn run(&self, q: &Query) -> ExecResult<ResultSet> {
        self.exec_query(q, &[])
    }

    // ---- probe hooks (no-ops unless this is an analyzed run) ----

    fn pg(&self, id: Option<usize>) -> ProbeGuard<'a> {
        match (self.probe, id) {
            (Some(p), Some(id)) => {
                p.enter(id);
                ProbeGuard(Some(p))
            }
            _ => ProbeGuard(None),
        }
    }

    fn prows(&self, id: Option<usize>, rows_in: usize, rows_out: usize) {
        if let (Some(p), Some(id)) = (self.probe, id) {
            p.rows(id, rows_in as u64, rows_out as u64);
        }
    }

    fn sel_ids(&self, s: &Select) -> SelectIds {
        self.probe
            .and_then(|p| p.map.select_ids(s))
            .unwrap_or_default()
    }

    fn scan_pid(&self, t: &TableRef) -> Option<usize> {
        self.probe.and_then(|p| p.map.scan_id(t))
    }

    fn join_pid(&self, j: &Join) -> Option<usize> {
        self.probe.and_then(|p| p.map.join_id(j))
    }

    fn setop_pid(&self, q: &Query) -> Option<usize> {
        self.probe.and_then(|p| p.map.setop_id(q))
    }

    fn subq_pid(&self, q: &Query) -> Option<usize> {
        self.probe.and_then(|p| p.map.subq_id(q))
    }

    fn exec_query(&self, q: &Query, outers: &[OuterScope<'_>]) -> ExecResult<ResultSet> {
        match q {
            Query::Select(s) => self.exec_select(s, outers),
            Query::Compound { op, left, right } => {
                let l = self.exec_query(left, outers)?;
                let r = self.exec_query(right, outers)?;
                if l.columns.len() != r.columns.len() {
                    return Err(ExecError::SetOpArity(l.columns.len(), r.columns.len()));
                }
                let pid = self.setop_pid(q);
                let (lin, rin) = (l.rows.len(), r.rows.len());
                let out = {
                    let _g = self.pg(pid);
                    apply_set_op(*op, l, r)
                };
                self.prows(pid, lin + rin, out.rows.len());
                Ok(out)
            }
        }
    }

    fn exec_select(&self, s: &Select, outers: &[OuterScope<'_>]) -> ExecResult<ResultSet> {
        let pids = self.sel_ids(s);

        // 1. + 2. FROM and WHERE. The columnar front-end handles both at
        // once when the cost-based planner recognizes the shape as
        // statically safe; otherwise the reference scan → join → filter
        // path runs. Both produce identical rows in identical order.
        let front = match (&s.from, self.engine) {
            (Some(_), Engine::Columnar) => crate::planner::plan_front(self.db, s),
            _ => None,
        };
        let Relation {
            cols: rel_cols,
            rows: filtered,
        } = match front {
            Some(fp) => self.exec_front_columnar(fp, outers, &pids)?,
            None => {
                let rel = match &s.from {
                    Some(from) => self.exec_from(from, outers)?,
                    None => Relation {
                        cols: Vec::new(),
                        rows: vec![Vec::new()],
                    },
                };
                let mut filtered: Vec<Row> = Vec::with_capacity(rel.rows.len());
                match &s.where_cond {
                    Some(cond) => {
                        let g = self.pg(pids.filter);
                        for row in &rel.rows {
                            let ctx = Ctx::Row {
                                cols: &rel.cols,
                                row,
                            };
                            if self.eval_cond(cond, &ctx, outers)? == Some(true) {
                                filtered.push(row.clone());
                            }
                        }
                        drop(g);
                        self.prows(pids.filter, rel.rows.len(), filtered.len());
                    }
                    None => filtered = rel.rows,
                }
                Relation {
                    cols: rel.cols,
                    rows: filtered,
                }
            }
        };

        let is_aggregate = !s.group_by.is_empty()
            || s.items.iter().any(|i| i.expr.contains_aggregate())
            || s.order_by.iter().any(|k| k.expr.contains_aggregate())
            || s.having.is_some();

        // 3. Project (+ group / having) producing rows with sort keys.
        let mut columns: Vec<String> = Vec::with_capacity(s.items.len());
        let mut first = true;
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();

        if is_aggregate {
            let n_in = filtered.len();
            let groups = {
                let _g = self.pg(pids.group);
                self.build_groups(s, &rel_cols, filtered, outers)?
            };
            self.prows(pids.group, n_in, groups.len());
            let mut n_kept = 0usize;
            for group in &groups {
                let ctx = Ctx::Group {
                    cols: &rel_cols,
                    rows: group,
                };
                if let Some(h) = &s.having {
                    let keep = {
                        let _g = self.pg(pids.having);
                        self.eval_cond(h, &ctx, outers)?
                    };
                    if keep != Some(true) {
                        continue;
                    }
                }
                n_kept += 1;
                let (names, row) = {
                    let _g = self.pg(pids.project);
                    self.project(s, &ctx, outers)?
                };
                if first {
                    columns = names;
                    first = false;
                }
                let keys = {
                    let _g = self.pg(pids.sort);
                    self.sort_keys(s, &ctx, outers, &columns, &row)?
                };
                keyed.push((keys, row));
            }
            self.prows(pids.having, groups.len(), n_kept);
            self.prows(pids.project, n_kept, keyed.len());
            if first {
                // No surviving groups: derive column names from a probe
                // against an empty group so arity is still correct, and a
                // name that resolves nowhere still fails.
                let empty: Vec<Row> = Vec::new();
                let ctx = Ctx::Group {
                    cols: &rel_cols,
                    rows: &empty,
                };
                columns = self.project(s, &ctx, outers)?.0;
            }
        } else {
            for row in &filtered {
                let ctx = Ctx::Row {
                    cols: &rel_cols,
                    row,
                };
                let (names, prow) = {
                    let _g = self.pg(pids.project);
                    self.project(s, &ctx, outers)?
                };
                if first {
                    columns = names;
                    first = false;
                }
                let keys = {
                    let _g = self.pg(pids.sort);
                    self.sort_keys(s, &ctx, outers, &columns, &prow)?
                };
                keyed.push((keys, prow));
            }
            self.prows(pids.project, filtered.len(), keyed.len());
            if first {
                // Zero rows: probe column names on a row of NULLs; a name
                // that resolves nowhere fails as it would on any row.
                let null_row: Row = vec![Value::Null; rel_cols.len()];
                let ctx = Ctx::Row {
                    cols: &rel_cols,
                    row: &null_row,
                };
                columns = self.project(s, &ctx, outers)?.0;
            }
        }

        // 4. ORDER BY (stable sort; keys computed above).
        if !s.order_by.is_empty() {
            let n = keyed.len();
            let g = self.pg(pids.sort);
            let dirs: Vec<SortDir> = s.order_by.iter().map(|k| k.dir).collect();
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, dir) in dirs.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = match dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            drop(g);
            self.prows(pids.sort, n, n);
        }

        let mut rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();

        // 5. DISTINCT
        if s.distinct {
            let n = rows.len();
            let g = self.pg(pids.distinct);
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| seen.insert(row_key(r)));
            drop(g);
            self.prows(pids.distinct, n, rows.len());
        }

        // 6. LIMIT
        if let Some(n) = s.limit {
            let before = rows.len();
            let g = self.pg(pids.limit);
            rows.truncate(n as usize);
            drop(g);
            self.prows(pids.limit, before, rows.len());
        }

        Ok(ResultSet { columns, rows })
    }

    // ---- FROM / joins ----

    fn exec_from(&self, from: &FromClause, outers: &[OuterScope<'_>]) -> ExecResult<Relation> {
        let mut rel = self.scan(&from.base, outers)?;
        for join in &from.joins {
            let right = self.scan(&join.table, outers)?;
            let pid = self.join_pid(join);
            let (lin, rin) = (rel.rows.len(), right.rows.len());
            rel = {
                let _g = self.pg(pid);
                self.join(rel, right, join.on.as_ref(), outers)?
            };
            self.prows(pid, lin + rin, rel.rows.len());
        }
        Ok(rel)
    }

    /// Columnar FROM + WHERE: per-table rowid selections, each the full
    /// table refined by its pushed kernels, flat rowid-tuple joins in
    /// planner order, restoration of reference row order, then the residual
    /// WHERE over late-materialized rows. Output rows are cloned from the
    /// row store, so they are bit-identical to the reference `exec_from` +
    /// WHERE loop.
    fn exec_front_columnar(
        &self,
        fp: crate::planner::FrontPlan<'_>,
        outers: &[OuterScope<'_>],
        pids: &SelectIds,
    ) -> ExecResult<Relation> {
        use crate::planner::WhereMode;
        let n_pos = fp.tables.len();

        // Combined output labels, in FROM order (as the reference builds).
        let mut cols: Vec<(String, String)> = Vec::new();
        for t in &fp.tables {
            let schema = self.db.table_schema(&t.name).expect("planned table");
            cols.extend(
                schema
                    .columns
                    .iter()
                    .map(|c| (t.binding.clone(), c.name.to_lowercase())),
            );
        }

        // Per-table selections (ascending rowids).
        let mut cts: Vec<&crate::column::ColumnarTable> = Vec::with_capacity(n_pos);
        let mut sels: Vec<Vec<u32>> = Vec::with_capacity(n_pos);
        for t in &fp.tables {
            let ct = self.db.columnar(&t.name).expect("planned table");
            let pid = self.scan_pid(t.tref);
            let g = self.pg(pid);
            let mut sel: Vec<u32> = (0..ct.n_rows as u32).collect();
            for kp in &t.pushed {
                sel = crate::kernels::filter(kp, ct, sel);
            }
            // Telemetry counts the whole table per scan, as the reference
            // materializing scan does. The probe reports the physical size
            // as rows_in (scans have no row-input children, so the
            // rows-flow invariant is unaffected) and the selected count as
            // rows_out, giving EXPLAIN a real est-vs-act comparison.
            self.rows_scanned
                .set(self.rows_scanned.get() + ct.n_rows as u64);
            drop(g);
            self.prows(pid, ct.n_rows, sel.len());
            cts.push(ct);
            sels.push(sel);
        }

        // Join in planner order over flat rowid tuples (stride `n_pos`,
        // slot = FROM position; unintroduced slots stay 0 and are ignored).
        let start = fp.order[0];
        let mut acc: Vec<u32> = Vec::with_capacity(sels[start].len() * n_pos);
        for &r in &sels[start] {
            let base = acc.len();
            acc.resize(base + n_pos, 0);
            acc[base + start] = r;
        }
        let mut n_acc = sels[start].len();
        for step in &fp.steps {
            let q = step.introduces;
            let sel_q = &sels[q];
            let pid = self.join_pid(step.ast_join);
            let g = self.pg(pid);
            let rows_in = n_acc + sel_q.len();
            let mut next: Vec<u32> = Vec::new();
            if step.keys.is_empty() {
                // Cross join.
                for tup in acc.chunks_exact(n_pos) {
                    for &r in sel_q {
                        let base = next.len();
                        next.extend_from_slice(tup);
                        next[base + q] = r;
                    }
                }
            } else if step.use_loop {
                // Pairwise fallback: a NaN sits in a key column, and NaN
                // `sql_cmp`-equals every number, so it cannot be hashed.
                for tup in acc.chunks_exact(n_pos) {
                    for &r in sel_q {
                        if front_keys_match(&cts, step, tup, r) {
                            let base = next.len();
                            next.extend_from_slice(tup);
                            next[base + q] = r;
                        }
                    }
                }
            } else {
                // Hash join: bucket the introduced side, probe the
                // accumulator. Exact keys are a prefilter (distinct ints
                // beyond 2^53 share an f64 image), so candidates are
                // re-verified pairwise.
                let mut buckets: HashMap<Vec<crate::column::ValueKey<'_>>, Vec<u32>> =
                    HashMap::new();
                'row: for &r in sel_q {
                    let mut key = Vec::with_capacity(step.keys.len());
                    for k in &step.keys {
                        match cts[q].columns[k.right_col].cell_exact_key(r as usize) {
                            Some(v) => key.push(v),
                            None => continue 'row, // NULL never joins
                        }
                    }
                    buckets.entry(key).or_default().push(r);
                }
                let mut probe_key = Vec::with_capacity(step.keys.len());
                'tup: for tup in acc.chunks_exact(n_pos) {
                    probe_key.clear();
                    for k in &step.keys {
                        let i = tup[k.left_pos] as usize;
                        match cts[k.left_pos].columns[k.left_col].cell_exact_key(i) {
                            Some(v) => probe_key.push(v),
                            None => continue 'tup,
                        }
                    }
                    let Some(cands) = buckets.get(&probe_key) else {
                        continue;
                    };
                    for &r in cands {
                        if front_keys_match(&cts, step, tup, r) {
                            let base = next.len();
                            next.extend_from_slice(tup);
                            next[base + q] = r;
                        }
                    }
                }
            }
            acc = next;
            n_acc = acc.len() / n_pos;
            drop(g);
            self.prows(pid, rows_in, n_acc);
        }

        // Restore reference row order. The reference's join output is
        // lexicographic in the FROM-position rowid tuple (left-to-right
        // joins preserve build order, and bucket/scan order is ascending),
        // and surviving tuples form a subset of distinct tuples — so a
        // lexicographic sort reproduces the reference order exactly.
        let mut tuples: Vec<&[u32]> = acc.chunks_exact(n_pos).collect();
        tuples.sort_unstable();

        // Late materialization: output cells are always cloned from the
        // row store, never reconstructed from column vectors.
        let base_rows: Vec<&[Row]> = fp
            .tables
            .iter()
            .map(|t| self.db.rows(&t.name).expect("planned table"))
            .collect();
        let width = cols.len();
        let materialize = |tup: &[u32]| -> Row {
            let mut row: Row = Vec::with_capacity(width);
            for (p, rows) in base_rows.iter().enumerate() {
                row.extend(rows[tup[p] as usize].iter().cloned());
            }
            row
        };

        // Residual WHERE. `Residual` conjuncts are statically safe (they
        // cannot error); `RowWise` replays the whole original WHERE in
        // reference order, reproducing its lazy-error behavior exactly.
        let rows: Vec<Row> = match &fp.where_mode {
            WhereMode::None => tuples.iter().map(|t| materialize(t)).collect(),
            WhereMode::Residual(conds) => {
                let n_in = tuples.len();
                let g = self.pg(pids.filter);
                let mut out = Vec::new();
                for tup in &tuples {
                    let row = materialize(tup);
                    let ctx = Ctx::Row {
                        cols: &cols,
                        row: &row,
                    };
                    let mut keep = true;
                    for c in conds {
                        if self.eval_cond(c, &ctx, outers)? != Some(true) {
                            keep = false;
                            break;
                        }
                    }
                    if keep {
                        out.push(row);
                    }
                }
                drop(g);
                self.prows(pids.filter, n_in, out.len());
                out
            }
            WhereMode::RowWise(cond) => {
                let n_in = tuples.len();
                let g = self.pg(pids.filter);
                let mut out = Vec::new();
                for tup in &tuples {
                    let row = materialize(tup);
                    let ctx = Ctx::Row {
                        cols: &cols,
                        row: &row,
                    };
                    if self.eval_cond(cond, &ctx, outers)? == Some(true) {
                        out.push(row);
                    }
                }
                drop(g);
                self.prows(pids.filter, n_in, out.len());
                out
            }
        };
        Ok(Relation { cols, rows })
    }

    fn scan(&self, t: &TableRef, outers: &[OuterScope<'_>]) -> ExecResult<Relation> {
        let pid = self.scan_pid(t);
        let _g = self.pg(pid);
        match t {
            TableRef::Named { name, alias } => {
                let schema = self
                    .db
                    .table_schema(name)
                    .ok_or_else(|| ExecError::UnknownTable(name.clone()))?;
                let binding = alias.as_deref().unwrap_or(name).to_lowercase();
                let cols = schema
                    .columns
                    .iter()
                    .map(|c| (binding.clone(), c.name.to_lowercase()))
                    .collect();
                let rows = self.db.rows(name).unwrap_or(&[]).to_vec();
                self.rows_scanned
                    .set(self.rows_scanned.get() + rows.len() as u64);
                self.prows(pid, 0, rows.len());
                Ok(Relation { cols, rows })
            }
            TableRef::Derived { query, alias } => {
                // The inner query's operators nest under this scan node on
                // the probe stack and account for their own time.
                let rs = self.exec_query(query, outers)?;
                self.prows(pid, rs.rows.len(), rs.rows.len());
                let binding = alias
                    .as_deref()
                    .map(str::to_lowercase)
                    .unwrap_or_else(|| "<derived>".to_string());
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| (binding.clone(), c.to_lowercase()))
                    .collect();
                Ok(Relation {
                    cols,
                    rows: rs.rows,
                })
            }
        }
    }

    fn join(
        &self,
        left: Relation,
        right: Relation,
        on: Option<&Cond>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Relation> {
        let mut cols = left.cols.clone();
        cols.extend(right.cols.iter().cloned());

        // Hash fast path: a single `a = b` whose columns resolve, as
        // `eval_col` resolves them, to opposite sides. `exact_key` buckets
        // every `sql_cmp`-equal pair together and each candidate is
        // re-verified, so the rows and their order are the nested loop's.
        // NaN `sql_cmp`-equals every number and cannot be bucketed.
        if let Some((li, ri)) = on.and_then(|c| split_equi_keys(c, &cols, left.cols.len())) {
            let has_nan = |rows: &[Row], i: usize| {
                rows.iter()
                    .any(|r| matches!(r[i], Value::Float(f) if f.is_nan()))
            };
            if !has_nan(&left.rows, li) && !has_nan(&right.rows, ri) {
                let mut index: HashMap<crate::column::ValueKey<'_>, Vec<&Row>> = HashMap::new();
                for rrow in &right.rows {
                    if let Some(k) = crate::column::exact_key(&rrow[ri]) {
                        index.entry(k).or_default().push(rrow);
                    }
                }
                let mut rows = Vec::new();
                for lrow in &left.rows {
                    let Some(matches) =
                        crate::column::exact_key(&lrow[li]).and_then(|k| index.get(&k))
                    else {
                        continue;
                    };
                    for rrow in matches {
                        if lrow[li].sql_cmp(&rrow[ri]) == Some(Ordering::Equal) {
                            let mut combined = lrow.clone();
                            combined.extend(rrow.iter().cloned());
                            rows.push(combined);
                        }
                    }
                }
                return Ok(Relation { cols, rows });
            }
        }

        // General nested loop.
        let mut rows = Vec::new();
        for lrow in &left.rows {
            for rrow in &right.rows {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                match on {
                    Some(cond) => {
                        let ctx = Ctx::Row {
                            cols: &cols,
                            row: &combined,
                        };
                        if self.eval_cond(cond, &ctx, outers)? == Some(true) {
                            rows.push(combined);
                        }
                    }
                    None => rows.push(combined),
                }
            }
        }
        Ok(Relation { cols, rows })
    }

    // ---- grouping ----

    fn build_groups(
        &self,
        s: &Select,
        cols: &[(String, String)],
        rows: Vec<Row>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Vec<Vec<Row>>> {
        if s.group_by.is_empty() {
            // Global aggregate: a single group, possibly empty.
            return Ok(vec![rows]);
        }
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<Row>> = HashMap::new();
        for row in rows {
            let ctx = Ctx::Row { cols, row: &row };
            let mut key = String::new();
            for g in &s.group_by {
                let v = self.eval_expr(&Expr::Col(g.clone()), &ctx, outers)?;
                key.push_str(&v.group_key());
                key.push('\u{1}');
            }
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
        Ok(order
            .into_iter()
            .map(|k| groups.remove(&k).expect("key present"))
            .collect())
    }

    // ---- projection ----

    fn project(
        &self,
        s: &Select,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<(Vec<String>, Row)> {
        let mut names = Vec::with_capacity(s.items.len());
        let mut row = Vec::with_capacity(s.items.len());
        for item in &s.items {
            match &item.expr {
                Expr::Star => {
                    let repr = ctx.repr_row();
                    for (i, (_, cname)) in ctx.cols().iter().enumerate() {
                        names.push(cname.clone());
                        row.push(repr.map(|r| r[i].clone()).unwrap_or(Value::Null));
                    }
                }
                Expr::Col(c) if c.column == "*" => {
                    let binding = c
                        .table
                        .as_deref()
                        .ok_or(ExecError::InvalidStar)?
                        .to_lowercase();
                    let repr = ctx.repr_row();
                    let mut any = false;
                    for (i, (b, cname)) in ctx.cols().iter().enumerate() {
                        if *b == binding {
                            names.push(cname.clone());
                            row.push(repr.map(|r| r[i].clone()).unwrap_or(Value::Null));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(ExecError::UnknownTable(binding));
                    }
                }
                expr => {
                    names.push(
                        item.alias
                            .clone()
                            .unwrap_or_else(|| expr.to_string().to_lowercase()),
                    );
                    row.push(self.eval_expr(expr, ctx, outers)?);
                }
            }
        }
        Ok((names, row))
    }

    fn sort_keys(
        &self,
        s: &Select,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
        columns: &[String],
        projected: &Row,
    ) -> ExecResult<Vec<Value>> {
        let mut keys = Vec::with_capacity(s.order_by.len());
        for k in &s.order_by {
            // An unqualified ORDER BY column may name a select alias.
            if let Expr::Col(c) = &k.expr {
                if c.table.is_none() {
                    if let Some(idx) = columns
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                    {
                        // Only use the projected value when the name does not
                        // resolve in the relation (alias takes lower priority
                        // than a real column, matching SQLite).
                        if resolve(ctx.cols(), c).is_err() {
                            keys.push(projected[idx].clone());
                            continue;
                        }
                    }
                }
            }
            keys.push(self.eval_expr(&k.expr, ctx, outers)?);
        }
        Ok(keys)
    }

    // ---- expression evaluation ----

    fn eval_expr(&self, e: &Expr, ctx: &Ctx<'_>, outers: &[OuterScope<'_>]) -> ExecResult<Value> {
        match e {
            Expr::Lit(l) => Ok(Value::from_literal(l)),
            Expr::Col(c) => self.eval_col(c, ctx, outers),
            Expr::Star => Err(ExecError::InvalidStar),
            Expr::Agg {
                func,
                distinct,
                arg,
            } => match ctx {
                Ctx::Group { cols, rows } => {
                    self.eval_agg(*func, *distinct, arg, cols, rows, outers)
                }
                Ctx::Row { .. } => Err(ExecError::InvalidAggregate(e.to_string())),
            },
            Expr::Arith { op, left, right } => {
                let l = self.eval_expr(left, ctx, outers)?;
                let r = self.eval_expr(right, ctx, outers)?;
                Ok(eval_arith(*op, &l, &r))
            }
            Expr::Neg(inner) => {
                let v = self.eval_expr(inner, ctx, outers)?;
                Ok(match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    _ => Value::Null,
                })
            }
        }
    }

    fn eval_col(
        &self,
        c: &ColumnRef,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Value> {
        match resolve(ctx.cols(), c) {
            Ok(idx) => Ok(ctx
                .repr_row()
                .map(|r| r[idx].clone())
                .unwrap_or(Value::Null)),
            Err(_) => {
                // Correlated reference: walk outer scopes, innermost first,
                // and note which one was read for the subquery memo.
                for (depth, scope) in outers.iter().enumerate().rev() {
                    if let Ok(idx) = resolve(scope.cols, c) {
                        self.note_outer_read(depth);
                        return Ok(scope.row[idx].clone());
                    }
                }
                // Every scope was looked at, so the outcome depends on all
                // of them. The error fails the whole statement (the
                // zero-row column-name probe propagates it too), so no
                // memo outlives it; the mark keeps the run from counting
                // as uncorrelated all the same.
                self.note_outer_read(0);
                Err(unknown_column_error(c, ctx.cols(), outers))
            }
        }
    }

    fn eval_agg(
        &self,
        func: AggFunc,
        distinct: bool,
        arg: &Expr,
        cols: &[(String, String)],
        rows: &[Row],
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Value> {
        // COUNT(*) counts rows directly.
        if matches!(arg, Expr::Star) {
            if func != AggFunc::Count {
                return Err(ExecError::InvalidStar);
            }
            return Ok(Value::Int(rows.len() as i64));
        }
        if rows.is_empty() {
            // An empty group still resolves its argument: evaluated once
            // on a row of NULLs and dropped, a name that resolves nowhere
            // fails as it would on any row.
            let nulls: Row = vec![Value::Null; cols.len()];
            self.eval_expr(arg, &Ctx::Row { cols, row: &nulls }, outers)?;
        }
        let mut vals: Vec<Value> = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = Ctx::Row { cols, row };
            let v = self.eval_expr(arg, &ctx, outers)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            let mut seen = std::collections::HashSet::new();
            vals.retain(|v| seen.insert(v.group_key()));
        }
        Ok(match func {
            AggFunc::Count => Value::Int(vals.len() as i64),
            AggFunc::Sum => {
                if vals.is_empty() {
                    Value::Null
                } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                    Value::Int(
                        vals.iter()
                            .map(|v| if let Value::Int(i) = v { *i } else { 0 })
                            .sum(),
                    )
                } else {
                    Value::Float(vals.iter().filter_map(Value::as_f64).sum())
                }
            }
            AggFunc::Avg => {
                let nums: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            AggFunc::Min => vals
                .into_iter()
                .min_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
            AggFunc::Max => vals
                .into_iter()
                .max_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
        })
    }

    // ---- condition evaluation (three-valued logic) ----

    fn eval_cond(
        &self,
        c: &Cond,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Option<bool>> {
        match c {
            Cond::Cmp { left, op, right } => {
                let l = self.eval_expr(left, ctx, outers)?;
                let r = match right {
                    Operand::Expr(e) => self.eval_expr(e, ctx, outers)?,
                    Operand::Subquery(q) => self.scalar_subquery(q, ctx, outers)?,
                };
                Ok(l.sql_cmp(&r).map(|ord| match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Neq => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                }))
            }
            Cond::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = self.eval_expr(expr, ctx, outers)?;
                let lo = self.eval_expr(low, ctx, outers)?;
                let hi = self.eval_expr(high, ctx, outers)?;
                let res = match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => Some(a != Ordering::Less && b != Ordering::Greater),
                    _ => None,
                };
                Ok(negate_if(res, *negated))
            }
            Cond::In {
                expr,
                negated,
                source,
            } => {
                let v = self.eval_expr(expr, ctx, outers)?;
                if v.is_null() {
                    return Ok(None);
                }
                let res = match source {
                    InSource::List(lits) => {
                        let lits: Vec<Value> = lits.iter().map(Value::from_literal).collect();
                        in_result(&v, &lits)
                    }
                    InSource::Subquery(q) => {
                        let rs = self.subquery(q, ctx, outers)?;
                        if rs.columns.len() != 1 {
                            return Err(ExecError::SubqueryArity(rs.columns.len()));
                        }
                        in_result(&v, rs.rows.iter().map(|r| &r[0]))
                    }
                };
                Ok(negate_if(res, *negated))
            }
            Cond::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = self.eval_expr(expr, ctx, outers)?;
                let res = match v {
                    Value::Null => None,
                    Value::Str(s) => Some(like_match(pattern, &s)),
                    other => Some(like_match(pattern, &other.to_string())),
                };
                Ok(negate_if(res, *negated))
            }
            Cond::IsNull { expr, negated } => {
                let v = self.eval_expr(expr, ctx, outers)?;
                Ok(Some(v.is_null() != *negated))
            }
            Cond::Exists { negated, query } => {
                let rs = self.subquery(query, ctx, outers)?;
                Ok(Some(rs.rows.is_empty() == *negated))
            }
            Cond::And(l, r) => {
                let a = self.eval_cond(l, ctx, outers)?;
                if a == Some(false) {
                    return Ok(Some(false));
                }
                let b = self.eval_cond(r, ctx, outers)?;
                Ok(match (a, b) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                })
            }
            Cond::Or(l, r) => {
                let a = self.eval_cond(l, ctx, outers)?;
                if a == Some(true) {
                    return Ok(Some(true));
                }
                let b = self.eval_cond(r, ctx, outers)?;
                Ok(match (a, b) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            Cond::Not(inner) => Ok(self.eval_cond(inner, ctx, outers)?.map(|b| !b)),
        }
    }

    /// Run a subquery with the current row pushed as an outer scope.
    ///
    /// On the columnar engine a subquery whose run read no outer row is
    /// memoized for the rest of the execute call, because nothing it read
    /// changes from one outer row to the next. Correlation is observed, not
    /// inferred: `eval_col` lowers `outer_read` to the index of the scope it
    /// read. This run starts from a cleared mark and is memoized only if the
    /// mark stays at or above `scopes.len()`, past every scope it can see
    /// (higher scopes are rows of its own nested subqueries). The mark is
    /// then folded back into the enclosing run, so when the innermost
    /// subquery reads the outermost row every subquery between them counts
    /// as correlated too. A memo hit runs nothing, so EXPLAIN's `calls=`
    /// counts real executions. The interpreter re-runs every subquery.
    fn subquery(
        &self,
        q: &Query,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Rc<ResultSet>> {
        let key = q as *const Query as usize;
        let memoize = self.engine == Engine::Columnar;
        if memoize {
            if let Some(rs) = self.memo.borrow().get(&key) {
                return Ok(Rc::clone(rs));
            }
        }
        // An empty group has no row to show its subqueries; they see a
        // row of NULLs, as a bare column of that group reads NULL.
        let nulls: Row;
        let row = match ctx.repr_row() {
            Some(row) => row,
            None => {
                nulls = vec![Value::Null; ctx.cols().len()];
                &nulls
            }
        };
        let mut scopes: Vec<OuterScope<'_>> = outers.to_vec();
        scopes.push(OuterScope {
            cols: ctx.cols(),
            row,
        });
        let pid = self.subq_pid(q);
        let _g = self.pg(pid);
        let enclosing = self.outer_read.replace(usize::MAX);
        let out = self.exec_query(q, &scopes);
        let read = self.outer_read.get();
        self.outer_read.set(enclosing.min(read));
        let rs = Rc::new(out?);
        self.prows(pid, rs.rows.len(), rs.rows.len());
        if memoize && read >= scopes.len() {
            self.memo.borrow_mut().insert(key, Rc::clone(&rs));
        }
        Ok(rs)
    }

    fn note_outer_read(&self, depth: usize) {
        self.outer_read.set(self.outer_read.get().min(depth));
    }

    fn scalar_subquery(
        &self,
        q: &Query,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Value> {
        let rs = self.subquery(q, ctx, outers)?;
        if rs.columns.len() != 1 {
            return Err(ExecError::SubqueryArity(rs.columns.len()));
        }
        Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
    }
}

/// Build an `UnknownColumn` error enriched with a near-miss suggestion.
///
/// Only called at the terminal failure site in [`Executor::eval_col`] (after
/// outer scopes were exhausted), so the speculative `resolve` probes used by
/// the hash-join fast path stay allocation-free. Candidates are drawn from the
/// current relation and every outer scope; a wrong-table qualifier (exact
/// column name under another binding) wins over a close spelling
/// (edit distance at most 2 and strictly less than the name length).
fn unknown_column_error(
    c: &ColumnRef,
    cols: &[(String, String)],
    outers: &[OuterScope<'_>],
) -> ExecError {
    let name = c.column.to_lowercase();
    let mut visible: Vec<&(String, String)> = cols.iter().collect();
    for scope in outers {
        visible.extend(scope.cols.iter());
    }
    // Wrong-table qualifier: the column exists, just under another binding.
    if c.table.is_some() {
        if let Some((b, n)) = visible.iter().find(|(_, n)| *n == name) {
            return ExecError::UnknownColumn(format!("{c} (did you mean {b}.{n}?)"));
        }
    }
    // Close spelling: best Levenshtein candidate, deterministic tie-break on
    // (distance, binding, name).
    let mut best: Option<(usize, &String, &String)> = None;
    for (b, n) in &visible {
        let d = textkit::edit_distance(&name, n);
        if d == 0 || d > 2 || d >= name.chars().count() {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bd, bb, bn)) => (d, b, n) < (*bd, bb, bn),
        };
        if better {
            best = Some((d, b, n));
        }
    }
    match best {
        Some((_, b, n)) => ExecError::UnknownColumn(format!("{c} (did you mean {b}.{n}?)")),
        None => ExecError::UnknownColumn(format!("{c}")),
    }
}

/// `sql_cmp` equality of every key of `step` between the placed tuple `tup`
/// and row `r` of the introduced table; NULL never joins.
fn front_keys_match(
    cts: &[&crate::column::ColumnarTable],
    step: &crate::planner::JoinStep<'_>,
    tup: &[u32],
    r: u32,
) -> bool {
    step.keys.iter().all(|k| {
        let lc = &cts[k.left_pos].columns[k.left_col];
        let rc = &cts[step.introduces].columns[k.right_col];
        let (i, j) = (tup[k.left_pos] as usize, r as usize);
        lc.is_valid(i) && rc.is_valid(j) && crate::column::cells_sql_eq(lc, i, rc, j)
    })
}

/// The (left, right) column indexes of an `ON a = b` whose two columns
/// resolve in the combined scope `cols` to opposite sides of a join whose
/// left side has `n_left` columns; `None` for any other condition.
fn split_equi_keys(on: &Cond, cols: &[(String, String)], n_left: usize) -> Option<(usize, usize)> {
    let Cond::Cmp {
        left: Expr::Col(ca),
        op: CmpOp::Eq,
        right: Operand::Expr(Expr::Col(cb)),
    } = on
    else {
        return None;
    };
    let (a, b) = (resolve(cols, ca).ok()?, resolve(cols, cb).ok()?);
    match (a < n_left, b < n_left) {
        (true, false) => Some((a, b - n_left)),
        (false, true) => Some((b, a - n_left)),
        _ => None,
    }
}

/// Resolve a column reference against relation labels. A qualified name
/// must match its binding; an unqualified name that several bindings carry
/// resolves to the first occurrence, as SQLite resolves Spider's
/// join-duplicated key columns, so `ON a = b` and `WHERE a = b` read the
/// same columns.
fn resolve(cols: &[(String, String)], c: &ColumnRef) -> ExecResult<usize> {
    let name = c.column.to_lowercase();
    match &c.table {
        Some(t) => {
            let t = t.to_lowercase();
            cols.iter()
                .position(|(b, n)| *b == t && *n == name)
                .ok_or_else(|| ExecError::UnknownColumn(format!("{t}.{name}")))
        }
        None => cols
            .iter()
            .position(|(_, n)| *n == name)
            .ok_or(ExecError::UnknownColumn(name)),
    }
}

/// Three-valued `v IN (candidates)` for a non-NULL `v`: true on a match,
/// else NULL if some comparison was NULL, else false.
fn in_result<'v>(v: &Value, candidates: impl IntoIterator<Item = &'v Value>) -> Option<bool> {
    let mut saw_null = false;
    for cand in candidates {
        match v.sql_cmp(cand) {
            Some(Ordering::Equal) => return Some(true),
            None => saw_null = true,
            _ => {}
        }
    }
    if saw_null {
        None
    } else {
        Some(false)
    }
}

fn negate_if(v: Option<bool>, neg: bool) -> Option<bool> {
    if neg {
        v.map(|b| !b)
    } else {
        v
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => a
                .checked_add(*b)
                .map(Value::Int)
                .unwrap_or(Value::Float(*a as f64 + *b as f64)),
            ArithOp::Sub => a
                .checked_sub(*b)
                .map(Value::Int)
                .unwrap_or(Value::Float(*a as f64 - *b as f64)),
            ArithOp::Mul => a
                .checked_mul(*b)
                .map(Value::Int)
                .unwrap_or(Value::Float(*a as f64 * *b as f64)),
            // SQLite integer division truncates; x / 0 is NULL.
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
        },
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Value::Null;
            };
            match op {
                ArithOp::Add => Value::Float(a + b),
                ArithOp::Sub => Value::Float(a - b),
                ArithOp::Mul => Value::Float(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
            }
        }
    }
}

/// SQL LIKE with `%` and `_`, ASCII case-insensitive (SQLite default:
/// case folding applies to the 26 ASCII letters only, so `'İ'` does not
/// fold and `'Σ'` never matches `'σ'`).
///
/// Iterative two-pointer matcher with single-point backtracking to the
/// most recent `%`: worst case `O(|pattern| · |text|)`, unlike the naive
/// recursive formulation which is exponential in the number of `%`
/// wildcards (`'%a%a%a%a%'` against a long non-matching string).
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().map(|c| c.to_ascii_lowercase()).collect();
    let t: Vec<char> = text.chars().map(|c| c.to_ascii_lowercase()).collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Position just after the last `%` seen, and the text index it is
    // currently anchored to.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some((sp, st)) = star {
            // Mismatch after a `%`: let the wildcard absorb one more
            // character and retry from just past it.
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    // Only trailing `%` wildcards may remain unconsumed.
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn apply_set_op(op: SetOp, l: ResultSet, r: ResultSet) -> ResultSet {
    // SQLite set operations use set semantics (dedup).
    use std::collections::HashSet;
    let rkeys: HashSet<String> = r.rows.iter().map(row_key).collect();
    let mut out: Vec<Row> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    match op {
        SetOp::Union => {
            for row in l.rows.into_iter().chain(r.rows) {
                if seen.insert(row_key(&row)) {
                    out.push(row);
                }
            }
        }
        SetOp::Intersect => {
            for row in l.rows {
                let k = row_key(&row);
                if rkeys.contains(&k) && seen.insert(k) {
                    out.push(row);
                }
            }
        }
        SetOp::Except => {
            for row in l.rows {
                let k = row_key(&row);
                if !rkeys.contains(&k) && seen.insert(k) {
                    out.push(row);
                }
            }
        }
    }
    ResultSet {
        columns: l.columns,
        rows: out,
    }
}

/// Canonical key of a row for dedup / set ops.
pub(crate) fn row_key<R: AsRef<[Value]>>(row: R) -> String {
    let row = row.as_ref();
    let mut s = String::with_capacity(row.len() * 8);
    for v in row {
        s.push_str(&v.group_key());
        s.push('\u{1}');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
    use obskit::TraceContext;
    use sqlkit::parse_query;

    /// A small concert_singer-like database used across executor tests.
    fn db() -> Database {
        let schema = DbSchema {
            db_id: "concert_singer".into(),
            tables: vec![
                TableSchema {
                    name: "singer".into(),
                    columns: vec![
                        ColumnDef::new("singer_id", ColType::Int),
                        ColumnDef::new("name", ColType::Text),
                        ColumnDef::new("country", ColType::Text),
                        ColumnDef::new("age", ColType::Int),
                    ],
                    primary_key: vec![0],
                },
                TableSchema {
                    name: "song".into(),
                    columns: vec![
                        ColumnDef::new("song_id", ColType::Int),
                        ColumnDef::new("singer_id", ColType::Int),
                        ColumnDef::new("title", ColType::Text),
                        ColumnDef::new("sales", ColType::Float),
                    ],
                    primary_key: vec![0],
                },
            ],
            foreign_keys: vec![ForeignKey {
                from_table: "song".into(),
                from_column: "singer_id".into(),
                to_table: "singer".into(),
                to_column: "singer_id".into(),
            }],
        };
        let mut d = Database::new(schema);
        let singers = [
            (1, "Joe", "US", 52),
            (2, "Amy", "France", 43),
            (3, "Bob", "US", 31),
            (4, "Cleo", "France", 27),
            (5, "Dan", "UK", 31),
        ];
        for (id, name, country, age) in singers {
            d.insert(
                "singer",
                vec![
                    Value::Int(id),
                    Value::Str(name.into()),
                    Value::Str(country.into()),
                    Value::Int(age),
                ],
            )
            .unwrap();
        }
        let songs = [
            (1, 1, "Sun", 700_000.0),
            (2, 1, "Moon", 150_000.0),
            (3, 2, "Sea", 320_000.0),
            (4, 3, "Sky", 45_000.0),
            (5, 5, "Rain", 5_000.0),
        ];
        for (id, sid, title, sales) in songs {
            d.insert(
                "song",
                vec![
                    Value::Int(id),
                    Value::Int(sid),
                    Value::Str(title.into()),
                    Value::Float(sales),
                ],
            )
            .unwrap();
        }
        d
    }

    fn run(sql: &str) -> ResultSet {
        let q = parse_query(sql).unwrap();
        execute_query(&db(), &q).unwrap_or_else(|e| panic!("exec failed for {sql}: {e}"))
    }

    fn run_err(sql: &str) -> ExecError {
        let q = parse_query(sql).unwrap();
        execute_query(&db(), &q).unwrap_err()
    }

    fn ints(rs: &ResultSet) -> Vec<i64> {
        rs.rows
            .iter()
            .map(|r| match &r[0] {
                Value::Int(v) => *v,
                other => panic!("expected int, got {other:?}"),
            })
            .collect()
    }

    fn strs(rs: &ResultSet) -> Vec<String> {
        rs.rows.iter().map(|r| r[0].to_string()).collect()
    }

    #[test]
    fn scan_and_project() {
        let rs = run("SELECT name FROM singer");
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.columns, vec!["name"]);
    }

    #[test]
    fn star_expands_all_columns() {
        let rs = run("SELECT * FROM singer");
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn where_filters() {
        let rs = run("SELECT name FROM singer WHERE age > 40");
        assert_eq!(strs(&rs), vec!["Joe", "Amy"]);
    }

    #[test]
    fn where_and_or() {
        let rs = run("SELECT name FROM singer WHERE country = 'US' AND age > 40");
        assert_eq!(strs(&rs), vec!["Joe"]);
        let rs = run("SELECT name FROM singer WHERE age = 52 OR age = 27");
        assert_eq!(strs(&rs), vec!["Joe", "Cleo"]);
    }

    #[test]
    fn count_star() {
        let rs = run("SELECT count(*) FROM singer");
        assert_eq!(ints(&rs), vec![5]);
    }

    #[test]
    fn aggregates_on_empty_input() {
        let rs = run("SELECT count(*) FROM singer WHERE age > 100");
        assert_eq!(ints(&rs), vec![0]);
        let rs = run("SELECT max(age) FROM singer WHERE age > 100");
        assert!(rs.rows[0][0].is_null());
        let rs = run("SELECT sum(age) FROM singer WHERE age > 100");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn avg_min_max_sum() {
        let rs = run("SELECT avg(age), min(age), max(age), sum(age) FROM singer");
        let r = &rs.rows[0];
        assert!((r[0].as_f64().unwrap() - 36.8).abs() < 1e-9);
        assert!(matches!(r[1], Value::Int(27)));
        assert!(matches!(r[2], Value::Int(52)));
        assert!(matches!(r[3], Value::Int(184)));
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT count(DISTINCT country) FROM singer");
        assert_eq!(ints(&rs), vec![3]);
    }

    #[test]
    fn group_by_with_count() {
        let rs = run("SELECT country, count(*) FROM singer GROUP BY country ORDER BY count(*) DESC, country ASC");
        let got: Vec<(String, i64)> = rs
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].to_string(),
                    if let Value::Int(v) = r[1] { v } else { -1 },
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("France".to_string(), 2),
                ("US".to_string(), 2),
                ("UK".to_string(), 1)
            ]
        );
    }

    #[test]
    fn having_filters_groups() {
        let rs = run(
            "SELECT country FROM singer GROUP BY country HAVING count(*) > 1 ORDER BY country ASC",
        );
        assert_eq!(strs(&rs), vec!["France", "US"]);
    }

    #[test]
    fn order_by_and_limit() {
        let rs = run("SELECT name FROM singer ORDER BY age DESC LIMIT 2");
        assert_eq!(strs(&rs), vec!["Joe", "Amy"]);
        let rs = run("SELECT name FROM singer ORDER BY age ASC LIMIT 1");
        assert_eq!(strs(&rs), vec!["Cleo"]);
    }

    #[test]
    fn order_by_ties_are_stable() {
        let rs = run("SELECT name FROM singer ORDER BY age ASC");
        // Bob (31) comes before Dan (31) because of input order stability.
        assert_eq!(strs(&rs), vec!["Cleo", "Bob", "Dan", "Amy", "Joe"]);
    }

    #[test]
    fn join_with_on() {
        let rs = run(
            "SELECT T2.title FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id WHERE T1.name = 'Joe' ORDER BY T2.title ASC",
        );
        assert_eq!(strs(&rs), vec!["Moon", "Sun"]);
    }

    /// The interpreter hashes `ON a = b` only when the two columns, each
    /// resolved to its first occurrence, land on opposite sides; EXPLAIN
    /// tags the join it runs.
    #[test]
    fn on_resolves_like_where_and_explain_tags_the_join_run() {
        let tag = |sql: &str| {
            let q = parse_query(sql).unwrap();
            let plan = crate::explain_query(&db(), &q, Engine::Oracle);
            let join = plan.nodes.iter().find(|n| n.kind == crate::OpKind::Join);
            join.unwrap().label.clone()
        };
        let split = "SELECT * FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id";
        assert!(tag(split).ends_with("[hash]"), "{}", tag(split));
        // Unqualified `singer_id` is T1's, so the ON compares T1 with itself.
        let same = "SELECT * FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = singer_id";
        assert!(tag(same).ends_with("[loop]"), "{}", tag(same));
        assert_eq!(run(same).rows.len(), 25);
    }

    #[test]
    fn comma_join_with_where() {
        let rs = run(
            "SELECT song.title FROM singer, song WHERE singer.singer_id = song.singer_id AND singer.name = 'Amy'",
        );
        assert_eq!(strs(&rs), vec!["Sea"]);
    }

    #[test]
    fn in_list_and_not_in() {
        let rs = run("SELECT name FROM singer WHERE age IN (31, 27) ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Bob", "Cleo", "Dan"]);
        let rs = run("SELECT name FROM singer WHERE age NOT IN (31, 27) ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Amy", "Joe"]);
    }

    #[test]
    fn in_subquery() {
        let rs = run(
            "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM song WHERE sales > 100000) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Joe"]);
    }

    #[test]
    fn not_in_subquery() {
        let rs = run(
            "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM song) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Cleo"]);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let rs = run(
            "SELECT name FROM singer WHERE age > (SELECT avg(age) FROM singer) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Joe"]);
    }

    #[test]
    fn correlated_exists() {
        let rs = run(
            "SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM song WHERE song.singer_id = singer.singer_id) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Bob", "Dan", "Joe"]);
    }

    /// The columnar engine runs an uncorrelated subquery once per
    /// statement, so its scans count once; a correlated subquery still runs,
    /// and scans, once per outer row, as every subquery does in the oracle.
    #[test]
    fn uncorrelated_subquery_scans_once_correlated_per_outer_row() {
        let d = db();
        let scanned = |sql: &str, engine: Engine| {
            let rec = obskit::Recorder::enabled();
            let _sink = rec.enter();
            let q = parse_query(sql).unwrap();
            execute_query_with(&d, &q, engine).unwrap();
            rec.metrics().counters["storage.rows_scanned"]
        };
        // Five singers, five songs.
        let uncorrelated =
            "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM song)";
        assert_eq!(scanned(uncorrelated, Engine::Columnar), 5 + 5);
        assert_eq!(scanned(uncorrelated, Engine::Oracle), 5 + 5 * 5);
        let correlated = "SELECT name FROM singer WHERE EXISTS \
                          (SELECT 1 FROM song WHERE song.singer_id = singer.singer_id)";
        assert_eq!(scanned(correlated, Engine::Columnar), 5 + 5 * 5);
        assert_eq!(scanned(correlated, Engine::Oracle), 5 + 5 * 5);
        // The middle subquery's group is always empty, so the innermost one
        // reads the NULL row that stands in for it: a run that read it is
        // correlated and runs again for every middle run.
        let null_scope = "SELECT name FROM singer AS A WHERE EXISTS \
                          (SELECT count(*) FROM song AS S WHERE S.singer_id = A.singer_id \
                          AND S.sales < 0 HAVING count(*) < \
                          (SELECT count(*) FROM song AS T WHERE S.song_id IS NULL))";
        assert_eq!(scanned(null_scope, Engine::Columnar), 5 + 5 * 5 + 5 * 5);
        assert_eq!(scanned(null_scope, Engine::Oracle), 5 + 5 * 5 + 5 * 5);
    }

    #[test]
    fn like_patterns() {
        let rs = run("SELECT name FROM singer WHERE name LIKE '%o%' ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Bob", "Cleo", "Joe"]);
        let rs = run("SELECT name FROM singer WHERE name LIKE '_o_'");
        assert_eq!(strs(&rs), vec!["Joe", "Bob"]);
        let rs = run("SELECT name FROM singer WHERE name LIKE 'JOE'");
        assert_eq!(strs(&rs), vec!["Joe"], "LIKE is case-insensitive");
    }

    /// Regression: the old matcher lowercased with full Unicode rules,
    /// so `'İ'` expanded to two chars (`i` + combining dot) and no longer
    /// matched a single `_`; SQLite folds ASCII only.
    #[test]
    fn like_folds_ascii_only() {
        assert!(like_match("_", "İ"), "'İ' is one character under LIKE");
        assert!(!like_match("σ", "Σ"), "non-ASCII letters do not case-fold");
        assert!(like_match("a_C", "AbC"), "ASCII folding still applies");
        assert!(like_match("%ß%", "straße"));
    }

    /// Regression: the old recursive matcher was exponential in the number
    /// of `%` wildcards; this pattern/text pair effectively never finished.
    /// The iterative matcher must answer (false) in bounded time.
    #[test]
    fn like_pathological_pattern_is_fast() {
        let pattern = "%a%a%a%a%a%a%a%a%a%a%b";
        let text = "a".repeat(300);
        let start = std::time::Instant::now();
        assert!(!like_match(pattern, &text));
        assert!(like_match("%a%a%a%a%a%a%a%a%a%a%", &text));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "pathological LIKE took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn like_wildcard_edge_cases() {
        assert!(like_match("", ""));
        assert!(!like_match("", "a"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("_", ""));
        assert!(like_match("a%", "a"));
        assert!(like_match("%a", "ba"));
        assert!(!like_match("a%b", "acbd"));
        assert!(like_match("a%b%", "acbd"));
        assert!(like_match("_%_", "ab"));
        assert!(!like_match("_%_", "a"));
    }

    #[test]
    fn between() {
        let rs = run("SELECT name FROM singer WHERE age BETWEEN 30 AND 45 ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Amy", "Bob", "Dan"]);
    }

    #[test]
    fn distinct_dedups() {
        let rs = run("SELECT DISTINCT country FROM singer ORDER BY country ASC");
        assert_eq!(strs(&rs), vec!["France", "UK", "US"]);
    }

    #[test]
    fn union_intersect_except() {
        let rs = run(
            "SELECT country FROM singer WHERE age > 40 UNION SELECT country FROM singer WHERE age < 30",
        );
        let mut got = strs(&rs);
        got.sort();
        assert_eq!(got, vec!["France", "US"]);

        let rs = run(
            "SELECT country FROM singer WHERE age > 40 INTERSECT SELECT country FROM singer WHERE age < 30",
        );
        assert_eq!(strs(&rs), vec!["France"]);

        let rs = run("SELECT country FROM singer EXCEPT SELECT country FROM singer WHERE age < 35");
        assert_eq!(strs(&rs), Vec::<String>::new());

        let rs = run("SELECT country FROM singer EXCEPT SELECT country FROM singer WHERE age > 50");
        let mut got = strs(&rs);
        got.sort();
        assert_eq!(got, vec!["France", "UK"]);
    }

    #[test]
    fn derived_table() {
        let rs = run(
            "SELECT T.c FROM (SELECT country AS c, count(*) AS n FROM singer GROUP BY country) AS T WHERE T.n > 1 ORDER BY T.c ASC",
        );
        assert_eq!(strs(&rs), vec!["France", "US"]);
    }

    #[test]
    fn order_by_aggregate_in_group() {
        let rs = run("SELECT country FROM singer GROUP BY country ORDER BY avg(age) DESC LIMIT 1");
        assert_eq!(strs(&rs), vec!["US"]);
    }

    #[test]
    fn order_by_select_alias() {
        let rs = run(
            "SELECT country, count(*) AS n FROM singer GROUP BY country ORDER BY n DESC LIMIT 1",
        );
        assert!(matches!(rs.rows[0][1], Value::Int(2)));
    }

    #[test]
    fn arithmetic_in_projection() {
        let rs = run("SELECT age + 10 FROM singer WHERE name = 'Joe'");
        assert_eq!(ints(&rs), vec![62]);
        let rs = run("SELECT age / 2 FROM singer WHERE name = 'Bob'");
        assert_eq!(ints(&rs), vec![15], "integer division truncates");
    }

    #[test]
    fn division_by_zero_is_null() {
        let rs = run("SELECT age / 0 FROM singer WHERE name = 'Joe'");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn unknown_table_and_column_error() {
        assert!(matches!(
            run_err("SELECT a FROM nope"),
            ExecError::UnknownTable(_)
        ));
        assert!(matches!(
            run_err("SELECT nope FROM singer"),
            ExecError::UnknownColumn(_)
        ));
    }

    #[test]
    fn set_op_arity_mismatch_errors() {
        assert!(matches!(
            run_err("SELECT name, age FROM singer UNION SELECT name FROM singer"),
            ExecError::SetOpArity(2, 1)
        ));
    }

    #[test]
    fn aggregate_in_where_errors() {
        assert!(matches!(
            run_err("SELECT name FROM singer WHERE count(*) > 1"),
            ExecError::InvalidAggregate(_)
        ));
    }

    #[test]
    fn null_handling_in_filters() {
        let schema = DbSchema {
            db_id: "n".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("x", ColType::Int)],
                primary_key: vec![],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        d.insert("t", vec![Value::Int(1)]).unwrap();
        d.insert("t", vec![Value::Null]).unwrap();
        let q = parse_query("SELECT x FROM t WHERE x > 0").unwrap();
        let rs = execute_query(&d, &q).unwrap();
        assert_eq!(rs.rows.len(), 1, "NULL is not > 0");
        let q = parse_query("SELECT x FROM t WHERE x IS NULL").unwrap();
        let rs = execute_query(&d, &q).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let q = parse_query("SELECT count(x) FROM t").unwrap();
        let rs = execute_query(&d, &q).unwrap();
        assert_eq!(
            rs.rows[0][0].group_key(),
            Value::Int(1).group_key(),
            "count ignores NULL"
        );
    }

    #[test]
    fn qualified_star() {
        let rs = run(
            "SELECT T1.* FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id LIMIT 1",
        );
        assert_eq!(rs.columns.len(), 4);
    }

    #[test]
    fn select_without_from() {
        let rs = run("SELECT 1");
        assert_eq!(ints(&rs), vec![1]);
    }

    #[test]
    fn limit_zero() {
        let rs = run("SELECT name FROM singer LIMIT 0");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn group_by_preserves_first_seen_order_before_sort() {
        let rs = run("SELECT country FROM singer GROUP BY country");
        assert_eq!(strs(&rs), vec!["US", "France", "UK"]);
    }

    #[test]
    fn nested_set_op_in_subquery() {
        let rs = run(
            "SELECT name FROM singer WHERE country IN (SELECT country FROM singer WHERE age > 50 UNION SELECT country FROM singer WHERE age < 28) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Bob", "Cleo", "Joe"]);
    }

    fn analyze(sql: &str) -> Analyzed {
        let q = parse_query(sql).unwrap();
        execute_query_analyzed(&db(), &q, Engine::default(), TraceContext::disabled())
            .unwrap_or_else(|e| panic!("analyze failed for {sql}: {e}"))
    }

    /// Assert the rows-flow invariant on every node: a parent's `rows_in`
    /// equals the sum of `rows_out` over its leading `inputs` children.
    fn assert_rows_flow(plan: &crate::explain::Plan) {
        for (i, n) in plan.nodes.iter().enumerate() {
            if n.inputs == 0 || i == plan.root {
                continue;
            }
            let fed: u64 = n.children[..n.inputs]
                .iter()
                .map(|&c| plan.nodes[c].stats.rows_out)
                .sum();
            assert_eq!(
                n.stats.rows_in, fed,
                "node {i} ({}) rows_in != sum of input children rows_out",
                n.label
            );
        }
    }

    #[test]
    fn analyze_matches_plain_execution() {
        for sql in [
            "SELECT name FROM singer WHERE age > 40",
            "SELECT country, count(*) FROM singer GROUP BY country HAVING count(*) > 1 ORDER BY count(*) DESC",
            "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id",
            "SELECT DISTINCT country FROM singer ORDER BY country LIMIT 2",
            "SELECT name FROM singer WHERE age > (SELECT avg(age) FROM singer)",
            "SELECT country FROM singer UNION SELECT country FROM singer WHERE age < 30",
        ] {
            let q = parse_query(sql).unwrap();
            let plain = execute_query(&db(), &q).unwrap();
            let an = analyze(sql);
            assert_eq!(an.result.columns, plain.columns, "{sql}");
            assert_eq!(an.result.rows, plain.rows, "{sql}");
            let root = &an.plan.nodes[an.plan.root];
            assert_eq!(
                root.stats.rows_out,
                an.result.rows.len() as u64,
                "root node reports the final result cardinality: {sql}"
            );
        }
    }

    #[test]
    fn analyze_self_times_partition_the_run() {
        let an = analyze(
            "SELECT T1.country, count(*) FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id WHERE T2.sales > 10000 GROUP BY T1.country ORDER BY count(*) DESC",
        );
        let total: u64 = an.plan.nodes.iter().map(|n| n.stats.self_ns).sum();
        assert_eq!(total, an.plan.total_self_ns());
        // The synthetic exec root is entered for the whole run, so the sum is
        // the full wall-clock partition, never zero for a non-trivial query.
        assert!(an.plan.nodes[an.plan.root].stats.invocations == 1);
    }

    #[test]
    fn analyze_rows_flow_invariant_holds() {
        for sql in [
            "SELECT name FROM singer WHERE age > 40",
            "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id",
            "SELECT country, count(*) FROM singer GROUP BY country HAVING count(*) > 1",
            "SELECT DISTINCT country FROM singer ORDER BY country LIMIT 2",
            "SELECT country FROM singer INTERSECT SELECT country FROM singer WHERE age < 30",
            "SELECT name FROM (SELECT name, age FROM singer WHERE age > 30) AS t WHERE age < 50",
        ] {
            let an = analyze(sql);
            assert_rows_flow(&an.plan);
        }
    }

    #[test]
    fn analyze_counts_filter_rows() {
        // Columnar engine: the predicate is pushed into the scan, which
        // reports the physical table size as rows_in and the post-pushdown
        // selection as rows_out; no filter node remains.
        let an = analyze("SELECT name FROM singer WHERE age > 40");
        assert!(
            !an.plan
                .nodes
                .iter()
                .any(|n| n.kind == crate::explain::OpKind::Filter),
            "pushed predicate must not leave a filter node"
        );
        let scan = an
            .plan
            .nodes
            .iter()
            .find(|n| n.kind == crate::explain::OpKind::Scan)
            .expect("scan node");
        assert!(scan.label.contains("[age > 40]"), "{}", scan.label);
        assert_eq!(scan.stats.rows_in, 5);
        assert_eq!(scan.stats.rows_out, 2);
        assert_eq!(an.plan.rows_scanned(), 5);

        // Oracle engine: the reference accounting is unchanged.
        let q = parse_query("SELECT name FROM singer WHERE age > 40").unwrap();
        let an =
            execute_query_analyzed(&db(), &q, Engine::Oracle, TraceContext::disabled()).unwrap();
        let filter = an
            .plan
            .nodes
            .iter()
            .find(|n| n.kind == crate::explain::OpKind::Filter)
            .expect("filter node");
        assert_eq!(filter.stats.rows_in, 5);
        assert_eq!(filter.stats.rows_out, 2);
        let scan = an
            .plan
            .nodes
            .iter()
            .find(|n| n.kind == crate::explain::OpKind::Scan)
            .expect("scan node");
        assert_eq!(scan.stats.rows_out, 5);
        assert_eq!(an.plan.rows_scanned(), 5);
    }

    #[test]
    fn canonical_render_is_deterministic_and_timeless() {
        let an1 = analyze("SELECT name FROM singer WHERE age > 40 ORDER BY name LIMIT 1");
        let an2 = analyze("SELECT name FROM singer WHERE age > 40 ORDER BY name LIMIT 1");
        let r1 = an1.plan.render(true, true);
        assert_eq!(r1, an2.plan.render(true, true));
        for line in r1.lines().filter(|l| l.contains("self=")) {
            assert!(
                line.contains("self=0ns"),
                "canonical render must zero times: {line}"
            );
        }
        assert!(r1.contains("act="), "analyze render keeps actual rows");
        assert!(r1.contains("total self-time: 0ns"));
    }

    #[test]
    fn unknown_column_suggests_wrong_table_qualifier() {
        let e = run_err(
            "SELECT T2.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id",
        );
        let msg = e.to_string();
        assert!(
            msg.contains("did you mean t1.name?"),
            "message should point at the right binding: {msg}"
        );
    }

    #[test]
    fn unknown_column_suggests_close_spelling() {
        let e = run_err("SELECT nmae FROM singer");
        let msg = e.to_string();
        assert!(
            msg.contains("did you mean singer.name?"),
            "message should suggest near-miss: {msg}"
        );
    }

    #[test]
    fn unknown_column_without_candidate_is_plain() {
        let e = run_err("SELECT completely_unrelated FROM singer");
        let msg = e.to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
    }
}
