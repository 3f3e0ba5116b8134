//! Executor edge cases beyond the unit suite: correlated aggregates, NULL
//! grouping, derived-table nesting, multi-key ordering, and three-valued
//! logic corners.

use sqlkit::parse_query;
use storage::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
use storage::{execute_query, Database, Value};

fn db() -> Database {
    let schema = DbSchema {
        db_id: "edge".into(),
        tables: vec![
            TableSchema {
                name: "dept".into(),
                columns: vec![
                    ColumnDef::new("dept_id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "emp".into(),
                columns: vec![
                    ColumnDef::new("emp_id", ColType::Int),
                    ColumnDef::new("dept_id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                    ColumnDef::new("salary", ColType::Float),
                    ColumnDef::new("grade", ColType::Text),
                ],
                primary_key: vec![0],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "emp".into(),
            from_column: "dept_id".into(),
            to_table: "dept".into(),
            to_column: "dept_id".into(),
        }],
    };
    let mut d = Database::new(schema);
    for (id, name) in [(1, "Eng"), (2, "Sales"), (3, "Empty")] {
        d.insert("dept", vec![Value::Int(id), Value::Str(name.into())])
            .unwrap();
    }
    let emps: [(i64, i64, &str, f64, Option<&str>); 6] = [
        (1, 1, "Ann", 100.0, Some("A")),
        (2, 1, "Bob", 80.0, Some("B")),
        (3, 1, "Cat", 120.0, None),
        (4, 2, "Dan", 60.0, Some("B")),
        (5, 2, "Eve", 90.0, Some("A")),
        (6, 2, "Fay", 60.0, None),
    ];
    for (id, dept, name, sal, grade) in emps {
        d.insert(
            "emp",
            vec![
                Value::Int(id),
                Value::Int(dept),
                Value::Str(name.into()),
                Value::Float(sal),
                grade.map(|g| Value::Str(g.into())).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    d
}

fn run(sql: &str) -> storage::ResultSet {
    let q = parse_query(sql).unwrap();
    execute_query(&db(), &q).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn correlated_scalar_subquery_with_aggregate() {
    // Employees above their own department's average.
    let rs = run(
        "SELECT name FROM emp WHERE salary > (SELECT avg(salary) FROM emp AS e2 WHERE e2.dept_id = emp.dept_id) ORDER BY name ASC",
    );
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Cat", "Eve"]);
}

#[test]
fn null_group_keys_form_their_own_group() {
    let rs =
        run("SELECT grade, count(*) FROM emp GROUP BY grade ORDER BY count(*) DESC, grade ASC");
    // Groups: A=2, B=2, NULL=2 → all count 2; NULL sorts before text in the
    // ORDER BY tiebreak (total order puts NULL first).
    assert_eq!(rs.rows.len(), 3);
    let total: i64 = rs
        .rows
        .iter()
        .map(|r| if let Value::Int(v) = r[1] { v } else { 0 })
        .sum();
    assert_eq!(total, 6);
}

#[test]
fn having_with_avg() {
    let rs = run(
        "SELECT dept_id FROM emp GROUP BY dept_id HAVING avg(salary) > 80 ORDER BY dept_id ASC",
    );
    let ids: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(ids, vec!["1"]);
}

#[test]
fn multi_key_order_by() {
    let rs = run("SELECT name, salary FROM emp ORDER BY salary ASC, name DESC");
    let first: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    // Two 60.0 salaries: Fay before Dan (name DESC).
    assert_eq!(&first[..2], ["Fay", "Dan"]);
}

#[test]
fn nested_derived_tables() {
    let rs = run(
        "SELECT T.n FROM (SELECT dept_id AS d, count(*) AS n FROM (SELECT dept_id FROM emp WHERE salary > 70) AS inner_t GROUP BY dept_id) AS T ORDER BY T.n DESC",
    );
    let counts: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(counts, vec!["3", "1"]);
}

#[test]
fn left_join_parsed_as_inner_still_executes() {
    // The executor treats LEFT JOIN as INNER (documented); the empty dept
    // simply does not appear.
    let rs = run(
        "SELECT T1.name, count(*) FROM dept AS T1 LEFT JOIN emp AS T2 ON T1.dept_id = T2.dept_id GROUP BY T1.dept_id ORDER BY T1.name ASC",
    );
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn not_like_with_nulls_excluded() {
    // NULL grades are unknown under NOT LIKE and must be filtered out.
    let rs = run("SELECT name FROM emp WHERE grade NOT LIKE 'A' ORDER BY name ASC");
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Bob", "Dan"]);
}

#[test]
fn in_list_with_null_member_is_unknown_for_misses() {
    let rs = run("SELECT name FROM emp WHERE grade IN ('A', NULL) ORDER BY name ASC");
    // Matches only grade='A'; rows with grade B compare unknown (not true).
    let names: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(names, vec!["Ann", "Eve"]);
}

#[test]
fn union_of_different_tables_same_arity() {
    let rs = run("SELECT name FROM dept UNION SELECT name FROM emp");
    assert_eq!(rs.rows.len(), 9, "3 depts + 6 emps, all distinct");
}

#[test]
fn intersect_on_numeric_coercion() {
    // salary 60.0 appears in both halves.
    let rs = run(
        "SELECT salary FROM emp WHERE dept_id = 2 INTERSECT SELECT salary FROM emp WHERE name = 'Dan'",
    );
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn count_distinct_ignores_nulls() {
    let rs = run("SELECT count(DISTINCT grade) FROM emp");
    assert_eq!(rs.rows[0][0].to_string(), "2");
}

#[test]
fn order_by_on_expression() {
    let rs = run("SELECT name FROM emp ORDER BY salary * 2 DESC LIMIT 1");
    assert_eq!(rs.rows[0][0].to_string(), "Cat");
}

#[test]
fn exists_against_empty_group() {
    let rs = run(
        "SELECT name FROM dept WHERE NOT EXISTS (SELECT 1 FROM emp WHERE emp.dept_id = dept.dept_id)",
    );
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0].to_string(), "Empty");
}

/// Run `sql` through both engines.
fn run_both(sql: &str) -> [storage::ExecResult<storage::ResultSet>; 2] {
    let q = parse_query(sql).unwrap();
    let db = db();
    [
        execute_query(&db, &q),
        storage::execute_query_oracle(&db, &q),
    ]
}

#[test]
fn unknown_column_fails_even_when_the_filter_selects_nothing() {
    for sql in [
        "SELECT nope FROM emp WHERE salary > 1000",
        "SELECT nope FROM emp WHERE salary > 10",
        "SELECT dept_id, nope FROM emp WHERE salary > 1000 GROUP BY dept_id",
        "SELECT count(nope) FROM emp WHERE salary > 1000",
        "SELECT count(nope) FROM emp WHERE salary > 10",
        "SELECT name, max(nope) FROM emp WHERE salary > 1000 GROUP BY name",
    ] {
        for out in run_both(sql) {
            assert!(
                matches!(out, Err(storage::ExecError::UnknownColumn(_))),
                "{sql}: {out:?}"
            );
        }
    }
}

#[test]
fn subquery_over_the_empty_global_group_reads_the_outer_row_as_null() {
    // No employee qualifies, so the global group is empty; its HAVING
    // subquery sees the outer row as NULLs, the count is 0 and `0 < 0` is
    // false, so no row comes back (SQLite agrees).
    let sql = "SELECT count(*) FROM emp AS E WHERE salary > 1000 HAVING count(*) < (SELECT count(*) FROM dept AS D WHERE D.dept_id = E.dept_id)";
    for out in run_both(sql) {
        let rs = out.unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(rs.columns.len(), 1);
        assert!(rs.rows.is_empty(), "{:?}", rs.rows);
    }
    // The outer column reads NULL: every department counts, 0 < 3 holds.
    let sql = "SELECT count(*) FROM emp AS E WHERE salary > 1000 HAVING count(*) < (SELECT count(*) FROM dept AS D WHERE E.dept_id IS NULL)";
    for out in run_both(sql) {
        let rs = out.unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(rs.rows, vec![vec![Value::Int(0)]]);
    }
}

/// `sql`'s rows through both engines, rendered as strings. The engines
/// share their ORDER BY resolution, so each is held to the expected rows
/// (SQLite 3.40.1's answers on this database), not just to the other.
fn rows_both(sql: &str) -> [Vec<String>; 2] {
    run_both(sql).map(|out| {
        let rs = out.unwrap_or_else(|e| panic!("{sql}: {e}"));
        rs.rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect::<Vec<_>>().join("|"))
            .collect()
    })
}

#[test]
fn order_by_positions_and_aliases_name_output_columns() {
    for (sql, want) in [
        (
            "SELECT name, salary FROM emp ORDER BY 2 DESC, 1",
            &["Cat|120", "Ann|100", "Eve|90", "Bob|80", "Dan|60", "Fay|60"][..],
        ),
        (
            "SELECT dept_id, sum(salary) FROM emp GROUP BY dept_id ORDER BY 2",
            &["2|210", "1|300"],
        ),
        // A float, a computed constant and an integer wider than i32 are
        // constants, so the later keys decide.
        (
            "SELECT name FROM emp ORDER BY 1.0, salary, name",
            &["Dan", "Fay", "Bob", "Eve", "Ann", "Cat"],
        ),
        (
            "SELECT name FROM emp ORDER BY 2 + 0, salary, name",
            &["Dan", "Fay", "Bob", "Eve", "Ann", "Cat"],
        ),
        (
            "SELECT name FROM emp ORDER BY 2147483648, salary, name",
            &["Dan", "Fay", "Bob", "Eve", "Ann", "Cat"],
        ),
        // An alias names the output column, ahead of the table column.
        (
            "SELECT salary AS name FROM emp ORDER BY name",
            &["60", "60", "80", "90", "100", "120"],
        ),
        (
            "SELECT salary AS Name FROM emp ORDER BY NAME DESC",
            &["120", "100", "90", "80", "60", "60"],
        ),
        // A qualified name is always the table column.
        (
            "SELECT salary AS name FROM emp ORDER BY emp.name",
            &["100", "80", "120", "60", "90", "60"],
        ),
        // The alias, not the bare `name` item before it.
        (
            "SELECT name, salary AS name FROM emp ORDER BY name, 1",
            &["Dan|60", "Fay|60", "Bob|80", "Eve|90", "Ann|100", "Cat|120"],
        ),
        // A `*`-expanded column is named like an alias: D.name here, not
        // the E.name that leads the FROM relation.
        (
            "SELECT D.*, E.salary FROM emp AS E JOIN dept AS D ON E.dept_id = D.dept_id \
             ORDER BY name, salary",
            &[
                "1|Eng|80",
                "1|Eng|100",
                "1|Eng|120",
                "2|Sales|60",
                "2|Sales|60",
                "2|Sales|90",
            ],
        ),
    ] {
        for rows in rows_both(sql) {
            assert_eq!(rows, want, "{sql}");
        }
    }
}

#[test]
fn order_by_position_out_of_range_is_an_error() {
    for (sql, term) in [
        ("SELECT name, salary FROM emp ORDER BY 0", 1),
        ("SELECT name, salary FROM emp ORDER BY 3", 1),
        ("SELECT name, salary FROM emp ORDER BY -1", 1),
        ("SELECT name, salary FROM emp ORDER BY 2147483647", 1),
        ("SELECT name, salary FROM emp ORDER BY 1, 3", 2),
        // No row reaches the sort: the term is still out of range.
        (
            "SELECT name, salary FROM emp WHERE salary > 1000 ORDER BY 3",
            1,
        ),
    ] {
        for out in run_both(sql) {
            let err = out.expect_err(sql);
            assert_eq!(
                err,
                storage::ExecError::OrderTermOutOfRange { term, columns: 2 },
                "{sql}"
            );
            assert_eq!(
                err.to_string(),
                format!("ORDER BY term {term} out of range - should be between 1 and 2")
            );
        }
    }
}
