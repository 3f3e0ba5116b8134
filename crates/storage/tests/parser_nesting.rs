//! Model output can nest without bound, and one stack overflow aborts a
//! whole evaluation run. The parser refuses nesting past
//! `sqlkit::parser::MAX_DEPTH`, and a query at that limit, of every kind
//! of nesting, goes through everything scoring does with it (print,
//! canonicalize, skeleton, both engines) on the 2 MiB stack of a spawned
//! thread, the stack of eval's scoring workers.

use sqlkit::parser::MAX_DEPTH;
use sqlkit::{canonicalize, parse_query, Query, Skeleton, ValueMode};
use storage::schema::{ColType, ColumnDef, DbSchema, TableSchema};
use storage::{execute_query_with, Database, Engine, Value};

/// One row, so the reference engine's per-row subquery re-runs stay linear.
fn db() -> Database {
    let schema = DbSchema {
        db_id: "nest".into(),
        tables: vec![TableSchema {
            name: "emp".into(),
            columns: vec![
                ColumnDef::new("id", ColType::Int),
                ColumnDef::new("salary", ColType::Float),
            ],
            primary_key: vec![0],
        }],
        foreign_keys: vec![],
    };
    let mut d = Database::new(schema);
    d.insert("emp", vec![Value::Int(1), Value::Float(10.0)])
        .unwrap();
    d
}

/// A kind of nesting, and its query `n` levels deep.
type Kind = (&'static str, fn(usize) -> String);

const KINDS: &[Kind] = &[
    ("parenthesized expression", |n| {
        format!("SELECT {}salary{} FROM emp", "(".repeat(n), ")".repeat(n))
    }),
    ("parenthesized condition", |n| {
        format!(
            "SELECT id FROM emp WHERE {}salary > 1{}",
            "(".repeat(n),
            ")".repeat(n)
        )
    }),
    ("NOT", |n| {
        format!("SELECT id FROM emp WHERE {}(salary > 1)", "NOT ".repeat(n))
    }),
    ("unary minus", |n| {
        format!("SELECT {}salary FROM emp", "- ".repeat(n))
    }),
    ("IN subquery", |n| {
        format!(
            "SELECT id FROM emp WHERE {}id >= 0{}",
            "id IN (SELECT id FROM emp WHERE ".repeat(n),
            ")".repeat(n)
        )
    }),
    ("scalar subquery", |n| {
        format!(
            "SELECT id FROM emp WHERE salary >= {}0{}",
            "(SELECT min(salary) FROM emp WHERE salary >= ".repeat(n),
            ")".repeat(n)
        )
    }),
    ("EXISTS", |n| {
        format!(
            "SELECT id FROM emp WHERE {}1 = 1{}",
            "EXISTS (SELECT id FROM emp WHERE ".repeat(n),
            ")".repeat(n)
        )
    }),
    ("derived table", |n| {
        format!(
            "SELECT * FROM {}emp{}",
            "(SELECT * FROM ".repeat(n),
            ")".repeat(n)
        )
    }),
    ("compound operand", |n| {
        format!(
            "SELECT id FROM emp{}{}",
            " UNION (SELECT id FROM emp".repeat(n),
            ")".repeat(n)
        )
    }),
    ("AND chain", |n| {
        format!(
            "SELECT id FROM emp WHERE salary > 1{}",
            " AND salary > 1".repeat(n)
        )
    }),
    ("OR chain", |n| {
        format!(
            "SELECT id FROM emp WHERE salary > 1{}",
            " OR salary > 1".repeat(n)
        )
    }),
    // Each group is the first operand of the chain around it, so it sinks
    // one level per link outside it.
    ("chain of grouped chains", |n| {
        format!(
            "SELECT id FROM emp WHERE {}salary > 1{}",
            "(".repeat(n),
            " OR salary > 1)".repeat(n)
        )
    }),
    ("arithmetic chain", |n| {
        format!("SELECT salary{} FROM emp", " + salary * 1".repeat(n))
    }),
    ("set operation chain", |n| {
        format!(
            "SELECT id FROM emp{}",
            " UNION SELECT id FROM emp".repeat(n)
        )
    }),
];

/// Everything scoring does with a parsed query.
fn score_paths(q: &Query, db: &Database) {
    assert!(!q.to_string().is_empty());
    canonicalize(q, ValueMode::Masked);
    Skeleton::of(q).render();
    for engine in [Engine::Columnar, Engine::Oracle] {
        if let Err(e) = execute_query_with(db, q, engine) {
            panic!("{engine:?}: {e}");
        }
    }
}

#[test]
fn nesting_past_the_limit_is_a_parse_error_and_the_limit_runs_on_a_small_stack() {
    let worker = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let db = db();
            for &(kind, sql) in KINDS {
                // The deepest level of this kind the parser accepts.
                let limit = (1..)
                    .take_while(|&n| parse_query(&sql(n)).is_ok())
                    .last()
                    .unwrap_or_else(|| panic!("{kind}: one level does not parse"));
                assert!(limit >= 8, "{kind}: only {limit} levels parse");
                score_paths(&parse_query(&sql(limit)).unwrap(), &db);
                for n in [limit + 1, 100_000] {
                    let err = parse_query(&sql(n)).expect_err(kind);
                    assert_eq!(
                        err.message,
                        format!("query nests deeper than {MAX_DEPTH} levels"),
                        "{kind} at {n} levels"
                    );
                }
            }
        })
        .unwrap();
    worker
        .join()
        .expect("no kind of nesting overflows the stack");
}
