//! Property tests for executor invariants on randomly populated databases.

use proptest::prelude::*;
use sqlkit::parse_query;
use storage::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
use storage::{execute_query, execute_query_with, Database, Engine, Value};

/// Fixed two-table schema; rows are generated.
fn schema() -> DbSchema {
    DbSchema {
        db_id: "prop".into(),
        tables: vec![
            TableSchema {
                name: "person".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                    ColumnDef::new("age", ColType::Int),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "order_item".into(),
                columns: vec![
                    ColumnDef::new("oid", ColType::Int),
                    ColumnDef::new("person_id", ColType::Int),
                    ColumnDef::new("amount", ColType::Float),
                ],
                primary_key: vec![0],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "order_item".into(),
            from_column: "person_id".into(),
            to_table: "person".into(),
            to_column: "id".into(),
        }],
    }
}

fn value_row() -> impl Strategy<Value = (i64, String, Option<i64>)> {
    (
        0i64..50,
        "[a-e]{1,4}",
        proptest::option::weighted(0.9, 0i64..90),
    )
}

fn db_strategy() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec(value_row(), 0..25),
        proptest::collection::vec((0i64..40, 0i64..50, 0u32..100_000), 0..25),
    )
        .prop_map(|(people, orders)| {
            let mut db = Database::new(schema());
            for (i, (id, name, age)) in people.into_iter().enumerate() {
                db.insert(
                    "person",
                    vec![
                        Value::Int(id + i as i64 * 100), // unique-ish ids
                        Value::Str(name),
                        age.map(Value::Int).unwrap_or(Value::Null),
                    ],
                )
                .unwrap();
            }
            for (i, (oid, pid, cents)) in orders.into_iter().enumerate() {
                db.insert(
                    "order_item",
                    vec![
                        Value::Int(oid + i as i64 * 100),
                        Value::Int(pid),
                        Value::Float(cents as f64 / 100.0),
                    ],
                )
                .unwrap();
            }
            db
        })
}

const BIG: i64 = 1 << 53; // f64 can no longer tell 2^53 from 2^53 + 1

/// Two tables `l(lid, i, f, k)` and `r(rid, i, f, k)` whose join keys are
/// an all-int column `i`, an all-float column `f` and a mixed column `k`.
fn keyed_db_strategy() -> impl Strategy<Value = Database> {
    let int_key = || {
        prop_oneof![
            2 => (BIG..BIG + 3).prop_map(Value::Int),
            2 => (0i64..2).prop_map(Value::Int),
            1 => Just(Value::Null),
        ]
    };
    let float_key = || {
        prop_oneof![
            2 => Just(Value::Float(0.0)),
            2 => Just(Value::Float(-0.0)),
            1 => Just(Value::Float(1.0)),
            1 => Just(Value::Float(f64::NAN)),
            1 => Just(Value::Null),
        ]
    };
    let mixed_key = || {
        prop_oneof![
            3 => int_key(),
            3 => float_key(),
            1 => Just(Value::Float(BIG as f64)),
        ]
    };
    let row = move || (int_key(), float_key(), mixed_key());
    (
        proptest::collection::vec(row(), 0..8),
        proptest::collection::vec(row(), 0..8),
    )
        .prop_map(|(ls, rs)| {
            let table = |name: &str, id: &str| TableSchema {
                name: name.into(),
                columns: vec![
                    ColumnDef::new(id, ColType::Int),
                    ColumnDef::new("i", ColType::Int),
                    ColumnDef::new("f", ColType::Float),
                    ColumnDef::new("k", ColType::Float),
                ],
                primary_key: vec![0],
            };
            let mut db = Database::new(DbSchema {
                db_id: "keyed".into(),
                tables: vec![table("l", "lid"), table("r", "rid")],
                foreign_keys: vec![],
            });
            for (name, rows) in [("l", ls), ("r", rs)] {
                for (n, (i, f, k)) in rows.into_iter().enumerate() {
                    db.insert(name, vec![Value::Int(n as i64), i, f, k])
                        .unwrap();
                }
            }
            db
        })
}

fn threshold() -> impl Strategy<Value = i64> {
    0i64..90
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// DISTINCT is idempotent: applying it to an already-distinct projection
    /// changes nothing.
    #[test]
    fn distinct_idempotent(db in db_strategy()) {
        let q1 = parse_query("SELECT DISTINCT name FROM person").unwrap();
        let r1 = execute_query(&db, &q1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in &r1.rows {
            prop_assert!(seen.insert(format!("{:?}", row)), "duplicate after DISTINCT");
        }
    }

    /// Adding a conjunct can only shrink the result.
    #[test]
    fn where_is_monotone(db in db_strategy(), t in threshold()) {
        let q_all = parse_query(&format!("SELECT id FROM person WHERE age > {t}")).unwrap();
        let q_narrow = parse_query(&format!("SELECT id FROM person WHERE age > {t} AND name LIKE 'a%'")).unwrap();
        let all = execute_query(&db, &q_all).unwrap();
        let narrow = execute_query(&db, &q_narrow).unwrap();
        prop_assert!(narrow.rows.len() <= all.rows.len());
    }

    /// UNION is commutative under set semantics.
    #[test]
    fn union_commutative(db in db_strategy(), t in threshold()) {
        let ab = parse_query(&format!(
            "SELECT name FROM person WHERE age > {t} UNION SELECT name FROM person WHERE age <= {t}"
        )).unwrap();
        let ba = parse_query(&format!(
            "SELECT name FROM person WHERE age <= {t} UNION SELECT name FROM person WHERE age > {t}"
        )).unwrap();
        let r1 = execute_query(&db, &ab).unwrap();
        let r2 = execute_query(&db, &ba).unwrap();
        prop_assert!(storage::results_match(&r1, &r2, false));
    }

    /// INTERSECT of disjoint predicates is empty; EXCEPT removes everything
    /// when subtracting the full set.
    #[test]
    fn set_op_identities(db in db_strategy(), t in threshold()) {
        let inter = parse_query(&format!(
            "SELECT id FROM person WHERE age > {t} INTERSECT SELECT id FROM person WHERE age <= {t}"
        )).unwrap();
        prop_assert!(execute_query(&db, &inter).unwrap().rows.is_empty());

        let except = parse_query("SELECT id FROM person EXCEPT SELECT id FROM person").unwrap();
        prop_assert!(execute_query(&db, &except).unwrap().rows.is_empty());
    }

    /// LIMIT n yields at most n rows and is a prefix of the unlimited result.
    #[test]
    fn limit_bounds(db in db_strategy(), n in 0u64..10) {
        let q_lim = parse_query(&format!("SELECT id FROM person ORDER BY id ASC LIMIT {n}")).unwrap();
        let q_all = parse_query("SELECT id FROM person ORDER BY id ASC").unwrap();
        let lim = execute_query(&db, &q_lim).unwrap();
        let all = execute_query(&db, &q_all).unwrap();
        prop_assert!(lim.rows.len() <= n as usize);
        prop_assert_eq!(&all.rows[..lim.rows.len()], &lim.rows[..]);
    }

    /// `ON x = y` means what `WHERE x = y` means: on key columns holding
    /// signed zeros, NaN, NULL and 2^53-band ints, a join returns the rows,
    /// in the order, of the comma join filtered by the same equality, on
    /// both engines. The key columns are an all-int one, an all-float one
    /// and a mixed one; `L.c = c` resolves unqualified `c` to `L.c`.
    #[test]
    fn on_join_equals_where_join(db in keyed_db_strategy(), col in 0usize..3, shape in 0usize..3) {
        let c = ["i", "f", "k"][col];
        let (lhs, rhs) = match shape {
            0 => (format!("L.{c}"), format!("R.{c}")),
            1 => (format!("R.{c}"), format!("L.{c}")),
            _ => (format!("L.{c}"), c.to_string()),
        };
        let on = parse_query(&format!(
            "SELECT L.lid, R.rid FROM l AS L JOIN r AS R ON {lhs} = {rhs}"
        )).unwrap();
        let wh = parse_query(&format!(
            "SELECT L.lid, R.rid FROM l AS L, r AS R WHERE {lhs} = {rhs}"
        )).unwrap();
        for engine in [Engine::Columnar, Engine::Oracle] {
            let a = execute_query_with(&db, &on, engine).unwrap();
            let b = execute_query_with(&db, &wh, engine).unwrap();
            prop_assert_eq!(&a.rows, &b.rows, "{:?}: ON {} = {}", engine, lhs, rhs);
        }
    }

    /// COUNT(*) equals the number of rows the same WHERE returns.
    #[test]
    fn count_consistent_with_filter(db in db_strategy(), t in threshold()) {
        let qc = parse_query(&format!("SELECT count(*) FROM person WHERE age > {t}")).unwrap();
        let qr = parse_query(&format!("SELECT id FROM person WHERE age > {t}")).unwrap();
        let c = execute_query(&db, &qc).unwrap();
        let r = execute_query(&db, &qr).unwrap();
        match &c.rows[0][0] {
            Value::Int(n) => prop_assert_eq!(*n as usize, r.rows.len()),
            other => prop_assert!(false, "count returned {other:?}"),
        }
    }

    /// Aggregates respect NULL semantics: count(age) <= count(*).
    #[test]
    fn count_col_le_count_star(db in db_strategy()) {
        let q = parse_query("SELECT count(age), count(*) FROM person").unwrap();
        let r = execute_query(&db, &q).unwrap();
        let (a, b) = (&r.rows[0][0], &r.rows[0][1]);
        if let (Value::Int(a), Value::Int(b)) = (a, b) {
            prop_assert!(a <= b);
        } else {
            prop_assert!(false, "unexpected types");
        }
    }
}
