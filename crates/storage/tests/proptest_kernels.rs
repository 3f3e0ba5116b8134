//! Property tests pinning vectorized-kernel vs scalar-interpreter agreement
//! on adversarial floats: `-0.0`, NaN, and near-epsilon neighbors.
//!
//! Both paths funnel comparisons through `value::float_total_cmp`, but that
//! is an implementation detail — what these tests pin is the observable
//! contract: for any column of hostile floats and any comparison literal,
//! the columnar engine's vectorized kernels select byte-for-byte the same
//! rows as the row-at-a-time reference interpreter, on small tables and on
//! tables past a kernel's first 64-row validity word.

use proptest::prelude::*;
use sqlkit::parse_query;
use storage::schema::{ColType, ColumnDef, DbSchema, TableSchema};
use storage::{execute_query_oracle, execute_query_with, Database, Engine, Value};

fn schema() -> DbSchema {
    DbSchema {
        db_id: "kern".into(),
        tables: vec![TableSchema {
            name: "t".into(),
            columns: vec![
                ColumnDef::new("id", ColType::Int),
                ColumnDef::new("x", ColType::Float),
            ],
            primary_key: vec![0],
        }],
        foreign_keys: vec![],
    }
}

/// Hostile float cells: signed zeros, NaN, epsilon-neighborhoods of 1.0,
/// denormal-scale values, a dense band, and NULLs.
fn cell() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (0i64..8).prop_map(|i| Value::Float(i as f64 / 4.0)),
        1 => Just(Value::Float(0.0)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Float(f64::NAN)),
        1 => Just(Value::Float(1.0 + f64::EPSILON)),
        1 => Just(Value::Float(1.0 - f64::EPSILON / 2.0)),
        1 => Just(Value::Float(5e-324)), // smallest positive denormal
        1 => Just(Value::Float(-5e-324)),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Comparison literals written exactly as SQL tokens. `{:?}` on f64 prints
/// a shortest-roundtrip decimal, so the parsed literal has identical bits.
fn lit() -> BoxedStrategy<String> {
    prop_oneof![
        (0i64..8).prop_map(|i| format!("{:?}", i as f64 / 4.0)),
        Just("0.0".to_string()),
        Just("-0.0".to_string()),
        Just(format!("{:?}", 1.0 + f64::EPSILON)),
        Just(format!("{:?}", 1.0 - f64::EPSILON / 2.0)),
        Just("1".to_string()), // Int literal against a Float column
        Just("0.0000000000000001".to_string()), // 1e-16 (the parser takes no exponent syntax)
    ]
    .boxed()
}

fn op() -> BoxedStrategy<&'static str> {
    prop_oneof![
        Just("="),
        Just("!="),
        Just("<"),
        Just("<="),
        Just(">"),
        Just(">="),
    ]
    .boxed()
}

/// One row per hostile float cell, with `id` its row number.
fn build_db(cells: Vec<Value>) -> Database {
    let mut db = Database::new(schema());
    for (i, x) in cells.into_iter().enumerate() {
        db.insert("t", vec![Value::Int(i as i64), x]).unwrap();
    }
    db
}

fn rows_bits(rs: &storage::ResultSet) -> Vec<Vec<u64>> {
    rs.rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| match v {
                    Value::Int(i) => *i as u64,
                    Value::Float(f) => f.to_bits(),
                    Value::Null => u64::MAX,
                    Value::Str(_) => unreachable!("numeric projection"),
                })
                .collect()
        })
        .collect()
}

fn check(db: &Database, sql: &str) {
    let q = parse_query(sql).unwrap();
    let oracle = execute_query_oracle(db, &q).unwrap();
    let columnar = execute_query_with(db, &q, Engine::Columnar).unwrap();
    assert_eq!(
        rows_bits(&oracle),
        rows_bits(&columnar),
        "kernel/scalar divergence on {sql}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Small tables: every selection fits one validity word.
    #[test]
    fn kernel_matches_scalar_on_comparisons(
        cells in proptest::collection::vec(cell(), 0..24),
        l in lit(),
        o in op(),
    ) {
        let db = build_db(cells);
        check(&db, &format!("SELECT id, x FROM t WHERE x {o} {l}"));
    }

    /// Tables of 64–120 rows: comparison and BETWEEN kernels read NULLs
    /// from a second validity word too.
    #[test]
    fn kernels_match_scalar_on_multiword_tables(
        cells in proptest::collection::vec(cell(), 64..120),
        l in lit(),
        o in op(),
    ) {
        let db = build_db(cells);
        check(&db, &format!("SELECT id FROM t WHERE x {o} {l}"));
        check(&db, &format!("SELECT id FROM t WHERE x BETWEEN 0.0 AND {l}"));
    }

    /// BETWEEN / IN / IS NULL kernels on hostile floats.
    #[test]
    fn membership_kernels_match_scalar(
        cells in proptest::collection::vec(cell(), 0..40),
        a in lit(),
        b in lit(),
    ) {
        let db = build_db(cells);
        check(&db, &format!("SELECT id FROM t WHERE x BETWEEN {a} AND {b}"));
        check(&db, &format!("SELECT id FROM t WHERE x NOT BETWEEN {a} AND {b}"));
        check(&db, &format!("SELECT id FROM t WHERE x IN ({a}, {b}, -0.0)"));
        check(&db, "SELECT id FROM t WHERE x IS NULL");
        check(&db, "SELECT id FROM t WHERE x IS NOT NULL");
    }

    /// ORDER BY over hostile (but NaN-free) floats: the comparator the
    /// sort uses must yield one total order both engines share. NaN is
    /// excluded because `float_total_cmp` makes it equal to everything —
    /// not a total order — and both engines share the same panic there.
    #[test]
    fn sort_agrees_on_hostile_floats(
        cells in proptest::collection::vec(
            cell().prop_filter("NaN breaks sort totality", |v| {
                !matches!(v, Value::Float(f) if f.is_nan())
            }),
            0..40,
        ),
    ) {
        let db = build_db(cells);
        check(&db, "SELECT id, x FROM t ORDER BY x ASC, id ASC");
        check(&db, "SELECT id, x FROM t ORDER BY x DESC, id DESC");
    }
}
