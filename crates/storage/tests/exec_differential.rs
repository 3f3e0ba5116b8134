//! Differential testing: the columnar engine vs the reference interpreter.
//!
//! Every generated (database, query) pair must satisfy
//! [`storage::check_agreement`]: **bit-identical** results through both
//! engines — same column labels, same row order, same cell bits — or the
//! exact same error. Both engines read `ON a = b` as `WHERE a = b`, so
//! one run per engine covers the hash join, its NaN fallback and the
//! nested loop alike. The
//! generator leans into the adversarial corners the planner special-cases:
//! NULL-heavy columns, NaN and negative zero, integers beyond 2^53 (where
//! the f64 prefilter buckets collide), duplicate join keys, and empty
//! tables; and into the correlation shapes the columnar engine's subquery
//! memo depends on, since the oracle re-runs every subquery per outer row.
//!
//! Shrunk regressions live in `tests/golden/exec_diff/` at the repo root;
//! `committed_corpus_replays_clean` replays them on a fixed database so a
//! past divergence can never quietly return.

use proptest::prelude::*;
use sqlkit::parse_query;
use storage::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
use storage::{check_agreement, execute_query_with, Database, Engine, Value};

/// Three-table schema exercising joins, FKs, and all three column types.
fn schema() -> DbSchema {
    DbSchema {
        db_id: "diff".into(),
        tables: vec![
            TableSchema {
                name: "person".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("grp", ColType::Int),
                    ColumnDef::new("score", ColType::Float),
                    ColumnDef::new("name", ColType::Text),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "visit".into(), // deliberately NULL/NaN-heavy
                columns: vec![
                    ColumnDef::new("vid", ColType::Int),
                    ColumnDef::new("person_id", ColType::Int),
                    ColumnDef::new("amount", ColType::Float),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "tag".into(),
                columns: vec![
                    ColumnDef::new("tid", ColType::Int),
                    ColumnDef::new("label", ColType::Text),
                ],
                primary_key: vec![0],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "visit".into(),
            from_column: "person_id".into(),
            to_table: "person".into(),
            to_column: "id".into(),
        }],
    }
}

const BIG: i64 = 9_007_199_254_740_992; // 2^53: f64 can no longer tell neighbors apart

/// Int cells: a dense band (join fan-out), negatives, a 2^53 band whose
/// members collide as f64 hash keys, and NULLs.
fn int_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (0i64..6).prop_map(Value::Int),
        1 => (-3i64..0).prop_map(Value::Int),
        1 => (BIG..BIG + 3).prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Float cells: signed zeros, NaN, near-epsilon neighbors of 1.0, a small
/// dense band, and NULLs.
fn float_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (0i64..5).prop_map(|i| Value::Float(i as f64 / 2.0)),
        1 => Just(Value::Float(0.0)),
        1 => Just(Value::Float(-0.0)),
        1 => Just(Value::Float(f64::NAN)),
        1 => Just(Value::Float(1.0 + f64::EPSILON)),
        1 => Just(Value::Float(1.0 - f64::EPSILON / 2.0)),
        2 => Just(Value::Null),
    ]
    .boxed()
}

fn text_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => "[a-c]{0,2}".prop_map(Value::Str),
        1 => Just(Value::Str(String::new())),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// A database with independently sized tables; all three can be empty.
fn db_strategy() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec((int_cell(), float_cell(), text_cell()), 0..20),
        proptest::collection::vec((int_cell(), float_cell()), 0..20),
        proptest::collection::vec(text_cell(), 0..8),
    )
        .prop_map(|(people, visits, tags)| {
            let mut db = Database::new(schema());
            for (i, (grp, score, name)) in people.into_iter().enumerate() {
                db.insert("person", vec![Value::Int(i as i64), grp, score, name])
                    .unwrap();
            }
            for (i, (pid, amount)) in visits.into_iter().enumerate() {
                db.insert("visit", vec![Value::Int(i as i64), pid, amount])
                    .unwrap();
            }
            for (i, label) in tags.into_iter().enumerate() {
                db.insert("tag", vec![Value::Int(i as i64), label]).unwrap();
            }
            db
        })
}

/// Random single-table predicate over `person` (optionally alias-qualified).
fn pred(q: &str) -> BoxedStrategy<String> {
    let q = q.to_string();
    let c = move |col: &str| format!("{q}{col}");
    let grp = c("grp");
    let score = c("score");
    let name = c("name");
    let id = c("id");
    prop_oneof![
        (0i64..6).prop_map({
            let grp = grp.clone();
            move |v| format!("{grp} = {v}")
        }),
        (0i64..10).prop_map({
            let score = score.clone();
            move |v| format!("{score} > {}", v as f64 / 4.0)
        }),
        (0i64..5, 0i64..8).prop_map({
            let grp = grp.clone();
            move |(a, w)| format!("{grp} BETWEEN {a} AND {}", a + w)
        }),
        Just(format!("{name} LIKE 'a%'")),
        Just(format!("{name} NOT LIKE '%b'")),
        Just(format!("{score} IS NULL")),
        Just(format!("{grp} IS NOT NULL")),
        (0i64..6).prop_map({
            let grp = grp.clone();
            move |v| format!("NOT ({grp} = {v})")
        }),
        Just(format!("{grp} IN (1, 3, {BIG})")),
        (0i64..4, 0i64..10).prop_map({
            let grp = grp.clone();
            let score = score.clone();
            move |(g, s)| format!("{grp} = {g} AND {score} <= {}", s as f64 / 4.0)
        }),
        (0i64..4, 0i64..4).prop_map({
            let grp = grp.clone();
            let id = id.clone();
            move |(g, i)| format!("{grp} = {g} OR {id} = {i}")
        }),
    ]
    .boxed()
}

/// Query templates spanning the whole supported surface.
fn query_strategy() -> BoxedStrategy<String> {
    prop_oneof![
        // Single table: projection / DISTINCT / ORDER / LIMIT.
        (pred(""), 0u64..5).prop_map(|(p, n)| format!(
            "SELECT id, grp, score FROM person WHERE {p} ORDER BY id ASC LIMIT {n}"
        )),
        pred("").prop_map(|p| format!("SELECT DISTINCT grp FROM person WHERE {p}")),
        pred("").prop_map(|p| format!("SELECT name FROM person WHERE {p} ORDER BY name DESC")),
        // Aggregates and grouping.
        pred("").prop_map(|p| format!(
            "SELECT grp, count(*), sum(score), min(score), max(name) FROM person \
             WHERE {p} GROUP BY grp ORDER BY grp ASC"
        )),
        (pred(""), 1i64..3).prop_map(|(p, h)| format!(
            "SELECT grp, count(*) FROM person WHERE {p} GROUP BY grp \
             HAVING count(*) >= {h} ORDER BY count(*) DESC, grp ASC"
        )),
        Just("SELECT count(*), count(score), avg(score) FROM person".to_string()),
        // Two-way join (ON edge), with and without WHERE pushdown.
        pred("T1.").prop_map(|p| format!(
            "SELECT T1.name, T2.amount FROM person AS T1 JOIN visit AS T2 \
             ON T1.id = T2.person_id WHERE {p} ORDER BY T1.id ASC, T2.vid ASC"
        )),
        Just(
            "SELECT T1.grp, count(*) FROM person AS T1 JOIN visit AS T2 \
             ON T1.id = T2.person_id GROUP BY T1.grp ORDER BY T1.grp ASC"
                .to_string()
        ),
        // Joins with NO outer ORDER BY: the engines must agree on raw row
        // order (the columnar engine restores reference order after
        // reordering), which LIMIT / DISTINCT / GROUP BY all observe.
        Just(
            "SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 \
             ON T1.id = T2.person_id"
                .to_string()
        ),
        (1u64..5).prop_map(|n| format!(
            "SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 \
             ON T1.id = T2.person_id LIMIT {n}"
        )),
        Just(
            "SELECT DISTINCT T1.grp FROM person AS T1 JOIN visit AS T2 \
             ON T1.id = T2.person_id"
                .to_string()
        ),
        Just(
            "SELECT T1.grp, count(*) FROM person AS T1 JOIN visit AS T2 \
             ON T1.id = T2.person_id GROUP BY T1.grp"
                .to_string()
        ),
        // Join on a float column: NaN / -0.0 key semantics.
        Just(
            "SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 \
             ON T1.score = T2.amount ORDER BY T1.id ASC, T2.vid ASC"
                .to_string()
        ),
        // Three-way join with a WHERE equi-edge (planner turns it into a key).
        Just(
            "SELECT count(*) FROM person AS A JOIN visit AS B ON A.id = B.person_id \
             JOIN tag AS C ON A.grp = C.tid WHERE A.name = C.label"
                .to_string()
        ),
        // Cross join (no ON clause anywhere).
        Just("SELECT count(*) FROM person AS A JOIN tag AS C ON A.grp = C.tid".to_string()),
        // Set operations.
        (0i64..8).prop_map(|t| {
            let c = t as f64 / 4.0;
            format!(
                "SELECT grp FROM person WHERE score > {c} UNION \
                 SELECT grp FROM person WHERE score <= {c}"
            )
        }),
        (0i64..5).prop_map(|g| format!(
            "SELECT id FROM person WHERE grp = {g} INTERSECT \
             SELECT person_id FROM visit"
        )),
        Just("SELECT id FROM person EXCEPT SELECT person_id FROM visit".to_string()),
        // Subqueries: IN, scalar, correlated EXISTS.
        pred("").prop_map(|p| format!(
            "SELECT id FROM person WHERE grp IN (SELECT person_id FROM visit) AND {p}"
        )),
        Just("SELECT id FROM person WHERE score > (SELECT avg(amount) FROM visit)".to_string()),
        Just(
            "SELECT id FROM person AS A WHERE EXISTS \
             (SELECT 1 FROM visit WHERE visit.person_id = A.id)"
                .to_string()
        ),
        Just(
            "SELECT id FROM person AS A WHERE NOT EXISTS \
             (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC"
                .to_string()
        ),
        // The correlation shapes the columnar engine's subquery memo
        // depends on (it memoizes a subquery whose run read no outer row).
        subquery_strategy(),
        // Arithmetic in projection and predicate.
        pred("").prop_map(|p| format!(
            "SELECT id, score * 2 + 1 FROM person WHERE {p} ORDER BY id ASC"
        )),
    ]
    .boxed()
}

/// Subquery shapes that separate a correct memo from one that memoizes a
/// correlated run: outer references that are unqualified, skip a level or
/// stop at the middle level; subqueries in HAVING (including the empty
/// global group, which pushes no outer row); subqueries some rows never
/// reach; subqueries that error, run over the empty-able `tag` table, feed
/// `NOT IN` with NULLs, or sit inside a derived table.
fn subquery_strategy() -> BoxedStrategy<String> {
    prop_oneof![
        // Unqualified outer reference: `id` resolves only in the outer row.
        Just(
            "SELECT id FROM person WHERE EXISTS \
             (SELECT 1 FROM visit WHERE person_id = id) ORDER BY id ASC"
                .to_string()
        ),
        Just(
            "SELECT id FROM person WHERE score > \
             (SELECT avg(amount) FROM visit WHERE person_id = grp) ORDER BY id ASC"
                .to_string()
        ),
        // Skip-level: the innermost subquery reads the outermost row, so
        // the middle one is correlated too.
        Just(
            "SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM person AS B \
             WHERE B.grp IN (SELECT person_id FROM visit AS V WHERE V.person_id = A.id)) \
             ORDER BY id ASC"
                .to_string()
        ),
        (0i64..4).prop_map(|g| format!(
            "SELECT id FROM person AS A WHERE grp = {g} OR EXISTS (SELECT 1 FROM tag AS T \
             WHERE T.tid IN (SELECT vid FROM visit AS V WHERE V.person_id = A.id)) \
             ORDER BY id ASC"
        )),
        // Correlated to the middle level only: the middle subquery is
        // uncorrelated to the outer row, its inner one is not.
        Just(
            "SELECT id FROM person AS A WHERE A.grp IN (SELECT B.grp FROM person AS B \
             WHERE EXISTS (SELECT 1 FROM visit AS V WHERE V.person_id = B.id)) ORDER BY id ASC"
                .to_string()
        ),
        // HAVING: correlated to the group's row, uncorrelated, and over an
        // empty global group.
        Just(
            "SELECT grp, count(*) FROM person AS P GROUP BY grp HAVING count(*) >= \
             (SELECT count(*) FROM visit WHERE visit.person_id = P.grp) ORDER BY grp ASC"
                .to_string()
        ),
        Just(
            "SELECT grp, max(score) FROM person GROUP BY grp HAVING grp IN \
             (SELECT person_id FROM visit) ORDER BY grp ASC"
                .to_string()
        ),
        (0i64..8).prop_map(|g| format!(
            "SELECT count(*) FROM person WHERE grp > {g} HAVING count(*) < \
             (SELECT count(*) FROM visit WHERE person_id > {g})"
        )),
        // Subqueries some rows never reach: AND / OR short-circuit, and a
        // NULL left operand of IN.
        (0i64..4).prop_map(|g| format!(
            "SELECT id FROM person WHERE grp = {g} AND score > \
             (SELECT avg(amount) FROM visit) ORDER BY id ASC"
        )),
        (0i64..4).prop_map(|g| format!(
            "SELECT id FROM person AS A WHERE grp = {g} OR EXISTS \
             (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC"
        )),
        Just(
            "SELECT id FROM person WHERE grp IN \
             (SELECT person_id FROM visit WHERE amount > 0.0) ORDER BY id ASC"
                .to_string()
        ),
        // Uncorrelated subqueries that error: two columns where one is
        // needed, and an unknown column (the error is swallowed when the
        // subquery returns no rows, and then the arity check fails).
        Just(
            "SELECT id FROM person WHERE grp IN (SELECT person_id, amount FROM visit)".to_string()
        ),
        Just("SELECT id FROM person WHERE score > (SELECT vid, amount FROM visit)".to_string()),
        Just("SELECT id FROM person WHERE grp IN (SELECT nope FROM visit)".to_string()),
        // Over the `tag` table, often empty: an empty result must stay empty
        // for every outer row, correlated or not.
        Just(
            "SELECT id FROM person WHERE grp NOT IN (SELECT tid FROM tag) ORDER BY id ASC"
                .to_string()
        ),
        Just(
            "SELECT id FROM person AS A WHERE NOT EXISTS \
             (SELECT 1 FROM tag WHERE tag.label = A.name) ORDER BY id ASC"
                .to_string()
        ),
        Just("SELECT id FROM person WHERE score > (SELECT max(tid) FROM tag)".to_string()),
        // NOT IN over a NULL-bearing subquery is never true.
        Just(
            "SELECT id FROM person WHERE grp NOT IN (SELECT person_id FROM visit) ORDER BY id ASC"
                .to_string()
        ),
        // Inside a derived table, uncorrelated and correlated, and a derived
        // table inside a correlated subquery.
        Just(
            "SELECT T.id FROM (SELECT id, grp FROM person WHERE grp IN \
             (SELECT person_id FROM visit)) AS T ORDER BY T.id ASC"
                .to_string()
        ),
        Just(
            "SELECT T.id FROM (SELECT id FROM person AS A WHERE EXISTS \
             (SELECT 1 FROM visit WHERE visit.person_id = A.id)) AS T"
                .to_string()
        ),
        Just(
            "SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM \
             (SELECT person_id FROM visit WHERE person_id = A.id) AS D) ORDER BY id ASC"
                .to_string()
        ),
    ]
    .boxed()
}

/// Parse `sql` and hold the engines to [`check_agreement`] on it.
fn check_sql(db: &Database, sql: &str) -> Result<(), String> {
    let q = parse_query(sql).map_err(|e| format!("SQL must parse: {e} -- {sql}"))?;
    check_agreement(db, &q).map_err(|e| format!("{e}\non {sql}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The headline differential property: random database, random query,
    /// both engines, bit-identical output.
    #[test]
    fn columnar_engine_matches_oracle(db in db_strategy(), sql in query_strategy()) {
        if let Err(msg) = check_sql(&db, &sql) {
            prop_assert!(false, "{}", msg);
        }
    }

    /// The subquery shapes alone, so each gets enough random databases to
    /// expose a memo that caches a correlated run.
    #[test]
    fn subquery_shapes_match_oracle(db in db_strategy(), sql in subquery_strategy()) {
        if let Err(msg) = check_sql(&db, &sql) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// A deterministic database pinning every adversarial cell shape at once:
/// NULLs everywhere, NaN, both zeros, 2^53 neighbors, duplicate join keys,
/// and one completely empty table (`tag`).
fn regression_db() -> Database {
    let mut db = Database::new(schema());
    let people: Vec<(i64, Value, Value, Value)> = vec![
        (0, Value::Int(1), Value::Float(0.0), Value::Str("a".into())),
        (
            1,
            Value::Int(1),
            Value::Float(-0.0),
            Value::Str("ab".into()),
        ),
        (
            2,
            Value::Int(2),
            Value::Float(f64::NAN),
            Value::Str("b".into()),
        ),
        (3, Value::Null, Value::Null, Value::Null),
        (
            4,
            Value::Int(BIG),
            Value::Float(1.0),
            Value::Str(String::new()),
        ),
        (
            5,
            Value::Int(BIG + 1),
            Value::Float(1.0 + f64::EPSILON),
            Value::Str("ac".into()),
        ),
        (6, Value::Int(3), Value::Float(0.5), Value::Str("a".into())),
        (7, Value::Int(3), Value::Float(2.0), Value::Null),
    ];
    for (id, grp, score, name) in people {
        db.insert("person", vec![Value::Int(id), grp, score, name])
            .unwrap();
    }
    let visits: Vec<(i64, Value, Value)> = vec![
        (0, Value::Int(1), Value::Float(0.0)),
        (1, Value::Int(1), Value::Float(-0.0)),
        (2, Value::Int(2), Value::Float(f64::NAN)),
        (3, Value::Null, Value::Float(1.0)),
        (4, Value::Int(6), Value::Null),
        (5, Value::Int(99), Value::Float(0.5)),
    ];
    for (vid, pid, amount) in visits {
        db.insert("visit", vec![Value::Int(vid), pid, amount])
            .unwrap();
    }
    db
}

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/exec_diff");

/// The SQL statements of a corpus file: one per line, `#` comments allowed.
fn statements(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// Each `JOIN ... ON` statement of `on_equals_where.sql` returns the rows of
/// the comma-join `WHERE` twin that follows it, in the same order, on both
/// engines.
#[test]
fn on_where_twins_agree() {
    let db = regression_db();
    let text = std::fs::read_to_string(format!("{CORPUS}/on_equals_where.sql")).unwrap();
    let sqls: Vec<&str> = statements(&text).collect();
    assert!(
        sqls.len() >= 6 && sqls.len().is_multiple_of(2),
        "{} statements",
        sqls.len()
    );
    for pair in sqls.chunks(2) {
        let (on, wh) = (parse_query(pair[0]).unwrap(), parse_query(pair[1]).unwrap());
        for engine in [Engine::Columnar, Engine::Oracle] {
            let a = execute_query_with(&db, &on, engine).unwrap();
            let b = execute_query_with(&db, &wh, engine).unwrap();
            assert_eq!(a.rows, b.rows, "{engine:?}: {}", pair[0]);
        }
    }
}

/// GROUP BY, DISTINCT, set ops and `count(DISTINCT ..)` group values the
/// way `=` compares them: the two zeros (`person.score` of ids 0 and 1) are
/// one value, and 2^53 and 2^53 + 1 (`person.grp` of ids 4 and 5) are two.
/// Both engines share one grouping routine, so `check_agreement` cannot
/// see a wrong key; the rows are asserted directly.
#[test]
fn grouping_follows_sql_equality() {
    let db = regression_db();
    let zeros = "FROM person WHERE score < 0.5";
    let bigs = "FROM person WHERE grp > 3";
    for engine in [Engine::Columnar, Engine::Oracle] {
        let run = |sql: &str| {
            let q = parse_query(sql).unwrap();
            execute_query_with(&db, &q, engine).unwrap().rows
        };
        let distinct = run(&format!("SELECT DISTINCT score {zeros}"));
        assert_eq!(distinct.len(), 1, "{engine:?}: {distinct:?}");
        assert!(
            matches!(distinct[0][0], Value::Float(z) if z.to_bits() == 0),
            "{engine:?}: the first zero, +0.0, represents the group"
        );
        assert_eq!(
            run(&format!("SELECT grp, count(*) {bigs} GROUP BY grp")),
            [
                [Value::Int(BIG), Value::Int(1)],
                [Value::Int(BIG + 1), Value::Int(1)]
            ],
            "{engine:?}"
        );
        assert_eq!(
            run(&format!("SELECT count(DISTINCT score) {zeros}")),
            [[Value::Int(1)]],
            "{engine:?}"
        );
        assert_eq!(
            run(&format!("SELECT count(DISTINCT grp) {bigs}")),
            [[Value::Int(2)]],
            "{engine:?}"
        );
        let union = run(
            "SELECT score FROM person WHERE id = 0 UNION SELECT score FROM person WHERE id = 1",
        );
        assert_eq!(union.len(), 1, "{engine:?}: {union:?}");
    }
}

/// Replay the committed shrunk-regression corpus (one SQL statement per
/// line, `#` comments allowed) against the fixed regression database.
#[test]
fn committed_corpus_replays_clean() {
    let db = regression_db();
    let mut n = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(CORPUS)
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    for path in entries {
        if path.extension().map(|e| e != "sql").unwrap_or(true) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for sql in statements(&text) {
            if let Err(msg) = check_sql(&db, sql) {
                panic!("{}: {msg}", path.display());
            }
            n += 1;
        }
    }
    assert!(n >= 10, "corpus unexpectedly small: {n} queries");
}
