# ON a = b means what WHERE a = b means: `sql_cmp` equality, each column
# resolved to its first occurrence in the combined scope. Each JOIN ... ON
# line is followed by its comma-join WHERE twin, which must return the same
# rows in the same order on both engines (`on_where_twins_agree`). Replayed
# by crates/storage/tests/exec_differential.rs against the fixed regression
# database (see regression_db() there). One statement per line.

# Signed zeros: -0.0 joins 0.0. The derived tables keep NaN out of the keys,
# so both engines run the interpreter's hash join.
SELECT A.id, B.vid FROM (SELECT id, score FROM person WHERE score > -1.0 AND score < 0.5) AS A JOIN (SELECT vid, amount FROM visit WHERE amount > -1.0 AND amount < 0.5) AS B ON A.score = B.amount
SELECT A.id, B.vid FROM (SELECT id, score FROM person WHERE score > -1.0 AND score < 0.5) AS A, (SELECT vid, amount FROM visit WHERE amount > -1.0 AND amount < 0.5) AS B WHERE A.score = B.amount

# NaN joins every number: the interpreter's join takes the nested loop.
SELECT A.id, B.vid FROM (SELECT id, score FROM person WHERE id = 2) AS A JOIN visit AS B ON A.score = B.amount
SELECT A.id, B.vid FROM (SELECT id, score FROM person WHERE id = 2) AS A, visit AS B WHERE A.score = B.amount

# The same over base tables: the columnar planner's NaN loop fallback.
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.score = T2.amount
SELECT T1.id, T2.vid FROM person AS T1, visit AS T2 WHERE T1.score = T2.amount

# 2^53 and 2^53 + 1 share an f64 image but are different integers: the hash
# key only prefilters, and the candidate fails re-verification.
SELECT A.id, B.id FROM (SELECT id, grp FROM person WHERE id = 4) AS A JOIN (SELECT id, grp FROM person WHERE id = 5) AS B ON A.grp = B.grp
SELECT A.id, B.id FROM (SELECT id, grp FROM person WHERE id = 4) AS A, (SELECT id, grp FROM person WHERE id = 5) AS B WHERE A.grp = B.grp
SELECT A.id, B.id FROM person AS A JOIN person AS B ON A.grp = B.grp
SELECT A.id, B.id FROM person AS A, person AS B WHERE A.grp = B.grp
