# Differential regressions for the columnar engine's subquery memo: a
# subquery whose run read no outer row is run once per statement, every
# other one once per outer row, as the interpreter runs them all. Replayed
# by crates/storage/tests/exec_differential.rs against the fixed regression
# database (see regression_db() there; `tag` is empty). One statement per line.

# Unqualified outer references: `id` and `grp` resolve only in the outer row.
SELECT id FROM person WHERE EXISTS (SELECT 1 FROM visit WHERE person_id = id) ORDER BY id ASC
SELECT id FROM person WHERE score > (SELECT avg(amount) FROM visit WHERE person_id = grp) ORDER BY id ASC

# Skip-level correlation: the innermost subquery reads the outermost row, so
# the middle subquery must count as correlated too (its run read A through
# the innermost one).
SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM person AS B WHERE B.grp IN (SELECT person_id FROM visit AS V WHERE V.person_id = A.id)) ORDER BY id ASC
SELECT id FROM person AS A WHERE NOT EXISTS (SELECT 1 FROM person AS B WHERE B.grp IN (SELECT person_id FROM visit AS V WHERE V.person_id = A.id)) ORDER BY id ASC

# Correlated to the middle level only: the middle subquery reads no row of
# A and runs once; its inner EXISTS still runs once per row of B.
SELECT id FROM person AS A WHERE A.grp IN (SELECT B.grp FROM person AS B WHERE EXISTS (SELECT 1 FROM visit AS V WHERE V.person_id = B.id)) ORDER BY id ASC
SELECT id FROM person AS A WHERE A.grp IN (SELECT B.grp FROM person AS B WHERE NOT EXISTS (SELECT 1 FROM visit AS V WHERE V.person_id = B.id)) ORDER BY id ASC

# HAVING: correlated to the group's row, uncorrelated, and over the empty
# global group (which pushes no outer row at all).
SELECT grp, count(*) FROM person AS P GROUP BY grp HAVING count(*) >= (SELECT count(*) FROM visit WHERE visit.person_id = P.grp) ORDER BY grp ASC
SELECT grp, max(score) FROM person GROUP BY grp HAVING grp IN (SELECT person_id FROM visit) ORDER BY grp ASC
SELECT count(*) FROM person WHERE grp > 100 HAVING count(*) < (SELECT count(*) FROM visit)

# Subqueries some rows never reach: behind AND / OR short-circuit, and behind
# a NULL left operand of IN (person 3 has grp NULL).
SELECT id FROM person WHERE grp = 3 AND score > (SELECT avg(amount) FROM visit WHERE amount >= 0.0) ORDER BY id ASC
SELECT id FROM person WHERE grp = 1 OR id IN (SELECT person_id FROM visit) ORDER BY id ASC
SELECT id FROM person AS A WHERE grp = 1 OR EXISTS (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC
SELECT id FROM person WHERE grp IN (SELECT person_id FROM visit WHERE amount > 0.0) ORDER BY id ASC

# Uncorrelated subqueries that error: two columns where one is needed, and
# an unknown column.
SELECT id FROM person WHERE grp IN (SELECT person_id, amount FROM visit)
SELECT id FROM person WHERE score > (SELECT vid, amount FROM visit)
SELECT id FROM person WHERE grp IN (SELECT nope FROM visit)
SELECT id FROM person WHERE grp IN (SELECT nope FROM tag)

# Over the empty tag table: an empty result stays empty for every outer row,
# correlated or not.
SELECT id FROM person WHERE grp NOT IN (SELECT tid FROM tag) ORDER BY id ASC
SELECT id FROM person AS A WHERE NOT EXISTS (SELECT 1 FROM tag WHERE tag.label = A.name) ORDER BY id ASC
SELECT id FROM person WHERE score > (SELECT max(tid) FROM tag)

# NOT IN over a NULL-bearing subquery is never true.
SELECT id FROM person WHERE grp NOT IN (SELECT person_id FROM visit) ORDER BY id ASC

# Inside a derived table, uncorrelated and correlated, and a derived table
# inside a correlated subquery.
SELECT T.id FROM (SELECT id, grp FROM person WHERE grp IN (SELECT person_id FROM visit)) AS T ORDER BY T.id ASC
SELECT T.id FROM (SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM visit WHERE visit.person_id = A.id)) AS T
SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM (SELECT person_id FROM visit WHERE person_id = A.id) AS D) ORDER BY id ASC
