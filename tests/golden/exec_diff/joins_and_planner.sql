# Shrunk differential regressions: planner decisions that must never change
# results — pushdown, join reorder, exact-key hashing.

# 2^53 neighbors collide as f64 hash-prefilter keys; candidates must be
# re-verified with exact comparison.
SELECT id FROM person WHERE grp = 9007199254740992
SELECT id FROM person WHERE grp IN (9007199254740992, 9007199254740993) ORDER BY id ASC

# Self-join on a column holding 2^53-band values and NULLs.
SELECT A.id, B.id FROM person AS A JOIN person AS B ON A.grp = B.grp ORDER BY A.id ASC, B.id ASC

# WHERE equi-edge across tables becomes a join key during planning.
SELECT count(*) FROM person AS A JOIN visit AS B ON A.id = B.person_id WHERE A.grp = B.vid

# Join against an empty table (tag has no rows in the regression db).
SELECT count(*) FROM person AS A JOIN tag AS C ON A.grp = C.tid

# Pushdown + safe residual split: grp is pushable, the arithmetic is not.
SELECT id FROM person WHERE grp = 3 AND score * 2 > 1.0 ORDER BY id ASC

# Unsafe conjunct (subquery) forces full row-wise WHERE with no pushdown.
SELECT id FROM person WHERE grp IN (SELECT person_id FROM visit) AND grp = 1

# Join reorder must not change output order (reference order is restored).
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id WHERE T2.amount > 0.0 ORDER BY T1.id ASC, T2.vid ASC

# Range and BETWEEN shapes pushed as kernels.
SELECT id FROM person WHERE grp BETWEEN 1 AND 3 ORDER BY id ASC
SELECT id FROM person WHERE grp >= 2 AND grp < 9007199254740993 ORDER BY id ASC

# LIKE with a bare wildcard keeps all non-null names.
SELECT id FROM person WHERE name LIKE '%' ORDER BY id ASC

# Grouped join with HAVING, after reorder.
SELECT grp, count(*) FROM person GROUP BY grp HAVING count(*) >= 2 ORDER BY grp ASC

# Correlated EXISTS / NOT EXISTS stay on the interpreter path but share
# the columnar outer scan.
SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC
SELECT id FROM person AS A WHERE NOT EXISTS (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC

# No outer ORDER BY: raw row order must match the reference engine exactly
# (order restoration after join reorder); LIMIT and DISTINCT observe it.
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id LIMIT 2
SELECT DISTINCT T1.grp FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id
SELECT T1.grp, count(*) FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id GROUP BY T1.grp
