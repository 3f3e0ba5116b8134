# Differential regressions for empty results and empty groups, where the
# executor has no row to evaluate a select list or a subquery's outer
# reference on. Replayed by crates/storage/tests/exec_differential.rs
# against the fixed regression database. One statement per line.

# A column that resolves nowhere fails even when the filter selects nothing:
# the zero-row column-name probe reports it, as any row would.
SELECT nope FROM person WHERE grp > 100
SELECT nope FROM person WHERE grp > 0
SELECT grp, nope FROM person WHERE grp > 100 GROUP BY grp
SELECT id FROM person WHERE grp IN (SELECT nope FROM tag)

# A subquery of the empty global group reads its outer row as NULLs.
SELECT count(*) FROM person AS S WHERE grp > 100 HAVING count(*) < (SELECT count(*) FROM visit AS C WHERE C.person_id = S.id)
SELECT count(*) FROM person AS S WHERE grp > 100 HAVING count(*) < (SELECT count(*) FROM visit AS C WHERE S.id IS NULL)

# The same subquery reads a real row for a person with visits and the NULL
# row for one without: it is correlated either way, so it is never memoized.
SELECT id FROM person AS A WHERE EXISTS (SELECT count(*) FROM visit AS V WHERE V.person_id = A.id HAVING count(*) < (SELECT count(*) FROM person AS P WHERE V.vid IS NULL)) ORDER BY id ASC
