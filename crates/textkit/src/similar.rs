//! Character edit distance. The Levenshtein core keeps a single row plus a
//! diagonal temporary rather than two full rows.

/// Character-level Levenshtein distance, case-insensitive (both inputs are
/// lowercased first). Used by the storage executor to suggest near-miss
/// column names in unknown-column errors.
pub fn edit_distance(a: &str, b: &str) -> usize {
    let ca: Vec<char> = a.to_lowercase().chars().collect();
    let cb: Vec<char> = b.to_lowercase().chars().collect();
    levenshtein(&ca, &cb)
}

/// Levenshtein distance with one reused row: `row[j]` holds the previous
/// row's value until the inner loop overwrites it, and `diag` carries the
/// value that was at `row[j]` before the overwrite (the ↖ neighbor).
fn levenshtein<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ta) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, tb) in b.iter().enumerate() {
            let up = row[j + 1];
            let cost = usize::from(ta != tb);
            row[j + 1] = (diag + cost).min(up + 1).min(row[j] + 1);
            diag = up;
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_row_levenshtein_matches_textbook_cases() {
        fn d(a: &str, b: &str) -> usize {
            let wa: Vec<char> = a.chars().collect();
            let wb: Vec<char> = b.chars().collect();
            levenshtein(&wa, &wb)
        }
        assert_eq!(d("", ""), 0);
        assert_eq!(d("abc", ""), 3);
        assert_eq!(d("", "abc"), 3);
        assert_eq!(d("kitten", "sitting"), 3);
        assert_eq!(d("flaw", "lawn"), 2);
        assert_eq!(d("same", "same"), 0);
    }

    #[test]
    fn char_edit_distance_matches_textbook_cases() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("Name", "name"), 0);
        assert_eq!(edit_distance("", "ab"), 2);
        assert_eq!(edit_distance("singer_id", "singerid"), 1);
    }
}
