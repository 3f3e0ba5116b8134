//! Domain-word masking for masked-question similarity (MQS / DAIL selection).
//!
//! DAIL-SQL masks domain-specific tokens (table names, column names, values)
//! in questions before computing similarity, so that selection keys on the
//! question's *intent* rather than its domain vocabulary. The masker takes
//! the set of domain terms known from the schema (plus literal values) and
//! replaces occurrences with `<mask>`.

use std::collections::HashSet;

/// Masks domain-specific words in questions.
#[derive(Debug, Clone, Default)]
pub struct DomainMasker {
    terms: HashSet<String>,
}

/// The placeholder inserted for masked tokens.
pub const MASK: &str = "<mask>";

impl DomainMasker {
    /// Build a masker from an iterator of domain terms (table names, column
    /// names, cell values...). Multi-word terms are split: each word masks
    /// independently, which matches how questions mention schema elements.
    pub fn new<I, S>(terms: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut set = HashSet::new();
        for term in terms {
            for word in term
                .as_ref()
                .to_lowercase()
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty() && !STOPWORDS.contains(w))
            {
                set.insert(word.to_string());
                // Naive singular/plural bridging so "singers" masks when the
                // schema says "singer".
                if let Some(stem) = word.strip_suffix('s') {
                    if stem.len() >= 3 {
                        set.insert(stem.to_string());
                    }
                } else if word.len() >= 3 {
                    set.insert(format!("{word}s"));
                }
            }
        }
        DomainMasker { terms: set }
    }

    /// Mask a question: domain words and numeric/quoted literals become
    /// [`MASK`].
    pub fn mask(&self, question: &str) -> String {
        let mut out: Vec<String> = Vec::new();
        for raw in question.split_whitespace() {
            let word: String = raw
                .chars()
                .filter(|c| c.is_alphanumeric() || *c == '_')
                .collect::<String>()
                .to_lowercase();
            let is_number = !word.is_empty() && word.chars().all(|c| c.is_ascii_digit());
            if is_number || self.terms.contains(&word) {
                out.push(MASK.to_string());
            } else {
                out.push(raw.to_lowercase());
            }
        }
        out.join(" ")
    }
}

/// Words never treated as domain terms even if a schema coincidentally uses
/// them (e.g. a column literally named "name" still reads as intent).
const STOPWORDS: &[&str] = &[
    "the", "a", "an", "of", "in", "on", "at", "to", "and", "or", "id",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn masker() -> DomainMasker {
        DomainMasker::new(["singer", "concert", "stadium_capacity", "France"])
    }

    #[test]
    fn masks_schema_words() {
        let m = masker();
        assert_eq!(
            m.mask("How many singers are there"),
            "how many <mask> are there"
        );
    }

    #[test]
    fn masks_multiword_terms_by_word() {
        let m = masker();
        let s = m.mask("what is the stadium capacity");
        assert_eq!(s, "what is the <mask> <mask>");
    }

    #[test]
    fn masks_numbers_and_values() {
        let m = masker();
        assert_eq!(m.mask("singers older than 40"), "<mask> older than <mask>");
        assert_eq!(m.mask("from France please"), "from <mask> please");
    }

    #[test]
    fn masked_questions_with_same_intent_converge() {
        let m1 = DomainMasker::new(["singer", "age"]);
        let m2 = DomainMasker::new(["teacher", "salary"]);
        let a = m1.mask("How many singers are there");
        let b = m2.mask("How many teachers are there");
        assert_eq!(a, b, "intent-equal questions should mask identically");
    }

    #[test]
    fn plural_bridging() {
        let m = DomainMasker::new(["song"]);
        assert_eq!(m.mask("list all songs"), "list all <mask>");
    }

    #[test]
    fn stopwords_survive() {
        let m = DomainMasker::new(["the", "of"]);
        assert_eq!(m.mask("the name of it"), "the name of it");
    }
}
