//! Deterministic BPE-style tokenizer approximating GPT token counts.
//!
//! The paper's token-efficiency analysis needs a *consistent, monotone*
//! measure of prompt length in "API tokens". Real tiktoken vocabularies are
//! not available offline, so this tokenizer reproduces the statistical
//! behaviour that matters for the comparison:
//!
//! * whitespace is folded into the following word (GPT-style ` word` units);
//! * short common words are single tokens;
//! * longer words split into roughly 4-character subword pieces;
//! * punctuation and SQL operators are standalone tokens;
//! * digit runs split into groups of up to three digits.
//!
//! On English+SQL text this lands close to the usual "~4 characters per
//! token" rule while preserving the relative ordering between prompt styles,
//! which is all the efficiency experiments compare.
//!
//! [`Tokenizer::count`] is one pass over the text: it finds each word and
//! counts the word's pieces arithmetically, building no token string. The
//! allocating encoder that defines the pieces lives in this module's tests
//! as `encode_spec`, and a property test holds the count to it.

/// A tokenizer with a small built-in vocabulary of common whole-word tokens.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

/// Words kept whole regardless of length (frequent English + SQL words that
/// real BPE vocabularies encode as single tokens).
const WHOLE_WORDS: &[&str] = &[
    "select",
    "from",
    "where",
    "group",
    "order",
    "having",
    "limit",
    "join",
    "distinct",
    "count",
    "table",
    "database",
    "question",
    "answer",
    "query",
    "schema",
    "columns",
    "column",
    "primary",
    "foreign",
    "key",
    "create",
    "insert",
    "values",
    "between",
    "the",
    "and",
    "not",
    "with",
    "that",
    "what",
    "which",
    "show",
    "find",
    "list",
    "return",
    "their",
    "there",
    "number",
    "names",
    "name",
    "average",
    "maximum",
    "minimum",
    "total",
    "more",
    "than",
    "less",
    "each",
    "all",
    "for",
    "are",
    "how",
    "many",
    "please",
    "give",
    "sqlite",
    "sql",
    "complete",
    "only",
    "explanation",
    "instruction",
    "response",
    "example",
    "examples",
    "translate",
    "into",
];

impl Tokenizer {
    /// Create the default tokenizer.
    pub fn new() -> Self {
        Tokenizer
    }

    /// Count tokens in a text, in one pass and without building a token.
    pub fn count(&self, text: &str) -> usize {
        let mut n = 0;
        let mut word_start = None;
        let mut chars = text.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if c.is_alphanumeric() || c == '_' {
                word_start.get_or_insert(i);
                continue;
            }
            if let Some(s) = word_start.take() {
                n += word_tokens(&text[s..i]);
            }
            if c.is_whitespace() {
                // Whitespace folds into the next token; a run of blank
                // lines still costs one token each additional newline.
                if c == '\n' && matches!(chars.peek(), Some((_, '\n'))) {
                    n += 1;
                }
            } else {
                n += 1;
            }
        }
        if let Some(s) = word_start {
            n += word_tokens(&text[s..]);
        }
        n
    }
}

/// Tokens in one word: digit runs in groups of 3, snake_case split at each
/// `_` (a token itself), words up to 6 bytes whole, longer words whole when
/// in [`WHOLE_WORDS`] and in 4-character pieces otherwise.
///
/// The spec tests short words and [`WHOLE_WORDS`] first. No whole word is a
/// digit run or holds a `_`, and a word of up to 6 bytes is one token
/// either way, so only longer words need the list.
fn word_tokens(word: &str) -> usize {
    if word.len() <= 3 {
        return 1;
    }
    if word.bytes().all(|b| b.is_ascii_digit()) {
        return word.len().div_ceil(3);
    }
    if word.contains('_') {
        let underscores = word.bytes().filter(|&b| b == b'_').count();
        let parts: usize = word
            .split('_')
            .filter(|part| !part.is_empty())
            .map(word_tokens)
            .sum();
        return underscores + parts;
    }
    if word.len() <= 6 || is_whole_word(word) {
        return 1;
    }
    word.chars().count().div_ceil(4)
}

/// Bit `f` of entry `len` is set when a [`WHOLE_WORDS`] entry has `len`
/// bytes and starts with letter `b'a' + f`. Most words miss it, so the list
/// is scanned for few of them. An entry too long for the table fails the
/// build.
const WHOLE_WORD_SHAPES: [u32; 12] = {
    let mut shapes = [0u32; 12];
    let mut i = 0;
    while i < WHOLE_WORDS.len() {
        let w = WHOLE_WORDS[i].as_bytes();
        shapes[w.len()] |= 1 << (w[0] - b'a');
        i += 1;
    }
    shapes
};

/// Whether a word's lowercase form is in [`WHOLE_WORDS`]. An ASCII word
/// lowercases byte by byte; any other word goes through
/// [`str::to_lowercase`], since a non-ASCII letter may lowercase to ASCII
/// (U+212A KELVIN SIGN to `k`).
fn is_whole_word(word: &str) -> bool {
    if !word.is_ascii() {
        return WHOLE_WORDS.contains(&word.to_lowercase().as_str());
    }
    let Some(first) = word.bytes().next() else {
        return false;
    };
    let letter = first.to_ascii_lowercase().wrapping_sub(b'a');
    let shapes = WHOLE_WORD_SHAPES.get(word.len()).copied().unwrap_or(0);
    letter < 26
        && shapes & (1 << letter) != 0
        && WHOLE_WORDS.iter().any(|w| w.eq_ignore_ascii_case(word))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The original allocating encoder, kept verbatim as the specification
    /// [`Tokenizer::count`] must equal token for token.
    fn encode_spec(text: &str) -> Vec<String> {
        let mut out = Vec::with_capacity(text.len() / 4 + 1);
        let mut chars = text.chars().peekable();
        let mut word = String::new();
        let flush_word = |w: &mut String, out: &mut Vec<String>| {
            if w.is_empty() {
                return;
            }
            split_word(w, out);
            w.clear();
        };
        while let Some(c) = chars.next() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else {
                flush_word(&mut word, &mut out);
                if c.is_whitespace() {
                    // Whitespace folds into the next token; a run of blank
                    // lines still costs one token each additional newline.
                    if c == '\n' && chars.peek() == Some(&'\n') {
                        out.push("\\n".to_string());
                    }
                } else {
                    out.push(c.to_string());
                }
            }
        }
        flush_word(&mut word, &mut out);
        out
    }

    fn split_word(word: &str, out: &mut Vec<String>) {
        let lower = word.to_lowercase();
        if word.len() <= 3 || WHOLE_WORDS.contains(&lower.as_str()) {
            out.push(word.to_string());
            return;
        }
        if word.chars().all(|c| c.is_ascii_digit()) {
            // Digit runs: groups of up to 3.
            let bytes = word.as_bytes();
            for chunk in bytes.chunks(3) {
                out.push(String::from_utf8_lossy(chunk).to_string());
            }
            return;
        }
        // snake_case splits at underscores first (identifiers in schemas).
        if word.contains('_') {
            for (i, part) in word.split('_').enumerate() {
                if i > 0 {
                    out.push("_".to_string());
                }
                if !part.is_empty() {
                    split_word(part, out);
                }
            }
            return;
        }
        // Otherwise ~4-char BPE-ish pieces; common-length English words (up to
        // 6 chars) stay whole, mirroring real BPE vocabularies.
        if word.len() <= 6 {
            out.push(word.to_string());
            return;
        }
        let chars: Vec<char> = word.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let take = (chars.len() - i).min(4);
            out.push(chars[i..i + take].iter().collect());
            i += take;
        }
    }

    /// Characters that stress each branch of the count: both ASCII cases,
    /// digits, `_`, punctuation, the whitespace the newline rule reads, and
    /// non-ASCII letters whose lowercase differs in length or lands in
    /// ASCII (U+212A KELVIN SIGN), a non-ASCII digit and a CJK character.
    const ATOMS: &[&str] = &[
        "a", "e", "k", "y", "Z", "Q", "0", "7", "9", "_", "(", ",", ".", "'", "*", "=", " ", "\n",
        "\r", "\u{212A}", "\u{0130}", "ß", "é", "Σ", "²", "中",
    ];

    /// A piece of text: an atom, or a [`WHOLE_WORDS`] entry in random case.
    fn piece() -> impl Strategy<Value = String> {
        prop_oneof![
            3 => (0..ATOMS.len()).prop_map(|i| ATOMS[i].to_string()),
            1 => (0..WHOLE_WORDS.len(), any::<u64>()).prop_map(|(i, case)| {
                WHOLE_WORDS[i]
                    .chars()
                    .enumerate()
                    .map(|(j, c)| if (case >> (j % 64)) & 1 == 1 { c.to_ascii_uppercase() } else { c })
                    .collect()
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn count_equals_the_spec_encoding(pieces in proptest::collection::vec(piece(), 0..40)) {
            let text = pieces.concat();
            prop_assert_eq!(Tokenizer::new().count(&text), encode_spec(&text).len(), "text {:?}", text);
        }
    }

    #[test]
    fn kelvin_sign_word_is_one_whole_word_token() {
        // 5 bytes, but it lowercases to "key"; only the non-ASCII path of
        // the whole-word test sees that, since a 5-byte word is one token
        // either way.
        assert!(is_whole_word("\u{212A}EY"));
        assert_eq!(encode_spec("\u{212A}EY"), vec!["\u{212A}EY"]);
        assert_eq!(Tokenizer::new().count("\u{212A}EY"), 1);
    }

    #[test]
    fn every_whole_word_is_whole_in_any_case() {
        for w in WHOLE_WORDS {
            assert!(is_whole_word(w), "{w}");
            assert!(is_whole_word(&w.to_uppercase()), "{w}");
            assert!(!is_whole_word(&format!("{w}s_")), "{w}");
        }
        assert!(!is_whole_word(""));
    }

    #[test]
    fn short_words_are_single_tokens() {
        let t = Tokenizer::new();
        assert_eq!(t.count("the cat"), 2);
    }

    #[test]
    fn sql_keywords_single_tokens() {
        let t = Tokenizer::new();
        assert_eq!(t.count("SELECT name FROM singer"), 4);
    }

    #[test]
    fn long_words_split() {
        let t = Tokenizer::new();
        assert!(t.count("internationalization") >= 4);
    }

    #[test]
    fn snake_case_splits_at_underscores() {
        let t = Tokenizer::new();
        let toks = encode_spec("singer_id");
        assert_eq!(t.count("singer_id"), toks.len());
        assert!(toks.contains(&"_".to_string()));
        assert!(toks.len() >= 3);
    }

    #[test]
    fn punctuation_is_tokenized() {
        let t = Tokenizer::new();
        // ( . , ) each one token + two words
        assert_eq!(t.count("(a, b.c)"), 7);
    }

    #[test]
    fn count_is_monotone_in_concatenation() {
        let t = Tokenizer::new();
        let a = "What is the average age of all singers from France?";
        let b = "SELECT avg(age) FROM singer WHERE country = 'France'";
        assert!(t.count(&format!("{a}\n{b}")) >= t.count(a));
        assert!(t.count(&format!("{a}\n{b}")) >= t.count(b));
    }

    #[test]
    fn roughly_four_chars_per_token_on_prose() {
        let t = Tokenizer::new();
        let text = "Show the name and the release year of the song by the youngest singer in the database.";
        let n = t.count(text);
        let ratio = text.len() as f64 / n as f64;
        assert!((2.5..=6.5).contains(&ratio), "ratio {ratio} tokens {n}");
    }

    #[test]
    fn empty_text_has_zero_tokens() {
        assert_eq!(Tokenizer::new().count(""), 0);
    }

    #[test]
    fn digit_runs_group_by_three() {
        let t = Tokenizer::new();
        assert_eq!(encode_spec("1234567"), vec!["123", "456", "7"]);
        assert_eq!(t.count("1234567"), 3);
    }
}
