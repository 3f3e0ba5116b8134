//! Schema linking: matching question words to tables and columns recovered
//! from the prompt.
//!
//! Linking quality is where question phrasing meets representation quality:
//! explicit column mentions (standard Spider questions) link reliably;
//! Spider-Realistic paraphrases do not, and the model falls back to
//! heuristics — reproducing the paper's accuracy drop on Spider-Realistic
//! without any hard-coding.
//!
//! A [`Linker`] serves one sample. Building it splits the question, looks
//! up each question word's lexicon partners and scores every table; the
//! first query that reads a table scores that table's columns. Every later
//! query reads those facts, and comparing two words allocates nothing. The
//! allocating linker this replaced is kept in the tests as the
//! specification the facts must equal.

use crate::comprehend::{ParsedPrompt, ParsedTable};
use std::cell::OnceCell;

/// The words of an already-lowercased identifier or phrase: its runs of
/// alphanumeric characters.
fn lower_words(lower: &str) -> impl Iterator<Item = &str> {
    lower
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// World-knowledge lexicon: question words that evoke schema words even when
/// the column name is never mentioned. This is the model's pretrained
/// lexical knowledge — it is what keeps the Spider-Realistic accuracy drop
/// moderate for strong models (they resolve "how old" → `age`).
const SYNONYMS: &[(&str, &str)] = &[
    ("old", "age"),
    ("older", "age"),
    ("oldest", "age"),
    ("young", "age"),
    ("youngest", "age"),
    ("fit", "capacity"),
    ("opened", "opening"),
    ("attended", "attendance"),
    ("watched", "attendance"),
    ("heavy", "weight"),
    ("heaviest", "weight"),
    ("born", "birth"),
    ("aircraft", "fleet"),
    ("high", "elevation"),
    ("far", "distance"),
    ("cost", "price"),
    ("costs", "price"),
    ("spend", "budget"),
    ("earn", "salary"),
    ("earns", "salary"),
    ("paid", "salary"),
    ("called", "name"),
    ("earned", "gross"),
    ("borrowed", "member"),
    ("food", "cuisine"),
    ("rated", "rating"),
    ("filling", "calories"),
    ("scored", "goals"),
    ("registered", "signup"),
    ("available", "stock"),
    ("worked", "experience"),
    ("sleep", "bedrooms"),
    ("teach", "department"),
    ("students", "enrollment"),
    ("treat", "specialty"),
    ("suffer", "condition"),
    ("came", "visitors"),
    ("builds", "maker"),
    ("powerful", "horsepower"),
    ("copies", "sales"),
    ("sold", "sales"),
    ("luxurious", "stars"),
    ("staying", "guest"),
    ("stay", "nights"),
    ("pay", "price"),
    ("runs", "owner"),
    ("grown", "crop"),
    ("ran", "seasons"),
    ("popular", "viewers"),
    ("covers", "field"),
    ("attend", "attendees"),
    ("influential", "citations"),
    ("month", "monthly"),
    ("joined", "join"),
    ("started", "debut"),
    ("big", "capacity"),
    ("published", "publish"),
    ("located", "city"),
    ("live", "city"),
    ("lives", "city"),
    ("based", "country"),
    ("come", "country"),
    ("large", "capacity"),
    ("biggest", "capacity"),
    ("largest", "capacity"),
];

/// A candidate base form of a word: `stem`, followed by a `y` when `y` is
/// set, so a de-pluralization never allocates.
#[derive(Debug, Clone, Copy)]
struct Form<'w> {
    stem: &'w str,
    y: bool,
}

impl PartialEq for Form<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self.y, other.y) {
            (true, false) => other.stem.strip_suffix('y') == Some(self.stem),
            (false, true) => self.stem.strip_suffix('y') == Some(other.stem),
            _ => self.stem == other.stem,
        }
    }
}

/// Candidate base forms of a word: the word itself plus plausible
/// de-pluralizations (singers→singer, dishes→dish, properties→property,
/// movies→movie via the plain `-s` strip).
fn forms(w: &str) -> impl Iterator<Item = Form<'_>> {
    let form = |stem, y| Form { stem, y };
    let ies = w.strip_suffix("ies").filter(|s| s.len() >= 2);
    let es = w.strip_suffix("es").filter(|s| s.len() >= 3);
    let s = w.strip_suffix('s').filter(|s| s.len() >= 3);
    std::iter::once(form(w, false))
        .chain(ies.map(|stem| form(stem, true)))
        .chain(es.map(|stem| form(stem, false)))
        .chain(s.map(|stem| form(stem, false)))
}

/// A question word and the schema words the lexicon says it evokes, in
/// either direction of a [`SYNONYMS`] pair.
struct QuestionWord {
    word: String,
    partners: Vec<&'static str>,
}

impl QuestionWord {
    fn new(word: &str) -> Self {
        let partners = SYNONYMS
            .iter()
            .filter(|&&(q, c)| q == word || c == word)
            .map(|&(q, c)| if q == word { c } else { q })
            .collect();
        QuestionWord {
            word: word.to_string(),
            partners,
        }
    }
}

/// Word equality with plural bridging (singer ↔ singers, dish ↔ dishes,
/// movie ↔ movies, property ↔ properties) and the world-knowledge lexicon
/// (question word evokes schema word).
fn word_eq(q: &QuestionWord, w: &str) -> bool {
    let a = q.word.as_str();
    a == w
        || (a.len() >= 3 && w.len() >= 3 && forms(a).any(|x| forms(w).any(|y| x == y)))
        || q.partners.contains(&w)
}

/// `(hits, words)` over a lowercase name's words, where a word hits when
/// some question word links to it.
fn name_hits(qwords: &[QuestionWord], lower: &str) -> (usize, usize) {
    lower_words(lower).fold((0, 0), |(hits, n), w| {
        let hit = qwords.iter().any(|q| word_eq(q, w));
        (hits + usize::from(hit), n + 1)
    })
}

/// `hits / words`, or 0 for a name with no words.
fn fraction(hits: usize, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        hits as f64 / n as f64
    }
}

/// Whether a lowercase column name reads as an entity's display name.
fn is_display_name(lc: &str) -> bool {
    lc == "name" || lc == "title" || lc.ends_with("_name")
}

/// One table as the linker scored it: the score at construction, the
/// columns' facts on first use.
struct TableFacts {
    score: f64,
    columns: OnceCell<ColumnFacts>,
}

/// Per column of one table: score, lowercase name and id-likeness, and
/// the columns ranked by score.
struct ColumnFacts {
    scores: Vec<f64>,
    lower: Vec<String>,
    idlike: Vec<bool>,
    ranked: Vec<(usize, f64)>,
}

/// Indices ranked by score (desc); the stable sort keeps prompt order on
/// ties.
fn rank(scores: &[f64]) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = scores.iter().copied().enumerate().collect();
    v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    v
}

/// Linker over one parsed prompt and one question.
///
/// One linker serves one sample. [`Linker::new`] lowercases and splits the
/// question once, looks up each question word's lexicon partners once and
/// scores every table. Each table's column facts (score, lowercase name,
/// id-likeness, ranking) are computed on the first query that reads that
/// table and kept for the linker's life, so the decoder's repeated queries
/// read them instead of re-splitting and re-scoring the names.
pub struct Linker<'a> {
    /// The parsed prompt: question, foreign keys and sampled content.
    pub parsed: &'a ParsedPrompt,
    /// The tables in scope, as the model retained them.
    tables: &'a [ParsedTable],
    question: String,
    qwords: Vec<QuestionWord>,
    facts: Vec<TableFacts>,
    ranked_tables: Vec<(usize, f64)>,
}

impl<'a> Linker<'a> {
    /// Build a linker for the target question in the prompt, over `tables`
    /// (the prompt's tables after any attention dropout).
    pub fn new(parsed: &'a ParsedPrompt, tables: &'a [ParsedTable]) -> Self {
        let question = parsed.question.to_lowercase();
        let qwords: Vec<QuestionWord> = lower_words(&question).map(QuestionWord::new).collect();
        let scores: Vec<f64> = tables
            .iter()
            .map(|t| {
                let (hits, n) = name_hits(&qwords, &t.name.to_lowercase());
                fraction(hits, n)
            })
            .collect();
        Linker {
            parsed,
            tables,
            question,
            qwords,
            ranked_tables: rank(&scores),
            facts: scores
                .into_iter()
                .map(|score| TableFacts {
                    score,
                    columns: OnceCell::new(),
                })
                .collect(),
        }
    }

    /// The question, lowercased.
    pub fn question(&self) -> &str {
        &self.question
    }

    /// Table count in scope.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Access a table by index.
    pub fn table(&self, ti: usize) -> &ParsedTable {
        &self.tables[ti]
    }

    /// Table `ti`'s column facts, computed by the first call.
    fn columns(&self, ti: usize) -> &ColumnFacts {
        self.facts[ti].columns.get_or_init(|| {
            let lower: Vec<String> = self.tables[ti]
                .columns
                .iter()
                .map(|c| c.to_lowercase())
                .collect();
            let scores: Vec<f64> = lower
                .iter()
                .map(|lc| {
                    let (hits, n) = name_hits(&self.qwords, lc);
                    let base = fraction(hits, n);
                    if hits == n && n > 1 {
                        base + 0.5
                    } else {
                        base
                    }
                })
                .collect();
            ColumnFacts {
                idlike: lower
                    .iter()
                    .map(|lc| lc == "id" || lc.ends_with("_id"))
                    .collect(),
                ranked: rank(&scores),
                scores,
                lower,
            }
        })
    }

    /// Fraction of the table-name words that occur in the question.
    pub fn table_score(&self, ti: usize) -> f64 {
        self.facts[ti].score
    }

    /// Tables ranked by score (desc), ties keep prompt order.
    pub fn ranked_tables(&self) -> &[(usize, f64)] {
        &self.ranked_tables
    }

    /// Best-scoring table, or 0.
    pub fn best_table(&self) -> usize {
        self.ranked_tables.first().map(|(i, _)| *i).unwrap_or(0)
    }

    /// Column score: fraction of column-name words present in the question
    /// (snake_case split), with a bonus for full multi-word matches.
    pub fn column_score(&self, ti: usize, ci: usize) -> f64 {
        self.columns(ti).scores[ci]
    }

    /// Columns of a table ranked by score (desc).
    pub fn ranked_columns(&self, ti: usize) -> &[(usize, f64)] {
        &self.columns(ti).ranked
    }

    /// Whether a column's name reads as a display name: `name`, `title` or
    /// `*_name`, in any case.
    pub fn is_name_column(&self, ti: usize, ci: usize) -> bool {
        is_display_name(&self.columns(ti).lower[ci])
    }

    /// The column a human would read results by: the best-linked column, or
    /// a "name"/"title" column, or the second column (first is usually the
    /// id).
    pub fn display_column(&self, ti: usize) -> usize {
        let cols = self.columns(ti);
        if let Some(&(ci, score)) = cols.ranked.first() {
            if score > 0.34 && !cols.idlike[ci] {
                return ci;
            }
        }
        if let Some(ci) = cols.lower.iter().position(|lc| is_display_name(lc)) {
            return ci;
        }
        if cols.lower.len() > 1 {
            1
        } else {
            0
        }
    }

    /// Whether a column looks like a key (ids should rarely be projected or
    /// aggregated over).
    pub fn is_idlike(&self, ti: usize, ci: usize) -> bool {
        self.columns(ti).idlike[ci]
    }

    /// Best measure-ish column of a table: prefer question-linked columns,
    /// then (when the representation carried types) numeric columns that are
    /// not keys, then name heuristics.
    pub fn measure_column(&self, ti: usize) -> Option<usize> {
        const MEASURE_HINTS_LOCAL: &[&str] = &[
            "age",
            "year",
            "price",
            "capacity",
            "salary",
            "sales",
            "count",
            "size",
            "weight",
            "amount",
            "total",
            "distance",
            "attendance",
            "budget",
            "fee",
            "rating",
            "pages",
            "goals",
            "stock",
            "gross",
            "credits",
            "visitors",
            "horsepower",
            "msrp",
            "hectares",
            "tons",
            "seasons",
            "viewers",
            "citations",
            "nights",
            "rooms",
            "stars",
            "elevation",
            "enrollment",
            "bedrooms",
            "calories",
            "discount",
            "quantity",
        ];
        let t = &self.tables[ti];
        let cols = self.columns(ti);
        let linked = || {
            cols.ranked
                .iter()
                .filter(|&&(ci, s)| s > 0.34 && !cols.idlike[ci])
                .map(|&(ci, _)| ci)
        };
        // Among question-linked columns, prefer ones that are plausibly
        // numeric (DDL type when available, else a measure-word name).
        for ci in linked() {
            let numeric = t.is_numeric(ci) == Some(true)
                || MEASURE_HINTS_LOCAL
                    .iter()
                    .any(|h| cols.lower[ci].contains(h));
            if numeric {
                return Some(ci);
            }
        }
        // Linked column that at least isn't a display name.
        if let Some(ci) = linked().find(|&ci| !is_display_name(&cols.lower[ci])) {
            return Some(ci);
        }
        // Type info (CR_P only) pins down numeric non-key columns.
        if let Some(ci) =
            (0..t.columns.len()).find(|&ci| t.is_numeric(ci) == Some(true) && !cols.idlike[ci])
        {
            return Some(ci);
        }
        // Name heuristics as a last resort.
        const MEASURE_HINTS: &[&str] = &[
            "age",
            "year",
            "price",
            "capacity",
            "salary",
            "sales",
            "count",
            "size",
            "weight",
            "amount",
            "total",
            "distance",
            "attendance",
            "budget",
            "fee",
            "rating",
            "pages",
            "goals",
            "stock",
            "gross",
            "credits",
            "visitors",
        ];
        cols.lower
            .iter()
            .position(|lc| MEASURE_HINTS.iter().any(|h| lc.contains(h)))
    }

    /// A categorical-ish column: linked non-id column, else a text column
    /// that is not a name/title.
    pub fn category_column(&self, ti: usize) -> Option<usize> {
        let cols = self.columns(ti);
        if let Some(&(ci, score)) = cols.ranked.iter().find(|&&(ci, _)| !cols.idlike[ci]) {
            if score > 0.34 {
                return Some(ci);
            }
        }
        let t = &self.tables[ti];
        for (ci, lc) in cols.lower.iter().enumerate() {
            if cols.idlike[ci] || is_display_name(lc) {
                continue;
            }
            // Prefer known-text columns when types are available.
            match t.is_numeric(ci) {
                Some(false) => return Some(ci),
                Some(true) => continue,
                None => {
                    const CAT_HINTS: &[&str] = &[
                        "country",
                        "city",
                        "genre",
                        "species",
                        "cuisine",
                        "category",
                        "specialty",
                        "condition",
                        "department",
                        "field",
                        "crop",
                        "maker",
                        "address",
                    ];
                    if CAT_HINTS.iter().any(|h| lc.contains(h)) {
                        return Some(ci);
                    }
                }
            }
        }
        None
    }

    /// Name-based join guess: a column in one table that embeds the other
    /// table's name (`singer_id`), or an exactly shared column name.
    pub fn guess_join(&self, ti: usize, tj: usize) -> Option<(String, String)> {
        let ta = &self.tables[ti];
        let tb = &self.tables[tj];
        let a_name = ta.name.to_lowercase();
        let b_name = tb.name.to_lowercase();
        // child.{parent}_id = parent.{parent}_id (or parent's pk-ish column)
        for cb in &tb.columns {
            let lc = cb.to_lowercase();
            if lc.starts_with(&a_name) && lc.ends_with("id") {
                if let Some(ca) = ta.columns.iter().find(|c| c.eq_ignore_ascii_case(cb)) {
                    return Some((ca.clone(), cb.clone()));
                }
            }
        }
        for ca in &ta.columns {
            let lc = ca.to_lowercase();
            if lc.starts_with(&b_name) && lc.ends_with("id") {
                if let Some(cb) = tb.columns.iter().find(|c| c.eq_ignore_ascii_case(ca)) {
                    return Some((ca.clone(), cb.clone()));
                }
            }
        }
        // Shared column name that looks like a key.
        for ca in &ta.columns {
            if ca.to_lowercase().ends_with("id") {
                if let Some(cb) = tb.columns.iter().find(|c| c.eq_ignore_ascii_case(ca)) {
                    return Some((ca.clone(), cb.clone()));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comprehend::parse_prompt;
    use promptkit::{render_prompt, QuestionRepr, ReprOptions};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use spider_gen::{all_domains, Benchmark, BenchmarkConfig};

    /// The allocating linker the fast one replaced, kept verbatim as the
    /// specification every score, ranking and column choice must equal.
    mod spec {
        use super::super::SYNONYMS;
        use crate::comprehend::{ParsedPrompt, ParsedTable};

        /// Split an identifier or phrase into lowercase words.
        pub fn split_words(s: &str) -> Vec<String> {
            s.to_lowercase()
                .split(|c: char| !c.is_alphanumeric())
                .filter(|w| !w.is_empty())
                .map(|w| w.to_string())
                .collect()
        }

        /// Candidate base forms of a word: the word itself plus plausible
        /// de-pluralizations (singers→singer, dishes→dish, properties→property,
        /// movies→movie via the plain `-s` strip).
        fn forms(w: &str) -> Vec<String> {
            let mut out = vec![w.to_string()];
            if let Some(stem) = w.strip_suffix("ies") {
                if stem.len() >= 2 {
                    out.push(format!("{stem}y"));
                }
            }
            if let Some(stem) = w.strip_suffix("es") {
                if stem.len() >= 3 {
                    out.push(stem.to_string());
                }
            }
            if let Some(stem) = w.strip_suffix('s') {
                if stem.len() >= 3 {
                    out.push(stem.to_string());
                }
            }
            out
        }

        /// Word equality with plural bridging (singer ↔ singers, dish ↔ dishes,
        /// movie ↔ movies, property ↔ properties) and the world-knowledge lexicon
        /// (question word evokes schema word).
        pub fn word_eq(a: &str, b: &str) -> bool {
            if a == b {
                return true;
            }
            if a.len() >= 3 && b.len() >= 3 {
                let fa = forms(a);
                let fb = forms(b);
                if fa.iter().any(|x| fb.contains(x)) {
                    return true;
                }
            }
            SYNONYMS
                .iter()
                .any(|&(q, c)| (q == a && c == b) || (q == b && c == a))
        }

        /// Linker over one parsed prompt and one question.
        pub struct Linker<'a> {
            tables: &'a [ParsedTable],
            qwords: Vec<String>,
        }

        impl<'a> Linker<'a> {
            pub fn new(parsed: &'a ParsedPrompt, tables: &'a [ParsedTable]) -> Self {
                let qwords = split_words(&parsed.question);
                Linker { tables, qwords }
            }

            /// Fraction of the table-name words that occur in the question.
            pub fn table_score(&self, ti: usize) -> f64 {
                let words = split_words(&self.tables[ti].name);
                if words.is_empty() {
                    return 0.0;
                }
                let hits = words
                    .iter()
                    .filter(|w| self.qwords.iter().any(|q| word_eq(q, w)))
                    .count();
                hits as f64 / words.len() as f64
            }

            /// Tables ranked by score (desc), ties keep prompt order.
            pub fn ranked_tables(&self) -> Vec<(usize, f64)> {
                let mut v: Vec<(usize, f64)> = (0..self.tables.len())
                    .map(|i| (i, self.table_score(i)))
                    .collect();
                v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                v
            }

            /// Best-scoring table, or 0.
            pub fn best_table(&self) -> usize {
                self.ranked_tables().first().map(|(i, _)| *i).unwrap_or(0)
            }

            /// Column score: fraction of column-name words present in the question
            /// (snake_case split), with a bonus for full multi-word matches.
            pub fn column_score(&self, ti: usize, ci: usize) -> f64 {
                let words = split_words(&self.tables[ti].columns[ci]);
                if words.is_empty() {
                    return 0.0;
                }
                let hits = words
                    .iter()
                    .filter(|w| self.qwords.iter().any(|q| word_eq(q, w)))
                    .count();
                let base = hits as f64 / words.len() as f64;
                if hits == words.len() && words.len() > 1 {
                    base + 0.5
                } else {
                    base
                }
            }

            /// Columns of a table ranked by score (desc).
            pub fn ranked_columns(&self, ti: usize) -> Vec<(usize, f64)> {
                let n = self.tables[ti].columns.len();
                let mut v: Vec<(usize, f64)> =
                    (0..n).map(|ci| (ci, self.column_score(ti, ci))).collect();
                v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                v
            }

            /// The column a human would read results by: the best-linked column, or
            /// a "name"/"title" column, or the second column (first is usually the
            /// id).
            pub fn display_column(&self, ti: usize) -> usize {
                let ranked = self.ranked_columns(ti);
                if let Some(&(ci, score)) = ranked.first() {
                    if score > 0.34 && !self.is_idlike(ti, ci) {
                        return ci;
                    }
                }
                let t = &self.tables[ti];
                for (ci, c) in t.columns.iter().enumerate() {
                    let lc = c.to_lowercase();
                    if lc == "name" || lc == "title" || lc.ends_with("_name") {
                        return ci;
                    }
                }
                if t.columns.len() > 1 {
                    1
                } else {
                    0
                }
            }

            /// Whether a column looks like a key (ids should rarely be projected or
            /// aggregated over).
            pub fn is_idlike(&self, ti: usize, ci: usize) -> bool {
                let c = self.tables[ti].columns[ci].to_lowercase();
                c == "id" || c.ends_with("_id")
            }

            /// Best measure-ish column of a table: prefer question-linked columns,
            /// then (when the representation carried types) numeric columns that are
            /// not keys, then name heuristics.
            pub fn measure_column(&self, ti: usize) -> Option<usize> {
                const MEASURE_HINTS_LOCAL: &[&str] = &[
                    "age",
                    "year",
                    "price",
                    "capacity",
                    "salary",
                    "sales",
                    "count",
                    "size",
                    "weight",
                    "amount",
                    "total",
                    "distance",
                    "attendance",
                    "budget",
                    "fee",
                    "rating",
                    "pages",
                    "goals",
                    "stock",
                    "gross",
                    "credits",
                    "visitors",
                    "horsepower",
                    "msrp",
                    "hectares",
                    "tons",
                    "seasons",
                    "viewers",
                    "citations",
                    "nights",
                    "rooms",
                    "stars",
                    "elevation",
                    "enrollment",
                    "bedrooms",
                    "calories",
                    "discount",
                    "quantity",
                ];
                let ranked = self.ranked_columns(ti);
                let linked: Vec<(usize, f64)> = ranked
                    .iter()
                    .filter(|&&(ci, s)| s > 0.34 && !self.is_idlike(ti, ci))
                    .copied()
                    .collect();
                // Among question-linked columns, prefer ones that are plausibly
                // numeric (DDL type when available, else a measure-word name).
                for &(ci, _) in &linked {
                    let lc = self.tables[ti].columns[ci].to_lowercase();
                    let numeric = self.tables[ti].is_numeric(ci) == Some(true)
                        || MEASURE_HINTS_LOCAL.iter().any(|h| lc.contains(h));
                    if numeric {
                        return Some(ci);
                    }
                }
                // Linked column that at least isn't a display name.
                for &(ci, _) in &linked {
                    let lc = self.tables[ti].columns[ci].to_lowercase();
                    if lc != "name" && lc != "title" && !lc.ends_with("_name") {
                        return Some(ci);
                    }
                }
                let t = &self.tables[ti];
                // Type info (CR_P only) pins down numeric non-key columns.
                let typed: Vec<usize> = (0..t.columns.len())
                    .filter(|&ci| t.is_numeric(ci) == Some(true) && !self.is_idlike(ti, ci))
                    .collect();
                if let Some(&ci) = typed.first() {
                    return Some(ci);
                }
                // Name heuristics as a last resort.
                const MEASURE_HINTS: &[&str] = &[
                    "age",
                    "year",
                    "price",
                    "capacity",
                    "salary",
                    "sales",
                    "count",
                    "size",
                    "weight",
                    "amount",
                    "total",
                    "distance",
                    "attendance",
                    "budget",
                    "fee",
                    "rating",
                    "pages",
                    "goals",
                    "stock",
                    "gross",
                    "credits",
                    "visitors",
                ];
                for (ci, c) in t.columns.iter().enumerate() {
                    let lc = c.to_lowercase();
                    if MEASURE_HINTS.iter().any(|h| lc.contains(h)) {
                        return Some(ci);
                    }
                }
                None
            }

            /// A categorical-ish column: linked non-id column, else a text column
            /// that is not a name/title.
            pub fn category_column(&self, ti: usize) -> Option<usize> {
                let ranked = self.ranked_columns(ti);
                if let Some(&(ci, score)) = ranked.iter().find(|&&(ci, _)| !self.is_idlike(ti, ci))
                {
                    if score > 0.34 {
                        return Some(ci);
                    }
                }
                let t = &self.tables[ti];
                for (ci, c) in t.columns.iter().enumerate() {
                    let lc = c.to_lowercase();
                    if self.is_idlike(ti, ci)
                        || lc == "name"
                        || lc == "title"
                        || lc.ends_with("_name")
                    {
                        continue;
                    }
                    // Prefer known-text columns when types are available.
                    match t.is_numeric(ci) {
                        Some(false) => return Some(ci),
                        Some(true) => continue,
                        None => {
                            const CAT_HINTS: &[&str] = &[
                                "country",
                                "city",
                                "genre",
                                "species",
                                "cuisine",
                                "category",
                                "specialty",
                                "condition",
                                "department",
                                "field",
                                "crop",
                                "maker",
                                "address",
                            ];
                            if CAT_HINTS.iter().any(|h| lc.contains(h)) {
                                return Some(ci);
                            }
                        }
                    }
                }
                None
            }
        }
    }

    /// Every answer the decoder can ask of a fast linker equals the spec's,
    /// scores to the bit.
    fn assert_matches_spec(parsed: &ParsedPrompt, tables: &[ParsedTable]) {
        let fast = Linker::new(parsed, tables);
        let spec = spec::Linker::new(parsed, tables);
        let ctx = || format!("question {:?}, tables {tables:?}", parsed.question);
        let bits =
            |v: &[(usize, f64)]| v.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>();
        assert_eq!(
            bits(fast.ranked_tables()),
            bits(&spec.ranked_tables()),
            "{}",
            ctx()
        );
        assert_eq!(fast.best_table(), spec.best_table(), "{}", ctx());
        for (ti, t) in tables.iter().enumerate() {
            let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
            assert!(
                same(fast.table_score(ti), spec.table_score(ti)),
                "{}",
                ctx()
            );
            for ci in 0..t.columns.len() {
                assert!(
                    same(fast.column_score(ti, ci), spec.column_score(ti, ci)),
                    "{}",
                    ctx()
                );
                assert_eq!(fast.is_idlike(ti, ci), spec.is_idlike(ti, ci), "{}", ctx());
            }
            assert_eq!(
                bits(fast.ranked_columns(ti)),
                bits(&spec.ranked_columns(ti)),
                "{}",
                ctx()
            );
            assert_eq!(
                fast.display_column(ti),
                spec.display_column(ti),
                "{}",
                ctx()
            );
            assert_eq!(
                fast.measure_column(ti),
                spec.measure_column(ti),
                "{}",
                ctx()
            );
            assert_eq!(
                fast.category_column(ti),
                spec.category_column(ti),
                "{}",
                ctx()
            );
        }
    }

    /// Words that reach every branch of the word test: both sides of every
    /// lexicon pair, `-ies`/`-es`/`-s` plurals (and the `-y` singular) on
    /// 2–3-letter stems, words under 3 letters, id/name/hint words.
    fn vocabulary() -> Vec<String> {
        let mut v: Vec<String> = SYNONYMS
            .iter()
            .flat_map(|&(q, c)| [q.to_string(), c.to_string()])
            .collect();
        for stem in ["ab", "ty", "bus", "cit", "dis", "ag"] {
            for suffix in ["", "y", "ies", "es", "s", "ys"] {
                v.push(format!("{stem}{suffix}"));
            }
        }
        for w in [
            "a", "x", "id", "no", "s", "es", "ies", "name", "title", "age", "country",
        ] {
            v.push(w.to_string());
        }
        v
    }

    #[test]
    fn word_eq_matches_spec_on_every_vocabulary_pair() {
        let vocab = vocabulary();
        for a in &vocab {
            let q = QuestionWord::new(a);
            for b in &vocab {
                assert_eq!(word_eq(&q, b), spec::word_eq(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn lexicon_links_in_both_directions_as_in_spec() {
        for &(q, c) in SYNONYMS {
            for (question, column) in [(q, c), (c, q)] {
                let parsed = ParsedPrompt {
                    question: format!("Which {question} one?"),
                    ..ParsedPrompt::default()
                };
                let tables = vec![ParsedTable {
                    name: "thing".into(),
                    columns: vec!["id".into(), column.into(), format!("{column}_total")],
                    types: vec![],
                }];
                assert_matches_spec(&parsed, &tables);
            }
        }
    }

    #[test]
    fn linker_matches_spec_on_parsed_prompts_of_every_representation() {
        let bench = Benchmark::generate(BenchmarkConfig::tiny());
        for (i, item) in bench.dev.iter().enumerate() {
            let db = bench.db(item);
            for repr in QuestionRepr::ALL {
                let opts = ReprOptions {
                    foreign_keys: i % 2 == 0,
                    content_rows: i % 3,
                    ..ReprOptions::default()
                };
                let parsed = parse_prompt(&render_prompt(
                    repr,
                    &db.schema,
                    Some(db),
                    &item.question,
                    opts,
                ));
                assert_matches_spec(&parsed, &parsed.tables);
                // The model links over the tables left after column dropout.
                let mut dropped = parsed.tables.clone();
                for t in &mut dropped {
                    if t.columns.len() > 1 {
                        t.columns.remove(i % t.columns.len());
                    }
                }
                assert_matches_spec(&parsed, &dropped);
            }
        }
    }

    #[test]
    fn linker_matches_spec_on_synthetic_names() {
        let vocab = vocabulary();
        let mut rng = StdRng::seed_from_u64(23);
        let word = |rng: &mut StdRng| {
            let w = &vocab[rng.gen_range(0..vocab.len())];
            if rng.gen_bool(0.2) {
                w.to_uppercase()
            } else {
                w.clone()
            }
        };
        let types = [None, Some("INT"), Some("TEXT"), Some("real")];
        for _ in 0..3000 {
            let question: Vec<String> = (0..rng.gen_range(0..10)).map(|_| word(&mut rng)).collect();
            let parsed = ParsedPrompt {
                question: question.join(if rng.gen_bool(0.5) { " " } else { ", " }),
                ..ParsedPrompt::default()
            };
            let name = |rng: &mut StdRng| {
                let parts: Vec<String> = (0..rng.gen_range(1..4)).map(|_| word(rng)).collect();
                parts.join(if rng.gen_bool(0.8) { "_" } else { "" })
            };
            let tables: Vec<ParsedTable> = (0..rng.gen_range(1..5))
                .map(|_| {
                    let columns: Vec<String> =
                        (0..rng.gen_range(1..7)).map(|_| name(&mut rng)).collect();
                    let types = columns
                        .iter()
                        .map(|_| types[rng.gen_range(0..types.len())].map(str::to_string))
                        .collect();
                    ParsedTable {
                        name: name(&mut rng),
                        columns,
                        types,
                    }
                })
                .collect();
            assert_matches_spec(&parsed, &tables);
        }
    }

    fn linker_for(question: &str, fk: bool) -> ParsedPrompt {
        let schema = all_domains()[0].to_schema();
        let p = render_prompt(
            QuestionRepr::CodeRepr,
            &schema,
            None,
            question,
            ReprOptions {
                foreign_keys: fk,
                ..Default::default()
            },
        );
        parse_prompt(&p)
    }

    #[test]
    fn links_explicit_table_and_column() {
        let parsed = linker_for("What is the average age of all singers?", true);
        let l = Linker::new(&parsed, &parsed.tables);
        let ti = l.best_table();
        assert_eq!(l.table(ti).name, "singer");
        let (ci, score) = l.ranked_columns(ti)[0];
        assert_eq!(l.table(ti).columns[ci], "age");
        assert!(score > 0.9);
    }

    #[test]
    fn realistic_phrasing_links_weakly() {
        let explicit = linker_for("Show singers with age above 40.", true);
        // A paraphrase outside the synonym lexicon cannot link the column.
        let vague = linker_for("Which singers have been around the longest?", true);
        let le = Linker::new(&explicit, &explicit.tables);
        let lv = Linker::new(&vague, &vague.tables);
        let ti = le.best_table();
        let age_idx = le
            .table(ti)
            .columns
            .iter()
            .position(|c| c == "age")
            .unwrap();
        assert!(le.column_score(ti, age_idx) > lv.column_score(ti, age_idx));
    }

    #[test]
    fn synonym_lexicon_bridges_common_paraphrases() {
        let parsed = linker_for("Which singers are older than 40?", true);
        let l = Linker::new(&parsed, &parsed.tables);
        let ti = l.best_table();
        let age_idx = l.table(ti).columns.iter().position(|c| c == "age").unwrap();
        assert!(
            l.column_score(ti, age_idx) > 0.9,
            "'older' should evoke age"
        );
    }

    #[test]
    fn prompt_fks_carry_the_key_edge() {
        let parsed = linker_for("q", true);
        assert!(
            parsed.fks.iter().any(|fk| fk.from_table == "concert"
                && fk.from_column == "singer_id"
                && fk.to_table == "singer"
                && fk.to_column == "singer_id"),
            "{:?}",
            parsed.fks
        );
    }

    #[test]
    fn fk_absent_without_fk_info() {
        let parsed = linker_for("q", false);
        assert!(parsed.fks.is_empty());
        // But a name-based guess still exists for this friendly schema.
        let l = Linker::new(&parsed, &parsed.tables);
        let singer = l
            .parsed
            .tables
            .iter()
            .position(|t| t.name == "singer")
            .unwrap();
        let concert = l
            .parsed
            .tables
            .iter()
            .position(|t| t.name == "concert")
            .unwrap();
        assert!(l.guess_join(singer, concert).is_some());
    }

    #[test]
    fn display_column_prefers_name() {
        let parsed = linker_for("Show all stadiums.", true);
        let l = Linker::new(&parsed, &parsed.tables);
        let ti = l
            .parsed
            .tables
            .iter()
            .position(|t| t.name == "stadium")
            .unwrap();
        let ci = l.display_column(ti);
        assert_eq!(l.table(ti).columns[ci], "name");
    }

    #[test]
    fn measure_column_uses_types_from_ddl() {
        let parsed = linker_for("Which stadium is the biggest?", true);
        let l = Linker::new(&parsed, &parsed.tables);
        let ti = l
            .parsed
            .tables
            .iter()
            .position(|t| t.name == "stadium")
            .unwrap();
        let mi = l.measure_column(ti).unwrap();
        // No linked words, but DDL typing narrows to a numeric non-key.
        assert!(l.table(ti).is_numeric(mi).unwrap());
        assert!(!l.is_idlike(ti, mi));
    }
}
