//! Schema linking: matching question words to tables and columns recovered
//! from the prompt.
//!
//! Linking quality is where question phrasing meets representation quality:
//! explicit column mentions (standard Spider questions) link reliably;
//! Spider-Realistic paraphrases do not, and the model falls back to
//! heuristics — reproducing the paper's accuracy drop on Spider-Realistic
//! without any hard-coding.

use crate::comprehend::{ParsedPrompt, ParsedTable};

/// Split an identifier or phrase into lowercase words.
pub fn split_words(s: &str) -> Vec<String> {
    s.to_lowercase()
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_string())
        .collect()
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
fn word_eq(a: &str, b: &str) -> bool {
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
    /// The parsed prompt: question, foreign keys and sampled content.
    pub parsed: &'a ParsedPrompt,
    /// The tables in scope, as the model retained them.
    tables: &'a [ParsedTable],
    qwords: Vec<String>,
}

impl<'a> Linker<'a> {
    /// Build a linker for the target question in the prompt, over `tables`
    /// (the prompt's tables after any attention dropout).
    pub fn new(parsed: &'a ParsedPrompt, tables: &'a [ParsedTable]) -> Self {
        let qwords = split_words(&parsed.question);
        Linker {
            parsed,
            tables,
            qwords,
        }
    }

    /// The question's words.
    pub fn question_words(&self) -> &[String] {
        &self.qwords
    }

    /// Table count in scope.
    pub fn n_tables(&self) -> usize {
        self.tables.len()
    }

    /// Access a table by index.
    pub fn table(&self, ti: usize) -> &ParsedTable {
        &self.tables[ti]
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
        let mut v: Vec<(usize, f64)> = (0..n).map(|ci| (ci, self.column_score(ti, ci))).collect();
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
        if let Some(&(ci, score)) = ranked.iter().find(|&&(ci, _)| !self.is_idlike(ti, ci)) {
            if score > 0.34 {
                return Some(ci);
            }
        }
        let t = &self.tables[ti];
        for (ci, c) in t.columns.iter().enumerate() {
            let lc = c.to_lowercase();
            if self.is_idlike(ti, ci) || lc == "name" || lc == "title" || lc.ends_with("_name") {
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

    /// Foreign key between two tables from prompt FK info, as
    /// `(col_in_ti, col_in_tj)`.
    pub fn fk_between(&self, ti: usize, tj: usize) -> Option<(String, String)> {
        let a = &self.tables[ti].name;
        let b = &self.tables[tj].name;
        for fk in &self.parsed.fks {
            if fk.from_table.eq_ignore_ascii_case(a) && fk.to_table.eq_ignore_ascii_case(b) {
                return Some((fk.from_column.clone(), fk.to_column.clone()));
            }
            if fk.from_table.eq_ignore_ascii_case(b) && fk.to_table.eq_ignore_ascii_case(a) {
                return Some((fk.to_column.clone(), fk.from_column.clone()));
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
    use spider_gen::all_domains;

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
    fn fk_between_uses_prompt_fks() {
        let parsed = linker_for("q", true);
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
        let fk = l.fk_between(concert, singer).unwrap();
        assert_eq!(fk, ("singer_id".to_string(), "singer_id".to_string()));
    }

    #[test]
    fn fk_absent_without_fk_info() {
        let parsed = linker_for("q", false);
        let l = Linker::new(&parsed, &parsed.tables);
        assert!(l.fk_between(0, 1).is_none());
        // But a name-based guess still exists for this friendly schema.
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
