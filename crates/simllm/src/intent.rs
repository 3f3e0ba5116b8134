//! Intent induction: from question cues and in-context example votes to a
//! query sketch family.
//!
//! This implements the paper's central hypothesis mechanically: LLMs learn
//! the mapping between questions and *SQL skeletons*. The cue classifier is
//! the model's pretraining prior; selected examples vote for their own
//! skeleton family, weighted by how similar their question is to the target
//! — so skeleton-similar example selection (DAIL) measurably improves sketch
//! accuracy, while SQL-only organization (no questions to compare against)
//! votes with much less authority.

use crate::comprehend::ParsedExample;
use sqlkit::ast::*;
use sqlkit::{parse_query, Skeleton};
use std::collections::HashMap;
use textkit::embed;

/// Query sketch families (aligned with the generator's template families,
/// which mirror the Spider query distribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
#[allow(missing_docs)]
pub enum Intent {
    #[default]
    List,
    Filter,
    CountAll,
    CountWhere,
    AggSingle,
    Superlative,
    GroupCount,
    GroupHaving,
    JoinFilter,
    JoinGroup,
    NestedIn,
    NestedNotIn,
    AboveAverage,
    SetIntersect,
    SetUnion,
    SetExcept,
    Distinct,
    Between,
    Like,
    MostCommon,
    MultiAgg,
    TwoCond,
    JoinSuperlative,
    JoinGroupHaving,
    OrNested,
}

/// One fired cue: (stable cue id, intent voted for, weight).
pub type Cue = (usize, Intent, f64);

/// Evaluate all cue rules against a question. Each returned cue *would* fire
/// for a perfectly attentive reader; the model applies per-cue dropout
/// before summing (see [`rank_intents`]).
pub fn fire_cues(question: &str) -> Vec<Cue> {
    let q = format!(" {} ", question.to_lowercase());
    let has = |s: &str| q.contains(s);
    let mut cues: Vec<Cue> = Vec::new();
    let mut add = |id: usize, i: Intent, w: f64| cues.push((id, i, w));

    let how_many = has("how many") || has("count the");
    if has("minimum, maximum and average") || (has("smallest") && has("largest")) {
        add(0, Intent::MultiAgg, 3.2);
    }
    if how_many && (has(" each ") || has(" per ")) {
        add(1, Intent::JoinGroup, 3.0);
    }
    let count_all_cue =
        has("are there") || has("total number of") || (has("size of the") && has("list"));
    if count_all_cue {
        add(2, Intent::CountAll, 2.6);
    } else if how_many {
        add(3, Intent::CountWhere, 2.1);
    }
    if has("average") || has("total ") || has("maximum") || has("minimum") {
        add(4, Intent::AggSingle, 1.9);
    }
    if has("for each") || has(" per ") || (has("break") && has("down by")) {
        add(5, Intent::GroupCount, 2.6);
    }
    if has("more than") && (has("appear") || has("occur") || has(" times")) {
        add(6, Intent::GroupHaving, 3.0);
    }
    if has("with more than")
        && (has("most first") || has("busiest first") || has("together with") || has("rank"))
    {
        add(23, Intent::JoinGroupHaving, 3.0);
    }
    if has(" or that have at least one") || has(" or own a") || (has(" either ") && has(" or own "))
    {
        add(24, Intent::OrNested, 3.0);
    }
    if has("most common") || has("dominates") {
        add(7, Intent::MostCommon, 3.2);
    }
    if has("do not have") || has("lack any") || has(" lack ") {
        add(8, Intent::NestedNotIn, 3.2);
    }
    if has("at least one") || has("exceeds") || has("going over") {
        add(9, Intent::NestedIn, 2.8);
    }
    if has("that have a") || has("connected to") || has("linked to") || has("with a link") {
        add(10, Intent::JoinFilter, 2.2);
    }
    if has("above the average") || has("above average") {
        add(11, Intent::AboveAverage, 3.2);
    }
    if has(" both ") || has("intersect") || has("and also") {
        add(12, Intent::SetIntersect, 2.6);
    }
    if has("but not") || has("(except)") || (has(" only ") && has("qualify")) {
        add(13, Intent::SetExcept, 2.8);
    }
    if has(" either ") || has("(union)") {
        add(14, Intent::SetUnion, 2.6);
    }
    if has("distinct") || has("different") {
        add(15, Intent::Distinct, 2.4);
    }
    if has("between") && has(" and ") {
        add(16, Intent::Between, 3.0);
    }
    if has("starting with") || has("beginning with") || has("start with") {
        add(17, Intent::Like, 3.0);
    }
    let superlative = has("highest")
        || has("lowest")
        || has("largest")
        || has("smallest")
        || has("ranks first")
        || has("ranks last")
        || has("youngest")
        || has("oldest");
    if superlative {
        if has("whose") && has("has the") || has("tops the chart") || has("through its") {
            add(18, Intent::JoinSuperlative, 2.9);
        } else {
            add(19, Intent::Superlative, 2.2);
        }
    }
    if has("tops the chart") {
        add(18, Intent::JoinSuperlative, 2.9);
    }
    let compare = has("greater than")
        || has("less than")
        || has("at least")
        || has("at most")
        || has(" above ")
        || has(" below ")
        || has(" over ")
        || has(" under ")
        || has("older than")
        || has("go over");
    let equality = has("equal to") || has("belong to") || has("associated with") || has(" is ");
    if compare && equality && (has(" and ") || has(" or ")) {
        add(20, Intent::TwoCond, 2.4);
    }
    if compare {
        add(21, Intent::Filter, 1.5);
    }
    // Default prior: listing columns.
    add(22, Intent::List, 0.5);
    cues
}

/// Classify a query AST into its sketch family (a reliable reverse
/// mapping — the model "reads" a demonstration's SQL this way).
pub fn intent_of_query(q: &Query) -> Intent {
    match q {
        Query::Compound { op, .. } => match op {
            SetOp::Intersect => Intent::SetIntersect,
            SetOp::Union => Intent::SetUnion,
            SetOp::Except => Intent::SetExcept,
        },
        Query::Select(s) => intent_of_select(s),
    }
}

fn intent_of_select(s: &Select) -> Intent {
    let has_join = s.from.as_ref().is_some_and(|f| !f.joins.is_empty());
    if let Some(w) = &s.where_cond {
        if let Some(intent) = intent_of_where(w) {
            return intent;
        }
    }
    if !s.group_by.is_empty() {
        if s.order_by.iter().any(|k| k.expr.contains_aggregate()) && s.limit.is_some() {
            return Intent::MostCommon;
        }
        if s.having.is_some() {
            return if has_join {
                Intent::JoinGroupHaving
            } else {
                Intent::GroupHaving
            };
        }
        if has_join {
            return Intent::JoinGroup;
        }
        return Intent::GroupCount;
    }
    if !s.order_by.is_empty() && s.limit.is_some() {
        return if has_join {
            Intent::JoinSuperlative
        } else {
            Intent::Superlative
        };
    }
    let n_aggs = s
        .items
        .iter()
        .filter(|i| i.expr.contains_aggregate())
        .count();
    if n_aggs >= 3 {
        return Intent::MultiAgg;
    }
    if n_aggs >= 1 {
        let is_count_star = matches!(
            &s.items[0].expr,
            Expr::Agg { func: AggFunc::Count, arg, .. } if matches!(arg.as_ref(), Expr::Star)
        );
        if is_count_star && s.items.len() == 1 {
            return if s.where_cond.is_some() {
                Intent::CountWhere
            } else {
                Intent::CountAll
            };
        }
        return Intent::AggSingle;
    }
    if s.distinct {
        return Intent::Distinct;
    }
    match &s.where_cond {
        Some(_) if has_join => Intent::JoinFilter,
        Some(Cond::And(_, _)) | Some(Cond::Or(_, _)) => Intent::TwoCond,
        Some(_) => Intent::Filter,
        None => Intent::List,
    }
}

fn intent_of_where(w: &Cond) -> Option<Intent> {
    match w {
        Cond::In {
            negated,
            source: InSource::Subquery(_),
            ..
        } => Some(if *negated {
            Intent::NestedNotIn
        } else {
            Intent::NestedIn
        }),
        Cond::Cmp {
            right: Operand::Subquery(_),
            ..
        } => Some(Intent::AboveAverage),
        Cond::Between { .. } => Some(Intent::Between),
        Cond::Like { .. } => Some(Intent::Like),
        Cond::Or(l, r) => {
            let has_nested_in = |c: &Cond| {
                matches!(
                    c,
                    Cond::In {
                        source: InSource::Subquery(_),
                        ..
                    }
                )
            };
            if has_nested_in(l) || has_nested_in(r) {
                Some(Intent::OrNested)
            } else {
                intent_of_where(l).or_else(|| intent_of_where(r))
            }
        }
        Cond::And(l, r) => intent_of_where(l).or_else(|| intent_of_where(r)),
        _ => None,
    }
}

/// Replace content words (mid-sentence capitalized tokens, numbers) with a
/// placeholder so similarity reflects question intent rather than domain
/// vocabulary.
pub fn neutralize(question: &str) -> String {
    question
        .split_whitespace()
        .enumerate()
        .map(|(i, w)| {
            let is_num = w.chars().next().is_some_and(|c| c.is_ascii_digit());
            let is_cap = i > 0 && w.chars().next().is_some_and(|c| c.is_uppercase());
            if is_num || is_cap {
                "_".to_string()
            } else {
                w.to_lowercase()
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// How the model reads one in-context example: the sketch family and
/// skeleton of its SQL (from one parse) and how similar its question is to
/// the target's.
#[derive(Debug, Clone)]
pub(crate) struct ExampleReading {
    /// Sketch family and skeleton; `None` when the example's SQL does not
    /// parse.
    pub(crate) shape: Option<(Intent, Skeleton)>,
    /// Neutralized-question cosine to the target, floored at 0; `None` for
    /// SQL-only examples.
    pub(crate) similarity: Option<f64>,
}

/// Read every in-context example once against the target question.
///
/// The model abstracts away domain content when comparing a demonstration
/// to the target — what transfers is the question's *intent*, not its
/// nouns. This is why masked similarity selection outperforms raw text
/// similarity. The target is neutralized and embedded once.
pub(crate) fn read_examples(question: &str, examples: &[ParsedExample]) -> Vec<ExampleReading> {
    let target = embed(&neutralize(question));
    examples
        .iter()
        .map(|ex| ExampleReading {
            shape: parse_query(&ex.sql)
                .ok()
                .map(|q| (intent_of_query(&q), Skeleton::of(&q))),
            similarity: ex
                .question
                .as_ref()
                .map(|exq| target.cosine(&embed(&neutralize(exq))).max(0.0)),
        })
        .collect()
}

/// The in-context example votes: one `(intent, weight)` per example whose
/// SQL parses, in prompt order.
///
/// Examples with questions vote with weight proportional to question
/// similarity, SQL-only ones with a small uniform weight, all scaled by
/// the model's in-context-learning strength `icl_weight`.
pub(crate) fn example_votes(readings: &[ExampleReading], icl_weight: f64) -> Vec<(Intent, f64)> {
    // A *consistent* demonstration set is more convincing than the same
    // number of scattered ones: count how many examples share each intent.
    let mut intent_counts: HashMap<Intent, usize> = HashMap::new();
    for (intent, _) in readings.iter().filter_map(|r| r.shape.as_ref()) {
        *intent_counts.entry(*intent).or_insert(0) += 1;
    }
    readings
        .iter()
        .filter_map(|r| {
            let (intent, _) = r.shape.as_ref()?;
            let consistency = 1.0 + 0.15 * (intent_counts[intent].saturating_sub(1)) as f64;
            let weight = match r.similarity {
                // Only similar demonstrations steer the sketch.
                Some(sim) if sim > 0.25 => 2.4 * sim * icl_weight,
                // Dissimilar demonstrations barely register; five
                // skeleton-identical but question-unrelated examples
                // must not outvote the model's own reading.
                Some(_) => 0.08 * icl_weight,
                // SQL-only examples: the model sees shapes but cannot match
                // them to the target question — weak, diffuse votes.
                None => 0.25 * icl_weight,
            };
            Some((*intent, weight * consistency))
        })
        .collect()
}

/// Combine (dropout-filtered) cue votes with in-context example votes and
/// return intents ranked by total score.
///
/// * `kept_cues` — the cues that survived attention dropout;
/// * `votes` — the in-context example votes `(intent, weight)`, in prompt
///   order.
///
/// Each intent's score sums its cue weights first, then its example votes
/// in prompt order.
pub fn rank_intents(kept_cues: &[Cue], votes: &[(Intent, f64)]) -> Vec<(Intent, f64)> {
    let mut scores: HashMap<Intent, f64> = HashMap::new();
    for (_, intent, w) in kept_cues {
        *scores.entry(*intent).or_insert(0.0) += w;
    }
    for (intent, v) in votes {
        *scores.entry(*intent).or_insert(0.0) += v;
    }
    let mut ranked: Vec<(Intent, f64)> = scores.into_iter().collect();
    // Ties must break deterministically (HashMap iteration order is
    // randomized per process); the secondary key is the intent itself.
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn top(question: &str) -> Intent {
        let cues = fire_cues(question);
        rank_intents(&cues, &[])[0].0
    }

    #[test]
    fn classifies_generator_phrasings() {
        assert_eq!(top("How many singers are there?"), Intent::CountAll);
        assert_eq!(
            top("How many singers have country equal to France?"),
            Intent::CountWhere
        );
        assert_eq!(
            top("What is the average age of all singers?"),
            Intent::AggSingle
        );
        assert_eq!(
            top("Show the number of singers for each country."),
            Intent::GroupCount
        );
        assert_eq!(
            top("Which country values appear in more than 2 singers?"),
            Intent::GroupHaving
        );
        assert_eq!(
            top("Which genre is the most common among the singers?"),
            Intent::MostCommon
        );
        assert_eq!(
            top("List the name of owners that do not have any pets."),
            Intent::NestedNotIn
        );
        assert_eq!(
            top("What are the names of owners that have at least one pet whose weight exceeds 20?"),
            Intent::NestedIn
        );
        assert_eq!(
            top("Show the name of singers whose age is above the average age."),
            Intent::AboveAverage
        );
        assert_eq!(
            top("What are the minimum, maximum and average age across all singers?"),
            Intent::MultiAgg
        );
        assert_eq!(
            top("List the distinct country of the singers."),
            Intent::Distinct
        );
        assert_eq!(
            top("Show the name of singers with age between 20 and 30."),
            Intent::Between
        );
        assert_eq!(
            top("Which singers have a name starting with 'Jo'?"),
            Intent::Like
        );
        assert_eq!(
            top("What is the name of the singer with the highest age?"),
            Intent::Superlative
        );
        assert_eq!(
            top("What is the name of the singer whose song has the highest sales?"),
            Intent::JoinSuperlative
        );
        assert_eq!(
            top("How many songs does each singer have? Show the name and the count."),
            Intent::JoinGroup
        );
    }

    #[test]
    fn intent_of_query_covers_families() {
        let cases = [
            ("SELECT name FROM t", Intent::List),
            ("SELECT name FROM t WHERE age > 3", Intent::Filter),
            ("SELECT count(*) FROM t", Intent::CountAll),
            ("SELECT count(*) FROM t WHERE a = 'x'", Intent::CountWhere),
            ("SELECT avg(age) FROM t", Intent::AggSingle),
            (
                "SELECT name FROM t ORDER BY age DESC LIMIT 1",
                Intent::Superlative,
            ),
            ("SELECT c, count(*) FROM t GROUP BY c", Intent::GroupCount),
            (
                "SELECT c FROM t GROUP BY c HAVING count(*) > 2",
                Intent::GroupHaving,
            ),
            (
                "SELECT a FROM t WHERE x IN (SELECT y FROM u)",
                Intent::NestedIn,
            ),
            (
                "SELECT a FROM t WHERE x NOT IN (SELECT y FROM u)",
                Intent::NestedNotIn,
            ),
            (
                "SELECT a FROM t WHERE x > (SELECT avg(x) FROM t)",
                Intent::AboveAverage,
            ),
            ("SELECT a FROM t UNION SELECT a FROM u", Intent::SetUnion),
            ("SELECT DISTINCT a FROM t", Intent::Distinct),
            ("SELECT a FROM t WHERE x BETWEEN 1 AND 2", Intent::Between),
            ("SELECT a FROM t WHERE a LIKE 'x%'", Intent::Like),
            (
                "SELECT c FROM t GROUP BY c ORDER BY count(*) DESC LIMIT 1",
                Intent::MostCommon,
            ),
            ("SELECT min(a), max(a), avg(a) FROM t", Intent::MultiAgg),
            ("SELECT a FROM t WHERE x > 1 AND y = 'b'", Intent::TwoCond),
            (
                "SELECT T1.a FROM p AS T1 JOIN c AS T2 ON T1.i = T2.i WHERE T2.x > 1",
                Intent::JoinFilter,
            ),
            (
                "SELECT T1.a, count(*) FROM p AS T1 JOIN c AS T2 ON T1.i = T2.i GROUP BY T1.i",
                Intent::JoinGroup,
            ),
            (
                "SELECT T1.a FROM p AS T1 JOIN c AS T2 ON T1.i = T2.i ORDER BY T2.x DESC LIMIT 1",
                Intent::JoinSuperlative,
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(intent_of_query(&parse_query(sql).unwrap()), want, "{sql}");
        }
    }

    #[test]
    fn example_votes_can_flip_weak_cues() {
        // Ambiguous question with no strong cue.
        let question = "Tell me about the most interesting grouping of things by kind.";
        let cues: Vec<Cue> = fire_cues(question)
            .into_iter()
            .filter(|(_, i, _)| *i == Intent::List)
            .collect();
        let examples = vec![
            ParsedExample {
                question: Some("Tell me about the grouping of gadgets by kind.".into()),
                sql: "SELECT kind, count(*) FROM gadget GROUP BY kind".into(),
            };
            3
        ];
        let votes = example_votes(&read_examples(question, &examples), 0.9);
        let ranked = rank_intents(&cues, &votes);
        assert_eq!(ranked[0].0, Intent::GroupCount);
        // Without ICL the default List wins.
        let ranked0 = rank_intents(&cues, &[]);
        assert_eq!(ranked0[0].0, Intent::List);
    }

    #[test]
    fn sql_only_votes_are_weaker_than_paired_votes() {
        let question = "How many widgets are there?";
        let cues: Vec<Cue> = vec![];
        let paired = vec![ParsedExample {
            question: Some("How many gadgets are there?".into()),
            sql: "SELECT avg(x) FROM gadget".into(),
        }];
        let sql_only = vec![ParsedExample {
            question: None,
            sql: "SELECT avg(x) FROM gadget".into(),
        }];
        let vote = |examples: &[ParsedExample]| {
            rank_intents(
                &cues,
                &example_votes(&read_examples(question, examples), 0.9),
            )[0]
            .1
        };
        let w_paired = vote(&paired);
        let w_sqlonly = vote(&sql_only);
        assert!(w_paired > w_sqlonly * 2.0, "{w_paired} vs {w_sqlonly}");
    }
}
