//! Sketch-to-SQL decoding: slot-filling an intent with linked schema
//! elements and extracted values, plus tier-scaled corruption noise.

use crate::intent::Intent;
use crate::linking::Linker;
use crate::values::ExtractedValues;
use rand::rngs::StdRng;
use rand::Rng;
use sqlkit::ast::*;

/// Decode an intent into a query against the linked schema.
///
/// Returns `None` when the schema offers no way to realize the intent (the
/// model then falls back to a trivial query — see the model driver).
pub fn decode(
    intent: Intent,
    linker: &Linker<'_>,
    vals: &ExtractedValues,
    rng: &mut StdRng,
    tier: f64,
) -> Option<Query> {
    if linker.n_tables() == 0 {
        return None;
    }
    let d = Decoder { linker, vals, tier };
    d.decode(intent, rng)
}

struct Decoder<'a, 'b> {
    linker: &'a Linker<'b>,
    vals: &'a ExtractedValues,
    tier: f64,
}

impl Decoder<'_, '_> {
    fn decode(&self, intent: Intent, rng: &mut StdRng) -> Option<Query> {
        // A join sketch only makes sense when the question actually evokes a
        // second table; otherwise the model sensibly falls back to the
        // single-table variant of the same shape.
        let intent = if matches!(
            intent,
            Intent::JoinGroup
                | Intent::JoinFilter
                | Intent::JoinSuperlative
                | Intent::JoinGroupHaving
        ) {
            let ranked = self.linker.ranked_tables();
            let second_linked = ranked.get(1).map(|&(_, s)| s > 0.0).unwrap_or(false);
            if second_linked {
                intent
            } else {
                match intent {
                    Intent::JoinGroup => Intent::GroupCount,
                    Intent::JoinFilter => Intent::Filter,
                    Intent::JoinSuperlative => Intent::Superlative,
                    Intent::JoinGroupHaving => Intent::GroupHaving,
                    _ => unreachable!(),
                }
            }
        } else {
            intent
        };
        match intent {
            Intent::List => self.list(rng),
            Intent::Filter => self.filter(rng),
            Intent::CountAll => self.count_all(rng),
            Intent::CountWhere => self.count_where(rng),
            Intent::AggSingle => self.agg_single(rng),
            Intent::Superlative => self.superlative(rng),
            Intent::GroupCount => self.group_count(rng),
            Intent::GroupHaving => self.group_having(rng),
            Intent::JoinFilter => self.join_filter(rng),
            Intent::JoinGroup => self.join_group(rng),
            Intent::NestedIn => self.nested_in(rng),
            Intent::NestedNotIn => self.nested_not_in(rng),
            Intent::AboveAverage => self.above_average(rng),
            Intent::SetIntersect => self.set_op(SetOp::Intersect, rng),
            Intent::SetUnion => self.set_op(SetOp::Union, rng),
            Intent::SetExcept => self.set_op(SetOp::Except, rng),
            Intent::Distinct => self.distinct(rng),
            Intent::Between => self.between(rng),
            Intent::Like => self.like(rng),
            Intent::MostCommon => self.most_common(rng),
            Intent::MultiAgg => self.multi_agg(rng),
            Intent::TwoCond => self.two_cond(rng),
            Intent::JoinSuperlative => self.join_superlative(rng),
            Intent::JoinGroupHaving => self.join_group_having(rng),
            Intent::OrNested => self.or_nested(rng),
        }
    }

    // ---- shared pieces ----

    fn table(&self, rng: &mut StdRng) -> usize {
        let ranked = self.linker.ranked_tables();
        // Occasionally a weaker model grabs the wrong table when linking is
        // ambiguous (top two scores close).
        if ranked.len() >= 2 && ranked[0].1 - ranked[1].1 < 0.05 {
            let p_wrong = 0.25 * (1.0 - self.tier);
            if rng.gen_bool(p_wrong) {
                return ranked[1].0;
            }
        }
        ranked[0].0
    }

    fn tname(&self, ti: usize) -> String {
        self.linker.table(ti).name.clone()
    }

    fn cname(&self, ti: usize, ci: usize) -> String {
        self.linker.table(ti).columns[ci].clone()
    }

    fn col(&self, ti: usize, ci: usize, alias: Option<&str>) -> Expr {
        Expr::Col(ColumnRef {
            table: alias.map(str::to_string),
            column: self.cname(ti, ci),
        })
    }

    #[allow(clippy::wrong_self_convention)] // builds a FROM clause
    fn from_one(&self, ti: usize) -> FromClause {
        FromClause {
            base: TableRef::Named {
                name: self.tname(ti),
                alias: None,
            },
            joins: vec![],
        }
    }

    /// Comparison operator implied by the question's wording.
    fn cmp_op(&self) -> CmpOp {
        let q = format!(" {} ", self.linker.question());
        if q.contains("at least") {
            CmpOp::Ge
        } else if q.contains("at most") {
            CmpOp::Le
        } else if q.contains("less than") || q.contains(" below ") || q.contains(" under ") {
            CmpOp::Lt
        } else {
            // greater than / above / over / older than / exceeds / default
            CmpOp::Gt
        }
    }

    /// The measure column the question conditions on.
    fn measure(&self, ti: usize, rng: &mut StdRng) -> Option<usize> {
        let ci = self.linker.measure_column(ti)?;
        // Mislinks under ambiguity for weak models.
        if rng.gen_bool(0.12 * (1.0 - self.tier)) {
            let ranked = self.linker.ranked_columns(ti);
            if let Some(&(alt, _)) = ranked.iter().find(|&&(c, _)| c != ci) {
                return Some(alt);
            }
        }
        Some(ci)
    }

    /// Projection column, preferring linked words not used by the condition;
    /// falls back to a name/title column, never an id.
    fn projection(&self, ti: usize, exclude: Option<usize>) -> usize {
        let ranked = self.linker.ranked_columns(ti);
        for &(ci, score) in ranked {
            if Some(ci) == exclude || self.linker.is_idlike(ti, ci) {
                continue;
            }
            if score > 0.34 {
                return ci;
            }
        }
        // Name/title columns read best.
        let t = self.linker.table(ti);
        if let Some(ci) = (0..t.columns.len())
            .find(|&ci| Some(ci) != exclude && self.linker.is_name_column(ti, ci))
        {
            return ci;
        }
        // First non-id, non-excluded column in schema order.
        (0..t.columns.len())
            .find(|&ci| Some(ci) != exclude && !self.linker.is_idlike(ti, ci))
            .or_else(|| (0..t.columns.len()).find(|&ci| Some(ci) != exclude))
            .unwrap_or(0)
    }

    fn number(&self) -> Option<Literal> {
        self.vals.numbers.first().cloned()
    }

    fn string_value(&self) -> Option<Literal> {
        if let Some(s) = self.vals.strings.last() {
            return Some(Literal::Str(s.clone()));
        }
        // No capitalized/quoted value in the question: sampled table content
        // in the prompt can still identify it ("equal to pop" → 'Pop'). This
        // is the mechanism behind the paper's table-content toggle.
        let q = format!(" {} ", self.linker.question());
        self.linker
            .parsed
            .content_values
            .iter()
            .find(|v| {
                q.contains(&format!(" {} ", v.to_lowercase()))
                    || q.contains(&format!(" {}?", v.to_lowercase()))
            })
            .map(|v| Literal::Str(v.clone()))
    }

    /// Resolve the two tables of a join intent: (parent, child).
    ///
    /// With FK info in the prompt, orientation is read off the key edge.
    /// Without it, the model guesses by name patterns — deliberately made
    /// unreliable (real-world schemas rarely name keys so helpfully), which
    /// is the mechanism behind the paper's foreign-key ablation.
    fn join_pair(&self, rng: &mut StdRng) -> Option<(usize, usize, String, String)> {
        let ranked = self.linker.ranked_tables();
        if ranked.len() < 2 {
            return None;
        }
        let (a, b) = (ranked[0].0, ranked[1].0);
        // Explicit orientation from FK edges. Even with FK info, weaker
        // models occasionally confuse which side of the relationship the
        // question asks about.
        for &(x, y) in &[(a, b), (b, a)] {
            let tx = &self.linker.table(x).name;
            let ty = &self.linker.table(y).name;
            for fk in &self.linker.parsed.fks {
                if fk.from_table.eq_ignore_ascii_case(ty) && fk.to_table.eq_ignore_ascii_case(tx) {
                    // y is child of x.
                    if rng.gen_bool((0.30 * (1.0 - self.tier).powf(0.7)).clamp(0.0, 0.45)) {
                        // Swapped reading: treats the child as the entity of
                        // interest.
                        return Some((y, x, fk.from_column.clone(), fk.to_column.clone()));
                    }
                    return Some((x, y, fk.to_column.clone(), fk.from_column.clone()));
                }
            }
        }
        // No FK info: name-based guess succeeds with probability that grows
        // with capability; failure links the wrong columns.
        let p_guess = 0.45 + 0.5 * self.tier;
        if let Some((ca, cb)) = self.linker.guess_join(a, b) {
            if rng.gen_bool(p_guess.clamp(0.0, 1.0)) {
                return Some((a, b, ca, cb));
            }
        }
        // Wrong guess: join first columns (likely ids that do not
        // correspond), producing plausible-looking but wrong SQL.
        let ca = self.linker.table(a).columns.first()?.clone();
        let cb = self.linker.table(b).columns.first()?.clone();
        Some((a, b, ca, cb))
    }

    #[allow(clippy::wrong_self_convention)] // builds a FROM clause
    fn from_join(&self, parent: usize, child: usize, pc: &str, cc: &str) -> FromClause {
        FromClause {
            base: TableRef::Named {
                name: self.tname(parent),
                alias: Some("T1".into()),
            },
            joins: vec![Join {
                table: TableRef::Named {
                    name: self.tname(child),
                    alias: Some("T2".into()),
                },
                on: Some(Cond::Cmp {
                    left: Expr::Col(ColumnRef::qualified("T1", pc)),
                    op: CmpOp::Eq,
                    right: Operand::Expr(Expr::Col(ColumnRef::qualified("T2", cc))),
                }),
            }],
        }
    }

    /// A WHERE condition for count/filter intents: equality on a category
    /// when the question carries a string value, else a numeric comparison.
    fn simple_condition(&self, ti: usize, rng: &mut StdRng) -> Option<(Cond, Option<usize>)> {
        if let Some(v) = self.string_value() {
            let ci = self.linker.category_column(ti)?;
            return Some((
                Cond::Cmp {
                    left: self.col(ti, ci, None),
                    op: CmpOp::Eq,
                    right: Operand::Expr(Expr::Lit(v)),
                },
                Some(ci),
            ));
        }
        let n = self.number()?;
        let ci = self.measure(ti, rng)?;
        Some((
            Cond::Cmp {
                left: self.col(ti, ci, None),
                op: self.cmp_op(),
                right: Operand::Expr(Expr::Lit(n)),
            },
            Some(ci),
        ))
    }

    // ---- intents ----

    fn list(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.projection(ti, None);
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, ci, None))],
            from: Some(self.from_one(ti)),
            ..Select::default()
        }))
    }

    fn filter(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let (cond, used) = self.simple_condition(ti, rng)?;
        let ci = self.projection(ti, used);
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, ci, None))],
            from: Some(self.from_one(ti)),
            where_cond: Some(cond),
            ..Select::default()
        }))
    }

    fn count_all(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(count_star())],
            from: Some(self.from_one(ti)),
            ..Select::default()
        }))
    }

    fn count_where(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let (cond, _) = self.simple_condition(ti, rng)?;
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(count_star())],
            from: Some(self.from_one(ti)),
            where_cond: Some(cond),
            ..Select::default()
        }))
    }

    fn agg_func_from_question(&self) -> AggFunc {
        let q = self.linker.question();
        if q.contains("average") || q.contains("typical") {
            AggFunc::Avg
        } else if q.contains("total") || q.contains("sum") {
            AggFunc::Sum
        } else if q.contains("minimum") || q.contains("smallest") || q.contains("lowest") {
            AggFunc::Min
        } else {
            AggFunc::Max
        }
    }

    fn agg_single(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.measure(ti, rng)?;
        let func = self.agg_func_from_question();
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(Expr::Agg {
                func,
                distinct: false,
                arg: Box::new(self.col(ti, ci, None)),
            })],
            from: Some(self.from_one(ti)),
            ..Select::default()
        }))
    }

    fn sort_dir(&self) -> SortDir {
        let q = self.linker.question();
        if q.contains("lowest")
            || q.contains("smallest")
            || q.contains("ranks last")
            || q.contains("youngest")
            || q.contains("minimum")
        {
            SortDir::Asc
        } else {
            SortDir::Desc
        }
    }

    fn superlative(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let key = self.measure(ti, rng)?;
        let proj = self.projection(ti, Some(key));
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, proj, None))],
            from: Some(self.from_one(ti)),
            order_by: vec![OrderKey {
                expr: self.col(ti, key, None),
                dir: self.sort_dir(),
            }],
            limit: Some(1),
            ..Select::default()
        }))
    }

    fn group_count(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.linker.category_column(ti)?;
        Some(Query::Select(Select {
            items: vec![
                SelectItem::bare(self.col(ti, ci, None)),
                SelectItem::bare(count_star()),
            ],
            from: Some(self.from_one(ti)),
            group_by: vec![ColumnRef::new(self.cname(ti, ci))],
            ..Select::default()
        }))
    }

    fn group_having(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.linker.category_column(ti)?;
        let n = self.number().unwrap_or(Literal::Int(1));
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, ci, None))],
            from: Some(self.from_one(ti)),
            group_by: vec![ColumnRef::new(self.cname(ti, ci))],
            having: Some(Cond::Cmp {
                left: count_star(),
                op: CmpOp::Gt,
                right: Operand::Expr(Expr::Lit(n)),
            }),
            ..Select::default()
        }))
    }

    fn join_filter(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        // Condition on the child side.
        let cond = if let Some(v) = self.string_value() {
            let ci = self.linker.category_column(child)?;
            Cond::Cmp {
                left: self.col(child, ci, Some("T2")),
                op: CmpOp::Eq,
                right: Operand::Expr(Expr::Lit(v)),
            }
        } else {
            let n = self.number()?;
            let ci = self.measure(child, rng)?;
            Cond::Cmp {
                left: self.col(child, ci, Some("T2")),
                op: self.cmp_op(),
                right: Operand::Expr(Expr::Lit(n)),
            }
        };
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(parent, proj, Some("T1")))],
            from: Some(self.from_join(parent, child, &pc, &cc)),
            where_cond: Some(cond),
            ..Select::default()
        }))
    }

    fn join_group(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        Some(Query::Select(Select {
            items: vec![
                SelectItem::bare(self.col(parent, proj, Some("T1"))),
                SelectItem::bare(count_star()),
            ],
            from: Some(self.from_join(parent, child, &pc, &cc)),
            group_by: vec![ColumnRef::qualified("T1", pc)],
            ..Select::default()
        }))
    }

    fn nested_in(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        let n = self.number()?;
        let ci = self.measure(child, rng)?;
        let sub = Query::Select(Select {
            items: vec![SelectItem::bare(Expr::Col(ColumnRef::new(cc)))],
            from: Some(self.from_one(child)),
            where_cond: Some(Cond::Cmp {
                left: self.col(child, ci, None),
                op: CmpOp::Gt,
                right: Operand::Expr(Expr::Lit(n)),
            }),
            ..Select::default()
        });
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(parent, proj, None))],
            from: Some(self.from_one(parent)),
            where_cond: Some(Cond::In {
                expr: Expr::Col(ColumnRef::new(pc)),
                negated: false,
                source: InSource::Subquery(Box::new(sub)),
            }),
            ..Select::default()
        }))
    }

    fn nested_not_in(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        let sub = Query::Select(Select {
            items: vec![SelectItem::bare(Expr::Col(ColumnRef::new(cc)))],
            from: Some(self.from_one(child)),
            ..Select::default()
        });
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(parent, proj, None))],
            from: Some(self.from_one(parent)),
            where_cond: Some(Cond::In {
                expr: Expr::Col(ColumnRef::new(pc)),
                negated: true,
                source: InSource::Subquery(Box::new(sub)),
            }),
            ..Select::default()
        }))
    }

    fn above_average(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.measure(ti, rng)?;
        let proj = self.projection(ti, Some(ci));
        let sub = Query::Select(Select {
            items: vec![SelectItem::bare(Expr::Agg {
                func: AggFunc::Avg,
                distinct: false,
                arg: Box::new(self.col(ti, ci, None)),
            })],
            from: Some(self.from_one(ti)),
            ..Select::default()
        });
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, proj, None))],
            from: Some(self.from_one(ti)),
            where_cond: Some(Cond::Cmp {
                left: self.col(ti, ci, None),
                op: CmpOp::Gt,
                right: Operand::Subquery(Box::new(sub)),
            }),
            ..Select::default()
        }))
    }

    fn set_op(&self, op: SetOp, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let proj = self.linker.category_column(ti)?;
        let n = self.number()?;
        let ci = self.measure(ti, rng)?;
        let side = |cmp: CmpOp| {
            Query::Select(Select {
                items: vec![SelectItem::bare(self.col(ti, proj, None))],
                from: Some(self.from_one(ti)),
                where_cond: Some(Cond::Cmp {
                    left: self.col(ti, ci, None),
                    op: cmp,
                    right: Operand::Expr(Expr::Lit(n.clone())),
                }),
                ..Select::default()
            })
        };
        Some(Query::Compound {
            op,
            left: Box::new(side(CmpOp::Gt)),
            right: Box::new(side(CmpOp::Lt)),
        })
    }

    fn distinct(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self
            .linker
            .category_column(ti)
            .unwrap_or_else(|| self.projection(ti, None));
        Some(Query::Select(Select {
            distinct: true,
            items: vec![SelectItem::bare(self.col(ti, ci, None))],
            from: Some(self.from_one(ti)),
            ..Select::default()
        }))
    }

    fn between(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        if self.vals.numbers.len() < 2 {
            return None;
        }
        let ci = self.measure(ti, rng)?;
        let proj = self.projection(ti, Some(ci));
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, proj, None))],
            from: Some(self.from_one(ti)),
            where_cond: Some(Cond::Between {
                expr: self.col(ti, ci, None),
                negated: false,
                low: Expr::Lit(self.vals.numbers[0].clone()),
                high: Expr::Lit(self.vals.numbers[1].clone()),
            }),
            ..Select::default()
        }))
    }

    fn like(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let prefix = self.vals.strings.first()?.clone();
        let ranked = self.linker.ranked_columns(ti);
        let ci = ranked
            .iter()
            .find(|&&(c, s)| s > 0.34 && !self.linker.is_idlike(ti, c))
            .map(|&(c, _)| c)
            .unwrap_or_else(|| self.linker.display_column(ti));
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, ci, None))],
            from: Some(self.from_one(ti)),
            where_cond: Some(Cond::Like {
                expr: self.col(ti, ci, None),
                negated: false,
                pattern: format!("{prefix}%"),
            }),
            ..Select::default()
        }))
    }

    fn most_common(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.linker.category_column(ti)?;
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, ci, None))],
            from: Some(self.from_one(ti)),
            group_by: vec![ColumnRef::new(self.cname(ti, ci))],
            order_by: vec![OrderKey {
                expr: count_star(),
                dir: SortDir::Desc,
            }],
            limit: Some(1),
            ..Select::default()
        }))
    }

    fn multi_agg(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let ci = self.measure(ti, rng)?;
        let mk = |func| {
            SelectItem::bare(Expr::Agg {
                func,
                distinct: false,
                arg: Box::new(self.col(ti, ci, None)),
            })
        };
        Some(Query::Select(Select {
            items: vec![mk(AggFunc::Min), mk(AggFunc::Max), mk(AggFunc::Avg)],
            from: Some(self.from_one(ti)),
            ..Select::default()
        }))
    }

    fn two_cond(&self, rng: &mut StdRng) -> Option<Query> {
        let ti = self.table(rng);
        let n = self.number()?;
        let mi = self.measure(ti, rng)?;
        let v = self.string_value()?;
        let ci = self.linker.category_column(ti)?;
        let proj = self.projection(ti, Some(mi));
        let left = Cond::Cmp {
            left: self.col(ti, mi, None),
            op: self.cmp_op(),
            right: Operand::Expr(Expr::Lit(n)),
        };
        let right = Cond::Cmp {
            left: self.col(ti, ci, None),
            op: CmpOp::Eq,
            right: Operand::Expr(Expr::Lit(v)),
        };
        let q = self.linker.question();
        let cond = if q.contains(" or ") {
            Cond::Or(Box::new(left), Box::new(right))
        } else {
            Cond::And(Box::new(left), Box::new(right))
        };
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(ti, proj, None))],
            from: Some(self.from_one(ti)),
            where_cond: Some(cond),
            ..Select::default()
        }))
    }

    fn join_superlative(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        let key = self.measure(child, rng)?;
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(parent, proj, Some("T1")))],
            from: Some(self.from_join(parent, child, &pc, &cc)),
            order_by: vec![OrderKey {
                expr: self.col(child, key, Some("T2")),
                dir: self.sort_dir(),
            }],
            limit: Some(1),
            ..Select::default()
        }))
    }
}

impl Decoder<'_, '_> {
    fn join_group_having(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        let n = self.number().unwrap_or(Literal::Int(1));
        Some(Query::Select(Select {
            items: vec![
                SelectItem::bare(self.col(parent, proj, Some("T1"))),
                SelectItem::bare(count_star()),
            ],
            from: Some(self.from_join(parent, child, &pc, &cc)),
            group_by: vec![ColumnRef::qualified("T1", pc)],
            having: Some(Cond::Cmp {
                left: count_star(),
                op: CmpOp::Gt,
                right: Operand::Expr(Expr::Lit(n)),
            }),
            order_by: vec![OrderKey {
                expr: count_star(),
                dir: SortDir::Desc,
            }],
            ..Select::default()
        }))
    }

    fn or_nested(&self, rng: &mut StdRng) -> Option<Query> {
        let (parent, child, pc, cc) = self.join_pair(rng)?;
        let proj = self.projection(parent, None);
        if self.vals.numbers.len() < 2 {
            return None;
        }
        let thr1 = self.vals.numbers[0].clone();
        let thr2 = self.vals.numbers[1].clone();
        let pm = self.measure(parent, rng)?;
        let cm = self.measure(child, rng)?;
        let sub = Query::Select(Select {
            items: vec![SelectItem::bare(Expr::Col(ColumnRef::new(cc)))],
            from: Some(self.from_one(child)),
            where_cond: Some(Cond::Cmp {
                left: self.col(child, cm, None),
                op: CmpOp::Gt,
                right: Operand::Expr(Expr::Lit(thr2)),
            }),
            ..Select::default()
        });
        Some(Query::Select(Select {
            items: vec![SelectItem::bare(self.col(parent, proj, None))],
            from: Some(self.from_one(parent)),
            where_cond: Some(Cond::Or(
                Box::new(Cond::Cmp {
                    left: self.col(parent, pm, None),
                    op: CmpOp::Gt,
                    right: Operand::Expr(Expr::Lit(thr1)),
                }),
                Box::new(Cond::In {
                    expr: Expr::Col(ColumnRef::new(pc)),
                    negated: false,
                    source: InSource::Subquery(Box::new(sub)),
                }),
            )),
            ..Select::default()
        }))
    }
}

fn count_star() -> Expr {
    Expr::Agg {
        func: AggFunc::Count,
        distinct: false,
        arg: Box::new(Expr::Star),
    }
}

/// Apply tier-scaled corruption noise to a decoded query.
///
/// Each corruption site fires independently with probability `p`; the sites
/// are the classic LLM slip-ups the paper's error analyses describe —
/// flipped comparison operators, wrong sort direction, swapped aggregates,
/// dropped DISTINCT, perturbed limits.
pub fn corrupt_query(q: &mut Query, rng: &mut StdRng, p: f64) {
    match q {
        Query::Select(s) => corrupt_select(s, rng, p),
        Query::Compound { left, right, .. } => {
            corrupt_query(left, rng, p);
            corrupt_query(right, rng, p);
        }
    }
}

fn corrupt_select(s: &mut Select, rng: &mut StdRng, p: f64) {
    if s.distinct && rng.gen_bool(p) {
        s.distinct = false;
    }
    for item in &mut s.items {
        corrupt_expr(&mut item.expr, rng, p);
    }
    if let Some(w) = &mut s.where_cond {
        corrupt_cond(w, rng, p);
    }
    if let Some(h) = &mut s.having {
        corrupt_cond(h, rng, p);
    }
    for k in &mut s.order_by {
        if rng.gen_bool(p) {
            k.dir = match k.dir {
                SortDir::Asc => SortDir::Desc,
                SortDir::Desc => SortDir::Asc,
            };
        }
    }
    if let Some(l) = &mut s.limit {
        if *l == 1 && rng.gen_bool(p * 0.5) {
            *l = rng.gen_range(2..5);
        }
    }
}

fn corrupt_expr(e: &mut Expr, rng: &mut StdRng, p: f64) {
    if let Expr::Agg { func, .. } = e {
        if rng.gen_bool(p) {
            *func = match func {
                AggFunc::Avg => AggFunc::Sum,
                AggFunc::Sum => AggFunc::Avg,
                AggFunc::Max => AggFunc::Min,
                AggFunc::Min => AggFunc::Max,
                AggFunc::Count => AggFunc::Count,
            };
        }
    }
}

fn corrupt_cond(c: &mut Cond, rng: &mut StdRng, p: f64) {
    match c {
        Cond::Cmp { op, right, .. } => {
            if rng.gen_bool(p) {
                *op = match op {
                    CmpOp::Gt => CmpOp::Ge,
                    CmpOp::Ge => CmpOp::Gt,
                    CmpOp::Lt => CmpOp::Le,
                    CmpOp::Le => CmpOp::Lt,
                    CmpOp::Eq => CmpOp::Eq,
                    CmpOp::Neq => CmpOp::Neq,
                };
            }
            if let Operand::Subquery(sub) = right {
                corrupt_query(sub, rng, p);
            }
        }
        Cond::In {
            source: InSource::Subquery(sub),
            negated,
            ..
        } => {
            if rng.gen_bool(p * 0.4) {
                *negated = !*negated;
            }
            corrupt_query(sub, rng, p);
        }
        Cond::And(l, r) | Cond::Or(l, r) => {
            corrupt_cond(l, rng, p);
            corrupt_cond(r, rng, p);
        }
        Cond::Not(inner) => corrupt_cond(inner, rng, p),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comprehend::parse_prompt;
    use crate::intent::Intent;
    use crate::linking::Linker;
    use crate::values;
    use promptkit::{render_prompt, QuestionRepr, ReprOptions};
    use rand::SeedableRng;
    use spider_gen::all_domains;

    fn run(question: &str, intent: Intent, tier: f64, fk: bool) -> Option<Query> {
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
        let parsed = parse_prompt(&p);
        let linker = Linker::new(&parsed, &parsed.tables);
        let vals = values::extract(question);
        let mut rng = StdRng::seed_from_u64(1);
        decode(intent, &linker, &vals, &mut rng, tier)
    }

    #[test]
    fn decodes_count_all() {
        let q = run("How many singers are there?", Intent::CountAll, 0.95, true).unwrap();
        assert_eq!(q.to_string(), "SELECT COUNT(*) FROM singer");
    }

    #[test]
    fn decodes_filter_with_threshold() {
        let q = run(
            "What is the name of the singers whose age is greater than 40?",
            Intent::Filter,
            0.95,
            true,
        )
        .unwrap();
        assert_eq!(q.to_string(), "SELECT name FROM singer WHERE age > 40");
    }

    #[test]
    fn decodes_category_equality() {
        let q = run(
            "How many singers have country equal to France?",
            Intent::CountWhere,
            0.95,
            true,
        )
        .unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT COUNT(*) FROM singer WHERE country = 'France'"
        );
    }

    #[test]
    fn decodes_superlative() {
        let q = run(
            "What is the name of the singer with the highest age?",
            Intent::Superlative,
            0.95,
            true,
        )
        .unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT name FROM singer ORDER BY age DESC LIMIT 1"
        );
    }

    #[test]
    fn decodes_group_count() {
        let q = run(
            "Show the number of singers for each country.",
            Intent::GroupCount,
            0.95,
            true,
        )
        .unwrap();
        assert_eq!(
            q.to_string(),
            "SELECT country, COUNT(*) FROM singer GROUP BY country"
        );
    }

    #[test]
    fn join_uses_fk_when_present() {
        let q = run(
            "How many concerts does each singer have? Show the name and the count.",
            Intent::JoinGroup,
            0.95,
            true,
        )
        .unwrap();
        let sql = q.to_string();
        assert!(sql.contains("JOIN"), "{sql}");
        assert!(
            sql.contains("T1.singer_id = T2.singer_id")
                || sql.contains("T2.singer_id = T1.singer_id"),
            "{sql}"
        );
    }

    #[test]
    fn join_without_fk_is_less_reliable_for_weak_models() {
        // Weak model, no FK info: across seeds, some decodes must produce a
        // wrong join (first-column fallback).
        let schema = all_domains()[0].to_schema();
        let question = "How many concerts does each singer have? Show the name and the count.";
        let p = render_prompt(
            QuestionRepr::CodeRepr,
            &schema,
            None,
            question,
            ReprOptions {
                foreign_keys: false,
                ..Default::default()
            },
        );
        let parsed = parse_prompt(&p);
        let linker = Linker::new(&parsed, &parsed.tables);
        let vals = values::extract(question);
        let mut wrong = 0;
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let q = decode(Intent::JoinGroup, &linker, &vals, &mut rng, 0.3).unwrap();
            let sql = q.to_string();
            if !sql.contains("T2.singer_id") {
                wrong += 1;
            }
        }
        assert!(wrong > 5, "expected some wrong joins, got {wrong}");
        assert!(wrong < 45, "expected some correct joins, got {wrong} wrong");
    }

    #[test]
    fn corruption_changes_queries_at_high_p() {
        let q0 = run(
            "What is the name of the singer with the highest age?",
            Intent::Superlative,
            0.95,
            true,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = q0.clone();
        corrupt_query(&mut q, &mut rng, 1.0);
        assert_ne!(q0, q);
    }

    #[test]
    fn corruption_is_noop_at_zero_p() {
        let q0 = run(
            "Show the name of singers with age between 20 and 30.",
            Intent::Between,
            0.95,
            true,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = q0.clone();
        corrupt_query(&mut q, &mut rng, 0.0);
        assert_eq!(q0, q);
    }

    #[test]
    fn decoded_queries_execute_on_the_database() {
        let d = &all_domains()[0];
        let db = spider_gen::populate(d, 5);
        for (question, intent) in [
            ("How many singers are there?", Intent::CountAll),
            ("What is the average age of all singers?", Intent::AggSingle),
            (
                "List the distinct country of the singers.",
                Intent::Distinct,
            ),
            (
                "Which genre is the most common among the singers?",
                Intent::MostCommon,
            ),
            (
                "List the name of singers that do not have any concerts.",
                Intent::NestedNotIn,
            ),
        ] {
            let q = run(question, intent, 0.95, true).unwrap();
            storage::execute_query(&db, &q).unwrap_or_else(|e| panic!("{question}: {e}: {q}"));
        }
    }
}
