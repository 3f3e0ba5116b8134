//! Recursive-descent parser for the Spider SQL subset.
//!
//! The grammar accepts everything Spider gold queries use plus a bit more
//! slack (comma cross-joins, `==`, optional `AS`, parenthesized compound
//! operands), because the evaluation harness must also parse *model output*,
//! which is messier than the gold corpus.

use crate::ast::*;
use crate::error::{ParseError, ParseResult};
use crate::token::{lex, Keyword as Kw, Sym, Token, TokenKind as Tk};

/// Parse a SQL string into a [`Query`].
///
/// Trailing semicolons are accepted; any other trailing garbage is an error.
pub fn parse_query(sql: &str) -> ParseResult<Query> {
    let out = parse_query_inner(sql);
    if obskit::enabled() {
        let g = obskit::current();
        g.add_counter("sqlkit.parses", 1);
        if out.is_err() {
            g.add_counter("sqlkit.parse_errors", 1);
        }
    }
    out
}

fn parse_query_inner(sql: &str) -> ParseResult<Query> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.eat_sym(Sym::Semicolon);
    p.expect_eof()?;
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tk {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tk {
        self.tokens
            .get(self.pos + 1)
            .map(|t| &t.kind)
            .unwrap_or(&Tk::Eof)
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos].offset
    }

    fn bump(&mut self) -> Tk {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        if self.peek() == &Tk::Keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_sym(&mut self, s: Sym) -> bool {
        if self.peek() == &Tk::Sym(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> ParseResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {}", kw.as_str())))
        }
    }

    fn expect_sym(&mut self, s: Sym) -> ParseResult<()> {
        if self.eat_sym(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", s.as_str())))
        }
    }

    fn expect_eof(&mut self) -> ParseResult<()> {
        if self.peek() == &Tk::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing token {}", self.peek())))
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError::new(msg, self.offset())
    }

    fn ident(&mut self) -> ParseResult<String> {
        match self.peek().clone() {
            Tk::Ident(s) => {
                self.bump();
                Ok(s)
            }
            // Aggregate names can be used as plain identifiers (column named
            // "count" exists in some schemas); allow them where an identifier
            // is required.
            Tk::Keyword(k @ (Kw::Count | Kw::Sum | Kw::Avg | Kw::Min | Kw::Max)) => {
                self.bump();
                Ok(k.as_str().to_lowercase())
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    // ---- query level ----

    fn query(&mut self) -> ParseResult<Query> {
        let mut left = self.query_operand()?;
        loop {
            let op = match self.peek() {
                Tk::Keyword(Kw::Union) => SetOp::Union,
                Tk::Keyword(Kw::Intersect) => SetOp::Intersect,
                Tk::Keyword(Kw::Except) => SetOp::Except,
                _ => break,
            };
            self.bump();
            // `UNION ALL` is accepted and treated as UNION; Spider's EX
            // metric compares result multisets so the distinction is handled
            // by the executor's set-op semantics.
            if let Tk::Ident(w) = self.peek() {
                if w.eq_ignore_ascii_case("all") {
                    self.bump();
                }
            }
            let right = self.query_operand()?;
            left = Query::Compound {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn query_operand(&mut self) -> ParseResult<Query> {
        if self.peek() == &Tk::Sym(Sym::LParen) && self.peek2() == &Tk::Keyword(Kw::Select) {
            self.bump();
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            Ok(q)
        } else {
            Ok(Query::Select(self.select_core()?))
        }
    }

    fn select_core(&mut self) -> ParseResult<Select> {
        self.expect_kw(Kw::Select)?;
        let distinct = self.eat_kw(Kw::Distinct);
        let mut items = vec![self.select_item()?];
        while self.eat_sym(Sym::Comma) {
            items.push(self.select_item()?);
        }
        let from = if self.eat_kw(Kw::From) {
            Some(self.from_clause()?)
        } else {
            None
        };
        let where_cond = if self.eat_kw(Kw::Where) {
            Some(self.cond()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            group_by.push(self.column_ref()?);
            while self.eat_sym(Sym::Comma) {
                group_by.push(self.column_ref()?);
            }
        }
        let having = if self.eat_kw(Kw::Having) {
            Some(self.cond()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            order_by.push(self.order_key()?);
            while self.eat_sym(Sym::Comma) {
                order_by.push(self.order_key()?);
            }
        }
        let limit = if self.eat_kw(Kw::Limit) {
            match self.bump() {
                Tk::Int(v) if v >= 0 => Some(v as u64),
                other => {
                    return Err(self.err(format!("expected row count after LIMIT, found {other}")))
                }
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_cond,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> ParseResult<SelectItem> {
        if self.peek() == &Tk::Sym(Sym::Star) {
            self.bump();
            return Ok(SelectItem::bare(Expr::Star));
        }
        // `t1.*`
        if let (Tk::Ident(t), Tk::Sym(Sym::Dot)) = (self.peek().clone(), self.peek2().clone()) {
            if self.tokens.get(self.pos + 2).map(|t| &t.kind) == Some(&Tk::Sym(Sym::Star)) {
                self.bump();
                self.bump();
                self.bump();
                // Qualified star projects all columns of one table; model it
                // as a Star with the qualifier recorded via a pseudo column.
                return Ok(SelectItem {
                    expr: Expr::Col(ColumnRef::qualified(t, "*")),
                    alias: None,
                });
            }
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Kw::As) {
            Some(self.ident()?)
        } else if let Tk::Ident(_) = self.peek() {
            // Bare alias only when the next token is clearly an identifier and
            // not a qualified reference continuation.
            if self.peek2() == &Tk::Sym(Sym::Dot) {
                None
            } else {
                Some(self.ident()?)
            }
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    #[allow(clippy::wrong_self_convention)] // parses the FROM clause
    fn from_clause(&mut self) -> ParseResult<FromClause> {
        let base = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            if self.eat_sym(Sym::Comma) {
                // Comma cross-join; condition lives in WHERE.
                let table = self.table_ref()?;
                joins.push(Join { table, on: None });
            } else if matches!(self.peek(), Tk::Keyword(Kw::Join | Kw::Inner | Kw::Left)) {
                // INNER JOIN / LEFT [OUTER] JOIN / JOIN all parse; Spider gold
                // queries are inner joins, and the executor treats LEFT as
                // INNER (documented simplification — gold queries never rely
                // on outer semantics).
                self.eat_kw(Kw::Inner);
                if self.eat_kw(Kw::Left) {
                    self.eat_kw(Kw::Outer);
                }
                self.expect_kw(Kw::Join)?;
                let table = self.table_ref()?;
                let on = if self.eat_kw(Kw::On) {
                    Some(self.cond_no_or()?)
                } else {
                    None
                };
                joins.push(Join { table, on });
            } else {
                break;
            }
        }
        Ok(FromClause { base, joins })
    }

    fn table_ref(&mut self) -> ParseResult<TableRef> {
        if self.peek() == &Tk::Sym(Sym::LParen) {
            self.bump();
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            let alias = self.table_alias()?;
            return Ok(TableRef::Derived {
                query: Box::new(q),
                alias,
            });
        }
        let name = self.ident()?;
        let alias = self.table_alias()?;
        Ok(TableRef::Named { name, alias })
    }

    fn table_alias(&mut self) -> ParseResult<Option<String>> {
        if self.eat_kw(Kw::As) {
            return Ok(Some(self.ident()?));
        }
        if let Tk::Ident(_) = self.peek() {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    fn order_key(&mut self) -> ParseResult<OrderKey> {
        let expr = self.expr()?;
        let dir = if self.eat_kw(Kw::Desc) {
            SortDir::Desc
        } else {
            self.eat_kw(Kw::Asc);
            SortDir::Asc
        };
        Ok(OrderKey { expr, dir })
    }

    // ---- conditions ----

    fn cond(&mut self) -> ParseResult<Cond> {
        let mut left = self.and_cond()?;
        while self.eat_kw(Kw::Or) {
            let right = self.and_cond()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    /// JOIN ON conditions: AND chains only, so that a following OR cannot be
    /// swallowed into the ON clause (matches SQLite precedence in practice
    /// for Spider queries, which never put OR in ON).
    fn cond_no_or(&mut self) -> ParseResult<Cond> {
        self.and_cond()
    }

    fn and_cond(&mut self) -> ParseResult<Cond> {
        let mut left = self.not_cond()?;
        while self.eat_kw(Kw::And) {
            let right = self.not_cond()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_cond(&mut self) -> ParseResult<Cond> {
        if self.peek() == &Tk::Keyword(Kw::Not) && self.peek2() != &Tk::Keyword(Kw::Exists) {
            // `NOT <cond>`; but `NOT IN` / `NOT LIKE` / `NOT BETWEEN` are
            // handled inside predicate(), so only consume NOT when it prefixes
            // a parenthesized condition or another NOT.
            if matches!(self.peek2(), Tk::Sym(Sym::LParen) | Tk::Keyword(Kw::Not)) {
                self.bump();
                let inner = self.not_cond()?;
                return Ok(Cond::Not(Box::new(inner)));
            }
        }
        self.predicate()
    }

    fn predicate(&mut self) -> ParseResult<Cond> {
        if self.eat_kw(Kw::Exists) {
            self.expect_sym(Sym::LParen)?;
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Cond::Exists {
                negated: false,
                query: Box::new(q),
            });
        }
        if self.peek() == &Tk::Keyword(Kw::Not) && self.peek2() == &Tk::Keyword(Kw::Exists) {
            self.bump();
            self.bump();
            self.expect_sym(Sym::LParen)?;
            let q = self.query()?;
            self.expect_sym(Sym::RParen)?;
            return Ok(Cond::Exists {
                negated: true,
                query: Box::new(q),
            });
        }
        // Parenthesized boolean group (only when it cannot be an expression
        // comparison; disambiguate by trying expr first when the parens wrap
        // an arithmetic expression). Spider conditions never parenthesize
        // plain expressions on the left of a comparison, so `(` followed by
        // SELECT is a subquery (invalid standalone) and anything else is
        // treated as a grouped condition if it parses as one.
        if self.peek() == &Tk::Sym(Sym::LParen) && self.peek2() != &Tk::Keyword(Kw::Select) {
            let save = self.pos;
            self.bump();
            if let Ok(c) = self.cond() {
                if self.eat_sym(Sym::RParen) {
                    // Make sure this really was a grouped condition and not a
                    // parenthesized scalar that continues with an operator.
                    if !matches!(
                        self.peek(),
                        Tk::Sym(
                            Sym::Eq
                                | Sym::Neq
                                | Sym::Lt
                                | Sym::Le
                                | Sym::Gt
                                | Sym::Ge
                                | Sym::Plus
                                | Sym::Minus
                                | Sym::Star
                                | Sym::Slash
                        )
                    ) {
                        return Ok(c);
                    }
                }
            }
            self.pos = save;
        }
        let left = self.expr()?;
        let negated = self.eat_kw(Kw::Not);
        match self.peek().clone() {
            Tk::Sym(s @ (Sym::Eq | Sym::Neq | Sym::Lt | Sym::Le | Sym::Gt | Sym::Ge)) => {
                if negated {
                    return Err(self.err("NOT before comparison operator"));
                }
                self.bump();
                let op = match s {
                    Sym::Eq => CmpOp::Eq,
                    Sym::Neq => CmpOp::Neq,
                    Sym::Lt => CmpOp::Lt,
                    Sym::Le => CmpOp::Le,
                    Sym::Gt => CmpOp::Gt,
                    Sym::Ge => CmpOp::Ge,
                    _ => unreachable!(),
                };
                let right = if self.peek() == &Tk::Sym(Sym::LParen)
                    && self.peek2() == &Tk::Keyword(Kw::Select)
                {
                    self.bump();
                    let q = self.query()?;
                    self.expect_sym(Sym::RParen)?;
                    Operand::Subquery(Box::new(q))
                } else {
                    Operand::Expr(self.expr()?)
                };
                Ok(Cond::Cmp { left, op, right })
            }
            Tk::Keyword(Kw::Between) => {
                self.bump();
                let low = self.expr()?;
                self.expect_kw(Kw::And)?;
                let high = self.expr()?;
                Ok(Cond::Between {
                    expr: left,
                    negated,
                    low,
                    high,
                })
            }
            Tk::Keyword(Kw::In) => {
                self.bump();
                self.expect_sym(Sym::LParen)?;
                let source = if self.peek() == &Tk::Keyword(Kw::Select) {
                    let q = self.query()?;
                    InSource::Subquery(Box::new(q))
                } else {
                    let mut lits = vec![self.literal()?];
                    while self.eat_sym(Sym::Comma) {
                        lits.push(self.literal()?);
                    }
                    InSource::List(lits)
                };
                self.expect_sym(Sym::RParen)?;
                Ok(Cond::In {
                    expr: left,
                    negated,
                    source,
                })
            }
            Tk::Keyword(Kw::Like) => {
                self.bump();
                match self.bump() {
                    Tk::Str(pattern) => Ok(Cond::Like {
                        expr: left,
                        negated,
                        pattern,
                    }),
                    other => {
                        Err(self.err(format!("expected string pattern after LIKE, found {other}")))
                    }
                }
            }
            Tk::Keyword(Kw::Is) => {
                if negated {
                    return Err(self.err("NOT before IS"));
                }
                self.bump();
                let neg = self.eat_kw(Kw::Not);
                self.expect_kw(Kw::Null)?;
                Ok(Cond::IsNull {
                    expr: left,
                    negated: neg,
                })
            }
            other => Err(self.err(format!("expected predicate operator, found {other}"))),
        }
    }

    fn literal(&mut self) -> ParseResult<Literal> {
        let neg = self.eat_sym(Sym::Minus);
        match self.bump() {
            Tk::Int(v) => Ok(Literal::Int(if neg { -v } else { v })),
            Tk::Float(v) => Ok(Literal::Float(if neg { -v } else { v })),
            Tk::Str(s) if !neg => Ok(Literal::Str(s)),
            Tk::Keyword(Kw::Null) if !neg => Ok(Literal::Null),
            other => Err(self.err(format!("expected literal, found {other}"))),
        }
    }

    // ---- expressions ----

    fn expr(&mut self) -> ParseResult<Expr> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Tk::Sym(Sym::Plus) => ArithOp::Add,
                Tk::Sym(Sym::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let right = self.term()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> ParseResult<Expr> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek() {
                Tk::Sym(Sym::Star) => ArithOp::Mul,
                Tk::Sym(Sym::Slash) => ArithOp::Div,
                _ => break,
            };
            self.bump();
            let right = self.factor()?;
            left = Expr::Arith {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn factor(&mut self) -> ParseResult<Expr> {
        if self.eat_sym(Sym::Minus) {
            let inner = self.factor()?;
            // Fold negated numeric literals so `-5` parses to `Lit(-5)`,
            // keeping print∘parse a fixed point.
            return Ok(match inner {
                Expr::Lit(Literal::Int(v)) => Expr::Lit(Literal::Int(-v)),
                Expr::Lit(Literal::Float(v)) => Expr::Lit(Literal::Float(-v)),
                other => Expr::Neg(Box::new(other)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> ParseResult<Expr> {
        match self.peek().clone() {
            Tk::Int(v) => {
                self.bump();
                Ok(Expr::Lit(Literal::Int(v)))
            }
            Tk::Float(v) => {
                self.bump();
                Ok(Expr::Lit(Literal::Float(v)))
            }
            Tk::Str(s) => {
                self.bump();
                Ok(Expr::Lit(Literal::Str(s)))
            }
            Tk::Keyword(Kw::Null) => {
                self.bump();
                Ok(Expr::Lit(Literal::Null))
            }
            Tk::Keyword(k @ (Kw::Count | Kw::Sum | Kw::Avg | Kw::Min | Kw::Max)) => {
                // Aggregate call only when followed by '('; otherwise it is a
                // column named e.g. "count".
                if self.peek2() == &Tk::Sym(Sym::LParen) {
                    self.bump();
                    self.bump();
                    let func = match k {
                        Kw::Count => AggFunc::Count,
                        Kw::Sum => AggFunc::Sum,
                        Kw::Avg => AggFunc::Avg,
                        Kw::Min => AggFunc::Min,
                        Kw::Max => AggFunc::Max,
                        _ => unreachable!(),
                    };
                    let distinct = self.eat_kw(Kw::Distinct);
                    let arg = if self.peek() == &Tk::Sym(Sym::Star) {
                        self.bump();
                        Expr::Star
                    } else {
                        self.expr()?
                    };
                    self.expect_sym(Sym::RParen)?;
                    Ok(Expr::Agg {
                        func,
                        distinct,
                        arg: Box::new(arg),
                    })
                } else {
                    self.column_expr()
                }
            }
            Tk::Ident(_) => self.column_expr(),
            Tk::Sym(Sym::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect_sym(Sym::RParen)?;
                Ok(e)
            }
            Tk::Sym(Sym::Star) => {
                self.bump();
                Ok(Expr::Star)
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }

    fn column_expr(&mut self) -> ParseResult<Expr> {
        Ok(Expr::Col(self.column_ref()?))
    }

    fn column_ref(&mut self) -> ParseResult<ColumnRef> {
        let first = self.ident()?;
        if self.eat_sym(Sym::Dot) {
            if self.peek() == &Tk::Sym(Sym::Star) {
                self.bump();
                return Ok(ColumnRef::qualified(first, "*"));
            }
            let col = self.ident()?;
            Ok(ColumnRef::qualified(first, col))
        } else {
            Ok(ColumnRef::new(first))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(sql: &str) -> Query {
        parse_query(sql).unwrap_or_else(|e| panic!("parse failed for {sql:?}: {e}"))
    }

    #[test]
    fn parses_simple_select() {
        let q = ok("SELECT name FROM singer");
        let s = q.head_select();
        assert_eq!(s.items.len(), 1);
        assert!(!s.distinct);
    }

    #[test]
    fn parses_distinct_and_star() {
        let q = ok("SELECT DISTINCT * FROM concert");
        let s = q.head_select();
        assert!(s.distinct);
        assert_eq!(s.items[0].expr, Expr::Star);
    }

    #[test]
    fn parses_aggregates() {
        let q = ok("SELECT count(*), avg(age), sum(DISTINCT salary) FROM t");
        let s = q.head_select();
        assert_eq!(s.items.len(), 3);
        match &s.items[2].expr {
            Expr::Agg {
                func: AggFunc::Sum,
                distinct: true,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_joins_with_aliases() {
        let q = ok(
            "SELECT T1.name, T2.title FROM singer AS T1 JOIN song AS T2 ON T1.id = T2.singer_id",
        );
        let s = q.head_select();
        let from = s.from.as_ref().unwrap();
        assert_eq!(from.joins.len(), 1);
        assert!(from.joins[0].on.is_some());
    }

    #[test]
    fn parses_where_with_and_or_precedence() {
        let q = ok("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3");
        let s = q.head_select();
        // OR binds loosest: Or(x=1, And(y=2,z=3))
        match s.where_cond.as_ref().unwrap() {
            Cond::Or(_, r) => assert!(matches!(**r, Cond::And(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_group_having_order_limit() {
        let q = ok(
            "SELECT country, count(*) FROM singer GROUP BY country HAVING count(*) > 3 ORDER BY count(*) DESC LIMIT 5",
        );
        let s = q.head_select();
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by[0].dir, SortDir::Desc);
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn parses_in_subquery() {
        let q = ok("SELECT name FROM singer WHERE id IN (SELECT singer_id FROM song)");
        assert!(q.is_nested());
    }

    #[test]
    fn parses_not_in_list() {
        let q = ok("SELECT name FROM t WHERE x NOT IN (1, 2, 3)");
        let s = q.head_select();
        match s.where_cond.as_ref().unwrap() {
            Cond::In {
                negated: true,
                source: InSource::List(l),
                ..
            } => assert_eq!(l.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comparison_to_subquery() {
        let q = ok("SELECT name FROM t WHERE age > (SELECT avg(age) FROM t)");
        let s = q.head_select();
        match s.where_cond.as_ref().unwrap() {
            Cond::Cmp {
                right: Operand::Subquery(_),
                op: CmpOp::Gt,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_between_like_isnull() {
        ok("SELECT a FROM t WHERE b BETWEEN 1 AND 5");
        ok("SELECT a FROM t WHERE name LIKE '%son%'");
        ok("SELECT a FROM t WHERE c IS NOT NULL");
        ok("SELECT a FROM t WHERE name NOT LIKE 'A%'");
    }

    #[test]
    fn parses_set_operations() {
        let q = ok("SELECT a FROM t UNION SELECT b FROM u");
        assert!(matches!(
            q,
            Query::Compound {
                op: SetOp::Union,
                ..
            }
        ));
        let q = ok("SELECT a FROM t EXCEPT SELECT a FROM t WHERE x = 1");
        assert!(matches!(
            q,
            Query::Compound {
                op: SetOp::Except,
                ..
            }
        ));
        let q = ok("SELECT a FROM t INTERSECT SELECT a FROM u");
        assert!(matches!(
            q,
            Query::Compound {
                op: SetOp::Intersect,
                ..
            }
        ));
    }

    #[test]
    fn parses_derived_table() {
        let q = ok(
            "SELECT T.c FROM (SELECT country AS c, count(*) AS n FROM singer GROUP BY country) AS T WHERE T.n > 2",
        );
        let s = q.head_select();
        assert!(matches!(
            s.from.as_ref().unwrap().base,
            TableRef::Derived { .. }
        ));
    }

    #[test]
    fn parses_exists() {
        let q = ok("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u)");
        assert!(q.is_nested());
        ok("SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u)");
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let q = ok("SELECT a + b * c FROM t");
        let s = q.head_select();
        match &s.items[0].expr {
            Expr::Arith {
                op: ArithOp::Add,
                right,
                ..
            } => {
                assert!(matches!(
                    **right,
                    Expr::Arith {
                        op: ArithOp::Mul,
                        ..
                    }
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_negative_literal() {
        let q = ok("SELECT a FROM t WHERE x > -5");
        let s = q.head_select();
        match s.where_cond.as_ref().unwrap() {
            Cond::Cmp {
                right: Operand::Expr(e),
                ..
            } => {
                assert_eq!(*e, Expr::Lit(Literal::Int(-5)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_comma_join() {
        let q = ok("SELECT a.x, b.y FROM a, b WHERE a.id = b.id");
        let s = q.head_select();
        assert_eq!(s.from.as_ref().unwrap().joins.len(), 1);
        assert!(s.from.as_ref().unwrap().joins[0].on.is_none());
    }

    #[test]
    fn parses_trailing_semicolon() {
        ok("SELECT a FROM t;");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("SELECT FROM WHERE").is_err());
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
        assert!(parse_query("hello world").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_query("SELECT a FROM t extra garbage !!").is_err());
    }

    #[test]
    fn parses_qualified_star_item() {
        let q = ok("SELECT T1.* FROM singer AS T1");
        let s = q.head_select();
        match &s.items[0].expr {
            Expr::Col(c) => assert_eq!(c.column, "*"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_order_by_aggregate() {
        let q = ok("SELECT country FROM singer GROUP BY country ORDER BY count(*) DESC LIMIT 1");
        let s = q.head_select();
        assert!(s.order_by[0].expr.contains_aggregate());
    }

    #[test]
    fn parses_union_all_as_union() {
        let q = ok("SELECT a FROM t UNION ALL SELECT a FROM u");
        assert!(matches!(
            q,
            Query::Compound {
                op: SetOp::Union,
                ..
            }
        ));
    }

    #[test]
    fn parses_grouped_boolean_condition() {
        let q = ok("SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3");
        let s = q.head_select();
        assert!(matches!(s.where_cond.as_ref().unwrap(), Cond::And(_, _)));
    }

    #[test]
    fn select_item_alias_variants() {
        let q = ok("SELECT count(*) AS n FROM t");
        assert_eq!(q.head_select().items[0].alias.as_deref(), Some("n"));
        let q = ok("SELECT count(*) n FROM t");
        assert_eq!(q.head_select().items[0].alias.as_deref(), Some("n"));
    }
}
