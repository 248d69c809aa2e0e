//! Recursive-descent parser for the declarative query language.

use crate::error::{Result, RheemError};

use super::ast::*;
use super::lexer::{lex, Token};

/// The deepest expression a statement may hold. A leaf is one level deep;
/// an operator, `NOT`, a unary minus and a pair of parentheses are each one
/// level over their deepest operand, so both nesting and the length of an
/// operator chain (`a + a + …` is left-deep) count. Every pass over an
/// expression — this parser, the binder, lowering and folding, vectorized
/// evaluation, `Display` and `Drop` — recurses once per level. In a debug
/// build on x86-64 the hungriest of them, this parser over parentheses,
/// first overflows a 2 MiB thread stack at about 440 levels; the binder at
/// about 540. Deeper input is a [`RheemError::Query`] naming the limit.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Parse a query string into the AST.
pub fn parse(input: &str) -> Result<Query> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        open: 0,
    };
    let q = p.query()?;
    if p.pos != p.tokens.len() {
        return Err(p.error(format!(
            "unexpected trailing input at token {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses, `NOT`s and unary minuses open around the current token.
    open: usize,
}

/// An expression and its depth (see [`MAX_EXPR_DEPTH`]).
type Deep = (Expr, usize);

impl Parser {
    fn error(&self, msg: String) -> RheemError {
        RheemError::Query(format!("parse error: {msg}"))
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Is the next token the given keyword (case-insensitive)?
    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    /// Consume the given keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    /// True if the identifier is a reserved keyword that terminates clauses.
    fn is_reserved(s: &str) -> bool {
        const KW: [&str; 15] = [
            "select", "from", "join", "on", "where", "group", "by", "having", "order", "limit",
            "as", "and", "or", "not", "asc",
        ];
        KW.contains(&s.to_ascii_lowercase().as_str()) || s.eq_ignore_ascii_case("desc")
    }

    // ---------------------------------------------------------------- query

    fn query(&mut self) -> Result<Query> {
        self.expect_keyword("SELECT")?;
        let select = self.select_items()?;
        self.expect_keyword("FROM")?;
        let from = self.ident()?;

        let join = if self.eat_keyword("JOIN") {
            let table = self.ident()?;
            self.expect_keyword("ON")?;
            let left = self.column_ref()?;
            self.expect(Token::Eq)?;
            let right = self.column_ref()?;
            Some(JoinClause { table, left, right })
        } else {
            None
        };

        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };

        let order_by = if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            let column = self.ident()?;
            let descending = if self.eat_keyword("DESC") {
                true
            } else {
                self.eat_keyword("ASC");
                false
            };
            Some(OrderBy { column, descending })
        } else {
            None
        };

        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => return Err(self.error(format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };

        Ok(Query {
            select,
            from,
            join,
            filter,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            SelectExpr::Star
        } else if let Some(agg) = self.try_agg()? {
            agg
        } else {
            SelectExpr::Expr(self.expr()?)
        };
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem { expr, alias })
    }

    fn try_agg(&mut self) -> Result<Option<SelectExpr>> {
        let func = match self.peek() {
            Some(Token::Ident(s)) => match s.to_ascii_lowercase().as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                "avg" => AggFunc::Avg,
                _ => return Ok(None),
            },
            _ => return Ok(None),
        };
        // Only an aggregate when followed by `(`.
        if self.tokens.get(self.pos + 1) != Some(&Token::LParen) {
            return Ok(None);
        }
        self.pos += 2; // func + LParen
        let arg = if self.peek() == Some(&Token::Star) {
            self.pos += 1;
            None
        } else {
            Some(self.expr()?)
        };
        self.expect(Token::RParen)?;
        if arg.is_none() && func != AggFunc::Count {
            return Err(self.error(format!("{}(*) is only valid for COUNT", func.name())));
        }
        Ok(Some(SelectExpr::Agg(func, arg)))
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if Self::is_reserved(&first) {
            return Err(self.error(format!("expected column, found keyword `{first}`")));
        }
        if self.peek() == Some(&Token::Dot) {
            self.pos += 1;
            let column = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    // ----------------------------------------------------------- expressions
    //
    // Precedence climbing over the grammar's levels (`ast` module docs):
    // one call per operand, whatever its level, so a level of nesting costs
    // the parser three frames rather than one per grammar rule.

    fn too_deep(&self) -> RheemError {
        self.error(format!(
            "expression deeper than {MAX_EXPR_DEPTH} levels of nesting and operator chains"
        ))
    }

    /// One level over an operand `depth` deep.
    fn level(&self, depth: usize) -> Result<usize> {
        if depth < MAX_EXPR_DEPTH {
            Ok(depth + 1)
        } else {
            Err(self.too_deep())
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        Ok(self.operand(Level::Or)?.0)
    }

    /// The binary operator at the next token and its level, if any.
    fn peek_binary(&self) -> Option<(Binary, Level)> {
        Some(match self.peek()? {
            Token::Ident(s) if s.eq_ignore_ascii_case("OR") => (Binary::Or, Level::Or),
            Token::Ident(s) if s.eq_ignore_ascii_case("AND") => (Binary::And, Level::And),
            Token::Eq => (Binary::Cmp(CmpOp::Eq), Level::Cmp),
            Token::Neq => (Binary::Cmp(CmpOp::Neq), Level::Cmp),
            Token::Lt => (Binary::Cmp(CmpOp::Lt), Level::Cmp),
            Token::Lte => (Binary::Cmp(CmpOp::Lte), Level::Cmp),
            Token::Gt => (Binary::Cmp(CmpOp::Gt), Level::Cmp),
            Token::Gte => (Binary::Cmp(CmpOp::Gte), Level::Cmp),
            Token::Plus => (Binary::Arith(ArithOp::Add), Level::Add),
            Token::Minus => (Binary::Arith(ArithOp::Sub), Level::Add),
            Token::Star => (Binary::Arith(ArithOp::Mul), Level::Mul),
            Token::Slash => (Binary::Arith(ArithOp::Div), Level::Mul),
            _ => return None,
        })
    }

    /// An operand whose loosest operator is at `loosest` or tighter: a
    /// prefix form or a primary, then every binary operator that may follow
    /// it. Operators of one level chain to the left, except comparisons,
    /// which do not chain; an operand of `NOT` may be followed only by
    /// `AND` or `OR`, as the grammar's `not := [NOT] cmp` has it.
    fn operand(&mut self, loosest: Level) -> Result<Deep> {
        let (mut left, mut tightest) = if loosest <= Level::Not && self.eat_keyword("NOT") {
            let (e, depth) = self.nested(Level::Not)?;
            ((Expr::Not(Box::new(e)), depth), Level::And)
        } else if self.peek() == Some(&Token::Minus) {
            self.pos += 1;
            let (e, depth) = self.nested(Level::Unary)?;
            ((Expr::Neg(Box::new(e)), depth), Level::Mul)
        } else {
            (self.primary()?, Level::Mul)
        };
        while let Some((op, level)) = self.peek_binary() {
            if level < loosest || level > tightest {
                break;
            }
            self.pos += 1;
            let right = self.operand(level.tighter())?;
            left = self.binary(op, left, right)?;
            tightest = if level == Level::Cmp {
                Level::And
            } else {
                level
            };
        }
        Ok(left)
    }

    /// `left op right`, one level over its deeper operand.
    fn binary(&self, op: Binary, left: Deep, right: Deep) -> Result<Deep> {
        let depth = self.level(left.1.max(right.1))?;
        let (l, r) = (Box::new(left.0), Box::new(right.0));
        let node = match op {
            Binary::Or => Expr::Or(l, r),
            Binary::And => Expr::And(l, r),
            Binary::Cmp(op) => Expr::Cmp(l, op, r),
            Binary::Arith(op) => Expr::Arith(l, op, r),
        };
        Ok((node, depth))
    }

    /// An operand at `loosest` inside one more open parenthesis, `NOT` or
    /// minus, and that level's depth. The open levels alone bound the depth
    /// from below (each adds one over a leaf at least), so input past the
    /// limit is refused on the way in and the parser's own recursion stays
    /// bounded too.
    fn nested(&mut self, loosest: Level) -> Result<Deep> {
        if self.open + 2 > MAX_EXPR_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let parsed = self.operand(loosest);
        self.open -= 1;
        let (expr, depth) = parsed?;
        Ok((expr, self.level(depth)?))
    }

    fn primary(&mut self) -> Result<Deep> {
        if self.peek() != Some(&Token::LParen) {
            return Ok((self.leaf()?, 1));
        }
        self.pos += 1;
        let e = self.nested(Level::Or)?;
        self.expect(Token::RParen)?;
        Ok(e)
    }

    /// A literal or a column: its own function, so that the frame of its
    /// large match is not on the stack once per level of parentheses.
    fn leaf(&mut self) -> Result<Expr> {
        Ok(match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Expr::Literal(Literal::Int(i))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Expr::Literal(Literal::Float(x))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Expr::Literal(Literal::Str(s))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("true") => {
                self.pos += 1;
                Expr::Literal(Literal::Bool(true))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("false") => {
                self.pos += 1;
                Expr::Literal(Literal::Bool(false))
            }
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case("null") => {
                self.pos += 1;
                Expr::Literal(Literal::Null)
            }
            Some(Token::Ident(_)) => Expr::Column(self.column_ref()?),
            other => return Err(self.error(format!("expected expression, found {other:?}"))),
        })
    }
}

/// The grammar's levels, loosest first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Level {
    Or,
    And,
    Not,
    Cmp,
    Add,
    Mul,
    Unary,
}

impl Level {
    /// The level of a binary operator's right operand: one tighter, so
    /// operators of one level chain to the left.
    fn tighter(self) -> Level {
        match self {
            Level::Or => Level::And,
            Level::And => Level::Not,
            Level::Not | Level::Cmp => Level::Add,
            Level::Add => Level::Mul,
            Level::Mul | Level::Unary => Level::Unary,
        }
    }
}

/// A binary operator of the grammar.
#[derive(Clone, Copy)]
enum Binary {
    Or,
    And,
    Cmp(CmpOp),
    Arith(ArithOp),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_query() {
        let q = parse("SELECT * FROM t").unwrap();
        assert_eq!(q.from, "t");
        assert_eq!(q.select.len(), 1);
        assert!(matches!(q.select[0].expr, SelectExpr::Star));
        assert!(q.join.is_none() && q.filter.is_none() && q.group_by.is_empty());
    }

    #[test]
    fn parses_full_query() {
        let q = parse(
            "SELECT region, COUNT(*) AS n, SUM(amount * 2) AS total \
             FROM orders JOIN customers ON orders.cid = customers.id \
             WHERE amount > 100 AND NOT (region = 'EU' OR region = 'US') \
             GROUP BY region HAVING n > 3 ORDER BY total DESC LIMIT 5",
        )
        .unwrap();
        assert_eq!(q.select.len(), 3);
        assert_eq!(q.select[1].alias.as_deref(), Some("n"));
        assert!(q.has_aggregates());
        let join = q.join.unwrap();
        assert_eq!(join.table, "customers");
        assert_eq!(join.left.table.as_deref(), Some("orders"));
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        let ob = q.order_by.unwrap();
        assert!(ob.descending);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn operator_precedence() {
        // a + b * c < d AND e  parses as  ((a + (b*c)) < d) AND e
        let q = parse("SELECT * FROM t WHERE a + b * c < d AND e = 1").unwrap();
        match q.filter.unwrap() {
            Expr::And(left, _) => match *left {
                Expr::Cmp(lhs, CmpOp::Lt, _) => match *lhs {
                    Expr::Arith(_, ArithOp::Add, rhs) => {
                        assert!(matches!(*rhs, Expr::Arith(_, ArithOp::Mul, _)))
                    }
                    other => panic!("expected Add, got {other:?}"),
                },
                other => panic!("expected Cmp, got {other:?}"),
            },
            other => panic!("expected And, got {other:?}"),
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select a from t where a >= 1 order by a asc").is_ok());
    }

    #[test]
    fn count_star_only() {
        assert!(parse("SELECT COUNT(*) FROM t").is_ok());
        assert!(parse("SELECT SUM(*) FROM t").is_err());
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("FROM t").is_err());
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
        assert!(parse("SELECT * FROM t extra junk").is_err());
        assert!(parse("SELECT * FROM t JOIN u ON a != b").is_err());
    }

    #[test]
    fn aggregate_names_can_still_be_columns() {
        // `count` not followed by `(` is an ordinary identifier.
        let q = parse("SELECT count FROM t").unwrap();
        assert!(matches!(
            &q.select[0].expr,
            SelectExpr::Expr(Expr::Column(c)) if c.column == "count"
        ));
    }

    fn where_of(sql: &str) -> Expr {
        parse(&format!("SELECT * FROM t WHERE {sql}"))
            .unwrap()
            .filter
            .unwrap()
    }

    #[test]
    fn operators_group_as_the_grammar_says() {
        // Parentheses add no node, so each pair names the same tree.
        for (bare, grouped) in [
            ("a - b - c", "(a - b) - c"),
            ("a / b * c", "(a / b) * c"),
            ("a + b * c - d", "(a + (b * c)) - d"),
            ("a OR b AND c OR d", "(a OR (b AND c)) OR d"),
            ("NOT a = 1 AND b", "(NOT (a = 1)) AND b"),
            ("NOT NOT a < b + 1", "NOT (NOT (a < (b + 1)))"),
            ("NOT -a = --b", "NOT ((-a) = (-(-b)))"),
            ("-a * b", "(-a) * b"),
            (
                "a = 1 OR b = 2 AND NOT c",
                "(a = 1) OR ((b = 2) AND (NOT c))",
            ),
        ] {
            assert_eq!(where_of(bare), where_of(grouped), "{bare}");
        }
        // A comparison does not chain, and NOT stands only where the
        // grammar's `not` does: first in an operand of AND or OR.
        for sql in [
            "a = b = c",
            "NOT a = 1 = 2",
            "NOT a + 1 = 2 < 3",
            "a + NOT b",
            "a = NOT b",
            "-NOT a",
        ] {
            let parsed = parse(&format!("SELECT * FROM t WHERE {sql}"));
            assert!(parsed.is_err(), "{sql} parsed as {parsed:?}");
        }
    }

    #[test]
    fn expression_depth_counts_nesting_and_chains_up_to_the_limit() {
        let d = MAX_EXPR_DEPTH;
        let parens = |n: usize| format!("{}a{}", "(".repeat(n), ")".repeat(n));
        let chain = |n: usize| vec!["a"; n].join(" * ");
        let nots = |n: usize| format!("{}a = 1", "NOT ".repeat(n));
        let negs = |n: usize| format!("{}a", "-".repeat(n));
        let mixed = |n: usize| format!("{}a{}", "(a + ".repeat(n / 2), ")".repeat(n / 2));
        // Each shape `d` levels deep, then one level more.
        for (at, past) in [
            (parens(d - 1), parens(d)),
            (chain(d), chain(d + 1)),
            (nots(d - 2), nots(d - 1)),
            (negs(d - 1), negs(d)),
            (mixed(d - 1), mixed(d + 1)),
        ] {
            let sql = |e: &str| format!("SELECT {e} AS v FROM t");
            assert!(parse(&sql(&at)).is_ok(), "{at}");
            match parse(&sql(&past)) {
                Err(RheemError::Query(m)) => assert!(m.contains(&d.to_string()), "{m}"),
                other => panic!("{past} parsed as {other:?}"),
            }
        }
    }

    /// A generated expression about `target` levels deep, built inside out
    /// from a leaf by wrapping it in parentheses, a minus, a `NOT` or an
    /// operator chain (of `+`, `*`, `AND`, `OR` or one `=`) where it stands
    /// at a random operand, and its depth as [`MAX_EXPR_DEPTH`] counts it.
    fn deep_expression(target: usize, seed: u64) -> (String, usize) {
        let mut rng = seed;
        let mut draw = |n: u64| {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (rng ^ (rng >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z ^ (z >> 29)) % n
        };
        // `operand` is true when the text may stand as a chain operand or
        // after a minus as it is (a leaf, a parenthesis, a minus form).
        let (mut sql, mut depth, mut operand) = ("a".to_string(), 1, true);
        while depth < target {
            if !operand {
                (sql, depth) = (format!("({sql})"), depth + 1);
            }
            (sql, depth, operand) = match draw(4) {
                0 => (format!("({sql})"), depth + 1, true),
                1 => (format!("-{sql}"), depth + 1, true),
                2 => (format!("(NOT {sql})"), depth + 2, true),
                _ => {
                    let (op, terms) = match draw(5) {
                        0 => ("=", 2),
                        k => (
                            ["+", "*", "AND", "OR"][k as usize - 1],
                            2 + draw(4) as usize,
                        ),
                    };
                    let at = draw(terms as u64) as usize;
                    // Each other term is `b` (1 deep) or `(b * c)` (3 deep).
                    let mut chain = Vec::new();
                    let mut chain_depth = 0;
                    for i in 0..terms {
                        let (term, d) = match (i == at, draw(2)) {
                            (true, _) => (sql.clone(), depth),
                            (false, 0) => ("b".to_string(), 1),
                            (false, _) => ("(b * c)".to_string(), 3),
                        };
                        chain_depth = if i == 0 { d } else { chain_depth.max(d) + 1 };
                        chain.push(term);
                    }
                    (chain.join(&format!(" {op} ")), chain_depth, false)
                }
            };
        }
        (sql, depth)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Mixed nesting and chains parse exactly up to the limit, and are
        /// refused past it with the limit named.
        #[test]
        fn generated_deep_expressions_parse_exactly_up_to_the_limit(
            target in (MAX_EXPR_DEPTH - 40)..(MAX_EXPR_DEPTH + 40),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (expr, depth) = deep_expression(target, seed);
            let parsed = parse(&format!("SELECT {expr} AS v FROM t"));
            if depth <= MAX_EXPR_DEPTH {
                proptest::prop_assert!(parsed.is_ok());
            } else {
                let refused = matches!(
                    parsed,
                    Err(RheemError::Query(m)) if m.contains(&MAX_EXPR_DEPTH.to_string())
                );
                proptest::prop_assert!(refused);
            }
        }
    }
}
