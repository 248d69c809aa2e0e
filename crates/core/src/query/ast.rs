//! Abstract syntax of the declarative query language.
//!
//! Grammar (informal):
//!
//! ```text
//! query      := SELECT items FROM ident [join] [WHERE expr]
//!               [GROUP BY columns] [HAVING expr]
//!               [ORDER BY ident [ASC|DESC]] [LIMIT int]
//! join       := JOIN ident ON column = column
//! items      := item (',' item)*         item := ( '*' | expr | agg ) [AS ident]
//! agg        := (COUNT|SUM|MIN|MAX|AVG) '(' ('*' | expr) ')'
//! expr       := or ;  or := and (OR and)* ;  and := not (AND not)*
//! not        := [NOT] cmp ;  cmp := add (cmpop add)?
//! add        := mul (('+'|'-') mul)* ;  mul := unary (('*'|'/') unary)*
//! unary      := ['-'] primary
//! primary    := literal | column | '(' expr ')'
//! column     := ident ['.' ident]
//! ```

/// A literal value.
#[derive(Clone, Debug, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// `TRUE` / `FALSE`.
    Bool(bool),
    /// `NULL`.
    Null,
}

/// A (possibly qualified) column reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// Column name.
    pub column: String,
}

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Lte,
    /// `>`
    Gt,
    /// `>=`
    Gte,
}

/// Arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// A scalar expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal.
    Literal(Literal),
    /// Binary comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Binary arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
}

impl AggFunc {
    /// Display name.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }
}

/// One item of the SELECT list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectExpr {
    /// `*` — every column of the row schema.
    Star,
    /// A scalar expression.
    Expr(Expr),
    /// An aggregate; `None` argument means `COUNT(*)`.
    Agg(AggFunc, Option<Expr>),
}

/// A SELECT item with an optional alias.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: SelectExpr,
    /// `AS alias`.
    pub alias: Option<String>,
}

/// `JOIN table ON left = right`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinClause {
    /// Joined table name.
    pub table: String,
    /// Left key column.
    pub left: ColumnRef,
    /// Right key column.
    pub right: ColumnRef,
}

/// `ORDER BY column [ASC|DESC]`.
#[derive(Clone, Debug, PartialEq)]
pub struct OrderBy {
    /// Output-column name (or alias) to sort on.
    pub column: String,
    /// Descending?
    pub descending: bool,
}

/// A parsed query.
#[derive(Clone, Debug, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM table.
    pub from: String,
    /// Optional equi-join.
    pub join: Option<JoinClause>,
    /// WHERE predicate.
    pub filter: Option<Expr>,
    /// GROUP BY columns.
    pub group_by: Vec<ColumnRef>,
    /// HAVING predicate (over output columns).
    pub having: Option<Expr>,
    /// ORDER BY clause.
    pub order_by: Option<OrderBy>,
    /// LIMIT clause.
    pub limit: Option<usize>,
}

impl Query {
    /// True iff any SELECT item is an aggregate.
    pub(crate) fn has_aggregates(&self) -> bool {
        self.select
            .iter()
            .any(|i| matches!(i.expr, SelectExpr::Agg(..)))
    }
}
