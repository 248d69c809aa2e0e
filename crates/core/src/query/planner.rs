//! Query planning: name resolution, expression compilation, and lowering
//! to a [`LogicalPlan`].
//!
//! The planner needs *schemas*, which execution does not: a
//! [`QueryCatalog`] registers each queryable dataset with its
//! [`Schema`], and resolution turns qualified column names into field
//! indices before any UDF is built. Everything lowers to the core's
//! declarative forms — WHERE / HAVING / SELECT to [`crate::expr::Expr`]
//! trees, GROUP BY to a field-tuple key plus an aggregate spec — so the
//! optimizer can fuse, fingerprint and vectorize what SQL hands it; no
//! opaque closure is built here. SQL's semantics (any comparison with
//! `Null` or across a type mismatch is `Null`, `Null` is not truthy, `/` is
//! `Float` with `/0 → Null`) live in the `Sql*` operators of the IR.

use std::collections::HashMap;

use crate::data::{Chunk, Column, DataType, Dataset, Record, Schema, Value};
use crate::error::{Result, RheemError};
use crate::expr::{self, BinOp};
use crate::logical::{LogicalPayload, LogicalPlan, LogicalPlanBuilder};
use crate::plan::NodeId;
use crate::udf::{self, Aggregate, FilterUdf, GroupMapUdf, GroupOutput, KeyUdf, MapUdf};
use crate::{JobResult, RheemContext};

use super::ast::*;
use super::parser::parse;

/// A registered, queryable table: its column names and types, and its data.
#[derive(Clone)]
struct TableDef {
    schema: Schema,
    data: Dataset,
}

impl TableDef {
    /// The table narrowed to `lanes` (ascending, deduplicated): a zero-copy
    /// window of its chunk over exactly those lanes, with the matching
    /// schema; the whole table when `lanes` is every lane.
    fn window(&self, lanes: &[usize]) -> TableDef {
        if lanes.len() == self.schema.width() {
            return self.clone();
        }
        let chunk = self.data.chunk().expect("a table is schema-wide");
        let fields = self.schema.fields();
        let named = lanes
            .iter()
            .map(|&i| (fields[i].name.clone(), fields[i].dtype));
        TableDef {
            schema: Schema::new(named.collect()),
            data: Dataset::from_chunk(chunk.project(lanes).expect("the lanes are the schema's")),
        }
    }
}

/// The set of tables a query may reference.
#[derive(Clone, Default)]
pub struct QueryCatalog {
    tables: HashMap<String, TableDef>,
}

/// A planned query, ready to execute.
pub struct PlannedQuery {
    /// The logical plan (lower + optimize + run it through a context).
    pub logical: LogicalPlan,
    /// Output column names and (best-effort) types.
    pub schema: Schema,
    /// The sink's node id in the lowered physical plan (lowering is 1:1).
    pub sink: NodeId,
}

impl std::fmt::Debug for PlannedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PlannedQuery({} logical nodes, {} output columns)",
            self.logical.len(),
            self.schema.width()
        )
    }
}

/// Query output: rows plus their schema and the job's statistics.
pub struct QueryResult {
    /// Result rows.
    pub rows: Dataset,
    /// Output schema.
    pub schema: Schema,
    /// Execution statistics.
    pub job: JobResult,
}

impl QueryCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        QueryCatalog::default()
    }

    /// Register an in-memory table given as rows: they are converted to
    /// one chunk ([`QueryCatalog::register_dataset`]) and dropped before
    /// this returns.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        records: Vec<Record>,
    ) -> &mut Self {
        self.register_dataset(name, schema, Dataset::new(records))
    }

    /// Register an in-memory table, held as one chunk exactly as wide as
    /// its schema and nothing else: a table's rows beside its chunk would
    /// cost it four times the bytes. A dataset's chunk of that width is
    /// held as it is: one at hand ([`Dataset::has_chunk`]; a window's, as
    /// its slice), or the one [`Dataset::chunk`] converts from schema-wide
    /// rows and caches for every clone of the dataset, so a caller who
    /// keeps one shares the catalog's lanes. The rows of any other — a
    /// window's own rows only — are converted once, resized to the schema:
    /// a missing field is NULL, and a field past the schema is dropped. A
    /// table with no rows is a chunk of schema-many empty columns.
    pub fn register_dataset(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        data: Dataset,
    ) -> &mut Self {
        let width = schema.width();
        // Not `Dataset::chunk` for a window of rows, which would convert
        // all of its parent, nor for rows of another width, which would
        // become a chunk of their own width first.
        let schema_wide = |row: &Record| row.width() == width;
        let own =
            data.has_chunk() || (!data.is_window() && data.iter().next().is_some_and(schema_wide));
        let chunk = match own.then(|| data.chunk()).flatten() {
            Some(chunk) if chunk.width() == width => chunk.clone(),
            _ => {
                let (null, rows) = (&Value::Null, data.records());
                let field = |c| {
                    rows.iter()
                        .map(move |row| row.fields().get(c).unwrap_or(null))
                };
                let columns = (0..width).map(field).map(Column::from_value_refs);
                Chunk::new(columns.collect(), rows.len())
            }
        };
        let data = Dataset::from_chunk(chunk);
        self.tables.insert(name.into(), TableDef { schema, data });
        self
    }

    fn table(&self, name: &str) -> Result<&TableDef> {
        self.tables
            .get(name)
            .ok_or_else(|| RheemError::Query(format!("unknown table `{name}`")))
    }

    /// Parse and plan a query.
    pub fn plan(&self, sql: &str) -> Result<PlannedQuery> {
        let query = parse(sql)?;
        plan_query(self, &query)
    }

    /// Parse, plan, optimize, and execute a query on a context.
    pub fn execute(&self, ctx: &RheemContext, sql: &str) -> Result<QueryResult> {
        let planned = self.plan(sql)?;
        let job = ctx.execute_logical(&planned.logical)?;
        let rows = job
            .outputs
            .get(&planned.sink)
            .cloned()
            .ok_or_else(|| RheemError::Query("query produced no output".into()))?;
        Ok(QueryResult {
            rows,
            schema: planned.schema,
            job,
        })
    }
}

// ---------------------------------------------------------------------------
// Name resolution
// ---------------------------------------------------------------------------

/// The row namespace a clause is resolved against.
struct RowBinding {
    /// `(qualifier, column name, type)` per field.
    fields: Vec<(Option<String>, String, DataType)>,
}

impl RowBinding {
    fn from_table(name: &str, schema: &Schema) -> Self {
        RowBinding {
            fields: schema
                .fields()
                .iter()
                .map(|f| (Some(name.to_string()), f.name.clone(), f.dtype))
                .collect(),
        }
    }

    fn joined(left: &RowBinding, right: &RowBinding) -> Self {
        let mut fields = left.fields.clone();
        fields.extend(right.fields.clone());
        RowBinding { fields }
    }

    fn from_output(schema: &Schema) -> Self {
        RowBinding {
            fields: schema
                .fields()
                .iter()
                .map(|f| (None, f.name.clone(), f.dtype))
                .collect(),
        }
    }

    fn resolve(&self, col: &ColumnRef) -> Result<usize> {
        let matches: Vec<usize> = self
            .fields
            .iter()
            .enumerate()
            .filter(|(_, (q, name, _))| {
                name == &col.column
                    && col
                        .table
                        .as_ref()
                        .map(|want| q.as_deref() == Some(want.as_str()))
                        .unwrap_or(true)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(RheemError::Query(format!(
                "unknown column `{}`",
                render_col(col)
            ))),
            _ => Err(RheemError::Query(format!(
                "ambiguous column `{}` (qualify it with a table name)",
                render_col(col)
            ))),
        }
    }

    fn dtype(&self, index: usize) -> DataType {
        self.fields[index].2
    }
}

fn render_col(col: &ColumnRef) -> String {
    match &col.table {
        Some(t) => format!("{t}.{}", col.column),
        None => col.column.clone(),
    }
}

// ---------------------------------------------------------------------------
// Expression lowering
// ---------------------------------------------------------------------------

/// Lower a SQL scalar expression to the core expression IR, resolving
/// columns against `binding`. `AND` / `OR` / `NOT` are two-valued over
/// truthiness (only `Bool(true)` is true), hence the `is_true` operands.
fn lower_expr(e: &Expr, binding: &RowBinding) -> Result<expr::Expr> {
    let bin = |l: &Expr, op: BinOp, r: &Expr| -> Result<expr::Expr> {
        Ok(lower_expr(l, binding)?.bin(op, lower_expr(r, binding)?))
    };
    let truth = |e: &Expr| -> Result<expr::Expr> { Ok(lower_expr(e, binding)?.is_true()) };
    Ok(match e {
        Expr::Column(c) => expr::Expr::field(binding.resolve(c)?),
        Expr::Literal(lit) => expr::Expr::Lit(match lit {
            Literal::Int(i) => Value::Int(*i),
            Literal::Float(x) => Value::Float(*x),
            Literal::Str(s) => Value::str(s),
            Literal::Bool(b) => Value::Bool(*b),
            Literal::Null => Value::Null,
        }),
        Expr::Cmp(l, op, r) => {
            let op = match op {
                CmpOp::Eq => BinOp::SqlEq,
                CmpOp::Neq => BinOp::SqlNe,
                CmpOp::Lt => BinOp::SqlLt,
                CmpOp::Lte => BinOp::SqlLe,
                CmpOp::Gt => BinOp::SqlGt,
                CmpOp::Gte => BinOp::SqlGe,
            };
            bin(l, op, r)?
        }
        Expr::Arith(l, op, r) => {
            let op = match op {
                ArithOp::Add => BinOp::Add,
                ArithOp::Sub => BinOp::Sub,
                ArithOp::Mul => BinOp::Mul,
                ArithOp::Div => BinOp::SqlDiv,
            };
            bin(l, op, r)?
        }
        Expr::And(l, r) => truth(l)?.and(truth(r)?),
        Expr::Or(l, r) => truth(l)?.or(truth(r)?),
        Expr::Not(e) => truth(e)?.not(),
        Expr::Neg(e) => lower_expr(e, binding)?.neg(),
    })
}

/// Best-effort output type of an expression (advisory only).
fn infer_type(expr: &Expr, binding: &RowBinding) -> DataType {
    match expr {
        Expr::Column(c) => binding
            .resolve(c)
            .map(|i| binding.dtype(i))
            .unwrap_or(DataType::Str),
        Expr::Literal(Literal::Int(_)) => DataType::Int,
        Expr::Literal(Literal::Float(_)) => DataType::Float,
        Expr::Literal(Literal::Str(_)) => DataType::Str,
        Expr::Literal(Literal::Bool(_)) => DataType::Bool,
        Expr::Literal(Literal::Null) => DataType::Str,
        Expr::Cmp(..) | Expr::And(..) | Expr::Or(..) | Expr::Not(_) => DataType::Bool,
        Expr::Arith(l, op, r) => {
            if *op != ArithOp::Div
                && infer_type(l, binding) == DataType::Int
                && infer_type(r, binding) == DataType::Int
            {
                DataType::Int
            } else {
                DataType::Float
            }
        }
        Expr::Neg(e) => infer_type(e, binding),
    }
}

// ---------------------------------------------------------------------------
// Planning
// ---------------------------------------------------------------------------

fn plan_query(catalog: &QueryCatalog, query: &Query) -> Result<PlannedQuery> {
    let mut from_def = catalog.table(&query.from)?.clone();
    let mut join = match &query.join {
        Some(clause) => Some((clause, catalog.table(&clause.table)?.clone())),
        None => None,
    };

    // Bind each scan to the lanes the statement reads; every clause below
    // resolves against the narrowed tables.
    let lanes = read_sets(
        query,
        &RowBinding::from_table(&query.from, &from_def.schema),
        join.as_ref()
            .map(|(clause, def)| RowBinding::from_table(&clause.table, &def.schema))
            .as_ref(),
    );
    if let Some((from_lanes, right_lanes)) = lanes {
        from_def = from_def.window(&from_lanes);
        if let Some((_, def)) = &mut join {
            *def = def.window(&right_lanes);
        }
    }

    let mut b = LogicalPlanBuilder::new();
    let mut scan = |name: &str, def: &TableDef| {
        b.add(
            format!("scan-{name}"),
            LogicalPayload::Source {
                name: name.to_string(),
                data: def.data.clone(),
            },
            vec![],
        )
    };
    let from_node = scan(&query.from, &from_def);
    let from_binding = RowBinding::from_table(&query.from, &from_def.schema);

    let (mut node, binding) = match &join {
        None => (from_node, from_binding),
        Some((clause, right_def)) => {
            let right_node = scan(&clause.table, right_def);
            let right_binding = RowBinding::from_table(&clause.table, &right_def.schema);
            let (lk, rk) = join_keys(clause, &from_binding, &right_binding)?;
            let joined = b.add(
                "join",
                LogicalPayload::Join {
                    left_key: KeyUdf::field(lk),
                    right_key: KeyUdf::field(rk),
                },
                vec![from_node, right_node],
            );
            (joined, RowBinding::joined(&from_binding, &right_binding))
        }
    };

    // WHERE.
    if let Some(filter) = &query.filter {
        node = b.add(
            "where",
            LogicalPayload::Filter(FilterUdf::from_expr("where", lower_expr(filter, &binding)?)),
            vec![node],
        );
    }

    // SELECT (+ GROUP BY): produce the output rows and schema.
    let grouped = !query.group_by.is_empty() || query.has_aggregates();
    let (out_node, out_schema) = if grouped {
        plan_grouped_select(query, &binding, &mut b, node)?
    } else {
        plan_plain_select(query, &binding, &mut b, node)?
    };
    node = out_node;

    // HAVING (over output columns).
    let out_binding = RowBinding::from_output(&out_schema);
    if let Some(having) = &query.having {
        if !grouped {
            return Err(RheemError::Query(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        node = b.add(
            "having",
            LogicalPayload::Filter(FilterUdf::from_expr(
                "having",
                lower_expr(having, &out_binding)?,
            )),
            vec![node],
        );
    }

    // ORDER BY (an output column or alias).
    if let Some(order) = &query.order_by {
        let idx = out_binding.resolve(&ColumnRef {
            table: None,
            column: order.column.clone(),
        })?;
        node = b.add(
            "order-by",
            LogicalPayload::Sort {
                key: KeyUdf::field(idx),
                descending: order.descending,
            },
            vec![node],
        );
    }

    // LIMIT.
    if let Some(n) = query.limit {
        node = b.add("limit", LogicalPayload::Limit { n }, vec![node]);
    }

    let sink = b.add("collect", LogicalPayload::Collect, vec![node]);
    let logical = b.build()?;
    Ok(PlannedQuery {
        logical,
        schema: out_schema,
        sink: NodeId(sink.0),
    })
}

/// JOIN: resolve each key against the side it belongs to (accepting either
/// order in the ON clause).
fn join_keys(join: &JoinClause, left: &RowBinding, right: &RowBinding) -> Result<(usize, usize)> {
    if let (Ok(l), Ok(r)) = (left.resolve(&join.left), right.resolve(&join.right)) {
        return Ok((l, r));
    }
    // Try the reversed orientation.
    let l = left.resolve(&join.right).map_err(|_| {
        RheemError::Query(format!(
            "join keys `{}` / `{}` do not match the joined tables",
            render_col(&join.left),
            render_col(&join.right)
        ))
    })?;
    let r = right.resolve(&join.left)?;
    Ok((l, r))
}

/// The lanes of the FROM table and of the JOIN table (empty without one)
/// that the statement reads, ascending: every column a SELECT item, an
/// aggregate argument, a JOIN key, WHERE or GROUP BY names. HAVING and
/// ORDER BY name output columns. `None` binds both tables whole: for
/// `SELECT *`, and when a name does not resolve, so the planner reports it
/// as it would have.
fn read_sets(
    query: &Query,
    from: &RowBinding,
    right: Option<&RowBinding>,
) -> Option<(Vec<usize>, Vec<usize>)> {
    let mut names: Vec<&ColumnRef> = query.group_by.iter().collect();
    for item in &query.select {
        match &item.expr {
            SelectExpr::Star => return None,
            SelectExpr::Expr(e) | SelectExpr::Agg(_, Some(e)) => columns_of(e, &mut names),
            SelectExpr::Agg(_, None) => {}
        }
    }
    if let Some(filter) = &query.filter {
        columns_of(filter, &mut names);
    }

    let mut from_lanes = Vec::new();
    let mut right_lanes = Vec::new();
    let joined;
    let binding = match (&query.join, right) {
        (Some(join), Some(right)) => {
            let (l, r) = join_keys(join, from, right).ok()?;
            from_lanes.push(l);
            right_lanes.push(r);
            joined = RowBinding::joined(from, right);
            &joined
        }
        _ => from,
    };
    let width = from.fields.len();
    for name in names {
        match binding.resolve(name).ok()? {
            i if i < width => from_lanes.push(i),
            i => right_lanes.push(i - width),
        }
    }
    for lanes in [&mut from_lanes, &mut right_lanes] {
        lanes.sort_unstable();
        lanes.dedup();
    }
    Some((from_lanes, right_lanes))
}

/// Push every column `e` names onto `out`.
fn columns_of<'a>(e: &'a Expr, out: &mut Vec<&'a ColumnRef>) {
    match e {
        Expr::Column(c) => out.push(c),
        Expr::Literal(_) => {}
        Expr::Cmp(l, _, r) | Expr::Arith(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            columns_of(l, out);
            columns_of(r, out);
        }
        Expr::Not(e) | Expr::Neg(e) => columns_of(e, out),
    }
}

/// Output column name for an item (alias > column name > function name),
/// deduplicated with `_2`, `_3`, ... suffixes.
fn output_names(query: &Query, binding: &RowBinding) -> Vec<(String, DataType)> {
    let mut names: Vec<(String, DataType)> = Vec::new();
    let push = |name: String, dtype: DataType, names: &mut Vec<(String, DataType)>| {
        let mut candidate = name.clone();
        let mut k = 2;
        while names.iter().any(|(n, _)| *n == candidate) {
            candidate = format!("{name}_{k}");
            k += 1;
        }
        names.push((candidate, dtype));
    };
    for item in &query.select {
        match &item.expr {
            SelectExpr::Star => {
                for (_, name, dtype) in &binding.fields {
                    push(name.clone(), *dtype, &mut names);
                }
            }
            SelectExpr::Expr(e) => {
                let name = item.alias.clone().unwrap_or_else(|| match e {
                    Expr::Column(c) => c.column.clone(),
                    _ => "expr".to_string(),
                });
                push(name, infer_type(e, binding), &mut names);
            }
            SelectExpr::Agg(f, arg) => {
                let name = item.alias.clone().unwrap_or_else(|| f.name().to_string());
                let dtype = match f {
                    AggFunc::Count => DataType::Int,
                    AggFunc::Avg => DataType::Float,
                    _ => arg
                        .as_ref()
                        .map(|e| infer_type(e, binding))
                        .unwrap_or(DataType::Float),
                };
                push(name, dtype, &mut names);
            }
        }
    }
    names
}

fn plan_plain_select(
    query: &Query,
    binding: &RowBinding,
    b: &mut LogicalPlanBuilder,
    input: crate::logical::LogicalNodeId,
) -> Result<(crate::logical::LogicalNodeId, Schema)> {
    let names = output_names(query, binding);
    let schema = Schema::new(names.clone().into_iter().collect::<Vec<_>>());

    // `SELECT *` alone needs no projection at all.
    if query.select.len() == 1 && matches!(query.select[0].expr, SelectExpr::Star) {
        return Ok((input, schema));
    }

    let mut cells: Vec<expr::Expr> = Vec::new();
    for item in &query.select {
        match &item.expr {
            SelectExpr::Star => cells.extend((0..binding.fields.len()).map(expr::Expr::field)),
            SelectExpr::Expr(e) => cells.push(lower_expr(e, binding)?),
            SelectExpr::Agg(f, _) => {
                return Err(RheemError::Query(format!(
                    "aggregate {}() without GROUP BY must not be mixed with plain columns \
                     unless they are grouped",
                    f.name()
                )))
            }
        }
    }
    let projected = b.add(
        "select",
        LogicalPayload::Map(MapUdf::from_exprs("select", cells)),
        vec![input],
    );
    Ok((projected, schema))
}

fn plan_grouped_select(
    query: &Query,
    binding: &RowBinding,
    b: &mut LogicalPlanBuilder,
    input: crate::logical::LogicalNodeId,
) -> Result<(crate::logical::LogicalNodeId, Schema)> {
    // Resolve group columns.
    let group_indices: Vec<usize> = query
        .group_by
        .iter()
        .map(|c| binding.resolve(c))
        .collect::<Result<_>>()?;

    // Validate and lower select items.
    let mut cells: Vec<GroupOutput> = Vec::new();
    for item in &query.select {
        match &item.expr {
            SelectExpr::Star => {
                return Err(RheemError::Query(
                    "SELECT * is not allowed with GROUP BY / aggregates".into(),
                ))
            }
            SelectExpr::Expr(Expr::Column(c)) => {
                let idx = binding.resolve(c)?;
                if !group_indices.contains(&idx) {
                    return Err(RheemError::Query(format!(
                        "column `{}` must appear in GROUP BY or inside an aggregate",
                        render_col(c)
                    )));
                }
                cells.push(GroupOutput::First(idx));
            }
            SelectExpr::Expr(_) => {
                return Err(RheemError::Query(
                    "grouped SELECT items must be plain group columns or aggregates".into(),
                ))
            }
            SelectExpr::Agg(f, arg) => cells.push(GroupOutput::Agg(Aggregate {
                func: match f {
                    AggFunc::Count => udf::AggFunc::Count,
                    AggFunc::Sum => udf::AggFunc::Sum,
                    AggFunc::Min => udf::AggFunc::Min,
                    AggFunc::Max => udf::AggFunc::Max,
                    AggFunc::Avg => udf::AggFunc::Avg,
                },
                arg: arg.as_ref().map(|e| lower_expr(e, binding)).transpose()?,
            })),
        }
    }

    let names = output_names(query, binding);
    let schema = Schema::new(names.into_iter().collect::<Vec<_>>());

    let key = KeyUdf::fields(group_indices);
    let group = GroupMapUdf::from_aggs("aggregate", cells);
    let node = b.add(
        "group-by",
        LogicalPayload::Group { key, group },
        vec![input],
    );
    Ok((node, schema))
}
