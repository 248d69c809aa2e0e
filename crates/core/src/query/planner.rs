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

use crate::data::{DataType, Dataset, Record, Schema, Value};
use crate::error::{Result, RheemError};
use crate::expr::{self, BinOp};
use crate::logical::{LogicalPayload, LogicalPlan, LogicalPlanBuilder};
use crate::plan::NodeId;
use crate::udf::{self, Aggregate, FilterUdf, GroupMapUdf, GroupOutput, KeyUdf, MapUdf};
use crate::{JobResult, RheemContext};

use super::ast::*;
use super::parser::parse;

/// Where a registered table's data comes from.
#[derive(Clone)]
pub enum TableSource {
    /// An in-memory collection.
    Collection(Dataset),
    /// A dataset in the storage layer.
    Storage(String),
}

/// A registered, queryable table.
#[derive(Clone)]
pub struct TableDef {
    /// Column names and types.
    pub schema: Schema,
    /// Data location.
    pub source: TableSource,
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

    /// Register an in-memory table given as rows.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        records: Vec<Record>,
    ) -> &mut Self {
        self.register_dataset(name, schema, Dataset::new(records))
    }

    /// Register an in-memory table in whichever view it already has — a
    /// chunk-built dataset is scanned as that chunk, and no row is built.
    pub fn register_dataset(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        data: Dataset,
    ) -> &mut Self {
        self.tables.insert(
            name.into(),
            TableDef {
                schema,
                source: TableSource::Collection(data),
            },
        );
        self
    }

    /// Register a table backed by the storage layer.
    pub fn register_storage(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
        dataset_id: impl Into<String>,
    ) -> &mut Self {
        self.tables.insert(
            name.into(),
            TableDef {
                schema,
                source: TableSource::Storage(dataset_id.into()),
            },
        );
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
    let from_def = catalog.table(&query.from)?;
    let mut b = LogicalPlanBuilder::new();

    let source_payload = |def: &TableDef, name: &str| match &def.source {
        TableSource::Collection(data) => LogicalPayload::Source {
            name: name.to_string(),
            data: data.clone(),
        },
        TableSource::Storage(id) => LogicalPayload::StorageSource {
            dataset_id: id.clone(),
        },
    };

    let from_node = b.add(
        format!("scan-{}", query.from),
        source_payload(from_def, &query.from),
        vec![],
    );
    let from_binding = RowBinding::from_table(&query.from, &from_def.schema);

    // JOIN: resolve each key against the side it belongs to (accepting
    // either order in the ON clause).
    let (mut node, binding) = match &query.join {
        None => (from_node, from_binding),
        Some(join) => {
            let right_def = catalog.table(&join.table)?;
            let right_node = b.add(
                format!("scan-{}", join.table),
                source_payload(right_def, &join.table),
                vec![],
            );
            let right_binding = RowBinding::from_table(&join.table, &right_def.schema);
            let (lk, rk) = match (
                from_binding.resolve(&join.left),
                right_binding.resolve(&join.right),
            ) {
                (Ok(l), Ok(r)) => (l, r),
                _ => {
                    // Try the reversed orientation.
                    let l = from_binding.resolve(&join.right).map_err(|_| {
                        RheemError::Query(format!(
                            "join keys `{}` / `{}` do not match the joined tables",
                            render_col(&join.left),
                            render_col(&join.right)
                        ))
                    })?;
                    let r = right_binding.resolve(&join.left)?;
                    (l, r)
                }
            };
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
