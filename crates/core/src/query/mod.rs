//! A declarative query interface on top of the logical layer.
//!
//! §3.2 of the paper: "In addition to logical operators, an application
//! developer could also expose a declarative language for users to define
//! their tasks (e.g., queries). The application is then responsible for
//! translating a declarative query into a logical plan." This module is
//! that path: a small SQL dialect (SELECT / FROM / JOIN / WHERE / GROUP BY
//! / HAVING / ORDER BY / LIMIT) parsed by [`parser::parse`] and planned by
//! [`QueryCatalog::plan`] into an ordinary [`crate::logical::LogicalPlan`]
//! — from there the usual machinery applies: declarative operator
//! mappings, rewrites, multi-platform optimization, task atoms.
//!
//! ```
//! use rheem_core::data::{DataType, Schema};
//! use rheem_core::query::QueryCatalog;
//! use rheem_core::rec;
//!
//! let mut catalog = QueryCatalog::new();
//! catalog.register(
//!     "people",
//!     Schema::new(vec![("name", DataType::Str), ("age", DataType::Int)]),
//!     vec![rec!["ada", 36i64], rec!["carl", 17i64]],
//! );
//! let planned = catalog.plan("SELECT name FROM people WHERE age >= 18").unwrap();
//! assert_eq!(planned.schema.fields()[0].name, "name");
//! ```

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod planner;

pub use parser::parse;
pub use planner::{PlannedQuery, QueryCatalog, QueryResult, TableDef, TableSource};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::data::{DataType, Record, Schema, Value};
    use crate::interpreter;
    use crate::platform::ExecutionContext;
    use crate::rec;

    fn orders_schema() -> Schema {
        Schema::new(vec![
            ("id", DataType::Int),
            ("cust", DataType::Int),
            ("amount", DataType::Float),
        ])
    }

    fn customers_schema() -> Schema {
        Schema::new(vec![
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("region", DataType::Str),
        ])
    }

    fn catalog() -> QueryCatalog {
        let mut c = QueryCatalog::new();
        c.register(
            "orders",
            orders_schema(),
            vec![
                rec![1i64, 10i64, 250.0],
                rec![2i64, 11i64, 75.0],
                rec![3i64, 10i64, 125.0],
                rec![4i64, 12i64, 900.0],
                rec![5i64, 11i64, 50.0],
            ],
        );
        c.register(
            "customers",
            customers_schema(),
            vec![
                rec![10i64, "ada", "EU"],
                rec![11i64, "bob", "US"],
                rec![12i64, "eve", "EU"],
            ],
        );
        c
    }

    /// Plan and run a query on the reference interpreter.
    fn run(sql: &str) -> (Vec<Record>, Schema) {
        let planned = catalog().plan(sql).unwrap();
        let physical = planned.logical.lower().unwrap();
        let outputs = interpreter::run_plan(&physical, &ExecutionContext::new()).unwrap();
        let rows = outputs[&planned.sink].records().to_vec();
        (rows, planned.schema)
    }

    #[test]
    fn select_star() {
        let (rows, schema) = run("SELECT * FROM customers");
        assert_eq!(rows.len(), 3);
        assert_eq!(schema.width(), 3);
        assert_eq!(schema.index_of("region"), Some(2));
    }

    #[test]
    fn filter_and_projection_with_arithmetic() {
        let (rows, schema) =
            run("SELECT id, amount * 2 AS double_amount FROM orders WHERE amount >= 100");
        assert_eq!(schema.fields()[1].name, "double_amount");
        assert_eq!(rows.len(), 3);
        let first = &rows[0];
        assert_eq!(first.int(0).unwrap(), 1);
        assert_eq!(first.float(1).unwrap(), 500.0);
    }

    #[test]
    fn join_groups_and_aggregates() {
        let (rows, schema) = run(
            "SELECT region, COUNT(*) AS n, SUM(amount) AS total, AVG(amount) AS mean \
             FROM orders JOIN customers ON orders.cust = customers.id \
             GROUP BY region ORDER BY total DESC",
        );
        assert_eq!(
            schema
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            vec!["region", "n", "total", "mean"]
        );
        assert_eq!(rows.len(), 2);
        // EU: orders 1 (250), 3 (125), 4 (900) = 1275; US: 75 + 50 = 125.
        assert_eq!(rows[0].str(0).unwrap(), "EU");
        assert_eq!(rows[0].int(1).unwrap(), 3);
        assert_eq!(rows[0].float(2).unwrap(), 1275.0);
        assert!((rows[0].float(3).unwrap() - 425.0).abs() < 1e-9);
        assert_eq!(rows[1].str(0).unwrap(), "US");
    }

    #[test]
    fn having_filters_groups() {
        let (rows, _) =
            run("SELECT cust, COUNT(*) AS n FROM orders GROUP BY cust HAVING n >= 2 ORDER BY cust");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].int(0).unwrap(), 10);
        assert_eq!(rows[1].int(0).unwrap(), 11);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let (rows, _) = run("SELECT COUNT(*), MIN(amount), MAX(amount) FROM orders");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].int(0).unwrap(), 5);
        assert_eq!(rows[0].float(1).unwrap(), 50.0);
        assert_eq!(rows[0].float(2).unwrap(), 900.0);
    }

    #[test]
    fn order_by_and_limit() {
        let (rows, _) = run("SELECT id FROM orders ORDER BY id DESC LIMIT 2");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].int(0).unwrap(), 5);
        assert_eq!(rows[1].int(0).unwrap(), 4);
    }

    #[test]
    fn sum_of_ints_stays_int() {
        let mut c = QueryCatalog::new();
        c.register(
            "t",
            Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]),
            vec![rec![1i64, 10i64], rec![1i64, 20i64]],
        );
        let planned = c.plan("SELECT k, SUM(v) AS s FROM t GROUP BY k").unwrap();
        let physical = planned.logical.lower().unwrap();
        let outputs = interpreter::run_plan(&physical, &ExecutionContext::new()).unwrap();
        let rows = outputs[&planned.sink].records();
        assert_eq!(rows[0].get(1).unwrap(), &Value::Int(30));
    }

    #[test]
    fn null_semantics() {
        let mut c = QueryCatalog::new();
        c.register(
            "t",
            Schema::new(vec![("x", DataType::Int)]),
            vec![
                Record::new(vec![Value::Int(1)]),
                Record::new(vec![Value::Null]),
                Record::new(vec![Value::Int(3)]),
            ],
        );
        let planned = c
            .plan("SELECT COUNT(*) AS all_rows, COUNT(x) AS non_null, SUM(x) AS s FROM t")
            .unwrap();
        let physical = planned.logical.lower().unwrap();
        let outputs = interpreter::run_plan(&physical, &ExecutionContext::new()).unwrap();
        let r = &outputs[&planned.sink].records()[0];
        assert_eq!(r.int(0).unwrap(), 3);
        assert_eq!(r.int(1).unwrap(), 2);
        assert_eq!(r.int(2).unwrap(), 4);
        // A NULL comparison is not truthy: the row vanishes from WHERE.
        let planned = c.plan("SELECT x FROM t WHERE x > 0").unwrap();
        let physical = planned.logical.lower().unwrap();
        let outputs = interpreter::run_plan(&physical, &ExecutionContext::new()).unwrap();
        assert_eq!(outputs[&planned.sink].len(), 2);
    }

    #[test]
    fn duplicate_output_names_are_disambiguated() {
        let (rows, schema) = run("SELECT id, id FROM customers LIMIT 1");
        assert_eq!(schema.fields()[0].name, "id");
        assert_eq!(schema.fields()[1].name, "id_2");
        assert_eq!(rows[0].int(0).unwrap(), rows[0].int(1).unwrap());
    }

    #[test]
    fn planning_errors_are_helpful() {
        let c = catalog();
        let err = c.plan("SELECT nope FROM orders").unwrap_err();
        assert!(err.to_string().contains("unknown column"), "{err}");
        let err = c.plan("SELECT id FROM nope").unwrap_err();
        assert!(err.to_string().contains("unknown table"), "{err}");
        let err = c
            .plan("SELECT orders.id FROM orders JOIN customers ON orders.cust = customers.id GROUP BY region")
            .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"), "{err}");
        let err = c
            .plan("SELECT amount FROM orders GROUP BY cust")
            .unwrap_err();
        assert!(err.to_string().contains("must appear in GROUP BY"), "{err}");
        let err = c.plan("SELECT id FROM orders HAVING id > 1").unwrap_err();
        assert!(err.to_string().contains("HAVING"), "{err}");
        // Ambiguous column across a join.
        let err = c
            .plan("SELECT id FROM orders JOIN customers ON orders.cust = customers.id")
            .unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn join_key_orientation_is_flexible() {
        // ON right = left also works.
        let (rows, _) = run(
            "SELECT name FROM orders JOIN customers ON customers.id = orders.cust \
             WHERE amount > 800",
        );
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].str(0).unwrap(), "eve");
    }

    #[test]
    fn end_to_end_on_a_context() {
        use crate::RheemContext;
        // A context with the reference-quality single-process platform from
        // this crate's tests is not available here; use a trivial platform
        // via the public trait. Instead we exercise `execute` through the
        // logical path indirectly in the integration tests; here we check
        // that planning composes with lowering and optimization.
        let planned = catalog()
            .plan("SELECT region, COUNT(*) AS n FROM orders JOIN customers ON orders.cust = customers.id GROUP BY region")
            .unwrap();
        let ctx = RheemContext::new();
        // No platform registered: optimization must fail cleanly, proving
        // the logical plan is structurally valid but needs a platform.
        assert!(ctx.optimize_logical(&planned.logical).is_err());
        let _ = Arc::new(()); // silence unused-import lint paths
    }
}
