//! The declarative path (paper §3.2): SQL in, multi-platform execution out.
//!
//! "An application developer could also expose a declarative language for
//! users to define their tasks (e.g., queries). The application is then
//! responsible for translating a declarative query into a logical plan."
//!
//! Run with: `cargo run --example sql_analytics --release`

use std::sync::Arc;

use rheem::prelude::*;
use rheem_core::query::QueryCatalog;
use rheem_core::DataType;
use rheem_datagen::{customers, orders};

fn main() -> Result<(), RheemError> {
    let ctx = RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(8)))
        .with_platform(Arc::new(RelationalPlatform::new()));

    // Register the tables once, with schemas.
    let mut catalog = QueryCatalog::new();
    catalog.register(
        "orders",
        Schema::new(vec![
            ("id", DataType::Int),
            ("cust", DataType::Int),
            ("amount", DataType::Float),
        ]),
        orders(100_000, 5_000, 7),
    );
    catalog.register(
        "customers",
        Schema::new(vec![
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("region", DataType::Str),
        ]),
        customers(5_000, 8, 8),
    );

    let sql = "SELECT region, COUNT(*) AS n, SUM(amount) AS revenue, AVG(amount) AS mean \
               FROM orders JOIN customers ON orders.cust = customers.id \
               WHERE amount > 250 \
               GROUP BY region \
               HAVING n > 100 \
               ORDER BY revenue DESC \
               LIMIT 5";
    println!("query:\n  {sql}\n");

    let result = catalog.execute(&ctx, sql)?;
    let header: Vec<&str> = result
        .schema
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    println!("{}", header.join("\t"));
    for row in result.rows.iter() {
        let cells: Vec<String> = row.fields().iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    println!(
        "\nexecuted on {:?} in {:.1} simulated ms ({} task atoms)",
        result.job.stats.platforms_used(),
        result.job.stats.total_simulated_ms(),
        result.job.stats.atoms.len(),
    );
    Ok(())
}
