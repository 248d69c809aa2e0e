//! What an in-process table costs in heap, counted rather than read off RSS:
//! `QueryCatalog` holds a registered table once, as one chunk (28 B/row for
//! an `orders`-shaped table), and lets go of the rows it was given (80 B/row
//! more) — after registration, and after the benchmark's seven statements
//! have run over it, whichever engine runs them. A server session holds its
//! tables the same way (`crates/server/tests/register_footprint.rs`).
//!
//! Nor does registering cost more than it keeps: a window of rows keeps a
//! chunk of its own rows, not its parent's rows or a chunk of all of them,
//! and rows wider than their schema are converted once, straight to the
//! schema's width.
//!
//! A counting global allocator tracks the process's live heap bytes and
//! their high-water mark.

use std::sync::Mutex;

use rheem_core::query::QueryCatalog;
use rheem_core::{DataType, Dataset, Record, RheemContext, Schema, Value};
use testkit::{live_bytes, peak_bytes, reset_peak, CountingAllocator, STATEMENTS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `live_bytes` is process-wide: the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const ROWS: usize = 50_000;

fn orders_schema() -> Schema {
    Schema::new(vec![
        ("region", DataType::Str),
        ("amount", DataType::Int),
        ("price", DataType::Float),
        ("cust", DataType::Int),
    ])
}

/// `rows` `orders` rows, each with `extra` fields past the schema.
fn orders(rows: usize, extra: usize) -> Vec<Record> {
    let regions = ["east", "north", "south", "west", "centre"].map(Value::str);
    (0..rows as i64)
        .map(|i| {
            let mut fields = vec![
                regions[(i % 5) as usize].clone(),
                Value::Int(i),
                Value::Float((i * 37 % 4000) as f64 * 0.25),
                Value::Int(i * 7 % 1000),
            ];
            fields.extend((0..extra).map(|_| Value::Int(i)));
            Record::new(fields)
        })
        .collect()
}

fn customers() -> Vec<Record> {
    let segments = ["consumer", "corporate", "public", "smb"].map(Value::str);
    (0..1_000i64)
        .map(|id| Record::new(vec![Value::Int(id), segments[(id % 4) as usize].clone()]))
        .collect()
}

fn customers_schema() -> Schema {
    Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)])
}

fn turn() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner())
}

#[test]
fn a_catalog_holds_its_table_once_as_a_chunk() {
    let _turn = turn();
    for (engine, ctx) in [
        ("optimizer", rheem_platforms::full_context()),
        (
            "java",
            rheem_platforms::full_context().force_platform("java"),
        ),
    ] {
        let empty = live_bytes();
        let mut catalog = QueryCatalog::new();
        catalog.register("orders", orders_schema(), orders(ROWS, 0));
        catalog.register("customers", customers_schema(), customers());
        let per_row = |live: isize| (live - empty) as f64 / ROWS as f64;
        let registered = per_row(live_bytes());
        run_statements_twice(&catalog, &ctx);
        let queried = per_row(live_bytes());
        // The chunk is 28 B/row (4 B of dictionary codes and three 8 B
        // lanes); the rows beside it would be 16 B of `Record` and 4 x 16 B
        // of `Value` more.
        assert!(
            (28.0..48.0).contains(&registered),
            "{engine}: {registered:.1} B/row live after registering"
        );
        assert!(
            (28.0..48.0).contains(&queried),
            "{engine}: {queried:.1} B/row live after the statements"
        );
    }
}

/// Two rounds: the second runs on cached plans, over whatever view of the
/// table the first one may have materialized.
fn run_statements_twice(catalog: &QueryCatalog, ctx: &RheemContext) {
    for sql in STATEMENTS.iter().chain(&STATEMENTS) {
        let result = catalog.execute(ctx, sql).expect("the statement runs");
        assert!(!result.rows.is_empty(), "`{sql}` answered nothing");
    }
}

#[test]
fn a_registered_window_does_not_keep_its_parents_rows() {
    let _turn = turn();
    let empty = live_bytes();
    let parent = Dataset::new(orders(ROWS, 0));
    let rows = live_bytes() - empty;
    let window = parent.slice(1_000, 1_000);
    let mut catalog = QueryCatalog::new();
    catalog.register_dataset("orders", orders_schema(), window);
    drop(parent);
    let held = live_bytes() - empty;
    // A chunk of the window's own 1 000 rows (28 B each): neither the
    // parent's rows nor a chunk of all of them.
    assert!(
        held < 1_000 * 48,
        "{held} B held for a 1 000-row window of {rows} B of parent rows"
    );
    let ctx = rheem_platforms::full_context().force_platform("java");
    let result = catalog
        .execute(&ctx, "SELECT COUNT(*) AS n, MIN(amount) AS lo FROM orders")
        .expect("the window answers");
    let row = &result.rows.records()[0];
    assert_eq!(row.fields(), [Value::Int(1_000), Value::Int(1_000)]);
}

#[test]
fn rows_wider_than_their_schema_are_converted_once() {
    let _turn = turn();
    let empty = live_bytes();
    let wide = orders(ROWS, 1);
    let rows = live_bytes();
    reset_peak();
    let mut catalog = QueryCatalog::new();
    catalog.register("orders", orders_schema(), wide);
    let (peak, chunk) = (peak_bytes() - rows, live_bytes() - empty);
    // On top of the rows: the schema-wide chunk and the conversion's
    // scratch. A chunk of the rows' own width first, then the schema's,
    // would be 36 B/row more.
    assert!(
        chunk > 0 && peak <= chunk + chunk / 4,
        "{peak} B at the peak above the rows for a chunk of {chunk} B"
    );
    assert_eq!(
        catalog
            .execute(
                &rheem_platforms::full_context(),
                "SELECT COUNT(*) AS n FROM orders"
            )
            .expect("the table answers")
            .rows
            .records()[0]
            .fields(),
        [Value::Int(ROWS as i64)]
    );
}
