//! The served path is the columnar path, asserted from the server's own
//! output: the seven statements of the end-to-end benchmark (`benchmark/`'s
//! five scan statements and two wide ones) lower without a single opaque
//! closure, and executing them over the socket runs no row-at-a-time kernel
//! — `kernel.path.row` in `STATS` stays 0 while `kernel.path.columnar`
//! counts every operator — and every result leaves the server encoded from
//! its chunk: `server.result.path.row` stays 0 too. A table with no columnar
//! layout (ragged rows) shows the fallback: its result is counted under
//! `.row` and is just as right. The tables arrive the same way: a `REGISTER`
//! frame is decoded into the chunk the catalog holds
//! (`server.register.path.columnar`), and only a frame with no columnar
//! layout registers rows (`.row`). Which path an operator took is decided in
//! one place (`kernels::execute`), so the counts are the same whichever
//! engine is forced to run the statements.

use rheem_core::query::QueryCatalog;
use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::{Client, RheemServer, ServerConfig};
use testkit::STATEMENTS;

fn orders_schema() -> Schema {
    Schema::new(vec![
        ("region", DataType::Str),
        ("amount", DataType::Int),
        ("price", DataType::Float),
        ("cust", DataType::Int),
    ])
}

fn customers_schema() -> Schema {
    Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)])
}

/// 1 000 orders over 40 customers: small enough that the optimizer keeps
/// every statement on the single-process platform, whose operators report
/// the path they actually took.
fn orders() -> Vec<Record> {
    (0..1_000i64)
        .map(|i| {
            Record::new(vec![
                Value::str(["east", "north", "south", "west", "centre"][(i % 5) as usize]),
                Value::Int(i),
                Value::Float((i * 37 % 4000) as f64 * 0.25),
                Value::Int(i * 7 % 40),
            ])
        })
        .collect()
}

fn customers() -> Vec<Record> {
    (0..40i64)
        .map(|id| {
            Record::new(vec![
                Value::Int(id),
                Value::str(["consumer", "corporate", "public", "smb"][(id % 4) as usize]),
            ])
        })
        .collect()
}

/// The value of a `counter <name> <value>` line of `STATS`.
fn counter(stats: &str, name: &str) -> u64 {
    stats
        .lines()
        .find_map(|line| line.strip_prefix(&format!("counter {name} ")))
        .unwrap_or_else(|| panic!("no counter `{name}` in:\n{stats}"))
        .trim()
        .parse()
        .expect("a counter value")
}

#[test]
fn the_benchmark_statements_lower_without_opaque_closures() {
    let mut catalog = QueryCatalog::new();
    catalog.register("orders", orders_schema(), orders());
    catalog.register("customers", customers_schema(), customers());
    let fingerprint = |sql: &str| {
        let planned = catalog.plan(sql).expect("plans");
        planned.logical.lower().expect("lowers").fingerprint()
    };
    let mut hashes = Vec::new();
    for sql in STATEMENTS {
        let fp = fingerprint(sql);
        // Transparent: no closure was hashed by identity, so the plan
        // cache keys this plan server-wide (scope 0)...
        assert!(!fp.opaque, "`{sql}` carries an opaque closure");
        // ... where planning the same statement again finds it,
        assert_eq!(fp, fingerprint(sql), "`{sql}` does not fingerprint stably");
        hashes.push(fp.hash);
    }
    // ... and no two statements share an entry.
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        STATEMENTS.len(),
        "two statements share a fingerprint"
    );
}

#[test]
fn the_benchmark_statements_run_on_columnar_kernels_only() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "columnar").expect("connect");
    client
        .register("orders", orders_schema(), orders())
        .expect("orders registers");
    client
        .register("customers", customers_schema(), customers())
        .expect("customers registers");
    for sql in STATEMENTS {
        let (_, rows) = client.query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert!(!rows.is_empty(), "`{sql}` answered nothing");
    }
    let stats = client.stats().expect("stats");
    // Both tables went into the catalog as the chunks their frames decoded
    // to; no row was built to register them.
    assert_eq!(
        counter(&stats, "server.register.path.columnar"),
        2,
        "{stats}"
    );
    assert_eq!(counter(&stats, "server.register.path.row"), 0, "{stats}");
    // Every operator of every statement — scans, fused pipelines, hash
    // aggregates, the join, sorts, limits, sinks — stayed off the rows; an
    // opaque closure or a row-path keyed kernel would have counted here.
    assert_eq!(counter(&stats, "kernel.path.row"), 0, "{stats}");
    // 7 statements of at least scan + operator + sink each.
    assert!(counter(&stats, "kernel.path.columnar") >= 21, "{stats}");
    // Nor was a row built to answer: each response body was written from
    // the sink's chunk.
    assert_eq!(counter(&stats, "server.result.path.row"), 0, "{stats}");
    assert_eq!(
        counter(&stats, "server.result.path.columnar"),
        STATEMENTS.len() as u64,
        "{stats}"
    );
    client.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn a_result_without_a_chunk_leaves_by_the_row_walk() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "ragged").expect("connect");
    // The second row is a field short of its schema: no columnar layout.
    let rows = vec![
        Record::new(vec![Value::Int(1), Value::str("x")]),
        Record::new(vec![Value::Int(2)]),
        Record::new(vec![Value::Int(3), Value::Null]),
    ];
    let schema = Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]);
    client
        .register("t", schema.clone(), rows.clone())
        .expect("registers");
    let (answered, answer) = client.query("SELECT * FROM t").expect("answers");
    assert_eq!((answered, answer), (schema, rows));
    let stats = client.stats().expect("stats");
    assert_eq!(counter(&stats, "server.register.path.row"), 1, "{stats}");
    assert_eq!(
        counter(&stats, "server.register.path.columnar"),
        0,
        "{stats}"
    );
    assert_eq!(counter(&stats, "server.result.path.row"), 1, "{stats}");
    assert_eq!(counter(&stats, "server.result.path.columnar"), 0, "{stats}");
    client.goodbye().expect("goodbye");
    server.shutdown();
}

/// `(kernel.path.columnar, kernel.path.row)` after the seven statements,
/// and what a `LIMIT` over a ragged table adds to each, with every atom
/// forced onto `platform`.
fn kernel_paths_on(platform: &str) -> [(u64, u64); 2] {
    let ctx = rheem_platforms::test_context().force_platform(platform);
    let mut server =
        RheemServer::start_with_context(ServerConfig::default(), ctx).expect("server starts");
    let mut client = Client::connect(server.addr(), "forced").expect("connect");
    client
        .register("orders", orders_schema(), orders())
        .expect("orders registers");
    client
        .register("customers", customers_schema(), customers())
        .expect("customers registers");
    let paths = |client: &mut Client| {
        let stats = client.stats().expect("stats");
        (
            counter(&stats, "kernel.path.columnar"),
            counter(&stats, "kernel.path.row"),
        )
    };
    for sql in STATEMENTS {
        let (_, rows) = client.query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        assert!(!rows.is_empty(), "`{sql}` answered nothing on {platform}");
    }
    let seven = paths(&mut client);
    // The second row is a field short of its schema: no columnar layout.
    let ragged = vec![
        Record::new(vec![Value::Int(1), Value::str("x")]),
        Record::new(vec![Value::Int(2)]),
        Record::new(vec![Value::Int(3), Value::Null]),
    ];
    let schema = Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]);
    client.register("t", schema, ragged).expect("registers");
    let (_, rows) = client.query("SELECT a FROM t LIMIT 2").expect("answers");
    assert_eq!(
        rows,
        [Value::Int(1), Value::Int(2)].map(|a| Record::new(vec![a])),
        "on {platform}"
    );
    let after = paths(&mut client);
    client.goodbye().expect("goodbye");
    server.shutdown();
    [seven, (after.0 - seven.0, after.1 - seven.1)]
}

#[test]
fn every_engine_reports_the_same_kernel_paths() {
    let [seven, ragged] = kernel_paths_on("java");
    assert_eq!(seven.1, 0, "a benchmark statement ran a row kernel");
    assert!(
        seven.0 >= 21,
        "7 statements of at least scan + operator + sink"
    );
    // The projection of a ragged table runs on rows; the scan, the prefix
    // and the sink only pass their dataset along.
    assert_eq!(ragged, (3, 1));
    for platform in ["sparklike", "mapreduce"] {
        assert_eq!(kernel_paths_on(platform), [seven, ragged], "{platform}");
    }
}
