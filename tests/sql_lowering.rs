//! SQL lowers to the columnar engine without changing a single answer.
//!
//! The planner hands the core declarative forms only — `Expr` predicates and
//! projections, field-tuple keys, aggregate specs — and the executor runs
//! them on chunks. SQL's semantics are the contract; four layers of tests
//! hold the engine to it:
//!
//! * **(a)** a literal table of expected rows pinning every semantic trap:
//!   an `Int` literal against a `Float` column, `NULL` in predicates, keys
//!   and aggregate inputs, a mixed-type column, `/0`, empty input with and
//!   without `GROUP BY`, multi-column `GROUP BY`, `HAVING` and `ORDER BY`
//!   over aliases, `±0.0` and `NaN` keys — answered in process and over a
//!   real server socket;
//! * **(b)** generated queries over generated dirty tables must give one
//!   result however they run: row-at-a-time through the UDFs' derived
//!   closures, on each platform forced, through the full optimizer at
//!   thread budgets 1 and 4, on one engine at budgets 1 and N, with the
//!   plan cache cold and hit, within and past the enumerator's budget, through the
//!   wire codec, and over a copy of the table with unread columns ahead of
//!   the read ones;
//! * **(c)** `Float` `SUM` / `AVG` over 0.1-step data — where addition is
//!   not associative — are bit-identical across all of those, because every
//!   group folds in row order wherever it runs;
//! * **(d)** each scan binds exactly the lanes its statement reads, as the
//!   catalog's own lanes, however its table was registered.

use std::sync::Arc;

use proptest::prelude::*;
use rheem::prelude::*;
use rheem_core::logical::LogicalPayload;
use rheem_core::{Chunk, Column, PhysicalOp, PlanCache, PlanCacheConfig};
use rheem_server::protocol::Response;
use rheem_server::{Client, RheemServer, ServerConfig};
use testkit::{budget, Rng};

// ---------------------------------------------------------------------------
// Cell shorthands and the trap tables
// ---------------------------------------------------------------------------

const N: Value = Value::Null;

fn i(v: i64) -> Value {
    Value::Int(v)
}
fn f(v: f64) -> Value {
    Value::Float(v)
}
fn s(v: &str) -> Value {
    Value::str(v)
}
fn b(v: bool) -> Value {
    Value::Bool(v)
}
const NAN: f64 = f64::NAN;

/// `t(k, g, x, f, m)`: NULLs in every column, `±0.0` and `NaN` in `f`, and
/// `m` declared `Float` but holding `Int`, `Float`, `Str`, `Bool` and NULL.
fn trap_t() -> Vec<Record> {
    [
        vec![s("a"), i(1), i(10), f(1.5), i(5)],
        vec![s("b"), i(2), N, f(2.5), f(5.0)],
        vec![s("a"), i(1), i(30), N, s("s")],
        vec![N, i(2), i(40), f(-0.0), N],
        vec![s("b"), N, i(50), f(0.0), i(7)],
        vec![s("a"), i(2), i(60), f(NAN), f(0.5)],
        vec![s("c"), i(1), i(-5), f(500.0), b(true)],
    ]
    .into_iter()
    .map(Record::new)
    .collect()
}

fn t_schema() -> Schema {
    Schema::new(vec![
        ("k", DataType::Str),
        ("g", DataType::Int),
        ("x", DataType::Int),
        ("f", DataType::Float),
        ("m", DataType::Float),
    ])
}

/// `d(k, w)`: the join side, with a NULL key and a repeated key.
fn trap_d() -> Vec<Record> {
    [
        vec![s("a"), i(100)],
        vec![N, i(200)],
        vec![s("b"), i(300)],
        vec![s("a"), i(400)],
    ]
    .into_iter()
    .map(Record::new)
    .collect()
}

fn d_schema() -> Schema {
    Schema::new(vec![("k", DataType::Str), ("w", DataType::Int)])
}

/// `o(k, v)`: an `Int` column whose sum passes `i64::MAX`.
fn trap_o() -> Vec<Record> {
    [
        vec![s("a"), i(i64::MAX)],
        vec![s("a"), i(1)],
        vec![s("b"), N],
        vec![s("b"), i(5)],
    ]
    .into_iter()
    .map(Record::new)
    .collect()
}

fn o_schema() -> Schema {
    Schema::new(vec![("k", DataType::Str), ("v", DataType::Int)])
}

/// `r(k, v)`: `o` with its trailing NULL cut off; the catalog pads the short
/// row back to its schema.
fn trap_r() -> Vec<Record> {
    ragged_twin(trap_o())
}

/// The trap tables, plus `e(k, v)`, which has no rows, and the ragged `r`.
fn catalog_of(t: Vec<Record>, d: Vec<Record>) -> QueryCatalog {
    let mut catalog = QueryCatalog::new();
    catalog.register("t", t_schema(), t);
    catalog.register("d", d_schema(), d);
    catalog.register("o", o_schema(), trap_o());
    catalog.register("e", o_schema(), Vec::new());
    catalog.register("r", o_schema(), trap_r());
    catalog
}

/// Every trap with the rows it must answer, in order. Where a query has no
/// `ORDER BY`, rows come in the engine's deterministic order on one
/// platform: input order for projections, ascending key tuple for groups.
fn traps() -> Vec<(&'static str, Vec<Vec<Value>>)> {
    vec![
        // An Int literal against a Float column compares numerically; the
        // NULL and NaN rows are not `< 500`, the 500.0 row is `<= 500`.
        (
            "SELECT k, x FROM t WHERE f < 500",
            vec![
                vec![s("a"), i(10)],
                vec![s("b"), N],
                vec![N, i(40)],
                vec![s("b"), i(50)],
            ],
        ),
        (
            "SELECT k, x FROM t WHERE f <= 500",
            vec![
                vec![s("a"), i(10)],
                vec![s("b"), N],
                vec![N, i(40)],
                vec![s("b"), i(50)],
                vec![s("c"), i(-5)],
            ],
        ),
        // A NULL comparison is not truthy; NOT of it is (two-valued logic).
        (
            "SELECT k FROM t WHERE x > 20",
            vec![vec![s("a")], vec![N], vec![s("b")], vec![s("a")]],
        ),
        (
            "SELECT k FROM t WHERE NOT (x > 20)",
            vec![vec![s("a")], vec![s("b")], vec![s("c")]],
        ),
        (
            "SELECT k FROM t WHERE x > 20 AND f < 3",
            vec![vec![N], vec![s("b")]],
        ),
        (
            "SELECT k FROM t WHERE x > 20 OR f < 2",
            vec![
                vec![s("a")],
                vec![s("a")],
                vec![N],
                vec![s("b")],
                vec![s("a")],
            ],
        ),
        (
            "SELECT x > 20 AND f < 3 AS c, NOT (f < 2) AS d, x > 20 OR f < 2 AS e FROM t",
            vec![
                vec![b(false), b(false), b(true)],
                vec![b(false), b(true), b(false)],
                vec![b(false), b(true), b(true)],
                vec![b(true), b(false), b(true)],
                vec![b(true), b(false), b(true)],
                vec![b(false), b(true), b(true)],
                vec![b(false), b(true), b(false)],
            ],
        ),
        // `/` is always Float; a zero divisor of either sign is NULL.
        (
            "SELECT x / 0 AS q, x / 4 AS r, f / 0 AS s, x / f AS u FROM t",
            vec![
                vec![N, f(2.5), N, f(10.0 / 1.5)],
                vec![N, N, N, N],
                vec![N, f(7.5), N, N],
                vec![N, f(10.0), N, N],
                vec![N, f(12.5), N, N],
                vec![N, f(15.0), N, f(NAN)],
                vec![N, f(-1.25), N, f(-0.01)],
            ],
        ),
        (
            "SELECT x + 1 AS a, x * f AS p, -x AS neg, x - f AS d, -f AS nf FROM t",
            vec![
                vec![i(11), f(15.0), i(-10), f(8.5), f(-1.5)],
                vec![N, N, N, N, f(-2.5)],
                vec![i(31), N, i(-30), N, N],
                vec![i(41), f(-0.0), i(-40), f(40.0), f(0.0)],
                vec![i(51), f(0.0), i(-50), f(50.0), f(-0.0)],
                vec![i(61), f(NAN), i(-60), f(NAN), f(-NAN)],
                vec![i(-4), f(-2500.0), i(5), f(-505.0), f(-500.0)],
            ],
        ),
        // NULL is a key of its own; COUNT(x) skips NULLs, SUM stays Int,
        // AVG is Float, MAX under total_cmp picks NaN.
        (
            "SELECT k, COUNT(*) AS n, COUNT(x) AS nx, SUM(x) AS sx, AVG(x) AS ax, MIN(f) AS lo, \
             MAX(f) AS hi FROM t GROUP BY k ORDER BY k",
            vec![
                vec![N, i(1), i(1), i(40), f(40.0), f(-0.0), f(-0.0)],
                vec![s("a"), i(3), i(3), i(100), f(100.0 / 3.0), f(1.5), f(NAN)],
                vec![s("b"), i(2), i(1), i(50), f(50.0), f(0.0), f(2.5)],
                vec![s("c"), i(1), i(1), i(-5), f(-5.0), f(500.0), f(500.0)],
            ],
        ),
        // Multi-column GROUP BY: groups ascend by key tuple, NULL first.
        (
            "SELECT k, g, COUNT(*) AS n, SUM(f) AS sf FROM t GROUP BY k, g",
            vec![
                vec![N, i(2), i(1), f(0.0)],
                vec![s("a"), i(1), i(2), f(1.5)],
                vec![s("a"), i(2), i(1), f(NAN)],
                vec![s("b"), N, i(1), f(0.0)],
                vec![s("b"), i(2), i(1), f(2.5)],
                vec![s("c"), i(1), i(1), f(500.0)],
            ],
        ),
        // ORDER BY over an alias is a stable sort of the grouped rows.
        (
            "SELECT g, k, COUNT(*) AS n FROM t GROUP BY g, k ORDER BY n DESC",
            vec![
                vec![i(1), s("a"), i(2)],
                vec![N, s("b"), i(1)],
                vec![i(1), s("c"), i(1)],
                vec![i(2), N, i(1)],
                vec![i(2), s("a"), i(1)],
                vec![i(2), s("b"), i(1)],
            ],
        ),
        // HAVING over an alias.
        (
            "SELECT g, SUM(x) AS total FROM t GROUP BY g HAVING total > 40 ORDER BY total DESC",
            vec![vec![i(2), i(100)], vec![N, i(50)]],
        ),
        (
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g HAVING NOT (n > 2) ORDER BY g",
            vec![vec![N, i(1)]],
        ),
        // Empty input: a global aggregate still answers one row (COUNT 0,
        // everything else NULL); a grouped one answers none.
        (
            "SELECT COUNT(*) AS n, SUM(x) AS s, MIN(x) AS lo, AVG(x) AS a FROM t WHERE x > 1000",
            vec![vec![i(0), N, N, N]],
        ),
        (
            "SELECT k, COUNT(*) AS n FROM t WHERE x > 1000 GROUP BY k",
            vec![],
        ),
        // The mixed-type column: numeric aggregates skip Str and Bool,
        // COUNT counts every non-NULL, comparisons across types are NULL.
        (
            "SELECT SUM(m) AS s, MIN(m) AS lo, MAX(m) AS hi, COUNT(m) AS n, AVG(m) AS a FROM t",
            vec![vec![f(17.5), f(0.5), i(7), i(6), f(4.375)]],
        ),
        (
            "SELECT k FROM t WHERE m > 4",
            vec![vec![s("a")], vec![s("b")], vec![s("b")]],
        ),
        (
            "SELECT k FROM t WHERE m = 5",
            vec![vec![s("a")], vec![s("b")]],
        ),
        // As keys, Int 5 and Float 5.0 are different values.
        (
            "SELECT m, COUNT(*) AS n FROM t GROUP BY m",
            vec![
                vec![N, i(1)],
                vec![b(true), i(1)],
                vec![i(5), i(1)],
                vec![i(7), i(1)],
                vec![f(0.5), i(1)],
                vec![f(5.0), i(1)],
                vec![s("s"), i(1)],
            ],
        ),
        // -0.0, 0.0 and NaN are three different keys.
        (
            "SELECT f, COUNT(*) AS n FROM t GROUP BY f",
            vec![
                vec![N, i(1)],
                vec![f(-0.0), i(1)],
                vec![f(0.0), i(1)],
                vec![f(1.5), i(1)],
                vec![f(2.5), i(1)],
                vec![f(500.0), i(1)],
                vec![f(NAN), i(1)],
            ],
        ),
        (
            "SELECT g, MAX(m) AS hi, MIN(m) AS lo FROM t GROUP BY g ORDER BY g",
            vec![
                vec![N, i(7), i(7)],
                vec![i(1), i(5), i(5)],
                vec![i(2), f(5.0), f(0.5)],
            ],
        ),
        // ORDER BY sorts under the total order: NULL first.
        (
            "SELECT k, x FROM t ORDER BY x DESC LIMIT 3",
            vec![vec![s("a"), i(60)], vec![s("b"), i(50)], vec![N, i(40)]],
        ),
        (
            "SELECT k, x * 2 AS dbl FROM t ORDER BY dbl LIMIT 4",
            vec![
                vec![s("b"), N],
                vec![s("c"), i(-10)],
                vec![s("a"), i(20)],
                vec![s("a"), i(60)],
            ],
        ),
        // Join keys are values: NULL joins NULL.
        (
            "SELECT t.k, w, x FROM t JOIN d ON t.k = d.k ORDER BY w",
            vec![
                vec![s("a"), i(100), i(10)],
                vec![s("a"), i(100), i(30)],
                vec![s("a"), i(100), i(60)],
                vec![N, i(200), i(40)],
                vec![s("b"), i(300), N],
                vec![s("b"), i(300), i(50)],
                vec![s("a"), i(400), i(10)],
                vec![s("a"), i(400), i(30)],
                vec![s("a"), i(400), i(60)],
            ],
        ),
        (
            "SELECT d.k, COUNT(*) AS n, SUM(w) AS sw FROM t JOIN d ON t.k = d.k GROUP BY d.k \
             ORDER BY sw",
            vec![
                vec![N, i(1), i(200)],
                vec![s("b"), i(2), i(600)],
                vec![s("a"), i(6), i(1500)],
            ],
        ),
        (
            "SELECT SUM(f) AS sf, AVG(f) AS af, MIN(f) AS lo, MAX(f) AS hi FROM t",
            vec![vec![f(NAN), f(NAN), f(-0.0), f(NAN)]],
        ),
        (
            "SELECT MIN(k) AS lo, MAX(k) AS hi, COUNT(k) AS n FROM t",
            vec![vec![s("a"), s("c"), i(6)]],
        ),
        // Aggregates over expressions; SUM turns Float once any input is.
        (
            "SELECT SUM(x * 2) AS s2, SUM(x + f) AS sxf, COUNT(x + f) AS c FROM t",
            vec![vec![i(370), f(NAN), i(5)]],
        ),
        (
            "SELECT k FROM t WHERE k = 'a'",
            vec![vec![s("a")], vec![s("a")], vec![s("a")]],
        ),
        (
            "SELECT k FROM t WHERE k < 'b'",
            vec![vec![s("a")], vec![s("a")], vec![s("a")]],
        ),
        ("SELECT k FROM t WHERE k = 1", vec![]),
        (
            "SELECT NULL AS z, 1 AS one, 'lit' AS s, TRUE AS b, 1.5 AS fl FROM t LIMIT 1",
            vec![vec![N, i(1), s("lit"), b(true), f(1.5)]],
        ),
        (
            "SELECT *, w + 1 AS w1 FROM d WHERE w >= 200",
            vec![
                vec![N, i(200), i(201)],
                vec![s("b"), i(300), i(301)],
                vec![s("a"), i(400), i(401)],
            ],
        ),
        (
            "SELECT x FROM t WHERE -x < 0 AND x / 2 > 10",
            vec![vec![i(30)], vec![i(40)], vec![i(50)], vec![i(60)]],
        ),
        // An Int SUM past i64::MAX wraps (typed lanes and the row fold
        // alike); it does not turn Float, saturate or fail.
        (
            "SELECT SUM(v) AS s, COUNT(v) AS n FROM o",
            vec![vec![i(i64::MIN + 5), i(3)]],
        ),
        (
            "SELECT k, SUM(v) AS s FROM o GROUP BY k ORDER BY k",
            vec![vec![s("a"), i(i64::MIN)], vec![s("b"), i(5)]],
        ),
        // The NULLs of a grouping column are one group, which sorts first
        // ascending (the engine's own group order too) and last descending.
        (
            "SELECT g, COUNT(*) AS n, SUM(x) AS sx FROM t GROUP BY g",
            vec![
                vec![N, i(1), i(50)],
                vec![i(1), i(3), i(35)],
                vec![i(2), i(3), i(100)],
            ],
        ),
        (
            "SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY g DESC",
            vec![vec![i(2), i(3)], vec![i(1), i(3)], vec![N, i(1)]],
        ),
        // ORDER BY is stable: rows that tie stay in input order, in either
        // direction, so a LIMIT that cuts through a tie keeps its earliest
        // rows.
        (
            "SELECT x, g FROM t ORDER BY g LIMIT 3",
            vec![vec![i(50), N], vec![i(10), i(1)], vec![i(30), i(1)]],
        ),
        (
            "SELECT x, g FROM t ORDER BY g DESC LIMIT 2",
            vec![vec![N, i(2)], vec![i(40), i(2)]],
        ),
        // A scan binds only the columns the statement names; what it does
        // not bind must not change an answer. No column at all still
        // counts every row.
        ("SELECT COUNT(*) AS n FROM t", vec![vec![i(7)]]),
        // `x` is read by WHERE alone, `g` by GROUP BY alone.
        (
            "SELECT k, g FROM t WHERE x > 35",
            vec![vec![N, i(2)], vec![s("b"), N], vec![s("a"), i(2)]],
        ),
        ("SELECT COUNT(*) AS n FROM t WHERE x > 35", vec![vec![i(3)]]),
        (
            "SELECT COUNT(*) AS n FROM t GROUP BY g",
            vec![vec![i(1)], vec![i(3)], vec![i(3)]],
        ),
        // Both `k`s are read by the join keys alone.
        (
            "SELECT w FROM t JOIN d ON t.k = d.k ORDER BY w",
            vec![
                vec![i(100)],
                vec![i(100)],
                vec![i(100)],
                vec![i(200)],
                vec![i(300)],
                vec![i(300)],
                vec![i(400)],
                vec![i(400)],
                vec![i(400)],
            ],
        ),
        // The ON clause names the joined table first.
        (
            "SELECT COUNT(*) AS n, SUM(x) AS sx, SUM(w) AS sw FROM t JOIN d ON d.k = t.k",
            vec![vec![i(9), i(290), i(2300)]],
        ),
        (
            "SELECT d.k, SUM(x) AS sx FROM t JOIN d ON d.k = t.k GROUP BY d.k",
            vec![vec![N, i(40)], vec![s("a"), i(200)], vec![s("b"), i(50)]],
        ),
        // `*` over a join is every column of both sides, left first.
        (
            "SELECT * FROM o JOIN d ON o.k = d.k ORDER BY w",
            vec![
                vec![s("a"), i(i64::MAX), s("a"), i(100)],
                vec![s("a"), i(1), s("a"), i(100)],
                vec![s("b"), N, s("b"), i(300)],
                vec![s("b"), i(5), s("b"), i(300)],
                vec![s("a"), i(i64::MAX), s("a"), i(400)],
                vec![s("a"), i(1), s("a"), i(400)],
            ],
        ),
        // A table with no rows, and a ragged one (a missing field is NULL).
        (
            "SELECT COUNT(*) AS n, SUM(v) AS s FROM e",
            vec![vec![i(0), N]],
        ),
        ("SELECT COUNT(*) AS n FROM e WHERE v > 0", vec![vec![i(0)]]),
        ("SELECT COUNT(*) AS n FROM r", vec![vec![i(4)]]),
        (
            "SELECT SUM(v) AS s FROM r WHERE v > 1",
            vec![vec![i(i64::MIN + 4)]],
        ),
    ]
}

/// A statement whose names do not resolve reports the error it always did,
/// whichever columns its scans would have bound.
#[test]
fn name_errors_read_as_they_did() {
    let catalog = catalog_of(trap_t(), trap_d());
    for (sql, error) in [
        (
            "SELECT k FROM t JOIN d ON t.k = d.k",
            "query error: ambiguous column `k` (qualify it with a table name)",
        ),
        (
            "SELECT w FROM t JOIN d ON t.k = d.k WHERE k = 'a'",
            "query error: ambiguous column `k` (qualify it with a table name)",
        ),
        (
            "SELECT k FROM t WHERE nope > 1",
            "query error: unknown column `nope`",
        ),
        (
            "SELECT x FROM t JOIN d ON t.k = d.nope",
            "query error: join keys `t.k` / `d.nope` do not match the joined tables",
        ),
    ] {
        match catalog.plan(sql) {
            Ok(_) => panic!("`{sql}` planned"),
            Err(e) => assert_eq!(e.to_string(), error, "`{sql}`"),
        }
    }
}

fn records(rows: Vec<Vec<Value>>) -> Vec<Record> {
    rows.into_iter().map(Record::new).collect()
}

fn java() -> RheemContext {
    RheemContext::new().with_platform(Arc::new(JavaPlatform::new()))
}

fn run(catalog: &QueryCatalog, ctx: &RheemContext, sql: &str) -> Vec<Record> {
    match catalog.execute(ctx, sql) {
        Ok(result) => result.rows.records().to_vec(),
        Err(e) => panic!("`{sql}` failed: {e}"),
    }
}

#[test]
fn every_semantic_trap_answers_its_pinned_rows() {
    let catalog = catalog_of(trap_t(), trap_d());
    let ctx = java();
    for (sql, expected) in traps() {
        assert_eq!(run(&catalog, &ctx, sql), records(expected), "`{sql}`");
    }
}

/// The same table over a real socket: REGISTER, plan, execute on whatever
/// the optimizer picks, materialize at the sink, encode, decode.
#[test]
fn every_semantic_trap_answers_its_pinned_rows_over_the_wire() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "traps").expect("client connects");
    client
        .register("t", t_schema(), trap_t())
        .expect("t registers");
    client
        .register("d", d_schema(), trap_d())
        .expect("d registers");
    client
        .register("o", o_schema(), trap_o())
        .expect("o registers");
    client
        .register("e", o_schema(), Vec::new())
        .expect("e registers");
    // A client sends a table exactly as wide as its schema, and refuses a
    // ragged one before writing a byte: `r` goes padded, as the catalog
    // pads it in process.
    assert!(client.register("r", o_schema(), trap_r()).is_err());
    client
        .register("r", o_schema(), padded(trap_r(), 2))
        .expect("r registers");
    for (sql, expected) in traps() {
        let (_, rows) = client.query(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
        // Only statements with a total order pin row order across
        // platforms; compare the others as bags.
        assert_eq!(sorted(rows), sorted(records(expected)), "`{sql}`");
    }
    client.goodbye().expect("goodbye");
    server.shutdown();
}

/// `rows` with each row resized to `width` fields, a missing one NULL.
fn padded(rows: Vec<Record>, width: usize) -> Vec<Record> {
    rows.into_iter()
        .map(|row| {
            let mut fields = row.fields().to_vec();
            fields.resize(width, N);
            Record::new(fields)
        })
        .collect()
}

/// The rows with every trailing NULL cut off. The catalog registers a table
/// exactly as wide as its schema, so it pads each short row back with the
/// NULLs it lost — the twin must answer as the table does, joins included.
fn ragged_twin(rows: Vec<Record>) -> Vec<Record> {
    let twin: Vec<Record> = rows
        .into_iter()
        .map(|row| {
            let mut fields = row.fields().to_vec();
            while fields.last() == Some(&N) {
                fields.pop();
            }
            Record::new(fields)
        })
        .collect();
    assert!(
        Chunk::from_records(&twin).is_none(),
        "the twin is not ragged"
    );
    twin
}

/// The same tables registered from their ragged twins (`t` and `o`), and
/// with each platform forced, over both the rectangular tables and the twins.
#[test]
fn every_semantic_trap_answers_its_pinned_rows_on_the_row_path_and_every_platform() {
    let rectangular = catalog_of(trap_t(), trap_d());
    let mut ragged = catalog_of(ragged_twin(trap_t()), trap_d());
    ragged.register("o", o_schema(), ragged_twin(trap_o()));
    for (sql, expected) in traps() {
        let expected = records(expected);
        assert_eq!(
            run(&ragged, &java(), sql),
            expected,
            "ragged twins, `{sql}`"
        );
        for platform in ["java", "sparklike", "mapreduce", "relational"] {
            for (catalog, form) in [(&rectangular, "rectangular"), (&ragged, "ragged")] {
                assert_eq!(
                    sorted(run(catalog, &forced(platform), sql)),
                    sorted(expected.clone()),
                    "{platform}, {form} tables, `{sql}`"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (b) generated queries × dirty tables
// ---------------------------------------------------------------------------

fn sorted(mut rows: Vec<Record>) -> Vec<Record> {
    rows.sort();
    rows
}

/// A dirty `t`: NULLs everywhere, wrapping-sized ints, signed zeros, NaN,
/// infinities, 0.1-steps, a genuinely mixed `m`; one table in eight is
/// ragged (a row short of its schema), which the catalog pads with NULLs.
fn dirty_t(rng: &mut Rng) -> Vec<Record> {
    let rows = rng.below(40);
    let ragged = rng.chance(8);
    (0..rows)
        .map(|row| {
            let k = rng.pick(&[s("a"), s("b"), s("c"), s(""), N]);
            let g = rng.pick(&[i(1), i(2), i(3), N]);
            let x = match rng.below(6) {
                0 => N,
                1 => i(i64::MAX - rng.below(3) as i64),
                _ => i(rng.below(100) as i64 - 30),
            };
            let fl = match rng.below(8) {
                0 => N,
                1 => f(-0.0),
                2 => f(0.0),
                3 => f(NAN),
                4 => f(f64::INFINITY),
                _ => f(rng.below(50) as f64 * 0.1 - 1.0),
            };
            let m = match rng.below(6) {
                0 => N,
                1 => i(rng.below(5) as i64),
                2 => f(rng.below(5) as f64),
                3 => s("s"),
                4 => b(rng.chance(2)),
                _ => f(rng.below(30) as f64 * 0.1),
            };
            let mut fields = vec![k, g, x, fl, m];
            if ragged && row % 3 == 1 {
                fields.truncate(3);
            }
            Record::new(fields)
        })
        .collect()
}

fn scalar(rng: &mut Rng) -> String {
    rng.pick(&[
        "x", "f", "m", "g", "x + 1", "x * 2", "x - g", "x * f", "f / 2", "x / g", "x / 0", "-x",
        "-f", "m + x", "3", "2.5",
    ])
    .to_string()
}

fn predicate(rng: &mut Rng, depth: usize) -> String {
    if depth > 0 && rng.chance(3) {
        let (l, r) = (predicate(rng, depth - 1), predicate(rng, depth - 1));
        return match rng.below(3) {
            0 => format!("({l} AND {r})"),
            1 => format!("({l} OR {r})"),
            _ => format!("NOT ({l})"),
        };
    }
    let op = rng.pick(&["=", "<>", "<", "<=", ">", ">="]);
    match rng.below(6) {
        0 => format!("k {op} '{}'", rng.pick(&["a", "b", ""])),
        1 => format!("m {op} {}", rng.pick(&["1", "2.0", "'s'", "TRUE", "NULL"])),
        2 => format!("f {op} {}", rng.pick(&["0", "1", "0.5", "2"])),
        _ => format!("{} {op} {}", scalar(rng), scalar(rng)),
    }
}

/// A generated statement; `limit` is kept apart so platform-crossing
/// comparisons (whose row order differs) can run the statement without it.
struct Generated {
    sql: String,
    limit: Option<usize>,
    /// Output position of the ORDER BY column and its direction.
    order: Option<(usize, bool)>,
    /// A global aggregate (which answers one row even over no input).
    global: bool,
}

impl Generated {
    fn with_limit(&self) -> String {
        match self.limit {
            Some(n) => format!("{} LIMIT {n}", self.sql),
            None => self.sql.clone(),
        }
    }
}

fn statement(rng: &mut Rng) -> Generated {
    let filter = if rng.chance(2) {
        format!(" WHERE {}", predicate(rng, 2))
    } else {
        String::new()
    };
    let limit = rng.chance(3).then(|| rng.below(6));
    let descending = rng.chance(2);
    let direction = if descending { " DESC" } else { "" };
    if rng.chance(3) {
        // Plain projection.
        let width = 1 + rng.below(3);
        let items: Vec<String> = (0..width)
            .map(|c| format!("{} AS c{c}", scalar(rng)))
            .collect();
        let order = rng.chance(2).then(|| rng.below(width));
        let order_by = order.map_or(String::new(), |c| format!(" ORDER BY c{c}{direction}"));
        return Generated {
            sql: format!("SELECT {} FROM t{filter}{order_by}", items.join(", ")),
            limit,
            order: order.map(|c| (c, descending)),
            global: false,
        };
    }
    // Grouped: 0..=2 key columns, 1..=3 aggregates.
    let mut keys: Vec<&str> = Vec::new();
    for candidate in ["k", "g", "m", "f"] {
        if keys.len() < 2 && rng.chance(3) {
            keys.push(candidate);
        }
    }
    let aggregates = 1 + rng.below(3);
    let mut items: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    for a in 0..aggregates {
        let call = match rng.below(6) {
            0 => "COUNT(*)".to_string(),
            1 => format!("COUNT({})", scalar(rng)),
            2 => format!("SUM({})", scalar(rng)),
            3 => format!("AVG({})", scalar(rng)),
            4 => format!("MIN({})", scalar(rng)),
            _ => format!("MAX({})", scalar(rng)),
        };
        items.push(format!("{call} AS a{a}"));
    }
    let group_by = if keys.is_empty() {
        String::new()
    } else {
        format!(" GROUP BY {}", keys.join(", "))
    };
    // HAVING only where there are keys: a global aggregate keeps its row.
    let having = if !keys.is_empty() && rng.chance(3) {
        format!(
            " HAVING a0 {} {}",
            rng.pick(&["<", ">=", "<>"]),
            rng.pick(&["1", "2.5", "0"])
        )
    } else {
        String::new()
    };
    let order = rng.chance(2).then(|| rng.below(items.len()));
    let order_by = order.map_or(String::new(), |c| {
        let name = if c < keys.len() {
            keys[c].to_string()
        } else {
            format!("a{}", c - keys.len())
        };
        format!(" ORDER BY {name}{direction}")
    });
    Generated {
        sql: format!(
            "SELECT {} FROM t{filter}{group_by}{having}{order_by}",
            items.join(", ")
        ),
        limit,
        order: order.map(|c| (c, descending)),
        global: keys.is_empty(),
    }
}

/// The same physical plan with every declarative payload stripped: only
/// the closures the UDFs derived from their specs are left, so every
/// operator runs row-at-a-time through them.
fn closures_only(plan: &PhysicalPlan) -> PhysicalPlan {
    fn key(mut k: KeyUdf) -> KeyUdf {
        k.fields = None;
        k
    }
    let mut rebuilt = PlanBuilder::new();
    for node in plan.nodes() {
        let op = match node.op.clone() {
            PhysicalOp::Filter(mut u) => {
                u.expr = None;
                PhysicalOp::Filter(u)
            }
            PhysicalOp::Map(mut u) => {
                u.exprs = None;
                PhysicalOp::Map(u)
            }
            PhysicalOp::HashGroupBy { key: k, mut group } => {
                group.aggs = None;
                PhysicalOp::HashGroupBy { key: key(k), group }
            }
            PhysicalOp::Sort { key: k, descending } => PhysicalOp::Sort {
                key: key(k),
                descending,
            },
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            } => PhysicalOp::HashJoin {
                left_key: key(left_key),
                right_key: key(right_key),
            },
            other => other,
        };
        rebuilt.add(op, node.inputs.clone());
    }
    rebuilt.build().expect("same shape as a valid plan")
}

/// Rows of `sql` evaluated row-at-a-time through the derived closures.
fn run_through_closures(catalog: &QueryCatalog, sql: &str) -> Vec<Record> {
    let planned = catalog.plan(sql).expect("plans");
    let physical = planned.logical.lower().expect("lowers");
    assert!(
        !physical.fingerprint().opaque,
        "`{sql}` lowered to an opaque closure"
    );
    let stripped = closures_only(&physical);
    assert!(stripped.fingerprint().opaque);
    let job = java().execute(stripped).expect("closure plan executes");
    job.outputs[&planned.sink].records().to_vec()
}

fn forced(platform: &str) -> RheemContext {
    rheem_platforms::test_context().force_platform(platform)
}

fn assert_ordered(rows: &[Record], order: Option<(usize, bool)>, sql: &str) {
    let Some((column, descending)) = order else {
        return;
    };
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0].fields()[column], &pair[1].fields()[column]);
        assert!(
            if descending { a >= b } else { a <= b },
            "`{sql}` is not sorted: {a:?} then {b:?}"
        );
    }
}

/// Every way of running `statement` over `catalog` gives one result.
fn assert_one_result(catalog: &QueryCatalog, statement: &Generated) {
    let sql = statement.with_limit();
    // The reference: columnar kernels on the single-process platform.
    let reference = run(catalog, &java(), &sql);
    assert_ordered(&reference, statement.order, &sql);

    // Row-at-a-time through the derived closures: identical, order and
    // all. The one-row answer of a global aggregate over no input belongs
    // to the group-by operator, not to the per-group closure (which is
    // never called when there is no group), so that case is exempt.
    let by_closures = run_through_closures(catalog, &sql);
    if !(statement.global && by_closures.is_empty()) {
        assert_eq!(
            by_closures, reference,
            "derived closures disagree on `{sql}`"
        );
    }

    // Thread budget 1 vs N on one engine.
    let one = java().with_kernel_parallelism(budget(1));
    let many = java().with_kernel_parallelism(budget(4));
    assert_eq!(
        run(catalog, &one, &sql),
        reference,
        "1 kernel thread disagrees on `{sql}`"
    );
    assert_eq!(
        run(catalog, &many, &sql),
        reference,
        "4 kernel threads disagree on `{sql}`"
    );

    // The full optimizer, plan cache cold then hit, thread budgets 1 and 4.
    let cache = Arc::new(PlanCache::new(PlanCacheConfig::default()));
    let optimized = rheem_platforms::test_context().with_plan_cache(cache.clone());
    let cold = run(catalog, &optimized, &sql);
    let hit = run(catalog, &optimized, &sql);
    assert!(
        cache.stats().hits >= 1,
        "`{sql}` did not hit the plan cache"
    );
    assert_eq!(cold, hit, "plan-cache hit disagrees on `{sql}`");
    for threads in [1, 4] {
        let at = optimized.clone().with_kernel_parallelism(budget(threads));
        assert_eq!(
            run(catalog, &at, &sql),
            cold,
            "thread budget {threads} disagrees on `{sql}`"
        );
    }
    assert_ordered(&cold, statement.order, &sql);

    // Each platform forced. Partitioned platforms emit groups partition by
    // partition, so rows compare as bags — and without the LIMIT, which
    // would keep a different prefix of a differently ordered result.
    let unlimited = run(catalog, &java(), &statement.sql);
    if statement.limit.is_none() {
        assert_eq!(
            sorted(cold),
            sorted(unlimited.clone()),
            "optimizer disagrees on `{sql}`"
        );
    }
    for platform in ["java", "sparklike", "mapreduce", "relational"] {
        let rows = run(catalog, &forced(platform), &statement.sql);
        assert_ordered(&rows, statement.order, &statement.sql);
        assert_eq!(
            sorted(rows),
            sorted(unlimited.clone()),
            "{platform} disagrees on `{}`",
            statement.sql
        );
    }

    // Past the enumerator's budget (0: not one lattice state fits) the
    // per-node DP assigns the platforms instead; the rows do not change.
    let mut past_budget = rheem_platforms::test_context();
    past_budget
        .optimizer_mut()
        .config
        .enumeration
        .max_expansions = 0;
    let rows = run(catalog, &past_budget, &statement.sql);
    assert_ordered(&rows, statement.order, &statement.sql);
    assert_eq!(
        sorted(rows),
        sorted(unlimited),
        "the enumeration fallback disagrees on `{}`",
        statement.sql
    );

    // The wire codec keeps every bit (NaN payloads, -0.0, NULLs).
    let schema = catalog.plan(&sql).expect("plans").schema;
    let response = Response::Rows {
        schema,
        rows: reference.clone(),
    };
    match Response::decode(&response.encode()).expect("decodes") {
        Response::Rows { rows, .. } => assert_eq!(rows, reference, "codec changed `{sql}`"),
        other => panic!("decoded {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn generated_queries_give_one_result_however_they_run(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let t = dirty_t(&mut rng);
        let catalog = catalog_of(t.clone(), trap_d());
        let padded = catalog_with_padded_t(t);
        for _ in 0..3 {
            let statement = statement(&mut rng);
            assert_one_result(&catalog, &statement);
            assert_eq!(
                sorted(run(&padded, &java(), &statement.sql)),
                sorted(run(&catalog, &java(), &statement.sql)),
                "unread columns ahead of `t`'s change `{}`",
                statement.sql
            );
        }
    }
}

/// The catalog with two columns no generated statement names placed ahead
/// of `t`'s own, so every column a statement reads sits at another index
/// than in `t` — a scan that binds the wrong lanes changes the answer.
fn catalog_with_padded_t(t: Vec<Record>) -> QueryCatalog {
    let mut fields = vec![
        ("u0".to_string(), DataType::Int),
        ("u1".to_string(), DataType::Str),
    ];
    fields.extend(
        t_schema()
            .fields()
            .iter()
            .map(|field| (field.name.clone(), field.dtype)),
    );
    let rows = t
        .into_iter()
        .enumerate()
        .map(|(n, row)| {
            let mut padded = vec![i(n as i64 * 1_000 + 7), s("pad")];
            padded.extend_from_slice(row.fields());
            Record::new(padded)
        })
        .collect();
    let mut catalog = catalog_of(Vec::new(), trap_d());
    catalog.register("t", Schema::new(fields), rows);
    catalog
}

// ---------------------------------------------------------------------------
// (c) Float SUM / AVG where addition is not associative
// ---------------------------------------------------------------------------

#[test]
fn float_sums_over_tenth_steps_are_bit_identical_everywhere() {
    let rows: Vec<Record> = (0..6_000u64)
        .map(|n| {
            let k = ["a", "b", "c", "d", "e"][(n * 7 % 5) as usize];
            Record::new(vec![
                s(k),
                i((n % 3) as i64),
                i(n as i64),
                f((n % 97) as f64 * 0.1),
                N,
            ])
        })
        .collect();
    // Folding row ranges apart and adding the partial sums — what a
    // partitioned engine does unless it routes by key — changes the bits.
    let forward: f64 = rows.iter().map(|r| r.float(3).unwrap()).sum();
    let by_ranges: f64 = rows
        .chunks(750)
        .map(|range| range.iter().map(|r| r.float(3).unwrap()).sum::<f64>())
        .sum();
    assert_ne!(
        forward.to_bits(),
        by_ranges.to_bits(),
        "the data must make order matter"
    );

    let catalog = catalog_of(rows, trap_d());
    for sql in [
        "SELECT SUM(f) AS total, AVG(f) AS mean FROM t",
        "SELECT k, SUM(f) AS total, AVG(f) AS mean, COUNT(*) AS n FROM t GROUP BY k ORDER BY k",
        "SELECT k, g, SUM(f * 3) AS total, AVG(f / 7) AS mean FROM t WHERE x > 11 GROUP BY k, g",
    ] {
        assert_one_result(
            &catalog,
            &Generated {
                sql: sql.to_string(),
                limit: None,
                order: None,
                global: false,
            },
        );
    }
    // And the global sum really is the row-order fold.
    let total = run(
        &catalog,
        &forced("sparklike"),
        "SELECT SUM(f) AS total FROM t",
    );
    assert_eq!(total, vec![Record::new(vec![f(forward)])]);
}

// ---------------------------------------------------------------------------
// (d) a scan binds the lanes its statement reads, and copies none
// ---------------------------------------------------------------------------

/// The benchmark's seven statements over its two tables, each with the
/// lanes of `orders` (`region, amount, price, cust`) and of `customers`
/// (`id, seg`) it reads.
const BENCHMARK_SHAPED: [(&str, &[usize], &[usize]); 7] = [
    (
        "SELECT region, SUM(amount) AS total, COUNT(*) AS n FROM orders \
         GROUP BY region ORDER BY region",
        &[0, 1],
        &[],
    ),
    (
        "SELECT cust, SUM(price) AS spend FROM orders GROUP BY cust ORDER BY cust LIMIT 10",
        &[2, 3],
        &[],
    ),
    (
        "SELECT AVG(price) AS avg_price, COUNT(*) AS n FROM orders WHERE price < 500",
        &[2],
        &[],
    ),
    (
        "SELECT seg, COUNT(*) AS n, SUM(amount) AS total FROM orders \
         JOIN customers ON orders.cust = customers.id GROUP BY seg ORDER BY seg",
        &[1, 3],
        &[0, 1],
    ),
    (
        "SELECT region, amount, price FROM orders WHERE price > 900 \
         ORDER BY amount LIMIT 25",
        &[0, 1, 2],
        &[],
    ),
    (
        "SELECT region, amount, price FROM orders WHERE price > -1",
        &[0, 1, 2],
        &[],
    ),
    ("SELECT amount, cust FROM orders", &[1, 3], &[]),
];

fn benchmark_tables() -> (Schema, Vec<Record>, Schema, Vec<Record>) {
    let regions = ["east", "north", "south", "west", "centre"];
    let orders = (0..500i64)
        .map(|n| {
            rheem::rec![
                regions[(n * 7 % 5) as usize],
                n,
                (n * 13 % 4_000) as f64 * 0.25,
                n * 31 % 100
            ]
        })
        .collect();
    let segments = ["consumer", "corporate", "public", "smb"];
    let customers = (0..100i64)
        .map(|id| rheem::rec![id, segments[(id % 4) as usize]])
        .collect();
    (
        Schema::new(vec![
            ("region", DataType::Str),
            ("amount", DataType::Int),
            ("price", DataType::Float),
            ("cust", DataType::Int),
        ]),
        orders,
        Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)]),
        customers,
    )
}

/// Where a lane's values live: equal for two columns only when they share
/// one allocation.
fn lane_address(column: &Column) -> *const u8 {
    column
        .ints()
        .map(|v| v.as_ptr().cast())
        .or_else(|| column.floats().map(|v| v.as_ptr().cast()))
        .or_else(|| column.dict_codes().map(|(_, codes)| codes.as_ptr().cast()))
        .expect("the benchmark tables have typed lanes only")
}

/// The dataset each scan of `sql` binds, by table name.
fn scans(catalog: &QueryCatalog, sql: &str) -> Vec<(String, Dataset)> {
    let planned = catalog.plan(sql).unwrap_or_else(|e| panic!("`{sql}`: {e}"));
    planned
        .logical
        .nodes()
        .iter()
        .filter_map(|node| match node.op.payload() {
            LogicalPayload::Source { name, data } => Some((name, data)),
            _ => None,
        })
        .collect()
}

/// Each scan of the benchmark's statements binds exactly the lanes the
/// statement reads, in table order, as the catalog's own lanes — whether
/// the table was registered as a chunk (as REGISTER does) or as rows.
#[test]
fn scans_bind_exactly_the_lanes_their_statement_reads() {
    let (orders_schema, orders, customers_schema, customers) = benchmark_tables();
    for registered_as_rows in [false, true] {
        let dataset = |rows: &[Record]| {
            if registered_as_rows {
                Dataset::new(rows.to_vec())
            } else {
                Dataset::from_chunk(Chunk::from_records(rows).expect("rectangular"))
            }
        };
        let (orders_data, customers_data) = (dataset(&orders), dataset(&customers));
        let mut catalog = QueryCatalog::new();
        catalog.register_dataset("orders", orders_schema.clone(), orders_data.clone());
        catalog.register_dataset(
            "customers",
            customers_schema.clone(),
            customers_data.clone(),
        );
        for (sql, orders_lanes, customers_lanes) in BENCHMARK_SHAPED {
            for (name, bound) in scans(&catalog, sql) {
                let (table, lanes) = match name.as_str() {
                    "orders" => (&orders_data, orders_lanes),
                    "customers" => (&customers_data, customers_lanes),
                    other => panic!("`{sql}` scans `{other}`"),
                };
                let catalog_lanes = table.chunk().expect("rectangular").columns();
                let bound_lanes = bound.chunk().expect("a window is a chunk").columns();
                assert_eq!(
                    bound_lanes.iter().map(lane_address).collect::<Vec<_>>(),
                    lanes
                        .iter()
                        .map(|&lane| lane_address(&catalog_lanes[lane]))
                        .collect::<Vec<_>>(),
                    "`{sql}` binds other lanes of `{name}` than {lanes:?}, or copies them \
                     (registered as rows: {registered_as_rows})"
                );
                assert_eq!(bound.len(), table.len(), "`{sql}` drops rows of `{name}`");
            }
        }
        // A statement that reads no column binds a chunk of none, which
        // keeps the row count (the `COUNT(*)` trap pins the answer).
        let [(_, bound)] = &scans(&catalog, "SELECT COUNT(*) AS n FROM orders")[..] else {
            panic!("one scan");
        };
        let chunk = bound.chunk().expect("a window is a chunk");
        assert_eq!((chunk.columns().len(), chunk.rows()), (0, orders.len()));
    }
}

/// A row-registered table is windowed by its layout, not by whether an
/// earlier statement happened to convert it: the first statement planned
/// over it binds as many lanes as the same statement after another has run.
#[test]
fn a_row_registered_table_binds_the_same_lanes_before_and_after_a_run() {
    let row_catalog = || {
        let (orders_schema, orders, customers_schema, customers) = benchmark_tables();
        let mut catalog = QueryCatalog::new();
        catalog.register("orders", orders_schema, orders);
        catalog.register("customers", customers_schema, customers);
        catalog
    };
    let widths = |catalog: &QueryCatalog, sql: &str| -> Vec<usize> {
        scans(catalog, sql)
            .iter()
            .map(|(_, data)| data.chunk().map_or(0, |chunk| chunk.columns().len()))
            .collect()
    };
    let warmed = row_catalog();
    run(
        &warmed,
        &java(),
        "SELECT * FROM orders JOIN customers ON orders.cust = customers.id",
    );
    for (sql, orders_lanes, customers_lanes) in BENCHMARK_SHAPED {
        let first = widths(&row_catalog(), sql);
        assert_eq!(first, widths(&warmed, sql), "`{sql}`");
        let read: Vec<usize> = [orders_lanes.len(), customers_lanes.len()]
            .into_iter()
            .filter(|&lanes| lanes > 0)
            .collect();
        assert_eq!(first, read, "`{sql}`");
    }
}
