//! A table is exactly as wide as its schema, at both SQL edges. The planner
//! places every column by the schema, so a table whose rows are narrower or
//! wider than it would answer a join with another table's columns shifted
//! under the wrong names. On the wire such a table is refused — by both
//! `REGISTER` decoders with one message naming the row and both widths, by
//! `Client::register` before it writes a byte — and in process the catalog
//! resizes each row to the schema: a missing field is NULL, a field past the
//! schema is dropped.

use std::net::{SocketAddr, TcpStream};

use rheem_core::query::QueryCatalog;
use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::{read_frame, write_frame, Registration, Request, Response, WireError};
use rheem_server::{Client, RheemServer, ServerConfig};

const JOIN: &str = "SELECT t.k, w FROM t JOIN d ON t.k = d.k";

fn t_schema() -> Schema {
    Schema::new(vec![
        ("k", DataType::Str),
        ("x", DataType::Int),
        ("y", DataType::Int),
    ])
}

fn d_schema() -> Schema {
    Schema::new(vec![("k", DataType::Str), ("w", DataType::Int)])
}

fn row(fields: &[Value]) -> Record {
    Record::new(fields.to_vec())
}

fn s(v: &str) -> Value {
    Value::str(v)
}

fn i(v: i64) -> Value {
    Value::Int(v)
}

fn d_rows() -> Vec<Record> {
    vec![row(&[s("a"), i(100)]), row(&[s("b"), i(200)])]
}

/// `t` exactly as wide as its schema.
fn schema_wide_t() -> Vec<Record> {
    vec![row(&[s("a"), i(1), i(10)]), row(&[s("b"), i(2), i(20)])]
}

/// `t`'s rows 2 wide, 4 wide and ragged under its 3-column schema, each with
/// the refusal it gets.
fn misshapen_t() -> [(&'static str, Vec<Record>, &'static str); 3] {
    [
        (
            "2 wide",
            vec![row(&[s("a"), i(1)]), row(&[s("b"), i(2)])],
            "REGISTER row 0 has 2 values under a schema of 3 columns",
        ),
        (
            "4 wide",
            vec![
                row(&[s("a"), i(1), i(10), i(7)]),
                row(&[s("b"), i(2), i(20), i(7)]),
            ],
            "REGISTER row 0 has 4 values under a schema of 3 columns",
        ),
        (
            "ragged",
            vec![row(&[s("a"), i(1), i(10)]), row(&[s("b"), i(2)])],
            "REGISTER row 1 has 2 values under a schema of 3 columns",
        ),
    ]
}

/// The join's answer by the schemas: each `t.k` with its `d.w`.
fn joined() -> Vec<Record> {
    vec![row(&[s("a"), i(100)]), row(&[s("b"), i(200)])]
}

fn sorted(mut rows: Vec<Record>) -> Vec<Record> {
    rows.sort();
    rows
}

fn register(name: &str, schema: Schema, rows: Vec<Record>) -> Vec<u8> {
    Request::Register {
        name: name.into(),
        schema,
        rows,
    }
    .encode()
}

/// One request over a raw socket, and its response — `None` when the server
/// ended the session instead of answering.
fn call(stream: &mut TcpStream, body: &[u8]) -> Option<Response> {
    write_frame(stream, body).ok()?;
    match read_frame(stream) {
        Ok(Some(reply)) => Some(Response::decode(&reply).expect("a response")),
        Ok(None) | Err(_) => None,
    }
}

/// `t`'s frame sent raw after `d`: `None` when the server refuses it (a
/// malformed frame ends the session), or the join's rows when it took it.
fn join_after_raw(addr: SocketAddr, t_frame: &[u8]) -> Option<Vec<Record>> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let hello = Request::Hello {
        tenant: "raw".into(),
    };
    assert_eq!(call(&mut stream, &hello.encode()), Some(Response::Ok));
    let d = register("d", d_schema(), d_rows());
    assert_eq!(call(&mut stream, &d), Some(Response::Ok));
    match call(&mut stream, t_frame)? {
        Response::Ok => {}
        other => panic!("REGISTER answered {other:?}"),
    }
    let query = Request::Query {
        sql: JOIN.into(),
        deadline_ms: None,
    };
    match call(&mut stream, &query.encode()) {
        Some(Response::Rows { rows, .. }) => Some(sorted(rows)),
        other => panic!("`{JOIN}` answered {other:?}"),
    }
}

#[test]
fn a_register_not_as_wide_as_its_schema_is_refused_by_both_decoders_and_the_session() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    for (shape, rows, refusal) in misshapen_t() {
        let frame = register("t", t_schema(), rows);
        assert_eq!(
            join_after_raw(server.addr(), &frame),
            None,
            "a {shape} `t` was registered, and `{JOIN}` answered its rows"
        );
        for (decoder, verdict) in [
            ("session", Registration::decode(&frame).map(|_| ())),
            ("request", Request::decode(&frame).map(|_| ())),
        ] {
            match verdict {
                Err(WireError::Malformed(m)) => assert_eq!(m, refusal, "{shape}, {decoder}"),
                other => panic!("{shape}: the {decoder} decoder answered {other:?}"),
            }
        }
    }
    // The schema-wide table is taken, and the join answers by the schemas.
    let frame = register("t", t_schema(), schema_wide_t());
    assert_eq!(join_after_raw(server.addr(), &frame), Some(joined()));
    server.shutdown();
}

#[test]
fn the_client_refuses_a_table_not_as_wide_as_its_schema_and_goes_on() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "shapes").expect("connect");
    client.register("d", d_schema(), d_rows()).expect("d");
    for (shape, rows, refusal) in misshapen_t() {
        match client.register("t", t_schema(), rows) {
            Err(WireError::Malformed(m)) => assert_eq!(m, refusal, "{shape}"),
            other => panic!("a {shape} `t`: {other:?}"),
        }
        // Nothing was written: the session answers its next request, and
        // has no `t`.
        let (_, n) = client.query("SELECT COUNT(*) AS n FROM d").expect("n");
        assert_eq!(n, vec![row(&[i(2)])], "after a {shape} `t`");
        assert!(client.query("SELECT * FROM t").is_err(), "{shape}");
    }
    client.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn select_star_returns_exactly_the_schemas_columns() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "star").expect("connect");
    client.register("d", d_schema(), d_rows()).expect("d");
    client
        .register("t", t_schema(), schema_wide_t())
        .expect("t");
    let (schema, rows) = client.query("SELECT * FROM t").expect("answers");
    assert_eq!(schema.fields().len(), 3);
    assert_eq!(rows, schema_wide_t());
    let (_, rows) = client.query(JOIN).expect("answers");
    assert_eq!(sorted(rows), joined());
    client.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn the_catalog_resizes_each_row_to_its_schema() {
    let ctx = rheem_platforms::test_context();
    for (shape, rows, _) in misshapen_t() {
        let mut catalog = QueryCatalog::new();
        catalog.register("d", d_schema(), d_rows());
        catalog.register("t", t_schema(), rows.clone());
        let answer = |sql: &str| {
            let result = catalog
                .execute(&ctx, sql)
                .unwrap_or_else(|e| panic!("{shape}, `{sql}`: {e}"));
            (result.schema, result.rows.records().to_vec())
        };
        let (_, rows_joined) = answer(JOIN);
        assert_eq!(sorted(rows_joined), joined(), "{shape}");
        // Each row resized to the schema: short ones padded with NULL,
        // fields past it dropped.
        let (schema, star) = answer("SELECT * FROM t");
        assert_eq!(schema.fields().len(), 3, "{shape}");
        let resized: Vec<Record> = rows
            .iter()
            .map(|r| {
                let mut fields = r.fields().to_vec();
                fields.resize(3, Value::Null);
                Record::new(fields)
            })
            .collect();
        assert_eq!(star, resized, "{shape}");
    }
}
