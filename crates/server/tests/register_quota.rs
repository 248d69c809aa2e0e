//! What one session may register is bounded: at most 64 tables, at most
//! 256 MiB of them. A REGISTER past either bound is refused with an error
//! that names the quota, the session stays usable, replacing a table counts
//! the replaced one as released, and `server.registered_bytes` in `STATS`
//! follows what live sessions hold — back to where it was once they close.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::{read_frame, write_frame, Request, Response};
use rheem_server::{Client, RheemServer, ServerConfig};

/// The value of the `gauge server.registered_bytes <value>` line of `STATS`.
fn registered_bytes(client: &mut Client) -> u64 {
    let stats = client.stats().expect("stats");
    stats
        .lines()
        .find_map(|line| line.strip_prefix("gauge server.registered_bytes "))
        .unwrap_or_else(|| panic!("no registered-bytes gauge in:\n{stats}"))
        .trim()
        .parse()
        .expect("a gauge value")
}

fn small_schema() -> Schema {
    Schema::new(vec![("a", DataType::Int)])
}

fn small_rows() -> Vec<Record> {
    (0..10).map(|a| Record::new(vec![Value::Int(a)])).collect()
}

fn error_of(result: Result<(), rheem_server::protocol::WireError>) -> String {
    result.expect_err("refused").to_string()
}

#[test]
fn the_65th_table_is_refused_and_the_session_goes_on() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "many-tables").expect("connect");
    for t in 0..64 {
        client
            .register(&format!("t{t}"), small_schema(), small_rows())
            .unwrap_or_else(|e| panic!("table {t}: {e}"));
    }
    let refused = error_of(client.register("t64", small_schema(), small_rows()));
    assert!(refused.contains("table quota"), "{refused}");
    // A table the session already has can still be replaced, and every
    // table it has still answers.
    client
        .register("t63", small_schema(), small_rows())
        .expect("a replacement is not a 65th table");
    let (_, rows) = client
        .query("SELECT a FROM t0 WHERE a < 3")
        .expect("answers");
    assert_eq!(rows.len(), 3);
    assert!(
        client.query("SELECT a FROM t64").is_err(),
        "t64 was refused"
    );
    client.goodbye().expect("goodbye");
    server.shutdown();
}

/// A REGISTER frame of `rows` rows of `width` NULLs, written without building
/// the rows: the header as `Request::encode` writes it for no rows, then the
/// row count and, per row, its width and that many one-byte NULL tags.
fn null_table_frame(name: &str, rows: u32, width: u32) -> Vec<u8> {
    let mut frame = Request::Register {
        name: name.into(),
        schema: small_schema(),
        rows: vec![],
    }
    .encode();
    frame.truncate(frame.len() - 4);
    frame.extend_from_slice(&rows.to_be_bytes());
    for _ in 0..rows {
        frame.extend_from_slice(&width.to_be_bytes());
        frame.resize(frame.len() + width as usize, 0);
    }
    frame
}

fn call(stream: &mut TcpStream, body: &[u8]) -> Response {
    write_frame(stream, body).expect("request written");
    let body = read_frame(stream).expect("response read").expect("a frame");
    Response::decode(&body).expect("response decodes")
}

#[test]
fn registered_bytes_are_bounded_per_session_and_gauged_server_wide() {
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut observer = Client::connect(server.addr(), "observer").expect("connect");
    let baseline = registered_bytes(&mut observer);

    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = Request::Hello {
        tenant: "big-tables".into(),
    };
    assert_eq!(call(&mut stream, &hello.encode()), Response::Ok);
    let small = Request::Register {
        name: "small".into(),
        schema: small_schema(),
        rows: small_rows(),
    };
    assert_eq!(call(&mut stream, &small.encode()), Response::Ok);
    let small_bytes = registered_bytes(&mut observer) - baseline;
    assert_eq!(small_bytes, 80, "ten 8-byte lane entries");

    // A NULL is one byte on the wire and eight in an `Int` lane (plus its
    // validity bit): 1.39 M rows of 8 NULLs are a 16 MB frame and 90 MB of
    // table, so the third such table would pass 256 MiB.
    let (rows, width) = (1_390_000u32, 8u32);
    let table_bytes = u64::from(width) * (8 * u64::from(rows) + u64::from(rows).div_ceil(8));
    assert_eq!(
        call(&mut stream, &null_table_frame("n0", rows, width)),
        Response::Ok
    );
    assert_eq!(
        call(&mut stream, &null_table_frame("n1", rows, width)),
        Response::Ok
    );
    assert_eq!(
        registered_bytes(&mut observer) - baseline,
        small_bytes + 2 * table_bytes
    );
    match call(&mut stream, &null_table_frame("n2", rows, width)) {
        Response::Err { message } => assert!(message.contains("byte quota"), "{message}"),
        other => panic!("a third 90 MB table was not refused: {other:?}"),
    }
    // Nothing of the refused table is held; replacing one that is held
    // releases it first, so it fits again; and the session still answers.
    assert_eq!(
        registered_bytes(&mut observer) - baseline,
        small_bytes + 2 * table_bytes
    );
    assert_eq!(
        call(&mut stream, &null_table_frame("n1", rows, width)),
        Response::Ok
    );
    assert_eq!(
        call(&mut stream, &null_table_frame("n0", 10, width)),
        Response::Ok
    );
    assert_eq!(
        registered_bytes(&mut observer) - baseline,
        small_bytes + table_bytes + u64::from(width) * (8 * 10 + 2)
    );
    let query = Request::Query {
        sql: "SELECT a FROM small WHERE a >= 8".into(),
        deadline_ms: None,
    };
    match call(&mut stream, &query.encode()) {
        Response::Rows { rows, .. } => assert_eq!(rows.len(), 2),
        other => panic!("{other:?}"),
    }

    // The session ends — here by hanging up, without a GOODBYE — and what
    // it held leaves the gauge.
    drop(stream);
    let waited = Instant::now();
    while registered_bytes(&mut observer) != baseline {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the closed session's bytes stayed in the gauge"
        );
    }
    observer.goodbye().expect("goodbye");
    server.shutdown();
}
