//! What a registered table costs in heap, counted rather than read off RSS:
//! a session holds a table once, as the chunk its `REGISTER` frame was
//! decoded into (28 B/row for an `orders`-shaped table), and never as rows
//! (more than 120 B/row) — not after the REGISTER, and not after the
//! benchmark's seven statements have run over it. And the decoder must not
//! turn a small frame into a large allocation: a row of one-byte NULLs costs
//! the column sink no more than it costs the row sink.
//!
//! A counting global allocator tracks the process's live heap bytes (every
//! thread: the server's sessions and workers run in this process) and the
//! bytes one thread requests while it is being watched.

use std::net::TcpStream;
use std::sync::Mutex;

use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::{read_frame, write_frame, Registration, Request, Response};
use rheem_server::{RheemServer, ServerConfig};
use testkit::{counted_during, live_bytes, CountingAllocator, STATEMENTS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `live_bytes` is process-wide: the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const ROWS: usize = 50_000;

fn orders() -> Request {
    Request::Register {
        name: "orders".into(),
        schema: Schema::new(vec![
            ("region", DataType::Str),
            ("amount", DataType::Int),
            ("price", DataType::Float),
            ("cust", DataType::Int),
        ]),
        rows: (0..ROWS as i64)
            .map(|i| {
                Record::new(vec![
                    Value::str(["east", "north", "south", "west", "centre"][(i % 5) as usize]),
                    Value::Int(i),
                    Value::Float((i * 37 % 4000) as f64 * 0.25),
                    Value::Int(i * 7 % 1000),
                ])
            })
            .collect(),
    }
}

fn customers() -> Request {
    Request::Register {
        name: "customers".into(),
        schema: Schema::new(vec![("id", DataType::Int), ("seg", DataType::Str)]),
        rows: (0..1_000i64)
            .map(|id| {
                Record::new(vec![
                    Value::Int(id),
                    Value::str(["consumer", "corporate", "public", "smb"][(id % 4) as usize]),
                ])
            })
            .collect(),
    }
}

/// One request, one response; nothing of either outlives the call (unlike
/// `Client`, which keeps its largest response's buffer).
fn call(stream: &mut TcpStream, request: &Request) -> Response {
    write_frame(stream, &request.encode()).expect("request written");
    let body = read_frame(stream).expect("response read").expect("a frame");
    Response::decode(&body).expect("response decodes")
}

#[test]
fn a_session_holds_its_table_once_as_a_chunk() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = Request::Hello {
        tenant: "footprint".into(),
    };
    assert_eq!(call(&mut stream, &hello), Response::Ok);
    // The client's copies of the tables live through both measurements.
    let (orders, customers) = (orders(), customers());

    let before = live_bytes();
    assert_eq!(call(&mut stream, &orders), Response::Ok);
    assert_eq!(call(&mut stream, &customers), Response::Ok);
    let per_row = |live: isize| (live - before) as f64 / ROWS as f64;
    let registered = per_row(live_bytes());
    // Two rounds: the second runs on cached plans, over whatever view of
    // the table the first one may have materialized.
    for sql in STATEMENTS.iter().chain(&STATEMENTS) {
        let query = Request::Query {
            sql: sql.to_string(),
            deadline_ms: None,
        };
        match call(&mut stream, &query) {
            Response::Rows { rows, .. } => assert!(!rows.is_empty(), "`{sql}` answered nothing"),
            other => panic!("`{sql}`: {other:?}"),
        }
    }
    let queried = per_row(live_bytes());
    // The chunk is 28 B/row (4 B of dictionary codes and three 8 B lanes);
    // the rows alone would be 24 B of `Record` and 4 x 24 B of `Value`.
    assert!(
        (28.0..48.0).contains(&registered),
        "{registered:.1} B/row live after REGISTER"
    );
    assert!(
        (28.0..48.0).contains(&queried),
        "{queried:.1} B/row live after the statements"
    );
    assert_eq!(call(&mut stream, &Request::Goodbye), Response::Ok);
    server.shutdown();
}

#[test]
fn a_row_of_nulls_costs_the_column_sink_no_more_than_the_row_sink() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let frame_of = |width: usize| {
        Request::Register {
            name: "t".into(),
            schema: Schema::new(Vec::<(String, DataType)>::new()),
            rows: vec![Record::new(vec![Value::Null; width])],
        }
        .encode()
    };
    // The shape of a 16 MiB frame's worst case, at a sixteenth of it: every
    // value is one byte on the wire.
    let width = 1 << 20;
    let frame = frame_of(width);
    let ((_, by_rows), _) = counted_during(|| Request::decode(&frame).expect("decodes"));
    let ((_, by_columns), table) =
        counted_during(|| Registration::decode(&frame).expect("decodes"));
    assert!(!table.expect("a REGISTER").data.has_chunk());
    // 24 B per value and some change, as before; the change includes the
    // `Dataset` the session's decoder wraps the rows in.
    assert!(by_rows >= 24 * width && by_rows < 25 * width, "{by_rows}");
    assert!(
        by_columns <= by_rows + 1024,
        "{by_columns} B as columns, {by_rows} B as rows"
    );
    // The widest frame that is built as columns: a few hundred bytes each.
    let width = 4_096;
    let ((_, by_columns), table) =
        counted_during(|| Registration::decode(&frame_of(width)).expect("decodes"));
    assert!(table.expect("a REGISTER").data.has_chunk());
    assert!(by_columns < 512 * width, "{by_columns}");
}
