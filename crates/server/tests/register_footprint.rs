//! What a registered table costs in heap, counted rather than read off RSS:
//! a session holds a table once, as the chunk its `REGISTER` frame was
//! decoded into (28 B/row for an `orders`-shaped table), and never as rows
//! (more than 120 B/row) — not after the REGISTER, and not after the
//! benchmark's seven statements have run over it. And the decoder must not
//! turn a small frame into a large allocation: a row of one-byte NULLs wider
//! than its schema, or a schema wider than a table may be, is refused before
//! it costs a column.
//!
//! Nor does a table in flight cost a frame: the client writes a REGISTER in
//! slices and the session decodes it through a window, so neither end holds
//! the frame whole, and a length prefix sent alone pins a window, not what
//! it declares.
//!
//! A counting global allocator tracks the process's live heap bytes (every
//! thread: the server's sessions and workers run in this process), their
//! high-water mark, and the bytes one thread requests while it is being
//! watched.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::{
    read_frame, read_incoming, write_frame, Registration, Request, Response, WireError, MAX_FRAME,
};
use rheem_server::{Client, RheemServer, ServerConfig};
use testkit::{
    counted_during, live_bytes, peak_bytes, reset_peak, CountingAllocator, CutReader, STATEMENTS,
};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// `live_bytes` is process-wide: the tests of this file take turns.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const ROWS: usize = 50_000;

/// An `orders`-shaped table of `rows` rows, 41 bytes each on the wire.
fn orders_of(rows: usize) -> Request {
    Request::Register {
        name: "orders".into(),
        schema: Schema::new(vec![
            ("region", DataType::Str),
            ("amount", DataType::Int),
            ("price", DataType::Float),
            ("cust", DataType::Int),
        ]),
        rows: (0..rows as i64)
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
    let (orders, customers) = (orders_of(ROWS), customers());

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
    // the rows alone would be 16 B of `Record` and 4 x 16 B of `Value`.
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

/// Nor does a session's heap grow with the requests it serves: once its
/// plans are cached and its buffers have their size, 2 000 more requests
/// over the same tables leave the process's live heap where it was.
#[test]
fn a_sessions_heap_does_not_grow_with_its_requests() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    // `write_frame` sends a prefix and a body: with Nagle on, every body
    // would wait out the server's delayed ACK of its prefix (≈ 40 ms).
    stream.set_nodelay(true).expect("nodelay");
    let hello = Request::Hello {
        tenant: "steady".into(),
    };
    assert_eq!(call(&mut stream, &hello), Response::Ok);
    assert_eq!(call(&mut stream, &orders_of(500)), Response::Ok);
    assert_eq!(call(&mut stream, &customers()), Response::Ok);
    let mut serve = |requests: usize| {
        for sql in STATEMENTS.iter().cycle().take(requests) {
            let query = Request::Query {
                sql: sql.to_string(),
                deadline_ms: None,
            };
            match call(&mut stream, &query) {
                Response::Rows { .. } => {}
                other => panic!("`{sql}`: {other:?}"),
            }
        }
    };
    serve(500);
    let before = live_bytes();
    serve(2_000);
    let grown = live_bytes() - before;
    assert!(grown < 64 << 10, "{grown} B more live after 2 000 requests");
    assert_eq!(call(&mut stream, &Request::Goodbye), Response::Ok);
    server.shutdown();
}

#[test]
fn a_row_of_nulls_too_wide_for_its_table_is_refused_before_it_allocates() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let frame_of = |columns: usize, width: usize| {
        Request::Register {
            name: "t".into(),
            schema: Schema::new(
                (0..columns)
                    .map(|c| (format!("c{c}"), DataType::Int))
                    .collect(),
            ),
            rows: vec![Record::new(vec![Value::Null; width])],
        }
        .encode()
    };
    // The shape of a 16 MiB frame's worst case, at a sixteenth of it: every
    // value is one byte on the wire, in a row far wider than its schema.
    // And a schema one column past what a table may have, whose fields
    // would cost ≈ 40 B each to read.
    for frame in [frame_of(1, 1 << 20), frame_of(4_097, 4_097)] {
        let ((_, by_request), refused) = counted_during(|| Request::decode(&frame));
        assert!(matches!(refused, Err(WireError::Malformed(_))));
        let ((_, by_session), refused) = counted_during(|| Registration::decode(&frame));
        assert!(matches!(refused, Err(WireError::Malformed(_))));
        assert!(
            by_request <= 1024 && by_session <= 1024,
            "{by_request} B / {by_session} B to refuse a {} B frame",
            frame.len()
        );
    }
    // The widest table: a few hundred bytes a column, its schema included.
    let width = 4_096;
    let frame = frame_of(width, width);
    let ((_, by_columns), table) =
        counted_during(|| Registration::decode(&frame).expect("decodes"));
    assert_eq!(table.expect("a REGISTER").data.columns().len(), width);
    assert!(by_columns < 512 * width, "{by_columns}");
}

/// The session's window, as `protocol` sizes it.
const WINDOW: isize = 64 << 10;

#[test]
fn a_table_in_flight_is_held_by_neither_end_as_a_frame() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let mut server = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.addr(), "in-flight").expect("connect");
    let empty = live_bytes();
    let request = orders_of(120_000);
    let frame = request.encode().len() as isize;
    assert!(frame >= 4 << 20, "a {frame}-byte frame");
    let Request::Register { name, schema, rows } = request else {
        unreachable!()
    };
    let before = live_bytes();
    let caller_rows = before - empty;
    reset_peak();
    client.register(&name, schema, rows).expect("registered");
    let held = live_bytes() - (before - caller_rows);
    let in_flight = peak_bytes() - before;
    // What the session holds afterwards is the table's chunk, and the
    // client let go of its rows.
    assert!(
        held > 0 && held < caller_rows / 3,
        "{held} B held for {caller_rows} B of rows"
    );
    // On top of the caller's rows: the session's chunk and less than half
    // a frame of slices, window and lanes not yet filled. Holding the frame
    // whole on either end would be a frame more.
    assert!(
        in_flight < held + frame / 2,
        "{in_flight} B in flight on top of the rows; the chunk is {held} B, the frame {frame} B"
    );
    client.goodbye().expect("goodbye");
    server.shutdown();
}

#[test]
fn a_wide_frame_that_overstates_its_rows_reserves_what_its_bytes_can_hold() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    // One row of ints starts 64 int lanes; every row after it is NULLs, a
    // byte a value on the wire and 8 B in a lane. The prefix declares 1 MiB,
    // which holds about 15 000 rows this wide, and the header 64 Ki rows;
    // the peer sends 12 288 of them and stalls until it hangs up. All but a
    // window of them are decoded, lanes that double pass half of those, and
    // 16 x that reaches the declared count: the lanes take it at once
    // unless it is capped by what the frame can hold.
    let (width, len, sent, declared) = (64, 1 << 20, 12_288, 65_536u32);
    let mut rows = vec![Record::new(vec![Value::Int(1); width])];
    rows.extend((1..sent).map(|_| Record::new(vec![Value::Null; width])));
    let register = |rows| Request::Register {
        name: "t".into(),
        schema: Schema::new(
            (0..width)
                .map(|c| (format!("c{c}"), DataType::Int))
                .collect(),
        ),
        rows,
    };
    let mut body = register(rows).encode();
    // After the opcode, the name `t` and the schema.
    let count_at = register(vec![]).encode().len() - 4;
    body[count_at..count_at + 4].copy_from_slice(&declared.to_be_bytes());
    let mut stream = (len as u32).to_be_bytes().to_vec();
    stream.extend_from_slice(&body);
    // A width and a tag per column for each row after the count.
    let holds = (len - count_at - 4) / (4 + width);
    let before = live_bytes();
    reset_peak();
    let mut peer = CutReader::new(&stream, stream.len(), 5);
    assert!(matches!(
        read_incoming(&mut peer, Some(Duration::from_secs(60))),
        Err(WireError::Malformed(m)) if m == "EOF inside frame body"
    ));
    let grown = peak_bytes() - before;
    // Lanes for the rows the frame can hold (8 B and a validity bit each)
    // and a window; lanes for the declared count would be four times that.
    let lanes = (holds * width * 8 + holds.div_ceil(8) * width) as isize;
    assert!(
        grown <= lanes + WINDOW + 64 * 1024,
        "{grown} B for {sent} rows sent of {declared} declared; {holds} fit, in {lanes} B of lanes"
    );
}

#[test]
fn a_prefix_sent_alone_pins_a_window_and_stalls_without_eviction() {
    let _turn = ONE_AT_A_TIME
        .lock()
        .unwrap_or_else(|failed| failed.into_inner());
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(100)),
        ..ServerConfig::default()
    };
    let mut server = RheemServer::start(config).expect("server starts");
    let metrics = server.observability().metrics().clone();
    let registered = || {
        let text = metrics.snapshot().render();
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix("gauge server.registered_bytes "));
        line.expect("the gauge").parse::<u64>().expect("a value")
    };
    let evicted = || metrics.counter_value("server.sessions.idle_evicted");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let hello = Request::Hello {
        tenant: "stalling".into(),
    };
    assert_eq!(call(&mut stream, &hello), Response::Ok);
    // A prefix declaring 16 MiB, then the header of an `orders` REGISTER
    // whose row count says 3 M, and not one row.
    let mut header = orders_of(0).encode();
    let count_at = header.len() - 4;
    header[count_at..].copy_from_slice(&3_000_000u32.to_be_bytes());
    let mut sent = (MAX_FRAME as u32).to_be_bytes().to_vec();
    sent.extend_from_slice(&header);
    let (registered_before, evicted_before) = (registered(), evicted());
    let before = live_bytes();
    reset_peak();
    stream.write_all(&sent).expect("sent");
    // Sixteen read ticks and four idle timeouts inside the frame.
    std::thread::sleep(Duration::from_millis(400));
    let grown = peak_bytes() - before;
    assert!(
        grown <= WINDOW + 1024,
        "{grown} B for a prefix, a header and no row"
    );
    assert_eq!(evicted(), evicted_before, "evicted mid-frame");
    // EOF inside the frame ends the session, and it registered nothing.
    stream.shutdown(Shutdown::Write).expect("half-close");
    assert!(read_frame(&mut stream).expect("a clean close").is_none());
    assert_eq!(registered(), registered_before);
    server.shutdown();
    // What the session ended on, for the same bytes.
    let mut peer = CutReader::new(&sent, sent.len(), 7);
    assert!(matches!(
        read_incoming(&mut peer, Some(Duration::from_secs(60))),
        Err(WireError::Malformed(m)) if m == "EOF inside frame body"
    ));
}
