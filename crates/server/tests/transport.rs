//! What the server owes any client at the socket: a response that leaves as
//! soon as it is written (`TCP_NODELAY` on every accepted stream), a socket
//! that is closed when its session ends, and its own account of where a
//! request's time went (`server.request_us` and `server.stage.*_us`).
//!
//! Linux only where it counts descriptors (`/proc/self/fd`).

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rheem_core::{DataType, Record, Schema, Value};
use rheem_server::protocol::{read_frame, Request, Response};
use rheem_server::{Client, RheemServer, ServerConfig};

/// The tests of this file time round trips and count the process's
/// descriptors, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn schema() -> Schema {
    Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)])
}

fn rows(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| Record::new(vec![Value::Int(i % 5), Value::Int(i)]))
        .collect()
}

/// A client that sends each request frame with *one* write, so its requests
/// never wait on Nagle and only the server's behaviour is on the clock. A
/// read that takes 5 s fails the test instead of hanging it.
struct OneWriteClient(TcpStream);

impl OneWriteClient {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        OneWriteClient(stream)
    }

    fn call(&mut self, request: &Request) -> Response {
        let body = request.encode();
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(&body);
        self.0.write_all(&frame).expect("request");
        self.read().expect("the server closed the connection")
    }

    /// The next frame, or `None` at EOF.
    fn read(&mut self) -> Option<Response> {
        let body = read_frame(&mut self.0).expect("read")?;
        Some(Response::decode(&body).expect("decode"))
    }

    fn hello(&mut self, tenant: &str) {
        let reply = self.call(&Request::Hello {
            tenant: tenant.into(),
        });
        assert!(matches!(reply, Response::Ok), "{reply:?}");
    }
}

/// No response waits for the client's delayed ACK of its length prefix
/// (`TCP_DELACK_MIN`, 40 ms): without `TCP_NODELAY` on the accepted socket
/// every one of these round trips takes 40 ms or more.
#[test]
fn a_response_does_not_wait_for_a_delayed_ack() {
    let _serial = serial();
    const LIMIT: Duration = Duration::from_millis(20);
    let mut handle = RheemServer::start(ServerConfig::default()).expect("server starts");
    let mut client = OneWriteClient::connect(handle.addr());

    let t = Instant::now();
    client.hello("nodelay");
    let hello = t.elapsed();

    let t = Instant::now();
    let reply = client.call(&Request::Register {
        name: "t".into(),
        schema: schema(),
        rows: rows(10),
    });
    let register = t.elapsed();
    assert!(matches!(reply, Response::Ok), "{reply:?}");

    let mut queries: Vec<Duration> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let reply = client.call(&Request::Query {
                sql: "SELECT k, v FROM t WHERE v < 3".into(),
                deadline_ms: None,
            });
            let took = t.elapsed();
            match reply {
                Response::Rows { rows, .. } => assert_eq!(rows.len(), 3),
                other => panic!("{other:?}"),
            }
            took
        })
        .collect();
    queries.sort();
    let median = queries[queries.len() / 2];

    assert!(hello < LIMIT, "HELLO reply took {hello:?}");
    assert!(register < LIMIT, "REGISTER reply took {register:?}");
    assert!(median < LIMIT, "median QUERY round trip {median:?}");

    assert!(matches!(client.call(&Request::Goodbye), Response::Ok));
    handle.shutdown();
}

#[cfg(target_os = "linux")]
fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

/// A session's socket is closed when the session ends — the peer reads EOF —
/// and a running server holds no descriptor of a session that is over.
#[cfg(target_os = "linux")]
#[test]
fn an_ended_session_leaves_no_descriptor_and_its_peer_reads_eof() {
    let _serial = serial();
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        ..ServerConfig::default()
    };
    let mut handle = RheemServer::start(config).expect("server starts");
    let baseline = open_descriptors();

    for _ in 0..200 {
        let mut client = OneWriteClient::connect(handle.addr());
        client.hello("visitor");
        assert!(matches!(client.call(&Request::Goodbye), Response::Ok));
        // EOF is what says the server has closed its side, both descriptors.
        assert!(client.read().is_none(), "a frame after GOODBYE's reply");
    }

    let mut idle: Vec<OneWriteClient> = (0..5)
        .map(|_| {
            let mut client = OneWriteClient::connect(handle.addr());
            client.hello("idler");
            client
        })
        .collect();
    for client in &mut idle {
        match client.read() {
            Some(Response::Err { message }) => assert!(message.contains("idle"), "{message}"),
            other => panic!("expected the eviction notice, got {other:?}"),
        }
        assert!(client.read().is_none(), "an evicted peer reads EOF");
    }
    drop(idle);
    let evicted = handle
        .observability()
        .metrics()
        .counter_value("server.sessions.idle_evicted");
    assert_eq!(evicted, 5);

    assert_eq!(
        open_descriptors(),
        baseline,
        "205 sessions came and went on a running server"
    );
    // A live session is still served, and shutdown closes what is left: the
    // listener and that session.
    let mut live = Client::connect(handle.addr(), "live").expect("connect");
    live.stats().expect("stats");
    handle.shutdown();
    drop(live);
    assert_eq!(open_descriptors(), baseline - 1);
}

/// `count=` and `sum=` of the histogram `name` in a `STATS` text.
fn histogram(stats: &str, name: &str) -> (u64, u64) {
    let line = stats
        .lines()
        .find(|line| line.starts_with(&format!("histogram {name} ")))
        .unwrap_or_else(|| panic!("no `{name}` histogram in STATS:\n{stats}"));
    let field = |key: &str| -> u64 {
        line.split_whitespace()
            .find_map(|word| word.strip_prefix(key))
            .unwrap_or_else(|| panic!("no `{key}` in `{line}`"))
            .parse()
            .expect("a number")
    };
    (field("count="), field("sum="))
}

/// The session clocks every request it serves: `server.request_us`, the six
/// stages that tile it, and the tenant's own `request_us`.
#[test]
fn stats_account_for_every_request_stage_by_stage() {
    let _serial = serial();
    let mut handle = RheemServer::start(ServerConfig::default()).expect("server starts");
    // The two-write `Client`, as the benchmark drives it: its requests still
    // meet the server's delayed ACK, which the server's clock must not show.
    let mut client = Client::connect(handle.addr(), "probe").expect("connect");
    client
        .register("t", schema(), rows(1000))
        .expect("register");
    let mut wire: Vec<Duration> = (0..21)
        .map(|i| {
            let t = Instant::now();
            let sql = [
                "SELECT k, SUM(v) AS s FROM t GROUP BY k",
                "SELECT COUNT(*) AS n FROM t",
            ];
            let (_, rows) = client.query(sql[i % 2]).expect("query");
            assert!(!rows.is_empty());
            t.elapsed()
        })
        .collect();
    wire.sort();
    let stats = client.stats().expect("stats");

    // HELLO, REGISTER and 21 queries were served before this STATS was
    // rendered.
    let served = 23;
    let (requests, request_us) = histogram(&stats, "server.request_us");
    assert_eq!(requests, served, "{stats}");
    assert_eq!(
        histogram(&stats, "server.tenant.probe.request_us").0,
        served
    );
    let mut stage_us = 0;
    for stage in ["decode", "plan", "queue_wait", "run", "encode", "write"] {
        let (count, sum) = histogram(&stats, &format!("server.stage.{stage}_us"));
        assert_eq!(
            count, served,
            "server.stage.{stage}_us counts every request"
        );
        stage_us += sum;
    }
    // The stages tile the request (they add up exactly today); 10 % is the
    // error the layer budget allows.
    assert!(
        stage_us.abs_diff(request_us) * 10 <= request_us,
        "stages sum to {stage_us} us, requests to {request_us} us"
    );
    eprintln!(
        "wire p50 {:?} per query; server-side {} us per request over {served} requests",
        wire[wire.len() / 2],
        request_us / served
    );

    client.goodbye().expect("goodbye");
    handle.shutdown();
}
