//! A small blocking client for the wire protocol.
//!
//! One [`Client`] is one session: connect, `hello`, then any number of
//! `register`/`query`/`stats` calls, then `goodbye`. Used by the
//! integration tests and by the end-to-end benchmark in `benchmark/`.
//!
//! Every request but `REGISTER` leaves as two segments (`write_frame`: length
//! prefix, then body) on a socket with Nagle on, so its body waits ≈ 40 ms
//! for the server's delayed ACK of the prefix — the half of the transport
//! stall that the server (one write per response that fits a slice, and
//! `TCP_NODELAY` on accepted sockets) cannot remove. It stays until the
//! benchmark harness can hold the query rate that removing it would bring
//! (ROADMAP item 1: its per-query samples would grow with it).
//!
//! A response is read whole into the buffer the client keeps between
//! responses; decoding a large result through a small window instead cost
//! more page faults and throughput than the buffer's memory.
//!
//! [`Client::register`] leaves as one write stream and never holds its frame
//! whole: it sizes the body in one pass over the rows, then encodes and
//! writes the frame 1 MiB at a time with the length prefix at the front of
//! the first slice — a table of up to 1 MiB is one write, so it waits out no
//! delayed ACK — and lets go of the rows before it waits for the server's
//! answer. The bytes on the wire are [`Request::Register`]'s.

use std::net::{TcpStream, ToSocketAddrs};

use rheem_core::{Record, Schema};

use crate::protocol::{
    read_frame_into, write_frame, write_register, FrameRead, Request, Response, WireError,
    WireResult,
};

/// A blocking protocol client holding one session.
pub struct Client {
    stream: TcpStream,
    /// The last response's frame body, kept so that reading the next one
    /// allocates nothing (it holds the largest response seen so far).
    body: Vec<u8>,
}

impl Client {
    /// Connect and open a session as `tenant`.
    pub fn connect(addr: impl ToSocketAddrs, tenant: &str) -> WireResult<Self> {
        let stream = TcpStream::connect(addr)?;
        let mut client = Client {
            stream,
            body: Vec::new(),
        };
        match client.call(&Request::Hello {
            tenant: tenant.to_string(),
        })? {
            Response::Ok => Ok(client),
            other => Err(WireError::Malformed(format!(
                "unexpected HELLO reply: {other:?}"
            ))),
        }
    }

    /// Send one request and read one response.
    fn call(&mut self, request: &Request) -> WireResult<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        self.response()
    }

    /// Read one response; an ERR answer is [`WireError::Server`].
    fn response(&mut self) -> WireResult<Response> {
        match read_frame_into(&mut self.stream, None, &mut self.body)? {
            FrameRead::Frame(_) => match Response::decode(&self.body)? {
                Response::Err { message } => Err(WireError::Server(message)),
                response => Ok(response),
            },
            FrameRead::Eof | FrameRead::Idle => {
                Err(WireError::Malformed("server closed the connection".into()))
            }
        }
    }

    /// Register (or replace) an in-memory table. The rows are encoded
    /// straight onto the socket a slice at a time, and dropped once they
    /// are written: a large table is not held while the server decodes it.
    /// A row not as wide as the schema is refused before a byte is written,
    /// and the session goes on.
    pub fn register(&mut self, name: &str, schema: Schema, rows: Vec<Record>) -> WireResult<()> {
        write_register(&mut self.stream, name, &schema, &rows)?;
        drop(rows);
        match self.response()? {
            Response::Ok => Ok(()),
            other => Err(WireError::Malformed(format!(
                "unexpected REGISTER reply: {other:?}"
            ))),
        }
    }

    /// Execute a query; `Err(Server)` carries server-side errors
    /// (planning failures, admission rejections, execution failures).
    pub fn query(&mut self, sql: &str) -> WireResult<(Schema, Vec<Record>)> {
        self.query_request(sql, None)
    }

    /// Execute a query with a wall-clock deadline. Queue wait counts
    /// against it: a request that ages out before reaching a worker is
    /// shed server-side and comes back as `Err(Server)` mentioning
    /// the deadline, as does one cancelled mid-execution.
    pub fn query_with_deadline(
        &mut self,
        sql: &str,
        deadline: std::time::Duration,
    ) -> WireResult<(Schema, Vec<Record>)> {
        self.query_request(sql, Some(deadline.as_millis().min(u64::MAX as u128) as u64))
    }

    fn query_request(
        &mut self,
        sql: &str,
        deadline_ms: Option<u64>,
    ) -> WireResult<(Schema, Vec<Record>)> {
        match self.call(&Request::Query {
            sql: sql.to_string(),
            deadline_ms,
        })? {
            Response::Rows { schema, rows } => Ok((schema, rows)),
            other => Err(WireError::Malformed(format!(
                "unexpected QUERY reply: {other:?}"
            ))),
        }
    }

    /// Cancel one of this tenant's in-flight jobs by id (`0` cancels all
    /// of them). Idempotent; job ids show up in [`Client::stats`] under
    /// `server.tenant.<t>.inflight_ids`. Note a session is blocked while
    /// its own query runs, so cancels are sent from a *second* session
    /// opened under the same tenant.
    pub fn cancel(&mut self, job: u64) -> WireResult<()> {
        match self.call(&Request::Cancel { job })? {
            Response::Ok => Ok(()),
            other => Err(WireError::Malformed(format!(
                "unexpected CANCEL reply: {other:?}"
            ))),
        }
    }

    /// Fetch the server's rendered counter snapshot.
    pub fn stats(&mut self) -> WireResult<String> {
        match self.call(&Request::Stats)? {
            Response::Stats { text } => Ok(text),
            other => Err(WireError::Malformed(format!(
                "unexpected STATS reply: {other:?}"
            ))),
        }
    }

    /// Close the session cleanly.
    pub fn goodbye(mut self) -> WireResult<()> {
        match self.call(&Request::Goodbye)? {
            Response::Ok => Ok(()),
            other => Err(WireError::Malformed(format!(
                "unexpected GOODBYE reply: {other:?}"
            ))),
        }
    }
}
