//! A small blocking client for the wire protocol.
//!
//! One [`Client`] is one session: connect, `hello`, then any number of
//! `register`/`query`/`stats` calls, then `goodbye`. Used by the
//! integration tests, by `ablation_server` and by the end-to-end benchmark in
//! `benchmark/`.
//!
//! A request leaves as two segments (`write_frame`: length prefix, then body)
//! on a socket with Nagle on, so its body waits ≈ 40 ms for the server's
//! delayed ACK of the prefix — the half of the transport stall that the
//! server's `TCP_NODELAY` on accepted sockets cannot remove, tracked in
//! ROADMAP item 1.

use std::net::{TcpStream, ToSocketAddrs};

use rheem_core::{Record, Schema};

use crate::protocol::{
    read_frame_into, write_frame, FrameRead, Request, Response, WireError, WireResult,
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
            Response::Err { message } => Err(WireError::Malformed(message)),
            other => Err(WireError::Malformed(format!(
                "unexpected HELLO reply: {other:?}"
            ))),
        }
    }

    /// Send one request and read one response.
    pub fn call(&mut self, request: &Request) -> WireResult<Response> {
        write_frame(&mut self.stream, &request.encode())?;
        match read_frame_into(&mut self.stream, None, &mut self.body)? {
            FrameRead::Frame => Response::decode(&self.body),
            FrameRead::Eof | FrameRead::Idle => {
                Err(WireError::Malformed("server closed the connection".into()))
            }
        }
    }

    /// Register (or replace) an in-memory table.
    pub fn register(&mut self, name: &str, schema: Schema, rows: Vec<Record>) -> WireResult<()> {
        match self.call(&Request::Register {
            name: name.to_string(),
            schema,
            rows,
        })? {
            Response::Ok => Ok(()),
            Response::Err { message } => Err(WireError::Malformed(message)),
            other => Err(WireError::Malformed(format!(
                "unexpected REGISTER reply: {other:?}"
            ))),
        }
    }

    /// Execute a query; `Err(Malformed)` carries server-side errors
    /// (planning failures, admission rejections, execution failures).
    pub fn query(&mut self, sql: &str) -> WireResult<(Schema, Vec<Record>)> {
        self.query_request(sql, None)
    }

    /// Execute a query with a wall-clock deadline. Queue wait counts
    /// against it: a request that ages out before reaching a worker is
    /// shed server-side and comes back as `Err(Malformed)` mentioning
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
            Response::Err { message } => Err(WireError::Malformed(message)),
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
            Response::Err { message } => Err(WireError::Malformed(message)),
            other => Err(WireError::Malformed(format!(
                "unexpected CANCEL reply: {other:?}"
            ))),
        }
    }

    /// Fetch the server's rendered counter snapshot.
    pub fn stats(&mut self) -> WireResult<String> {
        match self.call(&Request::Stats)? {
            Response::Stats { text } => Ok(text),
            Response::Err { message } => Err(WireError::Malformed(message)),
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
