//! Wire protocol: length-prefixed frames with a one-byte opcode.
//!
//! Every message is `u32` big-endian body length, then the body; the body's
//! first byte is the opcode, the rest is the opcode-specific payload. All
//! integers are big-endian, all strings are `u32`-length-prefixed UTF-8.
//!
//! Requests: [`Request::Hello`] (tenant name), [`Request::Register`]
//! (table name + schema + rows), [`Request::Query`] (SQL text + optional
//! deadline), [`Request::Stats`], [`Request::Cancel`] (in-flight job id),
//! [`Request::Goodbye`]. Responses: [`Response::Ok`],
//! [`Response::Err`] (message), [`Response::Rows`] (schema + rows),
//! [`Response::Stats`] (key/value lines).
//!
//! Values are tagged: `0` null, `1` bool (+1 byte), `2` int (+8 bytes),
//! `3` float (+8 bytes, IEEE bits), `4` string (+length-prefixed UTF-8).
//! The encoding is canonical — equal rows encode to equal bytes — which the
//! byte-identical plan-cache acceptance checks rely on. It does not depend
//! on where the rows come from either: [`encode_result`] writes a result
//! dataset's chunk view to exactly the bytes its row view encodes to.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rheem_core::{Chunk, Column, DataType, Dataset, Record, Schema, Value};

/// Largest frame body accepted (16 MiB): a malformed or malicious length
/// prefix must not make the server attempt an unbounded allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// A protocol-level error (I/O or malformed frame).
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// Frame violated the encoding (bad opcode, bad tag, overlong, ...).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result alias for protocol operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session as the named tenant. Must be the first message.
    Hello {
        /// Tenant (accounting/quota identity), e.g. `"alpha"`.
        tenant: String,
    },
    /// Register (or replace) an in-memory table in the session catalog.
    Register {
        /// Table name as referenced from SQL.
        name: String,
        /// Column names and types.
        schema: Schema,
        /// Table rows.
        rows: Vec<Record>,
    },
    /// Plan and execute a SQL query; replies with [`Response::Rows`].
    Query {
        /// SQL text.
        sql: String,
        /// Optional per-request deadline in milliseconds, counted from
        /// the moment the server admits the request: queue-wait time is
        /// charged against it, and a request that ages out in the
        /// admission queue is shed before ever costing a worker.
        deadline_ms: Option<u64>,
    },
    /// Ask for server-side counters; replies with [`Response::Stats`].
    Stats,
    /// Cancel an in-flight job of this session's tenant. `job: 0`
    /// cancels every in-flight job of the tenant. Replies with
    /// [`Response::Ok`] whether or not the id was still running
    /// (cancellation is idempotent).
    Cancel {
        /// Server-assigned job id (reported in `STATS` under
        /// `server.tenant.<t>.inflight_ids`), or `0` for all.
        job: u64,
    },
    /// Close the session cleanly.
    Goodbye,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success without data.
    Ok,
    /// Failure: admission rejection, planning error, execution error.
    Err {
        /// Human-readable cause.
        message: String,
    },
    /// Query output.
    Rows {
        /// Output schema.
        schema: Schema,
        /// Result rows.
        rows: Vec<Record>,
    },
    /// Counter snapshot as `name=value` lines.
    Stats {
        /// The rendered counter lines.
        text: String,
    },
}

const OP_HELLO: u8 = 0x01;
const OP_REGISTER: u8 = 0x02;
const OP_QUERY: u8 = 0x03;
const OP_STATS: u8 = 0x04;
const OP_GOODBYE: u8 = 0x05;
const OP_CANCEL: u8 = 0x06;
const OP_OK: u8 = 0x80;
const OP_ERR: u8 = 0x81;
const OP_ROWS: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_bool(buf: &mut Vec<u8>, b: bool) {
    buf.extend_from_slice(&[1, u8::from(b)]);
}

fn put_int(buf: &mut Vec<u8>, i: i64) {
    buf.push(2);
    buf.extend_from_slice(&i.to_be_bytes());
}

fn put_float(buf: &mut Vec<u8>, x: f64) {
    buf.push(3);
    buf.extend_from_slice(&x.to_bits().to_be_bytes());
}

fn put_str_value(buf: &mut Vec<u8>, s: &str) {
    buf.push(4);
    put_str(buf, s);
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Bool(b) => put_bool(buf, *b),
        Value::Int(i) => put_int(buf, *i),
        Value::Float(x) => put_float(buf, *x),
        Value::Str(s) => put_str_value(buf, s),
    }
}

fn put_schema(buf: &mut Vec<u8>, schema: &Schema) {
    put_u32(buf, schema.fields().len() as u32);
    for field in schema.fields() {
        put_str(buf, &field.name);
        buf.push(match field.dtype {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
        });
    }
}

/// Where the rows of a frame come from: a row view or a chunk view. Both
/// encode to the same bytes ([`put_rows`]).
enum RowSource<'a> {
    Records(&'a [Record]),
    Chunk(&'a Chunk),
}

/// One column of a chunk as the row writer reads it: the typed lane when no
/// row of the view is NULL, else the values one by one.
enum Lane<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a [Arc<str>], &'a [u32]),
    /// A column with NULLs or of mixed types.
    Values(&'a Column),
}

impl<'a> Lane<'a> {
    fn of(column: &'a Column) -> Self {
        if !column.no_nulls() {
            Lane::Values(column)
        } else if let Some(lane) = column.ints() {
            Lane::Int(lane)
        } else if let Some(lane) = column.floats() {
            Lane::Float(lane)
        } else if let Some(lane) = column.bools() {
            Lane::Bool(lane)
        } else if let Some((dict, codes)) = column.dict_codes() {
            Lane::Str(dict, codes)
        } else {
            Lane::Values(column)
        }
    }

    /// Bytes this column's `rows` values encode to: exact for a typed lane
    /// (strings summed through the dictionary), an estimate for the rest —
    /// only the buffer's reservation depends on it.
    fn encoded_bytes(&self, rows: usize) -> usize {
        match self {
            Lane::Bool(_) => 2 * rows,
            Lane::Str(dict, codes) => {
                5 * rows + codes.iter().map(|&c| dict[c as usize].len()).sum::<usize>()
            }
            _ => 9 * rows,
        }
    }
}

/// The one row writer: a `u32` row count, then per row a `u32` width and its
/// tagged values, appended to the caller's buffer.
fn put_rows(buf: &mut Vec<u8>, source: RowSource<'_>) {
    match source {
        RowSource::Records(rows) => {
            put_u32(buf, rows.len() as u32);
            for row in rows {
                put_u32(buf, row.width() as u32);
                for v in row.fields() {
                    put_value(buf, v);
                }
            }
        }
        RowSource::Chunk(chunk) => {
            let lanes: Vec<Lane<'_>> = chunk.columns().iter().map(Lane::of).collect();
            let rows = chunk.rows();
            put_u32(buf, rows as u32);
            // Sized before the loop (a frame `write_frame` would refuse
            // anyway is not reserved for): the buffer does not grow.
            let values: usize = lanes.iter().map(|l| l.encoded_bytes(rows)).sum();
            buf.reserve((4 * rows + values).min(MAX_FRAME));
            for i in 0..rows {
                put_u32(buf, lanes.len() as u32);
                for lane in &lanes {
                    match lane {
                        Lane::Int(lane) => put_int(buf, lane[i]),
                        Lane::Float(lane) => put_float(buf, lane[i]),
                        Lane::Bool(lane) => put_bool(buf, lane[i]),
                        Lane::Str(dict, codes) => put_str_value(buf, &dict[codes[i] as usize]),
                        Lane::Values(column) => put_value(buf, &column.value(i)),
                    }
                }
            }
        }
    }
}

/// Encode rows canonically (used both inside frames and by the bench's
/// byte-identical output comparison).
pub fn encode_rows(rows: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_rows(&mut buf, RowSource::Records(rows));
    buf
}

fn put_rows_response(buf: &mut Vec<u8>, schema: &Schema, source: RowSource<'_>) {
    buf.push(OP_ROWS);
    put_schema(buf, schema);
    put_rows(buf, source);
}

/// Which view of a result dataset [`encode_result`] wrote the rows from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResultPath {
    /// The chunk view: typed lanes walked row-major, no row built.
    Columnar,
    /// The row view: the dataset has no chunk (ragged rows, or an operator
    /// that produced records, such as an opaque UDF).
    Row,
}

/// The body of the `Rows` response for a job's sink, written straight from
/// the view the dataset already has — the same bytes as
/// `Response::Rows { schema, rows: data.records().to_vec() }.encode()`
/// without building the other view.
pub fn encode_result(schema: &Schema, data: &Dataset) -> (Vec<u8>, ResultPath) {
    // `has_chunk` first: `chunk()` alone would convert a row-built result.
    let (source, path) = match data.has_chunk().then(|| data.chunk()).flatten() {
        Some(chunk) => (RowSource::Chunk(chunk), ResultPath::Columnar),
        None => (RowSource::Records(data.records()), ResultPath::Row),
    };
    let mut buf = Vec::new();
    put_rows_response(&mut buf, schema, source);
    (buf, path)
}

impl Request {
    /// Serialize into a frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Request::Hello { tenant } => {
                buf.push(OP_HELLO);
                put_str(&mut buf, tenant);
            }
            Request::Register { name, schema, rows } => {
                buf.push(OP_REGISTER);
                put_str(&mut buf, name);
                put_schema(&mut buf, schema);
                put_rows(&mut buf, RowSource::Records(rows));
            }
            Request::Query { sql, deadline_ms } => {
                buf.push(OP_QUERY);
                put_str(&mut buf, sql);
                // Presence byte keeps the strict trailing-bytes check:
                // a deadline is either fully there or fully absent.
                match deadline_ms {
                    Some(ms) => {
                        buf.push(1);
                        buf.extend_from_slice(&ms.to_be_bytes());
                    }
                    None => buf.push(0),
                }
            }
            Request::Stats => buf.push(OP_STATS),
            Request::Cancel { job } => {
                buf.push(OP_CANCEL);
                buf.extend_from_slice(&job.to_be_bytes());
            }
            Request::Goodbye => buf.push(OP_GOODBYE),
        }
        buf
    }
}

impl Response {
    /// Serialize into a frame body (opcode + payload, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            Response::Ok => buf.push(OP_OK),
            Response::Err { message } => {
                buf.push(OP_ERR);
                put_str(&mut buf, message);
            }
            Response::Rows { schema, rows } => {
                put_rows_response(&mut buf, schema, RowSource::Records(rows));
            }
            Response::Stats { text } => {
                buf.push(OP_STATS_REPLY);
                put_str(&mut buf, text);
            }
        }
        buf
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Slots of a frame's string table ([`Cursor::str_value`]).
const INTERN_SLOTS: usize = 256;

/// A bounds-checked cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// String values seen in this frame, direct-mapped by a hash of their
    /// bytes; empty until the first string value.
    interned: Vec<Option<Arc<str>>>,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor {
            buf,
            pos: 0,
            interned: Vec::new(),
        }
    }

    /// A capacity for `declared` items of at least `min_bytes` each: what
    /// the frame says, but never more than the bytes left in it can hold.
    fn capacity_for(&self, declared: usize, min_bytes: usize) -> usize {
        declared.min((self.buf.len() - self.pos) / min_bytes)
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("truncated frame".into()))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> WireResult<u32> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> WireResult<u64> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> WireResult<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    /// A string value: one allocation per string, and none for one this
    /// frame already carried (a 5-value column of 100 000 rows costs 5). The
    /// table is direct-mapped, so it is bounded by construction: a string
    /// whose slot holds another one replaces it.
    fn str_value(&mut self) -> WireResult<Arc<str>> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        if self.interned.is_empty() {
            self.interned.resize(INTERN_SLOTS, None);
        }
        // FNV-1a over the length and a prefix: a hit compares every byte.
        let hash = bytes
            .iter()
            .take(16)
            .fold(0xcbf2_9ce4_8422_2325 ^ len as u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let slot = &mut self.interned[(hash >> 32) as usize % INTERN_SLOTS];
        match slot {
            // Equal to a string that was checked: no need to check again.
            Some(seen) if seen.as_bytes() == bytes => Ok(seen.clone()),
            _ => {
                let s = std::str::from_utf8(bytes)
                    .map_err(|_| WireError::Malformed("string is not UTF-8".into()))?;
                Ok(slot.insert(Arc::from(s)).clone())
            }
        }
    }

    fn value(&mut self) -> WireResult<Value> {
        Ok(match self.u8()? {
            0 => Value::Null,
            1 => Value::Bool(self.u8()? != 0),
            2 => Value::Int(self.u64()? as i64),
            3 => Value::Float(f64::from_bits(self.u64()?)),
            4 => Value::Str(self.str_value()?),
            tag => return Err(WireError::Malformed(format!("unknown value tag {tag}"))),
        })
    }

    fn schema(&mut self) -> WireResult<Schema> {
        let n = self.u32()? as usize;
        let mut fields = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = self.str()?;
            let dtype = match self.u8()? {
                0 => DataType::Bool,
                1 => DataType::Int,
                2 => DataType::Float,
                3 => DataType::Str,
                tag => return Err(WireError::Malformed(format!("unknown dtype tag {tag}"))),
            };
            fields.push((name, dtype));
        }
        Ok(Schema::new(fields))
    }

    fn rows(&mut self) -> WireResult<Vec<Record>> {
        let n = self.u32()? as usize;
        // A row is at least its 4-byte width, a value at least its tag.
        let mut rows = Vec::with_capacity(self.capacity_for(n, 4));
        for _ in 0..n {
            let width = self.u32()? as usize;
            let mut fields = Vec::with_capacity(self.capacity_for(width, 1));
            for _ in 0..width {
                fields.push(self.value()?);
            }
            rows.push(Record::new(fields));
        }
        Ok(rows)
    }

    fn finished(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in frame".into()))
        }
    }
}

impl Request {
    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_HELLO => Request::Hello { tenant: c.str()? },
            OP_REGISTER => Request::Register {
                name: c.str()?,
                schema: c.schema()?,
                rows: c.rows()?,
            },
            OP_QUERY => {
                let sql = c.str()?;
                let deadline_ms = match c.u8()? {
                    0 => None,
                    1 => Some(c.u64()?),
                    tag => {
                        return Err(WireError::Malformed(format!(
                            "unknown deadline presence tag {tag}"
                        )))
                    }
                };
                Request::Query { sql, deadline_ms }
            }
            OP_STATS => Request::Stats,
            OP_CANCEL => Request::Cancel { job: c.u64()? },
            OP_GOODBYE => Request::Goodbye,
            op => {
                return Err(WireError::Malformed(format!(
                    "unknown request opcode {op:#x}"
                )))
            }
        };
        c.finished()?;
        Ok(req)
    }
}

impl Response {
    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut c = Cursor::new(body);
        let resp = match c.u8()? {
            OP_OK => Response::Ok,
            OP_ERR => Response::Err { message: c.str()? },
            OP_ROWS => Response::Rows {
                schema: c.schema()?,
                rows: c.rows()?,
            },
            OP_STATS_REPLY => Response::Stats { text: c.str()? },
            op => {
                return Err(WireError::Malformed(format!(
                    "unknown response opcode {op:#x}"
                )))
            }
        };
        c.finished()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame (length prefix + body) to a stream.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> WireResult<()> {
    if body.len() > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame of {} bytes exceeds MAX_FRAME",
            body.len()
        )));
    }
    w.write_all(&(body.len() as u32).to_be_bytes())?;
    w.write_all(body)?;
    w.flush()?;
    Ok(())
}

/// First reservation for a frame body. Past it the buffer grows only with
/// the bytes that have arrived, so a length prefix alone
/// pins at most this much per connection, whatever it declares.
const BODY_RESERVE: usize = 64 << 10;

/// Outcome of one frame read ([`read_frame_into`]).
pub(crate) enum FrameRead {
    /// A complete frame; its body is in the caller's buffer.
    Frame,
    /// Clean EOF at a frame boundary: the peer hung up between messages.
    Eof,
    /// No frame started within the idle timeout.
    Idle,
}

/// `true` for the error kinds a timed-out socket read surfaces
/// (`WouldBlock` on Unix, `TimedOut` on Windows).
fn is_read_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Read one frame into `body` (cleared first; a caller that keeps the buffer
/// between frames, as [`crate::Client`] does, reads the next one without
/// allocating). `idle` says what a timed-out `read` means. `None`: the
/// stream's error, passed on. `Some(idle)`: a tick of a stream whose read
/// timeout the caller set to a short interval — waiting for a frame's
/// *first byte* the ticks add up to [`FrameRead::Idle`] after `idle` (the
/// peer is between requests), while once any byte of the frame has arrived
/// a tick means a slow-but-active peer and the read just continues.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    idle: Option<Duration>,
    body: &mut Vec<u8>,
) -> WireResult<FrameRead> {
    body.clear();
    let boundary = Instant::now();
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::Eof),
            Ok(0) => return Err(WireError::Malformed("EOF inside length prefix".into())),
            Ok(n) => filled += n,
            Err(e) => match idle {
                Some(idle) if is_read_timeout(&e) => {
                    if filled == 0 && boundary.elapsed() >= idle {
                        return Ok(FrameRead::Idle);
                    }
                }
                _ => return Err(WireError::Io(e)),
            },
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "declared frame of {len} bytes exceeds MAX_FRAME"
        )));
    }
    read_body(r, len, idle.is_some(), body)?;
    Ok(FrameRead::Frame)
}

/// Append the `len` bytes of a frame body to `body`, growing it as they
/// arrive (no zero-fill, no allocation sized by the prefix alone). With
/// `ticking`, a read timeout is a mid-frame stall: slow, not idle.
fn read_body(r: &mut impl Read, len: usize, ticking: bool, body: &mut Vec<u8>) -> WireResult<()> {
    body.reserve_exact(len.min(BODY_RESERVE));
    let mut rest = r.take(len as u64);
    // `read_to_end` keeps what it read before an error, and `Take` counts
    // it, so calling again after a tick resumes where the read stopped.
    while let Err(e) = rest.read_to_end(body) {
        if !(ticking && is_read_timeout(&e)) {
            return Err(WireError::Io(e));
        }
    }
    if body.len() < len {
        return Err(WireError::Malformed("EOF inside frame body".into()));
    }
    Ok(())
}

/// Read one frame body from a stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(match read_frame_into(r, None, &mut body)? {
        FrameRead::Frame => Some(body),
        FrameRead::Eof | FrameRead::Idle => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let body = req.encode();
        assert_eq!(Request::decode(&body).unwrap(), req);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Hello {
            tenant: "alpha".into(),
        });
        roundtrip_request(Request::Query {
            sql: "SELECT a FROM t WHERE a > 1".into(),
            deadline_ms: None,
        });
        roundtrip_request(Request::Query {
            sql: "SELECT a FROM t".into(),
            deadline_ms: Some(1_500),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Cancel { job: 7 });
        roundtrip_request(Request::Cancel { job: 0 });
        roundtrip_request(Request::Goodbye);
        roundtrip_request(Request::Register {
            name: "t".into(),
            schema: Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]),
            rows: vec![
                Record::new(vec![Value::Int(1), Value::str("x")]),
                Record::new(vec![Value::Null, Value::Bool(true)]),
                Record::new(vec![Value::Float(2.5), Value::str("")]),
            ],
        });
    }

    #[test]
    fn responses_roundtrip() {
        let resps = vec![
            Response::Ok,
            Response::Err {
                message: "over quota".into(),
            },
            Response::Rows {
                schema: Schema::new(vec![("n", DataType::Int)]),
                rows: vec![Record::new(vec![Value::Int(42)])],
            },
            Response::Stats {
                text: "optimizer.plan_cache.hits=3\n".into(),
            },
        ];
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn equal_rows_encode_to_equal_bytes() {
        let a = vec![Record::new(vec![Value::Int(7), Value::str("abc")])];
        let b = vec![Record::new(vec![Value::Int(7), Value::str("abc")])];
        assert_eq!(encode_rows(&a), encode_rows(&b));
        let c = vec![Record::new(vec![Value::Int(8), Value::str("abc")])];
        assert_ne!(encode_rows(&a), encode_rows(&c));
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats.encode()).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let body = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(Request::decode(&body).unwrap(), Request::Stats);
        assert!(read_frame(&mut r).unwrap().is_none());

        // A hostile length prefix is rejected without allocating.
        let mut hostile = std::io::Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(matches!(
            read_frame(&mut hostile),
            Err(WireError::Malformed(_))
        ));
    }

    /// A peer that declares a frame, delivers `sent` and then stalls:
    /// every later `read` pops the next outcome (`Ok(())` is EOF).
    struct Stalling {
        sent: std::io::Cursor<Vec<u8>>,
        then: Vec<std::io::Result<()>>,
    }

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.sent.read(buf)? {
                0 if self.then.is_empty() => Ok(0),
                0 => self.then.remove(0).map(|()| 0),
                n => Ok(n),
            }
        }
    }

    fn timeout() -> std::io::Result<()> {
        Err(std::io::ErrorKind::WouldBlock.into())
    }

    #[test]
    fn a_length_prefix_alone_does_not_size_the_body_buffer() {
        let stalling = |then| {
            let mut sent = (MAX_FRAME as u32).to_be_bytes().to_vec();
            sent.extend_from_slice(&[7; 10]);
            Stalling {
                sent: std::io::Cursor::new(sent),
                then,
            }
        };
        // The peer hangs up after 10 of 16 Mi bytes: malformed either way.
        for idle in [None, Some(Duration::from_secs(60))] {
            assert!(matches!(
                read_frame_into(&mut stalling(vec![]), idle, &mut Vec::new()),
                Err(WireError::Malformed(m)) if m.contains("EOF inside frame body")
            ));
        }
        // A timeout is the stream's error to `read_frame`...
        assert!(matches!(
            read_frame(&mut stalling(vec![timeout()])),
            Err(WireError::Io(_))
        ));
        // ... and a tick to a session, which keeps reading through it.
        assert!(matches!(
            read_frame_into(
                &mut stalling(vec![timeout(), timeout()]),
                Some(Duration::ZERO),
                &mut Vec::new()
            ),
            Err(WireError::Malformed(_))
        ));
        // What the 4-byte prefix pinned: the first reservation, not 16 MiB.
        let mut peer = stalling(vec![timeout()]);
        peer.sent.set_position(4);
        let mut body = Vec::new();
        assert!(read_body(&mut peer, MAX_FRAME, true, &mut body).is_err());
        assert_eq!(body, [7; 10]);
        assert!(body.capacity() <= BODY_RESERVE);
    }

    #[test]
    fn ticks_count_as_idle_only_before_a_frame_starts() {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Request::Stats.encode()).unwrap();
        // Nothing arrived and the idle timeout has passed: idle.
        let mut quiet = Stalling {
            sent: std::io::Cursor::new(Vec::new()),
            then: vec![timeout()],
        };
        assert!(matches!(
            read_frame_into(&mut quiet, Some(Duration::ZERO), &mut Vec::new()),
            Ok(FrameRead::Idle)
        ));
        // One byte of the prefix arrived: a slow peer, however long it takes.
        let (first, rest) = frame.split_at(1);
        let mut slow = Stalling {
            sent: std::io::Cursor::new(first.to_vec()),
            then: vec![timeout(), timeout()],
        }
        .chain(rest);
        // A kept buffer is cleared, not appended to.
        let mut body = vec![9; 3];
        assert!(matches!(
            read_frame_into(&mut slow, Some(Duration::ZERO), &mut body),
            Ok(FrameRead::Frame)
        ));
        assert_eq!(body, Request::Stats.encode());
    }

    #[test]
    fn truncated_frames_are_malformed_not_panics() {
        let mut body = Request::Query {
            sql: "SELECT".into(),
            deadline_ms: Some(9),
        }
        .encode();
        body.truncate(body.len() - 2);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage is also rejected.
        let mut body = Request::Stats.encode();
        body.push(0);
        assert!(matches!(
            Request::decode(&body),
            Err(WireError::Malformed(_))
        ));
    }
}
