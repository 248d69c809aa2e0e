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
//! A `REGISTER` frame is the one that can be large, and neither end holds
//! it whole: [`crate::Client`] sizes its body in one pass over the rows and
//! writes the frame in 1 MiB slices (`SLICE`), the length prefix at the
//! front of the first, and a session ([`read_incoming`]) decodes it as it
//! arrives, through a window of at most 64 KiB (`WINDOW`), straight into the
//! column builders of the chunk it registers ([`Registration`]). Every other
//! frame is read whole.
//!
//! A table is exactly as wide as its schema: every `REGISTER` row must have
//! one value per schema column, and the schema at most 4 096 columns. The
//! decoder refuses any other table as `Malformed`, naming the row and both
//! widths for a misshapen row, and the client refuses such a row before it
//! writes a byte.
//!
//! Values are tagged: `0` null, `1` bool (+1 byte), `2` int (+8 bytes),
//! `3` float (+8 bytes, IEEE bits), `4` string (+length-prefixed UTF-8).
//! The encoding is canonical — equal rows encode to equal bytes — which the
//! byte-identical plan-cache acceptance checks rely on. It does not depend
//! on where the rows come from either: [`encode_result`] writes a result
//! dataset's chunk view to exactly the bytes its row view encodes to.

use std::convert::Infallible;
use std::io::{Read, Write};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use rheem_core::{Chunk, Column, ColumnBuilder, DataType, Dataset, Record, Schema, Text, Value};

/// Largest frame body accepted (16 MiB): a malformed or malicious length
/// prefix must not make the server attempt an unbounded allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// A protocol-level error: I/O, a malformed frame, or the server's answer.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket error.
    Io(std::io::Error),
    /// Frame violated the encoding (bad opcode, bad tag, overlong, ...), or
    /// the server closed the connection.
    Malformed(String),
    /// The server answered the request with an error (a planning or
    /// execution failure, an admission rejection, a refused table or
    /// result); the session goes on.
    Server(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Server(m) => write!(f, "server error: {m}"),
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

/// Bytes [`put_str`] writes for `s`.
fn str_len(s: &str) -> usize {
    4 + s.len()
}

/// Bytes [`put_str_value`] writes for `s`.
fn str_value_len(s: &str) -> usize {
    1 + str_len(s)
}

/// Bytes [`put_value`] writes for `v`: the one table of value sizes, which
/// every size the writers reserve or declare is derived from.
fn value_len(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => str_value_len(s),
    }
}

/// Bytes [`put_schema`] writes for `schema`.
fn schema_len(schema: &Schema) -> usize {
    let fields: usize = schema.fields().iter().map(|f| str_len(&f.name) + 1).sum();
    4 + fields
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

/// One column of a chunk as the row writer reads it: its typed lane, or —
/// for a column of mixed types only — its values one by one.
enum Lane<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a [Text], &'a [u32]),
    Values(&'a Column),
}

impl<'a> Lane<'a> {
    /// The lane of `column`, and the column again when a row of the view is
    /// NULL: the writer then asks it which rows are, and reads the lane for
    /// the rest.
    fn of(column: &'a Column) -> (Self, Option<&'a Column>) {
        let lane = if let Some(lane) = column.ints() {
            Lane::Int(lane)
        } else if let Some(lane) = column.floats() {
            Lane::Float(lane)
        } else if let Some(lane) = column.bools() {
            Lane::Bool(lane)
        } else if let Some((dict, codes)) = column.dict_codes() {
            Lane::Str(dict, codes)
        } else {
            return (Lane::Values(column), None);
        };
        (lane, (!column.no_nulls()).then_some(column))
    }

    /// Bytes this column's `rows` values encode to at most: exact for a
    /// typed lane without NULLs (strings summed through the dictionary; a
    /// NULL is one byte, less than any value), an estimate for a mixed one
    /// — only the buffer's reservation depends on it.
    fn encoded_bytes(&self, rows: usize) -> usize {
        match self {
            Lane::Bool(_) => rows * value_len(&Value::Bool(false)),
            // A view keeps its column's whole dictionary, so each entry's
            // size is taken once only when the codes outnumber the entries.
            Lane::Str(dict, codes) if codes.len() > dict.len() => {
                let entry: Vec<usize> = dict.iter().map(|s| str_value_len(s)).collect();
                codes.iter().map(|&c| entry[c as usize]).sum()
            }
            Lane::Str(dict, codes) => codes
                .iter()
                .map(|&c| str_value_len(&dict[c as usize]))
                .sum(),
            _ => rows * value_len(&Value::Int(0)),
        }
    }
}

/// One row of the row grammar: a `u32` width and its tagged values.
fn put_record(buf: &mut Vec<u8>, row: &Record) {
    put_u32(buf, row.width() as u32);
    for v in row.fields() {
        put_value(buf, v);
    }
}

/// Bytes [`put_record`] writes for `row`.
fn record_len(row: &Record) -> usize {
    4 + row.fields().iter().map(value_len).sum::<usize>()
}

/// The one row writer: a `u32` row count, then per row a `u32` width and its
/// tagged values, appended to the caller's buffer. It stops after the first
/// row that takes the buffer past `limit` bytes, and returns how many rows
/// it wrote.
fn put_rows(buf: &mut Vec<u8>, source: RowSource<'_>, limit: usize) -> usize {
    match source {
        RowSource::Records(rows) => {
            put_u32(buf, rows.len() as u32);
            for (i, row) in rows.iter().enumerate() {
                put_record(buf, row);
                if buf.len() > limit {
                    return i + 1;
                }
            }
            rows.len()
        }
        RowSource::Chunk(chunk) => {
            let lanes: Vec<_> = chunk.columns().iter().map(Lane::of).collect();
            let rows = chunk.rows();
            put_u32(buf, rows as u32);
            // Sized before the loop (past the limit the writer stops): the
            // buffer does not grow.
            let values: usize = lanes.iter().map(|(l, _)| l.encoded_bytes(rows)).sum();
            buf.reserve((4 * rows + values).min(limit));
            for i in 0..rows {
                put_u32(buf, lanes.len() as u32);
                for (lane, nulls) in &lanes {
                    if nulls.is_some_and(|column| !column.is_valid(i)) {
                        buf.push(0);
                        continue;
                    }
                    match lane {
                        Lane::Int(lane) => put_int(buf, lane[i]),
                        Lane::Float(lane) => put_float(buf, lane[i]),
                        Lane::Bool(lane) => put_bool(buf, lane[i]),
                        Lane::Str(dict, codes) => put_str_value(buf, &dict[codes[i] as usize]),
                        Lane::Values(column) => put_value(buf, &column.value(i)),
                    }
                }
                if buf.len() > limit {
                    return i + 1;
                }
            }
            rows
        }
    }
}

/// Encode rows canonically (used both inside frames and by the bench's
/// byte-identical output comparison).
pub fn encode_rows(rows: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_rows(&mut buf, RowSource::Records(rows), usize::MAX);
    buf
}

fn put_rows_response(
    buf: &mut Vec<u8>,
    schema: &Schema,
    source: RowSource<'_>,
    limit: usize,
) -> usize {
    buf.push(OP_ROWS);
    put_schema(buf, schema);
    put_rows(buf, source, limit)
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
/// without building the other view. A body that would pass [`MAX_FRAME`]
/// is not written past it: the error names the result's rows, the bytes
/// they had reached and the limit.
pub fn encode_result(schema: &Schema, data: &Dataset) -> Result<(Vec<u8>, ResultPath), String> {
    // `has_chunk` first: `chunk()` alone would convert a row-built result.
    let (source, path) = match data.has_chunk().then(|| data.chunk()).flatten() {
        Some(chunk) => (RowSource::Chunk(chunk), ResultPath::Columnar),
        None => (RowSource::Records(data.records()), ResultPath::Row),
    };
    let mut buf = Vec::new();
    let written = put_rows_response(&mut buf, schema, source, MAX_FRAME);
    if written < data.len() {
        return Err(format!(
            "result of {} rows too large: {} bytes after {written} rows, \
             past MAX_FRAME ({MAX_FRAME} bytes)",
            data.len(),
            buf.len()
        ));
    }
    Ok((buf, path))
}

/// Bytes a slice of a `REGISTER` frame (the first one's length prefix
/// included) reaches before [`write_register`] writes it out. Measured with
/// `scan-200k` (two REGISTERs per set-up) on a 2-core Linux host: in 64 KiB
/// slices one set-up in 18 took ≈ 55 ms longer — the body's last segment
/// waiting out the server's delayed ACK — and in 1 MiB slices none of 18.
const SLICE: usize = 1 << 20;

/// The one `REGISTER` body writer: opcode, name, schema, then the rows
/// through [`put_record`], handing `buf` to `emit` whenever the next row may
/// take it past `slice` bytes (judged by the row just written), and once at
/// the end. `emit` passes the bytes on and clears the buffer — or, with a
/// `slice` no frame reaches, leaves the whole body in it
/// ([`Request::encode`]).
fn put_register<E>(
    buf: &mut Vec<u8>,
    name: &str,
    schema: &Schema,
    rows: &[Record],
    slice: usize,
    mut emit: impl FnMut(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    buf.push(OP_REGISTER);
    put_str(buf, name);
    put_schema(buf, schema);
    put_u32(buf, rows.len() as u32);
    for row in rows {
        let before = buf.len();
        put_record(buf, row);
        if buf.len() > slice.saturating_sub(buf.len() - before) {
            emit(buf)?;
        }
    }
    emit(buf)
}

/// Bytes of the `REGISTER` body [`put_register`] writes for a table, from
/// one pass over its rows with nothing encoded — or the decoder's refusal of
/// a row that is not as wide as the schema.
fn register_len(name: &str, schema: &Schema, rows: &[Record]) -> WireResult<usize> {
    let columns = schema.fields().len();
    let mut len = 1 + str_len(name) + schema_len(schema) + 4;
    for (i, row) in rows.iter().enumerate() {
        if row.width() != columns {
            return Err(not_schema_wide(i, row.width(), columns));
        }
        len += record_len(row);
    }
    Ok(len)
}

/// Write a `REGISTER` frame without holding its body: the length prefix —
/// the body's exact size ([`register_len`]) — at the front of the first
/// slice, then the body in slices of about [`SLICE`] bytes, so a frame of at
/// most `SLICE` bytes is one write and never waits out the peer's delayed
/// ACK of a prefix sent alone. A row not as wide as the schema and a body
/// past [`MAX_FRAME`] are refused before anything is written, and a body
/// that does not come to the size its prefix declared is an error: no slice
/// past it is written, and the call fails once the body ends short of it.
pub(crate) fn write_register(
    w: &mut impl Write,
    name: &str,
    schema: &Schema,
    rows: &[Record],
) -> WireResult<()> {
    let len = register_len(name, schema, rows)?;
    if len > MAX_FRAME {
        return Err(WireError::Malformed(format!(
            "frame of {len} bytes exceeds MAX_FRAME"
        )));
    }
    let mismatch = |written: usize| {
        WireError::Malformed(format!(
            "REGISTER body of {written} bytes under a prefix of {len}"
        ))
    };
    let framed = 4 + len;
    // A frame that fits one slice is one write, whatever its rows' sizes.
    let limit = if framed <= SLICE { usize::MAX } else { SLICE };
    let mut buf = Vec::with_capacity(framed.min(SLICE));
    buf.extend_from_slice(&(len as u32).to_be_bytes());
    // The prefix counts toward the first slice's bytes, not the body's.
    let mut prefix = buf.len();
    let mut written = 0;
    put_register(&mut buf, name, schema, rows, limit, |slice| {
        written += slice.len() - std::mem::take(&mut prefix);
        if written > len {
            return Err(mismatch(written));
        }
        w.write_all(slice)?;
        slice.clear();
        Ok(())
    })?;
    if written != len {
        return Err(mismatch(written));
    }
    w.flush()?;
    Ok(())
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
                let whole = |_: &mut Vec<u8>| Ok::<_, Infallible>(());
                let Ok(()) = put_register(&mut buf, name, schema, rows, usize::MAX, whole);
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
                put_rows_response(&mut buf, schema, RowSource::Records(rows), usize::MAX);
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

fn utf8(bytes: &[u8]) -> WireResult<&str> {
    std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("string is not UTF-8".into()))
}

/// Where the one walk over the row grammar ([`Cursor::rows`]) puts what it
/// reads — the mirror image of [`RowSource`]: rows for a client's result,
/// column builders for a `REGISTER`.
trait RowSink {
    /// A row of `width` values follows, with `in_hand` bytes of the frame in
    /// hand for it and every later row ([`Cursor::in_hand`]). An error stops
    /// the walk before any of the row's values is read.
    fn begin_row(&mut self, width: usize, in_hand: usize) -> WireResult<()>;
    fn null(&mut self);
    fn bool(&mut self, b: bool);
    fn int(&mut self, i: i64);
    fn float(&mut self, x: f64);
    /// A string value's bytes, not yet checked to be UTF-8.
    fn str(&mut self, bytes: &[u8]) -> WireResult<()>;
    fn end_row(&mut self);
}

/// Slots of a frame's string table ([`RecordSink::intern`]).
const INTERN_SLOTS: usize = 256;

/// The row sink: one [`Record`] per row.
#[derive(Default)]
struct RecordSink {
    rows: Vec<Record>,
    /// The row being read.
    fields: Vec<Value>,
    /// String values seen in this frame, direct-mapped by a hash of their
    /// bytes; empty until the first string value.
    interned: Vec<Option<Text>>,
}

impl RecordSink {
    /// A string value: one `Text` (two allocations) per string, and none
    /// for one this frame already carried (a 5-value column of 100 000 rows
    /// costs 5). The table is direct-mapped, so it is bounded by
    /// construction: a string whose slot holds another one replaces it.
    fn intern(&mut self, bytes: &[u8]) -> WireResult<Text> {
        if self.interned.is_empty() {
            self.interned.resize(INTERN_SLOTS, None);
        }
        // FNV-1a over the length and a prefix: a hit compares every byte.
        let hash = bytes
            .iter()
            .take(16)
            .fold(0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let slot = &mut self.interned[(hash >> 32) as usize % INTERN_SLOTS];
        match slot {
            // Equal to a string that was checked: no need to check again.
            Some(seen) if seen.as_bytes() == bytes => Ok(seen.clone()),
            _ => Ok(slot.insert(Text::from(utf8(bytes)?)).clone()),
        }
    }
}

impl RowSink for RecordSink {
    fn begin_row(&mut self, width: usize, in_hand: usize) -> WireResult<()> {
        // A value is at least its tag.
        self.fields = Vec::with_capacity(width.min(in_hand));
        Ok(())
    }
    fn null(&mut self) {
        self.fields.push(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.fields.push(Value::Bool(b));
    }
    fn int(&mut self, i: i64) {
        self.fields.push(Value::Int(i));
    }
    fn float(&mut self, x: f64) {
        self.fields.push(Value::Float(x));
    }
    fn str(&mut self, bytes: &[u8]) -> WireResult<()> {
        let s = self.intern(bytes)?;
        self.fields.push(Value::Str(s));
        Ok(())
    }
    fn end_row(&mut self) {
        self.rows
            .push(Record::new(std::mem::take(&mut self.fields)));
    }
}

/// Most columns a `REGISTER` schema may have. A column costs a fixed ≈ 300
/// bytes (its builder, its `Column`, its shared lane and bitmap) whatever it
/// holds, so under this width the fixed part of a table stays near 1 MiB.
const MAX_COLUMNAR_WIDTH: usize = 4096;

/// The refusal of a `REGISTER` row that is not as wide as the table's schema:
/// the one message the decoder and [`write_register`] give.
fn not_schema_wide(row: usize, width: usize, columns: usize) -> WireError {
    WireError::Malformed(format!(
        "REGISTER row {row} has {width} values under a schema of {columns} columns"
    ))
}

/// How far past the rows it has read the column sink grows its lanes in one
/// step to reach a frame's declared row count: past the first reservation,
/// a frame's lanes hold at most this many times the rows it has sent.
/// Measured with `scan-200k` (200 000 rows, ≈ 16 000 in the first
/// reservation) on a 2-core Linux host with glibc malloc: lanes that only
/// doubled left each generation behind in the session's arena, where the
/// next session's table could not reuse it — peak RSS 93.6–94.6 MiB against
/// 88.6–88.9 for lanes sized from the declared count at once; reaching it
/// in one step from 16 000 rows measured 84.2–89.8.
const LANE_REACH: usize = 16;

/// The column sink: one [`ColumnBuilder`] per column of the schema, which
/// infers the column's layout from the values as [`Chunk::from_records`]
/// would from the decoded rows. Takes rows exactly as wide as the schema.
#[derive(Default)]
struct ColumnSink {
    builders: Vec<ColumnBuilder>,
    /// Rows the frame may hold: its row count, capped by its length.
    declared: usize,
    /// Rows the lanes have room for.
    reserved: usize,
    /// Rows read.
    rows: usize,
    /// The column the next value of the row belongs to.
    column: usize,
}

impl ColumnSink {
    fn builder(&mut self) -> &mut ColumnBuilder {
        self.column += 1;
        &mut self.builders[self.column - 1]
    }

    fn finish(self) -> Chunk {
        let columns = self.builders.into_iter().map(ColumnBuilder::finish);
        Chunk::new(columns.collect(), self.rows)
    }
}

impl RowSink for ColumnSink {
    fn begin_row(&mut self, width: usize, in_hand: usize) -> WireResult<()> {
        if width != self.builders.len() {
            return Err(not_schema_wide(self.rows, width, self.builders.len()));
        }
        if self.rows == self.reserved {
            // First, room for the rows the bytes in hand can hold (this
            // row's tags, then a 4-byte width and the tags of each later
            // one). Then lanes grow geometrically, never past the declared
            // count: they double while it is out of reach and take it at
            // once when it is within `LANE_REACH` times the rows read, so an
            // honest frame's lanes end at exactly its row count.
            let fits = 1 + in_hand / (4 + width);
            self.reserved = if self.declared <= LANE_REACH * self.rows {
                self.declared
            } else {
                self.declared.min(self.rows + fits.max(self.rows))
            };
            for builder in &mut self.builders {
                builder.reserve(self.reserved);
            }
        }
        self.column = 0;
        Ok(())
    }
    fn null(&mut self) {
        self.builder().push_null();
    }
    fn bool(&mut self, b: bool) {
        self.builder().push_bool(b);
    }
    fn int(&mut self, i: i64) {
        self.builder().push_int(i);
    }
    fn float(&mut self, x: f64) {
        self.builder().push_float(x);
    }
    fn str(&mut self, bytes: &[u8]) -> WireResult<()> {
        self.builder().push_str(utf8(bytes)?);
        Ok(())
    }
    fn end_row(&mut self) {
        self.rows += 1;
    }
}

fn truncated() -> WireError {
    WireError::Malformed("truncated frame".into())
}

/// The bytes a [`Cursor`] walks: a frame body in memory, or one arriving on
/// a stream a window at a time ([`Stream`]).
trait Source {
    /// The bytes in hand.
    fn window(&self) -> &[u8];
    /// Bytes of the frame not yet in hand.
    fn unread(&self) -> usize;
    /// Drop the first `consumed` bytes in hand and take in more of the
    /// frame, until at least `need` bytes are in hand. The caller has
    /// checked that the frame holds them.
    fn refill(&mut self, consumed: usize, need: usize) -> WireResult<()>;
}

impl Source for &[u8] {
    fn window(&self) -> &[u8] {
        self
    }
    fn unread(&self) -> usize {
        0
    }
    fn refill(&mut self, _: usize, _: usize) -> WireResult<()> {
        // All of it is in hand: a cursor never asks.
        Err(truncated())
    }
}

/// A frame body arriving on a stream, held [`WINDOW`] bytes at a time —
/// more only while a value longer than that is in hand.
struct Stream<'r, R> {
    reader: &'r mut R,
    window: Vec<u8>,
    unread: usize,
    /// A read timeout is a tick of a slow peer ([`read_frame_into`]).
    ticking: bool,
}

impl<R: Read> Source for Stream<'_, R> {
    fn window(&self) -> &[u8] {
        &self.window
    }
    fn unread(&self) -> usize {
        self.unread
    }
    fn refill(&mut self, consumed: usize, need: usize) -> WireResult<()> {
        self.window.drain(..consumed);
        // A window grown for a long value goes back to its size.
        let fill = need.max(WINDOW);
        self.window.shrink_to(fill);
        let more = (fill - self.window.len()).min(self.unread);
        read_body(self.reader, more, self.ticking, &mut self.window)?;
        self.unread -= more;
        Ok(())
    }
}

/// A bounds-checked cursor over a frame body: the one walk over the
/// grammar, wherever the bytes come from.
struct Cursor<S> {
    src: S,
    /// Position in the bytes in hand.
    pos: usize,
}

impl<S: Source> Cursor<S> {
    fn new(src: S) -> Self {
        Cursor { src, pos: 0 }
    }

    /// Bytes left in the frame, as its length declares.
    fn remaining(&self) -> usize {
        self.src.window().len() - self.pos + self.src.unread()
    }

    /// Bytes an allocation may be sized by: those in hand, and at most one
    /// window more — never what the frame's length declares alone.
    fn in_hand(&self) -> usize {
        self.src.window().len() - self.pos + self.src.unread().min(WINDOW)
    }

    #[inline]
    fn take(&mut self, n: usize) -> WireResult<&[u8]> {
        let at = self.pos;
        match at.checked_add(n) {
            Some(end) if end <= self.src.window().len() => {
                self.pos = end;
                Ok(&self.src.window()[at..end])
            }
            _ => self.take_refilled(n),
        }
    }

    /// [`Cursor::take`] past the bytes in hand, out of line so that a take
    /// from them stays a compare.
    #[cold]
    #[inline(never)]
    fn take_refilled(&mut self, n: usize) -> WireResult<&[u8]> {
        if n > self.remaining() {
            return Err(truncated());
        }
        self.src.refill(self.pos, n)?;
        self.pos = n;
        Ok(&self.src.window()[..n])
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
        Ok(utf8(self.take(len)?)?.to_owned())
    }

    /// One tagged value, handed to `sink`.
    fn value(&mut self, sink: &mut impl RowSink) -> WireResult<()> {
        match self.u8()? {
            0 => sink.null(),
            1 => sink.bool(self.u8()? != 0),
            2 => sink.int(self.u64()? as i64),
            3 => sink.float(f64::from_bits(self.u64()?)),
            4 => {
                let len = self.u32()? as usize;
                sink.str(self.take(len)?)?;
            }
            tag => return Err(WireError::Malformed(format!("unknown value tag {tag}"))),
        }
        Ok(())
    }

    fn schema(&mut self) -> WireResult<Schema> {
        let n = self.u32()? as usize;
        self.fields(n)
    }

    /// A schema's `n` fields, after its field count.
    fn fields(&mut self, n: usize) -> WireResult<Schema> {
        // Never more than the bytes in hand can hold: a field is at least
        // its 4-byte name length and its type tag.
        let mut fields = Vec::with_capacity(n.min(self.in_hand() / 5));
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

    /// The one walk over the row grammar, after the row count: `count` rows,
    /// each a `u32` width and its tagged values, into `sink`.
    fn rows(&mut self, count: usize, sink: &mut impl RowSink) -> WireResult<()> {
        for _ in 0..count {
            let width = self.u32()? as usize;
            sink.begin_row(width, self.in_hand())?;
            for _ in 0..width {
                self.value(sink)?;
            }
            sink.end_row();
        }
        Ok(())
    }

    /// A row count, then its rows as records.
    fn records(&mut self) -> WireResult<Vec<Record>> {
        let count = self.u32()? as usize;
        let mut sink = RecordSink::default();
        // What the frame says, but never more than the bytes in hand can
        // hold: a row is at least its 4-byte width.
        sink.rows.reserve_exact(count.min(self.in_hand() / 4));
        self.rows(count, &mut sink)?;
        Ok(sink.rows)
    }

    fn finished(&self) -> WireResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in frame".into()))
        }
    }
}

/// A `REGISTER` frame as a session takes it: the table in the form the
/// catalog holds it in. The rows of the frame are decoded straight into one
/// column builder per column of its schema, so `data` is a chunk exactly as
/// wide as `schema`, laid out as `Chunk::from_records` would lay out the
/// frame's rows, and no [`Record`] is built. A frame whose schema has more
/// than 4 096 columns, or with a row not as wide as its schema, is refused.
pub struct Registration {
    /// Table name as referenced from SQL.
    pub name: String,
    /// Column names and types.
    pub schema: Schema,
    /// The table.
    pub data: Chunk,
}

impl Registration {
    /// Decode a frame body; `None` when it is not a `REGISTER` frame (it is
    /// then [`Request::decode`]'s). Malformed frames are refused exactly as
    /// `Request::decode` refuses them.
    pub fn decode(body: &[u8]) -> WireResult<Option<Self>> {
        match body.split_first() {
            Some((&OP_REGISTER, rest)) => Registration::read(&mut Cursor::new(rest)).map(Some),
            _ => Ok(None),
        }
    }

    /// The frame after its opcode, from a slice or from a stream alike: the
    /// one decoder of a `REGISTER`, which [`Request::decode`] calls too.
    fn read(c: &mut Cursor<impl Source>) -> WireResult<Self> {
        let name = c.str()?;
        let columns = c.u32()? as usize;
        if columns > MAX_COLUMNAR_WIDTH {
            return Err(WireError::Malformed(format!(
                "REGISTER schema of {columns} columns exceeds the {MAX_COLUMNAR_WIDTH} a table may have"
            )));
        }
        let schema = c.fields(columns)?;
        let count = c.u32()? as usize;
        // No more rows than the frame can hold: a row is at least its 4-byte
        // width and a tag per column. A cap, not a size: what the sink
        // reserves still follows the bytes that arrive.
        let mut sink = ColumnSink {
            builders: (0..columns).map(|_| ColumnBuilder::default()).collect(),
            declared: count.min(c.remaining() / (4 + columns)),
            ..ColumnSink::default()
        };
        c.rows(count, &mut sink)?;
        c.finished()?;
        Ok(Registration {
            name,
            schema,
            data: sink.finish(),
        })
    }
}

impl Request {
    /// Decode a frame body.
    pub fn decode(body: &[u8]) -> WireResult<Self> {
        let mut c = Cursor::new(body);
        let req = match c.u8()? {
            OP_HELLO => Request::Hello { tenant: c.str()? },
            OP_REGISTER => {
                let Registration { name, schema, data } = Registration::read(&mut c)?;
                Request::Register {
                    name,
                    schema,
                    rows: data.to_records(),
                }
            }
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
                rows: c.records()?,
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
///
/// Two writes: every request but `REGISTER` (`write_register`) leaves the
/// client this way, so on its Nagle-on socket the body waits out the
/// server's delayed ACK of the prefix — the request-side stall that ROADMAP
/// item 1 removes once the benchmark harness can hold the query rate.
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

/// First reservation for a frame body, and the most of a `REGISTER` body a
/// session holds at a time ([`read_incoming`]; a smaller frame gets its own
/// length): a length prefix alone pins at most this much per connection,
/// whatever it declares. Measured with `scan-200k`'s 8.16 MB `orders` frame
/// on a 2-core Linux host: decoded from memory through this window in
/// 8.1–8.3 ms against 7.5–7.6 ms as one slice — the difference is the copy
/// into the window.
const WINDOW: usize = 64 << 10;

/// Outcome of one frame read ([`read_frame_into`]).
pub(crate) enum FrameRead {
    /// A complete frame; its body is in the caller's buffer. The instant
    /// its length prefix completed.
    Frame(Instant),
    /// Clean EOF at a frame boundary: the peer hung up between messages.
    Eof,
    /// No frame started within the idle timeout.
    Idle,
}

/// Outcome of one frame read as a session reads it ([`read_incoming`]).
pub enum Incoming {
    /// A `REGISTER` frame, its table decoded as the frame arrived.
    Register {
        /// The table.
        table: Registration,
        /// The instant the frame's length prefix completed.
        prefixed: Instant,
        /// The instant its opcode byte was read.
        opened: Instant,
    },
    /// Any other frame's body, read whole.
    Body {
        /// The body.
        body: Vec<u8>,
        /// The instant the frame's length prefix completed.
        prefixed: Instant,
    },
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

/// A frame's length prefix, checked against [`MAX_FRAME`] before any body
/// byte is read, and the instant it completed — or how the read ended
/// without one ([`FrameRead::Eof`] or [`FrameRead::Idle`]). `idle` says
/// what a timed-out `read` means. `None`:
/// the stream's error, passed on.
/// `Some(idle)`: a tick of a stream whose read timeout the caller set to a
/// short interval — waiting for a frame's *first byte* the ticks add up to
/// [`FrameRead::Idle`] after `idle` (the peer is between requests), while
/// once any byte of the frame has arrived a tick means a slow-but-active
/// peer and the read just continues.
fn read_prefix(
    r: &mut impl Read,
    idle: Option<Duration>,
) -> WireResult<ControlFlow<FrameRead, (usize, Instant)>> {
    let boundary = Instant::now();
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(ControlFlow::Break(FrameRead::Eof)),
            Ok(0) => return Err(WireError::Malformed("EOF inside length prefix".into())),
            Ok(n) => filled += n,
            Err(e) => match idle {
                Some(idle) if is_read_timeout(&e) => {
                    if filled == 0 && boundary.elapsed() >= idle {
                        return Ok(ControlFlow::Break(FrameRead::Idle));
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
    Ok(ControlFlow::Continue((len, Instant::now())))
}

/// Read one frame into `body` (cleared first; a caller that keeps the buffer
/// between frames, as [`crate::Client`] does, reads the next one without
/// allocating). `idle` as for [`read_prefix`].
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    idle: Option<Duration>,
    body: &mut Vec<u8>,
) -> WireResult<FrameRead> {
    body.clear();
    let (len, prefixed) = match read_prefix(r, idle)? {
        ControlFlow::Continue(prefix) => prefix,
        ControlFlow::Break(end) => return Ok(end),
    };
    read_body(r, len, idle.is_some(), body)?;
    Ok(FrameRead::Frame(prefixed))
}

/// Read one frame as a session does. A `REGISTER` is decoded as its bytes
/// arrive, through a window of at most 64 KiB, straight into the column
/// builders of its table ([`Registration`]); any other frame is read whole.
/// `idle: None` passes a read timeout on as the stream's error; `Some(idle)`
/// takes it as a tick — [`Incoming::Idle`] once `idle` has passed before a
/// frame's first byte, a slow peer after it. A malformed frame is refused
/// with [`Registration::decode`]'s message for its bytes, or — when the peer
/// hangs up inside it first — with `EOF inside frame body`.
pub fn read_incoming(r: &mut impl Read, idle: Option<Duration>) -> WireResult<Incoming> {
    let (len, prefixed) = match read_prefix(r, idle)? {
        ControlFlow::Continue(prefix) => prefix,
        ControlFlow::Break(FrameRead::Idle) => return Ok(Incoming::Idle),
        ControlFlow::Break(_) => return Ok(Incoming::Eof),
    };
    let ticking = idle.is_some();
    // The opcode, into the buffer that then holds either the rest of the
    // frame or a REGISTER's window.
    let mut buf = Vec::with_capacity(len.min(WINDOW));
    read_body(r, len.min(1), ticking, &mut buf)?;
    if buf == [OP_REGISTER] {
        let opened = Instant::now();
        buf.clear();
        let mut c = Cursor::new(Stream {
            reader: r,
            window: buf,
            unread: len - 1,
            ticking,
        });
        let table = Registration::read(&mut c)?;
        return Ok(Incoming::Register {
            table,
            prefixed,
            opened,
        });
    }
    read_body(r, len - buf.len(), ticking, &mut buf)?;
    Ok(Incoming::Body {
        body: buf,
        prefixed,
    })
}

/// Append `len` bytes of a frame body to `body`, growing it as they arrive
/// (no zero-fill, no allocation sized by the prefix alone). With `ticking`,
/// a read timeout is a mid-frame stall: slow, not idle.
fn read_body(r: &mut impl Read, len: usize, ticking: bool, body: &mut Vec<u8>) -> WireResult<()> {
    body.reserve_exact(len.min(WINDOW));
    let end = body.len() + len;
    let mut rest = r.take(len as u64);
    // `read_to_end` keeps what it read before an error, and `Take` counts
    // it, so calling again after a tick resumes where the read stopped.
    while let Err(e) = rest.read_to_end(body) {
        if !(ticking && is_read_timeout(&e)) {
            return Err(WireError::Io(e));
        }
    }
    if body.len() < end {
        return Err(WireError::Malformed("EOF inside frame body".into()));
    }
    Ok(())
}

/// Read one frame body from a stream. Returns `Ok(None)` on a clean EOF at
/// a frame boundary (peer hung up between messages).
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Vec<u8>>> {
    let mut body = Vec::new();
    Ok(match read_frame_into(r, None, &mut body)? {
        FrameRead::Frame(_) => Some(body),
        FrameRead::Eof | FrameRead::Idle => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::CutReader;

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
                text: "plan_cache hits=3 misses=1\n".into(),
            },
        ];
        for resp in resps {
            let body = resp.encode();
            assert_eq!(Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn the_repeated_strings_of_a_rows_frame_share_one_allocation() {
        // Each row brings its own allocation of "east"; the decoder
        // interns them, so the decoded rows hold one `Text` between them.
        let rows: Vec<Record> = (0..6)
            .map(|i| Record::new(vec![Value::Int(i), Value::str("east"), Value::str("west")]))
            .collect();
        let body = Response::Rows {
            schema: Schema::new(vec![
                ("i", DataType::Int),
                ("a", DataType::Str),
                ("b", DataType::Str),
            ]),
            rows: rows.clone(),
        }
        .encode();
        let Response::Rows { rows: decoded, .. } = Response::decode(&body).unwrap() else {
            panic!("a Rows frame decodes to rows")
        };
        assert_eq!(decoded, rows);
        let text = |row: &Record, c: usize| match &row.fields()[c] {
            Value::Str(s) => s.clone(),
            other => panic!("expected a string, got {other:?}"),
        };
        for c in [1, 2] {
            let first = text(&decoded[0], c);
            assert!(decoded
                .iter()
                .all(|row| Text::ptr_eq(&text(row, c), &first)));
        }
        assert!(!Text::ptr_eq(&text(&decoded[0], 1), &text(&decoded[0], 2)));
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
    fn only_a_mixed_column_is_written_value_by_value() {
        let rows = vec![
            Record::new(vec![
                Value::Int(1),
                Value::str("x"),
                Value::Float(0.5),
                Value::Bool(true),
                Value::Int(7),
                Value::Int(1),
            ]),
            Record::new(vec![
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(8),
                Value::str("s"),
            ]),
        ];
        let chunk = Chunk::from_records(&rows).expect("rectangular");
        let lanes: Vec<_> = chunk.columns().iter().map(Lane::of).collect();
        // A NULL in view keeps the typed lane — no `Value`, and for strings
        // no `Arc` clone, per cell — and names the column to ask about NULLs.
        assert!(matches!(lanes[0], (Lane::Int(_), Some(_))));
        assert!(matches!(lanes[1], (Lane::Str(..), Some(_))));
        assert!(matches!(lanes[2], (Lane::Float(_), Some(_))));
        assert!(matches!(lanes[3], (Lane::Bool(_), Some(_))));
        assert!(matches!(lanes[4], (Lane::Int(_), None)));
        assert!(matches!(lanes[5], (Lane::Values(_), None)));
        // A window the NULLs are outside of has none to ask about.
        let head = chunk.slice(0, 1);
        assert!(matches!(
            Lane::of(&head.columns()[1]),
            (Lane::Str(..), None)
        ));
        let mut from_chunk = Vec::new();
        put_rows(&mut from_chunk, RowSource::Chunk(&chunk), usize::MAX);
        assert_eq!(from_chunk, encode_rows(&rows));
    }

    #[test]
    fn a_session_decodes_a_register_frame_into_a_chunk() {
        let request = Request::Register {
            name: "t".into(),
            schema: Schema::new(vec![("a", DataType::Int), ("s", DataType::Str)]),
            rows: vec![
                Record::new(vec![Value::Int(1), Value::str("x")]),
                Record::new(vec![Value::Null, Value::str("x")]),
            ],
        };
        let Request::Register { name, schema, rows } = request.clone() else {
            unreachable!()
        };
        let table = Registration::decode(&request.encode())
            .expect("decodes")
            .expect("a REGISTER");
        assert_eq!((table.name, table.schema), (name, schema));
        assert_eq!(table.data.to_records(), rows);
        // Any other frame is `Request::decode`'s, malformed ones included.
        assert!(Registration::decode(&Request::Stats.encode())
            .expect("not an error")
            .is_none());
        assert!(Registration::decode(&[]).expect("not an error").is_none());
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
        assert!(body.capacity() <= WINDOW);
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
            Ok(FrameRead::Frame(_))
        ));
        assert_eq!(body, Request::Stats.encode());
    }

    /// Byte streams a peer might send: a real frame with or without bytes
    /// after it, a small declared length over arbitrary bytes, a length
    /// past `MAX_FRAME`, or arbitrary bytes.
    fn streams() -> impl proptest::strategy::Strategy<Value = Vec<u8>> {
        use proptest::prelude::*;
        (
            0u8..4,
            proptest::collection::vec(any::<u8>(), 0..48),
            any::<u32>(),
        )
            .prop_map(|(shape, bytes, len)| match shape {
                0 => {
                    let mut out = Vec::new();
                    let sql = String::from_utf8_lossy(&bytes).into_owned();
                    let query = Request::Query {
                        sql,
                        deadline_ms: None,
                    };
                    write_frame(&mut out, &query.encode()).unwrap();
                    out.extend_from_slice(&bytes[..bytes.len() % 5]);
                    out
                }
                1 => {
                    let mut out = (len % 64).to_be_bytes().to_vec();
                    out.extend_from_slice(&bytes);
                    out
                }
                2 => {
                    let mut out = (MAX_FRAME as u32 + 1 + len % 64).to_be_bytes().to_vec();
                    out.extend_from_slice(&bytes);
                    out
                }
                _ => bytes,
            })
    }

    /// Read one frame from a peer delivering `stream[..cut]`: whatever the
    /// bytes, the cut and the ticks, the read ends in a frame, a clean EOF,
    /// idleness or a typed error, and the body buffer holds no more than
    /// its first reservation plus the bytes that arrived.
    fn read_cut(stream: &[u8], cut: usize, idle: Option<Duration>, seed: u64) {
        let mut peer = CutReader::new(stream, cut, seed);
        let mut body = vec![0xAA; (seed % 7) as usize];
        let outcome = read_frame_into(&mut peer, idle, &mut body);
        let declared = stream
            .get(..4)
            .map(|p| u32::from_be_bytes(p.try_into().unwrap()) as usize);
        match outcome {
            Ok(FrameRead::Frame(_)) => {
                let len = declared.expect("a frame has a prefix");
                assert_eq!(body, stream[4..4 + len], "cut {cut}");
            }
            Ok(FrameRead::Eof) => assert_eq!(peer.delivered, 0, "EOF after bytes, cut {cut}"),
            Ok(FrameRead::Idle) => {
                assert!(
                    idle.is_some() && peer.delivered == 0,
                    "idle mid-frame, cut {cut}"
                )
            }
            Err(WireError::Malformed(_)) => {}
            // Only a reader without an idle timeout passes a tick on.
            Err(WireError::Io(e)) => {
                assert!(idle.is_none() && is_read_timeout(&e), "{e} at cut {cut}")
            }
            Err(e @ WireError::Server(_)) => panic!("a frame read answered {e}"),
        }
        assert!(
            body.capacity() <= WINDOW + peer.delivered,
            "{} bytes reserved after {} delivered (cut {cut})",
            body.capacity(),
            peer.delivered
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// `read_frame_into` over arbitrary streams cut at every offset,
        /// with `WouldBlock` ticks before, inside and after the bytes, as
        /// a session (ticking) and as a client (no idle timeout) reads.
        #[test]
        fn prop_read_frame_into_ends_typed_at_every_cut(
            stream in streams(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            for cut in 0..=stream.len() {
                for idle in [None, Some(Duration::ZERO)] {
                    read_cut(&stream, cut, idle, seed ^ cut as u64);
                }
            }
        }
    }

    /// A declared length past the first reservation, delivered in part or
    /// whole: the buffer grows with the bytes, never ahead of them by more
    /// than the first reservation.
    #[test]
    fn a_long_frame_grows_its_buffer_with_the_bytes() {
        let len = 3 * WINDOW + 17;
        let mut stream = (len as u32).to_be_bytes().to_vec();
        stream.extend((0..len).map(|i| (i * 7) as u8));
        for cut in [0, 3, 4, 5, WINDOW, WINDOW + 5, 2 * WINDOW, stream.len()] {
            for idle in [None, Some(Duration::ZERO)] {
                read_cut(&stream, cut, idle, cut as u64);
            }
        }
    }

    #[test]
    fn a_register_streams_through_one_window() {
        let row = |i: usize| {
            let s = if i == 2_000 {
                "y".repeat(3 * WINDOW)
            } else {
                "east".into()
            };
            Record::new(vec![Value::str(s), Value::Int(i as i64), Value::Null])
        };
        let body = Request::Register {
            name: "t".into(),
            schema: Schema::new(vec![
                ("s", DataType::Str),
                ("i", DataType::Int),
                ("n", DataType::Int),
            ]),
            rows: (0..4_000).map(row).collect(),
        }
        .encode();
        let mut peer = std::io::Cursor::new(&body[1..]);
        let mut c = Cursor::new(Stream {
            reader: &mut peer,
            window: Vec::with_capacity(WINDOW),
            unread: body.len() - 1,
            ticking: false,
        });
        let streamed = Registration::read(&mut c).expect("decodes");
        // Grown for the long string, and back to a window after it.
        assert!(c.src.window.capacity() <= WINDOW);
        let whole = Registration::decode(&body).unwrap().unwrap();
        assert_eq!(streamed.data.to_records(), whole.data.to_records());
    }

    /// A writer that keeps the bytes of each `write` apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A one-column string table whose `REGISTER` frame, length prefix
    /// included, is exactly `framed` bytes: rows of 1 009 bytes, and one
    /// longer row before the last, so the row-size guess of `put_register`
    /// would cut a slice before the last row.
    fn table_framed_to(framed: usize) -> (Schema, Vec<Record>) {
        let schema = Schema::new(vec![("s", DataType::Str)]);
        let frame_len = |rows: &[Record]| {
            let request = Request::Register {
                name: "tbl".into(),
                schema: schema.clone(),
                rows: rows.to_vec(),
            };
            4 + request.encode().len()
        };
        // A row: width, tag, string length, then the string.
        let row = |bytes: usize| Record::new(vec![Value::str("x".repeat(bytes - 9))]);
        let rest = framed - frame_len(&[]);
        let mut rows = vec![row(1009); rest / 1009 - 2];
        rows.insert(rows.len() - 1, row(2 * 1009 + rest % 1009));
        assert_eq!(frame_len(&rows), framed);
        (schema, rows)
    }

    #[test]
    fn a_register_frame_leaves_in_slices_as_the_bytes_it_encodes_to() {
        let mut rng = testkit::Rng(33);
        let mut tables: Vec<(Schema, Vec<Record>)> = [(0, 0), (0, 3), (5, 0), (40, 6), (60_000, 4)]
            .into_iter()
            .map(|(rows, width)| {
                let fields = (0..width).map(|c| (format!("c{c}"), DataType::Str));
                let table = testkit::dirty_table(&mut rng, rows, width);
                (Schema::new(fields.collect()), table)
            })
            .collect();
        // On `SLICE` and one byte past it: the prefix counts toward the first
        // slice's bytes, and not toward the body its prefix declares.
        tables.extend([SLICE, SLICE + 1].map(table_framed_to));
        for (schema, table) in tables {
            let request = Request::Register {
                name: "tbl".into(),
                schema: schema.clone(),
                rows: table.clone(),
            };
            let mut expected = Vec::new();
            write_frame(&mut expected, &request.encode()).unwrap();
            let mut writes = Writes::default();
            write_register(&mut writes, "tbl", &schema, &table).unwrap();
            // The first write is the prefix and then the body's opcode, and
            // a frame that fits one slice leaves in exactly one write.
            assert_eq!(writes.0[0][..5], expected[..5]);
            assert_eq!(expected[4], OP_REGISTER);
            if expected.len() <= SLICE {
                assert_eq!(writes.0.len(), 1, "{} bytes", expected.len());
            }
            assert_eq!(writes.0.concat(), expected);
            // A slice stops before the row that would take it past `SLICE`,
            // judged by the size of the row before.
            assert!(writes.0.iter().all(|slice| slice.len() <= SLICE + 64));
            assert!(writes.0.len() >= expected.len().div_ceil(SLICE));
        }
        // Past `MAX_FRAME`: refused before anything is written.
        let huge = vec![Record::new(vec![Value::str("x".repeat(MAX_FRAME))])];
        let mut writes = Writes::default();
        let schema = Schema::new(vec![("s", DataType::Str)]);
        assert!(matches!(
            write_register(&mut writes, "t", &schema, &huge),
            Err(WireError::Malformed(m)) if m.contains("exceeds MAX_FRAME")
        ));
        assert!(writes.0.is_empty());
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
