//! Wire protocol: length-prefixed frames with a one-byte opcode.
//!
//! Every message is `u32` big-endian body length, then the body; the body's
//! first byte is the opcode, the rest is the opcode-specific payload. All
//! integers are big-endian, all strings are `u32`-length-prefixed UTF-8.
//!
//! Requests: [`Request::Hello`] (tenant name), [`Request::Register`]
//! (table name + schema + rows; a session decodes this one frame as a
//! [`Registration`], its rows straight into a chunk), [`Request::Query`] (SQL text + optional
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

use rheem_core::{Chunk, Column, ColumnBuilder, DataType, Dataset, Record, Schema, Value};

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

/// One column of a chunk as the row writer reads it: its typed lane, or —
/// for a column of mixed types only — its values one by one.
enum Lane<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [bool]),
    Str(&'a [Arc<str>], &'a [u32]),
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
            let lanes: Vec<_> = chunk.columns().iter().map(Lane::of).collect();
            let rows = chunk.rows();
            put_u32(buf, rows as u32);
            // Sized before the loop (a frame `write_frame` would refuse
            // anyway is not reserved for): the buffer does not grow.
            let values: usize = lanes.iter().map(|(l, _)| l.encoded_bytes(rows)).sum();
            buf.reserve((4 * rows + values).min(MAX_FRAME));
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

fn utf8(bytes: &[u8]) -> WireResult<&str> {
    std::str::from_utf8(bytes).map_err(|_| WireError::Malformed("string is not UTF-8".into()))
}

/// Where the one walk over the row grammar ([`Cursor::rows`]) puts what it
/// reads — the mirror image of [`RowSource`]: rows for a client and for
/// [`Request::decode`], column builders for a session's `REGISTER`.
trait RowSink {
    /// `rows` rows follow: the declared count, capped by what the rest of
    /// the frame can hold.
    fn begin(&mut self, rows: usize);
    /// A row of `width` values follows; `remaining` bytes of the frame are
    /// left for it and every later row. `false` stops the walk: this sink
    /// cannot take the frame.
    fn begin_row(&mut self, width: usize, remaining: usize) -> bool;
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
    interned: Vec<Option<Arc<str>>>,
}

impl RecordSink {
    /// A string value: one allocation per string, and none for one this
    /// frame already carried (a 5-value column of 100 000 rows costs 5). The
    /// table is direct-mapped, so it is bounded by construction: a string
    /// whose slot holds another one replaces it.
    fn intern(&mut self, bytes: &[u8]) -> WireResult<Arc<str>> {
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
            _ => Ok(slot.insert(Arc::from(utf8(bytes)?)).clone()),
        }
    }
}

impl RowSink for RecordSink {
    fn begin(&mut self, rows: usize) {
        self.rows = Vec::with_capacity(rows);
    }
    fn begin_row(&mut self, width: usize, remaining: usize) -> bool {
        // A value is at least its tag.
        self.fields = Vec::with_capacity(width.min(remaining));
        true
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

/// Widest frame the column sink takes. A column costs a fixed ≈ 300 bytes
/// (its builder, its `Column`, its shared lane and bitmap) whatever it holds,
/// where a row costs 24 per value: a frame of one row of millions of
/// one-byte NULLs would cost ten times as columns what it costs as rows.
/// Under this width the fixed part stays near 1 MiB per table.
const MAX_COLUMNAR_WIDTH: usize = 4096;

/// The column sink: one [`ColumnBuilder`] per column, which infers the
/// column's layout from the values as [`Chunk::from_records`] would from
/// the decoded rows. Takes rectangular frames only.
#[derive(Default)]
struct ColumnSink {
    builders: Vec<ColumnBuilder>,
    /// Rows the frame may hold ([`RowSink::begin`]).
    declared: usize,
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
    fn begin(&mut self, rows: usize) {
        self.declared = rows;
    }
    fn begin_row(&mut self, width: usize, remaining: usize) -> bool {
        if self.rows == 0 {
            if width > MAX_COLUMNAR_WIDTH {
                return false;
            }
            // Lanes are sized once, for the rows a frame of this width can
            // hold: this row's tags, then a 4-byte width and the tags of
            // each later one.
            let rows = self.declared.min(1 + remaining / (4 + width));
            self.builders = (0..width)
                .map(|_| ColumnBuilder::with_capacity(rows))
                .collect();
        }
        self.column = 0;
        width == self.builders.len()
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

/// A bounds-checked cursor over a frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
        // Never more than the bytes left can hold: a field is at least its
        // 4-byte name length and its type tag.
        let mut fields = Vec::with_capacity(n.min(self.remaining() / 5));
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

    /// The one walk over the row grammar: a `u32` row count, then per row a
    /// `u32` width and its tagged values, into `sink`. `Ok(false)`: the sink
    /// stopped the walk ([`RowSink::begin_row`]).
    fn rows(&mut self, sink: &mut impl RowSink) -> WireResult<bool> {
        let n = self.u32()? as usize;
        // What the frame says, but never more than the bytes left in it can
        // hold: a row is at least its 4-byte width.
        sink.begin(n.min(self.remaining() / 4));
        for _ in 0..n {
            let width = self.u32()? as usize;
            if !sink.begin_row(width, self.remaining()) {
                return Ok(false);
            }
            for _ in 0..width {
                self.value(sink)?;
            }
            sink.end_row();
        }
        Ok(true)
    }

    fn records(&mut self) -> WireResult<Vec<Record>> {
        let mut sink = RecordSink::default();
        self.rows(&mut sink)?;
        Ok(sink.rows)
    }

    fn finished(&self) -> WireResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes in frame".into()))
        }
    }
}

/// A `REGISTER` frame as a session takes it: the table in the form the
/// catalog holds it in. The rows of the frame are decoded straight into
/// column builders, so `data` is a chunk laid out exactly as
/// `Chunk::from_records` would lay out the rows [`Request::decode`] returns
/// for the same frame, and no [`Record`] is built — unless the frame has no
/// columnar layout (rows of differing widths) or is wider than a few
/// thousand columns, in which case `data` holds those rows.
pub struct Registration {
    /// Table name as referenced from SQL.
    pub name: String,
    /// Column names and types.
    pub schema: Schema,
    /// The table.
    pub data: Dataset,
}

impl Registration {
    /// Decode a frame body; `None` when it is not a `REGISTER` frame (it is
    /// then [`Request::decode`]'s). Malformed frames are refused exactly as
    /// `Request::decode` refuses them.
    pub fn decode(body: &[u8]) -> WireResult<Option<Self>> {
        if body.first() != Some(&OP_REGISTER) {
            return Ok(None);
        }
        let mut c = Cursor::new(&body[1..]);
        let name = c.str()?;
        let schema = c.schema()?;
        let rows_at = c.pos;
        let mut columns = ColumnSink::default();
        let data = if c.rows(&mut columns)? {
            Dataset::from_chunk(columns.finish())
        } else {
            drop(columns);
            c.pos = rows_at;
            Dataset::new(c.records()?)
        };
        c.finished()?;
        Ok(Some(Registration { name, schema, data }))
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
                rows: c.records()?,
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
                text: "plan_cache hits=3 misses=1\n".into(),
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
        put_rows(&mut from_chunk, RowSource::Chunk(&chunk));
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
        assert!(table.data.has_chunk());
        assert_eq!(table.data.records(), &rows[..]);
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

    /// A peer that hands out the first `cut` bytes of `stream` in pieces of
    /// 1 to 9 bytes, answering some reads with a `WouldBlock` tick instead,
    /// and after the cut ticks `then_ticks` more times before EOF. Its
    /// choices come from a splitmix64 stream seeded per case.
    struct Ticking<'a> {
        stream: &'a [u8],
        cut: usize,
        delivered: usize,
        then_ticks: usize,
        rng: u64,
    }

    impl Ticking<'_> {
        fn next(&mut self) -> u64 {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    impl Read for Ticking<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.delivered == self.cut {
                if self.then_ticks == 0 {
                    return Ok(0);
                }
                self.then_ticks -= 1;
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            if self.next().is_multiple_of(4) {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let piece = 1 + (self.next() % 9) as usize;
            let n = piece.min(self.cut - self.delivered).min(buf.len());
            buf[..n].copy_from_slice(&self.stream[self.delivered..self.delivered + n]);
            self.delivered += n;
            Ok(n)
        }
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
        let mut peer = Ticking {
            stream,
            cut,
            delivered: 0,
            then_ticks: (seed % 3) as usize,
            rng: seed,
        };
        let mut body = vec![0xAA; (seed % 7) as usize];
        let outcome = read_frame_into(&mut peer, idle, &mut body);
        let declared = stream
            .get(..4)
            .map(|p| u32::from_be_bytes(p.try_into().unwrap()) as usize);
        match outcome {
            Ok(FrameRead::Frame) => {
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
        }
        assert!(
            body.capacity() <= BODY_RESERVE + peer.delivered,
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
        let len = 3 * BODY_RESERVE + 17;
        let mut stream = (len as u32).to_be_bytes().to_vec();
        stream.extend((0..len).map(|i| (i * 7) as u8));
        for cut in [
            0,
            3,
            4,
            5,
            BODY_RESERVE,
            BODY_RESERVE + 5,
            2 * BODY_RESERVE,
            stream.len(),
        ] {
            for idle in [None, Some(Duration::ZERO)] {
                read_cut(&stream, cut, idle, cut as u64);
            }
        }
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
