//! Columnar chunk representation of record batches.
//!
//! The paper's platform layer prescribes batch-oriented execution operators
//! (§3.1): execution operators process *batches* of data quanta, not one
//! quantum at a time. This module provides the batch layout: a [`Chunk`] is
//! a set of typed column vectors ([`Column`]) with validity bitmaps
//! ([`Bitmap`]) and cheap zero-copy slicing, so partitions and windows are
//! *views* of shared column storage instead of cloned rows.
//!
//! The row-oriented [`Record`] API remains the conversion boundary:
//! [`Chunk::from_records`] / [`Chunk::to_records`] round-trip exactly
//! (including `NaN` payload bits, `-0.0`, and `Null` via validity bits), so
//! platforms and storage keep working unchanged while kernels
//! migrate to the columnar path.

use std::collections::HashMap;
use std::sync::Arc;

use super::{str_bytes, value_bytes, Record, Text, Value};

/// A validity bitmap: one bit per row, `1` = valid, `0` = null.
///
/// Typed columns store a neutral payload (0, 0.0, `false`, dictionary code
/// 0) in null lanes; the bitmap is the source of truth for null-ness.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// An empty bitmap.
    pub(crate) fn new() -> Self {
        Bitmap::default()
    }

    /// Append one bit.
    pub(crate) fn push(&mut self, valid: bool) {
        let word = self.len / 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if valid {
            self.words[word] |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// `len` valid bits, with room for `capacity` (a builder's first NULL
    /// arrives after `len` values that were not).
    fn all_valid(len: usize, capacity: usize) -> Self {
        let mut words = Vec::with_capacity(capacity.max(len + 1).div_ceil(64));
        words.resize(len / 64, u64::MAX);
        let tail = len % 64;
        if tail > 0 {
            words.push((1u64 << tail) - 1);
        }
        Bitmap { words, len }
    }

    /// Read bit `i`; out-of-range bits read as valid.
    pub(crate) fn get(&self, i: usize) -> bool {
        if i >= self.len {
            return true;
        }
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// True iff every bit in `[offset, offset + len)` is valid.
    pub(crate) fn all_valid_in(&self, offset: usize, len: usize) -> bool {
        (offset..offset + len).all(|i| self.get(i))
    }
}

/// Physical storage of one column: a typed vector or a mixed fallback.
///
/// Null lanes of typed variants hold a neutral payload; the owning
/// [`Column`]'s validity bitmap distinguishes them. `Mixed` stores
/// [`Value`]s verbatim (including `Null`) and never carries a bitmap.
#[derive(Clone, Debug)]
pub enum ColumnData {
    /// All values are `Int` (or `Null`).
    Int(Vec<i64>),
    /// All values are `Float` (or `Null`); `NaN` payload bits preserved.
    Float(Vec<f64>),
    /// All values are `Bool` (or `Null`).
    Bool(Vec<bool>),
    /// All values are `Str` (or `Null`), dictionary-encoded.
    Str {
        /// Distinct strings, in first-appearance order.
        dict: Vec<Text>,
        /// Per-row index into `dict` (0 for null lanes).
        codes: Vec<u32>,
    },
    /// Heterogeneous column: values stored verbatim.
    Mixed(Vec<Value>),
}

impl ColumnData {}

/// Interns strings into a dictionary of distinct entries, in
/// first-appearance order.
#[derive(Default)]
struct DictBuilder {
    entries: Vec<Text>,
    codes: HashMap<Text, u32>,
}

impl DictBuilder {
    /// The code of `s`; a new string is appended to the dictionary as the
    /// allocation `share` hands over (a clone of the caller's [`Text`], or a
    /// fresh one when the caller only has bytes).
    fn code(&mut self, s: &str, share: impl FnOnce() -> Text) -> u32 {
        if let Some(&code) = self.codes.get(s) {
            return code;
        }
        let code = self.entries.len() as u32;
        let entry = share();
        self.entries.push(entry.clone());
        self.codes.insert(entry, code);
        code
    }
}

/// The values a [`ColumnBuilder`] has taken so far, in the tightest layout
/// that holds them.
#[derive(Default)]
enum Lane {
    /// Nothing but NULLs yet: no payload to store, no type to commit to.
    #[default]
    Unknown,
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Codes into the builder's dictionary.
    Str(Vec<u32>),
    Mixed(Vec<Value>),
}

/// Builds one [`Column`] a value at a time — the one place a column's layout
/// is inferred, whether the values come from records
/// (`Column::from_value_refs`) or from bytes a decoder is walking.
///
/// Inference is value-driven: the first non-NULL value picks the typed lane
/// (NULLs before it are backfilled with the neutral payload), a NULL starts
/// the validity bitmap, and a value of a second scalar type degrades the
/// column to `ColumnData::Mixed`. A column that only ever saw NULLs is
/// `Int` zeros under an all-null bitmap.
#[derive(Default)]
pub struct ColumnBuilder {
    lane: Lane,
    /// Present from the first NULL on; a `Mixed` lane stores its NULLs
    /// verbatim and has none.
    validity: Option<Bitmap>,
    /// Distinct strings so far, in first-appearance order.
    dict: DictBuilder,
    len: usize,
    /// Rows the caller expects: a lane is allocated once, at this size.
    capacity: usize,
}

impl ColumnBuilder {
    /// A builder whose lane, once its type is known, is reserved for `rows`
    /// values (nothing is allocated before the first value arrives).
    pub fn with_capacity(rows: usize) -> Self {
        ColumnBuilder {
            capacity: rows,
            ..ColumnBuilder::default()
        }
    }

    /// Expect `rows` values in all from now on: a started lane is grown to
    /// exactly that, one not started yet is started at that size. A decoder
    /// that learns its row count as the bytes arrive renews the estimate
    /// [`ColumnBuilder::with_capacity`] made.
    pub fn reserve(&mut self, rows: usize) {
        self.capacity = rows;
        let more = rows.saturating_sub(self.len);
        match &mut self.lane {
            Lane::Unknown => {}
            Lane::Int(lane) => lane.reserve_exact(more),
            Lane::Float(lane) => lane.reserve_exact(more),
            Lane::Bool(lane) => lane.reserve_exact(more),
            Lane::Str(codes) => codes.reserve_exact(more),
            Lane::Mixed(values) => values.reserve_exact(more),
        }
    }

    /// Append a NULL.
    pub fn push_null(&mut self) {
        match &mut self.lane {
            Lane::Mixed(values) => {
                values.push(Value::Null);
                self.len += 1;
                return;
            }
            Lane::Unknown => {}
            Lane::Int(lane) => lane.push(0),
            Lane::Float(lane) => lane.push(0.0),
            Lane::Bool(lane) => lane.push(false),
            Lane::Str(codes) => codes.push(0),
        }
        let (len, capacity) = (self.len, self.capacity);
        self.validity
            .get_or_insert_with(|| Bitmap::all_valid(len, capacity))
            .push(false);
        self.len += 1;
    }

    /// Append an `Int`.
    pub fn push_int(&mut self, i: i64) {
        match &mut self.lane {
            Lane::Int(lane) => lane.push(i),
            Lane::Unknown => self.lane = Lane::Int(self.start_lane(i)),
            _ => self.degrade().push(Value::Int(i)),
        }
        self.pushed_valid();
    }

    /// Append a `Float` (payload bits kept as they are).
    pub fn push_float(&mut self, x: f64) {
        match &mut self.lane {
            Lane::Float(lane) => lane.push(x),
            Lane::Unknown => self.lane = Lane::Float(self.start_lane(x)),
            _ => self.degrade().push(Value::Float(x)),
        }
        self.pushed_valid();
    }

    /// Append a `Bool`.
    pub fn push_bool(&mut self, b: bool) {
        match &mut self.lane {
            Lane::Bool(lane) => lane.push(b),
            Lane::Unknown => self.lane = Lane::Bool(self.start_lane(b)),
            _ => self.degrade().push(Value::Bool(b)),
        }
        self.pushed_valid();
    }

    /// Append a string by its characters: a string the column already holds
    /// costs a dictionary lookup and no allocation.
    pub fn push_str(&mut self, s: &str) {
        self.push_shared_str(s, || Text::from(s));
    }

    /// Append a borrowed [`Value`] (a string shares the value's allocation).
    pub(crate) fn push_value(&mut self, value: &Value) {
        match value {
            Value::Null => self.push_null(),
            Value::Bool(b) => self.push_bool(*b),
            Value::Int(i) => self.push_int(*i),
            Value::Float(x) => self.push_float(*x),
            Value::Str(s) => self.push_shared_str(s, || s.clone()),
        }
    }

    fn push_shared_str(&mut self, s: &str, share: impl FnOnce() -> Text) {
        let code = self.dict.code(s, share);
        match &mut self.lane {
            Lane::Str(codes) => codes.push(code),
            Lane::Unknown => self.lane = Lane::Str(self.start_lane(code)),
            _ => {
                let entry = self.dict.entries[code as usize].clone();
                self.degrade().push(Value::Str(entry));
            }
        }
        self.pushed_valid();
    }

    /// A lane of the expected size holding the neutral payload for the NULLs
    /// seen so far, then `first`.
    fn start_lane<T: Clone + Default>(&self, first: T) -> Vec<T> {
        let mut lane = Vec::with_capacity(self.capacity.max(self.len + 1));
        lane.resize(self.len, T::default());
        lane.push(first);
        lane
    }

    fn pushed_valid(&mut self) {
        if let Some(validity) = &mut self.validity {
            validity.push(true);
        }
        self.len += 1;
    }

    /// The `Mixed` lane, converting a typed one on a type conflict.
    fn degrade(&mut self) -> &mut Vec<Value> {
        if !matches!(self.lane, Lane::Mixed(_)) {
            let capacity = self.capacity;
            let typed = std::mem::take(self).finish();
            let mut values = Vec::with_capacity(capacity.max(typed.len() + 1));
            values.extend((0..typed.len()).map(|i| typed.value(i)));
            *self = ColumnBuilder {
                lane: Lane::Mixed(values),
                len: typed.len(),
                capacity,
                ..ColumnBuilder::default()
            };
        }
        match &mut self.lane {
            Lane::Mixed(values) => values,
            _ => unreachable!("the lane was just made Mixed"),
        }
    }

    /// The column of everything pushed.
    pub fn finish(self) -> Column {
        let data = match self.lane {
            Lane::Unknown => ColumnData::Int(vec![0; self.len]),
            Lane::Int(lane) => ColumnData::Int(lane),
            Lane::Float(lane) => ColumnData::Float(lane),
            Lane::Bool(lane) => ColumnData::Bool(lane),
            Lane::Str(codes) => ColumnData::Str {
                dict: self.dict.entries,
                codes,
            },
            Lane::Mixed(values) => ColumnData::Mixed(values),
        };
        Column {
            len: self.len,
            data: Arc::new(data),
            validity: self.validity.map(Arc::new),
            offset: 0,
        }
    }
}

/// A column *view*: shared storage plus an `(offset, len)` window.
///
/// Cloning and slicing are O(1) — they bump the [`Arc`]s and adjust the
/// window — which is what makes a partition or a prefix a view instead of
/// a clone.
#[derive(Clone, Debug)]
pub struct Column {
    data: Arc<ColumnData>,
    validity: Option<Arc<Bitmap>>,
    offset: usize,
    len: usize,
}

impl Column {
    /// Build a column from values, inferring the tightest typed layout.
    ///
    /// A column whose non-null values all share one scalar type becomes the
    /// corresponding typed vector with a validity bitmap (bitmap omitted
    /// when no value is null); anything else falls back to
    /// [`ColumnData::Mixed`].
    pub(crate) fn from_values(values: &[Value]) -> Column {
        Column::from_value_refs(values.iter())
    }

    /// [`Column::from_values`] over borrowed values in place (e.g. one field
    /// of every record of a batch), so callers need no scratch copy.
    pub(crate) fn from_value_refs<'a>(values: impl ExactSizeIterator<Item = &'a Value>) -> Column {
        let mut builder = ColumnBuilder::with_capacity(values.len());
        for value in values {
            builder.push_value(value);
        }
        builder.finish()
    }

    /// Wrap a ready-made `i64` lane with no nulls.
    pub(crate) fn from_typed_int(lane: Vec<i64>) -> Column {
        Column {
            len: lane.len(),
            data: Arc::new(ColumnData::Int(lane)),
            validity: None,
            offset: 0,
        }
    }

    /// Wrap a ready-made `f64` lane with no nulls.
    pub(crate) fn from_typed_float(lane: Vec<f64>) -> Column {
        Column {
            len: lane.len(),
            data: Arc::new(ColumnData::Float(lane)),
            validity: None,
            offset: 0,
        }
    }

    /// Wrap a ready-made `bool` lane with no nulls.
    pub(crate) fn from_typed_bool(lane: Vec<bool>) -> Column {
        Column {
            len: lane.len(),
            data: Arc::new(ColumnData::Bool(lane)),
            validity: None,
            offset: 0,
        }
    }

    /// Number of rows in this view.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True iff row `i` of the view is non-null.
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.validity {
            Some(bm) => bm.get(self.offset + i),
            None => !matches!(
                self.data.as_ref(),
                ColumnData::Mixed(v) if matches!(v.get(self.offset + i), Some(Value::Null))
            ),
        }
    }

    /// True iff no row in the view can be null (no bitmap, non-mixed).
    pub fn no_nulls(&self) -> bool {
        match &self.validity {
            Some(bm) => bm.all_valid_in(self.offset, self.len),
            None => !matches!(self.data.as_ref(), ColumnData::Mixed(_)),
        }
    }

    /// Materialize row `i` of the view as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        debug_assert!(i < self.len);
        let j = self.offset + i;
        if let Some(bm) = &self.validity {
            if !bm.get(j) {
                return Value::Null;
            }
        }
        match self.data.as_ref() {
            ColumnData::Int(v) => Value::Int(v[j]),
            ColumnData::Float(v) => Value::Float(v[j]),
            ColumnData::Bool(v) => Value::Bool(v[j]),
            ColumnData::Str { dict, codes } => Value::Str(dict[codes[j] as usize].clone()),
            ColumnData::Mixed(v) => v[j].clone(),
        }
    }

    /// The `i64` lane of the view when the column is `Int`, else `None`.
    ///
    /// The slice covers null lanes too (they read as 0); combine with
    /// [`Column::no_nulls`] before using it as a typed fast path.
    pub fn ints(&self) -> Option<&[i64]> {
        match self.data.as_ref() {
            ColumnData::Int(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// The `f64` lane of the view when the column is `Float`, else `None`.
    pub fn floats(&self) -> Option<&[f64]> {
        match self.data.as_ref() {
            ColumnData::Float(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// The `bool` lane of the view when the column is `Bool`, else `None`.
    pub fn bools(&self) -> Option<&[bool]> {
        match self.data.as_ref() {
            ColumnData::Bool(v) => Some(&v[self.offset..self.offset + self.len]),
            _ => None,
        }
    }

    /// The dictionary and per-row code lane of the view when the column is
    /// `Str`, else `None`.
    ///
    /// The dictionary holds *distinct* strings (`Column::from_values`
    /// dedups at construction and gather/slice share the dictionary), so
    /// code equality is string equality within one column — the invariant
    /// the kernels' dict-code fast lane relies on. Codes cover null lanes
    /// too (they read as 0); combine with [`Column::no_nulls`].
    pub fn dict_codes(&self) -> Option<(&[Text], &[u32])> {
        match self.data.as_ref() {
            ColumnData::Str { dict, codes } => {
                Some((&dict[..], &codes[self.offset..self.offset + self.len]))
            }
            _ => None,
        }
    }

    /// Heap bytes the view holds: its rows' lane entries, its validity bits
    /// and the whole dictionary (views share one). An estimate for `Mixed`
    /// columns, whose strings may share allocations.
    pub(crate) fn resident_bytes(&self) -> usize {
        let lane = match self.data.as_ref() {
            ColumnData::Int(_) | ColumnData::Float(_) => 8 * self.len,
            ColumnData::Bool(_) => self.len,
            ColumnData::Str { dict, .. } => {
                let entry = |s| std::mem::size_of::<Text>() + str_bytes(s);
                4 * self.len + dict.iter().map(entry).sum::<usize>()
            }
            ColumnData::Mixed(values) => values[self.offset..self.offset + self.len]
                .iter()
                .map(value_bytes)
                .sum(),
        };
        lane + self.validity.as_ref().map_or(0, |_| self.len.div_ceil(8))
    }

    /// Zero-copy sub-view `[offset, offset + len)` of this view.
    pub(crate) fn slice(&self, offset: usize, len: usize) -> Column {
        assert!(offset + len <= self.len, "column slice out of range");
        Column {
            data: self.data.clone(),
            validity: self.validity.clone(),
            offset: self.offset + offset,
            len,
        }
    }

    /// Materialize the rows at `indices` (in order) into a new column.
    ///
    /// The typed layout is preserved: gathering an `Int` column yields an
    /// `Int` column, so downstream kernels keep their fast paths after a
    /// filter.
    pub(crate) fn gather(&self, indices: &[usize]) -> Column {
        let validity = self.validity.as_ref().map(|bm| {
            let mut out = Bitmap::new();
            for &i in indices {
                out.push(bm.get(self.offset + i));
            }
            Arc::new(out)
        });
        let data = match self.data.as_ref() {
            ColumnData::Int(v) => {
                ColumnData::Int(indices.iter().map(|&i| v[self.offset + i]).collect())
            }
            ColumnData::Float(v) => {
                ColumnData::Float(indices.iter().map(|&i| v[self.offset + i]).collect())
            }
            ColumnData::Bool(v) => {
                ColumnData::Bool(indices.iter().map(|&i| v[self.offset + i]).collect())
            }
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: dict.clone(),
                codes: indices.iter().map(|&i| codes[self.offset + i]).collect(),
            },
            ColumnData::Mixed(v) => ColumnData::Mixed(
                indices
                    .iter()
                    .map(|&i| v[self.offset + i].clone())
                    .collect(),
            ),
        };
        Column {
            data: Arc::new(data),
            validity,
            offset: 0,
            len: indices.len(),
        }
    }

    /// Append this view's values to `rows[i]`, row by row — the column
    /// step of [`Chunk::to_records`], dispatching on the layout once per
    /// column instead of once per value.
    fn append_to_rows(&self, rows: &mut [Vec<Value>]) {
        debug_assert_eq!(rows.len(), self.len);
        let valid = |i: usize| {
            self.validity
                .as_ref()
                .is_none_or(|bm| bm.get(self.offset + i))
        };
        macro_rules! typed {
            ($lane:expr, $wrap:expr) => {
                for (i, (row, x)) in rows.iter_mut().zip($lane).enumerate() {
                    row.push(if valid(i) { $wrap(x) } else { Value::Null });
                }
            };
        }
        let window = self.offset..self.offset + self.len;
        match self.data.as_ref() {
            ColumnData::Int(v) => typed!(&v[window], |x: &i64| Value::Int(*x)),
            ColumnData::Float(v) => typed!(&v[window], |x: &f64| Value::Float(*x)),
            ColumnData::Bool(v) => typed!(&v[window], |x: &bool| Value::Bool(*x)),
            ColumnData::Str { dict, codes } => {
                typed!(&codes[window], |c: &u32| Value::Str(
                    dict[*c as usize].clone()
                ))
            }
            ColumnData::Mixed(v) => {
                for (row, x) in rows.iter_mut().zip(&v[window]) {
                    row.push(x.clone());
                }
            }
        }
    }

    /// Concatenate column views. Parts sharing one typed layout append
    /// lane to lane (dictionaries are merged, keeping entries distinct);
    /// anything else re-infers the layout from the values.
    fn concat(parts: &[&Column]) -> Column {
        let len = parts.iter().map(|p| p.len).sum();
        let validity = parts.iter().any(|p| p.validity.is_some()).then(|| {
            let mut bm = Bitmap::new();
            for p in parts {
                for i in 0..p.len {
                    bm.push(p.is_valid(i));
                }
            }
            Arc::new(bm)
        });
        macro_rules! lanes {
            ($get:ident, $variant:ident) => {
                parts
                    .iter()
                    .map(|p| p.$get())
                    .collect::<Option<Vec<_>>>()
                    .map(|lanes| ColumnData::$variant(lanes.concat()))
            };
        }
        let data = lanes!(ints, Int)
            .or_else(|| lanes!(floats, Float))
            .or_else(|| lanes!(bools, Bool))
            .or_else(|| {
                let lanes: Vec<_> = parts
                    .iter()
                    .map(|p| p.dict_codes())
                    .collect::<Option<_>>()?;
                let mut dict = DictBuilder::default();
                let mut codes = Vec::with_capacity(len);
                for (part_dict, part_codes) in lanes {
                    let remap: Vec<u32> = part_dict
                        .iter()
                        .map(|s| dict.code(s, || s.clone()))
                        .collect();
                    codes.extend(part_codes.iter().map(|&c| remap[c as usize]));
                }
                Some(ColumnData::Str {
                    dict: dict.entries,
                    codes,
                })
            });
        match data {
            Some(data) => Column {
                data: Arc::new(data),
                validity,
                offset: 0,
                len,
            },
            None => {
                let values: Vec<Value> = parts
                    .iter()
                    .flat_map(|p| (0..p.len).map(|i| p.value(i)))
                    .collect();
                Column::from_values(&values)
            }
        }
    }
}

/// A batch of rows in columnar layout.
///
/// All columns share the same row count. `Chunk` is the unit the vectorized
/// kernels in [`crate::kernels::chunked`] operate on; [`Chunk::slice`]
/// produces zero-copy views (a partition, a window).
#[derive(Clone, Debug)]
pub struct Chunk {
    columns: Vec<Column>,
    rows: usize,
}

impl Chunk {
    /// Build a chunk from columns that all have `rows` rows.
    pub fn new(columns: Vec<Column>, rows: usize) -> Chunk {
        debug_assert!(columns.iter().all(|c| c.len() == rows));
        Chunk { columns, rows }
    }

    /// Convert a record batch to columnar layout.
    ///
    /// Returns `None` when the batch is *ragged* (records of differing
    /// widths) — callers fall back to the row path, since `Record` carries
    /// no width guarantee.
    pub fn from_records(records: &[Record]) -> Option<Chunk> {
        let width = match records.first() {
            Some(r) => r.width(),
            None => return Some(Chunk::new(Vec::new(), 0)),
        };
        if records.iter().any(|r| r.width() != width) {
            return None;
        }
        let columns = (0..width)
            .map(|c| Column::from_value_refs(records.iter().map(|r| &r.fields()[c])))
            .collect();
        Some(Chunk::new(columns, records.len()))
    }

    /// Convert back to rows; exact inverse of [`Chunk::from_records`].
    pub fn to_records(&self) -> Vec<Record> {
        let width = self.columns.len();
        let mut rows: Vec<Vec<Value>> = (0..self.rows).map(|_| Vec::with_capacity(width)).collect();
        for column in &self.columns {
            column.append_to_rows(&mut rows);
        }
        rows.into_iter().map(Record::new).collect()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Heap bytes the chunk's columns hold ([`Column::resident_bytes`]).
    pub(crate) fn resident_bytes(&self) -> usize {
        self.columns.iter().map(Column::resident_bytes).sum()
    }

    /// Number of columns.
    pub(crate) fn width(&self) -> usize {
        self.columns.len()
    }

    /// The column views.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Borrow column `c`, if present.
    pub(crate) fn column(&self, c: usize) -> Option<&Column> {
        self.columns.get(c)
    }

    /// Zero-copy row window `[offset, offset + len)`.
    pub fn slice(&self, offset: usize, len: usize) -> Chunk {
        assert!(offset + len <= self.rows, "chunk slice out of range");
        Chunk {
            columns: self.columns.iter().map(|c| c.slice(offset, len)).collect(),
            rows: len,
        }
    }

    /// Keep the given columns, in order — O(width) `Arc` bumps, no copying.
    ///
    /// Returns `None` if any index is out of bounds (mirrors the row
    /// kernel's field-out-of-bounds error).
    pub(crate) fn project(&self, indices: &[usize]) -> Option<Chunk> {
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            columns.push(self.columns.get(i)?.clone());
        }
        Some(Chunk {
            columns,
            rows: self.rows,
        })
    }

    /// Materialize the rows at `indices` (in order) into a new chunk.
    pub fn gather(&self, indices: &[usize]) -> Chunk {
        Chunk {
            columns: self.columns.iter().map(|c| c.gather(indices)).collect(),
            rows: indices.len(),
        }
    }

    /// Concatenate row-compatible chunks (same width), typed lane to typed
    /// lane where the parts agree on a column's layout.
    ///
    /// Used to merge per-partition outputs; returns `None` on width
    /// mismatch.
    pub fn concat(chunks: &[Chunk]) -> Option<Chunk> {
        let non_empty: Vec<&Chunk> = chunks.iter().filter(|c| c.rows > 0).collect();
        let first = match non_empty.first() {
            Some(c) => c,
            None => return Some(Chunk::new(Vec::new(), 0)),
        };
        let width = first.width();
        if non_empty.iter().any(|c| c.width() != width) {
            return None;
        }
        let rows = non_empty.iter().map(|c| c.rows).sum();
        let columns = (0..width)
            .map(|c| {
                let parts: Vec<&Column> = non_empty.iter().map(|ch| &ch.columns[c]).collect();
                Column::concat(&parts)
            })
            .collect();
        Some(Chunk::new(columns, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    impl Bitmap {
        /// Number of valid (set) bits: bits past `len` are zero by
        /// construction.
        fn count_valid(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }
    }

    #[test]
    fn round_trip_preserves_exotic_floats_and_nulls() {
        let records = vec![
            Record::new(vec![Value::Int(1), Value::Float(-0.0), Value::str("a")]),
            Record::new(vec![Value::Null, Value::Float(f64::NAN), Value::str("b")]),
            Record::new(vec![Value::Int(3), Value::Null, Value::str("a")]),
        ];
        let chunk = Chunk::from_records(&records).unwrap();
        let back = chunk.to_records();
        assert_eq!(back.len(), 3);
        for (a, b) in records.iter().zip(&back) {
            assert_eq!(a, b);
        }
        // -0.0 bits preserved (Value::eq uses total_cmp, so this is strict).
        assert_eq!(back[0].fields()[1], Value::Float(-0.0));
    }

    #[test]
    fn typed_layout_is_inferred() {
        let records = vec![rec![1i64, 1.5, true, "x"], rec![2i64, 2.5, false, "x"]];
        let chunk = Chunk::from_records(&records).unwrap();
        assert!(chunk.column(0).unwrap().ints().is_some());
        assert!(chunk.column(1).unwrap().floats().is_some());
        assert!(chunk.column(2).unwrap().bools().is_some());
        match chunk.column(3).unwrap().data.as_ref() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 1);
                assert_eq!(codes, &[0, 0]);
            }
            other => panic!("expected dictionary column, got {other:?}"),
        }
    }

    /// What a column is made of, as far as a reader can tell.
    fn layout(c: &Column) -> (&ColumnData, Option<&Bitmap>) {
        (c.data.as_ref(), c.validity.as_deref())
    }

    #[test]
    fn the_builder_infers_a_layout_from_values_in_arrival_order() {
        // Typed pushes (what a decoder has) and `Value` pushes (what a row
        // has) build the same column.
        let values = [
            Value::Null,
            Value::str("b"),
            Value::str("a"),
            Value::Null,
            Value::str("b"),
        ];
        let mut typed = ColumnBuilder::with_capacity(values.len());
        typed.push_null();
        typed.push_str("b");
        typed.push_str("a");
        typed.push_null();
        typed.push_str("b");
        let typed = typed.finish();
        match layout(&typed) {
            // NULLs before the first string are backfilled with code 0, the
            // dictionary is in first-appearance order, the bitmap covers
            // the rows before the first NULL too.
            (ColumnData::Str { dict, codes }, Some(validity)) => {
                assert_eq!(dict.iter().map(|s| &**s).collect::<Vec<_>>(), ["b", "a"]);
                assert_eq!(codes, &[0, 0, 1, 0, 0]);
                assert_eq!(validity, &{
                    let mut bm = Bitmap::new();
                    [false, true, true, false, true]
                        .into_iter()
                        .for_each(|v| bm.push(v));
                    bm
                });
            }
            other => panic!("expected a dictionary under a bitmap, got {other:?}"),
        }
        let from_values = Column::from_values(&values);
        assert_eq!(
            format!("{:?}", layout(&typed)),
            format!("{:?}", layout(&from_values))
        );
        // A first NULL after 70 values starts a bitmap of 70 valid bits.
        let mut late = ColumnBuilder::with_capacity(71);
        (0..70).for_each(|i| late.push_int(i));
        late.push_null();
        let late = late.finish();
        assert_eq!(late.validity.as_ref().unwrap().count_valid(), 70);
        assert!(late.is_valid(69) && !late.is_valid(70));
        // A second scalar type degrades the lane, NULLs and all; a column
        // of nothing but NULLs is `Int` zeros under an all-null bitmap.
        let mut mixed = ColumnBuilder::default();
        mixed.push_null();
        mixed.push_float(f64::NAN);
        mixed.push_str("s");
        mixed.push_null();
        let mixed = mixed.finish();
        assert!(matches!(layout(&mixed), (ColumnData::Mixed(_), None)));
        let expected = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::str("s"),
            Value::Null,
        ];
        assert_eq!((0..4).map(|i| mixed.value(i)).collect::<Vec<_>>(), expected);
        let mut nulls = ColumnBuilder::default();
        nulls.push_null();
        nulls.push_null();
        let nulls = nulls.finish();
        assert!(matches!(layout(&nulls), (ColumnData::Int(zeros), Some(_)) if zeros == &[0, 0]));
        assert!(!nulls.is_valid(0) && !nulls.is_valid(1));
    }

    #[test]
    fn mixed_column_falls_back() {
        let records = vec![rec![1i64], rec!["s"]];
        let chunk = Chunk::from_records(&records).unwrap();
        assert!(chunk.column(0).unwrap().ints().is_none());
        assert_eq!(chunk.to_records(), records);
    }

    #[test]
    fn ragged_batches_are_rejected() {
        let records = vec![rec![1i64], rec![1i64, 2i64]];
        assert!(Chunk::from_records(&records).is_none());
    }

    #[test]
    fn slice_is_a_view_and_round_trips() {
        let records: Vec<Record> = (0..100i64).map(|i| rec![i, i as f64]).collect();
        let chunk = Chunk::from_records(&records).unwrap();
        let s = chunk.slice(10, 5);
        assert_eq!(s.rows(), 5);
        assert_eq!(s.to_records(), &records[10..15]);
        // Slicing shares storage: the underlying Arc is the same allocation.
        assert!(Arc::ptr_eq(&chunk.columns[0].data, &s.columns[0].data));
    }

    #[test]
    fn gather_preserves_typed_layout() {
        let records: Vec<Record> = (0..10i64).map(|i| rec![i]).collect();
        let chunk = Chunk::from_records(&records).unwrap();
        let g = chunk.gather(&[9, 0, 3]);
        assert_eq!(g.column(0).unwrap().ints().unwrap(), &[9, 0, 3]);
    }

    #[test]
    fn gather_keeps_validity() {
        let records = vec![
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Null]),
            Record::new(vec![Value::Int(3)]),
        ];
        let chunk = Chunk::from_records(&records).unwrap();
        let g = chunk.gather(&[1, 2]);
        assert_eq!(g.column(0).unwrap().value(0), Value::Null);
        assert_eq!(g.column(0).unwrap().value(1), Value::Int(3));
    }

    #[test]
    fn project_is_zero_copy_and_checks_bounds() {
        let records = vec![rec![1i64, "a"], rec![2i64, "b"]];
        let chunk = Chunk::from_records(&records).unwrap();
        let p = chunk.project(&[1, 0]).unwrap();
        assert_eq!(p.to_records(), vec![rec!["a", 1i64], rec!["b", 2i64]]);
        assert!(chunk.project(&[2]).is_none());
        assert!(Arc::ptr_eq(&chunk.columns[0].data, &p.columns[1].data));
    }

    #[test]
    fn concat_merges_partition_outputs() {
        let records: Vec<Record> = (0..10i64).map(|i| rec![i]).collect();
        let chunk = Chunk::from_records(&records).unwrap();
        let merged = Chunk::concat(&[chunk.slice(0, 4), chunk.slice(4, 6)]).unwrap();
        assert_eq!(merged.to_records(), records);
        assert!(Chunk::concat(&[]).unwrap().to_records().is_empty());
    }

    #[test]
    fn concat_keeps_typed_layouts_and_merges_dictionaries() {
        let records = vec![
            Record::new(vec![Value::Int(1), Value::str("x"), Value::Float(0.5)]),
            Record::new(vec![Value::Null, Value::str("y"), Value::Float(-0.0)]),
            Record::new(vec![Value::Int(3), Value::Null, Value::Float(f64::NAN)]),
            Record::new(vec![Value::Int(4), Value::str("x"), Value::Float(1.5)]),
            Record::new(vec![Value::Int(5), Value::str("z"), Value::Float(2.5)]),
        ];
        // Parts with their own dictionaries (separately built) and views
        // with offsets (slices) both concatenate lane to lane.
        let whole = Chunk::from_records(&records).unwrap();
        let parts = [
            Chunk::from_records(&records[..2]).unwrap(),
            whole.slice(2, 1),
            Chunk::from_records(&records[3..]).unwrap(),
        ];
        let merged = Chunk::concat(&parts).unwrap();
        assert_eq!(merged.to_records(), records);
        assert!(merged.column(0).unwrap().ints().is_some());
        assert!(merged.column(2).unwrap().floats().is_some());
        let (dict, codes) = merged
            .column(1)
            .unwrap()
            .dict_codes()
            .expect("still a dictionary");
        assert_eq!(dict.len(), 3, "x, y, z — entries stay distinct");
        assert_eq!(codes[0], codes[3]);
        // Parts that disagree on a column's layout re-infer it.
        let mixed = [
            Chunk::from_records(&[rec![1i64]]).unwrap(),
            Chunk::from_records(&[rec!["s"]]).unwrap(),
        ];
        assert_eq!(
            Chunk::concat(&mixed).unwrap().to_records(),
            vec![rec![1i64], rec!["s"]]
        );
        assert!(Chunk::concat(&[parts[0].clone(), mixed[0].clone()]).is_none());
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut bm = Bitmap::new();
        for i in 0..130 {
            bm.push(i % 3 != 0);
        }
        assert_eq!(bm.len, 130);
        assert!(!bm.get(0));
        assert!(bm.get(1));
        assert!(!bm.get(129));
        assert_eq!(bm.count_valid(), 130 - 44);
        assert!(!bm.all_valid_in(0, 130));
        assert!(bm.all_valid_in(1, 2));
    }

    #[test]
    fn all_null_column_round_trips() {
        let records = vec![
            Record::new(vec![Value::Null]),
            Record::new(vec![Value::Null]),
        ];
        let chunk = Chunk::from_records(&records).unwrap();
        assert_eq!(chunk.to_records(), records);
        assert!(!chunk.column(0).unwrap().no_nulls());
    }
}
