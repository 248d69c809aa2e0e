//! The data model: values, records (*data quanta*), and datasets.
//!
//! The paper defines a *data quantum* as "the smallest unit of data elements
//! from the input datasets", e.g. a tuple or a matrix row (§3.1). We model a
//! data quantum as a [`Record`] — a small vector of dynamically typed
//! [`Value`]s. Logical operators conceptually process one data quantum at a
//! time; execution operators process batches of them ([`Dataset`]), exactly
//! as the paper prescribes for the platform layer.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use crate::error::{Result, RheemError};

mod chunk;

pub use chunk::{Chunk, Column, ColumnBuilder};

/// A dynamically typed scalar value — one field of a data quantum.
///
/// The ordering is total: values are ranked first by variant
/// (`Null < Bool < Int < Float < Str`) and then by payload. Floats use IEEE
/// `total_cmp`, so `NaN` values are ordered and hashable, which keeps
/// grouping and sorting well defined on arbitrary data.
#[derive(Clone, Debug)]
pub enum Value {
    /// Absence of a value (e.g. a missing attribute in dirty data).
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit IEEE float.
    Float(f64),
    /// An immutable, cheaply clonable string.
    Str(Arc<str>),
}

impl Value {
    /// A small integer tag used for cross-variant ordering and hashing.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 3,
            Value::Str(_) => 4,
        }
    }

    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Returns the integer payload, or a type error.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(RheemError::Type {
                expected: "Int".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the float payload; integers are widened for convenience.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(x) => Ok(*x),
            Value::Int(i) => Ok(*i as f64),
            other => Err(RheemError::Type {
                expected: "Float".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Returns the string payload, or a type error.
    pub(crate) fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(RheemError::Type {
                expected: "Str".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            // `total_cmp` distinguishes -0.0 from 0.0 and the NaN payloads,
            // so hashing the raw bits is consistent with `Eq`.
            Value::Float(x) => x.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Float(x)
    }
}
impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

/// Heap bytes of one string allocation: the characters and the `Arc`'s two
/// counters (the pointer to it belongs to whatever holds it).
fn str_bytes(s: &Arc<str>) -> usize {
    s.len() + 2 * std::mem::size_of::<usize>()
}

/// Bytes one [`Value`] occupies in a row or a `Mixed` lane, counting a
/// string's allocation as its own (it may be shared).
fn value_bytes(value: &Value) -> usize {
    std::mem::size_of::<Value>()
        + match value {
            Value::Str(s) => str_bytes(s),
            _ => 0,
        }
}

/// A *data quantum*: one tuple flowing through the system.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Record {
    fields: Vec<Value>,
}

impl Record {
    /// Create a record from its fields.
    pub fn new(fields: Vec<Value>) -> Self {
        Record { fields }
    }

    /// An empty record (width 0).
    pub fn empty() -> Self {
        Record { fields: Vec::new() }
    }

    /// Number of fields.
    pub fn width(&self) -> usize {
        self.fields.len()
    }

    /// Borrow a field, or an out-of-bounds error.
    pub fn get(&self, index: usize) -> Result<&Value> {
        self.fields.get(index).ok_or(RheemError::FieldOutOfBounds {
            index,
            width: self.fields.len(),
        })
    }

    /// Field as `i64` (convenience for UDFs).
    pub fn int(&self, index: usize) -> Result<i64> {
        self.get(index)?.as_int()
    }

    /// Field as `f64`; integer fields are widened.
    pub fn float(&self, index: usize) -> Result<f64> {
        self.get(index)?.as_float()
    }

    /// Field as `&str`.
    pub fn str(&self, index: usize) -> Result<&str> {
        self.get(index)?.as_str()
    }

    /// All fields as a slice.
    pub fn fields(&self) -> &[Value] {
        &self.fields
    }

    /// Append a field in place.
    pub fn push(&mut self, v: impl Into<Value>) {
        self.fields.push(v.into());
    }

    /// A new record keeping only the given field indices, in order.
    ///
    /// This is the kernel of the `Project` physical operator and of the
    /// cleaning application's `Scope` logical operator.
    pub fn project(&self, indices: &[usize]) -> Result<Record> {
        let mut fields = Vec::with_capacity(indices.len());
        for &i in indices {
            fields.push(self.get(i)?.clone());
        }
        Ok(Record { fields })
    }

    /// A new record that is the concatenation `self ++ other` (join output).
    pub(crate) fn concat(&self, other: &Record) -> Record {
        let mut fields = Vec::with_capacity(self.fields.len() + other.fields.len());
        fields.extend_from_slice(&self.fields);
        fields.extend_from_slice(&other.fields);
        Record { fields }
    }
}

impl From<Vec<Value>> for Record {
    fn from(fields: Vec<Value>) -> Self {
        Record { fields }
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Build a [`Record`] from a list of field expressions.
///
/// ```
/// use rheem_core::rec;
/// let r = rec![1i64, "alice", 3.5];
/// assert_eq!(r.width(), 3);
/// ```
#[macro_export]
macro_rules! rec {
    ($($field:expr),* $(,)?) => {
        $crate::Record::new(vec![$($crate::Value::from($field)),*])
    };
}

/// An immutable batch of data quanta with cheap (`Arc`) cloning, held in
/// two lazily materialized views: rows ([`Dataset::records`]) and columns
/// ([`Dataset::chunk`]).
///
/// A dataset is built from either view and computes the other on first
/// use, caching it for every clone — so a table that arrives as a chunk (a
/// `REGISTER` frame is decoded straight into column builders) is held once,
/// as that chunk, adjacent columnar operators hand chunks to each other
/// without ever building records, and rows are only materialized where
/// something needs them (an opaque UDF, a row sink, a ragged batch).
/// Datasets are what flows across task-atom boundaries, and — as windows
/// ([`Dataset::slice`]) — what a partitioned platform's tasks work on.
#[derive(Clone, Debug)]
pub struct Dataset {
    views: Arc<Views>,
}

/// Invariant: at least one of `records`, `chunk`, `window_of` is set at
/// construction, so either view can always be derived.
#[derive(Debug)]
struct Views {
    len: usize,
    records: OnceLock<Vec<Record>>,
    /// `None` once computed means the records are ragged (differing
    /// widths) and have no columnar layout.
    chunk: OnceLock<Option<Chunk>>,
    /// For a window: the dataset it is a row range of, and the range's
    /// start. Each view is derived from the parent's matching view.
    window_of: Option<(Dataset, usize)>,
}

impl Default for Dataset {
    fn default() -> Self {
        Dataset::new(Vec::new())
    }
}

impl Dataset {
    /// Wrap a vector of records.
    pub fn new(records: Vec<Record>) -> Self {
        Dataset {
            views: Arc::new(Views {
                len: records.len(),
                records: OnceLock::from(records),
                chunk: OnceLock::new(),
                window_of: None,
            }),
        }
    }

    /// Wrap a columnar chunk; records are materialized only if asked for.
    pub fn from_chunk(chunk: Chunk) -> Self {
        Dataset {
            views: Arc::new(Views {
                len: chunk.rows(),
                records: OnceLock::new(),
                chunk: OnceLock::from(Some(chunk)),
                window_of: None,
            }),
        }
    }

    /// The row window `[offset, offset + len)` as a dataset of its own.
    ///
    /// Nothing is copied or converted now. Asked for rows, the window
    /// copies its range of the parent's rows; asked for a chunk, it takes a
    /// zero-copy slice of the parent's chunk — converting the parent once,
    /// for all of its windows and everyone else holding it. So a platform
    /// can partition a table without deciding which view its tasks want.
    pub fn slice(&self, offset: usize, len: usize) -> Dataset {
        assert!(offset + len <= self.len(), "dataset slice out of range");
        Dataset {
            views: Arc::new(Views {
                len,
                records: OnceLock::new(),
                chunk: OnceLock::new(),
                window_of: Some((self.clone(), offset)),
            }),
        }
    }

    /// Number of records (the dataset's cardinality).
    pub fn len(&self) -> usize {
        self.views.len
    }

    /// True iff the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.views.len == 0
    }

    /// The row view, materialized on first use: from this dataset's chunk,
    /// or — for a window — from the parent's rows (its chunk, if the
    /// parent has no rows yet).
    pub fn records(&self) -> &[Record] {
        self.views.records.get_or_init(|| {
            let views = &self.views;
            if let Some(chunk) = views.chunk.get().and_then(Option::as_ref) {
                return chunk.to_records();
            }
            let (parent, offset) = views.window_of.as_ref().expect("one view is always set");
            match parent.views.chunk.get().and_then(Option::as_ref) {
                Some(chunk) if parent.views.records.get().is_none() => {
                    chunk.slice(*offset, views.len).to_records()
                }
                _ => parent.records()[*offset..*offset + views.len].to_vec(),
            }
        })
    }

    /// The columnar view, materialized on first use; `None` when the
    /// records are ragged (differing widths). A window slices its parent's
    /// chunk; anything else converts its own rows.
    pub fn chunk(&self) -> Option<&Chunk> {
        self.views
            .chunk
            .get_or_init(|| match &self.views.window_of {
                Some((parent, offset)) => parent
                    .chunk()
                    .map(|chunk| chunk.slice(*offset, self.views.len)),
                None => Chunk::from_records(self.records()),
            })
            .as_ref()
    }

    /// True iff the columnar view costs nothing more to get: it is already
    /// materialized (the dataset was built from a chunk, or
    /// [`Dataset::chunk`] already converted it), or this is a window of
    /// such a dataset — for operators that are cheap on either view and
    /// should simply use the one that exists.
    pub fn has_chunk(&self) -> bool {
        match (self.views.chunk.get(), &self.views.window_of) {
            (Some(chunk), _) => chunk.is_some(),
            (None, Some((parent, _))) => parent.has_chunk(),
            (None, None) => false,
        }
    }

    /// Heap bytes of the views materialized so far (a window that has
    /// derived neither view holds none of its own): what holding this
    /// dataset costs, for quotas. Allocator overhead is not counted, and a
    /// string shared between rows is counted once per row.
    pub fn resident_bytes(&self) -> usize {
        let rows = self.views.records.get().map_or(0, |rows| {
            rows.iter()
                .map(|row| {
                    std::mem::size_of::<Record>()
                        + row.fields().iter().map(value_bytes).sum::<usize>()
                })
                .sum()
        });
        let chunk = self.views.chunk.get().and_then(Option::as_ref);
        rows + chunk.map_or(0, Chunk::resident_bytes)
    }

    /// Obtain an owned vector: a move when this is the only handle, a copy
    /// when the dataset is shared; either way the rows are materialized
    /// first if they have not been.
    pub fn into_records(self) -> Vec<Record> {
        self.records();
        match Arc::try_unwrap(self.views) {
            Ok(views) => views.records.into_inner().expect("just materialized"),
            Err(views) => views.records.get().expect("just materialized").clone(),
        }
    }

    /// Iterate over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records().iter()
    }

    /// True iff both handles share one allocation (and therefore one set
    /// of cached views) — identity, not content equality.
    pub(crate) fn ptr_eq(&self, other: &Dataset) -> bool {
        Arc::ptr_eq(&self.views, &other.views)
    }
}

impl From<Vec<Record>> for Dataset {
    fn from(records: Vec<Record>) -> Self {
        Dataset::new(records)
    }
}

impl FromIterator<Record> for Dataset {
    fn from_iter<I: IntoIterator<Item = Record>>(iter: I) -> Self {
        Dataset::new(iter.into_iter().collect())
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.records() == other.records()
    }
}
impl Eq for Dataset {}

/// A named attribute in a [`Schema`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Field {
    /// Attribute name.
    pub name: String,
    /// Attribute type tag.
    pub dtype: DataType,
}

/// Type tags for schema declarations; execution remains dynamically typed,
/// schemas serve documentation, storage layout, and optimizer hints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataType {
    /// Boolean attribute.
    Bool,
    /// 64-bit integer attribute.
    Int,
    /// 64-bit float attribute.
    Float,
    /// String attribute.
    Str,
}

/// An ordered list of named, typed attributes describing a dataset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(fields: Vec<(impl Into<String>, DataType)>) -> Self {
        Schema {
            fields: fields
                .into_iter()
                .map(|(name, dtype)| Field {
                    name: name.into(),
                    dtype,
                })
                .collect(),
        }
    }

    /// Number of attributes.
    pub(crate) fn width(&self) -> usize {
        self.fields.len()
    }

    /// The attributes.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    impl Dataset {
        /// The empty dataset.
        pub(crate) fn empty() -> Self {
            Dataset::default()
        }
    }

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn value_ordering_is_total_across_variants() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-1),
            Value::Int(7),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(0.0),
            Value::Float(f64::NAN),
            Value::str("a"),
            Value::str("b"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{:?} should sort before {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn nan_is_equal_to_itself_and_hash_consistent() {
        let a = Value::Float(f64::NAN);
        let b = Value::Float(f64::NAN);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn negative_zero_differs_from_positive_zero_consistently() {
        let neg = Value::Float(-0.0);
        let pos = Value::Float(0.0);
        assert_ne!(neg, pos);
        assert!(neg < pos);
    }

    #[test]
    fn int_float_cross_variant_comparison_uses_rank() {
        // Documented behaviour: Int(5) and Float(5.0) are distinct values.
        assert_ne!(Value::Int(5), Value::Float(5.0));
        assert!(Value::Int(5) < Value::Float(5.0));
    }

    #[test]
    fn value_accessors_report_type_errors() {
        assert!(Value::str("x").as_int().is_err());
        assert!(Value::Int(3).as_str().is_err());
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
    }

    #[test]
    fn record_macro_and_accessors() {
        let r = rec![42i64, "alice", 2.5, true];
        assert_eq!(r.width(), 4);
        assert_eq!(r.int(0).unwrap(), 42);
        assert_eq!(r.str(1).unwrap(), "alice");
        assert_eq!(r.float(2).unwrap(), 2.5);
        assert_eq!(r.fields()[3], Value::Bool(true));
        assert!(matches!(
            r.get(9),
            Err(RheemError::FieldOutOfBounds { index: 9, width: 4 })
        ));
    }

    #[test]
    fn record_project_and_concat() {
        let r = rec![1i64, "a", 2i64];
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p, rec![2i64, 1i64]);
        assert!(r.project(&[5]).is_err());
        let c = r.concat(&rec!["b"]);
        assert_eq!(c.width(), 4);
        assert_eq!(c.str(3).unwrap(), "b");
    }

    #[test]
    fn dataset_shared_and_owned_access() {
        let d = Dataset::new(vec![rec![1i64], rec![2i64]]);
        let d2 = d.clone();
        assert_eq!(d, d2);
        assert_eq!(d.len(), 2);
        // `into_records` on a shared dataset must copy, leaving the clone intact.
        let owned = d.into_records();
        assert_eq!(owned.len(), 2);
        assert_eq!(d2.len(), 2);
        // Uniquely owned datasets unwrap without copying (observable only via
        // behaviour: it still yields the records).
        let unique = Dataset::new(vec![rec![3i64]]);
        assert_eq!(unique.into_records(), vec![rec![3i64]]);
    }

    #[test]
    fn dataset_views_are_lazy_cached_and_shared_by_clones() {
        let records = vec![rec![1i64, "a"], rec![2i64, "b"]];
        // Built from rows: the chunk appears on first use, once, for every
        // clone.
        let rows = Dataset::new(records.clone());
        let clone = rows.clone();
        assert!(!rows.has_chunk() && rows.ptr_eq(&clone));
        let chunk = rows.chunk().expect("rectangular") as *const Chunk;
        assert!(clone.has_chunk());
        assert_eq!(clone.chunk().unwrap() as *const Chunk, chunk);
        // Built from a chunk: rows appear on first use, and `len` never
        // needs them.
        let columnar = Dataset::from_chunk(Chunk::from_records(&records).unwrap());
        assert_eq!(columnar.len(), 2);
        assert!(columnar.has_chunk());
        assert_eq!(columnar.records(), &records[..]);
        assert_eq!(columnar, rows);
        assert!(!columnar.ptr_eq(&rows));
        // Ragged rows have no columnar view, and say so every time.
        let ragged = Dataset::new(vec![rec![1i64], rec![1i64, 2i64]]);
        assert!(ragged.chunk().is_none() && ragged.chunk().is_none());
        assert!(!ragged.has_chunk());
        // `into_records` materializes a chunk-only dataset, moves a unique
        // row vector, and copies a shared one.
        assert_eq!(columnar.into_records(), records);
        let shared = rows.clone();
        assert_eq!(rows.into_records(), records);
        assert_eq!(shared.len(), 2);
        assert_eq!(Dataset::empty().chunk().map(Chunk::rows), Some(0));
    }

    #[test]
    fn dataset_windows_derive_each_view_from_the_parents() {
        let records: Vec<Record> = (0..10i64).map(|i| rec![i, i * 2]).collect();
        // Over a row-built parent: rows are a copy of the range; the chunk
        // is a slice of the parent's chunk, converted once for everyone.
        let table = Dataset::new(records.clone());
        let (head, tail) = (table.slice(0, 4), table.slice(4, 6));
        assert_eq!((head.len(), tail.len()), (4, 6));
        assert!(!head.has_chunk() && !table.has_chunk());
        assert_eq!(tail.records(), &records[4..]);
        assert!(
            !table.has_chunk(),
            "asking a window for rows converts nothing"
        );
        assert_eq!(head.chunk().unwrap().to_records(), &records[..4]);
        assert!(table.has_chunk() && tail.has_chunk());
        let lane = |d: &Dataset| {
            d.chunk()
                .unwrap()
                .column(0)
                .unwrap()
                .ints()
                .unwrap()
                .as_ptr()
        };
        assert_eq!(lane(&tail), lane(&table).wrapping_add(4), "zero-copy slice");
        // Over a chunk-built parent: rows come from the window's slice only.
        let columnar = Dataset::from_chunk(Chunk::from_records(&records).unwrap());
        let window = columnar.slice(2, 3);
        assert!(window.has_chunk());
        assert_eq!(window.clone().into_records(), &records[2..5]);
        assert_eq!(window.slice(1, 2).records(), &records[3..5]);
        // A window of ragged rows has no columnar view either.
        let ragged = Dataset::new(vec![rec![1i64], rec![1i64, 2i64], rec![3i64]]);
        assert!(ragged.slice(0, 1).chunk().is_none());
        assert_eq!(ragged.slice(2, 1).into_records(), vec![rec![3i64]]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(rec![1i64, "a"].to_string(), "(1, a)");
        assert_eq!(Value::Null.to_string(), "null");
    }
}
