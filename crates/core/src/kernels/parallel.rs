//! Sequential shims of four row kernels, under the names the standalone
//! `benchmark` package calls (`benchmark/src/replay.rs`).
//!
//! Every in-process kernel runs whole on its atom's thread: the job's
//! thread budget ([`KernelParallelism`]) is only the wave width. These
//! shims take the budget and ignore it; nothing in the workspace calls
//! them, and ROADMAP item 4(b) deletes them together with that file.

use crate::data::{Record, Value};
use crate::platform::KernelParallelism;
use crate::udf::{FilterUdf, KeyUdf};

/// The sequential [`super::filter`].
pub fn filter(records: &[Record], udf: &FilterUdf, _p: &KernelParallelism) -> Vec<Record> {
    super::filter(records, udf)
}

/// The sequential [`super::sort`].
pub fn sort(
    records: &[Record],
    key: &KeyUdf,
    descending: bool,
    _p: &KernelParallelism,
) -> Vec<Record> {
    super::sort(records, key, descending)
}

/// The sequential [`super::hash_group`].
pub fn hash_group(
    records: &[Record],
    key: &KeyUdf,
    _p: &KernelParallelism,
) -> Vec<(Value, Vec<Record>)> {
    super::hash_group(records, key)
}

/// The sequential [`super::hash_join`].
pub fn hash_join(
    left: &[Record],
    right: &[Record],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
    _p: &KernelParallelism,
) -> Vec<Record> {
    super::hash_join(left, right, left_key, right_key)
}
