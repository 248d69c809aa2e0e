//! Shared record-batch algorithms ("execution kernels").
//!
//! Execution operators are platform-*dependent* (§3.1), but the underlying
//! per-batch algorithms are not: a hash join hashes the same way whether the
//! batch is a whole dataset (single-process platform) or one partition of a
//! shuffle (parallel platform). Platforms compose these kernels with their
//! own orchestration — partitioning, threading, disk materialization,
//! simulated overheads — which is where their cost profiles diverge.
//!
//! Three layers: the row kernels here (the reference every other kernel is
//! tested against), their columnar twins over a [`Chunk`] ([`chunked`], on
//! the vectorized hash engine for keyed operators), and the operator table
//! ([`execute`]) that picks between them. Every kernel call runs whole on
//! its caller's thread; a partitioned engine's tasks are its only
//! parallelism. A closure kernel (map, flat-map, filter) checks the
//! ambient cancel scope before each row. [`parallel`] keeps four
//! sequential shims the standalone `benchmark` package calls.

pub mod chunked;
mod hash;
pub mod parallel;

use std::collections::HashMap;

use crate::data::{Chunk, Dataset, Record, Value};
use crate::error::{Result, RheemError};
use crate::fault;
use crate::physical::PhysicalOp;
use crate::udf::{FilterUdf, FlatMapUdf, GroupMapUdf, KeyUdf, MapUdf, PairPredicateFn, ReduceUdf};

// For tests: the engine's `Int` key hash, so a suite can build key sets
// that all land on one probe sequence of a slot table (the worst case).
pub use hash::hash_i64;

/// The operator table: the one place a [`PhysicalOp`] becomes a kernel call.
///
/// Every engine runs an operator through here — the interpreter on whole
/// datasets, a partitioned engine on each partition once the operator's
/// [`Layout`](crate::physical::Layout) is in place.
///
/// A declarative operator (expressions, field keys, aggregate specs) whose
/// inputs have a columnar view runs on its chunk kernel, chunk in and chunk
/// out; everything else runs on the row kernels. Either way the kernel
/// runs whole, and outputs are byte-identical on either path. The flag is
/// the one definition of
/// [`NodeObservation::columnar`](crate::observe::NodeObservation): `true`
/// when no row was touched — a chunk kernel ran, or the operator only hands
/// its dataset (or a window of it) along.
///
/// Operators bound to an execution context (storage, loop state) are the
/// fragment runners' to resolve and are rejected here.
pub fn execute(op: &PhysicalOp, inputs: &[Dataset]) -> Result<(Dataset, bool)> {
    if let Some(out) = execute_columnar(op, inputs) {
        return Ok((Dataset::from_chunk(out?), true));
    }
    let in0 = || inputs[0].records();
    let in1 = || inputs[1].records();
    let rows = match op {
        PhysicalOp::CollectionSource { data, .. } => return Ok((data.clone(), true)),
        PhysicalOp::CollectSink => return Ok((inputs[0].clone(), true)),
        // A prefix is a window on whichever view exists.
        PhysicalOp::Limit { n } => return Ok((inputs[0].slice(0, inputs[0].len().min(*n)), true)),
        PhysicalOp::Custom(c) => return Ok((c.execute(inputs)?, false)),
        PhysicalOp::Map(u) => map(in0(), u),
        PhysicalOp::FlatMap(u) => flat_map(in0(), u),
        PhysicalOp::Filter(u) => filter(in0(), u),
        // Only a ragged batch gets these two here: the row-at-a-time reference.
        PhysicalOp::Project { indices } => project(in0(), indices)?,
        PhysicalOp::ChunkPipeline { stages } => chunked::run_stages_rows(in0(), stages)?,
        PhysicalOp::SortGroupBy { key, group } => apply_group_map(&sort_group(in0(), key), group),
        PhysicalOp::HashGroupBy { key, group } => apply_group_map(&hash_group(in0(), key), group),
        PhysicalOp::ReduceByKey { key, reduce } => reduce_by_key(in0(), key, reduce),
        PhysicalOp::GlobalReduce { reduce } => global_reduce(in0(), reduce),
        PhysicalOp::Sort { key, descending } => sort(in0(), key, *descending),
        PhysicalOp::HashJoin {
            left_key,
            right_key,
        } => hash_join(in0(), in1(), left_key, right_key),
        PhysicalOp::NestedLoopJoin { predicate, .. } => nested_loop_join(in0(), in1(), predicate),
        PhysicalOp::CrossProduct => cross_product(in0(), in1()),
        PhysicalOp::Union => union(in0(), in1()),
        PhysicalOp::StorageSource { .. } | PhysicalOp::LoopInput | PhysicalOp::Loop { .. } => {
            return Err(RheemError::InvalidPlan(format!(
                "{} is bound to an execution context and has no kernel",
                op.name()
            )))
        }
    };
    Ok((Dataset::new(rows), false))
}

/// The chunk kernel of `op`, if it has one and its inputs have a columnar
/// view; `None` sends the operator to the row kernels (an opaque closure,
/// no chunk kernel, or a ragged input). The capability check comes first,
/// so inputs are only converted for operators that will use the conversion.
fn execute_columnar(op: &PhysicalOp, inputs: &[Dataset]) -> Option<Result<Chunk>> {
    Some(match op {
        PhysicalOp::SortGroupBy { key, group } | PhysicalOp::HashGroupBy { key, group } => {
            let (fields, aggs) = (key.fields.as_deref()?, group.aggs.as_deref()?);
            Ok(chunked::hash_aggregate(inputs[0].chunk()?, fields, aggs))
        }
        PhysicalOp::Sort { key, descending } => {
            key.field_index()?;
            Ok(chunked::sort(inputs[0].chunk()?, key, *descending))
        }
        PhysicalOp::HashJoin {
            left_key,
            right_key,
        } => {
            left_key.field_index().and(right_key.field_index())?;
            let (left, right) = (inputs[0].chunk()?, inputs[1].chunk()?);
            Ok(chunked::hash_join(left, right, left_key, right_key))
        }
        _ => {
            let stages = op.pipeline_stages()?;
            chunked::run_pipeline_chunk(inputs[0].chunk()?, &stages)
        }
    })
}

/// The routing hash of a record's key: for a declarative key, its fields'
/// engine hashes folded as [`chunked::key_tuple_hashes`] folds them
/// column-wise, and for an opaque key the engine hash of the closure's
/// value.
#[inline]
pub fn key_hash(key: &KeyUdf, r: &Record) -> u64 {
    match key.fields.as_deref() {
        Some(fields) => fields.iter().fold(0, |acc, &i| {
            hash::combine(
                acc,
                hash::hash_value(r.fields().get(i).unwrap_or(&Value::Null)),
            )
        }),
        None => hash::hash_value(&(key.f)(r)),
    }
}

/// Apply a map UDF to every record. Under a cancel scope that fires, it
/// stops before the next record (so do [`flat_map`] and [`filter`]).
pub fn map(records: &[Record], udf: &MapUdf) -> Vec<Record> {
    let live = fault::live();
    let mut out = Vec::with_capacity(records.len());
    for r in records.iter().take_while(|_| live()) {
        out.push((udf.f)(r));
    }
    out
}

/// Apply a flat-map UDF to every record.
pub fn flat_map(records: &[Record], udf: &FlatMapUdf) -> Vec<Record> {
    let live = fault::live();
    let mut out = Vec::with_capacity(records.len());
    for r in records.iter().take_while(|_| live()) {
        out.extend((udf.f)(r));
    }
    out
}

/// Keep records satisfying the predicate.
pub fn filter(records: &[Record], udf: &FilterUdf) -> Vec<Record> {
    let live = fault::live();
    let kept = records.iter().take_while(|_| live());
    kept.filter(|r| (udf.f)(r)).cloned().collect()
}

/// Project every record onto the given field indices.
pub fn project(records: &[Record], indices: &[usize]) -> Result<Vec<Record>> {
    records.iter().map(|r| r.project(indices)).collect()
}

/// Group records by key using a hash table. Group order is normalized by
/// sorting on the key so results are deterministic across platforms.
pub fn hash_group(records: &[Record], key: &KeyUdf) -> Vec<(Value, Vec<Record>)> {
    let mut groups: HashMap<Value, Vec<Record>> = HashMap::new();
    for r in records {
        groups.entry((key.f)(r)).or_default().push(r.clone());
    }
    let mut out: Vec<(Value, Vec<Record>)> = groups.into_iter().collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Group records by key by sorting; same output contract as [`hash_group`]
/// but with an `O(n log n)` comparison-based profile.
pub fn sort_group(records: &[Record], key: &KeyUdf) -> Vec<(Value, Vec<Record>)> {
    let mut keyed: Vec<(Value, Record)> = records.iter().map(|r| ((key.f)(r), r.clone())).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(Value, Vec<Record>)> = Vec::new();
    for (k, r) in keyed {
        match out.last_mut() {
            Some((lk, group)) if *lk == k => group.push(r),
            _ => out.push((k, vec![r])),
        }
    }
    out
}

/// Apply a per-group UDF to grouped records.
pub fn apply_group_map(groups: &[(Value, Vec<Record>)], udf: &GroupMapUdf) -> Vec<Record> {
    let mut out = Vec::new();
    for (k, members) in groups {
        out.extend((udf.f)(k, members));
    }
    out
}

/// Keyed incremental reduction; one output record per key, ordered by key.
pub fn reduce_by_key(records: &[Record], key: &KeyUdf, reduce: &ReduceUdf) -> Vec<Record> {
    let mut acc: HashMap<Value, Record> = HashMap::new();
    for r in records {
        // One hash lookup per record: accumulate in place via the entry
        // API (the old remove-then-insert hashed every key twice).
        acc.entry((key.f)(r))
            .and_modify(|a| *a = (reduce.f)(std::mem::take(a), r))
            .or_insert_with(|| r.clone());
    }
    let mut keyed: Vec<(Value, Record)> = acc.into_iter().collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Reduce all records into at most one.
pub(crate) fn global_reduce(records: &[Record], reduce: &ReduceUdf) -> Vec<Record> {
    let mut it = records.iter();
    match it.next() {
        None => Vec::new(),
        Some(first) => {
            let mut acc = first.clone();
            for r in it {
                acc = (reduce.f)(acc, r);
            }
            vec![acc]
        }
    }
}

/// Hash equi-join; output records are `left ++ right`.
pub fn hash_join(
    left: &[Record],
    right: &[Record],
    left_key: &KeyUdf,
    right_key: &KeyUdf,
) -> Vec<Record> {
    // Always build on the right and probe with the left so the output order
    // is deterministic (left-major) regardless of input sizes.
    let mut table: HashMap<Value, Vec<&Record>> = HashMap::new();
    for r in right {
        table.entry((right_key.f)(r)).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left {
        if let Some(matches) = table.get(&(left_key.f)(l)) {
            for r in matches {
                out.push(l.concat(r));
            }
        }
    }
    out
}

/// Nested-loop theta join with an arbitrary pair predicate.
pub(crate) fn nested_loop_join(
    left: &[Record],
    right: &[Record],
    predicate: &PairPredicateFn,
) -> Vec<Record> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            if predicate(l, r) {
                out.push(l.concat(r));
            }
        }
    }
    out
}

/// Full cross product.
pub(crate) fn cross_product(left: &[Record], right: &[Record]) -> Vec<Record> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for l in left {
        for r in right {
            out.push(l.concat(r));
        }
    }
    out
}

/// Stable sort by key.
pub fn sort(records: &[Record], key: &KeyUdf, descending: bool) -> Vec<Record> {
    let mut keyed: Vec<(Value, Record)> = records.iter().map(|r| ((key.f)(r), r.clone())).collect();
    if descending {
        keyed.sort_by(|a, b| b.0.cmp(&a.0));
    } else {
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
    }
    keyed.into_iter().map(|(_, r)| r).collect()
}

/// Duplicate elimination preserving first occurrence order.
pub fn distinct(records: &[Record]) -> Vec<Record> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for r in records {
        if seen.insert(r.clone()) {
            out.push(r.clone());
        }
    }
    out
}

/// Bag union (concatenation).
pub(crate) fn union(left: &[Record], right: &[Record]) -> Vec<Record> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;
    use std::sync::Arc;

    fn nums(v: &[i64]) -> Vec<Record> {
        v.iter().map(|&i| rec![i]).collect()
    }

    #[test]
    fn map_filter_flatmap() {
        let data = nums(&[1, 2, 3]);
        let doubled = map(&data, &MapUdf::new("x2", |r| rec![r.int(0).unwrap() * 2]));
        assert_eq!(doubled, nums(&[2, 4, 6]));
        let odd = filter(
            &data,
            &FilterUdf::new("odd", |r| r.int(0).unwrap() % 2 == 1),
        );
        assert_eq!(odd, nums(&[1, 3]));
        let dup = flat_map(
            &data,
            &FlatMapUdf::new("dup", |r| vec![r.clone(), r.clone()]),
        );
        assert_eq!(dup.len(), 6);
    }

    #[test]
    fn hash_and_sort_group_agree() {
        let data = vec![rec![1i64, "a"], rec![2i64, "b"], rec![1i64, "c"]];
        let key = KeyUdf::field(0);
        let h = hash_group(&data, &key);
        let s = sort_group(&data, &key);
        assert_eq!(h, s);
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].1.len(), 2);
    }

    #[test]
    fn reduce_by_key_sums_per_key() {
        let data = vec![rec![1i64, 10i64], rec![2i64, 5i64], rec![1i64, 7i64]];
        let out = reduce_by_key(
            &data,
            &KeyUdf::field(0),
            &ReduceUdf::new("sum", |a, b| {
                rec![a.int(0).unwrap(), a.int(1).unwrap() + b.int(1).unwrap()]
            }),
        );
        assert_eq!(out, vec![rec![1i64, 17i64], rec![2i64, 5i64]]);
    }

    #[test]
    fn global_reduce_handles_empty_and_nonempty() {
        let sum = ReduceUdf::new("sum", |a, b| rec![a.int(0).unwrap() + b.int(0).unwrap()]);
        assert!(global_reduce(&[], &sum).is_empty());
        assert_eq!(global_reduce(&nums(&[1, 2, 3]), &sum), nums(&[6]));
    }

    #[test]
    fn joins_agree_on_equality_semantics() {
        let left = vec![rec![1i64, "l1"], rec![2i64, "l2"], rec![2i64, "l2b"]];
        let right = vec![rec![2i64, "r2"], rec![3i64, "r3"], rec![2i64, "r2b"]];
        let lk = KeyUdf::field(0);
        let rk = KeyUdf::field(0);
        let h = hash_join(&left, &right, &lk, &rk);
        let eq: PairPredicateFn = Arc::new(|l, r| l.fields()[0] == r.fields()[0]);
        assert_eq!(h, nested_loop_join(&left, &right, &eq));
        assert_eq!(h.len(), 4); // 2 left × 2 right matches on key 2
        assert_eq!(h[0].width(), 4);
    }

    #[test]
    fn nested_loop_join_matches_predicate() {
        let left = nums(&[1, 5]);
        let right = nums(&[3, 4]);
        let pred: PairPredicateFn = Arc::new(|l, r| l.int(0).unwrap() < r.int(0).unwrap());
        let out = nested_loop_join(&left, &right, &pred);
        assert_eq!(out.len(), 2); // (1,3), (1,4)
    }

    #[test]
    fn cross_product_size() {
        let out = cross_product(&nums(&[1, 2]), &nums(&[3, 4, 5]));
        assert_eq!(out.len(), 6);
    }

    #[test]
    fn sort_directions() {
        let data = nums(&[3, 1, 2]);
        assert_eq!(sort(&data, &KeyUdf::field(0), false), nums(&[1, 2, 3]));
        assert_eq!(sort(&data, &KeyUdf::field(0), true), nums(&[3, 2, 1]));
    }

    #[test]
    fn distinct_preserves_first_occurrence() {
        let data = nums(&[2, 1, 2, 3, 1]);
        assert_eq!(distinct(&data), nums(&[2, 1, 3]));
    }

    #[test]
    fn union_concatenates() {
        assert_eq!(union(&nums(&[1]), &nums(&[2, 3])), nums(&[1, 2, 3]));
    }

    #[test]
    fn the_table_takes_the_chunk_kernel_for_declarative_operators_only() {
        use crate::expr::Expr;
        use crate::udf::{AggFunc, Aggregate, GroupOutput};
        let rows: Vec<Record> = (0..50i64).map(|i| rec![i % 5, i]).collect();
        let input = [Dataset::new(rows.clone())];
        let declarative = PhysicalOp::HashGroupBy {
            key: KeyUdf::field(0),
            group: GroupMapUdf::from_aggs(
                "sum",
                vec![
                    GroupOutput::First(0),
                    GroupOutput::Agg(Aggregate {
                        func: AggFunc::Sum,
                        arg: Some(Expr::field(1)),
                    }),
                ],
            ),
        };
        let (out, columnar) = execute(&declarative, &input).unwrap();
        assert!(columnar && out.has_chunk());
        assert_eq!(out.len(), 5);
        assert_eq!(out.records()[0], rec![0i64, 225i64]);
        // An opaque key, an opaque group map, an operator without a chunk
        // kernel (a flat map), and a ragged input all run on rows.
        let opaque_key = PhysicalOp::Sort {
            key: KeyUdf::new("k", |r| r.fields()[0].clone()),
            descending: false,
        };
        let opaque_group = PhysicalOp::HashGroupBy {
            key: KeyUdf::field(0),
            group: GroupMapUdf::identity(),
        };
        let flat_map = PhysicalOp::FlatMap(FlatMapUdf::new("dup", |r| vec![r.clone(); 2]));
        for op in [&opaque_key, &opaque_group, &flat_map] {
            assert!(!execute(op, &input).unwrap().1, "{op:?}");
        }
        let ragged = [Dataset::new(vec![rec![1i64], rec![1i64, 2i64]])];
        let (grouped, columnar) = execute(&declarative, &ragged).unwrap();
        assert!(!columnar);
        assert_eq!(grouped.records(), &[rec![1i64, 2i64]]);
        // A prefix is a window of whichever view exists: it touches no row
        // and never converts a batch to keep `n` rows of it.
        let limit = PhysicalOp::Limit { n: 3 };
        let (prefix, passed) = execute(&limit, &[Dataset::new(rows.clone())]).unwrap();
        assert!(passed && !prefix.has_chunk());
        assert_eq!(prefix.records(), &rows[..3]);
        let (prefix, passed) = execute(&limit, &[out]).unwrap();
        assert!(passed && prefix.has_chunk() && prefix.len() == 3);
        assert_eq!(execute(&limit, &ragged).unwrap().0.len(), 2);
    }

    /// A fired cancel stops a closure kernel within one row: a map over
    /// 1 000 rows whose token fires at row 100 calls its closure at most
    /// 101 times, and a pre-cancelled one never; the chunk pipeline
    /// surfaces the cancel as an error. The scope restores the previous
    /// token on exit.
    #[test]
    fn cancel_scope_stops_a_closure_kernel_within_one_row() {
        use crate::error::CancelReason;
        use crate::fault::{live, with_cancel_scope, CancelToken};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let rows: Vec<Record> = (0..1_000i64).map(|i| rec![i]).collect();
        let token = CancelToken::new();
        let calls = Arc::new(AtomicUsize::new(0));
        let udf = MapUdf::new("cancel-at-100", {
            let (token, calls) = (token.clone(), calls.clone());
            move |r| {
                if calls.fetch_add(1, Ordering::SeqCst) == 100 {
                    token.cancel(CancelReason::Explicit);
                }
                r.clone()
            }
        });
        let out = with_cancel_scope(&token, || map(&rows, &udf));
        assert!(calls.load(Ordering::SeqCst) <= 101, "{calls:?}");
        assert_eq!(out.len(), calls.load(Ordering::SeqCst));

        let kept = FilterUdf::new("never", |_| panic!("ran after the cancel"));
        let spread = FlatMapUdf::new("never", |_| panic!("ran after the cancel"));
        with_cancel_scope(&token, || {
            assert!(filter(&rows, &kept).is_empty());
            assert!(flat_map(&rows, &spread).is_empty());
        });

        let chunk = Chunk::from_records(&rows).unwrap();
        let err = with_cancel_scope(&token, || chunked::run_pipeline_chunk(&chunk, &[]));
        assert!(matches!(err, Err(RheemError::Cancelled { .. })), "{err:?}");
        assert!(live()());
    }

    #[test]
    fn the_table_rejects_context_bound_operators() {
        let err = execute(&PhysicalOp::LoopInput, &[]).unwrap_err();
        assert!(matches!(err, RheemError::InvalidPlan(_)), "{err:?}");
    }
}
