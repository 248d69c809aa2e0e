//! Partitioning utilities for the parallel platforms.
//!
//! Two granularities: the Spark-like engine partitions [`Dataset`]s —
//! lazy windows and chunk-built pieces, so columnar operators hand chunks
//! from stage to stage and rows appear only where a task needs them — while
//! the MapReduce engine, whose phase boundaries spill rows to disk anyway,
//! keeps plain row partitions ([`Partitions`]). Both route keys with one
//! hash ([`key_hash`]), whichever view a batch is routed on.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use crossbeam::thread;
use rheem_core::data::{Chunk, Dataset, Record, Value};
use rheem_core::error::{Result, RheemError};
use rheem_core::kernels::{chunked, hash};
use rheem_core::physical::PhysicalOp;
use rheem_core::udf::KeyUdf;
use rheem_core::KernelParallelism;

/// A batch of rows split into partitions.
pub type Partitions = Vec<Vec<Record>>;

/// Balanced contiguous `(offset, len)` ranges covering `0..n` (the first
/// `n % parts` ranges get one extra row).
fn ranges(n: usize, parts: usize) -> impl Iterator<Item = (usize, usize)> {
    let parts = parts.max(1);
    let (base, extra) = (n / parts, n % parts);
    (0..parts).scan(0, move |start, p| {
        let len = base + usize::from(p < extra);
        *start += len;
        Some((*start - len, len))
    })
}

/// Split into `parts` contiguous, order-preserving chunks (narrow input
/// partitioning: concatenating the chunks reproduces the input order).
pub fn chunk(records: &[Record], parts: usize) -> Partitions {
    ranges(records.len(), parts)
        .map(|(start, len)| records[start..start + len].to_vec())
        .collect()
}

/// [`chunk`] for a [`Dataset`]: `parts` contiguous windows, nothing copied
/// or converted until a task asks a window for one of its views.
pub fn split(data: &Dataset, parts: usize) -> Vec<Dataset> {
    ranges(data.len(), parts)
        .map(|(start, len)| data.slice(start, len))
        .collect()
}

/// The routing hash of a record's key: for a declarative key, its fields'
/// engine hashes folded with [`hash::combine`] — what
/// [`chunked::key_tuple_hashes`] computes column-wise — and for an opaque
/// key the engine hash of the closure's value.
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

/// Shuffle records into `parts` partitions by key hash (co-partitioning:
/// equal keys always land in the same partition index), keeping input
/// order within each partition.
pub fn hash_partition(records: &[Record], key: &KeyUdf, parts: usize) -> Partitions {
    let parts = parts.max(1);
    let mut out = vec![Vec::new(); parts];
    for r in records {
        out[(key_hash(key, r) % parts as u64) as usize].push(r.clone());
    }
    out
}

/// [`hash_partition`] for a [`Dataset`]: a batch that has a columnar view
/// is routed on its key columns and gathered into chunk-built partitions;
/// otherwise its rows are. Both ways send a key to the same partition.
pub fn partition_by_key(data: &Dataset, key: &KeyUdf, parts: usize) -> Vec<Dataset> {
    let parts = parts.max(1);
    let columnar = match (key.fields.as_deref(), data.has_chunk()) {
        (Some(fields), true) => data.chunk().map(|chunk| (chunk, fields)),
        _ => None,
    };
    let Some((chunk, fields)) = columnar else {
        return hash_partition(data.records(), key, parts)
            .into_iter()
            .map(Dataset::new)
            .collect();
    };
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (row, h) in chunked::key_tuple_hashes(chunk, fields)
        .into_iter()
        .enumerate()
    {
        rows[(h % parts as u64) as usize].push(row);
    }
    rows.iter()
        .map(|rows| Dataset::from_chunk(chunk.gather(rows)))
        .collect()
}

/// Shuffle records by whole-record hash (used by `Distinct`).
pub fn hash_partition_records(records: &[Record], parts: usize) -> Partitions {
    let parts = parts.max(1);
    let mut out = vec![Vec::new(); parts];
    for r in records {
        let mut h = DefaultHasher::new();
        r.hash(&mut h);
        out[(h.finish() % parts as u64) as usize].push(r.clone());
    }
    out
}

/// Run `op` over one partition on its columnar kernel when it has one —
/// the entry shared with the interpreter, [`chunked::execute`] — chunk in,
/// chunk out, sequentially (the partition is the parallel unit). `side` is
/// the operator's second input, if it has one (the co-partitioned right
/// side of a join). A partition without a columnar view (ragged rows) and
/// any operator without a chunk kernel run `rows` on the partition's rows
/// instead. Also reports whether the columnar kernel ran.
pub fn columnar_or_rows(
    op: &PhysicalOp,
    part: Dataset,
    side: Option<&Dataset>,
    rows: impl FnOnce(Vec<Record>) -> Result<Vec<Record>>,
) -> Result<(Dataset, bool)> {
    let mut inputs = vec![part];
    inputs.extend(side.cloned());
    match chunked::execute(op, &inputs, &KernelParallelism::sequential()) {
        Some(out) => Ok((out?, true)),
        None => {
            let out = rows(inputs.swap_remove(0).into_records())?;
            Ok((Dataset::new(out), false))
        }
    }
}

/// Concatenate partitions back into one batch.
pub fn gather(parts: Partitions) -> Vec<Record> {
    let total = parts.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for p in parts {
        out.extend(p);
    }
    out
}

/// [`gather`] for [`Dataset`] partitions: chunk to chunk when every
/// partition has a columnar view at hand, row to row otherwise.
pub fn concat(mut parts: Vec<Dataset>) -> Dataset {
    if parts.len() == 1 {
        return parts.swap_remove(0);
    }
    if parts.iter().all(Dataset::has_chunk) {
        let chunks: Option<Vec<Chunk>> = parts.iter().map(|p| p.chunk().cloned()).collect();
        if let Some(merged) = chunks.and_then(|chunks| Chunk::concat(&chunks)) {
            return Dataset::from_chunk(merged);
        }
    }
    Dataset::new(gather(
        parts.into_iter().map(Dataset::into_records).collect(),
    ))
}

/// Prefix-sum offsets of each partition (for globally unique ids and
/// position-indexed sampling).
pub fn offsets(parts: &[Dataset]) -> Vec<usize> {
    let mut out = Vec::with_capacity(parts.len());
    let mut acc = 0usize;
    for p in parts {
        out.push(acc);
        acc += p.len();
    }
    out
}

/// Execute `f` over every partition, timing each task individually, and
/// return the transformed partitions together with the **simulated parallel
/// elapsed time**: the maximum per-partition duration, as if every
/// partition had its own core.
///
/// Tasks run sequentially on purpose: measuring per-task time under real
/// thread oversubscription (e.g. a single-core CI host) would inflate every
/// task by time-sharing and erase the parallelism signal. Sequential
/// execution gives exact per-task costs on any machine; the platform then
/// *simulates* the cluster by charging only the critical path. See
/// DESIGN.md's substitution table.
pub fn run_partitions_timed<T, F>(parts: Vec<T>, f: F) -> Result<(Vec<T>, f64)>
where
    F: Fn(usize, T) -> Result<T> + Send + Sync,
{
    let mut out = Vec::with_capacity(parts.len());
    let mut max_ms = 0.0f64;
    for (i, part) in parts.into_iter().enumerate() {
        let t = std::time::Instant::now();
        out.push(f(i, part)?);
        max_ms = max_ms.max(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((out, max_ms))
}

/// Run `f` over every partition on its own worker thread ("task slots").
///
/// `f` receives `(partition index, partition)` and returns the transformed
/// partition. The first error wins; all threads are joined either way.
pub fn par_map_partitions<F>(parts: Partitions, f: F) -> Result<Partitions>
where
    F: Fn(usize, Vec<Record>) -> Result<Vec<Record>> + Send + Sync,
{
    let n = parts.len();
    let mut results: Vec<Result<Vec<Record>>> = Vec::with_capacity(n);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (i, part) in parts.into_iter().enumerate() {
            let f = &f;
            handles.push(scope.spawn(move |_| f(i, part)));
        }
        for h in handles {
            results.push(h.join().unwrap_or_else(|_| {
                Err(RheemError::Execution {
                    platform: "worker".into(),
                    message: "worker thread panicked".into(),
                })
            }));
        }
    })
    .map_err(|_| RheemError::Execution {
        platform: "worker".into(),
        message: "thread scope panicked".into(),
    })?;
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn chunk_preserves_order_and_covers_all() {
        let data = nums(10);
        let parts = chunk(&data, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(gather(parts), data);
    }

    #[test]
    fn chunk_handles_fewer_records_than_parts() {
        let data = nums(2);
        let parts = chunk(&data, 8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(gather(parts), data);
    }

    #[test]
    fn chunk_zero_parts_clamps_to_one() {
        let data = nums(3);
        assert_eq!(chunk(&data, 0).len(), 1);
    }

    #[test]
    fn hash_partition_copartitions_equal_keys() {
        let data: Vec<Record> = (0..100).map(|i| rec![i % 7, i]).collect();
        let parts = hash_partition(&data, &KeyUdf::field(0), 4);
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 100);
        // Every key appears in exactly one partition.
        for k in 0..7i64 {
            let holders = parts
                .iter()
                .filter(|p| p.iter().any(|r| r.int(0).unwrap() == k))
                .count();
            assert_eq!(holders, 1, "key {k} split across partitions");
        }
    }

    #[test]
    fn a_key_meets_itself_whichever_view_was_routed() {
        // One side routed on its columns, the other on its rows: every key
        // still lands in the same partition index on both.
        let left: Vec<Record> = (0..200i64)
            .map(|i| rec![i % 23, format!("k{}", i % 5), i])
            .collect();
        for key in [
            KeyUdf::field(0),
            KeyUdf::field(1),
            KeyUdf::fields(vec![1, 0]),
        ] {
            let columnar = Dataset::new(left.clone());
            columnar.chunk().expect("rectangular");
            let by_columns = partition_by_key(&columnar, &key, 4);
            let by_rows = partition_by_key(&Dataset::new(left.clone()), &key, 4);
            assert!(by_columns.iter().all(Dataset::has_chunk));
            assert!(!by_rows.iter().any(Dataset::has_chunk));
            for (c, r) in by_columns.iter().zip(&by_rows) {
                assert_eq!(c.records(), r.records(), "key {}", key.name);
            }
        }
    }

    #[test]
    fn split_and_concat_round_trip_on_either_view() {
        let data = nums(10);
        for table in [
            Dataset::new(data.clone()),
            Dataset::from_chunk(Chunk::from_records(&data).unwrap()),
        ] {
            let parts = split(&table, 3);
            assert_eq!(
                parts.iter().map(Dataset::len).collect::<Vec<_>>(),
                [4, 3, 3]
            );
            let columnar = table.has_chunk();
            let merged = concat(parts);
            assert_eq!(merged.has_chunk(), columnar);
            assert_eq!(merged.records(), &data[..]);
        }
    }

    #[test]
    fn offsets_are_prefix_sums() {
        let parts = [nums(3), nums(0), nums(5)].map(Dataset::new);
        assert_eq!(offsets(&parts), vec![0, 3, 3]);
    }

    #[test]
    fn par_map_partitions_applies_in_parallel() {
        let parts = chunk(&nums(100), 8);
        let out = par_map_partitions(parts, |_, p| {
            Ok(p.iter().map(|r| rec![r.int(0).unwrap() * 2]).collect())
        })
        .unwrap();
        let all = gather(out);
        assert_eq!(all.len(), 100);
        assert_eq!(all[99], rec![198i64]);
    }

    #[test]
    fn run_partitions_timed_reports_critical_path() {
        let parts = vec![nums(1), nums(2)];
        let (out, max_ms) = run_partitions_timed(parts, |i, p| {
            if i == 1 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Ok(p)
        })
        .unwrap();
        assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 3);
        // Critical path is the slow task, not the sum.
        assert!((18.0..45.0).contains(&max_ms), "max {max_ms}");
    }

    #[test]
    fn run_partitions_timed_propagates_errors() {
        let parts = chunk(&nums(10), 4);
        assert!(run_partitions_timed(parts, |i, p| {
            if i == 2 {
                Err(RheemError::Execution {
                    platform: "test".into(),
                    message: "boom".into(),
                })
            } else {
                Ok(p)
            }
        })
        .is_err());
    }

    #[test]
    fn par_map_partitions_propagates_errors() {
        let parts = chunk(&nums(10), 4);
        let out = par_map_partitions(parts, |i, p| {
            if i == 2 {
                Err(RheemError::Execution {
                    platform: "test".into(),
                    message: "boom".into(),
                })
            } else {
                Ok(p)
            }
        });
        assert!(out.is_err());
    }
}
