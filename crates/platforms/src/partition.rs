//! Partitioning utilities for the partitioned fragment runner.
//!
//! A dataset in flight is a list of [`Dataset`] partitions — lazy windows
//! and chunk-built pieces, so columnar operators hand chunks from stage to
//! stage and rows appear only where a task needs them. Keys are routed with
//! one hash ([`kernels::key_hash`]), whichever view a batch is routed on.

use rheem_core::kernels::{self, chunked};
use rheem_core::udf::KeyUdf;
use rheem_core::{Chunk, Dataset, Result};

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

/// Split into `parts` contiguous, order-preserving windows (narrow input
/// partitioning: concatenating them reproduces the input order). Nothing
/// is copied or converted until a task asks a window for one of its views.
pub fn split(data: &Dataset, parts: usize) -> Vec<Dataset> {
    ranges(data.len(), parts)
        .map(|(start, len)| data.slice(start, len))
        .collect()
}

/// Shuffle into `parts` partitions by key hash (co-partitioning: equal
/// keys always land in the same partition index), keeping input order
/// within each partition. A batch that has a columnar view is routed on its
/// key columns and gathered into chunk-built partitions; otherwise its rows
/// are. Both ways send a key to the same partition.
pub(crate) fn partition_by_key(data: &Dataset, key: &KeyUdf, parts: usize) -> Vec<Dataset> {
    let parts = parts.max(1);
    let columnar = match (key.fields.as_deref(), data.has_chunk()) {
        (Some(fields), true) => data.chunk().map(|chunk| (chunk, fields)),
        _ => None,
    };
    let Some((chunk, fields)) = columnar else {
        let mut out = vec![Vec::new(); parts];
        for r in data.records() {
            out[(kernels::key_hash(key, r) % parts as u64) as usize].push(r.clone());
        }
        return out.into_iter().map(Dataset::new).collect();
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

/// Concatenate partitions back into one batch: chunk to chunk when every
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
    let mut rows = Vec::with_capacity(parts.iter().map(Dataset::len).sum());
    for p in parts {
        rows.extend(p.into_records());
    }
    Dataset::new(rows)
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
pub(crate) fn run_partitions_timed<T>(
    parts: Vec<T>,
    mut f: impl FnMut(usize, T) -> Result<T>,
) -> Result<(Vec<T>, f64)> {
    let mut out = Vec::with_capacity(parts.len());
    let mut max_ms = 0.0f64;
    for (i, part) in parts.into_iter().enumerate() {
        let t = std::time::Instant::now();
        out.push(f(i, part)?);
        max_ms = max_ms.max(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((out, max_ms))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::{rec, Record, RheemError};

    fn nums(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec![i]).collect()
    }

    #[test]
    fn split_preserves_order_and_covers_all() {
        let data = Dataset::new(nums(10));
        let parts = split(&data, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 4); // 10 = 4 + 3 + 3
        assert_eq!(concat(parts), data);
    }

    #[test]
    fn split_handles_fewer_records_than_parts() {
        let data = Dataset::new(nums(2));
        let parts = split(&data, 8);
        assert_eq!(parts.len(), 8);
        assert_eq!(parts.iter().map(Dataset::len).sum::<usize>(), 2);
        assert_eq!(concat(parts), data);
    }

    #[test]
    fn split_zero_parts_clamps_to_one() {
        assert_eq!(split(&Dataset::new(nums(3)), 0).len(), 1);
    }

    #[test]
    fn partition_by_key_copartitions_equal_keys() {
        let data: Dataset = (0..100).map(|i| rec![i % 7, i]).collect();
        let parts = partition_by_key(&data, &KeyUdf::field(0), 4);
        assert_eq!(parts.iter().map(Dataset::len).sum::<usize>(), 100);
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
        let parts = split(&Dataset::new(nums(10)), 4);
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
}
