//! Hot-data buffers (§6, *Embracing hot data*).
//!
//! "We envision processing platforms or storage applications with
//! specialized buffers for embracing frequently accessed data in their
//! native format." A `HotDataBuffer` is an LRU cache of datasets keyed by
//! id with a record-count capacity; the storage layer consults it before
//! touching the backing store, so repeated access to hot datasets skips
//! (simulated) I/O entirely.

use std::collections::HashMap;

use parking_lot::Mutex;
use rheem_core::Dataset;

/// Cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HotStats {
    /// Lookups that found a cached dataset.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries dropped because their dataset was written or re-placed.
    pub invalidations: u64,
}

struct Entry {
    data: Dataset,
    last_used: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    clock: u64,
    resident_records: usize,
    stats: HotStats,
}

/// An LRU cache of datasets.
pub(crate) struct HotDataBuffer {
    capacity_records: usize,
    inner: Mutex<Inner>,
}

impl HotDataBuffer {
    /// A buffer that holds at most `capacity_records` records in total.
    pub(crate) fn new(capacity_records: usize) -> Self {
        HotDataBuffer {
            capacity_records,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                resident_records: 0,
                stats: HotStats::default(),
            }),
        }
    }

    /// Look up a dataset, refreshing its recency on a hit.
    pub(crate) fn get(&self, dataset_id: &str) -> Option<Dataset> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        match inner.entries.get_mut(dataset_id) {
            Some(e) => {
                e.last_used = clock;
                let data = e.data.clone();
                inner.stats.hits += 1;
                Some(data)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a dataset, evicting least-recently-used entries as needed.
    ///
    /// Datasets larger than the whole buffer are not cached at all, and
    /// neither are empty ones: an empty dataset carries no I/O worth
    /// skipping, but its entry would still occupy a map slot and — worse —
    /// could serve a stale empty result for a dataset that has since been
    /// written (the old behavior; see the regression test).
    pub(crate) fn put(&self, dataset_id: &str, data: Dataset) {
        let len = data.len();
        if len == 0 || len > self.capacity_records {
            return;
        }
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(old) = inner.entries.remove(dataset_id) {
            inner.resident_records -= old.data.len();
        }
        while inner.resident_records + len > self.capacity_records {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    let e = inner.entries.remove(&k).expect("victim exists");
                    inner.resident_records -= e.data.len();
                    inner.stats.evictions += 1;
                }
                None => break,
            }
        }
        inner.resident_records += len;
        inner.entries.insert(
            dataset_id.to_string(),
            Entry {
                data,
                last_used: clock,
            },
        );
    }

    /// Drop a dataset from the buffer (called on writes and placements so
    /// readers never see stale data).
    pub(crate) fn invalidate(&self, dataset_id: &str) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.entries.remove(dataset_id) {
            inner.resident_records -= e.data.len();
            inner.stats.invalidations += 1;
        }
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> HotStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rheem_core::rec;

    fn ds(n: i64) -> Dataset {
        Dataset::new((0..n).map(|i| rec![i]).collect())
    }

    fn resident_records(buf: &HotDataBuffer) -> usize {
        buf.inner.lock().resident_records
    }

    #[test]
    fn hit_after_put() {
        let buf = HotDataBuffer::new(100);
        assert!(buf.get("a").is_none());
        buf.put("a", ds(10));
        assert_eq!(buf.get("a").unwrap().len(), 10);
        let s = buf.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let buf = HotDataBuffer::new(20);
        buf.put("a", ds(10));
        buf.put("b", ds(10));
        // Touch `a` so `b` is the LRU victim.
        buf.get("a");
        buf.put("c", ds(10));
        assert!(buf.get("a").is_some());
        assert!(buf.get("b").is_none());
        assert!(buf.get("c").is_some());
        assert_eq!(buf.stats().evictions, 1);
        assert_eq!(resident_records(&buf), 20);
    }

    #[test]
    fn oversized_datasets_are_not_cached() {
        let buf = HotDataBuffer::new(5);
        buf.put("big", ds(100));
        assert!(buf.get("big").is_none());
        assert_eq!(resident_records(&buf), 0);
    }

    #[test]
    fn invalidation_drops_only_the_written_dataset() {
        let buf = HotDataBuffer::new(100);
        buf.put("a", ds(5));
        buf.put("b", ds(5));
        buf.invalidate("a");
        buf.invalidate("missing");
        assert!(buf.get("a").is_none());
        assert!(buf.get("b").is_some());
        assert_eq!(buf.stats().invalidations, 1);
        assert_eq!(resident_records(&buf), 5);
    }

    #[test]
    fn empty_datasets_are_not_cached() {
        // Regression: an empty dataset used to occupy an entry and could
        // serve a stale empty result after the real dataset was written.
        let buf = HotDataBuffer::new(100);
        buf.put("a", ds(0));
        assert!(buf.inner.lock().entries.is_empty());
        assert!(buf.get("a").is_none());
        // The backing store is consulted, sees the freshly written data,
        // and caches the non-empty version.
        buf.put("a", ds(7));
        assert_eq!(buf.get("a").unwrap().len(), 7);
    }

    #[test]
    fn replacing_an_entry_updates_residency() {
        let buf = HotDataBuffer::new(100);
        buf.put("a", ds(10));
        buf.put("a", ds(3));
        assert_eq!(resident_records(&buf), 3);
    }
}
