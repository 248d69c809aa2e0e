//! The storage layer: RHEEM's three-level data storage abstraction (§6),
//! each level in its simplest form.
//!
//! * **l-store** — reads and writes by dataset id, through the processing
//!   side's [`StorageService`] trait, with no placement decision;
//! * **p-store** — the placement catalog ([`StorageLayer::place`],
//!   [`StorageLayer::placement`]) binding an id to a store;
//! * **x-store** — the [`crate::store::Store`] implementations holding the
//!   data.
//!
//! [`StorageLayer`] owns the registered stores, the catalog and an optional
//! hot-data buffer, so `StorageSource`/`WriteStorage` operators work
//! against it whichever store holds a dataset.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use rheem_core::data::Dataset;
use rheem_core::error::{Result, RheemError};
use rheem_core::platform::StorageService;

use crate::hot::{HotDataBuffer, HotStats};
use crate::store::Store;

/// The storage abstraction's core-layer component.
pub struct StorageLayer {
    stores: Vec<Arc<dyn Store>>,
    default_store: String,
    catalog: Mutex<HashMap<String, String>>,
    hot: Option<HotDataBuffer>,
}

impl StorageLayer {
    /// A layer with one default store and no hot buffer.
    pub fn new(default_store: Arc<dyn Store>) -> Self {
        let name = default_store.name().to_string();
        StorageLayer {
            stores: vec![default_store],
            default_store: name,
            catalog: Mutex::new(HashMap::new()),
            hot: None,
        }
    }

    /// Register an additional store.
    pub fn with_store(mut self, store: Arc<dyn Store>) -> Self {
        self.stores.push(store);
        self
    }

    /// Enable a hot-data buffer with the given record capacity.
    pub fn with_hot_buffer(mut self, capacity_records: usize) -> Self {
        self.hot = Some(HotDataBuffer::new(capacity_records));
        self
    }

    /// Resolve a store by name.
    pub fn store(&self, name: &str) -> Result<&Arc<dyn Store>> {
        self.stores
            .iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| RheemError::Storage(format!("unknown store: {name}")))
    }

    /// Which store holds a dataset (catalog lookup, default otherwise).
    pub fn placement(&self, dataset_id: &str) -> String {
        self.catalog
            .lock()
            .get(dataset_id)
            .cloned()
            .unwrap_or_else(|| self.default_store.clone())
    }

    /// Pin a dataset id to a store: later reads and writes of the id go
    /// there. Data already on that store becomes visible under the id.
    pub fn place(&self, dataset_id: impl Into<String>, store: impl Into<String>) {
        let dataset_id = dataset_id.into();
        if let Some(hot) = &self.hot {
            hot.invalidate(&dataset_id);
        }
        self.catalog.lock().insert(dataset_id, store.into());
    }

    /// Hot buffer statistics, if a buffer is enabled.
    pub fn hot_stats(&self) -> Option<HotStats> {
        self.hot.as_ref().map(|h| h.stats())
    }

    fn placed_store(&self, dataset_id: &str) -> Result<&Arc<dyn Store>> {
        self.store(&self.placement(dataset_id))
    }
}

impl StorageService for StorageLayer {
    fn read(&self, dataset_id: &str) -> Result<Dataset> {
        let Some(hot) = &self.hot else {
            return self.placed_store(dataset_id)?.read(dataset_id);
        };
        if let Some(data) = hot.get(dataset_id) {
            return Ok(data);
        }
        let data = self.placed_store(dataset_id)?.read(dataset_id)?;
        hot.put(dataset_id, data.clone());
        Ok(data)
    }

    /// Write to the store the id is placed on (the default store when it
    /// is unplaced); the placement does not change.
    fn write(&self, dataset_id: &str, data: &Dataset) -> Result<()> {
        self.placed_store(dataset_id)?.write(dataset_id, data)?;
        if let Some(hot) = &self.hot {
            hot.invalidate(dataset_id);
        }
        Ok(())
    }

    fn cardinality(&self, dataset_id: &str) -> Option<u64> {
        self.placed_store(dataset_id).ok()?.cardinality(dataset_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{MemStore, SimHdfsConfig, SimHdfsStore};
    use rheem_core::rec;

    fn nums(n: i64) -> Dataset {
        Dataset::new((0..n).map(|i| rec![i, i * 10]).collect())
    }

    #[test]
    fn unplaced_ids_use_the_default_store() {
        let layer = StorageLayer::new(Arc::new(MemStore::new("mem"))).with_store(Arc::new(
            SimHdfsStore::new("hdfs", SimHdfsConfig::default()),
        ));
        StorageService::write(&layer, "d", &nums(5)).unwrap();
        assert_eq!(layer.placement("d"), "mem");
        assert_eq!(StorageService::read(&layer, "d").unwrap().len(), 5);
        assert_eq!(layer.cardinality("d"), Some(5));
        assert!(layer.store("hdfs").unwrap().read("d").is_err());
        assert!(layer.store("nope").is_err());
    }

    #[test]
    fn hot_buffer_serves_repeated_reads() {
        let layer = StorageLayer::new(Arc::new(SimHdfsStore::new(
            "hdfs",
            SimHdfsConfig {
                block_records: 10,
                ..SimHdfsConfig::default()
            },
        )))
        .with_hot_buffer(10_000);
        StorageService::write(&layer, "d", &nums(100)).unwrap();
        for _ in 0..5 {
            assert_eq!(StorageService::read(&layer, "d").unwrap().len(), 100);
        }
        let hot = layer.hot_stats().unwrap();
        assert_eq!((hot.hits, hot.misses), (4, 1)); // first read misses
    }

    #[test]
    fn writes_and_placements_invalidate_hot_entries() {
        let other = Arc::new(MemStore::new("other"));
        let layer = StorageLayer::new(Arc::new(MemStore::new("mem")))
            .with_store(other.clone())
            .with_hot_buffer(10_000);
        StorageService::write(&layer, "d", &nums(3)).unwrap();
        assert_eq!(StorageService::read(&layer, "d").unwrap().len(), 3);
        StorageService::write(&layer, "d", &nums(7)).unwrap();
        assert_eq!(StorageService::read(&layer, "d").unwrap().len(), 7);
        other.write("d", &nums(2)).unwrap();
        layer.place("d", "other");
        assert_eq!(StorageService::read(&layer, "d").unwrap().len(), 2);
    }
}
