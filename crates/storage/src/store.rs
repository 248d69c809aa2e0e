//! Storage platforms (the x-store level of §6).
//!
//! Two stores with deliberately different cost profiles, standing in for
//! the heterogeneous storage engines the paper federates:
//!
//! * [`MemStore`] — zero-latency in-memory storage;
//! * [`SimHdfsStore`] — a simulated distributed FS: datasets are chunked
//!   into fixed-size blocks, replicated, and charged a per-block latency
//!   (the substitution for a real HDFS cluster, see DESIGN.md).

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use rheem_core::{Dataset, Result, RheemError};

use crate::codec;

/// A storage platform: the execution level of the storage abstraction.
pub trait Store: Send + Sync {
    /// Unique store name.
    fn name(&self) -> &str;

    /// Write (or replace) a dataset.
    fn write(&self, id: &str, data: &Dataset) -> Result<()>;

    /// Read a dataset.
    fn read(&self, id: &str) -> Result<Dataset>;

    /// Cardinality without a full read, if the store holds the dataset.
    fn cardinality(&self, id: &str) -> Option<u64>;
}

// ---------------------------------------------------------------------------
// MemStore
// ---------------------------------------------------------------------------

/// Zero-latency in-memory store.
#[derive(Default)]
pub struct MemStore {
    name: String,
    data: Mutex<HashMap<String, Dataset>>,
}

impl MemStore {
    /// A store named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        MemStore {
            name: name.into(),
            data: Mutex::new(HashMap::new()),
        }
    }
}

impl Store for MemStore {
    fn name(&self) -> &str {
        &self.name
    }
    fn write(&self, id: &str, data: &Dataset) -> Result<()> {
        self.data.lock().insert(id.to_string(), data.clone());
        Ok(())
    }
    fn read(&self, id: &str) -> Result<Dataset> {
        self.data
            .lock()
            .get(id)
            .cloned()
            .ok_or_else(|| RheemError::DatasetNotFound(id.to_string()))
    }
    fn cardinality(&self, id: &str) -> Option<u64> {
        self.data.lock().get(id).map(|d| d.len() as u64)
    }
}

// ---------------------------------------------------------------------------
// SimHdfsStore
// ---------------------------------------------------------------------------

/// Configuration of the simulated HDFS.
#[derive(Clone, Copy, Debug)]
pub struct SimHdfsConfig {
    /// Records per block.
    pub block_records: usize,
    /// Replication factor (each block is written this many times).
    pub replication: u32,
    /// Simulated latency per block access.
    pub block_latency: Duration,
    /// Whether to actually sleep for the simulated latency.
    pub sleep: bool,
}

impl Default for SimHdfsConfig {
    fn default() -> Self {
        SimHdfsConfig {
            block_records: 10_000,
            replication: 3,
            block_latency: Duration::from_micros(500),
            sleep: false,
        }
    }
}

struct HdfsFile {
    blocks: Vec<Bytes>,
    records: u64,
}

/// A simulated block-based distributed file system.
///
/// Stands in for a real HDFS cluster: datasets are split into fixed-size
/// blocks, each serialized with the native codec, replicated, and charged a
/// per-block access latency — so scan cost grows stepwise with data size
/// and write cost additionally with the replication factor, the two
/// properties the data-movement experiments depend on.
pub struct SimHdfsStore {
    name: String,
    config: SimHdfsConfig,
    files: Mutex<HashMap<String, HdfsFile>>,
}

impl SimHdfsStore {
    /// A simulated HDFS with the given configuration.
    pub fn new(name: impl Into<String>, config: SimHdfsConfig) -> Self {
        SimHdfsStore {
            name: name.into(),
            config,
            files: Mutex::new(HashMap::new()),
        }
    }

    /// Pay the access latency of `blocks` blocks, when configured to sleep.
    fn charge(&self, blocks: u64) {
        if self.config.sleep {
            let blocks = u32::try_from(blocks).unwrap_or(u32::MAX);
            std::thread::sleep(self.config.block_latency.saturating_mul(blocks));
        }
    }
}

impl Store for SimHdfsStore {
    fn name(&self) -> &str {
        &self.name
    }
    fn write(&self, id: &str, data: &Dataset) -> Result<()> {
        let blocks: Vec<Bytes> = data
            .records()
            .chunks(self.config.block_records.max(1))
            .map(|chunk| Bytes::from(codec::encode_batch(chunk)))
            .collect();
        let n_blocks = blocks.len() as u64;
        self.files.lock().insert(
            id.to_string(),
            HdfsFile {
                blocks,
                records: data.len() as u64,
            },
        );
        // Writes pay for every replica.
        self.charge(n_blocks * u64::from(self.config.replication));
        Ok(())
    }
    fn read(&self, id: &str) -> Result<Dataset> {
        let (blocks, records_hint) = {
            let files = self.files.lock();
            let f = files
                .get(id)
                .ok_or_else(|| RheemError::DatasetNotFound(id.to_string()))?;
            (f.blocks.clone(), f.records)
        };
        let mut records = Vec::with_capacity(records_hint as usize);
        for b in &blocks {
            let text = std::str::from_utf8(b)
                .map_err(|e| RheemError::Storage(format!("corrupt block: {e}")))?;
            records.extend(codec::decode_batch(text)?);
        }
        self.charge(blocks.len() as u64);
        Ok(Dataset::new(records))
    }
    fn cardinality(&self, id: &str) -> Option<u64> {
        self.files.lock().get(id).map(|f| f.records)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;
    use rheem_core::rec;

    fn sample() -> Dataset {
        Dataset::new(vec![
            rec![1i64, "a", 10.0],
            rec![2i64, "b", 20.0],
            rec![3i64, "a", 30.0],
        ])
    }

    fn round_trip(store: &dyn Store) {
        let data = sample();
        assert!(store.read("t").is_err());
        assert_eq!(store.cardinality("t"), None);
        store.write("t", &data).unwrap();
        assert_eq!(store.read("t").unwrap(), data);
        assert_eq!(store.cardinality("t"), Some(3));
        store.write("t", &Dataset::new(vec![rec![9i64]])).unwrap();
        assert_eq!(store.cardinality("t"), Some(1), "a write replaces");
    }

    #[test]
    fn mem_store_round_trip() {
        round_trip(&MemStore::new("mem"));
    }

    #[test]
    fn sim_hdfs_round_trip_and_blocks() {
        let store = SimHdfsStore::new(
            "hdfs",
            SimHdfsConfig {
                block_records: 2,
                replication: 3,
                block_latency: Duration::from_millis(1),
                sleep: true,
            },
        );
        round_trip(&store);
        let t = Instant::now();
        store.write("t", &sample()).unwrap();
        // 3 records / 2 per block = 2 blocks, each written 3 times.
        assert_eq!(store.files.lock()["t"].blocks.len(), 2);
        assert!(t.elapsed() >= Duration::from_millis(6));
        let t = Instant::now();
        assert_eq!(store.read("t").unwrap(), sample());
        assert!(t.elapsed() >= Duration::from_millis(2));
    }
}
