//! # rheem-storage
//!
//! RHEEM's three-level **data storage abstraction** (paper §6, Figure 4),
//! each level in its simplest form: reads and writes by dataset id
//! (l-store), a placement catalog binding ids to stores (p-store), and
//! concrete storage platforms (x-store).
//!
//! * [`store`] — the storage platforms: in-memory and simulated HDFS
//!   (block-based, replicated, latency-charged);
//! * [`transform`] — Cartilage-style data transformation plans applied as
//!   raw data is uploaded;
//! * [`hot`] — a hot-data buffer keeping frequently read datasets in
//!   memory;
//! * [`service`] — [`StorageLayer`], which routes dataset ids to stores,
//!   maintains the hot buffer, and implements the processing side's
//!   `StorageService` trait;
//! * [`codec`] — the native record serialization (also the MapReduce-like
//!   platform's spill format).

#![warn(missing_docs)]

pub mod codec;
pub mod hot;
pub mod service;
pub mod store;
pub mod transform;

pub use hot::HotStats;
pub use service::StorageLayer;
pub use store::{MemStore, SimHdfsConfig, SimHdfsStore, Store};
pub use transform::{TransformStep, TransformationPlan};
