//! # rheem-storage
//!
//! RHEEM's three-level **data storage abstraction** (paper §6, Figure 4),
//! each level in its simplest form: reads and writes by dataset id
//! (l-store), a placement catalog binding ids to stores (p-store), and
//! concrete storage platforms (x-store).
//!
//! * the stores — [`Store`] with [`MemStore`] and the simulated HDFS
//!   [`SimHdfsStore`] (block-based, replicated, latency-charged);
//! * [`TransformationPlan`]s of [`TransformStep`]s — Cartilage-style data
//!   transformation plans applied as raw data is uploaded;
//! * a hot-data buffer keeping frequently read datasets in memory;
//! * [`StorageLayer`], which routes dataset ids to stores, maintains the
//!   hot buffer, and implements the processing side's `StorageService`
//!   trait;
//! * the native record codec ([`encode_batch`], [`decode_batch`]).
//!
//! ## Public surface
//!
//! **For applications:** [`StorageLayer`], the stores above with
//! [`SimHdfsConfig`], and the transformation plans.
//!
//! **For platforms and engines:** the codec, which is also the
//! MapReduce-like platform's spill format.
//!
//! **For tests:** [`StorageLayer::placement`], the p-store lookup the
//! storage suite checks placements with.

#![warn(missing_docs)]

mod codec;
mod hot;
mod service;
mod store;
mod transform;

pub use codec::{decode_batch, encode_batch};
pub use service::StorageLayer;
pub use store::{MemStore, SimHdfsConfig, SimHdfsStore, Store};
pub use transform::{TransformStep, TransformationPlan};
