//! # rheem-platforms
//!
//! The platform layer of the RHEEM reproduction: four execution engines
//! with deliberately different cost structures, standing in for the
//! engines the paper federates (see DESIGN.md for the substitution
//! rationale):
//!
//! | Platform | Stands in for | Cost profile |
//! |---|---|---|
//! | [`JavaPlatform`] | plain Java program | single-threaded, zero overhead |
//! | [`SparkLikePlatform`] | Apache Spark | partitioned + threaded, job & stage overheads, real shuffles |
//! | [`MapReduceLikePlatform`] | Hadoop MapReduce | disk-materialized phases, huge job setup |
//! | [`RelationalPlatform`] | PostgreSQL | cheap relational ops, expensive UDFs, no loops |
//!
//! All four implement `rheem_core::Platform` and produce the same
//! bag of records for any supported plan — the platform-independence
//! contract the paper's vision rests on (verified by the cross-platform
//! equivalence tests in `tests/`).
//!
//! ## Public surface
//!
//! **For applications:** the four platforms, their [`OverheadConfig`], and
//! the ready-made contexts [`full_context`] (overheads slept) and
//! [`num_workers`].
//!
//! **For tests:** [`test_context`] — all four platforms with overheads
//! accounted but not slept — and [`JavaPlatform::with_overheads`] and
//! [`RelationalPlatform::with_overheads`], which only tests set.

#![warn(missing_docs)]

mod config;
mod java;
mod mapreduce;
mod partition;
mod relational;
mod runner;
mod sparklike;

pub use config::OverheadConfig;
pub use java::JavaPlatform;
pub use mapreduce::MapReduceLikePlatform;
pub use relational::RelationalPlatform;
pub use sparklike::SparkLikePlatform;

use std::sync::Arc;

use rheem_core::RheemContext;

/// A context with all four platforms registered under benchmark-realistic
/// defaults (overheads slept).
pub fn full_context() -> RheemContext {
    RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(num_workers())))
        .with_platform(Arc::new(MapReduceLikePlatform::new(num_workers())))
        .with_platform(Arc::new(RelationalPlatform::new()))
}

/// A context with all four platforms and *accounted-but-not-slept*
/// overheads — fast and deterministic, for tests.
pub fn test_context() -> RheemContext {
    RheemContext::new()
        .with_platform(Arc::new(JavaPlatform::new()))
        .with_platform(Arc::new(SparkLikePlatform::new(4).with_overheads(
            OverheadConfig::accounted_only(
                std::time::Duration::from_millis(25),
                std::time::Duration::from_millis(2),
            ),
        )))
        .with_platform(Arc::new(MapReduceLikePlatform::new(4).with_overheads(
            OverheadConfig::accounted_only(
                std::time::Duration::from_millis(120),
                std::time::Duration::from_millis(8),
            ),
        )))
        .with_platform(Arc::new(
            RelationalPlatform::new().with_overheads(OverheadConfig::none()),
        ))
}

/// Simulated cluster width: 8 task slots, independent of the host's core
/// count (parallelism is *simulated* via critical-path time accounting, so
/// the host hardware is irrelevant — see the crate docs).
pub const fn num_workers() -> usize {
    8
}
