//! # rheem
//!
//! Facade crate of the RHEEM reproduction ("Road to Freedom in Big Data
//! Analytics", EDBT 2016): re-exports every workspace crate under one
//! roof so examples and downstream users need a single dependency.
//!
//! ```no_run
//! use rheem::prelude::*;
//! use rheem::rec;
//! use std::sync::Arc;
//!
//! let ctx = RheemContext::new()
//!     .with_platform(Arc::new(JavaPlatform::new()))
//!     .with_platform(Arc::new(SparkLikePlatform::new(8)));
//! let mut b = PlanBuilder::new();
//! let src = b.collection("nums", (0..100i64).map(|i| rec![i]).collect());
//! let sum = b.global_reduce(src, ReduceUdf::new("sum", |a, x| {
//!     rec![a.int(0).unwrap() + x.int(0).unwrap()]
//! }));
//! b.collect(sum);
//! let result = ctx.execute(b.build().unwrap()).unwrap();
//! println!("{:?}", result.outputs);
//! ```

pub use rheem_cleaning as cleaning;
pub use rheem_core as core;
pub use rheem_datagen as datagen;
pub use rheem_ml as ml;
pub use rheem_platforms as platforms;
pub use rheem_storage as storage;

pub use rheem_core::rec;

/// The names most programs need.
pub mod prelude {
    pub use rheem_core::query::QueryCatalog;
    pub use rheem_core::udf::{
        FilterUdf, FlatMapUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf,
    };
    pub use rheem_core::{
        DataType, Dataset, JobResult, MultiPlatformOptimizer, PhysicalPlan, PlanBuilder, Platform,
        Record, RheemContext, RheemError, Schema, Value,
    };
    pub use rheem_platforms::{
        JavaPlatform, MapReduceLikePlatform, OverheadConfig, RelationalPlatform, SparkLikePlatform,
    };
    pub use rheem_storage::StorageLayer;
}
