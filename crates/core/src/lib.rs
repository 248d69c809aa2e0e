//! # rheem-core
//!
//! A Rust implementation of the RHEEM vision from *"Road to Freedom in Big
//! Data Analytics"* (EDBT 2016): a three-layer data processing abstraction
//! that frees applications from being tied to a single data processing
//! platform.
//!
//! The three layers (paper Figure 1):
//!
//! 1. **Application layer** — [`logical`] operators: application-specific
//!    UDF templates over *data quanta* ([`data::Record`]).
//! 2. **Core layer** — [`physical`] operators and [`plan::PhysicalPlan`]s;
//!    the [`optimizer`] lowers logical plans
//!    ([`logical::LogicalPlan::lower`]), rewrites them, assigns a platform
//!    to every operator using pluggable [`cost`] models (including
//!    inter-platform movement costs), and splits the result into task atoms.
//! 3. **Platform layer** — [`platform::Platform`] implementations (see the
//!    `rheem-platforms` crate) run task atoms with their own execution
//!    operators; the [`executor`] schedules atoms, monitors progress,
//!    retries failures, and aggregates results.
//!
//! Start with [`context::RheemContext`] and [`plan::PlanBuilder`].

#![warn(missing_docs)]

pub mod context;
pub mod cost;
pub mod data;
pub mod error;
pub mod executor;
pub mod expr;
pub mod fault;
pub mod interpreter;
pub mod kernels;
pub mod logical;
pub mod observe;
pub mod optimizer;
pub mod physical;
pub mod plan;
pub mod platform;
pub mod query;
pub mod udf;

pub use context::RheemContext;
pub use cost::{ChannelConversionGraph, ChannelKind, ChannelRoute, ChannelSpec, MovementCostModel};
pub use data::{
    Bitmap, Chunk, Column, ColumnBuilder, ColumnData, DataType, Dataset, Field, Record, Schema,
    Value,
};
pub use error::{CancelReason, ErrorKind, Result, RheemError};
pub use executor::{
    AtomFailure, AtomStats, ExecutionStats, FailoverEvent, JobResult, ReplanEvent, WaveGate,
};
pub use expr::{BinOp, Expr};
pub use fault::{
    BackoffPolicy, BreakerPolicy, CancelToken, FaultPolicy, PlatformHealth, Sleeper, ThreadSleeper,
    VirtualSleeper,
};
pub use kernels::parallel::KernelParallelism;
pub use logical::{LogicalOperator, LogicalPayload, LogicalPlan, LogicalPlanBuilder};
pub use observe::{CostCalibration, MetricsRegistry, NodeObservation, Observability};
pub use optimizer::{
    assignment_cost, enumerate_exhaustive, EnumerationConfig, MultiPlatformOptimizer, PlanCache,
    PlanCacheConfig, PlanCacheStats, ReplanPolicy, Replanner,
};
pub use physical::{CustomPhysicalOp, Layout, PhysicalOp};
pub use plan::{
    ChannelConversion, EnumerationInfo, EnumerationPath, ExecutionPlan, NodeEstimate, NodeId,
    PhysicalPlan, PlanBuilder, PlanFingerprint, TaskAtom,
};
pub use platform::{
    AtomInputs, AtomResult, ExecutionContext, FailureInjector, InjectedKind, Platform,
    PlatformRegistry, ProcessingProfile, StorageService,
};
