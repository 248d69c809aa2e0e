//! The physical operator algebra (core layer).
//!
//! A physical operator is "a platform-independent implementation of a
//! logical operator ... representing an algorithmic decision for executing
//! an analytic task" (§3.1). The pool below covers relational, ML, and
//! graph workloads. Lowering ([`crate::logical::LogicalPlan::lower`]) takes
//! the hash variants ([`PhysicalOp::HashGroupBy`], [`PhysicalOp::HashJoin`])
//! and the optimizer assigns platforms, not algorithms;
//! [`PhysicalOp::SortGroupBy`] is the paper's Example 2 alternative, chosen
//! by hand in Ablation D.
//!
//! Extensibility (§5.2): applications plug new algorithms in via
//! [`CustomPhysicalOp`] without touching this enum — the data cleaning
//! crate's `IEJoin` is implemented that way, mirroring how the paper's
//! authors "extended the set of physical RHEEM operators with a new join
//! operator".

use std::fmt;
use std::sync::Arc;

use crate::data::Dataset;
use crate::error::Result;
use crate::expr::Expr;
use crate::plan::PhysicalPlan;
use crate::udf::{
    FilterUdf, FlatMapUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, PairPredicateFn, ReduceUdf,
};

/// The operation performed by one stage of a [`PhysicalOp::ChunkPipeline`].
///
/// Stages are purely declarative (expression-bearing), which is what allows
/// the whole pipeline to run as a single per-chunk evaluation loop with no
/// intermediate record materialization.
#[derive(Clone, Debug)]
pub enum StageKind {
    /// Keep rows whose predicate evaluates to `Bool(true)`.
    Filter {
        /// The predicate expression.
        expr: Arc<Expr>,
        /// Expected fraction of rows kept (inherited from the filter UDF).
        selectivity: f64,
    },
    /// Replace each row with one output field per expression.
    Map {
        /// Output-field expressions.
        exprs: Arc<[Expr]>,
    },
    /// Keep the given columns, in order (zero-copy on chunks).
    Project {
        /// Column indices to keep.
        indices: Arc<[usize]>,
    },
}

/// One fused stage of a [`PhysicalOp::ChunkPipeline`], keeping the display
/// name of the operator it was fused from.
#[derive(Clone, Debug)]
pub struct PipelineStage {
    /// Display name of the original operator (shows up in explains).
    pub name: String,
    /// The stage's operation.
    pub kind: StageKind,
}

/// An application-defined physical operator (extension point).
///
/// The default execution path is single-batch; platforms that partition data
/// call [`CustomPhysicalOp::execute`] once per co-partitioned input set when
/// [`CustomPhysicalOp::partitionable`] returns `true`, and fall back to a
/// single gathered call otherwise.
pub trait CustomPhysicalOp: Send + Sync {
    /// Display name (also used in operator mappings).
    fn name(&self) -> &str;

    /// Number of input datasets the operator consumes.
    fn arity(&self) -> usize;

    /// Execute on fully gathered inputs.
    fn execute(&self, inputs: &[Dataset]) -> Result<Dataset>;

    /// Estimated output cardinality given input cardinalities.
    fn output_cardinality(&self, input_cards: &[f64]) -> f64 {
        input_cards.iter().sum()
    }

    /// Per-record work multiplier used by platform cost models.
    fn cost_factor(&self) -> f64 {
        1.0
    }

    /// Whether the operator may be applied independently per partition.
    ///
    /// `false` (the default) forces platforms to gather inputs first, which
    /// is the safe choice for joins and other cross-partition operators.
    fn partitionable(&self) -> bool {
        false
    }
}

/// A platform-independent physical operator, carrying its UDFs and hints.
#[derive(Clone)]
pub enum PhysicalOp {
    // ---------------------------------------------------------------- sources
    /// An in-memory collection source (arity 0).
    CollectionSource {
        /// The data.
        data: Dataset,
        /// Display name.
        name: String,
    },
    /// A source reading a named dataset from the storage layer (arity 0).
    StorageSource {
        /// Dataset id resolved through the execution context's storage service.
        dataset_id: String,
    },
    /// Placeholder source inside a [`PhysicalOp::Loop`] body, bound to the
    /// loop state at each iteration (arity 0).
    LoopInput,

    // ------------------------------------------------------------- unary ops
    /// Apply a function to each data quantum.
    Map(MapUdf),
    /// Apply a 1-to-many function to each data quantum.
    FlatMap(FlatMapUdf),
    /// Keep quanta satisfying a predicate.
    Filter(FilterUdf),
    /// Keep only the given fields of each quantum.
    Project {
        /// Field indices to keep, in output order.
        indices: Vec<usize>,
    },
    /// Group by key via sorting, then apply a per-group function.
    SortGroupBy {
        /// Grouping key.
        key: KeyUdf,
        /// Per-group transformation.
        group: GroupMapUdf,
    },
    /// Group by key via hashing, then apply a per-group function.
    HashGroupBy {
        /// Grouping key.
        key: KeyUdf,
        /// Per-group transformation.
        group: GroupMapUdf,
    },
    /// Keyed incremental reduction (one output quantum per key).
    ReduceByKey {
        /// Grouping key.
        key: KeyUdf,
        /// Associative combiner.
        reduce: ReduceUdf,
    },
    /// Reduce the whole input to (at most) one quantum.
    GlobalReduce {
        /// Associative combiner.
        reduce: ReduceUdf,
    },
    /// Sort by key.
    Sort {
        /// Sort key.
        key: KeyUdf,
        /// Sort direction.
        descending: bool,
    },
    /// Keep the first `n` quanta.
    Limit {
        /// Number of quanta to keep.
        n: usize,
    },
    /// A fused chain of expression-bearing filter/map/project operators,
    /// evaluated in one pass per columnar chunk (plan-time compilation of
    /// adjacent transparent operators; see `optimizer::fuse`).
    ChunkPipeline {
        /// The fused stages, applied in order.
        stages: Arc<[PipelineStage]>,
    },

    // ------------------------------------------------------------ binary ops
    /// Equality join via hashing; output is `left ++ right`.
    HashJoin {
        /// Key of the left input.
        left_key: KeyUdf,
        /// Key of the right input.
        right_key: KeyUdf,
    },
    /// Theta join evaluating an arbitrary pair predicate.
    NestedLoopJoin {
        /// The join predicate.
        predicate: PairPredicateFn,
        /// Display name.
        name: String,
        /// Fraction of the cross product kept (cardinality hint).
        selectivity: f64,
    },
    /// Full cross product; output is `left ++ right`.
    CrossProduct,
    /// Bag union of two inputs.
    Union,

    // --------------------------------------------------------------- control
    /// Iterate a sub-plan until a condition fails (ML-style loops, §3.1 Ex.1).
    ///
    /// The body must contain exactly one [`PhysicalOp::LoopInput`] node and
    /// exactly one sink-less terminal node whose output becomes the next
    /// loop state.
    Loop {
        /// The loop body.
        body: Arc<PhysicalPlan>,
        /// Continuation test evaluated *before* each iteration.
        condition: LoopCondUdf,
        /// Hard iteration cap (safety net).
        max_iterations: u64,
        /// Expected iteration count for the cost model.
        expected_iterations: f64,
    },

    /// An application-defined operator (extensibility, §5.2).
    Custom(Arc<dyn CustomPhysicalOp>),

    // ----------------------------------------------------------------- sinks
    /// Materialize the input as a job result.
    CollectSink,
    /// Produce a single quantum holding the input cardinality.
    CountSink,
    /// Write the input to the storage layer under the given id.
    StorageSink {
        /// Dataset id for the storage service.
        dataset_id: String,
    },
}

impl PhysicalOp {
    /// Number of input datasets the operator consumes.
    pub fn arity(&self) -> usize {
        match self {
            PhysicalOp::CollectionSource { .. }
            | PhysicalOp::StorageSource { .. }
            | PhysicalOp::LoopInput => 0,
            PhysicalOp::HashJoin { .. }
            | PhysicalOp::NestedLoopJoin { .. }
            | PhysicalOp::CrossProduct
            | PhysicalOp::Union => 2,
            PhysicalOp::Custom(op) => op.arity(),
            _ => 1,
        }
    }

    /// True for arity-0 operators.
    pub fn is_source(&self) -> bool {
        self.arity() == 0
    }

    /// True for operators that terminate a plan and surface results.
    pub fn is_sink(&self) -> bool {
        matches!(
            self,
            PhysicalOp::CollectSink | PhysicalOp::CountSink | PhysicalOp::StorageSink { .. }
        )
    }

    /// A short display name, e.g. `Filter(is_adult)`.
    pub fn name(&self) -> String {
        match self {
            PhysicalOp::CollectionSource { name, data } => {
                format!("CollectionSource({name}, {} quanta)", data.len())
            }
            PhysicalOp::StorageSource { dataset_id } => format!("StorageSource({dataset_id})"),
            PhysicalOp::LoopInput => "LoopInput".into(),
            PhysicalOp::Map(u) => format!("Map({})", u.name),
            PhysicalOp::FlatMap(u) => format!("FlatMap({})", u.name),
            PhysicalOp::Filter(u) => format!("Filter({})", u.name),
            PhysicalOp::Project { indices } => format!("Project({indices:?})"),
            PhysicalOp::SortGroupBy { key, group } => {
                format!("SortGroupBy(key={}, group={})", key.name, group.name)
            }
            PhysicalOp::HashGroupBy { key, group } => {
                format!("HashGroupBy(key={}, group={})", key.name, group.name)
            }
            PhysicalOp::ReduceByKey { key, reduce } => {
                format!("ReduceByKey(key={}, reduce={})", key.name, reduce.name)
            }
            PhysicalOp::GlobalReduce { reduce } => format!("GlobalReduce({})", reduce.name),
            PhysicalOp::Sort { key, descending } => {
                format!("Sort(key={}, desc={descending})", key.name)
            }
            PhysicalOp::Limit { n } => format!("Limit({n})"),
            PhysicalOp::ChunkPipeline { stages } => {
                let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
                format!("ChunkPipeline[{}]", names.join("→"))
            }
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            } => {
                format!("HashJoin({} = {})", left_key.name, right_key.name)
            }
            PhysicalOp::NestedLoopJoin { name, .. } => format!("NestedLoopJoin({name})"),
            PhysicalOp::CrossProduct => "CrossProduct".into(),
            PhysicalOp::Union => "Union".into(),
            PhysicalOp::Loop {
                condition,
                max_iterations,
                ..
            } => format!("Loop(cond={}, max={max_iterations})", condition.name),
            PhysicalOp::Custom(op) => format!("Custom({})", op.name()),
            PhysicalOp::CollectSink => "CollectSink".into(),
            PhysicalOp::CountSink => "CountSink".into(),
            PhysicalOp::StorageSink { dataset_id } => format!("StorageSink({dataset_id})"),
        }
    }

    /// The stages this operator contributes to a chunk pipeline, or `None`
    /// when it cannot run as one (opaque UDF or non-pipeline operator).
    /// Pipeline fusion concatenates these; the columnar executor runs a
    /// lone transparent filter/map/project as a one-stage pipeline.
    pub fn pipeline_stages(&self) -> Option<Vec<PipelineStage>> {
        match self {
            PhysicalOp::Filter(u) => u.expr.as_ref().map(|expr| {
                vec![PipelineStage {
                    name: u.name.clone(),
                    kind: StageKind::Filter {
                        expr: expr.clone(),
                        selectivity: u.selectivity,
                    },
                }]
            }),
            PhysicalOp::Map(u) => u.exprs.as_ref().map(|exprs| {
                vec![PipelineStage {
                    name: u.name.clone(),
                    kind: StageKind::Map {
                        exprs: exprs.clone(),
                    },
                }]
            }),
            PhysicalOp::Project { indices } => Some(vec![PipelineStage {
                name: format!(
                    "π[{}]",
                    indices
                        .iter()
                        .map(|i| i.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                kind: StageKind::Project {
                    indices: indices.clone().into(),
                },
            }]),
            PhysicalOp::ChunkPipeline { stages } => Some(stages.to_vec()),
            _ => None,
        }
    }
}

/// How an operator's input must be laid out across partitions before the
/// kernel runs on each of them ([`crate::kernels::execute`]) — the one
/// classification a partitioned engine's exchange step, the shuffle
/// surcharge of the cost models and the interpreter's morsel accounting
/// read. Variants carry what the exchange needs from the operator.
#[derive(Clone, Copy)]
pub enum Layout<'a> {
    /// Arity 0: the operator brings its dataset (a collection, a stored
    /// dataset), which the engine then partitions.
    Source,
    /// Arity 0: the enclosing loop's current state, partitioned as it is.
    LoopState,
    /// Every partition on its own.
    Narrow,
    /// The first `n` rows: leading partitions and a window of the one that
    /// crosses `n`. No row is touched.
    Prefix(usize),
    /// Rows with equal keys meet in one partition.
    ByKey(&'a KeyUdf),
    /// Combine per partition, then [`Layout::ByKey`] over the partial
    /// results, then combine again.
    CombineByKey(&'a KeyUdf),
    /// Everything in one partition, in order.
    Gather,
    /// Combine per partition, then [`Layout::Gather`] the partial results
    /// and combine again.
    CombineGather,
    /// Two inputs partitioned by their keys into the same number of
    /// partitions, so equal keys of either side meet at one index.
    CoPartition(&'a KeyUdf, &'a KeyUdf),
    /// The left input stays partitioned; every partition sees the whole
    /// right input.
    BroadcastRight,
    /// The partitions of both inputs side by side; no kernel runs.
    Concat,
    /// Iterate `body` on the state while `condition` holds (at most
    /// `max_iterations` times); each iteration crosses a stage boundary.
    Loop {
        /// The loop body.
        body: &'a PhysicalPlan,
        /// Continuation test, evaluated on the gathered state.
        condition: &'a LoopCondUdf,
        /// Hard iteration cap.
        max_iterations: u64,
    },
    /// An application-defined operator: per partition when it says it is
    /// partitionable and unary, on gathered inputs as one task otherwise.
    Custom {
        /// Whether each partition may be handed to it independently.
        per_partition: bool,
    },
    /// The result leaves the engine: gathered, then handed over.
    Sink,
}

impl Layout<'_> {
    /// True when laying the input out repartitions it — a shuffle, a
    /// gather or a broadcast, i.e. a stage boundary on a partitioned
    /// engine.
    pub fn repartitions(&self) -> bool {
        matches!(
            self,
            Layout::ByKey(_)
                | Layout::CombineByKey(_)
                | Layout::Gather
                | Layout::CombineGather
                | Layout::CoPartition(..)
                | Layout::BroadcastRight
        )
    }
}

impl PhysicalOp {
    /// How this operator's input must be laid out across partitions.
    pub fn layout(&self) -> Layout<'_> {
        match self {
            PhysicalOp::CollectionSource { .. } | PhysicalOp::StorageSource { .. } => {
                Layout::Source
            }
            PhysicalOp::LoopInput => Layout::LoopState,
            PhysicalOp::Map(_)
            | PhysicalOp::FlatMap(_)
            | PhysicalOp::Filter(_)
            | PhysicalOp::Project { .. }
            | PhysicalOp::ChunkPipeline { .. } => Layout::Narrow,
            PhysicalOp::Limit { n } => Layout::Prefix(*n),
            PhysicalOp::SortGroupBy { key, .. } | PhysicalOp::HashGroupBy { key, .. } => {
                Layout::ByKey(key)
            }
            PhysicalOp::ReduceByKey { key, .. } => Layout::CombineByKey(key),
            PhysicalOp::Sort { .. } => Layout::Gather,
            PhysicalOp::GlobalReduce { .. } => Layout::CombineGather,
            PhysicalOp::HashJoin {
                left_key,
                right_key,
            } => Layout::CoPartition(left_key, right_key),
            PhysicalOp::NestedLoopJoin { .. } | PhysicalOp::CrossProduct => Layout::BroadcastRight,
            PhysicalOp::Union => Layout::Concat,
            PhysicalOp::Loop {
                body,
                condition,
                max_iterations,
                ..
            } => Layout::Loop {
                body,
                condition,
                max_iterations: *max_iterations,
            },
            PhysicalOp::Custom(c) => Layout::Custom {
                per_partition: c.partitionable() && c.arity() == 1,
            },
            PhysicalOp::CollectSink | PhysicalOp::CountSink | PhysicalOp::StorageSink { .. } => {
                Layout::Sink
            }
        }
    }
}

impl fmt::Debug for PhysicalOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    struct Doubler;
    impl CustomPhysicalOp for Doubler {
        fn name(&self) -> &str {
            "Doubler"
        }
        fn arity(&self) -> usize {
            1
        }
        fn execute(&self, inputs: &[Dataset]) -> Result<Dataset> {
            Ok(inputs[0]
                .iter()
                .map(|r| rec![r.int(0).unwrap() * 2])
                .collect())
        }
    }

    #[test]
    fn arity_classification() {
        assert_eq!(PhysicalOp::CrossProduct.arity(), 2);
        assert_eq!(PhysicalOp::Limit { n: 3 }.arity(), 1);
        assert_eq!(PhysicalOp::LoopInput.arity(), 0);
        assert!(PhysicalOp::LoopInput.is_source());
        assert!(PhysicalOp::CollectSink.is_sink());
    }

    #[test]
    fn custom_op_defaults_and_execution() {
        let op = PhysicalOp::Custom(Arc::new(Doubler));
        assert_eq!(op.arity(), 1);
        assert_eq!(op.name(), "Custom(Doubler)");
        if let PhysicalOp::Custom(c) = &op {
            let out = c.execute(&[Dataset::new(vec![rec![3i64]])]).unwrap();
            assert_eq!(out.records(), &[rec![6i64]]);
            assert_eq!(c.output_cardinality(&[10.0]), 10.0);
            assert!(!c.partitionable());
        } else {
            unreachable!()
        }
    }

    #[test]
    fn names_are_descriptive() {
        let op = PhysicalOp::Filter(FilterUdf::new("is_adult", |_| true));
        assert_eq!(op.name(), "Filter(is_adult)");
        let op = PhysicalOp::HashGroupBy {
            key: KeyUdf::field(0),
            group: GroupMapUdf::identity(),
        };
        assert!(op.name().contains("field#0"));
    }
}
