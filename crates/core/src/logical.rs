//! The logical operator layer (application layer).
//!
//! "A logical operator is an abstract UDF that acts as an
//! application-specific unit of data processing ... a template where users
//! provide the logic of their tasks" (§3.1). Applications (the ML, cleaning,
//! and graph crates) name their operators and hand over a
//! [`LogicalPayload`] — the UDFs plus enough structure for
//! [`LogicalPlan::lower`] to wrap each one in its physical operator (the
//! "wrapper operator" of §3.2).

use std::fmt;
use std::sync::Arc;

use crate::data::{Dataset, Record};
use crate::error::{Result, RheemError};
use crate::physical::PhysicalOp;
use crate::plan::{NodeId, PhysicalPlan, PlanBuilder};
use crate::udf::{FilterUdf, GroupMapUdf, KeyUdf, LoopCondUdf, MapUdf, ReduceUdf};

/// The algorithmic-needs description a logical operator exposes.
///
/// Crucially this expresses *what* must happen to the data quanta, never
/// *where*: the multi-platform optimizer picks the platform.
#[derive(Clone)]
pub enum LogicalPayload {
    /// In-memory data source.
    Source {
        /// Display name.
        name: String,
        /// The data.
        data: Dataset,
    },
    /// Storage-layer data source.
    StorageSource {
        /// Dataset id in the storage layer.
        dataset_id: String,
    },
    /// Loop-state placeholder inside loop bodies.
    LoopInput,
    /// One-to-one transformation.
    Map(MapUdf),
    /// Selection.
    Filter(FilterUdf),
    /// Keyed grouping with a per-group transformation.
    Group {
        /// Grouping key.
        key: KeyUdf,
        /// Per-group transformation.
        group: GroupMapUdf,
    },
    /// Keyed incremental reduction.
    Reduce {
        /// Grouping key.
        key: KeyUdf,
        /// Associative combiner.
        reduce: ReduceUdf,
    },
    /// Equality join.
    Join {
        /// Left key.
        left_key: KeyUdf,
        /// Right key.
        right_key: KeyUdf,
    },
    /// Cross product.
    CrossProduct,
    /// Sorting.
    Sort {
        /// Sort key.
        key: KeyUdf,
        /// Direction.
        descending: bool,
    },
    /// Prefix of `n` quanta.
    Limit {
        /// Number of quanta to keep.
        n: usize,
    },
    /// Iteration over a logical sub-plan.
    Loop {
        /// The loop body (must contain exactly one `LoopInput` node).
        body: LogicalPlan,
        /// Continuation test.
        condition: LoopCondUdf,
        /// Iteration cap.
        max_iterations: u64,
    },
    /// Materializing sink.
    Collect,
}

impl LogicalPayload {
    /// Number of inputs this payload consumes.
    pub fn arity(&self) -> usize {
        match self {
            LogicalPayload::Source { .. }
            | LogicalPayload::StorageSource { .. }
            | LogicalPayload::LoopInput => 0,
            LogicalPayload::Join { .. } | LogicalPayload::CrossProduct => 2,
            _ => 1,
        }
    }

    /// The payload's kind (e.g. `"kind:Group"`), as [`LogicalPlan::explain`]
    /// prints it.
    pub fn kind_key(&self) -> &'static str {
        match self {
            LogicalPayload::Source { .. } | LogicalPayload::StorageSource { .. } => "kind:Source",
            LogicalPayload::LoopInput => "kind:LoopInput",
            LogicalPayload::Map(_) => "kind:Map",
            LogicalPayload::Filter(_) => "kind:Filter",
            LogicalPayload::Group { .. } => "kind:Group",
            LogicalPayload::Reduce { .. } => "kind:Reduce",
            LogicalPayload::Join { .. } => "kind:Join",
            LogicalPayload::CrossProduct => "kind:CrossProduct",
            LogicalPayload::Sort { .. } => "kind:Sort",
            LogicalPayload::Limit { .. } => "kind:Limit",
            LogicalPayload::Loop { .. } => "kind:Loop",
            LogicalPayload::Collect => "kind:Sink",
        }
    }

    /// The physical operator this payload lowers to. Grouping and equi-joins
    /// take their hash variants; `SortGroupBy` is built with [`PlanBuilder`]
    /// directly.
    fn lower(&self) -> Result<PhysicalOp> {
        let op = match self.clone() {
            LogicalPayload::Source { name, data } => PhysicalOp::CollectionSource { data, name },
            LogicalPayload::StorageSource { dataset_id } => {
                PhysicalOp::StorageSource { dataset_id }
            }
            LogicalPayload::LoopInput => PhysicalOp::LoopInput,
            LogicalPayload::Map(u) => PhysicalOp::Map(u),
            LogicalPayload::Filter(u) => PhysicalOp::Filter(u),
            LogicalPayload::Group { key, group } => PhysicalOp::HashGroupBy { key, group },
            LogicalPayload::Reduce { key, reduce } => PhysicalOp::ReduceByKey { key, reduce },
            LogicalPayload::Join {
                left_key,
                right_key,
            } => PhysicalOp::HashJoin {
                left_key,
                right_key,
            },
            LogicalPayload::CrossProduct => PhysicalOp::CrossProduct,
            LogicalPayload::Sort { key, descending } => PhysicalOp::Sort { key, descending },
            LogicalPayload::Limit { n } => PhysicalOp::Limit { n },
            LogicalPayload::Loop {
                body,
                condition,
                max_iterations,
            } => PhysicalOp::Loop {
                body: Arc::new(body.lower()?),
                condition,
                max_iterations,
                expected_iterations: max_iterations as f64,
            },
            LogicalPayload::Collect => PhysicalOp::CollectSink,
        };
        Ok(op)
    }
}

impl fmt::Debug for LogicalPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind_key())
    }
}

/// An application-specific logical operator: a name plus its payload.
///
/// This is the Rust rendition of the paper's abstract `LogicalOperator` with
/// its `applyOp` method: the payload's UDFs are built once, when the
/// operator is added to a [`LogicalPlanBuilder`], so every lowering of the
/// plan embeds the very same closures (and fingerprints the same).
#[derive(Clone)]
pub struct LogicalOperator {
    name: String,
    payload: LogicalPayload,
}

impl LogicalOperator {
    /// The operator's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operator's algorithmic needs.
    pub fn payload(&self) -> LogicalPayload {
        self.payload.clone()
    }
}

/// Identifier of a node inside a logical plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LogicalNodeId(pub usize);

/// One logical operator instance with its producers.
#[derive(Clone)]
pub struct LogicalNode {
    /// This node's id.
    pub id: LogicalNodeId,
    /// The operator.
    pub op: LogicalOperator,
    /// Producer nodes, one per input slot.
    pub inputs: Vec<LogicalNodeId>,
}

/// A DAG of logical operators.
#[derive(Clone, Default)]
pub struct LogicalPlan {
    nodes: Vec<LogicalNode>,
}

impl LogicalPlan {
    /// All nodes in topological (construction) order.
    pub fn nodes(&self) -> &[LogicalNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True iff the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    pub fn node(&self, id: LogicalNodeId) -> &LogicalNode {
        &self.nodes[id.0]
    }

    /// Structural validation (arity + edge direction).
    pub fn validate(&self) -> Result<()> {
        if self.nodes.is_empty() {
            return Err(RheemError::InvalidPlan("logical plan has no nodes".into()));
        }
        for n in &self.nodes {
            let arity = n.op.payload.arity();
            if n.inputs.len() != arity {
                return Err(RheemError::InvalidPlan(format!(
                    "logical node {} ({}) has {} inputs but arity {}",
                    n.id.0,
                    n.op.name,
                    n.inputs.len(),
                    arity
                )));
            }
            for &i in &n.inputs {
                if i.0 >= n.id.0 {
                    return Err(RheemError::InvalidPlan(format!(
                        "logical node {} consumes non-earlier node {}",
                        n.id.0, i.0
                    )));
                }
            }
        }
        Ok(())
    }

    /// Textual rendering for debugging.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        for n in &self.nodes {
            let inputs: Vec<String> = n.inputs.iter().map(|i| format!("l{}", i.0)).collect();
            s.push_str(&format!(
                "l{}: {} [{}] <- [{}]\n",
                n.id.0,
                n.op.name,
                n.op.payload.kind_key(),
                inputs.join(", ")
            ));
        }
        s
    }

    /// Translate into a physical plan, node for node (logical ids map 1:1
    /// onto physical ids).
    pub fn lower(&self) -> Result<PhysicalPlan> {
        self.validate()?;
        let mut b = PlanBuilder::new();
        let mut physical_ids: Vec<NodeId> = Vec::with_capacity(self.len());
        for node in &self.nodes {
            let inputs = node.inputs.iter().map(|i| physical_ids[i.0]).collect();
            physical_ids.push(b.add(node.op.payload.lower()?, inputs));
        }
        // `build_fragment` skips the sink requirement: loop bodies are also
        // lowered through this path.
        b.build_fragment()
    }
}

impl fmt::Debug for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LogicalPlan({} nodes)", self.nodes.len())
    }
}

/// Fluent builder for [`LogicalPlan`]s.
#[derive(Default)]
pub struct LogicalPlanBuilder {
    nodes: Vec<LogicalNode>,
}

impl LogicalPlanBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        LogicalPlanBuilder::default()
    }

    /// Append an operator named `name` with `payload`.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        payload: LogicalPayload,
        inputs: Vec<LogicalNodeId>,
    ) -> LogicalNodeId {
        let id = LogicalNodeId(self.nodes.len());
        let op = LogicalOperator {
            name: name.into(),
            payload,
        };
        self.nodes.push(LogicalNode { id, op, inputs });
        id
    }

    /// In-memory source.
    pub fn source(&mut self, name: impl Into<String>, records: Vec<Record>) -> LogicalNodeId {
        let name = name.into();
        self.add(
            name.clone(),
            LogicalPayload::Source {
                name,
                data: Dataset::new(records),
            },
            vec![],
        )
    }

    /// Materializing sink.
    pub fn collect(&mut self, input: LogicalNodeId) -> LogicalNodeId {
        self.add("collect", LogicalPayload::Collect, vec![input])
    }

    /// Finish and validate.
    pub fn build(self) -> Result<LogicalPlan> {
        let plan = LogicalPlan { nodes: self.nodes };
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rec;

    #[test]
    fn named_operators_plug_in() {
        let mut b = LogicalPlanBuilder::new();
        let src = b.source("pts", vec![rec![1.0f64]]);
        let init = b.add(
            "Initialize",
            LogicalPayload::Map(MapUdf::new("init", |r| r.clone())),
            vec![src],
        );
        b.collect(init);
        let plan = b.build().unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.node(LogicalNodeId(1)).op.name(), "Initialize");
        assert_eq!(
            plan.node(LogicalNodeId(1)).op.payload().kind_key(),
            "kind:Map"
        );
    }

    #[test]
    fn payload_arity() {
        assert_eq!(LogicalPayload::CrossProduct.arity(), 2);
        assert_eq!(LogicalPayload::Limit { n: 1 }.arity(), 1);
        assert_eq!(LogicalPayload::LoopInput.arity(), 0);
        assert_eq!(LogicalPayload::Collect.arity(), 1);
    }

    #[test]
    fn validation_catches_bad_arity() {
        let mut b = LogicalPlanBuilder::new();
        let src = b.source("s", vec![rec![1i64]]);
        // A cross product needs two inputs; give it one.
        b.add("x", LogicalPayload::CrossProduct, vec![src]);
        assert!(b.build().is_err());
    }

    #[test]
    fn explain_lists_kinds() {
        let mut b = LogicalPlanBuilder::new();
        let src = b.source("s", vec![rec![1i64]]);
        b.collect(src);
        let text = b.build().unwrap().explain();
        assert!(text.contains("kind:Source"));
        assert!(text.contains("kind:Sink"));
    }

    #[test]
    fn default_mapping_picks_hash_group_by() {
        let mut b = LogicalPlanBuilder::new();
        let src = b.source("s", vec![rec![1i64], rec![1i64], rec![2i64]]);
        let g = b.add(
            "Process",
            LogicalPayload::Group {
                key: KeyUdf::field(0),
                group: GroupMapUdf::identity(),
            },
            vec![src],
        );
        b.collect(g);
        let physical = b.build().unwrap().lower().unwrap();
        assert!(matches!(
            physical.nodes()[1].op,
            PhysicalOp::HashGroupBy { .. }
        ));
    }

    #[test]
    fn logical_loop_lowers_recursively() {
        let mut body = LogicalPlanBuilder::new();
        let li = body.add("state", LogicalPayload::LoopInput, vec![]);
        body.add(
            "step",
            LogicalPayload::Map(MapUdf::new("inc", |r| rec![r.int(0).unwrap() + 1])),
            vec![li],
        );
        let body = body.build().unwrap();

        let mut b = LogicalPlanBuilder::new();
        let src = b.source("s", vec![rec![0i64]]);
        let l = b.add(
            "train",
            LogicalPayload::Loop {
                body,
                condition: LoopCondUdf::fixed_iterations(2),
                max_iterations: 2,
            },
            vec![src],
        );
        b.collect(l);
        let physical = b.build().unwrap().lower().unwrap();
        physical.validate().unwrap();
        assert!(matches!(physical.nodes()[1].op, PhysicalOp::Loop { .. }));

        // And it runs end to end on the reference interpreter.
        let out =
            crate::interpreter::run_plan(&physical, &crate::platform::ExecutionContext::new())
                .unwrap();
        assert_eq!(out.values().next().unwrap().records(), &[rec![2i64]]);
    }
}
