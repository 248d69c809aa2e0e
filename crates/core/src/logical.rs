//! The logical operator layer (application layer).
//!
//! "A logical operator is an abstract UDF that acts as an
//! application-specific unit of data processing ... a template where users
//! provide the logic of their tasks" (§3.1). The SQL planner names its
//! operators and hands over a [`LogicalPayload`] — the UDFs plus enough
//! structure for [`LogicalPlan::lower`] to wrap each one in its physical
//! operator (the "wrapper operator" of §3.2).

use std::fmt;

use crate::data::Dataset;
use crate::error::{Result, RheemError};
use crate::physical::PhysicalOp;
use crate::plan::{NodeId, PhysicalPlan, PlanBuilder};
use crate::udf::{FilterUdf, GroupMapUdf, KeyUdf, MapUdf};

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
    /// Equality join.
    Join {
        /// Left key.
        left_key: KeyUdf,
        /// Right key.
        right_key: KeyUdf,
    },
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
    /// Materializing sink.
    Collect,
}

impl LogicalPayload {
    /// Number of inputs this payload consumes.
    pub(crate) fn arity(&self) -> usize {
        match self {
            LogicalPayload::Source { .. } => 0,
            LogicalPayload::Join { .. } => 2,
            _ => 1,
        }
    }

    /// The payload's kind (e.g. `"kind:Group"`), as [`LogicalPlan::explain`]
    /// prints it.
    pub(crate) fn kind_key(&self) -> &'static str {
        match self {
            LogicalPayload::Source { .. } => "kind:Source",
            LogicalPayload::Map(_) => "kind:Map",
            LogicalPayload::Filter(_) => "kind:Filter",
            LogicalPayload::Group { .. } => "kind:Group",
            LogicalPayload::Join { .. } => "kind:Join",
            LogicalPayload::Sort { .. } => "kind:Sort",
            LogicalPayload::Limit { .. } => "kind:Limit",
            LogicalPayload::Collect => "kind:Sink",
        }
    }

    /// The physical operator this payload lowers to. Grouping and equi-joins
    /// take their hash variants; `SortGroupBy` is built with [`PlanBuilder`]
    /// directly.
    fn lower(&self) -> PhysicalOp {
        match self.clone() {
            LogicalPayload::Source { name, data } => PhysicalOp::CollectionSource { data, name },
            LogicalPayload::Map(u) => PhysicalOp::Map(u),
            LogicalPayload::Filter(u) => PhysicalOp::Filter(u),
            LogicalPayload::Group { key, group } => PhysicalOp::HashGroupBy { key, group },
            LogicalPayload::Join {
                left_key,
                right_key,
            } => PhysicalOp::HashJoin {
                left_key,
                right_key,
            },
            LogicalPayload::Sort { key, descending } => PhysicalOp::Sort { key, descending },
            LogicalPayload::Limit { n } => PhysicalOp::Limit { n },
            LogicalPayload::Collect => PhysicalOp::CollectSink,
        }
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
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Structural validation (arity + edge direction).
    pub(crate) fn validate(&self) -> Result<()> {
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

    /// Translate into a physical plan, node for node (logical ids map 1:1
    /// onto physical ids).
    pub fn lower(&self) -> Result<PhysicalPlan> {
        self.validate()?;
        let mut b = PlanBuilder::new();
        let mut physical_ids: Vec<NodeId> = Vec::with_capacity(self.len());
        for node in &self.nodes {
            let inputs = node.inputs.iter().map(|i| physical_ids[i.0]).collect();
            physical_ids.push(b.add(node.op.payload.lower(), inputs));
        }
        b.build()
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
    use crate::data::Record;
    use crate::rec;

    impl LogicalPlan {
        /// Access a node by id.
        pub(crate) fn node(&self, id: LogicalNodeId) -> &LogicalNode {
            &self.nodes[id.0]
        }

        /// Textual rendering for debugging.
        pub(crate) fn explain(&self) -> String {
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
    }

    impl LogicalOperator {
        /// The operator's name.
        pub(crate) fn name(&self) -> &str {
            &self.name
        }
    }

    impl LogicalPlanBuilder {
        /// In-memory source.
        fn source(&mut self, name: &str, records: Vec<Record>) -> LogicalNodeId {
            let data = Dataset::new(records);
            let name = name.to_string();
            self.add(name.clone(), LogicalPayload::Source { name, data }, vec![])
        }

        /// Materializing sink.
        fn collect(&mut self, input: LogicalNodeId) -> LogicalNodeId {
            self.add("collect", LogicalPayload::Collect, vec![input])
        }
    }

    fn join_on_first_fields() -> LogicalPayload {
        LogicalPayload::Join {
            left_key: KeyUdf::field(0),
            right_key: KeyUdf::field(0),
        }
    }

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
        assert_eq!(join_on_first_fields().arity(), 2);
        assert_eq!(LogicalPayload::Limit { n: 1 }.arity(), 1);
        let data = Dataset::new(vec![]);
        let name = "s".to_string();
        assert_eq!(LogicalPayload::Source { name, data }.arity(), 0);
        assert_eq!(LogicalPayload::Collect.arity(), 1);
    }

    #[test]
    fn validation_catches_bad_arity() {
        let mut b = LogicalPlanBuilder::new();
        let src = b.source("s", vec![rec![1i64]]);
        // A join needs two inputs; give it one.
        b.add("x", join_on_first_fields(), vec![src]);
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
    fn lowering_requires_a_sink() {
        let mut b = LogicalPlanBuilder::new();
        b.source("s", vec![rec![1i64]]);
        assert!(b.build().unwrap().lower().is_err());
    }
}
