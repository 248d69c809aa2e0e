//! Adaptive mid-job re-optimization: re-enumerate the unexecuted suffix
//! of a plan when observed cardinalities drift from the estimates.
//!
//! RHEEMix-style progressive optimization: the optimizer's platform
//! choices are only as good as its cardinality estimates, so the executor
//! revisits them *while the job runs*. After each committed wave it
//! compares the observed sizes of live boundary datasets against the
//! plan's [`NodeEstimate`](crate::plan::NodeEstimate)s; when the error
//! ratio on any of them exceeds
//! [`ReplanPolicy::threshold`],
//! `RheemContext::replan` rebuilds the remaining work:
//!
//! 1. every materialized boundary dataset a pending atom consumes becomes
//!    a fixed-cardinality `CollectionSource` *pseudo-node* (named
//!    `replan:nX`), so the enumerator sees its true size;
//! 2. the pending nodes are copied into a temporary suffix plan wired to
//!    those pseudo-sources, and [`enumerate`](super::enumerate())
//!    re-runs over it with the optimizer's own models and the live
//!    [`CostCalibration`](crate::observe::CostCalibration) rates;
//! 3. the result is translated back into the original node-id space: the
//!    physical plan and the assignments/estimates of executed nodes are
//!    kept, pseudo-nodes are dropped, and their in-atom edges become
//!    ordinary cross-atom boundary inputs fed from the materialized
//!    outputs.
//!
//! The spliced plan's atoms keep their original id when their node set is
//! unchanged and get fresh (globally unique, non-dense) ids otherwise —
//! which is why the executor schedules by atom position
//! ([`ExecutionPlan::pending_dependencies`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::context::RheemContext;
use crate::cost::drift_ratio;
use crate::data::Dataset;
use crate::error::{Result, RheemError};
use crate::physical::PhysicalOp;
use crate::plan::{AtomInput, ExecutionPlan, NodeId, PhysicalNode, PhysicalPlan, TaskAtom};

use super::enumerate::{enumerate, EnumerationConfig};

/// When and how often the executor may re-optimize a running job.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplanPolicy {
    /// Smallest estimated-vs-observed cardinality error ratio (symmetric,
    /// see `drift_ratio`) on a live boundary dataset that triggers a
    /// re-plan. Must be `> 1.0`; `1.0` would re-plan on any deviation.
    pub threshold: f64,
    /// Upper bound on re-plans per job, so a badly calibrated model
    /// cannot oscillate forever.
    pub max_replans: usize,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            threshold: 2.0,
            max_replans: 2,
        }
    }
}

/// The live boundary dataset whose cardinality drifted the most beyond
/// the policy threshold, or `None` when every estimate is close enough.
///
/// `live` are the executor's materialized node outputs; only datasets
/// still awaiting consumers (`remaining[node] > 0`) are considered —
/// fully consumed data cannot influence any pending decision.
pub fn worst_drift(
    plan: &ExecutionPlan,
    live: &HashMap<NodeId, Dataset>,
    remaining: &HashMap<NodeId, usize>,
    threshold: f64,
) -> Option<(NodeId, f64)> {
    if plan.estimates.len() != plan.physical.len() {
        return None; // hand-built plan without estimates: nothing to compare
    }
    let mut worst: Option<(NodeId, f64)> = None;
    let mut nodes: Vec<&NodeId> = live.keys().collect();
    nodes.sort_unstable(); // deterministic tie-breaking
    for &node in nodes {
        if remaining.get(&node).copied().unwrap_or(0) == 0 {
            continue;
        }
        let data = &live[&node];
        let ratio = drift_ratio(plan.estimates[node.0].card, data.len() as f64);
        if ratio > threshold && worst.is_none_or(|(_, w)| ratio > w) {
            worst = Some((node, ratio));
        }
    }
    worst
}

impl RheemContext {
    /// Re-enumerate the pending suffix of `plan` with the optimizer's own
    /// models, so a re-plan prices platforms
    /// exactly as the original pass did — except with true cardinalities
    /// and the latest kernel rates.
    ///
    /// `executed` holds the *positions* (indices into `plan.atoms`) of
    /// atoms that already committed; `live` maps materialized boundary
    /// nodes to their actual outputs; `excluded` names platforms the suffix
    /// must avoid on top of the configured exclusions (failover passes the
    /// platforms that failed, a drift re-plan none); `next_atom_id` is the
    /// executor's id fountain for atoms whose node set changed.
    ///
    /// Returns a plan over the same physical DAG whose `atoms` are only
    /// the (re-partitioned) pending atoms, whose `assignments` and
    /// `estimates` are full-length (executed nodes keep their original
    /// platform so movement from them is priced correctly; materialized
    /// boundary nodes get their *observed* cardinality so the same drift
    /// cannot re-trigger), and whose `estimated_cost` is the cost of the
    /// remaining work.
    pub(crate) fn replan(
        &self,
        plan: &ExecutionPlan,
        executed: &HashSet<usize>,
        live: &HashMap<NodeId, Dataset>,
        excluded: &[String],
        next_atom_id: &mut usize,
    ) -> Result<ExecutionPlan> {
        let pending: Vec<&TaskAtom> = plan
            .atoms
            .iter()
            .enumerate()
            .filter(|(pos, _)| !executed.contains(pos))
            .map(|(_, a)| a)
            .collect();
        if pending.is_empty() {
            return Err(RheemError::Optimizer(
                "replan requested but no atoms are pending".into(),
            ));
        }
        let mut pending_nodes: Vec<NodeId> = pending.iter().flat_map(|a| a.nodes.clone()).collect();
        pending_nodes.sort_unstable();
        let pending_set: HashSet<NodeId> = pending_nodes.iter().copied().collect();

        // Materialized producers feeding the suffix, ascending by node id.
        let mut sources: Vec<NodeId> = pending
            .iter()
            .flat_map(|a| a.inputs.iter().map(|i| i.producer))
            .filter(|p| !pending_set.contains(p))
            .collect();
        sources.sort_unstable();
        sources.dedup();

        // 1+2: the temporary suffix plan — pseudo-sources first, then the
        // pending nodes with inputs remapped into the temp id space.
        let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
        let mut temp_nodes: Vec<PhysicalNode> = Vec::new();
        for &p in &sources {
            let data = live.get(&p).cloned().ok_or_else(|| {
                RheemError::Optimizer(format!(
                    "replan needs the materialized output of node {p}, but it is gone"
                ))
            })?;
            let id = NodeId(temp_nodes.len());
            temp_nodes.push(PhysicalNode {
                id,
                op: PhysicalOp::CollectionSource {
                    data,
                    name: format!("replan:{p}"),
                },
                inputs: vec![],
            });
            remap.insert(p, id);
        }
        let pseudo_count = temp_nodes.len();
        for &n in &pending_nodes {
            let orig = plan.physical.node(n);
            let inputs = orig
                .inputs
                .iter()
                .map(|i| {
                    remap.get(i).copied().ok_or_else(|| {
                        RheemError::Optimizer(format!(
                            "replan suffix node {n} consumes node {i} that is neither \
                             pending nor materialized"
                        ))
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            let id = NodeId(temp_nodes.len());
            temp_nodes.push(PhysicalNode {
                id,
                op: orig.op.clone(),
                inputs,
            });
            remap.insert(n, id);
        }
        let temp = PhysicalPlan::from_nodes(temp_nodes);
        temp.validate()?;
        let optimizer = &self.optimizer;
        let configured = &optimizer.config.enumeration;
        let config = EnumerationConfig {
            excluded_platforms: configured
                .excluded_platforms
                .iter()
                .chain(excluded)
                .cloned()
                .collect(),
            ..configured.clone()
        };
        let suffix = enumerate(
            Arc::new(temp),
            &self.platforms,
            &optimizer.estimator,
            &optimizer.movement,
            &config,
            &optimizer.calibration,
        )?;

        // 3: translate back to the original node-id space.
        let back: HashMap<NodeId, NodeId> = remap.iter().map(|(o, t)| (*t, *o)).collect();
        let mut assignments = plan.assignments.clone();
        let mut estimates = plan.estimates.clone();
        for (&orig, &tmp) in &remap {
            if tmp.0 < pseudo_count {
                // Materialized boundary node: pin the estimate to the
                // truth so the executed drift cannot re-trigger.
                if let Some(e) = estimates.get_mut(orig.0) {
                    e.card = live[&orig].len() as f64;
                }
            } else {
                assignments[orig.0] = suffix.assignments[tmp.0].clone();
                if let Some(e) = estimates.get_mut(orig.0) {
                    *e = suffix.estimates[tmp.0];
                }
            }
        }

        let mut atoms = Vec::new();
        for satom in &suffix.atoms {
            let nodes: Vec<NodeId> = satom
                .nodes
                .iter()
                .filter(|t| t.0 >= pseudo_count)
                .map(|t| back[t])
                .collect();
            if nodes.is_empty() {
                continue; // a pure pseudo-source atom: its data already exists
            }
            let in_atom: HashSet<NodeId> = satom.nodes.iter().copied().collect();
            let mut inputs: Vec<AtomInput> = satom
                .inputs
                .iter()
                .map(|i| AtomInput {
                    consumer: back[&i.consumer],
                    slot: i.slot,
                    producer: back[&i.producer],
                })
                .collect();
            // Pseudo-sources merged *into* this atom vanish in the
            // translated plan; their edges become boundary inputs fed
            // from the materialized outputs.
            for &t in &satom.nodes {
                if t.0 < pseudo_count {
                    continue;
                }
                for (slot, tin) in suffix.physical.node(t).inputs.iter().enumerate() {
                    if tin.0 < pseudo_count && in_atom.contains(tin) {
                        inputs.push(AtomInput {
                            consumer: back[&t],
                            slot,
                            producer: back[tin],
                        });
                    }
                }
            }
            inputs.sort_unstable_by_key(|i| (i.consumer, i.slot));
            let outputs: Vec<NodeId> = satom
                .outputs
                .iter()
                .filter(|t| t.0 >= pseudo_count)
                .map(|t| back[t])
                .collect();
            // Keep the old id when the atom survived unchanged (same node
            // set); otherwise draw a fresh, globally unique id.
            let id = pending
                .iter()
                .find(|a| a.nodes == nodes)
                .map(|a| a.id)
                .unwrap_or_else(|| {
                    let id = *next_atom_id;
                    *next_atom_id += 1;
                    id
                });
            atoms.push(TaskAtom {
                id,
                platform: satom.platform.clone(),
                nodes,
                inputs,
                outputs,
            });
        }

        Ok(ExecutionPlan {
            physical: plan.physical.clone(),
            assignments,
            atoms,
            estimated_cost: suffix.estimated_cost,
            estimates,
            enumeration: suffix.enumeration.clone(),
        })
    }
}
