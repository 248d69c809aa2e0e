//! # rheem-graph
//!
//! The graph processing application on top of RHEEM (announced in §5 of
//! the paper alongside the ML application). Three workloads exercising
//! different plan shapes:
//!
//! * [`pagerank`] — iterative rank propagation (join + reduce loop);
//! * [`components`] — connected components by label propagation;
//! * [`triangles`] — triangle counting by cascaded equi-joins.

#![warn(missing_docs)]

pub mod components;
pub mod pagerank;
pub mod triangles;

pub use components::{component_count, ConnectedComponents};
pub use pagerank::PageRank;
