//! # rheem-graph
//!
//! The graph processing application on top of RHEEM (announced in §5 of
//! the paper alongside the ML application). Three workloads exercising
//! different plan shapes:
//!
//! * [`PageRank`] — iterative rank propagation (join + reduce loop);
//! * [`ConnectedComponents`] — connected components by label propagation,
//!   summarized by [`component_count`];
//! * [`triangle_count`] — triangle counting by cascaded equi-joins.
//!
//! All of it is for applications; nothing is for platforms or for tests
//! only.

#![warn(missing_docs)]

mod components;
mod pagerank;
mod triangles;

pub use components::{component_count, ConnectedComponents};
pub use pagerank::PageRank;
pub use triangles::triangle_count;
