//! # rheem-ml
//!
//! The machine-learning application on top of RHEEM (one of the three
//! applications the paper builds or announces in §5). Algorithms are
//! expressed against the processing abstraction only — the same training
//! plan runs unchanged on any registered platform, which is precisely the
//! setup of the paper's Figure 2 experiment (SVM on Spark vs. plain Java).
//!
//! * [`SvmTrainer`] — hinge-loss SVM (Figure 2's algorithm) and
//!   [`LinRegTrainer`] — linear regression, both on the
//!   Initialize/Process/Loop gradient-descent template (paper §3.1,
//!   Example 1) over a shared linear-model representation;
//! * [`KMeansTrainer`] — K-means built through the *logical* layer with
//!   `GetCentroid`/`SetCentroids` operators and a grouping enhancer
//!   (paper §3.2's example), lowered by `LogicalPlan::lower`.
//!
//! The three trainers are the whole surface, for applications.

#![warn(missing_docs)]

mod gd;
mod kmeans;
mod linreg;
mod model;
mod svm;

pub use kmeans::KMeansTrainer;
pub use linreg::LinRegTrainer;
pub use svm::SvmTrainer;
