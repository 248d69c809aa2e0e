//! # rheem-ml
//!
//! The machine-learning application on top of RHEEM (one of the three
//! applications the paper builds or announces in §5). Algorithms are
//! expressed against the processing abstraction only — the same training
//! plan runs unchanged on any registered platform, which is precisely the
//! setup of the paper's Figure 2 experiment (SVM on Spark vs. plain Java).
//!
//! * [`gd`] — the Initialize/Process/Loop gradient-descent template
//!   (paper §3.1, Example 1);
//! * [`svm`] — hinge-loss SVM (Figure 2's algorithm);
//! * [`linreg`] — linear regression on the same template;
//! * [`kmeans`] — K-means built through the *logical* layer with
//!   `GetCentroid`/`SetCentroids` operators and a grouping enhancer
//!   (paper §3.2's example), lowered by `LogicalPlan::lower`;
//! * [`model`] — the shared linear-model representation.

#![warn(missing_docs)]

pub mod gd;
pub mod kmeans;
pub mod linreg;
pub mod model;
pub mod svm;

pub use gd::{ExampleGradient, GdConfig};
pub use kmeans::{Clustering, KMeansTrainer};
pub use linreg::LinRegTrainer;
pub use model::LinearModel;
pub use svm::SvmTrainer;
