//! # rheem-ml
//!
//! The machine-learning application on top of RHEEM (one of the three
//! applications the paper builds or announces in §5). Algorithms are
//! expressed against the processing abstraction only — the same training
//! plan runs unchanged on any registered platform, which is precisely the
//! setup of the paper's Figure 2 experiment (SVM on Spark vs. plain Java).
//!
//! * [`SvmTrainer`] — hinge-loss SVM (Figure 2's algorithm);
//! * [`LinRegTrainer`] — linear regression, which the §1 Oil & Gas
//!   scenario uses to verify sensor readings.
//!
//! Both run on the Initialize/Process/Loop gradient-descent template (paper
//! §3.1, Example 1) over a shared linear-model representation. The two
//! trainers are the whole surface, for applications.

#![warn(missing_docs)]

mod gd;
mod linreg;
mod model;
mod svm;

pub use linreg::LinRegTrainer;
pub use svm::SvmTrainer;
