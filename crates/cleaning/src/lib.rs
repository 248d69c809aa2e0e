//! # rheem-cleaning
//!
//! BigDansing — "a Big Data Cleansing \[system\] on top of RHEEM" — the
//! proof-of-concept application the paper develops in §5. Data quality
//! rules are two-tuple denial constraints; detection compiles the five
//! BigDansing logical operators (`Scope`, `Block`, `Iterate`, `Detect`,
//! `GenFix`) into RHEEM plans under four physical strategies, including
//! the [`iejoin`] extension operator highlighted by the paper.
//!
//! * [`rules`] — denial constraints, violations, fixes;
//! * [`mod@detect`] — the detection strategies of Figure 3;
//! * [`iejoin`] — the IEJoin inequality self-join (PVLDB'15) as a
//!   [`rheem_core::CustomPhysicalOp`];
//! * [`repair`] — `GenFix` and equivalence-class repair.

#![warn(missing_docs)]

pub mod detect;
pub mod iejoin;
pub mod repair;
pub mod rules;
pub mod unary;

pub use detect::{build_detection_plan, count_violations, detect, DetectionStrategy};
pub use iejoin::{ie_self_join, IeJoinOp};
pub use repair::{gen_fixes, repair_fd};
pub use rules::{CompOp, DcPredicate, DenialConstraint, Fix, Violation};
pub use unary::{not_null, range_check, UnaryConstraint, UnaryPredicate};
