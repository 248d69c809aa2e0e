//! # rheem-cleaning
//!
//! BigDansing — "a Big Data Cleansing \[system\] on top of RHEEM" — the
//! proof-of-concept application the paper develops in §5. Data quality
//! rules are two-tuple denial constraints; detection compiles the five
//! BigDansing logical operators (`Scope`, `Block`, `Iterate`, `Detect`,
//! `GenFix`) into RHEEM plans under four physical strategies, including
//! the IEJoin extension operator highlighted by the paper.
//!
//! ## Public surface
//!
//! **For applications:** rules ([`DenialConstraint`], and the unary
//! [`not_null`] and [`range_check`]), detection ([`detect`],
//! [`count_violations`] under a [`DetectionStrategy`]) and repair
//! ([`gen_fixes`], [`repair_fd`]).
//!
//! **For platforms and engines:** [`ie_self_join_canonical`], the IEJoin
//! inequality self-join (PVLDB'15) over plain tuples, which the IEJoin
//! ablation times.
//!
//! **For tests:** [`build_detection_plan`], the plan the
//! platform-independence oracle runs on every engine.

#![warn(missing_docs)]

mod detect;
mod iejoin;
mod repair;
mod rules;
mod unary;

pub use detect::{build_detection_plan, count_violations, detect, DetectionStrategy};
pub use iejoin::ie_self_join_canonical;
pub use repair::{gen_fixes, repair_fd};
pub use rules::DenialConstraint;
pub use unary::{not_null, range_check};
