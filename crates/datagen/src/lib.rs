//! # rheem-datagen
//!
//! Synthetic workload generators for the RHEEM reproduction. Every
//! evaluation input the paper uses but we cannot ship is substituted here
//! (see DESIGN.md): LIBSVM classification data (Figure 2), dirty tax
//! records (Figure 3 / BigDansing), random graphs, and the relational +
//! sensor tables of the §1 Oil & Gas scenario. All generators are
//! deterministic in their seeds.
//!
//! ## Public surface
//!
//! **For applications:** graphs ([`preferential_attachment`],
//! [`disjoint_cycles`]), relational and sensor tables ([`customers`],
//! [`orders`], [`sensor_readings`], [`plausible_pressure`]), and the two
//! modules below. Nothing here is for platforms or for tests only.
//!
//! Two modules stay public because both export `generate`: [`libsvm`]
//! (with its config) and [`tax`] (with its config and the [`tax::columns`]
//! index constants, which stay a module so `columns::ID` reads as a
//! column).

#![warn(missing_docs)]

mod graph;
pub mod libsvm;
mod relational;
pub mod tax;

pub use graph::{disjoint_cycles, preferential_attachment};
pub use relational::{customers, orders, plausible_pressure, sensor_readings};
