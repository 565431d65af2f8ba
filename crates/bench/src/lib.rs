//! # ccured-bench
//!
//! The experiment harness: one function per table/figure of *CCured in the
//! Real World* (see the experiment index in `DESIGN.md`). Each returns
//! structured rows; the `tables` binary renders them next to the paper's
//! numbers and writes the [`Record`] of each figure that has one.

pub mod experiments;
pub mod record;
pub mod table;

pub use experiments::*;
pub use record::Record;
