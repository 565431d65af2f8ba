//! # ccured
//!
//! The CCured pipeline: a memory-safety transformation system for C
//! programs, reproducing *CCured in the Real World* (PLDI 2003).
//!
//! Given C source in the supported subset, [`Curer`] runs:
//!
//! 1. parse and lower to the CIL-like IR (`ccured-ast`, `ccured-cil`),
//! 2. whole-program pointer-kind inference with physical subtyping, RTTI
//!    and SPLIT representation inference (`ccured-infer`),
//! 3. wrapper application for external library functions (Section 4.1),
//! 4. construction of the global physical-subtype hierarchy used by RTTI
//!    checks (Section 3.2),
//! 5. instrumentation with run-time checks (Figures 10–11),
//! 6. redundant-check elimination (`ccured-analysis`): dataflow facts
//!    delete checks an earlier check already proved,
//! 7. a link audit that flags incompatible external calls (Section 4).
//!
//! The result is a [`Cured`] program that `ccured-rt` can execute with full
//! memory-safety guarantees.
//!
//! # Examples
//!
//! ```
//! use ccured::Curer;
//!
//! let cured = Curer::new()
//!     .cure_source("int sum(int *a, int n) { int s = 0; for (int i = 0; i < n; i++) s += a[i]; return s; }")
//!     .unwrap();
//! assert!(cured.report.checks_inserted.total() > 0);
//! ```

pub mod hierarchy;
pub mod instrument;
pub mod json;
pub mod pipeline;
pub mod split;
pub mod wrappers;

pub use hierarchy::Hierarchy;
pub use pipeline::{isolated, CureError, CureReport, Cured, Curer, StageTimings};
// Re-exported so downstream users of the report types need not name the
// analysis crate directly.
pub use ccured_analysis::{KeepReason, OperandShape, OptAction, StaticFailure};
