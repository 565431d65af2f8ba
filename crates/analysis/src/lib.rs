//! # ccured-analysis
//!
//! Static analyses over the CIL IR:
//!
//! * [`cfg`](mod@cfg) — control-flow graphs for the structured statement tree, with
//!   a stable instruction numbering shared by analysis and rewriting;
//! * [`dataflow`] — a generic intraprocedural forward-dataflow framework
//!   (meet-semilattice facts, worklist fixpoint);
//! * [`elim`] — redundant-check elimination: dominated `CHECK_NULL`s,
//!   re-verified SEQ/WILD bounds on unmoved pointers, and repeated RTTI
//!   downcasts are deleted after instrumentation, plus a static failure
//!   detector for checks that provably always fail;
//! * [`keep`] — why a check survived: the typed [`KeepReason`] each kept
//!   site carries, with its text rendered in one place;
//! * [`blame`] — the WILD/SEQ blame explainer: shortest provenance path
//!   from any poisoned pointer back to the cast that caused it;
//! * [`loops`] / [`hoist`] / [`widen`] — the second-generation loop
//!   optimizer: loop-invariant null/RTTI checks are guarded to run once
//!   per loop entry, and per-iteration SEQ bounds checks on canonical
//!   counted loops are widened into one whole-trip range probe, both with
//!   exact per-iteration failure attribution preserved.

pub mod blame;
pub mod cfg;
pub mod dataflow;
pub mod elim;
pub mod hoist;
pub mod keep;
pub mod loops;
pub mod widen;

pub use blame::{blame_path, qual_names, render_blame, Blame, BlameStep};
pub use cfg::{BasicBlock, BlockId, Branch, Cfg, InstrId};
pub use dataflow::{forward, Analysis, Lattice};
pub use elim::{ElisionResult, StaticFailure};
pub use keep::{KeepReason, OperandShape};
pub use loops::{optimize_program, OptAction, OptResult};
