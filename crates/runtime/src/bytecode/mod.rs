//! The bytecode engine: compiles each CIL [`Function`] into a flat,
//! linear instruction stream and executes it with a non-recursive-per-op
//! dispatch loop, replacing the tree-walking hot path.
//!
//! Compilation (once per function, cached on the interpreter) resolves
//! everything the tree engine re-derives on every visit:
//!
//! * `goto label` becomes a `Jump` to a pre-resolved instruction index —
//!   no label scan, no `String` in the control-flow path;
//! * field offsets, array element sizes, aggregate sizes and static lvalue
//!   types are computed at compile time from the type tables;
//! * fuel/deadline accounting is *batched*: each op carries the number of
//!   tree-engine `step()`s it stands for, charged in one transaction.
//!
//! Execution drives the exact same [`crate::mem::Memory`],
//! [`crate::cost::Counters`] and [`crate::limits::Limits`] machinery as the
//! tree engine, so every observable — program output, exit code, check
//! verdicts, every counter, the precise step at which fuel runs out — is
//! identical. The tree engine remains the reference semantics
//! (`--engine tree`); the differential suite in `tests/tests/vm.rs` holds
//! the two to byte-for-byte agreement.
//!
//! [`Function`]: ccured_cil::ir::Function

mod compile;
mod ops;
mod vm;

pub(crate) use compile::compile;
pub(crate) use ops::{CompiledFn, RegNorm, ZeroKind};
