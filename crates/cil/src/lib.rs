//! # ccured-cil
//!
//! A CIL-like typed intermediate representation for the ccured-rs pipeline,
//! together with:
//!
//! * a type table with a C layout engine ([`types`]),
//! * lowering from the `ccured-ast` syntax tree with full type checking
//!   ([`lower`]),
//! * the *physical type* machinery of Section 3.1 of the paper — physical
//!   equality and physical subtyping over flattened layouts ([`phys`]),
//! * a pretty printer for IR dumps ([`pretty`]),
//! * the one pre-order walk over a function body that every pass which
//!   only visits the IR goes through ([`visit`]).
//!
//! The IR mirrors CIL's simplifications: expressions are side-effect free,
//! calls appear only as instructions, `e1[e2]` is represented as pointer
//! arithmetic plus dereference, and every syntactic pointer-type occurrence
//! carries a distinct qualifier variable ([`types::QualId`]) for the
//! whole-program kind inference of `ccured-infer`.
//!
//! # Examples
//!
//! ```
//! use ccured_cil::lower::lower_translation_unit;
//!
//! let tu = ccured_ast::parse_translation_unit(
//!     "int add(int a, int b) { return a + b; }",
//! ).unwrap();
//! let prog = lower_translation_unit(&tu).unwrap();
//! assert_eq!(prog.functions.len(), 1);
//! ```

pub mod fxhash;
pub mod ir;
pub mod lower;
pub mod phys;
pub mod pretty;
pub mod types;
pub mod visit;

pub use ir::Program;
pub use lower::lower_translation_unit;
pub use types::{CompId, QualId, TypeId, TypeTable};
