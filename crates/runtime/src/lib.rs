//! # ccured-rt
//!
//! The execution substrate for ccured-rs: a byte-accurate abstract machine
//! (a miniature Miri) that runs CIL programs either **original** (plain C
//! semantics, with the memory model as ground truth for memory errors) or
//! **cured** (fat-pointer representations per the inferred kinds, executing
//! the instrumentation checks of paper Figures 10–11), plus three baseline
//! instrumentation modes used in the paper's comparisons:
//!
//! * `Purify`: 2 status bits per byte, checked on every access of the
//!   original program, plus binary-translation dispatch cost,
//! * `Valgrind`: 9 shadow bits per byte with per-instruction JIT dispatch,
//! * `JonesKelly`: bounds checking through a global object-registry lookup
//!   on every pointer operation (the related-work splay-tree approach).
//!
//! Every run produces [`cost::Counters`], which the deterministic
//! [`cost::CostModel`] converts into abstract cycles; overhead ratios
//! between modes regenerate the paper's tables.
//!
//! # Examples
//!
//! ```
//! use ccured_rt::{Interp, ExecMode};
//!
//! let cured = ccured::Curer::new()
//!     .cure_source("int main(void) { int a[4]; a[0] = 7; return a[0]; }")
//!     .unwrap();
//! let mut interp = Interp::new(&cured.program, ExecMode::cured(&cured));
//! let exit = interp.run().unwrap();
//! assert_eq!(exit, 7);
//! ```

pub mod bytecode;
pub mod cost;
pub mod err;
pub mod external;
pub mod interp;
pub mod limits;
pub mod mem;
pub mod profile;
pub mod run;
pub mod value;

pub use cost::{CostModel, Counters};
pub use err::RtError;
pub use interp::{Engine, ExecMode, Interp};
#[doc(hidden)]
pub use interp::{TierMode, TierStats};
pub use limits::Limits;
pub use mem::{AllocId, AllocKind, Memory, Pointer};
pub use profile::{Profile, SiteCounters, SiteReport, PROFILE_SCHEMA};
pub use run::RunStats;
pub use value::{PtrVal, Value};
