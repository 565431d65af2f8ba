//! # ccured-batch
//!
//! The parallel batch cure engine: take a directory (or manifest) of `.c`
//! translation units, fan each unit's `cure_source` pipeline out across a
//! thread pool, and layer a content-addressed on-disk cache
//! over the expensive stages so unchanged units are served from cache.
//!
//! This is the scaling layer the ROADMAP's production north star asks for:
//! whole-suite runs (the paper's ftpd/sendmail/Olden experiments, a CI
//! tree, an editor save-loop) are many independent units with mostly
//! unchanged inputs — exactly the shape that parallelism plus a
//! whole-unit result cache accelerates.
//!
//! * **Parallel**: workers claim units from one shared cursor
//!   ([`engine::run_units`]); one slow unit cannot serialize the tail.
//! * **Isolated**: every cure runs under `ccured::isolated` with a bounded
//!   worker stack, so a hostile unit yields a per-unit verdict, never a
//!   sunk batch.
//! * **Cached**: cache keys are `hash(source ⊕ curer config ⊕ crate
//!   version)` ([`cache::Cache::unit_key`]) — no paths or mtimes, so moves
//!   and rebuilds still hit, while any semantic change misses exactly the
//!   affected units.
//! * **Observable**: [`BatchReport`] carries per-unit verdicts, summed
//!   pointer-kind histograms, per-stage hit/miss/elapsed/saved counters
//!   (from the `StageTimings` hooks in the core pipeline), and wall vs.
//!   CPU time.
//!
//! # Examples
//!
//! ```no_run
//! use ccured_batch::{BatchConfig, run_path};
//! use std::path::Path;
//!
//! let mut cfg = BatchConfig::default();
//! cfg.jobs = 4;
//! let report = run_path(&cfg, Path::new("examples/c")).unwrap();
//! println!("{}", report.render());
//! assert_eq!(report.failed(), 0);
//! ```

pub mod cache;
pub mod engine;
pub mod hash;
pub mod report;
#[cfg(unix)]
pub mod serve;

pub use cache::{Cache, CachedUnit};
pub use engine::{discover_units, run_batch, run_path, run_units, worker_stack_bytes, BatchConfig};
pub use report::{BatchReport, CacheStats, StageStat, UnitOutcome, UnitReport, Verdict};
#[cfg(unix)]
pub use serve::{request, ServeConfig, Server};
