//! # ccured-workloads
//!
//! The benchmark corpus: C programs (in the ccured-rs subset) that
//! reproduce the *pointer discipline* of every workload in the paper's
//! evaluation — the cast profile, pointer-kind mix, object-oriented
//! hierarchies, linked structures, and I/O balance that determine CCured's
//! behaviour — plus a [`runner`] that cures and executes them in every
//! instrumentation mode and reports cost-model ratios.
//!
//! | paper workload | module |
//! |---|---|
//! | Spec95 `ijpeg` (OO, ~40-type hierarchy, ~100 downcasts) | [`spec::ijpeg_oo`] |
//! | Spec95 `compress` (bit-twiddling buffers) | [`spec::compress_like`] |
//! | Olden `em3d`, `treeadd` | [`olden`] |
//! | Ptrdist `anagram`, `ks` | [`ptrdist`] |
//! | Apache modules (Figure 8) | [`apache`] |
//! | ftpd / bind / sendmail / OpenSSL / OpenSSH (Figure 9) | [`daemons`] |
//! | pointer-kind microbenchmarks | [`micro`] |
//!
//! # Examples
//!
//! ```
//! use ccured_workloads::{micro, runner};
//!
//! let w = micro::safe_deref(100);
//! let r = runner::run_cured(&w, &ccured_infer::InferOptions::default()).unwrap();
//! assert_eq!(r.stats.exit, 0);
//! ```

pub mod apache;
pub mod daemons;
pub mod micro;
pub mod olden;
pub mod prng;
pub mod ptrdist;
pub mod runner;
pub mod spec;

/// Reference numbers reported by the paper for a workload, used when
/// printing tables side by side with our measurements.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PaperStats {
    /// Lines of code the paper reports.
    pub loc: Option<u32>,
    /// The paper's `sf/sq/w/rt` static pointer percentages.
    pub pct: Option<(u32, u32, u32, u32)>,
    /// The paper's CCured slowdown ratio.
    pub ccured_ratio: Option<f64>,
    /// The paper's Valgrind slowdown ratio.
    pub valgrind_ratio: Option<f64>,
}

/// One runnable benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short identifier (table row label).
    pub name: String,
    /// Complete C source in the ccured-rs subset.
    pub source: String,
    /// Bytes fed to the input builtins (`getchar`, `net_recv`).
    pub input: Vec<u8>,
    /// Whether curing should prepend the stdlib wrappers.
    pub with_wrappers: bool,
    /// Expected exit code of a successful run.
    pub expect_exit: i64,
    /// The paper's reference numbers, if this row exists in the paper.
    pub paper: PaperStats,
}

impl Workload {
    /// Creates a workload with defaults (no input, wrappers on, exit 0).
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Workload {
            name: name.into(),
            source: source.into(),
            input: Vec::new(),
            with_wrappers: true,
            expect_exit: 0,
            paper: PaperStats::default(),
        }
    }

    /// Sets the input bytes.
    pub fn with_input(mut self, input: impl Into<Vec<u8>>) -> Self {
        self.input = input.into();
        self
    }

    /// Sets the expected exit code.
    pub fn expecting(mut self, code: i64) -> Self {
        self.expect_exit = code;
        self
    }

    /// Attaches the paper's reference numbers.
    pub fn with_paper(mut self, paper: PaperStats) -> Self {
        self.paper = paper;
        self
    }

    /// Disables the stdlib wrapper prelude.
    pub fn without_wrappers(mut self) -> Self {
        self.with_wrappers = false;
        self
    }

    /// The curer this workload declares: the default configuration, plus
    /// the stdlib wrapper prelude when [`Workload::with_wrappers`] is set.
    pub fn curer(&self) -> ccured::Curer {
        let mut c = ccured::Curer::new();
        if self.with_wrappers {
            c.with_stdlib_wrappers();
        }
        c
    }

    /// The uncured program: the source lowered after [`Workload::curer`]'s
    /// prelude.
    ///
    /// # Errors
    ///
    /// Frontend errors.
    pub fn program(&self) -> Result<ccured_cil::Program, ccured::CureError> {
        self.curer().lower_source(&self.source)
    }

    /// Non-blank source lines (the LoC we report).
    pub fn lines(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }
}

/// The standard corpus used by the `suites` table (Spec/Olden/Ptrdist).
pub fn suite_corpus() -> Vec<Workload> {
    vec![
        spec::compress_like(24, 6),
        spec::ijpeg_oo(40, 28),
        olden::em3d(48, 6, 24),
        olden::treeadd(11),
        ptrdist::anagram(40),
        ptrdist::ks(26),
    ]
}

/// The micro+Olden corpus the batch engine is benchmarked and tested over
/// (`fig-batch`, `tests/tests/batch.rs`): enough independent units, at two
/// sizes each for the Olden programs, to make parallel fan-out and cache
/// reuse measurable.
pub fn batch_corpus() -> Vec<Workload> {
    vec![
        micro::safe_deref(100),
        micro::seq_index(50),
        micro::wild_loop(25),
        micro::rtti_dispatch(50),
        micro::ptr_store(50),
        olden::em3d(48, 6, 24),
        olden::em3d(24, 4, 12),
        olden::treeadd(11),
        olden::treeadd(8),
        ptrdist::anagram(40),
        ptrdist::ks(26),
        spec::compress_like(24, 6),
        spec::ijpeg_oo(40, 28),
    ]
}

/// Writes each workload's source as `<index>_<name>.c` under `dir`
/// (creating it), returning the paths — the on-disk shape the batch engine
/// consumes. Indexing keeps file names unique when a corpus contains the
/// same workload at two sizes.
///
/// # Errors
///
/// I/O errors creating the directory or writing a unit.
pub fn write_units(
    dir: &std::path::Path,
    corpus: &[Workload],
) -> std::io::Result<Vec<std::path::PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(corpus.len());
    for (i, w) in corpus.iter().enumerate() {
        let p = dir.join(format!("{i:02}_{}.c", w.name));
        std::fs::write(&p, &w.source)?;
        paths.push(p);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builder() {
        let w = Workload::new("t", "int main(void) { return 0; }")
            .with_input(b"x".to_vec())
            .expecting(0);
        assert_eq!(w.name, "t");
        assert_eq!(w.lines(), 1);
        assert!(w.with_wrappers);
    }
}
