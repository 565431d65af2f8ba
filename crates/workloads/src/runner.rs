//! Cures and executes workloads in every instrumentation mode, producing
//! cost-model overhead ratios for the benchmark tables.

use crate::Workload;
use ccured::{CureError, Cured, Curer};
use ccured_infer::InferOptions;
use ccured_rt::{CostModel, Counters, Engine, ExecMode, Interp, RtError};

/// The observable result of one execution.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Exit code (0 when the run errored).
    pub exit: i64,
    /// The error, if the run did not complete.
    pub error: Option<RtError>,
    /// Event counters.
    pub counters: Counters,
    /// Bytes of program output.
    pub output: Vec<u8>,
}

impl RunStats {
    /// Whether the run completed without error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// A cured workload together with its run.
#[derive(Debug)]
pub struct CuredRun {
    /// The cure artifacts and report.
    pub cured: Cured,
    /// The execution result.
    pub stats: RunStats,
}

fn execute(
    prog: &ccured_cil::Program,
    mode: ExecMode<'_>,
    engine: Engine,
    input: &[u8],
) -> RunStats {
    let mut interp = Interp::new(prog, mode);
    interp.set_engine(engine);
    interp.set_input(input.to_vec());
    let r = interp.run();
    let (exit, error) = match r {
        Ok(code) => (code, None),
        Err(e) => (0, Some(e)),
    };
    RunStats {
        exit,
        error,
        counters: interp.counters,
        output: interp.output().to_vec(),
    }
}

fn lower(w: &Workload) -> Result<ccured_cil::Program, CureError> {
    let full = if w.with_wrappers {
        format!(
            "{}\n{}",
            ccured::wrappers::stdlib_wrapper_source(),
            w.source
        )
    } else {
        w.source.clone()
    };
    let tu = ccured_ast::parse_translation_unit(&full).map_err(CureError::Frontend)?;
    ccured_cil::lower_translation_unit(&tu).map_err(CureError::Frontend)
}

/// Runs the original (uncured) program. Wrapper functions are still present
/// in the source but calls are not redirected, so the raw library is used.
///
/// # Errors
///
/// Frontend errors only; run-time failures are reported in [`RunStats`].
pub fn run_original(w: &Workload) -> Result<RunStats, CureError> {
    run_original_on(w, Engine::default())
}

/// [`run_original`] on an explicit execution engine.
///
/// # Errors
///
/// Frontend errors only.
pub fn run_original_on(w: &Workload, engine: Engine) -> Result<RunStats, CureError> {
    let prog = lower(w)?;
    Ok(execute(&prog, ExecMode::Original, engine, &w.input))
}

/// Runs under a baseline instrumentation mode (Purify/Valgrind/JonesKelly).
///
/// # Errors
///
/// Frontend errors only.
pub fn run_baseline(w: &Workload, mode: ExecMode<'static>) -> Result<RunStats, CureError> {
    run_baseline_on(w, mode, Engine::default())
}

/// [`run_baseline`] on an explicit execution engine.
///
/// # Errors
///
/// Frontend errors only.
pub fn run_baseline_on(
    w: &Workload,
    mode: ExecMode<'static>,
    engine: Engine,
) -> Result<RunStats, CureError> {
    let prog = lower(w)?;
    Ok(execute(&prog, mode, engine, &w.input))
}

/// Cures the workload and runs it (redundant-check elimination on).
///
/// # Errors
///
/// Cure errors (frontend or strict-link).
pub fn run_cured(w: &Workload, opts: &InferOptions) -> Result<CuredRun, CureError> {
    run_cured_opt(w, opts, true)
}

/// Like [`run_cured`], with explicit control over the optimizer — the
/// `--no-opt` ablation used by the differential soundness harness.
///
/// # Errors
///
/// Cure errors (frontend or strict-link).
pub fn run_cured_opt(
    w: &Workload,
    opts: &InferOptions,
    optimize: bool,
) -> Result<CuredRun, CureError> {
    run_cured_loop_opt(w, opts, optimize, optimize)
}

/// Like [`run_cured_opt`], with independent control over the loop
/// optimizer (hoisting + widening). `optimize=true, loop_opt=false` is the
/// elim-only configuration the opt2 differential suite and the E15 bench
/// compare against.
///
/// # Errors
///
/// Cure errors (frontend or strict-link).
pub fn run_cured_loop_opt(
    w: &Workload,
    opts: &InferOptions,
    optimize: bool,
    loop_opt: bool,
) -> Result<CuredRun, CureError> {
    let mut curer = Curer::new();
    curer
        .rtti(opts.rtti)
        .physical_subtyping(opts.physical_subtyping)
        .split_at_boundaries(opts.split_at_boundaries)
        .split_everything(opts.split_everything)
        .optimize(optimize)
        .loop_optimize(loop_opt);
    if w.with_wrappers {
        curer.with_stdlib_wrappers();
    }
    let cured = curer.cure_source(&w.source)?;
    let stats = execute(
        &cured.program,
        ExecMode::cured(&cured),
        Engine::default(),
        &w.input,
    );
    Ok(CuredRun { cured, stats })
}

/// All overhead ratios for one workload, from the shared cost model.
#[derive(Debug, Clone)]
pub struct Ratios {
    /// Lines of code (measured).
    pub lines: usize,
    /// Static pointer-kind percentages `(sf, sq, w, rt)`.
    pub kind_pct: (u32, u32, u32, u32),
    /// CCured cycles / original cycles.
    pub ccured: f64,
    /// Purify cycles / original cycles.
    pub purify: f64,
    /// Valgrind cycles / original cycles.
    pub valgrind: f64,
    /// Baseline (original) counters, for further analysis.
    pub base_counters: Counters,
    /// Cured counters.
    pub cured_counters: Counters,
}

/// Measures every mode for `w` and returns the cost-model ratios.
///
/// # Errors
///
/// Frontend/cure errors; also if any mode's run fails unexpectedly.
pub fn measure(w: &Workload, opts: &InferOptions) -> Result<Ratios, CureError> {
    let model = CostModel::default();
    let base = run_original(w)?;
    let cured = run_cured(w, opts)?;
    let purify = run_baseline(w, ExecMode::Purify)?;
    let valgrind = run_baseline(w, ExecMode::Valgrind)?;
    for (mode, stats) in [
        ("original", &base),
        ("cured", &cured.stats),
        ("purify", &purify),
        ("valgrind", &valgrind),
    ] {
        if let Some(e) = &stats.error {
            return Err(CureError::Frontend(ccured_ast::Diag::error(
                ccured_ast::Span::DUMMY,
                format!("workload `{}` failed in {mode} mode: {e}", w.name),
            )));
        }
        if stats.exit != w.expect_exit {
            return Err(CureError::Frontend(ccured_ast::Diag::error(
                ccured_ast::Span::DUMMY,
                format!(
                    "workload `{}` exited {} (expected {}) in {mode} mode",
                    w.name, stats.exit, w.expect_exit
                ),
            )));
        }
    }
    Ok(Ratios {
        lines: w.lines(),
        kind_pct: cured.cured.report.kind_counts.percentages(),
        ccured: model.ratio(&cured.stats.counters, &base.counters),
        purify: model.ratio(&purify.counters, &base.counters),
        valgrind: model.ratio(&valgrind.counters, &base.counters),
        base_counters: base.counters,
        cured_counters: cured.stats.counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro;

    #[test]
    fn measure_microbenchmark() {
        let w = micro::safe_deref(200);
        let r = measure(&w, &InferOptions::default()).expect("measure");
        assert!(r.ccured >= 1.0, "cured is never faster: {}", r.ccured);
        assert!(r.valgrind > r.ccured, "valgrind costs more than ccured");
    }
}
