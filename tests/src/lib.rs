//! Integration test support crate (tests live in `tests/tests`): the run
//! helpers the differential suites share.

use ccured::Curer;
use ccured_rt::{ExecMode, Interp, RtError, RunStats};

/// Runs `src` uncured: the run's result and output.
///
/// # Panics
///
/// When `src` does not parse or lower.
pub fn run_original(src: &str) -> (Result<i64, RtError>, Vec<u8>) {
    let prog = Curer::new().lower_source(src).expect("lower");
    result_and_output(Interp::new(&prog, ExecMode::Original).observe())
}

/// Cures `src` with the default configuration and runs it: the run's result
/// and output.
///
/// # Panics
///
/// When `src` does not cure.
pub fn run_cured(src: &str) -> (Result<i64, RtError>, Vec<u8>) {
    let cured = Curer::new().cure_source(src).expect("cure");
    result_and_output(Interp::new(&cured.program, ExecMode::cured(&cured)).observe())
}

fn result_and_output(run: RunStats) -> (Result<i64, RtError>, Vec<u8>) {
    let result = match run.error {
        Some(e) => Err(e),
        None => Ok(run.exit),
    };
    (result, run.output)
}
