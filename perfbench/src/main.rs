//! End-to-end and per-layer benchmark for ccured-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exec|cure|recure --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run generates its workload's inputs from the seed, measures for
//! `--seconds`, checks every output, and prints report lines followed by
//! one JSON result line. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` records spans around the calls the benchmark makes into
//! the crates, writes them to `.perfbench-work/traces/`, and reports the
//! per-layer metrics. See `perfbench/README.md` for what each metric
//! means on each workload.

mod common;
mod corpus;
mod cure;
mod exec;
mod recure;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Parsed command line.
pub struct Args {
    /// `exec`, `cure` or `recure`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Worker threads for batch and serve: the machine's parallelism,
    /// capped at the two cores the workloads are sized for.
    pub jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["exec", "cure", "recure"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected exec|cure|recure)"
        ));
    }
    let jobs = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        jobs,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench-work");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(1);
    }
    let mut tr = trace::Tracer::new(args.trace, Instant::now());
    let out = match args.workload.as_str() {
        "exec" => exec::run(&args, &mut tr),
        "cure" => cure::run(&args, &dir, &mut tr),
        _ => recure::run(&args, &dir, &mut tr),
    };
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        let traces = root.join("traces");
        let path = traces.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match std::fs::create_dir_all(&traces).and_then(|()| tr.write_jsonl(&path)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write spans to {}: {e}", path.display()),
        }
    }
    report::print(&out, args.trace);
    ExitCode::SUCCESS
}
