//! Helpers shared by the workloads: program execution, IR size, reply
//! parsing and process memory.

use ccured::{Cured, Curer};
use ccured_batch::hash::fnv1a;
use ccured_cil::ir::{Program, Stmt};
use ccured_rt::{Counters, Engine, ExecMode, Interp, TierMode, TierStats};
use ccured_workloads::Workload;
use std::time::Instant;

/// The observable result of one program execution.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// Exit code, or the run-time error rendered as text.
    pub exit: Result<i64, String>,
    /// Event counters.
    pub counters: Counters,
    /// FNV-1a digest of the program output. Runs keep only the digest, so
    /// the benchmark's own memory does not grow with the passes it runs.
    pub output: u64,
    /// Tiering counters (VM only).
    pub tiers: TierStats,
}

/// Runs `prog` once on `engine` with the given tiering and input.
pub fn execute(
    prog: &Program,
    mode: ExecMode<'_>,
    engine: Engine,
    tier: TierMode,
    input: &[u8],
) -> RunOut {
    let mut interp = Interp::new(prog, mode);
    interp.set_engine(engine);
    interp.set_tiering(tier);
    interp.set_input(input.to_vec());
    let exit = interp.run().map_err(|e| e.to_string());
    RunOut {
        exit,
        counters: interp.counters,
        output: fnv1a(interp.output()),
        tiers: interp.tier_stats(),
    }
}

/// The curer a workload declares: the default configuration, plus the
/// stdlib wrapper prelude when the workload asks for it.
pub fn curer_for(with_wrappers: bool) -> Curer {
    let mut c = Curer::new();
    if with_wrappers {
        c.with_stdlib_wrappers();
    }
    c
}

/// The exact text `Curer::cure_source` parses for `src`.
pub fn parsed_text(with_wrappers: bool, src: &str) -> String {
    if with_wrappers {
        format!("{}\n{src}", ccured::wrappers::stdlib_wrapper_source())
    } else {
        src.to_string()
    }
}

/// Bytes of [`parsed_text`] that belong to the prelude.
pub fn prelude_bytes(with_wrappers: bool) -> usize {
    if with_wrappers {
        ccured::wrappers::stdlib_wrapper_source().len() + 1
    } else {
        0
    }
}

/// Runs the uncured original of `w` on the VM (the output reference)
/// through `ccured_workloads::runner::run_original`.
pub fn run_original(w: &Workload) -> RunOut {
    let s = ccured_workloads::runner::run_original(w).expect("generated unit lowers");
    RunOut {
        exit: s.error.map_or(Ok(s.exit), |e| Err(e.to_string())),
        counters: s.counters,
        output: fnv1a(&s.output),
        tiers: TierStats::default(),
    }
}

/// Runs a cured program on the VM.
pub fn run_cured(c: &Cured, input: &[u8]) -> RunOut {
    execute(
        &c.program,
        ExecMode::cured(c),
        Engine::Vm,
        TierMode::default(),
        input,
    )
}

/// Whether a cured run reached its reference: the expected exit code, no
/// error, and the original's output.
pub fn matches_reference(w: &Workload, cured: &RunOut, orig: &RunOut) -> bool {
    cured.exit == Ok(w.expect_exit) && orig.exit == Ok(w.expect_exit) && cured.output == orig.output
}

/// Instructions in a program's function bodies.
pub fn ir_instrs(p: &Program) -> u64 {
    fn walk(stmts: &[Stmt]) -> u64 {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Instr(is) => is.len() as u64,
                Stmt::If(_, t, e) => walk(t) + walk(e),
                Stmt::Loop(b) | Stmt::Block(b) => walk(b),
                Stmt::Switch(_, arms) => arms.iter().map(|a| walk(&a.body)).sum(),
                _ => 0,
            })
            .sum()
    }
    p.functions.iter().map(|f| walk(&f.body)).sum()
}

/// Seconds the calibration loop takes on the reference host speed (an
/// idle core of the 2-core machine the workloads are sized for).
pub const CAL_REF_S: f64 = 0.030;

/// Times one run of a fixed interpreter-shaped loop: byte-code dispatch
/// through a `match` over a 64 KiB code array, with loads and stores into
/// a 64K-entry hash map. It does not touch the crates under test, so its
/// time moves only with the host's speed.
pub fn calibration_s() -> f64 {
    type Fixed = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    const MASK: usize = (1 << 16) - 1;
    let t = Instant::now();
    let code: Vec<u8> = (0..=MASK as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 29) as u8)
        .collect();
    let mut map: std::collections::HashMap<u64, u64, Fixed> = Default::default();
    let (mut acc, mut pc) = (0u64, 0usize);
    for step in 0..1_500_000u64 {
        match code[pc] {
            0 | 1 => acc = acc.wrapping_add(step),
            2 | 3 => acc ^= acc << 3,
            4 => {
                map.insert(acc & MASK as u64, step);
            }
            5 => acc = acc.wrapping_add(*map.get(&((acc ^ step) & MASK as u64)).unwrap_or(&1)),
            _ => acc = acc.rotate_left(5),
        }
        pc = (pc + 1 + (acc as usize & 3)) & MASK;
    }
    std::hint::black_box(acc);
    secs(t)
}

/// Scales wall-clock measurements to the reference host speed.
///
/// A shared host's speed changes in phases lasting seconds to minutes; the
/// same pass can take 1.5x longer in a slow phase. Every timed pass runs
/// between two runs of the calibration loop, on as many threads as the
/// pass uses, and is scaled by `CAL_REF_S` over their mean. This cancels
/// most of the phase swing between runs while leaving the program's own
/// speed in the numbers; raw seconds are printed in the report lines.
pub struct HostClock {
    /// The latest calibration and its thread count, reused as the next
    /// pass's first bracket when the thread counts match.
    last: Option<(usize, f64)>,
    seen: Vec<f64>,
}

impl HostClock {
    /// A clock whose first calibration pays the loop's first-touch page
    /// faults outside any bracket.
    pub fn new() -> Self {
        calibration_s();
        HostClock {
            last: None,
            seen: Vec::new(),
        }
    }

    /// Runs `f` between two calibrations on `threads` threads. Returns its
    /// result and the factor that scales its wall-clock to the reference
    /// host speed.
    pub fn measure<T>(&mut self, threads: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.open(threads);
        let r = f();
        (r, self.close(threads, before))
    }

    /// The calibration that opens a bracket on `threads` threads.
    pub fn open(&mut self, threads: usize) -> f64 {
        match self.last {
            Some((t, c)) if t == threads => c,
            _ => self.calibrate(threads),
        }
    }

    /// Closes the bracket `open` returned `before` for; returns the factor.
    pub fn close(&mut self, threads: usize, before: f64) -> f64 {
        let after = self.calibrate(threads);
        self.last = Some((threads, after));
        CAL_REF_S / (0.5 * (before + after))
    }

    fn calibrate(&mut self, threads: usize) -> f64 {
        let c = calibrate(threads);
        self.seen.push(c);
        c
    }

    /// Report line: the calibrations this run saw.
    pub fn line(&self) -> String {
        let min = self.seen.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.seen.iter().copied().fold(0.0, f64::max);
        format!(
            "# host: calibration loop min={:.2} p50={:.2} max={:.2} ms over {} runs (reference {:.0} ms)",
            min * 1e3,
            crate::stats::median(&self.seen) * 1e3,
            max * 1e3,
            self.seen.len(),
            CAL_REF_S * 1e3
        )
    }
}

/// The calibration loop run on `threads` threads at once, as the time
/// one loop takes at their combined throughput (the harmonic mean): work
/// shared between threads, as in a work-stealing batch, finishes at that
/// rate even when one of the threads runs slow.
fn calibrate(threads: usize) -> f64 {
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(calibration_s)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The value of `"key":` in a one-line JSON reply, unquoted.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let rest = &reply[reply.find(&pat)? + pat.len()..];
    if let Some(q) = rest.strip_prefix('"') {
        return q.split('"').next();
    }
    rest.split([',', '}']).next()
}

/// A numeric field of a one-line JSON reply.
pub fn num(reply: &str, key: &str) -> Option<u64> {
    field(reply, key)?.parse().ok()
}

/// Order-sensitive FNV-1a digest over a sequence of values.
#[derive(Debug, Clone, Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    /// Folds `v` into the digest.
    pub fn add(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// Folds every counter of a run into the digest.
    pub fn add_counters(&mut self, c: &Counters) {
        for v in [
            c.instrs,
            c.loads,
            c.stores,
            c.calls,
            c.extern_calls,
            c.io_ops,
            c.io_bytes,
            c.total_checks(),
            c.rtti_walk_steps,
            c.tag_updates,
            c.fat_converts,
            c.meta_ops,
            c.peak_heap_bytes,
        ] {
            self.add(v);
        }
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        fnv1a(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_fields() {
        let r = r#"{"status":"ok","digest":"00ab","fn_hits":3,"elapsed_ns":120}"#;
        assert_eq!(field(r, "status"), Some("ok"));
        assert_eq!(field(r, "digest"), Some("00ab"));
        assert_eq!(num(r, "fn_hits"), Some(3));
        assert_eq!(num(r, "elapsed_ns"), Some(120));
        assert_eq!(num(r, "missing"), None);
    }
}
