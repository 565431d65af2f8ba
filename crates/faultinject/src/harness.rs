//! The crash-test driver: mutate → ground truth → cure → cured run →
//! classify, for a whole seeded batch.
//!
//! Each mutant follows the same four-step protocol:
//!
//! 1. **Seed** one fault into a fresh copy of the lowered (pre-cure)
//!    program, using a per-mutant PRNG derived from the batch seed.
//! 2. **Ground truth**: run the mutant *uncured* under the raw memory
//!    model, recording whether plain C semantics hit a memory error.
//! 3. **Cure** the mutant with the default curer, isolated against panics
//!    ([`ccured::isolated`]) so one poisoned program cannot abort the batch.
//! 4. **Cured run**: execute under the sandbox ([`Limits`]) with the
//!    zeroing allocator on (cured deployments zero-initialize heap memory,
//!    paper Section 3.3), and classify the result.
//!
//! Classification looks only at the cured run: a failed CCured check is
//! [`Outcome::Caught`]; a ground-truth memory error is [`Outcome::Escaped`]
//! (a soundness bug in the cure); a defined completion — including faults
//! neutralized by the GC-backed `free` or the zeroing allocator — is
//! [`Outcome::Masked`].

use ccured::{isolated, CureError, Curer};
use ccured_cil::Program;
use ccured_rt::{Engine, ExecMode, Interp, Limits, RtError};
use ccured_workloads::prng::SplitMix64;
use ccured_workloads::Workload;

use crate::mutate::{mutate, FaultClass};
use crate::report::{CrashTestReport, MutantRun, Outcome};

/// Odd constant from SplitMix64's stream derivation; spreads consecutive
/// mutant ids into unrelated seeds.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Configuration for one crash-test batch.
#[derive(Debug, Clone)]
pub struct CrashTest {
    /// How many mutants to generate across the workload set.
    pub mutants: usize,
    /// Batch seed; the same seed reproduces every mutant exactly.
    pub seed: u64,
    /// Sandbox limits for both the ground-truth and the cured run.
    pub limits: Limits,
    /// Execution engine for both runs (the differential suite holds the
    /// two engines to identical verdicts, so the default VM is safe here).
    pub engine: Engine,
    /// Rotates the round-robin fault-class preference: mutant `id` prefers
    /// class `(id + class_offset) % NCLASSES`. Campaigns that seed only a
    /// couple of mutants per unit vary this per unit so the whole matrix
    /// still covers every class.
    pub class_offset: usize,
    /// Cure mutants with temporal lock-and-key checks (`--temporal`): a
    /// premature `free` flips from Masked (GC keeps the bytes alive) to
    /// Caught (the next dereference fails its `CHECK_TEMPORAL`).
    pub temporal: bool,
}

impl CrashTest {
    /// A batch of `mutants` mutants from `seed`, with limits tight enough
    /// that a runaway mutant (e.g. a weakened loop bound spinning forever)
    /// exhausts its fuel in well under a second.
    pub fn new(mutants: usize, seed: u64) -> Self {
        CrashTest {
            mutants,
            seed,
            limits: Limits {
                fuel: 2_000_000,
                max_stack_depth: 96,
                max_heap_bytes: 32 << 20,
                deadline: None,
            },
            engine: Engine::default(),
            class_offset: 0,
            temporal: false,
        }
    }

    /// Replaces the sandbox limits (e.g. for larger workloads).
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Selects the execution engine (`tree` is the reference oracle).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Rotates the class-preference cycle (see [`CrashTest::class_offset`]).
    pub fn with_class_offset(mut self, offset: usize) -> Self {
        self.class_offset = offset;
        self
    }

    /// Enables temporal lock-and-key checking on the cure and the cured run
    /// (see [`CrashTest::temporal`]).
    pub fn with_temporal(mut self, on: bool) -> Self {
        self.temporal = on;
        self
    }
}

/// Runs a crash-test batch over `ws`, cycling mutants through the fault
/// classes and workloads round-robin.
///
/// # Errors
///
/// Frontend errors lowering a *pristine* workload only — per-mutant
/// failures (cure errors, panics, runs) are recorded in the report, never
/// propagated.
///
/// # Panics
///
/// Panics if `ws` is empty.
pub fn crash_test(ws: &[Workload], cfg: &CrashTest) -> Result<CrashTestReport, CureError> {
    assert!(!ws.is_empty(), "crash_test needs at least one workload");
    let mut bases = Vec::with_capacity(ws.len());
    for w in ws {
        bases.push((w.name.clone(), w.input.clone(), lower(w)?));
    }

    let ncls = FaultClass::ALL.len();
    let mut runs = Vec::with_capacity(cfg.mutants);
    for id in 0..cfg.mutants {
        let mut rng = SplitMix64::new(cfg.seed ^ (id as u64).wrapping_mul(GOLDEN));
        let (wname, input, base) = &bases[(id / ncls) % bases.len()];
        let pref = (id + cfg.class_offset) % ncls;

        // Prefer the round-robin class; when the program offers no site for
        // it (surgical operators can come up empty), fall through the other
        // classes in order. Synthetic classes always apply, so a program
        // with a `main` never yields an unseedable mutant.
        let mut seeded = None;
        for k in 0..ncls {
            let class = FaultClass::ALL[(pref + k) % ncls];
            let mut prog = base.clone();
            if let Some(m) = mutate(&mut prog, class, &mut rng) {
                seeded = Some((m, prog));
                break;
            }
        }
        let Some((mutation, prog)) = seeded else {
            runs.push(MutantRun {
                id,
                workload: wname.clone(),
                class: FaultClass::ALL[pref],
                description: "no candidate site in any fault class".into(),
                outcome: Outcome::Invalid,
                ground_truth: "not run".into(),
                gt_memory_error: false,
                cured: "not run".into(),
                uaf_traps: 0,
            });
            continue;
        };

        // Ground truth: plain C semantics, no zeroing allocator, no
        // temporal keys.
        let (gt, _) = run_prog(
            &prog,
            ExecMode::Original,
            cfg.engine,
            input,
            cfg.limits,
            false,
        );
        let gt_memory_error = matches!(&gt, Ok(Err(e)) if e.is_memory_error());

        // Cure (isolated: a curer panic becomes CureError::Internal), then
        // run the cured program with the zeroing allocator on.
        let temporal = cfg.temporal;
        let cured = isolated(move || Curer::new().temporal(temporal).cure_program(prog));
        let (outcome, cured_str, uaf_traps) = match &cured {
            Err(e) => (Outcome::Invalid, format!("cure failed: {e}"), 0),
            Ok(c) => {
                let (r, traps) = run_prog(
                    &c.program,
                    ExecMode::cured(c),
                    cfg.engine,
                    input,
                    cfg.limits,
                    true,
                );
                (classify(&r), fmt_run(&r), traps)
            }
        };

        runs.push(MutantRun {
            id,
            workload: wname.clone(),
            class: mutation.class,
            description: mutation.description,
            outcome,
            ground_truth: fmt_run(&gt),
            gt_memory_error,
            cured: cured_str,
            uaf_traps,
        });
    }
    Ok(CrashTestReport {
        seed: cfg.seed,
        runs,
    })
}

/// Crash-tests a single C source (the CLI entry point). Stdlib wrappers are
/// prepended, matching how `ccured run` treats input files.
///
/// # Errors
///
/// Frontend errors lowering the pristine source.
pub fn crash_test_source(
    name: &str,
    source: &str,
    input: &[u8],
    cfg: &CrashTest,
) -> Result<CrashTestReport, CureError> {
    let w = Workload::new(name, source).with_input(input.to_vec());
    crash_test(&[w], cfg)
}

/// Lowers a workload to pre-cure CIL, with the stdlib wrapper prelude when
/// the workload asks for it (mirrors the runner in `ccured-workloads`, which
/// keeps its version private).
fn lower(w: &Workload) -> Result<Program, CureError> {
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

/// One sandboxed interpreter run, returning the result and the machine's
/// ground-truth dead-memory trap count (the temporal experiments assert it
/// stays zero: a `CHECK_TEMPORAL` must fire *before* the abstract machine
/// would have trapped). The outer `Err` is a panic payload — the hardened
/// interpreter should never produce one, and the harness records it as
/// [`Outcome::Invalid`] rather than crashing the batch.
fn run_prog(
    prog: &Program,
    mode: ExecMode<'_>,
    engine: Engine,
    input: &[u8],
    limits: Limits,
    zero_init: bool,
) -> (Result<Result<i64, RtError>, String>, u64) {
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut interp = Interp::new(prog, mode);
        interp.set_engine(engine);
        interp.set_limits(limits);
        interp.set_zero_init(zero_init);
        interp.set_input(input.to_vec());
        let res = interp.run();
        (res, interp.uaf_traps())
    }));
    match r {
        Ok((res, traps)) => (Ok(res), traps),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (Err(msg), 0)
        }
    }
}

/// The verdict, from the cured run alone.
fn classify(cured: &Result<Result<i64, RtError>, String>) -> Outcome {
    match cured {
        Err(_) => Outcome::Invalid,
        Ok(Err(RtError::CheckFailed { .. })) => Outcome::Caught,
        Ok(Err(e)) if e.is_memory_error() => Outcome::Escaped,
        Ok(Err(e)) if e.is_resource_limit() => Outcome::ResourceExhausted,
        Ok(Err(RtError::Internal(_) | RtError::Unsupported(_))) => Outcome::Invalid,
        Ok(_) => Outcome::Masked,
    }
}

/// Renders a run result for the report.
fn fmt_run(r: &Result<Result<i64, RtError>, String>) -> String {
    match r {
        Ok(Ok(code)) => format!("exit {code}"),
        Ok(Err(e)) => e.to_string(),
        Err(p) => format!("panic: {p}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_workloads::micro;

    #[test]
    fn batch_has_no_escapes_and_is_deterministic() {
        let ws = [micro::seq_index(8), micro::ptr_store(4)];
        let cfg = CrashTest::new(24, 7);
        let a = crash_test(&ws, &cfg).expect("lower");
        assert_eq!(a.runs.len(), 24);
        assert!(a.escaped().is_empty(), "escapes:\n{}", a.render());
        let b = crash_test(&ws, &cfg).expect("lower");
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.class, y.class, "#{}", x.id);
            assert_eq!(x.description, y.description, "#{}", x.id);
            assert_eq!(x.outcome, y.outcome, "#{}", x.id);
            assert_eq!(x.cured, y.cured, "#{}", x.id);
        }
    }

    #[test]
    fn synthetic_classes_are_caught_or_neutralized() {
        let ws = [micro::safe_deref(4)];
        let rep = crash_test(&ws, &CrashTest::new(18, 3)).expect("lower");
        assert!(rep.escaped().is_empty(), "{}", rep.render());
        // Synthetic injectors always apply, so three rounds of the class
        // rotation must surface all three of them.
        for class in [
            FaultClass::BadDowncast,
            FaultClass::PrematureFree,
            FaultClass::PtrSmuggle,
        ] {
            assert!(
                rep.classes_present().contains(&class),
                "missing {class}:\n{}",
                rep.render()
            );
        }
    }

    #[test]
    fn temporal_flips_premature_free_from_masked_to_caught() {
        // The acceptance bar of the temporal experiment: without keys the
        // GC-backed `free` masks every premature free; with `--temporal`
        // every one of those mutants is Caught by an *emitted check* —
        // the abstract machine's own dead-memory trap never fires.
        let ws = [micro::safe_deref(4)];
        let plain = crash_test(&ws, &CrashTest::new(30, 5)).expect("lower");
        let cured = crash_test(&ws, &CrashTest::new(30, 5).with_temporal(true)).expect("lower");
        assert!(plain.escaped().is_empty(), "{}", plain.render());
        assert!(cured.escaped().is_empty(), "{}", cured.render());
        // Only mutants whose fault actually executed can flip: an injector
        // is free to plant the triple after `return`, and dead code stays
        // Masked under any check regime. `gt_memory_error` is the
        // discriminator — plain C semantics faulted, so the free ran.
        let reached = |rep: &CrashTestReport, outcome| {
            rep.runs
                .iter()
                .filter(|r| {
                    r.class == FaultClass::PrematureFree
                        && r.gt_memory_error
                        && r.outcome == outcome
                })
                .count()
        };
        let masked_before = reached(&plain, Outcome::Masked);
        assert!(masked_before > 0, "{}", plain.render());
        assert_eq!(
            reached(&cured, Outcome::Masked),
            0,
            "temporal checks must not leave a reached premature free masked:\n{}",
            cured.render()
        );
        assert_eq!(
            reached(&cured, Outcome::Caught),
            masked_before,
            "{}",
            cured.render()
        );
        for r in &cured.runs {
            assert_eq!(
                r.uaf_traps, 0,
                "mutant #{} reached the machine's dead-memory trap before \
                 any emitted check fired:\n{}",
                r.id, r.cured
            );
        }
        // The checks blame the free, not the machine: every caught
        // premature-free verdict is a temporal check failure.
        for r in &cured.runs {
            if r.class == FaultClass::PrematureFree && r.outcome == Outcome::Caught {
                assert!(r.cured.contains("temporal"), "#{}: {}", r.id, r.cured);
            }
        }
    }

    #[test]
    fn temporal_batch_is_engine_independent() {
        let ws = [micro::seq_index(8), micro::safe_deref(4)];
        let cfg = CrashTest::new(20, 13).with_temporal(true);
        let vm = crash_test(&ws, &cfg).expect("lower");
        let tree = crash_test(&ws, &cfg.clone().with_engine(Engine::Tree)).expect("lower");
        for (x, y) in vm.runs.iter().zip(&tree.runs) {
            assert_eq!(x.outcome, y.outcome, "#{}", x.id);
            assert_eq!(x.cured, y.cured, "#{}", x.id);
            assert_eq!(x.uaf_traps, y.uaf_traps, "#{}", x.id);
        }
    }

    #[test]
    fn off_by_one_mutants_are_caught_on_seq_workload() {
        // seq_index walks an array behind a SEQ pointer; a weakened bound
        // or bumped index must trip the bounds check, not escape.
        let ws = [micro::seq_index(8)];
        let rep = crash_test(&ws, &CrashTest::new(12, 11)).expect("lower");
        assert!(rep.escaped().is_empty(), "{}", rep.render());
        let caught = rep.count(FaultClass::OffByOne, Outcome::Caught);
        let masked = rep.count(FaultClass::OffByOne, Outcome::Masked);
        let limit = rep.count(FaultClass::OffByOne, Outcome::ResourceExhausted);
        assert!(
            caught + masked + limit > 0,
            "no off-by-one mutants reached a verdict:\n{}",
            rep.render()
        );
    }
}
