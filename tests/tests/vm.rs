//! Differential testing of the bytecode VM against the tree-walking
//! reference interpreter.
//!
//! The tree engine (`--engine tree`) is the reference semantics; the VM
//! must be *observably identical* on every axis the harnesses and the cost
//! model can see: exit code or error, every byte of program output, and
//! every event counter (instruction steps, loads/stores, per-kind check
//! counts, fuel accounting). The corpus is the full golden workload suite
//! plus 240 seeded fault-injection mutants (two seeds of 120), so both the
//! happy paths and the check-failure/error paths are pinned, plus SPLIT
//! and `--temporal` cures and a call that fails on an incomplete local.

use ccured::{isolated, Curer};
use ccured_cil::ir::CheckKind;
use ccured_cil::Program;
use ccured_faultinject::{mutate, FaultClass};
use ccured_rt::{Engine, ExecMode, Interp, Limits, RtError, RunStats};
use ccured_workloads::prng::SplitMix64;
use ccured_workloads::{batch_corpus, daemons, micro, olden, spec, suite_corpus, Workload};

fn observe(
    prog: &Program,
    mode: ExecMode<'_>,
    engine: Engine,
    input: &[u8],
    limits: Limits,
    zero_init: bool,
) -> RunStats {
    let mut interp = Interp::new(prog, mode);
    interp.set_engine(engine);
    interp.set_limits(limits);
    interp.set_zero_init(zero_init);
    interp.set_input(input.to_vec());
    interp.observe()
}

/// Runs both engines and asserts byte-for-byte agreement on the result,
/// the output and every counter.
fn assert_engines_agree(
    what: &str,
    prog: &Program,
    mode: ExecMode<'_>,
    input: &[u8],
    limits: Limits,
    zero_init: bool,
) -> RunStats {
    let tree = observe(prog, mode, Engine::Tree, input, limits, zero_init);
    let vm = observe(prog, mode, Engine::Vm, input, limits, zero_init);
    if let Some(d) = tree.first_difference(&vm) {
        panic!("{what}: engines disagree on the {d}");
    }
    vm
}

fn lower(w: &Workload) -> Program {
    w.program().expect("lower")
}

fn cure(w: &Workload) -> ccured::Cured {
    w.curer().cure_source(&w.source).expect("cure")
}

/// Cures `w` with its curer after `set` adjusts it.
fn cure_with(w: &Workload, set: impl FnOnce(&mut Curer)) -> ccured::Cured {
    let mut curer = w.curer();
    set(&mut curer);
    curer.cure_source(&w.source).expect("cure")
}

fn golden_workloads() -> Vec<Workload> {
    let mut ws = suite_corpus();
    for w in batch_corpus() {
        if !ws.iter().any(|x| x.name == w.name) {
            ws.push(w);
        }
    }
    ws
}

/// The full golden corpus, cured, under both engines: identical exit codes,
/// output and counters — and the expected exit code actually reached.
#[test]
fn golden_corpus_cured_is_identical_across_engines() {
    assert_golden_cured_agrees(false);
}

/// The same under CCured's zeroing allocator (`set_zero_init`), the way the
/// fault-injection harness runs cured programs: fresh allocations are
/// marked initialized and unset locals read as zero, and the engines must
/// still agree.
#[test]
fn golden_corpus_cured_zero_init_is_identical_across_engines() {
    assert_golden_cured_agrees(true);
}

fn assert_golden_cured_agrees(zero_init: bool) {
    for w in golden_workloads() {
        let cured = cure(&w);
        let got = assert_engines_agree(
            &w.name,
            &cured.program,
            ExecMode::cured(&cured),
            &w.input,
            Limits::default(),
            zero_init,
        );
        assert_eq!(
            got.result().expect("runs clean"),
            w.expect_exit,
            "{}: unexpected exit",
            w.name
        );
        assert!(got.counters.total_checks() > 0, "{}: no checks ran", w.name);
    }
}

/// Original (uncured) semantics under both engines — the engine switch is
/// orthogonal to the instrumentation mode.
#[test]
fn golden_corpus_original_is_identical_across_engines() {
    for w in golden_workloads() {
        let prog = lower(&w);
        assert_engines_agree(
            &w.name,
            &prog,
            ExecMode::Original,
            &w.input,
            Limits::default(),
            false,
        );
    }
}

/// SPLIT cures: a load or store through a split-qualified pointer and
/// each boundary builtin pays `meta_ops`, which both engines must count
/// alike. `split_everything` splits every pointer; `split_at_boundaries`
/// only those that cross into uncured code.
#[test]
fn split_cures_are_identical_across_engines() {
    let everything = [
        olden::em3d(12, 3, 3),
        olden::treeadd(5),
        spec::ijpeg_oo(8, 2),
        micro::ptr_store(8),
    ];
    let boundaries = [
        daemons::bind_like(4, 3),
        daemons::openssh_like(4, true),
        daemons::ssh_client_uncured_ssl(4),
    ];
    let split = |w: &Workload, everything: bool| {
        cure_with(w, |c| {
            if everything {
                c.split_everything(true);
            } else {
                c.split_at_boundaries(true);
            }
        })
    };
    let cures = everything
        .iter()
        .map(|w| (w, split(w, true)))
        .chain(boundaries.iter().map(|w| (w, split(w, false))));
    for (w, cured) in cures {
        let got = assert_engines_agree(
            &format!("{} (split)", w.name),
            &cured.program,
            ExecMode::cured(&cured),
            &w.input,
            Limits::default(),
            false,
        );
        assert!(got.counters.meta_ops > 0, "{}: no metadata upkeep", w.name);
    }
}

/// `--temporal` cures: every allocation carries a capability key that
/// `free` revokes and every temporal check compares, and every counter
/// must still agree.
#[test]
fn temporal_cures_are_identical_across_engines() {
    let ws = [
        micro::safe_deref(20),
        micro::seq_index(12),
        micro::wild_loop(6),
        micro::rtti_dispatch(12),
        micro::ptr_store(8),
        olden::em3d(12, 3, 3),
        olden::treeadd(5),
    ];
    for w in &ws {
        let cured = cure_with(w, |c| {
            c.temporal(true);
        });
        let got = assert_engines_agree(
            &format!("{} (temporal)", w.name),
            &cured.program,
            ExecMode::cured(&cured),
            &w.input,
            Limits::default(),
            false,
        );
        assert!(
            got.counters.checks[CheckKind::Temporal] > 0,
            "{}: no temporal check ran",
            w.name
        );
    }
}

/// A memory local whose type is incomplete fails the call after the
/// memory locals before it were allocated (`pad`'s 16 bytes), on both
/// engines, cured and original, with the same counters.
#[test]
fn incomplete_stack_local_is_identical_across_engines() {
    let cases = [
        (
            "incomplete_struct_local",
            "struct S; int f(void) { int pad[4]; struct S s; pad[0] = 1; return pad[0]; }\n\
             int main(void) { return f(); }",
            16,
        ),
        (
            "incomplete_array_local",
            "int g(int n) { int a[]; return n; } int main(void) { return g(1); }",
            0,
        ),
    ];
    for (name, src, allocated) in cases {
        let w = Workload::new(name, src).without_wrappers();
        let prog = lower(&w);
        let cured = cure(&w);
        for (what, prog, mode) in [
            ("original", &prog, ExecMode::Original),
            ("cured", &cured.program, ExecMode::cured(&cured)),
        ] {
            let got = assert_engines_agree(
                &format!("{name} ({what})"),
                prog,
                mode,
                &[],
                Limits::default(),
                false,
            );
            assert!(
                matches!(got.result(), Err(RtError::Unsupported(m)) if m.starts_with("stack local: ")),
                "{name} ({what}): got {:?}",
                got.result()
            );
            assert_eq!(got.counters.peak_heap_bytes, allocated, "{name} ({what})");
        }
    }
}

/// The baseline instrumentation modes carry per-step shadow work (including
/// the Valgrind JIT-dispatch PRNG), which the VM batches; the counters must
/// still match exactly.
#[test]
fn baseline_modes_are_identical_across_engines() {
    let ws = [
        micro::safe_deref(60),
        micro::seq_index(24),
        micro::wild_loop(8),
    ];
    for w in &ws {
        let prog = lower(w);
        for (label, mode) in [
            ("purify", ExecMode::Purify),
            ("valgrind", ExecMode::Valgrind),
            ("joneskelly", ExecMode::JonesKelly),
        ] {
            assert_engines_agree(
                &format!("{} ({label})", w.name),
                &prog,
                mode,
                &w.input,
                Limits::default(),
                false,
            );
        }
    }
}

/// Fuel exhaustion must hit at the exact same step on both engines, for
/// fuel values that cut execution off at arbitrary points — including
/// mid-statement, mid-expression and inside check operands.
#[test]
fn fuel_exhaustion_is_step_exact_across_engines() {
    let w = micro::seq_index(16);
    let cured = cure(&w);
    for fuel in [1u64, 7, 50, 333, 1000, 4096, 20_000] {
        assert_fuel_cutoff_agrees(&w, &cured, fuel, false);
    }
}

/// Fuel exhaustion must land on the exact constituent step even when the
/// budget runs out inside a superinstruction. The VM runs fused code from
/// every function's first call, so a fine sweep over the first 160 steps
/// and a coarse one across the whole run of a SEQ-indexing loop cut off
/// inside `CheckSeqIdx` and the quads, whose constituent costs are charged
/// between their sub-steps. It runs under the zeroing allocator
/// (`set_zero_init`), which the fixed-fuel test above leaves off.
#[test]
fn fuel_exhaustion_inside_superinstructions_is_step_exact() {
    let w = micro::seq_index(16);
    let cured = cure(&w);
    let full = observe(
        &cured.program,
        ExecMode::cured(&cured),
        Engine::Vm,
        &w.input,
        Limits::default(),
        true,
    );
    let budget = full.counters.instrs;
    let mut exhausted = 0usize;
    for fuel in (1..=160).chain((1..=16).map(|k| k * budget / 16)) {
        if assert_fuel_cutoff_agrees(&w, &cured, fuel, true) {
            exhausted += 1;
        }
    }
    assert!(exhausted > 0, "the sweep never ran out of fuel");
}

/// Runs `cured` under both engines with `fuel` steps, asserts they agree,
/// and returns whether the run ran out of fuel.
fn assert_fuel_cutoff_agrees(
    w: &Workload,
    cured: &ccured::Cured,
    fuel: u64,
    zero_init: bool,
) -> bool {
    let limits = Limits {
        fuel,
        ..Limits::default()
    };
    let got = assert_engines_agree(
        &format!("{} fuel={fuel}", w.name),
        &cured.program,
        ExecMode::cured(cured),
        &w.input,
        limits,
        zero_init,
    );
    if got.result() != Err(&RtError::OutOfFuel) {
        return false;
    }
    // The failing step is counted (fuel + 1) — unless it fell inside a check
    // operand, whose instruction snapshot is restored on the way out (then
    // the count sits at or below the fuel line).
    assert!(
        got.counters.instrs <= fuel + 1,
        "fuel={fuel}: counted past the failing step ({})",
        got.counters.instrs
    );
    true
}

/// 120 seeded fault-injection mutants (same seeding discipline as the
/// crash-test harness), each cured and run under both engines: identical
/// results, outputs and counters — hence identical Caught/Escaped/Masked
/// verdicts.
#[test]
fn faultinject_mutants_are_identical_across_engines() {
    assert_mutants_agree(0xD1F);
}

/// 120 more mutants from a second seed: other mutation sites and classes
/// per base program, so more of the fused check sequences run on faulty
/// code. The safety verdict may never depend on the engine.
#[test]
fn reseeded_faultinject_mutants_are_identical_across_engines() {
    assert_mutants_agree(0x5107);
}

fn assert_mutants_agree(seed: u64) {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    const MUTANTS: usize = 120;
    let ws = [
        micro::seq_index(8),
        micro::safe_deref(6),
        micro::ptr_store(4),
        micro::rtti_dispatch(6),
    ];
    let bases: Vec<(String, Vec<u8>, Program)> = ws
        .iter()
        .map(|w| (w.name.clone(), w.input.clone(), lower(w)))
        .collect();
    let limits = Limits::strict();
    let ncls = FaultClass::ALL.len();
    let mut compared = 0usize;
    let mut caught = 0usize;
    for id in 0..MUTANTS {
        let mut rng = SplitMix64::new(seed ^ (id as u64).wrapping_mul(GOLDEN));
        let (name, input, base) = &bases[(id / ncls) % bases.len()];
        let pref = id % ncls;
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
            continue;
        };
        let Ok(cured) = isolated(|| Curer::new().cure_program(prog)) else {
            continue; // a mutant the curer rejects has nothing to execute
        };
        let what = format!("mutant #{id} ({name}, {})", mutation.class);
        let got = assert_engines_agree(
            &what,
            &cured.program,
            ExecMode::cured(&cured),
            input,
            limits,
            true,
        );
        compared += 1;
        match got.result() {
            Err(RtError::CheckFailed { .. }) => caught += 1,
            Err(e) => assert!(
                !e.is_memory_error(),
                "{what}: fault escaped as a raw memory error on BOTH engines: {e}"
            ),
            Ok(_) => {}
        }
    }
    assert!(
        compared >= 100,
        "need at least 100 executable mutants, got {compared}"
    );
    assert!(caught > 0, "no mutant was caught by a check");
}

/// Deep recursion exercises the VM's explicit frame stack (the tree engine
/// recurses on the host stack); both must agree on counters and on where
/// the stack limit trips.
#[test]
fn recursion_and_stack_limit_are_identical_across_engines() {
    let src = "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }\n\
               int main(void) { return fib(17); }";
    let w = Workload::new("fib", src).without_wrappers();
    let cured = cure(&w);
    let got = assert_engines_agree(
        "fib",
        &cured.program,
        ExecMode::cured(&cured),
        &[],
        Limits::default(),
        false,
    );
    assert_eq!(got.result().expect("fib runs"), 1597);

    let deep = "int down(int n) { if (n == 0) return 0; return down(n - 1); }\n\
                int main(void) { return down(100000); }";
    let w = Workload::new("deep", deep).without_wrappers();
    let cured = cure(&w);
    let got = assert_engines_agree(
        "deep",
        &cured.program,
        ExecMode::cured(&cured),
        &[],
        Limits::default(),
        false,
    );
    assert!(
        matches!(got.result(), Err(RtError::LimitExceeded { limit, .. }) if *limit == "stack_limit"),
        "got {:?}",
        got.result()
    );
}

/// Goto corner cases: backward/forward jumps, jumps out of nested blocks,
/// and a goto whose label is not visible from the jump site (an
/// `Unsupported` error in the reference engine).
#[test]
fn goto_semantics_are_identical_across_engines() {
    let visible = "int main(void) {\n\
                     int i = 0; int s = 0;\n\
                     again: i++;\n\
                     { if (i < 5) goto again; }\n\
                     while (1) { s += i; if (s > 20) goto out; }\n\
                     out: return s;\n\
                   }";
    let w = Workload::new("goto_ok", visible).without_wrappers();
    let prog = lower(&w);
    let got = assert_engines_agree(
        "goto_ok",
        &prog,
        ExecMode::Original,
        &[],
        Limits::default(),
        false,
    );
    assert_eq!(got.result().expect("runs"), 25);
}

/// Cured, goto-heavy flow: backward jumps, jumps out of nested blocks and
/// re-entered loop headers make many ops jump targets, which bounds what
/// fusion may do. A jump may never land mid-superinstruction; such a bug
/// shows up here as diverging counters or results.
#[test]
fn goto_heavy_cured_flow_is_identical_across_engines() {
    let src = "int main(void) {\n\
                 int a[8]; int i; int s; int k;\n\
                 for (i = 0; i < 8; i++) a[i] = i + 1;\n\
                 s = 0; k = 0; i = 0;\n\
               top: s += a[i]; i++;\n\
                 if (i < 8) goto top;\n\
                 k++; i = 0;\n\
                 if (k < 9) goto top;\n\
                 while (s > 40) { s -= 7; if (s < 60) goto fin; }\n\
               fin: return s;\n\
               }";
    let w = Workload::new("goto_hot", src).without_wrappers();
    let cured = cure(&w);
    let got = assert_engines_agree(
        "goto_hot",
        &cured.program,
        ExecMode::cured(&cured),
        &[],
        Limits::default(),
        false,
    );
    assert!(got.ok(), "goto workload must run clean");
}
