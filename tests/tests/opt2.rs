//! Differential soundness suite for the second-generation loop optimizer
//! (`ccured-analysis`: invariant-check hoisting + SEQ bounds widening).
//!
//! Three configurations of the same workload are compared:
//!
//! * **no-opt**    — no static optimization at all (`--no-opt`);
//! * **elim-only** — redundant-check elimination, loop passes off
//!   (`--no-loop-opt`, the PR-5 baseline);
//! * **full**      — elimination + hoisting + widening (the default).
//!
//! All three must agree on every observable axis: program output, exit
//! code, error verdict, and the memory/call traffic counters. The loop
//! passes may only change *check* counters, and only downward: total
//! executed checks under `full` is never more than under `elim-only`, and
//! strictly less on the strided microbenchmarks. When a widened whole-trip
//! probe fails, the per-iteration residual must re-run and blame the exact
//! same site, at the exact same iteration, with the exact same error as the
//! unoptimized program.

use ccured_cil::ir::CheckKind;
use ccured_infer::InferOptions;
use ccured_rt::{Engine, ExecMode, Interp, RunStats};
use ccured_workloads::{batch_corpus, daemons, micro, runner, suite_corpus, Workload};

/// The three optimizer configurations, as `(optimize, loop_opt)` pairs.
const CONFIGS: [(&str, bool, bool); 3] = [
    ("no-opt", false, false),
    ("elim-only", true, false),
    ("full", true, true),
];

fn corpus() -> Vec<Workload> {
    let mut ws = suite_corpus();
    for w in batch_corpus() {
        if !ws.iter().any(|x| x.name == w.name) {
            ws.push(w);
        }
    }
    ws.push(daemons::ftpd(2, false));
    ws.push(daemons::sendmail_like(3, false));
    ws
}

/// A while-loop that re-dereferences a loop-invariant SAFE pointer: the
/// eliminator keeps one null check per iteration (nothing dominates the
/// loop header), which is exactly what hoisting converts into a single
/// entry probe.
fn hoist_workload(iters: u32) -> Workload {
    let src = format!(
        "int drain(int *p, int n) {{\n\
           int s = 0;\n\
           int i = 0;\n\
           while (i < n) {{ s = s + *p; i = i + 1; }}\n\
           return s;\n\
         }}\n\
         int main(void) {{\n\
           int c = 7;\n\
           return drain(&c, {iters}) == 7 * {iters} ? 0 : 1;\n\
         }}"
    );
    Workload::new("hoist_invariant", src).without_wrappers()
}

/// A strided SEQ loop that runs off the end of its buffer at iteration 64:
/// the widened whole-trip probe fails at loop entry, so the per-iteration
/// residual must take over and fire at the precise overflowing index.
fn oob_stride_workload() -> Workload {
    let src = "int sum(int *a, int n) {\n\
               int s = 0;\n\
               for (int i = 0; i < n; i++) s = s + a[i];\n\
               return s;\n\
             }\n\
             int main(void) {\n\
               int buf[64];\n\
               for (int i = 0; i < 64; i++) buf[i] = 1;\n\
               return sum(buf, 80);\n\
             }"
    .to_string();
    Workload::new("oob_stride", src).without_wrappers()
}

/// Runs `w` under all three configurations, asserts observable
/// equivalence, and returns total executed checks per configuration in
/// [`CONFIGS`] order.
fn tri_differential(w: &Workload) -> [u64; 3] {
    let opts = InferOptions::default();
    let runs: Vec<_> = CONFIGS
        .iter()
        .map(|(name, optimize, loop_opt)| {
            let r = runner::run_cured_loop_opt(w, &opts, *optimize, *loop_opt)
                .unwrap_or_else(|e| panic!("{}: cure ({name}) failed: {e}", w.name));
            (*name, r)
        })
        .collect();
    let (_, base) = &runs[0];
    for (name, r) in &runs[1..] {
        let what = format!("{} ({name} vs no-opt)", w.name);
        assert_eq!(r.stats.error, base.stats.error, "{what}: verdicts differ");
        assert_eq!(r.stats.exit, base.stats.exit, "{what}: exit codes differ");
        assert_eq!(r.stats.output, base.stats.output, "{what}: outputs differ");
        let (c, b) = (&r.stats.counters, &base.stats.counters);
        assert_eq!(c.loads, b.loads, "{what}: load traffic changed");
        assert_eq!(c.stores, b.stores, "{what}: store traffic changed");
        assert_eq!(c.calls, b.calls, "{what}: call counts changed");
        assert_eq!(
            c.extern_calls, b.extern_calls,
            "{what}: extern calls changed"
        );
        assert_eq!(c.io_ops, b.io_ops, "{what}: I/O changed");
    }
    let totals: Vec<u64> = runs
        .iter()
        .map(|(_, r)| r.stats.counters.total_checks())
        .collect();
    assert!(
        totals[2] <= totals[1],
        "{}: loop passes added checks ({} > {})",
        w.name,
        totals[2],
        totals[1]
    );
    assert!(
        totals[1] <= totals[0],
        "{}: eliminator added checks ({} > {})",
        w.name,
        totals[1],
        totals[0]
    );
    [totals[0], totals[1], totals[2]]
}

#[test]
fn golden_corpus_agrees_across_all_three_configurations() {
    for w in corpus() {
        tri_differential(&w);
    }
}

#[test]
fn strided_micros_execute_strictly_fewer_checks() {
    for w in [micro::seq_index(20), micro::ptr_store(20)] {
        let [_, elim_only, full] = tri_differential(&w);
        assert!(
            full < elim_only,
            "{}: widening must win on strided loops ({full} vs {elim_only})",
            w.name
        );
        let opt = runner::run_cured_loop_opt(&w, &InferOptions::default(), true, true).unwrap();
        assert!(
            opt.cured.report.checks_widened > 0,
            "{}: report must attribute the win to widening",
            w.name
        );
    }
}

#[test]
fn invariant_pointer_checks_hoist_to_one_per_loop_entry() {
    let w = hoist_workload(40);
    let [_, elim_only, full] = tri_differential(&w);
    assert!(
        full < elim_only,
        "hoisting must win ({full} vs {elim_only})"
    );
    let opts = InferOptions::default();
    let opt = runner::run_cured_loop_opt(&w, &opts, true, true).unwrap();
    let noloop = runner::run_cured_loop_opt(&w, &opts, true, false).unwrap();
    assert!(
        opt.cured.report.checks_hoisted > 0,
        "report counts the hoist"
    );
    assert_eq!(noloop.cured.report.checks_hoisted, 0);
    assert_eq!(noloop.cured.report.checks_widened, 0);
    assert!(
        opt.stats.counters.checks[CheckKind::Null] < noloop.stats.counters.checks[CheckKind::Null],
        "per-iteration null checks collapse to the entry probe: {} vs {}",
        opt.stats.counters.checks[CheckKind::Null],
        noloop.stats.counters.checks[CheckKind::Null]
    );
}

/// Down-counting loop: guard `i >= 0`, step `i = i - 1`. The generalized
/// widener canonicalizes the direction and probes the entry index plus the
/// guard's extreme admissible index (here `0`).
fn down_count_workload() -> Workload {
    Workload::new(
        "widen_down",
        "int sum_down(int *a, int n) {\n\
           int s = 0;\n\
           for (int i = n - 1; i >= 0; i = i - 1) s = s + a[i];\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int buf[16];\n\
           for (int i = 15; i >= 0; i = i - 1) buf[i] = 2;\n\
           return sum_down(buf, 16) == 32 ? 0 : 1;\n\
         }",
    )
    .without_wrappers()
}

/// Non-unit stride: step `i = i + 2`. A stride-2 orbit visits a subset of
/// the stride-1 indices, so the same two-endpoint probe covers it.
fn stride2_workload() -> Workload {
    Workload::new(
        "widen_stride2",
        "int sum_even(int *a, int n) {\n\
           int s = 0;\n\
           for (int i = 0; i < n; i = i + 2) s = s + a[i];\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int buf[16];\n\
           for (int i = 15; i >= 0; i = i - 1) buf[i] = 3;\n\
           return sum_even(buf, 16) == 24 ? 0 : 1;\n\
         }",
    )
    .without_wrappers()
}

/// Down-counting and non-unit-stride loops are widening positives now that
/// the induction form is canonicalized: the report must attribute the win,
/// the per-iteration SEQ checks must collapse, and every observable must
/// stay identical to the `--no-loop-opt` baseline.
#[test]
fn generalized_widening_covers_down_count_and_strided_loops() {
    let opts = InferOptions::default();
    for w in [down_count_workload(), stride2_workload()] {
        let [_, elim_only, full_checks] = tri_differential(&w);
        assert!(
            full_checks < elim_only,
            "{}: widening must win ({full_checks} vs {elim_only})",
            w.name
        );
        let full = runner::run_cured_loop_opt(&w, &opts, true, true).unwrap();
        let noloop = runner::run_cured_loop_opt(&w, &opts, true, false).unwrap();
        assert!(
            full.cured.report.checks_widened > 0,
            "{}: the generalized widener must fire",
            w.name
        );
        assert_eq!(full.stats.exit, 0, "{}: self-check failed", w.name);
        assert_eq!(full.stats.exit, noloop.stats.exit, "{}", w.name);
        assert_eq!(full.stats.error, noloop.stats.error, "{}", w.name);
        assert_eq!(full.stats.output, noloop.stats.output, "{}", w.name);
        assert!(
            full.stats.counters.checks[CheckKind::SeqBounds]
                < noloop.stats.counters.checks[CheckKind::SeqBounds],
            "{}: per-iteration SEQ checks must collapse ({} vs {})",
            w.name,
            full.stats.counters.checks[CheckKind::SeqBounds],
            noloop.stats.counters.checks[CheckKind::SeqBounds]
        );
    }
}

/// Loop shapes the widener must still refuse. The aliased-index case must
/// agree across all three configurations, report zero widened checks, keep
/// its per-iteration SEQ bounds checks byte-for-byte identical to the
/// `--no-loop-opt` baseline, and pass its own self-check.
#[test]
fn widening_negatives_are_left_untouched() {
    // Aliased index: `i`'s address escapes and the step writes through the
    // alias, so nothing about `i`'s trajectory is knowable statically.
    let alias = Workload::new(
        "widen_neg_alias",
        "int sum_alias(int *a, int n) {\n\
           int s = 0;\n\
           int i = 0;\n\
           int *pi = &i;\n\
           while (i < n) { s = s + a[i]; *pi = *pi + 1; }\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int buf[12];\n\
           for (int i = 11; i >= 0; i = i - 1) buf[i] = 5;\n\
           return sum_alias(buf, 12) == 60 ? 0 : 1;\n\
         }",
    )
    .without_wrappers();

    let opts = InferOptions::default();
    {
        let w = alias;
        tri_differential(&w);
        let full = runner::run_cured_loop_opt(&w, &opts, true, true).unwrap();
        let noloop = runner::run_cured_loop_opt(&w, &opts, true, false).unwrap();
        assert_eq!(
            full.cured.report.checks_widened, 0,
            "{}: the widener must refuse this loop",
            w.name
        );
        assert_eq!(full.stats.exit, 0, "{}: self-check failed", w.name);
        assert_eq!(full.stats.exit, noloop.stats.exit, "{}", w.name);
        assert_eq!(full.stats.error, noloop.stats.error, "{}", w.name);
        assert_eq!(full.stats.output, noloop.stats.output, "{}", w.name);
        assert_eq!(
            full.stats.counters.checks[CheckKind::SeqBounds],
            noloop.stats.counters.checks[CheckKind::SeqBounds],
            "{}: per-iteration SEQ checks must be untouched",
            w.name
        );
    }
}

/// Widened sites the loop optimizer recorded inside one function.
fn widened_in(cured: &ccured::Cured, func: &str) -> usize {
    cured
        .sites
        .iter()
        .filter(|s| s.func == func && s.opt_action == Some("widened"))
        .count()
}

/// No-wrap proofs at the numeric extremes: an unsigned induction variable
/// whose widened endpoint would wrap past `uN::MAX` (or under `0`) must be
/// refused, while the boundary-exact form stays admitted — so the
/// negatives below are refusals of the *proof*, not a matcher that never
/// fires on unsigned loops.
#[test]
fn unsigned_extreme_bounds_stay_widening_negative() {
    // (a) `i <= n` with a variable unsigned bound: the bound's maximal
    // possible value is u32::MAX, so the endpoint-plus-stride computation
    // `E(B) + 1` exceeds the step type's range — refused.
    let le_var = Workload::new(
        "widen_neg_umax",
        "int sum_le(int *a, unsigned n) {\n\
           int s = 0;\n\
           for (unsigned i = 0; i <= n; i = i + 1) s = s + a[i];\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int buf[8];\n\
           for (int i = 0; i < 8; i++) buf[i] = 1;\n\
           return sum_le(buf, 7) == 8 ? 0 : 1;\n\
         }",
    )
    .without_wrappers();
    // (b) unsigned down-count through zero: `i >= 0` never exits and the
    // step from 0 wraps to u32::MAX, so `E(B) - 1` underflows — refused.
    // The runtime wrap then faults on `a[u32::MAX]` identically in every
    // configuration (the per-iteration residual is exactly the unoptimized
    // check).
    let ge_zero = Workload::new(
        "widen_neg_uwrap",
        "int drain(int *a) {\n\
           int s = 0;\n\
           for (unsigned i = 3; i >= 0; i = i - 1) s = s + a[i];\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int buf[4];\n\
           for (int i = 0; i < 4; i++) buf[i] = 1;\n\
           return drain(buf);\n\
         }",
    )
    .without_wrappers();
    let opts = InferOptions::default();
    for (w, func) in [(le_var, "sum_le"), (ge_zero, "drain")] {
        tri_differential(&w);
        let full = runner::run_cured_loop_opt(&w, &opts, true, true).unwrap();
        assert_eq!(
            widened_in(&full.cured, func),
            0,
            "{}: the no-wrap proof must refuse this loop",
            w.name
        );
    }
    // Boundary positive: `i > 0` down to exactly zero satisfies
    // `E(B) - stride >= 0` with no slack at all.
    let gt_zero = Workload::new(
        "widen_pos_uzero",
        "int pos(int *a) {\n\
           int s = 0;\n\
           for (unsigned i = 7; i > 0; i = i - 1) s = s + a[i];\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int buf[8];\n\
           for (int i = 0; i < 8; i++) buf[i] = 1;\n\
           return pos(buf) == 7 ? 0 : 1;\n\
         }",
    )
    .without_wrappers();
    tri_differential(&gt_zero);
    let full = runner::run_cured_loop_opt(&gt_zero, &InferOptions::default(), true, true).unwrap();
    assert!(
        widened_in(&full.cured, "pos") > 0,
        "the boundary-exact unsigned down-count must still widen"
    );
    assert_eq!(full.stats.exit, 0, "self-check failed");
}

/// Cures with explicit optimizer configuration (the runner helper hides
/// the `Cured` needed for profiled execution).
fn cure_cfg(w: &Workload, optimize: bool, loop_opt: bool) -> ccured::Cured {
    w.curer()
        .optimize(optimize)
        .loop_optimize(loop_opt)
        .cure_source(&w.source)
        .expect("cure")
}

fn run_profiled(cured: &ccured::Cured, engine: Engine, input: &[u8]) -> RunStats {
    let mut interp = Interp::new(&cured.program, ExecMode::cured(cured));
    interp.set_engine(engine);
    interp.set_input(input.to_vec());
    interp.enable_profile(cured.sites.len());
    let run = interp.observe();
    assert!(run.profile.is_some(), "profile recorded");
    run
}

/// The failing sites of a profiled run, as `(site_id, fails)` pairs.
fn failing_sites(cured: &ccured::Cured, run: &RunStats) -> Vec<(u32, u64, CheckKind)> {
    let profile = run.profile.as_ref().expect("profile recorded");
    cured
        .sites
        .iter()
        .filter_map(|s| {
            let i = s.id.index()?;
            let c = profile.sites.get(i)?;
            (c.fails > 0).then_some((s.id.0, c.fails, s.kind))
        })
        .collect()
}

/// When the whole-trip probe fails, the residual per-iteration check must
/// re-run and blame the exact site — same error, same failing site id,
/// exactly one recorded failure — as the unoptimized program.
#[test]
fn failed_widened_probe_blames_the_precise_iteration() {
    let w = oob_stride_workload();
    let full = cure_cfg(&w, true, true);
    let noopt = cure_cfg(&w, false, false);
    assert!(full.report.checks_widened > 0, "the OOB loop must widen");

    let rf = run_profiled(&full, Engine::default(), &w.input);
    let rn = run_profiled(&noopt, Engine::default(), &w.input);
    let ef = rf
        .result()
        .expect_err("the cured run must stop the overrun");
    let en = rn
        .result()
        .expect_err("the unoptimized run must stop the overrun");
    assert!(ef.is_check_failure(), "stopped by a check: {ef}");
    assert_eq!(ef, en, "widening changed the failure verdict");
    assert_eq!(
        rf.output, rn.output,
        "widening changed the output before the fault"
    );

    let ff = failing_sites(&full, &rf);
    let fn_ = failing_sites(&noopt, &rn);
    assert_eq!(ff.len(), 1, "exactly one site fails: {ff:?}");
    assert_eq!(ff, fn_, "the blamed site must be identical to no-opt");
    let (_, fails, kind) = ff[0];
    assert_eq!(fails, 1, "the residual fires once, at the precise index");
    assert_eq!(kind, CheckKind::SeqBounds);
}

/// Both execution engines must agree exactly on optimized programs — the
/// VM routes guard machinery through the structural executor, so counters,
/// output, and verdicts are identical by construction.
#[test]
fn engines_agree_on_optimized_programs() {
    for w in [
        micro::seq_index(20),
        micro::ptr_store(10),
        hoist_workload(25),
        oob_stride_workload(),
    ] {
        let cured = cure_cfg(&w, true, true);
        let t = run_profiled(&cured, Engine::Tree, &w.input);
        let v = run_profiled(&cured, Engine::Vm, &w.input);
        let what = &w.name;
        assert_eq!(t.first_difference(&v), None, "{what}: engines differ");
        assert_eq!(t.profile, v.profile, "{what}: profiles differ");
    }
}

/// Cures with the temporal pipeline flag on top of the full optimizer.
fn cure_temporal(w: &Workload, optimize: bool, loop_opt: bool) -> ccured::Cured {
    w.curer()
        .optimize(optimize)
        .loop_optimize(loop_opt)
        .temporal(true)
        .cure_source(&w.source)
        .expect("cure")
}

/// A key check on a loop-invariant pointer is only a loop invariant when
/// nothing in the loop can `free` — so temporal checks hoist out of
/// call-free loops and stay per-iteration the moment the body calls.
#[test]
fn temporal_checks_hoist_only_out_of_call_free_loops() {
    // Call-free invariant loop: the temporal check hoists alongside the
    // null check, and the hoist is visible in the executed counters.
    let callfree = hoist_workload(30);
    let full = cure_temporal(&callfree, true, true);
    assert!(
        full.sites
            .iter()
            .any(|s| s.kind == CheckKind::Temporal && s.opt_action == Some("hoisted")),
        "call-free loop: the temporal check must hoist"
    );
    let noloop = cure_temporal(&callfree, true, false);
    let rf = run_profiled(&full, Engine::default(), &callfree.input);
    let rn = run_profiled(&noloop, Engine::default(), &callfree.input);
    assert_eq!(rf.result(), rn.result(), "hoisting changed the verdict");
    let (cf, cn) = (rf.counters, rn.counters);
    assert!(
        cf.checks[CheckKind::Temporal] < cn.checks[CheckKind::Temporal],
        "per-iteration key checks collapse to the entry probe: {} vs {}",
        cf.checks[CheckKind::Temporal],
        cn.checks[CheckKind::Temporal]
    );

    // Same loop shape with a call in the body: `id` *could* free the
    // allocation (interprocedurally unknown), so every iteration re-checks.
    let calling = Workload::new(
        "temporal_call_loop",
        "int id(int x) { return x; }\n\
         int drain(int *p, int n) {\n\
           int s = 0;\n\
           int i = 0;\n\
           while (i < n) { s = s + id(*p); i = i + 1; }\n\
           return s;\n\
         }\n\
         int main(void) {\n\
           int c = 5;\n\
           return drain(&c, 6) == 30 ? 0 : 1;\n\
         }",
    )
    .without_wrappers();
    let cured = cure_temporal(&calling, true, true);
    let loop_temporals: Vec<_> = cured
        .sites
        .iter()
        .filter(|s| s.func == "drain" && s.kind == CheckKind::Temporal)
        .collect();
    assert!(!loop_temporals.is_empty(), "the deref emits a key check");
    for s in &loop_temporals {
        assert_eq!(
            s.opt_action, None,
            "a calling loop must not hoist temporal checks"
        );
        let why = s.keep_reason.as_deref().unwrap_or("");
        assert!(
            why.contains("free"),
            "keep-reason names the free hazard: {why:?}"
        );
    }
    let r = run_profiled(&cured, Engine::default(), &calling.input);
    assert_eq!(r.result(), Ok(0), "self-check failed");
}

/// The acceptance bar on the engine axis: under `--temporal`, tree and
/// VM stay byte-identical in results, output, counters (including
/// the new `temporal_checks`), and per-site profiles.
#[test]
fn engines_agree_on_temporal_programs() {
    let uaf = Workload::new(
        "temporal_uaf",
        "extern void *malloc(unsigned long n);\n\
         extern void free(void *p);\n\
         int main(void) {\n\
           int *p = (int *)malloc(4);\n\
           *p = 9;\n\
           free(p);\n\
           return *p;\n\
         }",
    )
    .without_wrappers();
    for w in [micro::seq_index(16), hoist_workload(20), uaf] {
        let cured = cure_temporal(&w, true, true);
        let t = run_profiled(&cured, Engine::Tree, &w.input);
        let v = run_profiled(&cured, Engine::Vm, &w.input);
        let what = &w.name;
        assert_eq!(t.first_difference(&v), None, "{what}: engines differ");
        assert_eq!(t.profile, v.profile, "{what}: profiles differ");
    }
}
