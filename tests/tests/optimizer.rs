//! Soundness and effectiveness of the redundant-check eliminator
//! (`ccured-analysis`), tested differentially: every workload is cured and
//! run twice — optimizer on vs `--no-opt` — and the two runs must agree on
//! everything observable (output, exit code, check-failure verdicts) while
//! the optimized run executes no more, and in aggregate strictly fewer,
//! `CHECK_NULL`/`CHECK_BOUNDS` events.

use ccured_cil::ir::CheckKind;
use ccured_infer::InferOptions;
use ccured_workloads::{daemons, micro, olden, runner, Workload};

/// Runs `w` with and without the optimizer and asserts observable
/// equivalence; returns `(optimized, unoptimized)` dynamic null+bounds
/// check event counts.
fn differential(w: &Workload) -> (u64, u64) {
    let opts = InferOptions::default();
    let opt = runner::run_cured_opt(w, &opts, true)
        .unwrap_or_else(|e| panic!("{}: cure (opt) failed: {e}", w.name));
    let noopt = runner::run_cured_opt(w, &opts, false)
        .unwrap_or_else(|e| panic!("{}: cure (no-opt) failed: {e}", w.name));
    assert_eq!(
        opt.stats.error, noopt.stats.error,
        "{}: verdicts differ — an elided check would have fired",
        w.name
    );
    assert_eq!(
        opt.stats.exit, noopt.stats.exit,
        "{}: exit codes differ",
        w.name
    );
    assert_eq!(
        opt.stats.output, noopt.stats.output,
        "{}: outputs differ",
        w.name
    );
    let a = opt.stats.counters.null_bounds_checks();
    let b = noopt.stats.counters.null_bounds_checks();
    assert!(a <= b, "{}: optimizer added checks ({a} > {b})", w.name);
    (a, b)
}

#[test]
fn micro_suite_executes_fewer_checks_with_identical_output() {
    let suite = [
        micro::safe_deref(50),
        micro::seq_index(20),
        micro::wild_loop(10),
        micro::rtti_dispatch(20),
        micro::ptr_store(20),
    ];
    let mut opt_total = 0;
    let mut noopt_total = 0;
    let mut elided_static = 0u64;
    for w in &suite {
        let (a, b) = differential(w);
        opt_total += a;
        noopt_total += b;
        let cured = runner::run_cured(w, &InferOptions::default()).unwrap();
        elided_static += cured.cured.report.checks_elided.total();
    }
    assert!(
        opt_total < noopt_total,
        "micro suite: optimizer must win in aggregate ({opt_total} vs {noopt_total})"
    );
    assert!(
        elided_static > 0,
        "micro suite: some checks statically elided"
    );
}

#[test]
fn olden_suite_executes_fewer_checks_with_identical_output() {
    let suite = [olden::treeadd(6), olden::em3d(12, 3, 3)];
    let mut opt_total = 0;
    let mut noopt_total = 0;
    for w in &suite {
        let (a, b) = differential(w);
        opt_total += a;
        noopt_total += b;
    }
    assert!(
        opt_total < noopt_total,
        "olden suite: optimizer must win in aggregate ({opt_total} vs {noopt_total})"
    );
}

/// The E8 exploit scenarios (paper Section 5): the ftpd `replydirname`
/// off-by-one and the sendmail-style overrun. Cured runs must stop both
/// with a check failure, and the verdict must be identical with and
/// without check elimination — the differential heart of satellite #3.
#[test]
fn exploit_verdicts_survive_elimination() {
    for w in [daemons::ftpd(3, true), daemons::sendmail_like(4, true)] {
        let opts = InferOptions::default();
        let opt = runner::run_cured_opt(&w, &opts, true).expect("cure");
        let noopt = runner::run_cured_opt(&w, &opts, false).expect("cure");
        let eo =
            opt.stats.error.as_ref().unwrap_or_else(|| {
                panic!("{}: optimized cure must still stop the exploit", w.name)
            });
        let en = noopt
            .stats
            .error
            .as_ref()
            .expect("unoptimized cure stops the exploit");
        assert!(eo.is_check_failure(), "{}: {eo}", w.name);
        assert_eq!(eo, en, "{}: elimination changed the verdict", w.name);
        assert_eq!(
            opt.stats.output, noopt.stats.output,
            "{}: outputs differ",
            w.name
        );
    }
}

/// Benign (non-exploit) daemon runs also agree under elimination.
#[test]
fn benign_daemon_runs_agree_under_elimination() {
    for w in [daemons::ftpd(2, false), daemons::sendmail_like(3, false)] {
        let (a, b) = differential(&w);
        assert!(a <= b);
    }
}

/// The optimizer's static report matches what the runtime observes: elided
/// checks translate into fewer executed checks on a workload built to have
/// redundant derefs (treeadd re-derefs the node pointer three times per
/// call).
#[test]
fn treeadd_null_checks_drop_measurably() {
    let w = olden::treeadd(6);
    let opts = InferOptions::default();
    let opt = runner::run_cured_opt(&w, &opts, true).expect("cure");
    let noopt = runner::run_cured_opt(&w, &opts, false).expect("cure");
    assert!(
        opt.cured.report.checks_elided.total() > 0,
        "treeadd has redundancy"
    );
    assert!(
        opt.stats.counters.checks[CheckKind::Null] < noopt.stats.counters.checks[CheckKind::Null],
        "dominated null checks gone at run time: {} vs {}",
        opt.stats.counters.checks[CheckKind::Null],
        noopt.stats.counters.checks[CheckKind::Null]
    );
}
