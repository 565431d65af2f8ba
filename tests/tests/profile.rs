//! Differential tests for the check-site observability layer.
//!
//! Profiling must be **observation-only**: a profiled run is byte-identical
//! to an unprofiled one — same result, same program output, same event
//! counters — on both execution engines, over the full golden corpus. And
//! because cost is *attributed* (hits × the cost model) rather than
//! measured, the tree engine and the bytecode VM must produce the exact
//! same site ranking, which is what lets `ccured profile` promise
//! engine-independent output.

use ccured_rt::{profile::rank_sites, CostModel, Engine, ExecMode, Interp, RunStats};
use ccured_workloads::{batch_corpus, suite_corpus, Workload};

fn cure(w: &Workload) -> ccured::Cured {
    w.curer().cure_source(&w.source).expect("cure")
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

/// One cured run, optionally profiled.
fn run(cured: &ccured::Cured, engine: Engine, input: &[u8], profiled: bool) -> RunStats {
    let mut interp = Interp::new(&cured.program, ExecMode::cured(cured));
    interp.set_engine(engine);
    interp.set_input(input.to_vec());
    if profiled {
        interp.enable_profile(cured.sites.len());
    }
    interp.observe()
}

/// A profiled run must be indistinguishable from an unprofiled one on
/// every observable axis, and the profile's own totals must reconcile with
/// the aggregate check counters it rode along with.
#[test]
fn profiling_is_observation_only_on_the_golden_corpus() {
    for w in golden_workloads() {
        let cured = cure(&w);
        for engine in [Engine::Tree, Engine::Vm] {
            let plain = run(&cured, engine, &w.input, false);
            let profiled = run(&cured, engine, &w.input, true);
            let what = format!("{} ({})", w.name, engine.name());
            assert_eq!(
                plain.first_difference(&profiled),
                None,
                "{what}: profiling changed the run"
            );
            let profile = profiled.profile.expect("profile recorded");
            assert_eq!(
                profile.total_hits(),
                profiled.counters.total_checks(),
                "{what}: per-site hits must sum to the aggregate check count"
            );
        }
    }
}

/// The ranked site report — ids, hits, fails, walk steps and attributed
/// cost, in order — must be bit-identical across engines for every golden
/// workload, so `--engine` never changes what `ccured profile` prints.
#[test]
fn engines_agree_on_the_site_ranking() {
    let model = CostModel::default();
    let mut hot_workloads = 0usize;
    for w in golden_workloads() {
        let cured = cure(&w);
        let tree = run(&cured, Engine::Tree, &w.input, true).profile;
        let vm = run(&cured, Engine::Vm, &w.input, true).profile;
        let tree = rank_sites(&cured.sites, &tree.unwrap(), &model);
        let vm = rank_sites(&cured.sites, &vm.unwrap(), &model);
        let key = |rows: &[ccured_rt::SiteReport]| {
            rows.iter()
                .map(|r| (r.site.id, r.hits, r.fails, r.walk_steps, r.cost.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            key(&tree),
            key(&vm),
            "{}: engines disagree on the site ranking",
            w.name
        );
        if vm.first().is_some_and(|r| r.hits > 0) {
            hot_workloads += 1;
        }
        // The static site table is dense and consistent with the profile.
        for (i, s) in cured.sites.iter().enumerate() {
            assert_eq!(s.id.index(), Some(i), "{}: sparse site table", w.name);
        }
    }
    assert!(hot_workloads > 0, "corpus never executed a check");
}

/// A check *failure* is attributed to the failing site — and only there —
/// identically on both engines.
#[test]
fn check_failures_are_attributed_to_the_failing_site() {
    let src = "int main(void) { int a[4]; int i; int s; s = 0;\n\
               for (i = 0; i < 4; i++) a[i] = i;\n\
               for (i = 0; i <= 4; i++) s += a[i];\n\
               return s; }";
    let w = Workload::new("oob", src).without_wrappers();
    let cured = cure(&w);
    for engine in [Engine::Tree, Engine::Vm] {
        let got = run(&cured, engine, &w.input, true);
        let result = got.result();
        assert!(
            matches!(result, Err(e) if e.is_check_failure()),
            "{}: expected a check failure, got {result:?}",
            engine.name()
        );
        let ranked = rank_sites(&cured.sites, &got.profile.unwrap(), &CostModel::default());
        let failing: Vec<_> = ranked.iter().filter(|r| r.fails > 0).collect();
        assert_eq!(
            failing.len(),
            1,
            "{}: exactly one site fails",
            engine.name()
        );
        assert_eq!(failing[0].fails, 1);
        assert!(
            failing[0].hits >= 1,
            "the failing check also counts as a hit"
        );
    }
}
