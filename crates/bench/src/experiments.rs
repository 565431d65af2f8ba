//! One function per reproduced table/figure (experiment ids E1–E10 in
//! DESIGN.md). All ratios come from the shared deterministic cost model.

use crate::record::Record;
use ccured_cil::ir::CheckKind;
use ccured_faultinject::FaultClass;
use ccured_infer::InferOptions;
use ccured_rt::{CostModel, Engine, ExecMode};
use ccured_workloads::runner::{self, measure};
use ccured_workloads::{apache, batch_corpus, daemons, micro, olden, ptrdist, spec};

/// One row of the Figure 8 (Apache modules) table.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Module name.
    pub name: String,
    /// Our measured lines of code.
    pub lines: usize,
    /// Measured `sf/sq/w/rt` percentages.
    pub pct: (u32, u32, u32, u32),
    /// Measured CCured ratio.
    pub ratio: f64,
    /// Paper LoC.
    pub paper_loc: Option<u32>,
    /// Paper `sf/sq/w/rt`.
    pub paper_pct: Option<(u32, u32, u32, u32)>,
    /// Paper ratio.
    pub paper_ratio: Option<f64>,
}

/// E1 (Figure 8): the nine Apache modules under the request driver.
pub fn fig8(requests: u32) -> Vec<Fig8Row> {
    apache::all_modules(requests)
        .into_iter()
        .map(|w| {
            let r = measure(&w, &InferOptions::default()).expect("fig8 workload");
            Fig8Row {
                name: w.name.clone(),
                lines: r.lines,
                pct: r.kind_pct,
                ratio: r.ccured,
                paper_loc: w.paper.loc,
                paper_pct: w.paper.pct,
                paper_ratio: w.paper.ccured_ratio,
            }
        })
        .collect()
}

/// One row of the Figure 9 (system software) table.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Program name.
    pub name: String,
    /// Our measured LoC.
    pub lines: usize,
    /// Measured `sf/sq/w/rt`.
    pub pct: (u32, u32, u32, u32),
    /// Measured CCured ratio.
    pub ccured: f64,
    /// Measured Valgrind ratio.
    pub valgrind: f64,
    /// Fraction of cured-run cost spent on sandbox limit accounting
    /// (fuel/stack/heap/deadline checks) — the price of the hardened
    /// interpreter, which must stay under 2%.
    pub sandbox_overhead: f64,
    /// Paper's CCured ratio.
    pub paper_ccured: Option<f64>,
    /// Paper's Valgrind ratio.
    pub paper_valgrind: Option<f64>,
    /// Paper's `sf/sq/w/rt`.
    pub paper_pct: Option<(u32, u32, u32, u32)>,
}

/// E2 (Figure 9): drivers, daemons and crypto kernels.
pub fn fig9() -> Vec<Fig9Row> {
    let model = CostModel::default();
    daemons::figure9_corpus()
        .into_iter()
        .map(|w| {
            let r = measure(&w, &InferOptions::default()).expect("fig9 workload");
            Fig9Row {
                name: w.name.clone(),
                lines: r.lines,
                pct: r.kind_pct,
                ccured: r.ccured,
                valgrind: r.valgrind,
                sandbox_overhead: model.sandbox_overhead(&r.cured_counters),
                paper_ccured: w.paper.ccured_ratio,
                paper_valgrind: w.paper.valgrind_ratio,
                paper_pct: w.paper.pct,
            }
        })
        .collect()
}

/// E3: the corpus-wide cast census (paper Section 3 statistics).
#[derive(Debug, Clone, Copy, Default)]
pub struct CastTotals {
    /// Total pointer-to-pointer casts.
    pub ptr_casts: usize,
    /// % of pointer casts between physically equal types.
    pub pct_identical: f64,
    /// Of the non-identical casts, % verified as upcasts.
    pub pct_upcasts: f64,
    /// Of the non-identical casts, % checked as downcasts.
    pub pct_downcasts: f64,
    /// Of the non-identical casts, % left bad/trusted.
    pub pct_bad: f64,
    /// % of all pointer casts verifiable without WILD.
    pub pct_verified: f64,
}

/// Aggregates the cast census over the whole corpus.
pub fn cast_census() -> CastTotals {
    let mut agg = ccured_infer::CastCensus::default();
    let mut corpus = ccured_workloads::suite_corpus();
    corpus.extend(apache::all_modules(1));
    corpus.extend(daemons::figure9_corpus());
    for w in &corpus {
        let cured = runner::run_cured(w, &InferOptions::default()).expect("census workload");
        let c = cured.cured.report.census;
        agg.identical += c.identical;
        agg.upcast += c.upcast;
        agg.downcast += c.downcast;
        agg.bad += c.bad;
        agg.trusted += c.trusted;
        agg.scalar += c.scalar;
        agg.null_ptr += c.null_ptr;
        agg.int_to_ptr += c.int_to_ptr;
        agg.ptr_to_int += c.ptr_to_int;
        agg.alloc += c.alloc;
    }
    CastTotals {
        ptr_casts: agg.ptr_casts(),
        pct_identical: agg.pct_identical(),
        pct_upcasts: agg.pct_upcasts_of_nonidentical(),
        pct_downcasts: agg.pct_downcasts_of_nonidentical(),
        pct_bad: agg.pct_bad_of_nonidentical(),
        pct_verified: agg.pct_verified(),
    }
}

/// E4: the ijpeg RTTI experiment (old CCured vs this paper).
#[derive(Debug, Clone, Copy)]
pub struct IjpegResult {
    /// WILD percentage without physical subtyping/RTTI (paper: ~60%).
    pub old_wild_pct: u32,
    /// Slowdown without the extensions (paper: 2.15x).
    pub old_ratio: f64,
    /// WILD percentage with RTTI (paper: 0%).
    pub new_wild_pct: u32,
    /// RTTI percentage with RTTI (paper: ~1%).
    pub new_rtti_pct: u32,
    /// Slowdown with the extensions (paper: 1.45x).
    pub new_ratio: f64,
    /// Downcast sites in the program.
    pub downcasts: usize,
}

/// Runs the ijpeg experiment at the given scale.
pub fn ijpeg_experiment(types: u32, rounds: u32) -> IjpegResult {
    let w = spec::ijpeg_oo(types, rounds);
    let new = measure(&w, &InferOptions::default()).expect("ijpeg new");
    let old = measure(&w, &InferOptions::original_ccured()).expect("ijpeg old");
    let cured_new = runner::run_cured(&w, &InferOptions::default()).expect("census");
    let cured_old = runner::run_cured(&w, &InferOptions::original_ccured()).expect("census");
    let pct_old = cured_old.cured.report.kind_counts.percentages();
    let pct_new = cured_new.cured.report.kind_counts.percentages();
    IjpegResult {
        old_wild_pct: pct_old.2,
        old_ratio: old.ccured,
        new_wild_pct: pct_new.2,
        new_rtti_pct: pct_new.3,
        new_ratio: new.ccured,
        downcasts: cured_new.cured.report.census.downcast,
    }
}

/// E5: the bind cast statistics.
#[derive(Debug, Clone, Copy)]
pub struct BindStats {
    /// Total pointer casts.
    pub ptr_casts: usize,
    /// Upcasts handled by physical subtyping.
    pub upcasts: usize,
    /// Downcasts checked with RTTI.
    pub downcasts: usize,
    /// Trusted casts (the code-review surface; paper: 380 of 530).
    pub trusted: usize,
    /// WILD percentage without RTTI.
    pub wild_pct_without_rtti: u32,
    /// WILD percentage with RTTI + trusted casts.
    pub wild_pct_with_rtti: u32,
}

/// Runs the bind census at the given scale.
pub fn bind_experiment(queries: u32, rrtypes: u32) -> BindStats {
    let w = daemons::bind_like(queries, rrtypes);
    let with = runner::run_cured(&w, &InferOptions::default()).expect("bind with rtti");
    let without = runner::run_cured(&w, &InferOptions::original_ccured()).expect("bind without");
    let c = with.cured.report.census;
    BindStats {
        ptr_casts: c.ptr_casts(),
        upcasts: c.upcast,
        downcasts: c.downcast,
        trusted: c.trusted,
        wild_pct_without_rtti: without.cured.report.kind_counts.percentages().2,
        wild_pct_with_rtti: with.cured.report.kind_counts.percentages().2,
    }
}

/// One row of the suites table (E6).
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Benchmark name.
    pub name: String,
    /// CCured ratio (paper band: 1.07–1.56).
    pub ccured: f64,
    /// Purify ratio (paper band: 25–100).
    pub purify: f64,
    /// Valgrind ratio (paper band: 9–130).
    pub valgrind: f64,
}

/// E6: the Spec/Olden/Ptrdist suite with all baselines.
pub fn suites() -> Vec<SuiteRow> {
    ccured_workloads::suite_corpus()
        .into_iter()
        .map(|w| {
            let r = measure(&w, &InferOptions::default()).expect("suite workload");
            SuiteRow {
                name: w.name.clone(),
                ccured: r.ccured,
                purify: r.purify,
                valgrind: r.valgrind,
            }
        })
        .collect()
}

/// One row of the split-overhead table (E7).
#[derive(Debug, Clone)]
pub struct SplitRow {
    /// Benchmark name.
    pub name: String,
    /// Cured ratio with the default (NOSPLIT) representation.
    pub nosplit: f64,
    /// Cured ratio with everything SPLIT.
    pub allsplit: f64,
    /// The extra overhead attributable to splitting (allsplit/nosplit).
    pub split_cost: f64,
}

/// E7a: the all-split overhead experiment over olden/ptrdist/ijpeg.
pub fn split_overhead() -> Vec<SplitRow> {
    let corpus = vec![
        olden::em3d(48, 6, 24),
        olden::treeadd(10),
        ptrdist::anagram(40),
        ptrdist::ks(26),
        spec::ijpeg_oo(24, 16),
    ];
    corpus
        .into_iter()
        .map(|w| {
            let base = measure(&w, &InferOptions::default()).expect("split base");
            let split = measure(
                &w,
                &InferOptions {
                    split_everything: true,
                    ..InferOptions::default()
                },
            )
            .expect("split all");
            SplitRow {
                name: w.name.clone(),
                nosplit: base.ccured,
                allsplit: split.ccured,
                split_cost: split.ccured / base.ccured,
            }
        })
        .collect()
}

/// E7b: boundary-seeded split statistics (bind/OpenSSH style).
#[derive(Debug, Clone)]
pub struct SplitBoundaryRow {
    /// Program name.
    pub name: String,
    /// Percentage of qualifiers that became SPLIT.
    pub split_pct: f64,
    /// Of the split pointers, the percentage carrying a metadata pointer.
    pub meta_pct: f64,
}

/// Measures boundary-seeded SPLIT spread for the daemons.
pub fn split_boundary() -> Vec<SplitBoundaryRow> {
    let corpus = vec![
        daemons::bind_like(10, 12),
        daemons::openssh_like(10, false),
        daemons::openssh_like(10, true),
        daemons::ssh_client_uncured_ssl(10),
    ];
    corpus
        .into_iter()
        .map(|w| {
            let opts = InferOptions {
                split_at_boundaries: true,
                ..InferOptions::default()
            };
            let cured = runner::run_cured(&w, &opts).expect("boundary split");
            let sol = &cured.cured.solution;
            let prog = &cured.cured.program;
            let total = sol.len().max(1);
            let split = sol.split_count();
            // Of the split pointer quals, how many need a metadata pointer.
            let mut st = ccured::split::SplitTypes::new(&prog.types, sol);
            let mut types = prog.types.clone();
            let mut split_ptrs = 0usize;
            let mut with_meta = 0usize;
            for i in 0..prog.types.len() {
                let t = ccured_cil::types::TypeId(i as u32);
                if let Some((_, q)) = prog.types.ptr_parts(t) {
                    if sol.is_split(q) {
                        split_ptrs += 1;
                        if st.needs_meta_ptr(&mut types, t) {
                            with_meta += 1;
                        }
                    }
                }
            }
            SplitBoundaryRow {
                name: w.name.clone(),
                split_pct: split as f64 * 100.0 / total as f64,
                meta_pct: if split_ptrs == 0 {
                    0.0
                } else {
                    with_meta as f64 * 100.0 / split_ptrs as f64
                },
            }
        })
        .collect()
}

/// One row of the security table (E8).
#[derive(Debug, Clone)]
pub struct SecurityRow {
    /// Scenario name.
    pub name: String,
    /// What happened in plain C.
    pub original: String,
    /// What happened under CCured.
    pub cured: String,
    /// Whether CCured stopped the attack.
    pub prevented: bool,
}

/// E8: known-vulnerability scenarios.
pub fn security() -> Vec<SecurityRow> {
    let scenarios = vec![daemons::ftpd(4, true), daemons::sendmail_like(6, true)];
    scenarios
        .into_iter()
        .map(|w| {
            let o = runner::run_original(&w).expect("frontend");
            let original = match &o.error {
                None if o.exit == 42 => "exploited silently (admin granted)".to_string(),
                None if o.exit == 43 => "exploited silently (relay state corrupted)".to_string(),
                None => format!("ran to completion (exit {})", o.exit),
                Some(e) => format!("crashed: {e}"),
            };
            let c = runner::run_cured(&w, &InferOptions::default()).expect("cure");
            let (cured_out, prevented) = match &c.stats.error {
                Some(e) if e.is_check_failure() => (format!("stopped by {e}"), true),
                Some(e) => (format!("failed: {e}"), false),
                None => (format!("ran (exit {})", c.stats.exit), c.stats.exit != 42),
            };
            SecurityRow {
                name: w.name.clone(),
                original,
                cured: cured_out,
                prevented,
            }
        })
        .collect()
}

/// One row of the ablation staircase (E9).
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration name.
    pub config: String,
    /// WILD percentage.
    pub wild_pct: u32,
    /// RTTI percentage.
    pub rtti_pct: u32,
    /// Overhead ratio.
    pub ratio: f64,
}

/// E9: WILD-everything vs physical subtyping vs +RTTI on the OO workload.
pub fn ablation(types: u32, rounds: u32) -> Vec<AblationRow> {
    let w = spec::ijpeg_oo(types, rounds);
    let configs = vec![
        (
            "original CCured (no phys-sub, no RTTI)",
            InferOptions::original_ccured(),
        ),
        (
            "physical subtyping only",
            InferOptions {
                rtti: false,
                ..InferOptions::default()
            },
        ),
        ("physical subtyping + RTTI", InferOptions::default()),
    ];
    configs
        .into_iter()
        .map(|(name, opts)| {
            let r = measure(&w, &opts).expect("ablation");
            let cured = runner::run_cured(&w, &opts).expect("ablation cure");
            let pct = cured.cured.report.kind_counts.percentages();
            AblationRow {
                config: name.to_string(),
                wild_pct: pct.2,
                rtti_pct: pct.3,
                ratio: r.ccured,
            }
        })
        .collect()
}

/// E9b: the RTTI `isSubtype` encoding ablation at run time — the paper's
/// parent-chain walk vs an O(1) interval test, on the deep-hierarchy OO
/// workload. Returns `(walk_steps, walk_ratio, interval_ratio)`.
pub fn rtti_encoding(types: u32, rounds: u32) -> (u64, f64, f64) {
    use ccured_rt::Interp;
    let w = spec::ijpeg_oo(types, rounds);
    let model = CostModel::default();
    let base = runner::run_original(&w).expect("frontend");
    let cured = runner::run_cured(&w, &InferOptions::default()).expect("cure");
    let walk_steps = cured.stats.counters.rtti_walk_steps;
    let walk_ratio = model.ratio(&cured.stats.counters, &base.counters);
    let mut interp = Interp::new(&cured.cured.program, ExecMode::cured(&cured.cured));
    interp.set_interval_rtti(true);
    interp.run().expect("interval run");
    let interval_ratio = model.ratio(&interp.counters, &base.counters);
    assert_eq!(
        interp.counters.rtti_walk_steps, 0,
        "interval mode walks no chains"
    );
    (walk_steps, walk_ratio, interval_ratio)
}

/// E10: fat pointers vs a global object registry (Jones–Kelly) on the
/// pointer-heavy microbenchmark. Returns `(ccured_ratio, joneskelly_ratio)`.
pub fn metadata_lookup(iters: u32) -> (f64, f64) {
    let w = micro::ptr_store(iters);
    let model = CostModel::default();
    let base = runner::run_original(&w).expect("frontend");
    let cured = runner::run_cured(&w, &InferOptions::default()).expect("cure");
    let jk = runner::run_baseline(&w, ExecMode::JonesKelly).expect("jk");
    (
        model.ratio(&cured.stats.counters, &base.counters),
        model.ratio(&jk.counters, &base.counters),
    )
}

/// E12 (`fig-batch`): batch-engine timings over the micro+Olden corpus.
///
/// Three configurations over the same units: sequential with the cache
/// disabled, parallel on a cold cache, and the same parallel run repeated
/// on the now-warm cache.
#[derive(Debug, Clone)]
pub struct BatchFig {
    /// Units in the corpus.
    pub units: usize,
    /// Worker threads for the parallel/warm runs.
    pub jobs: usize,
    /// Wall-clock, sequential (`--jobs 1 --no-cache`).
    pub sequential: std::time::Duration,
    /// Wall-clock, parallel on an empty cache.
    pub parallel_cold: std::time::Duration,
    /// Wall-clock, parallel on the warm cache.
    pub warm: std::time::Duration,
    /// Whole-unit hit rate of the warm run (1.0 when nothing changed).
    pub warm_hit_rate: f64,
    /// Achieved parallelism of the cold parallel run (`cpu / wall`).
    pub parallel_cpu_ratio: f64,
}

impl BatchFig {
    /// `sequential / parallel_cold` — how much the thread pool buys.
    pub fn parallel_speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.parallel_cold.as_secs_f64().max(1e-9)
    }

    /// `sequential / warm` — how much the cache buys.
    pub fn warm_speedup(&self) -> f64 {
        self.sequential.as_secs_f64() / self.warm.as_secs_f64().max(1e-9)
    }
}

/// E12 (`fig-batch`): measure the batch engine at `jobs` workers
/// (0 = one per core) over [`ccured_workloads::batch_corpus`].
///
/// # Errors
///
/// I/O errors writing the corpus or reading it back.
pub fn fig_batch(jobs: usize) -> std::io::Result<BatchFig> {
    use ccured_batch::{run_batch, BatchConfig};

    let dir = std::env::temp_dir().join(format!("ccured-fig-batch-{}", std::process::id()));
    let result = (|| {
        let units = ccured_workloads::write_units(&dir.join("src"), &batch_corpus())?;

        let mut seq = BatchConfig::new(ccured::Curer::new());
        seq.jobs = 1;
        seq.use_cache = false;
        let sequential = run_batch(&seq, &units)?;

        let mut par = BatchConfig::new(ccured::Curer::new());
        par.jobs = jobs;
        par.cache_dir = dir.join("cache");
        let cold = run_batch(&par, &units)?;
        let warm = run_batch(&par, &units)?;

        Ok(BatchFig {
            units: units.len(),
            jobs: cold.jobs,
            sequential: sequential.wall,
            parallel_cold: cold.wall,
            warm: warm.wall,
            warm_hit_rate: warm.hit_rate(),
            parallel_cpu_ratio: cold.cpu.as_secs_f64() / cold.wall.as_secs_f64().max(1e-9),
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// E13 (`fig-interp`): one workload's tree-vs-VM wall-clock comparison.
#[derive(Debug, Clone)]
pub struct InterpRow {
    /// Workload name.
    pub name: String,
    /// Guest instruction steps of the cured run (identical on both engines).
    pub steps: u64,
    /// Best-of-`reps` wall-clock on the tree-walking reference engine.
    pub tree: std::time::Duration,
    /// Best-of-`reps` wall-clock on the bytecode VM.
    pub vm: std::time::Duration,
}

impl InterpRow {
    /// `tree / vm` — how much the bytecode engine buys on this workload.
    pub fn speedup(&self) -> f64 {
        self.tree.as_secs_f64() / self.vm.as_secs_f64().max(1e-9)
    }
}

/// E13 (`fig-interp`): the whole comparison.
#[derive(Debug, Clone)]
pub struct InterpFig {
    /// Per-workload timings.
    pub rows: Vec<InterpRow>,
    /// Timing repetitions per engine (best-of).
    pub reps: u32,
}

impl InterpFig {
    /// Geometric mean of the per-workload speedups.
    pub fn geomean_speedup(&self) -> f64 {
        geomean(self.rows.iter().map(InterpRow::speedup))
    }

    /// `BENCH_interp.json`, one row per workload.
    pub fn record(&self) -> Record {
        let mut r = Record::new(self.rows.len());
        for row in &self.rows {
            r.row(
                &row.name,
                [
                    ("runtime.steps", row.steps as f64, "count"),
                    ("runtime.tree_s", row.tree.as_secs_f64(), "s"),
                    ("runtime.vm_s", row.vm.as_secs_f64(), "s"),
                    ("interp.speedup", row.speedup(), "x"),
                ],
            );
        }
        r.metrics([
            ("interp.reps", self.reps.into(), "count"),
            ("interp.geomean_speedup", self.geomean_speedup(), "x"),
        ]);
        r
    }
}

/// Geometric mean of `xs`, their logarithms summed in order (1 when
/// `xs` is empty).
fn geomean(xs: impl IntoIterator<Item = f64>) -> f64 {
    let (mut n, mut ln_sum) = (0usize, 0.0);
    for x in xs {
        n += 1;
        ln_sum += x.ln();
    }
    (ln_sum / n.max(1) as f64).exp()
}

/// Times `N` configurations round-robin, one run of each per round for
/// `reps` rounds, so a slow phase of a shared host lands on every
/// configuration alike instead of on one side of a ratio. A run of
/// configuration `i` is `run(setup(i))`, and only `run` is timed. Returns
/// each configuration's best wall-clock and what its last run returned.
fn time_round_robin<S, T, const N: usize>(
    reps: u32,
    mut setup: impl FnMut(usize) -> S,
    mut run: impl FnMut(S) -> T,
) -> [(std::time::Duration, T); N] {
    let mut best = [std::time::Duration::MAX; N];
    let mut last: [Option<T>; N] = std::array::from_fn(|_| None);
    for _ in 0..reps.max(1) {
        for (i, (best, last)) in best.iter_mut().zip(&mut last).enumerate() {
            let state = setup(i);
            let t0 = std::time::Instant::now();
            let out = run(state);
            *best = (*best).min(t0.elapsed());
            *last = Some(out);
        }
    }
    std::array::from_fn(|i| (best[i], last[i].take().expect("at least one round")))
}

/// Times cured runs on `input` with [`time_round_robin`], one
/// configuration per `(cure, engine, per-site profiling on)`; temporal
/// semantics follow the cure. Each run is a fresh interpreter, and only its
/// `run` is timed. Returns each configuration's best wall-clock and its
/// (deterministic) counters.
fn time_runs<const N: usize>(
    configs: [(&ccured::Cured, Engine, bool); N],
    input: &[u8],
    reps: u32,
) -> [(std::time::Duration, ccured_rt::Counters); N] {
    let runs = time_round_robin(
        reps,
        |i| {
            let (cured, engine, profile) = configs[i];
            let mut interp = ccured_rt::Interp::new(&cured.program, ExecMode::cured(cured));
            interp.set_engine(engine);
            interp.set_input(input.to_vec());
            if profile {
                interp.enable_profile(cured.sites.len());
            }
            interp
        },
        |mut interp| {
            interp.run().expect("bench workload runs clean");
            interp
        },
    );
    runs.map(|(best, interp)| (best, interp.counters))
}

/// The Figure-9-shaped corpus of the engine-throughput figure (E13
/// `fig-interp`), with the best-of repetition count. `smoke` shrinks the
/// workloads for CI.
fn interp_corpus(smoke: bool) -> (Vec<ccured_workloads::Workload>, u32) {
    use ccured_workloads::{olden, ptrdist, spec};
    if smoke {
        // Sized so each timed run is in the milliseconds: long enough to
        // amortize lazy compilation, short enough for CI.
        (
            vec![
                micro::safe_deref(6000),
                micro::seq_index(600),
                micro::wild_loop(360),
                micro::rtti_dispatch(2400),
                micro::ptr_store(600),
                olden::em3d(48, 5, 24),
                olden::treeadd(12),
                ptrdist::anagram(60),
            ],
            5,
        )
    } else {
        (
            vec![
                micro::safe_deref(4000),
                micro::seq_index(1500),
                micro::wild_loop(500),
                micro::rtti_dispatch(1200),
                micro::ptr_store(1500),
                olden::em3d(64, 6, 48),
                olden::treeadd(12),
                ptrdist::anagram(80),
                ptrdist::ks(30),
                spec::compress_like(32, 8),
                spec::ijpeg_oo(48, 40),
            ],
            3,
        )
    }
}

/// E13 (`fig-interp`): tree-vs-VM throughput over the micro + Olden +
/// Ptrdist corpus, cured once per workload and executed on both engines.
/// `smoke` shrinks the workloads for CI.
pub fn fig_interp(smoke: bool) -> InterpFig {
    let (ws, reps) = interp_corpus(smoke);
    let rows = ws
        .iter()
        .map(|w| {
            let cured = w.curer().cure_source(&w.source).expect("fig-interp cure");
            let [(tree, tree_c), (vm, vm_c)] = time_runs(
                [(&cured, Engine::Tree, false), (&cured, Engine::Vm, false)],
                &w.input,
                reps,
            );
            assert_eq!(
                tree_c.instrs, vm_c.instrs,
                "{}: engines disagree on instruction steps",
                w.name
            );
            InterpRow {
                name: w.name.clone(),
                steps: vm_c.instrs,
                tree,
                vm,
            }
        })
        .collect();
    InterpFig { rows, reps }
}

/// E19 (`fig-temporal`): one workload's spatial-only vs temporal
/// (`--temporal`) comparison on both engines.
#[derive(Debug, Clone)]
pub struct TemporalRow {
    /// Workload name.
    pub name: String,
    /// Guest steps of the spatial-only cure (identical on both engines).
    pub steps_plain: u64,
    /// Guest steps with temporal checks emitted (the delta is the emitted
    /// lock-and-key checks that survive the eliminator).
    pub steps_temporal: u64,
    /// Executed temporal key checks (engine-independent).
    pub temporal_checks: u64,
    /// Best-of-`reps` wall-clock, spatial-only cure, tree engine.
    pub tree_plain: std::time::Duration,
    /// Best-of-`reps` wall-clock, temporal cure, tree engine.
    pub tree_temporal: std::time::Duration,
    /// Best-of-`reps` wall-clock, spatial-only cure, bytecode VM.
    pub vm_plain: std::time::Duration,
    /// Best-of-`reps` wall-clock, temporal cure, bytecode VM.
    pub vm_temporal: std::time::Duration,
}

impl TemporalRow {
    /// `temporal / plain` on the tree engine — what `--temporal` costs.
    pub fn overhead_tree(&self) -> f64 {
        self.tree_temporal.as_secs_f64() / self.tree_plain.as_secs_f64().max(1e-9)
    }

    /// `temporal / plain` on the bytecode VM.
    pub fn overhead_vm(&self) -> f64 {
        self.vm_temporal.as_secs_f64() / self.vm_plain.as_secs_f64().max(1e-9)
    }
}

/// E19 (`fig-temporal`): the whole comparison.
#[derive(Debug, Clone)]
pub struct TemporalFig {
    /// Per-workload timings.
    pub rows: Vec<TemporalRow>,
    /// Timing repetitions per configuration (best-of).
    pub reps: u32,
}

impl TemporalFig {
    /// Geometric mean of the tree-engine temporal overheads.
    pub fn geomean_overhead_tree(&self) -> f64 {
        geomean(self.rows.iter().map(TemporalRow::overhead_tree))
    }

    /// Geometric mean of the VM temporal overheads.
    pub fn geomean_overhead_vm(&self) -> f64 {
        geomean(self.rows.iter().map(TemporalRow::overhead_vm))
    }

    /// `BENCH_temporal.json`, one row per workload; `runtime.*` are the
    /// spatial-only cure's, `temporal.*` the `--temporal` cure's.
    pub fn record(&self) -> Record {
        let mut r = Record::new(self.rows.len());
        for row in &self.rows {
            r.row(
                &row.name,
                [
                    ("runtime.steps", row.steps_plain as f64, "count"),
                    ("temporal.steps", row.steps_temporal as f64, "count"),
                    ("temporal.checks", row.temporal_checks as f64, "count"),
                    ("runtime.tree_s", row.tree_plain.as_secs_f64(), "s"),
                    ("temporal.tree_s", row.tree_temporal.as_secs_f64(), "s"),
                    ("runtime.vm_s", row.vm_plain.as_secs_f64(), "s"),
                    ("temporal.vm_s", row.vm_temporal.as_secs_f64(), "s"),
                    ("temporal.tree_overhead", row.overhead_tree(), "x"),
                    ("temporal.vm_overhead", row.overhead_vm(), "x"),
                ],
            );
        }
        let (tree, vm) = (self.geomean_overhead_tree(), self.geomean_overhead_vm());
        r.metrics([
            ("temporal.reps", self.reps.into(), "count"),
            ("temporal.geomean_tree_overhead", tree, "x"),
            ("temporal.geomean_vm_overhead", vm, "x"),
        ]);
        r
    }
}

/// E19 (`fig-temporal`): temporal-check overhead over the Figure-9 corpus.
/// Each workload is cured twice — spatial-only and with `--temporal` — and
/// both cures run on both engines; the row's overhead is the wall-clock
/// ratio per engine. `smoke` shrinks the workloads for CI.
pub fn fig_temporal(smoke: bool) -> TemporalFig {
    let (ws, reps) = interp_corpus(smoke);
    let rows = ws
        .iter()
        .map(|w| {
            let cure = |temporal: bool| {
                w.curer()
                    .temporal(temporal)
                    .cure_source(&w.source)
                    .expect("fig-temporal cure")
            };
            let plain = cure(false);
            let temporal = cure(true);
            let [(tree_plain, tp), (vm_plain, vp), (tree_temporal, tt), (vm_temporal, vt)] =
                time_runs(
                    [
                        (&plain, Engine::Tree, false),
                        (&plain, Engine::Vm, false),
                        (&temporal, Engine::Tree, false),
                        (&temporal, Engine::Vm, false),
                    ],
                    &w.input,
                    reps,
                );
            assert_eq!(
                tp.instrs, vp.instrs,
                "{}: engines disagree on spatial-only steps",
                w.name
            );
            assert_eq!(
                (tt.instrs, tt.checks[CheckKind::Temporal]),
                (vt.instrs, vt.checks[CheckKind::Temporal]),
                "{}: engines disagree under --temporal",
                w.name
            );
            TemporalRow {
                name: w.name.clone(),
                steps_plain: tp.instrs,
                steps_temporal: tt.instrs,
                temporal_checks: tt.checks[CheckKind::Temporal],
                tree_plain,
                tree_temporal,
                vm_plain,
                vm_temporal,
            }
        })
        .collect();
    TemporalFig { rows, reps }
}

/// E14 (`fig-profile`): one workload's check-site profile summary.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Workload name.
    pub name: String,
    /// Static check sites after elision merging.
    pub sites: usize,
    /// Sites that executed at least once.
    pub hot_sites: usize,
    /// Dynamic checks executed.
    pub total_hits: u64,
    /// Total abstract cost attributed across all sites.
    pub total_cost: f64,
    /// Fraction of the attributed cost concentrated in the top 3 sites
    /// (the paper's point: check cost is dominated by a handful of sites).
    pub top_share: f64,
    /// Hot sites the eliminator could not remove.
    pub unelided_hot: usize,
    /// The top 3 hot sites.
    pub top: Vec<ccured_rt::SiteReport>,
}

/// E14 (`fig-profile`): hot-site distribution over the corpus.
#[derive(Debug, Clone)]
pub struct ProfileFig {
    /// Per-workload summaries.
    pub rows: Vec<ProfileRow>,
}

impl ProfileFig {
    /// `BENCH_profile.json`, one row per workload. The top sites are not
    /// in it: `ccured profile --json` writes a unit's ranked sites.
    pub fn record(&self) -> Record {
        let mut r = Record::new(self.rows.len());
        for row in &self.rows {
            r.row(
                &row.name,
                [
                    ("profile.sites", row.sites as f64, "count"),
                    ("profile.hot_sites", row.hot_sites as f64, "count"),
                    ("profile.hits", row.total_hits as f64, "count"),
                    ("profile.cost", row.total_cost, "cycles"),
                    ("profile.top_share", row.top_share, "ratio"),
                    ("profile.unelided_hot", row.unelided_hot as f64, "count"),
                ],
            );
        }
        r
    }
}

/// Runs one cured workload on `engine` with profiling and returns the
/// ranked site rows (run errors are impossible on this corpus).
fn profile_cured(
    cured: &ccured::Cured,
    engine: Engine,
    input: &[u8],
) -> Vec<ccured_rt::SiteReport> {
    use ccured_rt::Interp;
    let mut interp = Interp::new(&cured.program, ExecMode::cured(cured));
    interp.set_engine(engine);
    interp.set_input(input.to_vec());
    interp.enable_profile(cured.sites.len());
    let run = interp.observe();
    assert!(run.ok(), "fig-profile workload runs clean: {:?}", run.error);
    let prof = run.profile.unwrap_or_default();
    ccured_rt::profile::rank_sites(&cured.sites, &prof, &CostModel::default())
}

/// The E14 (`fig-profile`) corpus: [`fig_interp`]'s, with smaller
/// workloads for `smoke`.
fn profile_corpus(smoke: bool) -> Vec<ccured_workloads::Workload> {
    if smoke {
        vec![
            micro::safe_deref(400),
            micro::seq_index(200),
            micro::wild_loop(60),
            micro::rtti_dispatch(150),
            micro::ptr_store(200),
            olden::em3d(32, 4, 12),
            olden::treeadd(9),
            ptrdist::anagram(40),
        ]
    } else {
        interp_corpus(false).0
    }
}

/// E14 (`fig-profile`): per-site check profiles over the same corpus as
/// [`fig_interp`]. Every workload is profiled on *both* engines and the
/// rankings are asserted identical — the differential guarantee the CLI
/// `profile` subcommand relies on. `smoke` shrinks the workloads for CI.
pub fn fig_profile(smoke: bool) -> ProfileFig {
    let rows = profile_corpus(smoke)
        .iter()
        .map(|w| {
            let cured = w.curer().cure_source(&w.source).expect("fig-profile cure");
            let vm = profile_cured(&cured, Engine::Vm, &w.input);
            let tree = profile_cured(&cured, Engine::Tree, &w.input);
            let key = |rows: &[ccured_rt::SiteReport]| {
                rows.iter()
                    .map(|r| (r.site.id, r.hits, r.fails, r.walk_steps, r.cost.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                key(&vm),
                key(&tree),
                "{}: engines disagree on the site ranking",
                w.name
            );
            let total_cost: f64 = vm.iter().map(|r| r.cost).sum();
            let top_cost: f64 = vm.iter().take(3).map(|r| r.cost).sum();
            ProfileRow {
                name: w.name.clone(),
                sites: vm.len(),
                hot_sites: vm.iter().filter(|r| r.hits > 0).count(),
                total_hits: vm.iter().map(|r| r.hits).sum(),
                total_cost,
                top_share: if total_cost > 0.0 {
                    top_cost / total_cost
                } else {
                    0.0
                },
                unelided_hot: vm
                    .iter()
                    .filter(|r| r.hits > 0 && r.site.keep.is_some())
                    .count(),
                top: vm.iter().filter(|r| r.hits > 0).take(3).cloned().collect(),
            }
        })
        .collect();
    ProfileFig { rows }
}

/// E14: the wall-clock cost of *enabling* profiling — the geomean over the
/// Figure 9 corpus of (profiled / plain) run time, each best-of-`reps` on
/// the bytecode VM. The acceptance bar is <5% (asserted in release).
pub fn profile_overhead(reps: u32) -> f64 {
    geomean(daemons::figure9_corpus().iter().map(|w| {
        let cured = w
            .curer()
            .cure_source(&w.source)
            .expect("profile-overhead cure");
        let configs = [(&cured, Engine::Vm, false), (&cured, Engine::Vm, true)];
        let [(plain, _), (profiled, _)] = time_runs(configs, &w.input, reps);
        profiled.as_secs_f64() / plain.as_secs_f64().max(1e-9)
    }))
}

/// E15 (`fig-opt2`): one workload's executed-check cost under the three
/// optimizer configurations.
#[derive(Debug, Clone)]
pub struct Opt2Row {
    /// Workload name.
    pub name: String,
    /// Whether this is one of the strided workloads the ≥15% headline
    /// claim is asserted over (monotone induction-variable SEQ loops).
    pub strided: bool,
    /// Executed-check cycles with no static optimization (`--no-opt`).
    pub noopt: f64,
    /// Executed-check cycles with elimination only (`--no-loop-opt`,
    /// the PR-5 baseline the loop passes are measured against).
    pub elim: f64,
    /// Executed-check cycles with the full optimizer (default).
    pub full: f64,
    /// Checks hoisted to loop-entry probes (static count).
    pub hoisted: u64,
    /// Per-iteration bounds checks widened to whole-trip probes.
    pub widened: u64,
}

impl Opt2Row {
    /// Fractional executed-check-cost reduction of the loop passes over
    /// the elimination-only baseline (`0.30` = 30% fewer check cycles).
    pub fn reduction(&self) -> f64 {
        if self.elim <= 0.0 {
            0.0
        } else {
            1.0 - self.full / self.elim
        }
    }
}

/// E15 (`fig-opt2`): the whole comparison.
#[derive(Debug, Clone)]
pub struct Opt2Fig {
    /// Per-workload costs.
    pub rows: Vec<Opt2Row>,
}

impl Opt2Fig {
    /// Geometric mean of the loop passes' cost reduction over the strided
    /// subset — the headline E15 claim (target ≥ 15%).
    pub fn geomean_reduction_strided(&self) -> f64 {
        let strided = self.rows.iter().filter(|r| r.strided);
        1.0 - geomean(strided.map(|r| (r.full / r.elim.max(1e-9)).max(1e-9)))
    }

    /// `BENCH_opt2.json`, one row per workload; `runtime.check_cycles` and
    /// `analysis.*` are the full optimizer's.
    pub fn record(&self) -> Record {
        let mut r = Record::new(self.rows.len());
        for row in &self.rows {
            r.row(
                &row.name,
                [
                    ("opt2.strided", u8::from(row.strided).into(), "bool"),
                    ("opt2.noopt_check_cycles", row.noopt, "cycles"),
                    ("opt2.elim_check_cycles", row.elim, "cycles"),
                    ("runtime.check_cycles", row.full, "cycles"),
                    ("opt2.reduction", row.reduction(), "ratio"),
                    ("analysis.hoisted", row.hoisted as f64, "count"),
                    ("analysis.widened", row.widened as f64, "count"),
                ],
            );
        }
        let strided = self.geomean_reduction_strided();
        r.metrics([("opt2.geomean_reduction_strided", strided, "ratio")]);
        r
    }
}

/// E15 (`fig-opt2`): executed-check cost of no-opt vs elimination-only vs
/// the full loop optimizer (hoisting + widening), over the strided
/// microbenchmarks and a slice of the Figure 9 system corpus. Costs come
/// from the deterministic per-kind check counters × [`CostModel`], so the
/// figure is exactly reproducible; the three runs of each workload are
/// also asserted observationally identical (the differential suite in
/// `tests/tests/opt2.rs` does this exhaustively).
pub fn fig_opt2(smoke: bool) -> Opt2Fig {
    use ccured_workloads::olden;
    let (strided, rest) = if smoke {
        (
            vec![micro::seq_index(50), micro::ptr_store(25)],
            vec![
                micro::safe_deref(100),
                micro::rtti_dispatch(50),
                olden::treeadd(8),
                daemons::ftpd(4, false),
                daemons::sendmail_like(6, false),
            ],
        )
    } else {
        (
            vec![micro::seq_index(400), micro::ptr_store(200)],
            vec![
                micro::safe_deref(800),
                micro::rtti_dispatch(400),
                olden::treeadd(10),
                olden::em3d(32, 4, 12),
                daemons::ftpd(8, false),
                daemons::sendmail_like(12, false),
                daemons::openssh_like(30, false),
            ],
        )
    };
    let model = CostModel::default();
    let opts = InferOptions::default();
    let mut rows = Vec::new();
    for (ws, is_strided) in [(strided, true), (rest, false)] {
        for w in ws {
            let noopt = runner::run_cured_loop_opt(&w, &opts, false, false)
                .expect("fig-opt2 cure (no-opt)");
            let elim = runner::run_cured_loop_opt(&w, &opts, true, false)
                .expect("fig-opt2 cure (elim-only)");
            let full =
                runner::run_cured_loop_opt(&w, &opts, true, true).expect("fig-opt2 cure (full)");
            assert_eq!(
                full.stats.output, noopt.stats.output,
                "{}: optimizer changed program output",
                w.name
            );
            assert_eq!(
                full.stats.error, noopt.stats.error,
                "{}: optimizer changed the verdict",
                w.name
            );
            rows.push(Opt2Row {
                name: w.name.clone(),
                strided: is_strided,
                noopt: model.check_cycles(&noopt.stats.counters),
                elim: model.check_cycles(&elim.stats.counters),
                full: model.check_cycles(&full.stats.counters),
                hoisted: full.cured.report.checks_hoisted,
                widened: full.cured.report.checks_widened,
            });
        }
    }
    Opt2Fig { rows }
}

/// E16 (`fig-serve`): the cure daemon's warm paths against its own cold
/// pass over the micro+Olden corpus.
#[derive(Debug, Clone)]
pub struct ServeFig {
    /// Units in the corpus.
    pub units: usize,
    /// Wall-clock of the cold pass (empty unit cache).
    pub cold: std::time::Duration,
    /// Wall-clock of re-requesting identical sources (whole-unit cache
    /// hits — the CI/rebuild shape).
    pub warm_identical: std::time::Duration,
    /// Wall-clock after appending one function to every unit (unit-cache
    /// misses, each a full cure — the editor save-loop shape).
    pub warm_touched: std::time::Duration,
    /// Whether every touched-pass report digest matched a cold full batch
    /// over the same (modified) tree — the byte-identity guarantee.
    pub digests_match: bool,
    /// Median per-request reply latency across all three passes.
    pub reply_p50: std::time::Duration,
    /// 99th-percentile per-request reply latency across all three passes.
    pub reply_p99: std::time::Duration,
}

impl ServeFig {
    /// `cold / warm_identical` — what the resident unit cache buys.
    pub fn identical_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm_identical.as_secs_f64().max(1e-9)
    }

    /// `cold / warm_touched` — what a resident server buys on a real edit.
    pub fn touched_speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm_touched.as_secs_f64().max(1e-9)
    }

    /// `BENCH_serve.json` over the three passes; the touched pass fails
    /// when its digests do not match the cold batch.
    pub fn record(&self) -> Record {
        let s = |d: std::time::Duration| d.as_secs_f64();
        let mut r = Record::new(3);
        r.failed = u64::from(!self.digests_match);
        r.metrics([
            ("serve.units", self.units as f64, "count"),
            ("serve.cold_s", s(self.cold), "s"),
            ("serve.warm_identical_s", s(self.warm_identical), "s"),
            ("serve.warm_touched_s", s(self.warm_touched), "s"),
            ("serve.identical_speedup", self.identical_speedup(), "x"),
            ("serve.touched_speedup", self.touched_speedup(), "x"),
            ("serve.reply_p50_ms", s(self.reply_p50) * 1e3, "ms"),
            ("serve.reply_p99_ms", s(self.reply_p99) * 1e3, "ms"),
        ]);
        r
    }
}

/// E16 (`fig-serve`): measure the daemon over [`batch_corpus`] via real
/// socket requests. `smoke` shrinks the corpus for CI.
///
/// # Errors
///
/// I/O errors writing the corpus, starting the daemon, or talking to it.
#[cfg(unix)]
pub fn fig_serve(smoke: bool) -> std::io::Result<ServeFig> {
    use ccured_batch::{request, run_batch, BatchConfig, ServeConfig, Server};
    use std::time::Instant;

    // One directory (and socket) per call: concurrent calls in one process
    // must not share a corpus or steal each other's socket path.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ccured-fig-serve-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let result = (|| {
        let mut corpus = batch_corpus();
        if smoke {
            corpus.truncate(4);
        }
        let units = ccured_workloads::write_units(&dir.join("src"), &corpus)?;

        let mut cfg = ServeConfig::new(dir.join("cc.sock"));
        cfg.cache_dir = Some(dir.join("cache"));
        cfg.workers = 2;
        let mut srv = Server::start(cfg)?;
        let sock = srv.socket().to_path_buf();
        // Every request's wall-clock feeds the reply-latency percentiles.
        let latencies = std::cell::RefCell::new(Vec::new());
        let cure = |u: &std::path::PathBuf| {
            let t = Instant::now();
            let r = request(&sock, &format!("cure {}", u.display()));
            latencies.borrow_mut().push(t.elapsed());
            r
        };

        let t = Instant::now();
        for u in &units {
            let r = cure(u)?;
            assert!(r.contains("\"status\":\"ok\""), "{}: {r}", u.display());
        }
        let cold = t.elapsed();

        // Identical bytes: resident whole-unit cache hits.
        let t = Instant::now();
        for u in &units {
            let r = cure(u)?;
            assert!(r.contains("\"from_cache\":true"), "{}: {r}", u.display());
        }
        let warm_identical = t.elapsed();

        // The editor save-loop: one appended function per unit, everything
        // else unchanged — every request misses the unit cache.
        for u in &units {
            let src = std::fs::read_to_string(u)?;
            std::fs::write(
                u,
                format!("{src}\nint ccured_fig_serve_extra(int v) {{ return v + 1; }}\n"),
            )?;
        }
        let mut warm_digests = Vec::new();
        let t = Instant::now();
        for u in &units {
            let r = cure(u)?;
            assert!(r.contains("\"status\":\"ok\""), "{}: {r}", u.display());
            warm_digests.push(
                r.split("\"digest\":\"")
                    .nth(1)
                    .and_then(|s| s.split('"').next())
                    .unwrap_or("")
                    .to_string(),
            );
        }
        let warm_touched = t.elapsed();
        srv.stop();

        // Byte-identity spot check: the warm digests must equal a cold
        // full batch over the modified tree.
        let mut bcfg = BatchConfig::new(ccured::Curer::new());
        bcfg.use_cache = false;
        let ground = run_batch(&bcfg, &units)?;
        let digests_match = ground
            .units
            .iter()
            .zip(&warm_digests)
            .all(|(u, d)| format!("{:016x}", u.report_digest) == *d);

        let mut lat = latencies.into_inner();
        lat.sort_unstable();
        let pct = |p: usize| lat[(lat.len() - 1) * p / 100];

        Ok(ServeFig {
            units: units.len(),
            cold,
            warm_identical,
            warm_touched,
            digests_match,
            reply_p50: pct(50),
            reply_p99: pct(99),
        })
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// E17 (`fig-synth`): a generative differential-soundness campaign over a
/// synthesized corpus (see `ccured-synth`): all four profiles, batch cure,
/// tree-vs-VM differential, and the fault-injection matrix per unit.
#[derive(Debug, Clone)]
pub struct SynthFig {
    /// The full campaign report (histograms, outcome matrix, verdicts).
    pub report: ccured_synth::CampaignReport,
}

impl SynthFig {
    /// Worst per-profile pointer-kind deviation from target, in points.
    pub fn max_deviation(&self) -> f64 {
        self.report
            .profiles
            .iter()
            .map(ccured_synth::ProfileStat::max_deviation)
            .fold(0.0, f64::max)
    }

    /// `BENCH_synth.json` over the campaign's units and mutants; each
    /// escape, divergence and cure failure is a failed row. The per-class
    /// and per-profile metrics are keyed by class and profile name.
    pub fn record(&self) -> Record {
        let rep = &self.report;
        let mut r = Record::new(rep.units + rep.mutants as usize);
        r.failed = (rep.escapes.len() + rep.divergences.len() + rep.cure_failures.len()) as u64;
        let (caught, escaped, masked, limit, invalid) = rep.outcome_totals();
        let n = |x: usize| x as f64;
        r.metrics([
            ("synth.seed", rep.seed as f64, "seed"),
            ("synth.units", n(rep.units), "count"),
            ("synth.mutants_per_unit", n(rep.mutants_per_unit), "count"),
            ("synth.jobs", n(rep.jobs), "count"),
            ("synth.mutants", rep.mutants as f64, "count"),
            ("synth.caught", caught as f64, "count"),
            ("synth.escaped", escaped as f64, "count"),
            ("synth.masked", masked as f64, "count"),
            ("synth.resource_exhausted", limit as f64, "count"),
            ("synth.invalid", invalid as f64, "count"),
            ("synth.divergences", n(rep.divergences.len()), "count"),
            ("synth.cure_failures", n(rep.cure_failures.len()), "count"),
            ("synth.cache_hit_rate", rep.cache_hit_rate, "ratio"),
            ("synth.wall_s", rep.wall.as_secs_f64(), "s"),
        ]);
        for (class, c) in FaultClass::ALL.iter().zip(&rep.classes) {
            let limit = c.resource_exhausted as f64;
            r.row(
                class.name(),
                [
                    ("synth.total", c.total as f64, "count"),
                    ("synth.caught", c.caught as f64, "count"),
                    ("synth.escaped", c.escaped as f64, "count"),
                    ("synth.masked", c.masked as f64, "count"),
                    ("synth.resource_exhausted", limit, "count"),
                    ("synth.invalid", c.invalid as f64, "count"),
                ],
            );
        }
        for p in &rep.profiles {
            let (t, m) = (p.target, p.measured);
            let within = p.within(ccured_synth::KIND_TOLERANCE_PCT);
            r.row(
                &p.name,
                [
                    ("synth.units", n(p.units), "count"),
                    ("synth.pointers", p.pointers as f64, "count"),
                    ("synth.target_safe_pct", t.0, "%"),
                    ("synth.target_seq_pct", t.1, "%"),
                    ("synth.target_wild_pct", t.2, "%"),
                    ("synth.target_rtti_pct", t.3, "%"),
                    ("synth.measured_safe_pct", m.0, "%"),
                    ("synth.measured_seq_pct", m.1, "%"),
                    ("synth.measured_wild_pct", m.2, "%"),
                    ("synth.measured_rtti_pct", m.3, "%"),
                    ("synth.max_deviation", p.max_deviation(), "points"),
                    ("synth.within_tolerance", u8::from(within).into(), "bool"),
                ],
            );
        }
        r
    }
}

/// E17: run the campaign. `smoke` shrinks the corpus for CI; the full size
/// clears the 500-unit acceptance bar with all six fault classes seeded.
///
/// # Errors
///
/// I/O errors writing the generated corpus to the scratch directory.
pub fn fig_synth(smoke: bool) -> std::io::Result<SynthFig> {
    let dir = std::env::temp_dir().join(format!("ccured-fig-synth-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ccured_synth::CampaignConfig::new(dir.clone());
    cfg.units = if smoke { 16 } else { 520 };
    cfg.mutants_per_unit = if smoke { 2 } else { 4 };
    let report = ccured_synth::run_campaign(&cfg);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(SynthFig { report: report? })
}

/// E20 (`fig-hierarchy`): one `ijpeg_oo` chain's hierarchy build.
#[derive(Debug, Clone)]
pub struct HierarchyRow {
    /// Types in the chain.
    pub types: u32,
    /// Source lines of the unit.
    pub lines: usize,
    /// Hierarchy nodes, the `void` root included.
    pub nodes: usize,
    /// Exact comparisons of one build: the coinductive ones in `PhysCtx`
    /// plus the parent search's class-layout prefix tests.
    pub comparisons: u64,
    /// Best-of-`reps` wall-clock of `Hierarchy::build`.
    pub build: std::time::Duration,
}

/// E20 (`fig-hierarchy`): the whole table.
#[derive(Debug, Clone)]
pub struct HierarchyFig {
    /// One row per chain length.
    pub rows: Vec<HierarchyRow>,
    /// Timing repetitions per unit (best-of).
    pub reps: u32,
}

impl HierarchyFig {
    /// `BENCH_hierarchy.json`, one row per chain length.
    pub fn record(&self) -> Record {
        let mut r = Record::new(self.rows.len());
        for row in &self.rows {
            r.row(
                row.types,
                [
                    ("hierarchy.lines", row.lines as f64, "count"),
                    ("hierarchy.nodes", row.nodes as f64, "count"),
                    ("hierarchy.comparisons", row.comparisons as f64, "count"),
                    ("hierarchy.build_s", row.build.as_secs_f64(), "s"),
                ],
            );
        }
        r.metrics([("hierarchy.reps", self.reps.into(), "count")]);
        r
    }
}

/// E20 (`fig-hierarchy`): `Hierarchy::build` on the `ijpeg_oo(n, 28)`
/// chain, n = 50/100/150/200 (about 2k–8k lines), each unit parsed and
/// lowered without the wrapper prelude and built best-of-20, round-robin
/// across the four units. `smoke` times best-of-3 for CI.
pub fn fig_hierarchy(smoke: bool) -> HierarchyFig {
    use ccured::Hierarchy;
    use ccured_cil::phys::PhysCtx;
    const TYPES: [u32; 4] = [50, 100, 150, 200];
    let reps = if smoke { 3 } else { 20 };
    let units = TYPES.map(|types| {
        let w = spec::ijpeg_oo(types, 28);
        let tu = ccured_ast::parse_translation_unit(&w.source).expect("fig-hierarchy parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("fig-hierarchy lower");
        (w.source.lines().count(), prog)
    });
    let timed: [_; 4] = time_round_robin(reps, |i| &units[i].1, Hierarchy::build);
    let rows = TYPES
        .iter()
        .zip(&units)
        .zip(timed)
        .map(|((&types, (lines, prog)), (build, h))| {
            let mut phys = PhysCtx::new(&prog.types);
            let (_, tests) = Hierarchy::build_with(prog, &mut phys);
            HierarchyRow {
                types,
                lines: *lines,
                nodes: h.len(),
                comparisons: phys.comparisons() + tests,
                build,
            }
        })
        .collect();
    HierarchyFig { rows, reps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured::{KeepReason, OperandShape, OptAction};
    use ccured_cil::ir::{Check, Exp, Instr, LvBase};
    use ccured_cil::visit;
    use std::collections::{HashMap, HashSet};

    /// E13/E18: the bytecode VM must beat the tree-walking reference
    /// engine by ≥2.2× geomean on the Figure-9 corpus. The design target
    /// of 5× is unreachable while both engines execute the identical
    /// check/metadata machinery (see EXPERIMENTS.md E13 for the
    /// accounting).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "wall-clock ratio is only meaningful in release"
    )]
    fn fig_interp_vm_beats_tree() {
        let f = fig_interp(true);
        for r in &f.rows {
            assert!(r.steps > 0, "{}: no guest steps recorded", r.name);
        }
        let g = f.geomean_speedup();
        println!("E13 floor: vm {g:.2}x (floor 2.2x)");
        assert!(
            g >= 2.2,
            "bytecode VM must be ≥2.2× the tree engine (geomean), got {g:.2}×"
        );
    }

    /// E19: the temporal cure must execute key checks on the corpus, add
    /// guest steps only (never remove any), and agree across engines —
    /// [`fig_temporal`] asserts the cross-engine step/check equality
    /// internally, so this test is also that assertion's smoke run.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "full corpus is release-sized; debug runs take minutes"
    )]
    fn fig_temporal_counts_checks_and_engines_agree() {
        let f = fig_temporal(true);
        assert!(
            f.rows.iter().any(|r| r.temporal_checks > 0),
            "corpus must execute temporal key checks"
        );
        for r in &f.rows {
            assert!(r.steps_plain > 0, "{}: no guest steps recorded", r.name);
            assert!(
                r.steps_temporal >= r.steps_plain,
                "{}: temporal cure removed guest steps ({} < {})",
                r.name,
                r.steps_temporal,
                r.steps_plain
            );
        }
    }

    /// E19: temporal checking must stay cheap — a key compare per deref,
    /// not a shadow-memory walk. The ceiling sits at 1.5× geomean per
    /// engine (measured ~1.1–1.2×), well clear of the Valgrind-class
    /// order-of-magnitude cost the paper contrasts against.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "wall-clock ratio is only meaningful in release"
    )]
    fn fig_temporal_overhead_under_ceiling() {
        let f = fig_temporal(true);
        let tree = f.geomean_overhead_tree();
        let vm = f.geomean_overhead_vm();
        println!("E19 ceiling: tree {tree:.2}x, vm {vm:.2}x (ceiling 1.5x)");
        assert!(
            tree <= 1.5,
            "temporal overhead on the tree engine must be ≤1.5× (geomean), got {tree:.2}×"
        );
        assert!(
            vm <= 1.5,
            "temporal overhead on the VM must be ≤1.5× (geomean), got {vm:.2}×"
        );
    }

    /// E19: the record carries both per-engine geomeans and the raw
    /// counters the overhead is computed from.
    #[test]
    fn fig_temporal_json_records_overheads() {
        let f = TemporalFig {
            rows: vec![TemporalRow {
                name: "w".into(),
                steps_plain: 100,
                steps_temporal: 120,
                temporal_checks: 20,
                tree_plain: std::time::Duration::from_micros(800),
                tree_temporal: std::time::Duration::from_micros(1000),
                vm_plain: std::time::Duration::from_micros(400),
                vm_temporal: std::time::Duration::from_micros(440),
            }],
            reps: 2,
        };
        let r = f.record();
        let j = r.json();
        assert!(
            j.starts_with(r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"#),
            "{j}"
        );
        let value = |name| r.value(name).unwrap_or_else(|| panic!("no {name}: {j}"));
        assert!(
            (value("temporal.geomean_tree_overhead") - 1.25).abs() < 5e-4,
            "{j}"
        );
        assert!(
            (value("temporal.geomean_vm_overhead") - 1.1).abs() < 5e-4,
            "{j}"
        );
        assert_eq!(value("temporal.checks.w"), 20.0);
        assert_eq!(value("temporal.steps.w"), 120.0);
    }

    /// E14: the profile figure's internal cross-engine assertion must hold
    /// over the smoke corpus, the corpus must actually exercise checks, and
    /// the eliminator must leave some hot sites behind to explain.
    #[test]
    fn fig_profile_finds_hot_sites_and_engines_agree() {
        let f = fig_profile(true);
        assert!(
            f.rows.iter().all(|r| r.total_hits > 0),
            "corpus runs checks"
        );
        assert!(
            f.rows.iter().any(|r| r.unelided_hot > 0),
            "some hot sites survive the eliminator"
        );
        for r in &f.rows {
            assert!(r.hot_sites <= r.sites);
            assert!(r.top_share > 0.0 && r.top_share <= 1.0 + 1e-9, "{}", r.name);
            assert!(!r.top.is_empty(), "{}: no top sites", r.name);
        }
        let r = f.record();
        assert!(
            r.correct() && r.attempted == f.rows.len() as u64,
            "{}",
            r.json()
        );
        for w in &f.rows {
            let kept = r.value(&format!("profile.unelided_hot.{}", w.name));
            assert_eq!(kept, Some(w.unelided_hot as f64), "{}", r.json());
        }
    }

    /// Whether `e` is a place the eliminator tracks: a whole local, or a
    /// whole global whose address the program never takes (`taken`).
    fn tracked_place(e: &Exp, taken: &HashSet<u32>) -> bool {
        matches!(e, Exp::Load(lv, _) if lv.offsets.is_empty() && match &lv.base {
            LvBase::Local(_) => true,
            LvBase::Global(g) => !taken.contains(&g.0),
            LvBase::Deref(_) => false,
        })
    }

    /// The shape of an operand that is no tracked place, read off the IR.
    fn operand_shape(e: &Exp, taken: &HashSet<u32>) -> OperandShape {
        match e {
            Exp::Binop(op, ..) if op.is_pointer_arith() => OperandShape::PtrArith,
            Exp::Cast(..) => OperandShape::Cast,
            Exp::Load(lv, _) => match &lv.base {
                LvBase::Deref(_) => OperandShape::ThroughMemory,
                _ if !lv.offsets.is_empty() => OperandShape::AggregatePart,
                LvBase::Global(g) if taken.contains(&g.0) => OperandShape::AddrTakenGlobal,
                _ => panic!("a tracked place has no untracked shape"),
            },
            _ => OperandShape::Other,
        }
    }

    /// The operand a check's facts are keyed on: null, RTTI and temporal
    /// checks look through casts, the others do not.
    fn keyed_operand(c: &Check) -> &Exp {
        let mut e = c.operand().expect("a plain check");
        if matches!(
            c.kind(),
            Some(CheckKind::Null | CheckKind::Rtti | CheckKind::Temporal)
        ) {
            while let Exp::Cast(_, inner, _) = e {
                e = inner;
            }
        }
        e
    }

    /// Checks every site's keep-reason against the cured IR it explains.
    fn assert_reasons_match_ir(cured: &ccured::Cured, what: &str) {
        let prog = &cured.program;
        let mut taken = HashSet::new();
        let mut note = |e: &Exp| {
            if let Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) = e {
                if let LvBase::Global(g) = lv.base {
                    taken.insert(g.0);
                }
            }
        };
        for f in &prog.functions {
            visit::for_each_exp(&f.body, &mut note);
        }
        for g in &prog.globals {
            if let Some(init) = &g.init {
                visit::for_each_init_exp(init, &mut note);
            }
        }
        let mut surviving: HashMap<u32, Vec<&Check>> = HashMap::new();
        for f in &prog.functions {
            visit::for_each_instr(&f.body, &mut |i| {
                if let Instr::Check(c, _, site) = i {
                    if site.index().is_some() {
                        surviving.entry(site.0).or_default().push(c);
                    }
                }
            });
        }
        for s in &cured.sites {
            let checks = surviving.remove(&s.id.0).unwrap_or_default();
            let at = format!("{what}: {} site {} in {}", s.kind.name(), s.id.0, s.func);
            let Some(why) = &s.keep else {
                assert!(checks.is_empty(), "{at}: checks survive without a reason");
                continue;
            };
            // A probe summarizes one check when hoisted, and the check plus
            // the whole-trip endpoint when widened.
            let probed = checks.iter().find_map(|c| match c {
                Check::Probe { inner, .. } => Some(inner.len()),
                _ => None,
            });
            assert_eq!(
                probed.is_some(),
                matches!(why, KeepReason::Rewritten(_)),
                "{at}: the reason and the rewritten checks disagree ({why})"
            );
            let plain = || checks.iter().filter(|c| c.operand().is_some());
            let witnessed = match why {
                KeepReason::Rewritten(action) => {
                    probed == Some(if *action == OptAction::Widened { 2 } else { 1 })
                        && checks.iter().any(|c| matches!(c, Check::Guarded { .. }))
                }
                KeepReason::Untracked(shape) => plain().any(|c| {
                    let e = keyed_operand(c);
                    !tracked_place(e, &taken) && operand_shape(e, &taken) == *shape
                }),
                KeepReason::Unproven(CheckKind::NoStackEscape) => {
                    s.kind == CheckKind::NoStackEscape && plain().next().is_some()
                }
                KeepReason::Unproven(kind) | KeepReason::ShortAccess { kind, .. } => {
                    *kind == s.kind && plain().any(|c| tracked_place(keyed_operand(c), &taken))
                }
                KeepReason::IndexRange { .. } => {
                    plain().any(|c| tracked_place(keyed_operand(c), &taken))
                }
                KeepReason::VariableIndex => plain().any(|c| {
                    let e = keyed_operand(c);
                    !tracked_place(e, &taken) && !matches!(e, Exp::Const(..))
                }),
                // Reachability is the CFG's to judge; an `elim` unit test
                // covers it.
                KeepReason::Unreachable => plain().next().is_some(),
                KeepReason::AlwaysFails(m) => cured
                    .report
                    .static_failures
                    .iter()
                    .any(|f| f.message == *m && f.func == s.func),
            };
            assert!(witnessed, "{at}: the IR does not bear out {why:?} ({why})");
        }
        assert!(
            surviving.is_empty(),
            "{what}: checks stamped with no known site"
        );
    }

    /// Every keep-reason is true of the cured IR: over the `examples/c`
    /// units and the E14 corpus (full and smoke), without and with
    /// `--temporal`, a site with a surviving check has a reason, a site
    /// is rewritten exactly when its probe and guarded residual survive,
    /// and an untracked reason names the shape of its check's operand. A
    /// rewritten site may also keep a plain check the loop passes left
    /// alone (`m[r][r]` in `matrix.c`): the rewrite names the site.
    #[test]
    fn keep_reasons_are_borne_out_by_the_cured_ir() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/c");
        let mut units: Vec<(String, ccured::Curer, String)> = std::fs::read_dir(&dir)
            .expect("examples/c exists")
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "c"))
            .map(|p| {
                let src = std::fs::read_to_string(&p).expect("readable example");
                (p.display().to_string(), ccured::Curer::new(), src)
            })
            .collect();
        units.sort_by(|a, b| a.0.cmp(&b.0));
        assert!(units.len() >= 6, "examples/c holds the example units");
        for w in profile_corpus(true)
            .into_iter()
            .chain(profile_corpus(false))
        {
            units.push((w.name.clone(), w.curer(), w.source));
        }
        let mut untracked = 0;
        for (name, mut curer, src) in units {
            for temporal in [false, true] {
                let cured = curer
                    .temporal(temporal)
                    .cure_source(&src)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_reasons_match_ir(&cured, &format!("{name} (temporal: {temporal})"));
                untracked += cured
                    .sites
                    .iter()
                    .filter(|s| matches!(s.keep, Some(KeepReason::Untracked(_))))
                    .count();
            }
        }
        assert!(untracked > 0, "the corpus keeps untracked operands");
    }

    /// E14: enabling per-site profiling must cost <5% wall-clock over the
    /// Figure 9 corpus (the whole point of the single-branch off switch and
    /// the slot-bump hot path).
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "wall-clock overhead is only meaningful in release"
    )]
    fn profiling_overhead_under_five_percent() {
        let o = profile_overhead(5);
        assert!(
            o < 1.05,
            "profiling must cost <5% wall-clock, measured {:.1}%",
            (o - 1.0) * 100.0
        );
    }

    /// E15: the loop passes never add executed-check cost anywhere, win
    /// strictly on every strided workload, and the report attributes the
    /// wins (widened > 0 where the win came from widening).
    #[test]
    fn fig_opt2_never_regresses_and_attributes_wins() {
        let f = fig_opt2(true);
        for r in &f.rows {
            assert!(
                r.full <= r.elim + 1e-9,
                "{}: loop passes added check cost ({} > {})",
                r.name,
                r.full,
                r.elim
            );
            assert!(
                r.elim <= r.noopt + 1e-9,
                "{}: eliminator added check cost",
                r.name
            );
            if r.strided {
                assert!(r.widened > 0, "{}: strided loop must widen", r.name);
                assert!(r.full < r.elim, "{}: widening must win", r.name);
            }
        }
        let r = f.record();
        assert!(
            r.correct() && r.attempted == f.rows.len() as u64,
            "{}",
            r.json()
        );
        assert!(
            r.value("opt2.geomean_reduction_strided").is_some(),
            "{}",
            r.json()
        );
    }

    /// E15 headline: ≥15% geometric-mean executed-check-cost reduction on
    /// the strided workloads, full-size corpus. The metric is
    /// deterministic (counters × cost model), but the full corpus is too
    /// slow for debug CI, so the smoke-size shape test above carries the
    /// always-on coverage.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "full-size corpus is only run in release")]
    fn fig_opt2_strided_reduction_at_least_fifteen_percent() {
        let f = fig_opt2(false);
        let g = f.geomean_reduction_strided();
        assert!(
            g >= 0.15,
            "loop optimizer must cut ≥15% of executed-check cost on strided \
             workloads (geomean), got {:.1}%",
            g * 100.0
        );
    }

    /// E20: one row per chain length, growing with the chain, and the
    /// exact comparisons stay near-linear in it (the quadratic builder
    /// made 245007 at 200 types).
    #[test]
    fn fig_hierarchy_rows_grow_near_linearly() {
        let f = fig_hierarchy(true);
        let r = f.record();
        assert!(r.correct() && r.attempted == 4, "{}", r.json());
        for w in f.rows.windows(2) {
            assert!(w[0].lines < w[1].lines && w[0].nodes < w[1].nodes, "{w:?}");
        }
        let (small, large) = (&f.rows[1], &f.rows[3]);
        assert!(
            (large.comparisons as f64) < 2.5 * small.comparisons as f64,
            "doubling the chain from {} to {} types: {} -> {} comparisons",
            small.types,
            large.types,
            small.comparisons,
            large.comparisons
        );
        assert_eq!(r.value("hierarchy.nodes.200"), Some(large.nodes as f64));
    }

    #[test]
    fn ijpeg_shape_matches_paper() {
        let r = ijpeg_experiment(12, 4);
        assert!(
            r.old_wild_pct >= 30,
            "original CCured drowns in WILD: {}",
            r.old_wild_pct
        );
        assert_eq!(r.new_wild_pct, 0, "RTTI eliminates WILD");
        assert!(r.new_rtti_pct > 0);
        assert!(
            r.old_ratio > r.new_ratio,
            "RTTI reduces the slowdown: {} -> {}",
            r.old_ratio,
            r.new_ratio
        );
    }

    #[test]
    fn fig_batch_warm_cache_wins() {
        let f = fig_batch(2).expect("fig-batch runs");
        assert_eq!(f.units, ccured_workloads::batch_corpus().len());
        assert!(
            (f.warm_hit_rate - 1.0).abs() < f64::EPSILON,
            "warm run must be all hits, got {}",
            f.warm_hit_rate
        );
        assert!(
            f.warm_speedup() >= 5.0,
            "warm-cache rerun must be ≥5× faster, got {:.2}×",
            f.warm_speedup()
        );
    }

    /// E16 shape: both warm paths work, and the recure of the edited
    /// units is digest-identical to a cold batch.
    #[cfg(unix)]
    #[test]
    fn fig_serve_shape_smoke() {
        let f = fig_serve(true).expect("fig-serve runs");
        assert!(f.units >= 2);
        assert!(f.digests_match, "warm recure diverged from cold batch");
    }

    /// E17 shape: a smoke-size campaign must be sound (no escapes, no
    /// engine divergences, every unit cures) and land its pointer-kind
    /// histograms within tolerance of the requested profiles.
    #[test]
    fn fig_synth_smoke_campaign_is_sound_and_on_target() {
        let f = fig_synth(true).expect("fig-synth runs");
        assert!(f.report.ok(), "campaign unsound:\n{}", f.report.render());
        assert!(
            f.report.histograms_within(ccured_synth::KIND_TOLERANCE_PCT),
            "histograms off target by {:.1} points:\n{}",
            f.max_deviation(),
            f.report.render()
        );
        let r = f.record();
        assert!(r.correct() && r.failed == 0, "{}", r.json());
    }

    /// E16 floor: the resident unit cache must make an unchanged re-request
    /// ≥3× faster than the cold cure. Wall-clock ratios are only meaningful
    /// in release.
    #[cfg(unix)]
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "wall-clock ratio is only meaningful in release"
    )]
    fn fig_serve_warm_beats_cold() {
        let f = fig_serve(false).expect("fig-serve runs");
        assert!(f.digests_match, "warm recure diverged from cold batch");
        assert!(
            f.identical_speedup() >= 3.0,
            "unit-cache warm path must be ≥3× faster, got {:.2}×",
            f.identical_speedup()
        );
    }

    /// Figure 9 is deterministic: every column comes from the cost model
    /// and the static cure, so two runs print the same table.
    #[test]
    fn fig9_rows_are_reproducible() {
        assert_eq!(fig9(), fig9());
    }

    #[test]
    fn fig9_sandbox_overhead_is_under_two_percent() {
        for row in fig9() {
            assert!(
                row.sandbox_overhead < 0.02,
                "{}: sandbox accounting costs {:.2}% of the cured run",
                row.name,
                row.sandbox_overhead * 100.0
            );
        }
    }

    #[test]
    fn security_scenarios_prevented() {
        for row in security() {
            assert!(row.prevented, "{}: {}", row.name, row.cured);
        }
    }

    #[test]
    fn metadata_lookup_favors_fat_pointers() {
        let (ccured, jk) = metadata_lookup(30);
        assert!(
            jk > ccured,
            "per-pointer metadata beats the global registry: {ccured} vs {jk}"
        );
    }

    #[test]
    fn ablation_is_a_staircase() {
        let rows = ablation(8, 3);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].wild_pct > rows[2].wild_pct);
        assert!(rows[0].ratio >= rows[2].ratio);
        assert_eq!(rows[2].wild_pct, 0);
    }
}
