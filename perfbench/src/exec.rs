//! The `exec` workload: cured programs running on both engines.
//!
//! Nearly all of the work is in `ccured_rt` (dispatch, checks, the memory
//! model's provenance map, the libc shims); none of it is in the cure
//! pipeline, which runs once in set-up.

use crate::common::{
    ir_instrs, parsed_text, peak_rss_mb, prelude_bytes, run_original, secs, Digest, HostClock,
    RunOut,
};
use crate::corpus::{self, POINTER_HEAVY, SCALAR_HEAVY};
use crate::report::{Outcome, EXEC_PROGRAMS};
use crate::stats::{geomean, median, tail};
use crate::trace::Tracer;
use crate::Args;
use ccured::Cured;
use ccured_rt::{CostModel, Engine, ExecMode, TierMode};
use ccured_workloads::prng::SplitMix64;
use ccured_workloads::Workload;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest timed passes per engine, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

struct Prepared {
    corpus: Vec<Workload>,
    cured: Vec<Cured>,
    texts: Vec<String>,
    print_s: f64,
}

/// Generates the corpus and cures it once (the timed set-up), then prints
/// the cured text (untimed; it feeds the determinism digest).
fn prepare(seed: u64) -> (Prepared, f64) {
    let t = Instant::now();
    let corpus = corpus::exec_corpus(seed);
    let cured: Vec<Cured> = corpus
        .iter()
        .map(|w| {
            crate::common::curer_for(w.with_wrappers)
                .cure_source(&w.source)
                .expect("exec corpus cures")
        })
        .collect();
    let setup = secs(t);
    let t = Instant::now();
    let texts = cured
        .iter()
        .map(|c| ccured_cil::pretty::dump_program(&c.program))
        .collect();
    let print_s = secs(t);
    (
        Prepared {
            corpus,
            cured,
            texts,
            print_s,
        },
        setup,
    )
}

/// Digest of a set-up's cure: cured text and check counts.
fn setup_digest(p: &Prepared) -> u64 {
    let mut d = Digest::default();
    for (c, text) in p.cured.iter().zip(&p.texts) {
        d.add(ccured_batch::hash::fnv1a(text.as_bytes()));
        d.add(c.report.checks_inserted.total() as u64);
        d.add(c.report.checks_elided.total());
    }
    d.value()
}

/// One configuration a pass runs every program under.
#[derive(Clone, Copy, PartialEq)]
enum Config {
    Vm,
    Tree,
    OrigVm,
    UntieredVm,
}

impl Config {
    fn span(self) -> &'static str {
        match self {
            Config::Vm => "pass.vm",
            Config::Tree => "pass.tree",
            Config::OrigVm => "pass.orig_vm",
            Config::UntieredVm => "pass.untiered_vm",
        }
    }
}

struct Pass {
    config: Config,
    traced: bool,
    pass_no: u32,
    wall: f64,
    /// Scales this pass to the reference host speed.
    host: f64,
    runs: Vec<(usize, f64, RunOut)>,
}

/// Runs every program once under `config`, in `order`.
fn run_pass(
    p: &Prepared,
    originals: &[ccured_cil::Program],
    order: &[usize],
    config: Config,
    tr: &mut Tracer,
) -> (f64, Vec<(usize, f64, RunOut)>) {
    let mut runs = Vec::with_capacity(order.len());
    let t = Instant::now();
    tr.begin(config.span(), None);
    for &i in order {
        let c = &p.cured[i];
        let (prog, mode) = match config {
            Config::OrigVm => (&originals[i], ExecMode::Original),
            _ => (&c.program, ExecMode::cured(c)),
        };
        let (engine, tier) = match config {
            Config::Tree => (Engine::Tree, TierMode::default()),
            Config::UntieredVm => (Engine::Vm, TierMode::Off),
            _ => (Engine::Vm, TierMode::default()),
        };
        let t0 = Instant::now();
        tr.begin("program", Some(i as u64));
        let mut interp = tr.span("interp.new", || ccured_rt::Interp::new(prog, mode));
        interp.set_engine(engine);
        interp.set_tiering(tier);
        interp.set_input(p.corpus[i].input.clone());
        let exit = tr.span("interp.run", || interp.run().map_err(|e| e.to_string()));
        tr.end();
        let dt = secs(t0);
        runs.push((
            i,
            dt,
            RunOut {
                exit,
                counters: interp.counters,
                output: ccured_batch::hash::fnv1a(interp.output()),
                tiers: interp.tier_stats(),
            },
        ));
    }
    tr.end();
    (secs(t), runs)
}

/// Runs the `exec` workload.
pub fn run(args: &Args, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // One set-up serves the timed window; the others only time set-up,
    // after the window, so the peak RSS read at its end covers one.
    let mut clock = HostClock::new();
    let ((p, first), host) = clock.measure(1, || prepare(args.seed));
    let mut setups = vec![first];
    let mut setup_host = vec![host];
    let digest = setup_digest(&p);
    assert_eq!(
        p.corpus.iter().map(|w| w.name.as_str()).collect::<Vec<_>>(),
        EXEC_PROGRAMS,
        "per-program metric names follow the corpus"
    );

    // The uncured originals, lowered once outside the timed window.
    let originals: Vec<ccured_cil::Program> = p
        .corpus
        .iter()
        .map(|w| {
            let tu = ccured_ast::parse_translation_unit(&parsed_text(w.with_wrappers, &w.source))
                .expect("exec unit parses");
            ccured_cil::lower_translation_unit(&tu).expect("exec unit lowers")
        })
        .collect();

    let mut order: Vec<usize> = (0..p.corpus.len()).collect();
    let mut rng = SplitMix64::new(args.seed ^ 0x6f72_6465);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }

    // The timed window. Untraced runs alternate a VM pass and a tree pass;
    // the traced run cycles through traced and untraced copies of both
    // plus the two attribution configurations.
    let cycle: Vec<(Config, bool)> = if args.trace {
        vec![
            (Config::Vm, false),
            (Config::Vm, true),
            (Config::Tree, false),
            (Config::Tree, true),
            (Config::OrigVm, true),
            (Config::UntieredVm, true),
        ]
    } else {
        vec![(Config::Vm, false), (Config::Tree, false)]
    };
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut n = 0usize;
    while secs(start) < args.seconds || n < MIN_PASSES * cycle.len() {
        let (config, traced) = cycle[n % cycle.len()];
        let pass_no = n as u32 + 1;
        let ((wall, runs), host) = clock.measure(1, || {
            if traced {
                tr.set_pass(pass_no);
                run_pass(&p, &originals, &order, config, tr)
            } else {
                let mut off = Tracer::new(false, start);
                run_pass(&p, &originals, &order, config, &mut off)
            }
        });
        passes.push(Pass {
            config,
            traced,
            pass_no,
            wall,
            host,
            runs,
        });
        n += 1;
    }
    let rss = peak_rss_mb();
    for _ in 1..SETUPS {
        let ((q, t), host) = clock.measure(1, || prepare(args.seed));
        setups.push(t);
        setup_host.push(host);
        if setup_digest(&q) != digest {
            out.fail("cured text differs between set-ups of the same seed".into());
        }
    }

    // Correctness gates, outside the timed window.
    let refs: Vec<RunOut> = p.corpus.iter().map(run_original).collect();
    let first_vm = passes
        .iter()
        .find(|q| q.config == Config::Vm)
        .expect("a VM pass ran");
    let mut reference = vec![None; p.corpus.len()];
    for (i, _, r) in &first_vm.runs {
        reference[*i] = Some(r.clone());
    }
    for q in &passes {
        for (i, _, r) in &q.runs {
            out.attempted += 1;
            let w = &p.corpus[*i];
            let ok = if q.config == Config::OrigVm {
                r.exit == refs[*i].exit && r.counters == refs[*i].counters
            } else {
                let vm = reference[*i].as_ref().expect("reference run");
                r.exit == Ok(w.expect_exit)
                    && r.output == refs[*i].output
                    && r.counters == vm.counters
            };
            if !ok {
                out.fail(format!(
                    "{} on {:?}: exit {:?}, steps {} (reference exit {}, steps {})",
                    w.name,
                    q.config.span(),
                    r.exit,
                    r.counters.instrs,
                    w.expect_exit,
                    reference[*i].as_ref().map_or(0, |v| v.counters.instrs)
                ));
            }
        }
    }
    for (i, w) in p.corpus.iter().enumerate() {
        if refs[i].exit != Ok(w.expect_exit) {
            out.fail(format!("{}: original exits {:?}", w.name, refs[i].exit));
        }
    }

    let model = CostModel::default();
    let vm_runs: Vec<&RunOut> = reference.iter().map(|r| r.as_ref().expect("ran")).collect();
    let cost_ratio = geomean(
        &vm_runs
            .iter()
            .zip(&refs)
            .map(|(c, o)| model.ratio(&c.counters, &o.counters))
            .collect::<Vec<_>>(),
    );

    // The determinism digest: counters, cost ratio, cure counts, texts.
    let mut det = Digest::default();
    det.add(digest);
    for r in &vm_runs {
        det.add_counters(&r.counters);
    }
    det.add(cost_ratio.to_bits());
    for c in &p.cured {
        det.add(c.report.checks_hoisted);
        det.add(c.report.checks_widened);
    }

    let walls = |c: Config, traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|q| q.config == c && q.traced == traced)
            .map(|q| q.wall)
            .collect()
    };
    let at_ref = |c: Config| -> Vec<f64> {
        passes
            .iter()
            .filter(|q| q.config == c && !q.traced)
            .map(|q| q.wall * q.host)
            .collect()
    };
    let vm_walls = walls(Config::Vm, false);
    let tree_walls = walls(Config::Tree, false);
    let vm_op_ms: Vec<f64> = passes
        .iter()
        .filter(|q| q.config == Config::Vm && !q.traced)
        .flat_map(|q| q.runs.iter().map(|(_, s, _)| s * 1e3 * q.host))
        .collect();
    let op_tail = tail(&vm_op_ms);

    let steps: Vec<u64> = vm_runs.iter().map(|r| r.counters.instrs).collect();
    let total_steps: u64 = steps.iter().sum();
    let share = |set: &[&str]| -> f64 {
        p.corpus
            .iter()
            .zip(&steps)
            .filter(|(w, _)| set.contains(&w.name.as_str()))
            .map(|(_, s)| *s)
            .sum::<u64>() as f64
            / total_steps as f64
    };

    out.line(format!(
        "# exec seed={} programs={} passes={} inputs={:016x}",
        args.seed,
        p.corpus.len(),
        passes.len(),
        corpus::fingerprint(&p.corpus)
    ));
    out.line(format!(
        "# inputs: steps pointer-heavy={:.3} scalar-heavy={:.3} other={:.3} ({} steps per pass)",
        share(&POINTER_HEAVY),
        share(&SCALAR_HEAVY),
        1.0 - share(&POINTER_HEAVY) - share(&SCALAR_HEAVY),
        total_steps
    ));
    for &i in &order {
        let ms = |c: Config| {
            median(
                &passes
                    .iter()
                    .filter(|q| q.config == c && !q.traced)
                    .flat_map(|q| q.runs.iter().filter(|r| r.0 == i).map(|r| r.1 * 1e3))
                    .collect::<Vec<_>>(),
            )
        };
        out.line(format!(
            "#   {:16} lines={:5} steps={:9} vm_ms={:.3} tree_ms={:.3} cost_ratio={:.3}",
            p.corpus[i].name,
            p.corpus[i].lines(),
            steps[i],
            ms(Config::Vm),
            ms(Config::Tree),
            model.ratio(&vm_runs[i].counters, &refs[i].counters)
        ));
    }
    out.line(format!(
        "# determinism digest={:016x} (counters, cost_ratio, check counts, cured text)",
        det.value()
    ));

    out.line(clock.line());
    if !args.trace {
        let setup_s = median(&setups);
        let vm_run_s = median(&vm_walls);
        let tree_run_s = median(&tree_walls);
        let at_ref_setup: Vec<f64> = setups.iter().zip(&setup_host).map(|(s, f)| s * f).collect();
        out.set("setup_s", median(&at_ref_setup));
        out.set("pass_s", median(&at_ref(Config::Vm)));
        out.set("oracle_pass_s", median(&at_ref(Config::Tree)));
        out.set("p50_ms", median(&vm_op_ms));
        out.set("tail_ms", op_tail.value);
        out.set("cost_ratio", cost_ratio);
        out.set("peak_rss_mb", rss);
        out.line(format!(
            "# named (raw wall-clock): setup_s={setup_s:.6} s vm_run_s={vm_run_s:.6} s tree_run_s={tree_run_s:.6} s cost_ratio={cost_ratio:.6} x peak_rss_mb={rss:.1} MB fail_frac={} ({}/{})",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        out.line(format!(
            "# per-program VM run at the reference host speed: p50_ms={:.4} tail_ms={:.4} (p{:.1} of {} runs)",
            median(&vm_op_ms),
            op_tail.value,
            op_tail.percentile,
            op_tail.samples
        ));
        return out;
    }

    // Per-layer metrics from the traced run.
    let traced_vm = walls(Config::Vm, true);
    let traced_tree = walls(Config::Tree, true);
    let vm = median(&vm_walls);
    let orig = median(&walls(Config::OrigVm, true));
    out.set(
        "trace.overhead",
        (median(&traced_vm) + median(&traced_tree)) / (vm + median(&tree_walls)) - 1.0,
    );
    for (config, prefix) in [(Config::Vm, "vm"), (Config::Tree, "tree")] {
        let traced: Vec<&Pass> = passes
            .iter()
            .filter(|q| q.config == config && q.traced)
            .collect();
        for (i, name) in EXEC_PROGRAMS.iter().enumerate() {
            let v: Vec<f64> = traced
                .iter()
                .map(|q| {
                    tr.by_key(q.pass_no, "program")
                        .get(&(i as u64))
                        .copied()
                        .unwrap_or(0.0)
                })
                .collect();
            out.set(&format!("runtime.{prefix}_s.{name}"), median(&v));
        }
        let wall = median(&traced.iter().map(|q| q.wall).collect::<Vec<_>>());
        out.set(
            &format!("runtime.{prefix}_ns_per_step"),
            wall / total_steps as f64 * 1e9,
        );
    }
    out.set("runtime.orig_vm_s", orig);
    out.set("runtime.safety_share", 1.0 - orig / vm);
    out.set(
        "runtime.untiered_vm_s",
        median(&walls(Config::UntieredVm, true)),
    );
    let sum = |f: &dyn Fn(&RunOut) -> u64| vm_runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    out.set("runtime.tier_promotions", sum(&|r| r.tiers.promotions));
    out.set("runtime.tier_osr", sum(&|r| r.tiers.osr));
    out.set("runtime.steps", sum(&|r| r.counters.instrs));
    out.set("runtime.loads", sum(&|r| r.counters.loads));
    out.set("runtime.stores", sum(&|r| r.counters.stores));
    out.set("runtime.calls", sum(&|r| r.counters.calls));
    out.set("runtime.extern_calls", sum(&|r| r.counters.extern_calls));
    out.set("runtime.checks", sum(&|r| r.counters.total_checks()));
    out.set(
        "runtime.check_cycles",
        vm_runs
            .iter()
            .map(|r| model.check_cycles(&r.counters))
            .sum(),
    );
    out.set(
        "runtime.peak_heap_bytes",
        vm_runs
            .iter()
            .map(|r| r.counters.peak_heap_bytes)
            .max()
            .unwrap_or(0) as f64,
    );

    // The set-up cure, read from the timings `Curer::cure_source` returns.
    let st = |f: &dyn Fn(&ccured::StageTimings) -> std::time::Duration| {
        p.cured
            .iter()
            .map(|c| f(&c.timings).as_secs_f64())
            .sum::<f64>()
    };
    out.set("ast.parse_s", st(&|t| t.parse));
    out.set("cil.lower_s", st(&|t| t.lower));
    out.set("infer.infer_s", st(&|t| t.infer));
    out.set("core.instrument_s", st(&|t| t.instrument));
    out.set("analysis.optimize_s", st(&|t| t.optimize));
    out.set("cil.print_s", p.print_s);
    let parsed: usize = p
        .corpus
        .iter()
        .map(|w| parsed_text(w.with_wrappers, &w.source).len())
        .sum();
    let prelude: usize = p
        .corpus
        .iter()
        .map(|w| prelude_bytes(w.with_wrappers))
        .sum();
    out.set("ast.prelude_share", prelude as f64 / parsed as f64);
    out.set(
        "cil.ir_instrs",
        originals.iter().map(ir_instrs).sum::<u64>() as f64,
    );
    let rep = |f: &dyn Fn(&ccured::CureReport) -> u64| {
        p.cured.iter().map(|c| f(&c.report)).sum::<u64>() as f64
    };
    out.set(
        "infer.solver_iterations",
        rep(&|r| r.solver_iterations as u64),
    );
    let inserted = rep(&|r| r.checks_inserted.total() as u64);
    out.set("core.checks_inserted", inserted);
    out.set(
        "analysis.elided_ratio",
        rep(&|r| r.checks_elided.total()) / inserted,
    );
    out.set("analysis.hoisted", rep(&|r| r.checks_hoisted));
    out.set("analysis.widened", rep(&|r| r.checks_widened));
    out
}
