//! The `cure` workload: cold batch cures of a seeded corpus.
//!
//! All of the work is in the cure layers (`ccured_ast`, `ccured_cil`,
//! `ccured_infer`, `ccured`, `ccured_analysis`, `ccured_batch`) and none in
//! the runtime. Small units expose per-unit fixed costs such as re-parsing
//! the wrapper prelude; the large `ijpeg_oo` units expose superlinear
//! passes.

use crate::common::{
    curer_for, ir_instrs, matches_reference, parsed_text, peak_rss_mb, prelude_bytes, run_cured,
    run_original, secs, Digest, HostClock,
};
use crate::corpus::{self, Class, Unit};
use crate::report::Outcome;
use crate::stats::{geomean, median, size_summary, tail};
use crate::trace::Tracer;
use crate::Args;
use ccured::Hierarchy;
use ccured_batch::hash::fnv1a;
use ccured_batch::{run_batch, BatchConfig, Cache, CachedUnit, UnitReport, Verdict};
use ccured_rt::CostModel;
use ccured_workloads::Workload;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest timed passes of each kind, whatever `--seconds` says.
const MIN_PASSES: usize = 3;

/// What the staged drive reports for one unit.
struct Staged {
    text: u64,
    inserted: u64,
    elided: u64,
    hoisted: u64,
    widened: u64,
    iterations: u64,
    ir_instrs: u64,
}

/// What one cold batch pass reported for one unit.
struct BatchUnit {
    ms: f64,
    /// Cured live, not served from the cache.
    cold: bool,
    verdict: &'static str,
    text: u64,
    inserted: u64,
    elided: u64,
}

/// One cold batch pass.
struct BatchPass {
    wall: f64,
    /// Scales this pass to the reference host speed.
    host: f64,
    cpu: f64,
    units: Vec<Option<BatchUnit>>,
}

/// The corpus on disk, split by the configuration each unit declares.
struct Prepared {
    units: Vec<Unit>,
    paths: Vec<PathBuf>,
    index: HashMap<String, usize>,
}

/// Writes the generated units where the batch engine reads them.
fn write_units(units: Vec<Unit>, dir: &Path) -> Prepared {
    let ws: Vec<Workload> = units.iter().map(|u| u.w.clone()).collect();
    let paths = ccured_workloads::write_units(&dir.join("units"), &ws).expect("write units");
    let index = paths
        .iter()
        .enumerate()
        .map(|(i, p)| (p.display().to_string(), i))
        .collect();
    Prepared {
        units,
        paths,
        index,
    }
}

/// One cold batch pass: a `run_batch` per declared configuration, each
/// with an empty cache directory. The reports are reduced to digests and
/// timings as soon as the pass ends.
fn batch_pass(p: &Prepared, dir: &Path, jobs: usize) -> BatchPass {
    let mut pass = BatchPass {
        wall: 0.0,
        host: 1.0,
        cpu: 0.0,
        units: p.units.iter().map(|_| None).collect(),
    };
    for with_wrappers in [true, false] {
        let paths: Vec<PathBuf> = p
            .paths
            .iter()
            .zip(&p.units)
            .filter(|(_, u)| u.w.with_wrappers == with_wrappers)
            .map(|(path, _)| path.clone())
            .collect();
        let cache = dir.join(format!("cache-{}", u8::from(with_wrappers)));
        let _ = std::fs::remove_dir_all(&cache);
        let mut cfg = BatchConfig::new(curer_for(with_wrappers));
        cfg.jobs = jobs;
        cfg.cache_dir = cache.clone();
        let t = Instant::now();
        let rep = run_batch(&cfg, &paths).expect("batch infrastructure");
        pass.wall += secs(t);
        pass.cpu += rep.cpu.as_secs_f64();
        std::fs::remove_dir_all(&cache).expect("remove pass cache");
        for u in rep.units {
            let i = *p.index.get(&u.path).expect("batch reports its own units");
            let r = u.report.unwrap_or_default();
            pass.units[i] = Some(BatchUnit {
                ms: u.elapsed.as_secs_f64() * 1e3,
                cold: matches!(u.verdict, Verdict::Cured) && !u.from_cache,
                verdict: u.verdict.label(),
                text: fnv1a(u.cured_text.as_bytes()),
                inserted: r.checks_inserted,
                elided: r.checks_elided,
            });
        }
    }
    pass
}

/// The reference path: every unit through `Curer::cure_source` and the
/// printer, one at a time on this thread. Returns each unit's text digest
/// and time.
fn oracle_pass(p: &Prepared) -> (f64, Vec<(u64, f64)>) {
    let t = Instant::now();
    let texts = p
        .units
        .iter()
        .map(|u| {
            let t = Instant::now();
            let c = curer_for(u.w.with_wrappers)
                .cure_source(&u.w.source)
                .expect("corpus unit cures");
            let text = fnv1a(ccured_cil::pretty::dump_program(&c.program).as_bytes());
            (text, secs(t))
        })
        .collect();
    (secs(t), texts)
}

/// Cures one unit through the crates' public stage functions, in the
/// order `Curer::cure_source` and the batch engine call them, with a span
/// around each stage.
fn staged_cure(u: &Unit, key: u64, cache: &Cache, tr: &mut Tracer) -> Staged {
    let curer = curer_for(u.w.with_wrappers);
    let full = parsed_text(u.w.with_wrappers, &u.w.source);
    tr.begin("unit", Some(key));
    let tu = tr
        .span("parse", || ccured_ast::parse_translation_unit(&full))
        .expect("corpus unit parses");
    let mut prog = tr
        .span("lower", || ccured_cil::lower_translation_unit(&tu))
        .expect("corpus unit lowers");
    let ir = ir_instrs(&prog);
    tr.begin("infer", None);
    tr.span("infer.wrappers", || {
        ccured::wrappers::apply_wrappers(&mut prog)
    });
    let result = tr.span("infer.solve", || {
        ccured_infer::infer(&prog, curer.options())
    });
    let meta = tr.span("infer.meta", || {
        ccured_infer::split::compute_meta_types(&prog, &result.solution)
    });
    tr.span("infer.link", || {
        ccured::wrappers::check_link(&prog, &result.solution, &meta)
    });
    tr.end();
    tr.begin("instrument", None);
    let hierarchy = Hierarchy::build(&prog);
    let (counts, _sites) =
        ccured::instrument::instrument(&mut prog, &result.solution, &hierarchy, false);
    tr.end();
    let opt = tr.span("optimize", || {
        ccured_analysis::optimize_program(&mut prog, true)
    });
    let text = tr.span("print", || ccured_cil::pretty::dump_program(&prog));
    let report = UnitReport {
        checks_inserted: counts.total() as u64,
        checks_elided: opt.elision.stats.total(),
        ..UnitReport::default()
    };
    let store = CachedUnit {
        cured_text: text.clone(),
        report,
        report_digest: fnv1a(text.as_bytes()),
        timings_ns: ccured::StageTimings::default().as_ns(),
    };
    let cache_key = Cache::unit_key(&u.w.source, &curer.config_fingerprint());
    tr.span("store", || cache.store(cache_key, &store))
        .expect("cache store");
    tr.end();
    Staged {
        text: fnv1a(text.as_bytes()),
        inserted: counts.total() as u64,
        elided: opt.elision.stats.total(),
        hoisted: opt.hoisted,
        widened: opt.widened,
        iterations: result.iterations as u64,
        ir_instrs: ir,
    }
}

/// The staged drive over every unit on `jobs` threads pulling from one
/// queue, as the batch engine's workers do. With `tr` off it records
/// nothing and does the same work.
fn staged_pass(p: &Prepared, dir: &Path, jobs: usize, tr: &mut Tracer) -> (f64, Vec<Staged>) {
    let cache_dir = dir.join("cache-staged");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let t = Instant::now();
    let root = tr.begin("pass.staged", None);
    let cache = Cache::open(&cache_dir).expect("open cache");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Staged>>> = p.units.iter().map(|_| Mutex::new(None)).collect();
    let workers: Vec<Tracer> = (0..jobs)
        .map(|w| tr.worker(w as u32 + 1, Some(root)))
        .collect();
    let finished: Vec<Tracer> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .into_iter()
            .map(|mut wt| {
                let (next, slots, cache) = (&next, &slots, &cache);
                std::thread::Builder::new()
                    .stack_size(64 << 20)
                    .spawn_scoped(s, move || {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= p.units.len() {
                                break;
                            }
                            let st = staged_cure(&p.units[i], i as u64, cache, &mut wt);
                            *slots[i].lock().expect("slot lock") = Some(st);
                        }
                        wt
                    })
                    .expect("spawn staged worker")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("staged worker"))
            .collect()
    });
    for wt in finished {
        tr.merge(wt);
    }
    tr.end();
    let wall = secs(t);
    std::fs::remove_dir_all(&cache_dir).expect("remove staged cache");
    let staged = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot lock")
                .expect("every unit staged")
        })
        .collect();
    (wall, staged)
}

/// Runs the `cure` workload.
pub fn run(args: &Args, dir: &Path, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let jobs = args.jobs;

    // Set-up is corpus generation. Writing the units to disk is left out
    // of it: it is the benchmark's own I/O, and its time swings several
    // fold with the file system's writeback backlog.
    let mut clock = HostClock::new();
    let mut setups = Vec::new();
    let mut setup_host = Vec::new();
    let mut prints = Vec::new();
    let mut units = Vec::new();
    for _ in 0..SETUPS {
        let ((u, t), host) = clock.measure(1, || {
            let t = Instant::now();
            (corpus::cure_corpus(args.seed), secs(t))
        });
        setups.push(t);
        setup_host.push(host);
        prints.push(corpus::fingerprint(u.iter().map(|u| &u.w)));
        units = u;
    }
    if prints.iter().any(|f| *f != prints[0]) {
        out.fail("generated corpus differs between set-ups of the same seed".into());
    }
    let p = write_units(units, dir);

    // The timed window: cold batch passes alternate with the reference
    // path (untraced) or the staged drive (traced).
    let mut batches: Vec<BatchPass> = Vec::new();
    let mut ref_walls = Vec::new();
    let mut ref_host = Vec::new();
    let mut ref_texts: Vec<Vec<u64>> = Vec::new();
    // Per-unit reference cure times at the reference host speed: the
    // per-unit latency metrics. The batch's own per-unit times include its
    // cache writes, whose latency on a shared host swings several fold.
    let mut ref_unit_ms: Vec<f64> = Vec::new();
    let mut staged_walls = Vec::new();
    let mut staged: Vec<Vec<Staged>> = Vec::new();
    // The same staged drive with the tracer off: `trace.overhead` divides
    // the traced drive's time by this one's.
    let mut untraced_walls = Vec::new();
    let mut untraced_texts: Vec<Vec<u64>> = Vec::new();
    let start = Instant::now();
    while secs(start) < args.seconds || batches.len() < MIN_PASSES {
        let (mut pass, host) = clock.measure(jobs, || batch_pass(&p, dir, jobs));
        pass.host = host;
        batches.push(pass);
        if args.trace {
            // Alternate which of the two drives goes first, so a drift in
            // the host's speed does not land on one of them.
            let n = staged.len() as u32 + 1;
            let order = if n % 2 == 1 {
                [true, false]
            } else {
                [false, true]
            };
            for traced in order {
                if traced {
                    tr.set_pass(n);
                    let (w, st) = staged_pass(&p, dir, jobs, tr);
                    staged_walls.push(w);
                    staged.push(st);
                } else {
                    let mut off = Tracer::new(false, start);
                    let (w, st) = staged_pass(&p, dir, jobs, &mut off);
                    untraced_walls.push(w);
                    untraced_texts.push(st.iter().map(|s| s.text).collect());
                }
            }
        } else {
            let ((w, units), host) = clock.measure(1, || oracle_pass(&p));
            ref_walls.push(w);
            ref_host.push(host);
            ref_unit_ms.extend(units.iter().map(|(_, t)| t * 1e3 * host));
            ref_texts.push(units.into_iter().map(|(text, _)| text).collect());
        }
    }
    let rss = peak_rss_mb();

    // Gates, outside the timed window. The reference text comes from
    // `Curer::cure_source` (untraced) or the staged drive (traced); every
    // pass of either kind must print it, byte for byte.
    let mut refs: Vec<Vec<u64>> = ref_texts;
    refs.extend(
        staged
            .iter()
            .map(|st| st.iter().map(|s| s.text).collect::<Vec<u64>>()),
    );
    refs.extend(untraced_texts);
    let reference = refs[0].clone();
    let path = if args.trace { "staged" } else { "reference" };
    for texts in &refs {
        out.attempted += texts.len() as u64;
        for (i, t) in texts.iter().enumerate() {
            if *t != reference[i] {
                out.fail(format!(
                    "{}: {path} text differs between passes",
                    p.units[i].w.name
                ));
            }
        }
    }
    let mut unit_ms = Vec::new();
    for pass in &batches {
        for (i, u) in pass.units.iter().enumerate() {
            out.attempted += 1;
            let name = &p.units[i].w.name;
            match u {
                None => out.fail(format!("{name}: missing from a batch pass")),
                Some(u) if !u.cold => out.fail(format!(
                    "{name}: verdict {} (cold cure expected)",
                    u.verdict
                )),
                Some(u) if u.text != reference[i] => {
                    out.fail(format!("{name}: batch text differs from the {path} text"))
                }
                Some(u) => unit_ms.push(u.ms),
            }
        }
    }

    // Every cured unit must run to its reference: synth units return 0
    // from their self-check, paper units match the original's exit code
    // and output.
    let model = CostModel::default();
    let mut ratios = Vec::new();
    let mut det = Digest::default();
    for (i, u) in p.units.iter().enumerate() {
        out.attempted += 1;
        let c = curer_for(u.w.with_wrappers)
            .cure_source(&u.w.source)
            .expect("corpus unit cures");
        let cured = run_cured(&c, &u.w.input);
        let orig = run_original(&u.w);
        if !matches_reference(&u.w, &cured, &orig) {
            out.fail(format!(
                "{}: cured run {:?} vs original {:?} (expected exit {})",
                u.w.name, cured.exit, orig.exit, u.w.expect_exit
            ));
        }
        ratios.push(model.ratio(&cured.counters, &orig.counters));
        det.add(reference[i]);
        det.add_counters(&cured.counters);
        if let Some(b) = &batches[0].units[i] {
            det.add(b.inserted);
            det.add(b.elided);
        }
    }
    let cost_ratio = geomean(&ratios);
    det.add(cost_ratio.to_bits());

    let lines: Vec<usize> = p.units.iter().map(|u| u.w.lines()).collect();
    let (lo, mid, p90, hi) = size_summary(&lines);
    let parsed: usize = p
        .units
        .iter()
        .map(|u| parsed_text(u.w.with_wrappers, &u.w.source).len())
        .sum();
    let prelude: usize = p
        .units
        .iter()
        .map(|u| prelude_bytes(u.w.with_wrappers))
        .sum();
    let count = |c: Class| p.units.iter().filter(|u| u.class == c).count();
    out.line(format!(
        "# cure seed={} units={} (synth={} paper={} large={}) with_wrappers={} jobs={jobs} passes={} inputs={:016x}",
        args.seed,
        p.units.len(),
        count(Class::Synth),
        count(Class::Paper),
        count(Class::Large),
        p.units.iter().filter(|u| u.w.with_wrappers).count(),
        batches.len(),
        corpus::fingerprint(p.units.iter().map(|u| &u.w))
    ));
    out.line(format!(
        "# inputs: unit lines min={lo} p50={mid} p90={p90} max={hi} total={}; prelude_share={:.4} of {parsed} parsed bytes",
        lines.iter().sum::<usize>(),
        prelude as f64 / parsed as f64
    ));
    out.line(format!(
        "# determinism digest={:016x} (cured text, check counts, counters, cost_ratio)",
        det.value()
    ));

    let batch_walls: Vec<f64> = batches.iter().map(|b| b.wall).collect();
    let unit_tail = tail(&unit_ms);
    out.line(clock.line());
    if !args.trace {
        let setup_s = median(&setups);
        let cure_s = median(&batch_walls);
        let at_ref =
            |v: &[f64], f: &[f64]| median(&v.iter().zip(f).map(|(x, f)| x * f).collect::<Vec<_>>());
        let ref_tail = tail(&ref_unit_ms);
        out.set("setup_s", at_ref(&setups, &setup_host));
        out.set(
            "pass_s",
            at_ref(
                &batch_walls,
                &batches.iter().map(|b| b.host).collect::<Vec<_>>(),
            ),
        );
        out.set("oracle_pass_s", at_ref(&ref_walls, &ref_host));
        out.set("p50_ms", median(&ref_unit_ms));
        out.set("tail_ms", ref_tail.value);
        out.set("cost_ratio", cost_ratio);
        out.set("peak_rss_mb", rss);
        out.line(format!(
            "# named (raw wall-clock): setup_s={setup_s:.6} s cure_s={cure_s:.6} s cost_ratio={cost_ratio:.6} x peak_rss_mb={rss:.1} MB fail_frac={} ({}/{})",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        out.line(format!(
            "# per-unit cold cure at the reference host speed: p50_ms={:.4} tail_ms={:.4} (p{:.1} of {} units)",
            median(&ref_unit_ms),
            ref_tail.value,
            ref_tail.percentile,
            ref_tail.samples
        ));
        return out;
    }

    let stage = |names: &[&str]| -> f64 {
        median(
            &(1..=staged.len() as u32)
                .map(|n| {
                    let st = tr.self_times(n);
                    names
                        .iter()
                        .map(|k| st.get(k).copied().unwrap_or(0.0))
                        .sum()
                })
                .collect::<Vec<_>>(),
        )
    };
    out.set("ast.parse_s", stage(&["parse"]));
    out.set("cil.lower_s", stage(&["lower"]));
    out.set(
        "infer.infer_s",
        stage(&[
            "infer",
            "infer.wrappers",
            "infer.solve",
            "infer.meta",
            "infer.link",
        ]),
    );
    out.set("core.instrument_s", stage(&["instrument"]));
    out.set("analysis.optimize_s", stage(&["optimize"]));
    out.set("cil.print_s", stage(&["print"]));
    out.set("batch.store_s", stage(&["store"]));
    out.set("ast.prelude_share", prelude as f64 / parsed as f64);
    let st = &staged[0];
    let sum = |f: &dyn Fn(&Staged) -> u64| st.iter().map(f).sum::<u64>() as f64;
    out.set("cil.ir_instrs", sum(&|s| s.ir_instrs));
    out.set("infer.solver_iterations", sum(&|s| s.iterations));
    let inserted = sum(&|s| s.inserted);
    out.set("core.checks_inserted", inserted);
    out.set("analysis.elided_ratio", sum(&|s| s.elided) / inserted);
    out.set("analysis.hoisted", sum(&|s| s.hoisted));
    out.set("analysis.widened", sum(&|s| s.widened));
    out.set(
        "batch.parallelism",
        median(&batches.iter().map(|b| b.cpu / b.wall).collect::<Vec<_>>()),
    );
    out.set("batch.unit_p50_ms", median(&unit_ms));
    out.set("batch.unit_tail_ms", unit_tail.value);
    out.set(
        "trace.overhead",
        median(&staged_walls) / median(&untraced_walls) - 1.0,
    );
    out
}
