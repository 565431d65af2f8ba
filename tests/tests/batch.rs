//! Differential determinism for the batch engine (`ccured-batch`):
//! curing the micro+Olden corpus with `--jobs 1`, `--jobs 8`, and a warm
//! cache must produce byte-identical cured output and identical reports
//! per unit; a warm rerun hits 100% and is ≥5× faster than sequential
//! cold; touching one file re-cures only that unit.

use ccured_batch::{run_batch, BatchConfig, BatchReport, Verdict};
use std::path::PathBuf;
use std::sync::{RwLock, RwLockReadGuard};

/// The speedup test compares wall-clock times, so it holds this lock
/// exclusively; every other test in this file holds it shared, and they
/// never run beside it.
static MACHINE: RwLock<()> = RwLock::new(());

fn shared_machine() -> RwLockReadGuard<'static, ()> {
    MACHINE.read().unwrap_or_else(|e| e.into_inner())
}

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("ccured-batch-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn corpus_in(dir: &std::path::Path) -> Vec<PathBuf> {
    ccured_workloads::write_units(dir, &ccured_workloads::batch_corpus()).expect("write corpus")
}

fn config(jobs: usize, cache_dir: Option<&std::path::Path>) -> BatchConfig {
    let mut cfg = BatchConfig::new(ccured::Curer::new());
    cfg.jobs = jobs;
    match cache_dir {
        Some(d) => cfg.cache_dir = d.to_path_buf(),
        None => cfg.use_cache = false,
    }
    cfg
}

/// Every unit of `a` and `b` must agree on everything user-visible:
/// verdict, cured text (byte-identical), flat report, and the digest of
/// the full canonical `CureReport`.
fn assert_identical(a: &BatchReport, b: &BatchReport, what: &str) {
    assert_eq!(a.units.len(), b.units.len(), "{what}: unit counts differ");
    for (ua, ub) in a.units.iter().zip(&b.units) {
        assert_eq!(ua.path, ub.path, "{what}: unit order differs");
        assert_eq!(
            ua.verdict, ub.verdict,
            "{what}: {} verdict differs",
            ua.path
        );
        assert_eq!(
            ua.cured_text, ub.cured_text,
            "{what}: {} cured output is not byte-identical",
            ua.path
        );
        assert_eq!(ua.report, ub.report, "{what}: {} report differs", ua.path);
        assert_eq!(
            ua.report_digest, ub.report_digest,
            "{what}: {} CureReport digest differs",
            ua.path
        );
    }
}

#[test]
fn corpus_cures_cleanly() {
    let _machine = shared_machine();
    let scratch = Scratch::new("clean");
    let units = corpus_in(&scratch.0.join("src"));
    let report = run_batch(&config(1, None), &units).expect("batch");
    assert_eq!(report.units.len(), units.len());
    for u in &report.units {
        assert_eq!(
            u.verdict,
            Verdict::Cured,
            "{}: {}",
            u.path,
            u.verdict.detail()
        );
        assert!(!u.cured_text.is_empty(), "{}: empty cured text", u.path);
        assert!(u.report_digest != 0, "{}: no report digest", u.path);
    }
    let totals = report.totals();
    assert!(
        totals.safe > 0 && totals.seq > 0,
        "corpus kind histogram is degenerate"
    );
}

#[test]
fn jobs_one_jobs_eight_and_warm_cache_agree() {
    let _machine = shared_machine();
    let scratch = Scratch::new("differential");
    let units = corpus_in(&scratch.0.join("src"));
    let cache = scratch.0.join("cache");

    let seq = run_batch(&config(1, None), &units).expect("jobs=1");
    let par = run_batch(&config(8, None), &units).expect("jobs=8");
    let cold = run_batch(&config(8, Some(&cache)), &units).expect("cold cache");
    let warm = run_batch(&config(8, Some(&cache)), &units).expect("warm cache");

    assert_identical(&seq, &par, "jobs=1 vs jobs=8");
    assert_identical(&seq, &cold, "jobs=1 vs cold cache");
    assert_identical(&seq, &warm, "jobs=1 vs warm cache");

    // Cold run populated the cache; warm run is all hits.
    assert_eq!(
        cold.cache.hits, 0,
        "first cached run should miss everywhere"
    );
    assert_eq!(cold.cache.entries_written as usize, units.len());
    assert!(
        (warm.hit_rate() - 1.0).abs() < f64::EPSILON,
        "warm hit rate {}",
        warm.hit_rate()
    );
    assert!(warm.units.iter().all(|u| u.from_cache));
}

#[test]
fn touching_one_file_recures_only_that_unit() {
    let _machine = shared_machine();
    let scratch = Scratch::new("invalidate");
    let units = corpus_in(&scratch.0.join("src"));
    let cfg = config(4, Some(&scratch.0.join("cache")));

    run_batch(&cfg, &units).expect("cold run");
    let touched = &units[units.len() / 2];
    let source = std::fs::read_to_string(touched).expect("read unit");
    std::fs::write(touched, format!("/* touched */\n{source}")).expect("rewrite unit");

    let rerun = run_batch(&cfg, &units).expect("rerun");
    assert_eq!(rerun.cache.misses, 1, "exactly the touched unit re-cures");
    assert_eq!(rerun.cache.hits as usize, units.len() - 1);
    for u in &rerun.units {
        let is_touched = touched.to_string_lossy() == u.path;
        assert_eq!(u.from_cache, !is_touched, "{}: wrong cache verdict", u.path);
        assert_eq!(
            u.verdict,
            Verdict::Cured,
            "{}: {}",
            u.path,
            u.verdict.detail()
        );
    }
}

#[test]
fn warm_cache_beats_sequential_and_parallel_scales() {
    let _machine = MACHINE.write().unwrap_or_else(|e| e.into_inner());
    let scratch = Scratch::new("speedup");
    let units = corpus_in(&scratch.0.join("src"));
    let cache = scratch.0.join("cache");

    // Alternate the sequential and parallel batches and keep each one's
    // fastest run: on a shared host a slow phase can outlast one batch, so
    // a single pair of runs may straddle it.
    let (mut s, mut p) = (f64::INFINITY, f64::INFINITY);
    let mut par = None;
    for _ in 0..3 {
        let seq = run_batch(&config(1, None), &units).expect("sequential");
        let run = run_batch(&config(4, None), &units).expect("parallel");
        s = s.min(seq.wall.as_secs_f64());
        p = p.min(run.wall.as_secs_f64());
        par = Some(run);
    }
    let par = par.expect("three parallel runs");
    run_batch(&config(4, Some(&cache)), &units).expect("cold cache");
    let warm = run_batch(&config(4, Some(&cache)), &units).expect("warm cache");
    let w = warm.wall.as_secs_f64();
    assert!(
        w * 5.0 <= s,
        "warm cache not ≥5× faster: sequential {s:.4}s, warm {w:.4}s"
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 2 {
        // Real parallel hardware: fanning out must beat sequential.
        assert!(
            p < s,
            "parallel ({p:.4}s) did not beat sequential ({s:.4}s) on {cores} cores"
        );
    } else {
        // Single core: the pool cannot win wall-clock, but its overhead
        // must stay modest.
        assert!(
            p <= s * 1.6,
            "thread-pool overhead too high on one core: sequential {s:.4}s, parallel {p:.4}s"
        );
    }
    // The pool performed at least as much work as the wall shows.
    assert!(par.cpu >= par.wall || par.cpu.as_secs_f64() > par.wall.as_secs_f64() * 0.5);
}

#[test]
fn repeated_runs_are_deterministic() {
    let _machine = shared_machine();
    let scratch = Scratch::new("repeat");
    let units = corpus_in(&scratch.0.join("src"));
    let cfg = config(8, None);
    let first = run_batch(&cfg, &units).expect("first");
    let second = run_batch(&cfg, &units).expect("second");
    assert_identical(&first, &second, "run 1 vs run 2");
    // Reports come back path-sorted regardless of worker completion order.
    let mut sorted: Vec<_> = first.units.iter().map(|u| u.path.clone()).collect();
    sorted.sort();
    assert_eq!(
        sorted,
        first
            .units
            .iter()
            .map(|u| u.path.clone())
            .collect::<Vec<_>>()
    );
}

#[test]
fn manifest_and_directory_forms_agree() {
    let _machine = shared_machine();
    let scratch = Scratch::new("manifest");
    let src = scratch.0.join("src");
    let units = corpus_in(&src);
    let manifest = scratch.0.join("units.txt");
    let mut listing = String::from("# batch manifest (paths relative to this file)\n");
    for u in &units {
        listing.push_str(&format!(
            "src/{}\n",
            u.file_name().unwrap().to_string_lossy()
        ));
    }
    std::fs::write(&manifest, listing).expect("write manifest");

    let cfg = config(2, None);
    let by_dir = ccured_batch::run_path(&cfg, &src).expect("directory form");
    let by_manifest = ccured_batch::run_path(&cfg, &manifest).expect("manifest form");
    assert_eq!(by_dir.units.len(), by_manifest.units.len());
    for (a, b) in by_dir.units.iter().zip(&by_manifest.units) {
        assert_eq!(a.cured_text, b.cured_text);
        assert_eq!(a.report_digest, b.report_digest);
    }
}
