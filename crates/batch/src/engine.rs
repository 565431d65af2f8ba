//! The parallel cure engine.
//!
//! Workers claim units from one shared cursor ([`run_units`]); the campaign
//! in `ccured-synth` schedules its per-unit checks on the same loop.
//!
//! Every cure runs inside [`ccured::isolated`], so one poisoned input
//! becomes a per-unit `internal-error` verdict instead of sinking the
//! batch, and each worker thread gets a bounded stack sized from the
//! configured [`ccured_rt::Limits`] so a pathological unit cannot blow the
//! host stack either.

use crate::cache::{Cache, CachedUnit};
use crate::hash::fnv1a;
use crate::report::{BatchReport, UnitOutcome, UnitReport, Verdict};
use ccured::{isolated, Cured, Curer, StageTimings};
use ccured_rt::{ExecMode, Interp, Limits};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for one batch run.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// The curer every unit is cured with (its
    /// [`Curer::config_fingerprint`] is part of the cache key).
    pub curer: Curer,
    /// Worker threads; 0 means [`std::thread::available_parallelism`].
    pub jobs: usize,
    /// Cache directory (created on demand).
    pub cache_dir: PathBuf,
    /// Whether to consult/populate the cache (`--no-cache` turns this off).
    pub use_cache: bool,
    /// Per-worker resource bounds. Curing is static, so only
    /// `max_stack_depth` applies here: it sizes each worker's thread stack
    /// (the same cliff the interpreter sandbox guards; see
    /// `ccured_rt::Limits`). Runs of cured programs launched from a batch
    /// should reuse these limits.
    pub limits: Limits,
    /// Execute every cured unit with per-site check profiling and attach
    /// the ranked hot-site rows to its [`UnitOutcome`]. Observation-only:
    /// verdicts, cured text, digests and cache behaviour are unchanged (a
    /// cache hit re-cures the unit just to have a program to execute).
    pub profile: bool,
}

impl BatchConfig {
    /// A batch configuration with the default curer, cache at
    /// `.ccured-cache/`, and one worker per core.
    pub fn new(curer: Curer) -> Self {
        BatchConfig {
            curer,
            jobs: 0,
            cache_dir: PathBuf::from(".ccured-cache"),
            use_cache: true,
            limits: Limits::default(),
            profile: false,
        }
    }

    /// The effective worker count for `n_units` units.
    pub fn effective_jobs(&self, n_units: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let requested = if self.jobs == 0 { hw } else { self.jobs };
        requested.clamp(1, n_units.max(1))
    }
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::new(Curer::new())
    }
}

/// Expands a batch input path into the list of units to cure.
///
/// A **directory** yields every `*.c` file directly inside it, sorted by
/// name. A **`.c` file** is one unit. Any other **file** is a manifest: one
/// unit path per line (relative paths resolve against the manifest's
/// directory), blank lines and `#` comments ignored.
///
/// # Errors
///
/// I/O errors reading the directory or manifest, or an empty unit list.
pub fn discover_units(path: &Path) -> io::Result<Vec<PathBuf>> {
    let meta = fs::metadata(path)?;
    let mut units = Vec::new();
    if meta.is_dir() {
        for entry in fs::read_dir(path)? {
            let p = entry?.path();
            if p.extension().is_some_and(|e| e == "c") && p.is_file() {
                units.push(p);
            }
        }
        units.sort();
    } else if path.extension().is_some_and(|e| e == "c") {
        units.push(path.to_path_buf());
    } else {
        let base = path.parent().unwrap_or(Path::new("."));
        for line in fs::read_to_string(path)?.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = PathBuf::from(line);
            units.push(if p.is_absolute() { p } else { base.join(p) });
        }
    }
    if units.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no units found in `{}`", path.display()),
        ));
    }
    Ok(units)
}

/// Cures every unit and assembles the aggregate report.
///
/// # Errors
///
/// Only infrastructure failures (cache directory creation, worker spawn);
/// per-unit cure failures are verdicts inside the report.
pub fn run_batch(cfg: &BatchConfig, units: &[PathBuf]) -> io::Result<BatchReport> {
    let cache = if cfg.use_cache {
        Some(Cache::open(&cfg.cache_dir)?)
    } else {
        None
    };
    let config_fp = cfg.curer.config_fingerprint();
    let jobs = cfg.effective_jobs(units.len());
    // The wall-clock budget rides on `Limits` (it bounds the cure the same
    // way fuel bounds execution) and is deliberately outside the config
    // fingerprint: a deadline can only abort a cure, never change the
    // output of one that completes, so cache entries stay valid across
    // deadline changes.
    let curer = {
        let mut c = cfg.curer.clone();
        c.deadline(cfg.limits.deadline);
        c
    };

    let stack_bytes = worker_stack_bytes(&cfg.limits);
    let profile = cfg.profile.then_some(cfg.limits);

    let wall_start = Instant::now();
    let order = claim_order(units);
    let claimed = run_units(units.len(), jobs, "ccured-batch", stack_bytes, |j| {
        cure_unit(
            &units[order[j]],
            &curer,
            &config_fp,
            cache.as_ref(),
            profile,
        )
    })?;
    let wall = wall_start.elapsed();
    let mut results: Vec<Option<UnitOutcome>> = (0..units.len()).map(|_| None).collect();
    for (j, out) in claimed.into_iter().enumerate() {
        results[order[j]] = out;
    }

    let outcomes: Vec<UnitOutcome> = results
        .into_iter()
        .zip(units)
        .map(|(out, path)| {
            // Every unit normally records an outcome; if a worker died
            // between claiming a unit and storing its result, report that
            // unit as an internal error instead of aborting the batch.
            out.unwrap_or_else(|| UnitOutcome {
                path: path.display().to_string(),
                verdict: Verdict::Internal(
                    "batch worker died before recording an outcome".to_string(),
                ),
                from_cache: false,
                cured_text: String::new(),
                report: None,
                report_digest: 0,
                cure_timings: StageTimings::default(),
                elapsed: std::time::Duration::ZERO,
                site_profile: Vec::new(),
            })
        })
        .collect();
    Ok(BatchReport::new(outcomes, jobs, wall, cfg.use_cache))
}

/// The order batch workers claim `units` in: largest source first, ties
/// (and unreadable files, as size 0) in the given order. A large unit
/// claimed last would start after every small one and finish alone.
fn claim_order(units: &[PathBuf]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..units.len()).collect();
    order
        .sort_by_cached_key(|&i| std::cmp::Reverse(fs::metadata(&units[i]).map_or(0, |m| m.len())));
    order
}

/// The stack of a worker thread that cures units or runs programs under
/// `limits`. Workers recurse while parsing and lowering deep inputs, and
/// the tree engine recurses on guest calls, so each guest frame of the
/// sandbox's stack cap gets a 64 KiB margin; the 8 MiB floor covers the
/// frontend's nesting limit in an unoptimized build.
pub fn worker_stack_bytes(limits: &Limits) -> usize {
    (limits.max_stack_depth * 64 * 1024).max(8 << 20)
}

/// Runs `work(i)` once for every unit index `i` in `0..n` on `jobs` worker
/// threads named `{name}-{w}`, each with a `stack_bytes` stack, and returns
/// the results in index order.
///
/// Workers claim indices from one shared cursor, in index order. A free
/// worker always takes the next index, but a long unit claimed last still
/// finishes alone, so callers that know their units' costs number the
/// costliest first ([`run_batch`] claims the largest sources first). A
/// panic in `work` kills only its worker: after
/// the others join, a recovery worker runs the same loop on the same
/// cursor, so every unclaimed unit still runs, and the unit whose `work`
/// panicked comes back `None`.
///
/// # Errors
///
/// A worker thread that cannot be spawned.
pub fn run_units<T: Send>(
    n: usize,
    jobs: usize,
    name: &str,
    stack_bytes: usize,
    work: impl Fn(usize) -> T + Sync,
) -> io::Result<Vec<Option<T>>> {
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        // Relaxed: the cursor only hands out indices; results travel
        // through the slot mutexes and the scope's joins.
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let out = work(i);
        // A sibling that panicked mid-store poisons the slot mutex; the
        // data is a plain Option, so recover it rather than cascading the
        // panic.
        *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
    };
    std::thread::scope(|scope| -> io::Result<()> {
        let spawn = |label: String| {
            std::thread::Builder::new()
                .name(label)
                .stack_size(stack_bytes)
                .spawn_scoped(scope, worker)
        };
        let handles = (0..jobs)
            .map(|w| spawn(format!("{name}-{w}")))
            .collect::<io::Result<Vec<_>>>()?;
        let mut worker_died = false;
        for h in handles {
            worker_died |= h.join().is_err();
        }
        if worker_died {
            let _ = spawn(format!("{name}-recover"))?.join();
        }
        Ok(())
    })?;
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect())
}

/// Convenience entry point: discover units under `path` and run the batch.
///
/// # Errors
///
/// As [`discover_units`] and [`run_batch`].
pub fn run_path(cfg: &BatchConfig, path: &Path) -> io::Result<BatchReport> {
    let units = discover_units(path)?;
    run_batch(cfg, &units)
}

/// Cures one unit: cache probe, then an isolated live cure on a miss.
/// `profile` carries the execution limits when the batch profiles check
/// sites; it forces a live cure even on a hit (the cache stores cured
/// *text*, but execution needs the in-memory program and site table).
fn cure_unit(
    path: &Path,
    curer: &Curer,
    config_fp: &str,
    cache: Option<&Cache>,
    profile: Option<Limits>,
) -> UnitOutcome {
    let started = Instant::now();
    let display = path.display().to_string();
    let mut out = UnitOutcome {
        path: display,
        verdict: Verdict::Cured,
        from_cache: false,
        cured_text: String::new(),
        report: None,
        report_digest: 0,
        cure_timings: StageTimings::default(),
        elapsed: std::time::Duration::ZERO,
        site_profile: Vec::new(),
    };

    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            out.verdict = Verdict::Unreadable(e.to_string());
            out.elapsed = started.elapsed();
            return out;
        }
    };

    let key = Cache::unit_key(&source, config_fp);
    if let Some(cache) = cache {
        if let Some(hit) = cache.load(key) {
            out.from_cache = true;
            out.cured_text = hit.cured_text;
            out.report = Some(hit.report);
            out.report_digest = hit.report_digest;
            out.cure_timings = StageTimings::from_ns(hit.timings_ns);
            if profile.is_none() {
                out.elapsed = started.elapsed();
                return out;
            }
        }
    }

    match isolated(|| curer.cure_source(&source)) {
        Ok(cured) => {
            if !out.from_cache {
                let unit = record_cure(&cured, key, cache);
                out.cured_text = unit.cured_text;
                out.report = Some(unit.report);
                out.report_digest = unit.report_digest;
                out.cure_timings = cured.timings;
            }
            if let Some(limits) = profile {
                out.site_profile =
                    isolated(|| Ok(profile_unit(&cured, limits))).unwrap_or_default();
            }
        }
        Err(e) if !out.from_cache => out.verdict = Verdict::from(e),
        // The curer is deterministic, so a re-cure of a cached unit cannot
        // fail; if it somehow does, keep the cached verdict and skip the
        // profile rather than contradicting the cache.
        Err(_) => {}
    }
    out.elapsed = started.elapsed();
    out
}

/// Renders a live cure the way the cache holds it (cured text, summary
/// report, digest of the canonical report, stage timings) and stores it
/// under `key` when a cache is open. Batch and serve both record their
/// misses here, so either one's entries read back identically in the
/// other.
pub(crate) fn record_cure(cured: &Cured, key: u64, cache: Option<&Cache>) -> CachedUnit {
    let unit = CachedUnit {
        cured_text: ccured_cil::pretty::dump_program(&cured.program),
        report: UnitReport::from_cure(&cured.report),
        report_digest: fnv1a(cured.report.canonical().as_bytes()),
        timings_ns: cured.timings.as_ns(),
    };
    if let Some(cache) = cache {
        // A failed write only costs future hit rate, not this cure.
        let _ = cache.store(key, &unit);
    }
    unit
}

/// Executes one cured unit with per-site profiling and returns the ranked
/// hot-site rows. Observation-only: the run's outcome (check failure, fuel
/// exhaustion, even a missing `main`) never alters the unit's verdict — the
/// profile simply records whatever executed before the run stopped.
pub(crate) fn profile_unit(cured: &Cured, limits: Limits) -> Vec<ccured_rt::SiteReport> {
    let mut interp = Interp::new(&cured.program, ExecMode::cured(cured));
    interp.set_engine(ccured_rt::Engine::Vm);
    interp.set_limits(limits);
    interp.enable_profile(cured.sites.len());
    let profile = interp.observe().profile.unwrap_or_default();
    ccured_rt::profile::rank_sites(&cured.sites, &profile, &ccured_rt::CostModel::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ccured-batch-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let p = dir.join(name);
        fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn discovers_directory_sorted_and_manifest_relative() {
        let d = scratch("discover");
        write(&d, "b.c", "int main(void){return 0;}");
        write(&d, "a.c", "int main(void){return 0;}");
        write(&d, "notes.txt", "not a unit");
        let units = discover_units(&d).unwrap();
        assert_eq!(units.len(), 2);
        assert!(units[0].ends_with("a.c") && units[1].ends_with("b.c"));

        let m = write(&d, "manifest.txt", "# comment\n\nb.c\na.c\n");
        let units = discover_units(&m).unwrap();
        assert_eq!(units.len(), 2, "manifest preserves listed order");
        assert!(units[0].ends_with("b.c"));

        let empty = scratch("discover-empty");
        assert!(discover_units(&empty).is_err(), "no units is an error");
        let _ = fs::remove_dir_all(&d);
        let _ = fs::remove_dir_all(&empty);
    }

    #[test]
    fn units_are_claimed_largest_first_with_ties_in_path_order() {
        let d = scratch("claim");
        let units = vec![
            write(&d, "a.c", "int a;"),
            write(&d, "b.c", "int main(void) { return 0; }"),
            write(&d, "c.c", "int c;"),
            write(&d, "d.c", "int x, y;"),
            d.join("missing.c"),
        ];
        assert_eq!(claim_order(&units), vec![1, 3, 0, 2, 4]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn c_file_is_one_unit_not_a_manifest() {
        let d = scratch("discover-one");
        let one = write(&d, "one.c", "int main(void) {\n  return 0;\n}\n");
        assert_eq!(discover_units(&one).unwrap(), vec![one]);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn batch_cures_units_and_reports_failures_individually() {
        let d = scratch("mixed");
        write(
            &d,
            "good.c",
            "int main(void) { int x; int *p; p = &x; *p = 3; return *p; }",
        );
        write(&d, "bad.c", "int main( {");
        let mut cfg = BatchConfig::new(Curer::new());
        cfg.cache_dir = d.join("cache");
        cfg.jobs = 2;
        let rep = run_path(&cfg, &d).unwrap();
        assert_eq!(rep.units.len(), 2);
        assert_eq!(rep.cured(), 1);
        assert_eq!(rep.failed(), 1);
        assert!(rep.units[0].path.ends_with("bad.c"));
        assert!(matches!(rep.units[0].verdict, Verdict::Frontend(_)));
        let good = &rep.units[1];
        assert!(good.verdict.is_cured());
        assert!(!good.cured_text.is_empty());
        assert!(good.report.unwrap().checks_inserted > 0);
        assert!(good.cure_timings.total().as_nanos() > 0, "stages timed");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn second_run_is_served_from_cache_with_identical_bytes() {
        let d = scratch("warm");
        write(
            &d,
            "u.c",
            "int f(int *p) { return *p; }\nint main(void) { int x; x = 4; return f(&x); }",
        );
        let mut cfg = BatchConfig {
            jobs: 1,
            ..BatchConfig::default()
        };
        cfg.cache_dir = d.join("cache");
        let cold = run_path(&cfg, &d).unwrap();
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.entries_written, 1);
        let warm = run_path(&cfg, &d).unwrap();
        assert_eq!(warm.cache.hits, 1);
        assert!((warm.hit_rate() - 1.0).abs() < 1e-9);
        assert!(warm.units[0].from_cache);
        assert_eq!(warm.units[0].cured_text, cold.units[0].cured_text);
        assert_eq!(warm.units[0].report, cold.units[0].report);
        assert_eq!(warm.units[0].report_digest, cold.units[0].report_digest);
        // A config change re-keys every unit.
        let mut ablated = cfg.clone();
        ablated.curer.optimize(false);
        let rekeyed = run_path(&ablated, &d).unwrap();
        assert_eq!(rekeyed.cache.hits, 0, "config is part of the key");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn profiled_batch_attaches_site_rows_even_on_cache_hits() {
        let d = scratch("profile");
        write(
            &d,
            "hot.c",
            "int sum(int *a, int n) { int s; int i; s = 0; \
             for (i = 0; i < n; i++) s += a[i]; return s; }\n\
             int main(void) { int v[8]; int i; \
             for (i = 0; i < 8; i++) v[i] = i; return sum(v, 8); }",
        );
        write(&d, "cold.c", "int main(void) { return 0; }");
        let mut cfg = BatchConfig::new(Curer::new());
        cfg.cache_dir = d.join("cache");
        cfg.jobs = 1;
        cfg.profile = true;
        let cold = run_path(&cfg, &d).unwrap();
        assert_eq!(cold.cured(), 2);
        assert!(cold.profiled());
        let hot_unit = cold
            .units
            .iter()
            .find(|u| u.path.ends_with("hot.c"))
            .unwrap();
        assert!(!hot_unit.site_profile.is_empty());
        assert!(hot_unit.site_profile[0].hits > 0, "hottest row executed");
        let hot = cold.hot_sites(5);
        assert!(!hot.is_empty() && hot[0].0.ends_with("hot.c"));

        // A warm run serves the cure from cache yet still profiles, and the
        // aggregate ranking is identical.
        let warm = run_path(&cfg, &d).unwrap();
        assert_eq!(warm.cache.hits, 2);
        assert!(warm.units.iter().all(|u| u.from_cache));
        let key = |rows: Vec<(&str, &ccured_rt::SiteReport)>| {
            rows.iter()
                .map(|(p, r)| (p.to_string(), r.site.id, r.hits, r.cost.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(warm.hot_sites(10)), key(cold.hot_sites(10)));
        assert_eq!(warm.units[1].cured_text, cold.units[1].cured_text);

        // Profiling off: no rows, nothing else changes.
        cfg.profile = false;
        let plain = run_path(&cfg, &d).unwrap();
        assert!(!plain.profiled());
        assert_eq!(plain.units[1].report, cold.units[1].report);
        let _ = fs::remove_dir_all(&d);
    }

    /// A `--temporal` cure is profiled with temporal semantics on: the read
    /// after `free` fails its key check, and its site counts the failure.
    #[test]
    fn profiled_temporal_batch_counts_the_use_after_free() {
        let d = scratch("temporal");
        write(
            &d,
            "uaf.c",
            "extern void *malloc(unsigned long n);\n\
             extern void free(void *p);\n\
             int main(void) { int *p; p = (int *)malloc(sizeof(int)); \
             p[0] = 7; free(p); return p[0]; }",
        );
        let mut curer = Curer::new();
        curer.temporal(true);
        let mut cfg = BatchConfig::new(curer);
        cfg.use_cache = false;
        cfg.profile = true;
        let rep = run_path(&cfg, &d).unwrap();
        assert_eq!(rep.cured(), 1);
        let temporal_fails: Vec<u64> = rep.units[0]
            .site_profile
            .iter()
            .filter(|r| r.site.kind == ccured_cil::ir::CheckKind::Temporal)
            .map(|r| r.fails)
            .collect();
        assert_eq!(
            temporal_fails.iter().sum::<u64>(),
            1,
            "one temporal site fails: {temporal_fails:?}"
        );
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn no_cache_disables_lookups_and_writes() {
        let d = scratch("nocache");
        write(&d, "u.c", "int main(void) { return 0; }");
        let mut cfg = BatchConfig {
            use_cache: false,
            ..BatchConfig::default()
        };
        cfg.cache_dir = d.join("cache");
        let rep = run_path(&cfg, &d).unwrap();
        assert!(!rep.cache.enabled);
        assert_eq!(rep.cache.lookups, 0);
        assert!(!cfg.cache_dir.exists(), "no cache dir created");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn run_units_runs_every_unit_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        let out = run_units(runs.len(), 4, "test-units", 1 << 20, |i| {
            runs[i].fetch_add(1, Ordering::Relaxed);
            i * 2
        })
        .unwrap();
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        let expect: Vec<Option<usize>> = (0..37).map(|i| Some(i * 2)).collect();
        assert_eq!(out, expect, "results come back in unit order");
        assert!(run_units(0, 2, "test-none", 1 << 20, |i| i)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn effective_jobs_clamps_to_units() {
        let mut cfg = BatchConfig {
            jobs: 8,
            ..BatchConfig::default()
        };
        assert_eq!(cfg.effective_jobs(3), 3);
        assert_eq!(cfg.effective_jobs(0), 1);
        cfg.jobs = 0;
        assert!(cfg.effective_jobs(64) >= 1);
    }
}
