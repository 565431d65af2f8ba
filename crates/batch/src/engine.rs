//! The work-stealing parallel cure engine.
//!
//! Units are distributed round-robin across per-worker deques; each worker
//! pops from the front of its own deque and, when empty, steals from the
//! *back* of its siblings' — the classic work-stealing shape, with plain
//! `Mutex<VecDeque>`s instead of lock-free deques (unit granularity is a
//! whole cure, so queue contention is negligible).
//!
//! Every cure runs inside [`ccured::isolated`], so one poisoned input
//! becomes a per-unit `internal-error` verdict instead of sinking the
//! batch, and each worker thread gets a bounded stack sized from the
//! configured [`ccured_rt::Limits`] so a pathological unit cannot blow the
//! host stack either.

use crate::cache::{Cache, CachedUnit};
use crate::hash::fnv1a;
use crate::report::{BatchReport, UnitOutcome, UnitReport, Verdict};
use ccured::{isolated, CureError, Cured, Curer, StageTimings};
use ccured_rt::Limits;
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
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
/// name. A **file** is a manifest: one unit path per line (relative paths
/// resolve against the manifest's directory), blank lines and `#` comments
/// ignored.
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

    // Round-robin seeding: unit i starts on worker i % jobs.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| {
            Mutex::new(
                (0..units.len())
                    .filter(|i| i % jobs == w)
                    .collect::<VecDeque<_>>(),
            )
        })
        .collect();
    let slots: Vec<Mutex<Option<UnitOutcome>>> = units.iter().map(|_| Mutex::new(None)).collect();

    // Workers recurse while parsing/lowering deep inputs; give them the
    // same healthy margin per guest frame the interpreter sandbox assumes.
    let stack_bytes = (cfg.limits.max_stack_depth * 64 * 1024).max(8 << 20);

    let wall_start = Instant::now();
    std::thread::scope(|scope| -> io::Result<()> {
        let mut handles = Vec::with_capacity(jobs);
        for w in 0..jobs {
            let queues = &queues;
            let slots = &slots;
            let cache = cache.as_ref();
            let curer = &curer;
            let config_fp = config_fp.as_str();
            let profile = cfg.profile.then_some(cfg.limits);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ccured-batch-{w}"))
                    .stack_size(stack_bytes)
                    .spawn_scoped(scope, move || {
                        while let Some(i) = next_unit(queues, w) {
                            let out = cure_unit(&units[i], curer, config_fp, cache, profile);
                            // A sibling that panicked mid-store poisons the
                            // slot mutex; the data is a plain Option, so
                            // recover it rather than cascading the panic.
                            *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                        }
                    })?,
            );
        }
        let mut worker_died = false;
        for h in handles {
            // Cures run inside `ccured::isolated`, so a panicking join means
            // a worker died *outside* a cure (infrastructure bug or fault
            // injection). The batch still completes: whatever the dead
            // worker left queued is drained by a recovery pass below.
            worker_died |= h.join().is_err();
        }
        if worker_died {
            let queues = &queues;
            let slots = &slots;
            let cache = cache.as_ref();
            let curer = &curer;
            let config_fp = config_fp.as_str();
            let profile = cfg.profile.then_some(cfg.limits);
            let h = std::thread::Builder::new()
                .name("ccured-batch-recover".to_string())
                .stack_size(stack_bytes)
                .spawn_scoped(scope, move || {
                    while let Some(i) = next_unit(queues, 0) {
                        let out = cure_unit(&units[i], curer, config_fp, cache, profile);
                        *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
                    }
                })?;
            let _ = h.join();
        }
        Ok(())
    })?;
    let wall = wall_start.elapsed();

    let outcomes: Vec<UnitOutcome> = slots
        .into_iter()
        .zip(units)
        .map(|(s, path)| {
            // Every queued unit normally records an outcome; if a worker
            // died between claiming a unit and storing its result, report
            // that unit as an internal error instead of aborting the batch.
            s.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| UnitOutcome {
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

/// Convenience entry point: discover units under `path` and run the batch.
///
/// # Errors
///
/// As [`discover_units`] and [`run_batch`].
pub fn run_path(cfg: &BatchConfig, path: &Path) -> io::Result<BatchReport> {
    let units = discover_units(path)?;
    run_batch(cfg, &units)
}

/// Pop from our own deque's front, else steal from a sibling's back.
/// Queue mutexes hold plain indices, so a poisoned lock (a sibling
/// panicked while holding it) is recovered, not propagated.
fn next_unit(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    if let Some(i) = queues[me]
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .pop_front()
    {
        return Some(i);
    }
    let n = queues.len();
    for d in 1..n {
        let victim = (me + d) % n;
        if let Some(i) = queues[victim]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop_back()
        {
            return Some(i);
        }
    }
    None
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
        Err(e) if !out.from_cache => {
            out.verdict = match e {
                CureError::Frontend(d) => Verdict::Frontend(d.to_string()),
                CureError::Link(issues) => Verdict::Link(issues.len()),
                CureError::Internal(m) => Verdict::Internal(m),
                CureError::Timeout { .. } => Verdict::ResourceExhausted(e.to_string()),
            }
        }
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
    let mut interp = ccured_rt::Interp::new(&cured.program, ccured_rt::ExecMode::cured(cured));
    interp.set_engine(ccured_rt::Engine::Vm);
    interp.set_limits(limits);
    interp.enable_profile(cured.sites.len());
    let _ = interp.run();
    let profile = interp.profile().cloned().unwrap_or_default();
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
            .filter(|r| r.site.check == "temporal")
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
    fn work_stealing_queue_drains_exactly_once() {
        let queues: Vec<Mutex<VecDeque<usize>>> = vec![
            Mutex::new((0..7).collect()),
            Mutex::new(VecDeque::new()),
            Mutex::new(VecDeque::new()),
        ];
        let mut seen = Vec::new();
        // Worker 2 owns nothing and must steal everything from worker 0.
        while let Some(i) = next_unit(&queues, 2) {
            seen.push(i);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
        assert!(next_unit(&queues, 0).is_none());
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
