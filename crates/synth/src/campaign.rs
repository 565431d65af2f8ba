//! The differential soundness campaign: generate → batch-cure →
//! tree-vs-VM differential → fault-injection matrix, sharded across the
//! worker pool.
//!
//! A campaign turns test volume into a dial. Every generated unit is
//!
//! 1. **batch-cured** through `ccured_batch::run_batch` (exercising the
//!    content-addressed cache under concurrent writers and collecting the
//!    per-unit pointer-kind histogram),
//! 2. **differentially executed** on both engines — the tree-walking
//!    reference and the bytecode VM must agree on exit code, output,
//!    error, and every observable counter, and the unit's own checksum
//!    must pass (generated units are self-checking), and
//! 3. **crash-tested** with `mutants_per_unit` seeded faults, rotating the
//!    fault-class preference per unit so even two-mutant campaigns cover
//!    the full class matrix across units, alternating engines per unit.
//!
//! The report counts escapes (soundness bugs), masked faults, and engine
//! divergences, and checks each profile's measured kind histogram against
//! its requested targets. Everything is deterministic from the seed.

use crate::gen::{self, GOLDEN};
use crate::profiles::Profile;
use ccured::{isolated, json_str, Curer};
use ccured_batch::{run_batch, BatchConfig};
use ccured_faultinject::{crash_test, CrashTest, CrashTestReport, FaultClass, Outcome};
use ccured_rt::{Engine, ExecMode, Interp, Limits};
use ccured_workloads::Workload;
use std::collections::VecDeque;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Allowed |measured − target| gap, in percentage points, for each
/// pointer-kind share of a generated profile.
pub const KIND_TOLERANCE_PCT: f64 = 10.0;

/// Configuration for one campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: generation, per-unit mutant streams, and engine
    /// assignment all derive from it.
    pub seed: u64,
    /// Total units, split round-robin across `profiles`.
    pub units: usize,
    /// Profiles to generate (campaign order is report order).
    pub profiles: Vec<Profile>,
    /// Seeded faults per unit.
    pub mutants_per_unit: usize,
    /// Worker threads; 0 means one per core.
    pub jobs: usize,
    /// Where generated units are written (created on demand).
    pub out_dir: PathBuf,
    /// Batch cache directory.
    pub cache_dir: PathBuf,
    /// Whether the batch stage consults/populates the cache.
    pub use_cache: bool,
    /// Sandbox limits for every execution (differential and crash-test).
    pub limits: Limits,
}

impl CampaignConfig {
    /// A campaign writing units (and its cache) under `out_dir`, with the
    /// full profile set and crash-test-grade sandbox limits.
    pub fn new(out_dir: PathBuf) -> Self {
        let cache_dir = out_dir.join(".ccured-cache");
        CampaignConfig {
            seed: 1,
            units: 40,
            profiles: crate::profiles::all(),
            mutants_per_unit: 2,
            jobs: 0,
            out_dir,
            cache_dir,
            use_cache: true,
            limits: Limits {
                fuel: 2_000_000,
                max_stack_depth: 96,
                max_heap_bytes: 32 << 20,
                deadline: None,
            },
        }
    }
}

/// One profile's histogram scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStat {
    /// Profile name.
    pub name: String,
    /// Units generated for this profile.
    pub units: usize,
    /// Declared pointers across those units.
    pub pointers: u64,
    /// Requested kind percentages (normalized).
    pub target: (f64, f64, f64, f64),
    /// Measured kind percentages over the cured units.
    pub measured: (f64, f64, f64, f64),
}

impl ProfileStat {
    /// Largest |measured − target| gap across the four kinds.
    pub fn max_deviation(&self) -> f64 {
        let d = [
            (self.measured.0 - self.target.0).abs(),
            (self.measured.1 - self.target.1).abs(),
            (self.measured.2 - self.target.2).abs(),
            (self.measured.3 - self.target.3).abs(),
        ];
        d.into_iter().fold(0.0, f64::max)
    }

    /// Whether the histogram landed within `tol` percentage points.
    pub fn within(&self, tol: f64) -> bool {
        self.max_deviation() <= tol
    }
}

/// A mutant whose fault survived the cure — a soundness bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Escape {
    /// Unit name.
    pub unit: String,
    /// Mutant id within the unit's crash-test batch.
    pub mutant: usize,
    /// Fault class seeded.
    pub class: String,
    /// Mutation description.
    pub description: String,
}

/// A tree-vs-VM disagreement (or a failed self-check) on a pristine unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Unit name.
    pub unit: String,
    /// What differed.
    pub detail: String,
}

/// Per-fault-class outcome counts across the whole campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStat {
    /// Mutants seeded with this class.
    pub total: u64,
    /// Faults caught by an inserted check.
    pub caught: u64,
    /// Soundness escapes.
    pub escaped: u64,
    /// Faults neutralized by the cured memory model.
    pub masked: u64,
    /// Runs that hit a sandbox limit.
    pub resource_exhausted: u64,
    /// Mutants with no verdict (cure failure or harness panic).
    pub invalid: u64,
}

impl ClassStat {
    fn add(&mut self, outcome: Outcome) {
        self.total += 1;
        match outcome {
            Outcome::Caught => self.caught += 1,
            Outcome::Escaped => self.escaped += 1,
            Outcome::Masked => self.masked += 1,
            Outcome::ResourceExhausted => self.resource_exhausted += 1,
            Outcome::Invalid => self.invalid += 1,
        }
    }
}

/// The aggregate result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Master seed (reproduces the whole campaign).
    pub seed: u64,
    /// Units generated.
    pub units: usize,
    /// Mutants seeded per unit.
    pub mutants_per_unit: usize,
    /// Worker threads the differential/crash-test stage used.
    pub jobs: usize,
    /// Total mutants across all units.
    pub mutants: u64,
    /// Per-profile histogram scorecards, campaign order.
    pub profiles: Vec<ProfileStat>,
    /// Per-class outcome counts, [`FaultClass::ALL`] order.
    pub classes: [ClassStat; 6],
    /// Every escaped mutant (must be empty for a sound cure).
    pub escapes: Vec<Escape>,
    /// Every engine divergence (must be empty).
    pub divergences: Vec<Divergence>,
    /// Units that failed to cure or lower, `(unit, detail)`.
    pub cure_failures: Vec<(String, String)>,
    /// Whole-unit cache hit rate of the batch stage.
    pub cache_hit_rate: f64,
    /// Wall-clock for the whole campaign.
    pub wall: Duration,
}

impl CampaignReport {
    /// Soundness verdict: no escapes, no divergences, nothing uncurable.
    pub fn ok(&self) -> bool {
        self.escapes.is_empty() && self.divergences.is_empty() && self.cure_failures.is_empty()
    }

    /// Whether every profile histogram landed within `tol` points.
    pub fn histograms_within(&self, tol: f64) -> bool {
        self.profiles.iter().all(|p| p.within(tol))
    }

    /// Campaign-wide outcome totals `(caught, escaped, masked,
    /// resource_exhausted, invalid)`.
    pub fn outcome_totals(&self) -> (u64, u64, u64, u64, u64) {
        self.classes.iter().fold((0, 0, 0, 0, 0), |acc, c| {
            (
                acc.0 + c.caught,
                acc.1 + c.escaped,
                acc.2 + c.masked,
                acc.3 + c.resource_exhausted,
                acc.4 + c.invalid,
            )
        })
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "== campaign: {} units x {} mutants (seed {}, {} jobs) ==\n",
            self.units, self.mutants_per_unit, self.seed, self.jobs
        );
        let (caught, escaped, masked, limit, invalid) = self.outcome_totals();
        s.push_str(&format!(
            "mutants: {} seeded; {} caught, {} escaped, {} masked, {} resource-exhausted, {} invalid\n",
            self.mutants, caught, escaped, masked, limit, invalid
        ));
        s.push_str(&format!(
            "{:<16} {:>7} {:>7} {:>8} {:>7} {:>6} {:>8}\n",
            "class", "total", "caught", "escaped", "masked", "limit", "invalid"
        ));
        for (i, c) in self.classes.iter().enumerate() {
            s.push_str(&format!(
                "{:<16} {:>7} {:>7} {:>8} {:>7} {:>6} {:>8}\n",
                FaultClass::ALL[i].name(),
                c.total,
                c.caught,
                c.escaped,
                c.masked,
                c.resource_exhausted,
                c.invalid
            ));
        }
        s.push_str(&format!(
            "{:<10} {:>6} {:>9}  {:>23}  {:>23} {:>7}\n",
            "profile", "units", "pointers", "target sf/sq/w/rt", "measured sf/sq/w/rt", "max-dev"
        ));
        let pct4 = |p: (f64, f64, f64, f64)| format!("{:.1}/{:.1}/{:.1}/{:.1}", p.0, p.1, p.2, p.3);
        for p in &self.profiles {
            s.push_str(&format!(
                "{:<10} {:>6} {:>9}  {:>23}  {:>23} {:>6.1}{}\n",
                p.name,
                p.units,
                p.pointers,
                pct4(p.target),
                pct4(p.measured),
                p.max_deviation(),
                if p.within(KIND_TOLERANCE_PCT) {
                    ""
                } else {
                    " !"
                }
            ));
        }
        for d in &self.divergences {
            s.push_str(&format!("DIVERGENCE: {}: {}\n", d.unit, d.detail));
        }
        for e in &self.escapes {
            s.push_str(&format!(
                "ESCAPE: {} mutant #{} ({}): {}\n",
                e.unit, e.mutant, e.class, e.description
            ));
        }
        for (u, why) in &self.cure_failures {
            s.push_str(&format!("CURE FAILURE: {u}: {why}\n"));
        }
        s.push_str(&format!(
            "cache hit rate {:.0}%; wall {:.2} s; verdict: {}\n",
            self.cache_hit_rate * 100.0,
            self.wall.as_secs_f64(),
            if self.ok() { "SOUND" } else { "UNSOUND" }
        ));
        s
    }

    /// Machine-readable report (the `--json` CLI flag and CI assertions).
    /// Deterministic from the seed except for the trailing `wall_ns`.
    pub fn to_json(&self) -> String {
        let (caught, escaped, masked, limit, invalid) = self.outcome_totals();
        let mut s = format!(
            "{{\"experiment\":\"campaign\",\"seed\":{},\"units\":{},\"mutants_per_unit\":{},\
             \"jobs\":{},\"mutants\":{},\"sound\":{},\"outcomes\":{{\"caught\":{caught},\
             \"escaped\":{escaped},\"masked\":{masked},\"resource_exhausted\":{limit},\
             \"invalid\":{invalid}}}",
            self.seed,
            self.units,
            self.mutants_per_unit,
            self.jobs,
            self.mutants,
            self.ok(),
        );
        s.push_str(",\"classes\":[");
        for (i, c) in self.classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"class\":\"{}\",\"total\":{},\"caught\":{},\"escaped\":{},\"masked\":{},\
                 \"resource_exhausted\":{},\"invalid\":{}}}",
                FaultClass::ALL[i].name(),
                c.total,
                c.caught,
                c.escaped,
                c.masked,
                c.resource_exhausted,
                c.invalid
            ));
        }
        s.push_str("],\"profiles\":[");
        let kinds = |p: (f64, f64, f64, f64)| {
            format!(
                "{{\"safe\":{:.3},\"seq\":{:.3},\"wild\":{:.3},\"rtti\":{:.3}}}",
                p.0, p.1, p.2, p.3
            )
        };
        for (i, p) in self.profiles.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"units\":{},\"pointers\":{},\"target\":{},\"measured\":{},\
                 \"max_deviation_pct\":{:.3},\"within_tolerance\":{}}}",
                json_str(&p.name),
                p.units,
                p.pointers,
                kinds(p.target),
                kinds(p.measured),
                p.max_deviation(),
                p.within(KIND_TOLERANCE_PCT)
            ));
        }
        s.push_str("],\"escapes\":[");
        for (i, e) in self.escapes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"unit\":{},\"mutant\":{},\"class\":\"{}\",\"description\":{}}}",
                json_str(&e.unit),
                e.mutant,
                e.class,
                json_str(&e.description)
            ));
        }
        s.push_str("],\"divergences\":[");
        for (i, d) in self.divergences.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"unit\":{},\"detail\":{}}}",
                json_str(&d.unit),
                json_str(&d.detail)
            ));
        }
        s.push_str("],\"cure_failures\":[");
        for (i, (u, why)) in self.cure_failures.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"unit\":{},\"detail\":{}}}",
                json_str(u),
                json_str(why)
            ));
        }
        s.push_str(&format!(
            "],\"cache_hit_rate\":{:.6},\"wall_ns\":{}}}",
            self.cache_hit_rate,
            self.wall.as_nanos()
        ));
        s
    }
}

/// What the sharded stage records for one unit.
#[derive(Debug, Default)]
struct UnitResult {
    divergence: Option<String>,
    cure_failure: Option<String>,
    crash: Option<CrashTestReport>,
}

/// Runs a campaign.
///
/// # Errors
///
/// I/O errors writing units or running the batch stage. Per-unit failures
/// (cure errors, divergences, escapes) are recorded in the report, never
/// propagated.
///
/// # Panics
///
/// Panics if `cfg.profiles` is empty or `cfg.units` is zero.
pub fn run_campaign(cfg: &CampaignConfig) -> io::Result<CampaignReport> {
    assert!(
        !cfg.profiles.is_empty(),
        "campaign needs at least one profile"
    );
    assert!(cfg.units > 0, "campaign needs at least one unit");
    let start = Instant::now();

    // Stage 1: generate, splitting the unit budget round-robin.
    let nprof = cfg.profiles.len();
    let mut units: Vec<(usize, Workload)> = Vec::with_capacity(cfg.units);
    for (pi, p) in cfg.profiles.iter().enumerate() {
        let n = cfg.units / nprof + usize::from(pi < cfg.units % nprof);
        let pseed = cfg.seed ^ (pi as u64 + 1).wrapping_mul(GOLDEN);
        for w in gen::generate(p, n, pseed) {
            units.push((pi, w));
        }
    }

    // Stage 2: write the corpus and batch-cure it (kind histograms +
    // cache exercise under the full worker pool).
    fs::create_dir_all(&cfg.out_dir)?;
    let mut paths = Vec::with_capacity(units.len());
    for (_, w) in &units {
        let path = cfg.out_dir.join(format!("{}.c", w.name));
        fs::write(&path, &w.source)?;
        paths.push(path);
    }
    let mut bcfg = BatchConfig::new(Curer::new());
    bcfg.jobs = cfg.jobs;
    bcfg.cache_dir = cfg.cache_dir.clone();
    bcfg.use_cache = cfg.use_cache;
    bcfg.limits = cfg.limits;
    let batch = run_batch(&bcfg, &paths)?;

    let mut cure_failures: Vec<(String, String)> = Vec::new();
    let mut prof_sums = vec![[0u64; 4]; nprof];
    for out in &batch.units {
        let Some(pi) = cfg
            .profiles
            .iter()
            .position(|p| unit_of_path(&out.path).starts_with(&format!("synth_{}_", p.name)))
        else {
            continue;
        };
        if let Some(r) = &out.report {
            prof_sums[pi][0] += r.safe;
            prof_sums[pi][1] += r.seq;
            prof_sums[pi][2] += r.wild;
            prof_sums[pi][3] += r.rtti;
        }
        if !out.verdict.is_cured() {
            cure_failures.push((
                unit_of_path(&out.path).to_string(),
                format!("batch: {}: {}", out.verdict.label(), out.verdict.detail()),
            ));
        }
    }

    // Stage 3: differential + crash-test, sharded over the worker pool.
    let jobs = effective_jobs(cfg.jobs, units.len());
    let queue: Mutex<VecDeque<usize>> = Mutex::new((0..units.len()).collect());
    let slots: Vec<Mutex<UnitResult>> = (0..units.len())
        .map(|_| Mutex::new(UnitResult::default()))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let queue = &queue;
            let slots = &slots;
            let units = &units;
            // The tree engine recurses on guest calls; size worker stacks
            // like the batch engine does.
            std::thread::Builder::new()
                .stack_size(8 << 20)
                .spawn_scoped(scope, move || loop {
                    let Some(idx) = queue.lock().unwrap().pop_front() else {
                        return;
                    };
                    let r = check_unit(&units[idx].1, idx, cfg);
                    *slots[idx].lock().unwrap() = r;
                })
                .expect("spawn campaign worker");
        }
    });

    // Stage 4: aggregate, in unit order so the report is deterministic.
    let mut classes = [ClassStat::default(); 6];
    let mut escapes = Vec::new();
    let mut divergences = Vec::new();
    let mut mutants = 0u64;
    for (idx, slot) in slots.into_iter().enumerate() {
        let r = slot.into_inner().unwrap();
        let unit = &units[idx].1.name;
        if let Some(d) = r.divergence {
            divergences.push(Divergence {
                unit: unit.clone(),
                detail: d,
            });
        }
        if let Some(f) = r.cure_failure {
            cure_failures.push((unit.clone(), f));
        }
        if let Some(rep) = r.crash {
            for run in &rep.runs {
                mutants += 1;
                let ci = FaultClass::ALL
                    .iter()
                    .position(|c| *c == run.class)
                    .unwrap_or(0);
                classes[ci].add(run.outcome);
                if run.outcome == Outcome::Escaped {
                    escapes.push(Escape {
                        unit: unit.clone(),
                        mutant: run.id,
                        class: run.class.name().to_string(),
                        description: run.description.clone(),
                    });
                }
            }
        }
    }

    let profiles = cfg
        .profiles
        .iter()
        .enumerate()
        .map(|(pi, p)| {
            let sums = prof_sums[pi];
            let total: u64 = sums.iter().sum();
            let pct = |k: u64| {
                if total == 0 {
                    0.0
                } else {
                    100.0 * k as f64 / total as f64
                }
            };
            let (tf_sf, tf_sq, tf_w, tf_rt) = p.kind_fractions();
            ProfileStat {
                name: p.name.to_string(),
                units: units.iter().filter(|(i, _)| *i == pi).count(),
                pointers: total,
                target: (tf_sf * 100.0, tf_sq * 100.0, tf_w * 100.0, tf_rt * 100.0),
                measured: (pct(sums[0]), pct(sums[1]), pct(sums[2]), pct(sums[3])),
            }
        })
        .collect();

    Ok(CampaignReport {
        seed: cfg.seed,
        units: units.len(),
        mutants_per_unit: cfg.mutants_per_unit,
        jobs,
        mutants,
        profiles,
        classes,
        escapes,
        divergences,
        cure_failures,
        cache_hit_rate: batch.hit_rate(),
        wall: start.elapsed(),
    })
}

/// Differential + crash-test for one unit.
fn check_unit(w: &Workload, idx: usize, cfg: &CampaignConfig) -> UnitResult {
    let mut r = UnitResult::default();

    // Cure once; the crash-test harness re-cures mutants itself.
    match isolated(|| Curer::new().cure_source(&w.source)) {
        Err(e) => {
            r.cure_failure = Some(format!("cure: {e}"));
            return r;
        }
        Ok(cured) => {
            let tree = observe(&cured, Engine::Tree, w, cfg.limits);
            let vm = observe(&cured, Engine::Vm, w, cfg.limits);
            if let Some(detail) = diff(&tree, &vm) {
                r.divergence = Some(detail);
            } else if tree.exit != w.expect_exit || tree.error.is_some() {
                // Engines agree but the unit's self-check failed: the
                // cure changed observable behaviour.
                r.divergence = Some(format!(
                    "self-check failed: exit {} (expected {}), error {:?}",
                    tree.exit, w.expect_exit, tree.error
                ));
            }
        }
    }

    // Fault-injection matrix: rotate the class preference with the global
    // mutant index and alternate engines per unit.
    let ct = CrashTest::new(
        cfg.mutants_per_unit,
        cfg.seed ^ (idx as u64).wrapping_mul(GOLDEN),
    )
    .with_limits(cfg.limits)
    .with_engine(if idx.is_multiple_of(2) {
        Engine::Vm
    } else {
        Engine::Tree
    })
    .with_class_offset(idx * cfg.mutants_per_unit % FaultClass::ALL.len());
    match crash_test(std::slice::from_ref(w), &ct) {
        Ok(rep) => r.crash = Some(rep),
        Err(e) => r.cure_failure = Some(format!("crash-test lower: {e}")),
    }
    r
}

/// Everything observable about one engine's run of a cured unit.
struct Observation {
    exit: i64,
    error: Option<String>,
    output: Vec<u8>,
    counters: [u64; 14],
}

fn observe(cured: &ccured::Cured, engine: Engine, w: &Workload, limits: Limits) -> Observation {
    let mut interp = Interp::new(&cured.program, ExecMode::cured(cured));
    interp.set_engine(engine);
    interp.set_limits(limits);
    interp.set_input(w.input.clone());
    let (exit, error) = match interp.run() {
        Ok(code) => (code, None),
        Err(e) => (0, Some(e.to_string())),
    };
    let c = &interp.counters;
    Observation {
        exit,
        error,
        output: interp.output().to_vec(),
        counters: [
            c.loads,
            c.stores,
            c.calls,
            c.extern_calls,
            c.io_ops,
            c.null_checks,
            c.seq_bounds_checks,
            c.seq_to_safe_checks,
            c.wild_bounds_checks,
            c.wild_tag_checks,
            c.rtti_checks,
            c.escape_checks,
            c.index_checks,
            c.tag_updates,
        ],
    }
}

/// First observable tree-vs-VM difference, if any.
fn diff(tree: &Observation, vm: &Observation) -> Option<String> {
    if tree.exit != vm.exit {
        return Some(format!("exit: tree {} vs vm {}", tree.exit, vm.exit));
    }
    if tree.error != vm.error {
        return Some(format!("error: tree {:?} vs vm {:?}", tree.error, vm.error));
    }
    if tree.output != vm.output {
        return Some(format!(
            "output: tree {} bytes vs vm {} bytes",
            tree.output.len(),
            vm.output.len()
        ));
    }
    if tree.counters != vm.counters {
        return Some(format!(
            "counters: tree {:?} vs vm {:?}",
            tree.counters, vm.counters
        ));
    }
    None
}

fn effective_jobs(jobs: usize, n_units: usize) -> usize {
    let jobs = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    };
    jobs.clamp(1, n_units.max(1))
}

/// The unit name of a batch path (`/dir/synth_mixed_0001.c` →
/// `synth_mixed_0001`).
fn unit_of_path(path: &str) -> &str {
    let file = path.rsplit(['/', '\\']).next().unwrap_or(path);
    file.strip_suffix(".c").unwrap_or(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ccured-campaign-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn small_campaign_is_sound_and_deterministic() {
        let dir = scratch("small");
        let mut cfg = CampaignConfig::new(dir.clone());
        cfg.units = 8;
        cfg.mutants_per_unit = 2;
        cfg.seed = 77;
        let a = run_campaign(&cfg).expect("campaign");
        assert!(a.ok(), "{}", a.render());
        assert_eq!(a.units, 8);
        assert_eq!(a.mutants, 16);
        // Deterministic: a rerun (warm cache, same seed) reports the same
        // JSON modulo wall-clock and cache hit rate.
        let b = run_campaign(&cfg).expect("campaign rerun");
        let strip = |mut r: CampaignReport| {
            r.wall = Duration::ZERO;
            r.cache_hit_rate = 0.0;
            r.to_json()
        };
        assert_eq!(strip(a), strip(b));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn class_rotation_covers_the_matrix() {
        let dir = scratch("classes");
        let mut cfg = CampaignConfig::new(dir.clone());
        cfg.units = 12;
        cfg.mutants_per_unit = 2;
        cfg.seed = 5;
        let rep = run_campaign(&cfg).expect("campaign");
        assert!(rep.ok(), "{}", rep.render());
        let seeded = rep.classes.iter().filter(|c| c.total > 0).count();
        assert!(
            seeded >= 4,
            "expected >= 4 fault classes across the matrix:\n{}",
            rep.render()
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
