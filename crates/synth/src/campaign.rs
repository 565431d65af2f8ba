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
//!    reference and the bytecode VM must agree on the result, the output
//!    and every counter ([`RunStats::first_difference`]), and the unit's
//!    own checksum must pass (generated units are self-checking), and
//! 3. **crash-tested** with `mutants_per_unit` seeded faults, rotating the
//!    fault-class preference per unit so even two-mutant campaigns cover
//!    the full class matrix across units, alternating engines per unit.
//!
//! The report counts escapes (soundness bugs), masked faults, and engine
//! divergences, and checks each profile's measured kind histogram against
//! its requested targets. Everything is deterministic from the seed.

use crate::gen::{self, GOLDEN};
use crate::profiles::Profile;
use ccured::{isolated, json, Curer};
use ccured_batch::{run_batch, run_units, worker_stack_bytes, BatchConfig};
use ccured_faultinject::{crash_test, CrashTest, CrashTestReport, FaultClass, Outcome};
use ccured_rt::{Engine, ExecMode, Interp, Limits, RunStats};
use ccured_workloads::Workload;
use std::fs;
use std::io;
use std::path::PathBuf;
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
            limits: Limits::strict(),
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
        let kinds = |o: &mut json::Object<'_>, p: (f64, f64, f64, f64)| {
            o.fixed("safe", p.0, 3)
                .fixed("seq", p.1, 3)
                .fixed("wild", p.2, 3)
                .fixed("rtti", p.3, 3);
        };
        json::object(|o| {
            o.str("experiment", "campaign")
                .num("seed", self.seed)
                .num("units", self.units)
                .num("mutants_per_unit", self.mutants_per_unit)
                .num("jobs", self.jobs)
                .num("mutants", self.mutants)
                .num("sound", self.ok())
                .obj("outcomes", |o| {
                    o.num("caught", caught)
                        .num("escaped", escaped)
                        .num("masked", masked)
                        .num("resource_exhausted", limit)
                        .num("invalid", invalid);
                });
            o.list(
                "classes",
                FaultClass::ALL.iter().zip(&self.classes),
                |o, (class, c)| {
                    o.str("class", class.name())
                        .num("total", c.total)
                        .num("caught", c.caught)
                        .num("escaped", c.escaped)
                        .num("masked", c.masked)
                        .num("resource_exhausted", c.resource_exhausted)
                        .num("invalid", c.invalid);
                },
            );
            o.list("profiles", &self.profiles, |o, p| {
                o.str("name", &p.name)
                    .num("units", p.units)
                    .num("pointers", p.pointers)
                    .obj("target", |o| kinds(o, p.target))
                    .obj("measured", |o| kinds(o, p.measured))
                    .fixed("max_deviation_pct", p.max_deviation(), 3)
                    .num("within_tolerance", p.within(KIND_TOLERANCE_PCT));
            });
            o.list("escapes", &self.escapes, |o, e| {
                o.str("unit", &e.unit)
                    .num("mutant", e.mutant)
                    .str("class", &e.class)
                    .str("description", &e.description);
            });
            o.list("divergences", &self.divergences, |o, d| {
                o.str("unit", &d.unit).str("detail", &d.detail);
            });
            o.list("cure_failures", &self.cure_failures, |o, (u, why)| {
                o.str("unit", u).str("detail", why);
            });
            o.fixed("cache_hit_rate", self.cache_hit_rate, 6)
                .num("wall_ns", self.wall.as_nanos());
        })
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
    // The tree engine recurses on guest calls under the campaign's limits.
    let jobs = bcfg.effective_jobs(units.len());
    let stack_bytes = worker_stack_bytes(&cfg.limits);
    let results = run_units(units.len(), jobs, "ccured-campaign", stack_bytes, |idx| {
        check_unit(&units[idx].1, idx, cfg)
    })?;

    // Stage 4: aggregate, in unit order so the report is deterministic.
    let mut classes = [ClassStat::default(); 6];
    let mut escapes = Vec::new();
    let mut divergences = Vec::new();
    let mut mutants = 0u64;
    for (idx, r) in results.into_iter().enumerate() {
        let unit = &units[idx].1.name;
        let r = r.unwrap_or_else(|| UnitResult {
            cure_failure: Some("campaign worker died before recording a result".into()),
            ..UnitResult::default()
        });
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
            if let Some(detail) = tree.first_difference(&vm) {
                r.divergence = Some(format!("tree vs vm: {detail}"));
            } else if tree.result() != Ok(w.expect_exit) {
                // Engines agree but the unit's self-check failed: the
                // cure changed observable behaviour.
                r.divergence = Some(format!(
                    "self-check failed: {:?} (expected exit {})",
                    tree.result(),
                    w.expect_exit
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

/// One engine's sandboxed run of a cured unit.
fn observe(cured: &ccured::Cured, engine: Engine, w: &Workload, limits: Limits) -> RunStats {
    let mut interp = Interp::new(&cured.program, ExecMode::cured(cured));
    interp.set_engine(engine);
    interp.set_limits(limits);
    interp.set_input(w.input.clone());
    interp.observe()
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
