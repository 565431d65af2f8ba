//! Per-unit outcomes and the aggregate [`BatchReport`].

use crate::cache::NSTAGES;
use ccured::{json, CureError, CureReport, StageTimings};
use ccured_rt::SiteReport;
use std::time::Duration;

/// Stage names in pipeline order, indexing the per-stage cache counters.
pub const STAGE_NAMES: [&str; NSTAGES] = ["parse", "lower", "infer", "instrument", "optimize"];

/// The flat, comparable summary of one unit's [`CureReport`] — exactly the
/// numbers the batch report aggregates and the cache persists. Two cures of
/// the same unit under the same configuration produce equal `UnitReport`s
/// (asserted by the differential batch test).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitReport {
    /// Declared pointers inferred SAFE.
    pub safe: u64,
    /// Declared pointers inferred SEQ.
    pub seq: u64,
    /// Declared pointers inferred WILD.
    pub wild: u64,
    /// Declared pointers inferred RTTI.
    pub rtti: u64,
    /// Run-time checks inserted (before elimination).
    pub checks_inserted: u64,
    /// Checks the optimizer deleted.
    pub checks_elided: u64,
    /// Bad (WILD-forcing) casts in the census.
    pub bad_casts: u64,
    /// Programmer-asserted trusted casts.
    pub trusted_casts: u64,
    /// Checks provable to always fail (compile-time warnings).
    pub static_failures: u64,
    /// Wrapper redirections applied.
    pub wrappers_applied: u64,
    /// Link-audit findings.
    pub link_issues: u64,
    /// SPLIT qualifiers.
    pub split_quals: u64,
}

impl UnitReport {
    /// Extracts the summary from a full cure report.
    pub fn from_cure(r: &CureReport) -> Self {
        UnitReport {
            safe: r.kind_counts.safe as u64,
            seq: r.kind_counts.seq as u64,
            wild: r.kind_counts.wild as u64,
            rtti: r.kind_counts.rtti as u64,
            checks_inserted: r.checks_inserted.total(),
            checks_elided: r.checks_elided.total(),
            bad_casts: r.census.bad as u64,
            trusted_casts: r.trusted_casts as u64,
            static_failures: r.static_failures.len() as u64,
            wrappers_applied: r.wrappers_applied.len() as u64,
            link_issues: r.link_issues.len() as u64,
            split_quals: r.split_quals as u64,
        }
    }

    /// Field names and values in a fixed order (cache serialization).
    pub fn as_pairs(&self) -> [(&'static str, u64); 12] {
        [
            ("safe", self.safe),
            ("seq", self.seq),
            ("wild", self.wild),
            ("rtti", self.rtti),
            ("checks_inserted", self.checks_inserted),
            ("checks_elided", self.checks_elided),
            ("bad_casts", self.bad_casts),
            ("trusted_casts", self.trusted_casts),
            ("static_failures", self.static_failures),
            ("wrappers_applied", self.wrappers_applied),
            ("link_issues", self.link_issues),
            ("split_quals", self.split_quals),
        ]
    }

    /// Sets a field by its [`UnitReport::as_pairs`] name; `false` if the
    /// name is unknown (cache deserialization).
    pub fn set_field(&mut self, name: &str, value: u64) -> bool {
        let slot = match name {
            "safe" => &mut self.safe,
            "seq" => &mut self.seq,
            "wild" => &mut self.wild,
            "rtti" => &mut self.rtti,
            "checks_inserted" => &mut self.checks_inserted,
            "checks_elided" => &mut self.checks_elided,
            "bad_casts" => &mut self.bad_casts,
            "trusted_casts" => &mut self.trusted_casts,
            "static_failures" => &mut self.static_failures,
            "wrappers_applied" => &mut self.wrappers_applied,
            "link_issues" => &mut self.link_issues,
            "split_quals" => &mut self.split_quals,
            _ => return false,
        };
        *slot = value;
        true
    }

    /// Element-wise sum (corpus aggregation).
    pub fn add(&mut self, other: &UnitReport) {
        self.safe += other.safe;
        self.seq += other.seq;
        self.wild += other.wild;
        self.rtti += other.rtti;
        self.checks_inserted += other.checks_inserted;
        self.checks_elided += other.checks_elided;
        self.bad_casts += other.bad_casts;
        self.trusted_casts += other.trusted_casts;
        self.static_failures += other.static_failures;
        self.wrappers_applied += other.wrappers_applied;
        self.link_issues += other.link_issues;
        self.split_quals += other.split_quals;
    }
}

/// How curing one unit ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Cured successfully.
    Cured,
    /// The file could not be read.
    Unreadable(String),
    /// Parse/lower/type error.
    Frontend(String),
    /// Strict link audit failed (`n` issues).
    Link(usize),
    /// The curer panicked (caught by `ccured::isolated`).
    Internal(String),
    /// The cure blew its wall-clock budget (`--deadline-ms`): a
    /// structured, terminal outcome with its own exit code, so one
    /// pathological unit cannot wedge a batch or a serve worker.
    ResourceExhausted(String),
}

impl Verdict {
    /// Whether the unit cured.
    pub fn is_cured(&self) -> bool {
        matches!(self, Verdict::Cured)
    }

    /// Short machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Cured => "cured",
            Verdict::Unreadable(_) => "unreadable",
            Verdict::Frontend(_) => "frontend-error",
            Verdict::Link(_) => "link-error",
            Verdict::Internal(_) => "internal-error",
            Verdict::ResourceExhausted(_) => "resource-exhausted",
        }
    }

    /// Human-readable detail (empty for [`Verdict::Cured`]).
    pub fn detail(&self) -> String {
        match self {
            Verdict::Cured => String::new(),
            Verdict::Unreadable(m)
            | Verdict::Frontend(m)
            | Verdict::Internal(m)
            | Verdict::ResourceExhausted(m) => m.clone(),
            Verdict::Link(n) => format!("{n} link-audit issues"),
        }
    }
}

/// The verdict of a cure that failed; batch and serve both name a failed
/// cure by its [`Verdict::label`].
impl From<CureError> for Verdict {
    fn from(e: CureError) -> Self {
        match e {
            CureError::Frontend(d) => Verdict::Frontend(d.to_string()),
            CureError::Link(issues) => Verdict::Link(issues.len()),
            CureError::Internal(m) => Verdict::Internal(m),
            CureError::Timeout { .. } => Verdict::ResourceExhausted(e.to_string()),
        }
    }
}

/// What happened to one unit in one batch run.
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// The unit path as listed in the directory/manifest.
    pub path: String,
    /// How the cure ended.
    pub verdict: Verdict,
    /// Whether this run served the unit from the content-addressed cache.
    pub from_cache: bool,
    /// The cured program, pretty-printed (empty on failure). Byte-identical
    /// across `--jobs` settings and cache hits.
    pub cured_text: String,
    /// The flat report summary (None on failure).
    pub report: Option<UnitReport>,
    /// FNV-1a digest of [`CureReport::canonical`] (0 on failure).
    pub report_digest: u64,
    /// Per-stage cost of the cure that produced this artifact — measured
    /// live on a miss, recalled from the cache entry on a hit.
    pub cure_timings: StageTimings,
    /// Wall-clock this run actually spent on the unit (on a hit: the cache
    /// probe; on a miss: the full cure).
    pub elapsed: Duration,
    /// Ranked per-site check profile from executing the cured unit. Empty
    /// unless the batch ran with `BatchConfig::profile` (and the unit
    /// cured). Site ids are local to this unit's site table.
    pub site_profile: Vec<SiteReport>,
}

/// Hit/miss/elapsed accounting for one pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStat {
    /// Times this stage was served from cache.
    pub hits: u64,
    /// Times this stage ran live.
    pub misses: u64,
    /// Wall-clock spent running the stage live this run.
    pub live: Duration,
    /// Wall-clock the cache avoided (the original cure's cost for stages
    /// served from cache).
    pub saved: Duration,
}

/// Aggregate cache statistics for one batch run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Whether the cache was consulted at all (`--no-cache` disables it).
    pub enabled: bool,
    /// Cache probes (one per readable unit).
    pub lookups: u64,
    /// Whole-unit hits.
    pub hits: u64,
    /// Whole-unit misses.
    pub misses: u64,
    /// New entries persisted this run.
    pub entries_written: u64,
    /// Per-stage breakdown, indexed like [`STAGE_NAMES`].
    pub stages: [StageStat; NSTAGES],
}

impl CacheStats {
    /// Fraction of lookups served from cache (0.0 when the cache is off or
    /// no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// The aggregate result of one batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-unit outcomes, sorted by path (worker completion order never
    /// leaks into the report).
    pub units: Vec<UnitOutcome>,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock for the whole batch.
    pub wall: Duration,
    /// Sum of per-unit elapsed time (the work the pool actually performed;
    /// `cpu / wall` approximates achieved parallelism).
    pub cpu: Duration,
    /// Cache accounting.
    pub cache: CacheStats,
}

impl BatchReport {
    /// Assembles a report: sorts units by path and derives the aggregate
    /// cache statistics from the per-unit outcomes.
    pub fn new(
        mut units: Vec<UnitOutcome>,
        jobs: usize,
        wall: Duration,
        cache_enabled: bool,
    ) -> Self {
        units.sort_by(|a, b| a.path.cmp(&b.path));
        let cpu = units.iter().map(|u| u.elapsed).sum();
        let mut cache = CacheStats {
            enabled: cache_enabled,
            ..CacheStats::default()
        };
        if cache_enabled {
            for u in &units {
                if matches!(u.verdict, Verdict::Unreadable(_)) {
                    continue; // never reached the cache probe
                }
                cache.lookups += 1;
                let ns = u.cure_timings.as_ns();
                if u.from_cache {
                    cache.hits += 1;
                    for (i, n) in ns.iter().enumerate() {
                        cache.stages[i].hits += 1;
                        cache.stages[i].saved += Duration::from_nanos(*n);
                    }
                } else {
                    cache.misses += 1;
                    for (i, n) in ns.iter().enumerate() {
                        cache.stages[i].misses += 1;
                        cache.stages[i].live += Duration::from_nanos(*n);
                    }
                    if u.verdict.is_cured() {
                        cache.entries_written += 1;
                    }
                }
            }
        }
        BatchReport {
            units,
            jobs,
            wall,
            cpu,
            cache,
        }
    }

    /// Units that cured.
    pub fn cured(&self) -> usize {
        self.units.iter().filter(|u| u.verdict.is_cured()).count()
    }

    /// Units that failed (any non-cured verdict).
    pub fn failed(&self) -> usize {
        self.units.len() - self.cured()
    }

    /// Pointer-kind histograms and check counts summed over cured units.
    pub fn totals(&self) -> UnitReport {
        let mut t = UnitReport::default();
        for u in &self.units {
            if let Some(r) = &u.report {
                t.add(r);
            }
        }
        t
    }

    /// Whole-unit cache hit rate for this run.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Whether any unit carries a site profile (the batch ran with
    /// [`BatchConfig::profile`](crate::BatchConfig) on and something cured).
    pub fn profiled(&self) -> bool {
        self.units.iter().any(|u| !u.site_profile.is_empty())
    }

    /// The hottest check sites across every profiled unit, ranked by
    /// attributed cost, then hits, then unit path and site id. The final
    /// two keys make the order total, so the aggregate ranking is
    /// deterministic regardless of `--jobs` or cache state. Site ids are
    /// per-unit, so rows are keyed by (unit path, site); zero-hit sites
    /// are skipped.
    pub fn hot_sites(&self, top: usize) -> Vec<(&str, &SiteReport)> {
        let mut rows: Vec<(&str, &SiteReport)> = self
            .units
            .iter()
            .flat_map(|u| {
                u.site_profile
                    .iter()
                    .filter(|r| r.hits > 0)
                    .map(move |r| (u.path.as_str(), r))
            })
            .collect();
        rows.sort_by(|a, b| {
            b.1.cost
                .total_cmp(&a.1.cost)
                .then(b.1.hits.cmp(&a.1.hits))
                .then(a.0.cmp(b.0))
                .then(a.1.site.id.cmp(&b.1.site.id))
        });
        rows.truncate(top);
        rows
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "== batch report: {} units, {} jobs ==\n",
            self.units.len(),
            self.jobs
        ));
        let wpath = self
            .units
            .iter()
            .map(|u| u.path.len())
            .max()
            .unwrap_or(4)
            .max(4);
        s.push_str(&format!(
            "{:wpath$}  {:15} {:5}  {:>8}  {:>18}  {:>12}\n",
            "unit", "verdict", "cache", "cure-ms", "safe/seq/wild/rtti", "checks(in/el)"
        ));
        for u in &self.units {
            let kinds = match &u.report {
                Some(r) => format!("{}/{}/{}/{}", r.safe, r.seq, r.wild, r.rtti),
                None => "-".to_string(),
            };
            let checks = match &u.report {
                Some(r) => format!("{}/{}", r.checks_inserted, r.checks_elided),
                None => "-".to_string(),
            };
            s.push_str(&format!(
                "{:wpath$}  {:15} {:5}  {:>8.2}  {:>18}  {:>12}\n",
                u.path,
                u.verdict.label(),
                if u.from_cache { "hit" } else { "miss" },
                u.cure_timings.total().as_secs_f64() * 1e3,
                kinds,
                checks
            ));
        }
        let t = self.totals();
        s.push_str(&format!(
            "pointer kinds (summed): {} SAFE, {} SEQ, {} WILD, {} RTTI; checks {} inserted / {} elided\n",
            t.safe, t.seq, t.wild, t.rtti, t.checks_inserted, t.checks_elided
        ));
        if self.profiled() {
            s.push_str("hottest check sites across the batch:\n");
            s.push_str(&format!(
                "  {:>4} {:>10} {:>10} {:>6}  {:<16} {:<5} site\n",
                "rank", "cost", "hits", "fails", "check", "ptr"
            ));
            for (rank, (path, r)) in self.hot_sites(10).iter().enumerate() {
                s.push_str(&format!(
                    "  {:>4} {:>10.1} {:>10} {:>6}  {:<16} {:<5} {path}: {} @{}\n",
                    rank + 1,
                    r.cost,
                    r.hits,
                    r.fails,
                    r.site.kind.name(),
                    r.site.kind.ptr_kind(),
                    r.site.func,
                    r.site.span.lo
                ));
            }
        }
        if self.cache.enabled {
            s.push_str(&format!(
                "cache: {} lookups, {} hits ({:.1}%), {} misses, {} entries written\n",
                self.cache.lookups,
                self.cache.hits,
                self.cache.hit_rate() * 100.0,
                self.cache.misses,
                self.cache.entries_written
            ));
            s.push_str(&format!(
                "  {:10}  {:>5}  {:>6}  {:>9}  {:>9}\n",
                "stage", "hits", "misses", "live-ms", "saved-ms"
            ));
            for (i, name) in STAGE_NAMES.iter().enumerate() {
                let st = &self.cache.stages[i];
                s.push_str(&format!(
                    "  {:10}  {:>5}  {:>6}  {:>9.2}  {:>9.2}\n",
                    name,
                    st.hits,
                    st.misses,
                    st.live.as_secs_f64() * 1e3,
                    st.saved.as_secs_f64() * 1e3
                ));
            }
        } else {
            s.push_str("cache: disabled\n");
        }
        s.push_str(&format!(
            "wall {:.2} ms, cpu {:.2} ms ({:.2}x)\n",
            self.wall.as_secs_f64() * 1e3,
            self.cpu.as_secs_f64() * 1e3,
            if self.wall.as_nanos() == 0 {
                1.0
            } else {
                self.cpu.as_secs_f64() / self.wall.as_secs_f64()
            }
        ));
        for u in &self.units {
            if !u.verdict.is_cured() {
                s.push_str(&format!(
                    "failed: {}: {}: {}\n",
                    u.path,
                    u.verdict.label(),
                    u.verdict.detail()
                ));
            }
        }
        s
    }

    /// Machine-readable report (the `--json` CLI flag and the CI
    /// `batch-smoke` assertion).
    pub fn to_json(&self) -> String {
        let t = self.totals();
        json::object(|o| {
            o.list("units", &self.units, |o, u| {
                o.str("path", &u.path)
                    .str("verdict", u.verdict.label())
                    .str("detail", &u.verdict.detail())
                    .num("from_cache", u.from_cache)
                    .num("elapsed_ns", u.elapsed.as_nanos())
                    .num("cure_ns", u.cure_timings.total().as_nanos());
                match &u.report {
                    Some(r) => o.obj("report", |o| {
                        for (name, v) in r.as_pairs() {
                            o.num(name, v);
                        }
                    }),
                    None => o.num("report", None::<u64>),
                };
            });
            o.num("jobs", self.jobs)
                .num("cured", self.cured())
                .num("failed", self.failed())
                .obj("kinds", |o| {
                    o.num("safe", t.safe)
                        .num("seq", t.seq)
                        .num("wild", t.wild)
                        .num("rtti", t.rtti);
                });
            o.list("hot_sites", self.hot_sites(50), |o, (path, r)| {
                o.str("path", path);
                r.write_json(o);
            });
            let c = &self.cache;
            o.obj("cache", |o| {
                o.num("enabled", c.enabled)
                    .num("lookups", c.lookups)
                    .num("hits", c.hits)
                    .num("misses", c.misses)
                    .fixed("hit_rate", c.hit_rate(), 6)
                    .num("entries_written", c.entries_written)
                    .obj("stages", |o| {
                        for (name, st) in STAGE_NAMES.iter().zip(&c.stages) {
                            o.obj(name, |o| {
                                o.num("hits", st.hits)
                                    .num("misses", st.misses)
                                    .num("live_ns", st.live.as_nanos())
                                    .num("saved_ns", st.saved.as_nanos());
                            });
                        }
                    });
            });
            o.num("wall_ns", self.wall.as_nanos())
                .num("cpu_ns", self.cpu.as_nanos());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_cil::ir::CheckKind;

    fn unit(path: &str, cached: bool, cured: bool) -> UnitOutcome {
        UnitOutcome {
            path: path.to_string(),
            verdict: if cured {
                Verdict::Cured
            } else {
                Verdict::Frontend("boom \"quoted\"".to_string())
            },
            from_cache: cached,
            cured_text: "P".to_string(),
            report: cured.then(UnitReport::default),
            report_digest: 7,
            cure_timings: StageTimings::from_ns([10, 20, 30, 40, 50]),
            elapsed: Duration::from_nanos(100),
            site_profile: Vec::new(),
        }
    }

    fn row(path_site: u32, kind: CheckKind, hits: u64, cost: f64) -> SiteReport {
        SiteReport {
            site: ccured::instrument::CheckSite {
                id: ccured_cil::ir::SiteId(path_site),
                func: "f".into(),
                span: ccured_ast::Span::DUMMY,
                kind,
                static_count: 1,
                elided: 0,
                keep_reason: None,
                opt_action: None,
            },
            hits,
            fails: 0,
            walk_steps: 0,
            cost,
        }
    }

    #[test]
    fn hot_sites_aggregate_across_units_deterministically() {
        let mut a = unit("a.c", false, true);
        let mut b = unit("b.c", false, true);
        a.site_profile = vec![
            row(0, CheckKind::SeqBounds, 4, 16.0),
            row(1, CheckKind::Null, 0, 0.0),
        ];
        b.site_profile = vec![
            row(0, CheckKind::SeqBounds, 4, 16.0),
            row(1, CheckKind::WildBounds, 3, 27.0),
        ];
        let r = BatchReport::new(vec![b, a], 1, Duration::ZERO, false);
        assert!(r.profiled());
        let hot = r.hot_sites(10);
        // Cost first; the 16.0 tie breaks on unit path; zero-hit rows drop.
        let keyed: Vec<(&str, &str)> = hot.iter().map(|(p, r)| (*p, r.site.kind.name())).collect();
        assert_eq!(
            keyed,
            vec![
                ("b.c", "wild_bounds"),
                ("a.c", "seq_bounds"),
                ("b.c", "seq_bounds"),
            ]
        );
        assert_eq!(r.hot_sites(1).len(), 1, "top truncates");
        let rendered = r.render();
        assert!(
            rendered.contains("hottest check sites across the batch"),
            "{rendered}"
        );
        let j = r.to_json();
        assert!(j.contains("\"hot_sites\":[{\"path\":\"b.c\""), "{j}");
        assert!(j.contains("\"check\":\"wild_bounds\""), "{j}");
    }

    #[test]
    fn unprofiled_report_has_no_hot_site_section_but_keeps_json_field() {
        let r = BatchReport::new(vec![unit("a.c", false, true)], 1, Duration::ZERO, false);
        assert!(!r.profiled());
        assert!(!r.render().contains("hottest check sites"));
        assert!(r.to_json().contains("\"hot_sites\":[]"));
    }

    #[test]
    fn report_sorts_units_and_derives_cache_stats() {
        let r = BatchReport::new(
            vec![unit("b.c", true, true), unit("a.c", false, true)],
            4,
            Duration::from_nanos(150),
            true,
        );
        assert_eq!(r.units[0].path, "a.c");
        assert_eq!(r.cache.lookups, 2);
        assert_eq!(r.cache.hits, 1);
        assert_eq!(r.cache.misses, 1);
        assert_eq!(r.cache.entries_written, 1);
        assert!((r.hit_rate() - 0.5).abs() < 1e-9);
        assert_eq!(r.cache.stages[0].saved, Duration::from_nanos(10));
        assert_eq!(r.cache.stages[4].live, Duration::from_nanos(50));
        assert_eq!(r.cpu, Duration::from_nanos(200));
    }

    #[test]
    fn failed_units_do_not_write_entries() {
        let r = BatchReport::new(vec![unit("x.c", false, false)], 1, Duration::ZERO, true);
        assert_eq!(r.cured(), 0);
        assert_eq!(r.failed(), 1);
        assert_eq!(r.cache.entries_written, 0);
        assert!(r.render().contains("failed: x.c"));
    }

    #[test]
    fn json_escapes_and_shape() {
        let r = BatchReport::new(
            vec![unit("a.c", false, false)],
            2,
            Duration::from_nanos(9),
            true,
        );
        let j = r.to_json();
        assert!(j.contains("\"boom \\\"quoted\\\"\""), "{j}");
        assert!(j.contains("\"hit_rate\":0.000000"), "{j}");
        assert!(j.contains("\"stages\":{\"parse\""), "{j}");
        assert!(j.ends_with('}'), "{j}");
    }

    #[test]
    fn totals_sum_unit_reports() {
        let mut a = unit("a.c", false, true);
        let mut b = unit("b.c", false, true);
        a.report = Some(UnitReport {
            safe: 3,
            wild: 1,
            ..UnitReport::default()
        });
        b.report = Some(UnitReport {
            safe: 2,
            checks_inserted: 5,
            ..UnitReport::default()
        });
        let r = BatchReport::new(vec![a, b], 1, Duration::ZERO, false);
        let t = r.totals();
        assert_eq!((t.safe, t.wild, t.checks_inserted), (5, 1, 5));
        assert!(!r.cache.enabled);
        assert_eq!(r.cache.lookups, 0);
    }
}
