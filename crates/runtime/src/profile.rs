//! Per-check-site execution profiles.
//!
//! The instrumentation stamps every emitted check with a stable
//! [`SiteId`](ccured_cil::ir::SiteId); when an [`Interp`](crate::Interp) has
//! profiling enabled (see [`Interp::enable_profile`](crate::Interp::enable_profile))
//! both engines record per-site hit/fail counts and RTTI walk steps through
//! the same shared helpers that maintain the aggregate
//! [`Counters`](crate::Counters). Profiling is observation-only: it never
//! touches the counters, the output, or the verdict, so a profiled run is
//! byte-identical to an unprofiled one (asserted by the differential tests).
//!
//! [`rank_sites`] joins the dynamic profile with the static
//! [`CheckSite`] table and the abstract
//! [`CostModel`] into a deterministically ranked hot-site report. Cost is
//! *attributed* at render time (hits × the per-kind check cost, plus walked
//! RTTI steps) rather than measured, so the ranking is identical across the
//! tree and VM engines by construction.

use crate::cost::CostModel;
use ccured::instrument::CheckSite;
use ccured::json;

/// Schema tag stamped into `ccured profile --json` output. Bump the
/// version when the JSON layout changes incompatibly.
pub const PROFILE_SCHEMA: &str = "ccured-profile/v1";

/// Dynamic counters for one check site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteCounters {
    /// Times a check of this site executed.
    pub hits: u64,
    /// Times it failed (aborting the program; at most 1 per run in
    /// practice, but fault injection can observe more across restarts).
    pub fails: u64,
    /// RTTI parent-chain steps walked by this site's checks.
    pub walk_steps: u64,
}

/// The per-site profile of one run. Indexed by the raw
/// [`SiteId`](ccured_cil::ir::SiteId) value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// One slot per site, in site-table order.
    pub sites: Vec<SiteCounters>,
}

impl Profile {
    /// A profile with `n_sites` zeroed slots.
    pub fn new(n_sites: usize) -> Self {
        Profile {
            sites: vec![SiteCounters::default(); n_sites],
        }
    }

    /// Total hits across all sites.
    pub fn total_hits(&self) -> u64 {
        self.sites.iter().map(|s| s.hits).sum()
    }

    pub(crate) fn slot(&mut self, i: usize) -> &mut SiteCounters {
        // Defensive: an id past the preallocated table (e.g. a profile
        // enabled with a stale site count) grows the vector rather than
        // dropping the event.
        if i >= self.sites.len() {
            self.sites.resize(i + 1, SiteCounters::default());
        }
        &mut self.sites[i]
    }
}

/// One row of a rendered profile: static site metadata joined with the
/// dynamic counters and the abstract cost attributed to the site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteReport {
    /// The static site (span, function, kinds, elision data).
    pub site: CheckSite,
    /// Dynamic executions of this site's checks.
    pub hits: u64,
    /// Dynamic failures.
    pub fails: u64,
    /// RTTI walk steps attributed to this site.
    pub walk_steps: u64,
    /// Abstract cycles attributed to this site under the [`CostModel`].
    pub cost: f64,
}

impl SiteReport {
    /// Writes the row's fields from `func` to `keep_reason`: the one shape
    /// of a profiled site in `profile --json`, batch `hot_sites`, serve's
    /// `profile` reply and `BENCH_profile.json`.
    pub fn write_json(&self, o: &mut json::Object<'_>) {
        let s = &self.site;
        o.str("func", &s.func)
            .num("span_lo", s.span.lo)
            .str("check", s.kind.name())
            .str("ptr_kind", s.kind.ptr_kind())
            .num("static_count", s.static_count)
            .num("elided", s.elided)
            .num("hits", self.hits)
            .num("fails", self.fails)
            .num("walk_steps", self.walk_steps)
            .fixed("cost", self.cost, 1)
            .opt_str("keep_reason", s.keep_reason.as_deref());
    }
}

/// Joins the static site table with a run's [`Profile`] and ranks the rows
/// hottest-first. Ordering: attributed cost, then hits, then site id — the
/// id tiebreak makes the ranking total, hence deterministic and identical
/// for any two runs (on any engine) that produced the same counts.
pub fn rank_sites(sites: &[CheckSite], profile: &Profile, model: &CostModel) -> Vec<SiteReport> {
    let mut rows: Vec<SiteReport> = sites
        .iter()
        .map(|s| {
            let c =
                s.id.index()
                    .and_then(|i| profile.sites.get(i))
                    .copied()
                    .unwrap_or_default();
            SiteReport {
                cost: c.hits as f64 * model.check[s.kind]
                    + c.walk_steps as f64 * model.rtti_walk_step,
                hits: c.hits,
                fails: c.fails,
                walk_steps: c.walk_steps,
                site: s.clone(),
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.cost
            .total_cmp(&a.cost)
            .then(b.hits.cmp(&a.hits))
            .then(a.site.id.cmp(&b.site.id))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_cil::ir::{CheckKind, SiteId};

    fn site(id: u32, kind: CheckKind) -> CheckSite {
        CheckSite {
            id: SiteId(id),
            func: "f".into(),
            span: ccured_ast::Span::DUMMY,
            kind,
            static_count: 1,
            elided: 0,
            keep_reason: None,
            opt_action: None,
        }
    }

    #[test]
    fn ranking_orders_by_attributed_cost_with_id_tiebreak() {
        let sites = vec![
            site(0, CheckKind::Null),
            site(1, CheckKind::WildBounds),
            site(2, CheckKind::Null),
        ];
        let mut prof = Profile::new(3);
        prof.sites[0].hits = 10; // 10 × 1.0 = 10 cycles
        prof.sites[1].hits = 2; // 2 × 9.0 = 18 cycles
        prof.sites[2].hits = 10; // ties with site 0 → id order
        let rows = rank_sites(&sites, &prof, &CostModel::default());
        let ids: Vec<u32> = rows.iter().map(|r| r.site.id.0).collect();
        assert_eq!(ids, vec![1, 0, 2]);
        assert!(rows[0].cost > rows[1].cost);
        assert_eq!(rows[1].cost, rows[2].cost);
    }

    #[test]
    fn rtti_walk_steps_add_attributed_cost() {
        let sites = vec![site(0, CheckKind::Rtti), site(1, CheckKind::Rtti)];
        let mut prof = Profile::new(2);
        prof.sites[0].hits = 1;
        prof.sites[1].hits = 1;
        prof.sites[1].walk_steps = 5;
        let rows = rank_sites(&sites, &prof, &CostModel::default());
        assert_eq!(rows[0].site.id.0, 1, "walk steps make site 1 hotter");
        let m = CostModel::default();
        assert_eq!(
            rows[0].cost,
            m.check[CheckKind::Rtti] + 5.0 * m.rtti_walk_step
        );
    }

    #[test]
    fn profile_slot_grows_on_demand() {
        let mut p = Profile::new(1);
        p.slot(4).hits += 1;
        assert_eq!(p.sites.len(), 5);
        assert_eq!(p.total_hits(), 1);
    }
}
