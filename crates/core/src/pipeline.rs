//! The end-to-end CCured pipeline: parse → lower → infer → wrap →
//! instrument → optimize → audit.

use crate::hierarchy::Hierarchy;
use crate::instrument::{instrument, CheckSite};
use crate::wrappers::{apply_wrappers, check_link, LinkIssue};
use ccured_analysis::{optimize_program, OptResult, StaticFailure};
use ccured_cil::ir::{PerCheck, Program};
use ccured_infer::solve::AnnotationViolation;
use ccured_infer::{infer, CastCensus, InferOptions, KindCounts, Provenance, Solution};
use std::fmt;
use std::time::{Duration, Instant};

/// Errors produced while curing a program.
#[derive(Debug, Clone)]
pub enum CureError {
    /// Lexing, parsing, lowering, or type-checking failed.
    Frontend(ccured_ast::Diag),
    /// The strict link audit found incompatible external calls.
    Link(Vec<LinkIssue>),
    /// The pipeline itself panicked — a curer bug, not a program error.
    /// Produced only by [`isolated`], which converts panics into errors so
    /// one hostile input cannot abort a whole batch (fault injection,
    /// fuzzing).
    Internal(String),
    /// The cure blew its wall-clock budget ([`Curer::deadline`]). A
    /// pathological unit becomes a structured, terminal error instead of a
    /// wedged worker; callers (batch, serve) may retry it with backoff.
    Timeout {
        /// Pipeline stage that noticed the overrun.
        stage: &'static str,
        /// The configured budget.
        budget: Duration,
    },
}

impl fmt::Display for CureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CureError::Frontend(d) => write!(f, "frontend error: {d}"),
            CureError::Link(issues) => {
                writeln!(f, "link audit failed ({} issues):", issues.len())?;
                for i in issues {
                    writeln!(f, "  {} -> {}: {}", i.caller, i.external, i.detail)?;
                }
                Ok(())
            }
            CureError::Internal(d) => write!(f, "internal curer error: {d}"),
            CureError::Timeout { stage, budget } => write!(
                f,
                "cure deadline exceeded: budget {budget:?} spent by stage `{stage}`"
            ),
        }
    }
}

/// Runs `f` with panic isolation: any panic inside becomes
/// [`CureError::Internal`] instead of unwinding into (and aborting) the
/// caller's batch. Used by the fault-injection harness and the fuzz driver,
/// where one pathological mutant must not take down the whole run.
///
/// # Errors
///
/// Whatever `f` returns, plus [`CureError::Internal`] if `f` panicked.
pub fn isolated<T>(f: impl FnOnce() -> Result<T, CureError>) -> Result<T, CureError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(CureError::Internal(msg))
        }
    }
}

impl std::error::Error for CureError {}

impl From<ccured_ast::Diag> for CureError {
    fn from(d: ccured_ast::Diag) -> Self {
        CureError::Frontend(d)
    }
}

/// Wall-clock time attributed to each pipeline stage by the timing hooks
/// in [`Curer::cure_source`]. Consumed by the batch engine's per-stage
/// cache counters and the `fig-batch` speedup table.
///
/// Timings are observability data, *not* part of [`CureReport`]: two cures
/// of the same unit must produce identical reports even though their
/// timings differ.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Lexing + parsing to the AST.
    pub parse: Duration,
    /// Lowering the AST to CIL.
    pub lower: Duration,
    /// Wrapper application, pointer-kind inference, and the link audit.
    pub infer: Duration,
    /// Hierarchy construction + run-time check insertion.
    pub instrument: Duration,
    /// Redundant-check elimination (zero when the optimizer is off).
    pub optimize: Duration,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.parse + self.lower + self.infer + self.instrument + self.optimize
    }

    /// The stage durations as nanoseconds, in pipeline order
    /// (parse, lower, infer, instrument, optimize).
    pub fn as_ns(&self) -> [u64; 5] {
        [
            self.parse.as_nanos() as u64,
            self.lower.as_nanos() as u64,
            self.infer.as_nanos() as u64,
            self.instrument.as_nanos() as u64,
            self.optimize.as_nanos() as u64,
        ]
    }

    /// Rebuilds timings from [`StageTimings::as_ns`] output (cache entries
    /// store the original cure's timings to compute time saved on hits).
    pub fn from_ns(ns: [u64; 5]) -> Self {
        StageTimings {
            parse: Duration::from_nanos(ns[0]),
            lower: Duration::from_nanos(ns[1]),
            infer: Duration::from_nanos(ns[2]),
            instrument: Duration::from_nanos(ns[3]),
            optimize: Duration::from_nanos(ns[4]),
        }
    }
}

/// Summary of what the cure did — the numbers the paper reports per
/// program (kind percentages, cast census, check counts).
#[derive(Debug, Clone)]
pub struct CureReport {
    /// Qualifier counts per effective kind (the `sf/sq/w/rt` columns).
    pub kind_counts: KindCounts,
    /// Cast classification census.
    pub census: CastCensus,
    /// Static counts of inserted run-time checks (before elimination).
    pub checks_inserted: PerCheck<u64>,
    /// Static counts of checks the optimizer proved redundant and deleted
    /// (`no_stack_escape` stays 0: the eliminator always keeps those).
    pub checks_elided: PerCheck<u64>,
    /// Check instructions the loop optimizer rewrote to run once per loop
    /// entry (loop-invariant null/RTTI hoisting).
    pub checks_hoisted: u64,
    /// Per-iteration SEQ bounds checks the loop optimizer folded into one
    /// whole-trip range probe.
    pub checks_widened: u64,
    /// Checks provable to *always* fail at run time (compile-time
    /// diagnostics; the checks themselves are kept so behaviour is
    /// unchanged).
    pub static_failures: Vec<StaticFailure>,
    /// `(wrapper, external)` pairs applied.
    pub wrappers_applied: Vec<(String, String)>,
    /// Trusted casts in the program (the code-review surface).
    pub trusted_casts: usize,
    /// SPLIT qualifier count.
    pub split_quals: usize,
    /// Annotation assertions violated by the inference.
    pub annotation_violations: Vec<AnnotationViolation>,
    /// Link-audit findings (fatal only in strict mode).
    pub link_issues: Vec<LinkIssue>,
    /// Validate-and-retry iterations the solver used.
    pub solver_iterations: usize,
}

impl CureReport {
    /// A canonical, fully deterministic rendering of the report, suitable
    /// for content digests (the batch cache) and differential comparison.
    /// Two cures of the same source under the same configuration must
    /// produce byte-identical canonical forms regardless of thread
    /// interleaving or hash-map iteration order — the report vectors are
    /// sorted by [`Curer::cure_program`] before this is called.
    pub fn canonical(&self) -> String {
        format!("{self:#?}")
    }
}

/// A cured program, ready for execution by `ccured-rt`.
#[derive(Debug, Clone)]
pub struct Cured {
    /// The instrumented program.
    pub program: Program,
    /// The check-site table built by the instrumentation, indexed by
    /// [`SiteId`](ccured_cil::ir::SiteId); the per-site substrate of
    /// `ccured profile`. Not part of [`CureReport::canonical`].
    pub sites: Vec<CheckSite>,
    /// Pointer-kind solution consulted by the runtime for representations.
    pub solution: Solution,
    /// The physical-subtype hierarchy for RTTI checks.
    pub hierarchy: Hierarchy,
    /// Qualifier-promotion provenance recorded by the solver, consumed by
    /// the blame explainer (`ccured-analysis`).
    pub provenance: Provenance,
    /// Cure summary.
    pub report: CureReport,
    /// Per-stage wall-clock attribution for this cure (zero for `parse`
    /// and `lower` when entering via [`Curer::cure_program`]).
    pub timings: StageTimings,
    /// Whether the cure emitted temporal lock-and-key checks;
    /// `ccured_rt::ExecMode::cured` carries it to the interpreter, so `free`
    /// revokes keys in every run of this program.
    pub temporal: bool,
}

/// Builder for the CCured transformation (non-consuming, [`Default`]).
///
/// # Examples
///
/// ```
/// use ccured::Curer;
/// use ccured_cil::ir::CheckKind;
///
/// let cured = Curer::new()
///     .rtti(true)
///     .cure_source("int f(int *p) { return *p; }")
///     .unwrap();
/// assert_eq!(cured.report.checks_inserted[CheckKind::Null], 1);
/// ```
#[derive(Debug, Clone)]
pub struct Curer {
    options: InferOptions,
    strict_link: bool,
    optimize: bool,
    loop_opt: bool,
    temporal: bool,
    prelude: Option<String>,
    deadline: Option<Duration>,
}

impl Default for Curer {
    fn default() -> Self {
        Self::new()
    }
}

impl Curer {
    /// A curer with the paper's default configuration (physical subtyping
    /// and RTTI on, SPLIT only where annotated).
    pub fn new() -> Self {
        Curer {
            options: InferOptions::default(),
            strict_link: false,
            optimize: true,
            loop_opt: true,
            temporal: false,
            prelude: None,
            deadline: None,
        }
    }

    /// A curer mimicking the original (POPL 2002) CCured: no physical
    /// subtyping, no RTTI.
    pub fn original_ccured() -> Self {
        Curer {
            options: InferOptions::original_ccured(),
            strict_link: false,
            optimize: true,
            loop_opt: true,
            temporal: false,
            prelude: None,
            deadline: None,
        }
    }

    /// Enables/disables the RTTI pointer kind.
    pub fn rtti(&mut self, on: bool) -> &mut Self {
        self.options.rtti = on;
        self
    }

    /// Enables/disables physical subtyping for upcasts.
    pub fn physical_subtyping(&mut self, on: bool) -> &mut Self {
        self.options.physical_subtyping = on;
        self
    }

    /// Seeds SPLIT automatically at external-call boundaries.
    pub fn split_at_boundaries(&mut self, on: bool) -> &mut Self {
        self.options.split_at_boundaries = on;
        self
    }

    /// Forces the SPLIT representation everywhere (overhead experiment).
    pub fn split_everything(&mut self, on: bool) -> &mut Self {
        self.options.split_everything = on;
        self
    }

    /// Makes link-audit findings fatal ([`CureError::Link`]).
    pub fn strict_link(&mut self, on: bool) -> &mut Self {
        self.strict_link = on;
        self
    }

    /// Enables/disables redundant-check elimination (on by default; the
    /// CLI's `--no-opt` ablation flag turns it off).
    pub fn optimize(&mut self, on: bool) -> &mut Self {
        self.optimize = on;
        self
    }

    /// Enables/disables the second-generation loop optimizer (invariant
    /// check hoisting + SEQ bounds widening; on by default, and a no-op
    /// when [`Curer::optimize`] is off).
    pub fn loop_optimize(&mut self, on: bool) -> &mut Self {
        self.loop_opt = on;
        self
    }

    /// Enables temporal lock-and-key checking (`--temporal`): every pointer
    /// carries a capability key stamped at allocation, `free` revokes it
    /// (the bytes stay live under the cured GC semantics), and every
    /// dereference gets a `CHECK_TEMPORAL` comparing the key — an ordinary
    /// check instruction with a [`SiteId`](ccured_cil::ir::SiteId), so the
    /// optimizer, profiler, blame explainer, and both engines apply
    /// unchanged. Off by default.
    pub fn temporal(&mut self, on: bool) -> &mut Self {
        self.temporal = on;
        self
    }

    /// Sets a wall-clock budget for each cure entry point. When the budget
    /// is spent, the pipeline stops at the next stage boundary with
    /// [`CureError::Timeout`] — a pathological unit becomes a structured
    /// error instead of a wedged worker.
    ///
    /// The deadline is deliberately **not** part of
    /// [`Curer::config_fingerprint`]: it can only abort a cure, never
    /// change the output of one that completes, so cache entries stay
    /// valid across deadline changes. A zero budget trips deterministically
    /// at the first boundary (used by tests to exercise the path without
    /// wall-clock flakiness).
    pub fn deadline(&mut self, d: Option<Duration>) -> &mut Self {
        self.deadline = d;
        self
    }

    /// Fails with [`CureError::Timeout`] when the budget set by
    /// [`Curer::deadline`] is already spent at a stage boundary.
    fn check_deadline(&self, start: Instant, stage: &'static str) -> Result<(), CureError> {
        match self.deadline {
            Some(budget) if start.elapsed() >= budget => Err(CureError::Timeout { stage, budget }),
            _ => Ok(()),
        }
    }

    /// Prepends the standard-library wrapper prelude
    /// ([`crate::wrappers::stdlib_wrapper_source`]) to cured sources.
    pub fn with_stdlib_wrappers(&mut self) -> &mut Self {
        self.prelude = Some(crate::wrappers::stdlib_wrapper_source().to_string());
        self
    }

    /// The current inference options.
    pub fn options(&self) -> &InferOptions {
        &self.options
    }

    /// A stable, human-readable rendering of everything that influences the
    /// cure's output: inference options, optimizer and link-audit settings,
    /// and the prelude text. Part of the batch cache key — two curers with
    /// equal fingerprints produce byte-identical cures for equal sources.
    pub fn config_fingerprint(&self) -> String {
        format!(
            "rtti={} phys={} split_bound={} split_all={} strict_link={} optimize={} loop_opt={} temporal={} prelude={:?}",
            self.options.rtti,
            self.options.physical_subtyping,
            self.options.split_at_boundaries,
            self.options.split_everything,
            self.strict_link,
            self.optimize,
            self.loop_opt,
            self.temporal,
            self.prelude.as_deref().unwrap_or("")
        )
    }

    /// Cures a C source string.
    ///
    /// # Errors
    ///
    /// [`CureError::Frontend`] on parse/type errors; [`CureError::Link`] in
    /// strict mode when the link audit fails.
    pub fn cure_source(&self, src: &str) -> Result<Cured, CureError> {
        let start = Instant::now();
        let (prog, parse, lower) = self.parse_and_lower(src, start)?;
        let mut cured = self.cure_program_with_deadline(prog, start)?;
        cured.timings.parse = parse;
        cured.timings.lower = lower;
        Ok(cured)
    }

    /// Parses and lowers `src` after the prelude, without curing: the
    /// program an uncured run (original or baseline mode) executes, and the
    /// input of [`Curer::cure_program`].
    ///
    /// # Errors
    ///
    /// [`CureError::Frontend`] on parse/type errors; [`CureError::Timeout`]
    /// when a [`Curer::deadline`] is spent.
    pub fn lower_source(&self, src: &str) -> Result<Program, CureError> {
        Ok(self.parse_and_lower(src, Instant::now())?.0)
    }

    /// The exact text [`Curer::cure_source`] parses for `src`: the prelude
    /// (when set) followed by `src`. Spans in diagnostics and check sites
    /// are offsets into this text.
    pub fn parsed_text(&self, src: &str) -> String {
        match &self.prelude {
            Some(p) => format!("{p}\n{src}"),
            None => src.to_string(),
        }
    }

    /// The source map of the text a cure of `src` parses, with `src` read
    /// as the file `file`: it reports positions as `file`'s own lines, and
    /// positions inside the prelude as `<wrappers>`.
    pub fn source_map(&self, file: &str, src: &str) -> ccured_ast::SourceMap {
        let prelude_lines = self
            .prelude
            .as_deref()
            .map_or(0, |p| p.lines().count() as u32 + 1);
        ccured_ast::SourceMap::with_prelude(file, self.parsed_text(src), prelude_lines)
    }

    /// Parses and lowers [`Curer::parsed_text`], timing both stages and
    /// checking the deadline after each.
    fn parse_and_lower(
        &self,
        src: &str,
        start: Instant,
    ) -> Result<(Program, Duration, Duration), CureError> {
        let full = self.parsed_text(src);
        let t = Instant::now();
        let tu = ccured_ast::parse_translation_unit(&full)?;
        let parse = t.elapsed();
        self.check_deadline(start, "parse")?;
        let t = Instant::now();
        let prog = ccured_cil::lower_translation_unit(&tu)?;
        let lower = t.elapsed();
        self.check_deadline(start, "lower")?;
        Ok((prog, parse, lower))
    }

    /// Cures an already-lowered program.
    ///
    /// # Errors
    ///
    /// [`CureError::Link`] in strict mode when the link audit fails.
    pub fn cure_program(&self, prog: Program) -> Result<Cured, CureError> {
        self.cure_program_with_deadline(prog, Instant::now())
    }

    /// [`Curer::cure_program`] with an externally-started clock, so the
    /// budget set by [`Curer::deadline`] covers the whole entry point
    /// (parse and lower included when called from [`Curer::cure_source`]).
    fn cure_program_with_deadline(
        &self,
        mut prog: Program,
        start: Instant,
    ) -> Result<Cured, CureError> {
        // Wrappers first: redirected calls change what the inference sees
        // at library boundaries.
        let t = Instant::now();
        let mut wrappers_applied = apply_wrappers(&mut prog);

        let result = infer(&prog, &self.options);

        let meta = ccured_infer::split::meta_types(&prog.types, &result.solution);
        let mut link_issues = check_link(&prog, &result.solution, &meta);
        sort_link_issues(&mut link_issues);
        if self.strict_link && !link_issues.is_empty() {
            return Err(CureError::Link(link_issues));
        }
        let infer_time = t.elapsed();
        self.check_deadline(start, "infer")?;

        let t = Instant::now();
        let hierarchy = Hierarchy::build(&prog);
        let (checks_inserted, mut sites) =
            instrument(&mut prog, &result.solution, &hierarchy, self.temporal);
        let instrument_time = t.elapsed();
        self.check_deadline(start, "instrument")?;
        // The static optimizer: redundant-check elimination (the real
        // CCured's optimizer — facts established by earlier checks delete
        // dominated ones), then loop-invariant hoisting and SEQ bounds
        // widening over the survivors.
        let t = Instant::now();
        let opt = if self.optimize {
            optimize_program(&mut prog, self.loop_opt)
        } else {
            OptResult::default()
        };
        let optimize_time = t.elapsed();
        self.check_deadline(start, "optimize")?;
        let mut elision = opt.elision;

        // Attribute the optimizer's work back to the site table so the
        // profiler can report what was deleted statically and why the rest
        // had to stay.
        for s in &mut sites {
            if let Some(n) = elision.site_elides.get(&s.id.0) {
                s.elided = *n;
            }
            if let Some(why) = elision.site_keeps.get(&s.id.0) {
                s.keep_reason = Some(why.clone());
            }
            if let Some(a) = opt.actions.get(&s.id.0) {
                s.opt_action = Some(a.name());
            }
        }

        // Canonical report ordering: every user-visible vector is sorted by
        // (span, symbol) so parallel batch workers and hash-map iteration
        // order can never reorder diagnostics between two cures of the same
        // unit (asserted by the differential batch test).
        elision
            .failures
            .sort_by(|a, b| key_of_failure(a).cmp(&key_of_failure(b)));
        wrappers_applied.sort();
        let mut annotation_violations = result.annotation_violations;
        annotation_violations.sort_by_key(|v| v.qual.0);

        let trusted_casts = prog.casts.iter().filter(|c| c.trusted).count();
        let report = CureReport {
            kind_counts: declared_kind_counts(&prog, &result.solution),
            census: result.census,
            checks_inserted,
            checks_elided: elision.stats,
            checks_hoisted: opt.hoisted,
            checks_widened: opt.widened,
            static_failures: elision.failures,
            wrappers_applied,
            trusted_casts,
            split_quals: result.solution.split_count(),
            annotation_violations,
            link_issues,
            solver_iterations: result.iterations,
        };

        Ok(Cured {
            program: prog,
            sites,
            solution: result.solution,
            hierarchy,
            provenance: result.provenance,
            report,
            timings: StageTimings {
                parse: Duration::ZERO,
                lower: Duration::ZERO,
                infer: infer_time,
                instrument: instrument_time,
                optimize: optimize_time,
            },
            temporal: self.temporal,
        })
    }
}

impl Cured {
    /// The code-review surface (paper Section 5: "A security code review of
    /// bind should start with these 380 casts"): every trusted cast and
    /// every residual bad cast, rendered with source positions.
    pub fn review_surface(&self, map: &ccured_ast::SourceMap) -> Vec<String> {
        let mut phys = ccured_cil::phys::PhysCtx::new(&self.program.types);
        let mut out = Vec::new();
        for site in self.program.casts.iter() {
            let interesting = site.trusted
                || (!site.alloc
                    && matches!(
                        phys.classify_cast(site.from, site.to),
                        ccured_cil::phys::CastClass::Bad
                    ));
            if !interesting {
                continue;
            }
            let label = if site.trusted {
                "trusted cast"
            } else {
                "BAD cast (WILD)"
            };
            out.push(format!(
                "{}: {label} from `{}` to `{}`",
                map.locate(site.span.lo),
                self.program.types.display(site.from),
                self.program.types.display(site.to)
            ));
        }
        out
    }
}

fn key_of_failure(f: &StaticFailure) -> (u32, u32, String, &'static str, String) {
    (
        f.span.lo,
        f.span.hi,
        f.func.clone(),
        f.check,
        f.message.clone(),
    )
}

fn sort_link_issues(issues: &mut [LinkIssue]) {
    issues.sort_by(|a, b| {
        (&a.caller, &a.external, &a.detail).cmp(&(&b.caller, &b.external, &b.detail))
    });
}

/// Counts pointer kinds over *declared* pointers — named locals, globals
/// and struct fields — matching the paper's "% of static pointer
/// declarations" metric (compiler temporaries are excluded; they would
/// dilute the percentages).
fn declared_kind_counts(prog: &Program, sol: &Solution) -> KindCounts {
    use ccured_cil::types::{Type, TypeId};
    let mut counts = KindCounts::default();
    let mut bump = |sol: &Solution, q: ccured_cil::types::QualId| match sol.effective(q) {
        ccured_infer::EffectiveKind::Safe => counts.safe += 1,
        ccured_infer::EffectiveKind::Seq => counts.seq += 1,
        ccured_infer::EffectiveKind::Wild => counts.wild += 1,
        ccured_infer::EffectiveKind::Rtti => counts.rtti += 1,
    };
    // Walk a declared type: its own pointer levels (but not into comps,
    // whose fields are counted once below).
    fn quals_of(prog: &Program, t: TypeId, out: &mut Vec<ccured_cil::types::QualId>) {
        match prog.types.get(t) {
            Type::Ptr(base, q) => {
                out.push(*q);
                quals_of(prog, *base, out);
            }
            Type::Array(elem, _) => quals_of(prog, *elem, out),
            Type::Func(sig) => {
                quals_of(prog, sig.ret, out);
                for p in &sig.params {
                    quals_of(prog, *p, out);
                }
            }
            _ => {}
        }
    }
    // The wrapper library ships with the curer; its pointers are not part
    // of the program under measurement (the paper reports per-program
    // percentages with the wrappers as given infrastructure).
    let wrapper_fns: std::collections::HashSet<&str> = prog
        .pragmas
        .iter()
        .filter_map(|p| match p {
            ccured_cil::ir::CcuredPragma::WrapperOf { wrapper, .. } => Some(wrapper.as_str()),
            _ => None,
        })
        .collect();
    let mut quals = Vec::new();
    for g in &prog.globals {
        quals_of(prog, g.ty, &mut quals);
    }
    for f in &prog.functions {
        if wrapper_fns.contains(f.name.as_str()) {
            continue;
        }
        for l in &f.locals {
            if !l.is_temp {
                quals_of(prog, l.ty, &mut quals);
            }
        }
    }
    for c in prog.types.comps() {
        if c.name.starts_with("__meta") {
            continue;
        }
        for fld in &c.fields {
            quals_of(prog, fld.ty, &mut quals);
        }
    }
    for q in quals {
        bump(sol, q);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_cil::ir::CheckKind;

    #[test]
    fn cure_simple_program() {
        let cured = Curer::new()
            .cure_source("int f(int *p) { return *p; }")
            .expect("cure");
        assert_eq!(cured.report.checks_inserted[CheckKind::Null], 1);
        assert_eq!(cured.report.kind_counts.wild, 0);
    }

    #[test]
    fn cure_reports_kind_percentages() {
        let cured = Curer::new()
            .cure_source("int f(int *p, char *s, int n) { return p[n] + *s; }")
            .expect("cure");
        let (sf, sq, w, rt) = cured.report.kind_counts.percentages();
        assert!(sf > 0);
        assert!(sq > 0);
        assert_eq!(w, 0);
        assert_eq!(rt, 0);
    }

    #[test]
    fn strict_link_rejects_wide_external_arg() {
        let err = Curer::new()
            .strict_link(true)
            .cure_source(
                "extern void use_buf(char *b);\n\
                 void f(char *b, int i) { b = b + i; use_buf(b); }",
            )
            .unwrap_err();
        assert!(matches!(err, CureError::Link(_)));
    }

    #[test]
    fn wrappers_fix_the_link() {
        let cured = Curer::new()
            .strict_link(true)
            .with_stdlib_wrappers()
            .cure_source("int f(char *b, int i) { b = b + i; return (int)strlen(b); }")
            .expect("wrapped strlen call must link");
        assert!(cured
            .report
            .wrappers_applied
            .iter()
            .any(|(w, x)| w == "strlen_wrapper" && x == "strlen"));
    }

    #[test]
    fn frontend_errors_surface() {
        let err = Curer::new().cure_source("int f( {").unwrap_err();
        assert!(matches!(err, CureError::Frontend(_)));
    }

    #[test]
    fn original_ccured_mode_is_wilder() {
        let src = "struct F { void *vt; } gf;\n\
                   struct C { void *vt; int r; } gc;\n\
                   int g(struct F *f) { struct C *c; c = (struct C *)f; return c->r; }";
        let new = Curer::new().cure_source(src).expect("cure");
        let old = Curer::original_ccured().cure_source(src).expect("cure");
        assert!(old.report.kind_counts.wild > new.report.kind_counts.wild);
        assert_eq!(new.report.kind_counts.wild, 0);
    }

    #[test]
    fn redundant_checks_are_elided_by_default() {
        // Two SAFE derefs of an unchanged `p`: the second null check is
        // dominated by the first and must be deleted.
        let cured = Curer::new()
            .cure_source("int f(int *p) { int a; a = *p; a = a + *p; return a; }")
            .expect("cure");
        assert_eq!(cured.report.checks_inserted[CheckKind::Null], 2);
        assert_eq!(cured.report.checks_elided[CheckKind::Null], 1);
        // The surviving program really has one check fewer.
        let remaining = count_checks(&cured.program);
        assert_eq!(
            remaining as u64,
            cured.report.checks_inserted.total() - cured.report.checks_elided.total()
        );
    }

    #[test]
    fn no_opt_keeps_every_check() {
        let src = "int f(int *p) { int a; a = *p; a = a + *p; return a; }";
        let cured = Curer::new().optimize(false).cure_source(src).expect("cure");
        assert_eq!(cured.report.checks_elided.total(), 0);
        assert_eq!(
            count_checks(&cured.program) as u64,
            cured.report.checks_inserted.total()
        );
    }

    #[test]
    fn static_failures_surface_in_the_report() {
        let cured = Curer::new()
            .cure_source("int main(void) { int *p; p = 0; return *p; }")
            .expect("cure");
        assert_eq!(
            cured.report.static_failures.len(),
            1,
            "{:?}",
            cured.report.static_failures
        );
        assert!(cured.report.static_failures[0].message.contains("null"));
    }

    fn count_checks(prog: &Program) -> usize {
        let mut n = 0;
        for f in &prog.functions {
            ccured_cil::visit::for_each_instr(&f.body, &mut |i| {
                n += matches!(i, ccured_cil::ir::Instr::Check(..)) as usize
            });
        }
        n
    }

    #[test]
    fn isolated_converts_panics_to_internal_errors() {
        let err = isolated::<()>(|| panic!("boom {}", 42)).unwrap_err();
        assert!(
            matches!(&err, CureError::Internal(m) if m.contains("boom 42")),
            "{err}"
        );
        assert_eq!(isolated(|| Ok(7)).unwrap(), 7);
    }

    #[test]
    fn report_counts_trusted_casts() {
        let cured = Curer::new()
            .cure_source("int f(double *d) { return *((int * __TRUSTED)d); }")
            .expect("cure");
        assert_eq!(cured.report.trusted_casts, 1);
    }
}
