//! Instrumentation: inserts the run-time checks of paper Figures 10–11
//! according to the inferred pointer kinds.
//!
//! * SAFE/RTTI dereferences get null checks,
//! * SEQ dereferences get bounds checks against the carried `b`/`e` fields,
//! * WILD dereferences get header bounds checks, and pointer reads through
//!   WILD pointers get tag checks,
//! * static array indexing gets a bound check against the declared length,
//! * SEQ-to-SAFE conversions get a "full element in bounds" check,
//! * checked downcasts get `isSubtype` RTTI checks,
//! * pointer stores to the heap or globals get stack-escape checks.
//!
//! The representation changes themselves (fat pointers, tags, RTTI words)
//! are value-level and are carried out by the `ccured-rt` interpreter, which
//! consults the same [`Solution`].

use crate::hierarchy::Hierarchy;
use ccured_analysis::{KeepReason, OptAction};
use ccured_cil::ir::*;
use ccured_cil::phys::{CastClass, PhysCtx};
use ccured_cil::types::Type;
use ccured_infer::gen::lval_type;
use ccured_infer::{PtrKind, Solution};

/// The static identity behind a [`SiteId`]: where a check was emitted and
/// what it guards. Rows are numbered in emission order, so two cures of the
/// same program with the same configuration always agree on the table.
/// `elided`/`keep` start empty and are filled in by the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckSite {
    /// The id stamped on every instruction emitted for this site.
    pub id: SiteId,
    /// Enclosing function.
    pub func: String,
    /// Source span the checks of this site inherit.
    pub span: ccured_ast::Span,
    /// Check kind; its name and the pointer kind it guards come from it.
    pub kind: CheckKind,
    /// Check instructions emitted with this id (one source site can
    /// instrument several accesses of the same expression).
    pub static_count: u32,
    /// How many of those instructions the optimizer deleted.
    pub elided: u64,
    /// Why the optimizer kept the surviving instructions (`None` until the
    /// optimizer runs, or when it deleted every one).
    pub keep: Option<KeepReason>,
}

impl CheckSite {
    /// What the loop optimizer did to the site, if it rewrote it.
    pub fn opt_action(&self) -> Option<OptAction> {
        match self.keep {
            Some(KeepReason::Rewritten(a)) => Some(a),
            _ => None,
        }
    }
}

/// Instruments every function body in `prog` in place; returns the static
/// check counts and the check-site table indexed by [`SiteId`].
pub fn instrument(
    prog: &mut Program,
    sol: &Solution,
    hier: &Hierarchy,
    temporal: bool,
) -> (PerCheck<u64>, Vec<CheckSite>) {
    // `#pragma ccured_trusted(fn)` marks a function as part of the trusted
    // interface: its body gets no checks (the programmer vouches for it).
    let trusted: std::collections::HashSet<&str> = prog
        .pragmas
        .iter()
        .filter_map(|p| match p {
            ccured_cil::ir::CcuredPragma::TrustedFn(name) => Some(name.as_str()),
            _ => None,
        })
        .collect();
    let (new_bodies, counts, sites) = {
        let mut ctx = Ctx {
            prog,
            sol,
            hier,
            phys: PhysCtx::new(&prog.types),
            counts: PerCheck::default(),
            span: ccured_ast::Span::DUMMY,
            sites: Vec::new(),
            site_ids: std::collections::HashMap::new(),
            temporal,
        };
        let bodies: Vec<Option<Vec<Stmt>>> = prog
            .functions
            .iter()
            .map(|f| {
                if trusted.contains(f.name.as_str()) {
                    None
                } else {
                    Some(ctx.rewrite_stmts(f, &f.body))
                }
            })
            .collect();
        (bodies, ctx.counts, ctx.sites)
    };
    for (f, body) in prog.functions.iter_mut().zip(new_bodies) {
        if let Some(body) = body {
            f.body = body;
        }
    }
    (counts, sites)
}

struct Ctx<'a> {
    prog: &'a Program,
    sol: &'a Solution,
    hier: &'a Hierarchy,
    phys: PhysCtx<'a>,
    counts: PerCheck<u64>,
    // Span of the instruction currently being instrumented; inserted checks
    // inherit it so diagnostics and blame output have source positions.
    span: ccured_ast::Span,
    // The site table under construction, and the dedup index over it keyed
    // by (span, function, check kind) — the pointer kind is implied by the
    // check kind and need not widen the key.
    sites: Vec<CheckSite>,
    site_ids: std::collections::HashMap<(ccured_ast::Span, String, CheckKind), SiteId>,
    // `--temporal`: every dereference additionally gets a lock-and-key
    // check after its spatial check.
    temporal: bool,
}

impl<'a> Ctx<'a> {
    fn rewrite_stmts(&mut self, f: &Function, stmts: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            match s {
                Stmt::Instr(is) => {
                    let mut list = Vec::with_capacity(is.len());
                    for i in is {
                        self.checks_for_instr(f, i, &mut list);
                        list.push(i.clone());
                    }
                    out.push(Stmt::Instr(list));
                }
                Stmt::If(c, t, e) => {
                    self.flush_exp_checks(f, c, &mut out);
                    out.push(Stmt::If(
                        c.clone(),
                        self.rewrite_stmts(f, t),
                        self.rewrite_stmts(f, e),
                    ));
                }
                Stmt::Loop(b) => out.push(Stmt::Loop(self.rewrite_stmts(f, b))),
                Stmt::Block(b) => out.push(Stmt::Block(self.rewrite_stmts(f, b))),
                Stmt::Return(Some(e)) => {
                    self.flush_exp_checks(f, e, &mut out);
                    out.push(Stmt::Return(Some(e.clone())));
                }
                Stmt::Switch(e, arms) => {
                    self.flush_exp_checks(f, e, &mut out);
                    let arms = arms
                        .iter()
                        .map(|a| SwitchArm {
                            values: a.values.clone(),
                            body: self.rewrite_stmts(f, &a.body),
                        })
                        .collect();
                    out.push(Stmt::Switch(e.clone(), arms));
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    fn flush_exp_checks(&mut self, f: &Function, e: &Exp, out: &mut Vec<Stmt>) {
        // Conditions and return expressions have no instruction span; fall
        // back to the enclosing function's so diagnostics stay anchored.
        self.span = f.span;
        let mut list = Vec::new();
        self.checks_for_exp(f, e, &mut list);
        if !list.is_empty() {
            out.push(Stmt::Instr(list));
        }
    }

    fn push(&mut self, f: &Function, c: Check, out: &mut Vec<Instr>) {
        let kind = c.kind().expect("instrumentation emits plain checks");
        self.counts[kind] += 1;
        let site = self.site_id(f, kind);
        out.push(Instr::Check(c, self.span, site));
    }

    /// The stable site id for a check at the current span: existing row if
    /// this (span, function, kind) was seen before, fresh row otherwise.
    fn site_id(&mut self, f: &Function, kind: CheckKind) -> SiteId {
        use std::collections::hash_map::Entry;
        match self.site_ids.entry((self.span, f.name.clone(), kind)) {
            Entry::Occupied(e) => {
                let id = *e.get();
                self.sites[id.0 as usize].static_count += 1;
                id
            }
            Entry::Vacant(e) => {
                let id = SiteId(self.sites.len() as u32);
                e.insert(id);
                self.sites.push(CheckSite {
                    id,
                    func: f.name.clone(),
                    span: self.span,
                    kind,
                    static_count: 1,
                    elided: 0,
                    keep: None,
                });
                id
            }
        }
    }

    /// Access size for a bounds check on `pointee`. `void` accesses are
    /// byte-granular (GNU semantics, matching the interpreter); any other
    /// unsized type here is a frontend invariant violation — panic rather
    /// than emit a check with a made-up size (the pipeline's panic
    /// isolation turns this into `CureError::Internal`).
    fn access_size(&self, pointee: ccured_cil::types::TypeId) -> u64 {
        if matches!(self.prog.types.get(pointee), Type::Void) {
            return 1;
        }
        match self.prog.types.size_of(pointee) {
            Ok(s) => s,
            Err(e) => panic!("cannot instrument access to unsized type: {e}"),
        }
    }

    fn checks_for_instr(&mut self, f: &Function, i: &Instr, out: &mut Vec<Instr>) {
        if let Instr::Set(_, _, s) | Instr::Call(_, _, _, s) = i {
            self.span = *s;
        }
        match i {
            Instr::Set(lv, e, _) => {
                self.checks_for_lval(f, lv, out);
                self.checks_for_exp(f, e, out);
                // Pointer stores to memory must not leak stack addresses
                // (Appendix A: write checks).
                let stored_to_memory = lv.is_deref() || matches!(lv.base, LvBase::Global(_));
                if stored_to_memory && self.prog.types.is_ptr(e.ty()) {
                    self.push(f, Check::NoStackEscape { value: e.clone() }, out);
                }
            }
            Instr::Call(ret, callee, args, _) => {
                for a in args {
                    self.checks_for_exp(f, a, out);
                }
                if let Some(lv) = ret {
                    self.checks_for_lval(f, lv, out);
                }
                if let Callee::Ptr(e) = callee {
                    self.checks_for_exp(f, e, out);
                    self.push(f, Check::Null { ptr: e.clone() }, out);
                }
            }
            Instr::Check(..) => {}
        }
    }

    fn checks_for_exp(&mut self, f: &Function, e: &Exp, out: &mut Vec<Instr>) {
        match e {
            Exp::Load(lv, ty) => {
                self.checks_for_lval(f, lv, out);
                // Reading a pointer out of a WILD area needs a tag check.
                if self.prog.types.is_ptr(*ty) {
                    if let LvBase::Deref(p) = &lv.base {
                        if let Some((_, q)) = self.prog.types.ptr_parts(p.ty()) {
                            if self.sol.kind(q) == PtrKind::Wild {
                                self.push(f, Check::WildTag { ptr: (**p).clone() }, out);
                            }
                        }
                    }
                }
            }
            Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) => {
                self.checks_for_lval(f, lv, out);
            }
            Exp::Unop(_, x, _) => self.checks_for_exp(f, x, out),
            Exp::Binop(_, a, b, _) => {
                self.checks_for_exp(f, a, out);
                self.checks_for_exp(f, b, out);
            }
            Exp::Cast(id, x, _) => {
                self.checks_for_exp(f, x, out);
                self.cast_checks(f, *id, x, out);
            }
            Exp::Const(..) | Exp::FnAddr(..) | Exp::SizeOf(..) => {}
        }
    }

    fn checks_for_lval(&mut self, f: &Function, lv: &Lval, out: &mut Vec<Instr>) {
        if let LvBase::Deref(p) = &lv.base {
            self.checks_for_exp(f, p, out);
            if let Some((pointee, q)) = self.prog.types.ptr_parts(p.ty()) {
                let size = self.access_size(pointee);
                match self.sol.kind(q) {
                    PtrKind::Safe => {
                        self.push(f, Check::Null { ptr: (**p).clone() }, out);
                    }
                    PtrKind::Seq => {
                        self.push(
                            f,
                            Check::SeqBounds {
                                ptr: (**p).clone(),
                                access_size: size,
                            },
                            out,
                        );
                    }
                    PtrKind::Wild => {
                        self.push(
                            f,
                            Check::WildBounds {
                                ptr: (**p).clone(),
                                access_size: size,
                            },
                            out,
                        );
                    }
                }
                // Temporal check *after* the spatial one: a null or
                // out-of-bounds pointer is blamed spatially first, so
                // enabling `--temporal` never changes which check an
                // already-failing program dies on.
                if self.temporal {
                    self.push(f, Check::Temporal { ptr: (**p).clone() }, out);
                }
            }
        }
        // Walk offsets for index checks (need the running type).
        let mut ty = match &lv.base {
            LvBase::Local(l) => f.locals[l.idx()].ty,
            LvBase::Global(g) => self.prog.globals[g.idx()].ty,
            LvBase::Deref(e) => match self.prog.types.ptr_parts(e.ty()) {
                Some((base, _)) => base,
                None => return,
            },
        };
        for off in &lv.offsets {
            match off {
                Offset::Field(cid, idx) => {
                    ty = self.prog.types.comp(*cid).fields[*idx].ty;
                }
                Offset::Index(i) => {
                    self.checks_for_exp(f, i, out);
                    let (elem, len) = match self.prog.types.get(ty) {
                        Type::Array(elem, len) => (*elem, *len),
                        _ => return,
                    };
                    if let Some(n) = len {
                        // Constant in-bounds indexes need no dynamic check.
                        let statically_ok = matches!(
                            i,
                            Exp::Const(Const::Int(v, _), _) if *v >= 0 && (*v as u64) < n
                        );
                        if !statically_ok {
                            self.push(
                                f,
                                Check::IndexBound {
                                    index: i.clone(),
                                    len: n,
                                },
                                out,
                            );
                        }
                    }
                    ty = elem;
                }
            }
        }
        let _ = lval_type; // typing retained via the walk above
    }

    fn cast_checks(&mut self, f: &Function, id: CastId, x: &Exp, out: &mut Vec<Instr>) {
        let site = &self.prog.casts[id.idx()];
        if site.trusted || site.alloc {
            return;
        }
        let (fp, tp) = (
            self.prog.types.ptr_parts(site.from),
            self.prog.types.ptr_parts(site.to),
        );
        let ((fb, fq), (tb, tq)) = match (fp, tp) {
            (Some(a), Some(b)) => (a, b),
            _ => return,
        };
        let (kf, kt) = (self.sol.kind(fq), self.sol.kind(tq));
        let class = self.phys.classify_cast(site.from, site.to);
        // SEQ to thin: the pointer must address a whole target element.
        if kf == PtrKind::Seq && kt == PtrKind::Safe {
            let size = self.access_size(tb);
            self.push(
                f,
                Check::SeqToSafe {
                    ptr: x.clone(),
                    access_size: size,
                },
                out,
            );
        }
        // Checked downcast (Figure 2): source carries RTTI.
        if class == CastClass::Downcast && kf == PtrKind::Safe && self.sol.is_rtti(fq) {
            let node = self
                .hier
                .node_of(self.prog, tb)
                .expect("downcast target type is registered in the hierarchy");
            self.push(
                f,
                Check::Rtti {
                    ptr: x.clone(),
                    target_node: node,
                },
                out,
            );
        }
        let _ = fb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_infer::{infer, InferOptions};

    fn instrumented(src: &str) -> (Program, PerCheck<u64>) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let mut prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let res = infer(&prog, &InferOptions::default());
        let hier = Hierarchy::build(&prog);
        let (counts, _) = instrument(&mut prog, &res.solution, &hier, false);
        (prog, counts)
    }

    fn sites_of(src: &str) -> Vec<CheckSite> {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let mut prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let res = infer(&prog, &InferOptions::default());
        let hier = Hierarchy::build(&prog);
        instrument(&mut prog, &res.solution, &hier, false).1
    }

    #[test]
    fn safe_deref_gets_null_check() {
        let (_, c) = instrumented("int f(int *p) { return *p; }");
        assert_eq!(c[CheckKind::Null], 1);
        assert_eq!(c[CheckKind::SeqBounds], 0);
    }

    #[test]
    fn seq_deref_gets_bounds_check() {
        let (_, c) = instrumented("int f(int *p, int i) { return p[i]; }");
        assert!(c[CheckKind::SeqBounds] >= 1);
        assert_eq!(c[CheckKind::Null], 0);
    }

    #[test]
    fn static_array_index_checked() {
        let (_, c) = instrumented("int f(int i) { int a[10]; a[0] = 1; return a[i]; }");
        // a[0] is statically in bounds; a[i] needs a dynamic check.
        assert_eq!(c[CheckKind::IndexBound], 1);
    }

    #[test]
    fn wild_deref_gets_wild_checks() {
        let (_, c) = instrumented(
            "int f(double *d) { int **pp; int *q; pp = (int **)d; q = *pp; return *q; }",
        );
        assert!(c[CheckKind::WildBounds] >= 1);
        assert!(
            c[CheckKind::WildTag] >= 1,
            "reading a pointer through WILD needs a tag check"
        );
    }

    #[test]
    fn downcast_gets_rtti_check() {
        let (_, c) = instrumented(
            "struct F { void *vt; } gf;\n\
             struct C { void *vt; int r; } gc;\n\
             int g(struct F *f) { struct C *c; c = (struct C *)f; return c->r; }",
        );
        assert_eq!(c[CheckKind::Rtti], 1);
    }

    #[test]
    fn upcast_gets_no_check() {
        let (_, c) = instrumented(
            "struct F { void *vt; } gf;\n\
             struct C { void *vt; int r; } gc;\n\
             void take(struct F *f) { }\n\
             void g(struct C *c) { take((struct F *)c); }",
        );
        assert_eq!(c[CheckKind::Rtti], 0);
        assert_eq!(c[CheckKind::SeqToSafe], 0);
    }

    #[test]
    fn pointer_store_to_heap_gets_escape_check() {
        let (_, c) = instrumented("void f(int **pp, int *v) { *pp = v; }");
        assert!(c[CheckKind::NoStackEscape] >= 1);
    }

    #[test]
    fn pointer_store_to_local_gets_no_escape_check() {
        let (_, c) = instrumented("void f(int *v) { int *q; q = v; }");
        assert_eq!(c[CheckKind::NoStackEscape], 0);
    }

    #[test]
    fn indirect_call_gets_null_check() {
        let (_, c) = instrumented("int apply(int (*fp)(int), int x) { return fp(x); }");
        assert!(c[CheckKind::Null] >= 1);
    }

    #[test]
    fn condition_checks_precede_if() {
        let (p, c) = instrumented("int f(int *p) { if (*p) return 1; return 0; }");
        assert_eq!(c[CheckKind::Null], 1);
        // The check must be a statement before the If in the body.
        let f = &p.functions[0];
        let has_check_stmt = f.body.iter().any(|s| match s {
            Stmt::Instr(is) => is.iter().any(|i| matches!(i, Instr::Check(..))),
            _ => false,
        });
        assert!(has_check_stmt);
    }

    #[test]
    fn trusted_cast_unchecked() {
        let (_, c) =
            instrumented("int f(double *d) { int *q; q = (int * __TRUSTED)d; return *q; }");
        assert_eq!(c[CheckKind::Rtti], 0);
        assert_eq!(c[CheckKind::SeqToSafe], 0);
        // The SAFE deref of q still gets its null check.
        assert!(c[CheckKind::Null] >= 1);
    }

    #[test]
    fn trusted_functions_are_left_unchecked() {
        let (p, c) = instrumented(
            "#pragma ccured_trusted(raw_peek)\n\
             int raw_peek(int *p) { return *p; }\n\
             int checked_peek(int *p) { return *p; }",
        );
        // Only checked_peek gets the null check.
        assert_eq!(c[CheckKind::Null], 1);
        let raw = p.find_function("raw_peek").unwrap();
        let has_check = p.functions[raw.idx()].body.iter().any(|s| match s {
            Stmt::Instr(is) => is.iter().any(|i| matches!(i, Instr::Check(..))),
            _ => false,
        });
        assert!(!has_check, "trusted function must stay unchecked");
    }

    #[test]
    fn check_totals_add_up() {
        let (_, c) =
            instrumented("int f(int *p, int i) { int a[4]; a[i] = *p; return a[i] + p[i]; }");
        assert_eq!(c.total(), CheckKind::ALL.iter().map(|&k| c[k]).sum::<u64>());
        assert!(c.total() >= 4);
    }

    #[test]
    fn site_table_is_dense_and_matches_emitted_checks() {
        let src = "int f(int *p, int i) { int a[4]; a[i] = *p; return a[i] + p[i]; }";
        let (prog, c) = instrumented(src);
        let sites = sites_of(src);
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i, "table index is the id");
            assert!(s.id.index().is_some());
            assert!(s.static_count >= 1);
        }
        let static_total: u32 = sites.iter().map(|s| s.static_count).sum();
        assert_eq!(u64::from(static_total), c.total(), "every check has a site");
        // Every emitted instruction carries an id that resolves in the table.
        let mut stamped = 0u64;
        for f in &prog.functions {
            ccured_cil::visit::for_each_instr(&f.body, &mut |i| {
                if let Instr::Check(_, _, site) = i {
                    assert!((site.0 as usize) < sites.len());
                    stamped += 1;
                }
            });
        }
        assert_eq!(stamped, c.total());
    }

    #[test]
    fn site_table_is_deterministic() {
        let src = "int f(int *p, int i) { int a[4]; a[i] = *p; return a[i] + p[i]; }\n\
                   int g(int *q) { return *q; }";
        assert_eq!(sites_of(src), sites_of(src));
    }

    #[test]
    fn sites_record_function_kind_and_ptr_kind() {
        let sites = sites_of("int f(int *p) { return *p; }");
        let null = sites
            .iter()
            .find(|s| s.kind == CheckKind::Null)
            .expect("null-check site");
        assert_eq!(null.func, "f");
        assert_eq!(null.kind.ptr_kind(), "safe");
        assert_eq!(null.elided, 0, "optimizer has not run");
        assert!(null.keep.is_none());
    }
}
