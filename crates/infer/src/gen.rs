//! Constraint generation (paper Sections 2.1, 3.1, 3.2).
//!
//! Walks the lowered program once and emits:
//!
//! * `AtLeast(q, SEQ)` for every pointer-arithmetic occurrence and every
//!   non-null integer-to-pointer cast,
//! * `AtLeast(q, WILD)` for both sides of every untrusted bad cast (the
//!   poisoning closure in the solver spreads WILD into base types),
//! * `Eq(q1, q2)` kind/representation unification for assignments, calls,
//!   physically-equal casts, and the overlapping prefixes of upcasts,
//! * RTTI edges: downcast sources, and the backward propagation edges of
//!   Section 3.2 (against the data flow, gated on "the source type has
//!   subtypes in the program" for upcasts).

use crate::kinds::PtrKind;
use crate::provenance::Origin;
use ccured_ast::Span;
use ccured_cil::ir::*;
use ccured_cil::phys::{CastClass, PhysCtx};
use ccured_cil::types::{QualId, Type, TypeId};
use ccured_cil::visit;

/// A backward RTTI propagation edge: `rtti(dst) ⇒ rtti(src)`, optionally
/// gated on `gate` having proper physical subtypes in the program.
#[derive(Debug, Clone, Copy)]
pub struct RttiBack {
    /// Qualifier at the source of the data flow.
    pub src: QualId,
    /// Qualifier at the destination of the data flow.
    pub dst: QualId,
    /// When `Some(t)`, the edge fires only if `t` has proper subtypes.
    pub gate: Option<TypeId>,
}

/// The generated constraint set.
#[derive(Debug, Default)]
pub struct Constraints {
    /// Lower bounds on qualifier kinds.
    pub at_least: Vec<(QualId, PtrKind)>,
    /// Provenance of each lower bound, parallel to `at_least`.
    pub at_least_origin: Vec<Origin>,
    /// Kind (and representation) unification pairs.
    pub eq: Vec<(QualId, QualId)>,
    /// "WILD on either side implies WILD on both" pairs (casts whose kinds
    /// need not otherwise unify, i.e. upcasts and downcasts).
    pub wild_eq: Vec<(QualId, QualId)>,
    /// Source span of each `wild_eq` cast site, parallel to `wild_eq`.
    pub wild_eq_span: Vec<Span>,
    /// Qualifiers that must carry RTTI (downcast sources).
    pub rtti_sources: Vec<QualId>,
    /// Backward RTTI propagation edges.
    pub rtti_back: Vec<RttiBack>,
    /// Deep-aliased pairs whose RTTI flags must match in both directions.
    pub rtti_eq: Vec<(QualId, QualId)>,
    /// Pointee types of every pointer cast, for the subtype census.
    pub cast_pointees: Vec<TypeId>,
}

/// Generates all constraints for `prog`.
///
/// `rtti_enabled` mirrors the paper's original-CCured comparison: when
/// false, downcasts are treated as bad casts (both sides WILD).
pub fn generate(prog: &Program, rtti_enabled: bool) -> Constraints {
    let mut g = Gen {
        prog,
        phys: PhysCtx::new(&prog.types),
        out: Constraints::default(),
        cur: None,
        span: Span::DUMMY,
        rtti_enabled,
    };
    g.run();
    g.out
}

/// The type of an lvalue occurring in `func`.
pub fn lval_type(prog: &Program, func: &Function, lv: &Lval) -> TypeId {
    let mut ty = match &lv.base {
        LvBase::Local(l) => func.locals[l.idx()].ty,
        LvBase::Global(g) => prog.globals[g.idx()].ty,
        LvBase::Deref(e) => match prog.types.ptr_parts(e.ty()) {
            Some((base, _)) => base,
            None => unreachable!("deref of non-pointer in typed IR"),
        },
    };
    for off in &lv.offsets {
        ty = match off {
            Offset::Field(cid, idx) => prog.types.comp(*cid).fields[*idx].ty,
            Offset::Index(_) => match prog.types.get(ty) {
                Type::Array(elem, _) => *elem,
                _ => unreachable!("index into non-array in typed IR"),
            },
        };
    }
    ty
}

struct Gen<'a> {
    prog: &'a Program,
    phys: PhysCtx<'a>,
    out: Constraints,
    cur: Option<FuncId>,
    /// Span of the instruction being walked, for constraint provenance.
    span: Span,
    rtti_enabled: bool,
}

impl<'a> Gen<'a> {
    fn at_least(&mut self, q: QualId, k: PtrKind, origin: Origin) {
        self.out.at_least.push((q, k));
        self.out.at_least_origin.push(origin);
    }

    fn wild_eq(&mut self, a: QualId, b: QualId, span: Span) {
        self.out.wild_eq.push((a, b));
        self.out.wild_eq_span.push(span);
    }

    fn run(&mut self) {
        // 1. Cast sites.
        for site in &self.prog.casts {
            self.cast_site(site);
        }
        // 2. Explicit WILD annotations force WILD; the rest are checked
        //    after solving.
        for (q, k) in self.prog.annots.qual_kinds.clone() {
            if k == KindAnnot::Wild {
                self.at_least(q, PtrKind::Wild, Origin::Annotation);
            }
        }
        // 3. Function bodies.
        for (i, f) in self.prog.functions.iter().enumerate() {
            self.cur = Some(FuncId(i as u32));
            visit::for_each_stmt(&f.body, &mut |s| self.stmt(f, s));
        }
        self.cur = None;
        // 4. Global initializers.
        for g in &self.prog.globals {
            if let Some(init) = &g.init {
                self.init(g.ty, init);
            }
        }
    }

    fn cast_site(&mut self, site: &CastSite) {
        if site.trusted || site.alloc {
            // Trusted casts are the programmer's escape hatch; allocator
            // casts type fresh memory (handled by the allocator wrappers).
            return;
        }
        let class = self.phys.classify_cast(site.from, site.to);
        match class {
            CastClass::Scalar | CastClass::PtrToInt => {}
            CastClass::IntToPtr => {
                if !site.from_zero {
                    if let Some((_, q)) = self.prog.types.ptr_parts(site.to) {
                        self.at_least(q, PtrKind::Seq, Origin::IntToPtr(site.span));
                    }
                }
            }
            CastClass::Identical => {
                let (fb, fq) = self.prog.types.ptr_parts(site.from).expect("ptr cast");
                let (tb, tq) = self.prog.types.ptr_parts(site.to).expect("ptr cast");
                self.out.cast_pointees.push(fb);
                self.out.cast_pointees.push(tb);
                self.unify_flow(site.from, site.to);
                self.out.rtti_back.push(RttiBack {
                    src: fq,
                    dst: tq,
                    gate: None,
                });
            }
            CastClass::Upcast => {
                let (fb, fq) = self.prog.types.ptr_parts(site.from).expect("ptr cast");
                let (tb, tq) = self.prog.types.ptr_parts(site.to).expect("ptr cast");
                self.out.cast_pointees.push(fb);
                self.out.cast_pointees.push(tb);
                self.wild_eq(fq, tq, site.span);
                if let Some(pairs) = self.phys.prefix_qual_pairs(tb, fb) {
                    for (a, b) in pairs {
                        self.out.eq.push((a, b));
                        self.out.rtti_eq.push((a, b));
                    }
                }
                self.out.rtti_back.push(RttiBack {
                    src: fq,
                    dst: tq,
                    gate: Some(fb),
                });
            }
            CastClass::Downcast => {
                let (fb, fq) = self.prog.types.ptr_parts(site.from).expect("ptr cast");
                let (tb, tq) = self.prog.types.ptr_parts(site.to).expect("ptr cast");
                self.out.cast_pointees.push(fb);
                self.out.cast_pointees.push(tb);
                if self.rtti_enabled {
                    self.wild_eq(fq, tq, site.span);
                    self.out.rtti_sources.push(fq);
                    // The overlapping prefix (all of `from`'s layout) aliases.
                    if let Some(pairs) = self.phys.prefix_qual_pairs(fb, tb) {
                        for (a, b) in pairs {
                            self.out.eq.push((a, b));
                            self.out.rtti_eq.push((a, b));
                        }
                    }
                } else {
                    // Original CCured: downcasts are bad casts.
                    self.at_least(fq, PtrKind::Wild, Origin::Downcast(site.span));
                    self.at_least(tq, PtrKind::Wild, Origin::Downcast(site.span));
                }
            }
            CastClass::Bad => {
                let (fb, fq) = self.prog.types.ptr_parts(site.from).expect("ptr cast");
                let (tb, tq) = self.prog.types.ptr_parts(site.to).expect("ptr cast");
                self.out.cast_pointees.push(fb);
                self.out.cast_pointees.push(tb);
                self.at_least(fq, PtrKind::Wild, Origin::BadCast(site.span));
                self.at_least(tq, PtrKind::Wild, Origin::BadCast(site.span));
            }
        }
    }

    /// Unifies the representations of two physically equal types that flow
    /// into one another (assignment or identical cast): the top-level pair
    /// gets kind unification; deep pairs additionally share RTTI both ways.
    fn unify_flow(&mut self, from: TypeId, to: TypeId) {
        if let Some(pairs) = self.phys.eq_qual_pairs(from, to) {
            let mut first = true;
            for (a, b) in pairs {
                self.out.eq.push((a, b));
                if first {
                    // Top-level value flow: RTTI propagates against the flow
                    // only (handled by rtti_back added by callers when
                    // relevant).
                    first = false;
                } else {
                    self.out.rtti_eq.push((a, b));
                }
            }
        }
    }

    /// Constraints of one statement, not of the statements it contains
    /// (the caller's pre-order walk reaches those next).
    fn stmt(&mut self, f: &Function, s: &Stmt) {
        match s {
            Stmt::Instr(is) => {
                for i in is {
                    self.instr(f, i);
                }
            }
            Stmt::If(e, ..) | Stmt::Switch(e, _) => self.exp(e),
            Stmt::Return(Some(e)) => {
                self.exp(e);
                let ret = f.ret_type(&self.prog.types);
                self.flow(e.ty(), ret);
            }
            _ => {}
        }
    }

    fn instr(&mut self, f: &Function, i: &Instr) {
        match i {
            Instr::Set(_, _, s) | Instr::Call(_, _, _, s) => self.span = *s,
            Instr::Check(..) => {}
        }
        match i {
            Instr::Check(..) => {}
            Instr::Set(lv, e, _) => {
                self.lval(lv);
                self.exp(e);
                let lt = lval_type(self.prog, f, lv);
                self.flow_with_rtti(e.ty(), lt);
            }
            Instr::Call(ret, callee, args, _) => {
                if let Some(lv) = ret {
                    self.lval(lv);
                }
                for a in args {
                    self.exp(a);
                }
                let sig = match callee {
                    Callee::Func(fid) => {
                        match self.prog.types.get(self.prog.functions[fid.idx()].ty) {
                            Type::Func(s) => Some(s.clone()),
                            _ => None,
                        }
                    }
                    Callee::Extern(x) => {
                        let ext = &self.prog.externals[x.idx()];
                        if is_helper(&ext.name) {
                            self.helper_call(f, &ext.name, ret, args);
                            None
                        } else {
                            match self.prog.types.get(ext.ty) {
                                Type::Func(s) => Some(s.clone()),
                                _ => None,
                            }
                        }
                    }
                    Callee::Ptr(e) => {
                        self.exp(e);
                        self.prog.types.ptr_parts(e.ty()).and_then(|(base, _)| {
                            match self.prog.types.get(base) {
                                Type::Func(s) => Some(s.clone()),
                                _ => None,
                            }
                        })
                    }
                };
                if let Some(sig) = sig {
                    for (a, p) in args.iter().zip(sig.params.iter()) {
                        self.flow_with_rtti(a.ty(), *p);
                    }
                    if let Some(lv) = ret {
                        let lt = lval_type(self.prog, f, lv);
                        self.flow_with_rtti(sig.ret, lt);
                    }
                }
            }
        }
    }

    /// The CCured helper externals used inside wrapper bodies get
    /// specialized, not unified, treatment (Section 4.1).
    fn helper_call(&mut self, f: &Function, name: &str, ret: &Option<Lval>, args: &[Exp]) {
        // Helpers that consult bounds metadata require fat (SEQ) arguments:
        // a wrapper using them declares that it needs the caller's bounds.
        let here = self.span;
        if name.starts_with("__verify_nul") || name.starts_with("__bounds_check_n") {
            if let Some(a) = args.first() {
                if let Some((_, q)) = self.prog.types.ptr_parts(a.ty()) {
                    self.at_least(q, PtrKind::Seq, Origin::HelperBounds(here));
                }
            }
        }
        if name.starts_with("__mkptr") {
            // The donor must carry bounds too.
            if let Some(within) = args.get(1) {
                if let Some((_, q)) = self.prog.types.ptr_parts(within.ty()) {
                    self.at_least(q, PtrKind::Seq, Origin::HelperBounds(here));
                }
            }
        }
        if name.starts_with("__mkptr") {
            // The result pointer shares kind/metadata with the second
            // argument (it inherits its bounds).
            if let (Some(lv), Some(within)) = (ret, args.get(1)) {
                let lt = lval_type(self.prog, f, lv);
                if let (Some((_, ql)), Some((_, qw))) = (
                    self.prog.types.ptr_parts(lt),
                    self.prog.types.ptr_parts(within.ty()),
                ) {
                    self.out.eq.push((ql, qw));
                }
            }
        }
        // __ptrof / __verify_nul: no constraints; the runtime handles any
        // representation and __ptrof always returns a thin SAFE pointer.
    }

    /// Value flow between two (same-shaped) types: unify representations.
    fn flow(&mut self, from: TypeId, to: TypeId) {
        self.unify_flow(from, to);
    }

    /// Value flow with top-level backward RTTI propagation (assignment of
    /// physically equal pointers).
    fn flow_with_rtti(&mut self, from: TypeId, to: TypeId) {
        self.unify_flow(from, to);
        if let (Some((_, fq)), Some((_, tq))) = (
            self.prog.types.ptr_parts(from),
            self.prog.types.ptr_parts(to),
        ) {
            self.out.rtti_back.push(RttiBack {
                src: fq,
                dst: tq,
                gate: None,
            });
        }
    }

    fn lval(&mut self, lv: &Lval) {
        if let LvBase::Deref(e) = &lv.base {
            self.exp(e);
        }
        for off in &lv.offsets {
            if let Offset::Index(e) = off {
                self.exp(e);
            }
        }
    }

    fn exp(&mut self, e: &Exp) {
        match e {
            Exp::Binop(op, a, b, _) => {
                self.exp(a);
                self.exp(b);
                if op.is_pointer_arith() {
                    if let Some((_, q)) = self.prog.types.ptr_parts(a.ty()) {
                        let here = self.span;
                        self.at_least(q, PtrKind::Seq, Origin::PtrArith(here));
                    }
                }
            }
            Exp::Unop(_, x, _) => self.exp(x),
            Exp::Cast(_, x, _) => self.exp(x),
            Exp::Load(lv, _) | Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) => self.lval(lv),
            _ => {}
        }
    }

    /// Walks a global initializer against the shape of its type.
    fn init(&mut self, ty: TypeId, init: &Init) {
        match init {
            Init::Scalar(e) => {
                self.exp(e);
                self.flow_with_rtti(e.ty(), ty);
            }
            Init::Compound(items) => match self.prog.types.get(ty).clone() {
                Type::Array(elem, _) => {
                    for i in items {
                        self.init(elem, i);
                    }
                }
                Type::Comp(cid) => {
                    let fields: Vec<TypeId> = self
                        .prog
                        .types
                        .comp(cid)
                        .fields
                        .iter()
                        .map(|f| f.ty)
                        .collect();
                    for (i, item) in items.iter().enumerate() {
                        if let Some(ft) = fields.get(i) {
                            self.init(*ft, item);
                        }
                    }
                }
                _ => {
                    if let Some(first) = items.first() {
                        self.init(ty, first);
                    }
                }
            },
            Init::String(_) => {}
        }
    }
}

fn is_helper(name: &str) -> bool {
    name.starts_with("__")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constraints(src: &str) -> (Program, Constraints) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let c = generate(&prog, true);
        (prog, c)
    }

    #[test]
    fn pointer_arith_generates_seq() {
        let (_, c) = constraints("int f(int *p) { return *(p + 1); }");
        assert!(c.at_least.iter().any(|(_, k)| *k == PtrKind::Seq));
    }

    #[test]
    fn plain_deref_generates_nothing_wild() {
        let (_, c) = constraints("int f(int *p) { return *p; }");
        assert!(c.at_least.iter().all(|(_, k)| *k != PtrKind::Wild));
    }

    #[test]
    fn bad_cast_generates_wild() {
        let (_, c) = constraints("int f(double *d) { return *((int *)d); }");
        let wilds = c
            .at_least
            .iter()
            .filter(|(_, k)| *k == PtrKind::Wild)
            .count();
        assert_eq!(wilds, 2, "both sides of a bad cast go WILD");
    }

    #[test]
    fn trusted_cast_generates_nothing() {
        let (_, c) = constraints("int f(double *d) { return *((int * __TRUSTED)d); }");
        assert!(c.at_least.iter().all(|(_, k)| *k != PtrKind::Wild));
    }

    #[test]
    fn downcast_generates_rtti_source() {
        let (_, c) = constraints(
            "struct F { void *vt; } gf;\n\
             struct C { void *vt; int r; } gc;\n\
             int f(struct F *p) { struct C *c = (struct C *)p; return c->r; }",
        );
        assert_eq!(c.rtti_sources.len(), 1);
    }

    #[test]
    fn downcast_without_rtti_goes_wild() {
        let tu = ccured_ast::parse_translation_unit(
            "struct F { void *vt; } gf;\n\
             struct C { void *vt; int r; } gc;\n\
             int f(struct F *p) { struct C *c = (struct C *)p; return c->r; }",
        )
        .unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let c = generate(&prog, false);
        assert!(c.rtti_sources.is_empty());
        assert!(
            c.at_least
                .iter()
                .filter(|(_, k)| *k == PtrKind::Wild)
                .count()
                >= 2
        );
    }

    #[test]
    fn upcast_generates_gated_backedge() {
        let (_, c) = constraints(
            "struct F { void *vt; } gf;\n\
             struct C { void *vt; int r; } gc;\n\
             void g(struct F *f) { }\n\
             void h(struct C *c) { g((struct F *)c); }",
        );
        assert!(c.rtti_back.iter().any(|e| e.gate.is_some()));
    }

    #[test]
    fn null_cast_generates_nothing() {
        let (_, c) = constraints("int *f(void) { return 0; }");
        assert!(c.at_least.is_empty());
    }

    #[test]
    fn nonzero_int_to_ptr_needs_seq() {
        let (_, c) = constraints("int *f(long a) { return (int *)a; }");
        assert!(c.at_least.iter().any(|(_, k)| *k == PtrKind::Seq));
    }

    #[test]
    fn assignment_unifies_quals() {
        let (prog, c) = constraints("int f(int *p) { int *q; q = p; return *q; }");
        // p's and q's quals must appear in an eq pair (directly or via the
        // coercion-free same-type flow).
        let func = &prog.functions[0];
        let qp = prog.types.ptr_parts(func.locals[0].ty).unwrap().1;
        let qq = prog.types.ptr_parts(func.locals[1].ty).unwrap().1;
        assert!(
            c.eq.iter()
                .any(|(a, b)| (*a == qp && *b == qq) || (*a == qq && *b == qp)),
            "assignment must unify p and q"
        );
    }

    #[test]
    fn call_unifies_args_with_params() {
        let (prog, c) = constraints(
            "void g(char *s) { }\n\
             void f(char *t) { g(t); }",
        );
        let g = &prog.functions[0];
        let f = &prog.functions[1];
        let qs = prog.types.ptr_parts(g.locals[0].ty).unwrap().1;
        let qt = prog.types.ptr_parts(f.locals[0].ty).unwrap().1;
        assert!(c
            .eq
            .iter()
            .any(|(a, b)| (*a == qs && *b == qt) || (*a == qt && *b == qs)));
    }

    #[test]
    fn helper_calls_do_not_unify_params() {
        let (_, c) = constraints(
            "extern char *__ptrof(char *p);\n\
             void f(char *a, char *b) { __ptrof(a); __ptrof(b); }",
        );
        // a and b must not be unified through __ptrof's parameter.
        assert!(c.eq.is_empty());
    }
}
