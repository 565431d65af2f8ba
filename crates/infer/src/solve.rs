//! The constraint solver: union-find kind unification, WILD poisoning
//! closure, the RTTI pass, and the validate-and-retry outer loop.
//!
//! Solving is a monotone fixpoint on the `SAFE < SEQ < WILD` lattice:
//!
//! 1. unify all `Eq` pairs (union-find, joining kinds),
//! 2. apply lower bounds and propagate,
//! 3. WILD poisoning: a WILD pointer contaminates every qualifier in its
//!    base type, and `wild_eq` partners of WILD qualifiers become WILD,
//! 4. the RTTI pass marks downcast sources and propagates RTTI against the
//!    data flow (Section 3.2),
//! 5. validation re-checks every cast site against the final kinds (e.g. the
//!    SEQ tiling side condition); violations add WILD bounds and the solver
//!    re-runs. The loop terminates because kinds only ever increase.

use crate::gen::{generate, Constraints};
use crate::kinds::{PtrKind, Solution};
use crate::provenance::{EdgeWhy, Origin, Provenance};
use crate::split;
use crate::stats::{self, CastCensus};
use ccured_cil::ir::{KindAnnot, Program};
use ccured_cil::phys::{CastClass, PhysCtx};
use ccured_cil::types::{QualId, Type, TypeId};
use std::collections::HashMap;

/// Options controlling the inference.
#[derive(Debug, Clone)]
pub struct InferOptions {
    /// Enable the RTTI pointer kind (Section 3.2). Disabling reproduces the
    /// original-CCured behaviour where downcasts are bad casts.
    pub rtti: bool,
    /// Enable physical subtyping for upcasts (Section 3.1). Disabling makes
    /// every non-identical cast bad, as in the original CCured.
    pub physical_subtyping: bool,
    /// Seed SPLIT at external-call boundaries automatically (Section 4.2).
    pub split_at_boundaries: bool,
    /// Force the SPLIT representation on every qualifier (the paper's
    /// all-split overhead experiment).
    pub split_everything: bool,
}

impl Default for InferOptions {
    fn default() -> Self {
        InferOptions {
            rtti: true,
            physical_subtyping: true,
            split_at_boundaries: false,
            split_everything: false,
        }
    }
}

impl InferOptions {
    /// The original-CCured configuration (no physical subtyping, no RTTI).
    pub fn original_ccured() -> Self {
        InferOptions {
            rtti: false,
            physical_subtyping: false,
            split_at_boundaries: false,
            split_everything: false,
        }
    }
}

/// A source-annotation assertion that the solution violates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotationViolation {
    /// The annotated qualifier.
    pub qual: QualId,
    /// What the source asserted.
    pub annotated: KindAnnot,
    /// What inference produced.
    pub inferred: String,
}

/// The complete output of [`infer`].
#[derive(Debug, Clone)]
pub struct InferResult {
    /// Kind/RTTI/SPLIT assignment per qualifier.
    pub solution: Solution,
    /// Cast classification census (paper Section 3 statistics).
    pub census: CastCensus,
    /// `__SAFE`-style assertions that failed.
    pub annotation_violations: Vec<AnnotationViolation>,
    /// Outer validate-and-retry iterations used.
    pub iterations: usize,
    /// Why each qualifier's kind rose: blame roots and flow edges.
    pub provenance: Provenance,
}

/// Runs whole-program pointer-kind inference.
pub fn infer(prog: &Program, opts: &InferOptions) -> InferResult {
    let constraints = generate(prog, opts.rtti);
    let n = prog.types.qual_count() as usize;
    let mut solver = Solver::new(n, &constraints);
    let mut phys = PhysCtx::new(&prog.types);

    // In original-CCured mode, physical subtyping is off: treat every
    // non-identical pointer cast as bad by adding WILD bounds up front.
    let mut extra_wild: Vec<(QualId, Origin)> = Vec::new();
    if !opts.physical_subtyping {
        for site in &prog.casts {
            // Allocator casts were special-cased by the original CCured's
            // malloc wrappers too; trusted casts are exempt by definition.
            if site.trusted || site.alloc {
                continue;
            }
            if let (Some((fb, fq)), Some((tb, tq))) = (
                prog.types.ptr_parts(site.from),
                prog.types.ptr_parts(site.to),
            ) {
                if !phys.phys_eq(fb, tb) {
                    extra_wild.push((fq, Origin::NonPhysEq(site.span)));
                    extra_wild.push((tq, Origin::NonPhysEq(site.span)));
                }
            }
        }
    }

    // The candidate set for "has subtypes in the program".
    let mut subtype_census = SubtypeCensus::new(prog);

    // The pointee map depends only on the (immutable) program; compute it
    // once rather than per validate-and-retry iteration.
    let pointee_map = pointee_quals(prog);

    let mut iterations = 0;
    let solution = loop {
        iterations += 1;
        solver.solve(&pointee_map, &extra_wild);
        let mut sol = solver.snapshot(n);
        if opts.rtti {
            run_rtti_pass(prog, &constraints, &solver, &mut sol, &mut subtype_census);
        }
        let violations = validate(prog, &mut phys, &sol, opts);
        if violations.is_empty() || iterations > 64 {
            break sol;
        }
        extra_wild.extend(violations);
    };

    let mut solution = solution;
    split::infer_split(prog, &constraints, &mut solution, opts);

    let census = stats::census(prog, &solution);
    let annotation_violations = check_annotations(prog, &solution);
    let provenance = std::mem::take(&mut solver.prov);

    InferResult {
        solution,
        census,
        annotation_violations,
        iterations,
        provenance,
    }
}

// ------------------------------------------------------------------ solver

struct Solver<'c> {
    parent: Vec<u32>,
    rank: Vec<u8>,
    kind: Vec<PtrKind>,
    constraints: &'c Constraints,
    /// Blame roots and flow edges recorded while solving.
    prov: Provenance,
}

impl<'c> Solver<'c> {
    fn new(n: usize, constraints: &'c Constraints) -> Self {
        Solver {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            kind: vec![PtrKind::Safe; n],
            constraints,
            prov: Provenance::new(n),
        }
    }

    fn find(&mut self, q: u32) -> u32 {
        let mut root = q;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = q;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        // First actual merge of these classes: keep a provenance edge
        // between the syntactic quals so blame paths can cross it. Repeat
        // eq pairs (later solve iterations) hit `ra == rb` and record
        // nothing, so the edge set is a spanning forest per class.
        self.prov
            .record_edge(QualId(a), QualId(b), EdgeWhy::Unified);
        let joined = self.kind[ra as usize].join(self.kind[rb as usize]);
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.kind[hi as usize] = joined;
    }

    fn raise(&mut self, q: QualId, k: PtrKind) -> bool {
        let r = self.find(q.0) as usize;
        if self.kind[r] < k {
            self.kind[r] = k;
            true
        } else {
            false
        }
    }

    fn kind_of(&mut self, q: QualId) -> PtrKind {
        let r = self.find(q.0) as usize;
        self.kind[r]
    }

    /// Runs the kind fixpoint, including the WILD poisoning closure.
    fn solve(
        &mut self,
        pointee_map: &[(QualId, std::rc::Rc<Vec<QualId>>)],
        extra_wild: &[(QualId, Origin)],
    ) {
        for (a, b) in &self.constraints.eq {
            self.union(a.0, b.0);
        }
        for (i, (q, k)) in self.constraints.at_least.iter().enumerate() {
            if self.raise(*q, *k) {
                let origin = self.constraints.at_least_origin[i];
                self.prov.record_root(*q, *k, origin);
            }
        }
        for (q, origin) in extra_wild {
            if self.raise(*q, PtrKind::Wild) {
                self.prov.record_root(*q, PtrKind::Wild, *origin);
            }
        }
        // Fixpoint: WILD spreads through wild_eq pairs and poisons pointee
        // types. Base-type poisoning needs the pointee map.
        let mut changed = true;
        while changed {
            changed = false;
            for (i, (a, b)) in self.constraints.wild_eq.iter().enumerate() {
                let ka = self.kind_of(*a);
                let kb = self.kind_of(*b);
                if ka == PtrKind::Wild && kb != PtrKind::Wild {
                    self.raise(*b, PtrKind::Wild);
                    let span = self.constraints.wild_eq_span[i];
                    self.prov.record_edge(*a, *b, EdgeWhy::CastWild(span));
                    changed = true;
                }
                if kb == PtrKind::Wild && ka != PtrKind::Wild {
                    self.raise(*a, PtrKind::Wild);
                    let span = self.constraints.wild_eq_span[i];
                    self.prov.record_edge(*a, *b, EdgeWhy::CastWild(span));
                    changed = true;
                }
            }
            for (q, inner) in pointee_map {
                if self.kind_of(*q) == PtrKind::Wild {
                    for iq in inner.iter() {
                        if self.raise(*iq, PtrKind::Wild) {
                            self.prov.record_edge(*q, *iq, EdgeWhy::Pointee);
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    fn snapshot(&mut self, n: usize) -> Solution {
        let mut sol = Solution::new(n);
        for i in 0..n {
            let k = self.kind_of(QualId(i as u32));
            sol.set_kind(QualId(i as u32), k);
        }
        sol
    }

    fn rep(&mut self, q: QualId) -> u32 {
        self.find(q.0)
    }
}

/// Maps every pointer qualifier to the qualifiers inside its pointee type
/// (for WILD poisoning: a WILD pointer's base type goes entirely WILD).
fn pointee_quals(prog: &Program) -> Vec<(QualId, std::rc::Rc<Vec<QualId>>)> {
    let mut phys = PhysCtx::new(&prog.types);
    let mut out = Vec::new();
    for i in 0..prog.types.len() {
        let t = TypeId(i as u32);
        if let Type::Ptr(base, q) = prog.types.get(t) {
            let inner = phys.quals_in_type(*base);
            if !inner.is_empty() {
                out.push((*q, inner));
            }
        }
    }
    out
}

// --------------------------------------------------------------- RTTI pass

/// Lazily answers "does this type have proper physical subtypes among the
/// program's pointer pointee types?" (the gate of inference rule 3).
struct SubtypeCensus<'a> {
    prog: &'a Program,
    /// Representative pointee types, deduplicated structurally.
    reps: Vec<TypeId>,
    cache: HashMap<TypeId, bool>,
}

impl<'a> SubtypeCensus<'a> {
    fn new(prog: &'a Program) -> Self {
        let mut reps: Vec<TypeId> = Vec::new();
        for i in 0..prog.types.len() {
            if let Type::Ptr(base, _) = prog.types.get(TypeId(i as u32)) {
                if !reps.iter().any(|r| prog.types.same_type(*r, *base)) {
                    reps.push(*base);
                }
            }
        }
        SubtypeCensus {
            prog,
            reps,
            cache: HashMap::new(),
        }
    }

    fn has_proper_subtype(&mut self, t: TypeId, phys: &mut PhysCtx<'_>) -> bool {
        if let Some(&v) = self.cache.get(&t) {
            return v;
        }
        let v = self
            .reps
            .clone()
            .iter()
            .any(|r| phys.is_proper_subtype(*r, t) && !self.prog.types.same_type(*r, t));
        self.cache.insert(t, v);
        v
    }
}

fn run_rtti_pass(
    prog: &Program,
    constraints: &Constraints,
    solver_src: &Solver<'_>,
    sol: &mut Solution,
    census: &mut SubtypeCensus<'_>,
) {
    // Work on ECR representatives so unified qualifiers share flags.
    let n = sol.len();
    let mut solver = Solver::new(n, constraints);
    // Rebuild the same unions (cheap) to query representatives.
    for (a, b) in &constraints.eq {
        solver.union(a.0, b.0);
    }
    let _ = solver_src; // representative structure is rebuilt locally
    let mut phys = PhysCtx::new(&prog.types);

    let mut rtti_rep: Vec<bool> = vec![false; n];
    let mut worklist: Vec<u32> = Vec::new();
    for q in &constraints.rtti_sources {
        if sol.kind(*q) == PtrKind::Safe {
            let r = solver.rep(*q) as usize;
            if !rtti_rep[r] {
                rtti_rep[r] = true;
                worklist.push(r as u32);
            }
        }
    }
    // Propagate to fixpoint over the backward and deep-equality edges.
    let mut changed = true;
    while changed {
        changed = false;
        for e in &constraints.rtti_back {
            let rd = solver.rep(e.dst) as usize;
            let rs = solver.rep(e.src) as usize;
            if rtti_rep[rd] && !rtti_rep[rs] && sol.kind(e.src) == PtrKind::Safe {
                let fire = match e.gate {
                    None => true,
                    Some(t) => census.has_proper_subtype(t, &mut phys),
                };
                if fire {
                    rtti_rep[rs] = true;
                    changed = true;
                }
            }
        }
        for (a, b) in &constraints.rtti_eq {
            let ra = solver.rep(*a) as usize;
            let rb = solver.rep(*b) as usize;
            if rtti_rep[ra] != rtti_rep[rb] {
                if sol.kind(*a) == PtrKind::Safe && sol.kind(*b) == PtrKind::Safe {
                    rtti_rep[ra] = true;
                    rtti_rep[rb] = true;
                    changed = true;
                } else {
                    // Mixed-kind alias: drop RTTI (validation may widen).
                    rtti_rep[ra] = false;
                    rtti_rep[rb] = false;
                }
            }
        }
    }
    for i in 0..n {
        let q = QualId(i as u32);
        let r = solver.rep(q) as usize;
        if rtti_rep[r] && sol.kind(q) == PtrKind::Safe {
            sol.set_rtti(q, true);
        }
    }
}

// -------------------------------------------------------------- validation

/// Re-checks every cast site against the solved kinds; returns qualifiers
/// that must be widened to WILD, each with the rule that fired.
fn validate(
    prog: &Program,
    phys: &mut PhysCtx<'_>,
    sol: &Solution,
    opts: &InferOptions,
) -> Vec<(QualId, Origin)> {
    let mut widen = Vec::new();
    for site in &prog.casts {
        if site.trusted || site.alloc {
            continue;
        }
        let (fp, tp) = (
            prog.types.ptr_parts(site.from),
            prog.types.ptr_parts(site.to),
        );
        let ((fb, fq), (tb, tq)) = match (fp, tp) {
            (Some(f), Some(t)) => (f, t),
            _ => continue,
        };
        let (kf, kt) = (sol.kind(fq), sol.kind(tq));
        if kf == PtrKind::Wild && kt == PtrKind::Wild {
            continue; // WILD-to-WILD casts are always permitted
        }
        if kf == PtrKind::Wild || kt == PtrKind::Wild {
            // wild_eq should have caught this; widen the other side.
            widen.push((fq, Origin::Validation("mixed-wild cast", site.span)));
            widen.push((tq, Origin::Validation("mixed-wild cast", site.span)));
            continue;
        }
        match phys.classify_cast(site.from, site.to) {
            CastClass::Identical => {
                // Kinds are unified; if SEQ, tiling holds trivially.
            }
            CastClass::Upcast
                if (kf == PtrKind::Seq || kt == PtrKind::Seq) && !phys.seq_cast_ok(fb, tb) =>
            {
                widen.push((fq, Origin::Validation("SEQ upcast tiling", site.span)));
                widen.push((tq, Origin::Validation("SEQ upcast tiling", site.span)));
            }
            CastClass::Downcast => {
                if !opts.rtti {
                    widen.push((fq, Origin::Downcast(site.span)));
                    widen.push((tq, Origin::Downcast(site.span)));
                    continue;
                }
                // The source must be a SAFE pointer carrying RTTI; the
                // target must be SAFE (possibly itself RTTI).
                let src_ok = kf == PtrKind::Safe && sol.is_rtti(fq);
                let dst_ok = kt == PtrKind::Safe;
                if !src_ok || !dst_ok {
                    widen.push((
                        fq,
                        Origin::Validation("downcast needs SAFE+RTTI", site.span),
                    ));
                    widen.push((
                        tq,
                        Origin::Validation("downcast needs SAFE+RTTI", site.span),
                    ));
                }
            }
            CastClass::Bad => {
                widen.push((fq, Origin::BadCast(site.span)));
                widen.push((tq, Origin::BadCast(site.span)));
            }
            _ => {}
        }
    }
    // Only report qualifiers that are not already WILD (guarantees that the
    // outer loop strictly increases and thus terminates).
    widen.retain(|(q, _)| sol.kind(*q) != PtrKind::Wild);
    widen.sort_by_key(|(q, _)| *q);
    widen.dedup_by_key(|(q, _)| *q);
    widen
}

fn check_annotations(prog: &Program, sol: &Solution) -> Vec<AnnotationViolation> {
    let mut out = Vec::new();
    for (q, annot) in &prog.annots.qual_kinds {
        let eff = sol.effective(*q);
        let ok = match annot {
            KindAnnot::Safe => eff == crate::kinds::EffectiveKind::Safe,
            KindAnnot::Seq => eff == crate::kinds::EffectiveKind::Seq,
            KindAnnot::Wild => eff == crate::kinds::EffectiveKind::Wild,
            KindAnnot::Rtti => eff == crate::kinds::EffectiveKind::Rtti,
        };
        if !ok {
            out.push(AnnotationViolation {
                qual: *q,
                annotated: *annot,
                inferred: format!("{eff:?}"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::EffectiveKind;

    fn run(src: &str) -> (Program, InferResult) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let res = infer(&prog, &InferOptions::default());
        (prog, res)
    }

    fn local_kind(prog: &Program, res: &InferResult, func: &str, local: &str) -> EffectiveKind {
        let f = prog.find_function(func).expect("function");
        let f = &prog.functions[f.idx()];
        let l = f
            .locals
            .iter()
            .find(|l| l.name == local)
            .unwrap_or_else(|| panic!("local {local}"));
        let (_, q) = prog.types.ptr_parts(l.ty).expect("pointer local");
        res.solution.effective(q)
    }

    #[test]
    fn plain_pointer_is_safe() {
        let (p, r) = run("int f(int *p) { return *p; }");
        assert_eq!(local_kind(&p, &r, "f", "p"), EffectiveKind::Safe);
    }

    #[test]
    fn arithmetic_makes_seq() {
        let (p, r) = run("int f(int *p) { return *(p + 3); }");
        assert_eq!(local_kind(&p, &r, "f", "p"), EffectiveKind::Seq);
    }

    #[test]
    fn indexing_makes_seq() {
        let (p, r) = run("int f(int *p) { return p[3]; }");
        assert_eq!(local_kind(&p, &r, "f", "p"), EffectiveKind::Seq);
    }

    #[test]
    fn seq_spreads_through_assignment() {
        let (p, r) = run("int f(int *p) { int *q; q = p; return q[1]; }");
        assert_eq!(local_kind(&p, &r, "f", "p"), EffectiveKind::Seq);
        assert_eq!(local_kind(&p, &r, "f", "q"), EffectiveKind::Seq);
    }

    #[test]
    fn bad_cast_makes_wild_both() {
        let (p, r) = run("int f(double *d) { int *q; q = (int *)d; return *q; }");
        assert_eq!(local_kind(&p, &r, "f", "d"), EffectiveKind::Wild);
        assert_eq!(local_kind(&p, &r, "f", "q"), EffectiveKind::Wild);
    }

    #[test]
    fn wild_poisons_base_type() {
        // pp is WILD, so the pointers stored through it must be WILD too.
        let (p, r) = run(
            "int f(double *d) { int **pp; pp = (int **)d; int *inner; inner = *pp; return *inner; }",
        );
        assert_eq!(local_kind(&p, &r, "f", "pp"), EffectiveKind::Wild);
        assert_eq!(local_kind(&p, &r, "f", "inner"), EffectiveKind::Wild);
    }

    #[test]
    fn upcast_stays_safe() {
        let (p, r) = run("struct F { void *vt; } gf;\n\
             struct C { void *vt; int radius; } gc;\n\
             void use_f(struct F *f) { }\n\
             void g(struct C *c) { use_f((struct F *)c); }");
        assert_eq!(local_kind(&p, &r, "g", "c"), EffectiveKind::Safe);
        assert_eq!(local_kind(&p, &r, "use_f", "f"), EffectiveKind::Safe);
    }

    #[test]
    fn downcast_makes_source_rtti() {
        let (p, r) = run("struct F { void *vt; } gf;\n\
             struct C { void *vt; int radius; } gc;\n\
             int g(struct F *f) { struct C *c; c = (struct C *)f; return c->radius; }");
        assert_eq!(local_kind(&p, &r, "g", "f"), EffectiveKind::Rtti);
        assert_eq!(local_kind(&p, &r, "g", "c"), EffectiveKind::Safe);
    }

    #[test]
    fn paper_circle_chain_example() {
        // Circle* q1 -> Figure* q2 -> void* q3 -> Circle* q4 (paper §3.2):
        // q3 RTTI (downcast source), q2 RTTI (upcast backprop, Figure has
        // subtypes), q1 SAFE (Circle has no subtypes), q4 SAFE.
        let (p, r) = run("struct Figure { void *vt; } gf;\n\
             struct Circle { void *vt; int radius; } gc;\n\
             int g(struct Circle *q1) {\n\
               struct Figure *q2; void *q3; struct Circle *q4;\n\
               q2 = (struct Figure *)q1;\n\
               q3 = (void *)q2;\n\
               q4 = (struct Circle *)q3;\n\
               return q4->radius;\n\
             }");
        assert_eq!(local_kind(&p, &r, "g", "q1"), EffectiveKind::Safe);
        assert_eq!(local_kind(&p, &r, "g", "q2"), EffectiveKind::Rtti);
        assert_eq!(local_kind(&p, &r, "g", "q3"), EffectiveKind::Rtti);
        assert_eq!(local_kind(&p, &r, "g", "q4"), EffectiveKind::Safe);
    }

    #[test]
    fn original_ccured_mode_downcast_is_wild() {
        let tu = ccured_ast::parse_translation_unit(
            "struct F { void *vt; } gf;\n\
             struct C { void *vt; int radius; } gc;\n\
             int g(struct F *f) { struct C *c; c = (struct C *)f; return c->radius; }",
        )
        .unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let r = infer(&prog, &InferOptions::original_ccured());
        let f = prog.find_function("g").unwrap();
        let f = &prog.functions[f.idx()];
        let q = prog.types.ptr_parts(f.locals[0].ty).unwrap().1;
        assert_eq!(r.solution.effective(q), EffectiveKind::Wild);
    }

    #[test]
    fn trusted_cast_keeps_safe() {
        let (p, r) = run("int f(double *d) { int *q; q = (int * __TRUSTED)d; return *q; }");
        assert_eq!(local_kind(&p, &r, "f", "d"), EffectiveKind::Safe);
        assert_eq!(local_kind(&p, &r, "f", "q"), EffectiveKind::Safe);
    }

    #[test]
    fn seq_downcast_is_widened_to_wild() {
        // A downcast whose source also does arithmetic cannot be RTTI
        // (RTTI requires SAFE); validation widens it to WILD.
        let (p, r) = run("struct F { void *vt; } gf;\n\
             struct C { void *vt; int radius; } gc;\n\
             int g(struct F *f) {\n\
               struct C *c; f = f + 1; c = (struct C *)f; return c->radius;\n\
             }");
        assert_eq!(local_kind(&p, &r, "g", "f"), EffectiveKind::Wild);
    }

    #[test]
    fn annotations_checked() {
        let (_, r) = run("int * __SAFE f(int * __SEQ p) { return p + 1; }");
        // p is SEQ as annotated; return type qual stays SAFE? The returned
        // p+1 flows to the return qual, unifying them: the __SAFE assertion
        // must then be reported as violated.
        assert!(
            !r.annotation_violations.is_empty(),
            "returning a SEQ pointer from a __SAFE-annotated return type must be flagged"
        );
    }

    #[test]
    fn annotations_ok_when_matching() {
        let (_, r) = run("int f(int * __SEQ p, int n) { return p[n]; }");
        assert!(r.annotation_violations.is_empty());
    }

    #[test]
    fn iterations_terminate() {
        let (_, r) = run("struct F { void *vt; } gf;\n\
             struct C { void *vt; int radius; } gc;\n\
             int g(struct F *f) {\n\
               struct C *c; f = f + 1; c = (struct C *)f; return c->radius;\n\
             }");
        assert!(r.iterations <= 64);
    }

    #[test]
    fn kind_counts_reported() {
        let (_, r) = run("int f(int *p, char *s) { return p[1] + *s; }");
        let c = r.solution.kind_counts();
        assert!(c.seq >= 1);
        assert!(c.safe >= 1);
        assert_eq!(c.wild, 0);
    }
}
