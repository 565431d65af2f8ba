//! SPLIT / NOSPLIT inference for the compatible metadata representation
//! (paper Section 4.2).
//!
//! Starting from programmer annotations (and, optionally, automatic seeds at
//! external-call boundaries), SPLIT qualifiers flow:
//!
//! * down from a pointer to its base type and from a structure to its
//!   fields (SPLIT types never contain NOSPLIT types),
//! * across assignments and physically-equal casts (aliases must agree on
//!   representation).
//!
//! WILD pointers do not support the compatible representation (the paper's
//! stated limitation); splitness is cleared on WILD qualifiers.

use crate::gen::Constraints;
use crate::kinds::{PtrKind, Solution};
use crate::solve::InferOptions;
use ccured_cil::ir::{Callee, CcuredPragma, Exp, ExternId, Instr, Program, SplitSeed};
use ccured_cil::phys::PhysCtx;
use ccured_cil::types::{QualId, Type, TypeId, TypeTable};
use ccured_cil::visit;

/// Runs SPLIT inference, updating `solution` in place.
pub fn infer_split(
    prog: &Program,
    constraints: &Constraints,
    solution: &mut Solution,
    opts: &InferOptions,
) {
    let n = solution.len();
    let mut split = vec![false; n];
    let mut phys = PhysCtx::new(&prog.types);

    if opts.split_everything {
        split.fill(true);
    } else {
        // Seeds: explicit pointer-level annotations.
        for (q, s) in &prog.annots.qual_splits {
            if *s {
                split[q.0 as usize] = true;
            }
        }
        // Seeds: base-type annotations on variables.
        for (seed, s) in &prog.annots.split_seeds {
            if !*s {
                continue;
            }
            let ty = match seed {
                SplitSeed::Global(g) => prog.globals[g.idx()].ty,
                SplitSeed::Local(f, l) => prog.functions[f.idx()].locals[l.idx()].ty,
            };
            for q in phys.quals_in_type(ty).iter().copied() {
                split[q.0 as usize] = true;
            }
        }
        // Seeds: `#pragma ccured_split(name)` on globals.
        for p in &prog.pragmas {
            if let CcuredPragma::SplitVar(name) = p {
                if let Some(g) = prog.find_global(name) {
                    for q in phys.quals_in_type(prog.globals[g.idx()].ty).iter().copied() {
                        split[q.0 as usize] = true;
                    }
                }
            }
        }
        // Seeds: external-call boundaries (pointer arguments whose pointee
        // carries metadata would otherwise need deep-copying wrappers).
        if opts.split_at_boundaries {
            let meta = meta_types(&prog.types, solution);
            for f in &prog.functions {
                visit::for_each_instr(&f.body, &mut |i| {
                    if let Instr::Call(ret, Callee::Extern(x), args, _) = i {
                        seed_call_boundary(
                            prog,
                            *x,
                            ret.is_some(),
                            args,
                            &meta,
                            &mut split,
                            &mut phys,
                        );
                    }
                });
            }
        }
    }

    // Propagation to fixpoint.
    let pointee: Vec<(QualId, TypeId)> = (0..prog.types.len())
        .filter_map(|i| match prog.types.get(TypeId(i as u32)) {
            Type::Ptr(base, q) => Some((*q, *base)),
            _ => None,
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        // Down: pointer split => everything in its base type split.
        for (q, base) in &pointee {
            if split[q.0 as usize] {
                for iq in phys.quals_in_type(*base).iter().copied() {
                    if !split[iq.0 as usize] {
                        split[iq.0 as usize] = true;
                        changed = true;
                    }
                }
            }
        }
        // Across: unified representations agree.
        for (a, b) in &constraints.eq {
            let (sa, sb) = (split[a.0 as usize], split[b.0 as usize]);
            if sa != sb {
                split[a.0 as usize] = true;
                split[b.0 as usize] = true;
                changed = true;
            }
        }
    }

    // WILD does not support the compatible representation.
    for (i, s) in split.iter_mut().enumerate() {
        if *s && solution.kind(QualId(i as u32)) == PtrKind::Wild {
            *s = false;
        }
    }

    for (i, s) in split.iter().enumerate() {
        solution.set_split(QualId(i as u32), *s);
    }
}

/// Seeds SPLIT at one call to an external: pointer arguments, and a
/// returned pointer, whose pointee carries metadata.
fn seed_call_boundary(
    prog: &Program,
    callee: ExternId,
    has_ret: bool,
    args: &[Exp],
    meta: &[bool],
    split: &mut [bool],
    phys: &mut PhysCtx<'_>,
) {
    let ext = &prog.externals[callee.idx()];
    if ext.name.starts_with("__") {
        return;
    }
    let mut seed = |ptr_ty: TypeId| {
        if let Some((base, q)) = prog.types.ptr_parts(ptr_ty) {
            // Only pointees that carry metadata need the compatible
            // representation.
            if meta[base.0 as usize] {
                split[q.0 as usize] = true;
                for iq in phys.quals_in_type(base).iter().copied() {
                    split[iq.0 as usize] = true;
                }
            }
        }
    };
    for a in args {
        seed(a.ty());
    }
    // Library-returned pointers to metadata-carrying data (the
    // gethostbyname case of Section 4.2).
    if has_ret {
        if let Type::Func(sig) = prog.types.get(ext.ty) {
            seed(sig.ret);
        }
    }
}

/// [`meta_types`] over a program's type table, under the name the
/// `perfbench` package calls.
pub fn compute_meta_types(prog: &Program, sol: &Solution) -> Vec<bool> {
    meta_types(&prog.types, sol)
}

/// Computes, for every type, whether its metadata type `Meta(t)` is
/// non-void (paper Figure 6): SEQ and WILD pointers carry bounds, RTTI
/// pointers carry a type word, and any type containing such a pointer
/// carries metadata. This is the least fixpoint, so recursive types never
/// fabricate metadata.
///
/// Returns a vector indexed by [`TypeId`].
pub fn meta_types(types: &TypeTable, sol: &Solution) -> Vec<bool> {
    let n = types.len();
    let mut meta = vec![false; n];
    // Iterate to fixpoint (types form a finite graph; monotone).
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            if meta[i] {
                continue;
            }
            let t = TypeId(i as u32);
            let m = match types.get(t) {
                Type::Ptr(base, q) => {
                    sol.kind(*q) != PtrKind::Safe || sol.is_rtti(*q) || meta[base.0 as usize]
                }
                Type::Array(elem, _) => meta[elem.0 as usize],
                Type::Comp(cid) => types
                    .comp(*cid)
                    .fields
                    .iter()
                    .any(|f| meta[f.ty.0 as usize]),
                Type::Func(_) | Type::Void | Type::Int(_) | Type::Float(_) => false,
            };
            if m {
                meta[i] = true;
                changed = true;
            }
        }
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{infer, InferOptions};

    fn run(src: &str, opts: &InferOptions) -> (Program, crate::solve::InferResult) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let res = infer(&prog, opts);
        (prog, res)
    }

    #[test]
    fn no_seeds_no_split() {
        let (_, r) = run("int f(int *p) { return *p; }", &InferOptions::default());
        assert_eq!(r.solution.split_count(), 0);
    }

    #[test]
    fn annotation_seeds_split() {
        let (p, r) = run(
            "struct H { char *name; };\n\
             struct H __SPLIT *h1;\n\
             int f(void) { return 0; }",
            &InferOptions::default(),
        );
        let g = p.find_global("h1").unwrap();
        let (base, q) = p.types.ptr_parts(p.globals[g.idx()].ty).unwrap();
        assert!(r.solution.is_split(q), "h1's own pointer splits");
        // The base type's field pointer splits too (flows down).
        let mut phys = PhysCtx::new(&p.types);
        for iq in phys.quals_in_type(base).iter().copied() {
            assert!(r.solution.is_split(iq), "field quals split");
        }
    }

    #[test]
    fn split_spreads_through_assignment() {
        let (p, r) = run(
            "char * __SPLIT a;\n\
             char *b;\n\
             void f(void) { b = a; }",
            &InferOptions::default(),
        );
        let gb = p.find_global("b").unwrap();
        let (_, qb) = p.types.ptr_parts(p.globals[gb.idx()].ty).unwrap();
        assert!(r.solution.is_split(qb));
    }

    #[test]
    fn wild_cannot_split() {
        let (p, r) = run(
            "double *d;\n\
             int * __SPLIT w;\n\
             void f(void) { w = (int *)d; }",
            &InferOptions::default(),
        );
        let gw = p.find_global("w").unwrap();
        let (_, qw) = p.types.ptr_parts(p.globals[gw.idx()].ty).unwrap();
        assert_eq!(r.solution.kind(qw), PtrKind::Wild);
        assert!(!r.solution.is_split(qw));
    }

    #[test]
    fn split_everything_mode() {
        let opts = InferOptions {
            split_everything: true,
            ..InferOptions::default()
        };
        let (_, r) = run("int f(int *p, char **q) { return *p + (*q != 0); }", &opts);
        assert!(r.solution.split_count() >= 3);
    }

    #[test]
    fn boundary_seeding_splits_nested_pointer_args() {
        let opts = InferOptions {
            split_at_boundaries: true,
            ..InferOptions::default()
        };
        // sendmsg-like: the extern takes a struct containing a SEQ pointer.
        let (p, r) = run(
            "struct msg { char *buf; };\n\
             extern void sendmsg_like(struct msg *m);\n\
             void f(struct msg *m, int i) { m->buf = m->buf + i; sendmsg_like(m); }",
            &opts,
        );
        let f = p.find_function("f").unwrap();
        let (_, qm) = p
            .types
            .ptr_parts(p.functions[f.idx()].locals[0].ty)
            .unwrap();
        assert!(r.solution.is_split(qm), "argument pointer must split");
    }

    #[test]
    fn boundary_seeding_skips_meta_free_args() {
        let opts = InferOptions {
            split_at_boundaries: true,
            ..InferOptions::default()
        };
        // recvmsg-like case from the paper: a plain character buffer has no
        // metadata, so no split is needed.
        let (p, r) = run(
            "extern void fill(char *buf);\n\
             void f(char *b) { fill(b); }",
            &opts,
        );
        let f = p.find_function("f").unwrap();
        let (_, qb) = p
            .types
            .ptr_parts(p.functions[f.idx()].locals[0].ty)
            .unwrap();
        assert!(!r.solution.is_split(qb));
    }

    #[test]
    fn meta_types_computed() {
        let (p, r) = run(
            "struct hostent { char *h_name; char **h_aliases; int h_addrtype; };\n\
             int f(struct hostent *h, int i) { return h->h_aliases[i] != 0; }",
            &InferOptions::default(),
        );
        let meta = meta_types(&p.types, &r.solution);
        // h_aliases is indexed => SEQ => hostent carries metadata.
        let cid = p.types.find_comp("hostent", false).unwrap();
        let t = (0..p.types.len())
            .map(|i| TypeId(i as u32))
            .find(|t| matches!(p.types.get(*t), Type::Comp(c) if *c == cid))
            .unwrap();
        assert!(meta[t.0 as usize]);
        // A plain int type never carries metadata.
        let int_t = (0..p.types.len())
            .map(|i| TypeId(i as u32))
            .find(|t| matches!(p.types.get(*t), Type::Int(_)))
            .unwrap();
        assert!(!meta[int_t.0 as usize]);
    }
}
