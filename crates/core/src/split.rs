//! The compatible metadata representation: the `C(t)` and `Meta(t)` type
//! functions of paper Figure 6, and the boundary representations of
//! Figure 7.
//!
//! * `C(t)` strips all pointer qualifiers: it is the type an external C
//!   library expects. In this implementation the in-memory layout engine
//!   already uses C layout for all data (wide-pointer metadata is
//!   virtualized by the runtime), so `C(t)` has the same layout as `t`;
//!   the function is still materialized for fidelity and for the runtime's
//!   shadow-shape computation.
//! * `Meta(t)` is the parallel metadata structure: `void` for metadata-free
//!   types; for a SEQ pointer a `{b, e, m}` record; for a SAFE pointer a
//!   `{m}` record (omitted when the base has no metadata); for a structure
//!   the structure of its fields' metadata.

use ccured_cil::types::{IntKind, Type, TypeId, TypeTable};
use ccured_infer::{PtrKind, Solution};
use std::collections::HashMap;

/// Builds `C(t)` / `Meta(t)` types inside a (mutable) type table.
///
/// # Examples
///
/// See the module tests, which reproduce the paper's `struct hostent`
/// example (Figures 4–6).
pub struct SplitTypes<'s> {
    sol: &'s Solution,
    /// Least-fixpoint "has metadata" flag per pre-existing [`TypeId`],
    /// computed once so recursive types never fabricate metadata.
    has_meta: Vec<bool>,
    meta_cache: HashMap<TypeId, Option<TypeId>>,
    comp_meta: HashMap<u32, Option<ccured_cil::types::CompId>>,
}

impl<'s> SplitTypes<'s> {
    /// Creates a builder; `types` is inspected to precompute the metadata
    /// least fixpoint over the current type population.
    pub fn new(types: &TypeTable, sol: &'s Solution) -> Self {
        SplitTypes {
            sol,
            has_meta: ccured_infer::split::meta_types(types, sol),
            meta_cache: HashMap::new(),
            comp_meta: HashMap::new(),
        }
    }

    /// `C(t)`: the external-library view of `t`. Layout-identical to `t` in
    /// this implementation (see module docs); returned as-is.
    pub fn c_type(&self, _types: &TypeTable, t: TypeId) -> TypeId {
        t
    }

    /// `Meta(t)`: the metadata type, or `None` when `Meta(t) = void`.
    pub fn meta_type(&mut self, types: &mut TypeTable, t: TypeId) -> Option<TypeId> {
        // The precomputed least fixpoint decides *whether* metadata exists;
        // the builder below only decides its shape (so recursion through
        // struct pointers cannot fabricate metadata).
        if !self.has_meta.get(t.0 as usize).copied().unwrap_or(false) {
            return None;
        }
        if let Some(cached) = self.meta_cache.get(&t) {
            return *cached;
        }
        let result = self.build_meta(types, t);
        self.meta_cache.insert(t, result);
        result
    }

    fn build_meta(&mut self, types: &mut TypeTable, t: TypeId) -> Option<TypeId> {
        match types.get(t).clone() {
            Type::Void | Type::Int(_) | Type::Float(_) | Type::Func(_) => None,
            Type::Ptr(base, q) => {
                let kind = self.sol.kind(q);
                let rtti = self.sol.is_rtti(q);
                let base_meta = self.meta_type(types, base);
                match (kind, rtti) {
                    (PtrKind::Safe, false) => {
                        // Meta(t *SAFE) = struct { Meta(t) *m } — omitted
                        // entirely if Meta(t) = void.
                        let bm = base_meta?;
                        let name = format!("__meta_safe_{}", t.0);
                        let cid = types.declare_comp(name, false);
                        let mq = types.fresh_qual();
                        let mp = types.mk_ptr_with_qual(bm, mq);
                        let fq = types.fresh_qual();
                        types.define_comp(cid, vec![("m".into(), mp, fq)]).ok()?;
                        Some(types.mk_comp(cid))
                    }
                    (PtrKind::Seq, _) | (PtrKind::Wild, _) => {
                        // Meta(t *SEQ) = struct { C(t) *b, *e; Meta(t) *m? }.
                        let name = format!("__meta_seq_{}", t.0);
                        let cid = types.declare_comp(name, false);
                        let cb = self.c_type(types, base);
                        let bq = types.fresh_qual();
                        let bp = types.mk_ptr_with_qual(cb, bq);
                        let eq = types.fresh_qual();
                        let ep = types.mk_ptr_with_qual(cb, eq);
                        let (fqb, fqe) = (types.fresh_qual(), types.fresh_qual());
                        let mut fields =
                            vec![("b".to_string(), bp, fqb), ("e".to_string(), ep, fqe)];
                        if let Some(bm) = base_meta {
                            let mq = types.fresh_qual();
                            let mp = types.mk_ptr_with_qual(bm, mq);
                            let fqm = types.fresh_qual();
                            fields.push(("m".into(), mp, fqm));
                        }
                        types.define_comp(cid, fields).ok()?;
                        Some(types.mk_comp(cid))
                    }
                    (PtrKind::Safe, true) => {
                        // RTTI pointers carry a type word: Meta = { t; m? }.
                        let name = format!("__meta_rtti_{}", t.0);
                        let cid = types.declare_comp(name, false);
                        let word = types.mk_int(IntKind::ULong);
                        let fqt = types.fresh_qual();
                        let mut fields = vec![("t".to_string(), word, fqt)];
                        if let Some(bm) = base_meta {
                            let mq = types.fresh_qual();
                            let mp = types.mk_ptr_with_qual(bm, mq);
                            let fqm = types.fresh_qual();
                            fields.push(("m".into(), mp, fqm));
                        }
                        types.define_comp(cid, fields).ok()?;
                        Some(types.mk_comp(cid))
                    }
                }
            }
            Type::Array(elem, len) => {
                let em = self.meta_type(types, elem)?;
                Some(types.mk_array(em, len))
            }
            Type::Comp(cid) => {
                if let Some(m) = self.comp_meta.get(&cid.0) {
                    return m.map(|c| types.mk_comp(c));
                }
                let info = types.comp(cid).clone();
                if !info.defined {
                    return None;
                }
                // Pre-declare to break recursion through struct pointers.
                let meta_cid = types.declare_comp(format!("__meta_{}", info.name), info.is_union);
                self.comp_meta.insert(cid.0, Some(meta_cid));
                let mut fields = Vec::new();
                for f in &info.fields {
                    if let Some(fm) = self.meta_type(types, f.ty) {
                        let q = types.fresh_qual();
                        fields.push((f.name.clone(), fm, q));
                    }
                }
                debug_assert!(
                    !fields.is_empty(),
                    "has_meta fixpoint guarantees at least one metadata field"
                );
                types.define_comp(meta_cid, fields).ok()?;
                Some(types.mk_comp(meta_cid))
            }
        }
    }

    /// Whether a SPLIT pointer qualifier needs an `m` metadata-pointer field
    /// in its representation (the paper's "31% of these pointers need a
    /// metadata pointer" statistic).
    pub fn needs_meta_ptr(&mut self, types: &mut TypeTable, ptr_ty: TypeId) -> bool {
        match types.get(ptr_ty) {
            Type::Ptr(base, _) => {
                let base = *base;
                self.meta_type(types, base).is_some()
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_infer::{infer, InferOptions};

    fn setup(src: &str) -> (ccured_cil::Program, Solution) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let res = infer(&prog, &InferOptions::default());
        (prog, res.solution)
    }

    #[test]
    fn scalar_meta_is_void() {
        let (mut prog, sol) = setup("int x; double d;");
        let mut st = SplitTypes::new(&prog.types, &sol);
        let tx = prog.globals[0].ty;
        assert!(st.meta_type(&mut prog.types, tx).is_none());
    }

    #[test]
    fn safe_ptr_to_scalar_has_no_meta() {
        let (mut prog, sol) = setup("int *p; int f(void) { return *p; }");
        let mut st = SplitTypes::new(&prog.types, &sol);
        let tp = prog.globals[0].ty;
        assert!(
            st.meta_type(&mut prog.types, tp).is_none(),
            "Meta(int *SAFE) = void"
        );
    }

    #[test]
    fn seq_ptr_has_bounds_meta() {
        let (mut prog, sol) = setup("int *p; int f(int i) { return p[i]; }");
        let mut st = SplitTypes::new(&prog.types, &sol);
        let tp = prog.globals[0].ty;
        let m = st.meta_type(&mut prog.types, tp).expect("SEQ has metadata");
        match prog.types.get(m) {
            Type::Comp(cid) => {
                let info = prog.types.comp(*cid);
                let names: Vec<&str> = info.fields.iter().map(|f| f.name.as_str()).collect();
                assert_eq!(names, vec!["b", "e"], "Meta(int *SEQ) = {{b, e}}");
            }
            other => panic!("expected struct metadata, got {other:?}"),
        }
    }

    #[test]
    fn hostent_meta_shape_matches_paper() {
        // struct hostent { char *h_name; char **h_aliases; int h_addrtype; }
        // with h_name and h_aliases (and its elements) SEQ: the metadata is
        // struct { meta_seq h_name; meta_seq_seq h_aliases; } — h_addrtype
        // contributes nothing (paper Figures 4–6).
        let (mut prog, sol) = setup(
            "struct hostent { char *h_name; char **h_aliases; int h_addrtype; };\n\
             int f(struct hostent *h, int i, int j) {\n\
               return h->h_name[i] + h->h_aliases[i][j];\n\
             }",
        );
        let cid = prog.types.find_comp("hostent", false).unwrap();
        let t = prog.types.mk_comp(cid);
        let mut st = SplitTypes::new(&prog.types, &sol);
        let m = st
            .meta_type(&mut prog.types, t)
            .expect("hostent has metadata");
        match prog.types.get(m) {
            Type::Comp(mc) => {
                let info = prog.types.comp(*mc);
                let names: Vec<&str> = info.fields.iter().map(|f| f.name.as_str()).collect();
                assert_eq!(
                    names,
                    vec!["h_name", "h_aliases"],
                    "h_addrtype has void metadata and is omitted"
                );
                // h_aliases metadata must include b, e and m (element
                // strings carry their own bounds).
                let fa = &info.fields[1];
                match prog.types.get(fa.ty) {
                    Type::Comp(ac) => {
                        let ai = prog.types.comp(*ac);
                        let an: Vec<&str> = ai.fields.iter().map(|f| f.name.as_str()).collect();
                        assert_eq!(an, vec!["b", "e", "m"]);
                    }
                    other => panic!("expected struct, got {other:?}"),
                }
            }
            other => panic!("expected struct metadata, got {other:?}"),
        }
    }

    #[test]
    fn recursive_list_meta_terminates() {
        let (mut prog, sol) = setup(
            "struct L { struct L *next; char *data; };\n\
             int f(struct L *l, int i) { return l->data[i]; }",
        );
        let cid = prog.types.find_comp("L", false).unwrap();
        let t = prog.types.mk_comp(cid);
        let mut st = SplitTypes::new(&prog.types, &sol);
        // data is SEQ -> L carries metadata; next is SAFE pointing to a
        // metadata-carrying type -> next's metadata is {m}.
        let m = st.meta_type(&mut prog.types, t);
        assert!(m.is_some(), "list metadata must exist and terminate");
    }

    #[test]
    fn meta_free_struct_has_void_meta() {
        let (mut prog, sol) = setup("struct P { int x; int y; }; struct P g;");
        let cid = prog.types.find_comp("P", false).unwrap();
        let t = prog.types.mk_comp(cid);
        let mut st = SplitTypes::new(&prog.types, &sol);
        assert!(st.meta_type(&mut prog.types, t).is_none());
    }

    #[test]
    fn needs_meta_ptr_matches_paper_rule() {
        let (mut prog, sol) = setup(
            "char **argv_like;\n\
             int *plain;\n\
             int f(int i, int j) { return argv_like[i][j] + *plain; }",
        );
        let mut st = SplitTypes::new(&prog.types, &sol);
        let t_argv = prog.globals[0].ty;
        let t_plain = prog.globals[1].ty;
        assert!(st.needs_meta_ptr(&mut prog.types, t_argv));
        assert!(!st.needs_meta_ptr(&mut prog.types, t_plain));
    }
}
