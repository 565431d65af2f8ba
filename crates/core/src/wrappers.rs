//! Library wrappers and the link audit (paper Section 4.1).
//!
//! A `#pragma ccuredWrapperOf("w", "f")` directs CCured to route every call
//! to the external `f` through the program-defined wrapper `w`. Wrapper
//! bodies use the helper externals `__ptrof` (strip metadata), `__mkptr`
//! (rebuild a wide pointer from a thin one plus a donor), `__verify_nul`
//! (NUL-termination within bounds) and `__bounds_check_n` (explicit length
//! precondition); the `ccured-rt` interpreter implements these helpers for
//! every pointer representation.
//!
//! The link audit reproduces CCured's "fail to link rather than crash"
//! guarantee: any direct external call that would receive a wide
//! (metadata-carrying, non-SPLIT) pointer is reported.

use ccured_cil::ir::*;
use ccured_cil::lower::is_alloc_fn;
use ccured_cil::visit;
use ccured_infer::{PtrKind, Solution};

/// Rewrites calls to wrapped externals into calls to their wrappers.
///
/// Calls inside a wrapper body itself are left alone (the wrapper must be
/// able to call the real function). Returns the `(wrapper, external)` pairs
/// that were applied.
pub fn apply_wrappers(prog: &mut Program) -> Vec<(String, String)> {
    let mut applied = Vec::new();
    let pairs: Vec<(String, String)> = prog
        .pragmas
        .iter()
        .filter_map(|p| match p {
            CcuredPragma::WrapperOf { wrapper, external } => {
                Some((wrapper.clone(), external.clone()))
            }
            _ => None,
        })
        .collect();
    // Wrapper bodies are boundary specifications: raw external calls inside
    // *any* wrapper must stay raw (they already operate on thin pointers via
    // `__ptrof`), so collect the whole wrapper set first and exempt it.
    let wrapper_fns: Vec<FuncId> = pairs
        .iter()
        .filter_map(|(w, _)| prog.find_function(w))
        .collect();
    for (wrapper, external) in pairs {
        let (wid, xid) = match (prog.find_function(&wrapper), prog.find_external(&external)) {
            (Some(w), Some(x)) => (w, x),
            _ => continue,
        };
        for (fi, f) in prog.functions.iter_mut().enumerate() {
            if wrapper_fns.contains(&FuncId(fi as u32)) {
                continue;
            }
            visit::for_each_instr_run_mut(&mut f.body, &mut |is| {
                for i in is {
                    if let Instr::Call(_, callee, _, _) = i {
                        if matches!(callee, Callee::Extern(x) if *x == xid) {
                            *callee = Callee::Func(wid);
                        }
                    }
                }
            });
        }
        applied.push((wrapper, external));
    }
    applied
}

/// One incompatibility found by the link audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkIssue {
    /// The external function being called.
    pub external: String,
    /// The calling function.
    pub caller: String,
    /// Human-readable reason.
    pub detail: String,
}

/// Audits every direct external call for representation compatibility:
/// pointer arguments must be thin (SAFE without metadata) or SPLIT.
///
/// `meta` is the per-type metadata table from
/// [`ccured_infer::split::meta_types`].
pub fn check_link(prog: &Program, sol: &Solution, meta: &[bool]) -> Vec<LinkIssue> {
    let mut issues = Vec::new();
    for f in &prog.functions {
        visit::for_each_instr(&f.body, &mut |i| {
            if let Instr::Call(_, Callee::Extern(x), args, _) = i {
                audit_call(prog, sol, meta, f, *x, args, &mut issues);
            }
        });
    }
    issues
}

fn audit_call(
    prog: &Program,
    sol: &Solution,
    meta: &[bool],
    f: &Function,
    callee: ExternId,
    args: &[Exp],
    issues: &mut Vec<LinkIssue>,
) {
    let name = &prog.externals[callee.idx()].name;
    if name.is_empty() || name.starts_with("__") || is_alloc_fn(name) {
        return;
    }
    // Variadic externals are runtime-provided builtins (printf family) that
    // accept any representation.
    if let ccured_cil::types::Type::Func(sig) = prog.types.get(prog.externals[callee.idx()].ty) {
        if sig.varargs {
            return;
        }
    }
    for (idx, a) in args.iter().enumerate() {
        if let Some((pointee, q)) = prog.types.ptr_parts(a.ty()) {
            let kind = sol.kind(q);
            let wide = kind != PtrKind::Safe || sol.is_rtti(q);
            let deep_meta = meta.get(pointee.0 as usize).copied().unwrap_or(false);
            let compatible = (!wide && !deep_meta) || sol.is_split(q);
            if !compatible {
                issues.push(LinkIssue {
                    external: name.clone(),
                    caller: f.name.clone(),
                    detail: format!(
                        "argument {} is a {:?}{} pointer; write a wrapper or use SPLIT types",
                        idx + 1,
                        kind,
                        if deep_meta {
                            " (metadata-carrying)"
                        } else {
                            ""
                        }
                    ),
                });
            }
        }
    }
}

/// The C-source prelude shipping CCured's standard-library wrappers
/// (Section 4.1: "wrappers for about 100 commonly-used functions"; we ship
/// the subset our external library implements).
///
/// Prepend this to a program (before its own code) to get `strchr`,
/// `strcpy`, `strlen`-style calls automatically checked and representation-
/// converted at the library boundary.
pub fn stdlib_wrapper_source() -> &'static str {
    r#"
/* ---- CCured helper externals (interpreted by the runtime) ---------- */
extern char * __SAFE __ptrof(char *p);
extern char *__mkptr(char * __SAFE p, char *within);
extern void __verify_nul(char *p);
extern void __bounds_check_n(char *p, unsigned long n);

/* ---- raw library externals (thin pointers only) --------------------- */
extern unsigned long strlen(char *s);
extern char *strchr(char *s, int c);
extern char *strcpy(char *dst, char *src);
extern char *strncpy(char *dst, char *src, unsigned long n);
extern char *strcat(char *dst, char *src);
extern int strcmp(char *a, char *b);
extern int strncmp(char *a, char *b, unsigned long n);
extern void *memcpy(void *dst, void *src, unsigned long n);
extern void *memset(void *dst, int c, unsigned long n);
extern int atoi(char *s);
extern char *strrchr(char *s, int c);
extern char *strstr(char *hay, char *needle);
extern char *strncat(char *dst, char *src, unsigned long n);
extern char *memchr(char *buf, int c, unsigned long n);
extern char *strdup(char *s);

/* ---- wrappers -------------------------------------------------------- */
#pragma ccuredWrapperOf("strlen_wrapper", "strlen")
unsigned long strlen_wrapper(char *s) {
    __verify_nul(s);
    return strlen(__ptrof(s));
}

#pragma ccuredWrapperOf("strchr_wrapper", "strchr")
char *strchr_wrapper(char *str, int chr) {
    __verify_nul(str);
    char *result = strchr(__ptrof(str), chr);
    return __mkptr(result, str);
}

#pragma ccuredWrapperOf("strcpy_wrapper", "strcpy")
char *strcpy_wrapper(char *dst, char *src) {
    unsigned long n;
    __verify_nul(src);
    n = strlen(__ptrof(src));
    __bounds_check_n(dst, n + 1);
    strcpy(__ptrof(dst), __ptrof(src));
    return dst;
}

#pragma ccuredWrapperOf("strncpy_wrapper", "strncpy")
char *strncpy_wrapper(char *dst, char *src, unsigned long n) {
    __bounds_check_n(dst, n);
    __bounds_check_n(src, 0);
    strncpy(__ptrof(dst), __ptrof(src), n);
    return dst;
}

#pragma ccuredWrapperOf("strcat_wrapper", "strcat")
char *strcat_wrapper(char *dst, char *src) {
    unsigned long nd;
    unsigned long ns;
    __verify_nul(dst);
    __verify_nul(src);
    nd = strlen(__ptrof(dst));
    ns = strlen(__ptrof(src));
    __bounds_check_n(dst, nd + ns + 1);
    strcat(__ptrof(dst), __ptrof(src));
    return dst;
}

#pragma ccuredWrapperOf("strcmp_wrapper", "strcmp")
int strcmp_wrapper(char *a, char *b) {
    __verify_nul(a);
    __verify_nul(b);
    return strcmp(__ptrof(a), __ptrof(b));
}

#pragma ccuredWrapperOf("strncmp_wrapper", "strncmp")
int strncmp_wrapper(char *a, char *b, unsigned long n) {
    __bounds_check_n(a, 0);
    __bounds_check_n(b, 0);
    return strncmp(__ptrof(a), __ptrof(b), n);
}

#pragma ccuredWrapperOf("memcpy_wrapper", "memcpy")
void *memcpy_wrapper(void *dst, void *src, unsigned long n) {
    __bounds_check_n(dst, n);
    __bounds_check_n(src, n);
    memcpy(__ptrof(dst), __ptrof(src), n);
    return dst;
}

#pragma ccuredWrapperOf("memset_wrapper", "memset")
void *memset_wrapper(void *dst, int c, unsigned long n) {
    __bounds_check_n(dst, n);
    memset(__ptrof(dst), c, n);
    return dst;
}

#pragma ccuredWrapperOf("atoi_wrapper", "atoi")
int atoi_wrapper(char *s) {
    __verify_nul(s);
    return atoi(__ptrof(s));
}

#pragma ccuredWrapperOf("strrchr_wrapper", "strrchr")
char *strrchr_wrapper(char *str, int chr) {
    __verify_nul(str);
    char *result = strrchr(__ptrof(str), chr);
    return __mkptr(result, str);
}

#pragma ccuredWrapperOf("strstr_wrapper", "strstr")
char *strstr_wrapper(char *hay, char *needle) {
    __verify_nul(hay);
    __verify_nul(needle);
    char *result = strstr(__ptrof(hay), __ptrof(needle));
    return __mkptr(result, hay);
}

#pragma ccuredWrapperOf("strncat_wrapper", "strncat")
char *strncat_wrapper(char *dst, char *src, unsigned long n) {
    unsigned long nd;
    __verify_nul(dst);
    __verify_nul(src);
    nd = strlen(__ptrof(dst));
    __bounds_check_n(dst, nd + n + 1);
    strncat(__ptrof(dst), __ptrof(src), n);
    return dst;
}

#pragma ccuredWrapperOf("memchr_wrapper", "memchr")
char *memchr_wrapper(char *buf, int c, unsigned long n) {
    __bounds_check_n(buf, n);
    char *result = memchr(__ptrof(buf), c, n);
    return __mkptr(result, buf);
}

#pragma ccuredWrapperOf("strdup_wrapper", "strdup")
char *strdup_wrapper(char *s) {
    __verify_nul(s);
    char *fresh = strdup(__ptrof(s));
    /* fresh is its own allocation: its bounds come from itself */
    return __mkptr(fresh, fresh);
}
"#
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_infer::{infer, InferOptions};

    fn lower(src: &str) -> Program {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        ccured_cil::lower_translation_unit(&tu).expect("lower")
    }

    #[test]
    fn wrapper_rewrites_calls() {
        let mut prog = lower(
            "extern char *strchr(char *s, int c);\n\
             #pragma ccuredWrapperOf(\"my_wrap\", \"strchr\")\n\
             char *my_wrap(char *s, int c) { return strchr(s, c); }\n\
             char *use(char *s) { return strchr(s, 47); }",
        );
        let applied = apply_wrappers(&mut prog);
        assert_eq!(applied.len(), 1);
        // `use` now calls my_wrap...
        let use_fn = prog.find_function("use").unwrap();
        let called_wrapper = calls_function(&prog.functions[use_fn.idx()], "my_wrap", &prog);
        assert!(
            called_wrapper,
            "call site must be redirected to the wrapper"
        );
        // ...while the wrapper still calls the raw external.
        let w = prog.find_function("my_wrap").unwrap();
        let raw = calls_extern(&prog.functions[w.idx()], "strchr", &prog);
        assert!(raw, "wrapper must keep calling the real external");
    }

    fn calls_function(f: &Function, name: &str, prog: &Program) -> bool {
        let mut found = false;
        visit::for_each_instr(&f.body, &mut |i| {
            found |= matches!(i, Instr::Call(_, Callee::Func(fid), _, _)
                if prog.functions[fid.idx()].name == name);
        });
        found
    }

    fn calls_extern(f: &Function, name: &str, prog: &Program) -> bool {
        let mut found = false;
        visit::for_each_instr(&f.body, &mut |i| {
            found |= matches!(i, Instr::Call(_, Callee::Extern(x), _, _)
                if prog.externals[x.idx()].name == name);
        });
        found
    }

    #[test]
    fn link_audit_flags_wide_pointer_to_external() {
        let prog = lower(
            "extern void use_buf(char *buf);\n\
             void f(char *b, int i) { b = b + i; use_buf(b); }",
        );
        let res = infer(&prog, &InferOptions::default());
        let meta = ccured_infer::split::meta_types(&prog.types, &res.solution);
        let issues = check_link(&prog, &res.solution, &meta);
        assert_eq!(
            issues.len(),
            1,
            "SEQ argument to an external must be flagged"
        );
        assert_eq!(issues[0].external, "use_buf");
    }

    #[test]
    fn link_audit_accepts_thin_pointer() {
        let prog = lower(
            "extern void use_one(int *p);\n\
             void f(int *p) { use_one(p); }",
        );
        let res = infer(&prog, &InferOptions::default());
        let meta = ccured_infer::split::meta_types(&prog.types, &res.solution);
        assert!(check_link(&prog, &res.solution, &meta).is_empty());
    }

    #[test]
    fn link_audit_accepts_split_pointer() {
        let tu = ccured_ast::parse_translation_unit(
            "struct msg { char *buf; };\n\
             extern void sendmsg_like(struct msg *m);\n\
             void f(struct msg *m, int i) { m->buf = m->buf + i; sendmsg_like(m); }",
        )
        .unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let opts = InferOptions {
            split_at_boundaries: true,
            ..InferOptions::default()
        };
        let res = infer(&prog, &opts);
        let meta = ccured_infer::split::meta_types(&prog.types, &res.solution);
        let issues = check_link(&prog, &res.solution, &meta);
        assert!(
            issues.is_empty(),
            "split representation makes the call compatible: {issues:?}"
        );
    }

    #[test]
    fn stdlib_wrappers_parse_and_lower() {
        let prog = lower(stdlib_wrapper_source());
        assert!(prog.find_function("strcpy_wrapper").is_some());
        assert!(prog.find_function("strchr_wrapper").is_some());
        assert!(prog.pragmas.len() >= 10);
    }
}
