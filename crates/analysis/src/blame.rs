//! WILD/SEQ blame analysis: explain *why* a pointer lost its SAFE kind.
//!
//! The solver records a provenance graph while it runs
//! ([`ccured_infer::Provenance`]): a blame root per directly-promoted
//! qualifier (the constraint and its source span) and an undirected flow
//! edge for every unification, WILD-spreading cast, and pointee poisoning.
//! [`blame_path`] runs a breadth-first search over that graph from any
//! qualifier to the *nearest* recorded root — the shortest chain of value
//! flows from the pointer the programmer is staring at back to the one
//! cast (or arithmetic operation) that poisoned it.

use ccured_ast::{SourceMap, Span};
use ccured_cil::ir::Program;
use ccured_cil::types::QualId;
use ccured_infer::{EdgeWhy, Origin, Provenance, PtrKind};
use std::collections::{HashMap, VecDeque};

/// One hop of a blame path: the promotion flowed `from` → `to` (towards the
/// root cause) across `why`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlameStep {
    /// The nearer-to-the-target qualifier.
    pub from: QualId,
    /// The nearer-to-the-root qualifier.
    pub to: QualId,
    /// The flow that carried the promotion.
    pub why: EdgeWhy,
}

/// A complete explanation of a qualifier's kind.
#[derive(Debug, Clone)]
pub struct Blame {
    /// The qualifier being explained.
    pub target: QualId,
    /// The kind being explained (SEQ or WILD).
    pub kind: PtrKind,
    /// Flow hops from `target` to `root` (empty when the target itself was
    /// directly promoted).
    pub steps: Vec<BlameStep>,
    /// The directly-promoted qualifier the search reached.
    pub root: QualId,
    /// The constraint that promoted `root`.
    pub cause: Origin,
}

/// Finds the shortest blame path from `target` to a recorded root that
/// forced at least `kind`.
///
/// Returns `None` when the provenance graph has no explanation — e.g. when
/// the qualifier is SAFE, or the kind came from a source outside the
/// recorded constraint set.
pub fn blame_path(prov: &Provenance, target: QualId, kind: PtrKind) -> Option<Blame> {
    if let Some((_, cause)) = prov.root_for(target, kind) {
        return Some(Blame {
            target,
            kind,
            steps: Vec::new(),
            root: target,
            cause,
        });
    }
    // Adjacency over the edges that can carry a promotion of this kind.
    let mut adj: HashMap<QualId, Vec<(QualId, EdgeWhy)>> = HashMap::new();
    for e in &prov.edges {
        if e.why.carries(kind) {
            adj.entry(e.a).or_default().push((e.b, e.why));
            adj.entry(e.b).or_default().push((e.a, e.why));
        }
    }
    let mut prev: HashMap<QualId, (QualId, EdgeWhy)> = HashMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(target);
    prev.insert(target, (target, EdgeWhy::Unified)); // sentinel self-link
    while let Some(q) = queue.pop_front() {
        if q != target {
            if let Some((_, cause)) = prov.root_for(q, kind) {
                // Walk the BFS parents back to the target.
                let mut steps = Vec::new();
                let mut cur = q;
                while cur != target {
                    let (p, why) = prev[&cur];
                    steps.push(BlameStep {
                        from: p,
                        to: cur,
                        why,
                    });
                    cur = p;
                }
                steps.reverse();
                return Some(Blame {
                    target,
                    kind,
                    steps,
                    root: q,
                    cause,
                });
            }
        }
        if let Some(ns) = adj.get(&q) {
            for (n, why) in ns.clone() {
                prev.entry(n).or_insert_with(|| {
                    queue.push_back(n);
                    (q, why)
                });
            }
        }
    }
    None
}

/// Human-readable names for qualifier variables, built by walking the
/// program's declarations: `f::p` for locals, `g` for globals,
/// `struct S.field` for aggregate fields.
pub fn qual_names(prog: &Program) -> HashMap<QualId, String> {
    let mut names = HashMap::new();
    for g in &prog.globals {
        if let Some((_, q)) = prog.types.ptr_parts(g.ty) {
            names.entry(q).or_insert_with(|| g.name.clone());
        }
    }
    // Named locals and parameters first so temporaries never shadow them.
    for temps in [false, true] {
        for f in &prog.functions {
            for l in &f.locals {
                if l.is_temp != temps {
                    continue;
                }
                if let Some((_, q)) = prog.types.ptr_parts(l.ty) {
                    names
                        .entry(q)
                        .or_insert_with(|| format!("{}::{}", f.name, l.name));
                }
            }
        }
    }
    for comp in prog.types.comps() {
        let kw = if comp.is_union { "union" } else { "struct" };
        for fld in &comp.fields {
            if let Some((_, q)) = prog.types.ptr_parts(fld.ty) {
                names
                    .entry(q)
                    .or_insert_with(|| format!("{kw} {}.{}", comp.name, fld.name));
            }
        }
    }
    names
}

fn qual_label(names: &HashMap<QualId, String>, q: QualId) -> String {
    names
        .get(&q)
        .map(|n| format!("`{n}`"))
        .unwrap_or_else(|| format!("qualifier #{}", q.0))
}

fn at_span(sm: Option<&SourceMap>, span: Span) -> String {
    if span == Span::DUMMY {
        return String::new();
    }
    match sm {
        Some(sm) => {
            let at = sm.locate(span.lo);
            let snippet = sm.snippet(span).trim().to_string();
            if snippet.is_empty() || snippet.len() > 48 {
                format!(" at {at}")
            } else {
                format!(" at {at}: `{snippet}`")
            }
        }
        None => format!(" at bytes {span}"),
    }
}

/// Renders a blame path as an indented multi-line explanation.
pub fn render_blame(
    names: &HashMap<QualId, String>,
    sm: Option<&SourceMap>,
    blame: &Blame,
) -> String {
    let mut out = format!("{} is {:?}\n", qual_label(names, blame.target), blame.kind);
    for step in &blame.steps {
        let line = match step.why {
            EdgeWhy::Unified => format!(
                "  = flows to/from {} (assignment, call, or aliasing)",
                qual_label(names, step.to)
            ),
            EdgeWhy::CastWild(span) => format!(
                "  = cast partner of {}{}",
                qual_label(names, step.to),
                at_span(sm, span)
            ),
            EdgeWhy::Pointee => format!(
                "  = stored through WILD pointer {}",
                qual_label(names, step.to)
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "  root cause: {}{}\n",
        blame.cause.describe(),
        at_span(sm, blame.cause.span())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_infer::{infer, InferOptions};

    fn run(src: &str) -> (Program, ccured_infer::InferResult) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let res = infer(&prog, &InferOptions::default());
        (prog, res)
    }

    fn local_qual(prog: &Program, func: &str, local: &str) -> QualId {
        let f = &prog.functions[prog.find_function(func).unwrap().idx()];
        let l = f.locals.iter().find(|l| l.name == local).expect("local");
        prog.types.ptr_parts(l.ty).expect("pointer").1
    }

    #[test]
    fn bad_cast_blame_endpoints() {
        // q is WILD because it was assigned the result of a bad cast from
        // a double*. The blame path must start at q's qualifier and end at
        // a BadCast root.
        let src = "int f(double *d) { int *q; q = (int *)d; return *q; }";
        let (prog, res) = run(src);
        let q = local_qual(&prog, "f", "q");
        assert_eq!(res.solution.kind(q), PtrKind::Wild);
        let blame = blame_path(&res.provenance, q, PtrKind::Wild).expect("blame path");
        assert_eq!(blame.target, q, "path starts at the queried pointer");
        assert!(
            matches!(blame.cause, Origin::BadCast(_)),
            "path ends at the poisoning cast, got {:?}",
            blame.cause
        );
        let span = blame.cause.span();
        assert_ne!(span, Span::DUMMY, "the root cause carries a source span");
        let sm = SourceMap::new("t.c", src);
        assert!(
            sm.snippet(span).contains("(int *)"),
            "span points at the cast, got `{}`",
            sm.snippet(span)
        );
    }

    #[test]
    fn wild_spreads_through_flow_with_steps() {
        // r never appears in a cast; it is WILD purely because it aliases q.
        let src = "int f(double *d) { int *q; int *r; q = (int *)d; r = q; return *r; }";
        let (prog, res) = run(src);
        let r = local_qual(&prog, "f", "r");
        assert_eq!(res.solution.kind(r), PtrKind::Wild);
        let blame = blame_path(&res.provenance, r, PtrKind::Wild).expect("blame path");
        assert_eq!(blame.target, r);
        assert!(matches!(blame.cause, Origin::BadCast(_)));
        assert!(
            !blame.steps.is_empty(),
            "r is not itself a cast side: at least one flow hop"
        );
        // Path endpoints line up: first step leaves the target, the chain
        // is connected, and it arrives at the root.
        assert_eq!(blame.steps.first().unwrap().from, r);
        for w in blame.steps.windows(2) {
            assert_eq!(w[0].to, w[1].from, "steps are chained");
        }
        assert_eq!(blame.steps.last().unwrap().to, blame.root);
    }

    #[test]
    fn seq_blame_names_pointer_arithmetic() {
        let src = "int f(int *p) { int *q; q = p; return q[3]; }";
        let (prog, res) = run(src);
        let p = local_qual(&prog, "f", "p");
        assert_eq!(res.solution.kind(p), PtrKind::Seq);
        let blame = blame_path(&res.provenance, p, PtrKind::Seq).expect("blame path");
        assert!(
            matches!(blame.cause, Origin::PtrArith(_)),
            "SEQ traces back to the indexing, got {:?}",
            blame.cause
        );
    }

    #[test]
    fn safe_pointer_has_no_blame() {
        let (prog, res) = run("int f(int *p) { return *p; }");
        let p = local_qual(&prog, "f", "p");
        assert_eq!(res.solution.kind(p), PtrKind::Safe);
        assert!(blame_path(&res.provenance, p, PtrKind::Wild).is_none());
    }

    #[test]
    fn names_cover_locals_globals_and_fields() {
        let (prog, _) = run("int *gp;\n\
             struct S { int *fld; } gs;\n\
             int f(int *p) { return *p; }");
        let names = qual_names(&prog);
        let vals: Vec<&String> = names.values().collect();
        assert!(vals.iter().any(|n| *n == "gp"));
        assert!(vals.iter().any(|n| *n == "f::p"));
        assert!(vals.iter().any(|n| n.contains("S.fld")));
    }

    #[test]
    fn render_mentions_cause_and_location() {
        let src = "int f(double *d) { int *q; q = (int *)d; return *q; }";
        let (prog, res) = run(src);
        let q = local_qual(&prog, "f", "q");
        let blame = blame_path(&res.provenance, q, PtrKind::Wild).unwrap();
        let names = qual_names(&prog);
        let sm = SourceMap::new("t.c", src);
        let text = render_blame(&names, Some(&sm), &blame);
        assert!(text.contains("is Wild"));
        assert!(text.contains("bad cast"));
        assert!(text.contains("t.c:1:"), "rendered: {text}");
    }
}
