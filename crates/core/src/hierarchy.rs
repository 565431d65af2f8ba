//! The global physical-subtype hierarchy used by RTTI pointers
//! (paper Section 3.2).
//!
//! Nodes are the (structurally deduplicated) pointee types of the program's
//! pointer types. Because prefixes of a type are totally ordered, the
//! "longest proper prefix" parent relation forms a forest; we add a virtual
//! `void` root (every type is a physical subtype of `void`).
//!
//! `isSubtype` is answered two ways: a parent-chain walk (the paper's
//! run-time function) and an O(1) Cohen-style pre/post interval check, used
//! as an ablation in the benchmarks.
//!
//! Building is near-linear in the number of pointer types (DESIGN.md,
//! "Building the hierarchy"): pointer bases are partitioned into
//! physical-equality classes, comparing only bases that share a
//! pointee-blind [`LayoutKey`]; each class representative's layout is then
//! spelled with class ids in place of pointees, so an exact prefix test is
//! a comparison of integers, and the supertypes of a type are found by
//! walking its layout down a trie of the others' leading atoms.

use ccured_cil::fxhash::FxHashMap;
use ccured_cil::ir::Program;
use ccured_cil::phys::{BlindPiece, LayoutKey, PhysCtx, Piece};
use ccured_cil::types::{Type, TypeId};
use std::cell::Cell;

/// Identifier of a node in the hierarchy.
pub type NodeId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
struct HNode {
    ty: Option<TypeId>,
    parent: Option<NodeId>,
    pre: u32,
    post: u32,
    depth: u32,
}

/// The physical-subtype tree of a program's pointee types.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    nodes: Vec<HNode>,
}

/// The virtual root node representing `void` (the empty aggregate).
pub const VOID_NODE: NodeId = 0;

impl Hierarchy {
    /// Builds the hierarchy for a program.
    pub fn build(prog: &Program) -> Hierarchy {
        Self::build_with(prog, &mut PhysCtx::new(&prog.types)).0
    }

    /// [`Hierarchy::build`] over a caller's comparison context; also
    /// returns how many class-layout prefix tests the parent search made.
    fn build_with(prog: &Program, phys: &mut PhysCtx) -> (Hierarchy, u64) {
        // One node per physical-equality class of pointee types (distinct
        // struct tags with identical layout share a node: they are
        // indistinguishable to the checked-downcast machinery).
        let (class_of, mut reps) = classes(prog, phys);
        // Deterministic order (registration order is already stable).
        reps.sort_by_key(|t| (prog.types.size_of(*t).unwrap_or(0), t.0));

        // Parent selection: the *closest* proper supertype (one can have
        // the same byte size when the subtype fills its trailing padding).
        let search = ParentSearch::new(prog, phys, &class_of, &reps);
        let mut nodes = vec![HNode {
            ty: None,
            parent: None,
            pre: 0,
            post: 0,
            depth: 0,
        }];
        for (i, t) in reps.iter().enumerate() {
            let parent = search
                .closest_supertype(i)
                .map_or(VOID_NODE, |b| (b + 1) as NodeId);
            nodes.push(HNode {
                ty: Some(*t),
                parent: Some(parent),
                pre: 0,
                post: 0,
                depth: 0,
            });
        }

        let mut h = Hierarchy { nodes };
        h.number();
        (h, search.tests.get())
    }

    /// Assigns pre/post interval numbers and depths via DFS from the root.
    fn number(&mut self) {
        let n = self.nodes.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(p) = node.parent {
                children[p as usize].push(i);
            }
        }
        let mut clock = 0u32;
        // Iterative DFS from the void root.
        let mut stack: Vec<(usize, usize, u32)> = vec![(0, 0, 0)];
        self.nodes[0].pre = 0;
        while let Some((node, child_idx, depth)) = stack.pop() {
            if child_idx == 0 {
                self.nodes[node].pre = clock;
                self.nodes[node].depth = depth;
                clock += 1;
            }
            if child_idx < children[node].len() {
                stack.push((node, child_idx + 1, depth));
                stack.push((children[node][child_idx], 0, depth + 1));
            } else {
                self.nodes[node].post = clock;
                clock += 1;
            }
        }
    }

    /// Number of nodes, including the `void` root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the `void` root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Maximum depth of the tree (root = 0).
    pub fn max_depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// `rttiOf`: the node for a static type, using structural then physical
    /// equality. `void` maps to the root.
    pub fn node_of(&self, prog: &Program, t: TypeId) -> Option<NodeId> {
        if matches!(prog.types.get(t), Type::Void) {
            return Some(VOID_NODE);
        }
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if prog.types.same_type(n.ty.expect("typed node"), t) {
                return Some(i as NodeId);
            }
        }
        let mut phys = PhysCtx::new(&prog.types);
        for (i, n) in self.nodes.iter().enumerate().skip(1) {
            if phys.phys_eq(n.ty.expect("typed node"), t) {
                return Some(i as NodeId);
            }
        }
        None
    }

    /// `isSubtype(a, b)` via the parent-chain walk (the paper's run-time
    /// check). Returns the number of steps walked alongside the answer, for
    /// the cost model.
    pub fn is_subtype_walk(&self, a: NodeId, b: NodeId) -> (bool, u32) {
        let mut cur = Some(a);
        let mut steps = 0;
        while let Some(i) = cur {
            if i == b {
                return (true, steps);
            }
            steps += 1;
            cur = self.nodes[i as usize].parent;
        }
        (false, steps)
    }

    /// `isSubtype(a, b)` via O(1) interval containment (ablation encoding).
    pub fn is_subtype_interval(&self, a: NodeId, b: NodeId) -> bool {
        let (na, nb) = (&self.nodes[a as usize], &self.nodes[b as usize]);
        nb.pre <= na.pre && na.post <= nb.post
    }

    /// The parent of a node.
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.nodes[n as usize].parent
    }
}

/// Partitions the pointee types of every pointer type in `prog` into
/// physical-equality classes. Returns each type's class and one
/// representative per class: its first member in type-table order that is
/// neither `void` nor a function (classes with none get no node).
///
/// `phys_eq` runs only between types with the same [`LayoutKey`]; since it
/// is an equivalence, comparing against one member per class suffices.
fn classes(prog: &Program, phys: &mut PhysCtx) -> (FxHashMap<TypeId, u32>, Vec<TypeId>) {
    let mut class_of: FxHashMap<TypeId, u32> = FxHashMap::default();
    let mut buckets: FxHashMap<LayoutKey, Vec<(TypeId, u32)>> = FxHashMap::default();
    let mut has_rep: Vec<bool> = Vec::new();
    let mut reps = Vec::new();
    for i in 0..prog.types.len() {
        let Type::Ptr(base, _) = prog.types.get(TypeId(i as u32)) else {
            continue;
        };
        let base = *base;
        if class_of.contains_key(&base) {
            continue;
        }
        let bucket = buckets.entry(phys.layout_key(base)).or_default();
        let class = match bucket.iter().find(|(m, _)| phys.phys_eq(*m, base)) {
            Some(&(_, c)) => c,
            None => {
                let c = has_rep.len() as u32;
                has_rep.push(false);
                bucket.push((base, c));
                c
            }
        };
        class_of.insert(base, class);
        let own_node = !matches!(prog.types.get(base), Type::Void | Type::Func(_));
        if own_node && !has_rep[class as usize] {
            has_rep[class as usize] = true;
            reps.push(base);
        }
    }
    (class_of, reps)
}

/// An atom with its pointee replaced by the pointee's class: two class
/// atoms are equal exactly when the atoms are physically equal.
type ClassAtom = (u64, BlindPiece, u32);

/// A representative's layout in class atoms.
struct ClassLayout {
    atoms: Vec<ClassAtom>,
    /// How many leading atoms tile `[0, end)` with no padding between
    /// them; `atoms.len()` when the layout has no internal padding.
    run: usize,
    size: u64,
}

/// Whether every atom of `needles` has an equal atom at the same offset in
/// `hay` (both in offset order): the walk of [`PhysCtx::is_prefix_of`].
fn contains(hay: &[ClassAtom], needles: &[ClassAtom]) -> bool {
    let mut j = 0;
    for a in needles {
        while j < hay.len() && hay[j].0 < a.0 {
            j += 1;
        }
        if j >= hay.len() || hay[j] != *a {
            return false;
        }
        j += 1;
    }
    true
}

/// The representatives' layouts, indexed by a trie of their leading runs.
///
/// A supertype `x` of `t` has all its atoms in `t` at the same offsets and
/// `size(x) <= size(t)`. Atoms never overlap, so `x`'s leading run (which
/// covers `[0, end)` completely) must also be `t`'s first atoms: `x` hangs
/// on a trie node along `t`'s path. When `x` has no internal padding that
/// is all there is to check; otherwise the rest of `x` must still be found
/// in `t` (a subtype may pack fields into the supertype's padding).
struct ParentSearch {
    /// Per representative, in node order; `None` when it has no layout.
    layouts: Vec<Option<ClassLayout>>,
    /// Trie edges: (node, next atom) to child node; node 0 is the root.
    next: FxHashMap<(u32, ClassAtom), u32>,
    /// Per trie node: representatives whose whole layout ends there.
    whole: Vec<Vec<usize>>,
    /// Per trie node: representatives with internal padding whose leading
    /// run ends there.
    holed: Vec<Vec<usize>>,
    /// Prefix tests made (for the complexity guard).
    tests: Cell<u64>,
}

impl ParentSearch {
    fn new(
        prog: &Program,
        phys: &mut PhysCtx,
        class_of: &FxHashMap<TypeId, u32>,
        reps: &[TypeId],
    ) -> ParentSearch {
        let mut search = ParentSearch {
            layouts: Vec::with_capacity(reps.len()),
            next: FxHashMap::default(),
            whole: vec![Vec::new()],
            holed: vec![Vec::new()],
            tests: Cell::new(0),
        };
        for (i, t) in reps.iter().enumerate() {
            let layout = phys.stream(*t).map(|s| {
                let atoms: Vec<ClassAtom> = s
                    .atoms()
                    .iter()
                    .map(|(off, p)| {
                        let class = match p {
                            Piece::Ptr(base, _) => *class_of
                                .get(base)
                                .expect("every pointee is the base of a pointer type"),
                            _ => 0,
                        };
                        (*off, p.blind(), class)
                    })
                    .collect();
                let mut end = 0;
                let run = s
                    .atoms()
                    .iter()
                    .take_while(|(off, p)| {
                        let tiles = *off == end;
                        end = off + p.byte_size(&prog.types);
                        tiles
                    })
                    .count();
                ClassLayout {
                    atoms,
                    run,
                    size: s.size(),
                }
            });
            if let Some(l) = &layout {
                let mut node = 0;
                for a in &l.atoms[..l.run] {
                    node = match search.next.get(&(node, *a)) {
                        Some(&n) => n,
                        None => {
                            let n = search.whole.len() as u32;
                            search.whole.push(Vec::new());
                            search.holed.push(Vec::new());
                            search.next.insert((node, *a), n);
                            n
                        }
                    };
                }
                let anchored = if l.run == l.atoms.len() {
                    &mut search.whole
                } else {
                    &mut search.holed
                };
                anchored[node as usize].push(i);
            }
            search.layouts.push(layout);
        }
        search
    }

    /// Representative `i`'s parent: the closest of its proper supertypes
    /// `S`, chosen as the paper's definition does, by folding `S` in
    /// representative order and moving to each candidate that is a proper
    /// subtype of the best so far.
    fn closest_supertype(&self, i: usize) -> Option<usize> {
        let t = self.layouts[i].as_ref()?;
        let mut path = vec![0u32];
        for a in &t.atoms {
            match self.next.get(&(*path.last().expect("root"), *a)) {
                Some(&n) => path.push(n),
                None => break,
            }
        }
        let fits = |x: usize| {
            self.tests.set(self.tests.get() + 1);
            x != i && self.layout(x).size <= t.size
        };
        let mut holed = Vec::new();
        for (depth, n) in path.iter().enumerate() {
            for &x in &self.holed[*n as usize] {
                let l = self.layout(x);
                if fits(x) && contains(&t.atoms[depth..], &l.atoms[l.run..]) {
                    holed.push(x);
                }
            }
        }
        if holed.is_empty() {
            // Every supertype is a literal prefix of `t`, so one is a
            // prefix of another exactly when it is no longer and no larger.
            // Folded in order (by size), they end on the last of the
            // longest: the largest fitting one on the deepest node.
            return path.iter().rev().find_map(|n| {
                self.whole[*n as usize]
                    .iter()
                    .copied()
                    .filter(|&x| fits(x))
                    .max()
            });
        }
        let mut sups: Vec<usize> = path
            .iter()
            .flat_map(|n| self.whole[*n as usize].iter().copied())
            .filter(|&x| fits(x))
            .chain(holed)
            .collect();
        sups.sort_unstable();
        let mut best: Option<usize> = None;
        for j in sups {
            best = match best {
                Some(b) if !self.is_prefix(b, j) => Some(b),
                _ => Some(j),
            };
        }
        best
    }

    fn layout(&self, x: usize) -> &ClassLayout {
        self.layouts[x].as_ref().expect("trie holds laid-out types")
    }

    /// Exact physical prefix between two representatives.
    fn is_prefix(&self, sup: usize, sub: usize) -> bool {
        self.tests.set(self.tests.get() + 1);
        let (a, b) = (self.layout(sup), self.layout(sub));
        a.size <= b.size && contains(&b.atoms, &a.atoms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(src: &str) -> (Program, Hierarchy) {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let h = Hierarchy::build(&prog);
        (prog, h)
    }

    #[test]
    fn empty_program_has_root_only() {
        let (_, h) = build("int x;");
        assert!(h.is_empty());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn figure_circle_tree() {
        let (p, h) = build(
            "struct Figure { void *vt; } *f;\n\
             struct Circle { void *vt; int radius; } *c;\n\
             struct Square { void *vt; int side; int area; } *s;",
        );
        let tf = p
            .types
            .ptr_parts(p.globals[p.find_global("f").unwrap().idx()].ty)
            .unwrap()
            .0;
        let tc = p
            .types
            .ptr_parts(p.globals[p.find_global("c").unwrap().idx()].ty)
            .unwrap()
            .0;
        let ts = p
            .types
            .ptr_parts(p.globals[p.find_global("s").unwrap().idx()].ty)
            .unwrap()
            .0;
        let nf = h.node_of(&p, tf).unwrap();
        let nc = h.node_of(&p, tc).unwrap();
        let ns = h.node_of(&p, ts).unwrap();
        // Circle's parent is Figure; Square's parent is Circle (its layout
        // extends Circle's: ptr, int, int vs ptr, int).
        assert_eq!(h.parent(nc), Some(nf));
        assert!(h.is_subtype_walk(nc, nf).0);
        assert!(h.is_subtype_walk(ns, nf).0);
        assert!(!h.is_subtype_walk(nf, nc).0);
        // Interval encoding agrees with the walk.
        assert!(h.is_subtype_interval(nc, nf));
        assert!(h.is_subtype_interval(ns, nf));
        assert!(!h.is_subtype_interval(nf, nc));
    }

    #[test]
    fn every_node_is_subtype_of_void() {
        let (p, h) = build("struct A { int x; } *a; double *d;");
        for name in ["a", "d"] {
            let t = p
                .types
                .ptr_parts(p.globals[p.find_global(name).unwrap().idx()].ty)
                .unwrap()
                .0;
            let n = h.node_of(&p, t).unwrap();
            assert!(h.is_subtype_walk(n, VOID_NODE).0);
            assert!(h.is_subtype_interval(n, VOID_NODE));
        }
    }

    #[test]
    fn unrelated_types_are_not_subtypes() {
        let (p, h) = build("long *l; double *d;");
        let tl = p
            .types
            .ptr_parts(p.globals[p.find_global("l").unwrap().idx()].ty)
            .unwrap()
            .0;
        let td = p
            .types
            .ptr_parts(p.globals[p.find_global("d").unwrap().idx()].ty)
            .unwrap()
            .0;
        let nl = h.node_of(&p, tl).unwrap();
        let nd = h.node_of(&p, td).unwrap();
        assert!(!h.is_subtype_walk(nl, nd).0);
        assert!(!h.is_subtype_interval(nl, nd));
    }

    #[test]
    fn node_of_dedups_structurally() {
        let (p, h) = build("int *a; int *b;");
        let ta = p.types.ptr_parts(p.globals[0].ty).unwrap().0;
        let tb = p.types.ptr_parts(p.globals[1].ty).unwrap().0;
        assert_eq!(h.node_of(&p, ta), h.node_of(&p, tb));
        assert_eq!(h.len(), 2, "root + one int node");
    }

    #[test]
    fn walk_reports_steps() {
        let (p, h) = build(
            "struct A { long x; } *a;\n\
             struct B { long x; long y; } *b;\n\
             struct C { long x; long y; long z; } *c;",
        );
        let tc = p
            .types
            .ptr_parts(p.globals[p.find_global("c").unwrap().idx()].ty)
            .unwrap()
            .0;
        let ta = p
            .types
            .ptr_parts(p.globals[p.find_global("a").unwrap().idx()].ty)
            .unwrap()
            .0;
        let nc = h.node_of(&p, tc).unwrap();
        let na = h.node_of(&p, ta).unwrap();
        let (ok, steps) = h.is_subtype_walk(nc, na);
        assert!(ok);
        assert_eq!(steps, 2, "C -> B -> A");
        assert_eq!(h.max_depth(), 3, "void -> A -> B -> C");
    }

    /// Pointee of the global pointer `name`.
    fn pointee(p: &Program, name: &str) -> TypeId {
        let g = p
            .find_global(name)
            .unwrap_or_else(|| panic!("global {name}"));
        p.types.ptr_parts(p.globals[g.idx()].ty).expect("pointer").0
    }

    /// The pairwise builder, quadratic in the number of pointer types:
    /// every pointer base against every representative, then every
    /// representative against every other. It states the definition
    /// directly, so the differential tests below use it as the oracle.
    fn build_quadratic(prog: &Program, phys: &mut PhysCtx) -> Hierarchy {
        let mut reps: Vec<TypeId> = Vec::new();
        for i in 0..prog.types.len() {
            if let Type::Ptr(base, _) = prog.types.get(TypeId(i as u32)) {
                if matches!(prog.types.get(*base), Type::Void | Type::Func(_)) {
                    continue;
                }
                let base = *base;
                if !reps
                    .iter()
                    .any(|r| prog.types.same_type(*r, base) || phys.phys_eq(*r, base))
                {
                    reps.push(base);
                }
            }
        }
        reps.sort_by_key(|t| (prog.types.size_of(*t).unwrap_or(0), t.0));
        let mut nodes = vec![HNode {
            ty: None,
            parent: None,
            pre: 0,
            post: 0,
            depth: 0,
        }];
        let mut parents: Vec<NodeId> = vec![VOID_NODE; reps.len()];
        for (i, t) in reps.iter().enumerate() {
            let mut best: Option<usize> = None;
            for (j, u) in reps.iter().enumerate() {
                if i == j || !phys.is_proper_subtype(*t, *u) {
                    continue;
                }
                best = match best {
                    None => Some(j),
                    Some(b) if phys.is_proper_subtype(*u, reps[b]) => Some(j),
                    other => other,
                };
            }
            if let Some(b) = best {
                parents[i] = (b + 1) as NodeId;
            }
        }
        for (i, t) in reps.iter().enumerate() {
            nodes.push(HNode {
                ty: Some(*t),
                parent: Some(parents[i]),
                pre: 0,
                post: 0,
                depth: 0,
            });
        }
        let mut h = Hierarchy { nodes };
        h.number();
        h
    }

    /// A unit lowered the way the cure pipeline sees it when it builds the
    /// hierarchy (prelude prepended, wrappers applied).
    fn lowered(w: &ccured_workloads::Workload) -> Program {
        let mut prog = w.program().expect("lower");
        crate::wrappers::apply_wrappers(&mut prog);
        prog
    }

    /// Asserts that the new builder reproduces the oracle exactly: the
    /// node table (type, parent, pre, post, depth) and `node_of` of every
    /// pointer base. Returns the oracle's exact comparisons.
    fn assert_matches_oracle(name: &str, prog: &Program) -> u64 {
        let new = Hierarchy::build(prog);
        let mut phys = PhysCtx::new(&prog.types);
        let old = build_quadratic(prog, &mut phys);
        assert_eq!(new.nodes, old.nodes, "{name}: node tables differ");
        let mut seen = std::collections::HashSet::new();
        for i in 0..prog.types.len() {
            if let Type::Ptr(base, _) = prog.types.get(TypeId(i as u32)) {
                if seen.insert(*base) {
                    assert_eq!(
                        new.node_of(prog, *base),
                        old.node_of(prog, *base),
                        "{name}: node_of({})",
                        prog.types.display(*base)
                    );
                }
            }
        }
        phys.comparisons()
    }

    fn matches_oracle_src(src: &str) -> (Program, Hierarchy) {
        let (p, h) = build(src);
        assert_matches_oracle("inline source", &p);
        (p, h)
    }

    /// Exact comparisons of one build: coinductive ones in `PhysCtx` plus
    /// the class-layout prefix tests of the parent search.
    fn exact_comparisons(prog: &Program) -> u64 {
        let mut phys = PhysCtx::new(&prog.types);
        let (_, tests) = Hierarchy::build_with(prog, &mut phys);
        phys.comparisons() + tests
    }

    #[test]
    fn matches_oracle_on_paper_corpora() {
        let mut units = ccured_workloads::suite_corpus();
        units.extend(ccured_workloads::apache::all_modules(4));
        units.extend(ccured_workloads::daemons::figure9_corpus());
        for w in &units {
            assert_matches_oracle(&w.name, &lowered(w));
        }
    }

    #[test]
    fn matches_oracle_on_deep_chains() {
        let mut oracle = Vec::new();
        for types in [24, 52, 100, 200] {
            let w = ccured_workloads::spec::ijpeg_oo(types, 2);
            oracle.push(assert_matches_oracle(
                &format!("ijpeg_oo({types})"),
                &lowered(&w),
            ));
        }
        // The guard below would catch the old builder coming back.
        assert!(
            oracle[3] as f64 > 2.5 * oracle[2] as f64,
            "oracle comparisons {oracle:?} do not grow quadratically"
        );
    }

    #[test]
    fn matches_oracle_on_synth_units() {
        for (k, profile) in ccured_synth::profiles::all().iter().enumerate() {
            for w in ccured_synth::generate(profile, 25, 7 + k as u64) {
                assert_matches_oracle(&w.name, &lowered(&w));
            }
        }
    }

    /// Random structs that extend, repack and point at each other
    /// (recursively too): many share prefixes, some fill an earlier
    /// struct's padding, some hold unions, nested structs or arrays
    /// (zero-length ones included).
    #[test]
    fn matches_oracle_on_random_struct_soups() {
        const FIELDS: [&str; 7] = ["char", "short", "int", "long", "double", "float", "char *"];
        for seed in 0..40u64 {
            let mut r = ccured_workloads::prng::SplitMix64::new(seed);
            let mut structs: Vec<Vec<String>> = Vec::new();
            let mut src = String::from("union U { int i; char c[4]; };\n");
            for s in 0..24usize {
                let mut fields: Vec<String> = match r.below(4) {
                    0 | 1 if s > 0 => structs[r.below(s as u64) as usize].clone(),
                    _ => Vec::new(),
                };
                // Insert into the middle (repacking padding) or append.
                for _ in 0..1 + r.below(3) {
                    let f = match r.below(10) {
                        // Any tag, earlier or later: recursive layouts.
                        0 => format!("struct S{} *", r.below(24)),
                        1 if s > 0 => format!("struct S{}", r.below(s as u64)),
                        2 => "union U".to_string(),
                        3 => format!("{}[{}]", r.pick(&FIELDS[..5]), r.below(4)),
                        _ => r.pick(&FIELDS).to_string(),
                    };
                    let at = r.below(fields.len() as u64 + 1) as usize;
                    fields.insert(at, f);
                }
                src.push_str(&format!("struct S{s} {{"));
                for (k, f) in fields.iter().enumerate() {
                    match f.split_once('[') {
                        Some((ty, n)) => src.push_str(&format!(" {ty} f{k}[{n};")),
                        None => src.push_str(&format!(" {f} f{k};")),
                    }
                }
                src.push_str(&format!(" }} *p{s};\n"));
                structs.push(fields);
            }
            src.push_str("char *pc; int *pi; long *pl; double *pd; union U *pu;\n");
            let tu = ccured_ast::parse_translation_unit(&src).expect("parse soup");
            let prog = ccured_cil::lower_translation_unit(&tu).expect("lower soup");
            assert_matches_oracle(&format!("soup {seed}"), &prog);
        }
    }

    #[test]
    fn build_is_near_linear_on_a_deep_chain() {
        let count =
            |types| exact_comparisons(&lowered(&ccured_workloads::spec::ijpeg_oo(types, 2)));
        let (c100, c200) = (count(100), count(200));
        assert!(c100 > 0);
        assert!(
            c200 as f64 <= 2.5 * c100 as f64,
            "exact comparisons grew from {c100} to {c200} when the chain doubled"
        );
    }

    #[test]
    fn unions_are_atoms_of_their_own_identity() {
        let (p, h) = matches_oracle_src(
            "union U { int i; char c[4]; } *u;\n\
             union V { int i; char c[4]; } *v;\n\
             struct S { union U u; int x; } *s;",
        );
        let (nu, nv, ns) = (
            h.node_of(&p, pointee(&p, "u")).unwrap(),
            h.node_of(&p, pointee(&p, "v")).unwrap(),
            h.node_of(&p, pointee(&p, "s")).unwrap(),
        );
        assert_ne!(nu, nv, "same layout, different unions");
        assert_eq!(h.parent(ns), Some(nu));
        assert_eq!(h.parent(nv), Some(VOID_NODE));
    }

    #[test]
    fn incomplete_structs_hang_off_the_root() {
        let (p, h) = matches_oracle_src(
            "struct Opaque *o; struct Opaque *o2; struct Other *q;\n\
             struct Full { int x; } *f; int *i;",
        );
        let (no, no2, nq) = (
            h.node_of(&p, pointee(&p, "o")).unwrap(),
            h.node_of(&p, pointee(&p, "o2")).unwrap(),
            h.node_of(&p, pointee(&p, "q")).unwrap(),
        );
        assert_eq!(no, no2, "one tag, one node");
        assert_ne!(no, nq, "no layout: only the same tag is equal");
        assert_eq!(h.parent(no), Some(VOID_NODE));
        assert_eq!(h.parent(nq), Some(VOID_NODE));
    }

    #[test]
    fn over_budget_layouts_hang_off_the_root() {
        let (p, h) = matches_oracle_src(
            "struct Big { int a[5000]; } *b;\n\
             struct Big2 { int a[5000]; int x; } *b2;\n\
             int *i;",
        );
        let (nb, nb2) = (
            h.node_of(&p, pointee(&p, "b")).unwrap(),
            h.node_of(&p, pointee(&p, "b2")).unwrap(),
        );
        assert_ne!(nb, nb2);
        assert_eq!(h.parent(nb), Some(VOID_NODE));
        assert_eq!(
            h.parent(nb2),
            Some(VOID_NODE),
            "prefix unknown past the budget"
        );
    }

    #[test]
    fn same_size_supertype_when_subtype_fills_its_padding() {
        // Figure is 16 bytes (ptr, int, 4 bytes of padding); Circle packs
        // radius into that padding, so both are 16 bytes.
        let (p, h) = matches_oracle_src(
            "struct Figure { void *vt; int tag; } *f;\n\
             struct Circle { void *vt; int tag; int radius; } *c;\n\
             struct Square { void *vt; int tag; int radius; int side; long area; } *s;",
        );
        let node = |n| h.node_of(&p, pointee(&p, n)).unwrap();
        assert_eq!(h.parent(node("c")), Some(node("f")));
        assert_eq!(h.parent(node("s")), Some(node("c")));
    }

    #[test]
    fn equal_atoms_order_by_size() {
        // A and B have the same single atom, but B's zero-length tail
        // rounds it up to 8 bytes: A is a prefix of B (and not the other
        // way round), and both are prefixes of T.
        let (p, h) = matches_oracle_src(
            "struct A { int a; } *a;\n\
             struct B { int a; long z[0]; } *b;\n\
             struct T { int a; int b; } *t;",
        );
        let node = |n| h.node_of(&p, pointee(&p, n)).unwrap();
        assert_eq!(h.parent(node("a")), Some(VOID_NODE));
        assert_eq!(h.parent(node("b")), Some(node("a")));
        assert_eq!(
            h.parent(node("t")),
            Some(node("b")),
            "the closer of two equally long"
        );
    }

    #[test]
    fn subtype_may_fill_a_supertype_hole() {
        // H has padding between c and x; F puts d there.
        let (p, h) = matches_oracle_src(
            "struct H { char c; int x; } *h;\n\
             struct F { char c; char d; int x; } *f;\n\
             struct G { char c; int x; long y; } *g;\n\
             char *pc;",
        );
        let node = |n| h.node_of(&p, pointee(&p, n)).unwrap();
        assert_eq!(h.parent(node("h")), Some(node("pc")));
        assert_eq!(h.parent(node("f")), Some(node("h")));
        assert_eq!(h.parent(node("g")), Some(node("h")));
    }
}
