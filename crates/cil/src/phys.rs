//! Physical type equality and physical subtyping (paper Section 3.1).
//!
//! Types are compared by their *flattened layout*: a sequence of scalar atoms
//! at byte offsets, with arrays expanded and nested aggregates inlined. This
//! realizes the paper's equational theory directly:
//!
//! * `t[1] ≍ t` and `t[n1+n2] ≍ struct{t[n1]; t[n2]}` — array expansion,
//! * `struct{t1; void} ≍ t1` and `void` as the empty aggregate,
//! * struct associativity — both sides flatten to the same atom stream,
//! * structure padding is accounted for: atoms carry their real offsets.
//!
//! **Equality** (`phys_eq`) requires equal total size and identical atoms at
//! identical offsets. **Prefix subtyping** (`is_prefix_of`) requires every
//! atom of the smaller type to match an identically-placed atom of the larger
//! type; padding in the smaller type is a "don't care" region (it is never
//! accessed through that view), which admits the real-world upcasts where the
//! subtype packs data into the supertype's trailing padding.
//!
//! Pointer atoms compare by *coinductive* physical equality of their pointee
//! types, so recursive structures (linked lists) compare correctly.
//!
//! The SEQ cast rule (`seq_cast_ok`) implements the paper's side condition
//! `t[n'] ≍ t'[n]` for the least `n·sizeof(t) = n'·sizeof(t')`.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::types::{CompId, FuncSig, QualId, Type, TypeId, TypeTable};
use std::rc::Rc;

/// Budget on flattened atoms per type; exceeding it makes comparisons
/// conservatively fail (never unsound: the cast is then treated as bad).
const ATOM_BUDGET: usize = 4096;

/// One scalar atom of a flattened layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Piece {
    /// An integer of the given byte size (sign-insensitive).
    Int(u64),
    /// A float of the given byte size.
    Float(u64),
    /// A pointer; compared by coinductive pointee equality.
    Ptr(TypeId, QualId),
    /// An opaque union; compared by identity.
    Union(CompId),
}

/// A [`Piece`] with the pointee dropped: what an atom looks like to a
/// comparison that has not yet looked behind pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlindPiece {
    /// An integer of the given byte size.
    Int(u64),
    /// A float of the given byte size.
    Float(u64),
    /// A pointer to anything.
    Ptr,
    /// The union with this identity.
    Union(CompId),
}

impl Piece {
    /// The atom with its pointee (if any) dropped.
    pub fn blind(&self) -> BlindPiece {
        match self {
            Piece::Int(s) => BlindPiece::Int(*s),
            Piece::Float(s) => BlindPiece::Float(*s),
            Piece::Ptr(..) => BlindPiece::Ptr,
            Piece::Union(c) => BlindPiece::Union(*c),
        }
    }

    /// Bytes the atom occupies.
    pub fn byte_size(&self, types: &TypeTable) -> u64 {
        match self {
            Piece::Int(s) | Piece::Float(s) => *s,
            Piece::Ptr(..) => types.machine.ptr_bytes,
            Piece::Union(c) => types.comp(*c).size,
        }
    }
}

/// A flattened layout: non-padding atoms at offsets, plus the total size.
///
/// Atoms are in offset order and never overlap: struct fields and array
/// elements are laid out one after another, and a union is one atom.
#[derive(Debug, Clone)]
pub struct AtomStream {
    atoms: Vec<(u64, Piece)>,
    size: u64,
}

impl AtomStream {
    /// The atoms, as `(byte offset, atom)` in offset order.
    pub fn atoms(&self) -> &[(u64, Piece)] {
        &self.atoms
    }

    /// Total size in bytes, trailing padding included.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// A pointee-blind summary of a type for bucketing: physically equal types
/// always have equal keys, so [`PhysCtx::phys_eq`] only needs to run
/// between types that share a key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayoutKey {
    /// Size plus each atom's offset and [`BlindPiece`].
    Flat(u64, Vec<(u64, BlindPiece)>),
    /// A function type: arity and varargs-ness.
    Func(usize, bool),
    /// No flattened layout (incomplete, unsized or over the atom budget):
    /// physically equal only to the structurally same type.
    Opaque,
}

/// How a pointer cast classifies under the extended CCured type system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastClass {
    /// Between physically equal pointee types; kinds unify.
    Identical,
    /// The target pointee is a physical prefix of the source pointee
    /// (statically safe for SAFE pointers).
    Upcast,
    /// The source pointee is a physical prefix of the target pointee
    /// (checkable at run time with RTTI).
    Downcast,
    /// Neither an upcast nor a downcast: forces WILD (unless trusted).
    Bad,
    /// Arithmetic-to-arithmetic conversion, no pointers involved.
    Scalar,
    /// An integer (possibly zero) cast to a pointer.
    IntToPtr,
    /// A pointer cast to an integer.
    PtrToInt,
}

/// What a flattened layout is memoized under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum StreamKey {
    Comp(CompId),
    Type(TypeId),
}

/// Physical-type comparison context with memoization.
///
/// Create one per analysis pass; memo tables make repeated queries cheap.
///
/// # Examples
///
/// ```
/// use ccured_cil::{lower_translation_unit, phys::PhysCtx};
///
/// let tu = ccured_ast::parse_translation_unit(
///     "struct A { int x; }; struct B { int x; int y; };
///      struct A *pa; struct B *pb;",
/// ).unwrap();
/// let prog = lower_translation_unit(&tu).unwrap();
/// let a = prog.globals[0].ty;
/// let b = prog.globals[1].ty;
/// let mut ctx = PhysCtx::new(&prog.types);
/// let (pa, _) = prog.types.ptr_parts(a).unwrap();
/// let (pb, _) = prog.types.ptr_parts(b).unwrap();
/// assert!(ctx.is_prefix_of(pa, pb), "A is a prefix of B");
/// assert!(!ctx.is_prefix_of(pb, pa));
/// ```
pub struct PhysCtx<'a> {
    types: &'a TypeTable,
    eq_memo: FxHashMap<(TypeId, TypeId), bool>,
    /// `true` results cached while a coinductive hypothesis was open; a
    /// hypothesis that fails retracts every entry logged after it.
    eq_log: Vec<(TypeId, TypeId)>,
    /// Hypotheses currently open (nesting depth of uncached `phys_eq`).
    open: usize,
    stream_memo: FxHashMap<StreamKey, Option<Rc<AtomStream>>>,
    quals_memo: FxHashMap<TypeId, Rc<Vec<QualId>>>,
    comparisons: u64,
}

impl<'a> PhysCtx<'a> {
    /// Creates a comparison context over a type table.
    pub fn new(types: &'a TypeTable) -> Self {
        PhysCtx {
            types,
            eq_memo: FxHashMap::default(),
            eq_log: Vec::new(),
            open: 0,
            stream_memo: FxHashMap::default(),
            quals_memo: FxHashMap::default(),
            comparisons: 0,
        }
    }

    /// Exact structural comparisons made so far: physical-equality checks
    /// that missed the memo, plus prefix walks. A work measure that does
    /// not depend on the wall clock.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// The flattened layout of `t` (cached and shared), or `None` when `t`
    /// has none: incomplete, unsized, a function, or over the atom budget.
    pub fn stream(&mut self, t: TypeId) -> Option<Rc<AtomStream>> {
        // Every use of a struct tag is a type of its own, all with the
        // tag's layout: flatten it once.
        let key = match self.types.get(t) {
            Type::Comp(c) => StreamKey::Comp(*c),
            _ => StreamKey::Type(t),
        };
        if let Some(s) = self.stream_memo.get(&key) {
            return s.clone();
        }
        let mut atoms = Vec::new();
        let size = self.flatten(t, 0, &mut atoms);
        let result = size.map(|size| Rc::new(AtomStream { atoms, size }));
        self.stream_memo.insert(key, result.clone());
        result
    }

    /// The bucketing key of `t`: `phys_eq(a, b)` implies
    /// `layout_key(a) == layout_key(b)`.
    pub fn layout_key(&mut self, t: TypeId) -> LayoutKey {
        if let Type::Func(sig) = self.types.get(t) {
            return LayoutKey::Func(sig.params.len(), sig.varargs);
        }
        match self.stream(t) {
            Some(s) => LayoutKey::Flat(
                s.size,
                s.atoms.iter().map(|(o, p)| (*o, p.blind())).collect(),
            ),
            None => LayoutKey::Opaque,
        }
    }

    /// Appends the atoms of `t` at base offset `off`; returns `t`'s size.
    fn flatten(&self, t: TypeId, off: u64, out: &mut Vec<(u64, Piece)>) -> Option<u64> {
        if out.len() > ATOM_BUDGET {
            return None;
        }
        match self.types.get(t) {
            Type::Void => Some(0),
            Type::Int(k) => {
                let s = self.types.machine.int_size(*k);
                out.push((off, Piece::Int(s)));
                Some(s)
            }
            Type::Float(k) => {
                let s = self.types.machine.float_size(*k);
                out.push((off, Piece::Float(s)));
                Some(s)
            }
            Type::Ptr(base, q) => {
                out.push((off, Piece::Ptr(*base, *q)));
                Some(self.types.machine.ptr_bytes)
            }
            Type::Array(elem, Some(n)) => {
                let es = self.types.size_of(*elem).ok()?;
                let mut cur = off;
                for _ in 0..*n {
                    if out.len() > ATOM_BUDGET {
                        return None;
                    }
                    self.flatten(*elem, cur, out)?;
                    cur += es;
                }
                Some(es * n)
            }
            Type::Array(_, None) => None,
            Type::Comp(cid) => {
                let info = self.types.comp(*cid);
                if !info.defined {
                    return None;
                }
                if info.is_union {
                    out.push((off, Piece::Union(*cid)));
                    return Some(info.size);
                }
                for f in &info.fields {
                    self.flatten(f.ty, off + f.offset, out)?;
                }
                Some(info.size)
            }
            Type::Func(_) => None,
        }
    }

    /// Physical type equality `a ≍ b` (paper Section 3.1).
    ///
    /// Coinductive: while `(a, b)` is being compared it is assumed equal,
    /// so recursive structures terminate. A `true` that rests on an open
    /// assumption is only provisional; when an assumption turns out false,
    /// every `true` cached since it was made is retracted. So every cached
    /// answer is final and the result never depends on query order.
    pub fn phys_eq(&mut self, a: TypeId, b: TypeId) -> bool {
        if self.types.same_type(a, b) {
            return true;
        }
        // Function types compare structurally (they only occur behind
        // pointers and have no layout).
        let types = self.types;
        if let (Type::Func(fa), Type::Func(fb)) = (types.get(a), types.get(b)) {
            return self.func_eq(fa, fb);
        }
        let key = (a.min(b), a.max(b));
        if let Some(&r) = self.eq_memo.get(&key) {
            return r;
        }
        self.comparisons += 1;
        let mark = self.eq_log.len();
        self.eq_memo.insert(key, true);
        self.open += 1;
        let result = self.phys_eq_uncached(a, b);
        self.open -= 1;
        if result {
            self.eq_log.push(key);
        } else {
            for k in self.eq_log.drain(mark..) {
                self.eq_memo.remove(&k);
            }
            self.eq_memo.insert(key, false);
        }
        if self.open == 0 {
            // Every assumption is discharged: the logged results are final.
            self.eq_log.clear();
        }
        result
    }

    fn func_eq(&mut self, fa: &FuncSig, fb: &FuncSig) -> bool {
        fa.varargs == fb.varargs
            && fa.params.len() == fb.params.len()
            && self.phys_eq(fa.ret, fb.ret)
            && fa
                .params
                .iter()
                .zip(&fb.params)
                .all(|(p, q)| self.phys_eq(*p, *q))
    }

    fn phys_eq_uncached(&mut self, a: TypeId, b: TypeId) -> bool {
        let (sa, sb) = match (self.stream(a), self.stream(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if sa.size != sb.size || sa.atoms.len() != sb.atoms.len() {
            return false;
        }
        for ((oa, pa), (ob, pb)) in sa.atoms.iter().zip(sb.atoms.iter()) {
            if oa != ob || !self.piece_eq(pa, pb) {
                return false;
            }
        }
        true
    }

    fn piece_eq(&mut self, a: &Piece, b: &Piece) -> bool {
        match (a, b) {
            (Piece::Int(x), Piece::Int(y)) => x == y,
            (Piece::Float(x), Piece::Float(y)) => x == y,
            (Piece::Union(x), Piece::Union(y)) => x == y,
            (Piece::Ptr(x, _), Piece::Ptr(y, _)) => self.phys_eq(*x, *y),
            _ => false,
        }
    }

    /// Physical prefix: every atom of `sup` matches an identically placed
    /// atom of `sub` (so a `sub` object can be viewed as a `sup`).
    ///
    /// `void` is the empty aggregate, so `is_prefix_of(void, t)` holds for
    /// every `t` — any pointer can be upcast to `void*`.
    pub fn is_prefix_of(&mut self, sup: TypeId, sub: TypeId) -> bool {
        if self.phys_eq(sup, sub) {
            return true;
        }
        // Function "prefixes" make no sense.
        if matches!(self.types.get(sup), Type::Func(_))
            || matches!(self.types.get(sub), Type::Func(_))
        {
            return false;
        }
        let (ssup, ssub) = match (self.stream(sup), self.stream(sub)) {
            (Some(x), Some(y)) => (x, y),
            _ => return false,
        };
        if ssup.size > ssub.size {
            return false;
        }
        self.comparisons += 1;
        // Two-pointer walk: each sup atom must find its twin in sub.
        let mut j = 0;
        for (oa, pa) in &ssup.atoms {
            while j < ssub.atoms.len() && ssub.atoms[j].0 < *oa {
                j += 1;
            }
            if j >= ssub.atoms.len() || ssub.atoms[j].0 != *oa {
                return false;
            }
            if !self.piece_eq(pa, &ssub.atoms[j].1) {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Whether `sub` strictly extends `sup` (a proper subtype).
    pub fn is_proper_subtype(&mut self, sub: TypeId, sup: TypeId) -> bool {
        self.is_prefix_of(sup, sub) && !self.phys_eq(sup, sub)
    }

    /// The paper's SEQ-cast side condition: with the least `n, n'` such that
    /// `n·sizeof(from) = n'·sizeof(to)`, require `from[n'] ≍ to[n]` — i.e.
    /// the two element types tile memory identically.
    pub fn seq_cast_ok(&mut self, from: TypeId, to: TypeId) -> bool {
        if self.phys_eq(from, to) {
            return true;
        }
        // `void` is the empty aggregate: nothing can be accessed at type
        // `void`, so the tiling side condition is vacuous. A later cast to a
        // concrete type is a downcast and re-checks.
        if matches!(self.types.get(from), Type::Void) || matches!(self.types.get(to), Type::Void) {
            return true;
        }
        let (sf, st) = match (self.types.size_of(from), self.types.size_of(to)) {
            (Ok(a), Ok(b)) if a > 0 && b > 0 => (a, b),
            _ => return false,
        };
        let l = lcm(sf, st);
        let reps_from = (l / sf) as usize;
        let reps_to = (l / st) as usize;
        if reps_from.max(reps_to) > ATOM_BUDGET {
            return false;
        }
        let (mut fa, mut ta) = (Vec::new(), Vec::new());
        let mut off = 0;
        for _ in 0..reps_from {
            if self.flatten(from, off, &mut fa).is_none() {
                return false;
            }
            off += sf;
        }
        off = 0;
        for _ in 0..reps_to {
            if self.flatten(to, off, &mut ta).is_none() {
                return false;
            }
            off += st;
        }
        if fa.len() != ta.len() {
            return false;
        }
        for ((oa, pa), (ob, pb)) in fa.iter().zip(&ta) {
            if oa != ob || !self.piece_eq(pa, pb) {
                return false;
            }
        }
        true
    }

    /// Classifies a cast between two types (paper Section 3).
    ///
    /// `from`/`to` are the full cast types (often pointers). Integer-to-
    /// pointer nullness is the caller's concern ([`CastClass::IntToPtr`] is
    /// returned regardless of the operand value).
    pub fn classify_cast(&mut self, from: TypeId, to: TypeId) -> CastClass {
        let fp = self.types.ptr_parts(from);
        let tp = self.types.ptr_parts(to);
        match (fp, tp) {
            (Some((fb, _)), Some((tb, _))) => {
                if self.phys_eq(fb, tb) {
                    CastClass::Identical
                } else if self.is_prefix_of(tb, fb) {
                    CastClass::Upcast
                } else if self.is_prefix_of(fb, tb) {
                    CastClass::Downcast
                } else {
                    CastClass::Bad
                }
            }
            (Some(_), None) => CastClass::PtrToInt,
            (None, Some(_)) => CastClass::IntToPtr,
            (None, None) => CastClass::Scalar,
        }
    }

    /// Collects the qualifier-variable pairs that must unify when two
    /// physically equal types alias (deep, through pointers and functions).
    ///
    /// Returns `None` if the types are not physically equal.
    pub fn eq_qual_pairs(&mut self, a: TypeId, b: TypeId) -> Option<Vec<(QualId, QualId)>> {
        if !self.phys_eq(a, b) {
            return None;
        }
        // Scalars hold no pointers (the common case: most assignments).
        if matches!(self.types.get(a), Type::Int(_) | Type::Float(_)) {
            return Some(Vec::new());
        }
        let mut pairs = Vec::new();
        let mut seen = FxHashSet::default();
        self.collect_pairs(a, b, &mut pairs, &mut seen);
        Some(pairs)
    }

    /// Collects qualifier pairs for the overlapping prefix of an upcast from
    /// `sub` to `sup`. Returns `None` if `sup` is not a prefix of `sub`.
    pub fn prefix_qual_pairs(&mut self, sup: TypeId, sub: TypeId) -> Option<Vec<(QualId, QualId)>> {
        if !self.is_prefix_of(sup, sub) {
            return None;
        }
        let ssup = self.stream(sup)?;
        let ssub = self.stream(sub)?;
        let mut pairs = Vec::new();
        let mut seen = FxHashSet::default();
        let mut j = 0;
        for (oa, pa) in &ssup.atoms {
            while j < ssub.atoms.len() && ssub.atoms[j].0 < *oa {
                j += 1;
            }
            if j >= ssub.atoms.len() {
                break;
            }
            if let (Piece::Ptr(ba, qa), Piece::Ptr(bb, qb)) = (pa, &ssub.atoms[j].1) {
                pairs.push((*qa, *qb));
                let (ba, bb) = (*ba, *bb);
                self.collect_pairs(ba, bb, &mut pairs, &mut seen);
            }
            j += 1;
        }
        Some(pairs)
    }

    fn collect_pairs(
        &mut self,
        a: TypeId,
        b: TypeId,
        pairs: &mut Vec<(QualId, QualId)>,
        seen: &mut FxHashSet<(TypeId, TypeId)>,
    ) {
        if !seen.insert((a, b)) {
            return;
        }
        let types = self.types;
        if let (Type::Func(fa), Type::Func(fb)) = (types.get(a), types.get(b)) {
            self.collect_pairs(fa.ret, fb.ret, pairs, seen);
            for (p, q) in fa.params.iter().zip(fb.params.iter()) {
                self.collect_pairs(*p, *q, pairs, seen);
            }
            return;
        }
        let (sa, sb) = match (self.stream(a), self.stream(b)) {
            (Some(x), Some(y)) => (x, y),
            _ => return,
        };
        for ((_, pa), (_, pb)) in sa.atoms.iter().zip(sb.atoms.iter()) {
            if let (Piece::Ptr(ba, qa), Piece::Ptr(bb, qb)) = (pa, pb) {
                pairs.push((*qa, *qb));
                let (ba, bb) = (*ba, *bb);
                self.collect_pairs(ba, bb, pairs, seen);
            }
        }
    }

    /// All qualifier variables occurring anywhere inside `t` (used for WILD
    /// poisoning: a WILD type contaminates its whole base type). Memoized —
    /// the SPLIT and WILD fixpoints query the same types repeatedly.
    pub fn quals_in_type(&mut self, t: TypeId) -> Rc<Vec<QualId>> {
        if let Some(q) = self.quals_memo.get(&t) {
            return q.clone();
        }
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        self.quals_rec(t, &mut out, &mut seen);
        let rc = Rc::new(out);
        self.quals_memo.insert(t, rc.clone());
        rc
    }

    fn quals_rec(&mut self, t: TypeId, out: &mut Vec<QualId>, seen: &mut FxHashSet<TypeId>) {
        if !seen.insert(t) {
            return;
        }
        match self.types.get(t).clone() {
            Type::Ptr(base, q) => {
                out.push(q);
                self.quals_rec(base, out, seen);
            }
            Type::Array(elem, _) => self.quals_rec(elem, out, seen),
            Type::Comp(cid) => {
                let fields: Vec<TypeId> =
                    self.types.comp(cid).fields.iter().map(|f| f.ty).collect();
                for f in fields {
                    self.quals_rec(f, out, seen);
                }
            }
            Type::Func(sig) => {
                self.quals_rec(sig.ret, out, seen);
                for p in sig.params {
                    self.quals_rec(p, out, seen);
                }
            }
            _ => {}
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Program;
    use crate::lower::lower_translation_unit;

    fn prog(src: &str) -> Program {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        lower_translation_unit(&tu).expect("lower")
    }

    /// Pointee type of the global named `name`.
    fn pointee(p: &Program, name: &str) -> TypeId {
        let g = p
            .find_global(name)
            .unwrap_or_else(|| panic!("global {name}"));
        let ty = p.globals[g.idx()].ty;
        p.types.ptr_parts(ty).expect("pointer global").0
    }

    #[test]
    fn identical_scalars_are_equal() {
        let p = prog("int *a; int *b; char *c;");
        let mut ctx = PhysCtx::new(&p.types);
        let (ta, tb, tc) = (pointee(&p, "a"), pointee(&p, "b"), pointee(&p, "c"));
        assert!(ctx.phys_eq(ta, tb));
        assert!(!ctx.phys_eq(ta, tc));
    }

    #[test]
    fn signedness_is_layout_irrelevant() {
        let p = prog("int *a; unsigned int *b;");
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
    }

    #[test]
    fn struct_assoc_rule() {
        let p = prog(
            "struct I { int a; int b; };\n\
             struct L { struct I i; int c; } *x;\n\
             struct R { int a; struct J { int b; int c; } j; } *y;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.phys_eq(pointee(&p, "x"), pointee(&p, "y")));
    }

    #[test]
    fn unit_array_rule() {
        let p = prog("int (*a)[1]; int *b;");
        // a: pointer to int[1]; b: pointer to int. int[1] ≍ int.
        let pa = pointee(&p, "a");
        let pb = pointee(&p, "b");
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.phys_eq(pa, pb));
    }

    #[test]
    fn array_split_rule() {
        let p = prog(
            "int (*a)[4];\n\
             struct S { int x[2]; int y[2]; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
    }

    #[test]
    fn void_is_empty_and_universal_super() {
        let p = prog("void *v; int *i; struct S { int a; double b; } *s;");
        let mut ctx = PhysCtx::new(&p.types);
        let (tv, ti, ts) = (pointee(&p, "v"), pointee(&p, "i"), pointee(&p, "s"));
        assert!(ctx.is_prefix_of(tv, ti), "void prefix of int");
        assert!(ctx.is_prefix_of(tv, ts), "void prefix of struct");
        assert!(!ctx.phys_eq(tv, ti));
        assert!(!ctx.is_prefix_of(ti, tv), "int not prefix of void");
    }

    #[test]
    fn figure_circle_subtyping() {
        let p = prog(
            "struct Figure { double (*area)(struct Figure *obj); } *f;\n\
             struct Circle { double (*area)(struct Figure *obj); int radius; } *c;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        let (tf, tc) = (pointee(&p, "f"), pointee(&p, "c"));
        assert!(ctx.is_prefix_of(tf, tc), "Figure is a prefix of Circle");
        assert!(!ctx.is_prefix_of(tc, tf));
        assert!(ctx.is_proper_subtype(tc, tf));
        assert!(!ctx.is_proper_subtype(tf, tc));
    }

    #[test]
    fn prefix_tolerates_supertype_trailing_padding() {
        // Figure: ptr + int + (4 bytes trailing pad). Circle packs radius
        // into that padding; upcast must still be accepted.
        let p = prog(
            "struct Figure { void *vt; int tag; } *f;\n\
             struct Circle { void *vt; int tag; int radius; } *c;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.is_prefix_of(pointee(&p, "f"), pointee(&p, "c")));
    }

    #[test]
    fn mismatched_pointer_atoms_fail() {
        // A function pointer where the other has an int: unsound cast.
        let p = prog(
            "struct A { void (*f)(void); } *a;\n\
             struct B { long x; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(!ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
        assert!(!ctx.is_prefix_of(pointee(&p, "a"), pointee(&p, "b")));
        // But an int where the other has an int-sized int is fine.
    }

    #[test]
    fn recursive_types_compare_coinductively() {
        let p = prog(
            "struct L1 { int v; struct L1 *next; } *a;\n\
             struct L2 { int v; struct L2 *next; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
    }

    #[test]
    fn mutually_recursive_vs_plain_differ() {
        let p = prog(
            "struct L { int v; struct L *next; } *a;\n\
             struct M { int v; int *next; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        // L's next points to {int, ptr}, M's to int: not equal.
        assert!(!ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
    }

    #[test]
    fn classify_cast_cases() {
        let p = prog(
            "struct Figure { void *vt; } *f;\n\
             struct Circle { void *vt; int radius; } *c;\n\
             int *i; long n; double *d;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        let gty = |name: &str| {
            let g = p.find_global(name).unwrap();
            p.globals[g.idx()].ty
        };
        assert_eq!(ctx.classify_cast(gty("c"), gty("f")), CastClass::Upcast);
        assert_eq!(ctx.classify_cast(gty("f"), gty("c")), CastClass::Downcast);
        assert_eq!(ctx.classify_cast(gty("i"), gty("d")), CastClass::Bad);
        assert_eq!(ctx.classify_cast(gty("n"), gty("i")), CastClass::IntToPtr);
        assert_eq!(ctx.classify_cast(gty("i"), gty("n")), CastClass::PtrToInt);
        assert_eq!(ctx.classify_cast(gty("n"), gty("n")), CastClass::Scalar);
        assert_eq!(ctx.classify_cast(gty("i"), gty("i")), CastClass::Identical);
    }

    #[test]
    fn seq_cast_multidim_arrays() {
        // Casting int(*)[2] SEQ to int* SEQ: sizes 8 vs 4, lcm 8:
        // (int[2])[1] vs int[2] — equal tiling.
        let p = prog("int (*a)[2]; int *b;");
        let mut ctx = PhysCtx::new(&p.types);
        let (ta, tb) = (pointee(&p, "a"), pointee(&p, "b"));
        assert!(ctx.seq_cast_ok(ta, tb));
        assert!(ctx.seq_cast_ok(tb, ta));
    }

    #[test]
    fn seq_cast_incompatible_tiling() {
        // struct{double} tiles 8 bytes as F64; long tiles as I64: mismatch.
        let p = prog("double *d; long *l;");
        let mut ctx = PhysCtx::new(&p.types);
        assert!(!ctx.seq_cast_ok(pointee(&p, "d"), pointee(&p, "l")));
    }

    #[test]
    fn seq_cast_struct_vs_scalar_tiling() {
        // struct{int;int} (8 bytes) vs int (4 bytes): lcm 8 — int[2] vs S[1]
        // tile identically.
        let p = prog("struct S { int a; int b; } *s; int *i;");
        let mut ctx = PhysCtx::new(&p.types);
        assert!(ctx.seq_cast_ok(pointee(&p, "s"), pointee(&p, "i")));
    }

    #[test]
    fn seq_cast_unsound_circle_figure() {
        // The paper's example: Circle* SEQ to Figure* SEQ is unsound because
        // (Figure SEQ + 1) would alias Circle's radius as a function pointer.
        let p = prog(
            "struct Figure { double (*area)(struct Figure *obj); } *f;\n\
             struct Circle { double (*area)(struct Figure *obj); long radius; } *c;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(!ctx.seq_cast_ok(pointee(&p, "c"), pointee(&p, "f")));
    }

    #[test]
    fn unions_compare_by_identity() {
        let p = prog(
            "union U1 { int i; char c[4]; } *a;\n\
             union U2 { int i; char c[4]; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        assert!(
            !ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")),
            "distinct unions are opaque"
        );
        assert!(ctx.phys_eq(pointee(&p, "a"), pointee(&p, "a")));
    }

    #[test]
    fn eq_qual_pairs_are_collected() {
        let p = prog("int **a; int **b;");
        let mut ctx = PhysCtx::new(&p.types);
        let (ta, tb) = (pointee(&p, "a"), pointee(&p, "b"));
        let pairs = ctx.eq_qual_pairs(ta, tb).expect("equal");
        assert_eq!(pairs.len(), 1, "one nested pointer pair");
    }

    #[test]
    fn prefix_qual_pairs_cover_common_prefix() {
        let p = prog(
            "struct A { char *s; } *a;\n\
             struct B { char *s; int extra; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        let pairs = ctx
            .prefix_qual_pairs(pointee(&p, "a"), pointee(&p, "b"))
            .expect("prefix");
        assert_eq!(pairs.len(), 1);
    }

    #[test]
    fn quals_in_type_walks_deep() {
        let p = prog("struct S { int *p; char **q; } *s;");
        let mut ctx = PhysCtx::new(&p.types);
        let g = p.find_global("s").unwrap();
        let quals = ctx.quals_in_type(p.globals[g.idx()].ty);
        // s's own qual + p + q (outer) + q (inner) = 4.
        assert_eq!(quals.len(), 4);
    }

    #[test]
    fn function_pointer_compatibility() {
        let p = prog(
            "int (*f)(int, char *);\n\
             int (*g)(int, char *);\n\
             int (*h)(long);",
        );
        let mut ctx = PhysCtx::new(&p.types);
        let (tf, tg, th) = (pointee(&p, "f"), pointee(&p, "g"), pointee(&p, "h"));
        assert!(ctx.phys_eq(tf, tg));
        assert!(!ctx.phys_eq(tf, th));
    }

    #[test]
    fn huge_array_fast_path() {
        let p = prog("int (*a)[1000000]; int (*b)[1000000];");
        let mut ctx = PhysCtx::new(&p.types);
        // Identical via the structural fast path despite the atom budget.
        assert!(ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
    }

    /// Pointee of the pointer field `field` of `struct tag`.
    fn field_pointee(p: &Program, tag: &str, field: &str) -> TypeId {
        let c = p.types.find_comp(tag, false).expect("struct");
        let f = &p.types.comp(c).fields[p.types.field_index(c, field).expect("field")];
        p.types.ptr_parts(f.ty).expect("pointer field").0
    }

    /// A and C differ only in `x`, so B and D (which point to them) differ
    /// too. Comparing A with C first assumes B ≍ D on the way; the failed
    /// assumption must not leave that `true` behind.
    #[test]
    fn failed_hypothesis_retracts_provisional_results() {
        let p = prog(
            "struct A { struct B *p; int x; };\n\
             struct C { struct D *p; float x; };\n\
             struct B { struct A *q; };\n\
             struct D { struct C *q; };",
        );
        let (a, c) = (field_pointee(&p, "B", "q"), field_pointee(&p, "D", "q"));
        let (b, d) = (field_pointee(&p, "A", "p"), field_pointee(&p, "C", "p"));
        for first_ac in [true, false] {
            let mut ctx = PhysCtx::new(&p.types);
            if first_ac {
                assert!(!ctx.phys_eq(a, c));
                assert!(!ctx.phys_eq(b, d), "B ≍ D survived a failed A ≍ C");
            } else {
                assert!(!ctx.phys_eq(b, d));
                assert!(!ctx.phys_eq(a, c));
            }
            assert!(!ctx.is_prefix_of(b, d) && !ctx.is_prefix_of(d, b));
            assert!(ctx.phys_eq(a, a) && ctx.phys_eq(b, b));
        }
    }

    #[test]
    fn confirmed_hypotheses_stay_cached() {
        let p = prog(
            "struct L1 { int v; struct L1 *next; } *a;\n\
             struct L2 { int v; struct L2 *next; } *b;",
        );
        let mut ctx = PhysCtx::new(&p.types);
        let (ta, tb) = (pointee(&p, "a"), pointee(&p, "b"));
        assert!(ctx.phys_eq(ta, tb));
        let made = ctx.comparisons();
        assert!(ctx.phys_eq(tb, ta));
        assert_eq!(ctx.comparisons(), made, "answered from the memo");
    }

    #[test]
    fn equal_types_share_a_layout_key() {
        let p = prog(
            "struct L1 { int v; struct L1 *next; } *a;\n\
             struct L2 { int v; struct L2 *next; } *b;\n\
             struct M { int v; int *next; } *c;\n\
             struct N { int v; double d; } *d;\n\
             struct Opaque *o;\n\
             int (*f)(int, char *);\n\
             int (*g)(int, char *);",
        );
        let mut ctx = PhysCtx::new(&p.types);
        let key = |ctx: &mut PhysCtx, n: &str| ctx.layout_key(pointee(&p, n));
        assert_eq!(key(&mut ctx, "a"), key(&mut ctx, "b"));
        // Pointee-blind: M differs from L1 only behind its pointer.
        assert_eq!(key(&mut ctx, "a"), key(&mut ctx, "c"));
        assert!(!ctx.phys_eq(pointee(&p, "a"), pointee(&p, "c")));
        assert_ne!(key(&mut ctx, "a"), key(&mut ctx, "d"));
        assert_eq!(key(&mut ctx, "o"), LayoutKey::Opaque);
        assert_eq!(key(&mut ctx, "f"), LayoutKey::Func(2, false));
        assert_eq!(key(&mut ctx, "f"), key(&mut ctx, "g"));
    }

    #[test]
    fn streams_are_shared_not_copied() {
        let p = prog("struct S { int a[64]; } *s;");
        let mut ctx = PhysCtx::new(&p.types);
        let t = pointee(&p, "s");
        let first = ctx.stream(t).expect("layout");
        let again = ctx.stream(t).expect("layout");
        assert!(Rc::ptr_eq(&first, &again));
        assert_eq!(first.atoms().len(), 64);
        assert_eq!(first.size(), 256);
    }

    #[test]
    fn budget_exhaustion_is_conservative() {
        let p = prog("int (*a)[100000]; long (*b)[50000];");
        let mut ctx = PhysCtx::new(&p.types);
        assert!(!ctx.phys_eq(pointee(&p, "a"), pointee(&p, "b")));
    }
}
