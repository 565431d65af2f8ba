//! Type table, qualifier variables, and the C layout engine.
//!
//! Types are stored in an append-only arena indexed by [`TypeId`]. Pointer
//! types are **not** structurally interned: each syntactic occurrence of a
//! pointer type carries its own [`QualId`] qualifier variable, as required by
//! the CCured whole-program inference (one variable per `*` occurrence, per
//! variable address, and per field address — Section 2.1 of the paper).

use std::fmt;
use std::fmt::Write as _;

/// Index of a type in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

/// A pointer-kind qualifier variable (one per pointer-type occurrence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QualId(pub u32);

/// Index of a struct/union in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub u32);

/// Integer kinds of the target machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum IntKind {
    /// Plain `char` (signed on this target).
    Char,
    SChar,
    UChar,
    Short,
    UShort,
    Int,
    UInt,
    Long,
    ULong,
    LongLong,
    ULongLong,
}

impl IntKind {
    /// The kind's spelling in the cured text and in diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            IntKind::Char => "char",
            IntKind::SChar => "schar",
            IntKind::UChar => "uchar",
            IntKind::Short => "short",
            IntKind::UShort => "ushort",
            IntKind::Int => "int",
            IntKind::UInt => "uint",
            IntKind::Long => "long",
            IntKind::ULong => "ulong",
            IntKind::LongLong => "longlong",
            IntKind::ULongLong => "ulonglong",
        }
    }

    /// Whether values of this kind are signed.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            IntKind::Char
                | IntKind::SChar
                | IntKind::Short
                | IntKind::Int
                | IntKind::Long
                | IntKind::LongLong
        )
    }
}

/// Floating-point kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FloatKind {
    Float,
    Double,
}

/// A function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncSig {
    /// Return type.
    pub ret: TypeId,
    /// Parameter types, in order.
    pub params: Vec<TypeId>,
    /// Whether the function is variadic.
    pub varargs: bool,
}

/// A type term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// `void`
    Void,
    /// An integer type.
    Int(IntKind),
    /// A floating-point type.
    Float(FloatKind),
    /// A pointer with its qualifier variable.
    Ptr(TypeId, QualId),
    /// An array; `None` length for incomplete arrays (externs, params).
    Array(TypeId, Option<u64>),
    /// A struct or union.
    Comp(CompId),
    /// A function type (only behind pointers or as function-decl types).
    Func(FuncSig),
}

/// A field of a struct/union.
#[derive(Debug, Clone)]
pub struct FieldInfo {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: TypeId,
    /// Byte offset within the aggregate (0 for union members).
    pub offset: u64,
    /// Qualifier variable for the field's address (`&s.f`).
    pub addr_qual: QualId,
}

/// A struct or union definition.
#[derive(Debug, Clone)]
pub struct CompInfo {
    /// Tag name (generated for anonymous aggregates).
    pub name: String,
    /// True for unions.
    pub is_union: bool,
    /// Fields in declaration order (offsets filled in when defined).
    pub fields: Vec<FieldInfo>,
    /// Whether the definition has been seen (vs. a forward reference).
    pub defined: bool,
    /// Total size in bytes (with padding); 0 until defined.
    pub size: u64,
    /// Alignment in bytes; 1 until defined.
    pub align: u64,
}

/// Target machine data layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Size of `short` in bytes.
    pub short_bytes: u64,
    /// Size of `int` in bytes.
    pub int_bytes: u64,
    /// Size of `long` in bytes.
    pub long_bytes: u64,
    /// Size of `long long` in bytes.
    pub long_long_bytes: u64,
    /// Size of pointers (the machine word) in bytes.
    pub ptr_bytes: u64,
}

impl Default for Machine {
    fn default() -> Self {
        // LP64, the layout assumed throughout the benches. The paper's
        // appendix uses a 4-byte word; the checks are parametric in this.
        Machine {
            short_bytes: 2,
            int_bytes: 4,
            long_bytes: 8,
            long_long_bytes: 8,
            ptr_bytes: 8,
        }
    }
}

impl Machine {
    /// Byte size of an integer kind.
    pub fn int_size(&self, k: IntKind) -> u64 {
        match k {
            IntKind::Char | IntKind::SChar | IntKind::UChar => 1,
            IntKind::Short | IntKind::UShort => self.short_bytes,
            IntKind::Int | IntKind::UInt => self.int_bytes,
            IntKind::Long | IntKind::ULong => self.long_bytes,
            IntKind::LongLong | IntKind::ULongLong => self.long_long_bytes,
        }
    }

    /// Byte size of a float kind.
    pub fn float_size(&self, k: FloatKind) -> u64 {
        match k {
            FloatKind::Float => 4,
            FloatKind::Double => 8,
        }
    }
}

/// Errors produced by layout queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayoutError {
    /// Size of `void` or a function type was requested.
    Unsized(TypeId),
    /// Size of an incomplete array or undefined struct was requested.
    Incomplete(TypeId),
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Unsized(t) => write!(f, "type #{} has no size", t.0),
            LayoutError::Incomplete(t) => write!(f, "type #{} is incomplete", t.0),
        }
    }
}

impl std::error::Error for LayoutError {}

/// The arena of types, aggregates and qualifier variables for one program.
#[derive(Debug, Clone)]
pub struct TypeTable {
    types: Vec<Type>,
    comps: Vec<CompInfo>,
    next_qual: u32,
    /// Target layout parameters.
    pub machine: Machine,
}

impl Default for TypeTable {
    fn default() -> Self {
        Self::new(Machine::default())
    }
}

impl TypeTable {
    /// Creates an empty table for the given target machine.
    pub fn new(machine: Machine) -> Self {
        TypeTable {
            types: Vec::new(),
            comps: Vec::new(),
            next_qual: 0,
            machine,
        }
    }

    /// Number of types allocated.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether no types have been allocated.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Number of qualifier variables allocated.
    pub fn qual_count(&self) -> u32 {
        self.next_qual
    }

    /// Allocates a fresh qualifier variable.
    pub fn fresh_qual(&mut self) -> QualId {
        let q = QualId(self.next_qual);
        self.next_qual += 1;
        q
    }

    /// The type term for `id`.
    pub fn get(&self, id: TypeId) -> &Type {
        &self.types[id.0 as usize]
    }

    fn add(&mut self, t: Type) -> TypeId {
        let id = TypeId(self.types.len() as u32);
        self.types.push(t);
        id
    }

    /// Allocates `void`.
    pub fn mk_void(&mut self) -> TypeId {
        self.add(Type::Void)
    }

    /// Allocates an integer type.
    pub fn mk_int(&mut self, k: IntKind) -> TypeId {
        self.add(Type::Int(k))
    }

    /// Allocates a float type.
    pub fn mk_float(&mut self, k: FloatKind) -> TypeId {
        self.add(Type::Float(k))
    }

    /// Allocates a pointer to `base` with a fresh qualifier variable.
    pub fn mk_ptr(&mut self, base: TypeId) -> TypeId {
        let q = self.fresh_qual();
        self.add(Type::Ptr(base, q))
    }

    /// Allocates a pointer to `base` with an existing qualifier variable.
    pub fn mk_ptr_with_qual(&mut self, base: TypeId, q: QualId) -> TypeId {
        self.add(Type::Ptr(base, q))
    }

    /// Allocates an array type.
    pub fn mk_array(&mut self, elem: TypeId, len: Option<u64>) -> TypeId {
        self.add(Type::Array(elem, len))
    }

    /// Allocates a struct/union reference type.
    pub fn mk_comp(&mut self, c: CompId) -> TypeId {
        self.add(Type::Comp(c))
    }

    /// Allocates a function type.
    pub fn mk_func(&mut self, sig: FuncSig) -> TypeId {
        self.add(Type::Func(sig))
    }

    /// Declares a new (possibly not yet defined) aggregate and returns its id.
    pub fn declare_comp(&mut self, name: impl Into<String>, is_union: bool) -> CompId {
        let id = CompId(self.comps.len() as u32);
        self.comps.push(CompInfo {
            name: name.into(),
            is_union,
            fields: Vec::new(),
            defined: false,
            size: 0,
            align: 1,
        });
        id
    }

    /// The aggregate info for `id`.
    pub fn comp(&self, id: CompId) -> &CompInfo {
        &self.comps[id.0 as usize]
    }

    /// All aggregates, for iteration.
    pub fn comps(&self) -> &[CompInfo] {
        &self.comps
    }

    /// Finds a declared aggregate by tag name and union-ness.
    pub fn find_comp(&self, name: &str, is_union: bool) -> Option<CompId> {
        self.comps
            .iter()
            .position(|c| c.name == name && c.is_union == is_union)
            .map(|i| CompId(i as u32))
    }

    /// Completes an aggregate's definition: computes offsets, size, alignment.
    ///
    /// # Errors
    ///
    /// Returns a [`LayoutError`] if any field type has no known size.
    pub fn define_comp(
        &mut self,
        id: CompId,
        fields: Vec<(String, TypeId, QualId)>,
    ) -> Result<(), LayoutError> {
        let is_union = self.comps[id.0 as usize].is_union;
        let mut infos = Vec::with_capacity(fields.len());
        let mut offset = 0u64;
        let mut max_align = 1u64;
        let mut max_size = 0u64;
        let n = fields.len();
        for (i, (name, ty, addr_qual)) in fields.into_iter().enumerate() {
            // A trailing incomplete array (flexible array member) gets size 0.
            let last = i + 1 == n;
            let (size, align) = match self.size_align(ty) {
                Ok(sa) => sa,
                Err(e) => {
                    if last && matches!(self.get(ty), Type::Array(_, None)) {
                        let elem = match self.get(ty) {
                            Type::Array(e, None) => *e,
                            _ => unreachable!(),
                        };
                        (0, self.align_of(elem).map_err(|_| e)?)
                    } else {
                        return Err(e);
                    }
                }
            };
            max_align = max_align.max(align);
            let field_offset = if is_union {
                max_size = max_size.max(size);
                0
            } else {
                offset = round_up(offset, align);
                let fo = offset;
                offset += size;
                fo
            };
            infos.push(FieldInfo {
                name,
                ty,
                offset: field_offset,
                addr_qual,
            });
        }
        let raw_size = if is_union { max_size } else { offset };
        let comp = &mut self.comps[id.0 as usize];
        comp.fields = infos;
        comp.defined = true;
        comp.align = max_align;
        comp.size = round_up(raw_size, max_align);
        Ok(())
    }

    /// Size and alignment of a type.
    ///
    /// # Errors
    ///
    /// [`LayoutError::Unsized`] for `void`/function types,
    /// [`LayoutError::Incomplete`] for incomplete arrays/aggregates.
    pub fn size_align(&self, ty: TypeId) -> Result<(u64, u64), LayoutError> {
        match self.get(ty) {
            Type::Void => Err(LayoutError::Unsized(ty)),
            Type::Func(_) => Err(LayoutError::Unsized(ty)),
            Type::Int(k) => {
                let s = self.machine.int_size(*k);
                Ok((s, s))
            }
            Type::Float(k) => {
                let s = self.machine.float_size(*k);
                Ok((s, s))
            }
            Type::Ptr(..) => Ok((self.machine.ptr_bytes, self.machine.ptr_bytes)),
            Type::Array(elem, Some(n)) => {
                let (es, ea) = self.size_align(*elem)?;
                Ok((es * n, ea))
            }
            Type::Array(_, None) => Err(LayoutError::Incomplete(ty)),
            Type::Comp(c) => {
                let info = self.comp(*c);
                if info.defined {
                    Ok((info.size, info.align))
                } else {
                    Err(LayoutError::Incomplete(ty))
                }
            }
        }
    }

    /// Size of a type in bytes.
    ///
    /// # Errors
    ///
    /// See [`TypeTable::size_align`].
    pub fn size_of(&self, ty: TypeId) -> Result<u64, LayoutError> {
        self.size_align(ty).map(|(s, _)| s)
    }

    /// Alignment of a type in bytes.
    ///
    /// # Errors
    ///
    /// See [`TypeTable::size_align`].
    pub fn align_of(&self, ty: TypeId) -> Result<u64, LayoutError> {
        self.size_align(ty).map(|(_, a)| a)
    }

    /// Looks up a field by name, returning its index.
    pub fn field_index(&self, c: CompId, name: &str) -> Option<usize> {
        self.comp(c).fields.iter().position(|f| f.name == name)
    }

    /// Whether `ty` is (after stripping qualifiers) an integer type.
    pub fn is_integer(&self, ty: TypeId) -> bool {
        matches!(self.get(ty), Type::Int(_))
    }

    /// Whether `ty` is an arithmetic (integer or float) type.
    pub fn is_arith(&self, ty: TypeId) -> bool {
        matches!(self.get(ty), Type::Int(_) | Type::Float(_))
    }

    /// Whether `ty` is a pointer.
    pub fn is_ptr(&self, ty: TypeId) -> bool {
        matches!(self.get(ty), Type::Ptr(..))
    }

    /// The pointee and qualifier of a pointer type.
    pub fn ptr_parts(&self, ty: TypeId) -> Option<(TypeId, QualId)> {
        match self.get(ty) {
            Type::Ptr(base, q) => Some((*base, *q)),
            _ => None,
        }
    }

    /// Renders a type for diagnostics (structural, with qualifier ids).
    pub fn display(&self, ty: TypeId) -> String {
        let mut out = String::new();
        self.write_type(ty, &mut out);
        out
    }

    /// Appends [`TypeTable::display`]'s rendering of `ty` to `out`; the
    /// cured-text printer writes every type through this.
    pub(crate) fn write_type(&self, ty: TypeId, out: &mut String) {
        match self.get(ty) {
            Type::Void => out.push_str("void"),
            Type::Int(k) => out.push_str(k.name()),
            Type::Float(FloatKind::Float) => out.push_str("float"),
            Type::Float(FloatKind::Double) => out.push_str("double"),
            Type::Ptr(base, q) => {
                self.write_type(*base, out);
                let _ = write!(out, " *q{}", q.0);
            }
            Type::Array(elem, n) => {
                self.write_type(*elem, out);
                match n {
                    Some(n) => {
                        let _ = write!(out, "[{n}]");
                    }
                    None => out.push_str("[]"),
                }
            }
            Type::Comp(c) => {
                let info = self.comp(*c);
                out.push_str(if info.is_union { "union " } else { "struct " });
                out.push_str(&info.name);
            }
            Type::Func(sig) => {
                self.write_type(sig.ret, out);
                out.push_str(" (");
                for (i, p) in sig.params.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.write_type(*p, out);
                }
                if sig.varargs {
                    out.push_str(", ...");
                }
                out.push(')');
            }
        }
    }

    /// Structural equality ignoring qualifier variables (used as the fast
    /// path for physical equality and for "identical cast" classification).
    pub fn same_type(&self, a: TypeId, b: TypeId) -> bool {
        if a == b {
            return true;
        }
        match (self.get(a), self.get(b)) {
            (Type::Void, Type::Void) => true,
            (Type::Int(x), Type::Int(y)) => x == y,
            (Type::Float(x), Type::Float(y)) => x == y,
            (Type::Ptr(x, _), Type::Ptr(y, _)) => self.same_type(*x, *y),
            (Type::Array(x, n), Type::Array(y, m)) => n == m && self.same_type(*x, *y),
            (Type::Comp(x), Type::Comp(y)) => x == y,
            (Type::Func(f), Type::Func(g)) => {
                f.varargs == g.varargs
                    && f.params.len() == g.params.len()
                    && self.same_type(f.ret, g.ret)
                    && f.params
                        .iter()
                        .zip(&g.params)
                        .all(|(p, q)| self.same_type(*p, *q))
            }
            _ => false,
        }
    }
}

/// Rounds `x` up to a multiple of `align` (which must be a power of two or
/// any positive integer).
pub fn round_up(x: u64, align: u64) -> u64 {
    debug_assert!(align > 0);
    x.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> TypeTable {
        TypeTable::default()
    }

    #[test]
    fn scalar_sizes() {
        let mut t = table();
        let c = t.mk_int(IntKind::Char);
        let i = t.mk_int(IntKind::Int);
        let l = t.mk_int(IntKind::Long);
        let d = t.mk_float(FloatKind::Double);
        assert_eq!(t.size_of(c).unwrap(), 1);
        assert_eq!(t.size_of(i).unwrap(), 4);
        assert_eq!(t.size_of(l).unwrap(), 8);
        assert_eq!(t.size_of(d).unwrap(), 8);
    }

    #[test]
    fn pointer_size_is_word() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let p = t.mk_ptr(i);
        assert_eq!(t.size_of(p).unwrap(), 8);
    }

    #[test]
    fn fresh_quals_are_distinct() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let p1 = t.mk_ptr(i);
        let p2 = t.mk_ptr(i);
        let (_, q1) = t.ptr_parts(p1).unwrap();
        let (_, q2) = t.ptr_parts(p2).unwrap();
        assert_ne!(q1, q2);
        assert_eq!(t.qual_count(), 2);
    }

    #[test]
    fn struct_layout_with_padding() {
        let mut t = table();
        let c = t.mk_int(IntKind::Char);
        let i = t.mk_int(IntKind::Int);
        let s = t.declare_comp("S", false);
        let q1 = t.fresh_qual();
        let q2 = t.fresh_qual();
        t.define_comp(s, vec![("c".into(), c, q1), ("i".into(), i, q2)])
            .unwrap();
        let info = t.comp(s);
        assert_eq!(info.fields[0].offset, 0);
        assert_eq!(info.fields[1].offset, 4, "int aligned to 4 after char");
        assert_eq!(info.size, 8);
        assert_eq!(info.align, 4);
    }

    #[test]
    fn union_layout() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let c = t.mk_int(IntKind::Char);
        let a4 = t.mk_array(c, Some(4));
        let u = t.declare_comp("U", true);
        let q1 = t.fresh_qual();
        let q2 = t.fresh_qual();
        t.define_comp(u, vec![("i".into(), i, q1), ("c".into(), a4, q2)])
            .unwrap();
        let info = t.comp(u);
        assert_eq!(info.fields[0].offset, 0);
        assert_eq!(info.fields[1].offset, 0);
        assert_eq!(info.size, 4);
    }

    #[test]
    fn array_size() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let a = t.mk_array(i, Some(10));
        assert_eq!(t.size_of(a).unwrap(), 40);
        let inc = t.mk_array(i, None);
        assert!(matches!(t.size_of(inc), Err(LayoutError::Incomplete(_))));
    }

    #[test]
    fn void_and_func_are_unsized() {
        let mut t = table();
        let v = t.mk_void();
        assert!(matches!(t.size_of(v), Err(LayoutError::Unsized(_))));
        let i = t.mk_int(IntKind::Int);
        let f = t.mk_func(FuncSig {
            ret: i,
            params: vec![],
            varargs: false,
        });
        assert!(matches!(t.size_of(f), Err(LayoutError::Unsized(_))));
    }

    #[test]
    fn undefined_comp_is_incomplete() {
        let mut t = table();
        let s = t.declare_comp("Fwd", false);
        let ts = t.mk_comp(s);
        assert!(matches!(t.size_of(ts), Err(LayoutError::Incomplete(_))));
    }

    #[test]
    fn flexible_array_member() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let c = t.mk_int(IntKind::Char);
        let fam = t.mk_array(c, None);
        let s = t.declare_comp("Msg", false);
        let q1 = t.fresh_qual();
        let q2 = t.fresh_qual();
        t.define_comp(s, vec![("len".into(), i, q1), ("data".into(), fam, q2)])
            .unwrap();
        assert_eq!(t.comp(s).size, 4);
    }

    #[test]
    fn same_type_ignores_quals() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let p1 = t.mk_ptr(i);
        let p2 = t.mk_ptr(i);
        assert!(t.same_type(p1, p2));
        let c = t.mk_int(IntKind::Char);
        let pc = t.mk_ptr(c);
        assert!(!t.same_type(p1, pc));
    }

    #[test]
    fn nested_struct_size() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let d = t.mk_float(FloatKind::Double);
        let inner = t.declare_comp("Inner", false);
        let q1 = t.fresh_qual();
        let q2 = t.fresh_qual();
        t.define_comp(inner, vec![("a".into(), i, q1), ("b".into(), d, q2)])
            .unwrap();
        // Inner: int(4) pad(4) double(8) -> 16, align 8.
        assert_eq!(t.comp(inner).size, 16);
        let tinner = t.mk_comp(inner);
        let outer = t.declare_comp("Outer", false);
        let q3 = t.fresh_qual();
        let q4 = t.fresh_qual();
        t.define_comp(outer, vec![("c".into(), i, q3), ("in".into(), tinner, q4)])
            .unwrap();
        // Outer: int(4) pad(4) Inner(16) -> 24, align 8.
        assert_eq!(t.comp(outer).size, 24);
        assert_eq!(t.comp(outer).fields[1].offset, 8);
    }

    #[test]
    fn display_is_readable() {
        let mut t = table();
        let i = t.mk_int(IntKind::Int);
        let p = t.mk_ptr(i);
        assert!(t.display(p).starts_with("int *"));
    }

    #[test]
    fn int_kind_names_keep_the_debug_spelling() {
        use IntKind::*;
        for k in [
            Char, SChar, UChar, Short, UShort, Int, UInt, Long, ULong, LongLong, ULongLong,
        ] {
            assert_eq!(k.name(), format!("{k:?}").to_lowercase());
        }
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 4), 0);
        assert_eq!(round_up(1, 4), 4);
        assert_eq!(round_up(4, 4), 4);
        assert_eq!(round_up(5, 8), 8);
    }
}
