//! The CIL-like intermediate representation.
//!
//! Expressions ([`Exp`]) are side-effect free; assignments and calls are
//! instructions ([`Instr`]); control flow is structured ([`Stmt`]) with
//! `goto`/labels for the irreducible cases. Every expression node carries its
//! type, assigned during lowering, so later passes never re-derive types.

use crate::types::{CompId, FloatKind, IntKind, QualId, TypeId, TypeTable};
use ccured_ast::Span;

macro_rules! idx {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The index as a usize.
            pub fn idx(self) -> usize {
                self.0 as usize
            }
        }
    };
}

idx!(
    /// Index of a global variable in [`Program::globals`].
    GlobalId
);
idx!(
    /// Index of a defined function in [`Program::functions`].
    FuncId
);
idx!(
    /// Index of an external (undefined) function in [`Program::externals`].
    ExternId
);
idx!(
    /// Index of a local variable within its [`Function`].
    LocalId
);
idx!(
    /// Index of a cast site in [`Program::casts`].
    CastId
);

/// A whole lowered program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The type arena.
    pub types: TypeTable,
    /// Global variables (including lowered string literals).
    pub globals: Vec<Global>,
    /// Defined functions.
    pub functions: Vec<Function>,
    /// Declared-but-undefined functions, resolved against the external
    /// library (or wrappers) at "link" time.
    pub externals: Vec<ExternDecl>,
    /// Every cast site in the program, for classification and inference.
    pub casts: Vec<CastSite>,
    /// CCured pragmas collected during lowering.
    pub pragmas: Vec<CcuredPragma>,
    /// Source-level CCured annotations collected during lowering.
    pub annots: Annotations,
}

/// Source-level CCured annotations (`__SAFE`, `__SPLIT`, ...), used to seed
/// or check the inference.
#[derive(Debug, Clone, Default)]
pub struct Annotations {
    /// Pointer-kind assertions per qualifier variable.
    pub qual_kinds: Vec<(QualId, KindAnnot)>,
    /// `__SPLIT`/`__NOSPLIT` per pointer qualifier variable.
    pub qual_splits: Vec<(QualId, bool)>,
    /// `__SPLIT`/`__NOSPLIT` on a declared variable's base type.
    pub split_seeds: Vec<(SplitSeed, bool)>,
}

/// Pointer-kind annotation (mirrors `ccured_ast::PtrKindAnnot` without the
/// AST dependency in downstream crates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum KindAnnot {
    Safe,
    Seq,
    Wild,
    Rtti,
}

/// Where a base-type `__SPLIT` annotation landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SplitSeed {
    /// A global variable's type.
    Global(GlobalId),
    /// A local variable's type.
    Local(FuncId, LocalId),
}

impl Program {
    /// Finds a defined function by name.
    pub fn find_function(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Finds an external declaration by name.
    pub fn find_external(&self, name: &str) -> Option<ExternId> {
        self.externals
            .iter()
            .position(|e| e.name == name)
            .map(|i| ExternId(i as u32))
    }

    /// Finds a global by name.
    pub fn find_global(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(|i| GlobalId(i as u32))
    }
}

/// A CCured `#pragma` recognized during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcuredPragma {
    /// `#pragma ccuredWrapperOf("wrapper", "external")`: calls to the
    /// external must be replaced by calls to the wrapper.
    WrapperOf {
        /// Name of the wrapper function (defined in the program).
        wrapper: String,
        /// Name of the wrapped external function.
        external: String,
    },
    /// `#pragma ccured_split(name)`: seed the SPLIT inference at a variable.
    SplitVar(String),
    /// `#pragma ccured_trusted(name)`: the named function is part of the
    /// trusted interface — no checks are inserted into its body (the
    /// paper's treatment of low-level kernel macros).
    TrustedFn(String),
    /// An unrecognized pragma, kept for diagnostics.
    Unknown(String),
}

/// A global variable.
#[derive(Debug, Clone)]
pub struct Global {
    /// Name (generated for string literals).
    pub name: String,
    /// Type.
    pub ty: TypeId,
    /// Qualifier variable for the global's address.
    pub addr_qual: QualId,
    /// Initializer, if any.
    pub init: Option<Init>,
    /// Declared `extern` without an initializer anywhere.
    pub is_extern: bool,
    /// Source location of the declaration.
    pub span: Span,
}

/// A (possibly compound) initializer, matched to the type's shape.
#[derive(Debug, Clone)]
pub enum Init {
    /// A single expression (must be constant-evaluable for globals of
    /// arithmetic type; pointer initializers may reference globals).
    Scalar(Exp),
    /// Element/field initializers in declaration order; shorter lists
    /// zero-fill the remainder, as in C.
    Compound(Vec<Init>),
    /// The bytes of a string literal, including the trailing NUL.
    String(Vec<u8>),
}

/// An external function declaration.
#[derive(Debug, Clone)]
pub struct ExternDecl {
    /// Function name.
    pub name: String,
    /// Its function type ([`crate::types::Type::Func`]).
    pub ty: TypeId,
    /// Source location.
    pub span: Span,
}

/// A local variable (parameters come first).
#[derive(Debug, Clone)]
pub struct Local {
    /// Name (generated for temporaries).
    pub name: String,
    /// Type.
    pub ty: TypeId,
    /// Qualifier variable for the local's address.
    pub addr_qual: QualId,
    /// Whether this local is a parameter.
    pub is_param: bool,
    /// Whether this is a compiler-generated temporary.
    pub is_temp: bool,
}

/// A defined function.
#[derive(Debug, Clone)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// The function's type ([`crate::types::Type::Func`]).
    pub ty: TypeId,
    /// Number of leading locals that are parameters.
    pub param_count: usize,
    /// All locals; `locals[0..param_count]` are the parameters.
    pub locals: Vec<Local>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

impl Function {
    /// Return type, extracted from the function type.
    pub fn ret_type(&self, types: &TypeTable) -> TypeId {
        match types.get(self.ty) {
            crate::types::Type::Func(sig) => sig.ret,
            _ => unreachable!("function type is always Func"),
        }
    }
}

/// A record of one cast site (explicit or implicit) for classification.
#[derive(Debug, Clone)]
pub struct CastSite {
    /// Source type.
    pub from: TypeId,
    /// Destination type.
    pub to: TypeId,
    /// Marked `__TRUSTED` by the programmer.
    pub trusted: bool,
    /// Inserted by the compiler (implicit conversion) rather than written.
    pub implicit: bool,
    /// The operand is the literal integer zero (the null pointer constant).
    pub from_zero: bool,
    /// The operand is the fresh result of an allocator call (`malloc`
    /// family): the cast types fresh memory and is statically safe.
    pub alloc: bool,
    /// Source location.
    pub span: Span,
}

/// A statement.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// A run of straight-line instructions.
    Instr(Vec<Instr>),
    /// `if` with lowered branches.
    If(Exp, Vec<Stmt>, Vec<Stmt>),
    /// An infinite loop; `Break` exits, `Continue` restarts.
    Loop(Vec<Stmt>),
    /// Exits the innermost loop or switch.
    Break,
    /// Restarts the innermost loop.
    Continue,
    /// Returns from the function.
    Return(Option<Exp>),
    /// Jump to a label (resolved by name within the function).
    Goto(String),
    /// A label marker.
    Label(String),
    /// A lowered `switch`: evaluates the scrutinee, selects the first
    /// matching arm (or the default arm), then executes arms from there with
    /// C fallthrough semantics. `Break` exits.
    Switch(Exp, Vec<SwitchArm>),
    /// A nested block (scoping only).
    Block(Vec<Stmt>),
}

/// One arm of a lowered switch.
#[derive(Debug, Clone)]
pub struct SwitchArm {
    /// Case values selecting this arm; empty means `default`.
    pub values: Vec<i128>,
    /// The arm's statements (falls through to the next arm).
    pub body: Vec<Stmt>,
}

/// A side-effecting instruction.
#[derive(Debug, Clone)]
pub enum Instr {
    /// `lval = exp`
    Set(Lval, Exp, Span),
    /// `lval = callee(args)` / `callee(args)`
    Call(Option<Lval>, Callee, Vec<Exp>, Span),
    /// A run-time check inserted by the CCured instrumentation; aborts the
    /// program with a memory-safety error if it fails. The [`SiteId`] ties
    /// the instruction to its check site for per-site profiling.
    Check(Check, Span, SiteId),
}

/// A stable identifier for a check *site*: the (span, function, check kind,
/// inferred pointer kind) tuple the instrumentation emitted a check for.
/// Several check instructions can share one site (e.g. a macro-expanded
/// dereference), and the optimizer's elisions are attributed back to it.
/// Ids index the cure's site table in emission order, so equal programs
/// cured with equal configurations always agree on the numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

impl SiteId {
    /// "No site": checks built outside the instrumentation pass (unit
    /// tests, synthetic IR). Profiling ignores them.
    pub const NONE: SiteId = SiteId(u32::MAX);

    /// The table index, or `None` for [`SiteId::NONE`].
    pub fn index(self) -> Option<usize> {
        (self != SiteId::NONE).then_some(self.0 as usize)
    }
}

/// A CCured run-time check (paper Figures 10–11).
#[derive(Debug, Clone)]
pub enum Check {
    /// SAFE/RTTI dereference: the pointer must be non-null.
    Null {
        /// The pointer being dereferenced.
        ptr: Exp,
    },
    /// SEQ dereference: non-null(-integer) and `b ≤ p ≤ e − access_size`.
    SeqBounds {
        /// The fat pointer.
        ptr: Exp,
        /// Size of the accessed element.
        access_size: u64,
    },
    /// SEQ-to-SAFE conversion: the pointer must address a full element.
    SeqToSafe {
        /// The fat pointer being converted.
        ptr: Exp,
        /// Size of the target element.
        access_size: u64,
    },
    /// WILD dereference: bounds via the area's length header.
    WildBounds {
        /// The wild pointer.
        ptr: Exp,
        /// Size of the access.
        access_size: u64,
    },
    /// Reading a pointer through a WILD pointer: the tag bits must say the
    /// stored word is a valid base pointer.
    WildTag {
        /// The wild pointer being read through.
        ptr: Exp,
    },
    /// Checked downcast: `isSubtype(ptr.t, target_node)`.
    Rtti {
        /// The RTTI pointer being downcast.
        ptr: Exp,
        /// Node id of the target type in the physical-subtype hierarchy.
        target_node: u32,
    },
    /// Storing a pointer into the heap or a global: it must not point into
    /// the current stack frame (conservative escape prevention).
    NoStackEscape {
        /// The pointer value being stored.
        value: Exp,
    },
    /// Static array indexing: `0 ≤ index < len`.
    IndexBound {
        /// The index expression.
        index: Exp,
        /// The static array length.
        len: u64,
    },
    /// Temporal lock-and-key comparison (`--temporal`): the pointer's
    /// capability key — stamped at `malloc`/stack entry — must still be
    /// valid, i.e. the allocation it names has not been freed. Emitted
    /// before every dereference so use-after-free is caught by the cured
    /// program's own checks rather than by the abstract machine.
    Temporal {
        /// The pointer being dereferenced.
        ptr: Exp,
    },
    /// Loop-optimizer probe: placed by the hoisting/widening passes
    /// immediately before a [`Check::Guarded`] residual. When the frame's
    /// guard `slot` is unset it evaluates every `inner` check; if all pass
    /// the slot is latched to "pass" (and exactly one check event of
    /// `inner[0]`'s kind is counted), otherwise to "fail" (counting
    /// nothing — the residual checks then run per-iteration and account
    /// exactly like the unoptimized program). A probe never aborts.
    Probe {
        /// Frame-local guard slot shared with the residual check.
        slot: u32,
        /// The checks whose conjunction the guard summarizes. For hoisting
        /// this is the residual check itself; for SEQ widening it is the
        /// per-iteration check plus the last-index endpoint check.
        inner: Vec<Check>,
    },
    /// A check wrapped by the loop optimizer: skipped (free of charge)
    /// while the frame's guard `slot` is latched "pass", executed exactly
    /// like the original `inner` check otherwise — so a failing widened
    /// range still blames the precise per-iteration site.
    Guarded {
        /// Frame-local guard slot set by the matching [`Check::Probe`].
        slot: u32,
        /// The original check, unchanged.
        inner: Box<Check>,
    },
    /// Unlatches a guard slot. Placed immediately before the loop a probe
    /// lives in, so re-entering the loop re-establishes the guard (the
    /// probed operands may have changed between entries).
    GuardReset {
        /// The guard slot to unlatch.
        slot: u32,
    },
}

/// The kind of a run-time check, one per plain [`Check`] variant of the
/// same name: the one list of kinds that every per-kind count, cost and
/// name is indexed by ([`PerCheck`]). The order is the order reports,
/// counters and cost sums list the kinds in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum CheckKind {
    Null,
    SeqBounds,
    SeqToSafe,
    WildBounds,
    WildTag,
    Rtti,
    NoStackEscape,
    IndexBound,
    Temporal,
}

impl CheckKind {
    /// Every kind, in declaration order.
    pub const ALL: [CheckKind; 9] = [
        CheckKind::Null,
        CheckKind::SeqBounds,
        CheckKind::SeqToSafe,
        CheckKind::WildBounds,
        CheckKind::WildTag,
        CheckKind::Rtti,
        CheckKind::NoStackEscape,
        CheckKind::IndexBound,
        CheckKind::Temporal,
    ];

    /// The stable short name: counters, reports, failure verdicts and the
    /// printer's upper-cased `CHECK_*` spelling all use it.
    pub fn name(self) -> &'static str {
        match self {
            CheckKind::Null => "null",
            CheckKind::SeqBounds => "seq_bounds",
            CheckKind::SeqToSafe => "seq_to_safe",
            CheckKind::WildBounds => "wild_bounds",
            CheckKind::WildTag => "wild_tag",
            CheckKind::Rtti => "rtti",
            CheckKind::NoStackEscape => "no_stack_escape",
            CheckKind::IndexBound => "index_bound",
            CheckKind::Temporal => "temporal",
        }
    }

    /// The inferred pointer kind the check guards, as rendered in profiles
    /// (`-` for checks not tied to a pointer representation: escape and
    /// index checks, and temporal checks, which guard the allocation).
    pub fn ptr_kind(self) -> &'static str {
        match self {
            CheckKind::Null => "safe",
            CheckKind::SeqBounds | CheckKind::SeqToSafe => "seq",
            CheckKind::WildBounds | CheckKind::WildTag => "wild",
            CheckKind::Rtti => "rtti",
            CheckKind::NoStackEscape | CheckKind::IndexBound | CheckKind::Temporal => "-",
        }
    }
}

/// One `T` per [`CheckKind`], indexed by it: static check counts, dynamic
/// check counters and per-kind check prices.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct PerCheck<T>(pub [T; CheckKind::ALL.len()]);

impl PerCheck<u64> {
    /// The sum over every kind.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Adds `o` kind by kind.
    pub fn add(&mut self, o: &PerCheck<u64>) {
        for (a, b) in self.0.iter_mut().zip(o.0) {
            *a += b;
        }
    }
}

impl<T> std::ops::Index<CheckKind> for PerCheck<T> {
    type Output = T;
    fn index(&self, k: CheckKind) -> &T {
        &self.0[k as usize]
    }
}

impl<T> std::ops::IndexMut<CheckKind> for PerCheck<T> {
    fn index_mut(&mut self, k: CheckKind) -> &mut T {
        &mut self.0[k as usize]
    }
}

/// One `name: value` entry per kind, so the pretty form `{:#?}` has one
/// line per kind: `RunStats::first_difference` names a diverging counter
/// by its line.
impl<T: std::fmt::Debug> std::fmt::Debug for PerCheck<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("PerCheck");
        for k in CheckKind::ALL {
            s.field(k.name(), &self[k]);
        }
        s.finish()
    }
}

impl Check {
    /// The kind this check is accounted as: its own for a plain check, the
    /// wrapped check's for `Guarded` and a `Probe` (a probe stands in for
    /// its first inner check), and `None` for `GuardReset` and an empty
    /// `Probe`, which count nothing.
    #[inline]
    pub fn kind(&self) -> Option<CheckKind> {
        Some(match self {
            Check::Null { .. } => CheckKind::Null,
            Check::SeqBounds { .. } => CheckKind::SeqBounds,
            Check::SeqToSafe { .. } => CheckKind::SeqToSafe,
            Check::WildBounds { .. } => CheckKind::WildBounds,
            Check::WildTag { .. } => CheckKind::WildTag,
            Check::Rtti { .. } => CheckKind::Rtti,
            Check::NoStackEscape { .. } => CheckKind::NoStackEscape,
            Check::IndexBound { .. } => CheckKind::IndexBound,
            Check::Temporal { .. } => CheckKind::Temporal,
            Check::Guarded { inner, .. } => return inner.kind(),
            Check::Probe { inner, .. } => return inner.first().and_then(Check::kind),
            Check::GuardReset { .. } => return None,
        })
    }

    /// A short stable name: the [`CheckKind::name`] of a plain check, or
    /// the guard machinery's own `probe`/`guarded`/`guard_reset`.
    pub fn name(&self) -> &'static str {
        match self {
            Check::Probe { .. } => "probe",
            Check::Guarded { .. } => "guarded",
            Check::GuardReset { .. } => "guard_reset",
            plain => plain.kind().map_or("", CheckKind::name),
        }
    }

    /// The expression a check evaluates (its only operand). The
    /// loop-optimizer guard machinery (`Probe`/`Guarded`/`GuardReset`) has
    /// no single operand of its own and is executed structurally instead.
    pub fn operand(&self) -> Option<&Exp> {
        match self {
            Check::Null { ptr }
            | Check::SeqBounds { ptr, .. }
            | Check::SeqToSafe { ptr, .. }
            | Check::WildBounds { ptr, .. }
            | Check::WildTag { ptr }
            | Check::Rtti { ptr, .. }
            | Check::Temporal { ptr } => Some(ptr),
            Check::NoStackEscape { value } => Some(value),
            Check::IndexBound { index, .. } => Some(index),
            Check::Probe { .. } | Check::Guarded { .. } | Check::GuardReset { .. } => None,
        }
    }

    /// [`Check::operand`], mutably.
    pub fn operand_mut(&mut self) -> Option<&mut Exp> {
        match self {
            Check::Null { ptr }
            | Check::SeqBounds { ptr, .. }
            | Check::SeqToSafe { ptr, .. }
            | Check::WildBounds { ptr, .. }
            | Check::WildTag { ptr }
            | Check::Rtti { ptr, .. }
            | Check::Temporal { ptr } => Some(ptr),
            Check::NoStackEscape { value } => Some(value),
            Check::IndexBound { index, .. } => Some(index),
            Check::Probe { .. } | Check::Guarded { .. } | Check::GuardReset { .. } => None,
        }
    }
}

/// The target of a call.
#[derive(Debug, Clone)]
pub enum Callee {
    /// A defined function.
    Func(FuncId),
    /// An external function.
    Extern(ExternId),
    /// An indirect call through a function pointer.
    Ptr(Exp),
}

/// An lvalue: a base plus a chain of offsets.
#[derive(Debug, Clone)]
pub struct Lval {
    /// Where the lvalue starts.
    pub base: LvBase,
    /// Field/index offsets applied in order.
    pub offsets: Vec<Offset>,
}

impl Lval {
    /// An lvalue naming a local variable directly.
    pub fn local(id: LocalId) -> Lval {
        Lval {
            base: LvBase::Local(id),
            offsets: Vec::new(),
        }
    }

    /// An lvalue naming a global variable directly.
    pub fn global(id: GlobalId) -> Lval {
        Lval {
            base: LvBase::Global(id),
            offsets: Vec::new(),
        }
    }

    /// An lvalue dereferencing a pointer expression.
    pub fn deref(e: Exp) -> Lval {
        Lval {
            base: LvBase::Deref(Box::new(e)),
            offsets: Vec::new(),
        }
    }

    /// Whether the base is a memory dereference (vs. a named variable).
    pub fn is_deref(&self) -> bool {
        matches!(self.base, LvBase::Deref(_))
    }
}

/// The base of an lvalue.
#[derive(Debug, Clone)]
pub enum LvBase {
    /// A local variable of the current function.
    Local(LocalId),
    /// A global variable.
    Global(GlobalId),
    /// A dereference of a pointer-typed expression.
    Deref(Box<Exp>),
}

/// One offset step within an lvalue.
#[derive(Debug, Clone)]
pub enum Offset {
    /// Select field `index` of aggregate `comp`.
    Field(CompId, usize),
    /// Index into an array (the expression has integer type).
    Index(Exp),
}

/// A constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer constant with its kind.
    Int(i128, IntKind),
    /// Float constant with its kind.
    Float(f64, FloatKind),
}

/// Unary operators (arithmetic only; `*`/`&` are structural).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    BitNot,
    /// Logical not, yielding `int` 0/1.
    Not,
}

/// Binary operators. Pointer arithmetic is distinguished as in CIL so that
/// constraint generation and instrumentation can key off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    /// `ptr + int`, yielding a pointer of the same type.
    PlusPI,
    /// `ptr - int`, yielding a pointer of the same type.
    MinusPI,
    /// `ptr - ptr`, yielding an integer.
    MinusPP,
}

impl BinOp {
    /// Whether this operator is pointer arithmetic that moves a pointer.
    pub fn is_pointer_arith(self) -> bool {
        matches!(self, BinOp::PlusPI | BinOp::MinusPI)
    }
}

/// A reference to a function used as a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FnRef {
    /// A defined function.
    Def(FuncId),
    /// An external function.
    Ext(ExternId),
}

/// A side-effect-free expression. Every node carries its [`TypeId`].
#[derive(Debug, Clone)]
pub enum Exp {
    /// A constant.
    Const(Const, TypeId),
    /// Read an lvalue.
    Load(Box<Lval>, TypeId),
    /// `&lval`
    AddrOf(Box<Lval>, TypeId),
    /// Array-to-pointer decay: address of element 0 of an array lvalue.
    StartOf(Box<Lval>, TypeId),
    /// Address of a function (function-to-pointer decay).
    FnAddr(FnRef, TypeId),
    /// Unary arithmetic.
    Unop(UnOp, Box<Exp>, TypeId),
    /// Binary arithmetic/comparison/pointer arithmetic.
    Binop(BinOp, Box<Exp>, Box<Exp>, TypeId),
    /// A cast; the [`CastId`] indexes [`Program::casts`].
    Cast(CastId, Box<Exp>, TypeId),
    /// `sizeof(T)`, already resolved to a constant value but kept symbolic
    /// for readability of dumps.
    SizeOf(TypeId, u64, TypeId),
}

impl Exp {
    /// The type of this expression.
    pub fn ty(&self) -> TypeId {
        match self {
            Exp::Const(_, t)
            | Exp::Load(_, t)
            | Exp::AddrOf(_, t)
            | Exp::StartOf(_, t)
            | Exp::FnAddr(_, t)
            | Exp::Unop(_, _, t)
            | Exp::Binop(_, _, _, t)
            | Exp::Cast(_, _, t)
            | Exp::SizeOf(_, _, t) => *t,
        }
    }

    /// Builds an integer constant of the given kind/type.
    pub fn int(value: i128, kind: IntKind, ty: TypeId) -> Exp {
        Exp::Const(Const::Int(value, kind), ty)
    }

    /// Whether this is a literal integer zero (the null pointer constant).
    pub fn is_zero(&self) -> bool {
        matches!(self, Exp::Const(Const::Int(0, _), _))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::TypeTable;

    #[test]
    fn exp_reports_type() {
        let mut t = TypeTable::default();
        let i = t.mk_int(IntKind::Int);
        let e = Exp::int(7, IntKind::Int, i);
        assert_eq!(e.ty(), i);
        assert!(!e.is_zero());
        assert!(Exp::int(0, IntKind::Int, i).is_zero());
    }

    #[test]
    fn lval_constructors() {
        let l = Lval::local(LocalId(3));
        assert!(!l.is_deref());
        let mut t = TypeTable::default();
        let i = t.mk_int(IntKind::Int);
        let p = t.mk_ptr(i);
        let d = Lval::deref(Exp::int(0, IntKind::Int, p));
        assert!(d.is_deref());
    }

    #[test]
    fn binop_pointer_arith_flag() {
        assert!(BinOp::PlusPI.is_pointer_arith());
        assert!(BinOp::MinusPI.is_pointer_arith());
        assert!(!BinOp::MinusPP.is_pointer_arith());
        assert!(!BinOp::Add.is_pointer_arith());
    }
}
