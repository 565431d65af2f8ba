//! The bytecode instruction set.
//!
//! Each [`Op`] carries a `cost`: the number of tree-engine `step()` calls
//! (statement/instruction/expression-node visits) the reference interpreter
//! performs between the previous op's work and this op's work. The dispatch
//! loop charges it in one batched fuel transaction before executing the op,
//! so instruction counts, per-mode shadow work, and the exact step at which
//! fuel runs out are identical to the tree engine's.

use crate::err::RtError;
use crate::interp::IntTrunc;
use crate::value::Value;
use ccured_cil::ir::{BinOp, CastId, Check, FuncId, LocalId, SiteId, UnOp};
use ccured_cil::types::{FloatKind, IntKind, QualId, Type, TypeId, TypeTable};

/// Scalar normalization to a declared type: the one conversion table for
/// register stores (`StoreReg`, `normalize_scalar`, parameter binding) and
/// numeric casts (`CastNum`, `eval_cast`'s non-pointer arm).
#[derive(Clone, Copy)]
pub(crate) enum RegNorm {
    /// Integer target: truncate to the kind's width/signedness.
    Int(IntTrunc),
    /// `float` target: round through `f32`.
    Float32,
    /// `double` target: integers convert, floats pass through.
    Float64,
    /// Pointer/aggregate targets store unchanged.
    Pass,
}

impl RegNorm {
    /// The normalization to declared type `ty`.
    pub(crate) fn of(types: &TypeTable, ty: TypeId) -> RegNorm {
        match types.get(ty) {
            Type::Int(k) => RegNorm::Int(IntTrunc::of(*k, &types.machine)),
            Type::Float(FloatKind::Float) => RegNorm::Float32,
            Type::Float(_) => RegNorm::Float64,
            _ => RegNorm::Pass,
        }
    }

    /// Applies the normalization.
    #[inline(always)]
    pub(crate) fn apply(self, v: Value) -> Value {
        match (self, v) {
            (RegNorm::Int(t), Value::Int(x)) => Value::Int(t.apply(x)),
            (RegNorm::Int(t), Value::Float(f)) => Value::Int(t.apply(f as i128)),
            (RegNorm::Float32, Value::Float(f)) => Value::Float(f as f32 as f64),
            (RegNorm::Float32 | RegNorm::Float64, Value::Int(x)) => Value::Float(x as f64),
            (_, v) => v,
        }
    }
}

/// The zero value a register local reads as under the zeroing allocator,
/// compressed from the declared type.
#[derive(Clone, Copy)]
pub(crate) enum ZeroKind {
    /// Integer (and any other non-float, non-pointer) target: `0`.
    Int,
    /// Float target: `0.0`.
    Float,
    /// Pointer target: null.
    Ptr,
}

impl ZeroKind {
    /// The zero value of type `ty`.
    pub(crate) fn of(types: &TypeTable, ty: TypeId) -> ZeroKind {
        match types.get(ty) {
            Type::Float(_) => ZeroKind::Float,
            Type::Ptr(..) => ZeroKind::Ptr,
            _ => ZeroKind::Int,
        }
    }

    /// The zero value itself.
    #[inline]
    pub(crate) fn value(self) -> Value {
        match self {
            ZeroKind::Int => Value::Int(0),
            ZeroKind::Float => Value::Float(0.0),
            ZeroKind::Ptr => Value::NULL,
        }
    }
}

/// One bytecode instruction: a batched step cost plus the operation.
pub(crate) struct Op<'p> {
    /// Tree-engine steps charged (fuel, mode work) before `kind` executes.
    pub(crate) cost: u32,
    /// The operation itself.
    pub(crate) kind: OpKind<'p>,
}

/// A compiled function: a linear instruction stream with all jump targets
/// resolved to instruction indices and all type/layout decisions (register
/// vs memory locals, field offsets, element sizes, check kinds, WILD-store
/// tagging) precomputed at compile time.
pub(crate) struct CompiledFn<'p> {
    /// The instruction stream; execution starts at index 0.
    pub(crate) ops: Vec<Op<'p>>,
}

/// Pre-resolved `switch` dispatch: sorted case values and a default target.
pub(crate) struct SwitchTable {
    /// `(case value, target index)`, sorted by value; the first arm listing
    /// a value wins, like the tree engine's in-order scan.
    pub(crate) cases: Vec<(i128, u32)>,
    /// Target when no case matches (the first `default` arm, or the end of
    /// the switch).
    pub(crate) default: u32,
}

/// Operations. Value operands travel on a `Value` stack; memory addresses
/// under computation travel on a separate `Pointer` stack (an lvalue's base
/// and offset chain), keeping both untyped and `Copy`.
pub(crate) enum OpKind<'p> {
    /// Charge the cost only (flushed pending steps before a jump target).
    Nop,
    /// Push a constant.
    Push(Value),
    /// Push the value of a register-allocated local. The payload is the
    /// type's zero value, served when the zeroing allocator covers an
    /// uninitialized read.
    LoadReg(LocalId, ZeroKind),
    /// Pop an address, load a scalar of the given type from memory (the
    /// generic fallback — scalar loads compile to the specialized ops
    /// below; this arm only survives to raise the tree engine's exact
    /// "load of ..." error for unsupported types).
    LoadMem(TypeId),
    /// Pop an address, load an integer of `size` bytes.
    LoadInt {
        /// Byte width.
        size: u64,
        /// Sign-extend on load.
        signed: bool,
    },
    /// Pop an address, load a float of `size` (4 or 8) bytes.
    LoadFloat {
        /// Byte width.
        size: u64,
    },
    /// Pop an address, load a pointer slot.
    LoadPtr {
        /// Declared qualifier (split-representation metadata accounting).
        q: QualId,
    },
    /// Pop a value into a register-allocated local, normalizing with the
    /// precompiled rule.
    StoreReg(LocalId, RegNorm),
    /// Pop an address and a value, store into memory (escape-checked; a
    /// `wild_tag` store pays WILD tag-bitmap upkeep). Generic fallback,
    /// like [`OpKind::LoadMem`].
    StoreMem {
        /// Declared type of the destination.
        ty: TypeId,
        /// Destination was reached through a WILD dereference.
        wild_tag: bool,
    },
    /// Pop an address and a value, store an integer.
    StoreInt {
        /// Target integer kind (truncation rule).
        k: IntKind,
        /// Byte width.
        size: u64,
        /// Destination was reached through a WILD dereference.
        wild_tag: bool,
    },
    /// Pop an address and a value, store a float of `size` (4 or 8) bytes.
    StoreFloat {
        /// Byte width.
        size: u64,
        /// Destination was reached through a WILD dereference.
        wild_tag: bool,
    },
    /// Pop an address and a value, store a pointer slot.
    StorePtr {
        /// Declared qualifier (split-representation metadata accounting).
        q: QualId,
        /// Destination was reached through a WILD dereference.
        wild_tag: bool,
    },
    /// Push the address of a memory-allocated local.
    LocalAddr(LocalId),
    /// Push the address of a global (index into `Interp::globals`).
    GlobalAddr(u32),
    /// Pop a pointer value, check it is dereferenceable, push its address.
    Deref,
    /// Add a static field offset to the address on top of the stack.
    FieldAdd(i64),
    /// Pop an index value, scale by the element size, add to the address.
    IndexAdd(u64),
    /// Pop an address, push the fat pointer `make_ptr` builds for it
    /// (`&lval` / array decay; `extent` is the static array extent).
    MakePtr {
        /// The pointer type taken of the lvalue.
        ty: TypeId,
        /// Static extent in bytes for array decays.
        extent: Option<u64>,
    },
    /// Apply a unary operator to the top of the stack.
    Unop(UnOp, TypeId),
    /// Pop two values, apply a binary operator (generic fallback for the
    /// rare shapes: `MinusPP`, unsized pointer-arith elements).
    Binop {
        /// The operator.
        op: BinOp,
        /// Static type of the left operand (element size for ptr arith).
        a_ty: TypeId,
        /// Result type (integer truncation width).
        res_ty: TypeId,
    },
    /// Pop two values, apply an arithmetic/bitwise operator with the result
    /// truncation resolved at compile time.
    BinArith {
        /// The operator (`Add`..`BitOr`, never pointer/comparison forms).
        op: BinOp,
        /// Integer result truncation (`None`: non-integer result type).
        trunc: Option<IntKind>,
    },
    /// Pop two values, compare (`Lt`..`Ne`; needs no type data).
    BinCmp(BinOp),
    /// Pop an integer and a pointer, bump the pointer by `±n * elem`.
    PtrAdd {
        /// Static element size in bytes.
        elem: u64,
        /// `MinusPI` (subtract) instead of `PlusPI`.
        neg: bool,
    },
    /// Apply the cast at the given site to the top of the stack (pointer
    /// casts and other shapes the numeric fast path does not cover).
    Cast(CastId),
    /// Numeric (non-pointer) cast with the conversion resolved at compile
    /// time.
    CastNum(RegNorm),
    /// Unconditional jump.
    Jump(u32),
    /// Pop a value; jump if it is falsy.
    BranchIfZero(u32),
    /// Pop the scrutinee, dispatch through the table.
    Switch(Box<SwitchTable>),
    /// Call a defined function with the top `argc` values.
    CallStatic {
        /// Callee.
        f: FuncId,
        /// Argument count.
        argc: u32,
    },
    /// Call an external (index into `Program::externals`).
    CallExtern {
        /// External index.
        x: u32,
        /// Argument count.
        argc: u32,
    },
    /// Pop the function-pointer value (evaluated after the arguments, like
    /// the tree engine), then call it with the next `argc` values.
    CallPtr {
        /// Argument count.
        argc: u32,
    },
    /// Push the last call's result (zero if the callee returned nothing).
    PushResult,
    /// Pop an address, push it as a thin `SAFE` pointer value (by-value
    /// aggregate argument passing).
    AddrAsVal,
    /// Pop source and destination addresses, copy an aggregate.
    CopyAgg {
        /// Aggregate size in bytes.
        size: u64,
    },
    /// Enter a check: snapshot (instrs, loads) and count the check. The
    /// operand re-evaluation that follows is cost-neutral, exactly like the
    /// tree engine's `exec_check`.
    CheckBegin(&'p Check, SiteId),
    /// Pop the operand value, restore the snapshot, judge the check.
    CheckEnd(&'p Check, SiteId),
    /// Execute a guard-machinery check (probe/guarded/reset) through the
    /// shared structural executor: these have no single operand to inline,
    /// and routing them through `exec_check` keeps both engines' guard
    /// semantics and counters identical by construction.
    Hook(&'p Check, SiteId),
    /// Return from the function (popping the return value if present).
    Ret {
        /// Whether a return value is on the stack.
        has_value: bool,
    },
    /// Fall-off-the-end return with the type's zero value (`None` = void).
    RetDefault(Option<Value>),
    /// A statically known runtime error (e.g. a `goto` to an invisible
    /// label, or an unsized type where a size is required), raised with the
    /// exact message the tree engine produces at this point.
    Fail(RtError),

    // ---- fused superinstructions -------------------------------------
    //
    // Each replaces an adjacent pair/triple of the ops above (the peephole
    // pass in `compile.rs` never fuses across a jump target). The carrier
    // op keeps the first constituent's `cost`; the later constituents'
    // costs ride along as `c2`/`c3` and are charged between the sub-steps,
    // so fuel exhaustion still lands on the exact step it would have in
    // the unfused (and tree) execution.
    /// `LoadReg` + `BinArith`: the register supplies the right operand.
    RegBinArith {
        /// Right-operand register.
        l: LocalId,
        /// Zero served for an uninitialized covered read.
        zk: ZeroKind,
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Cost of the fused `BinArith`.
        c2: u32,
    },
    /// `LoadReg` + `StoreReg`: register-to-register copy.
    RegStoreReg {
        /// Source register.
        src: LocalId,
        /// Zero served for an uninitialized covered read.
        zk: ZeroKind,
        /// Destination register.
        dst: LocalId,
        /// Destination normalization.
        norm: RegNorm,
        /// Cost of the fused `StoreReg`.
        c2: u32,
    },
    /// `Push(Int)` + `BinArith`: immediate right operand.
    PushBinArith {
        /// Immediate right operand.
        v: i128,
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Cost of the fused `BinArith`.
        c2: u32,
    },
    /// `Push(Int)` + `BinCmp`.
    PushBinCmp {
        /// Immediate right operand.
        v: i128,
        /// The comparison.
        op: BinOp,
        /// Cost of the fused `BinCmp`.
        c2: u32,
    },
    /// `Push(Int)` + `BinCmp` + `BranchIfZero`.
    PushCmpBranch {
        /// Immediate right operand.
        v: i128,
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
        /// Cost of the fused `BinCmp`.
        c2: u32,
        /// Cost of the fused `BranchIfZero`.
        c3: u32,
    },
    /// `Push(Int)` + `StoreReg`: store an immediate into a register.
    PushStoreReg {
        /// Immediate value.
        v: i128,
        /// Destination register.
        l: LocalId,
        /// Destination normalization.
        norm: RegNorm,
        /// Cost of the fused `StoreReg`.
        c2: u32,
    },
    /// `BinCmp` + `BranchIfZero` (both operands from the stack).
    CmpBranch {
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
        /// Cost of the fused `BranchIfZero`.
        c2: u32,
    },
    /// `BinArith` + `StoreReg`: compute into a register.
    ArithStoreReg {
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Destination register.
        l: LocalId,
        /// Destination normalization.
        norm: RegNorm,
        /// Cost of the fused `StoreReg`.
        c2: u32,
    },
    /// `LoadInt` + `StoreReg`: load a memory integer into a register.
    LoadIntStoreReg {
        /// Byte width of the load.
        size: u64,
        /// Sign-extend on load.
        signed: bool,
        /// Destination register.
        l: LocalId,
        /// Destination normalization.
        norm: RegNorm,
        /// Cost of the fused `StoreReg`.
        c2: u32,
    },

    // ---- extended superinstructions -----------------------------------
    //
    // Deeper quads and whole-check forms, tried before the base set. Same
    // cost protocol: the carrier keeps the first constituent's cost, later
    // constituents' costs are charged between the sub-steps.
    /// `LoadReg` + `LoadReg` + `BinCmp` + `BranchIfZero`: a whole
    /// register-register loop/if condition in one dispatch.
    RegRegCmpBranch {
        /// Left-operand register.
        a: LocalId,
        /// Zero served for an uninitialized covered read of `a`.
        za: ZeroKind,
        /// Right-operand register.
        b: LocalId,
        /// Zero served for an uninitialized covered read of `b`.
        zb: ZeroKind,
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
        /// Cost of the fused second `LoadReg`.
        c2: u32,
        /// Cost of the fused `BinCmp`.
        c3: u32,
        /// Cost of the fused `BranchIfZero`.
        c4: u32,
    },
    /// `LoadReg` + `LoadReg` + `BinArith`: register-register arithmetic.
    RegRegArith {
        /// Left-operand register.
        a: LocalId,
        /// Zero served for an uninitialized covered read of `a`.
        za: ZeroKind,
        /// Right-operand register.
        b: LocalId,
        /// Zero served for an uninitialized covered read of `b`.
        zb: ZeroKind,
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Cost of the fused second `LoadReg`.
        c2: u32,
        /// Cost of the fused `BinArith`.
        c3: u32,
    },
    /// `LoadReg` + `LoadReg` + `PtrAdd`: the `p + i` of an indexed access.
    RegRegPtrAdd {
        /// Pointer register.
        p: LocalId,
        /// Zero served for an uninitialized covered read of `p`.
        zp: ZeroKind,
        /// Index register.
        i: LocalId,
        /// Zero served for an uninitialized covered read of `i`.
        zi: ZeroKind,
        /// Static element size in bytes.
        elem: u64,
        /// `MinusPI` (subtract) instead of `PlusPI`.
        neg: bool,
        /// Cost of the fused second `LoadReg`.
        c2: u32,
        /// Cost of the fused `PtrAdd`.
        c3: u32,
    },
    /// `LoadReg` + `Push(Int)` + `BinArith`: register-immediate
    /// arithmetic.
    RegImmArith {
        /// Left-operand register.
        l: LocalId,
        /// Zero served for an uninitialized covered read.
        zk: ZeroKind,
        /// Immediate right operand.
        v: i128,
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Cost of the fused `Push`.
        c2: u32,
        /// Cost of the fused `BinArith`.
        c3: u32,
    },
    /// `LoadReg` + `Push(Int)` + `BinArith` + `StoreReg`: the canonical
    /// `i = i + 1` quad in one dispatch.
    RegImmArithStore {
        /// Left-operand register.
        l: LocalId,
        /// Zero served for an uninitialized covered read.
        zk: ZeroKind,
        /// Immediate right operand.
        v: i128,
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Destination register.
        dst: LocalId,
        /// Destination normalization.
        norm: RegNorm,
        /// Cost of the fused `Push`.
        c2: u32,
        /// Cost of the fused `BinArith`.
        c3: u32,
        /// Cost of the fused `StoreReg`.
        c4: u32,
    },
    /// `LoadInt` + `BinArith` + `StoreReg`: accumulate a memory integer
    /// into a register (`s = s + a[i]`'s tail).
    LoadIntArithStore {
        /// Byte width of the load.
        size: u64,
        /// Sign-extend on load.
        signed: bool,
        /// The operator.
        op: BinOp,
        /// Integer result truncation.
        trunc: Option<IntKind>,
        /// Destination register.
        l: LocalId,
        /// Destination normalization.
        norm: RegNorm,
        /// Cost of the fused `BinArith`.
        c2: u32,
        /// Cost of the fused `StoreReg`.
        c3: u32,
    },
    /// `LoadReg` + `Push(Int)` + `BinCmp` + `BranchIfZero`: a whole
    /// register-vs-immediate guard in one dispatch — the list-walk
    /// `p != 0` / `t == 0` shape.
    RegImmCmpBranch {
        /// Left-operand register.
        l: LocalId,
        /// Zero served for an uninitialized covered read.
        zk: ZeroKind,
        /// Immediate right operand.
        v: i128,
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
        /// Cost of the fused `Push`.
        c2: u32,
        /// Cost of the fused `BinCmp`.
        c3: u32,
        /// Cost of the fused `BranchIfZero`.
        c4: u32,
    },
    /// `LoadInt` + `BinCmp` + `BranchIfZero`: a memory-bound loop guard
    /// (`i < n->degree`) in one dispatch.
    LoadIntCmpBranch {
        /// Byte width of the load.
        size: u64,
        /// Sign-extend on load.
        signed: bool,
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
        /// Cost of the fused `BinCmp`.
        c2: u32,
        /// Cost of the fused `BranchIfZero`.
        c3: u32,
    },
    /// `LoadInt` + `Push(Int)` + `BinCmp` + `BranchIfZero`: a whole
    /// tag-dispatch guard (`s->kind == K`) in one dispatch.
    LoadIntImmCmpBranch {
        /// Byte width of the load.
        size: u64,
        /// Sign-extend on load.
        signed: bool,
        /// Immediate right operand.
        v: i128,
        /// The comparison.
        op: BinOp,
        /// Branch target when the comparison is false.
        target: u32,
        /// Cost of the fused `Push`.
        c2: u32,
        /// Cost of the fused `BinCmp`.
        c3: u32,
        /// Cost of the fused `BranchIfZero`.
        c4: u32,
    },
    /// `CheckBegin` + `LoadReg` + `CheckEnd`: a whole check of a register
    /// operand.
    CheckReg {
        /// The check.
        c: &'p Check,
        /// Its site.
        site: SiteId,
        /// Operand register.
        l: LocalId,
        /// Zero served for an uninitialized covered read.
        zk: ZeroKind,
        /// Cost of the fused `LoadReg`.
        c2: u32,
        /// Cost of the fused `CheckEnd`.
        c3: u32,
    },
    /// `CheckBegin` + `LoadReg` + `LoadReg` + `PtrAdd` + `CheckEnd`: a
    /// whole `CHECK_SEQ(p + i)` in one dispatch.
    CheckSeqIdx {
        /// The check.
        c: &'p Check,
        /// Its site.
        site: SiteId,
        /// Pointer register.
        p: LocalId,
        /// Zero served for an uninitialized covered read of `p`.
        zp: ZeroKind,
        /// Index register.
        i: LocalId,
        /// Zero served for an uninitialized covered read of `i`.
        zi: ZeroKind,
        /// Static element size in bytes.
        elem: u64,
        /// `MinusPI` (subtract) instead of `PlusPI`.
        neg: bool,
        /// Cost of the fused first `LoadReg`.
        c2: u32,
        /// Cost of the fused second `LoadReg`.
        c3: u32,
        /// Cost of the fused `PtrAdd`.
        c4: u32,
        /// Cost of the fused `CheckEnd`.
        c5: u32,
    },
    /// `Hook` + `Hook`: adjacent guard-machinery checks — most notably
    /// the widener's probe + guarded-residual pair — in one dispatch.
    HookHook {
        /// First check.
        a: &'p Check,
        /// Its site.
        sa: SiteId,
        /// Second check.
        b: &'p Check,
        /// Its site.
        sb: SiteId,
        /// Cost of the fused second `Hook`.
        c2: u32,
    },
}
