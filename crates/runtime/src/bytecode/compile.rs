//! AST -> bytecode compilation.
//!
//! The compiler walks a function body exactly once, in the order the tree
//! engine evaluates it, and emits a linear op stream. Two invariants carry
//! the whole parity argument:
//!
//! 1. **Cost placement.** The tree engine calls `step()` once per
//!    statement, instruction and expression node, in pre-order. The
//!    compiler keeps a `pending` step accumulator; every emitted op
//!    consumes it as its `cost`. Binding a jump target first flushes
//!    `pending` into a `Nop`, so arriving by jump never pays (or skips)
//!    fall-through steps it shouldn't.
//! 2. **Error placement.** Anything the tree engine decides from static
//!    data alone (a deref of a non-pointer type, an unsized array element,
//!    a goto to an invisible label) compiles to a [`OpKind::Fail`] op at
//!    the exact evaluation position where the tree engine raises it, with
//!    the identical message. The rest of the aborted instruction is
//!    unreachable and is not compiled.
//!
//! `goto` resolution mirrors the tree engine's dynamic bubbling: a label is
//! visible only in its own statement slice, looked up from the jump site
//! outward through lexically enclosing slices (which is exactly the chain
//! of `run_block` activations the tree `Flow::Goto` would unwind).

use super::ops::{CompiledFn, Op, OpKind, RegNorm, SwitchTable, ZeroKind};
use crate::err::RtError;
use crate::interp::{ExecMode, Interp};
use crate::value::{PtrVal, Value};
use ccured_cil::ir::*;
use ccured_cil::types::{Type, TypeId};
use ccured_infer::PtrKind;
use std::collections::HashMap;

/// Compiles `f` into bytecode, fused with the full superinstruction set.
/// `mem_locals` is the function's register/memory slot assignment (from
/// `FnPlan`), which fixes at compile time whether a local access becomes a
/// register op or a memory op.
pub(crate) fn compile<'p>(it: &Interp<'p>, f: FuncId, mem_locals: &[bool]) -> CompiledFn<'p> {
    let prog: &'p Program = it.prog;
    let func: &'p Function = &prog.functions[f.idx()];
    let mut cc = Cc {
        it,
        prog,
        func,
        mem_locals,
        ops: Vec::new(),
        pending: 0,
        labels: Vec::new(),
        scopes: Vec::new(),
        brk: Vec::new(),
        cont: Vec::new(),
    };
    let exit = cc.new_label();
    // `break`/`continue` that escape every loop fall off the function like
    // the tree engine's `Flow::Break` reaching `run_function`.
    cc.brk.push(exit);
    cc.cont.push(exit);
    cc.block(&func.body);
    cc.bind(exit);
    let ret_ty = func.ret_type(&prog.types);
    let default = match prog.types.get(ret_ty) {
        Type::Void => None,
        Type::Float(_) => Some(Value::Float(0.0)),
        Type::Ptr(..) => Some(Value::NULL),
        _ => Some(Value::Int(0)),
    };
    cc.emit(OpKind::RetDefault(default));
    // Peephole-fuse adjacent ops into superinstructions (jump operands are
    // still label slots, so fusing only moves instruction indices), then
    // fuse guard hooks. Each pass returns a raw-index -> stream-index map;
    // the labels follow both, and the second pass reads them in pass-1
    // indices to keep its own jump-target guard exact. Finally label slots
    // are patched to instruction indices.
    let remap = |labels: &mut [u32], map: &[u32]| {
        for l in labels.iter_mut().filter(|l| **l != u32::MAX) {
            *l = map[*l as usize];
        }
    };
    let mut labels = cc.labels;
    let (ops, map) = fuse(cc.ops, &labels);
    remap(&mut labels, &map);
    let (mut ops, map) = fuse_hooks(ops, &labels);
    remap(&mut labels, &map);
    let exit_pc = labels[exit as usize];
    let resolve = |slot: u32| -> u32 {
        let pc = labels[slot as usize];
        if pc == u32::MAX {
            exit_pc
        } else {
            pc
        }
    };
    for op in &mut ops {
        match &mut op.kind {
            OpKind::Jump(t) | OpKind::BranchIfZero(t) => *t = resolve(*t),
            OpKind::CmpBranch { target, .. }
            | OpKind::PushCmpBranch { target, .. }
            | OpKind::RegRegCmpBranch { target, .. }
            | OpKind::RegImmCmpBranch { target, .. }
            | OpKind::LoadIntCmpBranch { target, .. }
            | OpKind::LoadIntImmCmpBranch { target, .. } => *target = resolve(*target),
            OpKind::Switch(tbl) => {
                for (_, t) in &mut tbl.cases {
                    *t = resolve(*t);
                }
                tbl.default = resolve(tbl.default);
            }
            _ => {}
        }
    }
    CompiledFn { ops }
}

/// The peephole pass: fuses adjacent pairs/triples into the
/// superinstruction forms of [`OpKind`]. A fusion never spans a jump
/// target (the target would land mid-superinstruction), which the label
/// table decides exactly. The carrier keeps the first constituent's
/// `cost`; later constituents' costs are stored in the superinstruction
/// and charged between its sub-steps, preserving the tree engine's exact
/// fuel-exhaustion point. Returns the fused stream and an old-index ->
/// new-index map for label remapping.
///
/// The deeper quad/quint patterns and the whole-check fusions are tried
/// before the base set; longest match wins.
fn fuse<'p>(ops: Vec<Op<'p>>, labels: &[u32]) -> (Vec<Op<'p>>, Vec<u32>) {
    let n = ops.len();
    let mut is_target = vec![false; n + 1];
    for &l in labels {
        if l != u32::MAX {
            is_target[l as usize] = true;
        }
    }
    let mut src: Vec<Option<Op<'p>>> = ops.into_iter().map(Some).collect();
    let mut out: Vec<Op<'p>> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        let new_idx = out.len() as u32;
        map[i] = new_idx;
        let op = src[i].take().expect("each op consumed once");
        let (fused, consumed): (Option<OpKind<'p>>, usize) = {
            // Lookahead windows are cumulative: a jump target anywhere in
            // the window kills it and everything past it, so no fusion can
            // span a label.
            let o1 = if i + 1 < n && !is_target[i + 1] {
                src[i + 1].as_ref()
            } else {
                None
            };
            let o2 = if o1.is_some() && i + 2 < n && !is_target[i + 2] {
                src[i + 2].as_ref()
            } else {
                None
            };
            let o3 = if o2.is_some() && i + 3 < n && !is_target[i + 3] {
                src[i + 3].as_ref()
            } else {
                None
            };
            let o4 = if o3.is_some() && i + 4 < n && !is_target[i + 4] {
                src[i + 4].as_ref()
            } else {
                None
            };
            let c2 = o1.map_or(0, |o| o.cost);
            let c3 = o2.map_or(0, |o| o.cost);
            let c4 = o3.map_or(0, |o| o.cost);
            let c5 = o4.map_or(0, |o| o.cost);
            let ext: (Option<OpKind<'p>>, usize) = match (
                &op.kind,
                o1.map(|o| &o.kind),
                o2.map(|o| &o.kind),
                o3.map(|o| &o.kind),
                o4.map(|o| &o.kind),
            ) {
                // A whole CHECK_SEQ(p + i): the single hottest shape
                // in the fig9 corpus.
                (
                    OpKind::CheckBegin(c, site),
                    Some(OpKind::LoadReg(p, zp)),
                    Some(OpKind::LoadReg(ix, zi)),
                    Some(OpKind::PtrAdd { elem, neg }),
                    Some(OpKind::CheckEnd(..)),
                ) => (
                    Some(OpKind::CheckSeqIdx {
                        c,
                        site: *site,
                        p: *p,
                        zp: *zp,
                        i: *ix,
                        zi: *zi,
                        elem: *elem,
                        neg: *neg,
                        c2,
                        c3,
                        c4,
                        c5,
                    }),
                    4,
                ),
                // A register-register loop/if guard.
                (
                    OpKind::LoadReg(a, za),
                    Some(OpKind::LoadReg(b, zb)),
                    Some(OpKind::BinCmp(cop)),
                    Some(OpKind::BranchIfZero(t)),
                    _,
                ) => (
                    Some(OpKind::RegRegCmpBranch {
                        a: *a,
                        za: *za,
                        b: *b,
                        zb: *zb,
                        op: *cop,
                        target: *t,
                        c2,
                        c3,
                        c4,
                    }),
                    3,
                ),
                // The canonical `i = i + 1` quad.
                (
                    OpKind::LoadReg(l, zk),
                    Some(OpKind::Push(Value::Int(v))),
                    Some(OpKind::BinArith { op: aop, trunc }),
                    Some(OpKind::StoreReg(dst, norm)),
                    _,
                ) => (
                    Some(OpKind::RegImmArithStore {
                        l: *l,
                        zk: *zk,
                        v: *v,
                        op: *aop,
                        trunc: *trunc,
                        dst: *dst,
                        norm: *norm,
                        c2,
                        c3,
                        c4,
                    }),
                    3,
                ),
                // A whole check of a register operand.
                (
                    OpKind::CheckBegin(c, site),
                    Some(OpKind::LoadReg(l, zk)),
                    Some(OpKind::CheckEnd(..)),
                    _,
                    _,
                ) => (
                    Some(OpKind::CheckReg {
                        c,
                        site: *site,
                        l: *l,
                        zk: *zk,
                        c2,
                        c3,
                    }),
                    2,
                ),
                (
                    OpKind::LoadReg(a, za),
                    Some(OpKind::LoadReg(b, zb)),
                    Some(OpKind::BinArith { op: aop, trunc }),
                    _,
                    _,
                ) => (
                    Some(OpKind::RegRegArith {
                        a: *a,
                        za: *za,
                        b: *b,
                        zb: *zb,
                        op: *aop,
                        trunc: *trunc,
                        c2,
                        c3,
                    }),
                    2,
                ),
                // The `p + i` of an indexed access.
                (
                    OpKind::LoadReg(p, zp),
                    Some(OpKind::LoadReg(ix, zi)),
                    Some(OpKind::PtrAdd { elem, neg }),
                    _,
                    _,
                ) => (
                    Some(OpKind::RegRegPtrAdd {
                        p: *p,
                        zp: *zp,
                        i: *ix,
                        zi: *zi,
                        elem: *elem,
                        neg: *neg,
                        c2,
                        c3,
                    }),
                    2,
                ),
                (
                    OpKind::LoadReg(l, zk),
                    Some(OpKind::Push(Value::Int(v))),
                    Some(OpKind::BinArith { op: aop, trunc }),
                    _,
                    _,
                ) => (
                    Some(OpKind::RegImmArith {
                        l: *l,
                        zk: *zk,
                        v: *v,
                        op: *aop,
                        trunc: *trunc,
                        c2,
                        c3,
                    }),
                    2,
                ),
                // `s = s + a[i]`'s tail: load, accumulate, store.
                (
                    OpKind::LoadInt { size, signed },
                    Some(OpKind::BinArith { op: aop, trunc }),
                    Some(OpKind::StoreReg(l, norm)),
                    _,
                    _,
                ) => (
                    Some(OpKind::LoadIntArithStore {
                        size: *size,
                        signed: *signed,
                        op: *aop,
                        trunc: *trunc,
                        l: *l,
                        norm: *norm,
                        c2,
                        c3,
                    }),
                    2,
                ),
                // A register-vs-immediate guard: the list-walk
                // `p != 0` / `t == 0` shape.
                (
                    OpKind::LoadReg(l, zk),
                    Some(OpKind::Push(Value::Int(v))),
                    Some(OpKind::BinCmp(cop)),
                    Some(OpKind::BranchIfZero(t)),
                    _,
                ) => (
                    Some(OpKind::RegImmCmpBranch {
                        l: *l,
                        zk: *zk,
                        v: *v,
                        op: *cop,
                        target: *t,
                        c2,
                        c3,
                        c4,
                    }),
                    3,
                ),
                // A memory-bound loop guard: `i < n->degree`.
                (
                    OpKind::LoadInt { size, signed },
                    Some(OpKind::BinCmp(cop)),
                    Some(OpKind::BranchIfZero(t)),
                    _,
                    _,
                ) => (
                    Some(OpKind::LoadIntCmpBranch {
                        size: *size,
                        signed: *signed,
                        op: *cop,
                        target: *t,
                        c2,
                        c3,
                    }),
                    2,
                ),
                // A tag-dispatch guard: `s->kind == K`.
                (
                    OpKind::LoadInt { size, signed },
                    Some(OpKind::Push(Value::Int(v))),
                    Some(OpKind::BinCmp(cop)),
                    Some(OpKind::BranchIfZero(t)),
                    _,
                ) => (
                    Some(OpKind::LoadIntImmCmpBranch {
                        size: *size,
                        signed: *signed,
                        v: *v,
                        op: *cop,
                        target: *t,
                        c2,
                        c3,
                        c4,
                    }),
                    3,
                ),
                _ => (None, 0),
            };
            if ext.0.is_some() {
                ext
            } else {
                match (&op.kind, o1.map(|o| &o.kind), o2.map(|o| &o.kind)) {
                    // Triples first: a full comparison-and-branch condition.
                    (
                        OpKind::Push(Value::Int(v)),
                        Some(OpKind::BinCmp(c)),
                        Some(OpKind::BranchIfZero(t)),
                    ) => (
                        Some(OpKind::PushCmpBranch {
                            v: *v,
                            op: *c,
                            target: *t,
                            c2,
                            c3,
                        }),
                        2,
                    ),
                    // Pairs: fold the right operand into the consumer…
                    (OpKind::LoadReg(l, zk), Some(OpKind::BinArith { op, trunc }), _) => (
                        Some(OpKind::RegBinArith {
                            l: *l,
                            zk: *zk,
                            op: *op,
                            trunc: *trunc,
                            c2,
                        }),
                        1,
                    ),
                    (OpKind::LoadReg(s, zk), Some(OpKind::StoreReg(d, norm)), _) => (
                        Some(OpKind::RegStoreReg {
                            src: *s,
                            zk: *zk,
                            dst: *d,
                            norm: *norm,
                            c2,
                        }),
                        1,
                    ),
                    (OpKind::Push(Value::Int(v)), Some(OpKind::BinArith { op, trunc }), _) => (
                        Some(OpKind::PushBinArith {
                            v: *v,
                            op: *op,
                            trunc: *trunc,
                            c2,
                        }),
                        1,
                    ),
                    (OpKind::Push(Value::Int(v)), Some(OpKind::BinCmp(c)), _) => {
                        (Some(OpKind::PushBinCmp { v: *v, op: *c, c2 }), 1)
                    }
                    (OpKind::Push(Value::Int(v)), Some(OpKind::StoreReg(l, norm)), _) => (
                        Some(OpKind::PushStoreReg {
                            v: *v,
                            l: *l,
                            norm: *norm,
                            c2,
                        }),
                        1,
                    ),
                    (OpKind::LoadInt { size, signed }, Some(OpKind::StoreReg(l, norm)), _) => (
                        Some(OpKind::LoadIntStoreReg {
                            size: *size,
                            signed: *signed,
                            l: *l,
                            norm: *norm,
                            c2,
                        }),
                        1,
                    ),
                    // …and the consumers of a finished comparison/arithmetic.
                    (OpKind::BinCmp(c), Some(OpKind::BranchIfZero(t)), _) => (
                        Some(OpKind::CmpBranch {
                            op: *c,
                            target: *t,
                            c2,
                        }),
                        1,
                    ),
                    (OpKind::BinArith { op, trunc }, Some(OpKind::StoreReg(l, norm)), _) => (
                        Some(OpKind::ArithStoreReg {
                            op: *op,
                            trunc: *trunc,
                            l: *l,
                            norm: *norm,
                            c2,
                        }),
                        1,
                    ),
                    _ => (None, 0),
                }
            }
        };
        match fused {
            Some(kind) => {
                for j in 1..=consumed {
                    src[i + j] = None;
                    map[i + j] = new_idx;
                }
                out.push(Op {
                    cost: op.cost,
                    kind,
                });
                i += consumed + 1;
            }
            None => {
                out.push(op);
                i += 1;
            }
        }
    }
    map[n] = out.len() as u32;
    (out, map)
}

/// The second fusion pass: fuses adjacent guard-machinery `Hook`s. The
/// widener always inserts a `Probe` immediately before the `Guarded`
/// residual it covers, so (Hook, Hook) adjacency is common. Labels must already be in pass-1 indices; same target-spanning rule
/// and cost protocol as [`fuse`].
fn fuse_hooks<'p>(ops: Vec<Op<'p>>, labels: &[u32]) -> (Vec<Op<'p>>, Vec<u32>) {
    let n = ops.len();
    let mut is_target = vec![false; n + 1];
    for &l in labels {
        if l != u32::MAX {
            is_target[l as usize] = true;
        }
    }
    let mut src: Vec<Option<Op<'p>>> = ops.into_iter().map(Some).collect();
    let mut out: Vec<Op<'p>> = Vec::with_capacity(n);
    let mut map = vec![0u32; n + 1];
    let mut i = 0;
    while i < n {
        let new_idx = out.len() as u32;
        map[i] = new_idx;
        let op = src[i].take().expect("each op consumed once");
        let fused: Option<OpKind<'p>> = {
            let o1 = if i + 1 < n && !is_target[i + 1] {
                src[i + 1].as_ref()
            } else {
                None
            };
            let c = o1.map_or(0, |o| o.cost);
            match (&op.kind, o1.map(|o| &o.kind)) {
                (OpKind::Hook(a, sa), Some(OpKind::Hook(b, sb))) => Some(OpKind::HookHook {
                    a,
                    sa: *sa,
                    b,
                    sb: *sb,
                    c2: c,
                }),
                _ => None,
            }
        };
        match fused {
            Some(kind) => {
                src[i + 1] = None;
                map[i + 1] = new_idx;
                out.push(Op {
                    cost: op.cost,
                    kind,
                });
                i += 2;
            }
            None => {
                out.push(op);
                i += 1;
            }
        }
    }
    map[n] = out.len() as u32;
    (out, map)
}

/// Marker: a `Fail` op was emitted; the rest of the aborted evaluation is
/// unreachable and must not be compiled.
struct Stuck;

type CResult = Result<(), Stuck>;

/// Where a compiled lvalue lives: a register, or an address left on the
/// address stack by the emitted ops.
enum CPlace {
    Reg(LocalId),
    Mem,
}

struct Cc<'a, 'p> {
    it: &'a Interp<'p>,
    prog: &'p Program,
    func: &'p Function,
    mem_locals: &'a [bool],
    ops: Vec<Op<'p>>,
    pending: u32,
    /// Label slot -> instruction index (`u32::MAX` until bound).
    labels: Vec<u32>,
    /// One scope per statement slice: direct-child label name -> slot.
    scopes: Vec<HashMap<&'p str, u32>>,
    brk: Vec<u32>,
    cont: Vec<u32>,
}

impl<'p> Cc<'_, 'p> {
    fn emit(&mut self, kind: OpKind<'p>) {
        self.ops.push(Op {
            cost: self.pending,
            kind,
        });
        self.pending = 0;
    }

    fn new_label(&mut self) -> u32 {
        self.labels.push(u32::MAX);
        (self.labels.len() - 1) as u32
    }

    /// Binds `slot` to the next instruction, first flushing pending steps
    /// into a `Nop` so jumps to the label skip the fall-through charge.
    fn bind(&mut self, slot: u32) {
        if self.pending > 0 {
            self.emit(OpKind::Nop);
        }
        debug_assert_eq!(self.labels[slot as usize], u32::MAX, "label bound twice");
        self.labels[slot as usize] = self.ops.len() as u32;
    }

    fn fail(&mut self, e: RtError) -> Stuck {
        self.emit(OpKind::Fail(e));
        Stuck
    }

    fn unsupported(&mut self, msg: impl Into<String>) -> Stuck {
        self.fail(RtError::Unsupported(msg.into()))
    }

    // ------------------------------------------------------------ statements

    fn block(&mut self, stmts: &'p [Stmt]) {
        // Pre-scan the slice's direct-child labels (first occurrence wins,
        // like the tree engine's `label_pos`), so forward gotos resolve.
        let mut scope: HashMap<&'p str, u32> = HashMap::new();
        for s in stmts {
            if let Stmt::Label(name) = s {
                if !scope.contains_key(name.as_str()) {
                    let slot = self.new_label();
                    scope.insert(name.as_str(), slot);
                }
            }
        }
        self.scopes.push(scope);
        for s in stmts {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &'p Stmt) {
        match s {
            Stmt::Instr(is) => {
                self.pending += 1;
                for i in is {
                    self.pending += 1;
                    if self.instr(i).is_err() {
                        // The instruction always aborts; its successors in
                        // this list are unreachable (no labels inside
                        // instruction lists), so skip them.
                        break;
                    }
                }
            }
            Stmt::Block(b) => {
                self.pending += 1;
                self.block(b);
            }
            Stmt::If(c, t, e) => {
                self.pending += 1;
                let else_l = self.new_label();
                let end = self.new_label();
                // A stuck condition always aborts, but the branches may
                // contain labels reachable by goto: compile them anyway.
                if self.exp(c).is_ok() {
                    self.emit(OpKind::BranchIfZero(else_l));
                }
                self.block(t);
                self.emit(OpKind::Jump(end));
                self.bind(else_l);
                self.block(e);
                self.bind(end);
            }
            Stmt::Loop(b) => {
                // The loop statement's own step is paid once on entry; the
                // flush-before-bind puts it *before* the head label, so
                // back edges don't re-pay it.
                self.pending += 1;
                let head = self.new_label();
                let exit = self.new_label();
                self.bind(head);
                self.brk.push(exit);
                self.cont.push(head);
                self.block(b);
                self.emit(OpKind::Jump(head));
                self.cont.pop();
                self.brk.pop();
                self.bind(exit);
            }
            Stmt::Break => {
                self.pending += 1;
                let t = *self.brk.last().expect("break stack is seeded");
                self.emit(OpKind::Jump(t));
            }
            Stmt::Continue => {
                self.pending += 1;
                let t = *self.cont.last().expect("continue stack is seeded");
                self.emit(OpKind::Jump(t));
            }
            Stmt::Return(e) => {
                self.pending += 1;
                match e {
                    Some(e) => {
                        if self.exp(e).is_ok() {
                            self.emit(OpKind::Ret { has_value: true });
                        }
                    }
                    None => self.emit(OpKind::Ret { has_value: false }),
                }
            }
            Stmt::Goto(name) => {
                self.pending += 1;
                let slot = self
                    .scopes
                    .iter()
                    .rev()
                    .find_map(|sc| sc.get(name.as_str()).copied());
                match slot {
                    Some(t) => self.emit(OpKind::Jump(t)),
                    None => {
                        // The tree engine bubbles the goto to function level
                        // and errors there, at no extra step cost.
                        let _ = self.unsupported(format!(
                            "goto to label `{name}` that is not visible from the jump site"
                        ));
                    }
                }
            }
            Stmt::Label(name) => {
                // Bind first, then charge: both fall-through and jumpers
                // execute the label statement's step.
                let slot = self
                    .scopes
                    .last()
                    .and_then(|sc| sc.get(name.as_str()).copied())
                    .expect("label pre-scanned in its slice");
                if self.labels[slot as usize] == u32::MAX {
                    self.bind(slot);
                }
                self.pending += 1;
            }
            Stmt::Switch(scrut, arms) => {
                self.pending += 1;
                let end = self.new_label();
                let arm_labels: Vec<u32> = arms.iter().map(|_| self.new_label()).collect();
                if self.exp(scrut).is_ok() {
                    // First arm listing a value wins; first empty-values arm
                    // is the default — the tree engine's in-order scan.
                    let mut cases: Vec<(i128, u32)> = Vec::new();
                    for (ai, arm) in arms.iter().enumerate() {
                        for &v in &arm.values {
                            if !cases.iter().any(|&(x, _)| x == v) {
                                cases.push((v, arm_labels[ai]));
                            }
                        }
                    }
                    cases.sort_unstable_by_key(|&(v, _)| v);
                    let default = arms
                        .iter()
                        .position(|a| a.values.is_empty())
                        .map(|i| arm_labels[i])
                        .unwrap_or(end);
                    self.emit(OpKind::Switch(Box::new(SwitchTable { cases, default })));
                }
                self.brk.push(end);
                for (ai, arm) in arms.iter().enumerate() {
                    self.bind(arm_labels[ai]);
                    self.block(&arm.body);
                    // Natural fall-through into the next arm.
                }
                self.brk.pop();
                self.bind(end);
            }
        }
    }

    // ---------------------------------------------------------- instructions

    fn instr(&mut self, i: &'p Instr) -> CResult {
        match i {
            Instr::Set(lv, e, _) => {
                let ty = self.lval_type(lv);
                if matches!(self.prog.types.get(ty), Type::Comp(_) | Type::Array(..)) {
                    return self.copy_aggregate(lv, e, ty);
                }
                self.exp(e)?;
                self.store(lv, ty)
            }
            Instr::Call(ret, callee, args, _) => {
                for a in args {
                    if matches!(self.prog.types.get(a.ty()), Type::Comp(_) | Type::Array(..)) {
                        // Aggregates pass by value as a source address; the
                        // tree engine charges no step for the Load node.
                        let lv = match a {
                            Exp::Load(lv, _) => lv,
                            _ => {
                                return Err(self.unsupported("aggregate argument is not an lvalue"))
                            }
                        };
                        match self.lval(lv)? {
                            CPlace::Mem => self.emit(OpKind::AddrAsVal),
                            CPlace::Reg(_) => {
                                return Err(self.unsupported("aggregate argument in register"))
                            }
                        }
                        continue;
                    }
                    self.exp(a)?;
                }
                let argc = args.len() as u32;
                match callee {
                    Callee::Func(f) => self.emit(OpKind::CallStatic { f: *f, argc }),
                    Callee::Extern(x) => self.emit(OpKind::CallExtern { x: x.0, argc }),
                    Callee::Ptr(e) => {
                        // The function-pointer expression evaluates after
                        // the arguments, like the tree engine.
                        self.exp(e)?;
                        self.emit(OpKind::CallPtr { argc });
                    }
                }
                if let Some(lv) = ret {
                    let ty = self.lval_type(lv);
                    self.emit(OpKind::PushResult);
                    self.store(lv, ty)?;
                }
                Ok(())
            }
            Instr::Check(c, _, site) => {
                match c.operand() {
                    Some(operand) => {
                        self.emit(OpKind::CheckBegin(c, *site));
                        self.exp(operand)?;
                        self.emit(OpKind::CheckEnd(c, *site));
                    }
                    // Guard machinery (probe/guarded/reset) has no single
                    // operand; the VM hands the whole check to the shared
                    // structural executor.
                    None => self.emit(OpKind::Hook(c, *site)),
                }
                Ok(())
            }
        }
    }

    fn copy_aggregate(&mut self, lv: &'p Lval, e: &'p Exp, ty: TypeId) -> CResult {
        let src = match e {
            Exp::Load(src_lv, _) => src_lv,
            _ => return Err(self.unsupported("aggregate rvalue is not an lvalue")),
        };
        let size = match self.prog.types.size_of(ty) {
            Ok(s) => s,
            Err(e) => return Err(self.unsupported(format!("aggregate copy: {e}"))),
        };
        match self.lval(lv)? {
            CPlace::Mem => {}
            CPlace::Reg(_) => return Err(self.unsupported("aggregate in register")),
        }
        match self.lval(src)? {
            CPlace::Mem => {}
            CPlace::Reg(_) => return Err(self.unsupported("aggregate in register")),
        }
        self.emit(OpKind::CopyAgg { size });
        Ok(())
    }

    /// Emits the store of the value on top of the stack into `lv` (resolved
    /// after the value, like the tree engine's `store_lval`).
    fn store(&mut self, lv: &'p Lval, ty: TypeId) -> CResult {
        match self.lval(lv)? {
            CPlace::Reg(l) => {
                let norm = match self.prog.types.get(ty) {
                    Type::Int(k) => RegNorm::Int(*k),
                    Type::Float(ccured_cil::types::FloatKind::Float) => RegNorm::Float32,
                    Type::Float(_) => RegNorm::Float64,
                    _ => RegNorm::Pass,
                };
                self.emit(OpKind::StoreReg(l, norm));
            }
            CPlace::Mem => {
                // WILD stores through a deref pay tag-bitmap upkeep; the
                // qualifier is static, so decide here.
                let wild_tag = match (&self.it.mode, &lv.base) {
                    (ExecMode::Cured { sol, .. }, LvBase::Deref(e)) if lv.is_deref() => self
                        .prog
                        .types
                        .ptr_parts(e.ty())
                        .map(|(_, q)| sol.kind(q) == PtrKind::Wild)
                        .unwrap_or(false),
                    _ => false,
                };
                // Resolve the scalar layout now so the dispatch loop skips
                // the per-store type walk; non-scalar targets keep the
                // generic op (it raises the tree engine's exact error).
                let machine = &self.prog.types.machine;
                match self.prog.types.get(ty) {
                    Type::Int(k) => self.emit(OpKind::StoreInt {
                        k: *k,
                        size: machine.int_size(*k),
                        wild_tag,
                    }),
                    Type::Float(fk) => self.emit(OpKind::StoreFloat {
                        size: machine.float_size(*fk),
                        wild_tag,
                    }),
                    Type::Ptr(_, q) => self.emit(OpKind::StorePtr { q: *q, wild_tag }),
                    _ => self.emit(OpKind::StoreMem { ty, wild_tag }),
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- expressions

    fn exp(&mut self, e: &'p Exp) -> CResult {
        self.pending += 1;
        match e {
            Exp::Const(Const::Int(v, _), _) => self.emit(OpKind::Push(Value::Int(*v))),
            Exp::Const(Const::Float(v, _), _) => self.emit(OpKind::Push(Value::Float(*v))),
            Exp::SizeOf(_, n, _) => self.emit(OpKind::Push(Value::Int(*n as i128))),
            Exp::FnAddr(f, _) => self.emit(OpKind::Push(Value::Ptr(PtrVal::Fn(*f)))),
            Exp::Load(lv, ty) => match self.lval(lv)? {
                CPlace::Reg(l) => {
                    // Compressed form of `zero_value(*ty)`.
                    let zk = match self.prog.types.get(*ty) {
                        Type::Float(_) => ZeroKind::Float,
                        Type::Ptr(..) => ZeroKind::Ptr,
                        _ => ZeroKind::Int,
                    };
                    self.emit(OpKind::LoadReg(l, zk));
                }
                CPlace::Mem => {
                    let machine = &self.prog.types.machine;
                    match self.prog.types.get(*ty) {
                        Type::Int(k) => self.emit(OpKind::LoadInt {
                            size: machine.int_size(*k),
                            signed: k.is_signed(),
                        }),
                        Type::Float(fk) => self.emit(OpKind::LoadFloat {
                            size: machine.float_size(*fk),
                        }),
                        Type::Ptr(_, q) => self.emit(OpKind::LoadPtr { q: *q }),
                        _ => self.emit(OpKind::LoadMem(*ty)),
                    }
                }
            },
            Exp::AddrOf(lv, ty) => match self.lval(lv)? {
                CPlace::Mem => self.emit(OpKind::MakePtr {
                    ty: *ty,
                    extent: None,
                }),
                CPlace::Reg(_) => {
                    return Err(self.unsupported("address of register-allocated local"))
                }
            },
            Exp::StartOf(lv, ty) => {
                let arr_ty = self.lval_type(lv);
                match self.lval(lv)? {
                    CPlace::Mem => {}
                    CPlace::Reg(_) => return Err(self.unsupported("array in register")),
                }
                let extent = match self.prog.types.get(arr_ty) {
                    Type::Array(elem, Some(n)) => match self.it.elem_size(*elem) {
                        Ok(es) => Some(n * es),
                        Err(e) => return Err(self.fail(e)),
                    },
                    _ => None,
                };
                self.emit(OpKind::MakePtr { ty: *ty, extent });
            }
            Exp::Unop(op, x, ty) => {
                self.exp(x)?;
                self.emit(OpKind::Unop(*op, *ty));
            }
            Exp::Binop(op, a, b, ty) => {
                self.exp(a)?;
                self.exp(b)?;
                self.emit(self.binop_kind(*op, a.ty(), *ty));
            }
            Exp::Cast(id, x, _) => {
                self.exp(x)?;
                self.emit(self.cast_kind(*id));
            }
        }
        Ok(())
    }

    /// Specializes a binary operator: comparisons carry no type data,
    /// arithmetic pre-resolves the result truncation, and pointer bumps
    /// pre-resolve the element size. Shapes the fast ops do not reproduce
    /// exactly (`MinusPP`, unsized elements) keep the generic op, whose
    /// dispatch calls the reference `apply_binop` unchanged.
    fn binop_kind(&self, op: BinOp, a_ty: TypeId, res_ty: TypeId) -> OpKind<'p> {
        use ccured_cil::ir::BinOp::*;
        let generic = OpKind::Binop { op, a_ty, res_ty };
        match op {
            Lt | Gt | Le | Ge | Eq | Ne => OpKind::BinCmp(op),
            PlusPI | MinusPI => {
                let elem = match self.prog.types.ptr_parts(a_ty) {
                    Some((t, _)) => match self.it.elem_size(t) {
                        Ok(es) => es,
                        // The tree engine raises the sizing error inside
                        // `apply_binop`, after both operands: keep generic.
                        Err(_) => return generic,
                    },
                    None => 1,
                };
                OpKind::PtrAdd {
                    elem,
                    neg: op == MinusPI,
                }
            }
            MinusPP => generic,
            _ => OpKind::BinArith {
                op,
                trunc: self.it.int_kind(res_ty),
            },
        }
    }

    /// Specializes a cast: when neither side is a pointer the conversion is
    /// a static scalar-normalization rule; every pointer shape keeps the
    /// generic op (representation conversion needs the full cast site).
    fn cast_kind(&self, id: CastId) -> OpKind<'p> {
        let site = &self.prog.casts[id.idx()];
        let types = &self.prog.types;
        if types.ptr_parts(site.from).is_some() || types.ptr_parts(site.to).is_some() {
            return OpKind::Cast(id);
        }
        OpKind::CastNum(match types.get(site.to) {
            Type::Int(k) => RegNorm::Int(*k),
            Type::Float(ccured_cil::types::FloatKind::Float) => RegNorm::Float32,
            Type::Float(_) => RegNorm::Float64,
            _ => RegNorm::Pass,
        })
    }

    // --------------------------------------------------------------- lvalues

    fn lval_type(&self, lv: &Lval) -> TypeId {
        ccured_infer::gen::lval_type(self.prog, self.func, lv)
    }

    /// Compiles lvalue resolution. For a `Mem` place the emitted ops leave
    /// the address on the address stack; a `Reg` place emits nothing.
    fn lval(&mut self, lv: &'p Lval) -> Result<CPlace, Stuck> {
        let mut ty: TypeId;
        match &lv.base {
            LvBase::Local(l) => {
                ty = self.func.locals[l.idx()].ty;
                if self.mem_locals[l.idx()] {
                    self.emit(OpKind::LocalAddr(*l));
                } else if lv.offsets.is_empty() {
                    return Ok(CPlace::Reg(*l));
                } else {
                    return Err(self.unsupported("offsets into register-allocated local"));
                }
            }
            LvBase::Global(g) => {
                ty = self.prog.globals[g.idx()].ty;
                self.emit(OpKind::GlobalAddr(g.0));
            }
            LvBase::Deref(e) => {
                // The static type test precedes the operand evaluation.
                ty = match self.prog.types.ptr_parts(e.ty()) {
                    Some((t, _)) => t,
                    None => return Err(self.unsupported("deref of non-pointer type")),
                };
                self.exp(e)?;
                self.emit(OpKind::Deref);
            }
        }
        for off in &lv.offsets {
            match off {
                Offset::Field(cid, idx) => {
                    let f = &self.prog.types.comp(*cid).fields[*idx];
                    self.emit(OpKind::FieldAdd(f.offset as i64));
                    ty = f.ty;
                }
                Offset::Index(e) => {
                    // Array-ness and element sizing are static and precede
                    // the index evaluation, like the tree engine.
                    let (elem, es) = match self.prog.types.get(ty) {
                        Type::Array(elem, _) => match self.prog.types.size_of(*elem) {
                            Ok(es) => (*elem, es),
                            Err(e) => return Err(self.unsupported(format!("array element: {e}"))),
                        },
                        _ => return Err(self.unsupported("index into non-array")),
                    };
                    self.exp(e)?;
                    self.emit(OpKind::IndexAdd(es));
                    ty = elem;
                }
            }
        }
        Ok(CPlace::Mem)
    }
}
