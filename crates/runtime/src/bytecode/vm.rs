//! The bytecode dispatch loop.
//!
//! One flat loop drives the whole guest call stack: guest calls push a
//! suspended `VmFrame` and switch `code`/`pc` instead of recursing on the
//! host stack. Control flow, operand order and the batched step costs are
//! the VM's own; every register and memory access, pointer step, check
//! entry and exit, call and frame is an `Interp` primitive the tree engine
//! calls too (`push_frame`/`pop_frame`, `read_reg`/`write_reg`,
//! `load_int`, `store_ptr`, `deref`, `ptr_add`, `check_begin`/`check_end`,
//! `call_extern`, `arith`, `compare`, `eval_cast`, `make_ptr`, ...), and
//! every one the loop runs per op is `#[inline(always)]` (`make
//! vm-inline` checks the release binary), so behaviour can
//! only diverge if compilation placed an op or a cost wrong, which is what
//! the differential suite pins down.

use super::ops::{CompiledFn, OpKind};
use crate::err::RtError;
use crate::interp::{Interp, LocalSlot, Place};
use crate::mem::Pointer;
use crate::value::{PtrVal, Value};
use ccured_cil::ir::{ExternId, FnRef, FuncId};
use std::rc::Rc;

/// A suspended caller: where to resume when the callee returns.
struct VmFrame<'p> {
    code: Rc<CompiledFn<'p>>,
    pc: u32,
    val_base: usize,
    addr_base: usize,
}

fn underflow() -> RtError {
    RtError::Internal("vm operand stack underflow".into())
}

impl<'p> Interp<'p> {
    /// The compiled bytecode for `f`, called on every guest entry to `f`:
    /// compiled once with the full superinstruction set, then cached.
    pub(crate) fn compiled_fn(&mut self, f: FuncId) -> Rc<CompiledFn<'p>> {
        if let Some(code) = &self.compiled[f.idx()] {
            return Rc::clone(code);
        }
        let plan = self.plan(f);
        let code = Rc::new(super::compile(self, f, &plan.mem_locals));
        self.compiled[f.idx()] = Some(Rc::clone(&code));
        code
    }

    /// Runs `f` on the bytecode engine — the VM counterpart of
    /// `run_function`, including its error-path frame cleanup: the tree
    /// engine pops one guest frame per unwound host-stack level, the VM
    /// pops every frame above its entry point (observably identical).
    pub(crate) fn vm_call(&mut self, f: FuncId, args: &[Value]) -> Result<Option<Value>, RtError> {
        let base_frames = self.frames.len();
        let r = self.vm_run(f, args);
        if r.is_err() {
            // A check operand may have been mid-evaluation, like the tree
            // engine's `exec_check` unwinding.
            self.check_restore();
            while self.frames.len() > base_frames {
                self.pop_frame()?;
            }
        }
        r
    }

    fn vm_run(&mut self, f: FuncId, args: &[Value]) -> Result<Option<Value>, RtError> {
        let mut vals: Vec<Value> = Vec::with_capacity(64);
        let mut addrs: Vec<Pointer> = Vec::with_capacity(32);
        let mut stack: Vec<VmFrame<'p>> = Vec::new();
        let mut last: Option<Value> = None;
        let mut val_base = 0usize;
        let mut addr_base = 0usize;
        self.push_frame(f, args)?;
        let mut code = self.compiled_fn(f);
        let mut pc = 0usize;
        loop {
            let op = &code.ops[pc];
            if op.cost != 0 {
                self.add_instrs(op.cost)?;
            }
            match &op.kind {
                OpKind::Nop => {}
                OpKind::Push(v) => vals.push(*v),
                OpKind::LoadReg(l, zk) => {
                    let v = self.read_reg(*l, *zk)?;
                    vals.push(v);
                }
                OpKind::LoadMem(ty) => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let v = self.load_place(Place::Mem(p), *ty)?;
                    vals.push(v);
                }
                OpKind::LoadInt { size, signed } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let v = self.load_int(p, *size, *signed)?;
                    vals.push(Value::Int(v));
                }
                OpKind::LoadFloat { size } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let v = self.load_float(p, *size)?;
                    vals.push(Value::Float(v));
                }
                OpKind::LoadPtr { q } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let v = self.load_ptr(p, *q)?;
                    vals.push(Value::Ptr(v));
                }
                OpKind::StoreReg(l, norm) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let v = norm.apply(v);
                    self.write_reg(*l, v)?;
                }
                OpKind::StoreMem { ty, wild_tag } => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.store_mem_checked(p, *ty, v, *wild_tag)?;
                }
                OpKind::StoreInt { k, size, wild_tag } => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.store_precheck(p, &v, *wild_tag)?;
                    self.store_int(p, *k, *size, v)?;
                }
                OpKind::StoreFloat { size, wild_tag } => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.store_precheck(p, &v, *wild_tag)?;
                    self.store_float(p, *size, v)?;
                }
                OpKind::StorePtr { q, wild_tag } => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.store_precheck(p, &v, *wild_tag)?;
                    self.store_ptr(p, *q, v)?;
                }
                OpKind::LocalAddr(l) => {
                    let p = match self.frame()?.slots[l.idx()] {
                        LocalSlot::Mem(a) => Pointer {
                            alloc: a,
                            offset: 0,
                        },
                        LocalSlot::Reg => {
                            return Err(RtError::Internal(
                                "compiled address of a register local".into(),
                            ))
                        }
                    };
                    addrs.push(p);
                }
                OpKind::GlobalAddr(g) => {
                    let p = Pointer {
                        alloc: self.globals[*g as usize],
                        offset: 0,
                    };
                    addrs.push(p);
                }
                OpKind::Deref => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = self.deref(v)?;
                    addrs.push(p);
                }
                OpKind::FieldAdd(off) => {
                    let p = addrs.last_mut().ok_or_else(underflow)?;
                    *p = p.offset_by(*off);
                }
                OpKind::IndexAdd(es) => {
                    let i = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.last_mut().ok_or_else(underflow)?;
                    *p = self.index(*p, i, *es)?;
                }
                OpKind::MakePtr { ty, extent } => {
                    let (ty, extent) = (*ty, *extent);
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let pv = self.make_ptr(p, ty, extent)?;
                    vals.push(Value::Ptr(pv));
                }
                OpKind::Unop(op, ty) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let r = self.apply_unop(*op, v, *ty)?;
                    vals.push(r);
                }
                OpKind::Binop { op, a_ty, res_ty } => {
                    let (op, a_ty, res_ty) = (*op, *a_ty, *res_ty);
                    let b = vals.pop().ok_or_else(underflow)?;
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.apply_binop(op, a, b, a_ty, res_ty)?;
                    vals.push(r);
                }
                OpKind::BinArith { op, trunc } => {
                    let b = vals.pop().ok_or_else(underflow)?;
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.arith(*op, a, b, *trunc)?;
                    vals.push(r);
                }
                OpKind::BinCmp(op) => {
                    let b = vals.pop().ok_or_else(underflow)?;
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.compare(*op, a, b)?;
                    vals.push(Value::Int(r as i128));
                }
                OpKind::PtrAdd { elem, neg } => {
                    let b = vals.pop().ok_or_else(underflow)?;
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.ptr_add(a, b, Ok(*elem), *neg)?;
                    vals.push(r);
                }
                OpKind::Cast(id) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let r = self.eval_cast(*id, v)?;
                    vals.push(r);
                }
                OpKind::CastNum(norm) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    vals.push(norm.apply(v));
                }
                OpKind::Jump(t) => {
                    pc = *t as usize;
                    continue;
                }
                OpKind::BranchIfZero(t) => {
                    let t = *t as usize;
                    let v = vals.pop().ok_or_else(underflow)?;
                    if !v.is_truthy() {
                        pc = t;
                        continue;
                    }
                }
                OpKind::Switch(tbl) => {
                    let v = vals
                        .pop()
                        .ok_or_else(underflow)?
                        .as_int()
                        .ok_or_else(|| RtError::Unsupported("non-integer switch".into()))?;
                    pc = match tbl.cases.binary_search_by_key(&v, |&(k, _)| k) {
                        Ok(i) => tbl.cases[i].1 as usize,
                        Err(_) => tbl.default as usize,
                    };
                    continue;
                }
                // The snapshot is taken after this op's own cost was
                // charged, like `exec_check` running after the instr step.
                OpKind::CheckBegin(c, site) => self.check_begin(c, *site),
                OpKind::CheckEnd(c, site) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    self.check_end(c, v, *site)?;
                }
                OpKind::Hook(c, site) => {
                    let (c, site) = (*c, *site);
                    // Shared structural executor: guard state lives on the
                    // frame, and `exec_check` restores (instrs, loads)
                    // itself, so both engines agree by construction.
                    self.exec_check(c, site)?;
                }
                OpKind::AddrAsVal => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    vals.push(Value::Ptr(PtrVal::Safe(p)));
                }
                OpKind::CopyAgg { size } => {
                    let src = addrs.pop().ok_or_else(underflow)?;
                    let dst = addrs.pop().ok_or_else(underflow)?;
                    self.copy_agg(dst, src, *size)?;
                }
                OpKind::PushResult => {
                    vals.push(last.unwrap_or(Value::Int(0)));
                }
                OpKind::CallStatic { .. } | OpKind::CallExtern { .. } | OpKind::CallPtr { .. } => {
                    let (callee, argc) = match &op.kind {
                        OpKind::CallStatic { f, argc } => (FnRef::Def(*f), *argc),
                        OpKind::CallExtern { x, argc } => (FnRef::Ext(ExternId(*x)), *argc),
                        OpKind::CallPtr { argc } => {
                            let fv = vals.pop().ok_or_else(underflow)?;
                            (self.resolve_callee(fv)?, *argc)
                        }
                        _ => unreachable!("matched a call op"),
                    };
                    if vals.len() < val_base + argc as usize {
                        return Err(underflow());
                    }
                    let base = vals.len() - argc as usize;
                    match callee {
                        FnRef::Def(f) => {
                            self.push_frame(f, &vals[base..])?;
                            vals.truncate(base);
                            stack.push(VmFrame {
                                code,
                                pc: (pc + 1) as u32,
                                val_base,
                                addr_base,
                            });
                            val_base = vals.len();
                            addr_base = addrs.len();
                            code = self.compiled_fn(f);
                            pc = 0;
                            continue;
                        }
                        FnRef::Ext(x) => {
                            last = self.call_extern(x, &vals[base..])?;
                            vals.truncate(base);
                        }
                    }
                }
                OpKind::Ret { .. } | OpKind::RetDefault(_) => {
                    last = match &op.kind {
                        OpKind::Ret { has_value: true } => Some(vals.pop().ok_or_else(underflow)?),
                        OpKind::RetDefault(v) => *v,
                        _ => None,
                    };
                    self.pop_frame()?;
                    vals.truncate(val_base);
                    addrs.truncate(addr_base);
                    match stack.pop() {
                        Some(fr) => {
                            code = fr.code;
                            pc = fr.pc as usize;
                            val_base = fr.val_base;
                            addr_base = fr.addr_base;
                            continue;
                        }
                        None => return Ok(last),
                    }
                }
                OpKind::Fail(e) => return Err(e.clone()),

                // ---- fused superinstructions ----------------------------
                //
                // Each body replays its constituents in order, charging the
                // later constituents' costs (`c2`/`c3`) exactly where their
                // dispatch would have, so every error — including fuel
                // exhaustion — lands on the same step as unfused execution.
                OpKind::RegBinArith {
                    l,
                    zk,
                    op,
                    trunc,
                    c2,
                } => {
                    let b = self.read_reg(*l, *zk)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.arith(*op, a, b, *trunc)?;
                    vals.push(r);
                }
                OpKind::RegStoreReg {
                    src,
                    zk,
                    dst,
                    norm,
                    c2,
                } => {
                    let v = self.read_reg(*src, *zk)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = norm.apply(v);
                    self.write_reg(*dst, v)?;
                }
                OpKind::PushBinArith { v, op, trunc, c2 } => {
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.arith(*op, a, Value::Int(*v), *trunc)?;
                    vals.push(r);
                }
                OpKind::PushBinCmp { v, op, c2 } => {
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.compare(*op, a, Value::Int(*v))?;
                    vals.push(Value::Int(r as i128));
                }
                OpKind::PushCmpBranch {
                    v,
                    op,
                    target,
                    c2,
                    c3,
                } => {
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.compare(*op, a, Value::Int(*v))?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    if !r {
                        pc = *target as usize;
                        continue;
                    }
                }
                OpKind::PushStoreReg { v, l, norm, c2 } => {
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = norm.apply(Value::Int(*v));
                    self.write_reg(*l, v)?;
                }
                OpKind::CmpBranch { op, target, c2 } => {
                    let b = vals.pop().ok_or_else(underflow)?;
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.compare(*op, a, b)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    if !r {
                        pc = *target as usize;
                        continue;
                    }
                }
                OpKind::ArithStoreReg {
                    op,
                    trunc,
                    l,
                    norm,
                    c2,
                } => {
                    let b = vals.pop().ok_or_else(underflow)?;
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.arith(*op, a, b, *trunc)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let r = norm.apply(r);
                    self.write_reg(*l, r)?;
                }
                OpKind::LoadIntStoreReg {
                    size,
                    signed,
                    l,
                    norm,
                    c2,
                } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let x = self.load_int(p, *size, *signed)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = norm.apply(Value::Int(x));
                    self.write_reg(*l, v)?;
                }

                // ---- extended superinstructions -------------------------
                //
                // Same protocol as above, two constituents deeper.
                OpKind::RegRegCmpBranch {
                    a,
                    za,
                    b,
                    zb,
                    op,
                    target,
                    c2,
                    c3,
                    c4,
                } => {
                    let av = self.read_reg(*a, *za)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let bv = self.read_reg(*b, *zb)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.compare(*op, av, bv)?;
                    if *c4 != 0 {
                        self.add_instrs(*c4)?;
                    }
                    if !r {
                        pc = *target as usize;
                        continue;
                    }
                }
                OpKind::RegRegArith {
                    a,
                    za,
                    b,
                    zb,
                    op,
                    trunc,
                    c2,
                    c3,
                } => {
                    let av = self.read_reg(*a, *za)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let bv = self.read_reg(*b, *zb)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.arith(*op, av, bv, *trunc)?;
                    vals.push(r);
                }
                OpKind::RegRegPtrAdd {
                    p,
                    zp,
                    i,
                    zi,
                    elem,
                    neg,
                    c2,
                    c3,
                } => {
                    let pv = self.read_reg(*p, *zp)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let iv = self.read_reg(*i, *zi)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.ptr_add(pv, iv, Ok(*elem), *neg)?;
                    vals.push(r);
                }
                OpKind::RegImmArith {
                    l,
                    zk,
                    v,
                    op,
                    trunc,
                    c2,
                    c3,
                } => {
                    let a = self.read_reg(*l, *zk)?;
                    // The folded `Push` does no work, but its step (`c2`)
                    // is still charged at its position.
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.arith(*op, a, Value::Int(*v), *trunc)?;
                    vals.push(r);
                }
                OpKind::RegImmArithStore {
                    l,
                    zk,
                    v,
                    op,
                    trunc,
                    dst,
                    norm,
                    c2,
                    c3,
                    c4,
                } => {
                    let a = self.read_reg(*l, *zk)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.arith(*op, a, Value::Int(*v), *trunc)?;
                    if *c4 != 0 {
                        self.add_instrs(*c4)?;
                    }
                    let r = norm.apply(r);
                    self.write_reg(*dst, r)?;
                }
                OpKind::LoadIntArithStore {
                    size,
                    signed,
                    op,
                    trunc,
                    l,
                    norm,
                    c2,
                    c3,
                } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let b = self.load_int(p, *size, *signed)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.arith(*op, a, Value::Int(b), *trunc)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = norm.apply(r);
                    self.write_reg(*l, r)?;
                }
                OpKind::RegImmCmpBranch {
                    l,
                    zk,
                    v,
                    op,
                    target,
                    c2,
                    c3,
                    c4,
                } => {
                    let a = self.read_reg(*l, *zk)?;
                    // The folded `Push` does no work, but its step (`c2`)
                    // is still charged at its position.
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.compare(*op, a, Value::Int(*v))?;
                    if *c4 != 0 {
                        self.add_instrs(*c4)?;
                    }
                    if !r {
                        pc = *target as usize;
                        continue;
                    }
                }
                OpKind::LoadIntCmpBranch {
                    size,
                    signed,
                    op,
                    target,
                    c2,
                    c3,
                } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let b = self.load_int(p, *size, *signed)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.compare(*op, a, Value::Int(b))?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    if !r {
                        pc = *target as usize;
                        continue;
                    }
                }
                OpKind::LoadIntImmCmpBranch {
                    size,
                    signed,
                    v,
                    op,
                    target,
                    c2,
                    c3,
                    c4,
                } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let a = self.load_int(p, *size, *signed)?;
                    // The folded `Push` does no work, but its step (`c2`)
                    // is still charged at its position.
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = self.compare(*op, Value::Int(a), Value::Int(*v))?;
                    if *c4 != 0 {
                        self.add_instrs(*c4)?;
                    }
                    if !r {
                        pc = *target as usize;
                        continue;
                    }
                }
                OpKind::HookHook { a, sa, b, sb, c2 } => {
                    self.exec_check(a, *sa)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    self.exec_check(b, *sb)?;
                }
                OpKind::CheckReg {
                    c,
                    site,
                    l,
                    zk,
                    c2,
                    c3,
                } => {
                    self.check_begin(c, *site);
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = self.read_reg(*l, *zk)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    self.check_end(c, v, *site)?;
                }
                OpKind::CheckSeqIdx {
                    c,
                    site,
                    p,
                    zp,
                    i,
                    zi,
                    elem,
                    neg,
                    c2,
                    c3,
                    c4,
                    c5,
                } => {
                    self.check_begin(c, *site);
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let pv = self.read_reg(*p, *zp)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let iv = self.read_reg(*i, *zi)?;
                    if *c4 != 0 {
                        self.add_instrs(*c4)?;
                    }
                    let v = self.ptr_add(pv, iv, Ok(*elem), *neg)?;
                    if *c5 != 0 {
                        self.add_instrs(*c5)?;
                    }
                    self.check_end(c, v, *site)?;
                }
            }
            pc += 1;
        }
    }
}
