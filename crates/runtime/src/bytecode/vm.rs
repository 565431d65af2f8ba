//! The bytecode dispatch loop.
//!
//! One flat loop drives the whole guest call stack: guest calls push a
//! suspended `VmFrame` and switch `code`/`pc` instead of recursing on the
//! host stack (the host-stack-depth sandbox check in `push_frame` still
//! applies unchanged). All memory, counter, limit and check machinery is
//! the same `Interp` state the tree engine uses — the ops below call the
//! exact same `pub(crate)` helpers (`load_place`, `store_mem_checked`,
//! `apply_binop`, `arith`, `compare`, `eval_cast`, `make_ptr`, ...), so
//! behaviour can only diverge if compilation placed an op or a cost wrong,
//! which is what the differential suite pins down.

use super::ops::{CompiledFn, OpKind, RegNorm, ZeroKind};
use crate::err::RtError;
use crate::interp::{no_frame, trunc_int, ExecMode, Frame, Interp, LocalSlot, Place};
use crate::mem::{AllocKind, Pointer};
use crate::value::{PtrVal, Value};
use ccured_cil::ir::{FnRef, FuncId, LocalId};
use ccured_cil::types::Type;
use std::rc::Rc;

/// Precomputed frame layout for the VM's fast call path — everything
/// `push_frame` re-derives from the type tables on every call, resolved
/// once per function: which locals get memory slots (and their sizes),
/// and the store normalization of each register parameter. Functions the
/// plan cannot describe exactly (an unsized local) fall back to the
/// generic `push_frame` wholesale; parameters it cannot describe (memory
/// or aggregate bindings) fall back per-parameter to `store_local`.
pub(crate) struct FramePlan {
    /// Per local: `Some(size)` = memory slot of that size, `None` = register.
    slot_sizes: Vec<Option<u64>>,
    /// Per parameter: `Some(norm)` = register scalar, stored directly;
    /// `None` = generic `store_local` (memory slot, aggregate copy).
    params: Vec<Option<RegNorm>>,
    /// The shared per-function facts, cloned into each frame.
    info: Rc<crate::interp::FnInfo>,
}

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
        let idx = f.0 as usize;
        if let Some(Some(code)) = self.compiled.get(idx) {
            return Rc::clone(code);
        }
        let info = self.fn_info(f);
        let code = Rc::new(super::compile(self, f, &info.mem_locals));
        if self.compiled.len() <= idx {
            self.compiled.resize(idx + 1, None);
        }
        self.compiled[idx] = Some(Rc::clone(&code));
        code
    }

    /// The frame plan for `f`, built on first use. `None` means the
    /// function has a local the plan cannot size statically; callers use
    /// the generic `push_frame` for it (preserving its exact error and
    /// counter behaviour).
    fn frame_plan(&mut self, f: FuncId) -> Option<Rc<FramePlan>> {
        let idx = f.0 as usize;
        if let Some(Some(entry)) = self.frame_plans.get(idx) {
            return entry.clone();
        }
        let info = self.fn_info(f);
        let func = &self.prog.functions[f.idx()];
        let mut slot_sizes = Vec::with_capacity(func.locals.len());
        let mut sizable = true;
        for (i, l) in func.locals.iter().enumerate() {
            if info.mem_locals[i] {
                match self.sized(l.ty, "stack local") {
                    Ok(size) => slot_sizes.push(Some(size.max(1))),
                    Err(_) => {
                        sizable = false;
                        break;
                    }
                }
            } else {
                slot_sizes.push(None);
            }
        }
        let entry = if sizable {
            let params = func
                .locals
                .iter()
                .take(func.param_count)
                .enumerate()
                .map(|(i, l)| {
                    if info.mem_locals[i] {
                        return None;
                    }
                    // The same declared-type table `StoreReg` compilation
                    // uses; `RegNorm::apply` mirrors `normalize_scalar`.
                    Some(match self.prog.types.get(l.ty) {
                        Type::Int(k) => RegNorm::Int(*k),
                        Type::Float(ccured_cil::types::FloatKind::Float) => RegNorm::Float32,
                        Type::Float(_) => RegNorm::Float64,
                        _ => RegNorm::Pass,
                    })
                })
                .collect();
            Some(Rc::new(FramePlan {
                slot_sizes,
                params,
                info,
            }))
        } else {
            None
        };
        if self.frame_plans.len() <= idx {
            self.frame_plans.resize(idx + 1, None);
        }
        self.frame_plans[idx] = Some(entry.clone());
        entry
    }

    /// `push_frame` specialized for the VM: same counters, same allocation
    /// order, same errors — but the type-table walks are precomputed in
    /// the [`FramePlan`], the frame buffers come from a recycling pool, and
    /// the arguments are bound straight from the tail of the caller's
    /// operand stack, so a steady-state call allocates nothing.
    fn vm_push_frame(
        &mut self,
        f: FuncId,
        vals: &mut Vec<Value>,
        argc: usize,
    ) -> Result<(), RtError> {
        let Some(plan) = self.frame_plan(f) else {
            let args = vals.split_off(vals.len() - argc);
            return self.push_frame(f, args);
        };
        self.counters.limit_checks += 1;
        if self.frames.len() >= self.limits.max_stack_depth {
            return Err(RtError::LimitExceeded {
                limit: "stack_limit",
                detail: format!(
                    "call depth exceeded the {}-frame stack cap",
                    self.limits.max_stack_depth
                ),
            });
        }
        let seq = self.next_frame_seq;
        self.next_frame_seq += 1;
        let (mut regs, mut slots, mut guards) = self.frame_pool.pop().unwrap_or_default();
        regs.clear();
        slots.clear();
        guards.clear();
        for sz in &plan.slot_sizes {
            match sz {
                None => slots.push(LocalSlot::Reg),
                Some(size) => {
                    let id = self.mem.alloc(*size, AllocKind::Stack { frame: seq })?;
                    self.register_alloc(id);
                    slots.push(LocalSlot::Mem(id));
                }
            }
            regs.push(None);
        }
        self.frames.push(Frame {
            func: f,
            seq,
            regs,
            slots,
            info: Rc::clone(&plan.info),
            guards,
        });
        self.counters.calls += 1;
        self.counters.peak_stack_depth =
            self.counters.peak_stack_depth.max(self.frames.len() as u64);
        let base = vals.len() - argc;
        for i in 0..argc.min(plan.params.len()) {
            let v = vals[base + i];
            match plan.params[i] {
                Some(norm) => {
                    let v = norm.apply(v, &self.prog.types.machine);
                    let fr = self.frames.last_mut().ok_or_else(no_frame)?;
                    fr.regs[i] = Some(v);
                }
                None => {
                    let ty = self.prog.functions[f.idx()].locals[i].ty;
                    self.store_local(LocalId(i as u32), ty, v)?;
                }
            }
        }
        vals.truncate(base);
        Ok(())
    }

    /// Returns a popped frame's buffers to the recycling pool (bounded, so
    /// a deep-recursion spike does not pin memory forever).
    #[inline]
    fn recycle_frame(&mut self, fr: Frame) {
        if self.frame_pool.len() < 64 {
            self.frame_pool.push((fr.regs, fr.slots, fr.guards));
        }
    }

    /// Runs `f` on the bytecode engine — the VM counterpart of
    /// `run_function`, including its error-path frame cleanup: the tree
    /// engine pops one guest frame per unwound host-stack level, the VM
    /// pops every frame above its entry point (observably identical).
    pub(crate) fn vm_call(
        &mut self,
        f: FuncId,
        args: Vec<Value>,
    ) -> Result<Option<Value>, RtError> {
        if !self.globals_ready {
            self.init_globals()?;
            self.globals_ready = true;
        }
        let base_frames = self.frames.len();
        let r = self.vm_run(f, args);
        if r.is_err() {
            // A check operand was mid-evaluation: restore its snapshot,
            // like the tree engine's `exec_check` does before propagating.
            if let Some((instrs, loads)) = self.vm_check_save.take() {
                self.counters.instrs = instrs;
                self.counters.loads = loads;
            }
            while self.frames.len() > base_frames {
                if let Some(fr) = self.frames.last() {
                    self.mem.kill_frame(fr.seq);
                }
                self.frames.pop();
            }
        }
        r
    }

    /// Register read (the `LoadReg` body, shared with the fused forms).
    #[inline]
    fn vm_read_reg(&self, l: LocalId, zk: ZeroKind) -> Result<Value, RtError> {
        let fr = self.frames.last().ok_or_else(no_frame)?;
        match fr.regs[l.idx()] {
            Some(v) => Ok(v),
            // The zeroing allocator extends to register locals, exactly
            // like `load_place`.
            None if self.zero_init => Ok(zk.value()),
            None => Err(RtError::UninitRead),
        }
    }

    /// Register write (the `StoreReg` tail, shared with the fused forms;
    /// the caller has already normalized `v`).
    #[inline]
    fn vm_store_reg(&mut self, l: LocalId, v: Value) -> Result<(), RtError> {
        let fr = self.frames.last_mut().ok_or_else(no_frame)?;
        fr.regs[l.idx()] = Some(v);
        Ok(())
    }

    fn vm_run(&mut self, f: FuncId, args: Vec<Value>) -> Result<Option<Value>, RtError> {
        let mut vals: Vec<Value> = Vec::with_capacity(64);
        let mut addrs: Vec<Pointer> = Vec::with_capacity(32);
        let mut stack: Vec<VmFrame<'p>> = Vec::new();
        let mut last: Option<Value> = None;
        let mut val_base = 0usize;
        let mut addr_base = 0usize;
        let argc = args.len();
        vals.extend(args);
        self.vm_push_frame(f, &mut vals, argc)?;
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
                    let v = self.vm_read_reg(*l, *zk)?;
                    vals.push(v);
                }
                OpKind::LoadMem(ty) => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    let v = self.load_place(Place::Mem(p), *ty)?;
                    vals.push(v);
                }
                OpKind::LoadInt { size, signed } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.access_hook(p, *size, false)?;
                    self.counters.loads += 1;
                    let v = self.mem.read_int(p, *size, *signed)?;
                    vals.push(Value::Int(v));
                }
                OpKind::LoadFloat { size } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.access_hook(p, *size, false)?;
                    self.counters.loads += 1;
                    let v = self.mem.read_float(p, *size)?;
                    vals.push(Value::Float(v));
                }
                OpKind::LoadPtr { q } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.access_hook(p, self.word, false)?;
                    self.counters.loads += 1;
                    let v = self.mem.read_ptr(p, self.word)?;
                    if let ExecMode::Cured { sol, .. } = self.mode {
                        if sol.is_split(*q) {
                            self.counters.meta_ops += 1;
                        }
                    }
                    vals.push(Value::Ptr(v));
                }
                OpKind::StoreReg(l, norm) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let v = norm.apply(v, &self.prog.types.machine);
                    let fr = self.frames.last_mut().ok_or_else(no_frame)?;
                    fr.regs[l.idx()] = Some(v);
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
                    self.access_hook(p, *size, true)?;
                    self.counters.stores += 1;
                    let x = match v {
                        Value::Int(x) => x,
                        Value::Float(f) => f as i128,
                        Value::Ptr(pv) => self.mem.va_of(&pv) as i128,
                    };
                    self.mem
                        .write_int(p, *size, trunc_int(x, *k, &self.prog.types.machine))?;
                }
                OpKind::StoreFloat { size, wild_tag } => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.store_precheck(p, &v, *wild_tag)?;
                    self.access_hook(p, *size, true)?;
                    self.counters.stores += 1;
                    let f = match v {
                        Value::Float(f) => f,
                        Value::Int(x) => x as f64,
                        Value::Ptr(_) => {
                            return Err(RtError::Unsupported("pointer stored as float".into()))
                        }
                    };
                    self.mem.write_float(p, *size, f)?;
                }
                OpKind::StorePtr { q, wild_tag } => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.store_precheck(p, &v, *wild_tag)?;
                    self.access_hook(p, self.word, true)?;
                    self.counters.stores += 1;
                    let pv = match v {
                        Value::Ptr(pv) => pv,
                        Value::Int(0) => PtrVal::Null,
                        Value::Int(x) => PtrVal::IntVal(x as u64),
                        Value::Float(_) => {
                            return Err(RtError::Unsupported("float stored as pointer".into()))
                        }
                    };
                    if let ExecMode::Cured { sol, .. } = self.mode {
                        if sol.is_split(*q) {
                            self.counters.meta_ops += 1;
                        }
                    }
                    self.mem.write_ptr(p, pv, self.word)?;
                }
                OpKind::LocalAddr(l) => {
                    let p = match self.frame()?.slots[l.idx()] {
                        crate::interp::LocalSlot::Mem(a) => Pointer {
                            alloc: a,
                            offset: 0,
                        },
                        crate::interp::LocalSlot::Reg => {
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
                    let pv = v
                        .as_ptr()
                        .ok_or_else(|| RtError::Unsupported("deref of non-pointer value".into()))?;
                    self.deref_hook(&pv)?;
                    let p = match pv {
                        PtrVal::Null => return Err(RtError::NullDeref),
                        PtrVal::IntVal(x) => {
                            return Err(RtError::InvalidPointer(format!(
                                "integer {x:#x} dereferenced"
                            )))
                        }
                        PtrVal::Fn(_) => {
                            return Err(RtError::InvalidPointer(
                                "function pointer dereferenced".into(),
                            ))
                        }
                        other => other.thin().ok_or_else(|| {
                            RtError::Internal("dereferenced pointer has no memory position".into())
                        })?,
                    };
                    addrs.push(p);
                }
                OpKind::FieldAdd(off) => {
                    let p = addrs.last_mut().ok_or_else(underflow)?;
                    *p = p.offset_by(*off);
                }
                OpKind::IndexAdd(es) => {
                    let i = vals
                        .pop()
                        .ok_or_else(underflow)?
                        .as_int()
                        .ok_or_else(|| RtError::Unsupported("non-integer index".into()))?;
                    let p = addrs.last_mut().ok_or_else(underflow)?;
                    *p = p.offset_by(i as i64 * *es as i64);
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
                    let pv = a.as_ptr().ok_or_else(|| {
                        RtError::Unsupported("pointer arithmetic on non-pointer".into())
                    })?;
                    let n = b.as_int().ok_or_else(|| {
                        RtError::Unsupported("pointer arithmetic with non-integer".into())
                    })?;
                    let delta = (n as i64).wrapping_mul(*elem as i64);
                    let delta = if *neg { -delta } else { delta };
                    self.ptr_arith_hook(&pv)?;
                    vals.push(Value::Ptr(pv.offset_by(delta)));
                }
                OpKind::Cast(id) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    let r = self.eval_cast(*id, v)?;
                    vals.push(r);
                }
                OpKind::CastNum(norm) => {
                    let v = vals.pop().ok_or_else(underflow)?;
                    vals.push(norm.apply(v, &self.prog.types.machine));
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
                OpKind::CheckBegin(c, site) => {
                    let (c, site) = (*c, *site);
                    // Snapshot first (after this op's own cost was charged,
                    // mirroring `exec_check` running after the instr step).
                    self.vm_check_save = Some((self.counters.instrs, self.counters.loads));
                    self.bump_check_counter(c, site);
                }
                OpKind::CheckEnd(c, site) => {
                    let (c, site) = (*c, *site);
                    let v = vals.pop().ok_or_else(underflow)?;
                    if let Some((instrs, loads)) = self.vm_check_save.take() {
                        self.counters.instrs = instrs;
                        self.counters.loads = loads;
                    }
                    self.check_verdict(c, v, site)?;
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
                    let size = *size;
                    let src = addrs.pop().ok_or_else(underflow)?;
                    let dst = addrs.pop().ok_or_else(underflow)?;
                    self.access_hook(src, size, false)?;
                    self.access_hook(dst, size, true)?;
                    self.counters.loads += 1;
                    self.counters.stores += 1;
                    self.mem.copy_region(dst, src, size)?;
                }
                OpKind::PushResult => {
                    vals.push(last.unwrap_or(Value::Int(0)));
                }
                OpKind::CallStatic { f, argc } => {
                    let (f, argc) = (*f, *argc as usize);
                    if vals.len() < val_base + argc {
                        return Err(underflow());
                    }
                    self.vm_push_frame(f, &mut vals, argc)?;
                    let callee = self.compiled_fn(f);
                    stack.push(VmFrame {
                        code,
                        pc: (pc + 1) as u32,
                        val_base,
                        addr_base,
                    });
                    val_base = vals.len();
                    addr_base = addrs.len();
                    code = callee;
                    pc = 0;
                    continue;
                }
                OpKind::CallExtern { x, argc } => {
                    let (x, argc) = (*x as usize, *argc as usize);
                    if vals.len() < val_base + argc {
                        return Err(underflow());
                    }
                    let base = vals.len() - argc;
                    let prog = self.prog;
                    let name = prog.externals[x].name.as_str();
                    self.counters.extern_calls += 1;
                    last = crate::external::call(self, name, &vals[base..])?;
                    vals.truncate(base);
                }
                OpKind::CallPtr { argc } => {
                    let argc = *argc as usize;
                    let fv = vals.pop().ok_or_else(underflow)?;
                    if vals.len() < val_base + argc {
                        return Err(underflow());
                    }
                    match fv.as_ptr() {
                        Some(PtrVal::Fn(FnRef::Def(f))) => {
                            self.vm_push_frame(f, &mut vals, argc)?;
                            let callee = self.compiled_fn(f);
                            stack.push(VmFrame {
                                code,
                                pc: (pc + 1) as u32,
                                val_base,
                                addr_base,
                            });
                            val_base = vals.len();
                            addr_base = addrs.len();
                            code = callee;
                            pc = 0;
                            continue;
                        }
                        Some(PtrVal::Fn(FnRef::Ext(x))) => {
                            let base = vals.len() - argc;
                            let prog = self.prog;
                            let name = prog.externals[x.idx()].name.as_str();
                            self.counters.extern_calls += 1;
                            last = crate::external::call(self, name, &vals[base..])?;
                            vals.truncate(base);
                        }
                        Some(PtrVal::Null) => return Err(RtError::NullDeref),
                        _ => return Err(RtError::NotAFunction),
                    }
                }
                OpKind::Ret { has_value } => {
                    let v = if *has_value {
                        Some(vals.pop().ok_or_else(underflow)?)
                    } else {
                        None
                    };
                    let seq = self.frame()?.seq;
                    self.mem.kill_frame(seq);
                    if let Some(fr) = self.frames.pop() {
                        self.recycle_frame(fr);
                    }
                    vals.truncate(val_base);
                    addrs.truncate(addr_base);
                    last = v;
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
                OpKind::RetDefault(v) => {
                    let v = *v;
                    let seq = self.frame()?.seq;
                    self.mem.kill_frame(seq);
                    if let Some(fr) = self.frames.pop() {
                        self.recycle_frame(fr);
                    }
                    vals.truncate(val_base);
                    addrs.truncate(addr_base);
                    last = v;
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
                    let b = self.vm_read_reg(*l, *zk)?;
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
                    let v = self.vm_read_reg(*src, *zk)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = norm.apply(v, &self.prog.types.machine);
                    self.vm_store_reg(*dst, v)?;
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
                    let v = norm.apply(Value::Int(*v), &self.prog.types.machine);
                    self.vm_store_reg(*l, v)?;
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
                    let r = norm.apply(r, &self.prog.types.machine);
                    self.vm_store_reg(*l, r)?;
                }
                OpKind::LoadIntStoreReg {
                    size,
                    signed,
                    l,
                    norm,
                    c2,
                } => {
                    let p = addrs.pop().ok_or_else(underflow)?;
                    self.access_hook(p, *size, false)?;
                    self.counters.loads += 1;
                    let x = self.mem.read_int(p, *size, *signed)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = norm.apply(Value::Int(x), &self.prog.types.machine);
                    self.vm_store_reg(*l, v)?;
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
                    let av = self.vm_read_reg(*a, *za)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let bv = self.vm_read_reg(*b, *zb)?;
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
                    let av = self.vm_read_reg(*a, *za)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let bv = self.vm_read_reg(*b, *zb)?;
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
                    let pv_v = self.vm_read_reg(*p, *zp)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let iv = self.vm_read_reg(*i, *zi)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let pv = pv_v.as_ptr().ok_or_else(|| {
                        RtError::Unsupported("pointer arithmetic on non-pointer".into())
                    })?;
                    let n = iv.as_int().ok_or_else(|| {
                        RtError::Unsupported("pointer arithmetic with non-integer".into())
                    })?;
                    let delta = (n as i64).wrapping_mul(*elem as i64);
                    let delta = if *neg { -delta } else { delta };
                    self.ptr_arith_hook(&pv)?;
                    vals.push(Value::Ptr(pv.offset_by(delta)));
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
                    let a = self.vm_read_reg(*l, *zk)?;
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
                    let a = self.vm_read_reg(*l, *zk)?;
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
                    let r = norm.apply(r, &self.prog.types.machine);
                    self.vm_store_reg(*dst, r)?;
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
                    self.access_hook(p, *size, false)?;
                    self.counters.loads += 1;
                    let b = self.mem.read_int(p, *size, *signed)?;
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let a = vals.pop().ok_or_else(underflow)?;
                    let r = self.arith(*op, a, Value::Int(b), *trunc)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let r = norm.apply(r, &self.prog.types.machine);
                    self.vm_store_reg(*l, r)?;
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
                    let a = self.vm_read_reg(*l, *zk)?;
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
                    self.access_hook(p, *size, false)?;
                    self.counters.loads += 1;
                    let b = self.mem.read_int(p, *size, *signed)?;
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
                    self.access_hook(p, *size, false)?;
                    self.counters.loads += 1;
                    let a = self.mem.read_int(p, *size, *signed)?;
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
                    let (c, site) = (*c, *site);
                    self.vm_check_save = Some((self.counters.instrs, self.counters.loads));
                    self.bump_check_counter(c, site);
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let v = self.vm_read_reg(*l, *zk)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    if let Some((instrs, loads)) = self.vm_check_save.take() {
                        self.counters.instrs = instrs;
                        self.counters.loads = loads;
                    }
                    self.check_verdict(c, v, site)?;
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
                    let (c, site) = (*c, *site);
                    self.vm_check_save = Some((self.counters.instrs, self.counters.loads));
                    self.bump_check_counter(c, site);
                    if *c2 != 0 {
                        self.add_instrs(*c2)?;
                    }
                    let pv_v = self.vm_read_reg(*p, *zp)?;
                    if *c3 != 0 {
                        self.add_instrs(*c3)?;
                    }
                    let iv = self.vm_read_reg(*i, *zi)?;
                    if *c4 != 0 {
                        self.add_instrs(*c4)?;
                    }
                    let pv = pv_v.as_ptr().ok_or_else(|| {
                        RtError::Unsupported("pointer arithmetic on non-pointer".into())
                    })?;
                    let n = iv.as_int().ok_or_else(|| {
                        RtError::Unsupported("pointer arithmetic with non-integer".into())
                    })?;
                    let delta = (n as i64).wrapping_mul(*elem as i64);
                    let delta = if *neg { -delta } else { delta };
                    self.ptr_arith_hook(&pv)?;
                    let v = Value::Ptr(pv.offset_by(delta));
                    if *c5 != 0 {
                        self.add_instrs(*c5)?;
                    }
                    if let Some((instrs, loads)) = self.vm_check_save.take() {
                        self.counters.instrs = instrs;
                        self.counters.loads = loads;
                    }
                    self.check_verdict(c, v, site)?;
                }
            }
            pc += 1;
        }
    }
}
