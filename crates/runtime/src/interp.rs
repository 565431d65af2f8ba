//! The CIL interpreter: executes original or cured programs over the
//! byte-accurate memory model, with baseline instrumentation hooks.
//!
//! * **Original** mode follows plain C semantics: no checks; the memory
//!   model detects allocation-level violations as ground truth, while
//!   *within-allocation* overflows (e.g. overrunning a buffer into a
//!   neighbouring struct field) succeed silently, exactly as on real
//!   hardware — these are the vulnerabilities CCured exists to stop.
//! * **Cured** mode maintains fat-pointer representations per the inferred
//!   kinds and executes the instrumentation checks of Figures 10–11.
//! * **Purify / Valgrind / JonesKelly** modes run the original program with
//!   the corresponding shadow-memory or registry work on every access.

use crate::bytecode::{RegNorm, ZeroKind};
use crate::cost::Counters;
use crate::err::RtError;
use crate::external;
use crate::limits::Limits;
use crate::mem::{AllocId, AllocKind, Memory, Pointer};
use crate::run::RunStats;
use crate::value::{PtrVal, Value};
use ccured::hierarchy::Hierarchy;
use ccured::Cured;
use ccured_cil::ir::*;
use ccured_cil::types::{IntKind, Machine, QualId, Type, TypeId};
use ccured_infer::{PtrKind, Solution};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::time::Instant;

/// Which execution engine an [`Interp`] runs the program on. Both give
/// identical observable behaviour; the cure is engine-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The recursive tree-walking interpreter: the reference semantics and
    /// the differential oracle for the bytecode engine.
    Tree,
    /// The bytecode register VM: identical observable behaviour (output,
    /// exit codes, errors, counters), much faster dispatch.
    #[default]
    Vm,
}

impl Engine {
    /// The CLI flag spelling.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Tree => "tree",
            Engine::Vm => "vm",
        }
    }
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tree" => Ok(Engine::Tree),
            "vm" => Ok(Engine::Vm),
            other => Err(format!("unknown engine `{other}` (expected tree|vm)")),
        }
    }
}

/// How the program is executed.
#[derive(Clone, Copy)]
pub enum ExecMode<'c> {
    /// Plain C semantics (ground-truth memory model only).
    Original,
    /// CCured representations and checks.
    Cured {
        /// The pointer-kind solution.
        sol: &'c Solution,
        /// The RTTI hierarchy.
        hier: &'c Hierarchy,
        /// Temporal lock-and-key semantics (the cure ran with
        /// `--temporal`): `free` revokes the freed allocation's capability
        /// key, and every `CHECK_TEMPORAL` compares it. Without it a
        /// temporal check passes vacuously.
        temporal: bool,
    },
    /// Purify-style: 2 shadow bits/byte on every access of the original
    /// program, plus binary-translation dispatch.
    Purify,
    /// Valgrind-style: 9 shadow bits/byte plus per-instruction JIT cost.
    Valgrind,
    /// Jones–Kelly-style: a global object-registry lookup per pointer
    /// dereference and arithmetic operation.
    JonesKelly,
}

impl<'c> ExecMode<'c> {
    /// Cured mode borrowing the solution and hierarchy from a [`Cured`],
    /// with temporal semantics exactly when the cure emitted temporal
    /// checks.
    pub fn cured(c: &'c Cured) -> Self {
        ExecMode::Cured {
            sol: &c.solution,
            hier: &c.hierarchy,
            temporal: c.temporal,
        }
    }

    fn is_cured(&self) -> bool {
        matches!(self, ExecMode::Cured { .. })
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
    /// A pending goto, carrying the interned label id (see [`FnPlan`]).
    Goto(u32),
}

pub(crate) enum LocalSlot {
    Reg,
    Mem(AllocId),
}

pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) seq: u64,
    pub(crate) regs: Vec<Option<Value>>,
    pub(crate) slots: Vec<LocalSlot>,
    pub(crate) plan: Rc<FnPlan>,
    /// Loop-optimizer guard slots: 0 unset, 1 latched "pass", 2 latched
    /// "fail". Grown on demand by the first probe/reset touching a slot.
    pub(crate) guards: Vec<u8>,
}

/// A popped frame's reusable buffers (`regs`/`slots`/`guards`), held in
/// [`Interp::frame_pool`] between calls.
pub(crate) type FrameBuffers = (Vec<Option<Value>>, Vec<LocalSlot>, Vec<u8>);

/// A resolved storage location.
pub(crate) enum Place {
    Reg(LocalId),
    Mem(Pointer),
}

/// Per-function static facts, computed on the function's first call and
/// shared by refcount (never cloned per call): the frame layout
/// [`Interp::push_frame`] follows on both engines, plus pre-resolved
/// goto/label tables so the tree engine's jumps cost a hash probe instead
/// of a linear statement scan and a `String` clone.
pub(crate) struct FnPlan {
    /// Which locals of the function need memory (vs register) slots.
    pub(crate) mem_locals: Box<[bool]>,
    /// Per local, up to the first incomplete memory local: `Some(size)` =
    /// memory slot of that size, `None` = register.
    slot_sizes: Vec<Option<u64>>,
    /// The sizing error of the first memory local whose type is
    /// incomplete. A call allocates the slots before it, then fails.
    incomplete: Option<RtError>,
    /// Per parameter, the normalization a register parameter is stored
    /// with (its declared type's `StoreReg` rule).
    params: Vec<RegNorm>,
    /// Interned label names (id -> name), for diagnostics.
    labels: Vec<String>,
    /// Statement index of each label within its enclosing block slice,
    /// keyed by (slice address, label id). Slice addresses are stable: the
    /// program is borrowed immutably for the interpreter's lifetime.
    label_pos: HashMap<(usize, u32), usize>,
    /// Interned label id of every `Stmt::Goto`, keyed by statement address.
    goto_ids: HashMap<usize, u32>,
}

/// Stub of the retired VM tiering API, with `Interp::{set_tiering,
/// tier_stats}`: the VM has one tier, so there is nothing to select and
/// nothing to count. perfbench is its only caller; the benchmark
/// follow-up deletes it.
#[doc(hidden)]
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TierMode {
    #[default]
    Off,
}

#[doc(hidden)]
#[derive(Clone, Copy, Default, Debug)]
pub struct TierStats {
    pub promotions: u64,
    pub osr: u64,
}

/// The interpreter. Create one per run; counters and output accumulate.
pub struct Interp<'p> {
    pub(crate) prog: &'p Program,
    pub(crate) mode: ExecMode<'p>,
    pub(crate) mem: Memory,
    pub(crate) globals: Vec<AllocId>,
    pub(crate) frames: Vec<Frame>,
    pub(crate) next_frame_seq: u64,
    /// Event counters for the cost model.
    pub counters: Counters,
    pub(crate) out: Vec<u8>,
    pub(crate) input: Vec<u8>,
    pub(crate) input_pos: usize,
    pub(crate) limits: Limits,
    /// Armed from `limits.deadline` when execution starts.
    pub(crate) deadline_at: Option<Instant>,
    /// Model CCured's zeroing allocator: fresh memory reads as zero instead
    /// of tripping the ground-truth uninitialized-read detector.
    pub(crate) zero_init: bool,
    pub(crate) word: u64,
    globals_ready: bool,
    /// Which execution engine `run` dispatches to.
    engine: Engine,
    /// Per-function plans, indexed by `FuncId`, built on first call.
    plans: Vec<Option<Rc<FnPlan>>>,
    /// Per-function compiled bytecode (the VM engine's cache).
    pub(crate) compiled: Vec<Option<Rc<crate::bytecode::CompiledFn<'p>>>>,
    /// Recycled frame buffers (`regs`/`slots`/`guards`), so steady-state
    /// calls allocate nothing.
    frame_pool: Vec<FrameBuffers>,
    /// Snapshot of (instrs, loads) while a check operand evaluates,
    /// restored when the check completes or its evaluation aborts.
    check_save: Option<(u64, u64)>,
    /// Per-site hit/fail/walk-step counters; `None` (the default) keeps
    /// profiling overhead at a single branch per check.
    pub(crate) profile: Option<Box<crate::profile::Profile>>,
    /// Purify/Valgrind shadow bytes per allocation.
    shadow: HashMap<u32, Vec<u8>>,
    /// Jones–Kelly object registry: VA base -> size.
    registry: BTreeMap<u64, u64>,
    /// Cache for `Hierarchy::node_of` lookups (hot on RTTI conversions).
    node_cache: HashMap<u32, u32>,
    /// Use the O(1) interval `isSubtype` encoding instead of the paper's
    /// parent-chain walk (ablation).
    interval_rtti: bool,
    /// Overrides the default GC behaviour (None = cured implies GC).
    gc_override: Option<bool>,
    /// `--temporal`, read from the mode: `free` revokes the allocation's
    /// capability key (the bytes stay live under GC) and `CHECK_TEMPORAL`
    /// compares it.
    temporal: bool,
    pub(crate) rng: u64,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for `prog` in the given mode.
    pub fn new(prog: &'p Program, mode: ExecMode<'p>) -> Self {
        let limits = Limits::default();
        let mut mem = Memory::new();
        mem.set_heap_limit(limits.max_heap_bytes);
        Interp {
            prog,
            mode,
            mem,
            globals: Vec::new(),
            frames: Vec::new(),
            next_frame_seq: 0,
            counters: Counters::default(),
            out: Vec::new(),
            input: Vec::new(),
            input_pos: 0,
            limits,
            deadline_at: None,
            zero_init: false,
            word: prog.types.machine.ptr_bytes,
            globals_ready: false,
            engine: Engine::Tree,
            plans: vec![None; prog.functions.len()],
            compiled: vec![None; prog.functions.len()],
            frame_pool: Vec::new(),
            check_save: None,
            profile: None,
            shadow: HashMap::new(),
            registry: BTreeMap::new(),
            node_cache: HashMap::new(),
            interval_rtti: false,
            gc_override: None,
            temporal: matches!(mode, ExecMode::Cured { temporal: true, .. }),
            rng: 0x9E3779B97F4A7C15,
        }
    }

    /// Selects the execution engine. [`Interp::new`] starts on
    /// [`Engine::Tree`] — the reference tree-walking semantics; switch to
    /// [`Engine::Vm`] for the bytecode engine (identical observable
    /// behaviour, including [`Counters`], but much faster dispatch).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    #[doc(hidden)]
    pub fn set_tiering(&mut self, _: TierMode) {}

    #[doc(hidden)]
    pub fn tier_stats(&self) -> TierStats {
        TierStats::default()
    }

    /// Enables per-site profiling (Profile mode) with `n_sites` slots —
    /// pass the length of the cure's site table. Observation-only: output,
    /// counters, and verdicts are unaffected. Off by default.
    pub fn enable_profile(&mut self, n_sites: usize) {
        self.profile = Some(Box::new(crate::profile::Profile::new(n_sites)));
    }

    /// Installs a full set of sandbox [`Limits`] (fuel, stack depth, heap
    /// cap, deadline). [`Limits::default`] is already in force for every
    /// fresh interpreter; this tightens or relaxes it.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
        self.mem.set_heap_limit(limits.max_heap_bytes);
    }

    /// Models CCured's zeroing allocator (and the BDW collector backing it):
    /// fresh allocations and register locals read as zero instead of
    /// tripping the ground-truth uninitialized-read detector. The
    /// fault-injection harness enables this for cured runs, because a real
    /// cured program never sees garbage memory — see DESIGN.md.
    pub fn set_zero_init(&mut self, on: bool) {
        self.zero_init = on;
    }

    /// Selects the O(1) interval `isSubtype` encoding for RTTI checks
    /// (default: the paper's parent-chain walk). An ablation knob: the
    /// interval test costs no walk steps.
    pub fn set_interval_rtti(&mut self, on: bool) {
        self.interval_rtti = on;
    }

    /// Whether `free` is a no-op (CCured's garbage-collected runtime).
    /// Defaults to true in cured mode, false otherwise; overridable for
    /// experiments.
    pub fn set_gc_mode(&mut self, on: bool) {
        self.gc_override = Some(on);
    }

    pub(crate) fn gc_mode(&self) -> bool {
        self.gc_override
            .unwrap_or(matches!(self.mode, ExecMode::Cured { .. }))
    }

    /// Whether temporal lock-and-key semantics are in force.
    pub fn temporal_enabled(&self) -> bool {
        self.temporal
    }

    /// Provides bytes for the input builtins (`getchar`, `net_recv`, ...).
    pub fn set_input(&mut self, bytes: impl Into<Vec<u8>>) {
        self.input = bytes.into();
        self.input_pos = 0;
    }

    /// Everything the program printed.
    pub fn output(&self) -> &[u8] {
        &self.out
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        self.prog
    }

    /// Initializes globals and runs `main`, returning its exit code.
    ///
    /// # Errors
    ///
    /// Any [`RtError`]; `exit(n)` is translated into a normal return.
    pub fn run(&mut self) -> Result<i64, RtError> {
        let main = self
            .prog
            .find_function("main")
            .ok_or_else(|| RtError::Unsupported("no `main` function".into()))?;
        self.arm_deadline();
        let r = self.init_globals().and_then(|()| self.dispatch(main, &[]));
        self.sync_peaks();
        match r {
            Ok(v) => Ok(v.and_then(|v| v.as_int()).unwrap_or(0) as i64),
            Err(RtError::Exit(code)) => Ok(code),
            Err(e) => Err(e),
        }
    }

    /// Runs `main` (see [`Interp::run`]) and returns everything the run
    /// observed: the result, the output, the counters, the dead-memory
    /// traps and, when [`Interp::enable_profile`] was called, the profile.
    pub fn observe(mut self) -> RunStats {
        let (exit, error) = match self.run() {
            Ok(code) => (code, None),
            Err(e) => (0, Some(e)),
        };
        RunStats {
            exit,
            error,
            counters: self.counters,
            output: self.out,
            uaf_traps: self.mem.uaf_traps(),
            profile: self.profile.map(|p| *p),
        }
    }

    /// Runs `f` on the selected engine.
    fn dispatch(&mut self, f: FuncId, args: &[Value]) -> Result<Option<Value>, RtError> {
        match self.engine {
            Engine::Tree => self.run_function(f, args),
            Engine::Vm => self.vm_call(f, args),
        }
    }

    /// Starts the wall-clock countdown, if a deadline is configured.
    fn arm_deadline(&mut self) {
        self.deadline_at = self.limits.deadline.map(|d| Instant::now() + d);
    }

    /// Copies memory high-water marks into the public counters.
    fn sync_peaks(&mut self) {
        self.counters.peak_heap_bytes = self.mem.peak_live_bytes;
    }

    fn run_function(&mut self, f: FuncId, args: &[Value]) -> Result<Option<Value>, RtError> {
        self.push_frame(f, args)?;
        let func = &self.prog.functions[f.idx()];
        let flow = self.run_block(&func.body);
        self.pop_frame()?;
        let flow = flow?;
        let ret_ty = func.ret_type(&self.prog.types);
        Ok(match flow {
            Flow::Return(v) => v,
            Flow::Goto(id) => {
                // The label exists somewhere deeper than any block the goto
                // can reach (e.g. inside a sibling nested block).
                let label = self
                    .plan(f)
                    .labels
                    .get(id as usize)
                    .cloned()
                    .unwrap_or_else(|| "?".into());
                return Err(RtError::Unsupported(format!(
                    "goto to label `{label}` that is not visible from the jump site"
                )));
            }
            _ => {
                // Fell off the end: a zero value for non-void returns.
                match self.prog.types.get(ret_ty) {
                    Type::Void => None,
                    Type::Float(_) => Some(Value::Float(0.0)),
                    Type::Ptr(..) => Some(Value::NULL),
                    _ => Some(Value::Int(0)),
                }
            }
        })
    }

    // -------------------------------------------------------------- globals

    /// Allocates and initializes every global, on the first run.
    fn init_globals(&mut self) -> Result<(), RtError> {
        if self.globals_ready {
            return Ok(());
        }
        for g in &self.prog.globals {
            let size = self.sized(g.ty, &format!("global `{}`", g.name))?;
            let id = self.mem.alloc(size.max(1), AllocKind::Global)?;
            // C zero-initializes globals.
            self.mem.mark_init(id);
            self.register_alloc(id);
            self.globals.push(id);
        }
        for (i, g) in self.prog.globals.iter().enumerate() {
            if let Some(init) = &g.init {
                let base = Pointer {
                    alloc: self.globals[i],
                    offset: 0,
                };
                self.run_init(base, g.ty, init)?;
            }
        }
        self.globals_ready = true;
        Ok(())
    }

    fn run_init(&mut self, at: Pointer, ty: TypeId, init: &Init) -> Result<(), RtError> {
        match init {
            Init::String(bytes) => self.mem.write_bytes(at, bytes),
            Init::Scalar(e) => {
                let v = self.eval(e)?;
                self.store_typed(at, ty, v)
            }
            // `self.prog` is a shared `&'p` borrow independent of `&mut
            // self`, so type-table lookups need no defensive clones.
            Init::Compound(items) => match *{ self.prog }.types.get(ty) {
                Type::Array(elem, _) => {
                    let es = self.sized(elem, "array initializer element")?;
                    for (i, item) in items.iter().enumerate() {
                        self.run_init(at.offset_by((i as u64 * es) as i64), elem, item)?;
                    }
                    Ok(())
                }
                Type::Comp(cid) => {
                    let fields = &{ self.prog }.types.comp(cid).fields;
                    for (i, item) in items.iter().enumerate() {
                        let f = &fields[i];
                        self.run_init(at.offset_by(f.offset as i64), f.ty, item)?;
                    }
                    Ok(())
                }
                _ => {
                    if let Some(first) = items.first() {
                        self.run_init(at, ty, first)
                    } else {
                        Ok(())
                    }
                }
            },
        }
    }

    // --------------------------------------------------------------- frames

    /// Computes the [`FnPlan`] for `f`: which locals need memory slots (vs
    /// registers) and their sizes, each parameter's binding, plus the
    /// goto/label resolution tables.
    fn build_plan(&self, f: FuncId) -> FnPlan {
        let types = &self.prog.types;
        let func = &self.prog.functions[f.idx()];
        let mut need = vec![false; func.locals.len()];
        for (i, l) in func.locals.iter().enumerate() {
            if matches!(types.get(l.ty), Type::Comp(_) | Type::Array(..)) {
                need[i] = true;
            }
        }
        ccured_cil::visit::for_each_exp(&func.body, &mut |e| {
            if let Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) = e {
                if let LvBase::Local(l) = lv.base {
                    need[l.idx()] = true;
                }
            }
        });
        let mut slot_sizes = Vec::with_capacity(func.locals.len());
        let mut incomplete = None;
        for (l, &mem) in func.locals.iter().zip(&need) {
            if !mem {
                slot_sizes.push(None);
                continue;
            }
            match self.sized(l.ty, "stack local") {
                Ok(size) => slot_sizes.push(Some(size.max(1))),
                Err(e) => {
                    incomplete = Some(e);
                    break;
                }
            }
        }
        let params = func
            .locals
            .iter()
            .take(func.param_count)
            .map(|l| RegNorm::of(types, l.ty))
            .collect();
        // Goto/label tables: intern label names and record, per block slice,
        // where each label sits, so a jump is a hash probe instead of a
        // linear scan with `String` comparisons.
        struct Labels {
            names: Vec<String>,
            by_name: HashMap<String, u32>,
            label_pos: HashMap<(usize, u32), usize>,
            goto_ids: HashMap<usize, u32>,
        }
        impl Labels {
            fn intern(&mut self, name: &str) -> u32 {
                if let Some(&id) = self.by_name.get(name) {
                    return id;
                }
                let id = self.names.len() as u32;
                self.names.push(name.to_string());
                self.by_name.insert(name.to_string(), id);
                id
            }
            fn walk(&mut self, stmts: &[Stmt]) {
                let slice = stmts.as_ptr() as usize;
                for (i, s) in stmts.iter().enumerate() {
                    match s {
                        Stmt::Label(name) => {
                            let id = self.intern(name);
                            // First occurrence wins, like the old linear scan.
                            self.label_pos.entry((slice, id)).or_insert(i);
                        }
                        Stmt::Goto(name) => {
                            let id = self.intern(name);
                            self.goto_ids.insert(s as *const Stmt as usize, id);
                        }
                        Stmt::If(_, t, e) => {
                            self.walk(t);
                            self.walk(e);
                        }
                        Stmt::Loop(b) | Stmt::Block(b) => self.walk(b),
                        Stmt::Switch(_, arms) => {
                            for a in arms {
                                self.walk(&a.body);
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        let mut lb = Labels {
            names: Vec::new(),
            by_name: HashMap::new(),
            label_pos: HashMap::new(),
            goto_ids: HashMap::new(),
        };
        lb.walk(&func.body);
        FnPlan {
            mem_locals: need.into(),
            slot_sizes,
            incomplete,
            params,
            labels: lb.names,
            label_pos: lb.label_pos,
            goto_ids: lb.goto_ids,
        }
    }

    /// The [`FnPlan`] for `f`, built on first use. The `Rc` is shared —
    /// callers never clone the underlying tables.
    pub(crate) fn plan(&mut self, f: FuncId) -> Rc<FnPlan> {
        if let Some(plan) = &self.plans[f.idx()] {
            return Rc::clone(plan);
        }
        let plan = Rc::new(self.build_plan(f));
        self.plans[f.idx()] = Some(Rc::clone(&plan));
        plan
    }

    /// Enters `f` with `args` on either engine: the stack cap, the local
    /// slots (from pooled buffers), the call counters and the parameter
    /// bindings, all in the order [`FnPlan`] fixes.
    pub(crate) fn push_frame(&mut self, f: FuncId, args: &[Value]) -> Result<(), RtError> {
        // The tree engine recurses on guest calls, so this cap also
        // protects the *host* stack: it must trip well before the process
        // would.
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
        let plan = self.plan(f);
        let seq = self.next_frame_seq;
        self.next_frame_seq += 1;
        let (mut regs, mut slots, mut guards) = self.frame_pool.pop().unwrap_or_default();
        slots.clear();
        guards.clear();
        // A call that fails part-way kills the slots it allocated: the
        // caller's stack allocations must stay the tail `kill_frame` pops.
        for size in &plan.slot_sizes {
            slots.push(match *size {
                None => LocalSlot::Reg,
                Some(size) => match self.mem.alloc(size, AllocKind::Stack { frame: seq }) {
                    Ok(id) => {
                        self.register_alloc(id);
                        LocalSlot::Mem(id)
                    }
                    Err(e) => {
                        self.kill_slots(seq, &slots);
                        return Err(e);
                    }
                },
            });
        }
        if let Some(e) = &plan.incomplete {
            self.kill_slots(seq, &slots);
            return Err(e.clone());
        }
        regs.clear();
        regs.resize(slots.len(), None);
        self.frames.push(Frame {
            func: f,
            seq,
            regs,
            slots,
            plan: Rc::clone(&plan),
            guards,
        });
        self.counters.calls += 1;
        self.counters.peak_stack_depth =
            self.counters.peak_stack_depth.max(self.frames.len() as u64);
        let prog = self.prog;
        for (i, (&v, norm)) in args.iter().zip(&plan.params).enumerate() {
            let fr = self.frame_mut()?;
            match fr.slots[i] {
                LocalSlot::Reg => fr.regs[i] = Some(norm.apply(v)),
                LocalSlot::Mem(alloc) => {
                    let ty = prog.functions[f.idx()].locals[i].ty;
                    self.bind_mem_param(Pointer { alloc, offset: 0 }, ty, v)?;
                }
            }
        }
        Ok(())
    }

    /// Leaves the current frame, on a return or while unwinding an error:
    /// its stack allocations die and its buffers go back to the pool
    /// (bounded, so a deep-recursion spike does not pin memory forever).
    #[inline(always)]
    pub(crate) fn pop_frame(&mut self) -> Result<(), RtError> {
        let fr = self.frames.pop().ok_or_else(no_frame)?;
        self.kill_slots(fr.seq, &fr.slots);
        if self.frame_pool.len() < 64 {
            self.frame_pool.push((fr.regs, fr.slots, fr.guards));
        }
        Ok(())
    }

    /// Kills frame `seq`'s stack allocations and their baseline shadows.
    #[inline]
    fn kill_slots(&mut self, seq: u64, slots: &[LocalSlot]) {
        self.mem.kill_frame(seq);
        if !self.shadow.is_empty() {
            for slot in slots {
                if let LocalSlot::Mem(id) = slot {
                    self.shadow.remove(&id.0);
                }
            }
        }
    }

    pub(crate) fn frame(&self) -> Result<&Frame, RtError> {
        self.frames.last().ok_or_else(no_frame)
    }

    pub(crate) fn frame_mut(&mut self) -> Result<&mut Frame, RtError> {
        self.frames.last_mut().ok_or_else(no_frame)
    }

    fn cur_func(&self) -> Result<&'p Function, RtError> {
        Ok(&self.prog.functions[self.frame()?.func.idx()])
    }

    // --------------------------------------------------------------- blocks

    fn run_block(&mut self, stmts: &[Stmt]) -> Result<Flow, RtError> {
        let mut i = 0;
        while i < stmts.len() {
            match self.exec_stmt(&stmts[i])? {
                Flow::Normal => i += 1,
                Flow::Goto(id) => {
                    let key = (stmts.as_ptr() as usize, id);
                    match self.frame()?.plan.label_pos.get(&key).copied() {
                        Some(j) => i = j,
                        None => return Ok(Flow::Goto(id)),
                    }
                }
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, RtError> {
        self.step()?;
        match s {
            Stmt::Instr(is) => {
                for i in is {
                    self.exec_instr(i)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Block(b) => self.run_block(b),
            Stmt::If(c, t, e) => {
                let v = self.eval(c)?;
                if v.is_truthy() {
                    self.run_block(t)
                } else {
                    self.run_block(e)
                }
            }
            Stmt::Loop(b) => loop {
                match self.run_block(b)? {
                    Flow::Normal | Flow::Continue => continue,
                    Flow::Break => return Ok(Flow::Normal),
                    other => return Ok(other),
                }
            },
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Goto(_) => {
                let id = self
                    .frame()?
                    .plan
                    .goto_ids
                    .get(&(s as *const Stmt as usize))
                    .copied()
                    .unwrap_or(u32::MAX);
                Ok(Flow::Goto(id))
            }
            Stmt::Label(_) => Ok(Flow::Normal),
            Stmt::Switch(scrut, arms) => {
                let v = self
                    .eval(scrut)?
                    .as_int()
                    .ok_or_else(|| RtError::Unsupported("non-integer switch".into()))?;
                let mut start = arms.iter().position(|a| a.values.contains(&v));
                if start.is_none() {
                    start = arms.iter().position(|a| a.values.is_empty());
                }
                if let Some(idx) = start {
                    for arm in &arms[idx..] {
                        match self.run_block(&arm.body)? {
                            Flow::Normal => continue,
                            Flow::Break => return Ok(Flow::Normal),
                            other => return Ok(other),
                        }
                    }
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_instr(&mut self, i: &Instr) -> Result<(), RtError> {
        self.step()?;
        match i {
            Instr::Set(lv, e, _) => {
                let ty = self.lval_type(lv)?;
                if matches!(self.prog.types.get(ty), Type::Comp(_) | Type::Array(..)) {
                    return self.copy_aggregate(lv, e, ty);
                }
                let v = self.eval(e)?;
                self.store_lval(lv, ty, v)
            }
            Instr::Call(ret, callee, args, _) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    // Aggregates pass by value: hand the callee the source
                    // address; parameter binding performs the copy.
                    if matches!(self.prog.types.get(a.ty()), Type::Comp(_) | Type::Array(..)) {
                        let lv = match a {
                            Exp::Load(lv, _) => lv,
                            _ => {
                                return Err(RtError::Unsupported(
                                    "aggregate argument is not an lvalue".into(),
                                ))
                            }
                        };
                        let p = match self.resolve_lval(lv)? {
                            Place::Mem(p) => p,
                            Place::Reg(_) => {
                                return Err(RtError::Unsupported(
                                    "aggregate argument in register".into(),
                                ))
                            }
                        };
                        argv.push(Value::Ptr(PtrVal::Safe(p)));
                        continue;
                    }
                    argv.push(self.eval(a)?);
                }
                let callee = match callee {
                    Callee::Func(f) => FnRef::Def(*f),
                    Callee::Extern(x) => FnRef::Ext(*x),
                    Callee::Ptr(e) => {
                        let v = self.eval(e)?;
                        self.resolve_callee(v)?
                    }
                };
                let result = match callee {
                    FnRef::Def(f) => self.run_function(f, &argv)?,
                    FnRef::Ext(x) => self.call_extern(x, &argv)?,
                };
                if let Some(lv) = ret {
                    let ty = self.lval_type(lv)?;
                    let v = result.unwrap_or(Value::Int(0));
                    self.store_lval(lv, ty, v)?;
                }
                Ok(())
            }
            Instr::Check(c, _, site) => self.exec_check(c, *site),
        }
    }

    fn copy_aggregate(&mut self, lv: &Lval, e: &Exp, ty: TypeId) -> Result<(), RtError> {
        let src = match e {
            Exp::Load(src_lv, _) => src_lv,
            _ => {
                return Err(RtError::Unsupported(
                    "aggregate rvalue is not an lvalue".into(),
                ))
            }
        };
        let size = self
            .prog
            .types
            .size_of(ty)
            .map_err(|e| RtError::Unsupported(format!("aggregate copy: {e}")))?;
        let dst_p = match self.resolve_lval(lv)? {
            Place::Mem(p) => p,
            Place::Reg(_) => return Err(RtError::Unsupported("aggregate in register".into())),
        };
        let src_p = match self.resolve_lval(src)? {
            Place::Mem(p) => p,
            Place::Reg(_) => return Err(RtError::Unsupported("aggregate in register".into())),
        };
        self.copy_agg(dst_p, src_p, size)
    }

    // --------------------------------------------------------------- checks

    /// Executes a check: a plain one through [`Interp::check_begin`], its
    /// operand and [`Interp::check_end`]; guard machinery structurally.
    pub(crate) fn exec_check(&mut self, c: &Check, site: SiteId) -> Result<(), RtError> {
        let r = self.exec_check_inner(c, site);
        self.check_restore();
        r
    }

    /// Enters a check: snapshots (instrs, loads) and counts the check.
    /// Check operands are re-evaluations of values the surrounding code
    /// just computed; in compiled CCured they stay in registers, so only
    /// the check-specific cost counters may accrue until
    /// [`Interp::check_end`] or [`Interp::check_restore`] restores them.
    #[inline(always)]
    pub(crate) fn check_begin(&mut self, c: &Check, site: SiteId) {
        self.check_save = Some((self.counters.instrs, self.counters.loads));
        self.bump_check_counter(c, site);
    }

    /// Leaves a check with its operand's value: restores the snapshot and
    /// judges the value.
    #[inline(always)]
    pub(crate) fn check_end(&mut self, c: &Check, v: Value, site: SiteId) -> Result<(), RtError> {
        self.check_restore();
        self.check_verdict(c, v, site)
    }

    /// Restores the snapshot of the open check, if any: at its end, or
    /// when an error cut its operand's evaluation short.
    #[inline(always)]
    pub(crate) fn check_restore(&mut self) {
        if let Some((instrs, loads)) = self.check_save.take() {
            self.counters.instrs = instrs;
            self.counters.loads = loads;
        }
    }

    fn exec_check_inner(&mut self, c: &Check, site: SiteId) -> Result<(), RtError> {
        match c {
            Check::Probe { slot, inner } => return self.exec_probe(*slot, inner, site),
            Check::GuardReset { slot } => {
                self.set_guard(*slot, 0)?;
                return Ok(());
            }
            Check::Guarded { slot, inner } => {
                if self.guard(*slot)? == 1 {
                    // Latched "pass": the probe already proved this check
                    // for every index of the current trip, at zero cost.
                    return Ok(());
                }
                // Unset (flow skipped the probe) or latched "fail": behave
                // exactly like the original check, including blame.
                return self.exec_check_inner(inner, site);
            }
            _ => {}
        }
        self.check_begin(c, site);
        let operand = c.operand().expect("plain checks have an operand");
        let v = self.eval(operand)?;
        self.check_end(c, v, site)
    }

    /// Runs a loop-optimizer probe: trial-evaluates the summarized checks
    /// with **no** counter or profile footprint, then latches the guard.
    /// On all-pass, exactly one check event of `inner[0]`'s kind is charged
    /// (the probe stands in for the first per-iteration check); on any
    /// failure — check verdicts and resource errors alike — nothing is
    /// charged and the guard latches "fail", so the residual re-runs the
    /// check with the unoptimized program's exact accounting, blame, and
    /// error point. A probe itself never aborts.
    fn exec_probe(&mut self, slot: u32, inner: &[Check], site: SiteId) -> Result<(), RtError> {
        if self.guard(slot)? != 0 {
            return Ok(());
        }
        let saved = self.counters;
        let mut all_pass = true;
        for c in inner {
            let r = match c.operand() {
                Some(e) => match self.eval(e) {
                    Ok(v) => self.check_verdict_inner(c, v),
                    Err(err) => Err(err),
                },
                None => Err(RtError::Internal("probe of an operand-free check".into())),
            };
            if r.is_err() {
                all_pass = false;
                break;
            }
        }
        // Whole-Counters restore: operand evaluation can bump side counters
        // (fat conversions, RTTI walk steps) that the generic exec_check
        // wrapper does not reset.
        self.counters = saved;
        if all_pass {
            self.set_guard(slot, 1)?;
            if let Some(first) = inner.first() {
                self.bump_check_counter(first, site);
            }
        } else {
            self.set_guard(slot, 2)?;
        }
        Ok(())
    }

    fn guard(&self, slot: u32) -> Result<u8, RtError> {
        Ok(self
            .frame()?
            .guards
            .get(slot as usize)
            .copied()
            .unwrap_or(0))
    }

    fn set_guard(&mut self, slot: u32, v: u8) -> Result<(), RtError> {
        let f = self.frame_mut()?;
        let i = slot as usize;
        if f.guards.len() <= i {
            f.guards.resize(i + 1, 0);
        }
        f.guards[i] = v;
        Ok(())
    }

    /// Counts the check in the per-kind cost counters (before the operand is
    /// evaluated, matching compiled CCured where the check instruction itself
    /// is the unit of cost) and, in Profile mode, as a hit of its site.
    /// Guard machinery counts as the check it stands in for
    /// ([`Check::kind`]). Shared by both engines.
    pub(crate) fn bump_check_counter(&mut self, c: &Check, site: SiteId) {
        if let (Some(prof), Some(i)) = (self.profile.as_deref_mut(), site.index()) {
            prof.slot(i).hits += 1;
        }
        if let Some(k) = c.kind() {
            self.counters.checks[k] += 1;
        }
    }

    /// Judges an already-evaluated check operand. Shared by both engines.
    /// In Profile mode the verdict and any RTTI walk steps are also
    /// attributed to the check's site — observation only, the result is
    /// passed through untouched.
    pub(crate) fn check_verdict(
        &mut self,
        c: &Check,
        v: Value,
        site: SiteId,
    ) -> Result<(), RtError> {
        if self.profile.is_none() {
            return self.check_verdict_inner(c, v);
        }
        let steps_before = self.counters.rtti_walk_steps;
        let r = self.check_verdict_inner(c, v);
        let steps = self.counters.rtti_walk_steps - steps_before;
        let failed = matches!(r, Err(RtError::CheckFailed { .. }));
        if let (Some(prof), Some(i)) = (self.profile.as_deref_mut(), site.index()) {
            let slot = prof.slot(i);
            slot.walk_steps += steps;
            slot.fails += u64::from(failed);
        }
        r
    }

    fn check_verdict_inner(&mut self, c: &Check, v: Value) -> Result<(), RtError> {
        // A failure is named by the check's kind; the guard machinery never
        // gets here (see the last arm).
        let fail = |detail: String| -> Result<(), RtError> {
            Err(RtError::CheckFailed {
                check: c.name(),
                detail,
            })
        };
        let as_ptr = |v: Value| -> Result<PtrVal, RtError> {
            v.as_ptr()
                .ok_or_else(|| RtError::Unsupported("expected pointer value".into()))
        };
        match c {
            Check::Null { .. } => {
                let v = as_ptr(v)?;
                match v {
                    PtrVal::Null => fail("null pointer dereference".into()),
                    PtrVal::IntVal(x) => fail(format!("integer {x:#x} used as pointer")),
                    _ => Ok(()),
                }
            }
            Check::SeqBounds { access_size, .. } | Check::SeqToSafe { access_size, .. } => {
                let v = as_ptr(v)?;
                match v {
                    PtrVal::Null => fail("null sequence pointer".into()),
                    PtrVal::IntVal(x) => fail(format!("integer {x:#x} used as pointer")),
                    PtrVal::Seq { p, lo, hi } | PtrVal::Wild { p, lo, hi } => {
                        if p.offset < lo || p.offset + *access_size as i64 > hi {
                            fail(format!(
                                "pointer at offset {} outside bounds [{lo}, {hi}) for {access_size}-byte access",
                                p.offset
                            ))
                        } else {
                            Ok(())
                        }
                    }
                    PtrVal::Safe(p) | PtrVal::Rtti { p, .. } => {
                        // Defensive: a thin value in a SEQ context gets
                        // singleton bounds.
                        let _ = p;
                        Ok(())
                    }
                    PtrVal::Fn(_) => fail("function pointer used as data".into()),
                }
            }
            Check::WildBounds { access_size, .. } => {
                let v = as_ptr(v)?;
                match v {
                    PtrVal::Null => fail("null wild pointer".into()),
                    PtrVal::IntVal(x) => fail(format!("integer {x:#x} used as pointer")),
                    PtrVal::Wild { p, lo, hi } | PtrVal::Seq { p, lo, hi } => {
                        if p.offset < lo || p.offset + *access_size as i64 > hi {
                            fail(format!(
                                "wild pointer at offset {} outside area [{lo}, {hi})",
                                p.offset
                            ))
                        } else {
                            Ok(())
                        }
                    }
                    _ => Ok(()),
                }
            }
            Check::Temporal { .. } => {
                // Lock-and-key comparison: the pointer's capability key —
                // stamped at allocation — must still be valid, i.e. the
                // allocation has not been freed. Null and disguised
                // integers are the spatial checks' business; here they
                // pass vacuously so blame stays precise.
                let v = as_ptr(v)?;
                let p = match v {
                    PtrVal::Safe(p)
                    | PtrVal::Rtti { p, .. }
                    | PtrVal::Seq { p, .. }
                    | PtrVal::Wild { p, .. } => p,
                    PtrVal::Null | PtrVal::IntVal(_) | PtrVal::Fn(_) => return Ok(()),
                };
                if self.temporal && !self.mem.temporal_valid(p.alloc) {
                    fail(format!(
                        "capability key for allocation #{} was revoked (use after free)",
                        p.alloc.0
                    ))
                } else {
                    Ok(())
                }
            }
            Check::WildTag { .. } => {
                // The tag bitmap is realized by the memory model's
                // provenance map: a word read as a pointer without a tag
                // yields a disguised integer, which every later use-check
                // rejects ("integer used as pointer"). This instruction
                // therefore only pays the tag-consultation cost here; the
                // enforcement is intrinsic to the loads.
                let _ = as_ptr(v)?;
                Ok(())
            }
            Check::Rtti { target_node, .. } => {
                let v = as_ptr(v)?;
                match v {
                    PtrVal::Null => Ok(()), // null downcasts are fine
                    PtrVal::Rtti { node, .. } => {
                        let hier = match self.mode {
                            ExecMode::Cured { hier, .. } => hier,
                            _ => return Ok(()),
                        };
                        let (ok, steps) = if self.interval_rtti {
                            (hier.is_subtype_interval(node, *target_node), 0)
                        } else {
                            hier.is_subtype_walk(node, *target_node)
                        };
                        self.counters.rtti_walk_steps += steps as u64;
                        if ok {
                            Ok(())
                        } else {
                            fail(format!(
                                "checked downcast failed: node {node} is not a subtype of {target_node}"
                            ))
                        }
                    }
                    _ => fail("downcast of a pointer without run-time type info".into()),
                }
            }
            Check::NoStackEscape { .. } => {
                // Evaluated for cost parity; enforcement happens at the
                // store itself (which knows the destination).
                Ok(())
            }
            Check::IndexBound { len, .. } => {
                let v = v
                    .as_int()
                    .ok_or_else(|| RtError::Unsupported("non-integer index".into()))?;
                if v < 0 || v as u64 >= *len {
                    fail(format!("index {v} out of bounds for array of {len}"))
                } else {
                    Ok(())
                }
            }
            // Guard machinery is executed structurally in
            // `exec_check_inner`/`exec_probe` and never reaches the
            // single-operand verdict path.
            Check::Probe { .. } | Check::Guarded { .. } | Check::GuardReset { .. } => Err(
                RtError::Internal("guard-machinery check in the verdict path".into()),
            ),
        }
    }

    // ----------------------------------------------------------- evaluation

    fn step(&mut self) -> Result<(), RtError> {
        self.counters.instrs += 1;
        match self.mode {
            ExecMode::Valgrind => {
                self.counters.jit_instrs += 1;
                // Valgrind really re-dispatches translated code per
                // instruction; burn comparable interpreter-side work.
                self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            ExecMode::Purify => {
                // Purify's binary rewriting dilutes every instruction.
                self.counters.bt_instrs += 1;
            }
            _ => {}
        }
        if self.counters.instrs > self.limits.fuel {
            return Err(RtError::OutOfFuel);
        }
        // Poll the wall-clock deadline sparsely: an `Instant::now()` per
        // instruction would dominate the interpreter loop.
        if self.counters.instrs & 0x3FFF == 0 {
            self.poll_deadline()?;
        }
        Ok(())
    }

    /// The batched equivalent of `cost` consecutive [`Interp::step`] calls,
    /// used by the bytecode engine: identical counter effects (instruction
    /// count, per-mode shadow work, fuel accounting at the exact step the
    /// tree engine would have failed on) for a single bounds test.
    #[inline(always)]
    pub(crate) fn add_instrs(&mut self, cost: u32) -> Result<(), RtError> {
        // Fast path for the dispatch loop: within fuel, no 0x4000-boundary
        // poll, and a mode with no per-step shadow work.
        let old = self.counters.instrs;
        let want = old.saturating_add(cost as u64);
        if want <= self.limits.fuel
            && (want >> 14) == (old >> 14)
            && !matches!(self.mode, ExecMode::Valgrind | ExecMode::Purify)
        {
            self.counters.instrs = want;
            return Ok(());
        }
        self.add_instrs_slow(cost)
    }

    #[cold]
    fn add_instrs_slow(&mut self, cost: u32) -> Result<(), RtError> {
        if cost == 0 {
            return Ok(());
        }
        let old = self.counters.instrs;
        let want = old.saturating_add(cost as u64);
        let fuel = self.limits.fuel;
        // How many of the `cost` steps the tree engine would have completed:
        // each step first counts itself (with its mode work), then fails if
        // the total exceeds the fuel — so the failing step is still counted.
        let taken = if want > fuel {
            fuel.saturating_add(1).saturating_sub(old).min(cost as u64)
        } else {
            cost as u64
        };
        self.counters.instrs = old + taken;
        match self.mode {
            ExecMode::Valgrind => {
                self.counters.jit_instrs += taken;
                for _ in 0..taken {
                    self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            }
            ExecMode::Purify => self.counters.bt_instrs += taken,
            _ => {}
        }
        // The tree engine fails the step that pushes `instrs` past the fuel
        // even though that step is counted — so a batch whose *last* step is
        // the failing one must error too, not just one cut short.
        if want > fuel {
            return Err(RtError::OutOfFuel);
        }
        // Poll once if the batch crossed a 0x4000-instruction boundary. (If
        // several steps of one batch straddle the boundary *and* run out of
        // fuel, the tree engine may have squeezed in one extra armed-deadline
        // poll; deadline runs are wall-clock-dependent either way.)
        if (old + taken) >> 14 > old >> 14 {
            self.poll_deadline()?;
        }
        Ok(())
    }

    fn poll_deadline(&mut self) -> Result<(), RtError> {
        if let Some(t) = self.deadline_at {
            self.counters.limit_checks += 1;
            if Instant::now() > t {
                return Err(RtError::LimitExceeded {
                    limit: "deadline",
                    detail: format!(
                        "wall-clock deadline of {:?} passed",
                        self.limits.deadline.unwrap_or_default()
                    ),
                });
            }
        }
        Ok(())
    }

    pub(crate) fn eval(&mut self, e: &Exp) -> Result<Value, RtError> {
        self.step()?;
        match e {
            Exp::Const(Const::Int(v, _), _) => Ok(Value::Int(*v)),
            Exp::Const(Const::Float(v, _), _) => Ok(Value::Float(*v)),
            Exp::SizeOf(_, n, _) => Ok(Value::Int(*n as i128)),
            Exp::FnAddr(f, _) => Ok(Value::Ptr(PtrVal::Fn(*f))),
            Exp::Load(lv, ty) => {
                let place = self.resolve_lval(lv)?;
                self.load_place(place, *ty)
            }
            Exp::AddrOf(lv, ty) => {
                let p = match self.resolve_lval(lv)? {
                    Place::Mem(p) => p,
                    Place::Reg(_) => {
                        return Err(RtError::Unsupported(
                            "address of register-allocated local".into(),
                        ))
                    }
                };
                Ok(Value::Ptr(self.make_ptr(p, *ty, None)?))
            }
            Exp::StartOf(lv, ty) => {
                let arr_ty = self.lval_type(lv)?;
                let p = match self.resolve_lval(lv)? {
                    Place::Mem(p) => p,
                    Place::Reg(_) => return Err(RtError::Unsupported("array in register".into())),
                };
                let extent = match self.prog.types.get(arr_ty) {
                    Type::Array(elem, Some(n)) => Some(n * self.elem_size(*elem)?),
                    _ => None,
                };
                Ok(Value::Ptr(self.make_ptr(p, *ty, extent)?))
            }
            Exp::Unop(op, x, ty) => {
                let v = self.eval(x)?;
                self.apply_unop(*op, v, *ty)
            }
            Exp::Binop(op, a, b, ty) => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.apply_binop(*op, va, vb, a.ty(), *ty)
            }
            Exp::Cast(id, x, _) => {
                let v = self.eval(x)?;
                self.eval_cast(*id, v)
            }
        }
    }

    /// `rttiOf` with a per-interpreter cache (the hierarchy lookup is a
    /// linear scan, too hot for per-cast use).
    fn node_of_cached(&mut self, hier: &Hierarchy, t: TypeId) -> u32 {
        if let Some(&n) = self.node_cache.get(&t.0) {
            return n;
        }
        let n = hier
            .node_of(self.prog, t)
            .unwrap_or(ccured::hierarchy::VOID_NODE);
        self.node_cache.insert(t.0, n);
        n
    }

    /// Builds a pointer value for `&lval`/`startof(lval)` according to the
    /// target pointer type's inferred kind.
    pub(crate) fn make_ptr(
        &mut self,
        p: Pointer,
        ptr_ty: TypeId,
        extent: Option<u64>,
    ) -> Result<PtrVal, RtError> {
        let (pointee, q) = match self.prog.types.ptr_parts(ptr_ty) {
            Some(x) => x,
            None => return Ok(PtrVal::Safe(p)),
        };
        Ok(match self.mode {
            ExecMode::Cured { sol, hier, .. } => {
                let size = self.elem_size(pointee)?;
                match sol.kind(q) {
                    PtrKind::Safe if sol.is_rtti(q) => {
                        let node = self.node_of_cached(hier, pointee);
                        PtrVal::Rtti { p, node }
                    }
                    // An array decay knows its extent even when the decayed
                    // qualifier is SAFE; carrying the bounds through the
                    // SAFE hop mirrors CCured's creation of b/e metadata at
                    // the decay site (a later SEQ conversion must not end up
                    // with one-element bounds for a whole array).
                    PtrKind::Safe => match extent {
                        Some(e) => PtrVal::Seq {
                            p,
                            lo: p.offset,
                            hi: p.offset + e as i64,
                        },
                        None => PtrVal::Safe(p),
                    },
                    PtrKind::Seq => {
                        let hi = p.offset + extent.unwrap_or(size) as i64;
                        PtrVal::Seq {
                            p,
                            lo: p.offset,
                            hi,
                        }
                    }
                    PtrKind::Wild => {
                        let alloc_size = self.mem.allocation(p.alloc).size() as i64;
                        PtrVal::Wild {
                            p,
                            lo: 0,
                            hi: alloc_size,
                        }
                    }
                }
            }
            _ => PtrVal::Safe(p),
        })
    }

    pub(crate) fn apply_unop(&mut self, op: UnOp, v: Value, ty: TypeId) -> Result<Value, RtError> {
        Ok(match (op, v) {
            (UnOp::Neg, Value::Int(x)) => Value::Int(self.trunc_to(ty, x.wrapping_neg())),
            (UnOp::Neg, Value::Float(x)) => Value::Float(-x),
            (UnOp::BitNot, Value::Int(x)) => Value::Int(self.trunc_to(ty, !x)),
            (UnOp::Not, v) => Value::Int(if v.is_truthy() { 0 } else { 1 }),
            (op, v) => return Err(RtError::Unsupported(format!("unary {op:?} on {v:?}"))),
        })
    }

    pub(crate) fn apply_binop(
        &mut self,
        op: BinOp,
        a: Value,
        b: Value,
        a_ty: TypeId,
        res_ty: TypeId,
    ) -> Result<Value, RtError> {
        use BinOp::*;
        match op {
            PlusPI | MinusPI => {
                let elem = match self.prog.types.ptr_parts(a_ty) {
                    Some((t, _)) => self.elem_size(t),
                    None => Ok(1),
                };
                self.ptr_add(a, b, elem, op == MinusPI)
            }
            MinusPP => {
                let pa = a.as_ptr().and_then(|p| p.thin());
                let pb = b.as_ptr().and_then(|p| p.thin());
                let elem = match self.prog.types.ptr_parts(a_ty) {
                    Some((t, _)) => self.elem_size(t)?,
                    None => 1,
                } as i128;
                let diff = match (pa, pb) {
                    (Some(x), Some(y)) if x.alloc == y.alloc => (x.offset - y.offset) as i128,
                    _ => {
                        let va = a.as_ptr().map(|p| self.mem.va_of(&p)).unwrap_or(0) as i128;
                        let vb = b.as_ptr().map(|p| self.mem.va_of(&p)).unwrap_or(0) as i128;
                        va - vb
                    }
                };
                Ok(Value::Int(diff / elem))
            }
            Lt | Gt | Le | Ge | Eq | Ne => Ok(Value::Int(self.compare(op, a, b)? as i128)),
            _ => self.arith(op, a, b, self.int_kind(res_ty)),
        }
    }

    /// An arithmetic or bitwise operator, its integer result truncated to
    /// `trunc` (the kind [`Interp::int_kind`] resolves from the result
    /// type). Both engines evaluate every such operator here.
    #[inline(always)]
    pub(crate) fn arith(
        &self,
        op: BinOp,
        a: Value,
        b: Value,
        trunc: Option<IntKind>,
    ) -> Result<Value, RtError> {
        use BinOp::*;
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => {
                let r = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    _ => return Err(float_operator_error(op)),
                };
                Ok(Value::Float(r))
            }
            (Value::Int(x), Value::Int(y)) => {
                let r = match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            return Err(RtError::DivByZero);
                        }
                        x.wrapping_div(y)
                    }
                    Rem => {
                        if y == 0 {
                            return Err(RtError::DivByZero);
                        }
                        x.wrapping_rem(y)
                    }
                    Shl => x.wrapping_shl((y & 63) as u32),
                    Shr => x.wrapping_shr((y & 63) as u32),
                    BitAnd => x & y,
                    BitXor => x ^ y,
                    BitOr => x | y,
                    _ => unreachable!("not an arithmetic operator"),
                };
                Ok(Value::Int(match trunc {
                    Some(k) => trunc_int(r, k, &self.prog.types.machine),
                    None => r,
                }))
            }
            (x, y) => Err(operands_error(op, x, y)),
        }
    }

    /// A comparison, pointers comparing by virtual address. Both engines
    /// evaluate every comparison here.
    #[inline(always)]
    pub(crate) fn compare(&self, op: BinOp, a: Value, b: Value) -> Result<bool, RtError> {
        Ok(match (a, b) {
            (Value::Int(x), Value::Int(y)) => compare_i(op, x, y),
            (Value::Float(x), Value::Float(y)) => compare_f(op, x, y),
            (Value::Ptr(x), Value::Ptr(y)) => {
                let vx = self.mem.va_of(&x) as i128;
                let vy = self.mem.va_of(&y) as i128;
                compare_i(op, vx, vy)
            }
            (Value::Ptr(x), Value::Int(y)) => compare_i(op, self.mem.va_of(&x) as i128, y),
            (Value::Int(x), Value::Ptr(y)) => compare_i(op, x, self.mem.va_of(&y) as i128),
            (x, y) => return Err(comparison_error(x, y)),
        })
    }

    /// Size of a type that must be sized to execute this operation; a
    /// genuinely unsized or incomplete type surfaces as a graceful
    /// [`RtError::Unsupported`] instead of a silently guessed size.
    pub(crate) fn sized(&self, ty: TypeId, what: &str) -> Result<u64, RtError> {
        self.prog
            .types
            .size_of(ty)
            .map_err(|e| RtError::Unsupported(format!("{what}: {e}")))
    }

    /// Element size for pointer arithmetic and extent math. `void *`
    /// arithmetic deliberately uses 1-byte elements (the GNU C semantics the
    /// corpus relies on); any other unsized element type is an error.
    pub(crate) fn elem_size(&self, ty: TypeId) -> Result<u64, RtError> {
        if matches!(self.prog.types.get(ty), Type::Void) {
            return Ok(1);
        }
        self.sized(ty, "pointer arithmetic element")
    }

    /// The integer kind a value of type `ty` truncates to (`None` for a
    /// type that is not an integer).
    pub(crate) fn int_kind(&self, ty: TypeId) -> Option<IntKind> {
        match self.prog.types.get(ty) {
            Type::Int(k) => Some(*k),
            _ => None,
        }
    }

    /// Truncates an integer to the width/signedness of `ty`.
    fn trunc_to(&self, ty: TypeId, v: i128) -> i128 {
        match self.int_kind(ty) {
            Some(k) => trunc_int(v, k, &self.prog.types.machine),
            None => v,
        }
    }

    // ---------------------------------------------------------------- casts

    pub(crate) fn eval_cast(&mut self, id: CastId, v: Value) -> Result<Value, RtError> {
        let site = &self.prog.casts[id.idx()];
        let types = &self.prog.types;
        let from_ptr = types.ptr_parts(site.from);
        let to_ptr = types.ptr_parts(site.to);
        match (from_ptr, to_ptr) {
            // Numeric conversion.
            (None, None) => Ok(RegNorm::of(types, site.to).apply(v)),
            (Some(_), None) => {
                // Pointer to integer: the virtual address.
                let p = v
                    .as_ptr()
                    .ok_or_else(|| RtError::Unsupported("ptr-to-int of non-pointer".into()))?;
                let va = self.mem.va_of(&p) as i128;
                Ok(Value::Int(self.trunc_to(site.to, va)))
            }
            (None, Some((_, tq))) => {
                // Integer to pointer.
                let x = v
                    .as_int()
                    .ok_or_else(|| RtError::Unsupported("int-to-ptr of non-integer".into()))?;
                if x == 0 {
                    return Ok(Value::NULL);
                }
                match self.mode {
                    ExecMode::Cured { sol, .. } => {
                        // Figure 10: b = null — a disguised integer.
                        let _ = sol.kind(tq);
                        Ok(Value::Ptr(PtrVal::IntVal(x as u64)))
                    }
                    _ => {
                        // Original C: resurrect via the address map if
                        // possible (round-trip casts are common C).
                        match self.mem.ptr_of_va(x as u64) {
                            Some(p) => Ok(Value::Ptr(PtrVal::Safe(p))),
                            None => Ok(Value::Ptr(PtrVal::IntVal(x as u64))),
                        }
                    }
                }
            }
            (Some((fb, _fq)), Some((tb, tq))) => {
                let pv = v
                    .as_ptr()
                    .ok_or_else(|| RtError::Unsupported("ptr cast of non-pointer".into()))?;
                match self.mode {
                    ExecMode::Cured { sol, hier, .. } => {
                        self.counters.fat_converts += 1;
                        let target_kind = sol.kind(tq);
                        let target_rtti = sol.is_rtti(tq);
                        Ok(Value::Ptr(self.convert_repr(
                            pv,
                            site,
                            fb,
                            tb,
                            target_kind,
                            target_rtti,
                            hier,
                        )?))
                    }
                    _ => Ok(Value::Ptr(pv)),
                }
            }
        }
    }

    /// Converts a pointer representation at a cast (cured mode).
    #[allow(clippy::too_many_arguments)]
    fn convert_repr(
        &mut self,
        pv: PtrVal,
        site: &CastSite,
        fb: TypeId,
        tb: TypeId,
        target_kind: PtrKind,
        target_rtti: bool,
        hier: &Hierarchy,
    ) -> Result<PtrVal, RtError> {
        if pv.is_null() {
            return Ok(PtrVal::Null);
        }
        if let PtrVal::Fn(f) = pv {
            return Ok(PtrVal::Fn(f));
        }
        if let PtrVal::IntVal(x) = pv {
            return Ok(PtrVal::IntVal(x));
        }
        let p = pv
            .thin()
            .ok_or_else(|| RtError::Internal("cast of a pointer with no memory position".into()))?;
        // Trusted and allocator casts may fabricate metadata from the
        // actual allocation (the runtime knows the real extent).
        let alloc_extent = || {
            let size = self.mem.allocation(p.alloc).size() as i64;
            (0i64, size)
        };
        Ok(match (target_kind, target_rtti) {
            (PtrKind::Safe, false) => PtrVal::Safe(p),
            (PtrKind::Safe, true) => {
                let node = match pv {
                    PtrVal::Rtti { node, .. } => node,
                    _ if site.alloc || site.trusted => {
                        // Fresh or trusted memory is typed at the target.
                        self.node_of_cached(hier, tb)
                    }
                    _ => {
                        // SAFE -> RTTI upcast records the static source type
                        // (paper Figure 2).
                        self.node_of_cached(hier, fb)
                    }
                };
                PtrVal::Rtti { p, node }
            }
            (PtrKind::Seq, _) => match pv {
                PtrVal::Seq { lo, hi, .. } | PtrVal::Wild { lo, hi, .. } => {
                    PtrVal::Seq { p, lo, hi }
                }
                _ if site.trusted || site.alloc => {
                    let (lo, hi) = alloc_extent();
                    PtrVal::Seq { p, lo, hi }
                }
                _ => {
                    // SAFE -> SEQ: bounds are one element of the source type
                    // (Figure 11) — except for a pointer to the start of a
                    // heap allocation, whose true extent is known (CCured's
                    // allocator wrappers return SEQ pointers spanning the
                    // whole allocation; the SAFE hop in between must not
                    // lose that).
                    let alloc = self.mem.allocation(p.alloc);
                    if p.offset == 0 && matches!(alloc.kind, AllocKind::Heap) {
                        PtrVal::Seq {
                            p,
                            lo: 0,
                            hi: alloc.size() as i64,
                        }
                    } else {
                        let size = self.elem_size(fb)? as i64;
                        PtrVal::Seq {
                            p,
                            lo: p.offset,
                            hi: p.offset + size,
                        }
                    }
                }
            },
            (PtrKind::Wild, _) => match pv {
                PtrVal::Wild { lo, hi, .. } | PtrVal::Seq { lo, hi, .. } => {
                    PtrVal::Wild { p, lo, hi }
                }
                _ => {
                    let (lo, hi) = alloc_extent();
                    PtrVal::Wild { p, lo, hi }
                }
            },
        })
    }

    // ------------------------------------------------------------- lvalues

    /// The static type of an lvalue in the current frame.
    fn lval_type(&self, lv: &Lval) -> Result<TypeId, RtError> {
        Ok(ccured_infer::gen::lval_type(
            self.prog,
            self.cur_func()?,
            lv,
        ))
    }

    fn resolve_lval(&mut self, lv: &Lval) -> Result<Place, RtError> {
        let mut cur: Place;
        let mut ty: TypeId;
        match &lv.base {
            LvBase::Local(l) => {
                ty = self.cur_func()?.locals[l.idx()].ty;
                match self.frame()?.slots[l.idx()] {
                    LocalSlot::Reg => {
                        if lv.offsets.is_empty() {
                            return Ok(Place::Reg(*l));
                        }
                        return Err(RtError::Unsupported(
                            "offsets into register-allocated local".into(),
                        ));
                    }
                    LocalSlot::Mem(a) => {
                        cur = Place::Mem(Pointer {
                            alloc: a,
                            offset: 0,
                        });
                    }
                }
            }
            LvBase::Global(g) => {
                ty = self.prog.globals[g.idx()].ty;
                cur = Place::Mem(Pointer {
                    alloc: self.globals[g.idx()],
                    offset: 0,
                });
            }
            LvBase::Deref(e) => {
                ty = match self.prog.types.ptr_parts(e.ty()) {
                    Some((t, _)) => t,
                    None => return Err(RtError::Unsupported("deref of non-pointer type".into())),
                };
                let v = self.eval(e)?;
                cur = Place::Mem(self.deref(v)?);
            }
        }
        for off in &lv.offsets {
            let p = match cur {
                Place::Mem(p) => p,
                Place::Reg(_) => unreachable!("register places have no offsets"),
            };
            match off {
                Offset::Field(cid, idx) => {
                    let f = &self.prog.types.comp(*cid).fields[*idx];
                    cur = Place::Mem(p.offset_by(f.offset as i64));
                    ty = f.ty;
                }
                Offset::Index(e) => {
                    let (elem, es) = match self.prog.types.get(ty) {
                        Type::Array(elem, _) => (*elem, self.sized(*elem, "array element")?),
                        _ => return Err(RtError::Unsupported("index into non-array".into())),
                    };
                    let i = self.eval(e)?;
                    cur = Place::Mem(self.index(p, i, es)?);
                    ty = elem;
                }
            }
        }
        Ok(cur)
    }

    pub(crate) fn load_place(&mut self, place: Place, ty: TypeId) -> Result<Value, RtError> {
        match place {
            Place::Reg(l) => self.read_reg(l, ZeroKind::of(&self.prog.types, ty)),
            Place::Mem(p) => {
                let types = &{ self.prog }.types;
                match types.get(ty) {
                    Type::Int(k) => Ok(Value::Int(self.load_int(
                        p,
                        types.machine.int_size(*k),
                        k.is_signed(),
                    )?)),
                    Type::Float(fk) => Ok(Value::Float(
                        self.load_float(p, types.machine.float_size(*fk))?,
                    )),
                    Type::Ptr(_, q) => Ok(Value::Ptr(self.load_ptr(p, *q)?)),
                    other => {
                        let size = self.sized(ty, "load")?;
                        self.access_hook(p, size, false);
                        self.counters.loads += 1;
                        Err(RtError::Unsupported(format!("load of {other:?}")))
                    }
                }
            }
        }
    }

    // ------------------------------------------------- machine primitives
    //
    // Each register and memory access, pointer step, call and check
    // entry/exit is written once, here: the tree engine calls these with
    // what it resolves from the type tables at each visit, the VM with
    // what its compiler resolved once.

    /// Reads register local `l`. An unset register reads as `zero` under
    /// the zeroing allocator (real CCured programs never observe garbage),
    /// else fails as an uninitialized read.
    #[inline(always)]
    pub(crate) fn read_reg(&self, l: LocalId, zero: ZeroKind) -> Result<Value, RtError> {
        match self.frames.last().ok_or_else(no_frame)?.regs[l.idx()] {
            Some(v) => Ok(v),
            None if self.zero_init => Ok(zero.value()),
            None => Err(RtError::UninitRead),
        }
    }

    /// Writes register local `l` (`v` is already normalized).
    #[inline(always)]
    pub(crate) fn write_reg(&mut self, l: LocalId, v: Value) -> Result<(), RtError> {
        self.frames.last_mut().ok_or_else(no_frame)?.regs[l.idx()] = Some(v);
        Ok(())
    }

    /// Loads a `size`-byte integer.
    #[inline(always)]
    pub(crate) fn load_int(
        &mut self,
        p: Pointer,
        size: u64,
        signed: bool,
    ) -> Result<i128, RtError> {
        self.access_hook(p, size, false);
        self.counters.loads += 1;
        self.mem.read_int(p, size, signed)
    }

    /// Loads a `size`-byte (4 or 8) float.
    #[inline(always)]
    pub(crate) fn load_float(&mut self, p: Pointer, size: u64) -> Result<f64, RtError> {
        self.access_hook(p, size, false);
        self.counters.loads += 1;
        self.mem.read_float(p, size)
    }

    /// Loads a pointer slot declared with qualifier `q`.
    #[inline(always)]
    pub(crate) fn load_ptr(&mut self, p: Pointer, q: QualId) -> Result<PtrVal, RtError> {
        self.access_hook(p, self.word, false);
        self.counters.loads += 1;
        let v = self.mem.read_ptr(p, self.word)?;
        self.split_meta_op(q);
        Ok(v)
    }

    /// A split pointer's metadata lives in the parallel structure, so a
    /// load or store through a SPLIT qualifier pays the second (shadow)
    /// access.
    #[inline(always)]
    fn split_meta_op(&mut self, q: QualId) {
        if let ExecMode::Cured { sol, .. } = self.mode {
            if sol.is_split(q) {
                self.counters.meta_ops += 1;
            }
        }
    }

    /// Stores `v` as a `size`-byte integer of kind `k`.
    #[inline(always)]
    pub(crate) fn store_int(
        &mut self,
        p: Pointer,
        k: IntKind,
        size: u64,
        v: Value,
    ) -> Result<(), RtError> {
        self.access_hook(p, size, true);
        self.counters.stores += 1;
        let x = match v {
            Value::Int(x) => x,
            Value::Float(f) => f as i128,
            Value::Ptr(pv) => self.mem.va_of(&pv) as i128,
        };
        self.mem
            .write_int(p, size, trunc_int(x, k, &self.prog.types.machine))
    }

    /// Stores `v` as a `size`-byte (4 or 8) float.
    #[inline(always)]
    pub(crate) fn store_float(&mut self, p: Pointer, size: u64, v: Value) -> Result<(), RtError> {
        self.access_hook(p, size, true);
        self.counters.stores += 1;
        let f = match v {
            Value::Float(f) => f,
            Value::Int(x) => x as f64,
            Value::Ptr(_) => return Err(RtError::Unsupported("pointer stored as float".into())),
        };
        self.mem.write_float(p, size, f)
    }

    /// Stores `v` into a pointer slot declared with qualifier `q`.
    #[inline(always)]
    pub(crate) fn store_ptr(&mut self, p: Pointer, q: QualId, v: Value) -> Result<(), RtError> {
        self.access_hook(p, self.word, true);
        self.counters.stores += 1;
        let pv = match v {
            Value::Ptr(pv) => pv,
            Value::Int(0) => PtrVal::Null,
            Value::Int(x) => PtrVal::IntVal(x as u64),
            Value::Float(_) => return Err(RtError::Unsupported("float stored as pointer".into())),
        };
        self.split_meta_op(q);
        self.mem.write_ptr(p, pv, self.word)
    }

    /// Copies a `size`-byte aggregate from `src` to `dst`.
    #[inline(always)]
    pub(crate) fn copy_agg(
        &mut self,
        dst: Pointer,
        src: Pointer,
        size: u64,
    ) -> Result<(), RtError> {
        self.access_hook(src, size, false);
        self.access_hook(dst, size, true);
        self.counters.loads += 1;
        self.counters.stores += 1;
        self.mem.copy_region(dst, src, size)
    }

    /// The address a dereferenced pointer value names (after the
    /// Jones–Kelly registry lookup), or the error its dereference raises.
    #[inline(always)]
    pub(crate) fn deref(&mut self, v: Value) -> Result<Pointer, RtError> {
        let pv = v
            .as_ptr()
            .ok_or_else(|| RtError::Unsupported("deref of non-pointer value".into()))?;
        self.deref_hook(&pv)?;
        match pv {
            PtrVal::Null => Err(RtError::NullDeref),
            PtrVal::IntVal(x) => Err(RtError::InvalidPointer(format!(
                "integer {x:#x} dereferenced"
            ))),
            PtrVal::Fn(_) => Err(RtError::InvalidPointer(
                "function pointer dereferenced".into(),
            )),
            other => other.thin().ok_or_else(|| {
                RtError::Internal("dereferenced pointer has no memory position".into())
            }),
        }
    }

    /// The address of element `i` of an array of `es`-byte elements at `p`.
    #[inline(always)]
    pub(crate) fn index(&self, p: Pointer, i: Value, es: u64) -> Result<Pointer, RtError> {
        let i = i
            .as_int()
            .ok_or_else(|| RtError::Unsupported("non-integer index".into()))?;
        Ok(p.offset_by(i as i64 * es as i64))
    }

    /// Pointer arithmetic `a ± b` in `elem`-byte elements (`PlusPI`, or
    /// `MinusPI` when `neg`), with the Jones–Kelly registry lookup. The
    /// operands are checked before `elem` is read, so an operand error
    /// comes before a sizing error.
    #[inline(always)]
    pub(crate) fn ptr_add(
        &mut self,
        a: Value,
        b: Value,
        elem: Result<u64, RtError>,
        neg: bool,
    ) -> Result<Value, RtError> {
        let pv = a
            .as_ptr()
            .ok_or_else(|| RtError::Unsupported("pointer arithmetic on non-pointer".into()))?;
        let n = b
            .as_int()
            .ok_or_else(|| RtError::Unsupported("pointer arithmetic with non-integer".into()))?;
        let delta = (n as i64).wrapping_mul(elem? as i64);
        let delta = if neg { -delta } else { delta };
        self.ptr_arith_hook(&pv)?;
        Ok(Value::Ptr(pv.offset_by(delta)))
    }

    /// The function a function-pointer value names.
    #[inline(always)]
    pub(crate) fn resolve_callee(&self, v: Value) -> Result<FnRef, RtError> {
        match v.as_ptr() {
            Some(PtrVal::Fn(f)) => Ok(f),
            Some(PtrVal::Null) => Err(RtError::NullDeref),
            _ => Err(RtError::NotAFunction),
        }
    }

    /// Calls the external `x` with `args`.
    pub(crate) fn call_extern(
        &mut self,
        x: ExternId,
        args: &[Value],
    ) -> Result<Option<Value>, RtError> {
        let prog = self.prog;
        self.counters.extern_calls += 1;
        external::call(self, &prog.externals[x.idx()].name, args)
    }

    /// Binds a parameter whose slot `p` is in memory. A by-value
    /// aggregate arrives as its source address and is copied into the
    /// fresh local; unlike [`Interp::copy_agg`], the copy pays no
    /// baseline access hooks.
    fn bind_mem_param(&mut self, p: Pointer, ty: TypeId, v: Value) -> Result<(), RtError> {
        if matches!(self.prog.types.get(ty), Type::Comp(_) | Type::Array(..)) {
            let src = match v {
                Value::Ptr(pv) => pv.thin().ok_or(RtError::NullDeref)?,
                _ => {
                    return Err(RtError::Unsupported(
                        "aggregate parameter needs an address".into(),
                    ))
                }
            };
            let size = self.sized(ty, "aggregate parameter")?;
            self.counters.loads += 1;
            self.counters.stores += 1;
            return self.mem.copy_region(p, src, size);
        }
        self.store_typed(p, ty, v)
    }

    pub(crate) fn store_lval(&mut self, lv: &Lval, ty: TypeId, v: Value) -> Result<(), RtError> {
        match self.resolve_lval(lv)? {
            Place::Reg(l) => {
                let v = self.normalize_scalar(ty, v);
                self.write_reg(l, v)
            }
            Place::Mem(p) => {
                // WILD stores through a deref update the area's tags.
                let mut wild_tag = false;
                if self.mode.is_cured() && lv.is_deref() {
                    if let LvBase::Deref(e) = &lv.base {
                        if let (Some((_, q)), ExecMode::Cured { sol, .. }) =
                            (self.prog.types.ptr_parts(e.ty()), self.mode)
                        {
                            wild_tag = sol.kind(q) == PtrKind::Wild;
                        }
                    }
                }
                self.store_mem_checked(p, ty, v, wild_tag)
            }
        }
    }

    /// Stores a scalar into memory with cured-mode stack-escape enforcement.
    /// `wild_tag` marks destinations reached through a WILD dereference,
    /// which pay the tag-bitmap upkeep. Shared by both engines.
    pub(crate) fn store_mem_checked(
        &mut self,
        p: Pointer,
        ty: TypeId,
        v: Value,
        wild_tag: bool,
    ) -> Result<(), RtError> {
        self.store_precheck(p, &v, wild_tag)?;
        self.store_typed(p, ty, v)
    }

    /// Pre-store enforcement shared by both engines: stack-escape rejection
    /// and WILD tag-bitmap upkeep (cured mode only).
    #[inline]
    pub(crate) fn store_precheck(
        &mut self,
        p: Pointer,
        v: &Value,
        wild_tag: bool,
    ) -> Result<(), RtError> {
        // Stack-escape enforcement (cured mode): storing a stack
        // pointer into a heap or global allocation is rejected.
        if self.mode.is_cured() {
            if let Value::Ptr(pv) = v {
                if let Some(tp) = pv.thin() {
                    let val_kind = self.mem.allocation(tp.alloc).kind;
                    let dst_kind = self.mem.allocation(p.alloc).kind;
                    if matches!(val_kind, AllocKind::Stack { .. })
                        && !matches!(dst_kind, AllocKind::Stack { .. })
                    {
                        return Err(RtError::CheckFailed {
                            check: CheckKind::NoStackEscape.name(),
                            detail: "stack pointer stored into the heap".into(),
                        });
                    }
                }
            }
            if wild_tag {
                self.counters.tag_updates += 1;
            }
        }
        Ok(())
    }

    /// Normalizes a scalar value to its declared type (integer truncation).
    pub(crate) fn normalize_scalar(&self, ty: TypeId, v: Value) -> Value {
        RegNorm::of(&self.prog.types, ty).apply(v)
    }

    pub(crate) fn store_typed(&mut self, p: Pointer, ty: TypeId, v: Value) -> Result<(), RtError> {
        let types = &{ self.prog }.types;
        match types.get(ty) {
            Type::Int(k) => self.store_int(p, *k, types.machine.int_size(*k), v),
            Type::Float(fk) => self.store_float(p, types.machine.float_size(*fk), v),
            Type::Ptr(_, q) => self.store_ptr(p, *q, v),
            other => {
                let size = self.sized(ty, "store")?;
                self.access_hook(p, size, true);
                self.counters.stores += 1;
                Err(RtError::Unsupported(format!("store of {other:?}")))
            }
        }
    }

    // -------------------------------------------------------- baseline hooks

    /// Registers an allocation in baseline shadow structures. Every
    /// allocation the interpreter or a builtin makes flows through here, so
    /// this is also where the zeroing-allocator mode marks fresh memory
    /// initialized, and where the per-allocation limit consultation is
    /// tallied for the sandbox-overhead accounting.
    pub(crate) fn register_alloc(&mut self, id: AllocId) {
        self.counters.limit_checks += 1;
        if self.zero_init {
            self.mem.mark_init(id);
        }
        match self.mode {
            ExecMode::Purify | ExecMode::Valgrind => {
                let size = self.mem.allocation(id).size() as usize;
                self.shadow.insert(id.0, vec![0u8; size]);
                self.counters.shadow_ops += size as u64;
            }
            ExecMode::JonesKelly => {
                let base = (id.0 as u64 + 1) << 32;
                let size = self.mem.allocation(id).size();
                self.registry.insert(base, size);
                self.counters.registry_lookups += 1;
            }
            _ => {}
        }
    }

    /// Frees heap allocation `id` with its baseline shadow (the original
    /// program's `free` and `realloc`).
    pub(crate) fn free(&mut self, id: AllocId) -> Result<(), RtError> {
        self.mem.free(id)?;
        self.shadow.remove(&id.0);
        Ok(())
    }

    /// Per-access shadow work for the baselines.
    #[inline(always)]
    pub(crate) fn access_hook(&mut self, p: Pointer, size: u64, write: bool) {
        if matches!(self.mode, ExecMode::Purify | ExecMode::Valgrind) {
            self.shadow_access(p, size, write);
        }
    }

    /// The Purify/Valgrind shadow-bit upkeep of one access.
    #[cold]
    fn shadow_access(&mut self, p: Pointer, size: u64, write: bool) {
        match self.mode {
            ExecMode::Purify => {
                // Two status bits per byte: addressable | initialized.
                if let Some(sh) = self.shadow.get_mut(&p.alloc.0) {
                    let off = p.offset.max(0) as usize;
                    for b in sh.iter_mut().skip(off).take(size as usize) {
                        if write {
                            *b |= 0b11;
                        } else {
                            // Read: consult the bits (work is the point).
                            std::hint::black_box(*b);
                        }
                    }
                }
                self.counters.shadow_ops += 4 + size;
            }
            ExecMode::Valgrind => {
                // 9 shadow bits per byte (V bits + A bit): heavier upkeep.
                if let Some(sh) = self.shadow.get_mut(&p.alloc.0) {
                    let off = p.offset.max(0) as usize;
                    for b in sh.iter_mut().skip(off).take(size as usize) {
                        if write {
                            *b = 0xff;
                        } else {
                            std::hint::black_box(*b);
                        }
                    }
                }
                self.counters.shadow_ops += size * 3;
            }
            _ => {}
        }
    }

    /// Jones–Kelly: pointer dereferences consult the object registry.
    #[inline(always)]
    pub(crate) fn deref_hook(&mut self, pv: &PtrVal) -> Result<(), RtError> {
        if let ExecMode::JonesKelly = self.mode {
            if let Some(p) = pv.thin() {
                let va = self.mem.va_of(&PtrVal::Safe(p));
                // Range query: the greatest base <= va.
                let hit = self.registry.range(..=va).next_back();
                std::hint::black_box(hit);
                self.counters.registry_lookups += 1;
            }
        }
        Ok(())
    }

    /// Jones–Kelly: pointer arithmetic also consults the registry.
    #[inline(always)]
    pub(crate) fn ptr_arith_hook(&mut self, pv: &PtrVal) -> Result<(), RtError> {
        self.deref_hook(pv)
    }
}

pub(crate) fn no_frame() -> RtError {
    RtError::Internal("no active frame".into())
}

#[inline(always)]
fn compare_i(op: BinOp, a: i128, b: i128) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("not a comparison"),
    }
}

#[inline(always)]
fn compare_f(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        _ => unreachable!("not a comparison"),
    }
}

#[cold]
fn float_operator_error(op: BinOp) -> RtError {
    RtError::Unsupported(format!("float operator {op:?}"))
}

#[cold]
fn operands_error(op: BinOp, x: Value, y: Value) -> RtError {
    RtError::Unsupported(format!("operator {op:?} between {x:?} and {y:?}"))
}

#[cold]
fn comparison_error(x: Value, y: Value) -> RtError {
    RtError::Unsupported(format!("comparison between {x:?} and {y:?}"))
}

/// An integer kind's width and signedness, resolved from the machine
/// once, so truncating is two shifts.
#[derive(Clone, Copy)]
pub(crate) struct IntTrunc {
    /// 128 minus the kind's width in bits (0 for a 128-bit kind).
    shift: u32,
    signed: bool,
}

impl IntTrunc {
    /// The truncation to kind `k` on `machine`.
    #[inline(always)]
    pub(crate) fn of(k: IntKind, machine: &Machine) -> IntTrunc {
        IntTrunc {
            shift: 128u64.saturating_sub(machine.int_size(k).saturating_mul(8)) as u32,
            signed: k.is_signed(),
        }
    }

    /// Truncates `v`.
    #[inline(always)]
    pub(crate) fn apply(self, v: i128) -> i128 {
        if self.signed {
            (v << self.shift) >> self.shift
        } else {
            ((v << self.shift) as u128 >> self.shift) as i128
        }
    }
}

/// Truncates `v` to the width and signedness of `k`.
#[inline(always)]
pub fn trunc_int(v: i128, k: IntKind, machine: &Machine) -> i128 {
    IntTrunc::of(k, machine).apply(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_original(src: &str) -> Result<i64, RtError> {
        let tu = ccured_ast::parse_translation_unit(src).expect("parse");
        let prog = ccured_cil::lower_translation_unit(&tu).expect("lower");
        let mut i = Interp::new(&prog, ExecMode::Original);
        i.run()
    }

    fn run_cured(src: &str) -> Result<i64, RtError> {
        let cured = ccured::Curer::new().cure_source(src).expect("cure");
        let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
        i.run()
    }

    fn run_both(src: &str) -> (Result<i64, RtError>, Result<i64, RtError>) {
        (run_original(src), run_cured(src))
    }

    #[test]
    fn arithmetic_and_locals() {
        let (o, c) = run_both("int main(void) { int a = 6; int b = 7; return a * b; }");
        assert_eq!(o.unwrap(), 42);
        assert_eq!(c.unwrap(), 42);
    }

    #[test]
    fn control_flow_loops() {
        let src = "int main(void) { int s = 0; for (int i = 1; i <= 10; i++) s += i; return s; }";
        let (o, c) = run_both(src);
        assert_eq!(o.unwrap(), 55);
        assert_eq!(c.unwrap(), 55);
    }

    #[test]
    fn while_do_while_continue_break() {
        let src = "int main(void) {\n\
                     int s = 0; int i = 0;\n\
                     while (1) { i++; if (i > 10) break; if (i % 2) continue; s += i; }\n\
                     do { s++; } while (s < 31);\n\
                     return s;\n\
                   }";
        assert_eq!(run_original(src).unwrap(), 31);
        assert_eq!(run_cured(src).unwrap(), 31);
    }

    #[test]
    fn goto_forward_and_backward() {
        let src = "int main(void) {\n\
                     int i = 0;\n\
                     again: i++;\n\
                     if (i < 5) goto again;\n\
                     goto out;\n\
                     i = 100;\n\
                     out: return i;\n\
                   }";
        assert_eq!(run_original(src).unwrap(), 5);
        assert_eq!(run_cured(src).unwrap(), 5);
    }

    #[test]
    fn switch_with_fallthrough() {
        let src = "int classify(int x) {\n\
                     int r = 0;\n\
                     switch (x) {\n\
                       case 1:\n\
                       case 2: r = 12; break;\n\
                       case 3: r = 3;\n\
                       case 4: r += 100; break;\n\
                       default: r = -1;\n\
                     }\n\
                     return r;\n\
                   }\n\
                   int main(void) { return classify(1) + classify(3) + classify(9); }";
        assert_eq!(run_original(src).unwrap(), 12 + 103 - 1);
        assert_eq!(run_cured(src).unwrap(), 12 + 103 - 1);
    }

    #[test]
    fn arrays_and_pointers() {
        let src = "int main(void) {\n\
                     int a[5];\n\
                     for (int i = 0; i < 5; i++) a[i] = i * i;\n\
                     int *p = a;\n\
                     int s = 0;\n\
                     for (int i = 0; i < 5; i++) s += p[i];\n\
                     return s;\n\
                   }";
        assert_eq!(run_original(src).unwrap(), 30);
        assert_eq!(run_cured(src).unwrap(), 30);
    }

    #[test]
    fn structs_and_fields() {
        let src = "struct P { int x; int y; };\n\
                   int main(void) {\n\
                     struct P p;\n\
                     p.x = 3; p.y = 4;\n\
                     struct P q;\n\
                     q = p;\n\
                     return q.x * q.x + q.y * q.y;\n\
                   }";
        assert_eq!(run_original(src).unwrap(), 25);
        assert_eq!(run_cured(src).unwrap(), 25);
    }

    #[test]
    fn pointer_args_and_writes() {
        let src = "void bump(int *p) { *p = *p + 1; }\n\
                   int main(void) { int x = 41; bump(&x); return x; }";
        assert_eq!(run_original(src).unwrap(), 42);
        assert_eq!(run_cured(src).unwrap(), 42);
    }

    #[test]
    fn function_pointers_dispatch() {
        let src = "int inc(int x) { return x + 1; }\n\
                   int dbl(int x) { return x * 2; }\n\
                   int main(void) {\n\
                     int (*f)(int);\n\
                     f = inc;\n\
                     int a = f(10);\n\
                     f = dbl;\n\
                     return a + f(10);\n\
                   }";
        assert_eq!(run_original(src).unwrap(), 31);
        assert_eq!(run_cured(src).unwrap(), 31);
    }

    #[test]
    fn strings_and_globals() {
        let src = "char msg[6] = \"hello\";\n\
                   int main(void) { return msg[0] + msg[4]; }";
        assert_eq!(run_original(src).unwrap(), ('h' as i64) + ('o' as i64));
        assert_eq!(run_cured(src).unwrap(), ('h' as i64) + ('o' as i64));
    }

    #[test]
    fn oob_detected_in_cured_mode() {
        // a[6] is within main's stack allocation in real C (silent), but in
        // our model `a` is its own allocation, so both modes detect it —
        // original as ground truth, cured as a CHECK failure.
        let src = "int main(void) { int a[4]; for (int i = 0; i < 4; i++) a[i] = i; int j = 6; return a[j]; }";
        let (o, c) = run_both(src);
        assert!(o.unwrap_err().is_memory_error());
        let ce = c.unwrap_err();
        assert!(
            ce.is_check_failure(),
            "cured must fail via a check, got {ce}"
        );
    }

    #[test]
    fn interior_overflow_silent_in_original_caught_in_cured() {
        // Overflowing buf reaches the adjacent field inside the SAME struct
        // allocation: classic silent corruption in C, caught by CCured.
        let src = "struct S { char buf[4]; int secret; };\n\
                   int main(void) {\n\
                     struct S s;\n\
                     s.secret = 7;\n\
                     int i = 5;\n\
                     s.buf[i] = 42; /* overwrites part of secret */\n\
                     return s.secret;\n\
                   }";
        let (o, c) = run_both(src);
        let o = o.unwrap();
        assert_ne!(o, 7, "original mode silently corrupts the neighbour");
        let ce = c.unwrap_err();
        assert!(
            ce.is_check_failure(),
            "cured must catch the overflow, got {ce}"
        );
    }

    #[test]
    fn null_deref_caught() {
        let src = "int main(void) { int *p = 0; return *p; }";
        let (o, c) = run_both(src);
        assert_eq!(o.unwrap_err(), RtError::NullDeref);
        assert!(c.unwrap_err().is_check_failure());
    }

    #[test]
    fn seq_pointer_walk_in_bounds() {
        let src = "int main(void) {\n\
                     int a[8];\n\
                     for (int i = 0; i < 8; i++) a[i] = 1;\n\
                     int *p = a;\n\
                     int s = 0;\n\
                     while (p < a + 8) { s += *p; p++; }\n\
                     return s;\n\
                   }";
        assert_eq!(run_original(src).unwrap(), 8);
        assert_eq!(run_cured(src).unwrap(), 8);
    }

    #[test]
    fn seq_pointer_overrun_caught_by_cured() {
        let src = "int main(void) {\n\
                     int a[4];\n\
                     a[0] = 1; a[1] = 1; a[2] = 1; a[3] = 1;\n\
                     int *p = a;\n\
                     int s = 0;\n\
                     for (int i = 0; i < 6; i++) { s += *p; p++; }\n\
                     return s;\n\
                   }";
        let (o, c) = run_both(src);
        assert!(o.unwrap_err().is_memory_error());
        assert!(c.unwrap_err().is_check_failure());
    }

    #[test]
    fn downcast_good_and_bad() {
        let src = "struct Figure { int kind; } gf;\n\
                   struct Circle { int kind; int radius; } gc;\n\
                   int get_radius(struct Figure *f) {\n\
                     struct Circle *c;\n\
                     c = (struct Circle *)f;\n\
                     return c->radius;\n\
                   }\n\
                   int main(void) {\n\
                     struct Circle c;\n\
                     c.kind = 1; c.radius = 9;\n\
                     struct Figure *f = (struct Figure *)&c;\n\
                     return get_radius(f);\n\
                   }";
        assert_eq!(run_cured(src).unwrap(), 9, "legitimate downcast succeeds");

        let bad = "struct Figure { int kind; } gf;\n\
                   struct Circle { int kind; int radius; } gc;\n\
                   int get_radius(struct Figure *f) {\n\
                     struct Circle *c;\n\
                     c = (struct Circle *)f;\n\
                     return c->radius;\n\
                   }\n\
                   int main(void) {\n\
                     struct Figure g;\n\
                     g.kind = 0;\n\
                     return get_radius(&g);\n\
                   }";
        let c = run_cured(bad).unwrap_err();
        assert!(
            c.is_check_failure(),
            "bad downcast must fail the RTTI check, got {c}"
        );
    }

    #[test]
    fn cured_counts_checks() {
        let src = "int main(void) { int a[4]; int s = 0; for (int i = 0; i < 4; i++) { a[i] = i; s += a[i]; } return s; }";
        let cured = ccured::Curer::new().cure_source(src).expect("cure");
        let mut interp = Interp::new(&cured.program, ExecMode::cured(&cured));
        assert_eq!(interp.run().unwrap(), 6);
        assert!(interp.counters.checks[CheckKind::IndexBound] > 0);
        assert!(interp.counters.total_checks() > 0);
    }

    #[test]
    fn baselines_run_and_count() {
        let src = "int main(void) { int a[16]; int s = 0; for (int i = 0; i < 16; i++) { a[i] = i; s += a[i]; } return s; }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        for mode in [ExecMode::Purify, ExecMode::Valgrind, ExecMode::JonesKelly] {
            let mut i = Interp::new(&prog, mode);
            assert_eq!(i.run().unwrap(), 120);
            match mode {
                ExecMode::Purify => assert!(i.counters.shadow_ops > 0),
                ExecMode::Valgrind => {
                    assert!(i.counters.shadow_ops > 0);
                    assert!(i.counters.jit_instrs > 0);
                }
                ExecMode::JonesKelly => assert!(i.counters.registry_lookups > 0),
                _ => {}
            }
        }
    }

    #[test]
    fn stack_escape_rejected_in_cured() {
        let src = "int *g;\n\
                   void save(int *p) { g = p; }\n\
                   int main(void) { int x = 5; save(&x); return *g; }";
        let c = run_cured(src).unwrap_err();
        assert!(
            matches!(&c, RtError::CheckFailed { check, .. } if *check == "no_stack_escape"),
            "got {c}"
        );
    }

    #[test]
    fn fuel_guard_stops_infinite_loops() {
        let src = "int main(void) { while (1) { } return 0; }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut i = Interp::new(&prog, ExecMode::Original);
        i.set_limits(Limits {
            fuel: 10_000,
            ..Limits::default()
        });
        assert_eq!(i.run().unwrap_err(), RtError::OutOfFuel);
    }

    #[test]
    fn uninitialized_local_read_detected() {
        let src = "int main(void) { int x; return x; }";
        assert_eq!(run_original(src).unwrap_err(), RtError::UninitRead);
    }

    #[test]
    fn use_after_return_detected_in_original() {
        let src = "int *f(void) { int x = 3; return &x; }\n\
                   int main(void) { int *p = f(); return *p; }";
        let o = run_original(src).unwrap_err();
        assert_eq!(o, RtError::UseAfterReturn);
    }

    #[test]
    fn runaway_recursion_trips_stack_limit_not_host_stack() {
        // The regression the sandbox exists for: before Limits landed this
        // blew the *host* stack. It must now return a graceful error with
        // the stable name `stack_limit`, in both modes, under the DEFAULT
        // limits (i.e. inside an ordinary 2 MiB test thread).
        let src = "int f(void) { return f(); }\n\
                   int main(void) { return f(); }";
        let (o, c) = run_both(src);
        for r in [o, c] {
            let e = r.unwrap_err();
            assert!(
                matches!(&e, RtError::LimitExceeded { limit, .. } if *limit == "stack_limit"),
                "got {e}"
            );
            assert!(e.is_resource_limit());
        }
    }

    #[test]
    fn heap_cap_trips_gracefully() {
        let src = "extern void *malloc(unsigned long n);\n\
                   int main(void) {\n\
                     while (1) { char *p = (char *)malloc(4096); *p = 1; }\n\
                     return 0;\n\
                   }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut i = Interp::new(&prog, ExecMode::Original);
        i.set_limits(Limits {
            max_heap_bytes: 1 << 20,
            ..Limits::default()
        });
        let e = i.run().unwrap_err();
        assert!(
            matches!(&e, RtError::LimitExceeded { limit, .. } if *limit == "heap_limit"),
            "got {e}"
        );
        assert!(i.counters.peak_heap_bytes <= 1 << 20);
        assert!(i.counters.limit_checks > 0);
    }

    #[test]
    fn peak_counters_track_stack_and_heap() {
        let src = "extern void *malloc(unsigned long n);\n\
                   int down(int n) { if (n == 0) return 0; return down(n - 1); }\n\
                   int main(void) {\n\
                     char *p = (char *)malloc(1000);\n\
                     p[0] = 1;\n\
                     return down(20);\n\
                   }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut i = Interp::new(&prog, ExecMode::Original);
        assert_eq!(i.run().unwrap(), 0);
        assert!(i.counters.peak_stack_depth >= 21, "main + 21 nested calls");
        assert!(i.counters.peak_heap_bytes >= 1000);
    }

    #[test]
    fn dead_frames_release_their_buffers() {
        // 5,000 calls of a frame with a 64 KiB local: only one frame is
        // ever live, and a dead one must not keep its bytes or shadow.
        let src = "int f(int i) { char buf[65536]; buf[0] = (char)i; return buf[0]; }\n\
                   int main(void) {\n\
                     int i; int s; i = 0; s = 0;\n\
                     while (i < 5000) { s = s + f(i); i = i + 1; }\n\
                     return s & 127;\n\
                   }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let cured = ccured::Curer::new().cure_source(src).unwrap();
        for engine in [Engine::Tree, Engine::Vm] {
            for (prog, mode) in [
                (&prog, ExecMode::Original),
                (&cured.program, ExecMode::cured(&cured)),
                (&prog, ExecMode::Purify),
            ] {
                let mut i = Interp::new(prog, mode);
                i.set_engine(engine);
                let exit = i.run().unwrap();
                // The sum of the low bytes of 0..5000, as signed chars.
                let want: i64 = (0..5000i64).map(|i| i as u8 as i8 as i64).sum();
                assert_eq!(exit, want & 127);
                assert_eq!(i.counters.calls, 5001);
                assert!(
                    i.mem.buffer_bytes() < 65536,
                    "{engine:?}: dead frames hold {} buffer bytes",
                    i.mem.buffer_bytes()
                );
                assert!(i.shadow.is_empty(), "{engine:?}: dead baseline shadow kept");
            }
        }
    }

    #[test]
    fn failed_calls_kill_the_slots_they_allocated() {
        // A call that fails after allocating some of its memory locals (an
        // incomplete local, or the heap cap) leaves the caller's stack
        // allocations the tail of the stack index, so unwinding kills them.
        let incomplete = "struct S;\n\
                          int f(void) { int pad[4]; struct S s; pad[0] = 1; return pad[0]; }\n\
                          int main(void) { int m[2]; m[0] = f(); return m[0]; }";
        let capped = "int f(void) { char a[100]; char b[100]; a[0] = 1; b[0] = 2; return a[0]; }\n\
                      int main(void) { char m[100]; m[0] = f(); return m[0]; }";
        for (src, cap, want) in [
            (incomplete, u64::MAX, "stack local: "),
            (capped, 250, "heap_limit"),
        ] {
            let tu = ccured_ast::parse_translation_unit(src).unwrap();
            let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
            for engine in [Engine::Tree, Engine::Vm] {
                for mode in [ExecMode::Original, ExecMode::Purify] {
                    let mut i = Interp::new(&prog, mode);
                    i.set_engine(engine);
                    i.set_limits(Limits {
                        max_heap_bytes: cap,
                        ..Limits::default()
                    });
                    let e = i.run().unwrap_err();
                    assert!(e.to_string().contains(want), "{engine:?}: {e}");
                    assert_eq!(i.mem.buffer_bytes(), 0, "{engine:?}: slots left live");
                    assert!(i.shadow.is_empty(), "{engine:?}: baseline shadow left");
                }
            }
        }
    }

    #[test]
    fn zero_init_models_the_zeroing_allocator() {
        // A register local and a malloc'd cell, both read uninitialized:
        // ground truth flags them; the zeroing allocator reads zero.
        let src = "extern void *malloc(unsigned long n);\n\
                   int main(void) {\n\
                     int x;\n\
                     int *p = (int *)malloc(sizeof(int));\n\
                     return x + *p;\n\
                   }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut plain = Interp::new(&prog, ExecMode::Original);
        assert_eq!(plain.run().unwrap_err(), RtError::UninitRead);
        let mut zeroed = Interp::new(&prog, ExecMode::Original);
        zeroed.set_zero_init(true);
        assert_eq!(zeroed.run().unwrap(), 0);
    }

    #[test]
    fn deadline_expires_on_infinite_loop() {
        let src = "int main(void) { while (1) { } return 0; }";
        let tu = ccured_ast::parse_translation_unit(src).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let mut i = Interp::new(&prog, ExecMode::Original);
        i.set_limits(Limits {
            deadline: Some(std::time::Duration::from_millis(20)),
            ..Limits::default()
        });
        let e = i.run().unwrap_err();
        assert!(
            matches!(&e, RtError::LimitExceeded { limit, .. } if *limit == "deadline"),
            "got {e}"
        );
    }

    #[test]
    fn trunc_int_behaviour() {
        let m = ccured_cil::types::Machine::default();
        assert_eq!(trunc_int(300, IntKind::Char, &m), 44);
        assert_eq!(trunc_int(-1, IntKind::UChar, &m), 255);
        assert_eq!(trunc_int(0x1_0000_0001, IntKind::Int, &m), 1);
        assert_eq!(trunc_int(-5, IntKind::Long, &m), -5);
    }
}
