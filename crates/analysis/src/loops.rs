//! The second-generation loop optimizer: orchestrates loop-invariant check
//! hoisting ([`crate::hoist`]) and SEQ bounds-check widening
//! ([`crate::widen`]) on top of the flow-sensitive eliminator
//! ([`crate::elim`]).
//!
//! Neither pass *moves* a check out of its loop. Instead every optimized
//! check is rewritten in place into a [`Check::Probe`] /
//! [`Check::Guarded`] pair sharing a frame-local guard slot, with a
//! [`Check::GuardReset`] planted immediately before the enclosing loop:
//!
//! * the reset unlatches the slot each time control re-reaches the loop,
//! * the probe runs the summarized checks once, on the first iteration that
//!   actually reaches the site (so a never-entered loop costs nothing and
//!   the probed operands are evaluated exactly where the original check
//!   evaluated them),
//! * the guarded residual is skipped while the slot is latched "pass" and
//!   behaves exactly like the original check otherwise — including when the
//!   probe *failed*, so a failing widened range re-runs the per-iteration
//!   check and blames the precise index at the precise site.
//!
//! This keeps both engines' observable behaviour (output, verdicts, failure
//! attribution) identical to the unoptimized program while executing at
//! most as many check events, and strictly fewer on loops the passes fire
//! on.

use crate::elim::{self, ElisionResult};
use crate::keep::KeepReason;
use ccured_cil::ir::{Check, Exp, Instr, LvBase, Lval, Offset, Program, SiteId, Stmt};
use ccured_cil::types::{Type, TypeId, TypeTable};
use ccured_cil::visit;
use std::collections::{HashMap, HashSet};

/// What the loop optimizer did to a check site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptAction {
    /// A loop-invariant null/RTTI check now runs once per loop entry.
    Hoisted,
    /// A per-iteration SEQ bounds check was folded into one whole-trip
    /// range probe.
    Widened,
}

impl OptAction {
    /// Stable name for reports and profiles.
    pub fn name(self) -> &'static str {
        match self {
            OptAction::Hoisted => "hoisted",
            OptAction::Widened => "widened",
        }
    }
}

/// The combined result of the eliminator and the loop passes.
#[derive(Debug, Clone, Default)]
pub struct OptResult {
    /// The flow-sensitive eliminator's result (always runs first).
    pub elision: ElisionResult,
    /// Check instructions rewritten by the hoisting pass.
    pub hoisted: u64,
    /// Check instructions rewritten by the widening pass.
    pub widened: u64,
}

/// Runs the full static optimization pipeline over `prog` in place:
/// check elimination, then (when `loop_opt`) loop-invariant hoisting and
/// SEQ bounds widening over every loop. Both passes are intraprocedural;
/// the set of tracked globals is computed once for the whole program.
pub fn optimize_program(prog: &mut Program, loop_opt: bool) -> OptResult {
    let tracked = elim::tracked_globals(prog);
    let mut result = OptResult::default();
    for fi in 0..prog.functions.len() {
        elim::eliminate_checks_in_function(prog, fi, &tracked, &mut result.elision);
        if loop_opt {
            optimize_loops(prog, fi, &mut result);
        }
    }
    result
}

/// Runs the loop passes over one function body, after the eliminator.
fn optimize_loops(prog: &mut Program, fi: usize, result: &mut OptResult) {
    let Program {
        ref types,
        ref mut functions,
        ..
    } = *prog;
    let func = &mut functions[fi];
    let mut cx = FnCx {
        types,
        aliased: elim::aliased_locals(func),
        label_gotos: HashMap::new(),
        next_slot: 0,
        result,
    };
    visit::for_each_stmt(&func.body, &mut |s| {
        if let Stmt::Goto(l) = s {
            *cx.label_gotos.entry(l.clone()).or_insert(0) += 1;
        }
    });
    walk_stmts(&mut cx, &mut func.body);
}

/// Per-function rewriting state shared by the hoisting and widening passes.
pub(crate) struct FnCx<'p> {
    /// The program's type table (for integer-cast reasoning).
    pub types: &'p TypeTable,
    /// Address-taken locals (from the eliminator's escape pre-pass): their
    /// values can change through memory, so they are never loop-invariant.
    pub aliased: HashSet<u32>,
    /// Function-wide goto counts per label, to detect entries into a loop
    /// subtree from outside it.
    label_gotos: HashMap<String, usize>,
    next_slot: u32,
    /// The program's result so far; a rewrite supersedes the reason the
    /// eliminator recorded for its site.
    result: &'p mut OptResult,
}

impl FnCx<'_> {
    /// Rewrites `instrs[at]` (a plain check) into its guarded residual and
    /// plants the probe immediately before it, so the probe evaluates the
    /// summarized checks (the original, then a widening's `endpoint`) at
    /// exactly the point the original check ran. Counts the rewrite and
    /// records `action` as the site's reason; returns the fresh guard slot.
    pub(crate) fn rewrite(
        &mut self,
        instrs: &mut Vec<Instr>,
        at: usize,
        action: OptAction,
        endpoint: Option<Check>,
    ) -> u32 {
        let Instr::Check(original, span, site) = instrs[at].clone() else {
            unreachable!("the loop passes only rewrite check instructions");
        };
        let slot = self.next_slot;
        self.next_slot += 1;
        let probe = std::iter::once(original.clone()).chain(endpoint).collect();
        instrs[at] = Instr::Check(
            Check::Guarded {
                slot,
                inner: Box::new(original),
            },
            span,
            site,
        );
        instrs.insert(
            at,
            Instr::Check(Check::Probe { slot, inner: probe }, span, site),
        );
        match action {
            OptAction::Hoisted => self.result.hoisted += 1,
            OptAction::Widened => self.result.widened += 1,
        }
        if let Some(i) = site.index() {
            let keeps = &mut self.result.elision.site_keeps;
            keeps.insert(i as u32, KeepReason::Rewritten(action));
        }
        slot
    }
}

/// Everything the passes need to know about a loop subtree at a glance.
pub(crate) struct SubtreeInfo {
    /// Locals assigned anywhere in the subtree (directly, including through
    /// offsets, or as a call result).
    pub assigned: HashSet<u32>,
    /// Labels defined in the subtree.
    pub labels: HashSet<String>,
    /// Goto counts per label, from gotos inside the subtree.
    pub gotos: HashMap<String, usize>,
    /// Calls (defined or external) anywhere in the subtree. Temporal checks
    /// are only hoistable out of call-free loops: any callee may `free` and
    /// flip the verdict between iterations.
    pub calls: usize,
}

fn walk_stmts(cx: &mut FnCx, stmts: &mut Vec<Stmt>) {
    let mut i = 0;
    while i < stmts.len() {
        match &mut stmts[i] {
            Stmt::Loop(_) => {
                let slots = process_loop(cx, &mut stmts[i]);
                if !slots.is_empty() {
                    // Unlatch every slot right before the loop: re-entering
                    // re-establishes the guards (operands may have changed).
                    let resets = slots
                        .into_iter()
                        .map(|slot| {
                            Instr::Check(
                                Check::GuardReset { slot },
                                ccured_ast::Span::DUMMY,
                                SiteId::NONE,
                            )
                        })
                        .collect();
                    stmts.insert(i, Stmt::Instr(resets));
                    i += 1;
                }
            }
            Stmt::If(_, t, e) => {
                walk_stmts(cx, t);
                walk_stmts(cx, e);
            }
            Stmt::Block(b) => walk_stmts(cx, b),
            Stmt::Switch(_, arms) => {
                for arm in arms {
                    walk_stmts(cx, &mut arm.body);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Optimizes one loop (widening first, then hoisting over the remaining
/// checks), then recurses into nested loops. Returns the guard slots whose
/// resets belong directly before this loop.
fn process_loop(cx: &mut FnCx, stmt: &mut Stmt) -> Vec<u32> {
    let Stmt::Loop(body) = stmt else {
        unreachable!("process_loop is only called on Stmt::Loop");
    };
    let info = subtree_info(body);
    let mut slots = Vec::new();
    // A goto from outside the subtree to a label inside it would enter the
    // loop without passing the guard reset or the probe's first-iteration
    // evaluation point; skip such loops entirely (nested ones may still be
    // well-formed).
    let externally_entered = info.labels.iter().any(|l| {
        cx.label_gotos.get(l).copied().unwrap_or(0) != info.gotos.get(l).copied().unwrap_or(0)
    });
    if !externally_entered {
        if let Some(slot) = crate::widen::try_widen(cx, body, &info) {
            slots.push(slot);
        }
        crate::hoist::hoist_invariant_checks(cx, body, &info, &mut slots);
    }
    walk_stmts(cx, body);
    slots
}

/// Collects assigned locals, labels, and goto counts for a subtree.
pub(crate) fn subtree_info(stmts: &[Stmt]) -> SubtreeInfo {
    let mut info = SubtreeInfo {
        assigned: HashSet::new(),
        labels: HashSet::new(),
        gotos: HashMap::new(),
        calls: 0,
    };
    visit::for_each_stmt(stmts, &mut |s| match s {
        Stmt::Instr(instrs) => {
            for i in instrs {
                match i {
                    Instr::Set(lv, _, _) => note_assign(lv, &mut info),
                    Instr::Call(ret, _, _, _) => {
                        info.calls += 1;
                        if let Some(lv) = ret {
                            note_assign(lv, &mut info);
                        }
                    }
                    Instr::Check(..) => {}
                }
            }
        }
        Stmt::Label(l) => {
            info.labels.insert(l.clone());
        }
        Stmt::Goto(l) => {
            *info.gotos.entry(l.clone()).or_insert(0) += 1;
        }
        _ => {}
    });
    info
}

fn note_assign(lv: &Lval, info: &mut SubtreeInfo) {
    if let LvBase::Local(l) = &lv.base {
        info.assigned.insert(l.0);
    }
}

/// The inclusive value range of integer type `t`, or `None` for
/// non-integer types.
pub(crate) fn int_bounds(types: &TypeTable, t: TypeId) -> Option<(i128, i128)> {
    match types.get(t) {
        Type::Int(k) => {
            let bits = types.machine.int_size(*k) * 8;
            Some(if k.is_signed() {
                (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1)
            } else {
                (0, (1i128 << bits) - 1)
            })
        }
        _ => None,
    }
}

/// Strips casts that provably preserve the integer value: every value of
/// the source type is representable in the target type, so the cast is the
/// identity on the run-time value. Anything else (narrowing, or
/// signedness flips that can reinterpret negatives) stays — a wrapped index
/// must not be reasoned about as its pre-cast value.
pub(crate) fn strip_preserving_casts<'a>(types: &TypeTable, mut e: &'a Exp) -> &'a Exp {
    while let Exp::Cast(_, inner, t) = e {
        let (Some((flo, fhi)), Some((tlo, thi))) =
            (int_bounds(types, inner.ty()), int_bounds(types, *t))
        else {
            break;
        };
        if tlo <= flo && fhi <= thi {
            e = inner;
        } else {
            break;
        }
    }
    e
}

/// The local a direct (offset-free) load reads, after stripping
/// value-preserving casts.
pub(crate) fn direct_local_load<'a>(types: &TypeTable, e: &'a Exp) -> Option<(u32, &'a Exp)> {
    let e = strip_preserving_casts(types, e);
    match e {
        Exp::Load(lv, _) if lv.offsets.is_empty() => match &lv.base {
            LvBase::Local(l) => Some((l.0, e)),
            _ => None,
        },
        _ => None,
    }
}

/// Is `e` loop-invariant with respect to the subtree summarized by `info`?
///
/// * constants, `sizeof`, and function addresses always are;
/// * a direct load of an unaliased local the subtree never assigns is (no
///   store or call can change it);
/// * taking an address is invariant when the base address and every index
///   expression are (the *address* is what matters, not the pointee);
/// * operators are invariant when their operands are.
///
/// Loads through memory (derefs, fields, globals) are never invariant: any
/// store or call in the loop could change them.
pub(crate) fn exp_invariant(cx: &FnCx, info: &SubtreeInfo, e: &Exp) -> bool {
    match e {
        Exp::Const(..) | Exp::SizeOf(..) | Exp::FnAddr(..) => true,
        Exp::Load(lv, _) => {
            lv.offsets.is_empty()
                && matches!(&lv.base, LvBase::Local(l)
                    if !info.assigned.contains(&l.0) && !cx.aliased.contains(&l.0))
        }
        Exp::AddrOf(lv, _) | Exp::StartOf(lv, _) => lval_addr_invariant(cx, info, lv),
        Exp::Unop(_, x, _) | Exp::Cast(_, x, _) => exp_invariant(cx, info, x),
        Exp::Binop(_, a, b, _) => exp_invariant(cx, info, a) && exp_invariant(cx, info, b),
    }
}

fn lval_addr_invariant(cx: &FnCx, info: &SubtreeInfo, lv: &Lval) -> bool {
    let base_ok = match &lv.base {
        // Locals and globals live at fixed addresses for the whole call.
        LvBase::Local(_) | LvBase::Global(_) => true,
        LvBase::Deref(p) => exp_invariant(cx, info, p),
    };
    base_ok
        && lv.offsets.iter().all(|o| match o {
            Offset::Field(..) => true,
            Offset::Index(e) => exp_invariant(cx, info, e),
        })
}
