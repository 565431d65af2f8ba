//! Loop-invariant check hoisting.
//!
//! A null or RTTI check whose operand is loop-invariant gives the same
//! verdict on every iteration: its verdict is a function of the operand
//! *value* alone (null compares the pointer word against zero; the RTTI
//! check walks the hierarchy from the node carried *inside* the fat
//! value), and an invariant operand evaluates to the same value on every
//! iteration of the subtree. So the check needs to actually run only once
//! per loop entry.
//!
//! The pass rewrites each such check into a [`Check::Probe`] /
//! [`Check::Guarded`] pair in place (see [`crate::loops`]): the probe runs
//! the original check on the first iteration that reaches the site, and
//! the residual is skipped while the guard holds. Soundness is immediate —
//! the one probed evaluation *is* the first per-iteration check, and
//! invariance makes every later evaluation equal to it. If the probe fails
//! the guard latches "fail" and the residual runs every iteration exactly
//! like the unoptimized program, aborting at the original site with the
//! original blame.
//!
//! WILD checks are never hoisted: their verdicts depend on the area's tag
//! bits, which stores in the loop can change.

use crate::loops::{exp_invariant, FnCx, OptAction, SubtreeInfo};
use ccured_cil::ir::{Check, Instr, Stmt};
use ccured_cil::visit;

/// Hoists every loop-invariant null/RTTI check in the subtree, appending
/// the allocated guard slots to `slots` (their resets are planted before
/// the loop by the caller).
pub(crate) fn hoist_invariant_checks(
    cx: &mut FnCx,
    body: &mut [Stmt],
    info: &SubtreeInfo,
    slots: &mut Vec<u32>,
) {
    visit::for_each_instr_run_mut(body, &mut |instrs| hoist_in_instrs(cx, instrs, info, slots));
}

fn hoist_in_instrs(
    cx: &mut FnCx,
    instrs: &mut Vec<Instr>,
    info: &SubtreeInfo,
    slots: &mut Vec<u32>,
) {
    let mut j = 0;
    while j < instrs.len() {
        let hoistable = match &instrs[j] {
            Instr::Check(Check::Null { ptr } | Check::Rtti { ptr, .. }, _, _) => {
                exp_invariant(cx, info, ptr)
            }
            // A temporal verdict is a function of the operand value *and*
            // the key table, which only a call can change (`free` is an
            // external call) — never hoist across a loop that calls.
            Instr::Check(Check::Temporal { ptr }, _, _) => {
                info.calls == 0 && exp_invariant(cx, info, ptr)
            }
            _ => false,
        };
        if hoistable {
            slots.push(cx.rewrite(instrs, j, OptAction::Hoisted, None));
            j += 1; // step over the planted probe and its residual
        }
        j += 1;
    }
}
