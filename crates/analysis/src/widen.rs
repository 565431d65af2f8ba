//! SEQ bounds-check widening for monotone strided loops.
//!
//! For the counted-loop shapes the frontend lowers `for`/`while` loops
//! into, the per-iteration SEQ bounds check `CHECK_SEQ(b + i)` is replaced
//! by a [`Check::Probe`] that runs exactly twice' worth of checks on the
//! first iteration — the original check (at the entry index) plus a check
//! of the *extreme* index the guard can ever admit — and latches a guard
//! that skips the per-iteration residual for the rest of the trip.
//!
//! The pass is direction- and stride-agnostic: the guard and the step are
//! canonicalized into an induction form `(direction, stride, extreme)`
//! first, and the same two-endpoint probe argument applies to every form.
//!
//! # The matched shapes
//!
//! ```text
//! loop {
//!   if (i REL bound) {} else { break; }  // spine[0]: the guard
//!   ... straight-line instrs, no writes to i ...
//!   CHECK_SEQ(base + i, size)            // the widened check
//!   ...
//!   i = i ± c                            // the only write to i anywhere
//! }
//! ```
//!
//! * `REL` is `<` or `<=` (an up-counting loop) or `>` or `>=` (a
//!   down-counting loop); the index may sit on either side (`i < n` and
//!   `n > i` canonicalize identically).
//! * the step is a single constant stride `c >= 1` whose direction agrees
//!   with the guard (`+c` under `<`/`<=`, `-c` under `>`/`>=`); steps
//!   written as `i = i + (-c)` or `i = c + i` canonicalize too.
//! * `i` is an unaliased local, `base` is loop-invariant, and `bound` is
//!   either an integer constant or a direct load of an unaliased local the
//!   subtree never assigns. Casts are looked through only when
//!   value-preserving (see `loops::strip_preserving_casts`).
//!
//! # Soundness
//!
//! Let `i₀` be `i`'s value when the probe runs (the first iteration that
//! reaches the check), and let `E` be the extreme index the guard can
//! admit: `bound − 1` under `<`, `bound` under `<=` or `>=`, `bound + 1`
//! under `>`. The probe verifies `base + i₀` (the original check, so the
//! entry offset is in bounds) and `base + E`. Because the subtree's only
//! write to `i` is the single monotone step and every path to the access
//! re-passes the guard, every later access index lies between `i₀` and
//! `E` — for any stride: a stride-`c` orbit visits a subset of the indices
//! the stride-1 orbit would, never more. A SEQ region is one contiguous
//! `[b, e)` interval and the offset is monotone in the index, so both
//! endpoints in bounds implies every intermediate index is in bounds. If
//! either endpoint check fails the guard latches "fail" and the residual
//! runs per-iteration, aborting at the first actually-out-of-bounds index
//! with the original site blame — a conservatively-widened probe can never
//! abort a program the unoptimized one would not.
//!
//! # Wrap analysis
//!
//! Two distinct wraps are reasoned about:
//!
//! * **The endpoint expression.** `bound − 1` underflows only when `bound`
//!   is its type's minimum and `bound + 1` overflows only at the maximum —
//!   but then the guard (`i < min` resp. `i > max`) is unsatisfiable, the
//!   body never runs, and the probe (which sits *inside* the loop) never
//!   executes. The `<=`/`>=` endpoints involve no arithmetic at all. When
//!   a *variable* bound takes the extreme value at run time, the wrapped
//!   endpoint at worst makes the probe fail, which only disables the
//!   optimization.
//! * **The induction variable.** If `i ± c` can wrap past its type's
//!   range, a guard-passing value could jump to the far end of the index
//!   space and reach offsets the two endpoints never covered. The pass
//!   therefore requires a no-wrap proof:
//!   - a **signed** step type carries the standard C license: signed
//!     overflow of the induction step is undefined behavior, so the pass
//!     assumes it does not occur (the assumption every optimizing C
//!     compiler makes). A guest program that *does* overflow a signed
//!     index inside a widened loop executes under UB and may see the
//!     probe pass where the per-iteration check would have aborted.
//!   - an **unsigned** step type has defined wraparound, so the proof must
//!     be static: with `B` the bound's maximal (up) or minimal (down)
//!     possible value — its constant value, or its own type's range when
//!     variable — the pass demands `E(B) + c <= max(step type)` going up
//!     and `E(B) − c >= 0` going down. This admits the common
//!     `while (i > 0) i--` and every constant-bound loop, and rejects
//!     forms like `for (unsigned char i = 0; i <= 255; i++)` whose guard
//!     can never exit.
//!
//!   In both cases the step's result type must span exactly the index
//!   local's declared range, so the store-back normalization cannot
//!   introduce a second, unanalyzed wrap point.
//!
//! The prefix between the guard and the check must be straight-line
//! instructions: a label there could let an in-loop goto re-enter between
//! guard and access without re-checking the guard.

use crate::loops::{
    direct_local_load, exp_invariant, guard_check_at, int_bounds, strip_preserving_casts, FnCx,
    OptAction, SubtreeInfo,
};
use ccured_cil::ir::{BinOp, Check, Const, Exp, Instr, LvBase, Lval, Stmt};
use ccured_cil::types::{Type, TypeTable};
use ccured_cil::visit;

/// The integer value of `e` when it is a compile-time constant, looking
/// through casts that preserve this *specific* value: the frontend lowers
/// `unsigned i = 0; i > 0` with the literal as `(uint)(0)`, and while
/// int→uint is not value-preserving in general, it is for `0`. Each cast
/// along the chain must keep the value representable — a truncating
/// constant cast (`(unsigned char)(300)`) conservatively refuses.
fn const_int_value(types: &TypeTable, e: &Exp) -> Option<i128> {
    match e {
        Exp::Const(Const::Int(v, _), _) => Some(*v),
        Exp::Cast(_, inner, t) => {
            let v = const_int_value(types, inner)?;
            let (lo, hi) = int_bounds(types, *t)?;
            (lo <= v && v <= hi).then_some(v)
        }
        _ => None,
    }
}

/// Which way the induction variable moves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dir {
    Up,
    Down,
}

/// The canonicalized guard: index local, direction, and the offset from
/// `bound` to the extreme admissible index (`-1`, `0`, or `+1`).
struct Guard<'e> {
    idx_local: u32,
    /// The index local's declared integer range (from the guard's load).
    idx_range: (i128, i128),
    dir: Dir,
    bound: &'e Exp,
    /// `E = bound + adj`: the extreme index the guard can admit.
    adj: i128,
}

/// Tries to widen the first matching per-iteration SEQ bounds check of
/// this loop. Returns the allocated guard slot on success.
pub(crate) fn try_widen(cx: &mut FnCx, body: &mut [Stmt], info: &SubtreeInfo) -> Option<u32> {
    // spine[0]: `if (i REL bound) {} else { break; }`.
    let Some(Stmt::If(cond, then_b, else_b)) = body.first() else {
        return None;
    };
    if !then_b.is_empty() || !matches!(else_b.as_slice(), [Stmt::Break]) {
        return None;
    }
    let guard = canonical_guard(cx, cond)?;
    if cx.aliased.contains(&guard.idx_local) {
        return None;
    }
    let bound = strip_preserving_casts(cx.types, guard.bound);
    let bound_const = const_int_value(cx.types, bound);
    let bound_ok = bound_const.is_some()
        || matches!(direct_local_load(cx.types, bound),
            Some((l, _)) if !info.assigned.contains(&l) && !cx.aliased.contains(&l));
    if !bound_ok {
        return None;
    }
    let Type::Int(bound_kind) = cx.types.get(bound.ty()) else {
        return None;
    };
    let bound_kind = *bound_kind;

    // The single-step rule: exactly one write to i in the whole subtree,
    // a constant stride in the guard's direction.
    let (stride, step_signed, step_range) = induction_step(cx, body, &guard)?;

    // No-wrap proof for the induction variable (see the module docs).
    if !step_signed {
        let (bound_lo, bound_hi) = match bound_const {
            Some(v) => (v, v),
            None => int_bounds(cx.types, bound.ty())?,
        };
        // Saturating arithmetic: saturation only makes the comparison
        // fail, i.e. conservatively refuses the widening.
        let ok = match guard.dir {
            Dir::Up => bound_hi.saturating_add(guard.adj).saturating_add(stride) <= step_range.1,
            Dir::Down => bound_lo.saturating_add(guard.adj).saturating_sub(stride) >= step_range.0,
        };
        if !ok {
            return None;
        }
    }

    // Find the check along the straight-line prefix after the guard.
    let (pos, at, base, ptr_ty, access_size) = find_check(cx, body, info, guard.idx_local)?;

    // Build the endpoint check: `base + E` at the original access size,
    // with `E` the extreme admissible index. The `±1` adjustment happens
    // at `bound`'s own type (wrap analyzed in the module docs).
    let endpoint_idx = match guard.adj {
        0 => bound.clone(),
        adj => Exp::Binop(
            if adj < 0 { BinOp::Sub } else { BinOp::Add },
            Box::new(bound.clone()),
            Box::new(Exp::int(1, bound_kind, bound.ty())),
            bound.ty(),
        ),
    };
    let endpoint = Check::SeqBounds {
        ptr: Exp::Binop(
            BinOp::PlusPI,
            Box::new(base),
            Box::new(endpoint_idx),
            ptr_ty,
        ),
        access_size,
    };

    let Stmt::Instr(instrs) = &mut body[pos] else {
        unreachable!("find_check only returns Instr positions");
    };
    let Instr::Check(original, _, site) = &instrs[at] else {
        unreachable!("find_check only returns check instructions");
    };
    let (site, original) = (*site, original.clone());
    let slot = cx.alloc_slot();
    guard_check_at(instrs, at, slot, vec![original, endpoint]);
    cx.record(site, OptAction::Widened);
    Some(slot)
}

/// Canonicalizes the guard condition into index-on-the-left form, trying
/// both operand orders (`i < n` and `n > i` describe the same loop).
fn canonical_guard<'e>(cx: &FnCx, cond: &'e Exp) -> Option<Guard<'e>> {
    let Exp::Binop(op, lhs, rhs, _) = cond else {
        return None;
    };
    let forms = [(lhs, *op, rhs), (rhs, flip(*op)?, lhs)];
    for (idx_e, op, bound) in forms {
        let Some((idx_local, load)) = direct_local_load(cx.types, idx_e) else {
            continue;
        };
        let Some(idx_range) = int_bounds(cx.types, load.ty()) else {
            continue;
        };
        let (dir, adj) = match op {
            BinOp::Lt => (Dir::Up, -1),
            BinOp::Le => (Dir::Up, 0),
            BinOp::Ge => (Dir::Down, 0),
            BinOp::Gt => (Dir::Down, 1),
            _ => return None,
        };
        return Some(Guard {
            idx_local,
            idx_range,
            dir,
            bound,
            adj,
        });
    }
    None
}

/// The comparison with its operands swapped (`a REL b` == `b REL' a`).
fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        _ => return None,
    })
}

/// Locates the first `CHECK_SEQ(base + i)` reachable from the guard
/// through straight-line instructions with no intervening write to `i`.
/// Returns `(spine position, instr index, base clone, ptr type, size)`.
fn find_check(
    cx: &FnCx,
    body: &[Stmt],
    info: &SubtreeInfo,
    idx_local: u32,
) -> Option<(usize, usize, Exp, ccured_cil::types::TypeId, u64)> {
    for (pos, s) in body.iter().enumerate().skip(1) {
        let Stmt::Instr(instrs) = s else {
            // Anything else (a label, a branch) ends the provably
            // straight-line prefix.
            return None;
        };
        for (at, instr) in instrs.iter().enumerate() {
            match instr {
                Instr::Set(lv, _, _) | Instr::Call(Some(lv), _, _, _) if matches!(&lv.base, LvBase::Local(l) if l.0 == idx_local) =>
                {
                    // The increment (or another write) precedes any
                    // matchable check on this path.
                    return None;
                }
                Instr::Check(Check::SeqBounds { ptr, access_size }, _, _) => {
                    let Exp::Binop(BinOp::PlusPI, base, idx, ptr_ty) =
                        strip_preserving_casts(cx.types, ptr)
                    else {
                        continue;
                    };
                    let matches_idx =
                        matches!(direct_local_load(cx.types, idx), Some((l, _)) if l == idx_local);
                    if matches_idx && exp_invariant(cx, info, base) {
                        return Some((pos, at, (**base).clone(), *ptr_ty, *access_size));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Does the subtree write `i` exactly once, via a constant stride in the
/// guard's direction? Returns `(stride, step type is signed, step type
/// range)` with `stride >= 1`.
fn induction_step(cx: &FnCx, body: &[Stmt], guard: &Guard) -> Option<(i128, bool, (i128, i128))> {
    let mut writes = Vec::new();
    collect_writes(body, guard.idx_local, &mut writes);
    let [Some(e)] = writes.as_slice() else {
        return None;
    };
    let Exp::Binop(op, a, b, step_ty) = strip_preserving_casts(cx.types, e) else {
        return None;
    };
    // `i = i ± c` or `i = c + i`.
    let is_idx =
        |e: &Exp| matches!(direct_local_load(cx.types, e), Some((l, _)) if l == guard.idx_local);
    let c = match (op, is_idx(a), is_idx(b)) {
        (BinOp::Add | BinOp::Sub, true, _) => {
            let v = const_int_value(cx.types, b)?;
            if *op == BinOp::Sub {
                v.checked_neg()?
            } else {
                v
            }
        }
        (BinOp::Add, _, true) => const_int_value(cx.types, a)?,
        _ => return None,
    };
    let (dir, stride) = match c {
        0 => return None,
        c if c > 0 => (Dir::Up, c),
        c => (Dir::Down, c.checked_neg()?),
    };
    if dir != guard.dir {
        return None;
    }
    // The step's result type must span exactly the index local's declared
    // range: the store-back to `i` normalizes to `i`'s type, and a
    // mismatch would add a wrap point the proof above never examined.
    let step_range = int_bounds(cx.types, *step_ty)?;
    if step_range != guard.idx_range {
        return None;
    }
    let signed = match cx.types.get(*step_ty) {
        Type::Int(k) => k.is_signed(),
        _ => return None,
    };
    Some((stride, signed, step_range))
}

/// Collects the RHS of every write to `idx_local` in the subtree
/// (`None` for call results, which are never the canonical step).
fn collect_writes<'a>(body: &'a [Stmt], idx_local: u32, out: &mut Vec<Option<&'a Exp>>) {
    let writes_idx = |lv: &Lval| matches!(&lv.base, LvBase::Local(l) if l.0 == idx_local);
    visit::for_each_instr(body, &mut |i| match i {
        Instr::Set(lv, e, _) if writes_idx(lv) => out.push(Some(e)),
        Instr::Call(Some(lv), _, _, _) if writes_idx(lv) => out.push(None),
        _ => {}
    });
}
