//! Why a check survived the optimizer: one typed reason per kept check
//! site. The eliminator's decision returns it, the loop passes record
//! [`KeepReason::Rewritten`], and every report prints the one
//! [`Display`](fmt::Display) below.

use crate::loops::OptAction;
use ccured_cil::ir::CheckKind;
use std::fmt;

/// Why the optimizer kept a check site: the eliminator's verdict on the
/// site's first kept check in block order, unless the loop passes
/// rewrote the site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeepReason {
    /// The operand is no place the eliminator keeps facts for (a whole
    /// local, or a global whose address is never taken).
    Untracked(OperandShape),
    /// The operand is a tracked place, but the fact this kind of check
    /// needs does not hold on every incoming path. A stack-escape check is
    /// always kept this way: its verdict depends on the value stored.
    Unproven(CheckKind),
    /// An earlier SEQ or WILD (`kind`) bounds check on the same unmoved
    /// pointer verified a `verified`-byte access; this one needs `needed`.
    #[allow(missing_docs)]
    ShortAccess {
        kind: CheckKind,
        verified: u64,
        needed: u64,
    },
    /// An array index that is neither a constant nor a tracked place.
    VariableIndex,
    /// A tracked array index whose value interval `[lo, hi]` is known but
    /// not contained in `[0, len)`.
    #[allow(missing_docs)]
    IndexRange { lo: i128, hi: i128, len: u64 },
    /// The check lies in code no path from the function's entry reaches.
    Unreachable,
    /// The check fails whenever it runs (also reported as a
    /// [`StaticFailure`](crate::StaticFailure)); the message says why.
    AlwaysFails(String),
    /// The loop optimizer rewrote the site into a probe and a residual.
    Rewritten(OptAction),
}

/// What an untracked check operand is, after the casts its check kind
/// looks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandShape {
    /// Pointer arithmetic (`a +p i`), not a whole variable.
    PtrArith,
    /// A field or element of an aggregate (`s.f`, `a[i]`).
    AggregatePart,
    /// A value loaded through a pointer (`*pp`, `p->f`).
    ThroughMemory,
    /// A global whose address is taken somewhere in the program.
    AddrTakenGlobal,
    /// A cast, which bounds and tag checks do not look through.
    Cast,
    /// Any other expression: a constant or an address.
    Other,
}

/// The reason's text. The alternate form (`{:#}`) of a
/// [`KeepReason::Rewritten`] omits the action's name, for a reader that
/// prints the action beside it.
impl fmt::Display for KeepReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use {CheckKind as K, OperandShape as S};
        match self {
            KeepReason::Untracked(shape) => {
                let what = match shape {
                    S::PtrArith => "computed by pointer arithmetic",
                    S::AggregatePart => "a field or element of an aggregate",
                    S::ThroughMemory => "loaded through memory",
                    S::AddrTakenGlobal => "a global whose address is taken",
                    S::Cast => "a cast, which bounds and tag checks do not look through",
                    S::Other => "a constant or an address",
                };
                write!(f, "pointer is not a trackable scalar: it is {what}")
            }
            KeepReason::Unproven(kind) => f.write_str(match kind {
                K::Null => "pointer not proven non-null on every incoming path",
                K::SeqBounds | K::SeqToSafe => "no dominating bounds check on every incoming path",
                K::WildBounds => "no dominating wild-bounds check on every incoming path",
                K::WildTag => {
                    "no dominating tag check on every incoming path (memory writes invalidate tag facts)"
                }
                K::Rtti => "no dominating downcast to the same target on every incoming path",
                K::NoStackEscape => {
                    "stack-escape checks depend on the run-time value stored and are never elided"
                }
                K::IndexBound => {
                    "index is not a compile-time constant and its value range is unknown"
                }
                K::Temporal => {
                    "no dominating temporal check on every incoming path (an intervening call may free the allocation)"
                }
            }),
            KeepReason::ShortAccess {
                kind,
                verified,
                needed,
            } => {
                let check = if *kind == K::WildBounds { "wild-bounds" } else { "bounds" };
                write!(
                    f,
                    "an earlier {check} check only verified a {verified}-byte access; this one needs {needed} bytes"
                )
            }
            KeepReason::VariableIndex => f.write_str("index is not a compile-time constant"),
            KeepReason::IndexRange { lo, hi, len } => write!(
                f,
                "index is not a compile-time constant and its value range [{lo}, {hi}] is not contained in [0, {}]",
                *len as i128 - 1
            ),
            KeepReason::Unreachable => {
                f.write_str("no path from the function's entry reaches this check")
            }
            KeepReason::AlwaysFails(message) => write!(f, "provably always fails: {message}"),
            KeepReason::Rewritten(action) => {
                if !f.alternate() {
                    write!(f, "{}: ", action.name())?;
                }
                f.write_str(match action {
                    OptAction::Hoisted => "loop-invariant operand, evaluated once per loop entry",
                    OptAction::Widened => {
                        "per-iteration bounds folded into one whole-trip range probe"
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every reason's text, pinned: `explain`, `profile` and their JSON
    /// print these, and readers of those outputs match on them.
    #[test]
    fn every_keep_reason_is_named_once() {
        let shapes = [
            (OperandShape::PtrArith, "computed by pointer arithmetic"),
            (
                OperandShape::AggregatePart,
                "a field or element of an aggregate",
            ),
            (OperandShape::ThroughMemory, "loaded through memory"),
            (
                OperandShape::AddrTakenGlobal,
                "a global whose address is taken",
            ),
            (
                OperandShape::Cast,
                "a cast, which bounds and tag checks do not look through",
            ),
            (OperandShape::Other, "a constant or an address"),
        ];
        let mut want: Vec<(KeepReason, String)> = shapes
            .into_iter()
            .map(|(s, what)| {
                (
                    KeepReason::Untracked(s),
                    format!("pointer is not a trackable scalar: it is {what}"),
                )
            })
            .collect();
        let unproven = [
            "pointer not proven non-null on every incoming path",
            "no dominating bounds check on every incoming path",
            "no dominating bounds check on every incoming path",
            "no dominating wild-bounds check on every incoming path",
            "no dominating tag check on every incoming path (memory writes invalidate tag facts)",
            "no dominating downcast to the same target on every incoming path",
            "stack-escape checks depend on the run-time value stored and are never elided",
            "index is not a compile-time constant and its value range is unknown",
            "no dominating temporal check on every incoming path (an intervening call may free the allocation)",
        ];
        for (k, text) in CheckKind::ALL.into_iter().zip(unproven) {
            want.push((KeepReason::Unproven(k), text.into()));
        }
        want.extend([
            (
                KeepReason::ShortAccess {
                    kind: CheckKind::SeqBounds,
                    verified: 4,
                    needed: 8,
                },
                "an earlier bounds check only verified a 4-byte access; this one needs 8 bytes"
                    .into(),
            ),
            (
                KeepReason::ShortAccess {
                    kind: CheckKind::WildBounds,
                    verified: 1,
                    needed: 4,
                },
                "an earlier wild-bounds check only verified a 1-byte access; this one needs 4 bytes"
                    .into(),
            ),
            (
                KeepReason::VariableIndex,
                "index is not a compile-time constant".into(),
            ),
            (
                KeepReason::IndexRange {
                    lo: -1,
                    hi: 4,
                    len: 4,
                },
                "index is not a compile-time constant and its value range [-1, 4] is not contained in [0, 3]"
                    .into(),
            ),
            (
                KeepReason::Unreachable,
                "no path from the function's entry reaches this check".into(),
            ),
            (
                KeepReason::AlwaysFails("index 7 is out of bounds".into()),
                "provably always fails: index 7 is out of bounds".into(),
            ),
            (
                KeepReason::Rewritten(OptAction::Hoisted),
                "hoisted: loop-invariant operand, evaluated once per loop entry".into(),
            ),
            (
                KeepReason::Rewritten(OptAction::Widened),
                "widened: per-iteration bounds folded into one whole-trip range probe".into(),
            ),
        ]);
        let mut seen = std::collections::HashSet::new();
        for (reason, text) in &want {
            assert_eq!(reason.to_string(), *text, "{reason:?}");
            let distinct = matches!(reason, KeepReason::Unproven(CheckKind::SeqToSafe))
                || seen.insert(text.clone());
            assert!(distinct, "{text:?} names two reasons");
        }
        // The alternate form of a rewrite drops the action already
        // printed beside it.
        for a in [OptAction::Hoisted, OptAction::Widened] {
            let r = KeepReason::Rewritten(a);
            assert_eq!(format!("{}: {r:#}", a.name()), r.to_string());
        }
    }
}
