//! The execution sandbox: resource limits enforced by the interpreter.
//!
//! The interpreter backs every experiment in this repo and is routinely fed
//! adversarial inputs (the fuzz corpus, the fault-injection harness). The
//! sandbox guarantees that no guest program — however hostile — can wedge or
//! crash the *host*: every limit trips gracefully as an
//! [`RtError`](crate::RtError) instead of a panic, a blown host stack, or an
//! OOM kill.
//!
//! Each limit maps to a stable error:
//!
//! | limit             | error                                           |
//! |-------------------|-------------------------------------------------|
//! | `fuel`            | [`RtError::OutOfFuel`](crate::RtError::OutOfFuel)|
//! | `max_stack_depth` | `LimitExceeded { limit: "stack_limit" }`        |
//! | `max_heap_bytes`  | `LimitExceeded { limit: "heap_limit" }`         |
//! | `deadline`        | `LimitExceeded { limit: "deadline" }`           |

use std::time::Duration;

/// Resource limits for one interpreter run.
///
/// The defaults are deliberately generous — every workload and paper
/// experiment in the repo fits comfortably — while still bounding runaway
/// guests. Deterministic harnesses (crash-test, fuzzing) should leave
/// `deadline` unset: fuel already bounds run time, and wall-clock cutoffs
/// make outcomes machine-dependent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Instruction budget (runaway-loop guard).
    pub fuel: u64,
    /// Maximum interpreter call-stack depth. The interpreter recurses on
    /// guest calls, so this also protects the host stack: `f(){f();}` must
    /// trip this limit, not crash the process.
    pub max_stack_depth: usize,
    /// Cap on total live guest memory in bytes.
    pub max_heap_bytes: u64,
    /// Optional wall-clock deadline, polled periodically during execution.
    /// `None` (the default) keeps runs fully deterministic.
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            // The interpreter spends several host frames (~10 KiB of host
            // stack in debug builds) per guest frame, and test threads get
            // only 2 MiB: empirically, 192 guest frames trip this limit
            // cleanly while 256 blow the host stack. 128 keeps a healthy
            // margin below that cliff while still exceeding the deepest
            // corpus recursion (olden treeadd, ~12 frames) by 10x.
            fuel: 500_000_000,
            max_stack_depth: 128,
            max_heap_bytes: 256 << 20,
            deadline: None,
        }
    }
}

impl Limits {
    /// The crash-test sandbox (`ccured crash-test`, `ccured campaign`):
    /// tight enough that a runaway mutant (e.g. a weakened loop bound
    /// spinning forever) exhausts its fuel in well under a second.
    pub fn strict() -> Self {
        Limits {
            fuel: 2_000_000,
            max_stack_depth: 96,
            max_heap_bytes: 32 << 20,
            deadline: None,
        }
    }

    /// These limits with a wall-clock deadline of `ms` milliseconds (the
    /// `--deadline-ms` CLI flag; `0` means a zero budget, which trips at
    /// the first boundary — useful for deterministic tests).
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Duration::from_millis(ms));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_generous_but_finite() {
        let l = Limits::default();
        assert!(l.fuel >= 1_000_000);
        assert!(l.max_stack_depth >= 64);
        assert!(l.max_heap_bytes >= 1 << 20);
        assert!(l.deadline.is_none(), "default must stay deterministic");
        let s = Limits::strict();
        assert!(s.fuel < l.fuel && s.max_heap_bytes < l.max_heap_bytes);
        assert!(s.max_stack_depth < l.max_stack_depth);
    }
}
