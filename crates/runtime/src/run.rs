//! What one run of a program observes: the result, the output, the event
//! counters, the machine's dead-memory traps and, when enabled, the per-site
//! profile. [`Interp::observe`](crate::Interp::observe) is the one way every
//! driver reads a run, and [`RunStats::first_difference`] is the one
//! engine-agreement check: the tree engine is the oracle, and the VM must
//! match it on everything it compares.

use crate::cost::Counters;
use crate::err::RtError;
use crate::profile::Profile;

/// The observable result of one execution.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Exit code (0 when the run errored).
    pub exit: i64,
    /// The error, if the run did not complete.
    pub error: Option<RtError>,
    /// Event counters.
    pub counters: Counters,
    /// Bytes of program output.
    pub output: Vec<u8>,
    /// Ground-truth machine traps on dead memory (use-after-free /
    /// use-after-return). The temporal experiments assert this stays zero:
    /// an emitted check must fire before the machine would have trapped.
    pub uaf_traps: u64,
    /// The per-site profile, when the run had profiling enabled.
    pub profile: Option<Profile>,
}

impl RunStats {
    /// Whether the run completed without error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }

    /// The run's result: the exit code, or the error that stopped it.
    pub fn result(&self) -> Result<i64, &RtError> {
        match &self.error {
            Some(e) => Err(e),
            None => Ok(self.exit),
        }
    }

    /// The first observable difference from `other`, comparing in order the
    /// result, the output and every [`Counters`] field; `None` when the two
    /// runs agree. `self` is reported first (the tree-engine oracle, by
    /// convention).
    pub fn first_difference(&self, other: &RunStats) -> Option<String> {
        if self.result() != other.result() {
            return Some(format!(
                "result: {:?} vs {:?}",
                self.result(),
                other.result()
            ));
        }
        if self.output != other.output {
            return Some(format!(
                "output: {} bytes vs {} bytes",
                self.output.len(),
                other.output.len()
            ));
        }
        if self.counters != other.counters {
            // The pretty `Debug` form has one `name: value,` line per field,
            // so the first differing line names the counter.
            let (a, b) = (
                format!("{:#?}", self.counters),
                format!("{:#?}", other.counters),
            );
            fn field(line: &str) -> Option<(&str, &str)> {
                line.trim().trim_end_matches(',').split_once(": ")
            }
            let (x, y) = a.lines().zip(b.lines()).find(|(x, y)| x != y)?;
            let ((name, x), (_, y)) = (field(x)?, field(y)?);
            return Some(format!("counter {name}: {x} vs {y}"));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccured_cil::ir::CheckKind;

    #[test]
    fn first_difference_names_the_first_difference() {
        let a = RunStats {
            exit: 0,
            error: None,
            counters: Counters {
                instrs: 100,
                ..Counters::default()
            },
            output: b"ok\n".to_vec(),
            uaf_traps: 0,
            profile: None,
        };
        let mut b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        // A per-kind check count is named by its kind.
        let mut t = a.clone();
        t.counters.checks[CheckKind::Temporal] += 1;
        let temporal = Some("counter temporal: 0 vs 1");
        assert_eq!(a.first_difference(&t).as_deref(), temporal);
        b.counters.instrs += 1;
        let instrs = Some("counter instrs: 100 vs 101");
        assert_eq!(a.first_difference(&b).as_deref(), instrs);
        b.output.push(b'!');
        let output = Some("output: 3 bytes vs 4 bytes");
        assert_eq!(a.first_difference(&b).as_deref(), output);
        b.error = Some(RtError::OutOfFuel);
        assert!(a
            .first_difference(&b)
            .unwrap()
            .starts_with("result: Ok(0) vs Err("));
    }
}
