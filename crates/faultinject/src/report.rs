//! Crash-test results: per-mutant records, the per-class catch-rate matrix,
//! and JSON rendering (hand-rolled; the repo builds offline, no serde).

use crate::mutate::FaultClass;
use ccured::json_str;

/// How one mutant fared under the cured interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// A CCured run-time check failed — the fault was caught before any
    /// memory was harmed. The desired outcome.
    Caught,
    /// The cured run produced a ground-truth memory error: a **soundness
    /// bug** in the cure. Any escape fails the harness.
    Escaped,
    /// The cured run finished with defined behaviour — either the fault
    /// never triggered, or the cured semantics neutralized it (GC-backed
    /// `free`, zeroing allocator).
    Masked,
    /// A sandbox limit (fuel, stack, heap, deadline) stopped the run before
    /// the fault resolved.
    ResourceExhausted,
    /// The mutant could not be assessed: the cure or a run failed with an
    /// internal/unsupported error (a harness problem, not a verdict).
    Invalid,
}

impl Outcome {
    /// Stable snake_case name (matrix columns, JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Caught => "caught",
            Outcome::Escaped => "escaped",
            Outcome::Masked => "masked",
            Outcome::ResourceExhausted => "resource_exhausted",
            Outcome::Invalid => "invalid",
        }
    }

    const ALL: [Outcome; 5] = [
        Outcome::Caught,
        Outcome::Escaped,
        Outcome::Masked,
        Outcome::ResourceExhausted,
        Outcome::Invalid,
    ];
}

/// The full record of one mutant: what was seeded, what plain C semantics
/// did with it, and what the cured program did.
#[derive(Debug, Clone)]
pub struct MutantRun {
    /// Mutant index within the batch (reproduce with the batch seed).
    pub id: usize,
    /// Name of the workload the fault was seeded into.
    pub workload: String,
    /// The seeded fault class.
    pub class: FaultClass,
    /// What the mutation changed.
    pub description: String,
    /// The classification.
    pub outcome: Outcome,
    /// Rendering of the original (uncured) run's result — the ground truth.
    pub ground_truth: String,
    /// Whether the ground-truth run hit a real memory error.
    pub gt_memory_error: bool,
    /// Rendering of the cured run's result.
    pub cured: String,
    /// Ground-truth dead-memory traps the abstract machine counted during
    /// the *cured* run. Under `--temporal` this must be zero on every
    /// mutant: the emitted check fires before the machine would trap.
    pub uaf_traps: u64,
}

/// Results of a whole crash-test batch.
#[derive(Debug, Clone)]
pub struct CrashTestReport {
    /// The batch seed (reproduces every mutant).
    pub seed: u64,
    /// One record per mutant, in generation order.
    pub runs: Vec<MutantRun>,
}

impl CrashTestReport {
    /// Mutants of `class` that ended in `outcome`.
    pub fn count(&self, class: FaultClass, outcome: Outcome) -> usize {
        self.runs
            .iter()
            .filter(|r| r.class == class && r.outcome == outcome)
            .count()
    }

    /// Every escaped mutant — each one is a soundness bug to investigate.
    pub fn escaped(&self) -> Vec<&MutantRun> {
        self.runs
            .iter()
            .filter(|r| r.outcome == Outcome::Escaped)
            .collect()
    }

    /// Fault classes that actually appear in the batch.
    pub fn classes_present(&self) -> Vec<FaultClass> {
        FaultClass::ALL
            .into_iter()
            .filter(|c| self.runs.iter().any(|r| r.class == *c))
            .collect()
    }

    /// Catch rate for a class: caught / (caught + escaped), or `None` when
    /// no mutant of the class reached a verdict on that axis.
    pub fn catch_rate(&self, class: FaultClass) -> Option<f64> {
        let caught = self.count(class, Outcome::Caught);
        let escaped = self.count(class, Outcome::Escaped);
        if caught + escaped == 0 {
            None
        } else {
            Some(caught as f64 / (caught + escaped) as f64)
        }
    }

    /// The human-readable catch-rate matrix.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crash-test: {} mutants (seed {})\n\n",
            self.runs.len(),
            self.seed
        ));
        out.push_str(&format!(
            "{:<16} {:>6} {:>7} {:>7} {:>7} {:>8} {:>8}  {}\n",
            "fault class", "total", "caught", "masked", "limit", "invalid", "ESCAPED", "catch-rate"
        ));
        let mut totals = [0usize; 5];
        for class in self.classes_present() {
            let n: Vec<usize> = Outcome::ALL.iter().map(|o| self.count(class, *o)).collect();
            for (t, v) in totals.iter_mut().zip(&n) {
                *t += v;
            }
            let rate = match self.catch_rate(class) {
                Some(r) => format!("{:.1}%", r * 100.0),
                None => "n/a".to_string(),
            };
            out.push_str(&format!(
                "{:<16} {:>6} {:>7} {:>7} {:>7} {:>8} {:>8}  {}\n",
                class.name(),
                n.iter().sum::<usize>(),
                n[0],
                n[2],
                n[3],
                n[4],
                n[1],
                rate
            ));
        }
        out.push_str(&format!(
            "{:<16} {:>6} {:>7} {:>7} {:>7} {:>8} {:>8}\n",
            "TOTAL",
            totals.iter().sum::<usize>(),
            totals[0],
            totals[2],
            totals[3],
            totals[4],
            totals[1]
        ));
        let escapes = self.escaped();
        if escapes.is_empty() {
            out.push_str("\nno escapes: every seeded fault was caught, neutralized, or masked\n");
        } else {
            out.push_str(&format!(
                "\n{} ESCAPED mutant(s) — soundness bugs:\n",
                escapes.len()
            ));
            for r in escapes {
                out.push_str(&format!(
                    "  #{} [{}] {} in `{}`\n    ground truth: {}\n    cured:        {}\n",
                    r.id, r.class, r.description, r.workload, r.ground_truth, r.cured
                ));
            }
        }
        out
    }

    /// Machine-readable summary: seed, per-class outcome counts, and the
    /// details of any escaped mutants.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        s.push_str(&format!(
            "\"seed\":{},\"mutants\":{},\"classes\":{{",
            self.seed,
            self.runs.len()
        ));
        let classes = self.classes_present();
        for (i, class) in classes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{{", class.name()));
            for (j, o) in Outcome::ALL.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", o.name(), self.count(*class, *o)));
            }
            s.push('}');
        }
        s.push_str("},\"escaped\":[");
        for (i, r) in self.escaped().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"id\":{},\"workload\":{},\"class\":\"{}\",\"description\":{},\"ground_truth\":{},\"cured\":{}}}",
                r.id,
                json_str(&r.workload),
                r.class.name(),
                json_str(&r.description),
                json_str(&r.ground_truth),
                json_str(&r.cured)
            ));
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(class: FaultClass, outcome: Outcome) -> MutantRun {
        MutantRun {
            id: 0,
            workload: "w".into(),
            class,
            description: "d".into(),
            outcome,
            ground_truth: "gt".into(),
            gt_memory_error: outcome == Outcome::Caught,
            cured: "c".into(),
            uaf_traps: 0,
        }
    }

    #[test]
    fn matrix_counts_and_catch_rate() {
        let rep = CrashTestReport {
            seed: 9,
            runs: vec![
                run(FaultClass::OffByOne, Outcome::Caught),
                run(FaultClass::OffByOne, Outcome::Caught),
                run(FaultClass::OffByOne, Outcome::Masked),
                run(FaultClass::PtrSmuggle, Outcome::Escaped),
            ],
        };
        assert_eq!(rep.count(FaultClass::OffByOne, Outcome::Caught), 2);
        assert_eq!(rep.catch_rate(FaultClass::OffByOne), Some(1.0));
        assert_eq!(rep.catch_rate(FaultClass::PtrSmuggle), Some(0.0));
        assert_eq!(rep.catch_rate(FaultClass::UninitRead), None);
        assert_eq!(rep.escaped().len(), 1);
        let text = rep.render();
        assert!(text.contains("off_by_one"), "{text}");
        assert!(text.contains("ESCAPED mutant"), "{text}");
    }

    #[test]
    fn json_is_wellformed_enough() {
        let rep = CrashTestReport {
            seed: 1,
            runs: vec![run(FaultClass::NullGuard, Outcome::Caught)],
        };
        let j = rep.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"null_guard\""), "{j}");
        assert!(j.contains("\"caught\":1"), "{j}");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
