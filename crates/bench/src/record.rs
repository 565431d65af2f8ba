//! The one shape of every `BENCH_*.json` record `tables` writes: the
//! result line of perfbench, `{"correct","attempted","failed","metrics"}`,
//! with each metric `{"value","unit"}`.
//!
//! Metric names are dotted and code-defined (a figure's prefix, a
//! quantity, and a workload, size or class name), so they are written
//! unescaped. A quantity perfbench also reports keeps its perfbench name:
//! `runtime.vm_s.em3d` is the wall-clock of one `em3d` run on the VM in
//! both.

use ccured::json;
use std::fmt::Write;

/// A figure's machine-readable record.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Rows the figure measured.
    pub attempted: u64,
    /// Rows that failed the figure's own verdict.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Record {
    /// A record over `attempted` rows, none failed yet.
    pub fn new(attempted: usize) -> Self {
        Record {
            attempted: attempted as u64,
            ..Record::default()
        }
    }

    /// Adds each `(name, value, unit)`.
    pub fn metrics<const N: usize>(
        &mut self,
        metrics: [(&str, f64, &'static str); N],
    ) -> &mut Self {
        self.metrics
            .extend(metrics.map(|(name, v, unit)| (name.to_string(), v, unit)));
        self
    }

    /// Adds one row's metrics, each `(name, value, unit)` named
    /// `{name}.{row}`.
    pub fn row<const N: usize>(
        &mut self,
        row: impl std::fmt::Display,
        metrics: [(&str, f64, &'static str); N],
    ) -> &mut Self {
        self.metrics
            .extend(metrics.map(|(name, v, unit)| (format!("{name}.{row}"), v, unit)));
        self
    }

    /// The value of metric `name`, if the record has it.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, ..)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Whether no row failed and every value is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }

    /// The record as one compact JSON object. A value that is not finite
    /// is written `null` (and the record is not [`correct`](Self::correct)).
    pub fn json(&self) -> String {
        json::object(|o| {
            o.num("correct", self.correct())
                .num("attempted", self.attempted)
                .num("failed", self.failed)
                .obj("metrics", |o| {
                    for (name, value, unit) in &self.metrics {
                        debug_assert!(
                            name.bytes()
                                .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_' | b'.')),
                            "metric name {name:?} is not [a-z0-9_.]"
                        );
                        o.obj(name, |o| {
                            o.num("value", Value(*value)).str("unit", unit);
                        });
                    }
                });
        })
    }
}

/// A metric value: its shortest round-trip decimal, or `null`.
struct Value(f64);

impl json::Num for Value {
    fn write(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{}", self.0);
        } else {
            out.push_str("null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Record;

    #[test]
    fn writes_perfbench_shape_and_null_for_non_finite_values() {
        let mut r = Record::new(2);
        r.row("em3d", [("runtime.vm_s", 0.25, "s")])
            .metrics([("interp.reps", 3.0, "count")])
            .row("em3d", [("interp.speedup", f64::INFINITY, "x")]);
        assert_eq!(
            r.json(),
            r#"{"correct":false,"attempted":2,"failed":0,"metrics":{"runtime.vm_s.em3d":{"value":0.25,"unit":"s"},"interp.reps":{"value":3,"unit":"count"},"interp.speedup.em3d":{"value":null,"unit":"x"}}}"#
        );
        assert_eq!(r.value("interp.reps"), Some(3.0));
        assert_eq!(r.value("interp.steps"), None);
    }

    #[test]
    fn a_failed_row_makes_the_record_incorrect() {
        let mut r = Record::new(1);
        r.metrics([("serve.units", 4.0, "count")]);
        assert!(r.correct());
        r.failed = 1;
        assert!(!r.correct());
        assert!(r
            .json()
            .starts_with(r#"{"correct":false,"attempted":1,"failed":1,"#));
    }
}
