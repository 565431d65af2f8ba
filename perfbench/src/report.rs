//! The result a run prints: human-readable report lines, then one JSON
//! line with the metrics.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`) and their units, as listed in
/// `BENCHMARK.json`. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("oracle_pass_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("cost_ratio", "x"),
    ("peak_rss_mb", "MB"),
];

/// Names of the `exec` programs, in corpus order; the per-program
/// runtime metrics are keyed by them.
pub const EXEC_PROGRAMS: [&str; 16] = [
    "micro_safe",
    "micro_seq",
    "micro_wild",
    "micro_rtti",
    "micro_ptr_store",
    "em3d",
    "treeadd",
    "anagram",
    "ks",
    "compress",
    "ijpeg",
    "ftpd",
    "sendmail",
    "bind",
    "openssl_cast",
    "openssh_client",
];

/// Per-layer metrics (`--trace 1`) other than the per-program runtime
/// rows, and their units. Every workload reports every one of them; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("ast.parse_s", "s"),
    ("ast.prelude_share", "ratio"),
    ("cil.lower_s", "s"),
    ("cil.print_s", "s"),
    ("cil.ir_instrs", "count"),
    ("infer.infer_s", "s"),
    ("infer.solver_iterations", "count"),
    ("core.instrument_s", "s"),
    ("core.checks_inserted", "count"),
    ("analysis.optimize_s", "s"),
    ("analysis.elided_ratio", "ratio"),
    ("analysis.hoisted", "count"),
    ("analysis.widened", "count"),
    ("incr.fn_hit_ratio", "ratio"),
    ("incr.front_half_share", "ratio"),
    ("batch.parallelism", "x"),
    ("batch.store_s", "s"),
    ("batch.unit_p50_ms", "ms"),
    ("batch.unit_tail_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.cure_p50_ms", "ms"),
    ("serve.cure_tail_ms", "ms"),
    ("serve.unit_hit_ratio", "ratio"),
    ("serve.errors", "count"),
    ("serve.retries", "count"),
    ("serve.busy", "count"),
    ("serve.respawns", "count"),
    ("runtime.vm_ns_per_step", "ns"),
    ("runtime.tree_ns_per_step", "ns"),
    ("runtime.orig_vm_s", "s"),
    ("runtime.safety_share", "ratio"),
    ("runtime.untiered_vm_s", "s"),
    ("runtime.tier_promotions", "count"),
    ("runtime.tier_osr", "count"),
    ("runtime.steps", "count"),
    ("runtime.loads", "count"),
    ("runtime.stores", "count"),
    ("runtime.calls", "count"),
    ("runtime.extern_calls", "count"),
    ("runtime.checks", "count"),
    ("runtime.check_cycles", "cycles"),
    ("runtime.peak_heap_bytes", "bytes"),
    ("trace.overhead", "ratio"),
];

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted in the run.
    pub attempted: u64,
    /// Operations that failed their correctness gate.
    pub failed: u64,
    /// Gate failures, one line each.
    pub errors: Vec<String>,
    /// Human-readable report lines (input properties, named metrics).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a gate failure.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// Adds a report line.
    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }
}

/// Every metric the run must print, with its unit.
pub fn expected(trace: bool) -> Vec<(String, &'static str)> {
    if !trace {
        return END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
    }
    let mut v: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    for p in EXEC_PROGRAMS {
        v.push((format!("runtime.vm_s.{p}"), "s"));
        v.push((format!("runtime.tree_s.{p}"), "s"));
    }
    v
}

/// Prints the report lines and the final JSON result line.
pub fn print(out: &Outcome, trace: bool) {
    for l in &out.lines {
        println!("{l}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    let mut missing = Vec::new();
    let mut m = String::new();
    for (name, unit) in expected(trace) {
        let v = match out.metrics.get(&name) {
            Some(v) if v.is_finite() => *v,
            // Per-layer: a layer the workload does not exercise did no work.
            None if trace => 0.0,
            _ => {
                missing.push(name.clone());
                continue;
            }
        };
        if !m.is_empty() {
            m.push_str(", ");
        }
        m.push_str(&format!(r#""{name}": {{"value": {v}, "unit": "{unit}"}}"#));
    }
    for name in &missing {
        println!("FAILED: metric {name} was not measured");
    }
    let correct = out.failed == 0 && missing.is_empty();
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{m}}}}}"#,
        out.attempted.max(1),
        out.failed
    );
}
