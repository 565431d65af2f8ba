//! Event counters and the deterministic abstract cost model.
//!
//! Every run of the interpreter tallies [`Counters`]; a [`CostModel`]
//! converts them to abstract cycles. **Calibration policy** (see DESIGN.md):
//! the constants are chosen once, globally — never per experiment — so that
//! the *shape* of the paper's results (CCured ≈ 1.0–1.9×, Purify ≈ 25–100×,
//! Valgrind ≈ 9–130×, I/O-bound daemons ≈ 1.0×) emerges from the check
//! counts each workload actually incurs.

use ccured_cil::ir::{CheckKind, PerCheck};

/// Event counts for one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct Counters {
    /// Instructions executed (Set/Call, plus expression evaluation steps).
    pub instrs: u64,
    /// Memory loads.
    pub loads: u64,
    /// Memory stores.
    pub stores: u64,
    /// Function calls (defined functions).
    pub calls: u64,
    /// External/builtin calls.
    pub extern_calls: u64,
    /// I/O operations performed by builtins (dominates daemon workloads).
    pub io_ops: u64,
    /// Bytes moved by I/O builtins.
    pub io_bytes: u64,

    /// CCured checks executed, by kind.
    pub checks: PerCheck<u64>,
    /// Total parent-chain steps walked by RTTI checks.
    pub rtti_walk_steps: u64,
    /// WILD tag updates on stores through WILD pointers.
    pub tag_updates: u64,
    /// Fat-pointer representation conversions at casts.
    pub fat_converts: u64,
    /// SPLIT metadata maintenance operations (parallel-structure upkeep).
    pub meta_ops: u64,

    // Sandbox (execution-limit) accounting.
    /// Limit consultations: one per frame push, per allocation, and per
    /// deadline poll. These model the compare-and-branch the sandbox adds.
    pub limit_checks: u64,
    /// High-water mark of the guest call-stack depth.
    pub peak_stack_depth: u64,
    /// High-water mark of live guest heap bytes.
    pub peak_heap_bytes: u64,

    // Baseline instrumentation work.
    /// Purify/Valgrind shadow-memory byte operations.
    pub shadow_ops: u64,
    /// Valgrind per-instruction JIT dispatch events.
    pub jit_instrs: u64,
    /// Purify per-instruction binary-translation dispatch events.
    pub bt_instrs: u64,
    /// Jones–Kelly object-registry lookups.
    pub registry_lookups: u64,
}

impl Counters {
    /// Total dynamic CCured checks executed.
    pub fn total_checks(&self) -> u64 {
        self.checks.total()
    }

    /// Dynamic `CHECK_NULL` + `CHECK_BOUNDS` events — the subset the
    /// redundant-check eliminator (`ccured-analysis`) targets. Optimized
    /// runs must execute strictly fewer of these than `--no-opt` runs on
    /// workloads with any intraprocedural redundancy, and never more.
    pub fn null_bounds_checks(&self) -> u64 {
        use CheckKind::*;
        [Null, SeqBounds, SeqToSafe, WildBounds, IndexBound]
            .iter()
            .map(|&k| self.checks[k])
            .sum()
    }
}

/// Abstract per-event cycle costs.
///
/// The defaults model a simple in-order machine: ALU ops cost 1, memory
/// ops 1 (cache-friendly interpretive abstraction), calls 5. Check costs
/// reflect their instruction footprints in the real CCured (a null check is
/// a compare+branch; a SEQ bounds check is two compares on in-register
/// metadata; WILD checks touch the area header and tag bitmap). Baseline
/// costs reflect published behaviour: Purify pays per-byte shadow updates on
/// every access; Valgrind pays JIT dispatch per instruction plus 9-bit
/// shadow per byte; Jones–Kelly pays a registry (splay) lookup per pointer
/// operation.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub struct CostModel {
    pub instr: f64,
    pub load: f64,
    pub store: f64,
    pub call: f64,
    pub extern_call: f64,
    /// Per I/O operation (syscall-scale; dwarfs compute in daemons).
    pub io_op: f64,
    pub io_byte: f64,

    /// Per executed check, by kind.
    pub check: PerCheck<f64>,
    pub rtti_walk_step: f64,
    pub tag_update: f64,
    pub fat_convert: f64,
    pub meta_op: f64,

    pub shadow_op: f64,
    pub jit_instr: f64,
    pub bt_instr: f64,
    pub registry_lookup: f64,

    /// Per limit consultation (a compare-and-branch on cached state).
    pub limit_check: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            instr: 1.0,
            load: 1.0,
            store: 1.0,
            call: 5.0,
            extern_call: 10.0,
            io_op: 2_500.0,
            io_byte: 2.0,

            // In `CheckKind` order: null, seq_bounds, seq_to_safe,
            // wild_bounds, wild_tag, rtti, no_stack_escape, index_bound,
            // temporal (a load of the allocation's key slot plus a
            // compare-and-branch).
            check: PerCheck([1.0, 4.0, 3.0, 9.0, 9.0, 3.0, 1.0, 0.4, 2.0]),
            rtti_walk_step: 2.0,
            tag_update: 9.0,
            fat_convert: 1.0,
            meta_op: 4.0,

            shadow_op: 6.0,
            jit_instr: 9.0,
            bt_instr: 22.0,
            registry_lookup: 35.0,

            limit_check: 1.0,
        }
    }
}

impl CostModel {
    /// Total abstract cycles for a run.
    pub fn cycles(&self, c: &Counters) -> f64 {
        let program = self.instr * c.instrs as f64
            + self.load * c.loads as f64
            + self.store * c.stores as f64
            + self.call * c.calls as f64
            + self.extern_call * c.extern_calls as f64
            + self.io_op * c.io_ops as f64
            + self.io_byte * c.io_bytes as f64;
        self.add_check_cycles(program, c)
            + self.tag_update * c.tag_updates as f64
            + self.fat_convert * c.fat_converts as f64
            + self.meta_op * c.meta_ops as f64
            + self.shadow_op * c.shadow_ops as f64
            + self.jit_instr * c.jit_instrs as f64
            + self.bt_instr * c.bt_instrs as f64
            + self.registry_lookup * c.registry_lookups as f64
            + self.limit_check * c.limit_checks as f64
    }

    /// Abstract cycles spent executing CCured checks only (including RTTI
    /// walk steps) — the metric the E15 loop-optimizer bench reduces.
    /// Memory and call traffic is invariant under the loop passes, so the
    /// total [`cycles`](Self::cycles) figure would dilute the signal.
    pub fn check_cycles(&self, c: &Counters) -> f64 {
        // -0.0 is the exact additive identity: the first term comes out
        // unchanged, as if the sum had started with it.
        self.add_check_cycles(-0.0, c)
    }

    /// Adds the check terms to `acc` one at a time, in [`CheckKind`] order
    /// with the RTTI walk steps directly after `rtti`. Floating-point
    /// addition is not associative, so this order is what keeps
    /// [`cycles`](Self::cycles) and every ratio built on it bit-stable.
    fn add_check_cycles(&self, mut acc: f64, c: &Counters) -> f64 {
        for k in CheckKind::ALL {
            acc += self.check[k] * c.checks[k] as f64;
            if k == CheckKind::Rtti {
                acc += self.rtti_walk_step * c.rtti_walk_steps as f64;
            }
        }
        acc
    }

    /// Overhead ratio of `instrumented` relative to `baseline`.
    pub fn ratio(&self, instrumented: &Counters, baseline: &Counters) -> f64 {
        let b = self.cycles(baseline);
        if b == 0.0 {
            1.0
        } else {
            self.cycles(instrumented) / b
        }
    }

    /// Fraction of a run's cycles spent on sandbox limit consultations —
    /// the price of the hardened interpreter, reported alongside fig9
    /// (target: well under 2% on every workload).
    pub fn sandbox_overhead(&self, c: &Counters) -> f64 {
        let total = self.cycles(c);
        if total == 0.0 {
            0.0
        } else {
            self.limit_check * c.limit_checks as f64 / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_run_costs_its_instructions() {
        let model = CostModel::default();
        let c = Counters {
            instrs: 100,
            ..Counters::default()
        };
        assert_eq!(model.cycles(&c), 100.0);
    }

    #[test]
    fn checks_add_cost() {
        let model = CostModel::default();
        let base = Counters {
            instrs: 1000,
            loads: 100,
            ..Counters::default()
        };
        let mut cured = base;
        cured.checks[CheckKind::Null] = 100;
        cured.checks[CheckKind::SeqBounds] = 50;
        let r = model.ratio(&cured, &base);
        assert!(r > 1.0 && r < 2.0, "modest CCured-style overhead, got {r}");
    }

    #[test]
    fn valgrind_style_dominates() {
        let model = CostModel::default();
        let base = Counters {
            instrs: 1000,
            loads: 200,
            stores: 100,
            ..Counters::default()
        };
        let mut vg = base;
        vg.jit_instrs = base.instrs;
        vg.shadow_ops = (base.loads + base.stores) * 9;
        let r = model.ratio(&vg, &base);
        assert!(
            r > 8.0,
            "valgrind-style overhead must be an order of magnitude, got {r}"
        );
    }

    #[test]
    fn io_dominates_daemons() {
        let model = CostModel::default();
        let mut base = Counters {
            instrs: 10_000,
            io_ops: 400,
            ..Counters::default()
        };
        let mut cured = base;
        cured.checks[CheckKind::Null] = 5_000;
        cured.checks[CheckKind::SeqBounds] = 2_000;
        let r = model.ratio(&cured, &base);
        assert!(
            r < 1.05,
            "I/O-bound workloads show negligible overhead, got {r}"
        );
        base.io_ops = 0;
        let mut cured2 = base;
        cured2.checks[CheckKind::Null] = 5_000;
        cured2.checks[CheckKind::SeqBounds] = 2_000;
        assert!(
            model.ratio(&cured2, &base) > 1.2,
            "CPU-bound overhead must be visible"
        );
    }

    #[test]
    fn sandbox_overhead_is_a_small_fraction() {
        let model = CostModel::default();
        let c = Counters {
            instrs: 100_000,
            calls: 500,
            limit_checks: 510,
            ..Counters::default()
        };
        let o = model.sandbox_overhead(&c);
        assert!(o > 0.0 && o < 0.02, "sandbox overhead {o} out of range");
        assert_eq!(model.sandbox_overhead(&Counters::default()), 0.0);
    }

    /// The reference for [`CostModel::cycles`]: every term spelled out, in
    /// the order it must add them.
    fn reference_cycles(m: &CostModel, c: &Counters) -> f64 {
        use CheckKind::*;
        m.instr * c.instrs as f64
            + m.load * c.loads as f64
            + m.store * c.stores as f64
            + m.call * c.calls as f64
            + m.extern_call * c.extern_calls as f64
            + m.io_op * c.io_ops as f64
            + m.io_byte * c.io_bytes as f64
            + m.check[Null] * c.checks[Null] as f64
            + m.check[SeqBounds] * c.checks[SeqBounds] as f64
            + m.check[SeqToSafe] * c.checks[SeqToSafe] as f64
            + m.check[WildBounds] * c.checks[WildBounds] as f64
            + m.check[WildTag] * c.checks[WildTag] as f64
            + m.check[Rtti] * c.checks[Rtti] as f64
            + m.rtti_walk_step * c.rtti_walk_steps as f64
            + m.check[NoStackEscape] * c.checks[NoStackEscape] as f64
            + m.check[IndexBound] * c.checks[IndexBound] as f64
            + m.check[Temporal] * c.checks[Temporal] as f64
            + m.tag_update * c.tag_updates as f64
            + m.fat_convert * c.fat_converts as f64
            + m.meta_op * c.meta_ops as f64
            + m.shadow_op * c.shadow_ops as f64
            + m.jit_instr * c.jit_instrs as f64
            + m.bt_instr * c.bt_instrs as f64
            + m.registry_lookup * c.registry_lookups as f64
            + m.limit_check * c.limit_checks as f64
    }

    /// The reference for [`CostModel::check_cycles`].
    fn reference_check_cycles(m: &CostModel, c: &Counters) -> f64 {
        use CheckKind::*;
        m.check[Null] * c.checks[Null] as f64
            + m.check[SeqBounds] * c.checks[SeqBounds] as f64
            + m.check[SeqToSafe] * c.checks[SeqToSafe] as f64
            + m.check[WildBounds] * c.checks[WildBounds] as f64
            + m.check[WildTag] * c.checks[WildTag] as f64
            + m.check[Rtti] * c.checks[Rtti] as f64
            + m.rtti_walk_step * c.rtti_walk_steps as f64
            + m.check[NoStackEscape] * c.checks[NoStackEscape] as f64
            + m.check[IndexBound] * c.checks[IndexBound] as f64
            + m.check[Temporal] * c.checks[Temporal] as f64
    }

    /// Seeded counters of every magnitude, so sums round differently when
    /// their terms are added in a different order.
    fn random_counters(state: &mut u64) -> Counters {
        let mut next = || {
            // splitmix64
            *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = *state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let z = z ^ (z >> 31);
            z >> (z % 64)
        };
        let mut c = Counters {
            instrs: next(),
            loads: next(),
            stores: next(),
            calls: next(),
            extern_calls: next(),
            io_ops: next(),
            io_bytes: next(),
            rtti_walk_steps: next(),
            tag_updates: next(),
            fat_converts: next(),
            meta_ops: next(),
            limit_checks: next(),
            shadow_ops: next(),
            jit_instrs: next(),
            bt_instrs: next(),
            registry_lookups: next(),
            ..Counters::default()
        };
        for k in CheckKind::ALL {
            c.checks[k] = next();
        }
        c
    }

    #[test]
    fn cycles_fold_in_the_reference_order_bit_for_bit() {
        let m = CostModel::default();
        let mut state = 1;
        let mut walk_order_matters = false;
        for _ in 0..4096 {
            let c = random_counters(&mut state);
            assert_eq!(
                m.cycles(&c).to_bits(),
                reference_cycles(&m, &c).to_bits(),
                "{c:?}"
            );
            assert_eq!(
                m.check_cycles(&c).to_bits(),
                reference_check_cycles(&m, &c).to_bits(),
                "{c:?}"
            );
            // The samples can tell the orders apart: with the walk-step
            // term moved behind the last kind, some sums differ.
            let moved = CheckKind::ALL
                .iter()
                .fold(-0.0, |acc, &k| acc + m.check[k] * c.checks[k] as f64)
                + m.rtti_walk_step * c.rtti_walk_steps as f64;
            walk_order_matters |= moved.to_bits() != m.check_cycles(&c).to_bits();
        }
        assert!(walk_order_matters);
    }

    #[test]
    fn every_check_kind_is_named_once_and_priced() {
        use ccured_cil::ir::{Check, Exp};
        use ccured_cil::types::{IntKind, TypeId};
        let e = || Exp::int(0, IntKind::Int, TypeId(0));
        let model = CostModel::default();
        let mut names = std::collections::HashSet::new();
        for k in CheckKind::ALL {
            let c = match k {
                CheckKind::Null => Check::Null { ptr: e() },
                CheckKind::SeqBounds => Check::SeqBounds {
                    ptr: e(),
                    access_size: 4,
                },
                CheckKind::SeqToSafe => Check::SeqToSafe {
                    ptr: e(),
                    access_size: 4,
                },
                CheckKind::WildBounds => Check::WildBounds {
                    ptr: e(),
                    access_size: 4,
                },
                CheckKind::WildTag => Check::WildTag { ptr: e() },
                CheckKind::Rtti => Check::Rtti {
                    ptr: e(),
                    target_node: 0,
                },
                CheckKind::NoStackEscape => Check::NoStackEscape { value: e() },
                CheckKind::IndexBound => Check::IndexBound { index: e(), len: 4 },
                CheckKind::Temporal => Check::Temporal { ptr: e() },
            };
            assert_eq!(c.kind(), Some(k));
            // The printer spells a check `CHECK_` + its upper-cased name.
            assert_eq!(c.name(), k.name());
            assert!(names.insert(k.name()), "{} named twice", k.name());
            assert!(model.check[k] > 0.0, "{} is free", k.name());
        }
        // Cured text, reports and verdicts spell these; they must not move.
        let spelled = CheckKind::ALL.map(CheckKind::name);
        let want = [
            "null",
            "seq_bounds",
            "seq_to_safe",
            "wild_bounds",
            "wild_tag",
            "rtti",
            "no_stack_escape",
            "index_bound",
            "temporal",
        ];
        assert_eq!(spelled, want);
    }

    #[test]
    fn total_checks_sums() {
        let mut c = Counters::default();
        c.checks[CheckKind::Null] = 1;
        c.checks[CheckKind::SeqBounds] = 2;
        c.checks[CheckKind::IndexBound] = 3;
        assert_eq!(c.total_checks(), 6);
        assert_eq!(c.null_bounds_checks(), 6);
        let mut w = c;
        w.checks[CheckKind::WildTag] = 4;
        w.checks[CheckKind::Rtti] = 2;
        assert_eq!(w.total_checks(), 12);
        assert_eq!(
            w.null_bounds_checks(),
            6,
            "tag/RTTI checks are not bounds checks"
        );
    }
}
