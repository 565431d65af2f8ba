//! Spec95-style CPU-bound workloads: `compress` (bit-twiddling buffer
//! walks) and the paper's star witness `ijpeg`, "written in an
//! object-oriented style with a subtyping hierarchy of about 40 types and
//! 100 downcasts" (Section 5, *Run-time Type Information*).

use crate::{PaperStats, Workload};
use std::fmt::Write as _;

/// An RLE/checksum compressor over pseudo-random byte buffers: sequential
/// pointer walks over `char` arrays, the Spec95 `compress` discipline.
pub fn compress_like(rounds: u32, kb: u32) -> Workload {
    let n = kb * 1024;
    let src = format!(
        "extern long sim_rand(void);\n\
         extern void *malloc(unsigned long n);\n\
         int compress(char *in, char *out, int n) {{\n\
           char *p = in;\n\
           char *end = in + n;\n\
           char *o = out;\n\
           int emitted = 0;\n\
           while (p < end) {{\n\
             char c = *p;\n\
             int run = 1;\n\
             p++;\n\
             while (p < end && *p == c && run < 255) {{ run++; p++; }}\n\
             *o = c; o++;\n\
             *o = (char)run; o++;\n\
             emitted += 2;\n\
           }}\n\
           return emitted;\n\
         }}\n\
         int checksum(char *buf, int n) {{\n\
           int h = 5381;\n\
           for (int i = 0; i < n; i++) h = ((h << 5) + h + buf[i]) & 0x7fffffff;\n\
           return h;\n\
         }}\n\
         int main(void) {{\n\
           char *in = (char *)malloc({n});\n\
           char *out = (char *)malloc(2 * {n});\n\
           int h = 0;\n\
           for (int r = 0; r < {rounds}; r++) {{\n\
             for (int i = 0; i < {n}; i++) in[i] = (char)((sim_rand() >> 3) & 7);\n\
             int m = compress(in, out, {n});\n\
             h = (h + checksum(out, m)) & 0x7fffffff;\n\
           }}\n\
           return h > 0 ? 0 : 1;\n\
         }}"
    );
    Workload::new("compress", src)
        .without_wrappers()
        .with_paper(PaperStats {
            ccured_ratio: Some(1.3),
            ..PaperStats::default()
        })
}

/// The `ijpeg` reproduction: a `types`-deep physical-subtype chain with two
/// checked-downcast accessors per type (≈ `2 * types` downcast sites),
/// driven through a `void*`-free but thoroughly polymorphic dispatch loop.
///
/// With RTTI enabled, inference assigns RTTI to the dispatch pointers and
/// nothing is WILD; in original-CCured mode the same program drowns in WILD
/// pointers — the paper's 60%-WILD vs 1%-RTTI experiment.
pub fn ijpeg_oo(types: u32, rounds: u32) -> Workload {
    let types = types.max(2);
    let mut src = String::new();
    let _ = writeln!(src, "extern void *malloc(unsigned long n);");
    // Every node carries a scan-line buffer: in original-CCured mode the
    // WILD poisoning of the hierarchy spreads into these buffer pointers
    // too (the paper's "60% of the pointers being WILD"), while RTTI stays
    // confined to the dispatch pointers.
    let _ = writeln!(src, "struct Node {{ int kind; int payload; int *data; }};");
    for d in 1..=types {
        let mut fields = String::from("int kind; int payload; int *data;");
        for i in 1..=d {
            let _ = write!(fields, " long x{i};");
        }
        let _ = writeln!(src, "struct T{d} {{ {fields} }};");
    }
    // Standalone numeric pipeline: these pointers never meet the OO
    // hierarchy, so they stay typed even in original-CCured mode (the
    // reason the paper's ijpeg was 60% — not 100% — WILD).
    for d in 1..=types {
        let _ = writeln!(
            src,
            "long stage_{d}(int *inrow, int *outrow, int n) {{\n\
               int *a = inrow;\n\
               int *b = outrow;\n\
               long acc = 0;\n\
               for (int i = 0; i < n; i++) {{\n\
                 b[i] = ((a[i] * {d} + 3) >> 1) & 0xffff;\n\
                 acc += b[i];\n\
               }}\n\
               return acc;\n\
             }}"
        );
    }
    // Numeric scan-line kernels: plain buffer pointers, no casts.
    for d in 1..=types {
        let _ = writeln!(
            src,
            "long filter_{d}(int *row, int n) {{\n\
               int *p = row;\n\
               int *end = row + n;\n\
               long acc = 0;\n\
               while (p < end) {{ acc += *p + {d}; p++; }}\n\
               return acc;\n\
             }}"
        );
    }
    // Two accessors per type, each with a checked downcast.
    for d in 1..=types {
        let _ = writeln!(
            src,
            "long head_{d}(struct Node *n) {{\n\
               struct Node *view = (struct Node *)n;\n\
               struct T{d} *t = (struct T{d} *)view;\n\
               struct T{d} *same = (struct T{d} *)t;\n\
               struct T{d} *alias = (struct T{d} *)same;\n\
               return alias->x1;\n\
             }}"
        );
        let _ = writeln!(
            src,
            "long tail_{d}(struct Node *n) {{\n\
               struct T{d} *t = (struct T{d} *)n;\n\
               return t->x{d} + t->payload;\n\
             }}"
        );
    }
    // Constructors: allocate the exact subtype, publish as Node*.
    for d in 1..=types {
        let mut inits = String::new();
        for i in 1..=d {
            let _ = write!(inits, "t->x{i} = {i}; ");
        }
        let _ = writeln!(
            src,
            "struct Node *mk_{d}(int payload) {{\n\
               struct T{d} *t = (struct T{d} *)malloc(sizeof(struct T{d}));\n\
               t->kind = {d}; t->payload = payload; {inits}\n\
               t->data = (int *)malloc(8 * sizeof(int));\n\
               for (int i = 0; i < 8; i++) t->data[i] = i + {d};\n\
               return (struct Node *)t;\n\
             }}"
        );
    }
    // Dynamic dispatch on the kind tag. Each case also downcasts to an
    // *ancestor* of the dynamic type (real OO code checks against base
    // classes), which makes the RTTI subtype walk traverse real chains.
    let _ = writeln!(
        src,
        "long process(struct Node *n) {{\n  switch (n->kind) {{"
    );
    for d in 1..=types {
        let anc = (d / 2).max(1);
        let _ = writeln!(
            src,
            "    case {d}: return head_{d}(n) + tail_{d}(n) + head_{anc}(n) + filter_{d}(n->data, 8);"
        );
    }
    let _ = writeln!(src, "    default: return 0;\n  }}\n}}");
    let _ = writeln!(
        src,
        "extern int printf(char *fmt, ...);\n\
         long run_pipeline(int n) {{\n\
           int *front = (int *)malloc(n * sizeof(int));\n\
           int *back = (int *)malloc(n * sizeof(int));\n\
           for (int i = 0; i < n; i++) front[i] = i;\n\
           long acc = 0;\n\
           {stages}\n\
           return acc;\n\
         }}\n\
         int main(void) {{\n\
           struct Node *pool[{types}];\n\
           for (int i = 0; i < {types}; i++) pool[i] = mk_{{}}(i);\n\
           long s = 0;\n\
           for (int r = 0; r < {rounds}; r++) {{\n\
             for (int i = 0; i < {types}; i++)\n\
               s += process(pool[i]);\n\
             if ((r & 3) == 0) s += run_pipeline(12);\n\
           }}\n\
           return s > 0 ? 0 : 1;\n\
         }}",
        stages = (1..=types)
            .map(|d| format!("acc += stage_{d}(front, back, n); acc += stage_{d}(back, front, n);"))
            .collect::<Vec<_>>()
            .join("\n           ")
    );
    // Patch the constructor dispatch in main: one call per type.
    let ctor_calls: String = (1..=types)
        .map(|d| format!("  pool[{}] = mk_{d}({});\n", d - 1, d))
        .collect();
    let src = src.replace(
        &format!("for (int i = 0; i < {types}; i++) pool[i] = mk_{{}}(i);"),
        &format!("/* one constructor per subtype */\n{ctor_calls}"),
    );
    Workload::new("ijpeg", src)
        .without_wrappers()
        .with_paper(PaperStats {
            ccured_ratio: Some(1.45),
            ..PaperStats::default()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use ccured_cil::ir::CheckKind;
    use ccured_infer::InferOptions;

    #[test]
    fn compress_runs_identically() {
        let w = compress_like(2, 1);
        let o = runner::run_original(&w).expect("frontend");
        assert!(o.ok(), "{:?}", o.error);
        let c = runner::run_cured(&w, &InferOptions::default()).expect("cure");
        assert!(c.stats.ok(), "{:?}", c.stats.error);
        assert_eq!(o.exit, c.stats.exit);
        // compress is SEQ-heavy: bounds checks dominate.
        assert!(c.stats.counters.checks[CheckKind::SeqBounds] > 0);
        assert_eq!(c.cured.report.kind_counts.wild, 0);
    }

    #[test]
    fn ijpeg_runs_with_rtti_and_no_wild() {
        let w = ijpeg_oo(8, 3);
        let c = runner::run_cured(&w, &InferOptions::default()).expect("cure");
        assert!(c.stats.ok(), "{:?}", c.stats.error);
        assert_eq!(c.stats.exit, 0);
        assert_eq!(c.cured.report.kind_counts.wild, 0, "RTTI removes all WILD");
        assert!(c.cured.report.kind_counts.rtti > 0);
        assert!(c.stats.counters.checks[CheckKind::Rtti] > 0);
    }

    #[test]
    fn ijpeg_census_matches_structure() {
        let w = ijpeg_oo(8, 1);
        let c = runner::run_cured(&w, &InferOptions::default()).expect("cure");
        // Two downcast accessors per type.
        assert_eq!(c.cured.report.census.downcast, 16);
        assert_eq!(c.cured.report.census.bad, 0);
        assert!(c.cured.report.census.upcast >= 8, "constructor upcasts");
    }

    #[test]
    fn ijpeg_original_ccured_goes_wild() {
        let w = ijpeg_oo(8, 1);
        let c = runner::run_cured(&w, &InferOptions::original_ccured()).expect("cure");
        let counts = c.cured.report.kind_counts;
        assert!(
            counts.wild * 100 / counts.total().max(1) >= 30,
            "original CCured drowns ijpeg in WILD pointers: {counts:?}"
        );
        // The program still runs correctly through WILD pointers.
        assert!(c.stats.ok(), "{:?}", c.stats.error);
        assert!(c.stats.counters.checks[CheckKind::WildBounds] > 0);
    }
}
