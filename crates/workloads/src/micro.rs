//! Pointer-kind microbenchmarks: each exercises exactly one CCured pointer
//! representation, for the ablation benches and calibration checks.

use crate::Workload;

/// A loop of SAFE dereferences (null checks only).
pub fn safe_deref(iters: u32) -> Workload {
    let src = format!(
        "int cell;\n\
         int read_it(int *p) {{ return *p; }}\n\
         int main(void) {{\n\
           int s = 0;\n\
           cell = 3;\n\
           for (int i = 0; i < {iters}; i++) s += read_it(&cell);\n\
           return s == 3 * {iters} ? 0 : 1;\n\
         }}"
    );
    Workload::new("micro_safe", src).without_wrappers()
}

/// A loop of SEQ indexing (bounds checks on fat pointers).
pub fn seq_index(iters: u32) -> Workload {
    let src = format!(
        "int sum(int *a, int n) {{\n\
           int s = 0;\n\
           for (int i = 0; i < n; i++) s += a[i];\n\
           return s;\n\
         }}\n\
         int main(void) {{\n\
           int buf[64];\n\
           for (int i = 0; i < 64; i++) buf[i] = 1;\n\
           int s = 0;\n\
           for (int r = 0; r < {iters}; r++) s += sum(buf, 64);\n\
           return s == 64 * {iters} ? 0 : 1;\n\
         }}"
    );
    Workload::new("micro_seq", src).without_wrappers()
}

/// A loop over WILD pointers (a bad cast forces WILD; every access pays
/// bounds + tag work).
pub fn wild_loop(iters: u32) -> Workload {
    let src = format!(
        "int main(void) {{\n\
           double d[32];\n\
           for (int i = 0; i < 32; i++) d[i] = 1.0;\n\
           /* Bad cast: treat the double array as longs (same word width,\n\
              different atoms) -> WILD pointers. */\n\
           long *w = (long *)d;\n\
           long s = 0;\n\
           for (int r = 0; r < {iters}; r++)\n\
             for (int i = 0; i < 32; i++)\n\
               s += w[i] != 0 ? 1 : 0;\n\
           return s == 32 * {iters} ? 0 : 1;\n\
         }}"
    );
    Workload::new("micro_wild", src).without_wrappers()
}

/// A loop of checked downcasts (RTTI subtype tests).
pub fn rtti_dispatch(iters: u32) -> Workload {
    let src = format!(
        "struct Shape {{ int kind; int pad; }};\n\
         struct Circle {{ int kind; int pad; int radius; }};\n\
         struct Square {{ int kind; int pad; int side; int area; }};\n\
         int measure(struct Shape *s) {{\n\
           if (s->kind == 1) {{\n\
             struct Circle *c = (struct Circle *)s;\n\
             return c->radius;\n\
           }}\n\
           struct Square *q = (struct Square *)s;\n\
           return q->side;\n\
         }}\n\
         int main(void) {{\n\
           struct Circle c; c.kind = 1; c.pad = 0; c.radius = 2;\n\
           struct Square q; q.kind = 2; q.pad = 0; q.side = 3; q.area = 9;\n\
           int s = 0;\n\
           for (int i = 0; i < {iters}; i++) {{\n\
             s += measure((struct Shape *)&c);\n\
             s += measure((struct Shape *)&q);\n\
           }}\n\
           return s == 5 * {iters} ? 0 : 1;\n\
         }}"
    );
    Workload::new("micro_rtti", src).without_wrappers()
}

/// Heavy pointer-store traffic (the worst case for SPLIT metadata upkeep
/// and for the Jones–Kelly registry).
pub fn ptr_store(iters: u32) -> Workload {
    let src = format!(
        "extern void *malloc(unsigned long n);\n\
         int main(void) {{\n\
           int **slots = (int **)malloc(32 * sizeof(int *));\n\
           int *cell = (int *)malloc(sizeof(int));\n\
           *cell = 5;\n\
           long s = 0;\n\
           for (int r = 0; r < {iters}; r++) {{\n\
             for (int i = 0; i < 32; i++) slots[i] = cell;\n\
             for (int i = 0; i < 32; i++) s += *slots[i];\n\
           }}\n\
           return s == 5 * 32 * {iters} ? 0 : 1;\n\
         }}"
    );
    Workload::new("micro_ptr_store", src).without_wrappers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner;
    use ccured_cil::ir::CheckKind;
    use ccured_infer::InferOptions;

    fn check(w: &Workload) {
        let orig = runner::run_original(w).expect("frontend");
        assert!(orig.ok(), "{}: original failed: {:?}", w.name, orig.error);
        assert_eq!(orig.exit, w.expect_exit, "{}", w.name);
        let cured = runner::run_cured(w, &InferOptions::default()).expect("cure");
        assert!(
            cured.stats.ok(),
            "{}: cured failed: {:?}",
            w.name,
            cured.stats.error
        );
        assert_eq!(cured.stats.exit, w.expect_exit, "{}", w.name);
        assert_eq!(
            orig.output, cured.stats.output,
            "{}: outputs differ",
            w.name
        );
    }

    #[test]
    fn safe_deref_runs() {
        check(&safe_deref(50));
    }

    #[test]
    fn seq_index_runs() {
        check(&seq_index(20));
    }

    #[test]
    fn wild_loop_runs() {
        let w = wild_loop(10);
        check(&w);
        // The point of the benchmark: it must actually contain WILD quals.
        let cured = runner::run_cured(&w, &InferOptions::default()).unwrap();
        assert!(cured.cured.report.kind_counts.wild > 0);
        assert!(cured.stats.counters.checks[CheckKind::WildBounds] > 0);
    }

    #[test]
    fn rtti_dispatch_runs() {
        let w = rtti_dispatch(10);
        check(&w);
        let cured = runner::run_cured(&w, &InferOptions::default()).unwrap();
        assert!(
            cured.cured.report.kind_counts.rtti > 0,
            "must use RTTI pointers"
        );
        assert!(cured.stats.counters.checks[CheckKind::Rtti] > 0);
        assert_eq!(cured.cured.report.kind_counts.wild, 0);
    }

    #[test]
    fn ptr_store_runs() {
        check(&ptr_store(10));
    }
}
