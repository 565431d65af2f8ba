//! The paper's core soundness claim, property-tested: a cured program
//! never exhibits an *undetected* memory error. For randomly generated
//! programs with injected faults, the cured run either matches the
//! original's observable behaviour or stops with a CCured check failure —
//! never a raw (undefined-behaviour-class) memory error.

use ccured::Curer;
use ccured_integration::{run_cured, run_original};
use ccured_rt::{ExecMode, Interp};
use proptest::prelude::*;

/// The soundness invariant for one program.
fn check_soundness(src: &str) {
    let (ro, oo) = run_original(src);
    let (rc, oc) = run_cured(src);
    match (&ro, &rc) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a, b, "exit codes diverge:\n{src}");
            assert_eq!(oo, oc, "outputs diverge:\n{src}");
        }
        // Whatever the original did (clean or UB), the cured run may stop
        // with a *check* failure — but never an undetected memory error.
        (_, Err(e)) => {
            assert!(
                e.is_check_failure(),
                "cured run died of a raw memory error ({e}) instead of a check:\n{src}"
            );
        }
        (Err(e), Ok(exit)) => {
            // The original faulted but the cured run survived: only possible
            // when the fault was masked by instrumentation, which must not
            // happen for in-bounds-diverging programs.
            panic!("original faulted ({e}) but cured exited {exit}:\n{src}");
        }
    }
}

/// Generates an array-walk program. `len` is the array size; `limit` is the
/// loop bound (faulty when > len); `stride` exercises pointer arithmetic.
fn array_walk(len: u32, limit: u32, stride: u32, via_ptr: bool) -> String {
    let body = if via_ptr {
        format!(
            "int *p = a;\n\
             for (int i = 0; i < {limit}; i++) {{ s += *p; p = p + {stride}; }}"
        )
    } else {
        format!("for (int i = 0; i < {limit}; i++) s += a[i * {stride}];")
    };
    format!(
        "int main(void) {{\n\
           int a[{len}];\n\
           for (int i = 0; i < {len}; i++) a[i] = i;\n\
           int s = 0;\n\
           {body}\n\
           return s & 0x7f;\n\
         }}"
    )
}

/// Generates a struct-field overflow program: writes `writes` bytes into a
/// `buf_len`-byte field adjacent to a sentinel.
fn field_overflow(buf_len: u32, writes: u32) -> String {
    format!(
        "struct S {{ char buf[{buf_len}]; int sentinel; }};\n\
         int main(void) {{\n\
           struct S s;\n\
           s.sentinel = 7;\n\
           for (int i = 0; i < {writes}; i++) s.buf[i] = 65;\n\
           return s.sentinel;\n\
         }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn array_walks_are_sound(
        len in 1u32..12,
        extra in 0u32..6,
        stride in 1u32..3,
        via_ptr in any::<bool>(),
    ) {
        // limit may exceed len (fault injection) or not (equivalence).
        let limit = len / stride.max(1) + extra;
        let src = array_walk(len, limit, stride, via_ptr);
        check_soundness(&src);
    }

    #[test]
    fn field_overflows_are_sound(buf_len in 1u32..8, writes in 0u32..16) {
        let src = field_overflow(buf_len, writes);
        check_soundness(&src);
        // And specifically: if the write count exceeds the buffer, the cured
        // run must detect it.
        if writes > buf_len {
            let (rc, _) = run_cured(&src);
            prop_assert!(rc.is_err(), "overflow must be caught");
        }
    }

    #[test]
    fn downcast_fuzzing_is_sound(
        mk_kind in 0u32..3,
        ask_kind in 0u32..3,
    ) {
        // Allocate one of three hierarchy members, then downcast to another:
        // legal when ask <= mk, otherwise the RTTI check must fire.
        let src = format!(
            "extern void *malloc(unsigned long n);\n\
             struct T0 {{ long a; }};\n\
             struct T1 {{ long a; long b; }};\n\
             struct T2 {{ long a; long b; long c; }};\n\
             struct T0 *make(int k) {{\n\
               if (k == 0) {{ struct T0 *t = (struct T0 *)malloc(sizeof(struct T0)); t->a = 1; return t; }}\n\
               if (k == 1) {{ struct T1 *t = (struct T1 *)malloc(sizeof(struct T1)); t->a = 1; t->b = 2; return (struct T0 *)t; }}\n\
               struct T2 *t = (struct T2 *)malloc(sizeof(struct T2)); t->a = 1; t->b = 2; t->c = 3; return (struct T0 *)t;\n\
             }}\n\
             int main(void) {{\n\
               struct T0 *p = make({mk_kind});\n\
               long v;\n\
               if ({ask_kind} == 0) v = p->a;\n\
               else if ({ask_kind} == 1) {{ struct T1 *q = (struct T1 *)p; v = q->b; }}\n\
               else {{ struct T2 *q = (struct T2 *)p; v = q->c; }}\n\
               return (int)v;\n\
             }}"
        );
        let (rc, _) = run_cured(&src);
        if ask_kind <= mk_kind {
            prop_assert!(rc.is_ok(), "legal downcast must succeed: {rc:?}");
        } else {
            // Illegal downcast: the RTTI check fires.
            match rc {
                Err(e) => prop_assert!(e.is_check_failure(), "wrong failure: {e}"),
                Ok(_) => prop_assert!(false, "illegal downcast must be caught"),
            }
        }
    }

    #[test]
    fn arithmetic_programs_are_deterministic(
        seed in 0u32..1000,
        iters in 1u32..20,
    ) {
        // Pure arithmetic: original and cured must agree exactly.
        let src = format!(
            "int main(void) {{\n\
               unsigned int x = {seed};\n\
               int acc = 0;\n\
               for (int i = 0; i < {iters}; i++) {{\n\
                 x = x * 1103515245u + 12345u;\n\
                 acc = (acc + (int)(x >> 16)) & 0xff;\n\
               }}\n\
               return acc & 0x3f;\n\
             }}"
        );
        let (ro, _) = run_original(&src);
        let (rc, _) = run_cured(&src);
        prop_assert_eq!(ro.unwrap(), rc.unwrap());
    }

    #[test]
    fn string_ops_are_sound(len in 0usize..40, cap in 1u32..32) {
        // strcpy of a `len`-byte string into a `cap`-byte buffer via the
        // wrappers: fits -> equivalent; overflows -> caught.
        let payload = "x".repeat(len);
        let src = format!(
            "int main(void) {{\n\
               char buf[{cap}];\n\
               strcpy(buf, \"{payload}\");\n\
               return (int)strlen(buf) & 0x7f;\n\
             }}"
        );
        let cured = Curer::new()
            .with_stdlib_wrappers()
            .cure_source(&src)
            .expect("cure");
        let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
        let rc = i.run();
        if (len as u32) < cap {
            prop_assert_eq!(rc.unwrap(), (len as i64) & 0x7f);
        } else {
            let e = rc.unwrap_err();
            prop_assert!(e.is_check_failure(), "overflowing strcpy: {e}");
        }
    }
}
