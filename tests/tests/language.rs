//! C-semantics corpus: tricky-but-legal programs must behave identically in
//! original and cured modes (differential testing of the whole pipeline).

use ccured::Curer;
use ccured_integration::{run_cured, run_original};
use ccured_rt::{ExecMode, Interp, RtError};

fn equivalent(src: &str, expect: i64) {
    let (ro, oo) = run_original(src);
    let (rc, oc) = run_cured(src);
    assert_eq!(ro.as_ref().expect("original"), &expect, "original exit");
    assert_eq!(rc.as_ref().expect("cured"), &expect, "cured exit");
    assert_eq!(oo, oc, "outputs differ");
}

#[test]
fn integer_truncation_and_promotion() {
    equivalent(
        r#"int main(void) {
            char c = (char)300;           /* 44 */
            unsigned char u = (unsigned char)-1; /* 255 */
            short s = (short)70000;       /* 4464 */
            return (c == 44) + 2 * (u == 255) + 4 * (s == 4464);
        }"#,
        7,
    );
}

#[test]
fn unsigned_division_and_shifts() {
    equivalent(
        r#"int main(void) {
            unsigned int a = 0xFFFFFFF0u;
            unsigned int b = a / 16;      /* logical, not arithmetic */
            unsigned int c = a >> 4;
            return (b == 0x0FFFFFFFu) + 2 * (c == 0x0FFFFFFFu);
        }"#,
        3,
    );
}

#[test]
fn ternary_chains_and_comma() {
    equivalent(
        r#"int main(void) {
            int x = 5;
            int y = x > 3 ? x > 4 ? 2 : 1 : 0;
            int z = (x++, x--, x + y);
            return z;
        }"#,
        7,
    );
}

#[test]
fn short_circuit_side_effects() {
    equivalent(
        r#"int hits;
        int bump(void) { hits++; return 1; }
        int main(void) {
            hits = 0;
            int a = 0 && bump();
            int b = 1 || bump();
            int c = 1 && bump();
            int d = 0 || bump();
            return hits * 10 + (a + b + c + d);
        }"#,
        23,
    );
}

#[test]
fn do_while_with_continue() {
    equivalent(
        r#"int main(void) {
            int i = 0;
            int s = 0;
            do {
                i++;
                if (i % 2 == 0) continue;
                s += i;
            } while (i < 9);
            return s; /* 1+3+5+7+9 */
        }"#,
        25,
    );
}

#[test]
fn switch_default_first_and_negative() {
    equivalent(
        r#"int classify(int x) {
            switch (x) {
                default: return 9;
                case -1: return 1;
                case 0: return 2;
            }
        }
        int main(void) { return classify(-1) * 100 + classify(0) * 10 + classify(7); }"#,
        129,
    );
}

#[test]
fn nested_breaks_target_innermost() {
    equivalent(
        r#"int main(void) {
            int count = 0;
            for (int i = 0; i < 3; i++) {
                for (int j = 0; j < 10; j++) {
                    if (j == 2) break;
                    count++;
                }
            }
            return count;
        }"#,
        6,
    );
}

#[test]
fn break_inside_switch_inside_loop() {
    equivalent(
        r#"int main(void) {
            int s = 0;
            for (int i = 0; i < 5; i++) {
                switch (i) {
                    case 2: break;     /* exits the switch, not the loop */
                    default: s += i;
                }
            }
            return s; /* 0+1+3+4 */
        }"#,
        8,
    );
}

#[test]
fn multidimensional_array_emulation() {
    equivalent(
        r#"int main(void) {
            int grid[12];
            for (int r = 0; r < 3; r++)
                for (int c = 0; c < 4; c++)
                    grid[r * 4 + c] = r * 10 + c;
            return grid[2 * 4 + 3];
        }"#,
        23,
    );
}

#[test]
fn struct_in_struct_access() {
    equivalent(
        r#"struct Inner { int a; int b; };
        struct Outer { int tag; struct Inner in; };
        int main(void) {
            struct Outer o;
            o.tag = 1;
            o.in.a = 10;
            o.in.b = 20;
            struct Inner copy;
            copy = o.in;
            copy.a = 99;
            return o.in.a + copy.b;
        }"#,
        30,
    );
}

#[test]
fn array_of_structs_walk() {
    equivalent(
        r#"struct P { int x; int y; };
        int main(void) {
            struct P ps[4];
            for (int i = 0; i < 4; i++) { ps[i].x = i; ps[i].y = i * i; }
            struct P *p = ps;
            int s = 0;
            for (int i = 0; i < 4; i++) { s += p->x + p->y; p++; }
            return s;
        }"#,
        20,
    );
}

#[test]
fn pointer_comparisons_and_difference() {
    equivalent(
        r#"int main(void) {
            int a[10];
            for (int i = 0; i < 10; i++) a[i] = i;
            int *lo = &a[2];
            int *hi = &a[7];
            int d = (int)(hi - lo);
            return (lo < hi) * 100 + d;
        }"#,
        105,
    );
}

#[test]
fn recursion_fibonacci() {
    equivalent(
        r#"int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
        int main(void) { return fib(12); }"#,
        144,
    );
}

#[test]
fn mutual_recursion_with_forward_declaration() {
    equivalent(
        r#"int is_odd(int n);
        int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
        int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
        int main(void) { return is_even(10) * 10 + is_odd(7); }"#,
        11,
    );
}

#[test]
fn function_pointer_in_struct_field() {
    equivalent(
        r#"struct Ops { int (*apply)(int); int bias; };
        int twice(int x) { return 2 * x; }
        int main(void) {
            struct Ops ops;
            ops.apply = twice;
            ops.bias = 3;
            return ops.apply(10) + ops.bias;
        }"#,
        23,
    );
}

#[test]
fn enums_as_switch_labels() {
    equivalent(
        r#"enum Op { ADD, SUB = 5, MUL };
        int eval(int op, int a, int b) {
            switch (op) {
                case ADD: return a + b;
                case SUB: return a - b;
                case MUL: return a * b;
                default: return -1;
            }
        }
        int main(void) { return eval(ADD, 3, 4) * 100 + eval(SUB, 9, 2) * 10 + eval(MUL, 2, 3); }"#,
        776,
    );
}

#[test]
fn global_initializer_shapes() {
    equivalent(
        r#"int table[5] = { 2, 4, 6 };
        struct Cfg { int a; int b; } cfg = { 7 };
        char banner[4] = "hi";
        int main(void) {
            return table[1] + table[3] + cfg.a + cfg.b + banner[1] + banner[3];
        }"#,
        4 + 7 + 'i' as i64,
    );
}

#[test]
fn sizeof_arithmetic() {
    equivalent(
        r#"struct S { char c; int i; };
        int main(void) {
            return (int)(sizeof(struct S) + sizeof(int) + sizeof(char) + sizeof(long));
        }"#,
        8 + 4 + 1 + 8,
    );
}

#[test]
fn string_literals_are_interned_readonly_data() {
    equivalent(
        r#"extern int printf(char *fmt, ...);
        int main(void) {
            char *a = "shared";
            char *b = "shared";
            printf("%s %s\n", a, b);
            return a == b ? 1 : 0; /* interning makes them identical */
        }"#,
        1,
    );
}

#[test]
fn goto_out_of_nested_loops() {
    equivalent(
        r#"int main(void) {
            int n = 0;
            for (int i = 0; i < 10; i++) {
                for (int j = 0; j < 10; j++) {
                    n++;
                    if (n == 13) goto done;
                }
            }
            done: return n;
        }"#,
        13,
    );
}

#[test]
fn goto_to_invisible_label_is_reported() {
    // A goto whose label lives in a sibling nested block cannot be resolved
    // by the structured interpreter; it must error, not silently return.
    let src = r#"int main(void) {
        goto inner;
        if (1) { inner: return 1; }
        return 0;
    }"#;
    let (r, _) = run_original(src);
    match r {
        Err(RtError::Unsupported(msg)) => assert!(msg.contains("inner")),
        other => panic!("expected unsupported-goto error, got {other:?}"),
    }
}

#[test]
fn void_pointer_roundtrip_through_container() {
    equivalent(
        r#"extern void *malloc(unsigned long n);
        struct Box { void *item; };
        struct Pay { int amount; int cents; };
        int main(void) {
            struct Pay *p = (struct Pay *)malloc(sizeof(struct Pay));
            p->amount = 40;
            p->cents = 2;
            struct Box b;
            b.item = (void *)p;               /* upcast into the container */
            struct Pay *q = (struct Pay *)b.item; /* checked downcast out */
            return q->amount + q->cents;
        }"#,
        42,
    );
}

#[test]
fn negative_modulo_truncates_toward_zero() {
    equivalent(
        r#"int main(void) {
            int a = -7 % 3;   /* -1 in C */
            int b = 7 % -3;   /* 1 in C */
            return (a == -1) + 2 * (b == 1);
        }"#,
        3,
    );
}

#[test]
fn char_comparisons_are_signed() {
    equivalent(
        r#"int main(void) {
            char c = (char)200; /* negative on this target */
            return c < 0 ? 1 : 0;
        }"#,
        1,
    );
}

#[test]
fn static_locals_persist_across_calls() {
    equivalent(
        r#"int counter(void) {
            static int count = 100;
            count++;
            return count;
        }
        int other(void) {
            static int count = 0; /* independent storage */
            count += 2;
            return count;
        }
        int main(void) {
            counter(); counter();
            other(); other(); other();
            return counter() * 10 + other(); /* 103*10 + 8 */
        }"#,
        1038,
    );
}

#[test]
fn static_local_arrays_are_zeroed_and_persist() {
    equivalent(
        r#"int record(int v) {
            static int seen[4];
            static int n;
            if (n < 4) { seen[n] = v; n++; }
            int s = 0;
            for (int i = 0; i < 4; i++) s += seen[i];
            return s;
        }
        int main(void) {
            record(1); record(2); record(3);
            return record(10); /* 1+2+3+10, later calls capped */
        }"#,
        16,
    );
}

#[test]
fn struct_by_value_arguments_are_copied() {
    equivalent(
        r#"struct P { int x; int y; };
        int consume(struct P p) {
            p.x = 999; /* mutates the copy only */
            return p.x + p.y;
        }
        int main(void) {
            struct P p;
            p.x = 1;
            p.y = 2;
            int r = consume(p);
            return r * 10 + p.x; /* 1001*10 + 1 */
        }"#,
        10011,
    );
}

#[test]
fn struct_return_by_value_is_rejected_cleanly() {
    let src = r#"struct P { int x; };
    struct P make(void) { struct P p; p.x = 1; return p; }
    int main(void) { return 0; }"#;
    let tu = ccured_ast::parse_translation_unit(src).unwrap();
    let e = ccured_cil::lower_translation_unit(&tu).unwrap_err();
    assert!(e.msg.contains("return a pointer"), "{}", e.msg);
}

#[test]
fn two_dimensional_arrays() {
    equivalent(
        r#"int main(void) {
            int grid[3][4];
            for (int r = 0; r < 3; r++)
                for (int c = 0; c < 4; c++)
                    grid[r][c] = r * 10 + c;
            int (*row)[4] = &grid[1];
            return grid[2][3] + (*row)[2];
        }"#,
        23 + 12,
    );
}

#[test]
fn union_type_punning_reads_raw_bits() {
    equivalent(
        r#"union Pun { unsigned int bits; float f; };
        int main(void) {
            union Pun p;
            p.f = 1.0;
            /* IEEE-754 single 1.0 = 0x3F800000 */
            return p.bits == 0x3F800000u ? 0 : 1;
        }"#,
        0,
    );
}

#[test]
fn out_of_bounds_2d_row_caught_when_cured() {
    // grid[1][7] stays inside the allocation (row overflow into the next
    // row): plain C reads the neighbour silently, cured catches it.
    let src = r#"int main(void) {
        int grid[3][4];
        for (int r = 0; r < 3; r++)
            for (int c = 0; c < 4; c++)
                grid[r][c] = r * 100 + c;
        int j = 7;
        return grid[1][j];
    }"#;
    let (ro, _) = run_original(src);
    assert_eq!(ro.unwrap(), 203, "plain C reads into row 2 silently");
    let (rc, _) = run_cured(src);
    assert!(
        rc.unwrap_err().is_check_failure(),
        "cured catches the row overflow"
    );
}

#[test]
fn postincrement_in_index_expression() {
    equivalent(
        r#"int main(void) {
            int a[4];
            int i = 0;
            a[i++] = 10;
            a[i++] = 20;
            a[i] = 30;
            return a[0] + a[1] + a[2] + i;
        }"#,
        62,
    );
}

/// A nesting shape: a whole program whose deepest construct sits `reps`
/// repetitions down, the levels one repetition opens, and the exit code.
struct Shape {
    name: &'static str,
    levels_per_rep: usize,
    program: fn(usize) -> String,
    exit: fn(usize) -> i64,
}

const SHAPES: [Shape; 8] = [
    Shape {
        name: "blocks",
        levels_per_rep: 1,
        program: |n| {
            format!(
                "int main(void) {{ int x = 0; {}x++;{} return x; }}",
                "{".repeat(n),
                "}".repeat(n)
            )
        },
        exit: |_| 1,
    },
    Shape {
        name: "else-if arms",
        levels_per_rep: 1,
        program: |n| {
            let arms: Vec<String> = (1..=n)
                .map(|k| format!("if (x == {k}) return {k};"))
                .collect();
            format!(
                "int main(void) {{ int x = {n}; {} return 0; }}",
                arms.join(" else ")
            )
        },
        exit: |n| n as i64,
    },
    Shape {
        name: "-( chains",
        levels_per_rep: 2,
        program: |n| {
            format!(
                "int main(void) {{ int x = 3; return {}x{}; }}",
                "-(".repeat(n),
                ")".repeat(n)
            )
        },
        exit: |n| if n % 2 == 0 { 3 } else { -3 },
    },
    Shape {
        name: "parentheses",
        levels_per_rep: 1,
        program: |n| {
            format!(
                "int main(void) {{ int x = 4; return {}x{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        },
        exit: |_| 4,
    },
    Shape {
        name: "a[ chains",
        levels_per_rep: 1,
        program: |n| {
            format!(
                "int a[1]; int main(void) {{ return {}0{}; }}",
                "a[".repeat(n),
                "]".repeat(n)
            )
        },
        exit: |_| 0,
    },
    Shape {
        name: "x = chains",
        levels_per_rep: 1,
        program: |n| {
            format!(
                "int main(void) {{ int x; {}5; return x; }}",
                "x = ".repeat(n)
            )
        },
        exit: |_| 5,
    },
    Shape {
        name: "-> chains",
        levels_per_rep: 1,
        program: |n| {
            format!(
                "struct S {{ struct S *n; int v; }};\n\
                 int main(void) {{ struct S s; struct S *p = &s; s.n = &s; s.v = 7;\n\
                 return p{}->v; }}",
                "->n".repeat(n)
            )
        },
        exit: |_| 7,
    },
    Shape {
        name: "[0] chains",
        levels_per_rep: 1,
        program: |n| {
            format!(
                "int a{}; int main(void) {{ return a{}; }}",
                "[1]".repeat(n),
                "[0]".repeat(n)
            )
        },
        exit: |_| 0,
    },
];

/// `f()()…`, `n` levels deep: a postfix chain's first operator opens no
/// level, so that is `n + 1` calls. No C type lets it run at the nesting
/// limit: each call peels a pointer and a function layer off the callee's
/// type, so 257 calls need a type 513 levels deep, past the type-depth
/// limit. The parser still has to bound it.
fn call_chain(n: usize) -> String {
    format!("int main(void) {{ return f{}; }}", "()".repeat(n + 1))
}

/// The stack the nesting checks run on. Optimized builds get the 2 MiB
/// default of spawned threads, a quarter of the 8 MiB or more that
/// `ccured batch` and `ccured serve` give each worker. Unoptimized builds
/// give every temporary its own stack slot: 256 nested blocks take about
/// 4.2 MiB there against 0.2 MiB optimized, so they get the workers' 8 MiB.
const NESTING_STACK: usize = if cfg!(debug_assertions) {
    8 << 20
} else {
    2 << 20
};

/// Runs `f` on a thread with [`NESTING_STACK`] bytes of stack.
fn on_nesting_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(NESTING_STACK)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("nesting check panicked");
}

fn assert_too_deep(what: &str, src: &str) {
    let err =
        ccured_ast::parse_translation_unit(src).expect_err(&format!("{what} must be rejected"));
    assert!(err.msg.contains("nesting too deep"), "{what}: {}", err.msg);
    assert!(
        err.msg
            .contains(&ccured_ast::parse::MAX_NESTING.to_string()),
        "{what}: the message names the limit: {}",
        err.msg
    );
}

#[test]
fn nesting_past_the_limit_is_a_diagnostic() {
    on_nesting_stack(|| {
        for s in &SHAPES {
            let limit = ccured_ast::parse::MAX_NESTING as usize / s.levels_per_rep;
            assert_too_deep(s.name, &(s.program)(limit + 1));
            assert_too_deep(s.name, &(s.program)(100_000));
        }
        let limit = ccured_ast::parse::MAX_NESTING as usize;
        assert_too_deep("call chains", &call_chain(limit + 1));
        assert_too_deep("call chains", &call_chain(100_000));
    });
}

#[test]
fn nesting_at_the_limit_cures_prints_and_runs_on_both_engines() {
    on_nesting_stack(|| {
        for s in SHAPES.iter().chain(&TYPE_SHAPES) {
            let n = ccured_ast::parse::MAX_NESTING as usize / s.levels_per_rep;
            let src = (s.program)(n);
            let cured = Curer::new()
                .cure_source(&src)
                .unwrap_or_else(|e| panic!("{}: cure failed: {e}", s.name));
            assert!(!ccured_cil::pretty::dump_program(&cured.program).is_empty());
            for engine in [ccured_rt::Engine::Tree, ccured_rt::Engine::Vm] {
                let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
                i.set_engine(engine);
                assert_eq!(i.run(), Ok((s.exit)(n)), "{} on {engine:?}", s.name);
            }
        }
        let limit = ccured_ast::parse::MAX_NESTING as usize;
        ccured_ast::parse_translation_unit(&call_chain(limit)).expect("call chains parse");
    });
}

/// Types nested by flat declarator parts or by typedef chains, which the
/// parser's nesting limit cannot see; lowering bounds their depth at the
/// same 256 levels. `levels_per_rep` counts type levels.
const TYPE_SHAPES: [Shape; 3] = [
    Shape {
        name: "pointer stars",
        levels_per_rep: 1,
        program: |n| format!("int {}p; int main(void) {{ return 0; }}", "*".repeat(n)),
        exit: |_| 0,
    },
    Shape {
        name: "pointer typedef chains",
        levels_per_rep: 1,
        program: |n| {
            let chain: String = (1..=n)
                .map(|k| format!("typedef t{} *t{k};\n", k - 1))
                .collect();
            format!("typedef int t0;\n{chain}t{n} p;\nint main(void) {{ return 0; }}")
        },
        exit: |_| 0,
    },
    Shape {
        name: "function-pointer typedef chains",
        levels_per_rep: 2,
        program: |n| {
            let chain: String = (1..n)
                .map(|k| format!("typedef void (*t{k})(t{});\n", k - 1))
                .collect();
            format!(
                "typedef void (*t0)(void);\n{chain}t{} p;\nint main(void) {{ return 0; }}",
                n - 1
            )
        },
        exit: |_| 0,
    },
];

#[test]
fn types_past_the_depth_limit_are_a_diagnostic() {
    on_nesting_stack(|| {
        let max = ccured_ast::parse::MAX_NESTING as usize;
        for s in &TYPE_SHAPES {
            for levels in [max + 1, 3000] {
                let reps = levels.div_ceil(s.levels_per_rep);
                let err = Curer::new()
                    .cure_source(&(s.program)(reps))
                    .expect_err(&format!("{} at {levels} levels must be rejected", s.name));
                assert!(
                    err.to_string()
                        .contains("type nested too deep: more than 256 levels"),
                    "{}: {err}",
                    s.name
                );
            }
        }
    });
}
