//! End-to-end integration tests spanning every crate: parse → lower →
//! infer → wrap → instrument → execute, checking observable equivalence
//! between original and cured runs and the safety outcomes the paper
//! promises.

use ccured::Curer;
use ccured_cil::ir::CheckKind;
use ccured_infer::InferOptions;
use ccured_integration::{run_cured, run_original};
use ccured_rt::{ExecMode, Interp, RtError};
use ccured_workloads::{apache, daemons, micro, olden, ptrdist, runner, spec};

/// A correct program behaves identically original vs cured.
fn assert_equivalent(src: &str) {
    let (ro, oo) = run_original(src);
    let (rc, oc) = run_cured(src);
    assert_eq!(ro.as_ref().ok(), rc.as_ref().ok(), "exit codes differ");
    assert!(ro.is_ok(), "original failed: {ro:?}");
    assert_eq!(oo, oc, "outputs differ");
}

#[test]
fn quicksort_equivalence() {
    assert_equivalent(
        r#"
extern int printf(char *fmt, ...);
void sort(int *a, int lo, int hi) {
    if (lo >= hi) return;
    int pivot = a[hi];
    int i = lo - 1;
    for (int j = lo; j < hi; j++) {
        if (a[j] < pivot) {
            i++;
            int t = a[i]; a[i] = a[j]; a[j] = t;
        }
    }
    int t = a[i + 1]; a[i + 1] = a[hi]; a[hi] = t;
    sort(a, lo, i);
    sort(a, i + 2, hi);
}
int main(void) {
    int v[10];
    for (int i = 0; i < 10; i++) v[i] = (i * 7 + 3) % 10;
    sort(v, 0, 9);
    for (int i = 0; i < 10; i++) printf("%d ", v[i]);
    printf("\n");
    for (int i = 0; i < 10; i++) if (v[i] != i) return 1;
    return 0;
}
"#,
    );
}

#[test]
fn linked_list_equivalence() {
    assert_equivalent(
        r#"
extern void *malloc(unsigned long n);
extern int printf(char *fmt, ...);
struct Node { int v; struct Node *next; };
int main(void) {
    struct Node *head = 0;
    for (int i = 0; i < 10; i++) {
        struct Node *n = (struct Node *)malloc(sizeof(struct Node));
        n->v = i;
        n->next = head;
        head = n;
    }
    int s = 0;
    for (struct Node *p = head; p != 0; p = p->next) s += p->v;
    printf("sum=%d\n", s);
    return s == 45 ? 0 : 1;
}
"#,
    );
}

#[test]
fn string_processing_equivalence() {
    let src = r#"
extern int printf(char *fmt, ...);
int main(void) {
    char buf[64];
    strcpy(buf, "the quick brown fox");
    int words = 1;
    for (unsigned long i = 0; i < strlen(buf); i++)
        if (buf[i] == ' ') words++;
    printf("%d words, %d chars\n", words, (int)strlen(buf));
    return words == 4 ? 0 : 1;
}
"#;
    // Wrapped version must also be equivalent.
    let cured = Curer::new()
        .with_stdlib_wrappers()
        .cure_source(src)
        .expect("cure");
    let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
    assert_eq!(i.run().unwrap(), 0);
    assert_eq!(String::from_utf8_lossy(i.output()), "4 words, 19 chars\n");
}

#[test]
fn function_pointer_table_equivalence() {
    assert_equivalent(
        r#"
extern int printf(char *fmt, ...);
int add(int a, int b) { return a + b; }
int sub(int a, int b) { return a - b; }
int mul(int a, int b) { return a * b; }
int main(void) {
    int (*ops[3])(int, int);
    ops[0] = add; ops[1] = sub; ops[2] = mul;
    int r = 0;
    for (int i = 0; i < 3; i++) r += ops[i](10, 3);
    printf("%d\n", r);
    return r == 13 + 7 + 30 ? 0 : 1;
}
"#,
    );
}

#[test]
fn whole_corpus_runs_equivalently() {
    let mut corpus = ccured_workloads::suite_corpus();
    corpus.extend(apache::all_modules(2));
    corpus.push(daemons::ftpd(2, false));
    corpus.push(daemons::sendmail_like(3, false));
    corpus.push(daemons::bind_like(3, 8));
    corpus.push(daemons::openssl_cast(4));
    corpus.push(daemons::openssl_bn(3));
    corpus.push(daemons::openssh_like(3, true));
    corpus.push(daemons::pcnet32(3));
    corpus.push(daemons::sbull(4));
    corpus.push(micro::safe_deref(10));
    corpus.push(micro::seq_index(5));
    corpus.push(micro::rtti_dispatch(5));
    for w in corpus {
        let o = runner::run_original(&w).expect("frontend");
        assert!(o.ok(), "{}: original failed: {:?}", w.name, o.error);
        let c = runner::run_cured(&w, &InferOptions::default())
            .unwrap_or_else(|e| panic!("{}: cure failed: {e}", w.name));
        assert!(
            c.stats.ok(),
            "{}: cured failed: {:?}",
            w.name,
            c.stats.error
        );
        assert_eq!(o.exit, c.stats.exit, "{}: exit codes differ", w.name);
        assert_eq!(o.output, c.stats.output, "{}: outputs differ", w.name);
    }
}

#[test]
fn corpus_runs_under_all_baselines() {
    for w in [spec::compress_like(1, 1), olden::treeadd(5), ptrdist::ks(8)] {
        for mode in [ExecMode::Purify, ExecMode::Valgrind, ExecMode::JonesKelly] {
            let r = runner::run_baseline(&w, mode).expect("frontend");
            assert!(r.ok(), "{}: baseline failed: {:?}", w.name, r.error);
            assert_eq!(r.exit, w.expect_exit, "{}", w.name);
        }
    }
}

#[test]
fn cured_overhead_is_bounded() {
    // CPU-bound workloads stay within the paper's overall envelope (< 2x).
    for w in ccured_workloads::suite_corpus() {
        let r = runner::measure(&w, &InferOptions::default()).expect("measure");
        assert!(
            r.ccured < 2.2,
            "{}: cured ratio {} exceeds the paper envelope",
            w.name,
            r.ccured
        );
        assert!(r.ccured >= 1.0, "{}: cured cannot be faster", w.name);
    }
}

#[test]
fn baselines_cost_an_order_of_magnitude_more() {
    for w in [spec::compress_like(2, 1), olden::em3d(16, 3, 4)] {
        let r = runner::measure(&w, &InferOptions::default()).expect("measure");
        assert!(
            r.purify > 4.0 * r.ccured,
            "{}: purify {} vs ccured {}",
            w.name,
            r.purify,
            r.ccured
        );
        assert!(
            r.valgrind > 4.0 * r.ccured,
            "{}: valgrind {} vs ccured {}",
            w.name,
            r.valgrind,
            r.ccured
        );
    }
}

#[test]
fn exploit_scenarios_are_prevented() {
    for w in [daemons::ftpd(3, true), daemons::sendmail_like(4, true)] {
        let c = runner::run_cured(&w, &InferOptions::default()).expect("cure");
        let e = c.stats.error.expect("cured must stop the exploit");
        assert!(e.is_check_failure(), "{}: {e}", w.name);
    }
}

#[test]
fn use_after_free_semantics_follow_the_collector() {
    let src = r#"
extern void *malloc(unsigned long n);
extern void free(void *p);
int main(void) {
    int *p = (int *)malloc(sizeof(int));
    *p = 1;
    free(p);
    return *p;
}
"#;
    let (ro, _) = run_original(src);
    assert_eq!(ro.unwrap_err(), RtError::UseAfterFree);
    // Cured programs run under CCured's conservative collector: `free` is a
    // no-op, so the dangling access is *defined* and reads the old value —
    // use-after-free is eliminated by construction.
    let (rc, _) = run_cured(src);
    assert_eq!(rc.unwrap(), 1, "GC keeps the object alive");
    // Opting out of the collector reintroduces the hole (which is exactly
    // why CCured ships with one).
    let cured = Curer::new().cure_source(src).expect("cure");
    let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
    i.set_gc_mode(false);
    assert!(i.run().is_err());
}

#[test]
fn annotations_survive_the_whole_pipeline() {
    let cured = Curer::new()
        .cure_source("int f(int * __SEQ p, int n) { return p[n]; } int main(void) { int a[3]; a[0]=1;a[1]=2;a[2]=3; return f(a, 2) == 3 ? 0 : 1; }")
        .expect("cure");
    assert!(cured.report.annotation_violations.is_empty());
    let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
    assert_eq!(i.run().unwrap(), 0);
}

#[test]
fn trusted_interface_functions_skip_checks_end_to_end() {
    // The interior overflow is caught when the code is cured normally...
    let body = r#"
struct S { char buf[4]; int sentinel; };
int poke(struct S *s, int i) {
    s->buf[i] = 42;
    return s->sentinel;
}
int main(void) {
    struct S s;
    s.sentinel = 7;
    return poke(&s, 5);
}
"#;
    let (r, _) = run_cured(body);
    assert!(r.unwrap_err().is_check_failure());
    // ...but a trusted-interface function is exempt (the paper's kernel
    // macros): the overflow proceeds exactly as in plain C.
    let trusted = format!(
        "#pragma ccured_trusted(poke)
{body}"
    );
    let (r, _) = run_cured(&trusted);
    let v = r.expect("trusted function runs unchecked");
    assert_ne!(v, 7, "the overflow silently corrupted the sentinel");
}

#[test]
fn custom_allocator_with_trusted_cast_runs_cured() {
    // The paper's canonical trusted-cast use: a custom allocator carving
    // typed objects out of a character arena.
    assert_equivalent(
        r#"char arena[128];
        int arena_used;
        char *arena_alloc(int n) {
            char *p = arena + arena_used;
            arena_used += n;
            return p;
        }
        struct Pair { int a; int b; };
        int main(void) {
            arena_used = 0;
            struct Pair *x = (struct Pair * __TRUSTED)arena_alloc(8);
            struct Pair *y = (struct Pair * __TRUSTED)arena_alloc(8);
            x->a = 1; x->b = 2;
            y->a = 10; y->b = 20;
            return x->a + x->b + y->a + y->b;
        }"#,
    );
}

#[test]
fn review_surface_lists_trusted_and_bad_casts() {
    let src = r#"struct Obj { int a; long b; };
    char arena[64];
    int main(void) {
        struct Obj *o = (struct Obj * __TRUSTED)arena;
        o->a = 1;
        double *bad = (double *)&o->a;
        return o->a + (bad != 0);
    }"#;
    let cured = Curer::new().cure_source(src).expect("cure");
    let map = ccured_ast::SourceMap::new("t.c", src);
    let surface = cured.review_surface(&map);
    assert_eq!(surface.len(), 2, "{surface:?}");
    assert!(surface.iter().any(|l| l.contains("trusted cast")));
    assert!(surface.iter().any(|l| l.contains("BAD cast")));
    // Every line carries a position.
    assert!(surface.iter().all(|l| l.starts_with("t.c:")));
}

#[test]
fn original_ccured_mode_still_runs_correctly() {
    // WILD pointers are slower but must preserve behaviour.
    let w = spec::ijpeg_oo(10, 2);
    let old = runner::run_cured(&w, &InferOptions::original_ccured()).expect("cure");
    assert!(old.stats.ok(), "{:?}", old.stats.error);
    assert_eq!(old.stats.exit, 0);
    assert!(old.stats.counters.checks[CheckKind::WildBounds] > 0);
}
