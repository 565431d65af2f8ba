//! Behavioural tests for the stdlib wrapper library (paper Section 4.1):
//! each wrapped function is exercised through a cured program, including
//! the bounds failures the wrappers exist to catch.

use ccured::Curer;
use ccured_rt::{ExecMode, Interp, RtError};

fn run(src: &str) -> Result<i64, RtError> {
    let cured = Curer::new()
        .with_stdlib_wrappers()
        .cure_source(src)
        .expect("cure");
    let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
    i.run()
}

fn run_expect(src: &str, expect: i64) {
    assert_eq!(run(src).expect("run"), expect);
}

fn run_expect_check_failure(src: &str) {
    let e = run(src).expect_err("must be caught");
    assert!(e.is_check_failure(), "expected a check failure, got {e}");
}

#[test]
fn strlen_and_strcpy() {
    run_expect(
        r#"int main(void) {
            char b[32];
            strcpy(b, "twelve chars");
            return (int)strlen(b);
        }"#,
        12,
    );
}

#[test]
fn strchr_and_strrchr() {
    run_expect(
        r#"int main(void) {
            char b[16];
            strcpy(b, "a/b/c");
            char *first = strchr(b, '/');
            char *last = strrchr(b, '/');
            if (first == 0 || last == 0) return 100;
            return (int)(last - first);
        }"#,
        2,
    );
}

#[test]
fn strstr_finds_and_returns_fat_pointer() {
    run_expect(
        r#"int main(void) {
            char b[32];
            strcpy(b, "GET /index.html");
            char *hit = strstr(b, "index");
            if (hit == 0) return 100;
            /* The wrapper rebuilt bounds from the haystack: writing through
               the result within the buffer is legal. */
            hit[0] = 'I';
            return b[5] == 'I' ? 0 : 1;
        }"#,
        0,
    );
}

#[test]
fn strstr_miss_returns_null() {
    run_expect(
        r#"int main(void) {
            char b[16];
            strcpy(b, "abc");
            return strstr(b, "zq") == 0 ? 0 : 1;
        }"#,
        0,
    );
}

#[test]
fn strncat_within_bounds() {
    run_expect(
        r#"int main(void) {
            char b[16];
            strcpy(b, "ab");
            strncat(b, "cdefgh", 3);
            return (int)strlen(b);
        }"#,
        5,
    );
}

#[test]
fn strncat_overflow_caught() {
    run_expect_check_failure(
        r#"int main(void) {
            char b[8];
            strcpy(b, "abcdef");
            strncat(b, "ghijklmn", 8);
            return 0;
        }"#,
    );
}

#[test]
fn memchr_within_explicit_length() {
    run_expect(
        r#"int main(void) {
            char b[8];
            for (int i = 0; i < 8; i++) b[i] = (char)(i + 1);
            char *hit = memchr(b, 5, 8);
            if (hit == 0) return 100;
            return (int)(hit - b);
        }"#,
        4,
    );
}

#[test]
fn memchr_bad_length_caught() {
    run_expect_check_failure(
        r#"int main(void) {
            char b[8];
            b[0] = 1;
            memchr(b, 9, 32);
            return 0;
        }"#,
    );
}

#[test]
fn strdup_result_is_writable_and_bounded() {
    run_expect(
        r#"int main(void) {
            char b[8];
            strcpy(b, "dup");
            char *d = strdup(b);
            d[0] = 'D';
            int ok = strcmp(d, "Dup") == 0 && strcmp(b, "dup") == 0;
            return ok ? 0 : 1;
        }"#,
        0,
    );
}

#[test]
fn strdup_overflow_caught() {
    run_expect_check_failure(
        r#"int main(void) {
            char b[8];
            strcpy(b, "dup");
            char *d = strdup(b);
            /* the duplicate is exactly 4 bytes */
            d[10] = 'x';
            return 0;
        }"#,
    );
}

#[test]
fn ctype_helpers_direct() {
    run_expect(
        r#"extern int isdigit(int c);
        extern int isalpha(int c);
        extern int toupper(int c);
        extern int tolower(int c);
        int main(void) {
            int score = 0;
            if (isdigit('7')) score += 1;
            if (!isdigit('x')) score += 2;
            if (isalpha('x')) score += 4;
            if (toupper('a') == 'A') score += 8;
            if (tolower('Z') == 'z') score += 16;
            return score;
        }"#,
        31,
    );
}

#[test]
fn strcmp_family() {
    run_expect(
        r#"int main(void) {
            char a[8];
            char b[8];
            strcpy(a, "abc");
            strcpy(b, "abd");
            int r = 0;
            if (strcmp(a, b) < 0) r += 1;
            if (strncmp(a, b, 2) == 0) r += 2;
            if (strcmp(a, a) == 0) r += 4;
            return r;
        }"#,
        7,
    );
}

#[test]
fn memcpy_and_memset_roundtrip() {
    run_expect(
        r#"int main(void) {
            char src[8];
            char dst[8];
            memset(src, 7, 8);
            memcpy(dst, src, 8);
            int s = 0;
            for (int i = 0; i < 8; i++) s += dst[i];
            return s;
        }"#,
        56,
    );
}

#[test]
fn memcpy_overflow_caught() {
    run_expect_check_failure(
        r#"int main(void) {
            char src[16];
            char dst[8];
            memset(src, 1, 16);
            memcpy(dst, src, 16);
            return 0;
        }"#,
    );
}

#[test]
fn wrapped_calls_preserve_original_behaviour() {
    // The same program uncured must produce the same result (wrappers are
    // transparent when nothing overflows).
    let src = r#"int main(void) {
        char b[24];
        strcpy(b, "hello");
        strcat(b, " world");
        char *w = strstr(b, "world");
        return w != 0 ? (int)strlen(b) : 100;
    }"#;
    let prog = Curer::new()
        .with_stdlib_wrappers()
        .lower_source(src)
        .unwrap();
    let mut orig = Interp::new(&prog, ExecMode::Original);
    assert_eq!(orig.run().unwrap(), 11);
    assert_eq!(run(src).unwrap(), 11);
}
