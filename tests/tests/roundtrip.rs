//! Printer/parser round-trip: for every corpus program and every
//! `examples/c` file, `pretty(parse(src))` must be a *fixpoint* —
//! re-parsing and re-printing it reproduces the same text. Printing is a
//! total function of the AST, so a pretty-print fixpoint is exactly
//! structural equality of `parse(src)` and `parse(pretty(parse(src)))`
//! up to spans (which textual comparison deliberately ignores — spans
//! change when the text is re-laid-out, structure must not).

use ccured_ast::parse_translation_unit;
use ccured_ast::pretty::print_unit;
use ccured_workloads::prng::SplitMix64;

/// Asserts the round trip for one source, returning the printed form.
fn roundtrip(name: &str, source: &str) -> String {
    let first = parse_translation_unit(source)
        .unwrap_or_else(|d| panic!("{name}: original source fails to parse: {}", d.msg));
    let printed = print_unit(&first);
    let second = parse_translation_unit(&printed)
        .unwrap_or_else(|d| panic!("{name}: pretty-printed output fails to parse: {}", d.msg));
    let reprinted = print_unit(&second);
    if printed != reprinted {
        let diverge = printed
            .lines()
            .zip(reprinted.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b);
        let detail = match diverge {
            Some((i, (a, b))) => format!("line {}:\n  first:  {a}\n  second: {b}", i + 1),
            None => format!(
                "line counts differ: {} vs {}",
                printed.lines().count(),
                reprinted.lines().count()
            ),
        };
        panic!(
            "{name}: parse(pretty(parse(src))) is not structurally equal to parse(src); {detail}"
        );
    }
    printed
}

#[test]
fn batch_corpus_round_trips() {
    for w in ccured_workloads::batch_corpus() {
        roundtrip(&w.name, &w.source);
    }
}

#[test]
fn apache_modules_round_trip() {
    for w in ccured_workloads::apache::all_modules(4) {
        roundtrip(&w.name, &w.source);
    }
}

#[test]
fn figure9_daemons_round_trip() {
    for w in ccured_workloads::daemons::figure9_corpus() {
        roundtrip(&w.name, &w.source);
    }
}

#[test]
fn examples_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/c");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/c exists") {
        let p = entry.expect("dir entry").path();
        if p.extension().is_some_and(|x| x == "c") {
            let src = std::fs::read_to_string(&p).expect("read example");
            roundtrip(&p.display().to_string(), &src);
            seen += 1;
        }
    }
    assert!(seen >= 6, "expected at least 6 examples, saw {seen}");
}

#[test]
fn printing_is_idempotent_on_wrapper_prelude() {
    // The stdlib wrapper prelude is itself subset C; it must survive the
    // same round trip the user programs do.
    let w = ccured_workloads::micro::safe_deref(4);
    let printed = roundtrip("micro_safe", &w.source);
    assert!(!printed.is_empty());
}

/// Frontend robustness under byte mutation: 40 seeded single-byte ASCII
/// edits (delete, insert or replace) of every batch-corpus source. Parsing
/// each mutant, and lowering it when it parses, must return, never panic.
#[test]
fn byte_mutants_never_panic_the_frontend() {
    let mut rng = SplitMix64::new(0x6d75_7461_6e74);
    for w in ccured_workloads::batch_corpus() {
        for _ in 0..40 {
            let mut bytes = w.source.clone().into_bytes();
            let at = rng.below(bytes.len() as u64) as usize;
            let byte = rng.below(128) as u8;
            let edit = match rng.below(3) {
                0 => {
                    bytes.remove(at);
                    "delete"
                }
                1 => {
                    bytes.insert(at, byte);
                    "insert"
                }
                _ => {
                    bytes[at] = byte;
                    "replace"
                }
            };
            let src = String::from_utf8(bytes).expect("an ASCII edit of an ASCII source");
            let outcome = std::panic::catch_unwind(|| {
                if let Ok(tu) = parse_translation_unit(&src) {
                    let _ = ccured_cil::lower_translation_unit(&tu);
                }
            });
            assert!(
                outcome.is_ok(),
                "{}: the frontend panicked after {edit} of byte {byte:#04x} at offset {at}",
                w.name
            );
        }
    }
}
