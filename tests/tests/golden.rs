//! Golden-file snapshots of the pretty-printers: every `examples/c`
//! program is parsed and cured, and the AST printer's and the cured CIL
//! printer's output must match the checked-in `tests/golden/<name>.golden`
//! byte for byte (after trailing-whitespace normalization).
//!
//! `tests/golden/cured_digests.txt` pins the cured text of the workload
//! corpora byte for byte: one FNV-1a digest of `dump_program` per program,
//! the same text the cure cache stores and the benchmark digests hash.
//!
//! To regenerate intentionally after a printer change:
//!
//! ```text
//! make bless            # = BLESS=1 cargo test -p ccured-integration --test golden
//! ```

use ccured_workloads::{apache, daemons, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

fn examples_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/c")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

fn blessing() -> bool {
    std::env::var_os("BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Strips trailing whitespace per line and normalizes to one trailing
/// newline, so editor/platform noise can never fail a snapshot.
fn normalize(s: &str) -> String {
    let mut out: String = s
        .lines()
        .map(|l| l.trim_end())
        .collect::<Vec<_>>()
        .join("\n");
    while out.ends_with('\n') {
        out.pop();
    }
    out.push('\n');
    out
}

/// The snapshot for one example: the parsed AST pretty-printed, then the
/// cured program dumped, under labelled section headers.
fn snapshot(source: &str) -> String {
    let tu = ccured_ast::parse_translation_unit(source)
        .unwrap_or_else(|d| panic!("parse failed: {}", d.msg));
    let curer = ccured::Curer::new();
    let cured = curer.cure_source(source).expect("cure failed");
    format!(
        "== ast ==\n{}\n== cured ==\n{}",
        ccured_ast::pretty::print_unit(&tu),
        ccured_cil::pretty::dump_program(&cured.program)
    )
}

#[test]
fn golden_snapshots_match() {
    let mut examples: Vec<PathBuf> = std::fs::read_dir(examples_dir())
        .expect("examples/c exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    examples.sort();
    assert!(
        examples.len() >= 6,
        "expected at least 6 example programs, found {}",
        examples.len()
    );

    let mut stale = Vec::new();
    for example in &examples {
        let name = example.file_stem().unwrap().to_string_lossy().to_string();
        let source = std::fs::read_to_string(example).expect("read example");
        let got = normalize(&snapshot(&source));
        let golden_path = golden_dir().join(format!("{name}.golden"));
        if blessing() {
            std::fs::create_dir_all(golden_dir()).expect("create golden dir");
            std::fs::write(&golden_path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run `make bless`",
                golden_path.display()
            )
        });
        if normalize(&want) != got {
            // Show the first diverging line to make drift debuggable.
            let want_n = normalize(&want);
            let diverge = want_n
                .lines()
                .zip(got.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| want_n.lines().count().min(got.lines().count()));
            stale.push(format!("{name} (first difference at line {})", diverge + 1));
        }
    }
    assert!(
        stale.is_empty(),
        "pretty-printer output drifted from golden files: {}.\n\
         If the change is intentional, regenerate with `make bless` and review the diff.",
        stale.join(", ")
    );
}

/// The programs `cured_digests.txt` covers, as `(corpus, workload)`.
fn digest_corpus() -> Vec<(&'static str, Workload)> {
    let mut corpus: Vec<(&'static str, Workload)> = Vec::new();
    corpus.extend(
        ccured_workloads::suite_corpus()
            .into_iter()
            .map(|w| ("suite", w)),
    );
    corpus.extend(
        ccured_workloads::batch_corpus()
            .into_iter()
            .map(|w| ("batch", w)),
    );
    corpus.extend(apache::all_modules(1).into_iter().map(|w| ("apache", w)));
    corpus.extend(daemons::figure9_corpus().into_iter().map(|w| ("fig9", w)));
    for p in ccured_synth::profiles::all() {
        corpus.extend(
            ccured_synth::gen::generate(&p, 2, 1)
                .into_iter()
                .map(|w| ("synth", w)),
        );
    }
    corpus
}

/// One line per program: corpus, index, name, and the FNV-1a digest of
/// its cured text under the wrapper configuration it declares.
fn cured_digests() -> String {
    let mut out = String::new();
    for (i, (corpus, w)) in digest_corpus().iter().enumerate() {
        let cured = w
            .curer()
            .cure_source(&w.source)
            .unwrap_or_else(|e| panic!("{corpus}/{}: cure failed: {e}", w.name));
        let text = ccured_cil::pretty::dump_program(&cured.program);
        let digest = ccured_batch::hash::fnv1a(text.as_bytes());
        let _ = writeln!(out, "{corpus} {i:02} {} {digest:016x}", w.name);
    }
    out
}

#[test]
fn cured_text_digests_match() {
    let got = cured_digests();
    let path = golden_dir().join("cured_digests.txt");
    if blessing() {
        std::fs::write(&path, &got).expect("write cured digests");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); run `make bless`", path.display()));
    if want != got {
        let diverge = want
            .lines()
            .zip(got.lines())
            .find(|(a, b)| a != b)
            .map_or_else(
                || "line counts differ".to_string(),
                |(a, b)| format!("want `{a}`, got `{b}`"),
            );
        panic!(
            "cured text drifted from {}: {diverge}.\n\
             If the change is intentional, regenerate with `make bless` and review the diff.",
            path.display()
        );
    }
}

#[test]
fn golden_dir_has_no_orphans() {
    if blessing() {
        return;
    }
    let examples: Vec<String> = std::fs::read_dir(examples_dir())
        .expect("examples/c exists")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().to_string())
        .collect();
    for entry in std::fs::read_dir(golden_dir()).expect("golden dir exists") {
        let p = entry.expect("dir entry").path();
        if p.extension().is_some_and(|x| x == "golden") {
            let name = p.file_stem().unwrap().to_string_lossy().to_string();
            assert!(
                examples.contains(&name),
                "{} has no matching examples/c program; delete it or add the example",
                p.display()
            );
        }
    }
}
