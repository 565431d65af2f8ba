//! Quickstart: cure a small C program, inspect the report, and run both the
//! original and the cured version.
//!
//! ```sh
//! cargo run -p ccured-examples --bin quickstart
//! ```

use ccured::Curer;
use ccured_cil::ir::CheckKind;
use ccured_rt::{ExecMode, Interp};

const PROGRAM: &str = r#"
extern int printf(char *fmt, ...);

int sum(int *a, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += a[i];
    return s;
}

int main(void) {
    int data[8];
    for (int i = 0; i < 8; i++) data[i] = i * i;
    printf("sum = %d\n", sum(data, 8));
    return 0;
}
"#;

fn main() {
    // 1. Cure: parse, infer pointer kinds, instrument.
    let cured = Curer::new().cure_source(PROGRAM).expect("cure");
    let r = &cured.report;
    let (sf, sq, w, rt) = r.kind_counts.percentages();
    println!("pointer kinds: {sf}% SAFE, {sq}% SEQ, {w}% WILD, {rt}% RTTI");
    println!(
        "checks inserted: {} total ({} null, {} seq-bounds, {} index)",
        r.checks_inserted.total(),
        r.checks_inserted[CheckKind::Null],
        r.checks_inserted[CheckKind::SeqBounds],
        r.checks_inserted[CheckKind::IndexBound]
    );

    // 2. Run the cured program.
    let mut interp = Interp::new(&cured.program, ExecMode::cured(&cured));
    let exit = interp.run().expect("run");
    print!("{}", String::from_utf8_lossy(interp.output()));
    println!("exit = {exit}");
    println!(
        "dynamic checks executed: {}",
        interp.counters.total_checks()
    );
}
