//! Wall-clock benchmark for E2 (Figure 9): the system-software corpus in
//! original, cured, and Valgrind-baseline modes (curing excluded from the
//! measured loop).

use ccured_infer::InferOptions;
use ccured_rt::{ExecMode, Interp};
use ccured_workloads::{daemons, runner};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_system");
    g.sample_size(10);
    for w in [
        daemons::ftpd(6, false),
        daemons::openssl_cast(12),
        daemons::openssl_bn(8),
        daemons::bind_like(12, 10),
    ] {
        let orig = w.program().unwrap();
        let cured = runner::run_cured(&w, &InferOptions::default())
            .unwrap()
            .cured;
        for (label, mode) in [
            ("original", ExecMode::Original),
            ("valgrind", ExecMode::Valgrind),
        ] {
            g.bench_function(format!("{}_{label}", w.name), |b| {
                b.iter(|| {
                    let mut i = Interp::new(&orig, mode);
                    i.set_input(w.input.clone());
                    i.run().unwrap()
                })
            });
        }
        g.bench_function(format!("{}_cured", w.name), |b| {
            b.iter(|| {
                let mut i = Interp::new(&cured.program, ExecMode::cured(&cured));
                i.set_input(w.input.clone());
                i.run().unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
