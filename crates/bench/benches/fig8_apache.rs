//! Wall-clock benchmark for E1 (Figure 8): executing an Apache module under
//! the request driver, original vs cured. Curing happens once, outside the
//! measured loop — the measured quantity is run-time overhead, as in the
//! paper.

use ccured_infer::InferOptions;
use ccured_rt::{ExecMode, Interp};
use ccured_workloads::{apache, runner};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_apache");
    g.sample_size(10);
    for w in [apache::asis(20), apache::gzip(20), apache::usertrack(20)] {
        let orig = w.program().unwrap();
        let cured = runner::run_cured(&w, &InferOptions::default())
            .unwrap()
            .cured;
        g.bench_function(format!("{}_original", w.name), |b| {
            b.iter(|| {
                let mut i = Interp::new(&orig, ExecMode::Original);
                i.set_input(w.input.clone());
                i.run().unwrap()
            })
        });
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
