//! Compile-time benchmark: parsing, lowering, and whole-program inference
//! on the largest generated workloads (the analysis cost of the paper's
//! Section 2.1/3 algorithms), and building the RTTI hierarchy of a
//! 50–200 type deep `ijpeg_oo` chain (about 2k–8k lines).

use ccured::Hierarchy;
use ccured_infer::{infer, InferOptions};
use ccured_workloads::{daemons, spec};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("inference");
    g.sample_size(20);
    for w in [spec::ijpeg_oo(40, 1), daemons::bind_like(1, 16)] {
        let tu = ccured_ast::parse_translation_unit(&w.source).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        g.bench_function(format!("{}_parse_lower", w.name), |b| {
            b.iter(|| {
                let tu = ccured_ast::parse_translation_unit(&w.source).unwrap();
                ccured_cil::lower_translation_unit(&tu).unwrap()
            })
        });
        g.bench_function(format!("{}_infer", w.name), |b| {
            b.iter(|| infer(&prog, &InferOptions::default()))
        });
        g.bench_function(format!("{}_infer_original", w.name), |b| {
            b.iter(|| infer(&prog, &InferOptions::original_ccured()))
        });
    }
    g.finish();
}

fn bench_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("hierarchy_build");
    g.sample_size(20);
    for types in [50, 100, 150, 200] {
        let w = spec::ijpeg_oo(types, 28);
        let tu = ccured_ast::parse_translation_unit(&w.source).unwrap();
        let prog = ccured_cil::lower_translation_unit(&tu).unwrap();
        let lines = w.source.lines().count();
        g.bench_function(format!("ijpeg_oo({types})_{lines}_lines"), |b| {
            b.iter(|| Hierarchy::build(&prog))
        });
    }
    g.finish();
}

criterion_group!(benches, bench, bench_hierarchy);
criterion_main!(benches);
