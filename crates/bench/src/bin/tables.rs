//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `tables [fig8|fig9|casts|ijpeg|bind|suites|split|security|ablation|fig-batch|fig-interp|fig-profile|fig-opt2|fig-serve|fig-synth|fig-temporal|fig-hierarchy|all] [--smoke]`
//!
//! `fig-interp`, `fig-profile`, `fig-opt2`, `fig-serve`, `fig-synth`,
//! `fig-temporal` and `fig-hierarchy` write `BENCH_interp.json` /
//! `BENCH_profile.json` / `BENCH_opt2.json` / `BENCH_serve.json` /
//! `BENCH_synth.json` / `BENCH_temporal.json` / `BENCH_hierarchy.json` to
//! the working directory, one [`Record`] line each; `--smoke` shrinks their
//! workloads for CI. `tables` exits 1 when a record it wrote is not
//! correct or a figure could not run. `fig-interp` is the one tree-vs-VM
//! throughput table.
//!
//! Each table prints our measurement next to the paper's reported value
//! (absolute numbers are not comparable — the substrate is an interpreter —
//! but the *shape* is the reproduction target; see EXPERIMENTS.md).

use ccured_bench::table::{paper_ratio, ratio, render};
use ccured_bench::*;
use std::time::Duration;

/// Prints one table. It gets `--smoke` and returns `false` when its figure
/// could not run or a record it wrote is not correct.
type Table = fn(bool) -> bool;

/// Every table in `all` order, by subcommand.
const TABLES: [(&str, Table); 17] = [
    ("fig8", fig8_table),
    ("fig9", fig9_table),
    ("casts", casts_table),
    ("ijpeg", ijpeg_table),
    ("bind", bind_table),
    ("suites", suites_table),
    ("split", split_tables),
    ("security", security_table),
    ("ablation", ablation_table),
    ("fig-batch", fig_batch_table),
    ("fig-interp", fig_interp_table),
    ("fig-profile", fig_profile_table),
    ("fig-opt2", fig_opt2_table),
    ("fig-serve", fig_serve_table),
    ("fig-synth", fig_synth_table),
    ("fig-temporal", fig_temporal_table),
    ("fig-hierarchy", fig_hierarchy_table),
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let which = args.first().map_or("all", String::as_str);
    let chosen: Vec<_> = TABLES
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if chosen.is_empty() {
        let names: Vec<&str> = TABLES.iter().map(|t| t.0).chain(["all"]).collect();
        eprintln!(
            "unknown table `{which}`; expected one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    let mut correct = true;
    for (_, table) in chosen {
        correct &= table(smoke);
    }
    if !correct {
        std::process::exit(1);
    }
}

/// Prints a table (see [`render`]) and a blank line.
fn table<R: AsRef<[String]>>(header: &str, rows: &[R]) {
    println!("{}", render(header, rows));
}

/// Prints a figure's `== title ==` line, marked when `--smoke` shrank it.
fn heading(title: &str, smoke: bool) {
    println!("== {title}{} ==\n", if smoke { " (smoke)" } else { "" });
}

fn ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

fn us(d: Duration) -> String {
    format!("{:.0} us", d.as_secs_f64() * 1e6)
}

/// Writes a figure's record, one compact JSON line, to the working
/// directory. Returns whether it was written and is correct.
fn write_record(name: &str, record: &Record) -> bool {
    if let Err(e) = std::fs::write(name, record.json() + "\n") {
        eprintln!("could not write {name}: {e}");
        return false;
    }
    println!("wrote {name}");
    if !record.correct() {
        eprintln!(
            "{name} is not correct: {} of {} rows failed, or a value is not finite",
            record.failed, record.attempted
        );
    }
    record.correct()
}

/// A figure's result, or `None` after printing why it could not run.
fn ran<T>(figure: &str, result: std::io::Result<T>) -> Option<T> {
    result.map_err(|e| eprintln!("{figure} failed: {e}")).ok()
}

fn pct(p: u32) -> String {
    format!("{p}%")
}

fn pct_str(p: (u32, u32, u32, u32)) -> String {
    format!("{}/{}/{}/{}", p.0, p.1, p.2, p.3)
}

fn fig8_table(_: bool) -> bool {
    println!("== Figure 8: Apache module performance ==");
    println!("(sf/sq/w/rt = % of static pointers inferred SAFE/SEQ/WILD/RTTI)\n");
    let rows: Vec<_> = fig8(60)
        .into_iter()
        .map(|r| {
            [
                r.name,
                r.lines.to_string(),
                pct_str(r.pct),
                ratio(r.ratio),
                r.paper_pct.map(pct_str).unwrap_or_else(|| "-".into()),
                paper_ratio(r.paper_ratio),
            ]
        })
        .collect();
    table(
        "module|lines|sf/sq/w/rt|ratio|paper sf/sq/w/rt|paper ratio",
        &rows,
    );
    true
}

fn fig9_table(_: bool) -> bool {
    println!("== Figure 9: system software performance ==\n");
    let rows: Vec<_> = fig9()
        .into_iter()
        .map(|r| {
            [
                r.name,
                r.lines.to_string(),
                pct_str(r.pct),
                ratio(r.ccured),
                ratio(r.valgrind),
                format!("{:.2}%", r.sandbox_overhead * 100.0),
                paper_ratio(r.paper_ccured),
                paper_ratio(r.paper_valgrind),
            ]
        })
        .collect();
    table(
        "program|lines|sf/sq/w/rt|ccured|valgrind|sandbox|paper ccured|paper valgrind",
        &rows,
    );
    true
}

fn casts_table(_: bool) -> bool {
    println!("== Section 3: cast census over the corpus ==\n");
    let c = cast_census();
    let rows = [
        ("identical (% of pointer casts)", c.pct_identical, "~63%"),
        ("upcasts (% of non-identical)", c.pct_upcasts, "~93%"),
        ("downcasts (% of non-identical)", c.pct_downcasts, "~6%"),
        ("still bad (% of non-identical)", c.pct_bad, "<1%"),
        ("verified without WILD (% of all)", c.pct_verified, ">99%"),
    ]
    .map(|(what, pct, paper)| [what.into(), format!("{pct:.1}%"), paper.into()]);
    println!("total pointer casts: {}\n", c.ptr_casts);
    table("statistic|measured|paper", &rows);
    true
}

fn ijpeg_table(_: bool) -> bool {
    println!("== Section 5: the ijpeg RTTI experiment ==\n");
    let r = ijpeg_experiment(40, 24);
    let wild = [pct(r.old_wild_pct), pct(r.new_wild_pct)];
    let slowdown = [ratio(r.old_ratio), ratio(r.new_ratio)];
    let rows = [
        ["WILD pointers", &wild[0], &wild[1], "60% -> 0%"],
        ["RTTI pointers", "0%", &pct(r.new_rtti_pct), "0% -> 1%"],
        ["slowdown", &slowdown[0], &slowdown[1], "2.15 -> 1.45"],
    ]
    .map(|row| row.map(String::from));
    println!("downcast sites: {}\n", r.downcasts);
    table("metric|original ccured|with RTTI|paper", &rows);
    true
}

fn bind_table(_: bool) -> bool {
    println!("== Section 5: bind cast statistics ==\n");
    let b = bind_experiment(40, 14);
    let n = |x: usize| x.to_string();
    let rows = [
        ("pointer casts", n(b.ptr_casts), "82000"),
        ("upcasts (physical subtyping)", n(b.upcasts), "26500"),
        ("downcasts (RTTI-checked)", n(b.downcasts), "150 of 530 bad"),
        ("trusted casts (review surface)", n(b.trusted), "380"),
        ("WILD without RTTI", pct(b.wild_pct_without_rtti), "30%"),
        ("WILD with RTTI + trusted", pct(b.wild_pct_with_rtti), "0%"),
    ]
    .map(|(what, measured, paper)| [what.into(), measured, paper.into()]);
    table("statistic|measured|paper", &rows);
    true
}

fn suites_table(_: bool) -> bool {
    println!("== Section 5: Spec95/Olden/Ptrdist with baseline tools ==");
    println!("(paper bands: CCured 1.07-1.56, Purify 25-100x, Valgrind 9-130x)\n");
    let rows: Vec<_> = suites()
        .into_iter()
        .map(|r| [r.name, ratio(r.ccured), ratio(r.purify), ratio(r.valgrind)])
        .collect();
    table("benchmark|ccured|purify|valgrind", &rows);
    true
}

fn split_tables(_: bool) -> bool {
    println!("== Section 4.2/5: compatible (split) representation overhead ==");
    println!("(paper: mostly <3% extra; em3d +58%, anagram +7%)\n");
    let rows: Vec<_> = split_overhead()
        .into_iter()
        .map(|r| {
            let cost = format!("+{:.0}%", (r.split_cost - 1.0) * 100.0);
            [r.name, ratio(r.nosplit), ratio(r.allsplit), cost]
        })
        .collect();
    table("benchmark|nosplit|all-split|split cost", &rows);
    println!("== boundary-seeded split spread ==");
    println!("(paper: bind 6% split / 31% with meta ptr; OpenSSH <1%)\n");
    let rows: Vec<_> = split_boundary()
        .into_iter()
        .map(|r| {
            let pct = |p: f64| format!("{p:.1}%");
            [r.name, pct(r.split_pct), pct(r.meta_pct)]
        })
        .collect();
    table("program|split quals|of those, with meta ptr", &rows);
    true
}

fn security_table(_: bool) -> bool {
    println!("== Section 5: known-vulnerability scenarios ==\n");
    let rows: Vec<_> = security()
        .into_iter()
        .map(|r| {
            let prevented = if r.prevented { "yes" } else { "NO" };
            [r.name, r.original, r.cured, prevented.to_string()]
        })
        .collect();
    table("scenario|plain C|cured|prevented", &rows);
    true
}

fn ablation_table(_: bool) -> bool {
    println!("== Ablation: the extension staircase on the OO workload ==\n");
    let rows: Vec<_> = ablation(24, 12)
        .into_iter()
        .map(|r| [r.config, pct(r.wild_pct), pct(r.rtti_pct), ratio(r.ratio)])
        .collect();
    table("configuration|wild|rtti|ratio", &rows);
    let (cc, jk) = metadata_lookup(60);
    println!(
        "metadata ablation (ptr-heavy loop): fat pointers {}x vs global-registry lookup {}x",
        ratio(cc),
        ratio(jk)
    );
    let (steps, walk, interval) = rtti_encoding(40, 12);
    println!(
        "isSubtype encoding (40-deep hierarchy): walk {}x ({} chain steps) vs interval {}x\n",
        ratio(walk),
        steps,
        ratio(interval)
    );
    true
}

fn fig_batch_table(_: bool) -> bool {
    println!("== E12: batch-engine speedup (micro+Olden corpus) ==\n");
    let Some(f) = ran("fig-batch", fig_batch(0)) else {
        return false;
    };
    let rows = [
        ["sequential, no cache".into(), ms(f.sequential), ratio(1.0)],
        [
            format!("parallel x{}, cold cache", f.jobs),
            ms(f.parallel_cold),
            ratio(f.parallel_speedup()),
        ],
        [
            format!("parallel x{}, warm cache", f.jobs),
            ms(f.warm),
            ratio(f.warm_speedup()),
        ],
    ];
    println!(
        "{} units; warm hit rate {:.0}%; achieved parallelism {:.2}\n",
        f.units,
        f.warm_hit_rate * 100.0,
        f.parallel_cpu_ratio
    );
    table("configuration|wall|speedup", &rows);
    true
}

fn fig_interp_table(smoke: bool) -> bool {
    heading(
        "E13: execution-engine throughput, tree vs bytecode VM",
        smoke,
    );
    let f = fig_interp(smoke);
    let rows: Vec<_> = f
        .rows
        .iter()
        .map(|r| {
            let speedup = format!("{:.1}x", r.speedup());
            [
                r.name.clone(),
                r.steps.to_string(),
                us(r.tree),
                us(r.vm),
                speedup,
            ]
        })
        .collect();
    table("workload|steps|tree|vm|speedup", &rows);
    println!(
        "geomean speedup: {:.2}x (best of {} runs)",
        f.geomean_speedup(),
        f.reps
    );
    write_record("BENCH_interp.json", &f.record())
}

fn fig_profile_table(smoke: bool) -> bool {
    heading("E14: hot-site check profiles (both engines agree)", smoke);
    let f = fig_profile(smoke);
    let rows: Vec<_> = f
        .rows
        .iter()
        .map(|r| {
            let hottest = r.top.first().map_or_else(
                || "-".to_string(),
                |t| {
                    format!(
                        "{} in {} ({} hits)",
                        t.site.kind.name(),
                        t.site.func,
                        t.hits
                    )
                },
            );
            [
                r.name.clone(),
                format!("{}/{}", r.hot_sites, r.sites),
                r.total_hits.to_string(),
                format!("{:.0}%", r.top_share * 100.0),
                r.unelided_hot.to_string(),
                hottest,
            ]
        })
        .collect();
    table(
        "workload|hot/sites|checks run|top-3 cost|unelided hot|hottest site",
        &rows,
    );
    write_record("BENCH_profile.json", &f.record())
}

fn fig_opt2_table(smoke: bool) -> bool {
    heading(
        "E15: loop-optimizer executed-check cost, no-opt vs elim-only vs full",
        smoke,
    );
    let f = fig_opt2(smoke);
    let rows: Vec<_> = f
        .rows
        .iter()
        .map(|r| {
            [
                r.name.clone(),
                if r.strided { "yes" } else { "" }.to_string(),
                format!("{:.0}", r.noopt),
                format!("{:.0}", r.elim),
                format!("{:.0}", r.full),
                format!("{:.0}%", r.reduction() * 100.0),
                format!("{}/{}", r.hoisted, r.widened),
            ]
        })
        .collect();
    table(
        "workload|strided|no-opt|elim-only|full|reduction|hoist/widen",
        &rows,
    );
    println!(
        "geomean executed-check-cost reduction, strided subset: {:.1}% (target ≥15%)",
        f.geomean_reduction_strided() * 100.0
    );
    write_record("BENCH_opt2.json", &f.record())
}

#[cfg(unix)]
fn fig_serve_table(smoke: bool) -> bool {
    heading("E16: cure daemon, cold vs resident-cache warm paths", smoke);
    let Some(f) = ran("fig-serve", fig_serve(smoke)) else {
        return false;
    };
    let rows = [
        ["cold (empty cache)".into(), ms(f.cold), ratio(1.0)],
        [
            "warm, unchanged sources (unit cache)".into(),
            ms(f.warm_identical),
            ratio(f.identical_speedup()),
        ],
        [
            "warm, one function appended (full cure)".into(),
            ms(f.warm_touched),
            ratio(f.touched_speedup()),
        ],
    ];
    println!(
        "{} units over the socket; touched-pass digests match cold batch: {}",
        f.units, f.digests_match
    );
    println!(
        "reply latency: p50 {} / p99 {}\n",
        ms(f.reply_p50),
        ms(f.reply_p99)
    );
    table("configuration|wall|speedup", &rows);
    write_record("BENCH_serve.json", &f.record())
}

#[cfg(not(unix))]
fn fig_serve_table(_: bool) -> bool {
    eprintln!("fig-serve requires unix domain sockets; skipped on this platform");
    true
}

fn fig_synth_table(smoke: bool) -> bool {
    heading("E17: generative differential soundness campaign", smoke);
    let Some(f) = ran("fig-synth", fig_synth(smoke)) else {
        return false;
    };
    print!("{}", f.report.render());
    println!(
        "\nworst pointer-kind deviation from target: {:.1} points (tolerance {:.0})\n",
        f.max_deviation(),
        ccured_synth::KIND_TOLERANCE_PCT
    );
    write_record("BENCH_synth.json", &f.record())
}

fn fig_temporal_table(smoke: bool) -> bool {
    heading(
        "E19: temporal lock-and-key check overhead (--temporal)",
        smoke,
    );
    let f = fig_temporal(smoke);
    let rows: Vec<_> = f
        .rows
        .iter()
        .map(|r| {
            [
                r.name.clone(),
                format!("{}/{}", r.steps_plain, r.steps_temporal),
                r.temporal_checks.to_string(),
                us(r.tree_plain),
                us(r.tree_temporal),
                us(r.vm_plain),
                us(r.vm_temporal),
                format!("{:.2}x", r.overhead_tree()),
                format!("{:.2}x", r.overhead_vm()),
            ]
        })
        .collect();
    table(
        "workload|steps plain/temporal|key checks|tree|tree+t|vm|vm+t|tree ovh|vm ovh",
        &rows,
    );
    println!(
        "geomean temporal overhead: tree {:.2}x, vm {:.2}x (best of {} runs; ceiling 1.5x)",
        f.geomean_overhead_tree(),
        f.geomean_overhead_vm(),
        f.reps
    );
    write_record("BENCH_temporal.json", &f.record())
}

fn fig_hierarchy_table(smoke: bool) -> bool {
    let f = fig_hierarchy(smoke);
    let title = "E20: physical-subtype hierarchy build, ijpeg_oo chain";
    println!("== {title} (best of {} runs) ==\n", f.reps);
    let rows: Vec<_> = f
        .rows
        .iter()
        .map(|r| {
            [
                format!("ijpeg_oo({})", r.types),
                r.lines.to_string(),
                r.nodes.to_string(),
                r.comparisons.to_string(),
                format!("{:.2} ms", r.build.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    table("unit|lines|nodes|exact comparisons|build", &rows);
    write_record("BENCH_hierarchy.json", &f.record())
}
