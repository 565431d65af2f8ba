//! Regenerates every table and figure of the paper's evaluation.
//!
//! Usage: `tables [fig8|fig9|casts|ijpeg|bind|suites|split|security|ablation|fig-batch|fig-interp|fig-profile|fig-opt2|fig-serve|fig-synth|fig-temporal|all] [--smoke]`
//!
//! `fig-interp`, `fig-profile`, `fig-opt2` and `fig-temporal` write
//! `BENCH_interp.json` / `BENCH_profile.json` / `BENCH_opt2.json` /
//! `BENCH_temporal.json` to the working directory; `--smoke` shrinks their
//! workloads for CI. `fig-interp` is the one tree-vs-VM throughput table.
//!
//! Each table prints our measurement next to the paper's reported value
//! (absolute numbers are not comparable — the substrate is an interpreter —
//! but the *shape* is the reproduction target; see EXPERIMENTS.md).

use ccured_bench::table::{paper_ratio, ratio, render};
use ccured_bench::*;

const TABLES: &[&str] = &[
    "fig8",
    "fig9",
    "casts",
    "ijpeg",
    "bind",
    "suites",
    "split",
    "security",
    "ablation",
    "fig-batch",
    "fig-interp",
    "fig-profile",
    "fig-opt2",
    "fig-serve",
    "fig-synth",
    "fig-temporal",
    "all",
];

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    args.retain(|a| a != "--smoke");
    let which = args.first().cloned().unwrap_or_else(|| "all".to_string());
    if !TABLES.contains(&which.as_str()) {
        eprintln!(
            "unknown table `{which}`; expected one of: {}",
            TABLES.join(", ")
        );
        std::process::exit(2);
    }
    let all = which == "all";
    if all || which == "fig8" {
        fig8_table();
    }
    if all || which == "fig9" {
        fig9_table();
    }
    if all || which == "casts" {
        casts_table();
    }
    if all || which == "ijpeg" {
        ijpeg_table();
    }
    if all || which == "bind" {
        bind_table();
    }
    if all || which == "suites" {
        suites_table();
    }
    if all || which == "split" {
        split_tables();
    }
    if all || which == "security" {
        security_table();
    }
    if all || which == "ablation" {
        ablation_table();
    }
    if all || which == "fig-batch" {
        fig_batch_table();
    }
    if all || which == "fig-interp" {
        fig_interp_table(smoke);
    }
    if all || which == "fig-profile" {
        fig_profile_table(smoke);
    }
    if all || which == "fig-opt2" {
        fig_opt2_table(smoke);
    }
    if all || which == "fig-serve" {
        fig_serve_table(smoke);
    }
    if all || which == "fig-synth" {
        fig_synth_table(smoke);
    }
    if all || which == "fig-temporal" {
        fig_temporal_table(smoke);
    }
}

fn fig_temporal_table(smoke: bool) {
    println!(
        "== E19: temporal lock-and-key check overhead (--temporal){} ==\n",
        if smoke { " (smoke)" } else { "" }
    );
    let f = fig_temporal(smoke);
    let us = |d: std::time::Duration| format!("{:.0} us", d.as_secs_f64() * 1e6);
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
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
    println!(
        "{}",
        render(
            &[
                "workload",
                "steps plain/temporal",
                "key checks",
                "tree",
                "tree+t",
                "vm",
                "vm+t",
                "tree ovh",
                "vm ovh"
            ],
            &rows
        )
    );
    println!(
        "geomean temporal overhead: tree {:.2}x, vm {:.2}x (best of {} runs; ceiling 1.5x)",
        f.geomean_overhead_tree(),
        f.geomean_overhead_vm(),
        f.reps
    );
    match std::fs::write("BENCH_temporal.json", f.to_json()) {
        Ok(()) => println!("wrote BENCH_temporal.json"),
        Err(e) => eprintln!("could not write BENCH_temporal.json: {e}"),
    }
}

fn fig_synth_table(smoke: bool) {
    println!(
        "== E17: generative differential soundness campaign{} ==\n",
        if smoke { " (smoke)" } else { "" }
    );
    let f = match fig_synth(smoke) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fig-synth failed: {e}");
            return;
        }
    };
    print!("{}", f.report.render());
    println!(
        "\nworst pointer-kind deviation from target: {:.1} points (tolerance {:.0})\n",
        f.max_deviation(),
        ccured_synth::KIND_TOLERANCE_PCT
    );
    match std::fs::write("BENCH_synth.json", f.to_json()) {
        Ok(()) => println!("wrote BENCH_synth.json"),
        Err(e) => eprintln!("could not write BENCH_synth.json: {e}"),
    }
}

#[cfg(unix)]
fn fig_serve_table(smoke: bool) {
    println!(
        "== E16: cure daemon, cold vs resident-cache warm paths{} ==\n",
        if smoke { " (smoke)" } else { "" }
    );
    let f = match fig_serve(smoke) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fig-serve failed: {e}");
            return;
        }
    };
    let ms = |d: std::time::Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    let rows = vec![
        vec!["cold (empty cache)".to_string(), ms(f.cold), ratio(1.0)],
        vec![
            "warm, unchanged sources (unit cache)".to_string(),
            ms(f.warm_identical),
            ratio(f.identical_speedup()),
        ],
        vec![
            "warm, one function appended (full cure)".to_string(),
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
    println!("{}", render(&["configuration", "wall", "speedup"], &rows));
    match std::fs::write("BENCH_serve.json", f.to_json()) {
        Ok(()) => println!("wrote BENCH_serve.json"),
        Err(e) => eprintln!("could not write BENCH_serve.json: {e}"),
    }
}

#[cfg(not(unix))]
fn fig_serve_table(_smoke: bool) {
    eprintln!("fig-serve requires unix domain sockets; skipped on this platform");
}

fn pct_str(p: (u32, u32, u32, u32)) -> String {
    format!("{}/{}/{}/{}", p.0, p.1, p.2, p.3)
}

fn fig8_table() {
    println!("== Figure 8: Apache module performance ==");
    println!("(sf/sq/w/rt = % of static pointers inferred SAFE/SEQ/WILD/RTTI)\n");
    let rows: Vec<Vec<String>> = fig8(60)
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.lines.to_string(),
                pct_str(r.pct),
                ratio(r.ratio),
                r.paper_pct.map(pct_str).unwrap_or_else(|| "-".into()),
                paper_ratio(r.paper_ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "module",
                "lines",
                "sf/sq/w/rt",
                "ratio",
                "paper sf/sq/w/rt",
                "paper ratio"
            ],
            &rows
        )
    );
}

fn fig9_table() {
    println!("== Figure 9: system software performance ==\n");
    let rows: Vec<Vec<String>> = fig9()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.lines.to_string(),
                pct_str(r.pct),
                ratio(r.ccured),
                ratio(r.valgrind),
                format!("{:.2}%", r.sandbox_overhead * 100.0),
                format!("{:.1}x", r.vm_speedup),
                paper_ratio(r.paper_ccured),
                paper_ratio(r.paper_valgrind),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "program",
                "lines",
                "sf/sq/w/rt",
                "ccured",
                "valgrind",
                "sandbox",
                "vm",
                "paper ccured",
                "paper valgrind"
            ],
            &rows
        )
    );
}

fn casts_table() {
    println!("== Section 3: cast census over the corpus ==\n");
    let c = cast_census();
    let rows = vec![
        vec![
            "identical (% of pointer casts)".to_string(),
            format!("{:.1}%", c.pct_identical),
            "~63%".to_string(),
        ],
        vec![
            "upcasts (% of non-identical)".to_string(),
            format!("{:.1}%", c.pct_upcasts),
            "~93%".to_string(),
        ],
        vec![
            "downcasts (% of non-identical)".to_string(),
            format!("{:.1}%", c.pct_downcasts),
            "~6%".to_string(),
        ],
        vec![
            "still bad (% of non-identical)".to_string(),
            format!("{:.1}%", c.pct_bad),
            "<1%".to_string(),
        ],
        vec![
            "verified without WILD (% of all)".to_string(),
            format!("{:.1}%", c.pct_verified),
            ">99%".to_string(),
        ],
    ];
    println!("total pointer casts: {}\n", c.ptr_casts);
    println!("{}", render(&["statistic", "measured", "paper"], &rows));
}

fn ijpeg_table() {
    println!("== Section 5: the ijpeg RTTI experiment ==\n");
    let r = ijpeg_experiment(40, 24);
    let rows = vec![
        vec![
            "WILD pointers".to_string(),
            format!("{}%", r.old_wild_pct),
            format!("{}%", r.new_wild_pct),
            "60% -> 0%".to_string(),
        ],
        vec![
            "RTTI pointers".to_string(),
            "0%".to_string(),
            format!("{}%", r.new_rtti_pct),
            "0% -> 1%".to_string(),
        ],
        vec![
            "slowdown".to_string(),
            ratio(r.old_ratio),
            ratio(r.new_ratio),
            "2.15 -> 1.45".to_string(),
        ],
    ];
    println!("downcast sites: {}\n", r.downcasts);
    println!(
        "{}",
        render(&["metric", "original ccured", "with RTTI", "paper"], &rows)
    );
}

fn bind_table() {
    println!("== Section 5: bind cast statistics ==\n");
    let b = bind_experiment(40, 14);
    let rows = vec![
        vec![
            "pointer casts".to_string(),
            b.ptr_casts.to_string(),
            "82000".to_string(),
        ],
        vec![
            "upcasts (physical subtyping)".to_string(),
            b.upcasts.to_string(),
            "26500".to_string(),
        ],
        vec![
            "downcasts (RTTI-checked)".to_string(),
            b.downcasts.to_string(),
            "150 of 530 bad".to_string(),
        ],
        vec![
            "trusted casts (review surface)".to_string(),
            b.trusted.to_string(),
            "380".to_string(),
        ],
        vec![
            "WILD without RTTI".to_string(),
            format!("{}%", b.wild_pct_without_rtti),
            "30%".to_string(),
        ],
        vec![
            "WILD with RTTI + trusted".to_string(),
            format!("{}%", b.wild_pct_with_rtti),
            "0%".to_string(),
        ],
    ];
    println!("{}", render(&["statistic", "measured", "paper"], &rows));
}

fn suites_table() {
    println!("== Section 5: Spec95/Olden/Ptrdist with baseline tools ==");
    println!("(paper bands: CCured 1.07-1.56, Purify 25-100x, Valgrind 9-130x)\n");
    let rows: Vec<Vec<String>> = suites()
        .into_iter()
        .map(|r| vec![r.name, ratio(r.ccured), ratio(r.purify), ratio(r.valgrind)])
        .collect();
    println!(
        "{}",
        render(&["benchmark", "ccured", "purify", "valgrind"], &rows)
    );
}

fn split_tables() {
    println!("== Section 4.2/5: compatible (split) representation overhead ==");
    println!("(paper: mostly <3% extra; em3d +58%, anagram +7%)\n");
    let rows: Vec<Vec<String>> = split_overhead()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                ratio(r.nosplit),
                ratio(r.allsplit),
                format!("+{:.0}%", (r.split_cost - 1.0) * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["benchmark", "nosplit", "all-split", "split cost"], &rows)
    );
    println!("== boundary-seeded split spread ==");
    println!("(paper: bind 6% split / 31% with meta ptr; OpenSSH <1%)\n");
    let rows: Vec<Vec<String>> = split_boundary()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                format!("{:.1}%", r.split_pct),
                format!("{:.1}%", r.meta_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &["program", "split quals", "of those, with meta ptr"],
            &rows
        )
    );
}

fn security_table() {
    println!("== Section 5: known-vulnerability scenarios ==\n");
    let rows: Vec<Vec<String>> = security()
        .into_iter()
        .map(|r| {
            vec![
                r.name,
                r.original,
                r.cured,
                if r.prevented { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["scenario", "plain C", "cured", "prevented"], &rows)
    );
}

fn ablation_table() {
    println!("== Ablation: the extension staircase on the OO workload ==\n");
    let rows: Vec<Vec<String>> = ablation(24, 12)
        .into_iter()
        .map(|r| {
            vec![
                r.config,
                format!("{}%", r.wild_pct),
                format!("{}%", r.rtti_pct),
                ratio(r.ratio),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["configuration", "wild", "rtti", "ratio"], &rows)
    );
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
}

fn fig_batch_table() {
    println!("== E12: batch-engine speedup (micro+Olden corpus) ==\n");
    let f = match fig_batch(0) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fig-batch failed: {e}");
            return;
        }
    };
    let ms = |d: std::time::Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    let rows = vec![
        vec![
            "sequential, no cache".to_string(),
            ms(f.sequential),
            ratio(1.0),
        ],
        vec![
            format!("parallel x{}, cold cache", f.jobs),
            ms(f.parallel_cold),
            ratio(f.parallel_speedup()),
        ],
        vec![
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
    println!("{}", render(&["configuration", "wall", "speedup"], &rows));
}

fn fig_interp_table(smoke: bool) {
    println!(
        "== E13: execution-engine throughput, tree vs bytecode VM{} ==\n",
        if smoke { " (smoke)" } else { "" }
    );
    let f = fig_interp(smoke);
    let us = |d: std::time::Duration| format!("{:.0} us", d.as_secs_f64() * 1e6);
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.steps.to_string(),
                us(r.tree),
                us(r.vm),
                format!("{:.1}x", r.speedup()),
            ]
        })
        .collect();
    println!(
        "{}",
        render(&["workload", "steps", "tree", "vm", "speedup"], &rows)
    );
    println!(
        "geomean speedup: {:.2}x (best of {} runs)",
        f.geomean_speedup(),
        f.reps
    );
    match std::fs::write("BENCH_interp.json", f.to_json()) {
        Ok(()) => println!("wrote BENCH_interp.json"),
        Err(e) => eprintln!("could not write BENCH_interp.json: {e}"),
    }
}

fn fig_profile_table(smoke: bool) {
    println!(
        "== E14: hot-site check profiles (both engines agree){} ==\n",
        if smoke { " (smoke)" } else { "" }
    );
    let f = fig_profile(smoke);
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            let hottest = r
                .top
                .first()
                .map(|t| format!("{} in {} ({} hits)", t.check, t.func, t.hits))
                .unwrap_or_else(|| "-".to_string());
            vec![
                r.name.clone(),
                format!("{}/{}", r.hot_sites, r.sites),
                r.total_hits.to_string(),
                format!("{:.0}%", r.top_share * 100.0),
                r.unelided_hot.to_string(),
                hottest,
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            &[
                "workload",
                "hot/sites",
                "checks run",
                "top-3 cost",
                "unelided hot",
                "hottest site"
            ],
            &rows
        )
    );
    match std::fs::write("BENCH_profile.json", f.to_json()) {
        Ok(()) => println!("wrote BENCH_profile.json"),
        Err(e) => eprintln!("could not write BENCH_profile.json: {e}"),
    }
}

fn fig_opt2_table(smoke: bool) {
    println!(
        "== E15: loop-optimizer executed-check cost, no-opt vs elim-only vs full{} ==\n",
        if smoke { " (smoke)" } else { "" }
    );
    let f = fig_opt2(smoke);
    let rows: Vec<Vec<String>> = f
        .rows
        .iter()
        .map(|r| {
            vec![
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
    println!(
        "{}",
        render(
            &[
                "workload",
                "strided",
                "no-opt",
                "elim-only",
                "full",
                "reduction",
                "hoist/widen"
            ],
            &rows
        )
    );
    println!(
        "geomean executed-check-cost reduction, strided subset: {:.1}% (target ≥15%)",
        f.geomean_reduction_strided() * 100.0
    );
    match std::fs::write("BENCH_opt2.json", f.to_json()) {
        Ok(()) => println!("wrote BENCH_opt2.json"),
        Err(e) => eprintln!("could not write BENCH_opt2.json: {e}"),
    }
}
