//! The `recure` workload: a closed loop of edit-and-recure requests
//! against an in-process `ccured serve`.
//!
//! It uses the cure layers the opposite way to `cure`: it reads the caches
//! instead of writing them. The back half of each edited unit is replayed
//! from the per-unit `FnCache`; the whole-program front half runs again on
//! every request. It is the only workload that exercises `batch::serve`
//! and `core::incr`.

use crate::common::{
    curer_for, field, ir_instrs, matches_reference, num, peak_rss_mb, prelude_bytes, run_cured,
    run_original, secs, Digest, HostClock,
};
use crate::corpus::{self, Class, Req, ReqKind, Unit, BLOCK, BLOCK_MIX};
use crate::report::Outcome;
use crate::stats::{geomean, median, size_summary, tail};
use crate::trace::Tracer;
use crate::Args;
use ccured::Cured;
use ccured_batch::hash::{fnv1a, hex};
use ccured_batch::{request, ServeConfig, Server};
use ccured_rt::CostModel;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Script blocks that always run; the determinism digest, the check
/// counts and `cost_ratio` are taken over them so they do not depend on
/// how many requests fit in `--seconds`.
const FIXED_BLOCKS: usize = 10;
/// Script length; far more than a run can send.
const SCRIPT_BLOCKS: usize = 5000;

/// A started server with its corpus on disk and each unit's edit state.
struct Session {
    server: Server,
    units: Vec<Unit>,
    paths: Vec<PathBuf>,
    offsets: Vec<Vec<usize>>,
    edits: Vec<Vec<u64>>,
    current: Vec<String>,
    warm: Vec<String>,
}

/// Generates the corpus, starts the server, and warms it with one cold
/// request per unit (the timed set-up).
fn start(seed: u64, dir: &Path, workers: usize) -> Session {
    let units = corpus::recure_corpus(seed);
    let ws: Vec<_> = units.iter().map(|u| u.w.clone()).collect();
    let paths = ccured_workloads::write_units(dir, &ws).expect("write units");
    let offsets: Vec<Vec<usize>> = units
        .iter()
        .map(|u| corpus::body_offsets(&u.w.source))
        .collect();
    let mut cfg = ServeConfig::new(dir.join("serve.sock"));
    cfg.curer = curer_for(true);
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.workers = workers;
    let server = Server::start(cfg).expect("start server");
    let warm = paths
        .iter()
        .map(|p| request(server.socket(), &format!("cure {}", p.display())).expect("warm-up"))
        .collect();
    Session {
        edits: offsets.iter().map(|o| vec![0; o.len()]).collect(),
        current: units.iter().map(|u| u.w.source.clone()).collect(),
        server,
        units,
        paths,
        offsets,
        warm,
    }
}

/// One request as the client saw it.
struct Rec {
    block: usize,
    kind: ReqKind,
    src: u64,
    lat_ms: f64,
    reply: String,
}

impl Rec {
    fn ok(&self) -> bool {
        field(&self.reply, "status") == Some("ok")
    }

    fn cache_hit(&self) -> bool {
        field(&self.reply, "from_cache") == Some("true")
    }

    fn server_ms(&self) -> f64 {
        num(&self.reply, "elapsed_ns").unwrap_or(0) as f64 * 1e-6
    }
}

/// Sends block `b` of the script to `s`'s server, one request at a time,
/// each inside a span of `tr`. The edit is written to the unit's file
/// before the clock starts. Each source not sent before is noted in
/// `sources` (as its unit and edit state) and queued in `pending` for a
/// cold reference cure.
fn send_block(
    s: &mut Session,
    script: &[Req],
    b: usize,
    tr: &mut Tracer,
    sources: &mut HashMap<u64, (usize, Vec<u64>)>,
    pending: &mut Vec<u64>,
) -> Vec<Rec> {
    let mut recs = Vec::with_capacity(BLOCK);
    for (j, req) in script[b * BLOCK..(b + 1) * BLOCK].iter().enumerate() {
        let id = (b * BLOCK + j) as u64;
        let Req {
            kind,
            unit: u,
            func,
        } = *req;
        if kind != ReqKind::Unchanged {
            let f = (func % s.offsets[u].len() as u64) as usize;
            s.edits[u][f] = id + 1;
            s.current[u] = corpus::render(&s.units[u].w.source, &s.offsets[u], &s.edits[u]);
            std::fs::write(&s.paths[u], &s.current[u]).expect("write edit");
        }
        let h = fnv1a(s.current[u].as_bytes());
        if let std::collections::hash_map::Entry::Vacant(e) = sources.entry(h) {
            e.insert((u, s.edits[u].clone()));
            pending.push(h);
        }
        let line = format!("cure {}", s.paths[u].display());
        let t = Instant::now();
        tr.begin("request", Some(id));
        let reply = request(s.server.socket(), &line)
            .unwrap_or_else(|e| format!(r#"{{"status":"client-error","error":"{e}"}}"#));
        tr.end();
        recs.push(Rec {
            block: b,
            kind,
            src: h,
            lat_ms: secs(t) * 1e3,
            reply,
        });
    }
    recs
}

/// A cold `Curer::cure_source` of one distinct source: the reference the
/// warm reply must match, and the time the request would take cold.
struct Oracle {
    /// The block whose host calibration covers this cure.
    bracket: usize,
    digest: String,
    text: u64,
    cure_s: f64,
    print_s: f64,
    timings: ccured::StageTimings,
    counts: ReportCounts,
}

/// The counts of a cure report that the per-layer metrics sum. Only these
/// are kept per source, so the benchmark's own memory does not grow with
/// the number of requests a run sends.
struct ReportCounts {
    solver_iterations: u64,
    inserted: u64,
    elided: u64,
    hoisted: u64,
    widened: u64,
}

/// Digest of the warm-up replies: digests and fn-cache hits and misses.
fn warm_digest(warm: &[String]) -> u64 {
    let mut d = Digest::default();
    for r in warm {
        d.add(fnv1a(field(r, "digest").unwrap_or_default().as_bytes()));
        d.add(num(r, "fn_hits").unwrap_or(u64::MAX));
        d.add(num(r, "fn_misses").unwrap_or(u64::MAX));
    }
    d.value()
}

/// The counters a `status` reply carries that the workload reports.
fn status_counts(reply: &str) -> [u64; 6] {
    let unit = reply.split("\"unit_cache\":").nth(1).unwrap_or_default();
    [
        num(unit, "hits").unwrap_or(0),
        num(unit, "misses").unwrap_or(0),
        num(reply, "errors").unwrap_or(0),
        num(reply, "retries").unwrap_or(0),
        num(reply, "busy").unwrap_or(0),
        num(reply, "respawns").unwrap_or(0),
    ]
}

/// Runs the `recure` workload.
pub fn run(args: &Args, dir: &Path, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();

    // One set-up serves the timed window; the others only time set-up,
    // after the window, so the peak RSS read at its end covers one.
    let mut clock = HostClock::new();
    let ((mut s, first), host) = clock.measure(1, || {
        let t = Instant::now();
        (start(args.seed, &dir.join("s0"), args.jobs), secs(t))
    });
    let mut setups = vec![first];
    let mut setup_host = vec![host];
    let warm_digest = warm_digest(&s.warm);
    for (i, r) in s.warm.iter().enumerate() {
        if field(r, "status") != Some("ok") {
            out.fail(format!("warm-up of {}: {r}", s.units[i].w.name));
        }
    }

    // In the traced run a second server, started the same way and never
    // traced, gets the same requests block by block, in alternating order:
    // `trace.overhead` compares the two servers' times for the same blocks.
    let mut shadow = args
        .trace
        .then(|| start(args.seed, &dir.join("shadow"), args.jobs));
    if let Some(sh) = &shadow {
        if self::warm_digest(&sh.warm) != warm_digest {
            out.fail("warm-up replies differ between set-ups of the same seed".into());
        }
    }
    let mut off = Tracer::new(false, Instant::now());

    let script = corpus::request_script(args.seed, &s.units, SCRIPT_BLOCKS);
    let status =
        |s: &Session| status_counts(&request(s.server.socket(), "status").expect("status"));
    let status0 = status(&s);
    let shadow0 = shadow.as_ref().map(status);
    // Each distinct source is kept as its unit and edit state. After
    // every block the client cures the block's new sources cold, so the
    // reference cures see the same phases of the host as the requests.
    let mut sources: HashMap<u64, (usize, Vec<u64>)> = HashMap::new();
    let mut oracle: HashMap<u64, Oracle> = HashMap::new();
    let mut pending: Vec<u64> = Vec::new();
    for (u, src) in s.current.iter().enumerate() {
        let h = fnv1a(src.as_bytes());
        if sources.insert(h, (u, s.edits[u].clone())).is_none() {
            pending.push(h);
        }
    }
    let units = s.units.clone();
    let offsets = s.offsets.clone();
    let source = |sources: &HashMap<u64, (usize, Vec<u64>)>, h: &u64| -> String {
        let (u, edits) = &sources[h];
        corpus::render(&units[*u].w.source, &offsets[*u], edits)
    };
    let curer = curer_for(true);
    let cold = |src: &str, bracket: usize| -> (Oracle, Cured) {
        let t = Instant::now();
        let cured = curer.cure_source(src).expect("recure source cures cold");
        let cure_s = secs(t);
        let t = Instant::now();
        let text = fnv1a(ccured_cil::pretty::dump_program(&cured.program).as_bytes());
        let print_s = secs(t);
        let o = Oracle {
            bracket,
            digest: hex(fnv1a(cured.report.canonical().as_bytes())),
            text,
            cure_s,
            print_s,
            timings: cured.timings,
            counts: ReportCounts {
                solver_iterations: cured.report.solver_iterations as u64,
                inserted: cured.report.checks_inserted.total() as u64,
                elided: cured.report.checks_elided.total(),
                hoisted: cured.report.checks_hoisted,
                widened: cured.report.checks_widened,
            },
        };
        (o, cured)
    };
    let base: Vec<u64> = s.current.iter().map(|c| fnv1a(c.as_bytes())).collect();
    let mut snapshot: Vec<u64> = base.clone();
    let mut recs: Vec<Rec> = Vec::new();
    let mut shadow_recs: Vec<Rec> = Vec::new();
    let mut block_host: Vec<f64> = Vec::new();

    // The timed window: one client, one request at a time. The edit is
    // written to the unit's file before the clock starts.
    let start_t = Instant::now();
    let mut b = 0;
    while b < SCRIPT_BLOCKS && (secs(start_t) < args.seconds || b < FIXED_BLOCKS) {
        let bracket = clock.open(1);
        for h in pending.drain(..) {
            let (o, _) = cold(&source(&sources, &h), b);
            oracle.insert(h, o);
        }
        let shadow_first = b % 2 == 1;
        if let Some(sh) = shadow.as_mut().filter(|_| shadow_first) {
            let r = send_block(sh, &script, b, &mut off, &mut sources, &mut pending);
            shadow_recs.extend(r);
        }
        recs.extend(send_block(
            &mut s,
            &script,
            b,
            tr,
            &mut sources,
            &mut pending,
        ));
        if let Some(sh) = shadow.as_mut().filter(|_| !shadow_first) {
            let r = send_block(sh, &script, b, &mut off, &mut sources, &mut pending);
            shadow_recs.extend(r);
        }
        block_host.push(clock.close(1, bracket));
        b += 1;
        if b == FIXED_BLOCKS {
            snapshot = s.current.iter().map(|c| fnv1a(c.as_bytes())).collect();
        }
    }
    let blocks = b;
    let rss = peak_rss_mb();
    let delta: Vec<u64> = status(&s)
        .iter()
        .zip(&status0)
        .map(|(a, b)| a - b)
        .collect();
    s.server.stop();
    let mut failures = delta[2..].to_vec();
    if let (Some(sh), Some(before)) = (shadow.as_mut(), shadow0) {
        let d = status(sh);
        failures.extend((2..6).map(|k| d[k] - before[k]));
        sh.server.stop();
    }
    let bracket = clock.open(1);
    for h in pending.drain(..) {
        let (o, _) = cold(&source(&sources, &h), blocks);
        oracle.insert(h, o);
    }
    block_host.push(clock.close(1, bracket));
    for k in 1..SETUPS {
        let sub = dir.join(format!("s{k}"));
        let ((mut extra, t), host) = clock.measure(1, || {
            let t = Instant::now();
            (start(args.seed, &sub, args.jobs), secs(t))
        });
        setups.push(t);
        setup_host.push(host);
        extra.server.stop();
        if self::warm_digest(&extra.warm) != warm_digest {
            out.fail("warm-up replies differ between set-ups of the same seed".into());
        }
        let _ = std::fs::remove_dir_all(&sub);
    }

    // Gates, outside the timed window: every reply is terminal `ok`, and
    // each reply's digest equals a cold cure's of the same source.
    for (r, h) in s.warm.iter().zip(&base) {
        if field(r, "digest") != Some(oracle[h].digest.as_str()) {
            out.fail(format!("warm-up digest differs from a cold cure: {r}"));
        }
    }
    for r in recs.iter().chain(&shadow_recs) {
        out.attempted += 1;
        if !r.ok() {
            out.fail(format!("request for {}: {}", r.kind.label(), r.reply));
        } else if field(&r.reply, "digest") != Some(oracle[&r.src].digest.as_str()) {
            out.fail(format!(
                "{} reply digest differs from a cold cure: {}",
                r.kind.label(),
                r.reply
            ));
        }
    }
    if failures.iter().any(|v| *v != 0) {
        out.fail(format!(
            "server status reports errors/retries/busy/respawns {failures:?}"
        ));
    }

    // Each unit as it stood after the fixed blocks must still run to its
    // reference; `cost_ratio` is taken over those sources.
    let model = CostModel::default();
    let mut ratios = Vec::new();
    let mut det = Digest::default();
    det.add(warm_digest);
    for (u, h) in s.units.iter().zip(&snapshot) {
        out.attempted += 1;
        let mut w = u.w.clone();
        w.source = source(&sources, h);
        w.with_wrappers = true;
        let (_, c) = cold(&w.source, blocks);
        let cured = run_cured(&c, &w.input);
        let orig = run_original(&w);
        if !matches_reference(&w, &cured, &orig) {
            out.fail(format!(
                "{}: cured run {:?} vs original {:?}",
                w.name, cured.exit, orig.exit
            ));
        }
        ratios.push(model.ratio(&cured.counters, &orig.counters));
        det.add_counters(&cured.counters);
    }
    let cost_ratio = geomean(&ratios);
    det.add(cost_ratio.to_bits());
    let fixed: Vec<&Rec> = recs.iter().filter(|r| r.block < FIXED_BLOCKS).collect();
    for r in &fixed {
        det.add(oracle[&r.src].text);
        det.add(u64::from(r.cache_hit()));
        det.add(num(&r.reply, "fn_hits").unwrap_or(u64::MAX));
        det.add(num(&r.reply, "fn_misses").unwrap_or(u64::MAX));
    }

    // The share of parsed bytes that are the prelude, over the requests
    // of the fixed blocks that the server cured (unit-cache hits parse
    // nothing).
    let fixed_cured: Vec<&&Rec> = fixed.iter().filter(|r| !r.cache_hit()).collect();
    let parsed: usize = fixed_cured
        .iter()
        .map(|r| source(&sources, &r.src).len() + prelude_bytes(true))
        .sum();
    let prelude_share = (fixed_cured.len() * prelude_bytes(true)) as f64 / parsed as f64;
    let lines: Vec<usize> = s.units.iter().map(|u| u.w.lines()).collect();
    let (lo, mid, p90, hi) = size_summary(&lines);
    let share = |k: ReqKind| recs.iter().filter(|r| r.kind == k).count() as f64 / recs.len() as f64;
    out.line(format!(
        "# recure seed={} units={} (small={} large={}) workers={} clients=1 requests={} blocks={blocks} inputs={:016x} script={:016x}",
        args.seed,
        s.units.len(),
        s.units.iter().filter(|u| u.class != Class::Large).count(),
        s.units.iter().filter(|u| u.class == Class::Large).count(),
        args.jobs,
        recs.len(),
        corpus::fingerprint(s.units.iter().map(|u| &u.w)),
        corpus::script_fingerprint(&script)
    ));
    out.line(format!(
        "# inputs: unit lines min={lo} p50={mid} p90={p90} max={hi}; prelude_share={prelude_share:.4}; requests edit={:.3} unchanged={:.3} large={:.3} (block of {BLOCK}: {BLOCK_MIX:?}); unchanged served from the unit cache={:.3}",
        share(ReqKind::Edit),
        share(ReqKind::Unchanged),
        share(ReqKind::Large),
        recs.iter().filter(|r| r.kind == ReqKind::Unchanged && r.cache_hit()).count() as f64
            / recs.iter().filter(|r| r.kind == ReqKind::Unchanged).count().max(1) as f64
    ));
    out.line(format!(
        "# determinism digest={:016x} (warm-up and first {FIXED_BLOCKS} blocks: digests, fn hits/misses, cured text, counters, cost_ratio)",
        det.value()
    ));

    // What drives a block's time: each request kind's share of the summed
    // latency, and its median latency.
    let total_ms: f64 = recs.iter().map(|r| r.lat_ms).sum();
    let by_kind: Vec<String> = [ReqKind::Edit, ReqKind::Unchanged, ReqKind::Large]
        .iter()
        .map(|&k| {
            let ms: Vec<f64> = recs
                .iter()
                .filter(|r| r.kind == k)
                .map(|r| r.lat_ms)
                .collect();
            format!(
                "{}={:.3} (p50 {:.3} ms)",
                k.label(),
                ms.iter().sum::<f64>() / total_ms,
                median(&ms)
            )
        })
        .collect();
    out.line(format!(
        "# block time by request kind: {}",
        by_kind.join(" ")
    ));

    // Per-block sums over one server's requests, which are in block order.
    let block_sum = |lane: &[Rec], pick: &dyn Fn(&Rec) -> f64| -> Vec<f64> {
        lane.chunks(BLOCK)
            .map(|c| c.iter().map(pick).sum())
            .collect()
    };
    let lat: Vec<f64> = recs.iter().map(|r| r.lat_ms).collect();
    let lat_tail = tail(&lat);
    out.line(clock.line());
    if !args.trace {
        let setup_s = median(&setups);
        let p50 = median(&lat);
        let at_ref_lat: Vec<f64> = recs
            .iter()
            .map(|r| r.lat_ms * block_host[r.block])
            .collect();
        let ref_tail = tail(&at_ref_lat);
        out.set(
            "setup_s",
            median(
                &setups
                    .iter()
                    .zip(&setup_host)
                    .map(|(s, f)| s * f)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "pass_s",
            median(&block_sum(&recs, &|r| {
                r.lat_ms * 1e-3 * block_host[r.block]
            })),
        );
        out.set(
            "oracle_pass_s",
            median(&block_sum(&recs, &|r| {
                let o = &oracle[&r.src];
                o.cure_s * block_host[o.bracket]
            })),
        );
        out.set("p50_ms", median(&at_ref_lat));
        out.set("tail_ms", ref_tail.value);
        out.set("cost_ratio", cost_ratio);
        out.set("peak_rss_mb", rss);
        out.line(format!(
            "# named (raw wall-clock): setup_s={setup_s:.6} s recure_p50_ms={p50:.4} ms recure_tail_ms={:.4} ms (p{:.2} of {} requests) cost_ratio={cost_ratio:.6} x peak_rss_mb={rss:.1} MB fail_frac={} ({}/{})",
            lat_tail.value,
            lat_tail.percentile,
            lat_tail.samples,
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ));
        out.line(format!(
            "# at the reference host speed: recure_p50_ms={:.4} ms recure_tail_ms={:.4} ms (p{:.2} of {} requests)",
            median(&at_ref_lat),
            ref_tail.value,
            ref_tail.percentile,
            ref_tail.samples
        ));
        return out;
    }

    // Per-layer metrics. Stage times come from the cold reference cures
    // of each block's sources (the server re-runs the same stages but
    // does not expose their timings); unit-cache hits run no stages.
    let cured_recs: Vec<&Rec> = recs.iter().filter(|r| r.ok() && !r.cache_hit()).collect();
    let stage = |f: &dyn Fn(&ccured::StageTimings) -> std::time::Duration| -> f64 {
        median(&block_sum(&recs, &|r| {
            if r.cache_hit() {
                0.0
            } else {
                f(&oracle[&r.src].timings).as_secs_f64()
            }
        }))
    };
    out.set("ast.parse_s", stage(&|t| t.parse));
    out.set("cil.lower_s", stage(&|t| t.lower));
    out.set("infer.infer_s", stage(&|t| t.infer));
    out.set("core.instrument_s", stage(&|t| t.instrument));
    out.set("analysis.optimize_s", stage(&|t| t.optimize));
    out.set(
        "cil.print_s",
        median(&block_sum(&recs, &|r| {
            if r.cache_hit() {
                0.0
            } else {
                oracle[&r.src].print_s
            }
        })),
    );
    out.set("ast.prelude_share", prelude_share);
    let rep = |f: &dyn Fn(&ReportCounts) -> u64| -> f64 {
        fixed_cured
            .iter()
            .map(|r| f(&oracle[&r.src].counts))
            .sum::<u64>() as f64
    };
    out.set("infer.solver_iterations", rep(&|c| c.solver_iterations));
    let inserted = rep(&|c| c.inserted);
    out.set("core.checks_inserted", inserted);
    out.set("analysis.elided_ratio", rep(&|c| c.elided) / inserted);
    out.set("analysis.hoisted", rep(&|c| c.hoisted));
    out.set("analysis.widened", rep(&|c| c.widened));
    out.set(
        "cil.ir_instrs",
        fixed_cured
            .iter()
            .map(|r| {
                let text = crate::common::parsed_text(true, &source(&sources, &r.src));
                let tu = ccured_ast::parse_translation_unit(&text).expect("source parses");
                ir_instrs(&ccured_cil::lower_translation_unit(&tu).expect("source lowers"))
            })
            .sum::<u64>() as f64,
    );

    let fn_hits: u64 = cured_recs
        .iter()
        .map(|r| num(&r.reply, "fn_hits").unwrap_or(0))
        .sum();
    let fn_misses: u64 = cured_recs
        .iter()
        .map(|r| num(&r.reply, "fn_misses").unwrap_or(0))
        .sum();
    out.set(
        "incr.fn_hit_ratio",
        fn_hits as f64 / (fn_hits + fn_misses) as f64,
    );
    let front: f64 = cured_recs
        .iter()
        .map(|r| {
            let t = &oracle[&r.src].timings;
            (t.parse + t.lower + t.infer).as_secs_f64()
        })
        .sum();
    let server: f64 = cured_recs.iter().map(|r| r.server_ms() * 1e-3).sum();
    out.set("incr.front_half_share", front / server);
    let overhead: Vec<f64> = recs.iter().map(|r| r.lat_ms - r.server_ms()).collect();
    out.set("serve.overhead_p50_ms", median(&overhead));
    let server_ms: Vec<f64> = recs.iter().map(Rec::server_ms).collect();
    out.set("serve.cure_p50_ms", median(&server_ms));
    out.set("serve.cure_tail_ms", tail(&server_ms).value);
    out.set(
        "serve.unit_hit_ratio",
        delta[0] as f64 / (delta[0] + delta[1]) as f64,
    );
    out.set("serve.errors", delta[2] as f64);
    out.set("serve.retries", delta[3] as f64);
    out.set("serve.busy", delta[4] as f64);
    out.set("serve.respawns", delta[5] as f64);
    out.set(
        "trace.overhead",
        median(&block_sum(&recs, &|r| r.lat_ms)) / median(&block_sum(&shadow_recs, &|r| r.lat_ms))
            - 1.0,
    );
    out
}
