//! Failure matrix and soak coverage for the cure daemon (`ccured serve`):
//! injected worker panics are survived and respawned, deadline-exceeded
//! units become terminal errors while the server stays up, quarantined
//! units are retried after `reset`, corrupt cache entries read as misses
//! never errors, a warm server's recure of edited units agrees
//! byte-for-byte (by report digest) with a cold `ccured batch` at any
//! `--jobs`, and a multi-client soak gets a terminal reply for every
//! request.

#![cfg(unix)]

use ccured_batch::{request, run_batch, BatchConfig, ServeConfig, Server, Verdict};
use std::path::{Path, PathBuf};

/// A scratch directory that cleans up after itself.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("ccured-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn config(dir: &Path) -> ServeConfig {
    let mut cfg = ServeConfig::new(dir.join("cc.sock"));
    cfg.cache_dir = Some(dir.join("cache"));
    cfg.workers = 2;
    cfg
}

fn field_u64(json: &str, name: &str) -> u64 {
    json.split(&format!("\"{name}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
        })
        .unwrap_or_else(|| panic!("no field `{name}` in {json}"))
}

fn field_str(json: &str, name: &str) -> String {
    json.split(&format!("\"{name}\":\""))
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_else(|| panic!("no field `{name}` in {json}"))
        .to_string()
}

#[test]
fn injected_worker_panic_is_respawned_and_serving_continues() {
    let scratch = Scratch::new("panic");
    let poisoned = scratch.0.join("poison.c");
    std::fs::write(&poisoned, "/* PANIC_HERE */ int main(void) { return 0; }").unwrap();
    let healthy = scratch.0.join("ok.c");
    std::fs::write(&healthy, "int main(void) { int x; x = 4; return x; }").unwrap();

    let mut cfg = config(&scratch.0);
    cfg.fault_poison = Some("PANIC_HERE".to_string());
    cfg.max_retries = 0;
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();

    // The poisoned unit kills its worker — the client still gets a
    // terminal error, never a hang.
    let r = request(&sock, &format!("cure {}", poisoned.display())).unwrap();
    assert!(r.contains("\"status\":\"error\""), "{r}");
    assert!(r.contains("worker died"), "{r}");

    // The supervisor respawns the worker and the pool keeps serving: a
    // healthy batch of requests after the panic all succeed.
    for _ in 0..8 {
        let r = request(&sock, &format!("cure {}", healthy.display())).unwrap();
        assert!(r.contains("\"status\":\"ok\""), "{r}");
    }
    // Respawn is observable in status (give the 20ms supervisor poll a
    // moment to notice the dead thread).
    let mut respawns = 0;
    for _ in 0..100 {
        respawns = field_u64(&request(&sock, "status").unwrap(), "respawns");
        if respawns >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(respawns >= 1, "supervisor never recorded the respawn");
    srv.stop();
}

#[test]
fn deadline_exceeded_cure_is_terminal_and_server_stays_up() {
    let scratch = Scratch::new("deadline");
    let unit = scratch.0.join("u.c");
    std::fs::write(&unit, "int main(void) { return 0; }").unwrap();

    let mut cfg = config(&scratch.0);
    // Zero budget trips at the first stage boundary on any machine; no
    // retries so the reply is immediate.
    cfg.limits = cfg.limits.with_deadline_ms(0);
    cfg.cache_dir = None;
    cfg.max_retries = 0;
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();

    let r = request(&sock, &format!("cure {}", unit.display())).unwrap();
    assert!(r.contains("\"kind\":\"resource-exhausted\""), "{r}");
    assert!(r.contains("deadline exceeded"), "{r}");

    // The server is still healthy: status works and reports the error.
    let st = request(&sock, "status").unwrap();
    assert!(st.contains("\"status\":\"ok\""), "{st}");
    assert!(field_u64(&st, "errors") >= 1, "{st}");
    srv.stop();
}

#[test]
fn transient_failures_are_retried_with_backoff() {
    let scratch = Scratch::new("retry");
    let unit = scratch.0.join("u.c");
    std::fs::write(&unit, "int main(void) { return 0; }").unwrap();

    let mut cfg = config(&scratch.0);
    cfg.limits = cfg.limits.with_deadline_ms(0); // every attempt times out
    cfg.cache_dir = None;
    cfg.max_retries = 2;
    cfg.backoff = std::time::Duration::from_millis(1);
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();

    let r = request(&sock, &format!("cure {}", unit.display())).unwrap();
    assert!(r.contains("\"retries\":2"), "transient error retried: {r}");
    let st = request(&sock, "status").unwrap();
    assert_eq!(field_u64(&st, "retries"), 2, "{st}");

    // Permanent failures (a frontend error) are NOT retried.
    let broken = scratch.0.join("broken.c");
    std::fs::write(&broken, "int main(void { syntax error").unwrap();
    let r = request(&sock, &format!("cure {}", broken.display())).unwrap();
    assert!(
        r.contains("\"retries\":0"),
        "frontend error not retried: {r}"
    );
    srv.stop();
}

#[test]
fn quarantined_unit_is_refused_until_reset_then_retried() {
    let scratch = Scratch::new("quarantine");
    let broken = scratch.0.join("broken.c");
    std::fs::write(&broken, "int main(void { this does not parse").unwrap();

    let mut cfg = config(&scratch.0);
    cfg.quarantine_threshold = 2;
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();
    let line = format!("cure {}", broken.display());

    // Two consecutive failures reach the threshold...
    for _ in 0..2 {
        let r = request(&sock, &line).unwrap();
        assert!(r.contains("\"kind\":\"frontend-error\""), "{r}");
    }
    // ...after which the unit is refused without curing.
    let r = request(&sock, &line).unwrap();
    assert!(r.contains("\"kind\":\"quarantined\""), "{r}");
    let st = request(&sock, "status").unwrap();
    assert_eq!(field_u64(&st, "quarantined"), 1, "{st}");

    // `reset` clears the quarantine; the (fixed) unit cures again.
    let r = request(&sock, "reset").unwrap();
    assert!(r.contains("\"kind\":\"reset\""), "{r}");
    std::fs::write(&broken, "int main(void) { return 0; }").unwrap();
    let r = request(&sock, &line).unwrap();
    assert!(r.contains("\"status\":\"ok\""), "retried after reset: {r}");
    srv.stop();
}

#[test]
fn corrupt_cache_entries_are_misses_never_errors() {
    let scratch = Scratch::new("torture");
    let unit = scratch.0.join("u.c");
    std::fs::write(
        &unit,
        "int f(int *p) { return *p; }\nint main(void) { int x; x = 9; return f(&x); }",
    )
    .unwrap();
    let cache_dir = scratch.0.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();
    // Seed the cache directory with garbage before the server opens it:
    // orphaned temp files, truncated entries, binary junk.
    std::fs::write(cache_dir.join(".deadbeef.99.0.tmp"), b"half a write").unwrap();
    std::fs::write(
        cache_dir.join("0123456789abcdef.unit"),
        b"ccured-batch-cache 1\ndigest",
    )
    .unwrap();
    std::fs::write(
        cache_dir.join("f00df00df00df00d.unit"),
        [0u8, 159, 146, 150],
    )
    .unwrap();

    let mut srv = Server::start(config(&scratch.0)).expect("start sweeps the garbage");
    let sock = srv.socket().to_path_buf();
    let r = request(&sock, &format!("cure {}", unit.display())).unwrap();
    assert!(r.contains("\"status\":\"ok\""), "{r}");
    assert!(r.contains("\"from_cache\":false"), "garbage is a miss: {r}");
    // Now corrupt the freshly written entry in place (it lives under a
    // two-hex shard subdirectory): the next cure must still be an `ok` (a
    // miss re-cures and rewrites), never an error.
    let mut corrupted = 0;
    let mut stack = vec![cache_dir.clone()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).unwrap().flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "unit") {
                std::fs::write(&p, b"torn to bits").unwrap();
                corrupted += 1;
            }
        }
    }
    assert!(corrupted > 0, "found the sharded entry to corrupt");
    let r = request(&sock, &format!("cure {}", unit.display())).unwrap();
    assert!(r.contains("\"status\":\"ok\""), "{r}");
    assert!(
        r.contains("\"from_cache\":false"),
        "corrupt entry is a miss: {r}"
    );
    let r = request(&sock, &format!("cure {}", unit.display())).unwrap();
    assert!(
        r.contains("\"from_cache\":true"),
        "rewritten entry hits: {r}"
    );
    srv.stop();
}

/// Offset just past the `{` that opens the first function body in `src`.
fn first_body_start(src: &str) -> usize {
    src.char_indices()
        .find(|&(i, c)| c == '{' && src[..i].trim_end().ends_with(')'))
        .map(|(i, _)| i + 1)
        .expect("unit defines a function")
}

/// A warm server's cures of edited units produce the same `CureReport`
/// digests as a cold full batch, at `--jobs 1` and `--jobs 4`. One edit
/// appends a function; the other adds a local at the top of a unit's
/// first function body, which renumbers every later qualifier.
#[test]
fn warm_server_recure_matches_cold_batch_at_any_jobs() {
    let scratch = Scratch::new("differential");
    let src = scratch.0.join("src");
    let units = ccured_workloads::write_units(&src, &ccured_workloads::batch_corpus())
        .expect("write corpus");

    // The daemon runs with the disk cache off so every request cures.
    let mut cfg = config(&scratch.0);
    cfg.cache_dir = None;
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();

    let mut first_digests = Vec::new();
    for u in &units {
        let r = request(&sock, &format!("cure {}", u.display())).unwrap();
        assert!(r.contains("\"status\":\"ok\""), "{}: {r}", u.display());
        first_digests.push(field_str(&r, "digest"));
    }
    // Touch one unit: append a trailing function and tweak nothing else.
    let touched = &units[units.len() / 2];
    let original = std::fs::read_to_string(touched).unwrap();
    std::fs::write(
        touched,
        format!("{original}\nint ccured_serve_extra(int v) {{ return v + 41; }}\n"),
    )
    .unwrap();
    // Touch another: a new pointer local first in its first function body.
    let renumbered = 5;
    let mut text = std::fs::read_to_string(&units[renumbered]).unwrap();
    text.insert_str(first_body_start(&text), " int *ccured_serve_pad = 0;");
    std::fs::write(&units[renumbered], text).unwrap();

    let mut warm_digests = Vec::new();
    for u in &units {
        let r = request(&sock, &format!("cure {}", u.display())).unwrap();
        assert!(r.contains("\"status\":\"ok\""), "{}: {r}", u.display());
        warm_digests.push(field_str(&r, "digest"));
    }
    assert_ne!(
        warm_digests[renumbered], first_digests[renumbered],
        "the new local must show in the report"
    );
    srv.stop();

    // Ground truth: a cold full batch over the *current* tree, sequential
    // and parallel. The daemon's warm digests must match both.
    for jobs in [1usize, 4] {
        let mut bcfg = BatchConfig::new(ccured::Curer::new());
        bcfg.jobs = jobs;
        bcfg.use_cache = false;
        let cold = run_batch(&bcfg, &units).expect("cold batch");
        for (u, digest) in cold.units.iter().zip(&warm_digests) {
            assert_eq!(u.verdict, Verdict::Cured, "{}", u.path);
            assert_eq!(
                &format!("{:016x}", u.report_digest),
                digest,
                "{}: warm server cure diverged from cold batch at jobs={jobs}",
                u.path
            );
        }
    }
}

/// Soak: many clients, thousands of mixed requests — healthy, unreadable,
/// malformed, empty — and every single one gets a terminal reply.
#[test]
fn soak_thousands_of_mixed_requests_all_get_terminal_replies() {
    let scratch = Scratch::new("soak");
    let good = scratch.0.join("good.c");
    std::fs::write(
        &good,
        "int main(void) { int a[4]; int i;\nfor (i = 0; i < 4; i++) a[i] = i;\nreturn a[3]; }",
    )
    .unwrap();
    let broken = scratch.0.join("broken.c");
    std::fs::write(&broken, "int main(void { nope").unwrap();
    let empty = scratch.0.join("empty.c");
    std::fs::write(&empty, "").unwrap();

    let mut cfg = config(&scratch.0);
    cfg.workers = 4;
    cfg.quarantine_threshold = u32::MAX; // keep the broken unit failing, not refused
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 250; // 2000 requests total
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let sock = sock.clone();
            let good = good.clone();
            let broken = broken.clone();
            let empty = empty.clone();
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(PER_CLIENT);
                for i in 0..PER_CLIENT {
                    let line = match (c + i) % 5 {
                        0 => format!("cure {}", good.display()),
                        1 => format!("cure {}", broken.display()),
                        2 => format!("cure {}", empty.display()),
                        3 => "status".to_string(),
                        _ => format!("explain {}", good.display()),
                    };
                    let t = std::time::Instant::now();
                    let reply = request(&sock, &line).expect("reply");
                    latencies.push(t.elapsed());
                    assert!(
                        reply.contains("\"status\":\"ok\"")
                            || reply.contains("\"status\":\"error\"")
                            || reply.contains("\"status\":\"busy\""),
                        "non-terminal reply to `{line}`: {reply}"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<std::time::Duration> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client"))
        .collect();
    assert_eq!(latencies.len(), CLIENTS * PER_CLIENT);

    // Reply-latency distribution: the soak is the worst traffic the daemon
    // sees in tests, so its percentiles bound the interactive experience.
    // The limits are deliberately loose (debug build, loaded CI boxes) —
    // they exist to catch unbounded-queueing regressions, not to bench.
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    let (p50, p99) = (pct(50), pct(99));
    assert!(p50 <= p99, "percentiles are ordered");
    assert!(
        p50 < std::time::Duration::from_secs(1),
        "p50 reply latency {p50:?} over the soak budget"
    );
    assert!(
        p99 < std::time::Duration::from_secs(10),
        "p99 reply latency {p99:?} over the soak budget"
    );

    let st = request(&sock, "status").unwrap();
    assert!(
        field_u64(&st, "requests") >= (CLIENTS * PER_CLIENT) as u64,
        "{st}"
    );
    // The repeated healthy cure is served from the unit cache once warm.
    assert!(field_u64(&st, "hits") >= 1, "{st}");
    srv.stop();
}

/// Load shedding: with a tiny queue and slow-to-drain workers, a burst of
/// requests gets explicit `busy` replies, not unbounded queueing.
#[test]
fn queue_pressure_sheds_load_with_busy() {
    let scratch = Scratch::new("shed");
    let unit = scratch.0.join("u.c");
    std::fs::write(&unit, "int main(void) { return 0; }").unwrap();

    let mut cfg = config(&scratch.0);
    cfg.cache_dir = None;
    cfg.workers = 1;
    cfg.queue_cap = 1;
    let mut srv = Server::start(cfg).expect("start");
    let sock = srv.socket().to_path_buf();

    let handles: Vec<_> = (0..16)
        .map(|_| {
            let sock = sock.clone();
            let unit = unit.clone();
            std::thread::spawn(move || request(&sock, &format!("cure {}", unit.display())).unwrap())
        })
        .collect();
    let replies: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(
        replies.iter().all(|r| r.contains("\"status\":")),
        "every reply terminal"
    );
    let ok = replies
        .iter()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .count();
    assert!(ok >= 1, "some requests must get through");
    // Whether any burst request sees `busy` is timing-dependent; the
    // invariant that matters is the queue never exceeded its cap.
    let st = request(&sock, "status").unwrap();
    assert!(field_u64(&st, "queue_depth") <= 1, "{st}");
    srv.stop();
}

/// Regression (unwrap audit): a manifest full of junk paths and a
/// zero-byte unit produce verdicts, never a panic or an `Err`.
#[test]
fn malformed_manifest_and_zero_byte_unit_produce_verdicts() {
    let scratch = Scratch::new("malformed");
    let manifest = scratch.0.join("units.txt");
    std::fs::write(scratch.0.join("empty.c"), "").unwrap();
    std::fs::write(
        &manifest,
        "# junk ahead\n/no/such/dir/missing.c\n   \nempty.c\nnot-even-a-c-file.txt\n",
    )
    .unwrap();
    let mut cfg = BatchConfig::new(ccured::Curer::new());
    cfg.use_cache = false;
    let report = ccured_batch::run_path(&cfg, &manifest).expect("junk inputs are verdicts");
    assert_eq!(report.units.len(), 3, "three non-comment entries");
    let by_path = |needle: &str| {
        report
            .units
            .iter()
            .find(|u| u.path.contains(needle))
            .unwrap_or_else(|| panic!("no unit for {needle}"))
    };
    assert!(
        matches!(by_path("missing.c").verdict, Verdict::Unreadable(_)),
        "{:?}",
        by_path("missing.c").verdict
    );
    // A zero-byte unit cures (to an empty program) or fails the frontend —
    // either is a verdict; what it must never do is wedge the batch.
    let empty = by_path("empty.c");
    assert!(
        matches!(
            empty.verdict,
            Verdict::Cured | Verdict::Frontend(_) | Verdict::Internal(_)
        ),
        "{:?}",
        empty.verdict
    );
    assert!(
        matches!(
            by_path("not-even-a-c-file").verdict,
            Verdict::Unreadable(_) | Verdict::Frontend(_)
        ),
        "{:?}",
        by_path("not-even-a-c-file").verdict
    );
}
