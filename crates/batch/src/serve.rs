//! `ccured serve` — a fault-tolerant, long-lived cure daemon.
//!
//! A batch run pays the pool spin-up and cache open per invocation. The
//! daemon keeps both resident instead: a worker pool and the
//! content-addressed whole-unit cache. A byte-identical unit is answered
//! from the cache; any other unit gets a full [`ccured::Curer::cure_source`]
//! (the one cure driver batch uses too), so a served cure is
//! byte-identical to a cold batch cure by construction.
//!
//! ## Protocol
//!
//! One UTF-8 request line per reply line over a unix domain socket:
//!
//! | request            | reply (single JSON line)                        |
//! |--------------------|-------------------------------------------------|
//! | `cure <path>`      | verdict, digest, check counts                   |
//! | `profile <path>`   | cure + execute, top hot check sites             |
//! | `explain <path>`   | static failures and optimizer attribution       |
//! | `status`           | lifetime counters, cache stats, worker health   |
//! | `reset`            | clears quarantine                               |
//! | `shutdown`         | acknowledges, then stops the server             |
//!
//! Every reply is **terminal**: `{"status":"ok",...}`,
//! `{"status":"error",...}`, or `{"status":"busy"}` — a client never
//! hangs on a wedged worker.
//!
//! ## Robustness model
//!
//! * **Per-request isolation** — every cure runs inside
//!   [`ccured::isolated`] under the configured wall-clock deadline
//!   ([`ccured::Curer::deadline`]); a pathological unit becomes a
//!   structured error, not a wedged worker.
//! * **Retry with backoff** — transient failures (worker panics
//!   surfaced as `Internal`, deadline overruns) are retried with capped
//!   exponential backoff; frontend and link errors are permanent and
//!   returned immediately.
//! * **Load shedding** — when the request queue is at capacity the
//!   server answers `busy` immediately instead of queueing unboundedly.
//! * **Supervision** — a supervisor thread respawns any worker that
//!   dies outside a cure (e.g. injected faults); the in-flight
//!   request's reply channel drops, which the connection handler turns
//!   into a terminal error for that client.
//! * **Quarantine** — a unit whose requests repeatedly kill workers or
//!   fail is quarantined: further requests for it are refused with a
//!   terminal error until a `reset`.
//!
//! Cure replies carry `fn_hits` (always 0) and `fn_misses` (the cured
//! program's function count; 0 on a unit-cache hit) so their schema
//! stays stable for clients that read them.

#![cfg(unix)]

use crate::cache::{Cache, CachedUnit};
use crate::engine::{profile_unit, record_cure};
use crate::hash::hex;
use crate::report::Verdict;
use ccured::{isolated, json, CureError, Curer};
use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration for one serve instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The curer every request is cured with. Its deadline (if any) is
    /// taken from `limits.deadline`, exactly as in a batch run.
    pub curer: Curer,
    /// Socket path; created on start, removed on stop.
    pub socket: PathBuf,
    /// Whole-unit cache directory (`None` disables it, so every `cure`
    /// runs the full pipeline).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads processing requests. 0 means 2.
    pub workers: usize,
    /// Per-request resource bounds: `deadline` bounds each cure,
    /// `max_stack_depth` sizes worker stacks, all four bound `profile`
    /// executions.
    pub limits: ccured_rt::Limits,
    /// Queue capacity before the server sheds load with `busy`.
    pub queue_cap: usize,
    /// Retries for transient failures (0 = no retry).
    pub max_retries: u32,
    /// Base backoff between retries; doubles per attempt, capped at
    /// 8 × base.
    pub backoff: Duration,
    /// Consecutive terminal failures before a unit is quarantined.
    pub quarantine_threshold: u32,
    /// Fault injection: a worker thread panics (outside the cure's
    /// isolation) when the request's source contains this substring.
    /// Exercises the supervisor/respawn path; tests only.
    pub fault_poison: Option<String>,
}

impl ServeConfig {
    /// A serve configuration with the default curer and limits.
    pub fn new(socket: PathBuf) -> Self {
        ServeConfig {
            curer: Curer::new(),
            socket,
            cache_dir: Some(PathBuf::from(".ccured-cache")),
            workers: 0,
            limits: ccured_rt::Limits::default(),
            queue_cap: 1024,
            max_retries: 2,
            backoff: Duration::from_millis(10),
            quarantine_threshold: 3,
            fault_poison: None,
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers == 0 {
            2
        } else {
            self.workers
        }
    }
}

/// One queued request: the raw line plus the channel the worker answers
/// on. If the worker dies mid-request the sender drops and the
/// connection handler observes `RecvError` — a guaranteed terminal
/// reply for the client.
struct Job {
    line: String,
    reply: mpsc::Sender<String>,
}

/// Lifetime counters, all atomic so a panicking worker can never poison
/// them.
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    cured: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    respawns: AtomicU64,
    unit_hits: AtomicU64,
    unit_misses: AtomicU64,
    retries: AtomicU64,
}

/// State shared by handlers, workers, and the supervisor.
struct Shared {
    cfg: ServeConfig,
    curer: Curer,
    config_fp: String,
    cache: Option<Cache>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// Consecutive-failure counts per request target; at
    /// `quarantine_threshold` the unit is refused until `reset`.
    quarantine: Mutex<HashMap<String, u32>>,
    stats: Stats,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    /// Locks a mutex, recovering from poisoning: every protected value
    /// here (queue of jobs, quarantine counters) stays internally
    /// consistent across a panic, and the daemon must keep serving after
    /// one.
    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A running cure daemon. Dropping the handle stops it.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the socket and starts the acceptor, worker pool, and
    /// supervisor.
    ///
    /// # Errors
    ///
    /// Socket bind/permission errors, cache-directory creation errors.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let cache = match &cfg.cache_dir {
            Some(d) => Some(Cache::open(d)?),
            None => None,
        };
        let _ = fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)?;

        let mut curer = cfg.curer.clone();
        curer.deadline(cfg.limits.deadline);
        let config_fp = cfg.curer.config_fingerprint();
        let shared = Arc::new(Shared {
            curer,
            config_fp,
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            quarantine: Mutex::new(HashMap::new()),
            stats: Stats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            cfg,
        });

        let workers = shared.cfg.effective_workers();
        let stack = (shared.cfg.limits.max_stack_depth * 64 * 1024).max(8 << 20);
        let handles: Vec<std::thread::JoinHandle<()>> = (0..workers)
            .map(|w| spawn_worker(&shared, w, stack))
            .collect::<io::Result<_>>()?;

        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccured-serve-supervisor".to_string())
                .spawn(move || supervise(shared, handles, stack))?
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ccured-serve-accept".to_string())
                .spawn(move || accept_loop(shared, listener))?
        };
        Ok(Server {
            shared,
            acceptor: Some(acceptor),
            supervisor: Some(supervisor),
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.shared.cfg.socket
    }

    /// Whether the server has begun shutting down.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown and joins every thread. Idempotent.
    pub fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        if let Some(h) = self.acceptor.take() {
            // The acceptor blocks in `accept`; one connection wakes it to
            // see the flag. The connect fails at once if it already exited.
            // If another server has since bound the socket path, the
            // connection reaches that one instead, so the join waits at
            // most a grace period rather than hang.
            let _ = UnixStream::connect(&self.shared.cfg.socket);
            let grace = Instant::now() + Duration::from_secs(1);
            while !h.is_finished() && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(1));
            }
            if h.is_finished() {
                let _ = h.join();
            }
        }
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let _ = fs::remove_file(&self.shared.cfg.socket);
    }

    /// Blocks until the server shuts down (a `shutdown` request or
    /// [`Server::stop`] from another thread).
    pub fn wait(&mut self) {
        while !self.is_shutdown() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sends one request line and returns the one-line reply — the client
/// side of the protocol, used by `ccured client` and the tests.
///
/// # Errors
///
/// Connection or I/O errors; a server-side failure is an `"error"`
/// reply, not an `Err`.
pub fn request(socket: &Path, line: &str) -> io::Result<String> {
    let mut stream = UnixStream::connect(socket)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    Ok(reply.trim_end().to_string())
}

fn spawn_worker(
    shared: &Arc<Shared>,
    idx: usize,
    stack: usize,
) -> io::Result<std::thread::JoinHandle<()>> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("ccured-serve-worker-{idx}"))
        .stack_size(stack)
        .spawn(move || worker_loop(shared))
}

/// Respawns dead workers until shutdown, then joins the pool.
fn supervise(shared: Arc<Shared>, mut handles: Vec<std::thread::JoinHandle<()>>, stack: usize) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        for slot in handles.iter_mut() {
            if slot.is_finished() && !shared.shutdown.load(Ordering::SeqCst) {
                if let Ok(fresh) = spawn_worker(&shared, usize::MAX, stack) {
                    let dead = std::mem::replace(slot, fresh);
                    let _ = dead.join(); // collect the panic payload
                    shared.stats.respawns.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    shared.queue_cv.notify_all();
    for h in handles {
        let _ = h.join();
    }
}

/// Accepts connections until shutdown. `accept` blocks, so a connection
/// is handed off the moment it arrives; [`Server::stop`] connects once to
/// wake the loop after setting the shutdown flag.
fn accept_loop(shared: Arc<Shared>, listener: UnixListener) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { break };
        let shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("ccured-serve-conn".to_string())
            .spawn(move || handle_connection(shared, stream));
    }
}

/// Reads request lines until EOF; every line gets exactly one terminal
/// reply line, whatever happens to the worker that serves it.
fn handle_connection(shared: Arc<Shared>, stream: UnixStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        let line = line.trim().to_string();
        if line.is_empty() {
            continue;
        }
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let reply = dispatch(&shared, line);
        if writer.write_all(reply.as_bytes()).is_err()
            || writer.write_all(b"\n").is_err()
            || writer.flush().is_err()
        {
            break;
        }
    }
}

/// Routes one request line to a terminal reply: control requests answer
/// inline; cure-family requests go through the queue to a worker.
fn dispatch(shared: &Arc<Shared>, line: String) -> String {
    // Control-plane requests never queue: they must work even when every
    // worker is wedged or the queue is full.
    match line.as_str() {
        "status" => return status_json(shared),
        "reset" => {
            shared.lock(&shared.quarantine).clear();
            return r#"{"status":"ok","kind":"reset"}"#.to_string();
        }
        "shutdown" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.queue_cv.notify_all();
            return r#"{"status":"ok","kind":"shutdown"}"#.to_string();
        }
        _ => {}
    }

    if shared.shutdown.load(Ordering::SeqCst) {
        shared.stats.busy.fetch_add(1, Ordering::Relaxed);
        return r#"{"status":"busy","reason":"shutting down"}"#.to_string();
    }

    let target = line.split_once(' ').map(|(_, p)| p.trim().to_string());
    let (tx, rx) = mpsc::channel();
    {
        let mut q = shared.lock(&shared.queue);
        if q.len() >= shared.cfg.queue_cap {
            // Load shedding: an explicit busy beats an unbounded queue.
            shared.stats.busy.fetch_add(1, Ordering::Relaxed);
            return r#"{"status":"busy","reason":"queue full"}"#.to_string();
        }
        q.push_back(Job { line, reply: tx });
    }
    shared.queue_cv.notify_one();

    // A worker that panics drops the sender mid-request; turn that into
    // a terminal error (and the supervisor respawns the worker). The
    // request's target unit takes the blame: a unit that keeps killing
    // workers quarantines just like one that keeps failing.
    match rx.recv_timeout(Duration::from_secs(120)) {
        Ok(reply) => reply,
        Err(_) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            if let Some(path) = &target {
                note_failure(shared, path);
            }
            r#"{"status":"error","error":"worker died while serving this request"}"#.to_string()
        }
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.lock(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
            }
        };
        let reply = serve_request(&shared, &job.line);
        // The client may have given up (recv timeout); a dead receiver
        // is not a worker problem.
        let _ = job.reply.send(reply);
    }
}

/// Parses and serves one data-plane request.
fn serve_request(shared: &Arc<Shared>, line: &str) -> String {
    let (cmd, arg) = match line.split_once(' ') {
        Some((c, a)) => (c, a.trim()),
        None => (line, ""),
    };
    match (cmd, arg.is_empty()) {
        ("cure", false) => cure_request(shared, arg),
        ("profile", false) => profile_request(shared, arg),
        ("explain", false) => explain_request(shared, arg),
        _ => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            json::object(|o| {
                o.str("status", "error").str(
                    "error",
                    &format!(
                        "unknown request `{line}` (expected cure|profile|explain|status|reset|shutdown <path>)"
                    ),
                );
            })
        }
    }
}

/// Reads the unit, honoring quarantine and the fault-injection flag.
fn read_unit(shared: &Arc<Shared>, path: &str) -> Result<String, String> {
    if let Some(n) = shared.lock(&shared.quarantine).get(path) {
        if *n >= shared.cfg.quarantine_threshold {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            return Err(error_reply(
                "quarantined",
                path,
                None,
                &format!("unit quarantined after {n} consecutive failures; `reset` to retry"),
            ));
        }
    }
    let source = fs::read_to_string(path).map_err(|e| {
        shared.stats.errors.fetch_add(1, Ordering::Relaxed);
        error_reply("unreadable", path, None, &e.to_string())
    })?;
    if let Some(poison) = &shared.cfg.fault_poison {
        if source.contains(poison.as_str()) {
            // Deliberately OUTSIDE `ccured::isolated`: this kills the
            // worker thread itself, exercising the supervisor respawn
            // and the reply-channel-drop path end to end.
            panic!("injected fault: poisoned unit `{path}`");
        }
    }
    Ok(source)
}

/// Classifies a cure error: transient failures are worth a retry.
fn transient(e: &CureError) -> bool {
    matches!(e, CureError::Internal(_) | CureError::Timeout { .. })
}

/// Notes a terminal failure against `path`; at the threshold the unit
/// is quarantined.
fn note_failure(shared: &Arc<Shared>, path: &str) {
    *shared
        .lock(&shared.quarantine)
        .entry(path.to_string())
        .or_insert(0) += 1;
}

fn cure_request(shared: &Arc<Shared>, path: &str) -> String {
    let source = match read_unit(shared, path) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    let started = Instant::now();
    let key = Cache::unit_key(&source, &shared.config_fp);

    // Fast path: a byte-identical unit served straight from the resident
    // whole-unit cache — no locks, no cure.
    if let Some(cache) = &shared.cache {
        if let Some(hit) = cache.load(key) {
            shared.stats.unit_hits.fetch_add(1, Ordering::Relaxed);
            shared.stats.cured.fetch_add(1, Ordering::Relaxed);
            shared.lock(&shared.quarantine).remove(path);
            return cure_reply(path, &hit, None, started);
        }
    }
    shared.stats.unit_misses.fetch_add(1, Ordering::Relaxed);

    // A full cure with capped exponential backoff on transient failures.
    let mut attempt = 0u32;
    let outcome = loop {
        match isolated(|| shared.curer.cure_source(&source)) {
            Ok(cured) => break Ok(cured),
            Err(e) if transient(&e) && attempt < shared.cfg.max_retries => {
                attempt += 1;
                shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                let backoff = shared.cfg.backoff * 2u32.pow(attempt - 1).min(8);
                std::thread::sleep(backoff);
            }
            Err(e) => break Err(e),
        }
    };

    match outcome {
        Ok(cured) => {
            let unit = record_cure(&cured, key, shared.cache.as_ref());
            shared.stats.cured.fetch_add(1, Ordering::Relaxed);
            shared.lock(&shared.quarantine).remove(path);
            let live = (cured.program.functions.len(), attempt);
            cure_reply(path, &unit, Some(live), started)
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            note_failure(shared, path);
            let detail = e.to_string();
            error_reply(Verdict::from(e).label(), path, Some(attempt), &detail)
        }
    }
}

fn profile_request(shared: &Arc<Shared>, path: &str) -> String {
    let source = match read_unit(shared, path) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    // Profiling needs the in-memory program and site table, which the
    // unit cache does not hold: always a full (isolated, deadline-bounded)
    // cure plus a sandboxed execution.
    match isolated(|| shared.curer.cure_source(&source)) {
        Ok(cured) => {
            let rows = isolated(|| Ok(profile_unit(&cured, shared.cfg.limits))).unwrap_or_default();
            shared.stats.cured.fetch_add(1, Ordering::Relaxed);
            shared.lock(&shared.quarantine).remove(path);
            json::object(|o| {
                o.str("status", "ok")
                    .str("kind", "profile")
                    .str("path", path);
                o.list("sites", rows.iter().take(10), |o, r| r.write_json(o));
            })
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            note_failure(shared, path);
            error_reply("cure-failed", path, None, &e.to_string())
        }
    }
}

fn explain_request(shared: &Arc<Shared>, path: &str) -> String {
    let source = match read_unit(shared, path) {
        Ok(s) => s,
        Err(reply) => return reply,
    };
    match isolated(|| shared.curer.cure_source(&source)) {
        Ok(cured) => {
            shared.stats.cured.fetch_add(1, Ordering::Relaxed);
            shared.lock(&shared.quarantine).remove(path);
            let r = &cured.report;
            json::object(|o| {
                o.str("status", "ok")
                    .str("kind", "explain")
                    .str("path", path)
                    .num("wild", r.kind_counts.wild)
                    .num("checks_inserted", r.checks_inserted.total())
                    .num("checks_elided", r.checks_elided.total())
                    .num("hoisted", r.checks_hoisted)
                    .num("widened", r.checks_widened);
                o.list(
                    "static_failures",
                    r.static_failures.iter().take(20),
                    |o, f| {
                        o.str("func", &f.func)
                            .str("check", f.check)
                            .str("message", &f.message);
                    },
                );
            })
        }
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            note_failure(shared, path);
            error_reply("cure-failed", path, None, &e.to_string())
        }
    }
}

fn status_json(shared: &Arc<Shared>) -> String {
    let quarantined = shared
        .lock(&shared.quarantine)
        .values()
        .filter(|n| **n >= shared.cfg.quarantine_threshold)
        .count();
    let s = &shared.stats;
    let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
    json::object(|o| {
        o.str("status", "ok")
            .str("kind", "status")
            .num("requests", n(&s.requests))
            .num("cured", n(&s.cured))
            .num("errors", n(&s.errors))
            .num("busy", n(&s.busy))
            .num("retries", n(&s.retries))
            .num("respawns", n(&s.respawns))
            .num("quarantined", quarantined)
            .num("queue_depth", shared.lock(&shared.queue).len())
            .num("workers", shared.cfg.effective_workers())
            .obj("unit_cache", |o| {
                o.num("hits", n(&s.unit_hits))
                    .num("misses", n(&s.unit_misses));
            })
            .num("uptime_ms", shared.started.elapsed().as_millis());
    })
}

/// The `ok` reply to `cure`. `live` is `None` for a unit-cache hit, else
/// the cured program's function count and the retries the cure took.
fn cure_reply(
    path: &str,
    unit: &CachedUnit,
    live: Option<(usize, u32)>,
    started: Instant,
) -> String {
    json::object(|o| {
        o.str("status", "ok")
            .str("kind", "cure")
            .str("path", path)
            .num("from_cache", live.is_none())
            .str("digest", &hex(unit.report_digest))
            .num("checks_inserted", unit.report.checks_inserted)
            .num("fn_hits", 0u32)
            .num("fn_misses", live.map_or(0, |(fns, _)| fns));
        if let Some((_, retries)) = live {
            o.num("retries", retries);
        }
        o.num("elapsed_ns", started.elapsed().as_nanos());
    })
}

/// The terminal error reply to a request about `path`; `retries` is
/// reported by `cure` only.
fn error_reply(kind: &str, path: &str, retries: Option<u32>, error: &str) -> String {
    json::object(|o| {
        o.str("status", "error").str("kind", kind).str("path", path);
        if let Some(n) = retries {
            o.num("retries", n);
        }
        o.str("error", error);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ccured-serve-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn start(dir: &Path) -> Server {
        let mut cfg = ServeConfig::new(dir.join("s.sock"));
        cfg.cache_dir = Some(dir.join("cache"));
        cfg.workers = 2;
        Server::start(cfg).unwrap()
    }

    /// Also pins the bytes of the `cure` miss and hit replies and of an
    /// error reply, `elapsed_ns` masked: perfbench's reply scanner and
    /// `ci/serve_smoke.py` read them.
    #[test]
    fn serves_cure_status_and_shuts_down() {
        let d = scratch("basic");
        let unit = d.join("u.c");
        let src = "int main(void) { int x; int *p; p = &x; *p = 3; return *p; }";
        fs::write(&unit, src).unwrap();
        let cured = Curer::new().cure_source(src).unwrap();
        let digest = hex(crate::hash::fnv1a(cured.report.canonical().as_bytes()));
        let mut srv = start(&d);
        let sock = srv.socket().to_path_buf();
        let path = unit.display().to_string();
        let masked = |line: &str| {
            let r = request(&sock, line).unwrap();
            let (head, ns) = r.split_once(r#""elapsed_ns":"#).expect("elapsed_ns");
            let ns = ns.strip_suffix('}').expect("last field");
            assert!(ns.bytes().all(|b| b.is_ascii_digit()), "{r}");
            format!(r#"{head}"elapsed_ns":N}}"#)
        };

        assert_eq!(
            masked(&format!("cure {path}")),
            format!(
                r#"{{"status":"ok","kind":"cure","path":"{path}","from_cache":false,"digest":"{digest}","checks_inserted":2,"fn_hits":0,"fn_misses":1,"retries":0,"elapsed_ns":N}}"#
            )
        );
        // Same bytes: whole-unit cache hit, same digest.
        assert_eq!(
            masked(&format!("cure {path}")),
            format!(
                r#"{{"status":"ok","kind":"cure","path":"{path}","from_cache":true,"digest":"{digest}","checks_inserted":2,"fn_hits":0,"fn_misses":0,"elapsed_ns":N}}"#
            )
        );

        let st = request(&sock, "status").unwrap();
        assert!(st.contains(r#""kind":"status""#), "{st}");
        assert!(st.contains(r#""unit_cache":{"hits":1,"misses":1}"#), "{st}");

        assert_eq!(
            request(&sock, "cure /nonexistent.c").unwrap(),
            r#"{"status":"error","kind":"unreadable","path":"/nonexistent.c","error":"No such file or directory (os error 2)"}"#
        );
        let unknown = request(&sock, "frobnicate x").unwrap();
        assert!(unknown.contains(r#""status":"error""#), "{unknown}");

        let down = request(&sock, "shutdown").unwrap();
        assert!(down.contains(r#""kind":"shutdown""#), "{down}");
        srv.wait();
        let _ = fs::remove_dir_all(&d);
    }

    /// `stop` returns even when the socket path no longer leads to its
    /// own acceptor: a second server started on the same path took it
    /// over, so the wake-up connection reaches that server instead.
    #[test]
    fn stop_returns_after_the_socket_path_is_taken_over() {
        let d = scratch("takeover");
        let mut first = start(&d);
        let mut second = start(&d);
        let st = request(second.socket(), "status").unwrap();
        assert!(st.contains(r#""kind":"status""#), "{st}");
        first.stop();
        second.stop();
        let _ = fs::remove_dir_all(&d);
    }

    /// Pins the cure reply's function counters: every cure of the
    /// three-function unit, the first one and the one after an edit to
    /// `f`, runs the whole pipeline, so both reply `fn_hits` 0 and
    /// `fn_misses` 3.
    #[test]
    fn function_level_warm_path_recures_only_the_edit() {
        let d = scratch("fn-counts");
        let unit = d.join("u.c");
        let v = |k: u32| {
            format!(
                "int f(int *p) {{ return *p + {k}; }}\n\
                 int g(int *p) {{ return *p * 2; }}\n\
                 int main(void) {{ int x; x = 1; return f(&x) + g(&x); }}\n"
            )
        };
        let mut srv = start(&d);
        let sock = srv.socket().to_path_buf();
        for k in [0, 1] {
            fs::write(&unit, v(k)).unwrap();
            let r = request(&sock, &format!("cure {}", unit.display())).unwrap();
            assert!(r.contains(r#""from_cache":false"#), "{r}");
            assert!(r.contains(r#""fn_hits":0,"fn_misses":3"#), "{r}");
        }
        srv.stop();
        let _ = fs::remove_dir_all(&d);
    }
}
