//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the calls it makes into the
//! crates' public functions; nothing is recorded inside the program. A
//! disabled tracer records nothing, so the untraced runs pay one branch per
//! would-be span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `parse` or `interp.run`.
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// The traced pass this span belongs to.
    pub pass: u32,
    /// Request id (recure) or program/unit index (exec, cure).
    pub key: Option<u64>,
    /// Recording thread (0 is the main thread).
    pub thread: u32,
}

/// A span recorder for one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u32,
    pass: u32,
    base_parent: Option<usize>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            thread: 0,
            pass: 0,
            base_parent: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for a worker thread whose top-level spans are children
    /// of `parent` in the main thread's recorder.
    pub fn worker(&self, thread: u32, parent: Option<usize>) -> Self {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            thread,
            pass: self.pass,
            base_parent: parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the pass number stamped on subsequent spans.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Opens a span; returns its index (meaningless when off).
    pub fn begin(&mut self, name: &'static str, key: Option<u64>) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let parent = self.open.last().copied();
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            pass: self.pass,
            key,
            thread: self.thread,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now();
        let id = self.open.pop().expect("end without begin");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name, None);
        let r = f();
        self.end();
        r
    }

    /// Appends a worker's spans, re-basing its internal parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => other.base_parent,
            };
            self.spans.push(s);
        }
    }

    /// Self time (seconds) per span name within `pass`: each span's
    /// duration minus the part its direct children cover.
    pub fn self_times(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.pass != pass {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Total duration (seconds) of the spans named `name` within `pass`,
    /// grouped by key.
    pub fn by_key(&self, pass: u32, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            if s.pass == pass && s.name == name {
                *out.entry(s.key.unwrap_or(0)).or_insert(0.0) +=
                    (s.end_ns - s.start_ns) as f64 * 1e-9;
            }
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    ///
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().enumerate() {
            let _ = write!(
                s,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"pass":{},"thread":{}"#,
                sp.name, sp.start_ns, sp.end_ns, sp.pass, sp.thread
            );
            if let Some(p) = sp.parent {
                let _ = write!(s, r#","parent":{p}"#);
            }
            if let Some(k) = sp.key {
                let _ = write!(s, r#","key":{k}"#);
            }
            s.push_str("}\n");
        }
        std::fs::write(path, s)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.begin("outer", None);
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        let st = t.self_times(0);
        assert!(st["inner"] >= 0.005);
        assert!(st["outer"] < st["inner"]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("x", || ());
        assert!(t.self_times(0).is_empty());
    }

    #[test]
    fn merged_worker_spans_point_at_main_thread_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.begin("pass", None);
        let mut w = t.worker(1, Some(root));
        w.begin("unit", None);
        w.span("parse", || ());
        w.end();
        t.merge(w);
        t.end();
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!(t.spans[2].parent, Some(1));
    }
}
