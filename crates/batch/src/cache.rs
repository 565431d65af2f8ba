//! The content-addressed on-disk cache (`.ccured-cache/`).
//!
//! One entry per cured unit, keyed by a stable FNV-1a hash of the unit's
//! source text, the curer's configuration fingerprint, and the crate
//! version — so editing a file, changing a flag, or upgrading the curer all
//! invalidate exactly the affected entries, and nothing else. Entries store
//! the cured program text, the flat report summary, the report digest, and
//! the original cure's per-stage timings (which is how a hit knows how much
//! time it saved per stage).
//!
//! The format is a small versioned text header followed by the cured
//! program bytes, length-prefixed so the text survives byte-exactly.
//! Corrupt or version-skewed entries are treated as misses and rewritten;
//! writers go through a unique temp file + rename so concurrent workers can
//! never expose a torn entry.
//!
//! Entries are sharded into 256 subdirectories named by the first two hex
//! characters of the key (`.ccured-cache/ab/ab….unit`), keeping directory
//! fanout flat on large corpora. Valid entries from the old flat layout
//! are migrated into their shard by the startup sweep, so warm caches
//! survive the layout change.

use crate::hash::{fnv1a, from_hex, hex};
use crate::report::UnitReport;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of cached pipeline stages (parse, lower, infer, instrument,
/// optimize).
pub const NSTAGES: usize = 5;

/// On-disk format version; bump on any layout change, and whenever
/// [`CureReport::canonical`](ccured::CureReport::canonical) changes shape,
/// so entries holding digests of the old rendering read as misses.
const FORMAT: u32 = 2;

/// Magic first line of every entry.
const MAGIC: &str = "ccured-batch-cache";

/// A cache entry: everything needed to serve a unit without re-curing it.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedUnit {
    /// Pretty-printed cured program (byte-exact).
    pub cured_text: String,
    /// Flat report summary.
    pub report: UnitReport,
    /// FNV-1a digest of the full `CureReport::canonical()` rendering.
    pub report_digest: u64,
    /// Original cure's per-stage cost in nanoseconds, pipeline order.
    pub timings_ns: [u64; NSTAGES],
}

/// Handle to one cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// Opens (creating if needed) the cache directory and runs a recovery
    /// sweep: orphaned `.tmp` files (a writer that died between write and
    /// rename) and corrupt or truncated `.unit` entries (a torn write from
    /// a killed process, disk-full, or manual tampering) are deleted. The
    /// sweep makes crash recovery *eager* — reads already treat corrupt
    /// entries as misses, the sweep just stops them accumulating.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory. Sweep failures (an entry that
    /// cannot be read or removed) are ignored: the lazy corrupt-is-a-miss
    /// path still guarantees correctness.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let cache = Cache {
            dir: dir.to_path_buf(),
        };
        cache.sweep();
        Ok(cache)
    }

    /// The startup recovery sweep (see [`Cache::open`]). Walks the shard
    /// subdirectories and the top level; valid entries still sitting flat
    /// at the top level (the pre-sharding layout) are moved into their
    /// shard. Returns how many files were deleted:
    /// `(orphaned_tmp, corrupt_entries)`.
    pub fn sweep(&self) -> (u64, u64) {
        let (mut tmp, mut corrupt) = (0u64, 0u64);
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) {
                    sweep_dir(&path, &mut tmp, &mut corrupt);
                }
            } else if name.ends_with(".unit") && from_hex(name.trim_end_matches(".unit")).is_some()
            {
                // A flat entry from the pre-sharding layout: migrate it if
                // it still parses, delete it otherwise.
                let ok = fs::read(&path).is_ok_and(|bytes| parse_entry(&bytes).is_some());
                if ok {
                    let shard = self.dir.join(&name[..2]);
                    if fs::create_dir_all(&shard).is_ok() {
                        let _ = fs::rename(&path, shard.join(&*name));
                    }
                } else if fs::remove_file(&path).is_ok() {
                    corrupt += 1;
                }
            } else if name.starts_with('.')
                && name.ends_with(".tmp")
                && fs::remove_file(&path).is_ok()
            {
                tmp += 1;
            }
        }
        (tmp, corrupt)
    }

    /// The stable cache key for one unit: source text + curer configuration
    /// + crate version, all content-addressed (no paths, no mtimes).
    pub fn unit_key(source: &str, config_fingerprint: &str) -> u64 {
        let composite = format!(
            "{MAGIC} {FORMAT}\nversion {}\nconfig {config_fingerprint}\nsource {}\n{source}",
            env!("CARGO_PKG_VERSION"),
            source.len(),
        );
        fnv1a(composite.as_bytes())
    }

    /// The shard subdirectory for a key: the first two hex characters.
    fn shard(&self, key: u64) -> PathBuf {
        self.dir.join(&hex(key)[..2])
    }

    fn entry_path(&self, key: u64) -> PathBuf {
        self.shard(key).join(format!("{}.unit", hex(key)))
    }

    /// Looks up an entry; any malformed/mismatched entry reads as a miss.
    pub fn load(&self, key: u64) -> Option<CachedUnit> {
        let bytes = fs::read(self.entry_path(key)).ok()?;
        parse_entry(&bytes)
    }

    /// Persists an entry via temp-file + rename.
    ///
    /// # Errors
    ///
    /// I/O errors writing or renaming.
    pub fn store(&self, key: u64, unit: &CachedUnit) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let shard = self.shard(key);
        fs::create_dir_all(&shard)?;
        // The temp file lives inside the shard so the rename stays within
        // one directory (atomic on every platform we care about).
        let tmp = shard.join(format!(".{}.{}.{}.tmp", hex(key), std::process::id(), seq));
        fs::write(&tmp, render_entry(unit))?;
        fs::rename(&tmp, self.entry_path(key))?;
        Ok(())
    }
}

/// Sweeps one shard directory: orphaned temp files and corrupt entries.
fn sweep_dir(dir: &Path, tmp: &mut u64, corrupt: &mut u64) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.is_file() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') && name.ends_with(".tmp") {
            // Writers rename away their temp file on success; anything
            // still here belongs to a writer that died mid-store.
            if fs::remove_file(&path).is_ok() {
                *tmp += 1;
            }
        } else if name.ends_with(".unit") {
            let bad = match fs::read(&path) {
                Ok(bytes) => parse_entry(&bytes).is_none(),
                Err(_) => true,
            };
            if bad && fs::remove_file(&path).is_ok() {
                *corrupt += 1;
            }
        }
    }
}

fn render_entry(u: &CachedUnit) -> Vec<u8> {
    let mut head = format!("{MAGIC} {FORMAT}\ndigest {}\ntimings", hex(u.report_digest));
    for t in u.timings_ns {
        head.push_str(&format!(" {t}"));
    }
    head.push('\n');
    for (name, v) in u.report.as_pairs() {
        head.push_str(&format!("{name} {v}\n"));
    }
    head.push_str(&format!("cured {}\n", u.cured_text.len()));
    let mut out = head.into_bytes();
    out.extend_from_slice(u.cured_text.as_bytes());
    out
}

/// Takes the next `\n`-terminated header line starting at `*pos`.
fn next_line<'a>(bytes: &'a [u8], pos: &mut usize) -> Option<&'a str> {
    let rest = bytes.get(*pos..)?;
    let end = rest.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&rest[..end]).ok()?;
    *pos += end + 1;
    Some(line)
}

fn parse_entry(bytes: &[u8]) -> Option<CachedUnit> {
    // Split header lines until the `cured <len>` marker, then take exactly
    // `len` raw bytes.
    let mut pos = 0usize;

    let magic = next_line(bytes, &mut pos)?;
    if magic != format!("{MAGIC} {FORMAT}") {
        return None;
    }
    let digest = from_hex(next_line(bytes, &mut pos)?.strip_prefix("digest ")?)?;
    let timings_line = next_line(bytes, &mut pos)?;
    let mut timings_ns = [0u64; NSTAGES];
    let mut it = timings_line.strip_prefix("timings ")?.split(' ');
    for t in &mut timings_ns {
        *t = it.next()?.parse().ok()?;
    }
    if it.next().is_some() {
        return None;
    }
    let mut report = UnitReport::default();
    let mut cured_len: Option<usize> = None;
    while let Some(line) = next_line(bytes, &mut pos) {
        let (name, value) = line.split_once(' ')?;
        let value: u64 = value.parse().ok()?;
        if name == "cured" {
            cured_len = Some(value as usize);
            break;
        }
        if !report.set_field(name, value) {
            return None;
        }
    }
    let len = cured_len?;
    let body = bytes.get(pos..pos + len)?;
    if pos + len != bytes.len() {
        return None; // trailing garbage: treat as corrupt
    }
    Some(CachedUnit {
        cured_text: String::from_utf8(body.to_vec()).ok()?,
        report,
        report_digest: digest,
        timings_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CachedUnit {
        CachedUnit {
            cured_text: "func main {\n  // cured\n}\n".to_string(),
            report: UnitReport {
                safe: 4,
                seq: 2,
                checks_inserted: 9,
                ..UnitReport::default()
            },
            report_digest: 0xdead_beef_cafe_f00d,
            timings_ns: [1, 2, 3, 4, 5],
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("ccured-cache-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn entry_round_trips_byte_exactly() {
        let u = sample();
        assert_eq!(parse_entry(&render_entry(&u)).as_ref(), Some(&u));
    }

    #[test]
    fn store_and_load() {
        let dir = tmpdir("roundtrip");
        let c = Cache::open(&dir).unwrap();
        let key = Cache::unit_key("int main(void){return 0;}", "cfg");
        assert!(c.load(key).is_none(), "cold cache misses");
        c.store(key, &sample()).unwrap();
        assert_eq!(c.load(key), Some(sample()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let u = sample();
        let mut bytes = render_entry(&u);
        bytes.truncate(bytes.len() - 3);
        assert!(parse_entry(&bytes).is_none(), "truncated body");
        let mut bytes = render_entry(&u);
        bytes[0] = b'X';
        assert!(parse_entry(&bytes).is_none(), "bad magic");
        let mut bytes = render_entry(&u);
        bytes.extend_from_slice(b"extra");
        assert!(parse_entry(&bytes).is_none(), "trailing garbage");
    }

    #[test]
    fn open_sweeps_orphaned_tmp_and_corrupt_entries() {
        let dir = tmpdir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // A healthy entry, an orphaned temp file, a truncated entry, and a
        // zero-byte entry.
        let good_key = Cache::unit_key("good", "cfg");
        {
            let c = Cache { dir: dir.clone() };
            c.store(good_key, &sample()).unwrap();
        }
        fs::write(dir.join(".deadbeef.1234.0.tmp"), b"half-written").unwrap();
        let mut torn = render_entry(&sample());
        torn.truncate(torn.len() / 2);
        fs::write(dir.join("0123456789abcdef.unit"), torn).unwrap();
        fs::write(dir.join("fedcba9876543210.unit"), b"").unwrap();

        let c = Cache::open(&dir).unwrap();
        assert_eq!(c.load(good_key), Some(sample()), "healthy entry survives");
        assert!(!dir.join(".deadbeef.1234.0.tmp").exists(), "tmp swept");
        assert!(!dir.join("0123456789abcdef.unit").exists(), "torn swept");
        assert!(!dir.join("fedcba9876543210.unit").exists(), "empty swept");
        // Idempotent: a second sweep finds nothing.
        assert_eq!(c.sweep(), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_shard_by_key_prefix_and_flat_entries_migrate() {
        let dir = tmpdir("shard");
        let c = Cache::open(&dir).unwrap();
        let key = Cache::unit_key("shard me", "cfg");
        c.store(key, &sample()).unwrap();
        let h = hex(key);
        assert!(
            dir.join(&h[..2]).join(format!("{h}.unit")).is_file(),
            "entry lives under its two-hex shard"
        );

        // A valid entry in the pre-sharding flat layout: the open sweep
        // moves it into its shard and it loads as a hit.
        let legacy = Cache::unit_key("legacy entry", "cfg");
        let lh = hex(legacy);
        fs::write(dir.join(format!("{lh}.unit")), render_entry(&sample())).unwrap();
        let c = Cache::open(&dir).unwrap();
        assert!(!dir.join(format!("{lh}.unit")).exists(), "flat file gone");
        assert!(
            dir.join(&lh[..2]).join(format!("{lh}.unit")).is_file(),
            "migrated into its shard"
        );
        assert_eq!(c.load(legacy), Some(sample()), "warm across the layout");

        // Orphaned temp files and corrupt entries inside a shard are swept.
        let shard = dir.join(&h[..2]);
        fs::write(shard.join(".feedface.77.9.tmp"), b"dead writer").unwrap();
        fs::write(shard.join("00aa00aa00aa00aa.unit"), b"garbage").unwrap();
        assert_eq!(c.sweep(), (1, 1));
        assert_eq!(c.load(key), Some(sample()), "healthy entry survives");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_source_config_and_version() {
        let a = Cache::unit_key("src", "cfg");
        assert_eq!(a, Cache::unit_key("src", "cfg"), "stable");
        assert_ne!(a, Cache::unit_key("src2", "cfg"), "source-addressed");
        assert_ne!(a, Cache::unit_key("src", "cfg2"), "config-addressed");
    }
}
