//! # ccured-cli
//!
//! The command-line driver: cure a C file, inspect the inference results,
//! and run the program on the ccured-rs abstract machine in any
//! instrumentation mode. `ccured --help` lists every command and the flags
//! each one takes; the parser and the help text read the same table, so
//! they cannot disagree.
//!
//! `ccured explain` prints, for every WILD pointer (or the one named by
//! `--sym`), the shortest chain of value flows from that pointer back to
//! the cast or operation that poisoned it — the paper's "browser" workflow
//! for auditing why inference made a pointer WILD.
//!
//! `ccured crash-test` seeds memory-safety faults into the program with the
//! deterministic mutation engine (`ccured-faultinject`), cures each mutant,
//! runs it in the sandbox, and prints a per-class catch-rate matrix. Exit is
//! 5 when any mutant **escapes** (a ground-truth memory error survives the
//! cure — a soundness bug), 0 otherwise.
//!
//! `ccured profile` cures the file, runs it with per-site profiling
//! enabled, and prints a ranked hot-site table: for every check site the
//! dynamic hit/fail counts, the abstract cost attributed to it, a
//! blame-style source excerpt, and — when the optimizer kept it — why it
//! could not be elided. Rankings are deterministic and identical across
//! `--engine vm` and `--engine tree`; `--json` emits the machine-readable
//! form consumed by the `tables` bench binary.
//!
//! `ccured batch` cures every `.c` file under a directory (or listed in a
//! manifest file, or the one `.c` file given) on a thread pool, serving
//! unchanged units from the content-addressed cache (`ccured-batch`). Cure flags
//! (`--wrappers`, `--no-opt`, `--original-ccured`, …) apply to every unit
//! and participate in the cache key. `--deadline-ms` bounds each unit's
//! cure wall-clock; a unit that blows its budget gets the terminal
//! `resource-exhausted` verdict. Exit is 7 when any unit exhausted its
//! budget, 1 when any other unit failed, 0 otherwise.
//!
//! `ccured synth` writes a deterministic, seedable corpus of generated C
//! units to a directory (`ccured-synth`); `ccured campaign` generates a
//! corpus, batch-cures it, runs every unit differentially on both engines,
//! and crash-tests every unit with seeded faults. Exit is 5 when any
//! mutant escapes the cure, 8 when the engines diverge (or a generated
//! unit fails to cure), 0 otherwise — so an overnight campaign is a
//! one-flag CI gate.
//!
//! `ccured serve` starts the long-lived cure daemon (`ccured-batch`'s
//! `serve` module) on a unix socket: a resident worker pool and the
//! content-addressed whole-unit cache, so an unchanged unit is answered
//! without curing and an edited one is cured in full. `ccured
//! client <socket> <request...>` sends one request line and prints the
//! one-line JSON reply; its exit code is 0 for `ok`, 1 for `error`, 6 for
//! `busy`, and 4 when the daemon cannot be reached.
//!
//! The library half exists so the argument parser and driver can be unit
//! tested; `main.rs` prints what [`run`] returns.

use ccured::{json, CureError, Cured, Curer};
use ccured_cil::ir::{CheckKind, PerCheck};
use ccured_rt::{Engine, ExecMode, Interp, Limits, RunStats};
use std::fmt;
use Arg::{Parsed, Switch, Text};
use Command::{Batch, Campaign, Client, CrashTest, Cure, Explain, Profile, Serve, Synth};

/// Execution mode selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Cured execution (default).
    #[default]
    Cured,
    /// Plain C semantics.
    Original,
    /// Purify-style baseline.
    Purify,
    /// Valgrind-style baseline.
    Valgrind,
    /// Jones–Kelly-style baseline.
    JonesKelly,
}

impl std::str::FromStr for Mode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "cured" => Mode::Cured,
            "original" => Mode::Original,
            "purify" => Mode::Purify,
            "valgrind" => Mode::Valgrind,
            "joneskelly" => Mode::JonesKelly,
            other => {
                return Err(format!(
                    "unknown mode `{other}` (expected cured|original|purify|valgrind|joneskelly)"
                ))
            }
        })
    }
}

/// A `ccured` command. Its word comes first on the command line; without
/// one, the first argument is the file to cure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Command {
    /// `ccured <file.c>`: cure one file, then report on, dump or run it.
    #[default]
    Cure,
    /// `explain`: print blame paths for WILD pointers.
    Explain,
    /// `crash-test`: run the fault-injection harness.
    CrashTest,
    /// `profile`: run with per-site check profiling and print the ranked
    /// hot-site table.
    Profile,
    /// `batch`: cure a directory/manifest of units in parallel.
    Batch,
    /// `serve`: start the long-lived cure daemon.
    Serve,
    /// `client`: send one request line to a running daemon.
    Client,
    /// `synth`: write a generated corpus to a directory.
    Synth,
    /// `campaign`: generate + cure + differential + crash-test.
    Campaign,
    /// `--help` or `-h`: print the usage and every flag.
    Help,
}

/// Every command but `Help`, in `--help` order: its name (`ccured` and
/// its word) and its operands.
const COMMANDS: [(Command, &str, &str); 9] = [
    (Cure, "ccured", "<file.c>"),
    (Explain, "ccured explain", "<file.c>"),
    (CrashTest, "ccured crash-test", "<file.c>"),
    (Profile, "ccured profile", "<file.c>"),
    (Batch, "ccured batch", "<dir|manifest|file.c>"),
    (Serve, "ccured serve", "<socket>"),
    (
        Client,
        "ccured client",
        "<socket> cure|profile|explain <path> | status|reset|shutdown",
    ),
    (Synth, "ccured synth", "<out-dir>"),
    (Campaign, "ccured campaign", "[out-dir]"),
];

impl Command {
    /// `ccured` and the command's word.
    fn name(self) -> &'static str {
        COMMANDS
            .iter()
            .find(|c| c.0 == self)
            .map_or("ccured", |c| c.1)
    }
}

/// Parsed command line. Each field is set by the flag its doc names;
/// `ccured --help` lists the commands that take each flag.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The command to run.
    pub command: Command,
    /// The operand: the C source file, batch path, socket or out-dir.
    pub file: String,
    /// `--units`.
    pub units: Option<usize>,
    /// `--mutants-per-unit`.
    pub mutants_per_unit: Option<usize>,
    /// `--profile P` (`synth`/`campaign`): the generation profile.
    pub profile_name: Option<String>,
    /// `--profile` (`batch`): profile every cured unit.
    pub batch_profile: bool,
    /// `client`: the request line (remaining positional words, joined).
    pub request: Option<String>,
    /// `--workers` (None: daemon default).
    pub workers: Option<usize>,
    /// `--queue-cap`.
    pub queue_cap: Option<usize>,
    /// `--deadline-ms`.
    pub deadline_ms: Option<u64>,
    /// `--fault-poison`.
    pub fault_poison: Option<String>,
    /// `--top` (default 10).
    pub top: Option<usize>,
    /// `--jobs` (None: one per core).
    pub jobs: Option<usize>,
    /// `--cache-dir`.
    pub cache_dir: Option<String>,
    /// `--no-cache`.
    pub no_cache: bool,
    /// `--mutants`.
    pub mutants: Option<usize>,
    /// `--seed`.
    pub seed: Option<u64>,
    /// `--json`.
    pub json: bool,
    /// `--sym`.
    pub sym: Option<String>,
    /// `--run`.
    pub run: bool,
    /// `--mode`.
    pub mode: Mode,
    /// `--input`.
    pub input: Option<String>,
    /// `--report`.
    pub report: bool,
    /// `--review`.
    pub review: bool,
    /// `--counters`.
    pub counters: bool,
    /// `--emit-ir`.
    pub emit_ir: bool,
    /// `--wrappers`.
    pub wrappers: bool,
    /// `--strict-link`.
    pub strict_link: bool,
    /// `--original-ccured`.
    pub original_ccured: bool,
    /// `--no-rtti`.
    pub no_rtti: bool,
    /// `--no-opt`.
    pub no_opt: bool,
    /// `--no-loop-opt`.
    pub no_loop_opt: bool,
    /// `--split-everything`.
    pub split_everything: bool,
    /// `--split-at-boundaries`.
    pub split_at_boundaries: bool,
    /// `--fuel`.
    pub fuel: Option<u64>,
    /// `--engine` (`vm` is the default; `tree` is the reference oracle).
    pub engine: Engine,
    /// `--temporal`.
    pub temporal: bool,
}

/// A usage/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for UsageError {}

/// One command-line flag: its name, what it does with its value, the
/// commands whose drivers read it, and its `--help` line.
struct Flag {
    name: &'static str,
    commands: &'static [Command],
    arg: Arg,
    help: &'static str,
}

/// How a flag sets its [`Options`] field.
enum Arg {
    /// A switch: sets its `bool`.
    Switch(fn(&mut Options) -> &mut bool),
    /// Takes a value (shown as the placeholder) and stores it as given.
    Text(&'static str, fn(&mut Options) -> &mut Option<String>),
    /// Takes a value (shown as the placeholder) that the function parses
    /// and stores, or rejects with a message.
    Parsed(&'static str, fn(&mut Options, &str) -> Result<(), String>),
}

const fn flag(
    name: &'static str,
    commands: &'static [Command],
    arg: Arg,
    help: &'static str,
) -> Flag {
    Flag {
        name,
        commands,
        arg,
        help,
    }
}

fn number<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("`{v}` is not a number"))
}

/// The commands that cure and can run one file.
const RUNS: &[Command] = &[Cure, Explain];
/// The commands that print the cure of one file.
const SHOWS: &[Command] = &[Cure, Explain, Profile];
/// The commands that execute one file.
const EXECS: &[Command] = &[Cure, Explain, CrashTest, Profile];
/// The commands that cure with the curer the flags configure.
const CURES: &[Command] = &[Cure, Explain, Profile, Batch, Serve];

/// Every flag, in `--help` order. A command takes exactly the flags whose
/// entry lists it; `--profile` has one entry per meaning.
#[rustfmt::skip]
static FLAGS: &[Flag] = &[
    flag("--run", RUNS, Switch(|o| &mut o.run), "execute after curing (default mode: cured)"),
    flag("--mode", SHOWS, Parsed("M", |o, v| v.parse().map(|m| o.mode = m)),
         "cured | original | purify | valgrind | joneskelly"),
    flag("--input", EXECS, Text("FILE", |o| &mut o.input),
         "bytes for the input builtins (getchar/net_recv)"),
    flag("--report", SHOWS, Switch(|o| &mut o.report),
         "print the cure report (kinds, casts, checks)"),
    flag("--review", SHOWS, Switch(|o| &mut o.review),
         "print the code-review surface (trusted/bad casts plus WILD blame paths)"),
    flag("--counters", RUNS, Switch(|o| &mut o.counters), "print event counters after --run"),
    flag("--emit-ir", SHOWS, Switch(|o| &mut o.emit_ir), "dump the (instrumented) CIL"),
    flag("--wrappers", CURES, Switch(|o| &mut o.wrappers), "prepend the stdlib wrapper prelude"),
    flag("--strict-link", CURES, Switch(|o| &mut o.strict_link), "fail on link-audit findings"),
    flag("--original-ccured", CURES, Switch(|o| &mut o.original_ccured),
         "disable physical subtyping and RTTI"),
    flag("--no-rtti", CURES, Switch(|o| &mut o.no_rtti), "disable RTTI only"),
    flag("--no-opt", CURES, Switch(|o| &mut o.no_opt),
         "disable redundant-check elimination (ablation)"),
    flag("--no-loop-opt", CURES, Switch(|o| &mut o.no_loop_opt),
         "disable loop-invariant hoisting and SEQ bounds widening (ablation)"),
    flag("--split-everything", CURES, Switch(|o| &mut o.split_everything),
         "force the SPLIT representation everywhere"),
    flag("--split-at-boundaries", CURES, Switch(|o| &mut o.split_at_boundaries),
         "seed SPLIT at external-call boundaries"),
    flag("--temporal", &[Cure, Explain, CrashTest, Profile, Batch, Serve],
         Switch(|o| &mut o.temporal), "emit lock-and-key use-after-free checks (cured mode only)"),
    flag("--fuel", &[Cure, Explain, CrashTest, Profile, Batch, Serve, Campaign],
         Parsed("N", |o, v| number(v).map(|n| o.fuel = Some(n))),
         "instruction budget for each run"),
    flag("--engine", EXECS, Parsed("vm|tree", |o, v| v.parse().map(|e| o.engine = e)),
         "execution engine (default vm; tree is the reference oracle)"),
    flag("--sym", &[Explain], Text("NAME", |o| &mut o.sym),
         "only this symbol (local as `f::p` or plain `p`, global by name)"),
    flag("--mutants", &[CrashTest], Parsed("N", |o, v| number(v).map(|n| o.mutants = Some(n))),
         "number of mutants (default 60)"),
    flag("--seed", &[CrashTest, Synth, Campaign],
         Parsed("S", |o, v| number(v).map(|n| o.seed = Some(n))),
         "mutation or generation seed (default 1)"),
    flag("--json", &[CrashTest, Profile, Batch, Campaign], Switch(|o| &mut o.json),
         "machine-readable report"),
    flag("--top", &[Profile], Parsed("N", |o, v| number(v).map(|n| o.top = Some(n))),
         "rows in the hot-site table (default 10)"),
    flag("--jobs", &[Batch, Campaign], Parsed("N", |o, v| number(v).map(|n| o.jobs = Some(n))),
         "worker threads (default: one per core)"),
    flag("--cache-dir", &[Batch, Serve, Campaign], Text("D", |o| &mut o.cache_dir),
         "cache directory (default .ccured-cache, in the out-dir for campaign)"),
    flag("--no-cache", &[Batch, Serve, Campaign], Switch(|o| &mut o.no_cache),
         "disable the content-addressed cache"),
    flag("--deadline-ms", &[Batch, Serve],
         Parsed("N", |o, v| number(v).map(|n| o.deadline_ms = Some(n))),
         "per-unit cure wall-clock budget"),
    flag("--profile", &[Batch], Switch(|o| &mut o.batch_profile),
         "execute every cured unit and aggregate the hottest check sites"),
    flag("--workers", &[Serve], Parsed("N", |o, v| number(v).map(|n| o.workers = Some(n))),
         "worker threads"),
    flag("--queue-cap", &[Serve], Parsed("N", |o, v| number(v).map(|n| o.queue_cap = Some(n))),
         "request-queue capacity before `busy` shedding"),
    flag("--fault-poison", &[Serve], Text("SUBSTR", |o| &mut o.fault_poison),
         "a worker panics on a unit containing SUBSTR (fault injection for tests)"),
    flag("--profile", &[Synth, Campaign], Text("P", |o| &mut o.profile_name),
         "generation profile: mixed|openssl|bind|openssh (campaign default: all)"),
    flag("--units", &[Synth, Campaign], Parsed("N", |o, v| number(v).map(|n| o.units = Some(n))),
         "units to generate (default 50 for synth, 40 for campaign)"),
    flag("--mutants-per-unit", &[Campaign],
         Parsed("K", |o, v| number(v).map(|n| o.mutants_per_unit = Some(n))),
         "seeded faults per unit (default 2)"),
];

impl Flag {
    /// `--name` or `--name PLACEHOLDER`.
    fn synopsis(&self) -> String {
        match self.arg {
            Switch(_) => self.name.to_string(),
            Text(v, _) | Parsed(v, _) => format!("{} {v}", self.name),
        }
    }

    /// Sets the flag's option, reading its value from `args`.
    fn apply(
        &self,
        o: &mut Options,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<(), UsageError> {
        let mut value = || {
            args.next()
                .ok_or_else(|| UsageError(format!("{} requires a value", self.name)))
        };
        match self.arg {
            Switch(field) => *field(o) = true,
            Text(_, field) => *field(o) = Some(value()?),
            Parsed(_, set) => {
                set(o, &value()?).map_err(|e| UsageError(format!("{}: {e}", self.name)))?
            }
        }
        Ok(())
    }
}

/// The entry for flag `name` under `command`; before the command is
/// known, the first entry of that name.
fn lookup(name: &str, command: Option<Command>) -> Result<&'static Flag, UsageError> {
    let mut named = FLAGS.iter().filter(|f| f.name == name).peekable();
    let Some(&first) = named.peek() else {
        return Err(UsageError(format!("unknown flag `{name}`\n{}", usage())));
    };
    match command {
        None => Ok(first),
        Some(c) => named
            .find(|f| f.commands.contains(&c))
            .ok_or_else(|| misapplied(name, c)),
    }
}

/// The error for a flag that command `c` does not read.
fn misapplied(name: &str, c: Command) -> UsageError {
    let takers: Vec<String> = COMMANDS
        .iter()
        .filter(|(k, ..)| {
            FLAGS
                .iter()
                .any(|f| f.name == name && f.commands.contains(k))
        })
        .map(|(k, ..)| format!("`{}`", k.name()))
        .collect();
    UsageError(format!(
        "{name} does not apply to `{}` (only to {})",
        c.name(),
        takers.join(", ")
    ))
}

/// Parses argv (without the program name).
///
/// # Errors
///
/// [`UsageError`] for unknown flags, flags the command does not take,
/// missing or malformed values, or a missing file.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, UsageError> {
    let mut o = Options::default();
    // The first positional argument fixes the command; flags seen before
    // it are checked against it then.
    let mut command = None;
    let mut early = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            o.command = Command::Help;
            return Ok(o);
        }
        if a.starts_with('-') {
            let f = lookup(&a, command)?;
            f.apply(&mut o, &mut it)?;
            if command.is_none() {
                early.push(f);
            }
            continue;
        }
        let Some(c) = command else {
            let c = COMMANDS
                .iter()
                .find(|(_, name, _)| name.strip_prefix("ccured ") == Some(&a))
                .map_or(Command::Cure, |c| c.0);
            if let Some(f) = early.iter().find(|f| !f.commands.contains(&c)) {
                return Err(misapplied(f.name, c));
            }
            if c == Command::Cure {
                o.file = a;
            }
            command = Some(c);
            continue;
        };
        if o.file.is_empty() {
            o.file = a;
        } else if c == Command::Client {
            // `client <socket> <request...>`: everything after the
            // socket path is the request line.
            match &mut o.request {
                Some(r) => {
                    r.push(' ');
                    r.push_str(&a);
                }
                None => o.request = Some(a),
            }
        } else {
            return Err(UsageError(format!("unexpected extra argument `{a}`")));
        }
    }
    o.command = command.unwrap_or_default();
    if o.file.is_empty() && o.command != Command::Campaign {
        // `campaign` may omit the out-dir (a scratch directory is used);
        // everything else, including `synth`, needs its positional.
        return Err(UsageError(format!("no input file\n{}", usage())));
    }
    if o.command == Command::Profile && o.mode != Mode::Cured {
        return Err(UsageError(
            "`profile` runs in cured mode (the checks being profiled only exist there)".into(),
        ));
    }
    if o.command == Command::Explain && o.mode != Mode::Cured {
        return Err(UsageError(
            "`explain` runs in cured mode (the blame paths it prints come from the cure)".into(),
        ));
    }
    if o.temporal && o.mode != Mode::Cured {
        return Err(UsageError(
            "--temporal only applies to cured mode (the temporal checks are cure-inserted)".into(),
        ));
    }
    if o.command == Command::Client && o.request.is_none() {
        return Err(UsageError(
            "client needs a request, e.g. `ccured client /tmp/cc.sock status`".into(),
        ));
    }
    Ok(o)
}

/// The usage synopsis: one line per command with the flags it takes.
fn usage() -> String {
    let mut lines = Vec::new();
    for (i, (c, name, operands)) in COMMANDS.iter().enumerate() {
        let lead = if i == 0 { "usage:" } else { "" };
        let mut line = format!("{lead:6} {name} {operands}");
        for f in FLAGS.iter().filter(|f| f.commands.contains(c)) {
            let item = format!(" [{}]", f.synopsis());
            if line.len() + item.len() > 80 {
                lines.push(std::mem::replace(&mut line, " ".repeat(13)));
            }
            line.push_str(&item);
        }
        lines.push(line);
    }
    lines.join("\n")
}

/// The `--help` text: the synopsis, then one line per flag.
fn help() -> String {
    let mut s = usage() + "\n\nflags:\n";
    for f in FLAGS {
        s.push_str(&format!("  {:<24} {}\n", f.synopsis(), f.help));
    }
    s + &format!("  {:<24} print this help\n", "-h, --help")
}

/// What a driver invocation produced (for testing and for `main`).
#[derive(Debug)]
pub struct Outcome {
    /// Exit code to report.
    pub exit: i32,
    /// Everything that should go to stdout.
    pub stdout: String,
    /// Everything that should go to stderr.
    pub stderr: String,
}

impl Outcome {
    fn new(exit: i32, stdout: String) -> Self {
        Outcome {
            exit,
            stdout,
            stderr: String::new(),
        }
    }

    /// A failure: nothing on stdout, `message` and a newline on stderr.
    pub fn error(exit: i32, message: impl fmt::Display) -> Self {
        Outcome {
            exit,
            stdout: String::new(),
            stderr: format!("{message}\n"),
        }
    }
}

/// Runs the command `o` names, as `main` does, and returns what it prints.
/// Exit codes: 0 success (or the program's own status after `--run`); 1 a
/// cure error (a frontend error prints as `file:line:col: error: ...`), a
/// failed batch unit or a `client` error reply; 2 an unreadable file; 3 a
/// failed check; 4 any other run-time error, a daemon that cannot start or
/// be reached; 5 an escaped mutant; 6 a `busy` reply; 7 a blown deadline;
/// 8 an engine divergence. Usage errors (exit 2) never get here.
pub fn run(o: &Options) -> Outcome {
    let (result, failed) = match o.command {
        Command::Help => return Outcome::new(0, help()),
        #[cfg(unix)]
        Command::Serve => (drive_serve(o), 4),
        #[cfg(unix)]
        Command::Client => return drive_client(o),
        Command::Batch => (drive_batch(o), 1),
        Command::Synth => (drive_synth(o), 1),
        Command::Campaign => (drive_campaign(o), 1),
        _ => return drive_file(o),
    };
    result.unwrap_or_else(|e| Outcome::error(failed, format!("ccured: {e}")))
}

/// Reads `o.file` and the `--input` bytes, and runs [`drive`] on them.
fn drive_file(o: &Options) -> Outcome {
    let source = match std::fs::read_to_string(&o.file) {
        Ok(s) => s,
        Err(e) => return Outcome::error(2, format!("ccured: cannot read `{}`: {e}", o.file)),
    };
    let input = match &o.input {
        Some(path) => match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => return Outcome::error(2, format!("ccured: cannot read input `{path}`: {e}")),
        },
        None => Vec::new(),
    };
    drive(o, &source, &input).unwrap_or_else(|e| match e {
        // Frontend errors point at a file position.
        CureError::Frontend(d) => {
            let map = curer(o).source_map(&o.file, &source);
            Outcome::error(1, format!("{}: error: {}", map.locate(d.span.lo), d.msg))
        }
        e => Outcome::error(1, format!("ccured: {e}")),
    })
}

/// Runs the driver on the given source text.
///
/// # Errors
///
/// Cure errors are returned; run-time errors become part of the outcome
/// (non-zero exit with a message), matching what a compiler driver does.
pub fn drive(o: &Options, source: &str, input: &[u8]) -> Result<Outcome, CureError> {
    let mut out = String::new();

    if o.command == Command::CrashTest {
        let mut cfg =
            ccured_faultinject::CrashTest::new(o.mutants.unwrap_or(60), o.seed.unwrap_or(1))
                .with_engine(o.engine)
                .with_temporal(o.temporal);
        cfg.limits = limits(o, cfg.limits);
        let rep = ccured_faultinject::harness::crash_test_source(&o.file, source, input, &cfg)?;
        if o.json {
            out.push_str(&rep.to_json());
            out.push('\n');
        } else {
            out.push_str(&rep.render());
        }
        // Any escape is a soundness bug: distinct exit code so CI trips.
        let exit = if rep.escaped().is_empty() { 0 } else { 5 };
        return Ok(Outcome::new(exit, out));
    }

    // Baseline/original modes skip the cure (they run the plain program).
    if o.run && o.mode != Mode::Cured {
        if o.report || o.review || o.emit_ir {
            out.push_str(
                "ccured: note: --report/--review/--emit-ir apply to cured mode only and are ignored here\n",
            );
        }
        let prog = curer(o).lower_source(source)?;
        let mode = match o.mode {
            Mode::Original => ExecMode::Original,
            Mode::Purify => ExecMode::Purify,
            Mode::Valgrind => ExecMode::Valgrind,
            Mode::JonesKelly => ExecMode::JonesKelly,
            Mode::Cured => unreachable!(),
        };
        return Ok(execute(&prog, mode, o, input, out));
    }

    let curer = curer(o);
    let cured = curer.cure_source(source)?;
    let map = curer.source_map(&o.file, source);
    // Static failure diagnostics are warnings: the check provably fails on
    // every execution that reaches it (the run still aborts safely).
    for sf in &cured.report.static_failures {
        let pos = if sf.span == ccured_ast::Span::DUMMY {
            String::new()
        } else {
            format!("{}: ", map.locate(sf.span.lo))
        };
        out.push_str(&format!(
            "{pos}warning: in `{}`: {} ({} check always fails)\n",
            sf.func, sf.message, sf.check
        ));
    }
    if o.report {
        render_report(&cured, &mut out);
    }
    if o.review {
        let surface = cured.review_surface(&map);
        if surface.is_empty() {
            out.push_str("review surface: empty (no trusted or bad casts)\n");
        } else {
            out.push_str(&format!(
                "review surface ({} casts to audit):\n",
                surface.len()
            ));
            for line in surface {
                out.push_str(&format!("  {line}\n"));
            }
        }
    }
    let explain = o.command == Command::Explain;
    if explain || o.review {
        render_explanations(&cured, o, &map, &mut out);
        if explain && o.sym.is_none() {
            render_opt_actions(&cured, &map, &mut out);
        }
    }
    if o.emit_ir {
        out.push_str(&ccured_cil::pretty::dump_program(&cured.program));
    }
    if o.command == Command::Profile {
        return Ok(run_profile(&cured, o, &map, input, out));
    }
    if o.run {
        return Ok(execute(
            &cured.program,
            ExecMode::cured(&cured),
            o,
            input,
            out,
        ));
    }
    Ok(Outcome::new(0, out))
}

/// Runs the `batch` subcommand: cure every unit under `o.file` (a
/// directory of `.c` files or a manifest) on the parallel engine. Unlike
/// [`drive`], this reads sources itself — a batch has many inputs.
///
/// # Errors
///
/// [`CureError::Internal`] for infrastructure failures (unreadable input
/// path, cache directory creation); per-unit cure failures are verdicts in
/// the rendered report and exit code 1.
pub fn drive_batch(o: &Options) -> Result<Outcome, CureError> {
    let mut cfg = ccured_batch::BatchConfig::new(curer(o));
    if let Some(j) = o.jobs {
        cfg.jobs = j;
    }
    if let Some(d) = &o.cache_dir {
        cfg.cache_dir = d.into();
    }
    cfg.use_cache = !o.no_cache;
    cfg.profile = o.batch_profile;
    cfg.limits = limits(o, cfg.limits);
    let report = ccured_batch::run_path(&cfg, std::path::Path::new(&o.file))
        .map_err(|e| CureError::Internal(format!("batch: {e}")))?;
    let stdout = if o.json {
        let mut j = report.to_json();
        j.push('\n');
        j
    } else {
        report.render()
    };
    // Deadline overruns get their own exit code so CI can distinguish "this
    // unit is broken" (1) from "this unit got slower than the budget" (7).
    let exhausted = report
        .units
        .iter()
        .any(|u| matches!(u.verdict, ccured_batch::Verdict::ResourceExhausted(_)));
    let exit = if exhausted {
        7
    } else if report.failed() == 0 {
        0
    } else {
        1
    };
    Ok(Outcome::new(exit, stdout))
}

/// Runs the `serve` subcommand: starts the cure daemon on the socket named
/// by `o.file` and blocks until a `shutdown` request arrives.
///
/// # Errors
///
/// [`CureError::Internal`] when the socket cannot be bound or the cache
/// directory cannot be created.
#[cfg(unix)]
pub fn drive_serve(o: &Options) -> Result<Outcome, CureError> {
    let mut cfg = ccured_batch::ServeConfig::new(std::path::PathBuf::from(&o.file));
    cfg.curer = curer(o);
    if let Some(w) = o.workers {
        cfg.workers = w;
    }
    if let Some(c) = o.queue_cap {
        cfg.queue_cap = c;
    }
    cfg.limits = limits(o, cfg.limits);
    cfg.cache_dir = if o.no_cache {
        None
    } else {
        Some(std::path::PathBuf::from(
            o.cache_dir.as_deref().unwrap_or(".ccured-cache"),
        ))
    };
    cfg.fault_poison = o.fault_poison.clone();
    let mut server =
        ccured_batch::Server::start(cfg).map_err(|e| CureError::Internal(format!("serve: {e}")))?;
    // Announce readiness immediately (stderr, like a status line): the
    // Outcome's stdout would only appear after shutdown.
    eprintln!("ccured serve: listening on {}", o.file);
    server.wait();
    Ok(Outcome::new(0, String::new()))
}

/// Runs the `client` subcommand: sends the request line to the daemon and
/// prints the one-line JSON reply. Exit codes: 0 `ok`, 1 `error`, 6
/// `busy`, 4 connection failure.
#[cfg(unix)]
pub fn drive_client(o: &Options) -> Outcome {
    let line = o.request.as_deref().unwrap_or("status");
    match ccured_batch::request(std::path::Path::new(&o.file), line) {
        Ok(reply) => {
            let exit = if reply.contains(r#""status":"ok""#) {
                0
            } else if reply.contains(r#""status":"busy""#) {
                6
            } else {
                1
            };
            Outcome::new(exit, format!("{reply}\n"))
        }
        Err(e) => Outcome::new(
            4,
            format!("ccured client: cannot reach `{}`: {e}\n", o.file),
        ),
    }
}

/// Runs the `synth` subcommand: writes a generated corpus of `.c` units
/// under `o.file` (the out-dir), one file per unit, reproducible from
/// `--seed`.
///
/// # Errors
///
/// [`CureError::Internal`] for an unknown profile name or filesystem
/// failures.
pub fn drive_synth(o: &Options) -> Result<Outcome, CureError> {
    let profile = match o.profile_name.as_deref() {
        Some(name) => ccured_synth::Profile::named(name).ok_or_else(|| {
            CureError::Internal(format!(
                "synth: unknown profile `{name}` (expected mixed|openssl|bind|openssh)"
            ))
        })?,
        None => ccured_synth::profiles::mixed(),
    };
    let units = o.units.unwrap_or(50);
    let seed = o.seed.unwrap_or(1);
    let dir = std::path::Path::new(&o.file);
    std::fs::create_dir_all(dir)
        .map_err(|e| CureError::Internal(format!("synth: cannot create `{}`: {e}", o.file)))?;
    let workloads = ccured_synth::generate(&profile, units, seed);
    for w in &workloads {
        let path = dir.join(format!("{}.c", w.name));
        std::fs::write(&path, &w.source).map_err(|e| {
            CureError::Internal(format!("synth: cannot write `{}`: {e}", path.display()))
        })?;
    }
    Ok(Outcome::new(
        0,
        format!(
            "synth: wrote {} units (profile {}, seed {seed}) to {}\n",
            workloads.len(),
            profile.name,
            o.file
        ),
    ))
}

/// Runs the `campaign` subcommand: generates a corpus, batch-cures it,
/// differentially runs every unit on both engines, and crash-tests every
/// unit with seeded faults. Exit codes: 5 when any mutant escaped the cure
/// (soundness bug), 8 when the engines diverged or a generated unit failed
/// to cure, 0 when the campaign is sound.
///
/// # Errors
///
/// [`CureError::Internal`] for an unknown profile name or infrastructure
/// failures (the out-dir cannot be created, units cannot be written).
pub fn drive_campaign(o: &Options) -> Result<Outcome, CureError> {
    let out_dir = if o.file.is_empty() {
        std::env::temp_dir().join(format!("ccured-campaign-{}", std::process::id()))
    } else {
        std::path::PathBuf::from(&o.file)
    };
    let mut cfg = ccured_synth::CampaignConfig::new(out_dir);
    if let Some(name) = o.profile_name.as_deref() {
        let profile = ccured_synth::Profile::named(name).ok_or_else(|| {
            CureError::Internal(format!(
                "campaign: unknown profile `{name}` (expected mixed|openssl|bind|openssh)"
            ))
        })?;
        cfg.profiles = vec![profile];
    }
    if let Some(u) = o.units {
        cfg.units = u;
    }
    if let Some(k) = o.mutants_per_unit {
        cfg.mutants_per_unit = k;
    }
    if let Some(s) = o.seed {
        cfg.seed = s;
    }
    if let Some(j) = o.jobs {
        cfg.jobs = j;
    }
    if let Some(d) = &o.cache_dir {
        cfg.cache_dir = d.into();
    }
    cfg.use_cache = !o.no_cache;
    cfg.limits = limits(o, cfg.limits);
    let rep = ccured_synth::run_campaign(&cfg)
        .map_err(|e| CureError::Internal(format!("campaign: {e}")))?;
    let stdout = if o.json {
        let mut j = rep.to_json();
        j.push('\n');
        j
    } else {
        rep.render()
    };
    // Escapes are soundness bugs (same code as crash-test); divergences and
    // cure failures get their own code so CI can tell the failure apart.
    let exit = if !rep.escapes.is_empty() {
        5
    } else if !rep.divergences.is_empty() || !rep.cure_failures.is_empty() {
        8
    } else {
        0
    };
    Ok(Outcome::new(exit, stdout))
}

/// The curer the options configure. Its [`Curer::source_map`] maps
/// diagnostics and check-site positions back into the user's file.
pub fn curer(o: &Options) -> Curer {
    let mut c = if o.original_ccured {
        Curer::original_ccured()
    } else {
        Curer::new()
    };
    if o.no_rtti {
        c.rtti(false);
    }
    c.optimize(!o.no_opt);
    c.loop_optimize(!o.no_loop_opt);
    c.split_everything(o.split_everything);
    c.split_at_boundaries(o.split_at_boundaries);
    c.strict_link(o.strict_link);
    if o.wrappers {
        c.with_stdlib_wrappers();
    }
    c.temporal(o.temporal);
    c
}

/// The sandbox limits the options ask for: `base` with `--fuel` and
/// `--deadline-ms` applied.
fn limits(o: &Options, mut base: Limits) -> Limits {
    if let Some(f) = o.fuel {
        base.fuel = f;
    }
    match o.deadline_ms {
        Some(ms) => base.with_deadline_ms(ms),
        None => base,
    }
}

/// Prints blame paths: every WILD pointer in `explain` mode (and appended
/// to `--review` output), or just the `--sym` symbol when given.
fn render_explanations(cured: &Cured, o: &Options, map: &ccured_ast::SourceMap, out: &mut String) {
    use ccured_analysis::{blame_path, qual_names, render_blame};
    use ccured_cil::types::QualId;
    use ccured_infer::PtrKind;
    let names = qual_names(&cured.program);
    let quals = (0..cured.program.types.qual_count()).map(QualId);
    let mut explained = 0usize;
    match &o.sym {
        Some(sym) => {
            let suffix = format!("::{sym}");
            let matching: Vec<QualId> = quals
                .filter(|q| {
                    names
                        .get(q)
                        .is_some_and(|n| n == sym || n.ends_with(&suffix))
                })
                .collect();
            if matching.is_empty() {
                out.push_str(&format!("explain: no pointer named `{sym}`\n"));
                return;
            }
            for q in matching {
                let kind = cured.solution.kind(q);
                match kind {
                    PtrKind::Safe => {
                        out.push_str(&format!("`{}` is Safe — nothing to explain\n", names[&q]))
                    }
                    PtrKind::Seq | PtrKind::Wild => match blame_path(&cured.provenance, q, kind) {
                        Some(b) => out.push_str(&render_blame(&names, Some(map), &b)),
                        None => out.push_str(&format!(
                            "`{}` is {kind:?} (no recorded provenance)\n",
                            names[&q]
                        )),
                    },
                }
            }
        }
        None => {
            for q in quals {
                if cured.solution.kind(q) != PtrKind::Wild || !names.contains_key(&q) {
                    continue;
                }
                explained += 1;
                match blame_path(&cured.provenance, q, PtrKind::Wild) {
                    Some(b) => out.push_str(&render_blame(&names, Some(map), &b)),
                    None => out.push_str(&format!(
                        "`{}` is Wild (no recorded provenance)\n",
                        names[&q]
                    )),
                }
            }
            if explained == 0 && o.command == Command::Explain {
                out.push_str("explain: no WILD pointers — nothing to explain\n");
            }
        }
    }
}

/// Lists the check sites the loop optimizer rewrote (hoisted/widened),
/// with their final keep-reasons — the `ccured explain` view of the
/// second-generation optimizer's work.
fn render_opt_actions(cured: &Cured, map: &ccured_ast::SourceMap, out: &mut String) {
    let acted: Vec<&ccured::instrument::CheckSite> = cured
        .sites
        .iter()
        .filter(|s| s.opt_action.is_some())
        .collect();
    if acted.is_empty() {
        return;
    }
    out.push_str(&format!(
        "\ncheck optimization ({} sites rewritten by the loop optimizer):\n",
        acted.len()
    ));
    for s in acted {
        let loc = site_location(map, s);
        // The keep-reason of a rewritten site is "<action>: <how>"; the
        // action is already printed, so show only the how.
        let reason = s.keep_reason.as_deref().unwrap_or("");
        let how = reason.split_once(": ").map_or(reason, |(_, r)| r);
        out.push_str(&format!(
            "  {loc}: {} check {} — {how}\n",
            s.kind.name(),
            s.opt_action.unwrap_or("?"),
        ));
    }
}

/// Runs `prog` once on the options' engine, input and limits, profiling
/// `sites` check sites when given. Appends the guest's output, and a
/// runtime-error line when the run failed, to `out`. The exit code is the
/// program's own, 3 when a check failed, or 4 for any other run-time error.
fn run_program(
    prog: &ccured_cil::Program,
    mode: ExecMode<'_>,
    o: &Options,
    input: &[u8],
    sites: Option<usize>,
    out: &mut String,
) -> (RunStats, i32) {
    let mut interp = Interp::new(prog, mode);
    interp.set_engine(o.engine);
    interp.set_input(input.to_vec());
    interp.set_limits(limits(o, Limits::default()));
    if let Some(n) = sites {
        interp.enable_profile(n);
    }
    let stats = interp.observe();
    out.push_str(&String::from_utf8_lossy(&stats.output));
    let exit = match &stats.error {
        None => stats.exit as i32,
        Some(e) => {
            out.push_str(&format!("ccured: runtime error: {e}\n"));
            if e.is_check_failure() {
                3
            } else {
                4
            }
        }
    };
    (stats, exit)
}

fn execute(
    prog: &ccured_cil::Program,
    mode: ExecMode<'_>,
    o: &Options,
    input: &[u8],
    mut out: String,
) -> Outcome {
    let (stats, exit) = run_program(prog, mode, o, input, None, &mut out);
    if o.counters {
        let c = &stats.counters;
        let k = |kind| c.checks[kind];
        out.push_str(&format!(
            "-- counters: instrs={} loads={} stores={} checks={} (null={} seq={} wild={} rtti={} index={} temporal={}) meta_ops={}\n",
            c.instrs,
            c.loads,
            c.stores,
            c.total_checks(),
            k(CheckKind::Null),
            k(CheckKind::SeqBounds),
            k(CheckKind::WildBounds) + k(CheckKind::WildTag),
            k(CheckKind::Rtti),
            k(CheckKind::IndexBound),
            k(CheckKind::Temporal),
            c.meta_ops,
        ));
    }
    Outcome::new(exit, out)
}

/// Runs `cured` with per-site profiling enabled and appends the ranked
/// hot-site report to the program's own output. With `--json` the output
/// so far (warnings, the guest's output, a runtime-error line) goes into
/// the object's `output` field instead, so stdout is one JSON document.
/// Profiling is observation-only, so exit code and program output are
/// identical to a plain `--run`.
fn run_profile(
    cured: &Cured,
    o: &Options,
    map: &ccured_ast::SourceMap,
    input: &[u8],
    mut out: String,
) -> Outcome {
    let sites = Some(cured.sites.len());
    let (stats, exit) = run_program(
        &cured.program,
        ExecMode::cured(cured),
        o,
        input,
        sites,
        &mut out,
    );
    let profile = stats.profile.unwrap_or_default();
    let rows =
        ccured_rt::profile::rank_sites(&cured.sites, &profile, &ccured_rt::CostModel::default());
    if o.json {
        out = profile_json(o, &rows, &profile, &out);
    } else {
        render_profile(o, map, &rows, &profile, &mut out);
    }
    Outcome::new(exit, out)
}

/// `file:line:col in func` for a check site, or `<wrappers> in func` for a
/// site inside the wrapper prelude.
fn site_location(map: &ccured_ast::SourceMap, site: &ccured::instrument::CheckSite) -> String {
    if site.span == ccured_ast::Span::DUMMY {
        return format!("<{}>", site.func);
    }
    match map.file_lookup(site.span.lo) {
        Some(lc) => format!("{}:{lc} in {}", map.name(), site.func),
        None => format!("<wrappers> in {}", site.func),
    }
}

fn render_profile(
    o: &Options,
    map: &ccured_ast::SourceMap,
    rows: &[ccured_rt::SiteReport],
    profile: &ccured_rt::Profile,
    out: &mut String,
) {
    let lines: Vec<&str> = map.text().lines().collect();
    let top = o.top.unwrap_or(10);
    out.push_str(&format!(
        "check-site profile (engine={}): {} sites, {} dynamic checks\n",
        o.engine.name(),
        rows.len(),
        profile.total_hits()
    ));
    out.push_str("rank       cost       hits  fails  check            ptr   site\n");
    for (rank, r) in rows.iter().take(top).enumerate() {
        let loc = site_location(map, &r.site);
        out.push_str(&format!(
            "{:>4} {:>10.1} {:>10} {:>6}  {:<16} {:<5} {}\n",
            rank + 1,
            r.cost,
            r.hits,
            r.fails,
            r.site.kind.name(),
            r.site.kind.ptr_kind(),
            loc
        ));
        // Blame-style excerpt of the offending source line.
        if r.site.span != ccured_ast::Span::DUMMY {
            let line = map.lookup(r.site.span.lo).line;
            if let Some(text) = lines.get(line as usize - 1) {
                out.push_str(&format!("     | {}\n", text.trim_end()));
            }
        }
        if r.site.elided > 0 {
            out.push_str(&format!(
                "     = optimizer elided {} of {} static checks here\n",
                r.site.elided, r.site.static_count
            ));
        }
        if let Some(a) = r.site.opt_action {
            out.push_str(&format!("     = loop optimizer: {a}\n"));
        }
    }
    // The eliminator's side of the story: the hot sites it had to keep.
    let missed: Vec<&ccured_rt::SiteReport> = rows
        .iter()
        .filter(|r| r.hits > 0 && r.site.keep_reason.is_some())
        .take(top)
        .collect();
    if !missed.is_empty() {
        out.push_str("\nhot sites the optimizer could not elide, and why:\n");
        for r in missed {
            let loc = site_location(map, &r.site);
            out.push_str(&format!(
                "  {} ({}, {} hits): {}\n",
                loc,
                r.site.kind.name(),
                r.hits,
                r.site.keep_reason.as_deref().unwrap_or("")
            ));
        }
    }
}

/// `profile --json`: the ranked rows, then everything the run printed
/// (`output`), as one JSON document on one line.
fn profile_json(
    o: &Options,
    rows: &[ccured_rt::SiteReport],
    profile: &ccured_rt::Profile,
    output: &str,
) -> String {
    let top = o.top.unwrap_or(usize::MAX);
    let mut s = json::object(|j| {
        j.str("schema", ccured_rt::PROFILE_SCHEMA)
            .str("file", &o.file)
            .str("engine", o.engine.name())
            .num("sites", rows.len())
            .num("total_hits", profile.total_hits());
        j.list("rows", rows.iter().take(top).enumerate(), |j, (rank, r)| {
            j.num("rank", rank + 1).num("site", r.site.id.index());
            r.write_json(j);
            j.opt_str("opt_action", r.site.opt_action);
        });
        j.str("output", output);
    });
    s.push('\n');
    s
}

fn render_report(cured: &Cured, out: &mut String) {
    let r = &cured.report;
    let (sf, sq, w, rt) = r.kind_counts.percentages();
    out.push_str(&format!(
        "pointer kinds: {sf}% SAFE, {sq}% SEQ, {w}% WILD, {rt}% RTTI ({} declared pointers)\n",
        r.kind_counts.total()
    ));
    let c = &r.census;
    out.push_str(&format!(
        "casts: {} pointer casts ({} identical, {} upcast, {} downcast, {} bad, {} trusted, {} alloc)\n",
        c.ptr_casts(),
        c.identical,
        c.upcast,
        c.downcast,
        c.bad,
        c.trusted,
        c.alloc
    ));
    out.push_str(&format!(
        "checks inserted: {} ({})\n",
        r.checks_inserted.total(),
        report_counts(&r.checks_inserted, |_| true)
    ));
    // Escape checks are never elided, so the elided line leaves them out.
    out.push_str(&format!(
        "checks elided: {} ({})\n",
        r.checks_elided.total(),
        report_counts(&r.checks_elided, |k| k != CheckKind::NoStackEscape)
    ));
    if r.checks_hoisted + r.checks_widened > 0 {
        out.push_str(&format!(
            "loop optimizer: {} checks hoisted (run once per loop entry), {} widened (whole-trip range probe)\n",
            r.checks_hoisted, r.checks_widened
        ));
    }
    if !r.wrappers_applied.is_empty() {
        out.push_str(&format!(
            "wrappers applied: {}\n",
            r.wrappers_applied
                .iter()
                .map(|(w, x)| format!("{x}->{w}"))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    for v in &r.annotation_violations {
        out.push_str(&format!(
            "warning: annotation violated: qualifier q{} asserted {:?} but inferred {}\n",
            v.qual.0, v.annotated, v.inferred
        ));
    }
    for i in &r.link_issues {
        out.push_str(&format!(
            "warning: link: {} -> {}: {}\n",
            i.caller, i.external, i.detail
        ));
    }
}

/// The `--report` label of each check kind.
const REPORT_LABELS: PerCheck<&str> = PerCheck([
    "null", "seq", "seq2safe", "wild", "tag", "rtti", "escape", "index", "temporal",
]);

/// `label=count` for each kind `keep` selects, space-separated.
fn report_counts(counts: &PerCheck<u64>, keep: impl Fn(CheckKind) -> bool) -> String {
    let kinds = CheckKind::ALL.into_iter().filter(|&k| keep(k));
    let parts: Vec<String> = kinds
        .map(|k| format!("{}={}", REPORT_LABELS[k], counts[k]))
        .collect();
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Options, UsageError> {
        parse_args(s.split_whitespace().map(String::from))
    }

    /// Every `ccured` invocation in README.md's code blocks and in the
    /// Makefile parses, so the flag table cannot drift from the documented
    /// command lines.
    #[test]
    fn documented_invocations_parse() {
        let mut in_block = false;
        let readme = include_str!("../../../README.md").lines().filter(|l| {
            in_block ^= l.trim_start().starts_with("```");
            in_block
        });
        let makefile = include_str!("../../../Makefile").lines();
        let mut parsed = 0;
        for line in readme.chain(makefile) {
            let line = line.split(" #").next().unwrap_or_default().trim();
            let Some(rest) = line
                .split_once("--bin ccured -- ")
                .map(|(_, rest)| rest)
                .or_else(|| line.strip_prefix("ccured "))
            else {
                continue;
            };
            // Stop at a redirection, a pipe or a trailing `&`.
            let argv = rest
                .split_whitespace()
                .take_while(|w| !w.starts_with(['>', '<', '|', '&']))
                .map(String::from);
            if let Err(e) = parse_args(argv) {
                panic!("`{line}` does not parse: {e}");
            }
            parsed += 1;
        }
        assert!(parsed >= 40, "only {parsed} invocations found");
    }

    /// Each of these flags is accepted by some command but never read by
    /// this one's driver.
    #[test]
    fn flags_the_command_does_not_read_are_usage_errors() {
        for (argv, flag, command) in [
            ("batch DIR --profile --top 5", "--top", "batch"),
            ("serve SOCK --jobs 4", "--jobs", "serve"),
            ("crash-test f.c --no-opt", "--no-opt", "crash-test"),
            ("crash-test f.c --run", "--run", "crash-test"),
            ("campaign --temporal", "--temporal", "campaign"),
            ("synth out --wrappers", "--wrappers", "synth"),
            ("batch DIR --profile --engine tree", "--engine", "batch"),
            ("--sym p batch DIR", "--sym", "batch"),
        ] {
            let e = args(argv).unwrap_err().0;
            assert!(
                e.starts_with(flag) && e.contains(&format!("`ccured {command}`")),
                "{argv}: {e}"
            );
        }
        // A flag before the command word is checked against that command.
        let o = args("--no-opt --json batch DIR").unwrap();
        assert!(o.command == Command::Batch && o.no_opt && o.json);
    }

    /// Two entries of one name never serve the same command, so the lookup
    /// under a command is unambiguous, and `--help` shows every entry.
    #[test]
    fn help_lists_every_flag_once_per_meaning() {
        for (i, f) in FLAGS.iter().enumerate() {
            for g in &FLAGS[i + 1..] {
                assert!(
                    f.name != g.name || !f.commands.iter().any(|c| g.commands.contains(c)),
                    "{} is declared twice for one command",
                    f.name
                );
            }
        }
        for argv in ["--help", "-h", "batch DIR --help"] {
            let r = run(&args(argv).unwrap());
            assert_eq!((r.exit, r.stderr.as_str()), (0, ""), "{argv}");
            assert!(r.stdout.starts_with("usage: ccured <file.c> [--run]"));
            for f in FLAGS {
                let line = format!("\n  {:<24} {}\n", f.synopsis(), f.help);
                assert!(r.stdout.contains(&line), "{argv}: no {line:?}");
            }
        }
    }

    /// The failures `main` reports before or instead of a driver's output.
    #[test]
    fn run_reports_unreadable_files_and_frontend_errors_on_stderr() {
        let dir = std::env::temp_dir().join(format!("ccured-cli-run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.c");
        std::fs::write(&bad, "int main(void) { return }\n").unwrap();
        let r = run(&args(&bad.display().to_string()).unwrap());
        assert_eq!(r.exit, 1);
        assert!(r.stdout.is_empty());
        let want = format!("{}:1:25: error: ", bad.display());
        assert!(r.stderr.starts_with(&want), "{}", r.stderr);
        let missing = dir.join("missing.c").display().to_string();
        let r = run(&args(&missing).unwrap());
        assert_eq!(r.exit, 2);
        assert!(r
            .stderr
            .starts_with(&format!("ccured: cannot read `{missing}`: ")));
        let r = run(&args(&format!("{} --input {missing}", bad.display())).unwrap());
        assert_eq!(r.exit, 2);
        assert!(r
            .stderr
            .starts_with(&format!("ccured: cannot read input `{missing}`: ")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_typical_invocation() {
        let o = args("prog.c --run --report --mode cured --fuel 1000").unwrap();
        assert_eq!(o.file, "prog.c");
        assert!(o.run && o.report);
        assert_eq!(o.mode, Mode::Cured);
        assert_eq!(o.fuel, Some(1000));
    }

    #[test]
    fn parses_engine_selection() {
        // The bytecode VM is the default; `tree` selects the reference
        // tree-walking engine.
        assert_eq!(args("prog.c --run").unwrap().engine, Engine::Vm);
        assert_eq!(
            args("prog.c --run --engine tree").unwrap().engine,
            Engine::Tree
        );
        assert_eq!(args("prog.c --run --engine vm").unwrap().engine, Engine::Vm);
        let e = args("prog.c --run --engine jit").unwrap_err();
        assert!(
            e.0.contains("unknown engine `jit`"),
            "unexpected error: {}",
            e.0
        );
    }

    #[test]
    fn rejects_unknown_flag_and_mode() {
        assert!(args("prog.c --frobnicate").is_err());
        assert!(args("prog.c --mode turbo").is_err());
        assert!(args("--run").is_err(), "missing file");
        assert!(args("a.c b.c").is_err(), "two files");
        assert!(args("prog.c --fuel abc").is_err());
        assert!(args("prog.c --mode").is_err(), "missing value");
    }

    #[test]
    fn parses_explain_subcommand() {
        let o = args("explain prog.c --sym p").unwrap();
        assert_eq!(o.command, Command::Explain);
        assert_eq!(o.sym.as_deref(), Some("p"));
        assert_eq!(o.file, "prog.c");
        assert!(args("prog.c --sym p").is_err(), "--sym requires explain");
        assert!(args("explain").is_err(), "explain still needs a file");
        let plain = args("prog.c --no-opt").unwrap();
        assert!(plain.no_opt && plain.command != Command::Explain);
    }

    #[test]
    fn parses_crash_test_subcommand() {
        let o = args("crash-test prog.c --mutants 30 --seed 9 --json").unwrap();
        assert!(o.command == Command::CrashTest && o.json);
        assert_eq!(o.mutants, Some(30));
        assert_eq!(o.seed, Some(9));
        assert_eq!(o.file, "prog.c");
        assert!(args("prog.c --mutants 5").is_err(), "needs crash-test");
        assert!(args("prog.c --json").is_err(), "needs crash-test");
        assert!(args("crash-test prog.c --mutants x").is_err());
        assert!(args("crash-test").is_err(), "still needs a file");
    }

    #[test]
    fn parses_profile_subcommand() {
        let o = args("profile prog.c --top 5 --json --engine tree").unwrap();
        assert!(o.command == Command::Profile && o.json);
        assert_eq!(o.top, Some(5));
        assert_eq!(o.engine, Engine::Tree);
        assert_eq!(o.file, "prog.c");
        assert!(args("prog.c --top 5").is_err(), "--top needs profile");
        assert!(args("profile").is_err(), "profile still needs a file");
        assert!(args("profile prog.c --top x").is_err());
        assert!(
            args("profile prog.c --mode original").is_err(),
            "profile is cured-mode only"
        );
    }

    #[test]
    fn drive_profile_ranks_hot_sites_identically_on_both_engines() {
        let src = "int main(void) { int a[8]; int i; int s; s = 0;\n\
                   for (i = 0; i < 8; i++) a[i] = i;\n\
                   for (i = 0; i < 8; i++) s = s + a[i];\n\
                   return s; }";
        let vm = drive(&args("profile t.c --engine vm").unwrap(), src, b"").unwrap();
        let tree = drive(&args("profile t.c --engine tree").unwrap(), src, b"").unwrap();
        assert_eq!(vm.exit, 28);
        assert_eq!(tree.exit, 28);
        assert!(vm.stdout.contains("check-site profile"), "{}", vm.stdout);
        assert!(
            vm.stdout.contains("t.c:"),
            "source positions: {}",
            vm.stdout
        );
        // Identical rankings across engines: only the engine name differs.
        assert_eq!(
            vm.stdout.replace("engine=vm", "engine=?"),
            tree.stdout.replace("engine=tree", "engine=?")
        );
    }

    /// Stdout is exactly one JSON object and its newline: what the guest
    /// printed travels in the `output` field, not ahead of the object.
    #[test]
    fn drive_profile_json_is_machine_readable() {
        let src = "extern int printf(char *fmt, ...);\n\
                   int main(void) { int a[4]; int i;\n\
                   for (i = 0; i < 4; i++) a[i] = i;\n\
                   printf(\"last = %d\\n\", a[3]);\n\
                   return a[3]; }";
        let r = drive(&args("profile t.c --json --top 3").unwrap(), src, b"").unwrap();
        assert_eq!(r.exit, 3);
        let json = r.stdout.strip_suffix('\n').unwrap_or_default();
        assert!(
            json.starts_with('{') && json.ends_with('}') && !json.contains('\n'),
            "not one JSON line: {:?}",
            r.stdout
        );
        assert!(json.contains("\"engine\":\"vm\""), "{json}");
        assert!(json.contains("\"rows\":["), "{json}");
        assert!(json.contains("\"hits\":"), "{json}");
        assert!(json.contains("\"keep_reason\":"), "{json}");
        assert!(json.ends_with(r#","output":"last = 3\n"}"#), "{json}");
    }

    #[test]
    fn drive_profile_reports_unelidable_hot_sites() {
        // p[i] through a SEQ pointer inside a loop: the bounds check stays
        // (the pointer moves), so the report must explain why.
        let src = "int sum(int *p, int n) { int s; int i; s = 0;\n\
                   for (i = 0; i < n; i++) s = s + p[i];\n\
                   return s; }\n\
                   int main(void) { int a[6]; int i;\n\
                   for (i = 0; i < 6; i++) a[i] = i;\n\
                   return sum(a, 6); }";
        let r = drive(&args("profile t.c").unwrap(), src, b"").unwrap();
        assert_eq!(r.exit, 15);
        assert!(
            r.stdout.contains("could not elide"),
            "eliminator section present: {}",
            r.stdout
        );
    }

    #[test]
    fn parses_batch_subcommand() {
        let o = args("batch examples/c --jobs 4 --cache-dir /tmp/cc --no-cache --json").unwrap();
        assert!(o.command == Command::Batch && o.json && o.no_cache);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/cc"));
        assert_eq!(o.file, "examples/c");
        assert!(args("prog.c --jobs 2").is_err(), "--jobs needs batch");
        assert!(args("prog.c --no-cache").is_err(), "--no-cache needs batch");
        assert!(args("batch").is_err(), "batch still needs a path");
        assert!(args("batch dir --jobs x").is_err());
        assert!(args("prog.c --json").is_err(), "--json needs a subcommand");
        assert!(args("batch dir --profile").unwrap().batch_profile);
        assert!(args("prog.c --profile").is_err(), "--profile needs batch");
    }

    #[test]
    fn drive_batch_cures_directory_with_cache() {
        let dir = std::env::temp_dir().join(format!("ccured-cli-batch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.c"), "int main(void) { return 0; }").unwrap();
        std::fs::write(
            dir.join("b.c"),
            "int f(int *p) { return *p; }\nint main(void) { int x; x = 2; return f(&x); }",
        )
        .unwrap();
        let cache = dir.join("cache");
        let argv = format!(
            "batch {} --jobs 2 --cache-dir {}",
            dir.display(),
            cache.display()
        );
        let o = args(&argv).unwrap();
        let cold = drive_batch(&o).unwrap();
        assert_eq!(cold.exit, 0, "{}", cold.stdout);
        assert!(cold.stdout.contains("2 units"), "{}", cold.stdout);
        let jo = args(&format!("{argv} --json")).unwrap();
        let warm = drive_batch(&jo).unwrap();
        assert_eq!(warm.exit, 0);
        assert!(
            warm.stdout.contains("\"hit_rate\":1.000000"),
            "{}",
            warm.stdout
        );
        assert!(warm.stdout.contains("\"failed\":0"), "{}", warm.stdout);
        // Profiled batch: cure still served from cache, hot sites appended.
        let po = args(&format!("{argv} --profile")).unwrap();
        let prof = drive_batch(&po).unwrap();
        assert_eq!(prof.exit, 0, "{}", prof.stdout);
        assert!(
            prof.stdout.contains("hottest check sites across the batch"),
            "{}",
            prof.stdout
        );
        let pj = drive_batch(&args(&format!("{argv} --profile --json")).unwrap()).unwrap();
        assert!(pj.stdout.contains("\"hot_sites\":[{"), "{}", pj.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_serve_and_client_subcommands() {
        let o = args(
            "serve /tmp/cc.sock --workers 3 --queue-cap 64 --deadline-ms 500 --fault-poison BOOM",
        )
        .unwrap();
        assert_eq!(o.command, Command::Serve);
        assert_eq!(o.file, "/tmp/cc.sock");
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.queue_cap, Some(64));
        assert_eq!(o.deadline_ms, Some(500));
        assert_eq!(o.fault_poison.as_deref(), Some("BOOM"));
        let c = args("client /tmp/cc.sock cure /src/a.c").unwrap();
        assert_eq!(c.command, Command::Client);
        assert_eq!(c.file, "/tmp/cc.sock");
        assert_eq!(c.request.as_deref(), Some("cure /src/a.c"));
        assert!(
            args("client /tmp/cc.sock").is_err(),
            "client needs a request"
        );
        assert!(args("serve").is_err(), "serve needs a socket");
        assert!(args("prog.c --workers 2").is_err(), "--workers needs serve");
        assert!(
            args("prog.c --deadline-ms 5").is_err(),
            "--deadline-ms needs batch/serve"
        );
        assert!(args("batch dir --deadline-ms 5").unwrap().deadline_ms == Some(5));
        assert!(args("serve /s.sock --workers x").is_err());
    }

    #[test]
    fn parses_synth_and_campaign_subcommands() {
        let s = args("synth /tmp/out --profile openssl --units 12 --seed 9").unwrap();
        assert_eq!(s.command, Command::Synth);
        assert_eq!(s.file, "/tmp/out");
        assert_eq!(s.profile_name.as_deref(), Some("openssl"));
        assert_eq!(s.units, Some(12));
        assert_eq!(s.seed, Some(9));
        assert!(args("synth").is_err(), "synth needs an out-dir");
        let c = args("campaign --units 8 --mutants-per-unit 3 --seed 5 --jobs 2 --json").unwrap();
        assert!(c.command == Command::Campaign && c.json);
        assert!(c.file.is_empty(), "campaign out-dir is optional");
        assert_eq!(c.units, Some(8));
        assert_eq!(c.mutants_per_unit, Some(3));
        let cd = args("campaign work --profile bind --no-cache").unwrap();
        assert_eq!(cd.file, "work");
        assert_eq!(cd.profile_name.as_deref(), Some("bind"));
        assert!(cd.no_cache);
        assert!(
            args("prog.c --units 4").is_err(),
            "--units needs synth/campaign"
        );
        assert!(
            args("prog.c --seed 4").is_err(),
            "--seed needs a subcommand"
        );
        assert!(
            args("synth out --mutants-per-unit 2").is_err(),
            "--mutants-per-unit needs campaign"
        );
        // `--profile` keeps its flag meaning outside synth/campaign, and
        // requires a value inside them.
        assert!(args("batch dir --profile").unwrap().batch_profile);
        assert!(
            args("synth out --profile").is_err(),
            "synth --profile needs a value"
        );
    }

    #[test]
    fn drive_synth_writes_a_deterministic_corpus() {
        let base = std::env::temp_dir().join(format!("ccured-cli-synth-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (a, b) = (base.join("a"), base.join("b"));
        for dir in [&a, &b] {
            let o = args(&format!("synth {} --units 3 --seed 7", dir.display())).unwrap();
            let r = drive_synth(&o).unwrap();
            assert_eq!(r.exit, 0);
            assert!(r.stdout.contains("wrote 3 units"), "{}", r.stdout);
        }
        let mut names: Vec<_> = std::fs::read_dir(&a)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names.len(), 3);
        for n in &names {
            let x = std::fs::read(a.join(n)).unwrap();
            let y = std::fs::read(b.join(n)).unwrap();
            assert_eq!(x, y, "same seed, same bytes: {n:?}");
        }
        assert!(
            drive_synth(&args("synth /tmp/x --profile nope").unwrap()).is_err(),
            "unknown profile rejected"
        );
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn drive_campaign_small_run_is_sound() {
        let dir = std::env::temp_dir().join(format!("ccured-cli-camp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let o = args(&format!(
            "campaign {} --units 4 --mutants-per-unit 1 --seed 11",
            dir.display()
        ))
        .unwrap();
        let r = drive_campaign(&o).unwrap();
        assert_eq!(r.exit, 0, "{}", r.stdout);
        assert!(r.stdout.contains("SOUND"), "{}", r.stdout);
        let j = drive_campaign(
            &args(&format!(
                "campaign {} --units 4 --mutants-per-unit 1 --seed 11 --json",
                dir.display()
            ))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(j.exit, 0, "{}", j.stdout);
        assert!(j.stdout.contains("\"sound\":true"), "{}", j.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drive_batch_deadline_exhaustion_exits_7() {
        let dir = std::env::temp_dir().join(format!("ccured-cli-ddl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.c"), "int main(void) { return 0; }").unwrap();
        // A zero budget trips at the first stage boundary on any machine.
        let o = args(&format!(
            "batch {} --no-cache --deadline-ms 0",
            dir.display()
        ))
        .unwrap();
        let r = drive_batch(&o).unwrap();
        assert_eq!(r.exit, 7, "{}", r.stdout);
        assert!(r.stdout.contains("resource-exhausted"), "{}", r.stdout);
        // With a generous budget the same batch is clean.
        let o = args(&format!(
            "batch {} --no-cache --deadline-ms 60000",
            dir.display()
        ))
        .unwrap();
        let r = drive_batch(&o).unwrap();
        assert_eq!(r.exit, 0, "{}", r.stdout);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn drive_client_unreachable_daemon_exits_4() {
        let o = args("client /nonexistent-ccured.sock status").unwrap();
        let r = drive_client(&o);
        assert_eq!(r.exit, 4);
        assert!(r.stdout.contains("cannot reach"), "{}", r.stdout);
    }

    #[test]
    fn drive_batch_missing_path_is_an_error() {
        let o = args("batch /nonexistent-ccured-dir").unwrap();
        assert!(matches!(drive_batch(&o), Err(CureError::Internal(_))));
    }

    #[test]
    fn drive_crash_test_prints_matrix_and_exits_clean() {
        let src = "int main(void) { int a[6]; int i; int s; s = 0;\n\
                   for (i = 0; i < 6; i++) a[i] = i;\n\
                   for (i = 0; i < 6; i++) s = s + a[i];\n\
                   return s; }";
        let o = args("crash-test t.c --mutants 12 --seed 5").unwrap();
        let r = drive(&o, src, b"").unwrap();
        assert_eq!(r.exit, 0, "no escapes expected:\n{}", r.stdout);
        assert!(r.stdout.contains("fault class"), "{}", r.stdout);
        assert!(r.stdout.contains("no escapes"), "{}", r.stdout);
        let j = drive(
            &args("crash-test t.c --mutants 6 --json").unwrap(),
            src,
            b"",
        )
        .unwrap();
        assert_eq!(j.exit, 0);
        assert!(j.stdout.trim_end().starts_with('{'), "{}", j.stdout);
        assert!(j.stdout.contains("\"escaped\":[]"), "{}", j.stdout);
    }

    #[test]
    fn drive_explain_names_the_poisoning_cast() {
        let o = args("explain t.c").unwrap();
        let r = drive(
            &o,
            "int f(double *d) { int *q; q = (int *)d; return *q; }",
            b"",
        )
        .unwrap();
        assert_eq!(r.exit, 0);
        assert!(r.stdout.contains("is Wild"), "{}", r.stdout);
        assert!(r.stdout.contains("bad cast"), "{}", r.stdout);
        assert!(r.stdout.contains("t.c:1:"), "{}", r.stdout);
    }

    #[test]
    fn drive_explain_sym_filters_and_handles_safe() {
        let src = "int f(double *d, int *ok) { int *q; q = (int *)d; return *q + *ok; }";
        let r = drive(&args("explain t.c --sym ok").unwrap(), src, b"").unwrap();
        assert!(r.stdout.contains("`f::ok` is Safe"), "{}", r.stdout);
        assert!(!r.stdout.contains("is Wild"), "{}", r.stdout);
        let r = drive(&args("explain t.c --sym nosuch").unwrap(), src, b"").unwrap();
        assert!(r.stdout.contains("no pointer named"), "{}", r.stdout);
    }

    #[test]
    fn drive_explain_reports_nothing_wild() {
        let r = drive(
            &args("explain t.c").unwrap(),
            "int f(int *p) { return *p; }",
            b"",
        )
        .unwrap();
        assert!(r.stdout.contains("no WILD pointers"), "{}", r.stdout);
    }

    #[test]
    fn drive_review_includes_blame() {
        let src = "int f(double *d) { int *q; q = (int *)d; return *q; }";
        let r = drive(&args("t.c --review").unwrap(), src, b"").unwrap();
        assert!(r.stdout.contains("BAD cast"), "{}", r.stdout);
        assert!(r.stdout.contains("root cause"), "{}", r.stdout);
    }

    #[test]
    fn drive_report_shows_elision_and_no_opt_disables_it() {
        let src = "int main(void) { int x; int *p; x = 1; p = &x; return *p + *p; }";
        let opt = drive(&args("t.c --report").unwrap(), src, b"").unwrap();
        assert!(opt.stdout.contains("checks elided:"), "{}", opt.stdout);
        assert!(!opt.stdout.contains("checks elided: 0 "), "{}", opt.stdout);
        let noopt = drive(&args("t.c --report --no-opt").unwrap(), src, b"").unwrap();
        assert!(
            noopt.stdout.contains("checks elided: 0 "),
            "{}",
            noopt.stdout
        );
    }

    #[test]
    fn drive_warns_on_static_failures() {
        let r = drive(
            &args("t.c").unwrap(),
            "int main(void) { int *p; p = 0; return *p; }",
            b"",
        )
        .unwrap();
        assert!(r.stdout.contains("warning:"), "{}", r.stdout);
        assert!(r.stdout.contains("null"), "{}", r.stdout);
        assert!(
            r.stdout.contains("t.c:1:"),
            "position attached: {}",
            r.stdout
        );
    }

    #[test]
    fn drive_wrappers_report_positions_in_the_users_file() {
        // The bad cast is on line 7 and the certain null dereference on
        // line 4 of the user's file; the wrapper prelude parsed before it
        // must not shift either position.
        let wild = "struct A { int x; };\nstruct B { double y; char *s; };\n\
                    int main(void) {\n  struct A a;\n  struct B *b;\n  a.x = 1;\n\
                    \x20 b = (struct B *)&a;\n  return b->s == 0;\n}\n";
        let r = drive(&args("explain wild.c --wrappers").unwrap(), wild, b"").unwrap();
        assert!(r.stdout.contains(" at wild.c:7:7: "), "{}", r.stdout);
        let null = "int main(void) {\n  int *p = 0;\n  int x;\n  x = *p;\n  return x;\n}\n";
        let r = drive(&args("sf.c --wrappers").unwrap(), null, b"").unwrap();
        assert!(r.stdout.starts_with("sf.c:4:3: warning:"), "{}", r.stdout);
    }

    #[test]
    fn drive_cures_and_runs() {
        let o = args("mem.c --run --report").unwrap();
        let r = drive(
            &o,
            "int main(void) { int a[4]; for (int i = 0; i < 4; i++) a[i] = i; return a[3]; }",
            b"",
        )
        .unwrap();
        assert_eq!(r.exit, 3, "main returns a[3]");
        assert!(r.stdout.contains("pointer kinds:"));
        assert!(r.stdout.contains("checks inserted:"));
    }

    #[test]
    fn drive_reports_check_failures_with_exit_3() {
        let o = args("mem.c --run").unwrap();
        let r = drive(
            &o,
            "int main(void) { int a[2]; a[0] = 1; a[1] = 2; int i = 5; return a[i]; }",
            b"",
        )
        .unwrap();
        assert_eq!(r.exit, 3);
        assert!(r.stdout.contains("ccured check"));
    }

    #[test]
    fn drive_run_fuel_exhaustion_exits_4_on_both_engines() {
        let spin = "int main(void) { int i; i = 0; while (1) { i = i + 1; } return i; }";
        for engine in ["vm", "tree"] {
            let o = args(&format!("spin.c --run --fuel 50 --engine {engine}")).unwrap();
            let r = drive(&o, spin, b"").unwrap();
            assert_eq!(r.exit, 4, "{engine}: {}", r.stdout);
            assert!(
                r.stdout
                    .contains("ccured: runtime error: instruction budget exhausted"),
                "{engine}: {}",
                r.stdout
            );
        }
    }

    #[test]
    fn drive_original_mode_runs_plain() {
        let o = args("mem.c --run --mode original --counters").unwrap();
        let r = drive(&o, "int main(void) { return 5; }", b"").unwrap();
        assert_eq!(r.exit, 5);
        assert!(r.stdout.contains("-- counters:"));
    }

    /// A baseline `--mode` runs the plain program, which has no blame
    /// paths: `explain` refuses every such mode, and a plain run names
    /// each cure output it skips, `--review` included.
    #[test]
    fn baseline_modes_refuse_explain_and_name_the_ignored_flags() {
        for mode in ["original", "purify", "valgrind", "joneskelly"] {
            for line in [
                format!("explain prog.c --mode {mode}"),
                format!("explain prog.c --run --mode {mode}"),
            ] {
                let e = args(&line).expect_err(&line);
                assert!(
                    e.0.starts_with("`explain` runs in cured mode"),
                    "{line}: {e}"
                );
            }
        }
        assert!(args("explain prog.c --run --mode cured").is_ok());
        for flag in ["--review", "--report", "--emit-ir"] {
            let o = args(&format!("mem.c --run --mode original {flag}")).unwrap();
            let r = drive(&o, "int main(void) { return 5; }", b"").unwrap();
            assert_eq!(r.exit, 5);
            assert_eq!(
                r.stdout,
                "ccured: note: --report/--review/--emit-ir apply to cured mode only \
                 and are ignored here\n",
                "{flag}"
            );
        }
    }

    #[test]
    fn drive_emit_ir_dumps_checks() {
        let o = args("mem.c --emit-ir").unwrap();
        let r = drive(&o, "int f(int *p) { return *p; }", b"").unwrap();
        assert!(r.stdout.contains("CHECK_NULL"));
    }

    #[test]
    fn drive_wrappers_and_input() {
        let o = args("mem.c --run --wrappers").unwrap();
        let r = drive(
            &o,
            "extern int getchar(void);\n\
             int main(void) { char b[8]; b[0] = (char)getchar(); b[1] = 0; return (int)strlen(b); }",
            b"x",
        )
        .unwrap();
        assert_eq!(r.exit, 1);
    }

    #[test]
    fn drive_original_ccured_ablation() {
        let src = "struct F { void *vt; } gf;\n\
                   struct C { void *vt; int r; } gc;\n\
                   int g(struct F *f) { struct C *c; c = (struct C *)f; return c->r; }\n\
                   int main(void) { struct C c; c.vt = 0; c.r = 5; return g((struct F *)&c); }";
        let modern = drive(&args("m.c --run --report").unwrap(), src, b"").unwrap();
        assert_eq!(modern.exit, 5);
        assert!(modern.stdout.contains("0% WILD"), "{}", modern.stdout);
        let old = drive(
            &args("m.c --run --report --original-ccured").unwrap(),
            src,
            b"",
        )
        .unwrap();
        assert_eq!(old.exit, 5, "WILD pointers still execute correctly");
        assert!(!old.stdout.contains(" 0% WILD"), "{}", old.stdout);
    }

    #[test]
    fn drive_split_everything_flag() {
        let src = "extern void *malloc(unsigned long n);\n\
                   int main(void) {\n\
                     int **pp = (int **)malloc(8 * sizeof(int *));\n\
                     int *cell = (int *)malloc(4);\n\
                     *cell = 6;\n\
                     for (int i = 0; i < 8; i++) pp[i] = cell;\n\
                     return *pp[7];\n\
                   }";
        let plain = drive(&args("m.c --run --counters").unwrap(), src, b"").unwrap();
        assert_eq!(plain.exit, 6);
        assert!(plain.stdout.contains("meta_ops=0"), "{}", plain.stdout);
        let split = drive(
            &args("m.c --run --counters --split-everything").unwrap(),
            src,
            b"",
        )
        .unwrap();
        assert_eq!(split.exit, 6);
        assert!(!split.stdout.contains("meta_ops=0"), "{}", split.stdout);
    }

    #[test]
    fn parses_temporal_flag() {
        let o = args("prog.c --run --temporal").unwrap();
        assert!(o.temporal);
        assert!(args("crash-test prog.c --temporal").unwrap().temporal);
        assert!(args("profile prog.c --temporal").unwrap().temporal);
        assert!(
            args("prog.c --run --mode original --temporal").is_err(),
            "--temporal is cured-mode only"
        );
    }

    #[test]
    fn drive_temporal_catches_use_after_free_on_both_engines() {
        let src = "extern void *malloc(unsigned long n);\n\
                   extern void free(void *p);\n\
                   int main(void) {\n\
                     int *p = (int *)malloc(4);\n\
                     *p = 41;\n\
                     free(p);\n\
                     return *p + 1;\n\
                   }";
        // Without --temporal the GC-backed `free` masks the bug entirely.
        let plain = drive(&args("t.c --run").unwrap(), src, b"").unwrap();
        assert_eq!(plain.exit, 42, "{}", plain.stdout);
        // With it, the dangling deref is an ordinary check failure.
        let vm = drive(&args("t.c --run --temporal --counters").unwrap(), src, b"").unwrap();
        let tree = drive(
            &args("t.c --run --temporal --counters --engine tree").unwrap(),
            src,
            b"",
        )
        .unwrap();
        assert_eq!(vm.exit, 3, "{}", vm.stdout);
        assert!(vm.stdout.contains("use after free"), "{}", vm.stdout);
        assert!(!vm.stdout.contains("temporal=0"), "{}", vm.stdout);
        assert_eq!(vm.stdout, tree.stdout, "engines agree byte-for-byte");
    }

    #[test]
    fn drive_temporal_rejects_double_free() {
        let src = "extern void *malloc(unsigned long n);\n\
                   extern void free(void *p);\n\
                   int main(void) {\n\
                     int *p = (int *)malloc(4);\n\
                     *p = 1;\n\
                     free(p);\n\
                     free(p);\n\
                     return 0;\n\
                   }";
        let plain = drive(&args("t.c --run").unwrap(), src, b"").unwrap();
        assert_eq!(plain.exit, 0, "gc mode masks it: {}", plain.stdout);
        let r = drive(&args("t.c --run --temporal").unwrap(), src, b"").unwrap();
        assert_eq!(r.exit, 3, "{}", r.stdout);
        assert!(r.stdout.contains("free rejected"), "{}", r.stdout);
        assert!(r.stdout.contains("double free"), "{}", r.stdout);
    }

    #[test]
    fn drive_temporal_report_and_ir_show_the_new_checks() {
        let src = "extern void *malloc(unsigned long n);\n\
                   int main(void) { int *p = (int *)malloc(4); *p = 7; return *p; }";
        let r = drive(
            &args("t.c --report --emit-ir --temporal").unwrap(),
            src,
            b"",
        )
        .unwrap();
        assert_eq!(r.exit, 0);
        assert!(r.stdout.contains("CHECK_TEMPORAL"), "{}", r.stdout);
        assert!(!r.stdout.contains("temporal=0)"), "{}", r.stdout);
        // Without the flag nothing temporal is emitted.
        let off = drive(&args("t.c --report --emit-ir").unwrap(), src, b"").unwrap();
        assert!(!off.stdout.contains("CHECK_TEMPORAL"), "{}", off.stdout);
    }

    #[test]
    fn profile_json_escapes_control_characters_in_the_unit_name() {
        let argv = ["profile", "quick\tstart.c", "--json"];
        let o = parse_args(argv.iter().map(|a| a.to_string())).unwrap();
        let src = "int main(void) { int a[2]; a[0] = 1; return a[0]; }";
        let prof = drive(&o, src, b"").unwrap();
        let text = prof.stdout;
        assert!(text.contains(ccured_rt::PROFILE_SCHEMA), "{text}");
        assert!(text.contains(r#""file":"quick\tstart.c""#), "{text}");
        // The trailing newline is the only control byte: none inside a string.
        assert!(
            !text.trim_end().bytes().any(|b| b < 0x20),
            "raw control byte in {text:?}"
        );
    }

    #[test]
    fn strict_link_reported_as_error() {
        let o = args("mem.c --strict-link").unwrap();
        let e = drive(
            &o,
            "extern void use_buf(char *b);\n\
             void f(char *b, int i) { b = b + i; use_buf(b); }\n\
             int main(void) { return 0; }",
            b"",
        );
        assert!(matches!(e, Err(CureError::Link(_))));
    }
}
