//! # ccured-cli
//!
//! The command-line driver: cure a C file, inspect the inference results,
//! and run the program on the ccured-rs abstract machine in any
//! instrumentation mode.
//!
//! ```text
//! ccured <file.c> [options]
//! ccured explain <file.c> [--sym name] [options]
//! ccured crash-test <file.c> [--mutants N] [--seed S] [--json]
//! ccured batch <dir|manifest|file.c> [--jobs N] [--cache-dir D] [--no-cache] [--profile] [--json]
//!                             [--deadline-ms N]
//! ccured profile <file.c> [--top N] [--json] [--engine vm|tree]
//! ccured serve <socket> [--workers N] [--cache-dir D] [--no-cache] [--deadline-ms N]
//!                       [--queue-cap N] [--fault-poison SUBSTR]
//! ccured client <socket> <request...>
//! ccured synth <out-dir> [--profile P] [--units N] [--seed S]
//! ccured campaign [out-dir] [--profile P] [--units N] [--seed S] [--mutants-per-unit K]
//!                 [--jobs N] [--cache-dir D] [--no-cache] [--json]
//!
//!   --run                 execute after curing (default mode: cured)
//!   --mode <m>            original | cured | purify | valgrind | joneskelly
//!   --input <file>        bytes for the input builtins (getchar/net_recv)
//!   --report              print the cure report (kinds, casts, checks)
//!   --review              print the code-review surface (trusted/bad casts
//!                         plus WILD blame paths)
//!   --sym <name>          `explain`: only this symbol (local as `f::p`
//!                         or plain `p`, global by name)
//!   --counters            print event counters after --run
//!   --emit-ir             dump the (instrumented) CIL
//!   --wrappers            prepend the stdlib wrapper prelude
//!   --strict-link         fail on link-audit findings
//!   --original-ccured     disable physical subtyping and RTTI
//!   --no-rtti             disable RTTI only
//!   --no-opt              disable redundant-check elimination (ablation)
//!   --no-loop-opt         disable loop-invariant hoisting and SEQ bounds
//!                         widening; elimination still runs (ablation)
//!   --split-everything    force the SPLIT representation everywhere
//!   --split-at-boundaries seed SPLIT at external-call boundaries
//!   --fuel <n>            instruction budget for --run
//!   --top <n>             `profile`: rows in the hot-site table (default 10)
//!   --mutants <n>         `crash-test`: number of mutants (default 60)
//!   --seed <s>            `crash-test`/`synth`/`campaign`: batch seed (default 1)
//!   --json                `crash-test`/`batch`/`campaign`: machine-readable report
//!   --jobs <n>            `batch`: worker threads (default: one per core)
//!   --cache-dir <d>       `batch`: cache directory (default .ccured-cache)
//!   --no-cache            `batch`: disable the content-addressed cache
//!   --profile             `batch`: execute every cured unit and aggregate
//!                         the hottest check sites across the batch
//!   --profile <p>         `synth`/`campaign`: generation profile
//!                         (mixed|openssl|bind|openssh; campaign default: all)
//!   --units <n>           `synth`/`campaign`: units to generate
//!   --mutants-per-unit <k> `campaign`: seeded faults per unit (default 2)
//! ```
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
//! tested; `main.rs` is a thin wrapper.

use ccured::{json, CureError, Cured, Curer};
use ccured_rt::{Engine, ExecMode, Interp, Limits, RunStats};
use std::fmt;

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

/// Parsed command line.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// The C source file.
    pub file: String,
    /// `explain` subcommand: print blame paths for WILD pointers.
    pub explain: bool,
    /// `crash-test` subcommand: run the fault-injection harness.
    pub crash_test: bool,
    /// `batch` subcommand: cure a directory/manifest of units in parallel.
    pub batch: bool,
    /// `profile` subcommand: run with per-site check profiling and print
    /// the ranked hot-site table.
    pub profile: bool,
    /// `serve` subcommand: start the long-lived cure daemon.
    pub serve: bool,
    /// `client` subcommand: send one request line to a running daemon.
    pub client: bool,
    /// `synth` subcommand: write a generated corpus to a directory.
    pub synth: bool,
    /// `campaign` subcommand: generate + cure + differential + crash-test.
    pub campaign: bool,
    /// `--units`: synth/campaign corpus size.
    pub units: Option<usize>,
    /// `--mutants-per-unit`: campaign seeded faults per unit.
    pub mutants_per_unit: Option<usize>,
    /// `--profile <name>` (synth/campaign): generation profile.
    pub profile_name: Option<String>,
    /// `client`: the request line (remaining positional words, joined).
    pub request: Option<String>,
    /// `--workers`: serve worker threads (None: daemon default).
    pub workers: Option<usize>,
    /// `--queue-cap`: serve request-queue capacity before `busy` shedding.
    pub queue_cap: Option<usize>,
    /// `--deadline-ms`: per-unit cure wall-clock budget (`batch`/`serve`).
    pub deadline_ms: Option<u64>,
    /// `--fault-poison`: serve fault injection — a worker panics when a
    /// requested unit's source contains this substring (tests/CI only).
    pub fault_poison: Option<String>,
    /// `--top`: rows in the profile table (default 10).
    pub top: Option<usize>,
    /// `--jobs`: batch worker threads (None: one per core).
    pub jobs: Option<usize>,
    /// `--cache-dir`: batch cache directory.
    pub cache_dir: Option<String>,
    /// `--no-cache`: disable the batch cache.
    pub no_cache: bool,
    /// `--mutants`: crash-test batch size.
    pub mutants: Option<usize>,
    /// `--seed`: crash-test batch seed.
    pub seed: Option<u64>,
    /// `--json`: machine-readable crash-test report.
    pub json: bool,
    /// `--sym`: restrict `explain` to one symbol.
    pub sym: Option<String>,
    /// Execute after curing.
    pub run: bool,
    /// Execution mode.
    pub mode: Mode,
    /// Input file for the input builtins.
    pub input: Option<String>,
    /// Print the cure report.
    pub report: bool,
    /// Print the code-review surface (trusted and bad casts).
    pub review: bool,
    /// Print counters after a run.
    pub counters: bool,
    /// Dump the instrumented IR.
    pub emit_ir: bool,
    /// Prepend the stdlib wrappers.
    pub wrappers: bool,
    /// Fail on link-audit findings.
    pub strict_link: bool,
    /// Original-CCured configuration.
    pub original_ccured: bool,
    /// Disable RTTI only.
    pub no_rtti: bool,
    /// Disable redundant-check elimination.
    pub no_opt: bool,
    /// Disable only the loop optimizer (hoisting + widening), keeping the
    /// flow-sensitive eliminator on — the ablation between PR-5 and PR-6
    /// optimization levels.
    pub no_loop_opt: bool,
    /// Force SPLIT everywhere.
    pub split_everything: bool,
    /// Seed SPLIT at boundaries.
    pub split_at_boundaries: bool,
    /// Instruction budget.
    pub fuel: Option<u64>,
    /// Execution engine (`vm` is the default; `tree` is the reference
    /// tree-walking oracle).
    pub engine: Engine,
    /// `--temporal`: emit lock-and-key temporal checks (use-after-free and
    /// double-free become ordinary check failures with blame, instead of
    /// being silently neutralized by the GC-backed `free`).
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

/// Parses argv (without the program name).
///
/// # Errors
///
/// [`UsageError`] for unknown flags, missing values, or a missing file.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, UsageError> {
    let mut o = Options::default();
    let mut it = args.into_iter();
    let need = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next()
            .ok_or_else(|| UsageError(format!("{flag} requires a value")))
    };
    let mut first_positional = true;
    let mut profile_flag = false;
    while let Some(a) = it.next() {
        match a.as_str() {
            // Subcommand form: `ccured explain <file.c> [--sym name]`.
            "explain" if first_positional => {
                first_positional = false;
                o.explain = true;
            }
            // `ccured crash-test <file.c> [--mutants N] [--seed S] [--json]`.
            "crash-test" if first_positional => {
                first_positional = false;
                o.crash_test = true;
            }
            // `ccured batch <dir|manifest> [--jobs N] [--cache-dir D] ...`.
            "batch" if first_positional => {
                first_positional = false;
                o.batch = true;
            }
            // `ccured profile <file.c> [--top N] [--json] [--engine vm|tree]`.
            "profile" if first_positional => {
                first_positional = false;
                o.profile = true;
            }
            // `ccured serve <socket> [--workers N] [--deadline-ms N] ...`.
            "serve" if first_positional => {
                first_positional = false;
                o.serve = true;
            }
            // `ccured client <socket> <request...>`.
            "client" if first_positional => {
                first_positional = false;
                o.client = true;
            }
            // `ccured synth <out-dir> [--profile P] [--units N] [--seed S]`.
            "synth" if first_positional => {
                first_positional = false;
                o.synth = true;
            }
            // `ccured campaign [out-dir] [--profile P] [--units N] ...`.
            "campaign" if first_positional => {
                first_positional = false;
                o.campaign = true;
            }
            // `--profile` is overloaded: for `synth`/`campaign` it names a
            // generation profile and consumes a value; elsewhere it is the
            // batch site-profiling flag. The subcommand word always comes
            // first positionally, so the meaning is settled by now.
            "--profile" if o.synth || o.campaign => {
                o.profile_name = Some(need(&mut it, "--profile")?);
            }
            // `--profile` (flag form): profile every unit of a batch.
            "--profile" => {
                profile_flag = true;
                o.profile = true;
            }
            "--units" => {
                let v = need(&mut it, "--units")?;
                o.units = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--units: `{v}` is not a number")))?,
                );
            }
            "--mutants-per-unit" => {
                let v = need(&mut it, "--mutants-per-unit")?;
                o.mutants_per_unit = Some(v.parse().map_err(|_| {
                    UsageError(format!("--mutants-per-unit: `{v}` is not a number"))
                })?);
            }
            "--top" => {
                let v = need(&mut it, "--top")?;
                o.top = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--top: `{v}` is not a number")))?,
                );
            }
            "--no-cache" => o.no_cache = true,
            "--cache-dir" => o.cache_dir = Some(need(&mut it, "--cache-dir")?),
            "--workers" => {
                let v = need(&mut it, "--workers")?;
                o.workers = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--workers: `{v}` is not a number")))?,
                );
            }
            "--queue-cap" => {
                let v = need(&mut it, "--queue-cap")?;
                o.queue_cap = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--queue-cap: `{v}` is not a number")))?,
                );
            }
            "--deadline-ms" => {
                let v = need(&mut it, "--deadline-ms")?;
                o.deadline_ms =
                    Some(v.parse().map_err(|_| {
                        UsageError(format!("--deadline-ms: `{v}` is not a number"))
                    })?);
            }
            "--fault-poison" => o.fault_poison = Some(need(&mut it, "--fault-poison")?),
            "--jobs" => {
                let v = need(&mut it, "--jobs")?;
                o.jobs = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--jobs: `{v}` is not a number")))?,
                );
            }
            "--run" => o.run = true,
            "--report" => o.report = true,
            "--review" => o.review = true,
            "--counters" => o.counters = true,
            "--emit-ir" => o.emit_ir = true,
            "--wrappers" => o.wrappers = true,
            "--strict-link" => o.strict_link = true,
            "--original-ccured" => o.original_ccured = true,
            "--no-rtti" => o.no_rtti = true,
            "--no-opt" => o.no_opt = true,
            "--no-loop-opt" => o.no_loop_opt = true,
            "--sym" => o.sym = Some(need(&mut it, "--sym")?),
            "--json" => o.json = true,
            "--mutants" => {
                let v = need(&mut it, "--mutants")?;
                o.mutants = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--mutants: `{v}` is not a number")))?,
                );
            }
            "--seed" => {
                let v = need(&mut it, "--seed")?;
                o.seed = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--seed: `{v}` is not a number")))?,
                );
            }
            "--split-everything" => o.split_everything = true,
            "--split-at-boundaries" => o.split_at_boundaries = true,
            "--mode" => {
                let v = need(&mut it, "--mode")?;
                o.mode = match v.as_str() {
                    "cured" => Mode::Cured,
                    "original" => Mode::Original,
                    "purify" => Mode::Purify,
                    "valgrind" => Mode::Valgrind,
                    "joneskelly" => Mode::JonesKelly,
                    other => {
                        return Err(UsageError(format!(
                            "unknown mode `{other}` (expected cured|original|purify|valgrind|joneskelly)"
                        )))
                    }
                };
            }
            "--engine" => {
                let v = need(&mut it, "--engine")?;
                o.engine = v.parse().map_err(|e: String| UsageError(e))?;
            }
            "--input" => o.input = Some(need(&mut it, "--input")?),
            "--temporal" => o.temporal = true,
            "--fuel" => {
                let v = need(&mut it, "--fuel")?;
                o.fuel = Some(
                    v.parse()
                        .map_err(|_| UsageError(format!("--fuel: `{v}` is not a number")))?,
                );
            }
            "--help" | "-h" => return Err(UsageError(USAGE.to_string())),
            flag if flag.starts_with('-') => {
                return Err(UsageError(format!("unknown flag `{flag}`\n{USAGE}")))
            }
            file => {
                first_positional = false;
                if o.file.is_empty() {
                    o.file = file.to_string();
                } else if o.client {
                    // `client <socket> <request...>`: everything after the
                    // socket path is the request line.
                    match &mut o.request {
                        Some(r) => {
                            r.push(' ');
                            r.push_str(file);
                        }
                        None => o.request = Some(file.to_string()),
                    }
                } else {
                    return Err(UsageError(format!("unexpected extra argument `{file}`")));
                }
            }
        }
    }
    if o.file.is_empty() && !o.campaign {
        // `campaign` may omit the out-dir (a scratch directory is used);
        // everything else, including `synth`, needs its positional.
        return Err(UsageError(format!("no input file\n{USAGE}")));
    }
    if o.sym.is_some() && !o.explain {
        return Err(UsageError(
            "--sym only applies to the `explain` subcommand".into(),
        ));
    }
    if o.mutants.is_some() && !o.crash_test {
        return Err(UsageError(
            "--mutants only applies to the `crash-test` subcommand".into(),
        ));
    }
    if o.seed.is_some() && !(o.crash_test || o.synth || o.campaign) {
        return Err(UsageError(
            "--seed only applies to the `crash-test`, `synth` and `campaign` subcommands".into(),
        ));
    }
    if o.units.is_some() && !(o.synth || o.campaign) {
        return Err(UsageError(
            "--units only applies to the `synth` and `campaign` subcommands".into(),
        ));
    }
    if o.mutants_per_unit.is_some() && !o.campaign {
        return Err(UsageError(
            "--mutants-per-unit only applies to the `campaign` subcommand".into(),
        ));
    }
    if o.json && !(o.crash_test || o.batch || o.profile || o.campaign) {
        return Err(UsageError(
            "--json only applies to the `crash-test`, `batch`, `profile` and `campaign` subcommands".into(),
        ));
    }
    if o.top.is_some() && !o.profile {
        return Err(UsageError(
            "--top only applies to the `profile` subcommand".into(),
        ));
    }
    if profile_flag && !o.batch {
        return Err(UsageError(
            "--profile only applies to the `batch` subcommand (use `ccured profile <file.c>` for one unit)".into(),
        ));
    }
    if o.profile && o.mode != Mode::Cured {
        return Err(UsageError(
            "`profile` runs in cured mode (the checks being profiled only exist there)".into(),
        ));
    }
    if (o.jobs.is_some() || o.cache_dir.is_some() || o.no_cache)
        && !(o.batch || o.serve || o.campaign)
    {
        return Err(UsageError(
            "--jobs/--cache-dir/--no-cache only apply to the `batch`, `serve` and `campaign` subcommands"
                .into(),
        ));
    }
    if o.deadline_ms.is_some() && !(o.batch || o.serve) {
        return Err(UsageError(
            "--deadline-ms only applies to the `batch` and `serve` subcommands".into(),
        ));
    }
    if (o.workers.is_some() || o.queue_cap.is_some() || o.fault_poison.is_some()) && !o.serve {
        return Err(UsageError(
            "--workers/--queue-cap/--fault-poison only apply to the `serve` subcommand".into(),
        ));
    }
    if o.temporal && o.mode != Mode::Cured {
        return Err(UsageError(
            "--temporal only applies to cured mode (the temporal checks are cure-inserted)".into(),
        ));
    }
    if o.client && o.request.is_none() {
        return Err(UsageError(
            "client needs a request, e.g. `ccured client /tmp/cc.sock status`".into(),
        ));
    }
    Ok(o)
}

/// The usage string.
pub const USAGE: &str =
    "usage: ccured <file.c> [--run] [--mode cured|original|purify|valgrind|joneskelly]
              [--input FILE] [--report] [--review] [--counters] [--emit-ir] [--wrappers]
              [--strict-link] [--original-ccured] [--no-rtti] [--no-opt] [--no-loop-opt]
              [--split-everything] [--split-at-boundaries] [--fuel N] [--engine vm|tree]
              [--temporal]
       ccured explain <file.c> [--sym NAME] [other options]
       ccured crash-test <file.c> [--mutants N] [--seed S] [--json] [--temporal]
       ccured batch <dir|manifest|file.c> [--jobs N] [--cache-dir D] [--no-cache] [--profile] [--json]
                   [--deadline-ms N]
       ccured profile <file.c> [--top N] [--json] [--engine vm|tree] [--temporal]
       ccured serve <socket> [--workers N] [--cache-dir D] [--no-cache] [--deadline-ms N]
                   [--queue-cap N] [--fault-poison SUBSTR]
       ccured client <socket> <request...>   (cure|profile|explain <path> | status|reset|shutdown)
       ccured synth <out-dir> [--profile mixed|openssl|bind|openssh] [--units N] [--seed S]
       ccured campaign [out-dir] [--profile P] [--units N] [--seed S] [--mutants-per-unit K]
                   [--jobs N] [--cache-dir D] [--no-cache] [--json]";

/// What a driver invocation produced (for testing and for `main`).
#[derive(Debug)]
pub struct Outcome {
    /// Exit code to report.
    pub exit: i32,
    /// Everything that should go to stdout.
    pub stdout: String,
}

/// Runs the driver on the given source text.
///
/// # Errors
///
/// Cure errors are returned; run-time errors become part of the outcome
/// (non-zero exit with a message), matching what a compiler driver does.
pub fn drive(o: &Options, source: &str, input: &[u8]) -> Result<Outcome, CureError> {
    let mut out = String::new();

    if o.crash_test {
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
        return Ok(Outcome { exit, stdout: out });
    }

    // Baseline/original modes skip the cure (they run the plain program).
    if o.run && o.mode != Mode::Cured {
        if o.report || o.emit_ir {
            out.push_str(
                "ccured: note: --report/--emit-ir apply to cured mode only and are ignored here
",
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
    if o.explain || o.review {
        render_explanations(&cured, o, &map, &mut out);
        if o.explain && o.sym.is_none() {
            render_opt_actions(&cured, &map, &mut out);
        }
    }
    if o.emit_ir {
        out.push_str(&ccured_cil::pretty::dump_program(&cured.program));
    }
    if o.profile {
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
    Ok(Outcome {
        exit: 0,
        stdout: out,
    })
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
    cfg.profile = o.profile;
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
    Ok(Outcome {
        exit: if exhausted {
            7
        } else if report.failed() == 0 {
            0
        } else {
            1
        },
        stdout,
    })
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
    Ok(Outcome {
        exit: 0,
        stdout: String::new(),
    })
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
            Outcome {
                exit,
                stdout: format!("{reply}\n"),
            }
        }
        Err(e) => Outcome {
            exit: 4,
            stdout: format!("ccured client: cannot reach `{}`: {e}\n", o.file),
        },
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
    Ok(Outcome {
        exit: 0,
        stdout: format!(
            "synth: wrote {} units (profile {}, seed {seed}) to {}\n",
            workloads.len(),
            profile.name,
            o.file
        ),
    })
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
    Ok(Outcome { exit, stdout })
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
            if explained == 0 && o.explain {
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
            s.check,
            s.opt_action.unwrap_or("?"),
        ));
    }
}

/// Runs `prog` once on the options' engine, input and limits, profiling
/// `sites` check sites when given. Appends the guest's output, and a
/// runtime-error line when the run failed, to `out`. The exit code is the
/// program's own, 3 when a check failed, or 4 for any other run-time error.
fn run(
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
    let (stats, exit) = run(prog, mode, o, input, None, &mut out);
    if o.counters {
        let c = &stats.counters;
        out.push_str(&format!(
            "-- counters: instrs={} loads={} stores={} checks={} (null={} seq={} wild={} rtti={} index={} temporal={}) meta_ops={}\n",
            c.instrs,
            c.loads,
            c.stores,
            c.total_checks(),
            c.null_checks,
            c.seq_bounds_checks,
            c.wild_bounds_checks + c.wild_tag_checks,
            c.rtti_checks,
            c.index_checks,
            c.temporal_checks,
            c.meta_ops,
        ));
    }
    Outcome { exit, stdout: out }
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
    let (stats, exit) = run(
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
    Outcome { exit, stdout: out }
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
            r.site.check,
            r.site.ptr_kind,
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
                r.site.check,
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
    let k = &r.checks_inserted;
    out.push_str(&format!(
        "checks inserted: {} (null={} seq={} seq2safe={} wild={} tag={} rtti={} escape={} index={} temporal={})\n",
        k.total(),
        k.null,
        k.seq_bounds,
        k.seq_to_safe,
        k.wild_bounds,
        k.wild_tag,
        k.rtti,
        k.no_stack_escape,
        k.index_bound,
        k.temporal
    ));
    let e = &r.checks_elided;
    out.push_str(&format!(
        "checks elided: {} (null={} seq={} seq2safe={} wild={} tag={} rtti={} index={} temporal={})\n",
        e.total(),
        e.null,
        e.seq_bounds,
        e.seq_to_safe,
        e.wild_bounds,
        e.wild_tag,
        e.rtti,
        e.index_bound,
        e.temporal
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Options, UsageError> {
        parse_args(s.split_whitespace().map(String::from))
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
        assert!(o.explain);
        assert_eq!(o.sym.as_deref(), Some("p"));
        assert_eq!(o.file, "prog.c");
        assert!(args("prog.c --sym p").is_err(), "--sym requires explain");
        assert!(args("explain").is_err(), "explain still needs a file");
        let plain = args("prog.c --no-opt").unwrap();
        assert!(plain.no_opt && !plain.explain);
    }

    #[test]
    fn parses_crash_test_subcommand() {
        let o = args("crash-test prog.c --mutants 30 --seed 9 --json").unwrap();
        assert!(o.crash_test && o.json);
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
        assert!(o.profile && o.json);
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
        assert!(o.batch && o.json && o.no_cache);
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.cache_dir.as_deref(), Some("/tmp/cc"));
        assert_eq!(o.file, "examples/c");
        assert!(args("prog.c --jobs 2").is_err(), "--jobs needs batch");
        assert!(args("prog.c --no-cache").is_err(), "--no-cache needs batch");
        assert!(args("batch").is_err(), "batch still needs a path");
        assert!(args("batch dir --jobs x").is_err());
        assert!(args("prog.c --json").is_err(), "--json needs a subcommand");
        assert!(args("batch dir --profile").unwrap().profile);
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
        assert!(o.serve);
        assert_eq!(o.file, "/tmp/cc.sock");
        assert_eq!(o.workers, Some(3));
        assert_eq!(o.queue_cap, Some(64));
        assert_eq!(o.deadline_ms, Some(500));
        assert_eq!(o.fault_poison.as_deref(), Some("BOOM"));
        let c = args("client /tmp/cc.sock cure /src/a.c").unwrap();
        assert!(c.client);
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
        assert!(s.synth);
        assert_eq!(s.file, "/tmp/out");
        assert_eq!(s.profile_name.as_deref(), Some("openssl"));
        assert_eq!(s.units, Some(12));
        assert_eq!(s.seed, Some(9));
        assert!(args("synth").is_err(), "synth needs an out-dir");
        let c = args("campaign --units 8 --mutants-per-unit 3 --seed 5 --jobs 2 --json").unwrap();
        assert!(c.campaign && c.json);
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
        assert!(args("batch dir --profile").unwrap().profile);
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
