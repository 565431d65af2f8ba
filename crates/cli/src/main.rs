//! `ccured` — cure a C file and optionally run it (see `ccured --help`).

use ccured_cli::{parse_args, run, Outcome};
use std::process::ExitCode;

fn main() -> ExitCode {
    let outcome = match parse_args(std::env::args().skip(1)) {
        Ok(o) => run(&o),
        Err(e) => Outcome::error(2, e),
    };
    print!("{}", outcome.stdout);
    eprint!("{}", outcome.stderr);
    // POSIX semantics: the shell sees the low byte of the status.
    ExitCode::from((outcome.exit & 0xff) as u8)
}
