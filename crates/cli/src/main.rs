//! `ccured` — cure a C file and optionally run it (see crate docs).

use ccured_cli::{drive, parse_args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // The daemon and its client address a socket, not a source file.
    #[cfg(unix)]
    if opts.serve {
        return match ccured_cli::drive_serve(&opts) {
            Ok(outcome) => {
                print!("{}", outcome.stdout);
                ExitCode::from((outcome.exit & 0xff) as u8)
            }
            Err(e) => {
                eprintln!("ccured: {e}");
                ExitCode::from(4)
            }
        };
    }
    #[cfg(unix)]
    if opts.client {
        let outcome = ccured_cli::drive_client(&opts);
        print!("{}", outcome.stdout);
        return ExitCode::from((outcome.exit & 0xff) as u8);
    }
    // Batch, synth, and campaign generate or read their own inputs (the
    // positional arg is a directory or manifest, not a single source file).
    if opts.batch || opts.synth || opts.campaign {
        let result = if opts.batch {
            ccured_cli::drive_batch(&opts)
        } else if opts.synth {
            ccured_cli::drive_synth(&opts)
        } else {
            ccured_cli::drive_campaign(&opts)
        };
        return match result {
            Ok(outcome) => {
                print!("{}", outcome.stdout);
                ExitCode::from((outcome.exit & 0xff) as u8)
            }
            Err(e) => {
                eprintln!("ccured: {e}");
                ExitCode::from(1)
            }
        };
    }
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ccured: cannot read `{}`: {e}", opts.file);
            return ExitCode::from(2);
        }
    };
    let input = match &opts.input {
        Some(path) => match std::fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("ccured: cannot read input `{path}`: {e}");
                return ExitCode::from(2);
            }
        },
        None => Vec::new(),
    };
    match drive(&opts, &source, &input) {
        Ok(outcome) => {
            print!("{}", outcome.stdout);
            // POSIX semantics: the shell sees the low byte of the status.
            ExitCode::from((outcome.exit & 0xff) as u8)
        }
        Err(e) => {
            // Render frontend errors with file/line/column.
            if let ccured::CureError::Frontend(d) = &e {
                let map = ccured_cli::curer(&opts).source_map(&opts.file, &source);
                eprintln!("{}: error: {}", map.locate(d.span.lo), d.msg);
            } else {
                eprintln!("ccured: {e}");
            }
            ExitCode::from(1)
        }
    }
}
