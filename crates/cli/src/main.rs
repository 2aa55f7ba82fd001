//! `starnuma` — command-line front end for the StarNUMA reproduction.

#![allow(
    clippy::print_stderr,
    reason = "the CLI is the operator-facing front end"
)]

use std::process::ExitCode;

use starnuma_cli::{run, usage};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}
