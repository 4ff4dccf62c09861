//! `splitmfg` — command-line driver for the split-manufacturing security
//! toolkit.
//!
//! ```text
//! splitmfg gen         --out DIR [--scale 0.2] [--split 8]      generate challenges
//! splitmfg info        --dir DIR                                summarise challenges
//! splitmfg attack      --dir DIR --target sb1 [--config imp-11] run the ML attack
//! splitmfg pa          --dir DIR --target sb1 [--config imp-9y] proximity attack
//! splitmfg train       --dir DIR --out FILE [--target sb1]      write a model artifact
//! splitmfg serve       --model FILE [--addr 127.0.0.1:7878]     TCP inference server
//! splitmfg models      --registry DIR | --addr HOST:PORT        list / verify models
//! splitmfg help                                                 this text
//! ```
//!
//! Challenges are plain-text `.challenge`/`.truth` pairs (see
//! `sm_layout::io`); the attack trains on every design in the directory
//! except the target (leave-one-out) and scores against the target's truth
//! file. `train` checkpoints that model into a versioned, checksummed
//! artifact; `attack --model`/`pa --model` reuse it without retraining, and
//! `serve` hosts it behind a newline-delimited-JSON TCP protocol (see
//! `sm_serve`).

mod args;
mod commands;

use args::Args;

/// Exit codes: 0 = success, 1 = error, 2 = bad command line, 3 = the run
/// was interrupted (SIGTERM/SIGINT) and drained cleanly — any checkpoint
/// on disk is complete and resumable with `--resume true`.
fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match Args::parse(argv) {
        Ok(args) => match commands::dispatch(&args) {
            Ok(()) => 0,
            Err(e @ commands::CliError::Interrupted { .. }) => {
                eprintln!("{e}");
                3
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        },
        Err(e) => {
            eprintln!("error: {e}");
            commands::print_help();
            2
        }
    };
    std::process::exit(code);
}
