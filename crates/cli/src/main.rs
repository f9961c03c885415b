//! `nwo` — command-line driver for the narrow-width-operand toolchain.
//!
//! ```text
//! nwo asm  <file.s> [-o out.nwo]        assemble to an NWO1 image
//! nwo dis  <file.s|file.nwo>            disassemble
//! nwo run  <file.s|file.nwo>            functional emulation
//! nwo sim  <file.s|file.nwo> [flags]    cycle-level simulation
//! nwo ckpt info <file>                  inspect a machine checkpoint
//!                                       (exit 0 fine / 3 corrupt / 4 stale)
//! nwo cache scrub [flags]               audit/quarantine the disk result
//!                                       cache (exit 0 / 3 corrupt / 4 stale)
//! nwo dbg  <file.s|file.nwo>            interactive debugger
//! nwo bench [name ...] [--scale N] [--jobs N]
//!                                       run benchmark kernels, verified
//! nwo experiments [name ...] [--jobs N] regenerate the paper's figures
//!                                       (exit 0 / 3 quarantined)
//! nwo fault-campaign [flags]            seeded fault-injection coverage run
//! nwo serve [flags]                     simulation-as-a-service daemon
//!                                       (exit 0 clean drain / 5 leaked jobs)
//! nwo client <addr> <action> [args]     drive a daemon: sweep, status,
//!                                       cancel, shutdown
//! ```

mod commands;
mod debugger;
mod service;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => {
            eprint!("{}", commands::USAGE);
            return ExitCode::from(2);
        }
    };
    // Commands that report an outcome through a distinguishing exit
    // code return it: `ckpt` (0 fine, 3 corrupt, 4 stale build), `cache
    // scrub` (0 clean, 3 corruption found and quarantined, 4 stale salts
    // only), `serve` (0 clean drain, 5 jobs leaked) and `experiments` (0,
    // 3 an experiment quarantined). The rest exit 0 on success.
    let ok = |result: Result<(), String>| result.map(|()| 0);
    let result = match cmd {
        "asm" => ok(commands::asm(rest)),
        "dis" => ok(commands::dis(rest)),
        "run" => ok(commands::run(rest)),
        "sim" => ok(commands::sim(rest)),
        "ckpt" => commands::ckpt(rest),
        "cache" => commands::cache(rest),
        "dbg" => ok(commands::dbg(rest)),
        "serve" => service::serve(rest),
        "client" => ok(service::client(rest)),
        "bench" => ok(commands::bench(rest)),
        "experiments" => commands::experiments(rest),
        "fault-campaign" => ok(commands::fault_campaign(rest)),
        "help" | "--help" | "-h" => {
            print!("{}", commands::USAGE);
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::USAGE)),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("nwo: {message}");
            ExitCode::from(1)
        }
    }
}
