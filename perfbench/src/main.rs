//! The repository benchmark. See `README.md` next to this crate for the
//! workloads, the metrics and the layer map.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench smoke
//! perfbench compare <parent-dir> <change-dir>
//! ```
//!
//! A run spawns `perfbench probe ...` once per database (see `run.rs`);
//! that subcommand is internal.

mod compare;
mod job;
mod metrics;
mod run;
mod stats;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage:
  perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  perfbench smoke
  perfbench compare <parent-dir> <change-dir>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("smoke") if args.len() == 1 => run::smoke(),
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("probe") => run::probe_main(&args[1..]),
        Some(_) => run::main(&args),
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
