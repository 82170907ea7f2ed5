//! Repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload remote-hit --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Prints a table, then one JSON result line. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` prints the per-layer ledger. Exits
//! non-zero when the correctness gate fails. README.md explains the
//! workloads and metrics.

use perfbench::metrics::result_json;
use perfbench::run::{traced, untraced};
use perfbench::workload::{Scale, Workload, DEFAULT_SEED};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: perfbench --workload <remote-hit|linked-version|meta-writes|ttl-tenants> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 25;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(args.workload, args.seed, Scale::Full)
    } else {
        untraced(
            args.workload,
            args.seed,
            Scale::Full,
            Duration::from_secs(args.seconds),
        )
    };
    match outcome {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            println!(
                "{}",
                result_json(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
