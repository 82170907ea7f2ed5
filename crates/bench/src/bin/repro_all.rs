//! Run every figure reproduction.
//!
//! `cargo run -p bench --release --bin repro_all [-- --jobs N]`
//!
//! Prints each figure's tables and leaves the raw series under `results/`.
//! This is the one-command path to regenerate everything EXPERIMENTS.md
//! reports; the committed `results/` tree is one such run, with its stdout
//! in `results/repro_all.log`, and `tests/reproduce.rs` checks that a
//! fresh run rewrites both byte for byte.
//!
//! With `--jobs N > 1` (default: available parallelism) the figure binaries
//! run as N concurrent child processes, each pinned to `--jobs 1`
//! internally so the machine isn't oversubscribed. Output is captured and
//! printed in the fixed `BINS` order, so stdout — and every file under
//! `results/` — is byte-identical to a sequential `--jobs 1` run; only the
//! wall clock changes.

use bench::sweep::SweepRunner;
use std::process::Command;

const BINS: &[&str] = &[
    "fig2_theory",
    "fig3_unity_trace",
    "fig4_synthetic",
    "fig5_production",
    "fig6_cpu_breakdown",
    "fig7_rich_objects",
    "fig8_delayed_writes",
    "ablation_eviction",
    "ablation_serialization",
    "ablation_consistency",
    "ablation_ttl",
    "ablation_churn",
    "ablation_failover",
    "ablation_faults",
    "ablation_batching",
    "ablation_hotkey",
    "ablation_elastic",
    "ablation_recovery",
    "exp_sessions",
    "telemetry_report",
    "obs_report",
];

struct BinResult {
    bin: &'static str,
    output: std::io::Result<std::process::Output>,
}

fn main() {
    let self_path = std::env::current_exe().expect("own path");
    let bin_dir = self_path.parent().expect("bin dir").to_path_buf();
    let runner = SweepRunner::from_env();
    if runner.jobs() > 1 {
        // stderr, so stdout stays byte-identical to a --jobs 1 run.
        eprintln!(
            "[repro_all: {} figure binaries across {} workers]",
            BINS.len(),
            runner.jobs()
        );
    }

    let results = runner.run_map(BINS, |_, &bin| {
        let mut cmd = Command::new(bin_dir.join(bin));
        // Child sweeps stay sequential: parallelism lives at the bin level
        // here, and each bin writes its own results/ files, so per-bin
        // output bytes can't depend on the worker count either way.
        cmd.arg("--jobs").arg("1");
        cmd.env_remove("BENCH_JOBS");
        BinResult {
            bin,
            output: cmd.output(),
        }
    });

    let mut failed = Vec::new();
    for r in results {
        println!("\n################ {} ################", r.bin);
        match r.output {
            Ok(out) => {
                print!("{}", String::from_utf8_lossy(&out.stdout));
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                if !out.status.success() {
                    eprintln!("{} exited with {}", r.bin, out.status);
                    failed.push(r.bin);
                }
            }
            Err(e) => {
                eprintln!(
                    "{} failed to start: {e} (build with `cargo build --release -p bench` first)",
                    r.bin
                );
                failed.push(r.bin);
            }
        }
    }
    if failed.is_empty() {
        println!("\nAll reproductions completed; series written to results/.");
    } else {
        eprintln!("\nFailed: {failed:?}");
        std::process::exit(1);
    }
}
