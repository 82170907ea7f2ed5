//! Shared plumbing for the figure-reproduction binaries.
//!
//! Every `fig*` binary prints a human-readable table of the series the
//! paper plots and writes the raw numbers as JSON under `results/` so
//! EXPERIMENTS.md can cite them. The committed `results/` tree is one
//! full run, and `tests/reproduce.rs` checks that a fresh run rewrites it
//! byte for byte.

use dcache::experiment::KvExperimentConfig;
use dcache::{ArchKind, DeploymentConfig};
use std::path::{Path, PathBuf};
use telemetry::json::{to_json_pretty, ToJson};
use workloads::{KvWorkloadConfig, SizeDist};

pub mod batching;
pub mod elastic;
pub mod hotkey;
pub mod obs;
pub mod recovery;
pub mod sweep;
pub mod ttl;

/// A deterministic, test-sized KV experiment (2K keys, small request
/// budget, `test_small` deployment): the cell the ablation builders and
/// the sequential-vs-parallel determinism suite start from.
pub fn small_kv(arch: ArchKind, read_ratio: f64, value_bytes: u64) -> KvExperimentConfig {
    let workload = KvWorkloadConfig {
        keys: 2_000,
        alpha: 1.2,
        read_ratio,
        sizes: SizeDist::Fixed(value_bytes),
        seed: 42,
        churn_period: None,
    };
    let mut cfg = KvExperimentConfig::paper(arch, workload);
    cfg.deployment = DeploymentConfig::test_small(arch);
    cfg.qps = 50_000.0;
    cfg.warmup_requests = 2_000;
    cfg.requests = 4_000;
    cfg.prewarm = false;
    cfg
}

/// The workspace root: the nearest directory at or above the working
/// directory whose `Cargo.toml` has a `[workspace]` table, else the working
/// directory.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    break;
                }
            }
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
    dir
}

/// Where result JSON lands (repo-root `results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let results = workspace_root().join("results");
    std::fs::create_dir_all(&results).expect("create results dir");
    results
}

/// `path` as the bins print it: relative to the workspace root when under
/// it (`results/fig4_synthetic.json`), so a run's stdout does not depend
/// on where the checkout lives.
pub fn shown_path(path: &Path) -> String {
    let root = workspace_root();
    path.strip_prefix(&root)
        .unwrap_or(path)
        .display()
        .to_string()
}

/// Write `value` as pretty JSON to `results/<name>.json`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    std::fs::write(&path, to_json_pretty(value)).expect("write results file");
    println!("\n[results written to {}]", shown_path(&path));
}

/// Print a fixed-width table: header row then data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a dollar amount.
pub fn usd(x: f64) -> String {
    format!("${x:.2}")
}

/// Format a ratio as `N.NNx`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_created() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
        assert!(dir.exists());
    }

    #[test]
    fn artifact_paths_print_relative_to_the_workspace_root() {
        let results = results_dir();
        assert_eq!(
            shown_path(&results.join("fig4_synthetic.json")),
            "results/fig4_synthetic.json"
        );
        assert_eq!(shown_path(&results.join("obs")), "results/obs");
        assert_eq!(shown_path(&results.join("telemetry")), "results/telemetry");
        let outside = Path::new("/elsewhere/results/x.json");
        assert_eq!(shown_path(outside), "/elsewhere/results/x.json");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(usd(3.456), "$3.46");
        assert_eq!(ratio(2.0), "2.00x");
    }

    struct Cell {
        arch: &'static str,
        total_cost: f64,
        read_p99_us: u64,
        failovers: Option<u64>,
        consistent: bool,
        tier_cores: Vec<(String, f64)>,
    }
    telemetry::json_fields! { Cell {
        arch, total_cost, read_p99_us, failovers, consistent, tier_cores,
    } }

    #[test]
    fn results_json_is_the_pretty_layout_of_every_field() {
        let cells = [
            Cell {
                arch: "linked",
                total_cost: 1612.3164258567201,
                read_p99_us: 900,
                failovers: None,
                consistent: true,
                tier_cores: vec![("app".into(), 12.0), ("storage".into(), 0.25)],
            },
            Cell {
                arch: "remote \"tier\"",
                total_cost: f64::NAN,
                read_p99_us: 0,
                failovers: Some(2),
                consistent: false,
                tier_cores: vec![],
            },
        ];
        let expected = r#"[
  {
    "arch": "linked",
    "total_cost": 1612.3164258567201,
    "read_p99_us": 900,
    "failovers": null,
    "consistent": true,
    "tier_cores": [
      [
        "app",
        12.0
      ],
      [
        "storage",
        0.25
      ]
    ]
  },
  {
    "arch": "remote \"tier\"",
    "total_cost": null,
    "read_p99_us": 0,
    "failovers": 2,
    "consistent": false,
    "tier_cores": []
  }
]
"#;
        assert_eq!(to_json_pretty(&cells[..]), expected);
    }
}
