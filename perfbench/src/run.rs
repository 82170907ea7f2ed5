//! The two kinds of run the command makes.
//!
//! * Untraced (`--trace 0`): the end-to-end metrics. Each round sets the
//!   deployment up once (timed alone, for `setup_s`) and then calls
//!   `run_kv_experiment` once; rounds repeat until the time budget is
//!   spent, and the reference kernel is timed between them. Each round's
//!   set-up and serve time (wall less set-up) are scaled to the reference
//!   speed; `setup_s` and `sim_req_per_s` are medians over the rounds after
//!   the first. Every round must produce the same report, and an untimed
//!   replay must reproduce the run's counts.
//! * Traced (`--trace 1`): the per-layer ledger. An untraced run, the
//!   traced replay of the same stream, a second untraced run timed for the
//!   tracing overhead, the isolated layer replays, and one run with
//!   sampled request tracing for the modelled span latencies.
//!
//! Everything runs on the calling thread; nothing is parallel.

use crate::layers::isolated;
use crate::ledger::{Ledger, Site};
use crate::metrics::{self, median, Metric, END_TO_END};
use crate::reference;
use crate::replay::{replay, Replay};
use crate::workload::{dataset, simulated_requests, Scale, Workload};
use dcache::deployment::kv_catalog;
use dcache::experiment::{run_kv_experiment, run_kv_experiment_with_telemetry, KvExperimentConfig};
use dcache::{Deployment, ExperimentReport};
use std::time::{Duration, Instant};
use storekit::{Datum, StoreResult};

/// Sample every Nth measured request in the span-latency run.
const TRACE_SAMPLE_EVERY: u64 = 16;

/// What a run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the metrics of the mode's `BENCHMARK.json` section.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

/// Correctness checks shared by both modes; returns the failures.
fn check(w: Workload, report: &ExperimentReport, replay: &Replay) -> Vec<String> {
    let mut failures = Vec::new();
    if let Err(e) = replay.check_against(report) {
        failures.push(format!("replay does not reproduce the run: {e}"));
    }
    if w.requires_fresh_reads() && report.stale_reads > 0 {
        failures.push(format!(
            "{} stale reads on a fresh-read workload",
            report.stale_reads
        ));
    }
    failures
}

/// Time one set-up: `Deployment` construction plus `bulk_load`.
fn time_setup(cfg: &KvExperimentConfig) -> StoreResult<Duration> {
    let data = dataset(cfg);
    let start = Instant::now();
    let mut dep = Deployment::new(cfg.deployment.clone(), kv_catalog("kv"));
    dep.cluster.bulk_load(
        "kv",
        data.iter()
            .map(|&(k, len)| vec![Datum::Int(k as i64), Datum::Payload { len, seed: 0 }]),
    )?;
    let elapsed = start.elapsed();
    drop(dep);
    Ok(elapsed)
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: at least two rounds, more while another round of
/// average length still ends within `budget`.
pub fn untraced(w: Workload, seed: u64, scale: Scale, budget: Duration) -> StoreResult<Outcome> {
    let cfg = w.config(seed, scale);
    let sim = simulated_requests(&cfg) as f64;
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut reports: Vec<String> = Vec::new();
    let mut first: Option<ExperimentReport> = None;
    // The first kernel call only warms it; `marks[i]` and `marks[i + 1]`
    // then bracket round `i`.
    reference::time();
    let mut marks = vec![reference::time()];
    loop {
        setups.push(time_setup(&cfg)?.as_secs_f64());
        let t = Instant::now();
        let report = run_kv_experiment(&cfg)?;
        walls.push(t.elapsed().as_secs_f64());
        marks.push(reference::time());
        reports.push(format!("{report:?}"));
        first.get_or_insert(report);
        let spent = start.elapsed();
        if walls.len() >= 2 && spent + spent / walls.len() as u32 > budget {
            break;
        }
    }
    let report = first.expect("at least one round ran");
    // Round 0 warms the allocator and the caches; the figures are medians
    // over the other rounds, each scaled by the host's slowness around it.
    let slowness: Vec<f64> = marks
        .windows(2)
        .map(|m| ((m[0] + m[1]) / 2.0 / reference::NOMINAL_S).powf(reference::SENSITIVITY))
        .collect();
    let serve: Vec<f64> = walls.iter().zip(&setups).map(|(w, s)| w - s).collect();
    let setup_s = median(&scaled(&setups[1..], &slowness[1..], |s, h| s / h));
    let sim_req_per_s = median(&scaled(&serve[1..], &slowness[1..], |s, h| sim / s * h));

    let replay = replay(&cfg, false)?;
    let counts = replay.counts();
    let mut failures = check(w, &report, &replay);
    if reports.iter().any(|r| *r != reports[0]) {
        failures.push("rounds of the same seed produced different reports".to_string());
    }

    let modelled = metrics::modelled(&report, &counts);
    let mut all = vec![
        Metric::new("sim_req_per_s", "1/s", sim_req_per_s),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    all.extend(modelled);
    let mut lines = vec![
        format!(
            "{} seed {seed}: {} rounds of {sim} simulated requests, {} measured each",
            w.name(),
            walls.len(),
            report.requests
        ),
        format!("  round walls (s):    {}", join(&walls)),
        format!("  set-ups (s):        {}", join(&setups)),
        format!("  reference (s):      {}", join(&marks)),
        format!(
            "  unscaled medians:   {:.0} sim req/s, set-up {:.4} s",
            median(&scaled(&serve[1..], &slowness[1..], |s, _| sim / s)),
            median(&setups[1..])
        ),
    ];
    lines.extend(
        all.iter()
            .map(|m| format!("  {:<20} {:>16.6} {}", m.name, m.value, m.unit)),
    );
    lines.extend(failures.iter().map(|f| format!("  INCORRECT: {f}")));
    let rounds = walls.len() as u64;
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: counts.attempted() * rounds,
        failed: counts.failed() * rounds,
        metrics: all
            .into_iter()
            .filter(|m| END_TO_END.contains(&m.name.as_str()))
            .collect(),
        lines,
    })
}

/// `f(value, slowness)` for each round.
fn scaled(values: &[f64], slowness: &[f64], f: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    values.iter().zip(slowness).map(|(&v, &h)| f(v, h)).collect()
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The traced run: the per-layer ledger and the modelled layer metrics.
pub fn traced(w: Workload, seed: u64, scale: Scale) -> StoreResult<Outcome> {
    let cfg = w.config(seed, scale);
    // The first run only warms the allocator, so that the traced replay
    // and the untraced run it is compared with both start warm.
    let report = run_kv_experiment(&cfg)?;
    let mut rp = replay(&cfg, true)?;
    let t = Instant::now();
    let rerun = run_kv_experiment(&cfg)?;
    let untraced_wall = t.elapsed().as_secs_f64();
    let mut failures = check(w, &report, &rp);
    if format!("{rerun:?}") != format!("{report:?}") {
        failures.push("two runs of the same seed produced different reports".to_string());
    }
    isolated(&cfg, &rp.steps, &mut rp.ledger)?;

    let mut sampled = cfg.clone();
    sampled.trace_sample_every = Some(TRACE_SAMPLE_EVERY);
    let (sampled_report, bundle) = run_kv_experiment_with_telemetry(&sampled)?;
    if format!("{sampled_report:?}") != format!("{report:?}") {
        failures.push("request tracing changed the modelled report".to_string());
    }

    let ledger = rp.ledger.as_ref().expect("traced replays keep a ledger");
    let wall = rp.wall.as_secs_f64();
    let mut all = metrics::ledger_metrics(ledger, wall, untraced_wall);
    all.extend(metrics::modelled_layers(&report, &rp, &bundle.spans));

    let mut lines = ledger_table(w, seed, ledger, wall, untraced_wall);
    lines.extend(failures.iter().map(|f| format!("  INCORRECT: {f}")));
    let counts = rp.counts();
    Ok(Outcome {
        correct: failures.is_empty(),
        attempted: counts.attempted(),
        failed: counts.failed(),
        metrics: all,
        lines,
    })
}

/// The ledger as a table: one row per timed site, the residual, and the
/// per-layer shares of the replay's wall time.
fn ledger_table(w: Workload, seed: u64, ledger: &Ledger, wall: f64, untraced: f64) -> Vec<String> {
    let mut lines = vec![
        format!(
            "{} seed {seed}: traced replay {wall:.3} s, untraced run {untraced:.3} s (overhead {:.3}x)",
            w.name(),
            wall / untraced
        ),
        format!(
            "  {:<26} {:>10} {:>10} {:>8} {:>9} {:>9}",
            "site", "calls", "self_s", "share", "p50_ns", "p99_ns"
        ),
    ];
    for site in Site::ALL {
        let s = ledger.self_s(site);
        let share = if site.in_runner() {
            format!("{:.2}%", 100.0 * s / wall)
        } else {
            "isolated".to_string()
        };
        lines.push(format!(
            "  {:<26} {:>10} {:>10.4} {:>8} {:>9.0} {:>9.0}",
            site.name(),
            ledger.calls(site),
            s,
            share,
            ledger.quantile_ns(site, 0.5),
            ledger.quantile_ns(site, 0.99)
        ));
    }
    let explained = ledger.runner_s();
    lines.push(format!(
        "  {:<26} {:>10} {:>10.4} {:>7.2}%",
        "runner.residual",
        "",
        wall - explained,
        100.0 * (wall - explained) / wall
    ));
    lines.push(format!(
        "  timed calls explain {:.2}% of the replay wall",
        100.0 * explained / wall
    ));
    for (name, share) in metrics::layer_shares(ledger, wall) {
        lines.push(format!("  ledger.{name:<24} {:>7.2}%", 100.0 * share));
    }
    lines
}
