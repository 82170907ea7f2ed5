//! Metric names, units and the one-line JSON result.

use crate::ledger::{Ledger, Site};
use crate::replay::{Counts, Replay};
use dcache::experiment::ExperimentReport;
use simnet::CpuCategory;
use std::fmt::Write;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// End-to-end metrics the `--trace 0` result carries, in order. The other
/// modelled metrics are either the same on every seed of a workload (the
/// latency quantiles sit on one serve path's fixed cost) or zero (stale
/// and failed requests), so they cannot carry a relative bound; they are
/// printed beside the result and reported as `model.*` per-layer metrics.
pub const END_TO_END: [&str; 6] = [
    "sim_req_per_s",
    "setup_s",
    "peak_rss_mb",
    "dollars_per_month",
    "cpu_us_per_req",
    "hit_ratio",
];

/// Tiers of the report, in bill order.
pub const TIERS: [&str; 4] = ["app", "remote_cache", "sql_frontend", "storage"];

/// Span names whose mean virtual duration is reported.
pub const SPANS: [&str; 5] = [
    "cache.lookup",
    "cache.rpc_attempt",
    "storage.fill",
    "storage.version_check",
    "client.reply",
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Simulated CPU-µs per measured request for `cores` busy over the run.
fn us_per_req(report: &ExperimentReport, cores: f64) -> f64 {
    // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
    cores * report.duration_secs * 1e6 / report.requests.max(1) as f64 + 0.0
}

/// The modelled metrics of one run. They depend only on the config and
/// seed; `counts` are the replay's measured-window counts, which the
/// correctness gate has matched against the report.
pub fn modelled(report: &ExperimentReport, counts: &Counts) -> Vec<Metric> {
    vec![
        Metric::new("dollars_per_month", "USD/month", report.total_cost.total()),
        Metric::new(
            "cpu_us_per_req",
            "us",
            us_per_req(report, report.total_cores),
        ),
        Metric::new("hit_ratio", "ratio", report.cache_hit_ratio),
        Metric::new("sim_read_p50_us", "us", report.read_latency_p50_us as f64),
        Metric::new("sim_read_p99_us", "us", report.read_latency_p99_us as f64),
        Metric::new("sim_read_p999_us", "us", report.read_latency_p999_us as f64),
        Metric::new(
            "sim_write_p999_us",
            "us",
            report.write_latency_p999_us as f64,
        ),
        Metric::new(
            "stale_read_ratio",
            "ratio",
            ratio(counts.stale_reads, counts.reads),
        ),
        Metric::new(
            "failed_ratio",
            "ratio",
            ratio(counts.failed(), counts.attempted()),
        ),
    ]
}

/// Per-layer modelled metrics: the bill and the CPU by tier and category,
/// storage-side ratios, control-plane counts and mean span durations.
pub fn modelled_layers(
    report: &ExperimentReport,
    replay: &Replay,
    spans: &[telemetry::SpanRecord],
) -> Vec<Metric> {
    let counts = replay.counts();
    let mut out = Vec::new();
    for name in TIERS {
        let tier = report.tier(name);
        let cores = tier.map_or(0.0, |t| t.cores);
        out.push(Metric::new(
            format!("model.{name}.cpu_us_per_req"),
            "us",
            us_per_req(report, cores),
        ));
        out.push(Metric::new(
            format!("model.{name}.mem_gb"),
            "GB",
            tier.map_or(0.0, |t| t.mem_gb),
        ));
    }
    for cat in CpuCategory::ALL {
        let cores: f64 = report
            .tiers
            .iter()
            .flat_map(|t| {
                t.cpu_fractions
                    .iter()
                    .filter(|(label, _)| label == cat.label())
                    .map(move |(_, f)| t.cores * f)
            })
            .sum();
        out.push(Metric::new(
            format!("model.cpu.{}_us_per_req", cat.label()),
            "us",
            us_per_req(report, cores),
        ));
    }
    out.extend([
        Metric::new(
            "model.block_cache_hit_ratio",
            "ratio",
            report.block_cache_hit_ratio,
        ),
        Metric::new(
            "model.sql_statements_per_req",
            "1/req",
            ratio(report.sql_statements, report.requests),
        ),
        Metric::new(
            "model.version_checks_per_read",
            "1/read",
            ratio(report.version_checks, counts.reads),
        ),
        Metric::new(
            "model.cache_evictions",
            "count",
            replay.cache_evictions as f64,
        ),
        Metric::new(
            "model.expired_entries",
            "count",
            report.expired_entries as f64,
        ),
        Metric::new("model.ttl_decisions", "count", report.ttl_decisions as f64),
    ]);
    for name in SPANS {
        let (n, total) = spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, t), s| (n + 1, t + s.duration_ns()));
        out.push(Metric::new(
            format!("model.span.{name}_us"),
            "us",
            ratio(total, n) / 1e3,
        ));
    }
    for m in modelled(report, &counts) {
        if !END_TO_END.contains(&m.name.as_str()) {
            out.push(Metric::new(format!("model.{}", m.name), m.unit, m.value));
        }
    }
    out
}

/// Shares of the replay's wall time. The runner-level layers and the
/// residual sum to one; `dcache` covers the serve calls, which contain the
/// `cachekit` and `storekit` work beneath them. The two `isolated_share`
/// entries estimate that work from the isolated replays on fresh
/// instances, so they overlap `dcache` and are not part of the sum.
pub fn layer_shares(ledger: &Ledger, wall_s: f64) -> Vec<(&'static str, f64)> {
    use Site::*;
    let share = |sites: &[Site]| sites.iter().map(|&s| ledger.self_s(s)).sum::<f64>() / wall_s;
    vec![
        ("workloads.share", share(&[NextRequest, TenantPick])),
        ("dcache.share", share(&[ServeRead, ServeWrite])),
        (
            "elastic.share",
            share(&[TtlObserve, ExpireSweep, TtlDecide]),
        ),
        ("storekit.share", share(&[StorageTick])),
        (
            "setup.share",
            share(&[DeploymentNew, BulkLoad, Prewarm, Teardown]),
        ),
        (
            "cachekit.isolated_share",
            share(&[Intern, CacheGet, CacheInsert]),
        ),
        (
            "storekit.isolated_share",
            share(&[SelectPk, VersionSelect, Replace]),
        ),
    ]
}

/// Per-site call metrics, the ledger closure and the layer shares.
pub fn ledger_metrics(ledger: &Ledger, wall_s: f64, untraced_wall_s: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for site in Site::ALL {
        let name = site.name();
        out.extend([
            Metric::new(format!("{name}.calls"), "count", ledger.calls(site) as f64),
            Metric::new(format!("{name}.self_s"), "s", ledger.self_s(site)),
            Metric::new(
                format!("{name}.p50_ns"),
                "ns",
                ledger.quantile_ns(site, 0.5),
            ),
            Metric::new(
                format!("{name}.p99_ns"),
                "ns",
                ledger.quantile_ns(site, 0.99),
            ),
        ]);
    }
    let explained = ledger.runner_s();
    let residual = wall_s - explained;
    out.push(Metric::new("runner.residual.self_s", "s", residual));
    for (name, share) in layer_shares(ledger, wall_s) {
        out.push(Metric::new(format!("ledger.{name}"), "ratio", share));
    }
    out.push(Metric::new(
        "ledger.residual.share",
        "ratio",
        residual / wall_s,
    ));
    out.push(Metric::new(
        "ledger.explained_ratio",
        "ratio",
        explained / wall_s,
    ));
    out.push(Metric::new(
        "trace.overhead_ratio",
        "ratio",
        wall_s / untraced_wall_s,
    ));
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
