//! Telemetry drill-down — the observability layer end to end.
//!
//! Runs the paper's synthetic workload through the **Remote** and
//! **Linked** architectures with tracing armed, then writes per-arch
//! artifacts under `results/telemetry/`:
//!
//! * `{arch}.prom` — every report field, fault counter and latency
//!   distribution as Prometheus text exposition,
//! * `{arch}_traces.jsonl` — the retained trace spans, one JSON object per
//!   line (deterministic ids derived from the workload seed),
//! * `{arch}.collapsed` — collapsed-stack CPU attribution, ready for
//!   `flamegraph.pl` / `inferno-flamegraph`.
//!
//! Two invariants are checked on every run and reported in the summary:
//!
//! 1. **Accounting agreement** — per tier, cores implied by the collapsed
//!    profile (`Σ nanos / window`) must match the report's cost accounting
//!    within 0.1% (they are folded from the same meters; disagreement
//!    means double-counting).
//! 2. **Determinism** — a second run with the same seed must reproduce the
//!    Prometheus text, the trace JSONL and the collapsed profile
//!    byte-for-byte.

use bench::sweep::SweepRunner;
use bench::{print_table, results_dir, shown_path, write_json};
use dcache::experiment::{run_kv_experiment_with_telemetry, KvExperimentConfig, TelemetryBundle};
use dcache::{ArchKind, ExperimentReport};
use telemetry::{json, json_fields};
use workloads::KvWorkloadConfig;

/// Sample every k-th measured request (prime, so sampling doesn't alias
/// against read/write mix periodicity).
const SAMPLE_EVERY: u64 = 97;

struct TierAgreement {
    tier: String,
    report_cores: f64,
    profile_cores: f64,
    rel_err: f64,
}
json_fields! { TierAgreement { tier, report_cores, profile_cores, rel_err } }

struct ArchSummary {
    arch: String,
    traces_retained: usize,
    spans_retained: usize,
    profile_total_ms: f64,
    agreement: Vec<TierAgreement>,
    deterministic: bool,
}
json_fields! { ArchSummary {
    arch, traces_retained, spans_retained, profile_total_ms, agreement, deterministic,
} }

fn run_arch(arch: ArchKind, warmup: u64, measured: u64) -> (ExperimentReport, TelemetryBundle) {
    let workload = KvWorkloadConfig::paper_synthetic(0.95, 1 << 10, 42);
    let mut cfg = KvExperimentConfig::paper(arch, workload);
    cfg.qps = 100_000.0;
    cfg.warmup_requests = warmup;
    cfg.requests = measured;
    cfg.trace_sample_every = Some(SAMPLE_EVERY);
    run_kv_experiment_with_telemetry(&cfg).expect("run")
}

fn main() {
    println!("Telemetry report: tracing + metrics + CPU attribution for Remote and Linked");
    let (warmup, measured) = (30_000, 30_000);
    let out_dir = results_dir().join("telemetry");
    std::fs::create_dir_all(&out_dir).expect("create results/telemetry");

    // Each arch runs twice (the determinism invariant needs an independent
    // replay); all four simulations are independent, so sweep them.
    let specs: Vec<ArchKind> = [ArchKind::Remote, ArchKind::Linked]
        .iter()
        .flat_map(|&a| [a, a])
        .collect();
    let mut runs = SweepRunner::from_env()
        .run_map(&specs, |_, &arch| run_arch(arch, warmup, measured));

    let mut summaries = Vec::new();
    let mut combined = telemetry::Registry::new();
    for arch in [ArchKind::Remote, ArchKind::Linked] {
        let label = arch.label();
        let (report, bundle) = runs.remove(0);
        let (_, second) = runs.remove(0);
        let prom = bundle.registry.to_prometheus_text();
        let collapsed = bundle.profile.to_collapsed();

        // Invariant 1: profile cores vs report cores, per tier, within 0.1%.
        let window_ns = report.duration_secs * 1e9;
        let mut agreement = Vec::new();
        let mut rows = Vec::new();
        for tier in &report.tiers {
            let stack_prefix = format!("{label};{};", tier.name);
            let profile_cores = bundle.profile.total_matching(&stack_prefix) as f64 / window_ns;
            let rel_err = if tier.cores > 0.0 {
                (profile_cores - tier.cores).abs() / tier.cores
            } else {
                profile_cores.abs()
            };
            assert!(
                rel_err < 0.001,
                "{label}/{}: profile says {profile_cores:.4} cores, report says {:.4} ({:.3}% off)",
                tier.name,
                tier.cores,
                rel_err * 100.0
            );
            rows.push(vec![
                tier.name.clone(),
                format!("{:.3}", tier.cores),
                format!("{profile_cores:.3}"),
                format!("{:.4}%", rel_err * 100.0),
            ]);
            agreement.push(TierAgreement {
                tier: tier.name.clone(),
                report_cores: tier.cores,
                profile_cores,
                rel_err,
            });
        }
        print_table(
            &format!("CPU accounting agreement ({label})"),
            &["tier", "report cores", "profile cores", "rel err"],
            &rows,
        );

        // Invariant 2: same seed ⇒ byte-identical artifacts.
        let deterministic = second.registry.to_prometheus_text() == prom
            && second.traces_jsonl == bundle.traces_jsonl
            && second.profile.to_collapsed() == collapsed;
        assert!(deterministic, "{label}: telemetry must be reproducible");

        std::fs::write(out_dir.join(format!("{label}.prom")), &prom).expect("write prom");
        std::fs::write(
            out_dir.join(format!("{label}_traces.jsonl")),
            &bundle.traces_jsonl,
        )
        .expect("write traces");
        std::fs::write(out_dir.join(format!("{label}.collapsed")), &collapsed)
            .expect("write collapsed");

        let sink = {
            // Count distinct traces in the retained window.
            let mut ids: Vec<u64> = bundle
                .traces_jsonl
                .lines()
                .map(|l| {
                    let span = json::parse(l).expect("trace line is JSON");
                    let id = span.get("trace_id").and_then(json::Value::as_str);
                    u64::from_str_radix(id.expect("span has a trace_id"), 16)
                        .expect("trace_id is hex")
                })
                .collect();
            let spans = ids.len();
            ids.sort_unstable();
            ids.dedup();
            (ids.len(), spans)
        };
        println!(
            "{label}: {} traces / {} spans retained, profile total {:.1} ms CPU, deterministic: {deterministic}",
            sink.0,
            sink.1,
            bundle.profile.total() as f64 / 1e6
        );
        summaries.push(ArchSummary {
            arch: label.to_string(),
            traces_retained: sink.0,
            spans_retained: sink.1,
            profile_total_ms: bundle.profile.total() as f64 / 1e6,
            agreement,
            deterministic,
        });
        combined.merge(&bundle.registry);
    }

    // Post-hoc merge of the per-experiment registries: one exposition with
    // both architectures' series (disjoint by the `arch` label).
    std::fs::write(out_dir.join("combined.prom"), combined.to_prometheus_text())
        .expect("write combined prom");

    write_json("telemetry_report", &summaries);
    println!(
        "\n[telemetry artifacts written to {}]",
        shown_path(&out_dir)
    );
}
