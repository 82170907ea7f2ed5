//! Observability report — time series, SLO alerts and tail forensics.
//!
//! Runs the "everything at once" scenario from [`bench::obs`] (diurnal
//! day, elastic controller, durable storage, a cache-tier outage and a
//! storage-pod crash) through the **Remote** and **Linked** architectures
//! with the observability layer armed, then writes artifacts under
//! `results/obs/`:
//!
//! * `{arch}_timeseries.jsonl` — one heartbeat sample per line (hit
//!   ratio, window cores, cache bytes, window p99, SLO counters) plus
//!   fault/resize annotations,
//! * `alerts.json` — SLO burn-rate alert events with fire/resolve
//!   timestamps in simulated time,
//! * `tail_attribution.json` — every slowest-1% request attributed to
//!   exactly one primary cause, with per-cause excess-µs totals,
//! * `dashboard.html` — a self-contained SVG sparkline dashboard of both
//!   architectures' timelines.
//!
//! Two invariants are checked on every run: ≥ 1 alert must fire per
//! architecture (the scenario's outage is designed to burn the p99
//! budget), and a second run must reproduce every artifact byte-for-byte.

use bench::obs::{run_sweep, BUDGET};
use bench::sweep::SweepRunner;
use bench::{print_table, results_dir, shown_path};
use telemetry::json::push_json_str;

fn main() {
    println!("Observability report: time series + SLO alerts + tail attribution");
    let (warmup, measured) = BUDGET;
    let out_dir = results_dir().join("obs");
    std::fs::create_dir_all(&out_dir).expect("create results/obs");
    let runner = SweepRunner::from_env();

    // Run twice: the second pass checks the determinism invariant.
    let runs = run_sweep(&runner, warmup, measured);
    let again = run_sweep(&runner, warmup, measured);

    let mut alerts_json = String::from("{");
    let mut tail_json = String::from("{");
    let mut dashboard = telemetry::TimeSeries::with_capacity(
        runs.iter()
            .map(|(_, b)| b.obs.as_ref().map_or(0, |o| o.timeseries.len()))
            .sum::<usize>()
            .max(1),
    );
    let mut cause_rows = Vec::new();

    for (i, ((report, bundle), (_, bundle2))) in runs.iter().zip(&again).enumerate() {
        let label = report.arch.label();
        let obs = bundle.obs.as_ref().expect("observability enabled");
        let obs2 = bundle2.obs.as_ref().expect("observability enabled");

        // Invariant 1: the scenario's outages must burn the SLO budget.
        assert!(
            !obs.alerts.is_empty(),
            "{label}: the cache-tier outage must fire at least one alert"
        );
        // Invariant 2: same seed ⇒ byte-identical artifacts.
        assert_eq!(
            obs.timeseries.to_jsonl(),
            obs2.timeseries.to_jsonl(),
            "{label}: timeseries must be reproducible"
        );
        assert_eq!(obs.alerts_json(), obs2.alerts_json());
        assert_eq!(obs.tail.to_json(), obs2.tail.to_json());

        std::fs::write(
            out_dir.join(format!("{label}_timeseries.jsonl")),
            obs.timeseries.to_jsonl(),
        )
        .expect("write timeseries");
        for (doc, value) in [
            (&mut alerts_json, obs.alerts_json()),
            (&mut tail_json, obs.tail.to_json()),
        ] {
            if i > 0 {
                doc.push(',');
            }
            push_json_str(doc, label);
            doc.push(':');
            doc.push_str(&value);
        }
        dashboard.merge(&obs.timeseries);

        for c in &obs.tail.causes {
            if c.count > 0 {
                cause_rows.push(vec![
                    label.to_string(),
                    c.cause.label().to_string(),
                    c.count.to_string(),
                    c.excess_us.to_string(),
                    format!("{:016x}", c.example_trace_id),
                ]);
            }
        }
        println!(
            "{label}: {} heartbeats, {} alerts, tail p99 threshold {} µs, {} tail requests ({} µs excess)",
            obs.timeseries.len(),
            obs.alerts.len(),
            obs.tail.threshold_us,
            obs.tail.tail_requests.len(),
            obs.tail.total_excess_us
        );
    }
    alerts_json.push('}');
    tail_json.push('}');

    print_table(
        "Slowest-1% attribution (per primary cause)",
        &["arch", "cause", "requests", "excess µs", "worst trace"],
        &cause_rows,
    );

    std::fs::write(out_dir.join("alerts.json"), &alerts_json).expect("write alerts");
    std::fs::write(out_dir.join("tail_attribution.json"), &tail_json).expect("write tail");
    std::fs::write(
        out_dir.join("dashboard.html"),
        dashboard.to_dashboard_html("dcache observability — Remote vs Linked"),
    )
    .expect("write dashboard");

    println!(
        "\n[observability artifacts written to {}]",
        shown_path(&out_dir)
    );
}
