//! Ablation — availability: what a storage-leader failure costs.
//!
//! Crashes every region's Raft leader at the midpoint of the measured run
//! and lets the runner recover through elections. Two observations the
//! paper's steady-state methodology abstracts away:
//!
//! * the blip is a *latency* event (p99 explodes, steady-state cost barely
//!   moves), and
//! * architectures that touch storage less often trip over the failure
//!   less: Linked's cached reads sail through the outage window, while
//!   Base and Linked+Version pay the election penalty on every read.

use bench::sweep::SweepRunner;
use bench::{print_table, usd, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use telemetry::json_fields;
use workloads::KvWorkloadConfig;

struct Point {
    arch: String,
    crashed: bool,
    total_cost: f64,
    failovers: u64,
    read_p50_us: u64,
    read_p99_us: u64,
}
json_fields! { Point { arch, crashed, total_cost, failovers, read_p50_us, read_p99_us } }

fn main() {
    println!("Ablation: storage leader failure mid-run (elections recover; 20K keys, 1KB)");
    let (warmup, measured) = (80_000, 80_000);

    let run = |arch: ArchKind, crash: bool| {
        let mut workload = KvWorkloadConfig::paper_synthetic(0.95, 1_024, 42);
        workload.keys = 20_000;
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        cfg.crash_leaders_at_request = crash.then_some(measured / 2);
        run_kv_experiment(&cfg).expect("run")
    };

    let specs: Vec<(ArchKind, bool)> = [ArchKind::Base, ArchKind::Linked, ArchKind::LinkedVersion]
        .iter()
        .flat_map(|&a| [false, true].map(|crash| (a, crash)))
        .collect();
    let reports =
        SweepRunner::from_env().run_map(&specs, |_, &(arch, crash)| run(arch, crash));

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (&(arch, crash), r) in specs.iter().zip(&reports) {
        {
            rows.push(vec![
                arch.label().to_string(),
                if crash { "leader crash" } else { "healthy" }.to_string(),
                usd(r.total_cost.total()),
                format!("{}", r.failovers),
                format!("{}", r.read_latency_p50_us),
                format!("{}", r.read_latency_p99_us),
            ]);
            points.push(Point {
                arch: arch.label().to_string(),
                crashed: crash,
                total_cost: r.total_cost.total(),
                failovers: r.failovers,
                read_p50_us: r.read_latency_p50_us,
                read_p99_us: r.read_latency_p99_us,
            });
        }
    }
    print_table(
        "Failover ablation",
        &["arch", "condition", "total/mo", "elections", "p50_us", "p99_us"],
        &rows,
    );
    write_json("ablation_failover", &points);

    println!(
        "\nSteady-state cost is insensitive to the crash (it is a latency event);\n\
         Linked's cached reads shrug the outage off, while storage-bound\n\
         architectures pay the election penalty across the whole tail."
    );
}
