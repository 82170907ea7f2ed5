//! Ablation — where does Linked's advantage come from?
//!
//! §5.3 attributes a large share of the saving to avoided (de)serialization
//! and RPC per-byte work. This ablation sweeps the per-byte cost constants
//! (a proxy for "how proto-heavy is your stack") and shows the Linked-vs-
//! Base saving growing with them at large values — the mechanism behind
//! Figure 4b's trend.

use bench::sweep::SweepRunner;
use bench::{print_table, ratio, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use telemetry::json_fields;
use workloads::KvWorkloadConfig;

struct Point {
    per_byte_multiplier: f64,
    value_bytes: u64,
    linked_saving: f64,
}
json_fields! { Point { per_byte_multiplier, value_bytes, linked_saving } }

fn main() {
    println!("Ablation: per-byte (de)serialization/RPC cost sensitivity");
    let (warmup, measured) = (80_000, 80_000);

    let run = |arch: ArchKind, mult: f64, value_bytes: u64| {
        let workload = KvWorkloadConfig::paper_synthetic(0.95, value_bytes, 42);
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        let app = &mut cfg.deployment.app_cost;
        app.serialize_per_byte_ns *= mult;
        app.rpc_per_byte_ns *= mult;
        let st = &mut cfg.deployment.cluster.cost;
        st.rpc_per_byte_ns *= mult;
        st.kv_per_byte_ns *= mult;
        run_kv_experiment(&cfg).expect("run").total_cost.total()
    };

    let mut specs: Vec<(u64, f64, ArchKind)> = Vec::new();
    for value_bytes in [1u64 << 10, 1 << 20] {
        for mult in [0.25, 1.0, 4.0] {
            for arch in [ArchKind::Base, ArchKind::Linked] {
                specs.push((value_bytes, mult, arch));
            }
        }
    }
    let costs = SweepRunner::from_env()
        .run_map(&specs, |_, &(value_bytes, mult, arch)| run(arch, mult, value_bytes));

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (chunk, costs) in specs.chunks(2).zip(costs.chunks(2)) {
        let (value_bytes, mult, _) = chunk[0];
        let saving = costs[0] / costs[1]; // base / linked
        rows.push(vec![
            format!("{}KB", value_bytes >> 10),
            format!("{mult}x"),
            ratio(saving),
        ]);
        points.push(Point {
            per_byte_multiplier: mult,
            value_bytes,
            linked_saving: saving,
        });
    }
    print_table(
        "Linked saving vs Base under scaled per-byte costs",
        &["value", "per-byte cost", "saving"],
        &rows,
    );
    write_json("ablation_serialization", &points);

    println!(
        "\nAt 1MB values the saving is strongly increasing in per-byte cost — the\n\
         (de)serialization mechanism the paper identifies; at 1KB it barely moves."
    );
}
