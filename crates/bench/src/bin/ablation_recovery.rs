//! Ablation — what crash consistency actually costs.
//!
//! The paper prices every architecture as if storage nodes never die: no
//! WAL on the write path, no fsync stalls, and a crash that magically
//! preserves state. Real deployments pay for durability twice — once per
//! write (append + group fsync + periodic snapshots) and once per crash
//! (snapshot load + WAL replay + a cold block cache refilled at miss-CPU
//! rates, plus the SSD the log and snapshots live on at $/GB·month).
//!
//! This sweep runs the same write-heavy day under the same periodic pod
//! crashes, once with durability off (the legacy optimistic baseline) and
//! across fsync-policy × snapshot-cadence × crash-rate cells, per
//! architecture. Expected shape:
//!
//! * the durability tax is single-digit percent of the monthly bill —
//!   dominated by WAL CPU, with the SSD line itself nearly free;
//! * fsync-every-entry pays measurably more CPU than group commit for the
//!   same recovery guarantee on acked writes;
//! * tighter snapshot cadence trades steady-state snapshot bytes for
//!   shorter WAL replay — recovery time falls as cadence tightens;
//! * no acked write is ever lost: stale reads stay zero in every cell.

use bench::recovery::{
    cold_refill_cores, durability_tax, mean_recovery_ms, run_sweep, sweep_specs, READ_RATIO,
};
use bench::sweep::SweepRunner;
use bench::{print_table, usd, write_json};
use telemetry::json_fields;

struct Point {
    cell: String,
    arch: String,
    durable: bool,
    crashes: u32,
    monthly_dollars: f64,
    ssd_dollars: f64,
    cache_hit_ratio: f64,
    wal_appends: u64,
    wal_fsync_batches: u64,
    snapshot_bytes: u64,
    recoveries: u64,
    mean_recovery_ms: f64,
    replayed_entries: u64,
    lost_tail_entries: u64,
    cold_refill_cpu_us: u64,
    ssd_resident_bytes: u64,
    stale_reads: u64,
}
json_fields! { Point {
    cell, arch, durable, crashes, monthly_dollars, ssd_dollars, cache_hit_ratio, wal_appends,
    wal_fsync_batches, snapshot_bytes, recoveries, mean_recovery_ms, replayed_entries,
    lost_tail_entries, cold_refill_cpu_us, ssd_resident_bytes, stale_reads,
} }

fn main() {
    println!(
        "Ablation: crash-consistent storage under periodic pod failures ({}% writes)",
        ((1.0 - READ_RATIO) * 100.0) as u32
    );
    let (warmup, measured) = (16_000, 32_000);

    let specs = sweep_specs();
    let reports = run_sweep(&SweepRunner::from_env(), &specs, warmup, measured);

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for (spec, r) in specs.iter().zip(&reports) {
        rows.push(vec![
            spec.label(),
            usd(r.total_cost.total()),
            usd(r.total_cost.ssd),
            format!("{:.3}", r.cache_hit_ratio),
            format!("{}", r.wal_appends),
            format!("{}", r.wal_fsync_batches),
            format!("{}", r.recoveries),
            format!("{:.2}", mean_recovery_ms(r)),
            format!("{}", r.replayed_entries),
            format!("{}", r.lost_tail_entries),
            format!("{:.1}", r.cold_refill_cpu_us as f64 / 1e3),
        ]);
        points.push(Point {
            cell: spec.label(),
            arch: spec.arch.label().to_string(),
            durable: spec.durability.is_some(),
            crashes: spec.crashes,
            monthly_dollars: r.total_cost.total(),
            ssd_dollars: r.total_cost.ssd,
            cache_hit_ratio: r.cache_hit_ratio,
            wal_appends: r.wal_appends,
            wal_fsync_batches: r.wal_fsync_batches,
            snapshot_bytes: r.snapshot_bytes,
            recoveries: r.recoveries,
            mean_recovery_ms: mean_recovery_ms(r),
            replayed_entries: r.replayed_entries,
            lost_tail_entries: r.lost_tail_entries,
            cold_refill_cpu_us: r.cold_refill_cpu_us,
            ssd_resident_bytes: r.ssd_resident_bytes,
            stale_reads: r.stale_reads,
        });
    }
    print_table(
        "Crash-recovery ablation (periodic pod crashes, durable vs optimistic)",
        &[
            "cell",
            "billed/mo",
            "ssd/mo",
            "hit",
            "wal",
            "fsyncs",
            "recov",
            "recov_ms",
            "replayed",
            "lost_tail",
            "refill_ms",
        ],
        &rows,
    );
    write_json("ablation_recovery", &points);

    // The headline: each durable cell against its arch's off baseline
    // (specs come in per-arch blocks led by the baseline).
    println!("\nHeadline — the durability tax, per cell vs the optimistic baseline:");
    let mut headline_rows = Vec::new();
    let measured_secs = measured as f64 / 50_000.0; // small_kv qps
    for (spec_block, report_block) in specs.chunks(5).zip(reports.chunks(5)) {
        debug_assert!(spec_block[0].durability.is_none());
        let off = &report_block[0];
        for (spec, r) in spec_block[1..].iter().zip(&report_block[1..]) {
            let tax = durability_tax(off, r);
            headline_rows.push(vec![
                spec.label(),
                usd(tax),
                format!("{:.2}%", tax / off.total_cost.total().max(1e-9) * 100.0),
                format!("{:.2}", mean_recovery_ms(r)),
                format!("{:.3}", cold_refill_cores(r, measured_secs)),
                format!("{}", r.stale_reads),
            ]);
        }
    }
    print_table(
        "Durability tax over the simulated day",
        &[
            "cell",
            "tax/mo",
            "tax_%",
            "recov_ms",
            "refill_cores",
            "stale_reads",
        ],
        &headline_rows,
    );

    println!(
        "\nThe off baseline recovers by re-election with state magically intact\n\
         — the optimistic fiction a crash-free cost model assumes. Durable\n\
         cells append every replicated write to a WAL, group-fsync it, roll\n\
         snapshots, and rebuild crashed pods from the SSD image: snapshot\n\
         load + replay + cold-cache refill, all charged to the same CPU and\n\
         dollar meters as the serving path. Acked writes survive in every\n\
         cell (stale_reads = 0); only the un-fsynced tail is re-replicated\n\
         from the surviving quorum."
    );
}
