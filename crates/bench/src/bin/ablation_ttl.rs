//! Ablation — the TTL control plane: expiry as the cost knob.
//!
//! The elastic ablation resizes cache *capacity* off live miss-ratio
//! curves; Carra et al. argue TTL is the dual knob — let entries expire at
//! the cost-optimal age and the memory footprint follows, no migration
//! required. This sweep runs the two control planes head-to-head against a
//! static-peak fleet on three stress schedules × two architectures:
//!
//! * **diurnal** — sinusoidal arrival day (the regime MRC resizing was
//!   built for);
//! * **churn** — the hot set rotates every few seconds, stranding ghost
//!   entries capacity planning keeps paying for;
//! * **storm** — periodic write-heavy invalidation bursts.
//!
//! Cells run DRAM-heavy (83 MB footprint, 8× memory price — the fig2
//! sensitivity axis) so the memory line is worth fighting over. A second
//! section runs the two-tenant isolation pair: a quiet victim next to a
//! storm-prone aggressor, each with its own TTL controller — the victim's
//! hit ratio must not move. A final section keeps the PR-4 fixed-TTL
//! freshness frontier (`LinkedTtl`): what a *static* TTL trades when it is
//! a consistency contract rather than a cost knob.

use bench::sweep::SweepRunner;
use bench::ttl::{
    cell_dollars, isolation_experiment, isolation_label, isolation_specs, run_sweep, sweep_specs,
    tenant_hit, Plane, MEM_PRICE_MULT,
};
use bench::{print_table, ratio, usd, write_json};
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::ArchKind;
use simnet::SimDuration;
use telemetry::json_fields;
use workloads::KvWorkloadConfig;

struct PlanePoint {
    cell: String,
    monthly_dollars: f64,
    memory_dollars: f64,
    cache_hit_ratio: f64,
    ttl_decisions: u64,
    ttl_changes: u64,
    expired_entries: u64,
    expiry_sweep_cpu_us: u64,
    mean_resident_mb: f64,
    current_ttl_secs: f64,
}
json_fields! { PlanePoint {
    cell, monthly_dollars, memory_dollars, cache_hit_ratio, ttl_decisions, ttl_changes,
    expired_entries, expiry_sweep_cpu_us, mean_resident_mb, current_ttl_secs,
} }

struct IsolationPoint {
    cell: String,
    victim_hit: f64,
    aggressor_hit: f64,
    aggressor_write_share: f64,
    victim_dollars: f64,
    aggressor_dollars: f64,
}
json_fields! { IsolationPoint {
    cell, victim_hit, aggressor_hit, aggressor_write_share, victim_dollars, aggressor_dollars,
} }

struct FrontierPoint {
    label: String,
    total_cost: f64,
    stale_fraction: f64,
    cache_hit_ratio: f64,
    saving_vs_base: f64,
}
json_fields! { FrontierPoint {
    label, total_cost, stale_fraction, cache_hit_ratio, saving_vs_base,
} }

struct TtlResults {
    control_plane: Vec<PlanePoint>,
    isolation: Vec<IsolationPoint>,
    frontier: Vec<FrontierPoint>,
}
json_fields! { TtlResults { control_plane, isolation, frontier } }

fn main() {
    println!(
        "Ablation: TTL control plane vs MRC planner vs static-peak \
         (83MB footprint, {MEM_PRICE_MULT}x DRAM price)"
    );
    // Same budget as `tests/ttl_acceptance.rs`, so the printed cells are
    // the cells that suite bounds.
    let (warmup, measured) = (8_000, 12_000);
    let runner = SweepRunner::from_env();

    // ---- Section 1: the control-plane head-to-head grid. ----
    let specs = sweep_specs();
    let reports = run_sweep(&runner, &specs, warmup, measured);

    let mut rows = Vec::new();
    let mut plane_points = Vec::new();
    for (spec, r) in specs.iter().zip(&reports) {
        let ttl_now = r.ttl_current_secs.first().copied().unwrap_or(0.0);
        rows.push(vec![
            spec.label(),
            usd(cell_dollars(spec.plane, r)),
            usd(r.total_cost.memory),
            format!("{:.3}", r.cache_hit_ratio),
            format!("{}", r.ttl_changes),
            format!("{}", r.expired_entries),
            format!("{:.1}", r.ttl_mean_resident_bytes / 1e6),
            if spec.plane == Plane::Ttl {
                format!("{ttl_now:.2}s")
            } else {
                "-".into()
            },
        ]);
        plane_points.push(PlanePoint {
            cell: spec.label(),
            monthly_dollars: cell_dollars(spec.plane, r),
            memory_dollars: r.total_cost.memory,
            cache_hit_ratio: r.cache_hit_ratio,
            ttl_decisions: r.ttl_decisions,
            ttl_changes: r.ttl_changes,
            expired_entries: r.expired_entries,
            expiry_sweep_cpu_us: r.expiry_sweep_cpu_us,
            mean_resident_mb: r.ttl_mean_resident_bytes / 1e6,
            current_ttl_secs: ttl_now,
        });
    }
    print_table(
        "Control-plane head-to-head (95% reads)",
        &[
            "cell",
            "billed/mo",
            "mem/mo",
            "hit",
            "ttl_moves",
            "expired",
            "resident_MB",
            "ttl",
        ],
        &rows,
    );

    // Headline: per (arch, schedule), both controllers against the static
    // fleet (specs come in static-mrc-ttl triplets).
    println!("\nHeadline — dollars against the static-peak fleet:");
    let mut headline = Vec::new();
    for (sp, rp) in specs.chunks(3).zip(reports.chunks(3)) {
        debug_assert_eq!(
            [sp[0].plane, sp[1].plane, sp[2].plane],
            [Plane::Static, Plane::Mrc, Plane::Ttl]
        );
        let statics = cell_dollars(Plane::Static, &rp[0]);
        let mrc = cell_dollars(Plane::Mrc, &rp[1]);
        let ttl = cell_dollars(Plane::Ttl, &rp[2]);
        headline.push(vec![
            format!("{}/{}", sp[0].arch.label(), sp[0].schedule.label()),
            usd(statics),
            usd(mrc),
            usd(ttl),
            format!("{:+.1}%", (1.0 - ttl / statics) * 100.0),
            format!("{:+.1}%", (1.0 - ttl / mrc) * 100.0),
            format!(
                "{:+.2}pt",
                (rp[2].cache_hit_ratio - rp[1].cache_hit_ratio) * 100.0
            ),
        ]);
    }
    print_table(
        "TTL plane vs the alternatives",
        &[
            "arch/schedule",
            "static/mo",
            "mrc/mo",
            "ttl/mo",
            "ttl_vs_static",
            "ttl_vs_mrc",
            "hit_vs_mrc",
        ],
        &headline,
    );

    // ---- Section 2: tenant isolation. ----
    let iso_specs = isolation_specs();
    let iso = runner.run_map(&iso_specs, |_, &storm| {
        run_kv_experiment(&isolation_experiment(storm, warmup, measured)).expect("isolation run")
    });
    let mut iso_rows = Vec::new();
    let mut iso_points = Vec::new();
    for (&storm, r) in iso_specs.iter().zip(&iso) {
        let tenant = |label: &str| r.tenants.iter().find(|t| t.label == label).expect("tenant");
        let agg = tenant("aggressor");
        iso_rows.push(vec![
            isolation_label(storm).to_string(),
            format!("{:.4}", tenant_hit(r, "victim")),
            format!("{:.4}", tenant_hit(r, "aggressor")),
            format!("{:.3}", agg.writes as f64 / agg.requests as f64),
            format!("{:.2}s / {:.2}s", tenant("victim").ttl_secs, agg.ttl_secs),
        ]);
        iso_points.push(IsolationPoint {
            cell: isolation_label(storm).to_string(),
            victim_hit: tenant_hit(r, "victim"),
            aggressor_hit: tenant_hit(r, "aggressor"),
            aggressor_write_share: agg.writes as f64 / agg.requests as f64,
            victim_dollars: tenant("victim").monthly_dollars,
            aggressor_dollars: agg.monthly_dollars,
        });
    }
    print_table(
        "Tenant isolation under per-tenant TTL controllers",
        &[
            "cell",
            "victim_hit",
            "aggressor_hit",
            "agg_writes",
            "ttls (v/a)",
        ],
        &iso_rows,
    );
    let moved = (iso_points[1].victim_hit - iso_points[0].victim_hit).abs();
    println!(
        "\nThe aggressor's storm moved the victim's hit ratio by {:.4} points —\n\
         each tenant's TTL follows its own age histogram, so one tenant's\n\
         write burst re-tunes only that tenant's expiry.",
        moved * 100.0
    );

    // ---- Section 3: the legacy fixed-TTL freshness frontier. ----
    let frontier_points = frontier(&runner);

    write_json(
        "ablation_ttl",
        &TtlResults {
            control_plane: plane_points,
            isolation: iso_points,
            frontier: frontier_points,
        },
    );

    println!(
        "\nCapacity resizing and TTL tuning reclaim the same DRAM, but expiry\n\
         needs no migration and bills at time-averaged *resident* bytes — so\n\
         the TTL plane holds the MRC planner's hit ratio on the diurnal day,\n\
         matches it under working-set churn, and wins outright when\n\
         invalidation storms strand dead entries that capacity planning\n\
         keeps paying for."
    );
}

/// The PR-4 fixed-TTL frontier: `LinkedTtl` replicas at a ladder of static
/// TTLs, with the consistent architectures for reference. Short TTLs buy
/// freshness with misses; long TTLs are cheap but stale; ownership leases
/// beat the whole frontier.
fn frontier(runner: &SweepRunner) -> Vec<FrontierPoint> {
    let (warmup, measured) = (100_000, 100_000);
    let run = |arch: ArchKind, ttl_ms: u64| {
        let workload = KvWorkloadConfig {
            keys: 20_000,
            alpha: 1.2,
            read_ratio: 0.95,
            sizes: workloads::SizeDist::Fixed(1_024),
            seed: 42,
            churn_period: None,
        };
        let mut cfg = KvExperimentConfig::paper(arch, workload);
        cfg.qps = 100_000.0;
        cfg.warmup_requests = warmup;
        cfg.requests = measured;
        cfg.deployment.linked_ttl = SimDuration::from_millis(ttl_ms);
        run_kv_experiment(&cfg).expect("frontier run")
    };

    // Spec 0 is the Base reference; the rest are the frontier points.
    let mut specs: Vec<(String, ArchKind, u64)> = vec![("base".into(), ArchKind::Base, 0)];
    for ttl_ms in [10u64, 50, 200, 1_000, 5_000, 30_000] {
        specs.push((format!("ttl={ttl_ms}ms"), ArchKind::LinkedTtl, ttl_ms));
    }
    specs.push(("linked+version".into(), ArchKind::LinkedVersion, 0));
    specs.push(("lease-owned".into(), ArchKind::LeaseOwned, 0));
    let reports = runner.run_map(&specs, |_, (_, arch, ttl_ms)| run(*arch, *ttl_ms));
    let base_cost = reports[0].total_cost.total();

    let mut rows = Vec::new();
    let mut points = Vec::new();
    for ((label, _, _), r) in specs.iter().zip(&reports).skip(1) {
        let stale = r.stale_reads as f64 / (r.requests as f64 * 0.95);
        let total = r.total_cost.total();
        rows.push(vec![
            label.clone(),
            usd(total),
            ratio(base_cost / total),
            format!("{stale:.4}"),
            format!("{:.3}", r.cache_hit_ratio),
        ]);
        points.push(FrontierPoint {
            label: label.clone(),
            total_cost: total,
            stale_fraction: stale,
            cache_hit_ratio: r.cache_hit_ratio,
            saving_vs_base: base_cost / total,
        });
    }
    print_table(
        &format!(
            "Fixed-TTL freshness frontier (TTL as consistency contract; Base: {})",
            usd(base_cost)
        ),
        &["config", "total/mo", "saving", "stale frac", "hit"],
        &rows,
    );
    points
}
