//! `fig_scale` — cost curves at 10× and 100× the paper's load, plus the
//! simulator-throughput benchmark that gates the PR-8 speed overhaul.
//!
//! The paper's dollar methodology only becomes credible at production scale:
//! "millions of users" means tens of millions of requests per deterministic
//! run. This binary (a) re-runs the §5.2 synthetic cost comparison with the
//! request budget scaled 10×/100×, sharding a *single* giant experiment
//! across cores (per-app-server partitioning, deterministic merge), and
//! (b) measures simulated requests/second of the engine on that workload,
//! writing `results/BENCH_pr8.json` so CI can assert the hot path never
//! regresses below the recorded baseline.
//!
//! Modes:
//! * default       — 10× scale point (plus 100× unless `--quick`)
//! * `--quick`     — CI budget: 10× shape at 1/10 requests

use bench::sweep::SweepRunner;
use bench::{print_table, quick_mode, ratio, usd};
use dcache::experiment::{merge_kv_shards, run_kv_experiment, run_kv_shard, KvExperimentConfig};
use dcache::ArchKind;
use std::time::Instant;
use workloads::KvWorkloadConfig;

/// Pre-PR engine throughput on this workload (simulated requests/sec),
/// measured at the PR-8 seed commit (`ad37544`, BinaryHeap engine,
/// per-request allocations on the serve path) with
/// `fig_scale --bench-baseline` on the CI reference machine. The acceptance
/// gate asserts the current engine stays ≥ this floor; the ≥10× claim in
/// `results/BENCH_pr8.json` is measured against the same number.
const PRE_PR_REQ_PER_SEC: f64 = 243_800.0;

struct ScalePoint {
    scale: u64,
    arch: String,
    requests: u64,
    shards: usize,
    total_cost: f64,
    compute_cost: f64,
    memory_cost: f64,
    cores: f64,
    cache_hit_ratio: f64,
    saving_vs_base: f64,
    read_p50_us: u64,
    read_p99_us: u64,
    sim_req_per_sec: f64,
    wall_secs: f64,
}

struct BenchReport {
    /// Total simulated requests served across every measured run.
    requests: u64,
    /// Wall-clock seconds spent inside the simulator.
    wall_secs: f64,
    /// Simulated requests per wall-clock second (the headline number).
    sim_req_per_sec: f64,
    /// Same metric measured at the pre-PR seed commit on this workload.
    baseline_req_per_sec: f64,
    /// sim_req_per_sec / baseline_req_per_sec.
    speedup_vs_baseline: f64,
    /// Peak resident set (kB) from /proc/self/status VmHWM (0 if absent).
    peak_rss_kb: u64,
    /// Worker threads the sharded experiment ran on.
    jobs: usize,
    quick: bool,
}

fn scale_cfg(arch: ArchKind, scale: u64, requests: u64) -> KvExperimentConfig {
    let workload = KvWorkloadConfig::paper_synthetic(0.95, 1_024, 42);
    let mut cfg = KvExperimentConfig::paper(arch, workload);
    // 10×/100× the paper's 100K QPS; request budget scales with it so the
    // run spans the same virtual time as the 1× figure runs.
    cfg.qps = 100_000.0 * scale as f64;
    cfg.warmup_requests = requests / 2;
    cfg.requests = requests / 2;
    cfg
}

/// Linux peak-RSS proxy: VmHWM from /proc/self/status, in kB.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

// JSON artifacts are hand-rolled: the offline serde_json stub serializes to
// the empty string (see .claude/skills/verify/SKILL.md), so derive-based
// `write_json` would leave results/*.json empty. Same approach as BENCH_pr7.
fn write_scale_json(points: &[ScalePoint]) {
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"scale\": {}, \"arch\": \"{}\", \"requests\": {}, \"shards\": {}, \
             \"total_cost\": {:.2}, \"compute_cost\": {:.2}, \"memory_cost\": {:.2}, \
             \"cores\": {:.4}, \"cache_hit_ratio\": {:.6}, \"saving_vs_base\": {:.4}, \
             \"read_p50_us\": {}, \"read_p99_us\": {}, \"sim_req_per_sec\": {:.0}, \
             \"wall_secs\": {:.3}}}{}\n",
            p.scale,
            p.arch,
            p.requests,
            p.shards,
            p.total_cost,
            p.compute_cost,
            p.memory_cost,
            p.cores,
            p.cache_hit_ratio,
            p.saving_vs_base,
            p.read_p50_us,
            p.read_p99_us,
            p.sim_req_per_sec,
            p.wall_secs,
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    let path = bench::results_dir().join("fig_scale.json");
    std::fs::write(&path, out).expect("write fig_scale.json");
    println!("\n[results written to {}]", path.display());
}

fn write_bench_json(b: &BenchReport) {
    let out = format!(
        "{{\n  \"description\": \"fig_scale engine throughput: simulated requests/sec across \
         the sharded 10x/100x cost runs. Cost columns in fig_scale.json are deterministic; \
         wall-clock, req/s and RSS here are environment-dependent by design.\",\n  \
         \"generated_by\": \"fig_scale{}\",\n  \
         \"requests\": {},\n  \
         \"wall_secs\": {:.3},\n  \
         \"sim_req_per_sec\": {:.0},\n  \
         \"baseline_req_per_sec\": {:.0},\n  \
         \"speedup_vs_baseline\": {:.3},\n  \
         \"peak_rss_kb\": {},\n  \
         \"jobs\": {}\n}}\n",
        if b.quick { " --quick" } else { "" },
        b.requests,
        b.wall_secs,
        b.sim_req_per_sec,
        b.baseline_req_per_sec,
        b.speedup_vs_baseline,
        b.peak_rss_kb,
        b.jobs,
    );
    let path = bench::results_dir().join("BENCH_pr8.json");
    std::fs::write(&path, out).expect("write BENCH_pr8.json");
    println!("[bench figures written to {}]", path.display());
}

/// `--bench-baseline`: time the *unsharded* sequential runner (all the
/// pre-PR engine had) on the quick workload and print its req/s — the
/// number `PRE_PR_REQ_PER_SEC` records.
fn bench_baseline() {
    let mut requests = 0u64;
    let mut wall = 0.0f64;
    for &arch in &ArchKind::PAPER {
        let cfg = scale_cfg(arch, 10, 300_000);
        let t0 = Instant::now();
        let report = run_kv_experiment(&cfg).expect("baseline run");
        let secs = t0.elapsed().as_secs_f64();
        let total = cfg.warmup_requests + cfg.requests;
        requests += total;
        wall += secs;
        println!(
            "baseline {:>16}: {:>10.0} req/s ({:.1}s wall, ${:.2}/mo)",
            arch.label(),
            total as f64 / secs.max(1e-9),
            secs,
            report.total_cost.total()
        );
    }
    println!(
        "baseline aggregate: {:.0} req/s over {} requests",
        requests as f64 / wall.max(1e-9),
        requests
    );
}

fn main() {
    let quick = quick_mode();
    if std::env::args().any(|a| a == "--bench-baseline") {
        bench_baseline();
        return;
    }
    let runner = SweepRunner::from_env();
    println!(
        "fig_scale: synthetic cost curves at 10x/100x the paper's load ({} jobs)",
        runner.jobs()
    );

    // Scale points: (scale factor, total requests). The 100× point only
    // runs in full mode — CI gets the 10× shape at a tenth the budget.
    let scales: Vec<(u64, u64)> = if quick {
        vec![(10, 300_000)]
    } else {
        vec![(10, 3_000_000), (100, 30_000_000)]
    };

    let mut points: Vec<ScalePoint> = Vec::new();
    let mut bench_requests = 0u64;
    let mut bench_wall = 0.0f64;

    for &(scale, requests) in &scales {
        let mut base_cost = None;
        for &arch in &ArchKind::PAPER {
            let cfg = scale_cfg(arch, scale, requests);
            // Shard the single experiment per app server; the shard count is
            // fixed by the config (never by the worker count), so jobs=1 and
            // jobs=N execute the same shard set and merge byte-identically.
            let shards = cfg.deployment.app_servers;
            let t0 = Instant::now();
            let shard_ids: Vec<usize> = (0..shards).collect();
            let outs = runner.run_map(&shard_ids, |_, &s| {
                run_kv_shard(&cfg, s, shards).expect("shard must run")
            });
            let report = merge_kv_shards(&cfg, outs).expect("merge must succeed");
            let secs = t0.elapsed().as_secs_f64();
            let total_requests = cfg.warmup_requests + cfg.requests;
            bench_requests += total_requests;
            bench_wall += secs;

            let total = report.total_cost.total();
            let saving = match base_cost {
                None => {
                    base_cost = Some(total);
                    1.0
                }
                Some(b) => b / total,
            };
            points.push(ScalePoint {
                scale,
                arch: arch.label().to_string(),
                requests: total_requests,
                shards,
                total_cost: total,
                compute_cost: report.total_cost.compute,
                memory_cost: report.total_cost.memory,
                cores: report.total_cores,
                cache_hit_ratio: report.cache_hit_ratio,
                saving_vs_base: saving,
                read_p50_us: report.read_latency_p50_us,
                read_p99_us: report.read_latency_p99_us,
                sim_req_per_sec: total_requests as f64 / secs.max(1e-9),
                wall_secs: secs,
            });
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}x", p.scale),
                p.arch.clone(),
                usd(p.total_cost),
                usd(p.compute_cost),
                usd(p.memory_cost),
                format!("{:.2}", p.cores),
                format!("{:.3}", p.cache_hit_ratio),
                ratio(p.saving_vs_base),
                format!("{}", p.read_p50_us),
                format!("{:.0}", p.sim_req_per_sec),
            ]
        })
        .collect();
    print_table(
        "fig_scale: cost at 10x/100x paper load",
        &[
            "scale", "arch", "total/mo", "compute", "memory", "cores", "hit", "saving", "p50_us",
            "req/s",
        ],
        &rows,
    );
    write_scale_json(&points);

    let req_per_sec = bench_requests as f64 / bench_wall.max(1e-9);
    let bench = BenchReport {
        requests: bench_requests,
        wall_secs: bench_wall,
        sim_req_per_sec: req_per_sec,
        baseline_req_per_sec: PRE_PR_REQ_PER_SEC,
        speedup_vs_baseline: req_per_sec / PRE_PR_REQ_PER_SEC,
        peak_rss_kb: peak_rss_kb(),
        jobs: runner.jobs(),
        quick,
    };
    println!(
        "\nsim throughput: {:.0} req/s over {} requests ({:.1}s wall, {:.2}x the pre-PR baseline)",
        bench.sim_req_per_sec, bench.requests, bench.wall_secs, bench.speedup_vs_baseline
    );
    write_bench_json(&bench);

    // CI regression floor: the engine must never fall back below the seed
    // baseline. FIG_SCALE_NO_GATE=1 skips the assert (used when measuring
    // the baseline itself).
    if std::env::var("FIG_SCALE_NO_GATE").is_err() && req_per_sec < PRE_PR_REQ_PER_SEC {
        eprintln!(
            "FAIL: {req_per_sec:.0} req/s is below the recorded pre-PR baseline {PRE_PR_REQ_PER_SEC:.0}"
        );
        std::process::exit(1);
    }
}
