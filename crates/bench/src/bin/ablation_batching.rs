//! Ablation — amortizing the RPC tax: batched multi-get on the Remote path.
//!
//! The paper's Remote architecture pays a fixed per-RPC cost (syscalls,
//! framing, scheduling) on every cache lookup, on both sides of the wire —
//! the dominant reason a remote cache burns more CPU than a linked one at
//! small values. Batching amortizes that fixed cost over the keys sharing a
//! frame. This sweep turns the app-side coalescing window on at increasing
//! target batch sizes and watches per-request CPU fall toward the per-key
//! floor while read latency pays for the window — then checks the measured
//! curve against the §4 closed form and its Remote-vs-Linked crossover.
//!
//! Expected shape:
//!
//! * per-request app+cache CPU follows `per_key + (fixed − per_key)/B`
//!   (hyperbolic in the achieved mean batch size, not the configured cap);
//! * hit ratio and every cache outcome are unchanged — batching moves
//!   *when* frames depart, never *what* they return;
//! * p50 read latency grows roughly linearly with the window — the
//!   latency-for-CPU trade §4 prices out.

use bench::batching::{cpu_us_per_request, run_sweep, sweep_specs};
use bench::sweep::SweepRunner;
use bench::{print_table, usd, write_json};
use costmodel::{RpcTax, TheoryModel, TheoryParams};
use telemetry::json_fields;

struct Point {
    max_batch: u32,
    value_bytes: u64,
    mean_batch_size: f64,
    rpc_batches: u64,
    batched_rpc_keys: u64,
    cpu_us_per_request: f64,
    model_cpu_us_per_request: f64,
    total_cost: f64,
    cache_hit_ratio: f64,
    read_p50_us: u64,
    read_p99_us: u64,
}
json_fields! { Point {
    max_batch, value_bytes, mean_batch_size, rpc_batches, batched_rpc_keys, cpu_us_per_request,
    model_cpu_us_per_request, total_cost, cache_hit_ratio, read_p50_us, read_p99_us,
} }

fn main() {
    println!("Ablation: batched remote-cache RPC (batch size x value size)");
    let (warmup, measured) = (20_000, 40_000);

    let specs = sweep_specs();
    let reports = run_sweep(&SweepRunner::from_env(), &specs, warmup, measured);

    // The §4 tax decomposition, calibrated to the simulator's constants.
    let tax = RpcTax::default();

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut baseline_cpu = 0.0;
    for (spec, r) in specs.iter().zip(&reports) {
        let cpu = cpu_us_per_request(r);
        if spec.max_batch == 1 {
            baseline_cpu = cpu;
        }
        // Model prediction: the unbatched curve shifted by the amortized
        // fixed tax at the *achieved* mean batch size. One lookup per read
        // (95% of requests) rides a frame; misses add a fill RPC.
        let b = if r.mean_batch_size > 0.0 {
            r.mean_batch_size
        } else {
            1.0
        };
        let model_cpu = baseline_cpu
            - (tax.amortized_core_secs(1.0) - tax.amortized_core_secs(b)) * 1e6;
        rows.push(vec![
            format!("{}", spec.value_bytes),
            format!("{}", spec.max_batch),
            format!("{:.2}", r.mean_batch_size),
            format!("{:.2}", cpu),
            format!("{:.2}", model_cpu),
            format!("{:.3}", r.cache_hit_ratio),
            format!("{}", r.read_latency_p50_us),
            usd(r.total_cost.total()),
        ]);
        points.push(Point {
            max_batch: spec.max_batch,
            value_bytes: spec.value_bytes,
            mean_batch_size: r.mean_batch_size,
            rpc_batches: r.rpc_batches,
            batched_rpc_keys: r.batched_rpc_keys,
            cpu_us_per_request: cpu,
            model_cpu_us_per_request: model_cpu,
            total_cost: r.total_cost.total(),
            cache_hit_ratio: r.cache_hit_ratio,
            read_p50_us: r.read_latency_p50_us,
            read_p99_us: r.read_latency_p99_us,
        });
    }
    print_table(
        "Batched-RPC ablation (Remote, 95% reads)",
        &[
            "val_B",
            "max_batch",
            "mean_B",
            "cpu_us/req",
            "model_us/req",
            "hit",
            "p50_us",
            "total/mo",
        ],
        &rows,
    );
    write_json("ablation_batching", &points);

    // §4 crossover: the batch size at which Remote's amortized RPC tax fits
    // inside the budget Linked concedes (local-op CPU + the DRAM it saves
    // by not replicating the cache).
    let local_op_core_secs = 1.2e-6; // the simulator's local_cache_op_us
    println!("\n§4 Remote-vs-Linked crossover (8 GB cache, default prices):");
    for replicas in [2.0, 4.0, 8.0] {
        let m = TheoryModel::new(TheoryParams {
            replicas,
            ..TheoryParams::default()
        });
        match m.remote_crossover_batch(&tax, local_op_core_secs, 8.0) {
            Some(b) => println!("  N_r = {replicas}: Remote matches Linked at B* ≈ {b:.1}"),
            None => println!("  N_r = {replicas}: Remote never matches Linked"),
        }
    }

    println!(
        "\nBatching amortizes the fixed per-RPC cost over every key in a\n\
         frame: per-request CPU falls hyperbolically toward the per-key\n\
         floor while hit ratios do not move, and p50 latency buys the\n\
         coalescing window. At median Meta value sizes (~10 B) the fixed\n\
         tax dominates the payload, so max_batch >= 8 recovers most of the\n\
         Remote architecture's CPU premium."
    );
}
