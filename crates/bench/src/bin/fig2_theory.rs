//! Figure 2 — the §4 theoretical model.
//!
//! (a) cost saving of Linked (s_A = 8 GB, s_D = 1 GB) over Base (1 GB of
//!     in-storage cache) as Zipf α varies;
//! (b) the same as the linked-cache replica count N_r varies, plus the
//!     memory-price sensitivity (up to 40×) with optimally-sized caches.
//!
//! Also prints the §4 gradient takeaway: |∂T/∂s_A| > |∂T/∂s_D| in the
//! growth region, and the optimal allocation rule.

use bench::{print_table, ratio, usd, write_json};
use costmodel::{HybridModel, Pricing, SsdTier, TheoryModel, TheoryParams};
use telemetry::json_fields;

struct Fig2Results {
    alpha_sweep: Vec<(f64, f64)>,
    ssd_sweep: Vec<(f64, f64, f64, f64, f64)>,
    replica_sweep: Vec<(f64, f64, f64)>,
    memory_price_sweep: Vec<(f64, f64, f64)>,
    gradient_s_a: f64,
    gradient_s_d: f64,
    optimal_s_a_gb: f64,
}
json_fields! { Fig2Results {
    alpha_sweep, ssd_sweep, replica_sweep, memory_price_sweep, gradient_s_a, gradient_s_d,
    optimal_s_a_gb,
} }

fn model(alpha: f64, replicas: f64, mem_multiplier: f64) -> TheoryModel {
    TheoryModel::new(TheoryParams {
        alpha,
        replicas,
        pricing: Pricing::default().with_memory_multiplier(mem_multiplier),
        ..TheoryParams::default()
    })
}

fn main() {
    println!("Reproducing Figure 2: the Section 4 analytical model");
    println!(
        "T = QPS*(MR(s_A)*c_A + MR(s_A+s_D)*c_D) + c_M*(s_A*N_r + s_D); defaults: {:?}",
        TheoryParams::default()
    );

    // (a) α sweep.
    let mut alpha_sweep = Vec::new();
    let mut rows = Vec::new();
    for alpha in [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4] {
        let m = model(alpha, 1.0, 1.0);
        let saving = m.cost_saving_vs_base(8.0, 1.0, 1.0);
        alpha_sweep.push((alpha, saving));
        rows.push(vec![
            format!("{alpha:.1}"),
            ratio(saving),
            format!("{:.3}", m.miss_ratio(8.0)),
            format!("{:.3}", m.miss_ratio(1.0)),
        ]);
    }
    print_table(
        "Figure 2a: saving of Linked(8GB,1GB) over Base(1GB) vs Zipf alpha",
        &["alpha", "saving", "MR(8GB)", "MR(1GB)"],
        &rows,
    );

    // (b) replica sweep at α=1.2, fixed 8 GB and optimally sized.
    let mut replica_sweep = Vec::new();
    let mut rows = Vec::new();
    for n_r in [1.0, 2.0, 4.0, 6.0, 8.0, 10.0] {
        let m = model(1.2, n_r, 1.0);
        let fixed = m.cost_saving_vs_base(8.0, 1.0, 1.0);
        let s_a = m.optimal_s_a(1.0, 64.0);
        let optimal = m.cost_saving_vs_base(s_a, 1.0, 1.0);
        replica_sweep.push((n_r, fixed, optimal));
        rows.push(vec![
            format!("{n_r:.0}"),
            ratio(fixed),
            format!("{s_a:.2}GB"),
            ratio(optimal),
        ]);
    }
    print_table(
        "Figure 2b: saving vs replica count N_r (alpha=1.2)",
        &["N_r", "saving@8GB", "optimal s_A", "saving@opt"],
        &rows,
    );

    // Memory-price sensitivity (the "up to 40x" claim).
    let mut memory_price_sweep = Vec::new();
    let mut rows = Vec::new();
    for mult in [1.0, 5.0, 10.0, 20.0, 40.0] {
        let m = model(1.2, 1.0, mult);
        let s_a = m.optimal_s_a(1.0, 64.0);
        let saving = m.cost_saving_vs_base(s_a, 1.0, 1.0);
        memory_price_sweep.push((mult, s_a, saving));
        rows.push(vec![
            format!("{mult:.0}x"),
            format!("{s_a:.2}GB"),
            ratio(saving),
        ]);
    }
    print_table(
        "Memory price sensitivity (optimally sized linked cache)",
        &["mem price", "optimal s_A", "saving"],
        &rows,
    );

    // §7 extension: the DRAM+SSD hybrid frontier.
    let mut rows = Vec::new();
    let mut ssd_sweep = Vec::new();
    for alpha in [0.8, 1.0, 1.2] {
        let m = TheoryModel::new(TheoryParams {
            alpha,
            keys: 1_000_000,
            mean_entry_bytes: 230_000.0,
            ..TheoryParams::default()
        });
        let dram_best = m.optimal_s_a(1.0, 128.0);
        let dram_cost = m.total_cost(dram_best, 1.0);
        let hybrid = HybridModel::new(&m, SsdTier::default());
        let alloc = hybrid.optimize(1.0, 128.0, 512.0);
        ssd_sweep.push((alpha, dram_cost, alloc.dram_gb, alloc.ssd_gb, alloc.monthly_cost));
        rows.push(vec![
            format!("{alpha:.1}"),
            format!("{dram_best:.1}GB"),
            usd(dram_cost),
            format!("{:.1}GB", alloc.dram_gb),
            format!("{:.0}GB", alloc.ssd_gb),
            usd(alloc.monthly_cost),
            ratio(dram_cost / alloc.monthly_cost),
        ]);
    }
    print_table(
        "Section 7 extension: optimal DRAM-only vs DRAM+SSD hybrid (230GB dataset)",
        &["alpha", "DRAM-only s_A", "cost", "hybrid DRAM", "hybrid SSD", "cost", "gain"],
        &rows,
    );

    // Gradient takeaway.
    let m = model(1.2, 1.0, 1.0);
    let (ga, gd) = (m.d_ds_a(0.2, 1.0), m.d_ds_d(0.2, 1.0));
    let opt = m.optimal_s_a(1.0, 64.0);
    println!(
        "\nSection 4 takeaways at (s_A=0.2GB, s_D=1GB): dT/ds_A = {ga:.2} $/GB, dT/ds_D = {gd:.2} $/GB"
    );
    println!("  => |dT/ds_A| > |dT/ds_D|: {}", ga.abs() > gd.abs());
    println!("  optimal s_A (s_D=1GB): {opt:.2} GB");

    write_json(
        "fig2_theory",
        &Fig2Results {
            alpha_sweep,
            ssd_sweep,
            replica_sweep,
            memory_price_sweep,
            gradient_s_a: ga,
            gradient_s_d: gd,
            optimal_s_a_gb: opt,
        },
    );
}
