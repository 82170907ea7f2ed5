//! Golden-figure summaries: small, fixed-seed reductions of the fig2–fig8
//! experiments, snapshotted under `tests/golden/*.json` and re-checked by
//! `tests/golden_figures.rs` so a refactor can't silently shift the
//! paper's reproduced numbers.
//!
//! Each summary runs the same code paths as the corresponding `fig*` bin
//! but at test-sized budgets (test_small deployments, a few thousand
//! requests, fixed seeds), through the [`crate::sweep::SweepRunner`] — so
//! the golden suite also exercises the parallel path every run.
//!
//! The bless files are written and read by the workspace's one JSON
//! module, [`telemetry::json`]: a figure is an object of `name` and
//! `points`, each point an object of `label` and a `metrics` object.
//!
//! Metric names carry their tolerance class as a prefix (see
//! [`tolerance_for`]): `count_`/`flag_` exact, `model_` near-exact
//! analytics, `frac_`/`hit_` absolute, `cost_`/`cores_` relative,
//! `lat_` loose relative (integer-microsecond percentiles at small
//! budgets are the noisiest thing we snapshot).

use crate::sweep::SweepRunner;
use dcache::consistency::delayed_write_scenario;
use dcache::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache::unityapp::{
    run_unity_kv_experiment, run_unity_object_experiment, UnityExperimentConfig,
};
use dcache::{ArchKind, DeploymentConfig, ExperimentReport};
use telemetry::json::{self, to_json_pretty, Object, ToJson, Value};
use workloads::meta::meta_workload;
use workloads::unity::{UnityDataset, UnityOp, UnityScale, UnityWorkload};
use workloads::{KvWorkloadConfig, SizeDist};

/// One labeled point of a figure: `(metric name, value)` pairs, sorted by
/// name so the serialized form is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenPoint {
    pub label: String,
    pub metrics: Vec<(String, f64)>,
}

impl GoldenPoint {
    pub fn new(label: impl Into<String>, mut metrics: Vec<(String, f64)>) -> Self {
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        GoldenPoint {
            label: label.into(),
            metrics,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// A whole figure's golden summary.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenFigure {
    pub name: String,
    pub points: Vec<GoldenPoint>,
}

impl GoldenFigure {
    pub fn point(&self, label: &str) -> Option<&GoldenPoint> {
        self.points.iter().find(|p| p.label == label)
    }

    /// Deterministic pretty JSON; `parse` reads it back exactly.
    pub fn to_json(&self) -> String {
        to_json_pretty(self)
    }

    /// Parse the JSON produced by [`GoldenFigure::to_json`] (any JSON with
    /// that shape, actually — whitespace and key order are free).
    pub fn parse(text: &str) -> Result<GoldenFigure, String> {
        fn field<'v>(v: &'v Value, key: &str, what: &str) -> Result<&'v Value, String> {
            v.get(key).ok_or(format!("{what} missing {key:?}"))
        }
        let doc = json::parse(text)?;
        let name = field(&doc, "name", "top level")?
            .as_str()
            .ok_or("name: expected string")?;
        let mut points = Vec::new();
        for (i, p) in field(&doc, "points", "top level")?
            .as_array()
            .ok_or("points: expected array")?
            .iter()
            .enumerate()
        {
            let what = format!("points[{i}]");
            let label = field(p, "label", &what)?
                .as_str()
                .ok_or(format!("{what}.label: expected string"))?;
            let metrics = field(p, "metrics", &what)?
                .as_object()
                .ok_or(format!("{what}.metrics: expected object"))?
                .iter()
                .map(|(k, v)| {
                    Ok((
                        k.clone(),
                        v.as_f64().ok_or(format!("{k}: expected number"))?,
                    ))
                })
                .collect::<Result<_, String>>()?;
            points.push(GoldenPoint::new(label, metrics));
        }
        Ok(GoldenFigure {
            name: name.to_string(),
            points,
        })
    }
}

impl ToJson for GoldenPoint {
    fn write_json(&self, out: &mut String, indent: usize) {
        let metrics: Vec<(&str, &dyn ToJson)> = self
            .metrics
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn ToJson))
            .collect();
        let fields: [(&str, &dyn ToJson); 2] =
            [("label", &self.label), ("metrics", &Object(&metrics))];
        Object(&fields).write_json(out, indent);
    }
}

telemetry::json_fields! { GoldenFigure { name, points } }

/// Absolute and relative tolerance for a metric, chosen by name prefix.
/// A comparison passes when `|actual - expected| <= abs + rel * |expected|`.
pub fn tolerance_for(metric: &str) -> (f64, f64) {
    if metric.starts_with("count_") || metric.starts_with("flag_") {
        (0.0, 0.0)
    } else if metric.starts_with("model_") {
        // Pure analytics: only float-op reassociation in a refactor should
        // ever move these, and then only in the last bits.
        (1e-9, 1e-9)
    } else if metric.starts_with("frac_") || metric.starts_with("hit_") {
        (0.02, 0.0)
    } else if metric.starts_with("cost_") || metric.starts_with("cores_") {
        (0.0, 0.03)
    } else if metric.starts_with("saving_") {
        (0.0, 0.05)
    } else if metric.starts_with("lat_") {
        (2.0, 0.30)
    } else {
        (0.0, 0.05)
    }
}

/// Compare `actual` against the blessed `expected`, returning one line per
/// violation (empty = pass). Labels must match exactly and in order; every
/// expected metric must be present within [`tolerance_for`]; extra metrics
/// in `actual` are violations too (they belong in a re-blessed golden).
pub fn compare(expected: &GoldenFigure, actual: &GoldenFigure) -> Vec<String> {
    let mut violations = Vec::new();
    if expected.name != actual.name {
        violations.push(format!(
            "figure name: expected {:?}, got {:?}",
            expected.name, actual.name
        ));
        return violations;
    }
    let exp_labels: Vec<&str> = expected.points.iter().map(|p| p.label.as_str()).collect();
    let act_labels: Vec<&str> = actual.points.iter().map(|p| p.label.as_str()).collect();
    if exp_labels != act_labels {
        violations.push(format!(
            "{}: point labels changed: expected {exp_labels:?}, got {act_labels:?}",
            expected.name
        ));
        return violations;
    }
    for (ep, ap) in expected.points.iter().zip(&actual.points) {
        for (key, evalue) in &ep.metrics {
            let Some(avalue) = ap.metric(key) else {
                violations.push(format!(
                    "{}/{}: metric {key} missing",
                    expected.name, ep.label
                ));
                continue;
            };
            let (abs, rel) = tolerance_for(key);
            let budget = abs + rel * evalue.abs();
            if (avalue - evalue).abs() > budget {
                violations.push(format!(
                    "{}/{}: {key} = {avalue} vs golden {evalue} (tolerance {budget})",
                    expected.name, ep.label
                ));
            }
        }
        for (key, _) in &ap.metrics {
            if ep.metric(key).is_none() {
                violations.push(format!(
                    "{}/{}: new metric {key} not in golden (re-bless with UPDATE_GOLDEN=1)",
                    expected.name, ep.label
                ));
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------------
// Figure summaries.
// ---------------------------------------------------------------------------

/// Every golden figure, computed through `runner`.
pub fn all_figures(runner: &SweepRunner) -> Vec<GoldenFigure> {
    vec![
        fig2_theory(),
        fig3_unity_trace(),
        fig4_synthetic(runner),
        fig5_production(runner),
        fig6_cpu_breakdown(runner),
        fig7_rich_objects(runner),
        fig8_delayed_writes(),
        ablation_batching(runner),
        ablation_hotkey(runner),
        ablation_elastic(runner),
        ablation_recovery(runner),
        ablation_ttl(runner),
        obs_report(runner),
    ]
}

/// The §4 analytical model: savings vs α, replica count, memory price.
pub fn fig2_theory() -> GoldenFigure {
    use costmodel::{Pricing, TheoryModel, TheoryParams};
    let model = |alpha: f64, replicas: f64, mult: f64| {
        TheoryModel::new(TheoryParams {
            alpha,
            replicas,
            pricing: Pricing::default().with_memory_multiplier(mult),
            ..TheoryParams::default()
        })
    };
    let mut points = Vec::new();
    for alpha in [0.8, 1.0, 1.2] {
        let m = model(alpha, 1.0, 1.0);
        points.push(GoldenPoint::new(
            format!("alpha_{alpha}"),
            vec![
                ("model_saving".into(), m.cost_saving_vs_base(8.0, 1.0, 1.0)),
                ("model_miss_ratio_8gb".into(), m.miss_ratio(8.0)),
            ],
        ));
    }
    for n_r in [1.0, 4.0, 8.0] {
        let m = model(1.2, n_r, 1.0);
        let s_a = m.optimal_s_a(1.0, 64.0);
        points.push(GoldenPoint::new(
            format!("replicas_{n_r}"),
            vec![
                (
                    "model_saving_fixed".into(),
                    m.cost_saving_vs_base(8.0, 1.0, 1.0),
                ),
                ("model_optimal_s_a_gb".into(), s_a),
                (
                    "model_saving_optimal".into(),
                    m.cost_saving_vs_base(s_a, 1.0, 1.0),
                ),
            ],
        ));
    }
    for mult in [1.0, 10.0, 40.0] {
        let m = model(1.2, 1.0, mult);
        let s_a = m.optimal_s_a(1.0, 64.0);
        points.push(GoldenPoint::new(
            format!("mem_price_{mult}x"),
            vec![
                ("model_optimal_s_a_gb".into(), s_a),
                (
                    "model_saving_optimal".into(),
                    m.cost_saving_vs_base(s_a, 1.0, 1.0),
                ),
            ],
        ));
    }
    let m = model(1.2, 1.0, 1.0);
    points.push(GoldenPoint::new(
        "gradients",
        vec![
            ("model_d_ds_a".into(), m.d_ds_a(0.2, 1.0)),
            ("model_d_ds_d".into(), m.d_ds_d(0.2, 1.0)),
            ("model_optimal_s_a_gb".into(), m.optimal_s_a(1.0, 64.0)),
        ],
    ));
    GoldenFigure {
        name: "fig2_theory".into(),
        points,
    }
}

/// Unity trace shape: object-size percentiles and access skew.
pub fn fig3_unity_trace() -> GoldenFigure {
    let scale = UnityScale::default();
    let dataset = UnityDataset::new(scale);
    let mut sizes: Vec<u64> = (0..scale.tables)
        .map(|t| dataset.object_logical_bytes(t))
        .collect();
    sizes.sort_unstable();
    let pct = |q: f64| sizes[((sizes.len() - 1) as f64 * q) as usize] as f64;

    let draws = 50_000usize;
    let mut counts = std::collections::HashMap::new();
    let mut reads = 0u64;
    for req in UnityWorkload::new(&scale, 7).take(draws) {
        *counts.entry(req.table).or_insert(0u64) += 1;
        if req.op == UnityOp::GetTable {
            reads += 1;
        }
    }
    let mut freq: Vec<u64> = counts.values().copied().collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));

    GoldenFigure {
        name: "fig3_unity_trace".into(),
        points: vec![
            GoldenPoint::new(
                "object_sizes",
                vec![
                    ("count_p50_bytes".into(), pct(0.50)),
                    ("count_p99_bytes".into(), pct(0.99)),
                    ("count_max_bytes".into(), pct(1.0)),
                ],
            ),
            GoldenPoint::new(
                "access_skew",
                vec![
                    ("hit_read_ratio".into(), reads as f64 / draws as f64),
                    ("count_rank1_accesses".into(), freq[0] as f64),
                    (
                        "count_rank10_accesses".into(),
                        freq.get(9).copied().unwrap_or(0) as f64,
                    ),
                    ("count_distinct_tables".into(), counts.len() as f64),
                ],
            ),
        ],
    }
}

/// Build the small fixed-seed KV config the sim-backed goldens share.
/// A deterministic, test-sized KV experiment (2K keys, small request
/// budget, `test_small` deployment) — the building block for the golden
/// figures and the sequential-vs-parallel determinism suite.
pub fn small_kv(arch: ArchKind, read_ratio: f64, value_bytes: u64) -> KvExperimentConfig {
    let workload = KvWorkloadConfig {
        keys: 2_000,
        alpha: 1.2,
        read_ratio,
        sizes: SizeDist::Fixed(value_bytes),
        seed: 42,
        churn_period: None,
    };
    let mut cfg = KvExperimentConfig::paper(arch, workload);
    cfg.deployment = DeploymentConfig::test_small(arch);
    cfg.qps = 50_000.0;
    cfg.warmup_requests = 2_000;
    cfg.requests = 4_000;
    cfg.prewarm = false;
    cfg
}

fn cost_point(label: String, r: &ExperimentReport, base_cost: f64) -> GoldenPoint {
    GoldenPoint::new(
        label,
        vec![
            ("cost_total".into(), r.total_cost.total()),
            ("cost_compute".into(), r.total_cost.compute),
            ("cost_memory".into(), r.total_cost.memory),
            ("cores_total".into(), r.total_cores),
            ("hit_cache".into(), r.cache_hit_ratio),
            ("saving_vs_base".into(), base_cost / r.total_cost.total()),
            ("lat_read_p50_us".into(), r.read_latency_p50_us as f64),
            ("lat_read_p99_us".into(), r.read_latency_p99_us as f64),
        ],
    )
}

/// Fold per-arch reports (spec order: PAPER archs) into cost points where
/// `saving_vs_base` is relative to the first (Base) report.
fn cost_points(prefix: &str, reports: &[ExperimentReport]) -> Vec<GoldenPoint> {
    let base = reports[0].total_cost.total();
    ArchKind::PAPER
        .iter()
        .zip(reports)
        .map(|(arch, r)| cost_point(format!("{prefix}/{}", arch.label()), r, base))
        .collect()
}

/// Synthetic-workload cost grid: read-ratio and value-size endpoints.
pub fn fig4_synthetic(runner: &SweepRunner) -> GoldenFigure {
    let cells: Vec<(&str, f64, u64)> = vec![
        ("r50_1kb", 0.50, 1 << 10),
        ("r95_1kb", 0.95, 1 << 10),
        ("r95_64kb", 0.95, 64 << 10),
    ];
    let specs: Vec<(usize, ArchKind)> = (0..cells.len())
        .flat_map(|c| ArchKind::PAPER.iter().map(move |&a| (c, a)))
        .collect();
    let reports = runner.run_map(&specs, |_, &(c, arch)| {
        let (_, read_ratio, value_bytes) = cells[c];
        run_kv_experiment(&small_kv(arch, read_ratio, value_bytes)).expect("fig4 golden run")
    });
    let mut points = Vec::new();
    for (c, chunk) in reports.chunks(ArchKind::PAPER.len()).enumerate() {
        points.extend(cost_points(cells[c].0, chunk));
    }
    GoldenFigure {
        name: "fig4_synthetic".into(),
        points,
    }
}

/// Production-shaped workloads: Unity-KV and the Meta-style trace.
pub fn fig5_production(runner: &SweepRunner) -> GoldenFigure {
    let archs: Vec<ArchKind> = ArchKind::PAPER.to_vec();
    let unity = runner.run_map(&archs, |_, &arch| {
        run_unity_kv_experiment(&UnityExperimentConfig::test_small(arch)).expect("unity golden")
    });
    let meta = runner.run_map(&archs, |_, &arch| {
        let mut cfg = KvExperimentConfig::paper(arch, meta_workload(11));
        cfg.deployment = DeploymentConfig::test_small(arch);
        cfg.qps = 50_000.0;
        cfg.warmup_requests = 2_000;
        cfg.requests = 4_000;
        run_kv_experiment(&cfg).expect("meta golden")
    });
    let mut points = cost_points("unity_kv", &unity);
    points.extend(cost_points("meta", &meta));
    GoldenFigure {
        name: "fig5_production".into(),
        points,
    }
}

/// Per-tier CPU split at a mid value size.
pub fn fig6_cpu_breakdown(runner: &SweepRunner) -> GoldenFigure {
    let archs: Vec<ArchKind> = ArchKind::PAPER.to_vec();
    let reports = runner.run_map(&archs, |_, &arch| {
        run_kv_experiment(&small_kv(arch, 0.95, 64 << 10)).expect("fig6 golden run")
    });
    let frac = |r: &ExperimentReport, tier: &str, cats: &[&str]| -> f64 {
        r.tier(tier)
            .map(|t| {
                t.cpu_fractions
                    .iter()
                    .filter(|(n, _)| cats.contains(&n.as_str()))
                    .map(|(_, f)| f)
                    .sum()
            })
            .unwrap_or(0.0)
    };
    let cores_of = |r: &ExperimentReport, tier: &str| r.tier(tier).map(|t| t.cores).unwrap_or(0.0);
    let points = archs
        .iter()
        .zip(&reports)
        .map(|(arch, r)| {
            GoldenPoint::new(
                arch.label(),
                vec![
                    ("cores_app".into(), cores_of(r, "app")),
                    ("cores_storage".into(), cores_of(r, "storage")),
                    (
                        "frac_frontend_fixed".into(),
                        frac(r, "sql_frontend", &["sql_frontend", "txn_lease"]),
                    ),
                    ("frac_memory_cost".into(), r.memory_cost_fraction()),
                ],
            )
        })
        .collect();
    GoldenFigure {
        name: "fig6_cpu_breakdown".into(),
        points,
    }
}

/// Rich-object vs denormalized-KV Unity flavors.
pub fn fig7_rich_objects(runner: &SweepRunner) -> GoldenFigure {
    type Run = fn(&UnityExperimentConfig) -> storekit::error::StoreResult<ExperimentReport>;
    let flavors: [(&str, Run); 2] = [
        ("object", run_unity_object_experiment as Run),
        ("kv", run_unity_kv_experiment as Run),
    ];
    let specs: Vec<(usize, ArchKind)> = (0..flavors.len())
        .flat_map(|f| ArchKind::PAPER.iter().map(move |&a| (f, a)))
        .collect();
    let reports = runner.run_map(&specs, |_, &(f, arch)| {
        flavors[f].1(&UnityExperimentConfig::test_small(arch)).expect("fig7 golden run")
    });
    let mut points = Vec::new();
    for (f, chunk) in reports.chunks(ArchKind::PAPER.len()).enumerate() {
        let base = chunk[0].total_cost.total();
        for (arch, r) in ArchKind::PAPER.iter().zip(chunk) {
            points.push(GoldenPoint::new(
                format!("{}/{}", flavors[f].0, arch.label()),
                vec![
                    ("cost_total".into(), r.total_cost.total()),
                    ("hit_cache".into(), r.cache_hit_ratio),
                    (
                        "frac_sql_per_read".into(),
                        r.sql_statements as f64 / r.requests as f64,
                    ),
                    ("saving_vs_base".into(), base / r.total_cost.total()),
                ],
            ));
        }
    }
    GoldenFigure {
        name: "fig7_rich_objects".into(),
        points,
    }
}

/// The batched-RPC ablation at golden budget: a reduced cut of the
/// `ablation_batching` sweep (batch caps 1/8/32, both value-size
/// endpoints). `max_batch = 1` pins the unbatched baseline — its counters
/// must stay exactly zero, which is also what keeps fig4–fig7 byte-stable:
/// batching off is the default everywhere else.
pub fn ablation_batching(runner: &SweepRunner) -> GoldenFigure {
    use crate::batching::{cpu_us_per_request, run_sweep, BatchSpec};
    let specs: Vec<BatchSpec> = [(10u64, 1u32), (10, 8), (1024, 1), (1024, 8), (1024, 32)]
        .iter()
        .map(|&(value_bytes, max_batch)| BatchSpec {
            max_batch,
            value_bytes,
        })
        .collect();
    let reports = run_sweep(runner, &specs, 2_000, 4_000);
    let points = specs
        .iter()
        .zip(&reports)
        .map(|(spec, r)| {
            GoldenPoint::new(
                format!("v{}_b{}", spec.value_bytes, spec.max_batch),
                vec![
                    ("cores_cpu_us_per_request".into(), cpu_us_per_request(r)),
                    ("cost_total".into(), r.total_cost.total()),
                    ("hit_cache".into(), r.cache_hit_ratio),
                    ("count_rpc_batches".into(), r.rpc_batches as f64),
                    ("mean_batch_size".into(), r.mean_batch_size),
                    ("lat_read_p50_us".into(), r.read_latency_p50_us as f64),
                ],
            )
        })
        .collect();
    GoldenFigure {
        name: "ablation_batching".into(),
        points,
    }
}

/// The hot-key L0 ablation at golden budget: a reduced cut of the
/// `ablation_hotkey` sweep (per arch: tier off, the 4 MB production
/// corner, and — for Remote — the low-skew and serve-stale variants). The
/// off cells pin the defaults-off invariant — every `l0_*` counter must
/// stay exactly zero, which is also what keeps fig4–fig7 byte-stable: the
/// L0 tier off is the default everywhere else.
pub fn ablation_hotkey(runner: &SweepRunner) -> GoldenFigure {
    use crate::hotkey::{cpu_us_per_request, l0_absorption, run_sweep, HotkeySpec};
    let cell = |arch, l0_bytes, alpha, serve_stale| HotkeySpec {
        arch,
        l0_bytes,
        alpha,
        value_bytes: 1024,
        serve_stale,
    };
    let specs: Vec<HotkeySpec> = vec![
        cell(ArchKind::Remote, 0, 1.2, false),
        cell(ArchKind::Remote, 4 << 20, 1.2, false),
        cell(ArchKind::Remote, 4 << 20, 0.8, false),
        cell(ArchKind::Remote, 4 << 20, 1.2, true),
        cell(ArchKind::Linked, 0, 1.2, false),
        cell(ArchKind::Linked, 4 << 20, 1.2, false),
    ];
    let reports = run_sweep(runner, &specs, 2_000, 4_000);
    let points = specs
        .iter()
        .zip(&reports)
        .map(|(spec, r)| {
            GoldenPoint::new(
                spec.label(),
                vec![
                    ("cost_total".into(), r.total_cost.total()),
                    ("cores_cpu_us_per_request".into(), cpu_us_per_request(r)),
                    ("hit_cache".into(), r.cache_hit_ratio),
                    ("hit_l0".into(), r.l0_hit_ratio),
                    ("frac_l0_absorption".into(), l0_absorption(r)),
                    ("count_l0_admitted".into(), r.l0_admitted as f64),
                    ("count_l0_invalidations".into(), r.l0_invalidations as f64),
                    ("count_l0_stale_serves".into(), r.l0_stale_serves as f64),
                    ("count_stale_reads".into(), r.stale_reads as f64),
                    ("lat_read_p50_us".into(), r.read_latency_p50_us as f64),
                    ("lat_l0_age_p99_us".into(), r.l0_age_p99_us as f64),
                ],
            )
        })
        .collect();
    GoldenFigure {
        name: "ablation_hotkey".into(),
        points,
    }
}

/// The elastic-provisioning ablation at golden budget: a reduced cut of
/// the `ablation_elastic` day (Remote + Linked, static vs elastic). The
/// static cells also pin the diurnal clock itself — their elastic counters
/// must stay exactly zero, which is what keeps fig4–fig7 byte-stable: the
/// controller off is the default everywhere else. Warmup spans four
/// decision intervals so the controller's convergence churn lands before
/// the measured window.
pub fn ablation_elastic(runner: &SweepRunner) -> GoldenFigure {
    use crate::elastic::{run_sweep, saving, static_peak_dollars, ElasticSpec};
    let specs: Vec<ElasticSpec> = [ArchKind::Remote, ArchKind::Linked]
        .iter()
        .flat_map(|&arch| {
            [false, true]
                .iter()
                .map(move |&elastic| ElasticSpec { arch, elastic })
        })
        .collect();
    let reports = run_sweep(runner, &specs, 8_000, 12_000);
    let points = specs
        .iter()
        .zip(&reports)
        .enumerate()
        .map(|(i, (spec, r))| {
            let mut metrics = vec![
                ("cost_total".into(), r.total_cost.total()),
                ("cost_memory".into(), r.total_cost.memory),
                ("cost_static_peak".into(), static_peak_dollars(r)),
                ("hit_cache".into(), r.cache_hit_ratio),
                ("cores_total".into(), r.total_cores),
                ("cores_peak_window".into(), r.peak_window_cores),
                ("count_decisions".into(), r.elastic_decisions as f64),
                ("count_resizes".into(), r.elastic_resizes as f64),
                (
                    "count_shards_drained".into(),
                    r.elastic_shards_drained as f64,
                ),
                ("mean_cache_mb".into(), r.elastic_mean_cache_bytes / 1e6),
            ];
            if spec.elastic {
                // Each elastic cell is preceded by its static baseline.
                metrics.push(("saving_vs_static".into(), saving(&reports[i - 1], r)));
            }
            GoldenPoint::new(spec.label(), metrics)
        })
        .collect();
    GoldenFigure {
        name: "ablation_elastic".into(),
        points,
    }
}

/// The crash-recovery ablation at golden budget: a reduced cut of the
/// `ablation_recovery` sweep (per arch: the durability-off baseline, the
/// fsync-every-entry cell, and the group-commit default). The off cells
/// pin the durability-off invariant — every WAL/recovery counter must stay
/// exactly zero even with crashes scheduled, which is also what keeps
/// fig4–fig7 byte-stable: durability off is the default everywhere else.
pub fn ablation_recovery(runner: &SweepRunner) -> GoldenFigure {
    use crate::recovery::{mean_recovery_ms, run_sweep, DurabilityKnobs, RecoverySpec};
    let specs: Vec<RecoverySpec> = [ArchKind::Remote, ArchKind::Linked]
        .iter()
        .flat_map(|&arch| {
            [
                None,
                Some(DurabilityKnobs {
                    fsync_group: 1,
                    snapshot_every: 1_024,
                }),
                Some(DurabilityKnobs {
                    fsync_group: 8,
                    snapshot_every: 256,
                }),
            ]
            .into_iter()
            .map(move |durability| RecoverySpec {
                arch,
                durability,
                crashes: 2,
            })
        })
        .collect();
    let reports = run_sweep(runner, &specs, 2_000, 4_000);
    let points = specs
        .iter()
        .zip(&reports)
        .map(|(spec, r)| {
            GoldenPoint::new(
                spec.label(),
                vec![
                    ("cost_total".into(), r.total_cost.total()),
                    ("cost_ssd".into(), r.total_cost.ssd),
                    ("hit_cache".into(), r.cache_hit_ratio),
                    ("count_wal_appends".into(), r.wal_appends as f64),
                    ("count_fsync_batches".into(), r.wal_fsync_batches as f64),
                    ("count_recoveries".into(), r.recoveries as f64),
                    ("count_replayed_entries".into(), r.replayed_entries as f64),
                    ("count_lost_tail_entries".into(), r.lost_tail_entries as f64),
                    ("count_stale_reads".into(), r.stale_reads as f64),
                    ("lat_recovery_ms".into(), mean_recovery_ms(r)),
                ],
            )
        })
        .collect();
    GoldenFigure {
        name: "ablation_recovery".into(),
        points,
    }
}

/// The TTL-control-plane ablation at golden budget: a reduced cut of the
/// `ablation_ttl` sweep (the Remote diurnal triplet pins all three planes
/// side by side; single TTL cells cover churn, storms and the Linked
/// push-down; the isolation pair pins the two-tenant machinery). The
/// static cell's TTL counters must stay exactly zero — the same
/// default-off invariant that keeps every other figure byte-stable.
/// Warmup spans four decision intervals so the first adopted TTL (and its
/// expiry churn) lands before the measured window.
pub fn ablation_ttl(runner: &SweepRunner) -> GoldenFigure {
    use crate::ttl::{
        isolation_experiment, isolation_label, run_sweep, tenant_hit, Plane, Schedule, TtlSpec,
    };
    let cell = |arch, schedule, plane| TtlSpec {
        arch,
        schedule,
        plane,
    };
    let grid: Vec<TtlSpec> = vec![
        cell(ArchKind::Remote, Schedule::Diurnal, Plane::Static),
        cell(ArchKind::Remote, Schedule::Diurnal, Plane::Mrc),
        cell(ArchKind::Remote, Schedule::Diurnal, Plane::Ttl),
        cell(ArchKind::Remote, Schedule::Churn, Plane::Ttl),
        cell(ArchKind::Remote, Schedule::Storm, Plane::Ttl),
        cell(ArchKind::Linked, Schedule::Diurnal, Plane::Ttl),
    ];
    let reports = run_sweep(runner, &grid, 8_000, 12_000);
    let mut points: Vec<GoldenPoint> = grid
        .iter()
        .zip(&reports)
        .map(|(spec, r)| {
            GoldenPoint::new(
                spec.label(),
                vec![
                    ("cost_total".into(), r.total_cost.total()),
                    ("cost_memory".into(), r.total_cost.memory),
                    ("hit_cache".into(), r.cache_hit_ratio),
                    ("count_ttl_decisions".into(), r.ttl_decisions as f64),
                    ("count_ttl_changes".into(), r.ttl_changes as f64),
                    ("count_expired".into(), r.expired_entries as f64),
                    (
                        "mean_resident_mb".into(),
                        r.ttl_mean_resident_bytes / 1e6,
                    ),
                ],
            )
        })
        .collect();
    let iso_specs = [false, true];
    let iso = runner.run_map(&iso_specs, |_, &storm| {
        run_kv_experiment(&isolation_experiment(storm, 8_000, 12_000)).expect("isolation run")
    });
    for (&storm, r) in iso_specs.iter().zip(&iso) {
        let agg = r
            .tenants
            .iter()
            .find(|t| t.label == "aggressor")
            .expect("aggressor tenant");
        points.push(GoldenPoint::new(
            isolation_label(storm),
            vec![
                ("hit_victim".into(), tenant_hit(r, "victim")),
                ("hit_aggressor".into(), tenant_hit(r, "aggressor")),
                (
                    "frac_aggressor_writes".into(),
                    agg.writes as f64 / agg.requests as f64,
                ),
                ("count_ttl_decisions".into(), r.ttl_decisions as f64),
                ("count_expired".into(), r.expired_entries as f64),
            ],
        ));
    }
    GoldenFigure {
        name: "ablation_ttl".into(),
        points,
    }
}

/// The observability report: heartbeat count, SLO alerts and the per-cause
/// tail attribution for both architectures under the incident day. Counts
/// are exact — the whole pipeline (virtual clock, burn-rate engine, tail
/// classifier) is deterministic, so any drift is a real behavior change.
pub fn obs_report(runner: &SweepRunner) -> GoldenFigure {
    use crate::obs::{run_sweep, GOLDEN_MEASURED, GOLDEN_WARMUP};
    use dcache::obs::TailCause;
    let runs = run_sweep(runner, GOLDEN_WARMUP, GOLDEN_MEASURED);
    let points = runs
        .iter()
        .map(|(report, bundle)| {
            let obs = bundle.obs.as_ref().expect("observability enabled");
            let mut metrics = vec![
                ("count_heartbeats".into(), obs.timeseries.len() as f64),
                (
                    "count_annotations".into(),
                    obs.timeseries.annotations().len() as f64,
                ),
                ("count_alerts".into(), obs.alerts.len() as f64),
                (
                    "count_tail_requests".into(),
                    obs.tail.tail_requests.len() as f64,
                ),
                ("lat_tail_threshold_us".into(), obs.tail.threshold_us as f64),
                ("lat_tail_excess_us".into(), obs.tail.total_excess_us as f64),
            ];
            for cause in TailCause::ALL {
                let row = obs
                    .tail
                    .causes
                    .iter()
                    .find(|c| c.cause == cause)
                    .expect("attribution covers every cause");
                metrics.push((format!("count_cause_{}", cause.label()), row.count as f64));
            }
            GoldenPoint::new(report.arch.label(), metrics)
        })
        .collect();
    GoldenFigure {
        name: "obs_report".into(),
        points,
    }
}

/// The delayed-write hazard and its fencing fix — all-boolean, exact.
pub fn fig8_delayed_writes() -> GoldenFigure {
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let opt = |v: Option<u64>| v.map(|x| x as f64).unwrap_or(-1.0);
    let points = [false, true]
        .iter()
        .map(|&fenced| {
            let o = delayed_write_scenario(fenced).expect("scenario runs");
            GoldenPoint::new(
                if fenced {
                    "epoch_fencing"
                } else {
                    "no_fencing"
                },
                vec![
                    ("flag_write_admitted".into(), flag(o.delayed_write_admitted)),
                    ("flag_linearizable".into(), flag(o.linearizable)),
                    ("count_final_cache_value".into(), opt(o.final_cache_value)),
                    (
                        "count_final_storage_value".into(),
                        opt(o.final_storage_value),
                    ),
                ],
            )
        })
        .collect();
    GoldenFigure {
        name: "fig8_delayed_writes".into(),
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenFigure {
        GoldenFigure {
            name: "fig_test".into(),
            points: vec![
                GoldenPoint::new(
                    "a/base",
                    vec![
                        ("cost_total".into(), 1234.5678),
                        ("hit_cache".into(), 0.0),
                        ("count_requests".into(), 4000.0),
                    ],
                ),
                GoldenPoint::new("b \"quoted\"", vec![("model_x".into(), -1.25e-3)]),
            ],
        }
    }

    #[test]
    fn json_roundtrips_exactly() {
        let fig = sample();
        let text = fig.to_json();
        let parsed = GoldenFigure::parse(&text).expect("parse");
        assert_eq!(fig, parsed);
        // And the re-encoding is byte-identical (stable bless files).
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn compare_accepts_identical_and_within_tolerance() {
        let fig = sample();
        assert!(compare(&fig, &fig).is_empty());
        let mut close = fig.clone();
        close.points[0].metrics[0] = ("cost_total".into(), 1234.5678 * 1.01);
        assert!(
            compare(&fig, &close).is_empty(),
            "{:?}",
            compare(&fig, &close)
        );
    }

    #[test]
    fn compare_rejects_out_of_tolerance_and_exact_mismatches() {
        let fig = sample();
        let mut off = fig.clone();
        off.points[0].metrics[0] = ("cost_total".into(), 1234.5678 * 1.5);
        assert_eq!(compare(&fig, &off).len(), 1);
        let mut count_off = fig.clone();
        count_off.points[0].metrics[1] = ("count_requests".into(), 4001.0);
        assert_eq!(compare(&fig, &count_off).len(), 1, "counts are exact");
    }

    #[test]
    fn compare_flags_missing_and_extra_metrics() {
        let fig = sample();
        let mut renamed = fig.clone();
        renamed.points[1].metrics[0] = ("model_y".into(), -1.25e-3);
        let v = compare(&fig, &renamed);
        assert_eq!(v.len(), 2, "one missing + one extra: {v:?}");
    }

    #[test]
    fn tolerances_follow_prefixes() {
        assert_eq!(tolerance_for("count_anything"), (0.0, 0.0));
        assert_eq!(tolerance_for("flag_linearizable"), (0.0, 0.0));
        assert_eq!(tolerance_for("cost_total"), (0.0, 0.03));
        assert_eq!(tolerance_for("hit_cache"), (0.02, 0.0));
        assert_eq!(tolerance_for("lat_read_p99_us"), (2.0, 0.30));
    }

    #[test]
    fn fig2_and_fig8_are_reproducible() {
        // Pure analytics and the consistency scenario: same bytes each time.
        assert_eq!(fig2_theory().to_json(), fig2_theory().to_json());
        assert_eq!(
            fig8_delayed_writes().to_json(),
            fig8_delayed_writes().to_json()
        );
    }
}
