//! Debug-build smoke of the figure paths no other root suite runs.
//!
//! The exact check of every figure is `crates/bench/tests/reproduce.rs`,
//! which re-runs `repro_all` at full budget. This suite runs the code
//! behind the figures it would otherwise leave to that release-only check
//! at a few hundred requests: the Unity object and KV runners (fig3, fig5,
//! fig7), the Meta-style trace (fig5), the consistency archs (the
//! consistency ablation), eviction policies and admission, popularity
//! churn, a storage-leader crash, the session service and the §4 model
//! (fig2). Every case runs twice and must produce equal reports, and the
//! archs that promise consistency must serve no stale read.

use std::fmt::Debug;

use dcache_cost::cache::PolicyKind;
use dcache_cost::cost::{TheoryModel, TheoryParams};
use dcache_cost::study::experiment::{run_kv_experiment, KvExperimentConfig};
use dcache_cost::study::sessionapp::{run_session_experiment, SessionExperimentConfig};
use dcache_cost::study::unityapp::{
    run_unity_kv_experiment, run_unity_object_experiment, UnityExperimentConfig,
};
use dcache_cost::study::{ArchKind, ExperimentReport};
use dcache_cost::workload::meta::meta_workload;

const WARMUP: u64 = 200;
const MEASURED: u64 = 400;

/// Run `case` twice; the two results must be equal.
fn twice<T: PartialEq + Debug>(what: &str, case: impl Fn() -> T) -> T {
    let first = case();
    assert_eq!(first, case(), "{what}: a second run differs");
    first
}

/// Base, LinkedVersion and LeaseOwned promise linearizable reads.
fn assert_fresh(what: &str, r: &ExperimentReport) {
    if matches!(
        r.arch,
        ArchKind::Base | ArchKind::LinkedVersion | ArchKind::LeaseOwned
    ) {
        assert_eq!(r.stale_reads, 0, "{what}/{}: stale reads", r.arch.label());
    }
}

/// The ablations' `small_kv` cell with 1 KB values, cut to the smoke budget.
fn kv_1kb(arch: ArchKind, read_ratio: f64) -> KvExperimentConfig {
    let mut cfg = bench::small_kv(arch, read_ratio, 1 << 10);
    cfg.warmup_requests = WARMUP;
    cfg.requests = MEASURED;
    cfg
}

fn run(what: &str, cfg: &KvExperimentConfig) -> ExperimentReport {
    let r = twice(what, || run_kv_experiment(cfg).expect("kv run"));
    assert_eq!(r.requests, MEASURED, "{what}: measured requests");
    assert_fresh(what, &r);
    r
}

#[test]
fn unity_object_and_kv_runners() {
    type Runner =
        fn(&UnityExperimentConfig) -> dcache_cost::store::error::StoreResult<ExperimentReport>;
    let flavors: [(&str, Runner); 2] = [
        ("unity_object", run_unity_object_experiment),
        ("unity_kv", run_unity_kv_experiment),
    ];
    for (flavor, runner) in flavors {
        for arch in ArchKind::ALL {
            let mut cfg = UnityExperimentConfig::test_small(arch);
            cfg.warmup_requests = WARMUP;
            cfg.requests = MEASURED;
            let r = twice(flavor, || runner(&cfg).expect("unity run"));
            assert_eq!(r.requests, MEASURED, "{flavor}/{}", arch.label());
            assert_fresh(flavor, &r);
            if arch != ArchKind::Base {
                assert!(r.cache_hit_ratio > 0.0, "{flavor}/{}: no hit", arch.label());
            }
        }
    }
}

#[test]
fn meta_trace_on_every_paper_arch() {
    // The trace's size mix and write share over a key space the
    // test-sized deployment loads quickly in debug.
    let mut workload = meta_workload(11);
    workload.keys = 20_000;
    for arch in ArchKind::PAPER {
        let mut cfg = kv_1kb(arch, workload.read_ratio);
        cfg.workload = workload.clone();
        run("meta", &cfg);
    }
}

#[test]
fn consistency_archs_serve_no_stale_reads() {
    for arch in ArchKind::ALL {
        let r = run("consistency", &kv_1kb(arch, 0.80));
        // The TTL-only arch trades freshness for cost: the stale-read
        // count is live, so the zero asserted above means something.
        if arch == ArchKind::LinkedTtl {
            assert!(r.stale_reads > 0, "linked_ttl served no stale read");
        }
    }
}

#[test]
fn eviction_policies_and_admission_under_pressure() {
    for admission in [false, true] {
        for policy in PolicyKind::ALL {
            let mut cfg = kv_1kb(ArchKind::Linked, 0.95);
            // A few hundred entries per server, far below the key space.
            cfg.deployment.linked_cache_bytes_per_server = 256 << 10;
            cfg.deployment.cache_policy = policy;
            cfg.deployment.cache_admission = admission;
            let r = run(policy.label(), &cfg);
            assert!(
                r.cache_hit_ratio > 0.0 && r.cache_hit_ratio < 1.0,
                "{}: hit ratio {} with a cache below the key space",
                policy.label(),
                r.cache_hit_ratio
            );
        }
    }
}

#[test]
fn popularity_churn_rotates_the_hot_set() {
    let stat = run("static", &kv_1kb(ArchKind::Linked, 0.95));
    let mut cfg = kv_1kb(ArchKind::Linked, 0.95);
    cfg.workload.churn_period = Some(100);
    let churned = run("churn", &cfg);
    assert!(
        churned.cache_hit_ratio < stat.cache_hit_ratio,
        "churn {} vs static {}",
        churned.cache_hit_ratio,
        stat.cache_hit_ratio
    );
}

#[test]
fn storage_leader_crash_mid_run() {
    for arch in [ArchKind::Base, ArchKind::Linked, ArchKind::LinkedVersion] {
        let mut cfg = kv_1kb(arch, 0.95);
        cfg.crash_leaders_at_request = Some(MEASURED / 2);
        let r = run("failover", &cfg);
        assert!(r.failovers > 0, "{}: no failover", arch.label());
    }
}

#[test]
fn session_service_on_every_arch() {
    for arch in ArchKind::ALL {
        let mut cfg = SessionExperimentConfig::test_small(arch);
        cfg.warmup_requests = WARMUP;
        cfg.requests = MEASURED;
        let r = twice("sessions", || {
            run_session_experiment(&cfg).expect("session run")
        });
        assert_eq!(r.requests, MEASURED, "sessions/{}", arch.label());
        assert_fresh("sessions", &r);
    }
}

#[test]
fn theory_model_saving_grows_with_skew() {
    let saving = |alpha: f64| {
        twice("theory", || {
            TheoryModel::new(TheoryParams {
                alpha,
                ..TheoryParams::default()
            })
            .cost_saving_vs_base(8.0, 1.0, 1.0)
        })
    };
    let (low, high) = (saving(0.8), saving(1.2));
    assert!(
        high > low && high > 1.0,
        "saving {low} at α 0.8, {high} at α 1.2"
    );
}
