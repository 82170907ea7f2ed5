//! The benchmark's own checks, on tiny variants of each workload.

use dcache::experiment::run_kv_experiment;
use perfbench::ledger::Site;
use perfbench::metrics::{result_json, Metric};
use perfbench::replay::replay;
use perfbench::run::{traced, untraced, Outcome};
use perfbench::workload::{Scale, Workload};
use std::collections::BTreeSet;
use std::time::Duration;

const SEED: u64 = 5;

fn untraced_tiny(w: Workload) -> Outcome {
    // A zero budget runs exactly one round.
    untraced(w, SEED, Scale::Tiny, Duration::ZERO).expect("untraced run")
}

fn traced_tiny(w: Workload) -> Outcome {
    traced(w, SEED, Scale::Tiny).expect("traced run")
}

/// Metric names listed under `section` in the repository's BENCHMARK.json.
fn benchmark_names(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

/// Whether a metric name is made of `[A-Za-z0-9_.-]` only and starts with
/// a letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_carry_units() {
    for w in Workload::ALL {
        for out in [untraced_tiny(w), traced_tiny(w)] {
            assert!(out.correct, "{}: {:?}", w.name(), out.lines);
            assert!(out.attempted >= 1);
            for m in &out.metrics {
                assert!(valid_name(&m.name), "{}: bad name {}", w.name(), m.name);
                assert!(
                    valid_unit(m.unit),
                    "{}: bad unit {} of {}",
                    w.name(),
                    m.unit,
                    m.name
                );
                assert!(
                    m.value.is_finite(),
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
            assert_eq!(names(&out.metrics).len(), out.metrics.len(), "names repeat");
        }
    }
}

#[test]
fn every_benchmark_json_name_is_printed() {
    let end_to_end = benchmark_names("end_to_end");
    let per_layer = benchmark_names("per_layer");
    assert!(end_to_end.contains("setup_s"));
    for w in Workload::ALL {
        let e2e = untraced_tiny(w);
        assert_eq!(
            names(&e2e.metrics),
            end_to_end,
            "{}: --trace 0 metrics",
            w.name()
        );
        let layers = traced_tiny(w);
        assert_eq!(
            names(&layers.metrics),
            per_layer,
            "{}: --trace 1 metrics",
            w.name()
        );
        let line = result_json(e2e.correct, e2e.attempted, e2e.failed, &e2e.metrics);
        for name in &end_to_end {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} in {line}"
            );
        }
    }
}

#[test]
fn modelled_metrics_repeat_across_in_process_runs() {
    for w in Workload::ALL {
        let cfg = w.config(SEED, Scale::Tiny);
        let a = run_kv_experiment(&cfg).expect("first run");
        let b = run_kv_experiment(&cfg).expect("second run");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: reports differ",
            w.name()
        );
        let modelled = |o: &Outcome| -> Vec<(String, u64)> {
            o.metrics
                .iter()
                .filter(|m| !matches!(m.name.as_str(), "sim_req_per_s" | "setup_s" | "peak_rss_mb"))
                .map(|m| (m.name.clone(), m.value.to_bits()))
                .collect()
        };
        assert_eq!(
            modelled(&untraced_tiny(w)),
            modelled(&untraced_tiny(w)),
            "{}",
            w.name()
        );
    }
}

#[test]
fn replay_reproduces_run_counts() {
    for w in Workload::ALL {
        let cfg = w.config(SEED, Scale::Tiny);
        let report = run_kv_experiment(&cfg).expect("run");
        for traced in [false, true] {
            let rp = replay(&cfg, traced).expect("replay");
            rp.check_against(&report)
                .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", w.name()));
            if w.requires_fresh_reads() {
                assert_eq!(rp.counts().stale_reads, 0, "{}", w.name());
            }
        }
        let rp = replay(&cfg, true).expect("traced replay");
        let ledger = rp.ledger.as_ref().expect("ledger");
        let served = ledger.calls(Site::ServeRead) + ledger.calls(Site::ServeWrite);
        assert_eq!(served, cfg.warmup_requests + cfg.requests, "{}", w.name());
        assert_eq!(rp.steps.len() as u64, served, "{}", w.name());
        let ttl_calls = ledger.calls(Site::TtlObserve) + ledger.calls(Site::ExpireSweep);
        assert_eq!(
            ttl_calls > 0,
            w == Workload::TtlTenants,
            "{}: TTL plane work",
            w.name()
        );
    }
}

#[test]
fn the_gate_fails_on_a_changed_count() {
    let cfg = Workload::LinkedVersion.config(SEED, Scale::Tiny);
    let mut report = run_kv_experiment(&cfg).expect("run");
    let rp = replay(&cfg, false).expect("replay");
    assert!(rp.check_against(&report).is_ok());
    report.version_checks += 1;
    assert!(
        rp.check_against(&report).is_err(),
        "a changed count must fail the gate"
    );
}

#[test]
fn seeds_change_the_inputs() {
    for w in Workload::ALL {
        let a = run_kv_experiment(&w.config(SEED, Scale::Tiny)).expect("run");
        let b = run_kv_experiment(&w.config(SEED + 1, Scale::Tiny)).expect("run");
        assert_ne!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{}: seed ignored",
            w.name()
        );
    }
}
