//! The benchmark's own guarantees: seeded plans are byte-identical, the
//! metric tables match `BENCHMARK.json`, and two traced runs with one
//! seed repeat every exact count and every outcome metric.
//!
//! The traced runs execute real workloads; run with
//! `cargo test --release --manifest-path loadbench/Cargo.toml`.

use loadbench::metrics::{END_TO_END, EXACT_COUNTS, PER_LAYER};
use loadbench::plan::{Plan, Workload};
use loadbench::{run, Options};
use std::path::PathBuf;

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// `run_seconds` of `BENCHMARK.json`.
fn run_seconds() -> f64 {
    let json = benchmark_json();
    let start = json.find("\"run_seconds\":").expect("run_seconds key") + "\"run_seconds\":".len();
    let rest = json[start..].trim_start();
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().expect("run_seconds is a whole number")
}

#[test]
fn same_seed_renders_byte_identical_specs() {
    for workload in Workload::ALL {
        let a = Plan::new(workload, 20_261_017, 30.0).render();
        let b = Plan::new(workload, 20_261_017, 30.0).render();
        assert_eq!(a, b, "{}", workload.name());
        let other = Plan::new(workload, 20_261_018, 30.0).render();
        assert_ne!(a, other, "{}: another seed must give other specs", workload.name());
    }
}

#[test]
fn configured_runs_have_enough_samples_for_their_tails() {
    let seconds = run_seconds();
    for workload in [Workload::WarmSweep, Workload::ServeMixed] {
        let plan = Plan::new(workload, 1, seconds);
        assert!(
            plan.campaigns.len() >= 100,
            "{}: {} campaigns",
            workload.name(),
            plan.campaigns.len()
        );
    }
    let serve = Plan::new(Workload::ServeMixed, 1, seconds);
    assert_eq!(serve.campaigns.len(), serve.batch.len());
    assert_eq!(serve.think_ms.len(), serve.campaigns.len());
}

#[test]
fn warm_sweep_alternates_optimize_per_circuit_and_is_balanced() {
    let plan = Plan::new(Workload::WarmSweep, 5, run_seconds());
    let mut per_circuit: std::collections::BTreeMap<&str, Vec<String>> =
        std::collections::BTreeMap::new();
    for spec in &plan.campaigns {
        per_circuit.entry(spec.circuits[0]).or_default().push(spec.to_json());
    }
    assert_eq!(per_circuit.len(), 6);
    let per = plan.campaigns.len() / 6;
    assert_eq!(per % 24, 0, "whole cycles of the 24 (ns pair, backend, postprocess, optimize)");
    for (circuit, specs) in &per_circuit {
        assert_eq!(specs.len(), per, "{circuit}: every circuit gets the same share");
        for (k, json) in specs.iter().enumerate() {
            assert_eq!(json.contains("\"optimize\""), k % 2 == 1, "{circuit} campaign {k}");
        }
    }
    // Another seed reorders the same multiset of campaigns.
    let mut a: Vec<String> = plan.campaigns.iter().map(loadbench::plan::Spec::to_json).collect();
    let mut b: Vec<String> = Plan::new(Workload::WarmSweep, 6, run_seconds())
        .campaigns
        .iter()
        .map(loadbench::plan::Spec::to_json)
        .collect();
    assert_ne!(a, b);
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn benchmark_json_lists_exactly_the_metric_tables() {
    let json = benchmark_json();
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks `{entry}`");
    }
    assert_eq!(
        json.matches("\"name\":").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}

fn traced(workload: Workload, seed: u64, dir: &str) -> loadbench::RunResult {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).unwrap();
    // The smallest plans: six warm campaigns, four serve-mixed pairs.
    let options = Options { workload, seed, seconds: 1.0, trace: true };
    let result = run(&options, &scratch).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(result.correct, "{}: {:?}", workload.name(), result.violations);
    result
}

fn assert_traced_runs_repeat(workload: Workload) {
    let a = traced(workload, 77, &format!("{}-a", workload.name()));
    let b = traced(workload, 77, &format!("{}-b", workload.name()));
    for name in EXACT_COUNTS {
        assert_eq!(a.metric(name), b.metric(name), "{}: `{name}` differs", workload.name());
    }
    assert_eq!(a.outcome, b.outcome, "{}: outcome metrics differ", workload.name());
    for (name, _, _) in PER_LAYER {
        assert!(
            a.metric(name).is_some_and(f64::is_finite),
            "{}: `{name}` missing",
            workload.name()
        );
    }
    assert!(a.metric("sim.vectors").unwrap() > 0.0, "{}: no sweep recorded", workload.name());
    assert!(a.metric("tgen.t0_len").unwrap() > 0.0, "{}: no T0 recorded", workload.name());
}

#[test]
fn warm_sweep_traced_runs_repeat_exact_counts() {
    assert_traced_runs_repeat(Workload::WarmSweep);
}

#[test]
fn serve_mixed_traced_runs_repeat_exact_counts() {
    assert_traced_runs_repeat(Workload::ServeMixed);
}
