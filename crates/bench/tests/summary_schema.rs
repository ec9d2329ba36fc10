//! Schema coverage for `results/BENCH_summary.json`.
//!
//! The summary is the cross-PR perf trajectory: every experiment binary
//! folds its medians into it, so a bin missing from the committed file
//! means its numbers silently fell out of the record. This test pins the
//! schema — every bin present, every entry carrying its medians — so a
//! renamed experiment or a dropped `emit` fails loudly.

use std::fs;

use fbs_bench::results_dir;
use telemetry::json::{self, Value};

/// Every experiment bin's summary key (E5 and E7 emit two tables each),
/// plus the micro-bench group.
const EXPERIMENTS: &[&str] = &[
    "e1_total_speedup",
    "e2_kernel_speedup",
    "e3_breakdown",
    "e4_topology",
    "e5a_loading",
    "e5b_tolerance",
    "e6_primitives",
    "e7a_backward_strategy",
    "e7b_multicore",
    "e8_deep_trees",
    "e9_batch",
    "e10_devices",
    "e11_three_phase",
    "e12_faults",
    "e13_service",
    "e14_contingency",
    "e15_fleet",
    "e16_soak",
    "e17_mesh",
    "bench_generators",
];

/// Groups with no modeled clock (host-side generator benches): their
/// entries carry wall medians instead.
const WALL_ONLY: &[&str] = &["bench_generators"];

#[test]
fn summary_covers_every_experiment_bin() {
    let path = results_dir().join("BENCH_summary.json");
    let text = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("summary missing at {}: {e}", path.display()));
    let doc = json::parse(&text).expect("summary must be valid JSON");
    let exps = doc
        .get("experiments")
        .expect("summary must have an `experiments` map");

    let mut missing = Vec::new();
    for &name in EXPERIMENTS {
        let Some(entry) = exps.get(name) else {
            missing.push(name);
            continue;
        };
        // Each entry carries its headline median and a sample count;
        // wall medians are host-dependent and optional elsewhere.
        let median_key =
            if WALL_ONLY.contains(&name) { "median_wall_us" } else { "median_modeled_us" };
        assert!(
            entry.get(median_key).and_then(Value::as_f64).is_some(),
            "{name}: {median_key} missing or non-numeric"
        );
        assert!(
            entry.get("samples").and_then(Value::as_f64).is_some_and(|s| s >= 1.0),
            "{name}: samples missing or < 1"
        );
    }
    assert!(
        missing.is_empty(),
        "experiments missing from BENCH_summary.json (re-run their bins): {missing:?}"
    );

    // E9's headline throughput metric rides in the same entry.
    let sps = exps
        .get("e9_batch")
        .and_then(|e| e.get("scenarios_per_sec"))
        .and_then(Value::as_f64);
    assert!(
        sps.is_some_and(|v| v > 0.0),
        "e9_batch must record a positive scenarios_per_sec, got {sps:?}"
    );

    // E14's headline metrics: screening throughput plus the warm/cold
    // iteration medians of the paired contingency sample.
    let e14 = exps.get("e14_contingency").expect("checked above");
    for key in ["contingencies_per_sec", "warm_median_iters", "cold_median_iters"] {
        let v = e14.get(key).and_then(Value::as_f64);
        assert!(v.is_some_and(|v| v > 0.0), "e14_contingency: {key} missing, got {v:?}");
    }
    let (warm, cold) = (
        e14.get("warm_median_iters").and_then(Value::as_f64).unwrap(),
        e14.get("cold_median_iters").and_then(Value::as_f64).unwrap(),
    );
    assert!(
        warm <= cold,
        "warm median iterations ({warm}) must not exceed cold ({cold})"
    );

    // E15's headline metrics: fleet throughput and the scaling factor
    // behind the near-linear-scaling claim.
    let e15 = exps.get("e15_fleet").expect("checked above");
    let rps = e15.get("fleet.requests_per_sec").and_then(Value::as_f64);
    assert!(
        rps.is_some_and(|v| v > 0.0),
        "e15_fleet must record a positive fleet.requests_per_sec, got {rps:?}"
    );
    let scaling = e15.get("scaling_4v1").and_then(Value::as_f64);
    assert!(
        scaling.is_some_and(|v| v >= 3.0),
        "e15_fleet: 4-device scaling must be ≥3x, got {scaling:?}"
    );

    // E16's headline metrics: storm-phase throughput and the CRC net's
    // detection count (every one of which was caught, none silent).
    let e16 = exps.get("e16_soak").expect("checked above");
    let soak_rps = e16.get("soak.requests_per_sec").and_then(Value::as_f64);
    assert!(
        soak_rps.is_some_and(|v| v > 0.0),
        "e16_soak must record a positive soak.requests_per_sec, got {soak_rps:?}"
    );
    let det = e16.get("soak.detected_corruptions").and_then(Value::as_f64);
    assert!(
        det.is_some_and(|v| v >= 0.0),
        "e16_soak must record soak.detected_corruptions, got {det:?}"
    );

    // E17's headline metrics: the batched-DG-sweep acceptance factor
    // (≥10× serial outer-loop re-solves), its throughput, and the flat
    // outer-iteration count behind the meshed/DG cost claim.
    let e17 = exps.get("e17_mesh").expect("checked above");
    let dg_speedup = e17.get("dg_batch_speedup").and_then(Value::as_f64);
    assert!(
        dg_speedup.is_some_and(|v| v >= 10.0),
        "e17_mesh: batched DG sweep must record ≥10x over serial, got {dg_speedup:?}"
    );
    let dg_sps = e17.get("dg_scenarios_per_sec").and_then(Value::as_f64);
    assert!(
        dg_sps.is_some_and(|v| v > 0.0),
        "e17_mesh must record a positive dg_scenarios_per_sec, got {dg_sps:?}"
    );
    let outer = e17.get("outer_iters_headline").and_then(Value::as_f64);
    assert!(
        outer.is_some_and(|v| (1.0..=40.0).contains(&v)),
        "e17_mesh: outer_iters_headline must be a sane outer count, got {outer:?}"
    );
}
