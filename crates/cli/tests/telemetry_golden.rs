//! Golden-output integration tests for the telemetry exporters: the
//! Chrome trace written for a fixed-seed feeder must be byte-identical
//! across runs (all timestamps are modeled, never wall-clock), the run
//! summary's per-phase gauges must reconcile with the solver's own
//! phase report, and the Prometheus exposition must be well-formed.

use std::fs;
use std::path::PathBuf;

use fbs_cli::commands;
use telemetry::json::{self, Value};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fbs-cli-telemetry-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Result<u8, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    commands::run(&argv)
}

/// Generate the golden fixed-seed 1K binary tree and return its path.
fn golden_grid(name: &str) -> PathBuf {
    let grid = tmp(name);
    run(&[
        "gen",
        "--topology",
        "binary",
        "--buses",
        "1023",
        "--seed",
        "42",
        "--out",
        grid.to_str().unwrap(),
    ])
    .expect("gen must succeed");
    grid
}

fn gauge(summary: &Value, name: &str) -> f64 {
    summary
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("summary must carry gauge {name}"))
}

#[test]
fn golden_trace_is_byte_identical_across_runs() {
    let grid = golden_grid("golden.grid");
    let grid_s = grid.to_str().unwrap();

    let (t1, t2) = (tmp("golden-1.trace.json"), tmp("golden-2.trace.json"));
    let (m1, m2) = (tmp("golden-1.summary.json"), tmp("golden-2.summary.json"));
    for (t, m) in [(&t1, &m1), (&t2, &m2)] {
        let code = run(&[
            "profile",
            grid_s,
            "--trace-out",
            t.to_str().unwrap(),
            "--metrics-out",
            m.to_str().unwrap(),
        ])
        .expect("profile must succeed");
        assert_eq!(code, 0, "profile exits 0 on the golden tree");
    }

    let trace_a = fs::read(&t1).expect("first trace written");
    let trace_b = fs::read(&t2).expect("second trace written");
    assert!(!trace_a.is_empty(), "trace must not be empty");
    assert_eq!(trace_a, trace_b, "fixed-seed traces must be byte-identical");

    let sum_a = fs::read(&m1).expect("first summary written");
    let sum_b = fs::read(&m2).expect("second summary written");
    assert_eq!(sum_a, sum_b, "fixed-seed run summaries must be byte-identical");

    for p in [&grid, &t1, &t2, &m1, &m2] {
        let _ = fs::remove_file(p);
    }
}

#[test]
fn trace_export_is_valid_chrome_trace_json() {
    let grid = golden_grid("trace-shape.grid");
    let trace_path = tmp("trace-shape.trace.json");
    run(&["profile", grid.to_str().unwrap(), "--trace-out", trace_path.to_str().unwrap()])
        .expect("profile must succeed");

    let text = fs::read_to_string(&trace_path).expect("trace written");
    let doc = json::parse(&text).expect("trace must parse as JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("trace must carry a traceEvents array");
    assert!(!events.is_empty(), "trace must carry events");

    let mut spans = 0usize;
    let mut kernel_spans = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("every event has ph");
        assert!(matches!(ph, "X" | "i" | "C" | "M"), "unexpected phase {ph}");
        if ph == "X" {
            spans += 1;
            let dur = ev.get("dur").and_then(Value::as_f64).expect("X events carry dur");
            assert!(dur >= 0.0, "span durations are non-negative");
            if ev.get("cat").and_then(Value::as_str) == Some("kernel") {
                kernel_spans += 1;
            }
        }
    }
    assert!(spans > 0, "trace must carry complete (X) spans");
    assert!(kernel_spans > 0, "device bridge must export kernel spans");

    let _ = fs::remove_file(&grid);
    let _ = fs::remove_file(&trace_path);
}

#[test]
fn run_summary_phases_reconcile_with_timing_report() {
    let grid = golden_grid("reconcile.grid");
    let summary_path = tmp("reconcile.summary.json");
    run(&["profile", grid.to_str().unwrap(), "--metrics-out", summary_path.to_str().unwrap()])
        .expect("profile must succeed");

    let text = fs::read_to_string(&summary_path).expect("summary written");
    let doc = json::parse(&text).expect("summary must parse as JSON");

    // The per-phase gauges must sum to the total the solver reported.
    let parts = ["setup", "injection", "backward", "forward", "convergence", "teardown"]
        .iter()
        .map(|p| gauge(&doc, &format!("phase.{p}_us")))
        .sum::<f64>();
    let total = gauge(&doc, "phase.total_us");
    assert!(total > 0.0, "modeled total must be positive");
    assert!(
        (parts - total).abs() <= 1e-6 * total.max(1.0),
        "phase gauges ({parts}) must reconcile with phase.total_us ({total})"
    );

    // The device-track spans the Timeline bridge exported must account
    // for the same modeled interval: kernels + transfers cover the run.
    let spans = doc.get("spans").and_then(Value::as_obj).expect("summary carries span rollups");
    let cat_total = |cat: &str| {
        spans
            .get(cat)
            .and_then(|c| c.get("total_us"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let device_us = cat_total("kernel") + cat_total("xfer");
    assert!(device_us > 0.0, "device bridge must export kernel/xfer time");
    assert!(
        (device_us - total).abs() <= 0.05 * total,
        "device span time ({device_us}) must track the modeled total ({total})"
    );

    assert_eq!(
        doc.get("counters").and_then(|c| c.get("solve.runs")).and_then(Value::as_f64),
        Some(1.0),
        "one profile run records one solve"
    );

    let _ = fs::remove_file(&grid);
    let _ = fs::remove_file(&summary_path);
}

#[test]
fn prometheus_export_is_well_formed() {
    let grid = golden_grid("prom.grid");
    let prom_path = tmp("prom.metrics.prom");
    run(&["solve", grid.to_str().unwrap(), "--metrics-out", prom_path.to_str().unwrap()])
        .expect("solve must succeed");

    let text = fs::read_to_string(&prom_path).expect("exposition written");
    assert!(text.ends_with('\n'), "exposition ends with a newline");
    assert!(text.contains("# TYPE solve_runs counter"), "counters carry TYPE lines");
    assert!(text.contains("\nsolve_runs 1\n"), "one solve run recorded");
    assert!(text.contains("# TYPE phase_total_us gauge"), "gauges carry TYPE lines");
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let (name, value) = line.split_once(' ').expect("sample lines are `name value`");
        // Histogram buckets carry a `{le="..."}` label; the bare name
        // before it must still be sanitized.
        let bare = name.split('{').next().unwrap_or(name);
        assert!(
            bare.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name {bare} must be sanitized"
        );
        assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "value {value} must be numeric");
    }

    let _ = fs::remove_file(&grid);
    let _ = fs::remove_file(&prom_path);
}

#[test]
fn batch_writes_trace_and_summary() {
    let grid = golden_grid("batch.grid");
    let trace_path = tmp("batch.trace.json");
    let summary_path = tmp("batch.summary.json");
    let code = run(&[
        "batch",
        grid.to_str().unwrap(),
        "--scenarios",
        "4",
        "--trace-out",
        trace_path.to_str().unwrap(),
        "--metrics-out",
        summary_path.to_str().unwrap(),
    ])
    .expect("batch must succeed");
    assert_eq!(code, 0, "batch of benign scenarios converges");

    let doc = json::parse(&fs::read_to_string(&trace_path).expect("trace written"))
        .expect("batch trace parses");
    assert!(
        doc.get("traceEvents").and_then(Value::as_arr).is_some_and(|e| !e.is_empty()),
        "batch trace carries events"
    );
    let doc = json::parse(&fs::read_to_string(&summary_path).expect("summary written"))
        .expect("batch summary parses");
    assert_eq!(
        doc.get("counters").and_then(|c| c.get("solve.status.converged")).and_then(Value::as_f64),
        Some(1.0),
        "batch records its worst status"
    );

    let _ = fs::remove_file(&grid);
    let _ = fs::remove_file(&trace_path);
    let _ = fs::remove_file(&summary_path);
}

#[test]
fn mesh_solve_records_outer_telemetry() {
    let grid = tmp("mesh-golden.grid");
    let grid_s = grid.to_str().unwrap();
    run(&["feeders", "--name", "ieee123-dg", "--out", grid_s]).expect("feeders must succeed");

    // The plain GPU outer loop and the same loop under the fault-tolerant
    // supervisor must record the same outer telemetry.
    let plain: &[&str] = &[];
    let faulted: &[&str] = &["--fault-seed", "5", "--fault-rate", "0.02"];
    for (extra, status_key) in
        [(plain, "solve.status.converged"), (faulted, "solve.status.recovered")]
    {
        let (t1, t2) = (tmp("mesh-1.trace.json"), tmp("mesh-2.trace.json"));
        let (m1, m2) = (tmp("mesh-1.summary.json"), tmp("mesh-2.summary.json"));
        for (t, m) in [(&t1, &m1), (&t2, &m2)] {
            let mut args = vec![
                "solve",
                grid_s,
                "--solver",
                "gpu",
                "--trace-out",
                t.to_str().unwrap(),
                "--metrics-out",
                m.to_str().unwrap(),
            ];
            args.extend_from_slice(extra);
            let code = run(&args).expect("meshed solve must succeed");
            assert_eq!(code, 0, "instrumented meshed solve {extra:?} exits 0");
        }
        assert_eq!(
            fs::read(&t1).expect("first trace"),
            fs::read(&t2).expect("second trace"),
            "fixed-topology meshed traces must be byte-identical ({extra:?})"
        );
        assert_eq!(
            fs::read(&m1).expect("first summary"),
            fs::read(&m2).expect("second summary"),
            "fixed-topology meshed summaries must be byte-identical ({extra:?})"
        );

        let doc = json::parse(&fs::read_to_string(&m1).unwrap()).expect("summary parses");

        // The mesh.* run-summary gauges: topology counts are exact, the
        // outer loop ran, and the final mismatches met the outer tolerance.
        assert_eq!(gauge(&doc, "mesh.loops"), 2.0, "ieee123-dg carries two closed ties");
        assert_eq!(gauge(&doc, "mesh.gens"), 3.0, "ieee123-dg carries three generators");
        assert!(gauge(&doc, "mesh.outer_iterations") >= 2.0, "compensation needs outer iterations");
        assert!(gauge(&doc, "mesh.breakpoint_residual") < 1e-2, "break points must have settled");
        assert!(gauge(&doc, "mesh.pv_error") < 1e-2, "PV set-points must have settled");

        // The outer loop's per-iteration residual track lands in the trace
        // as counter events and the iteration count in the histogram block.
        let trace = fs::read_to_string(&t1).unwrap();
        assert!(trace.contains("mesh.breakpoint_residual"), "trace carries the residual track");
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("solver.outer_iterations"))
            .unwrap_or_else(|| panic!("summary lacks the outer-iterations histogram ({extra:?})"));
        assert!(
            hist.get("count").and_then(Value::as_f64) == Some(1.0),
            "one meshed solve observes one outer-iteration count: {hist:?}"
        );

        assert_eq!(
            doc.get("counters").and_then(|c| c.get(status_key)).and_then(Value::as_f64),
            Some(1.0),
            "the {status_key} counter carries the overall mesh status"
        );

        for p in [&t1, &t2, &m1, &m2] {
            let _ = fs::remove_file(p);
        }
    }
    let _ = fs::remove_file(&grid);
}
