//! Integration tests of the CLI command layer (gen → info → solve →
//! compare pipelines on temporary files).

use std::fs;
use std::path::PathBuf;

use fbs::{Backend, ResilientSolver, SolverArrays, SolverConfig};
use fbs_cli::commands;
use powergrid::gridfile::parse_grid;
use simt::{DeviceProps, FaultPlan, HostProps};

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fbs-cli-test-{}-{name}", std::process::id()));
    p
}

fn run(args: &[&str]) -> Result<u8, String> {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    commands::run(&argv)
}

#[test]
fn gen_info_solve_compare_pipeline() {
    let path = tmp("pipeline.grid");
    let path_s = path.to_str().unwrap();

    run(&["gen", "--topology", "binary", "--buses", "255", "--seed", "3", "--out", path_s])
        .expect("gen must succeed");
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("# radial distribution network"));
    assert!(text.contains("grid 1"));

    run(&["info", path_s]).expect("info must succeed");
    for solver in ["serial", "multicore", "gpu", "gpu-direct", "gpu-atomic", "gpu-jump"] {
        let code = run(&["solve", path_s, "--solver", solver, "--show-voltages", "3"])
            .unwrap_or_else(|e| panic!("solve with {solver} failed: {e}"));
        assert_eq!(code, 0, "healthy solve with {solver} must exit 0");
    }
    run(&["compare", path_s]).expect("compare must succeed");
    let _ = fs::remove_file(&path);
}

#[test]
fn feeders_are_exportable_and_solvable() {
    for name in ["ieee13", "ieee37", "ieee123"] {
        let path = tmp(&format!("{name}.grid"));
        let path_s = path.to_str().unwrap();
        run(&["feeders", "--name", name, "--out", path_s]).expect("feeders must succeed");
        run(&["solve", path_s, "--solver", "gpu", "--timings", "false"])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = fs::remove_file(&path);
    }
}

#[test]
fn screen_runs_every_n_minus_1_outage() {
    let path = tmp("screen.grid");
    let path_s = path.to_str().unwrap();
    run(&["feeders", "--name", "ieee37", "--out", path_s]).expect("feeders must succeed");
    // Warm (default), cold, and a voltage floor; the feeder survives
    // every single outage, so all three exit 0.
    assert_eq!(run(&["screen", path_s]).expect("warm screen"), 0);
    assert_eq!(run(&["screen", path_s, "--warm", "false"]).expect("cold screen"), 0);
    assert_eq!(run(&["screen", path_s, "--v-floor", "0.95"]).expect("floored screen"), 0);
    assert!(run(&["screen"]).is_err(), "missing positional");

    // The metrics sink carries the screen-level counters.
    let metrics = tmp("screen-metrics.json");
    let metrics_s = metrics.to_str().unwrap();
    assert_eq!(
        run(&["screen", path_s, "--metrics-out", metrics_s]).expect("screen with metrics"),
        0
    );
    let text = fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("screen.contingencies"), "{text}");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&metrics);
}

#[test]
fn fleet_replays_a_chaotic_stream_and_exports_fleet_metrics() {
    let path = tmp("fleet.grid");
    let path_s = path.to_str().unwrap();
    run(&["feeders", "--name", "ieee13", "--out", path_s]).expect("feeders must succeed");

    // A healthy run, then a chaos run with one device scripted dead,
    // sharded batches and a tight queue; both must exit 0 (the fleet
    // answers or sheds explicitly, it never errors out).
    assert_eq!(run(&["fleet", path_s, "--devices", "2", "--requests", "12"]).unwrap(), 0);
    let metrics = tmp("fleet-metrics.json");
    let metrics_s = metrics.to_str().unwrap();
    assert_eq!(
        run(&[
            "fleet", path_s, "--devices", "3", "--requests", "18", "--gap", "80",
            "--kill-device", "1", "--batch-every", "6", "--scenarios", "96",
            "--shard-min", "16", "--queue", "4", "--metrics-out", metrics_s,
        ])
        .expect("chaos fleet run"),
        0
    );
    let text = fs::read_to_string(&metrics).unwrap();
    for key in [
        "fleet.stats.submitted",
        "fleet.stats.failovers",
        "fleet.requests_per_sec",
        "fleet.d0.stats.served",
        "fleet.d1.stats.breaker_opens",
    ] {
        assert!(text.contains(key), "run summary must carry {key}: {text}");
    }

    // Bad shapes are reported, not panicked.
    assert!(run(&["fleet", path_s, "--devices", "0"]).is_err(), "zero devices");
    assert!(run(&["fleet", path_s, "--kill-device", "7"]).is_err(), "kill out of range");
    assert!(run(&["fleet"]).is_err(), "missing positional");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&metrics);
}

#[test]
fn soak_runs_a_storm_with_integrity_guards_and_exits_clean() {
    let path = tmp("soak.grid");
    let path_s = path.to_str().unwrap();
    run(&["feeders", "--name", "ieee37", "--out", path_s]).expect("feeders must succeed");

    // A storm soak with the correlated kill and shadow sampling on
    // every answer: the integrity nets must catch everything, so the
    // verdict is clean and the exit code 0 (code 8 would mean an
    // undetected corruption reached an answer).
    let metrics = tmp("soak-metrics.json");
    let metrics_s = metrics.to_str().unwrap();
    assert_eq!(
        run(&[
            "soak", path_s, "--requests", "16", "--tol", "1e-12", "--sample-every", "1",
            "--metrics-out", metrics_s,
        ])
        .expect("storm soak run"),
        0
    );
    let text = fs::read_to_string(&metrics).unwrap();
    for key in [
        "soak.requests_per_sec",
        "soak.detected_corruptions",
        "soak.shadow_mismatches",
        "integrity.sampled",
        "integrity.mismatches",
    ] {
        assert!(text.contains(key), "run summary must carry {key}: {text}");
    }

    // Bad shapes are reported, not panicked.
    assert!(run(&["soak", path_s, "--devices", "0"]).is_err(), "zero devices");
    assert!(run(&["soak", path_s, "--burst-rate", "1.5"]).is_err(), "rate not a probability");
    assert!(run(&["soak", path_s, "--sample-every", "0"]).is_err(), "zero sampling cadence");
    assert!(run(&["soak"]).is_err(), "missing positional");
    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&metrics);
}

/// `ci.sh`'s storm soak, flag for flag: the storm's burst, ramp and kill
/// sit at fixed device-op indices, so a change in per-solve op counts can
/// move them past the end of the run. The kill must still land: at least
/// one failover on the `served:` line.
#[test]
fn ci_storm_soak_still_fails_over() {
    use std::process::Command;

    let path = tmp("ci-soak.grid");
    let path_s = path.to_str().unwrap();
    run(&["feeders", "--name", "ieee37", "--out", path_s]).expect("feeders must succeed");
    let out = Command::new(env!("CARGO_BIN_EXE_fbs"))
        .args(["soak", path_s, "--requests", "24", "--tol", "1e-12", "--seed", "7"])
        .env_remove("FBS_FAULT_SEED")
        .output()
        .expect("spawn fbs binary");
    let _ = fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(0), "soak exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let served = stdout.lines().find(|l| l.starts_with("served:")).expect("a served: line");
    let failovers: u32 = served
        .split(", ")
        .find_map(|part| part.strip_suffix(" failovers"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no failover count in {served:?}"));
    assert!(failovers >= 1, "the storm's kill never landed: {served}");
}

#[test]
fn size_suffixes_accepted_in_gen() {
    let path = tmp("suffix.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "star", "--buses", "1k", "--out", path_s]).unwrap();
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("(1024 buses)"));
    let _ = fs::remove_file(&path);
}

#[test]
fn errors_are_reported_not_panicked() {
    assert!(run(&[]).is_err(), "missing subcommand");
    assert!(run(&["frobnicate"]).is_err(), "unknown subcommand");
    assert!(run(&["gen", "--topology", "klein-bottle"]).is_err(), "unknown topology");
    assert!(run(&["solve", "/nonexistent/file.grid"]).is_err(), "missing file");
    assert!(run(&["solve"]).is_err(), "missing positional");
    assert!(run(&["feeders", "--name", "ieee9000"]).is_err(), "unknown feeder");

    // Malformed grid content surfaces a parse error with the path.
    let path = tmp("bad.grid");
    fs::write(&path, "this is not a grid file").unwrap();
    let err = run(&["solve", path.to_str().unwrap()]).unwrap_err();
    assert!(err.contains("bad.grid"), "{err}");
    let _ = fs::remove_file(&path);
}

#[test]
fn profile_reports_kernels() {
    let path = tmp("profile.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "511", "--out", path_s]).unwrap();
    for solver in ["gpu", "gpu-jump", "gpu-atomic"] {
        run(&["profile", path_s, "--solver", solver])
            .unwrap_or_else(|e| panic!("profile {solver}: {e}"));
    }
    assert!(run(&["profile", path_s, "--solver", "serial"]).is_err(), "profile needs a device solver");
    let _ = fs::remove_file(&path);
}

#[test]
fn three_phase_pipeline() {
    let p1 = tmp("tp.grid");
    let p3 = tmp("tp.grid3");
    let (s1, s3) = (p1.to_str().unwrap(), p3.to_str().unwrap());

    // Published unbalanced feeder → solve3 with both solvers.
    run(&["feeders3", "--name", "ieee13", "--out", s3]).unwrap();
    run(&["solve3", s3, "--solver", "serial"]).unwrap();
    run(&["solve3", s3, "--solver", "gpu"]).unwrap();

    // Expansion path: single-phase gen → gen3 → solve3.
    run(&["gen", "--topology", "binary", "--buses", "127", "--out", s1]).unwrap();
    run(&["gen3", s1, "--unbalance", "0.4", "--out", s3]).unwrap();
    run(&["solve3", s3, "--solver", "gpu"]).unwrap();

    assert!(run(&["solve3", s3, "--solver", "gpu-jump"]).is_err(), "3φ has serial/gpu only");
    let _ = fs::remove_file(&p1);
    let _ = fs::remove_file(&p3);
}

#[test]
fn supervised_solve3_bridges_its_device_into_the_trace() {
    let (p3, trace) = (tmp("replay.grid3"), tmp("replay3.trace.json"));
    let (s3, trace_s) = (p3.to_str().unwrap(), trace.to_str().unwrap());
    run(&["feeders3", "--name", "ieee13", "--out", s3]).unwrap();
    let code = run(&[
        "solve3", s3, "--solver", "gpu", "--fault-seed", "7", "--fault-rate", "0.005",
        "--trace-out", trace_s,
    ])
    .expect("seeded 3φ fault replay");
    assert_eq!(code, 0, "a recoverable 3φ fault replay exits 0");
    let text = fs::read_to_string(&trace).expect("trace written");
    for kernel in ["fbs_inject", "fbs_backward_combine", "fbs_forward"] {
        assert!(text.contains(&format!("\"{kernel}\"")), "trace lacks {kernel} kernel spans");
    }
    let _ = fs::remove_file(&p3);
    let _ = fs::remove_file(&trace);
}

#[test]
fn solve_exit_codes_reflect_status() {
    use numc::{c, Complex};
    use powergrid::gridfile::write_grid;
    use powergrid::NetworkBuilder;

    // Crafted collapse: V₀ = 100 V, Z = 10 Ω, S = 1000 VA drives the
    // load bus to exactly 0 V, so iteration 2 divides by zero.
    let mut b = NetworkBuilder::new(c(100.0, 0.0));
    b.add_bus(Complex::ZERO);
    b.add_bus(c(1000.0, 0.0));
    b.connect(0, 1, c(10.0, 0.0));
    let net = b.build().unwrap();

    let path = tmp("collapse.grid");
    let path_s = path.to_str().unwrap();
    fs::write(&path, write_grid(&net)).unwrap();

    for solver in ["serial", "multicore", "gpu", "gpu-direct", "gpu-atomic", "gpu-jump"] {
        let code = run(&["solve", path_s, "--solver", solver, "--timings", "false"])
            .unwrap_or_else(|e| panic!("solve with {solver} errored instead of exiting: {e}"));
        assert_eq!(code, 4, "{solver}: voltage collapse must exit with the numerical-failure code");
    }

    // An honest non-convergence (tight tolerance, starved iteration
    // budget) is a distinct exit code from divergence and from usage
    // errors.
    let healthy = tmp("starved.grid");
    let healthy_s = healthy.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "127", "--out", healthy_s]).unwrap();
    let code = run(&["solve", healthy_s, "--tol", "1e-14", "--max-iter", "2"]).unwrap();
    assert_eq!(code, 2, "starved iteration budget must exit with the max-iterations code");

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&healthy);
}

#[test]
fn help_is_available() {
    run(&["help"]).unwrap();
    run(&["--help"]).unwrap();
}

#[test]
fn solve_honors_tolerance_flag() {
    let path = tmp("tol.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "127", "--out", path_s]).unwrap();
    run(&["solve", path_s, "--tol", "1e-10"]).unwrap();
    assert!(run(&["solve", path_s, "--tol", "not-a-number"]).is_err());
    let _ = fs::remove_file(&path);
}

#[test]
fn forced_device_loss_without_degradation_exits_5() {
    let path = tmp("lost.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "255", "--seed", "7", "--out", path_s])
        .unwrap();

    // Script the loss half-way through the device ops a clean supervised
    // solve of this grid issues, whichever route it takes.
    let net = parse_grid(&fs::read_to_string(&path).unwrap()).unwrap();
    let clean = FaultPlan::seeded(0, 0.0);
    ResilientSolver::new(Backend::Gpu, DeviceProps::paper_rig(), HostProps::paper_rig())
        .with_fault_plan(clean.clone())
        .solve(&SolverArrays::new(&net), &SolverConfig::default())
        .expect("a clean plan cannot fail the solve");
    let lost_at = (clean.ops_started() / 2).to_string();

    let code = run(&[
        "solve", path_s, "--solver", "gpu", "--fault-lost-at", &lost_at, "--degrade", "false",
    ])
    .expect("device loss is a reported exit code, not a usage error");
    assert_eq!(code, 5, "unrecoverable device loss must exit 5");

    // With degradation enabled the same loss still produces an answer.
    let code = run(&["solve", path_s, "--solver", "gpu", "--fault-lost-at", &lost_at]).unwrap();
    assert_eq!(code, 0, "degraded solve must still converge");

    // solve3 reports unrecoverable runs the same way: script the loss
    // to re-fire at the start of every attempt so retries cannot win.
    let p3 = tmp("lost.grid3");
    let s3 = p3.to_str().unwrap();
    run(&["feeders3", "--name", "ieee13", "--out", s3]).unwrap();
    let code = run(&[
        "solve3", s3, "--solver", "gpu", "--fault-rate", "1", "--degrade", "false",
    ])
    .expect("exhausted 3φ retries are a reported exit code");
    assert_eq!(code, 5, "3φ budget exhaustion without degradation must exit 5");

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&p3);
}

#[test]
fn deadline_and_invalid_config_exit_codes() {
    let path = tmp("deadline.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "1023", "--out", path_s]).unwrap();

    // A microscopic modeled budget cuts the solve after its first
    // iteration: partial state, exit code 6.
    for solver in ["serial", "gpu", "gpu-jump"] {
        let code = run(&[
            "solve", path_s, "--solver", solver, "--deadline-ms", "1e-6", "--timings", "false",
        ])
        .unwrap_or_else(|e| panic!("{solver}: deadline run errored: {e}"));
        assert_eq!(code, 6, "{solver}: deadline-cut solve must exit 6");
    }

    // A generous budget changes nothing.
    let code = run(&["solve", path_s, "--deadline-ms", "1e9", "--timings", "false"]).unwrap();
    assert_eq!(code, 0, "a generous deadline must not fire");

    // --max-iter 0 is a structured config error, never a panic: exit 7.
    let code = run(&["solve", path_s, "--max-iter", "0", "--timings", "false"]).unwrap();
    assert_eq!(code, 7, "max-iter 0 must exit with the invalid-config code");
    let code = run(&["solve", path_s, "--deadline-ms", "-5", "--timings", "false"]).unwrap();
    assert_eq!(code, 7, "negative deadline must exit with the invalid-config code");

    let _ = fs::remove_file(&path);
}

#[test]
fn service_flags_route_through_the_robustness_layer() {
    let path = tmp("svc.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "255", "--out", path_s]).unwrap();

    // A clean run through the service answers normally.
    let code = run(&[
        "solve", path_s, "--solver", "gpu", "--max-retries", "2", "--timings", "false",
    ])
    .expect("service solve must not be a usage error");
    assert_eq!(code, 0, "clean service solve must exit 0");

    // Under saturating fault pressure the breaker opens and the CPU
    // fallback still produces a converged answer.
    let code = run(&[
        "solve", path_s, "--solver", "gpu", "--breaker-threshold", "1", "--max-retries", "0",
        "--fault-rate", "1", "--timings", "false",
    ])
    .unwrap();
    assert_eq!(code, 0, "service fallback must still converge");

    // solve3 runs device-first under the service; serial is rejected.
    let p3 = tmp("svc.grid3");
    let s3 = p3.to_str().unwrap();
    run(&["feeders3", "--name", "ieee13", "--out", s3]).unwrap();
    let code = run(&["solve3", s3, "--solver", "gpu", "--max-retries", "1"]).unwrap();
    assert_eq!(code, 0, "three-phase service solve must exit 0");
    assert!(
        run(&["solve3", s3, "--solver", "serial", "--max-retries", "1"]).is_err(),
        "service flags require the device solver for solve3"
    );

    let _ = fs::remove_file(&path);
    let _ = fs::remove_file(&p3);
}

#[test]
fn seeded_fault_runs_are_byte_identical() {
    use std::process::Command;

    let path = tmp("replay.grid");
    let path_s = path.to_str().unwrap();
    run(&["gen", "--topology", "binary", "--buses", "255", "--seed", "7", "--out", path_s])
        .unwrap();

    let exe = env!("CARGO_BIN_EXE_fbs");
    let solve = |env: Option<(&str, &str)>, args: &[&str]| {
        let mut cmd = Command::new(exe);
        cmd.args(args).env_remove("FBS_FAULT_SEED");
        if let Some((k, v)) = env {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("spawn fbs binary");
        (out.status.code(), String::from_utf8(out.stdout).expect("utf-8 stdout"))
    };

    let args =
        ["solve", path_s, "--solver", "gpu-atomic", "--fault-seed", "99", "--fault-rate", "0.01"];
    let (c1, out1) = solve(None, &args);
    let (c2, out2) = solve(None, &args);
    assert_eq!(out1, out2, "same seed must replay to byte-identical stdout");
    assert_eq!(c1, c2);
    assert!(out1.contains("recovery:    seed 99"), "fault summary missing:\n{out1}");

    // FBS_FAULT_SEED overrides --fault-seed, reproducing the seed-99 run
    // from a command line that says seed 1.
    let (c3, out3) = solve(
        Some(("FBS_FAULT_SEED", "99")),
        &["solve", path_s, "--solver", "gpu-atomic", "--fault-seed", "1", "--fault-rate", "0.01"],
    );
    assert_eq!(out3, out1, "env-overridden seed must replay the --fault-seed run");
    assert_eq!(c3, c1);

    let _ = fs::remove_file(&path);
}

/// The converged IEEE-13 three-phase detail lines every `solve3` golden
/// below ends with (before its modeled-time line).
const IEEE13_3PHASE_BODY: &str = "\
worst phase: 2121.1 V (0.8832 pu) at bus 12
unbalance:   5.08% max at bus 12
load/phase:  a 1175.0 kW | b 1039.0 kW | c 1252.0 kW
";

#[test]
fn solve3_stdout_matches_its_golden() {
    use std::process::Command;

    let p3 = tmp("golden.grid3");
    let s3 = p3.to_str().unwrap();
    run(&["feeders3", "--name", "ieee13", "--out", s3]).unwrap();
    let converged = "status:      converged in 8 iterations (residual 4.880e-4 V)\n";
    let cases: [(&[&str], String); 4] = [
        (
            &["--solver", "serial"],
            format!("solver:      serial (three-phase)\n{converged}{IEEE13_3PHASE_BODY}modeled:     total 2.0 µs\n"),
        ),
        (
            &["--solver", "gpu"],
            format!("solver:      gpu (three-phase)\n{converged}{IEEE13_3PHASE_BODY}modeled:     total 721.1 µs\n"),
        ),
        (
            &["--solver", "gpu", "--fault-seed", "7", "--fault-rate", "0.005"],
            format!(
                "solver:      gpu (three-phase)\n{converged}recovery:    seed 7 rate 0.005 | 0 faults, \
                 0 rollbacks, 0 retries, 1 checkpoints | backend gpu\n{IEEE13_3PHASE_BODY}\
                 modeled:     total 928.7 µs\n"
            ),
        ),
        (
            &["--solver", "gpu", "--max-retries", "1"],
            format!(
                "service:     backend gpu | 0 retries, 0 µs backoff | breaker closed\n\
                 solver:      gpu (three-phase)\n{converged}{IEEE13_3PHASE_BODY}\
                 modeled:     total 920.6 µs\n"
            ),
        ),
    ];
    for (flags, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_fbs"))
            .args(["solve3", s3])
            .args(flags)
            .env_remove("FBS_FAULT_SEED")
            .output()
            .expect("spawn fbs binary");
        assert_eq!(out.status.code(), Some(0), "solve3 {flags:?}");
        assert_eq!(String::from_utf8(out.stdout).expect("utf-8 stdout"), want, "solve3 {flags:?}");
    }
    let _ = fs::remove_file(&p3);
}

#[test]
fn meshed_dg_feeder_solves_on_every_backend() {
    let path = tmp("ieee123-dg.grid");
    let path_s = path.to_str().unwrap();
    run(&["feeders", "--name", "ieee123-dg", "--out", path_s]).expect("feeders must succeed");
    let text = fs::read_to_string(&path).unwrap();
    assert!(text.contains("\ntie "), "meshed export must carry tie records:\n{text}");
    assert!(text.contains("\ngen "), "meshed export must carry gen records:\n{text}");

    for solver in ["serial", "multicore", "gpu", "gpu-direct", "gpu-atomic"] {
        let code = run(&["solve", path_s, "--solver", solver, "--timings", "false"])
            .unwrap_or_else(|e| panic!("meshed solve with {solver} failed: {e}"));
        assert_eq!(code, 0, "meshed solve with {solver} must exit 0");
    }
    // The jump solver has no mesh outer loop: a clear usage error, not
    // a panic or a silently-radial answer — with or without a fault plan.
    assert!(run(&["solve", path_s, "--solver", "gpu-jump"]).is_err());
    assert!(run(&["solve", path_s, "--solver", "gpu-jump", "--fault-seed", "11"]).is_err());
    // Service flags don't compose with the outer loop.
    assert!(run(&["solve", path_s, "--max-retries", "2"]).is_err());

    // The resilient path recovers injected faults and still exits 0.
    let code = run(&[
        "solve", path_s, "--solver", "gpu", "--fault-seed", "11", "--fault-rate", "0.005",
        "--timings", "false",
    ])
    .expect("resilient meshed solve");
    assert_eq!(code, 0, "recovered meshed solve must exit 0");

    // Radial commands reject meshed files with a line-numbered error
    // instead of quietly dropping the ties.
    let err = run(&["batch", path_s]).unwrap_err();
    assert!(err.contains("tie"), "{err}");

    let _ = fs::remove_file(&path);
}

/// Three generators behind one high-reactance trunk over-correct
/// collectively (each applies the full shared-trunk correction), so the
/// PV mismatch grows until the outer loop declares divergence: the
/// deterministic exit-9 case.
const PV_FIGHT_GRID: &str = "\
grid 1
source 2400 0
bus 0 0 0
bus 1 10000 3000
bus 2 5000 1000
bus 3 5000 1000
bus 4 5000 1000
branch 0 1 0.1 5.0
branch 1 2 0.01 0.01
branch 1 3 0.01 0.01
branch 1 4 0.01 0.01
gen 2 5000 2395 -1000000000 1000000000
gen 3 5000 2395 -1000000000 1000000000
gen 4 5000 2395 -1000000000 1000000000
";

#[test]
fn outer_divergence_exits_with_code_9() {
    let path = tmp("pv-fight.grid");
    let path_s = path.to_str().unwrap();
    fs::write(&path, PV_FIGHT_GRID).unwrap();

    let code = run(&["solve", path_s, "--timings", "false"]).expect("solve must not error");
    assert_eq!(code, 9, "outer divergence must exit 9");

    // Capping the outer loop before the divergence is detected reports
    // outer-cap exhaustion (exit 2), not divergence.
    let code = run(&["solve", path_s, "--outer-max-iter", "2", "--timings", "false"]).unwrap();
    assert_eq!(code, 2, "outer cap exhaustion must exit 2");

    // Invalid outer knobs surface as InvalidConfig (exit 7), same as
    // the inner solver's config validation.
    let code = run(&["solve", path_s, "--outer-tol", "-1", "--timings", "false"]).unwrap();
    assert_eq!(code, 7, "negative outer tolerance must exit 7");
    let code = run(&["solve", path_s, "--outer-max-iter", "0", "--timings", "false"]).unwrap();
    assert_eq!(code, 7, "zero outer iterations must exit 7");

    let _ = fs::remove_file(&path);
}

#[test]
fn solve3_accepts_dg_grid3_transparently() {
    let path = tmp("dg.grid3");
    let path_s = path.to_str().unwrap();
    run(&["feeders3", "--name", "ieee13", "--out", path_s]).expect("feeders3 must succeed");
    let mut text = fs::read_to_string(&path).unwrap();
    text.push_str("gen 6 20000 2350 -30000 30000\n");
    fs::write(&path, &text).unwrap();

    for solver in ["serial", "gpu"] {
        let code = run(&["solve3", path_s, "--solver", solver])
            .unwrap_or_else(|e| panic!("solve3 DG with {solver} failed: {e}"));
        assert_eq!(code, 0, "DG solve3 with {solver} must exit 0");
    }
    // Fault injection composes with the three-phase PV loop.
    let code = run(&["solve3", path_s, "--solver", "gpu", "--fault-seed", "7", "--fault-rate", "0.005"])
        .expect("resilient DG solve3");
    assert_eq!(code, 0);
    // Service flags don't compose with the PV loop.
    assert!(run(&["solve3", path_s, "--solver", "gpu", "--max-retries", "2"]).is_err());

    // Hostile gen records come back as line-numbered parse errors.
    let mut bad = fs::read_to_string(&path).unwrap();
    bad.push_str("gen 6 1 2350 -1 1\n");
    fs::write(&path, &bad).unwrap();
    let err = run(&["solve3", path_s]).unwrap_err();
    assert!(err.contains("already has a generator") && err.contains("line 30"), "{err}");

    let _ = fs::remove_file(&path);
}
