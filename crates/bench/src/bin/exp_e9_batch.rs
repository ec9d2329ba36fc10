//! E9 (extension) — tensor-batched time-series load flow: modeled cost
//! per scenario versus batch size.
//!
//! The operational workload behind the paper's motivation (distribution
//! system analysis) is time-series: thousands of load scenarios on one
//! topology. The tensor engine fuses all levels of all scenarios into
//! one launch per iteration and keeps the loads on device
//! (`Scenarios::Scaled`), so the per-scenario cost keeps falling with
//! batch size until the sweep itself — not launch overhead or transfers
//! — is the bill. The reference points are the *serial* per-scenario
//! cost and the same engine at a modest batch of explicit per-bus loads
//! with full state readback (the upload and download the stats-only
//! scaled sweep skips).
//!
//! Acceptance (full run): at B = 100K the per-scenario modeled cost must
//! be at most 0.1x the serial baseline, and no higher than the B = 128
//! stats-only cost — the fused engine saturates early (B = 128 is
//! already within ~15% of the asymptote) and the curve must never turn
//! upward as the batch grows.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e9_batch`
//! Smoke (CI): `E9_SMOKE=1 cargo run -p fbs-bench --release --bin exp_e9_batch`

use fbs::{Scenarios, SerialSolver, SolverArrays, TensorBatchSolver};
use fbs_bench::{eval_config, rng_for, speedup, summary, us, Table};
use numc::Complex;
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{Device, DeviceProps, HostProps};

const N: usize = 4095; // a mid-size feeder where a single GPU solve loses

/// Daily-curve-like load scale for scenario `k` of `nb`.
fn scale_for(k: usize, nb: usize) -> f64 {
    0.55 + 0.5 * ((k as f64 / nb.max(2) as f64) * std::f64::consts::PI).sin()
}

fn main() {
    let smoke = std::env::var("E9_SMOKE").is_ok();
    let cfg = eval_config();
    let spec = GenSpec::default();
    let mut rng = rng_for(90);
    let net = balanced_binary(N, &spec, &mut rng);
    let arrays = SolverArrays::new(&net);

    // The serial baseline cost per scenario (topology arrays reused).
    let serial = SerialSolver::new(HostProps::paper_rig());
    let serial_us = serial.solve_arrays(&arrays, &cfg).timing.total_us();

    // Explicit per-bus loads at a modest batch: the full-result path,
    // loads uploaded, per-bus voltages downloaded and unbatched.
    let explicit_b: usize = if smoke { 8 } else { 128 };
    let explicit_loads: Vec<Vec<Complex>> = (0..explicit_b)
        .map(|k| {
            let s = scale_for(k, explicit_b);
            net.buses().iter().map(|b| b.load * s).collect()
        })
        .collect();
    let mut explicit = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
    let explicit_res = explicit.solve_arrays(&arrays, &explicit_loads, &cfg);
    assert!(explicit_res.converged(), "explicit batch of {explicit_b} must converge");
    let explicit_per = explicit_res.timing.total_us() / explicit_b as f64;

    let mut table = Table::new(
        "E9: Tensor-batched GPU load flow, 4K-bus binary feeder",
        &[
            "batch",
            "engine",
            "iters",
            "total",
            "per scenario",
            "scenarios/s",
            "vs serial",
            &format!("vs explicit@{explicit_b}"),
        ],
    );
    table.row(&[
        &explicit_b,
        &"tensor, explicit loads",
        &explicit_res.iterations,
        &us(explicit_res.timing.total_us()),
        &us(explicit_per),
        &format!("{:.0}", 1e6 / explicit_per),
        &speedup(serial_us / explicit_per),
        &speedup(1.0),
    ]);

    let batches: &[usize] = if smoke { &[8, 32, 128] } else { &[128, 1024, 8192, 100_000] };
    let mut headline_sps = 0.0;
    let mut first_per = f64::INFINITY;
    let mut largest_per = f64::INFINITY;
    for &nb in batches {
        let scales: Vec<f64> = (0..nb).map(|k| scale_for(k, nb)).collect();
        // stats_only: a 100K-scenario state download is pure teardown
        // cost nobody reads in a throughput sweep.
        let mut solver =
            TensorBatchSolver::new(Device::new(DeviceProps::paper_rig())).stats_only();
        let res = solver
            .try_solve(&arrays, Scenarios::Scaled(&scales), &cfg)
            .expect("the fault-free device cannot fail");
        assert!(res.converged(), "tensor batch of {nb} must converge");

        table.sample(&res.timing);
        let per = res.timing.total_us() / nb as f64;
        headline_sps = res.scenarios_per_sec;
        if first_per.is_infinite() {
            first_per = per;
        }
        largest_per = per;
        table.row(&[
            &nb,
            &"tensor",
            &res.iterations,
            &us(res.timing.total_us()),
            &us(per),
            &format!("{:.0}", res.scenarios_per_sec),
            &speedup(serial_us / per),
            &speedup(explicit_per / per),
        ]);
    }

    table.emit("e9_batch");
    summary::record_metric("e9_batch", "scenarios_per_sec", headline_sps);

    let vs_serial = largest_per / serial_us;
    let vs_first = largest_per / first_per;
    println!(
        "\ntensor engine at B={}: {} per scenario = {:.3}x serial, {:.3}x the \
         B={} tensor cost ({} scenarios per modeled second).",
        batches[batches.len() - 1],
        us(largest_per),
        vs_serial,
        vs_first,
        batches[0],
        format_args!("{headline_sps:.0}"),
    );
    if !smoke {
        assert!(
            vs_serial <= 0.1,
            "acceptance: per-scenario cost at B=100K must be <= 0.1x the serial \
             baseline (got {vs_serial:.3}x)"
        );
        assert!(
            vs_first <= 1.0,
            "acceptance: per-scenario cost must not grow with batch size \
             (B=100K at {vs_first:.3}x the B=128 cost)"
        );
    }
}
