//! Time-series load flow: solve 24 hourly load scenarios of a feeder in
//! one batched GPU call and print the daily voltage/loss profile.
//!
//! Run: `cargo run --release --example daily_profile`

use fbs::{SolverArrays, SolverConfig, TensorBatchSolver};
use numc::Complex;
use powergrid::ieee::ieee123_style;
use simt::{Device, DeviceProps};

/// A stylised residential daily demand curve (per-unit of peak).
fn hourly_scale(hour: usize) -> f64 {
    const CURVE: [f64; 24] = [
        0.42, 0.38, 0.36, 0.35, 0.36, 0.42, 0.55, 0.68, 0.72, 0.70, 0.68, 0.67, 0.66, 0.65, 0.66,
        0.70, 0.80, 0.92, 1.00, 0.98, 0.90, 0.78, 0.62, 0.50,
    ];
    CURVE[hour % 24]
}

fn main() {
    let net = ieee123_style();
    let cfg = SolverConfig::default();

    let scenarios: Vec<Vec<Complex>> = (0..24)
        .map(|h| net.buses().iter().map(|b| b.load * hourly_scale(h)).collect())
        .collect();

    let mut solver = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
    let res = solver.solve_arrays(&SolverArrays::new(&net), &scenarios, &cfg);
    assert!(res.converged(), "all 24 hours must converge");

    let v0 = net.source_voltage().abs();
    println!("24-hour load flow on the IEEE-123-style feeder ({} buses)", net.num_buses());
    println!("batched GPU solve: {} iterations, {:.1} µs modeled total\n", res.iterations, res.timing.total_us());
    println!("{:>4} {:>7} {:>12} {:>12} {:>10}", "hour", "load", "min |V| (pu)", "losses (kW)", "profile");
    for h in 0..24 {
        let min_pu = res.v[h].iter().map(|v| v.abs()).fold(f64::INFINITY, f64::min) / v0;
        // Losses: Σ R·|J|² over branches.
        let mut loss = Complex::ZERO;
        for bus in 0..net.num_buses() {
            if let Some(br) = net.parent_branch(bus) {
                loss += br.z * res.j[h][bus].norm_sqr();
            }
        }
        let bar = "▇".repeat((hourly_scale(h) * 30.0) as usize);
        println!(
            "{:>4} {:>6.0}% {:>12.4} {:>12.2} {:>10}",
            h,
            hourly_scale(h) * 100.0,
            min_pu,
            loss.re / 1e3,
            bar
        );
    }

    println!(
        "\nper-scenario modeled cost: {:.1} µs (vs {:.1} µs for 24 separate GPU solves' fixed costs alone)",
        res.timing.total_us() / 24.0,
        res.timing.phases.setup_us + res.timing.phases.teardown_us
    );
}
