//! Unbalanced three-phase analysis of the IEEE 13-node feeder: per-phase
//! voltage profile, unbalance factors, and the effect of mutual coupling.
//!
//! Run: `cargo run --release --example unbalanced_feeder`

use fbs::{GpuSolver, Serial3Solver, SolverConfig};
use powergrid::three_phase::ieee13_unbalanced;
use simt::{Device, DeviceProps, HostProps};

fn main() {
    let net = ieee13_unbalanced();
    let cfg = SolverConfig::default();
    let v0 = net.source_voltage().abs_max();

    let res = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &cfg);
    assert!(res.converged());
    println!(
        "IEEE 13-node, unbalanced three-phase solve: {} iterations (residual {:.2e} V)\n",
        res.iterations, res.residual
    );

    let names = ["650", "632", "633", "634", "645", "646", "671", "680", "684", "611", "652", "675", "692"];
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10}",
        "bus", "|Va| (pu)", "|Vb| (pu)", "|Vc| (pu)", "unbal %"
    );
    for bus in 0..net.num_buses() {
        let v = res.v[bus];
        println!(
            "{:>5} {:>10.4} {:>10.4} {:>10.4} {:>10.2}",
            names.get(bus).unwrap_or(&"?"),
            v.a.abs() / v0,
            v.b.abs() / v0,
            v.c.abs() / v0,
            100.0 * v.unbalance()
        );
    }

    let (worst_unb, worst_bus) = res.max_unbalance();
    let (worst_v, sag_bus) = res.min_phase_voltage();
    println!(
        "\nworst unbalance: {:.2}% at bus {} | deepest phase sag: {:.4} pu at bus {}",
        100.0 * worst_unb,
        names.get(worst_bus).unwrap_or(&"?"),
        worst_v / v0,
        names.get(sag_bus).unwrap_or(&"?")
    );

    // GPU agreement check.
    let mut gpu = GpuSolver::new(Device::new(DeviceProps::paper_rig()));
    let g = gpu.solve3(&net, &cfg);
    let max_diff = (0..net.num_buses())
        .map(|b| (g.v[b] - res.v[b]).abs_max())
        .fold(0.0f64, f64::max);
    println!("\nGPU solve agrees with serial to {max_diff:.2e} V ({} iterations, {:.1} µs modeled)",
        g.iterations, g.timing.total_us());
}
