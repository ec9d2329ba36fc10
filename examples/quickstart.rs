//! Quickstart: build a small feeder by hand, solve it on the CPU and the
//! (simulated) GPU, and inspect the results.
//!
//! Run: `cargo run --release --example quickstart`

use fbs::{GpuSolver, SerialSolver, SolverConfig};
use numc::{c, Complex};
use powergrid::NetworkBuilder;
use simt::{Device, DeviceProps, HostProps};

fn main() {
    // A 7.2 kV feeder: substation → trunk bus → two laterals.
    //
    //        0 (substation)
    //        |
    //        1 (500 kW shopping strip)
    //       / \
    //      2   3 (two 150 kW neighbourhoods)
    let mut b = NetworkBuilder::new(c(7200.0, 0.0));
    let sub = b.add_bus(Complex::ZERO);
    let trunk = b.add_bus(c(500e3, 180e3));
    let west = b.add_bus(c(150e3, 60e3));
    let east = b.add_bus(c(150e3, 45e3));
    b.connect(sub, trunk, c(0.35, 0.24));
    b.connect(trunk, west, c(0.52, 0.38));
    b.connect(trunk, east, c(0.45, 0.30));
    let net = b.build().expect("radial by construction");

    let cfg = SolverConfig::default();

    // Serial CPU solve — the paper's baseline.
    let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
    println!("serial: converged={} in {} iterations", serial.converged(), serial.iterations);
    for bus in 0..net.num_buses() {
        println!(
            "  V[{bus}] = {:7.1} V  ∠{:6.3}°   J[{bus}] = {:6.1} A",
            serial.v[bus].abs(),
            serial.v[bus].arg().to_degrees(),
            serial.j[bus].abs()
        );
    }
    let losses = serial.losses(&net);
    println!("  losses: {:.2} kW", losses.re / 1e3);

    // GPU solve — identical physics. A feeder this small routes to the
    // fused sweep: one kernel launch per iteration.
    let mut gpu = GpuSolver::new(Device::new(DeviceProps::paper_rig()));
    let par = gpu.solve(&net, &cfg);
    println!("\ngpu:    converged={} in {} iterations", par.converged(), par.iterations);
    let worst = net
        .buses()
        .iter()
        .enumerate()
        .map(|(i, _)| (par.v[i] - serial.v[i]).abs())
        .fold(0.0f64, f64::max);
    println!("  max |V_gpu − V_serial| = {worst:.2e} V");

    // Physics check: Kirchhoff's laws hold on the solved state.
    fbs::validate::assert_physical(&net, &par, 1e-6);
    println!("  physics validation passed (KCL, KVL, power balance)");

    // The timeline shows what the device "did".
    println!("\ndevice timeline:\n{}", gpu.device().timeline().breakdown());
}
