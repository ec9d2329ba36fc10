//! E1 — the paper's headline table: total runtime, serial CPU vs GPU,
//! on balanced binary distribution trees of 1K–256K buses.
//!
//! Reproduces the abstract's claims: "We perform our tests on binary
//! power distribution trees that have number of nodes between 1K to
//! 256K. Our results show that the parallel implementation brings up to
//! 3.9x total speedup over the serial implementation."
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e1_total_speedup`

use fbs::{BackwardStrategy, GpuSolver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, validate_or_die, Table, PAPER_SIZES};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{Device, HostProps};

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();
    let mut table = Table::new(
        "E1: Total runtime, serial CPU vs GPU (balanced binary trees)",
        &["buses", "iters", "serial total", "gpu total", "total speedup"],
    );
    let mut peak = 0.0f64;

    for &n in &PAPER_SIZES {
        let mut rng = rng_for(1);
        let net = balanced_binary(n, &spec, &mut rng);

        let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        validate_or_die(&net, &serial, "serial");

        let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let par = gpu.solve(&net, &cfg);
        validate_or_die(&net, &par, "gpu");
        assert_eq!(serial.iterations, par.iterations, "solvers must agree on iterates");

        let s_us = serial.timing.total_us();
        let g_us = par.timing.total_us();
        let x = s_us / g_us;
        peak = peak.max(x);
        table.row(&[&n, &par.iterations, &us(s_us), &us(g_us), &speedup(x)]);
    }

    table.emit("e1_total_speedup");
    println!("\npeak total speedup: {} (paper reports up to 3.9x)", speedup(peak));
}
