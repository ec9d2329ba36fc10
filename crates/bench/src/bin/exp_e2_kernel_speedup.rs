//! E2 — GPU-only speedup versus tree size (transfers excluded).
//!
//! Reproduces the abstract's scaling claim: "for the parts of the
//! computation that entirely run on the GPU, larger speedups are
//! achieved as the size of the distribution tree increases."
//!
//! "GPU-only" = modeled kernel time of the iterative sweeps (injection,
//! backward, forward, convergence kernels), excluding the topology
//! upload, the result download and the per-iteration scalar read-back;
//! compared to the serial CPU time of the same sweep phases.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e2_kernel_speedup`

use fbs::{BackwardStrategy, GpuSolver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, validate_or_die, Table, PAPER_SIZES};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{Device, HostProps};

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();
    let mut table = Table::new(
        "E2: Sweep-only (GPU-resident) runtime and speedup vs tree size",
        &["buses", "serial sweeps", "gpu sweeps", "sweep speedup", "total speedup"],
    );

    let mut last_x = 0.0;
    let mut monotone_from_4k = true;
    for &n in &PAPER_SIZES {
        let mut rng = rng_for(2);
        let net = balanced_binary(n, &spec, &mut rng);

        let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let par = gpu.solve(&net, &cfg);
        validate_or_die(&net, &par, "gpu");

        let s_sweep = serial.timing.phases.sweep_us();
        let g_sweep = par.timing.sweep_kernel_us();
        let x = s_sweep / g_sweep;
        let total_x = serial.timing.total_us() / par.timing.total_us();
        if n > 4096 && x < last_x {
            monotone_from_4k = false;
        }
        last_x = x;
        table.row(&[&n, &us(s_sweep), &us(g_sweep), &speedup(x), &speedup(total_x)]);
    }

    table.emit("e2_kernel_speedup");
    println!(
        "\nsweep speedup grows monotonically above 4K buses: {}",
        if monotone_from_4k { "yes (matches the abstract)" } else { "NO — check calibration" }
    );
}
