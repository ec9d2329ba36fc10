//! E5 — convergence behaviour of forward-backward sweep: iterations vs
//! loading level and vs tolerance.
//!
//! Validates the solver-correctness envelope the timing experiments
//! stand on: FBS converges geometrically while the feeder is far from
//! voltage collapse and degrades (then fails) as loading approaches it —
//! the behaviour every FBS reference (Kersting; Shirmohammadi et al.)
//! reports. Serial and GPU solvers must take identical iteration counts.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e5_convergence`

use fbs::{BackwardStrategy, GpuSolver, SerialSolver, SolverConfig};
use fbs_bench::{rng_for, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{Device, HostProps};

fn main() {
    let spec = GenSpec::default();
    let mut rng = rng_for(50);
    let base = balanced_binary(16_384, &spec, &mut rng);

    // --- Part 1: iterations vs loading multiplier ---
    let mut t1 = Table::new(
        "E5a: Iterations vs loading (binary 16K, tol 1e-6)",
        &["load scale", "iterations", "status", "min |V| (pu)", "gpu matches"],
    );
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0] {
        let mut net = base.clone();
        net.scale_loads(scale);
        let cfg = SolverConfig::new(1e-6, 200);
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let mut gpu = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let g = gpu.solve(&net, &cfg);
        let min_pu = s.min_voltage().0 / net.source_voltage().abs();
        t1.row(&[
            &format!("{scale:.2}x"),
            &s.iterations,
            &s.status,
            &format!("{min_pu:.4}"),
            &(s.iterations == g.iterations && s.status == g.status),
        ]);
    }
    t1.emit("e5a_loading");

    // --- Part 2: iterations vs tolerance ---
    let mut t2 = Table::new(
        "E5b: Iterations vs tolerance (binary 16K, nominal loading)",
        &["tolerance", "iterations", "final residual (V)"],
    );
    for exp in [3, 4, 5, 6, 7, 8, 9, 10, 12] {
        let tol = 10f64.powi(-exp);
        let cfg = SolverConfig::new(tol, 500);
        let s = SerialSolver::new(HostProps::paper_rig()).solve(&base, &cfg);
        assert!(s.converged(), "tol 1e-{exp} must converge at nominal loading");
        t2.row(&[&format!("1e-{exp}"), &s.iterations, &format!("{:.3e}", s.residual)]);
    }
    t2.emit("e5b_tolerance");
    println!("\niterations grow ~linearly in -log tol (geometric convergence), and with loading.");
}
