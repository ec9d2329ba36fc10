//! E11 (extension) — unbalanced three-phase FBS: GPU vs serial scaling.
//!
//! Each bus now carries 3 phase voltages and each branch a 3×3 complex
//! impedance matrix: per-bus arithmetic grows ~8× (one mat-vec per
//! forward update) and per-bus traffic ~3–5×. That extra work fills the
//! same kernel launches, so the GPU's fixed costs amortise at *smaller*
//! trees than in the single-phase E1 — the crossover moves left.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e11_three_phase`

use fbs::{BackwardStrategy, GpuSolver, Serial3Solver, SerialSolver};
use fbs_bench::{eval_config, rng_for, speedup, us, Table, PAPER_SIZES};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::three_phase::from_single_phase;
use simt::{Device, DeviceProps, HostProps};

fn main() {
    let cfg = eval_config();
    let spec = GenSpec::default();

    let mut table = Table::new(
        "E11: Three-phase unbalanced FBS, serial vs GPU (binary trees)",
        &["buses", "iters", "serial 3φ", "gpu 3φ", "3φ speedup", "1φ speedup (E1)"],
    );

    for &n in &PAPER_SIZES {
        if n > 131_072 {
            // 3φ buffers are ~4× larger; cap the sweep at 128K to keep
            // the harness fast (the trend is established well before).
            continue;
        }
        let mut rng = rng_for(110);
        let net1 = balanced_binary(n, &spec, &mut rng);
        let net3 = from_single_phase(&net1, 0.35, 0.3, &mut rng);

        let s3 = Serial3Solver::new(HostProps::paper_rig()).solve(&net3, &cfg);
        assert!(s3.converged(), "serial 3φ must converge at n={n}");
        let mut gpu = GpuSolver::new(Device::new(DeviceProps::paper_rig()));
        let g3 = gpu.solve3(&net3, &cfg);
        assert!(g3.converged(), "gpu 3φ must converge at n={n}");

        // Single-phase comparison on the same tree.
        let s1 = SerialSolver::new(HostProps::paper_rig()).solve(&net1, &cfg);
        let mut gpu1 = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
        let g1 = gpu1.solve(&net1, &cfg);

        table.row(&[
            &n,
            &g3.iterations,
            &us(s3.timing.total_us()),
            &us(g3.timing.total_us()),
            &speedup(s3.timing.total_us() / g3.timing.total_us()),
            &speedup(s1.timing.total_us() / g1.timing.total_us()),
        ]);
    }

    table.emit("e11_three_phase");
    println!("\nheavier per-bus work (3×3 mat-vecs) moves the GPU crossover to smaller feeders.");
}
