//! Wall-clock micro-benchmarks of the three solvers.
//!
//! Serial and multicore numbers are real host performance of this
//! library; the GPU number is the *simulation cost* of the device solver
//! (functional emulation), not a device-performance claim — modeled
//! device time is what `exp_e1_total_speedup` reports.
//!
//! Run: `cargo bench -p fbs-bench --bench bench_solvers`

use fbs::{BackwardStrategy, GpuSolver, MulticoreSolver, SerialSolver, SolverArrays, SolverConfig};
use fbs_bench::micro::{MicroBench, MicroReport};
use powergrid::gen::{balanced_binary, GenSpec};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{Device, HostProps};

const SIZES: [usize; 3] = [4096, 32_768, 131_072];

fn nets() -> Vec<(usize, SolverArrays)> {
    SIZES
        .iter()
        .map(|&n| {
            let mut rng = StdRng::seed_from_u64(99);
            let net = balanced_binary(n, &GenSpec::default(), &mut rng);
            (n, SolverArrays::new(&net))
        })
        .collect()
}

fn main() {
    let mut report = MicroReport::new("solvers");
    let cfg = SolverConfig::default();

    for (n, arrays) in nets() {
        let solver = SerialSolver::new(HostProps::paper_rig());
        MicroBench::new(2, 15).run(&mut report, &format!("solve_serial/{n}"), n, || {
            solver.solve_arrays(&arrays, &cfg);
        });
    }

    for (n, arrays) in nets() {
        let solver = MulticoreSolver::new(HostProps::paper_rig(), 8);
        MicroBench::new(2, 15).run(&mut report, &format!("solve_multicore/{n}"), n, || {
            solver.solve_arrays(&arrays, &cfg);
        });
    }

    for (n, arrays) in nets() {
        MicroBench::new(1, 5).run(&mut report, &format!("solve_gpu_simulation/{n}"), n, || {
            let mut solver =
                GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan);
            solver.solve_arrays(&arrays, &cfg);
        });
    }

    report.emit();
}
