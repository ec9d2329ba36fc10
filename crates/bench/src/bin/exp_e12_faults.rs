//! E12 (extension) — resilience under injected device faults: what
//! checkpointing costs when nothing goes wrong, and what recovery costs
//! when it does.
//!
//! The paper's evaluation assumes a healthy device. This experiment
//! arms the seeded fault plan at increasing per-op rates and measures
//! the modeled cost of the resilient GPU solve against the plain one:
//! rate 0 isolates the pure checkpoint/verify overhead, higher rates
//! add rollback-and-replay traffic, and the table records how much of
//! the fault budget each run consumed and which backend finished it.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e12_faults`
//! (`E12_SMOKE=1` restricts to the smallest feeder for CI.)

use fbs::{Backend, BackwardStrategy, GpuSolver, ResilientSolver, SolverArrays, SolverConfig};
use fbs_bench::{rng_for, us, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{Device, DeviceProps, FaultPlan, HostProps};

const SIZES: [usize; 3] = [1023, 16_383, 131_071];
const RATES: [f64; 3] = [0.0, 1e-4, 1e-3];

fn main() {
    let cfg = SolverConfig::default();
    let spec = GenSpec::default();
    let smoke = std::env::var("E12_SMOKE").is_ok();
    let sizes: &[usize] = if smoke { &SIZES[..1] } else { &SIZES };

    let mut table = Table::new(
        "E12: GPU solve under injected faults (seeded plan, checkpoint every 4 iterations)",
        &["buses", "rate/op", "status", "faults", "rollbacks", "checkpoints", "ckpt cost", "backend", "modeled", "vs plain"],
    );

    for &n in sizes {
        let mut rng = rng_for(120 + n as u64);
        let net = balanced_binary(n, &spec, &mut rng);

        // The undefended baseline: plain GPU solve, no plan, no checkpoints.
        let plain = GpuSolver::with_strategy(Device::paper_rig(), BackwardStrategy::SegScan)
            .solve(&net, &cfg);
        assert!(plain.converged(), "{n}: baseline must converge");
        let plain_us = plain.timing.total_us();
        let arrays = SolverArrays::new(&net);

        for &rate in &RATES {
            let mut solver = ResilientSolver::new(
                Backend::Gpu,
                DeviceProps::paper_rig(),
                HostProps::paper_rig(),
            )
            .with_fault_plan(FaultPlan::seeded(fbs_bench::SEED, rate));
            let res = match solver.solve(&arrays, &cfg) {
                Ok(res) => res,
                Err(e) => panic!("{n} @ rate {rate}: {e}"),
            };
            assert!(res.converged(), "{n} @ rate {rate}: ended {:?}", res.status);
            let rep = res.fault_report.expect("resilient solves carry a report");
            let total = res.timing.total_us();
            table.row(&[
                &n,
                &format!("{rate:.0e}"),
                &res.status,
                &rep.faults_injected,
                &rep.rollbacks,
                &rep.checkpoints,
                &us(rep.checkpoint_us),
                &rep.final_backend().to_string(),
                &us(total),
                &format!("{:.2}x", total / plain_us),
            ]);
        }
    }

    table.emit("e12_faults");
    println!("\nrate 0 is the insurance premium (checkpoint + verify traffic);");
    println!("each injected fault adds a bounded rollback-and-replay cost on top.");
}
