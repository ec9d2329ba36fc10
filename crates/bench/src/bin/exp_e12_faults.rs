//! E12 (extension) — resilience under injected device faults: what
//! checkpointing costs when nothing goes wrong, and what recovery costs
//! when it does.
//!
//! The paper's evaluation assumes a healthy device. This experiment
//! arms the seeded fault plan at increasing per-op rates and measures
//! the modeled cost of the resilient GPU solve against the plain one on
//! the same route (the fused sweep or the level path, as
//! [`Backend::engine`] and the supervisor both choose it; a restarted or
//! abandoned device attempt is charged to the answer's modeled time):
//! rate 0 isolates the pure checkpoint/verify overhead, higher rates
//! add rollback-and-replay traffic, and the table records how much of
//! the fault budget each run consumed and which backend finished it.
//!
//! Run: `cargo run -p fbs-bench --release --bin exp_e12_faults`
//! (`E12_SMOKE=1` restricts to the smallest feeder for CI.)

use fbs::{Backend, ResilientSolver, SolverArrays, SolverConfig, SweepBackend};
use fbs_bench::{rng_for, us, Table};
use powergrid::gen::{balanced_binary, GenSpec};
use simt::{DeviceProps, FaultPlan, HostProps};

const SIZES: [usize; 3] = [1023, 16_383, 131_071];
/// The fused sweep (1 023 buses) issues a few dozen device ops per
/// solve, the level path with the direct backward sweep (16 383 and
/// 131 071) hundreds: at this seed 1e-2 rolls back the 131 071-bus
/// solve, and 5e-2 rolls back a fused one and exhausts the level path's
/// budget.
const RATES: [f64; 3] = [0.0, 1e-2, 5e-2];

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

        // The undefended baseline: the plain engine of the supervisor's
        // backend — the same route, fused or level — with no plan and no
        // checkpoints.
        let arrays = SolverArrays::new(&net);
        let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
        let mut engine = Backend::Gpu.engine(&props, &host, None);
        let Ok(plain) = engine.solve_warm_arrays(&arrays, &cfg, None);
        assert!(plain.converged(), "{n}: baseline must converge");
        let plain_us = plain.timing.total_us();

        for &rate in &RATES {
            let mut solver = ResilientSolver::new(Backend::Gpu, props.clone(), host.clone())
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
