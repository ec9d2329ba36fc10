//! End-to-end pipeline test spanning every crate: generate a network,
//! round-trip it through the .grid format, solve with all three solvers,
//! and validate physics and cross-solver agreement.

use fbs::{BackwardStrategy, GpuSolver, MulticoreSolver, SerialSolver, SolverConfig};
use powergrid::gen::{balanced_binary, GenSpec};
use powergrid::gridfile::{parse_grid, write_grid};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{Device, DeviceProps, HostProps};

#[test]
fn generate_serialize_solve_validate() {
    let mut rng = StdRng::seed_from_u64(424242);
    let net = balanced_binary(2047, &GenSpec::default(), &mut rng);

    // Round-trip through the text format.
    let net = parse_grid(&write_grid(&net)).expect("generated networks serialize cleanly");

    let cfg = SolverConfig::default();
    let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
    let multicore = MulticoreSolver::new(HostProps::paper_rig(), 4).solve(&net, &cfg);
    let mut gpu_solver = GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2));
    let gpu = gpu_solver.solve(&net, &cfg);

    for (name, res) in [("serial", &serial), ("multicore", &multicore), ("gpu", &gpu)] {
        assert!(res.converged(), "{name} must converge");
        fbs::validate::assert_physical(&net, res, 1e-5);
    }
    assert_eq!(serial.iterations, gpu.iterations);
    assert_eq!(serial.iterations, multicore.iterations);

    for bus in 0..net.num_buses() {
        assert!(
            (serial.v[bus] - gpu.v[bus]).abs() < 1e-6,
            "bus {bus}: serial {:?} vs gpu {:?}",
            serial.v[bus],
            gpu.v[bus]
        );
        assert!((serial.v[bus] - multicore.v[bus]).abs() < 1e-6);
    }
}

#[test]
fn gpu_timeline_accounts_for_the_whole_solve() {
    let mut rng = StdRng::seed_from_u64(7);
    let net = balanced_binary(511, &GenSpec::default(), &mut rng);
    // Pinned to the paper's level path: the kernel names below are its.
    let mut solver = GpuSolver::with_strategy(
        Device::with_workers(DeviceProps::paper_rig(), 2),
        BackwardStrategy::SegScan,
    );
    let res = solver.solve(&net, &SolverConfig::default());
    assert!(res.converged());

    // Phase attribution must cover the full timeline (no lost events).
    let timeline_total = solver.device().timeline().total_modeled_us();
    let phase_total = res.timing.total_us();
    assert!(
        (timeline_total - phase_total).abs() < 1e-6 * timeline_total.max(1.0),
        "timeline {timeline_total} µs vs phases {phase_total} µs"
    );

    // The solver's kernels appear on the timeline under their own names.
    let b = solver.device().timeline().breakdown();
    for name in ["fbs_inject", "fbs_backward_combine", "fbs_forward", "segscan_blocks", "reduce"] {
        assert!(b.per_kernel_us.contains_key(name), "missing kernel {name}");
    }
}

#[test]
fn results_are_reproducible_across_runs() {
    let run = || {
        let mut rng = StdRng::seed_from_u64(99);
        let net = balanced_binary(1023, &GenSpec::default(), &mut rng);
        let mut solver = GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 4));
        let res = solver.solve(&net, &SolverConfig::default());
        (res.v, res.j, res.iterations, res.timing.total_us())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "voltages must be bit-identical");
    assert_eq!(a.1, b.1, "currents must be bit-identical");
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3, "modeled time must be deterministic");
}
