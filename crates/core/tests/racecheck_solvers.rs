//! Runs every device kernel this crate launches under the simt race
//! detector (`--features racecheck`). The detector panics on unordered
//! write-write, write-read, or atomic-vs-plain access pairs, so these
//! tests pass exactly when the kernels are race-free; correctness of the
//! results is checked elsewhere, convergence asserts here just guard
//! against vacuous runs.

#![cfg(feature = "racecheck")]

use fbs::{BackwardStrategy, GpuSolver, JumpSolver, SolverArrays, SolverConfig, TensorBatchSolver};
use numc::Complex;
use powergrid::gen::{balanced_binary, random_tree, GenSpec};
use primitives::ops::{AddComplex, AddF64, MaxF64};
use primitives::{reduce, scan_inclusive, segscan_inclusive};
use rng::rngs::StdRng;
use rng::Rng;
use rng::SeedableRng;
use simt::{Device, DeviceProps};

fn small_nets() -> Vec<powergrid::RadialNetwork> {
    let mut rng = StdRng::seed_from_u64(11);
    vec![
        balanced_binary(63, &GenSpec::default(), &mut rng),
        random_tree(80, 6, &GenSpec::default(), &mut rng),
    ]
}

#[test]
fn gpu_solver_is_race_free_under_all_strategies() {
    let cfg = SolverConfig::default();
    for net in small_nets() {
        for strategy in [
            BackwardStrategy::SegScan,
            BackwardStrategy::Direct,
            BackwardStrategy::AtomicScatter,
        ] {
            let mut solver =
                GpuSolver::with_strategy(Device::new(DeviceProps::paper_rig()), strategy);
            let res = solver.solve(&net, &cfg);
            assert!(res.converged(), "{strategy:?} must converge under racecheck");
        }
    }
}

#[test]
fn jump_solver_is_race_free() {
    let cfg = SolverConfig::default();
    for net in small_nets() {
        let mut solver = JumpSolver::new(Device::new(DeviceProps::paper_rig()));
        assert!(solver.solve(&net, &cfg).converged());
    }
}

#[test]
fn tensor_batch_solver_is_race_free() {
    let cfg = SolverConfig::default();
    let net = &small_nets()[0];
    let scenarios: Vec<Vec<Complex>> = (0..3)
        .map(|k| net.buses().iter().map(|b| b.load * (0.6 + 0.2 * k as f64)).collect())
        .collect();
    let mut solver = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
    assert!(solver.solve_arrays(&SolverArrays::new(net), &scenarios, &cfg).converged());
}

#[test]
fn primitive_kernels_are_race_free() {
    let mut rng = StdRng::seed_from_u64(23);
    // Cross block-size boundaries so inter-block paths are exercised.
    for n in [1usize, 255, 256, 513, 1024] {
        let mut dev = Device::new(DeviceProps::paper_rig());
        let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let buf = dev.alloc_from(&xs);
        let mut out = dev.alloc::<f64>(n);
        reduce::<f64, MaxF64>(&mut dev, &buf);
        reduce::<f64, AddF64>(&mut dev, &buf);
        scan_inclusive::<f64, AddF64>(&mut dev, &buf, &mut out);

        let cs: Vec<Complex> = xs.iter().map(|&x| Complex::new(x, -x)).collect();
        let flags: Vec<u32> = (0..n).map(|i| u32::from(i % 17 == 0)).collect();
        let vals = dev.alloc_from(&cs);
        let fl = dev.alloc_from(&flags);
        let mut cout = dev.alloc::<Complex>(n);
        segscan_inclusive::<Complex, AddComplex>(&mut dev, &vals, &fl, &mut cout);
    }
}
