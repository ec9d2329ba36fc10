//! Convergence-status hardening: no solver may ever report
//! [`fbs::SolveStatus::Converged`] while holding non-finite state, a
//! crafted voltage collapse is classified identically by every solver,
//! and a batch masks a sick scenario out instead of letting it poison
//! the batch-wide reduction.

use check::gen::{tuple3, u64_any, usize_in, Gen};
use check::{checker, prop_assert, CaseResult};
use fbs::{Backend, SolveResult, SolveStatus, SolverArrays, SolverConfig, TensorBatchSolver};
use numc::{c, Complex};
use powergrid::gen::{random_tree, GenSpec};
use powergrid::{NetworkBuilder, RadialNetwork};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{Device, DeviceProps, HostProps};

fn device() -> Device {
    Device::with_workers(DeviceProps::paper_rig(), 2)
}

/// Runs every backend's plain engine on `net` and returns labeled results.
fn all_solvers(net: &RadialNetwork, cfg: &SolverConfig) -> Vec<(&'static str, SolveResult)> {
    let (a, props, host) = (SolverArrays::new(net), DeviceProps::paper_rig(), HostProps::paper_rig());
    let solve = |b: Backend| b.engine(&props, &host, None).solve_warm_arrays(&a, cfg, None);
    Backend::ALL.into_iter().map(|b| (b.name(), solve(b).unwrap_or_else(|e| match e {}))).collect()
}

/// The 2-bus feeder whose load bus lands on exactly 0 V after one
/// iteration, so iteration 2 divides by zero (V₀ = 100 V, Z = 10 Ω,
/// S = 1000 VA, all real).
fn collapse_net() -> RadialNetwork {
    let mut b = NetworkBuilder::new(c(100.0, 0.0));
    b.add_bus(Complex::ZERO);
    b.add_bus(c(1000.0, 0.0));
    b.connect(0, 1, c(10.0, 0.0));
    b.build().unwrap()
}

/// Generator: tree shape plus an overload factor spanning "heavy but
/// feasible" through "far past the voltage-collapse point".
fn overloaded_tree() -> Gen<(usize, u64, usize)> {
    tuple3(usize_in(2..300), u64_any(), usize_in(0..7))
}

#[test]
fn converged_always_means_finite_state() {
    checker("converged_always_means_finite_state").cases(20).run(
        overloaded_tree(),
        |&(n, seed, overload_exp)| -> CaseResult {
            let mut spec = GenSpec::default();
            // 1×, 4×, 16×, … 4096× nominal loading: the tail is far past
            // any operating point FBS can converge to.
            spec.total_kw *= 4f64.powi(overload_exp as i32);
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 8, &spec, &mut rng);
            let cfg = SolverConfig::default();

            for (who, res) in all_solvers(&net, &cfg) {
                if res.status == SolveStatus::Converged {
                    prop_assert!(
                        res.residual.is_finite(),
                        "{who}: converged with residual {}",
                        res.residual
                    );
                    prop_assert!(
                        res.v.iter().chain(&res.j).all(|z| z.re.is_finite() && z.im.is_finite()),
                        "{who}: converged with non-finite voltage or current"
                    );
                } else {
                    // The early-abort must actually abort early: a
                    // diverging or NaN solve never burns the whole
                    // iteration budget.
                    if matches!(
                        res.status,
                        SolveStatus::Diverged { .. } | SolveStatus::NumericalFailure { .. }
                    ) {
                        prop_assert!(
                            res.iterations < cfg.max_iter,
                            "{who}: {} but ran all {} iterations",
                            res.status,
                            res.iterations
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn crafted_collapse_is_numerical_failure_in_every_solver() {
    let net = collapse_net();
    // Disarm the growth cap so only the NaN path can fire; every solver
    // must then report the same numerical failure at the same iteration.
    let cfg = SolverConfig::new(1e-9, 50).with_divergence(1e300, 50);
    let mut statuses = Vec::new();
    for (who, res) in all_solvers(&net, &cfg) {
        assert!(
            matches!(res.status, SolveStatus::NumericalFailure { .. }),
            "{who}: collapse through V=0 must be a numerical failure, got {}",
            res.status
        );
        assert!(!res.residual.is_finite(), "{who}: the corrupt residual must be surfaced");
        statuses.push((who, res.status));
    }
    let (first_who, first) = statuses[0];
    for (who, s) in &statuses[1..] {
        assert_eq!(*s, first, "{who} disagrees with {first_who} on the collapse status");
    }

    // With the default divergence cap armed, the huge first-iteration
    // swing on a 10 MVA variant is caught even before NaN appears.
    let mut b = NetworkBuilder::new(c(100.0, 0.0));
    b.add_bus(Complex::ZERO);
    b.add_bus(c(1e7, 0.0));
    b.connect(0, 1, c(10.0, 0.0));
    let hot = b.build().unwrap();
    for (who, res) in all_solvers(&hot, &SolverConfig::default()) {
        assert!(
            matches!(
                res.status,
                SolveStatus::Diverged { .. } | SolveStatus::NumericalFailure { .. }
            ),
            "{who}: 10 MVA on a 100 V bus must diverge, got {}",
            res.status
        );
        assert!(!res.status.is_converged());
    }
}

#[test]
fn batch_masks_the_sick_scenario_and_converges_the_rest() {
    let mut rng = StdRng::seed_from_u64(41);
    let net = random_tree(120, 8, &GenSpec::default(), &mut rng);
    let cfg = SolverConfig::default();

    let base: Vec<Complex> = net.buses().iter().map(|b| b.load).collect();
    let healthy: Vec<Vec<Complex>> =
        [0.6, 0.9, 1.2].iter().map(|&sc| base.iter().map(|&s| s * sc).collect()).collect();

    // Baseline: healthy scenarios alone.
    let arrays = SolverArrays::new(&net);
    let mut solver = TensorBatchSolver::new(device());
    let clean = solver.solve_arrays(&arrays, &healthy, &cfg);
    assert!(clean.converged(), "baseline batch must converge: {:?}", clean.statuses);

    // Same batch plus one scenario loaded ~10⁶× past collapse.
    let mut scenarios = healthy.clone();
    scenarios.push(base.iter().map(|&s| s * 1e6).collect());
    let mut solver = TensorBatchSolver::new(device());
    let mixed = solver.solve_arrays(&arrays, &scenarios, &cfg);

    for s in 0..3 {
        assert_eq!(
            mixed.statuses[s],
            SolveStatus::Converged,
            "healthy scenario {s} must still converge: {:?}",
            mixed.statuses
        );
    }
    assert!(
        !mixed.statuses[3].is_converged(),
        "the overloaded scenario must be flagged, got {}",
        mixed.statuses[3]
    );
    assert!(!mixed.converged());
    assert_eq!(mixed.worst_status(), mixed.statuses[3]);

    // Masking means the sick scenario does not drag the batch to
    // max_iter, and the healthy lanes are untouched by it.
    assert_eq!(
        mixed.iterations, clean.iterations,
        "masked batch must converge in the baseline iteration count"
    );
    let v0 = net.source_voltage().abs();
    for s in 0..3 {
        for bus in 0..net.num_buses() {
            let d = (mixed.v[s][bus] - clean.v[s][bus]).abs();
            assert!(d < 1e-9 * v0, "scenario {s} bus {bus} perturbed by the masked lane: {d}");
        }
    }
}

#[test]
fn batch_flags_nan_loads_as_numerical_failure() {
    let mut rng = StdRng::seed_from_u64(43);
    let net = random_tree(60, 8, &GenSpec::default(), &mut rng);
    let cfg = SolverConfig::default();

    let base: Vec<Complex> = net.buses().iter().map(|b| b.load).collect();
    let mut sick = base.clone();
    sick[7] = c(f64::NAN, 0.0);
    let scenarios = vec![base, sick];

    let mut solver = TensorBatchSolver::new(device());
    let res = solver.solve_arrays(&SolverArrays::new(&net), &scenarios, &cfg);
    assert_eq!(res.statuses[0], SolveStatus::Converged, "{:?}", res.statuses);
    assert!(
        matches!(res.statuses[1], SolveStatus::NumericalFailure { .. }),
        "NaN load must be a numerical failure, got {}",
        res.statuses[1]
    );
    assert_eq!(res.worst_status(), res.statuses[1]);
}
