//! Property tests: on arbitrary radial topologies and loadings, the GPU
//! solver agrees with the serial reference bus-for-bus, and physics
//! validation holds whenever the solve converges; its routed solves
//! agree with the pinned level path and never cost more modeled time.

use check::gen::{f64_in, tuple3, tuple4, u64_any, usize_in, Gen};
use check::{checker, prop_assert, prop_assert_eq, CaseResult};
use fbs::{obs::status_key, BackwardStrategy, GpuSolver, SerialSolver, SolveStatus, SolverConfig};
use numc::Complex;
use powergrid::gen::{
    balanced_binary, balanced_kary, chain, from_parent_fn, random_tree, star, GenSpec,
};
use rng::rngs::StdRng;
use rng::SeedableRng;
use simt::{Device, DeviceProps, HostProps};

/// Generator: a random tree described by parent offsets (parent of bus i
/// is a uniformly random earlier bus within a window), with random
/// moderate loading.
fn arbitrary_tree() -> Gen<(usize, u64, usize, f64)> {
    tuple4(usize_in(2..600), u64_any(), usize_in(1..32), f64_in(0.3..1.5))
}

#[test]
fn gpu_matches_serial_on_arbitrary_trees() {
    checker("gpu_matches_serial_on_arbitrary_trees").cases(24).run(
        arbitrary_tree(),
        |&(n, seed, window, load_scale)| -> CaseResult {
            let mut spec = GenSpec::default();
            spec.total_kw *= load_scale;
            let mut rng = StdRng::seed_from_u64(seed);
            // Parent function: mirrors powergrid::gen::random_tree but with
            // the harness-driven seed/window.
            let parents: Vec<usize> = (0..n)
                .map(|i| {
                    if i == 0 {
                        usize::MAX
                    } else {
                        let lo = i.saturating_sub(window);
                        lo + (seed.wrapping_mul(i as u64 * 2654435761 + 17)
                            % (i - lo).max(1) as u64) as usize
                    }
                })
                .collect();
            let net = from_parent_fn(n, &spec, &mut rng, |i| (i > 0).then(|| parents[i]));

            let cfg = SolverConfig::default();
            let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            let mut gpu = GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2));
            let par = gpu.solve(&net, &cfg);

            prop_assert_eq!(serial.converged(), par.converged());
            prop_assert_eq!(serial.iterations, par.iterations);
            if serial.converged() {
                let scale = net.source_voltage().abs();
                for bus in 0..n {
                    prop_assert!(
                        (serial.v[bus] - par.v[bus]).abs() < 1e-8 * scale,
                        "bus {}: {:?} vs {:?}",
                        bus,
                        serial.v[bus],
                        par.v[bus]
                    );
                }
                fbs::validate::assert_physical(&net, &par, 1e-4);
            }
            Ok(())
        },
    );
}

#[test]
fn backward_strategies_agree() {
    checker("backward_strategies_agree").cases(24).run(
        arbitrary_tree(),
        |&(n, seed, window, _)| -> CaseResult {
            let spec = GenSpec::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let parents: Vec<usize> = (0..n)
                .map(|i| {
                    if i == 0 {
                        usize::MAX
                    } else {
                        i.saturating_sub(1 + (seed as usize + i) % window.min(i))
                    }
                })
                .collect();
            let net = from_parent_fn(n, &spec, &mut rng, |i| (i > 0).then(|| parents[i]));

            let cfg = SolverConfig::default();
            let a = GpuSolver::with_strategy(
                Device::with_workers(DeviceProps::paper_rig(), 2),
                BackwardStrategy::SegScan,
            )
            .solve(&net, &cfg);
            let b = GpuSolver::with_strategy(
                Device::with_workers(DeviceProps::paper_rig(), 2),
                BackwardStrategy::Direct,
            )
            .solve(&net, &cfg);
            prop_assert_eq!(a.converged(), b.converged());
            let scale = net.source_voltage().abs();
            for bus in 0..n {
                prop_assert!((a.v[bus] - b.v[bus]).abs() < 1e-8 * scale);
            }
            Ok(())
        },
    );
}

/// Three-phase GPU vs serial on random phase-expanded trees.
#[test]
fn three_phase_gpu_matches_serial() {
    checker("three_phase_gpu_matches_serial").cases(16).run(
        tuple3(usize_in(2..300), u64_any(), f64_in(0.0..0.6)),
        |&(n, seed, unbalance)| -> CaseResult {
            use fbs::{Gpu3Solver, Serial3Solver};
            use powergrid::three_phase::from_single_phase;

            let mut rng = StdRng::seed_from_u64(seed);
            let net1 = powergrid::gen::random_tree(n, 8, &GenSpec::default(), &mut rng);
            let net3 = from_single_phase(&net1, unbalance, 0.25, &mut rng);

            let cfg = SolverConfig::default();
            let s = Serial3Solver::new(HostProps::paper_rig()).solve(&net3, &cfg);
            let mut gpu = Gpu3Solver::new(Device::with_workers(DeviceProps::paper_rig(), 2));
            let g = gpu.solve(&net3, &cfg);
            prop_assert_eq!(s.converged(), g.converged());
            if s.converged() {
                let scale = net3.source_voltage().abs_max();
                for bus in 0..n {
                    for (x, y) in s.v[bus].phases().iter().zip(g.v[bus].phases()) {
                        prop_assert!((*x - y).abs() < 1e-8 * scale, "bus {}", bus);
                    }
                }
            }
            Ok(())
        },
    );
}

/// `(kind, iteration)` of a status: a deadline hit at the same iteration
/// matches whatever modeled time each path had spent by then.
fn status_shape(s: SolveStatus) -> (&'static str, Option<u32>) {
    let at = match s {
        SolveStatus::DeadlineExceeded { at_iteration, .. }
        | SolveStatus::Diverged { at_iteration, .. }
        | SolveStatus::NumericalFailure { at_iteration } => Some(at_iteration),
        _ => None,
    };
    (status_key(&s), at)
}

/// `GpuSolver::new` routes each solve to the fused sweep or the level
/// path; either way it reaches the pinned level path's answer, status
/// and iteration count, keeps one residual per iteration, and never
/// spends more modeled time — on binary, chain, star, k-ary and random
/// trees, cold and warm, with no deadline, one cut at the first
/// iteration, or one never reached.
#[test]
fn routed_gpu_matches_the_pinned_level_path() {
    checker("routed_gpu_matches_the_pinned_level_path").cases(32).run(
        tuple4(usize_in(0..5), usize_in(1..700), u64_any(), usize_in(0..6)),
        |&(shape, n, seed, mode)| -> CaseResult {
            let spec = GenSpec::default();
            let mut rng = StdRng::seed_from_u64(seed);
            let net = match shape {
                0 => balanced_binary(n, &spec, &mut rng),
                1 => chain(n, &spec, &mut rng),
                2 => star(n, &spec, &mut rng),
                3 => balanced_kary(n, 2 + seed as usize % 8, &spec, &mut rng),
                _ => random_tree(n, 1 + seed as usize % 32, &spec, &mut rng),
            };
            let a = fbs::SolverArrays::new(&net);
            let deadline_us = [None, Some(1.0), Some(1e12)][mode % 3];
            let cfg = SolverConfig { deadline_us, ..SolverConfig::default() };
            // Warm: a perturbed fixed point, the same for both paths.
            let warm: Option<Vec<Complex>> = (mode >= 3).then(|| {
                let cold = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, &cfg);
                cold.v.iter().map(|v| *v * 0.999).collect()
            });
            let dev = || Device::with_workers(DeviceProps::paper_rig(), 2);
            let routed = GpuSolver::new(dev()).solve_warm(&a, &cfg, warm.as_deref());
            let mut level = GpuSolver::with_strategy(dev(), BackwardStrategy::SegScan);
            let pinned = level.solve_warm(&a, &cfg, warm.as_deref());

            prop_assert_eq!(status_shape(routed.status), status_shape(pinned.status));
            prop_assert_eq!(routed.iterations, pinned.iterations);
            prop_assert_eq!(routed.residual_history.len(), pinned.residual_history.len());
            prop_assert_eq!(routed.residual_history.len(), routed.iterations as usize);
            let scale = net.source_voltage().abs();
            for bus in 0..net.num_buses() {
                let d = (routed.v[bus] - pinned.v[bus]).abs();
                prop_assert!(d <= 1e-9 * scale, "bus {bus} off by {d:e} V");
            }
            let (r_us, p_us) = (routed.timing.total_us(), pinned.timing.total_us());
            prop_assert!(r_us <= p_us, "routed {r_us:.2} µs > pinned {p_us:.2} µs");
            Ok(())
        },
    );
}
