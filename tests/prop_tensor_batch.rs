//! Property suite for the tensor batch engine
//! ([`fbs::TensorBatchSolver`]): the fused (level × batch) path must be
//! indistinguishable from running the serial solver once per scenario.
//!
//! Four property families, each over randomized trees and scenario sets:
//!
//! 1. **Equivalence** — the device-side scaled mode is bitwise-equal to
//!    the explicit one. Per-scenario agreement with the serial solver
//!    (1e-9 V, identical iteration counts, statuses and residuals) is the
//!    `tensor` family of the differential oracle, `tests/oracle.rs`.
//! 2. **Masking** — injected divergent/NaN scenarios are frozen early and
//!    never perturb the healthy lanes (bitwise).
//! 3. **Determinism** — results are byte-identical across repeat runs,
//!    across batch orderings, and across chunk sizes.
//! 4. **Fault recovery** — under a seeded fault plan the batched path
//!    still lands every scenario on the fault-free serial answer. The
//!    oracle's `tensor` and `outages` families carry the same arm over
//!    wider trees and over outage-patched batches.

use std::cell::Cell;

use check::gen::{tuple3, tuple4, u64_any, usize_in};
use check::{checker, prop_assert, CaseResult};
use fbs::{
    Scenarios, SerialSolver, SolveStatus, SolverArrays, SolverConfig, TensorBatchResult,
    TensorBatchSolver,
};
use numc::{c, Complex};
use powergrid::gen::{random_tree, GenSpec};
use powergrid::RadialNetwork;
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::{Device, DeviceProps, FaultPlan, HostProps};

fn device() -> Device {
    Device::with_workers(DeviceProps::paper_rig(), 2)
}

/// Explicit-load batch solve on a fresh solver.
fn solve(net: &RadialNetwork, scenarios: &[Vec<Complex>], cfg: &SolverConfig) -> TensorBatchResult {
    TensorBatchSolver::new(device()).solve_arrays(&SolverArrays::new(net), scenarios, cfg)
}

fn base_loads(net: &RadialNetwork) -> Vec<Complex> {
    net.buses().iter().map(|b| b.load).collect()
}

/// Per-bus jittered load scenarios: scenario `s` scales every bus load by
/// an independent factor in `[0.5, 1.5)`, so scenarios are not mere
/// scalings of each other.
fn jittered_scenarios(net: &RadialNetwork, nb: usize, seed: u64) -> Vec<Vec<Complex>> {
    let base = base_loads(net);
    (0..nb)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(seed ^ (s as u64).wrapping_mul(0x9e37_79b9));
            base.iter().map(|&l| l * rng.gen_range(0.5..1.5)).collect()
        })
        .collect()
}

/// Serial reference for one explicit scenario: the same level-order
/// arrays with the scenario's loads substituted in.
fn serial_reference(
    a: &SolverArrays,
    scenario: &[Complex],
    cfg: &SolverConfig,
) -> fbs::SolveResult {
    let mut a2 = a.clone();
    for (p, slot) in a2.s.iter_mut().enumerate() {
        *slot = scenario[a.levels.order[p] as usize];
    }
    SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a2, cfg)
}

// ---------------------------------------------------------------- family 1

/// The device-side scaled mode (`loads = base × k` synthesised on device)
/// is bitwise-equal to uploading the same scenarios explicitly.
#[test]
fn family1_scaled_mode_is_bitwise_equal_to_explicit() {
    checker("scaled_mode_is_bitwise_equal_to_explicit").cases(10).run(
        tuple3(usize_in(2..200), usize_in(1..9), u64_any()),
        |&(n, nb, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 8, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default();
            let scales: Vec<f64> = (0..nb).map(|_| rng.gen_range(0.4..1.4)).collect();
            let base = base_loads(&net);
            let explicit_scen: Vec<Vec<Complex>> =
                scales.iter().map(|&k| base.iter().map(|&l| l * k).collect()).collect();

            let scaled = TensorBatchSolver::new(device())
                .solve(&SolverArrays::new(&net), Scenarios::Scaled(&scales), &cfg);
            let explicit = solve(&net, &explicit_scen, &cfg);
            prop_assert!(scaled.statuses == explicit.statuses, "statuses differ");
            prop_assert!(
                scaled.per_scenario_iterations == explicit.per_scenario_iterations,
                "iteration counts differ"
            );
            for s in 0..nb {
                prop_assert!(
                    scaled.v[s] == explicit.v[s] && scaled.j[s] == explicit.j[s],
                    "scenario {s}: scaled mode diverged bitwise from explicit mode"
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- family 2

/// Divergent and NaN scenarios injected at random batch positions must be
/// frozen early with failure statuses, while every healthy lane stays
/// bitwise-identical to a batch without the sick lanes.
#[test]
fn family2_masking_isolates_injected_divergence() {
    checker("masking_isolates_injected_divergence").cases(12).run(
        tuple4(usize_in(3..200), usize_in(2..7), usize_in(1..4), u64_any()),
        |&(n, healthy_nb, sick_nb, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 8, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default();
            let healthy = jittered_scenarios(&net, healthy_nb, seed);
            let base = base_loads(&net);

            // Sick lanes: overloads far past voltage collapse, plus an
            // occasional NaN load.
            let mut sick: Vec<Vec<Complex>> = Vec::new();
            for k in 0..sick_nb {
                if k % 3 == 2 {
                    let mut s = base.clone();
                    // Never bus 0: a NaN load on the slack bus is inert
                    // (its voltage is pinned, its load never enters a
                    // voltage update), so that scenario would converge.
                    let bus = rng.gen_range(1..n);
                    s[bus] = c(f64::NAN, 0.0);
                    sick.push(s);
                } else {
                    let factor = 10f64.powi(5 + rng.gen_range(0..4usize) as i32);
                    sick.push(base.iter().map(|&l| l * factor).collect());
                }
            }

            // Interleave sick lanes at random positions.
            let mut scenarios = healthy.clone();
            let mut sick_at = Vec::new();
            for s in sick {
                let at = rng.gen_range(0..scenarios.len() + 1);
                scenarios.insert(at, s);
                for a in sick_at.iter_mut().filter(|a| **a >= at) {
                    *a += 1;
                }
                sick_at.push(at);
            }

            let clean = solve(&net, &healthy, &cfg);
            let mixed = solve(&net, &scenarios, &cfg);

            let mut healthy_idx = 0usize;
            for (lane, _) in scenarios.iter().enumerate() {
                if sick_at.contains(&lane) {
                    prop_assert!(
                        !mixed.statuses[lane].is_converged(),
                        "sick lane {lane} reported {}",
                        mixed.statuses[lane]
                    );
                    prop_assert!(
                        mixed.per_scenario_iterations[lane] < cfg.max_iter,
                        "sick lane {lane} burned the whole iteration budget"
                    );
                } else {
                    prop_assert!(
                        mixed.statuses[lane] == clean.statuses[healthy_idx],
                        "healthy lane {lane} status changed: {} vs {}",
                        mixed.statuses[lane],
                        clean.statuses[healthy_idx]
                    );
                    prop_assert!(
                        mixed.per_scenario_iterations[lane]
                            == clean.per_scenario_iterations[healthy_idx],
                        "healthy lane {lane} iteration count perturbed by sick lanes"
                    );
                    prop_assert!(
                        mixed.v[lane] == clean.v[healthy_idx],
                        "healthy lane {lane} voltages perturbed by sick lanes"
                    );
                    healthy_idx += 1;
                }
            }
            prop_assert!(!mixed.converged(), "a batch with sick lanes cannot be all-converged");
            prop_assert!(
                mixed.worst_status()
                    == sick_at
                        .iter()
                        .fold(SolveStatus::Converged, |w, &i| w.worse(mixed.statuses[i])),
                "worst_status must come from the sick lanes"
            );
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- family 3

/// Byte-determinism: repeat runs, permuted batch orderings, and different
/// chunk sizes all produce identical bytes per scenario.
#[test]
fn family3_determinism_across_runs_orderings_and_chunks() {
    checker("determinism_across_runs_orderings_and_chunks").cases(10).run(
        tuple3(usize_in(2..180), usize_in(2..10), u64_any()),
        |&(n, nb, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 8, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default();
            let scenarios = jittered_scenarios(&net, nb, seed);

            let run = |scen: &[Vec<Complex>], chunk: Option<usize>| {
                let mut solver = TensorBatchSolver::new(device());
                if let Some(c) = chunk {
                    solver = solver.with_chunk_scenarios(c);
                }
                solver.solve_arrays(&SolverArrays::new(&net), scen, &cfg)
            };

            // Repeat runs are byte-identical.
            let a = run(&scenarios, None);
            let b = run(&scenarios, None);
            prop_assert!(
                a.v == b.v && a.j == b.j && a.residuals == b.residuals,
                "two identical solves differ"
            );
            prop_assert!(a.statuses == b.statuses && a.iterations == b.iterations);

            // Chunked solves are byte-identical to unchunked.
            let chunked = run(&scenarios, Some(1 + nb / 3));
            prop_assert!(
                chunked.v == a.v && chunked.residuals == a.residuals,
                "chunking changed the results"
            );

            // A reversed batch ordering permutes the outputs and nothing
            // else — scenario identity is order-free.
            let reversed: Vec<Vec<Complex>> = scenarios.iter().rev().cloned().collect();
            let r = run(&reversed, None);
            for s in 0..nb {
                let o = nb - 1 - s;
                prop_assert!(
                    r.v[s] == a.v[o]
                        && r.j[s] == a.j[o]
                        && r.residuals[s] == a.residuals[o]
                        && r.statuses[s] == a.statuses[o]
                        && r.per_scenario_iterations[s] == a.per_scenario_iterations[o],
                    "scenario {o} changed bytes when the batch was reversed"
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- family 4

/// Seeded-fault recovery parity: with a fault plan armed, every scenario
/// must still land on the fault-free serial answer to 1e-9 V — via the
/// recovery loop's rollbacks, a chunk restart, or degrading to serial
/// solves, whichever the injected weather requires.
#[test]
fn family4_seeded_faults_cannot_corrupt_the_batch() {
    let faults_seen = Cell::new(0u64);
    checker("seeded_faults_cannot_corrupt_the_batch").cases(15).run(
        tuple3(usize_in(20..160), usize_in(2..7), u64_any()),
        |&(n, nb, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = random_tree(n, 8, &GenSpec::default(), &mut rng);
            // Tight tolerance: the serial re-solve and the device path
            // agree to well under the 1e-9 parity bound.
            let cfg = SolverConfig::new(1e-12, 200);
            let scenarios = jittered_scenarios(&net, nb, seed);

            // The tensor path issues few device ops per solve (one fused
            // launch and one read per iteration), so the per-op rate is
            // high to make the plan actually fire.
            let mut dev = device();
            dev.arm_faults(FaultPlan::seeded(seed ^ 0xfau64, 0.03));
            let mut solver = TensorBatchSolver::new(dev);
            let a = SolverArrays::new(&net);
            let res = solver.solve(&a, Scenarios::Explicit(&scenarios), &cfg);

            if let Some(fr) = &res.fault_report {
                faults_seen.set(faults_seen.get() + u64::from(fr.faults_injected));
            }
            for (s, scenario) in scenarios.iter().enumerate() {
                prop_assert!(
                    res.statuses[s].is_converged(),
                    "scenario {s} under faults: {}",
                    res.statuses[s]
                );
                let serial = serial_reference(&a, scenario, &cfg);
                for bus in 0..net.num_buses() {
                    let d = (res.v[s][bus] - serial.v[bus]).abs();
                    prop_assert!(
                        d < 1e-9,
                        "scenario {s} bus {bus}: faulted solve off by {d:.3e} V"
                    );
                }
            }
            Ok(())
        },
    );
    assert!(
        faults_seen.get() >= 1,
        "the seeded plans never fired — the recovery property was vacuous"
    );
}
