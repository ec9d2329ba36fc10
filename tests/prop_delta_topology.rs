//! Property suite for delta-topology solves ([`powergrid::TopologyDelta`]):
//! editing a network in place and solving the delta must be
//! indistinguishable from rebuilding it from scratch.
//!
//! Three property families, each over randomized trees and deltas:
//!
//! 1. **Revertibility** — `apply` then `revert` restores the original
//!    network *bitwise* (every load, branch endpoint and impedance),
//!    for every delta kind, including repeated cycles.
//! 2. **Equivalence** — solving a delta-applied network equals solving a
//!    from-scratch rebuild of the same topology to 1e-9 V.
//! 3. **Warm starts** — seeding a post-delta solve from the base-case
//!    profile lands on the same voltages (within tolerance) in no more
//!    iterations than a cold start.
//!
//! Screening parity (outage-patched tensor batches against per-outage
//! serial re-solves) is the `outages` family of the differential oracle,
//! `tests/oracle.rs`.

use check::gen::{tuple3, u64_any, usize_in};
use check::{checker, prop_assert, CaseResult};
use fbs::{SerialSolver, SolverArrays, SolverConfig};
use numc::c;
use powergrid::gen::{random_tree, GenSpec};
use powergrid::{DeltaOp, NetworkBuilder, RadialNetwork, TopologyDelta};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::HostProps;

/// Every bit of observable network state, as raw words: source voltage,
/// per-bus loads, per-branch endpoints and impedances.
fn fingerprint(net: &RadialNetwork) -> Vec<u64> {
    let mut bits = vec![
        net.source_voltage().re.to_bits(),
        net.source_voltage().im.to_bits(),
        net.root() as u64,
    ];
    for b in net.buses() {
        bits.push(b.load.re.to_bits());
        bits.push(b.load.im.to_bits());
    }
    for br in net.branches() {
        bits.push(br.from as u64);
        bits.push(br.to as u64);
        bits.push(br.z.re.to_bits());
        bits.push(br.z.im.to_bits());
    }
    bits
}

/// A random valid delta for `net`, drawn from all three kinds.
fn random_delta(net: &RadialNetwork, rng: &mut StdRng) -> TopologyDelta {
    let n = net.num_buses();
    let root = net.root();
    loop {
        let bus = rng.gen_range(0..n);
        if bus == root {
            continue;
        }
        match rng.gen_range(0..3u32) {
            0 => return TopologyDelta::outage(net, bus).unwrap(),
            1 => {
                let z = c(rng.gen_range(0.05..2.0), rng.gen_range(-0.5..1.5));
                return TopologyDelta::impedance(net, bus, z).unwrap();
            }
            _ => {
                // A splice needs a new parent outside the moved subtree;
                // retry the whole draw when the candidate is inside it.
                let new_parent = rng.gen_range(0..n);
                let z = c(rng.gen_range(0.05..2.0), rng.gen_range(0.0..1.5));
                if let Ok(d) = TopologyDelta::splice(net, bus, new_parent, z) {
                    return d;
                }
            }
        }
    }
}

/// A from-scratch rebuild of `net` as it currently stands (post-delta):
/// same buses, same branches, fed through `NetworkBuilder` validation.
fn rebuild(net: &RadialNetwork) -> RadialNetwork {
    let mut b = NetworkBuilder::new(net.source_voltage());
    for bus in net.buses() {
        b.add_bus(bus.load);
    }
    for br in net.branches() {
        b.connect(br.from, br.to, br.z);
    }
    b.build().expect("a delta-applied network must still be a valid radial network")
}

// ---------------------------------------------------------------- family 1

/// `apply` + `revert` restores the original network bitwise, and the
/// cycle is repeatable.
#[test]
fn family1_apply_revert_is_bitwise_identity() {
    checker("apply_revert_is_bitwise_identity").cases(25).run(
        tuple3(usize_in(2..300), usize_in(1..4), u64_any()),
        |&(n, cycles, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let original = random_tree(n, 6, &GenSpec::default(), &mut rng);
            let before = fingerprint(&original);

            let mut net = original.clone();
            let mut delta = random_delta(&net, &mut rng);
            for cycle in 0..cycles {
                delta.apply(&mut net).expect("apply");
                if !matches!(delta.op(), DeltaOp::Outage { .. }) {
                    prop_assert!(
                        fingerprint(&net) != before,
                        "cycle {cycle}: applying {:?} changed nothing",
                        delta.op()
                    );
                }
                delta.revert(&mut net).expect("revert");
                prop_assert!(
                    fingerprint(&net) == before,
                    "cycle {cycle}: revert of {:?} is not bitwise",
                    delta.op()
                );
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- family 2

/// Solving the delta-applied network is indistinguishable (1e-9 V) from
/// solving a from-scratch rebuild of the same topology.
#[test]
fn family2_delta_solve_equals_rebuild_solve() {
    checker("delta_solve_equals_rebuild_solve").cases(20).run(
        tuple3(usize_in(2..300), usize_in(1..5), u64_any()),
        |&(n, deltas, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut net = random_tree(n, 6, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default();
            // A chain of deltas (applied, never reverted) stresses the
            // in-place path against accumulated edits.
            for _ in 0..deltas {
                let mut d = random_delta(&net, &mut rng);
                d.apply(&mut net).expect("apply");
            }

            let serial = SerialSolver::new(HostProps::paper_rig());
            let direct = serial.solve(&net, &cfg);
            let rebuilt = serial.solve(&rebuild(&net), &cfg);
            prop_assert!(
                direct.status == rebuilt.status && direct.iterations == rebuilt.iterations,
                "delta-applied solve ({}, {} iters) vs rebuild ({}, {} iters)",
                direct.status,
                direct.iterations,
                rebuilt.status,
                rebuilt.iterations
            );
            for bus in 0..net.num_buses() {
                let d = (direct.v[bus] - rebuilt.v[bus]).abs();
                prop_assert!(d < 1e-9, "bus {bus}: delta vs rebuild differ by {d:.3e} V");
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------- family 3

/// A warm start from the base-case profile lands within solver tolerance
/// of the cold answer and is at worst one iteration behind — when the
/// delta sheds most of the load (an outage near the root), the flat
/// start can coincidentally sit *closer* to the new fixed point than the
/// sagging base profile, so strict `warm <= cold` is not a law. It must
/// still hold in the overwhelming majority of cases.
#[test]
fn family3_warm_start_costs_no_iterations() {
    let total = std::cell::Cell::new(0usize);
    let no_worse = std::cell::Cell::new(0usize);
    checker("warm_start_costs_no_iterations").cases(20).run(
        tuple3(usize_in(3..300), usize_in(1..3), u64_any()),
        |&(n, deltas, seed)| -> CaseResult {
            let mut rng = StdRng::seed_from_u64(seed);
            let base_net = random_tree(n, 6, &GenSpec::default(), &mut rng);
            let cfg = SolverConfig::default().with_warm_start();
            let serial = SerialSolver::new(HostProps::paper_rig());
            let base = serial.solve(&base_net, &cfg);
            prop_assert!(base.status.is_converged(), "base case must converge");

            let mut net = base_net.clone();
            for _ in 0..deltas {
                let mut d = random_delta(&net, &mut rng);
                d.apply(&mut net).expect("apply");
            }
            let a = SolverArrays::new(&net);
            let cold = serial.solve_arrays(&a, &cfg);
            let warm = serial.solve_warm(&a, &cfg, Some(&base.v));
            prop_assert!(
                warm.status == cold.status,
                "warm {} vs cold {}",
                warm.status,
                cold.status
            );
            total.set(total.get() + 1);
            if warm.iterations <= cold.iterations {
                no_worse.set(no_worse.get() + 1);
            }
            prop_assert!(
                warm.iterations <= cold.iterations + 1,
                "warm start took {} iterations, cold took {}",
                warm.iterations,
                cold.iterations
            );
            // Both stop within tol of the same fixed point, approached
            // along different paths.
            let tol = 2.0 * cfg.tol_volts(net.source_voltage().abs());
            for bus in 0..net.num_buses() {
                let d = (warm.v[bus] - cold.v[bus]).abs();
                prop_assert!(d < tol, "bus {bus}: warm vs cold differ by {d:.3e} V");
            }
            Ok(())
        },
    );
    assert!(
        no_worse.get() * 4 >= total.get() * 3,
        "warm start must cost no iterations in >=75% of cases ({}/{})",
        no_worse.get(),
        total.get()
    );
}
