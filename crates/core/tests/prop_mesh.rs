//! Property tests of the mesh/DG subsystem over randomized instances:
//!
//! 1. a meshed network whose ties are all **open** is bitwise identical
//!    to the plain radial solve — the outer loop must not engage;
//! 2. a PV generator with wide Q limits holds its bus magnitude at the
//!    set-point to the outer tolerance;
//! 3. a Q-limit-clamped generator is indistinguishable (to 1e-9 of the
//!    source magnitude) from an ordinary PQ bus loaded with the
//!    equivalent constant-power injection at the limit;
//! 4. single-loop compensation lands on the hand-computed Thevenin
//!    loop impedance, and the converged solution satisfies KVL across
//!    the re-closed tie.
//!
//! Cross-backend agreement on meshed/DG instances is the `meshed` family
//! of the differential oracle (`tests/oracle.rs` at the repository root).

use fbs::{MeshProblem, MeshSolver, OuterConfig, OuterStatus, SerialSolver, SolverConfig};
use numc::{c, Complex};
use powergrid::gen::{balanced_binary, random_tree, GenSpec};
use powergrid::{MeshedNetwork, MeshedNetworkBuilder, NetworkBuilder, PvBus, RadialNetwork};
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::HostProps;

const SEEDS: u64 = 8;

fn cfg() -> SolverConfig {
    SolverConfig::default()
}

fn serial_mesh() -> MeshSolver<SerialSolver> {
    MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
}

/// A random radial tree of 33–200 buses.
fn tree(rng: &mut StdRng) -> RadialNetwork {
    let n = rng.gen_range(33usize..200);
    if rng.gen_bool(0.5) {
        balanced_binary(n, &GenSpec::default(), rng)
    } else {
        random_tree(n, 6, &GenSpec::default(), rng)
    }
}

/// Rebuilds `net` as a meshed network, appending `ties` and `gens`.
fn meshed_from(
    net: &RadialNetwork,
    ties: &[(usize, usize, Complex, bool)],
    gens: &[PvBus],
) -> MeshedNetwork {
    let mut b = MeshedNetworkBuilder::new(net.source_voltage());
    for bus in net.buses() {
        b.add_bus(bus.load);
    }
    for br in net.branches() {
        b.connect(br.from, br.to, br.z);
    }
    for &(from, to, z, closed) in ties {
        b.tie(from, to, z, closed);
    }
    for &g in gens {
        b.generator(g);
    }
    b.build().expect("sampled meshed instance must validate")
}

/// Samples up to `want` tie pairs that duplicate no existing edge.
fn sample_ties(
    net: &RadialNetwork,
    rng: &mut StdRng,
    want: usize,
    closed: bool,
) -> Vec<(usize, usize, Complex, bool)> {
    let n = net.num_buses();
    let mut used: std::collections::HashSet<(usize, usize)> = net
        .branches()
        .iter()
        .map(|br| (br.from.min(br.to), br.from.max(br.to)))
        .collect();
    let mut ties = Vec::new();
    for _ in 0..200 {
        if ties.len() == want {
            break;
        }
        let a = rng.gen_range(1usize..n);
        let b = rng.gen_range(1usize..n);
        if a == b || !used.insert((a.min(b), a.max(b))) {
            continue;
        }
        let z = c(rng.gen_range(0.05..0.5), rng.gen_range(0.05..0.5));
        ties.push((a, b, z, closed));
    }
    ties
}

#[test]
fn open_ties_are_a_bitwise_radial_pass_through() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xA11_0DE + seed);
        let net = tree(&mut rng);
        let ties = sample_ties(&net, &mut rng, 3, false);
        assert!(!ties.is_empty(), "seed {seed}: no ties sampled");
        let meshed = meshed_from(&net, &ties, &[]);
        assert!(meshed.is_plain_radial(), "open ties leave the network radial");

        let plain = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg());
        let r = serial_mesh().solve(&meshed, &cfg());
        assert_eq!(r.outer_status, OuterStatus::Radial, "seed {seed}");
        assert_eq!(r.outer_iterations, 0, "seed {seed}");
        for (bus, (a, b)) in r.inner.v.iter().zip(&plain.v).enumerate() {
            assert_eq!(a, b, "seed {seed}: bus {bus} drifted — pass-through must be bitwise");
        }
        assert_eq!(r.inner.iterations, plain.iterations, "seed {seed}");
    }
}

#[test]
fn wide_limit_pv_generators_hold_their_set_point() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xBEEF + seed);
        let net = tree(&mut rng);
        let v0 = net.source_voltage().abs();
        let sagged = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg());
        assert!(sagged.converged());

        // A generator at the feeder's weakest bus, targeting a point
        // between the sagged magnitude and the source, with limits wide
        // enough to never clamp.
        let (vmin, bus) = sagged.min_voltage();
        let v_set = vmin + 0.5 * (v0 - vmin);
        let gen = PvBus { bus, p_gen: 10_000.0, v_set, q_min: -1e9, q_max: 1e9 };
        let meshed = meshed_from(&net, &[], &[gen]);

        let r = serial_mesh().solve(&meshed, &cfg());
        assert!(r.converged(), "seed {seed}: {:?}", r.outer_status);
        let vm = r.inner.v[bus].abs();
        // The outer loop stops once the set-point error is under
        // tol_rel·|V0|; allow a small multiple for the last half-step.
        let tol = 10.0 * OuterConfig::default().tol_rel * v0;
        assert!(
            (vm - v_set).abs() < tol.max(1e-2),
            "seed {seed}: |V[{bus}]| = {vm} vs set-point {v_set}"
        );
    }
}

#[test]
fn clamped_generators_are_equivalent_pq_loads() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC1A49 + seed);
        let net = tree(&mut rng);
        let v0 = net.source_voltage().abs();
        let n = net.num_buses();
        let bus = rng.gen_range(1usize..n);

        // An unreachable set-point over a tiny Q range: the generator
        // must clamp at q_max and behave as a fixed PQ injection.
        let q_max = rng.gen_range(100.0..2_000.0);
        let gen = PvBus { bus, p_gen: 5_000.0, v_set: 1.05 * v0, q_min: -q_max, q_max };
        let meshed = meshed_from(&net, &[], &[gen]);

        // Machine-tight tolerances so both sides converge to the same
        // fixed point rather than to different ends of the band.
        let tight = SolverConfig { tol_rel: 1e-13, ..cfg() };
        let outer = OuterConfig::default().with_tol(1e-12);
        let r = MeshSolver::new(SerialSolver::new(HostProps::paper_rig()))
            .with_outer(outer)
            .solve(&meshed, &tight);
        assert!(r.converged(), "seed {seed}: {:?}", r.outer_status);
        assert_eq!(r.gen_modes[0], fbs::GenMode::ClampedMax, "seed {seed}");
        assert!((r.q_gen[0] - q_max).abs() < 1e-12, "seed {seed}");

        // Reference: the same tree with the clamped injection folded
        // into the bus load as an ordinary PQ draw.
        let mut b = NetworkBuilder::with_capacity(net.source_voltage(), n);
        for (i, bb) in net.buses().iter().enumerate() {
            let mut load = bb.load;
            if i == bus {
                load -= c(gen.p_gen, q_max);
            }
            b.add_bus(load);
        }
        for br in net.branches() {
            b.connect(br.from, br.to, br.z);
        }
        let pq = b.build().unwrap();
        let want = SerialSolver::new(HostProps::paper_rig()).solve(&pq, &tight);
        assert!(want.converged());
        for (i, (a, w)) in r.inner.v.iter().zip(&want.v).enumerate() {
            assert!(
                (*a - *w).abs() < 1e-9 * v0,
                "seed {seed}: bus {i}: clamped gen {a} vs equivalent PQ load {w}"
            );
        }
    }
}

#[test]
fn single_loop_compensation_matches_the_hand_computed_thevenin() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(0x7EE + seed);
        // A hand-checkable ladder: root 0 — 1 — … — (n-1), tie from the
        // far end back to a random ancestor.
        let n = rng.gen_range(4usize..12);
        let anchor = rng.gen_range(0usize..n - 2);
        let mut b = MeshedNetworkBuilder::new(c(2400.0, 0.0));
        let mut zs = Vec::new();
        for i in 0..n {
            let load = if i == 0 { Complex::ZERO } else { c(8_000.0, 2_000.0) };
            b.add_bus(load);
            if i > 0 {
                let z = c(rng.gen_range(0.1..1.0), rng.gen_range(0.1..1.0));
                zs.push(z);
                b.connect(i - 1, i, z);
            }
        }
        let z_tie = c(rng.gen_range(0.1..0.6), rng.gen_range(0.1..0.6));
        b.tie(n - 1, anchor, z_tie, true);
        let meshed = b.build().unwrap();

        // Hand-computed loop impedance: the tree path from the far end
        // down to the anchor, plus the tie's own impedance.
        let hand: Complex = zs[anchor..].iter().sum::<Complex>() + z_tie;
        let p = MeshProblem::new(&meshed);
        assert_eq!(p.num_loops(), 1, "seed {seed}");
        assert!(
            (p.thevenin()[0] - hand).abs() < 1e-12,
            "seed {seed}: Thevenin {:?} vs hand {hand:?}",
            p.thevenin()[0]
        );

        // And the converged solution closes the loop: KVL across the
        // re-closed tie within the outer tolerance.
        let r = serial_mesh().solve(&meshed, &cfg());
        assert!(r.converged(), "seed {seed}: {:?}", r.outer_status);
        let j = r.loop_currents[0];
        let gap = r.inner.v[n - 1] - r.inner.v[anchor] - z_tie * j;
        let tol = OuterConfig::default().tol_rel * 2400.0;
        assert!(gap.abs() <= 10.0 * tol, "seed {seed}: KVL gap {} across the tie", gap.abs());
    }
}
