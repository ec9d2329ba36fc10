//! Unbalanced three-phase forward-backward sweep.
//!
//! The production form of the paper's method: real feeders are
//! unbalanced, so voltages/currents are per-phase triples ([`CVec3`])
//! and every branch carries a full 3×3 phase impedance matrix
//! ([`CMat3`]) with Carson mutual coupling. The sweep structure is
//! unchanged —
//!
//! 1. injection per phase: `I_φ = conj(S_φ / V_φ)`,
//! 2. backward: per-level sums of `CVec3` branch currents (the level
//!    kernels and primitives are generic over the element type, so the
//!    same kernels carry 48-byte phase triples, with any backward
//!    strategy),
//! 3. forward: `V = V_parent − Z·J` where `Z·J` is a 3×3 complex
//!    mat-vec — ~8× the arithmetic per bus of the single-phase solver,
//!    which shifts kernels from latency- toward compute/bandwidth-bound
//!    and moves the GPU crossover to smaller trees (experiment E11).
//! 4. convergence on the worst phase: `max_bus max_φ |ΔV_φ|`, NaN when
//!    any phase is ([`crate::Phasor::norm`]).
//!
//! No loop and no kernel lives here: the serial reference is
//! [`crate::SerialSolver`]'s sweep over phase triples ([`Serial3Solver`]),
//! the device solve is [`crate::GpuSolver::solve3`] over the one set of
//! level kernels, and the DG loop is [`crate::solve_dg`]. Three-phase-only
//! are the arrays ([`Arrays3`]). A balanced system degenerates to three
//! rotated single-phase solutions, which the tests exploit as an oracle.

use numc::{CMat3, CVec3};
use powergrid::three_phase::ThreePhaseNetwork;
use simt::HostProps;

use telemetry::Recorder;

use crate::arrays::LevelArrays;
use crate::config::SolverConfig;
use crate::report::SolveResult;
use crate::serial::SerialSolver;

/// Level-ordered three-phase solver arrays: per-position phase-triple
/// loads and 3×3 branch impedance matrices around the single-phase
/// topology arrays.
pub type Arrays3 = LevelArrays<CVec3, CMat3>;

impl Arrays3 {
    /// Builds the arrays for a three-phase network.
    pub fn new(net: &ThreePhaseNetwork) -> Self {
        let levels = net.level_order();
        let s = levels.order.iter().map(|&b| net.buses()[b as usize].load).collect();
        let z = levels
            .order
            .iter()
            .map(|&b| net.parent_branch(b as usize).map_or(CMat3::ZERO, |br| br.z))
            .collect();
        LevelArrays::with_loads(levels, net.source_voltage(), s, z)
    }
}

/// Result of a three-phase solve: per-bus phase triples, worst-phase
/// residuals.
pub type Solve3Result = SolveResult<CVec3>;

/// The serial reference for three-phase networks: [`SerialSolver`]'s
/// sweep over phase triples.
#[derive(Clone, Debug, Default)]
pub struct Serial3Solver(SerialSolver);

impl Serial3Solver {
    /// Creates a solver modeled on the given host.
    pub fn new(host: HostProps) -> Self {
        Serial3Solver(SerialSolver::new(host))
    }

    /// Attaches a telemetry recorder ([`SerialSolver::with_recorder`]).
    pub fn with_recorder(self, rec: Recorder) -> Self {
        Serial3Solver(self.0.with_recorder(rec))
    }

    /// Solves a three-phase network.
    pub fn solve(&self, net: &ThreePhaseNetwork, cfg: &SolverConfig) -> Solve3Result {
        self.0.solve_arrays(&Arrays3::new(net), cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phasor::Phasor;
    use crate::status::SolveStatus;
    use crate::GpuSolver;
    use numc::{c, Complex};
    use powergrid::three_phase::{ieee13_unbalanced, ThreePhaseBuilder};
    use powergrid::NetworkBuilder;
    use simt::{Device, DeviceProps};

    fn gpu3() -> GpuSolver {
        GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2))
    }

    /// A balanced three-phase network with diagonal impedances must
    /// reproduce the single-phase solution on every phase (rotated by
    /// the phase angles).
    #[test]
    fn balanced_system_degenerates_to_single_phase() {
        // Single-phase original: 3-bus chain.
        let mut b1 = NetworkBuilder::new(c(2400.0, 0.0));
        b1.add_bus(Complex::ZERO);
        b1.add_bus(c(50e3, 20e3));
        b1.add_bus(c(30e3, 10e3));
        b1.connect(0, 1, c(0.4, 0.3));
        b1.connect(1, 2, c(0.5, 0.2));
        let net1 = b1.build().unwrap();

        // Balanced three-phase copy.
        let mut b3 = ThreePhaseBuilder::new(CVec3::balanced(2400.0));
        b3.add_bus(CVec3::ZERO);
        b3.add_bus(CVec3::splat(c(50e3, 20e3)));
        b3.add_bus(CVec3::splat(c(30e3, 10e3)));
        b3.connect(0, 1, CMat3::diag(c(0.4, 0.3)));
        b3.connect(1, 2, CMat3::diag(c(0.5, 0.2)));
        let net3 = b3.build().unwrap();

        let cfg = SolverConfig::default();
        let r1 = SerialSolver::new(HostProps::paper_rig()).solve(&net1, &cfg);
        let r3 = Serial3Solver::new(HostProps::paper_rig()).solve(&net3, &cfg);
        assert!(r1.converged() && r3.converged());
        assert_eq!(r1.iterations, r3.iterations, "identical per-phase iterates");

        // Phase a is un-rotated: matches the single-phase solution.
        for bus in 0..3 {
            assert!(
                (r3.v[bus].a - r1.v[bus]).abs() < 1e-6,
                "bus {bus}: {:?} vs {:?}",
                r3.v[bus].a,
                r1.v[bus]
            );
            // Phase magnitudes agree across phases (balanced).
            assert!(r3.v[bus].unbalance() < 1e-9);
        }
    }

    /// A NaN in one phase of the state must reach the convergence norm of
    /// both the serial sweep and the level kernels; `CVec3::abs_max`
    /// drops it. A warm start puts it at a zero-load leaf, whose other
    /// phases stay finite and whose first forward update overwrites it,
    /// so only the norm can see it.
    #[test]
    fn a_nan_phase_reaches_the_residual() {
        let mut b = ThreePhaseBuilder::new(CVec3::balanced(2400.0));
        b.add_bus(CVec3::ZERO);
        b.add_bus(CVec3::splat(c(50e3, 20e3)));
        b.add_bus(CVec3::ZERO);
        b.connect(0, 1, CMat3::diag(c(0.4, 0.3)));
        b.connect(1, 2, CMat3::diag(c(0.4, 0.3)));
        let a = Arrays3::new(&b.build().unwrap());
        let mut warm = vec![CVec3::balanced(2400.0); 3];
        warm[2].b = c(f64::NAN, 0.0);
        let cfg = SolverConfig::default();
        let serial = SerialSolver::new(HostProps::paper_rig()).solve_warm(&a, &cfg, Some(&warm));
        let gpu = gpu3().solve3_warm(&a, &cfg, Some(&warm));
        for (name, res) in [("serial", serial), ("gpu", gpu)] {
            let first = res.residual_history[0];
            assert!(first.is_nan(), "{name}: first residual {first}, {}", res.status);
            let failed = matches!(res.status, SolveStatus::NumericalFailure { at_iteration: 1 });
            assert!(failed, "{name}: a NaN phase ended {}", res.status);
        }
    }

    #[test]
    fn gpu_matches_serial_on_unbalanced_ieee13() {
        let net = ieee13_unbalanced();
        let cfg = SolverConfig::default();
        let s = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let g = gpu3().solve3(&net, &cfg);
        assert!(s.converged() && g.converged());
        assert_eq!(s.iterations, g.iterations);
        for bus in 0..net.num_buses() {
            for (x, y) in s.v[bus].phases().iter().zip(g.v[bus].phases()) {
                assert!((*x - y).abs() < 1e-6, "bus {bus}");
            }
        }
    }

    #[test]
    fn unbalanced_feeder_shows_phase_separation() {
        let net = ieee13_unbalanced();
        let res = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &SolverConfig::default());
        assert!(res.converged());
        let (unb, bus) = res.max_unbalance();
        assert!(unb > 0.005, "published ieee13 loading is visibly unbalanced: {unb} at {bus}");
        // Phase with the heaviest load sags hardest at bus 675 (a-phase
        // 485 kW vs b-phase 68 kW).
        let v675 = res.v[12];
        assert!(v675.a.abs() < v675.b.abs(), "{v675:?}");
    }

    #[test]
    fn kcl_holds_per_phase() {
        let net = ieee13_unbalanced();
        let res = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &SolverConfig::new(1e-10, 200));
        assert!(res.converged());
        let n = net.num_buses();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for bus in 0..n {
            if let Some(p) = net.parent(bus) {
                children[p].push(bus);
            }
        }
        for (bus, kids) in children.iter().enumerate() {
            let i_load = CVec3::inject(net.buses()[bus].load, res.v[bus]);
            let child_sum = kids.iter().fold(CVec3::ZERO, |acc, &c| acc + res.j[c]);
            let kcl = res.j[bus] - i_load - child_sum;
            assert!(kcl.abs_max() < 1e-4, "bus {bus}: KCL residual {:?}", kcl);
        }
    }

    #[test]
    fn mutual_coupling_matters() {
        // The same feeder with mutual terms zeroed must produce a
        // *different* solution — guards against accidentally ignoring
        // the off-diagonals.
        let net = ieee13_unbalanced();
        let mut uncoupled = ThreePhaseBuilder::new(net.source_voltage());
        for bus in net.buses() {
            uncoupled.add_bus(bus.load);
        }
        for br in net.branches() {
            let mut z = CMat3::ZERO;
            for p in 0..3 {
                z.m[p][p] = br.z.m[p][p];
            }
            uncoupled.connect(br.from, br.to, z);
        }
        let uncoupled = uncoupled.build().unwrap();

        let cfg = SolverConfig::default();
        let with = Serial3Solver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let without = Serial3Solver::new(HostProps::paper_rig()).solve(&uncoupled, &cfg);
        let max_diff = (0..net.num_buses())
            .map(|b| (with.v[b] - without.v[b]).abs_max())
            .fold(0.0f64, f64::max);
        assert!(max_diff > 1.0, "coupling must move voltages by volts, got {max_diff}");
    }
}
