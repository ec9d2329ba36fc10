//! Unbalanced three-phase forward-backward sweep.
//!
//! The production form of the paper's method: real feeders are
//! unbalanced, so voltages/currents are per-phase triples ([`CVec3`])
//! and every branch carries a full 3×3 phase impedance matrix
//! ([`CMat3`]) with Carson mutual coupling. The sweep structure is
//! unchanged —
//!
//! 1. injection per phase: `I_φ = conj(S_φ / V_φ)`,
//! 2. backward: per-level segmented scan of `CVec3` branch currents
//!    (the primitives are generic over the element type, so the same
//!    kernels carry 48-byte phase triples),
//! 3. forward: `V = V_parent − Z·J` where `Z·J` is a 3×3 complex
//!    mat-vec — ~8× the arithmetic per bus of the single-phase solver,
//!    which shifts kernels from latency- toward compute/bandwidth-bound
//!    and moves the GPU crossover to smaller trees (experiment E11).
//! 4. convergence on the worst phase: `max_bus max_φ |ΔV_φ|`, NaN when
//!    any phase is ([`Phasor::norm`]).
//!
//! No host loop lives here: the serial reference is
//! [`crate::SerialSolver`]'s sweep over phase triples ([`Serial3Solver`])
//! and the DG loop is [`crate::solve_dg`]. Three-phase-only are the
//! arrays ([`Arrays3`]) and the `fbs3_*` kernels of [`Gpu3Solver`]'s
//! session, which the one device loop (`recovery::drive`) steps. A
//! balanced system degenerates to three rotated single-phase solutions,
//! which the tests exploit as an oracle.

use std::time::Instant;

use numc::{CMat3, CVec3};
use powergrid::three_phase::ThreePhaseNetwork;
use primitives::ops::{AddCVec3, MaxAbsF64};
use primitives::{try_launch_map, try_reduce, try_segscan_inclusive_range};
use simt::{Device, DeviceError, HostProps};

use telemetry::Recorder;

use crate::arrays::LevelArrays;
use crate::config::SolverConfig;
use crate::gpu::{BackwardStrategy, GpuSession, LevelPhasor};
use crate::obs::Obs;
use crate::phasor::Phasor;
use crate::recovery;
use crate::report::{invalid_config_result, SolveResult};
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

/// GPU three-phase FBS solver (level-synchronous, segmented scan over
/// phase triples).
pub struct Gpu3Solver {
    device: Device,
    recorder: Option<Recorder>,
}

impl Gpu3Solver {
    /// Creates a solver on the given device.
    pub fn new(device: Device) -> Self {
        Gpu3Solver { device, recorder: None }
    }

    /// Attaches a telemetry recorder: per-iteration/per-phase spans and
    /// residual samples are recorded into it during every solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Solves a three-phase network.
    pub fn solve(&mut self, net: &ThreePhaseNetwork, cfg: &SolverConfig) -> Solve3Result {
        self.solve_arrays(&Arrays3::new(net), cfg)
    }

    /// Solves with pre-built arrays from the flat start.
    pub fn solve_arrays(&mut self, a: &Arrays3, cfg: &SolverConfig) -> Solve3Result {
        self.solve_warm(a, cfg, None)
    }

    /// Solves with pre-built arrays, starting from `v_init` (by bus id)
    /// when given: the one device loop (`recovery::drive`) over a
    /// `Gpu3Session`, with no checkpoints and no retry budget. A device
    /// error or an injected fault it would have to roll back panics.
    pub fn solve_warm(
        &mut self,
        a: &Arrays3,
        cfg: &SolverConfig,
        v_init: Option<&[CVec3]>,
    ) -> Solve3Result {
        let wall0 = Instant::now();
        if cfg.validate().is_err() {
            return invalid_config_result(a.len(), a.source);
        }
        let obs = Obs::new(self.recorder.as_ref(), "solver.gpu3");
        let opened = Gpu3Session::open(&mut self.device, a, v_init, obs.clone());
        recovery::run_plain(opened, wall0, cfg, &obs)
    }
}

/// The three-phase level-synchronous session: the single-phase session's
/// state and bookkeeping over phase triples, with the `fbs3_*` kernels.
pub(crate) type Gpu3Session<'a> = GpuSession<'a, CVec3>;

impl<'a> Gpu3Session<'a> {
    /// Opens a session from the flat start or the warm start `v_init`
    /// (uploads charged to the setup phase). The `fbs3_*` kernels have
    /// the segmented-scan backward sweep only.
    pub(crate) fn open(
        dev: &'a mut Device,
        a: &'a Arrays3,
        v_init: Option<&'a [CVec3]>,
        obs: Obs,
    ) -> Result<Self, DeviceError> {
        Self::with_obs(dev, a, BackwardStrategy::SegScan, v_init, obs)
    }
}

/// The three-phase kernels stay apart from the single-phase ones: the
/// per-phase injection, the 3×3 mat-vec forward update and their flop
/// charges differ, and only the segmented-scan backward sweep has a
/// three-phase form.
impl LevelPhasor for CVec3 {
    fn iterate(sess: &mut Gpu3Session<'_>) -> Result<f64, DeviceError> {
        let dev = &mut *sess.dev;
        let a = sess.a;
        let n = a.len();
        let num_levels = a.levels.num_levels();

        // Injection.
        let mark = dev.timeline().mark();
        {
            let s_v = sess.s_buf.view();
            let v_v = sess.v_buf.view();
            let i_v = sess.i_buf.view_mut();
            try_launch_map(dev, n, "fbs3_inject", move |t, p| {
                let s = t.ld(&s_v, p);
                let v = t.ld(&v_v, p);
                t.flops(CVec3::INJ_FLOPS);
                t.st(&i_v, p, CVec3::inject(s, v));
            })?;
        }
        sess.clock.charge("injection", &dev.timeline().breakdown_since(mark));

        // Backward sweep.
        let mark = dev.timeline().mark();
        for l in (0..num_levels).rev() {
            let range = a.levels.level_range(l);
            let (lo, len) = (range.start, range.len());
            if l + 1 < num_levels {
                let crange = a.levels.level_range(l + 1);
                try_segscan_inclusive_range::<CVec3, AddCVec3>(
                    dev,
                    &sess.j_buf,
                    &sess.flags_buf,
                    crange.start,
                    crange.end,
                    &mut sess.scan_buf,
                )?;
            }
            let i_v = sess.i_buf.view();
            let lo_v = sess.child_lo_buf.view();
            let hi_v = sess.child_hi_buf.view();
            let last_v = sess.seg_last_buf.view();
            let scan_v = sess.scan_buf.view();
            let j_v = sess.j_buf.view_mut();
            try_launch_map(dev, len, "fbs3_backward_combine", move |t, k| {
                let p = lo + k;
                let mut acc = t.ld(&i_v, p);
                if t.ld(&lo_v, p) < t.ld(&hi_v, p) {
                    let tail = t.ld(&last_v, p) as usize;
                    t.flops(CVec3::ADD_FLOPS);
                    acc += t.ld(&scan_v, tail);
                }
                t.st(&j_v, p, acc);
            })?;
        }
        sess.clock.charge("backward", &dev.timeline().breakdown_since(mark));

        // Forward sweep.
        let mark = dev.timeline().mark();
        for l in 1..num_levels {
            let range = a.levels.level_range(l);
            let (lo, len) = (range.start, range.len());
            let z_v = sess.z_buf.view();
            let par_v = sess.parent_buf.view();
            let j_v = sess.j_buf.view();
            let d_v = sess.delta_buf.view_mut();
            let v_v = sess.v_buf.view_mut();
            try_launch_map(dev, len, "fbs3_forward", move |t, k| {
                let p = lo + k;
                let parent = t.ld(&par_v, p) as usize;
                let vp = t.ld_mut(&v_v, parent);
                let z = t.ld(&z_v, p);
                let jb = t.ld(&j_v, p);
                let old = t.ld_mut(&v_v, p);
                let new_v = vp - z.mul_vec(jb);
                t.flops(CVec3::FWD_FLOPS);
                t.st(&v_v, p, new_v);
                t.st(&d_v, p, (new_v - old).norm());
            })?;
        }
        sess.clock.charge("forward", &dev.timeline().breakdown_since(mark));

        // Convergence.
        let mark = dev.timeline().mark();
        let delta = try_reduce::<f64, MaxAbsF64>(dev, &sess.delta_buf)?;
        sess.clock.charge("convergence", &dev.timeline().breakdown_since(mark));
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::SolveStatus;
    use numc::{c, Complex};
    use powergrid::three_phase::{ieee13_unbalanced, ThreePhaseBuilder};
    use powergrid::NetworkBuilder;
    use simt::DeviceProps;

    fn gpu3() -> Gpu3Solver {
        Gpu3Solver::new(Device::with_workers(DeviceProps::paper_rig(), 2))
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
    /// both the serial sweep and the `fbs3` kernels; `CVec3::abs_max`
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
        let gpu = gpu3().solve_warm(&a, &cfg, Some(&warm));
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
        let g = gpu3().solve(&net, &cfg);
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
