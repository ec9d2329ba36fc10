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
//! 4. convergence on the worst phase: `max_bus max_φ |ΔV_φ|`.
//!
//! Both a serial reference and a GPU solver are provided and tested
//! against each other; a balanced three-phase system degenerates to
//! three rotated copies of the single-phase solution, which the tests
//! exploit as an oracle.
//!
//! The GPU solver's iteration is a `Gpu3Session` with its own `fbs3_*`
//! kernels; the loop around it (convergence, deadline, download) is the
//! one device loop, `recovery::drive`, which the single-phase solvers
//! and the fault-tolerant supervisor ([`crate::ResilientSolver::solve3`])
//! run too. Results are [`SolveResult`]s over [`CVec3`] phasors
//! ([`Solve3Result`]).

use std::time::Instant;

use numc::{CMat3, CVec3, Complex};
use powergrid::three_phase::ThreePhaseNetwork;
use primitives::ops::{AddCVec3, MaxAbsF64, ScanOp};
use primitives::{try_launch_map, try_reduce, try_segscan_inclusive_range};
use simt::{Device, DeviceError, HostProps};

use telemetry::Recorder;

use crate::arrays::LevelArrays;
use crate::config::SolverConfig;
use crate::gpu::{BackwardStrategy, GpuSession, LevelPhasor};
use crate::obs::Obs;
use crate::recovery;
use crate::report::{invalid_config_result, PhaseTimes, SolveResult, Timing};
use crate::status::{ConvergenceMonitor, SolveStatus};

/// Per-phase injection current at the present voltage.
#[inline]
fn inject3(s: CVec3, v: CVec3) -> CVec3 {
    let one = |s: Complex, v: Complex| {
        if s == Complex::ZERO {
            Complex::ZERO
        } else {
            (s / v).conj()
        }
    };
    CVec3 { a: one(s.a, v.a), b: one(s.b, v.b), c: one(s.c, v.c) }
}

/// Modeled flops of one per-phase injection.
const INJ3_FLOPS: u64 = 3 * (Complex::DIV_FLOPS + 1);
/// Modeled flops of one forward update (mat-vec + subtract + norm).
const FWD3_FLOPS: u64 = CMat3::MULVEC_FLOPS + CVec3::ADD_FLOPS + 12;

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

/// Serial reference three-phase FBS solver.
#[derive(Clone, Debug, Default)]
pub struct Serial3Solver {
    host: HostProps,
    recorder: Option<Recorder>,
}

impl Serial3Solver {
    /// Creates a solver modeled on the given host.
    pub fn new(host: HostProps) -> Self {
        Serial3Solver { host, recorder: None }
    }

    /// Attaches a telemetry recorder: per-iteration/per-phase spans and
    /// residual samples are recorded into it during every solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Solves a three-phase network.
    pub fn solve(&self, net: &ThreePhaseNetwork, cfg: &SolverConfig) -> Solve3Result {
        let a = Arrays3::new(net);
        self.solve_arrays(&a, cfg)
    }

    /// Solves with pre-built arrays.
    pub fn solve_arrays(&self, a: &Arrays3, cfg: &SolverConfig) -> Solve3Result {
        let wall0 = Instant::now();
        let n = a.len();
        let v0 = a.source;
        if cfg.validate().is_err() {
            return invalid_config_result(n, v0);
        }
        let mut monitor = ConvergenceMonitor::new(cfg, v0.abs_max());
        // Per-bus state: S, V, I, J (48 B each) + Z (144 B) + topology.
        let working_set = 360 * n as u64;

        let mut v = vec![v0; n];
        let mut i_inj = vec![CVec3::ZERO; n];
        let mut j = vec![CVec3::ZERO; n];

        let mut phases =
            PhaseTimes { setup_us: self.host.region_time_us(0, 256 * n as u64), ..Default::default() };
        let mut iterations = 0;
        let mut residual = f64::MAX;
        let mut residual_history = Vec::new();
        let mut status = SolveStatus::MaxIterations;
        let obs = Obs::new(self.recorder.as_ref(), "solver.serial3");

        while iterations < cfg.max_iter {
            iterations += 1;
            let iter_t0 = phases.total_us();

            for p in 0..n {
                i_inj[p] = inject3(a.s[p], v[p]);
            }
            phases.injection_us +=
                self.host.region_time_us_ws(INJ3_FLOPS * n as u64, 144 * n as u64, working_set);
            obs.phase("injection", iter_t0, phases.total_us());
            let bwd_t0 = phases.total_us();

            for p in (0..n).rev() {
                let mut acc = i_inj[p];
                for &jc in &j[a.child_lo[p] as usize..a.child_hi[p] as usize] {
                    acc += jc;
                }
                j[p] = acc;
            }
            phases.backward_us += self.host.region_time_us_ws(
                CVec3::ADD_FLOPS * (n as u64 - 1),
                144 * n as u64,
                working_set,
            );
            obs.phase("backward", bwd_t0, phases.total_us());
            let fwd_t0 = phases.total_us();

            // NaN-propagating fold: `d > delta` is false for NaN and
            // would hide corrupt phases from the convergence norm.
            let mut delta: f64 = 0.0;
            for p in 1..n {
                let parent = a.parent_pos[p] as usize;
                let new_v = v[parent] - a.z[p].mul_vec(j[p]);
                let d = (new_v - v[p]).abs_max();
                delta = MaxAbsF64::combine(delta, d);
                v[p] = new_v;
            }
            phases.forward_us += self.host.region_time_us_ws(
                FWD3_FLOPS * (n as u64 - 1),
                336 * (n as u64 - 1),
                working_set,
            );
            obs.phase("forward", fwd_t0, phases.total_us());
            phases.convergence_us += self.host.region_time_us(1, 8);

            residual = delta;
            residual_history.push(delta);
            obs.iteration(iterations, iter_t0, phases.total_us(), delta);
            if let Some(s) = monitor.observe(iterations, delta) {
                status = s;
                break;
            }
            if let Some(budget) = cfg.deadline_us {
                let elapsed = phases.total_us();
                if elapsed >= budget {
                    status = SolveStatus::DeadlineExceeded {
                        at_iteration: iterations,
                        elapsed_us: elapsed as u64,
                    };
                    break;
                }
            }
        }

        let timing = Timing {
            phases,
            transfer_us: 0.0,
            transfer_sweep_us: 0.0,
            wall_us: wall0.elapsed().as_secs_f64() * 1e6,
        };
        SolveResult {
            v: a.levels.unpermute(&v),
            j: a.levels.unpermute(&j),
            iterations,
            status,
            residual,
            residual_history,
            timing,
            fault_report: None,
        }
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
        let a = Arrays3::new(net);
        self.solve_arrays(&a, cfg)
    }

    /// Solves with pre-built arrays: the one device loop
    /// (`recovery::drive`) over a `Gpu3Session`, with no checkpoints and
    /// no retry budget. A device error or an injected fault it would have
    /// to roll back panics.
    pub fn solve_arrays(&mut self, a: &Arrays3, cfg: &SolverConfig) -> Solve3Result {
        let wall0 = Instant::now();
        if cfg.validate().is_err() {
            return invalid_config_result(a.len(), a.source);
        }
        let obs = Obs::new(self.recorder.as_ref(), "solver.gpu3");
        let opened = Gpu3Session::open(&mut self.device, a, obs.clone());
        recovery::run_plain(opened, wall0, cfg, &obs)
    }
}

/// The three-phase level-synchronous session: the single-phase session's
/// state and bookkeeping over phase triples, with the `fbs3_*` kernels.
pub(crate) type Gpu3Session<'a> = GpuSession<'a, CVec3>;

impl<'a> Gpu3Session<'a> {
    /// Opens a flat-start session (uploads charged to the setup phase).
    /// The `fbs3_*` kernels have the segmented-scan backward sweep only.
    pub(crate) fn open(dev: &'a mut Device, a: &'a Arrays3, obs: Obs) -> Result<Self, DeviceError> {
        Self::with_obs(dev, a, BackwardStrategy::SegScan, None, obs)
    }
}

/// The three-phase kernels stay apart from the single-phase ones: the
/// per-phase injection, the 3×3 mat-vec forward update and their flop
/// charges differ, and only the segmented-scan backward sweep has a
/// three-phase form.
impl LevelPhasor for CVec3 {
    type Z = CMat3;

    /// The worst phase's magnitude. Unlike [`CVec3::abs_max`], a NaN in
    /// any phase makes it NaN.
    fn norm(self) -> f64 {
        self.phases().iter().fold(0.0, |m, p| MaxAbsF64::combine(m, p.abs()))
    }

    fn inject(s: CVec3, v: CVec3) -> CVec3 {
        inject3(s, v)
    }

    fn z_mul(z: CMat3, j: CVec3) -> CVec3 {
        z.mul_vec(j)
    }

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
                t.flops(INJ3_FLOPS);
                t.st(&i_v, p, inject3(s, v));
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
                t.flops(FWD3_FLOPS);
                t.st(&v_v, p, new_v);
                t.st(&d_v, p, (new_v - old).abs_max());
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
    use crate::serial::SerialSolver;
    use numc::c;
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
            let i_load = inject3(net.buses()[bus].load, res.v[bus]);
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
