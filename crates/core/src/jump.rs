//! Depth-insensitive GPU solver — the "jump" formulation.
//!
//! The paper's topology discussion identifies deep trees as the
//! level-synchronous method's weakness: every level costs at least one
//! kernel launch, so a chain of depth 64K pays 64K launches per sweep.
//! This module removes the depth dependence entirely; it is the natural
//! "future work" extension of the paper's own primitives:
//!
//! * **Backward sweep, fused**: in *preorder* ([`powergrid::DfsOrder`])
//!   every subtree is contiguous, so all branch currents at once are
//!   `J_d = P[d + size_d] − P[d]` where `P` is one whole-array exclusive
//!   prefix scan of the injections — O(1) kernel launches per iteration
//!   instead of O(depth).
//! * **Forward sweep via pointer jumping** (tree doubling, Wyllie 1979):
//!   the voltage at a bus is `V₀ − Σ_path Z·J`; per-edge drops are
//!   combined along root paths in `⌈log₂ depth⌉` ping-pong rounds of
//!   `D'[d] = D[d] + D[ptr[d]]; ptr'[d] = ptr[ptr[d]]`.
//!
//! Kernel launches per iteration: ~10 + 2·⌈log₂ depth⌉, independent of
//! topology (the experiment `exp_e8_deep_trees` quantifies the win on
//! chains). The price is O(n log depth) total work in the forward sweep
//! versus the level method's O(n) — wide shallow trees still favour the
//! level-synchronous solver.
//!
//! Numerics: the fused backward computes subtree sums as prefix-sum
//! differences, so results can differ from the level method by
//! cancellation-level rounding (≪ solver tolerance); iterates therefore
//! converge to the same fixed point but may occasionally take one
//! iteration more or fewer.

use std::time::Instant;

use numc::Complex;
use powergrid::{DfsOrder, RadialNetwork, DFS_NO_PARENT};
use primitives::ops::{AddComplex, MaxAbsF64, ScanOp};
use primitives::{try_fill, try_launch_map, try_reduce, try_scan_exclusive};
use simt::{Device, DeviceBuffer, DeviceError};
use telemetry::Recorder;

use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::recovery::SweepSession;
use crate::report::{PhaseTimes, SolveResult, Timing};
use crate::status::{ConvergenceMonitor, SolveStatus};

/// Preorder solver arrays (the jump solver's analog of
/// [`crate::SolverArrays`]).
#[derive(Clone, Debug)]
pub struct JumpArrays {
    /// The preorder permutation and subtree metadata.
    pub dfs: DfsOrder,
    /// Source voltage.
    pub source: Complex,
    /// Loads in preorder.
    pub s: Vec<Complex>,
    /// Feeding-branch impedance in preorder (zero at root).
    pub z: Vec<Complex>,
    /// Parent preorder position (root points at itself so jumping is a
    /// no-op there).
    pub parent_or_self: Vec<u32>,
    /// Subtree sizes in preorder.
    pub subtree_size: Vec<u32>,
}

impl JumpArrays {
    /// Builds the preorder arrays for a network.
    pub fn new(net: &RadialNetwork) -> Self {
        let dfs = DfsOrder::new(net);
        let s = dfs.order.iter().map(|&b| net.buses()[b as usize].load).collect();
        let z = dfs
            .order
            .iter()
            .map(|&b| net.parent_branch(b as usize).map_or(Complex::ZERO, |br| br.z))
            .collect();
        let parent_or_self = dfs
            .parent_pos
            .iter()
            .enumerate()
            .map(|(d, &p)| if p == DFS_NO_PARENT { d as u32 } else { p })
            .collect();
        JumpArrays {
            source: net.source_voltage(),
            s,
            z,
            parent_or_self,
            subtree_size: dfs.subtree_size.clone(),
            dfs,
        }
    }

    /// Bus count.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// Never empty after network validation.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }
}

/// The depth-insensitive GPU solver.
pub struct JumpSolver {
    device: Device,
    recorder: Option<Recorder>,
}

impl JumpSolver {
    /// Creates a solver on the given device.
    pub fn new(device: Device) -> Self {
        JumpSolver { device, recorder: None }
    }

    /// Attaches a telemetry recorder: per-iteration/per-phase spans and
    /// residual samples are recorded into it during every solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// The underlying device (timeline inspection).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Solves a network from scratch.
    pub fn solve(&mut self, net: &RadialNetwork, cfg: &SolverConfig) -> SolveResult {
        let arrays = JumpArrays::new(net);
        self.solve_arrays(&arrays, cfg)
    }

    /// Solves with pre-built preorder arrays.
    pub fn solve_arrays(&mut self, a: &JumpArrays, cfg: &SolverConfig) -> SolveResult {
        self.try_solve_arrays(a, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`JumpSolver::solve_arrays`]: surfaces injected faults
    /// and device loss as [`DeviceError`], which the public entry
    /// points turn into a panic.
    fn try_solve_arrays(
        &mut self,
        a: &JumpArrays,
        cfg: &SolverConfig,
    ) -> Result<SolveResult, DeviceError> {
        let wall0 = Instant::now();
        if cfg.validate().is_err() {
            return Ok(crate::report::invalid_config_result(a.len(), a.source));
        }
        let mut monitor = ConvergenceMonitor::new(cfg, a.source.abs());
        let obs = Obs::new(self.recorder.as_ref(), "solver.jump");
        let mut sess = JumpSession::with_obs(&mut self.device, a, obs.clone())?;

        let mut iterations = 0;
        let mut residual = f64::MAX;
        let mut residual_history = Vec::new();
        let mut status = SolveStatus::MaxIterations;

        while iterations < cfg.max_iter {
            iterations += 1;
            let iter_t0 = sess.elapsed_modeled_us();
            let delta = sess.iterate()?;
            obs.iteration(iterations, iter_t0, sess.elapsed_modeled_us(), delta);
            residual = delta;
            residual_history.push(delta);
            if let Some(s) = monitor.observe(iterations, delta) {
                status = s;
                break;
            }
            if let Some(budget) = cfg.deadline_us {
                let elapsed = sess.elapsed_modeled_us();
                if elapsed >= budget {
                    status = SolveStatus::DeadlineExceeded {
                        at_iteration: iterations,
                        elapsed_us: elapsed as u64,
                    };
                    break;
                }
            }
        }

        let (v_pos, j_pos) = sess.download()?;
        let timing = sess.timing(wall0);
        Ok(SolveResult {
            v: a.dfs.unpermute(&v_pos),
            j: a.dfs.unpermute(&j_pos),
            iterations,
            status,
            residual,
            residual_history,
            timing,
            fault_report: None,
        })
    }
}

/// One jump-formulation solve in progress (the [`crate::gpu::GpuSession`]
/// counterpart for preorder arrays); same session split, same purpose:
/// the recovery supervisor steps it an iteration at a time.
pub(crate) struct JumpSession<'a> {
    dev: &'a mut Device,
    a: &'a JumpArrays,
    jump_rounds: u32,
    s_buf: DeviceBuffer<Complex>,
    z_buf: DeviceBuffer<Complex>,
    parent_buf: DeviceBuffer<u32>,
    size_buf: DeviceBuffer<u32>,
    v_buf: DeviceBuffer<Complex>,
    i_buf: DeviceBuffer<Complex>,
    excl_buf: DeviceBuffer<Complex>,
    j_buf: DeviceBuffer<Complex>,
    delta_buf: DeviceBuffer<f64>,
    d_a: DeviceBuffer<Complex>,
    d_b: DeviceBuffer<Complex>,
    ptr_a: DeviceBuffer<u32>,
    ptr_b: DeviceBuffer<u32>,
    phases: PhaseTimes,
    transfer_us: f64,
    transfer_sweep_us: f64,
    recovery_us: f64,
    obs: Obs,
}

impl<'a> JumpSession<'a> {
    /// Uploads topology and state (charged to the setup phase). Phase
    /// spans are recorded through `obs` on the session's modeled clock;
    /// pass `Obs::default()` for an uninstrumented session.
    pub(crate) fn with_obs(
        dev: &'a mut Device,
        a: &'a JumpArrays,
        obs: Obs,
    ) -> Result<Self, DeviceError> {
        let n = a.len();
        let v0 = a.source;
        let jump_rounds = ceil_log2(a.dfs.max_depth.max(1) as usize);
        let mut phases = PhaseTimes::default();

        let mark = dev.timeline().mark();
        let s_buf = dev.try_alloc_from(&a.s)?;
        let z_buf = dev.try_alloc_from(&a.z)?;
        let parent_buf = dev.try_alloc_from(&a.parent_or_self)?;
        let size_buf = dev.try_alloc_from(&a.subtree_size)?;
        let mut v_buf = dev.try_alloc::<Complex>(n)?;
        try_fill(dev, &mut v_buf, v0)?;
        let i_buf = dev.try_alloc::<Complex>(n)?;
        let excl_buf = dev.try_alloc::<Complex>(n)?;
        let j_buf = dev.try_alloc::<Complex>(n)?;
        let mut delta_buf = dev.try_alloc::<f64>(n)?;
        try_fill(dev, &mut delta_buf, 0.0)?;
        // Ping-pong state for pointer jumping.
        let d_a = dev.try_alloc::<Complex>(n)?;
        let d_b = dev.try_alloc::<Complex>(n)?;
        let ptr_a = dev.try_alloc::<u32>(n)?;
        let ptr_b = dev.try_alloc::<u32>(n)?;
        let b = dev.timeline().breakdown_since(mark);
        phases.setup_us += b.total_us();
        let transfer_us = b.htod_us + b.dtoh_us;
        obs.phase("setup", 0.0, phases.setup_us);

        Ok(JumpSession {
            dev,
            a,
            jump_rounds,
            s_buf,
            z_buf,
            parent_buf,
            size_buf,
            v_buf,
            i_buf,
            excl_buf,
            j_buf,
            delta_buf,
            d_a,
            d_b,
            ptr_a,
            ptr_b,
            phases,
            transfer_us,
            transfer_sweep_us: 0.0,
            recovery_us: 0.0,
            obs,
        })
    }

    /// Timing summary as of now.
    pub(crate) fn timing(&self, wall0: Instant) -> Timing {
        Timing {
            phases: self.phases,
            transfer_us: self.transfer_us,
            transfer_sweep_us: self.transfer_sweep_us,
            wall_us: wall0.elapsed().as_secs_f64() * 1e6,
        }
    }

    /// Modeled µs spent on checkpoint/restore/verify traffic.
    #[allow(dead_code)]
    pub(crate) fn recovery_us(&self) -> f64 {
        self.recovery_us
    }
}

impl SweepSession for JumpSession<'_> {
    fn elapsed_modeled_us(&self) -> f64 {
        self.phases.total_us() + self.recovery_us
    }

    fn iterate(&mut self) -> Result<f64, DeviceError> {
        let dev = &mut *self.dev;
        let a = self.a;
        let n = a.len();
        let v0 = a.source;

        // ---- Injection ----
        let mark = dev.timeline().mark();
        {
            let s_v = self.s_buf.view();
            let v_v = self.v_buf.view();
            let i_v = self.i_buf.view_mut();
            try_launch_map(dev, n, "jump_inject", move |t, d| {
                let s = t.ld(&s_v, d);
                let out = if s == Complex::ZERO {
                    Complex::ZERO
                } else {
                    let v = t.ld(&v_v, d);
                    t.flops(Complex::DIV_FLOPS + 1);
                    (s / v).conj()
                };
                t.st(&i_v, d, out);
            })?;
        }
        let t0 = self.phases.total_us() + self.recovery_us;
        self.phases.injection_us += dev.timeline().breakdown_since(mark).total_us();
        self.obs.phase("injection", t0, self.phases.total_us() + self.recovery_us);

        // ---- Backward sweep, fused: one scan + one map ----
        let mark = dev.timeline().mark();
        try_scan_exclusive::<Complex, AddComplex>(dev, &self.i_buf, &mut self.excl_buf)?;
        {
            let e_v = self.excl_buf.view();
            let i_v = self.i_buf.view();
            let m_v = self.size_buf.view();
            let j_v = self.j_buf.view_mut();
            try_launch_map(dev, n, "jump_subtree_sum", move |t, d| {
                let m = t.ld(&m_v, d) as usize;
                let lo = t.ld(&e_v, d);
                // P[d+m]: one past the array end means "grand total",
                // reconstructed from the last exclusive entry + last
                // injection (avoids an n+1-sized scan buffer).
                let hi = if d + m < n {
                    t.ld(&e_v, d + m)
                } else {
                    let last = n - 1;
                    t.flops(Complex::ADD_FLOPS);
                    t.ld(&e_v, last) + t.ld(&i_v, last)
                };
                t.flops(Complex::ADD_FLOPS);
                t.st(&j_v, d, hi - lo);
            })?;
        }
        let t0 = self.phases.total_us() + self.recovery_us;
        self.phases.backward_us += dev.timeline().breakdown_since(mark).total_us();
        self.obs.phase("backward", t0, self.phases.total_us() + self.recovery_us);

        // ---- Forward sweep: per-edge drops, then pointer jumping ----
        let mark = dev.timeline().mark();
        {
            let z_v = self.z_buf.view();
            let j_v = self.j_buf.view();
            let p_v = self.parent_buf.view();
            let d_v = self.d_a.view_mut();
            let ptr_v = self.ptr_a.view_mut();
            try_launch_map(dev, n, "jump_edge_drop", move |t, d| {
                let z = t.ld(&z_v, d);
                let jb = t.ld(&j_v, d);
                t.flops(Complex::MUL_FLOPS);
                t.st(&d_v, d, z * jb);
                let p = t.ld(&p_v, d);
                t.st(&ptr_v, d, p);
            })?;
        }
        let (mut cur_d, mut cur_ptr, mut nxt_d, mut nxt_ptr) =
            (&mut self.d_a, &mut self.ptr_a, &mut self.d_b, &mut self.ptr_b);
        for _ in 0..self.jump_rounds {
            {
                let d_in = cur_d.view();
                let ptr_in = cur_ptr.view();
                let d_out = nxt_d.view_mut();
                let ptr_out = nxt_ptr.view_mut();
                try_launch_map(dev, n, "jump_round", move |t, d| {
                    let p = t.ld(&ptr_in, d) as usize;
                    let mine = t.ld(&d_in, d);
                    let theirs = t.ld(&d_in, p);
                    t.flops(Complex::ADD_FLOPS);
                    t.st(&d_out, d, mine + theirs);
                    let pp = t.ld(&ptr_in, p);
                    t.st(&ptr_out, d, pp);
                })?;
            }
            std::mem::swap(&mut cur_d, &mut nxt_d);
            std::mem::swap(&mut cur_ptr, &mut nxt_ptr);
        }
        {
            let d_v = cur_d.view();
            let v_v = self.v_buf.view_mut();
            let delta_v = self.delta_buf.view_mut();
            try_launch_map(dev, n, "jump_voltage", move |t, d| {
                let old = t.ld_mut(&v_v, d);
                let drop_ = t.ld(&d_v, d);
                let new_v = v0 - drop_;
                t.flops(Complex::ADD_FLOPS + 4);
                t.st(&v_v, d, new_v);
                t.st(&delta_v, d, (new_v - old).abs());
            })?;
        }
        let t0 = self.phases.total_us() + self.recovery_us;
        self.phases.forward_us += dev.timeline().breakdown_since(mark).total_us();
        self.obs.phase("forward", t0, self.phases.total_us() + self.recovery_us);

        // ---- Convergence ----
        let mark = dev.timeline().mark();
        let delta = try_reduce::<f64, MaxAbsF64>(dev, &self.delta_buf)?;
        let b = dev.timeline().breakdown_since(mark);
        let t0 = self.phases.total_us() + self.recovery_us;
        self.phases.convergence_us += b.total_us();
        self.obs.phase("convergence", t0, self.phases.total_us() + self.recovery_us);
        self.transfer_us += b.htod_us + b.dtoh_us;
        self.transfer_sweep_us += b.htod_us + b.dtoh_us;
        Ok(delta)
    }

    fn snapshot(&mut self) -> Result<Vec<Complex>, DeviceError> {
        let mark = self.dev.timeline().mark();
        let v = self.dev.try_dtoh(&self.v_buf)?;
        self.recovery_us += self.dev.timeline().breakdown_since(mark).total_us();
        Ok(v)
    }

    fn restore(&mut self, v_pos: &[Complex]) -> Result<(), DeviceError> {
        let dev = &mut *self.dev;
        let a = self.a;
        let mark = dev.timeline().mark();
        dev.try_htod(&mut self.s_buf, &a.s)?;
        dev.try_htod(&mut self.z_buf, &a.z)?;
        dev.try_htod(&mut self.parent_buf, &a.parent_or_self)?;
        dev.try_htod(&mut self.size_buf, &a.subtree_size)?;
        dev.try_htod(&mut self.v_buf, v_pos)?;
        try_fill(dev, &mut self.delta_buf, 0.0)?;
        self.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(())
    }

    fn verify_static(&mut self) -> Result<bool, DeviceError> {
        let dev = &mut *self.dev;
        let a = self.a;
        let mark = dev.timeline().mark();
        let ok = dev.try_dtoh(&self.s_buf)? == a.s
            && dev.try_dtoh(&self.z_buf)? == a.z
            && dev.try_dtoh(&self.parent_buf)? == a.parent_or_self
            && dev.try_dtoh(&self.size_buf)? == a.subtree_size;
        self.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(ok)
    }

    fn download(&mut self) -> Result<(Vec<Complex>, Vec<Complex>), DeviceError> {
        let dev = &mut *self.dev;
        let mark = dev.timeline().mark();
        let v_pos = dev.try_dtoh(&self.v_buf)?;
        let j_pos = dev.try_dtoh(&self.j_buf)?;
        let b = dev.timeline().breakdown_since(mark);
        let t0 = self.phases.total_us() + self.recovery_us;
        self.phases.teardown_us += b.total_us();
        self.obs.phase("teardown", t0, self.phases.total_us() + self.recovery_us);
        self.transfer_us += b.htod_us + b.dtoh_us;
        Ok((v_pos, j_pos))
    }

    fn host_iterate(&self, v_pos: &[Complex]) -> (f64, Vec<Complex>) {
        let a = self.a;
        let n = a.len();
        let i: Vec<Complex> = (0..n)
            .map(|d| {
                if a.s[d] == Complex::ZERO {
                    Complex::ZERO
                } else {
                    (a.s[d] / v_pos[d]).conj()
                }
            })
            .collect();
        // Preorder puts parents before children, so a reverse pass
        // pushes each subtree total onto its parent.
        let mut j = i;
        for d in (1..n).rev() {
            let parent = a.parent_or_self[d] as usize;
            let jd = j[d];
            j[parent] += jd;
        }
        let mut v_new = v_pos.to_vec();
        v_new[0] = a.source;
        // The device rebuilds every voltage from the source constant, so
        // a corrupted root read-back never perturbs the children — check
        // the root directly (exactly zero in clean runs).
        let mut res = MaxAbsF64::combine(0.0, (a.source - v_pos[0]).abs());
        for d in 1..n {
            let parent = a.parent_or_self[d] as usize;
            let nv = v_new[parent] - a.z[d] * j[d];
            res = MaxAbsF64::combine(res, (nv - v_pos[d]).abs());
            v_new[d] = nv;
        }
        (res, j)
    }

    fn source_mag(&self) -> f64 {
        self.a.source.abs()
    }

    fn faults_observed(&self) -> u32 {
        self.dev.fault_log().len() as u32
    }
}

fn ceil_log2(x: usize) -> u32 {
    debug_assert!(x >= 1);
    usize::BITS - (x - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSolver;
    use numc::c;
    use powergrid::gen::{balanced_binary, chain, star, GenSpec};
    use powergrid::ieee::{ieee13, ieee37};
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::{DeviceProps, HostProps};

    fn jump() -> JumpSolver {
        JumpSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2))
    }

    fn assert_voltages_match(net: &RadialNetwork, a: &SolveResult, b: &SolveResult) {
        let scale = net.source_voltage().abs();
        for bus in 0..net.num_buses() {
            assert!(
                (a.v[bus] - b.v[bus]).abs() < 1e-5 * scale,
                "bus {bus}: {:?} vs {:?}",
                a.v[bus],
                b.v[bus]
            );
        }
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 16), 16);
        assert_eq!(ceil_log2((1 << 16) + 1), 17);
    }

    #[test]
    fn matches_serial_on_ieee_feeders() {
        let cfg = SolverConfig::default();
        for net in [ieee13(), ieee37()] {
            let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            let res = jump().solve(&net, &cfg);
            assert!(res.converged());
            assert_voltages_match(&net, &serial, &res);
            crate::validate::assert_physical(&net, &res, 1e-4);
        }
    }

    #[test]
    fn matches_serial_on_generated_topologies() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(81);
        for net in [
            balanced_binary(2047, &spec, &mut rng),
            chain(1500, &spec, &mut rng),
            star(1000, &spec, &mut rng),
        ] {
            let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            let res = jump().solve(&net, &cfg);
            assert!(res.converged());
            assert_voltages_match(&net, &serial, &res);
        }
    }

    #[test]
    fn launch_count_is_depth_insensitive() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(82);
        // A 4096-bus chain: the level solver would need ~4096 launches
        // per sweep; the jump solver needs 2·log₂(4096) = 24 per forward.
        let net = chain(4096, &spec, &mut rng);
        let mut solver = jump();
        let res = solver.solve(&net, &cfg);
        assert!(res.converged());
        let launches = solver.device().timeline().breakdown().kernels;
        let per_iter = launches as f64 / res.iterations as f64;
        assert!(
            per_iter < 60.0,
            "jump solver must stay O(log depth) launches/iter, got {per_iter}"
        );
    }

    #[test]
    fn beats_level_solver_on_deep_trees_in_modeled_time() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(83);
        let net = chain(8192, &spec, &mut rng);
        let level = crate::GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2))
            .solve(&net, &cfg);
        let jumped = jump().solve(&net, &cfg);
        assert!(level.converged() && jumped.converged());
        assert!(
            jumped.timing.total_us() * 20.0 < level.timing.total_us(),
            "jump {} µs vs level {} µs",
            jumped.timing.total_us(),
            level.timing.total_us()
        );
    }

    #[test]
    fn single_bus_trivially_converges() {
        let mut b = powergrid::NetworkBuilder::new(c(240.0, 0.0));
        b.add_bus(Complex::ZERO);
        let net = b.build().unwrap();
        let res = jump().solve(&net, &SolverConfig::default());
        assert!(res.converged());
        assert_eq!(res.v[0], c(240.0, 0.0));
    }

    #[test]
    fn jump_arrays_shapes() {
        let net = ieee13();
        let a = JumpArrays::new(&net);
        assert_eq!(a.len(), 13);
        assert!(!a.is_empty());
        assert_eq!(a.parent_or_self[0], 0, "root self-loops");
        assert_eq!(a.subtree_size[0], 13);
        assert_eq!(a.z[0], Complex::ZERO);
    }
}
