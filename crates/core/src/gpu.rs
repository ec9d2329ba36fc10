//! The GPU forward-backward sweep solver — the paper's contribution.
//!
//! Level-synchronous formulation on the [`simt`] device:
//!
//! * **Setup** (once): upload loads, impedances and the integer topology
//!   arrays; initialise voltages to the flat start with a fill kernel.
//! * Per iteration:
//!   1. `fbs_inject` — one map over all buses: `I = conj(S/V)`.
//!   2. **Backward sweep**, deepest level → root. For each level, the
//!      children of its buses form head-flag segments of the next level,
//!      so their branch-current sum is a *segmented scan* over that level
//!      followed by a gather of each segment's tail
//!      ([`BackwardStrategy::SegScan`], the paper's pattern), or a direct
//!      per-parent loop ([`BackwardStrategy::Direct`], the ablation).
//!      `fbs_backward_combine` then adds the bus's own injection.
//!   3. **Forward sweep**, root → leaves: one `fbs_forward` map per
//!      level, `V_p = V_parent − Z_p·J_p`, recording `|ΔV_p|`.
//!   4. **Convergence** — ∞-norm *reduction* over the deltas with a
//!      single scalar read-back, the host-side loop control the paper
//!      describes.
//! * **Teardown**: download voltages and branch currents.
//!
//! Every kernel launch, transfer and the per-iteration scalar read-back
//! go through the device timing model; phase attribution uses timeline
//! marks, so the experiment harness can reproduce the paper's breakdown
//! and "GPU-only" numbers exactly.
//!
//! The iteration itself is a `GpuSession`; the loop around it
//! (convergence, deadline, download) is the one device loop,
//! `recovery::drive`, which the fault-tolerant supervisor also runs.
//! A plain solve runs it with checkpointing off and no retry budget, so
//! it issues exactly the session's own device operations. The session
//! is generic over the per-bus phasor: the three-phase solver
//! ([`crate::Gpu3Solver`]) opens the same session over phase triples
//! and brings its own kernels.
//!
//! # Routing
//!
//! On a small or deep tree the level path is launch-bound: a 1K-bus
//! binary tree pays 33 launches per iteration. [`GpuSolver::new`]
//! therefore routes each solve: where [`fused_sweep_wins`] says so, it
//! opens the tensor engine's resident chunk at batch size one instead
//! (`tensor_batch::FusedSession`: one fused sweep launch per iteration,
//! the same iterates) and otherwise the level path above. Either session
//! runs the same loop, `recovery::drive`, and the supervisor's
//! [`crate::Backend::Gpu`] rung takes the same route.
//! [`GpuSolver::with_strategy`] pins the level path with the given
//! backward strategy; the experiments that reproduce the paper's tables
//! use it.

use std::time::Instant;

use numc::Complex;
use powergrid::RadialNetwork;
use primitives::ops::{AddComplex, MaxAbsF64, ScanOp};
use primitives::{try_fill, try_launch_map, try_reduce, try_segscan_inclusive_range};
use simt::{Device, DeviceBuffer, DeviceError, DeviceProps};
use telemetry::Recorder;

use crate::arrays::{LevelArrays, SolverArrays};
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::phasor::Phasor;
use crate::recovery::{self, SessionClock, SweepSession};
use crate::report::SolveResult;
use crate::tensor_batch::{self, FusedSession};

/// How the backward sweep aggregates child branch currents.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackwardStrategy {
    /// Segmented scan over each child level + gather of segment tails —
    /// the parallel pattern the paper names. Work-efficient regardless of
    /// fan-out skew.
    #[default]
    SegScan,
    /// One thread per parent loops over its children. Fewer launches, but
    /// serialises on high-fan-out buses and its loads never coalesce —
    /// the E7 ablation baseline.
    Direct,
    /// One full-array `J = I` init, then one scatter kernel per level in
    /// which every child `atomicAdd`s its branch current into its
    /// parent's slot — the fewest launches of the per-level strategies,
    /// but same-address atomics serialise on high-fan-out buses (the
    /// atomic unit's conflict chain in the timing model).
    AtomicScatter,
}

/// The GPU (simulated SIMT) forward-backward sweep solver.
pub struct GpuSolver {
    device: Device,
    strategy: BackwardStrategy,
    /// Whether each solve may take the fused sweep ([`fused_sweep_wins`]);
    /// `false` pins the level path.
    routed: bool,
    recorder: Option<Recorder>,
}

impl GpuSolver {
    /// Creates a solver on the given device that routes every solve to
    /// whichever of two device paths the shape of its tree makes cheaper
    /// in modeled time: the tensor engine's fused sweep at batch size one
    /// — one launch per iteration — on small or deep trees, or the
    /// paper's level-launch path with the segmented-scan backward sweep
    /// on wide, bushy or star-like ones. The route is a deterministic
    /// function of the level table and the device's launch and latency
    /// constants; both paths reach the same iterates.
    pub fn new(device: Device) -> Self {
        GpuSolver { device, strategy: BackwardStrategy::SegScan, routed: true, recorder: None }
    }

    /// Creates a solver pinned to the paper's level-launch path with an
    /// explicit backward-sweep strategy: every solve runs exactly the
    /// kernels the module docs describe, whatever the tree.
    pub fn with_strategy(device: Device, strategy: BackwardStrategy) -> Self {
        GpuSolver { device, strategy, routed: false, recorder: None }
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

    /// The backward-sweep strategy of the level path.
    pub fn strategy(&self) -> BackwardStrategy {
        self.strategy
    }

    /// Solves a network from scratch.
    pub fn solve(&mut self, net: &RadialNetwork, cfg: &SolverConfig) -> SolveResult {
        let arrays = SolverArrays::new(net);
        self.solve_arrays(&arrays, cfg)
    }

    /// Solves with pre-built level-order arrays.
    pub fn solve_arrays(&mut self, a: &SolverArrays, cfg: &SolverConfig) -> SolveResult {
        self.solve_warm(a, cfg, None)
    }

    /// Solves starting from a previous solution (`v_init` indexed by bus
    /// id) instead of the flat start; the initial state is uploaded
    /// (charged to setup) rather than filled on-device.
    ///
    /// Either route runs the one device loop (`recovery::drive`) with no
    /// checkpoints and no retry budget: a device error or an injected
    /// fault it would have to roll back panics. Fault-tolerant solves
    /// go through [`crate::ResilientSolver`].
    pub fn solve_warm(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
        v_init: Option<&[Complex]>,
    ) -> SolveResult {
        let wall0 = Instant::now();
        if cfg.validate().is_err() {
            return crate::report::invalid_config_result(a.len(), a.source);
        }
        let obs = Obs::new(self.recorder.as_ref(), "solver.gpu");
        let dev = &mut self.device;
        if self.routed && fused_sweep_wins(dev.props(), a, v_init.is_some()) {
            let opened = FusedSession::open(dev, a, v_init, obs.clone());
            return recovery::run_plain(opened, wall0, cfg, &obs);
        }
        let opened = GpuSession::with_obs(dev, a, self.strategy, v_init, obs.clone());
        recovery::run_plain(opened, wall0, cfg, &obs)
    }
}

/// The route of [`GpuSolver::new`]: whether the fused sweep at batch size
/// one (`crate::tensor_batch`) is cheaper on `a` than the level path.
///
/// A deterministic function of the level table and the device's launch
/// and latency constants, computed per solve from the arrays (never in
/// [`SolverArrays::new`]). Both paths run the same iterations, and per
/// solve the fused path moves no more bytes than the level path (up to a
/// few words of scenario state), so it wins when one of its iterations — bounded above by
/// [`tensor_batch::single_iteration_bound_us`], warm-init launch included
/// — is cheaper than a floor under one level-path iteration. That floor
/// counts the level path's launches: one injection map, a combine per
/// level, a segmented scan and a forward map per non-root level, and
/// one reduction — `3L` for `L` levels — each paying the launch overhead
/// and at least one dependent access and barrier. Small and deep trees
/// go fused (a 1K-bus binary tree, a 1K-bus chain); wide levels
/// serialise the lone fused block and a high fan-out serialises its
/// child sums, so large, bushy and star-like trees stay on the level
/// path.
pub(crate) fn fused_sweep_wins(props: &DeviceProps, a: &SolverArrays, warm: bool) -> bool {
    let launches = 3 * a.num_levels();
    let per_launch = props.launch_overhead_us
        + (props.mem_latency_cycles + props.barrier_cycles) / props.cycles_per_us();
    tensor_batch::single_iteration_bound_us(props, a, warm) < launches as f64 * per_launch
}

/// The device side of a [`Phasor`]: its level-synchronous iteration, with
/// [`Complex`] kernels here and `CVec3` ones in [`crate::three_phase`], so
/// no kernel branches on its caller.
pub(crate) trait LevelPhasor: Phasor {
    /// One device iteration — inject, backward, forward, reduce — with
    /// each phase charged to the session's clock; returns the ∞-norm
    /// voltage update.
    fn iterate(sess: &mut GpuSession<'_, Self>) -> Result<f64, DeviceError>;
}

/// One level-synchronous solve in progress: device state plus phase
/// accounting, stepped one iteration at a time by `recovery::drive`.
///
/// Splitting the solve into a session is what lets the recovery
/// supervisor ([`crate::recovery::ResilientSolver`]) interleave
/// checkpoints, integrity checks and rollbacks between iterations
/// without duplicating the sweep kernels. The single- and three-phase
/// sessions share this state and bookkeeping; their kernels are
/// [`LevelPhasor::iterate`]. The three-phase kernels have the
/// segmented-scan backward sweep only, so `strategy` is the
/// single-phase kernels' choice; three-phase sessions open through
/// `Gpu3Session::open`, which fixes it.
pub(crate) struct GpuSession<'a, V: LevelPhasor> {
    pub(crate) dev: &'a mut Device,
    pub(crate) a: &'a LevelArrays<V, V::Z>,
    /// The warm start by bus id; `None` is the flat start.
    v_init: Option<&'a [V]>,
    strategy: BackwardStrategy,
    pub(crate) s_buf: DeviceBuffer<V>,
    pub(crate) z_buf: DeviceBuffer<V::Z>,
    pub(crate) parent_buf: DeviceBuffer<u32>,
    pub(crate) child_lo_buf: DeviceBuffer<u32>,
    pub(crate) child_hi_buf: DeviceBuffer<u32>,
    pub(crate) flags_buf: DeviceBuffer<u32>,
    pub(crate) seg_last_buf: DeviceBuffer<u32>,
    pub(crate) v_buf: DeviceBuffer<V>,
    pub(crate) i_buf: DeviceBuffer<V>,
    pub(crate) j_buf: DeviceBuffer<V>,
    pub(crate) delta_buf: DeviceBuffer<f64>,
    pub(crate) scan_buf: DeviceBuffer<V>,
    pub(crate) clock: SessionClock,
}

impl<'a, V: LevelPhasor> GpuSession<'a, V> {
    /// Uploads topology and state (charged to the setup phase). Phase
    /// spans are recorded through `obs` on the session's modeled clock;
    /// pass `Obs::default()` for an uninstrumented session.
    pub(crate) fn with_obs(
        dev: &'a mut Device,
        a: &'a LevelArrays<V, V::Z>,
        strategy: BackwardStrategy,
        v_init: Option<&'a [V]>,
        obs: Obs,
    ) -> Result<Self, DeviceError> {
        let n = a.len();
        let v0 = a.source;

        let mark = dev.timeline().mark();
        let s_buf = dev.try_alloc_from(&a.s)?;
        let z_buf = dev.try_alloc_from(&a.z)?;
        let parent_buf = dev.try_alloc_from(&a.parent_pos)?;
        let child_lo_buf = dev.try_alloc_from(&a.child_lo)?;
        let child_hi_buf = dev.try_alloc_from(&a.child_hi)?;
        let flags_buf = dev.try_alloc_from(&a.head_flags)?;
        let seg_last_buf = dev.try_alloc_from(&a.seg_last)?;
        let mut v_buf = dev.try_alloc::<V>(n)?;
        match v_init {
            Some(init) => {
                assert_eq!(init.len(), n, "warm start needs one voltage per bus");
                let by_pos = a.levels.permute(init);
                dev.try_htod_checked(&mut v_buf, &by_pos)?;
            }
            None => try_fill(dev, &mut v_buf, v0)?,
        }
        let i_buf = dev.try_alloc::<V>(n)?;
        let j_buf = dev.try_alloc::<V>(n)?;
        let mut delta_buf = dev.try_alloc::<f64>(n)?;
        try_fill(dev, &mut delta_buf, 0.0)?;
        let scan_buf = dev.try_alloc::<V>(n)?;
        let b = dev.timeline().breakdown_since(mark);
        let clock = SessionClock::new(b.total_us(), b.htod_us + b.dtoh_us, obs);

        Ok(GpuSession {
            dev,
            a,
            v_init,
            strategy,
            s_buf,
            z_buf,
            parent_buf,
            child_lo_buf,
            child_hi_buf,
            flags_buf,
            seg_last_buf,
            v_buf,
            i_buf,
            j_buf,
            delta_buf,
            scan_buf,
            clock,
        })
    }
}

impl LevelPhasor for Complex {
    fn iterate(sess: &mut GpuSession<'_, Complex>) -> Result<f64, DeviceError> {
        let dev = &mut *sess.dev;
        let a = sess.a;
        let n = a.len();
        let num_levels = a.num_levels();

        // ---- Injection ----
        let mark = dev.timeline().mark();
        {
            let s_v = sess.s_buf.view();
            let v_v = sess.v_buf.view();
            let i_v = sess.i_buf.view_mut();
            try_launch_map(dev, n, "fbs_inject", move |t, p| {
                let s = t.ld(&s_v, p);
                let out = if s == Complex::ZERO {
                    Complex::ZERO
                } else {
                    let v = t.ld(&v_v, p);
                    t.flops(Complex::DIV_FLOPS + 1);
                    (s / v).conj()
                };
                t.st(&i_v, p, out);
            })?;
        }
        sess.clock.charge("injection", &dev.timeline().breakdown_since(mark));

        // ---- Backward sweep: deepest level → root ----
        let mark = dev.timeline().mark();
        if sess.strategy == BackwardStrategy::AtomicScatter {
            // Init J = I everywhere, then one child→parent atomic
            // scatter per level: children of a level-(l−1) bus all
            // live at level l, so after the level-l scatter every
            // level-(l−1) branch current is final.
            {
                let i_v = sess.i_buf.view();
                let j_v = sess.j_buf.view_mut();
                try_launch_map(dev, n, "fbs_backward_init", move |t, p| {
                    let v = t.ld(&i_v, p);
                    t.st(&j_v, p, v);
                })?;
            }
            for l in (1..num_levels).rev() {
                let range = a.levels.level_range(l);
                let (lo, len) = (range.start, range.len());
                let par_v = sess.parent_buf.view();
                let j_v = sess.j_buf.view_mut();
                try_launch_map(dev, len, "fbs_backward_scatter", move |t, k| {
                    let c = lo + k;
                    let parent = t.ld(&par_v, c) as usize;
                    let jc = t.ld_mut(&j_v, c);
                    t.flops(Complex::ADD_FLOPS);
                    t.atomic_add(&j_v, parent, jc);
                })?;
            }
        }
        for l in (0..num_levels).rev() {
            if sess.strategy == BackwardStrategy::AtomicScatter {
                break;
            }
            let range = a.levels.level_range(l);
            let (lo, len) = (range.start, range.len());
            let has_child_level = l + 1 < num_levels;

            if sess.strategy == BackwardStrategy::SegScan && has_child_level {
                let crange = a.levels.level_range(l + 1);
                try_segscan_inclusive_range::<Complex, AddComplex>(
                    dev,
                    &sess.j_buf,
                    &sess.flags_buf,
                    crange.start,
                    crange.end,
                    &mut sess.scan_buf,
                )?;
            }

            match sess.strategy {
                BackwardStrategy::SegScan => {
                    let i_v = sess.i_buf.view();
                    let lo_v = sess.child_lo_buf.view();
                    let hi_v = sess.child_hi_buf.view();
                    let last_v = sess.seg_last_buf.view();
                    let scan_v = sess.scan_buf.view();
                    let j_v = sess.j_buf.view_mut();
                    try_launch_map(dev, len, "fbs_backward_combine", move |t, k| {
                        let p = lo + k;
                        let mut acc = t.ld(&i_v, p);
                        if t.ld(&lo_v, p) < t.ld(&hi_v, p) {
                            let tail = t.ld(&last_v, p) as usize;
                            t.flops(Complex::ADD_FLOPS);
                            acc += t.ld(&scan_v, tail);
                        }
                        t.st(&j_v, p, acc);
                    })?;
                }
                BackwardStrategy::Direct => {
                    let i_v = sess.i_buf.view();
                    let lo_v = sess.child_lo_buf.view();
                    let hi_v = sess.child_hi_buf.view();
                    let j_v = sess.j_buf.view_mut();
                    try_launch_map(dev, len, "fbs_backward_direct", move |t, k| {
                        let p = lo + k;
                        let mut acc = t.ld(&i_v, p);
                        let c_lo = t.ld(&lo_v, p) as usize;
                        let c_hi = t.ld(&hi_v, p) as usize;
                        for c in c_lo..c_hi {
                            t.flops(Complex::ADD_FLOPS);
                            acc += t.ld_mut(&j_v, c);
                        }
                        t.st(&j_v, p, acc);
                    })?;
                }
                BackwardStrategy::AtomicScatter => unreachable!("handled above"),
            }
        }
        sess.clock.charge("backward", &dev.timeline().breakdown_since(mark));

        // ---- Forward sweep: root → leaves ----
        let mark = dev.timeline().mark();
        for l in 1..num_levels {
            let range = a.levels.level_range(l);
            let (lo, len) = (range.start, range.len());
            let z_v = sess.z_buf.view();
            let par_v = sess.parent_buf.view();
            let j_v = sess.j_buf.view();
            let d_v = sess.delta_buf.view_mut();
            let v_v = sess.v_buf.view_mut();
            try_launch_map(dev, len, "fbs_forward", move |t, k| {
                let p = lo + k;
                let parent = t.ld(&par_v, p) as usize;
                let vp = t.ld_mut(&v_v, parent);
                let z = t.ld(&z_v, p);
                let jb = t.ld(&j_v, p);
                let old = t.ld_mut(&v_v, p);
                let new_v = vp - z * jb;
                t.flops(Complex::MUL_FLOPS + Complex::ADD_FLOPS + 4);
                t.st(&v_v, p, new_v);
                t.st(&d_v, p, (new_v - old).abs());
            })?;
        }
        sess.clock.charge("forward", &dev.timeline().breakdown_since(mark));

        // ---- Convergence: ∞-norm reduction + scalar read-back ----
        let mark = dev.timeline().mark();
        let delta = try_reduce::<f64, MaxAbsF64>(dev, &sess.delta_buf)?;
        sess.clock.charge("convergence", &dev.timeline().breakdown_since(mark));
        Ok(delta)
    }
}

impl<V: LevelPhasor> SweepSession for GpuSession<'_, V> {
    type V = V;

    fn clock(&self) -> &SessionClock {
        &self.clock
    }

    fn iterate(&mut self) -> Result<f64, DeviceError> {
        V::iterate(self)
    }

    fn snapshot(&mut self) -> Result<Vec<V>, DeviceError> {
        let mark = self.dev.timeline().mark();
        // A checkpoint read must be certified clean: a silently corrupted
        // snapshot would poison every later rollback.
        let v = self.dev.try_dtoh_checked(&self.v_buf)?;
        self.clock.recovery_us += self.dev.timeline().breakdown_since(mark).total_us();
        Ok(v)
    }

    fn restore(&mut self, v_pos: &[V]) -> Result<(), DeviceError> {
        let dev = &mut *self.dev;
        let a = self.a;
        let mark = dev.timeline().mark();
        // Statics are re-uploaded wholesale: a bit flip in a topology or
        // impedance buffer is permanent, so a voltage-only rollback would
        // replay the fault instead of erasing it.
        dev.try_htod_checked(&mut self.s_buf, &a.s)?;
        dev.try_htod_checked(&mut self.z_buf, &a.z)?;
        dev.try_htod_checked(&mut self.parent_buf, &a.parent_pos)?;
        dev.try_htod_checked(&mut self.child_lo_buf, &a.child_lo)?;
        dev.try_htod_checked(&mut self.child_hi_buf, &a.child_hi)?;
        dev.try_htod_checked(&mut self.flags_buf, &a.head_flags)?;
        dev.try_htod_checked(&mut self.seg_last_buf, &a.seg_last)?;
        dev.try_htod_checked(&mut self.v_buf, v_pos)?;
        try_fill(dev, &mut self.delta_buf, 0.0)?;
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(())
    }

    fn start_state(&self) -> Vec<V> {
        match self.v_init {
            Some(init) => self.a.levels.permute(init),
            None => vec![self.a.source; self.a.len()],
        }
    }

    fn verify_static(&mut self) -> Result<bool, DeviceError> {
        let dev = &mut *self.dev;
        let a = self.a;
        let mark = dev.timeline().mark();
        let ok = dev.try_dtoh(&self.s_buf)? == a.s
            && dev.try_dtoh(&self.z_buf)? == a.z
            && dev.try_dtoh(&self.parent_buf)? == a.parent_pos
            && dev.try_dtoh(&self.child_lo_buf)? == a.child_lo
            && dev.try_dtoh(&self.child_hi_buf)? == a.child_hi
            && dev.try_dtoh(&self.flags_buf)? == a.head_flags
            && dev.try_dtoh(&self.seg_last_buf)? == a.seg_last;
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(ok)
    }

    fn download(&mut self) -> Result<(Vec<V>, Vec<V>), DeviceError> {
        let dev = &mut *self.dev;
        let mark = dev.timeline().mark();
        let v_pos = dev.try_dtoh_checked(&self.v_buf)?;
        let j_pos = dev.try_dtoh_checked(&self.j_buf)?;
        self.clock.charge("teardown", &dev.timeline().breakdown_since(mark));
        Ok((v_pos, j_pos))
    }

    fn unpermute(&self, pos: &[V]) -> Vec<V> {
        self.a.levels.unpermute(pos)
    }

    fn host_iterate(&self, v_pos: &[V]) -> (f64, Vec<V>) {
        host_iterate(self.a, self.v_init, v_pos)
    }

    fn source_mag(&self) -> f64 {
        self.a.source.norm()
    }

    fn faults_observed(&self) -> u32 {
        self.dev.fault_log().len() as u32
    }
}

/// One host-side FBS iteration over `a` from `v_pos` (level position
/// order): the residual it would produce and the host-computed branch
/// currents — what `recovery::drive` certifies a tainted state with. The
/// level and fused sessions share this position order, so both run it.
/// No kernel writes the root, so a corrupted root is a consistent fixed
/// point of a wrong source: it is checked against the start state,
/// `v_init` (by bus id) or the flat start.
pub(crate) fn host_iterate<V: Phasor>(
    a: &LevelArrays<V, V::Z>,
    v_init: Option<&[V]>,
    v_pos: &[V],
) -> (f64, Vec<V>) {
    let n = a.len();
    // Children sit at higher positions than their parent in level
    // order, so one reverse pass accumulates every subtree.
    let mut j = vec![V::default(); n];
    for p in (0..n).rev() {
        let mut acc = V::inject(a.s[p], v_pos[p]);
        for &jc in &j[a.child_lo[p] as usize..a.child_hi[p] as usize] {
            acc += jc;
        }
        j[p] = acc;
    }
    let mut v_new = v_pos.to_vec();
    let root = v_init.map_or(a.source, |init| init[a.levels.order[0] as usize]);
    let mut res = MaxAbsF64::combine(0.0, (root - v_pos[0]).norm());
    for p in 1..n {
        let parent = a.parent_pos[p] as usize;
        let nv = v_new[parent] - V::z_mul(a.z[p], j[p]);
        res = MaxAbsF64::combine(res, (nv - v_pos[p]).norm());
        v_new[p] = nv;
    }
    (res, j)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSolver;
    use numc::c;
    use powergrid::gen::{balanced_binary, chain, star, GenSpec};
    use powergrid::ieee::{ieee123_style, ieee13, ieee37};
    use powergrid::NetworkBuilder;
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::{DeviceProps, HostProps};

    fn gpu() -> GpuSolver {
        GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2))
    }

    /// The paper's level path, pinned: for tests that count its launches
    /// or read its per-phase split.
    fn level_gpu() -> GpuSolver {
        GpuSolver::with_strategy(
            Device::with_workers(DeviceProps::paper_rig(), 2),
            BackwardStrategy::SegScan,
        )
    }

    fn assert_results_match(a: &SolveResult, b: &SolveResult, scale: f64) {
        assert_eq!(a.v.len(), b.v.len());
        for (x, y) in a.v.iter().zip(&b.v) {
            assert!((*x - *y).abs() <= 1e-9 * scale, "V mismatch: {x:?} vs {y:?}");
        }
        for (x, y) in a.j.iter().zip(&b.j) {
            assert!((*x - *y).abs() <= 1e-6 * scale, "J mismatch: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn matches_serial_on_two_bus() {
        let mut b = NetworkBuilder::new(c(100.0, 0.0));
        b.add_bus(Complex::ZERO);
        b.add_bus(c(100.0, 0.0));
        b.connect(0, 1, c(1.0, 0.0));
        let net = b.build().unwrap();
        let cfg = SolverConfig::default();
        let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
        let parallel = gpu().solve(&net, &cfg);
        assert!(parallel.converged());
        assert_eq!(parallel.iterations, serial.iterations);
        assert_results_match(&serial, &parallel, 100.0);
    }

    #[test]
    fn matches_serial_on_ieee_feeders() {
        let cfg = SolverConfig::default();
        for net in [ieee13(), ieee37(), ieee123_style()] {
            let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            let parallel = gpu().solve(&net, &cfg);
            assert!(parallel.converged(), "GPU solve must converge");
            assert_eq!(parallel.iterations, serial.iterations, "identical iterates");
            assert_results_match(&serial, &parallel, 2500.0);
        }
    }

    #[test]
    fn matches_serial_on_generated_topologies() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(11);
        for net in [
            balanced_binary(1000, &spec, &mut rng),
            chain(300, &spec, &mut rng),
            star(500, &spec, &mut rng),
        ] {
            let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            let parallel = gpu().solve(&net, &cfg);
            assert!(parallel.converged());
            assert_results_match(&serial, &parallel, 7200.0);
        }
    }

    #[test]
    fn direct_strategy_matches_segscan() {
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(3);
        let net = balanced_binary(2047, &spec, &mut rng);
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
        assert!(a.converged() && b.converged());
        assert_results_match(&a, &b, 7200.0);
    }

    #[test]
    fn timing_phases_are_populated_and_transfers_attributed() {
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(5);
        let net = balanced_binary(511, &spec, &mut rng);
        let res = level_gpu().solve(&net, &SolverConfig::default());
        let p = &res.timing.phases;
        assert!(p.setup_us > 0.0, "upload charged");
        assert!(p.injection_us > 0.0);
        assert!(p.backward_us > 0.0);
        assert!(p.forward_us > 0.0);
        assert!(p.convergence_us > 0.0);
        assert!(p.teardown_us > 0.0, "download charged");
        assert!(res.timing.transfer_us > 0.0);
        assert!(res.timing.transfer_us < res.timing.total_us());
        // compute-only excludes transfers.
        assert!(res.timing.compute_only_us() < res.timing.total_us());
    }

    #[test]
    fn single_bus_network_converges_trivially() {
        let mut b = NetworkBuilder::new(c(240.0, 0.0));
        b.add_bus(Complex::ZERO);
        let net = b.build().unwrap();
        assert!(fused_sweep_wins(&DeviceProps::paper_rig(), &SolverArrays::new(&net), false));
        let res = gpu().solve(&net, &SolverConfig::default());
        assert!(res.converged());
        assert_eq!(res.iterations, 1);
        assert_eq!(res.residual_history, vec![0.0]);
        assert_eq!(res.v[0], c(240.0, 0.0));
    }

    #[test]
    fn deeper_trees_launch_more_kernels() {
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(9);
        let shallow = star(256, &spec, &mut rng);
        let deep = chain(256, &spec, &mut rng);
        let mut g1 = level_gpu();
        let _ = g1.solve(&shallow, &SolverConfig::default());
        let k_shallow = g1.device().timeline().breakdown().kernels;
        let mut g2 = level_gpu();
        let _ = g2.solve(&deep, &SolverConfig::default());
        let k_deep = g2.device().timeline().breakdown().kernels;
        assert!(
            k_deep > 10 * k_shallow,
            "chain must launch far more kernels ({k_deep} vs {k_shallow})"
        );
    }
}

#[cfg(test)]
mod route_tests {
    use super::*;
    use crate::serial::SerialSolver;
    use crate::{Backend, ResilientSolver};
    use powergrid::gen::{balanced_binary, balanced_kary, chain, star, GenSpec};
    use powergrid::ieee::ieee13;
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::{FaultKind, FaultPlan, HostProps};

    fn arrays(net: &RadialNetwork) -> SolverArrays {
        SolverArrays::new(net)
    }

    /// The route's verdict on the benchmark's single-solve shapes and the
    /// shapes either side of the crossover. A rule change that would move
    /// the 256K-bus tree onto the fused sweep fails here.
    #[test]
    fn route_takes_fused_on_small_and_deep_trees_and_level_on_wide_ones() {
        let spec = GenSpec::default();
        let props = DeviceProps::paper_rig();
        let rng = || StdRng::seed_from_u64(7);
        let fused = [
            ("binary 1023", balanced_binary(1023, &spec, &mut rng())),
            ("chain 1000", chain(1000, &spec, &mut rng())),
        ];
        let level = [
            ("binary 262143", balanced_binary(262_143, &spec, &mut rng())),
            ("star 1000", star(1000, &spec, &mut rng())),
            ("8-ary 32000", balanced_kary(32_000, 8, &spec, &mut rng())),
        ];
        for (name, net) in &fused {
            let a = arrays(net);
            assert!(fused_sweep_wins(&props, &a, false), "{name}: cold must route fused");
            assert!(fused_sweep_wins(&props, &a, true), "{name}: warm must route fused");
        }
        for (name, net) in &level {
            let a = arrays(net);
            assert!(!fused_sweep_wins(&props, &a, false), "{name}: must stay on the level path");
        }
    }

    #[test]
    fn routed_solve_runs_one_launch_per_iteration_and_matches_the_pinned_path() {
        let net = balanced_binary(1023, &GenSpec::default(), &mut StdRng::seed_from_u64(7));
        let cfg = SolverConfig::default();
        let mut routed = GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2));
        let r = routed.solve(&net, &cfg);
        let p = GpuSolver::with_strategy(
            Device::with_workers(DeviceProps::paper_rig(), 2),
            BackwardStrategy::SegScan,
        )
        .solve(&net, &cfg);
        assert_eq!(r.status, crate::SolveStatus::Converged);
        assert_eq!(r.iterations, p.iterations);
        assert_eq!(r.residual_history.len(), r.iterations as usize);
        assert!(r.timing.total_us() < p.timing.total_us());
        // The fused sweep charges its one launch to `backward_us`.
        let ph = r.timing.phases;
        assert_eq!((ph.injection_us, ph.forward_us), (0.0, 0.0));
        assert!(ph.backward_us > 0.0);
        let b = routed.device().timeline().breakdown();
        assert!(b.per_kernel_us.contains_key("tensor_sweep"), "{:?}", b.per_kernel_us.keys());
        // One sweep per iteration plus the two setup fills.
        assert_eq!(b.kernels as u32, r.iterations + 2);
        let scale = net.source_voltage().abs();
        for (x, y) in r.v.iter().zip(&p.v) {
            assert!((*x - *y).abs() <= 1e-9 * scale, "{x:?} vs {y:?}");
        }
        assert!(r.fault_report.is_none(), "no plan armed, nothing to report");
    }

    #[test]
    fn routed_invalid_config_short_circuits() {
        let net = ieee13();
        assert!(fused_sweep_wins(&DeviceProps::paper_rig(), &arrays(&net), false));
        let bad = SolverConfig { max_iter: 0, ..SolverConfig::default() };
        let mut gpu = GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2));
        let res = gpu.solve(&net, &bad);
        assert_eq!((res.status, res.iterations), (crate::SolveStatus::InvalidConfig, 0));
        assert!(res.residual_history.is_empty());
        assert_eq!(gpu.device().timeline().breakdown().kernels, 0, "nothing ran");
    }

    #[test]
    fn routed_solve_records_solver_gpu_iteration_spans() {
        let net = balanced_binary(255, &GenSpec::default(), &mut StdRng::seed_from_u64(3));
        let rec = Recorder::new();
        let mut gpu = GpuSolver::new(Device::with_workers(DeviceProps::paper_rig(), 2))
            .with_recorder(rec.clone());
        let res = gpu.solve(&net, &SolverConfig::default());
        let iters = rec.with_trace(|t| {
            t.spans.iter().filter(|e| e.cat == "solver.gpu" && e.name == "iter").count()
        });
        assert_eq!(iters, res.iterations as usize);
    }

    /// A scripted exponent flip (bit 61 of word 0), swept over the first
    /// 48 device ops and every live buffer of a supervised 1K-bus solve
    /// on the fused route: checkpoints, certification and rollback must
    /// keep every converged answer on the serial fixed point.
    #[test]
    fn scripted_bit_flips_never_leak_out_of_a_routed_solve() {
        let net = balanced_binary(1023, &GenSpec::default(), &mut StdRng::seed_from_u64(17));
        let a = arrays(&net);
        let cfg = SolverConfig::default();
        let want = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, &cfg).v;
        let band = 1e-9 * net.source_voltage().abs();
        let mut leaks = Vec::new();
        for op in 0..48u64 {
            for buffer in 0..10u64 {
                let flip = FaultKind::BufferBitFlip { buffer, word: 0, bit: 61 };
                let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
                let mut supervisor = ResilientSolver::new(Backend::Gpu, props, host)
                    .with_fault_plan(FaultPlan::scripted([(op, flip)]));
                let res = supervisor.solve(&a, &cfg).expect("degradation answers every solve");
                let dev = supervisor.last_device().expect("a device rung ran");
                let kernels = dev.timeline().breakdown().per_kernel_us;
                assert!(kernels.contains_key("tensor_sweep"), "op {op} buffer {buffer}: not fused");
                assert_eq!(res.residual_history.len(), res.iterations as usize);
                let off = res.v.iter().zip(&want).map(|(x, y)| (*x - *y).abs()).fold(0.0, f64::max);
                if res.status.is_converged() && (off > band || off.is_nan()) {
                    leaks.push(format!(
                        "op {op} buffer {buffer}: {} off by {off:.3e} V",
                        res.status
                    ));
                }
            }
        }
        assert!(
            leaks.is_empty(),
            "{} converged answers off serial:\n{}",
            leaks.len(),
            leaks.join("\n")
        );
    }
}

#[cfg(test)]
mod atomic_tests {
    use super::*;
    use crate::serial::SerialSolver;
    use powergrid::gen::{balanced_binary, balanced_kary, star, GenSpec};
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::{DeviceProps, HostProps};

    fn atomic_gpu() -> GpuSolver {
        GpuSolver::with_strategy(
            Device::with_workers(DeviceProps::paper_rig(), 2),
            BackwardStrategy::AtomicScatter,
        )
    }

    #[test]
    fn atomic_scatter_matches_serial() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(91);
        for net in [
            balanced_binary(2047, &spec, &mut rng),
            balanced_kary(1000, 8, &spec, &mut rng),
            star(500, &spec, &mut rng),
        ] {
            let serial = SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            let res = atomic_gpu().solve(&net, &cfg);
            assert!(res.converged());
            let scale = net.source_voltage().abs();
            for bus in 0..net.num_buses() {
                assert!(
                    (serial.v[bus] - res.v[bus]).abs() < 1e-8 * scale,
                    "bus {bus}: {:?} vs {:?}",
                    serial.v[bus],
                    res.v[bus]
                );
            }
            crate::validate::assert_physical(&net, &res, 1e-4);
        }
    }

    #[test]
    fn atomic_scatter_launches_fewer_backward_kernels_than_segscan() {
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(92);
        let net = balanced_binary(8191, &spec, &mut rng);
        let cfg = SolverConfig::default();

        let mut seg = GpuSolver::with_strategy(
            Device::with_workers(DeviceProps::paper_rig(), 2),
            BackwardStrategy::SegScan,
        );
        let _ = seg.solve(&net, &cfg);
        let seg_kernels = seg.device().timeline().breakdown().kernels;

        let mut at = atomic_gpu();
        let _ = at.solve(&net, &cfg);
        let at_kernels = at.device().timeline().breakdown().kernels;
        assert!(
            at_kernels < seg_kernels,
            "atomic scatter must launch fewer kernels ({at_kernels} vs {seg_kernels})"
        );
    }

    #[test]
    fn fanout_contention_slows_the_atomic_strategy() {
        // A star concentrates every atomic on one parent slot. On the
        // same topology, the contention-free segmented scan must beat
        // the atomic scatter's serialised conflict chain.
        let spec = GenSpec::default();
        let cfg = SolverConfig::default();
        let net = star(16_384, &spec, &mut StdRng::seed_from_u64(93));

        let at = atomic_gpu().solve(&net, &cfg);
        let seg = GpuSolver::with_strategy(
            Device::with_workers(DeviceProps::paper_rig(), 2),
            BackwardStrategy::SegScan,
        )
        .solve(&net, &cfg);
        let at_per_iter = at.timing.phases.backward_us / at.iterations as f64;
        let seg_per_iter = seg.timing.phases.backward_us / seg.iterations as f64;
        assert!(
            at_per_iter > 1.5 * seg_per_iter,
            "atomic {at_per_iter:.1} µs/iter must exceed segscan {seg_per_iter:.1} µs/iter on a star"
        );
    }
}
