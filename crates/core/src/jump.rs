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
//!
//! Like the level path, a `JumpSession` is one iteration, driven by the
//! one device loop, `recovery::drive` (checkpointing off for a plain
//! solve). The solver always starts flat: as an engine
//! ([`crate::SweepBackend`]) it ignores the warm-start hint.

use std::time::Instant;

use numc::Complex;
use powergrid::{DfsOrder, RadialNetwork, DFS_NO_PARENT};
use primitives::ops::{AddComplex, MaxAbsF64, ScanOp};
use primitives::{try_fill, try_launch_map, try_reduce, try_scan_exclusive};
use simt::{Device, DeviceBuffer, DeviceError, HtodPart};
use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::recovery::{self, SessionClock, SweepSession, Sweeps};
use crate::report::SolveResult;

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
}

impl JumpArrays {
    /// Lays level-order arrays out in preorder, loads included, so loads
    /// patched into `a.s` reach the jump solver. Both layouts visit a
    /// parent's children in edge-insertion order, so a DFS over the
    /// level-order edge list reproduces the network's own preorder
    /// ([`DfsOrder::new`]).
    pub fn new(a: &SolverArrays) -> Self {
        let order = &a.levels.order;
        let edges: Vec<(u32, u32)> =
            (1..a.len()).map(|p| (order[a.levels.parent_pos[p] as usize], order[p])).collect();
        let dfs = DfsOrder::from_edges(a.len(), order[0] as usize, &edges);
        let level_pos = |b: u32| a.levels.pos_of[b as usize] as usize;
        let s = dfs.order.iter().map(|&b| a.s[level_pos(b)]).collect();
        let z = dfs.order.iter().map(|&b| a.z[level_pos(b)]).collect();
        let parent_or_self = dfs
            .parent_pos
            .iter()
            .enumerate()
            .map(|(d, &p)| if p == DFS_NO_PARENT { d as u32 } else { p })
            .collect();
        JumpArrays { source: a.source, s, z, parent_or_self, dfs }
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
        let arrays = JumpArrays::new(&SolverArrays::new(net));
        self.solve_arrays(&arrays, cfg)
    }

    /// Solves with pre-built preorder arrays, always from the flat start.
    /// Runs the one device loop (`recovery::drive`) with no
    /// checkpoints and no retry budget: a device error or an injected
    /// fault it would have to roll back panics.
    pub fn solve_arrays(&mut self, a: &JumpArrays, cfg: &SolverConfig) -> SolveResult {
        let wall0 = Instant::now();
        if cfg.validate().is_err() {
            return crate::report::invalid_config_result(a.len(), a.source);
        }
        let obs = Obs::new(self.recorder.as_ref(), "solver.jump");
        let opened = JumpSession::with_obs(&mut self.device, a, obs.clone());
        recovery::run_plain(opened, wall0, cfg, &obs)
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
    clock: SessionClock,
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

        let mark = dev.timeline().mark();
        let s_buf = dev.try_alloc_from(&a.s)?;
        let z_buf = dev.try_alloc_from(&a.z)?;
        let parent_buf = dev.try_alloc_from(&a.parent_or_self)?;
        let size_buf = dev.try_alloc_from(&a.dfs.subtree_size)?;
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
        let clock = SessionClock::new(b.total_us(), b.transfer_us(), obs);

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
            clock,
        })
    }

    /// The device and every static buffer with its host truth: what a
    /// rollback re-uploads and an integrity check reads back, one
    /// transfer each, in upload order.
    fn statics(&mut self) -> (&mut Device, [HtodPart<'_>; 4]) {
        let a = self.a;
        let parts = [
            HtodPart::new(&mut self.s_buf, &a.s),
            HtodPart::new(&mut self.z_buf, &a.z),
            HtodPart::new(&mut self.parent_buf, &a.parent_or_self),
            HtodPart::new(&mut self.size_buf, &a.dfs.subtree_size),
        ];
        (&mut *self.dev, parts)
    }
}

impl SweepSession for JumpSession<'_> {
    type V = Complex;

    fn clock(&self) -> &SessionClock {
        &self.clock
    }

    fn iterate(&mut self, _: &Sweeps) -> Result<Vec<f64>, DeviceError> {
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
        self.clock.charge("injection", &dev.timeline().breakdown_since(mark));

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
        self.clock.charge("backward", &dev.timeline().breakdown_since(mark));

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
        self.clock.charge("forward", &dev.timeline().breakdown_since(mark));

        // ---- Convergence ----
        let mark = dev.timeline().mark();
        let delta = try_reduce::<f64, MaxAbsF64>(dev, &self.delta_buf)?;
        self.clock.charge("convergence", &dev.timeline().breakdown_since(mark));
        Ok(vec![delta])
    }

    fn snapshot(&mut self) -> Result<Vec<Complex>, DeviceError> {
        let mark = self.dev.timeline().mark();
        let v = self.dev.try_dtoh_checked(&self.v_buf)?;
        self.clock.recovery_us += self.dev.timeline().breakdown_since(mark).total_us();
        Ok(v)
    }

    fn restore(&mut self, v_pos: &[Complex], _live: &[bool]) -> Result<(), DeviceError> {
        let mark = self.dev.timeline().mark();
        let (dev, statics) = self.statics();
        for part in statics {
            dev.try_htod_packed_checked(&mut [part])?;
        }
        let dev = &mut *self.dev;
        dev.try_htod_checked(&mut self.v_buf, v_pos)?;
        try_fill(dev, &mut self.delta_buf, 0.0)?;
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(())
    }

    fn start_state(&self) -> Vec<Complex> {
        vec![self.a.source; self.a.len()]
    }

    fn verify_static(&mut self) -> Result<bool, DeviceError> {
        let mark = self.dev.timeline().mark();
        let (dev, statics) = self.statics();
        let mut ok = true;
        for part in statics {
            ok = ok && dev.try_verify_packed(&[part])?;
        }
        let dev = &mut *self.dev;
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(ok)
    }

    fn download(&mut self) -> Result<(Vec<Complex>, Vec<Complex>), DeviceError> {
        let dev = &mut *self.dev;
        let mark = dev.timeline().mark();
        let v_pos = dev.try_dtoh_checked(&self.v_buf)?;
        let j_pos = dev.try_dtoh_checked(&self.j_buf)?;
        self.clock.charge("teardown", &dev.timeline().breakdown_since(mark));
        Ok((v_pos, j_pos))
    }

    fn unpermute(&self, pos: &[Complex]) -> Vec<Complex> {
        self.a.dfs.unpermute(pos)
    }

    fn host_iterate(&self, v_pos: &[Complex]) -> (Vec<f64>, Vec<Complex>) {
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
        (vec![res], j)
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
    fn arrays_from_level_order_match_the_network_preorder() {
        // Each parent's children are connected out of id order, and the
        // connect calls interleave levels.
        let mut b = powergrid::NetworkBuilder::new(c(2400.0, 0.0));
        for k in 0..10 {
            b.add_bus(c(1_000.0 * k as f64, 300.0 * k as f64));
        }
        let edges = [(3, 7), (0, 2), (2, 9), (0, 1), (1, 4), (3, 8), (0, 3), (2, 5), (1, 6)];
        for (k, &(from, to)) in edges.iter().enumerate() {
            b.connect(from, to, c(0.1 + 0.01 * k as f64, 0.05 + 0.02 * k as f64));
        }
        let net = b.build().unwrap();
        let arrays = SolverArrays::new(&net);
        let a = JumpArrays::new(&arrays);
        let dfs = DfsOrder::new(&net);
        assert_eq!(a.dfs.order, dfs.order);
        assert_eq!(a.dfs.parent_pos, dfs.parent_pos);
        let parent_or_self: Vec<u32> = (0..dfs.len() as u32)
            .map(|d| if d == 0 { 0 } else { dfs.parent_pos[d as usize] })
            .collect();
        assert_eq!(a.parent_or_self, parent_or_self);
        let loads: Vec<Complex> = net.buses().iter().map(|bus| bus.load).collect();
        assert_eq!(a.s, dfs.permute(&loads));
        let z: Vec<Complex> = (0..net.num_buses())
            .map(|bus| net.parent_branch(bus).map_or(Complex::ZERO, |br| br.z))
            .collect();
        assert_eq!(a.z, dfs.permute(&z));
    }

    /// A launch failure rolls a supervised jump solve back, and the
    /// restore's first static upload is corrupted: the checked restore
    /// reports it, and the retried restore still reaches the clean answer.
    #[test]
    fn a_corrupted_restore_is_detected() {
        use crate::{Backend, ResilientSolver};
        use simt::{EventKind, FaultKind, FaultPlan};
        let (a, cfg) = (SolverArrays::new(&ieee13()), SolverConfig::default());
        let run = |plan| {
            let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
            let mut solver =
                ResilientSolver::new(Backend::GpuJump, props, host).with_fault_plan(plan);
            let res = solver.solve(&a, &cfg).expect("a recoverable plan");
            let events = solver.last_device().unwrap().timeline().events();
            (res, events.iter().map(|e| e.kind.clone()).collect::<Vec<_>>())
        };
        // Every device op is one alloc, copy or launch event, in order.
        let ops = |kinds: &[EventKind]| -> Vec<EventKind> {
            kinds
                .iter()
                .filter(|k| {
                    use EventKind::*;
                    matches!(k, Alloc { .. } | Htod { .. } | Dtoh { .. } | Kernel { .. })
                })
                .cloned()
                .collect()
        };
        let (clean, kinds) = run(FaultPlan::seeded(0, 0.0));
        let clean_ops = ops(&kinds);
        let fail = (clean_ops.len() / 2..clean_ops.len())
            .find(|&op| matches!(clean_ops[op], EventKind::Kernel { .. }))
            .unwrap();
        let (_, kinds) = run(FaultPlan::scripted([(fail as u64, FaultKind::LaunchFailure)]));
        // The failed launch records no kernel: later events run one op on.
        let failed_ops = ops(&kinds);
        let htod = (fail..failed_ops.len())
            .find(|&op| matches!(failed_ops[op], EventKind::Htod { .. }))
            .unwrap();
        let restore = htod + 1;
        let plan = FaultPlan::scripted([
            (fail as u64, FaultKind::LaunchFailure),
            (restore as u64, FaultKind::TransferCorruption),
        ]);
        let (res, _) = run(plan);
        let report = res.fault_report.expect("an armed plan reports");
        assert_eq!(report.corruptions_detected, 1, "{report:?}");
        assert!(!report.degraded(), "{report:?}");
        assert_eq!(res.v, clean.v);
    }

    #[test]
    fn jump_arrays_shapes() {
        let net = ieee13();
        let a = JumpArrays::new(&SolverArrays::new(&net));
        assert_eq!(a.len(), 13);
        assert!(!a.is_empty());
        assert_eq!(a.parent_or_self[0], 0, "root self-loops");
        assert_eq!(a.dfs.subtree_size[0], 13);
        assert_eq!(a.z[0], Complex::ZERO);
    }
}
