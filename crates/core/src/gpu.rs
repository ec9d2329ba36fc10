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
//! and its kernels are generic over the per-bus [`Phasor`]: a
//! three-phase solve ([`GpuSolver::solve3`]) runs the same kernels over
//! phase triples and 3×3 impedances, with any backward strategy.
//!
//! # Routing
//!
//! On a small or deep tree the level path is launch-bound: a 1K-bus
//! binary tree pays 33 launches per iteration. On a large one the
//! paper's segmented scan is not the cheapest backward sweep: its scan
//! launches cost more than a direct per-parent child loop, which loses
//! only where a bus has many children (a star). [`GpuSolver::new`]
//! therefore routes each solve by one cost rule over the level table,
//! [`route`]: to the tensor engine's resident chunk at batch size one
//! (a one-lane `tensor_batch::Chunk`: one launch whose block loops over the
//! fused sweeps, the same iterates) on small and deep trees, else to the
//! level path above with the direct backward on binary and k-ary trees
//! and the segmented scan on star-like ones. Either session runs the
//! same loop, `recovery::drive`, and the supervisor's
//! [`crate::Backend::Gpu`] rung takes the same route. [`GpuSolver::with_strategy`] pins the level
//! path with the given backward strategy; the experiments that reproduce
//! the paper's tables use it. The fused engine is single-phase, so an
//! unpinned three-phase solve takes the level path, with whichever
//! backward strategy the same rule prices cheaper for phase triples
//! ([`level_strategy`]).

use std::time::Instant;

use numc::{CVec3, Complex};
use powergrid::three_phase::ThreePhaseNetwork;
use powergrid::RadialNetwork;
use primitives::ops::{MaxAbsF64, ScanOp};
use primitives::{try_fill, try_launch_map, try_reduce, try_segscan_inclusive_range};
use simt::{Device, DeviceBuffer, DeviceError, DeviceProps, LaunchConfig, TRANSACTION_BYTES};
use telemetry::Recorder;

use crate::arrays::{LevelArrays, SolverArrays};
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::phasor::Phasor;
use crate::recovery::{self, SessionClock, SweepSession, Sweeps};
use crate::report::{invalid_config_result, SolveResult};
use crate::tensor_batch::{self, Chunk};
use crate::three_phase::{Arrays3, Solve3Result};

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
    /// The level path's backward strategy when pinned; `None` routes
    /// every single-phase solve ([`route`]) and picks the backward
    /// strategy of three-phase ones ([`level_strategy`]).
    pin: Option<BackwardStrategy>,
    recorder: Option<Recorder>,
}

impl GpuSolver {
    /// Creates a solver on the given device that routes every solve to
    /// whichever device path the shape of its tree makes cheapest in
    /// modeled time: the tensor engine's fused sweep at batch size one —
    /// one launch looping over the iterations — on small or deep trees,
    /// or the paper's level-launch path, with the direct backward sweep
    /// on large binary and k-ary trees and the segmented scan on
    /// star-like ones. The route is a deterministic function of the level
    /// table and the device's launch, latency, barrier, bandwidth and
    /// PCIe constants; every path reaches the same iterates.
    pub fn new(device: Device) -> Self {
        GpuSolver { device, pin: None, recorder: None }
    }

    /// Creates a solver pinned to the paper's level-launch path with an
    /// explicit backward-sweep strategy: every solve, of either phase
    /// kind, runs exactly the kernels the module docs describe, whatever
    /// the tree.
    pub fn with_strategy(device: Device, strategy: BackwardStrategy) -> Self {
        GpuSolver { device, pin: Some(strategy), recorder: None }
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
        let warm = v_init.is_some();
        match self.pin.map_or_else(|| route(self.device.props(), a, warm), Route::Level) {
            Route::Fused => {
                self.run(a, cfg, |dev, obs| Chunk::open(dev, a, v_init, cfg.max_iter, obs))
            }
            Route::Level(strategy) => {
                self.run(a, cfg, |dev, obs| GpuSession::with_obs(dev, a, strategy, v_init, obs))
            }
        }
    }

    /// Solves a three-phase network on the level path with the pinned
    /// backward strategy, or, when none is pinned, whichever of the
    /// segmented scan and the direct backward is cheaper on its tree
    /// ([`level_strategy`]).
    pub fn solve3(&mut self, net: &ThreePhaseNetwork, cfg: &SolverConfig) -> Solve3Result {
        self.solve3_warm(&Arrays3::new(net), cfg, None)
    }

    /// [`GpuSolver::solve3`] from pre-built arrays, starting from `v_init`
    /// (by bus id) when given.
    pub(crate) fn solve3_warm(
        &mut self,
        a: &Arrays3,
        cfg: &SolverConfig,
        v_init: Option<&[CVec3]>,
    ) -> Solve3Result {
        // The fused engine is single-phase: an unpinned three-phase solve
        // takes the level path with the cheaper backward strategy.
        let strategy = self.pin.unwrap_or_else(|| level_strategy3(self.device.props(), a));
        self.run(a, cfg, |dev, obs| GpuSession::with_obs(dev, a, strategy, v_init, obs))
    }

    /// Every solve of either phase kind and either route: runs the
    /// session `open` returns through the one device loop, with its spans
    /// under `solver.gpu`; an invalid `cfg` opens none.
    fn run<'s, V: Phasor, S: SweepSession<V = V> + 's>(
        &'s mut self,
        a: &LevelArrays<V, V::Z>,
        cfg: &SolverConfig,
        open: impl FnOnce(&'s mut Device, Obs) -> Result<S, DeviceError>,
    ) -> SolveResult<V> {
        let wall0 = Instant::now();
        if cfg.validate().is_err() {
            return invalid_config_result(a.len(), a.source);
        }
        let obs = Obs::new(self.recorder.as_ref(), "solver.gpu");
        recovery::run_plain(open(&mut self.device, obs.clone()), wall0, cfg, &obs)
    }
}

/// The route of [`GpuSolver::new`] and of the supervisor's
/// [`crate::Backend::Gpu`] rung: the fused sweep at batch size one
/// (`crate::tensor_batch`), or the level path with whichever backward
/// strategy, segmented scan or direct, is cheaper on `a`
/// ([`level_strategy`]).
///
/// A deterministic function of the level table — each level's width and
/// widest fan-out — and the device's launch, latency, barrier, bandwidth
/// and PCIe constants, computed per solve from the arrays (never in
/// [`SolverArrays::new`]). All three reach the same iterates.
///
/// *Fused or level* prices each path like for like, per iteration and
/// once per solve, and takes the fused path only if it is no dearer at
/// any iteration count: no dearer per iteration, and cheaper over one.
///
/// * **Fused.** An iteration is one sweep inside the solve's one launch:
///   [`tensor_batch::single_iteration_bound_us`] less the launch
///   overhead, an upper bound, with no launch and no read-back of its
///   own. Once per solve it pays that launch and three PCIe
///   transactions: one packed upload (a warm start rides in it), one
///   residual read-back and one packed V/J read-back.
/// * **Level.** An iteration pays every launch it makes, each modeled as
///   [`backward_us`] models the backward sweep's: the injection map, the
///   cheaper backward sweep, a forward map per non-root level and the
///   reduction's last launch, plus its residual read-back. Once per
///   solve it pays one upload per static buffer, its V and J read-backs
///   and its fill launches (a warm start uploads its voltages in place of
///   one fill).
///
/// Small and deep trees go fused (a 1K-bus binary tree, a 1K-bus chain);
/// wide levels serialise the lone fused block. Large binary and k-ary
/// trees take the direct backward, stars the segmented scan.
pub(crate) fn route(props: &DeviceProps, a: &SolverArrays, warm: bool) -> Route {
    let shape = level_shape(a);
    let (strategy, backward) = level_backward::<Complex>(props, &shape);
    let fused = tensor_batch::single_iteration_bound_us(props, &shape) - props.launch_overhead_us;
    let level = level_iteration_us(props, &shape, backward);
    let pcie = |transfers: usize| transfers as f64 * props.pcie_latency_us;
    let warm = usize::from(warm);
    let fused_once = props.launch_overhead_us + pcie(3);
    let level_once =
        pcie(LEVEL_STATICS + 2 + warm) + (2 - warm) as f64 * launch_us(props, 1, 1, 1, 0);
    if fused <= level && fused_once + fused < level_once + level {
        Route::Fused
    } else {
        Route::Level(strategy)
    }
}

/// The level path's cheaper backward strategy on a tree of this level
/// table for phasor `V`, segmented scan or direct, with its modeled µs
/// per backward sweep ([`backward_us`]).
fn level_backward<V: Phasor>(
    props: &DeviceProps,
    shape: &[(usize, usize)],
) -> (BackwardStrategy, f64) {
    let (direct, segscan) = backward_us(props, shape, std::mem::size_of::<V>());
    if direct < segscan {
        (BackwardStrategy::Direct, direct)
    } else {
        (BackwardStrategy::SegScan, segscan)
    }
}

/// The route's choice of backward strategy on the level path, and every
/// unpinned three-phase solve's ([`level_backward`]).
pub(crate) fn level_strategy<V: Phasor>(
    props: &DeviceProps,
    shape: &[(usize, usize)],
) -> BackwardStrategy {
    level_backward::<V>(props, shape).0
}

/// [`level_strategy`] of a three-phase tree: the backward strategy of
/// every unpinned three-phase device solve.
pub(crate) fn level_strategy3(props: &DeviceProps, a: &Arrays3) -> BackwardStrategy {
    level_strategy::<CVec3>(props, &level_shape(a))
}

/// Where a routed solve runs ([`route`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// The tensor engine's resident chunk at batch size one: one fused
    /// sweep launch per iteration.
    Fused,
    /// The paper's level path with this backward strategy (`SegScan` or
    /// `Direct`).
    Level(BackwardStrategy),
}

/// The level table the route reads: per level, root first, its width and
/// its widest bus's child count.
pub(crate) fn level_shape<V: Phasor>(a: &LevelArrays<V, V::Z>) -> Vec<(usize, usize)> {
    a.levels
        .level_offsets
        .windows(2)
        .map(|w| {
            let level = w[0] as usize..w[1] as usize;
            let fan_out = level.clone().map(|p| a.child_hi[p] - a.child_lo[p]).max().unwrap_or(0);
            (level.len(), fan_out as usize)
        })
        .collect()
}

/// Modeled µs of one launch of `threads` threads whose busiest thread
/// makes `chain` dependent global accesses over `phases` barrier phases
/// and which moves `bytes`: the launch overhead plus the larger of its
/// latency floor and its bandwidth time, as in the `simt` timing model
/// (`simt::timing`).
fn launch_us(props: &DeviceProps, threads: usize, chain: usize, phases: usize, bytes: usize) -> f64 {
    const BLOCK: usize = LaunchConfig::DEFAULT_BLOCK as usize;
    let resident =
        (props.resident_blocks_per_sm(BLOCK as u32, 0) as usize * props.num_sms as usize).max(1);
    let waves = threads.div_ceil(BLOCK).max(1).div_ceil(resident);
    let cycles = chain as f64 * props.mem_latency_cycles + phases as f64 * props.barrier_cycles;
    let latency = waves as f64 * cycles / props.cycles_per_us();
    props.launch_overhead_us + latency.max(bytes as f64 / props.mem_bytes_per_us())
}

/// Modeled µs of one single-phase level-path iteration around a backward
/// sweep of `backward` µs: the injection map (load, voltage, current
/// store), a forward map per non-root level (parent, parent voltage,
/// impedance, current, own voltage, voltage and delta stores), the last
/// launch of the ∞-norm reduction and the residual read-back.
fn level_iteration_us(props: &DeviceProps, shape: &[(usize, usize)], backward: f64) -> f64 {
    const C: usize = std::mem::size_of::<Complex>();
    let n = shape.iter().map(|&(width, _)| width).sum();
    let inject = launch_us(props, n, 3, 1, 3 * C * n);
    let forward: f64 =
        shape.iter().skip(1).map(|&(w, _)| launch_us(props, w, 7, 1, (12 + 5 * C) * w)).sum();
    let reduce = launch_us(props, 1, 1, 1, 0);
    inject + backward + forward + reduce + simt::timing::transfer_time(props, 8)
}

/// Modeled µs of one backward sweep per strategy, `(direct, segscan)`,
/// from the level table and the phasor's size in bytes (`c`, 16 for one
/// phase, 48 for three): each launch costs the launch overhead plus the
/// larger of its latency floor and its bandwidth time, as in the `simt`
/// timing model (`simt::timing`), with each level's widest fan-out
/// standing in for all of its buses.
fn backward_us(props: &DeviceProps, shape: &[(usize, usize)], c: usize) -> (f64, f64) {
    const BLOCK: usize = LaunchConfig::DEFAULT_BLOCK as usize;
    const U: usize = std::mem::size_of::<u32>();
    let launch = |threads, chain, phases, bytes| launch_us(props, threads, chain, phases, bytes);
    // The segmented scan of `len` children: a block-scan launch (two
    // loads, a Hillis–Steele pass, four stores) and, past one block, a
    // carry launch and the same scan over the block totals.
    let scan = |mut len: usize| {
        let mut us = 0.0;
        while len > 0 {
            us += launch(len, 6, 2 + BLOCK.ilog2() as usize, 2 * (c + U) * len);
            if len <= BLOCK {
                break;
            }
            us += launch(len, 4, 1, (2 * c + U) * len);
            len = len.div_ceil(BLOCK);
        }
        us
    };
    let (mut direct, mut segscan) = (0.0, 0.0);
    for (l, &(width, fan_out)) in shape.iter().enumerate() {
        let children = shape.get(l + 1).map_or(0, |&(w, _)| w);
        // Each bus loads its injection and child range and stores its
        // current. A warp's per-child loads (direct) or segment-tail loads
        // (segscan) land `fan_out` elements apart: from one transaction's
        // worth of elements on, each is a transaction of its own.
        let own = (2 * c + 2 * U) * width;
        let scattered = c * fan_out.min(TRANSACTION_BYTES as usize / c);
        direct += launch(width, 4 + fan_out, 1, own + scattered * children);
        let chain = if children > 0 { 6 } else { 4 };
        segscan += scan(children) + launch(width, chain, 1, own + (U + scattered) * width);
    }
    (direct, segscan)
}

/// Static buffers a [`GpuSession`] uploads one transfer each: loads,
/// impedances, parent positions, the two child-range bounds, head flags
/// and segment tails ([`route`] counts their PCIe latencies).
const LEVEL_STATICS: usize = 7;

/// One level-synchronous solve in progress: device state plus phase
/// accounting, stepped one iteration at a time by `recovery::drive`.
///
/// Splitting the solve into a session is what lets the recovery
/// supervisor ([`crate::recovery::ResilientSolver`]) interleave
/// checkpoints, integrity checks and rollbacks between iterations
/// without duplicating the sweep kernels. One set of kernels serves both
/// phase kinds, generic over the per-bus [`Phasor`], with every backward
/// strategy.
pub(crate) struct GpuSession<'a, V: Phasor> {
    dev: &'a mut Device,
    a: &'a LevelArrays<V, V::Z>,
    /// The warm start by bus id; `None` is the flat start.
    v_init: Option<&'a [V]>,
    strategy: BackwardStrategy,
    s_buf: DeviceBuffer<V>,
    z_buf: DeviceBuffer<V::Z>,
    parent_buf: DeviceBuffer<u32>,
    child_lo_buf: DeviceBuffer<u32>,
    child_hi_buf: DeviceBuffer<u32>,
    flags_buf: DeviceBuffer<u32>,
    seg_last_buf: DeviceBuffer<u32>,
    v_buf: DeviceBuffer<V>,
    i_buf: DeviceBuffer<V>,
    j_buf: DeviceBuffer<V>,
    delta_buf: DeviceBuffer<f64>,
    scan_buf: DeviceBuffer<V>,
    clock: SessionClock,
}

impl<'a, V: Phasor> GpuSession<'a, V> {
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

impl<V: Phasor> SweepSession for GpuSession<'_, V> {
    type V = V;

    fn clock(&self) -> &SessionClock {
        &self.clock
    }

    /// One device iteration — inject, backward, forward, reduce — with
    /// each phase charged to the session's clock; returns the ∞-norm
    /// voltage update.
    fn iterate(&mut self, _: &Sweeps) -> Result<Vec<f64>, DeviceError> {
        let dev = &mut *self.dev;
        let a = self.a;
        let n = a.len();
        let num_levels = a.num_levels();

        // ---- Injection ----
        let mark = dev.timeline().mark();
        {
            let s_v = self.s_buf.view();
            let v_v = self.v_buf.view();
            let i_v = self.i_buf.view_mut();
            try_launch_map(dev, n, "fbs_inject", move |t, p| {
                let s = t.ld(&s_v, p);
                // A bus with no load on any phase draws no current: its
                // voltage is not read and nothing is divided.
                let out = if s == V::default() {
                    V::default()
                } else {
                    let v = t.ld(&v_v, p);
                    t.flops(V::INJ_FLOPS);
                    V::inject(s, v)
                };
                t.st(&i_v, p, out);
            })?;
        }
        self.clock.charge("injection", &dev.timeline().breakdown_since(mark));

        // ---- Backward sweep: deepest level → root ----
        let mark = dev.timeline().mark();
        if self.strategy == BackwardStrategy::AtomicScatter {
            // Init J = I everywhere, then one child→parent atomic
            // scatter per level: children of a level-(l−1) bus all
            // live at level l, so after the level-l scatter every
            // level-(l−1) branch current is final.
            {
                let i_v = self.i_buf.view();
                let j_v = self.j_buf.view_mut();
                try_launch_map(dev, n, "fbs_backward_init", move |t, p| {
                    let v = t.ld(&i_v, p);
                    t.st(&j_v, p, v);
                })?;
            }
            for l in (1..num_levels).rev() {
                let range = a.levels.level_range(l);
                let (lo, len) = (range.start, range.len());
                let par_v = self.parent_buf.view();
                let j_v = self.j_buf.view_mut();
                try_launch_map(dev, len, "fbs_backward_scatter", move |t, k| {
                    let c = lo + k;
                    let parent = t.ld(&par_v, c) as usize;
                    let jc = t.ld_mut(&j_v, c);
                    t.flops(V::BWD_FLOPS);
                    t.atomic_add(&j_v, parent, jc);
                })?;
            }
        } else {
            for l in (0..num_levels).rev() {
                let range = a.levels.level_range(l);
                let (lo, len) = (range.start, range.len());
                let i_v = self.i_buf.view();
                let lo_v = self.child_lo_buf.view();
                let hi_v = self.child_hi_buf.view();
                if self.strategy == BackwardStrategy::Direct {
                    let j_v = self.j_buf.view_mut();
                    try_launch_map(dev, len, "fbs_backward_direct", move |t, k| {
                        let p = lo + k;
                        let mut acc = t.ld(&i_v, p);
                        let c_lo = t.ld(&lo_v, p) as usize;
                        let c_hi = t.ld(&hi_v, p) as usize;
                        for c in c_lo..c_hi {
                            t.flops(V::BWD_FLOPS);
                            acc += t.ld_mut(&j_v, c);
                        }
                        t.st(&j_v, p, acc);
                    })?;
                } else {
                    if l + 1 < num_levels {
                        let crange = a.levels.level_range(l + 1);
                        try_segscan_inclusive_range::<V, V::Sum>(
                            dev,
                            &self.j_buf,
                            &self.flags_buf,
                            crange.start,
                            crange.end,
                            &mut self.scan_buf,
                        )?;
                    }
                    let last_v = self.seg_last_buf.view();
                    let scan_v = self.scan_buf.view();
                    let j_v = self.j_buf.view_mut();
                    try_launch_map(dev, len, "fbs_backward_combine", move |t, k| {
                        let p = lo + k;
                        let mut acc = t.ld(&i_v, p);
                        if t.ld(&lo_v, p) < t.ld(&hi_v, p) {
                            let tail = t.ld(&last_v, p) as usize;
                            t.flops(V::BWD_FLOPS);
                            acc += t.ld(&scan_v, tail);
                        }
                        t.st(&j_v, p, acc);
                    })?;
                }
            }
        }
        self.clock.charge("backward", &dev.timeline().breakdown_since(mark));

        // ---- Forward sweep: root → leaves ----
        let mark = dev.timeline().mark();
        for l in 1..num_levels {
            let range = a.levels.level_range(l);
            let (lo, len) = (range.start, range.len());
            let z_v = self.z_buf.view();
            let par_v = self.parent_buf.view();
            let j_v = self.j_buf.view();
            let d_v = self.delta_buf.view_mut();
            let v_v = self.v_buf.view_mut();
            try_launch_map(dev, len, "fbs_forward", move |t, k| {
                let p = lo + k;
                let parent = t.ld(&par_v, p) as usize;
                let vp = t.ld_mut(&v_v, parent);
                let z = t.ld(&z_v, p);
                let jb = t.ld(&j_v, p);
                let old = t.ld_mut(&v_v, p);
                let new_v = vp - V::z_mul(z, jb);
                t.flops(V::FWD_FLOPS);
                t.st(&v_v, p, new_v);
                t.st(&d_v, p, (new_v - old).norm());
            })?;
        }
        self.clock.charge("forward", &dev.timeline().breakdown_since(mark));

        // ---- Convergence: ∞-norm reduction + scalar read-back ----
        let mark = dev.timeline().mark();
        let delta = try_reduce::<f64, MaxAbsF64>(dev, &self.delta_buf)?;
        self.clock.charge("convergence", &dev.timeline().breakdown_since(mark));
        Ok(vec![delta])
    }

    fn snapshot(&mut self) -> Result<Vec<V>, DeviceError> {
        let mark = self.dev.timeline().mark();
        // A checkpoint read must be certified clean: a silently corrupted
        // snapshot would poison every later rollback.
        let v = self.dev.try_dtoh_checked(&self.v_buf)?;
        self.clock.recovery_us += self.dev.timeline().breakdown_since(mark).total_us();
        Ok(v)
    }

    fn restore(&mut self, v_pos: &[V], _live: &[bool]) -> Result<(), DeviceError> {
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

    fn host_iterate(&self, v_pos: &[V]) -> (Vec<f64>, Vec<V>) {
        let (r, j) = host_iterate(self.a, self.v_init, v_pos, &[]);
        (vec![r], j)
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
/// level sessions and tensor chunks share this position order, so both
/// run it; the positions `dead` flags (an outage's unloaded subtree) stay
/// out of the residual. No kernel writes the root, so a corrupted root is a consistent fixed
/// point of a wrong source: it is checked against the start state,
/// `v_init` (by bus id) or the flat start.
pub(crate) fn host_iterate<V: Phasor>(
    a: &LevelArrays<V, V::Z>,
    v_init: Option<&[V]>,
    v_pos: &[V],
    dead: &[bool],
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
        if !dead.get(p).is_some_and(|&d| d) {
            res = MaxAbsF64::combine(res, (nv - v_pos[p]).norm());
        }
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
        let a = SolverArrays::new(&net);
        assert_eq!(route(&DeviceProps::paper_rig(), &a, false), Route::Fused);
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

    /// The route's verdict per shape: small and deep trees fused, large
    /// binary and k-ary trees on the direct backward, stars on the
    /// segmented scan — the paper's shapes, E7a's four 64K topologies and
    /// the binary tree next to the fused/direct crossover. Forcing either
    /// level strategy everywhere fails here.
    #[test]
    fn route_takes_fused_on_small_and_deep_trees_and_level_on_wide_ones() {
        use BackwardStrategy::{Direct, SegScan};
        let spec = GenSpec::default();
        let props = DeviceProps::paper_rig();
        let rng = || StdRng::seed_from_u64(7);
        let fused = [
            ("binary 1023", balanced_binary(1023, &spec, &mut rng())),
            ("binary 16383", balanced_binary(16_383, &spec, &mut rng())),
            ("chain 1000", chain(1000, &spec, &mut rng())),
        ];
        for (name, net) in &fused {
            let a = arrays(net);
            assert_eq!(route(&props, &a, false), Route::Fused, "{name}, cold");
            assert_eq!(route(&props, &a, true), Route::Fused, "{name}, warm");
        }
        let level = [
            ("binary 65535", balanced_binary(65_535, &spec, &mut rng()), Direct),
            ("binary 262143", balanced_binary(262_143, &spec, &mut rng()), Direct),
            ("4-ary 65536", balanced_kary(65_536, 4, &spec, &mut rng()), Direct),
            ("8-ary 32000", balanced_kary(32_000, 8, &spec, &mut rng()), Direct),
            ("32-ary 65536", balanced_kary(65_536, 32, &spec, &mut rng()), Direct),
            ("star 1000", star(1000, &spec, &mut rng()), SegScan),
            ("star 16384", star(16_384, &spec, &mut rng()), SegScan),
            ("binary 64K", balanced_binary(65_536, &spec, &mut rng()), Direct),
            ("16-ary 64K", balanced_kary(65_536, 16, &spec, &mut rng()), Direct),
            ("256-ary 64K", balanced_kary(65_536, 256, &spec, &mut rng()), SegScan),
            ("star 64K", star(65_536, &spec, &mut rng()), SegScan),
        ];
        for (name, net, strategy) in &level {
            assert_eq!(route(&props, &arrays(net), false), Route::Level(*strategy), "{name}");
        }
    }

    /// Binary 16 383 sits near the fused/direct crossover (fused about
    /// 15% under direct): the routed solve must cost within 5% of the
    /// cheapest device path, fused or the level path with any backward
    /// strategy.
    #[test]
    fn routed_solve_is_near_the_cheapest_path_at_the_crossover() {
        let net = balanced_binary(16_383, &GenSpec::default(), &mut StdRng::seed_from_u64(7));
        let a = arrays(&net);
        let cfg = SolverConfig::default();
        let dev = || Device::with_workers(DeviceProps::paper_rig(), 2);
        let routed = GpuSolver::new(dev()).solve_arrays(&a, &cfg).timing.total_us();
        let (mut fused_dev, obs) = (dev(), Obs::default());
        let opened = Chunk::open(&mut fused_dev, &a, None, cfg.max_iter, obs.clone());
        let fused = recovery::run_plain(opened, Instant::now(), &cfg, &obs).timing.total_us();
        let strategies =
            [BackwardStrategy::SegScan, BackwardStrategy::Direct, BackwardStrategy::AtomicScatter];
        let cheapest = strategies
            .into_iter()
            .map(|s| GpuSolver::with_strategy(dev(), s).solve_arrays(&a, &cfg).timing.total_us())
            .fold(fused, f64::min);
        assert!(routed <= 1.05 * cheapest, "routed {routed:.1} µs, cheapest {cheapest:.1} µs");
    }

    #[test]
    fn routed_solve_runs_one_launch_and_matches_the_pinned_path() {
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
        // Every iteration runs in the one sweep launch: no fills.
        assert_eq!(b.kernels, 1);
        let scale = net.source_voltage().abs();
        for (x, y) in r.v.iter().zip(&p.v) {
            assert!((*x - *y).abs() <= 1e-9 * scale, "{x:?} vs {y:?}");
        }
        assert!(r.fault_report.is_none(), "no plan armed, nothing to report");
    }

    /// An unpinned three-phase solve takes the cheaper level strategy for
    /// phase triples: direct on phase-expanded binary trees (E11's
    /// generator), the segmented scan on a star; either way its modeled
    /// time is the pinned strategy's, and no more than the other's.
    #[test]
    fn three_phase_solves_take_the_cheaper_backward_strategy() {
        use powergrid::three_phase::from_single_phase;
        use BackwardStrategy::{Direct, SegScan};
        let (spec, props) = (GenSpec::default(), DeviceProps::paper_rig());
        let cfg = SolverConfig::default();
        let phased = |net: RadialNetwork, rng: &mut StdRng| {
            Arrays3::new(&from_single_phase(&net, 0.35, 0.3, rng))
        };
        let mut cases = Vec::new();
        for n in [1024, 4096] {
            let mut rng = StdRng::seed_from_u64(110);
            let net = balanced_binary(n, &spec, &mut rng);
            cases.push((format!("binary {n}"), phased(net, &mut rng), Direct));
        }
        let mut rng = StdRng::seed_from_u64(110);
        let net = star(1000, &spec, &mut rng);
        cases.push(("star 1000".to_string(), phased(net, &mut rng), SegScan));
        for (name, a, want) in &cases {
            assert_eq!(level_strategy3(&props, a), *want, "{name}");
            let dev = || Device::with_workers(props.clone(), 2);
            let routed = GpuSolver::new(dev()).solve3_warm(a, &cfg, None);
            let solve = |s| GpuSolver::with_strategy(dev(), s).solve3_warm(a, &cfg, None);
            let (chosen, other) = (solve(*want), solve(if *want == Direct { SegScan } else { Direct }));
            assert_eq!(routed.v, chosen.v, "{name}");
            let us = |r: &Solve3Result| r.timing.total_us();
            assert_eq!(us(&routed), us(&chosen), "{name}");
            assert!(us(&routed) < us(&other), "{name}: {} vs {} µs", us(&routed), us(&other));
        }
    }

    #[test]
    fn routed_invalid_config_short_circuits() {
        let net = ieee13();
        assert_eq!(route(&DeviceProps::paper_rig(), &arrays(&net), false), Route::Fused);
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
    use powergrid::three_phase::from_single_phase;
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

    /// The scatter over phase triples: `CVec3`'s component-wise
    /// `atomic_add`, many children per parent, serial's iterates.
    #[test]
    fn atomic_scatter_matches_serial_on_three_phases() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(94);
        for net1 in [balanced_kary(1000, 8, &spec, &mut rng), star(300, &spec, &mut rng)] {
            let net = from_single_phase(&net1, 0.4, 0.25, &mut rng);
            let serial = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&Arrays3::new(&net), &cfg);
            let mut gpu = atomic_gpu();
            let res = gpu.solve3(&net, &cfg);
            assert!(res.converged());
            assert_eq!(res.iterations, serial.iterations);
            let kernels = gpu.device().timeline().breakdown().per_kernel_us;
            assert!(kernels.contains_key("fbs_backward_scatter"), "{:?}", kernels.keys());
            let scale = net.source_voltage().abs_max();
            for (x, y) in serial.v.iter().zip(&res.v) {
                for (p, q) in x.phases().iter().zip(y.phases()) {
                    assert!((*p - q).abs() < 1e-8 * scale, "{x:?} vs {y:?}");
                }
            }
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

