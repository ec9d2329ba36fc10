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
//! (a one-lane `tensor_batch::Chunk`: one launch that loops over the
//! fused sweeps, the same iterates) — on one block for small and deep
//! trees, and on large binary and k-ary trees across a cooperative grid
//! of co-resident blocks, each owning whole subtrees below one cut level
//! so that grid barriers remain only at the cut and near the root — else
//! to
//! the level path above with the segmented scan on star-like trees.
//! Either session runs the
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
use powergrid::{LevelOrder, RadialNetwork};
use primitives::ops::{MaxAbsF64, ScanOp};
use primitives::{try_fill, try_launch_map, try_reduce, try_segscan_inclusive_range};
use simt::{
    Device, DeviceBuffer, DeviceError, DeviceProps, HtodPart, LaunchConfig, TRANSACTION_BYTES,
};
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
            Route::Fused { grid } => {
                self.run(a, cfg, |dev, obs| Chunk::open(dev, a, v_init, cfg.max_iter, grid, obs))
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
/// A deterministic function of the level table ([`LevelShape`]: each
/// level's width and its buses' fan-outs) and the device's launch,
/// latency, barrier, grid-barrier, bandwidth, occupancy and PCIe
/// constants, computed per solve from the arrays (never in
/// [`SolverArrays::new`]). Every route reaches the same iterates.
///
/// *Fused or level* prices each path like for like, per iteration and
/// once per solve, and takes the fused path only if it is no dearer at
/// any iteration count: no dearer per iteration, and cheaper over one.
///
/// * **Fused.** An iteration is one sweep inside the solve's one launch,
///   over the blocks [`tensor_batch::sweep_plan`] prices cheaper — one
///   block, or the co-resident grid cut where its grid barriers cost
///   least: [`tensor_batch::sweep_bound_us`] less the launch overhead, an upper
///   bound, with no launch and no read-back of its own. Once per solve it
///   pays that launch and three PCIe transactions: one packed upload (a
///   warm start rides in it), one residual read-back and one packed V/J
///   read-back.
/// * **Level.** An iteration pays every launch it makes, each modeled as
///   [`backward_us`] models the backward sweep's: the injection map, the
///   cheaper backward sweep, a forward map per non-root level and the
///   reduction's last launch, plus its residual read-back. Once per
///   solve it pays one upload per static buffer, its V and J read-backs
///   and its fill launches (a warm start uploads its voltages in place of
///   one fill).
///
/// Small and deep trees go fused on one block (a 1K-bus binary tree, a
/// 1K-bus chain). Wide levels would serialise a lone block, so large
/// binary and k-ary trees spread each sweep over the co-resident grid.
/// Stars, whose root sums every child in one thread on either fused
/// layout, take the segmented scan.
pub(crate) fn route(props: &DeviceProps, a: &SolverArrays, warm: bool) -> Route {
    let shape = level_shape(a);
    let (strategy, backward) = level_backward::<Complex>(props, &shape);
    let spread = tensor_batch::sweep_plan(props, &a.levels, &shape);
    let fused = tensor_batch::sweep_bound_us(props, &shape, &spread) - props.launch_overhead_us;
    let level = level_iteration_us(props, &shape, backward);
    let pcie = |transfers: usize| transfers as f64 * props.pcie_latency_us;
    let warm = usize::from(warm);
    let fused_once = props.launch_overhead_us + pcie(3);
    let level_once = pcie(level_statics(strategy) + 2 + warm)
        + (2 - warm) as f64 * launch_us(props, 1, 1.0, 1, 0);
    if fused <= level && fused_once + fused < level_once + level {
        Route::Fused { grid: spread.grid }
    } else {
        Route::Level(strategy)
    }
}

/// The level path's cheaper backward strategy on a tree of this level
/// table for phasor `V`, segmented scan or direct, with its modeled µs
/// per backward sweep ([`backward_us`]). The scan uploads more statics
/// once per solve ([`level_statics`]), so, as [`route`] weighs the fused
/// path, it is taken only where it is no dearer at any iteration count:
/// where its sweep undercuts direct's by more than those uploads' PCIe
/// latencies, so that it is cheaper over one.
fn level_backward<V: Phasor>(
    props: &DeviceProps,
    shape: &[LevelShape],
) -> (BackwardStrategy, f64) {
    use BackwardStrategy::{Direct, SegScan};
    let (direct, segscan) = backward_us(props, shape, std::mem::size_of::<V>());
    let uploads = (level_statics(SegScan) - level_statics(Direct)) as f64 * props.pcie_latency_us;
    if uploads + segscan < direct {
        (SegScan, segscan)
    } else {
        (Direct, direct)
    }
}

/// The route's choice of backward strategy on the level path, and every
/// unpinned three-phase solve's ([`level_backward`]).
pub(crate) fn level_strategy<V: Phasor>(
    props: &DeviceProps,
    shape: &[LevelShape],
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
    /// The tensor engine's resident chunk at batch size one: one
    /// `tensor_sweep` launch looping over the iterations of a clean solve
    /// (one per iteration under an armed fault plan), its levels spread
    /// over `grid` blocks — a cooperative launch when `grid > 1`
    /// ([`tensor_batch::sweep_plan`]).
    Fused {
        /// Blocks each sweep spans.
        grid: usize,
    },
    /// The paper's level path with this backward strategy (`SegScan` or
    /// `Direct`).
    Level(BackwardStrategy),
}

/// One level of the table the route reads ([`level_shape`]), with what
/// the prices need of its buses' own fan-outs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LevelShape {
    /// Buses in the level.
    pub width: usize,
    /// The widest bus's child count.
    pub fan_out: usize,
    /// Σ over the level's 256-bus launch blocks of each block's widest
    /// child count: a per-level launch's busiest thread per block, which
    /// the `simt` latency term averages over blocks.
    pub block_fan_out: usize,
    /// Buses with at least one child.
    pub parents: usize,
    /// Phasors a warp's per-child loads touch: Σ over buses of children ×
    /// `min(fan-out, phasors per transaction)`, each bus at its own
    /// fan-out (a bus's child loads land `fan-out` phasors from its
    /// neighbour's).
    pub scatter: usize,
    /// Σ over parents of `min(fan-out, phasors per transaction)`: one
    /// segment-tail load each, `fan-out` phasors from its neighbour's.
    pub tails: usize,
    /// A segmented scan over this level's children, in 256-child blocks:
    /// the blocks past the first whose first child continues a segment
    /// from the block before.
    pub carry_blocks: usize,
    /// The children before each of those blocks' first segment head: the
    /// ones the scan's carry launch updates.
    pub carried: usize,
}

/// The level table the route reads, root first, for phasor `V` (its
/// size sets how many phasors one transaction holds).
pub(crate) fn level_shape<V: Phasor>(a: &LevelArrays<V, V::Z>) -> Vec<LevelShape> {
    const BLOCK: usize = LaunchConfig::DEFAULT_BLOCK as usize;
    let per_transaction = (TRANSACTION_BYTES as usize / std::mem::size_of::<V>()).max(1);
    a.levels
        .level_offsets
        .windows(2)
        .map(|w| {
            let fans: Vec<usize> =
                (w[0] as usize..w[1] as usize).map(|p| a.levels.children(p).len()).collect();
            let spread = |f: usize| f.min(per_transaction);
            let (mut carry_blocks, mut carried, mut start) = (0, 0, 0);
            for &f in fans.iter().filter(|&&f| f > 0) {
                let end = start + f;
                let mut boundary = (start / BLOCK + 1) * BLOCK;
                while boundary < end {
                    carry_blocks += 1;
                    carried += (end - boundary).min(BLOCK);
                    boundary += BLOCK;
                }
                start = end;
            }
            LevelShape {
                width: fans.len(),
                fan_out: fans.iter().copied().max().unwrap_or(0),
                block_fan_out: fans.chunks(BLOCK).map(|b| b.iter().copied().max().unwrap_or(0)).sum(),
                parents: fans.iter().filter(|&&f| f > 0).count(),
                scatter: fans.iter().map(|&f| f * spread(f)).sum(),
                tails: fans.iter().map(|&f| spread(f)).sum(),
                carry_blocks,
                carried,
            }
        })
        .collect()
}

/// Modeled µs of one launch of `threads` threads whose busiest thread
/// per block makes `chain` dependent global accesses, averaged over the
/// blocks, over `phases` barrier phases and which moves `bytes`: the
/// launch overhead plus the larger of its
/// latency floor and its bandwidth time, as in the `simt` timing model
/// (`simt::timing`).
fn launch_us(props: &DeviceProps, threads: usize, chain: f64, phases: usize, bytes: usize) -> f64 {
    const BLOCK: usize = LaunchConfig::DEFAULT_BLOCK as usize;
    let resident =
        (props.resident_blocks_per_sm(BLOCK as u32, 0) as usize * props.num_sms as usize).max(1);
    let waves = threads.div_ceil(BLOCK).max(1).div_ceil(resident);
    let cycles = chain * props.mem_latency_cycles + phases as f64 * props.barrier_cycles;
    let latency = waves as f64 * cycles / props.cycles_per_us();
    props.launch_overhead_us + latency.max(bytes as f64 / props.mem_bytes_per_us())
}

/// Modeled µs of one single-phase level-path iteration around a backward
/// sweep of `backward` µs: the injection map (load, voltage, current
/// store), a forward map per non-root level (parent, parent voltage,
/// impedance, current, own voltage, voltage and delta stores), the last
/// launch of the ∞-norm reduction and the residual read-back.
fn level_iteration_us(props: &DeviceProps, shape: &[LevelShape], backward: f64) -> f64 {
    const C: usize = std::mem::size_of::<Complex>();
    let n = shape.iter().map(|l| l.width).sum();
    let inject = launch_us(props, n, 3.0, 1, 3 * C * n);
    let forward: f64 =
        shape.iter().skip(1).map(|l| launch_us(props, l.width, 7.0, 1, (12 + 5 * C) * l.width)).sum();
    let reduce = launch_us(props, 1, 1.0, 1, 0);
    inject + backward + forward + reduce + simt::timing::transfer_time(props, 8)
}

/// Modeled µs of one backward sweep per strategy, `(direct, segscan)`,
/// from the level table and the phasor's size in bytes (`c`, 16 for one
/// phase, 48 for three): each launch costs the launch overhead plus the
/// larger of its latency floor and its bandwidth time, as in the `simt`
/// timing model (`simt::timing`), with each bus priced at its own
/// fan-out: a direct launch's latency chain per block at that block's
/// widest bus, averaged over blocks as the model does, and each bus's
/// child or segment-tail loads at its own spread.
fn backward_us(props: &DeviceProps, shape: &[LevelShape], c: usize) -> (f64, f64) {
    const BLOCK: usize = LaunchConfig::DEFAULT_BLOCK as usize;
    const U: usize = std::mem::size_of::<u32>();
    let launch = |threads, chain, phases, bytes| launch_us(props, threads, chain, phases, bytes);
    // The segmented scan of `len` children: a block-scan launch (two
    // loads, a Hillis–Steele pass, four stores) and, past one block, a
    // carry launch and the same scan over the block totals. The carry
    // loads every child's flag; a child before its block's first segment
    // head also loads the carry and its value and stores it (`carried`
    // of them in `carry_blocks` blocks over the children; over the block
    // totals, priced as if every one were).
    let scan = |mut len: usize, (mut carry_blocks, mut carried): (usize, usize)| {
        let mut us = 0.0;
        while len > 0 {
            us += launch(len, 6.0, 2 + BLOCK.ilog2() as usize, 2 * (c + U) * len);
            if len <= BLOCK {
                break;
            }
            let blocks = len.div_ceil(BLOCK);
            let chain = 1.0 + 3.0 * carry_blocks as f64 / blocks as f64;
            us += launch(len, chain, 1, U * len + 3 * c * carried);
            len = blocks;
            (carry_blocks, carried) = (len.div_ceil(BLOCK), len);
        }
        us
    };
    let (mut direct, mut segscan) = (0.0, 0.0);
    for (l, level) in shape.iter().enumerate() {
        let width = level.width;
        let children = shape.get(l + 1).map_or(0, |next| next.width);
        // Each bus loads its injection and child range and stores its
        // current; direct adds one load per child (chain `4 + fan-out`),
        // the combine a segment tail per parent.
        let own = (2 * c + 2 * U) * width;
        let blocks = width.div_ceil(BLOCK).max(1);
        let chain = 4.0 + level.block_fan_out as f64 / blocks as f64;
        direct += launch(width, chain, 1, own + c * level.scatter);
        let chain = if children > 0 { 6.0 } else { 4.0 };
        let carry = (level.carry_blocks, level.carried);
        segscan += scan(children, carry) + launch(width, chain, 1, own + U * level.parents + c * level.tails);
    }
    (direct, segscan)
}

/// Static buffers a [`GpuSession`] of this backward strategy uploads one
/// transfer each ([`GpuSession::statics`]; [`route`] counts their PCIe
/// latencies): loads, impedances, parents and the two child-range bounds,
/// and the segmented scan's head flags and segment tails where it runs.
fn level_statics(strategy: BackwardStrategy) -> usize {
    5 + 2 * usize::from(strategy == BackwardStrategy::SegScan)
}

/// The segmented scan's operands over the child ranges of `levels`: the
/// head flags (1 at the root and at each parent's first child) and, per
/// position, its last child, whose inclusive scan value is the segment
/// total (0 at a leaf, which the combine launch skips).
fn segments(levels: &LevelOrder) -> (Vec<u32>, Vec<u32>) {
    let n = levels.len();
    let (mut head_flags, mut seg_last) = (vec![0u32; n], vec![0u32; n]);
    head_flags[0] = 1;
    for (p, last) in seg_last.iter_mut().enumerate() {
        let children = levels.children(p);
        if !children.is_empty() {
            head_flags[children.start] = 1;
            *last = children.end as u32 - 1;
        }
    }
    (head_flags, seg_last)
}

/// The segmented scan's own state, which only a
/// [`BackwardStrategy::SegScan`] session holds: the head flags and
/// segment tails derived at open ([`segments`]), on the device and as
/// their host truth, and the scan's output.
struct SegScanState<V: Phasor> {
    head_flags: Vec<u32>,
    seg_last: Vec<u32>,
    flags_buf: DeviceBuffer<u32>,
    seg_last_buf: DeviceBuffer<u32>,
    scan_buf: DeviceBuffer<V>,
}

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
    /// `Some` under [`BackwardStrategy::SegScan`] only.
    segscan: Option<SegScanState<V>>,
    v_buf: DeviceBuffer<V>,
    i_buf: DeviceBuffer<V>,
    j_buf: DeviceBuffer<V>,
    delta_buf: DeviceBuffer<f64>,
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
        let off = &a.levels.child_offsets;
        let s_buf = dev.try_alloc_from(&a.s)?;
        let z_buf = dev.try_alloc_from(&a.z)?;
        let parent_buf = dev.try_alloc_from(&a.levels.parent_pos)?;
        let child_lo_buf = dev.try_alloc_from(&off[..n])?;
        let child_hi_buf = dev.try_alloc_from(&off[1..])?;
        // The scan's operands go up with the other statics, its output
        // after the iterate's buffers (the op order a fault plan counts).
        let operands = if strategy == BackwardStrategy::SegScan {
            let (head_flags, seg_last) = segments(&a.levels);
            let flags_buf = dev.try_alloc_from(&head_flags)?;
            let seg_last_buf = dev.try_alloc_from(&seg_last)?;
            Some((head_flags, seg_last, flags_buf, seg_last_buf))
        } else {
            None
        };
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
        let segscan = operands
            .map(|(head_flags, seg_last, flags_buf, seg_last_buf)| {
                let scan_buf = dev.try_alloc::<V>(n)?;
                Ok::<_, DeviceError>(SegScanState { head_flags, seg_last, flags_buf, seg_last_buf, scan_buf })
            })
            .transpose()?;
        let b = dev.timeline().breakdown_since(mark);
        let clock = SessionClock::new(b.total_us(), b.transfer_us(), obs);

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
            segscan,
            v_buf,
            i_buf,
            j_buf,
            delta_buf,
            clock,
        })
    }

    /// The device and every static buffer with its host truth: what a
    /// rollback re-uploads and an integrity check reads back, one
    /// transfer each, in upload order ([`level_statics`] of them).
    fn statics(&mut self) -> (&mut Device, Vec<HtodPart<'_>>) {
        let (a, n) = (self.a, self.a.len());
        let off = &a.levels.child_offsets;
        let mut parts = vec![
            HtodPart::new(&mut self.s_buf, &a.s),
            HtodPart::new(&mut self.z_buf, &a.z),
            HtodPart::new(&mut self.parent_buf, &a.levels.parent_pos),
            HtodPart::new(&mut self.child_lo_buf, &off[..n]),
            HtodPart::new(&mut self.child_hi_buf, &off[1..]),
        ];
        if let Some(seg) = &mut self.segscan {
            parts.push(HtodPart::new(&mut seg.flags_buf, &seg.head_flags));
            parts.push(HtodPart::new(&mut seg.seg_last_buf, &seg.seg_last));
        }
        debug_assert_eq!(parts.len(), level_statics(self.strategy), "the route prices every static");
        (&mut *self.dev, parts)
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
                    let seg = self.segscan.as_mut().expect("a segmented-scan session has its operands");
                    if l + 1 < num_levels {
                        let crange = a.levels.level_range(l + 1);
                        try_segscan_inclusive_range::<V, V::Sum>(
                            dev,
                            &self.j_buf,
                            &seg.flags_buf,
                            crange.start,
                            crange.end,
                            &mut seg.scan_buf,
                        )?;
                    }
                    let last_v = seg.seg_last_buf.view();
                    let scan_v = seg.scan_buf.view();
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
        let mark = self.dev.timeline().mark();
        // Statics are re-uploaded wholesale: a bit flip in a topology or
        // impedance buffer is permanent, so a voltage-only rollback would
        // replay the fault instead of erasing it.
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

    fn start_state(&self) -> Vec<V> {
        match self.v_init {
            Some(init) => self.a.levels.permute(init),
            None => vec![self.a.source; self.a.len()],
        }
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
        for &jc in &j[a.levels.children(p)] {
            acc += jc;
        }
        j[p] = acc;
    }
    let mut v_new = v_pos.to_vec();
    let root = v_init.map_or(a.source, |init| init[a.levels.order[0] as usize]);
    let mut res = MaxAbsF64::combine(0.0, (root - v_pos[0]).norm());
    for p in 1..n {
        let parent = a.levels.parent_pos[p] as usize;
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
        assert_eq!(route(&DeviceProps::paper_rig(), &a, false), Route::Fused { grid: 1 });
        let res = gpu().solve(&net, &SolverConfig::default());
        assert!(res.converged());
        assert_eq!(res.iterations, 1);
        assert_eq!(res.residual_history, vec![0.0]);
        assert_eq!(res.v[0], c(240.0, 0.0));
    }

    /// The tree `0 → {1, 2, 3}`, `1 → {4, 5}`, `3 → {6}`, `6 → {7}`.
    fn example() -> RadialNetwork {
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        for _ in 0..8 {
            b.add_bus(Complex::ZERO);
        }
        for (f, t) in [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6), (6, 7)] {
            b.connect(f, t, c(0.1, 0.05));
        }
        b.build().unwrap()
    }

    #[test]
    fn head_flags_mark_the_root_and_each_first_child() {
        let (flags, _) = segments(&LevelOrder::new(&example()));
        assert_eq!(flags, vec![1, 1, 0, 0, 1, 0, 1, 1]);
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        b.add_bus(Complex::ZERO);
        assert_eq!(segments(&LevelOrder::new(&b.build().unwrap())).0, vec![1]);
        // A star's leaf level is one segment: one head flag.
        let levels = LevelOrder::new(&star(6, &GenSpec::default(), &mut StdRng::seed_from_u64(1)));
        let (flags, _) = segments(&levels);
        assert_eq!(levels.level_range(1).map(|p| flags[p]).sum::<u32>(), 1);
    }

    #[test]
    fn seg_last_points_at_last_child() {
        let (_, seg_last) = segments(&LevelOrder::new(&example()));
        // 0 → 1..=3, 1 → 4..=5, 3 → 6, 6 → 7; leaves read 0.
        assert_eq!(seg_last, vec![3, 5, 0, 6, 0, 0, 7, 0]);
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

    /// The route's verdict per shape: small and deep trees on one fused
    /// block, large binary and k-ary trees on the fused sweep spread over
    /// the co-resident grid, stars and the 256-ary tree on the segmented
    /// scan — the paper's shapes, E7a's four 64K topologies and the trees
    /// next to the crossovers (DESIGN.md, "Routing single solves").
    /// Forcing any one route everywhere fails here.
    #[test]
    fn route_takes_one_block_on_small_and_deep_trees_the_grid_on_wide_ones_and_the_scan_on_stars() {
        use BackwardStrategy::SegScan;
        let spec = GenSpec::default();
        let props = DeviceProps::paper_rig();
        let rng = || StdRng::seed_from_u64(7);
        let one_block = [
            ("binary 1023", balanced_binary(1023, &spec, &mut rng())),
            ("chain 1000", chain(1000, &spec, &mut rng())),
        ];
        for (name, net) in &one_block {
            let a = arrays(net);
            assert_eq!(route(&props, &a, false), Route::Fused { grid: 1 }, "{name}, cold");
            assert_eq!(route(&props, &a, true), Route::Fused { grid: 1 }, "{name}, warm");
        }
        let grid = [
            ("binary 16383", balanced_binary(16_383, &spec, &mut rng())),
            ("binary 65535", balanced_binary(65_535, &spec, &mut rng())),
            ("binary 262143", balanced_binary(262_143, &spec, &mut rng())),
            ("4-ary 65536", balanced_kary(65_536, 4, &spec, &mut rng())),
            ("8-ary 32000", balanced_kary(32_000, 8, &spec, &mut rng())),
            ("32-ary 65536", balanced_kary(65_536, 32, &spec, &mut rng())),
            ("16-ary 64K", balanced_kary(65_536, 16, &spec, &mut rng())),
        ];
        for (name, net) in &grid {
            assert_eq!(route(&props, &arrays(net), false), Route::Fused { grid: 160 }, "{name}");
        }
        let level = [
            ("star 1000", star(1000, &spec, &mut rng())),
            ("star 16384", star(16_384, &spec, &mut rng())),
            ("256-ary 64K", balanced_kary(65_536, 256, &spec, &mut rng())),
            ("star 64K", star(65_536, &spec, &mut rng())),
        ];
        for (name, net) in &level {
            assert_eq!(route(&props, &arrays(net), false), Route::Level(SegScan), "{name}");
        }
    }

    /// The fused sweep spread over a grid returns the pinned direct level
    /// path's V, J, iterations, status and residual history bit for bit,
    /// on every radial family and on 4-ary and 32-ary trees whose last
    /// level is partial (so their blocks' subtrees below a cut differ in
    /// size), cold and warm, at a few grid sizes; and the
    /// routed solves of trees that take the grid do too: a binary tree,
    /// and a broom, whose handle's levels all sit in block 0.
    #[test]
    fn the_grid_route_matches_the_pinned_direct_path_bit_for_bit() {
        use powergrid::gen::{balanced_kary, broom, random_tree};
        let spec = GenSpec::default();
        let rng = |seed| StdRng::seed_from_u64(seed);
        let cfg = SolverConfig::default();
        let dev = || Device::with_workers(DeviceProps::paper_rig(), 2);
        let same = |name: &str, r: &SolveResult, p: &SolveResult| {
            assert_eq!((r.status, r.iterations), (p.status, p.iterations), "{name}");
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r.residual_history), bits(&p.residual_history), "{name}");
            assert_eq!(r.v, p.v, "{name}: V");
            assert_eq!(r.j, p.j, "{name}: J");
        };
        let trees = [
            ("binary 1500", balanced_binary(1500, &spec, &mut rng(1))),
            ("chain 300", chain(300, &spec, &mut rng(2))),
            ("star 700", star(700, &spec, &mut rng(3))),
            ("5-ary 2000", balanced_kary(2000, 5, &spec, &mut rng(4))),
            ("random 1800", random_tree(1800, 16, &spec, &mut rng(5))),
            ("broom 1200", broom(1200, 300, &spec, &mut rng(6))),
            ("4-ary 3000", balanced_kary(3000, 4, &spec, &mut rng(8))),
            ("32-ary 3000", balanced_kary(3000, 32, &spec, &mut rng(9))),
        ];
        for (name, net) in &trees {
            let a = arrays(net);
            let pinned = |warm| {
                GpuSolver::with_strategy(dev(), BackwardStrategy::Direct).solve_warm(&a, &cfg, warm)
            };
            let cold = pinned(None);
            let warm_v: Vec<Complex> = cold.v.iter().map(|v| *v * 0.999).collect();
            for grid in [2, 3, 7] {
                for warm in [None, Some(&warm_v[..])] {
                    let (mut d, obs) = (dev(), Obs::default());
                    let opened = Chunk::open(&mut d, &a, warm, cfg.max_iter, grid, obs.clone());
                    let r = recovery::run_plain(opened, Instant::now(), &cfg, &obs);
                    let cooperative = d.timeline().events().iter().any(|e| {
                        matches!(&e.kind, simt::EventKind::Kernel { stats, .. } if stats.cooperative)
                    });
                    assert!(cooperative, "{name}: a cooperative launch");
                    same(&format!("{name}, grid {grid}, warm {}", warm.is_some()), &r, &pinned(warm));
                }
            }
        }
        let routed_trees = [
            ("routed binary 16383", balanced_binary(16_383, &spec, &mut rng(7))),
            ("routed broom 16384", broom(16_384, 1024, &spec, &mut rng(7))),
        ];
        for (name, net) in &routed_trees {
            let a = arrays(net);
            let grid = Route::Fused { grid: 160 };
            assert_eq!(route(&DeviceProps::paper_rig(), &a, false), grid, "{name}");
            let routed = GpuSolver::new(dev()).solve_arrays(&a, &cfg);
            let pinned =
                GpuSolver::with_strategy(dev(), BackwardStrategy::Direct).solve_arrays(&a, &cfg);
            same(name, &routed, &pinned);
        }
    }

    /// Each bus is priced at its own fan-out: on the partly filled last
    /// levels of the 64-ary trees of 16 000 and 65 536 buses the level
    /// path's strategy is the cheaper measured one.
    #[test]
    fn the_level_strategy_of_the_64_ary_trees_is_the_cheaper_measured_one() {
        let (spec, props, cfg) = (GenSpec::default(), DeviceProps::paper_rig(), SolverConfig::default());
        for n in [16_000, 65_536] {
            let net = balanced_kary(n, 64, &spec, &mut StdRng::seed_from_u64(7));
            let a = arrays(&net);
            let us = |s| {
                let dev = Device::with_workers(props.clone(), 2);
                GpuSolver::with_strategy(dev, s).solve_arrays(&a, &cfg).timing.total_us()
            };
            let (direct, segscan) = (us(BackwardStrategy::Direct), us(BackwardStrategy::SegScan));
            let cheaper = if direct < segscan { BackwardStrategy::Direct } else { BackwardStrategy::SegScan };
            let shape = level_shape(&a);
            assert_eq!(level_strategy::<Complex>(&props, &shape), cheaper, "64-ary {n}");
        }
    }

    /// Modeled µs of a cold solve of `a` on the fused route over `grid`
    /// blocks.
    fn fused_us(a: &SolverArrays, grid: usize) -> f64 {
        let (cfg, obs) = (SolverConfig::default(), Obs::default());
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 2);
        let opened = Chunk::open(&mut dev, a, None, cfg.max_iter, grid, obs.clone());
        recovery::run_plain(opened, Instant::now(), &cfg, &obs).timing.total_us()
    }

    /// DESIGN.md's routing table: every device path's modeled µs per cold
    /// solve on 16 shapes and the two 64-ary trees, with the route's
    /// verdict. `cargo test --release -p fbs -- --ignored route_table --nocapture`.
    #[test]
    #[ignore = "prints a table; minutes in a debug build"]
    fn route_table() {
        use powergrid::gen::{broom, caterpillar, random_tree};
        let spec = GenSpec::default();
        let rng = || StdRng::seed_from_u64(7);
        let props = DeviceProps::paper_rig();
        let shapes = [
            ("binary 1 023", balanced_binary(1023, &spec, &mut rng())),
            ("binary 16 383", balanced_binary(16_383, &spec, &mut rng())),
            ("binary 65 535", balanced_binary(65_535, &spec, &mut rng())),
            ("binary 262 143", balanced_binary(262_143, &spec, &mut rng())),
            ("4-ary 65 536", balanced_kary(65_536, 4, &spec, &mut rng())),
            ("8-ary 32 000", balanced_kary(32_000, 8, &spec, &mut rng())),
            ("16-ary 65 536", balanced_kary(65_536, 16, &spec, &mut rng())),
            ("32-ary 65 536", balanced_kary(65_536, 32, &spec, &mut rng())),
            ("64-ary 16 000", balanced_kary(16_000, 64, &spec, &mut rng())),
            ("64-ary 65 536", balanced_kary(65_536, 64, &spec, &mut rng())),
            ("256-ary 65 536", balanced_kary(65_536, 256, &spec, &mut rng())),
            ("star 1 000", star(1000, &spec, &mut rng())),
            ("star 16 384", star(16_384, &spec, &mut rng())),
            ("star 65 536", star(65_536, &spec, &mut rng())),
            ("chain 4 095", chain(4095, &spec, &mut rng())),
            ("caterpillar 16 384", caterpillar(16_384, 4, &spec, &mut rng())),
            ("broom 16 384", broom(16_384, 1024, &spec, &mut rng())),
            ("random 65 536", random_tree(65_536, 32, &spec, &mut rng())),
        ];
        let cfg = SolverConfig::default();
        println!("| shape | fused, 1 block | fused, grid | level segscan | level direct | level atomic | route |");
        println!("|---|---:|---:|---:|---:|---:|---|");
        for (name, net) in &shapes {
            let a = arrays(net);
            let dev = || Device::with_workers(props.clone(), 2);
            let level = |s| GpuSolver::with_strategy(dev(), s).solve_arrays(&a, &cfg).timing.total_us();
            let most = props.cooperative_blocks(256, 2048) as usize;
            let verdict = match route(&props, &a, false) {
                Route::Fused { grid: 1 } => "fused".to_string(),
                Route::Fused { grid } => format!("grid ({grid} blocks)"),
                Route::Level(s) => format!("{s:?}"),
            };
            println!(
                "| {name} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {verdict} |",
                fused_us(&a, 1),
                fused_us(&a, most),
                level(BackwardStrategy::SegScan),
                level(BackwardStrategy::Direct),
                level(BackwardStrategy::AtomicScatter),
            );
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
        let grid = tensor_batch::sweep_plan(fused_dev.props(), &a.levels, &level_shape(&a)).grid;
        let opened = Chunk::open(&mut fused_dev, &a, None, cfg.max_iter, grid, obs.clone());
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
        assert_eq!(route(&DeviceProps::paper_rig(), &arrays(&net), false), Route::Fused { grid: 1 });
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

