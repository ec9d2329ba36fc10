//! Tensor-batched power flow: scenario-major SoA state, fused
//! (level × batch) kernels, one launch per iteration.
//!
//! A batch is many load scenarios (or topology variants) over one tree.
//! Level-synchronous sweeps launch one kernel per tree level, so a
//! depth-`L` tree pays `O(L)` launches per iteration however the
//! scenarios are grouped. This module removes the per-level launches
//! entirely by turning the batch into a tensor. Every solve goes through
//! [`TensorBatchSolver::try_solve`], whose only input is the
//! [`Scenarios`] set:
//!
//! * **Scenario-major SoA layout** — every per-scenario array (voltages,
//!   branch currents, loads, residuals) is one slab indexed
//!   `g(s, p) = s·n + p`, where `p` is the level-order position. Adjacent
//!   threads touch adjacent positions of one scenario, so warp accesses
//!   coalesce exactly as in the single-scenario solver, and scenario `s`
//!   occupies one contiguous stripe.
//! * **Shared topology** — impedances, parent pointers, child ranges and
//!   the level table describe one tree and upload once per solve at size
//!   `n`, not `B·n`.
//! * **Fused sweeps** — one 2-D launch per *iteration*:
//!   `gridDim.y = B` (one block per scenario), with the tree levels of
//!   both sweep directions expressed as barrier phases *inside* the
//!   block. Injection fuses into the leaf-to-root accumulation; between
//!   the backward and forward halves each thread keeps the currents and
//!   previous voltages of its nodes in registers, so the forward ladder
//!   re-reads neither slab; and the per-scenario ∞-norm residual folds in
//!   shared memory and publishes one `f64` per scenario — the batched
//!   reduction collapses into the same launch.
//!
//! Per-scenario cost therefore approaches the bandwidth floor: the only
//! per-iteration traffic is one read of the load and voltage slabs, one
//! write of the current and voltage slabs, and one topology read — and
//! launch overhead is `1/B` launches per scenario per iteration.
//!
//! # Masking, early abort, determinism
//!
//! Every scenario owns a [`ConvergenceMonitor`]. The moment a scenario
//! converges, diverges, or goes non-finite it is *frozen*: its mask entry
//! drops to 0, the fused kernels skip its stripe (one 4-byte read per
//! block), and its state stays exactly as it was at the freezing
//! iteration. The loop aborts as soon as no scenario is active. Because a
//! scenario's trajectory depends only on its own stripe and it is frozen
//! at *its own* convergence iteration, results are byte-identical across
//! runs and across batch orderings, and `per_scenario_iterations[s]`
//! equals the iteration count the serial solver reports for the same
//! scenario.
//!
//! # One device path, one fault policy
//!
//! A one-shot batch and the outer-loop session behind
//! [`crate::solve_dg_batch`] share one resident chunk type, one sweep
//! loop, one audit and one fallback. A device fault spends one retry
//! from [`SolverConfig::max_recoveries`] and rebuilds the chunk; a lost
//! device or a spent budget degrades to the serial solver. Under an armed
//! fault plan the state is *audited* after it is read back: static
//! buffers are compared, and one extra no-commit iteration per scenario
//! measures `max |ΔV|` via [`primitives::try_reduce_batched`]. A batch
//! re-solves every scenario that fails (or any flagged failure) on the
//! host as [`SolveStatus::Recovered`]; a session treats a failed round
//! audit as a device fault and re-solves on the host whatever its final
//! audit cannot vouch for — silent corruption cannot leak into results.
//!
//! # One scenario: the fused route
//!
//! At batch size one the resident chunk is also a single solve's device
//! session (`FusedSession`): the fused route of [`crate::GpuSolver`]
//! and of the supervisor's [`crate::Backend::Gpu`] rung. It does not run
//! the batch loop above. The one device loop of single solves,
//! `recovery::drive`, steps it one fused launch and one 8-byte residual
//! read-back at a time, with that loop's checkpoints, rollback and fault
//! report in place of the batch's audit and host repair.
//!
//! # Scale
//!
//! Batches larger than device memory are processed in scenario chunks;
//! the topology stays resident across chunks. For Monte-Carlo-style
//! studies the per-scenario loads can be synthesised *on device* from the
//! base loads and one `f64` scale factor per scenario
//! ([`Scenarios::Scaled`]), eliminating the `B·n` load
//! upload; combined with [`TensorBatchSolver::stats_only`] (skip the
//! state download) the engine streams through hundreds of thousands of
//! scenarios.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use numc::Complex;
use powergrid::DfsOrder;
use primitives::ops::{MaxAbsF64, ScanOp};
use primitives::{try_fill, try_reduce_batched};
use simt::{
    BlockScope, Device, DeviceBuffer, DeviceCopy, DeviceError, DeviceProps, GlobalMut, GlobalRef,
    HostProps, Kernel, LaunchConfig, Shared, ThreadCtx,
};
use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::recovery::{SessionClock, SweepSession};
use crate::report::{FaultReport, PhaseTimes, Timing};
use crate::serial::SerialSolver;
use crate::status::{ConvergenceMonitor, SolveStatus};

/// Threads per scenario block.
const TENSOR_BLOCK: u32 = 256;

/// Scenarios resident in one sweep block. The tree topology (impedances,
/// parent pointers, child ranges, base loads) is read once per node per
/// block and applied to every resident scenario's stripe, so topology
/// traffic per scenario falls by this factor. Two keeps the per-thread
/// local state (≈ 0.5 KB per scenario at 4K nodes / 256 threads) within
/// a plausible register/L1 budget.
const SCENARIOS_PER_BLOCK: usize = 2;

/// Upper bound on scenarios per chunk: bounds device *and* host footprint
/// (a chunk of 4K-bus scenarios is ~1 GB of state at this cap).
const MAX_CHUNK_SCENARIOS: usize = 8192;

/// Splits `n_scenarios` into at most `n_shards` contiguous ranges for
/// hand-off to several devices, each at least `min_shard` scenarios
/// (the final shard absorbs the remainder). Shard boundaries are
/// aligned down to the solver's chunk cap ([`MAX_CHUNK_SCENARIOS`])
/// whenever every shard stays ≥ `min_shard`, so a shard never ends
/// mid-chunk on the receiving device. Deterministic in its arguments.
pub fn shard_ranges(
    n_scenarios: usize,
    n_shards: usize,
    min_shard: usize,
) -> Vec<std::ops::Range<usize>> {
    assert!(n_shards > 0, "need at least one shard");
    let min_shard = min_shard.max(1);
    let shards = n_shards.min(n_scenarios / min_shard).max(1);
    let per = n_scenarios / shards;
    // Align interior boundaries to the chunk cap when the aligned size
    // still clears the floor; tiny shards keep the plain split.
    let step = if per >= MAX_CHUNK_SCENARIOS {
        per - per % MAX_CHUNK_SCENARIOS
    } else {
        per
    };
    let mut out = Vec::with_capacity(shards);
    let mut lo = 0usize;
    for s in 0..shards {
        let hi = if s + 1 == shards { n_scenarios } else { lo + step };
        out.push(lo..hi);
        lo = hi;
    }
    out
}

/// One scenario's topology delta for a patched solve
/// ([`Scenarios::Patched`]): the shared tree is uploaded
/// once and each scenario carries at most a few words describing how its
/// topology differs — no per-scenario arrays, no rebuild.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioPatch {
    /// Open the branch feeding this bus: its whole DFS subtree is
    /// de-energized (masked out of the sweeps and the residual) and the
    /// energized parent drops the subtree's branch current from its
    /// child sum. `None` leaves the topology intact.
    pub outage: Option<usize>,
    /// Replace the impedance of the branch feeding bus `.0` with `.1`.
    pub z_override: Option<(usize, Complex)>,
    /// Load scale applied to the base loads (`1.0` = base case). The
    /// scale is the only per-scenario load state, exactly as in
    /// [`Scenarios::Scaled`].
    pub scale: f64,
}

impl Default for ScenarioPatch {
    fn default() -> Self {
        ScenarioPatch { outage: None, z_override: None, scale: 1.0 }
    }
}

impl ScenarioPatch {
    /// The base case: no topology change, base loads.
    pub fn base() -> Self {
        Self::default()
    }

    /// An N-1 outage of the branch feeding `bus`, at base loads.
    pub fn outage(bus: usize) -> Self {
        ScenarioPatch { outage: Some(bus), ..Self::default() }
    }
}

/// Result of one tensor-batched solve.
#[derive(Clone, Debug)]
pub struct TensorBatchResult {
    /// Per-scenario bus voltages, `[scenario][bus id]`. Empty in
    /// [`TensorBatchSolver::stats_only`] mode.
    pub v: Vec<Vec<Complex>>,
    /// Per-scenario branch currents into each bus, `[scenario][bus id]`.
    /// Empty in stats-only mode.
    pub j: Vec<Vec<Complex>>,
    /// Iterations of the slowest scenario (the batch loop maximum).
    pub iterations: u32,
    /// Iterations each scenario actually ran before freezing — its own
    /// convergence/divergence iteration, not the batch maximum.
    pub per_scenario_iterations: Vec<u32>,
    /// Per-scenario outcome. Frozen scenarios carry their freeze
    /// iteration in the status payload (`at_iteration`).
    pub statuses: Vec<SolveStatus>,
    /// Final per-scenario `max |ΔV|`, volts.
    pub residuals: Vec<f64>,
    /// Batch-wide worst final residual (NaN-propagating fold), volts.
    pub residual: f64,
    /// Patched solves only: per-scenario minimum energized `|V|`, volts,
    /// taken over every non-root bus the sweeps updated (de-energized
    /// subtrees excluded). The screening headline — a contingency that
    /// converges but sags below a voltage floor is still a violation.
    /// Empty for unpatched solves; `+∞` for a single-bus network.
    pub min_v: Vec<f64>,
    /// Timing summary for the whole batch.
    pub timing: Timing,
    /// Modeled throughput: scenarios per modeled device second.
    pub scenarios_per_sec: f64,
    /// Populated when faults were observed or a fault plan was armed.
    pub fault_report: Option<FaultReport>,
}

/// Modeled throughput of `nb` scenarios answered in `timing`: scenarios
/// per modeled device second (0 when no modeled time elapsed).
pub(crate) fn scenarios_per_sec(nb: usize, timing: &Timing) -> f64 {
    let total_us = timing.total_us();
    if total_us > 0.0 {
        nb as f64 / (total_us * 1e-6)
    } else {
        0.0
    }
}

impl TensorBatchResult {
    /// Whether *every* scenario converged (recovered counts).
    pub fn converged(&self) -> bool {
        self.statuses.iter().all(|s| s.is_converged())
    }

    /// The most severe scenario outcome (batch-wide summary).
    pub fn worst_status(&self) -> SolveStatus {
        self.statuses.iter().fold(SolveStatus::Converged, |w, &s| w.worse(s))
    }
}

/// The scenario set of one [`TensorBatchSolver::try_solve`]. Batch-shape
/// violations (an empty set, a scenario of the wrong length, a patch
/// naming a bad bus or the root) are caller bugs and panic.
#[derive(Clone, Copy, Debug)]
pub enum Scenarios<'s> {
    /// Full by-bus load vectors, one per scenario (`[scenario][bus]`,
    /// VA).
    Explicit(&'s [Vec<Complex>]),
    /// `loads(s) = base × scales[s]` with the base loads from the
    /// arrays, synthesised on device: the scale factors are the only
    /// per-scenario upload.
    Scaled(&'s [f64]),
    /// One topology variant per scenario over the shared base tree: each
    /// [`ScenarioPatch`] opens at most one branch (N-1 outage),
    /// overrides at most one impedance, and scales the base loads. The
    /// tree uploads once; per-scenario state is a handful of words.
    ///
    /// De-energized buses of an outage scenario report `V = 0`, `J = 0`
    /// (when state is kept) and are excluded from the residual and from
    /// [`TensorBatchResult::min_v`].
    Patched {
        /// DFS order of the network the arrays were built from.
        dfs: &'s DfsOrder,
        /// One patch per scenario.
        patches: &'s [ScenarioPatch],
        /// Optional shared warm start (voltages by bus id, typically the
        /// base-case fixed point) replacing the flat start in every
        /// scenario — the batched counterpart of
        /// [`SerialSolver::solve_warm`].
        warm: Option<&'s [Complex]>,
    },
}

/// Scenario loads as the engine consumes them: a patched set runs as
/// its per-scenario scales plus a [`PatchPlan`].
enum Loads<'s> {
    /// Full by-bus load vectors, one per scenario.
    Explicit(&'s [Vec<Complex>]),
    /// Full by-bus load vectors that mostly repeat the base loads: a chunk
    /// ships them as the base replicated device-side plus a scatter of
    /// the deviations (an outer loop's corrections at a few buses).
    Deltas(&'s [Vec<Complex>]),
    /// `loads(s) = base × scales[s]` with the base loads from the arrays,
    /// synthesised on device (no `B·n` upload).
    Scaled(&'s [f64]),
}

impl Loads<'_> {
    fn len(&self) -> usize {
        match self {
            Loads::Explicit(s) | Loads::Deltas(s) => s.len(),
            Loads::Scaled(s) => s.len(),
        }
    }
}

/// The tensor-batched GPU solver.
pub struct TensorBatchSolver {
    device: Device,
    recorder: Option<Recorder>,
    chunk_cap: usize,
    keep_state: bool,
}

impl TensorBatchSolver {
    /// Creates a solver on the given device.
    pub fn new(device: Device) -> Self {
        TensorBatchSolver {
            device,
            recorder: None,
            chunk_cap: MAX_CHUNK_SCENARIOS,
            keep_state: true,
        }
    }

    /// Attaches a telemetry recorder: per-chunk spans, per-iteration
    /// residual samples, and batch throughput are recorded during every
    /// solve.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Caps scenarios per chunk (testing/tuning; clamped to ≥ 1).
    pub fn with_chunk_scenarios(mut self, cap: usize) -> Self {
        self.set_chunk_scenarios(cap);
        self
    }

    /// By-ref form of [`Self::with_chunk_scenarios`], for callers that
    /// plan the chunk size per solve (e.g. the contingency screener
    /// sizing chunks from the bus count).
    pub fn set_chunk_scenarios(&mut self, cap: usize) {
        self.chunk_cap = cap.max(1);
    }

    /// Skip the per-bus state download: `v`/`j` come back empty, only
    /// statuses, iterations and residuals are reported. This is the
    /// streaming mode for huge Monte Carlo batches.
    pub fn stats_only(mut self) -> Self {
        self.keep_state = false;
        self
    }

    /// The underlying device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Solves every scenario of `scenarios` over the network the
    /// level-order arrays `a` were built from. Device weather is handled
    /// internally (retry, then host fallback), so an `Err` only escapes
    /// when recovery itself is impossible; batch-shape violations panic
    /// (see [`Scenarios`]).
    pub fn try_solve(
        &mut self,
        a: &SolverArrays,
        scenarios: Scenarios<'_>,
        cfg: &SolverConfig,
    ) -> Result<TensorBatchResult, DeviceError> {
        Ok(match scenarios {
            Scenarios::Explicit(loads) => {
                let n = a.len();
                for (s, sc) in loads.iter().enumerate() {
                    let len = sc.len();
                    assert_eq!(len, n, "scenario {s} has {len} loads for {n} buses");
                }
                self.solve_impl(a, Loads::Explicit(loads), cfg, None, None)
            }
            Scenarios::Scaled(scales) => self.solve_impl(a, Loads::Scaled(scales), cfg, None, None),
            Scenarios::Patched { dfs, patches, warm } => {
                if let Some(w) = warm {
                    assert_eq!(w.len(), a.len(), "warm profile needs one voltage per bus");
                }
                let plan = PatchPlan::build(a, dfs, patches);
                self.solve_impl(a, Loads::Scaled(&plan.scales), cfg, Some(&plan), warm)
            }
        })
    }

    /// Infallible [`Scenarios::Explicit`] form of
    /// [`TensorBatchSolver::try_solve`]: panics where that returns `Err`.
    pub fn solve_arrays(
        &mut self,
        a: &SolverArrays,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        self.try_solve(a, Scenarios::Explicit(scenarios), cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Largest scenario batch one resident session can hold; callers
    /// running bigger families chunk on this.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_cap
    }

    /// Opens a resident-state outer-loop session over one scenario
    /// batch: topology, loads and the voltage iterate stay on the
    /// device across rounds. Each [`TensorOuterSession::solve_round`]
    /// re-iterates every live scenario from its previous fixed point;
    /// between rounds the driver adjusts a handful of bus loads
    /// ([`TensorOuterSession::update_loads`]) and reads back only the
    /// `probes` buses' voltages — so a compensation/PV outer loop pays
    /// sparse traffic per round instead of re-shipping `B·n` slabs.
    ///
    /// The session is one resident chunk of the [`Self::try_solve`]
    /// engine, with its sweep loop, audit and fault policy. A rebuild
    /// after a fault restarts the iterate cold — the fixed point does not
    /// depend on the starting profile, so only modeled time is lost.
    ///
    /// `warm` optionally seeds every scenario's first round from one
    /// shared profile (by bus id) — typically the base-case fixed point
    /// — replicated device-side from a single `n`-word upload.
    pub(crate) fn outer_session<'s>(
        &'s mut self,
        a: &'s SolverArrays,
        loads: &[Vec<Complex>],
        probes: &[usize],
        warm: Option<&[Complex]>,
        cfg: &SolverConfig,
    ) -> TensorOuterSession<'s> {
        let n = a.len();
        let nb = loads.len();
        assert!(nb >= 1, "session needs at least one scenario");
        assert!(
            nb <= self.chunk_cap,
            "session of {nb} scenarios exceeds the chunk capacity {}",
            self.chunk_cap
        );
        for (s, sc) in loads.iter().enumerate() {
            assert_eq!(sc.len(), n, "scenario {s} has {} loads for {n} buses", sc.len());
        }
        for &b in probes {
            assert!(b < n, "probe bus {b} of {n}");
        }
        if let Some(w) = warm {
            assert_eq!(w.len(), n, "warm profile has {} entries for {n} buses", w.len());
        }
        let obs = Obs::new(self.recorder.as_ref(), "solver.tensor-batch");
        let mut session = TensorOuterSession {
            device: &mut self.device,
            a,
            probes: probes.to_vec(),
            loads: loads.to_vec(),
            warm: warm.map(<[Complex]>::to_vec),
            retired: vec![false; nb],
            statuses: vec![SolveStatus::MaxIterations; nb],
            host_v: vec![None; nb],
            chunk: None,
            degraded: false,
            retries: Retries::new(cfg),
            obs,
            timing: Timing::default(),
        };
        session.on_device(|_, _, _, _| Ok(Some(())));
        session
    }

    /// Solves every scenario of `loads` chunk by chunk, each from `warm`
    /// (by bus id) or flat. Device weather never escapes: a chunk retries
    /// within its budget, then the rest of the batch degrades to the host.
    fn solve_impl(
        &mut self,
        a: &SolverArrays,
        loads: Loads<'_>,
        cfg: &SolverConfig,
        plan: Option<&PatchPlan>,
        warm: Option<&[Complex]>,
    ) -> TensorBatchResult {
        let wall0 = Instant::now();
        let nb = loads.len();
        assert!(nb >= 1, "batch must contain at least one scenario");
        let keep = self.keep_state;
        let obs = &Obs::new(self.recorder.as_ref(), "solver.tensor-batch");
        let dev = &mut self.device;
        let mut out = TensorBatchResult {
            v: if keep { vec![Vec::new(); nb] } else { Vec::new() },
            j: if keep { vec![Vec::new(); nb] } else { Vec::new() },
            iterations: 0,
            per_scenario_iterations: vec![0; nb],
            statuses: vec![SolveStatus::MaxIterations; nb],
            residuals: vec![f64::INFINITY; nb],
            residual: f64::INFINITY,
            min_v: if plan.is_some() { vec![f64::INFINITY; nb] } else { Vec::new() },
            timing: Timing::default(),
            scenarios_per_sec: 0.0,
            fault_report: None,
        };
        if cfg.validate().is_err() {
            out.statuses = vec![SolveStatus::InvalidConfig; nb];
            if keep {
                out.v = vec![vec![a.source; a.len()]; nb];
                out.j = vec![vec![Complex::ZERO; a.len()]; nb];
            }
            return out;
        }

        let armed = dev.fault_plan().is_some();
        let faults_before = dev.fault_log().len();
        let chunk_cap = self.chunk_cap.min(nb);
        let mut retries_total = 0u32;
        let mut corruptions_total = 0u32;
        let mut degraded = false;
        // The topology uploads with the first chunk and stays resident; a
        // fault drops it with its chunk, and the retry re-uploads it.
        let mut topo = None;

        let mut chunk_start = 0usize;
        while chunk_start < nb {
            let chunk = chunk_cap.min(nb - chunk_start);
            let range = chunk_start..chunk_start + chunk;
            let chunk_t0 = out.timing.phases.total_us();

            // Device weather never escapes as an `Err`: retry the chunk
            // within its budget, then degrade to the host for good.
            let mut retries = Retries::new(cfg);
            let mut retrying = false;
            if !degraded {
                let ran = retries.run(dev, |dev| {
                    if std::mem::replace(&mut retrying, true) {
                        obs.instant("chunk-retry", out.timing.phases.total_us());
                    }
                    let ran = run_chunk(
                        dev,
                        a,
                        topo.take(),
                        &loads,
                        plan,
                        warm,
                        &range,
                        cfg,
                        obs,
                        &mut out,
                    );
                    if let Err(DeviceError::TransferCorrupted { .. }) = ran {
                        corruptions_total += 1;
                        obs.instant("corruption-detected", out.timing.phases.total_us());
                    }
                    topo = Some(ran?);
                    Ok(Some(()))
                });
                degraded = ran.is_none();
            }
            retries_total += retries.spent;

            if degraded {
                let t0 = out.timing.phases.total_us();
                let serial = SerialSolver::new(HostProps::paper_rig());
                for s in range {
                    let res = host_solve(&serial, a, &loads, plan, s, cfg, warm);
                    out.absorb_serial(s, res, plan);
                }
                obs.phase("fallback", t0, out.timing.phases.total_us());
            }

            obs.batch_chunk(chunk_start / chunk_cap, chunk, chunk_t0, out.timing.phases.total_us());
            chunk_start += chunk;
        }

        let faults_seen = (dev.fault_log().len() - faults_before) as u32;
        out.timing.wall_us = wall0.elapsed().as_secs_f64() * 1e6;
        out.scenarios_per_sec = scenarios_per_sec(nb, &out.timing);
        obs.batch_summary(nb, out.scenarios_per_sec);
        out.fault_report = (armed || faults_seen > 0 || retries_total > 0 || corruptions_total > 0)
            .then(|| FaultReport {
                faults_injected: faults_seen,
                rollbacks: 0,
                retries: retries_total,
                checkpoints: 0,
                checkpoint_us: 0.0,
                backends: if degraded {
                    vec!["tensor-gpu".to_string(), "cpu-serial".to_string()]
                } else {
                    vec!["tensor-gpu".to_string()]
                },
                corruptions_detected: corruptions_total,
            });
        out.iterations = out.per_scenario_iterations.iter().copied().max().unwrap_or(0);
        out.residual = out.residuals.iter().fold(0.0f64, |acc, &r| MaxAbsF64::combine(acc, r));
        out
    }
}

/// Upper bound on the modeled µs one [`FusedSession`] iteration spends
/// in kernels: the fused sweep launch, plus — once per solve, charged to
/// the first iteration — the warm-init launch of a warm start. The other
/// transfers and fills of a B = 1 solve cost no more than the level
/// path's, up to a few words of scenario state (`crate::GpuSolver`'s
/// route compares the two). `shape` is the route's level table: per
/// level, root first, its width and its widest node's child count.
///
/// A lone 256-thread block cannot hide memory latency, so the sweep's
/// latency term — `(chain · mem_latency + phases · barrier)` cycles for
/// its one block — binds its time. The chain counts the dependent global
/// accesses of the busiest thread phase by phase, exactly as
/// [`SweepKernel`] issues them: two to read the scenario words; per
/// backward level, `5 + fan-out` for each node a thread owns (base load,
/// child range, voltage, current store, one load per child), with the
/// fan-out bounded by the level's widest node and by the width of the
/// next level; per forward level, 4 per node (parent, impedance, parent
/// voltage, voltage store); and the residual store. The phases are one
/// per level and direction plus the residual fold.
pub(crate) fn single_iteration_bound_us(
    props: &DeviceProps,
    shape: &[(usize, usize)],
    warm: bool,
) -> f64 {
    let bdim = TENSOR_BLOCK as usize;
    let nl = shape.len();
    let mut chain = 2 + 1;
    for (l, &(width, fan_out)) in shape.iter().enumerate() {
        let per_thread = width.div_ceil(bdim);
        let next_width = shape.get(l + 1).map_or(0, |&(w, _)| w);
        chain += 5 * per_thread + (per_thread * fan_out).min(next_width);
        if l > 0 {
            chain += 4 * per_thread;
        }
    }
    let phases = 2 * nl + 2 + bdim.ilog2() as usize;
    let latency = |chain: usize, phases: usize| {
        (chain as f64 * props.mem_latency_cycles + phases as f64 * props.barrier_cycles)
            / props.cycles_per_us()
    };
    let sweep = props.launch_overhead_us + latency(chain, phases);
    // Warm init: one block strided over the positions, a load and a
    // store per position.
    let buses: usize = shape.iter().map(|&(width, _)| width).sum();
    let warm_init = props.launch_overhead_us + latency(2 * buses.div_ceil(bdim), 1);
    sweep + if warm { warm_init } else { 0.0 }
}

impl TensorBatchResult {
    /// Replaces scenario `s` with a host solve, charged to teardown: a
    /// converged answer reports [`SolveStatus::Recovered`]. In patched
    /// mode the de-energized buses are zeroed and the energized `min |V|`
    /// is computed host-side, matching the device convention.
    fn absorb_serial(
        &mut self,
        s: usize,
        mut res: crate::report::SolveResult,
        patches: Option<&PatchPlan>,
    ) {
        if let Some(plan) = patches {
            self.min_v[s] = host_min_v(&res.v, plan.root, &plan.isolated[s]);
            for &bus in &plan.isolated[s] {
                res.v[bus as usize] = Complex::ZERO;
                res.j[bus as usize] = Complex::ZERO;
            }
        }
        self.per_scenario_iterations[s] = res.iterations;
        self.residuals[s] = res.residual;
        self.statuses[s] = if res.status == SolveStatus::Converged {
            SolveStatus::Recovered { faults: 1, retries: 1 }
        } else {
            res.status
        };
        if !self.v.is_empty() {
            self.v[s] = res.v;
            self.j[s] = res.j;
        }
        self.timing.phases.teardown_us += res.timing.total_us();
    }
}

/// Host-side view of a patched batch: the shared position→DFS map plus
/// one cut range / impedance override / load scale per scenario.
/// `u32::MAX` is the universal "no patch" sentinel — an empty cut range
/// and an impossible override position — so unpatched scenarios flow
/// through the same kernel code without branching.
struct PatchPlan {
    /// Level position → DFS preorder position (length `n`). A node is
    /// de-energized in scenario `s` iff its DFS position falls in
    /// `[cut_lo[s], cut_hi[s])` — the subtree of the outaged bus is one
    /// contiguous DFS range, so membership is two compares.
    dfs_pos: Vec<u32>,
    /// Per-scenario load scales (the `Loads::Scaled` operand).
    scales: Vec<f64>,
    /// Level position of the outaged bus (the energized parent drops
    /// child `cut_pos` from its sum), or `u32::MAX`.
    cut_pos: Vec<u32>,
    cut_lo: Vec<u32>,
    cut_hi: Vec<u32>,
    /// Level position whose feeding impedance is overridden, or
    /// `u32::MAX`.
    z_pos: Vec<u32>,
    z_val: Vec<Complex>,
    /// De-energized bus ids per scenario (empty without an outage).
    isolated: Vec<Vec<u32>>,
    /// Root bus id (excluded from `min_v`).
    root: usize,
}

impl PatchPlan {
    fn build(a: &SolverArrays, dfs: &DfsOrder, patches: &[ScenarioPatch]) -> Self {
        let n = a.len();
        assert_eq!(dfs.len(), n, "DFS order is over a {}-bus tree, arrays over {n}", dfs.len());
        let root = a.levels.order[0] as usize;
        let nb = patches.len();
        let dfs_pos: Vec<u32> =
            (0..n).map(|p| dfs.pos_of[a.levels.order[p] as usize]).collect();
        let mut plan = PatchPlan {
            dfs_pos,
            scales: Vec::with_capacity(nb),
            cut_pos: Vec::with_capacity(nb),
            cut_lo: Vec::with_capacity(nb),
            cut_hi: Vec::with_capacity(nb),
            z_pos: Vec::with_capacity(nb),
            z_val: Vec::with_capacity(nb),
            isolated: Vec::with_capacity(nb),
            root,
        };
        for (s, patch) in patches.iter().enumerate() {
            assert!(
                patch.scale.is_finite(),
                "scenario {s}: load scale must be finite, got {}",
                patch.scale
            );
            plan.scales.push(patch.scale);
            match patch.outage {
                Some(bus) => {
                    assert!(bus < n, "scenario {s}: outage bus {bus} of {n}");
                    assert_ne!(bus, root, "scenario {s}: the root has no feeding branch");
                    let d = dfs.pos_of[bus];
                    let sz = dfs.subtree_size[d as usize];
                    plan.cut_pos.push(a.levels.pos_of[bus]);
                    plan.cut_lo.push(d);
                    plan.cut_hi.push(d + sz);
                    plan.isolated.push(dfs.order[d as usize..(d + sz) as usize].to_vec());
                }
                None => {
                    plan.cut_pos.push(u32::MAX);
                    plan.cut_lo.push(u32::MAX);
                    plan.cut_hi.push(u32::MAX);
                    plan.isolated.push(Vec::new());
                }
            }
            match patch.z_override {
                Some((bus, z)) => {
                    assert!(bus < n, "scenario {s}: override bus {bus} of {n}");
                    assert_ne!(bus, root, "scenario {s}: the root has no feeding branch");
                    assert!(
                        z.is_finite() && z.abs() > 0.0 && z.re >= 0.0,
                        "scenario {s}: override impedance {z:?} is not a valid impedance"
                    );
                    plan.z_pos.push(a.levels.pos_of[bus]);
                    plan.z_val.push(z);
                }
                None => {
                    plan.z_pos.push(u32::MAX);
                    plan.z_val.push(Complex::ZERO);
                }
            }
        }
        plan
    }
}

/// Minimum energized non-root `|V|` of a by-bus profile (the host-side
/// mirror of the sweep kernel's min fold, for repaired scenarios).
fn host_min_v(v: &[Complex], root: usize, isolated: &[u32]) -> f64 {
    let mut dead = vec![false; v.len()];
    for &b in isolated {
        dead[b as usize] = true;
    }
    let mut min = f64::INFINITY;
    for (b, vv) in v.iter().enumerate() {
        if b != root && !dead[b] {
            min = min.min(vv.abs());
        }
    }
    min
}

/// Resident topology buffers (position space, size `n`).
struct Topology {
    z: DeviceBuffer<Complex>,
    parent_pos: DeviceBuffer<u32>,
    child_lo: DeviceBuffer<u32>,
    child_hi: DeviceBuffer<u32>,
    /// Base loads in position space: the scaled-mode operand, and the
    /// stripe every [`Loads::Deltas`] scenario starts from.
    base_s: DeviceBuffer<Complex>,
    /// Patched solves: level position → DFS position (cut membership).
    dfs_pos: Option<DeviceBuffer<u32>>,
}

impl Topology {
    fn upload(
        dev: &mut Device,
        a: &SolverArrays,
        patches: Option<&PatchPlan>,
    ) -> Result<Self, DeviceError> {
        Ok(Topology {
            z: dev.try_alloc_from(&a.z)?,
            parent_pos: dev.try_alloc_from(&a.parent_pos)?,
            child_lo: dev.try_alloc_from(&a.child_lo)?,
            child_hi: dev.try_alloc_from(&a.child_hi)?,
            base_s: dev.try_alloc_from(&a.s)?,
            dfs_pos: match patches {
                Some(plan) => Some(dev.try_alloc_from(&plan.dfs_pos)?),
                None => None,
            },
        })
    }

    /// Re-uploads every static buffer of an unpatched topology from the
    /// host truth: a rollback heals resident corruption.
    fn restore(&mut self, dev: &mut Device, a: &SolverArrays) -> Result<(), DeviceError> {
        dev.try_htod_checked(&mut self.z, &a.z)?;
        dev.try_htod_checked(&mut self.parent_pos, &a.parent_pos)?;
        dev.try_htod_checked(&mut self.child_lo, &a.child_lo)?;
        dev.try_htod_checked(&mut self.child_hi, &a.child_hi)?;
        dev.try_htod_checked(&mut self.base_s, &a.s)
    }

    /// Reads every static buffer back and compares against the host
    /// truth (the audit's first line of defence).
    fn verify(
        &self,
        dev: &mut Device,
        a: &SolverArrays,
        patches: Option<&PatchPlan>,
    ) -> Result<bool, DeviceError> {
        Ok(dev.try_dtoh(&self.z)? == a.z
            && dev.try_dtoh(&self.parent_pos)? == a.parent_pos
            && dev.try_dtoh(&self.child_lo)? == a.child_lo
            && dev.try_dtoh(&self.child_hi)? == a.child_hi
            && dev.try_dtoh(&self.base_s)? == a.s
            && match (&self.dfs_pos, patches) {
                (Some(buf), Some(plan)) => dev.try_dtoh(buf)? == plan.dfs_pos,
                _ => true,
            })
    }
}

/// Serial solve of scenario `s` from `warm` — the host oracle for audit
/// repairs and the degraded path of the one-shot batch and the session
/// alike — over its position-space arrays: its loads and, under a patch
/// plan, its outage and impedance override.
fn host_solve(
    serial: &SerialSolver,
    a: &SolverArrays,
    loads: &Loads<'_>,
    patches: Option<&PatchPlan>,
    s: usize,
    cfg: &SolverConfig,
    warm: Option<&[Complex]>,
) -> crate::report::SolveResult {
    let mut a2 = a.clone();
    match loads {
        Loads::Explicit(sc) | Loads::Deltas(sc) => a2.s = a.levels.permute(&sc[s]),
        Loads::Scaled(scales) => {
            for slot in a2.s.iter_mut() {
                *slot = *slot * scales[s];
            }
        }
    }
    if let Some(plan) = patches {
        // An outage leaves the branch as an open switch: the subtree's
        // loads go to zero (so its currents vanish) and its buses are
        // masked on the way out; the serial sweep needs no other change.
        for &bus in &plan.isolated[s] {
            a2.s[a.levels.pos_of[bus as usize] as usize] = Complex::ZERO;
        }
        if plan.z_pos[s] != u32::MAX {
            a2.z[plan.z_pos[s] as usize] = plan.z_val[s];
        }
    }
    serial.solve_warm(&a2, cfg, warm)
}

/// Full by-bus load vectors of a scenario range in the position-major
/// slab layout (`g(s, p) = s·n + p`).
fn position_slab(a: &SolverArrays, scenarios: &[Vec<Complex>]) -> Vec<Complex> {
    scenarios.iter().flat_map(|sc| a.levels.permute(sc)).collect()
}

/// The fault policy of both device paths, with the retry budget
/// ([`SolverConfig::max_recoveries`]) of one resident chunk.
struct Retries {
    budget: u32,
    spent: u32,
}

impl Retries {
    fn new(cfg: &SolverConfig) -> Self {
        Retries { budget: cfg.max_recoveries, spent: 0 }
    }

    /// Runs `attempt` until it succeeds. A device fault — an error, a
    /// kernel panic (corrupted index buffers can drive kernels out of
    /// bounds) or `Ok(None)` (a failed audit) — spends one retry; `None`
    /// once the device is lost or the budget is spent.
    fn run<T>(
        &mut self,
        dev: &mut Device,
        mut attempt: impl FnMut(&mut Device) -> Result<Option<T>, DeviceError>,
    ) -> Option<T> {
        if dev.is_lost() {
            return None;
        }
        loop {
            if let Ok(Ok(Some(out))) = catch_unwind(AssertUnwindSafe(|| attempt(dev))) {
                return Some(out);
            }
            if dev.is_lost() || self.spent >= self.budget {
                return None;
            }
            self.spent += 1;
        }
    }
}

/// The phase a group of device ops is charged to ([`charge`]).
const SETUP: fn(&mut PhaseTimes) -> &mut f64 = |p| &mut p.setup_us;
const BACKWARD: fn(&mut PhaseTimes) -> &mut f64 = |p| &mut p.backward_us;
const CONVERGENCE: fn(&mut PhaseTimes) -> &mut f64 = |p| &mut p.convergence_us;
const TEARDOWN: fn(&mut PhaseTimes) -> &mut f64 = |p| &mut p.teardown_us;

/// Runs a group of device ops; on success charges their modeled time to
/// the phase `phase` picks and their transfer time to `transfer_us`.
fn charge<T>(
    dev: &mut Device,
    t: &mut Timing,
    phase: fn(&mut PhaseTimes) -> &mut f64,
    ops: impl FnOnce(&mut Device) -> Result<T, DeviceError>,
) -> Result<T, DeviceError> {
    let mark = dev.timeline().mark();
    let out = ops(dev)?;
    let b = dev.timeline().breakdown_since(mark);
    *phase(&mut t.phases) += b.total_us();
    t.transfer_us += b.htod_us + b.dtoh_us;
    Ok(out)
}

/// Scenario-load device views for the fused kernels.
enum LoadsRef<'a> {
    Explicit(GlobalRef<'a, Complex>),
    Scaled { base: GlobalRef<'a, Complex>, scales: GlobalRef<'a, f64> },
}

/// One chunk of a one-shot batch: build it (uploading the topology
/// unless the previous chunk hands it over) with every scenario starting
/// from `warm` (by bus id) or flat, iterate, read the state back, audit
/// it when a fault plan is armed, and unbatch into `out`. Returns the
/// topology for the next chunk.
#[allow(clippy::too_many_arguments)]
fn run_chunk(
    dev: &mut Device,
    a: &SolverArrays,
    topo: Option<Topology>,
    loads: &Loads<'_>,
    patches: Option<&PatchPlan>,
    warm: Option<&[Complex]>,
    range: &Range<usize>,
    cfg: &SolverConfig,
    obs: &Obs,
    out: &mut TensorBatchResult,
) -> Result<Topology, DeviceError> {
    let (n, keep, t) = (a.len(), !out.v.is_empty(), &mut out.timing);
    let mut chunk = Chunk::build(dev, a, topo, loads, patches, range.clone(), warm, &[], t)?;
    let sweep = chunk.iterate(dev, cfg, obs, t)?;
    // Read back *before* the audit: the audit vouches for the state it
    // reads, so nothing may run between the two that could change it.
    let (v, j) = if keep {
        charge(dev, t, TEARDOWN, |dev| {
            Ok((dev.try_dtoh_checked(&chunk.v)?, dev.try_dtoh_checked(&chunk.j)?))
        })?
    } else {
        (Vec::new(), Vec::new())
    };
    let min_v = match &chunk.min_v {
        Some(buf) => charge(dev, t, TEARDOWN, |dev| dev.try_dtoh_checked(buf))?,
        None => Vec::new(),
    };
    let trusted = chunk.audit(dev, loads, &sweep.statuses, cfg, obs, t)?;
    let serial = SerialSolver::new(HostProps::paper_rig());
    for (ls, s) in range.clone().enumerate() {
        if !trusted[ls] {
            // A converged scenario failing its audit, or any flagged
            // failure under an armed plan, goes to the host oracle.
            out.absorb_serial(s, host_solve(&serial, a, loads, patches, s, cfg, warm), patches);
            continue;
        }
        out.per_scenario_iterations[s] = sweep.iterations[ls];
        out.statuses[s] = sweep.statuses[ls];
        out.residuals[s] = sweep.residuals[ls];
        if patches.is_some() {
            out.min_v[s] = min_v[ls];
        }
        if keep {
            let mut v = a.levels.unpermute(&v[ls * n..(ls + 1) * n]);
            let mut j = a.levels.unpermute(&j[ls * n..(ls + 1) * n]);
            // De-energized buses report dead, not their stale initial
            // values.
            for &bus in patches.map_or(&[][..], |plan| plan.isolated[s].as_slice()) {
                v[bus as usize] = Complex::ZERO;
                j[bus as usize] = Complex::ZERO;
            }
            out.v[s] = v;
            out.j[s] = j;
        }
    }
    Ok(chunk.topo)
}

/// What one [`Chunk::iterate`] left per scenario (masked-out scenarios:
/// `MaxIterations`, 0 iterations, an infinite residual).
struct Sweep {
    statuses: Vec<SolveStatus>,
    iterations: Vec<u32>,
    residuals: Vec<f64>,
}

/// One scenario chunk resident on the device: the shared topology, the
/// chunk's loads and patch words, and the state every iteration reads
/// and writes. A one-shot batch builds one per chunk and reads it once;
/// an outer session keeps one across rounds.
struct Chunk<'a> {
    a: &'a SolverArrays,
    plan: Option<&'a PatchPlan>,
    range: Range<usize>,
    topo: Topology,
    loads: DeviceLoads,
    patch: Option<ChunkPatch>,
    min_v: Option<DeviceBuffer<f64>>,
    v: DeviceBuffer<Complex>,
    j: DeviceBuffer<Complex>,
    mask: DeviceBuffer<u32>,
    /// Host copy of `mask`.
    live: Vec<u32>,
    res: DeviceBuffer<f64>,
    /// Probe positions and the gathered `nb·np` voltages (sessions).
    probes: Option<(DeviceBuffer<u32>, DeviceBuffer<Complex>)>,
}

impl<'a> Chunk<'a> {
    /// Uploads the topology (unless `topo` carries it over), the chunk's
    /// loads and patch words, and initialises the iterate from `warm`
    /// (by bus id, replicated device-side) or flat. Setup time.
    #[allow(clippy::too_many_arguments)]
    fn build(
        dev: &mut Device,
        a: &'a SolverArrays,
        topo: Option<Topology>,
        loads: &Loads<'_>,
        plan: Option<&'a PatchPlan>,
        range: Range<usize>,
        warm: Option<&[Complex]>,
        probes: &[usize],
        t: &mut Timing,
    ) -> Result<Self, DeviceError> {
        let topo = match topo {
            Some(topo) => topo,
            None => charge(dev, t, SETUP, |dev| Topology::upload(dev, a, plan))?,
        };
        let (n, nb) = (a.len(), range.len());
        let per_scenario = LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK);
        charge(dev, t, SETUP, |dev| {
            let loads = match loads {
                Loads::Explicit(sc) => {
                    DeviceLoads::Slab(dev.try_alloc_from(&position_slab(a, &sc[range.clone()]))?)
                }
                Loads::Deltas(sc) => {
                    // Mostly the base case: replicate the resident base
                    // loads into every stripe and scatter the deviations
                    // — not `B·n` words.
                    let mut buf = dev.try_alloc::<Complex>(nb * n)?;
                    let kernel = WarmInitKernel { warm: topo.base_s.view(), v: buf.view_mut(), n };
                    dev.try_launch(per_scenario, &kernel)?;
                    let mut deltas = Vec::new();
                    for (ls, scenario) in sc[range.clone()].iter().enumerate() {
                        for (bus, &load) in scenario.iter().enumerate() {
                            let p = a.levels.pos_of[bus];
                            if load != a.s[p as usize] {
                                deltas.push((ls as u32, p, load));
                            }
                        }
                    }
                    scatter(dev, &mut buf, n, &deltas)?;
                    DeviceLoads::Slab(buf)
                }
                Loads::Scaled(s) => DeviceLoads::Scales(dev.try_alloc_from(&s[range.clone()])?),
            };
            // Patched chunks: a few words per scenario describe the cut
            // range and the impedance override, plus one `min |V|` slot
            // per scenario.
            let patch =
                plan.map(|plan| ChunkPatch::upload(dev, plan, range.clone())).transpose()?;
            let min_v = plan.map(|_| filled(dev, nb, f64::INFINITY)).transpose()?;
            let v = match warm {
                Some(profile) => {
                    let mut v = dev.try_alloc::<Complex>(nb * n)?;
                    let buf = dev.try_alloc_from(&a.levels.permute(profile))?;
                    let kernel = WarmInitKernel { warm: buf.view(), v: v.view_mut(), n };
                    dev.try_launch(per_scenario, &kernel)?;
                    v
                }
                None => filled(dev, nb * n, a.source)?,
            };
            let j = dev.try_alloc::<Complex>(nb * n)?;
            let mask = dev.try_alloc_from(&vec![1u32; nb])?;
            let res = filled(dev, nb, 0.0)?;
            let probes = if probes.is_empty() {
                None
            } else {
                let pos: Vec<u32> = probes.iter().map(|&b| a.levels.pos_of[b]).collect();
                Some((dev.try_alloc_from(&pos)?, dev.try_alloc::<Complex>(nb * pos.len())?))
            };
            let live = vec![1; nb];
            Ok(Chunk { a, plan, range, topo, loads, patch, min_v, v, j, mask, live, res, probes })
        })
    }

    /// Runs the fused sweep until every live scenario freezes —
    /// converged, diverged, non-finite, or cut by the modeled deadline —
    /// or `cfg.max_iter` runs out. Every scenario owns a
    /// [`ConvergenceMonitor`]; a frozen scenario drops out of the device
    /// mask, which re-uploads only when it changes.
    fn iterate(
        &mut self,
        dev: &mut Device,
        cfg: &SolverConfig,
        obs: &Obs,
        t: &mut Timing,
    ) -> Result<Sweep, DeviceError> {
        let nb = self.range.len();
        let mut monitors: Vec<ConvergenceMonitor> =
            (0..nb).map(|_| ConvergenceMonitor::new(cfg, self.a.source.abs())).collect();
        let mut sweep = Sweep {
            statuses: vec![SolveStatus::MaxIterations; nb],
            iterations: vec![0; nb],
            residuals: vec![f64::INFINITY; nb],
        };
        let mut active = self.live.iter().filter(|&&m| m == 1).count();

        let mut iteration = 0u32;
        while active > 0 && iteration < cfg.max_iter {
            iteration += 1;
            let iter_t0 = t.phases.total_us();

            // The launch cannot be split into per-half timings, so its
            // whole modeled time is charged to `backward_us` (`forward_us`
            // stays 0 in the tensor engine, like `injection_us` — both are
            // fused into the same kernel).
            charge(dev, t, BACKWARD, |dev| self.sweep(dev))?;
            obs.phase("sweep", iter_t0, t.phases.total_us());

            // Per-scenario convergence triage on the host.
            let conv_t0 = t.phases.total_us();
            let mark = dev.timeline().mark();
            let residuals = dev.try_dtoh_checked(&self.res)?;
            let mut any_froze = false;
            let mut worst_active = 0.0f64;
            for ls in 0..nb {
                if self.live[ls] == 0 {
                    continue;
                }
                let r = residuals[ls];
                sweep.residuals[ls] = r;
                sweep.iterations[ls] = iteration;
                worst_active = MaxAbsF64::combine(worst_active, r);
                if let Some(status) = monitors[ls].observe(iteration, r) {
                    sweep.statuses[ls] = status;
                    self.live[ls] = 0;
                    active -= 1;
                    any_froze = true;
                }
            }
            if any_froze && active > 0 {
                dev.try_htod_checked(&mut self.mask, &self.live)?;
            }
            let b = dev.timeline().breakdown_since(mark);
            t.phases.convergence_us += b.total_us();
            t.transfer_us += b.htod_us + b.dtoh_us;
            t.transfer_sweep_us += b.htod_us + b.dtoh_us;
            obs.phase("convergence", conv_t0, t.phases.total_us());
            obs.iteration(iteration, iter_t0, t.phases.total_us(), worst_active);

            // Modeled deadline covers the scenarios still running.
            if let Some(budget) = cfg.deadline_us {
                let elapsed = t.phases.total_us();
                if elapsed >= budget && active > 0 {
                    for ls in 0..nb {
                        if self.live[ls] == 1 {
                            self.live[ls] = 0;
                            sweep.statuses[ls] = SolveStatus::DeadlineExceeded {
                                at_iteration: iteration,
                                elapsed_us: elapsed as u64,
                            };
                        }
                    }
                    active = 0;
                }
            }
        }
        Ok(sweep)
    }

    /// One fused sweep launch per iteration: backward, forward, and the
    /// in-block residual fold of every live scenario, packing
    /// [`SCENARIOS_PER_BLOCK`] scenarios per block to amortise topology
    /// reads.
    fn sweep(&mut self, dev: &mut Device) -> Result<(), DeviceError> {
        let (n, nb) = (self.a.len(), self.range.len());
        let grid = LaunchConfig::grid2d(1, nb.div_ceil(SCENARIOS_PER_BLOCK) as u32, TENSOR_BLOCK);
        let kernel = SweepKernel {
            loads: self.loads.view(&self.topo),
            v: self.v.view_mut(),
            j: self.j.view_mut(),
            z: self.topo.z.view(),
            parent_pos: self.topo.parent_pos.view(),
            child_lo: self.topo.child_lo.view(),
            child_hi: self.topo.child_hi.view(),
            mask: self.mask.view(),
            residuals: self.res.view_mut(),
            patch: patch_ref(&self.topo, &self.patch),
            min_v: self.min_v.as_mut().map(|b| b.view_mut()),
            level_offsets: &self.a.levels.level_offsets,
            n,
            nb,
        };
        dev.try_launch(grid, &kernel)
    }

    /// Integrity audit of the resident state, per scenario. Without a
    /// fault plan nothing can have faulted and every scenario is trusted.
    /// Under one, every static buffer is read back against its host
    /// truth, then one no-commit iteration per scenario measures
    /// `max |ΔV|` via [`primitives::try_reduce_batched`]. A scenario is
    /// trusted only if its status converged and its audit residual is
    /// within `cfg`'s tolerance; a static mismatch distrusts the chunk.
    fn audit(
        &self,
        dev: &mut Device,
        loads: &Loads<'_>,
        statuses: &[SolveStatus],
        cfg: &SolverConfig,
        obs: &Obs,
        t: &mut Timing,
    ) -> Result<Vec<bool>, DeviceError> {
        let (n, nb) = (self.a.len(), self.range.len());
        if dev.fault_plan().is_none() {
            return Ok(vec![true; nb]);
        }
        let tol = cfg.tol_volts(self.a.source.abs());
        let audit_t0 = t.phases.total_us();
        let r = self.range.clone();
        let trusted = charge(dev, t, CONVERGENCE, |dev| {
            let statics_intact = self.topo.verify(dev, self.a, self.plan)?
                && match (&self.loads, loads) {
                    (DeviceLoads::Slab(buf), Loads::Explicit(sc) | Loads::Deltas(sc)) => {
                        dev.try_dtoh(buf)? == position_slab(self.a, &sc[r.clone()])
                    }
                    (DeviceLoads::Scales(buf), Loads::Scaled(sc)) => {
                        dev.try_dtoh(buf)? == sc[r.clone()]
                    }
                    _ => true,
                }
                && match (&self.patch, self.plan) {
                    (Some(cp), Some(plan)) => cp.matches(dev, plan, r)?,
                    _ => true,
                };
            if !statics_intact {
                return Ok(vec![false; nb]);
            }
            let mut j_audit = dev.try_alloc::<Complex>(nb * n)?;
            let mut v_audit = dev.try_alloc::<Complex>(nb * n)?;
            let mut delta = dev.try_alloc::<f64>(nb * n)?;
            let kernel = AuditKernel {
                loads: self.loads.view(&self.topo),
                v: self.v.view(),
                j: self.j.view(),
                j_audit: j_audit.view_mut(),
                v_audit: v_audit.view_mut(),
                delta: delta.view_mut(),
                z: self.topo.z.view(),
                parent_pos: self.topo.parent_pos.view(),
                child_lo: self.topo.child_lo.view(),
                child_hi: self.topo.child_hi.view(),
                patch: patch_ref(&self.topo, &self.patch),
                level_offsets: &self.a.levels.level_offsets,
                n,
            };
            dev.try_launch(LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK), &kernel)?;
            let res = try_reduce_batched::<f64, MaxAbsF64>(dev, &delta, nb)?;
            Ok(statuses.iter().zip(&res).map(|(s, &r)| s.is_converged() && r <= tol).collect())
        })?;
        obs.phase("audit", audit_t0, t.phases.total_us());
        Ok(trusted)
    }

    /// Sets the mask to `live` for the next [`Chunk::iterate`].
    fn set_live(
        &mut self,
        dev: &mut Device,
        live: &[bool],
        t: &mut Timing,
    ) -> Result<(), DeviceError> {
        self.live = live.iter().map(|&l| u32::from(l)).collect();
        let mask = &mut self.mask;
        charge(dev, t, CONVERGENCE, |dev| dev.try_htod_checked(mask, &self.live))
    }

    /// Reads back the probe buses' voltages, per scenario in probe
    /// order: `nb·np` words instead of the slab (teardown).
    fn gather(
        &mut self,
        dev: &mut Device,
        t: &mut Timing,
    ) -> Result<Vec<Vec<Complex>>, DeviceError> {
        let (n, nb) = (self.a.len(), self.range.len());
        let Some((slots, out)) = self.probes.as_mut() else {
            return Ok(vec![Vec::new(); nb]);
        };
        let np = slots.len();
        let gathered = charge(dev, t, TEARDOWN, |dev| {
            let (src, slots) = (self.v.view(), slots.view());
            let kernel = GatherKernel { src, slots, out: out.view_mut(), np, n };
            dev.try_launch(LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK), &kernel)?;
            dev.try_dtoh_checked(out)
        })?;
        Ok(gathered.chunks(np).map(<[Complex]>::to_vec).collect())
    }
}

/// The fused route of [`crate::GpuSolver`] and of the supervisor's
/// [`crate::Backend::Gpu`] rung: the resident chunk at batch size one
/// over the arrays' own loads, stepped by `recovery::drive` one fused
/// sweep launch at a time. A unit scale reads the resident base loads
/// exactly (`s · 1.0 == s`) without a second copy of them.
pub(crate) struct FusedSession<'a> {
    dev: &'a mut Device,
    chunk: Chunk<'a>,
    /// The warm start by bus id; `None` is the flat start.
    v_init: Option<&'a [Complex]>,
    clock: SessionClock,
}

/// The one scenario's load scale.
const UNIT_SCALE: [f64; 1] = [1.0];

impl<'a> FusedSession<'a> {
    /// Builds the chunk — topology, scale word, mask and an iterate seeded
    /// from `v_init` (by bus id) or flat — charged to setup.
    pub(crate) fn open(
        dev: &'a mut Device,
        a: &'a SolverArrays,
        v_init: Option<&'a [Complex]>,
        obs: Obs,
    ) -> Result<Self, DeviceError> {
        if let Some(w) = v_init {
            assert_eq!(w.len(), a.len(), "warm start needs one voltage per bus");
        }
        let loads = Loads::Scaled(&UNIT_SCALE);
        let mut t = Timing::default();
        let chunk = Chunk::build(dev, a, None, &loads, None, 0..1, v_init, &[], &mut t)?;
        let clock = SessionClock::new(t.phases.setup_us, t.transfer_us, obs);
        Ok(FusedSession { dev, chunk, v_init, clock })
    }
}

impl SweepSession for FusedSession<'_> {
    type V = Complex;

    fn clock(&self) -> &SessionClock {
        &self.clock
    }

    fn iterate(&mut self) -> Result<f64, DeviceError> {
        let mark = self.dev.timeline().mark();
        self.chunk.sweep(self.dev)?;
        self.clock.charge("backward", &self.dev.timeline().breakdown_since(mark));
        let mark = self.dev.timeline().mark();
        let r = self.dev.try_dtoh_checked(&self.chunk.res)?[0];
        self.clock.charge("convergence", &self.dev.timeline().breakdown_since(mark));
        Ok(r)
    }

    fn snapshot(&mut self) -> Result<Vec<Complex>, DeviceError> {
        let mark = self.dev.timeline().mark();
        let v = self.dev.try_dtoh_checked(&self.chunk.v)?;
        self.clock.recovery_us += self.dev.timeline().breakdown_since(mark).total_us();
        Ok(v)
    }

    fn restore(&mut self, v_pos: &[Complex]) -> Result<(), DeviceError> {
        let (dev, c) = (&mut *self.dev, &mut self.chunk);
        let mark = dev.timeline().mark();
        // Statics are re-uploaded wholesale, as on the level path. A
        // flipped mask word freezes the stripe, so the mask is static.
        c.topo.restore(dev, c.a)?;
        let DeviceLoads::Scales(scale) = &mut c.loads else {
            unreachable!("a fused session runs on a scale word")
        };
        dev.try_htod_checked(scale, &UNIT_SCALE)?;
        dev.try_htod_checked(&mut c.mask, &[1])?;
        dev.try_htod_checked(&mut c.v, v_pos)?;
        try_fill(dev, &mut c.res, 0.0)?;
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(())
    }

    fn start_state(&self) -> Vec<Complex> {
        let a = self.chunk.a;
        match self.v_init {
            Some(init) => a.levels.permute(init),
            None => vec![a.source; a.len()],
        }
    }

    fn verify_static(&mut self) -> Result<bool, DeviceError> {
        let (dev, c) = (&mut *self.dev, &self.chunk);
        let mark = dev.timeline().mark();
        let DeviceLoads::Scales(scale) = &c.loads else {
            unreachable!("a fused session runs on a scale word")
        };
        let ok = c.topo.verify(dev, c.a, None)?
            && dev.try_dtoh(scale)? == UNIT_SCALE
            && dev.try_dtoh(&c.mask)? == [1];
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(ok)
    }

    fn download(&mut self) -> Result<(Vec<Complex>, Vec<Complex>), DeviceError> {
        let mark = self.dev.timeline().mark();
        let v_pos = self.dev.try_dtoh_checked(&self.chunk.v)?;
        let j_pos = self.dev.try_dtoh_checked(&self.chunk.j)?;
        self.clock.charge("teardown", &self.dev.timeline().breakdown_since(mark));
        Ok((v_pos, j_pos))
    }

    fn unpermute(&self, pos: &[Complex]) -> Vec<Complex> {
        self.chunk.a.levels.unpermute(pos)
    }

    fn host_iterate(&self, v_pos: &[Complex]) -> (f64, Vec<Complex>) {
        crate::gpu::host_iterate(self.chunk.a, self.v_init, v_pos)
    }

    fn source_mag(&self) -> f64 {
        self.chunk.a.source.abs()
    }

    fn faults_observed(&self) -> u32 {
        self.dev.fault_log().len() as u32
    }
}

/// A new `len`-word device buffer holding `value` everywhere.
fn filled<T: DeviceCopy>(
    dev: &mut Device,
    len: usize,
    value: T,
) -> Result<DeviceBuffer<T>, DeviceError> {
    let mut buf = dev.try_alloc::<T>(len)?;
    try_fill(dev, &mut buf, value)?;
    Ok(buf)
}

/// Writes sparse `(scenario, position, load)` entries into a load slab
/// with one small launch; no-op when there are none.
fn scatter(
    dev: &mut Device,
    dst: &mut DeviceBuffer<Complex>,
    n: usize,
    entries: &[(u32, u32, Complex)],
) -> Result<(), DeviceError> {
    if entries.is_empty() {
        return Ok(());
    }
    let s_idx = dev.try_alloc_from(&entries.iter().map(|e| e.0).collect::<Vec<_>>())?;
    let pos = dev.try_alloc_from(&entries.iter().map(|e| e.1).collect::<Vec<_>>())?;
    let vals = dev.try_alloc_from(&entries.iter().map(|e| e.2).collect::<Vec<_>>())?;
    let kernel = ScatterKernel {
        s_idx: s_idx.view(),
        pos: pos.view(),
        vals: vals.view(),
        dst: dst.view_mut(),
        k: entries.len(),
        n,
    };
    dev.try_launch(LaunchConfig::grid2d(1, 1, TENSOR_BLOCK), &kernel)
}

/// A chunk's resident load operand.
enum DeviceLoads {
    /// Explicit loads: the position-space slab (`nb·n`).
    Slab(DeviceBuffer<Complex>),
    /// Scaled loads: one factor per scenario over the topology's base.
    Scales(DeviceBuffer<f64>),
}

impl DeviceLoads {
    fn view<'a>(&'a self, topo: &'a Topology) -> LoadsRef<'a> {
        match self {
            Self::Slab(s) => LoadsRef::Explicit(s.view()),
            Self::Scales(sc) => LoadsRef::Scaled { base: topo.base_s.view(), scales: sc.view() },
        }
    }
}

/// Per-chunk patch buffers (one word each per scenario, local index).
struct ChunkPatch {
    cut_pos: DeviceBuffer<u32>,
    cut_lo: DeviceBuffer<u32>,
    cut_hi: DeviceBuffer<u32>,
    z_pos: DeviceBuffer<u32>,
    z_val: DeviceBuffer<Complex>,
}

impl ChunkPatch {
    fn upload(dev: &mut Device, plan: &PatchPlan, r: Range<usize>) -> Result<Self, DeviceError> {
        Ok(ChunkPatch {
            cut_pos: dev.try_alloc_from(&plan.cut_pos[r.clone()])?,
            cut_lo: dev.try_alloc_from(&plan.cut_lo[r.clone()])?,
            cut_hi: dev.try_alloc_from(&plan.cut_hi[r.clone()])?,
            z_pos: dev.try_alloc_from(&plan.z_pos[r.clone()])?,
            z_val: dev.try_alloc_from(&plan.z_val[r])?,
        })
    }

    /// Whether every patch word on the device equals the plan's.
    fn matches(
        &self,
        dev: &mut Device,
        plan: &PatchPlan,
        r: Range<usize>,
    ) -> Result<bool, DeviceError> {
        Ok(dev.try_dtoh(&self.cut_pos)? == plan.cut_pos[r.clone()]
            && dev.try_dtoh(&self.cut_lo)? == plan.cut_lo[r.clone()]
            && dev.try_dtoh(&self.cut_hi)? == plan.cut_hi[r.clone()]
            && dev.try_dtoh(&self.z_pos)? == plan.z_pos[r.clone()]
            && dev.try_dtoh(&self.z_val)? == plan.z_val[r])
    }
}

/// Device views of the patch state for the fused kernels.
struct PatchRefs<'a> {
    dfs_pos: GlobalRef<'a, u32>,
    cut_pos: GlobalRef<'a, u32>,
    cut_lo: GlobalRef<'a, u32>,
    cut_hi: GlobalRef<'a, u32>,
    z_pos: GlobalRef<'a, u32>,
    z_val: GlobalRef<'a, Complex>,
}

fn patch_ref<'a>(topo: &'a Topology, chunk: &'a Option<ChunkPatch>) -> Option<PatchRefs<'a>> {
    chunk.as_ref().map(|cp| PatchRefs {
        dfs_pos: topo.dfs_pos.as_ref().expect("patched topology has dfs_pos").view(),
        cut_pos: cp.cut_pos.view(),
        cut_lo: cp.cut_lo.view(),
        cut_hi: cp.cut_hi.view(),
        z_pos: cp.z_pos.view(),
        z_val: cp.z_val.view(),
    })
}

/// Per-scenario outcome of one [`TensorOuterSession::solve_round`].
pub(crate) struct OuterRound {
    /// Inner solve status per scenario (retired scenarios keep the
    /// status of their last live round).
    pub(crate) statuses: Vec<SolveStatus>,
    /// Inner iterations this round (0 for retired scenarios). The outer
    /// driver has no use for them; the session tests do.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) iterations: Vec<u32>,
    /// Probe-bus voltages per scenario, in the order the probes were
    /// registered. Retired scenarios report their final state.
    pub(crate) probe_v: Vec<Vec<Complex>>,
}

/// Final report of a [`TensorOuterSession`].
pub(crate) struct SessionReport {
    /// Final voltages by bus id, per scenario.
    pub(crate) v: Vec<Vec<Complex>>,
    /// Total modeled time across every round, µs.
    pub(crate) total_us: f64,
}

/// Resident-state outer-loop session (see
/// [`TensorBatchSolver::outer_session`]): one [`Chunk`] held on the
/// device across outer rounds, with sparse load updates and probe-bus
/// readback between rounds, plus the host mirrors it is rebuilt from.
pub(crate) struct TensorOuterSession<'s> {
    device: &'s mut Device,
    a: &'s SolverArrays,
    probes: Vec<usize>,
    /// Host mirror of every scenario's loads, by bus id — the rebuild,
    /// audit and fallback source of truth.
    loads: Vec<Vec<Complex>>,
    /// Shared warm start, by bus id, for the first round and rebuilds.
    warm: Option<Vec<Complex>>,
    /// Scenarios excluded from further rounds (outer loop settled).
    retired: Vec<bool>,
    /// Last inner status per scenario.
    statuses: Vec<SolveStatus>,
    /// Host-resident voltages, populated on the fallback path.
    host_v: Vec<Option<Vec<Complex>>>,
    /// The resident chunk; `None` once a fault has dropped it.
    chunk: Option<Chunk<'s>>,
    degraded: bool,
    retries: Retries,
    obs: Obs,
    timing: Timing,
}

impl<'s> TensorOuterSession<'s> {
    /// Runs `op` on the resident chunk under [`Retries::run`], building
    /// the chunk from the host mirrors when a fault has dropped it (the
    /// rebuilt iterate starts cold). `None` once the session has
    /// degraded to the host.
    fn on_device<T>(
        &mut self,
        mut op: impl FnMut(
            &mut Device,
            &mut Chunk<'s>,
            &mut Timing,
            &[Vec<Complex>],
        ) -> Result<Option<T>, DeviceError>,
    ) -> Option<T> {
        if self.degraded {
            return None;
        }
        let (slot, t, loads) = (&mut self.chunk, &mut self.timing, &self.loads);
        let (a, warm, probes) = (self.a, self.warm.as_deref(), &self.probes);
        let out = self.retries.run(self.device, |dev| {
            // The chunk leaves its slot for the attempt and returns only
            // on success, so a fault drops it.
            let mut chunk = match slot.take() {
                Some(chunk) => chunk,
                None => {
                    let deltas = Loads::Deltas(loads);
                    Chunk::build(dev, a, None, &deltas, None, 0..loads.len(), warm, probes, t)?
                }
            };
            let out = op(dev, &mut chunk, t, loads)?;
            if out.is_some() {
                *slot = Some(chunk);
            }
            Ok(out)
        });
        self.degraded = out.is_none();
        out
    }

    /// Replaces scenarios' loads, `(scenario, loads by bus id)`: the host
    /// mirror takes them whole, the resident slab a scatter of just the
    /// entries that changed.
    pub(crate) fn update_loads(&mut self, fresh: Vec<(usize, Vec<Complex>)>) {
        let n = self.a.len();
        let mut entries = Vec::new();
        for (s, loads) in fresh {
            assert_eq!(loads.len(), n, "scenario {s} has {} loads for {n} buses", loads.len());
            for (bus, (&old, &new)) in self.loads[s].iter().zip(&loads).enumerate() {
                if old != new {
                    entries.push((s as u32, self.a.levels.pos_of[bus], new));
                }
            }
            self.loads[s] = loads;
        }
        self.on_device(|dev, chunk, t, _| {
            let DeviceLoads::Slab(slab) = &mut chunk.loads else {
                unreachable!("sessions hold explicit loads")
            };
            charge(dev, t, SETUP, |dev| scatter(dev, slab, n, &entries)).map(Some)
        });
    }

    /// Excludes a scenario from further rounds; its resident state (and
    /// final voltages) stay exactly as its last live round left them.
    pub(crate) fn retire(&mut self, s: usize) {
        assert!(s < self.loads.len(), "scenario {s} of {}", self.loads.len());
        self.retired[s] = true;
    }

    /// One batched inner solve over every live scenario, re-iterating
    /// from the resident voltages. Under an armed fault plan the round is
    /// audited, and a live scenario failing its audit is a device fault.
    /// Falls back to per-scenario serial solves (warm off the host
    /// mirror) once the session has degraded.
    pub(crate) fn solve_round(&mut self, cfg: &SolverConfig) -> OuterRound {
        let live: Vec<bool> = self.retired.iter().map(|&r| !r).collect();
        let obs = self.obs.clone();
        let round = self.on_device(|dev, chunk, t, loads| {
            chunk.set_live(dev, &live, t)?;
            let sweep = chunk.iterate(dev, cfg, &obs, t)?;
            // Probes are read before the audit, for the same reason the
            // one-shot batch downloads its state first.
            let probe_v = chunk.gather(dev, t)?;
            let trusted = chunk.audit(dev, &Loads::Deltas(loads), &sweep.statuses, cfg, &obs, t)?;
            let clean = live.iter().zip(&trusted).all(|(&l, &ok)| ok || !l);
            Ok(clean.then_some((sweep, probe_v)))
        });
        let Some((sweep, probe_v)) = round else {
            return self.host_round(cfg);
        };
        for s in (0..live.len()).filter(|&s| live[s]) {
            self.statuses[s] = sweep.statuses[s];
        }
        OuterRound { statuses: self.statuses.clone(), iterations: sweep.iterations, probe_v }
    }

    /// Serial fallback round: each live scenario re-solves on the host,
    /// warm off its previous fallback profile when one exists.
    fn host_round(&mut self, cfg: &SolverConfig) -> OuterRound {
        let serial = SerialSolver::new(HostProps::paper_rig());
        let mut iterations = vec![0u32; self.loads.len()];
        for (s, iters) in iterations.iter_mut().enumerate() {
            if !self.retired[s] {
                let res = self.solve_on_host(&serial, s, cfg);
                (*iters, self.statuses[s]) = (res.iterations, res.status);
                self.host_v[s] = Some(res.v);
            }
        }
        let probes = |v: &Vec<Complex>| self.probes.iter().map(|&b| v[b]).collect();
        let probe_v = self.host_v.iter().map(|v| v.as_ref().map_or(Vec::new(), probes)).collect();
        OuterRound { statuses: self.statuses.clone(), iterations, probe_v }
    }

    /// [`host_solve`] of scenario `s` from the load mirror, charged to
    /// teardown like the one-shot fallback.
    fn solve_on_host(
        &mut self,
        serial: &SerialSolver,
        s: usize,
        cfg: &SolverConfig,
    ) -> crate::report::SolveResult {
        let warm = self.host_v[s].as_deref().or(self.warm.as_deref());
        let res = host_solve(serial, self.a, &Loads::Deltas(&self.loads), None, s, cfg, warm);
        self.timing.phases.teardown_us += res.timing.total_us();
        res
    }

    /// Downloads every scenario's final voltages and closes the
    /// session. Under an armed plan the state is audited after the
    /// download, and every scenario it does not vouch for re-solves on
    /// the host from the load mirror.
    pub(crate) fn finish(&mut self, cfg: &SolverConfig) -> SessionReport {
        let (n, nb) = (self.a.len(), self.loads.len());
        let (obs, statuses) = (self.obs.clone(), self.statuses.clone());
        let spent = self.retries.spent;
        let read = self.on_device(|dev, chunk, t, loads| {
            let v = charge(dev, t, TEARDOWN, |dev| dev.try_dtoh_checked(&chunk.v))?;
            Ok(Some((v, chunk.audit(dev, &Loads::Deltas(loads), &statuses, cfg, &obs, t)?)))
        });
        // A retry here rebuilt the iterate cold: the resident voltages
        // are gone, and re-deriving them means re-solving on the host.
        let (flat, trusted) = match read {
            Some(read) if self.retries.spent == spent => read,
            _ => (Vec::new(), vec![false; nb]),
        };
        let serial = SerialSolver::new(HostProps::paper_rig());
        let v = (0..nb)
            .map(|s| match (trusted[s], self.host_v[s].take()) {
                (true, _) => self.a.levels.unpermute(&flat[s * n..(s + 1) * n]),
                (false, Some(v)) => v,
                (false, None) => self.solve_on_host(&serial, s, cfg).v,
            })
            .collect();
        SessionReport { v, total_us: self.timing.total_us() }
    }
}

/// Scatters sparse load updates into the resident slab:
/// `dst[s_idx[k]·n + pos[k]] = vals[k]`.
struct ScatterKernel<'a> {
    s_idx: GlobalRef<'a, u32>,
    pos: GlobalRef<'a, u32>,
    vals: GlobalRef<'a, Complex>,
    dst: GlobalMut<'a, Complex>,
    k: usize,
    n: usize,
}

impl Kernel for ScatterKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_scatter_loads"
    }

    fn block(&self, blk: &mut BlockScope) {
        let bdim = blk.block_dim();
        blk.threads(|t| {
            let mut i = t.tid();
            while i < self.k {
                let s = t.ld(&self.s_idx, i) as usize;
                let p = t.ld(&self.pos, i) as usize;
                let v = t.ld(&self.vals, i);
                t.st(&self.dst, s * self.n + p, v);
                i += bdim;
            }
        });
    }
}

/// Gathers probe positions out of a striped slab:
/// `out[s·np + k] = src[s·n + slots[k]]`. One block per scenario.
struct GatherKernel<'a> {
    src: GlobalRef<'a, Complex>,
    slots: GlobalRef<'a, u32>,
    out: GlobalMut<'a, Complex>,
    np: usize,
    n: usize,
}

impl Kernel for GatherKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_gather_probes"
    }

    fn block(&self, blk: &mut BlockScope) {
        let s = blk.block_idx_y();
        let bdim = blk.block_dim();
        blk.threads(|t| {
            let mut k = t.tid();
            while k < self.np {
                let p = t.ld(&self.slots, k) as usize;
                let v = t.ld(&self.src, s * self.n + p);
                t.st(&self.out, s * self.np + k, v);
                k += bdim;
            }
        });
    }
}

/// One scenario resident in a sweep block: its chunk-local index, load
/// scale, and patch words (`u32::MAX` sentinels when unpatched, which
/// never match a real position or DFS range).
#[derive(Clone, Copy)]
struct Member {
    s_idx: usize,
    scale: f64,
    cut_pos: u32,
    cut_lo: u32,
    cut_hi: u32,
    z_pos: u32,
    z_val: Complex,
}

impl Member {
    /// Reads scenario `s_idx`'s load scale and patch words.
    fn read(
        t: &mut ThreadCtx<'_>,
        loads: &LoadsRef<'_>,
        patch: &Option<PatchRefs<'_>>,
        s_idx: usize,
    ) -> Self {
        let scale = match loads {
            LoadsRef::Scaled { scales, .. } => t.ld(scales, s_idx),
            LoadsRef::Explicit(_) => 0.0,
        };
        match patch {
            Some(pr) => Member {
                s_idx,
                scale,
                cut_pos: t.ld(&pr.cut_pos, s_idx),
                cut_lo: t.ld(&pr.cut_lo, s_idx),
                cut_hi: t.ld(&pr.cut_hi, s_idx),
                z_pos: t.ld(&pr.z_pos, s_idx),
                z_val: t.ld(&pr.z_val, s_idx),
            },
            None => Member {
                s_idx,
                scale,
                cut_pos: u32::MAX,
                cut_lo: u32::MAX,
                cut_hi: u32::MAX,
                z_pos: u32::MAX,
                z_val: Complex::ZERO,
            },
        }
    }
}

/// Replicates the warm-start profile (position space, length `n`) into
/// every scenario stripe: `v[s·n + p] = warm[p]`. One block per
/// scenario, threads strided over positions.
struct WarmInitKernel<'a> {
    warm: GlobalRef<'a, Complex>,
    v: GlobalMut<'a, Complex>,
    n: usize,
}

impl Kernel for WarmInitKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_warm_init"
    }

    fn block(&self, blk: &mut BlockScope) {
        let base = blk.block_idx_y() * self.n;
        let bdim = blk.block_dim();
        blk.threads(|t| {
            let mut k = t.tid();
            while k < self.n {
                let w = t.ld(&self.warm, k);
                t.st(&self.v, base + k, w);
                k += bdim;
            }
        });
    }
}

/// One fused FBS iteration per launch: the backward sweep (injection
/// inline, levels leaf→root) runs immediately into the forward ladder
/// sweep (levels root→leaf) as barrier phases of the *same* kernel, one
/// block per [`SCENARIOS_PER_BLOCK`] scenarios (`blockIdx.y`).
///
/// Fusing the two sweeps lets each thread keep the branch current and the
/// previous-iteration voltage of every node it owns in per-thread locals
/// between the halves — the sweep assignment is the same strided
/// `(level, tid + m·bdim)` pattern in both directions, so the forward
/// half re-reads neither slab from global memory. The locals model
/// registers (with spill to L1 local memory): `⌈n/bdim⌉ · 32 B` per
/// thread per resident scenario, ≈ 0.5 KB each on a 4K-node tree at 256
/// threads. Topology words (impedance, parent, child range, base load)
/// are read once per node and applied to every resident scenario. The
/// per-scenario ∞-norm residual accumulates in per-thread locals and
/// tree-folds through shared memory at the end, so it costs one `f64` of
/// global traffic per scenario.
struct SweepKernel<'a> {
    loads: LoadsRef<'a>,
    v: GlobalMut<'a, Complex>,
    j: GlobalMut<'a, Complex>,
    z: GlobalRef<'a, Complex>,
    parent_pos: GlobalRef<'a, u32>,
    child_lo: GlobalRef<'a, u32>,
    child_hi: GlobalRef<'a, u32>,
    mask: GlobalRef<'a, u32>,
    residuals: GlobalMut<'a, f64>,
    /// Patched solves: per-scenario cut ranges and impedance overrides.
    /// `None` keeps the unpatched path byte-identical (no extra reads,
    /// no extra flops).
    patch: Option<PatchRefs<'a>>,
    /// Patched solves: per-scenario `min |V|` over updated nodes,
    /// overwritten every iteration.
    min_v: Option<GlobalMut<'a, f64>>,
    level_offsets: &'a [u32],
    n: usize,
    /// Scenarios in the chunk (the last block may hold fewer than
    /// [`SCENARIOS_PER_BLOCK`]).
    nb: usize,
}

impl Kernel for SweepKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_sweep"
    }

    fn block(&self, blk: &mut BlockScope) {
        let group = blk.block_idx_y() * SCENARIOS_PER_BLOCK;
        let group_end = (group + SCENARIOS_PER_BLOCK).min(self.nb);
        let bdim = blk.block_dim();

        // Active resident scenarios with their load scales and patch
        // words; frozen scenarios cost one 4-byte mask read each and
        // drop out.
        let mut members: Vec<Member> = Vec::new();
        blk.threads(|t| {
            if t.tid() == 0 {
                for s_idx in group..group_end {
                    if t.ld(&self.mask, s_idx) != 0 {
                        members.push(Member::read(t, &self.loads, &self.patch, s_idx));
                    }
                }
            }
        });
        if members.is_empty() {
            return;
        }
        let nm = members.len();

        // Per-thread local slots: thread `t` owns node `off + t + m·bdim`
        // of level `l` at slot `(slot_base[l] + m)·bdim + t`, one bank of
        // slots per resident scenario.
        let nl = self.level_offsets.len() - 1;
        let mut slot_base = vec![0usize; nl + 1];
        for l in 0..nl {
            let w = (self.level_offsets[l + 1] - self.level_offsets[l]) as usize;
            slot_base[l + 1] = slot_base[l] + w.div_ceil(bdim);
        }
        let bank = slot_base[nl] * bdim;
        let mut local_j = vec![Complex::ZERO; nm * bank];
        let mut local_v = vec![Complex::ZERO; nm * bank];

        // Backward half, leaf→root: injection fused in, children summed
        // over their contiguous level-order range. Each current is stored
        // to global (the parent phase and the audit read it there) and
        // kept in this thread's local slot for the forward half, along
        // with the pre-update voltage.
        for l in (0..nl).rev() {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            let sb = slot_base[l];
            blk.threads(|t| {
                let mut k = t.tid();
                let mut m = 0usize;
                while k < w {
                    let p = off + k;
                    // One topology read per node, shared by the members.
                    let base_sv = match &self.loads {
                        LoadsRef::Scaled { base: bs, .. } => Some(t.ld(bs, p)),
                        LoadsRef::Explicit(_) => None,
                    };
                    let lo = t.ld(&self.child_lo, p) as usize;
                    let hi = t.ld(&self.child_hi, p) as usize;
                    // Cut membership is two compares against the node's
                    // DFS position (one extra topology read, patched
                    // solves only).
                    let dp = match &self.patch {
                        Some(pr) => t.ld(&pr.dfs_pos, p),
                        None => 0,
                    };
                    let slot = (sb + m) * bdim + t.tid();
                    for (qi, mb) in members.iter().enumerate() {
                        if dp >= mb.cut_lo && dp < mb.cut_hi {
                            continue; // de-energized in this scenario
                        }
                        let base = mb.s_idx * self.n;
                        let g = base + p;
                        let sv = match (&self.loads, base_sv) {
                            (_, Some(b)) => {
                                t.flops(2);
                                b * mb.scale
                            }
                            (LoadsRef::Explicit(s), _) => t.ld(s, g),
                            _ => unreachable!("scaled loads stage base_sv"),
                        };
                        let vv = t.ld_mut(&self.v, g);
                        let mut acc = if sv == Complex::ZERO {
                            Complex::ZERO
                        } else {
                            t.flops(Complex::DIV_FLOPS + 1);
                            (sv / vv).conj()
                        };
                        for c in lo..hi {
                            if c as u32 == mb.cut_pos {
                                continue; // the opened branch carries no current
                            }
                            t.flops(Complex::ADD_FLOPS);
                            acc += t.ld_mut(&self.j, base + c);
                        }
                        t.st(&self.j, g, acc);
                        local_j[qi * bank + slot] = acc;
                        local_v[qi * bank + slot] = vv;
                    }
                    k += bdim;
                    m += 1;
                }
            });
        }

        // Forward half, root→leaf: the ladder update reads the parent's
        // fresh voltage from global (written the previous phase) but takes
        // its own current and previous voltage from the local slots. Each
        // member's residual partial accumulates per thread in the exact
        // per-node order of the unfused sweep.
        let mut partial = vec![0.0f64; nm * bdim];
        let mut partial_min = vec![f64::INFINITY; if self.min_v.is_some() { nm * bdim } else { 0 }];
        for (l, &sb) in slot_base.iter().enumerate().take(nl).skip(1) {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            blk.threads(|t| {
                let tid = t.tid();
                let mut k = tid;
                let mut m = 0usize;
                while k < w {
                    let p = off + k;
                    let parent = t.ld(&self.parent_pos, p) as usize;
                    let zv = t.ld(&self.z, p);
                    let dp = match &self.patch {
                        Some(pr) => t.ld(&pr.dfs_pos, p),
                        None => 0,
                    };
                    let slot = (sb + m) * bdim + tid;
                    for (qi, mb) in members.iter().enumerate() {
                        if dp >= mb.cut_lo && dp < mb.cut_hi {
                            continue; // de-energized: frozen, not folded
                        }
                        let base = mb.s_idx * self.n;
                        let g = base + p;
                        let vp = t.ld_mut(&self.v, base + parent);
                        let jv = local_j[qi * bank + slot];
                        let old = local_v[qi * bank + slot];
                        let zm = if p as u32 == mb.z_pos { mb.z_val } else { zv };
                        let nv = vp - zm * jv;
                        t.flops(Complex::MUL_FLOPS + Complex::ADD_FLOPS + 4);
                        let d = (nv - old).abs();
                        t.st(&self.v, g, nv);
                        t.flops(MaxAbsF64::FLOPS);
                        partial[qi * bdim + tid] =
                            MaxAbsF64::combine(partial[qi * bdim + tid], d);
                        if self.min_v.is_some() {
                            t.flops(2);
                            let slot_min = &mut partial_min[qi * bdim + tid];
                            *slot_min = slot_min.min(nv.abs());
                        }
                    }
                    k += bdim;
                    m += 1;
                }
            });
        }

        // Tree-fold each member's partials and publish its residual
        // (and, for patched solves, its minimum updated `|V|`).
        let sh = blk.shared::<f64>(bdim);
        for (qi, mb) in members.iter().enumerate() {
            let slots = qi * bdim..(qi + 1) * bdim;
            let (max, flops) = (MaxAbsF64::combine, MaxAbsF64::FLOPS);
            tree_fold(blk, &sh, &partial[slots.clone()], max, flops, &self.residuals, mb.s_idx);
            if let Some(min_buf) = &self.min_v {
                tree_fold(blk, &sh, &partial_min[slots], f64::min, 1, min_buf, mb.s_idx);
            }
        }
    }
}

/// Folds one value per thread through shared memory with `combine`
/// (`flops` per step) and has thread 0 store the result at `dst[idx]`.
fn tree_fold(
    blk: &mut BlockScope,
    sh: &Shared<f64>,
    partial: &[f64],
    combine: fn(f64, f64) -> f64,
    flops: u64,
    dst: &GlobalMut<'_, f64>,
    idx: usize,
) {
    blk.threads(|t| {
        t.sts(sh, t.tid(), partial[t.tid()]);
    });
    let mut stride = blk.block_dim() / 2;
    while stride > 0 {
        blk.threads(|t| {
            let tid = t.tid();
            if tid < stride {
                let a = t.lds(sh, tid);
                let c = t.lds(sh, tid + stride);
                t.flops(flops);
                t.sts(sh, tid, combine(a, c));
            }
        });
        stride /= 2;
    }
    blk.threads(|t| {
        if t.tid() == 0 {
            let r = t.lds(sh, 0);
            t.st(dst, idx, r);
        }
    });
}

/// One *no-commit* iteration for the integrity audit: recomputes branch
/// currents and next-iteration voltages into scratch slabs (the resident
/// state is untouched) and writes per-node `|ΔV|`. A scenario at a true
/// fixed point audits at or below its final residual; corrupted state,
/// a premature convergence, or a poisoned stripe audits above tolerance
/// (or NaN) and is routed to the host oracle.
struct AuditKernel<'a> {
    loads: LoadsRef<'a>,
    v: GlobalRef<'a, Complex>,
    j: GlobalRef<'a, Complex>,
    j_audit: GlobalMut<'a, Complex>,
    v_audit: GlobalMut<'a, Complex>,
    delta: GlobalMut<'a, f64>,
    z: GlobalRef<'a, Complex>,
    parent_pos: GlobalRef<'a, u32>,
    child_lo: GlobalRef<'a, u32>,
    child_hi: GlobalRef<'a, u32>,
    /// Patched solves: the audit recomputes under the *same* patched
    /// topology, or every patched scenario would flag suspicious.
    patch: Option<PatchRefs<'a>>,
    level_offsets: &'a [u32],
    n: usize,
}

impl Kernel for AuditKernel<'_> {
    fn name(&self) -> &'static str {
        "tensor_audit"
    }

    fn block(&self, blk: &mut BlockScope) {
        let s_idx = blk.block_idx_y();
        let base = s_idx * self.n;
        let bdim = blk.block_dim();

        let mut member = None;
        blk.threads(|t| {
            if t.tid() == 0 {
                member = Some(Member::read(t, &self.loads, &self.patch, s_idx));
            }
        });
        let mb = member.expect("thread 0 reads the scenario words");

        let nl = self.level_offsets.len() - 1;
        // Backward into the scratch currents.
        for l in (0..nl).rev() {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            blk.threads(|t| {
                let mut k = t.tid();
                while k < w {
                    let p = off + k;
                    if let Some(pr) = &self.patch {
                        let dp = t.ld(&pr.dfs_pos, p);
                        if dp >= mb.cut_lo && dp < mb.cut_hi {
                            k += bdim;
                            continue; // de-energized: no recompute
                        }
                    }
                    let g = base + p;
                    let sv = match &self.loads {
                        LoadsRef::Explicit(s) => t.ld(s, g),
                        LoadsRef::Scaled { base: bs, .. } => {
                            let b = t.ld(bs, p);
                            t.flops(2);
                            b * mb.scale
                        }
                    };
                    let mut acc = if sv == Complex::ZERO {
                        Complex::ZERO
                    } else {
                        let vv = t.ld(&self.v, g);
                        t.flops(Complex::DIV_FLOPS + 1);
                        (sv / vv).conj()
                    };
                    let lo = t.ld(&self.child_lo, p) as usize;
                    let hi = t.ld(&self.child_hi, p) as usize;
                    for c in lo..hi {
                        if c as u32 == mb.cut_pos {
                            continue; // the opened branch carries no current
                        }
                        t.flops(Complex::ADD_FLOPS);
                        acc += t.ld_mut(&self.j_audit, base + c);
                    }
                    t.st(&self.j_audit, g, acc);
                    k += bdim;
                }
            });
        }
        // Forward into the scratch voltages, exactly the ladder update.
        // Each position's delta folds the voltage drift with a relative
        // branch-current cross-check: the recomputed current of a true
        // fixed point agrees with the resident one to O(tol), while a
        // flipped exponent bit shifts it by a factor of two or more —
        // this catches corruption of a frozen scenario's current slab,
        // which no voltage-only audit can see.
        for l in 0..nl {
            let off = self.level_offsets[l] as usize;
            let w = self.level_offsets[l + 1] as usize - off;
            blk.threads(|t| {
                let mut k = t.tid();
                while k < w {
                    let p = off + k;
                    let g = base + p;
                    if let Some(pr) = &self.patch {
                        let dp = t.ld(&pr.dfs_pos, p);
                        if dp >= mb.cut_lo && dp < mb.cut_hi {
                            // De-energized nodes audit clean by
                            // definition; the slab is zero-initialised
                            // but write explicitly for clarity.
                            t.st(&self.delta, g, 0.0);
                            k += bdim;
                            continue;
                        }
                    }
                    let ja = t.ld_mut(&self.j_audit, g);
                    let jr = t.ld(&self.j, g);
                    let denom = ja.abs() + jr.abs();
                    t.flops(10);
                    let jerr = if denom > 1e-300 {
                        let rel = (ja - jr).abs() / denom;
                        // NaN currents are flagged alongside mismatches.
                        if rel > 0.25 || rel.is_nan() {
                            f64::INFINITY
                        } else {
                            0.0
                        }
                    } else {
                        0.0
                    };
                    if l == 0 {
                        let root = t.ld(&self.v, g);
                        t.st(&self.v_audit, g, root);
                        t.st(&self.delta, g, jerr);
                    } else {
                        let parent = t.ld(&self.parent_pos, p) as usize;
                        let vp = t.ld_mut(&self.v_audit, base + parent);
                        let zv0 = t.ld(&self.z, p);
                        let zv = if p as u32 == mb.z_pos { mb.z_val } else { zv0 };
                        let nv = vp - zv * ja;
                        t.flops(Complex::MUL_FLOPS + Complex::ADD_FLOPS + 4);
                        let old = t.ld(&self.v, g);
                        t.st(&self.v_audit, g, nv);
                        t.flops(MaxAbsF64::FLOPS);
                        t.st(&self.delta, g, MaxAbsF64::combine((nv - old).abs(), jerr));
                    }
                    k += bdim;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::c;
    use powergrid::gen::{balanced_binary, chain, random_tree, star, GenSpec};
    use powergrid::ieee::{ieee13, ieee37};
    use powergrid::RadialNetwork;
    use rng::rngs::StdRng;
    use rng::SeedableRng;
    use simt::DeviceProps;

    fn device() -> Device {
        Device::with_workers(DeviceProps::paper_rig(), 2)
    }

    fn solver() -> TensorBatchSolver {
        TensorBatchSolver::new(device())
    }

    fn solve(
        s: &mut TensorBatchSolver,
        net: &RadialNetwork,
        scenarios: &[Vec<Complex>],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        s.solve_arrays(&SolverArrays::new(net), scenarios, cfg)
    }

    fn solve_scaled(
        s: &mut TensorBatchSolver,
        net: &RadialNetwork,
        scales: &[f64],
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        s.try_solve(&SolverArrays::new(net), Scenarios::Scaled(scales), cfg).unwrap()
    }

    fn solve_patched(
        s: &mut TensorBatchSolver,
        a: &SolverArrays,
        dfs: &DfsOrder,
        patches: &[ScenarioPatch],
        warm: Option<&[Complex]>,
        cfg: &SolverConfig,
    ) -> TensorBatchResult {
        s.try_solve(a, Scenarios::Patched { dfs, patches, warm }, cfg).unwrap()
    }

    fn base_loads(net: &RadialNetwork) -> Vec<Complex> {
        net.buses().iter().map(|b| b.load).collect()
    }

    fn scaled_scenarios(net: &RadialNetwork, scales: &[f64]) -> Vec<Vec<Complex>> {
        let base = base_loads(net);
        scales.iter().map(|&sc| base.iter().map(|&s| s * sc).collect()).collect()
    }

    #[test]
    fn shard_ranges_cover_exactly_and_respect_the_floor() {
        for (n, shards, min) in
            [(96, 3, 16), (100, 3, 33), (5, 8, 2), (0, 4, 1), (20_000, 3, 64)]
        {
            let ranges = shard_ranges(n, shards, min);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= shards);
            // Contiguous, ordered, exactly covering 0..n.
            let mut expect = 0usize;
            for r in &ranges {
                assert_eq!(r.start, expect);
                expect = r.end;
            }
            assert_eq!(expect, n, "n={n} shards={shards} min={min}");
            if ranges.len() > 1 {
                assert!(
                    ranges.iter().all(|r| r.len() >= min),
                    "n={n}: every shard clears the floor, got {ranges:?}"
                );
            }
        }
        // Big shards align interior boundaries to the chunk cap.
        let ranges = shard_ranges(3 * MAX_CHUNK_SCENARIOS + 100, 2, 64);
        assert_eq!(ranges[0].end % MAX_CHUNK_SCENARIOS, 0);
    }

    #[test]
    fn matches_serial_per_scenario_on_ieee_feeders() {
        let cfg = SolverConfig::default();
        for net in [ieee13(), ieee37()] {
            let scales = [0.5, 1.0, 1.3];
            let res = solve(&mut solver(), &net, &scaled_scenarios(&net, &scales), &cfg);
            assert!(res.converged(), "{:?}", res.statuses);
            let a = SolverArrays::new(&net);
            for (s, &sc) in scales.iter().enumerate() {
                let mut a2 = a.clone();
                for slot in a2.s.iter_mut() {
                    *slot = *slot * sc;
                }
                let serial = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a2, &cfg);
                assert_eq!(
                    res.per_scenario_iterations[s], serial.iterations,
                    "scenario {s} iteration parity"
                );
                for bus in 0..net.num_buses() {
                    let d = (res.v[s][bus] - serial.v[bus]).abs();
                    assert!(d < 1e-9, "scenario {s} bus {bus} off by {d}");
                }
            }
        }
    }

    #[test]
    fn scaled_mode_matches_explicit_mode_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = random_tree(300, 6, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let scales: Vec<f64> = (0..9).map(|k| 0.55 + 0.1 * k as f64).collect();
        let explicit = solve(&mut solver(), &net, &scaled_scenarios(&net, &scales), &cfg);
        let scaled = solve_scaled(&mut solver(), &net, &scales, &cfg);
        assert!(explicit.converged() && scaled.converged());
        assert_eq!(explicit.per_scenario_iterations, scaled.per_scenario_iterations);
        assert_eq!(explicit.residuals, scaled.residuals);
        for s in 0..scales.len() {
            assert_eq!(explicit.v[s], scaled.v[s], "scenario {s}");
            assert_eq!(explicit.j[s], scaled.j[s], "scenario {s}");
        }
    }

    #[test]
    fn chunked_solve_is_identical_to_unchunked() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = random_tree(150, 5, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let scales: Vec<f64> = (0..23).map(|k| 0.6 + 0.03 * k as f64).collect();
        let whole = solve_scaled(&mut solver(), &net, &scales, &cfg);
        let chunked = solve_scaled(&mut solver().with_chunk_scenarios(4), &net, &scales, &cfg);
        assert_eq!(whole.statuses, chunked.statuses);
        assert_eq!(whole.per_scenario_iterations, chunked.per_scenario_iterations);
        assert_eq!(whole.residuals, chunked.residuals);
        for s in 0..scales.len() {
            assert_eq!(whole.v[s], chunked.v[s], "scenario {s}");
        }
    }

    #[test]
    fn masks_divergent_scenarios_without_perturbing_the_rest() {
        let mut rng = StdRng::seed_from_u64(41);
        let net = random_tree(120, 8, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let healthy = [0.6, 0.9, 1.2];
        let clean = solve(&mut solver(), &net, &scaled_scenarios(&net, &healthy), &cfg);
        assert!(clean.converged(), "{:?}", clean.statuses);

        let mut scenarios = scaled_scenarios(&net, &healthy);
        scenarios.push(base_loads(&net).iter().map(|&s| s * 1e6).collect());
        let mixed = solve(&mut solver(), &net, &scenarios, &cfg);
        for s in 0..3 {
            assert_eq!(mixed.statuses[s], SolveStatus::Converged);
            assert_eq!(mixed.v[s], clean.v[s], "healthy lane {s} perturbed");
            assert_eq!(
                mixed.per_scenario_iterations[s],
                clean.per_scenario_iterations[s]
            );
        }
        assert!(!mixed.statuses[3].is_converged());
        assert!(!mixed.converged());
        assert_eq!(mixed.worst_status(), mixed.statuses[3]);
        // The sick lane froze early — it must not drag the batch loop.
        assert!(
            mixed.per_scenario_iterations[3] < cfg.max_iter,
            "divergence must freeze early, ran {}",
            mixed.per_scenario_iterations[3]
        );
        assert_eq!(mixed.iterations, clean.iterations);
    }

    #[test]
    fn nan_load_is_a_numerical_failure_with_its_freeze_iteration() {
        let mut rng = StdRng::seed_from_u64(43);
        let net = random_tree(60, 8, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let mut sick = base_loads(&net);
        sick[7] = c(f64::NAN, 0.0);
        let res = solve(&mut solver(), &net, &[base_loads(&net), sick], &cfg);
        assert_eq!(res.statuses[0], SolveStatus::Converged);
        match res.statuses[1] {
            SolveStatus::NumericalFailure { at_iteration } => {
                assert_eq!(at_iteration, res.per_scenario_iterations[1]);
                assert!(at_iteration < cfg.max_iter);
            }
            other => panic!("NaN load must be a numerical failure, got {other}"),
        }
    }

    #[test]
    fn stats_only_mode_reports_without_state() {
        let net = ieee37();
        let res = solve_scaled(
            &mut solver().stats_only(),
            &net,
            &[0.8, 1.0, 1.1],
            &SolverConfig::default(),
        );
        assert!(res.converged());
        assert!(res.v.is_empty() && res.j.is_empty());
        assert_eq!(res.per_scenario_iterations.len(), 3);
        assert!(res.scenarios_per_sec > 0.0);
    }

    #[test]
    fn launches_are_one_per_iteration_not_per_level() {
        let mut rng = StdRng::seed_from_u64(17);
        // A deep chain would cost hundreds of launches per iteration in
        // a level-synchronous sweep.
        let net = chain(512, &GenSpec::default(), &mut rng);
        let mut s = solver();
        let res = solve_scaled(&mut s, &net, &[0.9, 1.0, 1.1, 1.2], &SolverConfig::default());
        assert!(res.converged());
        let kernels = s.device().timeline().breakdown().kernels;
        // 1 fused sweep/iteration + 2 fills; freezing scenarios never add
        // launches.
        assert!(
            kernels as u32 <= res.iterations + 2,
            "expected fused launches, got {kernels} for {} iterations",
            res.iterations
        );
    }

    #[test]
    fn star_and_binary_topologies_converge_and_match_serial() {
        let cfg = SolverConfig::default();
        let spec = GenSpec::default();
        let mut rng = StdRng::seed_from_u64(23);
        for net in [balanced_binary(255, &spec, &mut rng), star(200, &spec, &mut rng)] {
            let res = solve_scaled(&mut solver(), &net, &[1.0], &cfg);
            assert!(res.converged());
            let serial =
                SerialSolver::new(HostProps::paper_rig()).solve(&net, &cfg);
            for bus in 0..net.num_buses() {
                let d = (res.v[0][bus] - serial.v[bus]).abs();
                assert!(d < 1e-9, "bus {bus} off by {d}");
            }
        }
    }

    #[test]
    fn invalid_config_short_circuits() {
        let net = ieee13();
        let cfg = SolverConfig { max_iter: 0, ..SolverConfig::default() };
        let res = solve_scaled(&mut solver(), &net, &[1.0, 2.0], &cfg);
        assert_eq!(res.statuses, vec![SolveStatus::InvalidConfig; 2]);
        assert_eq!(res.iterations, 0);
        assert_eq!(res.scenarios_per_sec, 0.0);
    }

    #[test]
    fn single_bus_network_converges_immediately() {
        let mut b = powergrid::NetworkBuilder::new(c(240.0, 0.0));
        b.add_bus(Complex::ZERO);
        let net = b.build().unwrap();
        let res = solve_scaled(&mut solver(), &net, &[1.0], &SolverConfig::default());
        assert!(res.converged());
        assert_eq!(res.v[0][0], c(240.0, 0.0));
        assert_eq!(res.per_scenario_iterations, vec![1]);
    }

    #[test]
    fn outage_patch_matches_serial_with_subtree_masked() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let patches =
            [ScenarioPatch::outage(6), ScenarioPatch::base(), ScenarioPatch::outage(9)];
        let res = solve_patched(&mut solver(), &a, &dfs, &patches, None, &cfg);
        assert!(res.converged(), "{:?}", res.statuses);
        assert_eq!(res.min_v.len(), 3, "patched solves report min |V|");

        let serial = SerialSolver::new(HostProps::paper_rig());
        let plan = PatchPlan::build(&a, &dfs, &patches);
        for s in 0..patches.len() {
            let loads = Loads::Scaled(&plan.scales);
            let sref = host_solve(&serial, &a, &loads, Some(&plan), s, &cfg, None);
            assert_eq!(
                res.per_scenario_iterations[s], sref.iterations,
                "scenario {s} iteration parity with the masked serial solve"
            );
            let mut dead = vec![false; net.num_buses()];
            for &b in &plan.isolated[s] {
                dead[b as usize] = true;
            }
            for (bus, &is_dead) in dead.iter().enumerate() {
                if is_dead {
                    assert_eq!(res.v[s][bus], Complex::ZERO, "scenario {s} bus {bus}");
                    assert_eq!(res.j[s][bus], Complex::ZERO, "scenario {s} bus {bus}");
                } else {
                    let dv = (res.v[s][bus] - sref.v[bus]).abs();
                    assert!(dv < 1e-9, "scenario {s} bus {bus} off by {dv}");
                }
            }
            let want = host_min_v(&sref.v, plan.root, &plan.isolated[s]);
            assert!(
                (res.min_v[s] - want).abs() < 1e-9,
                "scenario {s} min_v {} vs host fold {want}",
                res.min_v[s]
            );
        }

        // The base-case lane is bitwise the scaled-mode solve.
        let scaled = solve_scaled(&mut solver(), &net, &[1.0], &cfg);
        assert_eq!(res.v[1], scaled.v[0]);
        assert_eq!(res.per_scenario_iterations[1], scaled.per_scenario_iterations[0]);
    }

    #[test]
    fn impedance_override_patch_matches_a_rebuilt_network() {
        let net = ieee37();
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let zb = c(1.9, 0.8);
        let patch =
            ScenarioPatch { z_override: Some((5, zb)), ..ScenarioPatch::default() };
        let res = solve_patched(&mut solver(), &a, &dfs, &[patch], None, &cfg);
        assert!(res.converged());

        // Reference: rebuild the network with that branch retuned.
        let mut b = powergrid::NetworkBuilder::new(net.source_voltage());
        for bus in net.buses() {
            b.add_bus(bus.load);
        }
        for br in net.branches() {
            b.connect(br.from, br.to, if br.to == 5 { zb } else { br.z });
        }
        let rebuilt = b.build().unwrap();
        let sref = SerialSolver::new(HostProps::paper_rig()).solve(&rebuilt, &cfg);
        for bus in 0..net.num_buses() {
            let dv = (res.v[0][bus] - sref.v[bus]).abs();
            assert!(dv < 1e-9, "bus {bus} off by {dv}");
        }
    }

    #[test]
    fn warm_start_seeds_every_lane_and_never_costs_iterations() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = random_tree(400, 6, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let base = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, &cfg);
        assert_eq!(base.status, SolveStatus::Converged);

        let patches = [
            ScenarioPatch { scale: 1.02, ..ScenarioPatch::default() },
            ScenarioPatch::outage(7),
            ScenarioPatch::outage(200),
        ];
        let cold = solve_patched(&mut solver(), &a, &dfs, &patches, None, &cfg);
        let warm = solve_patched(&mut solver(), &a, &dfs, &patches, Some(&base.v), &cfg);
        assert!(cold.converged() && warm.converged());
        for s in 0..patches.len() {
            assert!(
                warm.per_scenario_iterations[s] <= cold.per_scenario_iterations[s],
                "scenario {s}: warm {} > cold {}",
                warm.per_scenario_iterations[s],
                cold.per_scenario_iterations[s]
            );
            // Both iterates stop within `tol` of the same fixed point,
            // along different paths — they agree to O(tol), not exactly.
            let tol = cfg.tol_volts(a.source.abs());
            for bus in 0..net.num_buses() {
                let dv = (warm.v[s][bus] - cold.v[s][bus]).abs();
                assert!(dv < 2.0 * tol, "scenario {s} bus {bus}: fixed points differ by {dv}");
            }
        }
        // A near-base reload converges strictly faster from the profile.
        assert!(
            warm.per_scenario_iterations[0] < cold.per_scenario_iterations[0],
            "warm start must beat the flat start near the base case"
        );
    }

    #[test]
    fn patched_chunking_and_stats_only_agree_with_the_whole_batch() {
        let mut rng = StdRng::seed_from_u64(29);
        let net = random_tree(180, 5, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();
        let a = SolverArrays::new(&net);
        let dfs = DfsOrder::new(&net);
        let patches: Vec<ScenarioPatch> =
            (1..20).map(ScenarioPatch::outage).collect();
        let whole = solve_patched(&mut solver(), &a, &dfs, &patches, None, &cfg);
        let mut chunked_solver = solver().with_chunk_scenarios(3);
        let chunked = solve_patched(&mut chunked_solver, &a, &dfs, &patches, None, &cfg);
        assert_eq!(whole.statuses, chunked.statuses);
        assert_eq!(whole.per_scenario_iterations, chunked.per_scenario_iterations);
        assert_eq!(whole.min_v, chunked.min_v);
        let stats = solve_patched(&mut solver().stats_only(), &a, &dfs, &patches, None, &cfg);
        assert!(stats.v.is_empty());
        assert_eq!(stats.min_v, whole.min_v);
        assert_eq!(stats.per_scenario_iterations, whole.per_scenario_iterations);
    }

    #[test]
    #[should_panic(expected = "root")]
    fn outage_of_the_root_is_rejected() {
        let net = ieee13();
        let (a, dfs) = (SolverArrays::new(&net), DfsOrder::new(&net));
        let patches = [ScenarioPatch::outage(0)];
        solve_patched(&mut solver(), &a, &dfs, &patches, None, &SolverConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one scenario")]
    fn empty_batch_rejected() {
        solve(&mut solver(), &ieee13(), &[], &SolverConfig::default());
    }

    #[test]
    #[should_panic(expected = "scenario 1 has")]
    fn wrong_length_scenario_rejected() {
        let net = ieee13();
        let bad = vec![Complex::ZERO; 5];
        solve(&mut solver(), &net, &[base_loads(&net), bad], &SolverConfig::default());
    }

    #[test]
    fn batching_amortises_launches_on_generated_trees() {
        let mut rng = StdRng::seed_from_u64(77);
        let net = balanced_binary(1023, &GenSpec::default(), &mut rng);
        let cfg = SolverConfig::default();

        // 16 scenarios in one batch…
        let scales: Vec<f64> = (0..16).map(|k| 0.5 + 0.05 * k as f64).collect();
        let scenarios = scaled_scenarios(&net, &scales);
        let r16 = solve(&mut solver(), &net, &scenarios, &cfg);
        assert!(r16.converged());

        // …versus one scenario costed 16 times.
        let r1 = solve(&mut solver(), &net, &scenarios[..1], &cfg);
        let per_scenario_batched = r16.timing.total_us() / 16.0;
        let per_scenario_single = r1.timing.total_us();
        assert!(
            per_scenario_batched < 0.4 * per_scenario_single,
            "batching must amortise fixed costs: {per_scenario_batched:.1} vs {per_scenario_single:.1} µs/scenario"
        );
    }

    #[test]
    fn throughput_headline_is_positive_and_finite() {
        let net = ieee37();
        let res = solve_scaled(&mut solver(), &net, &[0.9, 1.0], &SolverConfig::default());
        assert!(res.scenarios_per_sec.is_finite() && res.scenarios_per_sec > 0.0);
        let expect = 2.0 / (res.timing.total_us() * 1e-6);
        assert!((res.scenarios_per_sec - expect).abs() < 1e-6 * expect);
    }

    #[test]
    fn outer_session_matches_the_one_shot_batch_and_reads_back_probes() {
        let mut rng = StdRng::seed_from_u64(11);
        let net = balanced_binary(255, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let scenarios = scaled_scenarios(&net, &[0.7, 1.0, 1.3]);
        let probes = vec![1usize, 57, 200, 254];

        let oneshot = solver().solve_arrays(&arrays, &scenarios, &cfg);
        assert!(oneshot.converged());

        let mut tbs = solver();
        let mut session = tbs.outer_session(&arrays, &scenarios, &probes, None, &cfg);
        let round = session.solve_round(&cfg);
        assert!(round.statuses.iter().all(|s| s.is_converged()), "{:?}", round.statuses);
        let report = session.finish(&cfg);
        assert!(!session.degraded);
        assert_eq!(session.retries.spent, 0);
        assert!(report.total_us > 0.0);

        // One round is the one-shot's iteration loop over the same loads
        // from the same start, so it lands on the same state bit for bit.
        assert_eq!(round.statuses, oneshot.statuses);
        assert_eq!(round.iterations, oneshot.per_scenario_iterations);
        for s in 0..scenarios.len() {
            assert_eq!(report.v[s], oneshot.v[s], "scenario {s}");
            // The probe readback is the final state at those buses.
            for (k, &bus) in probes.iter().enumerate() {
                assert_eq!(round.probe_v[s][k], report.v[s][bus], "scenario {s} probe {bus}");
            }
        }
    }

    #[test]
    fn outer_session_sparse_updates_and_retirement_track_serial_resolves() {
        let mut rng = StdRng::seed_from_u64(13);
        let net = balanced_binary(127, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let mut scenarios = scaled_scenarios(&net, &[0.9, 1.1]);
        let v0 = net.source_voltage().abs();

        let mut tbs = solver();
        let mut session = tbs.outer_session(&arrays, &scenarios, &[64], None, &cfg);
        let first = session.solve_round(&cfg);
        assert!(first.statuses.iter().all(|s| s.is_converged()));

        // Scenario 0 retires at its round-1 state; scenario 1 takes a
        // sparse load bump and re-solves warm.
        session.retire(0);
        scenarios[1][30] = scenarios[1][30] * 1.5 + c(2_000.0, 500.0);
        session.update_loads(vec![(1, scenarios[1].clone())]);
        let second = session.solve_round(&cfg);
        assert_eq!(second.iterations[0], 0, "retired scenario must not iterate");
        assert!(second.statuses[1].is_converged());
        let report = session.finish(&cfg);

        // Both scenarios land on the serial fixed points of their own
        // final loads (within the band both solvers stop inside).
        let serial = SerialSolver::new(HostProps::paper_rig());
        for (s, loads) in scenarios.iter().enumerate() {
            let mut a2 = arrays.clone();
            for (p, slot) in a2.s.iter_mut().enumerate() {
                *slot = loads[arrays.levels.order[p] as usize];
            }
            let want = serial.solve_arrays(&a2, &cfg);
            assert!(want.converged());
            for (bus, (a, w)) in report.v[s].iter().zip(&want.v).enumerate() {
                assert!(
                    (*a - *w).abs() <= 1e-5 * v0,
                    "scenario {s} bus {bus}: {a:?} vs serial {w:?}"
                );
            }
        }
    }

    #[test]
    fn outer_session_absorbs_faults_and_still_lands_on_the_fixed_point() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = balanced_binary(127, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let scenarios = scaled_scenarios(&net, &[0.8, 1.0, 1.2]);
        let v0 = net.source_voltage().abs();

        let serial = SerialSolver::new(HostProps::paper_rig());
        for seed in 0..6u64 {
            let mut dev = device();
            dev.arm_faults(simt::FaultPlan::seeded(0x5E55 + seed, 0.05));
            let mut tbs = TensorBatchSolver::new(dev);
            let mut session = tbs.outer_session(&arrays, &scenarios, &[1], None, &cfg);
            let round = session.solve_round(&cfg);
            assert!(
                round.statuses.iter().all(|s| s.is_converged()),
                "seed {seed}: {:?}",
                round.statuses
            );
            let report = session.finish(&cfg);
            // Whether the round survived on-device, rebuilt, or fell
            // back to the host, the answer is the same fixed point.
            for (s, loads) in scenarios.iter().enumerate() {
                let mut a2 = arrays.clone();
                for (p, slot) in a2.s.iter_mut().enumerate() {
                    *slot = loads[arrays.levels.order[p] as usize];
                }
                let want = serial.solve_arrays(&a2, &cfg);
                for (bus, (a, w)) in report.v[s].iter().zip(&want.v).enumerate() {
                    assert!(
                        (*a - *w).abs() <= 1e-5 * v0,
                        "seed {seed} scenario {s} bus {bus}: {a:?} vs {w:?} \
                         (degraded {}, retries {})",
                        session.degraded,
                        session.retries.spent
                    );
                }
            }
        }
    }

    /// One scripted exponent flip (bit 61 of word 0) per run, swept over
    /// the first eight live buffers at each of the first 48 device ops:
    /// wherever it lands — topology, load slab, iterate, or the audit's
    /// own scratch — and whenever, no scenario may come back converged
    /// but off the serial fixed point. Covers one session round plus
    /// `finish`, and the one-shot batch.
    #[test]
    fn scripted_bit_flips_never_leak_out_as_converged_answers() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = balanced_binary(63, &GenSpec::default(), &mut rng);
        let arrays = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let scenarios = scaled_scenarios(&net, &[0.8, 1.0, 1.2]);
        let serial = SerialSolver::new(HostProps::paper_rig());
        let want: Vec<Vec<Complex>> = scenarios
            .iter()
            .map(|loads| {
                let mut a2 = arrays.clone();
                for (p, slot) in a2.s.iter_mut().enumerate() {
                    *slot = loads[arrays.levels.order[p] as usize];
                }
                serial.solve_arrays(&a2, &cfg).v
            })
            .collect();
        let band = 1e-3 * net.source_voltage().abs();

        let mut leaks = Vec::new();
        let mut check =
            |path: &str, op: u64, buffer: u64, statuses: &[SolveStatus], v: &[Vec<Complex>]| {
                for (s, want) in want.iter().enumerate() {
                    let off =
                        v[s].iter().zip(want).map(|(a, b)| (*a - *b).abs()).fold(0.0, f64::max);
                    if statuses[s].is_converged() && (off > band || off.is_nan()) {
                        leaks.push(format!(
                            "{path}: op {op} buffer {buffer} scenario {s} off by {off:.3e} V"
                        ));
                    }
                }
            };
        for op in 0..48u64 {
            for buffer in 0..8u64 {
                let armed = || {
                    let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
                    let flip = simt::FaultKind::BufferBitFlip { buffer, word: 0, bit: 61 };
                    dev.arm_faults(simt::FaultPlan::scripted([(op, flip)]));
                    TensorBatchSolver::new(dev)
                };
                let mut tbs = armed();
                let mut session = tbs.outer_session(&arrays, &scenarios, &[1], None, &cfg);
                let round = session.solve_round(&cfg);
                let report = session.finish(&cfg);
                check("session", op, buffer, &round.statuses, &report.v);

                let res =
                    armed().try_solve(&arrays, Scenarios::Explicit(&scenarios), &cfg).unwrap();
                check("one-shot", op, buffer, &res.statuses, &res.v);
            }
        }
        assert!(
            leaks.is_empty(),
            "{} converged answers off the fixed point:\n{}",
            leaks.len(),
            leaks.join("\n")
        );
    }
}
