//! Tensor-batched power flow: scenario-major SoA state, fused
//! (level × batch) kernels, one launch per iteration of a batch (and one
//! launch looping over the iterations of a lone scenario).
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
//! Every scenario owns a [`crate::ConvergenceMonitor`]. The moment a scenario
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
//! Each chunk of a one-shot batch (so every N-1 screen), each round of
//! the outer-loop session behind [`crate::solve_dg_batch`] and the fused
//! route of a single solve is one [`Chunk`]: a session of one lane per
//! scenario run by `recovery::drive`, the device loop of every solve,
//! with its checkpoints, rollbacks, certification and [`FaultReport`]
//! (see [`Chunk`] and `crate::recovery`). A setup fault or a caught
//! kernel panic rebuilds the chunk within
//! [`SolverConfig::max_recoveries`]; a lost device or a spent budget
//! degrades the rest of the batch (or the session) to serial solves, as
//! it does a scenario a faulted chunk leaves unvouched. A faulted chunk's
//! `min |V|` comes from its vouched V, and an armed session answers from
//! each scenario's last certified V. With no fault plan armed a batch
//! issues only its sweeps' own device operations.
//!
//! Every chunk uploads its topology with its mask and scale words (and a
//! lone scenario's warm start) as one packed copy, and leaves a flat
//! start to its first sweep, which reads no voltage: no fill launch
//! precedes a solve.
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
use std::time::Instant;

use numc::Complex;
use powergrid::DfsOrder;
use primitives::ops::{MaxAbsF64, ScanOp};
use primitives::try_fill;
use simt::{
    pod_bytes, BlockScope, Device, DeviceBuffer, DeviceCopy, DeviceError, DeviceProps, DtohPart,
    GlobalMut, GlobalRef, HostProps, HtodPart, Kernel, LaunchConfig, Shared, ThreadCtx,
};
use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::obs::Obs;
use crate::recovery::{
    drive, guarded, setup_abort, upgraded, DriveAbort, Policy, RetryBudget, SessionClock,
    SweepSession, Sweeps,
};
use crate::report::{FaultReport, PhaseTimes, Timing};
use crate::serial::SerialSolver;
use crate::status::{SolveStatus, SureContinue};

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
#[derive(Clone, Copy)]
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
    /// internally — each chunk is one `recovery::drive` session, restarted
    /// within [`SolverConfig::max_recoveries`], and the rest of the batch
    /// degrades to serial solves past it — so this never returns `Err`;
    /// the `Result` keeps call sites stable. Batch-shape violations panic
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

    /// The [`Scenarios::Explicit`] form of
    /// [`TensorBatchSolver::try_solve`].
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
    /// Each round is one `recovery::drive` session of the resident chunk.
    /// A setup fault rebuilds the chunk with its iterate cold — the fixed
    /// point does not depend on the start, so only modeled time is lost.
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
            mirror: Mirror {
                a,
                probes: probes.to_vec(),
                loads: loads.to_vec(),
                warm: warm.map(<[Complex]>::to_vec),
            },
            retired: vec![false; nb],
            statuses: vec![SolveStatus::MaxIterations; nb],
            host_v: vec![None; nb],
            resident: None,
            degraded: false,
            retries: RetryBudget::new(cfg.max_recoveries),
            obs,
            timing: Timing::default(),
        };
        session.on_device(|_, res, _, _, _, _| Ok(((), res)));
        session
    }

    /// Solves every scenario of `loads` chunk by chunk, each from `warm`
    /// (by bus id) or flat, each chunk one `recovery::drive` session
    /// under `retried`; past it the rest of the batch degrades.
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
        let (n, keep) = (a.len(), self.keep_state);
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
                out.v = vec![vec![a.source; n]; nb];
                out.j = vec![vec![Complex::ZERO; n]; nb];
            }
            return out;
        }

        let armed = dev.fault_plan().is_some();
        let chunk_cap = self.chunk_cap.min(nb);
        let policy = Policy { checkpointing: armed, cancel: None, obs, wall0 };
        let output = Output::Batch { keep };
        let mut report = FaultReport::default();
        let mut degraded = false;
        // The topology uploads with the first chunk and stays resident; a
        // fault drops it with its chunk, and the retry re-uploads it.
        let mut topo = None;

        let mut chunk_start = 0usize;
        while chunk_start < nb {
            let range = chunk_start..(chunk_start + chunk_cap).min(nb);
            let chunk_t0 = out.timing.phases.total_us();
            let (faults0, mut rep) = (dev.fault_log().len(), FaultReport::default());
            let mut budget = RetryBudget::new(cfg.max_recoveries);
            let driven = (!degraded).then(|| {
                retried(dev, &mut rep, &mut budget, &mut out.timing, |dev, rep, budget, t| {
                    let t0 = t.phases.total_us();
                    let r = range.clone();
                    let res = Resident::build(dev, a, topo.take(), &loads, plan, r, warm, &[], 1, t)
                        .map_err(|e| setup_abort(e, rep, budget))?;
                    let clock = SessionClock::resume(t, t0, obs.clone());
                    let mut chunk = Chunk::new(dev, res, loads, warm, output, clock);
                    let done = drive(&mut chunk, cfg, &policy, rep, budget)?;
                    *t = done.timing;
                    Ok((done, chunk.min_v, chunk.res.topo))
                })
            });
            rep.backends.push("tensor-gpu".to_string());
            let faulted = dev.fault_log().len() > faults0;
            let serial = SerialSolver::new(HostProps::paper_rig());
            let host_solve = |out: &mut TensorBatchResult, s: usize| {
                let res = serial.solve_warm(&host_arrays(a, &loads, plan, s).0, cfg, warm);
                out.absorb_serial(s, res, plan);
            };
            match driven.flatten() {
                Some((done, min_v, kept)) => {
                    topo = Some(kept);
                    for (ls, s) in range.clone().enumerate() {
                        if done.unvouched[ls] {
                            host_solve(&mut out, s);
                            continue;
                        }
                        out.per_scenario_iterations[s] = done.iterations[ls];
                        out.statuses[s] = done.statuses[ls];
                        out.residuals[s] = done.residuals[ls];
                        let stripe = |x: &[Complex]| a.levels.unpermute(&x[ls * n..(ls + 1) * n]);
                        if let Some(plan) = plan {
                            // No check reads a lane's `min |V|` slot: a
                            // faulted chunk's comes from its vouched V.
                            out.min_v[s] = if faulted {
                                host_min_v(&stripe(&done.v_pos), plan.root, &plan.isolated[s])
                            } else {
                                min_v[ls]
                            };
                        }
                        if keep {
                            (out.v[s], out.j[s]) = (stripe(&done.v_pos), stripe(&done.j_pos));
                            out.zero_isolated(s, plan);
                        }
                    }
                }
                None => {
                    degraded = true;
                    rep.backends.push("cpu-serial".to_string());
                    let t0 = out.timing.phases.total_us();
                    for s in range.clone() {
                        host_solve(&mut out, s);
                    }
                    obs.phase("fallback", t0, out.timing.phases.total_us());
                }
            }
            rep.faults_injected = (dev.fault_log().len() - faults0) as u32;
            for s in range.clone() {
                out.statuses[s] = upgraded(out.statuses[s], &rep);
            }
            let chunk_t1 = out.timing.phases.total_us();
            obs.batch_chunk(chunk_start / chunk_cap, range.len(), chunk_t0, chunk_t1);
            report.accumulate(&rep);
            // Degradation is for good: the last chunk's backends are the
            // batch's.
            report.backends = rep.backends;
            chunk_start = range.end;
        }

        out.timing.wall_us = wall0.elapsed().as_secs_f64() * 1e6;
        out.scenarios_per_sec = scenarios_per_sec(nb, &out.timing);
        obs.batch_summary(nb, out.scenarios_per_sec);
        let faulted = report.faults_injected > 0 || report.retries > 0;
        out.fault_report = (armed || faulted).then_some(report);
        out.iterations = out.per_scenario_iterations.iter().copied().max().unwrap_or(0);
        out.residual = out.residuals.iter().fold(0.0f64, |acc, &r| MaxAbsF64::combine(acc, r));
        out
    }
}

/// Upper bound on the modeled µs of a single solve's [`Chunk`] launch of one
/// sweep: the launch overhead plus the sweep's latency chain. A launch of
/// `k` sweeps is bounded by the overhead plus `k` times the rest, which
/// is how the session fits its launches into a deadline and how
/// `crate::GpuSolver`'s route prices a fused iteration. `shape` is the
/// route's level table: per level, root first, its width and its widest
/// node's child count.
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
/// per level and direction plus the residual fold. The scenario words
/// are read once per launch, so each later sweep costs less than this.
pub(crate) fn single_iteration_bound_us(props: &DeviceProps, shape: &[(usize, usize)]) -> f64 {
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
    props.launch_overhead_us
        + (chain as f64 * props.mem_latency_cycles + phases as f64 * props.barrier_cycles)
            / props.cycles_per_us()
}

impl TensorBatchResult {
    /// Replaces scenario `s` with a host solve, charged to teardown. In
    /// patched mode the energized `min |V|` is computed host-side,
    /// matching the device convention.
    fn absorb_serial(
        &mut self,
        s: usize,
        res: crate::report::SolveResult,
        patches: Option<&PatchPlan>,
    ) {
        if let Some(plan) = patches {
            self.min_v[s] = host_min_v(&res.v, plan.root, &plan.isolated[s]);
        }
        self.per_scenario_iterations[s] = res.iterations;
        self.residuals[s] = res.residual;
        self.statuses[s] = res.status;
        self.timing.phases.teardown_us += res.timing.total_us();
        if !self.v.is_empty() {
            (self.v[s], self.j[s]) = (res.v, res.j);
            self.zero_isolated(s, patches);
        }
    }

    /// De-energized buses of scenario `s` report dead (`V = J = 0`), not
    /// their stale initial values.
    fn zero_isolated(&mut self, s: usize, patches: Option<&PatchPlan>) {
        for &bus in patches.map_or(&[][..], |plan| plan.isolated[s].as_slice()) {
            self.v[s][bus as usize] = Complex::ZERO;
            self.j[s][bus as usize] = Complex::ZERO;
        }
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
    /// Allocates the topology and uploads it, with the chunk's own
    /// members `extra` (its mask and scale words), as one checked packed
    /// copy: one PCIe transaction however many buffers.
    fn upload(
        dev: &mut Device,
        a: &SolverArrays,
        patches: Option<&PatchPlan>,
        extra: Vec<HtodPart<'_>>,
    ) -> Result<Self, DeviceError> {
        let n = a.len();
        let mut topo = Topology {
            z: dev.try_alloc(n)?,
            parent_pos: dev.try_alloc(n)?,
            child_lo: dev.try_alloc(n)?,
            child_hi: dev.try_alloc(n)?,
            base_s: dev.try_alloc(n)?,
            dfs_pos: patches.map(|_| dev.try_alloc(n)).transpose()?,
        };
        dev.try_htod_packed_checked(&mut topo.parts(a, patches, extra))?;
        Ok(topo)
    }

    /// Every static buffer with its host truth, followed by `extra`: the
    /// members of an upload, or of a rollback's re-upload (which heals
    /// resident corruption).
    fn parts<'p>(
        &'p mut self,
        a: &'p SolverArrays,
        patches: Option<&'p PatchPlan>,
        extra: Vec<HtodPart<'p>>,
    ) -> Vec<HtodPart<'p>> {
        let mut parts = vec![
            HtodPart::new(&mut self.z, &a.z),
            HtodPart::new(&mut self.parent_pos, &a.parent_pos),
            HtodPart::new(&mut self.child_lo, &a.child_lo),
            HtodPart::new(&mut self.child_hi, &a.child_hi),
            HtodPart::new(&mut self.base_s, &a.s),
        ];
        if let (Some(buf), Some(plan)) = (&mut self.dfs_pos, patches) {
            parts.push(HtodPart::new(buf, &plan.dfs_pos));
        }
        parts.extend(extra);
        parts
    }

    /// Reads every static buffer back, with `extra`, in one packed read
    /// and compares the statics byte for byte against the host truth
    /// (certification's first line of defence); the caller compares
    /// `extra`.
    fn verify(
        &self,
        dev: &mut Device,
        a: &SolverArrays,
        patches: Option<&PatchPlan>,
        extra: Vec<DtohPart<'_>>,
    ) -> Result<bool, DeviceError> {
        let (mut z, mut parent_pos, mut child_lo, mut child_hi, mut base_s, mut dfs_pos) =
            Default::default();
        let mut parts = vec![
            DtohPart::new(&self.z, &mut z),
            DtohPart::new(&self.parent_pos, &mut parent_pos),
            DtohPart::new(&self.child_lo, &mut child_lo),
            DtohPart::new(&self.child_hi, &mut child_hi),
            DtohPart::new(&self.base_s, &mut base_s),
        ];
        if let Some(buf) = &self.dfs_pos {
            parts.push(DtohPart::new(buf, &mut dfs_pos));
        }
        parts.extend(extra);
        dev.try_dtoh_packed(&mut parts)?;
        drop(parts);
        Ok(pod_bytes(&z) == pod_bytes(&a.z)
            && parent_pos == a.parent_pos
            && child_lo == a.child_lo
            && child_hi == a.child_hi
            && pod_bytes(&base_s) == pod_bytes(&a.s)
            && match (&self.dfs_pos, patches) {
                (Some(_), Some(plan)) => dfs_pos == plan.dfs_pos,
                _ => true,
            })
    }
}

/// Scenario `s`'s arrays in position space, as the host sees them — its
/// loads and, under a patch plan, its outage and impedance override —
/// and its de-energized positions (empty when unpatched). The serial
/// solve of the degraded path runs over them, and a chunk's
/// certification sweeps them.
fn host_arrays(
    a: &SolverArrays,
    loads: &Loads<'_>,
    patches: Option<&PatchPlan>,
    s: usize,
) -> (SolverArrays, Vec<bool>) {
    let mut a2 = a.clone();
    match loads {
        Loads::Explicit(sc) | Loads::Deltas(sc) => a2.s = a.levels.permute(&sc[s]),
        Loads::Scaled(scales) => {
            for slot in a2.s.iter_mut() {
                *slot = *slot * scales[s];
            }
        }
    }
    let mut dead = Vec::new();
    if let Some(plan) = patches {
        // An outage leaves the branch as an open switch: the subtree's
        // loads go to zero (so its currents vanish) and its buses are
        // masked on the way out; the serial sweep needs no other change.
        dead = vec![false; a.len()];
        for &bus in &plan.isolated[s] {
            let p = a.levels.pos_of[bus as usize] as usize;
            (a2.s[p], dead[p]) = (Complex::ZERO, true);
        }
        if plan.z_pos[s] != u32::MAX {
            a2.z[plan.z_pos[s] as usize] = plan.z_val[s];
        }
    }
    (a2, dead)
}

/// Full by-bus load vectors of a scenario range in the position-major
/// slab layout (`g(s, p) = s·n + p`).
fn position_slab(a: &SolverArrays, scenarios: &[Vec<Complex>]) -> Vec<Complex> {
    scenarios.iter().flat_map(|sc| a.levels.permute(sc)).collect()
}

/// Runs `op` on the batch's device under `recovery::guarded` until it
/// completes: a restart (a setup fault or a caught kernel panic) retries
/// within the budget, and an attempt that did not complete leaves the
/// accounts `t` as it found them plus its device time, charged to setup.
/// `None` once the device is lost or the budget spent: degrade.
fn retried<T>(
    dev: &mut Device,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
    t: &mut Timing,
    mut op: impl FnMut(&mut Device, &mut FaultReport, &mut RetryBudget, &mut Timing) -> Attempted<T>,
) -> Option<T> {
    loop {
        let (mark, mut tt) = (dev.timeline().mark(), *t);
        match guarded(dev, report, budget, |dev, rep, budget| op(dev, rep, budget, &mut tt)) {
            Ok(out) => {
                *t = tt;
                return Some(out);
            }
            Err(abort) => {
                t.phases.setup_us += dev.timeline().breakdown_since(mark).total_us();
                if !matches!(abort, DriveAbort::Restart) {
                    return None;
                }
            }
        }
    }
}

/// What one device attempt of a batch or a session ends with.
type Attempted<T> = Result<T, DriveAbort>;

/// The phase a group of device ops is charged to ([`charge`]).
const SETUP: fn(&mut PhaseTimes) -> &mut f64 = |p| &mut p.setup_us;
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

/// The device buffers of one scenario chunk: the shared topology, the
/// chunk's loads and patch words, and the state every iteration reads
/// and writes. A one-shot batch builds one per chunk, an outer session
/// keeps one across rounds, and a single solve's fused route holds one
/// of one scenario; a [`Chunk`] drives it.
struct Resident<'a> {
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
    /// Residual slots: sweep `i` of a launch writes scenario `s`'s at
    /// `i·nb + s`.
    res: DeviceBuffer<f64>,
    /// The iterate is the flat start, still to be written by the next
    /// sweep (which reads no voltage).
    flat: bool,
    /// Probe positions, on the host and on the device, and the gathered
    /// `nb·np` voltages (sessions).
    probes: Option<(Vec<u32>, DeviceBuffer<u32>, DeviceBuffer<Complex>)>,
    /// Under an armed plan, the state the last outer round ended
    /// certified with (position order): the next round's start.
    start: Option<Vec<Complex>>,
    /// The device's fault count when the state was last known clean.
    faults_base: usize,
}

impl<'a> Resident<'a> {
    /// Uploads the topology (unless `topo` carries it over) in one checked
    /// packed copy with the chunk's mask and scale words — and a lone
    /// scenario's warm start — then its loads and patch words, and seeds
    /// the iterate from `warm` (by bus id, replicated device-side for a
    /// batch) or leaves the flat start to the first sweep. The residual
    /// buffer holds `max_sweeps` slots per scenario, one per sweep a
    /// launch may run. Setup time.
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
        max_sweeps: usize,
        t: &mut Timing,
    ) -> Result<Self, DeviceError> {
        let (n, nb) = (a.len(), range.len());
        let per_scenario = LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK);
        let faults_base = dev.fault_log().len();
        charge(dev, t, SETUP, |dev| {
            let live = vec![1; nb];
            let mut mask = dev.try_alloc::<u32>(nb)?;
            let mut scales = match loads {
                Loads::Scaled(sc) => Some((dev.try_alloc::<f64>(nb)?, &sc[range.clone()])),
                _ => None,
            };
            let mut v = dev.try_alloc::<Complex>(nb * n)?;
            let warm = warm.map(|profile| a.levels.permute(profile));
            let mut extra = vec![HtodPart::new(&mut mask, &live)];
            if let Some((buf, sc)) = &mut scales {
                extra.push(HtodPart::new(buf, sc));
            }
            // One scenario's warm start is its whole iterate: it rides
            // along.
            if let (Some(profile), 1) = (&warm, nb) {
                extra.push(HtodPart::new(&mut v, profile));
            }
            let topo = match topo {
                Some(topo) => {
                    dev.try_htod_packed_checked(&mut extra)?;
                    topo
                }
                None => Topology::upload(dev, a, plan, extra)?,
            };
            let loads = match (loads, scales) {
                (Loads::Explicit(sc), _) => {
                    DeviceLoads::Slab(dev.try_alloc_from(&position_slab(a, &sc[range.clone()]))?)
                }
                (Loads::Deltas(sc), _) => {
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
                (Loads::Scaled(_), scales) => {
                    DeviceLoads::Scales(scales.expect("scaled loads upload their scales").0)
                }
            };
            // Patched chunks: a few words per scenario describe the cut
            // range and the impedance override, plus one `min |V|` slot
            // per scenario.
            let patch =
                plan.map(|plan| ChunkPatch::upload(dev, plan, range.clone())).transpose()?;
            let min_v = plan.map(|_| filled(dev, nb, f64::INFINITY)).transpose()?;
            if let (Some(profile), 2..) = (&warm, nb) {
                let buf = dev.try_alloc_from(profile)?;
                let kernel = WarmInitKernel { warm: buf.view(), v: v.view_mut(), n };
                dev.try_launch(per_scenario, &kernel)?;
            }
            let j = dev.try_alloc::<Complex>(nb * n)?;
            // Every sweep writes the slot of each scenario it runs, and
            // only those slots are read.
            let res = dev.try_alloc::<f64>(nb * max_sweeps)?;
            let probes = if probes.is_empty() {
                None
            } else {
                let pos: Vec<u32> = probes.iter().map(|&b| a.levels.pos_of[b]).collect();
                let (slots, out) = (dev.try_alloc_from(&pos)?, dev.try_alloc(nb * pos.len())?);
                Some((pos, slots, out))
            };
            let flat = warm.is_none();
            Ok(Resident {
                a,
                plan,
                range,
                topo,
                loads,
                patch,
                min_v,
                v,
                j,
                mask,
                live,
                res,
                flat,
                probes,
                start: None,
                faults_base,
            })
        })
    }

    /// One fused sweep launch: backward, forward, and the in-block
    /// residual fold of every live scenario, packing
    /// [`SCENARIOS_PER_BLOCK`] scenarios per block to amortise topology
    /// reads. A launch over one scenario may run up to `sweeps` sweeps,
    /// continuing while `go_on` holds; a batch runs one. The first sweep
    /// of a flat chunk writes the flat start.
    fn sweep(
        &mut self,
        dev: &mut Device,
        sweeps: usize,
        go_on: SureContinue,
    ) -> Result<(), DeviceError> {
        let (n, nb) = (self.a.len(), self.range.len());
        debug_assert!(sweeps == 1 || nb == 1, "multi-sweep launches hold one scenario");
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
            flat: self.flat.then_some(self.a.source),
            sweeps,
            go_on,
        };
        dev.try_launch(grid, &kernel)?;
        self.flat = false;
        Ok(())
    }

    /// The state the iterate started from, in position order: the last
    /// certified outer round's, else `warm` (by bus id) in every stripe,
    /// else the flat start.
    fn start_state(&self, warm: Option<&[Complex]>) -> Vec<Complex> {
        let a = self.a;
        let stripe = || warm.map_or_else(|| vec![a.source; a.len()], |w| a.levels.permute(w));
        self.start.clone().unwrap_or_else(|| stripe().repeat(self.range.len()))
    }
}

/// What a [`Chunk`] is run for, which sets what its download reads.
#[derive(Clone, Copy, PartialEq)]
enum Output {
    /// A single solve, whose launches fit a deadline at `sweep_us` per
    /// sweep ([`single_iteration_bound_us`] less the launch): V and J in
    /// one packed read.
    Solve { sweep_us: f64 },
    /// A one-shot batch chunk: V and J each in its own read (none when
    /// stats-only and unarmed), then a patched batch's `min |V|`.
    Batch { keep: bool },
    /// An outer round: the probe voltages, gathered on device (read off
    /// V and J under an armed fault plan).
    Round,
}

/// A resident chunk on its device as one `recovery::drive` session, one
/// lane per scenario: a one-shot batch's chunk, an outer round, or a
/// single solve's fused route (one lane over the arrays' own loads at a
/// unit scale, which reads the base loads exactly: `s · 1.0 == s`).
///
/// A single solve's [`SweepSession::iterate`] is one launch of `k`
/// sweeps: the loop's allowance, cut to fit the time left before a
/// deadline by [`single_iteration_bound_us`], and 1 under an armed fault
/// plan; a clean cold solve is one packed upload, one launch and two
/// read-backs. A batch chunk or a round runs one sweep per launch, and
/// re-uploads its mask only when a lane froze and another still runs.
/// A rollback re-uploads the statics, the loads (slab or scales), the
/// patch words, the mask and V as one checked packed copy, and
/// verification reads them back; certification sweeps each lane on the
/// host over the scenario's own arrays.
pub(crate) struct Chunk<'d, 'a> {
    dev: &'d mut Device,
    res: Resident<'a>,
    /// The loads' host truth, for rollbacks and verification.
    loads: Loads<'d>,
    /// The shared warm start by bus id; `None` is the flat start.
    warm: Option<&'d [Complex]>,
    output: Output,
    /// Timeline mark of the residual read `settle` has yet to charge.
    unsettled: Option<usize>,
    /// A patched batch's `min |V|` per scenario, as last downloaded.
    min_v: Vec<f64>,
    /// A round's probe voltages per scenario, as last downloaded.
    probe_v: Vec<Vec<Complex>>,
    clock: SessionClock,
}

/// The one scenario's load scale.
const UNIT_SCALE: [f64; 1] = [1.0];

impl<'d, 'a> Chunk<'d, 'a> {
    fn new(
        dev: &'d mut Device,
        res: Resident<'a>,
        loads: Loads<'d>,
        warm: Option<&'d [Complex]>,
        output: Output,
        clock: SessionClock,
    ) -> Self {
        let (unsettled, min_v, probe_v) = (None, Vec::new(), vec![Vec::new(); res.range.len()]);
        Chunk { dev, res, loads, warm, output, unsettled, min_v, probe_v, clock }
    }

    /// Opens a single solve's chunk — topology, scale word and mask in
    /// one packed upload, an iterate seeded from `v_init` (by bus id) or
    /// left to the first sweep's flat start, and one residual slot per
    /// iteration of `max_iter` — charged to setup.
    pub(crate) fn open(
        dev: &'a mut Device,
        a: &'a SolverArrays,
        v_init: Option<&'a [Complex]>,
        max_iter: u32,
        obs: Obs,
    ) -> Result<Chunk<'a, 'a>, DeviceError> {
        if let Some(w) = v_init {
            assert_eq!(w.len(), a.len(), "warm start needs one voltage per bus");
        }
        let sweep_us = single_iteration_bound_us(dev.props(), &crate::gpu::level_shape(a))
            - dev.props().launch_overhead_us;
        let loads = Loads::Scaled(&UNIT_SCALE);
        let mut t = Timing::default();
        let slots = max_iter as usize;
        let res = Resident::build(dev, a, None, &loads, None, 0..1, v_init, &[], slots, &mut t)?;
        let clock = SessionClock::resume(&t, 0.0, obs);
        Ok(Chunk::new(dev, res, loads, v_init, Output::Solve { sweep_us }, clock))
    }

    /// Sweeps the next launch runs: a single solve at most `max`, 1 under
    /// an armed fault plan, and with `budget_us` left before a deadline no
    /// more than fit in it with the launch and the read-back of their
    /// residuals — never fewer than 1; a batch chunk or a round 1.
    fn sweeps(&self, max: u32, budget_us: Option<f64>) -> usize {
        let Output::Solve { sweep_us } = self.output else { return 1 };
        if self.dev.fault_plan().is_some() {
            return 1;
        }
        let props = self.dev.props();
        let fit = budget_us.map_or(max, |left| {
            let read = simt::timing::transfer_time(props, 8 * u64::from(max));
            ((left - props.launch_overhead_us - read) / sweep_us) as u32
        });
        fit.clamp(1, max) as usize
    }
}

impl SweepSession for Chunk<'_, '_> {
    type V = Complex;

    fn clock(&self) -> &SessionClock {
        &self.clock
    }

    fn live(&self) -> Vec<bool> {
        self.res.live.iter().map(|&m| m == 1).collect()
    }

    fn iterate(&mut self, allowed: &Sweeps) -> Result<Vec<f64>, DeviceError> {
        let k = self.sweeps(allowed.max, allowed.budget_us);
        let mark = self.dev.timeline().mark();
        // The launch cannot be split into per-half timings, so its whole
        // modeled time is charged to `backward_us` (`forward_us` stays 0
        // in the tensor engine, like `injection_us` — both are fused into
        // the same kernel).
        self.res.sweep(self.dev, k, allowed.go_on)?;
        self.clock.charge("backward", &self.dev.timeline().breakdown_since(mark));
        let mark = self.dev.timeline().mark();
        let mut residuals = Vec::new();
        let read = DtohPart::prefix(&self.res.res, k * self.res.range.len(), &mut residuals);
        self.dev.try_dtoh_packed_checked(&mut [read])?;
        if !matches!(self.output, Output::Solve { .. }) {
            // Charged with the mask update that may follow.
            self.unsettled = Some(mark);
            return Ok(residuals);
        }
        self.clock.charge("convergence", &self.dev.timeline().breakdown_since(mark));
        // The launch stopped after the first residual its test rejected;
        // the slots past it are stale.
        let mut go_on = allowed.go_on;
        let ran = residuals.iter().position(|&r| !go_on.step(r)).map_or(k, |i| i + 1);
        residuals.truncate(ran);
        Ok(residuals)
    }

    fn settle(&mut self, live: &[bool]) -> Result<(), DeviceError> {
        let Some(mark) = self.unsettled.take() else {
            return Ok(());
        };
        let mask: Vec<u32> = live.iter().map(|&l| u32::from(l)).collect();
        if mask != self.res.live && live.contains(&true) {
            self.dev.try_htod_checked(&mut self.res.mask, &mask)?;
            self.res.live = mask;
        }
        self.clock.charge("convergence", &self.dev.timeline().breakdown_since(mark));
        Ok(())
    }

    fn snapshot(&mut self) -> Result<Vec<Complex>, DeviceError> {
        let mark = self.dev.timeline().mark();
        let v = self.dev.try_dtoh_checked(&self.res.v)?;
        self.clock.recovery_us += self.dev.timeline().breakdown_since(mark).total_us();
        Ok(v)
    }

    fn restore(&mut self, v_pos: &[Complex], live: &[bool]) -> Result<(), DeviceError> {
        let (dev, r) = (&mut *self.dev, &mut self.res);
        let mark = dev.timeline().mark();
        // Statics are re-uploaded wholesale, as on the level path, in one
        // checked packed copy with the voltages. A flipped mask word
        // freezes a stripe, so the mask is static too.
        let mask: Vec<u32> = live.iter().map(|&l| u32::from(l)).collect();
        let slab;
        let mut extra = vec![match (&mut r.loads, &self.loads) {
            (DeviceLoads::Scales(buf), Loads::Scaled(sc)) => HtodPart::new(buf, &sc[r.range.clone()]),
            (DeviceLoads::Slab(buf), Loads::Explicit(sc) | Loads::Deltas(sc)) => {
                slab = position_slab(r.a, &sc[r.range.clone()]);
                HtodPart::new(buf, &slab)
            }
            _ => unreachable!("a chunk's loads keep their kind"),
        }];
        extra.push(HtodPart::new(&mut r.mask, &mask));
        if let (Some(cp), Some(plan)) = (&mut r.patch, r.plan) {
            extra.extend(cp.parts(plan, r.range.clone()));
        }
        extra.push(HtodPart::new(&mut r.v, v_pos));
        dev.try_htod_packed_checked(&mut r.topo.parts(r.a, r.plan, extra))?;
        (r.live, r.flat) = (mask, false);
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(())
    }

    fn start_state(&self) -> Vec<Complex> {
        self.res.start_state(self.warm)
    }

    fn verify_static(&mut self) -> Result<bool, DeviceError> {
        let (dev, r) = (&mut *self.dev, &self.res);
        let mark = dev.timeline().mark();
        let (mut slab, mut scales, mut mask) = (Vec::new(), Vec::new(), Vec::new());
        let loads = match &r.loads {
            DeviceLoads::Slab(buf) => DtohPart::new(buf, &mut slab),
            DeviceLoads::Scales(buf) => DtohPart::new(buf, &mut scales),
        };
        let extra = vec![loads, DtohPart::new(&r.mask, &mut mask)];
        let ok = r.topo.verify(dev, r.a, r.plan, extra)?
            && match self.loads {
                Loads::Scaled(sc) => pod_bytes(&scales) == pod_bytes(&sc[r.range.clone()]),
                Loads::Explicit(sc) | Loads::Deltas(sc) => {
                    pod_bytes(&slab) == pod_bytes(&position_slab(r.a, &sc[r.range.clone()]))
                }
            }
            && mask == r.live
            && match (&r.patch, r.plan) {
                (Some(cp), Some(plan)) => cp.matches(dev, plan, r.range.clone())?,
                _ => true,
            };
        self.clock.recovery_us += dev.timeline().breakdown_since(mark).total_us();
        Ok(ok)
    }

    fn download(&mut self) -> Result<(Vec<Complex>, Vec<Complex>), DeviceError> {
        let armed = self.dev.fault_plan().is_some();
        let (dev, r) = (&mut *self.dev, &mut self.res);
        let mark = dev.timeline().mark();
        let (mut v, mut j) = (Vec::new(), Vec::new());
        match self.output {
            Output::Solve { .. } => dev.try_dtoh_packed_checked(&mut [
                DtohPart::new(&r.v, &mut v),
                DtohPart::new(&r.j, &mut j),
            ])?,
            Output::Round if !armed && r.probes.is_some() => {
                let (_, slots, out) = r.probes.as_mut().expect("a round gathers its probes");
                let (n, nb, np) = (r.a.len(), r.range.len(), slots.len());
                let (src, slots) = (r.v.view(), slots.view());
                let kernel = GatherKernel { src, slots, out: out.view_mut(), np, n };
                dev.try_launch(LaunchConfig::grid2d(1, nb as u32, TENSOR_BLOCK), &kernel)?;
                let gathered = dev.try_dtoh_checked(out)?;
                self.probe_v = gathered.chunks(np).map(<[Complex]>::to_vec).collect();
            }
            Output::Batch { keep: false } | Output::Round if !armed => {}
            _ => (v, j) = (dev.try_dtoh_checked(&r.v)?, dev.try_dtoh_checked(&r.j)?),
        }
        self.clock.charge("teardown", &dev.timeline().breakdown_since(mark));
        if let Some(buf) = &r.min_v {
            let mark = dev.timeline().mark();
            self.min_v = dev.try_dtoh_checked(buf)?;
            self.clock.charge("teardown", &dev.timeline().breakdown_since(mark));
        }
        if let (Output::Round, true) = (self.output, armed) {
            let pos = r.probes.as_ref().map_or(&[][..], |(pos, ..)| pos);
            let lane = |s: &[Complex]| pos.iter().map(|&p| s[p as usize]).collect();
            self.probe_v = v.chunks(r.a.len()).map(lane).collect();
        }
        Ok((v, j))
    }

    fn unpermute(&self, pos: &[Complex]) -> Vec<Complex> {
        let levels = &self.res.a.levels;
        pos.chunks(self.res.a.len()).flat_map(|stripe| levels.unpermute(stripe)).collect()
    }

    fn host_iterate(&self, v_pos: &[Complex]) -> (Vec<f64>, Vec<Complex>) {
        let (a, plan) = (self.res.a, self.res.plan);
        let n = a.len();
        let (mut rs, mut js) = (Vec::new(), Vec::with_capacity(v_pos.len()));
        for (ls, s) in self.res.range.clone().enumerate() {
            let (a2, dead) = host_arrays(a, &self.loads, plan, s);
            let stripe = &v_pos[ls * n..(ls + 1) * n];
            let (r, j) = crate::gpu::host_iterate(&a2, self.warm, stripe, &dead);
            rs.push(r);
            js.extend(j);
        }
        (rs, js)
    }

    fn source_mag(&self) -> f64 {
        self.res.a.source.abs()
    }

    fn faults_observed(&self) -> u32 {
        (self.dev.fault_log().len() - self.res.faults_base) as u32
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

    /// Every patch word with its host truth: the members of a
    /// rollback's re-upload.
    fn parts<'p>(&'p mut self, plan: &'p PatchPlan, r: Range<usize>) -> [HtodPart<'p>; 5] {
        [
            HtodPart::new(&mut self.cut_pos, &plan.cut_pos[r.clone()]),
            HtodPart::new(&mut self.cut_lo, &plan.cut_lo[r.clone()]),
            HtodPart::new(&mut self.cut_hi, &plan.cut_hi[r.clone()]),
            HtodPart::new(&mut self.z_pos, &plan.z_pos[r.clone()]),
            HtodPart::new(&mut self.z_val, &plan.z_val[r]),
        ]
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
            && pod_bytes(&dev.try_dtoh(&self.z_val)?) == pod_bytes(&plan.z_val[r]))
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

/// What an outer session rebuilds its chunk from and falls back to.
struct Mirror<'s> {
    a: &'s SolverArrays,
    probes: Vec<usize>,
    /// Every scenario's loads, by bus id: the source of truth.
    loads: Vec<Vec<Complex>>,
    /// Shared warm start, by bus id, for the first round and rebuilds.
    warm: Option<Vec<Complex>>,
}

/// Resident-state outer-loop session (see
/// [`TensorBatchSolver::outer_session`]): one [`Resident`] chunk held
/// across outer rounds, each round one `recovery::drive` session of it,
/// with sparse load updates and probe readback between rounds.
pub(crate) struct TensorOuterSession<'s> {
    device: &'s mut Device,
    mirror: Mirror<'s>,
    /// Scenarios excluded from further rounds (outer loop settled).
    retired: Vec<bool>,
    /// Last inner status per scenario.
    statuses: Vec<SolveStatus>,
    /// Host copies of the voltages by bus id: each live scenario's as a
    /// round under an armed plan certified it, or as the host solved it.
    host_v: Vec<Option<Vec<Complex>>>,
    /// The resident chunk; `None` once a fault has dropped it.
    resident: Option<Resident<'s>>,
    degraded: bool,
    /// The session's retry budget ([`SolverConfig::max_recoveries`]).
    retries: RetryBudget,
    obs: Obs,
    timing: Timing,
}

impl<'s> TensorOuterSession<'s> {
    /// Runs `op` on the resident chunk under `retried`, building it cold
    /// from the mirrors when a fault has dropped it; `op` hands it back
    /// when it completes. `None` once the session has degraded.
    fn on_device<T>(
        &mut self,
        mut op: impl FnMut(
            &mut Device,
            Resident<'s>,
            &Mirror<'s>,
            &mut FaultReport,
            &mut RetryBudget,
            &mut Timing,
        ) -> Result<(T, Resident<'s>), DriveAbort>,
    ) -> Option<T> {
        if self.degraded {
            return None;
        }
        // The session exposes no fault report: its rounds' is dropped.
        let (slot, m, report) = (&mut self.resident, &self.mirror, &mut FaultReport::default());
        let (budget, timing) = (&mut self.retries, &mut self.timing);
        let out = retried(self.device, report, budget, timing, |dev, rep, budget, t| {
            let res = match slot.take() {
                Some(res) => res,
                None => {
                    let (nb, deltas) = (m.loads.len(), Loads::Deltas(&m.loads));
                    let (warm, probes) = (m.warm.as_deref(), &m.probes);
                    Resident::build(dev, m.a, None, &deltas, None, 0..nb, warm, probes, 1, t)
                        .map_err(|e| setup_abort(e, rep, budget))?
                }
            };
            let (out, res) = op(dev, res, m, rep, budget, t)?;
            *slot = Some(res);
            Ok(out)
        });
        self.degraded = out.is_none();
        out
    }

    /// Replaces scenarios' loads, `(scenario, loads by bus id)`: the host
    /// mirror takes them whole, the resident slab a scatter of just the
    /// entries that changed.
    pub(crate) fn update_loads(&mut self, fresh: Vec<(usize, Vec<Complex>)>) {
        let (a, n) = (self.mirror.a, self.mirror.a.len());
        let mut entries = Vec::new();
        for (s, loads) in fresh {
            assert_eq!(loads.len(), n, "scenario {s} has {} loads for {n} buses", loads.len());
            for (bus, (&old, &new)) in self.mirror.loads[s].iter().zip(&loads).enumerate() {
                if old != new {
                    entries.push((s as u32, a.levels.pos_of[bus], new));
                }
            }
            self.mirror.loads[s] = loads;
        }
        self.on_device(|dev, mut res, _, rep, budget, t| {
            let DeviceLoads::Slab(slab) = &mut res.loads else {
                unreachable!("sessions hold explicit loads")
            };
            charge(dev, t, SETUP, |dev| scatter(dev, slab, n, &entries))
                .map_err(|e| setup_abort(e, rep, budget))?;
            Ok(((), res))
        });
    }

    /// Excludes a scenario from further rounds; its resident state (and
    /// final voltages) stay exactly as its last live round left them.
    pub(crate) fn retire(&mut self, s: usize) {
        assert!(s < self.retired.len(), "scenario {s} of {}", self.retired.len());
        self.retired[s] = true;
    }

    /// One batched inner solve over every live scenario, re-iterating
    /// from the resident voltages as one `recovery::drive` session. A
    /// scenario the round leaves unvouched, or every live one once the
    /// session has degraded, re-solves serially on the host.
    pub(crate) fn solve_round(&mut self, cfg: &SolverConfig) -> OuterRound {
        let live: Vec<bool> = self.retired.iter().map(|&r| !r).collect();
        let obs = self.obs.clone();
        let round = self.on_device(|dev, mut res, m, rep, budget, t| {
            res.live = live.iter().map(|&l| u32::from(l)).collect();
            charge(dev, t, CONVERGENCE, |dev| dev.try_htod_checked(&mut res.mask, &res.live))
                .map_err(|e| setup_abort(e, rep, budget))?;
            let armed = dev.fault_plan().is_some();
            let (cancel, wall0) = (None, Instant::now());
            let policy = Policy { checkpointing: armed, cancel, obs: &obs, wall0 };
            let clock = SessionClock::resume(t, t.phases.total_us(), obs.clone());
            let (loads, warm) = (Loads::Deltas(&m.loads), m.warm.as_deref());
            let mut chunk = Chunk::new(dev, res, loads, warm, Output::Round, clock);
            let done = drive(&mut chunk, cfg, &policy, rep, budget)?;
            *t = done.timing;
            // The round ended certified: the next one starts from here.
            let Chunk { dev, mut res, probe_v, .. } = chunk;
            res.faults_base = dev.fault_log().len();
            res.start = armed.then(|| done.v_pos.clone());
            Ok(((done, probe_v), res))
        });
        let probes = |v: &[Complex]| self.mirror.probes.iter().map(|&b| v[b]).collect();
        let (mut iterations, mut probe_v, host) = match round {
            Some((done, probe_v)) => {
                let n = self.mirror.a.len();
                for s in (0..live.len()).filter(|&s| live[s] && !done.unvouched[s]) {
                    self.statuses[s] = done.statuses[s];
                    // Under an armed plan the certified V is the
                    // scenario's answer: a retired lane's stripe is never
                    // checked again.
                    if !done.v_pos.is_empty() {
                        let stripe = &done.v_pos[s * n..(s + 1) * n];
                        self.host_v[s] = Some(self.mirror.a.levels.unpermute(stripe));
                    }
                }
                (done.iterations, probe_v, done.unvouched)
            }
            None => {
                let probe_v = self.host_v.iter().map(|v| v.as_deref().map_or(Vec::new(), probes));
                (vec![0; live.len()], probe_v.collect(), live)
            }
        };
        let serial = SerialSolver::new(HostProps::paper_rig());
        for s in (0..host.len()).filter(|&s| host[s]) {
            let res = self.solve_on_host(&serial, s, cfg);
            probe_v[s] = self.mirror.probes.iter().map(|&b| res.v[b]).collect();
            (iterations[s], self.statuses[s]) = (res.iterations, res.status);
            self.host_v[s] = Some(res.v);
        }
        OuterRound { statuses: self.statuses.clone(), iterations, probe_v }
    }

    /// Serial solve of scenario `s` from the load mirror, warm off its
    /// last fallback profile, charged to teardown like the one-shot
    /// fallback.
    fn solve_on_host(
        &mut self,
        serial: &SerialSolver,
        s: usize,
        cfg: &SolverConfig,
    ) -> crate::report::SolveResult {
        let m = &self.mirror;
        let warm = self.host_v[s].as_deref().or(m.warm.as_deref());
        let (a2, _) = host_arrays(m.a, &Loads::Deltas(&m.loads), None, s);
        let res = serial.solve_warm(&a2, cfg, warm);
        self.timing.phases.teardown_us += res.timing.total_us();
        res
    }

    /// Every scenario's final voltages, closing the session: one read of
    /// the iterate, or under an armed plan or once degraded the host
    /// copies — each scenario's V as its last live round certified or
    /// host-solved it, re-solving on the host any scenario without one.
    pub(crate) fn finish(&mut self, cfg: &SolverConfig) -> SessionReport {
        let (n, nb) = (self.mirror.a.len(), self.retired.len());
        let state = match self.resident.take() {
            Some(res) if self.device.fault_plan().is_none() => {
                charge(self.device, &mut self.timing, TEARDOWN, |dev| dev.try_dtoh_checked(&res.v))
                    .ok()
            }
            _ => None,
        };
        let serial = SerialSolver::new(HostProps::paper_rig());
        let v = (0..nb)
            .map(|s| match &state {
                Some(v) => self.mirror.a.levels.unpermute(&v[s * n..(s + 1) * n]),
                None => match self.host_v[s].take() {
                    Some(v) => v,
                    None => self.solve_on_host(&serial, s, cfg).v,
                },
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

/// Fused FBS iterations in one launch: the backward sweep (injection
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
///
/// A launch over one scenario loops: up to `sweeps` iterations, sweep
/// `i` publishing its residual at slot `i`, continuing only while
/// `go_on` holds. The block is alone on the device, so its barriers
/// order one sweep's forward half before the next's backward half and no
/// grid-wide sync is needed. With `flat` set, the first sweep starts
/// from that voltage everywhere: it reads no voltage, writes the root's
/// (no later sweep rewrites it) and leaves every other node to its
/// forward half, so no fill launch precedes the solve.
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
    /// The flat start the first sweep begins from, if the iterate holds
    /// no voltages yet.
    flat: Option<Complex>,
    /// Most sweeps this launch runs (1 unless the chunk holds one
    /// scenario).
    sweeps: usize,
    /// Whether another sweep may follow a residual.
    go_on: SureContinue,
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
        let sh = blk.shared::<f64>(bdim);
        let mut go_on = self.go_on;

        for sweep in 0..self.sweeps {
            let flat = if sweep == 0 { self.flat } else { None };

            // Backward half, leaf→root: injection fused in, children
            // summed over their contiguous level-order range. Each current
            // is stored to global (the parent phase and the read-back take
            // it there) and kept in this thread's local slot for the forward
            // half, along with the pre-update voltage.
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
                        // Cut membership is two compares against the
                        // node's DFS position (one extra topology read,
                        // patched solves only).
                        let dp = match &self.patch {
                            Some(pr) => t.ld(&pr.dfs_pos, p),
                            None => 0,
                        };
                        let slot = (sb + m) * bdim + t.tid();
                        for (qi, mb) in members.iter().enumerate() {
                            let g = mb.s_idx * self.n + p;
                            if dp >= mb.cut_lo && dp < mb.cut_hi {
                                // De-energized in this scenario: it keeps
                                // its starting voltage.
                                if let Some(v0) = flat {
                                    t.st(&self.v, g, v0);
                                }
                                continue;
                            }
                            let sv = match (&self.loads, base_sv) {
                                (_, Some(b)) => {
                                    t.flops(2);
                                    b * mb.scale
                                }
                                (LoadsRef::Explicit(s), _) => t.ld(s, g),
                                _ => unreachable!("scaled loads stage base_sv"),
                            };
                            let vv = match flat {
                                Some(v0) if l == 0 => {
                                    t.st(&self.v, g, v0);
                                    v0
                                }
                                Some(v0) => v0,
                                None => t.ld_mut(&self.v, g),
                            };
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
                                acc += t.ld_mut(&self.j, mb.s_idx * self.n + c);
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

            // Forward half, root→leaf: the ladder update reads the
            // parent's fresh voltage from global (written the previous
            // phase) but takes its own current and previous voltage from
            // the local slots. Each member's residual partial accumulates
            // per thread in the exact per-node order of the unfused sweep.
            let mut partial = vec![0.0f64; nm * bdim];
            let mut partial_min =
                vec![f64::INFINITY; if self.min_v.is_some() { nm * bdim } else { 0 }];
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
            let mut residual = f64::NAN;
            for (qi, mb) in members.iter().enumerate() {
                let slots = qi * bdim..(qi + 1) * bdim;
                let (max, flops) = (MaxAbsF64::combine, MaxAbsF64::FLOPS);
                let at = sweep * self.nb + mb.s_idx;
                residual =
                    tree_fold(blk, &sh, &partial[slots.clone()], max, flops, &self.residuals, at);
                if let Some(min_buf) = &self.min_v {
                    tree_fold(blk, &sh, &partial_min[slots], f64::min, 1, min_buf, mb.s_idx);
                }
            }
            if !go_on.step(residual) {
                break;
            }
        }
    }
}

/// Folds one value per thread through shared memory with `combine`
/// (`flops` per step) and has thread 0 store the result at `dst[idx]`.
/// Every thread reads the result back from shared memory, so the block
/// can branch on it uniformly; it is returned.
fn tree_fold(
    blk: &mut BlockScope,
    sh: &Shared<f64>,
    partial: &[f64],
    combine: fn(f64, f64) -> f64,
    flops: u64,
    dst: &GlobalMut<'_, f64>,
    idx: usize,
) -> f64 {
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
    let mut out = 0.0;
    blk.threads(|t| {
        out = t.lds(sh, 0);
        if t.tid() == 0 {
            t.st(dst, idx, out);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::status::ConvergenceMonitor;
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
            let sref = serial.solve_warm(&host_arrays(&a, &loads, Some(&plan), s).0, &cfg, None);
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

    /// One scripted exponent flip in the resident voltages (the root of
    /// scenario 0) at the third sweep launch, in an explicit batch and in
    /// an outage-patched one: the batch rolls back, certifies its end on
    /// the device (patched lanes with their de-energized buses left out)
    /// and lands on the clean answer, and every device op it issued —
    /// sweeps, the rollback's re-upload, the certification reads — is
    /// charged to its modeled time.
    #[test]
    fn a_rolled_back_batch_is_charged_every_device_op() {
        let net = ieee37();
        let (a, dfs, cfg) = (SolverArrays::new(&net), DfsOrder::new(&net), SolverConfig::default());
        let scenarios = scaled_scenarios(&net, &[0.8, 1.0, 1.2]);
        let patches = [ScenarioPatch::outage(6), ScenarioPatch::base(), ScenarioPatch::outage(20)];
        // The voltage slab is the second allocation of an explicit chunk
        // (after its mask) and the third of a patched one (mask, scales).
        let cases = [
            (Scenarios::Explicit(&scenarios), 1),
            (Scenarios::Patched { dfs: &dfs, patches: &patches, warm: None }, 2),
        ];
        for (batch, v_slab) in cases {
            let run = |plan| {
                let mut dev = device();
                dev.arm_faults(plan);
                let mut solver = TensorBatchSolver::new(dev).with_chunk_scenarios(2);
                (solver.try_solve(&a, batch, &cfg).unwrap(), solver)
            };
            let (clean, solver) = run(simt::FaultPlan::seeded(0, 0.0));
            let events = solver.device().timeline().events();
            let sweeps = events.iter().enumerate().filter(|(_, e)| e.label() == "tensor_sweep");
            let third = sweeps.map(|(op, _)| op as u64).nth(2).expect("three sweeps");
            let flip = simt::FaultKind::BufferBitFlip { buffer: v_slab, word: 0, bit: 61 };
            let (res, solver) = run(simt::FaultPlan::scripted([(third, flip)]));
            let report = res.fault_report.as_ref().expect("an armed plan reports");
            assert!(report.rollbacks >= 1 && !report.degraded(), "{report:?}");
            assert_eq!(res.v, clean.v, "a rollback to certified state replays the clean iterates");
            assert_eq!((&res.min_v, &res.residuals), (&clean.min_v, &clean.residuals));
            let recovered = SolveStatus::Recovered { faults: 1, retries: report.retries };
            assert_eq!(res.statuses[..2], [recovered; 2], "the faulted chunk's lanes");
            assert_eq!(res.statuses[2], SolveStatus::Converged, "the clean chunk's lane");
            let (got, want) = (res.timing.total_us(), solver.device().timeline().total_modeled_us());
            assert!((got - want).abs() <= 1e-9 * want, "charged {got} µs, the device ran {want} µs");
        }
    }

    /// A flip in the branch currents of a lane that froze before a
    /// certified checkpoint: certification reads only voltages and the
    /// frozen lane never rewrites its currents, so the batch must not
    /// trust its end — no converged lane may come back with currents off
    /// the clean ones.
    #[test]
    fn a_flip_in_a_frozen_lane_never_leaks_past_a_later_checkpoint() {
        let net = balanced_binary(127, &GenSpec::default(), &mut StdRng::seed_from_u64(9));
        let (a, cfg) = (SolverArrays::new(&net), SolverConfig::default());
        let scenarios = scaled_scenarios(&net, &[0.02, 2.5]);
        let run = |plan| {
            let mut dev = device();
            dev.arm_faults(plan);
            let mut solver = TensorBatchSolver::new(dev);
            (solver.solve_arrays(&a, &scenarios, &cfg), solver)
        };
        let (clean, solver) = run(simt::FaultPlan::seeded(0, 0.0));
        let iters = &clean.per_scenario_iterations;
        let every = cfg.checkpoint_every;
        assert!(iters[0] < every && iters[1] > every + 1, "lane 0 freezes first: {iters:?}");
        // The launch of the iteration after lane 0 froze; the checkpoint
        // at `checkpoint_every` follows it.
        let events = solver.device().timeline().events();
        let sweeps = events.iter().enumerate().filter(|(_, e)| e.label() == "tensor_sweep");
        let op = sweeps.map(|(op, _)| op as u64).nth(iters[0] as usize).expect("a later sweep");
        // The current slab is the ninth allocation of an explicit chunk:
        // mask, V, five topology buffers, the load slab, then J.
        let flip = simt::FaultKind::BufferBitFlip { buffer: 8, word: 0, bit: 61 };
        let (res, _) = run(simt::FaultPlan::scripted([(op, flip)]));
        // The lane fails its end check and is solved on the host alone:
        // no rollback can heal it, so none is spent.
        let report = res.fault_report.as_ref().expect("an armed plan reports");
        assert!(report.rollbacks == 0 && !report.degraded(), "{report:?}");
        for s in 0..2 {
            assert!(res.statuses[s].is_converged(), "lane {s}: {}", res.statuses[s]);
            for (x, y) in res.j[s].iter().zip(&clean.j[s]) {
                assert!((*x - *y).abs() <= 1e-6 * (1.0 + y.abs()), "lane {s}: {x:?} vs {y:?}");
            }
        }
    }

    /// A flip in the `min |V|` slot of a patched lane after it froze: no
    /// check reads the slot, so a faulted chunk's `min |V|` must come
    /// from its vouched voltages, not from the device.
    #[test]
    fn a_flip_in_a_frozen_lanes_min_v_never_leaks() {
        let net = balanced_binary(127, &GenSpec::default(), &mut StdRng::seed_from_u64(9));
        let (a, dfs, cfg) = (SolverArrays::new(&net), DfsOrder::new(&net), SolverConfig::default());
        let patches = [0.02, 2.5].map(|scale| ScenarioPatch { scale, ..ScenarioPatch::base() });
        let run = |plan| {
            let mut dev = device();
            dev.arm_faults(plan);
            let mut solver = TensorBatchSolver::new(dev);
            let batch = Scenarios::Patched { dfs: &dfs, patches: &patches, warm: None };
            (solver.try_solve(&a, batch, &cfg).unwrap(), solver)
        };
        let (clean, solver) = run(simt::FaultPlan::seeded(0, 0.0));
        let iters = &clean.per_scenario_iterations;
        assert!(iters[0] < iters[1], "lane 0 freezes first: {iters:?}");
        let events = solver.device().timeline().events();
        let sweeps = events.iter().enumerate().filter(|(_, e)| e.label() == "tensor_sweep");
        let op = sweeps.map(|(op, _)| op as u64).nth(iters[0] as usize).expect("a later sweep");
        // `min |V|` is a patched chunk's fifteenth allocation: mask,
        // scales, V, six topology buffers, five patch words, then it.
        let flip = simt::FaultKind::BufferBitFlip { buffer: 14, word: 0, bit: 61 };
        let (res, _) = run(simt::FaultPlan::scripted([(op, flip)]));
        assert_eq!(res.fault_report.as_ref().map(|r| r.faults_injected), Some(1));
        assert_eq!(res.min_v, clean.min_v);
    }

    /// A diverging and a NaN-load scenario beside healthy ones, with one
    /// scripted flip in the voltages at the third sweep: the healthy
    /// lanes roll back and land on their clean answers, the NaN lane's
    /// replayed failure goes to its monitor instead of rolling back
    /// again, and the two sick lanes, which the device cannot vouch for
    /// at a tainted end, are solved on the host — the batch does not
    /// degrade.
    #[test]
    fn sick_lanes_beside_a_fault_are_solved_on_the_host_without_degrading() {
        let mut rng = StdRng::seed_from_u64(41);
        let net = random_tree(120, 8, &GenSpec::default(), &mut rng);
        let (a, cfg) = (SolverArrays::new(&net), SolverConfig::default());
        let mut scenarios = scaled_scenarios(&net, &[0.8, 1.0]);
        scenarios.push(base_loads(&net).iter().map(|&s| s * 1e6).collect());
        let mut sick = base_loads(&net);
        sick[7] = c(f64::NAN, 0.0);
        scenarios.push(sick);
        let run = |plan| {
            let mut dev = device();
            dev.arm_faults(plan);
            let mut solver = TensorBatchSolver::new(dev);
            (solver.solve_arrays(&a, &scenarios, &cfg), solver)
        };
        let (clean, solver) = run(simt::FaultPlan::seeded(0, 0.0));
        assert!(clean.statuses[..2].iter().all(|s| s.is_converged()), "{:?}", clean.statuses);
        assert!(!clean.statuses[2].is_converged() && !clean.statuses[3].is_converged());
        let events = solver.device().timeline().events();
        let sweeps = events.iter().enumerate().filter(|(_, e)| e.label() == "tensor_sweep");
        let third = sweeps.map(|(op, _)| op as u64).nth(2).expect("three sweeps");
        // The voltage slab is an explicit chunk's second allocation.
        let flip = simt::FaultKind::BufferBitFlip { buffer: 1, word: 0, bit: 61 };
        let (res, _) = run(simt::FaultPlan::scripted([(third, flip)]));
        let report = res.fault_report.as_ref().expect("an armed plan reports");
        assert!(report.rollbacks >= 1 && !report.degraded(), "{report:?}");
        for s in 0..2 {
            assert!(res.statuses[s].is_converged(), "lane {s}: {}", res.statuses[s]);
            assert_eq!(res.v[s], clean.v[s], "lane {s}");
        }
        assert_eq!(res.statuses[2..], clean.statuses[2..], "the host's verdicts are the device's");
    }

    /// An outer session that retires a scenario and then suffers a fault
    /// that touches only what the device holds of it — a flip in its
    /// voltage stripe during the next round, or a setup fault after the
    /// last round that rebuilds the chunk cold — still answers every
    /// scenario with the state its last live round left, as an unarmed
    /// session does.
    #[test]
    fn a_retired_scenario_keeps_the_answer_of_its_last_live_round() {
        let net = balanced_binary(127, &GenSpec::default(), &mut StdRng::seed_from_u64(3));
        let (a, cfg) = (SolverArrays::new(&net), SolverConfig::default());
        let scenarios = scaled_scenarios(&net, &[0.8, 1.0, 1.2]);
        let nudged = |s: usize| scenarios[s].iter().map(|&x| x * 1.05).collect::<Vec<_>>();
        // The session's ops before round 2 and before the last update.
        let run = |plan: Option<simt::FaultPlan>| {
            let mut dev = device();
            if let Some(plan) = plan {
                dev.arm_faults(plan);
            }
            let mut tbs = TensorBatchSolver::new(dev);
            let mut session = tbs.outer_session(&a, &scenarios, &[1], None, &cfg);
            session.solve_round(&cfg);
            session.retire(0);
            session.update_loads(vec![(1, nudged(1))]);
            let marks = [session.device.timeline().events().len()];
            session.solve_round(&cfg);
            let marks = [marks[0], session.device.timeline().events().len()];
            session.update_loads(vec![(2, nudged(2))]);
            let v = session.finish(&cfg).v;
            let events = session.device.timeline().events().to_vec();
            (v, marks, events)
        };
        let (want, ..) = run(None);
        let (clean, [round2, last], events) = run(Some(simt::FaultPlan::seeded(0, 0.0)));
        assert_eq!(clean, want);
        let first = |from: usize, label: &str| {
            (from..events.len()).find(|&op| events[op].label() == label).expect("an op") as u64
        };
        // Scenario 0's root voltage is word 0 of the voltage slab, a
        // session's second allocation.
        let flip = simt::FaultKind::BufferBitFlip { buffer: 1, word: 0, bit: 61 };
        let plans = [
            ("flip in the retired stripe", first(round2, "tensor_sweep"), flip),
            ("setup fault after the last round", first(last, "<alloc>"), simt::FaultKind::AllocOom),
        ];
        for (what, op, fault) in plans {
            let (got, ..) = run(Some(simt::FaultPlan::scripted([(op, fault)])));
            assert_eq!(got, want, "{what}");
        }
    }

    /// Steps a fused session on `dev` to its end with at most `k` sweeps
    /// per launch, replaying every residual through a monitor as
    /// `recovery::drive` does: the residual history, the status, and the
    /// final V and J in position order.
    fn stepped(
        dev: &mut Device,
        a: &SolverArrays,
        cfg: &SolverConfig,
        k: u32,
    ) -> (Vec<f64>, SolveStatus, Vec<Complex>, Vec<Complex>) {
        let mut sess = Chunk::open(dev, a, None, cfg.max_iter, Obs::default()).unwrap();
        let mut mon = ConvergenceMonitor::new(cfg, a.source.abs());
        let mut history = Vec::new();
        let status = 'solve: loop {
            let left = cfg.max_iter - history.len() as u32;
            if left == 0 {
                break SolveStatus::MaxIterations;
            }
            let allowed = Sweeps { max: k.min(left), budget_us: None, go_on: mon.sure_continue() };
            let rs = sess.iterate(&allowed).unwrap();
            assert!((1..=k as usize).contains(&rs.len()), "{} residuals from one launch", rs.len());
            for (i, r) in rs.iter().enumerate() {
                history.push(*r);
                if let Some(status) = mon.observe(history.len() as u32, *r) {
                    assert_eq!(i + 1, rs.len(), "the launch ran past a stop");
                    break 'solve status;
                }
            }
        };
        let (v, j) = sess.download().unwrap();
        (history, status, v, j)
    }

    /// One launch looping over many sweeps reaches exactly the residuals,
    /// status, V and J of one sweep per launch — converging, diverging
    /// and non-finite — and stops where the monitor stops.
    #[test]
    fn fused_launches_of_many_sweeps_match_one_sweep_per_launch_bit_for_bit() {
        let spec = GenSpec::default();
        let rng = || StdRng::seed_from_u64(29);
        let arrays = |net: &RadialNetwork| SolverArrays::new(net);
        let mut cases = vec![
            ("binary 1023", arrays(&balanced_binary(1023, &spec, &mut rng()))),
            ("chain 300", arrays(&chain(300, &spec, &mut rng()))),
            ("star 200", arrays(&star(200, &spec, &mut rng()))),
            ("ieee13", arrays(&ieee13())),
            ("ieee37", arrays(&ieee37())),
        ];
        let mut diverging = arrays(&random_tree(120, 8, &spec, &mut rng()));
        diverging.s.iter_mut().for_each(|s| *s = *s * 1e6);
        let mut sick = arrays(&random_tree(60, 8, &spec, &mut rng()));
        sick.s[7] = c(f64::NAN, 0.0);
        cases.extend([("diverging", diverging), ("NaN load", sick)]);
        let cfg = SolverConfig::default();
        let mut statuses = Vec::new();
        for (name, a) in &cases {
            let mut dev = device();
            let one = stepped(&mut dev, a, &cfg, 1);
            assert_eq!(dev.timeline().breakdown().kernels, one.0.len() as u64, "{name}");
            let mut dev = device();
            let many = stepped(&mut dev, a, &cfg, cfg.max_iter);
            let launches = dev.timeline().breakdown().kernels;
            let bits = |h: &[f64]| h.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            let phasor_bits = |x: &[Complex]| {
                x.iter().flat_map(|p| [p.re.to_bits(), p.im.to_bits()]).collect::<Vec<_>>()
            };
            assert_eq!(bits(&many.0), bits(&one.0), "{name}: residual history");
            assert_eq!(many.1, one.1, "{name}: status");
            assert_eq!(phasor_bits(&many.2), phasor_bits(&one.2), "{name}: V");
            assert_eq!(phasor_bits(&many.3), phasor_bits(&one.3), "{name}: J");
            if one.1 == SolveStatus::Converged {
                assert_eq!(launches, 1, "{name}: a clean convergence is one launch");
            }
            statuses.push(one.1);
        }
        assert!(statuses[..5].iter().all(|s| *s == SolveStatus::Converged), "{statuses:?}");
        let failed = |s: &SolveStatus| {
            matches!(s, SolveStatus::Diverged { .. } | SolveStatus::NumericalFailure { .. })
        };
        assert!(failed(&statuses[5]), "diverging: {}", statuses[5]);
        assert!(matches!(statuses[6], SolveStatus::NumericalFailure { at_iteration: 1 }));
    }

    #[test]
    fn clean_cold_fused_solve_is_one_upload_one_launch_and_two_read_backs() {
        let net = balanced_binary(1023, &GenSpec::default(), &mut StdRng::seed_from_u64(42));
        let mut gpu = crate::GpuSolver::new(device());
        let res = gpu.solve(&net, &SolverConfig::default());
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.iterations > 1);
        let count = |label: &str| {
            gpu.device().timeline().events().iter().filter(|e| e.label() == label).count()
        };
        let ops = (count("<htod>"), count("tensor_sweep"), count("<dtoh>"));
        assert_eq!(ops, (1, 1, 2), "(H2D, kernels, D2H) of {} iterations", res.iterations);
        assert_eq!(gpu.device().timeline().breakdown().kernels, 1);
    }

    /// With a deadline set, each launch runs only as many sweeps as fit in
    /// the time left, so the solve overruns its budget by at most what
    /// one sweep per launch does: one single-sweep launch and its
    /// residual read-back.
    #[test]
    fn fused_deadline_overrun_is_at_most_one_sweep_launch_and_its_read_back() {
        let net = chain(400, &GenSpec::default(), &mut StdRng::seed_from_u64(5));
        let a = SolverArrays::new(&net);
        let props = DeviceProps::paper_rig();
        let bound = single_iteration_bound_us(&props, &crate::gpu::level_shape(&a));
        let read = simt::timing::transfer_time(&props, 8);
        let free = crate::GpuSolver::new(device()).solve_arrays(&a, &SolverConfig::default());
        assert!(free.iterations > 4, "the chain needs a few iterations");
        let total = free.timing.total_us();
        let mut multi_sweep = false;
        for frac in [0.15, 0.3, 0.45, 0.6] {
            let budget = frac * total;
            let cfg = SolverConfig::default().with_deadline(budget);
            let mut gpu = crate::GpuSolver::new(device());
            let res = gpu.solve_arrays(&a, &cfg);
            let SolveStatus::DeadlineExceeded { at_iteration, .. } = res.status else {
                panic!("{frac}: expected a deadline stop, got {}", res.status);
            };
            assert_eq!(at_iteration, res.iterations);
            let sweeps_run = res.timing.phases.total_us() - res.timing.phases.teardown_us;
            assert!(
                sweeps_run - budget <= bound + read,
                "{frac}: overran {budget:.1} µs by {:.1} µs (bound {bound:.1} + read {read:.1})",
                sweeps_run - budget
            );
            let launches = gpu.device().timeline().breakdown().kernels as u32;
            multi_sweep |= launches < res.iterations;
        }
        assert!(multi_sweep, "some launch must have run several sweeps");
    }

    /// A checkpointing attempt (an armed plan) and a cancellable one each
    /// issue exactly the ops of a solve stepped one sweep per launch.
    #[test]
    fn armed_plan_or_cancel_flag_keeps_fused_solves_at_one_sweep_per_launch() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let net = balanced_binary(1023, &GenSpec::default(), &mut StdRng::seed_from_u64(42));
        let a = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let ops = |dev: &Device| {
            let op = |e: &simt::Event| format!("{:?} {:x}", e.kind, e.modeled_us.to_bits());
            dev.timeline().events().iter().map(op).collect::<Vec<_>>()
        };
        let mut dev = device();
        let (history, ..) = stepped(&mut dev, &a, &cfg, 1);
        let want = ops(&dev);
        assert_eq!(dev.timeline().breakdown().kernels, history.len() as u64);

        let mut armed = device();
        armed.arm_faults(simt::FaultPlan::seeded(0, 0.0));
        let mut gpu = crate::GpuSolver::new(armed);
        assert_eq!(gpu.solve_arrays(&a, &cfg).residual_history, history);
        assert_eq!(ops(gpu.device()), want, "plain solve on an armed device");

        let (props, host) = (DeviceProps::paper_rig(), HostProps::paper_rig());
        let mut supervisor = crate::ResilientSolver::new(crate::Backend::Gpu, props, host)
            .with_cancel(Arc::new(AtomicBool::new(false)));
        assert_eq!(supervisor.solve(&a, &cfg).unwrap().residual_history, history);
        assert_eq!(ops(supervisor.last_device().unwrap()), want, "supervised with a cancel flag");
    }
}
