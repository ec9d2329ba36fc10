//! Checkpoint/rollback recovery and graceful GPU→CPU degradation.
//!
//! The fault model ([`simt::FaultPlan`]) injects loud errors (failed
//! allocations and launches, device loss) and *silent* data corruption
//! (transfer bit flips, resident-buffer bit flips). This module turns
//! a fallible, faulty device into a solver that still produces the
//! fault-free answer:
//!
//! * **Checkpoints.** Every `checkpoint_every` iterations the supervisor
//!   downloads the voltage state. A checkpoint taken while *tainted*
//!   (faults observed since the last certified checkpoint) must first
//!   pass certification: the static topology buffers are compared
//!   byte-for-byte against their host copies, and one host-side sweep
//!   from the downloaded voltages must reproduce a residual consistent
//!   with the device's. The initial checkpoint is the flat start — known
//!   clean without touching the device.
//! * **Detection.** Loud faults surface as [`DeviceError`]s from the
//!   fallible kernels. Silent corruption is biased into f64 exponent
//!   bits, so it shows up as a residual spike or NaN within an
//!   iteration or two; whatever slips past that is caught by the
//!   certification gates, which also guard convergence itself: a
//!   tainted "converged" result is accepted only after the static
//!   check, a host-sweep residual within tolerance, and an elementwise
//!   branch-current cross-check.
//! * **Rollback.** Any anomaly while tainted triggers a rollback:
//!   statics are re-uploaded (healing resident corruption), voltages
//!   are restored from the last certified checkpoint, and the sweep
//!   replays. Anomalies while *untainted* are genuine — they are
//!   reported honestly, never rolled back.
//! * **Degradation.** Every rollback or restart charges a budget of
//!   `max_recoveries`. Device loss or budget exhaustion degrades the
//!   backend: gpu → multicore → serial. The CPU backends cannot fault,
//!   so a degraded solve reproduces the true answer (or the true
//!   failure) deterministically.
//!
//! Because rollbacks restore certified-clean state and the CPU
//! fallbacks are fault-free, a recovered solve matches the fault-free
//! solve's voltages; results carry [`SolveStatus::Recovered`] and a
//! [`FaultReport`] so callers can see the run was not clean.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use numc::Complex;
use simt::{Device, DeviceError, DeviceProps, FaultPlan, HostProps};

use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::gpu::{BackwardStrategy, GpuSession};
use crate::jump::{JumpArrays, JumpSession};
use crate::multicore::MulticoreSolver;
use crate::obs::Obs;
use crate::report::{FaultReport, SolveResult, Timing};
use crate::serial::SerialSolver;
use crate::status::{ConvergenceMonitor, SolveStatus};
use crate::three_phase::{Arrays3, Gpu3Solver, Serial3Solver, Solve3Result};

/// A residual is anomalous when it exceeds this multiple of the
/// previous iteration's residual (or of the tolerance, near
/// convergence). Exponent-bit corruption changes magnitudes by at least
/// 2×, so genuine FBS decay and injected corruption separate cleanly.
pub(crate) const SPIKE_FACTOR: f64 = 4.0;

/// One GPU sweep in progress, abstracted over the level-synchronous and
/// jump formulations so the recovery loop in [`drive`] is written once.
///
/// All voltages are in the session's device position order.
pub(crate) trait SweepSession {
    /// Modeled µs elapsed on this session so far (phase times plus
    /// recovery traffic) — the clock [`SolverConfig::deadline_us`] is
    /// checked against.
    fn elapsed_modeled_us(&self) -> f64;
    /// Runs one full FBS iteration; returns the ∞-norm voltage update.
    fn iterate(&mut self) -> Result<f64, DeviceError>;
    /// Downloads the voltage state (checkpoint capture).
    fn snapshot(&mut self) -> Result<Vec<Complex>, DeviceError>;
    /// Re-uploads every static buffer and the given voltages, clearing
    /// scratch state — heals any resident corruption.
    fn restore(&mut self, v_pos: &[Complex]) -> Result<(), DeviceError>;
    /// Compares every static device buffer byte-for-byte against its
    /// host copy.
    fn verify_static(&mut self) -> Result<bool, DeviceError>;
    /// Downloads the final voltages and branch currents.
    fn download(&mut self) -> Result<(Vec<Complex>, Vec<Complex>), DeviceError>;
    /// One host-side FBS iteration from `v_pos`: returns the residual
    /// it would produce and the host-computed branch currents.
    fn host_iterate(&self, v_pos: &[Complex]) -> (f64, Vec<Complex>);
    /// Source voltage magnitude (tolerance scaling).
    fn source_mag(&self) -> f64;
    /// Faults the device has recorded so far (monotone per device).
    fn faults_observed(&self) -> u32;
    /// Modeled µs spent on checkpoint/restore/verify traffic.
    fn recovery_us(&self) -> f64;
    /// Timing summary as of now (`wall0` is the wall-clock origin of the
    /// whole solve).
    fn timing(&self, wall0: Instant) -> Timing;
}

/// The bounded retry budget one resilient solve may spend.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryBudget {
    max: u32,
    used: u32,
}

impl RetryBudget {
    pub(crate) fn new(max: u32) -> Self {
        RetryBudget { max, used: 0 }
    }

    /// Consumes one retry; `false` means the budget is exhausted.
    pub(crate) fn charge(&mut self) -> bool {
        if self.used >= self.max {
            return false;
        }
        self.used += 1;
        true
    }

    pub(crate) fn used(&self) -> u32 {
        self.used
    }
}

/// What [`drive`] hands back on a completed (possibly honestly failed)
/// solve, in device position order.
pub(crate) struct DriveOutcome {
    pub v_pos: Vec<Complex>,
    pub j_pos: Vec<Complex>,
    pub iterations: u32,
    pub status: SolveStatus,
    pub residual: f64,
    pub residual_history: Vec<f64>,
}

/// Why [`drive`] gave up on the current device.
pub(crate) enum DriveAbort {
    /// The device is gone; no retry on it can succeed.
    Lost(DeviceError),
    /// The retry budget ran dry.
    Exhausted,
    /// Session setup failed transiently; retry on a fresh device
    /// (already charged to the budget).
    Restart,
}

/// The last certified-clean state the sweep can roll back to.
struct Checkpoint {
    v: Vec<Complex>,
    iterations: u32,
    residual: f64,
    history: Vec<f64>,
    monitor: ConvergenceMonitor,
    faults: u32,
}

/// Rolls the session back to `ckpt`, charging the budget; loud faults
/// during the restore itself are retried within the same budget.
fn rollback<S: SweepSession>(
    sess: &mut S,
    ckpt: &Checkpoint,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
    obs: &Obs,
) -> Result<(), DriveAbort> {
    loop {
        report.rollbacks += 1;
        obs.instant("rollback", sess.elapsed_modeled_us());
        if !budget.charge() {
            return Err(DriveAbort::Exhausted);
        }
        report.retries += 1;
        match sess.restore(&ckpt.v) {
            Ok(()) => return Ok(()),
            Err(e @ DeviceError::DeviceLost { .. }) => return Err(DriveAbort::Lost(e)),
            Err(e) => {
                if matches!(e, DeviceError::TransferCorrupted { .. }) {
                    report.corruptions_detected += 1;
                }
                continue;
            }
        }
    }
}

/// The checkpointed iteration loop shared by every device backend.
///
/// With `checkpointing` false (no fault plan armed) this performs
/// exactly the same device operations as the plain solver loop — zero
/// recovery overhead on clean runs.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<S: SweepSession>(
    sess: &mut S,
    cfg: &SolverConfig,
    init_v: &[Complex],
    checkpointing: bool,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
    cancel: Option<&AtomicBool>,
    obs: &Obs,
) -> Result<DriveOutcome, DriveAbort> {
    let monitor0 = ConvergenceMonitor::new(cfg, sess.source_mag());
    let tol = monitor0.tol();
    // The flat start is host-known clean: certifying it costs nothing.
    // `faults: 0` (not the current count) so setup-time corruption
    // taints the run and gets caught by the first certification.
    let mut ckpt = Checkpoint {
        v: init_v.to_vec(),
        iterations: 0,
        residual: f64::INFINITY,
        history: Vec::new(),
        monitor: monitor0,
        faults: 0,
    };

    'attempt: loop {
        let mut mon = ckpt.monitor.clone();
        let mut iters = ckpt.iterations;
        let mut history = ckpt.history.clone();
        let mut prev_r = ckpt.residual;
        let mut residual = ckpt.residual;

        macro_rules! step {
            ($e:expr) => {
                match $e {
                    Ok(x) => x,
                    Err(e @ DeviceError::DeviceLost { .. }) => {
                        return Err(DriveAbort::Lost(e));
                    }
                    Err(e) => {
                        if matches!(e, DeviceError::TransferCorrupted { .. }) {
                            report.corruptions_detected += 1;
                            obs.instant("corruption-detected", sess.elapsed_modeled_us());
                        }
                        rollback(sess, &ckpt, report, budget, obs)?;
                        continue 'attempt;
                    }
                }
            };
        }
        macro_rules! recover {
            () => {{
                rollback(sess, &ckpt, report, budget, obs)?;
                continue 'attempt;
            }};
        }

        loop {
            if iters >= cfg.max_iter {
                if sess.faults_observed() > ckpt.faults {
                    recover!();
                }
                let (v_pos, j_pos) = step!(sess.download());
                return Ok(DriveOutcome {
                    v_pos,
                    j_pos,
                    iterations: iters,
                    status: SolveStatus::MaxIterations,
                    residual,
                    residual_history: history,
                });
            }
            iters += 1;
            let r = step!(sess.iterate());
            history.push(r);
            residual = r;
            let tainted = sess.faults_observed() > ckpt.faults;
            if tainted && (!r.is_finite() || r > SPIKE_FACTOR * prev_r.max(tol)) {
                recover!();
            }
            match mon.observe(iters, r) {
                None => {
                    // Deadline and watchdog-cancel checks happen only on
                    // a still-running iteration, mirroring the plain
                    // solver loops: a converged/failed status is never
                    // masked by a slow clock.
                    let deadline_hit = cfg
                        .deadline_us
                        .is_some_and(|budget_us| sess.elapsed_modeled_us() >= budget_us);
                    let cancelled =
                        cancel.is_some_and(|c| c.load(Ordering::Relaxed));
                    if deadline_hit || cancelled {
                        if sess.faults_observed() > ckpt.faults {
                            recover!();
                        }
                        let (v_pos, j_pos) = step!(sess.download());
                        return Ok(DriveOutcome {
                            v_pos,
                            j_pos,
                            iterations: iters,
                            status: SolveStatus::DeadlineExceeded {
                                at_iteration: iters,
                                elapsed_us: sess.elapsed_modeled_us() as u64,
                            },
                            residual,
                            residual_history: history,
                        });
                    }
                    prev_r = r;
                    if checkpointing && iters.is_multiple_of(cfg.checkpoint_every) {
                        if tainted {
                            // Certification: statics exact, and one host
                            // sweep from the captured voltages must agree
                            // with what the device just reported.
                            if !step!(sess.verify_static()) {
                                recover!();
                            }
                            let v = step!(sess.snapshot());
                            let (rh, _) = sess.host_iterate(&v);
                            if !rh.is_finite() || rh > SPIKE_FACTOR * r.max(tol) {
                                recover!();
                            }
                            ckpt.v = v;
                        } else {
                            ckpt.v = step!(sess.snapshot());
                        }
                        ckpt.iterations = iters;
                        ckpt.residual = r;
                        ckpt.history = history.clone();
                        ckpt.monitor = mon.clone();
                        ckpt.faults = sess.faults_observed();
                        report.checkpoints += 1;
                        obs.instant("checkpoint", sess.elapsed_modeled_us());
                    }
                }
                Some(SolveStatus::Converged) => {
                    if !tainted {
                        let (v_pos, j_pos) = step!(sess.download());
                        return Ok(DriveOutcome {
                            v_pos,
                            j_pos,
                            iterations: iters,
                            status: SolveStatus::Converged,
                            residual,
                            residual_history: history,
                        });
                    }
                    // Tainted convergence must earn acceptance.
                    if !step!(sess.verify_static()) {
                        recover!();
                    }
                    let (v_pos, j_pos) = step!(sess.download());
                    let (rh, j_h) = sess.host_iterate(&v_pos);
                    let j_ok = j_pos.len() == j_h.len()
                        && j_pos.iter().zip(&j_h).all(|(a, b)| {
                            let d = (*a - *b).abs();
                            d.is_finite() && d <= 1e-4 * (1.0 + b.abs())
                        });
                    if rh.is_finite() && rh <= SPIKE_FACTOR * tol && j_ok {
                        return Ok(DriveOutcome {
                            v_pos,
                            j_pos,
                            iterations: iters,
                            status: SolveStatus::Converged,
                            residual,
                            residual_history: history,
                        });
                    }
                    recover!();
                }
                Some(bad) => {
                    if tainted {
                        recover!();
                    }
                    // A genuine divergence or numerical failure: report
                    // it honestly, never roll it back.
                    let (v_pos, j_pos) = step!(sess.download());
                    return Ok(DriveOutcome {
                        v_pos,
                        j_pos,
                        iterations: iters,
                        status: bad,
                        residual,
                        residual_history: history,
                    });
                }
            }
        }
    }
}

/// Which solver implementation a resilient solve runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Serial CPU reference.
    Serial,
    /// Level-parallel multicore CPU solver.
    Multicore,
    /// Level-synchronous GPU solver, segmented-scan backward.
    Gpu,
    /// Level-synchronous GPU solver, direct backward.
    GpuDirect,
    /// Level-synchronous GPU solver, atomic-scatter backward.
    GpuAtomic,
    /// Depth-insensitive jump GPU solver.
    GpuJump,
}

impl Backend {
    /// Every backend, in the CLI's comparison order.
    pub const ALL: [Backend; 6] = [
        Backend::Serial,
        Backend::Multicore,
        Backend::Gpu,
        Backend::GpuDirect,
        Backend::GpuAtomic,
        Backend::GpuJump,
    ];

    /// CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Multicore => "multicore",
            Backend::Gpu => "gpu",
            Backend::GpuDirect => "gpu-direct",
            Backend::GpuAtomic => "gpu-atomic",
            Backend::GpuJump => "gpu-jump",
        }
    }

    /// The backward-sweep strategy of a level-synchronous GPU backend;
    /// `None` for the CPU backends and the jump solver.
    pub fn strategy(self) -> Option<BackwardStrategy> {
        match self {
            Backend::Gpu => Some(BackwardStrategy::SegScan),
            Backend::GpuDirect => Some(BackwardStrategy::Direct),
            Backend::GpuAtomic => Some(BackwardStrategy::AtomicScatter),
            _ => None,
        }
    }

    /// Parses a CLI solver name.
    pub fn from_name(name: &str) -> Option<Backend> {
        Some(match name {
            "serial" => Backend::Serial,
            "multicore" => Backend::Multicore,
            "gpu" => Backend::Gpu,
            "gpu-direct" => Backend::GpuDirect,
            "gpu-atomic" => Backend::GpuAtomic,
            "gpu-jump" => Backend::GpuJump,
            _ => return None,
        })
    }

    /// The next backend in the degradation chain, `None` at the end.
    /// Device backends fall back to the multicore CPU solver, which
    /// falls back to serial; CPU backends cannot fault but the chain is
    /// defined all the way down.
    pub fn fallback(self) -> Option<Backend> {
        match self {
            Backend::Serial => None,
            Backend::Multicore => Some(Backend::Serial),
            _ => Some(Backend::Multicore),
        }
    }

    /// Whether this backend runs on the simulated device (and is
    /// therefore exposed to injected device faults).
    pub fn is_device(self) -> bool {
        !matches!(self, Backend::Serial | Backend::Multicore)
    }
}

/// Why a resilient solve could not produce a result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResilienceError {
    /// The device was lost and degradation is disabled.
    DeviceLost(DeviceError),
    /// The retry budget ran dry and degradation is disabled.
    BudgetExhausted {
        /// Retries spent before giving up.
        retries: u32,
    },
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::DeviceLost(e) => {
                write!(f, "unrecoverable: {e} and degradation is disabled")
            }
            ResilienceError::BudgetExhausted { retries } => {
                write!(f, "unrecoverable: recovery budget exhausted after {retries} retries")
            }
        }
    }
}

impl std::error::Error for ResilienceError {}

/// Fault-tolerant solver: checkpoints, rolls back, retries on fresh
/// devices, and degrades gpu → multicore → serial. Three-phase solves
/// ([`ResilientSolver::solve3`]) run a simpler whole-solve retry policy.
pub struct ResilientSolver {
    backend: Backend,
    props: DeviceProps,
    host: HostProps,
    plan: Option<FaultPlan>,
    degrade: bool,
    last_device: Option<Device>,
    cancel: Option<Arc<AtomicBool>>,
    recorder: Option<Recorder>,
}

impl ResilientSolver {
    /// Creates a supervisor for the given backend and hardware models.
    pub fn new(backend: Backend, props: DeviceProps, host: HostProps) -> Self {
        ResilientSolver {
            backend,
            props,
            host,
            plan: None,
            degrade: true,
            last_device: None,
            cancel: None,
            recorder: None,
        }
    }

    /// Attaches a telemetry recorder: the device sessions it drives emit
    /// per-iteration/per-phase spans, and checkpoint/rollback/backend
    /// switches show up as instant events.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = Some(rec);
        self
    }

    /// Arms a fault plan; every device the supervisor creates gets a
    /// clone (clones share the op counter, so retries continue the
    /// fault stream instead of replaying it).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Enables or disables GPU→CPU degradation (default enabled).
    pub fn with_degradation(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Arms a cooperative cancellation flag. A watchdog (or any other
    /// supervisor) sets the flag; the device iteration loop notices it
    /// at the next convergence check and returns the partial state with
    /// [`SolveStatus::DeadlineExceeded`]. The flag never consumes
    /// fault-plan operations, so armed-but-unfired watchdogs leave the
    /// fault stream untouched.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The backend this supervisor starts on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The device used by the most recent device attempt (timeline and
    /// fault-log inspection), if any.
    pub fn last_device(&self) -> Option<&Device> {
        self.last_device.as_ref()
    }

    /// Solves prepared single-phase arrays, recovering from injected
    /// faults. The arrays' loads are used as given, so an outer loop can
    /// patch `a.s` between calls; the solve always starts flat, because
    /// certification assumes the flat start is known clean.
    pub fn solve(
        &mut self,
        a: &SolverArrays,
        cfg: &SolverConfig,
    ) -> Result<SolveResult, ResilienceError> {
        if cfg.validate().is_err() {
            let mut res = crate::report::invalid_config_result(a.len(), a.source);
            res.fault_report = Some(FaultReport {
                backends: vec![self.backend.name().to_string()],
                ..FaultReport::default()
            });
            return Ok(res);
        }
        let mut report = FaultReport::default();
        let mut budget = RetryBudget::new(cfg.max_recoveries);
        let mut backend = self.backend;
        loop {
            report.backends.push(backend.name().to_string());
            if !backend.is_device() {
                let mut res = match backend {
                    Backend::Serial => {
                        let mut s = SerialSolver::new(self.host.clone());
                        if let Some(rec) = &self.recorder {
                            s = s.with_recorder(rec.clone());
                        }
                        s.solve_arrays(a, cfg)
                    }
                    Backend::Multicore => {
                        let mut s = MulticoreSolver::new(
                            self.host.clone(),
                            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
                        );
                        if let Some(rec) = &self.recorder {
                            s = s.with_recorder(rec.clone());
                        }
                        s.solve_arrays(a, cfg)
                    }
                    _ => unreachable!(),
                };
                res.status = upgraded(res.status, &report);
                res.fault_report = Some(report);
                return Ok(res);
            }
            match self.run_device(backend, a, cfg, &mut report, &mut budget) {
                Ok(mut res) => {
                    res.status = upgraded(res.status, &report);
                    res.fault_report = Some(report);
                    return Ok(res);
                }
                Err(abort) => {
                    if self.degrade {
                        backend = backend.fallback().expect("device backends have a fallback");
                        continue;
                    }
                    return Err(match abort {
                        DriveAbort::Lost(e) => ResilienceError::DeviceLost(e),
                        _ => ResilienceError::BudgetExhausted { retries: report.retries },
                    });
                }
            }
        }
    }

    /// Solves a three-phase network from prepared arrays, recovering
    /// from injected faults.
    ///
    /// The three-phase GPU solver has no checkpointed session, so the
    /// policy is simpler and stricter than [`ResilientSolver::solve`]'s:
    /// retry whole [`Gpu3Solver`] solves on fresh devices until one
    /// completes with *zero* recorded faults (provably clean), then
    /// accept it; device loss or budget exhaustion degrades straight to
    /// the [`Serial3Solver`] reference. The configured backend and the
    /// cancel flag are ignored, and [`ResilientSolver::last_device`] is
    /// left untouched.
    pub fn solve3(
        &mut self,
        a: &Arrays3,
        cfg: &SolverConfig,
    ) -> Result<Solve3Result, ResilienceError> {
        if cfg.validate().is_err() {
            return Ok(crate::three_phase::invalid_config_result3(a.len(), a.source));
        }
        let mut faults_total = 0u32;
        let mut budget = RetryBudget::new(cfg.max_recoveries);
        let mut lost_any = false;
        loop {
            let mut dev = Device::new(self.props.clone());
            if let Some(plan) = &self.plan {
                dev.arm_faults(plan.clone());
            }
            let mut solver = Gpu3Solver::new(dev);
            if let Some(rec) = &self.recorder {
                solver = solver.with_recorder(rec.clone());
            }
            let attempt = catch_unwind(AssertUnwindSafe(|| solver.solve_arrays(a, cfg)));
            let faults = solver.device().fault_log().len() as u32;
            faults_total += faults;
            let lost = solver.device().is_lost();
            if let Ok(mut res) = attempt {
                if faults == 0 && !lost {
                    // Provably clean attempt: accept.
                    if budget.used() > 0 && res.status == SolveStatus::Converged {
                        res.status = SolveStatus::Recovered {
                            faults: faults_total,
                            retries: budget.used(),
                        };
                    }
                    return Ok(res);
                }
            }
            lost_any |= lost;
            if !budget.charge() {
                break;
            }
        }
        if !self.degrade {
            return Err(if lost_any {
                ResilienceError::DeviceLost(DeviceError::DeviceLost { at_op: 0 })
            } else {
                ResilienceError::BudgetExhausted { retries: budget.used() }
            });
        }
        let mut fallback = Serial3Solver::new(self.host.clone());
        if let Some(rec) = &self.recorder {
            fallback = fallback.with_recorder(rec.clone());
        }
        let mut res = fallback.solve_arrays(a, cfg);
        if res.status == SolveStatus::Converged {
            res.status =
                SolveStatus::Recovered { faults: faults_total, retries: budget.used() };
        }
        Ok(res)
    }

    /// Runs attempts on fresh devices until one completes or the
    /// backend must be abandoned.
    fn run_device(
        &mut self,
        backend: Backend,
        a: &SolverArrays,
        cfg: &SolverConfig,
        report: &mut FaultReport,
        budget: &mut RetryBudget,
    ) -> Result<SolveResult, DriveAbort> {
        let jump_arrays = (backend == Backend::GpuJump).then(|| JumpArrays::new(a));
        let checkpointing = self.plan.is_some();
        let cancel = self.cancel.clone();
        let obs = Obs::new(self.recorder.as_ref(), "recovery");
        loop {
            let mut dev = Device::new(self.props.clone());
            if let Some(plan) = &self.plan {
                dev.arm_faults(plan.clone());
            }
            // Corrupted index buffers can drive kernels out of bounds;
            // the engine propagates the panic, which is just another
            // fault: charge it and restart on a fresh device.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let wall0 = Instant::now();
                let cancel = cancel.as_deref();
                match &jump_arrays {
                    Some(ja) => run_attempt(
                        JumpSession::with_obs(&mut dev, ja, obs.clone()),
                        |pos| ja.dfs.unpermute(pos),
                        wall0,
                        a,
                        cfg,
                        checkpointing,
                        report,
                        budget,
                        cancel,
                        &obs,
                    ),
                    None => run_attempt(
                        GpuSession::with_obs(
                            &mut dev,
                            a,
                            backend.strategy().expect("a level-synchronous GPU backend"),
                            None,
                            obs.clone(),
                        ),
                        |pos| a.levels.unpermute(pos),
                        wall0,
                        a,
                        cfg,
                        checkpointing,
                        report,
                        budget,
                        cancel,
                        &obs,
                    ),
                }
            }));
            report.faults_injected += dev.fault_log().len() as u32;
            let lost = dev.is_lost();
            self.last_device = Some(dev);
            match attempt {
                Ok(Ok(res)) => return Ok(res),
                Ok(Err(DriveAbort::Restart)) => continue,
                Ok(Err(abort)) => return Err(abort),
                Err(_panic) => {
                    if lost {
                        return Err(DriveAbort::Lost(DeviceError::DeviceLost { at_op: 0 }));
                    }
                    report.rollbacks += 1;
                    if !budget.charge() {
                        return Err(DriveAbort::Exhausted);
                    }
                    report.retries += 1;
                    continue;
                }
            }
        }
    }
}

/// Converged-but-not-clean runs are reported as recovered.
fn upgraded(status: SolveStatus, report: &FaultReport) -> SolveStatus {
    if status == SolveStatus::Converged
        && (report.faults_injected > 0 || report.retries > 0 || report.degraded())
    {
        SolveStatus::Recovered { faults: report.faults_injected, retries: report.retries }
    } else {
        status
    }
}

/// Maps a session-setup failure: device loss aborts the backend, any
/// other error charges the budget and asks for a fresh device.
fn setup_abort(
    e: DeviceError,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
) -> DriveAbort {
    if matches!(e, DeviceError::DeviceLost { .. }) {
        return DriveAbort::Lost(e);
    }
    if matches!(e, DeviceError::TransferCorrupted { .. }) {
        report.corruptions_detected += 1;
    }
    report.rollbacks += 1;
    if !budget.charge() {
        return DriveAbort::Exhausted;
    }
    report.retries += 1;
    DriveAbort::Restart
}

/// One attempt on a fresh device: drives the session `opened` returns
/// (a setup failure charges the budget) and lays the answer out by bus
/// id with `unpermute`. `wall0` is the attempt's wall-clock origin.
#[allow(clippy::too_many_arguments)]
fn run_attempt<S: SweepSession>(
    opened: Result<S, DeviceError>,
    unpermute: impl Fn(&[Complex]) -> Vec<Complex>,
    wall0: Instant,
    a: &SolverArrays,
    cfg: &SolverConfig,
    checkpointing: bool,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
    cancel: Option<&AtomicBool>,
    obs: &Obs,
) -> Result<SolveResult, DriveAbort> {
    let mut sess = opened.map_err(|e| setup_abort(e, report, budget))?;
    let init_v = vec![a.source; a.len()];
    let out = drive(&mut sess, cfg, &init_v, checkpointing, report, budget, cancel, obs);
    report.checkpoint_us += sess.recovery_us();
    let out = out?;
    let timing = sess.timing(wall0);
    Ok(SolveResult {
        v: unpermute(&out.v_pos),
        j: unpermute(&out.j_pos),
        iterations: out.iterations,
        status: out.status,
        residual: out.residual,
        residual_history: out.residual_history,
        timing,
        fault_report: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::GpuSolver;
    use powergrid::ieee::ieee13;
    use simt::FaultKind;

    fn rig() -> (DeviceProps, HostProps) {
        (DeviceProps::paper_rig(), HostProps::paper_rig())
    }

    #[test]
    fn retry_budget_exhausts() {
        let mut b = RetryBudget::new(2);
        assert!(b.charge());
        assert!(b.charge());
        assert!(!b.charge());
        assert_eq!(b.used(), 2);
    }

    #[test]
    fn fallback_chain_ends_at_serial() {
        assert_eq!(Backend::Gpu.fallback(), Some(Backend::Multicore));
        assert_eq!(Backend::GpuJump.fallback(), Some(Backend::Multicore));
        assert_eq!(Backend::Multicore.fallback(), Some(Backend::Serial));
        assert_eq!(Backend::Serial.fallback(), None);
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(Backend::from_name(b.name()), Some(b));
        }
        assert_eq!(Backend::from_name("fpga"), None);
    }

    #[test]
    fn fault_free_resilient_gpu_matches_plain_gpu_exactly() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let plain = GpuSolver::with_strategy(Device::new(props.clone()), BackwardStrategy::SegScan)
            .solve(&net, &cfg);
        let res = ResilientSolver::new(Backend::Gpu, props, host)
            .solve(&SolverArrays::new(&net), &cfg)
            .expect("clean run cannot fail");
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.iterations, plain.iterations);
        assert_eq!(res.v, plain.v, "fault-free supervisor run must be bit-identical");
        let report = res.fault_report.expect("supervisor attaches a report");
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.checkpoints, 0, "no plan armed means no checkpoint traffic");
        assert_eq!(report.backends, vec!["gpu".to_string()]);
    }

    #[test]
    fn seeded_faults_recover_to_the_fault_free_answer() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let plain = GpuSolver::new(Device::new(props.clone())).solve(&net, &cfg);
        let plan = FaultPlan::seeded(20200817, 0.02);
        let mut solver =
            ResilientSolver::new(Backend::Gpu, props, host).with_fault_plan(plan);
        let res =
            solver.solve(&SolverArrays::new(&net), &cfg).expect("recoverable faults must not error");
        assert!(res.status.is_converged(), "got {}", res.status);
        let scale = net.source_voltage().abs();
        for (a, b) in res.v.iter().zip(&plain.v) {
            assert!((*a - *b).abs() <= 1e-9 * scale, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn device_loss_degrades_to_multicore_with_the_right_answer() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let serial = SerialSolver::new(host.clone()).solve(&net, &cfg);
        // Op 30 lands mid-solve on every level backend.
        let plan = FaultPlan::scripted([(30, FaultKind::DeviceLost { at_op: 0 })]);
        let mut solver =
            ResilientSolver::new(Backend::Gpu, props, host).with_fault_plan(plan);
        let res =
            solver.solve(&SolverArrays::new(&net), &cfg).expect("degradation must rescue the solve");
        let report = res.fault_report.clone().expect("report");
        assert!(report.degraded(), "backends: {:?}", report.backends);
        assert_eq!(report.backends, vec!["gpu".to_string(), "multicore".to_string()]);
        assert!(matches!(res.status, SolveStatus::Recovered { .. }), "got {}", res.status);
        let scale = net.source_voltage().abs();
        for (a, b) in res.v.iter().zip(&serial.v) {
            assert!((*a - *b).abs() <= 1e-9 * scale);
        }
    }

    #[test]
    fn device_loss_without_degradation_is_an_error() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let plan = FaultPlan::scripted([(30, FaultKind::DeviceLost { at_op: 0 })]);
        let mut solver = ResilientSolver::new(Backend::Gpu, props, host)
            .with_fault_plan(plan)
            .with_degradation(false);
        let err =
            solver.solve(&SolverArrays::new(&net), &cfg).expect_err("loss with degradation off");
        assert!(matches!(err, ResilienceError::DeviceLost(_)), "got {err}");
        assert!(err.to_string().contains("unrecoverable"));
    }

    #[test]
    fn cpu_backends_pass_through_unchanged() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let serial = SerialSolver::new(host.clone()).solve(&net, &cfg);
        let res = ResilientSolver::new(Backend::Serial, props, host)
            .solve(&SolverArrays::new(&net), &cfg)
            .unwrap();
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.v, serial.v);
        assert_eq!(res.fault_report.unwrap().backends, vec!["serial".to_string()]);
    }
}
