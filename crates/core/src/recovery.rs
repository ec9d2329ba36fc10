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
use simt::{Breakdown, Device, DeviceError, DeviceProps, FaultKind, FaultPlan, HostProps};

use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::engine::Backend;
use crate::gpu::GpuSession;
use crate::jump::{JumpArrays, JumpSession};
use crate::obs::Obs;
use crate::report::{FaultReport, PhaseTimes, SolveResult, Timing};
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
    /// The session's modeled-time accounts.
    fn clock(&self) -> &SessionClock;
    /// Runs one full FBS iteration; returns the ∞-norm voltage update.
    fn iterate(&mut self) -> Result<f64, DeviceError>;
    /// Downloads the voltage state (checkpoint capture).
    fn snapshot(&mut self) -> Result<Vec<Complex>, DeviceError>;
    /// Re-uploads every static buffer and the given voltages, clearing
    /// scratch state — heals any resident corruption.
    fn restore(&mut self, v_pos: &[Complex]) -> Result<(), DeviceError>;
    /// The voltages the session started from (the flat start or the warm
    /// start it was opened with) — what a rollback to the initial
    /// checkpoint restores. Built on demand, so a clean solve never
    /// holds a host copy of it.
    fn start_state(&self) -> Vec<Complex>;
    /// Compares every static device buffer byte-for-byte against its
    /// host copy.
    fn verify_static(&mut self) -> Result<bool, DeviceError>;
    /// Downloads the final voltages and branch currents.
    fn download(&mut self) -> Result<(Vec<Complex>, Vec<Complex>), DeviceError>;
    /// Lays a position-order array out by bus id.
    fn unpermute(&self, pos: &[Complex]) -> Vec<Complex>;
    /// One host-side FBS iteration from `v_pos`: returns the residual
    /// it would produce and the host-computed branch currents.
    fn host_iterate(&self, v_pos: &[Complex]) -> (f64, Vec<Complex>);
    /// Source voltage magnitude (tolerance scaling).
    fn source_mag(&self) -> f64;
    /// Faults the device has recorded so far (monotone per device).
    fn faults_observed(&self) -> u32;
}

/// Modeled-time accounts of one device session: the phase totals, the
/// transfer time within them and the recovery traffic outside them, with
/// one phase span per charge.
pub(crate) struct SessionClock {
    phases: PhaseTimes,
    transfer_us: f64,
    transfer_sweep_us: f64,
    /// Checkpoint, restore and verify traffic.
    pub(crate) recovery_us: f64,
    obs: Obs,
}

impl SessionClock {
    /// Opens the accounts with the session's setup traffic `b`.
    pub(crate) fn new(b: &Breakdown, obs: Obs) -> Self {
        let mut phases = PhaseTimes::default();
        phases.setup_us += b.total_us();
        obs.phase("setup", 0.0, phases.setup_us);
        let transfer_us = b.htod_us + b.dtoh_us;
        SessionClock { phases, transfer_us, transfer_sweep_us: 0.0, recovery_us: 0.0, obs }
    }

    /// Modeled µs so far, phases plus recovery traffic — the clock
    /// [`SolverConfig::deadline_us`] is checked against.
    pub(crate) fn elapsed_us(&self) -> f64 {
        self.phases.total_us() + self.recovery_us
    }

    /// Charges `b` to one phase (`injection`, `backward`, `forward`,
    /// `convergence` or `teardown`) and records its span. The scalar
    /// read-back of `convergence` is sweep transfer time; the final
    /// download of `teardown` is transfer time outside the sweep.
    pub(crate) fn charge(&mut self, phase: &'static str, b: &Breakdown) {
        let t0 = self.elapsed_us();
        let slot = match phase {
            "injection" => &mut self.phases.injection_us,
            "backward" => &mut self.phases.backward_us,
            "forward" => &mut self.phases.forward_us,
            "convergence" => &mut self.phases.convergence_us,
            "teardown" => &mut self.phases.teardown_us,
            _ => unreachable!("no sweep phase is called {phase}"),
        };
        *slot += b.total_us();
        self.obs.phase(phase, t0, self.elapsed_us());
        if matches!(phase, "convergence" | "teardown") {
            self.transfer_us += b.htod_us + b.dtoh_us;
        }
        if phase == "convergence" {
            self.transfer_sweep_us += b.htod_us + b.dtoh_us;
        }
    }

    /// Timing summary as of now (`wall0` is the wall-clock origin of the
    /// whole solve).
    pub(crate) fn timing(&self, wall0: Instant) -> Timing {
        Timing {
            phases: self.phases,
            transfer_us: self.transfer_us,
            transfer_sweep_us: self.transfer_sweep_us,
            wall_us: wall0.elapsed().as_secs_f64() * 1e6,
        }
    }
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
    /// Certified voltages; `None` until the first checkpoint is taken,
    /// meaning the session's own [`SweepSession::start_state`].
    v: Option<Vec<Complex>>,
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
    let start = ckpt.v.is_none().then(|| sess.start_state());
    let v = ckpt.v.as_deref().or(start.as_deref()).expect("a checkpoint or the start state");
    loop {
        report.rollbacks += 1;
        obs.instant("rollback", sess.clock().elapsed_us());
        if !budget.charge() {
            return Err(DriveAbort::Exhausted);
        }
        report.retries += 1;
        match sess.restore(v) {
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

/// The one device iteration loop: the plain level and jump solvers and
/// the supervisor's device rungs all run it, from the state the session
/// was opened with. Each iteration is recorded as an `iter` span in the
/// category of the policy's `obs`.
///
/// With checkpointing off (no fault plan armed) it takes no checkpoints
/// and holds no host copy of the state, so a clean run issues only the
/// sweep's own device operations. A plain solve runs it with a zero
/// retry budget: any fault it would have to roll back aborts.
fn drive<S: SweepSession>(
    sess: &mut S,
    cfg: &SolverConfig,
    policy: &Policy<'_>,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
) -> Result<SolveResult, DriveAbort> {
    let Policy { checkpointing, cancel, obs, wall0 } = *policy;
    let monitor0 = ConvergenceMonitor::new(cfg, sess.source_mag());
    let tol = monitor0.tol();
    // The start state is host-known clean: certifying it costs nothing.
    // `faults: 0` (not the current count) so setup-time corruption
    // taints the run and gets caught by the first certification.
    let mut ckpt = Checkpoint {
        v: None,
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
                            obs.instant("corruption-detected", sess.clock().elapsed_us());
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
        // Ends the solve with `status`: downloads the state, unless faults
        // fired since the last certified checkpoint — an untrusted end is
        // rolled back, never reported.
        macro_rules! finish {
            ($status:expr, $v_pos:expr, $j_pos:expr) => {
                return Ok(SolveResult {
                    v: sess.unpermute(&$v_pos),
                    j: sess.unpermute(&$j_pos),
                    iterations: iters,
                    status: $status,
                    residual,
                    residual_history: history,
                    timing: sess.clock().timing(wall0),
                    fault_report: None,
                })
            };
            ($status:expr) => {{
                if sess.faults_observed() > ckpt.faults {
                    recover!();
                }
                let (v_pos, j_pos) = step!(sess.download());
                finish!($status, v_pos, j_pos)
            }};
        }

        loop {
            if iters >= cfg.max_iter {
                finish!(SolveStatus::MaxIterations);
            }
            iters += 1;
            let t0 = sess.clock().elapsed_us();
            let r = step!(sess.iterate());
            obs.iteration(iters, t0, sess.clock().elapsed_us(), r);
            history.push(r);
            residual = r;
            let tainted = sess.faults_observed() > ckpt.faults;
            if tainted && (!r.is_finite() || r > SPIKE_FACTOR * prev_r.max(tol)) {
                recover!();
            }
            match mon.observe(iters, r) {
                None => {
                    // Deadline and watchdog-cancel checks happen only on
                    // a still-running iteration, mirroring the CPU solver
                    // loops: a converged/failed status is never masked by
                    // a slow clock. The status reports the clock at the
                    // check, before the final download.
                    let elapsed_us = sess.clock().elapsed_us();
                    let deadline_hit =
                        cfg.deadline_us.is_some_and(|budget_us| elapsed_us >= budget_us);
                    let cancelled =
                        cancel.is_some_and(|c| c.load(Ordering::Relaxed));
                    if deadline_hit || cancelled {
                        finish!(SolveStatus::DeadlineExceeded {
                            at_iteration: iters,
                            elapsed_us: elapsed_us as u64,
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
                            ckpt.v = Some(v);
                        } else {
                            ckpt.v = Some(step!(sess.snapshot()));
                        }
                        ckpt.iterations = iters;
                        ckpt.residual = r;
                        ckpt.history = history.clone();
                        ckpt.monitor = mon.clone();
                        ckpt.faults = sess.faults_observed();
                        report.checkpoints += 1;
                        obs.instant("checkpoint", sess.clock().elapsed_us());
                    }
                }
                Some(SolveStatus::Converged) if !tainted => finish!(SolveStatus::Converged),
                Some(SolveStatus::Converged) => {
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
                        finish!(SolveStatus::Converged, v_pos, j_pos);
                    }
                    recover!();
                }
                // A genuine divergence or numerical failure is reported
                // honestly, never rolled back.
                Some(bad) => finish!(bad),
            }
        }
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
                let Ok(mut res) = backend
                    .engine(&self.props, &self.host, self.recorder.as_ref())
                    .solve_warm_arrays(a, cfg, None);
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
        let mut lost = None;
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
            if let Ok(mut res) = attempt {
                if faults == 0 {
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
            lost = lost.or_else(|| loss_error(solver.device()));
            if !budget.charge() {
                break;
            }
        }
        if !self.degrade {
            return Err(match lost {
                Some(e) => ResilienceError::DeviceLost(e),
                None => ResilienceError::BudgetExhausted { retries: budget.used() },
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
                let policy = Policy { checkpointing, cancel: cancel.as_deref(), obs: &obs, wall0 };
                match &jump_arrays {
                    Some(ja) => {
                        let sess = JumpSession::with_obs(&mut dev, ja, obs.clone());
                        run_attempt(sess, cfg, &policy, report, budget)
                    }
                    None => {
                        let strategy = backend.strategy().expect("a level-synchronous GPU backend");
                        let sess = GpuSession::with_obs(&mut dev, a, strategy, None, obs.clone());
                        run_attempt(sess, cfg, &policy, report, budget)
                    }
                }
            }));
            report.faults_injected += dev.fault_log().len() as u32;
            let lost = loss_error(&dev);
            self.last_device = Some(dev);
            match attempt {
                Ok(Ok(res)) => return Ok(res),
                Ok(Err(DriveAbort::Restart)) => continue,
                Ok(Err(abort)) => return Err(abort),
                Err(_panic) => {
                    if let Some(e) = lost {
                        return Err(DriveAbort::Lost(e));
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

/// The loss a device recorded, as the error its next op returns; `None`
/// while the device is alive.
pub(crate) fn loss_error(dev: &Device) -> Option<DeviceError> {
    dev.fault_log().iter().find_map(|f| match f.kind {
        FaultKind::DeviceLost { at_op } => Some(DeviceError::DeviceLost { at_op }),
        _ => None,
    })
}

/// How [`drive`] treats one attempt: whether it checkpoints, the
/// watchdog's cancel flag, where its spans go and the attempt's
/// wall-clock origin.
#[derive(Clone, Copy)]
struct Policy<'a> {
    checkpointing: bool,
    cancel: Option<&'a AtomicBool>,
    obs: &'a Obs,
    wall0: Instant,
}

/// One attempt: drives the session `opened` returns (a setup failure
/// charges the budget).
fn run_attempt<S: SweepSession>(
    opened: Result<S, DeviceError>,
    cfg: &SolverConfig,
    policy: &Policy<'_>,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
) -> Result<SolveResult, DriveAbort> {
    let mut sess = opened.map_err(|e| setup_abort(e, report, budget))?;
    let out = drive(&mut sess, cfg, policy, report, budget);
    report.checkpoint_us += sess.clock().recovery_us;
    out
}

/// A plain (unsupervised) device solve: [`drive`] with checkpointing off
/// and a zero retry budget. A device error panics, as on every plain
/// entry point; so does a fault the loop would have to roll back.
pub(crate) fn run_plain<S: SweepSession>(
    opened: Result<S, DeviceError>,
    wall0: Instant,
    cfg: &SolverConfig,
    obs: &Obs,
) -> SolveResult {
    let mut sess = opened.unwrap_or_else(|e| panic!("{e}"));
    let policy = Policy { checkpointing: false, cancel: None, obs, wall0 };
    let (mut report, mut budget) = (FaultReport::default(), RetryBudget::new(0));
    drive(&mut sess, cfg, &policy, &mut report, &mut budget).unwrap_or_else(|abort| match abort {
        DriveAbort::Lost(e) => panic!("{e}"),
        _ => panic!("device fault during a solve with no recovery budget"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSolver, SerialSolver};
    use powergrid::ieee::ieee13;

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

    /// Every timeline event as its kind (bytes, kernel name, grid and
    /// launch statistics) and modeled µs.
    fn ops(dev: &Device) -> Vec<String> {
        let op = |e: &simt::Event| format!("{:?} {:x}", e.kind, e.modeled_us.to_bits());
        dev.timeline().events().iter().map(op).collect()
    }

    /// A clean supervisor run on every device backend is the plain
    /// engine [`Backend::engine`] builds, bit for bit and op for op.
    #[test]
    fn fault_free_resilient_gpu_matches_plain_gpu_exactly() {
        let a = SolverArrays::new(&ieee13());
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        for backend in Backend::ALL.into_iter().filter(|b| b.is_device()) {
            let name = backend.name();
            let mut plain = backend.engine(&props, &host, None);
            let Ok(want) = plain.solve_warm_arrays(&a, &cfg, None);
            let mut supervisor = ResilientSolver::new(backend, props.clone(), host.clone());
            let res = supervisor.solve(&a, &cfg).expect("clean run cannot fail");
            assert_eq!((res.status, res.iterations), (SolveStatus::Converged, want.iterations));
            assert_eq!(res.v, want.v, "{name}: fault-free supervisor run must be bit-identical");
            let report = res.fault_report.expect("supervisor attaches a report");
            // No plan armed means no faults and no checkpoint traffic.
            let clean = (report.faults_injected, report.checkpoints, report.backends);
            assert_eq!(clean, (0, 0, vec![name.to_string()]));
            let (got_dev, want_dev) = (supervisor.last_device().unwrap(), plain.device().unwrap());
            assert_eq!(ops(got_dev), ops(want_dev), "{name}: device timelines differ");
        }
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
        let (props, host) = rig();
        let supervisor = || {
            let plan = FaultPlan::scripted([(30, FaultKind::DeviceLost { at_op: 0 })]);
            ResilientSolver::new(Backend::Gpu, props.clone(), host.clone())
                .with_fault_plan(plan)
                .with_degradation(false)
        };
        let cfg = SolverConfig::default();
        let err = supervisor()
            .solve(&SolverArrays::new(&ieee13()), &cfg)
            .expect_err("loss with degradation off");
        assert!(err.to_string().contains("unrecoverable"));
        // Both phase kinds report the op the device recorded its loss at.
        let lost = ResilienceError::DeviceLost(DeviceError::DeviceLost { at_op: 30 });
        assert_eq!(err, lost);
        let a3 = Arrays3::new(&powergrid::three_phase::ieee13_unbalanced());
        let err3 = supervisor().solve3(&a3, &cfg.with_recovery(4, 0)).expect_err("3φ loss");
        assert_eq!(err3, lost);
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
