//! Checkpoint/rollback recovery and graceful GPU→CPU degradation: the
//! one fault policy of every device solve.
//!
//! The fault model ([`simt::FaultPlan`]) injects loud errors (failed
//! allocations and launches, device loss) and *silent* data corruption
//! (transfer bit flips, resident-buffer bit flips). This module turns
//! a fallible, faulty device into a solver that still answers within
//! the convergence tolerance of the fault-free answer:
//!
//! * **Checkpoints.** Every `checkpoint_every` iterations the supervisor
//!   downloads the voltage state. A checkpoint taken while *tainted*
//!   (faults observed since the last certified checkpoint) must first
//!   pass certification: the static topology buffers are compared
//!   byte-for-byte against their host copies, and one host-side sweep
//!   per running lane from the downloaded voltages must reproduce a
//!   residual consistent with the device's. The initial checkpoint is
//!   the start state — known clean without touching the device.
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
//!   backend: gpu → multicore → serial, or gpu → serial for a
//!   three-phase solve (multicore has no three-phase form); a tensor
//!   batch degrades the rest of its scenarios to serial solves. The CPU
//!   backends cannot fault, so a degraded solve reproduces the true
//!   answer (or the true failure) deterministically.
//!
//! Both phase kinds run this one policy over the one device loop,
//! [`drive`]: its sessions (level, jump and tensor chunk) differ only in
//! their formulation, their per-bus phasor, [`numc::Complex`] or
//! [`numc::CVec3`], and their *lanes* — a single solve is one, a tensor
//! chunk one per scenario, each with its own [`ConvergenceMonitor`]. A
//! checkpoint, a rollback and the spike gate each cover the whole
//! session. Its NaN-propagating norm ([`Phasor::norm`]) is all the loop
//! needs of the phasor. The lanes of a chunk are independent, so where a
//! lone lane rolls back the chunk judges them one by one: a replay's
//! own failure is the lane's verdict, and a lane the device cannot vouch
//! for at a tainted end is solved on the host instead (see [`drive`]).
//! The [`Backend::Gpu`] rung routes as [`crate::GpuSolver::new`] does
//! (`gpu::route`): a one-lane tensor chunk on small and deep trees, else
//! the level session with the direct or the segmented-scan backward
//! sweep.
//!
//! Neither insurance nor a restart hides its cost: the checkpoint,
//! restore and verify traffic of the attempt that answered, and the
//! modeled device time of every attempt that did not — a restart after
//! a setup fault or a caught panic, or a device rung abandoned before
//! degrading — are charged to the answer's setup phase, so its
//! `timing.total_us()` covers every device op the caller waited for.
//!
//! What a recovered answer is worth: rollbacks restore certified state,
//! and the CPU fallbacks are fault-free. A corruption small enough to
//! pass the spike gate is not rolled back; the iteration absorbs it, and
//! the answer lands within the convergence tolerance of the fault-free
//! one, not on it. Results carry [`SolveStatus::Recovered`] and a
//! [`FaultReport`] so callers can see the run was not clean.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use primitives::ops::{MaxAbsF64, ScanOp};
use simt::{Breakdown, Device, DeviceError, DeviceProps, FaultKind, FaultPlan, HostProps};

use telemetry::Recorder;

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::engine::Backend;
use crate::gpu::{route, BackwardStrategy, GpuSession, Route};
use crate::jump::{JumpArrays, JumpSession};
use crate::obs::Obs;
use crate::phasor::Phasor;
use crate::report::{invalid_config_result, FaultReport, PhaseTimes, SolveResult, Timing};
use crate::serial::SerialSolver;
use crate::status::{ConvergenceMonitor, SolveStatus, SureContinue};
use crate::tensor_batch::Chunk;
use crate::three_phase::{Arrays3, Solve3Result};

/// A residual is anomalous when it exceeds this multiple of the
/// previous iteration's residual (or of the tolerance, near
/// convergence). Exponent-bit corruption changes magnitudes by at least
/// 2×, so genuine FBS decay and injected corruption separate cleanly.
pub(crate) const SPIKE_FACTOR: f64 = 4.0;

/// A session's final voltages and branch currents, in position order.
pub(crate) type Downloaded<V> = (Vec<V>, Vec<V>);

/// One GPU sweep in progress, abstracted over the level (either phase
/// kind), jump and tensor-chunk formulations, so the recovery loop in
/// [`drive`] is written once. Every state vector holds one stripe of `n`
/// buses per lane, in the session's device position order.
pub(crate) trait SweepSession {
    /// The per-bus phasor: [`numc::Complex`] or [`numc::CVec3`].
    type V: Phasor;
    /// The session's modeled-time accounts.
    fn clock(&self) -> &SessionClock;
    /// Which lanes are live at open (a retired scenario is not).
    fn live(&self) -> Vec<bool> {
        vec![true]
    }
    /// Runs `allowed.max` or fewer full FBS iterations — one, except in a
    /// single solve's on-device loop — and returns each one's ∞-norm
    /// voltage update per lane, iteration-major (a frozen lane's slot is
    /// stale). A session running more than one stops after any iteration
    /// `allowed.go_on` rejects, so the monitor never sees an iteration
    /// past one it would have stopped at.
    fn iterate(&mut self, allowed: &Sweeps) -> Result<Vec<f64>, DeviceError>;
    /// Closes the last [`SweepSession::iterate`] once the loop has judged
    /// it: freezes the lanes `live` no longer holds (the session's mask),
    /// charged with the residual read. One lane freezes by ending.
    fn settle(&mut self, _live: &[bool]) -> Result<(), DeviceError> {
        Ok(())
    }
    /// Downloads the voltage state (checkpoint capture).
    fn snapshot(&mut self) -> Result<Vec<Self::V>, DeviceError>;
    /// Re-uploads every static buffer, the given voltages and the mask of
    /// the lanes `live` holds — heals any resident corruption.
    fn restore(&mut self, v_pos: &[Self::V], live: &[bool]) -> Result<(), DeviceError>;
    /// The voltages the session started from (the flat start or the warm
    /// start it was opened with) — what a rollback to the initial
    /// checkpoint restores. Built on demand, so a clean solve never
    /// holds a host copy of it.
    fn start_state(&self) -> Vec<Self::V>;
    /// Compares every static device buffer byte-for-byte against its
    /// host copy.
    fn verify_static(&mut self) -> Result<bool, DeviceError>;
    /// Downloads the final voltages and branch currents.
    fn download(&mut self) -> Result<Downloaded<Self::V>, DeviceError>;
    /// Lays a position-order array out by bus id.
    fn unpermute(&self, pos: &[Self::V]) -> Vec<Self::V>;
    /// One host-side FBS iteration from `v_pos`: returns the residual
    /// each lane would produce and the host-computed branch currents. The
    /// root is checked against the start state, since no kernel rewrites
    /// it.
    fn host_iterate(&self, v_pos: &[Self::V]) -> (Vec<f64>, Vec<Self::V>);
    /// Source voltage magnitude (tolerance scaling).
    fn source_mag(&self) -> f64;
    /// Faults that can have touched the session's state (monotone).
    fn faults_observed(&self) -> u32;
}

/// What one [`SweepSession::iterate`] call may run, set by [`drive`].
pub(crate) struct Sweeps {
    /// Most iterations the call may run: the iterations left under
    /// `max_iter`, or 1 while the attempt checkpoints or a cancel flag is
    /// armed (each iteration then gets its own checks).
    pub(crate) max: u32,
    /// Modeled µs left before [`SolverConfig::deadline_us`], if one is
    /// set; a session fits its launch into it where it can.
    pub(crate) budget_us: Option<f64>,
    /// The test between iterations: another runs only after one at which
    /// the monitor cannot stop.
    pub(crate) go_on: SureContinue,
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
    /// Opens the accounts with the session's setup time, `transfer_us`
    /// of it in transfers.
    pub(crate) fn new(setup_us: f64, transfer_us: f64, obs: Obs) -> Self {
        let phases = PhaseTimes { setup_us, ..PhaseTimes::default() };
        Self::resume(&Timing { phases, transfer_us, ..Timing::default() }, 0.0, obs)
    }

    /// Continues a batch's accounts `t`, so a deadline counts the batch's
    /// time so far; setup since `setup_from` µs is the session's own.
    pub(crate) fn resume(t: &Timing, setup_from: f64, obs: Obs) -> Self {
        obs.phase("setup", setup_from, t.phases.total_us());
        let Timing { phases, transfer_us, transfer_sweep_us, .. } = *t;
        SessionClock { phases, transfer_us, transfer_sweep_us, recovery_us: 0.0, obs }
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

/// The bounded retry budget of one resilient solve, batch chunk or
/// outer session.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetryBudget {
    max: u32,
    /// Retries consumed so far.
    pub(crate) spent: u32,
}

impl RetryBudget {
    pub(crate) fn new(max: u32) -> Self {
        RetryBudget { max, spent: 0 }
    }

    /// Consumes one retry; `false` means the budget is exhausted.
    pub(crate) fn charge(&mut self) -> bool {
        if self.spent >= self.max {
            return false;
        }
        self.spent += 1;
        true
    }
}

/// Why [`drive`] gave up on the current device.
pub(crate) enum DriveAbort {
    /// The device is gone; no retry on it can succeed.
    Lost(DeviceError),
    /// The retry budget ran dry.
    Exhausted,
    /// Session setup failed transiently, or a kernel panicked; retry
    /// (already charged to the budget).
    Restart,
}

/// What a checkpoint saves and a rollback restores of [`drive`]'s
/// progress: the iteration count and residual history, and per lane its
/// monitor, status (`None` while it runs), iterations and last residual.
#[derive(Clone)]
struct Progress {
    iters: u32,
    history: Vec<f64>,
    monitors: Vec<ConvergenceMonitor>,
    status: Vec<Option<SolveStatus>>,
    iterations: Vec<u32>,
    residuals: Vec<f64>,
}

impl Progress {
    fn live(&self) -> Vec<bool> {
        self.status.iter().map(Option::is_none).collect()
    }

    /// Ends every live lane with `status`.
    fn end_live(&mut self, status: SolveStatus) {
        self.status.iter_mut().filter(|s| s.is_none()).for_each(|s| *s = Some(status));
    }
}

/// The last certified-clean state the sweep can roll back to.
struct Checkpoint<V> {
    /// Certified voltages; `None` until the first checkpoint is taken,
    /// meaning the session's own [`SweepSession::start_state`].
    v: Option<Vec<V>>,
    progress: Progress,
    faults: u32,
}

/// Rolls the session back to `ckpt`, charging the budget; loud faults
/// during the restore itself are retried within the same budget.
fn rollback<S: SweepSession>(
    sess: &mut S,
    ckpt: &Checkpoint<S::V>,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
    obs: &Obs,
) -> Result<(), DriveAbort> {
    let start = ckpt.v.is_none().then(|| sess.start_state());
    let v = ckpt.v.as_deref().or(start.as_deref()).expect("a checkpoint or the start state");
    let live = ckpt.progress.live();
    loop {
        report.rollbacks += 1;
        obs.instant("rollback", sess.clock().elapsed_us());
        if !budget.charge() {
            return Err(DriveAbort::Exhausted);
        }
        report.retries += 1;
        match sess.restore(v, &live) {
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

/// What [`drive`] ends with: the downloaded state in position order and
/// each lane's status, iterations and last residual (`MaxIterations`, 0
/// and `+∞` for a lane not live at open).
pub(crate) struct Driven<V> {
    pub(crate) v_pos: Vec<V>,
    pub(crate) j_pos: Vec<V>,
    pub(crate) statuses: Vec<SolveStatus>,
    pub(crate) iterations: Vec<u32>,
    pub(crate) residuals: Vec<f64>,
    /// Lanes of a session of several whose end after a fault the device
    /// cannot vouch for — they did not converge, or failed the host
    /// check — for the caller to solve on the host. Never a lone lane's.
    pub(crate) unvouched: Vec<bool>,
    /// Per iteration, the worst residual over the live lanes.
    history: Vec<f64>,
    /// The session's accounts, its recovery traffic charged to setup.
    pub(crate) timing: Timing,
}

impl<V> Driven<V> {
    /// The single solve a one-lane session ended with.
    fn solved<S: SweepSession<V = V>>(self, sess: &S) -> SolveResult<V> {
        SolveResult {
            v: sess.unpermute(&self.v_pos),
            j: sess.unpermute(&self.j_pos),
            iterations: self.iterations[0],
            status: self.statuses[0],
            residual: self.residuals[0],
            residual_history: self.history,
            timing: self.timing,
            fault_report: None,
        }
    }
}

/// The one device iteration loop of every session, from the state it
/// was opened with. Each iteration is an `iter` span in the category of
/// the policy's `obs`. The session's checkpoint, restore and verify
/// traffic is charged to setup and to the report's `checkpoint_us`.
///
/// With checkpointing off (no fault plan armed) it takes no checkpoints
/// and holds no host copy of the state, so a clean run issues only the
/// sweep's own device operations. A plain solve runs it with a zero
/// retry budget: any fault it would have to roll back aborts.
///
/// A lane whose monitor stops is frozen through the session's mask
/// ([`SweepSession::settle`]); the loop ends once no lane runs or
/// `max_iter` is spent. A session of several lanes, once a fault fired,
/// stays tainted for the rest of its attempt. Its lanes are independent,
/// so it treats them one by one where a lone lane would roll back: a
/// spike with no fault since the last restore is the replay's own and
/// goes to the lane's monitor, and at a tainted end a lane that did not
/// converge, or fails its host check, is returned
/// [`Driven::unvouched`] instead of rolling the chunk back.
///
/// A one-lane [`SweepSession::iterate`] call may run several iterations
/// (the fused on-device loop): those left under `max_iter`, or one while
/// the loop checkpoints or a cancel flag is armed, and the time left
/// before the deadline. Every residual replays through the unchanged
/// per-iteration logic — history, spike gate, monitor — so the verdicts
/// are the one-iteration-per-call verdicts exactly. The deadline and
/// cancel checks run where the device stopped, and a call's modeled time
/// is split evenly over its iterations' spans.
pub(crate) fn drive<S: SweepSession>(
    sess: &mut S,
    cfg: &SolverConfig,
    policy: &Policy<'_>,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
) -> Result<Driven<S::V>, DriveAbort> {
    let out = sweep_lanes(sess, cfg, policy, report, budget);
    let recovery_us = sess.clock().recovery_us;
    report.checkpoint_us += recovery_us;
    out.map(|mut done| {
        done.timing.phases.setup_us += recovery_us;
        done
    })
}

/// The body of [`drive`].
fn sweep_lanes<S: SweepSession>(
    sess: &mut S,
    cfg: &SolverConfig,
    policy: &Policy<'_>,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
) -> Result<Driven<S::V>, DriveAbort> {
    let Policy { checkpointing, cancel, obs, wall0 } = *policy;
    let monitor0 = ConvergenceMonitor::new(cfg, sess.source_mag());
    let tol = monitor0.tol();
    let ran = sess.live();
    let nl = ran.len();
    // The start state is host-known clean: certifying it costs nothing.
    // `faults: 0` (not the current count) so setup-time corruption
    // taints the run and gets caught by the first certification.
    let mut ckpt = Checkpoint {
        v: None,
        progress: Progress {
            iters: 0,
            history: Vec::new(),
            monitors: vec![monitor0; nl],
            status: ran.iter().map(|&r| (!r).then_some(SolveStatus::MaxIterations)).collect(),
            iterations: vec![0; nl],
            residuals: vec![f64::INFINITY; nl],
        },
        faults: 0,
    };
    // The fault count right after the last rollback's restore: until
    // another fault fires, every live lane replays from certified state.
    let mut restored = None;

    'attempt: loop {
        let mut p = ckpt.progress.clone();

        macro_rules! recover {
            () => {{
                rollback(sess, &ckpt, report, budget, obs)?;
                restored = Some(sess.faults_observed());
                continue 'attempt;
            }};
        }
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
                        recover!();
                    }
                }
            };
        }
        // Ends the solve once no lane runs and downloads the state. An
        // end since a fault must earn acceptance: the statics verify, and
        // each converged lane's host sweep lands within tolerance with
        // matching branch currents. A genuine divergence or numerical
        // failure is never rolled back, but a tainted one is not trusted:
        // a lone lane rolls back, a lane of several is left unvouched.
        macro_rules! finish {
            ($v_pos:expr, $j_pos:expr, $unvouched:expr) => {
                return Ok(Driven {
                    v_pos: $v_pos,
                    j_pos: $j_pos,
                    statuses: p.status.iter().map(|s| s.expect("every lane ended")).collect(),
                    iterations: p.iterations,
                    residuals: p.residuals,
                    unvouched: $unvouched,
                    history: p.history,
                    timing: sess.clock().timing(wall0),
                })
            };
            () => {{
                if sess.faults_observed() <= ckpt.faults {
                    let (v_pos, j_pos) = step!(sess.download());
                    finish!(v_pos, j_pos, vec![false; nl])
                }
                let converged = |l: usize| p.status[l] == Some(SolveStatus::Converged);
                if nl == 1 && ran[0] && !converged(0) {
                    recover!();
                }
                if !step!(sess.verify_static()) {
                    recover!();
                }
                let (v_pos, j_pos) = step!(sess.download());
                let (rh, j_h) = sess.host_iterate(&v_pos);
                let n = j_h.len() / nl;
                let vouched = |l: usize| {
                    let lane = l * n..(l + 1) * n;
                    converged(l)
                        && rh[l].is_finite()
                        && rh[l] <= SPIKE_FACTOR * tol
                        && j_pos.len() == j_h.len()
                        && j_pos[lane.clone()].iter().zip(&j_h[lane]).all(|(a, b)| {
                            let d = (*a - *b).norm();
                            d.is_finite() && d <= 1e-4 * (1.0 + b.norm())
                        })
                };
                let unvouched: Vec<bool> = (0..nl).map(|l| ran[l] && !vouched(l)).collect();
                if nl == 1 && unvouched[0] {
                    recover!();
                }
                finish!(v_pos, j_pos, unvouched)
            }};
        }

        loop {
            if p.iters >= cfg.max_iter || p.status.iter().all(Option::is_some) {
                p.end_live(SolveStatus::MaxIterations);
                finish!();
            }
            let t0 = sess.clock().elapsed_us();
            let one = checkpointing || cancel.is_some() || nl > 1;
            let allowed = Sweeps {
                max: if one { 1 } else { cfg.max_iter - p.iters },
                budget_us: cfg.deadline_us.map(|budget_us| budget_us - t0),
                go_on: if nl == 1 { p.monitors[0].sure_continue() } else { SureContinue::NEVER },
            };
            let rs = step!(sess.iterate(&allowed));
            // The call's modeled time, split evenly over its iterations:
            // their spans tile it.
            let (t1, k) = (sess.clock().elapsed_us(), rs.len() / nl);
            let at = |i: usize| if i == k { t1 } else { t0 + (t1 - t0) * i as f64 / k as f64 };
            for (i, row) in rs.chunks(nl).enumerate() {
                p.iters += 1;
                let tainted = sess.faults_observed() > ckpt.faults;
                let live: Vec<usize> = (0..nl).filter(|&l| p.status[l].is_none()).collect();
                let mut spike = false;
                for &l in &live {
                    let r = row[l];
                    spike |= !r.is_finite() || r > SPIKE_FACTOR * p.residuals[l].max(tol);
                    (p.residuals[l], p.iterations[l]) = (r, p.iters);
                }
                let worst = live.iter().map(|&l| row[l]).reduce(MaxAbsF64::combine);
                let worst = worst.expect("a live lane");
                obs.iteration(p.iters, at(i), at(i + 1), worst);
                p.history.push(worst);
                let replayed = nl > 1 && restored == Some(sess.faults_observed());
                if tainted && spike && !replayed {
                    step!(sess.settle(&p.live()));
                    recover!();
                }
                let mut froze = false;
                for &l in &live {
                    if let Some(status) = p.monitors[l].observe(p.iters, row[l]) {
                        (p.status[l], froze) = (Some(status), true);
                    }
                }
                debug_assert!(!froze || i + 1 == k, "an iteration ran past a stop");
                // The device ran on past this one: nothing can stop the
                // loop here.
                if !froze && i + 1 < k {
                    continue;
                }
                step!(sess.settle(&p.live()));
                if p.status.iter().all(Option::is_some) {
                    finish!();
                }
                // Deadline and watchdog-cancel checks happen only while a
                // lane still runs, mirroring the CPU solver loops: a
                // converged/failed status is never masked by a slow clock.
                // The status reports the clock at the check, before the
                // final download.
                let elapsed_us = sess.clock().elapsed_us();
                let deadline_hit = cfg.deadline_us.is_some_and(|budget_us| elapsed_us >= budget_us);
                let cancelled = cancel.is_some_and(|c| c.load(Ordering::Relaxed));
                if deadline_hit || cancelled {
                    let at_iteration = p.iters;
                    let elapsed_us = elapsed_us as u64;
                    p.end_live(SolveStatus::DeadlineExceeded { at_iteration, elapsed_us });
                    finish!();
                }
                if checkpointing && p.iters.is_multiple_of(cfg.checkpoint_every) {
                    if tainted {
                        // Certification: statics exact, and one host
                        // sweep per running lane from the captured
                        // voltages must agree with what the device just
                        // reported (a frozen lane is judged at the end).
                        if !step!(sess.verify_static()) {
                            recover!();
                        }
                        let v = step!(sess.snapshot());
                        let (rh, _) = sess.host_iterate(&v);
                        let r = &p.residuals;
                        if (0..nl).any(|l| {
                            p.status[l].is_none()
                                && (!rh[l].is_finite() || rh[l] > SPIKE_FACTOR * r[l].max(tol))
                        }) {
                            recover!();
                        }
                        ckpt.v = Some(v);
                    } else {
                        ckpt.v = Some(step!(sess.snapshot()));
                    }
                    // A lane frozen before a certified checkpoint keeps
                    // currents no later certification reads: a session of
                    // several lanes stays tainted for the whole attempt.
                    let faults = if nl == 1 { sess.faults_observed() } else { 0 };
                    (ckpt.progress, ckpt.faults) = (p.clone(), faults);
                    report.checkpoints += 1;
                    obs.instant("checkpoint", sess.clock().elapsed_us());
                }
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
/// devices, and degrades gpu → multicore → serial (three-phase solves,
/// [`ResilientSolver::solve3`]: gpu → serial).
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
        let (backend, mut jump) = (self.backend, None);
        self.supervise(
            backend,
            (a.len(), a.source),
            cfg,
            |s, rung| {
                let Ok(res) = rung
                    .engine(&s.props, &s.host, s.recorder.as_ref())
                    .solve_warm_arrays(a, cfg, None);
                res
            },
            |rung| rung.fallback().expect("device backends have a fallback"),
            |dev, at| match (backend, backend.strategy()) {
                (Backend::Gpu, _) => match route(dev.props(), a, false) {
                    Route::Fused => at.run(|obs| Chunk::open(dev, a, None, cfg.max_iter, obs)),
                    Route::Level(s) => at.run(|obs| GpuSession::with_obs(dev, a, s, None, obs)),
                },
                (_, Some(strategy)) => {
                    at.run(|obs| GpuSession::with_obs(dev, a, strategy, None, obs))
                }
                (_, None) => {
                    let ja = jump.get_or_insert_with(|| JumpArrays::new(a));
                    at.run(|obs| JumpSession::with_obs(dev, ja, obs))
                }
            },
        )
    }

    /// Solves a three-phase network from prepared arrays, recovering
    /// from injected faults with the same checkpointed device loop as
    /// [`ResilientSolver::solve`]. Every device backend runs the level
    /// session over phase triples with its pinned backward strategy, or
    /// the segmented scan; the CPU rung is
    /// always the serial sweep, because multicore has no three-phase
    /// form.
    pub fn solve3(
        &mut self,
        a: &Arrays3,
        cfg: &SolverConfig,
    ) -> Result<Solve3Result, ResilienceError> {
        let start = if self.backend.is_device() { self.backend } else { Backend::Serial };
        // Not routed (`crate::gpu::level_strategy`): recovered answers
        // off the segmented scan's op stream are the ones the oracle's
        // three-phase family vets at its 1e-8·|V0| bound.
        let strategy = self.backend.strategy().unwrap_or(BackwardStrategy::SegScan);
        self.supervise(
            start,
            (a.len(), a.source),
            cfg,
            |s, _| match &s.recorder {
                Some(rec) => SerialSolver::new(s.host.clone()).with_recorder(rec.clone()),
                None => SerialSolver::new(s.host.clone()),
            }
            .solve_arrays(a, cfg),
            |_| Backend::Serial,
            |dev, at| at.run(|obs| GpuSession::with_obs(dev, a, strategy, None, obs)),
        )
    }

    /// The one recovery policy of both phase kinds: device attempts on
    /// `start` until one completes, then — on device loss or an exhausted
    /// budget, when degradation is on — the `next` rung, until a CPU rung
    /// (`cpu`, which cannot fault) answers. `attempt` opens the session
    /// on a fresh device and runs it. The devices of the attempts that
    /// did not answer are charged to the answer's setup phase.
    fn supervise<V: Copy + Default>(
        &mut self,
        start: Backend,
        (n, source): (usize, V),
        cfg: &SolverConfig,
        cpu: impl Fn(&Self, Backend) -> SolveResult<V>,
        next: impl Fn(Backend) -> Backend,
        mut attempt: impl FnMut(&mut Device, Attempt<'_>) -> Result<SolveResult<V>, DriveAbort>,
    ) -> Result<SolveResult<V>, ResilienceError> {
        let mut report = FaultReport::default();
        if cfg.validate().is_err() {
            let mut res = invalid_config_result(n, source);
            report.backends.push(start.name().to_string());
            res.fault_report = Some(report);
            return Ok(res);
        }
        let mut budget = RetryBudget::new(cfg.max_recoveries);
        let mut discarded_us = 0.0;
        let mut backend = start;
        loop {
            report.backends.push(backend.name().to_string());
            let solved = if backend.is_device() {
                self.run_device(cfg, &mut report, &mut budget, &mut discarded_us, &mut attempt)
            } else {
                Ok(cpu(self, backend))
            };
            match solved {
                Ok(mut res) => {
                    res.timing.phases.setup_us += discarded_us;
                    res.status = upgraded(res.status, &report);
                    res.fault_report = Some(report);
                    return Ok(res);
                }
                Err(_) if self.degrade => backend = next(backend),
                Err(DriveAbort::Lost(e)) => return Err(ResilienceError::DeviceLost(e)),
                Err(_) => return Err(ResilienceError::BudgetExhausted { retries: report.retries }),
            }
        }
    }

    /// Runs attempts on fresh devices until one completes or the
    /// backend must be abandoned, adding each device that did not answer
    /// to `discarded_us`.
    fn run_device<V>(
        &mut self,
        cfg: &SolverConfig,
        report: &mut FaultReport,
        budget: &mut RetryBudget,
        discarded_us: &mut f64,
        attempt: &mut impl FnMut(&mut Device, Attempt<'_>) -> Result<SolveResult<V>, DriveAbort>,
    ) -> Result<SolveResult<V>, DriveAbort> {
        let checkpointing = self.plan.is_some();
        let cancel = self.cancel.clone();
        let obs = Obs::new(self.recorder.as_ref(), "recovery");
        loop {
            let mut dev = Device::new(self.props.clone());
            if let Some(plan) = &self.plan {
                dev.arm_faults(plan.clone());
            }
            let attempted = guarded(&mut dev, report, budget, |dev, report, budget| {
                let policy = Policy {
                    checkpointing,
                    cancel: cancel.as_deref(),
                    obs: &obs,
                    wall0: Instant::now(),
                };
                attempt(dev, Attempt { cfg, policy, report, budget })
            });
            report.faults_injected += dev.fault_log().len() as u32;
            let device_us = dev.timeline().total_modeled_us();
            self.last_device = Some(dev);
            if attempted.is_err() {
                *discarded_us += device_us;
            }
            if !matches!(attempted, Err(DriveAbort::Restart)) {
                return attempted;
            }
        }
    }
}

/// Converged-but-not-clean runs are reported as recovered.
pub(crate) fn upgraded(status: SolveStatus, report: &FaultReport) -> SolveStatus {
    if status == SolveStatus::Converged
        && (report.faults_injected > 0 || report.retries > 0 || report.degraded())
    {
        SolveStatus::Recovered { faults: report.faults_injected, retries: report.retries }
    } else {
        status
    }
}

/// Runs one device attempt, catching its kernel panics (corrupted index
/// buffers can drive kernels out of bounds): device loss if the device
/// recorded one, else a restart charged to the budget.
pub(crate) fn guarded<T>(
    dev: &mut Device,
    report: &mut FaultReport,
    budget: &mut RetryBudget,
    attempt: impl FnOnce(&mut Device, &mut FaultReport, &mut RetryBudget) -> Result<T, DriveAbort>,
) -> Result<T, DriveAbort> {
    let attempted = catch_unwind(AssertUnwindSafe(|| attempt(dev, report, budget)));
    attempted.unwrap_or_else(|_panic| {
        Err(loss_error(dev).map_or_else(|| restart(report, budget), DriveAbort::Lost))
    })
}

/// Maps a session-setup failure: device loss aborts the backend, any
/// other error charges the budget and asks for a restart.
pub(crate) fn setup_abort(
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
    restart(report, budget)
}

/// Charges a restart to the budget (`Exhausted` once it is spent).
fn restart(report: &mut FaultReport, budget: &mut RetryBudget) -> DriveAbort {
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
pub(crate) struct Policy<'a> {
    pub(crate) checkpointing: bool,
    pub(crate) cancel: Option<&'a AtomicBool>,
    pub(crate) obs: &'a Obs,
    pub(crate) wall0: Instant,
}

/// One device attempt of the supervisor: the solve's config, the
/// attempt's [`Policy`] and the accounts it charges.
struct Attempt<'a> {
    cfg: &'a SolverConfig,
    policy: Policy<'a>,
    report: &'a mut FaultReport,
    budget: &'a mut RetryBudget,
}

impl Attempt<'_> {
    /// Drives the session `open` returns when handed the attempt's span
    /// sink (a setup failure charges the budget).
    fn run<S: SweepSession>(
        self,
        open: impl FnOnce(Obs) -> Result<S, DeviceError>,
    ) -> Result<SolveResult<S::V>, DriveAbort> {
        let Attempt { cfg, policy, report, budget } = self;
        let mut sess = open(policy.obs.clone()).map_err(|e| setup_abort(e, report, budget))?;
        drive(&mut sess, cfg, &policy, report, budget).map(|done| done.solved(&sess))
    }
}

/// A plain (unsupervised) device solve: [`drive`] with checkpointing off
/// and a zero retry budget. A device error panics, as on every plain
/// entry point; so does a fault the loop would have to roll back.
pub(crate) fn run_plain<S: SweepSession>(
    opened: Result<S, DeviceError>,
    wall0: Instant,
    cfg: &SolverConfig,
    obs: &Obs,
) -> SolveResult<S::V> {
    let mut sess = opened.unwrap_or_else(|e| panic!("{e}"));
    let policy = Policy { checkpointing: false, cancel: None, obs, wall0 };
    let (mut report, mut budget) = (FaultReport::default(), RetryBudget::new(0));
    match drive(&mut sess, cfg, &policy, &mut report, &mut budget) {
        Ok(done) => done.solved(&sess),
        Err(DriveAbort::Lost(e)) => panic!("{e}"),
        Err(_) => panic!("device fault during a solve with no recovery budget"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpuSolver, SerialSolver};
    use numc::{c, CMat3, CVec3};
    use powergrid::gen::{balanced_binary, star, GenSpec};
    use powergrid::ieee::ieee13;
    use powergrid::three_phase::{ieee13_unbalanced, ThreePhaseBuilder};
    use rng::rngs::StdRng;
    use rng::SeedableRng;

    fn rig() -> (DeviceProps, HostProps) {
        (DeviceProps::paper_rig(), HostProps::paper_rig())
    }

    #[test]
    fn retry_budget_exhausts() {
        let mut b = RetryBudget::new(2);
        assert!(b.charge());
        assert!(b.charge());
        assert!(!b.charge());
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
    /// engine [`Backend::engine`] builds, bit for bit and op for op; on
    /// [`Backend::Gpu`] both take the same route: the fused sweep on
    /// IEEE-13 and a 1 023-bus binary tree, the level path on a 1 000-bus
    /// star.
    #[test]
    fn fault_free_resilient_gpu_matches_plain_gpu_exactly() {
        let a3 = Arrays3::new(&ieee13_unbalanced());
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        // The supervisor after a clean run on `backend` that matched the
        // plain engine, and the plain engine's kernel names.
        let clean_run = |backend: Backend, a: &SolverArrays| {
            let name = backend.name();
            let mut plain = backend.engine(&props, &host, None);
            let Ok(want) = plain.solve_warm_arrays(a, &cfg, None);
            let mut supervisor = ResilientSolver::new(backend, props.clone(), host.clone());
            let res = supervisor.solve(a, &cfg).expect("clean run cannot fail");
            assert_eq!((res.status, res.iterations), (SolveStatus::Converged, want.iterations));
            assert_eq!(res.v, want.v, "{name}: fault-free supervisor run must be bit-identical");
            let report = res.fault_report.expect("supervisor attaches a report");
            // No plan armed means no faults and no checkpoint traffic.
            let clean = (report.faults_injected, report.checkpoints, report.backends);
            assert_eq!(clean, (0, 0, vec![name.to_string()]));
            let (got_dev, want_dev) = (supervisor.last_device().unwrap(), plain.device().unwrap());
            assert_eq!(ops(got_dev), ops(want_dev), "{name}: device timelines differ");
            let kernels: Vec<&str> =
                want_dev.timeline().breakdown().per_kernel_us.into_keys().collect();
            (supervisor, kernels)
        };
        let a = SolverArrays::new(&ieee13());
        for backend in Backend::ALL.into_iter().filter(|b| b.is_device()) {
            let name = backend.name();
            let (mut supervisor, _) = clean_run(backend, &a);

            // Three-phase: every device backend runs the plain level path
            // with its pinned strategy, or the segmented scan.
            let strategy = backend.strategy().unwrap_or(BackwardStrategy::SegScan);
            let mut plain3 = GpuSolver::with_strategy(Device::new(props.clone()), strategy);
            let want3 = plain3.solve3_warm(&a3, &cfg, None);
            let res3 = supervisor.solve3(&a3, &cfg).expect("clean run cannot fail");
            assert_eq!((res3.status, res3.iterations), (SolveStatus::Converged, want3.iterations));
            assert_eq!(res3.v, want3.v, "{name}: fault-free 3φ run must be bit-identical");
            let report3 = res3.fault_report.expect("supervisor attaches a report");
            assert_eq!((report3.faults_injected, report3.checkpoints), (0, 0));
            let got3 = ops(supervisor.last_device().unwrap());
            assert_eq!(got3, ops(plain3.device()), "{name}: 3φ device timelines differ");
        }

        let (spec, rng) = (GenSpec::default(), || StdRng::seed_from_u64(7));
        let routes = [
            (&ieee13(), "tensor_sweep"),
            (&balanced_binary(1023, &spec, &mut rng()), "tensor_sweep"),
            (&star(1000, &spec, &mut rng()), "fbs_inject"),
        ];
        for (net, kernel) in routes {
            let (_, kernels) = clean_run(Backend::Gpu, &SolverArrays::new(net));
            let buses = net.num_buses();
            assert!(kernels.contains(&kernel), "{buses} buses ran {kernels:?}, not {kernel}");
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

    /// A scripted allocation failure at the last allocation of setup on
    /// two fresh devices forces two restarts: the answer's modeled time
    /// is the clean run's plus both discarded devices' uploads.
    #[test]
    fn restarted_attempts_are_charged_to_the_answer() {
        let a = SolverArrays::new(&ieee13());
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let supervised = |plan: FaultPlan| {
            let mut supervisor = ResilientSolver::new(Backend::Gpu, props.clone(), host.clone())
                .with_fault_plan(plan);
            let res = supervisor.solve(&a, &cfg).expect("recoverable faults must not error");
            (res, supervisor)
        };
        let (clean, supervisor) = supervised(FaultPlan::seeded(0, 0.0));
        // Every timeline event is one fault-plan op: setup's last
        // allocation is op `first`, and a device aborted there spent
        // `upload_us`.
        let events = supervisor.last_device().unwrap().timeline().events();
        let sweep = events.iter().position(|e| e.label() == "tensor_sweep").expect("a sweep");
        let first = events[..sweep].iter().rposition(|e| e.label() == "<alloc>").expect("allocs");
        let upload_us: f64 = events[..first].iter().map(|e| e.modeled_us).sum();
        assert!(upload_us > 0.0);

        let second = 2 * first as u64 + 1;
        let plan = FaultPlan::scripted([
            (first as u64, FaultKind::AllocOom),
            (second, FaultKind::AllocOom),
        ]);
        let (res, _) = supervised(plan);
        let report = res.fault_report.as_ref().unwrap();
        assert_eq!((report.faults_injected, report.retries), (2, 2), "{}", res.status);
        assert_eq!(res.v, clean.v);
        let want = clean.timing.total_us() + 2.0 * upload_us;
        let got = res.timing.total_us();
        assert!((got - want).abs() <= 1e-9 * want, "charged {got} µs, attempts took {want} µs");
    }

    /// A clean supervised solve with a plan armed checkpoints, and its
    /// answer's modeled time is the plain solve's plus that checkpoint
    /// traffic, on the fused route, on the level path and on three phases.
    #[test]
    fn checkpoint_traffic_is_charged_to_the_answer() {
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let supervisor = || {
            ResilientSolver::new(Backend::Gpu, props.clone(), host.clone())
                .with_fault_plan(FaultPlan::seeded(0, 0.0))
        };
        let charged = |name: &str, plain: f64, got: f64, report: Option<FaultReport>| {
            let report = report.expect("supervisor attaches a report");
            assert!(report.checkpoints > 0 && report.checkpoint_us > 0.0, "{name}: {report:?}");
            let want = plain + report.checkpoint_us;
            assert!((got - want).abs() <= 1e-9 * want, "{name}: charged {got} µs, ran {want} µs");
        };
        let (spec, rng) = (GenSpec::default(), || StdRng::seed_from_u64(7));
        // The plain solve's device has the plan armed too, so the fused
        // route runs one sweep per launch on both, as a checkpointing
        // attempt does.
        let armed = || {
            let mut dev = Device::new(props.clone());
            dev.arm_faults(FaultPlan::seeded(0, 0.0));
            dev
        };
        for (name, net) in [
            ("fused", balanced_binary(1023, &spec, &mut rng())),
            ("level", star(1000, &spec, &mut rng())),
        ] {
            let a = SolverArrays::new(&net);
            let plain = GpuSolver::new(armed()).solve_arrays(&a, &cfg);
            let res = supervisor().solve(&a, &cfg).unwrap();
            charged(name, plain.timing.total_us(), res.timing.total_us(), res.fault_report);
        }
        let a3 = Arrays3::new(&ieee13_unbalanced());
        // The supervisor's three-phase rung keeps the segmented scan.
        let plain3 = GpuSolver::with_strategy(Device::new(props.clone()), BackwardStrategy::SegScan)
            .solve3_warm(&a3, &cfg, None);
        let res3 = supervisor().solve3(&a3, &cfg).unwrap();
        charged("3φ", plain3.timing.total_us(), res3.timing.total_us(), res3.fault_report);
    }

    /// Half the device ops a clean supervised [`Backend::Gpu`] solve of
    /// `a` issues with a plan armed: an op inside the solve, whichever
    /// route it takes.
    fn mid_solve_op(a: &SolverArrays, cfg: &SolverConfig) -> u64 {
        let (props, host) = rig();
        let clean = FaultPlan::seeded(0, 0.0);
        ResilientSolver::new(Backend::Gpu, props, host)
            .with_fault_plan(clean.clone())
            .solve(a, cfg)
            .expect("a clean plan cannot fail the solve");
        clean.ops_started() / 2
    }

    #[test]
    fn device_loss_degrades_to_multicore_with_the_right_answer() {
        let net = ieee13();
        let a = SolverArrays::new(&net);
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let serial = SerialSolver::new(host.clone()).solve(&net, &cfg);
        let lost_at = mid_solve_op(&a, &cfg);
        let plan = FaultPlan::scripted([(lost_at, FaultKind::DeviceLost { at_op: 0 })]);
        let mut solver =
            ResilientSolver::new(Backend::Gpu, props, host).with_fault_plan(plan);
        let res = solver.solve(&a, &cfg).expect("degradation must rescue the solve");
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
        let a = SolverArrays::new(&ieee13());
        let cfg = SolverConfig::default();
        let lost_at = mid_solve_op(&a, &cfg);
        let supervisor = || {
            let plan = FaultPlan::scripted([(lost_at, FaultKind::DeviceLost { at_op: 0 })]);
            ResilientSolver::new(Backend::Gpu, props.clone(), host.clone())
                .with_fault_plan(plan)
                .with_degradation(false)
        };
        let err = supervisor().solve(&a, &cfg).expect_err("loss with degradation off");
        assert!(err.to_string().contains("unrecoverable"));
        // Both phase kinds report the op the device recorded its loss at.
        let lost = ResilienceError::DeviceLost(DeviceError::DeviceLost { at_op: lost_at });
        assert_eq!(err, lost);
        let a3 = Arrays3::new(&ieee13_unbalanced());
        let err3 = supervisor().solve3(&a3, &cfg.with_recovery(4, 0)).expect_err("3φ loss");
        assert_eq!(err3, lost);
    }

    #[test]
    fn cpu_backends_pass_through_unchanged() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let (props, host) = rig();
        let serial = SerialSolver::new(host.clone()).solve(&net, &cfg);
        let res = ResilientSolver::new(Backend::Serial, props.clone(), host.clone())
            .solve(&SolverArrays::new(&net), &cfg)
            .unwrap();
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.v, serial.v);
        assert_eq!(res.fault_report.unwrap().backends, vec!["serial".to_string()]);

        // Three-phase: either CPU backend answers with the serial sweep
        // and opens no device.
        let a3 = Arrays3::new(&ieee13_unbalanced());
        let serial3 = SerialSolver::new(host.clone()).solve_arrays(&a3, &cfg);
        for backend in [Backend::Serial, Backend::Multicore] {
            let mut supervisor = ResilientSolver::new(backend, props.clone(), host.clone());
            let res3 = supervisor.solve3(&a3, &cfg).unwrap();
            assert_eq!(res3.status, SolveStatus::Converged);
            assert_eq!(res3.v, serial3.v);
            assert_eq!(res3.fault_report.unwrap().backends, vec!["serial".to_string()]);
            assert!(supervisor.last_device().is_none(), "{}: opened a device", backend.name());
        }
    }

    /// A three-phase session whose first download comes back with one
    /// NaN phase at a zero-load leaf, with a fault on record: what a
    /// resident bit flip in the voltages leaves when it lands there on
    /// the converging iteration. Everything else is the real session.
    struct NanLeafPhase<'a> {
        sess: GpuSession<'a, CVec3>,
        leaf: usize,
        fired: bool,
    }

    impl SweepSession for NanLeafPhase<'_> {
        type V = CVec3;
        fn clock(&self) -> &SessionClock {
            self.sess.clock()
        }
        fn iterate(&mut self, allowed: &Sweeps) -> Result<Vec<f64>, DeviceError> {
            self.sess.iterate(allowed)
        }
        fn snapshot(&mut self) -> Result<Vec<CVec3>, DeviceError> {
            self.sess.snapshot()
        }
        fn restore(&mut self, v_pos: &[CVec3], live: &[bool]) -> Result<(), DeviceError> {
            self.sess.restore(v_pos, live)
        }
        fn start_state(&self) -> Vec<CVec3> {
            self.sess.start_state()
        }
        fn verify_static(&mut self) -> Result<bool, DeviceError> {
            self.sess.verify_static()
        }
        fn download(&mut self) -> Result<Downloaded<CVec3>, DeviceError> {
            let (mut v, j) = self.sess.download()?;
            if !std::mem::replace(&mut self.fired, true) {
                v[self.leaf].a = c(f64::NAN, 0.0);
            }
            Ok((v, j))
        }
        fn unpermute(&self, pos: &[CVec3]) -> Vec<CVec3> {
            self.sess.unpermute(pos)
        }
        fn host_iterate(&self, v_pos: &[CVec3]) -> (Vec<f64>, Vec<CVec3>) {
            self.sess.host_iterate(v_pos)
        }
        fn source_mag(&self) -> f64 {
            self.sess.source_mag()
        }
        fn faults_observed(&self) -> u32 {
            self.sess.faults_observed() + 1
        }
    }

    /// The leaf's load current is zero whatever its voltage, so the
    /// branch-current cross-check cannot see a NaN phase there: only the
    /// host residual can, and only if the three-phase norm keeps the NaN.
    #[test]
    fn a_lone_nan_phase_at_a_zero_load_leaf_is_rolled_back() {
        let mut b = ThreePhaseBuilder::new(CVec3::balanced(2400.0));
        b.add_bus(CVec3::ZERO);
        b.add_bus(CVec3::splat(c(50e3, 20e3)));
        b.add_bus(CVec3::ZERO);
        b.add_bus(CVec3::splat(c(30e3, 10e3)));
        b.connect(0, 1, CMat3::diag(c(0.4, 0.3)));
        b.connect(1, 2, CMat3::diag(c(0.5, 0.2)));
        b.connect(1, 3, CMat3::diag(c(0.3, 0.1)));
        let a = Arrays3::new(&b.build().unwrap());
        let leaf = a.levels.order.iter().position(|&bus| bus == 2).unwrap();
        let cfg = SolverConfig::default();
        let want = SerialSolver::new(HostProps::paper_rig()).solve_arrays(&a, &cfg);
        assert!(want.converged());

        let mut dev = Device::new(DeviceProps::paper_rig());
        let strategy = BackwardStrategy::SegScan;
        let sess = GpuSession::with_obs(&mut dev, &a, strategy, None, Obs::default()).unwrap();
        let mut v_pos = a.levels.permute(&want.v);
        v_pos[leaf].a = c(f64::NAN, 0.0);
        assert!(sess.host_iterate(&v_pos).0[0].is_nan(), "the host residual drops a NaN phase");

        let mut sess = NanLeafPhase { sess, leaf, fired: false };
        let (obs, wall0) = (Obs::default(), Instant::now());
        let policy = Policy { checkpointing: false, cancel: None, obs: &obs, wall0 };
        let (mut report, mut budget) = (FaultReport::default(), RetryBudget::new(4));
        let Ok(done) = drive(&mut sess, &cfg, &policy, &mut report, &mut budget) else {
            panic!("one rollback fits the budget");
        };
        let res = done.solved(&sess);
        assert_eq!((res.status, report.rollbacks), (SolveStatus::Converged, 1));
        for (x, y) in res.v.iter().zip(&want.v) {
            for (p, q) in x.phases().iter().zip(y.phases()) {
                assert!((*p - q).abs() < 1e-8 * 2400.0, "{x:?} vs {y:?}");
            }
        }
    }
}
