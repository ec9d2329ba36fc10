//! Request/response robustness layer over the resilient solvers.
//!
//! [`crate::ResilientSolver`] makes one solve survive device faults;
//! this module makes a *stream* of solves survive a faulty device,
//! overload, and hung work. It wraps the single-phase, three-phase and
//! batch solvers behind a small service with four policies:
//!
//! * **Deadlines.** Every request carries a modeled-time budget
//!   ([`crate::SolverConfig::deadline_us`], defaulted from
//!   [`ServiceConfig::deadline`]) checked against the [`simt`] timeline
//!   each iteration; a solve that runs past it returns its partial state
//!   as [`SolveStatus::DeadlineExceeded`]. A separate wall-clock
//!   *watchdog* thread guards the single- and three-phase device paths
//!   against hung simulation: it sets a cooperative cancel flag that the
//!   recovery loop polls at each convergence check. The watchdog never touches
//!   the device, so arming it does not perturb the fault stream.
//! * **Retry with backoff.** Transient device failures (an in-solve
//!   recovery budget running dry, a loud batch fault) are retried up to
//!   [`ServiceConfig::max_retries`] times with exponential backoff plus
//!   seeded jitter. The backoff is *modeled* time — recorded on the
//!   response and added to its service cost — so replays are exact.
//!   This budget is distinct from the in-solve rollback budget
//!   ([`crate::SolverConfig::max_recoveries`]): that one bounds
//!   checkpoint rollbacks inside an attempt, this one bounds whole-solve
//!   re-submissions.
//! * **Circuit breaker.** After [`ServiceConfig::breaker_threshold`]
//!   consecutive unrecoverable device failures the breaker *opens* and
//!   new requests route straight to the CPU fallback (multicore for
//!   single-phase and batch, serial for three-phase — both reproduce the
//!   device answer to reference accuracy). After
//!   [`ServiceConfig::breaker_probe_after`] open-served requests the
//!   breaker goes *half-open* and the next request probes the device:
//!   success closes the breaker, failure re-opens it. Every transition
//!   is recorded as a [`simt::EventKind::Marker`] on the service
//!   timeline.
//! * **Bounded admission.** The queue holds at most
//!   [`ServiceConfig::queue_capacity`] requests; arrivals beyond that
//!   are shed with [`Outcome::Rejected`] carrying the observed queue
//!   depth. [`SolveService::drain`] serves whatever is queued on
//!   shutdown, in order.
//!
//! Everything is deterministic: the same request stream, fault-plan
//! seed and service seed reproduce identical statuses, retry counts and
//! breaker transitions, because no decision reads the wall clock (the
//! watchdog, when armed, only accelerates an abort that the modeled
//! deadline would eventually take).

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use numc::Complex;
use powergrid::three_phase::ThreePhaseNetwork;
use powergrid::RadialNetwork;
use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::{Device, DeviceProps, FaultPlan, HostProps, Timeline};

use telemetry::trace::ArgValue;
use telemetry::{Recorder, Trace};

use crate::arrays::SolverArrays;
use crate::config::SolverConfig;
use crate::engine::Backend;
use crate::multicore::MulticoreSolver;
use crate::recovery::{loss_error, ResilienceError, ResilientSolver};
use crate::report::{SolveResult, Timing};
use crate::status::SolveStatus;
use crate::tensor_batch::{scenarios_per_sec, Scenarios, TensorBatchResult, TensorBatchSolver};
use crate::three_phase::{Arrays3, Serial3Solver, Solve3Result};

/// A per-request time budget.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Deadline {
    /// Modeled-time budget, µs, applied to any request whose own
    /// [`SolverConfig::deadline_us`] is unset. `None` = unbounded.
    pub modeled_us: Option<f64>,
    /// Wall-clock watchdog for the single- and three-phase device paths. `None`
    /// disarms the watchdog (required for bit-exact replay timing
    /// independence, though decisions stay deterministic either way).
    pub wall: Option<Duration>,
}

impl Deadline {
    /// No budget at all.
    pub fn none() -> Self {
        Deadline::default()
    }

    /// A modeled-time budget only.
    pub fn modeled_us(us: f64) -> Self {
        assert!(us > 0.0 && us.is_finite(), "deadline must be positive and finite");
        Deadline { modeled_us: Some(us), wall: None }
    }

    /// Adds a wall-clock watchdog.
    pub fn with_wall(mut self, wall: Duration) -> Self {
        self.wall = Some(wall);
        self
    }
}

/// Tunables of one [`SolveService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Backend device attempts run on (default [`Backend::Gpu`]).
    pub backend: Backend,
    /// Maximum queued (not yet started) requests; arrivals beyond this
    /// are shed with [`Outcome::Rejected`].
    pub queue_capacity: usize,
    /// Service-level retries per request for *transient* device
    /// failures, distinct from the in-solve rollback budget.
    pub max_retries: u32,
    /// First backoff interval, modeled µs (doubles per retry).
    pub backoff_base_us: u64,
    /// Backoff ceiling, modeled µs (jitter is added on top).
    pub backoff_cap_us: u64,
    /// Consecutive unrecoverable device failures that open the breaker.
    pub breaker_threshold: u32,
    /// Requests served on the fallback while open before the breaker
    /// goes half-open and probes the device again.
    pub breaker_probe_after: u32,
    /// Serve CPU fallback after device failure / while open (default
    /// true). With `false`, exhausted requests return
    /// [`Outcome::Failed`] instead — strict device-only mode.
    pub fallback: bool,
    /// Seed for the backoff jitter stream (replayable).
    pub seed: u64,
    /// Default per-request deadline.
    pub deadline: Deadline,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            backend: Backend::Gpu,
            queue_capacity: 16,
            max_retries: 3,
            backoff_base_us: 64,
            backoff_cap_us: 4096,
            breaker_threshold: 3,
            breaker_probe_after: 4,
            fallback: true,
            seed: 0x5eed,
            deadline: Deadline::none(),
        }
    }
}

/// Circuit-breaker state over the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Device healthy: requests attempt the device.
    Closed,
    /// Device written off: requests route straight to the CPU fallback.
    Open,
    /// Probation: the next request probes the device; success closes
    /// the breaker, failure re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Marker/report name.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One unit of work submitted to the service.
#[derive(Clone, Debug)]
pub enum Request {
    /// Single-phase solve.
    Solve {
        /// The network to solve.
        net: RadialNetwork,
        /// Solver configuration (deadline defaulted from the service).
        cfg: SolverConfig,
    },
    /// Unbalanced three-phase solve.
    Solve3 {
        /// The three-phase network to solve.
        net: ThreePhaseNetwork,
        /// Solver configuration (deadline defaulted from the service).
        cfg: SolverConfig,
    },
    /// Batched scenario solve on one topology.
    Batch {
        /// The shared topology.
        net: RadialNetwork,
        /// Per-scenario by-bus load vectors.
        scenarios: Vec<Vec<Complex>>,
        /// Solver configuration (deadline defaulted from the service).
        cfg: SolverConfig,
    },
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Single-phase result (possibly recovered, deadline-cut, or served
    /// by the fallback — see [`SolveResult::status`] and
    /// [`Response::backend`]).
    Solved(SolveResult),
    /// Three-phase result.
    Solved3(Solve3Result),
    /// Batch result.
    Batch(TensorBatchResult),
    /// Shed at admission: the queue was full.
    Rejected {
        /// Queue depth observed when the request was shed.
        queue_depth: usize,
    },
    /// Device failed unrecoverably and the fallback is disabled.
    Failed(ResilienceError),
}

/// A served (or shed) request.
#[derive(Clone, Debug)]
pub struct Response {
    /// Request id (assigned at submission, dense per service).
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
    /// Service-level retries spent on transient device failures.
    pub retries: u32,
    /// Total modeled backoff the retries waited, µs.
    pub backoff_us: u64,
    /// What served the request: the device backend name, the fallback
    /// name, or `"shed"`.
    pub backend: &'static str,
    /// Breaker state when the response was produced.
    pub breaker: BreakerState,
}

impl Response {
    /// The solve status, when the request ran at all.
    pub fn status(&self) -> Option<SolveStatus> {
        match &self.outcome {
            Outcome::Solved(r) => Some(r.status),
            Outcome::Solved3(r) => Some(r.status),
            Outcome::Batch(r) => Some(r.worst_status()),
            Outcome::Rejected { .. } | Outcome::Failed(_) => None,
        }
    }

    /// Modeled µs this response occupied the server (solve time plus
    /// backoff; zero for shed requests).
    pub fn service_us(&self) -> f64 {
        let solve = match &self.outcome {
            Outcome::Solved(r) => r.timing.total_us(),
            Outcome::Solved3(r) => r.timing.total_us(),
            Outcome::Batch(r) => r.timing.total_us(),
            Outcome::Rejected { .. } | Outcome::Failed(_) => 0.0,
        };
        solve + self.backoff_us as f64
    }
}

/// Aggregate service counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests offered (admitted + shed).
    pub submitted: u64,
    /// Requests served to completion (any outcome but `Rejected`).
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Device attempts that produced a result.
    pub device_successes: u64,
    /// Unrecoverable device failures (breaker fuel).
    pub device_failures: u64,
    /// Requests served by the CPU fallback.
    pub fallback_served: u64,
    /// Service-level transient retries across all requests.
    pub retries: u64,
    /// Closed/half-open → open transitions.
    pub breaker_opens: u64,
    /// Half-open → closed transitions.
    pub breaker_closes: u64,
    /// Device probes launched from the open state.
    pub probes: u64,
    /// Largest queue depth observed at admission.
    pub peak_queue_depth: usize,
}

/// Where a request is sent on this pass.
enum Route {
    Device,
    Fallback,
}

/// Classified device failure.
struct DeviceFailure {
    transient: bool,
    err: ResilienceError,
}

impl From<ResilienceError> for DeviceFailure {
    /// A supervisor that spent its budget may succeed on a retry; a lost
    /// device will not.
    fn from(err: ResilienceError) -> Self {
        let transient = matches!(err, ResilienceError::BudgetExhausted { .. });
        DeviceFailure { transient, err }
    }
}

/// The robustness service: deadlines, retry, breaker, bounded queue.
pub struct SolveService {
    cfg: ServiceConfig,
    props: DeviceProps,
    host: HostProps,
    plan: Option<FaultPlan>,
    timeline: Timeline,
    rng: StdRng,
    breaker: BreakerState,
    consecutive_failures: u32,
    open_served: u32,
    queue: VecDeque<(u64, Request)>,
    next_id: u64,
    stats: ServiceStats,
    recorder: Option<Recorder>,
    /// Modeled service clock, µs: advanced by each response's service
    /// time (or pinned to stream time in [`SolveService::run_stream`]).
    /// Stamps service-track telemetry events.
    clock_us: f64,
    /// Set while draining: admitted work is owed an answer, so device
    /// failures route to the CPU fallback even in strict device-only
    /// mode (`fallback: false`).
    draining: bool,
    /// Telemetry track the service records on (default
    /// [`Trace::TID_SERVICE`]; fleets give each worker its own track).
    tid: u32,
    /// Prefix for telemetry metric names (default `"service"`).
    label: String,
    /// Fleet ordinal of the device this service drives, stamped onto
    /// the device timelines it creates (`None` for a lone service).
    ordinal: Option<u32>,
}

impl SolveService {
    /// Creates a service over the given hardware models.
    pub fn new(cfg: ServiceConfig, props: DeviceProps, host: HostProps) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        SolveService {
            cfg,
            props,
            host,
            plan: None,
            timeline: Timeline::default(),
            rng,
            breaker: BreakerState::Closed,
            consecutive_failures: 0,
            open_served: 0,
            queue: VecDeque::new(),
            next_id: 0,
            stats: ServiceStats::default(),
            recorder: None,
            clock_us: 0.0,
            draining: false,
            tid: Trace::TID_SERVICE,
            label: "service".to_string(),
            ordinal: None,
        }
    }

    /// Tags devices created by this service with a fleet ordinal so
    /// exported timelines carry per-device labels.
    pub fn set_device_ordinal(&mut self, ordinal: u32) {
        self.ordinal = Some(ordinal);
    }

    /// Moves the service's telemetry onto its own track and metric
    /// prefix — a fleet gives each device worker a distinct track
    /// (e.g. `fleet.d0` on [`Trace::tid_for_device`]) so merged traces
    /// keep per-device request lanes apart.
    pub fn with_track(mut self, tid: u32, label: &str) -> Self {
        self.tid = tid;
        self.label = label.to_string();
        if let Some(rec) = &self.recorder {
            rec.name_thread(tid, &format!("{label} (modeled)"));
        }
        self
    }

    /// Arms a fault plan; every device the service creates gets a clone
    /// (clones share the op counter, so the fault stream continues
    /// across requests and retries instead of replaying).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// [`Self::with_fault_plan`] for a service already in place (the
    /// fleet arms plans per worker after construction).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// Clears the fault plan: subsequent attempts run on clean devices.
    pub fn clear_fault_plan(&mut self) {
        self.plan = None;
    }

    /// Attaches a telemetry recorder: per-request spans, queue-depth
    /// samples, shed/retry counters and breaker transitions are recorded
    /// on the service track, stamped with the modeled service clock.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.set_recorder(rec);
        self
    }

    /// [`Self::with_recorder`] for a service already in place.
    pub fn set_recorder(&mut self, rec: Recorder) {
        rec.name_thread(self.tid, &format!("{} (modeled)", self.label));
        self.recorder = Some(rec);
    }

    /// The service timeline: breaker transitions and shed requests as
    /// [`simt::EventKind::Marker`] events, in arrival order.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Current breaker state.
    pub fn breaker(&self) -> BreakerState {
        self.breaker
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Requests admitted but not yet served.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Offers a request. Returns its id, or — when the queue is full —
    /// the shed [`Response`] with [`Outcome::Rejected`].
    // The large Err *is* the payload: a shed request's full response,
    // handed back at admission so the caller never waits for it.
    #[allow(clippy::result_large_err)]
    pub fn submit(&mut self, req: Request) -> Result<u64, Response> {
        self.stats.submitted += 1;
        self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(self.queue.len());
        if let Some(rec) = &self.recorder {
            rec.counter_sample("service.queue_depth", self.clock_us, self.queue.len() as f64);
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            let id = self.take_id();
            return Err(self.shed(id));
        }
        let id = self.take_id();
        self.queue.push_back((id, req));
        Ok(id)
    }

    /// Serves the oldest queued request, if any.
    pub fn process_one(&mut self) -> Option<Response> {
        let (id, req) = self.queue.pop_front()?;
        Some(self.execute(id, req))
    }

    /// Graceful shutdown: serves everything still queued, in order.
    ///
    /// Admitted work is owed an answer, so while draining an
    /// unrecoverable device failure (e.g. a sticky device loss) routes
    /// the request to the CPU fallback even in strict device-only mode
    /// (`fallback: false`) instead of failing it with the device error.
    pub fn drain(&mut self) -> Vec<Response> {
        self.draining = true;
        let mut out = Vec::with_capacity(self.queue.len());
        while let Some(resp) = self.process_one() {
            out.push(resp);
        }
        self.draining = false;
        self.publish_stats();
        out
    }

    /// Serves one request immediately at modeled time `start_us`,
    /// bypassing the queue — the entry point for an external scheduler
    /// (the fleet) that owns admission and timing itself.
    pub fn serve_at(&mut self, start_us: f64, req: Request) -> Response {
        self.stats.submitted += 1;
        let id = self.take_id();
        self.clock_us = start_us;
        self.execute(id, req)
    }

    /// Serves `req` straight on the CPU fallback at modeled time
    /// `start_us`, never touching the device — the fleet's last rung
    /// when every device has refused a request.
    pub fn serve_cpu_at(&mut self, start_us: f64, req: Request) -> Response {
        self.stats.submitted += 1;
        self.stats.served += 1;
        let id = self.take_id();
        self.clock_us = start_us;
        let resp = self.serve_fallback(id, &req, &mut None, 0, 0);
        self.clock_us = start_us + resp.service_us();
        resp
    }

    /// Publishes the cumulative [`ServiceStats`] as gauges
    /// (`<label>.stats.*`) on the attached recorder, so run-summary
    /// JSON carries breaker transition, shed and retry counts without
    /// re-parsing traces. Gauges are idempotent — safe to call after
    /// every stream, drain, or at any checkpoint.
    pub fn publish_stats(&self) {
        let Some(rec) = &self.recorder else { return };
        let s = &self.stats;
        let l = &self.label;
        rec.gauge_set(&format!("{l}.stats.submitted"), s.submitted as f64);
        rec.gauge_set(&format!("{l}.stats.served"), s.served as f64);
        rec.gauge_set(&format!("{l}.stats.shed"), s.shed as f64);
        rec.gauge_set(
            &format!("{l}.stats.device_successes"),
            s.device_successes as f64,
        );
        rec.gauge_set(
            &format!("{l}.stats.device_failures"),
            s.device_failures as f64,
        );
        rec.gauge_set(
            &format!("{l}.stats.fallback_served"),
            s.fallback_served as f64,
        );
        rec.gauge_set(&format!("{l}.stats.retries"), s.retries as f64);
        rec.gauge_set(&format!("{l}.stats.breaker_opens"), s.breaker_opens as f64);
        rec.gauge_set(&format!("{l}.stats.breaker_closes"), s.breaker_closes as f64);
        rec.gauge_set(&format!("{l}.stats.probes"), s.probes as f64);
        rec.gauge_set(
            &format!("{l}.stats.peak_queue_depth"),
            s.peak_queue_depth as f64,
        );
    }

    /// Replays a timed arrival stream through a single-server queue and
    /// returns every response (served and shed), in completion order.
    ///
    /// `arrivals` are `(modeled µs, request)` pairs with non-decreasing
    /// times. The server takes requests FIFO; each occupies it for the
    /// response's [`Response::service_us`]. An arrival that finds
    /// [`ServiceConfig::queue_capacity`] requests still waiting is shed.
    /// Whatever remains at the end of the stream is drained (graceful
    /// shutdown). Entirely deterministic in modeled time.
    pub fn run_stream(&mut self, arrivals: Vec<(f64, Request)>) -> Vec<Response> {
        let mut waiting: VecDeque<(u64, Request, f64)> = VecDeque::new();
        let mut responses = Vec::new();
        let mut server_free_at = 0.0f64;
        let mut last_t = f64::NEG_INFINITY;
        for (t, req) in arrivals {
            assert!(t >= last_t, "arrival times must be non-decreasing");
            last_t = t;
            // Start (and finish) everything the server picks up before
            // this arrival; a request in service no longer holds a
            // queue slot.
            while let Some(&(_, _, arrived)) = waiting.front() {
                let start = server_free_at.max(arrived);
                if start >= t {
                    break;
                }
                let (id, r, _) = waiting.pop_front().expect("front exists");
                self.clock_us = start;
                let resp = self.execute(id, r);
                server_free_at = start + resp.service_us();
                responses.push(resp);
            }
            self.stats.submitted += 1;
            self.stats.peak_queue_depth =
                self.stats.peak_queue_depth.max(waiting.len());
            self.clock_us = self.clock_us.max(t);
            if let Some(rec) = &self.recorder {
                rec.counter_sample("service.queue_depth", t, waiting.len() as f64);
            }
            if waiting.len() >= self.cfg.queue_capacity {
                let id = self.take_id();
                responses.push(self.shed(id));
                continue;
            }
            let id = self.take_id();
            waiting.push_back((id, req, t));
        }
        // Graceful drain: the stream is over but admitted work is owed
        // an answer (device failures fall back, as in [`Self::drain`]).
        self.draining = true;
        while let Some((id, r, arrived)) = waiting.pop_front() {
            self.clock_us = server_free_at.max(arrived);
            let resp = self.execute(id, r);
            server_free_at = server_free_at.max(arrived) + resp.service_us();
            responses.push(resp);
        }
        self.draining = false;
        self.publish_stats();
        responses
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn shed(&mut self, id: u64) -> Response {
        let depth = self.queue.len().max(self.cfg.queue_capacity);
        self.stats.shed += 1;
        self.timeline.note(format!("shed id={id} depth={depth}"));
        if let Some(rec) = &self.recorder {
            rec.counter_add("service.shed", 1);
            rec.instant_with(
                self.tid,
                "service",
                "shed",
                self.clock_us,
                vec![
                    ("id".to_string(), ArgValue::U64(id)),
                    ("queue_depth".to_string(), ArgValue::U64(depth as u64)),
                ],
            );
        }
        Response {
            id,
            outcome: Outcome::Rejected { queue_depth: depth },
            retries: 0,
            backoff_us: 0,
            backend: "shed",
            breaker: self.breaker,
        }
    }

    fn set_breaker(&mut self, to: BreakerState, why: &str) {
        let from = self.breaker;
        self.breaker = to;
        self.timeline.note(format!("breaker {}→{} ({why})", from.name(), to.name()));
        if let Some(rec) = &self.recorder {
            rec.counter_add(&format!("service.breaker.{}", to.name()), 1);
            rec.instant_with(
                self.tid,
                "service",
                "breaker",
                self.clock_us,
                vec![
                    ("from".to_string(), ArgValue::from(from.name())),
                    ("to".to_string(), ArgValue::from(to.name())),
                    ("why".to_string(), ArgValue::from(why)),
                ],
            );
        }
    }

    /// Fills in the service default deadline when the request brought
    /// none of its own.
    fn effective_cfg(&self, cfg: &SolverConfig) -> SolverConfig {
        let mut c = *cfg;
        if c.deadline_us.is_none() {
            c.deadline_us = self.cfg.deadline.modeled_us;
        }
        c
    }

    /// Exponential backoff for retry `attempt` (1-based) with seeded
    /// jitter in `[0, base)`.
    fn next_backoff(&mut self, attempt: u32) -> u64 {
        let base = self.cfg.backoff_base_us.max(1);
        let exp = base.saturating_mul(1u64 << (attempt - 1).min(32));
        exp.min(self.cfg.backoff_cap_us.max(base)) + self.rng.gen_below(base)
    }

    /// Routing decision for one device pass, advancing the open→
    /// half-open probation counter.
    fn route(&mut self) -> Route {
        match self.breaker {
            BreakerState::Closed | BreakerState::HalfOpen => Route::Device,
            BreakerState::Open => {
                self.open_served += 1;
                if self.open_served >= self.cfg.breaker_probe_after {
                    self.set_breaker(BreakerState::HalfOpen, "probe window elapsed");
                    self.stats.probes += 1;
                    Route::Device
                } else {
                    Route::Fallback
                }
            }
        }
    }

    fn on_device_success(&mut self) {
        self.stats.device_successes += 1;
        self.consecutive_failures = 0;
        if self.breaker == BreakerState::HalfOpen {
            self.stats.breaker_closes += 1;
            self.open_served = 0;
            self.set_breaker(BreakerState::Closed, "probe succeeded");
        }
    }

    fn on_device_failure(&mut self) {
        self.stats.device_failures += 1;
        match self.breaker {
            BreakerState::HalfOpen => {
                self.stats.breaker_opens += 1;
                self.open_served = 0;
                self.set_breaker(BreakerState::Open, "probe failed");
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.cfg.breaker_threshold {
                    self.stats.breaker_opens += 1;
                    self.open_served = 0;
                    self.set_breaker(
                        BreakerState::Open,
                        &format!("{} consecutive failures", self.consecutive_failures),
                    );
                }
            }
            BreakerState::Open => {}
        }
    }

    /// Serves one request end to end: route, attempt, retry, breaker
    /// bookkeeping, fallback. Records the request as a span on the
    /// service track and advances the modeled service clock.
    fn execute(&mut self, id: u64, req: Request) -> Response {
        let t0 = self.clock_us;
        let resp = self.execute_inner(id, req);
        self.clock_us = t0 + resp.service_us();
        if let Some(rec) = &self.recorder {
            rec.span_with(
                self.tid,
                "service",
                "request",
                t0,
                resp.service_us(),
                vec![
                    ("id".to_string(), ArgValue::U64(resp.id)),
                    ("backend".to_string(), ArgValue::from(resp.backend)),
                    ("retries".to_string(), ArgValue::U64(u64::from(resp.retries))),
                ],
            );
            rec.observe("service.request_us", resp.service_us());
            rec.counter_sample("service.queue_depth", self.clock_us, self.queue.len() as f64);
        }
        resp
    }

    fn execute_inner(&mut self, id: u64, req: Request) -> Response {
        self.stats.served += 1;
        let mut retries = 0u32;
        let mut backoff_us = 0u64;
        // A single-phase request's level-order arrays, built on first use
        // and shared by every device attempt and the CPU fallback.
        let mut arrays = None;
        loop {
            if matches!(self.route(), Route::Fallback) {
                return self.serve_fallback(id, &req, &mut arrays, retries, backoff_us);
            }
            match self.attempt_device(&req, &mut arrays) {
                Ok(outcome) => {
                    self.on_device_success();
                    return Response {
                        id,
                        outcome,
                        retries,
                        backoff_us,
                        backend: self.cfg.backend.name(),
                        breaker: self.breaker,
                    };
                }
                Err(f) if f.transient && retries < self.cfg.max_retries => {
                    retries += 1;
                    self.stats.retries += 1;
                    let wait = self.next_backoff(retries);
                    backoff_us += wait;
                    if let Some(rec) = &self.recorder {
                        rec.counter_add("service.retries", 1);
                        rec.counter_add("service.backoff_us", wait);
                    }
                }
                Err(f) => {
                    self.on_device_failure();
                    if self.cfg.fallback || self.draining {
                        return self.serve_fallback(id, &req, &mut arrays, retries, backoff_us);
                    }
                    return Response {
                        id,
                        outcome: Outcome::Failed(f.err),
                        retries,
                        backoff_us,
                        backend: self.cfg.backend.name(),
                        breaker: self.breaker,
                    };
                }
            }
        }
    }

    /// Runs `solve` on the strict (non-degrading) fault-tolerant
    /// supervisor — the service's fault plan and recorder, and
    /// degradation off, because falling back is the service's decision —
    /// under the wall-clock watchdog when one is armed.
    fn supervised<T>(&self, solve: impl FnOnce(&mut ResilientSolver) -> T) -> T {
        let mut solver =
            ResilientSolver::new(self.cfg.backend, self.props.clone(), self.host.clone())
                .with_degradation(false);
        if let Some(plan) = &self.plan {
            solver = solver.with_fault_plan(plan.clone());
        }
        if let Some(rec) = &self.recorder {
            solver = solver.with_recorder(rec.clone());
        }
        let Some(wall) = self.cfg.deadline.wall else { return solve(&mut solver) };
        let cancel = Arc::new(AtomicBool::new(false));
        solver = solver.with_cancel(Arc::clone(&cancel));
        with_watchdog(wall, &cancel, || solve(&mut solver))
    }

    /// One device attempt. `Err` is classified transient (worth a
    /// service-level retry) or unrecoverable (breaker fuel). `arrays`
    /// caches a single-phase request's prepared arrays across attempts.
    fn attempt_device(
        &mut self,
        req: &Request,
        arrays: &mut Option<SolverArrays>,
    ) -> Result<Outcome, DeviceFailure> {
        match req {
            Request::Solve { net, cfg } => {
                let cfg = self.effective_cfg(cfg);
                let a = arrays.get_or_insert_with(|| SolverArrays::new(net));
                Ok(Outcome::Solved(self.supervised(|s| s.solve(a, &cfg))?))
            }
            Request::Solve3 { net, cfg } => {
                let cfg = self.effective_cfg(cfg);
                let a = Arrays3::new(net);
                Ok(Outcome::Solved3(self.supervised(|s| s.solve3(&a, &cfg))?))
            }
            Request::Batch { net, scenarios, cfg } => {
                let cfg = self.effective_cfg(cfg);
                let mut dev = Device::new(self.props.clone());
                if let Some(d) = self.ordinal {
                    dev = dev.with_ordinal(d);
                }
                if let Some(plan) = &self.plan {
                    dev.arm_faults(plan.clone());
                }
                let mut solver = TensorBatchSolver::new(dev);
                if let Some(rec) = &self.recorder {
                    solver = solver.with_recorder(rec.clone());
                }
                // The tensor engine absorbs device weather, kernel panics
                // included: a device that died mid-batch leaves a result
                // from its host path. In strict mode (`fallback: false`)
                // the point is to surface sickness to an external
                // supervisor (the fleet reclaims the work on a peer), so
                // a mid-batch loss is a failure there.
                let arrays = SolverArrays::new(net);
                let res = solver.solve(&arrays, Scenarios::Explicit(scenarios), &cfg);
                match loss_error(solver.device()) {
                    Some(e) if !self.cfg.fallback => Err(ResilienceError::DeviceLost(e).into()),
                    _ => Ok(Outcome::Batch(res)),
                }
            }
        }
    }

    /// Serves a request on the CPU fallback (multicore for single-phase
    /// and batch, serial for three-phase). CPU solvers cannot fault, so
    /// this always produces a result — matching the serial reference to
    /// working precision.
    fn serve_fallback(
        &mut self,
        id: u64,
        req: &Request,
        arrays: &mut Option<SolverArrays>,
        retries: u32,
        backoff_us: u64,
    ) -> Response {
        self.stats.fallback_served += 1;
        let (outcome, backend) = match req {
            Request::Solve { net, cfg } => {
                let cfg = self.effective_cfg(cfg);
                let mut solver = ResilientSolver::new(
                    Backend::Multicore,
                    self.props.clone(),
                    self.host.clone(),
                );
                if let Some(rec) = &self.recorder {
                    solver = solver.with_recorder(rec.clone());
                }
                let a = arrays.get_or_insert_with(|| SolverArrays::new(net));
                let res = solver.solve(a, &cfg).expect("CPU fallback cannot fail");
                (Outcome::Solved(res), "multicore")
            }
            Request::Solve3 { net, cfg } => {
                let cfg = self.effective_cfg(cfg);
                let mut solver = Serial3Solver::new(self.host.clone());
                if let Some(rec) = &self.recorder {
                    solver = solver.with_recorder(rec.clone());
                }
                let res = solver.solve(net, &cfg);
                (Outcome::Solved3(res), "serial")
            }
            Request::Batch { net, scenarios, cfg } => {
                let cfg = self.effective_cfg(cfg);
                (Outcome::Batch(batch_on_multicore(&self.host, net, scenarios, &cfg)), "multicore")
            }
        };
        Response { id, outcome, retries, backoff_us, backend, breaker: self.breaker }
    }
}

/// Runs `f` under a wall-clock watchdog: a helper thread waits `wall`;
/// if `f` has not finished by then the cancel flag is set and the
/// recovery loop returns its partial state as
/// [`SolveStatus::DeadlineExceeded`] at the next convergence check. The
/// watchdog performs no device operations, so the fault stream is
/// identical whether or not it fires.
fn with_watchdog<T>(wall: Duration, cancel: &Arc<AtomicBool>, f: impl FnOnce() -> T) -> T {
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let flag = Arc::clone(cancel);
    let guard = std::thread::spawn(move || {
        if done_rx.recv_timeout(wall).is_err() {
            flag.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    });
    let out = f();
    let _ = done_tx.send(());
    let _ = guard.join();
    out
}

/// The breaker-open batch path: every scenario solved independently on
/// the multicore CPU solver, reassembled into a [`TensorBatchResult`].
fn batch_on_multicore(
    host: &HostProps,
    net: &RadialNetwork,
    scenarios: &[Vec<Complex>],
    cfg: &SolverConfig,
) -> TensorBatchResult {
    assert!(!scenarios.is_empty(), "batch must contain at least one scenario");
    let nb = scenarios.len();
    let base = SolverArrays::new(net);
    let mc = MulticoreSolver::new(host.clone(), MulticoreSolver::default().cores());
    let mut v = Vec::with_capacity(nb);
    let mut j = Vec::with_capacity(nb);
    let mut statuses = Vec::with_capacity(nb);
    let mut per_scenario_iterations = Vec::with_capacity(nb);
    let mut residuals = Vec::with_capacity(nb);
    let mut residual = 0.0f64;
    let mut timing = Timing::default();
    for (s, scenario) in scenarios.iter().enumerate() {
        assert_eq!(
            scenario.len(),
            base.len(),
            "scenario {s} has {} loads for {} buses",
            scenario.len(),
            base.len()
        );
        let mut a = base.clone();
        for (p, &bus) in base.levels.order.iter().enumerate() {
            a.s[p] = scenario[bus as usize];
        }
        let res = mc.solve_arrays(&a, cfg);
        if res.residual.is_nan() || res.residual > residual {
            residual = res.residual;
        }
        timing.accumulate(&res.timing);
        per_scenario_iterations.push(res.iterations);
        residuals.push(res.residual);
        statuses.push(res.status);
        v.push(res.v);
        j.push(res.j);
    }
    TensorBatchResult {
        v,
        j,
        iterations: per_scenario_iterations.iter().copied().max().unwrap_or(0),
        per_scenario_iterations,
        statuses,
        residuals,
        residual,
        min_v: Vec::new(),
        timing,
        scenarios_per_sec: scenarios_per_sec(nb, &timing),
        fault_report: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powergrid::ieee::ieee13;
    use simt::FaultKind;

    fn rig() -> (DeviceProps, HostProps) {
        (DeviceProps::paper_rig(), HostProps::paper_rig())
    }

    fn solve_req() -> Request {
        Request::Solve { net: ieee13(), cfg: SolverConfig::default() }
    }

    fn service(cfg: ServiceConfig) -> SolveService {
        let (props, host) = rig();
        SolveService::new(cfg, props, host)
    }

    #[test]
    fn clean_service_serves_on_the_device() {
        let mut svc = service(ServiceConfig::default());
        let id = svc.submit(solve_req()).expect("admitted");
        let resp = svc.process_one().expect("queued work");
        assert_eq!(resp.id, id);
        assert_eq!(resp.backend, "gpu");
        assert_eq!(resp.breaker, BreakerState::Closed);
        assert_eq!(resp.status(), Some(SolveStatus::Converged));
        assert_eq!(resp.retries, 0);
        assert_eq!(svc.stats().device_successes, 1);
    }

    #[test]
    fn queue_overflow_sheds_with_depth() {
        let cfg = ServiceConfig { queue_capacity: 2, ..ServiceConfig::default() };
        let mut svc = service(cfg);
        assert!(svc.submit(solve_req()).is_ok());
        assert!(svc.submit(solve_req()).is_ok());
        let shed = svc.submit(solve_req()).expect_err("third must shed");
        assert!(matches!(shed.outcome, Outcome::Rejected { queue_depth: 2 }));
        assert_eq!(shed.backend, "shed");
        assert_eq!(svc.stats().shed, 1);
        // Draining serves the two admitted requests in order.
        let served = svc.drain();
        assert_eq!(served.len(), 2);
        assert!(served[0].id < served[1].id);
    }

    #[test]
    fn repeated_device_loss_opens_breaker_and_probe_readmits() {
        // Device loss on every attempt: op indices spaced so each fresh
        // device dies mid-solve.
        let kills: Vec<(u64, FaultKind)> =
            (0..64).map(|k| (5 + 7 * k, FaultKind::DeviceLost { at_op: 0 })).collect();
        let plan = FaultPlan::scripted(kills);
        let cfg = ServiceConfig {
            breaker_threshold: 2,
            breaker_probe_after: 2,
            max_retries: 0,
            ..ServiceConfig::default()
        };
        let mut svc = service(cfg).with_fault_plan(plan);
        // Two failures open the breaker; both requests still get served
        // by the fallback.
        for _ in 0..2 {
            svc.submit(solve_req()).unwrap();
            let resp = svc.process_one().unwrap();
            assert_eq!(resp.backend, "multicore");
            assert_eq!(resp.status(), Some(SolveStatus::Converged));
        }
        assert_eq!(svc.breaker(), BreakerState::Open);
        assert_eq!(svc.stats().breaker_opens, 1);
        // One request served while open (probe_after = 2 ⇒ the second
        // open request probes; the script kills that probe too, so the
        // breaker re-opens).
        svc.submit(solve_req()).unwrap();
        let r = svc.process_one().unwrap();
        assert_eq!(r.breaker, BreakerState::Open);
        svc.submit(solve_req()).unwrap();
        let probe = svc.process_one().unwrap();
        assert_eq!(probe.backend, "multicore", "failed probe falls back");
        assert_eq!(svc.breaker(), BreakerState::Open, "probe failure re-opens");
        assert_eq!(svc.stats().probes, 1);
        assert_eq!(svc.stats().breaker_opens, 2);
        let notes = svc
            .timeline()
            .events()
            .iter()
            .filter(|e| e.label() == "<marker>")
            .count();
        assert!(notes >= 3, "transitions recorded on the timeline, got {notes}");
    }

    #[test]
    fn breaker_open_answers_match_serial_to_reference_accuracy() {
        let net = ieee13();
        let scfg = SolverConfig::default();
        let serial = crate::serial::SerialSolver::new(HostProps::paper_rig())
            .solve(&net, &scfg);
        let kills: Vec<(u64, FaultKind)> =
            (0..8).map(|k| (5 + 7 * k, FaultKind::DeviceLost { at_op: 0 })).collect();
        let cfg = ServiceConfig {
            breaker_threshold: 1,
            breaker_probe_after: 100,
            max_retries: 0,
            ..ServiceConfig::default()
        };
        let mut svc = service(cfg).with_fault_plan(FaultPlan::scripted(kills));
        svc.submit(solve_req()).unwrap();
        svc.process_one().unwrap();
        assert_eq!(svc.breaker(), BreakerState::Open);
        svc.submit(solve_req()).unwrap();
        let resp = svc.process_one().unwrap();
        let Outcome::Solved(res) = resp.outcome else { panic!("expected a solve") };
        let scale = net.source_voltage().abs();
        for (a, b) in res.v.iter().zip(&serial.v) {
            assert!((*a - *b).abs() <= 1e-9 * scale, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn probe_success_closes_the_breaker() {
        // Exactly two kills: enough to open a threshold-2 breaker, then
        // a clean device for the probe.
        let plan = FaultPlan::scripted([
            (5, FaultKind::DeviceLost { at_op: 0 }),
            (12, FaultKind::DeviceLost { at_op: 0 }),
        ]);
        let cfg = ServiceConfig {
            breaker_threshold: 2,
            breaker_probe_after: 1,
            max_retries: 0,
            ..ServiceConfig::default()
        };
        let mut svc = service(cfg).with_fault_plan(plan);
        for _ in 0..2 {
            svc.submit(solve_req()).unwrap();
            svc.process_one().unwrap();
        }
        assert_eq!(svc.breaker(), BreakerState::Open);
        // probe_after = 1 ⇒ the very next request probes a now-clean
        // device and closes the breaker.
        svc.submit(solve_req()).unwrap();
        let probe = svc.process_one().unwrap();
        assert_eq!(probe.backend, "gpu");
        assert_eq!(svc.breaker(), BreakerState::Closed);
        assert_eq!(svc.stats().breaker_closes, 1);
    }

    #[test]
    fn deterministic_replay_of_a_faulty_stream() {
        let run = || {
            let plan = FaultPlan::seeded(20260806, 0.01);
            let cfg = ServiceConfig { seed: 99, ..ServiceConfig::default() };
            let mut svc = service(cfg).with_fault_plan(plan);
            let arrivals: Vec<(f64, Request)> =
                (0..6).map(|k| (k as f64 * 50.0, solve_req())).collect();
            let responses = svc.run_stream(arrivals);
            let fingerprint: Vec<(u64, Option<SolveStatus>, u32, u64, &'static str)> =
                responses
                    .iter()
                    .map(|r| (r.id, r.status(), r.retries, r.backoff_us, r.backend))
                    .collect();
            let transitions: Vec<String> = svc
                .timeline()
                .events()
                .iter()
                .filter_map(|e| match &e.kind {
                    simt::EventKind::Marker { desc } => Some(desc.clone()),
                    _ => None,
                })
                .collect();
            (fingerprint, transitions, *svc.stats())
        };
        let (f1, t1, s1) = run();
        let (f2, t2, s2) = run();
        assert_eq!(f1, f2, "statuses/retries/backends must replay exactly");
        assert_eq!(t1, t2, "breaker transitions must replay exactly");
        assert_eq!(s1, s2, "counters must replay exactly");
    }

    #[test]
    fn overload_stream_sheds_and_drains() {
        let cfg = ServiceConfig { queue_capacity: 2, ..ServiceConfig::default() };
        let mut svc = service(cfg);
        // A burst at t=0 far beyond capacity: the first request may
        // start immediately; the rest fight for 2 queue slots.
        let arrivals: Vec<(f64, Request)> = (0..8).map(|_| (0.0, solve_req())).collect();
        let responses = svc.run_stream(arrivals);
        assert_eq!(responses.len(), 8, "every request gets a response");
        let shed = responses
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::Rejected { .. }))
            .count();
        assert!(shed >= 5, "burst must shed most of the queue, shed {shed}");
        let served = responses.len() - shed;
        assert!(served >= 2, "admitted work is served on drain");
        assert_eq!(svc.stats().shed as usize, shed);
    }

    #[test]
    fn service_deadline_defaults_into_requests() {
        let cfg = ServiceConfig {
            deadline: Deadline::modeled_us(1e-3),
            ..ServiceConfig::default()
        };
        let mut svc = service(cfg);
        svc.submit(solve_req()).unwrap();
        let resp = svc.process_one().unwrap();
        match resp.status() {
            Some(SolveStatus::DeadlineExceeded { at_iteration, .. }) => {
                assert!(at_iteration >= 1, "partial progress is reported");
            }
            other => panic!("expected deadline exceeded, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_thread_sets_the_cancel_flag_on_timeout() {
        use std::sync::atomic::Ordering;
        let cancel = Arc::new(AtomicBool::new(false));
        // The work outlives the watchdog window: the flag must be set.
        let out = with_watchdog(Duration::from_millis(5), &cancel, || {
            std::thread::sleep(Duration::from_millis(40));
            42
        });
        assert_eq!(out, 42, "the work itself still completes");
        assert!(cancel.load(Ordering::Relaxed), "watchdog must fire");
        // Fast work beats the watchdog: the flag stays clear.
        let cancel2 = Arc::new(AtomicBool::new(false));
        let _ = with_watchdog(Duration::from_secs(30), &cancel2, || 1);
        assert!(!cancel2.load(Ordering::Relaxed), "unfired watchdog leaves no trace");
    }

    #[test]
    fn cancel_flag_aborts_a_device_solve_with_partial_state() {
        use std::sync::atomic::Ordering;
        // Pre-set flag: the recovery loop must notice it at the first
        // convergence check and return the partial state — exactly what
        // a fired watchdog produces, minus the wall-clock race.
        let (props, host) = rig();
        let cancel = Arc::new(AtomicBool::new(true));
        let mut solver = ResilientSolver::new(Backend::Gpu, props, host)
            .with_degradation(false)
            .with_cancel(Arc::clone(&cancel));
        let cfg = SolverConfig::default();
        let res = solver.solve(&SolverArrays::new(&ieee13()), &cfg);
        let a3 = Arrays3::new(&powergrid::three_phase::ieee13_unbalanced());
        let res3 = solver.solve3(&a3, &cfg).expect("cancel is not a device failure");
        let res = res.expect("cancel is not a device failure");
        for (kind, status, iterations, residual) in [
            ("1φ", res.status, res.iterations, res.residual),
            ("3φ", res3.status, res3.iterations, res3.residual),
        ] {
            match status {
                SolveStatus::DeadlineExceeded { at_iteration, .. } => {
                    assert_eq!(at_iteration, 1, "{kind}: cancelled at the first check");
                    assert_eq!(iterations, 1, "{kind}");
                    assert!(residual.is_finite(), "{kind}: partial state is real data");
                }
                other => panic!("{kind}: expected deadline-exceeded, got {other}"),
            }
        }
        assert!(cancel.load(Ordering::Relaxed));
    }

    #[test]
    fn three_phase_and_batch_requests_are_served() {
        use powergrid::three_phase::ieee13_unbalanced;
        let mut svc = service(ServiceConfig::default());
        svc.submit(Request::Solve3 {
            net: ieee13_unbalanced(),
            cfg: SolverConfig::default(),
        })
        .unwrap();
        let r3 = svc.process_one().unwrap();
        assert_eq!(r3.status(), Some(SolveStatus::Converged));

        let net = ieee13();
        let loads: Vec<Complex> = net.buses().iter().map(|b| b.load).collect();
        svc.submit(Request::Batch {
            net,
            scenarios: vec![loads.clone(), loads.iter().map(|&l| l * 0.5).collect()],
            cfg: SolverConfig::default(),
        })
        .unwrap();
        let rb = svc.process_one().unwrap();
        let Outcome::Batch(b) = rb.outcome else { panic!("expected batch") };
        assert!(b.converged());
        assert_eq!(b.statuses.len(), 2);
    }

    #[test]
    fn batch_fallback_matches_device_batch() {
        let net = ieee13();
        let cfg = SolverConfig::default();
        let loads: Vec<Complex> = net.buses().iter().map(|b| b.load).collect();
        let scenarios = vec![loads.clone(), loads.iter().map(|&l| l * 1.2).collect()];
        let mut dev_solver = TensorBatchSolver::new(Device::new(DeviceProps::paper_rig()));
        let dev = dev_solver.solve_arrays(&SolverArrays::new(&net), &scenarios, &cfg);
        let cpu = batch_on_multicore(&HostProps::paper_rig(), &net, &scenarios, &cfg);
        assert!(dev.converged() && cpu.converged());
        let scale = net.source_voltage().abs();
        for s in 0..2 {
            for bus in 0..net.num_buses() {
                assert!(
                    (dev.v[s][bus] - cpu.v[s][bus]).abs() <= 1e-4 * scale,
                    "scenario {s} bus {bus}"
                );
            }
        }
    }

    #[test]
    fn drain_reroutes_queued_work_to_fallback_after_sticky_loss() {
        // Strict device-only service whose device dies on every attempt.
        let kills: Vec<(u64, FaultKind)> =
            (0..64).map(|k| (5 + 7 * k, FaultKind::DeviceLost { at_op: 0 })).collect();
        let cfg = ServiceConfig {
            fallback: false,
            max_retries: 0,
            breaker_threshold: 100,
            ..ServiceConfig::default()
        };
        let mut svc = service(cfg).with_fault_plan(FaultPlan::scripted(kills.clone()));
        // Outside a drain, strict mode surfaces the device error.
        svc.submit(solve_req()).unwrap();
        let direct = svc.process_one().unwrap();
        assert!(matches!(direct.outcome, Outcome::Failed(_)), "strict mode fails");
        // But admitted work at shutdown is owed an answer: drained
        // requests re-route to the CPU fallback instead of failing.
        for _ in 0..3 {
            svc.submit(solve_req()).unwrap();
        }
        let drained = svc.drain();
        assert_eq!(drained.len(), 3);
        for resp in &drained {
            assert_eq!(resp.backend, "multicore", "drain must fall back");
            assert_eq!(resp.status(), Some(SolveStatus::Converged));
        }
    }

    #[test]
    fn publish_stats_exports_breaker_and_shed_counts_as_gauges() {
        let kills: Vec<(u64, FaultKind)> =
            (0..64).map(|k| (5 + 7 * k, FaultKind::DeviceLost { at_op: 0 })).collect();
        let cfg = ServiceConfig {
            breaker_threshold: 1,
            queue_capacity: 1,
            max_retries: 0,
            ..ServiceConfig::default()
        };
        let rec = telemetry::Recorder::new();
        let mut svc = service(cfg)
            .with_fault_plan(FaultPlan::scripted(kills))
            .with_recorder(rec.clone());
        // Burst at t=0: one in service, one queued, the rest shed; the
        // dying device opens the breaker along the way.
        let arrivals: Vec<(f64, Request)> = (0..6).map(|_| (0.0, solve_req())).collect();
        let responses = svc.run_stream(arrivals);
        assert_eq!(responses.len(), 6);
        let (_, metrics) = rec.snapshot();
        let s = svc.stats();
        assert_eq!(metrics.gauge("service.stats.shed"), Some(s.shed as f64));
        assert!(s.breaker_opens >= 1);
        assert_eq!(
            metrics.gauge("service.stats.breaker_opens"),
            Some(s.breaker_opens as f64)
        );
        assert_eq!(metrics.gauge("service.stats.retries"), Some(s.retries as f64));
        assert_eq!(metrics.gauge("service.stats.served"), Some(s.served as f64));
    }

    #[test]
    fn invalid_config_flows_through_the_service() {
        let bad = SolverConfig { max_iter: 0, ..SolverConfig::default() };
        let mut svc = service(ServiceConfig::default());
        svc.submit(Request::Solve { net: ieee13(), cfg: bad }).unwrap();
        let resp = svc.process_one().unwrap();
        assert_eq!(resp.status(), Some(SolveStatus::InvalidConfig));
    }
}
