//! Fleet-level resilience: N devices behind one deterministic front end.
//!
//! One [`crate::SolveService`] makes a request stream survive a faulty
//! device; this module makes it survive a faulty *fleet*. A
//! [`FleetService`] owns N heterogeneous [`simt`] devices (the E10
//! presets), each wrapped in its own strict-mode `SolveService` — so
//! every device keeps its own circuit breaker, retry budget and fault
//! plan — and schedules a timed arrival stream across them on the
//! modeled clock:
//!
//! * **Routing by load and health.** Each dispatch picks the device
//!   that can start earliest, preferring closed breakers over half-open
//!   over open, then higher historical success rate, then lowest
//!   ordinal. An open-breaker device is skipped except every
//!   [`FleetConfig::rejoin_every`]-th dispatch, which deliberately
//!   feeds it work so its own probation counter can half-open the
//!   breaker and let the device *rejoin* after recovery.
//! * **Failover on unrecoverable failure.** A worker in strict mode
//!   surfaces device loss as [`Outcome::Failed`]; the fleet re-routes
//!   the request to the best untried peer at the modeled time the
//!   failure was observed, and — when every device has refused — to the
//!   fleet-wide CPU rung, which cannot fail. No admitted request is
//!   ever lost: every response is either served or explicitly shed.
//! * **Hedged requests for stragglers.** Once enough requests have
//!   completed to estimate a latency quantile
//!   ([`FleetConfig::hedge_quantile`]), a primary that runs past it is
//!   hedged: a seeded-jitter duplicate launches on the best other
//!   device and the earlier finisher wins. Both executions occupy
//!   their device (hedges are not free), and the decision threshold,
//!   jitter and winner are all modeled-time arithmetic — replayable.
//! * **Batch sharding with reclamation.** A [`Request::Batch`] big
//!   enough to split ([`FleetConfig::shard_min`]) is cut into
//!   contiguous, chunk-aligned shards ([`crate::tensor_batch::shard_ranges`])
//!   across the healthy devices and merged back in scenario order. A
//!   shard stranded on a device that went sticky-lost mid-batch is
//!   *reclaimed* — re-served on the fastest surviving peer (or the CPU
//!   rung) at the time the loss was observed.
//! * **Brown-out ladder.** Overload sheds selectively before it sheds
//!   uniformly: an arrival from a tenant over its queued-request quota
//!   is shed first ([`ShedReason::TenantQuota`]); a full queue then
//!   evicts the youngest queued request of strictly lower
//!   [`Priority`] in favour of the arrival ([`ShedReason::Evicted`]);
//!   only when no cheaper rung applies is the arrival itself shed
//!   ([`ShedReason::QueueFull`]).
//!
//! Determinism is the invariant everything hangs on: routing, failover,
//! hedging, sharding and shedding read only modeled time, seeded RNG
//! streams and per-device fault plans, so the same seeds reproduce
//! byte-identical routing decisions, telemetry and exports.

use std::collections::VecDeque;

use rng::rngs::StdRng;
use rng::{Rng, SeedableRng};
use simt::{DeviceProps, FaultPlan, HostProps, StormSchedule};
use telemetry::trace::ArgValue;
use telemetry::{Recorder, Trace};

use crate::integrity::{IntegritySampler, IntegrityStats};
use crate::service::{
    BreakerState, Outcome, Request, Response, ServiceConfig, ServiceStats, SolveService,
};
use crate::tensor_batch::{scenarios_per_sec, shard_ranges, TensorBatchResult};

/// Request priority class for the brown-out ladder. Ordered: under
/// overload, `Bulk` work is evicted before `Normal`, `Normal` before
/// `Critical`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Best-effort background work — first to go in a brown-out.
    Bulk,
    /// Default interactive work.
    Normal,
    /// Must-answer work — only shed when the queue is full of peers.
    Critical,
}

impl Priority {
    /// Telemetry/report name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Bulk => "bulk",
            Priority::Normal => "normal",
            Priority::Critical => "critical",
        }
    }
}

/// A [`Request`] with fleet metadata: who is asking and how much the
/// answer matters under overload.
#[derive(Clone, Debug)]
pub struct FleetRequest {
    /// The work itself.
    pub req: Request,
    /// Brown-out class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Tenant id for per-tenant quota enforcement (default 0).
    pub tenant: u32,
}

impl FleetRequest {
    /// A normal-priority request from tenant 0.
    pub fn new(req: Request) -> Self {
        FleetRequest { req, priority: Priority::Normal, tenant: 0 }
    }

    /// Sets the brown-out priority class.
    pub fn with_priority(mut self, p: Priority) -> Self {
        self.priority = p;
        self
    }

    /// Sets the tenant id.
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Which rung of the brown-out ladder shed a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The tenant had [`FleetConfig::tenant_quota`] requests queued.
    TenantQuota,
    /// Evicted from the queue by a higher-priority arrival.
    Evicted,
    /// The queue was full and no lower-priority victim existed.
    QueueFull,
}

impl ShedReason {
    /// Telemetry/report name.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::TenantQuota => "tenant-quota",
            ShedReason::Evicted => "evicted",
            ShedReason::QueueFull => "queue-full",
        }
    }
}

/// Tunables of one [`FleetService`].
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The device models behind the fleet, one worker each; ordinal =
    /// index. Must be non-empty.
    pub devices: Vec<DeviceProps>,
    /// Host model for CPU fallbacks and shard merging.
    pub host: HostProps,
    /// Template for each worker's [`SolveService`] (`fallback` is
    /// forced off per worker so failures surface to the fleet; the
    /// seed is decorrelated per worker).
    pub service: ServiceConfig,
    /// Fleet-wide bound on queued (not yet dispatched) requests.
    pub queue_capacity: usize,
    /// Max queued requests per tenant (`None` = no quota rung).
    pub tenant_quota: Option<usize>,
    /// Latency quantile (0..1) past which a running primary is hedged;
    /// `>= 1.0` disables hedging.
    pub hedge_quantile: f64,
    /// Completed requests required before the quantile is trusted.
    pub hedge_min_samples: usize,
    /// Minimum scenarios per shard; a batch below `2 * shard_min`
    /// stays whole.
    pub shard_min: usize,
    /// Every n-th dispatch also considers open-breaker devices so a
    /// recovered device can probe and rejoin (0 = never).
    pub rejoin_every: u64,
    /// Seed for the fleet's own decision stream (hedge jitter).
    pub seed: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: vec![DeviceProps::paper_rig(), DeviceProps::paper_rig()],
            host: HostProps::paper_rig(),
            service: ServiceConfig::default(),
            queue_capacity: 64,
            tenant_quota: None,
            hedge_quantile: 0.95,
            hedge_min_samples: 8,
            shard_min: 64,
            rejoin_every: 4,
            seed: 0xf1ee7,
        }
    }
}

impl FleetConfig {
    /// `n` identical paper-rig devices — the scaling-headline fleet.
    pub fn uniform(n: usize) -> Self {
        FleetConfig {
            devices: (0..n).map(|_| DeviceProps::paper_rig()).collect(),
            ..FleetConfig::default()
        }
    }

    /// `n` devices cycling through the heterogeneous E10 presets
    /// (GTX 1080 Ti, GTX 1060, Jetson TX2, paper rig).
    pub fn heterogeneous(n: usize) -> Self {
        let presets = [
            DeviceProps::gtx_1080_ti(),
            DeviceProps::gtx_1060(),
            DeviceProps::jetson_tx2(),
            DeviceProps::paper_rig(),
        ];
        FleetConfig {
            devices: (0..n).map(|i| presets[i % presets.len()].clone()).collect(),
            ..FleetConfig::default()
        }
    }
}

/// A served (or shed) fleet request.
#[derive(Clone, Debug)]
pub struct FleetResponse {
    /// Fleet-level request id (dense, assigned at admission).
    pub id: u64,
    /// What happened (merged across shards for a sharded batch).
    pub outcome: Outcome,
    /// Device that produced the winning answer; `None` for the CPU
    /// rung, sharded batches, and shed requests.
    pub device: Option<u32>,
    /// Backend name of the winning execution (`"shed"` if shed).
    pub backend: &'static str,
    /// Brown-out class the request carried.
    pub priority: Priority,
    /// Tenant id the request carried.
    pub tenant: u32,
    /// Modeled arrival time, µs.
    pub arrived_us: f64,
    /// Modeled time the (first) execution started, µs (= arrival for
    /// shed requests).
    pub start_us: f64,
    /// Modeled completion time, µs (= shed time for shed requests).
    pub finish_us: f64,
    /// Peer failovers this request needed.
    pub failovers: u32,
    /// Whether a hedge was launched.
    pub hedged: bool,
    /// Whether the hedge finished first.
    pub hedge_won: bool,
    /// Shards a batch was split into (1 = unsharded).
    pub shards: u32,
    /// Shards reclaimed from a lost device.
    pub reclaimed: u32,
    /// Why the request was shed, when it was.
    pub shed: Option<ShedReason>,
}

impl FleetResponse {
    /// Modeled arrival-to-completion latency, µs (0 for shed requests
    /// shed at arrival).
    pub fn latency_us(&self) -> f64 {
        self.finish_us - self.arrived_us
    }

    /// True when the request produced an answer (not shed, not failed).
    pub fn answered(&self) -> bool {
        matches!(
            self.outcome,
            Outcome::Solved(_) | Outcome::Solved3(_) | Outcome::Batch(_)
        )
    }
}

/// Aggregate fleet counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Requests offered (admitted + shed).
    pub submitted: u64,
    /// Requests answered (any non-shed outcome).
    pub served: u64,
    /// Arrivals shed because their tenant was over quota.
    pub shed_quota: u64,
    /// Queued requests evicted by higher-priority arrivals.
    pub shed_evicted: u64,
    /// Arrivals shed with a full queue and no victim.
    pub shed_queue_full: u64,
    /// Peer failovers after unrecoverable device failures.
    pub failovers: u64,
    /// Requests that ran on the fleet CPU rung after every device
    /// refused them.
    pub cpu_served: u64,
    /// Hedges launched.
    pub hedges: u64,
    /// Hedges that finished before their primary.
    pub hedge_wins: u64,
    /// Batches that were sharded across devices.
    pub sharded_batches: u64,
    /// Shards dispatched (including reclaims).
    pub shards_dispatched: u64,
    /// Shards reclaimed from lost devices.
    pub reclaimed_shards: u64,
    /// Largest queue depth observed at admission.
    pub peak_queue_depth: usize,
}

impl FleetStats {
    /// Total sheds across every ladder rung.
    pub fn shed(&self) -> u64 {
        self.shed_quota + self.shed_evicted + self.shed_queue_full
    }
}

/// Point-in-time health of one device worker.
#[derive(Clone, Copy, Debug)]
pub struct DeviceHealth {
    /// Device ordinal.
    pub ordinal: u32,
    /// Its breaker state.
    pub breaker: BreakerState,
    /// Laplace-smoothed success rate of its device attempts.
    pub score: f64,
    /// Modeled time the device frees up, µs.
    pub free_at_us: f64,
}

/// One device behind the fleet.
struct Worker {
    ordinal: u32,
    svc: SolveService,
    free_at: f64,
}

impl Worker {
    fn score(&self) -> f64 {
        let s = self.svc.stats();
        (s.device_successes as f64 + 1.0)
            / ((s.device_successes + s.device_failures) as f64 + 2.0)
    }
}

/// A queued fleet request.
struct Pending {
    id: u64,
    freq: FleetRequest,
    arrived: f64,
}

/// The fleet front end: N per-device services, one scheduler.
pub struct FleetService {
    cfg: FleetConfig,
    workers: Vec<Worker>,
    /// The last rung: a CPU-only service that cannot fail.
    cpu: SolveService,
    cpu_free_at: f64,
    rng: StdRng,
    next_id: u64,
    dispatches: u64,
    stats: FleetStats,
    recorder: Option<Recorder>,
    /// Service times of answered requests, sorted ascending — the
    /// hedge-quantile estimate.
    completed_us: Vec<f64>,
    /// Shadow-verification sampler over answered responses, when armed.
    integrity: Option<IntegritySampler>,
}

impl FleetService {
    /// Builds the fleet: one strict-mode worker per device preset plus
    /// the CPU rung. Worker seeds are decorrelated from the template.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(!cfg.devices.is_empty(), "a fleet needs at least one device");
        assert!(cfg.hedge_quantile > 0.0, "hedge quantile must be positive");
        let workers = cfg
            .devices
            .iter()
            .enumerate()
            .map(|(d, props)| {
                let scfg = ServiceConfig {
                    fallback: false,
                    seed: cfg
                        .service
                        .seed
                        .wrapping_add((d as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    ..cfg.service
                };
                let mut svc = SolveService::new(scfg, props.clone(), cfg.host.clone())
                    .with_track(Trace::tid_for_device(d as u32), &format!("fleet.d{d}"));
                svc.set_device_ordinal(d as u32);
                Worker { ordinal: d as u32, svc, free_at: 0.0 }
            })
            .collect();
        let cpu_cfg = ServiceConfig { fallback: true, ..cfg.service };
        let cpu = SolveService::new(cpu_cfg, cfg.devices[0].clone(), cfg.host.clone())
            .with_track(Trace::tid_for_device(cfg.devices.len() as u32), "fleet.cpu");
        let rng = StdRng::seed_from_u64(cfg.seed);
        FleetService {
            cfg,
            workers,
            cpu,
            cpu_free_at: 0.0,
            rng,
            next_id: 0,
            dispatches: 0,
            stats: FleetStats::default(),
            recorder: None,
            completed_us: Vec::new(),
            integrity: None,
        }
    }

    /// Arms a fault plan on device `ordinal` only (peers stay clean);
    /// clones of one plan share an op counter, so arm distinct plans
    /// per device for independent fault streams.
    pub fn with_fault_plan_on(mut self, ordinal: u32, plan: FaultPlan) -> Self {
        self.workers[ordinal as usize].svc.set_fault_plan(plan);
        self
    }

    /// Arms one compound-fault storm across the whole fleet: every
    /// worker gets its own seeded plan (decorrelated per ordinal)
    /// carrying a clone of the schedule bound to that worker's ordinal,
    /// so kill windows correlate exactly across the listed devices
    /// while burst/ramp corruption decisions stay independent.
    pub fn with_storm(mut self, storm: StormSchedule) -> Self {
        for w in &mut self.workers {
            let seed = storm
                .seed()
                .wrapping_add((u64::from(w.ordinal) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let plan = FaultPlan::seeded(seed, 0.0)
                .with_storm(storm.clone())
                .with_ordinal(w.ordinal);
            w.svc.set_fault_plan(plan);
        }
        self
    }

    /// Arms a shadow-verification sampler: a seeded 1-in-K sample of
    /// answered responses is re-solved on the CPU oracle after
    /// dispatch and compared ([`crate::integrity`]). Verdict counters
    /// land on the sampler's recorder; gauges are exported with
    /// [`FleetService::publish_stats`].
    pub fn with_integrity(mut self, sampler: IntegritySampler) -> Self {
        self.integrity = Some(sampler);
        self
    }

    /// Shadow-verification counters so far (zeros when no sampler is
    /// armed).
    pub fn integrity_stats(&self) -> IntegrityStats {
        self.integrity.as_ref().map(|s| *s.stats()).unwrap_or_default()
    }

    /// Attaches a telemetry recorder: fleet decisions land on
    /// [`Trace::TID_FLEET`], each worker's request lane on its own
    /// device track, and [`FleetService::publish_stats`] exports
    /// per-device and fleet-wide gauges.
    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        rec.name_thread(Trace::TID_FLEET, "fleet (modeled)");
        for w in &mut self.workers {
            w.svc.set_recorder(rec.clone());
        }
        self.cpu.set_recorder(rec.clone());
        self.recorder = Some(rec);
        self
    }

    /// Aggregate fleet counters so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Per-device service counters.
    pub fn device_stats(&self, ordinal: u32) -> &ServiceStats {
        self.workers[ordinal as usize].svc.stats()
    }

    /// Number of devices behind the fleet.
    pub fn num_devices(&self) -> usize {
        self.workers.len()
    }

    /// Point-in-time health of every device, by ordinal.
    pub fn health(&self) -> Vec<DeviceHealth> {
        self.workers
            .iter()
            .map(|w| DeviceHealth {
                ordinal: w.ordinal,
                breaker: w.svc.breaker(),
                score: w.score(),
                free_at_us: w.free_at,
            })
            .collect()
    }

    /// Publishes fleet-wide (`fleet.stats.*`) and per-device
    /// (`fleet.d<i>.stats.*`) gauges on the attached recorder.
    /// Idempotent; called automatically at the end of
    /// [`FleetService::run_stream`].
    pub fn publish_stats(&self) {
        for w in &self.workers {
            w.svc.publish_stats();
        }
        self.cpu.publish_stats();
        let Some(rec) = &self.recorder else { return };
        let s = &self.stats;
        rec.gauge_set("fleet.stats.submitted", s.submitted as f64);
        rec.gauge_set("fleet.stats.served", s.served as f64);
        rec.gauge_set("fleet.stats.shed_quota", s.shed_quota as f64);
        rec.gauge_set("fleet.stats.shed_evicted", s.shed_evicted as f64);
        rec.gauge_set("fleet.stats.shed_queue_full", s.shed_queue_full as f64);
        rec.gauge_set("fleet.stats.failovers", s.failovers as f64);
        rec.gauge_set("fleet.stats.cpu_served", s.cpu_served as f64);
        rec.gauge_set("fleet.stats.hedges", s.hedges as f64);
        rec.gauge_set("fleet.stats.hedge_wins", s.hedge_wins as f64);
        rec.gauge_set("fleet.stats.sharded_batches", s.sharded_batches as f64);
        rec.gauge_set("fleet.stats.shards_dispatched", s.shards_dispatched as f64);
        rec.gauge_set("fleet.stats.reclaimed_shards", s.reclaimed_shards as f64);
        rec.gauge_set("fleet.stats.peak_queue_depth", s.peak_queue_depth as f64);
        rec.gauge_set("fleet.stats.devices", self.workers.len() as f64);
        if let Some(sampler) = &self.integrity {
            sampler.publish();
        }
    }

    /// Replays a timed arrival stream across the fleet and returns
    /// every response (served and shed) in completion order. Arrival
    /// times must be non-decreasing. Whatever is still queued when the
    /// stream ends is drained. Deterministic in modeled time: the same
    /// stream, seeds and fault plans replay byte-identically.
    pub fn run_stream(&mut self, arrivals: Vec<(f64, FleetRequest)>) -> Vec<FleetResponse> {
        let mut waiting: VecDeque<Pending> = VecDeque::new();
        let mut responses = Vec::new();
        let mut last_t = f64::NEG_INFINITY;
        for (t, freq) in arrivals {
            assert!(t >= last_t, "arrival times must be non-decreasing");
            last_t = t;
            // Dispatch everything that can start before this arrival; a
            // request in flight no longer holds a queue slot.
            while let Some(front) = waiting.front() {
                if self.earliest_start(front.arrived) >= t {
                    break;
                }
                let p = waiting.pop_front().expect("front exists");
                let resp = self.dispatch(p);
                responses.push(resp);
            }
            self.stats.submitted += 1;
            self.stats.peak_queue_depth = self.stats.peak_queue_depth.max(waiting.len());
            if let Some(rec) = &self.recorder {
                rec.counter_sample("fleet.queue_depth", t, waiting.len() as f64);
            }
            let id = self.take_id();
            // Brown-out rung 1: per-tenant quota.
            if let Some(quota) = self.cfg.tenant_quota {
                let queued = waiting.iter().filter(|p| p.freq.tenant == freq.tenant).count();
                if queued >= quota {
                    responses.push(self.shed(id, &freq, t, ShedReason::TenantQuota));
                    continue;
                }
            }
            if waiting.len() >= self.cfg.queue_capacity {
                // Rung 2: evict the youngest strictly-lower-priority
                // queued request in favour of this arrival.
                if let Some(pos) =
                    waiting.iter().rposition(|p| p.freq.priority < freq.priority)
                {
                    let victim = waiting.remove(pos).expect("position exists");
                    responses.push(self.shed(
                        victim.id,
                        &victim.freq,
                        t,
                        ShedReason::Evicted,
                    ));
                    waiting.push_back(Pending { id, freq, arrived: t });
                } else {
                    // Rung 3: uniform shed.
                    responses.push(self.shed(id, &freq, t, ShedReason::QueueFull));
                }
                continue;
            }
            waiting.push_back(Pending { id, freq, arrived: t });
        }
        // Graceful drain: admitted work is owed an answer.
        while let Some(p) = waiting.pop_front() {
            let resp = self.dispatch(p);
            responses.push(resp);
        }
        self.publish_stats();
        responses
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn shed(&mut self, id: u64, freq: &FleetRequest, t: f64, why: ShedReason) -> FleetResponse {
        match why {
            ShedReason::TenantQuota => self.stats.shed_quota += 1,
            ShedReason::Evicted => self.stats.shed_evicted += 1,
            ShedReason::QueueFull => self.stats.shed_queue_full += 1,
        }
        if let Some(rec) = &self.recorder {
            rec.counter_add(&format!("fleet.shed.{}", why.name()), 1);
            rec.instant_with(
                Trace::TID_FLEET,
                "fleet",
                "shed",
                t,
                vec![
                    ("id".to_string(), ArgValue::U64(id)),
                    ("why".to_string(), ArgValue::from(why.name())),
                    ("priority".to_string(), ArgValue::from(freq.priority.name())),
                    ("tenant".to_string(), ArgValue::U64(u64::from(freq.tenant))),
                ],
            );
        }
        FleetResponse {
            id,
            outcome: Outcome::Rejected { queue_depth: self.cfg.queue_capacity },
            device: None,
            backend: "shed",
            priority: freq.priority,
            tenant: freq.tenant,
            arrived_us: t,
            start_us: t,
            finish_us: t,
            failovers: 0,
            hedged: false,
            hedge_won: false,
            shards: 1,
            reclaimed: 0,
            shed: Some(why),
        }
    }

    /// Earliest modeled time any currently-eligible device could start
    /// a request that arrived at `arrived` (the CPU rung keeps this
    /// finite even when every breaker is open).
    fn earliest_start(&self, arrived: f64) -> f64 {
        match self.pick_device(arrived, &[]) {
            Some(d) => self.workers[d].free_at.max(arrived),
            None => self.cpu_free_at.max(arrived),
        }
    }

    /// Routing: the untried device with (breaker rank, start time,
    /// health, ordinal) minimal. Open breakers are normally skipped,
    /// but every [`FleetConfig::rejoin_every`]-th dispatch deliberately
    /// routes to one (if any) so its probation counter advances and a
    /// recovered device can rejoin; and when nothing else is eligible
    /// an open device is better than nothing.
    fn pick_device(&self, arrived: f64, excluded: &[u32]) -> Option<usize> {
        let pick = |wanted: fn(BreakerState) -> Option<u32>| -> Option<usize> {
            let mut best: Option<(u32, f64, f64, usize)> = None;
            for (i, w) in self.workers.iter().enumerate() {
                if excluded.contains(&w.ordinal) {
                    continue;
                }
                let Some(rank) = wanted(w.svc.breaker()) else { continue };
                let start = w.free_at.max(arrived);
                let cand = (rank, start, -w.score(), i);
                let better = match &best {
                    None => true,
                    Some(b) => {
                        (cand.0, cand.1, cand.2, cand.3) < (b.0, b.1, b.2, b.3)
                    }
                };
                if better {
                    best = Some(cand);
                }
            }
            best.map(|(_, _, _, i)| i)
        };
        let rejoin = self.cfg.rejoin_every > 0
            && self.dispatches.is_multiple_of(self.cfg.rejoin_every);
        if rejoin {
            if let Some(i) = pick(|b| matches!(b, BreakerState::Open).then_some(0)) {
                return Some(i);
            }
        }
        pick(|b| match b {
            BreakerState::Closed => Some(0),
            BreakerState::HalfOpen => Some(1),
            BreakerState::Open => None,
        })
        .or_else(|| pick(|_| Some(0)))
    }

    /// Serves one admitted request end to end.
    fn dispatch(&mut self, p: Pending) -> FleetResponse {
        self.dispatches += 1;
        self.stats.served += 1;
        let resp = match &p.freq.req {
            Request::Batch { scenarios, .. }
                if scenarios.len() / 2 >= self.cfg.shard_min.max(1)
                    && self.workers.len() > 1 =>
            {
                self.dispatch_sharded(&p)
            }
            _ => self.dispatch_serial(&p),
        };
        if resp.answered() {
            let service = resp.finish_us - resp.start_us;
            let at = self
                .completed_us
                .partition_point(|&x| x < service);
            self.completed_us.insert(at, service);
            if let Some(sampler) = &mut self.integrity {
                sampler.observe(&p.freq.req, &resp.outcome);
            }
        }
        if let Some(rec) = &self.recorder {
            rec.counter_add("fleet.requests", 1);
            rec.observe("fleet.latency_us", resp.latency_us());
            rec.span_with(
                Trace::TID_FLEET,
                "fleet",
                "request",
                resp.start_us,
                resp.finish_us - resp.start_us,
                vec![
                    ("id".to_string(), ArgValue::U64(resp.id)),
                    (
                        "device".to_string(),
                        ArgValue::U64(u64::from(resp.device.unwrap_or(u32::MAX))),
                    ),
                    ("backend".to_string(), ArgValue::from(resp.backend)),
                    ("failovers".to_string(), ArgValue::U64(u64::from(resp.failovers))),
                    ("shards".to_string(), ArgValue::U64(u64::from(resp.shards))),
                ],
            );
        }
        resp
    }

    /// One request on one device, with failover and hedging.
    fn dispatch_serial(&mut self, p: &Pending) -> FleetResponse {
        let mut tried: Vec<u32> = Vec::new();
        let walk = self.walk(p.id, &p.freq.req, p.arrived, &mut tried);
        let (mut resp, mut device, mut finish) = (walk.resp, walk.device, walk.finish);
        let (mut hedged, mut hedge_won) = (false, false);
        if let Some(d) = walk.device {
            // Success on a device — hedge if this primary ran past the
            // latency quantile and a peer is free to duplicate it.
            let primary_us = resp.service_us();
            if let Some((h_resp, h_dev, h_finish)) =
                self.maybe_hedge(p, d, walk.start, primary_us, &tried)
            {
                hedged = true;
                if h_finish < finish {
                    self.stats.hedge_wins += 1;
                    (resp, device, finish, hedge_won) = (h_resp, Some(h_dev), h_finish, true);
                }
            }
        }
        FleetResponse {
            id: p.id,
            outcome: resp.outcome,
            device: device.map(|d| d as u32),
            backend: resp.backend,
            priority: p.freq.priority,
            tenant: p.freq.tenant,
            arrived_us: p.arrived,
            start_us: walk.first_start,
            finish_us: finish,
            failovers: walk.failovers,
            hedged,
            hedge_won,
            shards: 1,
            reclaimed: 0,
            shed: None,
        }
    }

    /// Serves `req` from `clock` on the best device not in `tried`,
    /// failing over device by device (each failed device joins `tried`)
    /// down to the CPU rung, which cannot refuse.
    fn walk(&mut self, id: u64, req: &Request, mut clock: f64, tried: &mut Vec<u32>) -> Walk {
        let mut failovers = 0u32;
        let mut first_start = None;
        loop {
            let Some(d) = self.pick_device(clock, tried) else {
                let start = clock.max(self.cpu_free_at);
                let resp = self.cpu.serve_cpu_at(start, req.clone());
                let finish = start + resp.service_us();
                self.cpu_free_at = finish;
                self.stats.cpu_served += 1;
                let first_start = first_start.unwrap_or(start);
                return Walk { resp, device: None, first_start, start, finish, failovers };
            };
            let start = clock.max(self.workers[d].free_at);
            first_start.get_or_insert(start);
            let resp = self.workers[d].svc.serve_at(start, req.clone());
            let finish = start + resp.service_us();
            self.workers[d].free_at = finish;
            if !matches!(resp.outcome, Outcome::Failed(_)) {
                let first_start = first_start.unwrap_or(start);
                return Walk { resp, device: Some(d), first_start, start, finish, failovers };
            }
            failovers += 1;
            self.stats.failovers += 1;
            tried.push(d as u32);
            if let Some(rec) = &self.recorder {
                rec.counter_add("fleet.failovers", 1);
                rec.instant_with(
                    Trace::TID_FLEET,
                    "fleet",
                    "failover",
                    finish,
                    vec![
                        ("id".to_string(), ArgValue::U64(id)),
                        ("from".to_string(), ArgValue::U64(d as u64)),
                    ],
                );
            }
            clock = finish;
        }
    }

    /// Launches a hedge for a straggling primary. Returns the hedge's
    /// (response, device, finish) when one was launched *and* produced
    /// an answer; the caller picks the earlier finisher.
    fn maybe_hedge(
        &mut self,
        p: &Pending,
        primary: usize,
        start: f64,
        primary_us: f64,
        tried: &[u32],
    ) -> Option<(Response, usize, f64)> {
        if self.cfg.hedge_quantile >= 1.0
            || self.completed_us.len() < self.cfg.hedge_min_samples
        {
            return None;
        }
        let threshold = quantile(&self.completed_us, self.cfg.hedge_quantile);
        if primary_us <= threshold {
            return None;
        }
        let mut excluded = tried.to_vec();
        excluded.push(primary as u32);
        let launch = start + threshold + self.rng.gen_below(16) as f64;
        let h = self.pick_device(launch, &excluded)?;
        self.stats.hedges += 1;
        let h_start = launch.max(self.workers[h].free_at);
        let h_resp = self.workers[h].svc.serve_at(h_start, p.freq.req.clone());
        let h_finish = h_start + h_resp.service_us();
        self.workers[h].free_at = h_finish;
        if let Some(rec) = &self.recorder {
            rec.counter_add("fleet.hedges", 1);
            rec.instant_with(
                Trace::TID_FLEET,
                "fleet",
                "hedge",
                h_start,
                vec![
                    ("id".to_string(), ArgValue::U64(p.id)),
                    ("primary".to_string(), ArgValue::U64(primary as u64)),
                    ("hedge".to_string(), ArgValue::U64(h as u64)),
                ],
            );
        }
        if matches!(h_resp.outcome, Outcome::Failed(_)) {
            // A failed hedge never wins; the primary already answered.
            return None;
        }
        Some((h_resp, h, h_finish))
    }

    /// A big batch: contiguous chunk-aligned shards across the healthy
    /// devices, reclaimed on device loss, merged in scenario order.
    fn dispatch_sharded(&mut self, p: &Pending) -> FleetResponse {
        let Request::Batch { net, scenarios, cfg } = &p.freq.req else {
            unreachable!("dispatch_sharded only sees batches");
        };
        let healthy: Vec<usize> = {
            let non_open: Vec<usize> = self
                .workers
                .iter()
                .enumerate()
                .filter(|(_, w)| w.svc.breaker() != BreakerState::Open)
                .map(|(i, _)| i)
                .collect();
            if non_open.is_empty() {
                (0..self.workers.len()).collect()
            } else {
                non_open
            }
        };
        let ranges = shard_ranges(scenarios.len(), healthy.len(), self.cfg.shard_min);
        if ranges.len() < 2 {
            return self.dispatch_serial(p);
        }
        self.stats.sharded_batches += 1;
        let mut failovers = 0u32;
        let mut reclaimed = 0u32;
        let mut first_start = f64::INFINITY;
        let mut last_finish = p.arrived;
        let mut parts: Vec<TensorBatchResult> = Vec::with_capacity(ranges.len());
        let shards = ranges.len() as u32;
        for (k, range) in ranges.into_iter().enumerate() {
            let d = healthy[k % healthy.len()];
            let shard_req = Request::Batch {
                net: net.clone(),
                scenarios: scenarios[range].to_vec(),
                cfg: *cfg,
            };
            self.stats.shards_dispatched += 1;
            let start = p.arrived.max(self.workers[d].free_at);
            first_start = first_start.min(start);
            let resp = self.workers[d].svc.serve_at(start, shard_req.clone());
            let finish = start + resp.service_us();
            self.workers[d].free_at = finish;
            let part = match resp.outcome {
                Outcome::Batch(b) => {
                    last_finish = last_finish.max(finish);
                    b
                }
                Outcome::Failed(_) => {
                    // Reclaim the stranded shard on the best surviving
                    // peer (or the CPU rung) at the time the loss was
                    // observed.
                    reclaimed += 1;
                    failovers += 1;
                    self.stats.reclaimed_shards += 1;
                    self.stats.failovers += 1;
                    self.stats.shards_dispatched += 1;
                    if let Some(rec) = &self.recorder {
                        rec.counter_add("fleet.reclaimed_shards", 1);
                        rec.instant_with(
                            Trace::TID_FLEET,
                            "fleet",
                            "reclaim",
                            finish,
                            vec![
                                ("id".to_string(), ArgValue::U64(p.id)),
                                ("from".to_string(), ArgValue::U64(d as u64)),
                                ("shard".to_string(), ArgValue::U64(k as u64)),
                            ],
                        );
                    }
                    // Reclaim walks fail over like any request; only the
                    // first loss counts toward this response's failovers.
                    let walk = self.walk(p.id, &shard_req, finish, &mut vec![d as u32]);
                    last_finish = last_finish.max(walk.finish);
                    let Outcome::Batch(b) = walk.resp.outcome else {
                        unreachable!("a walk ends in an answer: the CPU rung cannot fail");
                    };
                    b
                }
                _ => unreachable!("batch requests produce batch outcomes"),
            };
            parts.push(part);
        }
        let merged = merge_batches(parts);
        FleetResponse {
            id: p.id,
            outcome: Outcome::Batch(merged),
            device: None,
            backend: "fleet",
            priority: p.freq.priority,
            tenant: p.freq.tenant,
            arrived_us: p.arrived,
            start_us: first_start,
            finish_us: last_finish,
            failovers,
            hedged: false,
            hedge_won: false,
            shards,
            reclaimed,
            shed: None,
        }
    }
}

/// Where [`FleetService::walk`] got its answer: the response, the device
/// (`None` for the CPU rung), when the walk's first attempt started, when
/// the answering attempt started and finished, and how many devices
/// failed before it.
struct Walk {
    resp: Response,
    device: Option<usize>,
    first_start: f64,
    start: f64,
    finish: f64,
    failovers: u32,
}

/// The `q`-quantile of an ascending-sorted non-empty slice (nearest
/// rank, no interpolation — byte-stable).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).ceil() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Reassembles shard results into one [`TensorBatchResult`] in scenario
/// order: per-scenario vectors concatenate, iterations take the
/// slowest shard, residual the worst, timings sum (total modeled work).
fn merge_batches(parts: Vec<TensorBatchResult>) -> TensorBatchResult {
    let mut it = parts.into_iter();
    let mut out = it.next().expect("at least one shard");
    for part in it {
        out.v.extend(part.v);
        out.j.extend(part.j);
        out.statuses.extend(part.statuses);
        out.per_scenario_iterations.extend(part.per_scenario_iterations);
        out.residuals.extend(part.residuals);
        out.min_v.extend(part.min_v);
        out.iterations = out.iterations.max(part.iterations);
        if part.residual.is_nan() || part.residual > out.residual {
            out.residual = part.residual;
        }
        out.timing.accumulate(&part.timing);
        // Fault/integrity bookkeeping sums across shards.
        out.fault_report = match (out.fault_report.take(), part.fault_report) {
            (Some(mut a), Some(b)) => {
                a.accumulate(&b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }
    out.scenarios_per_sec = scenarios_per_sec(out.statuses.len(), &out.timing);
    out
}

/// A standard arrival stream for experiments and tests: `n` requests,
/// exponential-ish deterministic inter-arrival gaps averaging
/// `mean_gap_us`, all solving `req`. Seeded and replayable.
pub fn poisson_arrivals(
    n: usize,
    mean_gap_us: f64,
    seed: u64,
    mut make: impl FnMut(usize) -> FleetRequest,
) -> Vec<(f64, FleetRequest)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|i| {
            // Inverse-CDF exponential gap from a uniform in (0,1].
            let u = (rng.gen_below(1u64 << 53) as f64 + 1.0) / (1u64 << 53) as f64;
            t += -mean_gap_us * u.ln();
            (t, make(i))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SolverConfig;
    use crate::serial::SerialSolver;
    use crate::status::SolveStatus;
    use numc::Complex;
    use powergrid::ieee::ieee13;
    use powergrid::RadialNetwork;
    use simt::FaultKind;

    fn solve_req() -> Request {
        Request::Solve { net: ieee13(), cfg: SolverConfig::default() }
    }

    fn batch_req(n_scenarios: usize) -> Request {
        let net = ieee13();
        let loads: Vec<Complex> = net.buses().iter().map(|b| b.load).collect();
        let scenarios = (0..n_scenarios)
            .map(|s| {
                let scale = 0.5 + 0.01 * (s % 100) as f64;
                loads.iter().map(|&l| l * scale).collect()
            })
            .collect();
        Request::Batch { net, scenarios, cfg: SolverConfig::default() }
    }

    fn kills_every_attempt() -> FaultPlan {
        let kills: Vec<(u64, FaultKind)> =
            (0..512).map(|k| (2 + 3 * k, FaultKind::DeviceLost { at_op: 0 })).collect();
        FaultPlan::scripted(kills)
    }

    fn serial_reference(net: &RadialNetwork) -> Vec<Complex> {
        SerialSolver::new(HostProps::paper_rig())
            .solve(net, &SolverConfig::default())
            .v
    }

    #[test]
    fn uniform_fleet_serves_a_stream_on_all_devices() {
        let mut fleet = FleetService::new(FleetConfig::uniform(3));
        let arrivals: Vec<(f64, FleetRequest)> =
            (0..12).map(|_| (0.0, FleetRequest::new(solve_req()))).collect();
        let responses = fleet.run_stream(arrivals);
        assert_eq!(responses.len(), 12);
        assert!(responses.iter().all(|r| r.answered()));
        for d in 0..3 {
            assert!(
                fleet.device_stats(d).device_successes > 0,
                "device {d} must share the burst"
            );
        }
    }

    #[test]
    fn failover_moves_work_off_a_dead_device_with_exact_answers() {
        let net = ieee13();
        let reference = serial_reference(&net);
        let mut fleet = FleetService::new(FleetConfig::uniform(2))
            .with_fault_plan_on(0, kills_every_attempt());
        let arrivals: Vec<(f64, FleetRequest)> =
            (0..8).map(|k| (k as f64 * 10.0, FleetRequest::new(solve_req()))).collect();
        let responses = fleet.run_stream(arrivals);
        assert_eq!(responses.len(), 8);
        let scale = net.source_voltage().abs();
        for r in &responses {
            assert!(r.answered(), "failover must answer: {:?}", r.outcome);
            let Outcome::Solved(res) = &r.outcome else { panic!("solve outcome") };
            assert_eq!(res.status, SolveStatus::Converged);
            for (a, b) in res.v.iter().zip(&reference) {
                assert!((*a - *b).abs() <= 1e-9 * scale);
            }
        }
        assert!(fleet.stats().failovers > 0, "device 0 failures must fail over");
    }

    #[test]
    fn whole_fleet_loss_lands_on_the_cpu_rung_with_zero_lost() {
        // Both devices die on every attempt. Distinct plans: clones of
        // one plan share an op counter.
        let mut fleet = FleetService::new(FleetConfig::uniform(2))
            .with_fault_plan_on(0, kills_every_attempt())
            .with_fault_plan_on(1, kills_every_attempt());
        let arrivals: Vec<(f64, FleetRequest)> =
            (0..5).map(|k| (k as f64 * 10.0, FleetRequest::new(solve_req()))).collect();
        let responses = fleet.run_stream(arrivals);
        assert_eq!(responses.len(), 5);
        assert!(responses.iter().all(|r| r.answered()), "CPU rung cannot fail");
        assert!(fleet.stats().cpu_served > 0 || fleet.stats().failovers > 0);
        // Zero lost: answered + shed == submitted.
        let answered = responses.iter().filter(|r| r.answered()).count() as u64;
        assert_eq!(answered + fleet.stats().shed(), fleet.stats().submitted);
    }

    #[test]
    fn brown_out_ladder_sheds_in_order() {
        let cfg = FleetConfig {
            queue_capacity: 2,
            tenant_quota: Some(2),
            ..FleetConfig::uniform(1)
        };
        let mut fleet = FleetService::new(cfg);
        // A burst at t=0: tenant 7 floods (quota cuts it at 2 queued),
        // then a critical arrival evicts queued bulk work.
        let mut arrivals: Vec<(f64, FleetRequest)> = Vec::new();
        for _ in 0..4 {
            arrivals.push((
                0.0,
                FleetRequest::new(solve_req())
                    .with_priority(Priority::Bulk)
                    .with_tenant(7),
            ));
        }
        arrivals.push((
            0.0,
            FleetRequest::new(solve_req())
                .with_priority(Priority::Critical)
                .with_tenant(1),
        ));
        let responses = fleet.run_stream(arrivals);
        assert_eq!(responses.len(), 5);
        let s = fleet.stats();
        assert!(s.shed_quota >= 1, "tenant 7 must hit its quota");
        assert_eq!(s.shed_evicted, 1, "critical arrival evicts queued bulk");
        let critical = responses
            .iter()
            .find(|r| r.priority == Priority::Critical)
            .expect("critical response");
        assert!(critical.answered(), "critical work survives the brown-out");
        let evicted = responses.iter().find(|r| r.shed == Some(ShedReason::Evicted));
        assert_eq!(evicted.expect("eviction").priority, Priority::Bulk);
    }

    #[test]
    fn sharded_batch_merges_in_scenario_order() {
        let n = 96;
        let req = batch_req(n);
        // Single-device reference answer.
        let mut lone = FleetService::new(FleetConfig {
            shard_min: usize::MAX,
            ..FleetConfig::uniform(1)
        });
        let reference = lone.run_stream(vec![(0.0, FleetRequest::new(req.clone()))]);
        let Outcome::Batch(ref_b) = &reference[0].outcome else { panic!("batch") };
        // Three-device sharded answer.
        let cfg = FleetConfig { shard_min: 16, ..FleetConfig::uniform(3) };
        let mut fleet = FleetService::new(cfg);
        let responses = fleet.run_stream(vec![(0.0, FleetRequest::new(req))]);
        let r = &responses[0];
        assert!(r.shards >= 2, "batch must shard, got {}", r.shards);
        assert_eq!(fleet.stats().sharded_batches, 1);
        let Outcome::Batch(b) = &r.outcome else { panic!("batch") };
        assert_eq!(b.v.len(), n);
        assert_eq!(b.statuses.len(), n);
        let scale = ieee13().source_voltage().abs();
        for s in 0..n {
            for (a, c) in b.v[s].iter().zip(&ref_b.v[s]) {
                assert!((*a - *c).abs() <= 1e-9 * scale, "scenario {s} must merge in order");
            }
        }
    }

    #[test]
    fn merged_shards_sum_their_transfer_time() {
        let Request::Batch { net, scenarios, cfg } = batch_req(96) else { unreachable!() };
        let arrays = crate::SolverArrays::new(&net);
        let parts: Vec<TensorBatchResult> = shard_ranges(scenarios.len(), 3, 16)
            .into_iter()
            .map(|r| {
                crate::TensorBatchSolver::new(simt::Device::paper_rig())
                    .solve_arrays(&arrays, &scenarios[r], &cfg)
            })
            .collect();
        assert!(parts.len() >= 2, "the batch must split into shards");
        let transfer: f64 = parts.iter().map(|p| p.timing.transfer_us).sum();
        let transfer_sweep: f64 = parts.iter().map(|p| p.timing.transfer_sweep_us).sum();
        assert!(parts[0].timing.transfer_us < transfer);
        let merged = merge_batches(parts);
        assert_eq!(merged.timing.transfer_us, transfer);
        assert_eq!(merged.timing.transfer_sweep_us, transfer_sweep);
        assert_eq!(merged.per_scenario_iterations.len(), scenarios.len());
    }

    #[test]
    fn lost_shard_is_reclaimed_not_lost() {
        let n = 96;
        let req = batch_req(n);
        let cfg = FleetConfig { shard_min: 16, ..FleetConfig::uniform(2) };
        let mut fleet = FleetService::new(cfg).with_fault_plan_on(1, kills_every_attempt());
        let responses = fleet.run_stream(vec![(0.0, FleetRequest::new(req))]);
        let r = &responses[0];
        assert!(r.answered());
        assert!(r.reclaimed >= 1, "the dead device's shard must be reclaimed");
        assert_eq!(fleet.stats().reclaimed_shards as u32, r.reclaimed);
        let Outcome::Batch(b) = &r.outcome else { panic!("batch") };
        assert_eq!(b.v.len(), n, "no scenario may be dropped");
        assert!(b.converged());
    }

    #[test]
    fn straggler_devices_get_hedged() {
        // A fast and a very slow device; a tight quantile over a warmup
        // of fast completions makes slow-primary requests stragglers.
        let cfg = FleetConfig {
            devices: vec![DeviceProps::gtx_1080_ti(), DeviceProps::jetson_tx2()],
            hedge_quantile: 0.5,
            hedge_min_samples: 4,
            rejoin_every: 0,
            ..FleetConfig::default()
        };
        let mut fleet = FleetService::new(cfg);
        // Saturating burst so both devices take primaries.
        let arrivals: Vec<(f64, FleetRequest)> =
            (0..24).map(|_| (0.0, FleetRequest::new(solve_req()))).collect();
        let responses = fleet.run_stream(arrivals);
        assert!(responses.iter().all(|r| r.answered()));
        assert!(fleet.stats().hedges >= 1, "slow-device primaries must hedge");
        let hedged: Vec<_> = responses.iter().filter(|r| r.hedged).collect();
        assert!(!hedged.is_empty());
        for r in hedged {
            if r.hedge_won {
                assert!(r.device.is_some());
            }
        }
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let run = || {
            let cfg = FleetConfig {
                tenant_quota: Some(4),
                queue_capacity: 6,
                ..FleetConfig::heterogeneous(3)
            };
            let mut fleet = FleetService::new(cfg)
                .with_fault_plan_on(1, FaultPlan::seeded(20260808, 0.02));
            let arrivals = poisson_arrivals(32, 40.0, 7, |i| {
                FleetRequest::new(solve_req())
                    .with_tenant((i % 3) as u32)
                    .with_priority(if i % 5 == 0 { Priority::Critical } else { Priority::Normal })
            });
            let responses = fleet.run_stream(arrivals);
            let fingerprint: Vec<String> = responses
                .iter()
                .map(|r| {
                    format!(
                        "{}:{:?}:{}:{}:{}:{}:{:?}",
                        r.id,
                        r.device,
                        r.backend,
                        r.failovers,
                        r.hedged,
                        r.finish_us,
                        r.shed
                    )
                })
                .collect();
            (fingerprint, *fleet.stats())
        };
        let (f1, s1) = run();
        let (f2, s2) = run();
        assert_eq!(f1, f2, "routing/hedging/shedding must replay exactly");
        assert_eq!(s1, s2, "fleet counters must replay exactly");
    }

    #[test]
    fn open_breaker_device_rejoins_via_rejoin_dispatches() {
        // Device 0 dies a few times (opening its breaker), then heals.
        let kills: Vec<(u64, FaultKind)> =
            (0..6).map(|k| (2 + 3 * k, FaultKind::DeviceLost { at_op: 0 })).collect();
        let cfg = FleetConfig {
            service: ServiceConfig {
                breaker_threshold: 2,
                breaker_probe_after: 1,
                max_retries: 0,
                ..ServiceConfig::default()
            },
            rejoin_every: 2,
            ..FleetConfig::uniform(2)
        };
        let mut fleet =
            FleetService::new(cfg).with_fault_plan_on(0, FaultPlan::scripted(kills));
        let arrivals: Vec<(f64, FleetRequest)> =
            (0..40).map(|k| (k as f64 * 5.0, FleetRequest::new(solve_req()))).collect();
        let responses = fleet.run_stream(arrivals);
        assert!(responses.iter().all(|r| r.answered()));
        // The breaker opened at some point...
        assert!(fleet.device_stats(0).breaker_opens >= 1);
        // ...and the healed device rejoined and served real work again.
        assert_eq!(fleet.health()[0].breaker, BreakerState::Closed);
        assert!(fleet.device_stats(0).breaker_closes >= 1);
        assert!(fleet.device_stats(0).device_successes > 0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 4.0);
        assert_eq!(quantile(&v, 0.01), 2.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
    }
}
