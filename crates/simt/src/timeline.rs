//! The device timeline: an event log of every launch and transfer, and
//! the schedule that places each on the modeled clock.
//!
//! Experiments read the timeline to produce the paper's per-phase
//! breakdowns (H2D / kernels-by-name / D2H) and its "GPU-only" timings
//! (kernel events excluding transfers).
//!
//! # Streams and engines
//!
//! Every timed op runs on a stream and on an engine: kernels on the SMs,
//! host→device copies on the H2D copy engine and device→host copies on
//! the D2H one ([`DeviceProps::COPY_ENGINES`]). An op on a created stream
//! starts at the latest of its stream's tail, its engine's free time, the
//! host clock, the end of the last default-stream op and any event its
//! stream waits on; each engine runs its ops first in, first out. Only a
//! blocking read advances the host clock. The default stream keeps
//! CUDA's legacy semantics: its op starts once every op before it has
//! ended, so a timeline that uses only the default stream runs its ops
//! back to back, and its makespan ([`Timeline::total_modeled_us`]) is
//! the left-to-right sum of their times.
//!
//! An op that starts before the latest end so far (the frontier) runs
//! partly or wholly under work already scheduled: that part is its
//! [`Event::hidden_us`]. [`Breakdown::total_us`] charges only the exposed
//! rest, so the breakdowns of consecutive spans sum to the makespan,
//! while the per-category totals stay busy times.

use std::collections::BTreeMap;
use std::fmt;

use crate::props::DeviceProps;
use crate::stats::LaunchStats;
use crate::timing::KernelTiming;

/// What happened.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// Device allocation (no modeled cost; recorded for memory accounting).
    Alloc {
        /// Allocation size in bytes.
        bytes: u64,
    },
    /// Host→device copy.
    Htod {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Device→host copy.
    Dtoh {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Kernel launch.
    Kernel {
        /// Kernel name (from [`crate::Kernel::name`]).
        name: &'static str,
        /// Blocks launched.
        grid: u32,
        /// Threads per block.
        block: u32,
        /// Merged execution statistics.
        stats: LaunchStats,
        /// Timing-model decomposition.
        timing: KernelTiming,
    },
    /// An injected fault (no modeled cost; recorded so profiler and
    /// breakdown reports show what a faulty run actually experienced).
    Fault {
        /// Human-readable description, e.g. `bit-flip @ launch`.
        desc: String,
        /// Device op index at which the fault fired.
        op: u64,
    },
    /// A supervisor annotation (no modeled cost): service-layer state
    /// changes — circuit-breaker transitions, shed requests — recorded
    /// in-band so a replayed run shows *when* policy decisions happened
    /// relative to device work.
    Marker {
        /// Human-readable description, e.g. `breaker closed→open`.
        desc: String,
    },
}

/// One timeline entry.
#[derive(Clone, Debug)]
pub struct Event {
    /// Classification + payload.
    pub kind: EventKind,
    /// Modeled device time, µs (0 for allocations).
    pub modeled_us: f64,
    /// Host wall-clock spent simulating, µs (diagnostic only — NOT a
    /// performance claim).
    pub wall_us: f64,
    /// Modeled start on the device schedule, µs; an untimed event sits
    /// at the frontier it was recorded at.
    pub start_us: f64,
    /// The part of `modeled_us` that overlapped work already scheduled
    /// (0 when the op started at the frontier).
    pub hidden_us: f64,
    /// The stream the op was issued on (0 is the default stream).
    pub stream: u32,
}

impl Event {
    /// An event on the default stream, to be placed by the schedule.
    pub(crate) fn new(kind: EventKind, modeled_us: f64, wall_us: f64) -> Self {
        Event { kind, modeled_us, wall_us, start_us: 0.0, hidden_us: 0.0, stream: 0 }
    }

    /// Modeled end on the device schedule, µs.
    pub fn end_us(&self) -> f64 {
        self.start_us + self.modeled_us
    }

    /// The kernel name, or a fixed label for transfers/allocs.
    pub fn label(&self) -> &'static str {
        match &self.kind {
            EventKind::Alloc { .. } => "<alloc>",
            EventKind::Htod { .. } => "<htod>",
            EventKind::Dtoh { .. } => "<dtoh>",
            EventKind::Kernel { name, .. } => name,
            EventKind::Fault { .. } => "<fault>",
            EventKind::Marker { .. } => "<marker>",
        }
    }
}

/// Aggregate view over a span of events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Modeled µs in host→device copies.
    pub htod_us: f64,
    /// Modeled µs in device→host copies.
    pub dtoh_us: f64,
    /// Modeled µs in kernels.
    pub kernel_us: f64,
    /// Kernel launches.
    pub kernels: u64,
    /// Bytes moved host→device.
    pub htod_bytes: u64,
    /// Bytes moved device→host.
    pub dtoh_bytes: u64,
    /// Modeled µs per kernel name.
    pub per_kernel_us: BTreeMap<&'static str, f64>,
    /// Injected faults observed in the span.
    pub faults: u64,
    /// Of the busy times above, the part that ran under work already
    /// scheduled ([`Event::hidden_us`]); 0 without overlap.
    pub hidden_us: f64,
    /// The transfers' share of `hidden_us`.
    pub hidden_transfer_us: f64,
}

impl Breakdown {
    /// Exposed modeled device time: the busy times less what hid under
    /// earlier work. Without overlap, exactly their sum.
    pub fn total_us(&self) -> f64 {
        self.htod_us + self.dtoh_us + self.kernel_us - self.hidden_us
    }

    /// Exposed transfer time: both copy directions less their hidden
    /// part.
    pub fn transfer_us(&self) -> f64 {
        self.htod_us + self.dtoh_us - self.hidden_transfer_us
    }

    /// Exposed transfer share of total modeled time (0..1); `None` when
    /// idle.
    pub fn transfer_fraction(&self) -> Option<f64> {
        let t = self.total_us();
        (t > 0.0).then(|| self.transfer_us() / t)
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total {:.1} µs = htod {:.1} + kernels {:.1} ({}) + dtoh {:.1}",
            self.total_us(),
            self.htod_us,
            self.kernel_us,
            self.kernels,
            self.dtoh_us
        )?;
        for (name, us) in &self.per_kernel_us {
            writeln!(f, "  {name:<28} {us:>12.1} µs")?;
        }
        if self.hidden_us > 0.0 {
            writeln!(f, "  overlapped: {:.1} µs", self.hidden_us)?;
        }
        if self.faults > 0 {
            writeln!(f, "  faults injected: {}", self.faults)?;
        }
        Ok(())
    }
}

/// One row of the per-kernel profiler report.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelReport {
    /// Kernel name.
    pub name: &'static str,
    /// Launch count.
    pub launches: u64,
    /// Total modeled µs.
    pub modeled_us: f64,
    /// Total threads launched.
    pub threads: u64,
    /// Total tallied flops.
    pub flops: u64,
    /// Global bytes requested.
    pub gmem_bytes: u64,
    /// Coalescing efficiency over all launches (None without traffic).
    pub coalescing: Option<f64>,
    /// Launches whose binding resource was compute / memory / latency.
    pub bound_counts: (u64, u64, u64),
}

impl KernelReport {
    /// The dominant binding resource across launches.
    pub fn dominant_bound(&self) -> crate::timing::Bound {
        let (c, m, l) = self.bound_counts;
        if c >= m && c >= l {
            crate::timing::Bound::Compute
        } else if m >= l {
            crate::timing::Bound::Memory
        } else {
            crate::timing::Bound::Latency
        }
    }
}

/// The engines a timed op can occupy: the SMs, then the copy engines
/// (one per direction when [`DeviceProps::COPY_ENGINES`] is 2).
const ENGINES: usize = 1 + DeviceProps::COPY_ENGINES;

/// Where the schedule stands: see the module docs.
#[derive(Clone, Debug)]
struct Schedule {
    /// Per stream, when its last op ends (index 0: the default stream).
    tails: Vec<f64>,
    /// Per engine, when it frees up.
    engines: [f64; ENGINES],
    /// The host clock: the end of the last blocking read.
    host: f64,
    /// The end of the last default-stream op; nothing starts before it.
    barrier: f64,
    /// The latest end so far: the makespan.
    frontier: f64,
}

impl Default for Schedule {
    fn default() -> Self {
        Schedule { tails: vec![0.0], engines: [0.0; ENGINES], host: 0.0, barrier: 0.0, frontier: 0.0 }
    }
}

/// The engine a timed op runs on, `None` for an untimed one.
fn engine(kind: &EventKind) -> Option<usize> {
    match kind {
        EventKind::Kernel { .. } => Some(0),
        EventKind::Htod { .. } => Some(1),
        EventKind::Dtoh { .. } => Some(DeviceProps::COPY_ENGINES),
        EventKind::Alloc { .. } | EventKind::Fault { .. } | EventKind::Marker { .. } => None,
    }
}

/// The event log. Owned by [`crate::Device`]; reset between experiment
/// phases with [`Timeline::clear`] or bracketed with [`Timeline::mark`] /
/// [`Timeline::breakdown_since`].
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    events: Vec<Event>,
    device: Option<u32>,
    clock: Schedule,
}

impl Timeline {
    /// All recorded events, oldest first.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Tags this timeline with the ordinal of the device that owns it.
    /// Exports ([`crate::export_timeline_spans`]) and fleet telemetry
    /// label every event with it, so merged multi-device traces stay
    /// attributable.
    pub fn set_device(&mut self, ordinal: u32) {
        self.device = Some(ordinal);
    }

    /// The owning device's ordinal, when one was set.
    pub fn device(&self) -> Option<u32> {
        self.device
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Places `ev` on the schedule on its stream and logs it. A
    /// `blocking` op (a read the host waits for) moves the host clock to
    /// its end.
    pub(crate) fn push(&mut self, mut ev: Event, blocking: bool) {
        let c = &mut self.clock;
        let prev = c.frontier;
        ev.start_us = prev;
        if let Some(e) = engine(&ev.kind) {
            let s = ev.stream as usize;
            if s != 0 {
                ev.start_us = c.tails[s].max(c.engines[e]).max(c.host).max(c.barrier);
            }
            let end = ev.start_us + ev.modeled_us;
            if ev.start_us < prev {
                ev.hidden_us = ev.modeled_us.min(prev - ev.start_us);
            }
            (c.tails[s], c.engines[e], c.frontier) = (end, end, prev.max(end));
            if s == 0 {
                c.barrier = end;
            }
            if blocking {
                c.host = end;
            }
        }
        self.events.push(ev);
    }

    /// A new stream's index (see the module docs).
    pub(crate) fn new_stream(&mut self) -> u32 {
        self.clock.tails.push(0.0);
        (self.clock.tails.len() - 1) as u32
    }

    /// When the last op issued on `stream` ends.
    pub(crate) fn tail(&self, stream: u32) -> f64 {
        self.clock.tails[stream as usize]
    }

    /// Holds every later op on `stream` until `at_us`.
    pub(crate) fn wait(&mut self, stream: u32, at_us: f64) {
        let tail = &mut self.clock.tails[stream as usize];
        *tail = tail.max(at_us);
    }

    /// Records a supervisor annotation ([`EventKind::Marker`]) at the
    /// current point in the log. Markers carry no modeled or wall time;
    /// they exist so out-of-band policy (circuit breakers, shedding)
    /// leaves an in-band trace.
    pub fn note(&mut self, desc: impl Into<String>) {
        self.push(Event::new(EventKind::Marker { desc: desc.into() }, 0.0, 0.0), false);
    }

    /// Forgets all events and restarts the clock at 0; streams stay
    /// valid.
    pub fn clear(&mut self) {
        self.events.clear();
        let streams = self.clock.tails.len();
        self.clock = Schedule { tails: vec![0.0; streams], ..Schedule::default() };
    }

    /// A cursor for [`Timeline::breakdown_since`].
    pub fn mark(&self) -> usize {
        self.events.len()
    }

    /// Aggregates every event.
    pub fn breakdown(&self) -> Breakdown {
        self.breakdown_since(0)
    }

    /// Aggregates events recorded after the given [`Timeline::mark`].
    pub fn breakdown_since(&self, mark: usize) -> Breakdown {
        let mut b = Breakdown::default();
        for ev in &self.events[mark.min(self.events.len())..] {
            b.hidden_us += ev.hidden_us;
            if matches!(ev.kind, EventKind::Htod { .. } | EventKind::Dtoh { .. }) {
                b.hidden_transfer_us += ev.hidden_us;
            }
            match &ev.kind {
                EventKind::Alloc { .. } => {}
                EventKind::Htod { bytes } => {
                    b.htod_us += ev.modeled_us;
                    b.htod_bytes += bytes;
                }
                EventKind::Dtoh { bytes } => {
                    b.dtoh_us += ev.modeled_us;
                    b.dtoh_bytes += bytes;
                }
                EventKind::Kernel { name, .. } => {
                    b.kernel_us += ev.modeled_us;
                    b.kernels += 1;
                    *b.per_kernel_us.entry(name).or_insert(0.0) += ev.modeled_us;
                }
                EventKind::Fault { .. } => b.faults += 1,
                EventKind::Marker { .. } => {}
            }
        }
        b
    }

    /// Per-kernel profiler rows, sorted by descending modeled time — the
    /// `nvprof`-style summary the CLI's `profile` command prints.
    pub fn kernel_report(&self) -> Vec<KernelReport> {
        let mut by_name: BTreeMap<&'static str, KernelReport> = BTreeMap::new();
        let mut ideal_tx: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut issued_tx: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in &self.events {
            if let EventKind::Kernel { name, stats, timing, .. } = &ev.kind {
                let row = by_name.entry(name).or_insert_with(|| KernelReport {
                    name,
                    launches: 0,
                    modeled_us: 0.0,
                    threads: 0,
                    flops: 0,
                    gmem_bytes: 0,
                    coalescing: None,
                    bound_counts: (0, 0, 0),
                });
                row.launches += 1;
                row.modeled_us += ev.modeled_us;
                row.threads += stats.threads;
                row.flops += stats.flops;
                row.gmem_bytes += stats.gmem_bytes;
                match timing.bound() {
                    crate::timing::Bound::Compute => row.bound_counts.0 += 1,
                    crate::timing::Bound::Memory => row.bound_counts.1 += 1,
                    crate::timing::Bound::Latency => row.bound_counts.2 += 1,
                }
                *ideal_tx.entry(name).or_insert(0) +=
                    stats.gmem_bytes.div_ceil(crate::stats::TRANSACTION_BYTES);
                *issued_tx.entry(name).or_insert(0) += stats.gmem_transactions;
            }
        }
        let mut rows: Vec<KernelReport> = by_name
            .into_values()
            .map(|mut r| {
                let issued = issued_tx[r.name];
                if issued > 0 {
                    r.coalescing = Some(ideal_tx[r.name] as f64 / issued as f64);
                }
                r
            })
            .collect();
        rows.sort_by(|a, b| b.modeled_us.total_cmp(&a.modeled_us));
        rows
    }

    /// Renders [`Timeline::kernel_report`] as an aligned text table.
    pub fn kernel_report_table(&self) -> String {
        let rows = self.kernel_report();
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>8} {:>12} {:>12} {:>10} {:>8}
",
            "kernel", "launches", "modeled µs", "threads", "coalesce", "bound"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.1} {:>12} {:>10} {:>8}
",
                r.name,
                r.launches,
                r.modeled_us,
                r.threads,
                r.coalescing.map_or("-".to_string(), |c| format!("{:.0}%", 100.0 * c.min(1.0))),
                match r.dominant_bound() {
                    crate::timing::Bound::Compute => "compute",
                    crate::timing::Bound::Memory => "memory",
                    crate::timing::Bound::Latency => "latency",
                }
            ));
        }
        out
    }

    /// Human-readable annotation lines for every zero-cost fault/marker
    /// event, in log order, each prefixed with the modeled timestamp (µs)
    /// at which it fired. These events carry no modeled time and are
    /// skipped by [`Timeline::breakdown`]; this is how supervisors
    /// (profilers, the CLI) surface them instead of dropping them.
    pub fn notes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for ev in &self.events {
            let clock = ev.start_us;
            match &ev.kind {
                EventKind::Fault { desc, op } => {
                    out.push(format!("[{clock:>12.1} µs] fault @op {op}: {desc}"));
                }
                EventKind::Marker { desc } => {
                    out.push(format!("[{clock:>12.1} µs] marker: {desc}"));
                }
                _ => {}
            }
        }
        out
    }

    /// The makespan: when the last op ends, µs. With only the default
    /// stream in use, the sum of every event's modeled time.
    pub fn total_modeled_us(&self) -> f64 {
        self.clock.frontier
    }

    /// Total host wall µs spent simulating (diagnostic).
    pub fn total_wall_us(&self) -> f64 {
        self.events.iter().map(|e| e.wall_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_event(name: &'static str, us: f64) -> Event {
        Event::new(EventKind::Kernel {
                name,
                grid: 1,
                block: 32,
                stats: LaunchStats::default(),
                timing: KernelTiming::default(),
            }, us, 0.0)
    }

    fn htod(bytes: u64, us: f64) -> Event {
        Event::new(EventKind::Htod { bytes }, us, 0.0)
    }

    #[test]
    fn breakdown_aggregates_by_category_and_name() {
        let mut tl = Timeline::default();
        tl.push(htod(1000, 5.0), false);
        tl.push(kernel_event("sweep", 10.0), false);
        tl.push(kernel_event("sweep", 10.0), false);
        tl.push(kernel_event("reduce", 2.0), false);
        tl.push(Event::new(EventKind::Dtoh { bytes: 8 }, 1.0, 0.0), false);
        let b = tl.breakdown();
        assert_eq!(b.kernels, 3);
        assert_eq!(b.htod_bytes, 1000);
        assert_eq!(b.dtoh_bytes, 8);
        assert!((b.kernel_us - 22.0).abs() < 1e-12);
        assert!((b.total_us() - 28.0).abs() < 1e-12);
        assert_eq!(b.per_kernel_us["sweep"], 20.0);
        assert_eq!(b.per_kernel_us["reduce"], 2.0);
        assert!((b.transfer_fraction().unwrap() - 6.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn marks_scope_aggregation() {
        let mut tl = Timeline::default();
        tl.push(kernel_event("warmup", 100.0), false);
        let m = tl.mark();
        tl.push(kernel_event("sweep", 7.0), false);
        let b = tl.breakdown_since(m);
        assert_eq!(b.kernels, 1);
        assert!((b.kernel_us - 7.0).abs() < 1e-12);
        // Full breakdown still sees both.
        assert_eq!(tl.breakdown().kernels, 2);
    }

    #[test]
    fn clear_and_empty() {
        let mut tl = Timeline::default();
        assert!(tl.is_empty());
        assert_eq!(tl.breakdown().transfer_fraction(), None);
        tl.push(kernel_event("k", 1.0), false);
        assert_eq!(tl.len(), 1);
        tl.clear();
        assert!(tl.is_empty());
    }

    #[test]
    fn allocs_do_not_contribute_time() {
        let mut tl = Timeline::default();
        tl.push(Event::new(EventKind::Alloc { bytes: 1 << 20 }, 0.0, 3.0), false);
        assert_eq!(tl.breakdown().total_us(), 0.0);
        assert_eq!(tl.total_wall_us(), 3.0);
        assert_eq!(tl.events()[0].label(), "<alloc>");
    }

    #[test]
    fn fault_events_are_counted_and_labeled() {
        let mut tl = Timeline::default();
        tl.push(Event::new(EventKind::Fault { desc: "bit-flip @ launch".into(), op: 7 }, 0.0, 0.0), false);
        assert_eq!(tl.events()[0].label(), "<fault>");
        let b = tl.breakdown();
        assert_eq!(b.faults, 1);
        assert_eq!(b.total_us(), 0.0, "faults carry no modeled time");
        assert!(b.to_string().contains("faults injected: 1"));
    }

    #[test]
    fn markers_are_labeled_and_timeless() {
        let mut tl = Timeline::default();
        tl.push(kernel_event("sweep", 5.0), false);
        tl.note("breaker closed→open");
        assert_eq!(tl.len(), 2);
        assert_eq!(tl.events()[1].label(), "<marker>");
        let b = tl.breakdown();
        assert_eq!(b.kernels, 1, "markers are not kernels");
        assert_eq!(b.faults, 0, "markers are not faults");
        assert!((b.total_us() - 5.0).abs() < 1e-12, "markers carry no modeled time");
        match &tl.events()[1].kind {
            EventKind::Marker { desc } => assert_eq!(desc, "breaker closed→open"),
            other => panic!("expected marker, got {other:?}"),
        }
    }

    #[test]
    fn display_contains_kernel_rows() {
        let mut tl = Timeline::default();
        tl.push(kernel_event("inject", 4.0), false);
        let s = tl.breakdown().to_string();
        assert!(s.contains("inject"));
        assert!(s.contains("kernels 4.0 (1)"));
    }
}

#[cfg(test)]
mod report_tests {
    use super::*;

    fn kernel_with(name: &'static str, us: f64, bytes: u64, tx: u64) -> Event {
        let stats = LaunchStats {
            blocks: 1,
            threads: 32,
            gmem_bytes: bytes,
            gmem_transactions: tx,
            ..Default::default()
        };
        let timing = KernelTiming { mem_us: us, total_us: us, ..Default::default() };
        Event::new(EventKind::Kernel { name, grid: 1, block: 32, stats, timing }, us, 0.0)
    }

    #[test]
    fn kernel_report_aggregates_and_sorts() {
        let mut tl = Timeline::default();
        tl.push(kernel_with("small", 1.0, 128, 1), false);
        tl.push(kernel_with("big", 5.0, 1280, 20), false);
        tl.push(kernel_with("big", 5.0, 1280, 20), false);
        let rows = tl.kernel_report();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "big");
        assert_eq!(rows[0].launches, 2);
        assert!((rows[0].modeled_us - 10.0).abs() < 1e-12);
        // big: ideal = 2×10 tx, issued 40 → 50% coalesced.
        assert_eq!(rows[0].coalescing, Some(0.5));
        assert_eq!(rows[1].name, "small");
        assert_eq!(rows[1].coalescing, Some(1.0));
    }

    #[test]
    fn report_table_renders() {
        let mut tl = Timeline::default();
        tl.push(kernel_with("sweep", 3.0, 256, 2), false);
        let table = tl.kernel_report_table();
        assert!(table.contains("sweep"));
        assert!(table.contains("memory"));
        assert!(table.contains("100%"));
    }

    #[test]
    fn empty_timeline_empty_report() {
        assert!(Timeline::default().kernel_report().is_empty());
    }
}
