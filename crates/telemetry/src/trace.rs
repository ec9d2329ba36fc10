//! Span-based tracing stamped with **modeled** microseconds.
//!
//! Timestamps come from the simulator's analytical clock (never from host
//! wall time or `Instant`), so a trace of a fixed-seed run is byte-stable
//! and can be pinned by golden tests. Events are kept in insertion order;
//! producers are single-threaded per track, which keeps ordering
//! deterministic without sorting.

/// A typed span/instant argument value.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer argument (byte counts, iteration numbers, ...).
    U64(u64),
    /// Float argument (residuals, microseconds, ...).
    F64(f64),
    /// String argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}
impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}
impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// A complete ("X"-phase) span: something with a start and a duration on
/// the modeled clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Event name (kernel name, phase name, `iter`, ...).
    pub name: String,
    /// Category, used for filtering in trace viewers (`kernel`, `xfer`,
    /// `phase`, `solver`, ...).
    pub cat: String,
    /// Track id; see the `tid` constants on [`Trace`].
    pub tid: u32,
    /// Start, in modeled microseconds from run start.
    pub ts_us: f64,
    /// Duration, in modeled microseconds.
    pub dur_us: f64,
    /// Extra key/value payload.
    pub args: Vec<(String, ArgValue)>,
}

/// A zero-duration ("i"-phase) event: faults, markers, state transitions.
#[derive(Debug, Clone, PartialEq)]
pub struct InstantEvent {
    /// Event name.
    pub name: String,
    /// Category.
    pub cat: String,
    /// Track id.
    pub tid: u32,
    /// Timestamp, in modeled microseconds from run start.
    pub ts_us: f64,
    /// Extra key/value payload.
    pub args: Vec<(String, ArgValue)>,
}

/// A sample of a time-varying quantity (residual, queue depth); exported
/// as a Chrome "C" (counter) event.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Series name.
    pub name: String,
    /// Timestamp, in modeled microseconds from run start.
    pub ts_us: f64,
    /// Sampled value.
    pub value: f64,
}

/// An in-memory trace: spans, instants, and counter samples plus track
/// naming metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Complete spans, in insertion order.
    pub spans: Vec<Span>,
    /// Instant events, in insertion order.
    pub instants: Vec<InstantEvent>,
    /// Counter samples, in insertion order.
    pub counters: Vec<CounterSample>,
    /// `(tid, display name)` pairs emitted as thread-name metadata.
    pub thread_names: Vec<(u32, String)>,
}

impl Trace {
    /// Track for solver-level per-iteration / per-phase spans.
    pub const TID_SOLVER: u32 = 0;
    /// Track for device timeline events (kernels, transfers, faults).
    pub const TID_DEVICE: u32 = 1;
    /// Track for aggregate per-phase totals.
    pub const TID_PHASES: u32 = 2;
    /// Track for service-layer events (queue, breaker, shed).
    pub const TID_SERVICE: u32 = 3;
    /// Track for fleet-level events (routing, failover, brown-out).
    pub const TID_FLEET: u32 = 4;

    /// Track id for device `ordinal` in a merged multi-device trace.
    /// Device tracks start above the fixed tracks so any fleet size
    /// coexists with the constants above.
    pub fn tid_for_device(ordinal: u32) -> u32 {
        16 + ordinal
    }

    /// Track id for stream `stream` of the device exported on track
    /// `tid`: the device's own track for the default stream (0), and one
    /// track per created stream, numbered above every device track.
    pub fn tid_for_stream(tid: u32, stream: u32) -> u32 {
        tid + (stream << 16)
    }

    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a track (deduplicated; first name wins).
    pub fn name_thread(&mut self, tid: u32, name: &str) {
        if !self.thread_names.iter().any(|(t, _)| *t == tid) {
            self.thread_names.push((tid, name.to_string()));
        }
    }

    /// Append a complete span.
    pub fn push_span(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// Append an instant event.
    pub fn push_instant(&mut self, ev: InstantEvent) {
        self.instants.push(ev);
    }

    /// Append a counter sample.
    pub fn push_counter(&mut self, name: &str, ts_us: f64, value: f64) {
        self.counters.push(CounterSample {
            name: name.to_string(),
            ts_us,
            value,
        });
    }

    /// Total number of events of all kinds.
    pub fn len(&self) -> usize {
        self.spans.len() + self.instants.len() + self.counters.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of span durations in the given category.
    pub fn total_us_in_cat(&self, cat: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.cat == cat)
            .map(|s| s.dur_us)
            .sum()
    }
}
