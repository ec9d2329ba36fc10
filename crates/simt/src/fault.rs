//! Deterministic fault injection for the simulated device.
//!
//! Real GPU deployments see allocation failures, transient launch
//! errors, in-flight transfer corruption, resident-memory bit flips
//! (ECC-less parts) and outright device loss. This module gives the
//! simulator the same failure surface, but *replayable*: a [`FaultPlan`]
//! is a pure function of `(seed, operation index)` driven by the
//! in-repo [`rng`] crate, so a faulty run can be reproduced bit-for-bit
//! from its seed.
//!
//! ## Model
//!
//! Every device operation (`try_alloc`, `try_htod`, `try_dtoh`,
//! `try_launch`) consumes one *op index* from the armed plan and asks it
//! for a fault decision at that index. The op counter lives behind an
//! `Arc` shared by every clone of the plan, so a supervisor that
//! retries an attempt on a fresh [`crate::Device`] continues the op
//! stream instead of replaying the identical fault forever.
//!
//! Injected faults are either *loud* (the op returns a
//! [`DeviceError`]: [`FaultKind::AllocOom`], [`FaultKind::LaunchFailure`],
//! [`FaultKind::DeviceLost`]) or *silent* data corruption the caller
//! must detect itself ([`FaultKind::TransferCorruption`],
//! [`FaultKind::BufferBitFlip`]). Silent flips are biased into the
//! exponent bits (52..=62) of each 8-byte word so corruption is
//! catastrophic rather than subtle — the regime a residual-spike
//! detector can reliably catch, mirroring the high-order-bit upsets
//! that dominate real soft-error studies.
//!
//! Seeded plans never corrupt device→host read-backs: the read path on
//! real parts is protected end-to-end (link CRC + ECC reads), whereas
//! writes can land corrupted in unprotected DRAM. Scripted plans may
//! still place [`FaultKind::TransferCorruption`] on a dtoh op
//! explicitly.
//!
//! ## Compound faults (storms)
//!
//! Single seeded pinpricks under-model production incidents. A
//! [`StormSchedule`] layers *correlated* compound faults over a base
//! plan: burst windows of elevated fault rate, corruption-under-load
//! ramps, and cross-device kill windows keyed off
//! [`crate::Device::ordinal`] — the same schedule cloned onto every
//! fleet device loses the listed ordinals in the same op window, then
//! lets them recover. Storm decisions stay pure functions of
//! `(storm seed, ordinal, op, site)`, so storm runs replay
//! byte-identically too.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rng::{Rng, SplitMix64};

/// Which device entry point a fault decision is being made for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// `try_alloc` / the allocation half of `try_alloc_from`.
    Alloc,
    /// Host→device transfer.
    Htod,
    /// Device→host transfer.
    Dtoh,
    /// Kernel launch.
    Launch,
}

impl FaultSite {
    /// Short site label used in timeline events and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::Alloc => "alloc",
            FaultSite::Htod => "htod",
            FaultSite::Dtoh => "dtoh",
            FaultSite::Launch => "launch",
        }
    }
}

/// An injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The allocation reports out-of-memory (transient: a later retry
    /// draws a new op index and normally succeeds).
    AllocOom,
    /// The launch fails before the kernel runs (transient).
    LaunchFailure,
    /// One exponent-range bit of the transferred data is flipped in
    /// flight. Silent: the transfer itself "succeeds".
    TransferCorruption,
    /// One bit of a resident device buffer is flipped at launch time.
    /// Silent. The raw `buffer`/`word` values are reduced modulo the
    /// live-allocation registry by the device when applied.
    BufferBitFlip {
        /// Selects which live allocation is hit (modulo live count).
        buffer: u64,
        /// Selects the 8-byte word within it (modulo word count).
        word: u64,
        /// Bit within the word; seeded plans draw from 52..=62.
        bit: u32,
    },
    /// The device falls off the bus. Sticky: every subsequent op fails
    /// with [`DeviceError::DeviceLost`].
    DeviceLost {
        /// Op index at which the device was lost.
        at_op: u64,
    },
}

impl FaultKind {
    /// Short kind label used in timeline events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::AllocOom => "alloc-oom",
            FaultKind::LaunchFailure => "launch-failure",
            FaultKind::TransferCorruption => "transfer-corruption",
            FaultKind::BufferBitFlip { .. } => "bit-flip",
            FaultKind::DeviceLost { .. } => "device-lost",
        }
    }

    /// Whether this fault kind can fire at the given site.
    fn applies_at(&self, site: FaultSite) -> bool {
        match self {
            FaultKind::AllocOom => site == FaultSite::Alloc,
            FaultKind::LaunchFailure | FaultKind::BufferBitFlip { .. } => {
                site == FaultSite::Launch
            }
            FaultKind::TransferCorruption => {
                matches!(site, FaultSite::Htod | FaultSite::Dtoh)
            }
            FaultKind::DeviceLost { .. } => true,
        }
    }
}

/// One injected fault, as recorded by the device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Device op index at which the fault fired.
    pub op: u64,
    /// The entry point it fired in.
    pub site: FaultSite,
    /// What was injected.
    pub kind: FaultKind,
}

impl FaultRecord {
    /// Whether the fault can have changed what device memory holds: a bit
    /// flip, a corrupted upload, or a lost device. A corrupted read-back,
    /// a failed allocation or a failed launch leaves it as it was.
    pub fn reaches_device_memory(&self) -> bool {
        match self.kind {
            FaultKind::BufferBitFlip { .. } | FaultKind::DeviceLost { .. } => true,
            FaultKind::TransferCorruption => self.site == FaultSite::Htod,
            FaultKind::AllocOom | FaultKind::LaunchFailure => false,
        }
    }
}

/// Error returned by the fallible device API (`try_alloc` / `try_htod`
/// / `try_dtoh` / `try_launch`).
///
/// The `Display` strings of [`DeviceError::TransferSize`] and
/// [`DeviceError::Launch`] reproduce the historical panic messages, so
/// the infallible wrappers (which panic with `{err}`) keep their
/// long-standing `#[should_panic]` contracts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The allocation would exceed device memory (or an
    /// [`FaultKind::AllocOom`] was injected).
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes currently allocated.
        in_use: u64,
        /// Device capacity ([`crate::DeviceProps::global_mem_bytes`]).
        capacity: u64,
    },
    /// Host/device length mismatch on a transfer.
    TransferSize {
        /// Host slice length, elements.
        host: usize,
        /// Device buffer length, elements.
        device: usize,
    },
    /// Launch-geometry violation or injected launch failure.
    Launch {
        /// Human-readable reason, e.g. `empty grid`.
        reason: String,
    },
    /// The device was lost; every subsequent op fails the same way.
    DeviceLost {
        /// Op index at which the device was lost.
        at_op: u64,
    },
    /// A checked transfer's CRC64s disagreed: the payload was corrupted
    /// in flight ([`crate::Device::try_htod_checked`] /
    /// [`crate::Device::try_dtoh_checked`]). Retryable — the recovery
    /// layer re-issues the transfer before escalating.
    TransferCorrupted {
        /// Which transfer direction was corrupted.
        site: FaultSite,
        /// CRC64 of the payload on the sending side.
        expected: u64,
        /// CRC64 observed on the receiving side.
        actual: u64,
    },
    /// A guarded allocation's canary words were overwritten
    /// ([`crate::Device::audit_canaries`]).
    CanarySmashed {
        /// Id of the buffer whose guard frame was hit.
        buffer: u32,
    },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfMemory { requested, in_use, capacity } => write!(
                f,
                "device out of memory: requested {requested} B with {in_use} B of {capacity} B in use"
            ),
            DeviceError::TransferSize { host, device } => {
                write!(f, "htod length mismatch: host {host} vs device {device}")
            }
            DeviceError::Launch { reason } => write!(f, "launch failure: {reason}"),
            DeviceError::DeviceLost { at_op } => write!(f, "device lost (op {at_op})"),
            DeviceError::TransferCorrupted { site, expected, actual } => write!(
                f,
                "transfer corrupted ({}): crc {expected:#018x} != {actual:#018x}",
                site.label()
            ),
            DeviceError::CanarySmashed { buffer } => {
                write!(f, "canary smashed: buffer {buffer} guard words overwritten")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// A deterministic compound-fault schedule layered on top of a
/// [`FaultPlan`]'s base rate — the *storm* model.
///
/// Production failure modes are correlated, not single pinpricks: a rack
/// power event kills several devices in the same instant, and corruption
/// rates climb with link load. A `StormSchedule` expresses those as pure
/// functions of `(storm seed, device ordinal, op index, site)`:
///
/// * **Burst windows** — a flat elevated fault rate over an op range.
/// * **Corruption ramps** — the rate climbs linearly from zero to a peak
///   across the window (corruption-under-load).
/// * **Correlated kills** — every device whose
///   [`crate::Device::ordinal`] is listed is lost for the op window,
///   then recovers (a fresh device instance past the window serves
///   again) — the rack-event analog the fleet's rejoin probes must
///   survive.
///
/// One schedule is cloned onto every device's plan; kills correlate
/// exactly (same windows), while burst/ramp decisions decorrelate per
/// ordinal so devices don't corrupt in lockstep. Like the base plan,
/// Dtoh read-backs are never corrupted by seeded storm decisions.
#[derive(Clone, Debug, Default)]
pub struct StormSchedule {
    seed: u64,
    bursts: Vec<Burst>,
    ramps: Vec<Burst>,
    kills: Vec<KillWindow>,
}

#[derive(Clone, Copy, Debug)]
struct Burst {
    from_op: u64,
    len_ops: u64,
    rate: f64,
}

#[derive(Clone, Debug)]
struct KillWindow {
    from_op: u64,
    until_op: u64,
    ordinals: Vec<u32>,
}

impl StormSchedule {
    /// An empty schedule drawing its burst/ramp decisions from `seed`.
    pub fn new(seed: u64) -> Self {
        StormSchedule { seed, ..StormSchedule::default() }
    }

    /// Adds a burst window: ops in `[from_op, from_op + len_ops)` fault
    /// at `rate` (a probability) regardless of the base plan's rate.
    pub fn with_burst(mut self, from_op: u64, len_ops: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate) && rate.is_finite(), "burst rate {rate} not a probability");
        self.bursts.push(Burst { from_op, len_ops, rate });
        self
    }

    /// Adds a corruption-under-load ramp: across the window the fault
    /// rate climbs linearly from 0 to `peak_rate`.
    pub fn with_corruption_ramp(mut self, from_op: u64, len_ops: u64, peak_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&peak_rate) && peak_rate.is_finite(),
            "ramp peak {peak_rate} not a probability"
        );
        self.ramps.push(Burst { from_op, len_ops, rate: peak_rate });
        self
    }

    /// Adds a correlated kill: every listed ordinal is device-lost for
    /// ops in `[from_op, until_op)` and recovers after the window.
    pub fn with_correlated_kill(
        mut self,
        from_op: u64,
        until_op: u64,
        ordinals: impl IntoIterator<Item = u32>,
    ) -> Self {
        assert!(from_op < until_op, "kill window must be non-empty");
        self.kills.push(KillWindow { from_op, until_op, ordinals: ordinals.into_iter().collect() });
        self
    }

    /// The seed of the storm's burst/ramp decision stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The storm's elevated fault rate at `op` (0 outside all windows).
    pub fn rate_at(&self, op: u64) -> f64 {
        let burst = self
            .bursts
            .iter()
            .filter(|b| b.active(op))
            .map(|b| b.rate)
            .fold(0.0f64, f64::max);
        let ramp = self
            .ramps
            .iter()
            .filter(|r| r.active(op))
            .map(|r| r.rate * ((op - r.from_op) + 1) as f64 / r.len_ops as f64)
            .fold(0.0f64, f64::max);
        burst.max(ramp)
    }

    /// True when `ordinal` is inside an active kill window at `op`.
    pub fn kills_at(&self, ordinal: u32, op: u64) -> bool {
        self.kills
            .iter()
            .any(|k| op >= k.from_op && op < k.until_op && k.ordinals.contains(&ordinal))
    }

    /// The storm's fault decision (pure in `(seed, ordinal, op, site)`).
    /// Kills take precedence; burst/ramp decisions follow the base
    /// plan's site model and never corrupt Dtoh.
    pub fn decide(&self, ordinal: u32, op: u64, site: FaultSite) -> Option<FaultKind> {
        if self.kills_at(ordinal, op) {
            return Some(FaultKind::DeviceLost { at_op: op });
        }
        let rate = self.rate_at(op);
        if rate <= 0.0 {
            return None;
        }
        let mut g = FaultPlan::stream(
            self.seed ^ (u64::from(ordinal) + 1).wrapping_mul(0xD6E8_FEB8_6659_FD93),
            op,
        );
        if g.gen_f64() >= rate {
            return None;
        }
        match site {
            FaultSite::Alloc => Some(FaultKind::AllocOom),
            FaultSite::Htod => Some(FaultKind::TransferCorruption),
            FaultSite::Dtoh => None,
            FaultSite::Launch => Some(if g.gen_bool(0.25) {
                FaultKind::LaunchFailure
            } else {
                FaultKind::BufferBitFlip {
                    buffer: g.next_u64(),
                    word: g.next_u64(),
                    bit: 52 + (g.next_u64() % 11) as u32,
                }
            }),
        }
    }
}

impl Burst {
    fn active(&self, op: u64) -> bool {
        op >= self.from_op && op - self.from_op < self.len_ops
    }
}

/// A seeded, replayable schedule of injected faults.
///
/// Clones share one op counter (see the module docs), so a plan handed
/// to successive device instances continues — never restarts — its op
/// stream. Two plans built from the same seed produce byte-identical
/// fault sequences for identical op sequences.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    rate: f64,
    scripted: BTreeMap<u64, FaultKind>,
    storm: Option<StormSchedule>,
    ordinal: Option<u32>,
    ops: Arc<AtomicU64>,
}

impl FaultPlan {
    /// A plan that injects random recoverable faults at the given
    /// per-op probability. Seeded plans never inject
    /// [`FaultKind::DeviceLost`]; script one with
    /// [`FaultPlan::with_fault_at`] when loss is wanted.
    pub fn seeded(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate) && rate.is_finite(),
            "fault rate must be a probability, got {rate}"
        );
        FaultPlan {
            seed,
            rate,
            scripted: BTreeMap::new(),
            storm: None,
            ordinal: None,
            ops: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A purely scripted plan: faults fire at exactly the given op
    /// indices (when site-compatible) and nowhere else.
    pub fn scripted(entries: impl IntoIterator<Item = (u64, FaultKind)>) -> Self {
        let mut plan = FaultPlan::seeded(0, 0.0);
        plan.scripted = entries.into_iter().collect();
        plan
    }

    /// Adds a scripted fault at the given op index on top of the
    /// existing schedule.
    pub fn with_fault_at(mut self, op: u64, kind: FaultKind) -> Self {
        self.scripted.insert(op, kind);
        self
    }

    /// Layers a [`StormSchedule`] over the base rate: inside a storm
    /// window the storm's decision wins (after scripted faults).
    pub fn with_storm(mut self, storm: StormSchedule) -> Self {
        self.storm = Some(storm);
        self
    }

    /// Binds the plan to a device ordinal explicitly — the key storm
    /// kill windows correlate on. Without an explicit binding,
    /// [`crate::Device::arm_faults`] stamps the device's own ordinal.
    pub fn with_ordinal(mut self, ordinal: u32) -> Self {
        self.ordinal = Some(ordinal);
        self
    }

    /// Stamps the ordinal only if none was bound explicitly.
    pub(crate) fn bind_ordinal(&mut self, ordinal: u32) {
        self.ordinal.get_or_insert(ordinal);
    }

    /// The ordinal storm decisions key off (0 when unbound).
    pub fn ordinal(&self) -> u32 {
        self.ordinal.unwrap_or(0)
    }

    /// The layered storm schedule, if any.
    pub fn storm(&self) -> Option<&StormSchedule> {
        self.storm.as_ref()
    }

    /// The seed this plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-op fault probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Ops consumed so far across every device this plan (or a clone of
    /// it) has been armed on.
    pub fn ops_started(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Claims the next op index from the shared counter.
    pub(crate) fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }

    /// The fault (if any) scheduled for op `op` at `site`. Pure: equal
    /// `(seed, op, site)` always decide identically.
    pub fn decide(&self, op: u64, site: FaultSite) -> Option<FaultKind> {
        if let Some(kind) = self.scripted.get(&op) {
            if kind.applies_at(site) {
                return Some(match kind {
                    FaultKind::DeviceLost { .. } => FaultKind::DeviceLost { at_op: op },
                    other => other.clone(),
                });
            }
        }
        if let Some(kind) = self.storm.as_ref().and_then(|s| s.decide(self.ordinal(), op, site)) {
            return Some(kind);
        }
        if self.rate <= 0.0 {
            return None;
        }
        let mut g = Self::stream(self.seed, op);
        if g.gen_f64() >= self.rate {
            return None;
        }
        match site {
            FaultSite::Alloc => Some(FaultKind::AllocOom),
            FaultSite::Htod => Some(FaultKind::TransferCorruption),
            // Read-backs are CRC/ECC-protected end-to-end (module docs).
            FaultSite::Dtoh => None,
            FaultSite::Launch => Some(if g.gen_bool(0.25) {
                FaultKind::LaunchFailure
            } else {
                FaultKind::BufferBitFlip {
                    buffer: g.next_u64(),
                    word: g.next_u64(),
                    bit: 52 + (g.next_u64() % 11) as u32,
                }
            }),
        }
    }

    /// Byte/bit target for a [`FaultKind::TransferCorruption`] on a
    /// buffer of `bytes` bytes: `(byte offset, bit within byte)`,
    /// exponent-biased per the module docs. `None` for empty buffers.
    pub(crate) fn flip_target(&self, op: u64, bytes: u64) -> Option<(u64, u32)> {
        if bytes == 0 {
            return None;
        }
        let mut g = Self::stream(self.seed ^ 0xC0DE_F11Bu64, op);
        Some(word_flip_target(g.next_u64(), 52 + (g.next_u64() % 11) as u32, bytes))
    }

    fn stream(seed: u64, op: u64) -> SplitMix64 {
        SplitMix64::new(seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Reduces a raw `(word, bit)` draw to a concrete `(byte offset, bit in
/// byte)` inside a `bytes`-sized allocation, keeping the exponent bias
/// for allocations of at least one 8-byte word.
pub(crate) fn word_flip_target(word: u64, bit: u32, bytes: u64) -> (u64, u32) {
    if bytes >= 8 {
        let w = word % (bytes / 8);
        let b = bit % 64;
        (w * 8 + u64::from(b / 8), b % 8)
    } else {
        (word % bytes, bit % 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_replay_byte_identically() {
        let sites =
            [FaultSite::Alloc, FaultSite::Htod, FaultSite::Launch, FaultSite::Dtoh];
        let a = FaultPlan::seeded(42, 0.05);
        let b = FaultPlan::seeded(42, 0.05);
        for op in 0..5000u64 {
            let site = sites[(op % 4) as usize];
            assert_eq!(a.decide(op, site), b.decide(op, site), "op {op}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::seeded(1, 0.05);
        let b = FaultPlan::seeded(2, 0.05);
        let differs = (0..5000u64)
            .any(|op| a.decide(op, FaultSite::Launch) != b.decide(op, FaultSite::Launch));
        assert!(differs, "independent seeds must give different schedules");
    }

    #[test]
    fn rate_controls_frequency_and_zero_is_silent() {
        let silent = FaultPlan::seeded(7, 0.0);
        assert!((0..1000u64).all(|op| silent.decide(op, FaultSite::Launch).is_none()));

        let noisy = FaultPlan::seeded(7, 0.1);
        let hits =
            (0..10_000u64).filter(|&op| noisy.decide(op, FaultSite::Launch).is_some()).count();
        assert!((700..1300).contains(&hits), "≈10% of ops should fault, got {hits}");
    }

    #[test]
    fn seeded_plans_never_lose_the_device_and_never_corrupt_dtoh() {
        let plan = FaultPlan::seeded(9, 0.5);
        for op in 0..20_000u64 {
            for site in [FaultSite::Alloc, FaultSite::Htod, FaultSite::Dtoh, FaultSite::Launch] {
                match plan.decide(op, site) {
                    Some(FaultKind::DeviceLost { .. }) => panic!("seeded loss at op {op}"),
                    Some(_) if site == FaultSite::Dtoh => panic!("dtoh fault at op {op}"),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn seeded_bit_flips_stay_in_the_exponent_range() {
        let plan = FaultPlan::seeded(3, 0.9);
        let mut seen = 0;
        for op in 0..2000u64 {
            if let Some(FaultKind::BufferBitFlip { bit, .. }) = plan.decide(op, FaultSite::Launch)
            {
                assert!((52..=62).contains(&bit), "bit {bit} outside exponent range");
                seen += 1;
            }
        }
        assert!(seen > 100, "expected many flips at rate 0.9, saw {seen}");
    }

    #[test]
    fn scripted_faults_fire_only_at_their_op_and_site() {
        let plan = FaultPlan::scripted([
            (3, FaultKind::LaunchFailure),
            (5, FaultKind::DeviceLost { at_op: 0 }),
        ]);
        assert_eq!(plan.decide(3, FaultSite::Launch), Some(FaultKind::LaunchFailure));
        assert_eq!(plan.decide(3, FaultSite::Alloc), None, "site-incompatible");
        assert_eq!(plan.decide(4, FaultSite::Launch), None);
        // DeviceLost applies anywhere and reports its own op index.
        assert_eq!(plan.decide(5, FaultSite::Htod), Some(FaultKind::DeviceLost { at_op: 5 }));
    }

    #[test]
    fn clones_share_the_op_counter() {
        let plan = FaultPlan::seeded(1, 0.0);
        let clone = plan.clone();
        plan.next_op();
        clone.next_op();
        assert_eq!(plan.ops_started(), 2);
        // A fresh plan with the same seed starts over.
        assert_eq!(FaultPlan::seeded(1, 0.0).ops_started(), 0);
    }

    #[test]
    fn a_mid_stream_clone_continues_not_restarts_the_fault_stream() {
        // Regression pin: a supervisor that hands plan.clone() to a
        // fresh device mid-run must continue the op stream. If cloning
        // re-anchored the op origin, the scripted fault at op 3 would
        // fire at the clone's *first* op instead of its fourth.
        let plan = FaultPlan::scripted([(3, FaultKind::AllocOom)]);
        let mut first = crate::Device::with_workers(crate::DeviceProps::paper_rig(), 1);
        first.arm_faults(plan.clone());
        let _a = first.try_alloc::<u32>(1).expect("op 0 clean");
        let _b = first.try_alloc::<u32>(1).expect("op 1 clean");
        let _c = first.try_alloc::<u32>(1).expect("op 2 clean");

        let mut second = crate::Device::with_workers(crate::DeviceProps::paper_rig(), 1);
        second.arm_faults(plan.clone());
        let err = second.try_alloc::<u32>(1).expect_err("op 3 must continue the stream");
        assert!(matches!(err, DeviceError::OutOfMemory { .. }), "{err}");
        second.try_alloc::<u32>(1).expect("op 4 clean");
        assert_eq!(plan.ops_started(), 5, "both devices drew from one shared stream");
    }

    #[test]
    fn storm_bursts_elevate_only_their_window() {
        let storm = StormSchedule::new(5).with_burst(100, 50, 1.0);
        let plan = FaultPlan::seeded(0, 0.0).with_storm(storm);
        assert!((0..100u64).all(|op| plan.decide(op, FaultSite::Htod).is_none()));
        assert!((150..300u64).all(|op| plan.decide(op, FaultSite::Htod).is_none()));
        let hits =
            (100..150u64).filter(|&op| plan.decide(op, FaultSite::Htod).is_some()).count();
        assert_eq!(hits, 50, "rate-1.0 burst must corrupt every htod in its window");
        // Read-backs stay protected even at rate 1.0.
        assert!((100..150u64).all(|op| plan.decide(op, FaultSite::Dtoh).is_none()));
    }

    #[test]
    fn corruption_ramps_climb_toward_the_peak() {
        let storm = StormSchedule::new(9).with_corruption_ramp(0, 1000, 0.8);
        let early: f64 = storm.rate_at(10);
        let late: f64 = storm.rate_at(990);
        assert!(early < 0.02, "early ramp rate should be near zero, got {early}");
        assert!((0.75..=0.8).contains(&late), "late ramp rate should near the peak, got {late}");
        assert_eq!(storm.rate_at(1000), 0.0, "ramp ends with its window");
        let plan = FaultPlan::seeded(0, 0.0).with_storm(storm);
        let first_half =
            (0..500u64).filter(|&op| plan.decide(op, FaultSite::Htod).is_some()).count();
        let second_half =
            (500..1000u64).filter(|&op| plan.decide(op, FaultSite::Htod).is_some()).count();
        assert!(
            second_half > 2 * first_half,
            "corruption under load must intensify: {first_half} then {second_half}"
        );
    }

    #[test]
    fn correlated_kills_hit_exactly_the_listed_ordinals_and_lift() {
        let storm = StormSchedule::new(1).with_correlated_kill(10, 20, [1, 3]);
        for ordinal in [1u32, 3] {
            let plan =
                FaultPlan::seeded(0, 0.0).with_storm(storm.clone()).with_ordinal(ordinal);
            assert_eq!(plan.decide(9, FaultSite::Launch), None);
            assert_eq!(
                plan.decide(10, FaultSite::Launch),
                Some(FaultKind::DeviceLost { at_op: 10 })
            );
            assert_eq!(
                plan.decide(19, FaultSite::Alloc),
                Some(FaultKind::DeviceLost { at_op: 19 }),
                "kills apply at every site"
            );
            assert_eq!(plan.decide(20, FaultSite::Launch), None, "the window lifts");
        }
        let bystander = FaultPlan::seeded(0, 0.0).with_storm(storm).with_ordinal(2);
        assert!((0..40u64).all(|op| bystander.decide(op, FaultSite::Launch).is_none()));
    }

    #[test]
    fn storm_decisions_decorrelate_across_ordinals_but_replay_identically() {
        let storm = StormSchedule::new(77).with_burst(0, 2000, 0.3);
        let decisions = |ordinal: u32| -> Vec<bool> {
            let plan =
                FaultPlan::seeded(0, 0.0).with_storm(storm.clone()).with_ordinal(ordinal);
            (0..2000u64).map(|op| plan.decide(op, FaultSite::Htod).is_some()).collect()
        };
        assert_eq!(decisions(0), decisions(0), "same ordinal replays identically");
        assert_ne!(decisions(0), decisions(1), "distinct ordinals decorrelate");
    }

    #[test]
    fn flip_targets_are_in_bounds() {
        let plan = FaultPlan::seeded(11, 1.0);
        for op in 0..500u64 {
            for bytes in [1u64, 4, 8, 16, 8000] {
                let (byte, bit) = plan.flip_target(op, bytes).unwrap();
                assert!(byte < bytes, "byte {byte} out of {bytes}");
                assert!(bit < 8);
            }
        }
        assert_eq!(plan.flip_target(0, 0), None);
    }

    #[test]
    fn device_error_display_preserves_legacy_panic_messages() {
        let e = DeviceError::TransferSize { host: 3, device: 2 };
        assert_eq!(e.to_string(), "htod length mismatch: host 3 vs device 2");
        let e = DeviceError::Launch { reason: "empty grid".into() };
        assert_eq!(e.to_string(), "launch failure: empty grid");
        let e = DeviceError::DeviceLost { at_op: 17 };
        assert_eq!(e.to_string(), "device lost (op 17)");
        let e = DeviceError::TransferCorrupted { site: FaultSite::Htod, expected: 1, actual: 2 };
        assert_eq!(
            e.to_string(),
            "transfer corrupted (htod): crc 0x0000000000000001 != 0x0000000000000002"
        );
        let e = DeviceError::CanarySmashed { buffer: 12 };
        assert_eq!(e.to_string(), "canary smashed: buffer 12 guard words overwritten");
    }
}
