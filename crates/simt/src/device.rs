//! The device handle: allocation, transfers, launches, timeline.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use crate::buffer::{pod_bytes, pod_bytes_mut, DeviceBuffer, DeviceCopy, MemPool};
use crate::engine;
use crate::fault::{DeviceError, FaultKind, FaultPlan, FaultRecord, FaultSite};
use crate::kernel::{CoopKernel, Kernel, LaunchConfig};
use crate::stats::LaunchStats;
use crate::props::DeviceProps;
use crate::timeline::{Event, EventKind, Timeline};
use crate::timing;

/// One member of a packed host-to-device copy
/// ([`Device::try_htod_packed`]): a device buffer and the host slice that
/// fills it.
pub struct HtodPart<'a> {
    dst: &'a mut [u8],
    src: &'a [u8],
    host_len: usize,
    device_len: usize,
}

impl<'a> HtodPart<'a> {
    /// Fills `dst` from `src`; the transfer fails unless their lengths
    /// match.
    pub fn new<T: DeviceCopy>(dst: &'a mut DeviceBuffer<T>, src: &'a [T]) -> Self {
        let device_len = dst.len();
        HtodPart { dst: dst.bytes_mut(), src: pod_bytes(src), host_len: src.len(), device_len }
    }
}

/// One member of a packed device-to-host copy
/// ([`Device::try_dtoh_packed`]): the leading elements of a device buffer
/// and the host vector they land in.
pub struct DtohPart<'a> {
    src: &'a [u8],
    out: &'a mut [u8],
}

impl<'a> DtohPart<'a> {
    /// Reads all of `src` into `out`, which is resized to match.
    pub fn new<T: DeviceCopy>(src: &'a DeviceBuffer<T>, out: &'a mut Vec<T>) -> Self {
        Self::prefix(src, src.len(), out)
    }

    /// Reads the first `len` elements of `src` into `out`, which is
    /// resized to `len`.
    ///
    /// # Panics
    ///
    /// If `len` exceeds the buffer's length.
    pub fn prefix<T: DeviceCopy>(src: &'a DeviceBuffer<T>, len: usize, out: &'a mut Vec<T>) -> Self {
        Self::range(src, 0..len, out)
    }

    /// Reads the elements `at` of `src` into `out`, which is resized to
    /// their count.
    ///
    /// # Panics
    ///
    /// If `at` runs past the end of the buffer.
    pub fn range<T: DeviceCopy>(
        src: &'a DeviceBuffer<T>,
        at: Range<usize>,
        out: &'a mut Vec<T>,
    ) -> Self {
        assert!(at.end <= src.len(), "dtoh of elements {at:?} from a buffer of {}", src.len());
        out.clear();
        out.resize(at.len(), T::default());
        let size = std::mem::size_of::<T>();
        DtohPart { src: &src.bytes()[size * at.start..size * at.end], out: pod_bytes_mut(out) }
    }
}

/// A stream (`cudaStream_t`): ops issued on one run in issue order. The
/// default stream orders against every other; see [`crate::timeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stream(u32);

impl Stream {
    /// The legacy default stream every device op runs on unless
    /// [`Device::set_stream`] picks another.
    pub const DEFAULT: Stream = Stream(0);
}

/// A point on a stream's schedule (`cudaEvent_t`): what
/// [`Device::record_event`] captured and [`Device::wait_event`] waits for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamEvent {
    at_us: f64,
}

/// The byte at offset `at` of the concatenation of `members`.
fn byte_at<'b>(members: impl Iterator<Item = &'b mut [u8]>, mut at: u64) -> &'b mut u8 {
    for m in members {
        if at < m.len() as u64 {
            return &mut m[at as usize];
        }
        at -= m.len() as u64;
    }
    unreachable!("flip targets lie inside the concatenation")
}

/// A simulated CUDA device.
///
/// Every operation runs functionally at once, in issue order. Its modeled
/// time goes on the [`Timeline`], on the current stream
/// ([`Device::set_stream`]) and on its engine: the default stream runs
/// everything back to back (the paper's pipeline: upload, iterate kernels
/// with a host-side convergence loop, download), and created streams
/// ([`Device::create_stream`]) let copies overlap kernels, ordered by
/// events ([`Device::record_event`], [`Device::wait_event`]).
///
/// # Fallible vs. panicking API
///
/// Every operation exists in two forms. The `try_*` methods
/// ([`Device::try_alloc`], [`Device::try_htod`], [`Device::try_dtoh`],
/// [`Device::try_launch`]) return [`DeviceError`] for capacity
/// exhaustion, transfer-size mismatches, launch-geometry violations and
/// injected faults — this is the path recovery-aware callers use. The
/// historical infallible methods are thin wrappers that panic with the
/// error's `Display` text, which reproduces the pre-fallible panic
/// messages exactly. Device faults raised *inside* kernels
/// (out-of-bounds accesses) still panic from the launch engine,
/// mirroring sticky memcheck errors on real hardware.
///
/// # Transfers
///
/// Every copy is a packed copy ([`Device::try_htod_packed`],
/// [`Device::try_dtoh_packed`]): one or more buffers staged back to back
/// in pinned host memory and moved as one `cudaMemcpy` — one
/// [`EventKind::Htod`] or [`EventKind::Dtoh`] of the summed bytes,
/// charged one PCIe latency, and one fault-plan op. The one-buffer
/// methods are its one-member case. The `*_checked` variants add the
/// link-CRC model over the concatenation.
///
/// # Fault injection
///
/// [`Device::arm_faults`] attaches a [`FaultPlan`]. Each subsequent
/// operation consumes one op index from the plan and may fail loudly
/// (OOM / launch failure / device loss) or corrupt data silently
/// (transfer corruption, resident-buffer bit flips). Injected faults
/// are recorded on the timeline and in [`Device::fault_log`]. A
/// [`FaultKind::DeviceLost`] is sticky: every later op returns
/// [`DeviceError::DeviceLost`].
pub struct Device {
    props: DeviceProps,
    timeline: Timeline,
    workers: usize,
    mem: Arc<MemPool>,
    plan: Option<FaultPlan>,
    fault_log: Vec<FaultRecord>,
    lost_at: Option<u64>,
    ordinal: u32,
    stream: Stream,
}

impl Device {
    /// Creates a device with the given properties, using every host core
    /// for functional execution.
    pub fn new(props: DeviceProps) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_workers(props, workers)
    }

    /// Creates a device with an explicit host worker-thread cap
    /// (functional execution only; modeled time is unaffected).
    pub fn with_workers(props: DeviceProps, workers: usize) -> Self {
        props.validate().expect("invalid DeviceProps");
        Device {
            props,
            timeline: Timeline::default(),
            workers: workers.max(1),
            mem: Arc::new(MemPool::default()),
            plan: None,
            fault_log: Vec::new(),
            lost_at: None,
            ordinal: 0,
            stream: Stream::DEFAULT,
        }
    }

    /// Tags the device with a fleet ordinal. The ordinal rides on the
    /// timeline (and from there on every exported telemetry event), so a
    /// merged trace of several devices stays attributable per device.
    pub fn with_ordinal(mut self, ordinal: u32) -> Self {
        self.ordinal = ordinal;
        self.timeline.set_device(ordinal);
        self
    }

    /// The device's fleet ordinal (0 for single-device use).
    pub fn ordinal(&self) -> u32 {
        self.ordinal
    }

    /// The calibrated reproduction device ([`DeviceProps::paper_rig`]).
    pub fn paper_rig() -> Self {
        Self::new(DeviceProps::paper_rig())
    }

    /// Device properties.
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// Total bytes currently charged to live device allocations
    /// (decreases when a [`DeviceBuffer`] drops).
    pub fn allocated_bytes(&self) -> u64 {
        self.mem.in_use()
    }

    /// The event log.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Mutable event log (for clearing between experiment phases).
    pub fn timeline_mut(&mut self) -> &mut Timeline {
        &mut self.timeline
    }

    /// A new stream, empty until ops are issued on it.
    pub fn create_stream(&mut self) -> Stream {
        Stream(self.timeline.new_stream())
    }

    /// Issues every later op on `stream`; returns the stream it replaces.
    pub fn set_stream(&mut self, stream: Stream) -> Stream {
        std::mem::replace(&mut self.stream, stream)
    }

    /// Captures the current stream's position: an op waiting on the
    /// event starts no earlier than the end of every op issued on the
    /// stream so far.
    pub fn record_event(&self) -> StreamEvent {
        StreamEvent { at_us: self.timeline.tail(self.stream.0) }
    }

    /// Holds every later op of the current stream until `event`.
    pub fn wait_event(&mut self, event: StreamEvent) {
        self.timeline.wait(self.stream.0, event.at_us);
    }

    /// Logs one op of `kind` on the current stream; a `blocking` one (a
    /// read the host waits for) moves the host clock.
    fn record(&mut self, kind: EventKind, modeled_us: f64, wall_us: f64, blocking: bool) {
        let ev = Event { stream: self.stream.0, ..Event::new(kind, modeled_us, wall_us) };
        self.timeline.push(ev, blocking);
    }

    /// Arms a fault plan; subsequent operations draw fault decisions
    /// from it. Pass a clone of a shared plan to continue one op stream
    /// across several devices (see [`FaultPlan`]). The device's ordinal
    /// is stamped onto the plan (unless one was bound explicitly) so
    /// storm kill windows correlate on the fleet ordinal.
    pub fn arm_faults(&mut self, mut plan: FaultPlan) {
        plan.bind_ordinal(self.ordinal);
        self.plan = Some(plan);
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// Every fault injected on this device so far, oldest first.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// True once a [`FaultKind::DeviceLost`] has fired; all operations
    /// fail from then on.
    pub fn is_lost(&self) -> bool {
        self.lost_at.is_some()
    }

    /// Draws the fault decision for the next op. `Err` only for device
    /// loss (sticky); silent faults come back as `Ok(Some(..))` for the
    /// caller to apply.
    fn poll_fault(&mut self, site: FaultSite) -> Result<Option<(u64, FaultKind)>, DeviceError> {
        if let Some(at_op) = self.lost_at {
            return Err(DeviceError::DeviceLost { at_op });
        }
        let Some(plan) = &self.plan else { return Ok(None) };
        let op = plan.next_op();
        let Some(kind) = plan.decide(op, site) else { return Ok(None) };
        self.fault_log.push(FaultRecord { op, site, kind: kind.clone() });
        let desc = format!("{} @ {}", kind.label(), site.label());
        self.record(EventKind::Fault { desc, op }, 0.0, 0.0, false);
        if let FaultKind::DeviceLost { at_op } = kind {
            self.lost_at = Some(at_op);
            return Err(DeviceError::DeviceLost { at_op });
        }
        Ok(Some((op, kind)))
    }

    /// Allocates `len` zero-initialised elements on the device, failing
    /// when the allocation would exceed
    /// [`DeviceProps::global_mem_bytes`] or an OOM fault is injected.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_alloc<T: DeviceCopy>(&mut self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let injected = self.poll_fault(FaultSite::Alloc)?.is_some();
        let in_use = self.mem.in_use();
        if injected || in_use + bytes > self.props.global_mem_bytes {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                in_use,
                capacity: self.props.global_mem_bytes,
            });
        }
        let buf = DeviceBuffer::zeroed_in(len, &self.mem);
        self.record(EventKind::Alloc { bytes: buf.size_bytes() }, 0.0, 0.0, false);
        Ok(buf)
    }

    /// Allocates and uploads in one step (`cudaMalloc` + `cudaMemcpy`).
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_alloc_from<T: DeviceCopy>(
        &mut self,
        src: &[T],
    ) -> Result<DeviceBuffer<T>, DeviceError> {
        let mut buf = self.try_alloc(src.len())?;
        self.try_htod(&mut buf, src)?;
        Ok(buf)
    }

    /// Uploads a host slice into a device buffer (lengths must match):
    /// [`Device::try_htod_packed`] with one member.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_htod<T: DeviceCopy>(
        &mut self,
        buf: &mut DeviceBuffer<T>,
        src: &[T],
    ) -> Result<(), DeviceError> {
        self.try_htod_packed(&mut [HtodPart::new(buf, src)])
    }

    /// Downloads a device buffer into a fresh host vector:
    /// [`Device::try_dtoh_packed`] with one member.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh<T: DeviceCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
    ) -> Result<Vec<T>, DeviceError> {
        let mut out = Vec::new();
        self.try_dtoh_packed(&mut [DtohPart::new(buf, &mut out)])?;
        Ok(out)
    }

    /// [`Device::try_htod`] with end-to-end integrity
    /// ([`Device::try_htod_packed_checked`] with one member).
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_htod_checked<T: DeviceCopy>(
        &mut self,
        buf: &mut DeviceBuffer<T>,
        src: &[T],
    ) -> Result<(), DeviceError> {
        self.try_htod_packed_checked(&mut [HtodPart::new(buf, src)])
    }

    /// [`Device::try_dtoh`] with end-to-end integrity
    /// ([`Device::try_dtoh_packed_checked`] with one member).
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh_checked<T: DeviceCopy>(
        &mut self,
        buf: &DeviceBuffer<T>,
    ) -> Result<Vec<T>, DeviceError> {
        let mut out = Vec::new();
        self.try_dtoh_packed_checked(&mut [DtohPart::new(buf, &mut out)])?;
        Ok(out)
    }

    /// Fills several device buffers from their host slices as one PCIe
    /// transaction: the members are packed back to back into pinned
    /// staging and cross the link as one `cudaMemcpy`. One
    /// [`EventKind::Htod`] of the summed bytes and one fault-plan op,
    /// however many members. Every member's lengths must match
    /// ([`DeviceError::TransferSize`] names the first that does not).
    /// An injected [`FaultKind::TransferCorruption`] flips one
    /// exponent-range bit at one byte offset of the concatenation, so
    /// exactly one member lands corrupted — silently.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_htod_packed(&mut self, parts: &mut [HtodPart<'_>]) -> Result<(), DeviceError> {
        let fault = self.poll_fault(FaultSite::Htod)?;
        if let Some(p) = parts.iter().find(|p| p.host_len != p.device_len) {
            return Err(DeviceError::TransferSize { host: p.host_len, device: p.device_len });
        }
        let t0 = Instant::now();
        for p in parts.iter_mut() {
            p.dst.copy_from_slice(p.src);
        }
        let bytes: u64 = parts.iter().map(|p| p.dst.len() as u64).sum();
        if let Some((op, FaultKind::TransferCorruption)) = fault {
            if let Some((byte, bit)) = self.plan.as_ref().and_then(|p| p.flip_target(op, bytes)) {
                *byte_at(parts.iter_mut().map(|p| &mut *p.dst), byte) ^= 1 << (bit % 8);
            }
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let modeled_us = timing::transfer_time(&self.props, bytes);
        self.record(EventKind::Htod { bytes }, modeled_us, wall_us, false);
        Ok(())
    }

    /// [`Device::try_htod_packed`] with end-to-end integrity: a CRC64 of
    /// the host payload is compared against a CRC64 recomputed over the
    /// members' device copies after the transfer (the link-CRC model, see
    /// [`crate::crc`]); both stream over the members. A mismatch — e.g. an
    /// injected [`FaultKind::TransferCorruption`] — returns
    /// [`DeviceError::TransferCorrupted`] instead of corrupting silently;
    /// the device copies are left as transferred so the caller can retry
    /// the upload. Consumes exactly one fault-plan op, like the unchecked
    /// path.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_htod_packed_checked(
        &mut self,
        parts: &mut [HtodPart<'_>],
    ) -> Result<(), DeviceError> {
        let expected = crate::crc::crc64_parts(parts.iter().map(|p| p.src));
        self.try_htod_packed(parts)?;
        let actual = crate::crc::crc64_parts(parts.iter().map(|p| &*p.dst));
        if actual != expected {
            return Err(DeviceError::TransferCorrupted { site: FaultSite::Htod, expected, actual });
        }
        Ok(())
    }

    /// Reads several device buffers (or their leading elements) into
    /// host vectors as one PCIe transaction, the mirror of
    /// [`Device::try_htod_packed`]: one [`EventKind::Dtoh`] of the summed
    /// bytes and one fault-plan op. The host waits for it. Seeded plans
    /// never corrupt this path (read-backs are CRC-protected on real
    /// parts); a *scripted* [`FaultKind::TransferCorruption`] flips one
    /// bit at one byte offset of the concatenated host copies.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh_packed(&mut self, parts: &mut [DtohPart<'_>]) -> Result<(), DeviceError> {
        self.dtoh_packed(parts, true)
    }

    /// The packed read; a `blocking` one moves the host clock.
    fn dtoh_packed(
        &mut self,
        parts: &mut [DtohPart<'_>],
        blocking: bool,
    ) -> Result<(), DeviceError> {
        let fault = self.poll_fault(FaultSite::Dtoh)?;
        let t0 = Instant::now();
        for p in parts.iter_mut() {
            p.out.copy_from_slice(p.src);
        }
        let bytes: u64 = parts.iter().map(|p| p.out.len() as u64).sum();
        if let Some((op, FaultKind::TransferCorruption)) = fault {
            if let Some((byte, bit)) = self.plan.as_ref().and_then(|p| p.flip_target(op, bytes)) {
                *byte_at(parts.iter_mut().map(|p| &mut *p.out), byte) ^= 1 << (bit % 8);
            }
        }
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let modeled_us = timing::transfer_time(&self.props, bytes);
        self.record(EventKind::Dtoh { bytes }, modeled_us, wall_us, blocking);
        Ok(())
    }

    /// [`Device::try_dtoh_packed`] with end-to-end integrity: the CRC64
    /// of the device members is computed before the read-back and
    /// compared with the CRC64 of the host copies, both streamed over
    /// the members. A scripted dtoh [`FaultKind::TransferCorruption`]
    /// surfaces as [`DeviceError::TransferCorrupted`] instead of handing
    /// the caller corrupted data. Consumes exactly one fault-plan op.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh_packed_checked(
        &mut self,
        parts: &mut [DtohPart<'_>],
    ) -> Result<(), DeviceError> {
        self.dtoh_checked(parts, true)
    }

    /// [`Device::try_dtoh_packed_checked`] as a `cudaMemcpyAsync` into
    /// pinned host memory: the host does not wait for it, so it leaves
    /// the host clock where it was. The data and its CRC verdict are
    /// there at once (the simulator copies in issue order); the copy's
    /// modeled end is on the timeline.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_dtoh_packed_checked_async(
        &mut self,
        parts: &mut [DtohPart<'_>],
    ) -> Result<(), DeviceError> {
        self.dtoh_checked(parts, false)
    }

    /// The checked packed read; a `blocking` one moves the host clock.
    fn dtoh_checked(
        &mut self,
        parts: &mut [DtohPart<'_>],
        blocking: bool,
    ) -> Result<(), DeviceError> {
        let expected = crate::crc::crc64_parts(parts.iter().map(|p| p.src));
        self.dtoh_packed(parts, blocking)?;
        let actual = crate::crc::crc64_parts(parts.iter().map(|p| &*p.out));
        if actual != expected {
            return Err(DeviceError::TransferCorrupted { site: FaultSite::Dtoh, expected, actual });
        }
        Ok(())
    }

    /// Reads the device members of `parts` back as one packed read — one
    /// [`EventKind::Dtoh`] and one fault-plan op, as
    /// [`Device::try_dtoh_packed`] — and compares each, byte for byte
    /// (a NaN matches itself), with its host slice: whether the device
    /// still holds what was uploaded. A scripted read corruption makes
    /// it `false`.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_verify_packed(&mut self, parts: &[HtodPart<'_>]) -> Result<bool, DeviceError> {
        let mut copies: Vec<Vec<u8>> = parts.iter().map(|p| vec![0; p.dst.len()]).collect();
        let reads = parts.iter().zip(&mut copies).map(|(p, out)| DtohPart { src: &*p.dst, out });
        self.try_dtoh_packed(&mut reads.collect::<Vec<_>>())?;
        Ok(parts.iter().zip(&copies).all(|(p, copy)| p.src == &copy[..]))
    }

    /// On-demand canary audit over every live allocation (the free-side
    /// check runs unconditionally when a buffer drops). Returns the
    /// number of live guarded buffers when all frames are intact, or
    /// [`DeviceError::CanarySmashed`] naming the first violated buffer.
    #[must_use = "an audit result reporting corruption must not be dropped"]
    pub fn audit_canaries(&self) -> Result<usize, DeviceError> {
        let (live, smashed) = self.mem.audit();
        match smashed.first() {
            None => Ok(live),
            Some(&buffer) => Err(DeviceError::CanarySmashed { buffer }),
        }
    }

    /// Canary violations caught by the free-side check so far (counted
    /// even when the free happened during a panic unwind).
    pub fn canary_violations(&self) -> u64 {
        self.mem.freed_smashed()
    }

    /// Launches a kernel over the given grid. Injected
    /// [`FaultKind::LaunchFailure`]s fail the launch before it runs;
    /// injected [`FaultKind::BufferBitFlip`]s corrupt one bit of a
    /// resident allocation and then run the kernel normally — silently.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_launch<K: Kernel>(
        &mut self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<(), DeviceError> {
        self.launch_with(cfg, kernel.name(), false, |d| {
            engine::run_grid(kernel, &cfg, d.props.warp_size, d.props.shared_mem_per_block, d.workers)
        })
    }

    /// Launches a cooperative kernel (`cudaLaunchCooperativeKernel`):
    /// every block of the grid is resident at once, so its blocks may
    /// wait for each other at grid barriers ([`crate::BlockScope::grid_sync`]),
    /// each costing [`DeviceProps::GRID_SYNC_US`]. Faults strike as on
    /// [`Device::try_launch`]. A grid larger than
    /// [`DeviceProps::cooperative_blocks`] fails to launch, as CUDA's
    /// `cudaErrorCooperativeLaunchTooLarge` does; the limit is checked
    /// before the grid runs, without shared memory, and a grid whose
    /// blocks then allocate enough shared memory to exceed it panics as a
    /// launch failure.
    #[must_use = "device operations can fail; handle the Result"]
    pub fn try_launch_cooperative<K: CoopKernel>(
        &mut self,
        cfg: LaunchConfig,
        kernel: &K,
    ) -> Result<(), DeviceError> {
        self.launch_with(cfg, kernel.name(), true, |d| {
            let p = &d.props;
            let stats = engine::run_cooperative(kernel, &cfg, p.warp_size, p.shared_mem_per_block, d.workers);
            let shared = stats.max_shared_bytes.min(u32::MAX as u64) as u32;
            let resident = p.cooperative_blocks(cfg.block, shared) as u64;
            assert!(
                cfg.total_blocks() <= resident,
                "launch failure: cooperative grid of {} blocks with {shared} B of shared memory \
                 each exceeds the {resident} co-resident blocks",
                cfg.total_blocks()
            );
            stats
        })
    }

    /// The launch protocol of either kind: the fault draw and the geometry
    /// checks (a `cooperative` grid's against the co-resident limit), then
    /// `run`, then the timing model and the timeline event.
    fn launch_with(
        &mut self,
        cfg: LaunchConfig,
        name: &'static str,
        cooperative: bool,
        run: impl FnOnce(&Device) -> LaunchStats,
    ) -> Result<(), DeviceError> {
        let fault = self.poll_fault(FaultSite::Launch)?;
        if cfg.grid < 1 || cfg.grid_y < 1 {
            return Err(DeviceError::Launch { reason: "empty grid".into() });
        }
        if cfg.block < 1 || cfg.block > self.props.max_threads_per_block {
            return Err(DeviceError::Launch {
                reason: format!(
                    "block size {} outside 1..={}",
                    cfg.block, self.props.max_threads_per_block
                ),
            });
        }
        let limit = self.props.cooperative_blocks(cfg.block, 0) as u64;
        if cooperative && cfg.total_blocks() > limit {
            return Err(DeviceError::Launch {
                reason: format!(
                    "cooperative grid of {} blocks exceeds the {limit} co-resident blocks",
                    cfg.total_blocks()
                ),
            });
        }
        match fault {
            Some((op, FaultKind::LaunchFailure)) => {
                return Err(DeviceError::Launch { reason: format!("injected (op {op})") });
            }
            Some((_, FaultKind::BufferBitFlip { buffer, word, bit })) => {
                self.mem.flip_bit(buffer, word, bit);
            }
            _ => {}
        }
        let t0 = Instant::now();
        let stats = run(self);
        let wall_us = t0.elapsed().as_secs_f64() * 1e6;
        let timing = timing::kernel_time(&self.props, &cfg, &stats);
        let kind = EventKind::Kernel {
            name,
            grid: cfg.total_blocks().min(u32::MAX as u64) as u32,
            block: cfg.block,
            stats,
            timing,
        };
        self.record(kind, timing.total_us, wall_us, false);
        Ok(())
    }

    /// Panicking wrapper over [`Device::try_alloc`].
    pub fn alloc<T: DeviceCopy>(&mut self, len: usize) -> DeviceBuffer<T> {
        self.try_alloc(len).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_alloc_from`].
    pub fn alloc_from<T: DeviceCopy>(&mut self, src: &[T]) -> DeviceBuffer<T> {
        self.try_alloc_from(src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_htod`].
    pub fn htod<T: DeviceCopy>(&mut self, buf: &mut DeviceBuffer<T>, src: &[T]) {
        self.try_htod(buf, src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_dtoh`].
    pub fn dtoh<T: DeviceCopy>(&mut self, buf: &DeviceBuffer<T>) -> Vec<T> {
        self.try_dtoh(buf).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Panicking wrapper over [`Device::try_launch`].
    pub fn launch<K: Kernel>(&mut self, cfg: LaunchConfig, kernel: &K) {
        self.try_launch(cfg, kernel).unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::{GlobalMut, GlobalRef};
    use crate::scope::BlockScope;
    use crate::timeline::Event;

    struct Double<'a> {
        src: GlobalRef<'a, u32>,
        dst: GlobalMut<'a, u32>,
        n: usize,
    }

    impl Kernel for Double<'_> {
        fn name(&self) -> &'static str {
            "double"
        }
        fn block(&self, blk: &mut BlockScope) {
            blk.threads(|t| {
                let i = t.global_id();
                if i < self.n {
                    let v = t.ld(&self.src, i);
                    t.flops(1);
                    t.st(&self.dst, i, v * 2);
                }
            });
        }
    }

    #[test]
    fn end_to_end_launch_records_timeline() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 2);
        let host: Vec<u32> = (0..1000).collect();
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(1000);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1000 };
        dev.launch(LaunchConfig::for_elems(1000), &k);
        let out = dev.dtoh(&dst);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 2 * i as u32));

        let b = dev.timeline().breakdown();
        assert_eq!(b.kernels, 1);
        assert_eq!(b.htod_bytes, 4000);
        assert_eq!(b.dtoh_bytes, 4000);
        assert!(b.kernel_us >= dev.props().launch_overhead_us);
        assert!(b.htod_us > dev.props().pcie_latency_us);
        assert_eq!(dev.allocated_bytes(), 8000);
    }

    #[test]
    fn modeled_time_is_deterministic() {
        let run = || {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 4);
            let host: Vec<u32> = (0..50_000).collect();
            let src = dev.alloc_from(&host);
            let mut dst = dev.alloc::<u32>(50_000);
            let k = Double { src: src.view(), dst: dst.view_mut(), n: 50_000 };
            dev.launch(LaunchConfig::for_elems(50_000), &k);
            dev.timeline().total_modeled_us()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "launch failure")]
    fn oversized_block_is_rejected() {
        let mut dev = Device::paper_rig();
        let mut dst = dev.alloc::<u32>(1);
        let src = DeviceBuffer::<u32>::zeroed(1);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 };
        dev.launch(LaunchConfig::new(1, 2048), &k);
    }

    #[test]
    #[should_panic(expected = "empty grid")]
    fn empty_grid_is_rejected() {
        let mut dev = Device::paper_rig();
        let mut dst = dev.alloc::<u32>(1);
        let src = DeviceBuffer::<u32>::zeroed(1);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 };
        dev.launch(LaunchConfig::new(0, 32), &k);
    }

    fn tiny_props(capacity: u64) -> DeviceProps {
        DeviceProps { global_mem_bytes: capacity, ..DeviceProps::paper_rig() }
    }

    #[test]
    fn capacity_is_enforced_and_freed_on_drop() {
        let mut dev = Device::with_workers(tiny_props(1000), 1);
        let a = dev.try_alloc::<f64>(100).expect("800 B fits in 1000 B");
        assert_eq!(dev.allocated_bytes(), 800);
        let err = dev.try_alloc::<f64>(100).expect_err("second 800 B must not fit");
        assert_eq!(
            err,
            DeviceError::OutOfMemory { requested: 800, in_use: 800, capacity: 1000 }
        );
        drop(a);
        assert_eq!(dev.allocated_bytes(), 0, "drop must release the bytes");
        dev.try_alloc::<f64>(100).expect("freed capacity is reusable");
    }

    #[test]
    #[should_panic(expected = "device out of memory: requested 1600 B with 0 B of 1000 B in use")]
    fn infallible_alloc_panics_on_oom() {
        let mut dev = Device::with_workers(tiny_props(1000), 1);
        let _ = dev.alloc::<f64>(200);
    }

    #[test]
    fn try_htod_reports_length_mismatch() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let mut buf = dev.try_alloc::<u32>(2).unwrap();
        let err = dev.try_htod(&mut buf, &[1, 2, 3]).unwrap_err();
        assert_eq!(err.to_string(), "htod length mismatch: host 3 vs device 2");
    }

    #[test]
    fn try_launch_reports_geometry_errors() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let mut dst = dev.alloc::<u32>(1);
        let src = dev.alloc_from(&[1u32]);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 };
        let err = dev.try_launch(LaunchConfig::new(0, 32), &k).unwrap_err();
        assert_eq!(err.to_string(), "launch failure: empty grid");
        let err = dev.try_launch(LaunchConfig::new(1, 4096), &k).unwrap_err();
        assert_eq!(err.to_string(), "launch failure: block size 4096 outside 1..=1024");
    }

    #[test]
    fn scripted_launch_failure_is_transient_and_logged() {
        let host: Vec<u32> = (0..8).collect();
        // Ops: 0 = src alloc, 1 = src htod, 2 = dst alloc, 3 = launch.
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(3, FaultKind::LaunchFailure)]));
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(8);
        let k = Double { src: src.view(), dst: dst.view_mut(), n: 8 };
        let err = dev.try_launch(LaunchConfig::for_elems(8), &k).unwrap_err();
        assert!(matches!(err, DeviceError::Launch { .. }), "{err}");
        assert_eq!(dev.fault_log().len(), 1);
        // The very next launch (op 4) succeeds: the failure was transient.
        dev.try_launch(LaunchConfig::for_elems(8), &k).expect("transient");
        assert_eq!(dev.dtoh(&dst), (0..8).map(|v| 2 * v).collect::<Vec<u32>>());
        let b = dev.timeline().breakdown();
        assert_eq!(b.faults, 1, "fault must appear on the timeline");
    }

    #[test]
    fn launch_fault_sites_fire_only_on_launch_ops() {
        // A LaunchFailure scripted onto an alloc op is site-incompatible
        // and must not fire.
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(0, FaultKind::LaunchFailure)]));
        dev.try_alloc::<u32>(4).expect("alloc op ignores launch-only fault");
        assert!(dev.fault_log().is_empty());
    }

    #[test]
    fn device_lost_is_sticky() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(1, FaultKind::DeviceLost { at_op: 0 })]));
        let _a = dev.try_alloc::<u32>(4).expect("op 0 clean");
        let err = dev.try_alloc::<u32>(4).unwrap_err();
        assert_eq!(err, DeviceError::DeviceLost { at_op: 1 });
        assert!(dev.is_lost());
        // Every later op fails identically without consuming plan ops.
        let err = dev.try_alloc::<u32>(4).unwrap_err();
        assert_eq!(err, DeviceError::DeviceLost { at_op: 1 });
        assert_eq!(dev.fault_plan().unwrap().ops_started(), 2);
    }

    #[test]
    fn scripted_htod_corruption_flips_exactly_one_bit() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(1, FaultKind::TransferCorruption)]));
        let host = vec![1.0f64; 64];
        let mut buf = dev.try_alloc::<f64>(64).unwrap(); // op 0
        dev.try_htod(&mut buf, &host).unwrap(); // op 1 — corrupted
        let back = dev.try_dtoh(&buf).unwrap(); // op 2 — clean
        let diffs: Vec<usize> =
            back.iter().zip(&host).enumerate().filter(|(_, (a, b))| a != b).map(|(i, _)| i).collect();
        assert_eq!(diffs.len(), 1, "exactly one word corrupted, got {diffs:?}");
        let bad = back[diffs[0]];
        // Exponent-range flip: the corruption is catastrophic, not subtle.
        assert!(bad == 0.0 || !(0.5..=2.0).contains(&bad.abs()), "flip too subtle: {bad}");
    }

    #[test]
    fn checked_htod_detects_injected_corruption_and_clean_retry_succeeds() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(1, FaultKind::TransferCorruption)]));
        let host = vec![1.0f64; 64];
        let mut buf = dev.try_alloc::<f64>(64).unwrap(); // op 0
        let err = dev.try_htod_checked(&mut buf, &host).unwrap_err(); // op 1 — corrupted
        let DeviceError::TransferCorrupted { site, expected, actual } = err else {
            panic!("expected TransferCorrupted, got {err}");
        };
        assert_eq!(site, FaultSite::Htod);
        assert_ne!(expected, actual);
        // The retry (op 2) is clean and round-trips exactly.
        dev.try_htod_checked(&mut buf, &host).expect("clean retry");
        assert_eq!(dev.try_dtoh_checked(&buf).unwrap(), host);
    }

    #[test]
    fn checked_dtoh_detects_scripted_readback_corruption() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(2, FaultKind::TransferCorruption)]));
        let host = vec![2.0f64; 32];
        let mut buf = dev.try_alloc::<f64>(32).unwrap(); // op 0
        dev.try_htod_checked(&mut buf, &host).unwrap(); // op 1
        let err = dev.try_dtoh_checked(&buf).unwrap_err(); // op 2 — corrupted
        assert!(
            matches!(
                err,
                DeviceError::TransferCorrupted { site: FaultSite::Dtoh, .. }
            ),
            "{err}"
        );
        // Device memory itself is untouched; the retry reads it back clean.
        assert_eq!(dev.try_dtoh_checked(&buf).unwrap(), host);
    }

    #[test]
    fn checked_transfers_consume_the_same_op_budget_as_unchecked() {
        let run = |checked: bool| {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
            dev.arm_faults(FaultPlan::seeded(3, 0.0));
            let host = vec![1.0f64; 8];
            let mut buf = dev.try_alloc::<f64>(8).unwrap();
            if checked {
                dev.try_htod_checked(&mut buf, &host).unwrap();
                dev.try_dtoh_checked(&buf).unwrap();
            } else {
                dev.try_htod(&mut buf, &host).unwrap();
                dev.try_dtoh(&buf).unwrap();
            }
            dev.fault_plan().unwrap().ops_started()
        };
        assert_eq!(run(true), run(false), "checked paths must not skew op indices");
    }

    /// Counts the timeline's `(htod, dtoh)` events.
    fn transfers(dev: &Device) -> (usize, usize) {
        let evs = dev.timeline().events();
        let count = |f: fn(&EventKind) -> bool| evs.iter().filter(|e| f(&e.kind)).count();
        (count(|k| matches!(k, EventKind::Htod { .. })), count(|k| matches!(k, EventKind::Dtoh { .. })))
    }

    #[test]
    fn packed_copies_are_one_event_and_one_fault_op_each() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::seeded(3, 0.0));
        let (zs, ids, ws) = (vec![1.5f64; 9], vec![7u32; 5], vec![(0.25f64, -4.0f64); 3]);
        let mut a = dev.try_alloc::<f64>(9).unwrap();
        let mut b = dev.try_alloc::<u32>(5).unwrap();
        let mut c = dev.try_alloc::<(f64, f64)>(3).unwrap();
        let ops = dev.fault_plan().unwrap().ops_started();
        dev.try_htod_packed(&mut [
            HtodPart::new(&mut a, &zs),
            HtodPart::new(&mut b, &ids),
            HtodPart::new(&mut c, &ws),
        ])
        .unwrap();
        assert_eq!(dev.fault_plan().unwrap().ops_started(), ops + 1, "one op for three members");
        let bytes = 9 * 8 + 5 * 4 + 3 * 16;
        let b0 = dev.timeline().breakdown();
        assert_eq!((transfers(&dev), b0.htod_bytes), ((1, 0), bytes));
        assert_eq!(b0.htod_us, timing::transfer_time(dev.props(), bytes), "one PCIe latency");

        let (mut za, mut ib, mut wc) = (Vec::new(), Vec::new(), Vec::new());
        dev.try_dtoh_packed_checked(&mut [
            DtohPart::new(&a, &mut za),
            DtohPart::prefix(&b, 2, &mut ib),
            DtohPart::new(&c, &mut wc),
        ])
        .unwrap();
        assert_eq!(dev.fault_plan().unwrap().ops_started(), ops + 2);
        assert_eq!((za, ib, wc), (zs, vec![7, 7], ws));
        assert_eq!(transfers(&dev), (1, 1));
        assert_eq!(dev.timeline().breakdown().dtoh_bytes, 9 * 8 + 2 * 4 + 3 * 16);
    }

    /// A verification read is one packed read of the device members,
    /// compared byte for byte with the host slices: a NaN matches itself,
    /// a member that drifted or a scripted read corruption does not.
    #[test]
    fn verify_packed_is_one_read_compared_byte_for_byte() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        dev.arm_faults(FaultPlan::scripted([(5, FaultKind::TransferCorruption)]));
        let (xs, ids) = (vec![f64::NAN, 2.0, -0.0], vec![3u32, 1]);
        let mut x = dev.try_alloc::<f64>(3).unwrap();
        let mut y = dev.try_alloc::<u32>(2).unwrap(); // ops 0-1
        dev.try_htod_packed(&mut [HtodPart::new(&mut x, &xs), HtodPart::new(&mut y, &ids)]).unwrap();
        let mut verify = |dev: &mut Device, ids: &[u32]| {
            dev.try_verify_packed(&[HtodPart::new(&mut x, &xs), HtodPart::new(&mut y, ids)]).unwrap()
        };
        assert!(verify(&mut dev, &ids), "NaN verifies against itself"); // op 3
        assert_eq!(transfers(&dev), (1, 1));
        assert_eq!(dev.timeline().breakdown().dtoh_bytes, 3 * 8 + 2 * 4);
        assert!(!verify(&mut dev, &[3, 2]), "a changed word fails"); // op 4
        assert!(!verify(&mut dev, &ids), "a corrupted read fails"); // op 5
        assert!(verify(&mut dev, &ids), "the device copy was never touched"); // op 6
    }

    #[test]
    fn scripted_packed_corruption_lands_in_exactly_one_member() {
        let mut landed = [0usize; 3];
        for op_seed in 0..64u64 {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
            let plan = FaultPlan::seeded(op_seed, 0.0);
            dev.arm_faults(plan.with_fault_at(3, FaultKind::TransferCorruption));
            let hosts = [vec![1.0f64; 4], vec![2.0f64; 16], vec![3.0f64; 1]];
            let mut bufs: Vec<DeviceBuffer<f64>> =
                hosts.iter().map(|h| dev.try_alloc(h.len()).unwrap()).collect(); // ops 0-2
            let [b0, b1, b2] = &mut bufs[..] else { unreachable!() };
            dev.try_htod_packed(&mut [
                HtodPart::new(b0, &hosts[0]),
                HtodPart::new(b1, &hosts[1]),
                HtodPart::new(b2, &hosts[2]),
            ])
            .unwrap(); // op 3 — corrupted
            let hit: Vec<usize> = (0..3)
                .filter(|&m| bufs[m].copy_to_host() != hosts[m])
                .collect();
            assert_eq!(hit.len(), 1, "seed {op_seed}: members hit {hit:?}");
            let m = hit[0];
            let words = bufs[m].copy_to_host().iter().zip(&hosts[m]).filter(|(x, y)| x != y).count();
            assert_eq!(words, 1, "seed {op_seed}: one word of member {m}");
            landed[m] += 1;
        }
        assert!(landed.iter().all(|&n| n > 0), "flips spread over every member: {landed:?}");
    }

    #[test]
    fn checked_packed_copies_detect_scripted_corruption() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let script = [(2, FaultKind::TransferCorruption), (4, FaultKind::TransferCorruption)];
        dev.arm_faults(FaultPlan::scripted(script));
        let (xs, ys) = (vec![1.0f64; 8], vec![5u32; 8]);
        let mut x = dev.try_alloc::<f64>(8).unwrap(); // op 0
        let mut y = dev.try_alloc::<u32>(8).unwrap(); // op 1
        let err = dev
            .try_htod_packed_checked(&mut [HtodPart::new(&mut x, &xs), HtodPart::new(&mut y, &ys)])
            .unwrap_err(); // op 2 — corrupted
        assert!(matches!(err, DeviceError::TransferCorrupted { site: FaultSite::Htod, .. }), "{err}");
        dev.try_htod_packed_checked(&mut [HtodPart::new(&mut x, &xs), HtodPart::new(&mut y, &ys)])
            .expect("clean retry"); // op 3
        let (mut xo, mut yo) = (Vec::new(), Vec::new());
        let err = dev
            .try_dtoh_packed_checked(&mut [DtohPart::new(&x, &mut xo), DtohPart::new(&y, &mut yo)])
            .unwrap_err(); // op 4 — corrupted read-back
        assert!(matches!(err, DeviceError::TransferCorrupted { site: FaultSite::Dtoh, .. }), "{err}");
        dev.try_dtoh_packed_checked(&mut [DtohPart::new(&x, &mut xo), DtohPart::new(&y, &mut yo)])
            .expect("device memory is intact");
        assert_eq!((xo, yo), (xs, ys));
    }

    #[test]
    fn packed_upload_names_the_member_whose_lengths_differ() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let mut a = dev.try_alloc::<u32>(2).unwrap();
        let mut b = dev.try_alloc::<u32>(3).unwrap();
        let err = dev
            .try_htod_packed(&mut [HtodPart::new(&mut a, &[1, 2]), HtodPart::new(&mut b, &[1])])
            .unwrap_err();
        assert_eq!(err, DeviceError::TransferSize { host: 1, device: 3 });
        assert_eq!(transfers(&dev), (0, 0), "a rejected copy moves nothing");
        assert_eq!(dev.dtoh(&a), vec![0, 0], "and leaves every member untouched");
    }

    #[test]
    fn audit_canaries_reports_live_buffers_and_violations() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let _a = dev.try_alloc::<f64>(16).unwrap();
        let mut b = dev.try_alloc::<u32>(4).unwrap();
        assert_eq!(dev.audit_canaries(), Ok(2));
        b.smash_rear_canary_for_test();
        let err = dev.audit_canaries().unwrap_err();
        assert_eq!(err, DeviceError::CanarySmashed { buffer: b.id().0 });
        assert_eq!(dev.canary_violations(), 0, "free-side counter untouched by audits");
        std::mem::forget(b); // skip the intended free-side panic
    }

    #[test]
    fn seeded_device_runs_replay_identically() {
        let run = |seed: u64| {
            let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
            dev.arm_faults(FaultPlan::seeded(seed, 0.2));
            let host: Vec<u32> = (0..64).collect();
            let mut log = Vec::new();
            for _ in 0..40 {
                match dev.try_alloc_from(&host) {
                    Ok(buf) => match dev.try_dtoh(&buf) {
                        Ok(v) => log.push(format!("ok {}", v.iter().sum::<u32>())),
                        Err(e) => log.push(format!("dtoh err {e}")),
                    },
                    Err(e) => log.push(format!("alloc err {e}")),
                }
            }
            (log, dev.fault_log().to_vec())
        };
        assert_eq!(run(7), run(7), "same seed must replay byte-identically");
        assert_ne!(run(7).1, run(8).1, "different seeds must differ");
    }

    /// The modeled `(start, end)` of every timed event, in issue order.
    fn spans(dev: &Device) -> Vec<(f64, f64)> {
        let evs = dev.timeline().events();
        evs.iter().filter(|e| e.modeled_us > 0.0).map(|e| (e.start_us, e.end_us())).collect()
    }

    #[test]
    fn default_stream_makespan_is_the_busy_sum_bit_for_bit() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let host: Vec<u32> = (0..3000).collect();
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(3000);
        for _ in 0..5 {
            let k = Double { src: src.view(), dst: dst.view_mut(), n: 3000 };
            dev.launch(LaunchConfig::for_elems(3000), &k);
            let _ = dev.dtoh(&dst);
        }
        let tl = dev.timeline();
        let sum: f64 = tl.events().iter().map(|e| e.modeled_us).sum();
        assert_eq!(tl.total_modeled_us().to_bits(), sum.to_bits());
        let b = tl.breakdown();
        assert_eq!((b.hidden_us, b.hidden_transfer_us), (0.0, 0.0));
        assert_eq!(b.total_us().to_bits(), (b.htod_us + b.dtoh_us + b.kernel_us).to_bits());
        assert_eq!(b.transfer_us().to_bits(), (b.htod_us + b.dtoh_us).to_bits());
        let spans = spans(&dev);
        assert!(spans.windows(2).all(|w| w[1].0 == w[0].1), "back to back: {spans:?}");
    }

    /// A timeline of ordinary launches and transfers on the default stream
    /// models exactly what it did before cooperative launches existed:
    /// the makespan's bits are pinned.
    #[test]
    fn a_default_stream_timeline_without_cooperative_launches_is_unchanged_bit_for_bit() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let host: Vec<u32> = (0..70_000).collect();
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(70_000);
        for n in [100, 3000, 70_000] {
            let k = Double { src: src.view(), dst: dst.view_mut(), n };
            dev.launch(LaunchConfig::for_elems(n), &k);
            let _ = dev.dtoh(&dst);
        }
        let tl = dev.timeline();
        assert_eq!(tl.total_modeled_us().to_bits(), PINNED_MAKESPAN_BITS, "{}", tl.total_modeled_us());
        for e in tl.events() {
            if let EventKind::Kernel { timing, stats, .. } = &e.kind {
                assert_eq!(timing.grid_sync_us, 0.0);
                assert!(!stats.cooperative && stats.grid_syncs == 0);
            }
        }
    }

    /// `a_default_stream_timeline_without_cooperative_launches_is_unchanged_bit_for_bit`'s
    /// makespan as the simulator modeled it before cooperative launches.
    const PINNED_MAKESPAN_BITS: u64 = 4_639_241_846_314_908_481; // 143.18373333333332 µs

    /// Block `b` publishes `b + 1`, keeps it in a local across a grid
    /// barrier, then reads every block's word: `out[b] = Σ · 1000 + (b + 1)`.
    /// With `skip` set, that block ends before the barrier.
    struct Exchange<'a> {
        cells: GlobalMut<'a, u64>,
        out: GlobalMut<'a, u64>,
        barrier: bool,
        skip: Option<usize>,
        panic_in: Option<usize>,
    }

    impl<'a> Exchange<'a> {
        /// Every block waits at the barrier; none ends early or panics.
        fn new(cells: &'a mut DeviceBuffer<u64>, out: &'a mut DeviceBuffer<u64>) -> Self {
            Exchange {
                cells: cells.view_mut(),
                out: out.view_mut(),
                barrier: true,
                skip: None,
                panic_in: None,
            }
        }
    }

    impl CoopKernel for Exchange<'_> {
        fn name(&self) -> &'static str {
            "exchange"
        }
        async fn block(&self, blk: &mut BlockScope) {
            let (b, g) = (blk.block_idx(), blk.grid_dim());
            let mine = b as u64 + 1;
            blk.threads(|t| {
                if t.tid() == 0 {
                    t.st(&self.cells, b, mine);
                }
            });
            if self.skip == Some(b) {
                return;
            }
            if self.barrier {
                blk.grid_sync().await;
            }
            assert_ne!(self.panic_in, Some(b), "block {b} faults");
            blk.threads(|t| {
                if t.tid() == 0 {
                    let sum: u64 = (0..g).map(|c| t.ld_mut(&self.cells, c)).sum();
                    t.st(&self.out, b, sum * 1000 + mine);
                }
            });
        }
    }

    fn exchange(
        workers: usize,
        grid: u32,
        tweak: impl FnOnce(&mut Exchange<'_>),
    ) -> (Vec<u64>, Event) {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), workers);
        let mut cells = dev.alloc::<u64>(grid as usize);
        let mut out = dev.alloc::<u64>(grid as usize);
        let mut k = Exchange::new(&mut cells, &mut out);
        tweak(&mut k);
        dev.try_launch_cooperative(LaunchConfig::new(grid, 256), &k).expect("fits");
        let ev = dev.timeline().events().last().expect("a launch").clone();
        (dev.dtoh(&out), ev)
    }

    #[test]
    fn writes_before_a_grid_barrier_are_visible_to_every_block_after_it() {
        // 32 blocks of 256 threads take the parallel path with 4 workers.
        let grid = 32u64;
        let want: Vec<u64> = (0..grid).map(|b| grid * (grid + 1) / 2 * 1000 + b + 1).collect();
        let (seq, seq_ev) = exchange(1, grid as u32, |_| {});
        let (par, par_ev) = exchange(4, grid as u32, |_| {});
        assert_eq!(seq, want);
        assert_eq!(par, want);
        assert_eq!(seq_ev.modeled_us.to_bits(), par_ev.modeled_us.to_bits());
        let (EventKind::Kernel { stats: a, .. }, EventKind::Kernel { stats: b, .. }) =
            (&seq_ev.kind, &par_ev.kind)
        else {
            panic!("kernel events")
        };
        assert_eq!(a, b, "statistics do not depend on the worker count");
        assert!(a.cooperative && a.grid_syncs == 1);
    }

    #[test]
    fn an_oversized_cooperative_grid_fails_to_launch() {
        let p = DeviceProps::paper_rig();
        assert_eq!(p.cooperative_blocks(256, 0), 160);
        assert_eq!(p.cooperative_blocks(1024, 0), 40);
        let mut dev = Device::with_workers(p, 1);
        let (mut cells, mut out) = (dev.alloc::<u64>(161), dev.alloc::<u64>(161));
        let k = Exchange::new(&mut cells, &mut out);
        let err = dev.try_launch_cooperative(LaunchConfig::new(161, 256), &k).unwrap_err();
        assert!(matches!(&err, DeviceError::Launch { reason } if reason.contains("co-resident")), "{err}");
        let too_wide = dev.try_launch_cooperative(LaunchConfig::new(41, 1024), &k);
        assert!(too_wide.is_err());
        assert_eq!(dev.timeline().breakdown().kernels, 0, "nothing ran");
        dev.try_launch_cooperative(LaunchConfig::new(160, 256), &k).expect("160 blocks fit");
        // An ordinary launch of the same grid has no such limit.
        assert_eq!(dev.timeline().breakdown().kernels, 1);
    }

    /// `barriers` grid barriers, each between two phases whose busiest
    /// block makes `2` dependent loads: block 0 loads twice, the rest once.
    struct Barriers<'a> {
        src: GlobalRef<'a, u32>,
        barriers: usize,
    }

    impl CoopKernel for Barriers<'_> {
        fn name(&self) -> &'static str {
            "barriers"
        }
        async fn block(&self, blk: &mut BlockScope) {
            let loads = if blk.block_idx() == 0 { 2 } else { 1 };
            for phase in 0..=self.barriers {
                if phase > 0 {
                    blk.grid_sync().await;
                }
                blk.threads(|t| {
                    for i in 0..loads {
                        let _ = t.ld(&self.src, (t.global_id() + i) % 64);
                    }
                });
            }
        }
    }

    #[test]
    fn grid_barriers_enter_the_kernel_timing_as_documented() {
        let p = DeviceProps::paper_rig();
        let mut dev = Device::with_workers(p.clone(), 1);
        let src = dev.alloc::<u32>(64);
        for barriers in [0usize, 1, 7] {
            let k = Barriers { src: src.view(), barriers };
            dev.try_launch_cooperative(LaunchConfig::new(4, 64), &k).expect("fits");
            let ev = dev.timeline().events().last().expect("a launch").clone();
            let EventKind::Kernel { stats, timing, .. } = ev.kind else { panic!("a kernel") };
            let phases = barriers as u64 + 1;
            assert_eq!(stats.grid_syncs, barriers as u64);
            // The critical path: block 0's two loads in every grid phase.
            assert_eq!((stats.grid_chain, stats.grid_phases), (2 * phases, phases));
            let latency = (2.0 * phases as f64 * p.mem_latency_cycles
                + phases as f64 * p.barrier_cycles)
                / p.cycles_per_us();
            assert_eq!(timing.latency_us, latency);
            assert_eq!(timing.grid_sync_us, barriers as f64 * DeviceProps::GRID_SYNC_US);
            let roofline = timing.compute_us.max(timing.mem_us).max(timing.latency_us);
            assert_eq!(timing.total_us, p.launch_overhead_us + roofline + timing.grid_sync_us);
            assert_eq!(ev.modeled_us, timing.total_us);
        }
    }

    #[test]
    #[should_panic(expected = "a deadlock on hardware")]
    fn a_block_that_ends_before_a_grid_barrier_panics() {
        exchange(1, 4, |k| k.skip = Some(2));
    }

    #[test]
    fn a_panicking_block_of_a_parallel_cooperative_launch_reaches_the_launcher() {
        let outcome = std::panic::catch_unwind(|| exchange(4, 32, |k| k.panic_in = Some(17)));
        let payload = outcome.expect_err("the block's panic propagates");
        let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("block 17 faults"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "outside a cooperative launch")]
    fn a_grid_barrier_in_an_ordinary_launch_panics() {
        struct Ordinary<'a>(Exchange<'a>);
        impl Kernel for Ordinary<'_> {
            fn name(&self) -> &'static str {
                "ordinary"
            }
            fn block(&self, blk: &mut BlockScope) {
                crate::block_on(CoopKernel::block(&self.0, blk));
            }
        }
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let (mut cells, mut out) = (dev.alloc::<u64>(2), dev.alloc::<u64>(2));
        let k = Exchange::new(&mut cells, &mut out);
        dev.launch(LaunchConfig::new(2, 32), &Ordinary(k));
    }

    /// Without its grid barrier, a block reads a word another block wrote
    /// in the same grid phase: the race checker reports it.
    #[cfg(feature = "racecheck")]
    #[test]
    #[should_panic(expected = "race")]
    fn racecheck_reports_a_dropped_grid_barrier() {
        exchange(1, 4, |k| k.barrier = false);
    }

    #[test]
    fn two_streams_overlap_between_the_busiest_engine_and_the_serial_sum() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let (copies, sweeps) = (dev.create_stream(), dev.create_stream());
        let host: Vec<u32> = (0..1 << 16).collect();
        let src = dev.alloc_from(&host);
        let mut dst = dev.alloc::<u32>(1 << 16);
        let mut up = dev.alloc::<u32>(1 << 16);
        let mark = dev.timeline().mark();
        for _ in 0..4 {
            dev.set_stream(sweeps);
            let k = Double { src: src.view(), dst: dst.view_mut(), n: 1 << 16 };
            dev.launch(LaunchConfig::for_elems(1 << 16), &k);
            dev.set_stream(copies);
            dev.htod(&mut up, &host);
        }
        dev.set_stream(Stream::DEFAULT);
        let tl = dev.timeline();
        let b = tl.breakdown_since(mark);
        let t0 = tl.events()[mark - 1].end_us();
        let makespan = tl.total_modeled_us() - t0;
        let (serial, busiest) = (b.htod_us + b.kernel_us, b.htod_us.max(b.kernel_us));
        assert!(busiest <= makespan && makespan < serial, "{busiest} ≤ {makespan} < {serial}");
        assert!(b.hidden_us > 0.0 && b.hidden_transfer_us > 0.0);
        assert!((b.total_us() - makespan).abs() < 1e-9 * makespan, "exposed time tiles the makespan");
        // Each engine runs one op at a time.
        for kind in [0u8, 1] {
            let evs = tl.events()[mark..].iter().filter(|e| match e.kind {
                EventKind::Kernel { .. } => kind == 0,
                EventKind::Htod { .. } => kind == 1,
                _ => false,
            });
            let ends: Vec<(f64, f64)> = evs.map(|e| (e.start_us, e.end_us())).collect();
            assert!(ends.windows(2).all(|w| w[1].0 >= w[0].1), "engine {kind} overlaps itself");
        }
    }

    #[test]
    fn event_waits_and_the_host_clock_are_honoured() {
        let mut dev = Device::with_workers(DeviceProps::paper_rig(), 1);
        let (a, b, c) = (dev.create_stream(), dev.create_stream(), dev.create_stream());
        let host = vec![1.0f64; 1 << 16];
        let mut buf = dev.alloc::<f64>(1 << 16);
        let mut small = dev.alloc::<f64>(1);
        dev.set_stream(a);
        dev.htod(&mut buf, &host);
        let uploaded = dev.record_event();
        let upload_end = dev.timeline().events().last().unwrap().end_us();
        // Stream b waits for the upload: its read would otherwise start at
        // once on the idle D2H engine.
        dev.set_stream(b);
        dev.wait_event(uploaded);
        let mut out = Vec::new();
        dev.try_dtoh_packed_checked_async(&mut [DtohPart::prefix(&buf, 1, &mut out)]).unwrap();
        let read = dev.timeline().events().last().unwrap().clone();
        assert!(read.start_us >= upload_end, "the wait holds the read");
        // An async read leaves the host clock: an upload on c runs beside
        // it (the H2D engine is free once the big upload ended).
        dev.set_stream(c);
        dev.htod(&mut small, &[2.0]);
        let up = dev.timeline().events().last().unwrap().clone();
        assert!(up.start_us < read.end_us(), "async reads do not block the host");
        // A blocking read moves the host clock to its end: nothing
        // issued after it starts earlier, on any stream.
        dev.set_stream(b);
        let _ = dev.try_dtoh(&buf).unwrap();
        let blocking_end = dev.timeline().events().last().unwrap().end_us();
        dev.set_stream(c);
        dev.htod(&mut small, &[3.0]);
        assert!(dev.timeline().events().last().unwrap().start_us >= blocking_end);
        // The default stream orders against everything.
        dev.set_stream(Stream::DEFAULT);
        dev.htod(&mut small, &[4.0]);
        let last = dev.timeline().events().last().unwrap().clone();
        let before = &dev.timeline().events()[..dev.timeline().len() - 1];
        assert!(before.iter().all(|e| e.end_us() <= last.start_us));
        assert_eq!(dev.timeline().total_modeled_us(), last.end_us());
    }
}
