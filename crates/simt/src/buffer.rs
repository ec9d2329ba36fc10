//! Device memory: buffers and the global-memory views kernels access.
//!
//! A [`DeviceBuffer`] models a `cudaMalloc`'d allocation. Host code cannot
//! index it directly — data moves through [`crate::Device::htod`] /
//! [`crate::Device::dtoh`] (which the timing model charges for) and
//! kernels access it through [`GlobalRef`] (read-only) or [`GlobalMut`]
//! (read-write) views.
//!
//! # Safety model
//!
//! `GlobalMut` hands every simulated thread interior-mutable access to the
//! same slice, exactly like CUDA global memory. A racy kernel is a bug in
//! the *kernel* (as it would be on silicon); the simulator does not make
//! it UB-free. Enable the `racecheck` cargo feature to attach a per-cell
//! access tracker that panics with a diagnostic when two threads of one
//! launch touch the same element without an ordering barrier — the
//! cuda-memcheck analog used by this workspace's test suites.

use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Marker for types that may live in device memory: plain-old-data that is
/// freely copyable and thread-safe. `Default` supplies the zero pattern
/// for fresh allocations (`cudaMemset(0)` analog).
pub trait DeviceCopy: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> DeviceCopy for T {}

/// A plain-old-data slice viewed as raw bytes. The element type carries
/// no padding by the [`DeviceCopy`] contract (device buffers hold
/// scalars and scalar pairs), so the byte view is fully initialised.
/// Comparing two views is byte-for-byte equality, under which a NaN
/// equals itself.
pub fn pod_bytes<T: DeviceCopy>(data: &[T]) -> &[u8] {
    // SAFETY: T is Copy + 'static plain-old-data; reading its bytes is
    // valid for the slice's full length.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

/// [`pod_bytes`] for writing: every byte pattern the transfer engine
/// writes is one a device buffer of the same type could hold.
pub(crate) fn pod_bytes_mut<T: DeviceCopy>(data: &mut [T]) -> &mut [u8] {
    // SAFETY: as in pod_bytes; the slice is exclusively borrowed.
    unsafe {
        std::slice::from_raw_parts_mut(data.as_mut_ptr() as *mut u8, std::mem::size_of_val(data))
    }
}

/// Identifier distinguishing allocations in coalescing bookkeeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct BufId(pub u32);

/// The guard word framing every allocation. Chosen so a single bit flip,
/// a zero-fill or a poison-fill all fail the check.
pub(crate) const CANARY: u64 = 0xC0FF_EE00_DEAD_BEA7;

/// Guard words on each side of an allocation.
pub(crate) const CANARY_WORDS: usize = 2;

/// Byte written over a freed allocation so use-after-free reads are
/// loudly wrong (0xA5A5… is a signalling-NaN-free but obviously-bogus
/// pattern for every element type we store).
pub(crate) const POISON_BYTE: u8 = 0xA5;

static NEXT_BUF_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_buf_id() -> BufId {
    let v = NEXT_BUF_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    BufId(v as u32)
}

/// Tracks the live allocations of one device: total bytes in use
/// (checked against [`crate::DeviceProps::global_mem_bytes`]) and a
/// registry of live regions so injected bit flips can target resident
/// memory. Shared `Arc`-style between the device and its buffers;
/// [`DeviceBuffer`]s deregister themselves on drop.
#[derive(Debug, Default)]
pub(crate) struct MemPool {
    in_use: AtomicU64,
    registry: Mutex<BTreeMap<u32, Region>>,
    /// Canary violations caught at free time (the drop-side check).
    freed_smashed: AtomicU64,
}

#[derive(Clone, Copy, Debug)]
struct Region {
    addr: usize,
    bytes: u64,
    /// Address of the allocation's leading guard words.
    front: usize,
    /// Address of the allocation's trailing guard words.
    rear: usize,
}

impl MemPool {
    /// Bytes currently allocated from this pool.
    pub(crate) fn in_use(&self) -> u64 {
        self.in_use.load(Ordering::Relaxed)
    }

    fn register(&self, id: BufId, addr: usize, bytes: u64, front: usize, rear: usize) {
        self.in_use.fetch_add(bytes, Ordering::Relaxed);
        self.registry.lock().unwrap().insert(id.0, Region { addr, bytes, front, rear });
    }

    fn release(&self, id: BufId) {
        if let Some(r) = self.registry.lock().unwrap().remove(&id.0) {
            self.in_use.fetch_sub(r.bytes, Ordering::Relaxed);
        }
    }

    fn note_freed_smashed(&self) {
        self.freed_smashed.fetch_add(1, Ordering::Relaxed);
    }

    /// Canary violations caught at free time so far.
    pub(crate) fn freed_smashed(&self) -> u64 {
        self.freed_smashed.load(Ordering::Relaxed)
    }

    /// On-demand canary audit over every live allocation: returns the
    /// live count and the ids whose guard words no longer hold
    /// [`CANARY`]. Safe to call between synchronous device ops — the
    /// guard boxes are owned by live `DeviceBuffer`s and deregistered
    /// before they drop.
    pub(crate) fn audit(&self) -> (usize, Vec<u32>) {
        let reg = self.registry.lock().unwrap();
        let mut smashed = Vec::new();
        for (&id, r) in reg.iter() {
            let ok = [r.front, r.rear].iter().all(|&addr| {
                (0..CANARY_WORDS).all(|w| {
                    // SAFETY: the region is registered, so both guard
                    // boxes are alive; reads are within their bounds.
                    unsafe { *((addr + w * 8) as *const u64) == CANARY }
                })
            });
            if !ok {
                smashed.push(id);
            }
        }
        (reg.len(), smashed)
    }

    /// Applies an injected [`crate::FaultKind::BufferBitFlip`]: picks the
    /// `nth`-modulo-live allocation (registry order is deterministic)
    /// and flips one bit of the word `word` selects. Returns the hit
    /// buffer, or `None` when nothing is resident. Only called between
    /// synchronous device ops while no kernel is running, so the raw
    /// write cannot race a launch.
    pub(crate) fn flip_bit(&self, nth: u64, word: u64, bit: u32) -> Option<BufId> {
        let reg = self.registry.lock().unwrap();
        let live: Vec<(&u32, &Region)> = reg.iter().filter(|(_, r)| r.bytes > 0).collect();
        if live.is_empty() {
            return None;
        }
        let (&id, r) = live[(nth % live.len() as u64) as usize];
        let (byte, bit_in_byte) = crate::fault::word_flip_target(word, bit, r.bytes);
        // SAFETY: the region was registered by a live DeviceBuffer and is
        // removed in its Drop, so addr+byte is inside a live allocation;
        // flips happen only between synchronous ops (see doc above).
        unsafe {
            let p = (r.addr + byte as usize) as *mut u8;
            *p ^= 1 << bit_in_byte;
        }
        Some(BufId(id))
    }
}

/// A device-resident typed allocation, framed by guard (canary) words.
///
/// The guards are checked when the buffer is freed and on demand via
/// [`crate::Device::audit_canaries`]; a wild write that lands on one is
/// caught instead of silently corrupting a neighbour. Freeing also
/// poisons the payload with [`POISON_BYTE`] so any raw-pointer
/// use-after-free reads garbage rather than stale plausible data.
#[derive(Debug)]
pub struct DeviceBuffer<T> {
    front: Box<[UnsafeCell<u64>]>,
    data: Box<[UnsafeCell<T>]>,
    rear: Box<[UnsafeCell<u64>]>,
    id: BufId,
    pool: Option<Arc<MemPool>>,
}

impl<T> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        let intact = self.canaries_intact();
        self.poison_payload();
        if let Some(pool) = &self.pool {
            if !intact {
                pool.note_freed_smashed();
            }
            pool.release(self.id);
        }
        // The free-side check. Never double-panic: if the thread is
        // already unwinding (e.g. a kernel fault), the violation is
        // still counted on the pool above.
        if !intact && !std::thread::panicking() {
            panic!("canary smashed: buffer {} guard words overwritten", self.id.0);
        }
    }
}

// SAFETY: the UnsafeCells are only mutated through GlobalMut views inside
// kernel launches; the launch engine is responsible for the discipline
// (documented in the module docs). The buffer itself is just storage.
unsafe impl<T: Send> Send for DeviceBuffer<T> {}
unsafe impl<T: Send + Sync> Sync for DeviceBuffer<T> {}

impl<T: DeviceCopy> DeviceBuffer<T> {
    /// Allocates `len` zero-initialised elements. Prefer going through
    /// [`crate::Device::alloc`] so the allocation is recorded on the
    /// timeline.
    pub(crate) fn zeroed(len: usize) -> Self {
        let canaries = || -> Box<[UnsafeCell<u64>]> {
            (0..CANARY_WORDS).map(|_| UnsafeCell::new(CANARY)).collect()
        };
        let data: Box<[UnsafeCell<T>]> =
            (0..len).map(|_| UnsafeCell::new(T::default())).collect();
        DeviceBuffer { front: canaries(), data, rear: canaries(), id: fresh_buf_id(), pool: None }
    }

    /// Allocates like [`DeviceBuffer::zeroed`] but accounted against (and
    /// registered with) a device's [`MemPool`]; the registration is
    /// undone when the buffer drops. The boxed-slice storage never
    /// moves, so the registered address stays valid even if the
    /// `DeviceBuffer` handle itself is moved.
    pub(crate) fn zeroed_in(len: usize, pool: &Arc<MemPool>) -> Self {
        let mut buf = Self::zeroed(len);
        pool.register(
            buf.id,
            buf.data.as_ptr() as usize,
            buf.size_bytes(),
            buf.front.as_ptr() as usize,
            buf.rear.as_ptr() as usize,
        );
        buf.pool = Some(Arc::clone(pool));
        buf
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the allocation in bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }

    /// The allocation id (used in coalescing stats).
    #[inline]
    pub fn id(&self) -> BufId {
        self.id
    }

    /// The payload as raw bytes (the transfer engine's view).
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: T is plain-old-data (DeviceCopy) and UnsafeCell<T> has
        // T's layout; &self rules out a concurrent kernel writer, as in
        // copy_to_host.
        unsafe {
            std::slice::from_raw_parts(self.data.as_ptr() as *const u8, self.size_bytes() as usize)
        }
    }

    /// The payload as writable raw bytes (the transfer engine's view).
    pub(crate) fn bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in bytes(); &mut self means no view or kernel is alive.
        unsafe {
            std::slice::from_raw_parts_mut(self.data.as_ptr() as *mut u8, self.size_bytes() as usize)
        }
    }

    /// A read-only global-memory view for a kernel parameter.
    pub fn view(&self) -> GlobalRef<'_, T> {
        GlobalRef { data: &self.data, id: self.id }
    }

    /// A read-write global-memory view for a kernel parameter.
    ///
    /// Takes `&mut self` so host-side Rust code cannot also hold a
    /// read view of a buffer a kernel is mutating — the one aliasing
    /// mistake CUDA lets you make that we can rule out statically.
    pub fn view_mut(&mut self) -> GlobalMut<'_, T> {
        GlobalMut {
            data: &self.data,
            id: self.id,
            #[cfg(feature = "racecheck")]
            race: std::sync::Arc::new(crate::racecheck::RaceTable::new(self.data.len())),
        }
    }
}

impl<T> DeviceBuffer<T> {
    /// Overwrites the payload with [`POISON_BYTE`] — called on free so a
    /// stale raw pointer into the allocation reads 0xA5 garbage, loudly,
    /// instead of stale plausible data.
    fn poison_payload(&mut self) {
        for cell in self.data.iter_mut() {
            // SAFETY: &mut self — no views or kernels alive.
            unsafe {
                std::ptr::write_bytes(cell.get() as *mut u8, POISON_BYTE, std::mem::size_of::<T>());
            }
        }
    }

    /// True while both guard frames still hold [`CANARY`].
    pub(crate) fn canaries_intact(&self) -> bool {
        self.front
            .iter()
            .chain(self.rear.iter())
            // SAFETY: canary cells are never handed to kernels; between
            // synchronous ops nothing else writes them.
            .all(|c| unsafe { *c.get() } == CANARY)
    }

    /// Deliberately overwrites one trailing guard word — the test hook
    /// for the canary detection net (there is no legitimate way to
    /// reach the guards through the public API).
    #[doc(hidden)]
    pub fn smash_rear_canary_for_test(&mut self) {
        *self.rear[0].get_mut() = 0;
    }
}

/// Read-only kernel view of a [`DeviceBuffer`].
#[derive(Clone, Copy, Debug)]
pub struct GlobalRef<'a, T> {
    pub(crate) data: &'a [UnsafeCell<T>],
    pub(crate) id: BufId,
}

// SAFETY: GlobalRef never writes; concurrent reads of the UnsafeCells are
// fine as long as no GlobalMut to the same buffer exists, which the
// &self / &mut self split on DeviceBuffer enforces.
unsafe impl<T: Sync> Sync for GlobalRef<'_, T> {}
unsafe impl<T: Send> Send for GlobalRef<'_, T> {}

impl<T: DeviceCopy> GlobalRef<'_, T> {
    /// Number of elements visible through the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub(crate) fn raw_load(&self, i: usize) -> T {
        // SAFETY: no writer can exist (see Sync impl note).
        unsafe { *self.data[i].get() }
    }
}

/// Read-write kernel view of a [`DeviceBuffer`].
#[derive(Clone)]
pub struct GlobalMut<'a, T> {
    pub(crate) data: &'a [UnsafeCell<T>],
    pub(crate) id: BufId,
    #[cfg(feature = "racecheck")]
    pub(crate) race: std::sync::Arc<crate::racecheck::RaceTable>,
}

// SAFETY: this is the CUDA global-memory contract — many threads may hold
// the view; *well-synchronised kernels* write disjoint cells or order
// accesses by block-local barriers. Racy kernels are bugs; the racecheck
// feature exists to find them.
unsafe impl<T: Send + Sync> Sync for GlobalMut<'_, T> {}
unsafe impl<T: Send> Send for GlobalMut<'_, T> {}

impl<T: DeviceCopy> GlobalMut<'_, T> {
    /// Number of elements visible through the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub(crate) fn raw_load(&self, i: usize) -> T {
        // SAFETY: see type-level contract.
        unsafe { *self.data[i].get() }
    }

    #[inline]
    pub(crate) fn raw_store(&self, i: usize, v: T) {
        // SAFETY: see type-level contract.
        unsafe { *self.data[i].get() = v }
    }
}

/// Untimed host copies for the crate's unit tests (the timed paths are
/// [`crate::Device::htod`] and [`crate::Device::dtoh`]).
#[cfg(test)]
impl<T: DeviceCopy> DeviceBuffer<T> {
    pub(crate) fn copy_from_host(&mut self, src: &[T]) {
        self.bytes_mut().copy_from_slice(pod_bytes(src));
    }

    pub(crate) fn copy_to_host(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.len()];
        pod_bytes_mut(&mut out).copy_from_slice(self.bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_alloc_and_roundtrip() {
        let mut b = DeviceBuffer::<f64>::zeroed(4);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
        assert_eq!(b.size_bytes(), 32);
        assert_eq!(b.copy_to_host(), vec![0.0; 4]);
        b.copy_from_host(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(b.copy_to_host(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn empty_buffer() {
        let b = DeviceBuffer::<u32>::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.copy_to_host(), Vec::<u32>::new());
        assert!(b.view().is_empty());
    }

    #[test]
    #[should_panic(expected = "htod length mismatch")]
    fn htod_length_mismatch_panics() {
        let mut dev = crate::Device::with_workers(crate::DeviceProps::paper_rig(), 1);
        let mut b = dev.alloc::<u32>(2);
        dev.htod(&mut b, &[1, 2, 3]);
    }

    #[test]
    fn buffer_ids_are_unique() {
        let a = DeviceBuffer::<u8>::zeroed(1);
        let b = DeviceBuffer::<u8>::zeroed(1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn pool_accounting_registers_and_releases_on_drop() {
        let pool = Arc::new(MemPool::default());
        let a = DeviceBuffer::<f64>::zeroed_in(100, &pool);
        let b = DeviceBuffer::<u32>::zeroed_in(10, &pool);
        assert_eq!(pool.in_use(), 840);
        drop(a);
        assert_eq!(pool.in_use(), 40, "freeing a buffer must release its bytes");
        drop(b);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn pool_flip_bit_corrupts_exactly_one_word_of_a_live_buffer() {
        let pool = Arc::new(MemPool::default());
        let mut buf = DeviceBuffer::<f64>::zeroed_in(8, &pool);
        buf.copy_from_host(&[1.0; 8]);
        let hit = pool.flip_bit(0, 3, 55).expect("one live buffer to hit");
        assert_eq!(hit, buf.id());
        let changed = buf.copy_to_host().iter().filter(|&&v| v != 1.0).count();
        assert_eq!(changed, 1, "exactly one word must be corrupted");
        // Same draw flips the same bit back.
        pool.flip_bit(0, 3, 55).unwrap();
        assert_eq!(buf.copy_to_host(), vec![1.0; 8]);
    }

    #[test]
    fn pool_flip_bit_on_empty_pool_is_none() {
        let pool = Arc::new(MemPool::default());
        assert_eq!(pool.flip_bit(1, 2, 3), None);
        let _empty = DeviceBuffer::<u8>::zeroed_in(0, &pool);
        assert_eq!(pool.flip_bit(1, 2, 3), None, "zero-byte regions are skipped");
    }

    #[test]
    fn canaries_start_intact_and_audit_sees_live_buffers() {
        let pool = Arc::new(MemPool::default());
        let a = DeviceBuffer::<f64>::zeroed_in(16, &pool);
        let b = DeviceBuffer::<u32>::zeroed_in(4, &pool);
        assert!(a.canaries_intact() && b.canaries_intact());
        assert_eq!(pool.audit(), (2, vec![]));
        drop(a);
        drop(b);
        assert_eq!(pool.audit(), (0, vec![]));
        assert_eq!(pool.freed_smashed(), 0);
    }

    #[test]
    fn audit_flags_a_smashed_canary_by_id() {
        let pool = Arc::new(MemPool::default());
        let _clean = DeviceBuffer::<f64>::zeroed_in(8, &pool);
        let mut victim = DeviceBuffer::<f64>::zeroed_in(8, &pool);
        victim.smash_rear_canary_for_test();
        let (live, smashed) = pool.audit();
        assert_eq!(live, 2);
        assert_eq!(smashed, vec![victim.id().0]);
        std::mem::forget(victim); // avoid the (intended) free-side panic
    }

    #[test]
    #[should_panic(expected = "canary smashed")]
    fn free_side_check_is_loud() {
        let pool = Arc::new(MemPool::default());
        let mut buf = DeviceBuffer::<u32>::zeroed_in(4, &pool);
        buf.smash_rear_canary_for_test();
        drop(buf);
    }

    #[test]
    fn free_poisons_the_payload() {
        let mut buf = DeviceBuffer::<u64>::zeroed(4);
        buf.copy_from_host(&[7, 7, 7, 7]);
        buf.poison_payload();
        let poisoned = u64::from_le_bytes([POISON_BYTE; 8]);
        assert_eq!(
            buf.copy_to_host(),
            vec![poisoned; 4],
            "drop-path poisoning must overwrite every payload byte"
        );
    }

    #[test]
    fn views_expose_contents() {
        let mut b = DeviceBuffer::<u32>::zeroed(3);
        b.copy_from_host(&[7, 8, 9]);
        let v = b.view();
        assert_eq!(v.len(), 3);
        assert_eq!(v.raw_load(1), 8);
        let m = b.view_mut();
        m.raw_store(2, 42);
        assert_eq!(m.raw_load(2), 42);
        let _ = m;
        assert_eq!(b.copy_to_host(), vec![7, 8, 42]);
    }
}
