//! Optional data-race detector for kernel launches (`racecheck` feature).
//!
//! CUDA's memory model gives no ordering between threads of *different*
//! blocks within one launch, and orders threads of the *same* block only
//! across `__syncthreads()` barriers; a cooperative launch's grid barrier
//! orders every thread before it against every thread after it. The
//! tracker enforces exactly that:
//!
//! * write → write to one cell from different threads: race, unless a
//!   grid barrier separates them, or the writes are in the same block and
//!   different phases;
//! * write → read from a different thread: race, unless a grid barrier
//!   separates them, or same block and the read happens in a *later*
//!   phase than the write;
//! * read → write from a different thread: the same rule, so a racing
//!   pair is reported whichever of the two the simulation runs first.
//!
//! Each cell stores its last writer and its last reader as packed
//! words; a write checks the last reader only, so of several unordered
//! readers the one that ran last is checked. The table is
//! rebuilt per [`crate::DeviceBuffer::view_mut`] call (views are created
//! per launch by convention), so stale launches never alias.
//!
//! This is a debugging tool: it is only compiled under the `racecheck`
//! feature and is used by kernel test suites, not production runs.

#![cfg(feature = "racecheck")]

use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of an executing simulated thread for race attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ThreadId {
    /// Flat block index.
    pub block: u32,
    /// Thread index within the block.
    pub tid: u32,
    /// Barrier phase ordinal within the block (saturates at u16::MAX).
    pub phase: u16,
    /// Grid barriers passed, in a cooperative launch (0 otherwise;
    /// saturates at [`MAX_GRID_PHASE`]).
    pub grid_phase: u16,
}

/// The largest grid phase a cell records: later grid phases share it, so
/// past it grid barriers no longer order accesses (a race may be
/// reported where there is none, never missed).
pub const MAX_GRID_PHASE: u32 = 0x3FFF;

/// Packed cell encoding: [1 bit valid][1 bit atomic][22 bits block]
/// [10 bits tid][16 bits phase][14 bits grid phase]. A block holds at
/// most 1 024 threads.
fn pack(t: ThreadId, atomic: bool) -> u64 {
    (1u64 << 63)
        | ((atomic as u64) << 62)
        | ((t.block as u64 & 0x3F_FFFF) << 40)
        | ((t.tid as u64 & 0x3FF) << 30)
        | ((t.phase as u64) << 14)
        | (t.grid_phase as u64 & MAX_GRID_PHASE as u64)
}

fn unpack(w: u64) -> Option<(ThreadId, bool)> {
    if w >> 63 == 0 {
        return None;
    }
    let id = ThreadId {
        block: ((w >> 40) & 0x3F_FFFF) as u32,
        tid: ((w >> 30) & 0x3FF) as u32,
        phase: ((w >> 14) & 0xFFFF) as u16,
        grid_phase: (w & MAX_GRID_PHASE as u64) as u16,
    };
    Some((id, (w >> 62) & 1 == 1))
}

/// Per-buffer, per-launch last-writer and last-reader table.
#[derive(Debug)]
pub struct RaceTable {
    cells: Box<[AtomicU64]>,
    readers: Box<[AtomicU64]>,
}

impl RaceTable {
    /// Creates a table for a buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        let empty = || (0..len).map(|_| AtomicU64::new(0)).collect();
        RaceTable { cells: empty(), readers: empty() }
    }

    /// Panics when the last reader of element `i` is unordered with
    /// `who`, which writes it.
    fn check_reader(&self, i: usize, who: ThreadId) {
        if let Some((r, _)) = unpack(self.readers[i].load(Ordering::Relaxed)) {
            if !Self::ordered(r, who) {
                panic!(
                    "racecheck: write-after-read race on element {i}: \
                     read by block {}/thread {}/phase {}, written by block {}/thread {}/phase {}",
                    r.block, r.tid, r.phase, who.block, who.tid, who.phase
                );
            }
        }
    }

    /// True when `a` (earlier writer) is ordered-before `b` (current
    /// accessor) under the launch memory model.
    fn ordered(a: ThreadId, b: ThreadId) -> bool {
        if a.block == b.block && a.tid == b.tid {
            return true; // program order within one thread
        }
        if a.grid_phase < b.grid_phase {
            return true; // a grid barrier lies between them
        }
        // Same block: barrier between phases orders the accesses.
        a.block == b.block && a.phase < b.phase
    }

    /// Records a write by `who` to element `i`; panics on a detected race.
    pub fn on_write(&self, i: usize, who: ThreadId) {
        self.check_reader(i, who);
        let new = pack(who, false);
        let prev = self.cells[i].swap(new, Ordering::Relaxed);
        if let Some((w, _atomic)) = unpack(prev) {
            // A plain write conflicts with any unordered prior access,
            // atomic or not.
            if !Self::ordered(w, who) {
                panic!(
                    "racecheck: write-write race on element {i}: \
                     block {}/thread {}/phase {} vs block {}/thread {}/phase {}",
                    w.block, w.tid, w.phase, who.block, who.tid, who.phase
                );
            }
        }
    }

    /// Records a read by `who` of element `i`; panics when it races with
    /// an earlier write from an unordered thread.
    pub fn on_read(&self, i: usize, who: ThreadId) {
        self.readers[i].store(pack(who, false), Ordering::Relaxed);
        let prev = self.cells[i].load(Ordering::Relaxed);
        if let Some((w, _atomic)) = unpack(prev) {
            if !Self::ordered(w, who) {
                panic!(
                    "racecheck: read-after-write race on element {i}: \
                     written by block {}/thread {}/phase {}, read by block {}/thread {}/phase {}",
                    w.block, w.tid, w.phase, who.block, who.tid, who.phase
                );
            }
        }
    }

    /// Records an atomic RMW by `who` on element `i`. Concurrent atomics
    /// never race with each other; an atomic racing an unordered *plain*
    /// access panics.
    pub fn on_atomic(&self, i: usize, who: ThreadId) {
        self.check_reader(i, who);
        let new = pack(who, true);
        let prev = self.cells[i].swap(new, Ordering::Relaxed);
        if let Some((w, atomic)) = unpack(prev) {
            if !atomic && !Self::ordered(w, who) {
                panic!(
                    "racecheck: atomic-vs-plain race on element {i}: \
                     plain access by block {}/thread {}/phase {}, atomic by block {}/thread {}/phase {}",
                    w.block, w.tid, w.phase, who.block, who.tid, who.phase
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(block: u32, tid: u32, phase: u16) -> ThreadId {
        ThreadId { block, tid, phase, grid_phase: 0 }
    }

    #[test]
    fn pack_roundtrip() {
        let id = t(12345, 678, 9);
        assert_eq!(unpack(pack(id, false)), Some((id, false)));
        assert_eq!(unpack(pack(id, true)), Some((id, true)));
        let wide = ThreadId { block: 0x3F_FFFF, tid: 1023, phase: u16::MAX, grid_phase: 0x3FFF };
        assert_eq!(unpack(pack(wide, false)), Some((wide, false)));
        assert_eq!(unpack(0), None);
    }

    #[test]
    fn a_grid_barrier_orders_other_blocks() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 0, 3));
        let after = ThreadId { grid_phase: 1, ..t(5, 9, 0) };
        tab.on_read(0, after);
        tab.on_write(0, after);
    }

    #[test]
    #[should_panic(expected = "read-after-write race")]
    fn other_blocks_in_one_grid_phase_race() {
        let tab = RaceTable::new(1);
        tab.on_write(0, ThreadId { grid_phase: 2, ..t(0, 0, 3) });
        tab.on_read(0, ThreadId { grid_phase: 2, ..t(1, 0, 9) });
    }

    #[test]
    fn concurrent_atomics_do_not_race() {
        let tab = RaceTable::new(1);
        tab.on_atomic(0, t(0, 0, 0));
        tab.on_atomic(0, t(5, 3, 0));
        tab.on_atomic(0, t(2, 9, 7));
    }

    #[test]
    #[should_panic(expected = "atomic-vs-plain race")]
    fn atomic_after_unordered_plain_write_races() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 0, 0));
        tab.on_atomic(0, t(1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "read-after-write race")]
    fn plain_read_after_unordered_atomic_races() {
        let tab = RaceTable::new(1);
        tab.on_atomic(0, t(0, 0, 0));
        tab.on_read(0, t(1, 0, 0));
    }

    #[test]
    fn same_thread_rewrites_are_fine() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 3, 0));
        tab.on_write(0, t(0, 3, 0));
        tab.on_read(0, t(0, 3, 0));
    }

    #[test]
    fn barrier_orders_same_block() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 3, 0));
        tab.on_read(0, t(0, 7, 1)); // later phase: ordered
        tab.on_write(0, t(0, 7, 1));
    }

    #[test]
    #[should_panic(expected = "write-write race")]
    fn same_phase_write_write_races() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 3, 0));
        tab.on_write(0, t(0, 4, 0));
    }

    #[test]
    #[should_panic(expected = "read-after-write race")]
    fn cross_block_read_races() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 0, 0));
        tab.on_read(0, t(1, 0, 5)); // different block: never ordered
    }

    #[test]
    #[should_panic(expected = "write-after-read race")]
    fn a_write_after_an_unordered_read_races() {
        let tab = RaceTable::new(1);
        tab.on_read(0, t(0, 0, 0));
        tab.on_write(0, t(1, 0, 0)); // another block, same grid phase
    }

    #[test]
    fn ordered_reads_before_writes_do_not_race() {
        let tab = RaceTable::new(1);
        tab.on_read(0, t(0, 3, 0));
        tab.on_write(0, t(0, 7, 1)); // same block, a later phase
        tab.on_read(0, t(0, 7, 1));
        tab.on_write(0, t(0, 7, 1)); // the reading thread itself
        tab.on_read(0, ThreadId { grid_phase: 1, ..t(1, 0, 0) });
        tab.on_write(0, ThreadId { grid_phase: 2, ..t(2, 0, 0) }); // past a grid barrier
    }

    #[test]
    #[should_panic(expected = "write-write race")]
    fn cross_block_write_races() {
        let tab = RaceTable::new(1);
        tab.on_write(0, t(0, 0, 3));
        tab.on_write(0, t(2, 0, 3));
    }
}
