//! Execution statistics gathered while kernels run.
//!
//! Every global/shared memory access and every tallied flop flows into a
//! [`LaunchStats`]; the timing model in [`crate::timing`] converts the
//! totals into modeled microseconds. Stats are gathered per block (no
//! cross-thread sharing while the kernel runs) and merged once at the end
//! of the launch, so collection adds no synchronization to the hot path.

use crate::buffer::BufId;

/// Size in bytes of one modeled global-memory transaction (the 128-byte
/// cache-line-sized segment the CUDA coalescer issues).
pub const TRANSACTION_BYTES: u64 = 128;

/// Aggregated statistics for one kernel launch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Blocks executed.
    pub blocks: u64,
    /// Threads executed (sum of block sizes; includes early-exit threads).
    pub threads: u64,
    /// Tallied floating-point operations.
    pub flops: u64,
    /// Global-memory load instructions (per thread, per access).
    pub gmem_loads: u64,
    /// Global-memory store instructions.
    pub gmem_stores: u64,
    /// Bytes requested by global loads+stores.
    pub gmem_bytes: u64,
    /// Modeled 128-byte transactions after per-warp coalescing.
    pub gmem_transactions: u64,
    /// Global-memory atomic operations (component ops; a complex
    /// atomic-add counts 2).
    pub gmem_atomics: u64,
    /// Sum over blocks of the per-phase max same-address atomic conflict
    /// count (the intra-block serialisation chain of the atomic unit).
    pub atomic_chain: u64,
    /// Shared-memory accesses (loads + stores).
    pub smem_accesses: u64,
    /// Barrier-delimited phases executed, summed over blocks.
    pub phases: u64,
    /// Sum over blocks of the per-block dependent-memory-access chain
    /// (Σ over phases of the max per-thread access count in that phase).
    /// Drives the latency term of the timing model.
    pub mem_chain: u64,
    /// Largest shared-memory footprint of any block, bytes.
    pub max_shared_bytes: u64,
    /// Largest block-dim seen (uniform in practice; kept for reporting).
    pub max_block_threads: u64,
    /// Whether the launch was cooperative
    /// ([`crate::Device::try_launch_cooperative`]).
    pub cooperative: bool,
    /// Grid-wide barriers a cooperative launch passed (0 otherwise).
    pub grid_syncs: u64,
    /// Cooperative launches: Σ over grid phases of the largest
    /// dependent-access chain (memory and atomic) any block ran in that
    /// phase — the launch's critical path, since no block starts a grid
    /// phase before every block has ended the one before. 0 otherwise.
    pub grid_chain: u64,
    /// Cooperative launches: Σ over grid phases of the most barrier
    /// phases any block ran in that phase. 0 otherwise.
    pub grid_phases: u64,
}

impl LaunchStats {
    /// Merges another stats record into this one (per-worker fold).
    pub fn merge(&mut self, o: &LaunchStats) {
        self.blocks += o.blocks;
        self.threads += o.threads;
        self.flops += o.flops;
        self.gmem_loads += o.gmem_loads;
        self.gmem_stores += o.gmem_stores;
        self.gmem_bytes += o.gmem_bytes;
        self.gmem_transactions += o.gmem_transactions;
        self.gmem_atomics += o.gmem_atomics;
        self.atomic_chain += o.atomic_chain;
        self.smem_accesses += o.smem_accesses;
        self.phases += o.phases;
        self.mem_chain += o.mem_chain;
        self.max_shared_bytes = self.max_shared_bytes.max(o.max_shared_bytes);
        self.max_block_threads = self.max_block_threads.max(o.max_block_threads);
        self.cooperative |= o.cooperative;
        self.grid_syncs += o.grid_syncs;
        self.grid_chain += o.grid_chain;
        self.grid_phases += o.grid_phases;
    }

    /// Average coalescing efficiency: ideal transactions over issued
    /// transactions (1.0 = perfectly coalesced, →0 = scattered). Returns
    /// `None` when no global traffic occurred.
    pub fn coalescing_efficiency(&self) -> Option<f64> {
        if self.gmem_transactions == 0 {
            return None;
        }
        let ideal = self.gmem_bytes.div_ceil(TRANSACTION_BYTES);
        Some(ideal as f64 / self.gmem_transactions as f64)
    }
}

/// Per-block accounting that [`crate::scope::BlockScope`] writes into as
/// threads execute. Converted into a [`LaunchStats`] contribution when the
/// block finishes.
#[derive(Debug, Default)]
pub(crate) struct BlockAccounting {
    pub flops: u64,
    pub gmem_loads: u64,
    pub gmem_stores: u64,
    pub gmem_bytes: u64,
    pub gmem_transactions: u64,
    pub gmem_atomics: u64,
    pub atomic_chain: u64,
    /// Same-address atomic conflict counts for the current phase.
    pub atomic_conflicts: std::collections::HashMap<(BufId, usize), u32>,
    /// Max conflict count seen this phase.
    pub phase_atomic_max: u32,
    pub smem_accesses: u64,
    pub phases: u64,
    pub mem_chain: u64,
    pub shared_bytes: u64,
    /// Coalescing state per access slot (per-thread access sequence number
    /// within the current phase). Epoch-tagged so warp changes invalidate
    /// lazily instead of clearing the vector.
    pub slots: Vec<SlotState>,
    pub warp_epoch: u64,
    /// Max per-thread memory-access count in the current phase.
    pub phase_chain_max: u64,
}

/// Coalescing state for one warp-instruction slot.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SlotState {
    pub epoch: u64,
    pub buf: BufId,
    pub segment: u64,
}

impl BlockAccounting {
    /// Records a global access by thread `tid` at element byte offset
    /// `byte_off` of buffer `buf`; `seq` is the thread's access ordinal
    /// within the current phase (0-based).
    #[inline]
    pub fn note_gmem(
        &mut self,
        buf: BufId,
        byte_off: u64,
        bytes: u64,
        seq: u32,
        is_store: bool,
    ) {
        if is_store {
            self.gmem_stores += 1;
        } else {
            self.gmem_loads += 1;
        }
        self.gmem_bytes += bytes;

        // Per-warp coalescing: one new transaction whenever this slot's
        // 128-byte segment differs from the segment touched by the
        // previous thread of the same warp at the same slot. An access
        // spanning multiple segments issues one transaction per segment.
        let first_seg = byte_off / TRANSACTION_BYTES;
        let last_seg = (byte_off + bytes - 1) / TRANSACTION_BYTES;
        let slot = seq as usize;
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, SlotState::default());
        }
        let s = &mut self.slots[slot];
        if s.epoch != self.warp_epoch || s.buf != buf || s.segment != first_seg {
            self.gmem_transactions += 1;
        }
        self.gmem_transactions += last_seg - first_seg; // straddles
        *s = SlotState { epoch: self.warp_epoch, buf, segment: last_seg };
    }

    /// Records an atomic RMW by the current thread on element `i` of
    /// buffer `buf` (`component_ops` component operations of `bytes`
    /// each). Atomics bypass the coalescer: every component op is its
    /// own transaction. Same-address conflicts within the phase feed the
    /// serialisation chain.
    pub fn note_atomic(&mut self, buf: BufId, i: usize, bytes: u64, component_ops: u64) {
        self.gmem_atomics += component_ops;
        self.gmem_bytes += bytes;
        self.gmem_transactions += component_ops;
        let e = self.atomic_conflicts.entry((buf, i)).or_insert(0);
        *e += 1;
        if *e > self.phase_atomic_max {
            self.phase_atomic_max = *e;
        }
    }

    /// Folds this block's accounting into a launch-level stats record.
    pub fn fold_into(&self, out: &mut LaunchStats, block_threads: u64) {
        out.blocks += 1;
        out.threads += block_threads;
        out.flops += self.flops;
        out.gmem_loads += self.gmem_loads;
        out.gmem_stores += self.gmem_stores;
        out.gmem_bytes += self.gmem_bytes;
        out.gmem_transactions += self.gmem_transactions;
        out.gmem_atomics += self.gmem_atomics;
        out.atomic_chain += self.atomic_chain;
        out.smem_accesses += self.smem_accesses;
        out.phases += self.phases;
        out.mem_chain += self.mem_chain;
        out.max_shared_bytes = out.max_shared_bytes.max(self.shared_bytes);
        out.max_block_threads = out.max_block_threads.max(block_threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_and_maxes() {
        let mut a = LaunchStats { blocks: 1, flops: 10, max_shared_bytes: 64, ..Default::default() };
        let b = LaunchStats { blocks: 2, flops: 5, max_shared_bytes: 128, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.blocks, 3);
        assert_eq!(a.flops, 15);
        assert_eq!(a.max_shared_bytes, 128);
    }

    fn acc_with_epoch(epoch: u64) -> BlockAccounting {
        BlockAccounting { warp_epoch: epoch, ..Default::default() }
    }

    #[test]
    fn coalesced_sequential_warp_is_one_transaction_per_segment() {
        let mut acc = acc_with_epoch(1);
        // 32 threads each load 4 bytes at consecutive addresses: 128 bytes
        // = exactly one transaction.
        for t in 0..32u64 {
            acc.note_gmem(BufId(1), t * 4, 4, 0, false);
        }
        assert_eq!(acc.gmem_transactions, 1);
        assert_eq!(acc.gmem_loads, 32);
        assert_eq!(acc.gmem_bytes, 128);
    }

    #[test]
    fn coalesced_f64_warp_is_two_transactions() {
        let mut acc = acc_with_epoch(1);
        // 32 × 8 bytes = 256 bytes = two 128-byte segments.
        for t in 0..32u64 {
            acc.note_gmem(BufId(1), t * 8, 8, 0, false);
        }
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_thread() {
        let mut acc = acc_with_epoch(1);
        for t in 0..32u64 {
            acc.note_gmem(BufId(1), t * 4096, 4, 0, false);
        }
        assert_eq!(acc.gmem_transactions, 32);
    }

    #[test]
    fn new_warp_epoch_restarts_coalescing() {
        let mut acc = acc_with_epoch(1);
        acc.note_gmem(BufId(1), 0, 4, 0, false);
        // Same address, same slot, but a new warp → a fresh transaction.
        acc.warp_epoch = 2;
        acc.note_gmem(BufId(1), 0, 4, 0, false);
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn distinct_buffers_do_not_coalesce_together() {
        let mut acc = acc_with_epoch(1);
        acc.note_gmem(BufId(1), 0, 4, 0, false);
        acc.note_gmem(BufId(2), 4, 4, 0, false);
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn straddling_access_counts_both_segments() {
        let mut acc = acc_with_epoch(1);
        // 16-byte access starting 8 bytes before a segment boundary.
        acc.note_gmem(BufId(1), 120, 16, 0, false);
        assert_eq!(acc.gmem_transactions, 2);
    }

    #[test]
    fn different_slots_track_independently() {
        let mut acc = acc_with_epoch(1);
        // Two threads, two access slots each, both slots coalesced.
        for t in 0..2u64 {
            acc.note_gmem(BufId(1), t * 8, 8, 0, false);
            acc.note_gmem(BufId(2), t * 8, 8, 1, false);
        }
        assert_eq!(acc.gmem_transactions, 2); // one per slot
    }

    #[test]
    fn coalescing_efficiency_reporting() {
        let s = LaunchStats {
            gmem_bytes: 256,
            gmem_transactions: 4,
            ..Default::default()
        };
        // Ideal = 2 transactions for 256 bytes; issued 4 → 0.5.
        assert_eq!(s.coalescing_efficiency(), Some(0.5));
        assert_eq!(LaunchStats::default().coalescing_efficiency(), None);
    }

    #[test]
    fn fold_into_tracks_maxima() {
        let acc = BlockAccounting { flops: 7, shared_bytes: 256, ..Default::default() };
        let mut out = LaunchStats::default();
        acc.fold_into(&mut out, 128);
        assert_eq!(out.blocks, 1);
        assert_eq!(out.threads, 128);
        assert_eq!(out.flops, 7);
        assert_eq!(out.max_shared_bytes, 256);
        assert_eq!(out.max_block_threads, 128);
    }
}
