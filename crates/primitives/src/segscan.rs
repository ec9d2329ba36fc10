//! Device segmented scan and segmented reduction.
//!
//! The segmented scan is the centerpiece primitive of the paper ("we use
//! kernels and parallel computation patterns (i.e., segmented scan and
//! reduction)"): the backward sweep sums each parent's children, and with
//! children stored contiguously in level order those sums are exactly
//! per-segment reductions under head flags.
//!
//! Algorithm (Sengupta, Harris, Zhang, Owens — *Scan Primitives for GPU
//! Computing*, 2007): lift the operator to (flag, value) pairs
//! ([`crate::ops::seg_combine`]), run an intra-block Hillis–Steele
//! inclusive scan over the pairs in shared memory, then resolve
//! cross-block carries by recursively scanning the per-block aggregate
//! pairs and applying the carry to every element not preceded by a head
//! flag within its block.
//!
//! Two segmented-reduction strategies are provided:
//! * [`segment_totals`] — segmented scan + gather of segment tails (the
//!   paper's pattern);
//! * [`segment_reduce_direct`] — one thread loops per segment (the naive
//!   alternative; kept as the E7 ablation baseline, it serialises on deep
//!   skewed segments and scatters its loads).

use std::marker::PhantomData;

use simt::{
    BlockScope, Device, DeviceBuffer, DeviceCopy, DeviceError, GlobalMut, GlobalRef, Kernel,
    LaunchConfig,
};

use crate::map::{gather, launch_map, try_launch_map};
use crate::ops::{seg_combine, ScanOp, SegPair};

/// Threads (and elements) per segmented-scan block.
pub const SEGSCAN_BLOCK: u32 = 256;

struct SegScanBlocksKernel<'a, T, Op> {
    values: GlobalRef<'a, T>,
    flags: GlobalRef<'a, u32>,
    out_values: GlobalMut<'a, T>,
    out_flags: GlobalMut<'a, u32>,
    agg_values: GlobalMut<'a, T>,
    agg_flags: GlobalMut<'a, u32>,
    /// First element of the scanned range (global index).
    lo: usize,
    /// One past the last element of the scanned range (global index).
    hi: usize,
    _op: PhantomData<fn() -> Op>,
}

impl<T: DeviceCopy, Op: ScanOp<T>> Kernel for SegScanBlocksKernel<'_, T, Op> {
    fn name(&self) -> &'static str {
        "segscan_blocks"
    }

    fn block(&self, blk: &mut BlockScope) {
        let b = blk.block_dim();
        let base = self.lo + blk.block_idx() * b;
        // Double-buffered pair array: halves [0, b) and [b, 2b).
        let sh = blk.shared::<SegPair<T>>(2 * b);

        // Load one pair per thread; identity-pad the tail (a pad pair has
        // no flag and the identity value, so it never perturbs results).
        blk.threads(|t| {
            let i = base + t.tid();
            let p = if i < self.hi {
                SegPair { flag: t.ld(&self.flags, i), value: t.ld(&self.values, i) }
            } else {
                SegPair { flag: 0, value: Op::identity() }
            };
            t.sts(&sh, t.tid(), p);
        });

        // Hillis–Steele inclusive scan over pairs, ping-ponging halves.
        let mut offset = 1usize;
        let mut src = 0usize;
        while offset < b {
            let dst = b - src;
            blk.threads(|t| {
                let tid = t.tid();
                let cur = t.lds(&sh, src + tid);
                let next = if tid >= offset {
                    let prev = t.lds(&sh, src + tid - offset);
                    t.flops(Op::FLOPS);
                    seg_combine::<T, Op>(prev, cur)
                } else {
                    cur
                };
                t.sts(&sh, dst + tid, next);
            });
            src = dst;
            offset *= 2;
        }

        // Emit the block-local scan and the block aggregate pair.
        blk.threads(|t| {
            let tid = t.tid();
            let p = t.lds(&sh, src + tid);
            let i = base + tid;
            if i < self.hi {
                t.st(&self.out_values, i, p.value);
                t.st(&self.out_flags, i, p.flag);
            }
            if tid == b - 1 {
                t.st(&self.agg_values, t.block_idx(), p.value);
                t.st(&self.agg_flags, t.block_idx(), p.flag);
            }
        });
    }
}

/// Device inclusive segmented scan with head flags: a nonzero `flags[i]`
/// starts a new segment at `i`. Element 0 implicitly starts the first
/// segment.
///
/// `values` and `flags` must have equal length; `output` at least that
/// long.
pub fn segscan_inclusive<T: DeviceCopy, Op: ScanOp<T>>(
    dev: &mut Device,
    values: &DeviceBuffer<T>,
    flags: &DeviceBuffer<u32>,
    output: &mut DeviceBuffer<T>,
) {
    assert_eq!(values.len(), flags.len(), "segscan: values/flags length mismatch");
    assert!(output.len() >= values.len(), "segscan: output shorter than input");
    segscan_inclusive_range::<T, Op>(dev, values, flags, 0, values.len(), output);
}

/// [`segscan_inclusive`] restricted to the element range `[lo, hi)` of
/// `values`/`flags`, writing only `output[lo..hi]`.
///
/// The level-synchronous backward sweep scans exactly one tree level at a
/// time — a sub-range of the level-ordered arrays — which is what this
/// entry point exists for. Flags are interpreted within the range:
/// element `lo` implicitly starts the first segment.
pub fn segscan_inclusive_range<T: DeviceCopy, Op: ScanOp<T>>(
    dev: &mut Device,
    values: &DeviceBuffer<T>,
    flags: &DeviceBuffer<u32>,
    lo: usize,
    hi: usize,
    output: &mut DeviceBuffer<T>,
) {
    try_segscan_inclusive_range::<T, Op>(dev, values, flags, lo, hi, output)
        .unwrap_or_else(|e| panic!("{e}"));
}

/// Fallible [`segscan_inclusive_range`]: surfaces injected faults and
/// device loss as [`DeviceError`] instead of panicking.
pub fn try_segscan_inclusive_range<T: DeviceCopy, Op: ScanOp<T>>(
    dev: &mut Device,
    values: &DeviceBuffer<T>,
    flags: &DeviceBuffer<u32>,
    lo: usize,
    hi: usize,
    output: &mut DeviceBuffer<T>,
) -> Result<(), DeviceError> {
    assert_eq!(values.len(), flags.len(), "segscan: values/flags length mismatch");
    assert!(lo <= hi && hi <= values.len(), "segscan: invalid range {lo}..{hi}");
    assert!(output.len() >= hi, "segscan: output shorter than range end");
    if hi == lo {
        return Ok(());
    }
    let mut scanned_flags = dev.try_alloc::<u32>(values.len())?;
    segscan_impl::<T, Op>(dev, values, flags, lo, hi, output, &mut scanned_flags)
}

#[allow(clippy::too_many_arguments)]
fn segscan_impl<T: DeviceCopy, Op: ScanOp<T>>(
    dev: &mut Device,
    values: &DeviceBuffer<T>,
    flags: &DeviceBuffer<u32>,
    lo: usize,
    hi: usize,
    output: &mut DeviceBuffer<T>,
    scanned_flags: &mut DeviceBuffer<u32>,
) -> Result<(), DeviceError> {
    let len = hi - lo;
    if len == 0 {
        return Ok(());
    }
    let b = SEGSCAN_BLOCK as usize;
    let grid = len.div_ceil(b).max(1);
    let mut agg_values = dev.try_alloc::<T>(grid)?;
    let mut agg_flags = dev.try_alloc::<u32>(grid)?;
    let kernel = SegScanBlocksKernel::<'_, T, Op> {
        values: values.view(),
        flags: flags.view(),
        out_values: output.view_mut(),
        out_flags: scanned_flags.view_mut(),
        agg_values: agg_values.view_mut(),
        agg_flags: agg_flags.view_mut(),
        lo,
        hi,
        _op: PhantomData,
    };
    dev.try_launch(LaunchConfig::new(grid as u32, SEGSCAN_BLOCK), &kernel)?;

    if grid > 1 {
        // Scan the aggregates (inclusive) so block b's carry is the
        // combined pair of blocks 0..=b−1, i.e. scanned_agg[b−1].
        let mut scanned_agg = dev.try_alloc::<T>(grid)?;
        let mut scanned_agg_flags = dev.try_alloc::<u32>(grid)?;
        segscan_impl::<T, Op>(
            dev,
            &agg_values,
            &agg_flags,
            0,
            grid,
            &mut scanned_agg,
            &mut scanned_agg_flags,
        )?;

        let carry_v = scanned_agg.view();
        let out_v = output.view_mut();
        let flag_v = scanned_flags.view();
        try_launch_map(dev, len, "segscan_carry", move |t, i| {
            let blk = i / b;
            if blk == 0 {
                return;
            }
            let gi = lo + i;
            // A head flag anywhere in the block before (or at) element i
            // cuts the carry off.
            if t.ld(&flag_v, gi) != 0 {
                return;
            }
            let carry = t.ld(&carry_v, blk - 1);
            let v = t.ld_mut(&out_v, gi);
            t.flops(Op::FLOPS);
            t.st(&out_v, gi, Op::combine(carry, v));
        })?;
    }
    Ok(())
}

/// Segmented reduction via scan: writes the total of segment `s` (in
/// segment order) to `out[s]`, given `tails`, the index of each
/// segment's last element.
///
/// This is the paper's pattern for the backward sweep: one segmented scan
/// over a level, then a gather of each parent's segment tail.
pub fn segment_totals<T: DeviceCopy, Op: ScanOp<T>>(
    dev: &mut Device,
    values: &DeviceBuffer<T>,
    flags: &DeviceBuffer<u32>,
    tails: &DeviceBuffer<u32>,
    out: &mut DeviceBuffer<T>,
) {
    assert!(out.len() >= tails.len(), "segment_totals: output shorter than segment count");
    let mut scanned = dev.alloc::<T>(values.len());
    segscan_inclusive::<T, Op>(dev, values, flags, &mut scanned);
    gather(dev, &scanned, tails, out);
}

/// Naive segmented reduction: one thread accumulates each segment
/// `values[offsets[s] .. offsets[s+1]]` serially.
///
/// `offsets` has `n_seg + 1` entries (CSR convention). Kept as the
/// ablation baseline for [`segment_totals`]: it launches once instead of
/// O(log) times, but long segments serialise a single thread and its
/// loads never coalesce.
pub fn segment_reduce_direct<T: DeviceCopy, Op: ScanOp<T>>(
    dev: &mut Device,
    values: &DeviceBuffer<T>,
    offsets: &DeviceBuffer<u32>,
    out: &mut DeviceBuffer<T>,
) {
    let n_seg = offsets.len().saturating_sub(1);
    assert!(out.len() >= n_seg, "segment_reduce_direct: output shorter than segment count");
    let val_v = values.view();
    let off_v = offsets.view();
    let out_v = out.view_mut();
    launch_map(dev, n_seg, "segreduce_direct", move |t, s| {
        let lo = t.ld(&off_v, s) as usize;
        let hi = t.ld(&off_v, s + 1) as usize;
        let mut acc = Op::identity();
        for i in lo..hi {
            let v = t.ld(&val_v, i);
            t.flops(Op::FLOPS);
            acc = Op::combine(acc, v);
        }
        t.st(&out_v, s, acc);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host;
    use crate::ops::{AddComplex, AddF64, AddU32};
    use numc::{c, Complex};
    use simt::DeviceProps;

    fn dev() -> Device {
        Device::with_workers(DeviceProps::paper_rig(), 2)
    }

    fn device_segscan_u32(xs: &[u32], flags: &[u32]) -> Vec<u32> {
        let mut d = dev();
        let values = d.alloc_from(xs);
        let fl = d.alloc_from(flags);
        let mut out = d.alloc::<u32>(xs.len());
        segscan_inclusive::<u32, AddU32>(&mut d, &values, &fl, &mut out);
        d.dtoh(&out)
    }

    #[test]
    fn small_segments() {
        let xs = [1u32, 2, 3, 4, 5];
        let flags = [1u32, 0, 1, 0, 0];
        assert_eq!(device_segscan_u32(&xs, &flags), vec![1, 3, 3, 7, 12]);
    }

    #[test]
    fn empty_input() {
        assert_eq!(device_segscan_u32(&[], &[]), Vec::<u32>::new());
    }

    #[test]
    fn single_segment_equals_plain_scan() {
        let xs: Vec<u32> = (0..1000).map(|i| i % 7).collect();
        let mut flags = vec![0u32; 1000];
        flags[0] = 1;
        assert_eq!(device_segscan_u32(&xs, &flags), host::scan_inclusive::<u32, AddU32>(&xs));
    }

    #[test]
    fn cross_block_segments_match_host() {
        // Segments of varying sizes straddling the 256-element block
        // boundary, across one- and two-level recursion sizes.
        for n in [255usize, 256, 257, 1000, 70_000] {
            let xs: Vec<u32> = (0..n as u32).map(|i| (i % 9) + 1).collect();
            let flags: Vec<u32> =
                (0..n).map(|i| u32::from(i == 0 || i % 37 == 0 || i % 300 == 5)).collect();
            let got = device_segscan_u32(&xs, &flags);
            let want = host::segscan_inclusive::<u32, AddU32>(&xs, &flags);
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn one_giant_segment_crossing_many_blocks() {
        // Carry must propagate through the recursive aggregate scan.
        let n = 66_000usize;
        let xs = vec![1u32; n];
        let mut flags = vec![0u32; n];
        flags[0] = 1;
        let got = device_segscan_u32(&xs, &flags);
        assert_eq!(got[n - 1], n as u32);
        assert_eq!(got[300], 301);
    }

    #[test]
    fn every_element_its_own_segment() {
        let n = 3000usize;
        let xs: Vec<u32> = (0..n as u32).collect();
        let flags = vec![1u32; n];
        assert_eq!(device_segscan_u32(&xs, &flags), xs);
    }

    #[test]
    fn complex_segments_match_host() {
        let n = 5000usize;
        let xs: Vec<Complex> = (0..n).map(|i| c((i % 11) as f64, -((i % 5) as f64))).collect();
        let flags: Vec<u32> = (0..n).map(|i| u32::from(i % 23 == 0)).collect();
        let mut d = dev();
        let values = d.alloc_from(&xs);
        let fl = d.alloc_from(&flags);
        let mut out = d.alloc::<Complex>(n);
        segscan_inclusive::<Complex, AddComplex>(&mut d, &values, &fl, &mut out);
        let got = d.dtoh(&out);
        let want = host::segscan_inclusive::<Complex, AddComplex>(&xs, &flags);
        for (g, w) in got.iter().zip(&want) {
            assert!((*g - *w).abs() < 1e-9, "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn segment_totals_matches_host() {
        let xs: Vec<f64> = (0..2000).map(|i| (i % 13) as f64).collect();
        let flags: Vec<u32> = (0..2000).map(|i| u32::from(i % 17 == 0)).collect();
        // Segment tails: positions right before each flag (after the
        // first), plus the final element.
        let mut last = Vec::new();
        for (i, &f) in flags.iter().enumerate().skip(1) {
            if f != 0 {
                last.push(i as u32 - 1);
            }
        }
        last.push(1999);

        let mut d = dev();
        let values = d.alloc_from(&xs);
        let fl = d.alloc_from(&flags);
        let tails = d.alloc_from(&last);
        let mut out = d.alloc::<f64>(last.len());
        segment_totals::<f64, AddF64>(&mut d, &values, &fl, &tails, &mut out);
        assert_eq!(d.dtoh(&out), host::segment_totals::<f64, AddF64>(&xs, &flags));
    }

    #[test]
    fn direct_reduce_matches_scan_based() {
        let xs: Vec<f64> = (0..5000).map(|i| ((i * 31) % 101) as f64).collect();
        // Build CSR offsets for segments of irregular lengths.
        let mut offsets = vec![0u32];
        let mut pos = 0u32;
        let mut k = 1u32;
        while (pos as usize) < xs.len() {
            pos = (pos + k * 3 % 40 + 1).min(xs.len() as u32);
            offsets.push(pos);
            k += 1;
        }
        let n_seg = offsets.len() - 1;
        // Equivalent head flags.
        let mut flags = vec![0u32; xs.len()];
        for &o in &offsets[..n_seg] {
            flags[o as usize] = 1;
        }

        let mut d = dev();
        let values = d.alloc_from(&xs);
        let offs = d.alloc_from(&offsets);
        let mut out = d.alloc::<f64>(n_seg);
        segment_reduce_direct::<f64, AddF64>(&mut d, &values, &offs, &mut out);
        let got = d.dtoh(&out);
        let want = host::segment_totals::<f64, AddF64>(&xs, &flags);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn direct_reduce_empty_segments_yield_identity() {
        let mut d = dev();
        let values = d.alloc_from(&[1.0_f64, 2.0]);
        let offs = d.alloc_from(&[0u32, 0, 2, 2]);
        let mut out = d.alloc::<f64>(3);
        segment_reduce_direct::<f64, AddF64>(&mut d, &values, &offs, &mut out);
        assert_eq!(d.dtoh(&out), vec![0.0, 3.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_flags_rejected() {
        let mut d = dev();
        let values = d.alloc_from(&[1u32; 8]);
        let flags = d.alloc_from(&[1u32; 7]);
        let mut out = d.alloc::<u32>(8);
        segscan_inclusive::<u32, AddU32>(&mut d, &values, &flags, &mut out);
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::host;
    use crate::ops::AddU32;
    use simt::DeviceProps;

    #[test]
    fn range_scan_touches_only_the_range() {
        let n = 2000usize;
        let xs: Vec<u32> = (0..n as u32).map(|i| i % 4 + 1).collect();
        let flags: Vec<u32> = (0..n).map(|i| u32::from(i % 10 == 0)).collect();
        let (lo, hi) = (700, 1500);

        let mut d = Device::with_workers(DeviceProps::paper_rig(), 2);
        let values = d.alloc_from(&xs);
        let fl = d.alloc_from(&flags);
        let mut out = d.alloc::<u32>(n);
        crate::fill(&mut d, &mut out, 9999u32);
        segscan_inclusive_range::<u32, AddU32>(&mut d, &values, &fl, lo, hi, &mut out);
        let got = d.dtoh(&out);

        let want_mid = host::segscan_inclusive::<u32, AddU32>(&xs[lo..hi], &flags[lo..hi]);
        assert_eq!(&got[lo..hi], want_mid.as_slice());
        assert!(got[..lo].iter().all(|&v| v == 9999), "below range untouched");
        assert!(got[hi..].iter().all(|&v| v == 9999), "above range untouched");
    }

    #[test]
    fn range_scan_small_and_unaligned() {
        let n = 600usize;
        let xs = vec![1u32; n];
        let mut flags = vec![0u32; n];
        for i in (0..n).step_by(7) {
            flags[i] = 1;
        }
        let mut d = Device::with_workers(DeviceProps::paper_rig(), 2);
        let values = d.alloc_from(&xs);
        let fl = d.alloc_from(&flags);
        for (lo, hi) in [(0usize, 1usize), (5, 5), (3, 300), (250, 600), (599, 600)] {
            let mut out = d.alloc::<u32>(n);
            segscan_inclusive_range::<u32, AddU32>(&mut d, &values, &fl, lo, hi, &mut out);
            let got = d.dtoh(&out);
            let want = host::segscan_inclusive::<u32, AddU32>(&xs[lo..hi], &flags[lo..hi]);
            assert_eq!(&got[lo..hi], want.as_slice(), "range {lo}..{hi}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn inverted_range_rejected() {
        let mut d = Device::paper_rig();
        let values = d.alloc_from(&[1u32; 4]);
        let fl = d.alloc_from(&[1u32; 4]);
        let mut out = d.alloc::<u32>(4);
        segscan_inclusive_range::<u32, AddU32>(&mut d, &values, &fl, 3, 1, &mut out);
    }
}
