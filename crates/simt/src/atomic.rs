//! Device atomic operations (`atomicAdd` analog).
//!
//! Functional semantics use real host atomics (CAS loops over the bit
//! pattern), so concurrent simulated threads update device memory exactly
//! as hardware atomic units would — any interleaving yields the same sum
//! for commutative-associative-up-to-rounding addition.
//!
//! Timing model: each atomic is charged one global transaction (atomics
//! bypass coalescing) plus a *contention* term — within a block, the
//! maximum number of atomics hitting one address in one phase serialises
//! at the memory-latency cadence, mirroring how same-address atomics
//! serialise in an SM's atomic unit. Cross-block contention is folded
//! into bandwidth (each op is its own transaction); this underestimates
//! pathological global hotspots, which is documented in the timing-model
//! notes and visible in the ablation experiments.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::buffer::DeviceCopy;

/// Types supporting device `atomic_add`.
///
/// # Safety
///
/// `atomic_add_at` must perform a genuinely atomic read-modify-write of
/// the value at `ptr` (or a sequence of component-wise atomic RMWs for
/// compound types, matching CUDA's treatment of `double2`).
pub unsafe trait AtomicAdd: DeviceCopy {
    /// Number of component atomic operations one `atomic_add` issues
    /// (1 for scalars, 2 for complex, 6 for a phase triple) — used by the stats layer.
    const COMPONENT_OPS: u64;

    /// Atomically adds `v` to the value at `ptr`.
    ///
    /// # Safety
    /// `ptr` must be valid for reads and writes and properly aligned; the
    /// pointee must only be accessed atomically for the duration of the
    /// launch (the kernel-level contract the race checker enforces).
    unsafe fn atomic_add_at(ptr: *mut Self, v: Self);
}

// SAFETY: CAS loop over the IEEE-754 bit pattern — the standard lock-free
// f64 atomic-add construction (also what CUDA did pre-sm_60).
unsafe impl AtomicAdd for f64 {
    const COMPONENT_OPS: u64 = 1;

    unsafe fn atomic_add_at(ptr: *mut f64, v: f64) {
        // SAFETY: caller guarantees validity/alignment; AtomicU64 has the
        // same size and alignment as u64/f64.
        let a = unsafe { AtomicU64::from_ptr(ptr as *mut u64) };
        let mut cur = a.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match a.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

// SAFETY: native fetch_add.
unsafe impl AtomicAdd for u32 {
    const COMPONENT_OPS: u64 = 1;

    unsafe fn atomic_add_at(ptr: *mut u32, v: u32) {
        // SAFETY: caller guarantees validity/alignment.
        let a = unsafe { AtomicU32::from_ptr(ptr) };
        a.fetch_add(v, Ordering::Relaxed);
    }
}

// SAFETY: component-wise f64 atomic adds. The pair is NOT atomic as a
// unit — exactly like updating a CUDA double2 with two atomicAdds — but
// summation results are unaffected because addition is component-wise.
unsafe impl AtomicAdd for numc::Complex {
    const COMPONENT_OPS: u64 = 2;

    unsafe fn atomic_add_at(ptr: *mut numc::Complex, v: numc::Complex) {
        // SAFETY: Complex is #[repr(C)] { re: f64, im: f64 }.
        unsafe {
            let re_ptr = ptr as *mut f64;
            f64::atomic_add_at(re_ptr, v.re);
            f64::atomic_add_at(re_ptr.add(1), v.im);
        }
    }
}

// SAFETY: component-wise f64 atomic adds, as for `Complex`: the six parts
// are not updated as a unit, but per-phase sums are unaffected.
unsafe impl AtomicAdd for numc::CVec3 {
    const COMPONENT_OPS: u64 = 6;

    unsafe fn atomic_add_at(ptr: *mut numc::CVec3, v: numc::CVec3) {
        // SAFETY: CVec3 is #[repr(C)] { a, b, c: Complex }.
        unsafe {
            let phase_ptr = ptr as *mut numc::Complex;
            for (k, p) in v.phases().into_iter().enumerate() {
                numc::Complex::atomic_add_at(phase_ptr.add(k), p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numc::c;

    #[test]
    fn f64_atomic_add_accumulates_across_threads() {
        let mut cell = 0.0f64;
        let p: *mut f64 = &mut cell;
        let addr = p as usize;
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    for _ in 0..1000 {
                        // SAFETY: all access in this test is atomic.
                        unsafe { f64::atomic_add_at(addr as *mut f64, 1.0) };
                    }
                });
            }
        });
        assert_eq!(cell, 8000.0);
    }

    #[test]
    fn u32_atomic_add_accumulates() {
        let mut cell = 0u32;
        let p: *mut u32 = &mut cell;
        let addr = p as usize;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..512 {
                        // SAFETY: atomic-only access.
                        unsafe { u32::atomic_add_at(addr as *mut u32, 2) };
                    }
                });
            }
        });
        assert_eq!(cell, 4096);
    }

    #[test]
    fn complex_atomic_add_sums_components() {
        let mut cell = numc::Complex::ZERO;
        let p: *mut numc::Complex = &mut cell;
        let addr = p as usize;
        std::thread::scope(|s| {
            for k in 0..4 {
                s.spawn(move || {
                    for _ in 0..100 {
                        // SAFETY: atomic-only access.
                        unsafe {
                            numc::Complex::atomic_add_at(
                                addr as *mut numc::Complex,
                                c(1.0, k as f64),
                            )
                        };
                    }
                });
            }
        });
        assert_eq!(cell, c(400.0, 600.0));
    }

    #[test]
    fn cvec3_atomic_add_sums_every_phase() {
        let mut cell = numc::CVec3::ZERO;
        let p: *mut numc::CVec3 = &mut cell;
        let addr = p as usize;
        std::thread::scope(|s| {
            for k in 0..4 {
                s.spawn(move || {
                    let v = numc::CVec3::new(c(1.0, k as f64), c(-2.0, 0.5), c(0.25, -k as f64));
                    for _ in 0..100 {
                        // SAFETY: atomic-only access.
                        unsafe { numc::CVec3::atomic_add_at(addr as *mut numc::CVec3, v) };
                    }
                });
            }
        });
        assert_eq!(cell, numc::CVec3::new(c(400.0, 600.0), c(-800.0, 200.0), c(100.0, -600.0)));
    }
}
