//! The analytical timing model.
//!
//! Kernels execute functionally on host threads; this module converts the
//! statistics they tally into *modeled device microseconds*. The model is
//! a roofline with a latency floor:
//!
//! ```text
//! t_kernel = launch_overhead
//!          + max( t_compute,   // flop roofline over all SMs
//!                 t_mem,       // coalesced-transaction bandwidth roofline
//!                 t_latency )  // dependent-access chain × waves
//! ```
//!
//! * `t_compute = flops / (num_sms · fp_lanes · clock)` — the tallied
//!   floating-point work spread over every lane of every SM.
//! * `t_mem = transactions · 128 B / bandwidth` — global traffic after
//!   per-warp coalescing (scattered access patterns pay up to 32× here,
//!   which is what makes the paper's level-order data layout matter).
//! * `t_latency`: small launches cannot hide memory latency. With
//!   `waves = ceil(blocks / resident_blocks_total)` occupancy-limited
//!   waves and an average per-block dependent-access chain of
//!   `mem_chain / blocks`, the floor is
//!   `waves · (chain · mem_latency + phases_per_block · barrier)` cycles.
//!   For the paper's per-level kernels over narrow tree levels this is the
//!   dominant term — exactly the effect the abstract reports ("larger
//!   speedups as the size of the distribution tree increases").
//!
//! A *cooperative* launch ([`crate::Device::try_launch_cooperative`])
//! holds its whole grid resident (one wave) and runs it as grid phases
//! separated by grid-wide barriers. No block starts a grid phase before
//! every block ended the one before, so its latency floor follows the
//! critical path — Σ over grid phases of the slowest block's
//! `chain · mem_latency + phases · barrier` cycles
//! ([`LaunchStats::grid_chain`], [`LaunchStats::grid_phases`]) — and its
//! barriers add outside the roofline, since no SM does useful work while
//! the grid waits:
//!
//! ```text
//! t_kernel = launch_overhead + max(t_compute, t_mem, t_latency)
//!          + grid_syncs · grid_sync_us
//! ```
//!
//! with `grid_sync_us` the [`DeviceProps::GRID_SYNC_US`] constant. An
//! ordinary launch has no grid barrier: its `grid_sync_us` term is 0.
//!
//! Transfers are modeled as `latency + bytes / pcie_bandwidth`.
//!
//! All outputs are deterministic functions of ([`LaunchStats`],
//! [`LaunchConfig`], [`DeviceProps`]) so experiment tables reproduce
//! bit-for-bit across machines.

use crate::kernel::LaunchConfig;
use crate::props::DeviceProps;
use crate::stats::{LaunchStats, TRANSACTION_BYTES};

/// Per-launch modeled-time decomposition, µs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTiming {
    /// Fixed launch overhead.
    pub launch_us: f64,
    /// Compute-roofline term.
    pub compute_us: f64,
    /// Memory-bandwidth term.
    pub mem_us: f64,
    /// Latency-floor term.
    pub latency_us: f64,
    /// Grid-barrier term of a cooperative launch: its grid barriers times
    /// [`DeviceProps::GRID_SYNC_US`] (0 for an ordinary launch).
    pub grid_sync_us: f64,
    /// Total modeled time (launch + max of the three + grid barriers).
    pub total_us: f64,
}

impl KernelTiming {
    /// Which term bound the kernel (for reports).
    pub fn bound(&self) -> Bound {
        if self.compute_us >= self.mem_us && self.compute_us >= self.latency_us {
            Bound::Compute
        } else if self.mem_us >= self.latency_us {
            Bound::Memory
        } else {
            Bound::Latency
        }
    }
}

/// The binding resource of a launch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// Flop-throughput-bound.
    Compute,
    /// Bandwidth-bound.
    Memory,
    /// Latency/occupancy-bound (small or launch-overhead-dominated).
    Latency,
}

/// Models one kernel launch.
pub fn kernel_time(props: &DeviceProps, cfg: &LaunchConfig, stats: &LaunchStats) -> KernelTiming {
    let cycles_per_us = props.cycles_per_us();

    let compute_us = stats.flops as f64 / props.flops_per_us();

    let mem_us =
        (stats.gmem_transactions * TRANSACTION_BYTES) as f64 / props.mem_bytes_per_us();

    // Occupancy-limited wave count.
    let resident =
        props.resident_blocks_per_sm(cfg.block, stats.max_shared_bytes.min(u32::MAX as u64) as u32);
    let resident_total = (resident as u64 * props.num_sms as u64).max(1);
    let waves = stats.blocks.div_ceil(resident_total).max(1);

    let blocks = stats.blocks.max(1);
    let (chain_per_block, phases_per_block) = if stats.cooperative {
        (stats.grid_chain as f64, stats.grid_phases as f64)
    } else {
        let chain = (stats.mem_chain + stats.atomic_chain) as f64 / blocks as f64;
        (chain, stats.phases as f64 / blocks as f64)
    };
    let latency_cycles = waves as f64
        * (chain_per_block * props.mem_latency_cycles + phases_per_block * props.barrier_cycles);
    let latency_us = latency_cycles / cycles_per_us;

    let launch_us = props.launch_overhead_us;
    let grid_sync_us = stats.grid_syncs as f64 * DeviceProps::GRID_SYNC_US;
    let total_us = launch_us + compute_us.max(mem_us).max(latency_us) + grid_sync_us;
    KernelTiming { launch_us, compute_us, mem_us, latency_us, grid_sync_us, total_us }
}

/// Models one host↔device transfer of `bytes`.
pub fn transfer_time(props: &DeviceProps, bytes: u64) -> f64 {
    props.pcie_latency_us + bytes as f64 / props.pcie_bytes_per_us()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn props() -> DeviceProps {
        DeviceProps::paper_rig()
    }

    fn stats_for(blocks: u64, per_block: impl Fn(&mut LaunchStats)) -> LaunchStats {
        let mut s = LaunchStats { blocks, ..Default::default() };
        per_block(&mut s);
        s
    }

    #[test]
    fn empty_launch_costs_launch_overhead() {
        let p = props();
        let cfg = LaunchConfig::new(1, 32);
        let t = kernel_time(&p, &cfg, &stats_for(1, |_| {}));
        assert_eq!(t.total_us, p.launch_overhead_us);
        assert_eq!(t.bound(), Bound::Compute); // degenerate all-zero tie
    }

    #[test]
    fn compute_bound_kernel() {
        let p = props();
        let cfg = LaunchConfig::new(1024, 256);
        // Enormous flop count, negligible memory.
        let s = stats_for(1024, |s| {
            s.flops = 4_096_000_000;
            s.gmem_transactions = 10;
        });
        let t = kernel_time(&p, &cfg, &s);
        assert_eq!(t.bound(), Bound::Compute);
        let expect = 4_096_000_000.0 / p.flops_per_us();
        assert!((t.compute_us - expect).abs() / expect < 1e-12);
        assert!(t.total_us > t.compute_us); // includes launch overhead
    }

    #[test]
    fn memory_bound_kernel() {
        let p = props();
        let cfg = LaunchConfig::new(1024, 256);
        let s = stats_for(1024, |s| {
            s.gmem_transactions = 10_000_000; // 1.28 GB of traffic
            s.flops = 1000;
        });
        let t = kernel_time(&p, &cfg, &s);
        assert_eq!(t.bound(), Bound::Memory);
        let expect = 10_000_000.0 * 128.0 / p.mem_bytes_per_us();
        assert!((t.mem_us - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn tiny_launch_is_latency_bound() {
        let p = props();
        let cfg = LaunchConfig::new(1, 32);
        // One small block with a 4-access dependent chain.
        let s = stats_for(1, |s| {
            s.mem_chain = 4;
            s.phases = 1;
            s.gmem_transactions = 4;
            s.flops = 100;
        });
        let t = kernel_time(&p, &cfg, &s);
        assert_eq!(t.bound(), Bound::Latency);
        // 1 wave × (4×420 + 40) cycles at 1600 cycles/µs ≈ 1.075 µs.
        assert!((t.latency_us - (4.0 * 420.0 + 40.0) / 1600.0).abs() < 1e-9);
    }

    #[test]
    fn waves_scale_latency_term() {
        let p = props();
        let cfg = LaunchConfig::new(10_000, 256);
        let s = stats_for(10_000, |s| {
            s.mem_chain = 10_000 * 2;
            s.phases = 10_000;
        });
        let t1 = kernel_time(&p, &cfg, &s);
        // resident = min(32, 2048/256=8) = 8 per SM × 20 SMs = 160;
        // waves = ceil(10000/160) = 63.
        let resident = p.resident_blocks_per_sm(256, 0) as u64 * p.num_sms as u64;
        assert_eq!(resident, 160);
        let waves = 10_000u64.div_ceil(160);
        let expect = waves as f64 * (2.0 * p.mem_latency_cycles + p.barrier_cycles)
            / p.cycles_per_us();
        assert!((t1.latency_us - expect).abs() < 1e-9);
    }

    #[test]
    fn shared_memory_pressure_reduces_occupancy_and_slows_latency_bound() {
        let p = props();
        let cfg = LaunchConfig::new(1000, 128);
        let lean = stats_for(1000, |s| {
            s.mem_chain = 3000;
            s.phases = 1000;
        });
        let mut fat = lean.clone();
        fat.max_shared_bytes = 48 * 1024; // 2 resident blocks/SM only
        let t_lean = kernel_time(&p, &cfg, &lean);
        let t_fat = kernel_time(&p, &cfg, &fat);
        assert!(t_fat.latency_us > t_lean.latency_us);
    }

    /// A cooperative launch's latency follows its critical path, and its
    /// grid barriers add `grid_syncs · grid_sync_us` outside the roofline.
    #[test]
    fn grid_barriers_enter_the_timing_as_documented() {
        let p = props();
        let cfg = LaunchConfig::new(160, 256);
        let s = stats_for(160, |s| {
            s.cooperative = true;
            s.grid_syncs = 36;
            s.grid_chain = 233;
            s.grid_phases = 45;
            // Per-block averages the ordinary model would read: ignored.
            s.mem_chain = 160 * 7;
            s.phases = 160 * 45;
            s.gmem_transactions = 10;
        });
        let t = kernel_time(&p, &cfg, &s);
        assert_eq!(t.grid_sync_us, 36.0 * DeviceProps::GRID_SYNC_US);
        let latency = (233.0 * p.mem_latency_cycles + 45.0 * p.barrier_cycles) / p.cycles_per_us();
        assert_eq!(t.latency_us, latency);
        assert_eq!(t.bound(), Bound::Latency);
        assert_eq!(t.total_us, p.launch_overhead_us + latency + 36.0 * DeviceProps::GRID_SYNC_US);
        // An ordinary launch has no barrier term.
        let plain = kernel_time(&p, &cfg, &stats_for(160, |s| s.mem_chain = 160 * 7));
        assert_eq!(plain.grid_sync_us, 0.0);
    }

    #[test]
    fn transfer_model_latency_plus_bandwidth() {
        let p = props();
        assert_eq!(transfer_time(&p, 0), p.pcie_latency_us);
        let t = transfer_time(&p, 12_000_000); // 12 MB at 12 GB/s = 1000 µs
        assert!((t - (p.pcie_latency_us + 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_traffic() {
        let p = props();
        let cfg = LaunchConfig::new(64, 256);
        let mut prev = 0.0;
        for k in 1..6u64 {
            let s = stats_for(64, |s| {
                s.gmem_transactions = k * 100_000;
            });
            let t = kernel_time(&p, &cfg, &s).total_us;
            assert!(t >= prev);
            prev = t;
        }
    }
}
