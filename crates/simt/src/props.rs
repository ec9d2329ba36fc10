//! Device and host hardware descriptions used by the timing model.
//!
//! The simulator executes kernels *functionally* on host threads; the
//! structs here only parameterise the *clock* — how many microseconds a
//! launch, transfer or sweep is modeled to take. All presets are plain
//! constants so experiments are reproducible bit-for-bit.

/// Properties of the simulated CUDA-class device.
///
/// Defaults and presets are loosely modeled on publicly documented specs
/// of 2016–2020 NVIDIA parts (the paper's era). The `paper_rig` preset is
/// the calibrated configuration used by the reproduction experiments; see
/// `EXPERIMENTS.md` for the calibration procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceProps {
    /// Marketing-style name recorded in reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Threads per warp (32 on every NVIDIA part to date).
    pub warp_size: u32,
    /// Hard per-block thread limit (1024 on paper-era parts).
    pub max_threads_per_block: u32,
    /// Resident-block limit per SM.
    pub max_blocks_per_sm: u32,
    /// Resident-thread limit per SM.
    pub max_threads_per_sm: u32,
    /// Shared-memory limit per block, bytes.
    pub shared_mem_per_block: u32,
    /// Shared-memory capacity per SM, bytes (bounds occupancy).
    pub shared_mem_per_sm: u32,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Floating-point lanes per SM that the kernels' tallied flops are
    /// issued over (flops per cycle per SM).
    pub fp_lanes_per_sm: u32,
    /// Device-memory bandwidth, GB/s (10⁹ bytes).
    pub mem_bandwidth_gbps: f64,
    /// Device-memory round-trip latency, core cycles.
    pub mem_latency_cycles: f64,
    /// Fixed host-side cost of one kernel launch, µs.
    pub launch_overhead_us: f64,
    /// Effective host↔device interconnect bandwidth, GB/s.
    pub pcie_bandwidth_gbps: f64,
    /// Fixed per-transfer interconnect latency, µs.
    pub pcie_latency_us: f64,
    /// Modeled cost of one `__syncthreads()`-style phase boundary, cycles.
    pub barrier_cycles: f64,
    /// Device-memory capacity, bytes. Allocations are accounted against
    /// this and fail with `DeviceError::OutOfMemory` once exceeded.
    pub global_mem_bytes: u64,
}

impl DeviceProps {
    /// Copy engines: one host→device and one device→host, each running
    /// its copies one at a time beside the SMs (as on every paper-era
    /// GeForce and Tesla part). A copy on a created stream overlaps
    /// kernels and copies the other way; the default stream orders
    /// against everything (see [`crate::timeline`]). A kernel keeps its
    /// full device-memory bandwidth while copies run beside it: the model
    /// does not share it out. On [`DeviceProps::paper_rig`] the copies
    /// can take at most 2 × 12 of its 320 GB/s, which bounds the error.
    pub const COPY_ENGINES: usize = 2;

    /// Modeled cost of one grid-wide barrier of a cooperative launch
    /// (`grid.sync()` of CUDA's cooperative groups), µs, on every part.
    /// Zhang et al., "A Study of Single and Multi-device Synchronization
    /// Methods in Nvidia GPUs" (IPDPS 2020), measure a grid barrier on
    /// Pascal and Volta parts at a few microseconds once every SM holds
    /// its full complement of resident blocks, growing with the blocks it
    /// waits for; the model takes 3 µs, under the 5 µs launch it replaces
    /// in a level-synchronous sweep.
    pub const GRID_SYNC_US: f64 = 3.0;

    /// Mid-range Pascal-era GeForce: GTX 1060-class.
    pub fn gtx_1060() -> Self {
        DeviceProps {
            name: "sim-gtx1060",
            num_sms: 10,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 96 * 1024,
            clock_ghz: 1.70,
            fp_lanes_per_sm: 128,
            mem_bandwidth_gbps: 192.0,
            mem_latency_cycles: 400.0,
            launch_overhead_us: 5.0,
            pcie_bandwidth_gbps: 11.0,
            pcie_latency_us: 10.0,
            barrier_cycles: 40.0,
            global_mem_bytes: 6 * 1024 * 1024 * 1024,
        }
    }

    /// High-end Pascal GeForce: GTX 1080 Ti-class.
    pub fn gtx_1080_ti() -> Self {
        DeviceProps {
            name: "sim-gtx1080ti",
            num_sms: 28,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 96 * 1024,
            clock_ghz: 1.58,
            fp_lanes_per_sm: 128,
            mem_bandwidth_gbps: 484.0,
            mem_latency_cycles: 400.0,
            launch_overhead_us: 5.0,
            pcie_bandwidth_gbps: 12.0,
            pcie_latency_us: 8.0,
            barrier_cycles: 40.0,
            global_mem_bytes: 11 * 1024 * 1024 * 1024,
        }
    }

    /// Embedded Jetson TX2-class part (small SM count, shared DRAM).
    pub fn jetson_tx2() -> Self {
        DeviceProps {
            name: "sim-jetson-tx2",
            num_sms: 2,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 64 * 1024,
            clock_ghz: 1.30,
            fp_lanes_per_sm: 128,
            mem_bandwidth_gbps: 58.0,
            mem_latency_cycles: 400.0,
            launch_overhead_us: 12.0,
            pcie_bandwidth_gbps: 8.0,
            pcie_latency_us: 12.0,
            barrier_cycles: 40.0,
            global_mem_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// The calibrated reproduction rig (see EXPERIMENTS.md §Calibration).
    ///
    /// Chosen so the E1 total-speedup curve over balanced binary trees
    /// matches the abstract's shape: transfer/launch-bound below ~8K
    /// nodes, rising to ≈4× total speedup at 256K nodes.
    pub fn paper_rig() -> Self {
        DeviceProps {
            name: "sim-paper-rig",
            num_sms: 20,
            warp_size: 32,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            shared_mem_per_block: 48 * 1024,
            shared_mem_per_sm: 96 * 1024,
            clock_ghz: 1.60,
            fp_lanes_per_sm: 128,
            mem_bandwidth_gbps: 320.0,
            mem_latency_cycles: 420.0,
            launch_overhead_us: 5.0,
            pcie_bandwidth_gbps: 12.0,
            pcie_latency_us: 8.0,
            barrier_cycles: 40.0,
            global_mem_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// Core cycles per microsecond.
    #[inline]
    pub fn cycles_per_us(&self) -> f64 {
        self.clock_ghz * 1e3
    }

    /// Device-memory bandwidth in bytes per microsecond.
    #[inline]
    pub fn mem_bytes_per_us(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e3
    }

    /// Interconnect bandwidth in bytes per microsecond.
    #[inline]
    pub fn pcie_bytes_per_us(&self) -> f64 {
        self.pcie_bandwidth_gbps * 1e3
    }

    /// Peak modeled flop throughput, flops per microsecond.
    #[inline]
    pub fn flops_per_us(&self) -> f64 {
        self.num_sms as f64 * self.fp_lanes_per_sm as f64 * self.cycles_per_us()
    }

    /// Resident blocks per SM for a given per-block thread count and
    /// shared-memory footprint (the occupancy bound used by the timing
    /// model).
    pub fn resident_blocks_per_sm(&self, threads_per_block: u32, shared_bytes: u32) -> u32 {
        let by_blocks = self.max_blocks_per_sm;
        let by_threads = self
            .max_threads_per_sm
            .checked_div(threads_per_block)
            .unwrap_or(self.max_blocks_per_sm);
        let by_shared = self
            .shared_mem_per_sm
            .checked_div(shared_bytes)
            .unwrap_or(self.max_blocks_per_sm);
        by_blocks.min(by_threads).min(by_shared).max(1)
    }

    /// The largest grid a cooperative launch of `threads_per_block`-thread
    /// blocks with `shared_bytes` of shared memory each may have: every
    /// block must be resident at once, so that a grid barrier can wait
    /// for all of them (`cudaOccupancyMaxActiveBlocksPerMultiprocessor` ×
    /// SMs).
    pub fn cooperative_blocks(&self, threads_per_block: u32, shared_bytes: u32) -> u32 {
        self.resident_blocks_per_sm(threads_per_block, shared_bytes) * self.num_sms
    }

    /// Validates internal consistency; returns a human-readable complaint
    /// for nonsensical configurations (used by tests and the CLI when the
    /// user supplies a custom rig).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be nonzero".into());
        }
        if self.warp_size == 0 || !self.warp_size.is_power_of_two() {
            return Err("warp_size must be a nonzero power of two".into());
        }
        if self.max_threads_per_block == 0 || self.max_threads_per_sm < self.max_threads_per_block {
            return Err("thread limits are inconsistent".into());
        }
        if self.shared_mem_per_sm < self.shared_mem_per_block {
            return Err("shared_mem_per_sm must be >= shared_mem_per_block".into());
        }
        for (v, name) in [
            (self.clock_ghz, "clock_ghz"),
            (self.mem_bandwidth_gbps, "mem_bandwidth_gbps"),
            (self.pcie_bandwidth_gbps, "pcie_bandwidth_gbps"),
        ] {
            if v <= 0.0 || v.is_nan() {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.global_mem_bytes == 0 {
            return Err("global_mem_bytes must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for DeviceProps {
    fn default() -> Self {
        DeviceProps::paper_rig()
    }
}

/// Properties of the modeled host CPU, used to turn the serial solver's
/// tallied operation counts into a deterministic modeled runtime
/// comparable with the device model.
#[derive(Clone, Debug, PartialEq)]
pub struct HostProps {
    /// Name recorded in reports.
    pub name: &'static str,
    /// Core clock, GHz.
    pub clock_ghz: f64,
    /// Sustained scalar floating-point operations per cycle (accounts for
    /// superscalar issue minus dependency stalls; ~1–2 for pointer-chasing
    /// sweep code).
    pub flops_per_cycle: f64,
    /// Sustained memory bandwidth for the working set, GB/s. For working
    /// sets that spill out of LLC this is DRAM bandwidth achievable from
    /// one core (~10–15 GB/s on desktop parts of the era).
    pub mem_bandwidth_gbps: f64,
    /// Last-level-cache size, bytes; working sets below this use
    /// `cache_bandwidth_gbps` instead.
    pub llc_bytes: u64,
    /// Bandwidth when the working set fits in LLC, GB/s.
    pub cache_bandwidth_gbps: f64,
}

impl HostProps {
    /// Desktop CPU contemporary with the paper (Coffee Lake-class core).
    pub fn desktop_2019() -> Self {
        HostProps {
            name: "sim-desktop-2019",
            clock_ghz: 3.6,
            flops_per_cycle: 2.0,
            mem_bandwidth_gbps: 12.0,
            llc_bytes: 12 * 1024 * 1024,
            cache_bandwidth_gbps: 60.0,
        }
    }

    /// The calibrated reproduction host (pairs with
    /// [`DeviceProps::paper_rig`]).
    pub fn paper_rig() -> Self {
        HostProps {
            name: "sim-paper-host",
            clock_ghz: 3.5,
            flops_per_cycle: 2.0,
            mem_bandwidth_gbps: 13.0,
            llc_bytes: 8 * 1024 * 1024,
            cache_bandwidth_gbps: 55.0,
        }
    }

    /// Models the time, in µs, of a serial code region that performs
    /// `flops` floating-point operations over a working set of
    /// `bytes_touched` bytes (each byte counted once per pass).
    ///
    /// Roofline-style: the region takes the *max* of its compute time and
    /// its memory time. Effective bandwidth transitions smoothly from
    /// cache to DRAM speed as the working set grows past the LLC (between
    /// 1× and 4× the LLC the hit rate — and thus bandwidth — is
    /// interpolated on a log scale, avoiding an unphysical cliff).
    pub fn region_time_us(&self, flops: u64, bytes_touched: u64) -> f64 {
        self.region_time_us_ws(flops, bytes_touched, bytes_touched)
    }

    /// [`HostProps::region_time_us`] with an explicit *resident working
    /// set* governing the bandwidth choice. Iterative solvers that cycle
    /// over several arrays should pass the total state size here: once it
    /// spills the LLC, every pass streams from DRAM even though each pass
    /// touches only a subset.
    pub fn region_time_us_ws(&self, flops: u64, bytes_touched: u64, working_set: u64) -> f64 {
        let t_compute = flops as f64 / (self.clock_ghz * 1e3 * self.flops_per_cycle);
        let bw = self.effective_bandwidth_gbps(working_set);
        let t_mem = bytes_touched as f64 / (bw * 1e3);
        t_compute.max(t_mem)
    }

    /// Effective sequential bandwidth for a given working set, GB/s.
    pub fn effective_bandwidth_gbps(&self, working_set: u64) -> f64 {
        let llc = self.llc_bytes as f64;
        let ws = working_set as f64;
        if ws <= llc {
            self.cache_bandwidth_gbps
        } else if ws >= 4.0 * llc {
            self.mem_bandwidth_gbps
        } else {
            // Log-linear interpolation over the 1×..4× LLC transition.
            let t = (ws / llc).log2() / 2.0; // 0 at 1×, 1 at 4×
            self.cache_bandwidth_gbps * (self.mem_bandwidth_gbps / self.cache_bandwidth_gbps).powf(t)
        }
    }
}

impl Default for HostProps {
    fn default() -> Self {
        HostProps::paper_rig()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for p in [
            DeviceProps::gtx_1060(),
            DeviceProps::gtx_1080_ti(),
            DeviceProps::jetson_tx2(),
            DeviceProps::paper_rig(),
            DeviceProps::default(),
        ] {
            p.validate().expect("preset should validate");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut p = DeviceProps::paper_rig();
        p.num_sms = 0;
        assert!(p.validate().is_err());

        let mut p = DeviceProps::paper_rig();
        p.warp_size = 31;
        assert!(p.validate().is_err());

        let mut p = DeviceProps::paper_rig();
        p.clock_ghz = 0.0;
        assert!(p.validate().is_err());

        let mut p = DeviceProps::paper_rig();
        p.shared_mem_per_sm = 1024;
        p.shared_mem_per_block = 48 * 1024;
        assert!(p.validate().is_err());

        let mut p = DeviceProps::paper_rig();
        p.global_mem_bytes = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn occupancy_bounds() {
        let p = DeviceProps::paper_rig();
        // Thread-limited: 1024-thread blocks → 2048/1024 = 2 resident.
        assert_eq!(p.resident_blocks_per_sm(1024, 0), 2);
        // Block-limited: tiny blocks hit the 32-block cap.
        assert_eq!(p.resident_blocks_per_sm(32, 0), 32);
        // Shared-memory-limited: 48 KiB blocks → 96/48 = 2 resident.
        assert_eq!(p.resident_blocks_per_sm(64, 48 * 1024), 2);
        // Never returns zero even for absurd footprints.
        assert_eq!(p.resident_blocks_per_sm(4096, 10 * 1024 * 1024), 1);
    }

    #[test]
    fn unit_conversions() {
        let p = DeviceProps::paper_rig();
        assert!((p.cycles_per_us() - 1600.0).abs() < 1e-9);
        assert!((p.mem_bytes_per_us() - 320_000.0).abs() < 1e-9);
        assert!((p.flops_per_us() - 20.0 * 128.0 * 1600.0).abs() < 1e-6);
    }

    #[test]
    fn host_region_time_roofline() {
        let h = HostProps::paper_rig();
        // Pure compute: 7000 flops at 7 flops/ns → 1 µs.
        let t = h.region_time_us(7_000, 0);
        assert!((t - 1.0).abs() < 1e-9);
        // Memory-bound far-out-of-cache region (≥ 4×LLC): 65 MB at
        // 13 GB/s → 5000 µs.
        let t = h.region_time_us(0, 65_000_000);
        assert!((t - 5000.0).abs() < 1e-6);
        // The LLC transition interpolates between the two bandwidths.
        let mid_bw = h.effective_bandwidth_gbps(2 * h.llc_bytes);
        assert!(mid_bw < h.cache_bandwidth_gbps && mid_bw > h.mem_bandwidth_gbps);
        // In-cache region uses the faster bandwidth.
        let small = h.region_time_us(0, 55_000);
        assert!((small - 1.0).abs() < 1e-6);
    }
}
